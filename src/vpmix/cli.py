"""Configuration-driven command line front end.

Subcommands: ``levels``, ``anticross``, ``perturb``, ``dynamics``, ``ecc``,
``validate``.  Each reads a JSON run configuration (``--config``), which
either names a bundled scenario preset (``"scenario": "fig3"`` etc., with any
field overridable) or supplies everything explicitly (``"scenario":
"custom"``).  Outputs (CSV/JSON plus a manifest with checksums) are written
to ``--out``; identical configurations produce byte-identical data files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import bare_state, cavity_number
from .circuits import run_ecc
from .dynamics import (
    build_cavity_lowering,
    build_dissipators,
    build_dressed_lowering,
    expectation_series,
)
from .errors import ConfigError, VpmixError
from .model import QubitParams, SystemConfig
from .perturbation import effective_coupling, three_mix_coupling
from .presets import SCENARIOS, get_preset
from .spectrum import (
    MODEL_BUILDERS,
    coupling_sign,
    diagonalize,
    find_anticrossing,
    set_parameter,
    superposition_states,
    sweep_levels,
)

_COMMANDS = ("levels", "anticross", "perturb", "dynamics", "ecc", "validate")

_TOP_KEYS = {"scenario", "description", "out", "system", "sweep", "anticross",
             "dynamics", "perturb", "ecc"}
# Allowed fields of each section and the JSON type each must hold (None: any).
# "number" and "integer" exclude bools, "integer" also 2.5; "numbers" and
# "integers" are lists of them; a "bracket" is a list of exactly two numbers;
# a "state" is [levels, photons], a "pair" two states; a "model" names one of
# MODEL_BUILDERS.
_SCHEMA = {
    "system": {"qubits": None, "omega_c": "number", "kappa": "number", "fock_cutoff": "integer"},
    "qubit": dict.fromkeys(("omega", "lam", "theta", "gamma"), "number"),
    "sweep": {"parameter": "string", "start": "number", "stop": "number", "points": "integer",
              "levels": "integer", "model": "model", "inset": None},
    "inset": {"start": "number", "stop": "number", "points": "integer"},
    "anticross": {"parameter": "string", "bracket": "bracket", "pair": "pair", "model": "model",
                  "tol": "number"},
    "dynamics": {"initial": None, "tune_to_minimum": "boolean", "half_periods": "number",
                 "points": "integer", "lossless": "boolean", "observables": None},
    "observable": {"name": "string", "kind": "string", "qubit": "integer", "qubits": "integers"},
    "perturb": {"mode": None, "order": "integer", "initial": "state", "final": "state",
                "model": "model", "epsilon": "number", "lambdas": "numbers",
                "cavity_offset_factor": "number", "parameter": "string", "bracket": "bracket",
                "pair": "pair"},
    "ecc": {"seed": "integer"},
}
_REQUIRED_KEYS = {
    "sweep": ("parameter", "start", "stop", "points", "levels"),
    "inset": ("start", "stop", "points"),
    "observable": ("name", "kind"),
}
_OBSERVABLE_NEEDS = {"excitation": "qubit", "correlation": "qubits"}


_SCALAR_TYPES = {"number": (int, float), "integer": int, "boolean": bool, "string": str}
_KIND_TEXT = {
    "model": "one of " + ", ".join(map(repr, MODEL_BUILDERS)),
    "state": "a [levels, photons] state",
    "pair": "two [levels, photons] states",
}


def _has_type(kind: str, value) -> bool:
    if kind == "model":
        return isinstance(value, str) and value in MODEL_BUILDERS
    if kind == "state":
        return (isinstance(value, list) and len(value) == 2
                and _has_type("string", value[0]) and _has_type("integer", value[1]))
    if kind == "pair":
        return (isinstance(value, list) and len(value) == 2
                and all(_has_type("state", v) for v in value))
    if kind in ("numbers", "integers", "bracket"):
        item = "integer" if kind == "integers" else "number"
        return (isinstance(value, list) and all(_has_type(item, v) for v in value)
                and (kind != "bracket" or len(value) == 2))
    return isinstance(value, _SCALAR_TYPES[kind]) and (
        kind == "boolean" or not isinstance(value, bool))


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _deep_merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        merged = dict(base)
        for key, val in override.items():
            merged[key] = _deep_merge(base.get(key), val) if key in base else val
        return merged
    return override


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def resolve_config(user_cfg: dict) -> dict:
    scenario = user_cfg.get("scenario", "custom")
    if scenario == "custom":
        return dict(user_cfg)
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))} or 'custom'"
        )
    merged = _deep_merge(get_preset(scenario), {k: v for k, v in user_cfg.items()
                                                if k != "scenario"})
    merged["scenario"] = scenario
    return merged


def validate_config(cfg: dict) -> tuple[list[str], list[str]]:
    """Schema and physics checks; returns (errors, warnings)."""
    errors: list[str] = []
    warnings: list[str] = []
    for key in cfg:
        if key not in _TOP_KEYS:
            errors.append(f"unknown top-level field {key!r}")

    def check_keys(section: dict, schema: str, where: str):
        for key, value in section.items():
            kind = _SCHEMA[schema].get(key)
            if key not in _SCHEMA[schema]:
                errors.append(f"unknown field {key!r} in {where}")
            elif kind and not _has_type(kind, value):
                expected = _KIND_TEXT.get(kind, f"of type {kind}")
                errors.append(f"field {key!r} in {where} must be {expected}, got {value!r}")
        for key in _REQUIRED_KEYS.get(schema, ()):
            if key not in section:
                errors.append(f"{where} needs {key!r}")

    system = cfg.get("system")
    if system is not None:
        if not isinstance(system, dict):
            errors.append("'system' must be an object")
        else:
            check_keys(system, "system", "system")
            qubits = system.get("qubits", [])
            if not isinstance(qubits, list) or not qubits:
                errors.append("system.qubits must be a non-empty list")
            else:
                for i, q in enumerate(qubits):
                    if not isinstance(q, dict):
                        errors.append(f"system.qubits[{i}] must be an object")
                        continue
                    check_keys(q, "qubit", f"system.qubits[{i}]")
                    if "omega" not in q or "lam" not in q:
                        errors.append(f"system.qubits[{i}] needs 'omega' and 'lam'")
            if "omega_c" not in system:
                errors.append("system needs 'omega_c'")
            if not errors and all(isinstance(q, dict) for q in qubits):
                omega_c = float(system["omega_c"])
                for i, q in enumerate(qubits, start=1):
                    omega, lam = float(q.get("omega", 0)), float(q.get("lam", 0))
                    if lam > 0 and abs(omega - omega_c) < 3.0 * lam:
                        warnings.append(
                            f"qubit {i}: |omega - omega_c| = {abs(omega - omega_c):.4g} "
                            f"< 3 lam = {3 * lam:.4g}; dispersive regime is marginal"
                        )
    for name in ("sweep", "anticross", "dynamics", "perturb", "ecc"):
        section = cfg.get(name)
        if section is None:
            continue
        if not isinstance(section, dict):
            errors.append(f"'{name}' must be an object")
            continue
        check_keys(section, name, name)
        if name == "sweep" and isinstance(section.get("inset"), dict):
            check_keys(section["inset"], "inset", "sweep.inset")
        if name == "dynamics":
            initial = section.get("initial")
            if isinstance(initial, list) and not (
                    len(initial) == 3 and initial[0] == "bare"
                    and isinstance(initial[1], str) and _has_type("integer", initial[2])):
                errors.append(
                    f"dynamics.initial must be ['bare', levels, photons], got {initial!r}")
            observables = section.get("observables", [])
            if not isinstance(observables, list):
                errors.append("dynamics.observables must be a list")
                continue
            for j, obs in enumerate(observables):
                where = f"dynamics.observables[{j}]"
                if not isinstance(obs, dict):
                    errors.append(f"{where} must be an object")
                    continue
                check_keys(obs, "observable", where)
                needed = _OBSERVABLE_NEEDS.get(str(obs.get("kind")))
                if needed and needed not in obs:
                    errors.append(f"{where} of kind {obs['kind']!r} needs {needed!r}")
    return errors, warnings


def build_system(cfg: dict, cutoff_override: int | None = None) -> SystemConfig:
    system = cfg.get("system")
    if system is None:
        raise ConfigError("this command needs a 'system' section")
    qubits = tuple(
        QubitParams(
            omega=float(q["omega"]),
            lam=float(q["lam"]),
            theta=float(q.get("theta", 0.0)),
            gamma=float(q.get("gamma", 0.0)),
        )
        for q in system["qubits"]
    )
    return SystemConfig(
        qubits=qubits,
        omega_c=float(system["omega_c"]),
        kappa=float(system.get("kappa", 0.0)),
        fock_cutoff=int(cutoff_override if cutoff_override is not None
                        else system.get("fock_cutoff", 8)),
    )


def _require(cfg: dict, section: str) -> dict:
    block = cfg.get(section)
    if block is None:
        raise ConfigError(
            f"this command needs a {section!r} section (scenario "
            f"{cfg.get('scenario', 'custom')!r} does not provide one)"
        )
    return block


def _pair_indices(system: SystemConfig, pair) -> tuple[int, int]:
    layout = system.layout
    return (layout.bare_index(pair[0][0], int(pair[0][1])),
            layout.bare_index(pair[1][0], int(pair[1][1])))


def _sweep_csv(result) -> bytes:
    n_levels = result.energies.shape[1]
    header = ([result.parameter]
              + [f"E{m + 1}" for m in range(n_levels)]
              + [f"label{m + 1}" for m in range(n_levels)])
    lines = [",".join(header)]
    for p, x in enumerate(result.grid):
        row = [_fmt(x)]
        row += [_fmt(e) for e in result.energies[p]]
        row += [result.label_string(p, m) for m in range(n_levels)]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def cmd_levels(cfg: dict, system: SystemConfig, threads: int) -> dict[str, bytes]:
    sweep = _require(cfg, "sweep")
    outputs = {}
    for name, span in (("levels.csv", sweep), ("levels_inset.csv", sweep.get("inset"))):
        if span:
            grid = np.linspace(float(span["start"]), float(span["stop"]), int(span["points"]))
            result = sweep_levels(
                system, sweep["parameter"], grid, int(sweep["levels"]),
                model=sweep.get("model", "dicke"), threads=threads,
            )
            outputs[name] = _sweep_csv(result)
    return outputs


def _anticross_report(system: SystemConfig, block: dict):
    pair = _pair_indices(system, block["pair"])
    return find_anticrossing(
        system,
        block["parameter"],
        tuple(float(x) for x in block["bracket"]),
        pair,
        model=block.get("model", "dicke"),
        tol=float(block.get("tol", 1e-6)),
    )


def cmd_anticross(cfg: dict, system: SystemConfig) -> dict[str, bytes]:
    block = _require(cfg, "anticross")
    rep = _anticross_report(system, block)
    layout = system.layout
    payload = {
        "parameter": rep.parameter,
        "location": rep.location,
        "splitting": rep.splitting,
        "half_splitting": rep.splitting / 2.0,
        "branch_indices": list(rep.branch_indices),
        "branch_energies": list(rep.branch_energies),
        "superposition_overlaps": list(rep.superposition_overlaps),
        "pair": [layout.label_string(b) for b in rep.bare_pair],
        "evaluations": rep.evaluations,
    }
    return {"anticross.json": (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()}


def _observable_ops(obs: dict, lowering: dict, layout, spectrum):
    kind = obs.get("kind")
    if kind == "excitation":
        s = lowering[int(obs["qubit"])]
        return [s.dag(), s]
    if kind == "correlation":
        qs = [int(q) for q in obs["qubits"]]
        return [lowering[q].dag() for q in qs] + [lowering[q] for q in reversed(qs)]
    if kind == "photon":
        return [bare_state(layout, "g" * layout.qubit_count, 1).projector()]
    if kind == "cavity_number":
        return [cavity_number(layout)]
    if kind == "cavity_emission":
        a = build_cavity_lowering(spectrum)
        return [a.dag(), a]
    raise ConfigError(f"unknown observable kind {kind!r}")


def cmd_dynamics(cfg: dict, system: SystemConfig) -> dict[str, bytes]:
    dyn = _require(cfg, "dynamics")
    anti = _require(cfg, "anticross")
    rep = _anticross_report(system, anti)
    tuned = set_parameter(system, anti["parameter"], rep.location) \
        if dyn.get("tune_to_minimum", True) else system
    builder = MODEL_BUILDERS[anti.get("model", "dicke")]
    hamiltonian = builder(tuned)
    spectrum = diagonalize(hamiltonian)
    layout = system.layout
    u_idx, v_idx = _pair_indices(system, anti["pair"])
    u_dressed, v_dressed = superposition_states(spectrum, u_idx, v_idx, rep.branch_indices)
    sign = coupling_sign(spectrum, u_idx, v_idx, rep.branch_indices)
    overrides = {u_idx: u_dressed, v_idx: v_dressed}

    observables = dyn.get("observables", [])
    needed_qubits = set()
    for obs in observables:
        if obs.get("kind") == "excitation":
            needed_qubits.add(int(obs["qubit"]))
        elif obs.get("kind") == "correlation":
            needed_qubits.update(int(q) for q in obs["qubits"])
    lowering = {
        q: build_dressed_lowering(spectrum, q, overrides, on_ambiguous="skip")
        for q in sorted(needed_qubits)
    }

    initial = dyn.get("initial", "pair_symmetric")
    if initial == "pair_symmetric":
        rho0 = u_dressed
    elif initial == "pair_antisymmetric":
        rho0 = v_dressed
    elif isinstance(initial, (list, tuple)) and initial and initial[0] == "bare":
        rho0 = bare_state(layout, initial[1], int(initial[2]))
    else:
        raise ConfigError(f"unknown initial state spec {initial!r}")

    half_j = rep.splitting / 2.0
    if half_j <= 0:
        raise ConfigError("zero splitting; cannot set the dynamics time scale")
    t_max = float(dyn.get("half_periods", 2.0)) * math.pi / (2.0 * half_j)
    grid = np.linspace(0.0, t_max, int(dyn.get("points", 600)))
    rates = {} if dyn.get("lossless", False) else build_dissipators(spectrum, tuned)
    values = expectation_series(
        rho0, hamiltonian, rates, grid,
        [_observable_ops(obs, lowering, layout, spectrum) for obs in observables],
        spectrum=spectrum,
    )

    lines = [",".join(["t"] + [obs["name"] for obs in observables])]
    for t, row in zip(grid, values):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in row]))
    meta = {
        "parameter": anti["parameter"],
        "location": rep.location,
        "splitting": rep.splitting,
        "effective_coupling": half_j,
        "coupling_sign": sign,
        "dissipator_count": sum(int(np.count_nonzero(r)) for r in rates.values()),
        "initial": initial if isinstance(initial, str) else list(initial),
        "time_unit": "1/omega_0",
    }
    return {
        "dynamics.csv": ("\n".join(lines) + "\n").encode(),
        "dynamics_meta.json": (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode(),
    }


def cmd_perturb(cfg: dict, system: SystemConfig) -> dict[str, bytes]:
    block = _require(cfg, "perturb")
    mode = block.get("mode", "paths")
    layout = system.layout
    if mode == "paths":
        initial = (block["initial"][0], int(block["initial"][1]))
        final = (block["final"][0], int(block["final"][1]))
        report = effective_coupling(
            system, initial, final, int(block.get("order", 4)),
            epsilon=float(block.get("epsilon", 1e-9)),
            model=block.get("model", "dicke"),
        )
        payload = {
            "order": report.order,
            "initial": layout.label_string(report.initial),
            "final": layout.label_string(report.final),
            "path_count": report.path_count,
            "per_diagram": {layout.label_string(k): v for k, v in report.per_diagram.items()},
            "total": report.total,
            "paths": [
                {
                    "states": [layout.label_string(s) for s in p.states],
                    "amplitude": p.amplitude,
                    "diagram": layout.label_string(p.diagram),
                }
                for p in report.paths
            ],
        }
        return {"paths.json": (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()}
    if mode == "coupling_sweep":
        factor = float(block.get("cavity_offset_factor", 2.5))
        pair = block["pair"]
        initial = (block["initial"][0], int(block["initial"][1]))
        final = (block["final"][0], int(block["final"][1]))
        theta = system.qubits[0].theta
        omega_ref = system.qubits[-1].omega
        lines = ["lam,omega_c,splitting_numeric,two_j_paths,two_j_closed_form"]
        for lam in block["lambdas"]:
            lam = float(lam)
            omega_c = omega_ref + factor * lam
            cfg_l = SystemConfig(
                qubits=tuple(
                    QubitParams(q.omega, lam, q.theta, q.gamma) for q in system.qubits
                ),
                omega_c=omega_c,
                kappa=system.kappa,
                fock_cutoff=system.fock_cutoff,
            )
            rep = find_anticrossing(
                cfg_l, block["parameter"],
                tuple(float(x) for x in block["bracket"]),
                _pair_indices(cfg_l, pair),
                model=block.get("model", "dicke"),
            )
            path_rep = effective_coupling(
                cfg_l, initial, final, int(block.get("order", 4)),
                epsilon=float(block.get("epsilon", 1e-9)),
            )
            closed = three_mix_coupling(lam, omega_ref, omega_c, theta)
            lines.append(",".join(_fmt(x) for x in (
                lam, omega_c, rep.splitting, 2.0 * abs(path_rep.total), 2.0 * abs(closed),
            )))
        return {"coupling_sweep.csv": ("\n".join(lines) + "\n").encode()}
    raise ConfigError(f"unknown perturb mode {mode!r}")


def cmd_ecc(cfg: dict, seed_override: int | None) -> dict[str, bytes]:
    block = _require(cfg, "ecc")
    seed = int(seed_override if seed_override is not None else block.get("seed", 0))
    rng = np.random.default_rng(seed)
    rows = []
    cases = [("bitflip", None), ("bitflip", ("x", 1)), ("bitflip", ("x", 2)),
             ("bitflip", ("x", 3)), ("phaseflip", ("z", 1)), ("phaseflip", ("z", 2)),
             ("phaseflip", ("z", 3))]
    for implementation in ("cnot", "mix"):
        for mode, error in cases:
            raw = rng.normal(size=4)
            a = complex(raw[0], raw[1])
            b = complex(raw[2], raw[3])
            norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / norm, b / norm
            report = run_ecc(a, b, error, mode=mode, implementation=implementation)
            rows.append({
                "implementation": report.implementation,
                "mode": report.mode,
                "error": None if report.error is None else list(report.error),
                "syndrome": list(report.syndrome),
                "corrected_wire": report.corrected_wire,
                "fidelity": report.fidelity,
                "logical_state": [a.real, a.imag, b.real, b.imag],
            })
    payload = {"seed": seed, "cases": rows}
    return {"ecc_report.json": (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()}


def run_command(command: str, cfg: dict, out_dir: Path, threads: int,
                cutoff: int | None, seed: int | None) -> dict:
    """Validate, execute one subcommand, write outputs and a manifest."""
    errors, warnings = validate_config(cfg)
    if errors:
        raise ConfigError("; ".join(errors))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)

    started = time.time()
    if command == "ecc":
        outputs = cmd_ecc(cfg, seed)
    else:
        system = build_system(cfg, cutoff)
        if command == "levels":
            outputs = cmd_levels(cfg, system, threads)
        elif command == "anticross":
            outputs = cmd_anticross(cfg, system)
        elif command == "dynamics":
            outputs = cmd_dynamics(cfg, system)
        elif command == "perturb":
            outputs = cmd_perturb(cfg, system)
        else:
            raise ConfigError(f"unknown command {command!r}")

    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for name, data in outputs.items():
        (out_dir / name).write_bytes(data)
        records.append({"file": name, "sha256": _sha256(data), "bytes": len(data)})
    manifest = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "wall_time_s": time.time() - started,
        "outputs": records,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def cmd_validate(cfg: dict) -> int:
    errors, warnings = validate_config(cfg)
    for e in errors:
        print(f"error: {e}")
    for w in warnings:
        print(f"warning: {w}")
    if not errors and not warnings:
        print("ok: no diagnostics")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vpmix",
        description="multi-qubit mixing laboratory: spectra, path sums, dynamics, "
                    "error-correction circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1, help="sweep worker threads")
        p.add_argument("--cutoff", type=int, default=None, help="override fock_cutoff")
        p.add_argument("--seed", type=int, default=None, help="override random seed")
    args = parser.parse_args(argv)

    try:
        cfg = resolve_config(load_config(args.config))
        if args.command == "validate":
            return cmd_validate(cfg)
        out_dir = Path(args.out or cfg.get("out")
                       or f"out/{cfg.get('scenario', 'custom')}-{args.command}")
        run_command(args.command, cfg, out_dir, args.threads, args.cutoff, args.seed)
        return 0
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except VpmixError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
