"""Configuration-driven command line front end.

Subcommands: ``levels``, ``anticross``, ``perturb``, ``dynamics``, ``ecc``,
``validate``.  Each reads a JSON run configuration (``--config``), which
either names a bundled scenario preset (``"scenario": "fig3"`` etc., with any
field overridable) or supplies everything explicitly (``"scenario":
"custom"``).  Outputs (CSV/JSON plus a manifest with checksums) are written
to ``--out``; identical configurations produce byte-identical data files.

One table, ``_SCHEMA``, is the source of every field's kind and required
flag.  Each command and ``validate`` check the resolved configuration against
it, then its values against the library's own argument checks, so
``validate`` reports every configuration error a command would raise; the
commands pass on only the fields a configuration sets (library defaults).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from contextlib import suppress
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import run_ecc
from .dynamics import (_cavity_lowering, _dressed_lowering, _propagated_levels, _series,
                       build_dissipators)
from .errors import ConfigError, VpmixError
from .model import MODEL_BUILDERS, QubitParams, SystemConfig, _layout_terms
from .perturbation import _dispersive_warning, effective_coupling, three_mix_coupling
from .presets import SCENARIOS, get_preset
from .spectrum import (
    _pair_columns,
    _search_inputs,
    _sweep_inputs,
    coupling_sign,
    find_anticrossing,
    sweep_levels,
)

_COMMANDS = ("levels", "anticross", "perturb", "dynamics", "ecc", "validate")

# The one schema of a run configuration.  Each section maps a field to
# (kind, required), where required is True, False, or the (field, value) that
# makes it required, as an observable's kind does.  A required list must not
# be empty.  A kind is a section (dict), a list of one section ([section]), a
# tuple of the allowed values, or a name: "number" and "integer" exclude bools,
# "number" also what no float holds: JSON's NaN and Infinity and larger ints,
# "integer" also 2.5; "numbers" and "integers" are lists of them; a "bracket"
# is a list of exactly two numbers; a "state" is [levels, photons], a "pair"
# two states; "positive" is a number above 0, "non_negative" a number >= 0,
# "natural" an integer >= 0 and "count" an integer >= 1.
_MODELS = tuple(MODEL_BUILDERS)
_SPAN = {"start": ("number", True), "stop": ("number", True), "points": ("count", True)}
_SCHEMA = {
    "scenario": ("string", False),
    "description": ("string", False),
    "out": ("string", False),
    "system": ({
        "qubits": ([{"omega": ("positive", True), "lam": ("non_negative", True),
                     "theta": ("number", False), "gamma": ("non_negative", False)}], True),
        "omega_c": ("positive", True), "kappa": ("non_negative", False),
        "fock_cutoff": ("count", False)}, False),
    "sweep": ({"parameter": ("string", True), **_SPAN, "levels": ("integer", True),
               "model": (_MODELS, False), "inset": (_SPAN, False)}, False),
    "anticross": ({"parameter": ("string", True), "bracket": ("bracket", True),
                   "pair": ("pair", True), "model": (_MODELS, False),
                   "tol": ("positive", False)}, False),
    "dynamics": ({
        "initial": ("initial", False), "half_periods": ("positive", False),
        "points": ("count", False), "lossless": ("boolean", False),
        "observables": ([{
            "name": ("string", True),
            "kind": (("excitation", "correlation", "photon", "cavity_number",
                      "cavity_emission"), True),
            "qubit": ("integer", ("kind", "excitation")),
            "qubits": ("integers", ("kind", "correlation"))}], False)}, False),
    "perturb": ({
        "mode": (("paths", "coupling_sweep"), False), "order": ((2, 3, 4), False),
        "initial": ("state", True), "final": ("state", True), "model": (_MODELS, False),
        "epsilon": ("non_negative", False),
        "lambdas": ("numbers", ("mode", "coupling_sweep")),
        "cavity_offset_factor": ("number", False),
        "parameter": ("string", ("mode", "coupling_sweep")),
        "bracket": ("bracket", ("mode", "coupling_sweep")),
        "pair": ("pair", ("mode", "coupling_sweep"))}, False),
    "ecc": ({"seed": ("natural", False)}, False),
}

_SCALAR_TYPES = {"number": (int, float), "integer": int, "boolean": bool, "string": str}
_KIND_TEXT = {
    "state": "a [levels, photons] state",
    "pair": "two [levels, photons] states",
    "initial": "'pair_symmetric', 'pair_antisymmetric' or ['bare', levels, photons]",
    "number": "a finite number",
    "positive": "a positive finite number",
    "non_negative": "a non-negative finite number",
    "natural": "a non-negative integer",
    "count": "a positive integer",
}


def _has_type(kind, value) -> bool:
    if isinstance(kind, tuple):  # the JSON type counts too: order 4.0 is not 4
        return any(type(value) is type(v) and value == v for v in kind)
    if kind in ("positive", "non_negative"):
        return _has_type("number", value) and (value > 0 if kind == "positive" else value >= 0)
    if kind == "natural":
        return _has_type("integer", value) and value >= 0
    if kind == "count":
        return _has_type("integer", value) and value >= 1
    if kind == "state":
        return (isinstance(value, list) and len(value) == 2
                and _has_type("string", value[0]) and _has_type("integer", value[1]))
    if kind == "pair":
        return (isinstance(value, list) and len(value) == 2
                and all(_has_type("state", v) for v in value))
    if kind == "initial":
        return value in ("pair_symmetric", "pair_antisymmetric") or (
            isinstance(value, list) and value[:1] == ["bare"] and _has_type("state", value[1:]))
    if kind in ("numbers", "integers", "bracket"):
        item = "integer" if kind == "integers" else "number"
        return (isinstance(value, list) and all(_has_type(item, v) for v in value)
                and (kind != "bracket" or len(value) == 2))
    return isinstance(value, _SCALAR_TYPES[kind]) and (
        kind == "boolean" or not isinstance(value, bool)) and (
        kind != "number" or abs(value) <= sys.float_info.max)  # NaN fails too


def _check(kind, value, where: str, errors: list[str]) -> None:
    """Append to ``errors`` every way ``value`` at ``where`` breaks ``kind``."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            errors.append(f"{where} must be a list, got {value!r}")
            return
        for j, item in enumerate(value):
            _check(kind[0], item, f"{where}[{j}]", errors)
    elif isinstance(kind, dict):
        if not isinstance(value, dict):
            errors.append(f"{where} must be an object, got {value!r}")
            return
        for key, item in value.items():
            if key in kind:
                _check(kind[key][0], item, f"{where}.{key}" if where else key, errors)
            else:
                errors.append(f"unknown field {key!r} in {where or 'the config'}")
        for key, (_, required) in kind.items():
            if not required or value.get(key, []) != []:
                continue
            if required is True:
                errors.append(f"{where} needs {key!r}")
            elif value.get(required[0]) == required[1]:
                errors.append(f"{where} needs {key!r} for {required[0]} {required[1]!r}")
    elif not _has_type(kind, value):
        text = ("one of " + ", ".join(map(repr, kind)) if isinstance(kind, tuple)
                else _KIND_TEXT.get(kind, f"of type {kind}"))
        errors.append(f"{where} must be {text}, got {value!r}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(payload) -> bytes:
    """Bytes of a JSON data file: sorted keys, two-space indent, final newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _csv(header, numbers, labels=None) -> bytes:
    """Bytes of a CSV data file.  Row r holds the numbers of ``numbers[r]``,
    each as ``%.17g`` (enough digits to read back the same float), then the
    strings of ``labels[r]`` as given, if ``labels`` is not None."""
    numbers = np.asarray(numbers, dtype=float)
    line = ",".join(["%.17g"] * numbers.shape[1])
    rows = [line % tuple(row) for row in numbers.tolist()]
    if labels is not None:
        rows = [",".join([row, *cells]) for row, cells in zip(rows, labels, strict=True)]
    return ("\n".join([",".join(header), *rows]) + "\n").encode()


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
    if scenario == "custom" or not isinstance(scenario, str):  # validate rejects the latter
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
    """Check ``cfg`` against :data:`_SCHEMA`, then, given a system, its values
    (:func:`_value_errors`) and dispersive regime; returns (errors, warnings)."""
    errors: list[str] = []
    _check(_SCHEMA, cfg, "", errors)
    if errors or "system" not in cfg:
        return errors, []
    system = build_system(cfg)
    return _value_errors(cfg, system), _dispersive_warnings(cfg, system)


def _dispersive_warnings(cfg: dict, system: SystemConfig) -> list[str]:
    """The marginal-dispersive warnings of each system a command runs from a
    schema-valid ``cfg``: the base system, unless a coupling sweep is the only
    section that runs any, and the system of each sweep point that builds,
    prefixed with its ``perturb.lambdas[j]``."""
    pert = cfg.get("perturb", {})
    systems = [("", system)]
    if pert.get("mode") == "coupling_sweep":
        if not any(cfg.get(key) for key in ("sweep", "anticross", "dynamics")):
            systems = []
        for j, lam in enumerate(pert["lambdas"]):
            with suppress(ConfigError):  # a system that does not build is a value error
                systems.append((f"perturb.lambdas[{j}]: ",
                                _coupling_system(system, pert, float(lam))))
    return [prefix + message for prefix, config in systems
            for i, q in enumerate(config.qubits, start=1)
            if (message := _dispersive_warning(i, q, config.omega_c))]


def _value_errors(cfg: dict, system: SystemConfig) -> list[str]:
    """The library's argument-check errors on a schema-valid ``cfg``, by section."""
    errors = []

    def check(where, resolve, *args, **options):
        try:
            resolve(*args, **options)
        except ConfigError as err:
            errors.append(f"{where}: {err}")

    layout = system.layout
    sweep, anti, pert, dyn = (cfg.get(key, {})
                              for key in ("sweep", "anticross", "perturb", "dynamics"))
    if sweep:
        check("sweep", _sweeps, _sweep_inputs, system, sweep)
    if anti:
        check("anticross", _search, _search_inputs, system, anti)
    if pert.get("mode") == "coupling_sweep":
        check("perturb", _search, _search_inputs, system, pert)
        for j, lam in enumerate(pert["lambdas"]):
            check(f"perturb.lambdas[{j}]", _coupling_system, system, pert, float(lam))
    states = {f"perturb.{key}": pert[key] for key in ("initial", "final") if key in pert}
    if isinstance(dyn.get("initial"), list):  # ["bare", levels, photons]
        states["dynamics.initial"] = dyn["initial"][1:]
    for where, state in states.items():
        check(where, layout.resolve, state)
    for j, obs in enumerate(dyn.get("observables", [])):
        qubits = {"excitation": [obs.get("qubit")], "correlation": obs.get("qubits")}
        for q in qubits.get(obs["kind"], []):
            check(f"dynamics.observables[{j}]", layout.qubit_index, q)
        if obs["kind"] == "photon":  # |g...g, 1>, which needs a cutoff of at least 2
            check(f"dynamics.observables[{j}]", layout.bare_index, "g" * layout.qubit_count, 1)
    return errors


def _sweeps(run, system: SystemConfig, sweep: dict) -> dict:
    """``run`` (:func:`sweep_levels` or its argument checks) on the sweep and
    on its inset if it has one, by output file name."""
    return {name: run(system, sweep["parameter"],
                      np.linspace(span["start"], span["stop"], span["points"]),
                      sweep["levels"], **_given(sweep, "model"))
            for name, span in (("levels.csv", sweep), ("levels_inset.csv", sweep.get("inset")))
            if span}


def _search(run, system: SystemConfig, block: dict):
    """``run`` (:func:`find_anticrossing` or its argument checks) on a section."""
    return run(system, block["parameter"], tuple(block["bracket"]), block["pair"],
               **_given(block, "model", "tol"))


def _coupling_system(system: SystemConfig, block: dict, lam: float) -> SystemConfig:
    """The system of one coupling-sweep point: every qubit's lam set to
    ``lam``, and omega_c = omega_ref + cavity_offset_factor lam, where
    omega_ref is the last qubit's frequency."""
    omega_c = system.qubits[-1].omega + block.get("cavity_offset_factor", 2.5) * lam
    return replace(system, omega_c=omega_c,
                   qubits=tuple(replace(q, lam=lam) for q in system.qubits))


def build_system(cfg: dict) -> SystemConfig:
    system = dict(_require(cfg, "system"))
    return SystemConfig(tuple(QubitParams(**q) for q in system.pop("qubits")), **system)


def _given(block: dict, *keys: str) -> dict:
    """The fields among ``keys`` that ``block`` sets; library defaults fill the rest."""
    return {key: block[key] for key in keys if key in block}


def _require(cfg: dict, section: str) -> dict:
    block = cfg.get(section)
    if block is None:
        raise ConfigError(
            f"this command needs a {section!r} section (scenario "
            f"{cfg.get('scenario', 'custom')!r} does not provide one)"
        )
    return block


def _sweep_csv(result) -> bytes:
    n_levels = result.energies.shape[1]
    header = ([result.parameter]
              + [f"E{m + 1}" for m in range(n_levels)]
              + [f"label{m + 1}" for m in range(n_levels)])
    names = result.layout.labels
    return _csv(header, np.column_stack([result.grid, result.energies]),
                [[names[b] for b in labels] for labels in result.labels.tolist()])


def cmd_levels(cfg: dict, system: SystemConfig) -> tuple[dict[str, bytes], dict]:
    """The sweep's CSV files, and how its main grid was evaluated for the manifest."""
    results = _sweeps(sweep_levels, system, _require(cfg, "sweep"))
    grid = results["levels.csv"]
    return ({name: _sweep_csv(result) for name, result in results.items()},
            {"sweep": {"workers": grid.workers, "blas_pinned": grid.blas_pinned,
                       "eigensolver": grid.eigensolver}})


def _solver_record(rep) -> dict:
    """How a search's evaluations were solved, for the manifest."""
    return {"eigensolver": rep.eigensolver, "solved_pairs": list(rep.solved_pairs),
            "unseen_weight_max": rep.unseen_weight_max,
            "ritz_evaluations": rep.ritz_evaluations,
            "gap_error_bound_max": rep.gap_error_bound_max}


def cmd_anticross(cfg: dict, system: SystemConfig) -> tuple[dict[str, bytes], dict]:
    rep = _search(find_anticrossing, system, _require(cfg, "anticross"))
    payload = {key: getattr(rep, key) for key in (
        "parameter", "location", "splitting", "branch_indices", "branch_energies",
        "superposition_overlaps", "evaluations")}
    payload.update(half_splitting=rep.splitting / 2.0,
                   pair=[system.layout.label_string(b) for b in rep.bare_pair])
    return {"anticross.json": _json(payload)}, {"search": _solver_record(rep)}


def _observable_matrix(obs: dict, lowering, spectrum, levels: int) -> np.ndarray:
    """Leading levels x levels block of the eigenbasis matrix U+ O U of one
    configured observable; ``lowering(q)`` gives qubit q's dressed lowering
    operator in the eigenbasis.  Each is a product A+ A, of which only the
    first ``levels`` columns of A are formed."""
    kind, u, layout = obs["kind"], spectrum.states[:, :levels], spectrum.layout
    if kind == "excitation":
        s = lowering(obs["qubit"])[:, :levels]
        return s.conj().T @ s
    if kind == "correlation":  # A = L_n ... L_2 L_1 for qubits [q_1, ..., q_n]
        qs = obs["qubits"]
        a = lowering(qs[0])[:, :levels]
        for q in qs[1:]:
            a = lowering(q) @ a
        return a.conj().T @ a
    if kind == "photon":  # |g...g,1><g...g,1| is rank 1: w+ w, w its row of U
        w = u[layout.bare_index("g" * layout.qubit_count, 1)]
        return np.outer(w.conj(), w)
    if kind == "cavity_number":  # a+ a is diagonal
        return u.conj().T @ (_layout_terms(layout).number[:, None] * u)
    a = _cavity_lowering(spectrum)[:, :levels]  # cavity_emission
    return a.conj().T @ a


def cmd_dynamics(cfg: dict, system: SystemConfig) -> tuple[dict[str, bytes], dict]:
    dyn = _require(cfg, "dynamics")
    rep = _search(find_anticrossing, system, _require(cfg, "anticross"))
    spectrum, layout = rep.spectrum, system.layout
    columns = _pair_columns(rep)  # the dressed pair's eigenbasis frame columns

    @cache  # each qubit's operator is built once, when an observable first needs it
    def lowering(q: int):
        return _dressed_lowering(spectrum, q, columns)

    initial = dyn.get("initial", "pair_symmetric")
    if isinstance(initial, list):  # ["bare", levels, photons]: U+ e_b, row b of U conjugated
        column = spectrum.states[layout.bare_index(initial[1], initial[2])].conj()
    else:  # the dressed pair member's frame column
        column = columns[rep.bare_pair[0 if initial == "pair_symmetric" else 1]]
    start = np.outer(column, column.conj())  # rho~0, the start in the eigenbasis

    half_j = rep.splitting / 2.0
    if half_j <= 0:
        raise ConfigError("zero splitting; cannot set the dynamics time scale")
    t_max = float(dyn.get("half_periods", 2.0)) * math.pi / (2.0 * half_j)
    if not math.isfinite(t_max):
        raise ConfigError(f"dynamics duration overflows: half_periods gives t = {t_max}")
    points = int(dyn.get("points", 600))
    # a step with at most 53 - bit_length(points - 1) significant bits makes
    # every p * step exact, so all intervals are equal and share one RK4 map
    mantissa, exponent = math.frexp(t_max / max(points - 1, 1))
    bits = 53 - (points - 1).bit_length()
    grid = math.ldexp(round(mantissa * 2**bits), exponent - bits) * np.arange(points)
    rates = {} if dyn.get("lossless", False) else build_dissipators(spectrum, system)
    observables = dyn.get("observables", [])
    # the levels the start and the rates reach, the block the propagation runs on
    levels = _propagated_levels(start, sum(rates.values(), np.zeros(start.shape)))
    values, kept, dropped_weight = _series(start, spectrum, rates, grid, [
        _observable_matrix(obs, lowering, spectrum, levels) for obs in observables])

    meta = {
        "parameter": rep.parameter,
        "location": rep.location,
        "splitting": rep.splitting,
        "effective_coupling": half_j,
        "coupling_sign": coupling_sign(rep),
        "dissipator_count": sum(int(np.count_nonzero(r)) for r in rates.values()),
        "initial": initial,
        "time_unit": "1/omega_0",
    }
    return ({"dynamics.csv": _csv(["t"] + [obs["name"] for obs in observables],
                                  np.column_stack([grid, values])),
             "dynamics_meta.json": _json(meta)},
            {"search": _solver_record(rep), "propagated_levels": levels,
             "coherences_kept": kept, "dropped_weight": dropped_weight})


def cmd_perturb(cfg: dict, system: SystemConfig) -> tuple[dict[str, bytes], dict]:
    block = _require(cfg, "perturb")
    initial, final = block["initial"], block["final"]
    order = block.get("order", 4)
    options = _given(block, "epsilon", "model")
    if block.get("mode", "paths") == "paths":
        report = effective_coupling(system, initial, final, order, **options)
        names = system.layout.labels
        payload = {
            "order": report.order,
            "initial": names[report.initial],
            "final": names[report.final],
            "path_count": report.path_count,
            "per_diagram": {names[k]: v for k, v in report.per_diagram.items()},
            "total": report.total,
            "paths": [
                {
                    "states": [names[s] for s in p.states],
                    "amplitude": p.amplitude,
                    "diagram": names[p.diagram],
                }
                for p in report.paths
            ],
        }
        return {"paths.json": _json(payload)}, {}
    theta = system.qubits[0].theta
    omega_ref = system.qubits[-1].omega
    rows, searches = [], []
    for lam in map(float, block["lambdas"]):
        cfg_l = _coupling_system(system, block, lam)
        rep = _search(find_anticrossing, cfg_l, block)
        searches.append(_solver_record(rep))
        path_rep = effective_coupling(cfg_l, initial, final, order, **options)
        closed = three_mix_coupling(lam, omega_ref, cfg_l.omega_c, theta)
        rows.append([lam, cfg_l.omega_c, rep.splitting, 2.0 * abs(path_rep.total),
                     2.0 * abs(closed)])
    header = ["lam", "omega_c", "splitting_numeric", "two_j_paths", "two_j_closed_form"]
    return {"coupling_sweep.csv": _csv(header, rows)}, {"searches": searches}


def cmd_ecc(cfg: dict) -> dict[str, bytes]:
    seed = _require(cfg, "ecc").get("seed", 0)
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
            rows.append(asdict(report) | {"logical_state": [a.real, a.imag, b.real, b.imag]})
    payload = {"seed": seed, "cases": rows}
    return {"ecc_report.json": _json(payload)}


def run_command(command: str, cfg: dict, out_dir: str | Path, threads: int = 1,
                cutoff: int | None = None, seed: int | None = None) -> dict:
    """Validate, execute one subcommand, write outputs and a manifest.

    ``cutoff`` and ``seed`` replace the configuration's ``fock_cutoff`` and
    ``ecc.seed`` before validation, so the checks and the manifest see the run.
    Sweeps spread their grid points over the available cores by themselves,
    and a ``levels`` manifest records how (``sweep.workers`` threads,
    whether OpenBLAS was held at one thread, ``sweep.blas_pinned``, and
    ``sweep.eigensolver``, ``"dsyevr"`` or ``"eigh"``).  An ``anticross`` or
    ``dynamics`` manifest records how its search evaluated its gaps
    (``search``): of its LAPACK solves, the last one's eigensolver
    (``eigensolver``) and range [first, last] of eigen indices
    (``solved_pairs``, the pair's two branches widened by one index on each
    side, unless that pick needed every eigenpair), and the largest pair
    weight any of them left in the unsolved eigenvectors, the margin of its
    branch picks (``unseen_weight_max``); ``ritz_evaluations``, the number
    of certified Rayleigh-Ritz evaluations; and ``gap_error_bound_max``,
    the largest error bound of a certified gap that a golden-section
    comparison took (0 where none did).  A ``perturb`` coupling sweep
    records the same of each of its searches, in ``searches``.  A
    ``dynamics`` manifest also records ``propagated_levels``, the number r
    of leading eigen levels that the start and the rates reach and the
    propagation ran on (d for a start with weight on the top level),
    ``coherences_kept``, the number of
    eigenbasis coherences the propagation carried, and ``dropped_weight``,
    the summed bound of the ones it dropped (at most 1e-15), which no data
    file holds.
    ``threads`` remains only for callers written when the thread count was an
    argument, such as ``perfbench/test_oracle.py``, which passes
    ``threads=1``; any other value raises :class:`ConfigError`.
    """
    if threads != 1:
        raise ConfigError(f"threads must be 1, got {threads!r}; sweeps choose their own "
                          "thread count")
    for section, key, value in (("system", "fock_cutoff", cutoff), ("ecc", "seed", seed)):
        if value is not None and section in cfg:
            cfg = _deep_merge(cfg, {section: {key: value}})
    errors, warnings = validate_config(cfg)
    if errors:
        raise ConfigError("; ".join(errors))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)

    started = time.time()
    extra = {}
    if command == "ecc":
        outputs = cmd_ecc(cfg)
    else:
        system = build_system(cfg)
        if command == "levels":
            outputs, extra = cmd_levels(cfg, system)
        elif command == "anticross":
            outputs, extra = cmd_anticross(cfg, system)
        elif command == "dynamics":
            outputs, extra = cmd_dynamics(cfg, system)
        elif command == "perturb":
            outputs, extra = cmd_perturb(cfg, system)
        else:
            raise ConfigError(f"unknown command {command!r}")

    out_dir = Path(out_dir)
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
        **extra,
    }
    (out_dir / "manifest.json").write_bytes(_json(manifest))
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built at the first :func:`main` call of a
    process (0.8 ms, against 30 us to parse) and kept: parsing reads it and
    changes nothing in it."""
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
        p.add_argument("--cutoff", type=int, default=None, help="override fock_cutoff")
        p.add_argument("--seed", type=int, default=None, help="override random seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = resolve_config(load_config(args.config))
        if args.command == "validate":
            return cmd_validate(cfg)
        out_dir = (args.out or cfg.get("out")
                   or f"out/{cfg.get('scenario', 'custom')}-{args.command}")
        run_command(args.command, cfg, out_dir, cutoff=args.cutoff, seed=args.seed)
        return 0
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except VpmixError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
