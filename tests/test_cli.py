import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

import vpmix
from vpmix import cli, spectrum
from vpmix.cli import (_csv, build_system, load_config, main, resolve_config, run_command,
                       validate_config)
from vpmix.errors import ConfigError
from vpmix.presets import SCENARIOS

PI6 = math.pi / 6

TINY_SYSTEM = {
    "qubits": [
        {"omega": 0.5, "lam": 0.05, "theta": PI6, "gamma": 0.0},
        {"omega": 0.5, "lam": 0.05, "theta": PI6, "gamma": 0.0},
        {"omega": 1.0, "lam": 0.05, "theta": PI6, "gamma": 0.0},
    ],
    "omega_c": 1.35,
    "kappa": 0.0,
    "fock_cutoff": 4,
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_config_error(tmp_path, capsys, command, payload, field):
    """The run exits 2, writes nothing and names the field; validate names it too."""
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert field in capsys.readouterr().err
    errors, _ = validate_config(resolve_config(payload))
    assert any(field in e for e in errors)


def test_resolve_unknown_scenario():
    from vpmix.errors import ConfigError
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "fig99"})


def test_preset_override_merges():
    cfg = resolve_config({"scenario": "fig1b", "sweep": {"points": 7}})
    assert cfg["sweep"]["points"] == 7
    assert cfg["sweep"]["parameter"] == SCENARIOS["fig1b"]["sweep"]["parameter"]


def test_validate_literal_three_qubit_config_is_clean():
    # the interface example parameter set (cavity at 1.325): fully dispersive
    cfg = {
        "system": {
            "qubits": [
                {"omega": 0.4, "lam": 0.13, "theta": PI6, "gamma": 3e-5},
                {"omega": 0.6, "lam": 0.13, "theta": PI6, "gamma": 3e-5},
                {"omega": 1.0, "lam": 5e-3, "theta": PI6, "gamma": 3e-5},
            ],
            "omega_c": 1.325,
            "kappa": 3e-5,
            "fock_cutoff": 8,
        }
    }
    errors, warnings = validate_config(cfg)
    assert errors == []
    assert warnings == []


def test_validate_flags_marginal_dispersive():
    cfg = {"system": {"qubits": [{"omega": 1.0, "lam": 0.2}], "omega_c": 1.1}}
    errors, warnings = validate_config(cfg)
    assert errors == []
    assert any("qubit 1" in w for w in warnings)


def test_validate_names_unknown_fields():
    errors, _ = validate_config({"system": {"qubits": [{"omega": 1, "lam": 0}],
                                            "omega_c": 1, "bogus": 3},
                                 "mystery": {}})
    assert any("bogus" in e for e in errors)
    assert any("mystery" in e for e in errors)


def test_ecc_random_states_is_unknown():
    errors, _ = validate_config({"ecc": {"seed": 7, "random_states": 10}})
    assert errors == ["unknown field 'random_states' in ecc"]
    assert validate_config(resolve_config({"scenario": "ecc"}))[0] == []


@pytest.mark.parametrize("payload, field", [
    ({"scenario": "fig4", "system": {"omega_c": "abc"}}, "omega_c"),
    ({"scenario": "fig4", "sweep": {"start": None}}, "start"),
    ({"system": TINY_SYSTEM, "sweep": {"parameter": "qubits[2].omega", "start": 0.9,
                                       "stop": 1.1, "levels": 2}}, "points"),
])
def test_bad_field_values_exit_2_without_outputs(tmp_path, capsys, payload, field):
    assert_config_error(tmp_path, capsys, "levels", payload, field)


def test_a_parameter_path_with_a_trailing_newline_is_an_error(tmp_path, capsys):
    payload = {"scenario": "fig1b", "sweep": {"parameter": "qubits[2].omega\n"}}
    message = "sweep: cannot resolve parameter path 'qubits[2].omega\\n'"
    assert validate_config(resolve_config(payload))[0] == [message]
    assert_config_error(tmp_path, capsys, "levels", payload, message)


def test_presets_validate_without_errors():
    for scenario in SCENARIOS:
        assert validate_config(resolve_config({"scenario": scenario}))[0] == []


MARGINAL = "dispersive regime is marginal"


@pytest.mark.parametrize("scenario, expected", [
    ("fig1b", [f"qubit 3: |omega - omega_c| = 0.0125 < 3 lam = 0.015; {MARGINAL}"]),
    # the coupling sweep runs one system per lambda, and not the base system
    ("fig2", [f"perturb.lambdas[{j}]: qubit 3: |omega - omega_c| = {2.5 * lam:.4g} < 3 lam "
              f"= {3 * lam:.4g}; {MARGINAL}"
              for j, lam in enumerate([0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15])]),
    ("fig3", [f"qubit 3: |omega - omega_c| = 0.0125 < 3 lam = 0.015; {MARGINAL}"]),
    ("figS2a", [f"qubit 1: |omega - omega_c| = 0.1052 < 3 lam = 0.15; {MARGINAL}"]),
    ("figS2b", [f"qubit 1: |omega - omega_c| = 0.1052 < 3 lam = 0.15; {MARGINAL}"]),
    ("fig4", []), ("fig5a", []), ("fig5b", []), ("ecc", []),
])
def test_presets_keep_their_dispersive_warnings(scenario, expected):
    assert validate_config(resolve_config({"scenario": scenario})) == ([], expected)


def test_the_base_system_warns_where_it_runs_or_nothing_runs():
    base = f"qubit 3: |omega - omega_c| = 0.25 < 3 lam = 0.3; {MARGINAL}"
    sweep = {"mode": "coupling_sweep", "lambdas": [0.03]}
    first = f"perturb.lambdas[0]: qubit 3: |omega - omega_c| = 0.075 < 3 lam = 0.09; {MARGINAL}"
    fig2 = resolve_config({"scenario": "fig2", "perturb": sweep})
    assert validate_config(fig2) == ([], [first])
    # a paths computation runs the base system, and so does a sweep section
    # beside the coupling sweep
    paths = resolve_config({"scenario": "fig2", "perturb": {"mode": "paths"}})
    assert validate_config(paths) == ([], [base])
    levels = {"parameter": "qubits[2].omega", "start": 0.9, "stop": 1.0, "points": 3,
              "levels": 2}
    assert validate_config(dict(fig2, sweep=levels)) == ([], [base, first])
    # a config that runs no system is told about the one it gives
    system = {key: value for key, value in fig2.items() if key != "perturb"}
    assert validate_config(system) == ([], [base])
    # a lambda whose system does not build is an error, not a warning
    errors, messages = validate_config(dict(fig2, perturb=dict(fig2["perturb"],
                                                               lambdas=[0.03, -1.0])))
    assert [e.split(":")[0] for e in errors] == ["perturb.lambdas[1]"]
    assert messages == [first]


@pytest.mark.parametrize("lams, flagged", [(2.99, {1, 2}), (3.01, set())])
def test_validate_and_dispersive_coupling_flag_the_same_qubits(lams, flagged):
    lam = 0.01
    system = {"qubits": [{"omega": 1.0 + lams * lam, "lam": lam},
                         {"omega": 1.0 - lams * lam, "lam": lam},
                         {"omega": 0.5, "lam": lam}], "omega_c": 1.0, "fock_cutoff": 2}
    _, messages = validate_config({"system": system})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i, j in ((1, 2), (1, 3), (2, 3)):
            vpmix.dispersive_pair_coupling(build_system({"system": system}), i, j)
    library = [str(w.message) for w in caught]
    assert {int(m.split(":")[0].removeprefix("qubit ")) for m in messages} == flagged
    assert set(library) == set(messages)


def fig3_dynamics(**fields):
    return {"scenario": "fig3", "dynamics": fields}


def fig3_observable(**fields):
    return fig3_dynamics(observables=[fields])


def fig1b_first_qubit(**fields):
    qubits = [dict(q) for q in SCENARIOS["fig1b"]["system"]["qubits"]]
    qubits[0].update(fields)
    return {"scenario": "fig1b", "system": {"qubits": qubits}}


@pytest.mark.parametrize("command, payload, field", [
    # a bracket is exactly two numbers
    ("anticross", {"scenario": "fig1b", "anticross": {"bracket": [0.9]}}, "bracket"),
    ("anticross", {"scenario": "fig1b", "anticross": {"bracket": [0.9, 1.0, 1.02]}}, "bracket"),
    ("perturb", {"scenario": "fig2", "perturb": {"bracket": [0.9]}}, "bracket"),
    # booleans and integers are read by JSON type, not by truthiness or int()
    ("dynamics", fig3_dynamics(lossless="false"), "lossless"),
    # dynamics always runs at the located minimum; the old switch is unknown
    ("dynamics", fig3_dynamics(tune_to_minimum=False), "tune_to_minimum"),
    ("dynamics", fig3_dynamics(points=50.0), "points"),
    ("levels", {"scenario": "fig1b", "sweep": {"points": 2.5}}, "points"),
    ("levels", {"scenario": "fig1b", "sweep": {"levels": True}}, "levels"),
    ("levels", {"scenario": "fig1b", "system": {"fock_cutoff": 4.7}}, "fock_cutoff"),
    ("perturb", {"scenario": "fig2", "perturb": {"order": 4.0}}, "order"),
    ("ecc", {"scenario": "ecc", "ecc": {"seed": 1.5}}, "seed"),
    ("dynamics", fig3_observable(name="P1", kind="excitation", qubit=1.0), "qubit"),
    ("dynamics", fig3_observable(name="C12", kind="correlation", qubits=[1, True]), "qubits"),
    # observables and a bare initial state need all their fields
    ("dynamics", fig3_observable(name="P1", kind="excitation"), "qubit"),
    ("dynamics", fig3_observable(name="C12", kind="correlation"), "qubits"),
    ("dynamics", fig3_observable(kind="photon"), "name"),
    ("dynamics", fig3_observable(name="photon"), "kind"),
    ("dynamics", fig3_observable(name=3, kind="photon"), "name"),
    ("dynamics", fig3_dynamics(observables=["photon"]), "observables[0]"),
    ("dynamics", fig3_dynamics(initial=["bare", "gge"]), "initial"),
    ("dynamics", fig3_dynamics(initial=["bare", "gge", 0.5]), "initial"),
    # models name a builder, parameters are strings, bare states are [levels, photons]
    ("anticross", {"scenario": "fig1b", "anticross": {"model": "xyz"}}, "model"),
    ("levels", {"scenario": "fig1b", "sweep": {"model": "xyz"}}, "model"),
    ("perturb", {"scenario": "fig2", "perturb": {"model": ["tc"]}}, "model"),
    ("levels", {"scenario": "fig1b", "sweep": {"parameter": 5}}, "parameter"),
    ("anticross", {"scenario": "fig1b", "anticross": {"parameter": None}}, "parameter"),
    ("anticross", {"scenario": "fig1b", "anticross": {"pair": [["gge"], ["eeg", 0]]}}, "pair"),
    ("perturb", {"scenario": "fig2", "perturb": {"pair": [["gge", 0]]}}, "pair"),
    ("perturb", {"scenario": "fig2", "perturb": {"initial": ["gge"]}}, "initial"),
    ("perturb", {"scenario": "fig2", "perturb": {"final": ["eeg", 0.5]}}, "final"),
    # a search tolerance is positive and a seed is non-negative
    ("anticross", {"scenario": "fig1b", "anticross": {"tol": 0}}, "tol"),
    ("anticross", {"scenario": "fig1b", "anticross": {"tol": -1}}, "tol"),
    ("ecc", {"scenario": "ecc", "ecc": {"seed": -3}}, "seed"),
    # point counts are at least 1 and the duration is positive
    ("levels", {"scenario": "fig1b", "sweep": {"points": 0}}, "points"),
    ("levels", {"scenario": "fig1b", "sweep": {"points": -3}}, "points"),
    ("levels", {"scenario": "fig1b", "sweep": {"inset": {"points": -1}}}, "points"),
    ("dynamics", fig3_dynamics(points=0), "points"),
    ("dynamics", fig3_dynamics(points=-5), "points"),
    ("dynamics", fig3_dynamics(half_periods=0), "half_periods"),
    ("dynamics", fig3_dynamics(half_periods=-1.5), "half_periods"),
    # custom sections need the fields their command reads
    ("anticross", {"system": TINY_SYSTEM, "anticross": {"parameter": "qubits[2].omega",
                                                        "bracket": [0.9, 1.1]}}, "pair"),
    ("perturb", {"system": TINY_SYSTEM, "perturb": {"final": ["eeg", 0]}}, "initial"),
    ("perturb", {"system": TINY_SYSTEM, "perturb": {
        "mode": "coupling_sweep", "lambdas": [0.05], "parameter": "qubits[2].omega",
        "bracket": [0.9, 1.1], "initial": ["gge", 0], "final": ["eeg", 0]}}, "pair"),
    # appended cases go last so the earlier cases keep their ids
    # frequencies are positive, rates non-negative and the cutoff at least 1
    ("levels", {"scenario": "fig1b", "system": {"fock_cutoff": 0}}, "fock_cutoff"),
    ("levels", {"scenario": "fig1b", "system": {"omega_c": 0}}, "omega_c"),
    ("levels", {"scenario": "fig1b", "system": {"kappa": -1e-3}}, "kappa"),
    ("levels", {"system": dict(TINY_SYSTEM, qubits=[{"omega": -0.5, "lam": 0.05}])}, "omega"),
    ("levels", {"system": dict(TINY_SYSTEM, qubits=[{"omega": 0.5, "lam": -0.05}])}, "lam"),
    ("levels", {"system": dict(TINY_SYSTEM, qubits=[{"omega": 0.5, "lam": 0.05,
                                                     "gamma": -1.0}])}, "gamma"),
    # empty lists where the command needs entries
    ("levels", {"scenario": "fig1b", "system": {"qubits": []}}, "qubits"),
    ("perturb", {"scenario": "fig2", "perturb": {"lambdas": []}}, "lambdas"),
    ("dynamics", fig3_observable(name="C", kind="correlation", qubits=[]), "qubits"),
    # top-level fields are strings and the inset a section
    ("levels", {"scenario": "fig1b", "out": 5}, "out"),
    ("levels", {"scenario": ["fig1b"]}, "scenario"),
    ("levels", {"scenario": "fig1b", "sweep": {"inset": 5}}, "inset"),
    # enumerated fields take only the values their command handles
    ("dynamics", fig3_observable(name="x", kind="bogus"), "kind"),
    ("dynamics", fig3_dynamics(initial="pair_sym"), "initial"),
    ("perturb", {"scenario": "fig2", "perturb": {"mode": "pathz"}}, "mode"),
    ("perturb", {"scenario": "fig2", "perturb": {"order": 7}}, "order"),
    ("perturb", {"scenario": "fig2", "perturb": {"epsilon": -1}}, "epsilon"),
    # values the library's own checks reject: bracket order, grid, tolerance
    # spacing, and fields resolved against the system's layout
    ("anticross", {"scenario": "fig1b", "anticross": {"bracket": [1.0, 0.9]}}, "bracket"),
    ("levels", {"scenario": "fig1b", "sweep": {"start": 1.0, "stop": 1.0}}, "monotone"),
    ("anticross", {"scenario": "fig1b", "anticross": {"tol": 1e-300}}, "tol"),
    ("dynamics", fig3_observable(name="P9", kind="excitation", qubit=9), "qubit index 9"),
    ("levels", {"scenario": "fig1b", "sweep": {"parameter": "qubits[7].omega"}},
     "qubit list index 7"),
    ("levels", {"scenario": "fig1b", "sweep": {"levels": 500}}, "level_count"),
    ("dynamics", fig3_observable(name="C", kind="correlation", qubits=[1, 4]), "qubit index 4"),
    ("dynamics", fig3_dynamics(initial=["bare", "gggg", 0]), "dynamics.initial"),
    ("perturb", {"scenario": "fig2", "perturb": {"final": ["eeg", 8]}}, "perturb.final"),
    ("anticross", {"scenario": "fig1b", "anticross": {"pair": [["gge", 0], ["gge", 0]]}},
     "distinct"),
    ("levels", {"scenario": "fig1b", "sweep": {"inset": {"start": 1, "stop": 1, "points": 3}}},
     "monotone"),
    # a sweep or search over a field the Hamiltonian does not read
    ("anticross", {"scenario": "fig1b", "anticross": {"parameter": "kappa"}}, "kappa"),
    ("levels", {"scenario": "fig1b", "sweep": {"parameter": "qubits[0].gamma"}}, "gamma"),
    ("levels", {"scenario": "fig1b", "sweep": {"parameter": "qubits[0].theta", "model": "tc"}},
     "theta"),
    ("perturb", {"scenario": "fig2", "perturb": {"parameter": "kappa"}}, "kappa"),
    # JSON's NaN and Infinity are no numbers here, whatever the kind
    ("levels", fig1b_first_qubit(theta=math.nan), "theta"),
    ("levels", fig1b_first_qubit(theta=math.inf), "theta"),
    ("anticross", fig1b_first_qubit(theta=math.inf), "theta"),
    ("levels", fig1b_first_qubit(omega=math.inf), "omega"),
    ("levels", fig1b_first_qubit(lam=math.nan), "lam"),
    ("levels", fig1b_first_qubit(gamma=math.inf), "gamma"),
    ("dynamics", {"scenario": "fig3", "system": {"kappa": math.inf}}, "kappa"),
    ("levels", {"scenario": "fig1b", "system": {"omega_c": math.inf}}, "omega_c"),
    ("perturb", {"scenario": "fig2", "perturb": {"cavity_offset_factor": math.nan}},
     "cavity_offset_factor"),
    ("perturb", {"scenario": "fig2", "perturb": {"lambdas": [0.05, math.nan]}}, "lambdas"),
    ("perturb", {"scenario": "fig2", "perturb": {"epsilon": math.inf}}, "epsilon"),
    ("levels", {"scenario": "fig1b", "sweep": {"start": -math.inf}}, "start"),
    ("levels", {"scenario": "fig1b", "sweep": {"inset": {"start": 0.9, "stop": math.nan,
                                                         "points": 3}}}, "stop"),
    ("anticross", {"scenario": "fig1b", "anticross": {"bracket": [0.9, math.inf]}}, "bracket"),
    ("anticross", {"scenario": "fig1b", "anticross": {"tol": math.inf}}, "tol"),
    ("dynamics", fig3_dynamics(half_periods=math.inf), "half_periods"),
    ("levels", {"scenario": "fig1b", "sweep": {"stop": 10**400}}, "stop"),
])
def test_bad_fields_of_every_command_exit_2(tmp_path, capsys, command, payload, field):
    assert_config_error(tmp_path, capsys, command, payload, field)


def perfbench_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer()


def test_tracer_sees_each_layer_of_a_dynamics_run(tmp_path):
    # perfbench/tracer.py patches module-level names and MODEL_BUILDERS entries;
    # a command reached some other way (say a dict of cmd_* functions) drops out
    tracer = perfbench_tracer()
    cfg = write_config(tmp_path, "cfg.json", fig3_dynamics(points=5))
    with tracer.installed(), tracer.command("fig3-dynamics"):
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    for name in ("cli.cmd", "cli.run_command", "spectrum.find_anticrossing"):
        assert tracer.counts[f"{name}.calls"] == 1, name
    # the search's closing solve runs on its own pencil: no model is built
    assert tracer.counts["model.build.calls"] == 0


@pytest.mark.parametrize("scenario", ["fig3", "fig5b", "figS2b"])
def test_dynamics_diagonalizes_only_in_its_search(tmp_path, monkeypatch, scenario):
    # the search's closing solve supplies the spectrum the dynamics run in.
    # vpmix.spectrum._Solver.__call__ counts every eigensolve of the package,
    # eigh or dsyevr subset, and the gufunc behind numpy.linalg.eigh every
    # full one that does not come through the solver (a certified
    # evaluation's eigh of an 8 x 8 projection is no eigensolve of the
    # model, and is not counted): the dynamics command
    # solves exactly what the anticross command's search solves, one solve
    # for each evaluation that no certificate took, at most two more for
    # each comparison that none proved, and the closing solve
    calls, solving = [], []
    solve, eigh = spectrum._Solver.__call__, _umath_linalg.eigh_lo

    def counted_solve(solver, *args):
        calls.append(1)
        solving.append(1)
        try:
            return solve(solver, *args)
        finally:
            solving.pop()

    def counted_eigh(*args, **kwargs):
        if not solving and len(args[0]) > 2 * spectrum._RITZ_PAIRS:
            calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(_umath_linalg, "eigh_lo", counted_eigh)
    monkeypatch.setattr(spectrum._Solver, "__call__", counted_solve)
    cfg = write_config(tmp_path, "cfg.json", {"scenario": scenario, "dynamics": {"points": 5}})
    assert main(["anticross", "--config", cfg, "--out", str(tmp_path / "anticross")]) == 0
    report = json.loads((tmp_path / "anticross" / "anticross.json").read_text())
    search = json.loads((tmp_path / "anticross" / "manifest.json").read_text())["search"]
    searched = len(calls)
    calls.clear()
    assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "dynamics")]) == 0
    assert len(calls) == searched
    lapack = report["evaluations"] - search["ritz_evaluations"]
    assert lapack <= searched <= lapack + 4 < report["evaluations"]


def test_a_photon_observable_needs_a_photon_level(tmp_path, capsys, monkeypatch):
    # fig3 observes |ggg, 1>, which a cutoff of 1 does not hold: validate
    # names the observable, and dynamics stops on it before any solve
    cfg = write_config(tmp_path, "cfg.json", {"scenario": "fig3", "system": {"fock_cutoff": 1}})
    message = "dynamics.observables[3]: photon number 1 outside 0..0"
    assert main(["validate", "--config", cfg]) == 0
    assert f"error: {message}" in capsys.readouterr().out.splitlines()
    monkeypatch.setattr(spectrum._Solver, "__call__", lambda *args: pytest.fail("solved"))
    out = tmp_path / "out"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"configuration error: {message}"
    assert not out.exists()


def test_cutoff_override_is_validated_as_the_system_it_runs(tmp_path, capsys):
    # 40 levels exceed the 31 excited levels of the config's cutoff 4 but not of 8
    cfg = write_config(tmp_path, "cfg.json", {"system": TINY_SYSTEM, "sweep": {
        "parameter": "qubits[2].omega", "start": 0.9, "stop": 1.1, "points": 3, "levels": 40}})
    assert main(["levels", "--config", cfg, "--out", str(tmp_path / "c4")]) == 2
    assert "level_count" in capsys.readouterr().err
    out = tmp_path / "c8"
    assert main(["levels", "--config", cfg, "--out", str(out), "--cutoff", "8"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["system"]["fock_cutoff"] == 8


def test_validate_names_each_coupling_sweep_system_error(tmp_path, capsys, monkeypatch):
    # perturb builds one system per lambda, with every qubit's lam set to it
    # and omega_c = 1.0 + cavity_offset_factor lam (fig2's last qubit is at
    # 1.0): validate names each lambda whose system is invalid, and perturb
    # stops on them before any solve and writes nothing
    payload = {"scenario": "fig2",
               "perturb": {"cavity_offset_factor": -100, "lambdas": [0.005, 0.01, -0.1, 0.05]}}
    cfg = write_config(tmp_path, "cfg.json", payload)
    messages = ["perturb.lambdas[1]: cavity frequency must be positive, got 0.0",
                "perturb.lambdas[2]: coupling rate must be >= 0, got -0.1",
                "perturb.lambdas[3]: cavity frequency must be positive, got -4.0"]
    assert validate_config(resolve_config(payload))[0] == messages
    assert main(["validate", "--config", cfg]) == 0
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("error:")] == [f"error: {m}" for m in messages]
    monkeypatch.setattr(spectrum._Solver, "__call__", lambda *args: pytest.fail("solved"))
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "configuration error: " + "; ".join(messages))
    assert not out.exists()


def test_coupling_sweep_path_sum_uses_the_model(tmp_path):
    # Tavis-Cummings conserves excitations, so no path joins |gge,0> to |eeg,0>
    cfg = write_config(tmp_path, "cfg.json",
                       {"scenario": "fig2", "perturb": {"model": "tc", "lambdas": [0.1]}})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    header, row = (out / "coupling_sweep.csv").read_text().splitlines()
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert values["lam"] == 0.1
    assert values["two_j_paths"] == 0.0
    assert values["two_j_closed_form"] > 0.0


def test_dynamics_without_observables_writes_time_column(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", fig3_dynamics(observables=[], points=5))
    out = tmp_path / "out"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dynamics.csv").read_text().splitlines()
    assert lines[0] == "t"
    assert len(lines) == 6
    assert float(lines[1]) == 0.0
    assert all("," not in line for line in lines)


def test_dynamics_grid_has_one_exact_step(tmp_path):
    # t_p = p * step exactly, so every interval reuses one RK4 map
    cfg = write_config(tmp_path, "cfg.json", fig3_dynamics(observables=[], points=700))
    out = tmp_path / "out"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
    t = np.array([float(x) for x in (out / "dynamics.csv").read_text().split()[1:]])
    assert t.shape == (700,)
    np.testing.assert_array_equal(t, t[1] * np.arange(700))
    assert len(set(np.diff(t))) == 1


def test_overflowing_dynamics_duration_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", fig3_dynamics(half_periods=1e308, points=5))
    out = tmp_path / "out"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "half_periods" in capsys.readouterr().err


def test_dynamics_memory_stays_bounded(tmp_path):
    # numpy's allocations as traced by tracemalloc, not RSS, so the peak repeats;
    # a (T, d, d) stack of bare-basis snapshots alone takes 150 MiB on fig5b
    cfg = write_config(tmp_path, "cfg.json", {"scenario": "fig5b"})
    tracemalloc.start()
    try:
        code = main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 40 * 2**20


def test_malformed_config_exits_2_without_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    code = main(["levels", "--config", str(bad), "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_unknown_field_exits_2_without_outputs(tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"system": TINY_SYSTEM, "sweep": {"parameter": "qubits[2].omega",
                                                         "start": 0.9, "stop": 1.1,
                                                         "points": 3, "levels": 2,
                                                         "surprise": 1}})
    out = tmp_path / "out"
    assert main(["levels", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_section_exits_2(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"system": TINY_SYSTEM})
    assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_numerical_failure_exits_3(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "system": {
            "qubits": [{"omega": 0.5, "lam": 0.9}, {"omega": 0.7, "lam": 0.9}],
            "omega_c": 1.0,
            "fock_cutoff": 6,
        },
        "anticross": {
            "parameter": "qubits[0].omega",
            "bracket": [0.45, 0.55],
            "pair": [["ge", 4], ["eg", 4]],  # scrambled beyond branch tracking
        },
    })
    assert main(["anticross", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_anticross_minimum_at_bracket_edge_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {"scenario": "fig1b", "anticross": {"bracket": [0.97, 1.0]}})
    out = tmp_path / "out"
    assert main(["anticross", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    assert "widen the bracket" in capsys.readouterr().err


def cell_by_cell_csv(header, rows) -> bytes:
    """Reference: the CSV writer that formatted one cell at a time, strings as
    given and numbers through ``f"{float(x):.17g}"``."""
    def _fmt(x: float) -> str:
        return f"{float(x):.17g}"

    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
                  math.nan, 1.7976931348623157e308, 0.1, 1 / 3, -2.5, 1e16, 123456789.0]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 12), width=st.integers(1, 6),
       labels=st.integers(0, 3))
@example(data=None, rows=len(SPECIAL_FLOATS), width=1, labels=1)
def test_csv_writes_the_bytes_of_the_cell_by_cell_writer(data, rows, width, labels):
    if data is None:  # every special value, each beside a label
        numbers = [[x] for x in SPECIAL_FLOATS]
        strings = [["ggg:0"]] * rows
    else:
        numbers = data.draw(st.lists(
            st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
                     min_size=width, max_size=width), min_size=rows, max_size=rows))
        strings = data.draw(st.lists(
            st.lists(st.text("egx:0123456789", min_size=1, max_size=8),
                     min_size=labels, max_size=labels), min_size=rows, max_size=rows))
    header = [f"c{k}" for k in range(len(numbers[0]) + len(strings[0]))]
    expected = cell_by_cell_csv(header, [n + s for n, s in zip(numbers, strings)])
    assert _csv(header, numbers, strings) == expected
    assert _csv(header, np.array(numbers), strings) == expected
    if not strings[0]:
        assert _csv(header, numbers) == expected


@pytest.mark.parametrize("scenario", ["fig3", "fig5b", "figS2b"])
def test_dynamics_manifest_records_the_kept_coherences(tmp_path, scenario):
    # a pair_symmetric start, given in the eigenbasis, has exactly the pair's
    # two live coherences: both are kept and nothing is dropped.  The data
    # files do not carry the two keys, and their checksums are those of the
    # bytes written
    out = tmp_path / "out"
    manifest = run_command("dynamics", resolve_config({"scenario": scenario}), out)
    assert manifest["coherences_kept"] == 2
    assert manifest["dropped_weight"] == 0.0
    written = json.loads((out / "manifest.json").read_text())
    for key in ("coherences_kept", "dropped_weight"):
        assert written[key] == manifest[key]
    assert [record["file"] for record in manifest["outputs"]] == ["dynamics.csv",
                                                                  "dynamics_meta.json"]
    for record in manifest["outputs"]:
        data = (out / record["file"]).read_bytes()
        assert record["sha256"] == hashlib.sha256(data).hexdigest()
    assert not {"coherences_kept", "dropped_weight"} & json.loads(
        (out / "dynamics_meta.json").read_text()).keys()


@pytest.mark.parametrize("scenario, initial, levels", [
    ("fig3", None, 5), ("fig5b", None, 9), ("figS2b", None, 9), ("fig3", ["bare", "gge", 0], 64)])
def test_dynamics_manifest_records_the_propagated_levels(tmp_path, scenario, initial, levels):
    # a pair start reaches the levels up to its upper branch, 0..4 of 64 on
    # fig3 and 0..8 of 128 on fig5b and figS2b; a bare start has weight on
    # every level.  The data files do not carry the key
    cfg = {"scenario": scenario}
    if initial is not None:
        cfg["dynamics"] = {"initial": initial}
    out = tmp_path / "out"
    manifest = run_command("dynamics", resolve_config(cfg), out)
    assert manifest["propagated_levels"] == levels
    assert json.loads((out / "manifest.json").read_text())["propagated_levels"] == levels
    assert "propagated_levels" not in json.loads((out / "dynamics_meta.json").read_text())


def test_levels_csv_format_and_manifest(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "system": TINY_SYSTEM,
        "sweep": {"parameter": "qubits[2].omega", "start": 0.9, "stop":  1.1,
                  "points": 5, "levels": 3},
    })
    out = tmp_path / "out"
    assert main(["levels", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "levels.csv").read_text().splitlines()
    assert lines[0] == "qubits[2].omega,E1,E2,E3,label1,label2,label3"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.9
    assert all(float(x) >= 0 for x in first[1:4])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"][0]["file"] == "levels.csv"
    assert len(manifest["outputs"][0]["sha256"]) == 64
    pinned = spectrum._blas_control() is not None
    workers = min(spectrum._available_cores(), 5) if pinned else 1
    assert manifest["sweep"] == {"workers": workers, "blas_pinned": pinned,
                                 "eigensolver": sweep_eigensolver()}


def test_sweep_workers_call_no_traced_function(tmp_path, monkeypatch):
    # the tracer keeps one span stack, so only the calling thread may reach a
    # function it wraps; a worker that did would add calls and corrupt spans
    monkeypatch.setattr(spectrum, "_available_cores", lambda: 3)
    tracer = perfbench_tracer()
    cfg = write_config(tmp_path, "cfg.json", {"scenario": "fig1b"})
    with tracer.installed(), tracer.command("fig1b-levels"):
        assert main(["levels", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert tracer.counts["spectrum.sweep_levels.calls"] == 2  # the sweep and its inset
    for name, count in tracer.counts.items():
        if name.endswith(".calls") and name.split(".")[0] in ("model", "algebra", "dynamics"):
            assert count == 0, name
    assert tracer.counts["spectrum.diagonalize.calls"] == 0
    by_index = {span[2]: span for span in tracer.spans}
    for name, _, _, parent, start, end in tracer.spans:
        assert end >= start
        if parent is not None:
            assert by_index[parent][4] <= start and end <= by_index[parent][5], name


def test_levels_manifest_records_the_forced_worker_count(tmp_path, monkeypatch):
    monkeypatch.setattr(spectrum, "_available_cores", lambda: 3)
    out = tmp_path / "out"
    manifest = run_command("levels", resolve_config({"scenario": "fig1b"}), out)
    pinned = spectrum._blas_control() is not None
    assert manifest["sweep"] == {"workers": 3 if pinned else 1, "blas_pinned": pinned,
                                 "eigensolver": sweep_eigensolver()}
    assert json.loads((out / "manifest.json").read_text())["sweep"] == manifest["sweep"]
    assert "sweep" not in run_command("anticross", resolve_config({"scenario": "fig1b"}),
                                      tmp_path / "anticross")


def sweep_eigensolver() -> str:
    return "eigh" if spectrum._dsyevr() is None else "dsyevr"


@pytest.mark.parametrize("command, payload, key, counts", [
    ("anticross", {"scenario": "fig1b"}, "search", [2]),
    ("dynamics", {"scenario": "fig3", "dynamics": {"points": 5}}, "search", [2]),
    ("perturb", {"scenario": "fig2", "perturb": {"lambdas": [0.1, 0.2]}}, "searches", [2, 2]),
])
def test_search_manifests_record_the_eigensolver(tmp_path, monkeypatch, command, payload, key,
                                                 counts):
    # with dsyevr, each LAPACK solve of a search solves for its two branches,
    # eigen indices 3..4, and one neighbour on each side, leaving a pair
    # weight of 0.04-0.2 unsolved; with eigh for every one of the d = 64,
    # leaving rounding noise.  The same evaluations are certified either
    # way, with error bounds that differ by rounding, and the data files
    # keep their bytes
    cfg = resolve_config(payload)
    runs = {}
    for solver in ("found", "missing"):
        if solver == "missing":
            monkeypatch.setattr(spectrum, "_dsyevr", lambda: None)
        manifest = run_command(command, cfg, tmp_path / solver)
        assert "sweep" not in manifest
        written = json.loads((tmp_path / solver / "manifest.json").read_text())
        assert written[key] == manifest[key]
        dsyevr = spectrum._dsyevr() is not None
        records = manifest[key] if key == "searches" else [manifest[key]]
        assert len(records) == len(counts)
        for record, count in zip(records, counts):
            unseen = record.pop("unseen_weight_max")
            certified = {name: record.pop(name)
                         for name in ("ritz_evaluations", "gap_error_bound_max")}
            assert record == {"eigensolver": "dsyevr" if dsyevr else "eigh",
                              "solved_pairs": [2, 2 + count + 1] if dsyevr else [0, 63]}
            assert 0.04 < unseen < 0.2 if dsyevr else abs(unseen) < 1e-12
            runs.setdefault(("certified", solver), []).append(certified["ritz_evaluations"])
            assert 0.0 < certified["gap_error_bound_max"] < 1e-7
        runs[solver] = [(rec["file"], rec["sha256"]) for rec in manifest["outputs"]]
    assert runs["found"] == runs["missing"]
    assert runs["certified", "found"] == runs["certified", "missing"]


@pytest.mark.parametrize("command, payload, key, searches", [
    ("anticross", {"scenario": "fig4"}, "search", 1),
    ("dynamics", {"scenario": "fig5b", "dynamics": {"points": 5}}, "search", 1),
    ("perturb", {"scenario": "fig2"}, "searches", 7),
])
def test_search_manifests_record_the_certified_evaluations(tmp_path, command, payload, key,
                                                           searches):
    # every search record, one per lambda of a coupling sweep, counts its
    # certified Rayleigh-Ritz evaluations, all but the first four LAPACK
    # ones and those whose certificate failed, and the largest error bound
    # that a comparison took, far below the gaps the comparisons told apart
    out = tmp_path / "out"
    manifest = run_command(command, resolve_config(payload), out)
    assert json.loads((out / "manifest.json").read_text())[key] == manifest[key]
    records = manifest[key] if key == "searches" else [manifest[key]]
    assert len(records) == searches
    for record in records:
        assert set(record) == {"eigensolver", "solved_pairs", "unseen_weight_max",
                               "ritz_evaluations", "gap_error_bound_max"}
        assert 20 <= record["ritz_evaluations"] <= 23
        assert 0.0 < record["gap_error_bound_max"] < 1e-7


def test_levels_manifest_records_the_eigensolver(tmp_path, monkeypatch):
    # dsyevr where numpy's LAPACK exports it, eigh where it does not; the
    # data files are the same to within the eigensolvers' rounding
    cfg = resolve_config({"scenario": "fig1b"})
    found = run_command("levels", cfg, tmp_path / "found")
    assert found["sweep"]["eigensolver"] == sweep_eigensolver()
    monkeypatch.setattr(spectrum, "_dsyevr", lambda: None)
    missing = run_command("levels", cfg, tmp_path / "missing")
    assert missing["sweep"]["eigensolver"] == "eigh"
    for name, run in (("found", found), ("missing", missing)):
        written = json.loads((tmp_path / name / "manifest.json").read_text())
        assert written["sweep"] == run["sweep"]
    rows = [np.genfromtxt(tmp_path / name / "levels.csv", delimiter=",", names=True,
                          dtype=None, encoding="utf-8") for name in ("found", "missing")]
    for column in rows[0].dtype.names:
        if column.startswith("label") or column == rows[0].dtype.names[0]:
            assert rows[0][column].tolist() == rows[1][column].tolist()
        else:
            np.testing.assert_allclose(rows[0][column], rows[1][column], rtol=0, atol=1e-13)


def test_levels_bytes_do_not_depend_on_blas_threads(tmp_path):
    # d = 256, where a two-thread BLAS moves eigh's energies by up to 1.8e-14
    # against a one-thread BLAS; the sweep holds BLAS at one thread either way
    cfg = write_config(tmp_path, "cfg.json", {"scenario": "fig4", "sweep": {"points": 5}})
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(vpmix.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-m", "vpmix.cli", "levels", "--config", cfg,
                        "--out", str(out), "--cutoff", "16"],
                       env=env, capture_output=True, timeout=300, check=True)
        written.append((out / "levels.csv").read_bytes())
    assert written[0].count(b"\n") == 6
    assert written[0] == written[1]


def test_levels_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "system": TINY_SYSTEM,
        "sweep": {"parameter": "qubits[2].omega", "start": 0.9, "stop": 1.1,
                  "points": 5, "levels": 3},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["levels", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["levels", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "levels.csv").read_bytes() == (out2 / "levels.csv").read_bytes()


def test_threads_option_is_gone(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"scenario": "fig1b"})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main(["levels", "--config", cfg, "--out", str(out), "--threads", "2"])
    assert exited.value.code == 2
    assert "--threads" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="threads"):
        run_command("levels", resolve_config({"scenario": "fig1b"}), out, threads=2)
    assert not out.exists()


def test_unresolvable_tol_exits_2_without_outputs(tmp_path, capsys):
    # positive, so the schema accepts it, but finer than the float spacing
    cfg = write_config(tmp_path, "cfg.json", {"scenario": "fig1b", "anticross": {"tol": 1e-300}})
    out = tmp_path / "out"
    assert main(["anticross", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "tol" in capsys.readouterr().err


def test_cutoff_override(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "system": TINY_SYSTEM,
        "anticross": {"parameter": "qubits[2].omega", "bracket": [0.95, 1.03],
                      "pair": [["gge", 0], ["eeg", 0]]},
    })
    out1, out2 = tmp_path / "c4", tmp_path / "c6"
    assert main(["anticross", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["anticross", "--config", cfg, "--out", str(out2), "--cutoff", "6"]) == 0
    r1 = json.loads((out1 / "anticross.json").read_text())
    r2 = json.loads((out2 / "anticross.json").read_text())
    assert r1["splitting"] > 0
    # the override changes truncation, so values agree only approximately
    assert r2["splitting"] == pytest.approx(r1["splitting"], rel=0.05)


def test_zero_cutoff_override_exits_2(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "system": TINY_SYSTEM,
        "anticross": {"parameter": "qubits[2].omega", "bracket": [0.95, 1.03],
                      "pair": [["gge", 0], ["eeg", 0]]},
    })
    out = tmp_path / "out"
    assert main(["anticross", "--config", cfg, "--out", str(out), "--cutoff", "0"]) == 2
    assert not out.exists()


def test_main_parses_each_call_with_the_one_parser(tmp_path, capsys):
    # the parser is built at the first call of a process, not at import, and
    # kept: each later call parses its own argv, with the same exit codes
    cfg = write_config(tmp_path, "cfg.json", {
        "system": TINY_SYSTEM,
        "anticross": {"parameter": "qubits[2].omega", "bracket": [0.95, 1.03],
                      "pair": [["gge", 0], ["eeg", 0]]},
    })
    with pytest.raises(SystemExit) as exit_:
        main(["anticross", "--config", cfg, "--cutoff", "four"])
    assert exit_.value.code == 2
    assert "invalid int value: 'four'" in capsys.readouterr().err
    assert main(["anticross", "--config", cfg, "--out", str(tmp_path / "a"), "--cutoff", "0"]) == 2
    assert main(["validate", "--config", cfg]) == 0
    assert main(["anticross", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert json.loads((tmp_path / "b" / "manifest.json").read_text())["command"] == "anticross"
    assert cli._parser() is cli._parser()
    fresh = subprocess.run(
        [sys.executable, "-c", "import vpmix.cli as cli; print(cli._parser.cache_info().currsize)"],
        env=dict(os.environ, PYTHONPATH=str(Path(vpmix.__file__).resolve().parents[1])),
        capture_output=True, text=True, timeout=120, check=True)
    assert fresh.stdout.split() == ["0"]


def test_negative_seed_override_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"scenario": "ecc"})
    out = tmp_path / "out"
    assert main(["ecc", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert not out.exists()
    assert "seed" in capsys.readouterr().err


def test_ecc_report_shape(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"scenario": "ecc"})
    out = tmp_path / "out"
    assert main(["ecc", "--config", cfg, "--out", str(out), "--seed", "11"]) == 0
    report = json.loads((out / "ecc_report.json").read_text())
    assert report["seed"] == 11
    assert len(report["cases"]) == 14
    assert all(abs(c["fidelity"] - 1.0) < 1e-10 for c in report["cases"])
    impls = {c["implementation"] for c in report["cases"]}
    assert impls == {"cnot", "mix"}


def test_validate_command_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"scenario": "fig1b"})
    assert main(["validate", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.out or "ok" in captured.out


def test_load_config_requires_object(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("[1, 2]")
    from vpmix.errors import ConfigError
    with pytest.raises(ConfigError):
        load_config(str(path))
