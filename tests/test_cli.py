import json
import math
import tracemalloc

import pytest

from vpmix.cli import load_config, main, resolve_config, validate_config
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


def test_presets_validate_without_errors():
    for scenario in SCENARIOS:
        assert validate_config(resolve_config({"scenario": scenario}))[0] == []


def fig3_dynamics(**fields):
    return {"scenario": "fig3", "dynamics": fields}


def fig3_observable(**fields):
    return fig3_dynamics(observables=[fields])


@pytest.mark.parametrize("command, payload, field", [
    # a bracket is exactly two numbers
    ("anticross", {"scenario": "fig1b", "anticross": {"bracket": [0.9]}}, "bracket"),
    ("anticross", {"scenario": "fig1b", "anticross": {"bracket": [0.9, 1.0, 1.02]}}, "bracket"),
    ("perturb", {"scenario": "fig2", "perturb": {"bracket": [0.9]}}, "bracket"),
    # booleans and integers are read by JSON type, not by truthiness or int()
    ("dynamics", fig3_dynamics(lossless="false"), "lossless"),
    ("dynamics", fig3_dynamics(tune_to_minimum=1), "tune_to_minimum"),
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
])
def test_bad_fields_of_every_command_exit_2(tmp_path, capsys, command, payload, field):
    assert_config_error(tmp_path, capsys, command, payload, field)


def test_dynamics_without_observables_writes_time_column(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", fig3_dynamics(observables=[], points=5))
    out = tmp_path / "out"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dynamics.csv").read_text().splitlines()
    assert lines[0] == "t"
    assert len(lines) == 6
    assert float(lines[1]) == 0.0
    assert all("," not in line for line in lines)


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


def test_levels_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "system": TINY_SYSTEM,
        "sweep": {"parameter": "qubits[2].omega", "start": 0.9, "stop": 1.1,
                  "points": 5, "levels": 3},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["levels", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["levels", "--config", cfg, "--out", str(out2), "--threads", "3"]) == 0
    assert (out1 / "levels.csv").read_bytes() == (out2 / "levels.csv").read_bytes()


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
