"""Self-tests of the output oracle.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
from vpmix import cli  # noqa: E402

REFERENCE_SEED = 7  # the ecc preset's seed, which produced ecc-ecc/


def _copy(tmp_path: Path, key: str) -> Path:
    out = tmp_path / key
    shutil.copytree(oracle.REFERENCE / key, out)
    (out / "manifest.json").write_text("{}\n")
    return out


def _csv(column: str, row: int, change):
    def edit(path: Path):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        col = rows[0].index(column)
        rows[row][col] = change(rows[row][col])
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return edit


def _json(change):
    def edit(path: Path):
        obj = json.loads(path.read_text())
        change(obj)
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return edit


def _add(delta):
    return lambda text: repr(float(text) + delta)


def _scale(factor):
    return lambda text: repr(float(text) * factor)


def _set(key, value):
    return lambda obj: obj.__setitem__(key, value)


def _bump(key, delta):
    return lambda obj: obj.__setitem__(key, obj[key] + delta)


def _times(key, factor):
    return lambda obj: obj.__setitem__(key, obj[key] * factor)


def _case(index, key, value):
    return lambda obj: obj["cases"][index].__setitem__(key, value)


def _shift_list(key, index, delta):
    return lambda obj: obj[key].__setitem__(index, obj[key][index] + delta)


# (command, file, edit, accepted): each tolerance is probed just inside and
# just beyond its limit.
EDITS = [
    ("fig4-levels", "levels.csv", _csv("E3", 10, _add(5e-10)), True),
    ("fig4-levels", "levels.csv", _csv("E3", 10, _add(2e-9)), False),
    ("fig4-levels", "levels.csv", _csv("qubits[0].omega", 3, _add(2e-9)), False),
    ("fig1b-levels", "levels_inset.csv", _csv("label2", 5, lambda t: "eee:7"), False),
    ("fig5a-anticross", "anticross.json", _json(_bump("location", 9e-7)), True),
    ("fig5a-anticross", "anticross.json", _json(_bump("location", 1.1e-6)), False),
    ("fig5a-anticross", "anticross.json", _json(_times("splitting", 1 + 5e-10)), True),
    ("fig5a-anticross", "anticross.json", _json(_times("splitting", 1 + 2e-9)), False),
    ("fig5a-anticross", "anticross.json", _json(_shift_list("branch_energies", 0, 2e-6)), False),
    ("fig5a-anticross", "anticross.json", _json(_shift_list("superposition_overlaps", 1, 2e-4)), False),
    ("fig5a-anticross", "anticross.json", _json(_shift_list("branch_indices", 0, 1)), False),
    ("fig5a-anticross", "anticross.json", _json(_set("evaluations", 6)), True),
    ("fig2-perturb", "coupling_sweep.csv", _csv("splitting_numeric", 4, _scale(1 + 5e-10)), True),
    ("fig2-perturb", "coupling_sweep.csv", _csv("splitting_numeric", 4, _scale(1 + 2e-9)), False),
    ("fig3-dynamics", "dynamics.csv", _csv("P1", 300, _add(1.5e-5)), True),
    ("fig3-dynamics", "dynamics.csv", _csv("P1", 300, _add(2.5e-5)), False),
    ("fig3-dynamics", "dynamics.csv", _csv("t", 300, _scale(1 + 2e-8)), False),
    ("fig5b-dynamics", "dynamics_meta.json", _json(_bump("dissipator_count", 1)), False),
    ("fig5b-dynamics", "dynamics_meta.json", _json(_times("coupling_sign", -1)), False),
    ("fig5b-dynamics", "dynamics_meta.json", _json(lambda o: o.pop("time_unit")), False),
    ("ecc-ecc", "ecc_report.json", _json(_case(3, "fidelity", 1 - 1e-8)), False),
    ("ecc-ecc", "ecc_report.json", _json(_case(3, "corrected_wire", 1)), False),
    ("ecc-ecc", "ecc_report.json", _json(_case(5, "syndrome", [0, 0])), False),
    ("ecc-ecc", "ecc_report.json", _json(_set("seed", 8)), False),
    ("ecc-ecc", "ecc_report.json", lambda path: path.write_text("{not json"), False),
    ("fig3-dynamics", "dynamics.csv", lambda path: path.unlink(), False),
    ("fig3-dynamics", "extra.csv", lambda path: path.write_text("t\n"), False),
]


@pytest.mark.parametrize("key", sorted(p.name for p in oracle.REFERENCE.iterdir()))
def test_reference_outputs_pass(tmp_path, key):
    assert oracle.check(key, _copy(tmp_path, key), REFERENCE_SEED) == []


@pytest.mark.parametrize("key, name, edit, accepted", EDITS)
def test_perturbed_reference(tmp_path, key, name, edit, accepted):
    out = _copy(tmp_path, key)
    edit(out / name)
    problems = oracle.check(key, out, REFERENCE_SEED)
    assert (problems == []) == accepted, problems


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_accepts_fig3_location_shift(tmp_path, monkeypatch, shift):
    search = cli.find_anticrossing

    def shifted(*args, **kwargs):
        report = search(*args, **kwargs)
        return dataclasses.replace(report, location=report.location + shift)

    monkeypatch.setattr(cli, "find_anticrossing", shifted)
    out = tmp_path / "fig3-dynamics"
    cli.run_command("dynamics", cli.resolve_config({"scenario": "fig3"}), out,
                    threads=1, cutoff=None, seed=None)
    reference = oracle.REFERENCE / "fig3-dynamics" / "dynamics.csv"
    assert (out / "dynamics.csv").read_bytes() != reference.read_bytes()
    assert oracle.check("fig3-dynamics", out, REFERENCE_SEED) == []
