"""The data-file and manifest comparison of ``scripts/run_all_scenarios.py
--compare`` and the counts of ``scripts/line_counts.py``."""

import importlib.util
import json
import shutil
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def script(name: str):
    spec = importlib.util.spec_from_file_location(f"_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenario_script():
    return script("run_all_scenarios")


def write_tree(root: Path, cell: float, manifest: str) -> Path:
    (root / "fig2-perturb").mkdir(parents=True)
    (root / "fig2-perturb" / "coupling_sweep.csv").write_text(
        f"lam,location\n0.05,{cell:.17g}\n0.07,0.25\n")
    (root / "fig2-perturb" / "manifest.json").write_text(manifest)
    (root / "ecc-ecc").mkdir()
    (root / "ecc-ecc" / "ecc_report.json").write_text(
        '{"fidelity": 1.0, "syndrome": [0, 1], "wire": "q1"}\n')
    (root / "fig2.json").write_text('{"scenario": "fig2"}')
    return root


def verdicts(capsys) -> dict:
    """Each file's verdict; the indented first-difference lines are left out."""
    return dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
                if not line.startswith(" "))


def test_compare_reports_identical_moved_and_missing_files(tmp_path, capsys):
    compare = scenario_script().compare
    run = write_tree(tmp_path / "run", 0.1, '{"wall_time_s": 1.0}')
    # a manifest is compared without its wall time
    same = write_tree(tmp_path / "same", 0.1, '{"wall_time_s": 2.0}')
    assert compare(run, same) == 0
    assert verdicts(capsys) == {"ecc-ecc/ecc_report.json": "identical",
                                "fig2-perturb/coupling_sweep.csv": "identical",
                                "fig2-perturb/manifest.json": "identical"}

    moved = write_tree(tmp_path / "moved", 0.1 + 1e-16, '{"wall_time_s": 1.0}')
    assert compare(run, moved) == 1
    found = verdicts(capsys)
    assert found["ecc-ecc/ecc_report.json"] == "identical"
    prefix, gap = found["fig2-perturb/coupling_sweep.csv"].rsplit(" ", 1)
    assert prefix == "max abs difference"
    assert 0.9e-16 < float(gap) < 1.1e-16

    missing = tmp_path / "missing"
    shutil.copytree(run, missing)
    (missing / "ecc-ecc" / "ecc_report.json").unlink()
    assert compare(run, missing) == 1
    assert verdicts(capsys)["ecc-ecc/ecc_report.json"] == "missing"
    assert compare(missing, run) == 1
    assert verdicts(capsys)["ecc-ecc/ecc_report.json"] == "missing"


def test_compare_reports_text_and_structure_changes(tmp_path, capsys):
    compare = scenario_script().compare
    run = write_tree(tmp_path / "run", 0.1, "{}")
    other = write_tree(tmp_path / "other", 0.1, "{}")
    (other / "ecc-ecc" / "ecc_report.json").write_text(
        '{"fidelity": 1.0, "syndrome": [0, 1], "wire": "q2"}\n')
    (other / "fig2-perturb" / "coupling_sweep.csv").write_text("lam,location\n0.05,0.1\n")
    assert compare(run, other) == 2
    assert verdicts(capsys) == {"ecc-ecc/ecc_report.json": "differs",
                                "fig2-perturb/coupling_sweep.csv": "differs",
                                "fig2-perturb/manifest.json": "identical"}


MANIFEST = ('{{"command": "perturb", "search": {{"eigensolver": "{solver}", '
            '"solved_pairs": [3, 4], "unseen_weight_max": {unseen}}}, "wall_time_s": {wall}}}')


def test_compare_checks_the_records_of_each_manifest(tmp_path, capsys):
    # a manifest's records are compared as data, its wall time is not: a
    # solver record that changes or moves is reported, a bare wall time
    # change and a reformatted file are not
    compare = scenario_script().compare
    run = write_tree(tmp_path / "run", 0.1, MANIFEST.format(solver="dsyevr", unseen=0.25,
                                                            wall=0.5))
    cases = {
        "rerun": (MANIFEST.format(solver="dsyevr", unseen=0.25, wall=0.7), "identical"),
        "reformatted": (json.dumps(json.loads(MANIFEST.format(solver="dsyevr", unseen=0.25,
                                                              wall=0.5)), indent=2),
                        "identical"),
        "solver": (MANIFEST.format(solver="eigh", unseen=0.25, wall=0.5), "differs"),
        "moved": (MANIFEST.format(solver="dsyevr", unseen=0.25 + 2**-20, wall=0.5),
                  f"max abs difference {2**-20:.3g}"),
        "dropped": ('{"command": "perturb", "wall_time_s": 0.5}', "differs"),
    }
    for case, (manifest, verdict) in cases.items():
        other = write_tree(tmp_path / case, 0.1, manifest)
        assert compare(run, other) == (verdict != "identical")
        assert verdicts(capsys)["fig2-perturb/manifest.json"] == verdict, case


def test_compare_names_every_differing_leaf(tmp_path, capsys):
    # under a JSON file that differs, the path of each differing leaf, in
    # sorted key order, and both values, so that a change can be declared
    # key by key; under a CSV file, its first differing cell; a missing
    # file, or an identical one, gets no such line
    compare = scenario_script().compare
    run = write_tree(tmp_path / "run", 0.1, MANIFEST.format(solver="dsyevr", unseen=0.25,
                                                            wall=0.5))
    moved = json.loads(MANIFEST.format(solver="dsyevr", unseen=0.25, wall=0.5))
    moved["search"].update(solved_pairs=[2, 5], ritz_evaluations=22)
    other = write_tree(tmp_path / "other", 0.1 + 2**-40, json.dumps(moved))
    (other / "ecc-ecc" / "ecc_report.json").unlink()
    assert compare(run, other) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "ecc-ecc/ecc_report.json: missing",
        "fig2-perturb/coupling_sweep.csv: max abs difference 9.09e-13",
        f"    first difference [1][1]: 0.1 vs {0.1 + 2**-40!r}",
        "fig2-perturb/manifest.json: differs",
        "    difference search.ritz_evaluations: absent vs 22",
        "    difference search.solved_pairs[0]: 3 vs 2",
        "    difference search.solved_pairs[1]: 4 vs 5",
    ]
    assert scenario_script()._differences(
        {"search": {"solved_pairs": [3, 4]}}, {"search": {"solved_pairs": [2, 5]}}) == [
        ("search.solved_pairs[0]", 3, 2), ("search.solved_pairs[1]", 4, 5)]


# 22 physical lines, 9 of them code: the import, def, the two lines of the
# string assigned to text, the return's first and last line, class and the
# two lines of the call assigned to y.  The docstrings, comments, blank lines
# and the blank and comment lines inside the brackets are not code.
LINE_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line

# a comment alone


def f(x):
    """One-line docstring."""
    text = """a string
that is code"""
    return (x +
            # a comment inside brackets

            1)


class A:
    "a docstring in single quotes"
    y = f(
        2)
'''


def test_line_counts_drop_comments_blank_lines_and_docstrings(tmp_path, capsys):
    counts = script("line_counts")
    assert counts.line_counts(LINE_FIXTURE) == (22, 9)
    (tmp_path / "fixture.py").write_text(LINE_FIXTURE)
    (tmp_path / "empty.py").write_text("")
    assert counts.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["empty.py", "0", "0"], ["fixture.py", "22", "9"], ["total", "22", "9"]]
