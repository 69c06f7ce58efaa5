"""The data-file comparison of ``scripts/run_all_scenarios.py --compare`` and
the counts of ``scripts/line_counts.py``."""

import importlib.util
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
    return dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())


def test_compare_reports_identical_moved_and_missing_files(tmp_path, capsys):
    compare = scenario_script().compare
    run = write_tree(tmp_path / "run", 0.1, '{"wall_time_s": 1.0}')
    # manifests hold wall times and never count
    same = write_tree(tmp_path / "same", 0.1, '{"wall_time_s": 2.0}')
    assert compare(run, same) == 0
    assert verdicts(capsys) == {"ecc-ecc/ecc_report.json": "identical",
                                "fig2-perturb/coupling_sweep.csv": "identical"}

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
                                "fig2-perturb/coupling_sweep.csv": "differs"}


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
