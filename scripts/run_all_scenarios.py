#!/usr/bin/env python3
"""Run every bundled scenario through its natural subcommands.

Writes one output directory per (scenario, command) under --root, next to the
one-line config ``<scenario>.json`` it ran from, and prints a one-line summary
for each run.  Useful as a smoke test and to regenerate the full set of
CSV/JSON artifacts in one go.

With ``--compare DIR`` it then checks every data file of the run against the
file at the same path under DIR, an earlier run's root, and every
``manifest.json`` too, less its ``wall_time_s``: the records of the sweeps,
searches and dynamics it holds are compared, and so are the checksums of the
outputs.  For each file it prints ``identical``, ``missing`` (from either
tree), the largest absolute difference over the numeric CSV cells and JSON
number leaves, or ``differs`` when text or structure differ.  Under a JSON
file that differs it prints an indented line for each differing leaf, with
its path and both values, such as ``difference search.solved_pairs[0]: 2
vs 3``, so that a change can be declared key by key; under a CSV file, a
line for its first differing cell.  It exits 1 if any file differs or is
missing.
"""

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

# this checkout's sources, ahead of any installed vpmix, so that a run from a
# second checkout runs that checkout's code
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vpmix.cli import main as vpmix_main  # noqa: E402
from vpmix.presets import SCENARIOS  # noqa: E402

NATURAL_COMMANDS = {
    "fig1b": ["levels", "anticross"],
    "fig2": ["perturb"],
    "fig3": ["dynamics"],
    "fig4": ["levels", "anticross"],
    "fig5a": ["levels", "anticross"],
    "fig5b": ["dynamics"],
    "figS2a": ["levels", "anticross"],
    "figS2b": ["dynamics"],
    "ecc": ["ecc"],
}


def run(root: Path) -> int:
    root.mkdir(parents=True, exist_ok=True)
    failures = 0
    for scenario, commands in NATURAL_COMMANDS.items():
        assert scenario in SCENARIOS
        config_path = root / f"{scenario}.json"
        config_path.write_text(json.dumps({"scenario": scenario}))
        for command in commands:
            out_dir = root / f"{scenario}-{command}"
            started = time.time()
            code = vpmix_main([command, "--config", str(config_path), "--out", str(out_dir)])
            elapsed = time.time() - started
            status = "ok" if code == 0 else f"exit {code}"
            print(f"{scenario:7s} {command:9s} {status:7s} {elapsed:6.1f}s -> {out_dir}")
            failures += code != 0
    return failures


def _parse(path: Path):
    """A JSON file as its values, a manifest without its wall time, and a CSV
    file as rows of floats and strings."""
    text = path.read_text()
    if path.suffix == ".json":
        values = json.loads(text)
        if path.name == "manifest.json":
            values.pop("wall_time_s", None)
        return values
    return [[_cell(cell) for cell in row] for row in csv.reader(io.StringIO(text))]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


_ABSENT = object()  # a key or item that one of two parsed files lacks


def _leaves(a, b, where: str = ""):
    """(path, value in a, value in b) of each leaf of two parsed files, in
    sorted key order, a key or item that one of them lacks giving _ABSENT on
    its side."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _leaves(a.get(key, _ABSENT), b.get(key, _ABSENT),
                               f"{where}.{key}" if where else key)
    elif isinstance(a, list) and isinstance(b, list):
        for j in range(max(len(a), len(b))):
            yield from _leaves(a[j] if j < len(a) else _ABSENT,
                               b[j] if j < len(b) else _ABSENT, f"{where}[{j}]")
    else:
        yield where, a, b


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _max_gap(a, b) -> float | None:
    """Largest |a - b| over the number leaves of two parsed files, or None if
    anything else in them differs."""
    worst = 0.0
    for _, x, y in _leaves(a, b):
        if not (_number(x) and _number(y)):
            if x != y:
                return None
            continue
        gap = 0.0 if x == y else abs(x - y)
        if gap != gap:  # a NaN differs
            return None
        worst = max(worst, gap)
    return worst


def _differences(a, b) -> list:
    """(path, value in a, value in b) of each leaf at which two parsed files
    differ, in sorted key order."""
    return [(where, x, y) for where, x, y in _leaves(a, b) if x != y]


def _leaf(value) -> str:
    return "absent" if value is _ABSENT else json.dumps(value)


def compare(root: Path, reference: Path) -> int:
    """Print how each data file and manifest under ``root`` or ``reference``
    compares with its counterpart in the other tree; return the number that
    differ or are missing from either."""
    names = sorted({path.relative_to(tree).as_posix() for tree in (root, reference)
                    for path in tree.glob("*/*") if path.is_file()})
    mismatches = 0
    for name in names:
        path, other = root / name, reference / name
        if not (path.is_file() and other.is_file()):
            verdict = "missing"
        elif path.read_bytes() == other.read_bytes() or (
                path.name == "manifest.json" and _parse(path) == _parse(other)):
            verdict = "identical"
        else:
            gap = _max_gap(_parse(path), _parse(other))
            verdict = "differs" if gap is None else f"max abs difference {gap:.3g}"
        print(f"{name}: {verdict}")
        differences = ([] if verdict in ("identical", "missing")
                       else _differences(_parse(path), _parse(other)))
        # a JSON file names every leaf that differs, a CSV file its first
        label = "difference" if path.suffix == ".json" else "first difference"
        for where, mine, theirs in differences[:None if path.suffix == ".json" else 1]:
            print(f"    {label} {where or '(the file)'}: {_leaf(mine)} vs {_leaf(theirs)}")
        mismatches += verdict != "identical"
    return mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default="out", help="output root directory")
    parser.add_argument("--compare", metavar="DIR",
                        help="root of an earlier run to compare the data files with")
    args = parser.parse_args()
    failures = run(Path(args.root))
    if failures:
        print(f"{failures} run(s) failed", file=sys.stderr)
    else:
        print("all scenarios completed")
    mismatches = compare(Path(args.root), Path(args.compare)) if args.compare else 0
    if mismatches:
        print(f"{mismatches} file(s) differ from {args.compare} or miss on one side",
              file=sys.stderr)
    elif args.compare:
        print(f"every data file matches {args.compare} byte for byte, "
              "and every manifest but for its wall time")
    return 1 if failures or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
