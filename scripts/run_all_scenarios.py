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
number leaves, or ``differs`` when text or structure differ.  It exits 1 if
any file differs or is missing.
"""

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

from vpmix.cli import main as vpmix_main
from vpmix.presets import SCENARIOS

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


def _max_gap(a, b) -> float | None:
    """Largest |a - b| over the number leaves of two parsed files, or None if
    anything else in them differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[key], b[key]) for key in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = list(zip(a, b))
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        gap = 0.0 if a == b else abs(a - b)
        return gap if gap == gap else None  # a NaN differs
    else:
        return 0.0 if a == b else None
    worst = 0.0
    for pair in pairs:
        gap = _max_gap(*pair)
        if gap is None:
            return None
        worst = max(worst, gap)
    return worst


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
