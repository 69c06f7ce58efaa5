#!/usr/bin/env python3
"""Run every bundled scenario through its natural subcommands.

Writes one output directory per (scenario, command) under --root, next to the
one-line config ``<scenario>.json`` it ran from, and prints a one-line summary
for each run.  Useful as a smoke test and to regenerate the full set of
CSV/JSON artifacts in one go.
"""

import argparse
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default="out", help="output root directory")
    args = parser.parse_args()
    failures = run(Path(args.root))
    if failures:
        print(f"{failures} run(s) failed", file=sys.stderr)
        return 1
    print("all scenarios completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
