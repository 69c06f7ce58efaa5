#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records ``perfbench/run.py`` appends to its
``--results`` file.  For every workload and end-to-end metric the table gives
each side's median, quartiles and run count and a verdict:

- ``better``: the new side wins at least nine tenths of the run pairs (run i
  of OLD against run i of NEW, ties counting for neither) and the medians
  differ by more than the distance between OLD's quartiles;
- ``unresolved``: either side's quartile distance, as a share of its median,
  exceeds the metric's bound, and not every NEW run beats every OLD run;
- ``worse``: the new median is worse than the old by more than the bound;
- ``within bound`` otherwise.

Traced records (``--trace 1``) of the same workload and seed are compared
count by count.  When both sides ran the same sources (equal ``src_sha256``)
a differing count is a failure and the exit code is 1.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    gain = [sign * (o - n) for o, n in zip(old, new)]
    wins = sum(g > 0 for g in gain)
    oq1, omed, oq3 = quartiles(old)
    nq1, nmed, nq3 = quartiles(new)
    all_better = max(new) < min(old) if better == "lower" else min(new) > max(old)
    if gain and wins >= 0.9 * len(gain) and sign * (omed - nmed) > oq3 - oq1:
        return "better"
    spread = max((oq3 - oq1) / abs(omed), (nq3 - nq1) / abs(nmed))
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (nmed - omed) > bound * abs(omed):
        return "worse"
    return "within bound"


def compare_metrics(old: list[dict], new: list[dict], spec: dict) -> None:
    print(f"{'workload':9s} {'metric':12s} {'old median [q1, q3] n':>32s} "
          f"{'new median [q1, q3] n':>32s} {'change':>8s} {'wins':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        old_w = [r for r in old if r["workload"] == workload and r["trace"] == 0]
        new_w = [r for r in new if r["workload"] == workload and r["trace"] == 0]
        if not old_w or not new_w:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in old_w]
            b = [r["metrics"][name]["value"] for r in new_w]
            (aq1, am, aq3), (bq1, bm, bq3) = quartiles(a), quartiles(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
            print(f"{workload:9s} {name:12s} "
                  f"{f'{am:.4g} [{aq1:.4g}, {aq3:.4g}] {len(a)}':>32s} "
                  f"{f'{bm:.4g} [{bq1:.4g}, {bq3:.4g}] {len(b)}':>32s} "
                  f"{(bm - am) / am:>+8.1%} {f'{wins}/{min(len(a), len(b))}':>6s}  "
                  f"{verdict(a, b, metric['better'], metric['bound'])}")
        failed = [sum(r["failed"] for r in side) / sum(r["attempted"] for r in side)
                  for side in (old_w, new_w)]
        print(f"{workload:9s} {'failed_frac':12s} {failed[0]:>32.4g} {failed[1]:>32.4g}")


def compare_counts(old: list[dict], new: list[dict], spec: dict) -> int:
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    by_key = defaultdict(lambda: ([], []))
    for side, records in enumerate((old, new)):
        for r in records:
            if r["trace"] == 1:
                by_key[(r["workload"], r["seed"])][side].append(r)
    failures = 0
    for (workload, seed), (olds, news) in sorted(by_key.items()):
        for a in olds:
            for b in news:
                same_code = a["provenance"]["src_sha256"] == b["provenance"]["src_sha256"]
                for name in counts:
                    x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
                    if x != y:
                        failures += same_code
                        label = "FAIL count mismatch" if same_code else "count changed"
                        print(f"{label}: {workload} seed {seed} {name}: {x} -> {y}")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = load(argv[0]), load(argv[1])
    for label, records in (("old", old), ("new", new)):
        settings = sorted({json.dumps({k: r["provenance"][k] for k in
                                       ("git_revision", "src_lines", "nproc", "blas",
                                        "blas_threads", "blas_env")}, sort_keys=True)
                           for r in records})
        print(f"{label}: {len(records)} records; " + "; ".join(settings))
    compare_metrics(old, new, spec)
    failures = compare_counts(old, new, spec)
    print(f"count check: {failures} mismatch(es) between runs of the same sources")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
