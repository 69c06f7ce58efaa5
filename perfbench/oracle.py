"""Output oracle: checks a command's data files against the seed code's outputs.

``reference/<scenario>-<command>/`` holds the data files (not the manifest)
that the bundled presets produced at the commit that introduced the
benchmark.  Tolerances:

- level energies and sweep grids: 1e-9 absolute; labels exact;
- anticrossing location: 1e-6 absolute; splitting 1e-9 relative.  The
  branch energies and superposition overlaps are evaluated at the location,
  so they get the change a 1e-6 location shift causes, with margin: measured
  up to 5.0e-7 (energies) and 4.0e-5 (overlaps), allowed 1e-6 and 1e-4;
- ``coupling_sweep.csv``: 1e-9 relative;
- dynamics observables 2e-5 absolute (a 1e-6 location shift moves them by
  up to 4.4e-6), times 1e-8 relative;
- integer fields of the JSON files: exact.  ``evaluations`` is a cost count
  and is not compared.

The error-correction report depends on the seed, so it is checked for
self-consistency instead: every case reproduces the reference syndrome of its
injected error, corrects the error's wire, and reaches fidelity 1 - 1e-9.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

EXACT = ("exact", 0.0)
SKIP = ("skip", 0.0)
FIDELITY_FLOOR = 1.0 - 1e-9


def _within(got, ref, rule) -> bool:
    kind, tol = rule
    if kind == "exact":
        return got == ref
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(_within(g, r, rule) for g, r in zip(got, ref)))
    try:
        got, ref = float(got), float(ref)
    except (TypeError, ValueError):
        return False
    limit = tol if kind == "abs" else tol * abs(ref)
    # A few ulps of slack, so that a change of exactly the tolerance passes.
    return math.isfinite(got) and abs(got - ref) <= limit + 4 * math.ulp(ref)


def _check_csv(got: str, ref: str, rule_for) -> list[str]:
    got_rows = [line.split(",") for line in got.splitlines()]
    ref_rows = [line.split(",") for line in ref.splitlines()]
    if not got_rows or got_rows[0] != ref_rows[0]:
        return [f"header {got_rows[0] if got_rows else None} != {ref_rows[0]}"]
    if len(got_rows) != len(ref_rows):
        return [f"{len(got_rows) - 1} rows, reference has {len(ref_rows) - 1}"]
    rules = [rule_for(column) for column in ref_rows[0]]
    problems = []
    for r, (got_row, ref_row) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=1):
        if len(got_row) != len(ref_row):
            problems.append(f"row {r}: {len(got_row)} fields, reference has {len(ref_row)}")
            continue
        for column, g, v, rule in zip(ref_rows[0], got_row, ref_row, rules):
            if not _within(g, v, rule):
                problems.append(f"row {r} {column}: {g} vs reference {v} ({rule[0]} {rule[1]:g})")
    return problems


def _check_json(got: str, ref: str, rules: dict) -> list[str]:
    got_obj, ref_obj = json.loads(got), json.loads(ref)
    if sorted(got_obj) != sorted(ref_obj):
        return [f"keys {sorted(got_obj)} != {sorted(ref_obj)}"]
    return [f"{key}: {got_obj[key]} vs reference {ref_obj[key]} ({rule[0]} {rule[1]:g})"
            for key, rule in rules.items()
            if rule is not SKIP and not _within(got_obj[key], ref_obj[key], rule)]


def _levels_rule(column: str):
    return EXACT if column.startswith("label") else ("abs", 1e-9)


def _dynamics_rule(column: str):
    return ("rel", 1e-8) if column == "t" else ("abs", 2e-5)


_ANTICROSS = {
    "parameter": EXACT,
    "pair": EXACT,
    "branch_indices": EXACT,
    "location": ("abs", 1e-6),
    "splitting": ("rel", 1e-9),
    "half_splitting": ("rel", 1e-9),
    "branch_energies": ("abs", 1e-6),
    "superposition_overlaps": ("abs", 1e-4),
    "evaluations": SKIP,
}

_DYNAMICS_META = {
    "parameter": EXACT,
    "initial": EXACT,
    "time_unit": EXACT,
    "coupling_sign": EXACT,
    "dissipator_count": EXACT,
    "location": ("abs", 1e-6),
    "splitting": ("rel", 1e-9),
    "effective_coupling": ("rel", 1e-9),
}


def _check_ecc(got: str, ref: str, seed: int) -> list[str]:
    payload, reference = json.loads(got), json.loads(ref)
    problems = []
    if payload.get("seed") != seed:
        problems.append(f"seed {payload.get('seed')} != {seed}")
    cases, ref_cases = payload.get("cases", []), reference["cases"]
    if len(cases) != len(ref_cases):
        return problems + [f"{len(cases)} cases, reference has {len(ref_cases)}"]
    for n, (case, ref_case) in enumerate(zip(cases, ref_cases)):
        where = f"case {n} ({case.get('implementation')} {case.get('mode')} {case.get('error')})"
        for key in ("implementation", "mode", "error", "syndrome"):
            if case.get(key) != ref_case[key]:
                problems.append(f"{where}: {key} {case.get(key)} != {ref_case[key]}")
        error = ref_case["error"]
        if case.get("corrected_wire") != (None if error is None else error[1]):
            problems.append(f"{where}: corrected wire {case.get('corrected_wire')}")
        fidelity = case.get("fidelity")
        if not isinstance(fidelity, float) or not FIDELITY_FLOOR <= fidelity <= 1.0 + 1e-9:
            problems.append(f"{where}: fidelity {fidelity}")
    return problems


_FILE_CHECKS = {
    "levels.csv": lambda got, ref, seed: _check_csv(got, ref, _levels_rule),
    "levels_inset.csv": lambda got, ref, seed: _check_csv(got, ref, _levels_rule),
    "coupling_sweep.csv": lambda got, ref, seed: _check_csv(got, ref, lambda c: ("rel", 1e-9)),
    "dynamics.csv": lambda got, ref, seed: _check_csv(got, ref, _dynamics_rule),
    "anticross.json": lambda got, ref, seed: _check_json(got, ref, _ANTICROSS),
    "dynamics_meta.json": lambda got, ref, seed: _check_json(got, ref, _DYNAMICS_META),
    "ecc_report.json": _check_ecc,
}


def check(key: str, out_dir: Path, seed: int) -> list[str]:
    """Problems found in ``out_dir`` for command ``key`` ("fig3-dynamics");
    empty when every data file matches the reference within tolerance.
    ``seed`` is the error-correction seed the command was given."""
    ref_dir = REFERENCE / key
    expected = sorted(p.name for p in ref_dir.iterdir())
    written = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if written != sorted(expected + ["manifest.json"]):
        return [f"{key}: wrote {written}, expected {expected} and manifest.json"]
    problems = []
    for name in expected:
        got = (out_dir / name).read_text()
        ref = (ref_dir / name).read_text()
        try:
            found = _FILE_CHECKS[name](got, ref, seed)
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            found = [f"unreadable: {err!r}"]
        problems += [f"{key}/{name}: {p}" for p in found]
    return problems
