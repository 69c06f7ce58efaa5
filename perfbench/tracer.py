"""Spans and counts recorded around calls into vpmix's public functions.

The tracer wraps functions from outside the package: while installed, every
name in a loaded ``vpmix`` module (and every ``MODEL_BUILDERS`` entry) that
refers to a traced function is replaced by a wrapper that records a span
``[name, trace_id, span_id, parent_id, start, end]`` and bumps the layer's
counters.  Spans assume one thread, which holds because the benchmark runs
every command with the CLI's default of one sweep thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


# (module, function, span name, extra counter).  Every span name also gets a
# "<name>.calls" counter; an extra counter is (name, value from the result).
TARGETS = (
    ("vpmix.algebra", "embed_qubit_op", "algebra.embed_qubit_op", None),
    ("vpmix.model", "build_generalized_dicke", "model.build", None),
    ("vpmix.model", "build_tavis_cummings", "model.build", None),
    ("vpmix.model", "bare_hamiltonian", "model.bare_hamiltonian", None),
    ("vpmix.model", "dicke_interaction", "model.dicke_interaction", None),
    ("vpmix.spectrum", "diagonalize", "spectrum.diagonalize",
     ("spectrum.diagonalize.flops_computed", lambda r: r.dim ** 3)),
    ("vpmix.spectrum", "find_anticrossing", "spectrum.find_anticrossing",
     ("spectrum.find_anticrossing.evaluations", lambda r: r.evaluations)),
    ("vpmix.spectrum", "sweep_levels", "spectrum.sweep_levels",
     ("spectrum.sweep_levels.points", lambda r: len(r.grid))),
    ("vpmix.dynamics", "expectation", "dynamics.expectation", None),
    ("vpmix.dynamics", "evolve", "dynamics.evolve",
     ("dynamics.evolve.snapshots", lambda r: len(r.states))),
    ("vpmix.dynamics", "build_dissipators", "dynamics.build_dissipators",
     ("dynamics.build_dissipators.count", len)),
    ("vpmix.dynamics", "build_dressed_lowering", "dynamics.build_dressed_lowering", None),
    ("vpmix.perturbation", "effective_coupling", "perturbation.effective_coupling",
     ("perturbation.effective_coupling.paths", lambda r: r.path_count)),
    ("vpmix.circuits", "run_ecc", "circuits.run_ecc", None),
    ("vpmix.cli", "run_command", "cli.run_command",
     ("cli.bytes_written", lambda manifest: sum(rec["bytes"] for rec in manifest["outputs"]))),
    ("vpmix.cli", "cmd_levels", "cli.cmd", None),
    ("vpmix.cli", "cmd_anticross", "cli.cmd", None),
    ("vpmix.cli", "cmd_dynamics", "cli.cmd", None),
    ("vpmix.cli", "cmd_perturb", "cli.cmd", None),
    ("vpmix.cli", "cmd_ecc", "cli.cmd", None),
)

COUNTERS = tuple(dict.fromkeys(
    [f"{name}.calls" for _, _, name, _ in TARGETS]
    + [extra[0] for _, _, _, extra in TARGETS if extra is not None]))

# The span the benchmark opens around each ``vpmix.cli.main`` call.
ROOT_SPAN = "cli.main"


class Tracer:
    """Records spans and counts for one traced pass at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {key: 0 for key in COUNTERS}
        self._stack: list[int] = []
        self._trace_id: str | None = None
        self._patches: list[tuple[dict, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {key: 0 for key in COUNTERS}

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, self._trace_id, len(self.spans), parent, perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(record[2])
        return record

    def _close(self, record: list) -> None:
        record[5] = perf_counter()
        self._stack.pop()

    @contextmanager
    def command(self, trace_id: str):
        """Root span of one CLI command; its descendants share ``trace_id``."""
        self._trace_id = trace_id
        record = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(record)
            self._trace_id = None

    def _wrap(self, name: str, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            self.counts[f"{name}.calls"] += 1
            if extra is not None:
                self.counts[extra[0]] += extra[1](result)
            return result
        return traced

    def install(self) -> None:
        """Replace every reference to a traced function inside ``vpmix``."""
        namespaces = [vars(m) for key, m in list(sys.modules.items())
                      if key == "vpmix" or key.startswith("vpmix.")]
        namespaces.append(importlib.import_module("vpmix.spectrum").MODEL_BUILDERS)
        for module, attr, name, extra in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, extra)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            ns, key, original = self._patches.pop()
            ns[key] = original

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()


def self_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer self time and per-command root-span duration of one pass.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of a pass sum to its root spans' durations.
    """
    child = defaultdict(float)
    for _, _, _, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    layer = defaultdict(float)
    command = {}
    for name, trace_id, span_id, parent, start, end in spans:
        layer[name] += (end - start) - child[span_id]
        if parent is None:
            command[trace_id] = end - start
    return dict(layer), command
