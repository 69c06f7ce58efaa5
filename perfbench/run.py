#!/usr/bin/env python3
"""vpmix benchmark: the bundled scenario commands, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload levels --seed 1 --seconds 25 --trace 0

One run is one workload in this process.  It measures set-up (fresh
interpreters importing ``vpmix.cli`` and resolving the configs), then
repeats passes over the workload's commands for ``--seconds``.  A pass calls
``vpmix.cli.main`` in-process once per command, in an order shuffled from
``--seed``, and ``ecc`` also receives ``--seed``.  After every pass each
command's data files are checked by :mod:`oracle`.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Their
times are scaled to a reference host speed: a child process that never
imports ``vpmix`` (:mod:`calibrate`) times a fixed kernel after every
command and every set-up sample.  Each pass's time is multiplied by
``CALIBRATION_S`` over the mean kernel time of that pass, and the median
set-up time by ``CALIBRATION_S`` over the median kernel time of the set-up
phase.  On a shared host whose speed drifts by tens of percent over minutes
this keeps runs of the same code comparable; the wall times and kernel times
are kept in the record's ``detail``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the spans :mod:`tracer` records; the counts of every
traced pass must equal the first's, or the pass counts as failed.

The last stdout line is the result object; the full record, with
provenance, is appended to ``--results`` (one JSON object a line), which
``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracle
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "levels": (("fig1b", "levels"), ("fig4", "levels"), ("fig5a", "levels"),
               ("figS2a", "levels")),
    "search": (("fig1b", "anticross"), ("fig4", "anticross"), ("fig5a", "anticross"),
               ("figS2a", "anticross"), ("fig2", "perturb"), ("ecc", "ecc")),
    "dynamics": (("fig3", "dynamics"), ("fig5b", "dynamics"), ("figS2b", "dynamics")),
}
SETUP_SAMPLES = 9
# Seconds the calibration kernel takes on the reference host (the 2-vCPU
# machine the baseline was measured on, at its median speed).
CALIBRATION_S = 0.17
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from vpmix.cli import load_config, resolve_config
for path in sys.argv[2:]:
    resolve_config(load_config(path))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------- provenance

def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
    }


# ------------------------------------------------------------------ running

class HostProbe:
    """The :mod:`calibrate` child process; ``sample()`` times its kernel once."""

    def __init__(self):
        # One BLAS thread: a threaded kernel would compete with the BLAS
        # threads this process leaves spinning after a command, and so time
        # the program under test instead of the host.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("calibrate.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.samples: list[float] = []

    def sample(self) -> None:
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process ended with {self.process.wait()}")
        self.samples.append(float(line))

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Workload:
    """The commands of one workload and the files they read and write."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.commands = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.rng = random.Random(seed)
        self.configs = {}
        for scenario, _ in self.commands:
            path = work / f"{scenario}.json"
            path.write_text(json.dumps({"scenario": scenario}) + "\n")
            self.configs[scenario] = str(path)
        self.failures: list[str] = []

    def measure_setup(self, probe: HostProbe) -> list[float]:
        argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *self.configs.values()]
        times = []
        for sample in range(SETUP_SAMPLES + 1):
            started = perf_counter()
            subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
            if sample:  # the first start warms the file and bytecode caches
                times.append(perf_counter() - started)
            probe.sample()
        return times

    def run_pass(self, tracer=None, probe: HostProbe | None = None) -> tuple[float, int]:
        """Run every command once; returns (seconds, failed commands).

        The seconds are the commands' summed wall time, which leaves out the
        ``probe`` samples taken after each command.
        """
        from vpmix.cli import main

        order = list(self.commands)
        self.rng.shuffle(order)
        outcomes = []
        elapsed = 0.0
        for scenario, command in order:
            key = f"{scenario}-{command}"
            argv = [command, "--config", self.configs[scenario], "--out", str(self.work / key)]
            if command == "ecc":
                argv += ["--seed", str(self.seed)]
            stderr = io.StringIO()
            command_started = perf_counter()
            try:
                with contextlib.redirect_stderr(stderr):
                    if tracer is None:
                        code = main(argv)
                    else:
                        with tracer.command(key):
                            code = main(argv)
            except Exception:  # a crash fails this command; the run carries on
                code = traceback.format_exc()
            elapsed += perf_counter() - command_started
            if probe:
                probe.sample()
            outcomes.append((key, code, stderr.getvalue()))

        failed = 0
        for key, code, stderr in outcomes:
            problems = ([f"{key}: exit {code}: {stderr.strip()[-500:]}"] if code != 0
                        else oracle.check(key, self.work / key, self.seed))
            shutil.rmtree(self.work / key, ignore_errors=True)
            if problems:
                failed += 1
                self.failures += problems[:5]
        return elapsed, failed


def end_to_end(workload: Workload, seconds: float) -> tuple[dict, dict, int, int]:
    probe = HostProbe()
    try:
        setup = workload.measure_setup(probe)
        setup_kernel, probe.samples = probe.samples, []
        times, scaled, loops, attempted, failed = [], [], [], 0, 0
        started = perf_counter()
        while len(times) < MIN_PASSES or perf_counter() - started + max(loops) <= seconds:
            loop_started = perf_counter()
            first_sample = len(probe.samples)
            elapsed, bad = workload.run_pass(probe=probe)
            loops.append(perf_counter() - loop_started)
            times.append(elapsed)
            scaled.append(elapsed * CALIBRATION_S
                          / statistics.fmean(probe.samples[first_sample:]))
            attempted += len(workload.commands)
            failed += bad
    finally:
        probe.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_speed = CALIBRATION_S / statistics.median(setup_kernel)
    q1, median, q3 = quartiles(scaled)
    metrics = {"pass_s": median, "peak_rss_mb": rss_mb,
               "setup_s": setup_speed * statistics.median(setup)}
    detail = {
        "pass_s": {"median": median, "q1": q1, "q3": q3, "n": len(times)},
        "wall_s": {"pass": times, "setup": setup},
        "calibration_s": {"reference": CALIBRATION_S, "pass": probe.samples,
                          "setup": setup_kernel},
        "failed_frac": failed / attempted,
    }
    return metrics, detail, attempted, failed


def per_layer(workload: Workload, seconds: float) -> tuple[dict, dict, int, int]:
    tracer = tracing.Tracer()
    untraced, traced, passes = [], [], []
    attempted, failed = 0, 0
    started = perf_counter()
    while (len(traced) < MIN_TRACED_PASSES or len(untraced) < MIN_TRACED_PASSES
           or perf_counter() - started + max(traced + untraced) <= seconds):
        if len(untraced) <= len(traced):
            elapsed, bad = workload.run_pass()
            untraced.append(elapsed)
        else:
            tracer.reset()
            with tracer.installed():
                elapsed, bad = workload.run_pass(tracer)
            traced.append(elapsed)
            layer, command = tracing.self_times(tracer.spans)
            passes.append({"spans": tracer.spans, "counts": dict(tracer.counts),
                           "self_s": layer, "command_s": command, "pass_s": elapsed})
            if passes[-1]["counts"] != passes[0]["counts"]:
                bad = len(workload.commands)
                workload.failures.append(
                    f"traced pass {len(passes)}: counts {passes[-1]['counts']} "
                    f"differ from the first traced pass {passes[0]['counts']}")
        attempted += len(workload.commands)
        failed += bad

    med = statistics.median
    counts = passes[0]["counts"]
    metrics: dict[str, float] = dict(counts)
    for name in [tracing.ROOT_SPAN] + [name for _, _, name, _ in tracing.TARGETS]:
        metrics[f"{name}.self_s"] = med([p["self_s"].get(name, 0.0) for p in passes])
    searches = counts["spectrum.find_anticrossing.calls"]
    metrics["spectrum.find_anticrossing.evals_per_search"] = (
        counts["spectrum.find_anticrossing.evaluations"] / searches if searches else 0.0)
    for commands in WORKLOADS.values():
        for scenario, command in commands:
            key = f"{scenario}-{command}"
            metrics[f"cli.cmd_s.{key}"] = med([p["command_s"].get(key, 0.0) for p in passes])
    unaccounted = [p["pass_s"] - sum(p["self_s"].values()) for p in passes]
    metrics["trace.pass_s"] = med(traced)
    metrics["trace.untraced_pass_s"] = med(untraced)
    metrics["trace.overhead_s"] = med(traced) - med(untraced)
    metrics["trace.unaccounted_s"] = med(unaccounted)

    spans_file = OUT / f"spans-{workload.name}.jsonl"
    with spans_file.open("w") as handle:
        for n, p in enumerate(passes):
            for name, trace_id, span_id, parent, start, end in p["spans"]:
                handle.write(json.dumps({"pass": n, "name": name, "trace_id": trace_id,
                                         "span_id": span_id, "parent_id": parent,
                                         "start": start, "end": end}) + "\n")
    detail = {"traced_passes": traced, "untraced_passes": untraced,
              "counts": counts, "spans_file": str(spans_file.relative_to(ROOT)),
              "failed_frac": failed / attempted}
    return metrics, detail, attempted, failed


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(OUT / "results.jsonl"),
                        help="file the full result record is appended to")
    args = parser.parse_args()

    if not (SRC / "vpmix" / "__init__.py").is_file():
        fail(f"no vpmix sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import vpmix

    if Path(vpmix.__file__).resolve().parent != SRC / "vpmix":
        fail(f"imported vpmix from {vpmix.__file__}, not from {SRC}")
    declared = declared_metrics(args.trace)

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = Workload(args.workload, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        values, detail, attempted, failed = measure(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = sorted({m["name"] for m in declared} ^ set(values))
    if mismatch:
        fail(f"metrics computed and metrics in BENCHMARK.json differ: {mismatch}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result, "detail": detail,
              "failures": workload.failures[:20], "provenance": provenance(args.seed)}
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with results.open("a") as handle:
        handle.write(json.dumps(record) + "\n")

    for problem in workload.failures[:20]:
        print(f"FAILED {problem}")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
