import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vpmix
from vpmix import (
    BranchTrackingError,
    ConfigError,
    HermiticityError,
    NumericalError,
    Operator,
    QubitParams,
    SystemConfig,
    build_generalized_dicke,
    diagonalize,
    find_anticrossing,
    set_parameter,
    superposition_states,
    sweep_levels,
)
from vpmix.algebra import HilbertLayout, bare_state
from vpmix.model import _assemble_dicke, _assemble_tc
from vpmix.cli import build_system
from vpmix.presets import SCENARIOS, get_preset
from vpmix import spectrum
from vpmix.spectrum import MODEL_BUILDERS, _eigh, _pair_branches, coupling_sign

PI6 = math.pi / 6


def test_diagonalize_offsets_and_orthonormality(fig1b_spec_literal):
    spec = diagonalize(build_generalized_dicke(fig1b_spec_literal))
    assert spec.energies[0] == 0.0
    assert np.all(np.diff(spec.energies) >= -1e-13)
    gram = spec.states.conj().T @ spec.states
    assert np.max(np.abs(gram - np.eye(spec.dim))) < 1e-10


def column_loop_labels(op):
    """Reference: the per-column labeling loop diagonalize ran before it
    worked on the whole eigenvector matrix.  Returns (gauged states, labels,
    collisions)."""
    _, states = np.linalg.eigh(op.mat)
    labels = []
    claimed = {}
    collisions = []
    states = np.array(states)
    for k in range(states.shape[1]):
        col = states[:, k]
        weights = np.abs(col) ** 2
        dominant = int(np.argmax(weights >= weights.max() - 1e-12))  # lowest of tied
        amp = col[dominant]
        phase = amp / abs(amp)
        states[:, k] = col * np.conj(phase)
        weight = float(abs(amp) ** 2)
        labels.append((dominant, weight))
        if dominant in claimed:
            if dominant not in collisions:
                collisions.append(dominant)
        else:
            claimed[dominant] = k
    return states, labels, tuple(collisions)


def assert_matches_column_loop(op):
    states, labels, collisions = column_loop_labels(op)
    spec = diagonalize(op)
    assert np.array_equal(spec.states, states)
    assert [b for b, _ in spec.labels] == [b for b, _ in labels]
    assert all(type(b) is int and type(w) is float for b, w in spec.labels)
    assert spec.label_collisions == collisions
    # The loop squared with scalar ** 2 (libm pow, not always correctly
    # rounded); diagonalize squares exactly, so a weight may differ by one ulp.
    np.testing.assert_array_max_ulp(np.array([w for _, w in spec.labels]),
                                    np.array([w for _, w in labels]), maxulp=1)
    return spec


@settings(max_examples=40, deadline=None)
@given(
    qubits=st.lists(
        st.builds(QubitParams, omega=st.floats(0.2, 1.8), lam=st.floats(0.0, 0.3),
                  theta=st.floats(0.0, 1.6)),
        min_size=1, max_size=3,
    ),
    omega_c=st.floats(0.5, 2.0),
    cutoff=st.integers(1, 6),
)
def test_labels_match_column_loop_on_models(qubits, omega_c, cutoff):
    cfg = SystemConfig(tuple(qubits), omega_c=omega_c, fock_cutoff=cutoff)
    assert_matches_column_loop(build_generalized_dicke(cfg))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), qubits=st.integers(1, 3), cutoff=st.integers(1, 4))
def test_labels_match_column_loop_on_random_hermitian(seed, qubits, cutoff):
    # dense complex eigenvectors: non-trivial phase gauge and many collisions
    lay = HilbertLayout(qubits, cutoff)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(lay.dim, lay.dim)) + 1j * rng.normal(size=(lay.dim, lay.dim))
    assert_matches_column_loop(Operator(raw + raw.conj().T, lay))


@pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
@pytest.mark.parametrize("scenario", [name for name in SCENARIOS if "system" in SCENARIOS[name]])
def test_real_eigh_matches_complex_eigh_on_presets(scenario, model):
    h = MODEL_BUILDERS[model](build_system(get_preset(scenario)))
    assert h.mat.dtype == np.float64
    real = diagonalize(h)
    ref = diagonalize(Operator(h.mat.astype(complex), h.layout))
    assert np.max(np.abs(real.energies - ref.energies)) <= 1e-12
    # fig2's two identical qubits give exact weight ties, which both solvers
    # break to the lowest bare index, so every label agrees.
    assert [b for b, _ in real.labels] == [b for b, _ in ref.labels]
    assert real.label_collisions == ref.label_collisions
    weights = np.sort(np.abs(ref.states) ** 2, axis=0)
    determined = weights[-1] - weights[-2] > 1e-9
    gaps = np.diff(ref.energies)
    isolated = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) > 1e-8
    overlap = np.sum(real.states.conj() * ref.states, axis=0)
    assert isolated.sum() > 0.9 * ref.dim
    assert np.all(np.abs(overlap[isolated]) >= 1.0 - 1e-10)
    # with a unique dominant component both gauges pick the same sign
    assert np.all(overlap.real[isolated & determined] >= 1.0 - 1e-10)


def test_unknown_model_is_a_config_error(fig1b_preset, monkeypatch):
    # the path sum checks the name before it builds anything
    monkeypatch.setattr(vpmix.perturbation, "bare_hamiltonian", None)
    message = re.escape("unknown model 'xyz'; choose from dicke, tc")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        sweep_levels(fig1b_preset, "omega_c", [1.0, 1.1], 2, model="xyz")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        find_anticrossing(fig1b_preset, "qubits[2].omega", (0.95, 1.03),
                          (("gge", 0), ("eeg", 0)), model="xyz")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        vpmix.effective_coupling(fig1b_preset, ("gge", 0), ("eeg", 0), 4, model="xyz")


@pytest.mark.parametrize("model, parameter", [
    ("dicke", "kappa"), ("dicke", "qubits[1].gamma"), ("tc", "kappa"),
    ("tc", "qubits[0].gamma"), ("tc", "qubits[2].theta"),
])
def test_unread_parameter_is_a_config_error(fig1b_preset, model, parameter):
    # a decay rate, or theta under Tavis-Cummings, leaves the spectrum unchanged
    message = f"^the {model} Hamiltonian does not depend on {parameter.rpartition('.')[2]}$"
    with pytest.raises(ConfigError, match=message):
        sweep_levels(fig1b_preset, parameter, [0.1, 0.2], 2, model=model)
    with pytest.raises(ConfigError, match=message):
        find_anticrossing(fig1b_preset, parameter, (0.1, 0.2), (("gge", 0), ("eeg", 0)),
                          model=model)


@pytest.mark.parametrize("bracket", [(0.95, 0.965), (0.97, 1.0), (0.9, 0.95)])
def test_minimum_at_a_bracket_edge_raises(fig1b_preset, bracket):
    # the fig1b gap minimum sits at 0.968, outside each bracket
    with pytest.raises(NumericalError, match="widen the bracket"):
        find_anticrossing(fig1b_preset, "qubits[2].omega", bracket,
                          (("gge", 0), ("eeg", 0)))


def test_decoupled_labels_are_exact():
    cfg = SystemConfig(
        (QubitParams(0.4, 0.0), QubitParams(0.9, 0.0)), omega_c=1.3, fock_cutoff=3
    )
    spec = diagonalize(build_generalized_dicke(cfg))
    assert not spec.label_collisions
    for _, weight in spec.labels:
        assert weight == pytest.approx(1.0, abs=1e-12)


def test_non_hermitian_rejected():
    lay = HilbertLayout(1, 1)
    bad = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), lay)
    with pytest.raises(HermiticityError):
        diagonalize(bad)


@pytest.mark.parametrize("bad, defect", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), "1.000e+00"),
    # symmetric but not Hermitian: only the conjugate exposes it
    (np.array([[0.0, 1j], [1j, 0.0]]), "2.000e+00"),
])
def test_eigh_rejects_non_hermitian(bad, defect):
    message = f"matrix is not Hermitian (max deviation {defect} > 1.0e-09)"
    with pytest.raises(HermiticityError, match=re.escape(message)):
        _eigh(bad, np.empty_like(bad))
    with pytest.raises(HermiticityError, match=re.escape(message)):
        diagonalize(Operator(bad, HilbertLayout(1, 1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_eigh_rejects_non_finite_matrices(entry):
    # NaN compares false with the tolerance, so only a check that the defect
    # is small passes it on; inf - inf makes the defect NaN.  Either way the
    # error names the entry, and no floating-point warning comes first.
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(40, 40))
    mat += mat.T
    mat[3, 17] = mat[17, 3] = entry
    one_sided = mat.copy()
    one_sided[17, 3] = 0.0
    message = "matrix has a non-finite entry"
    for bad in (mat, one_sided, mat.astype(complex), np.diag([entry, 1.0])):
        with pytest.raises(HermiticityError, match=message):
            _eigh(bad, np.empty_like(bad))
        with pytest.raises(HermiticityError, match=message):
            diagonalize(Operator(bad, HilbertLayout(1, len(bad) // 2)))


def test_eigh_reports_lapack_failure_as_numpy_does(monkeypatch):
    # A failed eigh_lo raises the floating-point invalid flag, as the stand-in
    # does, and _eigh turns it into numpy.linalg.eigh's error, given outputs
    # or not.  NaN input, which once drove LAPACK there, now stops at the
    # Hermiticity check.
    def failing(mat, out, signature):
        np.sqrt(np.full(1, -1.0))
        return out

    monkeypatch.setattr(spectrum._umath_linalg, "eigh_lo", failing)
    mat = np.diag([0.0, 1.0])
    for out in (None, (np.empty(2), np.empty((2, 2)))):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _eigh(mat, np.empty_like(mat), out)


def test_gauge_fixed_dominant_component_positive(fig1b_spec_literal):
    spec = diagonalize(build_generalized_dicke(fig1b_spec_literal))
    for k, (bare, _) in enumerate(spec.labels):
        amp = spec.states[bare, k]
        assert amp.real > 0
        assert abs(amp.imag) < 1e-12


def test_third_excited_level_is_swept_qubit(fig1b_spec_literal):
    cfg = set_parameter(fig1b_spec_literal, "qubits[2].omega", 0.7)
    spec = diagonalize(build_generalized_dicke(cfg))
    assert spec.label_string(3) == "gge:0"
    # linear dependence on the swept frequency across neighboring points
    e_mid = spec.energies[3]
    lo = diagonalize(build_generalized_dicke(
        set_parameter(cfg, "qubits[2].omega", 0.69))).energies[3]
    hi = diagonalize(build_generalized_dicke(
        set_parameter(cfg, "qubits[2].omega", 0.71))).energies[3]
    slope = (hi - lo) / 0.02
    assert slope == pytest.approx(1.0, abs=0.02)
    assert hi - e_mid == pytest.approx(e_mid - lo, abs=1e-5)


def test_set_parameter_paths(fig1b_spec_literal):
    cfg = set_parameter(fig1b_spec_literal, "omega_c", 2.0)
    assert cfg.omega_c == 2.0
    cfg = set_parameter(fig1b_spec_literal, "qubits[0].lam", 0.05)
    assert cfg.qubits[0].lam == 0.05
    assert fig1b_spec_literal.qubits[0].lam == 0.13  # original untouched
    with pytest.raises(ConfigError):
        set_parameter(fig1b_spec_literal, "qubits[5].omega", 1.0)
    with pytest.raises(ConfigError):
        set_parameter(fig1b_spec_literal, "nonsense", 1.0)


def test_sweep_empty_grid(fig1b_spec_literal):
    res = sweep_levels(fig1b_spec_literal, "qubits[2].omega", [], 5)
    assert res.grid.size == 0
    assert res.energies.shape == (0, 5)


def test_sweep_monotonicity_enforced(fig1b_spec_literal):
    with pytest.raises(ConfigError):
        sweep_levels(fig1b_spec_literal, "qubits[2].omega", [0.5, 0.4, 0.6], 3)


@settings(max_examples=40, deadline=None)
@given(
    qubits=st.lists(
        st.builds(QubitParams, omega=st.floats(0.2, 1.8), lam=st.floats(0.0, 0.3),
                  theta=st.floats(-3.2, 3.2)),
        min_size=1, max_size=4,
    ),
    omega_c=st.floats(0.5, 2.0),
    cutoff=st.integers(1, 8),
    model=st.sampled_from(sorted(MODEL_BUILDERS)),
    data=st.data(),
)
def test_sweep_rows_match_diagonalize(qubits, omega_c, cutoff, model, data):
    cfg = SystemConfig(tuple(qubits), omega_c=omega_c, fock_cutoff=cutoff)
    level_count = data.draw(st.integers(1, min(cfg.layout.dim - 1, 6)))
    # the Tavis-Cummings Hamiltonian does not read theta, so it is no sweep parameter there
    fields = ("omega", "lam", "theta") if model == "dicke" else ("omega", "lam")
    parameter = data.draw(st.sampled_from(
        ["omega_c"] + [f"qubits[{k}].{field}" for k in range(len(qubits)) for field in fields]))
    start = data.draw(st.floats(0.3, 1.5))
    grid = start + np.linspace(0.0, 0.2, data.draw(st.integers(1, 4)))
    sweep = sweep_levels(cfg, parameter, grid, level_count, model=model)
    sel = slice(1, level_count + 1)
    for p, x in enumerate(grid):
        spec = diagonalize(MODEL_BUILDERS[model](set_parameter(cfg, parameter, x)))
        assert sweep.energies[p].tobytes() == spec.energies[sel].tobytes()
        assert sweep.labels[p].tolist() == [b for b, _ in spec.labels[sel]]
        assert sweep.overlaps[p].tolist() == [w for _, w in spec.labels[sel]]


def test_sweep_allocates_no_per_point_arrays(monkeypatch):
    # d = 128.  Each thread of a sweep holds its assembly buffer, the
    # Hermiticity check's scratch and the eigenvectors that eigh writes, all
    # reused at every point; one more d x d array kept per point, or a
    # grid-sized stack, breaks one of the bounds.
    cfg = build_system(get_preset("fig4"))
    mat_bytes = cfg.layout.dim ** 2 * 8
    assert cfg.layout.dim == 128

    def peak(points: int) -> tuple[int, int]:
        grid = np.linspace(1.3, 1.5, points)
        sweep_levels(cfg, "omega_c", grid[:2], 5)  # layout terms cached first
        tracemalloc.start()
        try:
            workers = sweep_levels(cfg, "omega_c", grid, 5).workers
            return tracemalloc.get_traced_memory()[1], workers
        finally:
            tracemalloc.stop()

    (few, _), (many, workers) = peak(5), peak(40)
    assert many - few < mat_bytes
    assert many < 4.5 * workers * mat_bytes
    for forced in (1, 3):
        monkeypatch.setattr(spectrum, "_available_cores", lambda: forced)
        (few, _), (many, workers) = peak(5), peak(40)
        assert workers == forced
        assert many - few < mat_bytes
        assert many < 4.5 * forced * mat_bytes
        # three reused arrays a thread (3.2 measured); a fresh eigenvector
        # array per point, allocated while the previous one lives, makes four
        assert many < 3.5 * forced * mat_bytes

    # A temporary freed within its stage does not raise the sweep's peak, so
    # each stage is bounded on its own: assembly writes only into its buffer,
    # the checked eigensolve allocates only the outputs it is not given, and
    # with them given it allocates no d x d array at all.
    mat, scratch = np.empty((128, 128)), np.empty((128, 128))
    out = (np.empty(128), np.empty((128, 128)))
    tracemalloc.start()
    try:
        _assemble_dicke(cfg, mat)
        _assemble_tc(cfg, mat)
        assembly = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _eigh(mat, scratch)
        solve = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _eigh(mat, scratch, out)
        solve_into = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert assembly < mat_bytes / 8
    assert solve < 1.1 * mat_bytes
    assert solve_into < mat_bytes / 8


def test_search_allocates_no_per_evaluation_arrays(monkeypatch):
    # d = 128.  The search loop holds one thread's workspace, as a sweep
    # does: the assembly buffer, the Hermiticity check's scratch and the eigh
    # outputs, reused at every evaluation.  The last evaluation builds and
    # diagonalizes the model afresh for the report, so the measured span ends
    # where the search asks for the builder.
    preset = get_preset("fig4")
    cfg, block = build_system(preset), preset["anticross"]
    mat_bytes = cfg.layout.dim ** 2 * 8
    assert cfg.layout.dim == 128
    build, peaks = MODEL_BUILDERS["dicke"], []

    def end_span(config):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return build(config)

    monkeypatch.setitem(MODEL_BUILDERS, "dicke", end_span)

    def peak(tol: float) -> tuple[int, int]:
        tracemalloc.start()
        try:
            report = find_anticrossing(cfg, block["parameter"], block["bracket"],
                                       block["pair"], tol=tol)
        finally:
            tracemalloc.stop()
        return peaks.pop(), report.evaluations

    peak(1e-3)  # layout terms cached first
    (few, n_few), (many, n_many) = peak(1e-3), peak(1e-7)
    assert n_many > n_few + 10
    assert many - few < mat_bytes
    # three reused arrays; fresh eigh outputs at each evaluation, allocated
    # while the workspace's are held, make four
    assert many < 3.5 * mat_bytes


def blas_threads() -> int:
    control = spectrum._blas_control()
    return control[0]() if control else 0


needs_blas_control = pytest.mark.skipif(spectrum._blas_control() is None,
                                        reason="numpy's BLAS exports no OpenBLAS thread control")


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("points", [0, 1, 2, 7])
def test_pooled_sweep_rows_match_diagonalize(monkeypatch, workers, points):
    # more workers than cores, and than points, included: each point's row
    # must equal the serial diagonalization's bit for bit
    cfg = build_system(get_preset("fig1b"))
    monkeypatch.setattr(spectrum, "_available_cores", lambda: workers)
    grid = np.linspace(0.45, 0.55, points)
    sweep = sweep_levels(cfg, "qubits[2].omega", grid, 6)
    pinned = spectrum._blas_control() is not None
    assert sweep.blas_pinned == pinned
    assert sweep.workers == (max(1, min(workers, points)) if pinned else 1)
    assert sweep.energies.shape == (points, 6)
    for p, x in enumerate(grid):
        spec = diagonalize(build_generalized_dicke(set_parameter(cfg, "qubits[2].omega", x)))
        assert sweep.energies[p].tobytes() == spec.energies[1:7].tobytes()
        assert sweep.labels[p].tolist() == [b for b, _ in spec.labels[1:7]]
        assert sweep.overlaps[p].tolist() == [w for _, w in spec.labels[1:7]]


@needs_blas_control
@pytest.mark.parametrize("failing", [0, 5])  # on the calling thread, on a worker
def test_pooled_sweep_raises_a_point_error_and_restores_blas(monkeypatch, failing):
    cfg = build_system(get_preset("fig1b"))
    monkeypatch.setattr(spectrum, "_available_cores", lambda: 3)
    grid = np.linspace(0.45, 0.55, 7)
    target = _assemble_dicke(set_parameter(cfg, "qubits[2].omega", grid[failing]),
                             np.empty((cfg.layout.dim,) * 2))
    eigh, threads_seen = spectrum._eigh, []

    def failing_eigh(mat, scratch, out=None):
        threads_seen.append(blas_threads())
        if np.array_equal(mat, target):
            raise NumericalError(f"planted at point {failing}")
        return eigh(mat, scratch, out)

    monkeypatch.setattr(spectrum, "_eigh", failing_eigh)
    before = blas_threads()
    with pytest.raises(NumericalError, match=f"planted at point {failing}"):
        sweep_levels(cfg, "qubits[2].omega", grid, 6)
    assert blas_threads() == before
    assert set(threads_seen) == {1}
    # chunks [0, 2), [2, 4) and [4, 7): each point but the one after the
    # failing point, in its chunk, was evaluated
    assert len(threads_seen) == 6


@needs_blas_control
def test_blas_count_is_restored_after_each_solver(monkeypatch):
    preset = get_preset("fig1b")
    cfg, anti = build_system(preset), preset["anticross"]
    control_get, control_set = spectrum._blas_control()
    original, eigh, seen = control_get(), spectrum._eigh, []

    def spy(mat, scratch, out=None):
        seen.append(blas_threads())
        return eigh(mat, scratch, out)

    monkeypatch.setattr(spectrum, "_eigh", spy)
    try:
        for count in (2, 3):
            control_set(count)
            sweep_levels(cfg, "qubits[2].omega", np.linspace(0.45, 0.55, 4), 6)
            assert blas_threads() == count
            find_anticrossing(cfg, anti["parameter"], tuple(anti["bracket"]), anti["pair"])
            assert blas_threads() == count
            diagonalize(build_generalized_dicke(cfg))
            assert blas_threads() == count
    finally:
        control_set(original)
    assert seen and set(seen) == {1}


def test_sweep_without_blas_control_runs_on_one_worker(monkeypatch):
    cfg = build_system(get_preset("fig1b"))
    grid = np.linspace(0.45, 0.55, 7)
    monkeypatch.setattr(spectrum, "_available_cores", lambda: 3)
    pooled = sweep_levels(cfg, "qubits[2].omega", grid, 6)
    monkeypatch.setattr(spectrum, "_blas_control", lambda: None)
    started = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("thread started"))
    try:
        serial = sweep_levels(cfg, "qubits[2].omega", grid, 6)
    finally:
        monkeypatch.setattr(threading.Thread, "start", started)
    assert (serial.workers, serial.blas_pinned) == (1, False)
    for name in ("energies", "labels", "overlaps"):
        assert getattr(serial, name).tobytes() == getattr(pooled, name).tobytes()


@needs_blas_control
def test_blas_pin_survives_concurrent_entries():
    # more threads than cores enter and leave the shared pin at a shortened
    # switch interval: inside, BLAS runs on one thread; once all have left, the
    # count is back, which a lost update of the entry count would break
    control_get, control_set = spectrum._blas_control()
    original = control_get()
    inside, interval = [], sys.getswitchinterval()

    def enter_often():
        for _ in range(200):
            with spectrum._one_blas_thread() as pinned:
                inside.append(pinned and control_get() == 1)

    control_set(3)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_often) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(inside) == 1600 and all(inside)
        assert control_get() == 3
    finally:
        sys.setswitchinterval(interval)
        control_set(original)
# Minor faults of one warm fig4 sweep (200 points, d = 128) and one warm fig4
# search, counted in a fresh interpreter: a heap grown by earlier tests hides
# the trim this guards against.
_HEAP_PROBE = """
import resource
import numpy as np
from vpmix.cli import build_system
from vpmix.presets import get_preset
from vpmix.spectrum import find_anticrossing, sweep_levels

preset = get_preset("fig4")
cfg, sweep, anti = build_system(preset), preset["sweep"], preset["anticross"]
grid = np.linspace(sweep["start"], sweep["stop"], sweep["points"])

def faults(run):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

def levels():
    sweep_levels(cfg, sweep["parameter"], grid, sweep["levels"])

def search():
    find_anticrossing(cfg, anti["parameter"], tuple(anti["bracket"]), anti["pair"])

print(faults(levels), faults(levels), faults(search))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux minor-fault counts")
def test_warm_sweep_and_search_reuse_their_heap():
    # sweep_levels and find_anticrossing have eigh write into outputs they
    # reuse at every point.  A d x d array allocated and freed per point can
    # leave more than glibc's trim threshold free at the heap top, which is
    # returned to the OS and faulted back in: 19,800 minor faults on the sweep
    # and 2,700 on the search when the previous eigenvectors were freed before
    # the next eigh, and 9,900 and 1,500 in some heap layouts even when they
    # were kept until it returned, against at most 140 and 270 with reused
    # outputs over every layout tried.  The probe runs with the caller's
    # environment, whose size moves the heap layout: the extra variables that
    # pytest sets were enough to turn it.
    env = dict(os.environ, PYTHONPATH=str(Path(vpmix.__file__).resolve().parents[1]))
    probe = subprocess.run([sys.executable, "-c", _HEAP_PROBE], env=env, capture_output=True,
                           text=True, timeout=300, check=True)
    _, levels, search = map(int, probe.stdout.split())
    assert levels < 2000
    assert search < 1000


def track_branches(config, parameter, grid, level_count):
    """Follow eigenbranches through crossings by eigenvector continuity.

    Diagonalizes the Dicke Hamiltonian at every grid point and returns an
    integer array ``branch[p, m]``: the eigenstate index at point p that
    continues branch m.  Branches are seeded by energy order at the first
    point; matching is greedy on squared overlap between consecutive points.
    """
    vecs = [diagonalize(build_generalized_dicke(set_parameter(config, parameter, x))).states
            for x in grid]
    branch = np.zeros((len(grid), level_count), dtype=int)
    branch[0] = np.arange(1, level_count + 1)
    for p in range(1, len(grid)):
        overlap = np.abs(vecs[p - 1].conj().T @ vecs[p]) ** 2
        taken: list[int] = []
        for m in range(level_count):
            row = overlap[branch[p - 1, m]].copy()
            row[taken] = -1.0
            branch[p, m] = int(np.argmax(row))
            taken.append(branch[p, m])
    return branch


def test_branch_labels_stable_outside_anticrossing(fig1b_preset):
    grid = np.linspace(0.9, 1.02, 40)
    sweep = sweep_levels(fig1b_preset, "qubits[2].omega", grid, 5)
    branch = track_branches(fig1b_preset, "qubits[2].omega", grid, 5)
    # follow the branch that starts as the swept-qubit excitation (third level)
    labels = [int(sweep.labels[p, branch[p, 2] - 1]) for p in range(grid.size)]
    before = {lab for lab, x in zip(labels, grid) if x < 0.96}
    after = {lab for lab, x in zip(labels, grid) if x > 0.98}
    assert len(before) == 1  # constant label on each side of the window
    assert len(after) == 1
    lay = fig1b_preset.layout
    assert lay.label_string(before.pop()) == "gge:0"
    assert lay.label_string(after.pop()) == "eeg:0"


class TestAnticrossing:
    def test_literal_example_bracket(self, fig1b_spec_literal):
        rep = find_anticrossing(
            fig1b_spec_literal, "qubits[2].omega", (0.95, 1.05),
            (("gge", 0), ("eeg", 0)),
        )
        assert 0.95 < rep.location < 1.05
        assert rep.splitting > 0
        assert min(rep.superposition_overlaps) >= 0.49
        # branches symmetric about their mean
        lo, hi = rep.branch_energies
        mean = 0.5 * (lo + hi)
        assert (hi - mean) - (mean - lo) < 1e-8

    def test_minimum_matches_preset_reading(self, fig1b_preset):
        rep = find_anticrossing(
            fig1b_preset, "qubits[2].omega", (0.90, 1.02), (("gge", 0), ("eeg", 0)),
        )
        assert rep.location == pytest.approx(0.9681, abs=2e-3)
        assert min(rep.superposition_overlaps) >= 0.49

    def test_splitting_equals_branch_gap(self, fig1b_preset):
        rep = find_anticrossing(
            fig1b_preset, "qubits[2].omega", (0.90, 1.02), (("gge", 0), ("eeg", 0)),
        )
        lo, hi = rep.branch_energies
        assert rep.splitting == pytest.approx(hi - lo, abs=1e-15)

    def test_bad_bracket_rejected(self, fig1b_preset):
        with pytest.raises(ConfigError):
            find_anticrossing(fig1b_preset, "qubits[2].omega", (1.0, 0.9),
                              (("gge", 0), ("eeg", 0)))

    @pytest.mark.parametrize("bracket, pair", [
        ((0.9,), (("gge", 0), ("eeg", 0))),
        ((0.9, 1.02, 1.1), (("gge", 0), ("eeg", 0))),
        (0.9, (("gge", 0), ("eeg", 0))),
        ((0.9, 1.02), (("gge", 0),)),
        ((0.9, 1.02), (("gge", 0), ("eeg", 0), ("egg", 0))),
        ((0.9, 1.02), 5),
    ])
    def test_bracket_and_pair_need_exactly_two_items(self, fig1b_preset, bracket, pair):
        with pytest.raises(ConfigError, match="must have exactly two items"):
            find_anticrossing(fig1b_preset, "qubits[2].omega", bracket, pair)

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1e-300, math.nan])
    def test_unresolvable_tol_rejected(self, fig1b_preset, tol):
        # each of these would keep the golden-section loop running forever
        with pytest.raises(ConfigError, match="tol"):
            find_anticrossing(fig1b_preset, "qubits[2].omega", (0.90, 1.02),
                              (("gge", 0), ("eeg", 0)), tol=tol)

    def test_tol_at_float_spacing_terminates(self, fig1b_preset):
        coarse = find_anticrossing(fig1b_preset, "qubits[2].omega", (0.90, 1.02),
                                   (("gge", 0), ("eeg", 0)))
        fine = find_anticrossing(fig1b_preset, "qubits[2].omega", (0.90, 1.02),
                                 (("gge", 0), ("eeg", 0)), tol=float(np.spacing(1.02)))
        assert coarse.evaluations < fine.evaluations < 100
        assert fine.location == pytest.approx(coarse.location, abs=1e-6)

    def test_untrackable_pair_raises(self):
        # deep-coupling regime scrambles the high bare states beyond tracking
        scrambled = SystemConfig(
            (QubitParams(0.5, 0.9), QubitParams(0.7, 0.9)), omega_c=1.0, fock_cutoff=6
        )
        with pytest.raises(BranchTrackingError):
            find_anticrossing(scrambled, "qubits[0].omega", (0.45, 0.55),
                              (("ge", 4), ("eg", 4)))

    def test_untrackable_pair_raises_in_tc_model(self):
        scrambled = SystemConfig(
            (QubitParams(0.5, 0.9), QubitParams(0.7, 0.9)), omega_c=1.0, fock_cutoff=6
        )
        with pytest.raises(BranchTrackingError, match="cannot isolate two branches"):
            find_anticrossing(scrambled, "qubits[0].omega", (0.45, 0.55),
                              (("ge", 4), ("eg", 4)), model="tc")

    @pytest.mark.parametrize("dim, message", [
        # pair weight 2/3 on each of three eigenvectors: a third branch
        (3, "top weights 0.667, 0.667, third 0.667"),
        # pair weight 1/4 on each of eight: no branch holds enough of it
        (8, "top weights 0.250, 0.250, third 0.250"),
    ])
    def test_pair_branches_guard(self, dim, message):
        spread = np.exp(2j * np.pi * np.outer(np.arange(dim), np.arange(dim)) / dim)
        with pytest.raises(BranchTrackingError, match=re.escape(message)):
            _pair_branches(spread / math.sqrt(dim), 0, 1)

    def test_report_matches_diagonalize_at_minimum(self, fig1b_preset):
        # the report carries the spectrum of its last evaluation: bit for bit
        # an independent diagonalize of the builder at the location, and the
        # source of the branches, energies and overlaps
        fig4 = get_preset("fig4")
        cases = [(fig1b_preset, {"parameter": "qubits[2].omega", "bracket": (0.90, 1.02),
                                 "pair": (("gge", 0), ("eeg", 0))}),
                 (build_system(fig4), fig4["anticross"])]
        for cfg, block in cases:
            rep = find_anticrossing(cfg, block["parameter"], tuple(block["bracket"]),
                                    block["pair"])
            spec = diagonalize(build_generalized_dicke(
                set_parameter(cfg, block["parameter"], rep.location)))
            assert rep.spectrum.energies.tobytes() == spec.energies.tobytes()
            assert rep.spectrum.states.tobytes() == spec.states.tobytes()
            assert rep.spectrum.labels == spec.labels
            assert rep.spectrum.label_collisions == spec.label_collisions
            assert rep.spectrum.layout == spec.layout
            u, v = rep.bare_pair
            ia, ib = rep.branch_indices
            assert _pair_branches(spec.states, u, v) == (ia, ib)
            assert rep.branch_energies == (float(spec.energies[ia]), float(spec.energies[ib]))
            assert rep.splitting == float(spec.energies[ib] - spec.energies[ia])
            lay = cfg.layout
            bare_u = bare_state(lay, *lay.bare_labels(u)).amp
            bare_v = bare_state(lay, *lay.bare_labels(v)).amp
            plus = (bare_u + bare_v) / math.sqrt(2.0)
            minus = (bare_u - bare_v) / math.sqrt(2.0)
            o_ap, o_am, o_bp, o_bm = (abs(np.vdot(vec, spec.states[:, k])) ** 2
                                      for k in (ia, ib) for vec in (plus, minus))
            expected = (o_ap, o_bm) if o_ap + o_bm >= o_am + o_bp else (o_am, o_bp)
            assert rep.superposition_overlaps == tuple(float(o) for o in expected)

    def test_superposition_states_orthonormal(self, fig1b_preset):
        rep = find_anticrossing(
            fig1b_preset, "qubits[2].omega", (0.90, 1.02), (("gge", 0), ("eeg", 0)),
        )
        lay = fig1b_preset.layout
        u, v = superposition_states(rep)
        assert u.norm == pytest.approx(1.0, abs=1e-12)
        assert v.norm == pytest.approx(1.0, abs=1e-12)
        assert abs(u.overlap(v)) < 1e-12
        assert u.amp[lay.bare_index("gge", 0)].real > 0.9
        assert v.amp[lay.bare_index("eeg", 0)].real > 0.9

    def test_coupling_sign_defined(self, fig1b_preset):
        rep = find_anticrossing(
            fig1b_preset, "qubits[2].omega", (0.90, 1.02), (("gge", 0), ("eeg", 0)),
        )
        assert coupling_sign(rep) in (-1, 1)
