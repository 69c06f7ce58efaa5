import ctypes
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
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
from vpmix.model import _Pencil, _assemble, _buffer
from vpmix.cli import build_system
from vpmix.presets import SCENARIOS, get_preset
from vpmix import spectrum
from vpmix.spectrum import MODEL_BUILDERS, _Solver, _pair_branches, coupling_sign

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


def test_states_keep_the_dtype_of_the_eigenvectors(fig1b_preset):
    # both models are real, so the dynamics' dressed products run in real
    # arithmetic; a complex Hamiltonian keeps complex eigenvectors
    h = build_generalized_dicke(fig1b_preset)
    assert diagonalize(h).states.dtype == np.float64
    assert diagonalize(Operator(h.mat.astype(complex), h.layout)).states.dtype == np.complex128
    real = diagonalize(h)
    assert replace(real, states=real.states.astype(np.float32)).states.dtype == np.float64
    assert replace(real, states=real.states.astype(int)).states.dtype == np.float64
    # nested lists are read as their values, as Operator reads them
    listed = replace(real, states=real.states.tolist()).states
    assert listed.dtype == np.float64 and np.array_equal(listed, real.states)
    listed = replace(real, states=real.states.astype(complex).tolist()).states
    assert listed.dtype == np.complex128 and np.array_equal(listed, real.states)


def test_unknown_model_is_a_config_error(fig1b_preset, monkeypatch):
    # the path sum checks the name before it builds anything
    monkeypatch.setattr(vpmix.perturbation, "_bare_diagonal", None)
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
        _Solver(bad)()
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
            _Solver(bad)()
        with pytest.raises(HermiticityError, match=message):
            diagonalize(Operator(bad, HilbertLayout(1, len(bad) // 2)))


def test_eigh_reports_lapack_failure_as_numpy_does(monkeypatch):
    # A failed eigh_lo raises the floating-point invalid flag, as the stand-in
    # does, and the solver turns it into numpy.linalg.eigh's error, into its
    # fresh outputs or into reused ones.  NaN input, which once drove LAPACK
    # there, now stops at the Hermiticity check.
    def failing(mat, out, signature):
        np.sqrt(np.full(1, -1.0))
        return out

    monkeypatch.setattr(spectrum._umath_linalg, "eigh_lo", failing)
    solver = _Solver(np.diag([0.0, 1.0]))
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            solver()


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


@pytest.mark.parametrize("path", ["qubits[2].omega\n", "qubits[\u0662].omega",
                                  " qubits[2].omega", "omega_c\n", 2, None, b"omega_c"])
def test_parameter_paths_match_in_full(fig1b_spec_literal, path):
    # a regex's $ also matches before a final newline, and \d matches any
    # Unicode digit; a path resolves only as the exact ASCII string
    message = re.escape(f"cannot resolve parameter path {path!r}")
    with pytest.raises(ConfigError, match=message):
        set_parameter(fig1b_spec_literal, path, 1.0)
    with pytest.raises(ConfigError, match=message):
        sweep_levels(fig1b_spec_literal, path, [0.9, 1.0], 2)


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
    for p, x in enumerate(grid):
        spec = diagonalize(MODEL_BUILDERS[model](set_parameter(cfg, parameter, x)))
        assert_row_matches_diagonalize(sweep, p, spec)


def assert_row_matches_diagonalize(sweep, p, spec):
    """Row p of ``sweep`` against ``diagonalize`` at its grid point.

    A sweep solves for its lowest eigenpairs with dsyevr, where diagonalize
    solves for all of them with eigh, so the two agree to rounding, not bit
    for bit.  Energies agree within 1e-13.  A level more than 1e-6 from both
    neighbours, reported or not, has one eigenvector up to sign: its weight
    agrees within 1e-9, and its label is one of the bare indices tied within
    1e-8 for diagonalize's largest weight.  Within a degenerate or nearly
    degenerate group each solver picks its own basis, and there neither the
    weight nor the label is fixed.
    """
    levels = sweep.energies.shape[1]
    reference = spec.energies[1:levels + 1]
    assert np.max(np.abs(sweep.energies[p] - reference), initial=0.0) <= 1e-13
    gaps = np.diff(spec.energies)
    for m in range(levels):
        k = m + 1
        below, above = gaps[k - 1], gaps[k] if k < len(gaps) else np.inf
        if min(below, above) <= 1e-6:
            continue
        assert abs(sweep.overlaps[p, m] - spec.labels[k][1]) <= 1e-9
        weights = np.abs(spec.states[:, k]) ** 2
        assert weights[sweep.labels[p, m]] >= weights.max() - 1e-8


def test_sweep_allocates_no_per_point_arrays(monkeypatch):
    # d = 128.  Each thread of a sweep holds its assembly buffer, the
    # Hermiticity check's scratch, which then takes the eigenvectors, and the
    # solver's energies and, where dsyevr is found, its work arrays (0.38 of a
    # d x d array).  All are reused at every point; one more d x d array kept
    # per point, or a grid-sized stack, breaks one of the bounds.
    cfg = build_system(get_preset("fig4"))
    mat_bytes = cfg.layout.dim ** 2 * 8
    assert cfg.layout.dim == 128
    subset = spectrum._dsyevr() is not None

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
        # two reused arrays a thread: 2.2 measured with eigh, 2.5 with
        # dsyevr's small arrays.  A d x d eigenvector array kept beside the
        # scratch makes 3.2 or 3.5, and a fresh one per point, allocated
        # while the previous one lives, more.
        assert many < 3.0 * forced * mat_bytes

    # A temporary freed within its stage does not raise the sweep's peak, so
    # each stage is bounded on its own: assembly writes only into its buffer,
    # a solver allocates only its small outputs beside its scratch, and an
    # eigh solve, which writes its eigenvectors into the scratch, allocates
    # no d x d array at all.  A sweep's solver, with its assembly buffer,
    # holds two d x d arrays and dsyevr's small ones, and its query runs on
    # the assembly buffer; the subset solve allocates nothing more.  The
    # sweep's pencil assembles its base into that buffer and keeps the
    # entries x does not move, 1,036 of 16 bytes each (0.13 of a d x d
    # array; a dense copy of the base would be a whole one), and allocates
    # little beside them; writing a point allocates only the new diagonal.
    mat = np.empty((128, 128))
    tracemalloc.start()
    try:
        _assemble("dicke", cfg, mat)
        _assemble("tc", cfg, mat)
        assembly = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        solver = _Solver(mat)
        solve = tracemalloc.get_traced_memory()[1] - mat_bytes  # beside the scratch
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        solver()
        solve_into = tracemalloc.get_traced_memory()[1] - before
        del solver
        tracemalloc.reset_peak()
        solver = _Solver(_buffer(cfg))
        held, setup = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _assemble("dicke", cfg, solver.mat)
        solver(0, 6)
        subset_solve = tracemalloc.get_traced_memory()[1] - held
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pencil = _Pencil(cfg, (0, "omega"), "dicke", solver.mat, solver.check)
        kept, construction = (memory - before for memory in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        pencil.write(0.3, solver.mat)
        write = tracemalloc.get_traced_memory()[1] - before - kept
    finally:
        tracemalloc.stop()
    assert assembly < mat_bytes / 8
    assert solve < 1.1 * mat_bytes
    assert solve_into < mat_bytes / 8
    assert held < (2.5 if subset else 3.1) * mat_bytes
    assert setup - held < mat_bytes / 8
    assert subset_solve < mat_bytes / 8
    assert construction - kept < mat_bytes / 8
    assert kept < mat_bytes / 4
    assert write < mat_bytes / 8


def test_search_allocates_no_per_evaluation_arrays(monkeypatch):
    # d = 128.  The search holds one solver, as each thread of a sweep does:
    # the assembly buffer, the Hermiticity check's scratch, which takes the
    # eigenvectors, and the solver's small outputs, reused at every
    # evaluation.  The first evaluation has eigh write every eigenpair, the
    # later ones dsyevr the pair's two (indices 7..8), both into the same
    # scratch.  The closing solve, in full into the same scratch, is then
    # copied out for the report, so the measured span ends where the search
    # labels that spectrum.
    preset = get_preset("fig4")
    cfg, block = build_system(preset), preset["anticross"]
    mat_bytes = cfg.layout.dim ** 2 * 8
    assert cfg.layout.dim == 128
    label, peaks = spectrum._spectrum, []

    def end_span(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return label(*args)

    monkeypatch.setattr(spectrum, "_spectrum", end_span)

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
    # two arrays and dsyevr's small ones (2.45 measured; 2.09 without
    # dsyevr).  A d x d eigenvector output beside the scratch makes three
    # (3.08 measured with one), and fresh eigh outputs at each evaluation more
    assert many < 2.75 * mat_bytes


def test_a_whole_search_holds_under_five_arrays():
    # d = 128, from the first evaluation to the report: the solver's two
    # arrays, then the closing solve's labelling (its weights) and the
    # report's gauged eigenvectors with their copy (4.65 measured).  A
    # closing diagonalize of a model built afresh, with its own buffer,
    # Operator copy and solver, makes 6.55.
    preset = get_preset("fig4")
    cfg, block = build_system(preset), preset["anticross"]
    mat_bytes = cfg.layout.dim ** 2 * 8
    assert cfg.layout.dim == 128

    def peak() -> int:
        tracemalloc.start()
        try:
            find_anticrossing(cfg, block["parameter"], block["bracket"], block["pair"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # layout terms cached first
    assert peak() < 5.0 * mat_bytes


def blas_threads() -> int:
    control = spectrum._blas_control()
    return control[0]() if control else 0


needs_blas_control = pytest.mark.skipif(spectrum._blas_control() is None,
                                        reason="numpy's BLAS exports no OpenBLAS thread control")


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("points", [0, 1, 2, 7])
def test_pooled_sweep_rows_match_diagonalize(monkeypatch, workers, points):
    # more workers than cores, and than points, included: each point's row
    # matches the diagonalization's, and equals a one-thread sweep's bit for bit
    cfg = build_system(get_preset("fig1b"))
    grid = np.linspace(0.45, 0.55, points)
    monkeypatch.setattr(spectrum, "_available_cores", lambda: 1)
    serial = sweep_levels(cfg, "qubits[2].omega", grid, 6)
    monkeypatch.setattr(spectrum, "_available_cores", lambda: workers)
    sweep = sweep_levels(cfg, "qubits[2].omega", grid, 6)
    pinned = spectrum._blas_control() is not None
    assert sweep.blas_pinned == pinned
    assert sweep.workers == (max(1, min(workers, points)) if pinned else 1)
    assert sweep.energies.shape == (points, 6)
    assert sweep.eigensolver == ("eigh" if spectrum._dsyevr() is None else "dsyevr")
    for name in ("energies", "labels", "overlaps"):
        assert getattr(sweep, name).tobytes() == getattr(serial, name).tobytes()
    for p, x in enumerate(grid):
        spec = diagonalize(build_generalized_dicke(set_parameter(cfg, "qubits[2].omega", x)))
        assert_row_matches_diagonalize(sweep, p, spec)
        # fig1b's levels here are far apart: every label is diagonalize's
        assert sweep.labels[p].tolist() == [b for b, _ in spec.labels[1:7]]


@pytest.mark.parametrize("scenario", ["fig1b", "fig4", "fig5a", "figS2a"])
def test_bundled_sweeps_keep_the_labels_of_diagonalize(scenario):
    # the main grid and the inset, where there is one
    preset = get_preset(scenario)
    cfg, block = build_system(preset), preset["sweep"]
    model = block.get("model", "dicke")
    for span in filter(None, (block, block.get("inset"))):
        grid = np.linspace(span["start"], span["stop"], span["points"])
        sweep = sweep_levels(cfg, block["parameter"], grid, block["levels"], model=model)
        for p, x in enumerate(grid):
            spec = diagonalize(MODEL_BUILDERS[model](set_parameter(cfg, block["parameter"], x)))
            assert_row_matches_diagonalize(sweep, p, spec)
            assert sweep.labels[p].tolist() == [b for b, _ in spec.labels[1:block["levels"] + 1]]


def test_sweep_without_dsyevr_solves_with_eigh(monkeypatch):
    # where numpy's LAPACK exports no dsyevr, each point is solved in full by
    # eigh, whose rows equal diagonalize's bit for bit
    cfg = build_system(get_preset("fig1b"))
    grid = np.linspace(0.45, 0.55, 7)
    monkeypatch.setattr(spectrum, "_available_cores", lambda: 3)
    monkeypatch.setattr(spectrum, "_dsyevr", lambda: None)
    sweep = sweep_levels(cfg, "qubits[2].omega", grid, 6)
    assert sweep.eigensolver == "eigh"
    for p, x in enumerate(grid):
        spec = diagonalize(build_generalized_dicke(set_parameter(cfg, "qubits[2].omega", x)))
        assert_row_matches_diagonalize(sweep, p, spec)
        assert sweep.energies[p].tobytes() == spec.energies[1:7].tobytes()
        assert sweep.labels[p].tolist() == [b for b, _ in spec.labels[1:7]]
        assert sweep.overlaps[p].tolist() == [w for _, w in spec.labels[1:7]]


needs_dsyevr = pytest.mark.skipif(spectrum._dsyevr() is None,
                                  reason="numpy's LAPACK exports no dsyevr")


@needs_dsyevr
@pytest.mark.parametrize("fault", ["info", "count"])
def test_dsyevr_failure_is_reported_as_numpy_does(monkeypatch, fault):
    # A stand-in with dsyevr's C signature runs the real solve and then
    # reports a failure (info != 0) or fewer eigenvalues than asked for; the
    # sweep raises numpy.linalg.eigh's error either way.  The workspace
    # query, where lwork is -1, passes through.
    dsyevr = spectrum._dsyevr()
    c_signature = ctypes.CFUNCTYPE(None, *dsyevr.argtypes)

    @c_signature
    def failing(*args):
        dsyevr(*args)
        lwork, m, info = args[17], args[11], args[20]
        if lwork[0] != -1:
            if fault == "info":
                info[0] = 3
            else:
                m[0] -= 1

    monkeypatch.setattr(spectrum, "_dsyevr", lambda: failing)
    cfg = build_system(get_preset("fig1b"))
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        sweep_levels(cfg, "qubits[2].omega", np.linspace(0.45, 0.55, 3), 6)


def search_cases() -> list:
    """(config, search block) of the bundled anticross presets and of each of
    fig2's coupling-sweep searches, its λ set as the perturb command sets it."""
    cases = [pytest.param(build_system(get_preset(name)), get_preset(name)["anticross"], id=name)
             for name in ("fig1b", "fig4", "fig5a", "figS2a")]
    fig2 = get_preset("fig2")
    system, block = build_system(fig2), fig2["perturb"]
    for lam in block["lambdas"]:
        cfg = replace(system, omega_c=system.qubits[-1].omega + block["cavity_offset_factor"] * lam,
                      qubits=tuple(replace(q, lam=lam) for q in system.qubits))
        cases.append(pytest.param(cfg, block, id=f"fig2-lam{lam}"))
    return cases


def search(cfg, block, **options):
    return find_anticrossing(cfg, block["parameter"], tuple(block["bracket"]), block["pair"],
                             **options)


@pytest.mark.parametrize("cfg, block", search_cases())
def test_search_without_dsyevr_reports_the_same_bits(monkeypatch, cfg, block):
    # the subset evaluations prove each branch pick, so the golden-section
    # steps, and with them the location and the final spectrum, are those of
    # a search that has eigh solve every eigenpair.  With dsyevr, each LAPACK
    # evaluation after the first solves for the two branches and one
    # neighbour on each side, and no pick needs more; either way most
    # evaluations are certified Rayleigh-Ritz ones
    found = spectrum._dsyevr() is not None
    subset = search(cfg, block)
    monkeypatch.setattr(spectrum, "_dsyevr", lambda: None)
    full = search(cfg, block)
    assert subset == full
    assert subset.location.hex() == full.location.hex()
    assert subset.splitting.hex() == full.splitting.hex()
    assert subset.evaluations == full.evaluations
    assert (full.eigensolver, full.solved_pairs) == ("eigh", (0, cfg.layout.dim - 1))
    assert abs(full.unseen_weight_max) < 1e-12
    assert subset.ritz_evaluations == full.ritz_evaluations >= subset.evaluations - 6
    if found:
        a, b = subset.branch_indices
        assert subset.eigensolver == "dsyevr"
        assert subset.solved_pairs == (a - 1, b + 1)
        assert b - a == 1
        assert 0.005 < subset.unseen_weight_max < 0.15


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 0.8), dim=st.integers(3, 10))
def test_a_pick_proven_from_the_lowest_columns_is_the_full_pick(seed, noise, dim):
    # an orthogonal basis in which bare states 0 and 1 are spread over two
    # columns, blurred by noise and shuffled: from its first K columns the
    # pick either raises or is the pick from all of them, which then passes
    rng = np.random.default_rng(seed)
    base = np.eye(dim)
    base[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    states, _ = np.linalg.qr(base[:, rng.permutation(dim)] + noise * rng.normal(size=(dim, dim)))
    for count in range(2, dim + 1):
        try:
            pick = _pair_branches(states[:, :count], 0, 1)[:2]
        except BranchTrackingError:
            continue
        assert pick == _pair_branches(states, 0, 1)[:2]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 0.8), dim=st.integers(3, 10))
def test_a_pick_proven_from_any_column_range_is_the_full_pick(seed, noise, dim):
    # as above, from every contiguous range of at least two columns: the pick
    # either raises or names, as eigen indices, the pick from all of them,
    # which then passes
    rng = np.random.default_rng(seed)
    base = np.eye(dim)
    base[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    states, _ = np.linalg.qr(base[:, rng.permutation(dim)] + noise * rng.normal(size=(dim, dim)))
    for first in range(dim - 1):
        for last in range(first + 1, dim):
            try:
                pick = _pair_branches(states[:, first:last + 1], 0, 1, first)[:2]
            except BranchTrackingError:
                continue
            assert pick == _pair_branches(states, 0, 1)[:2]
            assert first <= pick[0] < pick[1] <= last


def test_pair_branches_names_the_unsolved_weight():
    # bare state 0 is eigenvector 0; bare state 1 is spread evenly over
    # eigenvectors 1 and 2.  Given the first two, the unsolved third may hold
    # 2 - 1.5 of the pair weight, more than any third branch may
    r = 1.0 / math.sqrt(2.0)
    states = np.array([[1.0, 0.0, 0.0], [0.0, r, r], [0.0, r, -r]])
    with pytest.raises(BranchTrackingError, match=re.escape(
            "top weights 1.000, 0.500, third 0.500 (eigenstates outside 0..1, unsolved)")):
        _pair_branches(states[:, :2], 0, 1)
    with pytest.raises(BranchTrackingError, match=re.escape(
            "top weights 1.000, 0.500, third 0.500 (eigenstate ")):
        _pair_branches(states, 0, 1)


def test_pair_branches_names_an_unsolved_range():
    # as above, below a ground state that holds none of the pair: given
    # eigenvectors 1 and 2, the unsolved ones outside them may hold 0.5
    r = 1.0 / math.sqrt(2.0)
    states = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, r, r], [0.0, 0.0, r, -r],
                       [1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(BranchTrackingError, match=re.escape(
            "top weights 1.000, 0.500, third 0.500 (eigenstates outside 1..2, unsolved)")):
        _pair_branches(states[:, 1:3], 0, 1, 1)


@pytest.mark.parametrize("cfg, block", search_cases())
def test_a_search_keeps_one_solver(monkeypatch, cfg, block):
    # one solver for every evaluation and the closing solve
    init, built = _Solver.__init__, []

    def counted(solver, mat, *args):
        built.append(mat.shape)
        init(solver, mat, *args)

    monkeypatch.setattr(_Solver, "__init__", counted)
    search(cfg, block)
    assert built == [(cfg.layout.dim,) * 2]


def _search_with_second_range(monkeypatch, cfg, block, move):
    """Search with the second evaluation's range replaced by ``move(first,
    count)``; return the report and every solve's (name, first, count)."""
    solve, solves = _Solver.__call__, []

    def moved(solver, first=0, count=None):
        if count is not None and len(solves) == 1:
            first, count = move(first, count)
        try:
            return solve(solver, first, count)
        finally:
            solves.append((solver.name, solver.first, solver.count))

    monkeypatch.setattr(_Solver, "__call__", moved)
    report = search(cfg, block)
    monkeypatch.undo()
    return report, solves


def _assert_full_solve_report(monkeypatch, cfg, block, report):
    monkeypatch.setattr(spectrum, "_dsyevr", lambda: None)
    full = search(cfg, block)
    assert report == full
    assert report.location.hex() == full.location.hex()
    assert report.splitting.hex() == full.splitting.hex()
    assert report.evaluations == full.evaluations


@needs_dsyevr
@pytest.mark.parametrize("scenario, ranges", [("fig1b", [(0, 3), (2, 5)]),
                                              ("fig4", [(4, 7), (6, 9)])])
def test_a_search_that_misses_a_branch_falls_back_to_the_full_solve_report(
        monkeypatch, scenario, ranges):
    # the second evaluation, a LAPACK one, has its range a-1..b+1 moved down
    # two pairs, so it misses the upper branch (4 on fig1b, 8 on fig4): the
    # point is solved again in full, each later LAPACK solve solves the
    # branch pair that solve found and its neighbours, and the search ends
    # where a full solve's does, bit for bit, in as many evaluations
    preset = get_preset(scenario)
    cfg, block = build_system(preset), preset["anticross"]
    missed, solves = _search_with_second_range(
        monkeypatch, cfg, block, lambda first, count: (first - 2, count))
    (a, b), every = missed.branch_indices, ("eigh", 0, cfg.layout.dim)
    assert [(first, first + count - 1) for name, first, count in solves
            if name == "dsyevr"][:2] == ranges
    # two more LAPACK evaluations fill the basis of the certified ones, which
    # solve nothing; a comparison that their bounds leave open solves its
    # points again with the same range; the closing solve solves every pair
    assert solves[:5] == [every, ("dsyevr", a - 3, 4), every] + [("dsyevr", a - 1, 4)] * 2
    assert set(solves[5:-1]) <= {("dsyevr", a - 1, 4)} and solves[-1] == every
    assert len(solves) - 3 <= missed.evaluations - missed.ritz_evaluations + 2
    assert (b - a, missed.eigensolver, missed.solved_pairs) == (1, "dsyevr", (a - 1, b + 1))
    _assert_full_solve_report(monkeypatch, cfg, block, missed)


@needs_dsyevr
@pytest.mark.parametrize("scenario, counts", [("fig1b", [2, 64]), ("fig4", [2, 128])])
def test_search_grows_a_short_count_to_the_full_solve_report(monkeypatch, scenario, counts):
    # the second evaluation's range is replaced by the lowest 2 pairs, below
    # the upper branch (4 on fig1b, 8 on fig4): the unsolved eigenvectors
    # then may hold a branch, so the point is solved again for every pair,
    # and the search ends where a full solve's does, in as many evaluations
    preset = get_preset(scenario)
    cfg, block = build_system(preset), preset["anticross"]
    grown, solves = _search_with_second_range(
        monkeypatch, cfg, block, lambda first, count: (0, 2))
    assert [count for _, _, count in solves[1:3]] == counts
    assert solves[1:3] == [("dsyevr", 0, 2), ("eigh", 0, cfg.layout.dim)]
    a, b = grown.branch_indices
    assert grown.solved_pairs == (a - 1, b + 1)
    _assert_full_solve_report(monkeypatch, cfg, block, grown)


@needs_dsyevr
@pytest.mark.parametrize("fault", ["info", "count"])
def test_dsyevr_failure_in_a_search_is_reported_as_numpy_does(monkeypatch, fault):
    # as in a sweep: the first evaluation, which eigh solves in full, passes;
    # the first solve after it, for the branch range 3..4 widened to 2..5
    # (IL = 3, not the sweep's 1), raises numpy.linalg.eigh's error
    dsyevr, ranges = spectrum._dsyevr(), []

    @ctypes.CFUNCTYPE(None, *dsyevr.argtypes)
    def failing(*args):
        dsyevr(*args)
        il, iu, lwork, m, info = args[8], args[9], args[17], args[11], args[20]
        if lwork[0] != -1:
            ranges.append((il[0], iu[0]))
            if fault == "info":
                info[0] = 3
            else:
                m[0] -= 1

    monkeypatch.setattr(spectrum, "_dsyevr", lambda: failing)
    preset = get_preset("fig1b")
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        search(build_system(preset), preset["anticross"])
    assert ranges == [(3, 6)]


@needs_blas_control
@pytest.mark.parametrize("failing", [0, 5])  # on the calling thread, on a worker
def test_pooled_sweep_raises_a_point_error_and_restores_blas(monkeypatch, failing):
    cfg = build_system(get_preset("fig1b"))
    monkeypatch.setattr(spectrum, "_available_cores", lambda: 3)
    grid = np.linspace(0.45, 0.55, 7)
    target = _assemble("dicke", set_parameter(cfg, "qubits[2].omega", grid[failing]),
                       np.empty((cfg.layout.dim,) * 2))
    solve, threads_seen = _Solver.__call__, []

    def failing_solve(solver, *args):
        threads_seen.append(blas_threads())
        if np.array_equal(solver.mat, target):
            raise NumericalError(f"planted at point {failing}")
        return solve(solver, *args)

    monkeypatch.setattr(_Solver, "__call__", failing_solve)
    before = blas_threads()
    with pytest.raises(NumericalError, match=f"planted at point {failing}"):
        sweep_levels(cfg, "qubits[2].omega", grid, 6)
    assert blas_threads() == before
    assert set(threads_seen) == {1}
    # chunks [0, 2), [2, 4) and [4, 7): each point but the one after the
    # failing point, in its chunk, was evaluated
    assert len(threads_seen) == 6


def planted_terms(fault: str):
    """vpmix.model._layout_terms with ``fault`` planted in the terms it
    returns: "nan", a NaN at one entry of X and at its mirror;
    "asymmetric" and "below-tolerance", one entry of X sigma_x^(1) moved
    off its mirror by 1e-6 and by 1e-12."""
    real = vpmix.model._layout_terms

    def terms(layout):
        found = real(layout)
        if fault == "nan":
            x = found.quadrature
            row, col = divmod(int(x.flat[0]), layout.dim)
            value = x.value.copy()
            value[[0, int(np.searchsorted(x.flat, col * layout.dim + row))]] = math.nan
            return found._replace(quadrature=x._replace(value=value))
        x_sx = found.x_sigma_x[0]
        value = x_sx.value.copy()
        value[0] += 1e-6 if fault == "asymmetric" else 1e-12
        return found._replace(x_sigma_x=(x_sx._replace(value=value),) + found.x_sigma_x[1:])

    return terms


class PerPointAssembly:
    """The path the pencil replaced, standing in for spectrum._pencil: each
    point is set_parameter's config assembled in full, and the solver checks
    it before it solves."""

    def __init__(self, config, field, model, solvers):
        k, name = field
        self.path = name if k is None else f"qubits[{k}].{name}"
        self.config, self.model = config, model

    def entries(self):
        return None

    def write(self, x, out, moved=None):
        return _assemble(self.model, set_parameter(self.config, self.path, x), out)


FIG1B_GRID = np.linspace(0.45, 0.55, 7)
FIG1B_BRACKET = tuple(get_preset("fig1b")["anticross"]["bracket"])
# name: (fault planted in the terms, system changes, swept parameter, grid,
# the start of the error's message or None, whether the pencil's base check
# raises it before any solve), each on fig1b
SWEEP_INPUTS = {
    "nan": ("nan", {}, "qubits[2].omega", FIG1B_GRID, "matrix has a non-finite entry", True),
    "asymmetric": ("asymmetric", {}, "qubits[2].omega", FIG1B_GRID,
                   "matrix is not Hermitian (max deviation 1.126e-07 > 1.0e-09)", False),
    # the swept lam scales the asymmetric term: each point has a defect of
    # its own, not the base's
    "asymmetric-moved": ("asymmetric", {}, "qubits[0].lam", [0.1, 0.2],
                         "matrix is not Hermitian (max deviation 8.660e-08 > 1.0e-09)", False),
    "below-tolerance": ("below-tolerance", {}, "qubits[2].omega", FIG1B_GRID, None, False),
    "overflowing-base": (None, {"omega_c": 1e308}, "qubits[2].omega", FIG1B_GRID,
                         "matrix has a non-finite entry", True),
    "overflowing-diagonal": (None, {}, "omega_c", [1.4, 1.5, 1e308],
                             "matrix has a non-finite entry", False),
    "overflowing-coupling": (None, {}, "qubits[0].lam", [0.1, 0.2, 1e308],
                             "matrix has a non-finite entry", False),
    "nan-point": (None, {}, "qubits[2].omega", [math.nan],
                  "qubit omega must be finite, got", False),
    "infinite-point": (None, {}, "qubits[2].omega", [0.5, math.inf],
                       "qubit omega must be finite, got", False),
    "non-positive-point": (None, {}, "qubits[2].omega", np.linspace(0.5, -0.1, 7),
                           "qubit frequency must be positive, got", False),
}
# name: as above with the search bracket in place of the grid
SEARCH_INPUTS = {
    **{name: SWEEP_INPUTS[name][:3] + (FIG1B_BRACKET,) + SWEEP_INPUTS[name][4:]
       for name in ("nan", "asymmetric", "below-tolerance", "overflowing-base")},
    "non-positive-golden-point": (None, {}, "qubits[2].omega", (-1.0, 0.5),
                                  "qubit frequency must be positive, got -0.427", False),
    # the bracket's lower end is no frequency, but no evaluation lands there
    "non-positive-bracket-end": (None, {}, "qubits[2].omega", (-0.2, 1.2), None, False),
}


def assert_raises_as_the_per_point_path(monkeypatch, case, run):
    """``run(cfg, parameter, span)`` on the faulty input ``case`` raises the
    error, with the message, that the per-point path raises, or returns the
    same result where neither raises."""
    fault, changes, parameter, span, message, before_any_solve = case
    if fault is not None:
        monkeypatch.setattr(vpmix.model, "_layout_terms", planted_terms(fault))
    cfg = replace(build_system(get_preset("fig1b")), **changes)

    def outcome():
        try:
            result = run(cfg, parameter, span)
        except (ConfigError, NumericalError) as err:
            return type(err), str(err)
        if isinstance(result, spectrum.SweepResult):
            return "result", tuple(getattr(result, name).tobytes()
                                   for name in ("energies", "labels", "overlaps"))
        return "result", result

    pencil, solve, calls = spectrum._pencil, _Solver.__call__, []
    monkeypatch.setattr(spectrum, "_pencil", PerPointAssembly)
    expected = outcome()
    monkeypatch.setattr(spectrum, "_pencil", pencil)

    def counted(solver, *args):
        calls.append(args)
        return solve(solver, *args)

    monkeypatch.setattr(_Solver, "__call__", counted)
    found = outcome()
    assert found == expected
    if message is None:
        assert found[0] == "result"
    else:
        assert found[0] in (ConfigError, HermiticityError)
        assert found[1].startswith(message)
    if before_any_solve:
        assert calls == []


@pytest.mark.parametrize("hidden", [False, True], ids=["dsyevr-found", "dsyevr-hidden"])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", SWEEP_INPUTS)
def test_a_sweep_raises_what_the_per_point_path_raised(monkeypatch, name, workers, hidden):
    # the pencil checks its base once, and at each point the field's own
    # rule and the finiteness of the entries it moves, where every point was
    # assembled and checked in full: each input raises the same error, with
    # the same message, or none
    monkeypatch.setattr(spectrum, "_available_cores", lambda: workers)
    if hidden:
        monkeypatch.setattr(spectrum, "_dsyevr", lambda: None)
    assert_raises_as_the_per_point_path(
        monkeypatch, SWEEP_INPUTS[name],
        lambda cfg, parameter, grid: sweep_levels(cfg, parameter, grid, 6))


@pytest.mark.parametrize("hidden", [False, True], ids=["dsyevr-found", "dsyevr-hidden"])
@pytest.mark.parametrize("name", SEARCH_INPUTS)
def test_a_search_raises_what_the_per_point_path_raised(monkeypatch, name, hidden):
    if hidden:
        monkeypatch.setattr(spectrum, "_dsyevr", lambda: None)
    pair = get_preset("fig1b")["anticross"]["pair"]
    assert_raises_as_the_per_point_path(
        monkeypatch, SEARCH_INPUTS[name],
        lambda cfg, parameter, bracket: find_anticrossing(cfg, parameter, bracket, pair))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
def test_overflowing_entries_raise_with_no_warning_first(model):
    # entries too large for a float become inf, or NaN where inf meets -inf
    # (four qubits at 1e308 put the bare diagonal at -inf below omega_c's
    # +inf), and the finiteness checks name them with no warning before
    preset = get_preset("fig1b")
    cfg, pair = build_system(preset), preset["anticross"]["pair"]
    message = "matrix has a non-finite entry"
    for huge in (replace(cfg, omega_c=1e308),
                 replace(cfg, qubits=(replace(cfg.qubits[0], lam=1e308),) + cfg.qubits[1:]),
                 SystemConfig((QubitParams(1e308, 0.1),) * 4, omega_c=1e308, fock_cutoff=3)):
        with pytest.raises(HermiticityError, match=message):
            diagonalize(MODEL_BUILDERS[model](huge))
    for parameter in ("omega_c", "qubits[0].lam", "qubits[2].omega"):
        with pytest.raises(HermiticityError, match=message):
            sweep_levels(replace(cfg, omega_c=1e308) if parameter.endswith("omega") else cfg,
                         parameter, [0.5, 1e308], 4, model=model)
    # the base overflows; then the first golden point, 3.8e307, does
    with pytest.raises(HermiticityError, match=message):
        find_anticrossing(replace(cfg, omega_c=1e308), "qubits[2].omega", FIG1B_BRACKET,
                          pair, model=model)
    with pytest.raises(HermiticityError, match=message):
        find_anticrossing(cfg, "omega_c", (0.5, 1e308), pair, tol=1e300, model=model)


@needs_blas_control
def test_blas_count_is_restored_after_each_solver(monkeypatch):
    preset = get_preset("fig1b")
    cfg, anti = build_system(preset), preset["anticross"]
    control_get, control_set = spectrum._blas_control()
    original, seen = control_get(), []

    solve = _Solver.__call__

    def spied(solver, *args):
        try:
            return solve(solver, *args)
        finally:  # the solve records its eigensolver's name
            seen.append((solver.name, blas_threads()))

    monkeypatch.setattr(_Solver, "__call__", spied)
    try:
        for count in (2, 3):
            control_set(count)
            sweep = sweep_levels(cfg, "qubits[2].omega", np.linspace(0.45, 0.55, 4), 6)
            assert blas_threads() == count
            find_anticrossing(cfg, anti["parameter"], tuple(anti["bracket"]), anti["pair"])
            assert blas_threads() == count
            diagonalize(build_generalized_dicke(cfg))
            assert blas_threads() == count
    finally:
        control_set(original)
    assert {name for name, _ in seen} == {"eigh", sweep.eigensolver}
    assert {threads for _, threads in seen} == {1}


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
    # were kept until it returned, against at most 140 and 330 with reused
    # outputs over every layout tried.  The probe runs with the caller's
    # environment, whose size moves the heap layout: the extra variables that
    # pytest sets were enough to turn it.  Below the bounds the counts take a
    # few levels, whole d x d arrays (32 pages) apart, and the environment's
    # size alone picks one: over 48 sizes the warm sweep read 1 to 21 and
    # the search 131 to 169, in three levels: 131-137, 151-158, 163-169.  So one
    # reading cannot compare two commits; a comparison takes the counts over
    # many environment sizes, from checkouts at paths of equal length.
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
        # the report carries the spectrum of its closing solve: bit for bit
        # an independent diagonalize of the builder at the location, and the
        # source of the branches, energies and overlaps, for either model
        fig1b_block = {"parameter": "qubits[2].omega", "bracket": (0.90, 1.02),
                       "pair": (("gge", 0), ("eeg", 0))}
        fig4, fig5a = get_preset("fig4"), get_preset("fig5a")
        cases = [(fig1b_preset, fig1b_block, "dicke"),
                 (build_system(fig4), fig4["anticross"], "dicke"),
                 (fig1b_preset, fig1b_block, "tc"),
                 (build_system(fig5a), fig5a["anticross"], "tc")]
        for cfg, block, model in cases:
            rep = find_anticrossing(cfg, block["parameter"], tuple(block["bracket"]),
                                    block["pair"], model=model)
            spec = diagonalize(MODEL_BUILDERS[model](
                set_parameter(cfg, block["parameter"], rep.location)))
            assert rep.spectrum.energies.tobytes() == spec.energies.tobytes()
            assert rep.spectrum.states.tobytes() == spec.states.tobytes()
            assert rep.spectrum.labels == spec.labels
            assert rep.spectrum.label_collisions == spec.label_collisions
            assert rep.spectrum.layout == spec.layout
            u, v = rep.bare_pair
            ia, ib = rep.branch_indices
            assert _pair_branches(spec.states, u, v)[:2] == (ia, ib)
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

    @pytest.mark.parametrize("scenario", ["fig3", "fig5b", "figS2b"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_pair_rotation_gives_the_superposition_states(self, scenario, dtype):
        # (u~, v~) = (psi_a, psi_b) R, R the frame block the dynamics command
        # builds on the branch rows, against the vector construction that
        # superposition_states made before R: it is real for real eigenvectors
        cfg = get_preset(scenario)
        rep = find_anticrossing(build_system(cfg), cfg["anticross"]["parameter"],
                                tuple(cfg["anticross"]["bracket"]), cfg["anticross"]["pair"])
        rep = replace(rep, spectrum=replace(rep.spectrum,
                                            states=rep.spectrum.states.astype(dtype)))
        rotation = spectrum._pair_rotation(rep)
        assert rotation.dtype == dtype
        psi_a, psi_b = (rep.spectrum.states[:, k] for k in rep.branch_indices)
        plus, minus = (psi_a + psi_b) / math.sqrt(2.0), (psi_a - psi_b) / math.sqrt(2.0)
        bare_u, bare_v = rep.bare_pair
        vectors = ((plus, minus) if abs(plus[bare_u]) ** 2 >= abs(minus[bare_u]) ** 2
                   else (minus, plus))
        for vec, bare, column, ket in zip(vectors, rep.bare_pair,
                                          (np.stack([psi_a, psi_b], axis=1) @ rotation).T,
                                          superposition_states(rep)):
            expected = vec * np.conj(vec[bare] / abs(vec[bare]))
            np.testing.assert_allclose(column, expected, rtol=0, atol=1e-15)
            np.testing.assert_allclose(ket.amp, expected, rtol=0, atol=1e-15)

    def test_coupling_sign_defined(self, fig1b_preset):
        rep = find_anticrossing(
            fig1b_preset, "qubits[2].omega", (0.90, 1.02), (("gge", 0), ("eeg", 0)),
        )
        assert coupling_sign(rep) in (-1, 1)
