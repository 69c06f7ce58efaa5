import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    track_branches,
)
from vpmix.algebra import HilbertLayout
from vpmix.cli import build_system
from vpmix.presets import SCENARIOS, get_preset
from vpmix.spectrum import MODEL_BUILDERS, coupling_sign

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


def test_unknown_model_is_a_config_error(fig1b_preset):
    with pytest.raises(ConfigError, match="xyz"):
        sweep_levels(fig1b_preset, "omega_c", [1.0, 1.1], 2, model="xyz")
    with pytest.raises(ConfigError, match="xyz"):
        find_anticrossing(fig1b_preset, "qubits[2].omega", (0.95, 1.03),
                          (("gge", 0), ("eeg", 0)), model="xyz")


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


def test_sweep_threads_match_serial(fig1b_spec_literal):
    grid = np.linspace(0.6, 0.8, 7)
    serial = sweep_levels(fig1b_spec_literal, "qubits[2].omega", grid, 4, threads=1)
    threaded = sweep_levels(fig1b_spec_literal, "qubits[2].omega", grid, 4, threads=4)
    assert np.array_equal(serial.energies, threaded.energies)
    assert np.array_equal(serial.labels, threaded.labels)


def test_branch_labels_stable_outside_anticrossing(fig1b_preset):
    grid = np.linspace(0.9, 1.02, 40)
    sweep = sweep_levels(fig1b_preset, "qubits[2].omega", grid, 5, keep_states=True)
    branch = track_branches(sweep)
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

    def test_untrackable_pair_raises(self):
        # deep-coupling regime scrambles the high bare states beyond tracking
        scrambled = SystemConfig(
            (QubitParams(0.5, 0.9), QubitParams(0.7, 0.9)), omega_c=1.0, fock_cutoff=6
        )
        with pytest.raises(BranchTrackingError):
            find_anticrossing(scrambled, "qubits[0].omega", (0.45, 0.55),
                              (("ge", 4), ("eg", 4)))

    def test_superposition_states_orthonormal(self, fig1b_preset):
        rep = find_anticrossing(
            fig1b_preset, "qubits[2].omega", (0.90, 1.02), (("gge", 0), ("eeg", 0)),
        )
        cfg = set_parameter(fig1b_preset, "qubits[2].omega", rep.location)
        spec = diagonalize(build_generalized_dicke(cfg))
        lay = fig1b_preset.layout
        u, v = superposition_states(
            spec, lay.bare_index("gge", 0), lay.bare_index("eeg", 0), rep.branch_indices
        )
        assert u.norm == pytest.approx(1.0, abs=1e-12)
        assert v.norm == pytest.approx(1.0, abs=1e-12)
        assert abs(u.overlap(v)) < 1e-12
        assert u.amp[lay.bare_index("gge", 0)].real > 0.9
        assert v.amp[lay.bare_index("eeg", 0)].real > 0.9

    def test_coupling_sign_defined(self, fig1b_preset):
        rep = find_anticrossing(
            fig1b_preset, "qubits[2].omega", (0.90, 1.02), (("gge", 0), ("eeg", 0)),
        )
        cfg = set_parameter(fig1b_preset, "qubits[2].omega", rep.location)
        spec = diagonalize(build_generalized_dicke(cfg))
        lay = fig1b_preset.layout
        s = coupling_sign(spec, lay.bare_index("gge", 0), lay.bare_index("eeg", 0),
                          rep.branch_indices)
        assert s in (-1, 1)
