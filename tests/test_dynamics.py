import dataclasses
import functools
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmix import (
    ConfigError,
    LabelAmbiguityError,
    NumericalError,
    StepSizeError,
    MixKind,
    Operator,
    QubitParams,
    SystemConfig,
    bare_state,
    build_cavity_lowering,
    build_dissipators,
    build_dressed_lowering,
    build_effective_mixing,
    build_generalized_dicke,
    cavity_annihilation,
    cavity_quadrature,
    check_density,
    diagonalize,
    embed_qubit_op,
    evolve,
    expectation,
    expectation_series,
    find_anticrossing,
    identity,
    set_parameter,
    state_fidelity,
    superposition_states,
)
from vpmix import cli, dynamics, parity_operator, total_excitation_number
from vpmix.algebra import SIGMA_MINUS, SIGMA_X, HilbertLayout, Ket, cavity_number
from vpmix.model import _layout_terms, _write_coupling
from vpmix.spectrum import SpectrumResult
from vpmix.cli import _search, build_system
from vpmix.presets import get_preset
from vpmix.spectrum import MODEL_BUILDERS, _pair_columns

PI6 = math.pi / 6


def decoupled_config(cutoff=4):
    return SystemConfig(
        (QubitParams(0.4, 0.0, gamma=1e-3), QubitParams(0.9, 0.0, gamma=2e-3)),
        omega_c=1.3,
        kappa=5e-3,
        fock_cutoff=cutoff,
    )


class TestDressedOperators:
    def test_decoupled_lowering_is_bare_sigma_minus(self):
        for qubits, cutoff in ((2, 4), (3, 4), (4, 4), (3, 3), (4, 3)):
            cfg = SystemConfig(tuple(QubitParams(0.3 + 0.2 * i, 0.0) for i in range(qubits)),
                               omega_c=1.3, fock_cutoff=cutoff)
            spec = diagonalize(build_generalized_dicke(cfg))
            for i in range(1, qubits + 1):
                s = build_dressed_lowering(spec, i)
                bare = embed_qubit_op(cfg.layout, i, SIGMA_MINUS)
                assert np.max(np.abs(s.mat - bare.mat)) < 1e-12, (qubits, cutoff, i)

    def test_lowering_squares_to_zero(self, fig1b_spec_literal):
        cfg = set_parameter(fig1b_spec_literal, "qubits[2].omega", 0.7)
        spec = diagonalize(build_generalized_dicke(cfg))
        s = build_dressed_lowering(spec, 1)
        assert np.max(np.abs((s @ s).mat)) < 1e-12

    def test_raising_projects_labeled_eigenstate(self, fig1b_spec_literal):
        cfg = set_parameter(fig1b_spec_literal, "qubits[2].omega", 0.7)
        spec = diagonalize(build_generalized_dicke(cfg))
        s1 = build_dressed_lowering(spec, 1)
        target = next(k for k in range(spec.dim) if spec.label_string(k) == "egg:0")
        psi = spec.eigenket(target)
        rho = np.outer(psi.amp, psi.amp.conj())
        assert expectation(rho, [s1.dag(), s1]) == pytest.approx(1.0, abs=1e-12)

    def test_decoupled_cavity_lowering_is_annihilation(self):
        cfg = decoupled_config()
        spec = diagonalize(build_generalized_dicke(cfg))
        a_dressed = build_cavity_lowering(spec)
        a_bare = cavity_annihilation(cfg.layout)
        assert np.max(np.abs(a_dressed.mat - a_bare.mat)) < 1e-10

    def test_cavity_lowering_annihilates_ground_state(self, fig1b_preset):
        spec = diagonalize(build_generalized_dicke(fig1b_preset))
        a = build_cavity_lowering(spec)
        ground = spec.states[:, 0]
        assert np.linalg.norm(a.mat @ ground) < 1e-10


def context_loop_lowering(spectrum, qubit_index, overrides=None):
    """Reference: the per-context loop that built dressed lowering operators
    before the dressed frame, with contexts through a collided label skipped.
    Sums |psi(g_i, rest)><psi(e_i, rest)| one outer product at a time."""
    layout = spectrum.layout
    collided = set(spectrum.label_collisions)
    label_map = {bare: k for k, (bare, _) in enumerate(spectrum.labels) if bare not in collided}
    overrides = dict(overrides or {})

    def dressed_vector(bare):
        if bare in overrides:
            return overrides[bare].amp
        if bare in label_map:
            return spectrum.states[:, label_map[bare]]
        return None

    stride = 2 ** (layout.qubit_count - qubit_index) * layout.fock_cutoff
    mat = np.zeros((spectrum.dim, spectrum.dim), dtype=complex)
    resolved = 0
    for b_g in range(spectrum.dim):
        if (b_g // stride) % 2:  # qubit excited: not the ground side of a context
            continue
        v_g, v_e = dressed_vector(b_g), dressed_vector(b_g + stride)
        if v_g is None or v_e is None:
            continue
        mat += np.outer(v_g, v_e.conj())
        resolved += 1
    if resolved == 0:
        raise LabelAmbiguityError(f"no resolvable contexts for qubit {qubit_index}")
    return mat


def assert_lowering_matches_context_loop(spectrum, qubit_index, overrides=None):
    try:
        ref = context_loop_lowering(spectrum, qubit_index, overrides)
    except LabelAmbiguityError:
        with pytest.raises(LabelAmbiguityError, match="no resolvable contexts"):
            build_dressed_lowering(spectrum, qubit_index, overrides)
        return
    new = build_dressed_lowering(spectrum, qubit_index, overrides).mat
    assert np.max(np.abs(new - ref)) <= 1e-14


class TestDressedFrame:
    @settings(max_examples=60, deadline=None)
    @given(qubits=st.integers(1, 3), cutoff=st.integers(2, 5),
           model=st.sampled_from(sorted(MODEL_BUILDERS)), with_overrides=st.booleans(),
           data=st.data())
    def test_matches_context_loop_on_small_systems(self, qubits, cutoff, model,
                                                    with_overrides, data):
        freq = st.floats(0.2, 1.6, allow_nan=False)
        cfg = SystemConfig(
            tuple(QubitParams(data.draw(freq), data.draw(st.floats(0.0, 0.3)),
                              data.draw(st.floats(0.0, math.pi / 2)))
                  for _ in range(qubits)),
            omega_c=data.draw(freq), fock_cutoff=cutoff)
        spec = diagonalize(MODEL_BUILDERS[model](cfg))
        overrides = None
        if with_overrides:
            bare = data.draw(st.lists(st.integers(0, spec.dim - 1), min_size=2, max_size=2,
                                      unique=True))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            vecs = rng.normal(size=(2, spec.dim)) + 1j * rng.normal(size=(2, spec.dim))
            overrides = {b: Ket(v / np.linalg.norm(v), cfg.layout) for b, v in zip(bare, vecs)}
        for i in range(1, qubits + 1):
            assert_lowering_matches_context_loop(spec, i, overrides)

    @pytest.mark.parametrize("scenario", ["fig3", "fig5b", "figS2b"])
    def test_matches_context_loop_at_preset_minima(self, scenario):
        cfg = get_preset(scenario)
        system = build_system(cfg)
        rep = _search(find_anticrossing, system, cfg["anticross"])
        overrides = dict(zip(rep.bare_pair, superposition_states(rep)))
        for i in range(1, system.qubit_count + 1):
            assert_lowering_matches_context_loop(rep.spectrum, i, overrides)

    def test_degenerate_pair_has_no_resolvable_contexts(self):
        # the library-use system of the README: qubits 1 and 2 at one frequency
        cfg = SystemConfig((QubitParams(0.5, 0.1, PI6), QubitParams(0.5, 0.1, PI6),
                            QubitParams(1.0, 0.1, PI6)), omega_c=1.25)
        rep = find_anticrossing(cfg, "qubits[2].omega", (0.9, 1.06),
                                (("gge", 0), ("eeg", 0)))
        overrides = dict(zip(rep.bare_pair, superposition_states(rep)))
        for i in (1, 2):
            with pytest.raises(LabelAmbiguityError, match="no resolvable contexts"):
                build_dressed_lowering(rep.spectrum, i, overrides)
        s3 = build_dressed_lowering(rep.spectrum, 3, overrides)
        assert np.max(np.abs(s3.mat - context_loop_lowering(rep.spectrum, 3, overrides))) <= 1e-14


def dense_frame_lowering(spectrum, qubit_index, overrides=None):
    """Reference: the bare-basis construction F sigma_- F+ that
    build_dressed_lowering made before it built in the eigenbasis."""
    layout = spectrum.layout
    lowering = embed_qubit_op(layout, qubit_index, SIGMA_MINUS).mat
    labels = np.array([bare for bare, _ in spectrum.labels])
    unique = ~np.isin(labels, spectrum.label_collisions)
    frame = np.zeros((spectrum.dim, spectrum.dim), dtype=complex)
    frame[:, labels[unique]] = spectrum.states[:, unique]
    for bare, ket in (overrides or {}).items():
        frame[:, layout.resolve(bare)] = ket.amp
    claimed = frame.any(axis=0)
    if not lowering[np.ix_(claimed, claimed)].any():
        raise LabelAmbiguityError(f"no resolvable contexts for qubit {qubit_index}")
    return frame @ lowering @ frame.conj().T


class TestLabelFrame:
    """The eigenbasis lowering operator L~ = S sigma_- S+, S = U+ F, against
    U+ (F sigma_- F+) U from the dense bare-basis frame."""

    @pytest.mark.parametrize("scenario", ["fig3", "fig5b", "figS2b"])
    def test_command_operators_match_the_dense_frame(self, scenario, monkeypatch):
        built = []

        def record(spectrum, qubit_index, columns):
            built.append((qubit_index, columns))
            return dynamics._dressed_lowering(spectrum, qubit_index, columns)

        cfg = get_preset(scenario)
        system = build_system(cfg)
        monkeypatch.setattr(cli, "_dressed_lowering", record)
        cli.cmd_dynamics(cfg, system)
        rep = _search(find_anticrossing, system, cfg["anticross"])
        spec, u = rep.spectrum, rep.spectrum.states
        assert u.dtype == np.float64
        overrides = dict(zip(rep.bare_pair, superposition_states(rep)))
        (_, columns), *_ = built
        # the pair's columns hold one real 2 x 2 rotation on the branch rows
        assert sorted(columns) == sorted(rep.bare_pair)
        for column in columns.values():
            assert column.dtype == np.float64
            assert np.flatnonzero(column).tolist() == sorted(rep.branch_indices)
        assert {q for q, _ in built} == {
            q for obs in cfg["dynamics"]["observables"]
            for q in [obs.get("qubit")] + obs.get("qubits", []) if q is not None}
        for q in range(1, system.qubit_count + 1):
            eigen = dynamics._dressed_lowering(spec, q, columns)
            assert eigen.dtype == np.float64
            dense = u.conj().T @ dense_frame_lowering(spec, q, overrides) @ u
            assert np.max(np.abs(eigen - dense)) <= 1e-14, q
            # the public operator is U L~ U+, the same construction
            public = build_dressed_lowering(spec, q, overrides).mat
            assert np.max(np.abs(public - dense_frame_lowering(spec, q, overrides))) <= 1e-14

    def test_collided_labels_match_the_dense_frame(self):
        # the library-use system of the README: qubits 1 and 2 at one
        # frequency, so their symmetric and antisymmetric states collide
        cfg = SystemConfig((QubitParams(0.5, 0.1, PI6), QubitParams(0.5, 0.1, PI6),
                            QubitParams(1.0, 0.1, PI6)), omega_c=1.25)
        rep = find_anticrossing(cfg, "qubits[2].omega", (0.9, 1.06),
                                (("gge", 0), ("eeg", 0)))
        spec, u = rep.spectrum, rep.spectrum.states
        assert len(spec.label_collisions) > 10
        overrides = dict(zip(rep.bare_pair, superposition_states(rep)))
        columns = {b: u.conj().T @ ket.amp for b, ket in overrides.items()}
        for q in (1, 2):
            with pytest.raises(LabelAmbiguityError, match="no resolvable contexts"):
                dense_frame_lowering(spec, q, overrides)
            with pytest.raises(LabelAmbiguityError, match="no resolvable contexts"):
                dynamics._dressed_lowering(spec, q, columns)
        dense = u.conj().T @ dense_frame_lowering(spec, 3, overrides) @ u
        assert np.max(np.abs(dynamics._dressed_lowering(spec, 3, columns) - dense)) <= 1e-14
        # without the pair's overrides more contexts drop out, the same ones
        for q in (1, 2, 3):
            try:
                dense = u.conj().T @ dense_frame_lowering(spec, q) @ u
            except LabelAmbiguityError:
                with pytest.raises(LabelAmbiguityError):
                    dynamics._dressed_lowering(spec, q, {})
                continue
            assert np.max(np.abs(dynamics._dressed_lowering(spec, q, {}) - dense)) <= 1e-14


def nonzero_rates(rates):
    """(channel, j, k, rate) for every nonzero entry of every rate matrix."""
    return [(name, int(j), int(k), float(r[j, k]))
            for name, r in rates.items() for j, k in zip(*np.nonzero(r))]


def pair_loop_rates(spectrum, config):
    """Reference: the per-(j, k) loop that built one decay term per downward
    eigenstate pair before rates became matrices, a pair within 1e-12 in
    energy counting as degenerate.  Returns the channel names in order and
    the (channel, j, k, rate) terms.  X and sigma_x are real, and their real
    matrices are multiplied, so real eigenvectors give the products in real
    arithmetic, as build_dissipators forms them."""
    layout = spectrum.layout
    u = spectrum.states
    e = spectrum.energies
    channels = []
    if config.kappa > 0:
        channels.append(("cavity", config.kappa, cavity_quadrature(layout).mat.real))
    for i, q in enumerate(config.qubits, start=1):
        if q.gamma > 0:
            channels.append((f"qubit{i}", q.gamma,
                             embed_qubit_op(layout, i, SIGMA_X).mat.real))
    terms = []
    for name, strength, op in channels:
        m_eig = u.conj().T @ op @ u
        for k in range(layout.dim):
            for j in range(layout.dim):
                if not e[j] < e[k] - 1e-12:
                    continue
                elem2 = float(abs(m_eig[j, k]) ** 2)
                if elem2 <= 1e-24:
                    continue
                terms.append((name, j, k, strength * elem2))
    return [name for name, _, _ in channels], terms


class TestDissipators:
    def test_no_decay_no_channels(self):
        cfg = SystemConfig(
            (QubitParams(0.4, 0.1), QubitParams(0.9, 0.1)), omega_c=1.3, fock_cutoff=3
        )
        spec = diagonalize(build_generalized_dicke(cfg))
        assert build_dissipators(spec, cfg) == {}

    def test_decoupled_cavity_rates_are_kappa_n(self):
        kappa = 5e-3
        cfg = SystemConfig(
            (QubitParams(0.4, 0.0),), omega_c=1.3, kappa=kappa, fock_cutoff=5
        )
        spec = diagonalize(build_generalized_dicke(cfg))
        rates = build_dissipators(spec, cfg)
        assert list(rates) == ["cavity"]
        lay = cfg.layout
        for _, j, k, rate in nonzero_rates(rates):
            levels_j, n_j = lay.bare_labels(spec.labels[j][0])
            levels_k, n_k = lay.bare_labels(spec.labels[k][0])
            if levels_j == levels_k and n_k == n_j + 1:
                assert rate == pytest.approx(kappa * n_k, rel=1e-10)

    def test_rates_bounded(self, fig1b_preset):
        spec = diagonalize(build_generalized_dicke(fig1b_preset))
        rates = build_dissipators(spec, fig1b_preset)
        bound = max(fig1b_preset.kappa, max(q.gamma for q in fig1b_preset.qubits))
        assert list(rates) == ["cavity", "qubit1", "qubit2", "qubit3"]
        assert all(np.all(r >= 0) for r in rates.values())
        terms = nonzero_rates(rates)
        assert terms
        assert all(0 < rate <= bound * fig1b_preset.layout.dim for *_, rate in terms)

    def test_only_downward_transitions(self, fig1b_preset):
        spec = diagonalize(build_generalized_dicke(fig1b_preset))
        for _, j, k, _ in nonzero_rates(build_dissipators(spec, fig1b_preset)):
            assert spec.energies[k] > spec.energies[j]

    def test_degenerate_pairs_neither_decay_nor_lower(self):
        # E_1 - E_0 = 1e-14 is within the 1e-12 degeneracy gap: the rates and
        # the cavity lowering operator both leave the pair out
        lay, kappa = HilbertLayout(1, 2), 1e-3
        spec = SpectrumResult(np.array([0.0, 1e-14, 1.0, 2.0]), np.eye(4),
                              tuple((b, 1.0) for b in range(4)), lay, ())
        cfg = SystemConfig((QubitParams(1.0, 0.1),), omega_c=1.0, kappa=kappa, fock_cutoff=2)
        rates = build_dissipators(spec, cfg)["cavity"]
        lowering = dynamics._cavity_lowering(spec)
        assert abs(cavity_quadrature(lay).mat[0, 1]) == 1.0
        assert rates[0, 1] == 0.0 and lowering[0, 1] == 0.0
        np.testing.assert_array_equal(rates, kappa * np.abs(lowering) ** 2)
        assert np.count_nonzero(rates) > 0

    @settings(max_examples=40, deadline=None)
    @given(
        qubits=st.lists(
            st.builds(QubitParams, omega=st.floats(0.2, 1.8), lam=st.floats(0.0, 0.3),
                      theta=st.floats(0.0, 1.6), gamma=st.sampled_from([0.0, 3e-5, 1e-3])),
            min_size=1, max_size=3,
        ),
        omega_c=st.floats(0.5, 2.0),
        kappa=st.sampled_from([0.0, 3e-5, 5e-3]),
        cutoff=st.integers(1, 6),
    )
    def test_rate_matrices_match_pair_loop(self, qubits, omega_c, kappa, cutoff):
        cfg = SystemConfig(tuple(qubits), omega_c=omega_c, kappa=kappa, fock_cutoff=cutoff)
        spec = diagonalize(build_generalized_dicke(cfg))
        names, terms = pair_loop_rates(spec, cfg)
        rates = build_dissipators(spec, cfg)
        assert list(rates) == names
        new_terms = sorted(nonzero_rates(rates))
        old_terms = sorted(terms)
        assert [t[:3] for t in new_terms] == [t[:3] for t in old_terms]
        assert sum(int(np.count_nonzero(r)) for r in rates.values()) == len(terms)
        # The loop squared with scalar ** 2 (libm pow, not always correctly
        # rounded); the matrices square exactly, so rates may differ by an ulp
        # of the square carried through the product with the channel strength.
        np.testing.assert_array_max_ulp(np.array([t[3] for t in new_terms]),
                                        np.array([t[3] for t in old_terms]), maxulp=2)


def kron_dressed_lowering(spectrum, qubit_index, columns):
    """Reference: dynamics._dressed_lowering as it read sigma_-^(i)'s entries
    off the kron-built operator, before they came from the layout's terms."""
    dim = spectrum.dim
    lowered, excited = np.nonzero(embed_qubit_op(spectrum.layout, qubit_index, SIGMA_MINUS).mat)
    labels = np.array([bare for bare, _ in spectrum.labels])
    unique = ~np.isin(labels, spectrum.label_collisions)
    frame = np.zeros((dim, dim), dtype=np.result_type(spectrum.states, *columns.values()))
    frame[np.flatnonzero(unique), labels[unique]] = 1.0
    for bare, column in columns.items():
        frame[:, bare] = column
    claimed = frame.any(axis=0)
    if not (claimed[lowered] & claimed[excited]).any():
        raise LabelAmbiguityError(f"no resolvable contexts for qubit {qubit_index}")
    return frame[:, lowered] @ frame[:, excited].conj().T


def kron_real(op):
    """The contiguous real matrix the kron path multiplied by."""
    return np.ascontiguousarray(op.mat.real)


def kron_cavity_lowering(spectrum):
    """Reference: dynamics._cavity_lowering on the kron-built X."""
    u, e = spectrum.states, spectrum.energies
    x_eig = u.conj().T @ kron_real(cavity_quadrature(spectrum.layout)) @ u
    return np.where(e[:, None] < e[None, :] - dynamics._ENERGY_TOL, x_eig, 0.0)


def kron_dissipators(spectrum, config):
    """Reference: build_dissipators on the kron-built X and sigma_x^(i), one
    product U+ O U of two d^3 products a channel, on the downward pairs
    beyond the 1e-12 degeneracy gap."""
    layout, u, e = spectrum.layout, spectrum.states, spectrum.energies
    downward = e[:, None] < e[None, :] - 1e-12

    def rate_matrix(strength, op):
        elem2 = np.abs(u.conj().T @ kron_real(op) @ u) ** 2
        return np.where(downward & (elem2 > dynamics._RATE_FLOOR), strength * elem2, 0.0)

    rates = {}
    if config.kappa > 0:
        rates["cavity"] = rate_matrix(config.kappa, cavity_quadrature(layout))
    for i, q in enumerate(config.qubits, start=1):
        if q.gamma > 0:
            rates[f"qubit{i}"] = rate_matrix(q.gamma, embed_qubit_op(layout, i, SIGMA_X))
    return rates


def kron_excitation_number(layout):
    """Reference: total_excitation_number summed from kron-built operators."""
    n = cavity_number(layout).mat.copy()
    proj_e = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    for i in range(1, layout.qubit_count + 1):
        n += embed_qubit_op(layout, i, proj_e).mat
    return n


@st.composite
def layout_spectra(draw):
    """A spectrum on a random layout with a random real-orthogonal or complex
    unitary U, energies with ties, labels with collisions, and a config of
    that layout with some decay rates zero."""
    qubits, cutoff = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    layout = HilbertLayout(qubits, cutoff)
    dim = layout.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.normal(size=(dim, dim))
    if draw(st.booleans()):
        mat = mat + 1j * rng.normal(size=(dim, dim))
    u = np.linalg.qr(mat)[0]
    energies = rng.integers(0, draw(st.integers(1, 2 * dim)), dim).astype(float)
    labels = rng.integers(0, dim, dim) if draw(st.booleans()) else rng.permutation(dim)
    collisions = tuple(sorted({int(b) for b in labels if np.sum(labels == b) > 1}))
    spectrum = SpectrumResult(energies, u, tuple((int(b), 1.0) for b in labels), layout,
                              collisions)
    rate = st.sampled_from([0.0, 3e-5, 1e-3])
    config = SystemConfig(tuple(QubitParams(1.0, 0.1, gamma=draw(rate)) for _ in range(qubits)),
                          omega_c=1.0, kappa=draw(rate), fock_cutoff=cutoff)
    return spectrum, config, rng


class TestLayoutTermOperators:
    """X, sigma_x^(i), sigma_-^(i) and a+ a read from model._layout_terms
    give the bits of the kron-built operators they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(case=layout_spectra(), with_columns=st.booleans())
    def test_match_the_kron_built_operators(self, case, with_columns):
        spectrum, config, rng = case
        layout, dim, u = spectrum.layout, spectrum.dim, spectrum.states
        terms = _layout_terms(layout)
        for i in range(1, layout.qubit_count + 1):
            flip = np.zeros((dim, dim))
            flip[terms.flip[i - 1], np.arange(dim)] = 1.0
            assert flip.tobytes() == kron_real(embed_qubit_op(layout, i, SIGMA_X)).tobytes()
            pairs = np.nonzero(embed_qubit_op(layout, i, SIGMA_MINUS).mat)
            found = dynamics._lowering_pairs(layout, i)
            assert [a.tobytes() for a in found] == [a.tobytes() for a in pairs]
        x = _write_coupling([(terms.quadrature, 1.0, None)], np.empty((dim, dim)))
        assert x.tobytes() == kron_real(cavity_quadrature(layout)).tobytes()
        assert terms.number.tobytes() == cavity_number(layout).mat.diagonal().real.tobytes()
        n = kron_excitation_number(layout)
        assert total_excitation_number(layout).mat.tobytes() == n.tobytes()
        parity = np.diag((-1.0) ** np.rint(np.real(np.diag(n))))
        assert parity_operator(layout).mat.tobytes() == parity.tobytes()

        rates, reference = build_dissipators(spectrum, config), kron_dissipators(spectrum, config)
        assert list(rates) == list(reference)
        assert all(rates[name].tobytes() == reference[name].tobytes() for name in rates)
        assert (dynamics._cavity_lowering(spectrum).tobytes()
                == kron_cavity_lowering(spectrum).tobytes())
        columns = {}
        if with_columns:
            for bare in rng.choice(dim, size=min(2, dim), replace=False).tolist():
                column = rng.normal(size=dim)
                columns[bare] = column + 1j * rng.normal(size=dim) if u.dtype == complex else column
        for i in range(1, layout.qubit_count + 1):
            try:
                reference = kron_dressed_lowering(spectrum, i, columns)
            except LabelAmbiguityError:
                with pytest.raises(LabelAmbiguityError, match="no resolvable contexts"):
                    dynamics._dressed_lowering(spectrum, i, columns)
                continue
            assert dynamics._dressed_lowering(spectrum, i, columns).tobytes() == reference.tobytes()
        with pytest.raises(ConfigError, match="qubit index"):
            dynamics._lowering_pairs(layout, layout.qubit_count + 1)


class TestEvolve:
    def test_effective_rabi_oscillation(self):
        j = 2e-3
        h = build_effective_mixing(MixKind.THREE_QUBIT, j, 3)
        lay = h.layout
        rho0 = bare_state(lay, "gge", 0)
        t = np.linspace(0.0, math.pi / j, 200)
        series = evolve(rho0, diagonalize(h), {}, t)
        s3 = embed_qubit_op(lay, 3, SIGMA_MINUS)
        p3 = np.array([expectation(r, [s3.dag() @ s3]) for r in series.states])
        assert np.max(np.abs(p3 - np.cos(j * t) ** 2)) < 1e-8

    def test_zero_generator_is_constant(self):
        lay = HilbertLayout(1, 1)
        h = Operator(np.zeros((2, 2)), lay)
        rho0 = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
        series = evolve(rho0, diagonalize(h), {}, np.linspace(0, 10.0, 5))
        assert np.max(np.abs(series.states[-1] - rho0)) < 1e-14

    def test_matches_literal_stage_rk4(self, rng):
        dim = 4
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = Operator(raw + raw.conj().T, HilbertLayout(2, 1))
        spec = diagonalize(h)
        cavity = np.zeros((dim, dim))
        cavity[0, 3] = 0.05
        qubit1 = np.zeros((dim, dim))
        qubit1[1, 2] = 0.02
        rates = {"cavity": cavity, "qubit1": qubit1}
        rho0 = np.zeros((dim, dim), complex)
        rho0[3, 3] = 0.6
        rho0[2, 2] = 0.4
        rho0[2, 3] = rho0[3, 2] = 0.2
        step = 0.01
        n_steps = 64
        series = evolve(rho0, spec, rates, [0.0, n_steps * step], max_step=step)

        jump_ops = [
            (rate, np.outer(spec.states[:, j], spec.states[:, k].conj()))
            for _, j, k, rate in nonzero_rates(rates)
        ]
        assert len(jump_ops) == 2

        def rhs(rho):
            out = -1j * (h.mat @ rho - rho @ h.mat)
            for rate, ell in jump_ops:
                out += rate * (ell @ rho @ ell.conj().T
                               - 0.5 * (ell.conj().T @ ell @ rho + rho @ ell.conj().T @ ell))
            return out

        rho = np.array(rho0)
        for _ in range(n_steps):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * step * k1)
            k3 = rhs(rho + 0.5 * step * k2)
            k4 = rhs(rho + step * k3)
            rho = rho + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(series.states[-1] - rho)) < 1e-12

    def test_lossless_matches_exact_unitary(self, fig1b_preset):
        cfg = set_parameter(fig1b_preset, "qubits[2].omega", 0.7)
        h = build_generalized_dicke(cfg)
        spec = diagonalize(h)
        psi0 = bare_state(cfg.layout, "gge", 0)
        t = np.linspace(0.0, 400.0, 9)
        series = evolve(psi0, spec, {}, t)
        coeffs = spec.states.conj().T @ psi0.amp
        for snap, tk in zip(series.states, t):
            exact = spec.states @ (np.exp(-1j * spec.energies * tk) * coeffs)
            fid = state_fidelity(snap, Ket(exact, cfg.layout))
            assert abs(fid - 1.0) < 1e-8

    def test_trace_and_hermiticity_preserved(self, fig1b_preset):
        cfg = set_parameter(fig1b_preset, "qubits[2].omega", 0.968)
        h = build_generalized_dicke(cfg)
        spec = diagonalize(h)
        diss = build_dissipators(spec, cfg)
        rho0 = bare_state(cfg.layout, "gge", 0)
        series = evolve(rho0, spec, diss, np.linspace(0.0, 5000.0, 12))
        for snap in series.states:
            assert abs(np.trace(snap).real - 1.0) < 1e-7
            check_density(snap)

    def test_states_are_read_only_stack(self):
        lay = HilbertLayout(1, 2)
        h = Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay)
        series = evolve(bare_state(lay, "e", 1), diagonalize(h), {}, np.linspace(0.0, 1.0, 7))
        assert isinstance(series.states, np.ndarray)
        assert series.states.shape == (7, lay.dim, lay.dim)
        assert series.states.dtype == complex
        assert not series.states.flags.writeable
        with pytest.raises(ValueError):
            series.states[0, 0, 0] = 0.0

    def test_time_grid_validation(self, fig1b_preset):
        spec = diagonalize(build_generalized_dicke(fig1b_preset))
        rho0 = bare_state(fig1b_preset.layout, "gge", 0)
        with pytest.raises(ConfigError):
            evolve(rho0, spec, {}, [0.0, 2.0, 1.0])
        with pytest.raises(ConfigError):
            evolve(rho0, spec, {}, [])

    def test_rate_matrix_validation(self):
        lay = HilbertLayout(1, 2)
        spec = diagonalize(Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay))
        rho0 = bare_state(lay, "e", 1)
        good = np.zeros((4, 4))
        good[0, 3] = 0.1
        evolve(rho0, spec, {"cavity": good}, [0.0, 1.0])
        negative = good.copy()
        negative[1, 2] = -1e-9
        diagonal = good.copy()
        diagonal[2, 2] = 0.1
        nan = good.copy()
        nan[0, 1] = np.nan
        for bad in (np.zeros((3, 3)), np.zeros(4), negative, diagonal, nan):
            with pytest.raises(ConfigError):
                evolve(rho0, spec, {"cavity": good, "qubit1": bad}, [0.0, 1.0])


def snapshot_loop_expectation(stack, operators):
    """Reference: the per-snapshot Tr[rho O_1 O_2 ...] loop that evaluated
    observables before the time series became one array."""
    prod = operators[0].mat
    for op in operators[1:]:
        prod = prod @ op.mat
    values = []
    for rho in stack:
        val = complex(np.trace(rho @ prod))
        assert abs(val.imag) <= 1e-10 * max(1.0, abs(val.real))
        values.append(float(val.real))
    return np.array(values)


class TestObservables:
    @settings(max_examples=60, deadline=None)
    @given(qubits=st.integers(1, 2), cutoff=st.integers(1, 2), snapshots=st.integers(1, 6),
           n_ops=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_stacked_expectation_matches_snapshot_loop(self, qubits, cutoff, snapshots,
                                                       n_ops, seed):
        rng = np.random.default_rng(seed)
        lay = HilbertLayout(qubits, cutoff)
        d = lay.dim

        def random_matrix(shape):
            return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

        raw = random_matrix((snapshots, d, d))
        stack = raw + raw.conj().transpose(0, 2, 1)
        # A+ ... [H] ... A keeps the product Hermitian, as the observables are
        outer = [Operator(random_matrix((d, d)), lay) for _ in range(n_ops // 2)]
        middle = []
        if n_ops % 2:
            h = random_matrix((d, d))
            middle = [Operator(h + h.conj().T, lay)]
        ops = [a.dag() for a in outer] + middle + outer[::-1]
        values = expectation(stack, ops)
        assert values.shape == (snapshots,)
        np.testing.assert_allclose(values, snapshot_loop_expectation(stack, ops),
                                   rtol=0, atol=1e-12)
        assert expectation(stack[0], ops) == pytest.approx(values[0], abs=1e-12)

    def test_expectation_checks_every_snapshot_for_imaginary_residue(self):
        lay = HilbertLayout(1, 1)
        s1 = embed_qubit_op(lay, 1, SIGMA_MINUS)
        real = np.eye(2) / 2
        complex_coherence = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        assert expectation(np.stack([real, real]), [s1]).tolist() == [0.0, 0.0]
        with pytest.raises(NumericalError):
            expectation(np.stack([real, complex_coherence]), [s1])

    def test_check_density(self):
        check_density(np.diag([0.25, 0.75]))
        for bad in (np.array([[0.5, 0.1], [0.0, 0.5]]), np.diag([0.5, 0.6]),
                    np.diag([1.1, -0.1])):
            with pytest.raises(NumericalError):
                check_density(bad)
        with pytest.raises(ConfigError):
            check_density(np.ones((2, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_states_are_named(self, entry):
        lay = HilbertLayout(1, 2)
        spec = diagonalize(Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay))
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = rho[1, 0] = entry
        with pytest.raises(NumericalError, match="density matrix has a non-finite entry"):
            check_density(rho)
        vector = np.array([entry, 1.0, 0.0, 0.0])
        for bad in (rho, vector, Ket(vector, lay)):
            with pytest.raises(ConfigError, match="initial state has a non-finite entry"):
                evolve(bad, spec, {}, [0.0, 1.0])
            with pytest.raises(ConfigError, match="initial state has a non-finite entry"):
                expectation_series(bad, spec, {}, [0.0, 1.0], [identity(lay)])

    def test_expectation_projector(self):
        lay = HilbertLayout(2, 1)
        ket = bare_state(lay, "eg", 0)
        rho = np.outer(ket.amp, ket.amp.conj())
        s1 = embed_qubit_op(lay, 1, SIGMA_MINUS)
        assert expectation(rho, [s1.dag(), s1]) == pytest.approx(1.0, abs=1e-14)
        s2 = embed_qubit_op(lay, 2, SIGMA_MINUS)
        assert expectation(rho, [s2.dag(), s2]) == pytest.approx(0.0, abs=1e-14)

    def test_expectation_dimension_mismatch(self):
        lay2 = HilbertLayout(2, 1)
        lay3 = HilbertLayout(3, 1)
        rho = np.eye(lay2.dim) / lay2.dim
        with pytest.raises(ConfigError):
            expectation(rho, [embed_qubit_op(lay3, 1, SIGMA_MINUS)])

    def test_fidelity_limits(self):
        lay = HilbertLayout(1, 2)
        ket = bare_state(lay, "g", 1)
        rho = np.outer(ket.amp, ket.amp.conj())
        assert state_fidelity(rho, ket) == pytest.approx(1.0, abs=1e-14)
        orthogonal = bare_state(lay, "e", 0)
        assert state_fidelity(rho, orthogonal) == pytest.approx(0.0, abs=1e-14)

    def test_fidelity_of_an_evolved_lossy_state(self):
        # evolve guarantees trace and populations only to 1e-7, but with the
        # default step the trace here drifts by 1.6e-11, inside the margin
        cfg = decoupled_config()
        spec = diagonalize(build_generalized_dicke(cfg))
        start = bare_state(cfg.layout, "eg", 0)
        ground = bare_state(cfg.layout, "gg", 0)
        times = np.linspace(0.0, 2000.0, 9)
        series = evolve(start, spec, build_dissipators(spec, cfg), times)
        survival = np.array([state_fidelity(rho, start) for rho in series.states])
        decayed = np.array([state_fidelity(rho, ground) for rho in series.states])
        np.testing.assert_allclose(survival, np.exp(-1e-3 * times), rtol=1e-9)
        traces = np.trace(series.states, axis1=1, axis2=2).real
        np.testing.assert_allclose(survival + decayed, traces, rtol=0, atol=1e-14)

    def test_fidelity_clips_only_rounding(self):
        lay = HilbertLayout(1, 2)
        ket = bare_state(lay, "g", 1)
        rho = np.outer(ket.amp, ket.amp.conj())
        assert state_fidelity((1 + 5e-11) * rho, ket) == 1.0
        assert state_fidelity(-5e-11 * rho, ket) == 0.0
        for bad in (2 * rho, (1 + 1e-9) * rho, -1e-9 * rho):
            with pytest.raises(NumericalError, match="outside"):
                state_fidelity(bad, ket)


def reference_interval_maps(spec, rates, times, max_step=None):
    """Reference: the RK4 maps of one grid interval, as the step loop of
    evolve built them before the dynamics were streamed.  Returns a function
    of the interval length giving the coherence multipliers g_n (d x d) and
    the population map p_n."""
    dim = spec.dim
    e = spec.energies
    gain = np.zeros((dim, dim))
    for r in rates.values():
        gain += np.asarray(r, dtype=float)
    out_rate = gain.sum(axis=0)
    if max_step is not None:
        h_max = float(max_step)
    else:
        spread = float(e[-1] - e[0])
        span = float(times[-1] - times[0])
        h_max = math.inf
        if spread > 0:
            h_max = 0.01 / spread
        if span > 0:
            h_max = min(h_max, span / 1000.0)
    omega = e[:, None] - e[None, :]
    decay = 0.5 * (out_rate[:, None] + out_rate[None, :])
    w_pop = gain - np.diag(out_rate)

    @functools.cache  # one build per distinct interval, as evolve's step cache did
    def interval_maps(dt):
        n = max(1, int(math.ceil(dt / h_max))) if math.isfinite(h_max) else 1
        h = dt / n
        z = h * (-1j * omega - decay)
        g_step = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
        m = h * w_pop
        m2 = m @ m
        p_step = np.eye(dim) + m + m2 / 2.0 + (m2 @ m) / 6.0 + (m2 @ m2) / 24.0
        return g_step**n, np.linalg.matrix_power(p_step, n)

    return interval_maps


def reference_evolve(rho0, hamiltonian, rates, t_grid, spectrum=None, max_step=None):
    """Reference: the step loop of evolve before the dynamics were streamed,
    turning every step back into the bare basis (input checks left out)."""
    spec = spectrum if spectrum is not None else diagonalize(hamiltonian)
    dim = spec.dim
    u = spec.states
    times = np.asarray(list(t_grid), dtype=float)
    arr = rho0.amp if isinstance(rho0, Ket) else np.asarray(rho0, dtype=complex)
    rho = u.conj().T @ (np.outer(arr, arr.conj()) if arr.ndim == 1 else np.array(arr)) @ u
    interval_maps = reference_interval_maps(spec, rates, times, max_step)
    u_dag = u.conj().T
    states = np.empty((times.size, dim, dim), dtype=complex)
    states[0] = u @ rho @ u_dag
    for p in range(1, times.size):
        g_n, p_n = interval_maps(float(times[p] - times[p - 1]))
        pops = p_n @ np.real(np.diag(rho))
        rho = g_n * rho
        np.fill_diagonal(rho, pops)
        states[p] = u @ rho @ u_dag
    return states


def reference_expectation(stack, operators):
    """Reference: the stacked expectation, one einsum over all snapshots."""
    if isinstance(operators, Operator):
        operators = (operators,)
    prod = operators[0].mat
    for op in operators[1:]:
        prod = prod @ op.mat
    val = np.einsum("...ij,ji->...", stack, prod)
    assert np.all(np.abs(val.imag) <= 1e-10 * np.maximum(1.0, np.abs(val.real)))
    return val.real


def random_hermitian_product(rng, layout, n_ops):
    """A+ ... [H] ... A with unit-norm factors: Hermitian, expectations within [-1, 1]."""
    d = layout.dim

    def unit_matrix():
        m = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        return m / np.linalg.norm(m, 2)

    outer = [Operator(unit_matrix(), layout) for _ in range(n_ops // 2)]
    middle = []
    if n_ops % 2:
        h = unit_matrix()
        middle = [Operator((h + h.conj().T) / 2, layout)]
    return [a.dag() for a in outer] + middle + outer[::-1]


def rejected_runs():
    """(error, rates, grid, max_step, message pattern[, start, observable,
    spectrum]) of the runs that evolve and expectation_series both reject.
    A run without the last three starts in |e,1> of a four-level ladder
    (energies 0, 1, 2, 3) and observes sigma_+ sigma_-."""
    lay = HilbertLayout(1, 2)
    spec = diagonalize(Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay))
    rates = np.zeros((4, 4))
    rates[[0, 1, 0, 2, 1], [3, 3, 1, 3, 2]] = [1.0, 0.5, 0.3, 0.2, 0.4]
    diagonal = rates.copy()
    diagonal[2, 2] = 0.1
    cascade = np.zeros((4, 4))
    cascade[[0, 1, 0, 2, 1], [1, 2, 2, 3, 3]] = [1.0, 0.5, 0.3, 0.7, 0.2]
    plus = Ket(np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2), lay)
    quadrature = Operator(np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]), lay)
    # rate dominated: spread 0.01, decay rate 1
    lay2 = HilbertLayout(1, 1)
    spec2 = diagonalize(Operator(np.diag([0.0, 0.01]), lay2))
    decay = {"qubit1": np.array([[0.0, 1.0], [0.0, 0.0]])}
    plus2 = Ket(np.array([1.0, 1.0]) / math.sqrt(2), lay2)
    s2 = embed_qubit_op(lay2, 1, SIGMA_MINUS)
    return [
        (ConfigError, {}, [0.0, 2.0, 1.0], None, "strictly increasing"),
        (ConfigError, {}, [], None, "empty"),
        (ConfigError, {"cavity": diagonal}, [0.0, 1.0], None, "diagonal"),
        (StepSizeError, {"cavity": rates}, [0.0, 1000.0], 100.0, "trace drift"),
        # the step overflows the populations to inf and the trace to NaN
        (StepSizeError, {"cavity": rates}, [0.0, 1000.0], 10.0, "trace drift"),
        # the step keeps the trace at 1 but sends the populations to
        # -22.0, 357.0, -518.3 and 184.4
        (StepSizeError, {"cavity": cascade}, [0.0, 10.0], 10.0, "population"),
        # with h = 4 the live coherence of (|0> + |1>)/sqrt(2) shrinks by
        # about 0.33 a step, while the upper population grows fivefold and
        # the lower one goes to -1.5 ...
        (StepSizeError, decay, [0.0, 4.0], 4.0, "population", plus2, [s2.dag(), s2], spec2),
        # ... and 500 such steps overflow them, the trace to NaN
        (StepSizeError, decay, [0.0, 2000.0], 4.0, "trace drift", plus2, [s2.dag(), s2],
         spec2),
        # lossless, so trace and populations stay exact, but the step
        # multiplies the coherence of (|0> + |1>)/sqrt(2) by about 3.4e4,
        # and its quadrature |0><1| + h.c. reached 6.6e25 unchecked
        (StepSizeError, {}, np.linspace(0.0, 100.0, 11), 10.0, "coherence multiplier",
         plus, [quadrature], spec),
        # appended cases go last so the earlier cases keep their positions:
        # an infinite time passes the increasing check, and an interval can
        # need more steps of the default bound than a float counts
        (ConfigError, {}, [0.0, math.inf], None, "finite"),
        (ConfigError, {}, [-math.inf, 0.0], 1.0, "finite"),
        (ConfigError, {}, [0.0, 1e308], None, "RK4 steps"),
    ]


SMALL_LAYOUTS = [HilbertLayout(q, c) for q in (1, 2, 3) for c in range(1, 9)
                 if 2**q * c <= 16]


class TestExpectationSeries:
    @settings(max_examples=40, deadline=None)
    @given(layout=st.sampled_from(SMALL_LAYOUTS), channels=st.integers(0, 2),
           uniform=st.booleans(), points=st.integers(1, 12), n_obs=st.integers(0, 3),
           explicit_step=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_snapshot_stack(self, layout, channels, uniform, points, n_obs,
                                    explicit_step, seed):
        rng = np.random.default_rng(seed)
        d = layout.dim
        raw = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        h = Operator(raw + raw.conj().T, layout)
        spec = diagonalize(h)
        # downward rates over the ascending eigenbasis, each entry present at random
        rates = {f"channel{c}": np.triu(rng.uniform(0, 0.05, (d, d))
                                        * (rng.random((d, d)) < 0.5), 1)
                 for c in range(channels)}
        t0 = rng.uniform(-1, 1)
        if uniform:
            grid = np.linspace(t0, t0 + rng.uniform(0.1, 5.0), points)
        else:
            grid = t0 + np.cumsum(rng.uniform(0.01, 1.0, points))
        a = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        observables = [random_hermitian_product(rng, layout, int(rng.integers(1, 5)))
                       for _ in range(n_obs)]
        if observables and len(observables[0]) == 1:
            observables[0] = observables[0][0]  # a bare Operator, as expectation takes
        max_step = None
        if explicit_step:  # a stable step below the default rule's 0.01 / spread
            max_step = rng.uniform(0.1, 1) * 0.01 / (spec.energies[-1] - spec.energies[0])

        values = expectation_series(rho0, spec, rates, grid, observables, max_step=max_step)
        stack = reference_evolve(rho0, h, rates, grid, spectrum=spec, max_step=max_step)
        assert values.shape == (points, n_obs)
        assert values.dtype == float
        expected = np.array([reference_expectation(stack, ops) for ops in observables])
        np.testing.assert_allclose(values, expected.reshape(n_obs, points).T,
                                   rtol=0, atol=1e-13)
        # evolve's states are the reference's to the rounding of the products
        # that propagate rho~ (stream_rounding_bounds), carried through
        # U rho~ U+, and of the two products of inner dimension d that form
        # U rho~ U+ on each side, within gamma_2d |U| |rho~| |U+| of its
        # exact value (Higham §3.5), so twice that between the sides
        series = evolve(rho0, spec, rates, grid, max_step=max_step)
        start = eigenbasis_start(spec, rho0)
        off_diagonal = ~np.eye(d, dtype=bool)
        keep = np.flatnonzero(start * off_diagonal)
        assert start.all()  # a dense start: r = d, and evolve keeps every coherence
        bounds = stream_rounding_bounds(start, spec, rates, grid, d, keep, max_step)
        magnitude, moved = np.zeros((2, points, d, d))
        for array, pops, coh in ((magnitude, *bounds[:2]), (moved, *bounds[2:])):
            array[:, off_diagonal] = coh
            array[:, np.arange(d), np.arange(d)] = pops
        u = np.abs(spec.states)
        bound = u @ moved @ u.T + 2.0 * gamma(2 * d) * (u @ (magnitude + moved) @ u.T)
        assert np.all(np.abs(series.states - stack) <= bound)

    def test_rejects_what_evolve_rejects(self):
        lay = HilbertLayout(1, 2)
        spec = diagonalize(Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay))
        rho0 = bare_state(lay, "e", 1)
        s1 = embed_qubit_op(lay, 1, SIGMA_MINUS)
        for error, channels, grid, max_step, match, *state in rejected_runs():
            start, observable, spectrum = state or (rho0, [s1.dag(), s1], spec)
            with pytest.raises(error, match=match):
                evolve(start, spectrum, channels, grid, max_step=max_step)
            with pytest.raises(error, match=match):
                expectation_series(start, spectrum, channels, grid, [observable],
                                   max_step=max_step)
        with pytest.raises(ConfigError):
            expectation_series(rho0, spec, {}, [0.0, 1.0],
                               [embed_qubit_op(HilbertLayout(3, 1), 1, SIGMA_MINUS)])
        with pytest.raises(ConfigError):
            expectation_series(rho0, spec, {}, [0.0, 1.0], [[]])
        # every value passes the imaginary-residue check, as in expectation
        coherent = (bare_state(lay, "e", 0).amp + 1j * bare_state(lay, "g", 0).amp) / math.sqrt(2)
        with pytest.raises(NumericalError):
            expectation_series(coherent, spec, {}, [0.0, 1.0], [s1])

    def test_rejections_keep_their_messages(self):
        # the messages in full, as the stream gave them when it raised every
        # coherence's multiplier to the n-th power; it now reads the stability
        # check off |g_1|^n and raises only the kept multipliers
        messages = [
            "time grid must be strictly increasing",
            "empty time grid",
            "rate matrix 'cavity' must be zero on the diagonal",
            "trace drift 4.017e+59 exceeds 1.0e-07 at t = 1000; retry with a smaller max_step",
            "trace drift nan exceeds 1.0e-07 at t = 1000; retry with a smaller max_step",
            "population -5.183e+02 below -1.0e-07 at t = 10; retry with a smaller max_step",
            "population -1.500e+00 below -1.0e-07 at t = 4; retry with a smaller max_step",
            "trace drift nan exceeds 1.0e-07 at t = 2000; retry with a smaller max_step",
            "coherence multiplier 3.997e+02 exceeds 1 + 1.0e-07 at t = 10; retry with a "
            "smaller max_step",
            "time grid must be finite",
            "time grid must be finite",
            "interval 1e+308 before t = 1e+308 needs more RK4 steps of at most 0.00333 than a "
            "float can count",
        ]
        lay = HilbertLayout(1, 2)
        spec = diagonalize(Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay))
        s1 = embed_qubit_op(lay, 1, SIGMA_MINUS)
        default = (bare_state(lay, "e", 1), [s1.dag(), s1], spec)
        runs = rejected_runs()
        assert len(runs) == len(messages)
        for (error, channels, grid, max_step, _, *state), message in zip(runs, messages):
            start, observable, spectrum = state or default
            with pytest.raises(error) as raised:
                evolve(start, spectrum, channels, grid, max_step=max_step)
            assert str(raised.value) == message
            with pytest.raises(error) as raised:
                expectation_series(start, spectrum, channels, grid, [observable],
                                   max_step=max_step)
            assert str(raised.value) == message

    def test_coarse_step_on_a_population_start(self):
        # the lossless coarse step rejected above multiplies the coherences by
        # up to 3.4e4, but a population-only start has none to multiply: they
        # stay exactly zero and the step is taken
        lay = HilbertLayout(1, 2)
        spec = diagonalize(Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay))
        rho0 = bare_state(lay, "e", 1)
        s1 = embed_qubit_op(lay, 1, SIGMA_MINUS)
        grid = np.linspace(0.0, 100.0, 11)
        series = evolve(rho0, spec, {}, grid, max_step=10.0)
        np.testing.assert_array_equal(
            series.states, reference_evolve(rho0, None, {}, grid, spectrum=spec, max_step=10.0))
        values = expectation_series(rho0, spec, {}, grid, [[s1.dag(), s1]], max_step=10.0)
        np.testing.assert_array_equal(values, np.ones((11, 1)))

    @pytest.mark.parametrize("max_step", [math.nan, 0.0, -1.0])
    def test_rejects_a_step_that_is_not_positive(self, max_step):
        lay = HilbertLayout(1, 2)
        spec = diagonalize(Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay))
        rho0 = bare_state(lay, "e", 1)
        with pytest.raises(ConfigError, match="max_step must be positive"):
            evolve(rho0, spec, {}, [0.0, 1.0], max_step=max_step)
        with pytest.raises(ConfigError, match="max_step must be positive"):
            expectation_series(rho0, spec, {}, [0.0, 1.0], [identity(lay)], max_step=max_step)

    @pytest.mark.parametrize("t_grid, max_step, match", [
        ([0.0, 1.0], "0.1", "max_step must be a real number, got '0.1'"),
        ([0.0, 1.0], 1j, "max_step must be a real number, got 1j"),
        (["0", "x"], None, "time grid must be a 1-D sequence of real numbers"),
        (["0", "1"], None, "time grid must be a 1-D sequence of real numbers"),
        ([[0.0, 1.0], [2.0, 3.0]], None, "time grid must be a 1-D sequence of real numbers"),
        ([[0.0, 1.0], [2.0]], None, "time grid must be a 1-D sequence of real numbers"),
        (1.0, None, "time grid must be a 1-D sequence of real numbers"),
        ([0.0, 1j], None, "time grid must be a 1-D sequence of real numbers"),
    ])
    def test_rejects_malformed_arguments(self, t_grid, max_step, match):
        # a max_step or a time grid of the wrong type or shape is a
        # ConfigError, as every other argument check of the library
        lay = HilbertLayout(1, 2)
        spec = diagonalize(Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay))
        rho0 = bare_state(lay, "e", 1)
        with pytest.raises(ConfigError, match=re.escape(match)):
            evolve(rho0, spec, {}, t_grid, max_step=max_step)
        with pytest.raises(ConfigError, match=re.escape(match)):
            expectation_series(rho0, spec, {}, t_grid, [identity(lay)], max_step=max_step)

    def test_rejects_initial_states_that_are_not_density_matrices(self):
        lay = HilbertLayout(1, 2)
        spec = diagonalize(Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay))
        one = [identity(lay)]
        for bad in (Ket([2.0, 0.0, 0.0, 0.0], lay), np.array([2.0, 0.0, 0.0, 0.0]),
                    np.diag([0.5, 0.5, 1e-6, 0.0]),
                    np.array([[0.5, 0.1, 0, 0], [0.0, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])):
            with pytest.raises(ConfigError, match="initial state"):
                expectation_series(bad, spec, {}, [0.0, 1.0], one)
            with pytest.raises(ConfigError, match="initial state"):
                evolve(bad, spec, {}, [0.0, 1.0])
        # within the check_density limits the state is taken as given
        close = np.diag([0.5 + 1e-9, 0.5, 0.0, 0.0]).astype(complex)
        close[0, 1] = 1e-11
        assert expectation_series(close, spec, {}, [0.0, 1.0], one)[:, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("scenario", ["fig3", "fig5b", "figS2b"])
    def test_matches_snapshot_stack_at_preset_minima(self, scenario):
        start, spec, rates, grid, basis = dynamics_arguments(scenario)
        rho0 = pair_start(scenario)
        assert isinstance(rho0, Ket)  # the pair_symmetric start
        # the command's exact eigenbasis start is U+ rho0 U up to its rounding
        np.testing.assert_allclose(start, eigenbasis_start(spec, rho0), rtol=0, atol=1e-14)
        values, _, _ = dynamics._series(eigenbasis_start(spec, rho0), spec, rates, grid, basis)
        observables = bare_observables(spec, basis)
        stack = reference_evolve(rho0, None, rates, grid, spectrum=spec)
        expected = np.array([reference_expectation(stack, ops) for ops in observables]).T
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-13)
        np.testing.assert_allclose(dynamics._series(start, spec, rates, grid, basis)[0],
                                   expected, rtol=0, atol=1e-13)
        np.testing.assert_allclose(expectation_series(rho0, spec, rates, grid, observables),
                                   expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("start", ["pair_symmetric", "bare", "random"])
    def test_dropped_coherences_stay_within_the_bound(self, start, monkeypatch):
        _, spec, rates, grid, basis = dynamics_arguments("fig3")
        rho0 = pair_start("fig3")
        d = spec.dim
        if start == "bare":
            rho0 = bare_state(spec.layout, "gge", 0)
        elif start == "random":
            rng = np.random.default_rng(7)
            a = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
            rho0 = a @ a.conj().T
            rho0 /= np.trace(rho0).real
        u = spec.states
        basis = np.array(basis)
        # the rounding of U+ rho0 U leaves small coherences for the rule to drop
        rho0_eig = eigenbasis_start(spec, rho0)

        # the same stream with nothing but the zero coherences dropped
        times, every, _, stream = dynamics._eigenbasis_stream(rho0_eig, spec, rates, grid, None)
        ii, jj = np.divmod(every, d)
        undropped = np.array([diagonal @ np.diagonal(basis, axis1=1, axis2=2).T
                              + coh @ basis[:, jj, ii].T for diagonal, coh in stream]).real

        seen = {}
        eigenbasis_stream = dynamics._eigenbasis_stream

        def spy(*args):
            seen["reach"] = args[-1]
            times, keep, dropped_weight, steps = eigenbasis_stream(*args)
            seen["keep"] = keep
            return times, keep, dropped_weight, steps

        monkeypatch.setattr(dynamics, "_eigenbasis_stream", spy)
        values, kept_count, dropped_weight = dynamics._series(rho0_eig, spec, rates, grid,
                                                              basis)
        # the observables' bound that the series passes covers each of them
        np.testing.assert_allclose(seen["reach"], np.abs(basis).max(axis=0), rtol=1e-12, atol=0)

        # w_ij = |rho~0_ij| max_k |O~_k,ji| (1 + 1e-7)^(T-1), off the diagonal: the
        # stability check caps every live |g_ij| at 1 + 1e-7
        rho0_mat = (np.outer(rho0.amp, rho0.amp.conj()) if isinstance(rho0, Ket)
                    else rho0)
        weight = (np.abs(u.conj().T @ rho0_mat @ u) * np.abs(basis).max(axis=0).T
                  * (1 + 1e-7) ** (len(grid) - 1))
        np.fill_diagonal(weight, 0.0)
        kept = np.zeros(d * d, dtype=bool)
        kept[seen["keep"]] = True
        kept = kept.reshape(d, d)
        dropped = weight[~kept & ~np.eye(d, dtype=bool)]
        assert dropped.sum() <= 1e-15
        assert np.count_nonzero(dropped) > 0
        assert dropped.max() <= 1e-15
        # the rule drops as much as the bound allows: one more would cross it
        assert dropped.sum() + weight[kept].min() > 1e-15
        # what the manifest records: the kept count and the dropped weight
        assert kept_count == len(seen["keep"])
        assert dropped_weight == pytest.approx(dropped.sum(), rel=1e-12, abs=0)

        # the drops move no value by more than the bound, plus rounding of the
        # two sums (measured: at most 6.3e-16)
        np.testing.assert_allclose(values, undropped, rtol=0, atol=2e-15)
        stack = reference_evolve(rho0, None, rates, grid, spectrum=spec)
        expected = np.array([reference_expectation(stack, ops)
                             for ops in bare_observables(spec, basis)]).T
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-13)


    @pytest.mark.parametrize("scenario, pair_coherences", [
        ("fig3", [196, 259]), ("fig5b", [904, 1031]), ("figS2b", [904, 1031])])
    def test_stream_keeps_the_pair_and_its_exact_multipliers(self, scenario, pair_coherences):
        # the stream kept the flat indices a d + b and b d + a of the pair's
        # coherences (branches 3, 4 at d = 64; 7, 8 at d = 128) when it raised
        # every multiplier to the n-th power, and keeps them now
        start, spec, rates, grid, basis = dynamics_arguments(scenario)
        a, b = sorted(np.flatnonzero(np.diagonal(start) > 0.25).tolist())
        assert pair_coherences == [a * spec.dim + b, b * spec.dim + a]
        reach = np.abs(np.array(basis)).max(axis=0)
        # the command's exact start has no other live coherence to drop; the
        # rounding noise of U+ rho0 U on the bare start is dropped
        for rho0, most in ((start, 0.0), (eigenbasis_start(spec, pair_start(scenario)), 1e-15)):
            _, keep, dropped_weight, _ = dynamics._eigenbasis_stream(rho0, spec, rates, grid,
                                                                     None, reach)
            assert keep.tolist() == pair_coherences
            assert 0.0 <= dropped_weight <= most
            assert_kept_multipliers_are_the_full_powers(rho0, spec, rates, grid, reach)

    def test_a_random_start_keeps_the_full_powers(self):
        # a dense start keeps many coherences, each with its own multiplier
        _, spec, rates, grid, basis = dynamics_arguments("fig3")
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (spec.dim,) * 2) + 1j * rng.uniform(-1, 1, (spec.dim,) * 2)
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        reach = np.abs(np.array(basis)).max(axis=0)
        assert assert_kept_multipliers_are_the_full_powers(rho0, spec, rates, grid, reach) > 1000
        assert_kept_multipliers_are_the_full_powers(rho0, spec, rates, grid[:50], None)

    @pytest.mark.parametrize("scenario, start, block", [
        ("fig3", "command", 139), ("fig5b", "command", 66), ("figS2b", "command", 66),
        ("fig3", "random", 10)])
    def test_blocked_coherences_keep_the_full_powers(self, scenario, start, block):
        # the stream's own blocks: the command's exact start, and a dense start
        # that keeps many coherences on r = d levels
        rho0, spec, rates, grid, basis = dynamics_arguments(scenario)
        if start == "random":
            rng = np.random.default_rng(3)
            a = rng.uniform(-1, 1, (spec.dim,) * 2) + 1j * rng.uniform(-1, 1, (spec.dim,) * 2)
            rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        reach = np.abs(np.array(basis)).max(axis=0)
        assert assert_blocked_coherences_are_the_full_powers(rho0, spec, rates, grid, reach) == block


def assert_kept_multipliers_are_the_full_powers(rho0, spec, rates, grid, reach):
    """Step the stream one grid time a block and check, bit for bit, that
    each kept coherence is multiplied by its entry of the full-array g_1**n
    of the reference maps; returns the number of kept coherences."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_block_size", lambda *_: 1)
        times, keep, _, stream = dynamics._eigenbasis_stream(rho0, spec, rates, grid, None, reach)
    (dt,) = set(np.diff(times).tolist())
    g_n = reference_interval_maps(spec, rates, times)(dt)[0].reshape(-1)[keep]
    expected = None
    for _, coh in stream:
        expected = coh.copy() if expected is None else g_n * expected
        np.testing.assert_array_equal(coh, expected)
    return keep.size


def assert_blocked_coherences_are_the_full_powers(rho0, spec, rates, grid, reach):
    """Check that the stream's own blocks start from the one-step
    multiplier g_1**n of the reference maps, bit for bit, and that its
    coherences are those of the step-by-step products g_n * rho~ within the
    rounding bound of :func:`stream_rounding_bounds`; returns the largest
    block."""
    times, keep, _, stream = dynamics._eigenbasis_stream(rho0, spec, rates, grid, None, reach)
    (dt,) = set(np.diff(times).tolist())
    g_n = reference_interval_maps(spec, rates, times)(dt)[0].reshape(-1)[keep]
    [(_, _, powers)] = stream._runs  # the one run of the grid's one interval
    assert powers[0].tobytes() == g_n.tobytes()
    levels = stream.populations.shape[1]
    *_, coh_bound = stream_rounding_bounds(rho0, spec, rates, times, levels, keep)
    expected = None
    for (_, coh), bound in zip(stream, coh_bound):
        expected = coh.copy() if expected is None else g_n * expected
        assert np.all(np.abs(coh - expected) <= bound)
    return len(powers)


UNIT_ROUNDOFF = 2.0**-53


def gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u the unit roundoff of float64 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, §3.1)."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def stream_rounding_bounds(start, spectrum, rates, times, levels, keep, max_step=None):
    """How far two propagations of one start may move apart that take the
    same interval maps in a different order of products: the stepwise
    stream, one product a grid time, and the blocked one, which forms the
    powers of a map and multiplies them with the state before the block.

    The state at grid time t_p ends a chain of p products, each a step, a
    power formed from lower powers, or a power times the state before its
    block, with p maps as its factors however they are grouped.  A real
    product of inner dimension r errs by at most gamma_r |A||B|
    (Higham §3.5) and a complex one by at most sqrt(2) gamma_2 |x||y|
    (Lemma 3.5), so a chain of p errs by at most (1 + gamma)^p - 1 times
    the chain of magnitudes, |p_n| ... |p_n| |p_0| for the populations and
    |g_n| ... |g_n| |rho~0_ij| for a coherence; two chains differ by at most
    twice that.  A product that underflows errs by up to 2^-1075 more
    (gradual underflow, Higham §2.1): at most r of them an entry of a real
    product, 2 of a complex one, so each chain gains up to p such terms,
    grown by the largest column sum of the later |p_n| (1-norm) or |g_n|.
    Returns the chains of magnitudes of the r populations and of the kept
    coherences, (T, r) and (T, m) arrays, and the bounds on the differences
    of the populations and of the coherences, arrays of the same shapes."""
    maps = reference_interval_maps(spectrum, rates, times, max_step)
    tiny = float(np.finfo(float).smallest_subnormal)
    ii, jj = np.divmod(keep, spectrum.dim)
    pops, coh = np.abs(np.diagonal(start).real[:levels]), np.abs(start[ii, jj])
    pop_growth = coh_growth = max(1.0, float(pops.sum()))
    envelope, coh_envelope, pop_bound, coh_bound = [pops], [coh], [0 * pops], [0 * coh]
    for p, dt in enumerate(np.diff(times).tolist(), start=1):
        g_n, p_n = maps(dt)
        p_n, g_n = np.abs(p_n[:levels, :levels]), np.abs(g_n[ii, jj])
        pops, coh = p_n @ pops, g_n * coh
        pop_growth *= max(1.0, float(p_n.sum(axis=0).max()))
        coh_growth *= max(1.0, float(g_n.max(initial=0.0)))
        envelope.append(pops)
        coh_envelope.append(coh)
        pop_bound.append(2.0 * ((1.0 + gamma(levels)) ** p - 1.0) * pops
                         + 2.0 * p * levels * tiny * pop_growth)
        coh_bound.append(2.0 * ((1.0 + math.sqrt(2.0) * gamma(2)) ** p - 1.0) * coh
                         + 4.0 * p * tiny * coh_growth)
    return (np.array(envelope), np.reshape(coh_envelope, (len(times), -1)),
            np.array(pop_bound), np.reshape(coh_bound, (len(times), -1)))


def stepwise_stream(start, spectrum, rates, t_grid, max_step, reach=None, whole=False):
    """Reference: dynamics._eigenbasis_stream as it was when its generator
    checked the trace drift and the populations one grid step at a time, and
    weighted each coherence by max(1, |g_1|^n)^(T-1) off a per-coherence
    growth array, with its populations propagated on the leading r levels
    that the start and the rates reach, as the stream propagates them, or
    on all d levels with ``whole``, as the stream did before.  Returns what
    the stream returns, with a generator that yields rho~0's diagonal and
    then the r leading populations; a drift or population failure raises
    from the generator, at the step that has it."""
    dim, e = spectrum.dim, spectrum.energies
    tol = dynamics._DRIFT_TOL

    times = np.asarray(list(t_grid), dtype=float)
    if times.size < 1:
        raise ConfigError("empty time grid")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ConfigError("time grid must be strictly increasing")
    if not np.all(np.isfinite(times)):
        raise ConfigError("time grid must be finite")

    gain = np.zeros((dim, dim))
    for name, r in rates.items():
        r = np.asarray(r, dtype=float)
        if r.shape != (dim, dim):
            raise ConfigError(f"rate matrix {name!r} has shape {r.shape}, need {(dim, dim)}")
        if not np.all(r >= 0):
            raise ConfigError(f"rate matrix {name!r} has negative or NaN entries")
        if np.any(np.diagonal(r) != 0):
            raise ConfigError(f"rate matrix {name!r} must be zero on the diagonal")
        gain += r
    out_rate = gain.sum(axis=0)
    # levels 0..r-1 hold the start, and no rate gain[j, k], from k to j, leads out
    levels = dim if whole else 1 + int(np.max(np.nonzero(start), initial=0))
    while np.any(gain[levels:, :levels]):
        levels += 1

    if max_step is not None:
        if not max_step > 0:
            raise ConfigError("max_step must be positive")
        h_max = float(max_step)
    else:
        spread, span = float(e[-1] - e[0]), float(times[-1] - times[0])
        h_max = min(0.01 / spread if spread > 0 else math.inf,
                    span / 1000.0 if span > 0 else math.inf)

    live = np.array(np.nonzero(start))
    ii, jj = live[:, live[0] != live[1]]
    coherence_rate = -1j * (e[ii] - e[jj]) - 0.5 * (out_rate[ii] + out_rate[jj])
    w_pop = (gain - np.diag(out_rate))[:levels, :levels]

    intervals = np.diff(times).tolist()
    maps = {}
    g_reach = np.ones(ii.size)
    for p, dt in enumerate(intervals, start=1):
        if dt in maps:
            continue
        steps = dt / h_max
        if steps == math.inf:
            raise ConfigError(f"interval {dt:.6g} before t = {times[p]:.6g} needs more RK4 "
                              f"steps of at most {h_max:.3g} than a float can count")
        n = max(1, math.ceil(steps))
        h = dt / n
        g_1 = dynamics._rk4_scalar(h * coherence_rate)
        size = np.abs(g_1) ** n
        worst = float(size.max(initial=1.0))
        if not worst <= 1.0 + tol:
            raise StepSizeError(
                f"coherence multiplier {worst:.3e} exceeds 1 + {tol:.1e} at "
                f"t = {times[p]:.6g}; retry with a smaller max_step"
            )
        np.maximum(g_reach, size, out=g_reach)
        maps[dt] = (g_1, n, np.linalg.matrix_power(dynamics._rk4_matrix(h * w_pop), n))

    weight = np.abs(start[ii, jj])
    bound = 0.0
    if reach is not None:
        weight *= reach[jj, ii] * g_reach ** (times.size - 1)
        bound = dynamics._DROP_BOUND
    order = np.argsort(weight, kind="stable")
    cumulative = np.cumsum(weight[order])
    dropped = int(np.searchsorted(cumulative, bound, side="right"))
    dropped_weight = float(cumulative[dropped - 1]) if dropped else 0.0
    kept = np.sort(order[dropped:])
    ii, jj = ii[kept], jj[kept]
    step_maps = {dt: (g_1[kept] ** n, p_n) for dt, (g_1, n, p_n) in maps.items()}

    def steps():
        pops = np.real(np.diagonal(start))[:levels]
        coh = start[ii, jj].astype(complex)
        trace0 = float(pops.sum())
        yield np.diagonal(start), coh
        for p, dt in enumerate(intervals, start=1):
            g_n, p_n = step_maps[dt]
            pops = p_n @ pops
            np.multiply(g_n, coh, out=coh)
            drift = abs(float(pops.sum()) - trace0)
            if not drift <= tol:
                raise StepSizeError(
                    f"trace drift {drift:.3e} exceeds {tol:.1e} at t = {times[p]:.6g}; "
                    "retry with a smaller max_step"
                )
            low = float(pops.min())
            if not low >= -tol:
                raise StepSizeError(
                    f"population {low:.3e} below -{tol:.1e} at t = {times[p]:.6g}; "
                    "retry with a smaller max_step"
                )
            yield pops, coh

    return times, ii * dim + jj, dropped_weight, steps()


def drawn_stream(stream, *args):
    """(times, kept indices, dropped weight, copies of every yielded pair) of
    a stream, or the ConfigError or StepSizeError it raised while called or
    drawn."""
    try:
        times, keep, dropped_weight, steps = stream(*args)
        return times, keep, dropped_weight, [(d.copy(), c.copy()) for d, c in steps]
    except (ConfigError, StepSizeError) as err:
        return err


def drawn_grid(rng, kind, points):
    """A time grid of one of four kinds: ``linspace`` (whose intervals are
    equal only to rounding, so its runs of equal intervals are short),
    ``random`` intervals, ``equal`` intervals, or ``mixed``: a run of
    ``points`` equal intervals, three random ones, a second run of the
    first interval and a run of another.  The ``equal`` and ``mixed`` grids
    are multiples of 2^-8, so their runs are exactly equal."""
    t0 = rng.uniform(-1, 1)
    if kind == "linspace":
        return np.linspace(t0, t0 + rng.uniform(0.1, 5.0), points)
    if kind == "random":
        return t0 + np.cumsum(rng.uniform(0.01, 1.0, points))
    step, other = rng.integers(1, 64, 2)
    if kind == "equal":
        ticks = step * np.arange(points)
    else:
        ticks = np.cumsum(np.concatenate([[0], [step] * points, rng.integers(1, 64, 3),
                                          [step] * int(rng.integers(1, 6)), [other] * 4]))
    return (int(t0 * 256) + ticks) / 256.0


def same_rejection(got, expected):
    """Whether two stream errors are one rejection: the same type and
    message, up to the value of a trace drift or a population, which the
    order of the products moves."""
    def masked(err):
        return re.sub(r"^(trace drift|population) \S+", r"\1", str(err))
    return type(got) is type(expected) and masked(got) == masked(expected)


class TestStreamOracle:
    """The stream that checks the whole grid before it returns, and
    advances it in blocks, gives the stepwise stream's values to the
    rounding of their products, and its rejections."""

    @settings(max_examples=160, deadline=None)
    @given(layout=st.sampled_from(SMALL_LAYOUTS), channels=st.integers(0, 2),
           rate_scale=st.sampled_from([0.05, 2.0, 50.0]),
           grid_kind=st.sampled_from(["linspace", "random", "equal", "mixed"]),
           points=st.integers(1, 40), block=st.sampled_from([None, 1, 2, 3, 5]),
           blocks=st.integers(1, 4), overhang=st.sampled_from([-1, 0, 1]),
           step=st.sampled_from([None, "stable", "coarse"]),
           start=st.sampled_from(["ket", "dense", "block", "populations"]),
           with_reach=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_stepwise_stream(self, layout, channels, rate_scale, grid_kind,
                                         points, block, blocks, overhang, step, start,
                                         with_reach, seed):
        rng = np.random.default_rng(seed)
        d = layout.dim
        raw = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        spec = diagonalize(Operator(raw + raw.conj().T, layout))
        # downward rates over the ascending eigenbasis, each entry present at random
        rates = {f"channel{c}": np.triu(rng.uniform(0, rate_scale, (d, d))
                                        * (rng.random((d, d)) < 0.5), 1)
                 for c in range(channels)}
        if block is not None and grid_kind in ("equal", "mixed"):
            # a run of blocks * block intervals, one fewer or one more
            points = blocks * block + overhang + (grid_kind == "equal")
        grid = drawn_grid(rng, grid_kind, max(points, 1))
        # a stable step below the default rule's 0.01 / spread, or a coarse
        # one, up to 1e4 times that, which the checks may reject
        factor = {None: None, "stable": rng.uniform(0.1, 1),
                  "coarse": 10.0 ** rng.uniform(0, 4)}[step]
        max_step = None if factor is None else factor * 0.01 / (spec.energies[-1]
                                                                - spec.energies[0])
        # a pure state, a mixed one, a mixed one on eigen indices 0..r-1, or
        # one with no coherence; all but the block start have r = d
        r = int(rng.integers(1, min(d, 4) + 1)) if start == "block" else d
        a = rng.uniform(-1, 1, (r, 2 * r)) + 1j * rng.uniform(-1, 1, (r, 2 * r))
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[:r, :r] = a[:, :1] @ a[:, :1].conj().T if start == "ket" else a @ a.conj().T
        if start == "populations":
            rho0 = np.diag(np.diagonal(rho0))
        rho0 /= np.trace(rho0).real
        # an observables' bound that drops every coherence, some or none
        reach = rng.uniform(0, 1, (d, d)) * 10.0 ** rng.uniform(-18, 0) if with_reach else None

        args = (rho0, spec, rates, grid, max_step, reach)
        with np.errstate(all="ignore"):  # the reference's unstable steps overflow
            expected = drawn_stream(stepwise_stream, *args)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:  # blocks of the drawn size, within each run
                patch.setattr(dynamics, "_block_size", lambda *_: block)
            got = drawn_stream(dynamics._eigenbasis_stream, *args)
        if isinstance(expected, Exception):
            assert same_rejection(got, expected), (got, expected)
            return
        times, keep, dropped_weight, pairs = got
        ref_times, ref_keep, ref_dropped_weight, ref_pairs = expected
        assert times.tobytes() == ref_times.tobytes()
        assert len(pairs) == len(ref_pairs) == len(grid)
        if reach is None:
            assert keep.tobytes() == ref_keep.tobytes()
            assert dropped_weight == ref_dropped_weight == 0.0
        assert dropped_weight <= dynamics._DROP_BOUND
        _, at, ref_at = np.intersect1d(keep, ref_keep, assume_unique=True,
                                       return_indices=True)
        levels = ref_pairs[-1][0].size
        *_, pop_bound, coh_bound = stream_rounding_bounds(rho0, spec, rates, times, levels,
                                                          keep[at], max_step)
        for (diagonal, coh), (ref_diagonal, ref_coh), pop_tol, coh_tol in zip(
                pairs, ref_pairs, pop_bound, coh_bound):
            # the reference's r leading populations, to the rounding of the
            # products, and no population beyond them
            assert diagonal.dtype == ref_diagonal.dtype
            assert np.all(np.abs(diagonal[:levels] - ref_diagonal[:levels]) <= pop_tol)
            assert np.all(diagonal[levels:] == 0.0)
            assert np.all(np.abs(coh[at] - ref_coh[ref_at]) <= coh_tol)
        # rho~0 itself, and every grid time with blocks of one, bit for bit
        for p, ((diagonal, coh), (ref_diagonal, ref_coh)) in enumerate(zip(pairs, ref_pairs)):
            if p == 0 or block == 1:
                assert diagonal[:ref_diagonal.size].tobytes() == ref_diagonal.tobytes()
                assert coh[at].tobytes() == ref_coh[ref_at].tobytes()

    def test_step_errors_raise_at_the_call(self):
        # every trace drift and negative population is found before the
        # stream returns, at the first failing grid time, so its generator
        # is never drawn here
        lay = HilbertLayout(1, 2)
        spec = diagonalize(Operator(np.diag([0.0, 1.0, 2.0, 3.0]), lay))
        rho0 = bare_state(lay, "e", 1)
        runs = [run for run in rejected_runs() if run[4] in ("trace drift", "population")]
        assert len(runs) == 5
        for _, channels, grid, max_step, match, *state in runs:
            start, _, spectrum = state or (rho0, None, spec)
            with pytest.raises(StepSizeError, match=match):
                dynamics._eigenbasis_stream(eigenbasis_start(spectrum, start), spectrum,
                                            channels, grid, max_step)
        # the cascade overshoots at t = 10 and fails again at every later time
        cascade = dict(rejected_runs()[5][1])
        with pytest.raises(StepSizeError) as raised:
            dynamics._eigenbasis_stream(eigenbasis_start(spec, rho0), spec, cascade,
                                        [0.0, 10.0, 20.0, 30.0], 10.0)
        assert str(raised.value) == ("population -5.183e+02 below -1.0e-07 at t = 10; "
                                     "retry with a smaller max_step")


def whole_stream_series(start, spectrum, rates, t_grid, basis):
    """Reference: dynamics._series as it was before the stream ran on a
    leading block: the stepwise stream on all d levels, each grid time's
    populations and kept coherences contracted with the whole d x d
    observables."""
    dim = spectrum.dim
    basis = np.reshape(basis, (-1, dim, dim))
    _, keep, _, steps = stepwise_stream(start, spectrum, rates, t_grid, None,
                                        np.abs(basis).max(axis=0, initial=0.0), whole=True)
    ii, jj = np.divmod(keep, dim)
    diagonal_basis, coherence_basis = np.diagonal(basis, axis1=1, axis2=2).T, basis[:, jj, ii].T
    return np.array([diagonal @ diagonal_basis + coh @ coherence_basis
                     for diagonal, coh in steps]).real


class TestLeadingBlock:
    """The stream propagates the leading r levels that its start and its
    rates reach, and gives what the stream on all d levels gave."""

    @pytest.mark.parametrize("scenario", ["fig3", "fig5b"])
    @pytest.mark.parametrize("levels", [1, 4, 9, 40])
    def test_a_start_on_a_leading_block_matches_the_whole_stream(self, scenario, levels):
        _, spec, rates, grid, basis = dynamics_arguments(scenario)
        d = spec.dim
        rng = np.random.default_rng(levels)
        a = rng.uniform(-1, 1, (levels, levels)) + 1j * rng.uniform(-1, 1, (levels, levels))
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[:levels, :levels] = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        assert dynamics._propagated_levels(rho0, sum(rates.values())) == levels
        _, _, _, stream = dynamics._eigenbasis_stream(rho0, spec, rates, grid, None)
        assert stream.populations.shape == (len(grid), levels)
        values, _, _ = dynamics._series(rho0, spec, rates, grid, basis)
        np.testing.assert_allclose(values, whole_stream_series(rho0, spec, rates, grid, basis),
                                   rtol=0, atol=1e-13)

    def test_a_bare_start_propagates_every_level(self):
        # ["bare", "gge", 0] has weight on the top level, so r = d: the
        # stream's populations and coherences are those of the stepwise
        # stream on all d levels to the rounding of their products
        # (stream_rounding_bounds), and the written values are the stepwise
        # series' to that rounding carried through the contraction with the
        # observables, whose products of inner dimension d + m each err by at
        # most gamma_(d+m+1) times the sum of the magnitudes of their terms
        # (Higham §3.1), plus the weight each series drops, at most 1e-15
        cfg = get_preset("fig3")
        cfg = dict(cfg, dynamics=dict(cfg["dynamics"], initial=["bare", "gge", 0]))
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_series", lambda *args: calls.append(args) or
                          dynamics._series(*args))
            files, manifest = cli.cmd_dynamics(cfg, build_system(cfg))
        (start, spec, rates, grid, basis), = calls
        assert manifest["propagated_levels"] == spec.dim == 64
        assert manifest["coherences_kept"] == 2966
        assert all(o.shape == (spec.dim, spec.dim) for o in basis)
        _, keep, _, pairs = drawn_stream(dynamics._eigenbasis_stream, start, spec, rates, grid,
                                         None)
        ref_pairs = drawn_stream(stepwise_stream, start, spec, rates, grid, None, None, True)[3]
        d = spec.dim
        envelope, coh_envelope, pop_bound, coh_bound = stream_rounding_bounds(
            start, spec, rates, grid, d, keep)
        for (diagonal, coh), (ref_diagonal, ref_coh), pop_tol, coh_tol in zip(
                pairs, ref_pairs, pop_bound, coh_bound):
            assert np.all(np.abs(diagonal - ref_diagonal) <= pop_tol)
            assert np.all(np.abs(coh - ref_coh) <= coh_tol)
        ii, jj = np.divmod(keep, d)
        diagonal_basis = np.abs(np.diagonal(np.array(basis), axis1=1, axis2=2)).T
        coherence_basis = np.abs(np.array(basis)[:, jj, ii]).T
        terms = ((envelope + pop_bound) @ diagonal_basis
                 + (coh_envelope + coh_bound) @ coherence_basis)
        bound = (pop_bound @ diagonal_basis + coh_bound @ coherence_basis
                 + 2.0 * gamma(d + keep.size + 1) * terms + 2.0 * dynamics._DROP_BOUND)
        written = np.loadtxt(io.BytesIO(files["dynamics.csv"]), delimiter=",", skiprows=1)
        assert np.all(np.abs(written[:, 1:] - whole_stream_series(start, spec, rates, grid, basis))
                      <= bound)

    @pytest.mark.parametrize("scenario, blocks, rows", [
        ("fig3", ([700], [11, 10, 10]), ([700], [16, 16, 16])),
        ("fig5b", ([600], [1, 4, 4]), ([600], [4, 4, 4]))])
    def test_blocks_follow_the_sizes(self, scenario, blocks, rows):
        # a block of b grid times forms b powers of the r x r population map,
        # b r^3 flops, at most the r^2 of each step of the run it replaces,
        # and holds b grid times of the m kept coherences in at most 1 MiB.
        # So the command's pair start (r = 5 of T = 700 on fig3, r = 9 of
        # T = 600 on fig5b, m = 2) advances in blocks of 699 // 5 = 139 or
        # 599 // 9 = 66; a bare start, r = d, in blocks of 699 // 64 = 10 on
        # fig3, and on fig5b of 599 // 128 = 4, where 4 grid times of its
        # 16,256 coherences take 1,040,384 bytes.  Every block is written
        # into one buffer of min(T, 1 MiB / 16 m) rows, row 0 rho~0's, and a
        # block that does not fit first yields the rows held: the pair start
        # yields all T rows at once, fig3's bare start (16 rows of its 4,032
        # coherences) row 0 with the first block, 11, and then 10 at a time,
        # and fig5b's (4 rows) row 0 alone and then 4 at a time.  Random
        # intervals, each its own run, advance in blocks of one into the
        # same rows: all T for the pair start, 16 for fig3's bare start and
        # 4 for fig5b's
        start, spec, rates, grid, _ = dynamics_arguments(scenario, whole=False)
        excited_last = "g" * (spec.layout.qubit_count - 1) + "e"
        bare = eigenbasis_start(spec, bare_state(spec.layout, excited_last, 0))
        random_grid = grid[0] + np.cumsum(np.random.default_rng(1).uniform(0.5, 1.5, len(grid)))
        for times, expected in ((grid, blocks), (random_grid, rows)):
            for rho0, leading in zip((start, bare), expected):
                _, _, _, stream = dynamics._eigenbasis_stream(rho0, spec, rates, times, None)
                firsts, sizes, nbytes = zip(*((p, len(coh), coh.nbytes)
                                              for p, coh in stream.blocks()))
                assert list(sizes[:3]) == leading
                assert sum(sizes) == len(times)
                assert list(firsts) == np.cumsum((0,) + sizes[:-1]).tolist()
                assert max(nbytes) <= 1 << 20

    def test_an_upward_rate_grows_the_block(self):
        # a pair start on levels 3 and 4 of a diagonal Hamiltonian, whose
        # eigenbasis start is exact, under downward rates and a pump from
        # level 0 up to 5 and from 5 up to 6: levels 0..4 grow to 0..6 of 8.
        # Without the growth the pumped population would leave the block
        lay = HilbertLayout(2, 2)
        spec = diagonalize(Operator(np.diag([0.0, 1.0, 1.7, 2.2, 2.3, 3.1, 3.9, 4.6]), lay))
        rng = np.random.default_rng(5)
        rates = {"cavity": np.triu(rng.uniform(0, 0.05, (8, 8)), 1)}
        rho0 = Ket(np.array([0, 0, 0, 1, 1, 0, 0, 0]) / math.sqrt(2), lay)
        start = eigenbasis_start(spec, rho0)
        assert dynamics._propagated_levels(start, rates["cavity"]) == 5
        pump = np.zeros((8, 8))
        pump[5, 0] = pump[6, 5] = 0.05
        rates["pump"] = pump
        assert dynamics._propagated_levels(start, sum(rates.values())) == 7
        grid = np.linspace(0.0, 40.0, 41)
        _, _, _, stream = dynamics._eigenbasis_stream(start, spec, rates, grid, None)
        assert stream.populations.shape == (41, 7)
        assert stream.populations[-1, 5] > 1e-2 and stream.populations[-1, 6] > 1e-2
        stack = reference_evolve(rho0, None, rates, grid, spectrum=spec)
        np.testing.assert_allclose(evolve(rho0, spec, rates, grid).states, stack,
                                   rtol=0, atol=1e-13)
        observables = [random_hermitian_product(rng, lay, n) for n in (1, 2, 3)]
        expected = np.array([reference_expectation(stack, ops) for ops in observables]).T
        np.testing.assert_allclose(expectation_series(rho0, spec, rates, grid, observables),
                                   expected, rtol=0, atol=1e-13)

    def test_an_upward_rate_on_the_command_start_matches_the_whole_stream(self):
        # the same pump on fig3's exact pair start (branches 3 and 4), up to
        # level 5 and from 5 up to 9, grows its levels 0..4 to 0..9 of 64
        start, spec, rates, grid, basis = dynamics_arguments("fig3")
        assert dynamics._propagated_levels(start, sum(rates.values())) == 5
        pump = np.zeros((spec.dim, spec.dim))
        pump[5, 3] = pump[9, 5] = 1e-3
        pumped = dict(rates, pump=pump)
        _, _, _, stream = dynamics._eigenbasis_stream(start, spec, pumped, grid, None)
        assert stream.populations.shape[1] == 10
        assert stream.populations[-1, 5] > 1e-3 and stream.populations[-1, 9] > 1e-3
        np.testing.assert_allclose(dynamics._series(start, spec, pumped, grid, basis)[0],
                                   whole_stream_series(start, spec, pumped, grid, basis),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("scenario", ["fig3", "fig5b", "figS2b"])
    def test_command_observables_are_the_leading_blocks(self, scenario):
        # the command builds each observable's r x r block from the first r
        # columns of its lowering factors: the same bits as the leading block
        # of the whole d x d product
        whole = dynamics_arguments(scenario)[4]
        block = dynamics_arguments(scenario, whole=False)[4]
        levels = {"fig3": 5, "fig5b": 9, "figS2b": 9}[scenario]
        assert len(block) == len(whole)
        for o_block, o_whole in zip(block, whole):
            assert o_block.shape == (levels, levels)
            assert o_block.tobytes() == o_whole[:levels, :levels].tobytes()

    def test_series_allocates_no_grid_by_dimension_array(self):
        # fig5b's command arguments, d = 128 and T = 600: the populations of
        # the whole grid are held as a (T, 9) array, well under half of the
        # (T, d) array the stream built when it propagated every level
        start, spec, rates, grid, basis = dynamics_arguments("fig5b", whole=False)
        dynamics._series(start, spec, rates, grid, basis)
        tracemalloc.start()
        try:
            dynamics._series(start, spec, rates, grid, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(grid), spec.dim) == (600, 128)
        assert peak < len(grid) * spec.dim * 8 / 2


@pytest.mark.parametrize("scenario", ["fig3", "fig5b", "figS2b"])
def test_real_frame_matches_the_complex_frame(scenario):
    # the same spectrum with complex eigenvectors takes every product in
    # complex arithmetic, as all of them ran before the frame was real
    rho0, spec, rates, grid, basis = dynamics_arguments(scenario)
    system = build_system(get_preset(scenario))
    complex_spec = dataclasses.replace(spec, states=spec.states.astype(complex))
    assert spec.states.dtype == np.float64 and complex_spec.states.dtype == np.complex128
    complex_rates = build_dissipators(complex_spec, system)
    assert list(complex_rates) == list(rates)
    for name, r in rates.items():
        np.testing.assert_allclose(r, complex_rates[name], rtol=0, atol=1e-14 * r.max())
    values, kept, _ = dynamics._series(rho0, spec, rates, grid, basis)
    complex_values, complex_kept, _ = dynamics._series(
        rho0, complex_spec, complex_rates, grid, [o.astype(complex) for o in basis])
    assert kept == complex_kept
    np.testing.assert_allclose(values, complex_values, rtol=0, atol=1e-14)
    lower = dynamics._cavity_lowering(spec)
    assert lower.dtype == np.float64
    np.testing.assert_allclose(lower, dynamics._cavity_lowering(complex_spec), rtol=0,
                               atol=1e-14)


@pytest.mark.parametrize("initial, member", [("pair_symmetric", 0),
                                             ("pair_antisymmetric", 1)])
def test_pair_start_is_the_superposition_state(initial, member):
    # the command forms its start from the frame columns of its lowering
    # operators; U times the column must be the vector superposition_states
    # gives, and the start its eigenbasis projector
    cfg = get_preset("fig3")
    cfg = dict(cfg, dynamics=dict(cfg["dynamics"], initial=initial, observables=[]))
    calls, frames = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_series", lambda *args: calls.append(args) or
                      dynamics._series(*args))
        patch.setattr(cli, "_pair_columns",
                      lambda rep: frames.append(_pair_columns(rep)) or frames[-1])
        cli.cmd_dynamics(cfg, build_system(cfg))
    (rho0, spec, *_), = calls
    rep = _search(find_anticrossing, build_system(cfg), cfg["anticross"])
    column = frames[0][rep.bare_pair[member]]
    np.testing.assert_array_equal(spec.states @ column, superposition_states(rep)[member].amp)
    np.testing.assert_array_equal(rho0, np.outer(column, column.conj()))


def test_bare_start_is_the_bare_state_in_the_eigenbasis():
    # ["bare", levels, photons] starts in U+ e_b, row b of U conjugated: the
    # command writes what expectation_series gives for the bare state and
    # the bare observables U O~ U+
    cfg = get_preset("fig3")
    cfg = dict(cfg, dynamics=dict(cfg["dynamics"], initial=["bare", "gge", 0]))
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_series", lambda *args: calls.append(args) or
                      dynamics._series(*args))
        files, _ = cli.cmd_dynamics(cfg, build_system(cfg))
    (_, spec, rates, grid, basis), = calls
    written = np.loadtxt(io.BytesIO(files["dynamics.csv"]), delimiter=",", skiprows=1)
    np.testing.assert_array_equal(written[:, 0], grid)
    expected = expectation_series(bare_state(spec.layout, "gge", 0), spec, rates, grid,
                                  bare_observables(spec, basis))
    np.testing.assert_allclose(written[:, 1:], expected, rtol=0, atol=1e-13)


@functools.cache
def dynamics_arguments(scenario, whole=True):
    """The arguments the ``dynamics`` command passes to dynamics._series for a
    bundled scenario: the initial state, the spectrum at the search minimum,
    the rates, the time grid and the observables' eigenbasis matrices, built
    with the dressed pair's frame columns.  The command builds only the
    leading r x r blocks of the observables, r the levels its start reaches;
    with ``whole`` they are built d x d, as the command built them before."""
    calls = []

    def record(*args):
        calls.append(args)
        return dynamics._series(*args)

    cfg = get_preset(scenario)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_series", record)
        if whole:
            patch.setattr(cli, "_propagated_levels", lambda start, gain: len(start))
        cli.cmd_dynamics(cfg, build_system(cfg))
    (args,) = calls
    return args


@functools.cache
def pair_start(scenario):
    """The bare-basis Ket of a bundled scenario's pair_symmetric start."""
    cfg = get_preset(scenario)
    return superposition_states(_search(find_anticrossing, build_system(cfg),
                                        cfg["anticross"]))[0]


def eigenbasis_start(spec, rho0):
    """U+ rho0 U of a bare start (Ket, vector or matrix), as evolve and
    expectation_series form it."""
    u = spec.states
    return u.conj().T @ dynamics._coerce_rho(rho0, spec.dim) @ u


def bare_observables(spec, basis):
    """The bare-basis operators U O~ U+ of eigenbasis observables."""
    u = spec.states
    return [Operator(u @ o @ u.conj().T, spec.layout) for o in basis]


def test_cascade_triple_correlation_tracks_excitations(four_qubit_cascade):
    # in the cascade process the three acceptor qubits become jointly excited:
    # the triple correlator rises close to the single-qubit excitation curves
    rep = find_anticrossing(four_qubit_cascade, "qubits[0].omega", (1.60, 1.69),
                            (("eggg", 0), ("geee", 0)))
    spec, lay = rep.spectrum, four_qubit_cascade.layout
    u_idx, v_idx = lay.bare_index("eggg", 0), lay.bare_index("geee", 0)
    ud, vd = superposition_states(rep)
    overrides = {u_idx: ud, v_idx: vd}
    low = {i: build_dressed_lowering(spec, i, overrides) for i in (2, 3, 4)}
    half_j = rep.splitting / 2
    t = np.linspace(0.0, 1.1 * math.pi / (2 * half_j), 300)
    series = evolve(ud, spec, build_dissipators(spec, four_qubit_cascade), t)
    p2 = np.array([expectation(r, [low[2].dag(), low[2]]) for r in series.states])
    triple_ops = ([low[q].dag() for q in (2, 3, 4)] + [low[q] for q in (4, 3, 2)])
    c234 = np.array([expectation(r, triple_ops) for r in series.states])
    k = int(np.argmax(c234))
    assert c234[k] > 0.6
    assert c234[k] > 0.8 * p2[k]


def test_transfer_timing_matches_splitting(fig1b_preset):
    # first minimum of the swept-qubit excitation sits at pi/(2J) +- 5%
    rep = find_anticrossing(fig1b_preset, "qubits[2].omega", (0.90, 1.02),
                            (("gge", 0), ("eeg", 0)))
    spec, lay = rep.spectrum, fig1b_preset.layout
    u_idx, v_idx = lay.bare_index("gge", 0), lay.bare_index("eeg", 0)
    ud, vd = superposition_states(rep)
    s3 = build_dressed_lowering(spec, 3, {u_idx: ud, v_idx: vd})
    half_j = rep.splitting / 2
    t_half = math.pi / (2 * half_j)
    t = np.linspace(0.0, 1.2 * t_half, 500)
    series = evolve(ud, spec, build_dissipators(spec, fig1b_preset), t)
    p3 = np.array([expectation(r, [s3.dag(), s3]) for r in series.states])
    t_min = t[int(np.argmin(p3))]
    assert abs(t_min - t_half) / t_half < 0.05


def test_transfer_robust_to_tenfold_cavity_damping(fig1b_preset):
    # the excitation rides virtual photons, so a 10x larger kappa moves the
    # first transfer maximum by well under 5%
    rep = find_anticrossing(fig1b_preset, "qubits[2].omega", (0.90, 1.02),
                            (("gge", 0), ("eeg", 0)))
    lay = fig1b_preset.layout
    u_idx, v_idx = lay.bare_index("gge", 0), lay.bare_index("eeg", 0)
    half_j = rep.splitting / 2
    t_half = math.pi / (2 * half_j)
    t = np.linspace(0.0, 1.2 * t_half, 500)
    peaks = []
    for kappa in (fig1b_preset.kappa, 10 * fig1b_preset.kappa):
        cfg = SystemConfig(fig1b_preset.qubits, omega_c=fig1b_preset.omega_c,
                           kappa=kappa, fock_cutoff=fig1b_preset.fock_cutoff)
        spec = rep.spectrum
        ud, vd = superposition_states(rep)
        s1 = build_dressed_lowering(spec, 1, {u_idx: ud, v_idx: vd})
        series = evolve(ud, spec, build_dissipators(spec, cfg), t)
        p1 = np.array([expectation(r, [s1.dag(), s1]) for r in series.states])
        peaks.append(t[int(np.argmax(p1))])
    assert abs(peaks[1] - peaks[0]) / peaks[0] < 0.05
