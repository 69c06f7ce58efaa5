import functools
import itertools
import math
import re

import numpy as np
import pytest

from vpmix import (
    ConfigError,
    MixKind,
    QubitParams,
    ResonantParameterError,
    SystemConfig,
    bare_state,
    build_effective_mixing,
    build_generalized_dicke,
    build_tavis_cummings,
    dicke_interaction,
    diagonalize,
    dispersive_pair_coupling,
    parity_operator,
    tavis_cummings_interaction,
    total_excitation_number,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmix.algebra import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    cavity_annihilation,
    cavity_number,
    cavity_quadrature,
    HilbertLayout,
    embed_qubit_op,
)
from vpmix.model import (
    _Pencil,
    _assemble,
    _buffer,
    _layout_terms,
    bare_hamiltonian,
)
from vpmix.cli import build_system
from vpmix.presets import get_preset
from vpmix.spectrum import _parameter_field, _Solver, set_parameter

PI6 = math.pi / 6


def two_qubit(omega1=0.5, omega2=0.7, lam=0.1, theta=0.0, omega_c=1.3, cutoff=4):
    return SystemConfig(
        (QubitParams(omega1, lam, theta), QubitParams(omega2, lam, theta)),
        omega_c=omega_c,
        fock_cutoff=cutoff,
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        QubitParams(omega=-0.5, lam=0.1)
    with pytest.raises(ConfigError):
        QubitParams(omega=0.5, lam=-0.1)
    with pytest.raises(ConfigError):
        SystemConfig((QubitParams(0.5, 0.1),), omega_c=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["omega", "lam", "theta", "gamma"])
def test_qubit_rejects_non_finite_fields(field, value):
    fields = {"omega": 0.5, "lam": 0.1, "theta": 0.2, "gamma": 1e-3, field: value}
    with pytest.raises(ConfigError, match=f"qubit {field} must be finite"):
        QubitParams(**fields)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["omega_c", "kappa", "fock_cutoff"])
def test_system_rejects_non_finite_fields(field, value):
    fields = {"omega_c": 1.0, "kappa": 1e-3, "fock_cutoff": 2, field: value}
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        SystemConfig((QubitParams(0.5, 0.1),), **fields)


@pytest.mark.parametrize("value", ["x", None, 1j, [0.5]])
def test_fields_that_are_no_real_numbers_raise_config_errors(value):
    message = f" must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigError, match="^qubit omega" + message):
        QubitParams(value, 0.1)
    with pytest.raises(ConfigError, match="^qubit gamma" + message):
        QubitParams(0.5, 0.1, gamma=value)
    with pytest.raises(ConfigError, match="^omega_c" + message):
        SystemConfig((QubitParams(0.5, 0.1),), omega_c=value)
    with pytest.raises(ConfigError, match="^fock_cutoff" + message):
        SystemConfig((QubitParams(0.5, 0.1),), omega_c=1.0, fock_cutoff=value)
    with pytest.raises(ConfigError, match="^qubit_count" + message):
        HilbertLayout(value, 2)


def test_sizes_and_fields_beyond_the_float_range_raise_config_errors():
    with pytest.raises(ConfigError, match="qubit omega must be finite"):
        QubitParams(10**400, 0.1)
    with pytest.raises(ConfigError, match="kappa must be finite"):
        SystemConfig((QubitParams(0.5, 0.1),), omega_c=1.0, kappa=-10**400)
    with pytest.raises(ConfigError, match="fock_cutoff must be an integer, got 2.5"):
        SystemConfig((QubitParams(0.5, 0.1),), omega_c=1.0, fock_cutoff=2.5)
    with pytest.raises(ConfigError, match="qubit_count must be an integer, got 1.5"):
        HilbertLayout(1.5, 2)
    with pytest.raises(ConfigError, match="fock_cutoff must be an integer, got True"):
        HilbertLayout(2, True)
    with pytest.raises(ConfigError, match="qubit_count must be >= 1, got 0"):
        SystemConfig((), omega_c=1.0)
    assert SystemConfig((QubitParams(0.5, 0.1),), omega_c=1.0,
                        fock_cutoff=np.int64(3)).layout == HilbertLayout(1, 3)


def test_decoupled_spectrum_is_bare_sums():
    cfg = two_qubit(lam=0.0, cutoff=3)
    spec = diagonalize(build_generalized_dicke(cfg))
    expected = sorted(
        s1 * 0.25 + s2 * 0.35 + n * 1.3
        for s1, s2, n in itertools.product((-1, 1), (-1, 1), range(3))
    )
    expected = np.array(expected) - expected[0]
    assert np.max(np.abs(spec.energies - expected)) < 1e-12


def test_hamiltonians_hermitian():
    cfg = two_qubit(theta=PI6)
    assert build_generalized_dicke(cfg).hermiticity_defect() <= 1e-12
    assert build_tavis_cummings(cfg).hermiticity_defect() <= 1e-12


def test_parity_conserved_at_zero_angle():
    cfg = two_qubit(theta=0.0)
    h = build_generalized_dicke(cfg)
    parity = parity_operator(cfg.layout)
    comm = h @ parity - parity @ h
    assert np.max(np.abs(comm.mat)) < 1e-12


def test_parity_broken_at_finite_angle():
    cfg = two_qubit(theta=PI6)
    h = build_generalized_dicke(cfg)
    parity = parity_operator(cfg.layout)
    comm = h @ parity - parity @ h
    assert np.max(np.abs(comm.mat)) > 1e-3


def test_fig1b_lowest_levels_near_bare_qubits(fig1b_spec_literal):
    spec = diagonalize(build_generalized_dicke(fig1b_spec_literal))
    assert spec.energies[1] == pytest.approx(0.4, abs=0.02)
    assert spec.energies[2] == pytest.approx(0.6, abs=0.02)


def test_tavis_cummings_conserves_excitations():
    cfg = two_qubit(theta=PI6)  # theta ignored by the TC builder
    h = build_tavis_cummings(cfg)
    n = total_excitation_number(cfg.layout)
    comm = h @ n - n @ h
    assert np.max(np.abs(comm.mat)) == 0.0


def test_tc_single_qubit_resonant_doublet():
    lam = 0.08
    cfg = SystemConfig((QubitParams(1.0, lam),), omega_c=1.0, fock_cutoff=6)
    spec = diagonalize(build_tavis_cummings(cfg))
    # one-excitation doublet split by exactly 2 lam around the bare energy
    assert spec.energies[1] == pytest.approx(1.0 - lam, abs=1e-12)
    assert spec.energies[2] == pytest.approx(1.0 + lam, abs=1e-12)


def test_dicke_minus_tc_is_counter_rotating():
    cfg = two_qubit(theta=0.0)
    lay = cfg.layout
    diff = dicke_interaction(cfg).mat - tavis_cummings_interaction(cfg).mat
    a = cavity_annihilation(lay).mat
    expected = np.zeros_like(diff, dtype=complex)
    for i, q in enumerate(cfg.qubits, start=1):
        sp = embed_qubit_op(lay, i, SIGMA_PLUS).mat
        sm = embed_qubit_op(lay, i, SIGMA_MINUS).mat
        expected += q.lam * (a @ sm + a.conj().T @ sp)
    assert np.max(np.abs(diff - expected)) < 1e-14


# The kron-built assembly that the cached real terms replaced, kept as the
# reference: complex arithmetic, one embedding per term and a matrix product.
def kron_bare_hamiltonian(config):
    layout = config.layout
    h = np.zeros((layout.dim, layout.dim), dtype=complex)
    for i, q in enumerate(config.qubits, start=1):
        h += 0.5 * q.omega * embed_qubit_op(layout, i, SIGMA_Z).mat
    h += config.omega_c * cavity_number(layout).mat
    return h


def kron_dicke_interaction(config):
    layout = config.layout
    x = cavity_quadrature(layout).mat
    coup = np.zeros((layout.dim, layout.dim), dtype=complex)
    for i, q in enumerate(config.qubits, start=1):
        coup += q.lam * (
            math.cos(q.theta) * embed_qubit_op(layout, i, SIGMA_X).mat
            + math.sin(q.theta) * embed_qubit_op(layout, i, SIGMA_Z).mat
        )
    return x @ coup


def kron_tavis_cummings_interaction(config):
    layout = config.layout
    a = cavity_annihilation(layout).mat
    ad = a.conj().T
    v = np.zeros((layout.dim, layout.dim), dtype=complex)
    for i, q in enumerate(config.qubits, start=1):
        sp = embed_qubit_op(layout, i, SIGMA_PLUS).mat
        sm = embed_qubit_op(layout, i, SIGMA_MINUS).mat
        v += q.lam * (a @ sp + ad @ sm)
    return v


@settings(max_examples=60, deadline=None)
@given(
    qubits=st.lists(
        st.builds(QubitParams, omega=st.floats(0.05, 3.0), lam=st.floats(0.0, 0.5),
                  theta=st.floats(-100.0, 100.0)),
        min_size=1, max_size=4,
    ),
    omega_c=st.floats(0.05, 3.0),
    cutoff=st.integers(1, 6),
)
def test_cached_assembly_matches_kron_build(qubits, omega_c, cutoff):
    cfg = SystemConfig(tuple(qubits), omega_c=omega_c, fock_cutoff=cutoff)
    bare = kron_bare_hamiltonian(cfg)
    dicke = kron_dicke_interaction(cfg)
    tc = kron_tavis_cummings_interaction(cfg)
    for built, reference in (
        (bare_hamiltonian(cfg), bare),
        (dicke_interaction(cfg), dicke),
        (tavis_cummings_interaction(cfg), tc),
        (build_generalized_dicke(cfg), bare + dicke),
        (build_tavis_cummings(cfg), bare + tc),
    ):
        assert built.mat.dtype == np.float64
        assert np.max(np.abs(built.mat - reference)) <= 1e-13


# The out-of-place sums the in-place assemblers replaced, kept as the
# reference: a fresh array per dense term of the kron build below, two
# Operators and their sum.
def summed_bare(config):
    terms = _layout_terms(config.layout)
    diag = np.zeros(config.layout.dim)
    for q, sz in zip(config.qubits, terms.sigma_z):
        diag += 0.5 * q.omega * sz
    diag += config.omega_c * terms.number
    return np.diag(diag)


def summed_dicke(config):
    terms = local_lift_terms(config.layout)
    longitudinal = np.zeros(config.layout.dim)
    for q, sz in zip(config.qubits, _layout_terms(config.layout).sigma_z):
        longitudinal += q.lam * math.sin(q.theta) * sz
    coup = terms["quadrature"] * longitudinal
    for q, x_sx in zip(config.qubits, terms["x_sigma_x"]):
        coup += q.lam * math.cos(q.theta) * x_sx
    return summed_bare(config) + coup


def summed_tc(config):
    terms = local_lift_terms(config.layout)
    v = np.zeros((config.layout.dim, config.layout.dim))
    for q, term in zip(config.qubits, terms["exchange"]):
        v += q.lam * term
    return summed_bare(config) + v


def check_assembly(cfg):
    dim = cfg.layout.dim
    for model, summed, public in (
        ("dicke", summed_dicke, bare_hamiltonian(cfg) + dicke_interaction(cfg)),
        ("tc", summed_tc, bare_hamiltonian(cfg) + tavis_cummings_interaction(cfg)),
    ):
        reference = summed(cfg)
        # a stale buffer, as a sweep hands it over: every entry is rewritten
        out = np.full((dim, dim), np.nan)
        assert _assemble(model, cfg, out) is out
        assert np.array_equal(out, reference)
        # bytes too, so the sign of every zero is kept
        assert out.tobytes() == reference.tobytes()
        assert public.mat.tobytes() == reference.tobytes()
    assert build_generalized_dicke(cfg).mat.tobytes() == summed_dicke(cfg).tobytes()
    assert build_tavis_cummings(cfg).mat.tobytes() == summed_tc(cfg).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    qubits=st.lists(
        st.builds(QubitParams, omega=st.floats(0.05, 3.0), lam=st.floats(0.0, 0.5),
                  theta=st.floats(-100.0, 100.0)),
        min_size=1, max_size=4,
    ),
    omega_c=st.floats(0.05, 3.0),
    cutoff=st.integers(1, 8),
)
def test_in_place_assembly_matches_summed_terms(qubits, omega_c, cutoff):
    check_assembly(SystemConfig(tuple(qubits), omega_c=omega_c, fock_cutoff=cutoff))


# Each swept field's values: lam = -0.0 passes QubitParams' check and makes
# signed zeros, and theta over +-100 gives cos and sin each sign.
FIELD_VALUES = {
    "omega": st.floats(0.05, 3.0),
    "omega_c": st.floats(0.05, 3.0),
    "lam": st.sampled_from([0.0, -0.0]) | st.floats(0.0, 0.5),
    "theta": st.floats(-100.0, 100.0),
}


@settings(max_examples=80, deadline=None)
@given(
    qubits=st.lists(
        st.builds(QubitParams, omega=st.floats(0.05, 3.0), lam=FIELD_VALUES["lam"],
                  theta=st.floats(-100.0, 100.0)),
        min_size=1, max_size=4,
    ),
    omega_c=st.floats(0.05, 3.0),
    cutoff=st.integers(1, 8),
    model=st.sampled_from(["dicke", "tc"]),
    data=st.data(),
)
def test_pencil_writes_the_assembled_bits(qubits, omega_c, cutoff, model, data):
    # each point of a pencil is the model's assembly at set_parameter's
    # config and the out-of-place sum of its terms, byte for byte, so the
    # sign of every zero counts; also once a solve, dsyevr's where found,
    # has overwritten the buffer
    cfg = SystemConfig(tuple(qubits), omega_c=omega_c, fock_cutoff=cutoff)
    fields = ("omega", "lam", "theta") if model == "dicke" else ("omega", "lam")
    parameter = data.draw(st.sampled_from(
        ["omega_c"] + [f"qubits[{k}].{field}" for k in range(len(qubits)) for field in fields]))
    values = data.draw(st.lists(FIELD_VALUES[parameter.rsplit(".", 1)[-1]],
                                min_size=1, max_size=4))
    summed = {"dicke": summed_dicke, "tc": summed_tc}[model]
    solver = _Solver(_buffer(cfg))
    pencil = _Pencil(cfg, _parameter_field(cfg, parameter), model, solver.mat, solver.check)
    assert pencil.checked
    for x in values:
        moved = set_parameter(cfg, parameter, x)
        expected = _assemble(model, moved, _buffer(moved)).tobytes()
        assert expected == summed(moved).tobytes()
        assert pencil.write(x, solver.mat).tobytes() == expected
        solver(0, min(2, cfg.layout.dim))
        assert pencil.write(x, solver.mat).tobytes() == expected


@pytest.mark.parametrize("scenario, parameter", [("fig1b", "qubits[2].omega"),
                                                 ("fig4", "qubits[0].omega"),
                                                 ("fig1b", "omega_c")])
@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4))
def test_pencil_sums_the_fixed_diagonal_terms_once(scenario, parameter, values):
    # the bare diagonal around the swept frequency, summed once per pencil
    # before it (qubits 0 and 1 of fig1b's three; nothing for fig4's qubit 0;
    # every qubit for omega_c) and formed once after it, gives the bits of
    # the assembler at every point, written into one reused buffer of moved
    # entries, which then holds the diagonal
    cfg = build_system(get_preset(scenario))
    solver = _Solver(_buffer(cfg))
    pencil = _Pencil(cfg, _parameter_field(cfg, parameter), "dicke", solver.mat, solver.check)
    moved = pencil.entries()
    assert moved.shape == (cfg.layout.dim,)
    for x in values:
        expected = _assemble("dicke", set_parameter(cfg, parameter, x), _buffer(cfg))
        found = pencil.write(x, solver.mat, moved)
        assert [v.hex() for v in found.ravel().tolist()] == [
            v.hex() for v in expected.ravel().tolist()]
        assert moved.tobytes() == expected.diagonal().tobytes()


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(["fig1b", "fig4"]), data=st.data())
def test_pencil_distance_bounds_the_change_of_h(scenario, data):
    # for every field, the largest absolute row sum of the moved entries'
    # change is at least the spectral norm of H(x) - H(y), and for a
    # frequency, whose change is diagonal, it is that norm: half the change
    # of a qubit's omega
    cfg = build_system(get_preset(scenario))
    field = data.draw(st.sampled_from(["omega_c"] + [
        f"qubits[{k}].{name}" for k in range(cfg.qubit_count) for name in ("omega", "lam",
                                                                          "theta")]))
    x, y = (data.draw(FIELD_VALUES[field.rsplit(".", 1)[-1]]) for _ in range(2))
    solver = _Solver(_buffer(cfg))
    pencil = _Pencil(cfg, _parameter_field(cfg, field), "dicke", solver.mat, solver.check)
    at_x, at_y = pencil.entries(), pencil.entries()
    change = pencil.write(x, solver.mat, at_x).copy() - pencil.write(y, solver.mat, at_y)
    norm = np.linalg.norm(change, 2)
    bound = pencil.distance(at_x, at_y)
    assert norm <= bound * (1 + 1e-12) + 1e-300
    if field.endswith("omega"):
        assert_frequency_distance(cfg, field, x, y, bound)
        assert norm == pytest.approx(bound, rel=1e-12, abs=1e-15)


def test_pencil_distance_of_close_frequencies():
    # two close frequencies whose distance the rounding of the moved
    # entries' sums moves by 1.55e-12 relative, 1.1e-15 absolute
    cfg = build_system(get_preset("fig1b"))
    field, x, y = "qubits[0].omega", 2.0, 2.001432501114896
    solver = _Solver(_buffer(cfg))
    pencil = _Pencil(cfg, _parameter_field(cfg, field), "dicke", solver.mat, solver.check)
    at_x, at_y = pencil.entries(), pencil.entries()
    pencil.write(x, solver.mat, at_x)
    pencil.write(y, solver.mat, at_y)
    assert_frequency_distance(cfg, field, x, y, pencil.distance(at_x, at_y))


def assert_frequency_distance(cfg, field, x, y, distance):
    """Check the pencil's ``distance`` for qubit k's omega at x and y
    against the change of each moved diagonal entry, exactly half of
    |x - y|.  Each entry sums the N + 1 terms of the N qubits and the
    cavity, each formed with at most one rounding, so it errs by at most
    gamma_(N+1) times the sum of their magnitudes (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, §3.1), and the
    change of an entry by at most twice the largest such sum; the
    subtraction of the entries rounds relatively."""
    k, terms = int(re.search(r"\d+", field).group()), _layout_terms(cfg.layout)
    magnitudes = max(
        (0.5 * np.abs([v if i == k else q.omega for i, q in enumerate(cfg.qubits)])
         @ np.abs(terms.sigma_z) + abs(cfg.omega_c) * terms.number).max() for v in (x, y))
    n = cfg.qubit_count + 1
    tol = 2.0 * n * 2.0**-53 / (1.0 - n * 2.0**-53) * magnitudes  # 2 gamma_(N+1) max sum
    assert distance == pytest.approx(0.5 * abs(x - y), rel=1e-12, abs=tol)


@pytest.mark.parametrize("lam, theta", [
    (0.0, 0.3),           # every coupling entry is a zero, some of them -0.0
    (0.0, 2.5),
    (0.2, 2.5),           # cos(theta) < 0: negative transverse entries
    (0.2, math.pi / 2),   # cos(theta) ~ 6e-17
    (0.2, -math.pi / 2),  # sin(theta) = -1: negative longitudinal entries
])
def test_assembly_keeps_the_sign_of_zeros(lam, theta):
    qubits = (QubitParams(0.4, lam, theta), QubitParams(0.7, 0.1, 0.2),
              QubitParams(1.1, lam, -theta))
    check_assembly(SystemConfig(qubits, omega_c=1.2, fock_cutoff=5))


# The model's own lift and ladder that algebra._lift and algebra._ladder
# replaced, kept verbatim as the reference for the cached terms.
@functools.lru_cache(maxsize=None)
def local_lift_terms(layout):
    nq, cutoff = layout.qubit_count, layout.fock_cutoff
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1)
    x = a + a.T
    up = np.array([[0.0, 0.0], [1.0, 0.0]])  # sigma_+ = |e><g|, real

    def lift(i, local, mode):
        left, right = np.eye(2 ** (i - 1)), np.eye(2 ** (nq - i))
        return np.kron(np.kron(left, local), np.kron(right, mode))

    qubits = range(1, nq + 1)
    return {
        "quadrature": np.kron(np.eye(2**nq), x),
        "x_sigma_x": np.array([lift(i, up + up.T, x) for i in qubits]),
        "exchange": np.array([lift(i, up, a) + lift(i, up.T, a.T) for i in qubits]),
    }


@pytest.mark.parametrize("qubits, cutoff", itertools.product(range(1, 5), range(1, 9)))
def test_layout_terms_match_local_lift(qubits, cutoff):
    layout = HilbertLayout(qubits, cutoff)
    terms = _layout_terms(layout)

    def dense(term):
        # the entries the assemblers scatter, into a zeroed matrix
        mat = np.zeros(layout.dim * layout.dim)
        mat[term.flat] = term.value
        return mat.reshape(layout.dim, layout.dim)

    for name, reference in local_lift_terms(layout).items():
        term = getattr(terms, name)
        built = dense(term) if name == "quadrature" else np.array([dense(t) for t in term])
        assert built.tobytes() == reference.tobytes(), name
    # the assemblers write each term by assignment and add the bare diagonal
    # last, so no two terms of a model may share an entry, nor touch the diagonal
    for flats in (np.concatenate([terms.quadrature.flat, *(t.flat for t in terms.x_sigma_x)]),
                  np.concatenate([t.flat for t in terms.exchange])):
        assert np.unique(flats).size == flats.size
        assert np.all(flats % (layout.dim + 1) != 0)


def test_spectrum_invariant_under_qubit_relabeling():
    cfg = SystemConfig(
        (QubitParams(0.4, 0.13, PI6), QubitParams(0.6, 0.1, PI6 / 2),
         QubitParams(1.0, 5e-3, PI6)),
        omega_c=1.2,
        fock_cutoff=4,
    )
    permuted = SystemConfig(
        (cfg.qubits[2], cfg.qubits[0], cfg.qubits[1]),
        omega_c=1.2,
        fock_cutoff=4,
    )
    e1 = diagonalize(build_generalized_dicke(cfg)).energies
    e2 = diagonalize(build_generalized_dicke(permuted)).energies
    assert np.max(np.abs(e1 - e2)) < 1e-10


class TestDispersivePairCoupling:
    def test_zero_coupling(self):
        cfg = two_qubit(lam=0.0)
        assert dispersive_pair_coupling(cfg, 1, 2) == 0.0

    def test_pinned_value_and_sign(self):
        cfg = SystemConfig(
            (QubitParams(0.5, 0.01), QubitParams(0.5, 0.01)), omega_c=1.0, fock_cutoff=2
        )
        assert dispersive_pair_coupling(cfg, 1, 2) == pytest.approx(-2e-4, rel=1e-12)

    def test_resonant_error(self):
        cfg = SystemConfig(
            (QubitParams(1.0, 0.01), QubitParams(0.5, 0.01)), omega_c=1.0, fock_cutoff=2
        )
        with pytest.raises(ResonantParameterError):
            dispersive_pair_coupling(cfg, 1, 2)

    def test_marginal_regime_warns(self):
        cfg = SystemConfig(
            (QubitParams(0.9, 0.05), QubitParams(0.5, 0.05)), omega_c=1.0, fock_cutoff=2
        )
        with pytest.warns(UserWarning):
            dispersive_pair_coupling(cfg, 1, 2)


class TestEffectiveMixing:
    def test_three_qubit_action(self):
        j = 0.37
        op = build_effective_mixing(MixKind.THREE_QUBIT, j, 3)
        lay = op.layout
        gge = bare_state(lay, "gge", 0)
        eeg = bare_state(lay, "eeg", 0)
        out = op @ gge
        assert np.vdot(eeg.amp, out.amp) == pytest.approx(j, abs=1e-14)
        back = op @ eeg
        assert np.vdot(gge.amp, back.amp) == pytest.approx(j, abs=1e-14)
        # every other basis ket is annihilated
        for idx in range(lay.dim):
            levels, _ = lay.bare_labels(idx)
            if levels in ("gge", "eeg"):
                continue
            col = op.mat[:, idx]
            assert np.max(np.abs(col)) == 0.0

    def test_cascade_action(self):
        j = 0.2
        op = build_effective_mixing(MixKind.FOUR_QUBIT_CASCADE, j, 4)
        lay = op.layout
        out = op @ bare_state(lay, "eggg", 0)
        assert np.vdot(bare_state(lay, "geee", 0).amp, out.amp) == pytest.approx(j, abs=1e-14)

    def test_exchange_action(self):
        op = build_effective_mixing(MixKind.FOUR_QUBIT_EXCHANGE, 0.1, 4)
        lay = op.layout
        out = op @ bare_state(lay, "eegg", 0)
        assert np.vdot(bare_state(lay, "ggee", 0).amp, out.amp) == pytest.approx(0.1, abs=1e-14)

    def test_zero_coupling_zero_matrix(self):
        op = build_effective_mixing(MixKind.THREE_QUBIT, 0.0, 3)
        assert np.max(np.abs(op.mat)) == 0.0

    def test_hermitian(self):
        for kind, n in ((MixKind.TWO_QUBIT, 2), (MixKind.THREE_QUBIT, 3),
                        (MixKind.FOUR_QUBIT_EXCHANGE, 4), (MixKind.FOUR_QUBIT_CASCADE, 4)):
            assert build_effective_mixing(kind, 0.3, n).is_hermitian(1e-14)

    def test_wrong_qubit_count(self):
        with pytest.raises(ConfigError):
            build_effective_mixing(MixKind.THREE_QUBIT, 0.1, 4)
