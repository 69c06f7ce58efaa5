from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmix import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    ConfigError,
    HilbertLayout,
    Operator,
    bare_state,
    cavity_annihilation,
    cavity_number,
    cavity_quadrature,
    embed_qubit_op,
    identity,
)

finite = st.floats(-1.0, 1.0, allow_nan=False)


def local_2x2(draw_re, draw_im):
    return np.array(draw_re, dtype=complex).reshape(2, 2) + 1j * np.array(draw_im).reshape(2, 2)


local_matrices = st.builds(
    local_2x2,
    st.lists(finite, min_size=4, max_size=4),
    st.lists(finite, min_size=4, max_size=4),
)


def test_layout_dimensions():
    lay = HilbertLayout(3, 8)
    assert lay.dim == 64
    assert HilbertLayout(2, 1).dim == 4


def test_layout_validation():
    with pytest.raises(ConfigError):
        HilbertLayout(0, 4)
    with pytest.raises(ConfigError):
        HilbertLayout(2, 0)


def test_bare_index_ordering_pinned():
    # |e,g,0> with two qubits and cutoff 3 sits at 1*(2*3) + 0*3 + 0 = 6
    lay = HilbertLayout(2, 3)
    assert lay.bare_index("eg", 0) == 6
    assert lay.bare_index("gg", 0) == 0
    assert lay.bare_labels(6) == ("eg", 0)


def test_bare_state_basics():
    lay = HilbertLayout(3, 4)
    ket = bare_state(lay, "ggg", 0)
    assert ket.amp[0] == 1.0
    assert ket.norm == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):
        bare_state(lay, "ggg", 4)  # photons beyond cutoff
    with pytest.raises(ConfigError):
        bare_state(lay, "gg", 0)  # wrong register size


@given(
    qubits=st.integers(1, 4),
    cutoff=st.integers(1, 6),
    data=st.data(),
)
def test_bare_index_round_trip(qubits, cutoff, data):
    lay = HilbertLayout(qubits, cutoff)
    levels = data.draw(st.text(alphabet="ge", min_size=qubits, max_size=qubits))
    photons = data.draw(st.integers(0, cutoff - 1))
    idx = lay.bare_index(levels, photons)
    assert lay.bare_labels(idx) == (levels, photons)
    assert bare_state(lay, levels, photons).amp[idx] == 1.0


def test_embed_identity_is_identity():
    lay = HilbertLayout(2, 3)
    op = embed_qubit_op(lay, 1, np.eye(2))
    assert np.array_equal(op.mat, np.eye(lay.dim))


def test_embed_sigma_x_permutes_first_qubit_bit():
    lay = HilbertLayout(2, 2)
    op = embed_qubit_op(lay, 1, SIGMA_X)
    for idx in range(lay.dim):
        levels, photons = lay.bare_labels(idx)
        flipped = ("e" if levels[0] == "g" else "g") + levels[1]
        assert op.mat[lay.bare_index(flipped, photons), idx] == 1.0
    assert np.count_nonzero(op.mat) == lay.dim


def test_embed_index_out_of_range():
    lay = HilbertLayout(2, 2)
    with pytest.raises(ConfigError):
        embed_qubit_op(lay, 3, SIGMA_X)
    with pytest.raises(ConfigError):
        embed_qubit_op(lay, 0, SIGMA_X)


def test_distinct_factor_sigma_z_commute():
    lay = HilbertLayout(2, 2)
    a = embed_qubit_op(lay, 1, SIGMA_Z)
    b = embed_qubit_op(lay, 2, SIGMA_Z)
    comm = a @ b - b @ a
    assert np.max(np.abs(comm.mat)) == 0.0


@settings(max_examples=40)
@given(local_matrices, local_matrices)
def test_distinct_factors_commute(m1, m2):
    lay = HilbertLayout(2, 2)
    a = embed_qubit_op(lay, 1, m1)
    b = embed_qubit_op(lay, 2, m2)
    comm = a @ b - b @ a
    assert np.max(np.abs(comm.mat)) < 1e-14


@settings(max_examples=40)
@given(local_matrices, local_matrices)
def test_embedding_is_factor_homomorphism(m1, m2):
    lay = HilbertLayout(3, 2)
    left = embed_qubit_op(lay, 2, m1 @ m2)
    right = embed_qubit_op(lay, 2, m1) @ embed_qubit_op(lay, 2, m2)
    assert np.max(np.abs(left.mat - right.mat)) < 1e-13


def test_annihilation_two_level_truncation():
    lay = HilbertLayout(1, 2)
    a = cavity_annihilation(lay)
    # on the cavity factor: [[0, 1], [0, 0]]
    block = a.mat[:2, :2]
    assert np.array_equal(block, np.array([[0, 1], [0, 0]], dtype=complex))


def test_number_operator_eigenvalues():
    lay = HilbertLayout(1, 5)
    n = cavity_number(lay)
    eigs = np.sort(np.unique(np.round(np.real(np.linalg.eigvalsh(n.mat)), 10)))
    assert np.array_equal(eigs, np.arange(5.0))


def test_commutator_truncation_defect():
    # [a, a+] = 1 - cutoff |top><top| on the mode factor
    lay = HilbertLayout(1, 4)
    a = cavity_annihilation(lay)
    comm = (a @ a.dag() - a.dag() @ a).mat
    expected = np.eye(lay.dim, dtype=complex)
    for idx in range(lay.dim):
        if lay.bare_labels(idx)[1] == lay.fock_cutoff - 1:
            expected[idx, idx] = 1.0 - lay.fock_cutoff
    assert np.max(np.abs(comm - expected)) < 1e-12


def test_quadrature_hermitian():
    lay = HilbertLayout(2, 4)
    x = cavity_quadrature(lay)
    assert x.is_hermitian(1e-12)


def test_operator_dimension_checks():
    lay = HilbertLayout(1, 2)
    ident = identity(lay)
    other = identity(HilbertLayout(1, 3))
    with pytest.raises(ConfigError):
        _ = ident @ other


def test_operator_dtype_follows_input():
    lay = HilbertLayout(1, 2)
    real = Operator(np.eye(lay.dim), lay)
    assert Operator([[1, 0, 0, 0]] * 4, lay).mat.dtype == np.float64
    kept_real = (real, real + real, real - np.eye(lay.dim), 2.5 * real, real * np.float64(0.5),
                 -real, real @ real, real.dag())
    assert all(op.mat.dtype == np.float64 for op in kept_real)
    assert np.array_equal((2.5 * real).mat, 2.5 * np.eye(lay.dim))
    cplx = Operator(np.eye(lay.dim, dtype=complex), lay)
    promoted = (cplx, real + cplx, cplx - real, 1j * real, cplx * 2.0, real @ cplx,
                embed_qubit_op(lay, 1, SIGMA_X))
    assert all(op.mat.dtype == np.complex128 for op in promoted)
    assert np.array_equal((1j * real).mat, 1j * np.eye(lay.dim))


def test_sigma_ladder_conventions():
    # sigma_+ |g> = |e> and sigma_z |e> = +|e> in the (g, e) local basis
    g = np.array([1.0, 0.0])
    e = np.array([0.0, 1.0])
    assert np.array_equal(SIGMA_PLUS @ g, e)
    assert np.array_equal(SIGMA_MINUS @ e, g)
    assert np.array_equal(SIGMA_Z @ e, e)
    assert np.array_equal(SIGMA_Z @ g, -g)


# The builds that algebra._lift and algebra._ladder replaced, kept verbatim as
# the reference: embed_qubit_op as a reduce over complex factors, and the
# complex ladder of cavity_annihilation.
def reduce_embed(layout, qubit_index, local):
    factors = [np.eye(2, dtype=complex)] * layout.qubit_count
    factors[qubit_index - 1] = np.asarray(local, dtype=complex)
    factors.append(np.eye(layout.fock_cutoff, dtype=complex))
    return reduce(np.kron, factors)


def complex_ladder_annihilation(layout):
    cutoff = layout.fock_cutoff
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        a[n - 1, n] = np.sqrt(n)
    return np.kron(np.eye(2**layout.qubit_count, dtype=complex), a)


# signed zeros included: the order of the complex products decides their sign
signed_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5]), finite)
signed_locals = st.lists(st.tuples(signed_entries, signed_entries), min_size=4, max_size=4).map(
    lambda parts: np.array([complex(re, im) for re, im in parts]).reshape(2, 2))


@settings(max_examples=200, deadline=None)
@given(qubits=st.integers(1, 4), cutoff=st.integers(1, 8), data=st.data())
def test_lifted_operators_match_reduce_kron(qubits, cutoff, data):
    lay = HilbertLayout(qubits, cutoff)
    i = data.draw(st.integers(1, qubits))
    for local in (data.draw(signed_locals), -SIGMA_X, SIGMA_Z, SIGMA_PLUS, np.eye(2)):
        assert (embed_qubit_op(lay, i, local).mat.tobytes()
                == reduce_embed(lay, i, local).tobytes())
    a = complex_ladder_annihilation(lay)
    assert cavity_annihilation(lay).mat.tobytes() == a.tobytes()
    assert cavity_quadrature(lay).mat.tobytes() == (a + a.conj().T).tobytes()


# The decoders that HilbertLayout.labels and HilbertLayout.resolve replaced,
# kept verbatim as the reference.
def divmod_bare_labels(layout, index):
    if not 0 <= index < layout.dim:
        raise ConfigError(f"basis index {index} outside 0..{layout.dim - 1}")
    qpart, photons = divmod(index, layout.fock_cutoff)
    levels = []
    for _ in range(layout.qubit_count):
        qpart, bit = divmod(qpart, 2)
        levels.append(("g", "e")[bit])
    return "".join(reversed(levels)), photons


def divmod_label_string(layout, index):
    levels, photons = divmod_bare_labels(layout, index)
    return f"{levels}:{photons}"


def spectrum_resolve_bare(layout, spec):
    if isinstance(spec, (int, np.integer)):
        idx = int(spec)
        if not 0 <= idx < layout.dim:
            raise ConfigError(f"bare index {idx} outside 0..{layout.dim - 1}")
        return idx
    levels, photons = spec
    return layout.bare_index(levels, photons)


def outcome(func, *args):
    """Return value, or the type of the error raised."""
    try:
        return func(*args)
    except Exception as err:  # noqa: BLE001 - the type is what is compared
        return type(err)


@settings(max_examples=100, deadline=None)
@given(qubits=st.integers(1, 4), cutoff=st.integers(1, 8), data=st.data())
def test_labels_and_resolve_match_old_decoders(qubits, cutoff, data):
    lay = HilbertLayout(qubits, cutoff)
    assert lay.labels == tuple(divmod_label_string(lay, k) for k in range(lay.dim))
    indices = data.draw(st.lists(st.integers(-2, lay.dim + 2), min_size=1, max_size=8))
    for index in indices + [np.int64(index) for index in indices]:
        assert outcome(lay.label_string, index) == outcome(divmod_label_string, lay, index)
        assert outcome(lay.bare_labels, index) == outcome(divmod_bare_labels, lay, index)
        assert outcome(lay.resolve, index) == outcome(spectrum_resolve_bare, lay, index)
    spec = data.draw(st.tuples(st.text("geu", max_size=5), st.integers(-1, cutoff)))
    assert outcome(lay.resolve, spec) == outcome(spectrum_resolve_bare, lay, spec)
    assert outcome(lay.resolve, list(spec)) == outcome(spectrum_resolve_bare, lay, list(spec))
    with pytest.raises(ConfigError, match=f"basis index {lay.dim} outside"):
        lay.label_string(lay.dim)


@pytest.mark.parametrize("spec", [("gge", 1.5), ("gge", True), ("gge", "0"), True, False,
                                  1.0, "gge", (5, 0)])
def test_resolve_rejects_non_integer_photons_and_indices(spec):
    with pytest.raises(ConfigError):
        HilbertLayout(3, 8).resolve(spec)


def test_bare_index_rejects_non_integer_photons():
    lay = HilbertLayout(3, 8)
    for photons in (1.5, 1.0, True, np.float64(2.0)):
        with pytest.raises(ConfigError, match="photon number must be an integer"):
            lay.bare_index("gge", photons)
    assert lay.bare_index("gge", np.int64(1)) == lay.bare_index("gge", 1) == 9
    with pytest.raises(ConfigError, match="expected 3 qubit levels, got 5"):
        lay.bare_index(5, 0)


def test_effective_coupling_rejects_non_integer_photons():
    from vpmix import QubitParams, SystemConfig, effective_coupling
    cfg = SystemConfig((QubitParams(0.5, 0.1, 0.5),) * 2 + (QubitParams(1.0, 0.1, 0.5),),
                       omega_c=1.25, fock_cutoff=4)
    with pytest.raises(ConfigError, match="photon number must be an integer, got 1.5"):
        effective_coupling(cfg, ("gge", 1.5), ("eeg", 0), 4)
