import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmix import ConfigError, NumericalError
from vpmix.circuits import (
    GateSpec,
    RegisterState,
    apply_gate,
    measure_qubit,
    reduced_qubit,
    register_state,
    repetition_encode,
    run_ecc,
    u3_mix,
    u4_mix,
)

SQRT2 = math.sqrt(2.0)


def basis(n, index):
    amp = np.zeros(2**n, dtype=complex)
    amp[index] = 1.0
    return RegisterState(n, amp)


logical_states = st.builds(
    lambda re_a, im_a, re_b, im_b: np.array([complex(re_a, im_a), complex(re_b, im_b)]),
    *(st.floats(-1.0, 1.0, allow_nan=False) for _ in range(4)),
).filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


class TestGates:
    def test_y_half_pi_convention(self):
        out = apply_gate(basis(1, 0), GateSpec("y", (1,), angle=math.pi / 2))
        assert np.allclose(out.amp, np.array([1.0, 1.0]) / SQRT2, atol=1e-14)

    def test_phase_gate(self):
        out = apply_gate(basis(1, 1), GateSpec("s", (1,)))
        assert out.amp[1] == pytest.approx(1j, abs=1e-14)

    def test_cnot(self):
        out = apply_gate(basis(2, 0b10), GateSpec("cnot", (1, 2)))
        assert out.amp[0b11] == 1.0

    def test_wire_validation(self):
        with pytest.raises(ConfigError):
            apply_gate(basis(2, 0), GateSpec("x", (3,)))
        with pytest.raises(ConfigError):
            apply_gate(basis(2, 0), GateSpec("cnot", (1, 1)))
        with pytest.raises(ConfigError):
            apply_gate(basis(2, 0), GateSpec("nope", (1,)))
        # each gate matrix fixes its number of wires
        for gate in (GateSpec("x", (1, 2)), GateSpec("y", (1, 2), angle=0.1),
                     GateSpec("cnot", (1,))):
            with pytest.raises(ConfigError):
                apply_gate(basis(2, 0), gate)

    @pytest.mark.parametrize("wire", [1.5, 1.0, "1", True, None])
    def test_wires_must_be_integers(self, wire):
        # a wire that is no integer is rejected, not truncated to one
        message = f"^wire must be an integer, got {re.escape(repr(wire))}$"
        with pytest.raises(ConfigError, match=message):
            GateSpec("x", (wire,))
        with pytest.raises(ConfigError, match=message):
            u3_mix(basis(3, 0b100), (1, wire, 3))
        with pytest.raises(ConfigError, match=message):
            measure_qubit(basis(2, 0), wire)
        out = apply_gate(basis(2, 0), GateSpec("x", (np.int64(2),)))
        assert out.amp[0b01] == 1.0

    @pytest.mark.parametrize("angle, fault", [
        (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
        (10**400, "finite"), ("0.5", "a real number"), (1j, "a real number")],
        ids=["nan", "inf", "-inf", "int-1e400", "str", "complex"])
    def test_y_angle_must_be_a_finite_real(self, angle, fault):
        # NaN gave NaN amplitudes, an infinity a bare math domain error and
        # a string a TypeError
        message = f"^gate angle must be {fault}, got {re.escape(repr(angle))}$"
        with pytest.raises(ConfigError, match=message):
            GateSpec("y", (1,), angle=angle)
        assert apply_gate(basis(1, 0), GateSpec("y", (1,), angle=np.float64(0.0))).amp[0] == 1.0

    @pytest.mark.parametrize("count, message", [
        (0, "qubit_count must be >= 1, got 0"), (-1, "qubit_count must be >= 1, got -1"),
        (1.0, "qubit_count must be an integer, got 1.0"),
        (True, "qubit_count must be an integer, got True")])
    def test_register_wire_count_is_checked(self, count, message):
        # checked as HilbertLayout checks its sizes: an integer, at least 1
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RegisterState(count, [1.0])
        assert RegisterState(np.int64(1), [1.0, 0.0]).qubit_count == 1

    def test_register_state_needs_an_amplitude(self):
        with pytest.raises(ConfigError, match="^register state needs at least one amplitude$"):
            register_state([])
        # one amplitude would make a register of zero wires
        with pytest.raises(ConfigError, match="^qubit_count must be >= 1, got 0$"):
            register_state([1.0])

    @settings(max_examples=25)
    @given(logical_states)
    def test_gates_preserve_norm(self, v):
        state = RegisterState(2, np.kron(v, np.array([1.0, 0.0])))
        for gate in (GateSpec("y", (1,), angle=0.7), GateSpec("s", (2,)),
                     GateSpec("cnot", (1, 2)), GateSpec("x", (2,)), GateSpec("z", (1,))):
            state = apply_gate(state, gate)
        assert state.norm == pytest.approx(1.0, abs=1e-12)


class TestMixGates:
    def test_u3_coupled_pair(self):
        out = u3_mix(basis(3, 0b100), (1, 2, 3))
        assert out.amp[0b011] == pytest.approx(-1j, abs=1e-14)
        out2 = u3_mix(basis(3, 0b011), (1, 2, 3))
        assert out2.amp[0b100] == pytest.approx(-1j, abs=1e-14)

    def test_u3_identity_elsewhere(self):
        for idx in (0b000, 0b010, 0b110, 0b111):
            out = u3_mix(basis(3, idx), (1, 2, 3))
            assert out.amp[idx] == 1.0

    def test_u3_twice_gives_minus_one(self):
        out = u3_mix(u3_mix(basis(3, 0b100), (1, 2, 3)), (1, 2, 3))
        assert out.amp[0b100] == pytest.approx(-1.0, abs=1e-14)

    def test_u4_coupled_pair(self):
        out = u4_mix(basis(4, 0b1000), (1, 2, 3, 4))
        assert out.amp[0b0111] == pytest.approx(-1j, abs=1e-14)
        untouched = u4_mix(basis(4, 0b1100), (1, 2, 3, 4))
        assert untouched.amp[0b1100] == 1.0

    def test_u4_unitary(self):
        cols = [u4_mix(basis(4, k), (1, 2, 3, 4)).amp for k in range(16)]
        mat = np.column_stack(cols)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(16))) < 1e-14

    def test_u3_unitary(self):
        cols = [u3_mix(basis(3, k), (1, 2, 3)).amp for k in range(8)]
        mat = np.column_stack(cols)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(8))) < 1e-14

    def test_mix_on_permuted_wires(self):
        # wire tuple ordering defines which ket plays the |100...> role
        out = u3_mix(basis(3, 0b001), (3, 1, 2))
        assert out.amp[0b110] == pytest.approx(-1j, abs=1e-14)

    def test_wire_count_validation(self):
        with pytest.raises(ConfigError):
            u3_mix(basis(3, 0), (1, 2))
        with pytest.raises(ConfigError):
            u4_mix(basis(4, 0), (1, 2, 3))


class TestRepetition:
    def test_trivial_logical_zero(self):
        state, _ = repetition_encode((1.0, 0.0), 3, "cnot")
        assert state.amp[0] == 1.0

    def test_mix_identity_exact(self, rng):
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            state, discarded = repetition_encode(register_state(v, 1), 3, "mix")
            assert discarded == 1
            expected = np.zeros(16, dtype=complex)
            expected[0b0000] = v[0]
            expected[0b0111] = v[1]
            assert np.max(np.abs(state.amp - expected)) == 0.0

    def test_two_copy_mix(self, rng):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        state, _ = repetition_encode(register_state(v, 1), 2, "mix")
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = v[0]
        expected[0b011] = v[1]
        assert np.max(np.abs(state.amp - expected)) < 1e-15

    @settings(max_examples=20)
    @given(logical_states)
    def test_cnot_and_mix_agree(self, v):
        cnot_state, _ = repetition_encode(register_state(v, 1), 3, "cnot")
        mix_state, _ = repetition_encode(register_state(v, 1), 3, "mix")
        padded = np.kron(np.array([1.0, 0.0]), cnot_state.amp)
        assert abs(abs(np.vdot(padded, mix_state.amp)) - 1.0) < 1e-12

    def test_mix_equals_embedded_cnot_code(self, rng):
        # S4 U4 |psi>|000| equals the three-wire CNOT code acting on |0>|psi>|00>
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            lhs, _ = repetition_encode(register_state(v, 1), 3, "mix")
            rhs = RegisterState(4, np.kron(np.array([1.0, 0.0]), np.kron(v, [1, 0, 0, 0])))
            rhs = apply_gate(rhs, GateSpec("cnot", (2, 3)))
            rhs = apply_gate(rhs, GateSpec("cnot", (2, 4)))
            assert np.max(np.abs(lhs.amp - rhs.amp)) < 1e-14

    def test_dirty_ancilla_rejected(self):
        amp = np.zeros(8, dtype=complex)
        amp[0b101] = 1.0  # wire 3 not in |0>
        with pytest.raises(ConfigError):
            repetition_encode(RegisterState(3, amp), 3, "cnot")

    def test_variant_validation(self):
        with pytest.raises(ConfigError):
            repetition_encode((1.0, 0.0), 4, "cnot")
        with pytest.raises(ConfigError):
            repetition_encode((1.0, 0.0), 3, "qft")


class TestMeasurement:
    def test_definite_state(self):
        res = measure_qubit(basis(1, 0), 1)
        assert res.outcome == 0
        assert res.probability == 1.0

    def test_balanced_superposition(self):
        plus = register_state(np.array([1.0, 1.0]) / SQRT2, 1)
        res0 = measure_qubit(plus, 1)
        assert res0.probability == pytest.approx(0.5, abs=1e-12)
        forced1 = measure_qubit(plus, 1, rng=np.random.default_rng(1))
        assert forced1.probability == pytest.approx(0.5, abs=1e-12)
        assert forced1.state.norm == pytest.approx(1.0, abs=1e-12)

    def test_post_state_projected(self):
        plus = register_state(np.array([1.0, 0.0, 1.0, 0.0]) / SQRT2, 2)
        res = measure_qubit(plus, 1, rng=np.random.default_rng(3))
        remaining = res.state.amp
        mask = [i for i in range(4) if ((i >> 1) & 1) != res.outcome]
        assert all(remaining[i] == 0.0 for i in mask)


class TestEcc:
    def test_no_error_identity(self, rng):
        for _ in range(3):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            rep = run_ecc(v[0], v[1], None, "bitflip", "cnot")
            assert rep.syndrome == (0, 0)
            assert rep.corrected_wire is None
            assert rep.fidelity == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("implementation", ["cnot", "mix"])
    @pytest.mark.parametrize("wire", [1, 2, 3])
    def test_single_bit_flip_corrected(self, implementation, wire, rng):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rep = run_ecc(v[0], v[1], ("x", wire), "bitflip", implementation)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-10)
        assert rep.corrected_wire == wire

    @pytest.mark.parametrize("implementation", ["cnot", "mix"])
    @pytest.mark.parametrize("wire", [1, 2, 3])
    def test_single_phase_flip_corrected(self, implementation, wire, rng):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rep = run_ecc(v[0], v[1], ("z", wire), "phaseflip", implementation)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-10)
        assert rep.corrected_wire == wire

    @pytest.mark.parametrize("implementation", ["cnot", "mix"])
    def test_syndromes_injective(self, implementation):
        seen = set()
        for error in (None, ("x", 1), ("x", 2), ("x", 3)):
            rep = run_ecc(0.6, 0.8, error, "bitflip", implementation)
            seen.add(rep.syndrome)
        assert len(seen) == 4

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            run_ecc(1.0, 1.0, None)  # not normalized
        with pytest.raises(ConfigError):
            run_ecc(1.0, 0.0, ("x", 4))
        with pytest.raises(ConfigError):
            run_ecc(1.0, 0.0, ("y", 1))
        with pytest.raises(ConfigError):
            run_ecc(1.0, 0.0, None, mode="both")
        with pytest.raises(ConfigError):
            run_ecc(1.0, 0.0, None, implementation="toffoli")

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_amplitudes_rejected(self, a):
        with pytest.raises(ConfigError, match="not normalized"):
            run_ecc(a, 0.0, None)

    def test_reduced_qubit_helper(self):
        state = register_state(np.array([1.0, 0.0, 0.0, 1.0]) / SQRT2, 2)
        rho = reduced_qubit(state, 1)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)


# The gate and measurement code before gates became matrices on named wires:
# index loops for CNOT and the mixing gates, kept here as the oracle.

def _ref_check_wires(state, wires):
    ws = tuple(int(w) for w in wires)
    for w in ws:
        if not 1 <= w <= state.qubit_count:
            raise ConfigError(f"wire {w} outside 1..{state.qubit_count}")
    if len(set(ws)) != len(ws):
        raise ConfigError(f"wires must be distinct, got {ws}")
    return ws


def _ref_bit(index, wire, n):
    return (index >> (n - wire)) & 1


def _ref_apply_single(amp, mat, wire, n):
    full = amp.reshape([2] * n)
    moved = np.moveaxis(full, wire - 1, -1)
    out = moved @ mat.T
    return np.moveaxis(out, -1, wire - 1).reshape(-1)


def _ref_y_matrix(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


_REF_MATS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
}


def ref_apply_gate(state, gate):
    n = state.qubit_count
    kind = gate.kind.lower()
    if kind in ("x", "z", "s", "y"):
        (w,) = _ref_check_wires(state, gate.wires)
        mat = _ref_y_matrix(gate.angle) if kind == "y" else _REF_MATS[kind]
        return RegisterState(n, _ref_apply_single(state.amp, mat, w, n))
    if kind == "cnot":
        control, target = _ref_check_wires(state, gate.wires)
        out = np.array(state.amp)
        tmask = 1 << (n - target)
        for idx in range(out.shape[0]):
            if _ref_bit(idx, control, n) == 1 and not idx & tmask:
                out[idx], out[idx | tmask] = state.amp[idx | tmask], state.amp[idx]
        return RegisterState(n, out)
    return ref_mix(state, gate.wires, (1,) + (0,) * (len(gate.wires) - 1))


def ref_mix(state, wires, pattern_hi):
    ws = _ref_check_wires(state, wires)
    n = state.qubit_count
    out = np.array(state.amp)
    masks = [1 << (n - w) for w in ws]
    hi_bits = sum(m for m, b in zip(masks, pattern_hi) if b)
    lo_bits = sum(m for m, b in zip(masks, pattern_hi) if not b)
    group = sum(masks)
    for idx in range(out.shape[0]):
        if idx & group == hi_bits:
            partner = (idx & ~group) | lo_bits
            out[idx] = -1j * state.amp[partner]
            out[partner] = -1j * state.amp[idx]
    return RegisterState(n, out)


def ref_measure_qubit(state, wire, rng=None):
    (w,) = _ref_check_wires(state, (wire,))
    n = state.qubit_count
    mask = 1 << (n - w)
    amp = state.amp
    p1 = float(sum(abs(amp[i]) ** 2 for i in range(amp.shape[0]) if i & mask))
    p1 = min(max(p1, 0.0), 1.0)
    if rng is not None:
        outcome = 1 if rng.random() < p1 else 0
    else:
        outcome = 1 if p1 > 0.5 else 0
    prob = p1 if outcome == 1 else 1.0 - p1
    if prob <= 0.0:
        raise NumericalError(f"measurement outcome {outcome} has zero probability")
    out = np.array(amp)
    for i in range(out.shape[0]):
        if bool(i & mask) != bool(outcome):
            out[i] = 0.0
    out /= math.sqrt(prob)
    return outcome, out, prob


class _FixedDraw:
    """Stands in for a generator: outcome 1 for draw 0.0 when p1 > 0, else 0."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


_ARITY = {"x": 1, "z": 1, "s": 1, "y": 1, "cnot": 2, "u3mix": 3, "u4mix": 4}


@st.composite
def registers_and_gates(draw):
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    if draw(st.booleans()):
        # some exact zeros, as in the code words of the circuits
        amp[rng.random(2**n) < 0.5] = 0.0
    if not np.any(amp):
        amp[0] = 1.0
    amp /= np.linalg.norm(amp)
    kinds = [k for k, arity in _ARITY.items() if arity <= n]
    gates = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(kinds))
        wires = tuple(draw(st.permutations(range(1, n + 1)))[:_ARITY[kind]])
        angle = draw(st.floats(-7.0, 7.0)) if kind == "y" else None
        gates.append(GateSpec(kind, wires, angle=angle))
    return RegisterState(n, amp), gates, draw(st.integers(1, n))


class TestOracle:
    @settings(max_examples=200, deadline=None)
    @given(registers_and_gates())
    def test_kernel_matches_index_loops(self, case):
        state, gates, wire = case
        ref = state
        for gate in gates:
            state, ref = apply_gate(state, gate), ref_apply_gate(ref, gate)
            np.testing.assert_array_equal(state.amp, ref.amp)
        mixes = {"u3mix": u3_mix, "u4mix": u4_mix}
        for gate in gates:
            if gate.kind in mixes:
                np.testing.assert_array_equal(mixes[gate.kind](state, gate.wires).amp,
                                              ref_apply_gate(state, gate).amp)
        for rng in (None, _FixedDraw(0.0), _FixedDraw(1.0)):
            try:
                expected = ref_measure_qubit(state, wire, rng)
            except NumericalError:
                with pytest.raises(NumericalError):
                    measure_qubit(state, wire, rng)
                continue
            outcome, amp, prob = expected
            got = measure_qubit(state, wire, rng)
            assert (got.outcome, got.probability) == (outcome, prob)
            np.testing.assert_array_equal(got.state.amp, amp)
