"""Statevector circuit engine: mixing gates, repetition codes, error correction.

Wires are numbered 1..n to match ket notation |q1, q2, ..., qn>; amplitudes
are stored with wire 1 as the most significant bit and |0> = |g|, |1> = |e>.
Every gate is a 2^k x 2^k matrix that one kernel applies to k named wires,
the first named wire as the matrix's most significant bit.

The three- and four-wire mixing gates are the spontaneous-evolution unitaries
of the resonant down-conversion processes after a quarter Rabi cycle
(J t = pi/2): the identity except on one coupled ket pair,

    U3:  |100> -> -i|011>,   |011> -> -i|100>
    U4:  |1000> -> -i|0111>, |0111> -> -i|1000>

Followed by one (pi/4)-phase gate S = diag(1, i) on any wire but the first,
U4 acts as the standard three-qubit repetition encoder with the input wire
left disentangled in |0>:

    S_n U4 (a|0> + b|1>)|000> = |0>(a|000> + b|111>).

The five-qubit error-correction circuit corrects a single bit flip (or, with
basis rotations around the error channel, a single phase flip) on any of the
three data wires.  Its encoder, decoder and the shared-control half of the
syndrome extraction exist in two interchangeable implementations: CNOT pairs,
or the four-wire mixing gate (which needs one extra wire); each is one table
entry of wire roles and gate lists.  The syndrome -> correction table is
calibrated by simulating each single error once rather than hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import _require_finite, _require_integer
from .errors import ConfigError, NumericalError

__all__ = [
    "RegisterState",
    "GateSpec",
    "MeasurementResult",
    "EccReport",
    "register_state",
    "apply_gate",
    "u3_mix",
    "u4_mix",
    "repetition_encode",
    "measure_qubit",
    "run_ecc",
    "reduced_qubit",
]

@dataclass(frozen=True)
class RegisterState:
    """Pure state of an n-wire register; global phase carries no meaning."""

    qubit_count: int
    amp: np.ndarray

    def __post_init__(self):
        _require_integer("qubit_count", self.qubit_count, 1)
        v = np.array(self.amp, dtype=complex).reshape(-1)
        if v.shape[0] != 2**self.qubit_count:
            raise ConfigError(
                f"amplitude length {v.shape[0]} does not match {self.qubit_count} wires"
            )
        v.setflags(write=False)
        object.__setattr__(self, "amp", v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))


def register_state(amplitudes, qubit_count: int | None = None) -> RegisterState:
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size == 0:
        raise ConfigError("register state needs at least one amplitude")
    n = qubit_count if qubit_count is not None else int(round(math.log2(v.shape[0])))
    return RegisterState(qubit_count=n, amp=v)


def _integer_wires(wires) -> tuple[int, ...]:
    """``wires`` as a tuple of ints; a wire that is no integer is a :class:`ConfigError`."""
    for w in wires:
        _require_integer("wire", w)
    return tuple(int(w) for w in wires)


def _check_wires(state: RegisterState, wires) -> tuple[int, ...]:
    ws = _integer_wires(wires)
    for w in ws:
        if not 1 <= w <= state.qubit_count:
            raise ConfigError(f"wire {w} outside 1..{state.qubit_count}")
    if len(set(ws)) != len(ws):
        raise ConfigError(f"wires must be distinct, got {ws}")
    return ws


def _apply(state: RegisterState, wires, mat: np.ndarray) -> RegisterState:
    """Apply the 2^k x 2^k matrix ``mat`` to the k named wires, the first
    named wire as the most significant bit of ``mat``'s index."""
    ws = _check_wires(state, wires)
    n, k = state.qubit_count, len(ws)
    if mat.shape[0] != 2**k:
        raise ConfigError(f"gate acts on {mat.shape[0].bit_length() - 1} wires, got {ws}")
    index = _gate_index(n, ws)
    out = np.empty_like(state.amp)
    out[index] = state.amp[index] @ mat.T
    return RegisterState(n, out)


@lru_cache(maxsize=None)
def _gate_index(n: int, wires: tuple[int, ...]) -> np.ndarray:
    """The (2^(n-k), 2^k) amplitude indices of an n-wire register with the k
    named wires moved last, in their order: row j holds the amplitudes that
    a gate on those wires mixes, as ``np.moveaxis`` lays them out."""
    k = len(wires)
    index = np.moveaxis(np.arange(2**n).reshape((2,) * n), [w - 1 for w in wires],
                        list(range(n - k, n))).reshape(2 ** (n - k), 2**k)
    index.setflags(write=False)
    return index


@dataclass(frozen=True)
class GateSpec:
    """One gate: kind in {x, z, s, y, cnot, u3mix, u4mix}, 1-based wires,
    and an angle for the y rotation, a finite real number where given."""

    kind: str
    wires: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "wires", _integer_wires(self.wires))
        if self.angle is not None:
            _require_finite(self, ("angle",), prefix="gate ")


def _y_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _mix_matrix(k: int) -> np.ndarray:
    """Identity on k wires except |10..0> <-> -i|01..1>."""
    mat = np.eye(2**k, dtype=complex)
    hi, lo = 2 ** (k - 1), 2 ** (k - 1) - 1
    mat[[hi, lo], [hi, lo]] = 0.0
    mat[hi, lo] = mat[lo, hi] = -1j
    return mat


_GATES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "s": np.diag([1, 1j]),
    "cnot": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "u3mix": _mix_matrix(3),
    "u4mix": _mix_matrix(4),
}


def apply_gate(state: RegisterState, gate: GateSpec) -> RegisterState:
    """Apply one gate; unitary, norm preserved to rounding."""
    kind = gate.kind.lower()
    if kind == "y":
        if gate.angle is None:
            raise ConfigError("y rotation needs an angle")
        return _apply(state, gate.wires, _y_matrix(gate.angle))
    if kind not in _GATES:
        raise ConfigError(f"unknown gate kind {gate.kind!r}")
    return _apply(state, gate.wires, _GATES[kind])


def u3_mix(state: RegisterState, wires) -> RegisterState:
    """Three-wire mixing gate: |100> <-> -i|011> on the named wires."""
    return _apply(state, wires, _GATES["u3mix"])


def u4_mix(state: RegisterState, wires) -> RegisterState:
    """Four-wire mixing gate: |1000> <-> -i|0111> on the named wires."""
    return _apply(state, wires, _GATES["u4mix"])


def _run(state: RegisterState, gates) -> RegisterState:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def _embed_logical(logical, total_wires: int) -> RegisterState:
    """Place a one-qubit state on wire 1 of a fresh |0...0> register."""
    if isinstance(logical, RegisterState):
        if logical.qubit_count == total_wires:
            if np.any(np.abs(logical.amp.reshape(2, -1)[:, 1:]) > 1e-12):
                raise ConfigError("ancilla wires must start in |0>")
            return logical
        if logical.qubit_count != 1:
            raise ConfigError(
                f"logical input must be 1 wire or {total_wires} wires, "
                f"got {logical.qubit_count}"
            )
        a, b = logical.amp
    else:
        a, b = (complex(x) for x in logical)
    amp = np.zeros(2**total_wires, dtype=complex)
    amp[0] = a
    amp[2 ** (total_wires - 1)] = b
    return RegisterState(total_wires, amp)


def _encoder(variant: str, n_copies: int) -> tuple[GateSpec, ...]:
    """Gates of the ``n_copies`` repetition encoder with the input on wire 1."""
    if variant == "cnot":
        return tuple(GateSpec("cnot", (1, t)) for t in range(2, n_copies + 1))
    return (GateSpec(f"u{n_copies + 1}mix", tuple(range(1, n_copies + 2))),
            GateSpec("s", (2,)))


def repetition_encode(logical, n_copies: int, variant: str = "cnot"):
    """Encode a|0> + b|1> into a|0...0> + b|1...1> on ``n_copies`` wires.

    variant "cnot": chained CNOTs from wire 1; the register has ``n_copies``
    wires and the logical state lives on all of them.  variant "mix": the
    mixing gate plus one phase gate on a register of ``n_copies + 1`` wires;
    wire 1 ends exactly in |0> (disentangled) and is returned as the
    discarded ancilla index, with the code word on the remaining wires.

    Returns ``(state, discarded_wire)`` with ``discarded_wire`` None for the
    cnot variant.
    """
    if n_copies not in (2, 3):
        raise ConfigError(f"n_copies must be 2 or 3, got {n_copies}")
    if variant not in ("cnot", "mix"):
        raise ConfigError(f"unknown variant {variant!r}")
    total = n_copies if variant == "cnot" else n_copies + 1
    state = _run(_embed_logical(logical, total), _encoder(variant, n_copies))
    return state, None if variant == "cnot" else 1


@dataclass(frozen=True)
class MeasurementResult:
    outcome: int
    state: RegisterState
    probability: float


def measure_qubit(state: RegisterState, wire: int, rng: np.random.Generator | None = None) -> MeasurementResult:
    """Projective measurement of one wire in the computational basis.

    With ``rng`` the outcome is sampled; without it the more probable outcome
    is taken (ties resolve to 0), which is exact for the deterministic
    syndrome measurements of the error-correction runs.
    """
    (w,) = _check_wires(state, (wire,))
    n = state.qubit_count
    ones = np.moveaxis(state.amp.reshape((2,) * n), w - 1, 0)[1].reshape(-1)
    # summed one by one in index order, each term squared by scalar ** (libm pow),
    # which can differ by an ulp from numpy's exact array square
    p1 = float(sum(abs(a) ** 2 for a in ones.tolist()))
    p1 = min(max(p1, 0.0), 1.0)
    if rng is not None:
        outcome = 1 if rng.random() < p1 else 0
    else:
        outcome = 1 if p1 > 0.5 else 0
    prob = p1 if outcome == 1 else 1.0 - p1
    if prob <= 0.0:
        raise NumericalError(f"measurement outcome {outcome} has zero probability")
    out = np.array(state.amp)
    np.moveaxis(out.reshape((2,) * n), w - 1, 0)[1 - outcome] = 0.0
    out /= math.sqrt(prob)
    return MeasurementResult(outcome=outcome, state=RegisterState(n, out), probability=prob)


def reduced_qubit(state: RegisterState, wire: int) -> np.ndarray:
    """2x2 reduced density matrix of one wire."""
    (w,) = _check_wires(state, (wire,))
    n = state.qubit_count
    full = state.amp.reshape([2] * n)
    moved = np.moveaxis(full, w - 1, 0).reshape(2, -1)
    return moved @ moved.conj().T


@dataclass(frozen=True)
class EccReport:
    """Outcome of one error-correction run."""

    implementation: str
    mode: str
    error: tuple[str, int] | None
    syndrome: tuple[int, int]
    corrected_wire: int | None
    fidelity: float


def _gates(*specs) -> tuple[GateSpec, ...]:
    return tuple(GateSpec(kind, wires) for kind, *wires in specs)


@dataclass(frozen=True)
class _EccLayout:
    """Wires and gate lists of one error-correction implementation.

    ``data`` holds logical data qubits 1..3 after encoding and ``corrected``
    after the syndrome block; ``output`` carries the decoded state."""

    total: int
    data: tuple[int, ...]
    ancillas: tuple[int, int]
    corrected: tuple[int, ...]
    output: int
    encode: tuple[GateSpec, ...]
    syndrome: tuple[GateSpec, ...]
    decode: tuple[GateSpec, ...]


_ECC = {
    "cnot": _EccLayout(
        total=5, data=(1, 2, 3), ancillas=(4, 5), corrected=(1, 2, 3), output=1,
        encode=_encoder("cnot", 3),
        # S1: shared control on data 1; S2: data 2 and 3
        syndrome=_gates(("cnot", 1, 4), ("cnot", 1, 5), ("cnot", 2, 4), ("cnot", 3, 5)),
        decode=_gates(("cnot", 1, 3), ("cnot", 1, 2)),
    ),
    # S1 via the mixing gate: fan data wire 2 out onto (5, 6, 1); wire 2 is
    # freed and logical qubit 1 continues on wire 1.  The decoder inverts the
    # encoder on (1, 3, 4), rebuilt on wire 2: S+ then U4+ (= U4 cubed, a 3/4
    # Rabi cycle).
    "mix": _EccLayout(
        total=6, data=(2, 3, 4), ancillas=(5, 6), corrected=(1, 3, 4), output=2,
        encode=_encoder("mix", 3),
        syndrome=_gates(("u4mix", 2, 5, 6, 1), ("s", 5), ("cnot", 3, 5), ("cnot", 4, 6)),
        decode=_gates(*[("s", 1)] * 3, *[("u4mix", 2, 1, 3, 4)] * 3),
    ),
}


def _run_circuit(a: complex, b: complex, error, mode: str, implementation: str):
    ecc = _ECC[implementation]
    state = _run(_embed_logical((a, b), ecc.total), ecc.encode)
    if mode == "phaseflip":
        state = _run(state, [GateSpec("y", (w,), angle=math.pi / 2) for w in ecc.data])
    if error is not None:
        kind, logical_wire = error
        state = apply_gate(state, GateSpec(kind, (ecc.data[logical_wire - 1],)))
    if mode == "phaseflip":
        state = _run(state, [GateSpec("y", (w,), angle=-math.pi / 2) for w in ecc.data])
    state = _run(state, ecc.syndrome)
    anc_m, anc_n = ecc.ancillas
    res_m = measure_qubit(state, anc_m)
    res_n = measure_qubit(res_m.state, anc_n)
    return (res_m.outcome, res_n.outcome), res_n.state, (res_m.probability, res_n.probability)


@lru_cache(maxsize=None)
def _syndrome_table(implementation: str) -> dict:
    """Map measured (m, n) to the data wire needing a flip, via calibration runs."""
    table: dict[tuple[int, int], int | None] = {}
    for err_wire in (None, 1, 2, 3):
        error = None if err_wire is None else ("x", err_wire)
        syndrome, _, probs = _run_circuit(1.0, 0.0, error, "bitflip", implementation)
        if min(probs) < 1.0 - 1e-10:
            raise NumericalError(
                f"calibration syndrome not deterministic for {implementation}/{error}"
            )
        if syndrome in table:
            raise NumericalError(
                f"syndrome {syndrome} not injective for {implementation}"
            )
        table[syndrome] = err_wire
    return table


def run_ecc(a: complex, b: complex, error, mode: str = "bitflip",
            implementation: str = "cnot") -> EccReport:
    """Run the five-qubit error-correction circuit on a|0> + b|1>.

    ``error`` is None or ``(kind, wire)`` with kind "x"/"z" and wire 1..3
    (logical data positions); "bitflip" mode corrects x errors, "phaseflip"
    mode wraps the channel in basis rotations and corrects z errors.  The
    measured syndrome is required to be deterministic, the correction wire
    comes from the calibrated table, and the fidelity compares the decoded
    wire against the input state.
    """
    if implementation not in _ECC:
        raise ConfigError(f"unknown implementation {implementation!r}")
    if mode not in ("bitflip", "phaseflip"):
        raise ConfigError(f"unknown mode {mode!r}")
    norm = abs(a) ** 2 + abs(b) ** 2
    if not abs(norm - 1.0) <= 1e-10:  # also NaN
        raise ConfigError(f"logical amplitudes not normalized: |a|^2+|b|^2 = {norm}")
    if error is not None:
        kind, wire = error
        if kind not in ("x", "z"):
            raise ConfigError(f"error kind must be 'x' or 'z', got {kind!r}")
        if wire not in (1, 2, 3):
            raise ConfigError(f"error wire {wire} outside 1..3")
    ecc = _ECC[implementation]
    syndrome, state, probs = _run_circuit(complex(a), complex(b), error, mode, implementation)
    if min(probs) < 1.0 - 1e-10:
        raise NumericalError(
            f"syndrome measurement not deterministic (p = {min(probs):.12f})"
        )
    table = _syndrome_table(implementation)
    corrected = table.get(syndrome)
    if corrected is not None:
        state = apply_gate(state, GateSpec("x", (ecc.corrected[corrected - 1],)))
    rho = reduced_qubit(_run(state, ecc.decode), ecc.output)
    target = np.array([a, b], dtype=complex)
    fidelity = float(np.real(target.conj() @ rho @ target))
    return EccReport(
        implementation=implementation,
        mode=mode,
        error=error,
        syndrome=syndrome,
        corrected_wire=corrected,
        fidelity=fidelity,
    )
