"""Virtual-transition path enumeration and closed-form effective couplings.

The amplitude of an order-n process connecting degenerate bare states |i> and
|f> through the interaction V is the sum over all chains of intermediate bare
states, e.g. at fourth order

    lam_eff = sum_{k,m,n} V_fn V_nm V_mk V_ki
              / [(E_i - E_k)(E_i - E_m)(E_i - E_n)]

with unperturbed energies in the denominators.  The enumerator walks every
chain whose matrix-element links are all nonzero, excludes |i> and |f>
themselves as intermediates, and refuses chains through states degenerate
with E_i (perturbation theory breaks down there).  Matrix elements are taken
numerically from V in the bare basis, never from hand-coded selection rules:
the enumerator is the oracle against which the closed forms below are tested.

Paths are grouped by their first intermediate state ("diagram"); the group
subtotals always sum to the reported total in the same floating-point order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import Operator
from .errors import (
    ConfigError,
    DegenerateIntermediateError,
    NonResonantPairError,
    NumericalError,
    ResonantParameterError,
)
from .model import (
    SystemConfig,
    _check_model,
    bare_hamiltonian,
    dicke_interaction,
    tavis_cummings_interaction,
)

__all__ = [
    "TransitionPath",
    "PathSumReport",
    "DetuningTable",
    "enumerate_paths",
    "effective_coupling",
    "three_mix_coupling",
    "four_mix_coupling_tc",
    "four_mix_coupling_rabi",
]

_LINK_FLOOR = 1e-14


@dataclass(frozen=True)
class TransitionPath:
    """One chain i -> ... -> f of bare states with its amplitude.

    ``diagram`` is the bare index of the first intermediate state; paths
    sharing it form one diagram group.
    """

    states: tuple[int, ...]
    amplitude: float
    diagram: int


@dataclass(frozen=True)
class PathSumReport:
    """All contributing paths for one (i, f, order) query."""

    order: int
    initial: int
    final: int
    paths: tuple[TransitionPath, ...]
    per_diagram: Mapping[int, float]
    total: float

    @property
    def path_count(self) -> int:
        return len(self.paths)


def enumerate_paths(
    energies: Sequence[float],
    interaction: Operator | np.ndarray,
    initial: int,
    final: int,
    order: int,
    epsilon: float = 1e-9,
) -> PathSumReport:
    """Enumerate all order-n virtual-transition chains from |i> to |f>.

    ``energies`` are the unperturbed energies (diagonal of H0 in the bare
    basis) and ``interaction`` is V in the same basis.  ``epsilon`` serves
    two roles: |E_i - E_f| must not exceed it (the pair is treated as
    resonant, the regime where the amplitude defines an effective coupling),
    and any intermediate with |E_i - E_mid| <= epsilon on an otherwise valid
    chain raises :class:`DegenerateIntermediateError`.

    Paths are emitted in lexicographic order of their state sequences.
    """
    if order not in (2, 3, 4):
        raise ConfigError(f"order must be 2, 3 or 4, got {order}")
    if not epsilon >= 0:  # also NaN
        raise ConfigError(f"epsilon must be non-negative, got {epsilon!r}")
    e = np.asarray(energies, dtype=float)
    v = interaction.mat if isinstance(interaction, Operator) else np.asarray(interaction)
    dim = e.shape[0]
    if v.shape != (dim, dim):
        raise ConfigError(f"interaction shape {v.shape} does not match {dim} energies")
    for s, name in ((initial, "initial"), (final, "final")):
        if not 0 <= s < dim:
            raise ConfigError(f"{name} index {s} outside 0..{dim - 1}")
    if initial == final:
        raise ConfigError("initial and final states must differ")
    e_i = e[initial]
    if abs(e_i - e[final]) > epsilon:
        raise NonResonantPairError(
            f"E_i - E_f = {e_i - e[final]:.6g} exceeds epsilon = {epsilon:.3g}; "
            "pass a larger epsilon to evaluate a detuned amplitude"
        )

    linked = [np.nonzero(np.abs(v[:, s]) > _LINK_FLOOR)[0] for s in range(dim)]
    banned = {initial, final}

    paths: list[TransitionPath] = []
    n_mid = order - 1
    chain = [0] * n_mid

    def extend(depth: int, prev: int):
        for nxt in linked[prev]:
            s = int(nxt)
            if s in banned:
                continue
            chain[depth] = s
            if depth == n_mid - 1:
                if abs(v[final, s]) <= _LINK_FLOOR:
                    continue
                _emit()
            else:
                extend(depth + 1, s)

    def _emit():
        for s in chain:
            if abs(e_i - e[s]) <= epsilon:
                raise DegenerateIntermediateError(
                    s, f"|E_i - E| = {abs(e_i - e[s]):.3g} <= epsilon on a connected path"
                )
        seq = (initial, *chain, final)
        num = complex(1.0)
        for a, b in zip(seq[1:], seq[:-1]):
            num *= v[a, b]
        den = 1.0
        for s in chain:
            den *= e_i - e[s]
        amp = num / den
        if abs(amp.imag) > 1e-12 * max(1.0, abs(amp.real)):
            raise NumericalError(
                f"path {seq} has non-negligible imaginary amplitude {amp.imag:.3e}"
            )
        paths.append(TransitionPath(states=seq, amplitude=amp.real, diagram=chain[0]))

    extend(0, initial)
    paths.sort(key=lambda p: p.states)

    per_diagram: dict[int, float] = {}
    for p in paths:
        per_diagram[p.diagram] = per_diagram.get(p.diagram, 0.0) + p.amplitude
    total = 0.0
    for sub in per_diagram.values():
        total += sub
    return PathSumReport(
        order=order,
        initial=initial,
        final=final,
        paths=tuple(paths),
        per_diagram=per_diagram,
        total=total,
    )


def effective_coupling(
    config: SystemConfig,
    initial,
    final,
    order: int,
    epsilon: float = 1e-9,
    model: str = "dicke",
) -> PathSumReport:
    """Path-sum effective coupling for a config, states given as (levels, photons)
    or as basis indices (see :meth:`HilbertLayout.resolve`).

    ``model`` selects the interaction: "dicke" (full, with counter-rotating
    and longitudinal terms) or "tc" (excitation-conserving only).
    """
    _check_model(model)
    layout = config.layout
    idx_i, idx_f = layout.resolve(initial), layout.resolve(final)
    h0 = np.real(np.diag(bare_hamiltonian(config).mat))
    v = dicke_interaction(config) if model == "dicke" else tavis_cummings_interaction(config)
    try:
        return enumerate_paths(h0, v, idx_i, idx_f, order, epsilon)
    except DegenerateIntermediateError as err:
        raise DegenerateIntermediateError(
            err.state_index,
            f"bare state |{layout.label_string(err.state_index)}>",
        ) from None


@dataclass(frozen=True)
class DetuningTable:
    """Signed frequency differences/sums used by the closed-form couplings.

    Indices are 1-based qubit numbers or the string "c" for the cavity.
    ``d(a, b) = w_a - w_b`` is antisymmetric, ``s(a, b) = w_a + w_b``
    symmetric.
    """

    omegas: tuple[float, ...]
    lambdas: tuple[float, ...]
    omega_c: float

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
        if len(self.omegas) != len(self.lambdas):
            raise ConfigError("omegas and lambdas must have equal length")

    def w(self, a) -> float:
        if a == "c":
            return self.omega_c
        return self.omegas[int(a) - 1]

    def d(self, a, b) -> float:
        return self.w(a) - self.w(b)

    def s(self, a, b) -> float:
        return self.w(a) + self.w(b)

    @property
    def coupling_product(self) -> float:
        return float(np.prod(self.lambdas))


def _guard_poles(factors: Sequence[tuple[str, float]], scale: float):
    for name, value in factors:
        if abs(value) <= 1e-12 * max(scale, 1e-300):
            raise ResonantParameterError(
                f"denominator factor {name} vanishes; "
                "cavity becomes resonant with one of the qubits"
            )


def three_mix_coupling(lam: float, omega3: float, omega_c: float, theta: float) -> float:
    """Closed-form three-qubit mixing coupling for the symmetric case.

    Assumes equal couplings lam on all three qubits and omega_1 = omega_2 =
    omega_3 / 2 (qubit 3 donates its excitation to qubits 1 and 2):

        J = 64 lam^4 w_c^2 (4 w_c^2 - 7 w3^2) sin(t) cos^3(t)
            / [w3 (w3^2 - w_c^2)(w3^2 - 4 w_c^2)^2]

    The coupling vanishes at w_c = (sqrt(7)/2) w3 and is maximal in theta at
    pi/6.  Poles at w_c = w3 and w_c = w3/2 are rejected.
    """
    scale = omega3 * omega3
    _guard_poles(
        [
            ("omega3^2 - omega_c^2", omega3**2 - omega_c**2),
            ("omega3^2 - 4 omega_c^2", omega3**2 - 4.0 * omega_c**2),
        ],
        scale,
    )
    num = (
        64.0
        * lam**4
        * omega_c**2
        * (4.0 * omega_c**2 - 7.0 * omega3**2)
        * math.sin(theta)
        * math.cos(theta) ** 3
    )
    den = omega3 * (omega3**2 - omega_c**2) * (omega3**2 - 4.0 * omega_c**2) ** 2
    return num / den


def four_mix_coupling_tc(
    lambdas: Sequence[float], omegas: Sequence[float], omega_c: float
) -> float:
    """Excitation-conserving four-qubit pair-exchange coupling.

    For the rotating-wave model, the eight fourth-order chains connecting
    |e,e,g,g,0> and |g,g,e,e,0> sum to

        lam_eff = L4 (D13 + D24)(D13 D24 + D14 D23)
                  / (D13 D23 D14 D24 D1c D2c)

    with D_ab = w_a - w_b and D_ic = w_i - w_c.  The factor D13 + D24 =
    (w1 + w2) - (w3 + w4) makes the coupling vanish identically on resonance.
    """
    if len(lambdas) != 4 or len(omegas) != 4:
        raise ConfigError("need exactly four couplings and four frequencies")
    t = DetuningTable(tuple(omegas), tuple(lambdas), omega_c)
    factors = [
        ("D13", t.d(1, 3)),
        ("D23", t.d(2, 3)),
        ("D14", t.d(1, 4)),
        ("D24", t.d(2, 4)),
        ("D1c", t.d(1, "c")),
        ("D2c", t.d(2, "c")),
    ]
    scale = max(abs(w) for w in t.omegas) ** 2
    _guard_poles(factors, scale)
    d13, d23, d14, d24, d1c, d2c = (v for _, v in factors)
    num = t.coupling_product * (d13 + d24) * (d13 * d24 + d14 * d23)
    return num / (d13 * d23 * d14 * d24 * d1c * d2c)


def four_mix_coupling_rabi(
    lambdas: Sequence[float], omegas: Sequence[float], omega_c: float
) -> float:
    """Four-qubit pair-exchange coupling for the full transverse model.

    Covers the theta = 0 Hamiltonian with counter-rotating terms retained,
    where 48 fourth-order chains connect |e,e,g,g,0> and |g,g,e,e,0>.  On a
    common denominator the chain sum collapses to

        lam_eff = L4 (O12 - O34) [3 O12 O34 D13 D14 D23 D24
                                  + 2 w_c (O12 - O34 - 2 w_c) Q]
                  / (O12 O34 Oc3 Oc4 D13 D14 D23 D24 Dc1 Dc2)

    with O_ab = w_a + w_b, D_ab = w_a - w_b, Oci = w_c + w_i, Dci = w_c - w_i
    and the symmetric quartic

        Q = P12^2 + P34^2 - 3 P12 P34 + (O12^2 + P12)(O34^2 + P34)
            - 3 O12 O34 (P12 + P34),        P12 = w1 w2,  P34 = w3 w4.

    The overall factor (w1 + w2) - (w3 + w4) kills the coupling at the bare
    resonance; away from it the counter-rotating contributions survive.
    """
    if len(lambdas) != 4 or len(omegas) != 4:
        raise ConfigError("need exactly four couplings and four frequencies")
    t = DetuningTable(tuple(omegas), tuple(lambdas), omega_c)
    wc = omega_c
    o12, o34 = t.s(1, 2), t.s(3, 4)
    p12 = t.w(1) * t.w(2)
    p34 = t.w(3) * t.w(4)
    d13, d14, d23, d24 = t.d(1, 3), t.d(1, 4), t.d(2, 3), t.d(2, 4)
    den_factors = [
        ("O12", o12),
        ("O34", o34),
        ("Oc3", t.s("c", 3)),
        ("Oc4", t.s("c", 4)),
        ("D13", d13),
        ("D14", d14),
        ("D23", d23),
        ("D24", d24),
        ("Dc1", t.d("c", 1)),
        ("Dc2", t.d("c", 2)),
    ]
    scale = max(abs(w) for w in t.omegas) ** 2
    _guard_poles(den_factors, scale)
    q = (
        p12**2
        + p34**2
        - 3.0 * p12 * p34
        + (o12**2 + p12) * (o34**2 + p34)
        - 3.0 * o12 * o34 * (p12 + p34)
    )
    num = 3.0 * o12 * o34 * d13 * d14 * d23 * d24 + 2.0 * wc * (o12 - o34 - 2.0 * wc) * q
    den = 1.0
    for _, value in den_factors:
        den *= value
    return t.coupling_product * (o12 - o34) * num / den
