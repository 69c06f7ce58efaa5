"""Virtual-transition path enumeration and every closed-form effective coupling.

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

Every closed-form coupling lives here too: the second-order dispersive J, the
three-qubit down-conversion J and the four-qubit exchange couplings.  Their
denominator factors all pass one pole rule, :func:`_guard_poles`.
"""

from __future__ import annotations

import math
import warnings
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
    "enumerate_paths",
    "effective_coupling",
    "dispersive_pair_coupling",
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


def _guard_poles(factors: Sequence[tuple[str, float, float]]):
    """Reject a denominator factor ``(name, a, b)`` = a - b (a sum a + b as
    a - (-b)) once |a - b| <= 1e-12 max(|a|, |b|): relative to its own terms,
    so a common scale of the frequencies never decides whether a form raises."""
    for name, a, b in factors:
        if abs(a - b) <= 1e-12 * max(abs(a), abs(b)):
            raise ResonantParameterError(
                f"denominator factor {name} = {a - b:.3g} vanishes against its terms "
                f"{a:.6g} and {b:.6g}; the closed form has a pole here"
            )


def dispersive_pair_coupling(config: SystemConfig, i: int, j: int) -> float:
    """Second-order virtual-photon coupling between qubits i and j (1-based).

    J = lam_i lam_j (1/Delta_i + 1/Delta_j) / 2  with  Delta_k = omega_k - omega_c.

    Valid in the dispersive regime |Delta_k| >> lam_k; a warning is emitted
    when |Delta_k| < 10 lam_k and a vanishing Delta_k is a pole.
    """
    qi, qj = (config.qubits[config.layout.qubit_index(k) - 1] for k in (i, j))
    di, dj = (q.omega - config.omega_c for q in (qi, qj))
    for label, q, delta in ((i, qi, di), (j, qj, dj)):
        _guard_poles([(f"omega_{label} - omega_c", q.omega, config.omega_c)])
        if q.lam > 0 and abs(delta) < 10.0 * q.lam:
            warnings.warn(
                f"qubit {label}: |omega - omega_c| = {abs(delta):.4g} is not large "
                f"compared to lam = {q.lam:.4g}; dispersive approximation is marginal",
                stacklevel=2,
            )
    return qi.lam * qj.lam * (1.0 / di + 1.0 / dj) / 2.0


def three_mix_coupling(lam: float, omega3: float, omega_c: float, theta: float) -> float:
    """Closed-form three-qubit mixing coupling for the symmetric case.

    Assumes equal couplings lam on all three qubits and omega_1 = omega_2 =
    omega_3 / 2 (qubit 3 donates its excitation to qubits 1 and 2):

        J = 64 lam^4 w_c^2 (4 w_c^2 - 7 w3^2) sin(t) cos^3(t)
            / [w3 (w3^2 - w_c^2)(w3^2 - 4 w_c^2)^2]

    The coupling vanishes at w_c = (sqrt(7)/2) w3 and is maximal in theta at
    pi/6.  Poles at w3 = 0, w_c = w3 and w_c = w3/2 are rejected.
    """
    _guard_poles(
        [
            ("omega3", omega3, 0.0),
            ("omega3^2 - omega_c^2", omega3**2, omega_c**2),
            ("omega3^2 - 4 omega_c^2", omega3**2, 4.0 * omega_c**2),
        ]
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
    w1, w2, w3, w4 = (float(w) for w in omegas)
    l4 = float(np.prod([float(l) for l in lambdas]))
    factors = [
        ("D13", w1, w3),
        ("D23", w2, w3),
        ("D14", w1, w4),
        ("D24", w2, w4),
        ("D1c", w1, omega_c),
        ("D2c", w2, omega_c),
    ]
    _guard_poles(factors)
    d13, d23, d14, d24, d1c, d2c = (a - b for _, a, b in factors)
    num = l4 * (d13 + d24) * (d13 * d24 + d14 * d23)
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
    w1, w2, w3, w4 = (float(w) for w in omegas)
    l4 = float(np.prod([float(l) for l in lambdas]))
    wc = omega_c
    den_factors = [
        ("O12", w1, -w2),
        ("O34", w3, -w4),
        ("Oc3", wc, -w3),
        ("Oc4", wc, -w4),
        ("D13", w1, w3),
        ("D14", w1, w4),
        ("D23", w2, w3),
        ("D24", w2, w4),
        ("Dc1", wc, w1),
        ("Dc2", wc, w2),
    ]
    _guard_poles(den_factors)
    o12, o34, _, _, d13, d14, d23, d24, _, _ = (a - b for _, a, b in den_factors)
    p12 = w1 * w2
    p34 = w3 * w4
    q = (
        p12**2
        + p34**2
        - 3.0 * p12 * p34
        + (o12**2 + p12) * (o34**2 + p34)
        - 3.0 * o12 * o34 * (p12 + p34)
    )
    num = 3.0 * o12 * o34 * d13 * d14 * d23 * d24 + 2.0 * wc * (o12 - o34 - 2.0 * wc) * q
    den = 1.0
    for _, a, b in den_factors:
        den *= a - b
    return l4 * (o12 - o34) * num / den
