"""Dressed-picture zero-temperature Lindblad dynamics and observables.

Everything here works in the eigenbasis of the full Hamiltonian, passed as its
spectrum (from ``diagonalize`` or an anticrossing report).  Dissipation: every
ordered eigenstate pair (j, k) with E_k > E_j is an independent decay term
with jump operator |j><k|.  Each bath channel contributes one rate matrix
over the ascending eigenbasis, with entries for E_k > E_j

    cavity:   R[j, k] = kappa   |<j| (a + a+) |k>|^2
    qubit i:  R[j, k] = gamma_i |<j| sigma_x^(i) |k>|^2

and zeros elsewhere, i.e. the Born-Markov rates evaluated with dressed
transition matrix elements (flat bath spectral densities; no frequency
weighting beyond the matrix elements).  This construction is exact at zero
coupling, where the jump operators reduce to bare sigma_- and a, and remains
meaningful in the ultrastrong-coupling regime where bare lowering operators
would create excitations out of the dressed vacuum.

Observables use dressed ladder operators.  For qubit i the lowering operator
is the bare sigma_-^(i) seen through one dressed frame F, S_- = F sigma_- F+,
where column b of F is the eigenstate that bare state b labels (zero where
no eigenstate, or more than one, claims b).  It maps each eigenstate labeled
(e_i, rest) to the one labeled (g_i, rest).  For the cavity the lowering
operator is the positive-frequency part of a + a+ in the eigenbasis, which
annihilates the dressed vacuum by construction.

The master equation is integrated with the classical fixed-step fourth-order
Runge-Kutta scheme.  In the eigenbasis the generator is time independent and
secular: each coherence rho~_ij evolves alone, multiplied by its own g_ij at
every step, and only the populations mix.  So the RK4 step is a constant
linear map; steps are composed by exact powers of the per-step multipliers,
which reproduces the literal stage-by-stage iteration to rounding error at a
tiny fraction of the cost.  The state is streamed in the eigenbasis,
rho~(t_p) = U+ rho(t_p) U, one grid time at a time, as a real population
vector plus a 1-D array of the coherences kept at fixed indices (i, j).
:func:`expectation_series` transforms each observable product once,
O~ = U+ O U, and keeps only the coherences that can reach an observable: it
drops them in ascending order of the bound
w_ij = |rho~0_ij| max_k |O~_k,ji| max(1, |g_ij|)^(T-1) while their summed
bound stays <= 1e-15, so no value moves by more than that.  Each time step
then costs O(d^2) for the populations plus O(m n_obs) for the m kept
coherences, contracted as pops . diag(O~_k) + sum rho~_ij O~_k,ji; a
``pair_symmetric`` start keeps 2.  No snapshot stack is built, and the
``dynamics`` command takes this path.  :func:`evolve` keeps every coherence
with rho~0_ij != 0 (the rest stay exactly zero), turns every rho~(t_p) back
into the bare basis and keeps them all as one read-only (T, d, d) array,
which :func:`expectation` contracts with an operator product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    SIGMA_MINUS,
    SIGMA_X,
    Ket,
    Operator,
    _check_hermitian,
    cavity_quadrature,
    embed_qubit_op,
)
from .errors import ConfigError, LabelAmbiguityError, NumericalError, StepSizeError
from .model import SystemConfig
from .spectrum import SpectrumResult

__all__ = [
    "TimeSeries",
    "build_dressed_lowering",
    "build_cavity_lowering",
    "build_dissipators",
    "check_density",
    "evolve",
    "expectation",
    "expectation_series",
    "state_fidelity",
]

_RATE_FLOOR = 1e-24  # squared matrix elements below this are truncation noise
_ENERGY_TOL = 1e-12  # eigenvalue gap below which a pair counts as degenerate
# Trace drift, depth of a negative population, or excess of a coherence
# multiplier over 1 that makes evolve reject its step size.
_DRIFT_TOL = 1e-7
# Summed weight of the coherences expectation_series drops: no observable
# moves by more than this at any grid time.
_DROP_BOUND = 1e-15
# check_density limits: Hermiticity defect, trace error, lowest eigenvalue.
_STATE_HERM_TOL = 1e-10
_STATE_TRACE_TOL = 1e-8
_STATE_EIG_FLOOR = -1e-8
# Rounding margin outside [0, 1] that state_fidelity clips rather than rejects.
_FIDELITY_MARGIN = 1e-10


def check_density(rho) -> None:
    """Raise :class:`NumericalError` unless ``rho`` is a Hermitian, unit-trace,
    positive semidefinite d x d matrix (to the module's ``_STATE_*`` limits)."""
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"density matrix must be square, got {m.shape}")
    _check_hermitian_unit_trace(m, NumericalError, "density matrix")
    lo = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
    if lo < _STATE_EIG_FLOOR:
        raise NumericalError(f"negative population {lo:.3e}")


def _check_hermitian_unit_trace(m: np.ndarray, error: type[Exception], what: str) -> None:
    """Raise ``error`` if the square matrix ``m`` is not finite, or has a
    Hermiticity defect or a trace error beyond the ``_STATE_*`` limits;
    O(d^2), no eigensolve."""
    _check_hermitian(m, _STATE_HERM_TOL, error, what)
    trace = float(np.real(np.trace(m)))
    if not abs(trace - 1.0) <= _STATE_TRACE_TOL:
        raise error(f"{what} trace deviates from 1 by {trace - 1.0:.3e}")


@dataclass(frozen=True)
class TimeSeries:
    """Result of :func:`evolve`: the strictly increasing time grid and the
    read-only (T, d, d) stack of density matrices, ``states[p]`` at ``times[p]``."""

    times: np.ndarray
    states: np.ndarray


def build_dressed_lowering(
    spectrum: SpectrumResult,
    qubit_index: int,
    overrides: Mapping[int, Ket] | None = None,
) -> Operator:
    """Dressed lowering operator of one qubit, expressed in the bare basis.

    S_- = F sigma_-^(i) F+, where the dressed frame F carries each bare state
    b to the eigenstate it labels: column b of F is the eigenvector that alone
    claims label b, or ``overrides[b]`` where one is given, and zero where no
    eigenstate or several claim b.  So S_- sums |psi(g_i, rest)><psi(e_i, rest)|
    over the contexts whose two labels both have a dressed vector; a context
    touching a truncation-edge or collided label drops out.  With all
    couplings zero this reduces exactly to the bare sigma_-.

    At an anticrossing minimum the two split eigenstates are +- superpositions
    and neither carries a unique label; pass the recombined dressed pair from
    :func:`vpmix.spectrum.superposition_states` via ``overrides`` (bare index
    -> Ket) to give those two labels their vectors.  When no context has both
    labels, :class:`LabelAmbiguityError` is raised.  That is the case for
    either qubit of a degenerate pair (two qubits at one frequency): each of
    their contexts passes through a state with one of the pair excited, and
    of those two labels the pair's symmetric and antisymmetric eigenstates
    both claim one and leave the other unclaimed.
    """
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
        raise LabelAmbiguityError(
            f"no resolvable contexts for qubit {qubit_index}; labels do not "
            "cover the needed sector"
        )
    return Operator(frame @ lowering @ frame.conj().T, layout)


def build_cavity_lowering(spectrum: SpectrumResult) -> Operator:
    """Positive-frequency part of X = a + a+ in the eigenbasis (bare-basis matrix).

    A_- = sum_{E_j < E_k} <psi_j|X|psi_k| |psi_j><psi_k|; annihilates the
    dressed ground state and reduces to the bare a at zero coupling.  Its
    number operator A_+ A_- counts physically detectable photons.
    """
    u = spectrum.states
    x_eig = u.conj().T @ cavity_quadrature(spectrum.layout).mat @ u
    e = spectrum.energies
    lower = np.where(e[:, None] < e[None, :] - _ENERGY_TOL, x_eig, 0.0)
    return Operator(u @ lower @ u.conj().T, spectrum.layout)


def build_dissipators(spectrum: SpectrumResult, config: SystemConfig) -> dict[str, np.ndarray]:
    """Zero-temperature decay rate matrices for the cavity and each qubit.

    Returns ``{channel: R}`` with channels ``cavity``, ``qubit1``, ... in that
    order, one for every positive kappa (gamma_i).  ``R[j, k]`` is kappa
    (gamma_i) times the squared dressed matrix element of X (sigma_x^(i))
    between eigenstates j and k when E_k > E_j, and zero for upward or
    degenerate pairs and for squared elements at or below the noise floor.
    """
    layout = spectrum.layout
    if layout != config.layout:
        raise ConfigError("spectrum and config layouts differ")
    u = spectrum.states
    e = spectrum.energies
    downward = e[None, :] > e[:, None]

    def rate_matrix(strength: float, op: Operator) -> np.ndarray:
        elem2 = np.abs(u.conj().T @ op.mat @ u) ** 2
        return np.where(downward & (elem2 > _RATE_FLOOR), strength * elem2, 0.0)

    rates = {}
    if config.kappa > 0:
        rates["cavity"] = rate_matrix(config.kappa, cavity_quadrature(layout))
    for i, q in enumerate(config.qubits, start=1):
        if q.gamma > 0:
            rates[f"qubit{i}"] = rate_matrix(q.gamma, embed_qubit_op(layout, i, SIGMA_X))
    return rates


def _rk4_scalar(z: np.ndarray) -> np.ndarray:
    """Stability polynomial of classical RK4: action of one step on y' = a y."""
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def _rk4_matrix(m: np.ndarray) -> np.ndarray:
    eye = np.eye(m.shape[0])
    m2 = m @ m
    return eye + m + m2 / 2.0 + (m2 @ m) / 6.0 + (m2 @ m2) / 24.0


def _coerce_rho(state, dim: int) -> np.ndarray:
    """The initial state as a d x d matrix; a Ket or vector becomes its projector.

    Raises :class:`ConfigError` unless the matrix is Hermitian and has unit
    trace, to the ``_STATE_*`` limits of :func:`check_density`.
    """
    arr = state.amp if isinstance(state, Ket) else np.asarray(state, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf times 0 is NaN, which the check names
        mat = np.outer(arr, arr.conj()) if arr.ndim == 1 else np.array(arr)
    if mat.shape != (dim, dim):
        raise ConfigError(f"initial state dimension {mat.shape} does not match {dim}")
    _check_hermitian_unit_trace(mat, ConfigError, "initial state")
    return mat


def _eigenbasis_stream(rho0, spectrum, rates, t_grid, max_step, reach=None):
    """Validate the inputs of :func:`evolve` eagerly, then return the time grid,
    the flat indices i d + j of the coherences rho~_ij that are kept, and a
    generator of (diagonal, kept coherences) of rho~(t_p) = U+ rho(t_p) U, one
    pair per grid time.

    The first diagonal is rho~(t_0)'s own; later ones are the real populations.
    Without ``reach`` every coherence with rho~0_ij != 0 is kept: the rest
    stay exactly zero.  ``reach`` is a d x d array bounding the observables
    elementwise, reach >= |O~_k| for every eigenbasis observable O~_k.  With
    it, coherence ij has the weight w_ij = |rho~0_ij| reach_ji
    max(1, |g_ij|)^(T-1), which bounds its term in every Tr[rho~(t_p) O~_k];
    coherences are dropped in ascending weight while their summed weight
    stays <= ``_DROP_BOUND``.

    The generator advances its arrays in place: a yielded pair is valid until
    the next step, so a caller that keeps it must copy it.
    """
    dim, u, e = spectrum.dim, spectrum.states, spectrum.energies

    times = np.asarray(list(t_grid), dtype=float)
    if times.size < 1:
        raise ConfigError("empty time grid")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ConfigError("time grid must be strictly increasing")

    rho = u.conj().T @ _coerce_rho(rho0, dim) @ u

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

    if max_step is not None:
        if not max_step > 0:  # also NaN
            raise ConfigError("max_step must be positive")
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

    # One RK4 map per distinct interval: the coherence multipliers g_n and the
    # population map p_n.  A stable step keeps |g_n| <= 1 on every live
    # coherence, one with rho~0_ij != 0: the others stay exactly zero whatever
    # their multipliers.  g_reach is max(1, |g_ij|) over all intervals on the
    # live coherences, which the drop weights need.
    live = rho != 0
    np.fill_diagonal(live, False)  # the populations follow p_n instead
    intervals = np.diff(times).tolist()
    maps: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    g_reach = np.ones((dim, dim))
    for p, dt in enumerate(intervals, start=1):
        if dt in maps:
            continue
        n = max(1, int(math.ceil(dt / h_max))) if math.isfinite(h_max) else 1
        h = dt / n
        g_n = _rk4_scalar(h * (-1j * omega - decay)) ** n
        size = np.where(live, np.abs(g_n), 1.0)
        worst = float(size.max())
        if not worst <= 1.0 + _DRIFT_TOL:  # also an overflow to inf or NaN
            raise StepSizeError(
                f"coherence multiplier {worst:.3e} exceeds 1 + {_DRIFT_TOL:.1e} at "
                f"t = {times[p]:.6g}; retry with a smaller max_step"
            )
        np.maximum(g_reach, size, out=g_reach)
        maps[dt] = (g_n, np.linalg.matrix_power(_rk4_matrix(h * w_pop), n))

    weight = np.abs(rho)
    bound = 0.0  # drops exactly the coherences that start at zero
    if reach is not None:
        weight *= reach.T * g_reach ** (times.size - 1)
        bound = _DROP_BOUND
    np.fill_diagonal(weight, 0.0)  # the populations are always carried
    weight = weight.reshape(-1)
    order = np.argsort(weight, kind="stable")
    dropped = int(np.searchsorted(np.cumsum(weight[order]), bound, side="right"))
    keep = np.sort(order[dropped:])
    step_maps = {dt: (g_n.reshape(-1)[keep], p_n) for dt, (g_n, p_n) in maps.items()}

    def steps():
        pops = np.real(np.diagonal(rho))
        coh = rho.reshape(-1)[keep]
        trace0 = float(pops.sum())
        yield np.diagonal(rho), coh
        for p, dt in enumerate(intervals, start=1):
            g_n, p_n = step_maps[dt]
            pops = p_n @ pops
            # g * rho~ in this operand order: with fused multiply-adds a complex
            # product can differ in the last bit when its factors swap
            np.multiply(g_n, coh, out=coh)
            drift = abs(float(pops.sum()) - trace0)
            if not drift <= _DRIFT_TOL:  # also an overflow to inf or NaN
                raise StepSizeError(
                    f"trace drift {drift:.3e} exceeds {_DRIFT_TOL:.1e} at t = {times[p]:.6g}; "
                    "retry with a smaller max_step"
                )
            # An unstable population step can keep the trace and still
            # overshoot, which shows as a negative population.
            low = float(pops.min())
            if not low >= -_DRIFT_TOL:
                raise StepSizeError(
                    f"population {low:.3e} below -{_DRIFT_TOL:.1e} at t = {times[p]:.6g}; "
                    "retry with a smaller max_step"
                )
            yield pops, coh

    return times, keep, steps()


def evolve(
    rho0,
    spectrum: SpectrumResult,
    rates: Mapping[str, np.ndarray],
    t_grid: Sequence[float],
    max_step: float | None = None,
) -> TimeSeries:
    """Integrate drho/dt = -i[H, rho] + sum R[j,k] (L rho L+ - {L+L, rho}/2), L = |j><k|.

    H is given by its eigendecomposition ``spectrum``.  ``rho0`` (density
    matrix, Ket, or vector) is the state at ``t_grid[0]``; a state that is not
    Hermitian or has a trace away from 1 raises :class:`ConfigError`.  The
    result's ``states`` is a read-only (T, d, d) array holding the state at
    every grid time, in the bare basis; it takes T d^2 16 bytes, so prefer
    :func:`expectation_series` when only observables are needed.  ``rates``
    maps channel names to d x d rate matrices over the ascending eigenbasis
    of ``spectrum``, as :func:`build_dissipators` returns them; ``{}`` is
    lossless.

    The fixed RK4 step obeys h <= min(0.01 / spread(H), span / 1000); passing
    ``max_step`` replaces that rule with an explicit bound.  A coherence
    multiplier above 1 + 1e-7 over any grid interval, on a coherence
    rho~0_ij != 0 of the initial state in the eigenbasis, trace drift beyond
    1e-7, or a population below -1e-7 raises :class:`StepSizeError`; so a
    returned state is a density matrix only to those 1e-7 limits.
    """
    times, keep, stream = _eigenbasis_stream(rho0, spectrum, rates, t_grid, max_step)
    dim, u = spectrum.dim, spectrum.states
    u_dag = u.conj().T
    rho = np.zeros((dim, dim), dtype=complex)
    states = np.empty((times.size, dim, dim), dtype=complex)
    for p, (diagonal, coh) in enumerate(stream):
        np.fill_diagonal(rho, diagonal)
        rho.reshape(-1)[keep] = coh
        states[p] = u @ rho @ u_dag
    times.setflags(write=False)
    states.setflags(write=False)
    return TimeSeries(times=times, states=states)


def expectation_series(
    rho0,
    spectrum: SpectrumResult,
    rates: Mapping[str, np.ndarray],
    t_grid: Sequence[float],
    observables: Sequence,
    max_step: float | None = None,
) -> np.ndarray:
    """Real expectation values of several observables along the dynamics of :func:`evolve`.

    Takes the arguments of :func:`evolve` plus ``observables``, each entry an
    :class:`Operator` or a sequence of them as :func:`expectation` takes, and
    returns a float (T, n_obs) array: column k holds Tr[rho(t_p) O_k] at every
    grid time.  No density matrix leaves the eigenbasis: each product is
    transformed once, O~ = U+ O U, and contracted with the populations and
    the kept coherences of rho~(t_p) as they are produced; the coherences
    left out change no value by more than 1e-15.  Unlike :func:`evolve`, no
    (T, d, d) stack of snapshots is built.
    """
    dim, u = spectrum.dim, spectrum.states
    u_dag = u.conj().T
    basis = np.empty((len(observables), dim, dim), dtype=complex)
    reach = np.zeros((dim, dim))
    for k, operators in enumerate(observables):
        prod = _operator_product(operators)
        if prod.shape != (dim, dim):
            raise ConfigError(
                f"operator dimension {prod.shape[0]} does not match state dimension {dim}"
            )
        basis[k] = u_dag @ prod @ u
        np.maximum(reach, np.abs(basis[k]), out=reach)
    times, keep, stream = _eigenbasis_stream(rho0, spectrum, rates, t_grid, max_step, reach)
    # Tr[rho~ O~] = sum_i rho~_ii O~_ii + sum_ij rho~_ij O~_ji over the kept ij
    ii, jj = np.divmod(keep, dim)
    diagonal_basis = np.diagonal(basis, axis1=1, axis2=2).T.copy()
    coherence_basis = basis[:, jj, ii].T.copy()
    values = np.empty((times.size, len(observables)), dtype=complex)
    for p, (diagonal, coh) in enumerate(stream):
        values[p] = diagonal @ diagonal_basis + coh @ coherence_basis
    return _real_values(values)


def _operator_product(operators) -> np.ndarray:
    """Matrix of the product O_1 O_2 ... of an Operator or a sequence of them."""
    if isinstance(operators, Operator):
        operators = (operators,)
    if not operators:
        raise ConfigError("need at least one operator")
    prod = operators[0].mat
    for op in operators[1:]:
        if op.mat.shape != prod.shape:
            raise ConfigError("operator dimensions differ")
        prod = prod @ op.mat
    return prod


def _real_values(val: np.ndarray) -> np.ndarray:
    """Real part of expectation values, after checking every imaginary residue."""
    residue = np.abs(val.imag)
    if np.any(residue > 1e-10 * np.maximum(1.0, np.abs(val.real))):
        raise NumericalError(f"expectation has imaginary residue {np.max(residue):.3e}")
    return val.real


def expectation(rho, operators):
    """Real expectation values Tr[rho O_1 O_2 ...] of an operator product.

    ``rho`` is one d x d density matrix or a (..., d, d) stack such as
    ``TimeSeries.states``; the result has the stack's leading shape.
    """
    prod = _operator_product(operators)
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-2:] != prod.shape:
        raise ConfigError(
            f"operator dimension {prod.shape[0]} does not match state shape {rho.shape}"
        )
    return _real_values(np.einsum("...ij,ji->...", rho, prod))


def state_fidelity(rho, target: Ket) -> float:
    """<target| rho |target> for a d x d density matrix and a pure target state.

    A value up to 1e-10 outside [0, 1] is rounding and is clipped into it; a
    value further out means ``rho`` is not a density matrix or ``target`` is
    not normalised, and raises :class:`NumericalError`.  :func:`evolve` only
    guarantees its states to 1e-7 in trace and populations, so on a state it
    returned from an explicit, coarse ``max_step`` this can raise.
    """
    rho = np.asarray(rho)
    if rho.shape != (target.dim, target.dim):
        raise ConfigError(
            f"target dimension {target.dim} does not match state shape {rho.shape}"
        )
    val = complex(np.vdot(target.amp, rho @ target.amp))
    if abs(val.imag) > 1e-10:
        raise NumericalError(f"fidelity has imaginary residue {val.imag:.3e}")
    if not -_FIDELITY_MARGIN <= val.real <= 1.0 + _FIDELITY_MARGIN:
        raise NumericalError(f"fidelity {val.real:.12g} lies outside [0, 1]")
    return float(min(max(val.real, 0.0), 1.0))
