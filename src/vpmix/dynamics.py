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

Observables use dressed ladder operators: for qubit i the lowering operator
maps each eigenstate labeled (e_i, rest) to the one labeled (g_i, rest); for
the cavity the lowering operator is the positive-frequency part of a + a+ in
the eigenbasis, which annihilates the dressed vacuum by construction.

The master equation is integrated with the classical fixed-step fourth-order
Runge-Kutta scheme.  In the eigenbasis the generator is time independent and
acts on coherences and populations separately, so the RK4 step is a constant
linear map; steps are composed by exact powers of the per-step multipliers,
which reproduces the literal stage-by-stage iteration to rounding error at a
tiny fraction of the cost.  The state is streamed in the eigenbasis,
rho~(t_p) = U+ rho(t_p) U, one grid time at a time.  :func:`expectation_series`
transforms each observable product once, O~ = U+ O U, and contracts it with
every rho~(t_p) as it is produced, sum_ij rho~_ij O~_ji, O(d^2) per observable
and time; no snapshot stack is built, and the ``dynamics`` command takes this
path.  :func:`evolve` instead turns every rho~(t_p) back into the bare basis
and keeps them all as one read-only (T, d, d) array, which :func:`expectation`
contracts with an operator product.
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
    _lift,
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
# Trace drift, or depth of a negative population, that makes evolve reject
# its step size.
_DRIFT_TOL = 1e-7
# check_density limits: Hermiticity defect, trace error, lowest eigenvalue.
_STATE_HERM_TOL = 1e-10
_STATE_TRACE_TOL = 1e-8
_STATE_EIG_FLOOR = -1e-8


def check_density(rho) -> None:
    """Raise :class:`NumericalError` unless ``rho`` is a Hermitian, unit-trace,
    positive semidefinite d x d matrix (to the module's ``_STATE_*`` limits)."""
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"density matrix must be square, got {m.shape}")
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > _STATE_HERM_TOL:
        raise NumericalError(f"density matrix not Hermitian: defect {defect:.3e}")
    trace = float(np.real(np.trace(m)))
    if abs(trace - 1.0) > _STATE_TRACE_TOL:
        raise NumericalError(f"trace deviates from 1 by {trace - 1.0:.3e}")
    lo = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
    if lo < _STATE_EIG_FLOOR:
        raise NumericalError(f"negative population {lo:.3e}")


@dataclass(frozen=True)
class TimeSeries:
    """Result of :func:`evolve`: the strictly increasing time grid and the
    read-only (T, d, d) stack of density matrices, ``states[p]`` at ``times[p]``."""

    times: np.ndarray
    states: np.ndarray


def _qubit_context_pairs(spectrum: SpectrumResult, qubit_index: int):
    """(bare_g, bare_e) index pairs differing only in the level of one qubit,
    in ascending order: the nonzeros of sigma_- lifted onto that qubit."""
    layout = spectrum.layout
    lowering = _lift(layout, layout.qubit_index(qubit_index), SIGMA_MINUS.real,
                     np.eye(layout.fock_cutoff))
    return list(zip(*(idx.tolist() for idx in np.nonzero(lowering))))


def build_dressed_lowering(
    spectrum: SpectrumResult,
    qubit_index: int,
    overrides: Mapping[int, Ket] | None = None,
    on_ambiguous: str = "raise",
) -> Operator:
    """Dressed lowering operator of one qubit, expressed in the bare basis.

    S_- = sum over contexts |psi(g_i, rest)><psi(e_i, rest)| where psi(b) is
    the eigenstate labeled by bare state b.  Contexts whose labels are not
    claimed by any eigenstate (truncation-edge states) are skipped; a context
    touching a label claimed by two eigenstates is ambiguous and raises by
    default (``on_ambiguous="skip"`` drops it instead, appropriate when the
    collisions sit at the truncation edge far above the populated sector).
    With all couplings zero this reduces exactly to the bare sigma_-.

    At an anticrossing minimum the two split eigenstates are +- superpositions
    and neither carries a unique label; pass the recombined dressed pair from
    :func:`vpmix.spectrum.superposition_states` via ``overrides``
    (bare index -> Ket) to resolve those contexts explicitly.
    """
    if on_ambiguous not in ("raise", "skip"):
        raise ConfigError(f"on_ambiguous must be 'raise' or 'skip', got {on_ambiguous!r}")
    lmap = spectrum.label_map()
    collided = set(spectrum.label_collisions)
    overrides = dict(overrides or {})

    def dressed_vector(bare: int) -> np.ndarray | None:
        if bare in overrides:
            return overrides[bare].amp
        if bare in collided:
            if on_ambiguous == "skip":
                return None
            raise LabelAmbiguityError(
                f"bare label {bare} claimed by multiple eigenstates; "
                f"cannot build dressed lowering for qubit {qubit_index} "
                "(pass an override for this state)"
            )
        if bare in lmap:
            return spectrum.states[:, lmap[bare]]
        return None

    mat = np.zeros((spectrum.dim, spectrum.dim), dtype=complex)
    resolved = 0
    for b_g, b_e in _qubit_context_pairs(spectrum, qubit_index):
        v_g = dressed_vector(b_g)
        v_e = dressed_vector(b_e)
        if v_g is None or v_e is None:
            continue
        mat += np.outer(v_g, v_e.conj())
        resolved += 1
    if resolved == 0:
        raise LabelAmbiguityError(
            f"no resolvable contexts for qubit {qubit_index}; labels do not "
            "cover the needed sector"
        )
    return Operator(mat, spectrum.layout)


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
    arr = state.amp if isinstance(state, Ket) else np.asarray(state, dtype=complex)
    mat = np.outer(arr, arr.conj()) if arr.ndim == 1 else np.array(arr)
    if mat.shape != (dim, dim):
        raise ConfigError(f"initial state dimension {mat.shape} does not match {dim}")
    return mat


def _eigenbasis_stream(rho0, spectrum, rates, t_grid, max_step):
    """Validate the inputs of :func:`evolve` eagerly, then return the time grid
    and a generator of rho~(t_p) = U+ rho(t_p) U, one per grid time.

    The generator advances one matrix in place: a yielded rho~ is valid until
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
        if max_step <= 0:
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

    step_cache: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}

    def interval_maps(dt: float) -> tuple[np.ndarray, np.ndarray]:
        n = max(1, int(math.ceil(dt / h_max))) if math.isfinite(h_max) else 1
        key = (dt, n)
        if key not in step_cache:
            h = dt / n
            g_step = _rk4_scalar(h * (-1j * omega - decay))
            g_n = g_step**n
            p_step = _rk4_matrix(h * w_pop)
            p_n = np.linalg.matrix_power(p_step, n)
            step_cache[key] = (g_n, p_n)
        return step_cache[key]

    def steps(rho: np.ndarray):
        trace0 = float(np.real(np.trace(rho)))
        yield rho
        for p in range(1, times.size):
            dt = float(times[p] - times[p - 1])
            g_n, p_n = interval_maps(dt)
            pops = p_n @ np.real(np.diag(rho))
            np.multiply(g_n, rho, out=rho)
            np.fill_diagonal(rho, pops)
            drift = abs(float(np.real(np.trace(rho))) - trace0)
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
            yield rho

    return times, steps(rho)


def evolve(
    rho0,
    spectrum: SpectrumResult,
    rates: Mapping[str, np.ndarray],
    t_grid: Sequence[float],
    max_step: float | None = None,
) -> TimeSeries:
    """Integrate drho/dt = -i[H, rho] + sum R[j,k] (L rho L+ - {L+L, rho}/2), L = |j><k|.

    H is given by its eigendecomposition ``spectrum``.  ``rho0`` (density
    matrix, Ket, or vector) is the state at ``t_grid[0]``.  The result's
    ``states`` is a read-only (T, d, d) array holding the state at every grid
    time, in the bare basis; it takes T d^2 16 bytes, so prefer
    :func:`expectation_series` when only observables are needed.  ``rates``
    maps channel names to d x d rate matrices over the ascending eigenbasis
    of ``spectrum``, as :func:`build_dissipators` returns them; ``{}`` is
    lossless.

    The fixed RK4 step obeys h <= min(0.01 / spread(H), span / 1000); passing
    ``max_step`` replaces that rule with an explicit bound.  Trace drift
    beyond 1e-7, or a population below -1e-7, raises :class:`StepSizeError`.
    """
    times, stream = _eigenbasis_stream(rho0, spectrum, rates, t_grid, max_step)
    u = spectrum.states
    u_dag = u.conj().T
    states = np.empty((times.size, spectrum.dim, spectrum.dim), dtype=complex)
    for p, rho in enumerate(stream):
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
    transformed once, O~ = U+ O U, and contracted with rho~(t_p) as it is
    produced; unlike :func:`evolve`, no (T, d, d) stack of snapshots is built.
    """
    times, stream = _eigenbasis_stream(rho0, spectrum, rates, t_grid, max_step)
    dim, u = spectrum.dim, spectrum.states
    u_dag = u.conj().T
    # Tr[rho~ O~] = sum_ij rho~_ij O~_ji, so row k holds vec(O~_k^T).
    basis = np.empty((len(observables), dim * dim), dtype=complex)
    for k, operators in enumerate(observables):
        prod = _operator_product(operators)
        if prod.shape != (dim, dim):
            raise ConfigError(
                f"operator dimension {prod.shape[0]} does not match state dimension {dim}"
            )
        basis[k] = (u_dag @ prod @ u).T.ravel()
    values = np.empty((times.size, len(observables)), dtype=complex)
    for p, rho in enumerate(stream):
        values[p] = basis @ rho.ravel()
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
    """<target| rho |target> for a d x d density matrix and a pure target state."""
    rho = np.asarray(rho)
    if rho.shape != (target.dim, target.dim):
        raise ConfigError(
            f"target dimension {target.dim} does not match state shape {rho.shape}"
        )
    val = complex(np.vdot(target.amp, rho @ target.amp))
    if abs(val.imag) > 1e-10:
        raise NumericalError(f"fidelity has imaginary residue {val.imag:.3e}")
    return float(min(max(val.real, 0.0), 1.0))
