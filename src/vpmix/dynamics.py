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
(e_i, rest) to the one labeled (g_i, rest).  It is built in the eigenbasis:
there the frame is S = U+ F, a column selection (label b picks the unit
vector of its eigen index) in which only columns given explicitly, such as
an anticrossing's recombined pair (one 2 x 2 rotation on the two branch
rows), hold more than one entry.  So L~ = S sigma_- S+ costs no product with
U, and the bare-basis S_- is U L~ U+.  For the cavity the lowering operator
is the positive-frequency part of a + a+ in the eigenbasis, which
annihilates the dressed vacuum by construction.

Both models give real eigenvectors, and X = a + a+, sigma_x and sigma_- are
real, read from the layout's cached entries (``model._layout_terms``), so the
rate matrices, the lowering operators and the observables' eigenbasis matrices
are formed in real arithmetic; the dtype follows the spectrum's eigenvectors,
and a complex Hamiltonian takes the same path in complex arithmetic.  Complex
numbers enter the dynamics through the state and the coherence multipliers.

The master equation is integrated with the classical fixed-step fourth-order
Runge-Kutta scheme.  In the eigenbasis the generator is time independent and
secular: each coherence rho~_ij evolves alone, multiplied by its own g_ij at
every step, and only the populations mix.  So the RK4 step is a constant
linear map; steps are composed by exact powers of the per-step multipliers,
which reproduces the literal stage-by-stage iteration to rounding error at a
tiny fraction of the cost.

The propagation (``_eigenbasis_stream`` and ``_series``) takes only
eigenbasis inputs, the start rho~0 = U+ rho0 U and the observables
O~ = U+ O U, and reads no eigenvector.  :func:`evolve` and
:func:`expectation_series` own the change of basis: each checks its bare
start (a Ket, a vector or a matrix) and forms rho~0 once.  Every jump of
the zero-temperature rates goes down in energy, so in the ascending
eigenbasis the population generator is upper triangular, and a start on
eigen levels 0..r-1 never leaves them.  The propagation runs on that
leading r x r block alone: r is 1 + the largest index of rho~0's nonzero
entries, grown while the summed rates lead out of levels 0..r-1, as a
rate matrix given by hand may do.  A pair start at a bundled minimum has
r = 5 of d = 64 (fig3) or r = 9 of d = 128 (fig5b, figS2b); a start with
weight on the top level, such as U+ rho0 U of almost any bare state, whose
rounding leaves every entry nonzero, has r = d.  The rates are checked
whole, and the step obeys the full spectrum's spread, so the block takes
the RK4 maps of the full propagation.  The live coherences, i != j with
rho~0_ij != 0, lie in the block and are read once as index arrays; the
rest stay exactly zero.  Their one-step multipliers g_ij, the stability
check on |g_ij|^n and the drop weights are 1-D arrays over them, and only
the kept coherences' multipliers are raised to the n-th power.  The
populations of every grid time are formed first, as one (T, r) float array
(T r 8 bytes, 43 kB for fig5b), and the trace-drift and negative-population
checks run over it before anything is returned.  A run of equal grid
intervals, such as the whole grid of the ``dynamics`` command, is advanced
in blocks of b grid times, with no Python step per grid time: the
populations of a block are one product of the stacked powers M, ..., M^b
of the interval's population map with the populations before it, and its
coherences the elementwise powers g, ..., g^b of their multipliers times
the coherences before it.  b is at most the interval's longest run over
r, so that forming the powers (b r^3) costs no more than the steps they
replace (r^2 each), and at most the grid times whose kept coherences fit
in 1 MiB.  An interval of its own, as on a grid of unequal intervals, is
a run of one, advanced by the same loops in blocks of one.  Every block's
coherences are written into one buffer of as many grid times as fit in
1 MiB, handed on whenever the next block does not fit, so the observables
contract them many grid times at a time.  The state is then streamed in
the eigenbasis, rho~(t_p) = U+ rho(t_p) U, as rows of the populations
array plus (k, m) arrays of the coherences kept at fixed indices (i, j).
:func:`expectation_series` transforms each observable product once and
hands the O~ to ``_series``, which reads only their leading r x r
blocks and keeps only the coherences that can reach an observable: it drops
them in ascending order of the bound
w_ij = |rho~0_ij| max_k |O~_k,ji| (1 + 1e-7)^(T-1), which holds because the
stability check caps every |g_ij^n| at 1 + 1e-7, while their summed bound
stays <= 1e-15, so no value moves by more than that.  The values are
pops . diag(O~_k) + sum rho~_ij O~_k,ji: the populations of the whole grid
are contracted in one (T, r) by (r, n_obs) product, and the m kept
coherences of each yielded set of rows in one (k, m) by (m,) product per
observable.  No (T, d, d) snapshot stack is built.  The ``dynamics``
command builds its start in the eigenbasis itself, and only the r x r
blocks of its O~, and calls ``_series`` directly, which also reports the
kept count and the dropped weight for its manifest; a pair start there has
exactly 2 live coherences and keeps both.  :func:`evolve` keeps every live
coherence, turns every rho~(t_p) back into the bare basis,
U[:, :r] rho~_r U[:, :r]+, and keeps them all as one read-only (T, d, d)
array, which :func:`expectation` contracts with an operator product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import Ket, Operator, _check_hermitian
from .errors import ConfigError, LabelAmbiguityError, NumericalError, StepSizeError
from .model import SystemConfig, _layout_terms, _write_coupling
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
# The bytes of a block of kept coherences that the stream advances at once.
_BLOCK_BYTES = 1 << 20
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


def _lowering_pairs(layout, qubit_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each entry of sigma_-^(i), by row: (lowered, excited)."""
    terms, i = _layout_terms(layout), layout.qubit_index(qubit_index)
    excited = np.flatnonzero(terms.sigma_z[i - 1] > 0)
    return terms.flip[i - 1, excited], excited


def _dressed_lowering(spectrum: SpectrumResult, qubit_index: int,
                      columns: Mapping[int, np.ndarray]) -> np.ndarray:
    """Eigenbasis matrix L~ = S sigma_-^(i) S+ of one qubit's dressed lowering
    operator, with S = U+ F the dressed frame seen from the eigenbasis.

    Column b of S is the unit vector e_k of the eigenstate k that alone claims
    label b, or ``columns[b]`` (bare index -> eigenbasis vector) where one is
    given, and zero where no eigenstate or several claim b.  sigma_- pairs
    each bare state with qubit i excited to the one with it lowered, so L~ is
    S's lowered columns times the conjugate transpose of the excited ones.
    Its dtype follows the spectrum and ``columns``.  Raises
    :class:`LabelAmbiguityError` when no context has both columns.
    """
    dim = spectrum.dim
    lowered, excited = _lowering_pairs(spectrum.layout, qubit_index)
    labels = np.array([bare for bare, _ in spectrum.labels])
    unique = ~np.isin(labels, spectrum.label_collisions)
    frame = np.zeros((dim, dim), dtype=np.result_type(spectrum.states, *columns.values()))
    frame[np.flatnonzero(unique), labels[unique]] = 1.0
    for bare, column in columns.items():
        frame[:, bare] = column
    claimed = frame.any(axis=0)
    if not (claimed[lowered] & claimed[excited]).any():
        raise LabelAmbiguityError(
            f"no resolvable contexts for qubit {qubit_index}; labels do not "
            "cover the needed sector"
        )
    return frame[:, lowered] @ frame[:, excited].conj().T


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
    couplings zero this reduces exactly to the bare sigma_-.  It is built in
    the eigenbasis, S_- = U L~ U+, with L~ the matrix the ``dynamics``
    command contracts directly.

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
    u = spectrum.states
    columns = {spectrum.layout.resolve(bare): u.conj().T @ ket.amp
               for bare, ket in (overrides or {}).items()}
    return Operator(u @ _dressed_lowering(spectrum, qubit_index, columns) @ u.conj().T,
                    spectrum.layout)


def _downward(energies: np.ndarray) -> np.ndarray:
    """Mask of the eigenstate pairs (j, k) that a decay can join, E_j < E_k, with
    pairs within ``_ENERGY_TOL`` counted as degenerate."""
    return energies[:, None] < energies[None, :] - _ENERGY_TOL


def _cavity_lowering(spectrum: SpectrumResult) -> np.ndarray:
    """Eigenbasis matrix of :func:`build_cavity_lowering`'s A_-: the elements
    <psi_j|X|psi_k> of the :func:`_downward` pairs, and zeros elsewhere."""
    u, dim = spectrum.states, spectrum.dim
    x = _write_coupling([(_layout_terms(spectrum.layout).quadrature, 1.0, None)],
                        np.empty((dim, dim)))
    return np.where(_downward(spectrum.energies), u.conj().T @ x @ u, 0.0)


def build_cavity_lowering(spectrum: SpectrumResult) -> Operator:
    """Positive-frequency part of X = a + a+ in the eigenbasis (bare-basis matrix).

    A_- = sum_{E_j < E_k} <psi_j|X|psi_k| |psi_j><psi_k|; annihilates the
    dressed ground state and reduces to the bare a at zero coupling.  Its
    number operator A_+ A_- counts physically detectable photons.
    """
    u = spectrum.states
    return Operator(u @ _cavity_lowering(spectrum) @ u.conj().T, spectrum.layout)


def build_dissipators(spectrum: SpectrumResult, config: SystemConfig) -> dict[str, np.ndarray]:
    """Zero-temperature decay rate matrices for the cavity and each qubit.

    Returns ``{channel: R}`` with channels ``cavity``, ``qubit1``, ... in that
    order, one for every positive kappa (gamma_i).  ``R[j, k]`` is kappa
    (gamma_i) times the squared dressed matrix element of X (sigma_x^(i))
    between eigenstates j and k when E_k > E_j, and zero for upward or
    degenerate pairs (gap at most 1e-12) and for squared elements at or below
    the noise floor.
    X is scattered from the layout's cached entries; sigma_x^(i), a
    permutation, is a column gather of U+, so a qubit channel costs one d^3
    product and the cavity two, in the dtype of ``spectrum.states``.
    """
    layout = spectrum.layout
    if layout != config.layout:
        raise ConfigError("spectrum and config layouts differ")
    u_dag, terms = spectrum.states.conj().T, _layout_terms(layout)
    downward = _downward(spectrum.energies)

    def rate_matrix(strength: float, u_dag_op: np.ndarray) -> np.ndarray:
        elem2 = np.abs(np.ascontiguousarray(u_dag_op) @ spectrum.states) ** 2
        return np.where(downward & (elem2 > _RATE_FLOOR), strength * elem2, 0.0)

    rates = {}
    if config.kappa > 0:
        x = _write_coupling([(terms.quadrature, 1.0, None)], np.empty((layout.dim,) * 2))
        rates["cavity"] = rate_matrix(config.kappa, u_dag @ x)
    for i, q in enumerate(config.qubits, start=1):
        if q.gamma > 0:  # sigma_x^(i) permutes the columns of U+
            rates[f"qubit{i}"] = rate_matrix(q.gamma, u_dag[:, terms.flip[i - 1]])
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


def _propagated_levels(start, gain) -> int:
    """The number r of leading eigen levels a stream propagates: 1 + the
    largest index of a nonzero entry of the start ``start``, grown until no
    nonzero entry of the summed rate matrix ``gain`` leads out of levels
    0..r-1, so that gain[r:, :r] is zero.  Zero-temperature rates only lead
    downward, to lower indices, so they never grow r."""
    levels = 1 + int(np.max(np.nonzero(start), initial=0))
    reached = np.flatnonzero(gain[levels:, :levels].any(axis=1))
    while reached.size:
        levels += 1 + int(reached[-1])
        reached = np.flatnonzero(gain[levels:, :levels].any(axis=1))
    return levels


def _powers(base: np.ndarray, count: int, product) -> np.ndarray:
    """base, base^2, ..., base^count stacked along a new first axis, under
    ``product`` (``np.matmul`` for a matrix, ``np.multiply`` elementwise),
    each stacked range formed in one call by doubling,
    base^(n+j) = base^j base^n."""
    out = np.empty((count,) + base.shape, dtype=base.dtype)
    out[0] = base
    done = 1
    while done < count:
        step = min(done, count - done)
        product(out[:step], out[done - 1], out=out[done:done + step])
        done += step
    return out


def _block_size(run: int, levels: int, kept: int) -> int:
    """The grid times b that one block of an interval advances, at least 1:
    the b powers of its r x r population map cost b r^3, at most the r^2 of
    each step of its longest run of ``run`` equal intervals, which the
    blocks replace, and b grid times of the ``kept`` coherences take at
    most ``_BLOCK_BYTES``."""
    return max(1, min(run // levels, _BLOCK_BYTES // (16 * max(kept, 1))))


class _Stream:
    """rho~(t_p) = U+ rho(t_p) U at every grid time of a checked propagation.

    ``populations`` is the (T, r) array of the populations of levels 0..r-1
    at every grid time; the levels beyond r hold none.  ``blocks()`` yields
    the kept coherences of consecutive grid times as (p, rows) pairs, the
    (k, m) array ``rows`` holding them at grid times p..p+k-1, valid until
    the next pair is drawn.  ``runs`` holds (first interval, end, powers)
    for each run of equal intervals, one interval long or many, and each
    run is advanced in blocks of up to b grid times, b the number of the
    powers g, g^2, ..., g^b of its multiplier; a block's coherences are
    those powers times the coherences before it.  Every block is written
    into one buffer of min(T, ``_BLOCK_BYTES`` / 16 m) rows, never fewer
    than the largest block, whose row 0 holds rho~0's coherences; a block
    that does not fit first yields the rows held and restarts at row 0.
    Iterating yields (diagonal, kept coherences) pairs one grid time at a
    time, the first diagonal rho~0's own and the later ones of length d,
    zero beyond r, in one buffer valid until the next pair.
    """

    def __init__(self, start, populations, kept, runs):
        self.populations = populations
        self._start, self._kept, self._runs = start, kept, runs

    def blocks(self):
        width = self._kept[0].size
        fit = min(len(self.populations), _BLOCK_BYTES // (16 * max(width, 1)))
        # never fewer than one row, nor than the largest block
        rows = np.empty((max([1, fit] + [len(g) for _, _, g in self._runs]), width), dtype=complex)
        rows[0] = self._start[self._kept]
        last, count = rows[0], 1  # the coherences before the next block, the rows held
        for begin, end, g in self._runs:
            for p in range(begin, end, len(g)):
                size = min(len(g), end - p)
                if count + size > len(rows):
                    yield p + 1 - count, rows[:count]
                    count = 0
                # g^k * rho~ in this operand order: with fused multiply-adds a complex
                # product can differ in the last bit when its factors swap.  ``last``
                # may be a row this block overwrites; numpy reads it before writing
                last = np.multiply(g[:size], last, out=rows[count:count + size])[-1]
                count += size
        yield len(self.populations) - count, rows[:count]

    def __iter__(self):
        rows = (coh for _, block in self.blocks() for coh in block)
        yield np.diagonal(self._start), next(rows)
        diagonal = np.zeros(len(self._start))
        for row, coh in zip(self.populations[1:], rows):
            diagonal[:row.size] = row
            yield diagonal, coh


def _eigenbasis_stream(start, spectrum, rates, t_grid, max_step, reach=None):
    """Validate the time grid, the rates and the step, propagate the
    populations over the whole grid and check them, then return the time
    grid, the flat indices i d + j of the coherences rho~_ij that are kept,
    the summed weight of the dropped ones, and a :class:`_Stream` of
    rho~(t_p) = U+ rho(t_p) U at every grid time.

    ``start`` is the initial state in the eigenbasis, the d x d matrix
    rho~0 = U+ rho0 U, taken unchecked; of ``spectrum`` only the energies are
    read.  The rates only move population from level k to level j where
    the summed rate matrix has gain[j, k] > 0, so levels 0..r-1 of
    :func:`_propagated_levels` hold the whole state at every time, and only
    that leading r x r block is propagated: a zero-temperature start on
    levels 0..r-1 keeps r, an upward rate out of them grows it, and a start
    with weight on the top level has r = d.  The rate matrices are checked
    whole, and the step rule reads the full spectrum's spread, so the block
    is propagated with the RK4 maps of the full one.  The live coherences,
    i != j with rho~0_ij != 0, are read once as index arrays; the rest stay
    exactly zero.  Without ``reach`` every live coherence is kept.
    ``reach`` is an array of at least r x r bounding the observables
    elementwise, reach >= |O~_k| for every eigenbasis observable O~_k.  With
    it, live coherence ij has the weight w_ij = |rho~0_ij| reach_ji
    (1 + 1e-7)^(T-1), which bounds its term in every Tr[rho~(t_p) O~_k]
    because the stability check caps every live |g_1|^n at 1 + 1e-7;
    coherences are dropped in ascending weight while their summed weight
    stays <= ``_DROP_BOUND``.

    An interval of n RK4 steps multiplies coherence ij by g = g_1^n, with
    g_1 its one-step multiplier, and the populations by the map M = p_n.
    One ``np.unique`` finds the distinct intervals, and each gets its maps
    once, checked in the order of its first grid time: g_1 is computed for
    every live coherence, and the stability check reads |g_1|^n off it;
    only the kept coherences' g_1 are raised to the n-th power.  A run of
    equal intervals is advanced in blocks of b grid times
    (:func:`_block_size`): the populations of a block are one product of
    the stacked powers M, M^2, ..., M^b with the populations before it, and
    its coherences the powers g, g^2, ..., g^b times the coherences before
    it, each set of powers formed once per distinct interval.  A grid of
    unequal intervals has runs, and so blocks, of one, which take the same
    loops, and the stream writes every block's coherences into one buffer
    of rows that it yields when the next block does not fit.  The
    populations of every grid time are formed before the return, as one
    (T, r) array, and a trace drift or a negative population raises
    :class:`StepSizeError` at the first grid time that has either, the
    drift named first, so the stream raises nothing.  A time grid that is
    not a 1-D sequence of real numbers, or a ``max_step`` that is not a
    real number, raises :class:`ConfigError`.
    """
    dim, e = spectrum.dim, spectrum.energies

    try:
        times = np.array(list(t_grid))
    except (TypeError, ValueError):  # not iterable, or ragged
        times = np.array(None)
    if times.ndim != 1 or times.dtype.kind not in "iuf":
        raise ConfigError("time grid must be a 1-D sequence of real numbers")
    times = times.astype(float)
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
    levels = _propagated_levels(start, gain)

    if max_step is not None:
        if not isinstance(max_step, numbers.Real):
            raise ConfigError(f"max_step must be a real number, got {max_step!r}")
        if not max_step > 0:  # also NaN
            raise ConfigError("max_step must be positive")
        h_max = float(max_step)
    else:
        spread, span = float(e[-1] - e[0]), float(times[-1] - times[0])
        h_max = min(0.01 / spread if spread > 0 else math.inf,
                    span / 1000.0 if span > 0 else math.inf)

    live = np.array(np.nonzero(start))
    ii, jj = live[:, live[0] != live[1]]  # the populations follow p_n instead
    weight = np.abs(start[ii, jj])
    bound = 0.0  # keeps every live coherence
    if reach is not None:  # a returned stream has every live |g_1|^n <= 1 + _DRIFT_TOL
        weight *= reach[jj, ii] * (1.0 + _DRIFT_TOL) ** (times.size - 1)
        bound = _DROP_BOUND
    order = np.argsort(weight, kind="stable")
    cumulative = np.cumsum(weight[order])
    dropped = int(np.searchsorted(cumulative, bound, side="right"))
    dropped_weight = float(cumulative[dropped - 1]) if dropped else 0.0
    kept = np.sort(order[dropped:])
    # each live coherence's rate: d rho~_ij / dt = (-i omega_ij - decay_ij) rho~_ij
    coherence_rate = -1j * (e[ii] - e[jj]) - 0.5 * (out_rate[ii] + out_rate[jj])
    w_pop = gain[:levels, :levels] - np.diag(out_rate[:levels])

    # One RK4 map per distinct interval, checked in the order of the
    # intervals' first grid times: the powers of the kept coherences'
    # multipliers g_1^n and of the population map p_n of the block, up to
    # the block size.  A stable step keeps |g_1|^n <= 1 on every live
    # coherence.  An unstable one may overflow the maps and the populations
    # to inf or NaN, which the checks name.
    distinct, first, which = np.unique(np.diff(times), return_index=True, return_inverse=True)
    runs = np.flatnonzero(np.diff(which, prepend=-1))  # the first interval of each run
    ends = np.append(runs[1:], which.size)
    longest = np.zeros(distinct.size, dtype=int)
    np.maximum.at(longest, which[runs], ends - runs)
    maps: list = [None] * distinct.size
    pops = np.empty((times.size, levels))
    pops[0] = np.real(np.diagonal(start))[:levels]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in np.argsort(first).tolist():
            dt, p = float(distinct[k]), int(first[k]) + 1
            steps = dt / h_max  # 0 for an unbounded step
            if steps == math.inf:
                raise ConfigError(f"interval {dt:.6g} before t = {times[p]:.6g} needs more "
                                  f"RK4 steps of at most {h_max:.3g} than a float can count")
            n = max(1, math.ceil(steps))
            h = dt / n
            g_1 = _rk4_scalar(h * coherence_rate)
            worst = float((np.abs(g_1) ** n).max(initial=1.0))
            if not worst <= 1.0 + _DRIFT_TOL:  # also an overflow to inf or NaN
                raise StepSizeError(
                    f"coherence multiplier {worst:.3e} exceeds 1 + {_DRIFT_TOL:.1e} at "
                    f"t = {times[p]:.6g}; retry with a smaller max_step"
                )
            size = _block_size(int(longest[k]), levels, kept.size)
            maps[k] = (_powers(g_1[kept] ** n, size, np.multiply),
                       _powers(np.linalg.matrix_power(_rk4_matrix(h * w_pop), n), size,
                               np.matmul).reshape(-1, levels))
        # each run: its first interval, the one after its last, its maps
        runs = [(begin, end, maps[k]) for begin, end, k in
                zip(runs.tolist(), ends.tolist(), which[runs].tolist())]
        # each block of a run: p_n^1..p_n^b times the populations before it, one product
        for begin, end, (g, powers) in runs:
            for p in range(begin, end, len(g)):
                size = min(len(g), end - p)
                np.matmul(powers[:size * levels], pops[p],
                          out=pops[p + 1:p + 1 + size].reshape(-1))
        drift = np.abs(pops[1:].sum(axis=1) - pops[0].sum())
        # An unstable population step can keep the trace and still
        # overshoot, which shows as a negative population.
        low = pops[1:].min(axis=1)
    failed = np.flatnonzero(~((drift <= _DRIFT_TOL) & (low >= -_DRIFT_TOL)))  # also NaN
    if failed.size:  # at the first failing grid time, the trace drift before the population
        p = failed[0]
        what = (f"trace drift {drift[p]:.3e} exceeds {_DRIFT_TOL:.1e}" if not drift[p] <= _DRIFT_TOL
                else f"population {low[p]:.3e} below -{_DRIFT_TOL:.1e}")
        raise StepSizeError(f"{what} at t = {times[p + 1]:.6g}; retry with a smaller max_step")
    ii, jj = ii[kept], jj[kept]
    stream = _Stream(start, pops, (ii, jj), [(begin, end, g) for begin, end, (g, _) in runs])
    return times, ii * dim + jj, dropped_weight, stream


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
    ``max_step`` replaces that rule with an explicit bound.  A time grid that
    is not a 1-D sequence of real numbers, not strictly increasing or not
    finite, a ``max_step`` that is not a positive real number, or an
    interval that needs more steps than a float can count, raises
    :class:`ConfigError`.  A coherence
    multiplier above 1 + 1e-7 over any grid interval, on a coherence
    rho~0_ij != 0 of the initial state in the eigenbasis, trace drift beyond
    1e-7, or a population below -1e-7 raises :class:`StepSizeError`; so a
    returned state is a density matrix only to those 1e-7 limits.

    Only the eigen levels 0..r-1 that rho0 and the rates reach are
    propagated (see ``_eigenbasis_stream``): r = 1 + the largest index of a
    nonzero entry of U+ rho0 U, grown while a rate leads out of those
    levels, and r = d for a state with weight on the top level.  Each state
    is formed as U[:, :r] rho~_r U[:, :r]+ from the r x r block rho~_r that
    holds all of it; the step rule still reads the spread of all of H.
    """
    dim, u = spectrum.dim, spectrum.states
    start = u.conj().T @ _coerce_rho(rho0, dim) @ u
    times, keep, _, stream = _eigenbasis_stream(start, spectrum, rates, t_grid, max_step)
    levels = stream.populations.shape[1]
    ii, jj = np.divmod(keep, dim)
    u_block = u[:, :levels]
    u_block_dag = u_block.conj().T
    rho = np.zeros((levels, levels), dtype=complex)  # the leading block of rho~
    states = np.empty((times.size, dim, dim), dtype=complex)
    for p, (diagonal, coh) in enumerate(stream):
        np.fill_diagonal(rho, diagonal[:levels])
        rho[ii, jj] = coh
        states[p] = u_block @ rho @ u_block_dag
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
    left out change no value by more than 1e-15.  Only the leading r x r
    block of each O~ is read, r the eigen levels that the start and the
    rates reach, as :func:`evolve` propagates them.  Unlike :func:`evolve`,
    no (T, d, d) stack of snapshots is built; the populations of every grid
    time are held as T r floats of 8 bytes (43 kB for fig5b's 600 times at
    r = 9 of d = 128, and T d, 0.6 MB there, for a start with r = d).
    """
    dim, u = spectrum.dim, spectrum.states
    start = u.conj().T @ _coerce_rho(rho0, dim) @ u
    basis = []
    for operators in observables:
        prod = _operator_product(operators)
        if prod.shape != (dim, dim):
            raise ConfigError(
                f"operator dimension {prod.shape[0]} does not match state dimension {dim}"
            )
        basis.append(u.conj().T @ prod @ u)
    return _series(start, spectrum, rates, t_grid, basis, max_step)[0]


def _series(start, spectrum: SpectrumResult, rates: Mapping[str, np.ndarray],
            t_grid: Sequence[float], basis: Sequence[np.ndarray],
            max_step: float | None = None) -> tuple[np.ndarray, int, float]:
    """:func:`expectation_series` on a start and observables given in the eigenbasis.

    ``start`` is the d x d matrix rho~0 = U+ rho0 U, taken unchecked, and
    ``basis`` holds one matrix O~_k = U+ O_k U per observable, all of one
    size, at least the r x r of the levels the stream propagates (the
    ``dynamics`` command passes exactly those blocks); only their leading
    r x r blocks are read.  ``spectrum.states`` is not read.  The
    populations of the whole grid are contracted in one product,
    pops . diag(O~_k)[:r], and the kept coherences of each block of the
    stream in one matrix-vector product per observable.  Returns the float
    (T, n_obs) values, the number of coherences kept and the summed weight
    of the dropped ones, which bounds how far any value moved.
    """
    dim = spectrum.dim
    basis = np.asarray(basis) if len(basis) else np.zeros((0, dim, dim))
    reach = np.abs(basis).max(axis=0, initial=0.0)
    times, keep, dropped_weight, stream = _eigenbasis_stream(
        start, spectrum, rates, t_grid, max_step, reach)
    # Tr[rho~ O~] = sum_i rho~_ii O~_ii + sum_ij rho~_ij O~_ji, over the
    # propagated levels i and the kept coherences ij
    levels = stream.populations.shape[1]
    ii, jj = np.divmod(keep, dim)
    coherence_basis = basis[:, jj, ii].astype(complex)
    values = np.zeros((len(basis), times.size), dtype=complex)  # one row an observable
    for p, coh in stream.blocks() if keep.size else ():  # none kept add nothing
        # one matrix-vector product per observable: a (b, m) by (m, n_obs)
        # complex matrix product raises the peak RSS by about 0.3 MB, which
        # BLAS's work buffers take
        for row, observable in zip(values, coherence_basis):
            np.matmul(coh, observable, out=row[p:p + len(coh)])
    values += (stream.populations @ np.diagonal(basis, axis1=1, axis2=2)[:, :levels].T).T
    return _real_values(values.T), int(keep.size), dropped_weight


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
