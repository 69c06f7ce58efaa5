"""Diagonalization, dressed-state labeling, parameter sweeps and anticrossings.

Eigenstates of the interacting Hamiltonian are labeled by the bare product
state with which they have maximum squared overlap.  All reported energies
are offset so the ground state sits at zero.  Avoided crossings are located
by golden-section minimization of the gap between the two eigenbranches that
span a nominated pair of bare states; the half-gap at the minimum is the
effective coupling of the resonant mixing process, and the search's report
carries the spectrum there, which the dynamics take.

Sweeps spread their grid points over the available cores.  Every
diagonalization here runs with OpenBLAS held at one thread, which also makes
its result independent of the machine's BLAS threading (at d = 256 two BLAS
threads move energies by up to 1.8e-14); products elsewhere, such as the
dynamics, keep BLAS's default threads, on which a 128 x 128 complex product
takes 0.19 ms against 0.30 ms on one.

Both model Hamiltonians are real float64 matrices, assembled from terms that
:mod:`vpmix.model` caches once per layout, so ``eigh`` takes its
real-symmetric path and the phase gauge of :func:`diagonalize` reduces to a
sign gauge.  Eigenvectors are stored complex either way.  Each thread of a
sweep, and each search, assembles every grid point into one reused buffer,
has ``eigh`` write into one reused pair of outputs, and reads labels,
energies and branch weights straight off the real eigenvectors, so a grid
point allocates no d x d array.
"""

from __future__ import annotations

import ctypes
import math
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .algebra import HilbertLayout, Ket, Operator, _check_hermitian
from .errors import BranchTrackingError, ConfigError, HermiticityError, NumericalError
from .model import MODEL_BUILDERS, SystemConfig, _ASSEMBLERS, _buffer, _check_model

__all__ = [
    "SpectrumResult",
    "SweepResult",
    "AnticrossingReport",
    "diagonalize",
    "set_parameter",
    "sweep_levels",
    "find_anticrossing",
    "superposition_states",
    "coupling_sign",
    "MODEL_BUILDERS",
]

# Thresholds for identifying the two eigenbranches spanned by a bare pair:
# each selected branch must hold at least _PAIR_MIN of the pair weight and
# any third state at most _THIRD_MAX, otherwise tracking is ambiguous.
_PAIR_MIN = 0.45
_THIRD_MAX = 0.45
_HERMITICITY_TOL = 1e-9  # largest |H - H+| entry _eigh accepts
# Bare weights within this of an eigenstate's largest count as tied for its
# label, and the lowest tied bare index wins, so rounding noise cannot decide.
_LABEL_TIE_TOL = 1e-12
# OpenBLAS's thread-count controls, as the scipy-openblas build that numpy
# wheels bundle names them and as a plain OpenBLAS build does.
_BLAS_CONTROLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                  ("openblas_get_num_threads", "openblas_set_num_threads"))


@cache
def _blas_control():
    """(get, set) of the thread count of the BLAS numpy's LAPACK calls, or
    None where that BLAS is no OpenBLAS or its controls are not exported."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for names in _BLAS_CONTROLS:
        try:
            get, set_ = (getattr(lib, name) for name in names)
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


class _BlasPin:
    """Context that holds OpenBLAS at one thread while any caller is inside.

    The first entry saves the thread count and sets it to one, the last exit
    restores it; nested and concurrent entries share that one pin.  Yields
    whether the count could be set.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    @contextmanager
    def __call__(self):
        control = _blas_control()
        if control is None:
            yield False
            return
        get, set_ = control
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                set_(1)
            self._depth += 1
        try:
            yield True
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    set_(self._saved)


_one_blas_thread = _BlasPin()


def _available_cores() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SpectrumResult:
    """Eigendecomposition with ground-offset energies and bare-state labels.

    ``labels[k]`` is ``(bare_index, weight)`` where weight is the squared
    overlap of eigenstate k with its dominant bare state.  ``label_collisions``
    lists bare indices claimed by more than one eigenstate.  Nothing resolves
    them: a collided label gets no dressed vector, so dressed operators drop
    every context that passes through it.
    """

    energies: np.ndarray
    states: np.ndarray
    labels: tuple[tuple[int, float], ...]
    layout: HilbertLayout
    label_collisions: tuple[int, ...]

    def __post_init__(self):
        e = np.array(self.energies, dtype=float)
        e.setflags(write=False)
        s = np.array(self.states, dtype=complex)
        s.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "states", s)

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def eigenket(self, k: int) -> Ket:
        return Ket(self.states[:, k], self.layout)

    def label_string(self, k: int) -> str:
        return self.layout.label_string(self.labels[k][0])


def _nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _eigh(mat: np.ndarray, scratch: np.ndarray,
          out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Checked ``eigh``: ground-offset energies and the raw eigenvectors.

    ``scratch``, an array of ``mat``'s shape and dtype, holds the Hermiticity
    check's |H - H+| and is overwritten; a NaN or an infinity in ``mat``
    raises :class:`HermiticityError` there.  A real ``mat`` gives real
    eigenvectors, which are neither labeled nor gauged here.  They and the
    energies are written into ``out``, a real length-d array and an array
    like ``mat``, or into fresh arrays if it is None.

    This calls the gufunc behind ``numpy.linalg.eigh``, with that function's
    error handling, because only the gufunc takes ``out``.  A loop that
    reuses ``out`` frees no d x d array per point, which in some heap layouts
    left a block above glibc's trim threshold free at the heap top, to be
    returned to the OS and faulted back in (9,900 minor faults a warm
    200-point sweep instead of 130).
    """
    _check_hermitian(mat, _HERMITICITY_TOL, HermiticityError, "matrix", scratch)
    if out is None:
        out = np.empty(len(mat)), np.empty_like(mat)
    with np.errstate(call=_nonconvergence, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        energies, states = _umath_linalg.eigh_lo(
            mat, out=out, signature="D->dD" if np.iscomplexobj(mat) else "d->dd")
    energies -= energies[0]
    return energies, states


def _workspace(config: SystemConfig):
    """Arrays one thread reuses at every grid point: the assembly target, the
    Hermiticity check's scratch and the outputs of ``eigh``."""
    mat = _buffer(config)
    return mat, np.empty_like(mat), (np.empty(len(mat)), np.empty_like(mat))


def _dominant(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dominant bare index of each column, with its amplitude and |amplitude|.

    The dominant index is the lowest one whose weight is within
    ``_LABEL_TIE_TOL`` of the column's largest.  Only the given columns are
    read, so a sweep pays for the levels it reports.
    """
    weights = np.abs(columns) ** 2
    dominant = np.argmax(weights >= weights.max(axis=0) - _LABEL_TIE_TOL, axis=0)
    amp = columns[dominant, np.arange(columns.shape[1])]
    # hypot, as scalar abs() computes it: numpy's vectorized complex abs rounds
    # differently on some CPUs and would move the gauged states by an ulp.
    return dominant, amp, np.hypot(amp.real, amp.imag)


def diagonalize(op: Operator) -> SpectrumResult:
    """Full eigendecomposition with max-overlap labeling.

    Each eigenstate is labeled by its dominant bare state, the lowest bare
    index whose weight is within ``_LABEL_TIE_TOL`` of the largest.
    Eigenvector phases are gauged so the dominant component of each column is
    real and positive, which makes downstream superpositions well defined; for
    a real symmetric input this is a choice of sign.
    """
    with _one_blas_thread():
        energies, states = _eigh(op.mat, np.empty_like(op.mat))
    dominant, amp, norm = _dominant(states)
    states = states * np.conj(amp / norm)
    labels = tuple(zip(dominant.tolist(), (norm * norm).tolist()))

    claimed: set[int] = set()
    collisions: list[int] = []
    for bare in dominant.tolist():
        if bare in claimed and bare not in collisions:
            collisions.append(bare)
        claimed.add(bare)
    return SpectrumResult(
        energies=energies,
        states=states,
        labels=labels,
        layout=op.layout,
        label_collisions=tuple(collisions),
    )


_PATH_RE = re.compile(r"^qubits\[(\d+)\]\.(omega|lam|theta|gamma)$")


def _parameter_field(config: SystemConfig, path: str) -> tuple[int | None, str]:
    """(qubit list index or None for a config field, field name) of a path."""
    if path in ("omega_c", "kappa"):
        return None, path
    m = _PATH_RE.match(path)
    if not m:
        raise ConfigError(f"cannot resolve parameter path {path!r}")
    k = int(m.group(1))
    if not 0 <= k < config.qubit_count:
        raise ConfigError(f"qubit list index {k} outside 0..{config.qubit_count - 1}")
    return k, m.group(2)


def set_parameter(config: SystemConfig, path: str, value: float) -> SystemConfig:
    """Return a copy of ``config`` with one scalar field replaced.

    Paths: ``omega_c``, ``kappa``, or ``qubits[k].field`` with k a 0-based
    list index and field one of omega/lam/theta/gamma.
    """
    k, name = _parameter_field(config, path)
    if k is None:
        return replace(config, **{name: value})
    qubits = list(config.qubits)
    qubits[k] = replace(qubits[k], **{name: value})
    return replace(config, qubits=tuple(qubits))


def _assembler(config: SystemConfig, parameter: str, model: str):
    """In-place assembler of ``model``, once ``parameter`` resolves on ``config``
    to a field the model's Hamiltonian reads (any other gives a flat sweep)."""
    return _ASSEMBLERS[_check_model(model, _parameter_field(config, parameter)[1])]


@dataclass(frozen=True)
class SweepResult:
    """Lowest excited levels along a parameter grid.

    ``energies[p, m]`` is the (m+1)-th excited ground-offset energy at grid
    point p; ``labels``/``overlaps`` give each level's dominant bare index and
    weight.  ``workers`` threads evaluated the grid, with OpenBLAS held at one
    thread if ``blas_pinned``.
    """

    parameter: str
    grid: np.ndarray
    energies: np.ndarray
    labels: np.ndarray
    overlaps: np.ndarray
    layout: HilbertLayout
    workers: int
    blas_pinned: bool


def _sweep_inputs(config: SystemConfig, parameter: str, grid: Sequence[float],
                  level_count: int, model: str = "dicke"):
    """Checked grid array and assembler: the argument checks of :func:`sweep_levels`."""
    grid_arr = np.asarray(list(grid), dtype=float)
    if grid_arr.size > 1:
        diffs = np.diff(grid_arr)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep grid must be strictly monotone")
    assemble = _assembler(config, parameter, model)
    if level_count < 1 or level_count >= config.layout.dim:
        raise ConfigError(f"level_count must be in 1..{config.layout.dim - 1}, got {level_count}")
    return grid_arr, assemble


def sweep_levels(
    config: SystemConfig,
    parameter: str,
    grid: Sequence[float],
    level_count: int,
    model: str = "dicke",
) -> SweepResult:
    """Diagonalize along a grid and report the lowest excited levels.

    The grid is split into contiguous chunks, one per available core and at
    most one per point.  The calling thread evaluates the first chunk and a
    thread of its own each other one, every thread with its own buffers and
    rows of the result, while OpenBLAS is held at one thread: at d = 128 on
    two cores this takes 1.14 ms a point against 2.0 ms serially, where the
    same threads over a two-thread BLAS took 3.47 ms.  Where OpenBLAS's
    thread count cannot be set, one thread evaluates the whole grid.  Each
    point's energies, labels and weights equal those of :func:`diagonalize`
    on the model's builder bit for bit, whatever the number of threads.
    """
    grid_arr, assemble = _sweep_inputs(config, parameter, grid, level_count, model)
    shape = (grid_arr.size, level_count)
    energies, labels, overlaps = np.empty(shape), np.empty(shape, dtype=int), np.empty(shape)
    sel = slice(1, level_count + 1)

    def evaluate(lo: int, hi: int) -> None:
        mat, scratch, out = _workspace(config)
        for p in range(lo, hi):
            e, states = _eigh(assemble(set_parameter(config, parameter, grid_arr[p]), mat),
                              scratch, out)
            dominant, _, norm = _dominant(states[:, sel])
            energies[p], labels[p], overlaps[p] = e[sel], dominant, norm * norm

    with _one_blas_thread() as pinned:
        workers = max(1, min(_available_cores(), grid_arr.size)) if pinned else 1
        _in_chunks(evaluate, grid_arr.size, workers)
    return SweepResult(parameter=parameter, grid=grid_arr, energies=energies, labels=labels,
                       overlaps=overlaps, layout=config.layout, workers=workers,
                       blas_pinned=pinned)


def _in_chunks(evaluate, points: int, workers: int) -> None:
    """Call ``evaluate(lo, hi)`` on ``workers`` contiguous chunks of
    range(points): the first on the calling thread, each other one on a
    thread of its own.  Once every thread has finished, the error of the
    first chunk that raised one is raised again."""
    bounds = [points * k // workers for k in range(workers + 1)]
    errors: list[BaseException | None] = [None] * workers

    def chunk(k: int) -> None:
        try:
            evaluate(bounds[k], bounds[k + 1])
        except BaseException as err:  # raised again on the calling thread below
            errors[k] = err

    threads = [threading.Thread(target=chunk, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    chunk(0)
    for thread in threads:
        thread.join()
    for err in errors:
        if err is not None:
            raise err


@dataclass(frozen=True)
class AnticrossingReport:
    """Minimum-gap point of two eigenbranches spanning a bare pair.

    ``splitting`` is the full gap 2J at the minimum; ``superposition_overlaps``
    are the squared overlaps of the two branch eigenstates with the symmetric/
    antisymmetric combinations (|u> +- |v>)/sqrt(2) of the nominated pair.
    All are read from ``spectrum``, the model diagonalized at ``location``.
    """

    parameter: str
    location: float
    splitting: float
    branch_indices: tuple[int, int]
    branch_energies: tuple[float, float]
    superposition_overlaps: tuple[float, float]
    bare_pair: tuple[int, int]
    evaluations: int
    spectrum: SpectrumResult = field(compare=False, repr=False)


def _pair_branches(states: np.ndarray, u: int, v: int) -> tuple[int, int]:
    """Indices of the two eigenvectors (columns of ``states``) carrying the
    weight of bare states u, v."""
    combined = np.abs(states[u, :]) ** 2 + np.abs(states[v, :]) ** 2
    order = np.argsort(combined)[::-1]
    a, b = int(order[0]), int(order[1])
    third = float(combined[order[2]]) if combined.size > 2 else 0.0
    if combined[a] < _PAIR_MIN or combined[b] < _PAIR_MIN or third > _THIRD_MAX:
        raise BranchTrackingError(
            f"cannot isolate two branches for bare pair ({u}, {v}): "
            f"top weights {combined[a]:.3f}, {combined[b]:.3f}, "
            f"third {third:.3f} (eigenstate {int(order[2])})"
        )
    return (a, b) if a < b else (b, a)


def _two(name: str, items) -> tuple:
    """The two items of ``items``, or :class:`ConfigError` for any other count."""
    try:
        first, second = items
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must have exactly two items, got {items!r}") from None
    return first, second


def _search_inputs(config: SystemConfig, parameter: str, bracket: tuple[float, float],
                   bare_pair: tuple, model: str = "dicke", tol: float = 1e-6):
    """Checked assembler, u, v and bracket: the argument checks of :func:`find_anticrossing`."""
    assemble = _assembler(config, parameter, model)
    u, v = (config.layout.resolve(spec) for spec in _two("bare_pair", bare_pair))
    if u == v:
        raise ConfigError("bare pair must be two distinct states")
    lo, hi = (float(end) for end in _two("bracket", bracket))
    if not hi > lo:
        raise ConfigError(f"invalid bracket {bracket}")
    spacing = float(np.spacing(max(abs(lo), abs(hi))))
    if not tol >= spacing:  # also NaN
        raise ConfigError(f"tol must be positive and at least the float spacing {spacing:.3g} "
                          f"of the bracket ends, got {tol!r}")
    return assemble, u, v, lo, hi


def find_anticrossing(
    config: SystemConfig,
    parameter: str,
    bracket: tuple[float, float],
    bare_pair: tuple,
    model: str = "dicke",
    tol: float = 1e-6,
) -> AnticrossingReport:
    """Locate the minimum splitting between the branches of a bare pair.

    The gap is assumed unimodal inside ``bracket`` (pre-scan with
    :func:`sweep_levels` to establish one).  Golden-section refinement runs to
    parameter tolerance ``tol``; a minimum within ``tol`` of either bracket end
    raises :class:`NumericalError`, since the gap may still fall beyond it.
    A ``tol`` below the float spacing of the bracket ends (zero and negative
    ones included) raises :class:`ConfigError`: the interval stops shrinking
    there, and the refinement would never end.  The last evaluation builds the
    model at the minimum and diagonalizes it for the report's ``spectrum``.
    """
    assemble, u, v, lo, hi = _search_inputs(config, parameter, bracket, bare_pair, model, tol)
    evaluations = 0
    mat, scratch, out = _workspace(config)

    def gap_at(x: float) -> float:
        # raw real eigenvectors: the sign gauge of diagonalize changes no weight
        nonlocal evaluations
        evaluations += 1
        energies, states = _eigh(assemble(set_parameter(config, parameter, x), mat), scratch,
                                 out)
        a, b = _pair_branches(states, u, v)
        return float(energies[b] - energies[a])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a_x, b_x = lo, hi
    h = b_x - a_x
    c_x = a_x + invphi2 * h
    d_x = a_x + invphi * h
    with _one_blas_thread():
        yc, yd = gap_at(c_x), gap_at(d_x)
        while h > tol:
            if yc < yd:
                b_x, d_x, yd = d_x, c_x, yc
                h = b_x - a_x
                c_x = a_x + invphi2 * h
                yc = gap_at(c_x)
            else:
                a_x, c_x, yc = c_x, d_x, yd
                h = b_x - a_x
                d_x = a_x + invphi * h
                yd = gap_at(d_x)
        x_min = 0.5 * (a_x + b_x)
        if min(x_min - lo, hi - x_min) <= tol:
            raise NumericalError(
                f"gap minimum {x_min:.9g} lies within tol {tol:g} of an end of the "
                f"bracket [{lo:g}, {hi:g}]; widen the bracket"
            )
        evaluations += 1
        spectrum = diagonalize(MODEL_BUILDERS[model](set_parameter(config, parameter, x_min)))
    energies, states = spectrum.energies, spectrum.states
    ia, ib = _pair_branches(states, u, v)

    bare_u, bare_v = np.eye(spectrum.dim, dtype=complex)[[u, v]]
    plus, minus = (bare_u + bare_v) / math.sqrt(2.0), (bare_u - bare_v) / math.sqrt(2.0)
    o_ap, o_am, o_bp, o_bm = (float(abs(np.vdot(vec, states[:, k])) ** 2)
                              for k in (ia, ib) for vec in (plus, minus))
    # Assign each branch its better-matching superposition, without reuse.
    overlaps = (o_ap, o_bm) if o_ap + o_bm >= o_am + o_bp else (o_am, o_bp)

    return AnticrossingReport(
        parameter=parameter, location=float(x_min), splitting=float(energies[ib] - energies[ia]),
        branch_indices=(ia, ib), branch_energies=(float(energies[ia]), float(energies[ib])),
        superposition_overlaps=overlaps, bare_pair=(u, v), evaluations=evaluations,
        spectrum=spectrum)


def superposition_states(report: AnticrossingReport) -> tuple[Ket, Ket]:
    """Reconstruct the dressed pair (u~, v~) from the two split eigenstates.

    At the gap minimum the eigenstates are close to (u~ +- v~)/sqrt(2); the
    symmetric/antisymmetric recombination recovers the dressed counterparts of
    the bare pair.  Phases are gauged so <u_bare|u~> and <v_bare|v~> are real
    and positive.
    """
    spectrum, (bare_u, bare_v) = report.spectrum, report.bare_pair
    psi_a, psi_b = (spectrum.states[:, k] for k in report.branch_indices)
    plus = (psi_a + psi_b) / math.sqrt(2.0)
    minus = (psi_a - psi_b) / math.sqrt(2.0)
    u_vec, v_vec = ((plus, minus) if abs(plus[bare_u]) ** 2 >= abs(minus[bare_u]) ** 2
                    else (minus, plus))
    for vec, bare in ((u_vec, bare_u), (v_vec, bare_v)):
        amp = vec[bare]
        if abs(amp) < 1e-12:
            raise BranchTrackingError(
                f"dressed counterpart of bare state {bare} has no weight on it"
            )
        vec *= np.conj(amp / abs(amp))
    return Ket(u_vec, spectrum.layout), Ket(v_vec, spectrum.layout)


def coupling_sign(report: AnticrossingReport) -> int:
    """Sign of the effective coupling J at an anticrossing minimum.

    In the two-level reduction H_eff = J (|u><v| + |v><u|) the lower branch is
    the antisymmetric combination for J > 0 and the symmetric one for J < 0;
    the sign is read off the bare components of the lower eigenvector.  The
    state generated from u~ after a quarter Rabi period is
    (u~ - i sign(J) v~)/sqrt(2).
    """
    bare_u, bare_v = report.bare_pair
    lower = report.spectrum.states[:, min(report.branch_indices)]
    prod = float(np.real(lower[bare_u]) * np.real(lower[bare_v]))
    if prod == 0.0:
        raise BranchTrackingError(
            "lower branch carries no weight on the bare pair; sign undefined"
        )
    return -1 if prod > 0 else 1
