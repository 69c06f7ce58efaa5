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
sign gauge.  Eigenvectors keep the dtype ``eigh`` gives them, float64 for a
real Hamiltonian, so the dynamics' dressed products on them run in real
arithmetic; a complex Hamiltonian gives complex128 ones.

Every eigensolve goes through one checked solver, :class:`_Solver`, which
reuses the arrays it owns and takes the eigenpair range per call.  Each
thread of a sweep, and each search, keeps one solver and reads labels,
energies and branch weights straight off the real eigenvectors, so a grid
point allocates no d x d array.  A sweep or a search builds one pencil of
its swept field per call (:class:`vpmix.model._Pencil`): the model at the
given config is assembled once, into the first solver's buffer, and checked
there once.  Each point is then written from the entries that the field
does not move plus the ones it does, the same bits that set_parameter and
the model's assembler give, with the field's own rule and a finiteness
check on the moved entries in place of the full check of every point.
Both read only a few eigenpairs, and LAPACK's ``dsyevr`` solves for
just those: a sweep for the lowest ones, up to the levels it reports, a
search for its pair's two branches and their neighbours.  A sweep's rows
therefore match :func:`diagonalize` to rounding rather than bit for bit
(see :func:`sweep_levels`).  A search solves only its first few gap
evaluations by LAPACK; the later ones project H(x) on an orthonormal basis
of the branch pairs of its last four LAPACK solves (eigenvector
continuation) and certify the result: Weyl's inequality keeps every level
but the branches' out of a window between the neighbour levels of the last
LAPACK solve, Kato-Temple bounds the branch energies' errors and
Davis-Kahan the branch weights.  A point whose certificate fails is solved
by LAPACK, and so is a certified point that a golden-section comparison
cannot tell apart from its rival within the error bounds, so the search
takes the steps that LAPACK's gaps give it.  The dynamics need
every eigenvector of the search's spectrum at the minimum, so the search
closes with a full ``eigh`` solve, written by its pencil and solved by its
solver, and labelled and gauged as :func:`diagonalize` labels and gauges
its own: the same bits.
"""

from __future__ import annotations

import bisect
import ctypes
import math
import numbers
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .algebra import HilbertLayout, Ket, Operator, _array, _check_hermitian, _require_integer
from .errors import BranchTrackingError, ConfigError, HermiticityError, NumericalError
from .model import MODEL_BUILDERS, SystemConfig, _buffer, _check_model, _Pencil

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
_HERMITICITY_TOL = 1e-9  # largest |H - H+| entry _Solver accepts
# A certified gap evaluation projects H(x) on the branch pairs of this many
# LAPACK solves, _RITZ_DIM vectors.
_RITZ_PAIRS = 4
_RITZ_DIM = 2 * _RITZ_PAIRS
# The rounding allowance of the certificate, in ulps of ||H||: the error of
# a LAPACK eigenvalue, and of the certificate's own sums.
_ROUNDING_ULPS = 64
# A search with d below this certifies nothing: there a LAPACK solve costs
# less than the certificate.
_RITZ_MIN_DIM = 32
# Bare weights within this of an eigenstate's largest count as tied for its
# label, and the lowest tied bare index wins, so rounding noise cannot decide.
_LABEL_TIE_TOL = 1e-12
# OpenBLAS's thread-count controls, as the scipy-openblas build that numpy
# wheels bundle names them and as a plain OpenBLAS build does.
_BLAS_CONTROLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                  ("openblas_get_num_threads", "openblas_set_num_threads"))


@cache
def _linalg_library():
    """The library behind numpy's LAPACK calls, or None where it cannot be loaded."""
    try:
        return ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None


@cache
def _blas_control():
    """(get, set) of the thread count of the BLAS numpy's LAPACK calls, or
    None where that BLAS is no OpenBLAS or its controls are not exported."""
    lib = _linalg_library()
    for names in _BLAS_CONTROLS:
        try:
            get, set_ = (getattr(lib, name) for name in names)
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


@cache
def _dsyevr():
    """LAPACK's ``dsyevr`` as the scipy-openblas build that numpy wheels bundle
    exports it (64-bit integers, gfortran's string lengths last), or None."""
    try:
        fn = _linalg_library().scipy_dsyevr_64_
    except AttributeError:  # no library, or no such symbol
        return None
    ints, reals, arr = (ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double),
                         ctypes.c_void_p)
    # JOBZ RANGE UPLO, N A LDA, VL VU IL IU ABSTOL, M W Z LDZ ISUPPZ,
    # WORK LWORK IWORK LIWORK INFO, and the three string lengths
    fn.argtypes = ((ctypes.c_char_p,) * 3 + (ints, arr, ints) + (reals, reals, ints, ints, reals)
                   + (ints, arr, arr, ints, arr) + (arr, ints, arr, ints, ints)
                   + (ctypes.c_size_t,) * 3)
    fn.restype = None
    return fn


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

    ``states`` holds one eigenvector a column, read-only.  Its dtype follows
    the input: real input is stored as float64, which is what
    :func:`diagonalize` gives for the real Hamiltonians of both models, and
    complex input as complex128.
    """

    energies: np.ndarray
    states: np.ndarray
    labels: tuple[tuple[int, float], ...]
    layout: HilbertLayout
    label_collisions: tuple[int, ...]

    def __post_init__(self):
        e = np.array(self.energies, dtype=float)
        e.setflags(write=False)
        s = np.array(self.states, dtype=complex if np.iscomplexobj(self.states) else float)
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


class _Solver:
    """Checked eigensolves of ``mat``, the matrix it is built on, into arrays
    it owns.  A call ``solver(first=0, count=None)`` checks that ``mat`` is
    Hermitian and finite with :meth:`check` (a NaN or an infinity raises
    :class:`HermiticityError`), solves it and returns the energies, less the
    first one solved, and the raw eigenvectors as columns: views that the
    next call overwrites.  The eigenvectors are written into the scratch that
    held |H - H+|, which the check no longer needs, so a solver owns one
    d x d array.  A range outside the eigen indices 0..d-1 raises
    ``ValueError`` before LAPACK sees it.  Where ``checked`` is set, a call
    skips the check: a sweep or a search sets it where its pencil
    (:class:`vpmix.model._Pencil`) vouches for every matrix it writes into
    ``mat``, having checked its base with :meth:`check` once.

    Given ``count``, and where ``mat`` is real and :func:`_dsyevr` is found,
    LAPACK's ``dsyevr`` (MRRR, RANGE='I') solves it for the ``count``
    eigenpairs from eigen index ``first`` up, in ascending order of energy
    from 0, and overwrites it.  Fortran reads the C-ordered ``mat``
    transposed, so UPLO='U' reads the triangle that ``eigh`` reads.  Its
    workspace does not depend on the range, so one query sizes the work
    arrays, the ctypes arguments are built once and a call only resets
    IL and IU: a solve allocates no array.  Otherwise the gufunc behind
    ``numpy.linalg.eigh``, the one that takes ``out``, solves for every
    eigenpair, with that function's error handling.  Reused outputs free no
    d x d array per point, which in some heap layouts left a block above
    glibc's trim threshold at the heap top, returned to the OS and faulted
    back in (9,900 minor faults a warm 200-point sweep instead of 130).
    ``name`` (``"dsyevr"`` or ``"eigh"``), ``first`` and ``count`` record the
    last solve, and ``offset`` the energy it subtracted, the first one
    solved, so that ``energies + offset`` are the absolute energies.  Before
    the first, ``name`` is the eigensolver that a range would take, and
    ``first``, ``count`` and ``offset`` are not set.  A solve leaves
    ``scratch`` holding only its eigenvectors, in the first ``count`` rows
    for ``dsyevr`` and in all of them for ``eigh``; between solves its
    owner may use it as workspace.
    """

    def __init__(self, mat: np.ndarray):
        d = len(mat)
        self.mat, self.scratch, self._energies = mat, np.empty_like(mat), np.empty(d)
        self.checked = False
        self._dsyevr = None if np.iscomplexobj(mat) else _dsyevr()
        self.name = "eigh" if self._dsyevr is None else "dsyevr"  # until the first solve
        if self._dsyevr is None:
            return
        self._m, self._info = ctypes.c_int64(), ctypes.c_int64()
        self._il, self._iu, n = ctypes.c_int64(1), ctypes.c_int64(1), ctypes.c_int64(d)
        lwork, liwork, zero = ctypes.c_int64(-1), ctypes.c_int64(-1), ctypes.c_double(0.0)
        # A, W, Z, ISUPPZ, WORK, IWORK; the query's one-element work arrays
        # are replaced by full ones below
        arrays = [mat, self._energies, self.scratch, np.empty(2 * d, dtype=np.int64),
                  np.empty(1), np.empty(1, dtype=np.int64)]

        def arguments() -> tuple:
            a, w, z, isuppz, work, iwork = (array.ctypes.data for array in arrays)
            n_, zero_ = ctypes.byref(n), ctypes.byref(zero)
            return (b"V", b"I", b"U", n_, a, n_, zero_, zero_, ctypes.byref(self._il),
                    ctypes.byref(self._iu), zero_, ctypes.byref(self._m), w, z, n_, isuppz,
                    work, ctypes.byref(lwork), iwork, ctypes.byref(liwork),
                    ctypes.byref(self._info), 1, 1, 1)

        self._dsyevr(*arguments())  # workspace query: the sizes land in work[0], iwork[0]
        if self._info.value != 0:
            raise LinAlgError("Eigenvalues did not converge")
        lwork.value, liwork.value = int(arrays[4][0]), int(arrays[5][0])
        arrays[4:] = np.empty(lwork.value), np.empty(liwork.value, dtype=np.int64)
        self._arrays, self._arguments = arrays, arguments()  # the arrays outlive the pointers

    def check(self) -> None:
        """Raise :class:`HermiticityError` unless ``mat`` is Hermitian and finite."""
        _check_hermitian(self.mat, _HERMITICITY_TOL, HermiticityError, "matrix", self.scratch)

    def __call__(self, first: int = 0, count: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        mat, d = self.mat, len(self.mat)
        if count is not None and not (0 <= first and 1 <= count <= d - first):
            raise ValueError(f"eigenpair range first={first}, count={count} is not within "
                             f"the eigen indices 0..{d - 1} of a matrix of d = {d}")
        if not self.checked:
            self.check()
        if count is not None and self._dsyevr is not None:
            self.name, self.first, self.count = "dsyevr", first, count
            self._il.value, self._iu.value = first + 1, first + count
            self._dsyevr(*self._arguments)
            if self._info.value != 0 or self._m.value != count:
                raise LinAlgError("Eigenvalues did not converge")
            # Z, d x count in Fortran order, fills the scratch's first count rows
            energies, states = self._energies[:count], self.scratch[:count].T
        else:
            self.name, self.first, self.count = "eigh", 0, d
            with np.errstate(call=_nonconvergence, invalid="call", over="ignore",
                             divide="ignore", under="ignore"):
                energies, states = _umath_linalg.eigh_lo(
                    mat, out=(self._energies, self.scratch),
                    signature="D->dD" if np.iscomplexobj(mat) else "d->dd")
        self.offset = float(energies[0])
        energies -= self.offset
        return energies, states


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
        return _spectrum(*_Solver(op.mat)(), op.layout)


def _spectrum(energies: np.ndarray, states: np.ndarray, layout: HilbertLayout) -> SpectrumResult:
    """The labelled, gauged :class:`SpectrumResult` of a full solve's
    energies and eigenvectors, copied out of the solver's arrays."""
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
        layout=layout,
        label_collisions=tuple(collisions),
    )


_PATH_RE = re.compile(r"qubits\[([0-9]+)\]\.(omega|lam|theta|gamma)")


def _parameter_field(config: SystemConfig, path: str) -> tuple[int | None, str]:
    """(qubit list index or None for a config field, field name) of a path,
    matched in full: no trailing newline, no digits but 0-9."""
    if path in ("omega_c", "kappa"):
        return None, path
    m = _PATH_RE.fullmatch(path) if isinstance(path, str) else None
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


def _swept_field(config: SystemConfig, parameter: str, model: str) -> tuple[int | None, str]:
    """(qubit list index or None, field name) of ``parameter``, once it
    resolves on ``config`` to a field that the ``model`` Hamiltonian reads
    (any other gives a flat sweep)."""
    field = _parameter_field(config, parameter)
    _check_model(model, field[1])
    return field


def _pencil(config: SystemConfig, field: tuple[int | None, str], model: str,
            solvers: list[_Solver]) -> _Pencil:
    """The pencil of ``field``, its base assembled into the first solver's
    buffer and checked in that solver's scratch, before any solve.  Where
    the pencil vouches for every matrix it writes, the solvers skip their
    check."""
    pencil = _Pencil(config, field, model, solvers[0].mat, solvers[0].check)
    for solver in solvers:
        solver.checked = pencil.checked
    return pencil


@dataclass(frozen=True)
class SweepResult:
    """Lowest excited levels along a parameter grid.

    ``energies[p, m]`` is the (m+1)-th excited ground-offset energy at grid
    point p; ``labels``/``overlaps`` give each level's dominant bare index and
    weight.  ``workers`` threads evaluated the grid, with OpenBLAS held at one
    thread if ``blas_pinned``, and ``eigensolver`` solved the points
    (:func:`sweep_levels`).
    """

    parameter: str
    grid: np.ndarray
    energies: np.ndarray
    labels: np.ndarray
    overlaps: np.ndarray
    layout: HilbertLayout
    workers: int
    blas_pinned: bool
    eigensolver: str


def _sweep_inputs(config: SystemConfig, parameter: str, grid: Sequence[float],
                  level_count: int, model: str = "dicke"):
    """Checked grid array and swept field: the argument checks of :func:`sweep_levels`."""
    message = "sweep grid must be a 1-D sequence of real numbers"
    grid_arr = _array(list(grid) if np.iterable(grid) else None, "iuf", message, float)
    if grid_arr.ndim != 1:
        raise ConfigError(message)
    if grid_arr.size > 1:
        diffs = np.diff(grid_arr)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep grid must be strictly monotone")
    field = _swept_field(config, parameter, model)
    _require_integer("level_count", level_count)
    if level_count < 1 or level_count >= config.layout.dim:
        raise ConfigError(f"level_count must be in 1..{config.layout.dim - 1}, got {level_count}")
    return grid_arr, field


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
    thread of its own each other one, every thread with its own
    :class:`_Solver` and rows of the result, while OpenBLAS is held at one
    thread: at d = 128 on two cores this takes 1.14 ms a point against 2.0 ms
    serially, where the same threads over a two-thread BLAS took 3.47 ms.
    Where OpenBLAS's thread count cannot be set, one thread evaluates the
    whole grid.

    Each point is solved for its lowest ``level_count + 1`` eigenpairs only,
    the ground state and the reported levels, by LAPACK's ``dsyevr`` (MRRR),
    which at d = 128 and 13 pairs takes 1.3 ms against 2.3 ms for ``eigh``.
    Where numpy's LAPACK does not export it, ``eigh`` solves for all of them;
    ``eigensolver`` is the solvers' ``name``.  The rows therefore match
    :func:`diagonalize` of the model's builder to rounding, not bit for bit:
    energies within 1e-13, and the weight and label of each level more than
    1e-6 from its neighbours.  In a degenerate or nearly degenerate group of
    levels, which identical qubits make, each solver's choice of eigenvectors
    is arbitrary, and so are the labels and weights read off them.  The rows
    are the same bits whatever the number of threads.

    Every thread writes its points from one pencil of the swept field
    (:func:`_pencil`), whose base is assembled into the first thread's
    buffer and checked there before any point is solved.  A point's value
    that the field's owner rejects raises that :class:`ConfigError`, and a
    point whose moved entries overflow raises :class:`HermiticityError`, as
    set_parameter and the solver's check did.  At d = 128 writing a point
    takes about 33 µs on one core of a 2-vCPU x86 host, where set_parameter
    and the assembler took 74 µs and the full check 71 µs.
    """
    grid_arr, field = _sweep_inputs(config, parameter, grid, level_count, model)
    shape = (grid_arr.size, level_count)
    energies, labels, overlaps = np.empty(shape), np.empty(shape, dtype=int), np.empty(shape)
    sel = slice(1, level_count + 1)

    def evaluate(lo: int, hi: int) -> None:
        solver, moved = next(pool), pencil.entries()
        for p in range(lo, hi):
            pencil.write(grid_arr[p], solver.mat, moved)
            e, states = solver(0, level_count + 1)
            dominant, _, norm = _dominant(states[:, sel])
            energies[p], labels[p], overlaps[p] = e[sel], dominant, norm * norm

    with _one_blas_thread() as pinned:
        workers = max(1, min(_available_cores(), grid_arr.size)) if pinned else 1
        # every thread's arrays exist before any thread starts, so the peak
        # memory of a sweep does not depend on how its threads overlap
        solvers = [_Solver(_buffer(config)) for _ in range(workers)]
        pencil = _pencil(config, field, model, solvers)
        pool = iter(solvers)  # each thread takes its own
        _in_chunks(evaluate, grid_arr.size, workers)
    return SweepResult(parameter=parameter, grid=grid_arr, energies=energies, labels=labels,
                       overlaps=overlaps, layout=config.layout, workers=workers,
                       blas_pinned=pinned, eigensolver=solvers[0].name)


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
    ``evaluations`` counts the gap evaluations and the closing solve.  The
    search's last LAPACK solve solved for the eigenpairs of the eigen index
    range ``solved_pairs`` = (first, last), both included, with
    ``eigensolver``: ``"dsyevr"``, or ``"eigh"`` (for all of them) where
    numpy's LAPACK lacks it.  ``unseen_weight_max`` is the largest pair
    weight that a LAPACK solve's unsolved eigenvectors held between them, r
    of :func:`_pair_branches`: the margin by which each of those branch
    picks was proven, rounding noise where every eigenpair was solved.
    ``ritz_evaluations`` counts the evaluations that a certified
    Rayleigh-Ritz projection on the branch pairs of the last four LAPACK
    solves took instead of LAPACK, ``ritz_resolves`` the certified points
    that a comparison their error bounds left open solved again by LAPACK,
    so the search made ``evaluations - ritz_evaluations + ritz_resolves``
    LAPACK solves, and ``gap_error_bound_max`` is the largest error bound
    of a certified gap that a golden-section comparison took, 0.0 where
    none did.  None of the six changes the result, so none takes part in
    comparisons.
    """

    parameter: str
    location: float
    splitting: float
    branch_indices: tuple[int, int]
    branch_energies: tuple[float, float]
    superposition_overlaps: tuple[float, float]
    bare_pair: tuple[int, int]
    evaluations: int
    eigensolver: str = field(compare=False)
    solved_pairs: tuple[int, int] = field(compare=False)
    unseen_weight_max: float = field(compare=False)
    ritz_evaluations: int = field(compare=False)
    gap_error_bound_max: float = field(compare=False)
    spectrum: SpectrumResult = field(compare=False, repr=False)
    ritz_resolves: int = field(default=0, compare=False)


def _pair_branches(states: np.ndarray, u: int, v: int,
                   first: int = 0) -> tuple[int, int, float]:
    """Eigen indices of the two eigenvectors carrying the weight of bare
    states u, v, where the columns of ``states`` are the eigenvectors of eigen
    index ``first``, ``first + 1``, and so on, and the pair weight r that the
    other eigenvectors may hold between them.

    ``states`` may hold only some of the eigenvectors.  By completeness the
    pair's weight summed over all of them is 2, so the missing ones hold
    r = 2 - (the summed weight of the given columns) between them, and none
    of them more.  r counts as a third-state candidate, and the second branch
    must hold more than r: then no missing eigenvector could displace either
    branch or fail the thresholds, and the pick is the full spectrum's.  With
    every column r is rounding noise.
    """
    combined = np.abs(states[u, :]) ** 2 + np.abs(states[v, :]) ** 2
    order = np.argsort(combined)[::-1]
    a, b = int(order[0]), int(order[1])
    unseen = 2.0 - float(combined.sum())
    third, holder = 0.0, "none"
    if combined.size > 2:
        third, holder = float(combined[order[2]]), f"eigenstate {first + int(order[2])}"
    if unseen > third:
        third, holder = unseen, (f"eigenstates outside {first}..{first + combined.size - 1}, "
                                 "unsolved")
    if (combined[a] < _PAIR_MIN or combined[b] < _PAIR_MIN or third > _THIRD_MAX
            or combined[b] <= unseen):
        raise BranchTrackingError(
            f"cannot isolate two branches for bare pair ({u}, {v}): "
            f"top weights {combined[a]:.3f}, {combined[b]:.3f}, "
            f"third {third:.3f} ({holder})"
        )
    a, b = (first + a, first + b) if a < b else (first + b, first + a)
    return a, b, unseen


def _two(name: str, items) -> tuple:
    """The two items of ``items``, or :class:`ConfigError` for any other count."""
    try:
        first, second = items
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must have exactly two items, got {items!r}") from None
    return first, second


def _search_inputs(config: SystemConfig, parameter: str, bracket: tuple[float, float],
                   bare_pair: tuple, model: str = "dicke", tol: float = 1e-6):
    """Checked swept field, u, v and bracket: the argument checks of :func:`find_anticrossing`."""
    field = _swept_field(config, parameter, model)
    u, v = (config.layout.resolve(spec) for spec in _two("bare_pair", bare_pair))
    if u == v:
        raise ConfigError("bare pair must be two distinct states")
    ends = _two("bracket", bracket)
    if not all(isinstance(end, numbers.Real) for end in ends):
        raise ConfigError(f"bracket ends must be real numbers, got {bracket!r}")
    lo, hi = (float(end) for end in ends)
    if not hi > lo:
        raise ConfigError(f"invalid bracket {bracket}")
    spacing = float(np.spacing(max(abs(lo), abs(hi))))
    if not (isinstance(tol, numbers.Real) and tol >= spacing):  # also NaN
        raise ConfigError(f"tol must be a positive real number, at least the float spacing "
                          f"{spacing:.3g} of the bracket ends, got {tol!r}")
    return field, u, v, lo, hi


def _proven_pick(combined: list[float], margin: list[float]) -> tuple[int, int] | None:
    """The positions of the two branches among some eigenvectors of given
    indices, whose pair weights each lie within ``margin`` of ``combined``,
    where the weights prove the pick of :func:`_pair_branches` from every
    eigenvector: the two pass its thresholds, and no other eigenvector,
    given or not, can hold as much of the pair weight.  Else None."""
    low = [w - m for w, m in zip(combined, margin)]
    order = sorted(range(len(combined)), key=combined.__getitem__, reverse=True)
    i, j = order[0], order[1]
    # by completeness, the eigenvectors not given hold at most 2 - sum(low)
    third = max([2.0 - sum(low)] + [combined[k] + margin[k] for k in order[2:]])
    weaker = min(low[i], low[j])
    if weaker >= _PAIR_MIN and third <= _THIRD_MAX and weaker > third:
        return (i, j) if i < j else (j, i)
    return None


def _orthonormalise(rows: np.ndarray, basis: np.ndarray) -> bool:
    """Make ``rows`` orthonormal and orthogonal to the rows of ``basis``,
    which are orthonormal or zero, in place, and return True; or return
    False where they are numerically dependent, and ``rows`` hold NaN.  Two
    passes of block Gram-Schmidt, each closing with the inverse Cholesky
    factor of the rows' Gram matrix: the second restores the orthogonality
    that cancellation in the first loses."""
    # a Gram matrix that is not positive definite leaves NaN
    with np.errstate(all="ignore"):
        for _ in range(2):
            rows -= (rows @ basis.T) @ basis
            factor = _umath_linalg.cholesky_lo(rows @ rows.T, signature="d->d")
            rows[...] = _umath_linalg.inv(factor, signature="d->d") @ rows
    return math.isfinite(rows.sum())


class _Ritz:
    """The branch pairs of a search's LAPACK solves, and certified
    Rayleigh-Ritz eigenpairs on them.

    The ring holds the branch pairs of the last ``_RITZ_PAIRS`` LAPACK
    solves as the rows of an orthonormal basis Q, ``_RITZ_DIM`` vectors.  A
    new pair takes the slot of its own x where the ring holds it, else an
    empty one, else the one farthest from it, and enters orthonormalised
    against the other slots' rows (:func:`_orthonormalise`), so it lies in
    span(Q) until its slot is taken.  :meth:`eigenpairs` projects H(x) on
    Q, one symmetric eigensolve of ``_RITZ_DIM``, and certifies the Ritz
    pairs it finds in a window of energies.

    It works in the search solver's ``scratch``, which holds nothing
    between solves: the Ritz vectors and their residual vectors in its
    first rows.  Where ``dsyevr`` solves the search's ranges, Q and its
    image Q H take its last rows, Q the very last, which a range solve,
    writing its first ``count`` rows, leaves alone; :meth:`solved` empties
    the ring after a solve whose rows reached Q, a full one.  Where ``eigh``
    solves every evaluation in full, they have rows of their own.
    """

    def __init__(self, scratch: np.ndarray, shared: bool):
        self._xs: list[float | None] = [None] * _RITZ_PAIRS
        rows, dim = 2 * _RITZ_DIM, len(scratch)
        self._rows = scratch[dim - rows:] if shared else np.empty((rows, dim))  # Q H, then Q
        self._images, self._ring = self._rows[:_RITZ_DIM], self._rows[_RITZ_DIM:]
        self._reach = dim - _RITZ_DIM if shared else dim  # rows a solve may write
        self._work = scratch[:dim - rows if shared else None]

    @property
    def full(self) -> bool:
        return None not in self._xs

    def solved(self, count: int) -> None:
        """Note a solve that wrote ``count`` rows of the scratch."""
        if count > self._reach:
            self._xs = [None] * _RITZ_PAIRS

    def record(self, x: float, vectors: np.ndarray) -> None:
        """Keep the two branch vectors of a LAPACK solve at x, rows of an
        array of their own, which this overwrites."""
        xs, ring = self._xs, self._ring
        if xs == [None] * _RITZ_PAIRS:
            ring.fill(0.0)  # rows a solve overwrote, or never written
        slot = xs.index(x) if x in xs else max(
            range(_RITZ_PAIRS), key=lambda s: math.inf if xs[s] is None else abs(xs[s] - x))
        rows = ring[2 * slot:2 * slot + 2]
        rows.fill(0.0)
        found = _orthonormalise(vectors, ring)
        if found:
            rows[...] = vectors
        xs[slot] = x if found else None

    def eigenpairs(self, mat: np.ndarray, lower: float, upper: float, count: int,
                   margin: float) -> tuple | None:
        """The ``count`` eigenvalues of the symmetric ``mat`` in (``lower``,
        ``upper``), where no others lie, certified: (Ritz values, bounds on
        their errors, bounds on the sine of each Ritz vector's angle to its
        eigenvector, the unit Ritz vectors as rows), or None where the
        certificate fails.  ``margin`` is the rounding allowance.

        The Ritz values theta and residuals r are recomputed from the Ritz
        vectors and their images.  Each interval theta +- rho, rho = r + 2
        margin, holds an eigenvalue; if ``count`` of them lie inside the
        window and apart, they hold its ``count`` eigenvalues, one each.
        With delta the distance from theta to the window's edge or to the
        next interval, less the margin, Kato-Temple bounds the error of
        theta by margin + rho^2 / delta and Davis-Kahan the sine by
        rho / delta.
        """
        dim, ring, images = len(mat), self._ring, self._images
        np.matmul(ring, mat, out=images)  # the rows of (H Q^T)^T: H is symmetric
        # a failed small eigh leaves NaN, and a NaN fails every test below
        with np.errstate(all="ignore"):
            values, coef = _umath_linalg.eigh_lo(images @ ring.T, signature="d->dd")
            values = values.tolist()
            # the Ritz pairs whose values lie in the window, in ascending order
            lo, hi = bisect.bisect_right(values, lower), bisect.bisect_left(values, upper)
            near = hi - lo
            if near < count:
                return None
            # the images of the Ritz vectors, then the vectors: one product
            # of their coefficients with Q H and Q
            found = self._work[:2 * near].reshape(2, near, dim)
            np.matmul(coef[:, lo:hi].T, self._rows.reshape(2, _RITZ_DIM, dim), out=found)
            residuals, states = found
            products, norms = np.einsum("kij,ij->ki", found, states)
            theta = products / norms
            residuals -= theta[:, None] * states
            squares = np.einsum("ij,ij->i", residuals, residuals)
            states /= np.sqrt(norms)[:, None]
        theta = theta.tolist()
        r = [math.sqrt(q / n) for q, n in zip(squares.tolist(), norms.tolist())]
        # the ones whose intervals lie in it too: mixtures of other
        # eigenvectors would crowd it with wider ones
        picked = [j for j, (t, s) in enumerate(zip(theta, r)) if lower < t - s and t + s < upper]
        if len(picked) != count:
            return None
        if count < near:
            theta, r, states = [theta[j] for j in picked], [r[j] for j in picked], states[picked]
        rho = [s + 2.0 * margin for s in r]
        edges = [lower] + [t + s for t, s in zip(theta, rho)]  # below each interval
        tops = [t - s for t, s in zip(theta[1:], rho[1:])] + [upper]  # above each
        if not all(edge < t - s and t + s < top
                   for edge, t, s, top in zip(edges, theta, rho, tops)):
            return None
        slack = [min(t - edge, top - t) - margin for edge, t, top in zip(edges, theta, tops)]
        return (theta, [margin + s * s / g for s, g in zip(rho, slack)],
                [s / g for s, g in zip(rho, slack)], states)


@dataclass
class _Point:
    """A golden-section point: x, the gap there and a bound on the gap's
    error, 0.0 for a LAPACK solve's."""

    x: float
    gap: float
    error: float


class _Gaps:
    """The gap of the two branches of bare states u, v along a pencil of the
    swept field, one evaluation per call, for :func:`find_anticrossing`.

    A LAPACK solve (:meth:`_solve`) solves one :class:`_Solver` for the
    branch range a..b of the evaluation before it, widened to a-1..b+1
    within 0..d-1, or at the first for eigen indices 0..k+1, k the number
    of diagonal entries of H(x) below the larger of the pair's two: that
    diagonal is the bare energies in both models, and every bundled search
    has its branches at k-1 and k, so the range holds them and their
    neighbours.  The pick is proven by :func:`_pair_branches`, or the point
    is solved again in full.  It keeps the absolute energies of its pick's
    neighbours, eigen indices a-1 and b+1, the moved entries of its H and
    its branch pair.

    Once :class:`_Ritz` holds ``_RITZ_PAIRS`` pairs, an evaluation at x is
    certified where it can be, on the ring's pairs alone.  Weyl keeps every
    eigenvalue of H(x) but a..b out of the window (E_{a-1} + e,
    E_{b+1} - e), where E are the energies of the last LAPACK solve, at
    x_f, and e >= ||H(x) - H(x_f)|| is the pencil's
    :meth:`~vpmix.model._Pencil.distance`, widened by the rounding
    allowance.  The b - a + 1 Ritz pairs certified in that window therefore
    stand for eigen indices a..b, one each, and Davis-Kahan carries the
    thresholds of :func:`_pair_branches` to their vectors with a margin of
    twice the sine bound (:func:`_proven_pick`).  The gap's error is the
    sum of its two energies' Kato-Temple bounds.  A point whose certificate
    fails is solved by LAPACK, from the H(x) already written.  The rounding allowance
    is ``_ROUNDING_ULPS`` ulps of a bound on ||H||, the largest absolute row
    sum of H(x) at the first evaluation, read into the solver's scratch
    before the solve overwrites H, whichever eigensolver runs.
    ``ritz_resolves`` counts the certified points that :meth:`less` solved
    again by LAPACK.
    """

    def __init__(self, config: SystemConfig, field: tuple[int | None, str], model: str,
                 u: int, v: int):
        self.u, self.v, self.dim = u, v, config.layout.dim
        self.solver = _Solver(_buffer(config))
        self.pencil = _pencil(config, field, model, [self.solver])
        self.moved, self._moved_solved = self.pencil.entries(), self.pencil.entries()
        # the last LAPACK solve's pick (a, b) and the absolute energies of
        # eigen indices a - 1 and b + 1 there, -inf and inf outside 0..d-1,
        # None where it did not solve them
        self._window: tuple = (None, None, None)
        # a Ritz pair is certified only on a matrix the pencil vouches for,
        # exactly symmetric as Weyl and Kato-Temple need, and where the
        # scratch holds the certificate's rows: below that a LAPACK solve
        # costs less than the certificate
        self._ritz = (_Ritz(self.solver.scratch, self.solver.name == "dsyevr")
                      if self.solver.checked and self.dim >= _RITZ_MIN_DIM else None)
        self.branches: tuple[int, int] | None = None  # of the last evaluation
        self._written = False  # whether the solver's matrix holds a whole write
        self._margin = 0.0
        self.evaluations = self.ritz_evaluations = self.ritz_resolves = 0
        self.unseen_max, self.error_max = -math.inf, 0.0

    def _write(self, x: float) -> None:
        """Write H(x) into the solver's matrix: only the moved entries where
        it holds a write that no solve has overwritten since."""
        self.pencil.write(x, self.solver.mat, self.moved, whole=not self._written)
        self._written = True

    def __call__(self, x: float) -> _Point:
        self.evaluations += 1
        self._write(x)
        if self._ritz is not None and self._ritz.full:
            certified = self._certified(x)
            if certified is not None:
                self.ritz_evaluations += 1
                return _Point(x, *certified)
        return _Point(x, self._solve(x), 0.0)

    def less(self, c: _Point, d: _Point) -> bool:
        """Whether the gap at c is below the gap at d, as LAPACK's gaps
        compare.  Where the gaps lie closer than the error bounds and the
        rounding allowance of both, each certified point is solved by
        LAPACK."""
        if abs(c.gap - d.gap) > c.error + d.error + 2.0 * self._margin:
            self.error_max = max(self.error_max, c.error, d.error)
        else:
            for point in (c, d):
                if point.error:
                    self.ritz_resolves += 1
                    self._write(point.x)
                    point.gap, point.error = self._solve(point.x), 0.0
        return c.gap < d.gap

    def _solve(self, x: float) -> float:
        """The gap at x, H(x) written, from a LAPACK solve."""
        solver, u, v = self.solver, self.u, self.v
        if self.branches is not None:
            a, b = self.branches
            first = max(a - 1, 0)
            pairs = first, min(b + 1, self.dim - 1) - first + 1
        else:  # eigen indices 0..k+1, k the diagonal entries below the pair's larger one
            diagonal = np.diagonal(solver.mat)
            k = int(np.count_nonzero(diagonal < max(diagonal[u], diagonal[v])))
            pairs = 0, min(k + 2, self.dim)
            # ||H|| <= the largest absolute row sum, read before the solve overwrites H
            norm = np.abs(solver.mat, out=solver.scratch).sum(axis=1).real.max()
            self._margin = _ROUNDING_ULPS * float(np.finfo(float).eps) * float(norm)
        self._written = False  # the solve overwrites the matrix
        energies, states = solver(*pairs)
        try:
            a, b, unseen = _pair_branches(states, u, v, solver.first)
        except BranchTrackingError:
            if solver.count == self.dim:
                raise
            # the solved pairs leave the pick unproven; dsyevr overwrote the
            # matrix, so the point is written again and solved in full
            self.pencil.write(x, solver.mat, self.moved)
            energies, states = solver()
            a, b, unseen = _pair_branches(states, u, v)
        first, count = solver.first, solver.count
        self.unseen_max = max(self.unseen_max, unseen)
        self.branches = a, b

        def level(k: int, outside: float) -> float | None:
            if not 0 <= k < self.dim:
                return outside
            if not first <= k < first + count:
                return None
            return float(energies[k - first]) + solver.offset

        self._window = (a, b), level(a - 1, -math.inf), level(b + 1, math.inf)
        if self._ritz is not None:
            self._moved_solved[...] = self.moved
            self._ritz.solved(count)
            self._ritz.record(x, states[:, [a - first, b - first]].T)  # a copy
        return float(energies[b - first] - energies[a - first])

    def _certified(self, x: float) -> tuple[float, float] | None:
        """The certified gap at x, H(x) written, and its error bound, or None."""
        branches, below, above = self._window
        if branches != self.branches or below is None or above is None:
            return None
        (a, b), margin = branches, self._margin
        shift = self.pencil.distance(self.moved, self._moved_solved) + margin
        found = self._ritz.eigenpairs(self.solver.mat, below + shift, above - shift, b - a + 1,
                                      margin)
        if found is None:
            return None
        theta, error, sine, states = found
        weights = [p * p + q * q for p, q in states[:, (self.u, self.v)].tolist()]
        pick = _proven_pick(weights, [2.0 * s for s in sine])
        if pick is None:
            return None
        i, j = pick
        self.branches = a + i, a + j
        return theta[j] - theta[i], error[i] + error[j]


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
    there, and the refinement would never end.  The closing solve writes the
    model at the minimum with the search's pencil and solves it in full with
    the search's solver, for the report's ``spectrum``: the bits
    :func:`diagonalize` gives for the model built at the minimum.

    The gaps come from :class:`_Gaps`.  Its first evaluations are LAPACK
    solves, each for the branch range a..b that the evaluation before it
    found, widened by one eigen index on each side (the first from eigen
    index 0 to one above the number of bare energies below the pair's
    larger one); the later ones are certified Rayleigh-Ritz evaluations on
    an orthonormal basis of the branch pairs of the last four LAPACK solves,
    and a point whose certificate fails is solved by LAPACK.  A
    golden-section comparison that involves a certified gap is taken only
    where its error bounds prove that LAPACK's gaps compare the same way;
    otherwise the certified points are solved by LAPACK and compared as
    those are.  :func:`_pair_branches` proves each LAPACK pick from the
    solved eigenpairs by completeness, and the certificate proves each of
    its own, so every pick is the one a full solve makes, and the
    golden-section steps, the location and the spectrum at the minimum are
    those of a search that solves every evaluation in full.  The report records the last LAPACK solve's
    eigensolver and range and the largest pair weight those solves left
    unsolved, the number of certified evaluations and of certified points
    solved again, and the largest error bound of a certified gap that a
    comparison took.

    Every evaluation is written from one pencil of the swept field, as each
    point of :func:`sweep_levels` is, and is checked as those are: the base,
    the model at ``config``, once before the first solve, and at each
    evaluation the field's own rule and the entries the field moves.  So a
    bracket end that the field's rule rejects raises only where an
    evaluation lands on a rejected value; the ends themselves are never
    evaluated.  The closing solve is written and checked the same way, so a
    search builds one solver and no :class:`Operator`.
    """
    field, u, v, lo, hi = _search_inputs(config, parameter, bracket, bare_pair, model, tol)
    gaps = _Gaps(config, field, model, u, v)
    solver = gaps.solver

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a_x, b_x = lo, hi
    h = b_x - a_x
    c_x = a_x + invphi2 * h
    d_x = a_x + invphi * h
    with _one_blas_thread():
        c, d = gaps(c_x), gaps(d_x)
        while h > tol:
            if gaps.less(c, d):
                b_x, d = d.x, c
                h = b_x - a_x
                c = gaps(a_x + invphi2 * h)
            else:
                a_x, c = c.x, d
                h = b_x - a_x
                d = gaps(a_x + invphi * h)
        x_min = 0.5 * (a_x + b_x)
        if min(x_min - lo, hi - x_min) <= tol:
            raise NumericalError(
                f"gap minimum {x_min:.9g} lies within tol {tol:g} of an end of the "
                f"bracket [{lo:g}, {hi:g}]; widen the bracket"
            )
        # the report records the last LAPACK solve, not the closing one
        eigensolver, first, count = solver.name, solver.first, solver.count
        gaps._write(x_min)
        spectrum = _spectrum(*solver(), config.layout)
    energies, states = spectrum.energies, spectrum.states
    ia, ib, _ = _pair_branches(states, u, v)

    bare_u, bare_v = np.zeros((2, spectrum.dim), dtype=complex)
    bare_u[u] = bare_v[v] = 1.0
    plus, minus = (bare_u + bare_v) / math.sqrt(2.0), (bare_u - bare_v) / math.sqrt(2.0)
    o_ap, o_am, o_bp, o_bm = (float(abs(np.vdot(vec, states[:, k])) ** 2)
                              for k in (ia, ib) for vec in (plus, minus))
    # Assign each branch its better-matching superposition, without reuse.
    overlaps = (o_ap, o_bm) if o_ap + o_bm >= o_am + o_bp else (o_am, o_bp)

    return AnticrossingReport(
        parameter=parameter, location=float(x_min), splitting=float(energies[ib] - energies[ia]),
        branch_indices=(ia, ib), branch_energies=(float(energies[ia]), float(energies[ib])),
        superposition_overlaps=overlaps, bare_pair=(u, v), evaluations=gaps.evaluations + 1,
        eigensolver=eigensolver, solved_pairs=(first, first + count - 1),
        unseen_weight_max=gaps.unseen_max, ritz_evaluations=gaps.ritz_evaluations,
        gap_error_bound_max=gaps.error_max, spectrum=spectrum, ritz_resolves=gaps.ritz_resolves)


def superposition_states(report: AnticrossingReport) -> tuple[Ket, Ket]:
    """Reconstruct the dressed pair (u~, v~) from the two split eigenstates.

    At the gap minimum the eigenstates are close to (u~ +- v~)/sqrt(2); the
    symmetric/antisymmetric recombination recovers the dressed counterparts of
    the bare pair.  Phases are gauged so <u_bare|u~> and <v_bare|v~> are real
    and positive.
    """
    states, layout = report.spectrum.states, report.spectrum.layout
    u_col, v_col = _pair_columns(report).values()
    return Ket(states @ u_col, layout), Ket(states @ v_col, layout)


def _pair_columns(report: AnticrossingReport) -> dict[int, np.ndarray]:
    """The dressed pair's columns of the frame U+ F, keyed by bare index:
    ``{bare_u: U+ u~, bare_v: U+ v~}``, each zero off the branch rows a, b,
    which hold the rotation of :func:`_pair_rotation`."""
    spectrum = report.spectrum
    rotation = _pair_rotation(report)
    columns = np.zeros((spectrum.dim, 2), dtype=rotation.dtype)
    columns[list(report.branch_indices)] = rotation
    return dict(zip(report.bare_pair, columns.T))


def _pair_rotation(report: AnticrossingReport) -> np.ndarray:
    """The 2 x 2 matrix R with (u~, v~) = (psi_a, psi_b) R for the dressed
    pair of :func:`superposition_states`, its block of the dressed frame
    U+ F on the branch rows a, b.  A column is (1, +-1)/sqrt(2) times the
    phase that makes the bare amplitude real and positive, so R is real for
    real eigenvectors."""
    spectrum, (bare_u, bare_v) = report.spectrum, report.bare_pair
    # the amplitudes of psi_a and psi_b (columns) on bare u and bare v (rows)
    amps = spectrum.states[np.ix_((bare_u, bare_v), report.branch_indices)]
    plus = (amps[:, 0] + amps[:, 1]) / math.sqrt(2.0)
    minus = (amps[:, 0] - amps[:, 1]) / math.sqrt(2.0)
    signs = (1.0, -1.0) if abs(plus[0]) ** 2 >= abs(minus[0]) ** 2 else (-1.0, 1.0)
    amp = np.where(np.array(signs) > 0, plus, minus)  # each state's bare amplitude
    for value, bare in zip(amp, (bare_u, bare_v)):
        if abs(value) < 1e-12:
            raise BranchTrackingError(
                f"dressed counterpart of bare state {bare} has no weight on it"
            )
    return np.array([[1.0, 1.0], signs]) / math.sqrt(2.0) * np.conj(amp / abs(amp))


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
