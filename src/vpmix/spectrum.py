"""Diagonalization, dressed-state labeling, parameter sweeps and anticrossings.

Eigenstates of the interacting Hamiltonian are labeled by the bare product
state with which they have maximum squared overlap.  All reported energies
are offset so the ground state sits at zero.  Avoided crossings are located
by golden-section minimization of the gap between the two eigenbranches that
span a nominated pair of bare states; the half-gap at the minimum is the
effective coupling of the resonant mixing process.  Sweeps evaluate their
grid points one after another in a single thread.

Both model Hamiltonians are real float64 matrices, assembled from terms that
:mod:`vpmix.model` caches once per layout, so ``eigh`` takes its
real-symmetric path and the phase gauge of :func:`diagonalize` reduces to a
sign gauge.  Eigenvectors are stored complex either way.  Sweeps and searches
assemble every grid point into one pair of reused buffers and read labels,
energies and branch weights straight off the real eigenvectors, so a grid
point allocates no d x d array besides the one ``eigh`` returns.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .algebra import HilbertLayout, Ket, Operator
from .errors import BranchTrackingError, ConfigError, HermiticityError, NumericalError
from .model import (
    SystemConfig,
    _assemble_dicke,
    _assemble_tc,
    _buffers,
    build_generalized_dicke,
    build_tavis_cummings,
)

__all__ = [
    "SpectrumResult",
    "SweepResult",
    "AnticrossingReport",
    "diagonalize",
    "set_parameter",
    "sweep_levels",
    "find_anticrossing",
    "superposition_states",
    "MODEL_BUILDERS",
]

MODEL_BUILDERS: dict[str, Callable[[SystemConfig], Operator]] = {
    "dicke": build_generalized_dicke,
    "tc": build_tavis_cummings,
}
# The in-place assembler behind each builder: (config, out, scratch) -> out.
_ASSEMBLERS = {"dicke": _assemble_dicke, "tc": _assemble_tc}

# Thresholds for identifying the two eigenbranches spanned by a bare pair:
# each selected branch must hold at least _PAIR_MIN of the pair weight and
# any third state at most _THIRD_MAX, otherwise tracking is ambiguous.
_PAIR_MIN = 0.45
_THIRD_MAX = 0.45
_HERMITICITY_TOL = 1e-9  # largest |H - H+| entry _eigh accepts
# Bare weights within this of an eigenstate's largest count as tied for its
# label, and the lowest tied bare index wins, so rounding noise cannot decide.
_LABEL_TIE_TOL = 1e-12


def _check_model(model: str) -> str:
    """``model`` if it names one of :data:`MODEL_BUILDERS`, else :class:`ConfigError`."""
    if not isinstance(model, str) or model not in MODEL_BUILDERS:
        raise ConfigError(f"unknown model {model!r}; choose from {', '.join(MODEL_BUILDERS)}")
    return model


@dataclass(frozen=True)
class SpectrumResult:
    """Eigendecomposition with ground-offset energies and bare-state labels.

    ``labels[k]`` is ``(bare_index, weight)`` where weight is the squared
    overlap of eigenstate k with its dominant bare state.  ``label_collisions``
    lists bare indices claimed by more than one eigenstate (ties are resolved
    by energy order but flagged here).
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

    def label_map(self) -> dict[int, int]:
        """bare index -> eigenstate index, for uniquely claimed labels only."""
        collided = set(self.label_collisions)
        return {
            bare: k
            for k, (bare, _) in enumerate(self.labels)
            if bare not in collided
        }


def _eigh(mat: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked ``eigh``: ground-offset energies and the raw eigenvectors.

    ``scratch``, an array of ``mat``'s shape and dtype, holds the Hermiticity
    check's |H - H+| and is overwritten.  A real ``mat`` gives real
    eigenvectors, which are neither labeled nor gauged here.
    """
    # copyto, not a ufunc on the transposed view, which would buffer it
    np.copyto(scratch, mat.T)
    np.conjugate(scratch, out=scratch)
    np.subtract(mat, scratch, out=scratch)
    defect = float(np.max(np.abs(scratch, out=scratch)).real)
    if defect > _HERMITICITY_TOL:
        raise HermiticityError(
            f"matrix is not Hermitian (max deviation {defect:.3e} > {_HERMITICITY_TOL:.1e})"
        )
    energies, states = np.linalg.eigh(mat)
    energies -= energies[0]
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


def set_parameter(config: SystemConfig, path: str, value: float) -> SystemConfig:
    """Return a copy of ``config`` with one scalar field replaced.

    Paths: ``omega_c``, ``kappa``, or ``qubits[k].field`` with k a 0-based
    list index and field one of omega/lam/theta/gamma.
    """
    if path == "omega_c":
        return replace(config, omega_c=value)
    if path == "kappa":
        return replace(config, kappa=value)
    m = _PATH_RE.match(path)
    if not m:
        raise ConfigError(f"cannot resolve parameter path {path!r}")
    k, fieldname = int(m.group(1)), m.group(2)
    if not 0 <= k < config.qubit_count:
        raise ConfigError(f"qubit list index {k} outside 0..{config.qubit_count - 1}")
    qubits = list(config.qubits)
    qubits[k] = replace(qubits[k], **{fieldname: value})
    return replace(config, qubits=tuple(qubits))


@dataclass(frozen=True)
class SweepResult:
    """Lowest excited levels along a parameter grid.

    ``energies[p, m]`` is the (m+1)-th excited ground-offset energy at grid
    point p; ``labels``/``overlaps`` give each level's dominant bare index and
    weight.
    """

    parameter: str
    grid: np.ndarray
    energies: np.ndarray
    labels: np.ndarray
    overlaps: np.ndarray
    layout: HilbertLayout


def sweep_levels(
    config: SystemConfig,
    parameter: str,
    grid: Sequence[float],
    level_count: int,
    model: str = "dicke",
) -> SweepResult:
    """Diagonalize along a grid and report the lowest excited levels.

    Grid points are evaluated serially in grid order, each assembled into the
    same two d x d buffers.  They are independent, but a thread pool over them
    measured slower than this loop: OpenBLAS serializes concurrent callers.
    Each point's energies, labels and weights equal those of
    :func:`diagonalize` on the model's builder bit for bit.
    """
    grid_arr = np.asarray(list(grid), dtype=float)
    if grid_arr.size > 1:
        diffs = np.diff(grid_arr)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep grid must be strictly monotone")
    assemble = _ASSEMBLERS[_check_model(model)]
    layout = config.layout
    if level_count < 1 or level_count >= layout.dim:
        raise ConfigError(f"level_count must be in 1..{layout.dim - 1}")

    mat, scratch = _buffers(config)
    shape = (grid_arr.size, level_count)
    energies, labels, overlaps = np.empty(shape), np.empty(shape, dtype=int), np.empty(shape)
    sel = slice(1, level_count + 1)
    for p, value in enumerate(grid_arr):
        # ``states`` holds the previous point's eigenvectors until this eigh
        # has returned.  Freed earlier, they would leave more than glibc's trim
        # threshold free at the heap top, which is then returned to the OS and
        # faulted back in at every point (47,000 minor faults a levels pass
        # instead of 540).
        e, states = _eigh(assemble(set_parameter(config, parameter, value), mat, scratch),
                          scratch)
        dominant, _, norm = _dominant(states[:, sel])
        energies[p], labels[p], overlaps[p] = e[sel], dominant, norm * norm
    return SweepResult(
        parameter=parameter,
        grid=grid_arr,
        energies=energies,
        labels=labels,
        overlaps=overlaps,
        layout=layout,
    )


@dataclass(frozen=True)
class AnticrossingReport:
    """Minimum-gap point of two eigenbranches spanning a bare pair.

    ``splitting`` is the full gap 2J at the minimum; ``superposition_overlaps``
    are the squared overlaps of the two branch eigenstates with the symmetric/
    antisymmetric combinations (|u> +- |v>)/sqrt(2) of the nominated pair.
    """

    parameter: str
    location: float
    splitting: float
    branch_indices: tuple[int, int]
    branch_energies: tuple[float, float]
    superposition_overlaps: tuple[float, float]
    bare_pair: tuple[int, int]
    evaluations: int


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
    there, and the refinement would never end.
    """
    assemble = _ASSEMBLERS[_check_model(model)]
    layout = config.layout
    u, v = layout.resolve(bare_pair[0]), layout.resolve(bare_pair[1])
    if u == v:
        raise ConfigError("bare pair must be two distinct states")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ConfigError(f"invalid bracket {bracket}")
    spacing = float(np.spacing(max(abs(lo), abs(hi))))
    if not tol >= spacing:  # also NaN
        raise ConfigError(
            f"tol must be positive and at least the float spacing {spacing:.3g} "
            f"of the bracket ends, got {tol!r}"
        )
    evaluations = 0
    mat, scratch = _buffers(config)

    # Each ``*_`` below keeps the previous evaluation's eigenvectors until the
    # next one has returned, for the heap-trim reason given in sweep_levels.
    def gap_at(x: float) -> tuple[float, np.ndarray, np.ndarray, tuple[int, int]]:
        # The returned eigenvectors are raw real columns: the sign gauge of
        # diagonalize changes no weight and no |overlap| read from them.
        nonlocal evaluations
        evaluations += 1
        energies, states = _eigh(assemble(set_parameter(config, parameter, x), mat, scratch),
                                 scratch)
        a, b = _pair_branches(states, u, v)
        return float(energies[b] - energies[a]), energies, states, (a, b)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a_x, b_x = lo, hi
    h = b_x - a_x
    c_x = a_x + invphi2 * h
    d_x = a_x + invphi * h
    yc, *_ = gap_at(c_x)
    yd, *_ = gap_at(d_x)
    while h > tol:
        if yc < yd:
            b_x, d_x, yd = d_x, c_x, yc
            h = b_x - a_x
            c_x = a_x + invphi2 * h
            yc, *_ = gap_at(c_x)
        else:
            a_x, c_x, yc = c_x, d_x, yd
            h = b_x - a_x
            d_x = a_x + invphi * h
            yd, *_ = gap_at(d_x)
    x_min = 0.5 * (a_x + b_x)
    if min(x_min - lo, hi - x_min) <= tol:
        raise NumericalError(
            f"gap minimum {x_min:.9g} lies within tol {tol:g} of an end of the "
            f"bracket [{lo:g}, {hi:g}]; widen the bracket"
        )
    gap, energies, states, (ia, ib) = gap_at(x_min)

    bare_u, bare_v = np.eye(layout.dim, dtype=complex)[[u, v]]
    plus = (bare_u + bare_v) / math.sqrt(2.0)
    minus = (bare_u - bare_v) / math.sqrt(2.0)
    psi_a, psi_b = states[:, ia], states[:, ib]
    o_ap = abs(np.vdot(plus, psi_a)) ** 2
    o_am = abs(np.vdot(minus, psi_a)) ** 2
    o_bp = abs(np.vdot(plus, psi_b)) ** 2
    o_bm = abs(np.vdot(minus, psi_b)) ** 2
    # Assign each branch its better-matching superposition, without reuse.
    if o_ap + o_bm >= o_am + o_bp:
        overlaps = (float(o_ap), float(o_bm))
    else:
        overlaps = (float(o_am), float(o_bp))

    return AnticrossingReport(
        parameter=parameter,
        location=float(x_min),
        splitting=float(gap),
        branch_indices=(ia, ib),
        branch_energies=(float(energies[ia]), float(energies[ib])),
        superposition_overlaps=overlaps,
        bare_pair=(u, v),
        evaluations=evaluations,
    )


def superposition_states(
    spectrum: SpectrumResult,
    bare_u: int,
    bare_v: int,
    branches: tuple[int, int],
) -> tuple[Ket, Ket]:
    """Reconstruct the dressed pair (u~, v~) from the two split eigenstates.

    At the gap minimum the eigenstates are close to (u~ +- v~)/sqrt(2); the
    symmetric/antisymmetric recombination recovers the dressed counterparts of
    the bare pair.  Phases are gauged so <u_bare|u~> and <v_bare|v~> are real
    and positive.
    """
    ia, ib = branches
    psi_a = spectrum.states[:, ia]
    psi_b = spectrum.states[:, ib]
    plus = (psi_a + psi_b) / math.sqrt(2.0)
    minus = (psi_a - psi_b) / math.sqrt(2.0)
    if abs(plus[bare_u]) ** 2 >= abs(minus[bare_u]) ** 2:
        u_vec, v_vec = plus, minus
    else:
        u_vec, v_vec = minus, plus
    for vec, bare in ((u_vec, bare_u), (v_vec, bare_v)):
        amp = vec[bare]
        if abs(amp) < 1e-12:
            raise BranchTrackingError(
                f"dressed counterpart of bare state {bare} has no weight on it"
            )
        vec *= np.conj(amp / abs(amp))
    return Ket(u_vec, spectrum.layout), Ket(v_vec, spectrum.layout)


def coupling_sign(spectrum: SpectrumResult, bare_u: int, bare_v: int,
                  branches: tuple[int, int]) -> int:
    """Sign of the effective coupling J at an anticrossing minimum.

    In the two-level reduction H_eff = J (|u><v| + |v><u|) the lower branch is
    the antisymmetric combination for J > 0 and the symmetric one for J < 0;
    the sign is read off the bare components of the lower eigenvector.  The
    state generated from u~ after a quarter Rabi period is
    (u~ - i sign(J) v~)/sqrt(2).
    """
    lower = spectrum.states[:, min(branches)]
    prod = float(np.real(lower[bare_u]) * np.real(lower[bare_v]))
    if prod == 0.0:
        raise BranchTrackingError(
            "lower branch carries no weight on the bare pair; sign undefined"
        )
    return -1 if prod > 0 else 1

