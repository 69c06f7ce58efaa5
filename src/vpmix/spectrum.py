"""Diagonalization, dressed-state labeling, parameter sweeps and anticrossings.

Eigenstates of the interacting Hamiltonian are labeled by the bare product
state with which they have maximum squared overlap.  All reported energies
are offset so the ground state sits at zero.  Avoided crossings are located
by golden-section minimization of the gap between the two eigenbranches that
span a nominated pair of bare states; the half-gap at the minimum is the
effective coupling of the resonant mixing process.

Both model Hamiltonians are real float64 matrices, assembled from terms that
:mod:`vpmix.model` caches once per layout, so ``eigh`` takes its
real-symmetric path and the phase gauge of :func:`diagonalize` reduces to a
sign gauge.  Eigenvectors are stored complex either way.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .algebra import HilbertLayout, Ket, Operator, bare_state
from .errors import BranchTrackingError, ConfigError, HermiticityError, NumericalError
from .model import SystemConfig, build_generalized_dicke, build_tavis_cummings

__all__ = [
    "SpectrumResult",
    "SweepResult",
    "AnticrossingReport",
    "diagonalize",
    "set_parameter",
    "sweep_levels",
    "find_anticrossing",
    "superposition_states",
    "track_branches",
    "MODEL_BUILDERS",
]

MODEL_BUILDERS: dict[str, Callable[[SystemConfig], Operator]] = {
    "dicke": build_generalized_dicke,
    "tc": build_tavis_cummings,
}

# Thresholds for identifying the two eigenbranches spanned by a bare pair:
# each selected branch must hold at least _PAIR_MIN of the pair weight and
# any third state at most _THIRD_MAX, otherwise tracking is ambiguous.
_PAIR_MIN = 0.45
_THIRD_MAX = 0.45
_HERMITICITY_TOL = 1e-9  # largest |H - H+| entry diagonalize accepts
# Bare weights within this of an eigenstate's largest count as tied for its
# label, and the lowest tied bare index wins, so rounding noise cannot decide.
_LABEL_TIE_TOL = 1e-12


def _builder(model: str) -> Callable[[SystemConfig], Operator]:
    if model not in MODEL_BUILDERS:
        raise ConfigError(f"unknown model {model!r}; choose from {', '.join(MODEL_BUILDERS)}")
    return MODEL_BUILDERS[model]


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


def diagonalize(op: Operator) -> SpectrumResult:
    """Full eigendecomposition with max-overlap labeling.

    Each eigenstate is labeled by its dominant bare state, the lowest bare
    index whose weight is within ``_LABEL_TIE_TOL`` of the largest.
    Eigenvector phases are gauged so the dominant component of each column is
    real and positive, which makes downstream superpositions well defined; for
    a real symmetric input this is a choice of sign.
    """
    defect = op.hermiticity_defect()
    if defect > _HERMITICITY_TOL:
        raise HermiticityError(
            f"matrix is not Hermitian (max deviation {defect:.3e} > {_HERMITICITY_TOL:.1e})"
        )
    energies, states = np.linalg.eigh(op.mat)
    energies = energies - energies[0]

    weights = np.abs(states) ** 2
    dominant = np.argmax(weights >= weights.max(axis=0) - _LABEL_TIE_TOL, axis=0)
    amp = states[dominant, np.arange(states.shape[1])]
    # hypot, as scalar abs() computes it: numpy's vectorized complex abs rounds
    # differently on some CPUs and would move the gauged states by an ulp.
    norm = np.hypot(amp.real, amp.imag)
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
    weight.  ``states`` retains full eigenvector sets only when requested.
    """

    parameter: str
    grid: np.ndarray
    energies: np.ndarray
    labels: np.ndarray
    overlaps: np.ndarray
    layout: HilbertLayout
    states: tuple[np.ndarray, ...] | None = None

    def label_string(self, point: int, level: int) -> str:
        return self.layout.label_string(int(self.labels[point, level]))


def sweep_levels(
    config: SystemConfig,
    parameter: str,
    grid: Sequence[float],
    level_count: int,
    model: str = "dicke",
    keep_states: bool = False,
    threads: int = 1,
) -> SweepResult:
    """Diagonalize along a grid and report the lowest excited levels.

    Grid points are independent; with ``threads > 1`` they are evaluated in a
    thread pool (the eigensolver releases the GIL).  Results are ordered by
    grid index either way.
    """
    grid_arr = np.asarray(list(grid), dtype=float)
    if grid_arr.size > 1:
        diffs = np.diff(grid_arr)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep grid must be strictly monotone")
    builder = _builder(model)
    layout = config.layout
    if level_count < 1 or level_count >= layout.dim:
        raise ConfigError(f"level_count must be in 1..{layout.dim - 1}")

    def solve(value: float):
        spec = diagonalize(builder(set_parameter(config, parameter, value)))
        sel = slice(1, level_count + 1)
        lab, wt = zip(*spec.labels[sel])
        return spec.energies[sel], lab, wt, (spec.states if keep_states else None)

    if threads > 1 and grid_arr.size > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(solve, grid_arr))
    else:
        rows = [solve(v) for v in grid_arr]

    shape = (grid_arr.size, level_count)
    return SweepResult(
        parameter=parameter,
        grid=grid_arr,
        energies=np.array([r[0] for r in rows], dtype=float).reshape(shape),
        labels=np.array([r[1] for r in rows], dtype=int).reshape(shape),
        overlaps=np.array([r[2] for r in rows], dtype=float).reshape(shape),
        layout=layout,
        states=tuple(r[3] for r in rows) if keep_states else None,
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


def _resolve_bare(layout: HilbertLayout, spec) -> int:
    if isinstance(spec, (int, np.integer)):
        idx = int(spec)
        if not 0 <= idx < layout.dim:
            raise ConfigError(f"bare index {idx} outside 0..{layout.dim - 1}")
        return idx
    levels, photons = spec
    return layout.bare_index(levels, photons)


def _pair_branches(spec: SpectrumResult, u: int, v: int) -> tuple[int, int]:
    """Indices of the two eigenstates carrying the weight of bare states u, v."""
    combined = np.abs(spec.states[u, :]) ** 2 + np.abs(spec.states[v, :]) ** 2
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
    """
    builder = _builder(model)
    layout = config.layout
    u = _resolve_bare(layout, bare_pair[0])
    v = _resolve_bare(layout, bare_pair[1])
    if u == v:
        raise ConfigError("bare pair must be two distinct states")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ConfigError(f"invalid bracket {bracket}")
    evaluations = 0

    def gap_at(x: float) -> tuple[float, SpectrumResult, tuple[int, int]]:
        nonlocal evaluations
        evaluations += 1
        spec = diagonalize(builder(set_parameter(config, parameter, x)))
        a, b = _pair_branches(spec, u, v)
        return float(spec.energies[b] - spec.energies[a]), spec, (a, b)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a_x, b_x = lo, hi
    h = b_x - a_x
    c_x = a_x + invphi2 * h
    d_x = a_x + invphi * h
    yc, _, _ = gap_at(c_x)
    yd, _, _ = gap_at(d_x)
    while h > tol:
        if yc < yd:
            b_x, d_x, yd = d_x, c_x, yc
            h = b_x - a_x
            c_x = a_x + invphi2 * h
            yc, _, _ = gap_at(c_x)
        else:
            a_x, c_x, yc = c_x, d_x, yd
            h = b_x - a_x
            d_x = a_x + invphi * h
            yd, _, _ = gap_at(d_x)
    x_min = 0.5 * (a_x + b_x)
    if min(x_min - lo, hi - x_min) <= tol:
        raise NumericalError(
            f"gap minimum {x_min:.9g} lies within tol {tol:g} of an end of the "
            f"bracket [{lo:g}, {hi:g}]; widen the bracket"
        )
    gap, spec, (ia, ib) = gap_at(x_min)

    plus = (bare_state(layout, *layout.bare_labels(u)).amp
            + bare_state(layout, *layout.bare_labels(v)).amp) / math.sqrt(2.0)
    minus = (bare_state(layout, *layout.bare_labels(u)).amp
             - bare_state(layout, *layout.bare_labels(v)).amp) / math.sqrt(2.0)
    psi_a, psi_b = spec.states[:, ia], spec.states[:, ib]
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
        branch_energies=(float(spec.energies[ia]), float(spec.energies[ib])),
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


def track_branches(sweep: SweepResult) -> np.ndarray:
    """Follow eigenbranches through crossings by eigenvector continuity.

    Requires a sweep built with ``keep_states=True``.  Returns an integer
    array ``branch[p, m]`` giving the eigenstate index at grid point p that
    continues branch m, where branches are seeded by energy order at the first
    point.  Matching is greedy on squared overlap between consecutive points.
    """
    if sweep.states is None:
        raise ConfigError("track_branches needs a sweep with keep_states=True")
    n_pts = sweep.grid.size
    n_lvl = sweep.energies.shape[1]
    branch = np.zeros((n_pts, n_lvl), dtype=int)
    branch[0] = np.arange(1, n_lvl + 1)
    for p in range(1, n_pts):
        prev_vecs = sweep.states[p - 1]
        cur_vecs = sweep.states[p]
        overlap = np.abs(prev_vecs.conj().T @ cur_vecs) ** 2
        taken: set[int] = set()
        for m in range(n_lvl):
            row = overlap[branch[p - 1, m]].copy()
            for t in taken:
                row[t] = -1.0
            pick = int(np.argmax(row))
            branch[p, m] = pick
            taken.add(pick)
    return branch
