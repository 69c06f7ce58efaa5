"""Operators and states on a register of two-level atoms plus one bosonic mode.

Conventions, fixed once for the whole package:

- Composite ordering is "qubit 1 (slowest) ... qubit N, cavity (fastest)".
  The basis index of a product state is
  ``(((q1*2 + q2)*2 + ...)*2 + qN) * fock_cutoff + photons`` with g=0, e=1.
- The local qubit basis is (|g>, |e>), so ``sigma_z = diag(-1, +1)`` and the
  bare qubit term (omega/2) sigma_z puts the ground level at -omega/2.
- Photon numbers run 0..fock_cutoff-1; the mode is hard-truncated, which
  leaves the usual defect [a, a+] = 1 - fock_cutoff |top><top|.
- Qubit indices in public signatures are 1-based, matching ket notation
  |q1, q2, ..., qN, n>.

Everything here is dense; the largest space used anywhere in the package is
2^4 * 16 = 256 dimensional.  All values are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "HilbertLayout",
    "Operator",
    "Ket",
    "SIGMA_X",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "embed_qubit_op",
    "cavity_annihilation",
    "cavity_quadrature",
    "cavity_number",
    "identity",
    "bare_state",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


# Local qubit operators in the (|g>, |e>) basis.
SIGMA_X = _readonly([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = _readonly([[-1.0, 0.0], [0.0, 1.0]])
SIGMA_PLUS = _readonly([[0.0, 0.0], [1.0, 0.0]])   # |e><g|
SIGMA_MINUS = _readonly([[0.0, 1.0], [0.0, 0.0]])  # |g><e|

_LEVELS = ("g", "e")


def _require_finite(owner, names: Sequence[str], prefix: str = "") -> None:
    """Raise :class:`ConfigError` unless each attribute ``names`` of ``owner``
    is a finite real number: a string, None or a complex number is no real
    number, and NaN, an infinity or an int beyond the float range is not finite."""
    for name in names:
        value = getattr(owner, name)
        if not isinstance(value, numbers.Real):
            raise ConfigError(f"{prefix}{name} must be a real number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # also NaN, and without an OverflowError
            raise ConfigError(f"{prefix}{name} must be finite, got {value!r}")


def _require_integer(what: str, value, least: int | None = None) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an int or numpy integer
    (a bool is not one) and, given ``least``, at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{what} must be >= {least}, got {value}")


@dataclass(frozen=True)
class HilbertLayout:
    """Shape of the composite space: N qubits and one truncated mode.

    Both sizes are integers of at least 1; this is the one place that checks
    them.  ``fock_cutoff=1`` gives a qubit-only register (the single photon
    level n=0 is a spectator), which is how effective qubit Hamiltonians are
    represented.
    """

    qubit_count: int
    fock_cutoff: int

    def __post_init__(self):
        _require_finite(self, ("qubit_count", "fock_cutoff"))
        for name in ("qubit_count", "fock_cutoff"):
            _require_integer(name, getattr(self, name), 1)

    @property
    def dim(self) -> int:
        return 2**self.qubit_count * self.fock_cutoff

    def qubit_index(self, index: int) -> int:
        """A 1-based qubit index, checked against the register."""
        _require_integer("qubit index", index)
        if not 1 <= index <= self.qubit_count:
            raise ConfigError(f"qubit index {index} outside 1..{self.qubit_count}")
        return int(index)

    def bare_index(self, levels: Sequence[str], photons: int) -> int:
        """Basis index of |levels, photons> under the fixed ordering."""
        if not isinstance(levels, Sequence) or len(levels) != self.qubit_count:
            raise ConfigError(f"expected {self.qubit_count} qubit levels, got {levels!r}")
        _require_integer("photon number", photons)
        if not 0 <= photons < self.fock_cutoff:
            raise ConfigError(
                f"photon number {photons} outside 0..{self.fock_cutoff - 1}"
            )
        idx = 0
        for lev in levels:
            if lev not in _LEVELS:
                raise ConfigError(f"qubit level must be 'g' or 'e', got {lev!r}")
            idx = 2 * idx + (1 if lev == "e" else 0)
        return idx * self.fock_cutoff + photons

    def resolve(self, spec) -> int:
        """Basis index of a bare-state spec: an index, which is range-checked, or
        a ``(levels, photons)`` pair, as :meth:`bare_index` takes it."""
        if isinstance(spec, (int, np.integer)) and not isinstance(spec, bool):
            return self._checked(spec)
        try:
            levels, photons = spec
        except (TypeError, ValueError):
            raise ConfigError(
                f"bare state must be a basis index or (levels, photons), got {spec!r}"
            ) from None
        return self.bare_index(levels, photons)

    def _checked(self, index: int) -> int:
        if not 0 <= index < self.dim:
            raise ConfigError(f"basis index {index} outside 0..{self.dim - 1}")
        return int(index)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``levels:photons`` name of every basis index, in index order."""
        return tuple(f"{''.join(levels)}:{photons}"
                     for levels in itertools.product(_LEVELS, repeat=self.qubit_count)
                     for photons in range(self.fock_cutoff))

    def bare_labels(self, index: int) -> tuple[str, int]:
        """Inverse of :meth:`bare_index`: returns (levels string, photons)."""
        levels, photons = self.label_string(index).split(":")
        return levels, int(photons)

    def label_string(self, index: int) -> str:
        return self.labels[self._checked(index)]


@dataclass(frozen=True)
class Operator:
    """Dense operator on a :class:`HilbertLayout`, immutable after creation.

    The matrix dtype follows the input: real input is stored as float64 and
    stays real through ``+``, ``-`` and multiplication by a real scalar, so a
    real Hamiltonian reaches the real-symmetric eigensolver; complex input
    (anything built from the ``SIGMA_*`` constants) is stored as complex128.
    """

    mat: np.ndarray
    layout: HilbertLayout

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex if np.iscomplexobj(self.mat) else float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] != self.layout.dim:
            raise ConfigError(
                f"matrix dimension {m.shape[0]} does not match layout dim {self.layout.dim}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T, self.layout)

    def hermiticity_defect(self) -> float:
        return _hermiticity_defect(self.mat)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self.hermiticity_defect() <= tol

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, Operator):
            if other.layout != self.layout:
                raise ConfigError("operators live on different layouts")
            return other.mat
        return np.asarray(other, dtype=complex if np.iscomplexobj(other) else float)

    def __matmul__(self, other):
        if isinstance(other, Ket):
            return Ket(self.mat @ other.amp, self.layout)
        return Operator(self.mat @ self._coerce(other), self.layout)

    def __add__(self, other):
        return Operator(self.mat + self._coerce(other), self.layout)

    def __sub__(self, other):
        return Operator(self.mat - self._coerce(other), self.layout)

    def __mul__(self, scalar):
        scalar = complex(scalar) if np.iscomplexobj(scalar) else float(scalar)
        return Operator(self.mat * scalar, self.layout)

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(-self.mat, self.layout)


@dataclass(frozen=True)
class Ket:
    """Pure state vector on a :class:`HilbertLayout`."""

    amp: np.ndarray
    layout: HilbertLayout

    def __post_init__(self):
        v = np.array(self.amp, dtype=complex).reshape(-1)
        if v.shape[0] != self.layout.dim:
            raise ConfigError(
                f"vector dimension {v.shape[0]} does not match layout dim {self.layout.dim}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "amp", v)

    @property
    def dim(self) -> int:
        return self.amp.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def overlap(self, other: "Ket") -> complex:
        return complex(np.vdot(self.amp, other.amp))

    def projector(self) -> Operator:
        return Operator(np.outer(self.amp, self.amp.conj()), self.layout)


def _hermiticity_defect(mat: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """Largest entry of |M - M+| for the square array ``mat``; NaN or inf if
    ``mat`` holds a NaN or an infinity, and no floating-point warning.

    ``scratch``, an array of ``mat``'s shape and dtype, is overwritten with
    |M - M+|; without it one is allocated.  Given one, nothing is allocated,
    so a loop can run this at every point.
    """
    scratch = np.empty_like(mat) if scratch is None else scratch
    # copyto, not a ufunc on the transposed view, which would buffer it
    np.copyto(scratch, mat.T)
    np.conjugate(scratch, out=scratch)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or an overflow
        np.subtract(mat, scratch, out=scratch)
    return float(np.max(np.abs(scratch, out=scratch)).real)


def _check_hermitian(mat: np.ndarray, tol: float, error: type[Exception], what: str,
                    scratch: np.ndarray | None = None) -> None:
    """Raise ``error`` naming ``what`` if ``mat`` holds a NaN or an infinity,
    or if its :func:`_hermiticity_defect` exceeds ``tol``.  The finite case
    allocates nothing given ``scratch``."""
    defect = _hermiticity_defect(mat, scratch)
    if not math.isfinite(defect) and not np.isfinite(mat).all():
        raise error(f"{what} has a non-finite entry")
    if not defect <= tol:
        raise error(f"{what} is not Hermitian (max deviation {defect:.3e} > {tol:.1e})")


def identity(layout: HilbertLayout) -> Operator:
    return Operator(np.eye(layout.dim), layout)


def _ladder(cutoff: int) -> np.ndarray:
    """Real truncated annihilation operator a on ``cutoff`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1)


def _lift(layout: HilbertLayout, i: int, local: np.ndarray, mode: np.ndarray) -> np.ndarray:
    """``local`` on qubit i (1-based) and ``mode`` on the cavity, identity elsewhere.

    The Kronecker product is taken one factor at a time from the left: a
    complex ``local`` then gets the same signed zeros whatever the layout, as
    a product of the factors in basis order gives them.  Grouping the factors
    otherwise moves the sign of some zero entries.
    """
    out = np.kron(np.eye(2 ** (i - 1)), local) if i > 1 else local
    for _ in range(i, layout.qubit_count):
        out = np.kron(out, np.eye(2))
    return np.kron(out, mode)


def embed_qubit_op(layout: HilbertLayout, qubit_index: int, local: np.ndarray) -> Operator:
    """Lift a 2x2 operator acting on one qubit to the full space.

    ``qubit_index`` is 1-based.  The result is the identity on every other
    tensor factor, so operators embedded on distinct factors commute exactly
    and the embedding is an algebra homomorphism on each factor.
    """
    i = layout.qubit_index(qubit_index)
    loc = np.asarray(local, dtype=complex)
    if loc.shape != (2, 2):
        raise ConfigError(f"local operator must be 2x2, got shape {loc.shape}")
    return Operator(_lift(layout, i, loc, np.eye(layout.fock_cutoff)), layout)


def cavity_annihilation(layout: HilbertLayout) -> Operator:
    """Truncated annihilation operator a, embedded on the mode factor."""
    mat = _lift(layout, 1, np.eye(2, dtype=complex), _ladder(layout.fock_cutoff))
    return Operator(mat, layout)


def cavity_quadrature(layout: HilbertLayout) -> Operator:
    """Field quadrature X = a + a+."""
    a = cavity_annihilation(layout)
    return a + a.dag()


def cavity_number(layout: HilbertLayout) -> Operator:
    """Photon number operator a+ a, built with exact integer diagonal."""
    diag = np.kron(np.ones(2**layout.qubit_count),
                   np.arange(layout.fock_cutoff, dtype=float))
    return Operator(np.diag(diag.astype(complex)), layout)


def bare_state(layout: HilbertLayout, levels: Sequence[str], photons: int) -> Ket:
    """Unit basis vector |levels, photons> of the non-interacting system."""
    idx = layout.bare_index(levels, photons)
    v = np.zeros(layout.dim, dtype=complex)
    v[idx] = 1.0
    return Ket(v, layout)
