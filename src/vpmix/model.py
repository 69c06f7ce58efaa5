"""Physical and effective Hamiltonians of the qubits-cavity system.

The full model is a generalized Dicke Hamiltonian for N two-level atoms with
symmetry-broken potentials coupled to one mode (hbar = 1, all frequencies in
units of a reference omega_0):

    H = sum_i (omega_i/2) sigma_z^(i) + omega_c a+ a
        + (a + a+) sum_i lam_i (cos(theta_i) sigma_x^(i) + sin(theta_i) sigma_z^(i))

theta_i mixes transverse and longitudinal coupling; theta_i = 0 conserves the
parity of qubit i.  The Tavis-Cummings variant keeps only the excitation-
conserving terms lam_i (a sigma_+^(i) + a+ sigma_-^(i)) and ignores theta.

Every term of both models is real.  Their diagonals and nonzero entries are
built once per :class:`HilbertLayout` and cached, and each Hamiltonian is a
few scaled sums of them: a real float64 :class:`Operator`, with no tensor
products or matrix products per call.  One private assembler per model writes
that sum into a caller-owned buffer; the public builders hand it a fresh one,
while the sweeps and searches of :mod:`vpmix.spectrum` reuse one buffer for
every grid point.

Effective qubit-only Hamiltonians describe the resonant mixing processes that
the full model generates at fourth order: a two-qubit excitation swap, a
three-qubit down-conversion (one excitation splits into two), and the two
four-qubit variants (pair exchange, resonance omega_1+omega_2 = omega_3+omega_4;
cascade, resonance omega_4 = omega_1+omega_2+omega_3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    HilbertLayout,
    Operator,
    _ladder,
    _lift,
    cavity_number,
    embed_qubit_op,
)
from .errors import ConfigError

__all__ = [
    "QubitParams",
    "SystemConfig",
    "MixKind",
    "bare_hamiltonian",
    "dicke_interaction",
    "tavis_cummings_interaction",
    "build_generalized_dicke",
    "build_tavis_cummings",
    "parity_operator",
    "build_effective_mixing",
]


@dataclass(frozen=True)
class QubitParams:
    """One qubit: transition frequency, cavity coupling rate, coupling-mixing
    angle and decay rate, all in units of omega_0 (angle in radians)."""

    omega: float
    lam: float
    theta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("omega", "lam", "theta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"qubit {name} must be finite, got {getattr(self, name)!r}")
        if self.omega <= 0:
            raise ConfigError(f"qubit frequency must be positive, got {self.omega}")
        if self.lam < 0:
            raise ConfigError(f"coupling rate must be >= 0, got {self.lam}")
        if self.gamma < 0:
            raise ConfigError(f"decay rate must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class SystemConfig:
    """Full parameter set of the qubits-cavity system.

    All frequencies are unitless (expressed in omega_0).  ``fock_cutoff``
    bounds the photon ladder; 8 is adequate for every bundled scenario and 12
    is used for convergence checks.
    """

    qubits: tuple[QubitParams, ...]
    omega_c: float
    kappa: float = 0.0
    fock_cutoff: int = 8

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(self.qubits) < 1:
            raise ConfigError("need at least one qubit")
        for name in ("omega_c", "kappa", "fock_cutoff"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.omega_c <= 0:
            raise ConfigError(f"cavity frequency must be positive, got {self.omega_c}")
        if self.kappa < 0:
            raise ConfigError(f"cavity decay rate must be >= 0, got {self.kappa}")
        if self.fock_cutoff < 1:
            raise ConfigError(f"fock_cutoff must be >= 1, got {self.fock_cutoff}")

    @property
    def qubit_count(self) -> int:
        return len(self.qubits)

    @property
    def layout(self) -> HilbertLayout:
        return HilbertLayout(self.qubit_count, self.fock_cutoff)


class _Sparse(NamedTuple):
    """Nonzero entries of a d x d term: flat indices into the matrix, values."""

    flat: np.ndarray
    value: np.ndarray


def _sparse(dense: np.ndarray) -> _Sparse:
    """The nonzero entries of ``dense``, read-only."""
    flat = np.flatnonzero(dense)
    term = _Sparse(flat, dense.reshape(-1)[flat])
    for arr in term:
        arr.setflags(write=False)
    return term


class _LayoutTerms(NamedTuple):
    """Real building blocks of both models on one layout (read-only arrays)."""

    sigma_z: np.ndarray                # (N, d): diagonal of sigma_z^(i) in row i-1
    number: np.ndarray                 # (d,): diagonal of a+ a
    quadrature: _Sparse                # X = a + a+
    x_sigma_x: tuple[_Sparse, ...]     # X sigma_x^(i)
    exchange: tuple[_Sparse, ...]      # a sigma_+^(i) + a+ sigma_-^(i)


@lru_cache(maxsize=8)
def _layout_terms(layout: HilbertLayout) -> _LayoutTerms:
    """Every term of both Hamiltonians on ``layout``, built once per layout.

    The off-diagonal terms are stored by their nonzero entries.  No two of
    them share an entry, and none touches the diagonal, so each is written
    into a zeroed matrix by one scatter.  X sigma_z^(i) is not stored:
    sigma_z^(i) is diagonal, so it is X with its columns scaled by the
    ``sigma_z`` row.
    """
    cutoff = layout.fock_cutoff
    a = _ladder(cutoff)
    x = a + a.T
    eye = np.eye(cutoff)
    qubits = range(1, layout.qubit_count + 1)
    terms = _LayoutTerms(
        sigma_z=np.array([_lift(layout, i, SIGMA_Z.real, eye).diagonal() for i in qubits]),
        number=np.array(_lift(layout, 1, np.eye(2), np.diag(np.arange(float(cutoff)))).diagonal()),
        quadrature=_sparse(_lift(layout, 1, np.eye(2), x)),
        x_sigma_x=tuple(_sparse(_lift(layout, i, SIGMA_X.real, x)) for i in qubits),
        exchange=tuple(_sparse(_lift(layout, i, SIGMA_PLUS.real, a)
                               + _lift(layout, i, SIGMA_MINUS.real, a.T)) for i in qubits),
    )
    terms.sigma_z.setflags(write=False)
    terms.number.setflags(write=False)
    return terms


def _buffer(config: SystemConfig) -> np.ndarray:
    """A fresh d x d float64 array, an assembly target."""
    dim = config.layout.dim
    return np.empty((dim, dim))


def _bare_diagonal(config: SystemConfig, terms: _LayoutTerms) -> np.ndarray:
    diag = np.zeros(config.layout.dim)
    for q, sz in zip(config.qubits, terms.sigma_z):
        diag += 0.5 * q.omega * sz
    diag += config.omega_c * terms.number
    return diag


def _dicke_coupling(config: SystemConfig, terms: _LayoutTerms, out: np.ndarray) -> np.ndarray:
    longitudinal = np.zeros(config.layout.dim)
    for q, sz in zip(config.qubits, terms.sigma_z):
        longitudinal += q.lam * math.sin(q.theta) * sz
    out.fill(0.0)
    flat = out.reshape(-1)
    x = terms.quadrature
    flat[x.flat] = x.value * longitudinal[x.flat % config.layout.dim]
    for q, x_sx in zip(config.qubits, terms.x_sigma_x):
        flat[x_sx.flat] = x_sx.value * (q.lam * math.cos(q.theta))
    return out


def _tc_coupling(config: SystemConfig, terms: _LayoutTerms, out: np.ndarray) -> np.ndarray:
    out.fill(0.0)
    flat = out.reshape(-1)
    for q, term in zip(config.qubits, terms.exchange):
        flat[term.flat] = term.value * q.lam
    return out


def _add_bare(config: SystemConfig, terms: _LayoutTerms, coupling: np.ndarray) -> np.ndarray:
    """Add the bare diagonal to ``coupling`` in place, bit for bit the full sum
    bare + coupling: adding +0.0 turns each -0.0 entry into +0.0, as adding
    the bare term's zero off-diagonal did."""
    coupling += 0.0
    coupling.reshape(-1)[:: coupling.shape[0] + 1] += _bare_diagonal(config, terms)
    return coupling


def _assemble_dicke(config: SystemConfig, out: np.ndarray) -> np.ndarray:
    """Write the generalized Dicke Hamiltonian of ``config`` into ``out``.

    ``out`` is a caller-owned C-ordered d x d float64 array, and every entry
    is rewritten.  Returns ``out``.  Sweeps and searches call this with the
    same buffer at every grid point.
    """
    terms = _layout_terms(config.layout)
    return _add_bare(config, terms, _dicke_coupling(config, terms, out))


def _assemble_tc(config: SystemConfig, out: np.ndarray) -> np.ndarray:
    """Tavis-Cummings counterpart of :func:`_assemble_dicke`."""
    terms = _layout_terms(config.layout)
    return _add_bare(config, terms, _tc_coupling(config, terms, out))


def bare_hamiltonian(config: SystemConfig) -> Operator:
    """Non-interacting part: sum_i (omega_i/2) sigma_z^(i) + omega_c a+ a.

    Diagonal in the bare product basis; its diagonal supplies the unperturbed
    energies used by the path enumerator.
    """
    return Operator(np.diag(_bare_diagonal(config, _layout_terms(config.layout))),
                    config.layout)


def dicke_interaction(config: SystemConfig) -> Operator:
    """Coupling term (a + a+) sum_i lam_i (cos(theta_i) sigma_x + sin(theta_i) sigma_z)."""
    coupling = _dicke_coupling(config, _layout_terms(config.layout), _buffer(config))
    return Operator(coupling, config.layout)


def tavis_cummings_interaction(config: SystemConfig) -> Operator:
    """Excitation-conserving coupling sum_i lam_i (a sigma_+^(i) + a+ sigma_-^(i))."""
    coupling = _tc_coupling(config, _layout_terms(config.layout), _buffer(config))
    return Operator(coupling, config.layout)


def build_generalized_dicke(config: SystemConfig) -> Operator:
    """Full Hamiltonian including counter-rotating and longitudinal terms."""
    return Operator(_assemble_dicke(config, _buffer(config)), config.layout)


def build_tavis_cummings(config: SystemConfig) -> Operator:
    """Rotating-wave Hamiltonian; commutes with the total excitation number."""
    return Operator(_assemble_tc(config, _buffer(config)), config.layout)


# Builder and in-place assembler of each model, by name.
MODEL_BUILDERS = {"dicke": build_generalized_dicke, "tc": build_tavis_cummings}
_ASSEMBLERS = {"dicke": _assemble_dicke, "tc": _assemble_tc}
# Parameters no term of a model reads: the decay rates enter only the
# dissipators, and the Tavis-Cummings coupling ignores theta.
_UNREAD = {"dicke": ("kappa", "gamma"), "tc": ("kappa", "gamma", "theta")}


def _check_model(model: str, field: str | None = None) -> str:
    """``model`` if it names a model whose Hamiltonian reads ``field``, else ConfigError."""
    if not isinstance(model, str) or model not in MODEL_BUILDERS:
        raise ConfigError(f"unknown model {model!r}; choose from {', '.join(MODEL_BUILDERS)}")
    if field in _UNREAD[model]:
        raise ConfigError(f"the {model} Hamiltonian does not depend on {field}")
    return model


def total_excitation_number(layout: HilbertLayout) -> Operator:
    """N = a+ a + sum_i |e><e|^(i)."""
    n = cavity_number(layout).mat.copy()
    proj_e = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    for i in range(1, layout.qubit_count + 1):
        n += embed_qubit_op(layout, i, proj_e).mat
    return Operator(n, layout)


def parity_operator(layout: HilbertLayout) -> Operator:
    """Excitation parity exp(i pi N); diagonal with entries (-1)^N."""
    n_diag = np.real(np.diag(total_excitation_number(layout).mat))
    return Operator(np.diag((-1.0) ** np.rint(n_diag)), layout)


class MixKind(Enum):
    """Operator content of the effective resonant-mixing Hamiltonians."""

    TWO_QUBIT = "two_qubit"
    THREE_QUBIT = "three_qubit"
    FOUR_QUBIT_EXCHANGE = "four_qubit_exchange"
    FOUR_QUBIT_CASCADE = "four_qubit_cascade"


# (qubit, raise/lower) factors of the non-Hermitian half of each kind.
_MIX_PATTERNS = {
    MixKind.TWO_QUBIT: ((2, "+"), (1, "-")),
    MixKind.THREE_QUBIT: ((1, "+"), (2, "+"), (3, "-")),
    MixKind.FOUR_QUBIT_EXCHANGE: ((1, "-"), (2, "-"), (3, "+"), (4, "+")),
    MixKind.FOUR_QUBIT_CASCADE: ((1, "-"), (2, "+"), (3, "+"), (4, "+")),
}


def build_effective_mixing(kind: MixKind, coupling: float, qubit_count: int) -> Operator:
    """Effective qubit-only Hamiltonian J (product of sigma+/- + h.c.).

    THREE_QUBIT couples |g,g,e> <-> |e,e,g>; FOUR_QUBIT_EXCHANGE couples
    |e,e,g,g> <-> |g,g,e,e|; FOUR_QUBIT_CASCADE couples |e,g,g,g> <-> |g,e,e,e>.
    The returned operator lives on a qubit-only layout (fock_cutoff = 1).
    """
    pattern = _MIX_PATTERNS[kind]
    needed = max(q for q, _ in pattern)
    if qubit_count != needed:
        raise ConfigError(
            f"{kind.value} needs exactly {needed} qubits, got {qubit_count}"
        )
    layout = HilbertLayout(qubit_count, 1)
    half = np.eye(layout.dim, dtype=complex)
    for q, sign in pattern:
        local = SIGMA_PLUS if sign == "+" else SIGMA_MINUS
        half = half @ embed_qubit_op(layout, q, local).mat
    return Operator(coupling * (half + half.conj().T), layout)
