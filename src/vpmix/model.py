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
products or matrix products per call.  One private assembler writes either
model's sum into a caller-owned buffer, and the public builders hand it a
fresh one.  The sweeps and searches of :mod:`vpmix.spectrum` assemble once
per call, into a :class:`_Pencil` of the swept field, which writes every
grid point into a reused buffer from the entries the field does not move
and the ones it does, bit for bit the assembler's matrix there.

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
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .algebra import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    HilbertLayout,
    Operator,
    _check_finite,
    _ladder,
    _lift,
    _require_finite,
    embed_qubit_op,
)
from .errors import ConfigError, HermiticityError

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


# The rule of each field that has one, beyond being a finite real number:
# (the name its message gives it, whether it must be positive or only >= 0).
_FIELD_RULES = {
    "omega": ("qubit frequency", True),
    "lam": ("coupling rate", False),
    "gamma": ("decay rate", False),
    "omega_c": ("cavity frequency", True),
    "kappa": ("cavity decay rate", False),
}
# The fields of a qubit, whose messages name them as the qubit's.
_QUBIT_FIELDS = ("omega", "lam", "theta", "gamma")


def _check_fields(owner, names: tuple[str, ...]) -> None:
    """Raise :class:`ConfigError` unless each field ``names`` of ``owner``,
    a QubitParams, a SystemConfig or any object with those attributes,
    holds a value its rule accepts: every one a finite real number first,
    then each the sign its rule asks.  The one owner of the fields' rules,
    which the dataclasses and :class:`_Pencil` both call."""
    _require_finite(owner, names, prefix="qubit " if names[0] in _QUBIT_FIELDS else "")
    for name in names:
        if name in _FIELD_RULES:
            what, positive = _FIELD_RULES[name]
            value = getattr(owner, name)
            if value <= 0 if positive else value < 0:
                raise ConfigError(f"{what} must be {'positive' if positive else '>= 0'}, "
                                  f"got {value}")


@dataclass(frozen=True)
class QubitParams:
    """One qubit: transition frequency, cavity coupling rate, coupling-mixing
    angle and decay rate, all in units of omega_0 (angle in radians)."""

    omega: float
    lam: float
    theta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        _check_fields(self, ("omega", "lam", "theta", "gamma"))


@dataclass(frozen=True)
class SystemConfig:
    """Full parameter set of the qubits-cavity system.

    All frequencies are unitless (expressed in omega_0).  ``fock_cutoff``
    bounds the photon ladder; 8 is adequate for every bundled scenario and 12
    is used for convergence checks.  The qubit count and the cutoff are
    checked by the :class:`HilbertLayout` built here.
    """

    qubits: tuple[QubitParams, ...]
    omega_c: float
    kappa: float = 0.0
    fock_cutoff: int = 8

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        self.layout  # built now, so a bad qubit count or cutoff raises here
        _check_fields(self, ("omega_c", "kappa"))

    @property
    def qubit_count(self) -> int:
        return len(self.qubits)

    @cached_property
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


class _Terms(NamedTuple):
    """Real building blocks of both models on one layout, and of the
    operators the dynamics applies to a spectrum (read-only arrays)."""

    sigma_z: np.ndarray                # (N, d): diagonal of sigma_z^(i) in row i-1
    flip: np.ndarray                   # (N, d): row of the 1 in each column of sigma_x^(i)
    number: np.ndarray                 # (d,): diagonal of a+ a
    quadrature: _Sparse                # X = a + a+
    x_sigma_x: tuple[_Sparse, ...]     # X sigma_x^(i)
    exchange: tuple[_Sparse, ...]      # a sigma_+^(i) + a+ sigma_-^(i)


class _LayoutTerms(_Terms):
    """:class:`_Terms` that also know, once, whether every matrix assembled
    from them is exactly symmetric (:func:`_symmetric`).  A copy made by
    ``_replace`` asks again."""

    @cached_property
    def symmetric(self) -> bool:
        return _symmetric(self, len(self.number))


@lru_cache(maxsize=8)
def _layout_terms(layout: HilbertLayout) -> _LayoutTerms:
    """Every term of both Hamiltonians on ``layout``, built once per layout.

    The off-diagonal terms are stored by their nonzero entries.  No two of
    them share an entry, and none touches the diagonal, so each is written
    into a zeroed matrix by one scatter.  X sigma_z^(i) is not stored:
    sigma_z^(i) is diagonal, so it is X with its columns scaled by the
    ``sigma_z`` row.  sigma_x^(i) is a permutation of the basis, stored as
    ``flip``: column c of it is the unit vector of ``flip[i-1, c]``.
    """
    cutoff = layout.fock_cutoff
    a = _ladder(cutoff)
    x = a + a.T
    eye = np.eye(cutoff)
    qubits = range(1, layout.qubit_count + 1)
    terms = _LayoutTerms(
        sigma_z=np.array([_lift(layout, i, SIGMA_Z.real, eye).diagonal() for i in qubits]),
        flip=np.array([_lift(layout, i, SIGMA_X.real, eye).argmax(axis=0) for i in qubits]),
        number=np.array(_lift(layout, 1, np.eye(2), np.diag(np.arange(float(cutoff)))).diagonal()),
        quadrature=_sparse(_lift(layout, 1, np.eye(2), x)),
        x_sigma_x=tuple(_sparse(_lift(layout, i, SIGMA_X.real, x)) for i in qubits),
        exchange=tuple(_sparse(_lift(layout, i, SIGMA_PLUS.real, a)
                               + _lift(layout, i, SIGMA_MINUS.real, a.T)) for i in qubits),
    )
    for arr in (terms.sigma_z, terms.flip, terms.number):
        arr.setflags(write=False)
    return terms


def _buffer(config: SystemConfig) -> np.ndarray:
    """A fresh d x d float64 array, an assembly target."""
    dim = config.layout.dim
    return np.empty((dim, dim))


# On a config too large for a float (omega_c = 1e308, say) the products and
# sums below overflow to inf, or meet inf - inf and give NaN, with no warning:
# the finiteness checks of the solvers and of _Pencil.write name them instead.
_QUIET = {"over": "ignore", "invalid": "ignore"}


def _qubit_diagonal(qubits: tuple[QubitParams, ...], terms: _LayoutTerms) -> np.ndarray:
    """sum_i (omega_i/2) sigma_z^(i) over ``qubits``, the first of the layout's, in order."""
    diag = np.zeros(len(terms.number))
    with np.errstate(**_QUIET):
        for q, sz in zip(qubits, terms.sigma_z):
            diag += 0.5 * q.omega * sz
    return diag


def _bare_diagonal(qubits: tuple[QubitParams, ...], omega_c: float,
                   terms: _LayoutTerms) -> np.ndarray:
    diag = _qubit_diagonal(qubits, terms)
    with np.errstate(**_QUIET):
        diag += omega_c * terms.number
    return diag


def _couplings(model: str, qubits: tuple[QubitParams, ...], terms: _LayoutTerms) -> list:
    """(term, factor, reader) of each off-diagonal term of the ``model``
    coupling, in the order they are written: the term's entries times
    ``factor``, one number or one per entry, are its entries in H.
    ``reader`` is the list index of the qubit whose fields the factor reads,
    or None where it reads every qubit's."""
    if model == "tc":
        return [(term, q.lam, k) for k, (q, term) in enumerate(zip(qubits, terms.exchange))]
    longitudinal = np.zeros(len(terms.number))
    with np.errstate(**_QUIET):
        for q, sz in zip(qubits, terms.sigma_z):
            longitudinal += q.lam * math.sin(q.theta) * sz
    x = terms.quadrature
    return [(x, longitudinal[x.flat % len(longitudinal)], None)] + [
        (x_sx, q.lam * math.cos(q.theta), k)
        for k, (q, x_sx) in enumerate(zip(qubits, terms.x_sigma_x))]


def _write_coupling(couplings: list, out: np.ndarray) -> np.ndarray:
    out.fill(0.0)
    flat = out.reshape(-1)
    with np.errstate(**_QUIET):
        for term, factor, _ in couplings:
            flat[term.flat] = term.value * factor
    return out


def _assemble(model: str, config: SystemConfig, out: np.ndarray) -> np.ndarray:
    """Write the ``model`` Hamiltonian of ``config`` into ``out``.

    ``out`` is a caller-owned C-ordered d x d float64 array, and every entry
    is rewritten.  Returns ``out``.  The result is bit for bit the full sum
    bare + coupling: adding +0.0 turns each -0.0 entry into +0.0, as adding
    the bare term's zero off-diagonal did.
    """
    terms = _layout_terms(config.layout)
    _write_coupling(_couplings(model, config.qubits, terms), out)
    out += 0.0
    out.reshape(-1)[:: len(out) + 1] += _bare_diagonal(config.qubits, config.omega_c, terms)
    return out


def bare_hamiltonian(config: SystemConfig) -> Operator:
    """Non-interacting part: sum_i (omega_i/2) sigma_z^(i) + omega_c a+ a.

    Diagonal in the bare product basis; its diagonal supplies the unperturbed
    energies used by the path enumerator.
    """
    terms = _layout_terms(config.layout)
    return Operator(np.diag(_bare_diagonal(config.qubits, config.omega_c, terms)), config.layout)


def dicke_interaction(config: SystemConfig) -> Operator:
    """Coupling term (a + a+) sum_i lam_i (cos(theta_i) sigma_x + sin(theta_i) sigma_z)."""
    couplings = _couplings("dicke", config.qubits, _layout_terms(config.layout))
    return Operator(_write_coupling(couplings, _buffer(config)), config.layout)


def tavis_cummings_interaction(config: SystemConfig) -> Operator:
    """Excitation-conserving coupling sum_i lam_i (a sigma_+^(i) + a+ sigma_-^(i))."""
    couplings = _couplings("tc", config.qubits, _layout_terms(config.layout))
    return Operator(_write_coupling(couplings, _buffer(config)), config.layout)


def build_generalized_dicke(config: SystemConfig) -> Operator:
    """Full Hamiltonian including counter-rotating and longitudinal terms.

    A config whose entries overflow a float (``omega_c = 1e308``, say) yields
    non-finite entries, without a warning; :func:`vpmix.diagonalize` rejects them.
    """
    return Operator(_assemble("dicke", config, _buffer(config)), config.layout)


def build_tavis_cummings(config: SystemConfig) -> Operator:
    """Rotating-wave Hamiltonian; commutes with the total excitation number.

    A config whose entries overflow a float yields non-finite entries, without
    a warning, as :func:`build_generalized_dicke` does.
    """
    return Operator(_assemble("tc", config, _buffer(config)), config.layout)


# Builder of each model, by name.
MODEL_BUILDERS = {"dicke": build_generalized_dicke, "tc": build_tavis_cummings}
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


def _mirrored(term: _Sparse, dim: int) -> bool:
    """Whether the d x d ``term`` equals its transpose, entry for entry (a
    NaN counts as equal to a NaN)."""
    rows, cols = np.divmod(term.flat, dim)
    mirror = cols * dim + rows
    at = np.minimum(np.searchsorted(term.flat, mirror), term.flat.size - 1)
    return (np.array_equal(term.flat[at], mirror)
            and np.array_equal(term.value[at], term.value, equal_nan=True))


def _symmetric(terms: _LayoutTerms, dim: int) -> bool:
    """Whether every matrix assembled from ``terms`` is exactly symmetric,
    whatever the parameters, wherever it is finite: each off-diagonal term
    equals its transpose, and each sigma_z^(i) is the same at both ends of
    every entry of X, so that X sigma_z^(i) does too.  Finiteness is
    checked apart."""
    rows, cols = np.divmod(terms.quadrature.flat, dim)
    return (all(_mirrored(term, dim)
                for term in (terms.quadrature, *terms.x_sigma_x, *terms.exchange))
            and all(np.array_equal(sz[rows], sz[cols], equal_nan=True) for sz in terms.sigma_z))


class _Pencil:
    """H(x), the ``model`` Hamiltonian of ``config`` with one field set to x,
    written into caller-owned d x d buffers one point after another.

    ``field`` is ``(k, name)``: the field ``name`` of the qubit of list index
    k, or of the config where k is None, one that the model reads.  Built on
    ``out``, the pencil assembles its base, the model at ``config`` itself,
    there, and keeps the base's nonzero entries that x does not move: all but
    the diagonal for a frequency, all but the terms whose factor reads qubit
    k for ``lam`` or ``theta``.  It keeps them as one :class:`_Sparse`, 1,036
    entries for fig4 at d = 128, not as a dense copy.  :meth:`write` fills a
    buffer from them and writes the moved entries, computed by the model's
    own expressions in its order, so H(x) is the same bits that
    :func:`_assemble` writes for the config with the field set to x.

    Where the layout's terms are exactly symmetric (``terms.symmetric``,
    found once per layout), as :func:`_layout_terms` builds them, so is
    every H(x), and it is Hermitian and finite exactly when its entries are
    finite.  Then ``checked`` is True: ``check()``, called once on ``out``
    holding the base, checks the kept entries, and :meth:`write` checks the
    entries it moves, so no H(x) needs a check of its own.  Otherwise ``checked`` is
    False, the base is not checked, and each H(x) needs the full check.

    For a frequency the bare diagonal is a sum in a fixed order: the
    qubits' terms, then the cavity's.  The terms before the swept one are
    summed once, into the pencil's prefix, and the products after it are
    formed once; a write adds them to the swept term in that order.
    :meth:`write` forms the moved entries in a caller-owned buffer from
    :meth:`entries`, and :meth:`distance` bounds ||H(x) - H(y)|| from the
    moved entries of two writes.
    """

    def __init__(self, config: SystemConfig, field: tuple[int | None, str], model: str,
                 out: np.ndarray, check):
        self._config, (self._k, self._name), self._model = config, field, model
        # the other fields of the swept qubit
        self._fields = {} if self._k is None else {
            name: getattr(config.qubits[self._k], name) for name in _QUBIT_FIELDS
            if name != self._name}
        self._terms = terms = _layout_terms(config.layout)
        dim, flat = config.layout.dim, out.reshape(-1)
        _assemble(model, config, out)
        self.checked = terms.symmetric
        if self.checked:
            check()
        # the moved entries: the diagonal for a frequency, else the coupling
        # terms (indices into _couplings) whose factor reads qubit k
        couplings = _couplings(model, config.qubits, terms)
        self._moved = [] if self._name in ("omega", "omega_c") else [
            i for i, (_, _, reader) in enumerate(couplings) if reader in (None, self._k)]
        if not self._moved:
            flat[:: dim + 1] = 0.0
            self._diagonal(config, terms)
        for i in self._moved:
            flat[couplings[i][0].flat] = 0.0
        kept = np.flatnonzero(flat)
        self._kept = _Sparse(kept, flat[kept])
        # the row of each moved entry, in the order write forms them
        self._rows = (np.arange(dim) if not self._moved else
                      np.concatenate([couplings[i][0].flat // dim for i in self._moved]))

    def _diagonal(self, config: SystemConfig, terms: _LayoutTerms) -> None:
        """The bare diagonal's sum around the swept frequency's term, s x
        times ``_base``: ``_prefix``, the terms before it summed as
        :func:`_bare_diagonal` sums them, and ``_after``, each term after it."""
        qubits, k = config.qubits, self._k
        swept = len(qubits) if k is None else k  # the cavity's term comes last
        self._prefix = _qubit_diagonal(qubits[:swept], terms)
        with np.errstate(**_QUIET):
            self._after = [0.5 * q.omega * sz for q, sz in zip(qubits[swept + 1:],
                                                                terms.sigma_z[swept + 1:])]
            if k is not None:
                self._after.append(config.omega_c * terms.number)
        self._scale, self._base = ((1.0, terms.number) if k is None
                                   else (0.5, terms.sigma_z[k]))

    def _at(self, x: float) -> tuple:
        """The qubits with the field set to x, once the field's rule
        (:func:`_check_fields`) accepts x.  The swept qubit is a stand-in
        that carries the fields the model reads."""
        swept = SimpleNamespace(**self._fields, **{self._name: x})
        _check_fields(swept, (self._name,))
        k, qubits = self._k, self._config.qubits
        return qubits if k is None else qubits[:k] + (swept,) + qubits[k + 1:]

    def entries(self) -> np.ndarray:
        """A buffer for the moved entries of one :meth:`write`."""
        return np.empty(self._rows.size)

    def write(self, x: float, out: np.ndarray, moved: np.ndarray | None = None,
              whole: bool = True) -> np.ndarray:
        """Write H(x) into ``out`` and return it, its moved entries formed in
        ``moved``, a buffer from :meth:`entries` (a fresh one where None).
        Where ``whole`` is False, ``out`` holds an earlier write of this
        pencil and only the moved entries are written.  An x that the
        field's owner rejects raises its :class:`ConfigError`, and a moved
        entry that is not finite raises the solver check's
        :class:`HermiticityError`."""
        qubits = self._at(x)
        if moved is None:
            moved = self.entries()
        flat = out.reshape(-1)
        if whole:
            out.fill(0.0)
            flat[self._kept.flat] = self._kept.value
        with np.errstate(**_QUIET):
            if not self._moved:
                # the swept term plus the prefix, then each term after it: the
                # order of _bare_diagonal, as a + b and b + a are the same bits
                np.multiply(self._base, self._scale * x, out=moved)
                moved += self._prefix
                for term in self._after:
                    moved += term
                _check_finite(moved, HermiticityError, "matrix")
                np.add(moved, 0.0, out=flat[:: len(out) + 1])  # onto the zero diagonal
                return out
            start, couplings = 0, _couplings(self._model, qubits, self._terms)
            for i in self._moved:
                term, factor, _ = couplings[i]
                entries = moved[start:start + term.flat.size]
                start += term.flat.size
                np.multiply(term.value, factor, out=entries)
                entries += 0.0  # -0.0 to +0.0, as in _assemble
                _check_finite(entries, HermiticityError, "matrix")
                flat[term.flat] = entries
        return out

    def distance(self, moved: np.ndarray, other: np.ndarray) -> float:
        """A bound on ||H(x) - H(y)||_2 from the moved entries of the writes
        of x and y: the largest absolute row sum of their difference, which
        bounds the norm of a symmetric matrix.  For a frequency, a change of
        the diagonal alone, it is the largest change of a diagonal entry."""
        return float(np.bincount(self._rows, np.abs(moved - other)).max())


def _excitations(layout: HilbertLayout) -> np.ndarray:
    """Diagonal of N = a+ a + sum_i |e><e|^(i), exact integers."""
    terms = _layout_terms(layout)
    return terms.number + (terms.sigma_z > 0).sum(axis=0)


def total_excitation_number(layout: HilbertLayout) -> Operator:
    """N = a+ a + sum_i |e><e|^(i), a complex diagonal matrix."""
    return Operator(np.diag(_excitations(layout).astype(complex)), layout)


def parity_operator(layout: HilbertLayout) -> Operator:
    """Excitation parity exp(i pi N); diagonal with entries (-1)^N."""
    return Operator(np.diag((-1.0) ** _excitations(layout)), layout)


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
