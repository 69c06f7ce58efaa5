"""The one checked eigensolver against the solves it replaced.

``reference_eigh``, ``ReferenceLowestPairs`` and ``reference_lowest`` are the
earlier ``spectrum._eigh``, ``spectrum._LowestPairs`` and the range branch
of ``spectrum._eigh_lowest``, copied here with their logic unchanged as the
oracle: the solver runs the same LAPACK calls on the same arrays, so its
energies and eigenvectors must be the same bytes, and its errors must carry
the same messages.
"""

import ctypes
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError, _umath_linalg

from vpmix import spectrum
from vpmix.algebra import _check_hermitian
from vpmix.errors import HermiticityError
from vpmix.spectrum import _HERMITICITY_TOL, _nonconvergence, _Solver


def reference_eigh(mat, scratch, out=None):
    _check_hermitian(mat, _HERMITICITY_TOL, HermiticityError, "matrix", scratch)
    if out is None:
        out = np.empty(len(mat)), np.empty_like(mat)
    with np.errstate(call=_nonconvergence, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        energies, states = _umath_linalg.eigh_lo(
            mat, out=out, signature="D->dD" if np.iscomplexobj(mat) else "d->dd")
    energies -= energies[0]
    return energies, states


class ReferenceLowestPairs:
    def __init__(self, dsyevr, mat, count, first=0):
        d = len(mat)
        self._dsyevr, self.count, self.first = dsyevr, count, first
        w, z = np.empty(d), np.empty((count, d))
        self._solution = w[:count], z.T
        self._m, self._info = ctypes.c_int64(), ctypes.c_int64()
        n, il, iu = ctypes.c_int64(d), ctypes.c_int64(first + 1), ctypes.c_int64(first + count)
        lwork, liwork, zero = ctypes.c_int64(-1), ctypes.c_int64(-1), ctypes.c_double(0.0)
        arrays = [mat, w, z, np.empty(2 * count, dtype=np.int64), np.empty(1),
                  np.empty(1, dtype=np.int64)]

        def arguments():
            a, w, z, isuppz, work, iwork = (array.ctypes.data for array in arrays)
            n_, zero_ = ctypes.byref(n), ctypes.byref(zero)
            return (b"V", b"I", b"U", n_, a, n_, zero_, zero_, ctypes.byref(il),
                    ctypes.byref(iu), zero_, ctypes.byref(self._m), w, z, n_, isuppz, work,
                    ctypes.byref(lwork), iwork, ctypes.byref(liwork), ctypes.byref(self._info),
                    1, 1, 1)

        dsyevr(*arguments())
        if self._info.value != 0:
            raise LinAlgError("Eigenvalues did not converge")
        lwork.value, liwork.value = int(arrays[4][0]), int(arrays[5][0])
        arrays[4:] = np.empty(lwork.value), np.empty(liwork.value, dtype=np.int64)
        self._arrays, self._arguments = arrays, arguments()

    def __call__(self):
        self._dsyevr(*self._arguments)
        if self._info.value != 0 or self._m.value != self.count:
            raise LinAlgError("Eigenvalues did not converge")
        return self._solution


def reference_lowest(mat, scratch, out):
    _check_hermitian(mat, _HERMITICITY_TOL, HermiticityError, "matrix", scratch)
    energies, states = out()
    energies -= energies[0]
    return energies, states


def reference(mat, count, first):
    """The earlier solve of ``mat`` for the range, as a sweep or a search
    ran it: dsyevr's where it is found and a range of a real matrix is
    asked, else eigh's."""
    dsyevr = None if count is None or np.iscomplexobj(mat) else spectrum._dsyevr()
    if dsyevr is None:
        return reference_eigh(mat, np.empty_like(mat), (np.empty(len(mat)), np.empty_like(mat)))
    return reference_lowest(mat, np.empty_like(mat), ReferenceLowestPairs(dsyevr, mat, count,
                                                                          first))


def outcome(solve, *args):
    """The bytes of each output of ``solve(*args)``, or its error's type and message."""
    try:
        with spectrum._one_blas_thread():
            return [array.tobytes() for array in solve(*args)]
    except (HermiticityError, LinAlgError) as err:
        return type(err), str(err)


def failing_dsyevr():
    """dsyevr with its C signature, reporting a failure after every solve."""
    dsyevr = spectrum._dsyevr()

    @ctypes.CFUNCTYPE(None, *dsyevr.argtypes)
    def failing(*args):
        dsyevr(*args)
        if args[17][0] != -1:  # not the workspace query
            args[20][0] = 3
    return failing


def failing_eigh(mat, out, signature):
    np.sqrt(np.full(1, -1.0))  # the invalid flag a failed eigh_lo raises
    return out


@pytest.mark.parametrize("fault", [None, "asymmetric", "nan", "inf", "lapack"])
@pytest.mark.parametrize("hidden", [False, True], ids=["dsyevr-found", "dsyevr-hidden"])
@pytest.mark.parametrize("ranged", [True, False], ids=["range", "all"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 24), complex_=st.booleans(),
       data=st.data())
def test_solver_matches_the_earlier_solves(ranged, hidden, fault, seed, dim, complex_, data):
    # real symmetric or complex Hermitian matrices, each solved three times
    # by one solver, for a random range each time or for every pair: dsyevr
    # solves a range of a real matrix where it is found, eigh everything else
    subset = ranged and not hidden and not complex_ and spectrum._dsyevr() is not None
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(dim, dim))
    if complex_:
        mat = mat + 1j * rng.normal(size=(dim, dim))
    mat = mat + mat.conj().T
    if fault == "asymmetric":
        mat[0, dim - 1] += 1e-6
    elif fault in ("nan", "inf"):
        i, j = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
        mat[i, j] = mat[j, i] = math.nan if fault == "nan" else -math.inf
    with pytest.MonkeyPatch.context() as patch:
        if fault == "lapack" and subset:
            failing = failing_dsyevr()
            patch.setattr(spectrum, "_dsyevr", lambda: failing)
        elif fault == "lapack":
            patch.setattr(_umath_linalg, "eigh_lo", failing_eigh)
        if hidden:
            patch.setattr(spectrum, "_dsyevr", lambda: None)
        solver = _Solver(mat.copy())
        for _ in range(3):
            count = first = None
            if ranged:
                count = data.draw(st.integers(1, dim))
                first = data.draw(st.integers(0, dim - count))
            expected = outcome(reference, mat.copy(), count, first)
            solver.mat[...] = mat  # dsyevr overwrites it
            found = outcome(solver, *(() if count is None else (first, count)))
            assert found == expected
            if fault is None:
                assert len(found[0]) == 8 * solver.count
            else:
                assert found[0] in (HermiticityError, LinAlgError)
            if fault in (None, "lapack"):  # the matrix passed its check and was solved
                assert (solver.name, solver.first, solver.count) == (
                    ("dsyevr", first, count) if subset else ("eigh", 0, dim))
