"""The anticrossing search against the one it replaced.

``reference_search`` is the earlier ``spectrum.find_anticrossing``, copied
here with its logic unchanged as the oracle: it solves every evaluation by
LAPACK, for the branch range a..b of the evaluation before it.  The search
now certifies most evaluations by Rayleigh-Ritz and takes a comparison on
certified gaps only where their error bounds prove it, so it takes the same
golden-section steps: the same location, splitting, evaluation count and
spectrum at the minimum, bit for bit.  Planted faults send evaluations and
comparisons down the LAPACK path, which must match as well.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmix import spectrum
from vpmix.cli import build_system
from vpmix.errors import BranchTrackingError, NumericalError
from vpmix.model import _buffer
from vpmix.presets import get_preset
from vpmix.spectrum import (AnticrossingReport, _one_blas_thread, _pair_branches, _pencil,
                            _search_inputs, _Solver, _spectrum, find_anticrossing)


def reference_search(config, parameter, bracket, bare_pair, model="dicke", tol=1e-6):
    field, u, v, lo, hi = _search_inputs(config, parameter, bracket, bare_pair, model, tol)
    solver, dim = _Solver(_buffer(config)), config.layout.dim
    pencil = _pencil(config, field, model, [solver])
    pairs, evaluations, unseen_max = (), 0, -math.inf  # every pair at first

    def branches(x, *pairs):
        pencil.write(x, solver.mat)
        energies, states = solver(*pairs)
        a, b, unseen = _pair_branches(states, u, v, solver.first)
        return float(energies[b - solver.first] - energies[a - solver.first]), a, b, unseen

    def gap_at(x):
        nonlocal pairs, evaluations, unseen_max
        evaluations += 1
        try:
            gap, a, b, unseen = branches(x, *pairs)
        except BranchTrackingError:
            if solver.count == dim:
                raise
            gap, a, b, unseen = branches(x)
        unseen_max = max(unseen_max, unseen)
        pairs = a, b - a + 1
        return gap

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
        eigensolver, first, count = solver.name, solver.first, solver.count
        pencil.write(x_min, solver.mat)
        spectrum = _spectrum(*solver(), config.layout)
    energies, states = spectrum.energies, spectrum.states
    ia, ib, _ = _pair_branches(states, u, v)

    bare_u, bare_v = np.zeros((2, spectrum.dim), dtype=complex)
    bare_u[u] = bare_v[v] = 1.0
    plus, minus = (bare_u + bare_v) / math.sqrt(2.0), (bare_u - bare_v) / math.sqrt(2.0)
    o_ap, o_am, o_bp, o_bm = (float(abs(np.vdot(vec, states[:, k])) ** 2)
                              for k in (ia, ib) for vec in (plus, minus))
    overlaps = (o_ap, o_bm) if o_ap + o_bm >= o_am + o_bp else (o_am, o_bp)

    return AnticrossingReport(
        parameter=parameter, location=float(x_min), splitting=float(energies[ib] - energies[ia]),
        branch_indices=(ia, ib), branch_energies=(float(energies[ia]), float(energies[ib])),
        superposition_overlaps=overlaps, bare_pair=(u, v), evaluations=evaluations,
        eigensolver=eigensolver, solved_pairs=(first, first + count - 1),
        unseen_weight_max=unseen_max, ritz_evaluations=0, gap_error_bound_max=0.0,
        spectrum=spectrum)


def cases() -> list:
    """(config, search block) of the bundled anticross presets and of each of
    fig2's coupling-sweep searches, its lambda set as the perturb command sets it."""
    found = [pytest.param(build_system(get_preset(name)), get_preset(name)["anticross"], id=name)
             for name in ("fig1b", "fig4", "fig5a", "figS2a")]
    fig2 = get_preset("fig2")
    system, block = build_system(fig2), fig2["perturb"]
    for lam in block["lambdas"]:
        cfg = replace(system, omega_c=system.qubits[-1].omega + block["cavity_offset_factor"] * lam,
                      qubits=tuple(replace(q, lam=lam) for q in system.qubits))
        found.append(pytest.param(cfg, block, id=f"fig2-lam{lam}"))
    return found


def outcome(run, cfg, block, bracket=None):
    """The report of ``run`` on a search block, or its error: the type and
    message, or the type alone for a branch-tracking error, whose message
    names the eigenpairs its LAPACK solve solved."""
    try:
        return run(cfg, block["parameter"], tuple(bracket or block["bracket"]), block["pair"],
                   **{key: block[key] for key in ("model", "tol") if key in block})
    except BranchTrackingError:
        return BranchTrackingError
    except NumericalError as err:
        return NumericalError, str(err)


def assert_same_search(found, expected):
    """The same golden-section steps: equal reports, location and splitting
    to the bit, evaluation count, and the spectrum at the minimum."""
    if not isinstance(expected, AnticrossingReport):
        assert found == expected
        return
    assert found == expected
    assert found.location.hex() == expected.location.hex()
    assert found.splitting.hex() == expected.splitting.hex()
    assert found.evaluations == expected.evaluations
    assert found.spectrum.energies.tobytes() == expected.spectrum.energies.tobytes()
    assert found.spectrum.states.tobytes() == expected.spectrum.states.tobytes()


def counted_solves(monkeypatch) -> list:
    """The arguments of every LAPACK solve from here on."""
    calls, solve = [], _Solver.__call__

    def counted(solver, *args):
        calls.append(args)
        return solve(solver, *args)

    monkeypatch.setattr(_Solver, "__call__", counted)
    return calls


@pytest.mark.parametrize("cfg, block", cases())
def test_the_search_takes_the_steps_of_the_old_search(monkeypatch, cfg, block):
    # the bundled searches certify all but a few of their evaluations, and
    # their bounds prove every comparison: no certified point is solved
    # again, so the LAPACK solves are the evaluations that no certificate
    # took, the closing one included
    expected = outcome(reference_search, cfg, block)
    calls = counted_solves(monkeypatch)
    found = outcome(find_anticrossing, cfg, block)
    assert_same_search(found, expected)
    assert found.ritz_evaluations >= found.evaluations - 6
    assert found.gap_error_bound_max < 1e-7
    assert found.ritz_resolves == 0
    assert len(calls) == found.evaluations - found.ritz_evaluations + found.ritz_resolves


@pytest.mark.parametrize("cfg, block", cases())
def test_the_basis_stays_orthonormal(monkeypatch, cfg, block):
    # once the ring holds its pairs, after every LAPACK pair and every set
    # of certified directions enters it, the basis of the next projection,
    # the ring's pairs and the directions, has orthonormal rows (fig1b and
    # figS2a certify every evaluation at the rounding floor on the pairs
    # alone, and leave no directions)
    worst = {"record": [], "extend": []}

    def checked(name):
        method = getattr(spectrum._Ritz, name)

        def run(ritz, *args):
            method(ritz, *args)
            if ritz.full:
                basis = ritz._basis[-ritz._size:]
                worst[name].append(np.abs(basis @ basis.T - np.eye(len(basis))).max())
        return run

    for name in worst:
        monkeypatch.setattr(spectrum._Ritz, name, checked(name))
    outcome(find_anticrossing, cfg, block)
    assert worst["record"]
    assert max(worst["record"] + worst["extend"]) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(first=st.floats(0.38, 0.42), second=st.floats(0.58, 0.62),
       lo=st.floats(0.85, 0.93), hi=st.floats(1.0, 1.08), lam=st.floats(0.08, 0.15))
def test_drawn_searches_take_the_steps_of_the_old_search(first, second, lo, hi, lam):
    # fig1b with drawn frequencies and couplings of the pair's qubits, which
    # move the anticrossing (near first + second - 0.03), and a drawn
    # bracket: the same report, or the same error
    preset = get_preset("fig1b")
    system, block = build_system(preset), preset["anticross"]
    qubits = (replace(system.qubits[0], omega=first, lam=lam),
              replace(system.qubits[1], omega=second, lam=lam), system.qubits[2])
    cfg = replace(system, qubits=qubits)
    assert_same_search(outcome(find_anticrossing, cfg, block, (lo, hi)),
                       outcome(reference_search, cfg, block, (lo, hi)))


@settings(max_examples=12, deadline=None)
@given(lo=st.floats(0.2, 0.235), hi=st.floats(0.26, 0.3), lam=st.floats(0.13, 0.17))
def test_drawn_d128_searches_take_the_steps_of_the_old_search(lo, hi, lam):
    # fig4 (d = 128) with a drawn coupling of every qubit, which moves the
    # anticrossing, and a drawn bracket: the same report, or the same error
    preset = get_preset("fig4")
    system, block = build_system(preset), preset["anticross"]
    cfg = replace(system, qubits=tuple(replace(q, lam=lam) for q in system.qubits))
    assert cfg.layout.dim == 128
    assert_same_search(outcome(find_anticrossing, cfg, block, (lo, hi)),
                       outcome(reference_search, cfg, block, (lo, hi)))


def planted_window(monkeypatch):
    """Each LAPACK solve of a search records the upper neighbour of the
    branches, E_{b+1}, just above the lower one, E_{a-1}: a neighbour level
    inside every Weyl window, which no certificate can pass."""
    solve = spectrum._Gaps._solve

    def planted(gaps, x):
        gap = solve(gaps, x)
        branches, below, _ = gaps._window
        gaps._window = branches, below, below + 1e-9
        return gap

    monkeypatch.setattr(spectrum._Gaps, "_solve", planted)


def planted_bounds(monkeypatch, scale):
    """Every certified gap's error bound multiplied by ``scale``, inf making
    each comparison on a certified gap a near tie."""
    eigenpairs = spectrum._Ritz.eigenpairs

    def planted(ritz, *args):
        found = eigenpairs(ritz, *args)
        if found is None:
            return None
        theta, error, sine, states = found
        return theta, [e * scale for e in error], sine, states

    monkeypatch.setattr(spectrum._Ritz, "eigenpairs", planted)


@pytest.mark.parametrize("plant", ["neighbour", "tie", "near-tie"])
@pytest.mark.parametrize("name", ["fig1b", "fig4"])
def test_planted_fallbacks_take_the_lapack_path_and_match(monkeypatch, name, plant):
    # a neighbour level in the window fails every certificate, so every
    # evaluation is a LAPACK solve; an infinite error bound leaves every
    # comparison on a certified gap open, so each certified point is solved
    # again by LAPACK before it is compared; bounds 1e4 times too wide leave
    # some open.  Each search still takes the old one's steps
    preset = get_preset(name)
    cfg, block = build_system(preset), preset["anticross"]
    expected = outcome(reference_search, cfg, block)
    calls, solve = [], _Solver.__call__

    def counted(solver, *args):
        calls.append(args)
        return solve(solver, *args)

    if plant == "neighbour":
        planted_window(monkeypatch)
    else:
        planted_bounds(monkeypatch, math.inf if plant == "tie" else 1e4)
    monkeypatch.setattr(_Solver, "__call__", counted)
    found = outcome(find_anticrossing, cfg, block)
    assert_same_search(found, expected)
    if plant == "neighbour":
        assert found.ritz_evaluations == 0
        assert len(calls) == found.evaluations
        return
    # a solve for each LAPACK evaluation and the closing one, and one more
    # for each certified point solved again: with infinite bounds, every
    # one but the last, which no comparison reads
    lapack = found.evaluations - found.ritz_evaluations
    assert found.ritz_evaluations > 15
    if plant == "tie":
        assert found.gap_error_bound_max == 0.0
        assert len(calls) == lapack + found.ritz_evaluations - 1
    else:
        assert found.gap_error_bound_max > 0.0
        assert lapack < len(calls) < lapack + found.ritz_evaluations - 1
