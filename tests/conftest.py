import math

import numpy as np
import pytest

from vpmix import QubitParams, SystemConfig

PI6 = math.pi / 6


@pytest.fixture(scope="session")
def fig1b_spec_literal():
    """Three-qubit benchmark exactly as spelled in the interface examples
    (cavity at 1.325)."""
    return SystemConfig(
        (QubitParams(0.4, 0.13, PI6, 3e-5),
         QubitParams(0.6, 0.13, PI6, 3e-5),
         QubitParams(1.0, 5e-3, PI6, 3e-5)),
        omega_c=1.325,
        kappa=3e-5,
        fock_cutoff=8,
    )


@pytest.fixture(scope="session")
def fig1b_preset():
    """Three-qubit benchmark with the cavity at 1.0125, the reading that
    reproduces the documented level anchors (see presets module docstring)."""
    return SystemConfig(
        (QubitParams(0.4, 0.13, PI6, 3e-5),
         QubitParams(0.6, 0.13, PI6, 3e-5),
         QubitParams(1.0, 5e-3, PI6, 3e-5)),
        omega_c=1.0125,
        kappa=3e-5,
        fock_cutoff=8,
    )


@pytest.fixture(scope="session")
def four_qubit_exchange():
    """Four-qubit pair-exchange benchmark (cavity at 1.4)."""
    return SystemConfig(
        (QubitParams(0.25, 0.15, PI6, 3e-5), QubitParams(0.4, 0.15, PI6, 3e-5),
         QubitParams(0.55, 0.15, PI6, 3e-5), QubitParams(0.7, 0.15, PI6, 3e-5)),
        omega_c=1.4,
        kappa=3e-5,
        fock_cutoff=8,
    )


@pytest.fixture(scope="session")
def four_qubit_cascade():
    """Four-qubit cascade benchmark (cavity at 1.75, weakly coupled qubit 1)."""
    return SystemConfig(
        (QubitParams(1.6448, 0.05, PI6, 3e-5), QubitParams(0.4, 0.15, PI6, 3e-5),
         QubitParams(0.55, 0.15, PI6, 3e-5), QubitParams(0.7, 0.15, PI6, 3e-5)),
        omega_c=1.75,
        kappa=3e-5,
        fock_cutoff=8,
    )


@pytest.fixture(scope="session")
def ritz_resolves():
    """The certified points that golden-section comparisons solve again by
    LAPACK, for a bundled search named as ``fig4`` or, one of fig2's
    coupling sweep, ``fig2-lam0.13``: both points of one comparison that
    their bounds leave open on fig2 at lambda 0.13 and 0.15, none on every
    other search."""
    table = {"fig2-lam0.13": 2, "fig2-lam0.15": 2}
    return lambda search: table.get(search, 0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
