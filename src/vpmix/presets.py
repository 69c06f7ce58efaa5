"""Named benchmark scenario presets.

Each preset is a complete run configuration (JSON-compatible dict); user
config files select one via ``"scenario"`` and may override any field.  All
frequencies are in units of the reference frequency; theta values below are
pi/6 and decay rates 3e-5 unless stated.

The three-qubit scenarios place the cavity at 1.0125 (an offset of 2.5 times
the weak qubit's coupling above the reference).  This reproduces the
documented level structure of the benchmark (pair level near 0.97, one-photon
level near 1.04, real-photon population ~1.5e-2 during transfer); see the
repository notes for why the alternative reading of the cavity offset (1.325)
is inconsistent with those anchors.
"""

from __future__ import annotations

import copy
import math

__all__ = ["SCENARIOS", "get_preset"]

_PI6 = math.pi / 6
_DECAY = 3e-5


def _qubit(omega, lam, theta=_PI6, gamma=_DECAY):
    return {"omega": omega, "lam": lam, "theta": theta, "gamma": gamma}


_THREE_QUBIT_SYSTEM = {
    "qubits": [_qubit(0.4, 0.13), _qubit(0.6, 0.13), _qubit(1.0, 5e-3)],
    "omega_c": 1.0125,
    "kappa": _DECAY,
    "fock_cutoff": 8,
}

_FOUR_QUBIT_SYSTEM = {
    "qubits": [_qubit(0.25, 0.15), _qubit(0.4, 0.15), _qubit(0.55, 0.15), _qubit(0.7, 0.15)],
    "omega_c": 1.4,
    "kappa": _DECAY,
    "fock_cutoff": 8,
}

_CASCADE_SYSTEM = {
    "qubits": [_qubit(1.6448, 0.05), _qubit(0.4, 0.15), _qubit(0.55, 0.15), _qubit(0.7, 0.15)],
    "omega_c": 1.75,
    "kappa": _DECAY,
    "fock_cutoff": 8,
}

_ANTICROSS_3QM = {
    "parameter": "qubits[2].omega",
    "bracket": [0.90, 1.02],
    "pair": [["gge", 0], ["eeg", 0]],
    "model": "dicke",
    "tol": 1e-6,
}

_ANTICROSS_4QM_EXCHANGE = {
    "parameter": "qubits[0].omega",
    "bracket": [0.2, 0.3],
    "pair": [["egge", 0], ["geeg", 0]],
    "model": "dicke",
    "tol": 1e-6,
}

_ANTICROSS_4QM_CASCADE = {
    "parameter": "qubits[0].omega",
    "bracket": [1.60, 1.69],
    "pair": [["eggg", 0], ["geee", 0]],
    "model": "dicke",
    "tol": 1e-6,
}

SCENARIOS: dict[str, dict] = {
    "fig1b": {
        "description": "three-qubit mixing: levels vs the swept third-qubit frequency",
        "system": _THREE_QUBIT_SYSTEM,
        "sweep": {
            "parameter": "qubits[2].omega",
            "start": 0.2,
            "stop": 1.5,
            "points": 200,
            "levels": 7,
            "model": "dicke",
            "inset": {"start": 0.950, "stop": 0.986, "points": 61},
        },
        "anticross": _ANTICROSS_3QM,
    },
    "fig2": {
        "description": "splitting vs coupling strength: diagonalization against path sums",
        "system": {
            "qubits": [_qubit(0.5, 0.1, gamma=0.0), _qubit(0.5, 0.1, gamma=0.0),
                       _qubit(1.0, 0.1, gamma=0.0)],
            "omega_c": 1.25,
            "kappa": 0.0,
            "fock_cutoff": 8,
        },
        "perturb": {
            "mode": "coupling_sweep",
            "lambdas": [0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15],
            "cavity_offset_factor": 2.5,
            "parameter": "qubits[2].omega",
            "bracket": [0.90, 1.03],
            "pair": [["gge", 0], ["eeg", 0]],
            "initial": ["gge", 0],
            "final": ["eeg", 0],
            "order": 4,
            "epsilon": 1e-9,
        },
    },
    "fig3": {
        "description": "three-qubit mixing dynamics at the splitting minimum",
        "system": _THREE_QUBIT_SYSTEM,
        "anticross": _ANTICROSS_3QM,
        "dynamics": {
            "initial": "pair_symmetric",
            "half_periods": 2.3,
            "points": 700,
            "lossless": False,
            "observables": [
                {"name": "P1", "kind": "excitation", "qubit": 1},
                {"name": "P3", "kind": "excitation", "qubit": 3},
                {"name": "C12", "kind": "correlation", "qubits": [1, 2]},
                {"name": "photon", "kind": "photon"},
            ],
        },
    },
    "fig4": {
        "description": "four-qubit levels vs the swept first-qubit frequency",
        "system": _FOUR_QUBIT_SYSTEM,
        "sweep": {
            "parameter": "qubits[0].omega",
            "start": 0.2,
            "stop": 1.3,
            "points": 200,
            "levels": 12,
            "model": "dicke",
        },
        "anticross": _ANTICROSS_4QM_EXCHANGE,
    },
    "fig5a": {
        "description": "pair-exchange four-qubit anticrossing (enlarged view)",
        "system": _FOUR_QUBIT_SYSTEM,
        "sweep": {
            "parameter": "qubits[0].omega",
            "start": 0.230,
            "stop": 0.264,
            "points": 61,
            "levels": 12,
            "model": "dicke",
        },
        "anticross": _ANTICROSS_4QM_EXCHANGE,
    },
    "fig5b": {
        "description": "pair-exchange four-qubit mixing dynamics",
        "system": _FOUR_QUBIT_SYSTEM,
        "anticross": _ANTICROSS_4QM_EXCHANGE,
        "dynamics": {
            "initial": "pair_symmetric",
            "half_periods": 2.0,
            "points": 600,
            "lossless": False,
            "observables": [
                {"name": "P1", "kind": "excitation", "qubit": 1},
                {"name": "P2", "kind": "excitation", "qubit": 2},
                {"name": "C14", "kind": "correlation", "qubits": [1, 4]},
                {"name": "C23", "kind": "correlation", "qubits": [2, 3]},
            ],
        },
    },
    "figS2a": {
        "description": "cascade four-qubit anticrossing: levels vs the first-qubit frequency",
        "system": _CASCADE_SYSTEM,
        "sweep": {
            "parameter": "qubits[0].omega",
            "start": 1.4,
            "stop": 1.8,
            "points": 150,
            "levels": 10,
            "model": "dicke",
            "inset": {"start": 1.637, "stop": 1.661, "points": 61},
        },
        "anticross": _ANTICROSS_4QM_CASCADE,
    },
    "figS2b": {
        "description": "cascade four-qubit mixing dynamics",
        "system": _CASCADE_SYSTEM,
        "anticross": _ANTICROSS_4QM_CASCADE,
        "dynamics": {
            "initial": "pair_symmetric",
            "half_periods": 2.0,
            "points": 600,
            "lossless": False,
            "observables": [
                {"name": "P1", "kind": "excitation", "qubit": 1},
                {"name": "P2", "kind": "excitation", "qubit": 2},
                {"name": "C234", "kind": "correlation", "qubits": [2, 3, 4]},
            ],
        },
    },
    "ecc": {
        "description": "error-correction suite: all single bit/phase flips, both encoders",
        "ecc": {"seed": 7},
    },
}


def get_preset(name: str) -> dict:
    if name not in SCENARIOS:
        raise KeyError(name)
    return copy.deepcopy(SCENARIOS[name])
