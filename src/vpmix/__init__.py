"""Desk-scale laboratory for virtual-photon-mediated multi-qubit mixing.

Builds generalized Dicke / Tavis-Cummings Hamiltonians on a truncated
qubits-cavity space, diagonalizes and labels dressed states, sums
virtual-transition paths for effective couplings, integrates a dressed-picture
Lindblad master equation, and simulates the mixing-gate repetition and
error-correction circuits.
"""

from .algebra import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    HilbertLayout,
    Ket,
    Operator,
    bare_state,
    cavity_annihilation,
    cavity_number,
    cavity_quadrature,
    embed_qubit_op,
    identity,
)
from .errors import (
    BranchTrackingError,
    ConfigError,
    DegenerateIntermediateError,
    HermiticityError,
    LabelAmbiguityError,
    NonResonantPairError,
    NumericalError,
    ResonantParameterError,
    StepSizeError,
    VpmixError,
)
from .model import (
    MixKind,
    QubitParams,
    SystemConfig,
    bare_hamiltonian,
    build_effective_mixing,
    build_generalized_dicke,
    build_tavis_cummings,
    dicke_interaction,
    parity_operator,
    tavis_cummings_interaction,
    total_excitation_number,
)
from .dynamics import (
    TimeSeries,
    build_cavity_lowering,
    build_dissipators,
    build_dressed_lowering,
    check_density,
    evolve,
    expectation,
    expectation_series,
    state_fidelity,
)
from .perturbation import (
    PathSumReport,
    TransitionPath,
    dispersive_pair_coupling,
    effective_coupling,
    enumerate_paths,
    four_mix_coupling_rabi,
    four_mix_coupling_tc,
    three_mix_coupling,
)
from .spectrum import (
    AnticrossingReport,
    SpectrumResult,
    SweepResult,
    coupling_sign,
    diagonalize,
    find_anticrossing,
    set_parameter,
    superposition_states,
    sweep_levels,
)

__version__ = "0.1.0"
