import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmix import (
    ConfigError,
    DegenerateIntermediateError,
    DetuningTable,
    NonResonantPairError,
    QubitParams,
    ResonantParameterError,
    SystemConfig,
    dispersive_pair_coupling,
    effective_coupling,
    enumerate_paths,
    four_mix_coupling_rabi,
    four_mix_coupling_tc,
    three_mix_coupling,
)

PI6 = math.pi / 6


def symmetric_three(lam=0.1, omega3=1.0, omega_c=1.25, theta=PI6, cutoff=8):
    """Equal couplings, omega_1 = omega_2 = omega_3 / 2."""
    return SystemConfig(
        (QubitParams(omega3 / 2, lam, theta), QubitParams(omega3 / 2, lam, theta),
         QubitParams(omega3, lam, theta)),
        omega_c=omega_c,
        fock_cutoff=cutoff,
    )


def four_qubit(lams, omegas, omega_c, theta=0.0, cutoff=8):
    return SystemConfig(
        tuple(QubitParams(w, l, theta) for w, l in zip(omegas, lams)),
        omega_c=omega_c,
        fock_cutoff=cutoff,
    )


class TestPathCounts:
    def test_three_mix_has_48_paths(self):
        rep = effective_coupling(symmetric_three(), ("gge", 0), ("eeg", 0), order=4)
        assert rep.path_count == 48
        assert len(rep.per_diagram) == 4
        assert all(len([p for p in rep.paths if p.diagram == d]) == 12
                   for d in rep.per_diagram)

    def test_tc_four_mix_has_8_paths(self):
        cfg = four_qubit([0.1] * 4, (4.0, 1.0, 3.0, 2.0), 6.0)
        rep = effective_coupling(cfg, ("eegg", 0), ("ggee", 0), order=4, model="tc")
        assert rep.path_count == 8

    def test_transverse_four_mix_has_48_paths(self):
        cfg = four_qubit([0.1] * 4, (4.0, 1.0, 3.0, 2.0), 6.0)
        rep = effective_coupling(cfg, ("eegg", 0), ("ggee", 0), order=4, model="dicke")
        assert rep.path_count == 48

    def test_order_two_transverse_has_2_paths(self):
        cfg = SystemConfig(
            (QubitParams(0.5, 0.01), QubitParams(0.5, 0.01)), omega_c=1.0, fock_cutoff=8
        )
        rep = effective_coupling(cfg, ("eg", 0), ("ge", 0), order=2, model="dicke")
        assert rep.path_count == 2
        lay = cfg.layout
        intermediates = sorted(lay.label_string(p.states[1]) for p in rep.paths)
        assert intermediates == ["ee:1", "gg:1"]

    def test_enumerate_paths_accepts_raw_arrays(self):
        import numpy as np
        from vpmix.model import bare_hamiltonian, tavis_cummings_interaction

        cfg = SystemConfig(
            (QubitParams(0.5, 0.01), QubitParams(0.5, 0.01)), omega_c=1.0, fock_cutoff=4
        )
        energies = np.real(np.diag(bare_hamiltonian(cfg).mat))
        v = np.array(tavis_cummings_interaction(cfg).mat)
        lay = cfg.layout
        rep = enumerate_paths(energies, v, lay.bare_index("eg", 0),
                              lay.bare_index("ge", 0), order=2)
        assert rep.path_count == 1
        assert rep.total == pytest.approx(-2e-4, rel=1e-12)


class TestOracleEquivalences:
    def test_order_two_tc_matches_dispersive_coupling(self):
        cfg = SystemConfig(
            (QubitParams(0.5, 0.01), QubitParams(0.5, 0.01)), omega_c=1.0, fock_cutoff=8
        )
        rep = effective_coupling(cfg, ("eg", 0), ("ge", 0), order=2, model="tc")
        j2 = dispersive_pair_coupling(cfg, 1, 2)
        assert rep.total == pytest.approx(j2, rel=1e-12)

    def test_order_three_photon_to_pair_closed_form(self):
        # |g,g,1> -> |e,e,0> with both qubits at the reference frequency and
        # the cavity at twice it: total = -(8/3) sin(t) cos^2(t) lam^3
        lam, theta = 0.1, PI6
        cfg = SystemConfig(
            (QubitParams(1.0, lam, theta), QubitParams(1.0, lam, theta)),
            omega_c=2.0,
            fock_cutoff=8,
        )
        rep = effective_coupling(cfg, ("gg", 1), ("ee", 0), order=3)
        expected = -(8.0 / 3.0) * math.sin(theta) * math.cos(theta) ** 2 * lam**3
        assert rep.total == pytest.approx(expected, rel=1e-12)

    def test_three_mix_closed_form_matches_enumerator(self):
        for lam, omega_c, theta in ((0.1, 1.25, PI6), (0.08, 0.8, math.pi / 5),
                                    (0.12, 1.6, math.pi / 7)):
            cfg = symmetric_three(lam=lam, omega_c=omega_c, theta=theta)
            rep = effective_coupling(cfg, ("gge", 0), ("eeg", 0), order=4)
            closed = three_mix_coupling(lam, 1.0, omega_c, theta)
            assert abs(rep.total - closed) <= 1e-10 * abs(closed)


class TestClosedForms:
    def test_three_mix_pinned_value(self):
        assert three_mix_coupling(0.1, 1.0, 1.25, PI6) == pytest.approx(1.571e-4, rel=1e-3)

    def test_three_mix_zero_angle(self):
        assert three_mix_coupling(0.1, 1.0, 1.25, 0.0) == 0.0

    def test_three_mix_magic_cavity_zero(self):
        val = three_mix_coupling(0.1, 1.0, math.sqrt(7.0) / 2.0, PI6)
        assert abs(val) < 1e-13 * abs(three_mix_coupling(0.1, 1.0, 1.25, PI6))

    def test_three_mix_poles_rejected(self):
        with pytest.raises(ResonantParameterError):
            three_mix_coupling(0.1, 1.0, 1.0, PI6)
        with pytest.raises(ResonantParameterError):
            three_mix_coupling(0.1, 1.0, 0.5, PI6)

    def test_tc_four_mix_pinned_value(self):
        val = four_mix_coupling_tc([0.1] * 4, (4.0, 1.2, 3.0, 2.0), 6.0)
        assert val == pytest.approx(-3.18e-6, rel=1e-2)

    def test_tc_four_mix_zero_on_resonance_and_zero_coupling(self):
        assert four_mix_coupling_tc([0.1] * 4, (4.0, 1.0, 3.0, 2.0), 6.0) == 0.0
        assert four_mix_coupling_tc([0.1, 0.0, 0.1, 0.1], (4.0, 1.2, 3.0, 2.0), 6.0) == 0.0

    def test_rabi_four_mix_zero_on_resonance_and_zero_coupling(self):
        assert four_mix_coupling_rabi([0.1] * 4, (4.0, 1.0, 3.0, 2.0), 6.0) == 0.0
        assert four_mix_coupling_rabi([0.0, 0.1, 0.1, 0.1], (4.0, 1.2, 3.0, 2.0), 6.0) == 0.0

    def test_four_mix_pole_rejected(self):
        with pytest.raises(ResonantParameterError):
            four_mix_coupling_tc([0.1] * 4, (4.0, 1.2, 4.0, 2.0), 6.0)  # D13 = 0

    @pytest.mark.parametrize("omegas,omega_c", [
        ((4.0, 1.2, 3.0, 2.0), 6.0),
        ((2.0, 1.05, 1.5, 1.35), 3.0),
        ((1.5, 0.5, 1.0, 0.85), 2.6),
    ])
    def test_four_mix_forms_match_enumerators(self, omegas, omega_c):
        lams = [0.1] * 4
        eps = abs(omegas[0] + omegas[1] - omegas[2] - omegas[3]) * 1.2
        cfg = four_qubit(lams, omegas, omega_c)
        rep_tc = effective_coupling(cfg, ("eegg", 0), ("ggee", 0), order=4,
                                    model="tc", epsilon=eps)
        rep_rabi = effective_coupling(cfg, ("eegg", 0), ("ggee", 0), order=4,
                                      model="dicke", epsilon=eps)
        tc = four_mix_coupling_tc(lams, omegas, omega_c)
        rabi = four_mix_coupling_rabi(lams, omegas, omega_c)
        assert abs(rep_tc.total - tc) <= 1e-10 * abs(tc)
        assert abs(rep_rabi.total - rabi) <= 1e-10 * abs(rabi)

    def test_tc_cancellation_on_resonance(self):
        cfg = four_qubit([0.1] * 4, (4.0, 1.0, 3.0, 2.0), 6.0)
        rep = effective_coupling(cfg, ("eegg", 0), ("ggee", 0), order=4, model="tc")
        assert abs(rep.total) <= 1e-12 * 0.1**4


class TestEnumeratorContracts:
    def test_paths_sorted_lexicographically(self):
        rep = effective_coupling(symmetric_three(), ("gge", 0), ("eeg", 0), order=4)
        seqs = [p.states for p in rep.paths]
        assert seqs == sorted(seqs)

    def test_diagram_partition_is_exact(self):
        rep = effective_coupling(symmetric_three(), ("gge", 0), ("eeg", 0), order=4)
        total = 0.0
        for diagram in rep.per_diagram:
            subtotal = 0.0
            for p in rep.paths:
                if p.diagram == diagram:
                    subtotal += p.amplitude
            assert subtotal == rep.per_diagram[diagram]
            total += rep.per_diagram[diagram]
        assert total == rep.total

    def test_total_matches_path_sum(self):
        rep = effective_coupling(symmetric_three(), ("gge", 0), ("eeg", 0), order=4)
        assert rep.total == pytest.approx(sum(p.amplitude for p in rep.paths), rel=1e-12)

    def test_amplitudes_real(self):
        rep = effective_coupling(symmetric_three(), ("gge", 0), ("eeg", 0), order=4)
        assert all(isinstance(p.amplitude, float) for p in rep.paths)

    def test_non_resonant_pair_rejected(self):
        cfg = symmetric_three()
        with pytest.raises(NonResonantPairError):
            effective_coupling(cfg, ("gge", 0), ("egg", 0), order=4)

    def test_degenerate_intermediate_raises(self):
        # cavity exactly at the third qubit's transition puts |g,g,g,1> on
        # resonance with the initial state
        cfg = symmetric_three(omega_c=1.0)
        with pytest.raises(DegenerateIntermediateError) as err:
            effective_coupling(cfg, ("gge", 0), ("eeg", 0), order=4)
        assert "ggg:1" in str(err.value)

    def test_order_validation(self):
        cfg = symmetric_three()
        with pytest.raises(ConfigError):
            effective_coupling(cfg, ("gge", 0), ("eeg", 0), order=5)

    @pytest.mark.parametrize("epsilon", [-1.0, -1e-300, math.nan])
    def test_epsilon_is_non_negative(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon must be non-negative"):
            effective_coupling(symmetric_three(), ("gge", 0), ("eeg", 0), 4, epsilon=epsilon)

    def test_endpoints_never_intermediates(self):
        rep = effective_coupling(symmetric_three(), ("gge", 0), ("eeg", 0), order=4)
        for p in rep.paths:
            assert rep.initial not in p.states[1:-1]
            assert rep.final not in p.states[1:-1]

    def test_angle_proportionality(self):
        # total coupling scales as sin(t) cos^3(t); ratio constant to 1e-8
        thetas = [0.15, 0.3, PI6, 0.7, 1.0]
        ratios = []
        for theta in thetas:
            rep = effective_coupling(symmetric_three(theta=theta),
                                     ("gge", 0), ("eeg", 0), order=4)
            ratios.append(rep.total / (math.sin(theta) * math.cos(theta) ** 3))
        spread = (max(ratios) - min(ratios)) / abs(ratios[0])
        assert spread < 1e-8


class TestDetuningTable:
    @given(
        omegas=st.lists(st.floats(0.1, 5.0), min_size=4, max_size=4),
        omega_c=st.floats(0.1, 8.0),
        a=st.integers(1, 4),
        b=st.integers(1, 4),
    )
    @settings(max_examples=60)
    def test_antisymmetry_and_symmetry(self, omegas, omega_c, a, b):
        table = DetuningTable(tuple(omegas), (0.1,) * 4, omega_c)
        assert table.d(a, b) == -table.d(b, a)
        assert table.s(a, b) == table.s(b, a)

    def test_cavity_detuning_and_coupling_product(self):
        table = DetuningTable((1.0, 2.0, 3.0), (0.1, 0.2, 0.3), 1.5)
        assert table.d("c", 1) == 0.5
        assert table.coupling_product == pytest.approx(0.006)
        with pytest.raises(ConfigError):
            DetuningTable((1.0, 2.0), (0.1, 0.2, 0.3), 1.5)
