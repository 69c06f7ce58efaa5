import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vpmix import (
    ConfigError,
    DegenerateIntermediateError,
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


# The closed forms as they were before the pole rule moved onto the terms of
# each factor, kept as the oracle for the arithmetic.  Their pole guard is
# left out: the property test below stays away from every pole.
@dataclass(frozen=True)
class OracleDetuningTable:
    omegas: tuple
    lambdas: tuple
    omega_c: float

    def w(self, a):
        return self.omega_c if a == "c" else self.omegas[int(a) - 1]

    def d(self, a, b):
        return self.w(a) - self.w(b)

    def s(self, a, b):
        return self.w(a) + self.w(b)

    @property
    def coupling_product(self):
        return float(np.prod(self.lambdas))


def oracle_three_mix(lam, omega3, omega_c, theta):
    num = (64.0 * lam**4 * omega_c**2 * (4.0 * omega_c**2 - 7.0 * omega3**2)
           * math.sin(theta) * math.cos(theta) ** 3)
    den = omega3 * (omega3**2 - omega_c**2) * (omega3**2 - 4.0 * omega_c**2) ** 2
    return num / den


def oracle_four_mix_tc(lambdas, omegas, omega_c):
    t = OracleDetuningTable(tuple(map(float, omegas)), tuple(map(float, lambdas)), omega_c)
    d13, d23, d14, d24, d1c, d2c = (t.d(1, 3), t.d(2, 3), t.d(1, 4), t.d(2, 4),
                                    t.d(1, "c"), t.d(2, "c"))
    num = t.coupling_product * (d13 + d24) * (d13 * d24 + d14 * d23)
    return num / (d13 * d23 * d14 * d24 * d1c * d2c)


def oracle_four_mix_rabi(lambdas, omegas, omega_c):
    t = OracleDetuningTable(tuple(map(float, omegas)), tuple(map(float, lambdas)), omega_c)
    wc = omega_c
    o12, o34 = t.s(1, 2), t.s(3, 4)
    p12 = t.w(1) * t.w(2)
    p34 = t.w(3) * t.w(4)
    d13, d14, d23, d24 = t.d(1, 3), t.d(1, 4), t.d(2, 3), t.d(2, 4)
    den_factors = [o12, o34, t.s("c", 3), t.s("c", 4), d13, d14, d23, d24,
                   t.d("c", 1), t.d("c", 2)]
    q = (p12**2 + p34**2 - 3.0 * p12 * p34 + (o12**2 + p12) * (o34**2 + p34)
         - 3.0 * o12 * o34 * (p12 + p34))
    num = 3.0 * o12 * o34 * d13 * d14 * d23 * d24 + 2.0 * wc * (o12 - o34 - 2.0 * wc) * q
    den = 1.0
    for value in den_factors:
        den *= value
    return t.coupling_product * (o12 - o34) * num / den


def clear_of_poles(*terms):
    """Every factor a - b lies at least 1e-9 (relative to its terms) from zero."""
    return all(abs(a - b) >= 1e-9 * max(abs(a), abs(b)) for a, b in terms)


frequency = st.builds(lambda m, sign: sign * m, st.floats(1e-3, 1e3), st.sampled_from((1, -1)))
coupling = st.floats(0.0, 1.0)


class TestClosedFormsMatchOracle:
    @given(lam=coupling, omega3=frequency, omega_c=frequency, theta=st.floats(-4.0, 4.0))
    @settings(max_examples=400)
    def test_three_mix(self, lam, omega3, omega_c, theta):
        assume(clear_of_poles((omega3, 0.0), (omega3**2, omega_c**2),
                              (omega3**2, 4.0 * omega_c**2)))
        assert (three_mix_coupling(lam, omega3, omega_c, theta).hex()
                == oracle_three_mix(lam, omega3, omega_c, theta).hex())

    @given(lambdas=st.lists(coupling, min_size=4, max_size=4),
           omegas=st.lists(frequency, min_size=4, max_size=4), omega_c=frequency)
    @settings(max_examples=400)
    def test_four_mix(self, lambdas, omegas, omega_c):
        w1, w2, w3, w4 = omegas
        tc_terms = [(w1, w3), (w2, w3), (w1, w4), (w2, w4), (w1, omega_c), (w2, omega_c)]
        if clear_of_poles(*tc_terms):
            assert (four_mix_coupling_tc(lambdas, omegas, omega_c).hex()
                    == oracle_four_mix_tc(lambdas, omegas, omega_c).hex())
        rabi_terms = tc_terms + [(w1, -w2), (w3, -w4), (omega_c, -w3), (omega_c, -w4)]
        if clear_of_poles(*rabi_terms):
            assert (four_mix_coupling_rabi(lambdas, omegas, omega_c).hex()
                    == oracle_four_mix_rabi(lambdas, omegas, omega_c).hex())


def near_pole_cases():
    """(closed form of a frequency scale s, whether it should raise)."""
    def tc(offset, form=four_mix_coupling_tc):
        # omega3 sits a relative offset above omega1: D13 is nearly zero
        omegas = (4.0, 1.2, 4.0 * (1.0 + offset), 2.0)
        return lambda s: form([0.1] * 4, [w * s for w in omegas], 6.0 * s)

    def three(omega3, omega_c):
        return lambda s: three_mix_coupling(0.1, omega3 * s, omega_c * s, PI6)

    def dispersive(omega):
        return lambda s: dispersive_pair_coupling(SystemConfig(
            (QubitParams(omega * s, 0.01), QubitParams(0.5 * s, 0.01)), omega_c=s,
            fock_cutoff=2), 1, 2)

    return [
        pytest.param(tc(2e-14), True, id="tc-D13-2e-14"),
        pytest.param(tc(4e-12), False, id="tc-D13-4e-12"),
        pytest.param(tc(2e-14, four_mix_coupling_rabi), True, id="rabi-D13-2e-14"),
        pytest.param(tc(4e-12, four_mix_coupling_rabi), False, id="rabi-D13-4e-12"),
        pytest.param(three(1.0, 1.0 + 1e-13), True, id="three-cavity-1e-13"),
        pytest.param(three(1.0, 1.0 + 1e-11), False, id="three-cavity-1e-11"),
        pytest.param(three(0.0, 1.25), True, id="three-omega3-zero"),
        pytest.param(dispersive(1.0 + 1e-15), True, id="dispersive-1e-15"),
        pytest.param(dispersive(1.0 + 1e-11), False, id="dispersive-1e-11"),
    ]


@pytest.mark.parametrize("form, raises", near_pole_cases())
def test_pole_rule_ignores_the_frequency_scale(form, raises):
    def raised(s):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                form(s)
        except ResonantParameterError:
            return True
        return False

    assert [raised(2.0**k) for k in range(-8, 9)] == [raises] * 17


def test_every_denominator_factor_is_guarded():
    with pytest.raises(ResonantParameterError, match="omega3 ="):
        three_mix_coupling(0.1, 0.0, 1.25, 0.5)
    cfg = SystemConfig((QubitParams(1.0 + 1e-15, 0.01), QubitParams(0.5, 0.01)),
                       omega_c=1.0, fock_cutoff=2)
    with pytest.raises(ResonantParameterError, match="omega_1 - omega_c"):
        dispersive_pair_coupling(cfg, 1, 2)


def test_pole_error_names_its_factor():
    with pytest.raises(ResonantParameterError) as info:
        four_mix_coupling_tc([0.1] * 4, (4.0, 1.2, 4.0, 2.0), 6.0)
    assert "D13" in str(info.value)
    assert "cavity" not in str(info.value)
    with pytest.raises(ResonantParameterError, match="O34"):
        four_mix_coupling_rabi([0.1] * 4, (4.0, 1.2, 3.0, -3.0), 6.0)
