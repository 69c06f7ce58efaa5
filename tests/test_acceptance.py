"""Acceptance suite: one test per stated criterion, each printing a PASS/FAIL
line with the measured values (run with ``pytest -s`` to see them live)."""

import json
import math

import numpy as np
import pytest

from vpmix import (
    Ket,
    QubitParams,
    SystemConfig,
    bare_state,
    build_dissipators,
    build_dressed_lowering,
    build_generalized_dicke,
    diagonalize,
    effective_coupling,
    evolve,
    expectation,
    find_anticrossing,
    four_mix_coupling_rabi,
    four_mix_coupling_tc,
    set_parameter,
    state_fidelity,
    superposition_states,
    three_mix_coupling,
)
from vpmix.circuits import register_state, repetition_encode, run_ecc
from vpmix.cli import main as cli_main
from vpmix.spectrum import coupling_sign

PI6 = math.pi / 6


def check(criterion: str, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {status}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def symmetric_three(lam, omega_c, theta=PI6, cutoff=8, gamma=0.0):
    return SystemConfig(
        (QubitParams(0.5, lam, theta, gamma), QubitParams(0.5, lam, theta, gamma),
         QubitParams(1.0, lam, theta, gamma)),
        omega_c=omega_c,
        fock_cutoff=cutoff,
    )


@pytest.fixture(scope="module")
def three_mix(fig1b_preset):
    report = find_anticrossing(fig1b_preset, "qubits[2].omega", (0.90, 1.02),
                               (("gge", 0), ("eeg", 0)))
    lay = fig1b_preset.layout
    u_idx, v_idx = lay.bare_index("gge", 0), lay.bare_index("eeg", 0)
    u_dressed, v_dressed = superposition_states(report)
    sign = coupling_sign(report)
    return {
        "config": fig1b_preset, "report": report, "spectrum": report.spectrum,
        "u_idx": u_idx, "v_idx": v_idx, "u": u_dressed, "v": v_dressed, "sign": sign,
    }


@pytest.fixture(scope="module")
def fig3_run(three_mix):
    cfg = three_mix["config"]
    spectrum = three_mix["spectrum"]
    overrides = {three_mix["u_idx"]: three_mix["u"], three_mix["v_idx"]: three_mix["v"]}
    lowering = {i: build_dressed_lowering(spectrum, i, overrides, on_ambiguous="skip")
                for i in (1, 2, 3)}
    half_j = three_mix["report"].splitting / 2.0
    t_half = math.pi / (2.0 * half_j)
    grid = np.linspace(0.0, 1.3 * t_half, 700)
    dissipators = build_dissipators(spectrum, cfg)
    series = evolve(three_mix["u"], spectrum, dissipators, grid)
    photon_proj = bare_state(cfg.layout, "ggg", 1).projector()
    s1, s2 = lowering[1], lowering[2]
    return {
        "grid": grid,
        "t_half": t_half,
        "half_j": half_j,
        "P1": np.array([expectation(r, [s1.dag(), s1]) for r in series.states]),
        "C12": np.array([expectation(r, [s1.dag(), s2.dag(), s2, s1])
                         for r in series.states]),
        "photon": np.array([expectation(r, [photon_proj]) for r in series.states]),
        "series": series,
    }


@pytest.fixture(scope="module")
def exchange_reports(four_qubit_exchange):
    pair = (("egge", 0), ("geeg", 0))
    dicke = find_anticrossing(four_qubit_exchange, "qubits[0].omega", (0.2, 0.3), pair)
    tc = find_anticrossing(four_qubit_exchange, "qubits[0].omega", (0.2, 0.3), pair,
                           model="tc", tol=1e-12)
    return {"dicke": dicke, "tc": tc}


@pytest.fixture(scope="module")
def cascade_report(four_qubit_cascade):
    return find_anticrossing(four_qubit_cascade, "qubits[0].omega", (1.60, 1.69),
                             (("eggg", 0), ("geee", 0)))


def test_criterion_01_path_counts():
    cfg3 = symmetric_three(0.1, 1.25)
    rep3 = effective_coupling(cfg3, ("gge", 0), ("eeg", 0), order=4)
    cfg4 = SystemConfig(
        tuple(QubitParams(w, 0.1) for w in (4.0, 1.0, 3.0, 2.0)),
        omega_c=6.0, fock_cutoff=8,
    )
    rep4 = effective_coupling(cfg4, ("eegg", 0), ("ggee", 0), order=4, model="tc")
    check("1", "fourth-order path counts are exactly 48 (three-mix) and 8 (TC four-mix)",
          rep3.path_count == 48 and rep4.path_count == 8,
          f"counts {rep3.path_count}, {rep4.path_count}")


def test_criterion_02_closed_form_zero_and_sign_change():
    magic = math.sqrt(7.0) / 2.0
    at_zero = three_mix_coupling(0.1, 1.0, magic, PI6)
    reference = three_mix_coupling(0.1, 1.0, 1.25, PI6)
    below = effective_coupling(symmetric_three(0.1, magic - 1e-3),
                               ("gge", 0), ("eeg", 0), order=4).total
    above = effective_coupling(symmetric_three(0.1, magic + 1e-3),
                               ("gge", 0), ("eeg", 0), order=4).total
    ok = abs(at_zero) < 1e-12 * abs(reference) and below * above < 0
    check("2", "coupling vanishes at omega_c = sqrt(7)/2 and the path sum changes sign",
          ok, f"|J(magic)| = {abs(at_zero):.2e}, neighbors {below:.3e} / {above:.3e}")


def test_criterion_03_angle_optimum():
    thetas = np.arange(1e-4, math.pi / 2, 1e-4)
    values = np.abs([three_mix_coupling(0.1, 1.0, 1.25, t) for t in thetas])
    best = thetas[int(np.argmax(values))]
    check("3", "|coupling| is maximal at theta = pi/6 within 1e-4",
          abs(best - math.pi / 6) <= 1e-4, f"argmax {best:.6f} vs {math.pi / 6:.6f}")


def test_criterion_04_oracle_equivalence():
    worst = 0.0
    for lam, omega_c, theta in ((0.1, 1.25, PI6), (0.08, 0.8, math.pi / 5),
                                (0.12, 1.6, math.pi / 7)):
        cfg = SystemConfig(
            (QubitParams(0.5, lam, theta), QubitParams(0.5, lam, theta),
             QubitParams(1.0, lam, theta)),
            omega_c=omega_c, fock_cutoff=8,
        )
        enum = effective_coupling(cfg, ("gge", 0), ("eeg", 0), order=4).total
        closed = three_mix_coupling(lam, 1.0, omega_c, theta)
        worst = max(worst, abs(enum - closed) / abs(closed))
    for omegas, omega_c in (((4.0, 1.2, 3.0, 2.0), 6.0),
                            ((2.0, 1.05, 1.5, 1.35), 3.0),
                            ((1.5, 0.5, 1.0, 0.85), 2.6)):
        lams = [0.1] * 4
        eps = abs(omegas[0] + omegas[1] - omegas[2] - omegas[3]) * 1.2
        cfg = SystemConfig(
            tuple(QubitParams(w, 0.1) for w in omegas), omega_c=omega_c, fock_cutoff=8,
        )
        enum_tc = effective_coupling(cfg, ("eegg", 0), ("ggee", 0), order=4,
                                     model="tc", epsilon=eps).total
        enum_rabi = effective_coupling(cfg, ("eegg", 0), ("ggee", 0), order=4,
                                       model="dicke", epsilon=eps).total
        worst = max(worst, abs(enum_tc - four_mix_coupling_tc(lams, omegas, omega_c))
                    / abs(enum_tc))
        worst = max(worst, abs(enum_rabi - four_mix_coupling_rabi(lams, omegas, omega_c))
                    / abs(enum_rabi))
    check("4", "closed forms match the path enumerator to 1e-10 at three points each",
          worst <= 1e-10, f"worst relative deviation {worst:.2e}")


def test_criterion_05_tc_cancellation_vs_transverse_splitting(exchange_reports):
    cfg = SystemConfig(
        tuple(QubitParams(w, 0.1) for w in (4.0, 1.0, 3.0, 2.0)),
        omega_c=6.0, fock_cutoff=8,
    )
    resonant_total = effective_coupling(cfg, ("eegg", 0), ("ggee", 0), order=4,
                                        model="tc").total
    lam4 = 0.1**4
    dicke_split = exchange_reports["dicke"].splitting
    tc_gap = exchange_reports["tc"].splitting
    ok = (abs(resonant_total) <= 1e-12 * lam4
          and 1e-4 < dicke_split < 1e-2
          and tc_gap < 1e-10)
    check("5", "TC coupling cancels on resonance; only the full model splits",
          ok, f"|sum| = {abs(resonant_total):.2e}, splitting {dicke_split:.3e}, "
              f"TC gap {tc_gap:.2e}")


@pytest.mark.parametrize("lam", [0.05, 0.10])
def test_criterion_06_paths_vs_diagonalization(lam):
    omega_c = 1.0 + 2.5 * lam
    cfg = symmetric_three(lam, omega_c)
    report = find_anticrossing(cfg, "qubits[2].omega", (0.9, 1.06),
                               (("gge", 0), ("eeg", 0)))
    total = effective_coupling(cfg, ("gge", 0), ("eeg", 0), order=4).total
    ratio = 2.0 * abs(total) / report.splitting
    check("6", f"2|coupling| matches the splitting within 10% at lam = {lam}",
          abs(ratio - 1.0) <= 0.10, f"ratio {ratio:.4f}")


def test_criterion_07a_three_mix_location(three_mix):
    # Stated tolerance: minimum within 0.01 of omega_1 + omega_2 = 1.0.  The
    # dressed pair level sits ~3% below the bare sum at these couplings (the
    # benchmark's own level anchors put it near 0.97), so this criterion is
    # not attainable by a faithful implementation; see the decisions ledger.
    location = three_mix["report"].location
    check("7a", "three-mix minimum within 0.01 of the bare sum 1.0",
          abs(location - 1.0) <= 0.01, f"location {location:.6f}")


def test_criterion_07b_cascade_location(cascade_report):
    check("7b", "cascade four-mix minimum at 1.6448 +- 0.005",
          abs(cascade_report.location - 1.6448) <= 0.005,
          f"location {cascade_report.location:.6f}")


def test_criterion_08_dynamics(fig3_run):
    grid, t_half = fig3_run["grid"], fig3_run["t_half"]
    p1, c12, photon = fig3_run["P1"], fig3_run["C12"], fig3_run["photon"]
    t_peak = grid[int(np.argmax(p1))]
    ok_a = abs(t_peak - t_half) / t_half <= 0.05
    check("8a", "first transfer maximum at pi/(2J) +- 5%",
          ok_a, f"t_peak/t_half = {t_peak / t_half:.4f}")
    peak_photon = float(np.max(photon))
    ok_b = 0.75e-2 <= peak_photon <= 2.25e-2
    check("8b", "peak real-photon population in [0.75e-2, 2.25e-2]",
          ok_b, f"peak {peak_photon:.4e}")
    quarter = grid <= t_half / 2.0
    gap = float(np.max(np.abs(c12[quarter] - p1[quarter])))
    check("8c", "pair correlation tracks the single-qubit excitation to < 0.05",
          gap < 0.05, f"max gap {gap:.4f}")


def test_criterion_09_ghz_generation(three_mix, exchange_reports, four_qubit_exchange):
    runs = []
    cfg3 = three_mix["config"]
    target3 = Ket((three_mix["u"].amp - 1j * three_mix["sign"] * three_mix["v"].amp)
                  / math.sqrt(2.0), cfg3.layout)
    half_j3 = three_mix["report"].splitting / 2.0
    grid3 = np.linspace(0.0, math.pi / (4.0 * half_j3), 200)
    lossless3 = evolve(three_mix["u"], three_mix["spectrum"], {}, grid3)
    runs.append(("three-mix", state_fidelity(lossless3.states[-1], target3)))

    rep4 = exchange_reports["dicke"]
    lay4 = four_qubit_exchange.layout
    u4, v4 = superposition_states(rep4)
    sign4 = coupling_sign(rep4)
    target4 = Ket((u4.amp - 1j * sign4 * v4.amp) / math.sqrt(2.0), lay4)
    half_j4 = rep4.splitting / 2.0
    grid4 = np.linspace(0.0, math.pi / (4.0 * half_j4), 200)
    lossless4 = evolve(u4, rep4.spectrum, {}, grid4)
    runs.append(("exchange four-mix", state_fidelity(lossless4.states[-1], target4)))

    ok = all(f > 0.99 for _, f in runs)
    check("9", "lossless runs reach the entangled target with fidelity > 0.99",
          ok, ", ".join(f"{name} {f:.6f}" for name, f in runs))


def test_criterion_10_error_correction(rng):
    worst = 1.0
    for implementation in ("cnot", "mix"):
        for mode, errors in (("bitflip", [None, ("x", 1), ("x", 2), ("x", 3)]),
                             ("phaseflip", [("z", 1), ("z", 2), ("z", 3)])):
            for error in errors:
                for _ in range(10):
                    v = rng.normal(size=2) + 1j * rng.normal(size=2)
                    v /= np.linalg.norm(v)
                    report = run_ecc(v[0], v[1], error, mode, implementation)
                    worst = min(worst, report.fidelity)
    rep_dev = 0.0
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        state, _ = repetition_encode(register_state(v, 1), 3, "mix")
        expected = np.zeros(16, dtype=complex)
        expected[0b0000], expected[0b0111] = v[0], v[1]
        rep_dev = max(rep_dev, float(np.max(np.abs(state.amp - expected))))
    ok = worst >= 1.0 - 1e-10 and rep_dev == 0.0
    check("10", "all single flips corrected at fidelity 1; repetition identity exact",
          ok, f"worst fidelity {worst:.12f}, encoder deviation {rep_dev:.1e}")


def test_criterion_11_numerical_hygiene(fig1b_preset, four_qubit_cascade,
                                        three_mix, cascade_report, fig3_run, tmp_path):
    # spectra at two cutoffs
    probe = set_parameter(fig1b_preset, "qubits[2].omega", 0.7)
    e8 = diagonalize(build_generalized_dicke(probe)).energies[1:7]
    probe12 = SystemConfig(probe.qubits, omega_c=probe.omega_c, kappa=probe.kappa,
                           fock_cutoff=12)
    e12 = diagonalize(build_generalized_dicke(probe12)).energies[1:7]
    level_dev = float(np.max(np.abs(e8 - e12) / np.abs(e12)))

    # splittings at two cutoffs
    cfg12 = SystemConfig(fig1b_preset.qubits, omega_c=fig1b_preset.omega_c,
                         kappa=fig1b_preset.kappa, fock_cutoff=12)
    rep12 = find_anticrossing(cfg12, "qubits[2].omega", (0.90, 1.02),
                              (("gge", 0), ("eeg", 0)))
    split_dev_3 = abs(rep12.splitting - three_mix["report"].splitting) \
        / three_mix["report"].splitting
    cascade12 = SystemConfig(four_qubit_cascade.qubits,
                             omega_c=four_qubit_cascade.omega_c,
                             kappa=four_qubit_cascade.kappa, fock_cutoff=12)
    rep_c12 = find_anticrossing(cascade12, "qubits[0].omega", (1.60, 1.69),
                                (("eggg", 0), ("geee", 0)))
    split_dev_4 = abs(rep_c12.splitting - cascade_report.splitting) \
        / cascade_report.splitting
    ok_cutoff = max(level_dev, split_dev_3, split_dev_4) < 1e-6
    check("11a", "levels and splittings stable to < 1e-6 between cutoffs 8 and 12",
          ok_cutoff, f"max relative change {max(level_dev, split_dev_3, split_dev_4):.2e}")

    drift = max(abs(np.trace(s).real - 1.0) for s in fig3_run["series"].states)
    check("11b", "density-matrix trace drift below 1e-7 over the dynamics run",
          drift < 1e-7, f"drift {drift:.2e}")

    cfg_file = tmp_path / "fig1b.json"
    cfg_file.write_text(json.dumps({"scenario": "fig1b",
                                    "sweep": {"points": 40,
                                              "inset": {"points": 15}}}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["levels", "--config", str(cfg_file), "--out", str(out_a)]) == 0
    assert cli_main(["levels", "--config", str(cfg_file), "--out", str(out_b)]) == 0
    same_levels = ((out_a / "levels.csv").read_bytes() == (out_b / "levels.csv").read_bytes()
                   and (out_a / "levels_inset.csv").read_bytes()
                   == (out_b / "levels_inset.csv").read_bytes())

    dyn_file = tmp_path / "figS2b.json"
    dyn_file.write_text(json.dumps({"scenario": "figS2b", "dynamics": {"points": 120}}))
    out_c, out_d = tmp_path / "c", tmp_path / "d"
    assert cli_main(["dynamics", "--config", str(dyn_file), "--out", str(out_c)]) == 0
    assert cli_main(["dynamics", "--config", str(dyn_file), "--out", str(out_d)]) == 0
    same_dyn = (out_c / "dynamics.csv").read_bytes() == (out_d / "dynamics.csv").read_bytes()
    check("11c", "repeated runs produce byte-identical CSV outputs",
          same_levels and same_dyn,
          f"levels identical {same_levels}, dynamics identical {same_dyn}")
