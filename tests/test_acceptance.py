"""Acceptance suite: one test per headline claim, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines while the suite executes.  Each test prints its verdict before
asserting, so failures still report their measured numbers.
"""

import math

import numpy as np

from distribution_gate import (GATE_ALPHA, count_p_value, fidelity_sigma,
                               wald_sigma)
from qmemsim.bounds import (build_ledger, decode_budget, feasibility_search,
                            information_decay_time)
from qmemsim.clock import (ClockParams, good_prob_bound, is_good,
                           max_time_error, sample_trajectory,
                           sample_trajectory_checkpointed, time_error_bound)
from qmemsim.fivequbit import b_exact, b_monte_carlo, quadratic_bound_range
from qmemsim.oracle import information_flow, oracle_equivalence_check
from qmemsim.protocols import (ProtocolParams, exact_majority_failure,
                               lifetime_scan, repetition_lifetime,
                               simulate_circuit_model,
                               simulate_classical_repetition,
                               simulate_clock_controlled, simulate_unprotected,
                               with_sized_clock)


def report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_unprotected_lifetime():
    # fidelity at t = ln 3 / r is 2/3 within 3 sigma at 1e5 trials
    t_star = math.log(3.0)
    params = ProtocolParams(rate_r=1.0, levels=0)
    est = simulate_unprotected(t_star, params, 100_000,
                               np.random.default_rng(101))
    fid_ok = abs(est.avg_fidelity - 2.0 / 3.0) <= 3.0 * fidelity_sigma(est)
    # lifetime is ln 3 / r up to sampling error, independent of N
    scan = lifetime_scan("unprotected", params, 2.0 / 3.0, 30_000,
                         np.random.default_rng(102))
    sizes = [n for n, _ in scan.points]
    lives = [life for _, life in scan.points]
    lives_ok = all(abs(life - t_star) <= 0.07 for life in lives)
    flat_ok = sizes == [1, 5, 125] and max(lives) - min(lives) <= 0.1
    report(1, fid_ok and lives_ok and flat_ok,
           f"fid(ln3)={est.avg_fidelity:.4f} (3sigma={3 * fidelity_sigma(est):.4f}), "
           f"lifetimes={[round(x, 3) for x in lives]} vs ln3={t_star:.3f} "
           f"at N={sizes}")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    gen = np.random.default_rng(103)
    for n in (1, 2, 3):
        for t in (0.5, 1.0, 2.0):
            worst = max(worst, oracle_equivalence_check(n, 1.0, t,
                                                        1_000_000, gen))
    ok = worst <= 5e-3
    report(2, ok, f"max MC-vs-integrator distance {worst:.2e} over "
                  f"n=1..3, t in (0.5, 1, 2) at 1e6 trials (limit 5e-3)")


def test_criterion_3_block_error_quadratic():
    ratio = b_exact(1e-3) / 1e-6
    ratio_ok = 9.9 <= ratio <= 10.0
    p_max = quadratic_bound_range()
    grid = np.linspace(0.0, p_max, 400)
    bound_ok = all(b_exact(float(p)) <= 10.0 * p * p + 1e-12 for p in grid)
    gen = np.random.default_rng(104)
    covered = 0
    for p in np.linspace(0.001, 0.05, 20):
        est = b_monte_carlo(float(p), 50_000, gen)
        covered += est.ci_low <= b_exact(float(p)) <= est.ci_high
    mc_ok = covered == 20
    report(3, ratio_ok and bound_ok and mc_ok,
           f"b(1e-3)/p^2={ratio:.4f} in [9.9, 10.0], bound holds on "
           f"[0, {p_max}], MC CI covered {covered}/20 grid points")


def test_criterion_4_clock_theorem():
    params = ClockParams(n_bits=4096, epsilon=0.4, t_max=2.0, rate_r=1.0)
    bound = good_prob_bound(params)
    deficit_ok = 1e-40 < bound.deficit < 1e-37 and not bound.vacuous
    gen = np.random.default_rng(105)
    delta_half = time_error_bound(params)
    n_bad = 0
    worst_err = 0.0
    trials = 10_000
    for _ in range(trials):
        traj = sample_trajectory(params, 2.0, gen)
        if is_good(traj, params):
            worst_err = max(worst_err, max_time_error(traj, params))
        else:
            n_bad += 1
    sample_ok = n_bad == 0 and worst_err <= delta_half
    # larger register where the readout bound is non-trivial (~0.074)
    big = ClockParams(n_bits=100_000_000, epsilon=0.25, t_max=2.0, rate_r=1.0)
    big_half = time_error_bound(big)
    worst_big = 0.0
    n_bad_big = 0
    for _ in range(200):
        traj = sample_trajectory_checkpointed(big, 0.01, 2.0, gen)
        if is_good(traj, big):
            worst_big = max(worst_big, max_time_error(traj, big))
        else:
            n_bad_big += 1
    big_ok = n_bad_big == 0 and worst_big <= big_half
    report(4, deficit_ok and sample_ok and big_ok,
           f"bound deficit {bound.deficit:.2e}, non-good {n_bad}/{trials}, "
           f"max good-time error {worst_err:.3f} <= {delta_half:.3f}; "
           f"K=1e8: max error {worst_big:.4f} <= {big_half:.4f}")


def test_criterion_5_circuit_log_scaling():
    found = feasibility_search(rate_r=1.0)
    assert found is not None
    gen = np.random.default_rng(106)
    errs = []
    boundary_ok = True
    # logical faults pooled over the levels, against each level's exact
    # fault probability (the X, Z and Y entries of its exact channel)
    faults, binomials = 0, []
    for lev in (1, 2, 3, 4):
        params = ProtocolParams(rate_r=1.0, levels=lev, t_prot=found.t_prot,
                                p_star=found.p_star)
        est = simulate_circuit_model(params, 10_000, gen)
        errs.append(est.error_rate)
        boundary_ok = boundary_ok and est.error_rate <= found.p_star
        faults += est.trials - int(est.counts[0])
        binomials.append((est.trials, float(est.exact[1:].sum())))
    expected = sum(n * p for n, p in binomials)
    exact_p = count_p_value(faults, binomials)
    scan_params = ProtocolParams(rate_r=1.0, levels=4, t_prot=found.t_prot,
                                 p_star=found.p_star)
    scan = lifetime_scan("circuit", scan_params, 2.0 / 3.0, 2_000,
                         np.random.default_rng(107), levels_list=(1, 2, 3, 4))
    slope_ok = abs(scan.slope - found.t_prot) / found.t_prot <= 0.10
    report(5, boundary_ok and slope_ok and exact_p >= GATE_ALPHA,
           f"round-boundary errors {[f'{e:.1e}' for e in errs]} all <= "
           f"p*={found.p_star}, {faults} faults against {expected:.2f} "
           f"exact (two-sided tail {exact_p:.2g}), lifetime slope "
           f"{scan.slope:.5f} vs t_prot={found.t_prot} (10% allowed)")


def test_criterion_5_exact_count_with_power():
    # criterion 5's exact count expects about 6 faults; this point, at the
    # same searched constants and 4 levels, expects 150.0 faults in 1e6
    # trials, against 349.4 under the exact law at 1.5 times the noise
    # rate (about 16 sigma away)
    found = feasibility_search(rate_r=1.0)
    params = ProtocolParams(rate_r=1.0, levels=4, t_prot=found.t_prot,
                            p_star=found.p_star)
    est = simulate_circuit_model(params, 1_000_000, np.random.default_rng(112))
    faults = est.trials - int(est.counts[0])
    weight = float(est.exact[1:].sum())
    exact_p = count_p_value(faults, [(est.trials, weight)])
    report(5, exact_p >= GATE_ALPHA,
           f"{faults} faults in {est.trials} trials against "
           f"{est.trials * weight:.1f} exact (two-sided tail {exact_p:.2g})")


SCALED = ProtocolParams(rate_r=1.0, levels=2, p_star=0.03, t_prot=0.006,
                        t_dec=0.0015, delta=1.4e-4, epsilon=0.01)


def test_criterion_6_clock_controlled_protocol():
    sized = with_sized_clock(SCALED)
    trials = 600
    est, diag = simulate_clock_controlled(SCALED, trials,
                                          np.random.default_rng(108),
                                          return_diagnostics=True)
    circ = simulate_circuit_model(SCALED, 10_000, np.random.default_rng(109))
    budget = decode_budget(SCALED.h_norm, SCALED.delta, SCALED.t_dec,
                           SCALED.rate_r)
    sigma = math.sqrt(wald_sigma(est)[0] ** 2 + wald_sigma(circ)[0] ** 2)
    err_ok = est.error_rate <= circ.error_rate + budget + 3.0 * sigma
    pstar_ok = est.error_rate <= SCALED.p_star
    good = diag.good & ~diag.aborted
    order_ok = (not np.any(diag.aborted & diag.good)
                and bool(np.all(np.diff(diag.decode_times[good], axis=1) > 0)))
    # pass-2 counts against each trial's exact channel given its clock
    # record (one Bernoulli trial each): the pooled faults, then each class
    counts = {"faults": (trials - int(est.counts[0]),
                         diag.channels[:, 1:].sum(axis=1))}
    for code, label in ((1, "X"), (2, "Z"), (3, "Y")):
        counts[label] = (int(est.counts[code]), diag.channels[:, code])
    tails = {label: count_p_value(n, [(1, p) for p in probs])
             for label, (n, probs) in counts.items()}
    exact_ok = min(tails.values()) >= GATE_ALPHA
    versus = ", ".join(f"{label} {n}/{probs.sum():.2f}"
                       for label, (n, probs) in counts.items())
    report(6, err_ok and pstar_ok and order_ok and exact_ok,
           f"clock error {est.error_rate:.2e} <= circuit {circ.error_rate:.2e} "
           f"+ decode budget {budget:.2e} + 3sigma, <= p*={SCALED.p_star}; "
           f"counts/exact {versus}, smallest two-sided tail "
           f"{min(tails.values()):.2g}; "
           f"K={sized.clock_bits}, good ordering in {int(good.sum())}/{trials} "
           f"good trials, {est.decode_failures} aborts")


def test_criterion_7_ledger_verdict():
    led = build_ledger(rate_r=1.0, p_star=0.025)
    # documented finding: the strict inequality fails at round 2
    verdict_ok = (led.verdict_holds is False
                  and led.point.trace.first_violation == 2)
    found = feasibility_search(rate_r=1.0)
    search_ok = found is not None and found.margin >= 0.10
    report(7, verdict_ok and search_ok,
           f"reference constants verdict holds={led.verdict_holds} "
           f"(first violation at round {led.point.trace.first_violation}); "
           f"search found margin {found.margin:.1%} >= 10%")


def test_criterion_8_classical_repetition():
    est = simulate_classical_repetition(101, 2.0, 100_000,
                                        np.random.default_rng(110))
    exact = exact_majority_failure(101, 2.0)
    sigma = math.sqrt(exact * (1.0 - exact) / est.trials)
    mc_ok = abs(est.failure_rate - exact) <= 3.0 * sigma
    ns = (11, 101, 1001, 10001)
    lives = [repetition_lifetime(n, 1.0, failure_floor=0.1) for n in ns]
    slope, _ = np.polyfit(np.log(ns), lives, 1)
    slope_ok = abs(slope - 0.5) / 0.5 <= 0.15
    report(8, mc_ok and slope_ok,
           f"failure {est.failure_rate:.4f} vs exact {exact:.4f} "
           f"(3sigma={3 * sigma:.4f}); lifetime slope {slope:.4f} vs "
           f"1/(2r)=0.5 (15% allowed)")


def test_criterion_9_information_decay():
    gen = np.random.default_rng(111)
    worst_gap = -math.inf
    for _ in range(20):
        g = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        rho0 = g @ g.conj().T
        rho0 /= np.trace(rho0).real
        _, info, didt = information_flow(rho0, 1.0, 0.4, dt=1e-3)
        gaps = didt[1:-1] + info[1:-1]  # must stay <= tolerance
        worst_gap = max(worst_gap, float(gaps.max()))
    decay_ok = worst_gap <= 1e-6
    t_dead = information_decay_time(8, 1.0)
    time_ok = t_dead == math.log(16.0)
    report(9, decay_ok and time_ok,
           f"max (dI/dt + r I) = {worst_gap:.2e} <= 1e-6 over 20 random "
           f"2-qubit trajectories; decay time ln16 exact: {time_ok}")
