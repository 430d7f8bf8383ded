"""Storage strategies: parameters, estimates, and the four simulators.

The two-round concatenated check uses an exact enumeration oracle built in
the test itself: single-block residual class probabilities are computed by
summing over all 1024 error strings, composed with fresh depolarizing noise
by XOR convolution, and pushed through the outer block the same way.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from qmemsim import protocols
from qmemsim.bounds import clock_size_for
from qmemsim.clock import ScheduleInfeasibleError, sample_trajectory
from qmemsim.fivequbit import BLOCK, b_exact, default_table, unpack
from qmemsim.protocols import (ClockRunDiagnostics, LogicalChannelEstimate,
                               ProtocolParams, estimate_logical_channel,
                               exact_majority_failure, lifetime_scan,
                               repetition_lifetime,
                               simulate_circuit_model,
                               simulate_classical_repetition,
                               simulate_clock_controlled, simulate_unprotected,
                               with_sized_clock, _kick_probability)

TWO_PI = 2.0 * math.pi

# small clock register the event sampler can afford, generous windows
UNIT = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.5, t_dec=0.3,
                      delta=0.02, epsilon=0.3, clock_bits=4096)


def depolarized_probs(q):
    """Per-site class probabilities (I, X, Z, Y) at error weight q."""
    return np.array([1.0 - q, q / 3.0, q / 3.0, q / 3.0])


def block_residual_probs(site_probs):
    """Exact residual class distribution of one block of iid sites."""
    table = default_table()
    codes = unpack(np.arange(4 ** BLOCK))
    string_probs = np.prod(np.asarray(site_probs)[codes], axis=1)
    out = np.zeros(4)
    np.add.at(out, table.residuals, string_probs)
    return out


def xor_convolve(a, b):
    """Composition of two Pauli channels: codes compose by XOR."""
    out = np.zeros(4)
    for i in range(4):
        for j in range(4):
            out[i ^ j] += a[i] * b[j]
    return out


# --- parameters --------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(rate_r=-1.0), dict(levels=-1), dict(p_star=0.0), dict(p_star=1.0),
    dict(t_prot=0.0), dict(t_dec=-0.1), dict(delta=-1e-9), dict(epsilon=0.5),
    dict(epsilon=0.0), dict(rate_r=0.0),
])
def test_params_validation(kwargs):
    base = dict(rate_r=1.0, levels=2, t_prot=0.01, t_dec=0.001)
    base.update(kwargs)
    with pytest.raises(ValueError):
        ProtocolParams(**base)


def test_h_norm_default_and_cap():
    # delta = 0: default is the drive bound itself
    p = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.01, t_dec=0.001)
    assert p.h_norm == pytest.approx(TWO_PI / 0.001, rel=1e-12)
    # small delta: budget term p*/(4 delta) exceeds the cap, cap wins
    q = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.01, t_dec=0.001,
                       delta=1e-9, p_star=0.01)
    assert q.h_norm == pytest.approx(TWO_PI / 0.001, rel=1e-12)
    # larger delta: the budget term is the binding constraint
    s = ProtocolParams(rate_r=1.0, levels=2, t_prot=0.006, t_dec=0.0015,
                       delta=1.4e-4, p_star=0.03)
    assert s.h_norm == pytest.approx(0.03 / (4.0 * 1.4e-4), rel=1e-12)
    assert s.h_norm < TWO_PI / 0.0015
    # explicit h_norm above the drive bound is rejected
    with pytest.raises(ValueError):
        ProtocolParams(rate_r=1.0, levels=1, t_prot=0.01, t_dec=0.001,
                       h_norm=2.0 * TWO_PI / 0.001)


def test_reference_relation_makes_cap_and_budget_coincide():
    # delta = p* t_dec / (8 pi)  <=>  p*/(4 delta) = 2 pi / t_dec
    t_dec, p_star = 0.00125, 0.025
    delta = p_star * t_dec / (8.0 * math.pi)
    p = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.025, t_dec=t_dec,
                       delta=delta, p_star=p_star)
    assert p.h_norm == pytest.approx(TWO_PI / t_dec, rel=1e-12)
    assert p.h_norm == pytest.approx(p_star / (4.0 * delta), rel=1e-12)


def test_schedule_geometry():
    p = ProtocolParams(rate_r=1.0, levels=3, t_prot=0.5, t_dec=0.3)
    assert p.n_qubits == 125
    assert p.level_time(1) == pytest.approx(0.5)
    assert p.level_time(2) == pytest.approx(1.3)
    assert p.schedule_end == pytest.approx(3 * 0.5 + 2 * 0.3 + 0.3)
    assert p.resolved_t_max() == pytest.approx(p.schedule_end)  # delta = 0
    explicit = ProtocolParams(rate_r=1.0, levels=3, t_prot=0.5, t_dec=0.3,
                              t_max=9.0)
    assert explicit.resolved_t_max() == 9.0


def test_with_sized_clock():
    assert with_sized_clock(UNIT) is UNIT  # explicit size passes through
    p = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.5, t_dec=0.3,
                       delta=0.02, epsilon=0.25)
    sized = with_sized_clock(p)
    assert sized.clock_bits == clock_size_for(p.resolved_t_max(), 1.0, 0.02,
                                              0.25)
    with pytest.raises(ValueError):
        with_sized_clock(ProtocolParams(rate_r=1.0, levels=1, t_prot=0.5,
                                        t_dec=0.3))


# --- channel estimates --------------------------------------------------------

def test_channel_estimate_identities():
    uniform = LogicalChannelEstimate(counts=np.array([25, 25, 25, 25]),
                                     trials=100)
    assert uniform.avg_fidelity == pytest.approx(0.5)
    assert uniform.error_rate == pytest.approx(0.75)
    assert np.allclose(uniform.p_hat, 0.25)
    assert uniform.fidelity_sigma == pytest.approx(
        2.0 * uniform.sigma()[0] / 3.0)
    perfect = LogicalChannelEstimate(counts=np.array([50, 0, 0, 0]), trials=50)
    assert perfect.avg_fidelity == 1.0 and perfect.error_rate == 0.0
    with pytest.raises(ValueError):
        LogicalChannelEstimate(counts=np.array([1, 0, 0, 0]), trials=2)


def test_estimate_logical_channel_tally():
    est = estimate_logical_channel(np.array([0, 0, 1, 3, 2, 0]))
    assert est.counts.tolist() == [3, 1, 1, 1]
    assert est.trials == 6
    # decode failures count as Y faults but stay visible
    est = estimate_logical_channel(np.array([0, 0]), decode_failures=2,
                                   bad_trajectories=1)
    assert est.counts.tolist() == [2, 0, 0, 2]
    assert est.trials == 4
    assert est.decode_failures == 2 and est.bad_trajectories == 1
    with pytest.raises(ValueError):
        estimate_logical_channel(np.array([], dtype=int))


# --- unprotected -------------------------------------------------------------

def test_unprotected_at_zero_time():
    p = ProtocolParams(rate_r=1.0, levels=0)
    est = simulate_unprotected(0.0, p, 500, np.random.default_rng(41))
    assert est.avg_fidelity == 1.0
    with pytest.raises(ValueError):
        simulate_unprotected(-1.0, p, 10, np.random.default_rng(1))


@pytest.mark.parametrize("levels", [0, 2])
def test_unprotected_matches_channel_formula(levels):
    # marginal fidelity (1 + e^{-rt})/2 regardless of spectator count
    p = ProtocolParams(rate_r=1.0, levels=levels)
    t = math.log(3.0)
    est = simulate_unprotected(t, p, 20_000, np.random.default_rng([42, levels]))
    expect = (1.0 + math.exp(-t)) / 2.0
    assert abs(est.avg_fidelity - expect) < 4.0 * est.fidelity_sigma
    # X, Z, Y classes are exchangeable for depolarizing noise
    assert est.counts[1:].std() < 3.0 * math.sqrt(est.counts[1:].mean())


# --- classical repetition ----------------------------------------------------

def test_repetition_validation():
    with pytest.raises(ValueError):
        simulate_classical_repetition(10, 1.0, 100, np.random.default_rng(1))
    with pytest.raises(ValueError):
        simulate_classical_repetition(11, 1.0, 0, np.random.default_rng(1))
    with pytest.raises(ValueError):
        exact_majority_failure(4, 1.0)
    with pytest.raises(ValueError):
        repetition_lifetime(11, failure_floor=0.5)
    with pytest.raises(ValueError):
        repetition_lifetime(11, failure_floor=0.0)


def test_exact_majority_failure_frozen():
    assert exact_majority_failure(101, 2.0) == pytest.approx(
        0.08537707513776142, rel=1e-12)
    # n = 1 reduces to the single-bit flip probability
    assert exact_majority_failure(1, 0.7) == pytest.approx(
        (1.0 - math.exp(-0.7)) / 2.0, rel=1e-12)
    assert exact_majority_failure(101, 0.0) == 0.0


def exact_tail_reference(n_bits, t):
    """P[Binomial(n, q) > n/2] in exact rational arithmetic at the float q."""
    q = Fraction((1.0 - math.exp(-t)) / 2.0)
    a, b = q.numerator, q.denominator
    tail = sum(math.comb(n_bits, k) * a ** k * (b - a) ** (n_bits - k)
               for k in range(n_bits // 2 + 1, n_bits + 1))
    return float(Fraction(tail, b ** n_bits))


@pytest.mark.parametrize("n_bits", [1, 11, 101, 1001])
def test_exact_majority_failure_matches_rational_reference(n_bits):
    for t in (0.3, 2.0, 8.0):
        assert exact_majority_failure(n_bits, t) == pytest.approx(
            exact_tail_reference(n_bits, t), rel=1e-11)
    assert exact_majority_failure(n_bits, 0.0) == 0.0


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(protocols.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import qmemsim, sys; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_repetition_simulation_matches_exact():
    est = simulate_classical_repetition(101, 2.0, 100_000,
                                        np.random.default_rng(43))
    exact = exact_majority_failure(101, 2.0)
    sigma = math.sqrt(exact * (1.0 - exact) / est.trials)
    assert abs(est.failure_rate - exact) < 4.0 * sigma
    assert est.ci_low <= exact <= est.ci_high


def test_repetition_lifetime_frozen():
    expected = {11: 1.0090576526728927, 101: 2.06600700875396,
                1001: 3.2069655920690328, 10001: 4.357214729532023}
    for n, life in expected.items():
        got = repetition_lifetime(n, 1.0, failure_floor=0.1)
        assert got == pytest.approx(life, rel=1e-9)
        # root property: the exact tail sits on the floor at the lifetime
        assert exact_majority_failure(n, got) == pytest.approx(0.1, abs=1e-9)
    # time scale is 1/r
    assert repetition_lifetime(101, 4.0, failure_floor=0.1) == pytest.approx(
        expected[101] / 4.0, rel=1e-9)


# --- circuit model -----------------------------------------------------------

def test_circuit_model_validation():
    with pytest.raises(ValueError):
        simulate_circuit_model(ProtocolParams(rate_r=1.0, levels=0,
                                              t_prot=0.5), 10,
                               np.random.default_rng(1))
    with pytest.raises(ValueError):
        simulate_circuit_model(ProtocolParams(rate_r=1.0, levels=1), 10,
                               np.random.default_rng(1))


def test_circuit_single_round_matches_block_rate():
    p = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.5)
    est = simulate_circuit_model(p, 100_000, np.random.default_rng(44))
    q = 0.75 * (1.0 - math.exp(-0.5))
    expect = b_exact(q)
    sigma = math.sqrt(expect * (1.0 - expect) / est.trials)
    assert abs(est.error_rate - expect) < 4.0 * sigma


def test_circuit_two_rounds_match_enumeration_oracle():
    p = ProtocolParams(rate_r=1.0, levels=2, t_prot=0.4)
    trials = 100_000
    est = simulate_circuit_model(p, trials, np.random.default_rng(45))
    q = 0.75 * (1.0 - math.exp(-0.4))
    site = depolarized_probs(q)
    inner = block_residual_probs(site)          # round 1 residual channel
    outer_site = xor_convolve(inner, site)      # plus fresh noise in round 2
    expect = block_residual_probs(outer_site)   # outer decode
    assert expect.sum() == pytest.approx(1.0, rel=1e-12)
    for cls in range(4):
        sigma = math.sqrt(expect[cls] * (1 - expect[cls]) / trials)
        assert abs(est.p_hat[cls] - expect[cls]) < 4.0 * sigma + 1e-9


def test_circuit_round_spacing_override():
    p = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.5)
    est = simulate_circuit_model(p, 100_000, np.random.default_rng(46),
                                 round_spacing=0.2)
    q = 0.75 * (1.0 - math.exp(-0.2))
    expect = b_exact(q)
    sigma = math.sqrt(expect * (1.0 - expect) / est.trials)
    assert abs(est.error_rate - expect) < 4.0 * sigma


def test_circuit_storage_levels_override():
    p = ProtocolParams(rate_r=1.0, levels=3, t_prot=0.4)
    est = simulate_circuit_model(p, 2_000, np.random.default_rng(47),
                                 storage_levels=1)
    assert est.trials == 2_000  # ran with 5 qubits, not 125


# --- clock controlled ----------------------------------------------------------

def test_clock_validation():
    with pytest.raises(ValueError):
        simulate_clock_controlled(ProtocolParams(rate_r=1.0, levels=0,
                                                 t_prot=0.5, t_dec=0.3),
                                  10, np.random.default_rng(1))
    with pytest.raises(ValueError):
        simulate_clock_controlled(ProtocolParams(rate_r=1.0, levels=1),
                                  10, np.random.default_rng(1))
    # delta must stay well below the schedule times
    bad = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.5, t_dec=0.3,
                         delta=0.06, epsilon=0.3, clock_bits=4096)
    with pytest.raises(ScheduleInfeasibleError):
        simulate_clock_controlled(bad, 10, np.random.default_rng(1))


def test_clock_controlled_unit_run():
    est, diag = simulate_clock_controlled(UNIT, 300, np.random.default_rng(48),
                                          return_diagnostics=True)
    assert isinstance(diag, ClockRunDiagnostics)
    assert est.trials == 300
    assert int(est.counts.sum()) == 300
    assert diag.decode_times.shape == (300, 1)
    assert diag.kick_probs.shape == (300, 1)
    assert est.decode_failures == int(diag.aborted.sum())
    assert est.bad_trajectories == int((~diag.good).sum())
    # decode instants track the nominal schedule end t_prot + t_dec
    times = diag.decode_times[~diag.aborted, 0]
    assert abs(times.mean() - 0.8) < 0.1
    assert np.all(times > 0.0)


def test_clock_controlled_two_levels_ordered():
    params = ProtocolParams(rate_r=1.0, levels=2, t_prot=0.5, t_dec=0.3,
                            delta=0.02, epsilon=0.3, clock_bits=4096)
    est, diag = simulate_clock_controlled(params, 200, np.random.default_rng(49),
                                          return_diagnostics=True)
    ok = ~diag.aborted
    assert np.all(np.diff(diag.decode_times[ok], axis=1) > 0)
    assert est.trials == 200


def test_clock_controlled_reproducible():
    # an int seed s means np.random.default_rng(s), in both passes
    a_est, a_diag = simulate_clock_controlled(UNIT, 150, 50,
                                              return_diagnostics=True)
    b_est, b_diag = simulate_clock_controlled(UNIT, 150,
                                              np.random.default_rng(50),
                                              return_diagnostics=True)
    assert a_est.counts.tolist() == b_est.counts.tolist()
    for field in ("good", "aborted", "decode_times", "kick_probs"):
        assert np.array_equal(getattr(a_diag, field), getattr(b_diag, field))
    other = simulate_clock_controlled(UNIT, 150, np.random.default_rng(51))
    assert a_est.counts.tolist() != other.counts.tolist()


PINNED = ProtocolParams(rate_r=1.0, levels=2, t_prot=0.3, t_dec=0.05,
                        delta=0.0025, epsilon=0.1, clock_bits=1024)


def test_clock_controlled_pinned_digest():
    # pass 1 (clock trajectories, decode times, kick probabilities) does not
    # depend on the code-qubit noise sampler; it is pinned bit for bit
    _, diag = simulate_clock_controlled(PINNED, 64, np.random.default_rng(61),
                                        return_diagnostics=True)
    assert int(diag.aborted.sum()) == 7 and int((~diag.good).sum()) == 7
    digest = hashlib.sha256()
    for part in (diag.good, diag.aborted, diag.decode_times, diag.kick_probs):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest()[:32] == "c28206a5efb904ff49414cee9eccad1d"


def test_clock_controlled_pinned_counts():
    # pass 2 (code-qubit noise), recorded from the one-shot frame sampler
    est = simulate_clock_controlled(PINNED, 64, np.random.default_rng(61))
    assert est.counts.tolist() == [18, 15, 12, 19]
    assert est.decode_failures == 7 and est.bad_trajectories == 7


# a clock above the leaf size, so pass 1 runs clock.sample_passages
REFINED = ProtocolParams(rate_r=1.0, levels=2, t_prot=0.1, t_dec=0.05,
                         delta=0.004, epsilon=0.02, clock_bits=200_000)


def test_clock_controlled_refined_pinned_digest():
    _, diag = simulate_clock_controlled(REFINED, 48, np.random.default_rng(63),
                                        return_diagnostics=True)
    assert int(diag.aborted.sum()) == 0 and int((~diag.good).sum()) == 9
    digest = hashlib.sha256()
    for part in (diag.good, diag.aborted, diag.decode_times, diag.kick_probs):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest()[:32] == "3dc9707dd0ce914338bb7fec46e659e7"


def clock_run_bytes(rng):
    est, diag = simulate_clock_controlled(PINNED, 24, rng,
                                          return_diagnostics=True)
    return [np.ascontiguousarray(part).tobytes()
            for part in (est.counts, diag.good, diag.aborted,
                         diag.decode_times, diag.kick_probs)]


@pytest.mark.parametrize("failing", [1, 3])
def test_clock_trial_exception_reaches_caller(monkeypatch, failing):
    failure = RuntimeError(f"trial {failing} failed")
    trial = itertools.count()

    def sample(params, horizon, rng):
        if next(trial) == failing:
            raise failure
        return sample_trajectory(params, horizon, rng)

    monkeypatch.setattr(protocols, "sample_trajectory", sample)
    with pytest.raises(RuntimeError) as excinfo:
        clock_run_bytes(np.random.default_rng(62))
    assert excinfo.value is failure


def test_kick_probability_saturates_without_overflow():
    assert _kick_probability(1e4) == 1.0
    assert _kick_probability(math.inf) == 1.0
    for x in (0.0, 1e-9, 0.3, math.log(2.0) - 1e-12, math.log(2.0), 0.9,
              1.0, 700.0):
        assert _kick_probability(x) == min(1.0, math.expm1(x))


def test_clock_code_rate_override_isolates_clock_noise():
    # noiseless code qubits: only drive-mistiming kicks can hurt, and at
    # h_norm ~ 0.125 those are tiny
    est = simulate_clock_controlled(UNIT, 400, np.random.default_rng(52),
                                    code_rate_r=0.0)
    assert est.error_rate <= 0.05


def test_deterministic_clock_matches_circuit_spacing():
    det = simulate_clock_controlled(UNIT, 3000, np.random.default_rng(53),
                                    deterministic_clock=True)
    circ = simulate_circuit_model(UNIT, 3000, np.random.default_rng(54),
                                  round_spacing=UNIT.t_prot + UNIT.t_dec)
    sigma = math.sqrt(det.sigma()[0] ** 2 + circ.sigma()[0] ** 2)
    assert abs(det.error_rate - circ.error_rate) < 4.0 * sigma
    # the mean path is identical across trials
    _, diag = simulate_clock_controlled(UNIT, 50, np.random.default_rng(55),
                                        deterministic_clock=True,
                                        return_diagnostics=True)
    assert np.ptp(diag.decode_times[:, 0]) == 0.0
    assert not diag.aborted.any()


# --- lifetime scans ------------------------------------------------------------

def test_lifetime_scan_validation():
    p = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.5, t_dec=0.3)
    with pytest.raises(ValueError):
        lifetime_scan("unprotected", p, 0.2, 100, np.random.default_rng(1))
    with pytest.raises(ValueError):
        lifetime_scan("unprotected", p, 1.0, 100, np.random.default_rng(1))
    with pytest.raises(ValueError):
        lifetime_scan("telepathy", p, 0.9, 100, np.random.default_rng(1))


def test_lifetime_scan_unprotected_flat():
    p = ProtocolParams(rate_r=1.0, levels=0)
    scan = lifetime_scan("unprotected", p, 2.0 / 3.0, 20_000,
                         np.random.default_rng(56), grid_step=0.05)
    sizes = [n for n, _ in scan.points]
    assert sizes == [1, 5, 125]
    # fidelity floor 2/3 is crossed at t = ln 3 for every register size
    for _, life in scan.points:
        assert life == pytest.approx(math.log(3.0), abs=0.12)
    assert abs(scan.slope) < 0.04  # flat in ln N


def test_lifetime_scan_repetition_frozen():
    p = ProtocolParams(rate_r=1.0, levels=0)
    scan = lifetime_scan("repetition", p, 0.9, 1, np.random.default_rng(57))
    expected = {11: 1.0090576526728927, 101: 2.06600700875396,
                1001: 3.2069655920690328, 10001: 4.357214729532023}
    for (n, life) in scan.points:
        assert life == pytest.approx(expected[n], rel=1e-9)
    assert scan.slope == pytest.approx(0.4921200929574672, rel=1e-6)
    assert abs(scan.slope - 0.5) / 0.5 < 0.15  # within 15% of 1/(2r)


def test_lifetime_scan_circuit_slope_is_round_time():
    p = ProtocolParams(rate_r=1.0, levels=2, t_prot=0.005, t_dec=0.001)
    scan = lifetime_scan("circuit", p, 2.0 / 3.0, 2_000, np.random.default_rng(58),
                         levels_list=(1, 2))
    assert scan.points == ((5, 0.005), (25, 0.010))
    assert scan.slope == pytest.approx(0.005, rel=1e-9)


def test_lifetime_scan_clock_single_point():
    # one round ends with fidelity ~ 0.61 (q ~ 0.41 over t_prot + t_dec),
    # so a floor of 0.5 is met and a floor of 2/3 is not
    scan = lifetime_scan("clock", UNIT, 0.5, 400, np.random.default_rng(59),
                         levels_list=(1,))
    (n, life), = scan.points
    assert n == 5
    assert life == pytest.approx(0.8)  # one full round of t_prot + t_dec
    assert scan.slope == 0.0 and scan.intercept == pytest.approx(0.8)
    none = lifetime_scan("clock", UNIT, 2.0 / 3.0, 400, np.random.default_rng(59),
                         levels_list=(1,))
    assert none.points == ((5, 0.0),)
