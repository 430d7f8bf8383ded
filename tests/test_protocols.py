"""Storage strategies: parameters, estimates, and the four simulators.

The concatenated checks compare sampled counts with the exact logical
channel each estimate carries: one depolarizing fault weight per trial,
carried through the rounds by fivequbit.b_exact.  It is checked against a
decimal reference of the same recursion and, over two rounds, against
brute-force enumeration of general (not depolarizing) block laws.
"""

import collections
import dataclasses
import hashlib
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from distribution_gate import (BELOW_CUT, GATE_ALPHA, chi2_sf, chi2_table,
                               count_p_value, fidelity_sigma, wald_sigma)
from test_fivequbit import N_W, block_residual_probs
from qmemsim import clock, protocols
from qmemsim.bounds import clock_size_for, feasibility_search
from qmemsim.clock import (MAX_BITS, ClockParams, ScheduleInfeasibleError,
                           sample_trajectory)
from qmemsim.fivequbit import BLOCK, b_exact, decode_blocks
from qmemsim.pauli import SPARSE_WEIGHT
from qmemsim.protocols import (ClockRunDiagnostics, LogicalChannelEstimate,
                               ProtocolParams, estimate_logical_channel,
                               exact_majority_failure, lifetime_scan,
                               repetition_lifetime,
                               simulate_circuit_model,
                               simulate_classical_repetition,
                               simulate_clock_controlled, simulate_unprotected,
                               with_sized_clock, _depolarized,
                               _fault_weight, _fresh_frames,
                               _kick_probability, _sample_rounds, _tails)
from qmemsim.stats import wilson_interval

TWO_PI = 2.0 * math.pi

# small clock register the event sampler can afford, generous windows
UNIT = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.5, t_dec=0.3,
                      delta=0.02, epsilon=0.3, clock_bits=4096)


def xor_composition(a, b):
    """(4,) law of P Q for independent P ~ a and Q ~ b, over every pair of
    codes: XOR of codes is Pauli multiplication up to phase."""
    out = np.zeros(4)
    for i, j in itertools.product(range(4), repeat=2):
        out[i ^ j] += a[i] * b[j]
    return out


def depolarizing(w):
    return np.array([1.0 - w, w / 3.0, w / 3.0, w / 3.0])


def within_sigmas(est, z=4.0):
    """Every class count of est within z binomial sigmas of its exact law."""
    sigma = np.sqrt(est.exact * (1.0 - est.exact) / est.trials)
    return bool(np.all(np.abs(est.p_hat - est.exact) < z * sigma + 1e-9))


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
    # no decode drive without t_dec
    assert ProtocolParams(rate_r=1.0, levels=1, t_prot=0.01).h_norm is None


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
    sized = replace(p, delta=0.02)
    assert sized.resolved_t_max() == sized.schedule_end + 0.01


def test_clock_run_takes_only_what_it_cannot_derive():
    # the drive norm and the clock horizon follow from the schedule and the
    # budget; neither is a parameter, and the clock run has no ablations
    fields = {f.name for f in dataclasses.fields(ProtocolParams)}
    assert fields.isdisjoint({"h_norm", "t_max"})
    for derived in ("h_norm", "t_max"):
        with pytest.raises(TypeError):
            ProtocolParams(rate_r=1.0, levels=1, t_prot=0.01, t_dec=0.001,
                           **{derived: 1.0})
    assert list(inspect.signature(simulate_clock_controlled).parameters) == [
        "params", "trials", "rng", "return_diagnostics"]


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
    # clocks that int64 cannot count are a verdict, reached before any clock
    # is built or sampled: the criterion-6 schedule at delta 1e-8 (K =
    # 3.4e41 at epsilon 0.3, past the float range at 0.49), and the
    # searched feasible constants at their 4 levels (K = 1.1e21)
    scaled = ProtocolParams(rate_r=1.0, levels=2, p_star=0.03, t_prot=0.006,
                            t_dec=0.0015, delta=1e-8, epsilon=0.3)
    found = feasibility_search(rate_r=1.0)
    searched = ProtocolParams(rate_r=1.0, levels=found.levels,
                              p_star=found.p_star, t_prot=found.t_prot,
                              t_dec=found.t_dec, delta=found.delta)
    for q in (scaled, replace(scaled, epsilon=0.49), searched):
        with pytest.raises(ScheduleInfeasibleError, match="int64"):
            with_sized_clock(q)
        with pytest.raises(ScheduleInfeasibleError, match="int64"):
            simulate_clock_controlled(q, 1, np.random.default_rng(1))


# --- channel estimates --------------------------------------------------------

def test_channel_estimate_identities():
    uniform = LogicalChannelEstimate(counts=np.array([25, 25, 25, 25]),
                                     trials=100)
    assert uniform.avg_fidelity == pytest.approx(0.5)
    assert uniform.error_rate == pytest.approx(0.75)
    assert np.allclose(uniform.p_hat, 0.25)
    assert fidelity_sigma(uniform) == pytest.approx(
        2.0 * wald_sigma(uniform)[0] / 3.0)
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
    assert est.exact.tolist() == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        simulate_unprotected(-1.0, p, 10, np.random.default_rng(1))


@pytest.mark.parametrize("t, rate_r", [(1.0, 1.0), (0.3, 2.5), (1e-7, 1.0)])
def test_unprotected_exact_channel(t, rate_r):
    # (1 + 3 e^{-rt})/4 for I and (1 - e^{-rt})/4 for each of X, Z and Y
    p = ProtocolParams(rate_r=rate_r, levels=1)
    exact = simulate_unprotected(t, p, 10, np.random.default_rng(1)).exact
    lam = math.exp(-rate_r * t)
    assert exact[0] == pytest.approx((1.0 + 3.0 * lam) / 4.0, rel=1e-12)
    assert exact[1:] == pytest.approx([-math.expm1(-rate_r * t) / 4.0] * 3,
                                      rel=1e-12)
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)


def test_unprotected_draws_only_the_stored_qubit():
    # the noise is drawn i.i.d. per cell, so the spectators carry no evidence
    # about qubit 0: one seed gives the same residuals at any register size,
    # and the spectators' frames are never drawn
    t = math.log(3.0)
    runs = []
    for levels in (0, 3):
        gen = np.random.default_rng(62)
        p = ProtocolParams(rate_r=1.0, levels=levels)
        est = simulate_unprotected(t, p, 5_000, gen)
        runs.append((p.n_qubits, est, gen.bit_generator.state))
    (n0, est0, state0), (n3, est3, state3) = runs
    assert (n0, n3) == (1, 125)
    assert est0.counts.tobytes() == est3.counts.tobytes()
    assert est0.exact.tobytes() == est3.exact.tobytes()
    assert state0 == state3


@pytest.mark.parametrize("levels", [0, 2])
def test_unprotected_matches_channel_formula(levels):
    # marginal fidelity (1 + e^{-rt})/2 regardless of spectator count
    p = ProtocolParams(rate_r=1.0, levels=levels)
    t = math.log(3.0)
    est = simulate_unprotected(t, p, 20_000, np.random.default_rng([42, levels]))
    expect = (1.0 + math.exp(-t)) / 2.0
    assert abs(est.avg_fidelity - expect) < 4.0 * fidelity_sigma(est)
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
    lo, hi = wilson_interval(est.failures, est.trials)
    assert lo <= exact <= hi


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
    assert est.exact[1:].sum() == pytest.approx(expect, rel=1e-12)


def test_depolarized_is_xor_composition():
    # the product of two independent depolarizing Paulis is depolarizing,
    # at the weight _depolarized gives
    for w, q in itertools.product([0.0, 1e-9, 0.2, 0.75, 0.8, 1.0], repeat=2):
        law = xor_composition(depolarizing(w), depolarizing(q))
        assert law[1] == pytest.approx(law[2], rel=1e-12, abs=1e-300)
        assert law[1] == pytest.approx(law[3], rel=1e-12, abs=1e-300)
        assert law[1:].sum() == pytest.approx(_depolarized(w, q), rel=1e-12,
                                              abs=1e-300)


def test_circuit_two_rounds_match_enumeration_oracle():
    # brute force that assumes no symmetry: every block string enumerated,
    # with the general XOR composition of the round-1 law and fresh noise
    p = ProtocolParams(rate_r=1.0, levels=2, t_prot=0.4)
    est = simulate_circuit_model(p, 100_000, np.random.default_rng(45))
    noise = depolarizing(0.75 * (1.0 - math.exp(-0.4)))
    inner = block_residual_probs(noise)          # round 1 residual law
    outer = block_residual_probs(xor_composition(inner, noise))
    assert est.exact == pytest.approx(outer, rel=1e-12)
    assert est.exact.sum() == pytest.approx(1.0, abs=1e-12)
    assert within_sigmas(est)


def reference_weight(weights, kicks=None, digits=50):
    """The round recursion in decimal arithmetic, from the float storage
    weight weights[j] and kick kicks[j] of each round (no kicks when None):
    w -> b(w + q (1 - 4w/3)), b the failing-count polynomial, then
    w -> w + k (1 - 4w/3)."""
    with localcontext() as ctx:
        ctx.prec = digits
        w = Decimal(0)
        for j, q in enumerate(map(Decimal, weights)):
            p = w + q * (1 - 4 * w / 3)
            # strings of weight 0 and 1 never fail (and 0 ** 0 is invalid)
            w = sum(n * (p / 3) ** k * (1 - p) ** (5 - k)
                    for k, n in enumerate(N_W) if n)
            if kicks is not None:
                w += Decimal(kicks[j]) * (1 - 4 * w / 3)
        return float(w)


@pytest.mark.parametrize("t_prot", [0.001, 0.005, 0.02, 0.1, 0.4])
def test_exact_weight_matches_decimal_reference(t_prot):
    q = -0.75 * math.expm1(-t_prot)
    for levels in range(1, 7):
        got = _fault_weight(np.full(levels, t_prot), 1.0)
        assert got == pytest.approx(reference_weight([q] * levels),
                                    rel=2e-15)
    # one level of the circuit model carries the same weight
    est = simulate_circuit_model(ProtocolParams(rate_r=1.0, levels=1,
                                                t_prot=t_prot),
                                 10, np.random.default_rng(1))
    assert est.exact[1:].sum() == pytest.approx(reference_weight([q]),
                                                rel=2e-15)


def test_exact_weight_settles_over_many_levels():
    # below threshold the weight settles at the recursion's fixed point,
    # and its law still sums to 1 exactly
    q = -0.75 * math.expm1(-0.005)
    got = _fault_weight(np.full(250, 0.005), 1.0)
    assert got == pytest.approx(reference_weight([q] * 250), rel=2e-15)
    assert got == pytest.approx(1.50009e-4, rel=1e-5)


def test_rounds_exact_one_weight_per_round_matches_trial_axis():
    # per-round weights take b_exact's float path; the law equals the one
    # of a single trial's row, which takes the array form, bit for bit
    gen = np.random.default_rng(78)
    for durations in (np.full(4, 0.005), np.full(6, 0.08),
                      gen.uniform(0.0, 0.3, 5), np.zeros(2)):
        got = _fault_weight(durations, 1.0)
        assert type(got) is float
        row = _fault_weight(durations[None, :], 1.0)
        assert row.shape == (1,) and got == row[0]


def test_circuit_round_spacing_is_t_prot():
    p = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.2)
    est = simulate_circuit_model(p, 100_000, np.random.default_rng(46))
    q = 0.75 * (1.0 - math.exp(-0.2))
    expect = b_exact(q)
    sigma = math.sqrt(expect * (1.0 - expect) / est.trials)
    assert abs(est.error_rate - expect) < 4.0 * sigma


def test_circuit_storage_levels_override():
    # fewer rounds than a parameter set's levels: replace(params, levels=...)
    p = ProtocolParams(rate_r=1.0, levels=3, t_prot=0.4)
    est = simulate_circuit_model(replace(p, levels=1), 2_000,
                                 np.random.default_rng(47))
    assert est.trials == 2_000  # ran with 5 qubits, not 125
    q = 0.75 * (1.0 - math.exp(-0.4))
    assert est.exact[1:].sum() == pytest.approx(b_exact(q), rel=1e-12)


# --- hit-list rounds against the exact law and the dense register ------------

# a run's rounds: each round's storage duration at rate_r, (levels,) or with
# a leading trial axis, and the kick after its decode ((trials, levels), or
# None), as _fault_weight takes them
Rounds = collections.namedtuple("Rounds", "durations rate_r kicks",
                                defaults=(None,))


def dense_noise(shape, p, gen):
    """uint8 frames of shape (trials, n), each cell of trial i hit at weight
    p[i]: one uniform per cell against p, then a uniform X, Z or Y per hit."""
    frames = np.zeros(shape, dtype=np.uint8)
    hit = gen.random(shape) < p[:, None]
    frames[hit] = gen.integers(1, 4, np.count_nonzero(hit), dtype=np.uint8)
    return frames


def dense_rounds(rounds, trials, gen):
    """Reference for the rounds' law, sharing no code with _sample_rounds:
    the whole trials x 5^levels register takes each round's storage noise,
    is decoded block by block, and takes each kick in place after its
    decode."""
    levels = rounds.durations.shape[-1]
    durations = np.broadcast_to(rounds.durations, (trials, levels))
    frames = np.zeros((trials, BLOCK ** levels), dtype=np.uint8)
    for j in range(levels):
        q = -0.75 * np.expm1(-rounds.rate_r * durations[:, j])
        frames ^= dense_noise(frames.shape, q, gen)
        frames = decode_blocks(frames.reshape(trials, -1, BLOCK))
        if rounds.kicks is not None:
            frames ^= dense_noise(frames.shape, rounds.kicks[:, j], gen)
    return frames[:, 0]


# a gate point runs at least GATE_TRIALS trials, and more where the exact
# law expects fewer than GATE_FAULTS faults.  With 30 expected faults the
# exact count check at GATE_ALPHA fails with probability 0.9 when the fault
# rate is 2.2 times too high or 0.22 times too low; where faults are common,
# 2000 trials put a fault rate off by 0.1 about 9 sigma away
GATE_FAULTS = 30
GATE_TRIALS = 2000
# trials per dense_rounds call, which bounds its register to 12.5 MB at 625
# qubits
DENSE_CHUNK = 20_000


def per_trial(rounds, f):
    """rounds with f applied to each array of it that has a trial axis."""
    return Rounds(*(a if a is None or np.ndim(a) < 2 else f(a)
                    for a in rounds))


def class_counts(residuals):
    return np.bincount(residuals, minlength=4)


def sampled_residuals(rounds, trials, gen):
    """Residual codes (trials,) of _sample_rounds at the one weight of
    rounds, from its hit list: the ascending trials whose residual is not
    I, and their uint8 codes."""
    q = -0.75 * np.expm1(-rounds.rate_r * rounds.durations)
    assert rounds.kicks is None and q.ndim == 1 and np.all(q == q[0])
    cells, codes = _sample_rounds(q[0], q.size, trials, gen)
    assert codes.dtype == np.uint8 and cells.shape == codes.shape
    assert np.all(np.diff(cells) > 0) and np.all(codes != 0)
    assert cells.size == 0 or 0 <= cells[0] <= cells[-1] < trials
    residuals = np.zeros(trials, dtype=np.uint8)
    residuals[cells] = codes
    return residuals


def dense_counts(rounds, trials, gen):
    """Residual class counts of dense_rounds on `trials` trials, drawn
    DENSE_CHUNK trials at a time (the trials are independent)."""
    counts = np.zeros(4, dtype=np.int64)
    for start in range(0, trials, DENSE_CHUNK):
        rows = slice(start, min(trials, start + DENSE_CHUNK))
        part = per_trial(rounds, lambda a: a[rows])
        counts += class_counts(dense_rounds(part, rows.stop - start, gen))
    return counts


def exact_p_values(counts, weights, reps):
    """count_p_value of the fault count and of each of the X, Z and Y
    counts against the exact fault weights, each repeated reps times."""
    out = {"faults": count_p_value(int(counts[1:].sum()),
                                   [(reps, w) for w in weights])}
    for code, label in ((1, "X"), (2, "Z"), (3, "Y")):
        out[label] = count_p_value(int(counts[code]),
                                   [(reps, w / 3.0) for w in weights])
    return out


def gate_p_values(rounds, reps, seed):
    """p-values of the residual classes of rounds, with each trial of
    rounds (one, when it has no trial axis) repeated reps times.  Rounds
    of one weight: _sample_rounds' counts against the exact law
    (exact_p_values) and against dense_rounds on as many trials
    (chi2_table).  Rounds with a trial axis, which only the exact law and
    dense_rounds take: dense_rounds' counts against the exact law."""
    weights = np.atleast_1d(_fault_weight(*rounds))
    trials = weights.size * reps
    if rounds.durations.ndim == 2:
        rounds = per_trial(rounds, lambda a: np.tile(a, (reps, 1)))
        return exact_p_values(
            dense_counts(rounds, trials, np.random.default_rng([seed, 1])),
            weights, reps)
    counts = class_counts(sampled_residuals(
        rounds, trials, np.random.default_rng([seed, 0])))
    want = dense_counts(rounds, trials, np.random.default_rng([seed, 1]))
    return {"dense": chi2_table([counts, want])[2],
            **exact_p_values(counts, weights, reps)}


def reps_for(rounds):
    """Repeats of rounds' trials that make at least GATE_TRIALS trials and
    expect at least GATE_FAULTS faults."""
    weights = np.atleast_1d(_fault_weight(*rounds))
    return max(math.ceil(GATE_TRIALS / weights.size),
               math.ceil(GATE_FAULTS / float(weights.sum())))


# durations at rate 1 whose storage weight -0.75 expm1(-t) is the cut
# exactly and the largest weight below it that a duration reaches (two
# floats below; BELOW_CUT, the float just below the cut, is a kick)
T_CUT = -math.log1p(-SPARSE_WEIGHT / 0.75)
T_BELOW_CUT = float(np.nextafter(T_CUT, 0.0))


def test_cut_durations_straddle_the_cut():
    assert -0.75 * np.expm1(-T_CUT) == SPARSE_WEIGHT
    below = -0.75 * np.expm1(-T_BELOW_CUT)
    assert BELOW_CUT - 2 * np.spacing(BELOW_CUT) < below < SPARSE_WEIGHT


# storage weights 0.0037 (the circuit point: about 2e5 trials for
# GATE_FAULTS), two below the cut, the cut, and 0.3 (where the fresh blocks,
# at P(>= 2 hits) = 0.47, take the dense draw)
@pytest.mark.parametrize("t", [0.005, T_BELOW_CUT, T_CUT, -math.log1p(-0.4)],
                         ids=["circuit", "below_cut", "cut", "dense"])
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_rounds_sample_matches_dense_register(levels, t):
    rounds = Rounds(np.full(levels, t), 1.0)
    p_values = gate_p_values(rounds, reps_for(rounds), 90 + levels)
    assert min(p_values.values()) >= GATE_ALPHA, p_values


# 300 trials of per-trial storage durations and kicks, each repeated as
# reps_for says, in dense_rounds against the exact law; the kicks' largest
# weight (trial 0's) is 0, below the cut, the float below it, the cut, and
# 0.5
@pytest.mark.parametrize("kick", [0.0, 0.02, BELOW_CUT, SPARSE_WEIGHT, 0.5])
@pytest.mark.parametrize("longest", [0.02, 0.5])
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_kicked_dense_register_matches_exact_law(levels, longest, kick):
    gen = np.random.default_rng(70 + levels)
    durations = gen.uniform(0.0, longest, (300, levels))
    kicks = gen.uniform(0.0, kick, (300, levels))
    kicks[0] = kick
    rounds = Rounds(durations, 1.0, kicks)
    p_values = gate_p_values(rounds, reps_for(rounds), 100 + levels)
    assert min(p_values.values()) >= GATE_ALPHA, p_values


# one-trial calls, SINGLE_CALLS a configuration: the storage weights of
# test_rounds_sample_matches_dense_register (0.5 for the dense one) in
# _sample_rounds; and kicks below the cut, at it and at 0.5 over storage at
# 0.02, SINGLE_CALLS trials of each in dense_rounds against the exact law
SINGLE_CALLS = 60


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_rounds_sample_single_trial_matches_dense_register(levels):
    # the plain rounds sample with _sample_rounds, against dense_rounds and
    # the exact law; the kicked half gates dense_rounds against the exact law
    plain = [Rounds(np.full(levels, t), 1.0)
             for t in (0.005, T_BELOW_CUT, T_CUT, 0.5)]
    kicked = [Rounds(np.full((1, levels), 0.02), 1.0,
                     np.full((1, levels), kick))
              for kick in (BELOW_CUT, SPARSE_WEIGHT, 0.5)]
    gen = np.random.default_rng([110 + levels, 0])
    dense_gen = np.random.default_rng([110 + levels, 1])
    got, want = np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
    for rounds in plain:
        for _ in range(SINGLE_CALLS):
            got += class_counts(sampled_residuals(rounds, 1, gen))
        want += dense_counts(rounds, SINGLE_CALLS, dense_gen)
    kicked_got = sum(dense_counts(rounds, SINGLE_CALLS, dense_gen)
                     for rounds in kicked)
    weights = {label: [float(np.sum(_fault_weight(*rounds)))
                       for rounds in configs]
               for label, configs in (("plain", plain), ("kicked", kicked))}
    assert SINGLE_CALLS * sum(map(sum, weights.values())) > GATE_FAULTS
    p_values = {"dense": chi2_table([got, want])[2]}
    for label, counts in (("plain", got), ("kicked", kicked_got)):
        p_values.update({f"{label}_{name}": value for name, value in
                         exact_p_values(counts, weights[label],
                                        SINGLE_CALLS).items()})
    assert min(p_values.values()) >= GATE_ALPHA, p_values


def fit_p_value(counts, probs):
    """Chi-square goodness-of-fit p-value of class counts against class
    probabilities.  Classes expected fewer than 5 times are pooled into one
    class, and a class of probability 0 must be empty."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * counts.sum()
    if np.any(counts[expected == 0.0]):
        return 0.0
    rare = expected < 5.0
    counts = np.append(counts[~rare], counts[rare].sum())
    expected = np.append(expected[~rare], expected[rare].sum())
    counts, expected = counts[expected > 0.0], expected[expected > 0.0]
    if counts.size < 2:
        return 1.0
    return chi2_sf(float(((counts - expected) ** 2 / expected).sum()),
                   counts.size - 1)


def test_fresh_frames_follow_binomial_given_two_hits():
    # the frames of fresh blocks: hit counts from Binomial(5, p) given >= 2,
    # every subset of sites of a count equally likely, and each hit an
    # X, Z or Y alike, at the circuit point's weight and at three more
    gen = np.random.default_rng(74)
    cases = [(p, _fresh_frames(_tails(p), size, gen)) for p, size in (
        (0.0037, 40_000), (0.05, 20_000), (0.3, 20_000), (1.0, 20_000))]
    masks = np.arange(2 ** BLOCK)
    sizes = np.array([bin(m).count("1") for m in masks])
    for p, frames in cases:
        assert frames.dtype == np.uint8 and frames.shape[1:] == (BLOCK,)
        hits = frames != 0
        count = hits.sum(axis=1)
        assert count.min() >= 2
        law = np.array([math.comb(BLOCK, k) * p ** k * (1 - p) ** (BLOCK - k)
                        for k in range(BLOCK + 1)])
        law[:2] = 0.0
        p_values = {
            "count": fit_p_value(np.bincount(count, minlength=BLOCK + 1),
                                 law / law.sum()),
            "code": fit_p_value(np.bincount(frames[hits], minlength=4)[1:],
                                [1 / 3] * 3)}
        subsets = np.bincount(hits @ (1 << np.arange(BLOCK)), minlength=32)
        for k in range(2, BLOCK):
            p_values[f"sites_{k}"] = fit_p_value(
                subsets[sizes == k], np.full(math.comb(BLOCK, k),
                                             1 / math.comb(BLOCK, k)))
        assert min(p_values.values()) >= GATE_ALPHA, (p, p_values)


def predicted_bytes(trials, levels, t_prot):
    """The peak allocation _sample_rounds predicts for a circuit run:
    FRESH_HIT_BYTES for each of the trials x (5^levels - 1)/4 cells of its
    fresh-block draw expected to hit, at P(>= 2 hits of 5), and
    DENSE_CELL_BYTES for each of those cells when that draw is dense."""
    tail = float(_tails(-0.75 * math.expm1(-t_prot))[1])
    cells = trials * (BLOCK ** levels - 1) // 4
    dense = protocols.DENSE_CELL_BYTES if tail >= SPARSE_WEIGHT else 0
    return (protocols.FRESH_HIT_BYTES * tail + dense) * cells


def test_circuit_six_levels_in_hit_lists():
    # 15 625 qubits x 2000 trials: the 31 MB register and its draws are
    # never built, the peak allocation is at most the prediction the
    # budget check reads and more than half of it, and the faults follow
    # the exact channel
    params = ProtocolParams(rate_r=1.0, levels=6, t_prot=0.03)
    predicted = predicted_bytes(2000, 6, 0.03)
    tracemalloc.start()
    try:
        est = simulate_circuit_model(params, 2000, np.random.default_rng(72))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, peak
    assert predicted / 2 < peak <= predicted, (peak, predicted)
    weight = float(_fault_weight(np.full(6, 0.03), 1.0))
    faults = est.trials - int(est.counts[0])
    assert count_p_value(faults, [(est.trials, weight)]) >= GATE_ALPHA


# fresh-block draws in the dense order: just past its cut, where the cell
# draw itself makes the peak (about 9 bytes a cell), and at 0.4, where the
# hits do (P(>= 2 hits of 5) = 0.36)
@pytest.mark.parametrize("t_prot", [0.085, 0.4])
def test_circuit_dense_fresh_draw_within_prediction(t_prot):
    assert _tails(-0.75 * math.expm1(-t_prot))[1] >= SPARSE_WEIGHT
    predicted = predicted_bytes(3000, 4, t_prot)
    tracemalloc.start()
    try:
        simulate_circuit_model(ProtocolParams(rate_r=1.0, levels=4,
                                              t_prot=t_prot),
                               3000, np.random.default_rng(73))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= predicted, (peak, predicted)


def test_circuit_above_threshold_matches_exact_law():
    # t_prot 0.08 lies above the threshold t_prot* ~ 0.0408: over 3 levels
    # the fault weight climbs 0.029, 0.059, 0.097, a round's blocks take two
    # hits or more at 3%, and weight-2 and weight-3 frames are common, so
    # many touched blocks also draw fresh ones (to be dropped)
    est = simulate_circuit_model(ProtocolParams(rate_r=1.0, levels=3,
                                                t_prot=0.08),
                                 200_000, np.random.default_rng(79))
    weight = float(_fault_weight(np.full(3, 0.08), 1.0))
    assert weight == pytest.approx(0.0971, abs=1e-4)
    p_values = {"faults": count_p_value(int(est.trials - est.counts[0]),
                                        [(est.trials, weight)])}
    for code, label in ((1, "X"), (2, "Z"), (3, "Y")):
        p_values[label] = count_p_value(int(est.counts[code]),
                                        [(est.trials, weight / 3.0)])
    assert min(p_values.values()) >= GATE_ALPHA, p_values


@pytest.mark.parametrize("trials, levels", [(10 ** 12, 3), (10 ** 7, 8)])
def test_circuit_past_draw_budget_rejected_before_any_draw(trials, levels):
    # 1e12 trials at 3 levels (4.3e9 fresh-block hits expected) and 1e7 at
    # 8 (1.4e8), both past MAX_DRAW_BYTES: refused with the prediction
    # named and the generator untouched
    params = ProtocolParams(rate_r=1.0, levels=levels, t_prot=0.005)
    predicted = predicted_bytes(trials, levels, 0.005)
    assert predicted > protocols.MAX_DRAW_BYTES
    assert protocols.MAX_DRAW_BYTES is clock.MAX_DRAW_BYTES
    gen = np.random.default_rng(80)
    state = gen.bit_generator.state
    with pytest.raises(ScheduleInfeasibleError,
                       match=re.escape(f"allocate {predicted:.3g} bytes")):
        simulate_circuit_model(params, trials, gen)
    assert gen.bit_generator.state == state


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
    # the exact law of each trial given its pass-1 record; aborts are Y
    assert diag.channels.shape == (300, 4)
    assert np.allclose(diag.channels.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(diag.channels[diag.aborted] == [0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(est.exact, diag.channels.mean(axis=0))
    # decode instants track the nominal schedule end t_prot + t_dec
    times = diag.decode_times[~diag.aborted, 0]
    assert abs(times.mean() - 0.8) < 0.1
    assert np.all(times > 0.0)


def clock_rounds(diag, rate_r):
    """The rounds of a clock run's pass 2 from its pass-1 record, with the
    code register's noise at rate_r."""
    durations = np.clip(np.diff(diag.decode_times, axis=1, prepend=0.0),
                        0.0, None)
    return Rounds(durations, rate_r, diag.kick_probs)


def test_clock_exact_channel_composes_kicks():
    # noiseless code qubits: a trial's channel comes from its two kicks
    # alone.  The level-1 kick k1 leaves each level-1 qubit depolarized at
    # k1, the level-2 decode turns that into weight b = b_exact(k1), and the
    # level-2 kick k2 composes on top: weight b + k2 - 4 b k2 / 3
    params = replace(UNIT, levels=2)
    _, diag = simulate_clock_controlled(params, 40, np.random.default_rng(64),
                                        return_diagnostics=True)
    ok = ~diag.aborted
    assert ok.sum() > 30 and diag.kick_probs[ok].min() > 0.0
    weights = _fault_weight(*clock_rounds(diag, 0.0))
    for (k1, k2), weight in zip(diag.kick_probs[ok], weights[ok]):
        b = b_exact(float(k1))
        w = b + k2 - 4.0 * b * k2 / 3.0
        assert weight == pytest.approx(w, rel=1e-12)
    # the run's own channels are those rounds at the code's noise rate
    channels = protocols._law(_fault_weight(*clock_rounds(diag,
                                                          params.rate_r)))
    assert np.array_equal(diag.channels[ok], channels[ok])


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_kicked_fault_weight_matches_decimal_reference(levels):
    # each kick after its own decode, at nonzero storage, with a saturated
    # kick (1.0) and a noiseless trial among the random ones
    gen = np.random.default_rng(75 + levels)
    durations = gen.uniform(0.0, 0.05, (200, levels))
    kicks = gen.uniform(0.0, 0.05, (200, levels))
    kicks[0] = 1.0
    durations[1], kicks[1] = 0.0, 0.0
    got = _fault_weight(durations, 1.0, kicks)
    assert got.shape == (200,) and got[1] == 0.0
    want = [reference_weight([-0.75 * math.expm1(-d) for d in row], kick)
            for row, kick in zip(durations, kicks)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


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
    # pass 2, recorded from the draw of each trial's residual from its exact
    # law given its pass-1 record: one uniform per trial against its fault
    # weight, then a uniform X, Z or Y per fault.  The 31 faults of the 57
    # decoded trials sit at a two-sided exact tail of 0.34 against the 34.97
    # their exact channels expect, and their 11 X, 11 Z and 9 Y at 0.99,
    # 0.99 and 0.49 against 11.66 each
    est = simulate_clock_controlled(PINNED, 64, np.random.default_rng(61))
    assert est.counts.tolist() == [26, 11, 11, 16]
    assert est.decode_failures == 7 and est.bad_trajectories == 7


def test_exact_laws_are_depolarizing():
    # every exact row of a trial that decoded has X = Z = Y and sums to 1
    rows = [simulate_unprotected(0.3, ProtocolParams(rate_r=1.0, levels=0),
                                 10, np.random.default_rng(1)).exact]
    for levels in (1, 2, 3):
        p = ProtocolParams(rate_r=1.0, levels=levels, t_prot=0.02)
        rows.append(simulate_circuit_model(p, 10, np.random.default_rng(2)).exact)
    est, diag = simulate_clock_controlled(PINNED, 64, np.random.default_rng(61),
                                          return_diagnostics=True)
    rows.extend(diag.channels[~diag.aborted])
    rows = np.array(rows)
    assert len(rows) == 4 + 57
    assert np.all(rows[:, 1] == rows[:, 2]) and np.all(rows[:, 1] == rows[:, 3])
    sums = np.vstack([rows, diag.channels, est.exact]).sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-15


# a clock above the leaf size, so pass 1 runs clock.sample_passages
REFINED = ProtocolParams(rate_r=1.0, levels=2, t_prot=0.1, t_dec=0.05,
                         delta=0.004, epsilon=0.02, clock_bits=200_000)


def test_clock_controlled_refined_pinned_digest():
    _, diag = simulate_clock_controlled(REFINED, 48, np.random.default_rng(63),
                                        return_diagnostics=True)
    assert int(diag.aborted.sum()) == 0 and int((~diag.good).sum()) == 6
    digest = hashlib.sha256()
    for part in (diag.good, diag.aborted, diag.decode_times, diag.kick_probs):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest()[:32] == "5ccb43ced2f5f739479f9547b1fa740f"


# the criterion-6 point: its clock (K = 3.1e8) runs clock.sample_passages
CRITERION_6 = ProtocolParams(rate_r=1.0, levels=2, p_star=0.03, t_prot=0.006,
                             t_dec=0.0015, delta=1.4e-4, epsilon=0.01)


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("params, simulate", [
    (CRITERION_6, simulate_clock_controlled),
    (PINNED, simulate_clock_controlled),
    (CRITERION_6, simulate_circuit_model)],
    ids=["refined_clock", "event_clock", "circuit"])
def test_trials_below_one_rejected_before_any_draw(params, simulate, trials):
    gen = np.random.default_rng(65)
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        simulate(params, trials, gen)
    assert gen.bit_generator.state == np.random.default_rng(
        65).bit_generator.state


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("strategy", [None, "unprotected", "circuit"],
                         ids=["simulate_unprotected", "scan_unprotected",
                              "scan_circuit"])
def test_unprotected_and_scans_reject_trials_below_one(strategy, trials):
    # checked before any draw, which would otherwise end in an IndexError
    # (0 trials) or a negative dimension (-1)
    params = ProtocolParams(rate_r=1.0, levels=2, t_prot=0.02)
    gen = np.random.default_rng(67)
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        if strategy is None:
            simulate_unprotected(0.5, params, trials, gen)
        else:
            lifetime_scan(strategy, params, 0.9, trials, gen)
    assert gen.bit_generator.state == np.random.default_rng(
        67).bit_generator.state


@pytest.mark.parametrize("simulate", [simulate_circuit_model,
                                      simulate_clock_controlled])
def test_register_past_int64_rejected_before_any_draw(simulate):
    # 2 x 5^27 = 1.49e19 register cells, just past 2^63 = 9.22e18, which
    # int64 cell indices cannot reach
    gen = np.random.default_rng(68)
    with pytest.raises(ScheduleInfeasibleError, match=f"= {2 * 5 ** 27} "):
        simulate(replace(PINNED, levels=27), 2, gen)
    assert gen.bit_generator.state == np.random.default_rng(
        68).bit_generator.state


def test_clock_past_live_interval_budget_is_infeasible():
    # a clock just below MAX_BITS at the criterion-6 schedule would need
    # about 2e7 live intervals per path, far above clock.LIVE_INTERVALS; the
    # verdict comes from the schedule, before any draw and any large array
    params = replace(CRITERION_6, clock_bits=MAX_BITS - 1)
    gen = np.random.default_rng(64)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ScheduleInfeasibleError, match="live intervals"):
            simulate_clock_controlled(params, 4, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0 and peak < 1e6
    assert gen.bit_generator.state == np.random.default_rng(
        64).bit_generator.state
    # the criterion-6 clock itself fits 15 paths in one batch
    sized = with_sized_clock(replace(params, clock_bits=None))
    assert clock._batch_size(ClockParams(
        n_bits=sized.clock_bits, epsilon=0.01, t_max=sized.resolved_t_max(),
        rate_r=1.0), 2) == 15


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
    _, diag = simulate_clock_controlled(UNIT, 400, np.random.default_rng(52),
                                        return_diagnostics=True)
    residuals = dense_rounds(clock_rounds(diag, 0.0), 400,
                             np.random.default_rng(53))
    faults = np.count_nonzero(residuals[~diag.aborted]) + diag.aborted.sum()
    assert faults / 400 <= 0.05


# a small clock whose occupancy spreads widely: kicks of mean weight about
# 0.2 at h_norm = min(2 pi / t_dec, p* / (4 delta)) = 25
KICKED = ProtocolParams(rate_r=1.0, levels=2, p_star=0.03, t_prot=0.05,
                        t_dec=0.03, delta=3e-4, epsilon=0.3, clock_bits=4096)


def count_law(probs):
    """Law of the number of successes of independent Bernoulli(probs)."""
    pmf = np.array([1.0])
    for p in probs:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def count_check_power(truth, alternative):
    """Probability that count_p_value, testing a count against the
    Bernoulli rates alternative, falls below GATE_ALPHA when the count is
    drawn with the rates truth."""
    law, alt = count_law(truth), count_law(alternative)
    below = np.cumsum(alt)
    above = np.cumsum(alt[::-1])[::-1]
    return float(law[2.0 * np.minimum(below, above) < GATE_ALPHA].sum())


def test_clock_sampled_faults_see_the_kicks():
    # pooled pass-2 faults against each trial's exact channel.  The power
    # of that check at GATE_ALPHA against a pass 2 that draws from other
    # channels, from the exact channels of this run: 1.0 (to 1e-15) against
    # the channels without the kicks (mean fault weight 0.057, against
    # 0.269) and 0.997 against those at 1.5x the code's noise rate (0.335);
    # 2000 trials is the smallest of 1200, 1500, 1800 and 2000 that passes
    # 0.99 against both
    assert KICKED.h_norm == 25.0
    trials = 2000
    est, diag = simulate_clock_controlled(KICKED, trials,
                                          np.random.default_rng(66),
                                          return_diagnostics=True)
    truth = diag.channels[:, 1:].sum(axis=1)
    faults = trials - int(est.counts[0])
    assert count_p_value(faults, [(1, p) for p in truth]) >= GATE_ALPHA
    # and each class: X, Z and Y at w_i / 3 a decoded trial, an abort a Y
    for code in (1, 2, 3):
        assert count_p_value(int(est.counts[code]), [
            (1, p) for p in diag.channels[:, code]]) >= GATE_ALPHA, code
    for alternative in (clock_rounds(diag, 1.0)._replace(kicks=None),
                        clock_rounds(diag, 1.5)):
        weights = np.where(diag.aborted, 1.0, _fault_weight(*alternative))
        assert count_check_power(truth, weights) >= 0.99


# --- lifetime scans ------------------------------------------------------------

def test_lifetime_scan_validation():
    p = ProtocolParams(rate_r=1.0, levels=1, t_prot=0.5, t_dec=0.3)
    with pytest.raises(ValueError):
        lifetime_scan("unprotected", p, 0.2, 100, np.random.default_rng(1))
    with pytest.raises(ValueError):
        lifetime_scan("unprotected", p, 1.0, 100, np.random.default_rng(1))
    with pytest.raises(ValueError):
        lifetime_scan("telepathy", p, 0.9, 100, np.random.default_rng(1))
    # circuit and clock decode at least one level
    flat = ProtocolParams(rate_r=1.0, levels=0, t_prot=0.01, t_dec=0.005)
    for strategy in ("circuit", "clock"):
        with pytest.raises(ValueError, match="at least one level"):
            lifetime_scan(strategy, flat, 2.0 / 3.0, 100,
                          np.random.default_rng(1))
        with pytest.raises(ValueError, match="at least one level"):
            lifetime_scan(strategy, p, 2.0 / 3.0, 100,
                          np.random.default_rng(1), levels_list=(0,))


def test_lifetime_scan_unprotected_flat():
    p = ProtocolParams(rate_r=1.0, levels=0)
    scan = lifetime_scan("unprotected", p, 2.0 / 3.0, 20_000,
                         np.random.default_rng(56))
    sizes = [n for n, _ in scan.points]
    assert sizes == [1, 5, 125]
    # fidelity floor 2/3 is crossed at t = ln 3 for every register size
    for _, life in scan.points:
        assert life == pytest.approx(math.log(3.0), abs=0.12)
    assert abs(scan.slope) < 0.04  # flat in ln N


def _fidelity(failures, trials):
    """LogicalChannelEstimate.avg_fidelity of a run with that many faults."""
    counts = np.array([trials - failures, failures, 0, 0])
    return LogicalChannelEstimate(counts=counts, trials=trials).avg_fidelity


@pytest.mark.parametrize("floor, rate_r", [(2.0 / 3.0, 1.0), (0.9, 2.0)])
def test_lifetime_scan_unprotected_closed_form(floor, rate_r):
    # the fidelity (1 + e^{-rt})/2 crosses f at t* = -ln(2f - 1)/r; the
    # sampled crossing is a quantile of the failure time, so its standard
    # error is sqrt(q(1 - q)/n) over the density (3/4) r e^{-r t*} there
    trials = 30_000
    t_star = -math.log(2.0 * floor - 1.0) / rate_r
    q = (3.0 * floor - 1.0) / 2.0
    sigma = (math.sqrt(q * (1.0 - q) / trials)
             / (0.75 * rate_r * math.exp(-rate_r * t_star)))
    p = ProtocolParams(rate_r=rate_r, levels=0)
    for seed in range(20):
        scan = lifetime_scan("unprotected", p, floor, trials,
                             np.random.default_rng([63, seed]))
        # the same draws: one uniform per trial and register size, and qubit
        # 0 fails from T = -ln(1 - 4U/3)/r on (never when U >= 3/4)
        gen = np.random.default_rng([63, seed])
        for _, life in scan.points:
            assert abs(life - t_star) <= 4.5 * sigma, (seed, life, t_star)
            u = gen.random(trials)
            times = np.full(trials, np.inf)
            fails = u < 0.75
            times[fails] = -np.log1p(-u[fails] / 0.75) / rate_r
            # the exact crossing of this draw: the floor is met just before
            # the lifetime and not at it (bracketed at 1e-12 relative, so
            # the check does not hang on the last bit of log1p)
            before = np.count_nonzero(times < life * (1.0 - 1e-12))
            at = np.count_nonzero(times <= life * (1.0 + 1e-12))
            assert _fidelity(before, trials) >= floor
            assert _fidelity(at, trials) < floor


def test_lifetime_scan_unprotected_floor_below_asymptote():
    # the fidelity tends to 1/2, so a floor of 0.45 is never crossed: the
    # scan says so from its first draw instead of searching ever longer t
    p = ProtocolParams(rate_r=1.0, levels=0)
    gen = np.random.default_rng(64)
    with pytest.raises(RuntimeError, match="never crosses the floor"):
        lifetime_scan("unprotected", p, 0.45, 10_000, gen)
    ref = np.random.default_rng(64)
    ref.random(10_000)
    assert gen.bit_generator.state == ref.bit_generator.state


def test_lifetime_scan_unprotected_past_int64():
    # registers of 5**28 qubits and more overflow int64; the fit takes each
    # point's log exactly
    p = ProtocolParams(rate_r=1.0, levels=0)
    scan = lifetime_scan("unprotected", p, 2.0 / 3.0, 2000,
                         np.random.default_rng(65), levels_list=(0, 28, 40))
    assert [n for n, _ in scan.points] == [1, 5 ** 28, 5 ** 40]
    for _, life in scan.points:
        assert life == pytest.approx(math.log(3.0), abs=0.3)
    assert math.isfinite(scan.slope) and abs(scan.slope) < 0.05


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
