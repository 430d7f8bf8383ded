"""Decay-clock trajectories, band gadget, readout bounds, decode windows.

Frozen constants (time error bounds, good-probability deficit, window
integers) were computed once from the closed-form expressions with
independently checked inputs and pinned here.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from qmemsim.clock import (CHECKPOINT_BYTES, FLIP_BYTES, MAX_BITS,
                           MAX_DRAW_BYTES, ClockCheckpoints, ClockParams,
                           ClockTrajectory, DegenerateWindowError, LevelWindow,
                           ScheduleInfeasibleError,
                           checkpoint_times, first_exit, good_prob_bound,
                           is_good, max_time_error, mean_polarization,
                           sample_count_matrix, sample_passages,
                           sample_trajectory, sample_trajectory_checkpointed,
                           time_error_bound, time_estimate,
                           vertical_exit_rate_bound, window_passage,
                           window_schedule, _passage, _sort_flips)
from qmemsim.bounds import clock_size_for

REF = ClockParams(n_bits=4096, epsilon=0.4, t_max=2.0, rate_r=1.0)


def polarization_variance(t, params):
    """K (1 - e^{-2rt}): the independent-bit variance 4Kq(1-q) of k(t),
    q = (1 - e^{-rt})/2."""
    return -params.n_bits * math.expm1(-2.0 * params.rate_r * t)


def path(times, steps, n_bits, horizon):
    """Trajectory from K at time 0 that jumps by steps[i] at times[i]."""
    values = n_bits + np.cumsum(np.concatenate(([0], steps)), dtype=np.int64)
    return ClockTrajectory(edges=np.concatenate(([0.0], times, [horizon])),
                           values=values)


def steps_of(traj):
    return np.diff(traj.values)


def k_at(traj, t):
    """k(t): the value after the last flip at or before t."""
    k = traj.values[np.searchsorted(traj.times, t, side="right")]
    return int(k) if k.ndim == 0 else k


def no_flip_trajectory(params, horizon):
    return ClockTrajectory(edges=[0.0, horizon], values=[params.n_bits])


@pytest.mark.parametrize("kwargs", [
    dict(n_bits=15), dict(epsilon=0.0), dict(epsilon=0.5), dict(epsilon=-0.1),
    dict(t_max=0.0), dict(rate_r=0.0), dict(rate_r=-1.0),
])
def test_params_validation(kwargs):
    base = dict(n_bits=64, epsilon=0.25, t_max=1.0, rate_r=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        ClockParams(**base)


def test_minimum_register_size_allowed():
    p = ClockParams(n_bits=16, epsilon=0.25, t_max=1.0, rate_r=1.0)
    assert p.band_half_width == pytest.approx(16.0 ** 0.75)


def test_samplers_bound_register_size_by_int64_sums():
    # polarization sums reach 2 K, which int64 holds below K = 2**62.  Each
    # sampler checks that before its first draw, so nothing is sampled
    # here; the closed-form bounds still take any K
    assert MAX_BITS == 2 ** 62 - 1
    for n_bits in (2 ** 62, 2 ** 63 - 1, 2 ** 63, 10 ** 19, 10 ** 21):
        params = ClockParams(n_bits=n_bits, epsilon=0.25, t_max=1.0,
                             rate_r=1.0)
        assert 0.0 < time_error_bound(params) < 1e-4
        schedule = (LevelWindow(level=1, t_start=0.5, k_on=n_bits // 2,
                                k_off=n_bits // 3),)
        for draw in (lambda gen: sample_trajectory(params, 1.0, gen),
                     lambda gen: sample_passages(params, 1.0, schedule,
                                                 0.1, 1, gen),
                     lambda gen: sample_count_matrix(params, [0.5], 1, gen),
                     lambda gen: sample_trajectory_checkpointed(
                         params, 0.5, 1.0, gen)):
            gen = np.random.default_rng(1)
            with pytest.raises(ValueError, match="int64"):
                draw(gen)
            assert gen.bit_generator.state == np.random.default_rng(
                1).bit_generator.state


# (K, r, horizon) just past MAX_DRAW_BYTES through each factor of the
# expected flip count K r horizon / 2, and at K = MAX_BITS
@pytest.mark.parametrize("n_bits, rate_r, horizon", [
    (MAX_BITS, 1.0, 1.0), (53_687_092, 1.0, 1.0), (4096, 1.0, 13_108.0),
    (4096, 1000.0, 13.108)])
def test_sample_trajectory_past_draw_budget_rejected_before_any_draw(
        n_bits, rate_r, horizon):
    predicted = FLIP_BYTES * n_bits * rate_r * horizon / 2.0
    assert predicted > MAX_DRAW_BYTES
    params = ClockParams(n_bits=n_bits, epsilon=0.25, t_max=horizon,
                         rate_r=rate_r)
    gen = np.random.default_rng(5)
    with pytest.raises(ScheduleInfeasibleError,
                       match=re.escape(f"allocate {predicted:.3g} bytes")):
        sample_trajectory(params, horizon, gen)
    assert gen.bit_generator.state == np.random.default_rng(
        5).bit_generator.state


def test_sample_trajectory_peak_within_prediction():
    # 250 000 expected flips: the peak allocation is at most the prediction
    # the budget check reads, FLIP_BYTES a flip, and more than half of it
    params = ClockParams(n_bits=1_000_000, epsilon=0.25, t_max=0.5,
                         rate_r=1.0)
    sample_trajectory(REF, 0.1, np.random.default_rng(6))  # one-time costs
    tracemalloc.start()
    try:
        sample_trajectory(params, 0.5, np.random.default_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    predicted = FLIP_BYTES * 250_000
    assert predicted / 2 < peak <= predicted, (peak, predicted)


def test_band_half_width():
    assert REF.band_half_width == pytest.approx(4096.0 ** 0.9, rel=1e-15)


def test_mean_and_variance_formulas():
    assert mean_polarization(0.0, REF) == 4096.0
    assert mean_polarization(1.0, REF) == pytest.approx(4096.0 * math.exp(-1.0))
    assert polarization_variance(0.0, REF) == 0.0
    assert polarization_variance(2.0, REF) == pytest.approx(
        4096.0 * (1.0 - math.exp(-4.0)))
    # variance equals 4 K q (1 - q) for the binomial bit count
    q = (1.0 - math.exp(-0.7)) / 2.0
    assert polarization_variance(0.7, REF) == pytest.approx(
        4.0 * 4096.0 * q * (1.0 - q), rel=1e-12)


def test_time_estimate_inversion_and_clamps():
    for t in (0.1, 0.5, 1.7):
        assert time_estimate(mean_polarization(t, REF), REF) == pytest.approx(
            t, abs=1e-12)
    assert time_estimate(0, REF) == REF.t_max
    assert time_estimate(-3, REF) == REF.t_max
    assert time_estimate(REF.n_bits, REF) == 0.0
    assert time_estimate(1e-9, REF) == REF.t_max  # clamp beats huge log
    est = time_estimate(np.array([4096, 0, 2048]), REF)
    assert est.shape == (3,)
    assert est[1] == REF.t_max


def test_time_error_bound_frozen():
    assert time_error_bound(REF) == pytest.approx(3.21627347457537, rel=1e-12)
    big = ClockParams(n_bits=100_000_000, epsilon=0.25, t_max=2.0, rate_r=1.0)
    # r K^{1/4} = 100 exactly, so the bound is e^2 / 100
    assert time_error_bound(big) == pytest.approx(0.0738905609893065, rel=1e-12)
    assert time_error_bound(big) == pytest.approx(math.exp(2.0) / 100.0, rel=1e-14)


def test_good_prob_bound_frozen_and_vacuous_flag():
    gpb = good_prob_bound(REF)
    assert gpb.value == 1.0  # deficit underflows the subtraction
    assert gpb.deficit == pytest.approx(6.085273776041149e-39, rel=1e-12)
    assert not gpb.vacuous
    # huge register: deficit is exactly 0 in float
    big = ClockParams(n_bits=100_000_000, epsilon=0.25, t_max=2.0, rate_r=1.0)
    gpb_big = good_prob_bound(big)
    assert gpb_big.value == 1.0 and gpb_big.deficit == 0.0
    # tiny register: the bound goes negative and must be flagged, not raised
    weak = good_prob_bound(ClockParams(n_bits=64, epsilon=0.1, t_max=1.0,
                                       rate_r=1.0))
    assert weak.value < 0.0 and weak.vacuous


def test_vertical_exit_rate_bound_monotone_in_register():
    small = ClockParams(n_bits=4096, epsilon=0.4, t_max=2.0, rate_r=1.0)
    large = ClockParams(n_bits=8192, epsilon=0.4, t_max=2.0, rate_r=1.0)
    assert vertical_exit_rate_bound(large) < vertical_exit_rate_bound(small)
    assert vertical_exit_rate_bound(small) < 1e-30


def test_clock_size_for_frozen_and_semantics():
    # tau = 0, r = 1, delta = 0.1: base 20, exponents 3 and 4
    assert clock_size_for(0.0, 1.0, 0.1, 1.0 / 6.0) == 8000
    assert clock_size_for(0.0, 1.0, 0.1, 0.25) == 160_000
    assert clock_size_for(0.0, 1.0, 1e6, 0.25) == 16  # clamped to minimum
    with pytest.raises(ValueError):
        clock_size_for(1.0, 1.0, 0.0, 0.25)
    gen = np.random.default_rng(12)
    for _ in range(100):
        tau = float(gen.uniform(0.0, 2.0))
        r = float(gen.uniform(0.5, 2.0))
        delta = float(gen.uniform(1e-4, 1e-1))
        eps = float(gen.uniform(0.05, 0.45))
        k = clock_size_for(tau, r, delta, eps)
        sized = ClockParams(n_bits=k, epsilon=eps, t_max=tau or 1e-9, rate_r=r)
        assert 2.0 * time_error_bound(sized) <= delta * (1.0 + 1e-9)
        if k // 2 >= 16:
            half = ClockParams(n_bits=k // 2, epsilon=eps, t_max=tau or 1e-9,
                               rate_r=r)
            assert 2.0 * time_error_bound(half) > delta


def test_sample_trajectory_structure():
    params = ClockParams(n_bits=64, epsilon=0.25, t_max=1.0, rate_r=1.0)
    traj = sample_trajectory(params, horizon=1.5, rng=np.random.default_rng(7))
    assert np.all(np.diff(traj.times) >= 0)
    assert traj.times.size == 0 or (traj.times[0] >= 0 and traj.times[-1] <= 1.5)
    assert set(np.unique(steps_of(traj))).issubset({-2, 2})
    # a fresh register's first flip is always downward
    if len(traj):
        assert steps_of(traj)[0] == -2
    assert np.abs(traj.values).max() <= 64
    with pytest.raises(ValueError):
        sample_trajectory(params, horizon=0.0, rng=np.random.default_rng(1))


def argsort_sample_trajectory(params, horizon, rng):
    """Reference sampler: the same draws, merged by one argsort over all flips."""
    gen = np.random.default_rng(rng)
    mu = params.rate_r * horizon / 2.0
    times_parts, steps_parts = [], []
    sf = -math.expm1(-mu)
    pmf = math.exp(-mu)
    n_ge = int(gen.binomial(params.n_bits, sf))
    j = 1
    while n_ge > 0:
        pmf *= mu / j
        sf_next = max(sf - pmf, 0.0)
        ratio = min(sf_next / sf, 1.0) if sf > 0 else 0.0
        n_ge_next = int(gen.binomial(n_ge, ratio))
        m = n_ge - n_ge_next
        if m:
            t = np.sort(gen.random((m, j)), axis=1).ravel() * horizon
            s = np.empty((m, j), dtype=np.int8)
            s[:, 0::2] = -2
            s[:, 1::2] = 2
            times_parts.append(t)
            steps_parts.append(s.ravel())
        n_ge, sf = n_ge_next, sf_next
        j += 1
    if not times_parts:
        return np.empty(0, dtype=float), np.empty(0, dtype=np.int8)
    times = np.concatenate(times_parts)
    steps = np.concatenate(steps_parts)
    order = np.argsort(times)
    return times[order], steps[order]


@pytest.mark.parametrize("n_bits", [16, 4096, 1_000_000])
@pytest.mark.parametrize("mu", [0.005, 0.05, 0.5, 1.5])
def test_sample_trajectory_matches_argsort_reference(n_bits, mu):
    params = ClockParams(n_bits=n_bits, epsilon=0.25, t_max=1.0, rate_r=1.0)
    horizon = 2.0 * mu
    for seed in (30, 31, 32):
        traj = sample_trajectory(params, horizon,
                                 np.random.default_rng([seed, n_bits]))
        times, steps = argsort_sample_trajectory(
            params, horizon, np.random.default_rng([seed, n_bits]))
        assert traj.times.dtype == times.dtype
        assert traj.values.dtype == np.int64
        assert traj.times.tobytes() == times.tobytes()
        assert steps_of(traj).tobytes() == steps.astype(np.int64).tobytes()


def test_flip_steps_puts_up_flips_after_equal_down_flips():
    # times drawn from a few values, so most up times tie with down times
    # and with each other; the steps must be those of a stable argsort of
    # (downs, ups), whatever order the flips come in
    gen = np.random.default_rng(35)
    for n_down, n_up, n_values in [(0, 0, 8), (7, 0, 8), (0, 5, 8),
                                   (0, 30, 4), (40, 3, 8), (3, 6, 8),
                                   (200, 8, 8), (5000, 400, 50)]:
        down = gen.integers(0, n_values, n_down).astype(float)
        up = gen.integers(0, n_values, n_up).astype(float)
        all_times = np.concatenate((down, up))
        all_steps = np.concatenate((np.full(n_down, -2, dtype=np.int8),
                                    np.full(n_up, 2, dtype=np.int8)))
        order = np.argsort(all_times, kind="stable")
        shuffle = gen.permutation(all_times.size)
        times = all_times[shuffle]
        steps = _sort_flips(times, all_steps[shuffle] > 0)
        assert times.tobytes() == all_times[order].tobytes()
        assert steps.dtype == np.int8
        assert steps.tobytes() == all_steps[order].tobytes()
        # rows of a 2-D array sort one by one, with inf as padding
        rows = np.stack([times[::-1], np.full(times.size, np.inf)])
        rows[1, :n_up] = up
        steps = _sort_flips(rows, np.stack([all_steps[order][::-1] > 0,
                                            np.arange(times.size) < n_up]))
        assert rows[0].tobytes() == times.tobytes()
        assert steps[0].tobytes() == all_steps[order].tobytes()
        assert np.array_equal(rows[1, :n_up], np.sort(up))
        assert np.all(rows[1, n_up:] == np.inf) and np.all(steps[1, :n_up] == 2)


def test_piece_view_matches_concatenation():
    params = ClockParams(n_bits=4096, epsilon=0.25, t_max=1.0, rate_r=1.0)
    traj = sample_trajectory(params, 1.2, np.random.default_rng(33))
    assert traj.n_bits == traj.values[0] == 4096 and traj.horizon == 1.2
    assert traj.edges[0] == 0.0 and traj.edges[-1] == 1.2
    assert len(traj) == traj.times.size == traj.values.size - 1
    for upto in (0.0, 0.37, 1.0, 1.2, 1.5):
        m = int(np.searchsorted(traj.times, upto, side="right"))
        expected = np.concatenate(([0.0], traj.times[:m], [upto]))
        values = np.concatenate(([4096], traj.values[1:m + 1]))
        edges, vals = traj.piece_edges(upto)
        assert np.array_equal(edges, expected)
        assert np.array_equal(vals, values)
    # over the whole horizon the pieces are views of the trajectory's
    # arrays, and its times are the interior of its edges
    edges, vals = traj.piece_edges(traj.horizon)
    assert np.shares_memory(edges, traj.edges)
    assert np.shares_memory(vals, traj.values)
    assert np.shares_memory(traj.times, traj.edges)
    # and read-only, so no caller can corrupt the trajectory
    for view in (edges, vals, traj.edges, traj.values, traj.times):
        with pytest.raises(ValueError):
            view[0] = 0


def test_inconsistent_steps_rejected():
    # a path below -K is rejected when it is built
    with pytest.raises(ValueError):
        path([0.1, 0.2], [-2, -40], n_bits=16, horizon=1.0)
    # and so is one above K, for registers on both sides of 2^31
    for n_bits in (16, 2**31 - 129, 2**31 - 10, 2**40):
        with pytest.raises(ValueError):
            path([0.1, 0.2, 0.3], [127, 127, -2], n_bits=n_bits, horizon=1.0)
    # the edges must bound the pieces: one more edge than values
    with pytest.raises(ValueError):
        ClockTrajectory(edges=[0.0, 0.5, 1.0], values=[16])
    with pytest.raises(ValueError):
        ClockTrajectory(edges=[0.0], values=[])


def test_trajectory_parity_and_k_at():
    params = ClockParams(n_bits=64, epsilon=0.25, t_max=1.0, rate_r=1.0)
    traj = sample_trajectory(params, horizon=1.0, rng=np.random.default_rng(8))
    ks = k_at(traj, np.linspace(0.0, 1.0, 17))
    assert np.all((64 - ks) % 2 == 0)  # steps of +-2 preserve parity
    assert k_at(traj, 0.0) == 64
    edges, values = traj.piece_edges(1.0)
    starts, ends = edges[:-1], edges[1:]
    assert starts[0] == 0.0 and ends[-1] == 1.0
    assert np.all(starts[1:] == ends[:-1])
    mid = (starts + ends) / 2.0
    assert np.array_equal(k_at(traj, mid), values)


def test_trajectory_marginal_moments():
    params = ClockParams(n_bits=64, epsilon=0.25, t_max=2.0, rate_r=1.0)
    trials, t_obs = 3000, 0.7
    ks = np.array([k_at(sample_trajectory(params, 1.5,
                                          np.random.default_rng([21, i])),
                        t_obs)
                   for i in range(trials)], dtype=float)
    mean = mean_polarization(t_obs, params)
    var = polarization_variance(t_obs, params)
    assert abs(ks.mean() - mean) < 5.0 * math.sqrt(var / trials)
    assert abs(ks.var() - var) < 0.15 * var


def test_trajectory_conditional_decay():
    # given k(t1), the mean of k(t2) is k(t1) e^{-r (t2 - t1)}
    params = ClockParams(n_bits=64, epsilon=0.25, t_max=2.0, rate_r=1.0)
    trials, t1, t2 = 3000, 0.4, 1.0
    resid = np.empty(trials)
    for i in range(trials):
        traj = sample_trajectory(params, 1.5, np.random.default_rng([22, i]))
        resid[i] = k_at(traj, t2) - k_at(traj, t1) * math.exp(-(t2 - t1))
    assert abs(resid.mean()) < 4.0 * resid.std(ddof=1) / math.sqrt(trials)


def test_expected_flip_count():
    # each bit flips at Poisson rate r/2, so total events ~ K r h / 2
    params = ClockParams(n_bits=256, epsilon=0.25, t_max=2.0, rate_r=1.0)
    counts = [len(sample_trajectory(params, 2.0,
                                    np.random.default_rng([23, i])))
              for i in range(200)]
    expected = 256 * 1.0 * 2.0 / 2.0
    sigma = math.sqrt(expected / 200)
    assert abs(np.mean(counts) - expected) < 5.0 * sigma


def test_checkpoint_times_grid():
    times = checkpoint_times(0.3, 1.0)
    assert times.tolist() == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    exact = checkpoint_times(0.25, 1.0)
    assert exact.tolist() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert exact[-1] == 1.0
    with pytest.raises(ValueError):
        checkpoint_times(0.0, 1.0)
    with pytest.raises(ValueError):
        checkpoint_times(2.0, 1.0)


# K 1e8 over [0, 1]: spacing 1e-12 makes 1e12 checkpoints, 5.6e13 bytes;
# the 201 checkpoints of acceptance criterion 4 (spacing 0.01 over 2.0)
# take 1.1e4, about 1e-5 of the budget
def test_checkpointed_past_draw_budget_rejected_before_any_draw():
    params = ClockParams(n_bits=100_000_000, epsilon=0.25, t_max=1.0,
                         rate_r=1.0)
    predicted = CHECKPOINT_BYTES * (1.0 / 1e-12 + 2)
    assert predicted > MAX_DRAW_BYTES
    assert CHECKPOINT_BYTES * (2.0 / 0.01 + 2) < 2e-5 * MAX_DRAW_BYTES
    gen = np.random.default_rng(7)
    with pytest.raises(ScheduleInfeasibleError,
                       match=re.escape(f"allocate {predicted:.3g} bytes")):
        sample_trajectory_checkpointed(params, 1e-12, 1.0, gen)
    assert gen.bit_generator.state == np.random.default_rng(
        7).bit_generator.state


def test_checkpointed_peak_within_prediction():
    # 20 001 checkpoints: the peak allocation of the draw and of is_good
    # and max_time_error on it, as clock-verify runs them, is at most the
    # prediction the budget check reads and more than half of it
    params = ClockParams(n_bits=100_000_000, epsilon=0.25, t_max=1.0,
                         rate_r=1.0)
    gen = np.random.default_rng(8)
    traj = sample_trajectory_checkpointed(params, 0.1, 1.0, gen)
    is_good(traj, params), max_time_error(traj, params)  # one-time costs
    tracemalloc.start()
    try:
        traj = sample_trajectory_checkpointed(params, 5e-5, 1.0, gen)
        is_good(traj, params), max_time_error(traj, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.size == 20_001
    predicted = CHECKPOINT_BYTES * (1.0 / 5e-5 + 2)
    assert predicted / 2 < peak <= predicted, (peak, predicted)


def test_count_matrix_moments():
    params = ClockParams(n_bits=256, epsilon=0.25, t_max=2.0, rate_r=1.0)
    times = np.array([0.5, 1.0])
    n = sample_count_matrix(params, times, 4000, np.random.default_rng(24))
    assert n.shape == (4000, 2)
    for c, t in enumerate(times):
        k = 2 * n[:, c] - 256
        mean = mean_polarization(t, params)
        var = polarization_variance(t, params)
        assert abs(k.mean() - mean) < 5.0 * math.sqrt(var / 4000)
    with pytest.raises(ValueError):
        sample_count_matrix(params, np.array([1.0, 0.5]), 10,
                            np.random.default_rng(1))


def test_checkpointed_trajectory():
    params = ClockParams(n_bits=4096, epsilon=0.4, t_max=2.0, rate_r=1.0)
    traj = sample_trajectory_checkpointed(params, 0.05, 2.0,
                                          np.random.default_rng(25))
    assert isinstance(traj, ClockCheckpoints)
    assert traj.times[0] == 0.0 and traj.k_values[0] == 4096
    assert traj.times[-1] == 2.0
    assert isinstance(is_good(traj, params), bool)
    assert max_time_error(traj, params) >= 0.0


def test_is_good_requires_coverage():
    traj = no_flip_trajectory(REF, horizon=1.0)
    with pytest.raises(ValueError):
        is_good(traj, REF)


def test_band_analyses_require_coverage():
    # a no-flip trajectory stopping at 0.05 says nothing about [0.05, t_max]
    traj = no_flip_trajectory(REF, horizon=0.05)
    for analysis in (is_good, first_exit, max_time_error):
        with pytest.raises(ValueError, match=r"must cover \[0, t_max\]"):
            analysis(traj, REF)


def full_band_check(traj, params):
    """Reference band check over the whole piece arrays at once."""
    edges, values = traj.piece_edges(params.t_max)
    kbar = mean_polarization(edges, params)
    band = params.band_half_width
    return bool(np.all(values - kbar[1:] < band)
                and np.all(kbar[:-1] - values < band))


def crafted_band_path(violation=None, piece=None, n_flips=120):
    """K = 4096 path with a flip each time the mean reaches K-2, K-4, ...

    Only the given piece leaves the band: "lower" and "upper" move its value
    200 below or above the path, "horizontal" holds it constant past 80
    further mean flips (the band half-width at epsilon 0.1 is about 147).
    """
    n_path = n_flips + (80 if violation == "horizontal" else 0)
    times = np.log(4096.0 / (4096.0 - 2.0 * np.arange(1, n_path + 1)))
    ks = 4096 - 2 * np.arange(1, n_path + 1)
    if violation == "horizontal":
        keep = np.r_[0:piece, piece + 80:n_path]
        times, ks = times[keep], ks[keep]
    elif violation is not None:
        ks[piece - 1] += 200 if violation == "upper" else -200
    return ClockTrajectory(
        edges=np.concatenate(([0.0], times, [float(times[-1]) + 0.01])),
        values=np.concatenate(([4096], ks)))


@pytest.mark.parametrize("violation", ["lower", "upper", "horizontal"])
@pytest.mark.parametrize("piece", [103, 104, 107, 108, 109])
def test_chunked_band_check_matches_full_check(violation, piece):
    # one violating piece among many, at the pieces that ended or started a
    # chunk of 4 when the band check ran in chunks
    good_path = crafted_band_path(n_flips=200)
    traj = crafted_band_path(violation, piece)
    # t_max on a flip time or inside a piece around the violation, and at
    # the horizon
    near = traj.times[piece - 6:piece + 7]
    t_maxes = np.concatenate((near, 0.5 * (near[:-1] + near[1:]), [traj.horizon]))
    verdicts = set()
    for t_max in t_maxes:
        params = ClockParams(n_bits=4096, epsilon=0.1, t_max=float(t_max),
                             rate_r=1.0)
        verdict = is_good(traj, params)
        assert verdict == full_band_check(traj, params)
        assert verdict == (first_exit(traj, params) is None)
        assert is_good(good_path, params)
        assert full_band_check(good_path, params)
        verdicts.add(verdict)
    # t_max falls both before and after the violation
    assert verdicts == {True, False}


def test_chunked_band_check_without_flips():
    params = ClockParams(n_bits=4096, epsilon=0.1, t_max=0.01, rate_r=1.0)
    short = ClockParams(n_bits=4096, epsilon=0.1, t_max=0.02, rate_r=1.0)
    traj = no_flip_trajectory(params, horizon=2.0)
    # k = K stays within 147 of the mean until about t = 0.037
    assert is_good(traj, params) and full_band_check(traj, params)
    assert is_good(traj, short) and full_band_check(traj, short)
    assert not is_good(traj, REF) and not full_band_check(traj, REF)
    for p in (params, short, REF):
        assert is_good(traj, p) == (first_exit(traj, p) is None)


def test_is_good_agrees_with_first_exit():
    # a band about 1.5 sigma wide at t_max: both verdicts occur
    params = ClockParams(n_bits=4096, epsilon=0.05, t_max=2.0, rate_r=1.0)
    verdicts = []
    for i in range(200):
        traj = sample_trajectory(params, 2.0, np.random.default_rng([36, i]))
        verdicts.append(is_good(traj, params))
        assert verdicts[-1] == (first_exit(traj, params) is None)
    assert 0 < sum(verdicts) < 200


def test_no_flip_trajectory_exits_horizontally():
    traj = no_flip_trajectory(REF, horizon=2.0)
    assert not is_good(traj, REF)
    exit_ = first_exit(traj, REF)
    assert exit_ is not None
    t_star = math.log(4096.0 / (4096.0 - REF.band_half_width))
    assert exit_[1] == "horizontal"
    assert exit_[0] == pytest.approx(t_star, rel=1e-12)
    # constant k = K estimates time 0 forever: worst error is t_max
    assert max_time_error(traj, REF) == pytest.approx(REF.t_max)


def test_crafted_vertical_exit():
    # one huge downward jump at t = 0.1 lands far below the band
    traj = path([0.1], [-3000], n_bits=4096, horizon=2.0)
    exit_ = first_exit(traj, REF)
    assert exit_ == (pytest.approx(0.1), "vertical")
    assert not is_good(traj, REF)


# K = 4096 at epsilon 0.1: the band half-width 4096**0.6 is about 147, so
# k = K stays inside it until t = ln(4096 / (4096 - 147)), about 0.037
EDGE = dict(n_bits=4096, epsilon=0.1, rate_r=1.0)


def horizontal_time(k, params):
    """The instant at which the falling band's upper side reaches k."""
    band = params.band_half_width
    return math.log(params.n_bits / (k - band)) / params.rate_r


def test_first_exit_at_a_flip_at_t_max():
    # a flip at t_max itself lies in [0, t_max]: its jump 400 below the
    # mean exits there, and a t_max one ulp earlier never sees it
    traj = path([0.02], [-400], n_bits=4096, horizon=1.0)
    at = ClockParams(t_max=0.02, **EDGE)
    assert first_exit(traj, at) == (0.02, "vertical")
    before = ClockParams(t_max=math.nextafter(0.02, 0.0), **EDGE)
    assert first_exit(traj, before) is None


@pytest.mark.parametrize("t_max", [1.0, 2.0])
def test_first_exit_after_the_last_flip(t_max):
    # the one flip at 0.02 lands at 4016, 1 above the mean; the falling
    # band overtakes that constant k in the last piece, well before t_max
    # and before the horizon 2.0
    traj = path([0.02], [-80], n_bits=4096, horizon=2.0)
    params = ClockParams(t_max=t_max, **EDGE)
    assert first_exit(traj, params) == (
        pytest.approx(horizontal_time(4016, params), rel=1e-12), "horizontal")


@pytest.mark.parametrize("times, steps, k", [([], [], 4096),
                                             ([0.02], [-80], 4016)],
                         ids=["no flips", "one flip"])
def test_first_exit_decided_by_the_cut_of_the_last_piece(times, steps, k):
    # t_max just past or just short of the crossing in the last piece: only
    # the mean at t_max, the end of the cut piece, tells the two apart
    traj = path(times, steps, n_bits=4096, horizon=2.0)
    t_star = horizontal_time(k, ClockParams(t_max=1.0, **EDGE))
    after = ClockParams(t_max=t_star + 1e-9, **EDGE)
    assert first_exit(traj, after) == (pytest.approx(t_star, rel=1e-12),
                                       "horizontal")
    assert first_exit(traj, ClockParams(t_max=t_star - 1e-9, **EDGE)) is None


def test_good_trajectory_within_band():
    # follow the mean closely: stay good, no exit, small time error
    params = ClockParams(n_bits=4096, epsilon=0.4, t_max=0.5, rate_r=1.0)
    times = np.linspace(0.001, 0.5, 400)
    steps = np.full(400, -2)  # k falls 4096 -> 3296
    traj = path(times, steps, n_bits=4096, horizon=0.5)
    assert is_good(traj, params)
    assert first_exit(traj, params) is None
    assert max_time_error(traj, params) <= time_error_bound(params)


def test_monte_carlo_respects_bounds():
    # theorem bounds must hold empirically where they are non-vacuous
    trajs = [sample_trajectory(REF, 2.0, np.random.default_rng([27, i]))
             for i in range(300)]
    good_fraction = sum(first_exit(traj, REF) is None for traj in trajs) / 300
    gpb = good_prob_bound(REF)
    assert not gpb.vacuous
    assert good_fraction >= gpb.value - 3.0 * math.sqrt(
        gpb.deficit) - 1e-12
    delta_half = time_error_bound(REF)
    for traj in trajs:
        if is_good(traj, REF):
            assert max_time_error(traj, REF) <= delta_half


def test_large_register_readout_accuracy():
    # checkpointed large-K mode: good paths read time to within the bound
    params = ClockParams(n_bits=100_000_000, epsilon=0.25, t_max=2.0,
                         rate_r=1.0)
    delta_half = time_error_bound(params)
    n_good = 0
    for i in range(50):
        traj = sample_trajectory_checkpointed(params, 0.01, 2.0,
                                              np.random.default_rng([28, i]))
        if is_good(traj, params):
            n_good += 1
            assert max_time_error(traj, params) <= delta_half
    assert n_good == 50  # fluctuations ~ 1e4 vs band ~ 3e5


def test_window_schedule_frozen_example():
    params = ClockParams(n_bits=1_000_000, epsilon=1.0 / 6.0, t_max=1.0,
                         rate_r=1.0)
    sched = window_schedule(4, t_prot=0.025, t_dec=0.00125, params=params)
    assert isinstance(sched, tuple) and len(sched) == 4
    first = sched[0]
    assert first.level == 1 and first.t_start == pytest.approx(0.025)
    assert first.k_on == 975309  # floor(1e6 e^{-0.025})
    for w in sched:
        assert w.k_on > w.k_off
    for earlier, later in zip(sched, sched[1:]):
        assert later.k_on < earlier.k_off


@pytest.mark.parametrize("n_bits", [100_000, 1_000_000])
@pytest.mark.parametrize("t_dec", [0.00125, 0.005])
def test_window_schedule_disjoint(n_bits, t_dec):
    params = ClockParams(n_bits=n_bits, epsilon=1.0 / 6.0, t_max=1.0,
                         rate_r=1.0)
    sched = window_schedule(8, t_prot=0.025, t_dec=t_dec, params=params)
    for earlier, later in zip(sched, sched[1:]):
        assert later.k_on < earlier.k_off


def test_window_schedule_degenerate():
    # a 16-bit clock cannot resolve millisecond windows
    params = ClockParams(n_bits=16, epsilon=0.25, t_max=1.0, rate_r=1.0)
    with pytest.raises(DegenerateWindowError):
        window_schedule(1, t_prot=0.025, t_dec=0.00125, params=params)
    with pytest.raises(ValueError):
        window_schedule(0, t_prot=0.025, t_dec=0.00125, params=params)


def test_window_passage_crafted():
    window = LevelWindow(level=1, t_start=0.2, k_on=30, k_off=28)
    traj = path([0.2, 0.4, 1.0, 1.2], [-2, -2, 2, -2], n_bits=32, horizon=2.0)
    # in-window pieces: [0.2,0.4] k=30, [0.4,1.0] k=28, [1.0,1.2] k=30,
    # [1.2,2.0] k=28; active time accumulates 0.5 at t = 0.7
    decode, total = window_passage(traj, window, t_dec=0.5)
    assert decode == pytest.approx(0.7)
    assert total == pytest.approx(1.8)
    # dwell shorter than t_dec: decode at the last exit from the window
    decode, total = window_passage(traj, window, t_dec=5.0)
    assert decode == pytest.approx(2.0)
    # window never entered
    never = LevelWindow(level=1, t_start=0.2, k_on=20, k_off=18)
    assert window_passage(traj, never, t_dec=0.5) == (None, 0.0)


def full_scan_passage(traj, window, t_dec):
    """Reference window passage: mask and accumulate over every piece."""
    edges, values = traj.piece_edges(traj.horizon)
    starts, ends = edges[:-1], edges[1:]
    mask = (values >= window.k_off) & (values <= window.k_on)
    if not mask.any():
        return None, 0.0
    durs = (ends - starts)[mask]
    cum = np.cumsum(durs)
    total = float(cum[-1])
    if total >= t_dec:
        i = int(np.searchsorted(cum, t_dec, side="left"))
        return float(starts[mask][i] + (t_dec - (cum[i] - durs[i]))), total
    return float(ends[mask][-1]), total


def crafted(steps, times, n_bits=32, horizon=2.0):
    return path(times, steps, n_bits=n_bits, horizon=horizon)


@pytest.mark.parametrize("traj, window, t_dec", [
    # never entered: k stays above the window
    (crafted([-2, -2], [0.3, 0.6]), LevelWindow(1, 0.2, 20, 18), 0.5),
    # never entered: k jumps from above k_on straight below k_off
    (crafted([-2, -12, -2], [0.3, 0.6, 0.9]), LevelWindow(1, 0.2, 26, 22), 0.5),
    # never entered: k stays below the window
    (crafted([-30], [0.1]), LevelWindow(1, 0.2, 20, 18), 0.5),
    # left and re-entered: k bounces back above k_on in between
    (crafted([-2, -2, 2, 2, -2, -2, -2], [0.2, 0.4, 0.5, 0.7, 1.0, 1.3, 1.6]),
     LevelWindow(1, 0.2, 28, 26), 0.5),
    # left upward and re-entered after the accumulated time would have
    # sufficed had it stayed
    (crafted([-4, 4, -4, -2, -2, -2], [0.1, 0.3, 0.8, 0.9, 1.1, 1.9]),
     LevelWindow(1, 0.2, 28, 26), 0.45),
    # total occupancy below t_dec: decode at the last exit
    (crafted([-2, -2, -2, -2], [0.2, 0.3, 0.4, 0.5]),
     LevelWindow(1, 0.2, 28, 26), 0.5),
    # occupancy runs to the horizon
    (crafted([-2, -2], [0.2, 0.3]), LevelWindow(1, 0.2, 28, 26), 5.0),
    # window entered at the very first piece
    (crafted([-2], [0.4]), LevelWindow(1, 0.0, 32, 30), 0.3),
])
def test_window_passage_matches_full_scan(traj, window, t_dec):
    assert window_passage(traj, window, t_dec) == full_scan_passage(
        traj, window, t_dec)


def test_window_passage_on_band_exiting_trajectory():
    # one huge downward jump leaves the band; the window past the jump is
    # still occupied and timed exactly
    traj = crafted([-2, -3000, 2, 2], [0.1, 0.3, 0.5, 1.5], n_bits=4096)
    assert not is_good(traj, REF)
    window = LevelWindow(1, 0.2, 1100, 1090)
    assert window_passage(traj, window, 0.4) == full_scan_passage(
        traj, window, 0.4)
    # in-window pieces: [0.3,0.5] k=1094, [0.5,1.5] k=1096, [1.5,2.0] k=1098
    assert window_passage(traj, window, 0.4) == (pytest.approx(0.7),
                                                 pytest.approx(1.7))
    # sampled trajectories with a narrow band: good and bad ones alike
    params = ClockParams(n_bits=1024, epsilon=0.05, t_max=1.0, rate_r=1.0)
    sched = window_schedule(2, t_prot=0.3, t_dec=0.05, params=params)
    n_bad = 0
    for i in range(40):
        traj = sample_trajectory(params, 1.0, np.random.default_rng([34, i]))
        n_bad += not is_good(traj, params)
        for w in sched:
            assert window_passage(traj, w, 0.05) == full_scan_passage(
                traj, w, 0.05)
    assert n_bad > 0


def mean_path_passage(window, params, t_dec):
    """Window passage of the noise-free path k(t) = k_mean(t): its one
    inside segment runs from k_mean = k_on to k_mean = k_off."""
    t_enter = math.log(params.n_bits / window.k_on) / params.rate_r
    t_exit = math.log(params.n_bits / window.k_off) / params.rate_r
    return _passage(np.array([t_enter]), np.array([t_exit]), t_dec)


def test_deterministic_passage():
    params = ClockParams(n_bits=1_000_000, epsilon=1.0 / 6.0, t_max=1.0,
                         rate_r=1.0)
    sched = window_schedule(2, t_prot=0.025, t_dec=0.00125, params=params)
    w = sched[0]
    t_enter = math.log(1_000_000 / w.k_on)
    t_exit = math.log(1_000_000 / w.k_off)
    decode, total = mean_path_passage(w, params, t_dec=0.00125)
    assert total == pytest.approx(t_exit - t_enter, rel=1e-12)
    # integer windows round inward, so the mean path dwells slightly less
    # than t_dec and decodes at the window exit
    assert total < 0.00125
    assert decode == pytest.approx(t_exit, rel=1e-12)
    assert decode == pytest.approx(w.t_start + 0.00125, abs=3e-6)
    # a generous hand-made window dwells past t_dec and decodes mid-window
    wide = LevelWindow(level=1, t_start=0.5, k_on=630_000, k_off=440_000)
    decode, total = mean_path_passage(wide, params, t_dec=0.3)
    assert total >= 0.3
    assert decode == pytest.approx(math.log(1e6 / 630_000) + 0.3, rel=1e-12)


def test_event_and_mean_passages_agree_for_large_registers():
    params = ClockParams(n_bits=1_000_000, epsilon=1.0 / 6.0, t_max=1.0,
                         rate_r=1.0)
    sched = window_schedule(1, t_prot=0.2, t_dec=0.05, params=params)
    w = sched[0]
    det_decode, _ = mean_path_passage(w, params, t_dec=0.05)
    traj = sample_trajectory(
        ClockParams(n_bits=4096, epsilon=1.0 / 6.0, t_max=1.0, rate_r=1.0),
        1.0, np.random.default_rng(29))
    # scale the window to the smaller register to keep sampling cheap
    small = window_schedule(1, t_prot=0.2, t_dec=0.05,
                            params=ClockParams(n_bits=4096, epsilon=1.0 / 6.0,
                                               t_max=1.0, rate_r=1.0))
    decode, total = window_passage(traj, small[0], t_dec=0.05)
    assert decode is not None
    # fluctuation scale sqrt(K)/K ~ 1.6% of the rate: generous window
    assert decode == pytest.approx(det_decode, abs=0.05)
