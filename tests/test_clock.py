"""Decay-clock trajectories, band gadget, readout bounds, decode windows.

Frozen constants (time error bounds, good-probability deficit, window
integers) were computed once from the closed-form expressions with
independently checked inputs and pinned here.
"""

import math

import numpy as np
import pytest

from qmemsim.clock import (ClockCheckpoints, ClockParams, ClockTrajectory,
                           DegenerateWindowError, LevelWindow, checkpoint_times,
                           deterministic_passage, first_exit,
                           good_prob_bound, is_good, max_time_error,
                           mean_polarization, polarization_variance,
                           sample_count_matrix, sample_trajectory,
                           sample_trajectory_checkpointed, time_error_bound,
                           time_estimate, vertical_exit_rate_bound,
                           window_passage, window_schedule, _merge_by_time)
from qmemsim.bounds import clock_size_for

REF = ClockParams(n_bits=4096, epsilon=0.4, t_max=2.0, rate_r=1.0)


def no_flip_trajectory(params, horizon):
    return ClockTrajectory(times=np.empty(0), steps=np.empty(0, dtype=np.int8),
                           n_bits=params.n_bits, horizon=horizon)


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
    assert set(np.unique(traj.steps)).issubset({-2, 2})
    # a fresh register's first flip is always downward
    if len(traj):
        assert traj.steps[0] == -2
    assert np.abs(traj.k_values).max() <= 64
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
        assert traj.steps.dtype == steps.dtype
        assert traj.times.tobytes() == times.tobytes()
        assert traj.steps.tobytes() == steps.tobytes()


def test_merge_by_time_puts_multi_flips_after_equal_single_flips():
    # single-flip times drawn from a few values, so most multi-flip times
    # tie with some; the merge must order them as a stable argsort of
    # (single, multi) would (multi-flip times are distinct among themselves)
    gen = np.random.default_rng(35)
    for n_single, n_multi, n_values in [(0, 0, 8), (0, 5, 8), (7, 0, 8),
                                        (40, 3, 8), (3, 6, 8), (200, 8, 8),
                                        (5000, 40, 50)]:
        single = np.sort(gen.integers(0, n_values, n_single).astype(float))
        multi = gen.permutation(n_values)[:n_multi].astype(float)
        multi_steps = gen.choice(np.array([-2, 2], dtype=np.int8), n_multi)
        times = np.empty(n_single + n_multi)
        steps = _merge_by_time(single, multi, multi_steps, times)
        all_times = np.concatenate((single, multi))
        all_steps = np.concatenate((np.full(n_single, -2, dtype=np.int8),
                                    multi_steps))
        order = np.argsort(all_times, kind="stable")
        assert times.tobytes() == all_times[order].tobytes()
        assert steps.tobytes() == all_steps[order].tobytes()


def test_piece_view_matches_concatenation():
    params = ClockParams(n_bits=4096, epsilon=0.25, t_max=1.0, rate_r=1.0)
    traj = sample_trajectory(params, 1.2, np.random.default_rng(33))
    assert np.array_equal(traj.k_values,
                          4096 + np.cumsum(traj.steps, dtype=np.int64))
    for upto in (0.0, 0.37, 1.0, 1.2, 1.5):
        m = int(np.searchsorted(traj.times, upto, side="right"))
        expected = np.concatenate(([0.0], traj.times[:m], [upto]))
        values = np.concatenate(([4096], traj.k_values[:m]))
        edges, vals = traj.piece_edges(upto)
        assert np.array_equal(edges, expected)
        assert np.array_equal(vals, values)
    # over the whole horizon the pieces are views of the cached arrays, and
    # a sampled trajectory's times are the interior of its edge buffer
    edges, vals = traj.piece_edges(traj.horizon)
    assert np.shares_memory(edges, traj.edges)
    assert np.shares_memory(vals, traj.piece_values)
    assert np.shares_memory(traj.times, traj.edges)
    # and read-only, so no caller can corrupt the cached trajectory
    for view in (edges, vals, traj.edges, traj.k_values, traj.times):
        with pytest.raises(ValueError):
            view[0] = 0


def test_inconsistent_steps_rejected():
    traj = ClockTrajectory(times=np.array([0.1, 0.2]),
                           steps=np.array([-2, -40], dtype=np.int64),
                           n_bits=16, horizon=1.0)
    with pytest.raises(ValueError):
        traj.k_values
    # int8 steps, summed in int32 below K = 2^31 - 128 and in int64 above:
    # the first sum past K is exact either way, though the next would wrap
    for n_bits in (16, 2**31 - 129, 2**31 - 10):
        traj = ClockTrajectory(times=np.array([0.1, 0.2, 0.3]),
                               steps=np.array([127, 127, -2], dtype=np.int8),
                               n_bits=n_bits, horizon=1.0)
        with pytest.raises(ValueError):
            traj.k_values


def test_trajectory_parity_and_k_at():
    params = ClockParams(n_bits=64, epsilon=0.25, t_max=1.0, rate_r=1.0)
    traj = sample_trajectory(params, horizon=1.0, rng=np.random.default_rng(8))
    ks = traj.k_at(np.linspace(0.0, 1.0, 17))
    assert np.all((64 - ks) % 2 == 0)  # steps of +-2 preserve parity
    assert traj.k_at(0.0) == 64
    edges, values = traj.piece_edges(1.0)
    starts, ends = edges[:-1], edges[1:]
    assert starts[0] == 0.0 and ends[-1] == 1.0
    assert np.all(starts[1:] == ends[:-1])
    mid = (starts + ends) / 2.0
    assert np.array_equal(traj.k_at(mid), values)


def test_trajectory_marginal_moments():
    params = ClockParams(n_bits=64, epsilon=0.25, t_max=2.0, rate_r=1.0)
    trials, t_obs = 3000, 0.7
    ks = np.array([sample_trajectory(params, 1.5,
                                     np.random.default_rng([21, i])).k_at(t_obs)
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
        resid[i] = traj.k_at(t2) - traj.k_at(t1) * math.exp(-(t2 - t1))
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
    steps = np.diff(np.concatenate(([4096], ks)))
    return ClockTrajectory(times=times, steps=steps, n_bits=4096,
                           horizon=float(times[-1]) + 0.01)


@pytest.mark.parametrize("violation", ["lower", "upper", "horizontal"])
@pytest.mark.parametrize("piece", [103, 104, 107, 108, 109])
def test_chunked_band_check_matches_full_check(monkeypatch, violation, piece):
    # chunks of 4 pieces: pieces 103/107 end a chunk, 104/108 start one
    monkeypatch.setattr("qmemsim.clock._BAND_CHUNK", 4)
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
        assert is_good(good_path, params)
        assert full_band_check(good_path, params)
        verdicts.add(verdict)
    # t_max falls both before and after the violation
    assert verdicts == {True, False}


def test_chunked_band_check_without_flips(monkeypatch):
    monkeypatch.setattr("qmemsim.clock._BAND_CHUNK", 4)
    params = ClockParams(n_bits=4096, epsilon=0.1, t_max=0.01, rate_r=1.0)
    short = ClockParams(n_bits=4096, epsilon=0.1, t_max=0.02, rate_r=1.0)
    traj = no_flip_trajectory(params, horizon=2.0)
    # k = K stays within 147 of the mean until about t = 0.037
    assert is_good(traj, params) and full_band_check(traj, params)
    assert is_good(traj, short) and full_band_check(traj, short)
    assert not is_good(traj, REF) and not full_band_check(traj, REF)


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
    traj = ClockTrajectory(times=np.array([0.1]),
                           steps=np.array([-3000], dtype=np.int64),
                           n_bits=4096, horizon=2.0)
    exit_ = first_exit(traj, REF)
    assert exit_ == (pytest.approx(0.1), "vertical")
    assert not is_good(traj, REF)


def test_good_trajectory_within_band():
    # follow the mean closely: stay good, no exit, small time error
    params = ClockParams(n_bits=4096, epsilon=0.4, t_max=0.5, rate_r=1.0)
    times = np.linspace(0.001, 0.5, 400)
    steps = np.full(400, -2, dtype=np.int64)  # k falls 4096 -> 3296
    traj = ClockTrajectory(times=times, steps=steps, n_bits=4096, horizon=0.5)
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
    assert len(sched) == 4
    first = sched.windows[0]
    assert first.level == 1 and first.t_start == pytest.approx(0.025)
    assert first.k_on == 975309  # floor(1e6 e^{-0.025})
    for w in sched:
        assert w.k_on > w.k_off
    for earlier, later in zip(sched.windows, sched.windows[1:]):
        assert later.k_on < earlier.k_off


@pytest.mark.parametrize("n_bits", [100_000, 1_000_000])
@pytest.mark.parametrize("t_dec", [0.00125, 0.005])
def test_window_schedule_disjoint(n_bits, t_dec):
    params = ClockParams(n_bits=n_bits, epsilon=1.0 / 6.0, t_max=1.0,
                         rate_r=1.0)
    sched = window_schedule(8, t_prot=0.025, t_dec=t_dec, params=params)
    for earlier, later in zip(sched.windows, sched.windows[1:]):
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
    traj = ClockTrajectory(times=np.array([0.2, 0.4, 1.0, 1.2]),
                           steps=np.array([-2, -2, 2, -2], dtype=np.int64),
                           n_bits=32, horizon=2.0)
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
    return ClockTrajectory(times=np.asarray(times, dtype=float),
                           steps=np.asarray(steps, dtype=np.int64),
                           n_bits=n_bits, horizon=horizon)


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


def test_deterministic_passage():
    params = ClockParams(n_bits=1_000_000, epsilon=1.0 / 6.0, t_max=1.0,
                         rate_r=1.0)
    sched = window_schedule(2, t_prot=0.025, t_dec=0.00125, params=params)
    w = sched.windows[0]
    t_enter = math.log(1_000_000 / w.k_on)
    t_exit = math.log(1_000_000 / w.k_off)
    decode, total = deterministic_passage(w, params, t_dec=0.00125)
    assert total == pytest.approx(t_exit - t_enter, rel=1e-12)
    # integer windows round inward, so the mean path dwells slightly less
    # than t_dec and decodes at the window exit
    assert total < 0.00125
    assert decode == pytest.approx(t_exit, rel=1e-12)
    assert decode == pytest.approx(w.t_start + 0.00125, abs=3e-6)
    # a generous hand-made window dwells past t_dec and decodes mid-window
    wide = LevelWindow(level=1, t_start=0.5, k_on=630_000, k_off=440_000)
    decode, total = deterministic_passage(wide, params, t_dec=0.3)
    assert total >= 0.3
    assert decode == pytest.approx(math.log(1e6 / 630_000) + 0.3, rel=1e-12)


def test_event_and_mean_passages_agree_for_large_registers():
    params = ClockParams(n_bits=1_000_000, epsilon=1.0 / 6.0, t_max=1.0,
                         rate_r=1.0)
    sched = window_schedule(1, t_prot=0.2, t_dec=0.05, params=params)
    w = sched.windows[0]
    det_decode, _ = deterministic_passage(w, params, t_dec=0.05)
    traj = sample_trajectory(
        ClockParams(n_bits=4096, epsilon=1.0 / 6.0, t_max=1.0, rate_r=1.0),
        1.0, np.random.default_rng(29))
    # scale the window to the smaller register to keep sampling cheap
    small = window_schedule(1, t_prot=0.2, t_dec=0.05,
                            params=ClockParams(n_bits=4096, epsilon=1.0 / 6.0,
                                               t_max=1.0, rate_r=1.0))
    decode, total = window_passage(traj, small.windows[0], t_dec=0.05)
    assert decode is not None
    # fluctuation scale sqrt(K)/K ~ 1.6% of the rate: generous window
    assert decode == pytest.approx(det_decode, abs=0.05)
