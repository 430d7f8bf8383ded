"""clock.sample_passages: the refine-and-certify pass-1 sampler.

Its law must be that of sample_trajectory followed by is_good and
window_passage.  The exactness gate compares the two in distribution with
the tests of distribution_gate, at thresholds fixed before any run; the
structural tests pin what needs no statistics.
"""

import math

import numpy as np
import pytest

from distribution_gate import (GATE_ALPHA, compare_passages,
                               passage_outcomes, passage_samplers)
from qmemsim import clock
from qmemsim.clock import (ClockParams, refinement_pays, sample_passages,
                           window_schedule)

T_PROT, T_DEC = 0.5, 0.3


def gate(params, leaf_bits, trials, seed, monkeypatch):
    schedule = window_schedule(2, T_PROT, T_DEC, params)
    refined_fn, events_fn = passage_samplers(params, params.t_max + 0.1,
                                             schedule, T_DEC)
    monkeypatch.setattr(clock, "LEAF_BITS", leaf_bits)
    refined = passage_outcomes(refined_fn, trials,
                               np.random.default_rng([seed, 0]))
    events = passage_outcomes(events_fn, trials,
                              np.random.default_rng([seed, 1]))
    return refined, events, compare_passages(refined, events)


@pytest.mark.parametrize("n_bits, epsilon, leaf_bits, trials, seed", [
    # the root is a leaf: every flip is resolved in one batch
    (1024, 0.1, clock.LEAF_BITS, 1000, 71),
    # four to five levels of halving at r D / 4 from 0.43 down, a band
    # about 1.5 sigma wide at t_max (good fraction near 0.4), and total
    # window occupancies on both sides of t_dec at both levels
    (4096, 0.05, 128, 600, 72),
])
def test_passages_match_event_sampler(n_bits, epsilon, leaf_bits, trials,
                                      seed, monkeypatch):
    params = ClockParams(n_bits=n_bits, epsilon=epsilon,
                         t_max=2 * (T_PROT + T_DEC), rate_r=1.0)
    refined, events, p = gate(params, leaf_bits, trials, seed, monkeypatch)
    # the configuration exercises what it claims to
    assert 0.2 < events[0].mean() < 0.8
    for level in range(2):
        occupancy = events[3][level]
        assert 0.2 < np.mean(occupancy < T_DEC) < 0.8
    assert min(p.values()) >= GATE_ALPHA, p


def test_refinement_pays_above_leaf_size():
    # K (1 - e^{-r horizon / 2}) against LEAF_BITS = 2048
    assert clock.LEAF_BITS == 2048
    params = ClockParams(n_bits=4096, epsilon=0.3, t_max=1.0, rate_r=1.0)
    assert not refinement_pays(params, 1.0)         # 1612 active bits
    assert refinement_pays(params, 1.8)             # 2431 active bits
    big = ClockParams(n_bits=310_991_506, epsilon=0.01, t_max=0.0151,
                      rate_r=1.0)
    assert refinement_pays(big, 0.0164)


def test_passages_structure_and_reproducibility():
    params = ClockParams(n_bits=200_000, epsilon=0.1, t_max=1.6, rate_r=1.0)
    schedule = window_schedule(2, T_PROT, T_DEC, params)
    first = sample_passages(params, 1.7, schedule, T_DEC, 3,
                            np.random.default_rng(73))
    again = sample_passages(params, 1.7, schedule, T_DEC, 3,
                            np.random.default_rng(73))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    good, decode, active = first
    assert good.dtype == bool and good.shape == (3,)
    assert decode.shape == active.shape == (3, 2)
    for window, decode_times, actives in zip(schedule, decode.T, active.T):
        # the noise-free path enters window l at t_l and spends t_dec inside
        assert np.all(np.abs(decode_times - (window.t_start + T_DEC)) < 0.02)
        assert np.all(np.abs(actives - T_DEC) < 0.02)
    assert np.all(0.0 < decode[:, 0]) and np.all(decode[:, 0] < decode[:, 1])
    assert np.all(decode[:, 1] <= 1.7)
    with pytest.raises(ValueError):
        sample_passages(params, 1.5, schedule, T_DEC, 3,
                        np.random.default_rng(73))


def test_passages_window_never_entered():
    # a window far below anything the path reaches within the horizon
    params = ClockParams(n_bits=100_000, epsilon=0.2, t_max=0.5, rate_r=1.0)
    late = clock.LevelWindow(level=1, t_start=5.0, k_on=700, k_off=600)
    good, decode, active = sample_passages(params, 0.6, [late], T_DEC, 2,
                                           np.random.default_rng(74))
    assert good.all() and np.isnan(decode).all() and not active.any()


def test_passages_band_exit_is_seen():
    # a band of half-width K^0.51, about 1.15 standard deviations of k(t)
    # once t >> 1/r, which a path stays inside over [0, t_max] with a
    # probability that falls about e^{-1.5 r t}: 1.6e-2 at t_max = 3,
    # 8e-4 at 5 (2000 and 10^4 paths), so well below 1e-6 at 10
    params = ClockParams(n_bits=1_000_000, epsilon=0.01, t_max=10.0,
                         rate_r=1.0)
    schedule = window_schedule(1, 0.2, 0.1, params)
    good = sample_passages(params, 10.0, schedule, 0.1, 20,
                           np.random.default_rng(75))[0]
    assert good.shape == (20,) and not good.any()


def test_parity_tables_sum_to_conditional_poisson():
    for m in (1e-6, 0.3, 4.0):
        odd, even = clock._parity_tables(m)
        assert odd[-1] == 1.0 and even[-1] == 1.0
        # P(1 flip | odd) = m / sinh m, P(2 flips | even >= 2) = m^2/2 / (cosh m - 1)
        assert odd[0] == pytest.approx(m / math.sinh(m), rel=1e-12)
        assert even[0] == pytest.approx(
            m * m / 2.0 / (2.0 * math.sinh(m / 2.0) ** 2), rel=1e-12)


def test_split_pvals_are_poisson_halves():
    m = 0.35
    p = clock._split_pvals(m)
    assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # odd count over two halves: P(left none | odd) = e^{-m} P_odd(m) / P_odd(2m)
    odd = lambda x: math.exp(-x) * math.sinh(x)
    even = lambda x: math.exp(-x) * (math.cosh(x) - 1.0)
    assert p[0, 0] == pytest.approx(math.exp(-m) * odd(m) / odd(2 * m))
    assert p[0, 1] == pytest.approx(odd(m) * even(m) / odd(2 * m))
    assert p[1, 3] == pytest.approx(odd(m) ** 2 / even(2 * m))
    assert p[1, 2] == pytest.approx(even(m) ** 2 / even(2 * m))


def test_halve_keeps_the_path_end():
    gen = np.random.default_rng(76)
    for m in (1e-5, 0.05, 0.6):
        counts = gen.integers(0, 5000, size=(40, 2, 2))
        k_start = gen.integers(-10_000, 10_000, size=40)
        left, right, k_mid = clock._halve(counts, k_start, m, gen)
        k_end = k_start + 2 * (counts[:, 0, 0] - counts[:, 1, 0])
        assert np.array_equal(k_mid, k_start + 2 * (left[:, 0, 0] - left[:, 1, 0]))
        assert np.array_equal(k_mid + 2 * (right[:, 0, 0] - right[:, 1, 0]), k_end)
        # a bit active in the parent is active in at least one half
        assert np.all(left.sum(axis=(1, 2)) + right.sum(axis=(1, 2))
                      >= counts.sum(axis=(1, 2)))
        assert np.all(left.sum(axis=2) <= counts.sum(axis=2))


def test_leaf_pieces_form_the_path():
    gen = np.random.default_rng(77)
    starts = np.array([0.0, 0.5, 1.5])
    counts = np.array([[[30, 4], [50, 6]], [[0, 0], [0, 0]], [[7, 9], [0, 2]]])
    k_start = np.array([100, -20, 0])
    p_starts, p_ends, values = clock._leaf_pieces(
        starts, starts + 0.5, k_start, counts, gen, 1.0)
    # row i holds leaf i's pieces in time order, padded by empty pieces at
    # the leaf end
    assert p_starts.shape == p_ends.shape == values.shape
    assert np.all(np.diff(p_starts, axis=1) >= 0)
    assert np.array_equal(p_ends[:, :-1], p_starts[:, 1:])
    assert np.all(p_ends >= p_starts) and np.all(p_ends[:, -1] == starts + 0.5)
    assert np.array_equal(p_starts[:, 0], starts)
    assert np.array_equal(values[:, 0], k_start)
    assert np.array_equal(values[:, -1],
                          k_start + 2 * (counts[:, 0, 0] - counts[:, 1, 0]))
    steps = np.diff(values, axis=1)
    assert np.all(np.isin(steps, (-2, 0, 2)))
    assert np.all(p_starts[:, 1:][steps == 0] == (starts + 0.5)[
        np.nonzero(steps == 0)[0]])
    assert np.all(values.min(axis=1) >= k_start - 2 * counts[:, 1].sum(axis=1))
    assert np.all(values.max(axis=1) <= k_start + 2 * counts[:, 0].sum(axis=1))


def test_leaf_flip_total_is_poisson():
    # all flips of K bits over [0, D] number Poisson(K r D / 2)
    gen = np.random.default_rng(78)
    n_bits, mu = 2000, 0.9
    totals = []
    for _ in range(400):
        counts = np.zeros((1, 2, 2), dtype=np.int64)
        counts[0, 1] = gen.multinomial(n_bits, clock._root_pvals(mu))[:2]
        _, _, values = clock._leaf_pieces(np.array([0.0]), np.array([2 * mu]),
                                          np.array([n_bits]), counts, gen, 1.0)
        totals.append(np.count_nonzero(np.diff(values)))
    mean = n_bits * mu
    assert abs(np.mean(totals) - mean) < 4.0 * math.sqrt(mean / 400)
    assert 0.75 < np.var(totals) / mean < 1.25
