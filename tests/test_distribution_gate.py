"""The numpy-only distribution tests of distribution_gate, on cases
computed by hand from their definitions."""

import math

import numpy as np
import pytest

from distribution_gate import (binomial_pmf, chi2_sf, chi2_table,
                               compare_frames, count_p_value, frame_tables,
                               kolmogorov_sf, ks_2samp, ks_statistic)


def test_ks_statistic_by_hand():
    assert ks_statistic([1, 2, 3], [4, 5, 6]) == 1.0
    assert ks_statistic([1, 2, 3, 4], [3, 4, 5, 6]) == 0.5
    # ties: F_x(2) = 3/4 against F_y(2) = 1/3
    assert ks_statistic([1, 2, 2, 3], [2, 3, 4]) == pytest.approx(5.0 / 12.0)
    assert ks_statistic([0.5, 0.1], [0.1, 0.5]) == 0.0


def test_kolmogorov_series_by_hand():
    # first terms of 2 sum (-1)^{j-1} e^{-2 j^2 lam^2}
    assert kolmogorov_sf(1.0) == pytest.approx(
        2.0 * (math.exp(-2.0) - math.exp(-8.0) + math.exp(-18.0)), rel=1e-12)
    # first term of the small-lambda series
    assert kolmogorov_sf(0.5) == pytest.approx(
        1.0 - math.sqrt(2.0 * math.pi) / 0.5 * math.exp(-math.pi ** 2 / 2.0),
        rel=1e-12)
    # the 5% point of the Kolmogorov distribution
    assert kolmogorov_sf(1.3581) == pytest.approx(0.05, abs=1e-4)
    # the two series meet where the switch happens
    j = np.arange(1, 50)
    large = 2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * j * j * 1.18 ** 2))
    assert kolmogorov_sf(1.18) == pytest.approx(large, rel=1e-12)
    assert kolmogorov_sf(0.0) == 1.0 and kolmogorov_sf(0.1) == 1.0


def test_ks_2samp_p_value():
    d, p = ks_2samp([1.0, 2.0], [2.0, 1.0])
    assert d == 0.0 and p == 1.0
    x = np.arange(100.0)
    d, p = ks_2samp(x, x + 50.0)
    root = math.sqrt(50.0)
    assert d == pytest.approx(0.5)
    assert p == pytest.approx(kolmogorov_sf((root + 0.12 + 0.11 / root) * 0.5))
    assert p < 1e-4
    with pytest.raises(ValueError):
        ks_2samp([], [1.0])


def test_chi2_sf_by_hand():
    for x in (0.3, 2.0, 7.5):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-14)
        assert chi2_sf(x, 4) == pytest.approx(math.exp(-x / 2.0) * (1.0 + x / 2.0),
                                              rel=1e-14)
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), rel=1e-14)
        assert chi2_sf(x, 3) == pytest.approx(
            math.erfc(math.sqrt(x / 2.0))
            + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0), rel=1e-14)
    # textbook 5% critical values
    for dof, x in ((1, 3.841458820694124), (3, 7.814727903251178),
                   (4, 9.487729036781154), (5, 11.070497693516351)):
        assert chi2_sf(x, dof) == pytest.approx(0.05, rel=1e-9)
    assert chi2_sf(0.0, 3) == 1.0


def test_chi2_table_by_hand():
    # expected 15 in every cell: statistic 4 * 25 / 15, one degree of freedom
    stat, dof, p = chi2_table([[10, 20], [20, 10]])
    assert stat == pytest.approx(20.0 / 3.0) and dof == 1
    assert p == pytest.approx(math.erfc(math.sqrt(10.0 / 3.0)))
    # an empty class is dropped, not divided by
    stat, dof, p = chi2_table([[5, 0, 5], [5, 0, 5]])
    assert stat == 0.0 and dof == 1 and p == 1.0
    # a single populated class has nothing to compare
    assert chi2_table([[7, 0], [3, 0]]) == (0.0, 0, 1.0)


def test_frame_tables_by_hand():
    frames = np.array([[0, 1, 0], [3, 0, 2], [0, 0, 0], [2, 2, 2]],
                      dtype=np.uint8)
    hits, columns, paulis = frame_tables(frames)
    assert hits.tolist() == [1, 1, 1, 1]          # rows with 0, 1, 2, 3 hits
    assert columns.tolist() == [2, 2, 2]
    assert paulis.tolist() == [1, 4, 1]           # X, Z, Y


def test_compare_frames_pools_rare_hit_counts():
    frames = np.zeros((125, 3), dtype=np.uint8)
    frames[:60, 0] = 1
    frames[60:65] = 2                              # 5 rows with 3 hits
    assert compare_frames(frames, frames.copy()) == {
        "hits": 1.0, "column": 1.0, "pauli": 1.0}
    # 2 and 3 hits are rare (5 rows of 250 each), so they form one class:
    # moving rows between them changes nothing
    other = frames.copy()
    other[60:65, 2] = 0
    assert compare_frames(frames, other)["hits"] == 1.0
    other[:60, 0] = 0
    assert compare_frames(frames, other)["hits"] < 1e-10


def test_binomial_pmf_by_hand():
    assert binomial_pmf(3, 0.5, 5).tolist() == pytest.approx(
        [0.125, 0.375, 0.375, 0.125, 0.0, 0.0], rel=1e-14)
    assert binomial_pmf(4, 0.1, 1) == pytest.approx(
        [0.9 ** 4, 4 * 0.1 * 0.9 ** 3], rel=1e-14)
    assert binomial_pmf(2, 0.0, 2).tolist() == [1.0, 0.0, 0.0]
    assert binomial_pmf(2, 1.0, 3).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_count_p_value_by_hand():
    # one Bernoulli(0.1) and one Binomial(2, 0.5): P[S = 0] = 0.9 / 4,
    # P[S <= 1] = 0.9 * 3/4 + 0.1 / 4 = 0.7
    # and P[S = 3] = 0.1 / 4
    pair = [(1, 0.1), (2, 0.5)]
    assert count_p_value(0, pair) == pytest.approx(2 * 0.225, rel=1e-14)
    assert count_p_value(1, pair) == 1.0
    assert count_p_value(2, pair) == pytest.approx(2 * (1.0 - 0.7), rel=1e-12)
    assert count_p_value(3, pair) == pytest.approx(2 * 0.025, rel=1e-12)
    # 2 faults where 0.1 are expected (Poisson-like): P[S >= 2] is small
    many = [(1, 0.1 / 600)] * 600
    p = count_p_value(2, many)
    assert p == pytest.approx(2 * (1 - binomial_pmf(600, 0.1 / 600, 1).sum()),
                              rel=1e-9)
    assert 0.005 < p < 0.01
    # a certain fault (an aborted trial) shifts the count by one
    assert count_p_value(0, [(1, 1.0)]) == 0.0
    assert count_p_value(1, [(1, 1.0)]) == 1.0
