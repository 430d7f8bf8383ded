"""Two-sample distribution tests in numpy, and the clock-passage gate.

A sampler rewrite must match the sampler it replaces in distribution
before it lands.  The generic tests:

* ks_2samp: two-sample Kolmogorov-Smirnov statistic, with the p-value of
  the Kolmogorov series at Stephens' effective-size correction
  (lambda = (sqrt(n_e) + 0.12 + 0.11 / sqrt(n_e)) D, n_e = n m / (n + m)).
* chi2_table: chi-square test of homogeneity on a table of counts (one row
  per sample, one column per class); all-zero rows and columns are dropped.

passage_samplers, passage_outcomes and compare_passages apply them to
clock.sample_passages against the event trio sample_trajectory + is_good +
window_passage.

This module is a helper, not a test file; tests/test_distribution_gate.py
checks it on hand-computed cases.
"""

from __future__ import annotations

import math

import numpy as np

from qmemsim.clock import (is_good, sample_passages, sample_trajectory,
                           window_passage)


def ks_statistic(x, y) -> float:
    """sup |F_x - F_y| over the pooled sample (ties handled exactly)."""
    x, y = np.sort(np.asarray(x, float)), np.sort(np.asarray(y, float))
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def kolmogorov_sf(lam: float) -> float:
    """P(sup |Brownian bridge| > lam), from whichever series converges fast.

    lam > 1.18: 2 sum_{j>=1} (-1)^{j-1} e^{-2 j^2 lam^2};
    otherwise:  1 - sqrt(2 pi)/lam sum_{j>=1} e^{-(2j-1)^2 pi^2 / (8 lam^2)}.
    """
    if lam <= 0.0:
        return 1.0
    j = np.arange(1, 101)
    if lam > 1.18:
        terms = (-1.0) ** (j - 1) * np.exp(-2.0 * j * j * lam * lam)
        return float(min(1.0, max(0.0, 2.0 * terms.sum())))
    terms = np.exp(-((2 * j - 1) ** 2) * math.pi ** 2 / (8.0 * lam * lam))
    tail = math.sqrt(2.0 * math.pi) / lam * terms.sum()
    return float(min(1.0, max(0.0, 1.0 - tail)))


def ks_2samp(x, y):
    """(D, p-value) of the two-sample Kolmogorov-Smirnov test."""
    n, m = len(x), len(y)
    if not n or not m:
        raise ValueError("both samples must be non-empty")
    d = ks_statistic(x, y)
    root = math.sqrt(n * m / (n + m))
    return d, kolmogorov_sf((root + 0.12 + 0.11 / root) * d)


def chi2_sf(x: float, dof: int) -> float:
    """P(chi-square with integer dof > x), in closed form.

    Even dof = 2k: e^{-x/2} sum_{i<k} (x/2)^i / i!.
    Odd dof = 2k+1: erfc(sqrt(x/2))
                    + e^{-x/2} sum_{i=1..k} (x/2)^{i-1/2} / Gamma(i+1/2).
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    if dof % 2 == 0:
        term, total = 1.0, 0.0
        for i in range(dof // 2):
            if i:
                term *= h / i
            total += term
        return min(1.0, math.exp(-h) * total)
    total = math.erfc(math.sqrt(h))
    term = math.sqrt(h) / math.gamma(1.5)
    for i in range(1, dof // 2 + 1):
        if i > 1:
            term *= h / (i - 0.5)
        total += math.exp(-h) * term
    return min(1.0, total)


def chi2_table(table):
    """(statistic, dof, p-value) of the chi-square homogeneity test."""
    table = np.asarray(table, dtype=float)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    rows, cols = table.shape
    dof = (rows - 1) * (cols - 1)
    if dof < 1:
        return 0.0, 0, 1.0
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    return stat, dof, chi2_sf(stat, dof)


def passage_samplers(params, horizon, schedule, t_dec):
    """(refined, events): generator -> (good, passages), drawn by
    clock.sample_passages and by the event trio respectively."""
    def refined(gen):
        return sample_passages(params, horizon, schedule, t_dec, gen)

    def events(gen):
        traj = sample_trajectory(params, horizon, gen)
        return is_good(traj, params), [window_passage(traj, w, t_dec)
                                       for w in schedule]
    return refined, events


def passage_outcomes(sample, n: int, rng):
    """Outcomes of n clock paths drawn one after another by sample(gen) ->
    (good, [(decode_time, active_time) per window]), where gen is
    np.random.default_rng(rng).

    Returns good (n,), abort class (n,) (0 for none, else 1 + the first
    level whose window is never entered or whose decode time does not
    follow the previous one, as in simulate_clock_controlled), the decode
    times per level of the paths that enter that window, and the active
    times per level.
    """
    gen = np.random.default_rng(rng)
    good, aborted, decode, active = [], [], [], []
    for _ in range(n):
        ok, passages = sample(gen)
        good.append(ok)
        decode.append([math.nan if d is None else d for d, _ in passages])
        active.append([a for _, a in passages])
        cls, previous = 0, -math.inf
        for level, (d, _) in enumerate(passages):
            if d is None or d <= previous:
                cls = level + 1
                break
            previous = d
        aborted.append(cls)
    decode, active = np.array(decode), np.array(active)
    return (np.array(good), np.array(aborted),
            [col[~np.isnan(col)] for col in decode.T], list(active.T))


def compare_passages(a, b) -> dict:
    """p-values of the gate between two passage_outcomes results."""
    levels = len(a[2])
    out = {
        "good": chi2_table([np.bincount(a[0], minlength=2),
                            np.bincount(b[0], minlength=2)])[2],
        "abort": chi2_table([np.bincount(a[1], minlength=levels + 1),
                             np.bincount(b[1], minlength=levels + 1)])[2],
    }
    for level in range(levels):
        out[f"decode_{level + 1}"] = _ks_p(a[2][level], b[2][level])
        out[f"active_{level + 1}"] = _ks_p(a[3][level], b[3][level])
    return out


def _ks_p(x, y) -> float:
    """KS p-value; 1 for two empty samples, 0 when only one is empty."""
    if not len(x) or not len(y):
        return float(len(x) == len(y))
    return ks_2samp(x, y)[1]
