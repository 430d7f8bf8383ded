"""Two-sample distribution tests in numpy, the clock-passage gate, and an
exact one-sample tail for counts.

A sampler rewrite must match the sampler it replaces in distribution
before it lands.  The generic tests:

* ks_2samp: two-sample Kolmogorov-Smirnov statistic, with the p-value of
  the Kolmogorov series at Stephens' effective-size correction
  (lambda = (sqrt(n_e) + 0.12 + 0.11 / sqrt(n_e)) D, n_e = n m / (n + m)).
* chi2_table: chi-square test of homogeneity on a table of counts (one row
  per sample, one column per class); all-zero rows and columns are dropped.
* count_p_value: exact two-sided tail of a count drawn as a sum of
  independent binomial counts with known rates, such as a run's logical
  faults against its exact channel.  Expected counts of about 1 are too
  small for a z-score or a chi-square.

passage_samplers, passage_outcomes and compare_passages apply them to
clock.sample_passages, PATHS_PER_CALL paths a call, against the event trio
sample_trajectory + is_good + window_passage.  frame_tables and
compare_frames apply chi2_table to two depolarized frame arrays, such as
the sparse and the dense draws of pauli._draw_frames.

wald_sigma and fidelity_sigma are the binomial (Wald) standard errors of a
protocols.LogicalChannelEstimate, per class and of its average fidelity;
they have zero width where a class frequency is 0 or 1.

GATE_ALPHA is the level every gate p-value and exact-tail p-value of the
tests must reach, and BELOW_CUT the largest weight that still takes
pauli's sparse draw.

This module is a helper, not a test file; tests/test_distribution_gate.py
checks it on hand-computed cases.
"""

from __future__ import annotations

import math

import numpy as np

from qmemsim import pauli
from qmemsim.clock import (is_good, sample_passages, sample_trajectory,
                           window_passage)

# fixed before the first run; about 1e-3 false alarms per gate config
GATE_ALPHA = 1e-4
# clock paths per call of a passage sampler
PATHS_PER_CALL = 10
BELOW_CUT = float(np.nextafter(pauli.SPARSE_WEIGHT, 0.0))


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


def binomial_pmf(n: int, p: float, upto: int) -> np.ndarray:
    """P[Binomial(n, p) = k] for k = 0..upto (0 beyond n)."""
    out = np.zeros(upto + 1)
    for k in range(min(n, upto) + 1):
        if p in (0.0, 1.0):
            out[k] = float(k == n * p)
        else:
            out[k] = math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                              - math.lgamma(n - k + 1) + k * math.log(p)
                              + (n - k) * math.log1p(-p))
    return out


def count_p_value(observed: int, binomials) -> float:
    """min(1, 2 min(P[S <= observed], P[S >= observed])) for S the sum of
    independent Binomial(n, p) counts, one per (n, p) in binomials.

    The law of S up to `observed` is the convolution of the binomial laws
    cut at `observed`, which is exact below the cut.
    """
    pmf = np.array([1.0])
    for n, p in binomials:
        pmf = np.convolve(pmf, binomial_pmf(n, p, observed))[:observed + 1]
    below = float(pmf.sum())
    above = 1.0 - float(pmf[:-1].sum())
    return min(1.0, 2.0 * min(below, above))


def wald_sigma(est) -> np.ndarray:
    """Per-class standard errors sqrt(p (1 - p) / trials) of a channel
    estimate."""
    p = est.p_hat
    return np.sqrt(p * (1.0 - p) / est.trials)


def fidelity_sigma(est) -> float:
    """Standard error of the average fidelity (2 p_I + 1)/3."""
    return 2.0 * float(wald_sigma(est)[0]) / 3.0


def passage_samplers(params, horizon, schedule, t_dec):
    """(refined, events): (generator, n) -> (good (n,), decode time (n, W),
    active time (n, W)) of n clock paths, drawn by one call of
    clock.sample_passages and by the event trio path after path; the
    decode time of a window never entered is nan."""
    def refined(gen, n):
        return sample_passages(params, horizon, schedule, t_dec, n, gen)

    def events(gen, n):
        decode = np.full((n, len(schedule)), math.nan)
        active = np.zeros((n, len(schedule)))
        good = np.ones(n, dtype=bool)
        for i in range(n):
            traj = sample_trajectory(params, horizon, gen)
            good[i] = is_good(traj, params)
            for j, w in enumerate(schedule):
                d, active[i, j] = window_passage(traj, w, t_dec)
                decode[i, j] = math.nan if d is None else d
        return good, decode, active
    return refined, events


def passage_outcomes(sample, n: int, rng):
    """Outcomes of n clock paths drawn by sample(gen, PATHS_PER_CALL) (see
    passage_samplers) until n are drawn, where gen is
    np.random.default_rng(rng); several paths per call put a leak between
    the paths of one call of sample_passages within the gate's reach.

    Returns good (n,), abort class (n,) (0 for none, else 1 + the first
    level whose window is never entered or whose decode time does not
    follow the previous one, as in simulate_clock_controlled), the decode
    times per level of the paths that enter that window, and the active
    times per level.
    """
    gen = np.random.default_rng(rng)
    good, decode, active = (np.concatenate(part) for part in zip(*(
        sample(gen, min(PATHS_PER_CALL, n - first))
        for first in range(0, n, PATHS_PER_CALL))))
    bad = np.isnan(decode)
    bad[:, 1:] |= decode[:, 1:] <= decode[:, :-1]
    aborted = np.where(bad.any(axis=1), bad.argmax(axis=1) + 1, 0)
    return (good, aborted, [col[~np.isnan(col)] for col in decode.T],
            list(active.T))


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


def frame_draws(shape, p, seed, calls=1):
    """(sparse, dense): pauli._draw_frames at weight p by its sparse draw
    and by its dense draw (SPARSE_WEIGHT set to inf, then to 0), from
    default_rng([seed, 0]) and default_rng([seed, 1]).  Each side makes
    `calls` calls on (rows, n) = shape and stacks their rows."""
    saved = pauli.SPARSE_WEIGHT
    sides = []
    try:
        for side, cut in enumerate((math.inf, 0.0)):
            pauli.SPARSE_WEIGHT = cut
            gen = np.random.default_rng([seed, side])
            sides.append(np.concatenate([
                pauli._draw_frames(shape, p, gen)
                for _ in range(calls)]))
    finally:
        pauli.SPARSE_WEIGHT = saved
    return sides


def frame_tables(frames):
    """Counts of the hits per row (0..n), of the column of each hit (n) and
    of the Pauli class of each hit (X, Z, Y) of a (rows, n) frame array."""
    n = frames.shape[1]
    rows, cols = np.nonzero(frames)
    return (np.bincount(np.count_nonzero(frames, axis=1), minlength=n + 1),
            np.bincount(cols, minlength=n),
            np.bincount(frames[rows, cols], minlength=4)[1:])


def compare_frames(a, b) -> dict:
    """chi-square p-values of frame_tables between two (rows, n) frame
    arrays.  Hit counts per row that fewer than 20 rows of both together
    reach are pooled into one class, so that no class is nearly empty."""
    hits_a, cols_a, paulis_a = frame_tables(a)
    hits_b, cols_b, paulis_b = frame_tables(b)
    hits = np.stack([hits_a, hits_b])
    rare = hits.sum(axis=0) < 20
    hits = np.column_stack([hits[:, ~rare], hits[:, rare].sum(axis=1)])
    return {"hits": chi2_table(hits)[2],
            "column": chi2_table([cols_a, cols_b])[2],
            "pauli": chi2_table([paulis_a, paulis_b])[2]}
