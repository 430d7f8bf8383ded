"""Classical clock register: polarization trajectories and readout guarantees.

The clock is a register of K classical bits, all initialized to 1, each
flipping at rate r/2 independently of its current value.  The observable is
the polarization k(t) = (#bits equal 1) - (#bits equal 0), with mean
k_mean(t) = K e^{-rt} and variance K(1 - e^{-2rt}).  Reading k yields the
time estimate min(ln(K/k)/r, t_max).

A trajectory is "good" while it stays strictly inside the band
|k(t) - k_mean(t)| < K^{1/2+epsilon} on [0, t_max].  good_prob_bound gives
the closed-form lower bound on the probability of that event (legitimately
vacuous for small K; flagged, never hidden), and time_error_bound gives the
readout accuracy delta/2 = e^{r t_max} / (r K^{1/2-epsilon}) valid on good
trajectories.

Sampling exploits exchangeability twice over:

* sample_trajectory draws, for each flip multiplicity j, how many bits flip
  exactly j times (successive conditional binomials over Poisson tails) and
  places j sorted uniform flip times per such bit.  This is an exact
  event-level sample of the aggregated birth-death chain on the 1-bit count
  (down rate n r/2, up rate (K-n) r/2) with no per-bit state.
* sample_trajectory_checkpointed advances the 1-bit count n directly between
  checkpoints via two binomials (each bit keeps its value over a span D with
  probability (1+e^{-rD})/2), exact at the checkpoints, for K far beyond
  event-level reach.
* sample_passages draws the band verdict and the window passages of one
  path with the law of sample_trajectory + is_good + window_passage, but
  resolves flips only where they decide something: it halves [0, horizon]
  with multinomial draws of per-interval flip classes until each interval's
  polarization range settles the band and every window, and resolves to
  events only undecided intervals of at most LEAF_BITS active bits.  Its
  cost follows the number of intervals needed, not the K r horizon / 2
  flips.  refinement_pays tells when the root would be halved at all;
  simulate_clock_controlled uses sample_passages for pass 1 exactly then,
  and the event trio below that, where one-thread timing loops found the
  event trio faster; no benchmark workload runs pass 1 on that side.

Decoding windows: level l of the storage protocol is driven while
k(t) lies in [k_off, k_on] with k_on = floor(k_mean(t_l)) and
k_off = ceil(k_mean(t_l + t_dec)), t_l = l*t_prot + (l-1)*t_dec.
window_passage and the leaves of sample_passages share one rule: a piece
is inside when its value is in [k_off, k_on] (_inside), and the passage
follows from the time-ordered inside segments (_passage).

Band exits: is_good, first_exit and the leaves of sample_passages share one
rule, _band_exit, over the constant pieces that start by t_max.

Flip order: sample_trajectory and the leaves of sample_passages keep the
up (+2) times beside all flip times (a bit's steps alternate, from -2 at 1
or +2 at 0) and share one rule, _flip_steps: flips sort by time alone, a
down before an up at equal times.

A ClockTrajectory is two read-only arrays: its piece edges (0, flip
times..., horizon) and its piece values (K, k after each flip...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateWindowError(ValueError):
    """A decoding window has k_on <= k_off: the clock is too coarse."""


class OverlappingWindowsError(ValueError):
    """Successive decoding windows overlap in polarization."""


class ScheduleInfeasibleError(ValueError):
    """Clock accuracy too poor for the requested schedule."""


# the largest register size K the samplers take: they hold polarizations
# in [-K, K] as int64 and form k +- 2 A (sample_passages, A <= K active
# bits) and 2 n - K (checkpoints, n <= K 1-bits), whose 2 K terms fit int64
# (up to 2**63 - 1) only for K < 2**62.  The closed-form bounds take any K.
MAX_BITS = 2 ** 62 - 1


@dataclass(frozen=True)
class ClockParams:
    n_bits: int          # register size K
    epsilon: float       # band exponent, band half-width = K**(1/2+epsilon)
    t_max: float         # largest trusted readout time
    rate_r: float

    def __post_init__(self):
        if self.n_bits < 16:
            raise ValueError("n_bits must be >= 16 (theorem precondition)")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.rate_r <= 0:
            raise ValueError("rate_r must be positive")

    @property
    def band_half_width(self) -> float:
        return float(self.n_bits) ** (0.5 + self.epsilon)


def _require_countable(params: ClockParams):
    if params.n_bits > MAX_BITS:
        raise ValueError("n_bits must be below 2**62 to be sampled "
                         "(int64 polarization sums)")


def mean_polarization(t, params: ClockParams):
    """K e^{-rt}; strictly decreasing in t."""
    return params.n_bits * np.exp(-params.rate_r * np.asarray(t, dtype=float))


def time_estimate(k, params: ClockParams):
    """Clock readout min(ln(K/k)/r, t_max); k <= 0 clamps to t_max.

    Accepts integer polarizations or real values (so the inversion identity
    time_estimate(mean_polarization(t)) = t is exact below the clamp).
    """
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log(params.n_bits / k) / params.rate_r
    t = np.where(k <= 0, params.t_max, np.minimum(t, params.t_max))
    return float(t) if t.ndim == 0 else t


@dataclass(frozen=True)
class GoodProbBound:
    value: float       # 1 - deficit, in float arithmetic
    deficit: float     # the subtracted term, which may round away in value
    vacuous: bool


def good_prob_bound(params: ClockParams) -> GoodProbBound:
    """Lower bound 1 - K(r t_max + e^{-3a/8})/e^{a/8}, a = K^{2 epsilon}.

    May be <= 0 for small K; the value is returned as-is with the vacuity
    flagged, since a weak bound is a finding, not an error.  The deficit is
    kept separately because for strong parameters it underflows the bound
    value to exactly 1.0.
    """
    a = float(params.n_bits) ** (2.0 * params.epsilon)
    deficit = params.n_bits * (
        params.rate_r * params.t_max + math.exp(-3.0 * a / 8.0)) \
        * math.exp(-a / 8.0)
    value = 1.0 - deficit
    return GoodProbBound(value=value, deficit=deficit, vacuous=value <= 0.0)


def vertical_exit_rate_bound(params: ClockParams) -> float:
    """Rate bound K r e^{-K^{2 epsilon}/8} on band exits caused by a flip."""
    a = float(params.n_bits) ** (2.0 * params.epsilon)
    return params.n_bits * params.rate_r * math.exp(-a / 8.0)


def time_error_bound(params: ClockParams) -> float:
    """Readout half-accuracy delta/2 = e^{r t_max} / (r K^{1/2-epsilon})."""
    return math.exp(params.rate_r * params.t_max) / (
        params.rate_r * float(params.n_bits) ** (0.5 - params.epsilon))


@dataclass(frozen=True, eq=False)
class ClockTrajectory:
    """Event-resolved polarization path as constant pieces.

    Piece i spans [edges[i], edges[i+1]] at polarization values[i]: edges
    is (0, flip times..., horizon) and values is (K, k after each flip...),
    so k(t) is right-continuous and piecewise constant from k(0) = K.  Both
    arrays are read-only, edges float and values int64.
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=np.int64)
        if not values.size or edges.shape != (values.size + 1,):
            raise ValueError("need one more edge than piece values")
        if values.min() < -values[0] or values.max() > values[0]:
            raise ValueError("polarization left [-K, K]")
        edges.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)

    @property
    def n_bits(self) -> int:
        return int(self.values[0])

    @property
    def horizon(self) -> float:
        return float(self.edges[-1])

    @property
    def times(self) -> np.ndarray:
        """Sorted flip times, the view edges[1:-1]."""
        return self.edges[1:-1]

    def __len__(self):
        return self.values.size - 1

    def piece_edges(self, upto: float):
        """(edges, values) of the constant pieces covering [0, upto].

        Both are read-only views of the trajectory's arrays, except that the
        edges are copied when upto is not the edge that ends its piece.
        """
        m = int(np.searchsorted(self.times, upto, side="right"))
        edges = self.edges[:m + 2]
        if edges[-1] != upto:
            edges = edges.copy()
            edges[-1] = upto
        return edges, self.values[:m + 1]


@dataclass(frozen=True, eq=False)
class ClockCheckpoints:
    """Polarization known only at discrete checkpoint times (large-K mode)."""

    times: np.ndarray     # (C,) includes 0
    k_values: np.ndarray  # (C,) polarization at each checkpoint
    n_bits: int


def sample_trajectory(params: ClockParams, horizon: float, rng) -> ClockTrajectory:
    """Exact event-level trajectory over [0, horizon].

    Bits are exchangeable, so only the multiset of per-bit flip counts
    matters: counts are Poisson(mu), mu = r*horizon/2.  Draw the number of
    bits with >= j flips by successive conditional binomials on the Poisson
    tail ratios and give each bit with exactly j flips j sorted uniform
    times (Poisson arrivals conditioned on their count).  A bit at 1 flips
    down first, so _flip_steps gets its 2nd, 4th, ... times as up times.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    _require_countable(params)
    gen = np.random.default_rng(rng)
    mu = params.rate_r * horizon / 2.0
    times_parts, up_parts = [np.empty(0)], [np.empty(0)]
    sf = -math.expm1(-mu)          # P(count >= 1)
    pmf = math.exp(-mu)            # P(count = 0)
    n_ge = int(gen.binomial(params.n_bits, sf))
    j = 1
    while n_ge > 0:
        pmf *= mu / j
        sf_next = max(sf - pmf, 0.0)
        ratio = min(sf_next / sf, 1.0) if sf > 0 else 0.0
        n_ge_next = int(gen.binomial(n_ge, ratio))
        m = n_ge - n_ge_next
        if m:
            t = gen.random((m, j))
            if j > 1:
                t.sort(axis=1)
                up_parts.append(t[:, 1::2].ravel())
            times_parts.append(t.ravel())
        n_ge, sf = n_ge_next, sf_next
        j += 1
    edges = np.empty(sum(t.size for t in times_parts) + 2)
    edges[0], edges[-1] = 0.0, horizon
    times = np.concatenate(times_parts, out=edges[1:-1])
    times *= horizon
    values = np.empty(edges.size - 1, dtype=np.int64)
    values[0] = params.n_bits
    values[1:] = _flip_steps(times, np.concatenate(up_parts) * horizon)
    np.cumsum(values, out=values)
    return ClockTrajectory(edges, values)


def _flip_steps(times, up):
    """Steps (int8 -2 or +2) of the flips at times, given the +2 flips'
    times up; sorts both in place.  Flips go by time alone, the -2 flips
    first at equal times: the i-th smallest up time takes the slot after
    every down time up to it and after the i up times before it."""
    times.sort()
    up.sort()
    at = np.searchsorted(times, up, side="right")
    at -= np.searchsorted(up, up, side="right")
    at += np.arange(up.size)
    steps = np.full(times.size, -2, dtype=np.int8)
    steps[at] = 2
    return steps


def checkpoint_times(spacing: float, horizon: float) -> np.ndarray:
    """0, spacing, 2*spacing, ..., horizon (horizon always included)."""
    if spacing <= 0:
        raise ValueError("checkpoint_spacing must be positive")
    if spacing > horizon:
        raise ValueError("checkpoint_spacing exceeds horizon")
    n = int(math.floor(horizon / spacing + 1e-9))
    times = np.arange(n + 1) * spacing
    if times[-1] < horizon - 1e-12 * horizon:
        times = np.append(times, horizon)
    else:
        times[-1] = horizon
    return times


def sample_count_matrix(params: ClockParams, times: np.ndarray, trials: int,
                        rng) -> np.ndarray:
    """1-bit counts n at the given times for many trials, shape (trials, C).

    Markov step over a span D: each 1-bit stays 1 with probability
    (1+e^{-rD})/2, each 0-bit turns 1 with probability (1-e^{-rD})/2, so
    n' = Binomial(n, keep) + Binomial(K-n, 1-keep).  Exact at the times.
    """
    _require_countable(params)
    gen = np.random.default_rng(rng)
    times = np.asarray(times, dtype=float)
    out = np.empty((trials, times.size), dtype=np.int64)
    n = np.full(trials, params.n_bits, dtype=np.int64)
    t_prev = 0.0
    for c, t in enumerate(times):
        span = t - t_prev
        if span < 0:
            raise ValueError("checkpoint times must be nondecreasing")
        if span > 0:
            keep = (1.0 + math.exp(-params.rate_r * span)) / 2.0
            n = gen.binomial(n, keep) + gen.binomial(params.n_bits - n, 1.0 - keep)
        out[:, c] = n
        t_prev = t
    return out


def sample_trajectory_checkpointed(params: ClockParams, checkpoint_spacing: float,
                                   horizon: float, rng) -> ClockCheckpoints:
    """One trajectory at checkpoint resolution; exact jointly at checkpoints."""
    times = checkpoint_times(checkpoint_spacing, horizon)
    counts = sample_count_matrix(params, times[1:], 1, rng)[0]
    k = 2 * np.concatenate(([params.n_bits], counts)) - params.n_bits
    return ClockCheckpoints(times=times, k_values=k, n_bits=params.n_bits)


def _require_coverage(traj: ClockTrajectory, params: ClockParams):
    if traj.horizon < params.t_max:
        raise ValueError("trajectory must cover [0, t_max]")


def _band_exit(starts, values, kbar_start, kbar_end, params: ClockParams):
    """(time, kind) of the first band exit of the time-ordered constant
    pieces that start at starts[i] <= t_max at values[i], or None if they
    stay inside; kbar_start and kbar_end are k_mean at each piece's start and
    at its end cut at t_max.

    Within a piece k is constant and k_mean decreases, so the downward slack
    is tightest at the piece start and the upward slack at the piece end.  A
    "vertical" exit happens at a flip that lands outside the band; a
    "horizontal" exit happens between flips when the falling band overtakes
    the constant k (only possible on the upper side), at the closed-form
    time k_mean(t*) = k - band.
    """
    band = params.band_half_width
    exits = []
    vertical = np.abs(values - kbar_start) >= band
    if vertical.any():
        i = int(np.argmax(vertical))
        exits.append((float(starts[i]), "vertical"))
    upper = values - kbar_end >= band
    if upper.any():
        i = int(np.argmax(upper))
        t_cross = math.log(params.n_bits / (values[i] - band)) / params.rate_r
        exits.append((max(float(starts[i]), t_cross), "horizontal"))
    return min(exits, key=lambda e: e[0]) if exits else None


def is_good(traj, params: ClockParams) -> bool:
    """Strict band condition |k(t) - k_mean(t)| < K^{1/2+eps} on [0, t_max].

    Event trajectories are checked exactly: good means first_exit finds no
    exit.  Checkpointed trajectories are checked at their checkpoints (the
    resolution they carry).
    """
    if isinstance(traj, ClockCheckpoints):
        sel = traj.times <= params.t_max
        kbar = mean_polarization(traj.times[sel], params)
        return bool(np.all(np.abs(traj.k_values[sel] - kbar)
                           < params.band_half_width))
    return first_exit(traj, params) is None


def first_exit(traj: ClockTrajectory, params: ClockParams):
    """(time, kind) of the first band exit on [0, t_max], or None if good;
    kind is "vertical" or "horizontal" (see _band_exit).  Crossing times are
    solved in closed form, no time grid.
    """
    _require_coverage(traj, params)
    edges, values = traj.piece_edges(params.t_max)
    # one exp over the edges of the pieces that cover [0, t_max]
    kbar = mean_polarization(edges, params)
    return _band_exit(edges[:-1], values, kbar[:-1], kbar[1:], params)


def max_time_error(traj, params: ClockParams) -> float:
    """max |time_estimate(k(t)) - t| over [0, t_max].

    For event trajectories the maximum is attained at piece edges (the
    estimate is constant per piece while t advances), so both edges of every
    piece are checked.  Checkpointed trajectories are evaluated at their
    checkpoints.
    """
    if isinstance(traj, ClockCheckpoints):
        sel = traj.times <= params.t_max
        est = time_estimate(traj.k_values[sel], params)
        return float(np.max(np.abs(est - traj.times[sel])))
    _require_coverage(traj, params)
    edges, values = traj.piece_edges(params.t_max)
    est = time_estimate(values, params)
    return float(max(np.max(np.abs(est - edges[:-1])),
                     np.max(np.abs(est - edges[1:]))))


@dataclass(frozen=True)
class LevelWindow:
    level: int
    t_start: float       # nominal window-open time t_l
    k_on: int            # decode active while k_off <= k <= k_on
    k_off: int


def window_schedule(levels: int, t_prot: float, t_dec: float,
                    params: ClockParams) -> tuple:
    """Integer polarization windows for levels 1..levels, a tuple of
    LevelWindow.

    k_on = floor(k_mean(t_l)), k_off = ceil(k_mean(t_l + t_dec)) with
    t_l = l*t_prot + (l-1)*t_dec.  Raises if any window is degenerate
    (k_on <= k_off) or if successive windows are not strictly separated;
    both mean the clock cannot resolve the schedule.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    windows = []
    for level in range(1, levels + 1):
        t_l = level * t_prot + (level - 1) * t_dec
        k_on = math.floor(params.n_bits * math.exp(-params.rate_r * t_l))
        k_off = math.ceil(params.n_bits * math.exp(-params.rate_r * (t_l + t_dec)))
        if k_on <= k_off:
            raise DegenerateWindowError(
                f"level {level}: k_on={k_on} <= k_off={k_off}; "
                "clock too small for this schedule")
        windows.append(LevelWindow(level=level, t_start=t_l, k_on=k_on, k_off=k_off))
    for earlier, later in zip(windows, windows[1:]):
        if later.k_on >= earlier.k_off:
            raise OverlappingWindowsError(
                f"levels {earlier.level} and {later.level} overlap: "
                f"k_off={earlier.k_off} <= k_on={later.k_on}")
    return tuple(windows)


def window_passage(traj: ClockTrajectory, window: LevelWindow, t_dec: float):
    """(decode_time, active_time) for one level window on one trajectory.

    active_time is the total time k(t) spends in [k_off, k_on] over the
    trajectory's horizon.  decode_time is when accumulated active time first
    reaches t_dec, or the last exit from the window if it never does; None
    if the window is never entered.
    """
    inside = np.flatnonzero(_inside(traj.values, window.k_off, window.k_on))
    return _passage(traj.edges[inside], traj.edges[inside + 1], t_dec)


def _inside(values, k_off, k_on):
    """Mask of the piece values that lie in the window [k_off, k_on]."""
    return (values >= k_off) & (values <= k_on)


def _passage(starts, ends, t_dec: float):
    """(decode_time, active_time) from the time-ordered, disjoint inside
    segments [starts[i], ends[i]] of one window (see window_passage); the
    segments need not be merged where they touch."""
    if not starts.size:
        return None, 0.0
    durs = ends - starts
    cum = np.cumsum(durs)
    total = float(cum[-1])
    if total >= t_dec:
        i = int(np.searchsorted(cum, t_dec, side="left"))
        return float(starts[i] + (t_dec - (cum[i] - durs[i]))), total
    return float(ends[-1]), total


# an undecided interval with at most this many active bits (bits that flip
# in it) is resolved to flip events instead of being halved again
LEAF_BITS = 2048


def refinement_pays(params: ClockParams, horizon: float) -> bool:
    """True when sample_passages would halve its root interval [0, horizon]:
    the expected number of bits that flip at all, K (1 - e^{-r horizon/2}),
    exceeds LEAF_BITS.

    Below that, pass 1 keeps the event trio, which one-thread timing loops
    found faster there (no benchmark workload covers that side).  The rule
    does not weigh the band width: for a band tight enough that every
    interval on [0, t_max] stays undecided, sample_passages resolves nearly
    all flips in leaves and is slower than the event trio well above the
    cut-off.
    """
    return params.n_bits * -math.expm1(-params.rate_r * horizon / 2.0) > LEAF_BITS


def _root_pvals(mu: float) -> np.ndarray:
    """P(odd), P(even >= 2), P(none) for a Poisson(mu) flip count.

    numpy's multinomial takes the last cell as the remainder, which keeps
    its relative accuracy only while that cell is not tiny.  P(none) =
    e^{-mu} comes last; it is far from tiny at every current caller
    (mu = r horizon / 2 is below 0.01 at acceptance criterion 6 and at
    most 1.5 in the tests, e^{-mu} >= 0.2) and would lose accuracy only
    at large mu, once e^{-mu} nears the rounding error of 1.
    """
    odd = -math.expm1(-2.0 * mu) / 2.0
    even = 2.0 * math.exp(-mu) * math.sinh(mu / 2.0) ** 2
    return np.array([odd, even, math.exp(-mu)])


def _split_pvals(m: float) -> np.ndarray:
    """(2, 4) cell probabilities for halving one active bit's flip class.

    Each half carries Poisson(m) flips.  Row 0 splits an odd count over
    (left, right) = (none, odd), (odd, even), (even, odd), (odd, none);
    row 1 an even count >= 2 over (none, even), (even, none), (even, even),
    (odd, odd).  The common factor e^{-2m} cancels in the normalization;
    each row's last cell, the multinomial's remainder, is never tiny.
    """
    odd, even = math.sinh(m), 2.0 * math.sinh(m / 2.0) ** 2
    w = np.array([[odd, odd * even, even * odd, odd],
                  [even, even, even * even, odd * odd]])
    return w / w.sum(axis=1, keepdims=True)


# cell of _split_pvals -> (left odd, left even, right odd, right even, and
# right odd, right even for a right half entered in the other state)
_HALVES = np.array([
    [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 1], [0, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0],
], dtype=np.int64)


def _halve(counts: np.ndarray, k_start: np.ndarray, m: float, gen):
    """Counts and start polarizations of the left and right halves.

    counts[i, s, c] is the number of bits of interval i that start in state
    s and flip an odd (c = 0) or even >= 2 (c = 1) number of times in it.
    A bit starts the right half in s XOR (parity of its left-half flips).
    """
    cells = gen.multinomial(counts, _split_pvals(m))    # (M, s, c, cell)
    halves = cells.reshape(-1, 2, 8) @ _HALVES          # (M, s, 6)
    left = halves[:, :, 0:2]
    right = halves[:, :, 2:4] + halves[:, ::-1, 4:6]
    k_mid = k_start + 2 * (left[:, 0, 0] - left[:, 1, 0])
    return left, right, k_mid


def _parity_tables(m: float):
    """Inversion tables for a Poisson(m) flip count conditioned to be odd,
    or even and >= 2: (cdf over 1, 3, 5, ...), (cdf over 2, 4, 6, ...)."""
    top = int(m + 12.0 * math.sqrt(m) + 40.0)
    j = np.arange(top + 1)
    pmf = np.exp(j * math.log(m) - m
                 - np.array([math.lgamma(x + 1.0) for x in range(top + 1)]))
    tables = []
    for part in (pmf[1::2], pmf[2::2]):
        cdf = np.cumsum(part)
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        tables.append(cdf)
    return tables


def _leaf_pieces(starts, ends, k_start, counts, gen, rate_r):
    """Resolve intervals [starts[i], ends[i]] (all of one length, in time
    order) to flip events; returns the constant pieces (starts, ends,
    values) of all of them, in time order.

    Each active bit draws its flip count from Poisson(r D / 2) conditioned on
    its parity class (odd, or even >= 2), by inversion, then that many
    sorted uniform times; its steps alternate, starting at -2 for a bit at 1
    and at +2 for a bit at 0, and _flip_steps orders all of them.  Every
    bit gets one uniform time up front; the few bits with two or more flips
    replace it by the first of their sorted times.
    """
    n = starts.size
    width = float(ends[0] - starts[0])
    odd_cdf, even_cdf = _parity_tables(rate_r * width / 2.0)
    per_class = counts.transpose(2, 0, 1).ravel()         # (c, leaf, s)
    n_odd = int(per_class[:2 * n].sum())
    owner = np.repeat(np.tile(np.arange(n).repeat(2), 2), per_class)
    at_zero = np.repeat(np.tile([True, False], 2 * n), per_class)
    u = gen.random(owner.size)
    multi = np.concatenate([np.flatnonzero(u[:n_odd] >= odd_cdf[0]),
                            np.arange(n_odd, owner.size)])
    flips = np.concatenate([
        1 + 2 * np.searchsorted(odd_cdf, u[multi[multi < n_odd]], side="right"),
        2 + 2 * np.searchsorted(even_cdf, u[n_odd:], side="right")])
    times = gen.random(owner.size)
    times *= width
    times += starts[owner]
    times_parts, up_parts, owner_parts = [times], [], [owner]
    for j in np.flatnonzero(np.bincount(flips)):
        rows = multi[flips == j]
        t = np.sort(gen.random((rows.size, j)), axis=1)
        t *= width
        t += starts[owner[rows], None]
        times[rows] = t[:, 0]
        down_first = ~at_zero[rows]
        up_parts += [t[down_first, 1::2].ravel(), t[~down_first, 2::2].ravel()]
        times_parts.append(t[:, 1:].ravel())
        owner_parts.append(np.repeat(owner[rows], j - 1))
    up_parts.append(times[at_zero])
    per_leaf = np.bincount(np.concatenate(owner_parts), minlength=n)
    times = np.concatenate(times_parts)
    steps = _flip_steps(times, np.concatenate(up_parts))
    # the leaves are disjoint, so the sorted events come leaf by leaf
    first_event = np.concatenate(([0], np.cumsum(per_leaf)[:-1]))
    first_piece = first_event + np.arange(n)
    at = np.arange(times.size) + np.repeat(np.arange(1, n + 1), per_leaf)
    # |partial sums| <= 2 * events, far below 2^31
    walk = np.concatenate(([0], np.cumsum(steps, dtype=np.int32)))
    offset = k_start - walk[first_event]
    p_starts = np.empty(times.size + n)
    p_values = np.empty(times.size + n, dtype=np.int64)
    p_starts[first_piece], p_starts[at] = starts, times
    p_values[first_piece] = k_start
    p_values[at] = walk[1:] + np.repeat(offset, per_leaf)
    p_ends = np.empty_like(p_starts)
    p_ends[:-1] = p_starts[1:]
    p_ends[first_piece + per_leaf] = ends
    return p_starts, p_ends, p_values


def sample_passages(params: ClockParams, horizon: float, schedule,
                    t_dec: float, rng):
    """(good, [(decode_time, active_time) per window]) without all flips.

    Same law as sample_trajectory over [0, horizon] followed by is_good and
    window_passage for each window of schedule, but flips are resolved only
    where the band verdict or a window passage depends on them.

    An interval [a, b] is summarized by k(a) and, per start state s, the
    numbers of bits flipping an odd or an even >= 2 number of times in it;
    its A_s active bits starting in s keep k(t) within [k(a) - 2 A_1,
    k(a) + 2 A_0] on [a, b].  The root [0, horizon] is one multinomial draw
    over the K bits.  An interval whose range settles the band on
    [a, min(b, t_max)] and the inside/outside of every window is done, and
    an endpoint outside the band settles the verdict of the whole path.  An
    undecided interval with at most LEAF_BITS active bits is resolved to
    flip events (_leaf_pieces), whose pieces get is_good's check
    (_band_exit); any other one is halved (_halve).  Each level of halving
    is one batch of multinomials and one batch of leaves.
    """
    if horizon < params.t_max:
        raise ValueError("horizon must cover [0, t_max]")
    _require_countable(params)
    gen = np.random.default_rng(rng)
    n_bits, rate_r, t_max = params.n_bits, params.rate_r, params.t_max
    band = params.band_half_width
    k_off = np.array([w.k_off for w in schedule])
    k_on = np.array([w.k_on for w in schedule])
    found = []              # (window, starts, ends) of inside segments
    in_band = True          # no band exit seen yet
    counts = np.zeros((1, 2, 2), dtype=np.int64)
    counts[0, 1] = gen.multinomial(n_bits, _root_pvals(rate_r * horizon / 2.0))[:2]
    index = np.zeros(1, dtype=np.int64)
    k_start = np.full(1, n_bits, dtype=np.int64)
    level = 0
    while True:
        starts = np.ldexp(index.astype(float), -level) * horizon
        ends = np.ldexp((index + 1).astype(float), -level) * horizon
        active = counts.sum(axis=2)                       # (M, s)
        low = k_start - 2 * active[:, 1]
        high = k_start + 2 * active[:, 0]
        undecided = np.zeros(index.size, dtype=bool)
        if in_band:
            kbar_start = n_bits * np.exp(-rate_r * starts)
            kbar_end = n_bits * np.exp(-rate_r * np.minimum(ends, t_max))
            k_end = k_start + 2 * (counts[:, 0, 0] - counts[:, 1, 0])
            exits = ((starts <= t_max) & (np.abs(k_start - kbar_start) >= band)) \
                | ((ends <= t_max) & (np.abs(k_end - kbar_end) >= band))
            if exits.any():
                in_band = False
            else:
                undecided = (starts <= t_max) & ~(
                    (high - kbar_end < band) & (kbar_start - low < band))
        inside = (low[:, None] >= k_off) & (high[:, None] <= k_on)
        undecided |= np.any(~inside & (high[:, None] >= k_off)
                            & (low[:, None] <= k_on), axis=1)
        rows, cols = np.nonzero(inside & ~undecided[:, None])
        found.append((cols, starts[rows], ends[rows]))
        leaf = undecided & (active.sum(axis=1) <= LEAF_BITS)
        if leaf.any():
            p_starts, p_ends, values = _leaf_pieces(
                starts[leaf], ends[leaf], k_start[leaf], counts[leaf], gen,
                rate_r)
            if in_band:
                cut = int(np.searchsorted(p_starts, t_max, side="right"))
                in_band = _band_exit(
                    p_starts[:cut], values[:cut],
                    mean_polarization(p_starts[:cut], params),
                    mean_polarization(np.minimum(p_ends[:cut], t_max), params),
                    params) is None
            for w in range(k_off.size):
                ins = _inside(values, k_off[w], k_on[w])
                found.append((np.full(np.count_nonzero(ins), w),
                              p_starts[ins], p_ends[ins]))
        split = undecided & ~leaf
        if not split.any():
            break
        left, right, k_mid = _halve(counts[split], k_start[split],
                                    rate_r * math.ldexp(horizon, -level) / 4.0, gen)
        index = np.stack([2 * index[split], 2 * index[split] + 1], axis=1).ravel()
        k_start = np.stack([k_start[split], k_mid], axis=1).ravel()
        counts = np.stack([left, right], axis=1).reshape(-1, 2, 2)
        level += 1
    window, starts, ends = (np.concatenate(part) for part in zip(*found))
    # one window's inside segments are disjoint, so sorting their starts
    # and their ends apart keeps each pair together
    return in_band, [_passage(np.sort(starts[window == w]),
                              np.sort(ends[window == w]), t_dec)
                     for w in range(k_off.size)]
