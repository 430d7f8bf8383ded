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
* sample_passages draws the band verdicts and the window passages of many
  paths with the law of sample_trajectory + is_good + window_passage, but
  resolves flips only where they decide something: it halves [0, horizon]
  with multinomial draws of per-interval flip classes, one batch over the
  intervals of all paths per level, until each interval's polarization
  range settles the band and every window, and resolves to events only
  undecided intervals of at most LEAF_BITS active bits.  Its cost follows
  the number of intervals needed, not the K r horizon / 2 flips.
  simulate_clock_controlled uses it for pass 1 when refinement_pays, and
  the event trio below that, where one-thread timing loops found the event
  trio faster; no benchmark workload runs pass 1 on that side.

Decoding windows: level l of the storage protocol is driven while
k(t) lies in [k_off, k_on] with k_on = floor(k_mean(t_l)) and
k_off = ceil(k_mean(t_l + t_dec)), t_l = l*t_prot + (l-1)*t_dec.
window_passage and the leaves of sample_passages share one rule: a piece
is inside when its value is in [k_off, k_on] (_inside), and the passage
follows from the time-ordered inside segments (_passage).

Band exits: is_good, first_exit and the leaves of sample_passages share one
rule, _band_exits, over the constant pieces that start by t_max.

Flip order: sample_trajectory and the leaves of sample_passages mark the
up (+2) flips beside all flip times (a bit's steps alternate, from -2 at 1
or +2 at 0) and share one rule, _sort_flips: flips sort by time alone, a
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

# the most bytes a sampler may be predicted to allocate at its peak (a draw
# predicted past it is infeasible, before its first draw), the bytes
# sample_trajectory allocates a flip (tracemalloc reads 35 up to 2.55 M),
# and the bytes a checkpoint of sample_trajectory_checkpointed holds at the
# peak of its draw and of is_good and max_time_error on it (tracemalloc
# reads 50 to 53 from 1e3 checkpoints up, 24 to 32 of them in the draw)
MAX_DRAW_BYTES = 2 ** 30
FLIP_BYTES = 40
CHECKPOINT_BYTES = 56


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
    down first, so its 2nd, 4th, ... times are up flips.

    Past MAX_DRAW_BYTES at FLIP_BYTES for each of the K r horizon / 2
    expected flips, it raises ScheduleInfeasibleError before any draw.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    _require_countable(params)
    flips = params.n_bits * params.rate_r * horizon / 2.0
    if FLIP_BYTES * flips > MAX_DRAW_BYTES:
        raise ScheduleInfeasibleError(
            f"{flips:.3g} expected clock flips are predicted to allocate "
            f"{FLIP_BYTES * flips:.3g} bytes, above the budget "
            f"MAX_DRAW_BYTES = {MAX_DRAW_BYTES}")
    gen = np.random.default_rng(rng)
    mu = params.rate_r * horizon / 2.0
    times_parts, up_parts = [np.empty(0)], [np.empty(0, dtype=bool)]
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
            times_parts.append(t.ravel())
            up_parts.append(np.tile(np.arange(j) % 2 == 1, m))
        n_ge, sf = n_ge_next, sf_next
        j += 1
    edges = np.empty(sum(t.size for t in times_parts) + 2)
    edges[0], edges[-1] = 0.0, horizon
    times = np.concatenate(times_parts, out=edges[1:-1])
    times *= horizon
    values = np.empty(edges.size - 1, dtype=np.int64)
    values[0] = params.n_bits
    values[1:] = _sort_flips(times, np.concatenate(up_parts))
    np.cumsum(values, out=values)
    return ClockTrajectory(edges, values)


def _sort_flips(times, up):
    """Sorts flip times (>= 0, or inf) in place along the last axis by time
    alone, the -2 flips first at equal times, and returns the int8 steps,
    +2 where up marks the flip: a nonnegative float orders as its bit
    pattern, so this is one sort of the uint64 keys (bits << 1) | up."""
    keys = times.view(np.uint64)
    keys <<= 1
    keys |= up
    keys.sort(axis=-1)
    steps = (keys & 1).astype(np.int8) * 4 - 2
    keys >>= 1
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
    """One trajectory at checkpoint resolution; exact jointly at checkpoints.

    Past MAX_DRAW_BYTES at CHECKPOINT_BYTES for each of the
    horizon / checkpoint_spacing + 2 checkpoints or fewer, it raises
    ScheduleInfeasibleError before any draw.
    """
    if checkpoint_spacing > 0:  # checkpoint_times refuses the others
        predicted = CHECKPOINT_BYTES * (horizon / checkpoint_spacing + 2)
        if predicted > MAX_DRAW_BYTES:
            raise ScheduleInfeasibleError(
                f"checkpoint_spacing {checkpoint_spacing:.3g} over "
                f"{horizon:.3g} is predicted to allocate {predicted:.3g} "
                f"bytes, above the budget MAX_DRAW_BYTES = {MAX_DRAW_BYTES}")
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
    vertical, upper = _band_exits(values, kbar_start, kbar_end, band)
    if vertical.any():
        i = int(np.argmax(vertical))
        exits.append((float(starts[i]), "vertical"))
    if upper.any():
        i = int(np.argmax(upper))
        t_cross = math.log(params.n_bits / (values[i] - band)) / params.rate_r
        exits.append((max(float(starts[i]), t_cross), "horizontal"))
    return min(exits, key=lambda e: e[0]) if exits else None


def _band_exits(values, kbar_start, kbar_end, band):
    """Masks (vertical, upper) of the pieces at values that leave the band
    at their start or, upwards, by their end (see _band_exit)."""
    return np.abs(values - kbar_start) >= band, values - kbar_end >= band


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
    exceeds LEAF_BITS.  The rule does not weigh the band width: for a band
    tight enough that every interval on [0, t_max] stays undecided,
    sample_passages resolves nearly all flips in leaves and is slower than
    the event trio well above the cut-off.
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
    """Resolve intervals [starts[i], ends[i]] (all of one length) to flip
    events; row i of the three arrays returned holds leaf i's constant
    pieces (starts, ends, values) in time order, then empty pieces
    [ends[i], ends[i]] at its last value.  Each active bit draws its flip
    count from Poisson(r D / 2) conditioned on its parity class (odd, or
    even >= 2), by inversion, then that many sorted uniform times; its steps
    alternate, from -2 for a bit at 1 and +2 at 0 (see _sort_flips).
    """
    n = starts.size
    width = float(ends[0] - starts[0])
    odd_cdf, even_cdf = _parity_tables(rate_r * width / 2.0)
    bits = counts.reshape(n, 4)                           # (leaf, 2 s + c)
    leaf = np.repeat(np.arange(n), bits.sum(axis=1))
    cell = np.repeat(np.tile(np.arange(4, dtype=np.int8), n), bits.ravel())
    u = gen.random(cell.size)
    flips = 1 + (cell & 1)
    more = np.flatnonzero(u >= np.where(cell & 1, even_cdf[0], odd_cdf[0]))
    flips[more] += 2 * np.where(
        cell[more] & 1, np.searchsorted(even_cdf, u[more], side="right"),
        np.searchsorted(odd_cdf, u[more], side="right"))
    # the flips of leaf i's bits, one bit after another, fill row i
    before = np.concatenate(([0], np.cumsum(flips)))   # flips before bit b
    last = before[np.cumsum(bits.sum(axis=1))]
    per_leaf = np.diff(last, prepend=0)
    p_starts = np.full((n, per_leaf.max(initial=0) + 1), np.inf)
    up = np.zeros(p_starts.shape, dtype=bool)
    # each bit's first flip, in the flattened rows after column 0
    at = before[:-1] + (np.arange(n) * p_starts.shape[1] + 1 - last
                        + per_leaf)[leaf]
    p_starts.reshape(-1)[at] = gen.random(cell.size)
    up.reshape(-1)[at] = cell < 2
    multi = np.flatnonzero(flips > 1)
    for j in np.flatnonzero(np.bincount(flips[multi])):
        rows = multi[flips[multi] == j]
        at_j = at[rows, None] + np.arange(j)
        p_starts.reshape(-1)[at_j] = np.sort(gen.random((rows.size, j)), axis=1)
        up.reshape(-1)[at_j] = (cell[rows, None] < 2) ^ (np.arange(j) % 2 == 1)
    del leaf, before, at, u, multi    # the per-bit arrays, before the sort
    times = p_starts[:, 1:]
    times *= width
    times += starts[:, None]
    p_starts[:, 0] = starts
    steps = _sort_flips(times, up[:, 1:])
    pad = np.arange(times.shape[1]) >= per_leaf[:, None]
    np.copyto(times, ends[:, None], where=pad)
    np.copyto(steps, 0, where=pad)
    values = np.zeros(p_starts.shape, dtype=np.int64)
    np.cumsum(steps, axis=1, out=values[:, 1:])
    values += k_start[:, None]
    return p_starts, np.hstack([times, ends[:, None]]), values


# the most live intervals (a leaf's flips counted as intervals) a batch of
# sample_passages holds; a path needing more alone is infeasible
LIVE_INTERVALS = 2 ** 17


def _batch_size(params: ClockParams, windows: int) -> int:
    """Paths per batch of sample_passages, predicted before any draw: the
    band settles an interval of width D on [0, t_max] only once its range,
    about K r D wide, fits inside it, so the deepest level holds about
    K r t_max / band intervals (219 at acceptance criterion 6, K = 3.1e8,
    where one path peaks at 236; past LIVE_INTERVALS from K = 1.5e14 on at
    its schedule).  Leaves add about LEAF_BITS flips per window edge, or
    all K r t_max / 2 flips for a band narrower than 2 LEAF_BITS."""
    krt = params.n_bits * params.rate_r * params.t_max
    band = params.band_half_width
    intervals = krt / band
    if intervals > LIVE_INTERVALS:
        raise ScheduleInfeasibleError(
            f"{intervals:.3g} live intervals per path exceed {LIVE_INTERVALS}")
    events = krt / 2.0 if band < 2 * LEAF_BITS else 2.0 * windows * LEAF_BITS
    return max(1, int(LIVE_INTERVALS // (intervals + events)))


def sample_passages(params: ClockParams, horizon: float, schedule,
                    t_dec: float, trials: int, rng):
    """(good, decode_time, active_time) of `trials` paths, of shapes
    (trials,) and (trials, windows), decode_time nan for a window never
    entered: per path the law of sample_trajectory over [0, horizon], then
    is_good and window_passage for each window of schedule, but with flips
    resolved only where the band verdict or a window passage needs them.

    An interval [a, b] of a path is summarized by k(a) and, per start state
    s, the numbers of bits flipping an odd or an even >= 2 number of times
    in it; its A_s active bits starting in s keep k(t) within [k(a) - 2 A_1,
    k(a) + 2 A_0] on [a, b].  Each root [0, horizon] is one multinomial draw
    over the K bits.  An interval whose range settles the band on
    [a, min(b, t_max)] and the inside/outside of every window is done, and
    an endpoint outside the band settles the verdict of its own path.  An
    undecided interval with at most LEAF_BITS active bits is resolved to
    flip events (_leaf_pieces), whose pieces get is_good's check
    (_band_exits) and whose inside runs are merged; any other one is halved
    (_halve), one call each per level for all paths of a batch (_batch_size);
    the inside segments go to _passage by (path, window) after one sort.
    """
    if horizon < params.t_max:
        raise ValueError("horizon must cover [0, t_max]")
    _require_countable(params)
    size = _batch_size(params, len(schedule))
    gen = np.random.default_rng(rng)
    if trials > size:
        return tuple(np.concatenate(part) for part in zip(*(
            sample_passages(params, horizon, schedule, t_dec,
                            min(size, trials - first), gen)
            for first in range(0, trials, size))))
    n_bits, rate_r, t_max = params.n_bits, params.rate_r, params.t_max
    band = params.band_half_width
    k_off = np.array([[w.k_off] for w in schedule])      # (W, 1)
    k_on = np.array([[w.k_on] for w in schedule])
    found = []              # (path, window, starts, ends) of inside segments
    in_band = np.ones(trials, dtype=bool)   # no band exit seen yet, per path
    counts = np.zeros((trials, 2, 2), dtype=np.int64)
    counts[:, 1] = gen.multinomial(n_bits, _root_pvals(rate_r * horizon / 2.0),
                                   size=trials)[:, :2]
    path, index = np.arange(trials), np.zeros(trials, dtype=np.int64)
    k_start = np.full(trials, n_bits, dtype=np.int64)
    level = 0
    while True:
        width = math.ldexp(horizon, -level)
        starts, ends = index * width, (index + 1) * width
        active = counts.sum(axis=2)                       # (M, s)
        low, high = k_start - 2 * active[:, 1], k_start + 2 * active[:, 0]
        kbar_start = n_bits * np.exp(-rate_r * starts)
        kbar_end = n_bits * np.exp(-rate_r * np.minimum(ends, t_max))
        k_end = k_start + 2 * (counts[:, 0, 0] - counts[:, 1, 0])
        # an interval starts at t = 0 (k = K) or where its sibling or its
        # parent ends, so checking the ends checks every endpoint
        exits = (ends <= t_max) & (np.abs(k_end - kbar_end) >= band)
        in_band[path[exits]] = False
        band_open = in_band[path] & (starts <= t_max) & ~(
            (high - kbar_end < band) & (kbar_start - low < band))
        inside = (low >= k_off) & (high <= k_on)          # (W, M)
        undecided = band_open | np.any(
            ~inside & (high >= k_off) & (low <= k_on), axis=0)
        cols, rows = np.nonzero(inside & ~undecided)
        found.append((path[rows], cols, starts[rows], ends[rows]))
        leaf = undecided & (active.sum(axis=1) <= LEAF_BITS)
        if leaf.any():
            p_starts, p_ends, values = _leaf_pieces(
                starts[leaf], ends[leaf], k_start[leaf], counts[leaf], gen,
                rate_r)                               # (L, C) each
            p_path = path[leaf]
            check = band_open[leaf][:, None] & (p_starts <= t_max)
            if check.any():
                kbar = mean_polarization(np.minimum(
                    [p_starts[check], p_ends[check]], t_max), params)
                exits = np.logical_or(*_band_exits(values[check], *kbar, band))
                in_band[p_path[np.nonzero(check)[0][exits]]] = False
            # a leaf's pieces touch, so its inside pieces merge into runs
            ins = _inside(values, k_off[..., None], k_on[..., None])
            edge = np.diff(ins, axis=2, prepend=False, append=False)
            w_open, row, c_open = np.nonzero(edge[..., :-1] & ins)
            c_close = np.nonzero(edge[..., 1:] & ins)[2]
            found.append((p_path[row], w_open, p_starts[row, c_open],
                          p_ends[row, c_close]))
        split = undecided & ~leaf
        if not split.any():
            break
        left, right, k_mid = _halve(counts[split], k_start[split],
                                    rate_r * width / 4.0, gen)
        path = np.repeat(path[split], 2)
        index = 2 * np.repeat(index[split], 2) + np.arange(path.size) % 2
        k_start = np.stack([k_start[split], k_mid], axis=1).ravel()
        counts = np.stack([left, right], axis=1).reshape(-1, 2, 2)
        level += 1
    path, window, starts, ends = (np.concatenate(part) for part in zip(*found))
    # one path's inside segments of a window are disjoint: sorted by start,
    # their ends are sorted too
    group = path * k_off.size + window
    order = np.lexsort((starts, group))
    cuts = np.searchsorted(group[order], np.arange(1, trials * k_off.size))
    passages = np.array([_passage(starts[seg], ends[seg], t_dec)
                         for seg in np.split(order, cuts)], dtype=float)
    return in_band, *passages.reshape(trials, -1, 2).transpose(2, 0, 1)
