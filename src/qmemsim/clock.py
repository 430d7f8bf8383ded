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
  exactly j times (successive conditional binomials over Poisson tails),
  places j sorted uniform flip times per such bit, and merges.  This is an
  exact event-level sample of the aggregated birth-death chain on the 1-bit
  count (down rate n r/2, up rate (K-n) r/2) with no per-bit state.  The
  merge is one value sort of the single-flip times (each a -2 step, nearly
  all flips at small mu) and an argsort of the multi-flip times, which are
  then inserted at their searchsorted positions; the merged times are
  written straight into the trajectory's piece-edge buffer.
* sample_trajectory_checkpointed advances the 1-bit count n directly between
  checkpoints via two binomials (each bit keeps its value over a span D with
  probability (1+e^{-rD})/2), exact at the checkpoints, for K far beyond
  event-level reach.

Decoding windows: level l of the storage protocol is driven while
k(t) lies in [k_off, k_on] with k_on = floor(k_mean(t_l)) and
k_off = ceil(k_mean(t_l + t_dec)), t_l = l*t_prot + (l-1)*t_dec.

A ClockTrajectory caches its piece edges (0, times..., horizon) and piece
values (K, k after each flip...), both read-only; pieces, the band checks and
the window passages read slices of these instead of rebuilding them per call.
A sampled trajectory keeps its flip times once: its times are the read-only
view edges[1:-1] of the one edge buffer, and its piece values are int32.
At acceptance criterion 6 (about 2.55 M flips) that is about 33 MB per
trajectory, and about 45 MB at the peak of sampling.  is_good walks the
pieces up to t_max in chunks of _BAND_CHUNK and stops at the first chunk
that leaves the band, so it needs no full-length temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import as_generator


class DegenerateWindowError(ValueError):
    """A decoding window has k_on <= k_off: the clock is too coarse."""


class OverlappingWindowsError(ValueError):
    """Successive decoding windows overlap in polarization."""


class ScheduleInfeasibleError(ValueError):
    """Clock accuracy too poor for the requested schedule."""


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


def mean_polarization(t, params: ClockParams):
    """K e^{-rt}; strictly decreasing in t."""
    return params.n_bits * np.exp(-params.rate_r * np.asarray(t, dtype=float))


def polarization_variance(t, params: ClockParams):
    """K (1 - e^{-2rt}): independent-bit variance 4Kq(1-q), q=(1-e^{-rt})/2."""
    return params.n_bits * (-np.expm1(-2.0 * params.rate_r * np.asarray(t, dtype=float)))


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
    """Event-resolved polarization path: k jumps by steps[i] at times[i].

    k(t) is right-continuous and piecewise constant, starting at k(0) = K.
    """

    times: np.ndarray    # (M,) sorted flip times
    steps: np.ndarray    # (M,) each +2 or -2
    n_bits: int
    horizon: float

    def __post_init__(self):
        if self.times.shape != self.steps.shape:
            raise ValueError("times and steps must align")

    @classmethod
    def _from_edges(cls, edges: np.ndarray, steps: np.ndarray, n_bits: int,
                    horizon: float) -> "ClockTrajectory":
        """Trajectory whose times are the view edges[1:-1] of a filled
        (0, times..., horizon) buffer, which becomes the cached edges."""
        edges.flags.writeable = False
        traj = cls(times=edges[1:-1], steps=steps, n_bits=n_bits, horizon=horizon)
        traj.__dict__["edges"] = edges
        return traj

    def __len__(self):
        return self.times.size

    @cached_property
    def edges(self) -> np.ndarray:
        """Piece edges (0, times..., horizon); read-only.  Sampled
        trajectories come with it filled (see _from_edges)."""
        edges = np.concatenate(([0.0], self.times, [self.horizon]))
        edges.flags.writeable = False
        return edges

    @cached_property
    def piece_values(self) -> np.ndarray:
        """Polarization on each piece, (K, k after each flip...); read-only.

        int32 for int8 steps (as sampled) while K < 2^31 - 128, else int64.
        A partial sum of int8 steps then leaves [-K, K] by at most 128
        before it could wrap, so the range check below still sees it; int32
        halves the memory and the memory traffic of every pass over it.
        """
        narrow = self.steps.dtype == np.int8 and self.n_bits < 2**31 - 128
        k = np.empty(self.steps.size + 1, dtype=np.int32 if narrow else np.int64)
        k[0] = self.n_bits
        k[1:] = self.steps
        np.cumsum(k, out=k)
        if k.min() < -self.n_bits or k.max() > self.n_bits:
            raise ValueError("polarization left [-K, K]; inconsistent steps")
        k.flags.writeable = False
        return k

    @property
    def k_values(self) -> np.ndarray:
        """Polarization after each flip, |k| <= K throughout; read-only."""
        return self.piece_values[1:]

    def k_at(self, t):
        """Piecewise-constant evaluation (value after the last flip <= t)."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        k = self.piece_values[idx]
        return int(k) if k.ndim == 0 else k

    def piece_edges(self, upto: float):
        """(edges, values) of the constant pieces covering [0, upto].

        Piece i spans [edges[i], edges[i+1]] at value values[i].  Both are
        read-only views of the cached arrays, except that the edges are
        copied when upto is not the edge that ends its piece.
        """
        m = int(np.searchsorted(self.times, upto, side="right"))
        edges = self.edges[:m + 2]
        if edges[-1] != upto:
            edges = edges.copy()
            edges[-1] = upto
        return edges, self.piece_values[:m + 1]

    def pieces(self, upto: float):
        """(starts, ends, values) of the constant pieces covering [0, upto].

        The arrays may be read-only views of the cached piece arrays.
        """
        edges, values = self.piece_edges(upto)
        return edges[:-1], edges[1:], values


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
    tail ratios, give each bit with exactly j flips j sorted uniform times
    (Poisson arrivals conditioned on their count), alternate step signs
    starting at -2 (a bit at 1 flips down first), and merge by time.

    The single-flip times, whose steps are all -2, are sorted by value
    alone; only the multi-flip times are argsorted with their steps, and
    the two sorted runs are merged (see _merge_by_time).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    gen = as_generator(rng)
    mu = params.rate_r * horizon / 2.0
    single = np.empty(0, dtype=float)
    times_parts, steps_parts = [], []
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
        if m and j == 1:
            single = gen.random(m)
            single *= horizon
        elif m:
            t = np.sort(gen.random((m, j)), axis=1).ravel() * horizon
            s = np.empty((m, j), dtype=np.int8)
            s[:, 0::2] = -2
            s[:, 1::2] = 2
            times_parts.append(t)
            steps_parts.append(s.ravel())
        n_ge, sf = n_ge_next, sf_next
        j += 1
    single.sort()
    multi = np.concatenate([single[:0]] + times_parts)
    multi_steps = np.concatenate([np.empty(0, dtype=np.int8)] + steps_parts)
    edges = np.empty(single.size + multi.size + 2)
    edges[0], edges[-1] = 0.0, horizon
    steps = _merge_by_time(single, multi, multi_steps, edges[1:-1])
    return ClockTrajectory._from_edges(edges, steps, params.n_bits, horizon)


def _merge_by_time(single, multi, multi_steps, out):
    """Merge sorted single-flip times (steps -2) with the multi-flip flips.

    Writes the merged times into out and returns their steps, in the order
    of a stable sort of (single, argsorted multi): the multi-flip times are
    argsorted and each is inserted after every equal single-flip time, at
    its searchsorted position plus the number of multi-flip times before it.
    Equal multi-flip times come in np.argsort's order, which is unspecified.
    """
    order = np.argsort(multi)
    multi = multi[order]
    at = np.searchsorted(single, multi, side="right")
    at += np.arange(multi.size)
    is_single = np.ones(out.size, dtype=bool)
    is_single[at] = False
    out[is_single] = single
    out[at] = multi
    steps = np.full(out.size, -2, dtype=np.int8)
    steps[at] = multi_steps[order]
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
    gen = as_generator(rng)
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


# pieces per band-check chunk: small enough that the chunk's float
# temporaries stay in cache, large enough that the per-chunk calls are cheap
_BAND_CHUNK = 1 << 15


def _require_coverage(traj: ClockTrajectory, params: ClockParams):
    if traj.horizon < params.t_max:
        raise ValueError("trajectory must cover [0, t_max]")


def is_good(traj, params: ClockParams) -> bool:
    """Strict band condition |k(t) - k_mean(t)| < K^{1/2+eps} on [0, t_max].

    Event trajectories are checked exactly: within a piece k is constant and
    k_mean decreases, so the downward slack is tightest at the piece start
    and the upward slack at the piece end.  The pieces are checked in chunks
    of _BAND_CHUNK, stopping at the first chunk with a violation.
    Checkpointed trajectories are checked at their checkpoints (the
    resolution they carry).
    """
    band = params.band_half_width
    if isinstance(traj, ClockCheckpoints):
        sel = traj.times <= params.t_max
        kbar = mean_polarization(traj.times[sel], params)
        return bool(np.all(np.abs(traj.k_values[sel] - kbar) < band))
    _require_coverage(traj, params)
    # pieces 0..m cover [0, t_max]; piece m is cut at t_max
    m = int(np.searchsorted(traj.times, params.t_max, side="right"))
    edges, values = traj.edges, traj.piece_values
    for start in range(0, m + 1, _BAND_CHUNK):
        stop = min(start + _BAND_CHUNK, m + 1)
        chunk_edges = edges[start:stop + 1]
        if stop == m + 1:
            chunk_edges = np.append(chunk_edges[:-1], params.t_max)
        kbar = mean_polarization(chunk_edges, params)
        chunk = values[start:stop]
        if not (np.all(chunk - kbar[1:] < band)
                and np.all(kbar[:-1] - chunk < band)):
            return False
    return True


def first_exit(traj: ClockTrajectory, params: ClockParams):
    """(time, kind) of the first band exit on [0, t_max], or None if good.

    A "vertical" exit happens at a flip that lands outside the band; a
    "horizontal" exit happens between flips when the falling band overtakes
    the constant k (only possible on the upper side).  Crossing times are
    solved in closed form, no time grid.
    """
    band = params.band_half_width
    _require_coverage(traj, params)
    edges, values = traj.piece_edges(params.t_max)
    kbar = mean_polarization(edges, params)
    candidates = []

    vert = np.abs(values - kbar[:-1]) >= band
    if vert.any():
        i = int(np.argmax(vert))
        candidates.append((float(edges[i]), "vertical"))

    upper = values - kbar[1:] >= band
    if upper.any():
        i = int(np.argmax(upper))
        # k_mean(t*) = values[i] - band, inside this piece
        t_cross = math.log(params.n_bits / (values[i] - band)) / params.rate_r
        candidates.append((max(float(edges[i]), t_cross), "horizontal"))

    if not candidates:
        return None
    return min(candidates, key=lambda c: c[0])


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


@dataclass(frozen=True)
class WindowSchedule:
    windows: tuple

    def __iter__(self):
        return iter(self.windows)

    def __len__(self):
        return len(self.windows)


def window_schedule(levels: int, t_prot: float, t_dec: float,
                    params: ClockParams) -> WindowSchedule:
    """Integer polarization windows for levels 1..levels.

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
    return WindowSchedule(windows=tuple(windows))


def window_passage(traj: ClockTrajectory, window: LevelWindow, t_dec: float):
    """(decode_time, active_time) for one level window on one trajectory.

    active_time is the total time k(t) spends in [k_off, k_on] over the
    trajectory's horizon.  decode_time is when accumulated active time first
    reaches t_dec, or the last exit from the window if it never does; None
    if the window is never entered.
    """
    edges, values = traj.piece_edges(traj.horizon)
    inside = np.flatnonzero((values >= window.k_off) & (values <= window.k_on))
    if not inside.size:
        return None, 0.0
    durs = edges[inside + 1] - edges[inside]
    cum = np.cumsum(durs)
    total = float(cum[-1])
    if total >= t_dec:
        i = int(np.searchsorted(cum, t_dec, side="left"))
        offset = t_dec - (cum[i] - durs[i])
        decode_time = float(edges[inside[i]] + offset)
    else:
        decode_time = float(edges[inside[-1] + 1])
    return decode_time, total


def deterministic_passage(window: LevelWindow, params: ClockParams, t_dec: float):
    """Window passage of the noise-free path k(t) = k_mean(t) (mean-path limit)."""
    t_enter = math.log(params.n_bits / window.k_on) / params.rate_r
    t_exit = math.log(params.n_bits / window.k_off) / params.rate_r
    total = t_exit - t_enter
    decode_time = t_enter + t_dec if total >= t_dec else t_exit
    return decode_time, total
