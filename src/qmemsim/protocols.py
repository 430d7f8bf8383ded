"""End-to-end storage strategies under depolarizing noise.

Four ways to hold one logical qubit for as long as possible:

* unprotected: park it in a physical qubit (optionally alongside idle
  spectator qubits) and wait.
* classical repetition: a classical bit copied onto n bits, majority vote;
  the classical benchmark the quantum strategies are measured against.
* circuit model: concatenated five-qubit code, one level decoded
  instantaneously after each wait of t_prot (an external controller applies
  the decoding unitary at exactly the right moment).
* clock controlled: same decoder, but each level's decode drive is gated by
  the polarization of a noisy clock register crossing its scheduled window,
  so timing itself is powered by the noise.

All strategies are simulated in the Pauli frame: the state is never
represented, only the cumulative Pauli error per qubit, which is exact for
stabilizer codes under Pauli noise and Clifford decoding.

Clock-controlled timing model.  Pass 1 resolves the clock: the trajectory is
sampled, each level's decode time is the instant its window has been
occupied for a total of t_dec (or the final window exit, if total occupancy
T_l falls short), and the drive mistiming |T_l - t_dec| converts into an
independent depolarizing kick of probability min(1, e^{h_norm |T_l - t_dec|} - 1)
on each decoded qubit.  Pass 2 replays noise on the code qubits between
decode instants; decoded-away qubits stop being tracked.  A level whose
window is never entered at all, or whose decode instants come out of order
(possible only on non-good trajectories), aborts the trial: it is tallied as
decode_failure and counted as a full logical fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import TWO_PI, clock_size_for
from .clock import (ClockParams, ScheduleInfeasibleError, deterministic_passage,
                    is_good, refinement_pays, sample_passages,
                    sample_trajectory, window_passage, window_schedule)
from .fivequbit import BLOCK, decode_blocks
from .pauli import depolarize, sample_cumulative_frames
from .stats import affine_fit, wilson_interval

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ProtocolParams:
    """Shared parameter record for all storage strategies.

    t_prot is the wait between decoding rounds, t_dec the duration of a
    decode drive, delta the clock accuracy budget, h_norm the decode drive
    norm (defaulting to min(2 pi / t_dec, p_star / (4 delta)), i.e. the
    budget relation h_norm * delta <= p_star/4 capped by the drive bound).
    clock_bits=None means "size the clock from delta and epsilon on demand".
    """

    rate_r: float
    levels: int
    p_star: float = 0.01
    t_prot: float | None = None
    t_dec: float | None = None
    delta: float = 0.0
    epsilon: float = 1.0 / 6.0
    clock_bits: int | None = None
    t_max: float | None = None
    h_norm: float | None = None

    def __post_init__(self):
        if self.rate_r <= 0:
            raise ValueError("rate_r must be positive")
        if self.levels < 0:
            raise ValueError("levels must be >= 0")
        if not 0.0 < self.p_star < 1.0:
            raise ValueError("p_star must lie in (0, 1)")
        if self.t_prot is not None and self.t_prot <= 0:
            raise ValueError("t_prot must be positive")
        if self.t_dec is not None and self.t_dec <= 0:
            raise ValueError("t_dec must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        if self.h_norm is None and self.t_dec is not None:
            cap = TWO_PI / self.t_dec
            h = cap if self.delta == 0 else min(cap, self.p_star / (4.0 * self.delta))
            object.__setattr__(self, "h_norm", h)
        if self.h_norm is not None and self.t_dec is not None:
            if self.h_norm > TWO_PI / self.t_dec * (1.0 + 1e-12):
                raise ValueError("h_norm exceeds the drive bound 2*pi/t_dec")

    @property
    def n_qubits(self) -> int:
        return BLOCK ** self.levels

    def level_time(self, level: int) -> float:
        """Window-open time t_l = l*t_prot + (l-1)*t_dec."""
        return level * self.t_prot + (level - 1) * self.t_dec

    @property
    def schedule_end(self) -> float:
        """Nominal end of the last decode window."""
        return self.level_time(self.levels) + self.t_dec

    def resolved_t_max(self) -> float:
        return self.t_max if self.t_max is not None else self.schedule_end + self.delta / 2.0


def with_sized_clock(params: ProtocolParams) -> ProtocolParams:
    """Fill clock_bits from delta/epsilon if absent (readout error <= delta/2)."""
    if params.clock_bits is not None:
        return params
    if params.delta <= 0:
        raise ValueError("delta must be positive to size the clock")
    bits = clock_size_for(params.resolved_t_max(), params.rate_r, params.delta,
                          params.epsilon)
    return replace(params, clock_bits=bits)


# residual code order is I=0, X=1, Z=2, Y=3 (see pauli.CODE_LABELS)
@dataclass(frozen=True, eq=False)
class LogicalChannelEstimate:
    counts: np.ndarray          # (4,) per residual code; sums to trials
    trials: int
    decode_failures: int = 0    # tallied inside counts as Y (full fault)
    bad_trajectories: int = 0

    def __post_init__(self):
        if int(self.counts.sum()) != self.trials:
            raise ValueError("counts must sum to trials")

    @property
    def p_hat(self) -> np.ndarray:
        return self.counts / self.trials

    @property
    def error_rate(self) -> float:
        return 1.0 - self.p_hat[0]

    @property
    def avg_fidelity(self) -> float:
        """(2 p_I + 1)/3, the Pauli-channel average fidelity; in [1/3, 1]."""
        return (2.0 * self.p_hat[0] + 1.0) / 3.0

    def sigma(self) -> np.ndarray:
        """Per-class binomial standard errors."""
        p = self.p_hat
        return np.sqrt(p * (1.0 - p) / self.trials)

    @property
    def fidelity_sigma(self) -> float:
        return 2.0 * float(self.sigma()[0]) / 3.0


def estimate_logical_channel(residuals, decode_failures: int = 0,
                             bad_trajectories: int = 0) -> LogicalChannelEstimate:
    """Tally residual Pauli codes into a channel estimate.

    decode_failures have no defined residual; each is counted as a Y fault
    (errs on both axes) so the fidelity accounting treats it as a full
    logical error while the dedicated field keeps it visible.
    """
    residuals = np.asarray(residuals)
    trials = residuals.size + decode_failures
    if trials == 0:
        raise ValueError("no outcomes to estimate from")
    counts = np.bincount(residuals.astype(np.int64).ravel(), minlength=4)
    counts[3] += decode_failures
    return LogicalChannelEstimate(counts=counts, trials=trials,
                                  decode_failures=decode_failures,
                                  bad_trajectories=bad_trajectories)


def simulate_unprotected(t: float, params: ProtocolParams, trials: int,
                         rng) -> LogicalChannelEstimate:
    """Hold the logical qubit in physical qubit 0 of a d^levels product
    register with no decoding; spectator qubits are simulated but cannot
    influence the marginal, which is the point of the comparison."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    frames = sample_cumulative_frames(params.n_qubits, t, params.rate_r,
                                      trials, rng)
    return estimate_logical_channel(frames[:, 0])


@dataclass(frozen=True)
class RepetitionEstimate:
    n_bits: int
    t: float
    failures: int
    trials: int
    ci_low: float
    ci_high: float

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials


def simulate_classical_repetition(n_bits: int, t: float, trials: int, rng,
                                  rate_r: float = 1.0) -> RepetitionEstimate:
    """Majority vote over n_bits classical bits flipping at rate r/2.

    Each bit is flipped at time t with probability q = (1 - e^{-rt})/2
    independently, so the number of flipped bits is Binomial(n, q) and is
    drawn directly; the vote fails when more than half flipped.
    """
    if n_bits % 2 == 0:
        raise ValueError("n_bits must be odd for an unambiguous vote")
    if n_bits < 1 or trials < 1:
        raise ValueError("n_bits and trials must be positive")
    gen = np.random.default_rng(rng)
    q = (1.0 - math.exp(-rate_r * t)) / 2.0
    flipped = gen.binomial(n_bits, q, size=trials)
    failures = int((flipped > n_bits // 2).sum())
    lo, hi = wilson_interval(failures, trials)
    return RepetitionEstimate(n_bits=n_bits, t=t, failures=failures,
                              trials=trials, ci_low=lo, ci_high=hi)


def exact_majority_failure(n_bits: int, t: float, rate_r: float = 1.0) -> float:
    """Exact binomial tail P[Binomial(n, q) > n/2], q = (1 - e^{-rt})/2.

    Since q <= 1/2 the first tail term, k = n//2 + 1, is the largest; it is
    evaluated in log space with math.lgamma, and each later term follows
    from its predecessor by the ratio (n - k)/(k + 1) * q/(1 - q) <= 1, so
    nothing overflows and small terms underflow harmlessly to 0.
    """
    if n_bits % 2 == 0:
        raise ValueError("n_bits must be odd")
    q = (1.0 - math.exp(-rate_r * t)) / 2.0
    if q == 0.0:
        return 0.0
    first = n_bits // 2 + 1
    log_first = (math.lgamma(n_bits + 1) - math.lgamma(first + 1)
                 - math.lgamma(n_bits - first + 1)
                 + first * math.log(q) + (n_bits - first) * math.log1p(-q))
    k = np.arange(first, n_bits)
    ratios = (n_bits - k) / (k + 1.0) * (q / (1.0 - q))
    return math.exp(log_first) * (1.0 + float(np.cumprod(ratios).sum()))


def repetition_lifetime(n_bits: int, rate_r: float = 1.0,
                        failure_floor: float = 0.1) -> float:
    """Time at which the exact majority-vote failure reaches the floor.

    The failure probability increases monotonically in t from 0 toward 1/2,
    so the floor must lie in (0, 1/2).  Found by bisection on the exact tail
    in units of 1/r (the tail depends on r t only); no sampling involved.
    """
    if not 0.0 < failure_floor < 0.5:
        raise ValueError("failure_floor must lie in (0, 1/2)")
    return _bisect_lifetime(lambda t: 1.0 - exact_majority_failure(n_bits, t),
                            1.0 - failure_floor, 1e-12, 1.0) / rate_r


def simulate_circuit_model(params: ProtocolParams, trials: int, rng,
                           storage_levels: int | None = None,
                           round_spacing: float | None = None) -> LogicalChannelEstimate:
    """Concatenated storage with externally timed, instantaneous decodes.

    Per round: accumulate noise on the current register for round_spacing
    (default t_prot: the decode itself takes no time in this model), then
    decode one level, block by block.  Discarded qubits leave the
    simulation.  After `storage_levels` rounds a single qubit remains; its
    frame is the residual logical Pauli.
    """
    levels = params.levels if storage_levels is None else storage_levels
    if levels < 1:
        raise ValueError("circuit model needs at least one level")
    if params.t_prot is None:
        raise ValueError("t_prot is required")
    spacing = params.t_prot if round_spacing is None else round_spacing
    gen = np.random.default_rng(rng)
    frames = np.zeros((trials, BLOCK ** levels), dtype=np.uint8)
    for _ in range(levels):
        frames ^= sample_cumulative_frames(frames.shape[1], spacing,
                                           params.rate_r, trials, gen)
        frames = decode_blocks(frames.reshape(trials, -1, BLOCK))
    return estimate_logical_channel(frames[:, 0])


def _kick_probability(exponent: float) -> float:
    """min(1, e^exponent - 1); exactly 1 from exponent ln 2 on, where
    math.expm1 would otherwise overflow for exponents past about 709.78."""
    return 1.0 if exponent >= _LN2 else math.expm1(exponent)


@dataclass(frozen=True)
class ClockRunDiagnostics:
    """Per-trial pass-1 record of one clock-controlled run."""

    good: np.ndarray         # (trials,) bool, trajectory stayed in band
    aborted: np.ndarray      # (trials,) bool, decode failed (missed/reordered)
    decode_times: np.ndarray  # (trials, levels)
    kick_probs: np.ndarray   # (trials, levels)


def simulate_clock_controlled(params: ProtocolParams, trials: int, rng,
                              deterministic_clock: bool = False,
                              code_rate_r: float | None = None,
                              return_diagnostics: bool = False):
    """Concatenated storage with decode drives gated by the noisy clock.

    deterministic_clock replaces every sampled trajectory by the mean path
    (the zero-noise clock limit); code_rate_r overrides the noise rate on
    the code qubits only, so clock noise can be studied in isolation.
    Returns a LogicalChannelEstimate, or with return_diagnostics a pair
    (estimate, ClockRunDiagnostics).

    Both passes draw from one generator, np.random.default_rng(rng): pass 1
    resolves the trials' clocks one after another, then pass 2 samples the
    code-register noise of all trials.  When the clock is large enough that
    refinement_pays, pass 1 draws the band verdict and the window passages
    with clock.sample_passages, which resolves flips only near the band
    edges and the window thresholds (a few ms per trial at acceptance
    criterion 6, K = 3.1e8).  Below that, where about LEAF_BITS bits or
    fewer flip at all, it samples the event-level trajectory and analyses
    it with is_good and window_passage.  So pass 1 holds one trial's clock
    state at a time: an event-level trajectory takes about 18 bytes per
    flip while it is sampled, and sample_passages about as much per
    resolved flip plus one level of intervals (about 5000 flips at
    criterion 6, against the 2.55 M flips, 45 MB, of its event-level
    trajectory).
    """
    if params.levels < 1:
        raise ValueError("clock strategy needs at least one level")
    if params.t_prot is None or params.t_dec is None:
        raise ValueError("t_prot and t_dec are required")
    if params.delta >= min(params.t_prot, params.t_dec) / 10.0:
        raise ScheduleInfeasibleError(
            "clock accuracy delta must stay below min(t_prot, t_dec)/10")
    params = with_sized_clock(params)
    clock = ClockParams(n_bits=params.clock_bits, epsilon=params.epsilon,
                        t_max=params.resolved_t_max(), rate_r=params.rate_r)
    schedule = window_schedule(params.levels, params.t_prot, params.t_dec, clock)
    gen = np.random.default_rng(rng)
    horizon = params.schedule_end + 10.0 * params.delta
    levels = params.levels
    r_code = params.rate_r if code_rate_r is None else code_rate_r

    taus = np.zeros((trials, levels))
    kick_probs = np.zeros((trials, levels))
    aborted = np.zeros(trials, dtype=bool)
    good = np.ones(trials, dtype=bool)

    if deterministic_clock:
        passages = [deterministic_passage(w, clock, params.t_dec) for w in schedule]
        for j, (decode_time, total) in enumerate(passages):
            taus[:, j] = decode_time
            kick_probs[:, j] = _kick_probability(
                params.h_norm * abs(total - params.t_dec))
        if np.any(np.diff(taus[0]) <= 0):
            raise ScheduleInfeasibleError("mean-path decode times not increasing")
    else:
        refine = refinement_pays(clock, horizon)
        for i in range(trials):
            if refine:
                good[i], passages = sample_passages(clock, horizon, schedule,
                                                    params.t_dec, gen)
            else:
                traj = sample_trajectory(clock, horizon, gen)
                good[i] = is_good(traj, clock)
                passages = (window_passage(traj, w, params.t_dec) for w in schedule)
            previous = -math.inf
            for j, (decode_time, total) in enumerate(passages):
                if decode_time is None or decode_time <= previous:
                    aborted[i] = True
                    break
                taus[i, j] = decode_time
                kick_probs[i, j] = _kick_probability(
                    params.h_norm * abs(total - params.t_dec))
                previous = decode_time

    # pass 2: noise on the code register between decode instants
    frames = np.zeros((trials, params.n_qubits), dtype=np.uint8)
    t_prev = np.zeros(trials)
    for j in range(levels):
        dur = np.clip(taus[:, j] - t_prev, 0.0, None)
        frames ^= sample_cumulative_frames(frames.shape[1], dur, r_code,
                                           trials, gen)
        frames = decode_blocks(frames.reshape(trials, -1, BLOCK))
        depolarize(frames, kick_probs[:, j], gen)
        t_prev = taus[:, j]
    residuals = frames[~aborted, 0]
    estimate = estimate_logical_channel(residuals,
                                        decode_failures=int(aborted.sum()),
                                        bad_trajectories=int((~good).sum()))
    if return_diagnostics:
        return estimate, ClockRunDiagnostics(good=good, aborted=aborted,
                                             decode_times=taus,
                                             kick_probs=kick_probs)
    return estimate


@dataclass(frozen=True)
class LifetimeScan:
    strategy: str
    fidelity_floor: float
    points: tuple            # ((n_qubits, lifetime), ...)
    slope: float             # vs level count (protected) or ln n (others)
    intercept: float


def _bisect_lifetime(fid_at, floor: float, grid_step: float, t_hi0: float):
    """Largest t with fid_at(t) >= floor, to grid_step resolution."""
    if floor >= 1.0:
        raise ValueError("fidelity floor unreachable even at t = 0")
    lo, hi = 0.0, t_hi0
    while fid_at(hi) >= floor:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("fidelity never crosses the floor; raise it")
    while hi - lo > grid_step:
        mid = 0.5 * (lo + hi)
        if fid_at(mid) >= floor:
            lo = mid
        else:
            hi = mid
    return lo


def lifetime_scan(strategy: str, params: ProtocolParams, fidelity_floor: float,
                  trials: int, rng, levels_list=None, n_bits_list=None,
                  grid_step: float = 0.05) -> LifetimeScan:
    """Longest storage meeting the fidelity floor, versus register size.

    unprotected: Monte Carlo bisection over t per register size (sizes are
    d^level for level in levels_list); the returned lifetime is the largest
    grid point still meeting the floor.  circuit / clock: the protocol with
    the most rounds whose final fidelity meets the floor; lifetime is its
    wall-clock storage span.  repetition: exact-tail bisection per odd n
    in n_bits_list at failure floor 1 - fidelity_floor.

    The fitted slope is against the level count for circuit/clock and
    against ln n for unprotected/repetition.
    """
    if not 1.0 / 3.0 < fidelity_floor < 1.0:
        raise ValueError("fidelity_floor must lie in (1/3, 1)")
    gen = np.random.default_rng(rng)
    points = []
    if strategy == "unprotected":
        levels_list = (0, 1, 3) if levels_list is None else levels_list
        for lev in levels_list:
            sub = replace(params, levels=lev)
            life = _bisect_lifetime(
                lambda t: simulate_unprotected(t, sub, trials, gen).avg_fidelity,
                fidelity_floor, grid_step, max(1.0 / params.rate_r, grid_step))
            points.append((sub.n_qubits, life))
        xs = np.log([n for n, _ in points])
    elif strategy in ("circuit", "clock"):
        levels_list = tuple(range(1, params.levels + 1)) if levels_list is None \
            else levels_list
        span = params.t_prot if strategy == "circuit" \
            else params.t_prot + params.t_dec
        for lev in levels_list:
            best = 0.0
            for rounds in range(lev, 0, -1):
                if strategy == "circuit":
                    est = simulate_circuit_model(params, trials, gen,
                                                 storage_levels=rounds)
                else:
                    est = simulate_clock_controlled(replace(params, levels=rounds),
                                                    trials, gen)
                if est.avg_fidelity >= fidelity_floor:
                    best = rounds * span
                    break
            points.append((BLOCK ** lev, best))
        xs = np.asarray(levels_list, dtype=float)
    elif strategy == "repetition":
        if n_bits_list is None:
            n_bits_list = (11, 101, 1001, 10001)
        for n in n_bits_list:
            life = repetition_lifetime(n, params.rate_r,
                                       failure_floor=1.0 - fidelity_floor)
            points.append((n, life))
        xs = np.log([n for n, _ in points])
    else:
        raise ValueError(f"unknown strategy '{strategy}'")
    ys = np.array([life for _, life in points])
    if len(points) > 1:
        slope, intercept = affine_fit(xs, ys)
    else:
        slope, intercept = 0.0, float(ys[0])
    return LifetimeScan(strategy=strategy, fidelity_floor=fidelity_floor,
                        points=tuple(points), slope=slope, intercept=intercept)
