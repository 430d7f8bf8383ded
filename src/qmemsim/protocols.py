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
stabilizer codes under Pauli noise and Clifford decoding.  The circuit
model holds each register as a hit list and draws only the blocks that can
decode to a fault (_sample_rounds).

Clock-controlled timing model.  Pass 1 resolves the clock: the trajectory is
sampled, each level's decode time is the instant its window has been
occupied for a total of t_dec (or the final window exit, if total occupancy
T_l falls short), and the drive mistiming |T_l - t_dec| converts into an
independent depolarizing kick of probability min(1, e^{h_norm |T_l - t_dec|} - 1)
on each decoded qubit.  Pass 2 is the noise of the code qubits between
decode instants, with those kicks; given pass 1's record its residual is
depolarizing with an exact fault weight (see Exact channel), so pass 2
draws each trial's residual from that law, without a frame.  A level whose
window is never entered at all, or whose decode instants come out of order
(possible only on non-good trajectories), aborts the trial: it is tallied
as decode_failure and counted as a full logical fault.

Exact channel.  Blocks are disjoint, their noise is i.i.d. depolarizing,
and decoding a depolarized block gives a depolarized logical qubit (see
fivequbit).  So the logical channel is one fault weight w, exact round by
round (_fault_weight): the round's noise of weight q takes w to
w + q (1 - 4w/3), the decode applies b_exact, and a kick, which acts on
the decoded qubits after their decode, composes like the noise.  A
clock-controlled run has one such weight per trial, given its pass-1
record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bounds import TWO_PI, clock_size_for
from .clock import (MAX_BITS, MAX_DRAW_BYTES, ClockParams,
                    ScheduleInfeasibleError, is_good, refinement_pays,
                    sample_passages, sample_trajectory, window_passage,
                    window_schedule)
from .fivequbit import BLOCK, N_STRINGS, b_exact, decode_blocks, unpack
from .pauli import (SPARSE_WEIGHT, _draw_frames, _hit_cells,
                    sample_cumulative_frames)
from .stats import affine_fit

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ProtocolParams:
    """Shared parameter record for all storage strategies.

    t_prot is the wait between decoding rounds, t_dec the duration of a
    decode drive, delta the clock accuracy budget.  clock_bits=None means
    "size the clock from delta and epsilon on demand".  The decode drive
    norm h_norm and the clock's trusted horizon (resolved_t_max) follow
    from these and are not parameters.
    """

    rate_r: float
    levels: int
    p_star: float = 0.01
    t_prot: float | None = None
    t_dec: float | None = None
    delta: float = 0.0
    epsilon: float = 1.0 / 6.0
    clock_bits: int | None = None

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

    @property
    def h_norm(self) -> float | None:
        """Decode drive norm min(2 pi / t_dec, p_star / (4 delta)): the
        budget relation h_norm * delta <= p_star/4 capped by the drive
        bound, the cap alone when delta = 0; None without t_dec."""
        if self.t_dec is None:
            return None
        cap = TWO_PI / self.t_dec
        return cap if self.delta == 0 else min(cap, self.p_star / (4.0 * self.delta))

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
        """The clock's trusted horizon, schedule_end + delta/2."""
        return self.schedule_end + self.delta / 2.0


def with_sized_clock(params: ProtocolParams) -> ProtocolParams:
    """Fill clock_bits from delta/epsilon if absent (readout error <= delta/2).

    A clock larger than clock.MAX_BITS, the largest register whose
    polarization sums fit int64, is a ScheduleInfeasibleError.
    """
    if params.clock_bits is not None:
        return params
    if params.delta <= 0:
        raise ValueError("delta must be positive to size the clock")
    try:
        bits = clock_size_for(params.resolved_t_max(), params.rate_r,
                              params.delta, params.epsilon)
    except OverflowError:  # the size overflows a float, so MAX_BITS too
        bits = math.inf
    if bits > MAX_BITS:
        raise ScheduleInfeasibleError(
            f"delta and epsilon size the clock at K = {bits:.3g} bits, "
            f"above the int64 limit {MAX_BITS}")
    return replace(params, clock_bits=bits)


# residual code order is I=0, X=1, Z=2, Y=3 (see pauli.CODE_LABELS)
@dataclass(frozen=True, eq=False)
class LogicalChannelEstimate:
    counts: np.ndarray          # (4,) per residual code; sums to trials
    trials: int
    decode_failures: int = 0    # tallied inside counts as Y (full fault)
    bad_trajectories: int = 0
    # (4,) exact law of one trial's residual, averaged over the trials
    # (a decode failure counts as Y); None where the run has no exact model
    exact: np.ndarray | None = None

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


def estimate_logical_channel(residuals, decode_failures: int = 0,
                             bad_trajectories: int = 0,
                             exact=None) -> LogicalChannelEstimate:
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
                                  bad_trajectories=bad_trajectories,
                                  exact=exact)


def _depolarized(w, q):
    """Fault weight of P Q for independent depolarizing P and Q of fault
    weights w and q (X, Z, Y each with a third of the weight)."""
    return w + q * (1.0 - 4.0 * w / 3.0)


def _law(w):
    """(..., 4) depolarizing law (1 - w, w/3, w/3, w/3) of fault weight w."""
    w = np.asarray(w, dtype=float)
    return np.stack([1.0 - w, w / 3.0, w / 3.0, w / 3.0], axis=-1)


def _tails(p):
    """P(at least k of a block's five cells are hit) at weight p, for
    k = 1..5; each is summed from five hits down, so a small tail keeps its
    relative precision."""
    k = np.arange(1, BLOCK + 1)
    pmf = np.array((5, 10, 10, 5, 1)) * p ** k * (1.0 - p) ** (BLOCK - k)
    return np.cumsum(pmf[::-1])[::-1]


@lru_cache(maxsize=1)
def _strings_by_weight():
    """The 1024 five-site Pauli strings as (1024, 5) codes in ascending
    weight, and where each weight 0..5 starts (with the end last)."""
    codes = unpack(np.arange(N_STRINGS))
    weight = np.count_nonzero(codes, axis=1)
    order = np.argsort(weight, kind="stable")
    return codes[order], np.searchsorted(weight[order], np.arange(BLOCK + 2))


def _fresh_frames(tails, size, gen):
    """(size, 5) frames of blocks known to hold two hits or more, at the
    weight whose _tails are tails: a hit count from Binomial(5, p) given
    >= 2 by inversion, then a uniform string of that weight, since every
    string of a weight is as likely as another."""
    v = gen.random((size, 1)) * tails[1]
    count = np.count_nonzero(v < tails, axis=-1)
    strings, starts = _strings_by_weight()
    lo, hi = starts[count], starts[count + 1]
    return strings[lo + (gen.random(size) * (hi - lo)).astype(np.intp)]


# peak bytes of _sample_rounds a fresh-block hit (tracemalloc reads 80-92)
# and, when that draw is dense, a block cell (9: one float64, one bool)
FRESH_HIT_BYTES = 100
DENSE_CELL_BYTES = 9


def _fault_weight(durations, rate_r, kicks=None):
    """Exact fault weight of a concatenated run's residual, in the order the
    noise acts: round j depolarizes every qubit of the register for
    durations[..., j] at rate_r, decodes one level, then depolarizes each
    decoded qubit at weight kicks[:, j] (no kicks when None).  A leading
    trial axis gives each trial its own rounds and its own weight; the
    residual is depolarizing, so this is its whole law."""
    q = -0.75 * np.expm1(-rate_r * durations)
    w = 0.0
    for j in range(q.shape[-1]):
        w = b_exact(_depolarized(w, q[..., j]))
        if kicks is not None:
            w = _depolarized(w, kicks[:, j])
    return w


def _sample_rounds(q, levels: int, trials: int, gen):
    """Hit list (cells, codes) of the last qubit of `trials` runs of
    `levels` rounds, each depolarizing every qubit at weight q and decoding
    one level: the ascending trials whose residual is not I, and their codes.

    The register is held as its hit list, the ascending flat cells
    (trial * width + qubit) that carry a Pauli and their codes; the block
    of cell c is c // 5, its decoded qubit's cell one level up.  A frame of
    weight 1 or 0 decodes to I, so a round decodes only two kinds of block:

    * fresh blocks, which carry no residual and take two hits or more: for
      every round at once, the hit cells (pauli._hit_cells) at
      P(>= 2 hits of 5) of the block registers of all rounds side by side,
      (trials, (5^levels - 1)/4), with frames from _fresh_frames.
    * touched blocks, which carry a residual: the round's noise on their
      five cells (pauli._draw_frames) with the residual XORed in; a fresh
      block drawn for one is dropped.

    A draw predicted past MAX_DRAW_BYTES at its peak (FRESH_HIT_BYTES a
    fresh-block hit it expects, and DENSE_CELL_BYTES a cell when that draw
    is dense) raises ScheduleInfeasibleError before the first draw.
    """
    tails = _tails(q)
    span = (BLOCK ** levels - 1) // 4
    predicted = FRESH_HIT_BYTES * float(tails[1]) * trials * span
    if tails[1] >= SPARSE_WEIGHT:
        predicted += DENSE_CELL_BYTES * trials * span
    if predicted > MAX_DRAW_BYTES:
        raise ScheduleInfeasibleError(
            f"{trials} trials at {levels} levels are predicted to "
            f"allocate {predicted:.3g} bytes, above the budget "
            f"MAX_DRAW_BYTES = {MAX_DRAW_BYTES}")
    widths = BLOCK ** np.arange(levels - 1, -1, -1)
    starts = np.cumsum(widths) - widths
    trial, column = np.divmod(_hit_cells((trials, span), tails[1], gen), span)
    level = np.searchsorted(starts, column, side="right") - 1
    fresh = trial * widths[level] + column - starts[level]
    fresh_codes = decode_blocks(_fresh_frames(tails, fresh.size, gen))
    # the fresh blocks that decode to a fault, round by round
    fault = fresh_codes != 0
    level, fresh, fresh_codes = level[fault], fresh[fault], fresh_codes[fault]
    order = np.argsort(level, kind="stable")
    fresh, fresh_codes = fresh[order], fresh_codes[order]
    edges = np.searchsorted(level[order], np.arange(levels + 1))
    cells, codes = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.uint8)
    for j in range(levels):
        new = fresh[edges[j]:edges[j + 1]]
        new_codes = fresh_codes[edges[j]:edges[j + 1]]
        if cells.size:
            blocks = cells // BLOCK
            first = np.ones(blocks.size, dtype=bool)
            first[1:] = blocks[1:] != blocks[:-1]
            touched = blocks[first]
            # a touched block takes its noise cell by cell, not fresh
            free = touched.take(np.searchsorted(touched, new),
                                mode="clip") != new
            frames = _draw_frames((touched.size, BLOCK), q, gen)
            frames[np.cumsum(first) - 1, cells % BLOCK] ^= codes
            residuals = decode_blocks(frames)
            hit = residuals != 0
            new = np.concatenate((touched[hit], new[free]))
            new_codes = np.concatenate((residuals[hit], new_codes[free]))
            order = np.argsort(new)
            new, new_codes = new[order], new_codes[order]
        cells, codes = new, new_codes
    return cells, codes


def _check_trials(trials: int, levels: int) -> None:
    """Refuse, before any draw, fewer than one trial or a trials x 5^levels
    register with more cells than int64 can index."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cells = trials * BLOCK ** levels
    if cells >= 2 ** 63:
        raise ScheduleInfeasibleError(
            f"trials x 5^levels = {cells} register cells, at or above the "
            "int64 limit 2^63")


def simulate_unprotected(t: float, params: ProtocolParams, trials: int,
                         rng) -> LogicalChannelEstimate:
    """Hold the logical qubit in physical qubit 0 of a d^levels product
    register with no decoding.  Noise acts on each qubit independently, so
    the spectators carry no evidence about qubit 0 and only its frame is
    drawn: the result, and its random stream, do not depend on levels."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    _check_trials(trials, 0)
    frames = sample_cumulative_frames(1, t, params.rate_r, trials, rng)
    weight = -0.75 * math.expm1(-params.rate_r * t)
    return estimate_logical_channel(frames[:, 0], exact=_law(weight))


@dataclass(frozen=True)
class RepetitionEstimate:
    failures: int
    trials: int

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
    return RepetitionEstimate(failures=failures, trials=trials)


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
    in units of 1/r (the tail depends on r t only), to 1e-12: the largest
    probe whose fidelity 1 - failure still meets 1 - failure_floor.  No
    sampling involved.
    """
    floor = 1.0 - failure_floor
    if not 0.5 < floor < 1.0:
        raise ValueError("failure_floor must lie in (0, 1/2)")

    def meets(t):
        return 1.0 - exact_majority_failure(n_bits, t) >= floor

    lo, hi = 0.0, 1.0
    while meets(hi):
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("fidelity never crosses the floor; raise it")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return lo / rate_r


def simulate_circuit_model(params: ProtocolParams, trials: int,
                           rng) -> LogicalChannelEstimate:
    """Concatenated storage with externally timed, instantaneous decodes.

    Per round: accumulate noise on the current register for t_prot (the
    decode itself takes no time in this model), then decode one level,
    block by block.  Discarded qubits leave the simulation.  After
    params.levels rounds a single qubit remains; its frame is the residual
    logical Pauli.
    """
    if params.levels < 1:
        raise ValueError("circuit model needs at least one level")
    if params.t_prot is None:
        raise ValueError("t_prot is required")
    _check_trials(trials, params.levels)
    q = -0.75 * np.expm1(-params.rate_r * params.t_prot)
    _, codes = _sample_rounds(q, params.levels, trials,
                              np.random.default_rng(rng))
    counts = np.bincount(codes, minlength=4)
    counts[0] = trials - codes.size
    weight = _fault_weight(np.full(params.levels, params.t_prot), params.rate_r)
    return LogicalChannelEstimate(counts=counts, trials=trials,
                                  exact=_law(weight))


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
    # (trials, 4) exact law of each trial's residual given this record;
    # an aborted trial is a Y fault
    channels: np.ndarray


def simulate_clock_controlled(params: ProtocolParams, trials: int, rng,
                              return_diagnostics: bool = False):
    """Concatenated storage with decode drives gated by the noisy clock.

    Returns a LogicalChannelEstimate, or with return_diagnostics a pair
    (estimate, ClockRunDiagnostics).

    Both passes draw from one generator, np.random.default_rng(rng): pass 1
    resolves the clocks of all trials, then pass 2 draws each trial's
    residual from its exact law given that record (fault weight w_i, see
    ClockRunDiagnostics.channels): one uniform per trial against w_i, then
    one uniform X, Z or Y per fault.  When the clock is large enough that
    refinement_pays, pass 1 is one call of clock.sample_passages, which
    resolves flips only near the band edges and the window thresholds, for
    a batch of trials at a time: at acceptance criterion 6 (K = 3.1e8), 15
    trials of about 240 intervals and 5000 resolved flips each, against the
    2.55 M flips, 45 MB, of one event-level trajectory.  Below that, where
    about LEAF_BITS bits or fewer flip at all, it samples each trial's
    event-level trajectory in turn and analyses it with is_good and
    window_passage.
    """
    if params.levels < 1:
        raise ValueError("clock strategy needs at least one level")
    if params.t_prot is None or params.t_dec is None:
        raise ValueError("t_prot and t_dec are required")
    _check_trials(trials, params.levels)
    if params.delta >= min(params.t_prot, params.t_dec) / 10.0:
        raise ScheduleInfeasibleError(
            "clock accuracy delta must stay below min(t_prot, t_dec)/10")
    params = with_sized_clock(params)
    clock = ClockParams(n_bits=params.clock_bits, epsilon=params.epsilon,
                        t_max=params.resolved_t_max(), rate_r=params.rate_r)
    schedule = window_schedule(params.levels, params.t_prot, params.t_dec, clock)
    gen = np.random.default_rng(rng)
    horizon = params.schedule_end + 10.0 * params.delta

    if refinement_pays(clock, horizon):
        good, decode, active = sample_passages(clock, horizon, schedule,
                                               params.t_dec, trials, gen)
    else:
        good, passages = np.ones(trials, dtype=bool), []
        for i in range(trials):
            traj = sample_trajectory(clock, horizon, gen)
            good[i] = is_good(traj, clock)
            passages.append([window_passage(traj, w, params.t_dec)
                             for w in schedule])
        decode, active = np.array(passages, dtype=float).transpose(2, 0, 1)
    # a trial aborts at its first window never entered (nan) or out of order
    bad = np.isnan(decode)
    bad[:, 1:] |= decode[:, 1:] <= decode[:, :-1]
    kept = np.cumsum(bad, axis=1) == 0
    aborted = bad.any(axis=1)
    taus = np.where(kept, decode, 0.0)
    kick_probs = np.where(kept, [[_kick_probability(
        params.h_norm * abs(a - params.t_dec)) for a in row]
        for row in active], 0.0)

    # pass 2: each trial's residual from its exact law given its record
    weights = _fault_weight(np.clip(np.diff(taus, axis=1, prepend=0.0), 0.0,
                                    None), params.rate_r, kick_probs)
    residuals = np.zeros(trials, dtype=np.uint8)
    faults = np.flatnonzero(gen.random(trials) < weights)
    residuals[faults] = gen.integers(1, 4, faults.size, dtype=np.uint8)
    channels = _law(weights)
    channels[aborted] = (0.0, 0.0, 0.0, 1.0)  # a Y fault
    estimate = estimate_logical_channel(residuals[~aborted],
                                        decode_failures=int(aborted.sum()),
                                        bad_trajectories=int((~good).sum()),
                                        exact=channels.mean(axis=0))
    if return_diagnostics:
        return estimate, ClockRunDiagnostics(good=good, aborted=aborted,
                                             decode_times=taus,
                                             kick_probs=kick_probs,
                                             channels=channels)
    return estimate


@dataclass(frozen=True)
class LifetimeScan:
    points: tuple            # ((n_qubits, lifetime), ...)
    slope: float             # vs level count (protected) or ln n (others)
    intercept: float


def lifetime_scan(strategy: str, params: ProtocolParams, fidelity_floor: float,
                  trials: int, rng, levels_list=None,
                  n_bits_list=None) -> LifetimeScan:
    """Longest storage meeting the fidelity floor, versus register size.

    unprotected: one draw of qubit 0's failure times per register size
    (sizes are d^level for level in levels_list); the lifetime is the exact
    instant at which that draw's empirical fidelity drops below the floor.
    circuit / clock: the protocol with the most rounds whose final fidelity
    meets the floor; lifetime is its wall-clock storage span.  repetition:
    exact-tail bisection per odd n in n_bits_list at failure floor
    1 - fidelity_floor.

    The fitted slope is against the level count for circuit/clock and
    against ln n for unprotected/repetition.
    """
    if not 1.0 / 3.0 < fidelity_floor < 1.0:
        raise ValueError("fidelity_floor must lie in (1/3, 1)")
    _check_trials(trials, 0)
    gen = np.random.default_rng(rng)
    points = []
    if strategy == "unprotected":
        # with one uniform U per trial, qubit 0's frame is not I at time t
        # exactly when U < 3(1 - e^{-rt})/4: from T = -ln(1 - 4U/3)/r on,
        # or never when U >= 3/4.  The fidelity of LogicalChannelEstimate
        # meets the floor with up to m failures, so the lifetime is the
        # (m+1)-th smallest T.
        k = np.arange(trials + 1)
        m = np.count_nonzero(
            (2.0 * ((trials - k) / trials) + 1.0) / 3.0 >= fidelity_floor) - 1
        levels_list = (0, 1, 3) if levels_list is None else levels_list
        for lev in levels_list:
            u = np.partition(gen.random(trials), m)[m]
            if u >= 0.75:
                raise RuntimeError("fidelity never crosses the floor; raise it")
            points.append((BLOCK ** lev, -math.log1p(-u / 0.75) / params.rate_r))
        # per point: 5**28 and up overflow int64
        xs = [math.log(n) for n, _ in points]
    elif strategy in ("circuit", "clock"):
        levels_list = tuple(range(1, params.levels + 1)) if levels_list is None \
            else levels_list
        if not levels_list or min(levels_list) < 1:
            raise ValueError("circuit and clock decode at least one level")
        if strategy == "circuit":
            simulate, span = simulate_circuit_model, params.t_prot
        else:
            simulate, span = simulate_clock_controlled, params.t_prot + params.t_dec
        for lev in levels_list:
            best = 0.0
            for rounds in range(lev, 0, -1):
                est = simulate(replace(params, levels=rounds), trials, gen)
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
    return LifetimeScan(points=tuple(points), slope=slope, intercept=intercept)
