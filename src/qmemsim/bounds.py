"""Closed-form bounds, the decoding-round error ledger, and feasibility search.

The storage protocol certifies one decoding round by the recursion

    p_next = B(p_inher + p_evol) + p_dec

where B is the exact block error rate of the five-qubit decoder, p_evol
bounds the error weight accumulated while waiting for the round, and p_dec
bounds the errors introduced by the timed decode itself (over/under-rotation
from clock inaccuracy plus noise during the window).  A parameter set is
certified when every iterate from p_0 = 0 stays at or below the per-qubit
threshold p_star.  The code is the five-qubit code throughout, so the
block size d in the formulas below is fivequbit.BLOCK = 5.

assess_constants evaluates one multiplier set

    t_prot = c_prot p_star / r          t_dec = c_dec p_star / (d r)
    delta  = c_delta t_dec              h_norm = 2 pi / t_dec

and its recursion under the exact B.  build_ledger is assess_constants at
the reference multipliers (c_prot, c_dec, c_delta) = (1, 1/4, p_star/(8 pi))
over l = ceil(tau / (t_prot + t_dec)) rounds; it adds the verdict under the
quadratic bound 10 p^2 and the clock size K = (2 e^{r tau} / (r delta))^3
at epsilon = 1/6.  feasibility_search scans multiplier grids for sets whose
recursion contracts to a fixed point with a required margin.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .fivequbit import BLOCK, b_exact

TWO_PI = 2.0 * math.pi

#: clock exponent epsilon of the ledger's clock size
EPSILON = 1.0 / 6.0

#: a ledger size whose log10 reaches this is beyond the float range
_LOG10_FLOAT_MAX = math.log10(sys.float_info.max)


def information_decay_time(n_qubits: int, rate_r: float) -> float:
    """Time ln(2N)/r after which recoverable information drops below 1/2."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if rate_r <= 0:
        raise ValueError("rate_r must be positive")
    return math.log(2.0 * n_qubits) / rate_r


def entanglement_breaking_time(rate_r: float) -> float:
    """ln(3)/r: the instant the channel's signal fraction reaches 1/3."""
    if rate_r <= 0:
        raise ValueError("rate_r must be positive")
    return math.log(3.0) / rate_r


def quadratic_block_error(p: float) -> float:
    """The coarse block error bound 10 p^2."""
    return 10.0 * p * p


def clock_size_for(tau: float, rate_r: float, delta: float, epsilon: float) -> int:
    """Smallest register size whose readout error bound is <= delta/2 at tau.

    Inverts delta/2 = e^{r tau} / (r K^{1/2-epsilon}); the exponent
    1/(1/2 - epsilon) is 3 at epsilon = 1/6.  Clamped to the theorem's
    minimum register size 16.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    base = 2.0 * math.exp(rate_r * tau) / (rate_r * delta)
    size = math.ceil(base ** (1.0 / (0.5 - epsilon)))
    return max(16, int(size))


def evolution_budget(t_prot: float, delta: float, rate_r: float) -> float:
    """Waiting-error bound r (t_prot - delta) on the per-qubit weight."""
    return rate_r * (t_prot - delta)


def decode_budget(h_norm: float, delta: float, t_dec: float,
                  rate_r: float) -> float:
    """Timed-decode error bound e^{h_norm delta} - 1 + d r (t_dec + delta)."""
    return math.expm1(h_norm * delta) + BLOCK * rate_r * (t_dec + delta)


@dataclass(frozen=True)
class RecursionTrace:
    """Iterates of p -> error_fn(p + p_evol) + p_dec from p = 0."""

    iterates: tuple          # first `levels` iterates p_1 .. p_l
    fixed_point: float | None  # long-run limit, None if not converged
    p_star: float
    holds: bool              # all recorded iterates <= p_star

    @property
    def first_violation(self):
        """1-based index of the first iterate above p_star, or None."""
        return next((j + 1 for j, p in enumerate(self.iterates)
                     if p > self.p_star), None)


def iterate_round_recursion(error_fn, p_evol: float, p_dec: float, levels: int,
                            p_star: float) -> RecursionTrace:
    """The first `levels` iterates, and the fixed point if 400 further
    iterates settle to within 1e-14."""
    p = 0.0
    iterates = []
    fixed_point = None
    for j in range(levels + 400):
        nxt = error_fn(min(p + p_evol, 1.0)) + p_dec
        if j < levels:
            iterates.append(nxt)
        elif abs(nxt - p) < 1e-14:
            fixed_point = nxt
            break
        p = nxt
    return RecursionTrace(iterates=tuple(iterates), fixed_point=fixed_point,
                          p_star=p_star,
                          holds=all(q <= p_star for q in iterates))


@dataclass(frozen=True)
class RoundConstants:
    """One multiplier set, its constants, and its recursion under the exact B."""

    p_star: float
    c_prot: float
    c_dec: float
    c_delta: float
    rate_r: float
    t_prot: float
    t_dec: float
    delta: float
    h_norm: float
    p_evol_bound: float
    p_dec_bound: float
    levels: int
    trace: RecursionTrace

    @property
    def margin(self) -> float | None:
        """Relative distance of the fixed point below p_star; None when the
        recursion does not settle."""
        fp = self.trace.fixed_point
        return None if fp is None else 1.0 - fp / self.p_star

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "trace"}
        out.update(iterates=list(self.trace.iterates),
                   fixed_point=self.trace.fixed_point, margin=self.margin)
        return out


def _round_times(rate_r, p_star, c_prot, c_dec):
    """(t_prot, t_dec) = (c_prot p_star / r, c_dec p_star / (d r))."""
    return c_prot * p_star / rate_r, c_dec * p_star / (BLOCK * rate_r)


def _reference_c_delta(p_star):
    """delta = (p_star / (8 pi)) t_dec, which makes h_norm delta = p_star / 4."""
    return p_star / (8.0 * math.pi)


def assess_constants(rate_r: float, p_star: float, c_prot: float,
                     c_dec: float, c_delta: float,
                     levels: int = 4) -> RoundConstants:
    """Evaluate one multiplier set; feasibility is judged by the caller."""
    t_prot, t_dec = _round_times(rate_r, p_star, c_prot, c_dec)
    delta = c_delta * t_dec
    h_norm = TWO_PI / t_dec
    p_evol = evolution_budget(t_prot, delta, rate_r)
    p_dec = decode_budget(h_norm, delta, t_dec, rate_r)
    trace = iterate_round_recursion(b_exact, p_evol, p_dec, levels, p_star)
    return RoundConstants(p_star=p_star, c_prot=c_prot, c_dec=c_dec,
                          c_delta=c_delta, rate_r=rate_r,
                          t_prot=t_prot, t_dec=t_dec, delta=delta,
                          h_norm=h_norm, p_evol_bound=p_evol,
                          p_dec_bound=p_dec, levels=levels, trace=trace)


def _recursion(trace: RecursionTrace) -> dict:
    return {"iterates": list(trace.iterates), "fixed_point": trace.fixed_point,
            "holds": trace.holds}


@dataclass(frozen=True)
class LedgerReport:
    """build_ledger's record: the reference point over the horizon tau."""

    tau: float
    point: RoundConstants        # B = exact enumeration
    clock_bits: float | None     # formula value; None beyond the float range
    log10_clock_bits: float
    quadratic: RecursionTrace    # B = 10 p^2

    @property
    def verdict_holds(self) -> bool:
        """Primary verdict, under the exact block error function."""
        return self.point.trace.holds

    def to_dict(self) -> dict:
        pt = self.point
        log10_n_qubits = pt.levels * math.log10(BLOCK)
        n_qubits = (float(BLOCK ** pt.levels)
                    if log10_n_qubits < _LOG10_FLOAT_MAX else None)
        return {
            "inputs": {"rate_r": pt.rate_r, "p_star": pt.p_star,
                       "tau": self.tau},
            "derived": {"t_prot": pt.t_prot, "t_dec": pt.t_dec,
                        "delta": pt.delta, "h_norm": pt.h_norm,
                        "epsilon": EPSILON, "clock_bits": self.clock_bits,
                        "log10_clock_bits": self.log10_clock_bits,
                        "levels": pt.levels, "n_qubits": n_qubits,
                        "log10_n_qubits": log10_n_qubits},
            "budget": {"p_evol_bound": pt.p_evol_bound,
                       "p_dec_bound": pt.p_dec_bound},
            "recursion_exact": _recursion(pt.trace),
            "recursion_quadratic": _recursion(self.quadratic),
            "verdict_holds": self.verdict_holds,
        }


def build_ledger(rate_r: float, p_star: float, tau: float = 1.0) -> LedgerReport:
    """Evaluate the reference constants and the round recursion verdict.

    The verdict carries the result; failing the inequality is a recorded
    finding, not an exception.
    """
    if not 0.0 < p_star <= 1.0 / 40.0:
        raise ValueError("p_star must lie in (0, 1/40]")
    if tau <= 0:
        raise ValueError("tau must be positive")
    c_prot, c_dec = 1.0, 0.25
    round_time = sum(_round_times(rate_r, p_star, c_prot, c_dec))
    point = assess_constants(rate_r, p_star, c_prot, c_dec,
                             _reference_c_delta(p_star),
                             levels=math.ceil(tau / round_time))
    quad = iterate_round_recursion(quadratic_block_error, point.p_evol_bound,
                                   point.p_dec_bound, point.levels, p_star)
    # (2 e^{r tau} / (r delta))^3 in log space, as long horizons pass floats
    log10_clock_bits = 3.0 * (math.log10(2.0 / (rate_r * point.delta))
                              + rate_r * tau / math.log(10.0))
    clock_bits = None
    if log10_clock_bits < _LOG10_FLOAT_MAX:
        clock_bits = (2.0 * math.exp(rate_r * tau)
                      / (rate_r * point.delta)) ** 3
    return LedgerReport(tau=tau, point=point, clock_bits=clock_bits,
                        log10_clock_bits=log10_clock_bits, quadratic=quad)


def feasibility_search(rate_r: float, p_star_values=(0.01,),
                       c_prot_values=(0.5,), c_dec_values=(0.25, 0.05),
                       c_delta_values=None,
                       levels: int = 4, margin: float = 0.1):
    """First multiplier set on the grid contracting with the required margin.

    Returns None when the whole range is infeasible.  c_delta defaults to
    the reference relation of build_ledger.
    """
    if not p_star_values or not c_prot_values or not c_dec_values:
        raise ValueError("search ranges must be nonempty")
    if c_delta_values is not None and not c_delta_values:
        raise ValueError("search ranges must be nonempty")
    for p_star in p_star_values:
        c_deltas = c_delta_values or (_reference_c_delta(p_star),)
        for c_prot in c_prot_values:
            for c_dec in c_dec_values:
                for c_delta in c_deltas:
                    cand = assess_constants(rate_r, p_star, c_prot, c_dec,
                                            c_delta, levels)
                    fp = cand.trace.fixed_point
                    if (cand.trace.holds and fp is not None
                            and fp <= (1.0 - margin) * p_star):
                        return cand
    return None
