"""Slow-lane checks of the clock-controlled protocol, outside tier-1.

    PYTHONPATH=src python scripts/slow_lane.py

pytest collects only tests/, so nothing here runs with the tier-1 suite.
The script runs two checks and prints one line per result, then a JSON
summary as the last line; it exits 1 if any check fails.

1. The exactness gate of tests/test_passages.py at full size:
   clock.sample_passages against sample_trajectory + is_good +
   window_passage, at K = 4096, 1e5 and 1e6 over three seeds with
   GATE_TRIALS trajectories a side, then at the acceptance-criterion-6
   clock (K = 310,991,506) with GATE_TRIALS refined trajectories against
   CRITERION6_EVENTS event trajectories (about 0.1 s each).  Every
   p-value (chi-square on the band verdict and the abort class, KS on each
   level's decode time and occupancy) must reach GATE_ALPHA.
2. The criterion-6 schedule (SCALED) at 1 to 4 levels: the round-boundary
   logical error of simulate_clock_controlled is at most p* at every level,
   and the lifetime_scan("clock") slope is within 10% of t_prot + t_dec, as
   acceptance criterion 5 checks for the circuit model, with SCALED_TRIALS
   trials per level and per scan point.

Every run checks the same sample sizes on every host.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from distribution_gate import (compare_passages, passage_outcomes,  # noqa: E402
                               passage_samplers)
from qmemsim.clock import ClockParams, window_schedule  # noqa: E402
from qmemsim.protocols import (ProtocolParams, lifetime_scan,  # noqa: E402
                               simulate_clock_controlled, with_sized_clock)

GATE_ALPHA = 1e-4
GATE_TRIALS = 10_000       # trajectories a side per gate point and seed
CRITERION6_EVENTS = 1_300  # event trajectories at the criterion-6 clock
SCALED_TRIALS = 2_000      # trials per SCALED level and per scan point
SCALED = ProtocolParams(rate_r=1.0, levels=2, p_star=0.03, t_prot=0.006,
                        t_dec=0.0015, delta=1.4e-4, epsilon=0.01)

# (K, epsilon, t_prot, t_dec): two windows each, and bands 1.5 to 2.2
# sigma wide at t_max = 2 (t_prot + t_dec), so that 7% to 60% of the
# paths leave them
GATE_POINTS = (
    (4096, 0.05, 0.5, 0.3),
    (100_000, 0.01, 0.1, 0.05),
    (1_000_000, 0.01, 0.05, 0.03),
)


def gate_line(label, refined, events, seconds):
    p = compare_passages(refined, events)
    ok = min(p.values()) >= GATE_ALPHA
    print(f"{'PASS' if ok else 'FAIL'} gate {label}: good {refined[0].mean():.4f} "
          f"vs {events[0].mean():.4f}, min p {min(p.values()):.3g} "
          f"({min(p, key=p.get)}), {seconds:.0f} s", flush=True)
    return {"label": label, "ok": ok, "p": p, "seconds": seconds,
            "good": [float(refined[0].mean()), float(events[0].mean())],
            "trajectories": [len(refined[0]), len(events[0])]}


def run_gate():
    results = []
    for n_bits, epsilon, t_prot, t_dec in GATE_POINTS:
        t_max = 2 * (t_prot + t_dec)
        params = ClockParams(n_bits=n_bits, epsilon=epsilon, t_max=t_max,
                             rate_r=1.0)
        schedule = window_schedule(2, t_prot, t_dec, params)
        refined_fn, events_fn = passage_samplers(params, 1.05 * t_max, schedule,
                                             t_dec)
        for seed in (1, 2, 3):
            start = time.perf_counter()
            refined = passage_outcomes(refined_fn, GATE_TRIALS,
                                       np.random.default_rng([seed, n_bits, 0]))
            events = passage_outcomes(events_fn, GATE_TRIALS,
                                      np.random.default_rng([seed, n_bits, 1]))
            results.append(gate_line(f"K={n_bits} seed={seed}", refined, events,
                                     time.perf_counter() - start))
    # the criterion-6 clock, as simulate_clock_controlled builds it
    sized = with_sized_clock(SCALED)
    params = ClockParams(n_bits=sized.clock_bits, epsilon=sized.epsilon,
                         t_max=sized.resolved_t_max(), rate_r=sized.rate_r)
    schedule = window_schedule(sized.levels, sized.t_prot, sized.t_dec, params)
    horizon = sized.schedule_end + 10.0 * sized.delta
    refined_fn, events_fn = passage_samplers(params, horizon, schedule, sized.t_dec)
    start = time.perf_counter()
    refined = passage_outcomes(refined_fn, GATE_TRIALS,
                               np.random.default_rng([4, 0]))
    refined_s = time.perf_counter() - start
    events = passage_outcomes(events_fn, CRITERION6_EVENTS,
                              np.random.default_rng([4, 1]))
    events_s = time.perf_counter() - start - refined_s
    result = gate_line(f"K={sized.clock_bits}", refined, events,
                       time.perf_counter() - start)
    result["ms_per_trajectory"] = [1e3 * refined_s / GATE_TRIALS,
                                   1e3 * events_s / CRITERION6_EVENTS]
    print(f"     criterion-6 pass 1: {result['ms_per_trajectory'][0]:.2f} ms "
          f"per refined trajectory, {result['ms_per_trajectory'][1]:.1f} ms "
          f"per event trajectory", flush=True)
    results.append(result)
    return results


def run_scaled():
    start = time.perf_counter()
    gen = np.random.default_rng(106)
    errors, ok = [], True
    for level in (1, 2, 3, 4):
        est = simulate_clock_controlled(replace(SCALED, levels=level),
                                        SCALED_TRIALS, gen)
        errors.append(est.error_rate)
        ok = ok and est.error_rate <= SCALED.p_star
    print(f"{'PASS' if ok else 'FAIL'} SCALED round-boundary errors "
          f"{[f'{e:.2e}' for e in errors]} <= p*={SCALED.p_star} "
          f"({SCALED_TRIALS} trials each)", flush=True)
    span = SCALED.t_prot + SCALED.t_dec
    scan = lifetime_scan("clock", replace(SCALED, levels=4), 2.0 / 3.0,
                         SCALED_TRIALS, np.random.default_rng(107),
                         levels_list=(1, 2, 3, 4))
    slope_ok = abs(scan.slope - span) / span <= 0.10
    print(f"{'PASS' if slope_ok else 'FAIL'} SCALED lifetime slope "
          f"{scan.slope:.6f} vs t_prot + t_dec = {span} (10% allowed), "
          f"{time.perf_counter() - start:.0f} s", flush=True)
    return {"errors": errors, "boundary_ok": ok, "slope": scan.slope,
            "slope_ok": slope_ok, "points": scan.points,
            "seconds": time.perf_counter() - start}


def main() -> int:
    start = time.perf_counter()
    gate = run_gate()
    scaled = run_scaled()
    ok = all(g["ok"] for g in gate) and scaled["boundary_ok"] and scaled["slope_ok"]
    print(f"{'PASS' if ok else 'FAIL'} slow lane in "
          f"{time.perf_counter() - start:.0f} s", flush=True)
    print(json.dumps({"ok": ok, "gate": gate, "scaled": scaled},
                     default=lambda value: value.item()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
