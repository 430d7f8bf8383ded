"""Slow-lane checks of the clock-controlled protocol, outside tier-1.

    PYTHONPATH=src python scripts/slow_lane.py

pytest collects only tests/, so nothing here runs with the tier-1 suite.
The script runs five checks and prints one line per result, then a JSON
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
3. The frame-sampler gate of tests/test_pauli.py at full size: the sparse
   draw of pauli._draw_frames against its dense draw over three seeds, at
   each weight of FRAME_WEIGHTS, on each FRAME_SIZES entry: one level-1
   round of the 625-qubit register at 1e4 trials, and ten times the tier-1
   draws, where a bias of 1/n in the hit rate (n = 25 columns) shows.
   Every chi-square p-value (hits per row, column of each hit, Pauli
   class) must reach GATE_ALPHA.
4. The circuit rounds at the benchmark's circuit_frames point (the searched
   t_prot, CIRCUIT_LEVELS levels, CIRCUIT_TRIALS trials a call): over three
   seeds, CIRCUIT_CALLS calls of simulate_circuit_model each, the pooled
   fault count and each of the X, Z and Y counts against the exact law of
   _Rounds.exact (count_p_value, about 1500 expected faults a seed), each
   p-value at least GATE_ALPHA.
5. The circuit rounds on both sides of the threshold t_prot* ~ 0.0408:
   at each (t_prot, trials) of THRESHOLD_POINTS, levels 1 to 6 (5 to
   15 625 qubits), the fault count and each of the X, Z and Y counts of
   one simulate_circuit_model call against that level's exact law
   (count_p_value), each p-value at least GATE_ALPHA.  Below the
   threshold (0.02) the fault weight settles near 0.003; above it (0.08)
   it climbs from 0.029 to 0.41.

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

from distribution_gate import (BELOW_CUT, GATE_ALPHA,  # noqa: E402
                               compare_frames, compare_passages,
                               count_p_value, frame_draws, passage_outcomes,
                               passage_samplers)
from qmemsim.bounds import feasibility_search  # noqa: E402
from qmemsim.clock import ClockParams, window_schedule  # noqa: E402
from qmemsim.protocols import (ProtocolParams, _Rounds,  # noqa: E402
                               lifetime_scan, simulate_circuit_model,
                               simulate_clock_controlled, with_sized_clock)

GATE_TRIALS = 10_000       # trajectories a side per gate point and seed
# event trajectories at the criterion-6 clock, each predicted at 102 MB
# (2.55 M flips; 9.5% of clock.MAX_DRAW_BYTES), the largest event path here
CRITERION6_EVENTS = 1_300
SCALED_TRIALS = 2_000      # trials per SCALED level and per scan point
SCALED = ProtocolParams(rate_r=1.0, levels=2, p_star=0.03, t_prot=0.006,
                        t_dec=0.0015, delta=1.4e-4, epsilon=0.01)

# ((rows, n), calls per side)
FRAME_SIZES = (((10_000, 625), 1), ((100_000, 25), 10))
# the tier-1 weights: below, at and just below the criterion-5 round weight
# 0.0037 and the cut, and 0.3 with the sparse draw forced
FRAME_WEIGHTS = (1e-3, 0.0037, BELOW_CUT, 0.3)

# the circuit_frames point: 625 qubits and 1e4 trials a call; 1000 calls a
# seed expect about 1500 faults at its exact fault weight 1.5e-4
CIRCUIT_LEVELS = 4
CIRCUIT_TRIALS = 10_000
CIRCUIT_CALLS = 1_000

# (t_prot, trials per level) on each side of the threshold, sized for tens
# of faults at the smallest fault weight: 63 at 0.02 (0.0021 at level 1)
# and 87 at 0.08 (0.029 at level 1).  At level 6 the 0.08 point's draw is
# predicted at 35 MB, the largest circuit run here (3% of
# protocols.MAX_DRAW_BYTES)
THRESHOLD_POINTS = ((0.02, 30_000), (0.08, 3_000))
THRESHOLD_LEVELS = (1, 2, 3, 4, 5, 6)

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


def run_frames():
    results = []
    for shape, calls in FRAME_SIZES:
        for seed in (1, 2, 3):
            for p in FRAME_WEIGHTS:
                start = time.perf_counter()
                p_values = compare_frames(*frame_draws(shape, p, seed, calls))
                label = f"{calls}x{shape[0]}x{shape[1]} p={p:.4g}"
                ok = min(p_values.values()) >= GATE_ALPHA
                seconds = time.perf_counter() - start
                print(f"{'PASS' if ok else 'FAIL'} frames {label} seed={seed}: "
                      f"min p {min(p_values.values()):.3g} "
                      f"({min(p_values, key=p_values.get)}), {seconds:.1f} s",
                      flush=True)
                results.append({"label": label, "seed": seed, "ok": ok,
                                "p": p_values, "seconds": seconds})
    return results


def run_circuit():
    found = feasibility_search(rate_r=1.0)
    params = ProtocolParams(rate_r=1.0, levels=CIRCUIT_LEVELS,
                            p_star=found.p_star, t_prot=found.t_prot)
    trials = CIRCUIT_TRIALS * CIRCUIT_CALLS
    results = []
    for seed in (1, 2, 3):
        start = time.perf_counter()
        gen = np.random.default_rng([seed, 5])
        counts, weight = np.zeros(4, dtype=np.int64), 0.0
        for _ in range(CIRCUIT_CALLS):
            est = simulate_circuit_model(params, CIRCUIT_TRIALS, gen)
            counts += est.counts
            weight = float(est.exact[1:].sum())
        p_values = {"faults": count_p_value(int(trials - counts[0]),
                                            [(trials, weight)])}
        for code, label in ((1, "X"), (2, "Z"), (3, "Y")):
            p_values[label] = count_p_value(int(counts[code]),
                                            [(trials, weight / 3.0)])
        ok = min(p_values.values()) >= GATE_ALPHA
        seconds = time.perf_counter() - start
        print(f"{'PASS' if ok else 'FAIL'} circuit rounds "
              f"t_prot={found.t_prot} seed={seed}: {trials - counts[0]} "
              f"faults vs {trials * weight:.1f} exact, min p "
              f"{min(p_values.values()):.3g} "
              f"({min(p_values, key=p_values.get)}), {seconds:.1f} s",
              flush=True)
        results.append({"seed": seed, "ok": ok, "counts": counts.tolist(),
                        "expected_faults": trials * weight, "p": p_values,
                        "seconds": seconds})
    return results


def run_threshold():
    results = []
    for t_prot, trials in THRESHOLD_POINTS:
        gen = np.random.default_rng([6, round(t_prot * 1000)])
        for level in THRESHOLD_LEVELS:
            start = time.perf_counter()
            est = simulate_circuit_model(
                ProtocolParams(rate_r=1.0, levels=level, t_prot=t_prot),
                trials, gen)
            weight = float(_Rounds(np.full(level, t_prot), 1.0).exact())
            faults = trials - int(est.counts[0])
            p_values = {"faults": count_p_value(faults, [(trials, weight)])}
            for code, label in ((1, "X"), (2, "Z"), (3, "Y")):
                p_values[label] = count_p_value(int(est.counts[code]),
                                                [(trials, weight / 3.0)])
            ok = min(p_values.values()) >= GATE_ALPHA
            seconds = time.perf_counter() - start
            print(f"{'PASS' if ok else 'FAIL'} threshold t_prot={t_prot} "
                  f"levels={level}: {faults} faults vs {trials * weight:.1f} "
                  f"exact (weight {weight:.4g}), min p "
                  f"{min(p_values.values()):.3g} "
                  f"({min(p_values, key=p_values.get)}), {seconds:.2f} s",
                  flush=True)
            results.append({"t_prot": t_prot, "levels": level, "ok": ok,
                            "trials": trials, "counts": est.counts.tolist(),
                            "weight": weight, "p": p_values,
                            "seconds": seconds})
    return results


def main() -> int:
    start = time.perf_counter()
    gate = run_gate()
    scaled = run_scaled()
    frames = run_frames()
    circuit = run_circuit()
    threshold = run_threshold()
    ok = (all(g["ok"] for g in gate + frames + circuit + threshold)
          and scaled["boundary_ok"] and scaled["slope_ok"])
    print(f"{'PASS' if ok else 'FAIL'} slow lane in "
          f"{time.perf_counter() - start:.0f} s", flush=True)
    print(json.dumps({"ok": ok, "gate": gate, "scaled": scaled,
                      "frames": frames, "circuit": circuit,
                      "threshold": threshold},
                     default=lambda value: value.item()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
