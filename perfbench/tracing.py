"""In-memory spans around the calls into each qmemsim module.

Wrappers replace the names as they are bound in the *calling* module (for
example ``qmemsim.protocols.sample_trajectory``, the name
``simulate_clock_controlled`` looks up), so no file under ``src/`` changes and
every call made through that binding is timed.  A span records its name,
layer, start, end, parent span and op id, plus the counters its layer
exposes (flips, frame cells, decoded blocks, RK4 steps, ...).  Spans stay in
memory until the run ends.

Layer metrics derived from the spans are defined in ``layer_metrics``; their
names are the ``per_layer`` entries of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from pathlib import Path


def _flips(result, *args, **kwargs):
    return {"flips": len(result)}


def _verdict(result, *args, **kwargs):
    return {"good": bool(result)}


def _exit_verdict(result, *args, **kwargs):
    return {"good": result is None}


def _frames(result, n_qubits, duration, rate_r, trials, rng):
    cells = trials * n_qubits
    mean_duration = float(duration.mean() if hasattr(duration, "mean") else duration)
    return {"cells": cells, "events": rate_r * mean_duration * cells}


def _blocks(result, *args, **kwargs):
    return {"blocks": int(result.size)}


def _clock_run(result, *args, **kwargs):
    est = result[0] if isinstance(result, tuple) else result
    return {"trials": int(est.trials), "aborts": int(est.decode_failures),
            "bad": int(est.bad_trajectories)}


def _scan(result, strategy, *args, **kwargs):
    return {"strategy": strategy, "points": len(result.points)}


def rk4_steps(t: float, dt: float) -> int:
    """Step count of ``oracle.lindblad_evolve``'s loop, replayed exactly."""
    steps, remaining = 0, t
    while remaining > 1e-15:
        remaining -= min(dt, remaining)
        steps += 1
    return steps


def _rk4(result, rho0, h_matrix, rate_r, t, dt=0.005):
    return {"steps": rk4_steps(t, dt)}


def _written(result, *args, **kwargs):
    return {"bytes": Path(result).stat().st_size}


# (calling module, bound name, layer of the callee, counter)
PATCHES = (
    ("protocols", "sample_trajectory", "clock", _flips),
    ("protocols", "is_good", "clock", _verdict),
    ("protocols", "window_passage", "clock", None),
    ("protocols", "window_schedule", "clock", None),
    ("protocols", "sample_cumulative_frames", "pauli", _frames),
    ("protocols", "decode_blocks", "fivequbit", _blocks),
    ("protocols", "simulate_unprotected", "protocols", None),
    ("protocols", "simulate_circuit_model", "protocols", None),
    ("protocols", "simulate_clock_controlled", "protocols", _clock_run),
    ("protocols", "exact_majority_failure", "protocols", None),
    ("protocols", "repetition_lifetime", "protocols", None),
    ("fivequbit", "decode_blocks", "fivequbit", _blocks),
    ("fivequbit", "b_exact", "fivequbit", None),
    ("bounds", "b_exact", "fivequbit", None),
    ("bounds", "assess_constants", "bounds", None),
    ("bounds", "feasibility_search", "bounds", None),
    ("oracle", "lindblad_evolve", "oracle", _rk4),
    ("oracle", "sample_cumulative_frames", "pauli", _frames),
    ("cli", "sample_trajectory", "clock", _flips),
    ("cli", "sample_trajectory_checkpointed", "clock", None),
    ("cli", "first_exit", "clock", _exit_verdict),
    ("cli", "is_good", "clock", _verdict),
    ("cli", "max_time_error", "clock", None),
    ("cli", "b_exact", "fivequbit", None),
    ("cli", "b_monte_carlo", "fivequbit", None),
    ("cli", "quadratic_bound_range", "fivequbit", None),
    ("cli", "build_ledger", "bounds", None),
    ("cli", "feasibility_search", "bounds", None),
    ("cli", "oracle_equivalence_check", "oracle", None),
    ("cli", "simulate_unprotected", "protocols", None),
    ("cli", "simulate_circuit_model", "protocols", None),
    ("cli", "simulate_clock_controlled", "protocols", _clock_run),
    ("cli", "simulate_classical_repetition", "protocols", None),
    ("cli", "lifetime_scan", "protocols", _scan),
    ("cli", "run_experiment", "cli", None),
    ("cli", "write_result", "cli", _written),
)


class Tracer:
    """Collects spans; ``installed()`` patches the bindings in PATCHES."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    def _open(self, name, layer, start=None, **attrs) -> dict:
        span = {"name": name, "layer": layer, "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter() if start is None else start,
                "end": None, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span, end=None):
        span["end"] = time.perf_counter() if end is None else end
        self._stack.pop()

    @contextmanager
    def span(self, name, layer, op=None, **attrs):
        """Time a block; with ``op`` set, spans opened inside carry that id."""
        if op is not None:
            self.op = op
        span = self._open(name, layer, **attrs)
        try:
            yield span
        finally:
            self._close(span)
            if op is not None:
                self.op = None

    def record(self, name, layer, start, end, **attrs):
        """Add a finished span, such as a timing taken before any patching."""
        self._close(self._open(name, layer, start=start, **attrs), end=end)

    def adopt(self, spans, parent: dict):
        """Merge spans written by a child process under ``parent``."""
        base = len(self.spans)
        root = next(i for i in range(base - 1, -1, -1) if self.spans[i] is parent)
        for span in spans:
            local = span["parent"]
            self.spans.append({**span, "op": parent["op"],
                               "parent": root if local is None else base + local})

    def _wrap(self, fn, name, layer, counter):
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.update(counter(result, *args, **kwargs))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding in PATCHES for the duration of the block."""
        saved = []
        try:
            for module_name, attr, layer, counter in PATCHES:
                module = importlib.import_module(f"qmemsim.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr,
                        self._wrap(original, f"{layer}.{attr}", layer, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for lo, hi in sorted((max(c["start"], span["start"]),
                              min(c["end"], span["end"]))
                             for c in children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def _ancestors(spans, i):
    parent = spans[i]["parent"]
    while parent is not None:
        yield spans[parent]
        parent = spans[parent]["parent"]


def layer_metrics(spans, op_walls: dict, import_s: float, scipy_s: float,
                  overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced run, by the names in BENCHMARK.json.

    ``op_walls`` maps each timed op id to its wall time in seconds.  Shares
    and per-op figures count ops only; set-up spans (op id "setup") count as
    a unit for per-unit call counts.  A metric of a layer that did no work
    on the workload is 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def mean_ms(name):
        idx = by_name.get(name, [])
        return 1e3 * sum(map(dur, idx)) / len(idx) if idx else 0.0

    def total(name, key):
        return sum(spans[i][key] for i in by_name.get(name, []))

    def mean(name, key):
        return ratio(total(name, key), len(by_name.get(name, [])))

    def rate(name, key):
        busy = sum(map(dur, by_name.get(name, [])))
        return total(name, key) / busy if busy > 0 else 0.0

    def per_unit(name, key=None):
        idx = by_name.get(name, [])
        units = {spans[i]["op"] for i in idx}
        amount = len(idx) if key is None else total(name, key)
        return amount / len(units) if units else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    op_time = sum(op_walls.values())

    def share(layer):
        busy = sum(s for s, span in zip(selfs, spans)
                   if span["layer"] == layer and span["op"] in op_walls)
        return ratio(busy, op_time)

    verdicts = [spans[i]["good"] for name in ("clock.is_good", "clock.first_exit")
                for i in by_name.get(name, [])]
    trials = total("protocols.simulate_clock_controlled", "trials")
    scans = [i for i in by_name.get("protocols.lifetime_scan", [])
             if spans[i]["strategy"] == "unprotected"]
    scan_evals = sum(
        1 for i in by_name.get("protocols.simulate_unprotected", [])
        if any(a["name"] == "protocols.lifetime_scan" for a in _ancestors(spans, i)))
    protocol_self = {}
    for s, span in zip(selfs, spans):
        if span["layer"] == "protocols" and span["op"] in op_walls:
            protocol_self[span["op"]] = protocol_self.get(span["op"], 0.0) + s
    cli_ops = {spans[i]["op"]: dur(i) for i in by_name.get("cli.run_experiment", [])}

    return {
        "clock.sample_trajectory.ms_per_traj": mean_ms("clock.sample_trajectory"),
        "clock.flips_per_traj": mean("clock.sample_trajectory", "flips"),
        "clock.flips_per_s": rate("clock.sample_trajectory", "flips"),
        "clock.is_good.ms_per_traj": mean_ms("clock.is_good"),
        "clock.window_passage.ms_per_call": mean_ms("clock.window_passage"),
        "clock.window_passage.calls": per_unit("clock.window_passage"),
        "clock.good_ratio": ratio(sum(verdicts), len(verdicts)),
        "clock.first_exit.ms_per_traj": mean_ms("clock.first_exit"),
        "clock.max_time_error.ms_per_traj": mean_ms("clock.max_time_error"),
        "clock.share": share("clock"),
        "pauli.frames.cells": per_unit("pauli.sample_cumulative_frames", "cells"),
        "pauli.frames.cells_per_s": rate("pauli.sample_cumulative_frames", "cells"),
        "pauli.frames.events_per_cell": ratio(
            total("pauli.sample_cumulative_frames", "events"),
            total("pauli.sample_cumulative_frames", "cells")),
        "pauli.share": share("pauli"),
        "fivequbit.decode_blocks.blocks": per_unit("fivequbit.decode_blocks", "blocks"),
        "fivequbit.decode_blocks.blocks_per_s": rate("fivequbit.decode_blocks", "blocks"),
        "fivequbit.b_monte_carlo.ms": mean_ms("fivequbit.b_monte_carlo"),
        "fivequbit.b_exact.calls": per_unit("fivequbit.b_exact"),
        "fivequbit.share": share("fivequbit"),
        "protocols.self_ms_per_op": 1e3 * ratio(sum(protocol_self.values()),
                                                len(protocol_self)),
        "protocols.abort_ratio": ratio(total("protocols.simulate_clock_controlled",
                                             "aborts"), trials),
        "protocols.bad_trajectory_ratio": ratio(
            total("protocols.simulate_clock_controlled", "bad"), trials),
        "protocols.bisect_evals": ratio(scan_evals,
                                        sum(spans[i]["points"] for i in scans)),
        "protocols.exact_tail.calls": per_unit("protocols.exact_majority_failure"),
        "protocols.exact_tail.ms": mean_ms("protocols.repetition_lifetime"),
        "bounds.feasibility_search.ms": mean_ms("bounds.feasibility_search"),
        "bounds.assess_constants.calls": per_unit("bounds.assess_constants"),
        "bounds.build_ledger.ms": mean_ms("bounds.build_ledger"),
        "oracle.lindblad_evolve.ms": mean_ms("oracle.lindblad_evolve"),
        "oracle.rk4_steps": mean("oracle.lindblad_evolve", "steps"),
        "oracle.rk4_steps_per_s": rate("oracle.lindblad_evolve", "steps"),
        "cli.import_s": import_s,
        "cli.import_scipy_s": scipy_s,
        "cli.run_experiment.ms": mean_ms("cli.run_experiment"),
        "cli.process_overhead_ms": 1e3 * ratio(
            sum(op_walls[op] - busy for op, busy in cli_ops.items()), len(cli_ops)),
        "cli.write_result.ms": mean_ms("cli.write_result"),
        "cli.output_bytes": mean("cli.write_result", "bytes"),
        "trace.overhead_ratio": overhead_ratio,
    }
