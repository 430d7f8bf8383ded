"""The benchmark tracer's bindings still match the package.

perfbench/tracing.py patches the names listed in its PATCHES table, as
they are bound in each calling module, and calls each counter as
counter(result, *args, **kwargs) with the arguments the callee received.
A renamed name or a changed signature would otherwise break only a traced
benchmark run.  The file is loaded read-only: no bytecode is written next
to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


tracing = _load_tracing()


def _entry_id(entry):
    return f"{entry[0]}.{entry[1]}"


@pytest.mark.parametrize("entry", tracing.PATCHES, ids=_entry_id)
def test_patched_name_resolves(entry):
    module, name, _, _ = entry
    assert callable(getattr(importlib.import_module(f"qmemsim.{module}"), name))


def _shape(params):
    return [(p.name, p.kind, p.default) for p in params]


@pytest.mark.parametrize("entry", [e for e in tracing.PATCHES if e[3] is not None],
                         ids=_entry_id)
def test_counter_takes_the_callee_arguments(entry):
    module, name, _, counter = entry
    callee = inspect.signature(
        getattr(importlib.import_module(f"qmemsim.{module}"), name))
    taken = list(inspect.signature(counter).parameters.values())[1:]
    named = [p for p in taken if p.kind is p.POSITIONAL_OR_KEYWORD]
    # the counter names the callee's leading parameters exactly ...
    assert _shape(named) == _shape(list(callee.parameters.values())[:len(named)])
    # ... and, without *args / **kwargs, all of them
    if len(named) == len(taken):
        assert len(named) == len(callee.parameters)


def test_explicit_counters_are_checked():
    counters = {(e[0], e[1]): e[3] for e in tracing.PATCHES}
    assert counters[("protocols", "sample_cumulative_frames")] is tracing._frames
    assert counters[("oracle", "sample_cumulative_frames")] is tracing._frames
    assert counters[("oracle", "lindblad_evolve")] is tracing._rk4


@pytest.mark.parametrize("t,dt", [(1.0, 0.005), (0.5, 0.005), (0.0123, 0.005),
                                  (0.37, 0.01), (0.3, 0.1), (1e-16, 0.005),
                                  (0.0, 0.005)])
def test_rk4_step_replay_matches_lindblad_evolve(monkeypatch, t, dt):
    oracle = importlib.import_module("qmemsim.oracle")
    steps = []
    rk4_step = oracle._rk4_step

    def counted(gen, vec, step):
        steps.append(step)
        return rk4_step(gen, vec, step)

    monkeypatch.setattr(oracle, "_rk4_step", counted)
    oracle.lindblad_evolve(oracle.plus_state(1), None, 1.0, t, dt)
    assert tracing.rk4_steps(t, dt) == len(steps)
