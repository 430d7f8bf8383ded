"""Self-tests of the benchmark: span arithmetic, metric names, the tail
percentile rule and the output checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent=None, op=0, layer="x"):
    return {"name": name, "layer": layer, "start": start, "end": end,
            "parent": parent, "op": op}


def test_self_time_subtracts_covered_part_of_children():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 3.0, parent=0),
             span("b", 2.0, 5.0, parent=0),      # overlaps a: [1, 5] counted once
             span("c", 8.0, 12.0, parent=0),     # only [8, 10] lies inside root
             span("a.child", 1.5, 2.0, parent=1)]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_tracer_nests_spans_and_restores_bindings():
    from qmemsim import protocols
    original = protocols.sample_cumulative_frames
    tracer = tracing.Tracer()
    params = protocols.ProtocolParams(rate_r=1.0, levels=1, t_prot=0.01)
    with tracer.installed(), tracer.span("op", "bench", op=7):
        protocols.simulate_circuit_model(params, 50, 3)
    assert protocols.sample_cumulative_frames is original
    names = [s["name"] for s in tracer.spans]
    assert names == ["op", "protocols.simulate_circuit_model",
                     "pauli.sample_cumulative_frames", "fivequbit.decode_blocks"]
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1, 1]
    assert {s["op"] for s in tracer.spans} == {7}
    assert tracer.spans[2]["cells"] == 250
    assert tracer.spans[3]["blocks"] == 50


def test_adopted_child_spans_hang_under_the_op():
    tracer = tracing.Tracer()
    with tracer.span("op", "bench", op=3) as op:
        pass
    tracer.adopt([span("cli.import", 0.0, 1.0, op=None),
                  span("cli.run_experiment", 1.0, 2.0, op=None),
                  span("clock.first_exit", 1.2, 1.3, parent=1, op=None)], op)
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0, 2]
    assert {s["op"] for s in tracer.spans} == {3}


def test_layer_metrics_cover_every_per_layer_name():
    metrics = tracing.layer_metrics([], {}, 1.0, 0.5, 1.02)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["clock.share"] == 0.0


def test_metric_names_units_and_bounds_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert not NAME.fullmatch("clock share") and not NAME.fullmatch("op/ms")


def test_tail_percentile_rule():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(28) == 64
    assert run.tail_percentile(100) == 90
    values = list(range(1, 21))
    assert run.nearest_rank(values, 50) == 10
    assert sum(v > run.nearest_rank(values, 50) for v in values) == 10
    assert run.nearest_rank(values, 100) == 20


def test_workload_why_records_its_tail_percentile():
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert set(whys) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        assert f"p{workload.tail_percentile}" in whys[name]


def test_op_seeds_are_deterministic_and_distinct():
    seeds = [workloads.op_seed(5, i) for i in range(1000)]
    assert seeds == [workloads.op_seed(5, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert workloads.op_seed(6, 0) != seeds[0]
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_binomial_tail_is_exact():
    direct = sum(math.comb(4, j) * 0.03 ** j * 0.97 ** (4 - j) for j in (2, 3, 4))
    assert workloads.binomial_sf(2, 4, 0.03) == pytest.approx(direct, rel=1e-12)
    assert workloads.binomial_sf(0, 10, 0.5) == 1.0
    assert workloads.binomial_sf(11, 10, 0.5) == 0.0
    assert workloads.binomial_sf(150, 10_000, 0.01) < workloads.ALPHA


def test_rk4_step_count_replays_the_integrator_loop():
    assert tracing.rk4_steps(1.0, 0.005) == 200
    assert tracing.rk4_steps(0.0123, 0.005) == 3
    assert tracing.rk4_steps(0.0, 0.005) == 0


def estimate(counts):
    return SimpleNamespace(counts=np.array(counts), trials=sum(counts))


def test_estimate_check_rejects_error_rate_above_p_star():
    assert workloads.check_estimate(estimate([4, 0, 0, 0]), 0.03) == []
    assert workloads.check_estimate(estimate([0, 1, 2, 1]), 0.03)
    assert workloads.check_estimate(estimate([9_900, 50, 25, 25]), 0.01) == []
    assert workloads.check_estimate(estimate([9_800, 100, 50, 50]), 0.01)
    skewed = SimpleNamespace(counts=np.array([4, 0, 0, 0]), trials=5)
    assert workloads.check_estimate(skewed, 0.03)


def test_clock_check_rejects_broken_invariants():
    est = estimate([4, 0, 0, 0])
    ok = SimpleNamespace(good=np.ones(4, bool), aborted=np.zeros(4, bool),
                         decode_times=np.tile([0.0075, 0.015], (4, 1)))
    assert workloads.check_clock_run(est, ok, 0.03) == []
    aborted = SimpleNamespace(**{**vars(ok), "aborted": np.array([0, 1, 0, 0], bool)})
    assert workloads.check_clock_run(est, aborted, 0.03)
    reordered = ok.decode_times.copy()
    reordered[2] = [0.015, 0.0075]
    assert workloads.check_clock_run(
        est, SimpleNamespace(**{**vars(ok), "decode_times": reordered}), 0.03)


def cli_summary(**fields):
    return json.dumps(fields) + "\n"


def test_cli_check_rejects_wrong_exit_codes():
    assert workloads.check_cli("memory_repetition", 0, cli_summary(fid=0.9)) == []
    assert workloads.check_cli("memory_repetition", 3, "")
    assert workloads.check_cli("ledger_reference", 0, "")
    assert workloads.check_cli("bp_curve", 0, "not json")


def test_cli_check_rejects_wrong_summaries():
    ledger = {"inputs": {"p_star": 0.025},
              "recursion_exact": {"iterates": [0.02, 0.03, 0.04]}}
    assert workloads.check_cli("ledger_reference", 2, cli_summary(**ledger)) == []
    ledger["recursion_exact"]["iterates"] = [0.02, 0.024, 0.04]
    assert workloads.check_cli("ledger_reference", 2, cli_summary(**ledger))
    assert workloads.check_cli("ledger_search", 0, cli_summary(search={"margin": 0.2})) == []
    assert workloads.check_cli("ledger_search", 0, cli_summary(search=None))
    assert workloads.check_cli("oracle_check_small", 0, cli_summary(all_pass=True)) == []
    assert workloads.check_cli("oracle_check_small", 0, cli_summary(all_pass=False))
    clock = {"good_fraction": 1.0, "max_time_error_good": 0.3, "delta_half": 3.2}
    assert workloads.check_cli("clock_verify_small", 0, cli_summary(**clock)) == []
    assert workloads.check_cli("clock_verify_small", 0,
                               cli_summary(**{**clock, "good_fraction": 0.999}))
    assert workloads.check_cli("clock_verify_small", 0,
                               cli_summary(**{**clock, "max_time_error_good": 3.3}))
    assert workloads.check_cli("memory_unprotected", 0,
                               cli_summary(fid=0.6668, trials=100_000)) == []
    assert workloads.check_cli("memory_unprotected", 0,
                               cli_summary(fid=0.675, trials=100_000))


def test_cli_arguments_seed_only_seeded_configs():
    cli = workloads.WORKLOADS["cli_configs"]
    by_name = {cli.config(ROOT, i)[0]: cli.arguments(ROOT, i, 1)
               for i in range(cli.batch)}
    assert set(by_name) == set(workloads.CLI_CONFIGS)
    assert "--seed" not in by_name["ledger_reference"]
    assert by_name["ledger_search"][-1] == "--search"
    assert "--seed" in by_name["bp_curve"]
    assert "memory_clock_scaled" not in by_name


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "circuit_frames", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
