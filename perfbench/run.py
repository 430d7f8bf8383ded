"""qmemsim benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The client issues each op only after
the previous one returned, from this single process; cli_configs ops run one
child process at a time.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics from spans (see
tracing.py).  Human-readable lines come first; the last stdout line is the
JSON result.  Exit status 2 means the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, op_seed, rate_within

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 120


def tail_percentile(n: int):
    """Highest whole percentile with at least 10 of n samples beyond it."""
    best = None
    for pct in range(1, 100):
        if n - math.ceil(pct * n / 100) >= 10:
            best = pct
    return best


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(mode: str) -> float:
    """Median seconds of ``probe.py mode`` over PROBE_REPEATS fresh interpreters."""
    times = []
    for _ in range(PROBE_REPEATS):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), mode],
                             cwd=ROOT, env=child_env(), capture_output=True,
                             text=True, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "commit": git_commit(), "machine": platform.machine()}


class Loop:
    """Closed-loop op bookkeeping: latencies, failures, trial counts."""

    def __init__(self, seconds: float, batch: int = 1, min_ops: int = 1):
        self.deadline = time.perf_counter() + seconds
        self.batch = batch
        self.min_ops = min_ops
        self.walls: dict = {}
        self.failed = 0
        self.trials = 0

    def indices(self):
        """Op indices until the deadline, in whole batches, at least min_ops."""
        index = 0
        while (index < self.min_ops or index % self.batch
               or time.perf_counter() < self.deadline):
            yield index
            index += 1

    def record(self, index, wall: float, problems: list[str]):
        self.walls[index] = wall
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"op {index}: {problem}", file=sys.stderr)


def run_cli_op(workload, index: int, seed: int, traced: bool = False):
    """(wall s, problems, spans or None) of one CLI child in a fresh temp dir."""
    args = workload.arguments(ROOT, index, seed)
    name = workload.config(ROOT, index)[0]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        spans_file = Path(tmp) / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans_file), *args]
        else:
            argv = [sys.executable, "-m", "qmemsim", *args]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=tmp, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        problems = workload.check(name, proc.returncode, proc.stdout)
        if problems and proc.stderr:
            problems.append(proc.stderr.strip().splitlines()[-1])
        spans = json.loads(spans_file.read_text()) if spans_file.is_file() else None
    return wall, problems, spans


def run_untraced(workload, seed: int, seconds: float):
    setup_s = probe(workload.name)
    if workload.name == "cli_configs":
        # two passes at least, so op_tail_ms has 10 ops beyond its percentile
        loop = Loop(seconds, batch=workload.batch, min_ops=2 * workload.batch)
        for index in loop.indices():
            wall, problems, _ = run_cli_op(workload, index, seed)
            loop.record(index, wall, problems)
            loop.trials += workload.config(ROOT, index)[1].get("trials", 0)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        pooled_ok = True
    else:
        state = workload.setup()
        workload.op(state, op_seed(seed, -1))          # warm-up, not timed
        loop = Loop(seconds)
        errors = 0
        for index in loop.indices():
            start = time.perf_counter()
            result = workload.op(state, op_seed(seed, index))
            wall = time.perf_counter() - start
            loop.record(index, wall, workload.check(state, result))
            est = workload.estimate(result)
            loop.trials += est.trials
            errors += est.trials - int(est.counts[0])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pooled_ok = rate_within(errors, loop.trials, state.p_star)
        if not pooled_ok:
            print(f"pooled: {errors}/{loop.trials} logical errors exceed "
                  f"p*={state.p_star}", file=sys.stderr)
    walls = list(loop.walls.values())
    pct = workload.tail_percentile
    print(f"{workload.name}: {len(walls)} ops, op_tail_ms is p{pct} "
          f"({len(walls) - math.ceil(pct * len(walls) / 100)} ops beyond it; "
          f"rule gives p{tail_percentile(len(walls))}), "
          f"fail_ratio {loop.failed / len(walls)}")
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": 1e3 * statistics.median(walls),
        "op_tail_ms": 1e3 * nearest_rank(walls, pct),
        "trials_per_s": loop.trials / sum(walls),
        "peak_rss_mb": peak / 1024.0,
    }
    return metrics, len(walls), loop.failed, pooled_ok


def run_traced(workload, seed: int, seconds: float):
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    import_s = probe("cli_configs")
    scipy_s = probe("scipy")
    plain = {}
    if workload.name == "cli_configs":
        loop = Loop(seconds, batch=workload.batch, min_ops=workload.batch)
        for index in loop.indices():
            plain[index], problems, _ = run_cli_op(workload, index, seed)
            loop.record(-1 - index, plain[index], problems)
            label = workload.config(ROOT, index)[0]
            with tracer.span("op", "bench", op=index, label=label) as span:
                wall, problems, spans = run_cli_op(workload, index, seed, traced=True)
            loop.record(index, wall, problems)
            tracer.adopt(spans or [], span)
    else:
        with tracer.installed(), tracer.span("setup", "bench", op="setup"):
            state = workload.setup()
        workload.op(state, op_seed(seed, -1))
        loop = Loop(seconds)
        for index in loop.indices():
            start = time.perf_counter()
            result = workload.op(state, op_seed(seed, index))
            plain[index] = time.perf_counter() - start
            loop.record(-1 - index, plain[index], workload.check(state, result))
            with tracer.installed(), tracer.span("op", "bench", op=index,
                                                 label=workload.name) as span:
                result = workload.op(state, op_seed(seed, index))
            loop.record(index, span["end"] - span["start"], workload.check(state, result))
    op_walls = {i: w for i, w in loop.walls.items() if i >= 0}
    overhead = sum(op_walls.values()) / sum(plain.values())
    metrics = layer_metrics(tracer.spans, op_walls, import_s, scipy_s, overhead)
    print_breakdown(tracer.spans, op_walls)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}-{seed}.json").write_text(json.dumps(
        {"provenance": provenance(workload.name, seed), "metrics": metrics,
         "op_walls": op_walls, "spans": tracer.spans}))
    return metrics, len(loop.walls), loop.failed, True


def print_breakdown(spans, op_walls):
    """Mean wall and self time per layer of the ops with each label."""
    from tracing import self_times

    rows: dict = {}
    labels = {s["op"]: s["label"] for s in spans if s["name"] == "op"}
    for s, span in zip(self_times(spans), spans):
        if span["op"] in op_walls:
            row = rows.setdefault(labels[span["op"]], {})
            row[span["layer"]] = row.get(span["layer"], 0.0) + s
    for label, row in sorted(rows.items()):
        n = sum(1 for op in op_walls if labels[op] == label)
        wall = sum(w for op, w in op_walls.items() if labels[op] == label)
        parts = "  ".join(f"{layer} {1e3 * t / n:.1f}" for layer, t in
                          sorted(row.items(), key=lambda kv: -kv[1]))
        print(f"  {label}: {n} ops, wall {1e3 * wall / n:.1f} ms; self ms  {parts}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "qmemsim" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no qmemsim source tree (src/qmemsim, configs) under {ROOT}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "qmemsim", quiet=1)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    print("provenance " + json.dumps(provenance(args.workload, args.seed)))

    run = run_traced if args.trace else run_untraced
    metrics, attempted, failed, pooled_ok = run(workload, args.seed, args.seconds)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted}
    for name, value in result.items():
        print(f"{args.workload}  {name}  {value['value']:.6g} {value['unit']}")
    print(json.dumps({"correct": failed == 0 and pooled_ok, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
