"""The three benchmark workloads and the checks on each op's output.

Importing this module imports no qmemsim code, so a fresh interpreter can
time ``import qmemsim`` plus a workload's set-up (see ``probe.py``).

Every check compares an op's output with an exact reference.  Statistical
checks use exact binomial tails at ALPHA (about z = 4.5 one-sided), so
correct code fails a check about once in 3e5 ops.
"""

from __future__ import annotations

import hashlib
import json
import math

ALPHA = 3.4e-6
Z = 4.5

# acceptance criterion 6: K = 310,991,506 and about 2.55 M flips per trajectory
CLOCK_POINT = dict(rate_r=1.0, levels=2, p_star=0.03, t_prot=0.006,
                   t_dec=0.0015, delta=1.4e-4, epsilon=0.01)
CIRCUIT_LEVELS = 4

# every bundled config except memory_clock_scaled.json, which repeats
# clock_protocol at about 37 s a run; ledger_reference's documented verdict
# is exit 2 (the recursion fails at round 2)
CLI_CONFIGS = ("bp_curve", "clock_verify_small", "ledger_reference",
               "ledger_search", "lifetime_repetition", "lifetime_unprotected",
               "memory_circuit", "memory_repetition", "memory_unprotected",
               "oracle_check_small")
CLI_EXIT = {"ledger_reference": 2}


def op_seed(seed: int, index: int) -> int:
    """64-bit seed of op ``index``; distinct ops get unrelated streams."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def binomial_sf(k: int, n: int, p: float) -> float:
    """Exact P[Binomial(n, p) >= k], summed in log space."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    lg_n = math.lgamma(n + 1)
    total = 0.0
    for j in range(k, n + 1):
        term = math.exp(lg_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)
        total += term
        if j > n * p and term < 1e-17 * total:
            break
    return min(1.0, total)


def rate_within(errors: int, trials: int, p_max: float) -> bool:
    """False only if ``errors`` of ``trials`` is implausible at rate p_max."""
    return binomial_sf(errors, trials, p_max) >= ALPHA


def check_estimate(est, p_star: float) -> list[str]:
    """Counts sum to trials and the logical error rate is at most p*."""
    problems = []
    counts = [int(c) for c in est.counts]
    if sum(counts) != est.trials:
        problems.append(f"counts {counts} do not sum to {est.trials} trials")
    errors = est.trials - counts[0]
    if not rate_within(errors, est.trials, p_star):
        problems.append(f"{errors}/{est.trials} logical errors exceed p*={p_star}")
    return problems


def check_clock_run(est, diag, p_star: float) -> list[str]:
    """Criterion 6's invariants on one clock-controlled batch."""
    problems = check_estimate(est, p_star)
    for i, (good, aborted) in enumerate(zip(diag.good, diag.aborted)):
        if good and aborted:
            problems.append(f"trial {i}: good trajectory aborted")
        elif good and any(b <= a for a, b in zip(diag.decode_times[i],
                                                  diag.decode_times[i][1:])):
            problems.append(f"trial {i}: decode times not increasing")
    return problems


def first_violation(summary: dict):
    """1-based round of the first exact-recursion iterate above p*."""
    p_star = summary["inputs"]["p_star"]
    iterates = summary["recursion_exact"]["iterates"]
    return next((j + 1 for j, p in enumerate(iterates) if p > p_star), None)


def check_cli(name: str, code: int, stdout: str) -> list[str]:
    """Documented exit code, plus exact references for some summaries."""
    expected = CLI_EXIT.get(name, 0)
    if code != expected:
        return [f"{name}: exit {code}, documented {expected}"]
    try:
        summary = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{name}: no JSON summary on stdout"]
    problems = []
    if name == "ledger_reference" and first_violation(summary) != 2:
        problems.append(f"{name}: first violation {first_violation(summary)}, not 2")
    if name == "ledger_search" and not (summary.get("search") or {}).get("margin", 0) >= 0.1:
        problems.append(f"{name}: no constant set with 10% margin")
    if name == "oracle_check_small" and summary.get("all_pass") is not True:
        problems.append(f"{name}: oracle distance above tolerance")
    if name == "clock_verify_small":
        if summary.get("good_fraction") != 1:
            problems.append(f"{name}: good_fraction {summary.get('good_fraction')}")
        if not summary.get("max_time_error_good", math.inf) <= summary.get("delta_half", 0):
            problems.append(f"{name}: time error above delta/2 on good trajectories")
    if name == "memory_unprotected":
        # fid = (2 p_I + 1)/3 with p_I = 1/2 exactly at t = ln 3 / r
        sigma = (2.0 / 3.0) * math.sqrt(0.25 / summary["trials"])
        if abs(summary["fid"] - 2.0 / 3.0) > Z * sigma:
            problems.append(f"{name}: fid {summary['fid']} not within "
                            f"{Z} sigma of 2/3")
    return problems


class ClockProtocol:
    name = "clock_protocol"
    # two trials per core of the 2-core reference machine, so a per-trial
    # worker pool has work to share; fixed so the workload is the same on
    # every machine
    trials = 4
    tail_percentile = 55

    def setup(self):
        """Clock sizing and the window schedule."""
        from qmemsim import clock, protocols
        params = protocols.with_sized_clock(protocols.ProtocolParams(**CLOCK_POINT))
        clock.window_schedule(params.levels, params.t_prot, params.t_dec,
                              clock.ClockParams(n_bits=params.clock_bits,
                                                epsilon=params.epsilon,
                                                t_max=params.resolved_t_max(),
                                                rate_r=params.rate_r))
        return params

    def op(self, params, seed):
        from qmemsim import protocols
        return protocols.simulate_clock_controlled(params, self.trials, seed,
                                                   return_diagnostics=True)

    def estimate(self, result):
        return result[0]

    def check(self, params, result) -> list[str]:
        est, diag = result
        return check_clock_run(est, diag, params.p_star)


class CircuitFrames:
    name = "circuit_frames"
    trials = 10_000
    tail_percentile = 88

    def setup(self):
        """Feasible constants for r = 1 and the decoder table."""
        from qmemsim import bounds, fivequbit, protocols
        found = bounds.feasibility_search(rate_r=1.0)
        fivequbit.default_table()
        return protocols.ProtocolParams(rate_r=1.0, levels=CIRCUIT_LEVELS,
                                        p_star=found.p_star, t_prot=found.t_prot)

    def op(self, params, seed):
        from qmemsim import protocols
        return protocols.simulate_circuit_model(params, self.trials, seed)

    def estimate(self, result):
        return result

    def check(self, params, result) -> list[str]:
        return check_estimate(result, params.p_star)


class CliConfigs:
    name = "cli_configs"
    tail_percentile = 50
    # whole passes over the configs, so every run has the same op mix
    batch = len(CLI_CONFIGS)
    check = staticmethod(check_cli)

    def setup(self):
        """Nothing beyond ``import qmemsim``: each op is a fresh process."""
        return None

    def config(self, root, index: int):
        """(name, parsed JSON, path) of the config op ``index`` runs."""
        name = CLI_CONFIGS[index % len(CLI_CONFIGS)]
        path = root / "configs" / f"{name}.json"
        return name, json.loads(path.read_text()), path

    def arguments(self, root, index: int, seed: int) -> list[str]:
        """``qmemsim`` arguments of op ``index``.

        Only configs that take a seed get the op's seed; the ledger configs
        are deterministic and their schema rejects one.
        """
        name, data, path = self.config(root, index)
        args = [data["subcommand"], "--config", str(path)]
        if "seed" in data:
            args += ["--seed", str(op_seed(seed, index))]
        if data.get("search"):
            args.append("--search")
        return args


WORKLOADS = {w.name: w for w in (ClockProtocol(), CircuitFrames(), CliConfigs())}
