"""Command-line harness: strict JSON configs, deterministic runs, file emission.

Subcommands: clock-verify, decode-table, bp-curve, memory-sim, lifetime-scan,
ledger, oracle-check.  Each accepts --config PATH (a JSON object validated
against a strict per-subcommand schema: unknown keys are rejected, defaults
are filled) plus override flags --seed, --trials, --out, --format.

Exit codes: 0 success, 1 configuration error, 2 mathematically infeasible
parameters (a scientific verdict scripts can branch on, distinct from
misuse), 3 runtime failure.

Determinism: re-running the same config reproduces byte-identical CSV files;
JSON summaries add a timestamp field and are otherwise identical.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import build_ledger, feasibility_search, quadratic_block_error
from .clock import (ClockParams, DegenerateWindowError, OverlappingWindowsError,
                    ScheduleInfeasibleError, first_exit, good_prob_bound,
                    is_good, max_time_error, mean_polarization,
                    sample_trajectory, sample_trajectory_checkpointed,
                    time_error_bound, vertical_exit_rate_bound)
from .fivequbit import (N_STRINGS, b_exact, b_monte_carlo, default_table,
                        quadratic_bound_range, unpack)
from .oracle import oracle_equivalence_check
from .pauli import CODE_LABELS, frame_to_label
from .protocols import (ProtocolParams, lifetime_scan,
                        simulate_circuit_model, simulate_classical_repetition,
                        simulate_clock_controlled, simulate_unprotected,
                        with_sized_clock)
from .stats import wilson_interval

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_RUNTIME = 3

_INFEASIBLE_ERRORS = (ScheduleInfeasibleError, DegenerateWindowError,
                      OverlappingWindowsError)


class ConfigError(ValueError):
    """Configuration rejected; the message carries the field path."""


# ---------------------------------------------------------------------------
# schema machinery

_REQUIRED = object()


@dataclass(frozen=True)
class _Field:
    kind: str                 # int | float | bool | str | list_int | list_float
    default: object = _REQUIRED
    allow_none: bool = False
    check: object = None      # fn(value) -> error message | None


def _positive(v):
    return None if v > 0 else "must be positive"


def _nonnegative(v):
    return None if v >= 0 else "must be nonnegative"


def _open_unit(v):
    return None if 0.0 < v < 1.0 else "must lie in (0, 1)"


def _epsilon_range(v):
    return None if 0.0 < v < 0.5 else "must lie in (0, 1/2)"


def _seed_range(v):
    return None if 0 <= v < 2 ** 64 else "must fit an unsigned 64-bit integer"


def _clock_size(v):
    return None if v >= 16 else \
        "the clock concentration bound is stated for K >= 16"


def _odd(v):
    return None if v % 2 == 1 else "must be odd (majority vote needs a tiebreak)"


def _strategy(v):
    allowed = ("unprotected", "repetition", "circuit", "clock")
    return None if v in allowed else f"must be one of {allowed}"


def _floor_range(v):
    return None if 1.0 / 3.0 < v < 1.0 else "must lie in (1/3, 1)"


def _positive_list(v):
    return None if all(x > 0 for x in v) else "entries must be positive"


def _nonnegative_list(v):
    return None if all(x >= 0 for x in v) else "entries must be nonnegative"


def _oracle_sizes(v):
    return None if all(1 <= n <= 3 for n in v) else \
        "dense oracle supports 1..3 qubits"


_SEED = _Field("int", 0, check=_seed_range)
_TRIALS = _Field("int", 100_000, check=_positive)
_RATE = _Field("float", 1.0, check=_positive)

_PROTOCOL_FIELDS = {
    "strategy": _Field("str", check=_strategy),
    "r": _RATE,
    "p_star": _Field("float", 0.01, check=_open_unit),
    "levels": _Field("int", 1, check=_nonnegative),
    "t_prot": _Field("float", None, allow_none=True, check=_positive),
    "t_dec": _Field("float", None, allow_none=True, check=_positive),
    "delta": _Field("float", 0.0, check=_nonnegative),
    "epsilon": _Field("float", 1.0 / 6.0, check=_epsilon_range),
    "K": _Field("int", None, allow_none=True, check=_clock_size),
    "h_norm": _Field("float", None, allow_none=True, check=_positive),
    "t_max": _Field("float", None, allow_none=True, check=_positive),
    "trials": _TRIALS,
    "seed": _SEED,
}

SCHEMAS = {
    "clock-verify": {
        "K": _Field("int", check=_clock_size),
        "epsilon": _Field("float", 1.0 / 6.0, check=_epsilon_range),
        "r": _RATE,
        "t_max": _Field("float", 1.0, check=_positive),
        "trials": _TRIALS,
        "seed": _SEED,
        "checkpoint_spacing": _Field("float", None, allow_none=True,
                                     check=_positive),
    },
    "decode-table": {},
    "bp-curve": {
        "p_min": _Field("float", 0.001, check=_nonnegative),
        "p_max": _Field("float", 0.05, check=_open_unit),
        "p_count": _Field("int", 20,
                          check=lambda v: None if v >= 2 else "need >= 2 points"),
        "trials": _TRIALS,
        "seed": _SEED,
    },
    "memory-sim": {
        **_PROTOCOL_FIELDS,
        "t": _Field("float", None, allow_none=True, check=_nonnegative),
        "n_bits": _Field("int", 101, check=_odd),
        "fidelity_floor": _Field("float", None, allow_none=True,
                                 check=_floor_range),
        "deterministic_clock": _Field("bool", False),
        "code_rate_r": _Field("float", None, allow_none=True,
                              check=_nonnegative),
        "round_spacing": _Field("float", None, allow_none=True,
                                check=_positive),
    },
    "lifetime-scan": {
        **_PROTOCOL_FIELDS,
        "fidelity_floor": _Field("float", 2.0 / 3.0, check=_floor_range),
        "levels_list": _Field("list_int", None, allow_none=True,
                              check=_nonnegative_list),
        "n_bits_list": _Field("list_int", None, allow_none=True,
                              check=_positive_list),
        "grid_step": _Field("float", 0.05, check=_positive),
    },
    "ledger": {
        "r": _RATE,
        "p_star": _Field("float", 1.0 / 40.0, check=_open_unit),
        "block_size": _Field("int", 5,
                             check=lambda v: None if v == 5 else
                             "only the five-qubit decoder is available"),
        "tau": _Field("float", 1.0, check=_positive),
        "search": _Field("bool", False),
        "p_star_values": _Field("list_float", None, allow_none=True,
                                check=_positive_list),
        "c_prot_values": _Field("list_float", None, allow_none=True,
                                check=_positive_list),
        "c_dec_values": _Field("list_float", None, allow_none=True,
                               check=_positive_list),
        "c_delta_values": _Field("list_float", None, allow_none=True,
                                 check=_positive_list),
        "margin": _Field("float", 0.1, check=lambda v: None if 0 <= v < 1
                         else "must lie in [0, 1)"),
        "levels": _Field("int", 4, check=_positive),
    },
    "oracle-check": {
        "n_values": _Field("list_int", [1, 2, 3], check=_oracle_sizes),
        "t_values": _Field("list_float", [0.5, 1.0, 2.0],
                           check=_positive_list),
        "r": _RATE,
        "trials": _TRIALS,
        "seed": _SEED,
        "dt": _Field("float", 0.005, check=_positive),
        "tolerance": _Field("float", 0.005, check=_positive),
    },
}

# subcommands whose natural output is a JSON report rather than CSV rows
_JSON_ONLY = ("ledger", "oracle-check")


def _coerce(sub: str, key: str, value, spec: _Field):
    path = f"{sub}.{key}"
    if value is None:
        if spec.allow_none:
            return None
        raise ConfigError(f"{path}: null is not allowed")
    kind = spec.kind
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        return float(value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    if kind in ("list_int", "list_float"):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a nonempty array")
        out = []
        for i, item in enumerate(value):
            if isinstance(item, bool):
                raise ConfigError(f"{path}[{i}]: expected a number")
            if kind == "list_int":
                if not isinstance(item, int):
                    raise ConfigError(f"{path}[{i}]: expected an integer")
                out.append(item)
            else:
                if not isinstance(item, (int, float)):
                    raise ConfigError(f"{path}[{i}]: expected a number")
                out.append(float(item))
        return out
    raise AssertionError(f"unknown schema kind {kind}")


@dataclass
class ExperimentConfig:
    """One fully validated, fully defaulted experiment description."""

    subcommand: str
    values: dict
    out: str | None = None
    format: str = "csv"

    def serialize(self) -> str:
        payload = {"subcommand": self.subcommand, "format": self.format}
        if self.out is not None:
            payload["out"] = self.out
        payload.update(self.values)
        return json.dumps(payload, sort_keys=True, indent=2)


def parse_config(text: str) -> ExperimentConfig:
    """Validate JSON config text into an ExperimentConfig.

    Defaults are filled, unknown keys rejected with their field path, and
    parse(config.serialize()) reproduces the config exactly.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    data = dict(data)
    sub = data.pop("subcommand", None)
    if sub is None:
        raise ConfigError("config.subcommand: required")
    if sub not in SCHEMAS:
        raise ConfigError(f"config.subcommand: unknown subcommand '{sub}'")
    out = data.pop("out", None)
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"{sub}.out: expected a string path")
    default_format = "json" if sub in _JSON_ONLY else "csv"
    fmt = data.pop("format", default_format)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{sub}.format: must be 'csv' or 'json'")
    if sub in _JSON_ONLY and fmt != "json":
        raise ConfigError(f"{sub}.format: this subcommand emits JSON only")
    schema = SCHEMAS[sub]
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ConfigError(f"{sub}.{unknown[0]}: unknown key")
    values = {}
    for key, spec in schema.items():
        if key in data:
            value = _coerce(sub, key, data[key], spec)
        elif spec.default is _REQUIRED:
            raise ConfigError(f"{sub}.{key}: required")
        else:
            value = spec.default
        if value is not None and spec.check is not None:
            msg = spec.check(value)
            if msg:
                raise ConfigError(f"{sub}.{key}: {msg}")
        values[key] = value
    return ExperimentConfig(subcommand=sub, values=values, out=out, format=fmt)


# ---------------------------------------------------------------------------
# experiment runners

@dataclass
class ExperimentResult:
    config: ExperimentConfig
    header: tuple
    rows: list
    summary: dict
    exit_code: int = 0
    plot_comment: str | None = None
    plot_columns: np.ndarray | None = None


def _py(value):
    """numpy scalar -> plain Python scalar, for stable str()/JSON."""
    return value.item() if isinstance(value, np.generic) else value


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _run_clock_verify(cfg: ExperimentConfig) -> ExperimentResult:
    v = cfg.values
    params = ClockParams(n_bits=v["K"], epsilon=v["epsilon"],
                         t_max=v["t_max"], rate_r=v["r"])
    bound = good_prob_bound(params)
    delta_half = time_error_bound(params)
    gen = np.random.default_rng(v["seed"])
    spacing = v["checkpoint_spacing"]
    rows = []
    counts = {"none": 0, "vertical": 0, "horizontal": 0, "band": 0}
    max_err_good = 0.0
    max_err_all = 0.0
    for i in range(v["trials"]):
        if spacing is None:
            traj = sample_trajectory(params, v["t_max"], gen)
            exit_ = first_exit(traj, params)
            kind = "none" if exit_ is None else exit_[1]
        else:
            traj = sample_trajectory_checkpointed(params, spacing,
                                                  v["t_max"], gen)
            kind = "none" if is_good(traj, params) else "band"
        err = max_time_error(traj, params)
        good = kind == "none"
        counts[kind] += 1
        max_err_all = max(max_err_all, err)
        if good:
            max_err_good = max(max_err_good, err)
        rows.append((i, int(good), err, kind))
    summary = {
        "K": v["K"], "epsilon": v["epsilon"], "r": v["r"],
        "t_max": v["t_max"], "trials": v["trials"],
        "good_fraction": counts["none"] / v["trials"],
        "good_prob_bound": bound.value,
        "good_prob_deficit": bound.deficit,
        "bound_vacuous": bound.vacuous,
        "delta_half": delta_half,
        "max_time_error_good": max_err_good,
        "max_time_error_all": max_err_all,
        "n_vertical": counts["vertical"],
        "n_horizontal": counts["horizontal"],
        "n_band_exits": counts["band"],
        "vertical_exit_rate_bound": vertical_exit_rate_bound(params),
    }
    if bound.vacuous:
        summary["note"] = "bound vacuous at these parameters"
    ts = np.linspace(0.0, v["t_max"], 201)
    kbar = mean_polarization(ts, params)
    band = params.band_half_width
    plot = np.column_stack([ts, kbar, kbar - band, kbar + band])
    return ExperimentResult(
        cfg, ("trial", "good", "max_time_error", "exit_type"), rows, summary,
        plot_comment="t(time units)  mean_polarization  band_low  band_high",
        plot_columns=plot)


def _run_decode_table(cfg: ExperimentConfig) -> ExperimentResult:
    table = default_table()
    frames = unpack(np.arange(N_STRINGS))
    rows = [(frame_to_label(frames[i]), int(table.syndromes[i]),
             CODE_LABELS[int(table.residuals[i])])
            for i in range(N_STRINGS)]
    summary = {
        "entries": N_STRINGS,
        "identity_residuals": int(np.count_nonzero(table.residuals == 0)),
        "failing_weight_counts": [int(c) for c in table.failing_weight_counts],
    }
    return ExperimentResult(cfg, ("error", "syndrome", "residual"), rows,
                            summary)


def _run_bp_curve(cfg: ExperimentConfig) -> ExperimentResult:
    v = cfg.values
    if v["p_max"] <= v["p_min"]:
        raise ConfigError("bp-curve.p_max: must exceed p_min")
    ps = np.linspace(v["p_min"], v["p_max"], v["p_count"])
    gen = np.random.default_rng(v["seed"])
    rows = []
    covered = 0
    max_dev = 0.0
    for p in ps:
        p = float(p)
        exact = b_exact(p)
        est = b_monte_carlo(p, v["trials"], gen)
        rows.append((p, exact, est.estimate, est.ci_low, est.ci_high))
        covered += est.ci_low <= exact <= est.ci_high
        max_dev = max(max_dev, abs(est.estimate - exact))
    summary = {
        "points": len(rows), "trials": v["trials"],
        "ci_covered": covered, "max_abs_deviation": max_dev,
        "quadratic_bound_max_p": quadratic_bound_range(),
    }
    plot = np.column_stack([ps, [b_exact(float(p)) for p in ps],
                            [quadratic_block_error(float(p)) for p in ps]])
    return ExperimentResult(
        cfg, ("p", "b_exact", "b_mc", "ci_lo", "ci_hi"), rows, summary,
        plot_comment="p(per-qubit error prob)  b_exact  ten_p_squared",
        plot_columns=plot)


def _protocol_params(v: dict) -> ProtocolParams:
    return ProtocolParams(rate_r=v["r"], levels=v["levels"],
                          p_star=v["p_star"], t_prot=v["t_prot"],
                          t_dec=v["t_dec"], delta=v["delta"],
                          epsilon=v["epsilon"], clock_bits=v["K"],
                          t_max=v["t_max"], h_norm=v["h_norm"])


def _require(v, sub, key, strategy):
    if v[key] is None:
        raise ConfigError(f"{sub}.{key}: required for strategy '{strategy}'")


def _require_levels(v, sub, strategy):
    """circuit and clock decode at least one level; the schema admits
    levels 0 because unprotected uses it."""
    if v["levels"] < 1:
        raise ConfigError(f"{sub}.levels: must be >= 1 for strategy "
                          f"'{strategy}'")
    if any(lev < 1 for lev in v.get("levels_list") or ()):
        raise ConfigError(f"{sub}.levels_list: entries must be >= 1 for "
                          f"strategy '{strategy}'")


def _run_memory_sim(cfg: ExperimentConfig) -> ExperimentResult:
    v = cfg.values
    strategy = v["strategy"]
    rng = np.random.default_rng(v["seed"])
    n_clock = 0
    if strategy == "repetition":
        _require(v, "memory-sim", "t", strategy)
        est = simulate_classical_repetition(v["n_bits"], v["t"], v["trials"],
                                            rng, rate_r=v["r"])
        f = est.failure_rate
        lo, hi = wilson_interval(est.failures, est.trials, z=3.0)
        row = (strategy, v["n_bits"], 0, v["t"], est.trials,
               1.0 - f, f, 0.0, 0.0, 1.0 - f, (hi - lo) / 2.0, 0, 0)
    else:
        params = _protocol_params(v)
        if strategy == "unprotected":
            _require(v, "memory-sim", "t", strategy)
            est = simulate_unprotected(v["t"], params, v["trials"], rng)
            t_span = v["t"]
        elif strategy == "circuit":
            _require(v, "memory-sim", "t_prot", strategy)
            _require_levels(v, "memory-sim", strategy)
            est = simulate_circuit_model(params, v["trials"], rng,
                                         round_spacing=v["round_spacing"])
            spacing = v["round_spacing"] or params.t_prot
            t_span = params.levels * spacing
        else:
            _require(v, "memory-sim", "t_prot", strategy)
            _require(v, "memory-sim", "t_dec", strategy)
            _require_levels(v, "memory-sim", strategy)
            if v["K"] is None and v["delta"] <= 0:
                raise ConfigError("memory-sim.delta: must be positive to "
                                  "size the clock (or give K directly)")
            est = simulate_clock_controlled(
                params, v["trials"], rng,
                deterministic_clock=v["deterministic_clock"],
                code_rate_r=v["code_rate_r"])
            n_clock = with_sized_clock(params).clock_bits
            t_span = params.schedule_end
        p = est.p_hat
        # fidelity (2 p_I + 1)/3 maps the p_I interval with slope 2/3
        lo, hi = wilson_interval(int(est.counts[0]), est.trials, z=3.0)
        row = (strategy, params.n_qubits, n_clock, t_span, est.trials,
               float(p[0]), float(p[1]), float(p[3]), float(p[2]),
               est.avg_fidelity, (hi - lo) / 3.0,
               est.decode_failures, est.bad_trajectories)
    header = ("strategy", "N", "K", "t", "trials", "p_I", "p_X", "p_Y", "p_Z",
              "fid", "ci", "decode_failures", "bad_trajectories")
    summary = {k: _py(val) for k, val in zip(header, row)}
    summary["seed"] = v["seed"]
    return ExperimentResult(cfg, header, [row], summary)


def _run_lifetime_scan(cfg: ExperimentConfig) -> ExperimentResult:
    v = cfg.values
    strategy = v["strategy"]
    if strategy in ("circuit", "clock"):
        _require(v, "lifetime-scan", "t_prot", strategy)
        _require_levels(v, "lifetime-scan", strategy)
    if strategy == "clock":
        _require(v, "lifetime-scan", "t_dec", strategy)
        if v["K"] is None and v["delta"] <= 0:
            raise ConfigError("lifetime-scan.delta: must be positive to "
                              "size the clock (or give K directly)")
    params = _protocol_params(v)
    levels_list = tuple(v["levels_list"]) if v["levels_list"] else None
    n_bits_list = tuple(v["n_bits_list"]) if v["n_bits_list"] else None
    scan = lifetime_scan(strategy, params, v["fidelity_floor"], v["trials"],
                         np.random.default_rng(v["seed"]),
                         levels_list=levels_list,
                         n_bits_list=n_bits_list, grid_step=v["grid_step"])
    rows = [(n, life, scan.slope) for n, life in scan.points]
    summary = {
        "strategy": strategy, "fidelity_floor": v["fidelity_floor"],
        "slope": scan.slope, "intercept": scan.intercept,
        "points": [[_py(n), _py(life)] for n, life in scan.points],
    }
    plot = np.column_stack([np.log([n for n, _ in scan.points]),
                            [life for _, life in scan.points]])
    return ExperimentResult(
        cfg, ("N", "lifetime", "fit_slope"), rows, summary,
        plot_comment="ln_N  lifetime(time units)", plot_columns=plot)


def _run_ledger(cfg: ExperimentConfig) -> ExperimentResult:
    v = cfg.values
    report = build_ledger(v["r"], v["p_star"], v["block_size"], v["tau"])
    summary = report.to_dict()
    if v["search"]:
        ranges = {}
        for key in ("p_star_values", "c_prot_values", "c_dec_values",
                    "c_delta_values"):
            if v[key] is not None:
                ranges[key] = tuple(v[key])
        found = feasibility_search(v["r"], v["block_size"], levels=v["levels"],
                                   margin=v["margin"], **ranges)
        summary["search"] = found.to_dict() if found is not None else None
        exit_code = EXIT_OK if found is not None else EXIT_INFEASIBLE
    else:
        exit_code = EXIT_OK if report.verdict_holds else EXIT_INFEASIBLE
    return ExperimentResult(cfg, (), [], summary, exit_code=exit_code)


def _run_oracle_check(cfg: ExperimentConfig) -> ExperimentResult:
    v = cfg.values
    gen = np.random.default_rng(v["seed"])
    checks = []
    for n in v["n_values"]:
        for t in v["t_values"]:
            comp = oracle_equivalence_check(n, v["r"], t, v["trials"], gen,
                                            dt=v["dt"])
            checks.append({"n_qubits": n, "t": t, "trials": v["trials"],
                           "distance": comp.distance,
                           "pass": comp.distance <= v["tolerance"]})
    summary = {
        "tolerance": v["tolerance"],
        "max_distance": max(c["distance"] for c in checks),
        "all_pass": all(c["pass"] for c in checks),
        "checks": checks,
    }
    return ExperimentResult(cfg, (), [], summary)


_RUNNERS = {
    "clock-verify": _run_clock_verify,
    "decode-table": _run_decode_table,
    "bp-curve": _run_bp_curve,
    "memory-sim": _run_memory_sim,
    "lifetime-scan": _run_lifetime_scan,
    "ledger": _run_ledger,
    "oracle-check": _run_oracle_check,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute one validated config; raises rather than exiting."""
    return _RUNNERS[config.subcommand](config)


# ---------------------------------------------------------------------------
# emission

def render_rows_csv(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(_py(x)) for x in row) + "\n")
    return buf.getvalue()


def result_payload(result: ExperimentResult) -> dict:
    """JSON document for a run; the timestamp is the only varying field."""
    return {
        "subcommand": result.config.subcommand,
        "config": json.loads(result.config.serialize()),
        "summary": _jsonable(result.summary),
        "rows": [dict(zip(result.header, map(_py, row)))
                 for row in result.rows],
        "timestamp": time.time(),
    }


def write_result(result: ExperimentResult, path) -> Path:
    path = Path(path)
    if result.config.format == "csv":
        path.write_text(render_rows_csv(result.header, result.rows))
    else:
        path.write_text(json.dumps(result_payload(result), indent=2,
                                   sort_keys=True) + "\n")
    return path


def emit_plot_data(result: ExperimentResult, path) -> Path | None:
    """Write gnuplot-ready whitespace columns; None if nothing to plot."""
    if result.plot_columns is None:
        return None
    path = Path(path)
    lines = [f"# {result.config.subcommand}", f"# {result.plot_comment}"]
    for row in np.atleast_2d(result.plot_columns):
        lines.append("  ".join(f"{float(x):.12g}" for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmemsim",
        description="Quantum-memory lifetime simulations and analytic checks")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name in SCHEMAS:
        sp = subparsers.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="master RNG seed (overrides config)")
        sp.add_argument("--trials", type=int, default=None,
                        help="trial count (overrides config)")
        sp.add_argument("--out", type=str, default=None,
                        help="result file path")
        sp.add_argument("--format", type=str, default=None,
                        choices=("csv", "json"))
        sp.add_argument("--plot-data", type=str, default=None,
                        help="write gnuplot columns here")
        if name == "ledger":
            sp.add_argument("--search", action="store_true",
                            help="run the feasibility search")
    return parser


def _merge_cli(args) -> dict:
    data = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be a JSON object")
        stated = data.get("subcommand")
        if stated is not None and stated != args.subcommand:
            raise ConfigError(
                f"config.subcommand: '{stated}' does not match "
                f"'{args.subcommand}'")
    data["subcommand"] = args.subcommand
    for key in ("seed", "trials", "out", "format"):
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    if getattr(args, "search", False):
        data["search"] = True
    return data


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(json.dumps(_merge_cli(args)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_experiment(config)
        if config.out is not None:
            write_result(result, config.out)
        if args.plot_data is not None:
            emit_plot_data(result, args.plot_data)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _INFEASIBLE_ERRORS as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps(_jsonable(result.summary), sort_keys=True))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
