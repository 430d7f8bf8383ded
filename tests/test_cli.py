"""CLI harness: schema validation, runners, emission, exit codes."""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qmemsim.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_RUNTIME,
                         ConfigError, ExperimentConfig, main, parse_config,
                         render_rows_csv, result_payload, run_experiment,
                         write_result)
from qmemsim import cli, clock, protocols
from qmemsim.clock import MAX_BITS, sample_trajectory
from qmemsim.stats import wilson_interval


def parse(d):
    return parse_config(json.dumps(d))


# --- schema -------------------------------------------------------------------

def test_minimal_config_defaults():
    cfg = parse({"subcommand": "bp-curve"})
    assert cfg.subcommand == "bp-curve"
    assert cfg.format == "csv"
    assert cfg.values["p_min"] == 0.001
    assert cfg.values["p_max"] == 0.05
    assert cfg.values["p_count"] == 20
    assert cfg.values["trials"] == 100_000
    assert cfg.values["seed"] == 0


CLOCK_SMALL = {"strategy": "clock", "t_prot": 0.5, "t_dec": 0.3,
               "delta": 0.02, "epsilon": 0.3, "K": 4096, "levels": 2}


@pytest.mark.parametrize("data,fragment", [
    ({}, "config.subcommand: required"),
    ({"subcommand": "warp"}, "unknown subcommand"),
    ({"subcommand": "bp-curve", "bogus": 1}, "bp-curve.bogus: unknown key"),
    ({"subcommand": "clock-verify"}, "clock-verify.K: required"),
    ({"subcommand": "clock-verify", "K": 8}, "K >= 16"),
    ({"subcommand": "bp-curve", "trials": "100"}, "expected an integer"),
    ({"subcommand": "bp-curve", "trials": True}, "expected an integer"),
    ({"subcommand": "clock-verify", "K": 4096.0}, "expected an integer"),
    ({"subcommand": "bp-curve", "trials": None}, "null is not allowed"),
    ({"subcommand": "bp-curve", "trials": -5}, "must be positive"),
    ({"subcommand": "bp-curve", "seed": -1}, "unsigned 64-bit"),
    ({"subcommand": "lifetime-scan", "strategy": "unprotected",
      "levels_list": []}, "expected a nonempty array"),
    ({"subcommand": "lifetime-scan", "strategy": "unprotected",
      "levels_list": [1, "x"]}, "expected an integer"),
    ({"subcommand": "memory-sim"}, "memory-sim.strategy: required"),
    ({"subcommand": "memory-sim", "strategy": "osmosis"}, "must be one of"),
    ({"subcommand": "memory-sim", "strategy": "repetition", "t": 1.0,
      "n_bits": 10}, "must be odd"),
    ({"subcommand": "ledger", "format": "csv"}, "emits JSON only"),
    ({"subcommand": "oracle-check", "format": "csv"}, "emits JSON only"),
    ({"subcommand": "oracle-check", "n_values": [4]}, "1..3"),
    ({"subcommand": "bp-curve", "format": "yaml"}, "must be 'csv' or 'json'"),
    ({"subcommand": "bp-curve", "out": 5}, "expected a string path"),
    ({"subcommand": "ledger", "p_star": 0.5, "block_size": 3},
     "unknown key"),
    ({"subcommand": "lifetime-scan", "strategy": "repetition",
      "n_bits_list": [11, 100]},
     "lifetime-scan.n_bits_list: entry 100 must be odd"),
    # json.dumps writes these as NaN and +-Infinity, which JSON does not have
    ({"subcommand": "clock-verify", "K": 4096, "r": math.inf},
     "(Infinity is not a JSON number)"),
    ({"subcommand": "clock-verify", "K": 4096, "r": -math.inf},
     "(-Infinity is not a JSON number)"),
    ({"subcommand": "clock-verify", "K": 4096, "r": math.nan},
     "(NaN is not a JSON number)"),
    ({"subcommand": "clock-verify", "K": 4096, "r": 10**400},
     "clock-verify.r: number overflows a float"),
    ({"subcommand": "oracle-check", "t_values": [1, 10**400]},
     "oracle-check.t_values[1]: number overflows a float"),
    ({"subcommand": "lifetime-scan", "strategy": "unprotected",
      "grid_step": 0.05}, "lifetime-scan.grid_step: unknown key"),
    ({"subcommand": "memory-sim", "strategy": "unprotected", "t": 1.0,
      "fidelity_floor": 0.9}, "memory-sim.fidelity_floor: unknown key"),
    ({"subcommand": "memory-sim", "strategy": "circuit", "levels": 1,
      "t_prot": 0.5, "round_spacing": 0.2},
     "memory-sim.round_spacing: unknown key"),
    # the ledger's recursion assumes p* <= 1/40
    ({"subcommand": "ledger", "p_star": 0.03},
     "ledger.p_star: must lie in (0, 1/40]"),
    # -1 is odd, but a repetition code needs bits
    ({"subcommand": "memory-sim", "strategy": "repetition", "t": 1.0,
      "n_bits": -1}, "memory-sim.n_bits: must be positive"),
    # the drive norm and the clock horizon follow from the schedule and the
    # budget, and the clock run has no ablation modes
    *[({"subcommand": sub, **CLOCK_SMALL, key: value},
       f"{sub}.{key}: unknown key")
      for sub, key, value in [("memory-sim", "deterministic_clock", True),
                              ("memory-sim", "code_rate_r", 0.0),
                              ("memory-sim", "h_norm", 2.0),
                              ("memory-sim", "t_max", 0.02),
                              ("lifetime-scan", "h_norm", 2.0),
                              ("lifetime-scan", "t_max", 0.02)]],
    # a clock numpy cannot count: its k +- 2 A sums reach 2 K
    *[({"subcommand": sub, **config, "K": k},
       f"{sub}.K: must be below 2**62")
      for sub, config in [("memory-sim", CLOCK_SMALL),
                          ("lifetime-scan", CLOCK_SMALL), ("clock-verify", {})]
      for k in (2 ** 62, 2 ** 63 - 1, 2 ** 63, 10 ** 19)],
    # a list entry meets its field's check, and is named when it does not
    ({"subcommand": "lifetime-scan", "strategy": "unprotected",
      "levels_list": [-1]}, "lifetime-scan.levels_list: entry -1 must be "
     "nonnegative"),
    ({"subcommand": "oracle-check", "n_values": [0]},
     "oracle-check.n_values: entry 0 must lie in 1..3"),
    ({"subcommand": "oracle-check", "t_values": [0]},
     "oracle-check.t_values: entry 0.0 must be positive"),
    ({"subcommand": "ledger", "p_star_values": [0]},
     "ledger.p_star_values: entry 0.0 must be positive"),
    ({"subcommand": "ledger", "c_dec_values": [-1]},
     "ledger.c_dec_values: entry -1.0 must be positive"),
    ({"subcommand": "lifetime-scan", "strategy": "unprotected",
      "levels_list": [True]}, "lifetime-scan.levels_list[0]: expected an "
     "integer"),
    # a subcommand that is not a string, not even a hashable one
    ({"subcommand": [1]}, "config.subcommand: unknown subcommand"),
    ({"subcommand": {}}, "config.subcommand: unknown subcommand"),
])
def test_config_rejections(data, fragment):
    with pytest.raises(ConfigError) as err:
        parse(data)
    assert fragment in str(err.value)


def test_invalid_json_and_shape():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")
    with pytest.raises(ConfigError, match="maximum recursion depth"):
        parse_config("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ConfigError, match="p_max: number overflows a float"):
        parse_config('{"subcommand": "bp-curve", "p_max": 1e999}')


def test_nullable_fields_accepted():
    cfg = parse({"subcommand": "memory-sim", "strategy": "unprotected",
                 "t": 1.0, "t_prot": None})
    assert cfg.values["t_prot"] is None


def test_round_trip_serialization():
    cfg = parse({"subcommand": "memory-sim", "strategy": "circuit",
                 "t_prot": 0.005, "levels": 3, "trials": 5000, "seed": 7,
                 "out": "runs/x.csv"})
    again = parse_config(cfg.serialize())
    assert again == cfg
    led = parse({"subcommand": "ledger", "search": True,
                 "c_dec_values": [0.25, 0.05]})
    assert parse_config(led.serialize()) == led
    assert led.format == "json"  # JSON-only default


# --- runners ------------------------------------------------------------------

def test_decode_table_rows():
    res = run_experiment(parse({"subcommand": "decode-table"}))
    assert res.header == ("error", "syndrome", "residual")
    assert len(res.rows) == 1024
    assert res.rows[0] == ("IIIII", 0, "I")
    assert res.rows[1] == ("XIIII", 8, "I")  # packed index 1 = X on qubit 0
    assert res.summary["identity_residuals"] == 256
    assert res.summary["failing_weight_counts"] == [0, 0, 90, 210, 270, 198]
    labels = {row[0] for row in res.rows}
    assert len(labels) == 1024


def test_bp_curve_runner():
    res = run_experiment(parse({"subcommand": "bp-curve", "p_count": 5,
                                "trials": 20_000, "seed": 3}))
    assert len(res.rows) == 5
    assert res.summary["ci_covered"] >= 4  # 3.29-sigma Wilson CIs
    assert res.summary["quadratic_bound_max_p"] == 1.0
    for p, exact, mc, lo, hi in res.rows:
        assert lo <= hi
        assert abs(mc - exact) < 0.01
    assert res.plot_columns.shape == (5, 3)
    with pytest.raises(ConfigError, match="must exceed p_min"):
        run_experiment(parse({"subcommand": "bp-curve", "p_min": 0.05,
                              "p_max": 0.04}))


def test_memory_sim_unprotected_row():
    t = math.log(3.0)
    res = run_experiment(parse({"subcommand": "memory-sim",
                                "strategy": "unprotected", "t": t,
                                "levels": 0, "trials": 20_000, "seed": 9}))
    (row,) = res.rows
    assert res.header[:5] == ("strategy", "N", "K", "t", "trials")
    assert row[0] == "unprotected" and row[1] == 1 and row[2] == 0
    fid = res.summary["fid"]
    assert fid == pytest.approx(2.0 / 3.0, abs=0.02)
    assert set(res.summary) == set(res.header) | {"seed"} | {
        f"exact_p_{c}" for c in "IXZY"}


def test_memory_sim_repetition_row():
    res = run_experiment(parse({"subcommand": "memory-sim",
                                "strategy": "repetition", "t": 2.0,
                                "n_bits": 101, "trials": 50_000, "seed": 11}))
    (row,) = res.rows
    assert row[0] == "repetition" and row[1] == 101
    assert res.summary["p_X"] == pytest.approx(0.0854, abs=0.01)
    assert res.summary["fid"] == pytest.approx(1.0 - res.summary["p_X"])
    assert not any(key.startswith("exact_") for key in res.summary)


@pytest.mark.parametrize("config", [
    {"strategy": "unprotected", "t": 0.7, "r": 1.5},
    {"strategy": "circuit", "t_prot": 0.05, "levels": 2},
    CLOCK_SMALL,
], ids=["unprotected", "circuit", "clock"])
def test_memory_sim_exact_channel(config):
    # the summary carries the exact law next to the sampled p_*; the CSV
    # row does not change
    res = run_experiment(parse({"subcommand": "memory-sim", "trials": 40,
                                "seed": 4, **config}))
    exact = [res.summary[f"exact_p_{c}"] for c in "IXZY"]
    assert sum(exact) == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 <= p <= 1.0 for p in exact)
    assert len(res.rows[0]) == len(res.header) == 13
    if config["strategy"] == "unprotected":
        lam = math.exp(-1.5 * 0.7)
        assert exact[0] == pytest.approx((1.0 + 3.0 * lam) / 4.0, rel=1e-12)
        assert exact[1:] == pytest.approx([(1.0 - lam) / 4.0] * 3, rel=1e-12)


@pytest.mark.parametrize("strategy,levels,scale", [
    ("unprotected", 0, 2.0 / 3.0), ("circuit", 2, 2.0 / 3.0),
    ("repetition", 1, 1.0)])
def test_memory_sim_ci_nonzero_on_perfect_outcome(strategy, levels, scale):
    # every trial succeeds, yet sampling was done: the z = 3 Wilson
    # half-width (mapped to fidelity for quantum strategies) stays positive
    res = run_experiment(parse({"subcommand": "memory-sim",
                                "strategy": strategy, "levels": levels,
                                "t": 0.0, "t_prot": 1e-9, "n_bits": 11,
                                "trials": 200, "seed": 3}))
    assert res.summary["fid"] == 1.0
    lo, hi = wilson_interval(200, 200, z=3.0)
    assert res.summary["ci"] == pytest.approx(scale * (hi - lo) / 2.0)
    assert res.summary["ci"] > 0.0


def test_memory_sim_clock_requires_sizing():
    with pytest.raises(ConfigError, match="size the clock"):
        run_experiment(parse({"subcommand": "memory-sim", "strategy": "clock",
                              "t_prot": 0.5, "t_dec": 0.3, "trials": 10}))


def test_memory_sim_clock_small():
    res = run_experiment(parse({"subcommand": "memory-sim", "strategy": "clock",
                                "t_prot": 0.5, "t_dec": 0.3, "delta": 0.02,
                                "epsilon": 0.3, "K": 4096, "levels": 1,
                                "trials": 200, "seed": 5}))
    assert res.summary["K"] == 4096
    assert res.summary["N"] == 5
    assert res.summary["t"] == pytest.approx(0.8)
    assert res.summary["decode_failures"] == res.rows[0][-2]


def test_lifetime_scan_requires_fields():
    with pytest.raises(ConfigError, match="required for strategy"):
        run_experiment(parse({"subcommand": "lifetime-scan",
                              "strategy": "circuit", "trials": 10}))
    with pytest.raises(ConfigError, match="size the clock"):
        run_experiment(parse({"subcommand": "lifetime-scan",
                              "strategy": "clock", "t_prot": 0.5,
                              "t_dec": 0.3, "trials": 10}))


def test_lifetime_scan_unprotected_reports_breaking_time():
    res = run_experiment(parse({"subcommand": "lifetime-scan",
                                "strategy": "unprotected", "r": 2.0,
                                "levels_list": [0], "trials": 200,
                                "seed": 1}))
    assert res.summary["entanglement_breaking_time"] == pytest.approx(
        math.log(3.0) / 2.0, rel=1e-15)
    assert res.header == ("N", "lifetime", "fit_slope")
    repetition = run_experiment(parse({"subcommand": "lifetime-scan",
                                       "strategy": "repetition",
                                       "n_bits_list": [11], "trials": 1}))
    assert "entanglement_breaking_time" not in repetition.summary


def test_lifetime_scan_repetition_runner():
    res = run_experiment(parse({"subcommand": "lifetime-scan",
                                "strategy": "repetition",
                                "fidelity_floor": 0.9,
                                "n_bits_list": [11, 101], "trials": 1,
                                "seed": 1}))
    assert [row[0] for row in res.rows] == [11, 101]
    assert res.rows[0][1] == pytest.approx(1.0090576526728927, rel=1e-9)
    assert res.summary["slope"] == res.rows[0][2]
    assert res.plot_columns.shape == (2, 2)
    assert res.plot_columns[0, 0] == pytest.approx(math.log(11))


def test_ledger_runner_verdict_and_search():
    res = run_experiment(parse({"subcommand": "ledger"}))
    assert res.exit_code == EXIT_INFEASIBLE
    assert res.summary["verdict_holds"] is False
    assert res.summary["recursion_exact"]["iterates"][1] > 0.025
    searched = run_experiment(parse({"subcommand": "ledger", "search": True}))
    assert searched.exit_code == EXIT_OK
    assert searched.summary["search"]["margin"] == pytest.approx(
        0.376487277439315, rel=1e-9)
    hopeless = run_experiment(parse({"subcommand": "ledger", "search": True,
                                     "margin": 0.9}))
    assert hopeless.exit_code == EXIT_INFEASIBLE
    assert hopeless.summary["search"] is None


def test_oracle_check_runner():
    res = run_experiment(parse({"subcommand": "oracle-check", "n_values": [1],
                                "t_values": [0.5], "trials": 30_000,
                                "seed": 2, "tolerance": 0.02}))
    assert res.summary["all_pass"] is True
    assert len(res.summary["checks"]) == 1
    assert res.summary["checks"][0]["n_qubits"] == 1


def test_clock_verify_runner():
    res = run_experiment(parse({"subcommand": "clock-verify", "K": 4096,
                                "epsilon": 0.4, "t_max": 2.0, "trials": 40,
                                "seed": 1}))
    assert res.summary["good_fraction"] == 1.0
    assert res.summary["bound_vacuous"] is False
    assert res.summary["max_time_error_good"] <= res.summary["delta_half"]
    assert len(res.rows) == 40
    assert res.plot_columns.shape == (201, 4)


def test_clock_verify_exit_partition():
    # a small, wide-band clock exits often; each trial has exactly one class
    res = run_experiment(parse({"subcommand": "clock-verify", "K": 64,
                                "epsilon": 0.1, "t_max": 1.0, "trials": 200,
                                "seed": 26}))
    s = res.summary
    n_good = round(s["good_fraction"] * 200)
    assert s["n_vertical"] + s["n_horizontal"] + n_good == 200
    assert s["n_vertical"] > 0 and s["n_horizontal"] > 0 and n_good > 0
    kinds = [row[3] for row in res.rows]
    assert kinds.count("vertical") == s["n_vertical"]
    assert kinds.count("horizontal") == s["n_horizontal"]
    assert sum(row[1] for row in res.rows) == n_good


def test_clock_verify_checkpointed():
    res = run_experiment(parse({"subcommand": "clock-verify", "K": 100_000_000,
                                "epsilon": 0.25, "t_max": 2.0, "trials": 10,
                                "seed": 1, "checkpoint_spacing": 0.05}))
    assert res.summary["good_fraction"] == 1.0
    assert res.summary["n_band_exits"] == 0
    assert res.summary["max_time_error_all"] < 0.0739


# --- emission ------------------------------------------------------------------

def test_render_rows_csv():
    text = render_rows_csv(("a", "b"), [(1, "x"), (2.5, "y")])
    assert text == "a,b\n1,x\n2.5,y\n"


def test_result_payload_json_clean(tmp_path):
    res = run_experiment(parse({"subcommand": "bp-curve", "p_count": 3,
                                "trials": 2000}))
    payload = result_payload(res)
    text = json.dumps(payload)  # numpy types would raise here
    assert json.loads(text)["subcommand"] == "bp-curve"
    assert len(payload["rows"]) == 3
    out = write_result(res, tmp_path / "r.csv")
    assert out.read_text().startswith("p,b_exact,b_mc,ci_lo,ci_hi\n")


# --- main() end to end ----------------------------------------------------------

def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_decode_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, stdout, _ = run_main(capsys, ["decode-table", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "error,syndrome,residual"
    assert len(lines) == 1025
    summary = json.loads(stdout)
    assert summary["entries"] == 1024


def test_main_byte_identical_reruns(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "memory-sim",
                               "strategy": "unprotected", "t": 1.0,
                               "trials": 5000, "seed": 21}))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a, _, _ = run_main(capsys, ["memory-sim", "--config", str(cfg),
                                     "--out", str(out_a)])
    code_b, _, _ = run_main(capsys, ["memory-sim", "--config", str(cfg),
                                     "--out", str(out_b)])
    assert code_a == code_b == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_main_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "bp-curve", "p_count": 3,
                               "trials": 99, "seed": 1}))
    code, stdout, _ = run_main(capsys, ["bp-curve", "--config", str(cfg),
                                        "--trials", "2000"])
    assert code == EXIT_OK
    assert json.loads(stdout)["trials"] == 2000


def test_main_config_subcommand_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "bp-curve"}))
    code, _, stderr = run_main(capsys, ["decode-table", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "does not match" in stderr


def test_main_missing_config_file(tmp_path, capsys):
    code, _, stderr = run_main(capsys, ["bp-curve", "--config", "/no/such.json"])
    assert code == EXIT_CONFIG
    assert "cannot read" in stderr
    # a file that is not UTF-8 text is as unreadable, not a traceback
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    code, stdout, stderr = run_main(capsys, ["bp-curve", "--config", str(path)])
    assert code == EXIT_CONFIG and not stdout
    assert stderr.startswith("config error: config: cannot read ")


def test_main_bad_parameter_exit(tmp_path, capsys):
    code, _, stderr = run_main(capsys, ["clock-verify", "--config", "/dev/null"])
    assert code == EXIT_CONFIG  # empty file is invalid JSON
    code2, _, stderr2 = run_main(
        capsys, ["bp-curve", "--seed", "-3"])
    assert code2 == EXIT_CONFIG
    assert "unsigned" in stderr2
    # the decoded strategies need a level; the schema admits 0 for
    # unprotected, so the runners reject it for circuit and clock
    base = {"t_prot": 0.5, "t_dec": 0.3, "delta": 0.02, "epsilon": 0.3,
            "K": 4096, "trials": 10}
    for sub, strategy, levels in [
            ("memory-sim", "circuit", {"levels": 0}),
            ("memory-sim", "clock", {"levels": 0}),
            ("lifetime-scan", "circuit", {"levels": 0}),
            ("lifetime-scan", "clock", {"levels": 0}),
            ("lifetime-scan", "circuit", {"levels_list": [0]}),
            ("lifetime-scan", "clock", {"levels_list": [1, 0]})]:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"subcommand": sub, "strategy": strategy,
                                    **base, **levels}))
        code, _, stderr = run_main(capsys, [sub, "--config", str(path)])
        assert code == EXIT_CONFIG, (sub, strategy, levels, stderr)
        assert f"{sub}.{next(iter(levels))}: " in stderr


@pytest.mark.parametrize("argv", [
    ["decode-table", "--seed", "3"],   # flags only where the schema has the key
    ["ledger", "--trials", "5"],
    ["oracle-check", "--format", "csv"],   # --format only where csv is allowed
    ["memory-sim", "--bogus"],
    [],
    ["bp-curve", "--seed", "abc"],
])
def test_main_usage_errors_exit_config(capsys, argv):
    # argparse exits 2 on misuse, which would read as an infeasible verdict
    code, stdout, stderr = run_main(capsys, argv)
    assert code == EXIT_CONFIG and not stdout
    assert "error: " in stderr


def test_main_help_exits_ok(capsys):
    code, stdout, _ = run_main(capsys, ["-h"])
    assert code == EXIT_OK and stdout.startswith("usage: qmemsim")
    code, stdout, _ = run_main(capsys, ["ledger", "-h"])
    assert code == EXIT_OK and "--search" in stdout
    assert "--seed" not in stdout and "--format" not in stdout


def test_main_oracle_check_bounds_rk4_steps(tmp_path, capsys):
    # at t / dt past 2**53 the integrator's loop never ends: the step bound
    # rejects such a t before any entry runs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "oracle-check", "n_values": [1],
                                "t_values": [0.5, 1e300], "trials": 10}))
    start = time.perf_counter()
    code, stdout, stderr = run_main(capsys, ["oracle-check", "--config",
                                             str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG and not stdout
    assert "config error: oracle-check.t_values[1]: " in stderr


def test_main_rejects_non_finite_numbers(tmp_path, capsys):
    # config files go through the same reader as parse_config: exit 1, and
    # no run that would print a non-JSON "Infinity" summary
    for sub, text in [
            ("clock-verify", '{"K": 4096, "r": Infinity, "trials": 3}'),
            ("memory-sim", '{"strategy": "circuit", "t_prot": Infinity, '
                           '"trials": 10}')]:
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, stdout, stderr = run_main(capsys, [sub, "--config", str(path)])
        assert code == EXIT_CONFIG, (sub, stderr)
        assert "Infinity is not a JSON number" in stderr and not stdout


def test_main_reports_overflowing_number_by_field(tmp_path, capsys):
    # 1e999 is valid JSON that reads as inf: the field is named, not a
    # constant the file never held
    path = tmp_path / "cfg.json"
    path.write_text('{"strategy": "circuit", "t_prot": 1e999, "trials": 10}')
    code, stdout, stderr = run_main(capsys, ["memory-sim", "--config", str(path)])
    assert code == EXIT_CONFIG and not stdout
    assert "config error: memory-sim.t_prot: number overflows a float" in stderr
    assert "Infinity" not in stderr


def test_main_ledger_exit_codes(capsys):
    code, stdout, _ = run_main(capsys, ["ledger"])
    assert code == EXIT_INFEASIBLE
    assert json.loads(stdout)["verdict_holds"] is False
    code, stdout, _ = run_main(capsys, ["ledger", "--search"])
    assert code == EXIT_OK
    assert json.loads(stdout)["search"]["c_dec"] == 0.25


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not a JSON number")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("p_star,tau", [(0.002, 1.0), (0.025, 300.0)])
def test_main_ledger_long_horizon_is_strict_json(tmp_path, capsys, p_star, tau):
    # 477 and 11 429 rounds: n_qubits, and at tau = 300 clock_bits too,
    # pass the float range and are written as null
    cfg, out = tmp_path / "cfg.json", tmp_path / "ledger.json"
    cfg.write_text(json.dumps({"subcommand": "ledger", "r": 1.0,
                               "p_star": p_star, "tau": tau}))
    code, stdout, _ = run_main(capsys, ["ledger", "--config", str(cfg),
                                        "--out", str(out)])
    summary = _strict_json(stdout)
    assert code == (EXIT_OK if summary["verdict_holds"] else EXIT_INFEASIBLE)
    derived = summary["derived"]
    assert derived["n_qubits"] is None and derived["log10_n_qubits"] > 308
    if tau == 300.0:
        assert derived["clock_bits"] is None
        assert derived["log10_clock_bits"] > 308
    assert _strict_json(out.read_text())["summary"] == summary


def test_main_runtime_failure_exit(tmp_path, capsys):
    code, _, stderr = run_main(
        capsys, ["decode-table", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == EXIT_RUNTIME
    assert "runtime failure" in stderr


def test_main_lifetime_scan_floor_never_crossed(tmp_path, capsys):
    # the unprotected fidelity tends to 1/2, so a floor of 0.45 is never
    # crossed: a runtime failure on one stderr line, not a traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "lifetime-scan",
                                "strategy": "unprotected",
                                "fidelity_floor": 0.45, "trials": 2000}))
    code, stdout, stderr = run_main(capsys, ["lifetime-scan", "--config",
                                             str(path)])
    assert code == EXIT_RUNTIME and not stdout
    assert stderr.splitlines() == [
        "runtime failure: RuntimeError: fidelity never crosses the floor; "
        "raise it"]


def test_main_lifetime_scan_past_int64(tmp_path, capsys):
    # 5**28 qubits and more overflow int64: the fit and the plot column
    # take each point's log on its own
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "lifetime-scan",
                                "strategy": "unprotected",
                                "levels_list": [0, 28, 40], "trials": 2000}))
    plot = tmp_path / "scan.dat"
    code, stdout, _ = run_main(capsys, ["lifetime-scan", "--config", str(path),
                                        "--plot-data", str(plot)])
    assert code == EXIT_OK
    assert [n for n, _ in json.loads(stdout)["points"]] == [1, 5 ** 28, 5 ** 40]
    ln_n = [float(line.split()[0]) for line in plot.read_text().splitlines()[2:]]
    assert ln_n == pytest.approx([0.0, 28 * math.log(5), 40 * math.log(5)],
                                 rel=1e-11)


def test_main_plot_data(tmp_path, capsys):
    plot = tmp_path / "curve.dat"
    code, _, _ = run_main(capsys, ["bp-curve", "--trials", "2000",
                                   "--plot-data", str(plot)])
    assert code == EXIT_OK
    lines = plot.read_text().splitlines()
    assert lines[0] == "# bp-curve"
    assert lines[1].startswith("# p(")
    assert len(lines) == 2 + 20
    assert len(lines[2].split()) == 3


def test_main_json_output(tmp_path, capsys):
    out = tmp_path / "run.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "memory-sim",
                               "strategy": "unprotected", "t": 0.5,
                               "trials": 2000, "seed": 2, "format": "json"}))
    code, stdout, _ = run_main(capsys, ["memory-sim", "--config", str(cfg),
                                        "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["strategy"] == "unprotected"
    assert payload["config"]["seed"] == 2
    assert "timestamp" in payload
    summary = json.loads(stdout)
    assert summary["strategy"] == "unprotected"


def test_main_infeasible_schedule_exit(tmp_path, capsys):
    # delta too large relative to the schedule trips the infeasible exit
    cfg = {"subcommand": "memory-sim", "strategy": "clock", "t_prot": 0.5,
           "t_dec": 0.3, "delta": 0.06, "epsilon": 0.3, "K": 4096,
           "levels": 1, "trials": 10, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, stderr = run_main(capsys, ["memory-sim", "--config", str(path)])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in stderr
    # so does a clock sized from delta and epsilon that int64 cannot count:
    # the criterion-6 schedule at delta 1e-8 gives K = 3.4e41
    for sub in ("memory-sim", "lifetime-scan"):
        path.write_text(json.dumps({
            "subcommand": sub, "strategy": "clock", "p_star": 0.03,
            "levels": 2, "t_prot": 0.006, "t_dec": 0.0015, "delta": 1e-8,
            "epsilon": 0.3, "trials": 1}))
        code, stdout, stderr = run_main(capsys, [sub, "--config", str(path)])
        assert code == EXIT_INFEASIBLE and not stdout, (sub, stderr)
        assert "infeasible parameters:" in stderr and "int64" in stderr



@pytest.mark.parametrize("sub, levels, cells", [
    ("memory-sim", {"levels": 40}, 10 * 5 ** 40),
    ("lifetime-scan", {"levels_list": [1, 30]}, 10 * 5 ** 30)])
def test_main_register_past_int64_exit(tmp_path, capsys, sub, levels, cells):
    # trials x 5^levels register cells at or past 2^63, which int64 cell
    # indices cannot reach, exit 2 with the product named
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": sub, "strategy": "circuit",
                                "t_prot": 0.005, "trials": 10, **levels}))
    code, stdout, stderr = run_main(capsys, [sub, "--config", str(path)])
    assert code == EXIT_INFEASIBLE and not stdout, stderr
    assert stderr.startswith("infeasible parameters: ")
    assert f"= {cells} register cells" in stderr


def test_main_circuit_past_draw_budget_exit(tmp_path, capsys, monkeypatch):
    # memory_circuit at 1e12 trials: the fresh-block draw is predicted at
    # 4.31e11 bytes, past protocols.MAX_DRAW_BYTES, so the run exits 2
    # with the prediction named and samples nothing
    def no_draw(*args):
        raise AssertionError("the budget check must come before any draw")
    monkeypatch.setattr(protocols, "_hit_cells", no_draw)
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "memory_circuit.json").read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "trials": 10 ** 12}))
    code, stdout, stderr = run_main(capsys, ["memory-sim", "--config",
                                             str(path)])
    assert code == EXIT_INFEASIBLE and not stdout, stderr
    assert stderr.startswith("infeasible parameters: ")
    assert "4.31e+11 bytes" in stderr and "MAX_DRAW_BYTES" in stderr


def test_main_clock_verify_past_draw_budget_exit(tmp_path, capsys,
                                                 monkeypatch):
    # K = MAX_BITS at t_max 1: 2.31e18 expected flips, predicted at 9.22e19
    # bytes, past clock.MAX_DRAW_BYTES, so the run exits 2 with the
    # prediction named and the generator untouched
    untouched = []

    def sample(params, horizon, rng):
        state = rng.bit_generator.state
        try:
            return sample_trajectory(params, horizon, rng)
        finally:
            untouched.append(rng.bit_generator.state == state)
    monkeypatch.setattr(cli, "sample_trajectory", sample)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "clock-verify", "K": MAX_BITS,
                                "trials": 1, "seed": 3}))
    code, stdout, stderr = run_main(capsys, ["clock-verify", "--config",
                                             str(path)])
    assert code == EXIT_INFEASIBLE and not stdout, stderr
    assert stderr.startswith("infeasible parameters: ")
    assert "9.22e+19 bytes" in stderr and "MAX_DRAW_BYTES" in stderr
    assert untouched == [True]


def test_main_clock_verify_checkpointed_past_draw_budget_exit(
        tmp_path, capsys, monkeypatch):
    # K 1e8 at t_max 1 and checkpoint_spacing 1e-12: 1e12 checkpoints,
    # predicted at 5.6e13 bytes, past clock.MAX_DRAW_BYTES, so the run exits
    # 2 with the prediction named and draws nothing
    def no_draw(*args):
        raise AssertionError("the budget check must come before any draw")
    monkeypatch.setattr(clock, "sample_count_matrix", no_draw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "clock-verify",
                                "K": 100_000_000, "t_max": 1.0, "trials": 1,
                                "seed": 1, "checkpoint_spacing": 1e-12}))
    code, stdout, stderr = run_main(capsys, ["clock-verify", "--config",
                                             str(path)])
    assert code == EXIT_INFEASIBLE and not stdout, stderr
    assert stderr.startswith("infeasible parameters: ")
    assert "5.6e+13 bytes" in stderr and "MAX_DRAW_BYTES" in stderr


def test_main_clock_past_live_interval_budget_exit(tmp_path, capsys):
    # K just below MAX_BITS at the criterion-6 schedule: pass 1 predicts
    # more live intervals per path than clock.LIVE_INTERVALS and exits 2
    # before its first draw
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "subcommand": "memory-sim", "strategy": "clock", "p_star": 0.03,
        "levels": 2, "t_prot": 0.006, "t_dec": 0.0015, "delta": 1.4e-4,
        "epsilon": 0.01, "K": MAX_BITS - 1, "trials": 150, "seed": 5}))
    start = time.perf_counter()
    code, stdout, stderr = run_main(capsys, ["memory-sim", "--config",
                                             str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INFEASIBLE and not stdout, stderr
    assert "infeasible parameters:" in stderr and "live intervals" in stderr

# SHA-256 of each seeded, CSV-emitting bundled config's CSV at --trials 40,
# or at the trial count given here.  memory_circuit needs about 40 000
# trials for its CSV to hold any logical fault (the exact level-3 fault rate
# is 1.5e-4), without which a change of its code-noise stream goes unseen.
# Refactors that keep the RNG streams and the float arithmetic must leave
# these unchanged; a deliberate stream change re-pins them (and says so).
BUNDLED_CSV_TRIALS = 40
BUNDLED_CSV_TRIALS_OF = {"memory_circuit": 40_000}
BUNDLED_CSV_SHA256 = {
    "bp_curve":
        "d2ec3e182199ce46feb04102fc747ce0077c99d7e1dee08e8095c1954e14dc63",
    "clock_verify_small":
        "a9f068f273de30917d4a85d2ec594bf3fc8bbfaef184d46ccdd1e1d2467ace47",
    "lifetime_repetition":
        "737f4b9f535f9017b5df7760f817c7e8ae38543ed14d7b23092680117582ae4f",
    "lifetime_unprotected":
        "85fc2d654bec4e5b2411a4cf0534313e3af862dd860b77200a829b37947e78bc",
    "memory_circuit":
        "3cc55e33022d219f200b2857d989fb354891432d36837a20539d5c59d46d5c9f",
    "memory_clock_scaled":
        "1a9ae58b455398c5779119f8f5810487f64b307e1a4ee87c4c6b22ef20090615",
    "memory_repetition":
        "4c3b8775ed8ec334c72c65d1c7afe6d51f312046df2c9d8d83e5c61f2199ffe9",
    "memory_unprotected":
        "3c376b4d8cd2127a93b45d86788c6ea499b42038d74c794899ac03368bfac382",
}


def test_bundled_config_csv_digests(tmp_path, capsys):
    configs = Path(__file__).resolve().parents[1] / "configs"
    digests = {}
    for path in sorted(configs.glob("*.json")):
        data = json.loads(path.read_text())
        if "seed" not in data or parse_config(path.read_text()).format != "csv":
            continue
        out = tmp_path / f"{path.stem}.csv"
        code, _, stderr = run_main(capsys, [
            data["subcommand"], "--config", str(path),
            "--trials",
            str(BUNDLED_CSV_TRIALS_OF.get(path.stem, BUNDLED_CSV_TRIALS)),
            "--out", str(out)])
        assert code == EXIT_OK, (path.stem, stderr)
        digests[path.stem] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == BUNDLED_CSV_SHA256


# SHA-256 of the stdout summary of each bundled ledger config (with the
# exit code it ends on), and of the decode-table CSV.  Neither takes a seed,
# so these pin the float arithmetic of the analytic layer and the decoder
# table byte for byte; refactors must leave them unchanged.
LEDGER_STDOUT_SHA256 = {
    "ledger_reference": (
        EXIT_INFEASIBLE,
        "cc95700d73f6425f5035105ec4ea5483e1d913b98f3e5d8b87999cbd6c489bd5"),
    "ledger_search": (
        EXIT_OK,
        "8bab05da77438de2f85fec25f15b425e1cceb16064d91edb50dc2e10f32fdbf9"),
}
DECODE_TABLE_CSV_SHA256 = (
    "e99e5df43a6102f3949baf58bc9c5a7240bad207b113a5b60920eb7a471e8aa9")


def test_bundled_ledger_stdout_digests(capsys):
    configs = Path(__file__).resolve().parents[1] / "configs"
    digests = {}
    for name in LEDGER_STDOUT_SHA256:
        argv = ["ledger", "--config", str(configs / f"{name}.json")]
        if name == "ledger_search":
            argv.append("--search")
        code, stdout, _ = run_main(capsys, argv)
        digests[name] = (code, hashlib.sha256(stdout.encode()).hexdigest())
    assert digests == LEDGER_STDOUT_SHA256


def test_decode_table_csv_digest(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _, _ = run_main(capsys, ["decode-table", "--out", str(out)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DECODE_TABLE_CSV_SHA256
