"""CLI harness: schema validation, runners, emission, exit codes."""

import json
import math

import numpy as np
import pytest

from qmemsim.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_RUNTIME,
                         ConfigError, ExperimentConfig, main, parse_config,
                         render_rows_csv, result_payload, run_experiment,
                         write_result)
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
     "five-qubit decoder"),
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
    assert set(res.summary) == set(res.header) | {"seed"}


def test_memory_sim_repetition_row():
    res = run_experiment(parse({"subcommand": "memory-sim",
                                "strategy": "repetition", "t": 2.0,
                                "n_bits": 101, "trials": 50_000, "seed": 11}))
    (row,) = res.rows
    assert row[0] == "repetition" and row[1] == 101
    assert res.summary["p_X"] == pytest.approx(0.0854, abs=0.01)
    assert res.summary["fid"] == pytest.approx(1.0 - res.summary["p_X"])


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


def test_main_missing_config_file(capsys):
    code, _, stderr = run_main(capsys, ["bp-curve", "--config", "/no/such.json"])
    assert code == EXIT_CONFIG
    assert "cannot read" in stderr


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


def test_main_ledger_exit_codes(capsys):
    code, stdout, _ = run_main(capsys, ["ledger"])
    assert code == EXIT_INFEASIBLE
    assert json.loads(stdout)["verdict_holds"] is False
    code, stdout, _ = run_main(capsys, ["ledger", "--search"])
    assert code == EXIT_OK
    assert json.loads(stdout)["search"]["c_dec"] == 0.25


def test_main_runtime_failure_exit(tmp_path, capsys):
    code, _, stderr = run_main(
        capsys, ["decode-table", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == EXIT_RUNTIME
    assert "runtime failure" in stderr


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
