import argparse
import csv
import dataclasses
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ucran import PilotAssignment, build_base_graph, run_stage1
from ucran.harness import ALGORITHMS, CSV_HEADER, AuditError, run_trial
from ucran.cli import build_parser, main
from ucran.topology import FIELD_RULES, SimConfig, load_config_file

SMALL = ["--num-rrhs", "9", "--num-users", "6", "--cluster-size", "2",
         "--pilot-count", "3", "--reuse-cap", "2", "--area-side", "300",
         "--rate-req", "1.0", "--rrh-power-cap", "500", "--fronthaul-cap", "2"]


def test_trial_writes_csv_to_stdout(capsys):
    code = main(["trial", *SMALL, "--seed", "0"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 2
    assert rows[1][0] == "proposed"
    assert rows[1][3] == "0"


def test_trial_algorithm_flag(capsys):
    code = main(["trial", *SMALL, "--seed", "1", "--algorithm", "ortho"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[1][0] == "ortho"
    assert rows[1][9] == "ortho"


def test_trial_out_file(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(["trial", *SMALL, "--seed", "0", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rows = list(csv.reader(out.read_text().splitlines()))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 2


def test_campaign_out_file_with_aggregates(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["campaign", *SMALL, "--algorithms", "proposed,con",
                 "--seeds", "2", "--cluster-sizes", "2,3",
                 "--pilot-budgets", "3", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert tuple(rows[0]) == CSV_HEADER
    trial_rows = [r for r in rows[1:] if r[3] != "mean"]
    mean_rows = [r for r in rows[1:] if r[3] == "mean"]
    assert len(trial_rows) == 2 * 2 * 2
    assert len(mean_rows) == 4


def test_campaign_defaults_to_config_sweep_point(capsys):
    code = main(["campaign", *SMALL, "--seeds", "1"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    # header, the one trial row, the cell's mean row
    assert len(rows) == 3
    assert rows[1][1] == "2" and rows[1][2] == "3"
    assert rows[2][3] == "mean"


def test_campaign_stdout_matches_out_file(tmp_path):
    args = ["campaign", *SMALL, "--algorithms", "proposed,ortho", "--seeds", "2",
            "--cluster-sizes", "2,3"]
    out = tmp_path / "sweep.csv"
    to_file = subprocess.run([sys.executable, "-m", "ucran", *args, "--out", str(out)],
                             capture_output=True)
    to_stdout = subprocess.run([sys.executable, "-m", "ucran", *args],
                               capture_output=True)
    assert to_file.returncode == 0 and to_stdout.returncode == 0
    assert to_file.stdout == b""
    assert to_stdout.stdout == out.read_bytes()


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "# small scenario\n"
        "num_rrhs = 9\nnum_users = 6\ncluster_size = 2\npilot_count = 3\n"
        "reuse_cap = 2\narea_side = 300\nrate_req = 1.0\n"
        "rrh_power_cap = 500\nfronthaul_cap = 2\nmaster_seed = 11\n")
    code = main(["trial", "--config", str(cfg), "--rate-req", "0.5"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    # seed comes from the file, the rate requirement from the flag
    assert rows[1][3] == "11"
    assert float(rows[1][6]) >= 0.5


@pytest.mark.parametrize("flag,value,shown", [
    ("--algorithms", ",", "[]"),
    ("--algorithms", "proposed,con,proposed", "['proposed', 'con', 'proposed']"),
    ("--cluster-sizes", ",", "[]"),
    ("--cluster-sizes", "2,3,2", "[2, 3, 2]"),
    ("--pilot-budgets", ",", "[]"),
    ("--pilot-budgets", "4,4", "[4, 4]"),
])
def test_empty_or_repeated_sweep_list_fails(flag, value, shown, capsys):
    code = main(["campaign", *SMALL, "--seeds", "1", flag, value])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    name = flag[2:].replace("-", "_")
    assert f"error: {name} must be non-empty without repeats, got {shown}" in captured.err


@pytest.mark.parametrize("command,message", [
    (["campaign", "--cluster-sizes", "a,b"],
     "argument --cluster-sizes: expected comma-separated integers, got 'a,b'"),
    (["campaign", "--pilot-budgets", "4,1.5"],
     "argument --pilot-budgets: expected comma-separated integers, got '4,1.5'"),
    (["trial", "--num-rrhs", "abc"], "argument --num-rrhs: invalid int value: 'abc'"),
    (["trial", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
    (["trial", "--algorithm", "nope"], "argument --algorithm: invalid choice: 'nope'"),
    (["trial", "--cluster-by-gain"], "unrecognized arguments: --cluster-by-gain"),
])
def test_flag_values_argparse_rejects_exit_2_with_usage(command, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(command)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ucran ")
    assert f"error: {message}" in captured.err


def test_unknown_campaign_algorithm_fails(capsys):
    code = main(["campaign", *SMALL, "--algorithms", "proposed,magic",
                 "--seeds", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "magic" in err


def test_bad_config_file_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_parameter = 3\n")
    code = main(["trial", "--config", str(cfg)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unparsable_config_value_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# scenario\nmaster_seed = 1.5\n")
    code = main(["trial", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {cfg}:2: config key 'master_seed': cannot parse int from '1.5'" in err


def test_repeated_config_key_names_the_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("num_users = 10\nnum_users = 12\n")
    code = main(["trial", "--config", str(cfg)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: duplicate config key 'num_users'\n"


def test_rate_req_overflow_fails_cleanly(capsys):
    code = main(["trial", *SMALL, "--rate-req", "2000"])
    assert code == 1
    assert "rate_req" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--noise-power", "nan"), ("--pilot-power", "inf"),
                                        ("--rrh-power-cap", "nan"), ("--area-side", "inf")])
def test_non_finite_values_fail_cleanly(flag, value, capsys):
    code = main(["trial", *SMALL, flag, value])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag[2:].replace('-', '_')} must be finite" in captured.err


def test_underflowing_gains_fail_cleanly(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["trial", *SMALL, "--pathloss-intercept", "4000"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.parametrize("flags,message", [
    pytest.param(["--pathloss-intercept", "-4000"], "large-scale gains overflow",
                 id="gain-overflow"),
    # one link of gain 3e158 and pilot power 1e300: the received pilot power
    # overflows, and so does sqrt(p) * gain
    pytest.param(["--num-rrhs", "1", "--num-users", "1", "--cluster-size", "1",
                  "--pilot-power", "1e300", "--noise-power", "1", "--area-side", "1",
                  "--pathloss-exponent", "0", "--pathloss-intercept", "-1585",
                  "--shadowing-stddev", "0", "--rate-req", "0"],
                 "estimates are not finite", id="estimate-overflow"),
    # pilot power 3e299: sqrt(p) * gain stays finite but p * gain overflows,
    # which would round the MMSE coefficient and the error variance to zero
    pytest.param(["--num-rrhs", "1", "--num-users", "1", "--cluster-size", "1",
                  "--pilot-power", "3e299", "--noise-power", "1", "--area-side", "1",
                  "--pathloss-exponent", "0", "--pathloss-intercept", "-1585",
                  "--shadowing-stddev", "0", "--rate-req", "0"],
                 "received pilot power overflows", id="received-overflow"),
    # an area whose squared diagonal overflows a float fails at the config,
    # before any distance is squared, whatever the algorithm
    *[pytest.param(["--area-side", "1e300", "--algorithm", algorithm],
                   "error: area_side too large", id=f"distance-overflow-{algorithm}")
      for algorithm in ALGORITHMS],
])
def test_overflowing_gains_fail_cleanly(flags, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["trial", "--seed", "0", *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_power_underflow_fails_cleanly(capsys):
    # the SINR target times the noise power underflows to zero, so the
    # power iterates could never carry the rate requirement
    code = main(["trial", "--seed", "0", "--rate-req", "1e-200", "--noise-power", "1e-200"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: power control underflow" in captured.err


@pytest.mark.parametrize("seed,stddev,message", [
    pytest.param("0", "1000", "error variances are not finite", id="0-1000"),
    # gains from 1.5e-103 to 2.0e93: the estimates are finite, but user 3's
    # covariance on its serving antennas is numerically singular
    pytest.param("3", "300", "beam solve failed for user 3", id="3-300"),
])
def test_extreme_shadowing_fails_cleanly(seed, stddev, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["trial", "--seed", seed, "--shadowing-stddev", stddev])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", [["trial", "--seed", "1"], ["campaign", "--seeds", "1"]],
                         ids=["trial", "campaign"])
def test_audit_failure_fails_cleanly(command, monkeypatch, capsys):
    monkeypatch.setattr("ucran.harness.audit_solution",
                        lambda solution, config, holders: ["per-RRH power cap exceeded: max 9"])
    code = main([command[0], *SMALL, *command[1:]])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: constraint audit failed (seed 1, proposed)")
    assert "per-RRH power cap exceeded: max 9" in captured.err


def _clashing_stage1(instance, pilot_budget, reuse_cap, **options):
    """The proposed stage 1, then the second user of the first co-clustered
    pair of holders moved onto the first one's pilot."""
    s1 = run_stage1(instance, pilot_budget, reuse_cap, **options)
    base = build_base_graph(instance.clusters).restrict(s1.admitted)
    a, b = np.argwhere(np.triu(base.adjacency))[0]
    pilots = s1.assignment.pilots.copy()
    pilots[b] = pilots[a]
    return dataclasses.replace(s1, assignment=PilotAssignment(pilots))


def test_a_broken_pilot_assignment_fails_cleanly(monkeypatch, capsys):
    monkeypatch.setattr("ucran.harness.run_stage1", _clashing_stage1)
    message = r"pilot check failed \(seed 0, proposed\): adjacent users \d+ and \d+ share pilot"
    with pytest.raises(AuditError, match=message):
        run_trial(SimConfig(), 0, "proposed")
    assert main(["trial", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: pilot check failed (seed 0, proposed): adjacent users ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("command,name", [
    (["trial", "--seed", "-1"], "seed"),
    # the config rejects it as it is built, before any trial
    (["campaign", "--master-seed", "-1", "--seeds", "1"], "master_seed"),
], ids=["trial", "campaign"])
def test_negative_seed_fails_cleanly(command, name, capsys):
    code = main([command[0], *SMALL, *command[1:]])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must be an integer >= 0, got -1\n"


def test_every_config_field_has_one_rule_one_flag_and_one_config_key(tmp_path):
    # the rule table: exactly SimConfig's fields, each with its annotated type
    fields = {field.name: field.type for field in dataclasses.fields(SimConfig)}
    assert {name: kind.__name__ for name, (kind, _) in FIELD_RULES.items()} == fields
    # the scenario flags of both subcommands
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    assert sorted(subcommands) == ["campaign", "trial"]
    for parser in subcommands.values():
        group = next(g for g in parser._action_groups if g.title == "scenario parameters")
        flags = {action.dest: action.option_strings for action in group._group_actions}
        assert flags.pop("config") == ["--config"]
        assert sorted(flags) == sorted(fields)
        for name, option_strings in flags.items():
            assert option_strings[0] == "--" + name.replace("_", "-")
    # the config file keys: a file naming every field once gives the defaults back
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{name} = {value}\n"
                            for name, value in vars(SimConfig()).items()))
    values = load_config_file(path)
    assert sorted(values) == sorted(fields)
    assert SimConfig(**values) == SimConfig()


def test_unwritable_out_fails(tmp_path, capsys):
    out = tmp_path / "nope" / "x.csv"
    code = main(["campaign", *SMALL, "--seeds", "1", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ucran", "trial", *SMALL, "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(CSV_HEADER[:2]))
