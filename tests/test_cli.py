import csv
import subprocess
import sys

from ucran import CSV_HEADER
from ucran.cli import main

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
    rows = list(csv.reader(out.open()))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 2


def test_campaign_out_file_with_aggregates(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["campaign", *SMALL, "--algorithms", "proposed,con",
                 "--seeds", "2", "--cluster-sizes", "2,3",
                 "--pilot-budgets", "3", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.open()))
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
