"""End-to-end tests for the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hfcopula import cli, experiments
from hfcopula.cli import main
from hfcopula.estimators import SampledPath, boundary_aware_interval


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def test_console_script_help():
    out = subprocess.run([sys.executable, "-m", "hfcopula", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "simulate" in out.stdout


# every command on small inputs, in a fresh process
_NO_SCIPY_SCRIPT = """
import sys
from hfcopula.cli import main
out = sys.argv[1]
assert main(["--command", "contour", "--n-list", "100", "--uv-grid", "11",
             "--replications", "1", "--out", out + "/ct"]) == 0
assert main(["--command", "qq", "--n", "100", "--replications", "2",
             "--out", out + "/qq"]) == 0
assert main(["--command", "rho", "--n-list", "100", "--replications", "1",
             "--uv-grid", "11", "--out", out + "/rho"]) == 0
assert main(["--command", "simulate", "--n", "200", "--out", out + "/sim"]) == 0
assert main(["--command", "estimate", "--input", out + "/sim/scenario.csv",
             "--s", "0.3", "--t", "0.7", "--u", "0.7", "--v", "0.3",
             "--out", out + "/est"]) == 0
assert "scipy" not in sys.modules, "scipy was imported"
"""


def test_commands_run_without_scipy(tmp_path):
    """scipy is a test and benchmark oracle only: no command imports it."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr


_NO_POOL_SCRIPT = """
import sys
import hfcopula.cli
assert "concurrent.futures.process" not in sys.modules, "the process pool was imported"
assert "multiprocessing" not in sys.modules, "multiprocessing was imported"
"""


def test_cli_import_leaves_process_pool_unloaded():
    """Only a run with more than one worker pays for the process pool's import."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _NO_POOL_SCRIPT],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr


def test_simulate_row_count(tmp_path):
    out = tmp_path / "sim"
    assert main(["--command", "simulate", "--n", "50", "--out", str(out)]) == 0
    rows = _read_csv(out / "scenario.csv")
    assert len(rows) == 51
    assert set(rows[0]) == {"time", "X", "true_T", "true_Q"}
    meta = json.loads((out / "simulate_meta.json").read_text(encoding="utf-8"))
    assert meta["n"] == 50 and meta["seed"] == 0
    assert meta["vol"]["model"] == "cir"


def test_simulate_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["--command", "simulate", "--n", "80", "--seed", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "scenario.csv").read_bytes() == (b / "scenario.csv").read_bytes()
    assert (a / "simulate_meta.json").read_bytes() == (b / "simulate_meta.json").read_bytes()


def test_simulate_feller_violation(tmp_path, capsys):
    out = tmp_path / "sim"
    # 2 kappa theta = nu^2 exactly: strict inequality fails
    code = main(["--command", "simulate", "--kappa", "0.5", "--theta", "1.0",
                 "--nu", "1.0", "--out", str(out)])
    assert code == 2
    assert "Feller condition" in capsys.readouterr().err
    assert not out.exists()  # no partial output


def test_estimate_round_trip(tmp_path):
    sim = tmp_path / "sim"
    est = tmp_path / "est"
    main(["--command", "simulate", "--n", "400", "--seed", "6",
          "--constant-vol", "1.0", "--out", str(sim)])
    code = main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--s", "0.3", "--t", "0.7", "--u", "0.7", "--v", "0.3",
                 "--out", str(est)])
    assert code == 0
    row = _read_csv(est / "estimates.csv")[0]

    # the CLI must reproduce the library estimate exactly
    sim_rows = _read_csv(sim / "scenario.csv")
    values = np.array([float(r["X"]) for r in sim_rows])
    path = SampledPath(values=values, n=400, horizon=1.0)
    ref = boundary_aware_interval(path, 0.3, 0.7, 0.7, 0.3, 0.95)
    for key in ("c_hat", "v_hat", "ci_lo", "ci_hi", "rv_s", "rv_t"):
        assert [float(row[key])] == ref[key].tolist()


def test_estimate_boundary_query_zero_width(tmp_path):
    sim = tmp_path / "sim"
    est = tmp_path / "est"
    main(["--command", "simulate", "--n", "100", "--out", str(sim)])
    code = main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--s", "0.3", "--t", "0.7", "--u", "0", "--v", "0.4",
                 "--out", str(est)])
    assert code == 0
    row = _read_csv(est / "estimates.csv")[0]
    assert float(row["c_hat"]) == 0.0
    assert float(row["ci_lo"]) == float(row["ci_hi"]) == 0.0


def test_estimate_queries_file(tmp_path):
    sim = tmp_path / "sim"
    est = tmp_path / "est"
    main(["--command", "simulate", "--n", "200", "--out", str(sim)])
    qfile = tmp_path / "q.csv"
    qfile.write_text("s,t,u,v,level\n0.2,0.8,0.5,0.5,0.9\n0.3,0.7,0.7,0.3,0.99\n",
                     encoding="utf-8")
    code = main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--queries", str(qfile), "--out", str(est)])
    assert code == 0
    rows = _read_csv(est / "estimates.csv")
    assert len(rows) == 2
    assert float(rows[0]["level"]) == 0.9
    assert float(rows[1]["level"]) == 0.99


def test_estimate_queries_file_error_split(tmp_path, capsys):
    """Unparseable query rows are data errors; parseable but out-of-range
    values are validation errors."""
    sim = tmp_path / "sim"
    main(["--command", "simulate", "--n", "100", "--out", str(sim)])
    bad = tmp_path / "qbad.csv"
    bad.write_text("s,t,u,v\n0.3,0.7,half,0.5\n", encoding="utf-8")
    assert main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--queries", str(bad), "--out", str(tmp_path / "o1")]) == 4
    rng = tmp_path / "qrange.csv"
    rng.write_text("s,t,u,v\n0.3,0.7,1.5,0.5\n", encoding="utf-8")
    assert main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--queries", str(rng), "--out", str(tmp_path / "o2")]) == 2
    capsys.readouterr()
    assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()


def test_estimate_non_uniform_grid(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,X\n0.0,0.0\n0.5,0.1\n0.5,0.2\n1.0,0.3\n", encoding="utf-8")
    code = main(["--command", "estimate", "--input", str(bad),
                 "--s", "0.3", "--t", "0.7", "--u", "0.5", "--v", "0.5",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "non-uniform grid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    ("time,X\n0.5,0\n1.0,1\n1.5,2\n", "grid must start at time 0, got 0.5"),
    ("time,X\n0.0,0\n0.3,1\n0.6,2\n", "grid spacing 0.3 is not 1/n for integer n"),
])
def test_path_grid_errors_print_plain_numbers(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    code = main(["--command", "estimate", "--input", str(bad),
                 "--s", "0.3", "--t", "0.7", "--u", "0.5", "--v", "0.5",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "np." not in err


def test_estimate_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,X\n0.0,zero\n0.5,0.1\n1.0,0.3\n", encoding="utf-8")
    code = main(["--command", "estimate", "--input", str(bad),
                 "--s", "0.3", "--t", "0.7", "--u", "0.5", "--v", "0.5",
                 "--out", str(tmp_path / "o")])
    assert code == 4
    assert "malformed" in capsys.readouterr().err


_PATH_ROWS = [("0.0", "0.0"), ("0.25", "0.1"), ("0.5", "-0.05"), ("0.75", "0.2"), ("1.0", "0.15")]


def _path_text(rows=_PATH_ROWS, header="time,X", sep="\n", end="\n"):
    return sep.join([header, *(",".join(r) for r in rows)]) + end


# path files by name: their text, the exit code of estimate on them, and a
# fragment of the error for those that fail
_PATH_CORPUS = {
    "plain": (_path_text(), 0, None),
    "no_trailing_newline": (_path_text(end=""), 0, None),
    "crlf": (_path_text(sep="\r\n", end="\r\n"), 0, None),
    "exponents": (_path_text([("0.000e+00", "0.000E+00"), ("2.500e-01", "1.000E-01"),
                              ("5.000E-01", "-5.000e-02"), ("7.5e-1", "2E-1"),
                              ("1.0E0", "1.5e-01")]), 0, None),
    "spaces": (_path_text([(" 0.0", "0.0 "), (" 0.25 ", "\t0.1"), ("0.5  ", " -0.05"),
                           ("0.75", "0.2"), ("1.0", " 0.15 ")], header=" time , X "), 0, None),
    "extra_column": (_path_text([(*r, note) for r, note in
                                 zip(_PATH_ROWS, ["a", "", '"b,c"', "7", "x y"])],
                                header="time,X,note"), 0, None),
    "reordered": (_path_text([(x, t) for t, x in _PATH_ROWS], header="X,time"), 0, None),
    "quoted_number": (_path_text([('"0.0"', "0.0"), ("0.25", '"0.1"'), *_PATH_ROWS[2:]]),
                      0, None),
    "blank_line_mid_file": (_path_text([*_PATH_ROWS[:2], ("",), *_PATH_ROWS[2:]]), 4,
                            "malformed"),
    "trailing_blank_line": (_path_text() + "\n", 4, "malformed"),
    "only_a_blank_line": ("time,X\n\n", 4, "malformed"),
    "short_row": (_path_text([*_PATH_ROWS[:2], ("0.5",), *_PATH_ROWS[3:]]), 4, "malformed"),
    "comment_row": (_path_text([*_PATH_ROWS[:2], ("#x",), *_PATH_ROWS[2:]]), 4, "malformed"),
    "header_only": ("time,X\n", 4, "need at least 2 observations"),
    "bom": ("\ufeff" + _path_text(), 4, "header must contain columns time,X"),
    # Python's float() reads digit-group underscores; the numpy parser does not
    "underscore_digits": (_path_text([*_PATH_ROWS[:4], ("1_0.0", "0.15")]), 4, "malformed"),
}


@pytest.mark.parametrize("case", sorted(_PATH_CORPUS))
def test_path_file_corpus(tmp_path, capsys, case):
    text, code, fragment = _PATH_CORPUS[case]
    path = tmp_path / "path.csv"
    path.write_bytes(text.encode("utf-8"))
    out = tmp_path / "o"
    assert main(["--command", "estimate", "--input", str(path), "--s", "0.3", "--t", "0.7",
                 "--u", "0.5", "--v", "0.5", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert fragment in err
        assert not out.exists()
        return
    # every cell parses to the double float() gives it
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    header = [h.strip() for h in rows[0]]
    cols = cli._read_columns(str(path), ("time", "X"))
    for name in ("time", "X"):
        expected = [float(r[header.index(name)]) for r in rows[1:]]
        assert np.array_equal(cols[name], expected)


def test_query_file_with_header_only_exits_4(tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["--command", "simulate", "--n", "100", "--out", str(sim)])
    qfile = tmp_path / "q.csv"
    qfile.write_text("s,t,u,v,level\n", encoding="utf-8")
    assert main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--queries", str(qfile), "--out", str(tmp_path / "o")]) == 4
    assert "no query rows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_estimate_missing_input_file(tmp_path):
    code = main(["--command", "estimate", "--input", str(tmp_path / "nope.csv"),
                 "--s", "0.3", "--t", "0.7", "--u", "0.5", "--v", "0.5",
                 "--out", str(tmp_path / "o")])
    assert code == 4
    assert not (tmp_path / "o").exists()


def test_estimate_out_of_range_query(tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["--command", "simulate", "--n", "100", "--out", str(sim)])
    code = main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--s", "0.3", "--t", "1.5", "--u", "0.5", "--v", "0.5",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "horizon" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_estimate_near_diagonal_failure(tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["--command", "simulate", "--n", "100", "--out", str(sim)])
    # distinct times landing in the same grid cell give equal realized variations
    code = main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--s", "0.7", "--t", "0.701", "--u", "0.5", "--v", "0.5",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "coincide" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_estimate_flat_path_is_near_diagonal(tmp_path, capsys):
    """A flat path's realized variations are (0, 0): they coincide (exit 3),
    although the smaller one is also zero."""
    flat = tmp_path / "flat.csv"
    flat.write_text("time,X\n0.0,0.0\n0.25,0.0\n0.5,0.0\n0.75,0.0\n1.0,0.0\n",
                    encoding="utf-8")
    code = main(["--command", "estimate", "--input", str(flat),
                 "--s", "0.25", "--t", "0.75", "--u", "0.5", "--v", "0.5",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "coincide" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_estimate_zero_realized_variation_exits_2(tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["--command", "simulate", "--n", "100", "--out", str(sim)])
    # s below the first grid time: [X]_s = 0 < [X]_t
    code = main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--s", "0.001", "--t", "0.7", "--u", "0.5", "--v", "0.5",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "s > 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# row 1 is interior and fine; the two failing rows in either order
_COINCIDE_ROW = "0.7,0.701,0.5,0.5\n"   # both times in one grid cell: exit 3
_ZERO_S_ROW = "0.001,0.7,0.5,0.5\n"     # [X]_s = 0 < [X]_t: exit 2


@pytest.mark.parametrize("rows, code, message", [
    (_COINCIDE_ROW + _ZERO_S_ROW, 3, "coincide"),
    (_ZERO_S_ROW + _COINCIDE_ROW, 2, "s > 0"),
])
def test_estimate_first_failing_row_decides_exit(tmp_path, capsys, rows, code, message):
    sim = tmp_path / "sim"
    main(["--command", "simulate", "--n", "100", "--out", str(sim)])
    queries = tmp_path / "q.csv"
    queries.write_text("s,t,u,v\n0.3,0.6,0.5,0.5\n" + rows, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--queries", str(queries), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    ("0.3,0.7,0.5,0.5,1.5\n0.3,0.7,2.0,0.5,0.9\n",
     "query row 1: level must be a finite real in (0, 1), got 1.5"),
    ("0.3,0.7,2.0,0.5,1.5\n0.3,0.7,0.5,0.5,1.5\n",
     "query row 1: u must be a finite real in [0, 1], got 2.0"),
    ("0.3,0.7,0.5,0.5,0.9\n0.3,1.5,0.5,0.5,0.9\n0.3,0.7,nan,0.5,0.9\n",
     "query row 2: t must be a finite real in (0, horizon] = (0, 1.0], got 1.5"),
])
def test_estimate_first_bad_query_row_decides_message(tmp_path, capsys, rows, message):
    """One check per row over all of its fields: the first bad row in file
    order, and its first bad field, is the one reported."""
    sim = tmp_path / "sim"
    main(["--command", "simulate", "--n", "100", "--out", str(sim)])
    queries = tmp_path / "q.csv"
    queries.write_text("s,t,u,v,level\n" + rows, encoding="utf-8")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                 "--queries", str(queries), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "simulate", "n": 30, "seed": 9}),
                   encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--n", "60", "--out", str(out)]) == 0
    meta = json.loads((out / "simulate_meta.json").read_text(encoding="utf-8"))
    assert meta["n"] == 60  # flag wins
    assert meta["seed"] == 9  # config file wins over default


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"command": "simulate", "bogus": 1}', encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_every_flag_key_accepted_in_config_file(tmp_path):
    flags = [opt for action in cli._build_parser()._actions
             for opt in action.option_strings if opt.startswith("--")]
    keys = {f[2:].replace("-", "_") for f in flags} - {"help", "version", "config", "verbose"}
    assert keys == cli._CONFIG_KEYS
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict.fromkeys(sorted(keys))), encoding="utf-8")
    assert cli._load_config_file(cfg) == dict.fromkeys(keys)


def test_missing_command(capsys):
    assert main(["--seed", "3"]) == 2
    assert "no command" in capsys.readouterr().err


def test_qq_command_files(tmp_path):
    out = tmp_path / "qq"
    code = main(["--command", "qq", "--n", "200", "--replications", "3",
                 "--constant-vol", "1.0", "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "qq_meta.json", "qq_replications.csv", "qq_statistics.csv"]
    meta = json.loads((out / "qq_meta.json").read_text(encoding="utf-8"))
    assert meta["spec"]["replications"] == 3
    assert meta["spec"]["seed"] == 0


def test_contour_command_grid_size(tmp_path):
    out = tmp_path / "ct"
    code = main(["--command", "contour", "--n-list", "100", "--uv-grid", "7",
                 "--replications", "1", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "contour_n100.csv")
    assert len(rows) == 49


def test_rho_command_fan_out(tmp_path):
    out = tmp_path / "rho"
    code = main(["--command", "rho", "--n-list", "100,400,1600",
                 "--replications", "2", "--uv-grid", "5",
                 "--constant-vol", "1.0", "--out", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["rho_kde_n100.csv", "rho_kde_n1600.csv", "rho_kde_n400.csv",
                     "rho_meta.json", "rho_samples_n100.csv",
                     "rho_samples_n1600.csv", "rho_samples_n400.csv"]


def test_experiment_rerun_byte_identical(tmp_path):
    args = ["--command", "qq", "--n", "250", "--replications", "4",
            "--constant-vol", "1.0", "--seed", "8"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("qq_meta.json", "qq_replications.csv", "qq_statistics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_workers_flag_does_not_change_bytes(tmp_path):
    base = ["--command", "qq", "--n", "250", "--replications", "4",
            "--constant-vol", "1.0"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert main(base + ["--workers", "2", "--out", str(b)]) == 0
    for name in ("qq_meta.json", "qq_statistics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("base", [
    ["--command", "rho", "--n-list", "100,400", "--replications", "4", "--uv-grid", "11",
     "--constant-vol", "1.0", "--seed", "3"],
    ["--command", "contour", "--n-list", "100,400", "--uv-grid", "11", "--replications", "4"],
], ids=["rho", "contour"])
def test_experiment_workers_flag_does_not_change_bytes(tmp_path, base):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert main(base + ["--workers", "2", "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_qq_overflowing_statistic_is_degenerate(tmp_path, recwarn):
    """At k = floor(n*t) - floor(n*s) = 1, replication 533 has v_hat = 5.2e-316."""
    out = tmp_path / "q"
    assert main(["--command", "qq", "--n", "100", "--s", "0.3", "--t", "0.31",
                 "--replications", "5", "--seed", "530", "--constant-vol", "1.0",
                 "--out", str(out)]) == 0
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    meta = json.loads((out / "qq_meta.json").read_text())
    assert math.isfinite(meta["mean_statistic"]) and math.isfinite(meta["variance_statistic"])
    assert meta["kept"] == 3 and meta["dropped"] == {"near_diagonal": 0, "degenerate": 2}
    stats = [row["statistic"] for row in _read_csv(out / "qq_replications.csv")]
    assert stats[2] == stats[3] == "nan"


@pytest.mark.parametrize("command", ["simulate", "qq"])
def test_workers_below_one_exits_2(tmp_path, command):
    out = tmp_path / "o"
    assert main(["--command", command, "--workers", "0", "--out", str(out)]) == 2
    assert not out.exists()


# argv of each Monte Carlo command with two replications, small enough to run
_TWO_REPLICATIONS = {
    "qq": ["--command", "qq", "--n", "100", "--replications", "2", "--constant-vol", "1.0"],
    "qq-workers": ["--command", "qq", "--n", "100", "--replications", "2",
                   "--constant-vol", "1.0", "--workers", "2"],
    "rho": ["--command", "rho", "--n-list", "100", "--replications", "2", "--uv-grid", "5",
            "--constant-vol", "1.0"],
    "contour": ["--command", "contour", "--n-list", "100", "--replications", "2",
                "--uv-grid", "5", "--constant-vol", "1.0"],
}


@pytest.mark.parametrize("case", sorted(_TWO_REPLICATIONS))
def test_seed_past_last_replication_exits_2_before_simulating(tmp_path, monkeypatch,
                                                              capsys, case):
    """Replication i runs at seed + i, so the whole range is checked up front."""
    def no_simulation(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(experiments, "simulate_scenario", no_simulation)
    out = tmp_path / "o"
    assert main([*_TWO_REPLICATIONS[case], "--seed", str(2 ** 64 - 1), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed + replications - 1 must be below 2**64" in err
    assert f"seed={2 ** 64 - 1}" in err and "replications=2" in err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(_TWO_REPLICATIONS))
def test_largest_seed_for_replications_is_accepted(tmp_path, case):
    out = tmp_path / "o"
    assert main([*_TWO_REPLICATIONS[case], "--seed", str(2 ** 64 - 2), "--out", str(out)]) == 0
    meta = json.loads((out / f"{case.split('-')[0]}_meta.json").read_text(encoding="utf-8"))
    assert meta["spec"]["seed"] == 2 ** 64 - 2


def test_bad_spec_value_exits_2(tmp_path, capsys):
    code = main(["--command", "qq", "--u", "0.0", "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()


# s and t whose grid indices floor(n*s), floor(n*t) leave no gradient: s in
# the first cell (qq), and s, t in the same cell (contour)
_BAD_LAYOUTS = {
    "qq": ["--command", "qq", "--n", "100", "--s", "0.005", "--replications", "2",
           "--constant-vol", "1"],
    "contour": ["--command", "contour", "--n", "10", "--s", "0.31", "--t", "0.35",
                "--uv-grid", "5", "--constant-vol", "1"],
    # n * horizon is not a whole number of intervals (for the last n of a list)
    "rho_intervals": ["--command", "rho", "--n-list", "100,5", "--horizon", "0.5",
                      "--replications", "3", "--uv-grid", "5", "--constant-vol", "1",
                      "--tau", "0.1", "--st-step", "0.1"],
    "contour_intervals": ["--command", "contour", "--n-list", "100,5", "--horizon", "0.5",
                          "--s", "0.2", "--t", "0.4"],
    "qq_intervals": ["--command", "qq", "--n", "5", "--horizon", "0.9"],
}


@pytest.mark.parametrize("case", sorted(_BAD_LAYOUTS))
def test_clock_layout_exits_2_before_simulating(tmp_path, monkeypatch, capsys, case):
    def no_simulation(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(experiments, "simulate_scenario", no_simulation)
    out = tmp_path / "o"
    assert main([*_BAD_LAYOUTS[case], "--out", str(out)]) == 2
    message = ("n*horizon must be a positive integer number of intervals"
               if case.endswith("_intervals") else "need 1 <= floor(n*s) < floor(n*t)")
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_first_grid_time_is_accepted_as_s(tmp_path):
    out = tmp_path / "o"
    assert main(["--command", "qq", "--n", "100", "--s", "0.01", "--t", "0.02",
                 "--replications", "2", "--constant-vol", "1", "--out", str(out)]) == 0
    meta = json.loads((out / "qq_meta.json").read_text(encoding="utf-8"))
    assert meta["kept"] == 2


# a config value of the wrong type for its flag: booleans where numbers go,
# numbers or booleans where paths go, and null anywhere
WRONG_TYPES = [
    ("qq", "replications", True), ("qq", "n", True), ("qq", "horizon", True),
    ("qq", "constant_vol", True), ("qq", "t", True), ("contour", "uv_grid", True),
    ("rho", "uv_grid", True), ("simulate", "n", True), ("simulate", "horizon", True),
    ("simulate", "out", 5), ("qq", "out", 5), ("qq", "out", True),
    ("estimate", "input", 5), ("estimate", "queries", 7), ("estimate", "level", "x"),
    ("contour", "n_list", 5), ("qq", "n", None),
]


@pytest.mark.parametrize("command, key, value", WRONG_TYPES)
def test_wrong_type_config_value_exits_2(tmp_path, monkeypatch, capsys, command, key, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "path.csv").write_text("time,X\n0.0,0.0\n0.5,0.1\n1.0,0.3\n", encoding="utf-8")
    if command == "estimate":
        small = {"input": "path.csv", "s": 0.3, "t": 0.7, "u": 0.5, "v": 0.5}
    else:
        small = {"n": 200, "replications": 2, "uv_grid": 5}
    cfg = {"command": command, "out": "o", **small, key: value}
    (tmp_path / "c.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--config", "c.json"]) == 2
    assert repr(value) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "path.csv"]


def test_boolean_query_value_exits_2(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["--command", "simulate", "--n", "100", "--constant-vol", "1.0",
                 "--out", str(sim)]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "estimate", "input": str(sim / "scenario.csv"),
                               "s": 0.3, "t": 0.7, "u": 0.5, "v": True}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "True" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def command_args(tmp_path):
    """Small argv for each command; estimate reads a simulated path and a query file."""
    sim = tmp_path / "sim"
    assert main(["--command", "simulate", "--n", "100", "--constant-vol", "1.0",
                 "--out", str(sim)]) == 0
    queries = tmp_path / "q.csv"
    queries.write_text("s,t,u,v\n0.3,0.7,0.5,0.5\n0.2,0.8,0.0,0.4\n", encoding="utf-8")
    return {
        "simulate": ["--n", "50"],
        "estimate": ["--input", str(sim / "scenario.csv"), "--queries", str(queries)],
        "contour": ["--n", "100", "--uv-grid", "5", "--replications", "2"],
        "qq": ["--n", "200", "--replications", "3", "--constant-vol", "1.0"],
        "rho": ["--n-list", "100,400", "--replications", "2", "--uv-grid", "5"],
    }


@pytest.mark.parametrize("command", ["simulate", "estimate", "contour", "qq", "rho"])
def test_every_command_writes_its_listed_files(tmp_path, command_args, command):
    args = ["--command", command, *command_args[command]]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    meta_name = f"{command}_meta.json"
    meta = json.loads((a / meta_name).read_text(encoding="utf-8"))
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted([*meta["files"], meta_name])
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
