import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skewca
from conftest import COUNTS_UNDERFLOWING, DATA, abc_csv
from skewca import AnalysisConfig, cli, divergence, run_analyze, run_matched
from skewca.cli import main
from skewca.decomposition import default_lambda_grid
from skewca.errors import InputError

COFFEE_CSV = """,HP,TC,SA,NE,BR
HP,93,17,44,7,10
TC,9,46,11,0,9
SA,17,11,155,9,12
NE,6,4,9,15,2
BR,10,4,12,2,27
"""


@pytest.fixture()
def coffee_csv(tmp_path):
    path = tmp_path / "coffee.csv"
    path.write_text(COFFEE_CSV, encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json(capsys, coffee_csv):
    code, out, err = run_cli(capsys, "analyze", str(coffee_csv), "--lambda", "pearson")
    assert code == 0, err
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["command"] == "analyze"
    assert report["config"]["lambda"] == 1.0
    assert all(not r["contains_origin"] for r in report["regions"])
    # lam = -0 is the KL case: analyze and matched write it as 0.0, as everything else
    for argv in (("analyze", str(coffee_csv)), ("matched", str(coffee_csv), str(coffee_csv))):
        code, out, err = run_cli(capsys, *argv, "--lambda=-0")
        assert code == 0, err
        assert re.search(r"-0\.0\b", out) is None and '"lambda": 0.0' in out


def test_analyze_named_lambdas_match_numeric(capsys, coffee_csv):
    _, out_named, _ = run_cli(capsys, "analyze", str(coffee_csv), "--lambda", "cressie-read")
    _, out_num, _ = run_cli(
        capsys, "analyze", str(coffee_csv), "--lambda", str(2.0 / 3.0)
    )
    a = json.loads(out_named)
    b = json.loads(out_num)
    assert a["asymmetry"]["phi_total"] == b["asymmetry"]["phi_total"]


def test_analyze_deterministic_bytes(capsys, coffee_csv, tmp_path):
    args = [
        "analyze", str(coffee_csv), "--lambda", "kl",
        "--svg", str(tmp_path / "p.svg"), "-o", str(tmp_path / "r.json"),
    ]
    assert main(args) == 0
    first_json = (tmp_path / "r.json").read_bytes()
    first_svg = (tmp_path / "p.svg").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "r.json").read_bytes() == first_json
    assert (tmp_path / "p.svg").read_bytes() == first_svg


def test_csv_output_with_json_companion(capsys, coffee_csv, tmp_path):
    out_path = tmp_path / "report.csv"
    code, _, err = run_cli(
        capsys, "analyze", str(coffee_csv), "--format", "csv", "-o", str(out_path)
    )
    assert code == 0, err
    assert out_path.read_text(encoding="utf-8").startswith("record,")
    companion = tmp_path / "report.json"
    assert companion.exists()
    report = json.loads(companion.read_text(encoding="utf-8"))
    assert report["command"] == "analyze"


def test_csv_output_to_a_json_path_is_rejected_before_writing(capsys, coffee_csv, tmp_path):
    # the JSON companion of rep.json is rep.json itself, so the CSV would be lost;
    # on a case-insensitive file system rep.JSON is that same file
    svg_path = tmp_path / "p.svg"
    for out_path in (tmp_path / "rep.json", tmp_path / "rep.JSON"):
        code, out, err = run_cli(
            capsys, "analyze", str(coffee_csv), "--format", "csv", "-o", str(out_path),
            "--svg", str(svg_path),
        )
        assert code == 2
        assert out == ""
        message = f"a CSV report to {str(out_path)!r} would be overwritten by its JSON companion"
        assert err == f"error: {message}\n"
        assert not out_path.exists() and not svg_path.exists()
        assert not out_path.with_suffix(".json").exists()


def test_two_outputs_naming_one_file_are_rejected_before_writing(capsys, coffee_csv, tmp_path):
    # the report would replace the plot, the CSV's JSON companion the plot, and
    # the matched report its sum plot
    table = str(coffee_csv)

    def at(name):
        return str(tmp_path / name)

    for argv in (
        ["analyze", table, "--svg", at("x.svg"), "-o", at("x.svg")],
        ["analyze", table, "--format", "csv", "-o", at("r.csv"), "--svg", at("r.json")],
        ["matched", table, table, "--svg", at("o.svg"), "-o", at("o_sum.svg")],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "name the same file" in err, argv
        assert [path.name for path in tmp_path.iterdir()] == ["coffee.csv"], argv


def test_bowker_command(capsys, coffee_csv):
    code, out, _ = run_cli(capsys, "bowker", str(coffee_csv))
    assert code == 0
    report = json.loads(out)
    assert abs(report["bowker"]["statistic"] - 20.41235813366961) < 1e-9
    assert report["bowker"]["dof"] == 10


def test_scan_command(capsys, coffee_csv):
    code, out, _ = run_cli(capsys, "scan", str(coffee_csv), "--grid", "0.5:1.0:0.25")
    assert code == 0
    report = json.loads(out)
    assert report["scan"]["grid"] == [0.5, 0.75, 1.0]


def test_scan_csv_keys_name_each_point_of_a_fine_grid(capsys, coffee_csv):
    code, out, err = run_cli(capsys, "scan", str(coffee_csv), "--grid", "0.5:0.52:0.005", "--format", "csv")
    assert code == 0, err
    keys = [line.split(",")[3] for line in out.splitlines() if line.startswith("scan_point,")]
    assert len(set(keys)) == 5
    assert [float(key) for key in keys] == [0.5, 0.505, 0.51, 0.515, 0.52]


def test_matched_command(capsys, tmp_path):
    t1 = tmp_path / "t1.csv"
    t2 = tmp_path / "t2.csv"
    t1.write_text(",1,2,3,4\n1,140,1,0,0\n2,30,3,1,0\n3,66,4,2,0\n4,83,15,10,1\n")
    t2.write_text(",1,2,3,4\n1,3,1,0,0\n2,3,1,1,0\n3,15,8,0,0\n4,23,8,7,0\n")
    code, out, err = run_cli(
        capsys, "matched", str(t1), str(t2), "--lambda", "pearson",
        "--svg", str(tmp_path / "gss.svg"),
    )
    assert code == 0, err
    report = json.loads(out)
    vals = report["matched"]["block_singular_values"]
    assert np.allclose(
        vals, [1.344, 1.344, 0.239, 0.239, 0.055, 0.055, 0.032, 0.032], atol=1e-3
    )
    assert report["config"]["metric"] == "identity"
    assert (tmp_path / "gss_sum.svg").exists()
    assert (tmp_path / "gss_difference.svg").exists()


def test_matched_plot_captions_at_odd_size(capsys, coffee_csv, tmp_path):
    # at R = 5 each component's fifth dimension is its null one, whose share is 0
    other = tmp_path / "other.csv"
    other.write_text(
        ",HP,TC,SA,NE,BR\nHP,80,20,30,9,5\nTC,12,50,14,2,7\nSA,25,8,140,11,15\n"
        "NE,3,6,12,20,4\nBR,14,3,9,6,30\n",
        encoding="utf-8",
    )
    tables = (str(coffee_csv), str(other))
    code, out, err = run_cli(
        capsys, "matched", *tables, "--dims", "1,5", "--svg", str(tmp_path / "m.svg")
    )
    assert code == 0, err
    matched = json.loads(out)["matched"]
    for component in ("sum", "difference"):
        svg = (tmp_path / f"m_{component}.svg").read_text(encoding="utf-8")
        top = matched[f"{component}_singular_values"][0]
        share = 100.0 * top**2 / matched["block_total_inertia"]
        assert share > 0.0
        assert f"{component} axis 1 ({share:.2f}%)" in svg
        assert f"{component} axis 5 (0.00%)" in svg
    before = sorted(path.name for path in tmp_path.iterdir())
    code, out, err = run_cli(
        capsys, "matched", *tables, "--dims", "1,6", "--svg", str(tmp_path / "bad.svg")
    )
    assert code == 2 and out == "" and "dimension 6 out of range 1..5" in err
    assert sorted(path.name for path in tmp_path.iterdir()) == before


def test_matched_command_on_two_symmetric_tables(capsys, tmp_path):
    table = tmp_path / "sym.csv"
    table.write_text(",a,b,c\na,5,3,2\nb,3,4,1\nc,2,1,6\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "matched", str(table), str(table), "--svg", str(tmp_path / "m.svg")
    )
    assert code == 0, err
    report = json.loads(out)
    warning = "both tables are fully symmetric: all coordinates sit at the origin"
    assert report["warnings"] == [warning]
    assert report["matched"]["block_singular_values"] == [0.0] * 6
    assert (tmp_path / "m_sum.svg").exists()
    assert (tmp_path / "m_difference.svg").exists()


def test_config_file_and_override(capsys, coffee_csv, tmp_path, monkeypatch):
    cfg = tmp_path / "skewca.cfg"
    cfg.write_text("lambda=hellinger\nalpha=0.10\n# comment\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(coffee_csv), "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    assert report["config"]["lambda"] == -0.5
    assert report["config"]["alpha"] == 0.10
    # flag overrides the file
    code, out, _ = run_cli(
        capsys, "analyze", str(coffee_csv), "--config", str(cfg), "--lambda", "kl"
    )
    report = json.loads(out)
    assert report["config"]["lambda"] == 0.0
    # env var names the default config
    monkeypatch.setenv("SKEWCA_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "analyze", str(coffee_csv))
    assert json.loads(out)["config"]["lambda"] == -0.5
    # every config key reaches its report field
    svg = tmp_path / "all.svg"
    cfg.write_text(
        f"lambda=kl\nalpha=0.2\nmetric=identity\ndims=2,1\nformat=csv\nsvg={svg}\naxes=both\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "analyze", str(coffee_csv), "-o", str(tmp_path / "all.csv"))
    assert code == 0, err
    assert (tmp_path / "all.csv").read_text(encoding="utf-8").startswith("record,")
    assert svg.exists()
    report = json.loads((tmp_path / "all.json").read_text(encoding="utf-8"))
    assert report["config"] == {
        "lambda": 0.0,
        "alpha": 0.2,
        "metric": "identity",
        "dims": [2, 1],
        "output_format": "csv",
        "svg_path": str(svg),
        "plot_axes": "both",
    }


def test_config_file_with_byte_order_mark(capsys, coffee_csv, tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text("lambda=kl\nalpha=0.10\n", encoding="utf-8")
    marked.write_text("lambda=kl\nalpha=0.10\n", encoding="utf-8-sig")
    runs = [run_cli(capsys, "analyze", str(coffee_csv), "--config", str(cfg)) for cfg in (marked, plain)]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0
    assert json.loads(out)["config"]["lambda"] == 0.0


def test_bad_config_file(capsys, coffee_csv, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no equals sign here\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(coffee_csv), "--config", str(cfg))
    assert code == 2
    assert "key=value" in err


def test_exit_code_2_for_config_values_outside_their_choices(capsys, coffee_csv, tmp_path):
    cfg = tmp_path / "choices.cfg"
    for line, message in (
        ("axes=up", "error: axes must be rows, columns, or both, got 'up'\n"),
        ("metric=weird", "error: metric must be averaged or identity, got 'weird'\n"),
        ("format=yaml", "error: format must be json or csv, got 'yaml'\n"),
        ("colour=red", f"error: {cfg}:1: unknown config key 'colour'\n"),
    ):
        cfg.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(coffee_csv), "--config", str(cfg))
        assert (code, out, err) == (2, "", message)


def test_exit_code_2_for_malformed_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\na,1,2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "error:" in err


def test_exit_code_2_for_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.csv"))
    assert code == 2


def test_exit_code_2_for_unusable_named_paths(capsys, coffee_csv, tmp_path):
    latin = tmp_path / "latin.csv"
    latin.write_bytes(COFFEE_CSV.replace("HP,93", "H\xc9,93").encode("latin-1"))
    latin_cfg = tmp_path / "latin.cfg"
    latin_cfg.write_bytes("lambda=caf\xe9\n".encode("latin-1"))
    for argv, message in (
        (["analyze", str(tmp_path)], "Is a directory"),
        (["matched", str(coffee_csv), str(tmp_path)], "Is a directory"),
        (["analyze", str(coffee_csv), "-o", str(tmp_path)], "Is a directory"),
        (["analyze", str(coffee_csv), "--format", "csv", "-o", f"{tmp_path}/"], "Is a directory"),
        (["analyze", str(coffee_csv), "--svg", str(tmp_path)], "Is a directory"),
        (["analyze", str(coffee_csv), "--config", str(tmp_path)], "Is a directory"),
        (["analyze", str(latin)], f"{latin} is not UTF-8 text"),
        (["analyze", str(coffee_csv), "--config", str(latin_cfg)], f"{latin_cfg} is not UTF-8 text"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and message in err, argv


def test_failed_analyze_leaves_no_plot_behind(capsys, coffee_csv, tmp_path):
    # the report cannot be written to a directory, and the plot was written first
    svg = tmp_path / "p.svg"
    argv = ("analyze", str(coffee_csv), "--svg", str(svg), "-o", str(tmp_path))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "Is a directory" in err
    assert not svg.exists()
    # a file that was there before the run is left in place
    svg.write_text("kept", encoding="utf-8")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2 and svg.exists()


def test_failed_matched_leaves_no_plots_behind(capsys, tmp_path):
    tables = (str(DATA / "opinions_teens.csv"), str(DATA / "opinions_adults.csv"))
    argv = ("matched", *tables, "--svg", str(tmp_path / "p.svg"), "-o", str(tmp_path))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "Is a directory" in err
    assert not (tmp_path / "p_sum.svg").exists()
    assert not (tmp_path / "p_difference.svg").exists()


def test_exit_code_1_with_traceback_for_a_library_bug(capsys, coffee_csv, monkeypatch):
    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "run_analyze", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["analyze", str(coffee_csv)])
    script = (
        "import sys\n"
        "from skewca import cli\n"
        "def broken(*args):\n"
        "    raise ValueError('internal bug')\n"
        "cli.run_analyze = broken\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(skewca.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script, "analyze", str(coffee_csv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" in done.stderr
    assert done.stderr.rstrip().endswith("ValueError: internal bug")


def test_exit_code_1_with_traceback_for_a_failed_definition_check(coffee_csv, monkeypatch):
    # the kernel's cross-check against the definition fails only on a numerical defect,
    # so it is a bug, never exit 3
    series = divergence._series
    monkeypatch.setattr(divergence, "_series", lambda *args: 2.0 * series(*args))
    with pytest.raises(AssertionError, match="asymmetry measure mismatch between definitions at lam=1.0"):
        main(["analyze", str(coffee_csv)])
    script = (
        "import sys\n"
        "from skewca import cli, divergence\n"
        "series = divergence._series\n"
        "divergence._series = lambda *args: 2.0 * series(*args)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(skewca.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script, "analyze", str(coffee_csv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" in done.stderr
    last = done.stderr.rstrip().splitlines()[-1]
    assert last.startswith("AssertionError: asymmetry measure mismatch between definitions at lam=1.0: ")


def test_library_and_cli_reports_agree_on_each_default_metric(capsys, coffee, opinions):
    # a config without a metric means the command's own default, on the command line and
    # in the library alike: averaged for analyze, identity for matched
    pair = [str(DATA / f"opinions_{group}.csv") for group in ("teens", "adults")]
    code, out, err = run_cli(capsys, "matched", *pair)
    assert code == 0, err
    assert out == run_matched(AnalysisConfig(), *opinions).to_json()
    report = json.loads(out)
    assert report["config"]["metric"] == report["matched"]["metric"] == "identity"
    code, out, err = run_cli(capsys, "analyze", str(DATA / "coffee.csv"))
    assert code == 0, err
    assert out == run_analyze(AnalysisConfig(), coffee).to_json()
    report = json.loads(out)
    assert report["config"]["metric"] == report["decomposition"]["metric"] == "averaged"
    # scan and bowker read no metric, so they record it only as given
    for argv, metric in ((("scan",), None), (("bowker",), None), (("scan", "--metric", "identity"), "identity")):
        code, out, err = run_cli(capsys, argv[0], str(DATA / "coffee.csv"), *argv[1:])
        assert code == 0, err
        assert json.loads(out)["config"]["metric"] == metric


def test_exit_code_2_for_bad_lambda(capsys, coffee_csv):
    code, _, err = run_cli(capsys, "analyze", str(coffee_csv), "--lambda", "-2")
    assert code == 2
    assert "lam" in err


def test_exit_code_2_for_bad_dims(capsys, coffee_csv, tmp_path):
    code, _, err = run_cli(
        capsys, "analyze", str(coffee_csv), "--dims", "1,9",
        "--svg", str(tmp_path / "x.svg"),
    )
    assert code == 2
    assert "dimension" in err
    distinct = "error: plot dimensions must be two distinct integers >= 1, got {}\n"
    cfg = tmp_path / "dims.cfg"
    for dims, message in (
        ("1", "error: --dims expects two comma-separated dimensions, got '1'\n"),
        ("a,b", "error: --dims expects integers, got 'a,b'\n"),
        # checked when the config is built, whether or not a plot is drawn
        ("0,-3", distinct.format("(0, -3)")),
        ("1,1", distinct.format("(1, 1)")),
    ):
        assert run_cli(capsys, "analyze", str(coffee_csv), "--dims", dims) == (2, "", message)
        cfg.write_text(f"dims={dims}\n", encoding="utf-8")
        assert run_cli(capsys, "analyze", str(coffee_csv), "--config", str(cfg)) == (2, "", message)


def test_exit_code_3_for_diagonal_table(capsys, tmp_path):
    diag = tmp_path / "diag.csv"
    diag.write_text("a,b\na,5,0\nb,0,5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(diag))
    assert code == 3
    assert "diagonal" in err


def test_exit_code_3_for_symmetric_scan(capsys, tmp_path):
    sym = tmp_path / "sym.csv"
    sym.write_text("a,b\na,1,2\nb,2,1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "scan", str(sym), "--grid", "0.0:1.0:0.5")
    assert code == 3
    assert "symmetric" in err


def test_asymmetry_at_large_lambda_is_not_reported_as_symmetric(capsys, tmp_path):
    table = tmp_path / "t.csv"
    table.write_text(",a,b,c\na,50,30,10\nb,20,40,25\nc,12,18,60\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(table), "--lambda", "100")
    assert code == 0, err
    report = json.loads(out)
    # 50-digit value of the definition
    assert report["asymmetry"]["phi_total"] == pytest.approx(1.76522802719417e-23, rel=1e-10)
    assert report["warnings"] == [] and report["regions"]
    code, out, err = run_cli(capsys, "scan", str(table), "--grid=0:100:10")
    assert code == 0, err
    assert json.loads(out)["scan"]["grid"][-1] == 100.0


def test_asymmetry_below_double_precision_is_not_reported_as_symmetric(capsys, tmp_path):
    table = tmp_path / "t.csv"
    table.write_text(",a,b,c\na,0,100000001,5\nb,100000000,0,5\nc,5,5,0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(table), "--lambda", "1")
    assert code == 0, err
    report = json.loads(out)
    assert report["asymmetry"]["phi_total"] == pytest.approx(2.4999997250000290e-17, rel=1e-12)
    assert not report["decomposition"]["fully_symmetric"]
    assert not any("symmetric" in warning for warning in report["warnings"])
    code, out, err = run_cli(capsys, "scan", str(table))
    assert code == 0, err


def test_exit_code_2_for_non_finite_grid(capsys, coffee_csv):
    # the last grid's points all round to 0.0 at 12 decimals
    for grid in ("0:1e308:1e-308", "nan:1:0.1", "0:inf:1", "1e-20:1e-19:1e-21"):
        code, _, err = run_cli(capsys, "scan", str(coffee_csv), "--grid", grid)
        assert code == 2, grid
        assert "--grid" in err
    for grid, message in (
        ("1:2", "--grid expects START:STOP:STEP, got '1:2'"),
        ("a:b:c", "--grid expects numbers, got 'a:b:c'"),
        ("0:1:0", "--grid needs step > 0 and stop >= start, got '0:1:0'"),
        ("1:0:0.1", "--grid needs step > 0 and stop >= start, got '1:0:0.1'"),
    ):
        result = run_cli(capsys, "scan", str(coffee_csv), f"--grid={grid}")
        assert result == (2, "", f"error: {message}\n"), grid


def test_grid_point_bound(capsys, coffee_csv):
    # each grid is rejected from its three numbers, before any point is built
    for grid in ("0:1e300:1e-8", "0:1:0.000001", f"0:{cli.MAX_GRID_POINTS}:1"):
        with pytest.raises(InputError, match="more than"):
            cli._parse_grid(grid)
        code, _, err = run_cli(capsys, "scan", str(coffee_csv), "--grid", grid)
        assert code == 2, grid
        assert "--grid" in err
    assert len(cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")) == cli.MAX_GRID_POINTS


def test_grid_ends_at_stop(capsys, coffee_csv):
    for grid, points in (
        ("0:1:0.6", [0.0, 0.6]),
        ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
        ("0.1:0.7:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
        ("0:1:0.3", [0.0, 0.3, 0.6, 0.9]),
        ("2:2:1", [2.0]),
    ):
        assert cli._parse_grid(grid) == points, grid
        code, out, err = run_cli(capsys, "scan", str(coffee_csv), "--grid", grid)
        assert code == 0, err
        assert json.loads(out)["scan"]["grid"] == points, grid
    assert cli._parse_grid("-0.99:3.00:0.01") == default_lambda_grid().tolist()


def test_exit_code_2_for_pooled_count_overflow(capsys, tmp_path):
    # each table is valid on its own; their sum does not fit in int64
    big = tmp_path / "big.csv"
    big.write_text(",a,b\na,1,9000000000000000000\nb,2,3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "matched", str(big), str(big))
    assert (code, out) == (2, "")
    assert err == "error: pooled count 18000000000000000000 at cell (0, 1) does not fit in int64\n"


def test_exit_code_2_for_count_overflow(capsys, tmp_path):
    total = tmp_path / "total.csv"
    total.write_text(",a,b\na,9223372036854775807,9223372036854775807\nb,12,0\n")
    cell = tmp_path / "cell.json"
    cell.write_text('{"labels": ["a", "b"], "counts": [[1, 99999999999999999999], [3, 4]]}')
    for path in (total, cell):
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2, err
        assert out == ""
        assert "int64" in err


def test_error_text_names_offending_cell(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\na,1,x\nb,3,4\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "'a'" in err and "'b'" in err and "x" in err


def test_axes_both_plots_column_points(capsys, coffee_csv, tmp_path):
    svg = tmp_path / "both.svg"
    code, _, _ = run_cli(
        capsys, "analyze", str(coffee_csv), "--axes", "both", "--svg", str(svg)
    )
    assert code == 0
    body = svg.read_text(encoding="utf-8")
    assert ">HP</text>" in body
    assert ">HP&apos;</text>" in body or ">HP'</text>" in body


def test_exit_code_2_for_alpha_outside_unit_interval(capsys, coffee_csv, tmp_path):
    # checked when the config is built, whether or not circles are drawn
    sym = tmp_path / "sym.csv"
    sym.write_text(",a,b,c\na,1,2,3\nb,2,1,4\nc,3,4,1\n", encoding="utf-8")
    for alpha in ("7", "0", "1", "-0.1", "nan", "5e-324", "1e-315"):
        for path, extra in ((coffee_csv, ()), (coffee_csv, ("--metric", "identity")), (sym, ())):
            argv = ["analyze", str(path), "--alpha", alpha, *extra]
            with pytest.raises(InputError, match=r"alpha must be a normal double in \(0, 1\), got"):
                cli._build_config(cli._build_parser().parse_args(argv))
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert "alpha" in err


def test_exit_code_2_for_non_numeric_config_alpha(capsys, coffee_csv, tmp_path):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("alpha=abc\n", encoding="utf-8")
    argv = ["analyze", str(coffee_csv), "--config", str(cfg)]
    with pytest.raises(InputError, match="alpha must be a number, got 'abc'"):
        cli._build_config(cli._build_parser().parse_args(argv))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "alpha" in err


def test_exit_code_2_for_json_labels_not_a_list(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"labels": 5, "counts": [[1, 2], [3, 4]]}', encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert '"labels"' in err


def test_exit_code_2_where_the_measure_underflows(capsys, tmp_path):
    table = str(abc_csv(tmp_path / "t.csv", COUNTS_UNDERFLOWING))
    message = "error: measure underflows double precision at lam=1000.0\n"
    assert run_cli(capsys, "analyze", table, "--lambda", "1000") == (2, "", message)
    assert run_cli(capsys, "scan", table, "--grid=1000:1000:1") == (2, "", message)
    code, out, err = run_cli(capsys, "analyze", table, "--lambda", "700")
    assert code == 0, err
    assert json.loads(out)["asymmetry"]["phi_total"] > 0.0
