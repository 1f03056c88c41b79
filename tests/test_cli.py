import json
import os
import subprocess
import sys
import time
import warnings

import pytest

from dp5a2.cli import CSV_COLUMNS, RunConfig, _to_config, build_parser, main

HEADER = "B,method,count,na,nb1,nb2,main_term,ratio,seconds"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    lines = [l for l in text.strip().splitlines() if l]
    assert lines[0] == HEADER
    return [dict(zip(CSV_COLUMNS, l.split(","))) for l in lines[1:]]


def test_count_csv_schema(capsys):
    code, out, _ = run(capsys, "count", "--B", "10", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 1
    assert rows[0]["B"] == "10"
    assert rows[0]["method"] == "torsor"
    assert rows[0]["count"] == "92"
    assert rows[0]["main_term"] == ""  # count does not predict
    assert rows[0]["ratio"] == ""


def test_count_both_methods_agree(capsys):
    code, out, _ = run(capsys, "count", "--B", "1,2", "--method", "both", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert [r["method"] for r in rows] == ["naive", "torsor", "naive", "torsor"]
    assert [r["count"] for r in rows] == ["4", "4", "10", "10"]


def test_count_json_mirrors_csv(capsys):
    code, out, _ = run(capsys, "count", "--B", "10", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    assert rows[0]["count"] == 92
    assert rows[0]["ratio"] is None


def test_count_split_populates_parts(capsys):
    code, out, _ = run(capsys, "count", "--B", "100", "--split", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["na"] + row["nb1"] + row["nb2"] == row["count"] == 2222


def test_count_deterministic_across_workers(capsys):
    def rows_for(workers):
        code, out, _ = run(
            capsys, "count", "--B", "200", "--split",
            "--workers", workers, "--format", "csv",
        )
        assert code == 0
        return [
            {k: v for k, v in r.items() if k != "seconds"} for r in csv_rows(out)
        ]

    assert rows_for("1") == rows_for("2")


def test_python_m_runs_the_cli():
    import dp5a2

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(dp5a2.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "dp5a2", *argv],
                              capture_output=True, text=True, env=env)

    ok = python_m("count", "--B", "100", "--format", "csv")
    assert ok.returncode == 0, ok.stderr
    rows = csv_rows(ok.stdout)
    assert [(r["B"], r["method"], r["count"]) for r in rows] == [("100", "torsor", "2222")]
    bad = python_m("count", "--B", "0")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error:")


def test_naive_refuses_large_B(capsys):
    code, _, err = run(capsys, "count", "--B", "1000", "--method", "naive")
    assert code == 2
    assert "error" in err


def test_bad_B_rejected(capsys):
    code, _, err = run(capsys, "count", "--B", "0")
    assert code == 2
    code, _, _ = run(capsys, "count", "--B", "ten")
    assert code == 2


def test_missing_subcommand(capsys):
    assert run(capsys, )[0] == 2


def test_constant_text(capsys):
    code, out, _ = run(capsys, "constant", "--tol", "0.01", "--pmax", "10000")
    assert code == 0
    assert "alpha" in out and "= 1/864" in out
    assert "omega_infty" in out
    assert "constant" in out


def test_constant_json(capsys):
    code, out, _ = run(capsys, "constant", "--tol", "0.01", "--pmax", "10000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "1/864"
    assert payload["omega_infty"] == pytest.approx(27.3306204, rel=1e-4)
    assert 0 < payload["constant"] < payload["omega_infty"]
    assert payload["p_max"] == 10000


def test_unreachable_tolerance_exits_3(capsys):
    # omega_infty cannot be computed to 1e-15; the engine stops at its panel cap
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would escape main
        code, out, err = run(capsys, "constant", "--tol", "1e-15", "--pmax", "1000")
    assert time.perf_counter() - t0 < 30
    assert code == 3
    assert out == ""
    assert err.startswith("quadrature failure: omega_infty:")
    for word in ("Traceback", "LinAlgError", "RuntimeWarning"):
        assert word not in err


def test_predict_degenerate_B(capsys):
    # below the first shell element the predicted term is exactly 0
    code, out, _ = run(
        capsys, "predict", "--B", "2", "--tol", "0.05", "--pmax", "1000",
        "--format", "csv",
    )
    assert code == 0
    row = csv_rows(out)[0]
    assert row["main_term"] == "0.000000"
    assert row["ratio"] == ""


def test_predict_rows_sorted_and_finite(capsys):
    code, out, _ = run(
        capsys, "predict", "--B", "100,50", "--tol", "0.05", "--pmax", "1000",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["B"] for r in rows] == [50, 100]
    for r in rows:
        assert r["main_term"] > 0
        assert r["ratio"] > 0


def test_predict_identity_failure_exits_4(capsys, monkeypatch):
    from dp5a2 import dirichlet

    real = dirichlet.e_star_sum
    one = dirichlet.ZetaRational(1, 1)
    monkeypatch.setattr(dirichlet, "e_star_sum", lambda B: real(B) + one)
    code, out, err = run(capsys, "predict", "--B", "100", "--tol", "0.05", "--pmax", "1000")
    assert code == 4
    assert out == ""
    assert err.startswith("verification failure: main-term identity failed at B=100")
    assert "Traceback" not in err


def test_config_file_and_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# defaults\nformat = csv\nmethod = naive\nsplit = true\n")
    code, out, _ = run(
        capsys, "count", "--B", "5", "--config", str(cfgfile),
        "--method", "torsor",
    )
    assert code == 0
    rows = csv_rows(out)  # format came from the config file
    assert rows[0]["method"] == "torsor"  # explicit flag beat the config
    assert rows[0]["na"] != ""  # split=true survived


def test_config_missing_file(capsys):
    code, _, err = run(capsys, "count", "--B", "5", "--config", "/nonexistent.cfg")
    assert code == 2
    assert "config" in err


def test_verify_fault_injection(capsys):
    code, out, _ = run(
        capsys, "verify", "--drop-edge", "A1,E1", "--B", "60", "--format", "json",
    )
    assert code == 4
    listed = json.loads(out)
    # the seven checks of verify.run_all, in its order
    assert [c["name"] for c in listed] == [
        "local-factor-oracle", "theta-consistency", "main-term-identity",
        "coprimality-equivalence", "bijection", "height-bounds", "g2-scaling",
    ]
    checks = {c["name"]: c for c in listed}
    assert not checks["coprimality-equivalence"]["passed"]
    # the unrelated checks still pass
    assert checks["bijection"]["passed"]
    assert checks["bijection"]["detail"].startswith("B=60:")
    assert checks["height-bounds"]["passed"]


def test_verify_unknown_edge(capsys):
    code, _, err = run(capsys, "verify", "--drop-edge", "E1,E9")
    assert code == 2
    assert "edge" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("constant", "--pmax", "1"),
        ("predict", "--B", "10", "--pmax", "1"),
        ("verify", "--B", "1000"),
        ("count", "--B", "2", "--split"),
        ("count", "--B", "10", "--workers", "-3"),
        ("constant", "--workers", "0"),
        ("verify", "--workers", "0"),
        ("predict", "--B", "10", "--workers", "0"),
        ("count", "--B", "10", "--split", "--A", "nan"),
        ("count", "--B", "10", "--split", "--A=-inf"),
        ("constant", "--tol", "nan"),
        ("count", "--B", ","),
        ("predict", "--B", ","),
        ("count", "--B", str(2**61 + 1)),
        ("predict", "--B", str(2**61 + 1)),
    ],
)
def test_bad_input_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("subcommand", ["constant", "verify"])
def test_csv_refused_where_no_rows_are_written(capsys, subcommand):
    code, out, err = run(capsys, subcommand, "--format", "csv")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'csv'" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["count", "--B", "5"], RunConfig("count", Bs=[5])),
        (["constant"], RunConfig("constant")),
        (["verify"], RunConfig("verify")),
        (["predict"], RunConfig("predict", Bs=[1000, 10000])),
    ],
)
def test_defaults_come_from_run_config(monkeypatch, argv, expected):
    monkeypatch.delenv("DP5A2_WORKERS", raising=False)
    assert _to_config(build_parser().parse_args(argv)) == expected


@pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--B", "10"),
        ("constant",),
        ("verify",),
        ("predict", "--B", "10"),
    ],
)
def test_bad_worker_env_exits_2(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("DP5A2_WORKERS", value)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "DP5A2_WORKERS" in err


def test_worker_env_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv("DP5A2_WORKERS", "2")
    code, out, _ = run(capsys, "count", "--B", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["count"] == 92
    # an explicit flag wins, so the environment is not read
    monkeypatch.setenv("DP5A2_WORKERS", "abc")
    assert run(capsys, "count", "--B", "10", "--workers", "1")[0] == 0
