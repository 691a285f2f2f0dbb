import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from holonoise import cli
from holonoise.config import HolometerConfig
from holonoise.moments import CENTERED_KEYS


def run(argv):
    return cli.main(list(argv))


def run_usage_error(argv):
    """Exit code of an argparse-level usage failure."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    return excinfo.value.code


def read_csv(path):
    """(comment lines, column names, parsed rows) of a CLI-written CSV."""
    comments, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("# columns: "):
            comments.append(line)
            columns = line.removeprefix("# columns: ").split(",")
        elif line.startswith("#"):
            comments.append(line)
        else:
            rows.append(dict(zip(columns, next(csv.reader([line])), strict=True)))
    return comments, columns, rows


def nrf_base_config():
    return HolometerConfig.from_dict(dict(cli._NRF_BASE))


# ---------------------------------------------------------------------------
# sweep specification
# ---------------------------------------------------------------------------


def test_sweep_spec_validation():
    # an unknown variable is an argparse choice error; bad grids fail in
    # _parse_grid, before any configuration is built
    for grid in ("0:1:5:log", ",", "0.1:1.0:1", "0.1:1.0:5:cubic", "0.1:1.0"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_grid(grid)


def test_sweep_spec_points_and_config_mapping():
    base = nrf_base_config()
    assert list(cli._parse_grid("0.25:0.81:3")) == pytest.approx([0.25, 0.53, 0.81])
    config = cli._config_at(base, "tau", 0.25)
    assert config.tau_1 == pytest.approx(0.25, rel=1e-12)
    assert config.phi0_1 == config.phi0_2
    with pytest.raises(ValueError):
        cli._config_at(base, "tau", 2.0)
    assert list(cli._parse_grid("1e-4:1e-2:3:log")) == pytest.approx([1e-4, 1e-3, 1e-2])
    assert list(cli._parse_grid("0.5,0.7")) == [0.5, 0.7]
    assert cli._config_at(base, "eta", 0.7).eta == 0.7


# ---------------------------------------------------------------------------
# nrf-scan
# ---------------------------------------------------------------------------


def test_nrf_scan_writes_deterministic_csv(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["nrf-scan", "--variable", "tau", "--grid", "0.5:0.9:5",
            "--lambdas", "1,10"]
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    comments, columns, rows = read_csv(out_a)
    assert comments[0] == "# holonoise nrf-scan"
    assert columns == ["tau", "lambda", "nrf_minus", "nrf_plus", "regime_k"]
    assert len(rows) == 10  # 5 grid points x 2 lambda values
    assert {float(row["lambda"]) for row in rows} == {1.0, 10.0}
    for row in rows:
        assert 0.0 < float(row["nrf_minus"]) < 1.0
        assert float(row["nrf_plus"]) > 0.0


def test_nrf_scan_figure_point_value(tmp_path):
    out = tmp_path / "point.csv"
    assert run([
        "nrf-scan", "--variable", "tau", "--grid", "0.9", "--lambdas", "10",
        "--mu", "1e6", "--eta", "1.0", "--out", str(out),
    ]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["nrf_minus"]) == pytest.approx(0.12143880344496248, rel=1e-12)
    assert float(rows[0]["nrf_plus"]) == pytest.approx(0.12322064307939724, rel=1e-12)


# ---------------------------------------------------------------------------
# uncertainty-scan
# ---------------------------------------------------------------------------


def test_uncertainty_scan_small_grid(tmp_path):
    out = tmp_path / "u.csv"
    code = run([
        "uncertainty-scan", "--variable", "phi0", "--grid", "1e-3:1e-1:3:log",
        "--out", str(out),
    ])
    assert code == 0
    comments, columns, rows = read_csv(out)
    assert comments[0] == "# holonoise uncertainty-scan"
    assert columns[0] == "phi0"
    for name in ("u0_twb", "u0_sq", "u0_twb_sum", "u_cl", "ratio_twb",
                 "ratio_sq", "ratio_twb_sum", "regime_k", "asym_sq_plateau",
                 "flag"):
        assert name in columns
    assert len(rows) == 3
    for row in rows:
        assert row["flag"] == ""
        assert float(row["ratio_twb"]) > 0.0
        assert float(row["ratio_sq"]) > 0.0
    # deep in the coherent-dominated regime the measured quadrature ratio
    # tracks its plateau column
    last = rows[-1]
    assert float(last["ratio_sq"]) == pytest.approx(
        float(last["asym_sq_plateau"]), rel=0.03
    )


def test_uncertainty_scan_flags_singular_rows(tmp_path):
    out = tmp_path / "sing.csv"
    code = run([
        "uncertainty-scan", "--variable", "phi0", "--grid", "0",
        "--kind", "CoherentOnly", "--lam", "0", "--out", str(out),
    ])
    assert code == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 1
    assert "singular" in rows[0]["flag"]
    assert rows[0]["u0_twb"] == "nan"


def test_uncertainty_scan_psi_sweep_flags_off_pairing_rows(tmp_path):
    # the twin-beam readouts pair with one psi each; elsewhere their cells
    # are nan and flagged instead of aborting the sweep
    out = tmp_path / "psi.csv"
    assert run([
        "uncertainty-scan", "--variable", "psi", "--grid", "0,1.5707963267948966",
        "--out", str(out),
    ]) == 0
    _, _, rows = read_csv(out)
    off, on = rows
    assert off["flag"] == "psi_mismatch:twb;psi_mismatch:twb_sum"
    for name in ("u0_twb", "ratio_twb", "u0_twb_sum", "ratio_twb_sum"):
        assert off[name] == "nan"
    assert float(off["u0_sq"]) > 0.0 and float(off["ratio_sq"]) > 0.0
    assert on["flag"] == ""
    for name in ("u0_twb", "ratio_twb", "u0_twb_sum", "ratio_twb_sum", "u0_sq"):
        assert float(on[name]) > 0.0


def test_uncertainty_scan_eta_defaults_to_deep_quantum_phase(tmp_path):
    out = tmp_path / "eta.csv"
    assert run([
        "uncertainty-scan", "--variable", "eta", "--grid", "0.95,0.99",
        "--out", str(out),
    ]) == 0
    comments, _, rows = read_csv(out)
    assert any('"phi0_1": 1e-08' in line for line in comments)
    for row in rows:
        eta = float(row["eta"])
        limit = 2.0 * math.sqrt(5.0) * (1.0 - eta)
        assert float(row["asym_twb_deep_quantum"]) == pytest.approx(limit, rel=1e-12)
        assert float(row["ratio_twb"]) > 0.0


# ---------------------------------------------------------------------------
# config files and flag precedence
# ---------------------------------------------------------------------------


def test_config_file_and_flag_precedence(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"mu": 1e5, "eta": 0.8, "lambda": 2.0}))
    out = tmp_path / "scan.csv"
    assert run([
        "nrf-scan", "--variable", "tau", "--grid", "0.9", "--lambdas", "2",
        "--config", str(config_path), "--eta", "0.9", "--out", str(out),
    ]) == 0
    comments, _, rows = read_csv(out)
    base_line = next(line for line in comments if line.startswith("# base: "))
    base = json.loads(base_line.removeprefix("# base: "))
    assert base["mu"] == 1e5  # from the file
    assert base["eta"] == 0.9  # flag overrides the file's 0.8
    assert float(rows[0]["regime_k"]) == pytest.approx(1e5 * 0.1 / (0.9 * 2.0), rel=1e-6)


def test_handler_errors_return_one(tmp_path):
    # a tau outside (0, 1] fails inside the handler
    assert run(["nrf-scan", "--variable", "tau", "--grid", "1.5"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["nrf-scan", "--config", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert run(["nrf-scan", "--config", str(missing)]) == 1
    assert run(["mc-estimate", "--epsilons", "1e-3", "--sigma2", "1e-5"]) == 1


def test_nrf_scan_takes_lambda_from_its_lambdas_or_grid_only(capsys):
    # --lam would be overwritten on every row, so nrf-scan does not take it
    for flag in ("--lam", "--lambda"):
        assert run_usage_error(["nrf-scan", flag, "7"]) == 1
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
    # under --variable lambda the grid sets lambda, so --lambdas is refused
    assert run(["nrf-scan", "--variable", "lambda", "--grid", "1,2", "--lambdas", "5"]) == 1
    assert "--lambdas does not apply to --variable lambda" in capsys.readouterr().err


def test_usage_errors_exit_one():
    assert run_usage_error(["nrf-scan", "--variable", "banana"]) == 1
    # a grid with too few points fails while parsing
    assert run_usage_error(["nrf-scan", "--variable", "tau", "--grid", "0.5:0.9:1"]) == 1
    assert run_usage_error(["nrf-scan", "--unknown-flag"]) == 1
    assert run_usage_error(["mc-estimate", "--estimator", "difference"]) == 1
    assert run_usage_error(["mc-estimate", "--threads", "2"]) == 1
    assert run_usage_error([]) == 1


def test_grid_and_sample_caps_are_usage_errors(capsys):
    # one past each cap is rejected while parsing, before any allocation
    too_many = f"0.1:0.9:{cli.MAX_GRID_POINTS + 1}"
    assert run_usage_error(["nrf-scan", "--grid", too_many]) == 1
    assert f"at most {cli.MAX_GRID_POINTS}" in capsys.readouterr().err
    assert run_usage_error(["uncertainty-scan", "--grid", too_many]) == 1
    assert run_usage_error(["mc-estimate", "--n-samples", str(cli.MAX_SAMPLES + 1)]) == 1
    assert f"at most {cli.MAX_SAMPLES}" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["holonoise", "holonoise.cli"])
def test_runs_as_a_module(module):
    src = str(Path(__file__).resolve().parent.parent / "src")

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})

    done = python_m("nrf-scan", "--grid", "0.5", "--lambdas", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "# holonoise nrf-scan"
    assert lines[-1].startswith("0.5,1.0,")
    assert python_m().returncode == 1


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------


def test_oracle_check_passes_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    assert run(["oracle-check", "--n-configs", "3", "--out", str(out)]) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["index", "kind", "mu", "lambda", "tau", "eta", "psi",
                       "max_relative", "worst_margin", "worst_field", "verdict"]
    assert len(rows) == 3
    assert {row["verdict"] for row in rows} == {"pass"}
    assert [int(row["index"]) for row in rows] == [0, 1, 2]
    # the margin is |engine - oracle| over the allowance of the field that
    # came closest to failing, centered[p,q] names included
    fields = {"mean_1", "mean_2", "var_1", "var_2", "cov"} | {
        f"centered[{p},{q}]" for p, q in CENTERED_KEYS
    }
    for row in rows:
        assert 0.0 < float(row["worst_margin"]) <= 1.0
        assert row["worst_field"] in fields


@pytest.mark.parametrize("rtol, message", [
    ("nan", "rtol must be finite and non-negative"),
    ("inf", "rtol must be finite and non-negative"),
    ("-1", "rtol must be finite and non-negative"),
    ("tight", "invalid tolerance"),
])
def test_oracle_check_rejects_a_tolerance_that_passes_anything(capsys, rtol, message):
    # parsed before any configuration is drawn, so no RESULT line is printed
    assert run_usage_error(["oracle-check", "--n-configs", "2", "--rtol", rtol]) == 1
    captured = capsys.readouterr()
    assert "RESULT" not in captured.out
    assert message in captured.err


def test_oracle_check_takes_no_config_file(capsys):
    # the oracle draws its own configurations, so a config file is refused
    assert run_usage_error(["oracle-check", "--n-configs", "2", "--config", "x.json"]) == 1
    captured = capsys.readouterr()
    assert "RESULT" not in captured.out
    assert "unrecognized arguments: --config x.json" in captured.err


def test_oracle_check_broken_convention_exits_two(capsys):
    assert run(["oracle-check", "--n-configs", "2", "--broken-convention"]) == 2
    printed = capsys.readouterr().out
    assert "negative control" in printed
    assert "it did" in printed


# ---------------------------------------------------------------------------
# mc-estimate
# ---------------------------------------------------------------------------


def test_mc_estimate_small_run(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code = run([
        "mc-estimate", "--estimator", "quadrature-product",
        "--epsilons", "0,1e-7", "--n-samples", "2000",
        "--sigma2", "1e-5", "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns == ["epsilon", "epsilon_hat", "std_error", "pull"]
    assert len(rows) == 2
    # zero injected covariance with a shared sampler seed recovers exactly 0
    assert float(rows[0]["epsilon_hat"]) == 0.0
    for row in rows:
        assert abs(float(row["pull"])) < 6.0
    printed = capsys.readouterr().out
    assert "worst |pull|" in printed
    assert "expansion" in printed


def test_mc_estimate_difference_reads_positive_zero_at_zero_covariance(tmp_path):
    # the reused run gives equal means, and the difference readout's
    # derivative is negative: the recovered covariance is +0.0, not -0.0
    out = tmp_path / "mc.csv"
    assert run([
        "mc-estimate", "--estimator", "difference-squared",
        "--n-samples", "1000", "--epsilons", "0,1e-6", "--out", str(out),
    ]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0]["epsilon_hat"]) == 0.0
    assert not [cell for row in rows for cell in row.values() if cell == "-0.0"]


def test_mc_estimate_reports_an_estimator_without_phase_response(capsys):
    # coherent readouts at phi_0 = 0 have no mixed phase response: a
    # one-line error and exit 1, as for any other bad input
    assert run([
        "mc-estimate", "--estimator", "difference-squared", "--kind", "CoherentOnly",
        "--lam", "0", "--phi0", "0", "--n-samples", "1000",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("holonoise mc-estimate: the estimator mean has no mixed phase response")


def test_mc_estimate_sum_estimator_defaults_to_its_phase(capsys):
    code = run([
        "mc-estimate", "--estimator", "sum-squared",
        "--epsilons", "0", "--n-samples", "2000", "--seed", "4",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert '"psi": 0.0' in printed
    assert '"input_kind": "TWB"' in printed


@pytest.mark.parametrize("estimator", ["quadrature-product", "difference-squared"])
@pytest.mark.parametrize("sigma2", ["0", "-1", "nan", "inf"])
def test_mc_estimate_rejects_a_non_positive_variance(tmp_path, capsys, estimator, sigma2):
    # at sigma2 = 0 the runs coincide and a pull is nan or roundoff, so the
    # flag fails before any run and names sigma2, not the epsilon bound
    # that -1 would also violate
    out = tmp_path / "mc.csv"
    assert run_usage_error([
        "mc-estimate", "--estimator", estimator, "--sigma2", sigma2,
        "--epsilons", "0", "--n-samples", "1000", "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert "sigma2 must be finite and positive" in err
    assert "exceeds" not in err
    assert not out.exists()


def test_mc_estimate_skips_the_expansion_outside_its_domain(capsys):
    # sigma2 above the expansion's small-noise bound still runs the
    # recovery; only the variance summary line is replaced
    code = run([
        "mc-estimate", "--estimator", "quadrature-product", "--sigma2", "2e-4",
        "--epsilons", "0,1e-6", "--n-samples", "2000",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "worst |pull|" in printed
    assert "variance expansion skipped: the second-order expansion is valid for" in printed
    assert "direct quadrature" not in printed
