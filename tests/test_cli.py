import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from holonoise import cli, crosscheck, estimation, fock_oracle, holometer
from holonoise.config import STACK_FIELDS, HolometerConfig
from holonoise.estimation import EstimatorSpec, PsiPairingError, SingularConfigurationError
from holonoise.moments import CENTERED_KEYS
from holonoise.observables import UndefinedResultError, nrf, regime_parameter


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


def test_nrf_scan_lambda_sweep_writes_lambda_once(tmp_path):
    # the swept variable is the lambda column itself, not a second copy
    out = tmp_path / "lambda.csv"
    assert run(["nrf-scan", "--variable", "lambda", "--grid", "0.5,2", "--out", str(out)]) == 0
    comments, columns, rows = read_csv(out)
    assert comments[-1] == "# columns: lambda,nrf_minus,nrf_plus,regime_k"
    assert [float(row["lambda"]) for row in rows] == [0.5, 2.0]


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
        "--lam", "0", "--out", str(out),
    ])
    assert code == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 1
    assert "singular" in rows[0]["flag"]
    assert rows[0]["u0_twb"] == "nan"


def test_uncertainty_scan_reads_the_derivative_again_only_for_nan_cells(tmp_path, monkeypatch):
    # u0 evaluates the derivative of each readout; a finite grid needs no
    # second reading, a grid with a singular row does
    calls = []
    derivative = estimation.estimator_mixed_derivative

    def counted(config, spec):
        calls.append(spec.kind)
        return derivative(config, spec)

    monkeypatch.setattr(estimation, "estimator_mixed_derivative", counted)
    assert run(["uncertainty-scan", "--variable", "phi0", "--grid", "1e-3:1e-1:3:log",
                "--out", str(tmp_path / "u.csv")]) == 0
    assert len(calls) == 3
    calls.clear()
    assert run(["uncertainty-scan", "--variable", "phi0", "--grid", "0,1e-2",
                "--lam", "0", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(calls) > 3
    _, _, rows = read_csv(tmp_path / "s.csv")
    assert "singular" in rows[0]["flag"] and rows[1]["flag"] == ""


def test_uncertainty_scan_names_every_non_finite_cell(tmp_path):
    # at a subnormal efficiency the squeezed u0 and the classical
    # benchmark overflow float64: they read nan, and the flag names them
    out = tmp_path / "overflow.csv"
    assert run(["uncertainty-scan", "--eta", "1e-310", "--mu", "1e-3", "--grid", "0.5",
                "--out", str(out)]) == 0
    _, columns, [row] = read_csv(out)
    assert row["u0_sq"] == row["u_cl"] == "nan"
    named = row["flag"].split(";")
    assert "overflow:sq" in named and "nonfinite:u_cl" in named
    for name in ("u0_twb", "u0_sq", "u0_twb_sum", "u_cl", "ratio_twb", "ratio_sq",
                 "ratio_twb_sum"):
        if not math.isfinite(float(row[name])):
            readout = name.split("_", 1)[1] if name.startswith(("u0_", "ratio_")) else None
            assert f"nonfinite:{name}" in named or any(
                flag.split(":")[1] == readout for flag in named), name


def test_uncertainty_scan_takes_no_input_kind(tmp_path, capsys):
    # each of its readouts sets its own input, so a chosen kind would be ignored
    assert run_usage_error(["uncertainty-scan", "--kind", "TWB"]) == 1
    assert "unrecognized arguments: --kind TWB" in capsys.readouterr().err
    config = tmp_path / "kind.json"
    config.write_text(json.dumps({"input_kind": "CoherentOnly"}))
    assert run(["uncertainty-scan", "--config", str(config)]) == 1
    assert "takes no input_kind" in capsys.readouterr().err


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
# whole-grid sweeps against the same rows computed one configuration at a time
# ---------------------------------------------------------------------------


def base_from_header(comments):
    line = next(line for line in comments if line.startswith("# base: "))
    return HolometerConfig.from_dict(json.loads(line.removeprefix("# base: ")))


def member(stack, index):
    """The single configuration at ``index`` of a stacked configuration."""
    return stack.replace(**{
        name: float(getattr(stack, name)[index])
        for name in STACK_FIELDS if np.ndim(getattr(stack, name))
    })


def uncertainty_row(config):
    """One uncertainty-scan row from scalar calls, as the scan built it
    before it evaluated whole grids."""
    twb = config.replace(input_kind="TWB")
    sq = config.replace(input_kind="TwoSqueezed")
    twb_sum = twb.replace(psi=twb.psi - math.pi / 2.0)
    u_cl = estimation.classical_benchmark(config)
    flags, values = [], []
    for cfg, kind, label in ((twb, "TwbDifferenceSquared", "twb"),
                             (sq, "QuadratureProduct", "sq"),
                             (twb_sum, "TwbSumSquared", "twb_sum")):
        try:
            values.append(estimation.u0(cfg, EstimatorSpec(kind=kind)))
        except SingularConfigurationError:
            flags.append(f"singular:{label}")
            values.append(math.nan)
        except PsiPairingError:
            flags.append(f"psi_mismatch:{label}")
            values.append(math.nan)
        except UndefinedResultError:
            flags.append(f"negative_variance:{label}")
            values.append(math.nan)

    def asym(branch):
        try:
            return estimation.u0_asymptotic(config, branch)
        except UndefinedResultError:
            return math.nan

    return [*values, u_cl, *(value / u_cl for value in values), regime_parameter(config),
            *map(asym, ("SQ_large_lambda", "TWB_B", "TWB_A_large_lambda",
                        "TWB_A_small_lambda")),
            ";".join(flags)]


def assert_rows_match(rows, columns, expected):
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        for name, value in zip(columns, want, strict=True):
            if name == "flag":
                assert row[name] == value
            elif math.isnan(value):
                assert row[name] == "nan", name
            else:
                assert float(row[name]) == pytest.approx(value, rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("argv", [
    ["--variable", "phi0"],
    ["--variable", "eta"],
    ["--variable", "lambda"],
    ["--variable", "tau"],
    ["--variable", "psi"],
    ["--variable", "phi0", "--grid", "0,1e-3", "--lam", "0"],
    ["--variable", "eta", "--grid", "0.95,1.0", "--mu", "1e6"],
], ids=["phi0", "eta", "lambda", "tau", "psi", "singular", "negative_variance"])
def test_uncertainty_scan_matches_its_rows_one_configuration_at_a_time(tmp_path, argv):
    out = tmp_path / "u.csv"
    assert run(["uncertainty-scan", *argv, "--out", str(out)]) == 0
    comments, columns, rows = read_csv(out)
    grid = np.array([float(row[columns[0]]) for row in rows])
    stack = cli._config_at(base_from_header(comments), columns[0], grid)
    expected = [[value, *uncertainty_row(member(stack, index))]
                for index, value in enumerate(grid)]
    assert_rows_match(rows, columns, expected)
    flags = [row["flag"] for row in rows]
    if argv[1] == "psi":
        assert sum("psi_mismatch" in flag for flag in flags) == 40
    if "--lam" in argv:
        assert flags == ["singular:twb;singular:twb_sum", ""]
    if "--mu" in argv:
        # twin beams at eta = 1: roundoff leaves the difference readout a
        # negative Var[C], which reads nan rather than a u0 of 0
        assert flags == ["", "negative_variance:twb"]
        assert rows[1]["u0_twb"] == "nan" and float(rows[0]["u0_twb"]) > 0.0


def test_nrf_scan_matches_its_rows_one_configuration_at_a_time(tmp_path):
    out = tmp_path / "nrf.csv"
    assert run(["nrf-scan", "--out", str(out)]) == 0
    comments, columns, rows = read_csv(out)
    base = base_from_header(comments)
    expected = []
    for row in rows:
        tau, lam = float(row["tau"]), float(row["lambda"])
        config = member(cli._config_at(base, "tau", np.array([tau])), 0).replace(lam=lam)
        expected.append([tau, lam, nrf(config.replace(psi=math.pi / 2.0)).nrf_minus,
                         nrf(config.replace(psi=0.0)).nrf_plus, regime_parameter(config)])
    assert len(rows) == 150  # 50 grid points x the 3 default lambdas, lambda fastest
    assert [float(row["lambda"]) for row in rows[:4]] == [0.1, 1.0, 10.0, 0.1]
    assert_rows_match(rows, columns, expected)


def test_sweep_input_errors_still_stop_the_scan(tmp_path, capsys):
    out = tmp_path / "u.csv"
    assert run(["uncertainty-scan", "--variable", "tau", "--grid", "2.0",
                "--out", str(out)]) == 1
    assert "tau must lie in (0, 1], got 2.0" in capsys.readouterr().err
    assert run(["uncertainty-scan", "--variable", "eta", "--grid", "0.5,1.5,0.9",
                "--out", str(out)]) == 1
    assert "eta must lie in [0, 1], got 1.5" in capsys.readouterr().err
    # phi_0 = pi, where all of the coherent light reaches the detector
    # with no phase response, has no classical benchmark; no light, no NRF
    assert run(["uncertainty-scan", "--variable", "phi0", "--grid", "1,3.141592653589793",
                "--out", str(out)]) == 1
    assert "classical benchmark diverges" in capsys.readouterr().err
    assert run(["nrf-scan", "--grid", "0.5,1.0", "--mu", "0", "--lambdas", "1,0",
                "--out", str(out)]) == 1
    assert "no photons reach the detectors" in capsys.readouterr().err
    assert not out.exists()


def _count_calls(monkeypatch, module, names):
    """Record (name, max_order) for every call of ``module.<name>``."""
    calls = []
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, kwargs.get("max_order")))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("points", [5, 50])
def test_scans_make_a_fixed_number_of_engine_calls(monkeypatch, tmp_path, points):
    readouts = _count_calls(monkeypatch, holometer, ("readout_moments", "quadrature_readout"))
    nrf_calls = _count_calls(monkeypatch, cli, ("nrf",))
    grid = f"1e-6:1e-1:{points}:log"
    assert run(["uncertainty-scan", "--grid", grid, "--out", str(tmp_path / "u.csv")]) == 0
    # the two squared photocurrents; the quadrature product reads closed forms
    assert readouts == [("readout_moments", 4), ("readout_moments", 4)]
    assert run(["nrf-scan", "--grid", f"0.1:0.9:{points}", "--out", str(tmp_path / "n.csv")]) == 0
    assert nrf_calls == [("nrf", None)] * 2


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


def test_nrf_scan_takes_lambda_from_a_config_file(tmp_path):
    # defaults < the config file's lambda as the one trace < --lambdas
    def scan(lam, *flags):
        config_path = tmp_path / f"lambda_{lam}.json"
        config_path.write_text(json.dumps({"lambda": lam}))
        out = tmp_path / "scan.csv"
        assert run(["nrf-scan", "--grid", "0.5", "--config", str(config_path), *flags,
                    "--out", str(out)]) == 0
        return read_csv(out)[2]

    seven, one = scan(7), scan(1)
    assert [float(row["lambda"]) for row in seven] == [7.0]
    assert [float(row["lambda"]) for row in one] == [1.0]
    assert seven[0]["nrf_minus"] != one[0]["nrf_minus"]
    assert [float(row["lambda"]) for row in scan(7, "--lambdas", "2,3")] == [2.0, 3.0]


def nrf_psi_scan(tmp_path, *flags):
    """The psi header line and the one row of nrf-scan at tau 0.5, lambda 1."""
    out = tmp_path / "scan.csv"
    assert run(["nrf-scan", "--grid", "0.5", "--lambdas", "1", *flags, "--out", str(out)]) == 0
    comments, _, rows = read_csv(out)
    (psi_line,) = [line for line in comments if "column at psi=" in line]
    return psi_line, rows[0]


def test_nrf_scan_takes_psi_from_a_config_file(tmp_path):
    # defaults (pi/2 and 0, one per column) < the config file's psi for
    # both columns < --psi for both columns
    config_path = tmp_path / "psi.json"
    config_path.write_text(json.dumps({"psi": 0.3}))
    config = cli._config_at(nrf_base_config(), "tau", np.array([0.5]))

    def expected(psi):
        both = nrf(config.replace(psi=psi))
        return float(both.nrf_minus[0]), float(both.nrf_plus[0])

    header, row = nrf_psi_scan(tmp_path, "--config", str(config_path))
    assert header == "# difference column at psi=0.3, sum column at psi=0.3"
    assert (float(row["nrf_minus"]), float(row["nrf_plus"])) == expected(0.3)
    header, row = nrf_psi_scan(tmp_path, "--config", str(config_path), "--psi", "0.7")
    assert header == "# difference column at psi=0.7, sum column at psi=0.7"
    assert (float(row["nrf_minus"]), float(row["nrf_plus"])) == expected(0.7)
    out = tmp_path / "psi_sweep.csv"
    assert run(["nrf-scan", "--variable", "psi", "--grid", "0.3", "--lambdas", "1",
                "--config", str(config_path), "--out", str(out)]) == 0
    assert "# both columns at the swept psi" in read_csv(out)[0]


def test_main_calls_do_not_leak_flags_into_each_other(tmp_path):
    # the parser is built once and reused; a flag of one call must not
    # become the default of the next
    assert nrf_psi_scan(tmp_path, "--psi", "0.3")[0] == (
        "# difference column at psi=0.3, sum column at psi=0.3")
    assert nrf_psi_scan(tmp_path)[0] == (
        f"# difference column at psi={math.pi / 2.0!r}, sum column at psi=0.0")


def test_handler_errors_return_one(tmp_path):
    # a tau outside (0, 1] fails inside the handler
    assert run(["nrf-scan", "--variable", "tau", "--grid", "1.5"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["nrf-scan", "--config", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert run(["nrf-scan", "--config", str(missing)]) == 1
    assert run(["mc-estimate", "--epsilons", "1e-3", "--sigma2", "1e-5"]) == 1


@pytest.mark.parametrize("command", ["nrf-scan", "uncertainty-scan", "mc-estimate"])
@pytest.mark.parametrize("fields, message", [
    ({"eta": None}, "eta must be a number, got None"),
    ({"eta_2": "0.5"}, "eta_2 must be a number, got '0.5'"),
])
def test_a_missing_or_non_numeric_config_value_is_a_one_line_error(
        tmp_path, capsys, command, fields, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    assert run([command, "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"holonoise {command}: {message}\n"


@pytest.mark.parametrize("command", ["nrf-scan", "uncertainty-scan"])
@pytest.mark.parametrize("grid", ["inf:1:3", "1e-3:inf:3:log", "nan,0.5", "-1e308:1e308:3"])
def test_a_grid_that_is_not_finite_is_a_usage_error_with_no_warning(capsys, command, grid):
    # the span too: linspace steps by it, and an infinite step warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_usage_error([command, f"--grid={grid}"]) == 1
    assert caught == []
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"holonoise {command}: error: argument --grid: grid {grid!r} must span finite values")


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


def test_grid_and_sample_caps_are_usage_errors(monkeypatch, capsys):
    # one past each cap is rejected while parsing, before any allocation
    monkeypatch.setattr(cli, "run_crosscheck", lambda **_: pytest.fail("configurations drawn"))
    assert run_usage_error(["oracle-check", "--n-configs", str(cli.MAX_GRID_POINTS + 1)]) == 1
    assert f"at most {cli.MAX_GRID_POINTS}" in capsys.readouterr().err
    too_many = f"0.1:0.9:{cli.MAX_GRID_POINTS + 1}"
    assert run_usage_error(["nrf-scan", "--grid", too_many]) == 1
    assert f"at most {cli.MAX_GRID_POINTS}" in capsys.readouterr().err
    assert run_usage_error(["uncertainty-scan", "--grid", too_many]) == 1
    assert run_usage_error(["mc-estimate", "--n-samples", str(cli.MAX_SAMPLES + 1)]) == 1
    assert f"at most {cli.MAX_SAMPLES}" in capsys.readouterr().err


FLOATS = [0.1, -0.0, 5e-324, 1e300, math.nan, math.inf]


@pytest.mark.parametrize("column, cells", [
    (np.array(FLOATS), [repr(float(x)) for x in FLOATS]),
    (FLOATS, [repr(float(x)) for x in FLOATS]),
    (np.arange(-1, 2), ["-1", "0", "1"]),
    (["pass", "centered[1,3]", ""], ["pass", '"centered[1,3]"', ""]),
    (2.5, ["2.5"] * 3),
    ("a,b", ['"a,b"'] * 3),
], ids=["float-array", "float-list", "int", "str", "float-scalar", "str-scalar"])
def test_write_csv_formats_whole_columns(tmp_path, column, cells):
    # floats round-trip through repr, other cells are text quoted as RFC
    # 4180 asks, and a scalar repeats on every row
    out = tmp_path / "table.csv"
    cli._write_csv(str(out), "test", ["note"], {"row": np.arange(len(cells)), "value": column})
    assert out.read_text().splitlines() == [
        "# holonoise test", "# note", "# columns: row,value",
        *(f"{row},{cell}" for row, cell in enumerate(cells)),
    ]


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
    assert columns == ["index", "kind", "mu", "lambda", "tau", "eta", "psi", "quantum_cutoff",
                       "coherent_cutoff", "max_relative", "worst_margin", "worst_field", "verdict"]
    assert len(rows) == 3
    # the oracle's truncation of each row's ports, as the oracle chose it
    configs = crosscheck.run_crosscheck(n_configs=3).configs
    assert [(int(row["quantum_cutoff"]), int(row["coherent_cutoff"])) for row in rows] == [
        fock_oracle.port_cutoffs(config) for config in configs]
    assert all(1 < int(row["coherent_cutoff"]) <= 160 for row in rows)
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


def test_oracle_check_rows_agree_with_the_summary(tmp_path, capsys):
    # one comparison pass feeds both the rows and the summary lines
    out = tmp_path / "oracle.csv"
    assert run(["oracle-check", "--n-configs", "3", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    worst = max(float(row["max_relative"]) for row in rows)
    assert f"worst relative deviation overall: {worst:.3e}" in capsys.readouterr().out.splitlines()
    for row in rows:
        assert row["verdict"] == ("pass" if float(row["worst_margin"]) <= 1.0 else "fail")


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


@pytest.mark.parametrize("epsilons, distinct", [("0,0,0", 1), ("1e-6,1e-6,1e-6", 1),
                                                ("0,1e-7,0", 2), ("0,1e-7,1e-6", 3)])
def test_mc_estimate_fits_only_three_distinct_covariances(tmp_path, capsys, epsilons, distinct):
    # three entries of one value printed "slope 0.0000, R^2 nan" (or R^2 0),
    # a fit of a line through no spread of injected values
    assert run([
        "mc-estimate", "--estimator", "quadrature-product", "--epsilons", epsilons,
        "--n-samples", "1000", "--out", str(tmp_path / "mc.csv"),
    ]) == 0
    printed = capsys.readouterr().out
    skipped = f"linearity fit skipped: the injected covariances take {distinct} distinct"
    assert (skipped in printed) == (distinct < 3)
    assert ("linearity of recovered vs injected: slope" in printed) == (distinct >= 3)
    assert "nan" not in printed


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


@pytest.mark.parametrize("argv", [
    ["--estimator", "quadrature-product"],
    ["--estimator", "difference-squared", "--kind", "CoherentOnly"],
])
def test_mc_estimate_refuses_phi0_pi_without_phase_response(capsys, argv):
    # at phi_0 = pi only the rounding residue of cos(pi/2) would respond
    assert run(["mc-estimate", *argv, "--phi0", repr(math.pi), "--n-samples", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no mixed phase response" in captured.err


@pytest.mark.parametrize("estimator", ["difference-squared", "sum-squared"])
def test_mc_estimate_recovers_twin_beams_at_phi0_pi(tmp_path, estimator):
    # the twin-beam pair term still responds where the coherent terms vanish
    out = tmp_path / "mc.csv"
    assert run(["mc-estimate", "--estimator", estimator, "--phi0", repr(math.pi),
                "--epsilons", "0,1e-6", "--n-samples", "2000", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    for row in rows:
        assert abs(float(row["pull"])) < 6.0
        assert float(row["std_error"]) < 1e-6


def test_mc_estimate_sum_estimator_defaults_to_its_phase(capsys):
    code = run([
        "mc-estimate", "--estimator", "sum-squared",
        "--epsilons", "0", "--n-samples", "2000", "--seed", "4",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert '"psi": 0.0' in printed
    assert '"input_kind": "TWB"' in printed


@pytest.mark.parametrize("estimator", ["quadrature-product", "difference-squared", "sum-squared"])
def test_mc_estimate_names_an_overflow_far_outside_the_domain(tmp_path, capsys, estimator):
    # mu = 1e300 overflows float64: an error naming it, no inf or nan cells
    out = tmp_path / "mc.csv"
    assert run(["mc-estimate", "--estimator", estimator, "--mu", "1e300",
                "--n-samples", "1000", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the error is the last line, after any numpy overflow warnings
    line = captured.err.splitlines()[-1]
    assert line.startswith("holonoise mc-estimate: the ")
    assert "overflows float64" in line
    assert not out.exists()


def test_uncertainty_scan_names_an_overflow_far_outside_the_domain(tmp_path, capsys):
    out = tmp_path / "u.csv"
    assert run(["uncertainty-scan", "--mu", "1e300", "--out", str(out)]) == 1
    line = capsys.readouterr().err.splitlines()[-1]
    assert line.startswith("holonoise uncertainty-scan: the mixed phase derivative")
    assert "overflows float64" in line
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["uncertainty-scan"],
    *(["mc-estimate", "--estimator", estimator, "--n-samples", "1000"]
      for estimator in ("difference-squared", "sum-squared", "quadrature-product")),
], ids=["uncertainty-scan", "difference-squared", "sum-squared", "quadrature-product"])
def test_an_overflowing_run_prints_only_its_error(argv):
    # in a fresh interpreter, where numpy's RuntimeWarnings reach stderr
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-m", "holonoise", *argv, "--mu", "1e300"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith(f"holonoise {argv[0]}: ")


def test_uncertainty_scan_ratios_do_not_drift_far_above_the_domain(tmp_path):
    # each ratio is scale-free once the coherent light dominates, so an ulp
    # offset between a centre and the mean it subtracts, squared by Var[C],
    # would show here as a wrong ratio with no flag
    def row(mu):
        out = tmp_path / f"u_{mu}.csv"
        assert run(["uncertainty-scan", "--grid", "0.01", "--mu", mu, "--out", str(out)]) == 0
        (only,) = read_csv(out)[2]
        assert only["flag"] == ""
        return only

    reference = row("1e20")
    for mu in ("1e40", "1e80"):
        far = row(mu)
        for name in ("ratio_sq", "ratio_twb", "ratio_twb_sum"):
            assert float(far[name]) == pytest.approx(float(reference[name]), rel=1e-10, abs=0.0), \
                (mu, name)


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


def test_mc_estimate_skips_the_expansion_at_a_negative_variance(capsys):
    # twin beams at eta = 1 and phi_0 = 1e-8: roundoff leaves Var[C] < 0,
    # which the summary reports instead of predicting from it
    code = run([
        "mc-estimate", "--estimator", "difference-squared", "--mu", "1e6", "--lam", "10",
        "--eta", "1", "--phi0", "1e-8", "--epsilons", "0,1e-6", "--n-samples", "1000",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "worst |pull|" in printed
    assert "variance expansion skipped: Var[C] = -" in printed
    assert "direct quadrature" not in printed
