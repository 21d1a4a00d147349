import argparse
import io
import json
import math
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from exact_moments import exact_moment
from hypothesis import example, given, settings, strategies as st

from bergmanlab import cli
from bergmanlab.cli import build_parser, main
from bergmanlab.density import remainder_envelope

DATA = Path(__file__).parent / "data"


def captured(argv):
    """Exit status, stdout and stderr of main(argv), captured without a pytest fixture."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(out, err):
    """A refusal prints one line to stderr and nothing to stdout."""
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def run(argv, capsys):
    """Exit status and output of main(argv), whether it returns or argparse exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--rho", "-2", "--m-range", "100:10000", "--points", "5"], "criterion11_rho-2.csv"),
        (
            ["--rho", "-0.7", "--budget-c", "1", "--m-range", "10:1000000000000000000",
             "--points", "200"],
            "sweep_c1_rho-0.7.csv",
        ),
        (
            ["--rho", "2", "--budget-c", "1", "--m-range", "10:1000000000000000000",
             "--points", "200"],
            "sweep_c1_rho2.csv",
        ),
        (
            ["--rho", "0", "--budget-c", "1", "--m-range", "10:1000000000000000000",
             "--points", "200"],
            "sweep_c1_rho0.csv",
        ),
        (
            ["--rho", "-0.7", "--budget-c", "1", "--m-range", "10:1000000000000000000",
             "--points", "20", "--format", "json"],
            "sweep_c1_rho-0.7.json",
        ),
    ],
    ids=["criterion11", "c1_rho-0.7", "c1_rho2", "c1_rho0", "json_c1_rho-0.7"],
)
def test_sweep_matches_golden_csv(argv, golden, tmp_path, capsys):
    out = tmp_path / "sweep.out"
    assert run(["sweep", *argv, "--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


# Each subcommand's options: exactly the settings it reads.
OPTIONS = {
    "sweep": {"--rho", "--m-range", "--points", "--m-list", "--budget-c", "--format", "--out"},
    "verify": {"--eta", "--seed"},
    "cp1": {"--m", "--samples", "--seed"},
    "moments": {"--rho", "--m", "--max-degree", "--radius"},
}
VALID = {
    "sweep": ["--rho", "0", "--m-list", "100"],
    "verify": [],
    "cp1": ["--m", "3"],
    "moments": ["--rho", "0", "--m", "50", "--max-degree", "0"],
}
REMOVED = {"--rel-tol": "1e-6", "--eta": "c1", "--seed": "1", "--v-degrees": "2,3"}


def test_parser_option_sets():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {opt for a in p._actions for opt in a.option_strings if opt not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert found == OPTIONS
    assert sum(len(opts) for opts in found.values()) == 16


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in OPTIONS for f in REMOVED if f not in OPTIONS[c]],
)
def test_unread_flag_exits_2(command, flag, capsys):
    code, _, err = run([command, *VALID[command], flag, REMOVED[flag]], capsys)
    assert code == 2
    assert flag in err


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(
        ["sweep", "--rho", "-2", "--m-range", "100:10000", "--points", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m,rho,density,lo,hi,reference,remainder"
    assert len(lines) == 6
    assert "fitted_C" in stdout
    assert "PASS" in stdout


def test_sweep_deterministic(tmp_path, capsys):
    args = ["sweep", "--rho", "-2", "--m-range", "100:10000", "--points", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_json(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code, _, _ = run(
        ["sweep", "--rho", "0", "--m-list", "100,1000", "--format", "json", "--out", str(out)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [r["m"] for r in payload["reports"]] == [100, 1000]


def test_sweep_json_writes_infinite_fit_as_string(capsys):
    # the envelope underflows to 0.0 at m = 1e34 below a nonzero remainder
    code, stdout, _ = run(
        ["sweep", "--rho", "1e300", "--m-list", "10,10000000000000000000000000000000000",
         "--format", "json"],
        capsys,
    )
    assert code == 1
    assert stdout.endswith("fitted_C = inf\nenvelope exp(-(log m)^2/8): FAIL\n")

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    text = stdout[: stdout.index("fitted_C = ")]
    assert json.loads(text, parse_constant=reject)["fitted_c"] == "inf"


def test_sweep_empty_is_error(capsys):
    code, _, err = run(["sweep", "--rho", "0"], capsys)
    assert code != 0
    assert "empty sweep" in err


@pytest.mark.parametrize("c", ["inf", "nan"])
def test_sweep_rejects_non_finite_budget(c, capsys):
    code, _, err = run(["sweep", "--rho", "0", "--m-list", "100", "--budget-c", c], capsys)
    assert code == 2
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("rho", ["nan", "inf", "-inf", "-Infinity"])
def test_sweep_rejects_non_finite_curvature(rho, capsys):
    code, out, err = run(["sweep", "--rho", rho, "--m-list", "100"], capsys)
    assert (code, out, err) == (2, "", "error: curvature must be finite\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["sweep", "--rho", "0", "--m-list", "100", "--budget-c", "-1e-3"],
         "error: budget constant must be finite and nonnegative, got -0.001\n"),
        (["moments", "--rho", "0", "--m", "100", "--radius", "-1e-3"],
         "error: radius -0.001 outside (0, inf)\n"),
    ],
    ids=["budget-c", "radius"],
)
def test_negative_exponent_values_reach_their_checks(argv, err, capsys):
    assert run(argv, capsys) == (2, "", err)


def test_negative_exponent_values_are_read(capsys):
    code, out, _ = run(["moments", "--rho", "-1e-320", "--m", "100", "--max-degree", "0"], capsys)
    assert code == 0 and out.startswith("p,value,abs_err\n0,")
    assert run(["sweep", "--rho", "-1e-05", "--m-list", "100"], capsys)[1] == run(
        ["sweep", "--rho=-1e-05", "--m-list", "100"], capsys
    )[1]


@settings(max_examples=150, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-1.2e-05)
@example(-5e-324)
def test_sweep_reads_every_finite_rho_as_written_by_repr(rho):
    # the value is read, never taken for an option: a run or a one-line error
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["sweep", "--rho", repr(rho), "--m-list", "100"])
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert "usage:" not in err
    assert code in (0, 1) or (code == 2 and err.startswith("error: ") and err.count("\n") == 1)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_rejects_budget_beyond_double_range(fmt, capsys):
    argv = ["sweep", "--rho", "0", "--m-list", "100", "--budget-c", "1e308", "--format", fmt]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --budget-c 1e+308 puts the interval at m=100 beyond the doubles\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        pytest.param(["sweep", "--rho", "0", "--m-list", "100"], "missing/out.txt", id="argv0"),
        pytest.param(
            ["sweep", "--rho", "0", "--m-list", "100"],
            "/dev/full",  # opens, but the write fails with ENOSPC
            id="dev-full",
            marks=pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full"),
        ),
    ],
)
def test_out_into_missing_directory(argv, out, tmp_path, capsys):
    # an absolute out replaces tmp_path
    code, _, err = run(argv + ["--out", str(tmp_path / out)], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_sweep_single_point_is_lo(capsys):
    code, stdout, _ = run(["sweep", "--rho", "0", "--m-range", "37:1000", "--points", "1"], capsys)
    assert code == 0
    lines = stdout.split("\n")
    assert lines[0] == "m,rho,density,lo,hi,reference,remainder"
    assert lines[1].startswith("37,0.0,") and lines[2].startswith("fitted_C = ")


def test_sweep_rejects_duplicate_m(capsys):
    code, _, err = run(["sweep", "--rho", "0", "--m-list", "100,100,1000"], capsys)
    assert code == 2
    assert "strictly ascending" in err


def test_sweep_m_list_excludes_m_range(capsys):
    code, _, err = run(
        ["sweep", "--rho", "0", "--m-list", "100", "--m-range", "10:1000"], capsys
    )
    assert code == 2
    assert "not allowed" in err


HUGE = str(10**309)  # above 2^1024, the double range
HUGE_M = f"m={HUGE} exceeds the largest double 1.7976931348623157e+308"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["sweep", "--rho", "0", "--m-list", "100,1000", "--points", "7"],
            "--points is only read with --m-range",
        ),
        (["verify", "--seed", "-1"], "--seed must be >= 0"),
        (["moments", "--rho", "0", "--m", "50", "--max-degree", "-1"], "--max-degree must be >= 0"),
        (["moments", "--rho", "0", "--m", "1"], "--m must be >= 2"),
        (["moments", "--rho", "0", "--m", "0"], "--m must be >= 2"),
        (["cp1", "--m", "0"], "m and samples must be >= 1"),
        (["sweep", "--rho", "1", "--m-range", "0:10"], "bad m range '0:10'"),
        (["sweep", "--rho", "1", "--m-list", "10", "--points", "3"],
         "--points is only read with --m-range"),
        (["sweep", "--rho", "1"], "empty sweep"),
        (["sweep", "--rho", "0", "--m-list", "10," + HUGE], HUGE_M),
        (["sweep", "--rho", "0", "--m-range", "10:" + HUGE], HUGE_M),
        (["moments", "--rho", "0", "--m", HUGE], HUGE_M),
        (["cp1", "--m", HUGE], HUGE_M),
        # 10^log10(HI) rounds past the largest double for HI at any of the top 528 doubles
        (["sweep", "--rho", "0", "--m-range", f"10:{int(sys.float_info.max)}"],
         "m=inf exceeds the largest double 1.7976931348623157e+308"),
        (["sweep", "--rho", "0", "--m-list", "5"], "m must be >= 10"),
        (["moments", "--rho", "0", "--m", "100", "--radius", "1e200"],
         "radius 1e+200 too large for m=100 at rho=0.0"),
        (["moments", "--rho", "-8", "--m", "10"],
         "the default radius log(m)/sqrt(m) at m=10, rho=-8.0: "
         "radius 0.7281413400211801 outside (0, 0.5)"),
        (["moments", "--rho", "1e308", "--m", "100"],
         "the default radius log(m)/sqrt(m) at m=100, rho=1e+308: "
         "radius 0.46051701859880917 too large for m=100 at rho=1e+308"),
        (["sweep", "--rho", "0", "--m-range", "10:1000", "--points", "0"],
         "--points must be >= 1"),
        (["sweep", "--rho", "0", "--m-range", "10:1000", "--points", "-1"],
         "--points must be >= 1"),
        (["sweep", "--rho", "0", "--m-range", "10"], "bad m range '10'"),
        (["sweep", "--rho", "0", "--m-range", ":100"], "bad m range ':100'"),
        (["sweep", "--rho", "0", "--m-range", "10:abc"], "bad m range '10:abc'"),
        (["sweep", "--rho", "0", "--m-range", "10:20:30"], "bad m range '10:20:30'"),
        (["sweep", "--rho", "0", "--m-list", "10,abc"], "bad --m-list entry 'abc'"),
    ],
    ids=[
        "points-without-m-range",
        "negative-seed",
        "negative-max-degree",
        "moments-m-1",
        "moments-m-0",
        "cp1-m-0",
        "m-range-from-0",
        "points-with-m-list",
        "empty-sweep",
        "huge-m-list",
        "huge-m-range",
        "huge-moments-m",
        "huge-cp1-m",
        "m-range-end-rounds-past-double",
        "sweep-m-below-10",
        "moments-radius-too-large",
        "moments-default-radius-outside-disk",
        "moments-default-radius-too-large",
        "points-0",
        "points-negative",
        "m-range-without-colon",
        "m-range-without-lo",
        "m-range-hi-not-integer",
        "m-range-three-parts",
        "m-list-entry-not-integer",
    ],
)
def test_bad_value_exits_2_before_output(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "rho, m, p, radius",
    [
        (0.0, 10_000, 10, 30.0),  # 10!/10^44 = 3.6288e-38
        (-6.0, 10**8, 40, 0.577),  # 8.159e-281
        (2.0, 100, 200, 30.0),  # 2.659e290, b = -99 at p = 200
        (1e-320, 100, 30, 0.46051701859880917),  # 2m/rho passes the largest double
    ],
)
def test_moments_table_entry_matches_mpmath(rho, m, p, radius, capsys):
    argv = ["moments", "--rho", repr(rho), "--m", str(m), "--max-degree", str(p)]
    code, stdout, _ = run(argv + ["--radius", repr(radius)], capsys)
    assert code == 0
    last = stdout.strip().split("\n")[-1].split(",")
    assert last[0] == str(p)
    exact = exact_moment(rho, m, p, radius)
    err = abs(mpmath.mpf(last[1]) - exact)
    assert err <= 1e-13 * exact
    assert err <= mpmath.mpf(last[2])


def test_moment_where_two_m_over_rho_overflows_is_fast(capsys):
    # 2m/|rho| passes the largest double: the complement sums the rho = 0
    # terms at x = b y, in place of about 9e6 lower-series terms
    argv = ["moments", "--rho", "1e-320", "--m", "100000000", "--max-degree", "0",
            "--radius", "0.3"]
    start = time.perf_counter()
    code, stdout, _ = run(argv, capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    p, value, abs_err = stdout.strip().split("\n")[-1].split(",")
    assert p == "0"
    assert abs(mpmath.mpf(value) - exact_moment(1e-320, 10**8, 0, 0.3)) <= mpmath.mpf(abs_err)


def test_moment_beyond_double_range_exits_2_before_output(capsys):
    # p!/2^(p+1) passes the largest double at p = 197
    code, out, err = run(["moments", "--rho", "0", "--m", "2", "--max-degree", "200",
                          "--radius", "1e6"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "double range" in err


def test_finite_moments_near_the_radius_bound_exit_0(capsys):
    # m R^2 max(rho, 1) = 8.8e307: the error term for the rounding of w once overflowed
    # here and every row was refused as beyond the double range; p = 0 is 4/9
    code, out, _ = run(["moments", "--rho", "0.5", "--m", "2", "--max-degree", "8",
                        "--radius", "9.38e153"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.split()[1:]]
    assert rows[0][:2] == ["0", "0.4444444444444444"]
    assert rows[8][:2] == ["8", "29127.11111111111"]
    for p, value, abs_err in rows:
        exact = exact_moment(0.5, 2, int(p), 9.38e153)
        assert abs(mpmath.mpf(value) - exact) <= mpmath.mpf(abs_err), (p, value, abs_err)


@pytest.mark.parametrize(
    "rho, m, max_degree, radius",
    [
        ("1e-320", "100", "0", "1e100"),
        ("2.506349287836567e-305", "41834289", "2", "1.8411425050293988e+75"),
        ("9.3828434203e-314", "4", "0", "5.399627073217853e+93"),
    ],
)
def test_moment_where_b_overflows_at_large_radius_is_fast(rho, m, max_degree, radius, capsys):
    # 2m/|rho| overflows and m R^2 > 1e146: Q underflows far below u, and a
    # lower series in b would grow its terms for about m R^2 steps
    argv = ["moments", "--rho", rho, "--m", m, "--max-degree", max_degree, "--radius", radius]
    start = time.perf_counter()
    code, out, _ = run(argv, capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    rows = [line.split(",") for line in out.split()[1:]]
    assert [row[0] for row in rows] == [str(p) for p in range(int(max_degree) + 1)]
    for p, value, abs_err in rows:
        exact = exact_moment(float(rho), int(m), int(p), float(radius))
        assert abs(mpmath.mpf(value) - exact) <= mpmath.mpf(abs_err), (p, value, abs_err)


@pytest.mark.parametrize("m, radius", [(5 * 10**307, "0.9999"), (8 * 10**307, "0.9")],
                         ids=["5e307-0.9999", "8e307-0.9"])
def test_moments_prints_no_nan_where_log_q_bound_passes_the_doubles(m, radius, capsys):
    argv = ["moments", "--rho", "-2", "--m", str(m), "--max-degree", "30", "--radius", radius]
    code, out, _ = run(argv, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.split()[1:]]
    assert len(rows) == 31 and "nan" not in out
    for p, value, abs_err in rows[:4]:
        exact = exact_moment(-2.0, m, int(p), float(radius))
        assert abs(mpmath.mpf(value) - exact) <= mpmath.mpf(abs_err), (p, value, abs_err)


def test_moments_rejects_zero_radius(capsys):
    code, _, err = run(["moments", "--rho", "0", "--m", "50", "--radius", "0"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("rho", ["0", "-0.0", "5e-324", "1e-310"])
def test_moments_refuses_a_radius_whose_m_r_squared_passes_the_doubles(rho):
    # ((m R) R) rounds to the largest double and m (R R) to inf.  The gate forms the
    # second, as Q's sum does: were it to pass, Q's first term would be inf, log Q NaN
    # at rho = 0, and at rho = 1e-310 log(inf) would send the row to a Decimal series
    # that overflows.
    code, out, err = captured(["moments", f"--rho={rho}", "--m", "3", "--max-degree", "11",
                               "--radius", "7.741001517595157e+153"])
    assert code == 2
    assert_one_error_line(out, err)
    assert err == f"error: radius 7.741001517595157e+153 too large for m=3 at rho={float(rho)!r}\n"


def test_verify_default_passes(capsys):
    code, stdout, _ = run(["verify"], capsys)
    assert code == 0
    for suite in (
        "ode_residuals",
        "eta_bounds",
        "psi_hessian",
        "quadrature_vs_closed_form",
        "schur_vs_inverse",
        "cp1_constancy",
    ):
        assert f"PASS {suite}" in stdout


@pytest.mark.parametrize("eta", ["c1", "smooth"])
@pytest.mark.parametrize("seed", [0, 7])
def test_verify_matches_golden(seed, eta, capsys):
    code, stdout, _ = run(["verify", "--seed", str(seed), "--eta", eta], capsys)
    assert code == 0
    # schur_vs_inverse goes through LAPACK, whose last bits depend on the build
    pinned = [line for line in stdout.splitlines(True) if "schur_vs_inverse" not in line]
    assert "".join(pinned) == (DATA / f"verify_seed{seed}_{eta}.txt").read_text()


def test_verify_recurrence_within_four_units_roundoff(capsys):
    # The benchmark's verify accuracy is the largest "rel dev" of all suites.
    # The moment recurrence suite draws no random numbers, so its deviation
    # is one value for every seed; it stays within 4u = 2^-51.
    code, stdout, _ = run(["verify"], capsys)
    assert code == 0
    dev = re.search(r"quadrature_vs_closed_form: max rel dev (\S+) \(tol 1.0e-12\)", stdout)
    assert float(dev[1]) <= 4 * 2.0**-53


def test_verify_smooth_profile_flagged_not_failed(capsys):
    code, stdout, _ = run(["verify", "--eta", "smooth"], capsys)
    assert code == 0
    assert "FLAG eta_bounds" in stdout


def test_verify_failing_suite_exits_1_and_is_named(monkeypatch, capsys):
    monkeypatch.setattr(cli.density, "cp1_density", lambda m, z: 0.0)
    code, stdout, stderr = run(["verify"], capsys)
    assert code == 1
    lines = stdout.splitlines()
    assert [line.split()[1] for line in lines] == [f"{name}:" for name, _ in cli._SUITES]
    assert [line.split()[0] for line in lines] == ["PASS"] * 5 + ["FAIL"]
    assert lines[-1] == "FAIL cp1_constancy: max rel dev from m+1: 1.000e+00 (tol 1e-9)"
    assert stderr == "failing suites: cp1_constancy\n"


def test_verify_reports_a_negative_hessian_margin(monkeypatch, capsys):
    monkeypatch.setattr(cli.cutoff, "psi_hessian_bound_check", lambda *args: -1.0)
    code, stdout, stderr = run(["verify"], capsys)
    assert code == 1
    assert "FAIL psi_hessian: margin -1.000e+00 at (m=1000, p'=2)\n" in stdout
    assert stderr == "failing suites: psi_hessian\n"


class StubProfile:
    name = "stub"
    d2_bound = 24.0

    def __init__(self, d1, d2):
        self.eta_d1, self.eta_d2 = d1, d2


@pytest.mark.parametrize(
    "d1, d2, outcome",
    [
        # the slope turns positive past t = 1
        (lambda t: 1e-6 if t > 1.0 else -1.0, lambda t: 0.0,
         ("FAIL", "slope bound violated (max -eta' = 1.000)")),
        (lambda t: -5.0, lambda t: 0.0, ("FAIL", "slope bound violated (max -eta' = 5.000)")),
        (lambda t: -1.0, lambda t: -30.0 if t > 0.6 else 1.0,
         ("FAIL", "|eta''| = 30.000 exceeds documented bound")),
        (lambda t: -1.0, lambda t: 12.0,
         ("FLAG", "profile stub: |eta''| <= 12.0 (documented 24-bound variant)")),
        # a slope of 1e-9 is within the tolerance; an all-positive slope reads max -eta' = 0
        (lambda t: 1e-9, lambda t: -8.0,
         ("PASS", "max -eta' = 0.000 <= 4, max |eta''| = 8.000 <= 8")),
    ],
    ids=["positive-slope", "steep-slope", "d2-beyond-bound", "d2-within-bound", "edge"],
)
def test_eta_bounds_outcomes(d1, d2, outcome, monkeypatch):
    monkeypatch.setattr(cli.cutoff, "get_profile", lambda name: StubProfile(d1, d2))
    assert cli._suite_eta_bounds(argparse.Namespace(eta="stub"), None) == outcome


def list_eta_bounds(profile):
    """The eta_bounds suite on profile in its earlier form: two sample lists, then reductions."""
    ts = [1.2 * (i + 0.5) / 10_000 for i in range(10_000)]
    d1 = list(map(profile.eta_d1, ts))
    max_d1 = max(0.0, -min(d1))
    max_d2 = max(0.0, max(map(abs, map(profile.eta_d2, ts))))
    if max(d1) > 1e-9 or max_d1 > 4.0 + 1e-9:
        return ("FAIL", f"slope bound violated (max -eta' = {max_d1:.3f})")
    if max_d2 > 8.0 + 1e-9:
        if max_d2 <= profile.d2_bound + 1e-9:
            return ("FLAG", f"profile {profile.name}: |eta''| <= {max_d2:.1f} "
                            f"(documented {profile.d2_bound:.0f}-bound variant)")
        return ("FAIL", f"|eta''| = {max_d2:.3f} exceeds documented bound")
    return ("PASS", f"max -eta' = {max_d1:.3f} <= 4, max |eta''| = {max_d2:.3f} <= 8")


@pytest.mark.parametrize(
    "profile",
    [cli.cutoff.C1_PROFILE, cli.cutoff.SMOOTH_PROFILE,
     StubProfile(lambda t: 1e-6 if t > 1.0 else -1.0, lambda t: 0.0),
     StubProfile(lambda t: -5.0, lambda t: 0.0),
     StubProfile(lambda t: -1.0, lambda t: -30.0 if t > 0.6 else 1.0),
     StubProfile(lambda t: -1.0, lambda t: 12.0),
     StubProfile(lambda t: 1e-9, lambda t: -8.0),
     # signed zeros, and a slope that is positive everywhere
     StubProfile(lambda t: -0.0, lambda t: -0.0),
     StubProfile(lambda t: 0.5 + t, lambda t: t - 0.6)],
    ids=["c1", "smooth", "positive-slope", "steep-slope", "d2-beyond-bound", "d2-within-bound",
         "edge", "negative-zeros", "rising"],
)
def test_eta_bounds_matches_list_form(profile, monkeypatch):
    monkeypatch.setattr(cli.cutoff, "get_profile", lambda name: profile)
    assert cli._suite_eta_bounds(argparse.Namespace(eta="x"), None) == list_eta_bounds(profile)


def test_eta_bounds_samples_the_list_form_grid(monkeypatch):
    seen = []
    monkeypatch.setattr(cli.cutoff, "get_profile",
                        lambda name: StubProfile(lambda t: seen.append(t) or -1.0, lambda t: 0.0))
    cli._suite_eta_bounds(argparse.Namespace(eta="x"), None)
    assert seen == [1.2 * (i + 0.5) / 10_000 for i in range(10_000)]


NAN = math.nan
# the first grid points past 0.6 and 0.65, and the first of all
T_06, T_065, T_0 = 0.6 * 10_001 / 10_000, 0.6 * 10_835 / 10_000, 0.6 / 10_000


@pytest.mark.parametrize(
    "d1, d2, detail",
    [
        (lambda t: NAN if 0.6 < t < 0.7 else -1.0, lambda t: 0.0, f"eta' is nan at t = {T_06!r}"),
        (lambda t: -1.0, lambda t: NAN if t > 0.65 else 1.0, f"eta'' is nan at t = {T_065!r}"),
        # eta'' turns nan before eta' does
        (lambda t: NAN if t > 0.65 else -1.0, lambda t: NAN if t > 0.6 else 1.0,
         f"eta'' is nan at t = {T_06!r}"),
        (lambda t: NAN, lambda t: NAN, f"eta' is nan at t = {T_0!r}"),
        (lambda t: 0.0, lambda t: NAN, f"eta'' is nan at t = {T_0!r}"),
    ],
    ids=["d1-on-an-interval", "d2-past-a-point", "d2-first", "all-nan", "d2-all-nan"],
)
def test_eta_bounds_fails_a_nan_sample(d1, d2, detail, monkeypatch):
    # every comparison with nan is false, so the list form read these as PASS
    monkeypatch.setattr(cli.cutoff, "get_profile", lambda name: StubProfile(d1, d2))
    assert cli._suite_eta_bounds(argparse.Namespace(eta="stub"), None) == ("FAIL", detail)


@pytest.mark.parametrize("eta", ["c1", "smooth"])
def test_verify_samples_eta_derivatives_once_per_grid_point(eta, monkeypatch):
    # 10_000 samples of each in eta_bounds, and RADIAL_POINTS in each psi_hessian check
    calls = {"eta_d1": 0, "eta_d2": 0}
    get_profile = cli.cutoff.get_profile

    def counting(name):
        profile = get_profile(name)

        def counted(attr):
            method = getattr(profile, attr)

            def call(t):
                calls[attr] += 1
                return method(t)
            return call
        return StubProfile(counted("eta_d1"), counted("eta_d2"))

    monkeypatch.setattr(cli.cutoff, "get_profile", counting)
    with redirect_stdout(io.StringIO()):
        cli.main(["verify", "--eta", eta])
    each = 10_000 + 3 * cli.cutoff.RADIAL_POINTS
    assert calls == {"eta_d1": each, "eta_d2": each}


def test_cp1_command(capsys):
    code, stdout, _ = run(["cp1", "--m", "3", "--samples", "20"], capsys)
    assert code == 0
    last = stdout.strip().split("\n")[-1]
    max_dev = float(last.rsplit(" ", 1)[-1])
    assert max_dev <= 1e-9


def test_cp1_large_m_stable(capsys):
    code, stdout, _ = run(["cp1", "--m", "64", "--samples", "20"], capsys)
    assert code == 0
    max_dev = float(stdout.strip().split("\n")[-1].rsplit(" ", 1)[-1])
    assert max_dev <= 1e-9


def test_cp1_refuses_window_beyond_limit_before_output(capsys):
    code, out, err = run(["cp1", "--m", "100000000000000000000", "--samples", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: 6.5e+10-term window at m=100000000000000000000")
    assert err.count("\n") == 1


def test_moments_command(capsys):
    code, stdout, _ = run(["moments", "--rho", "-2", "--m", "50", "--max-degree", "2"], capsys)
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "p,value,abs_err"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    radius = math.log(50) / math.sqrt(50)
    for p, value, abs_err in rows:
        exact = exact_moment(-2.0, 50, int(p), radius)
        assert float(value) > 0.0
        assert abs(mpmath.mpf(value) - exact) <= mpmath.mpf(abs_err)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.floats(min_value=-2.0, max_value=4.0), st.sampled_from([1e-300, -1e-300])),
    st.integers(min_value=2, max_value=10**8),
    st.integers(min_value=0, max_value=10),
)
def test_moments_rows_hold_their_error_bars(rho, m, max_degree):
    sink = io.StringIO()
    with redirect_stdout(sink):
        code = main(["moments", f"--rho={rho!r}", "--m", str(m), "--max-degree", str(max_degree)])
    assert code == 0
    lines = sink.getvalue().split()
    assert lines[0] == "p,value,abs_err" and len(lines) == max_degree + 2
    radius = math.log(m) / math.sqrt(m)
    for line in lines[1:]:
        p, value, abs_err = line.split(",")
        exact = exact_moment(rho, m, int(p), radius)
        assert abs(mpmath.mpf(value) - exact) <= mpmath.mpf(abs_err), (p, value, abs_err)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=2, max_value=10**12),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, exclude_min=True),
)
@example(1e-320, 100, 0, 1e100)  # 2m/|rho| overflows and m R^2 = 1e202
@example(-5e-324, 10**12, 3, 1e161)  # m R^2 overflows
@example(-2.0, 100, 3, 1e-300)  # 1 - y cancels 600 digits in the lower series
def test_moments_exits_0_with_finite_rows_or_2_with_one_line(rho, m, max_degree, radius):
    code, out, err = captured(["moments", f"--rho={rho!r}", "--m", str(m),
                               "--max-degree", str(max_degree), f"--radius={radius!r}"])
    if code == 0:
        lines = out.split()
        assert lines[0] == "p,value,abs_err" and len(lines) == max_degree + 2
        for line in lines[1:]:
            _, value, abs_err = map(float, line.split(","))
            assert math.isfinite(value) and math.isfinite(abs_err) and abs_err >= 0.0, line
    else:
        assert code == 2
        assert_one_error_line(out, err)


@settings(max_examples=60, deadline=None)
@given(
    # up to m = 1e6 every window is small; from 1e20 on, every |z| in [6e-5, 1.7e4] is
    # refused before any term is summed (and |z| is drawn from [0, 3])
    st.one_of(st.integers(max_value=10**6), st.integers(min_value=10**20, max_value=10**400)),
    st.integers(min_value=-1, max_value=5),
    st.integers(),
)
@example(0, 1, 0)
@example(10**6, 0, 0)
@example(10**309, 1, 0)  # beyond the largest double
def test_cp1_exits_0_with_finite_rows_or_2_with_one_line(m, samples, seed):
    code, out, err = captured(["cp1", f"--m={m}", f"--samples={samples}", f"--seed={seed}"])
    if code == 0:
        lines = out.splitlines()
        assert lines[0] == "z_re,z_im,density,deviation" and len(lines) == samples + 2
        for line in lines[1:-1]:
            assert all(math.isfinite(float(v)) for v in line.split(",")), line
        assert lines[-1].startswith(f"closed form: {float(m + 1)!r}; max relative deviation: ")
        assert err == ""
    else:
        assert code == 2
        assert_one_error_line(out, err)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-(2**64), max_value=2**70), st.sampled_from(["c1", "smooth"]))
@example(-1, "c1")
def test_verify_exits_0_or_1_with_six_lines_or_2_with_one_line(seed, eta):
    code, out, err = captured(["verify", f"--seed={seed}", f"--eta={eta}"])
    if code == 2:
        assert_one_error_line(out, err)
        return
    lines = out.splitlines()
    assert [line.split()[1] for line in lines] == [f"{name}:" for name, _ in cli._SUITES]
    failing = [line.split()[1][:-1] for line in lines if line.startswith("FAIL ")]
    if code == 0:
        assert failing == [] and err == ""
    else:
        assert code == 1 and err == f"failing suites: {', '.join(failing)}\n"


def test_gram_command_is_gone(capsys):
    code, stdout, _ = run(["gram", "--rho", "0", "--m", "100"], capsys)
    assert code == 2
    assert stdout == ""


@pytest.mark.parametrize("rho", [4, 10])
def test_sweep_small_m_positive_curvature_matches_mpmath(rho, capsys):
    # x = rho (log m)^2 / 2m >= 1 at m = 10, 12 and 13 (rho = 4) and at every m here for rho = 10
    code, out, _ = run(["sweep", "--rho", str(rho), "--m-list", "10,12,13"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.split("\n")[1:4]]
    with mpmath.workdps(50):
        for row in rows:
            m = int(row[0])
            x = mpmath.mpf(rho) * mpmath.log(m) ** 2 / (2 * m)
            t = (1 + x) ** (-1 - mpmath.mpf(2 * m) / rho)
            exact = (m + mpmath.mpf(rho) / 2) * t / (1 - t)
            assert abs(float(row[6]) - exact) <= 1e-15 * exact, m


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=sys.float_info.max),
    st.lists(st.integers(min_value=10, max_value=10**40), min_size=1, max_size=4, unique=True),
)
@example(0.0, [10, 10**34])  # e^(-(log m)^2/8) underflows to 0.0 from m near 3e33
@example(1e300, [10, 10**34])  # remainder 1.6e30 there
@example(sys.float_info.max, [10, 100, 10**18])  # rho (log m)^2 / 2 overflows at each m
def test_sweep_verdict_is_envelope_check(rho, ms):
    sink = io.StringIO()
    with redirect_stdout(sink):
        code = main(["sweep", f"--rho={rho!r}", "--m-list", ",".join(map(str, sorted(ms)))])
    rows = [line.split(",") for line in sink.getvalue().split("\n")[1 : len(ms) + 1]]
    held = all(abs(float(row[6])) <= remainder_envelope(int(row[0])) for row in rows)
    assert code == (0 if held else 1)


@pytest.mark.parametrize("rho", ["1e308", "1.7976931348623157e+308"])
def test_sweep_at_huge_rho_matches_mpmath(rho, capsys):
    # rho (log m)^2 / 2 passes the largest double before the division by m
    code, out, _ = run(["sweep", "--rho", rho, "--m-list", "100"], capsys)
    assert code == 1
    remainder = float(out.split("\n")[1].split(",")[6])
    with mpmath.workdps(50):
        x = mpmath.mpf(rho) * mpmath.log(100) ** 2 / 200
        t = mpmath.exp(-(1 + 200 / mpmath.mpf(rho)) * mpmath.log1p(x))
        exact = (100 + mpmath.mpf(rho) / 2) * t / (1 - t)
        assert abs(remainder - exact) <= 1e-12 * exact


def test_sweep_outside_model_disk_exits_2_before_output(capsys):
    code, out, err = run(["sweep", "--rho", "-8", "--m-list", "10"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "m=10" in err and "rho=-8.0" in err


def test_sweep_accepts_the_default_radius_that_moments_accepts(capsys):
    # rho (log m)^2 / 2m rounds to -1 here, though R = log m / sqrt m is inside the disk
    rho = "-12.187385258115526"
    code, out, err = run(["sweep", "--rho", rho, "--m-list", "155"], capsys)
    assert code == 0, err
    assert run(["moments", "--rho", rho, "--m", "155"], capsys)[0] == 0
    lo, hi = map(float, out.splitlines()[1].split(",")[3:5])
    assert lo <= 155 + Fraction(rho) / 2 <= hi


def test_invalid_rho_domain(capsys):
    # truncation disk does not fit in the model disk
    code, _, err = run(["sweep", "--rho", "-50", "--m-list", "10"], capsys)
    assert code != 0
    assert "error" in err
