import argparse
import json
import math
import pathlib
import re

import numpy as np
import pytest

from conftest import brute_force_spin_pmf

from begphase import cli, diagram, limits
from begphase.canonical import second_order_coupling, solve_canonical
from begphase.cli import fmt, main
from begphase.core import CanonicalParams, MicroParams, energy_domain
from begphase.diagram import tricritical_micro
from begphase.micro import micro_criticals, solve_micro

DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("x, text", [
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (-0.0, "-0"),
    (5e-324, "4.94065645841e-324"), (2.2250738585072014e-308, "2.22507385851e-308"),
    (0.1 + 0.2, "0.3"), (1.0, "1"), (123456789012.5, "123456789012"),
    (True, "true"), (np.bool_(False), "false"), (7, "7"), (np.int64(-3), "-3"),
    (np.float64(1.0 / 3.0), "0.333333333333"), (np.float64(-math.inf), "-inf"),
    (None, ""),
])
def test_fmt_pins_the_cell_text(x, text):
    assert fmt(x) == text


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(out):
    """The data rows of a csv output, split into cells."""
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


def test_canon_critical_prints_tricritical_coupling(capsys):
    # decimals of log 4 on either side get the record of their side: above
    # it the three first-order couplings, which round to one 12-digit value
    records = {}
    for beta in ("1.3862943", "1.3862944"):
        code, out, _ = run(capsys, ["canon-critical", "--beta", beta])
        assert code == 0
        header, cols, row = [l for l in out.splitlines() if l][-3:]
        records[beta] = dict(zip(cols.split(","), row.split(",")))
    below, above = records["1.3862943"], records["1.3862944"]
    assert below["Kc2"] == "1.08202128428" and below["Kc1"] == ""
    assert above["Kc2"] == ""
    assert above["K1"] == above["Kc1"] == above["K2"] == "1.08202127837"
    assert above["w1"] == "0.00062353916666"


def test_micro_critical_region_in_the_pinch_band(capsys):
    # K exceeds the printed C there; the quartic in floats read 'below'
    code, out, _ = run(capsys, ["micro-critical", "--u", "0.498",
                                "--K", "0.502008037305"])
    assert code == 0
    assert out.splitlines()[-1] == "0.498,1.43196183483,,0.502008032285,above"


def test_pmf_two_sites_matches_enumeration(capsys):
    code, out, _ = run(capsys, ["pmf", "--n", "2", "--beta", "1", "--K", "1"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].split(",")[:2] == ["k", "probability"]
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 5
    expect = brute_force_spin_pmf(2, 1.0, 1.0)
    for (k, p, _), e in zip(rows, expect):
        assert abs(float(p) - e) < 1e-10


def test_byte_identical_reruns(capsys):
    argv = ["limits", "--beta", "1", "--K", "1", "--mode", "metropolis",
            "--n", "10", "--steps", "2000", "--seed", "3"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2

    argv = ["canon", "--beta", "1.1", "--K", "1.4", "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["canon", "--beta", "1", "--K", "1", "--frobnicate"])
    assert exc.value.code == 64


COMMANDS = ("canon", "canon-critical", "micro", "micro-critical",
            "diagram-canon", "diagram-micro", "equivalence", "limits", "pmf",
            "oracle")

# one argv per command, every flag it takes set
_ARGVS = (
    ["canon", "--beta", "1", "--K", "1.5", "--format", "json"],
    ["canon-critical", "--beta", "2", "--out", "c.csv"],
    ["micro", "--u", "0.4", "--K", "1.2", "--threads", "1"],
    ["micro-critical", "--u", "0.25", "--K", "1.0"],
    ["diagram-canon", "--beta-grid", "0.5:3:0.1", "--K-grid", "0.8:1.4:0.05",
     "--curves-out", "curves.csv"],
    ["diagram-micro", "--u-grid", "0.2:0.6:0.05", "--K-grid", "0.8:1.6:0.1",
     "--curves-out", "curves.csv"],
    ["equivalence", "--K", "1.0817"],
    ["limits", "--beta", "1", "--K", "1", "--mode", "conditioned", "--ns",
     "10,20", "--j", "-", "--a", "0.1", "--n", "5", "--steps", "10",
     "--seed", "3"],
    ["pmf", "--n", "2", "--beta", "1", "--K", "1"],
    ["oracle", "--kind", "micro", "--beta", "1", "--u", "0.3", "--K", "0.5",
     "--tol", "1e-3", "--grid-step", "1e-3"],
)


class _Built(Exception):
    pass


@pytest.mark.parametrize("argv", _ARGVS, ids=lambda argv: argv[0])
def test_main_builds_the_named_subparser_alone(monkeypatch, argv):
    # the parser main builds holds the one command argv names, and parses
    # argv to the Namespace the full parser gives
    build_parser = cli.build_parser

    def built(cmd=None):
        raise _Built(build_parser(cmd))

    monkeypatch.setattr(cli, "build_parser", built)
    with pytest.raises(_Built) as exc:
        main(argv)
    parser = exc.value.args[0]
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [argv[0]]
    assert parser.parse_args(argv) == build_parser().parse_args(argv)


def test_one_argv_per_command():
    assert tuple(argv[0] for argv in _ARGVS) == COMMANDS


def _help_golden():
    text = (DATA / "cli_help.txt").read_text()
    blocks = text.split("$ begphase ")[1:]
    return {block.split("\n", 1)[0]: block.split("\n", 1)[1] for block in blocks}


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in COMMANDS],
                         ids=" ".join)
def test_help_bytes_do_not_change(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == _help_golden()[" ".join(argv)]


def test_unknown_command_exits_64_naming_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "invalid choice" in err and "no-such-command" in err
    assert tuple(re.findall(r"[\w-]+", err.split("choose from", 1)[1])) == COMMANDS


def test_usage_error_after_a_command_prints_the_full_usage(capsys, monkeypatch):
    # an argument left over from the subparser is reported by the top-level
    # parser, whose usage line names all ten commands whichever are built
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["canon", "--beta", "1", "--K", "1", "extra"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == full.value.code == 64
    assert got == capsys.readouterr()
    assert "{" + ",".join(COMMANDS) + "}" in got.err


def test_domain_error_exits_2_and_names_precondition(capsys):
    code, _, err = run(capsys, ["micro", "--u", "5", "--K", "1"])
    assert code == 2
    assert "domain error" in err
    assert "attainable energy range" in err


def test_metropolis_bad_seed_exits_2(capsys):
    # a negative seed let numpy's ValueError escape as a traceback
    code, _, err = run(capsys, ["limits", "--beta", "1", "--K", "1",
                                "--mode", "metropolis", "--n", "5",
                                "--steps", "10", "--seed", "-1"])
    assert code == 2
    assert "seed must be a nonnegative integer" in err


def test_metropolis_steps_beyond_the_trace_bound_exit_2(capsys):
    # numpy's _ArrayMemoryError for a 36 TiB per-step trace once escaped with
    # exit 1; the bound now caps the run time, checked before the chain runs
    code, out, err = run(capsys, ["limits", "--beta", "1", "--K", "1",
                                  "--mode", "metropolis", "--n", "5",
                                  "--steps", "10000000000000", "--seed", "0"])
    assert code == 2 and out == ""
    assert "MAX_METROPOLIS_STEPS" in err and "run time of the chain" in err


@pytest.mark.parametrize("argv, spec", [
    (["diagram-canon", "--beta-grid", "1:2:nan", "--K-grid", "1:1:1"], "1:2:nan"),
    (["diagram-micro", "--u-grid", "nan:1:0.1", "--K-grid", "1:1:1"],
     "nan:1:0.1"),
    (["diagram-canon", "--beta-grid", "1:inf:1", "--K-grid", "1:1:1"], "1:inf:1"),
])
def test_non_finite_grid_spec_exits_2(capsys, argv, spec):
    # float("nan") parsed, and range() or int() then raised ValueError or
    # OverflowError with exit code 1
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "finite" in err and repr(spec) in err


@pytest.mark.parametrize("spec, reason", [
    ("1:2", "must be start:stop:step"),
    ("2:1:0.5", "step > 0 and stop >= start"),
    ("1:2:0", "step > 0 and stop >= start"),
], ids=["1:2", "2:1:0.5", "1:2:0"])
def test_malformed_grid_spec_exits_2(capsys, spec, reason):
    code, out, err = run(capsys, ["diagram-canon", "--beta-grid", spec,
                                  "--K-grid", "1:1:1"])
    assert code == 2 and out == ""
    assert reason in err and repr(spec) in err


@pytest.mark.parametrize("spec", ["0:1e300:1e-10", "0:1e300:1", "0:1:1e-6"])
def test_oversized_grid_spec_exits_2(capsys, spec):
    # the point count of the first overflowed int() with exit code 1; the
    # second would have built a 1e300-point list before any check
    code, out, err = run(capsys, ["diagram-canon", "--beta-grid", spec,
                                  "--K-grid", "1:1:1"])
    assert code == 2 and out == ""
    assert "more than 1000000 points" in err and repr(spec) in err


@pytest.mark.parametrize("mode", ["ks", "conditioned"])
@pytest.mark.parametrize("ns, item", [("5,a", "a"), (",", ""), ("1.5", "1.5")])
def test_non_integer_ns_exits_2(capsys, mode, ns, item):
    code, out, err = run(capsys, ["limits", "--beta", "1", "--K", "1",
                                  "--mode", mode, "--ns", ns])
    assert code == 2 and out == ""
    assert f"got {item!r} in {ns!r}" in err


@pytest.mark.parametrize("u", ["nan", "inf"])
def test_micro_critical_non_finite_u_exits_2(capsys, u):
    # printed nan,,,, and inf,,,, with exit code 0
    code, out, err = run(capsys, ["micro-critical", "--u", u])
    assert code == 2 and out == ""
    assert "u must be finite" in err


@pytest.mark.parametrize("K", ["0", "-1", "5"])
def test_micro_critical_invalid_coupling_exits_2(capsys, K):
    # (u, K) = (-10, K) is no MicroParams: K <= 0, or u below 1 - K
    code, out, _ = run(capsys, ["micro-critical", "--u", "-10", "--K", K])
    assert code == 2 and out == ""


@pytest.mark.parametrize("beta, K", [("1", "1e308"), ("300", "1e307"),
                                     ("0.5", "1e200")])
def test_canon_tilt_beyond_the_float_range_exits_2(capsys, beta, K):
    # a BracketError traceback on [0, inf], or min_value = inf
    code, out, err = run(capsys, ["canon", "--beta", beta, "--K", K])
    assert code == 2 and out == ""
    assert "2 beta K" in err


@pytest.mark.parametrize("argv", [["micro", "--u", "0.5", "--K", "1e300"],
                                  ["micro-critical", "--u", "0.2", "--K", "1e300"]])
def test_micro_quartic_beyond_the_float_range_exits_2(capsys, argv):
    # K ** 6 of the shell-rate quartic raised OverflowError: exit code 1
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "K ~ 1.5e51" in err


@pytest.mark.parametrize("argv, message", [
    (["--kind", "canonical", "--beta", "1", "--K", "-1"],
     "K must be finite and positive, got -1.0"),
    (["--kind", "micro", "--u", "0.3", "--K", "0"],
     "K must be finite and positive, got 0.0"),
    (["--kind", "canonical", "--beta", "1", "--K", "1", "--tol", "0.5"],
     "tolerance must lie in [1e-14, 1e-2], got 0.5"),
], ids=["canonical-K", "micro-K", "tol"])
def test_oracle_invalid_parameter_exits_2(capsys, argv, message):
    # the canonical scan at K = -1 printed a minimum with exit code 0, and
    # the micro scan at K = 0 divided by zero
    code, out, err = run(capsys, ["oracle", *argv])
    assert code == 2 and out == ""
    assert err == f"domain error: {message}\n"


def test_micro_at_the_bottom_of_the_energy_range(capsys):
    # the admissible set used to come out empty there: RuntimeError
    code, out, _ = run(capsys, ["micro", "--u", "-908.657904254718",
                                "--K", "909.6579042547181"])
    assert code == 0
    assert "# phase=pair" in out.splitlines()


def test_large_beta_exits_2(capsys):
    for argv in (["canon", "--beta", "800", "--K", "1"],
                 ["canon-critical", "--beta", "800"]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "BETA_MAX" in err


def test_canon_near_log4_classifies_the_origin(capsys):
    # G''(0) falls under DERIV_ZERO_TOL there; a RuntimeError used to escape
    code, out, _ = run(capsys, ["canon", "--beta", "1.3862946035660924",
                                "--K", "1.082021266322187"])
    assert code == 0
    assert "# phase=triple" in out
    rows = [l.split(",") for l in out.splitlines()
            if not l.startswith("#")][1:]
    assert [r[-1] for r in rows if float(r[0]) == 0.0] == ["1"]


def test_canon_just_above_the_second_order_coupling(capsys):
    # Kc2(1.0) + 256 ulps: the well is at 4.3675e-7, and plain floats read
    # the origin alone, of type 2
    code, out, _ = run(capsys, ["canon", "--beta", "1", "--K",
                                "1.179570457114818"])
    assert code == 0
    assert "# phase=pair" in out
    assert [r[0] for r in csv_rows(out)] == ["-4.36749740395e-07",
                                             "4.36749740395e-07"]


def test_canon_in_the_snap_band(capsys):
    # beta = log 4 + 1.8e-9, in (log 4, log 4 + 1e-7] where decimals of
    # log 4 fall, and K = 3/(2 log 4) - 1e-10: the origin is no minimizer
    # there, and a RuntimeError escaped
    code, out, _ = run(capsys, ["canon", "--beta", "1.3862943629346534",
                                "--K", "1.0820212805667226"])
    assert code == 0
    assert "# phase=pair" in out
    sol = solve_canonical(CanonicalParams(1.3862943629346534,
                                          1.0820212805667226))
    assert [r[0] for r in csv_rows(out)] == [fmt(z) for z in sol.z_points]


def test_canon_at_a_tiny_coupling(capsys):
    # 2 beta K^2 = 2e-480 underflows: a ZeroDivisionError traceback
    code, out, _ = run(capsys, ["canon", "--beta", "1e-160", "--K", "1e-160"])
    assert code == 0
    assert "# phase=unique" in out.splitlines()
    assert [r[0] for r in csv_rows(out)] == ["0"]


@pytest.mark.parametrize("argv", [
    ["--beta", "2", "--K", "400", "--mode", "classify"],
    ["--beta", "300", "--K", "1.3862943611198906", "--mode", "conditioned",
     "--ns", "10,20"],
], ids=["classify", "conditioned"])
def test_limits_with_an_underflowed_variance_exits_2(capsys, argv):
    # the minimizer rounds to +-1: a RuntimeError traceback, exit code 1
    code, out, err = run(capsys, ["limits", *argv])
    assert code == 2 and out == ""
    assert "asymptotic variance" in err


def test_limits_ks_where_the_minimizers_round_to_one(capsys):
    # the phase weights read G'', a float at +-1, and no asymptotic variance:
    # this exited 2 with the classify and conditioned cases above
    code, out, _ = run(capsys, ["limits", "--beta", "2", "--K", "400",
                                "--mode", "ks", "--ns", "500,1000,2000"])
    assert code == 0
    assert csv_rows(out) == [["500", "0"], ["1000", "0"], ["2000", "0"]]


def test_limits_classify_at_a_tiny_coupling(capsys):
    # (2 beta K)^2 underflows, but G''(0) = 2e-200 and the variance do not:
    # this exited 2 naming the asymptotic variance
    code, out, _ = run(capsys, ["limits", "--beta", "1", "--K", "1e-200",
                                "--mode", "classify"])
    assert code == 0
    assert out.splitlines()[-1] == "0,1,2e-200,0,-0,0.423883115234"


def test_canon_sixth_derivative_overflow_exits_2(capsys):
    # the classification asks for G and exits 2 where it overflows;
    # canon decides the types without it and prints the pair at +-1
    K = second_order_coupling(150.0) * (1.0 + 1e-6)
    code, _, err = run(capsys, ["limits", "--beta", "150", "--K", repr(K),
                                "--mode", "classify"])
    assert code == 2
    assert "overflows the float range" in err
    code, out, _ = run(capsys, ["canon", "--beta", "150", "--K", repr(K)])
    assert code == 0
    assert "# phase=pair" in out.splitlines()


def test_json_format_rounding(capsys):
    code, out, _ = run(capsys, ["canon", "--beta", "1", "--K", "1.5",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["phase"] == "pair"
    zs = [row["z"] for row in doc["rows"]]
    assert zs == sorted(zs)
    assert abs(zs[1] - 0.778646619440) < 1e-10
    # 12 significant digits survive the JSON round-trip
    assert len(f"{abs(zs[1]):.15g}".replace(".", "").rstrip("0")) <= 12


def test_diagram_canon_csv(capsys, tmp_path):
    out_file = tmp_path / "rows.csv"
    curves_file = tmp_path / "curves.csv"
    code = main(["diagram-canon", "--beta-grid", "0.8:1.2:0.2",
                 "--K-grid", "1.0:1.4:0.2", "--out", str(out_file),
                 "--curves-out", str(curves_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "beta,K,branch,z1,z2,z3,G_min"
    data = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
    assert len(data) == 9
    uniques = [d for d in data if d[2] == "unique"]
    pairs = [d for d in data if d[2] == "pair"]
    assert uniques and pairs
    assert all(d[4] == "" and d[5] == "" for d in uniques)
    assert all(d[5] == "" and d[3].startswith("-") for d in pairs)
    curves = curves_file.read_text().splitlines()
    assert curves[0] == "beta,Kc2,K1,Kc1,K2,w1"


def test_diagram_micro_csv(tmp_path):
    out_file = tmp_path / "rows.csv"
    curves_file = tmp_path / "curves.csv"
    code = main(["diagram-micro", "--u-grid", "0.2:0.6:0.1",
                 "--K-grid", "0.8:1.6:0.4", "--out", str(out_file),
                 "--curves-out", str(curves_file)])
    assert code == 0
    lines = [l for l in out_file.read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "u,K,branch,z1,z2,z3,entropy"
    us = [0.2 + i * 0.1 for i in range(5)]
    Ks = [0.8 + i * 0.4 for i in range(3)]
    rows = [l.split(",") for l in lines[1:]]
    expect = []
    for u in us:
        for K in Ks:
            sol = solve_micro(MicroParams(u, K))
            zs = list(sol.z_points) + [None] * (3 - len(sol.z_points))
            expect.append([fmt(u), fmt(K), sol.phase_label,
                           *(fmt(z) for z in zs), fmt(sol.entropy)])
    assert rows == expect
    u_star, _ = tricritical_micro()
    curves = [l.split(",") for l in curves_file.read_text().splitlines()]
    assert curves[0] == ["u", "Kc2", "Kc1", "C"]
    assert [c[0] for c in curves[1:]] == [fmt(u) for u in us]
    assert [c[2] == "" for c in curves[1:]] == [u >= u_star for u in us]

    # u = 1.2 lies above the energy range at every K, u = 0.6 inside it
    assert energy_domain(0.8)[1] < 1.2
    code = main(["diagram-micro", "--u-grid", "0.6:1.2:0.6",
                 "--K-grid", "0.8:0.8:0.1", "--out", str(out_file)])
    assert code == 0
    lines = [l for l in out_file.read_text().splitlines()
             if not l.startswith("#")]
    assert [l.split(",")[:2] for l in lines[1:]] == [["0.6", "0.8"]]


CANON_README = ["diagram-canon", "--beta-grid", "0.5:3:0.1",
                "--K-grid", "0.8:1.4:0.05"]


def test_diagram_bytes_do_not_depend_on_threads(capsys, monkeypatch):
    # --threads is inert (the sweeps are serial) and BEG_THREADS is not read;
    # a set flag is echoed into the header like every other flag
    _, plain, _ = run(capsys, CANON_README)
    code, threaded, _ = run(capsys, CANON_README + ["--threads", "4"])
    assert code == 0
    assert threaded.replace("# threads=4\n", "") == plain
    monkeypatch.setenv("BEG_THREADS", "abc")
    code, with_env, _ = run(capsys, CANON_README)
    assert code == 0
    assert with_env == plain


def test_diagram_domain_error_writes_nothing(capsys, tmp_path):
    # the third beta of the grid lies above BETA_MAX = 300: the sweep raises
    # before anything is written
    out_file = tmp_path / "rows.csv"
    curves_file = tmp_path / "curves.csv"
    code, out, err = run(capsys, [
        "diagram-canon", "--beta-grid", "299.5:300.6:0.5",
        "--K-grid", "1:1.1:0.1",
        "--out", str(out_file), "--curves-out", str(curves_file)])
    assert code == 2
    assert "BETA_MAX" in err
    assert out == ""
    assert not out_file.exists() and not curves_file.exists()


@pytest.mark.parametrize("fmt_flag", ["csv", "json"])
def test_diagram_calls_the_sweep_once(capsys, monkeypatch, fmt_flag):
    calls = []
    real = diagram.sweep_canonical
    monkeypatch.setattr(diagram, "sweep_canonical",
                        lambda *a: calls.append(a) or real(*a))
    code, _, _ = run(capsys, CANON_README + ["--format", fmt_flag])
    assert code == 0
    assert len(calls) == 1
    betas, Ks = calls[0]
    assert (len(betas), len(Ks)) == (26, 13)


def _assert_csv_close(got, want):
    """Labels, headers and empty cells exactly; numbers to 1e-10 relative
    or 1e-12 absolute (platforms may differ in the last ulp)."""
    got, want = got.splitlines(), want.splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        gc, wc = g.split(","), w.split(",")
        assert len(gc) == len(wc), (g, w)
        for a, b in zip(gc, wc):
            try:
                x, y = float(a), float(b)
            except ValueError:
                assert a == b, (g, w)
                continue
            assert x == pytest.approx(y, rel=1e-10, abs=1e-12), (g, w)


@pytest.mark.parametrize("cmd, axis, grid, K_grid", [
    ("diagram-canon", "--beta-grid", "0.5:3:0.1", "0.8:1.4:0.05"),
    ("diagram-micro", "--u-grid", "0.2:0.6:0.05", "0.8:1.6:0.1"),
], ids=["canon", "micro"])
def test_diagram_matches_golden_output(tmp_path, cmd, axis, grid, K_grid):
    # the README grids; tests/data holds what the CLI wrote for them before
    # its diagram commands were rebuilt on the library sweeps
    rows_file = tmp_path / "rows.csv"
    curves_file = tmp_path / "curves.csv"
    code = main([cmd, axis, grid, "--K-grid", K_grid, "--out", str(rows_file),
                 "--curves-out", str(curves_file)])
    assert code == 0
    stem = cmd.replace("-", "_")
    _assert_csv_close(rows_file.read_text(),
                      (DATA / f"{stem}_rows.csv").read_text())
    _assert_csv_close(curves_file.read_text(),
                      (DATA / f"{stem}_curves.csv").read_text())


def test_micro_cli(capsys):
    code, out, _ = run(capsys, ["micro", "--u", "0.5", "--K", "2"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 3   # header + symmetric pair
    assert "# phase=pair" in out


def test_oracle_cli(capsys):
    code, out, _ = run(capsys, ["oracle", "--kind", "canonical", "--beta", "1",
                                "--K", "0.5", "--grid-step", "0.01"])
    assert code == 0
    assert "# n_minima=" in out


def test_equivalence_cli_nonequivalent_regime(capsys):
    # z_c has a relative condition of about 1.7e3 in K, so any float route
    # lands some 2e-13 relative from its 60-digit value, and the 12-digit
    # rounding boundary lies 1.8e-18 (0.13 ulp) below that value: the
    # printed end is held to the bound of
    # test_canonical_tie_matches_60_digit_roots, not pinned to a digit
    code, out, _ = run(capsys, ["equivalence", "--K", "1.0817"])
    assert code == 0
    assert "# verdict=nonequivalent" in out
    (lo, hi), = csv_rows(out)
    assert lo == "0"
    assert abs(float(hi) / 0.094634945421350176 - 1.0) <= 1e-12


def test_equivalence_cli_next_to_the_micro_tricritical_coupling(capsys):
    # K_m* - 1e-7, where the lower end read 0.  z_m = 0.00147200724007...
    # moves by 1.3e-10 relative per ulp of u_c1, so its 12th digit is not
    # resolved in double precision; it is held to the bound of the
    # reference roots instead
    K = 1.081296350157609
    code, out, _ = run(capsys, ["equivalence", "--K", str(K)])
    assert code == 0
    (lo, hi), = csv_rows(out)
    assert hi == "0.141247251807"
    z_m = 0.001472007240072463312929
    assert abs(float(lo) - z_m) <= z_m * 1e-15 / (tricritical_micro()[1] - K)


def test_equivalence_cli_next_to_unit_coupling(capsys):
    # the lower end read 0.999999991649, 8e-9 too low
    code, out, _ = run(capsys, ["equivalence", "--K", "1.000000000001"])
    assert code == 0
    assert csv_rows(out) == [["0.999999999964", "0.999999999976"]]


def test_micro_critical_cli_next_to_the_corner(capsys):
    # Kc1 read 0.999999999985 < 1
    code, out, _ = run(capsys, ["micro-critical", "--u", "1e-9"])
    assert code == 0
    assert csv_rows(out)[0][2] == "1.00000000003"


def test_equivalence_cli_solves_no_ensemble(capsys, monkeypatch):
    # the verdict and the gap come from the inverted critical points alone
    def refuse(params):
        raise AssertionError(f"solved an ensemble at {params}")

    monkeypatch.setattr(diagram, "solve_canonical", refuse)
    monkeypatch.setattr(diagram, "solve_micro", refuse)
    code, out, _ = run(capsys, ["equivalence", "--K", "1.05"])
    assert code == 0
    (lo, hi), = diagram.nonequivalence_gap(1.05)
    assert "# verdict=nonequivalent" in out
    assert f"# gap_measure={fmt(hi - lo)}" in out
    assert csv_rows(out) == [[fmt(lo), fmt(hi)]]


def test_micro_critical_cli_formats_the_library_record(capsys):
    code, out, _ = run(capsys, ["micro-critical", "--u", "0.25", "--K", "1.0"])
    assert code == 0
    crit = micro_criticals(0.25, 1.0)
    assert csv_rows(out) == [[fmt(crit.u), fmt(crit.k_second_order),
                              fmt(crit.k_first_order), fmt(crit.k_convexity),
                              crit.region]]


@pytest.mark.parametrize("K, mode, ns, call", [
    (1.0, "ks", [200, 400],
     lambda ns, p: limits.convergence_diagnostic(ns, p)),
    (1.5, "conditioned", [300, 600],
     lambda ns, p: [limits.conditioned_clt_check(n, p) for n in ns]),
], ids=["ks", "conditioned"])
def test_limits_ladder_cli_formats_the_library_distances(capsys, K, mode, ns,
                                                         call):
    code, out, _ = run(capsys, ["limits", "--beta", "1", "--K", str(K),
                                "--mode", mode,
                                "--ns", ",".join(map(str, ns))])
    assert code == 0
    dists = call(ns, CanonicalParams(1.0, K))
    assert csv_rows(out) == [[fmt(n), fmt(d)] for n, d in zip(ns, dists)]


def test_limits_classify_cli_formats_the_library_reports(capsys):
    code, out, _ = run(capsys, ["limits", "--beta", "1", "--K", "1.5",
                                "--mode", "classify"])
    assert code == 0
    params = CanonicalParams(1.0, 1.5)
    expect = []
    for z in solve_canonical(params).z_points:
        rep = limits.classify_minimum(params, z)
        expect.append([fmt(z), fmt(rep.r), *map(fmt, rep.derivative_values),
                       fmt(rep.sigma2)])
    assert len(expect) == 2
    assert csv_rows(out) == expect


def test_metropolis_refused_n_runs_no_chain(capsys, monkeypatch):
    def chain(*args):
        raise AssertionError("the chain ran before n was checked")

    monkeypatch.setattr(limits, "metropolis_sampler", chain)
    code, _, err = run(capsys, ["limits", "--beta", "1", "--K", "1",
                                "--mode", "metropolis", "--n", "25000",
                                "--steps", "100"])
    assert code == 2
    assert "n must be an integer in [1, 20000]" in err
