import argparse
import json
import logging
import math
import warnings
from dataclasses import MISSING
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subnls import cli
from subnls import diagnostics as dg
from subnls import minimizer as mz
from subnls import nonlinearity as nl
from subnls import orlicz

QUICK = """
[nonlinearity]
family = log_power
alpha = 1.0
mu = 0.0
p = 4.0

[grid]
dim = 3
r_max = 14.0
n = 500

[solver]
rho = 20.0
eps_schedule = 1e-1, 1e-2, 1e-3

[output]
directory = {out}
"""

NONEXIST = """
[nonlinearity]
family = log_power
alpha = 1.0
mu = -0.55
p = 4.0

[grid]
dim = 3
r_max = 10.0
n = 300

[solver]
rho = 6.0
eps_schedule = 1e-1, 1e-2
max_iter = 60000

[output]
directory = {out}
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "out"))
    return str(path)


def test_unknown_key_exit_code_and_message(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[solver]\nrhoo = 3.0\n")
    rc = cli.main(["solve", "--config", str(path)])
    assert rc == cli.EXIT_USAGE
    assert "rhoo" in capsys.readouterr().err


def test_unknown_section(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[solvers]\nrho = 3.0\n")
    rc = cli.main(["check", "--config", str(path)])
    assert rc == cli.EXIT_USAGE
    assert "solvers" in capsys.readouterr().err


def test_missing_config(capsys):
    assert cli.main(["solve", "--config", "/nonexistent.ini"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("text", ["rho = 20.0\n[solver]\n",
                                  "[solver]\nrho = 20.0\nrho = 10.0\n",
                                  "[solver]\nrho = 20.0\n[output]\ndirectory = out%1\n"],
                         ids=["key_before_section", "key_twice", "lone_percent"])
def test_malformed_ini_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_missing_required_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[nonlinearity]\nfamily = log\n[grid]\ndim = 3\n")
    rc = cli.main(["solve", "--config", str(path)])
    assert rc == cli.EXIT_USAGE
    assert "solver.rho" in capsys.readouterr().err


def test_solve_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, QUICK)
    rc = cli.main(["solve", "--config", cfg])
    assert rc == cli.EXIT_OK
    payload = json.loads((tmp_path / "out" / "result.json").read_text())
    for key in ("rho", "eps", "lambda", "energy", "mass", "kinetic", "iterations",
                "converged", "on_sphere", "pohozaev_residual", "nehari_residual",
                "profile_csv_path", "config_digest", "version", "timestamp"):
        assert key in payload
    assert payload["converged"] and payload["on_sphere"]
    assert payload["energy"] < 0 and payload["lambda"] > 0
    assert (tmp_path / "out" / "profile.csv").exists()
    from subnls.grid import load_field

    prof = load_field(tmp_path / "out" / "profile.csv")
    assert prof.grid.n == 500


def test_solve_deterministic_rerun(tmp_path):
    cfg = write_config(tmp_path, QUICK)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    pa = json.loads((tmp_path / "a" / "result.json").read_text())
    pb = json.loads((tmp_path / "b" / "result.json").read_text())
    pa.pop("timestamp"), pb.pop("timestamp")
    pa.pop("profile_csv_path"), pb.pop("profile_csv_path")
    assert pa == pb
    assert (tmp_path / "a" / "profile.csv").read_text() == \
        (tmp_path / "b" / "profile.csv").read_text()


def test_solve_nonexistence_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, NONEXIST)
    rc = cli.main(["solve", "--config", cfg])
    assert rc == cli.EXIT_NOCONV
    captured = capsys.readouterr()
    assert "no_nontrivial" in captured.out
    assert "no negative-energy" in captured.err


def test_sweep_usage_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, QUICK)
    assert cli.main(["sweep-rho", "--config", cfg, "1.0", "2.0", "2"]) == cli.EXIT_USAGE
    assert cli.main(["sweep-rho", "--config", cfg, "-1.0", "2.0", "4"]) == cli.EXIT_USAGE
    assert cli.main(["sweep-rho", "--config", cfg, "3.0", "2.0", "4"]) == cli.EXIT_USAGE
    capsys.readouterr()
    # a rho_max that SolveConfig refuses (infinite, or with an infinite
    # rho^2) is refused before any radius is solved: one line, no traceback
    for rho_max in ("inf", "1e200"):
        assert cli.main(["sweep-rho", "--config", cfg, "18", rho_max, "3"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: rho must be positive with a finite rho^2, "
                                f"got {float(rho_max)}\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["solve"], ["sweep-rho", "1e-300", "18", "3"]])
def test_rho_whose_mass_underflows_exits_one(tmp_path, capsys, command):
    # rho^2 = 0 at rho = 1e-300: solve warned of a division by zero in the
    # seed and exited 2, and a sweep from it (only rho_max was checked)
    # raised ZeroDivisionError in its first corrector's prediction
    cfg = write_config(tmp_path, QUICK.replace("rho = 20.0", "rho = 1e-300"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([command[0], "--config", cfg, *command[1:]])
    assert rc == cli.EXIT_USAGE
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == ("config error: rho = 1e-300 has a mass rho^2 that "
                                       "underflows to 0\n")
    assert not (tmp_path / "out").exists()


def test_sweep_outputs(tmp_path):
    cfg = write_config(tmp_path, QUICK)
    rho_min, steps = 18.0, 3
    rho_max = rho_min * 2 ** ((steps - 1) / 2.0)
    rc = cli.main(["sweep-rho", "--config", cfg, str(rho_min), str(rho_max),
                   str(steps), "--jobs", "2", "--out", str(tmp_path / "sweep")])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "sweep" / "energy_map.csv").read_text().strip().splitlines()
    assert lines[0] == "rho,c_value,eps,converged"
    assert len(lines) == steps + 1
    rows = [line.split(",") for line in lines[1:]]
    assert all(row[3] == "true" for row in rows)
    cs = [float(row[1]) for row in rows]
    assert cs[0] > cs[1] > cs[2]
    props = json.loads((tmp_path / "sweep" / "energy_map_properties.json").read_text())
    assert all(row["pass"] for row in props)


def test_sweep_prints_why_a_check_found_nothing(tmp_path, capsys):
    # no radius of 18, 23.2, 30 is a hypot of two others, nor near 30/sqrt(2)
    cfg = write_config(tmp_path, QUICK)
    rc = cli.main(["sweep-rho", "--config", cfg, "18", "30", "3",
                   "--out", str(tmp_path / "sweep")])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_NOCONV
    assert "subadditivity: FAIL (margin=-inf" in out
    assert "no in-grid triple" in out and "no grid point near rho_max/sqrt(2)" in out


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"{path.name} holds the non-standard constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_artifacts_are_standard_json(tmp_path, capsys):
    # every float that is not finite is written as null: the sweep's margins
    # of -inf and inf, and check's eta and gtilde_max
    cfg = write_config(tmp_path, QUICK)
    assert cli.main(["solve", "--config", cfg]) == cli.EXIT_OK
    _strict_json(tmp_path / "out" / "result.json")
    check = write_config(tmp_path, QUICK.replace("mu = 0.0", "mu = 0.5"), "check.ini")
    assert cli.main(["check", "--config", check]) == cli.EXIT_ASSUMPTION
    threshold = _strict_json(tmp_path / "out" / "check.json")["threshold"]
    assert threshold["eta"] is None and threshold["gtilde_max"] is None
    cli.main(["sweep-rho", "--config", cfg, "18", "30", "3"])
    assert "margin=-inf" in capsys.readouterr().out
    rows = _strict_json(tmp_path / "out" / "energy_map_properties.json")
    margins = {row["check_name"]: row["margin"] for row in rows}
    assert margins["subadditivity"] is None and margins["divergence_proxy"] is None


def test_sweep_without_three_converged_points_exits_two(tmp_path, capsys):
    # max_iter = 1 ends every first stage before it converges, so no radius
    # has a limit and the property checks have nothing to compare
    text = QUICK.replace("n = 500", "n = 200")
    text = text.replace("[solver]\n", "[solver]\nmax_iter = 1\n")
    rc = cli.main(["sweep-rho", "--config", write_config(tmp_path, text), "18", "36", "3",
                   "--out", str(tmp_path / "sweep")])
    assert rc == cli.EXIT_NOCONV
    err = capsys.readouterr().err
    assert err == "property checks skipped: need at least 3 converged points\n"
    rows = (tmp_path / "sweep" / "energy_map.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",false") for row in rows)
    assert not (tmp_path / "sweep" / "energy_map_properties.json").exists()


def test_sweep_with_a_point_that_did_not_converge_exits_two(tmp_path, capsys, monkeypatch):
    # the first of four radii gets no limit; the other three converge, so
    # the property checks run, and the sweep still exits 2 for that point
    real = mz.continuation

    def first_fails(config, grid=None, rng=None):
        if config.rho == 18.0:
            ended = SimpleNamespace(eps=1e-1, status="max_iter", iterations=1)
            return mz.ContinuationResult(stages=[ended], limit=None)
        return real(config, grid=grid, rng=rng)

    monkeypatch.setattr(mz, "continuation", first_fails)
    text = QUICK.replace("n = 500", "n = 200")
    rc = cli.main(["sweep-rho", "--config", write_config(tmp_path, text), "18",
                   str(18 * 2 ** 1.5), "4", "--out", str(tmp_path / "sweep")])
    assert rc == cli.EXIT_NOCONV
    assert capsys.readouterr().err == "1 point(s) did not converge\n"
    rows = (tmp_path / "sweep" / "energy_map.csv").read_text().strip().splitlines()[1:]
    assert [row.endswith(",true") for row in rows] == [False, True, True, True]
    assert (tmp_path / "sweep" / "energy_map_properties.json").exists()


def test_solve_output_below_a_regular_file_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = cli.main(["solve", "--config", write_config(tmp_path, QUICK),
                   "--out", str(blocker / "out")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_readme_sweep_example_is_sqrt2_spaced():
    # the radii of the README's sweep must give every property check points
    # to compare; Gausson energies stand in for a solve
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (line,) = [ln for ln in readme.splitlines() if ln.startswith("subnls sweep-rho")]
    rho_min, rho_max, steps = line.split()[4:7]
    rhos = np.geomspace(float(rho_min), float(rho_max), int(steps))
    pts = [mz.EnergyMapPoint(rho=r, c_value=r * r * (2 - math.log(r * r) / 2
                                                     + 0.75 * math.log(math.pi)),
                             eps=0.0, converged=True) for r in rhos]
    checks = dg.energy_map_properties(pts)
    assert all(c.passed for c in checks), [(c.check_name, c.details) for c in checks]


def test_check_pass_and_fail(tmp_path):
    ok_cfg = tmp_path / "sat.ini"
    ok_cfg.write_text("[nonlinearity]\nfamily = saturation\n"
                      "[grid]\ndim = 3\n[solver]\nrho = 1.0\n"
                      f"[output]\ndirectory = {tmp_path/'o1'}\n")
    assert cli.main(["check", "--config", str(ok_cfg)]) == cli.EXIT_OK
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("[nonlinearity]\nfamily = log_power\nalpha = 1.0\n"
                       "mu = -1.0\np = 4.0\n[grid]\ndim = 3\n[solver]\nrho = 1.0\n"
                       f"[output]\ndirectory = {tmp_path/'o2'}\n")
    assert cli.main(["check", "--config", str(bad_cfg)]) == cli.EXIT_ASSUMPTION
    payload = json.loads((tmp_path / "o2" / "check.json").read_text())
    assert payload["assumptions"]["g4"] == "fails"
    assert payload["threshold"]["verdict"] == "no_nontrivial"


def test_check_overflowing_g_plus_fails_g3(tmp_path, capsys):
    # mu > 0 and p > 2 + 4/N: G_plus is unbounded in mass, and at p = 1e300
    # it overflows to inf at every (g3) sample, where inf <= 1e-6 inf made
    # (g3) "hold" beside an unbounded_below verdict, with two numpy overflow
    # warnings and exit 0
    cfg = tmp_path / "g3.ini"
    cfg.write_text("[nonlinearity]\nfamily = log_power\nalpha = 100\nmu = 100\n"
                   "p = 1e300\n[grid]\ndim = 2\n[solver]\nrho = 1.0\n"
                   f"[output]\ndirectory = {tmp_path / 'o'}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["check", "--config", str(cfg)])
    assert rc == cli.EXIT_ASSUMPTION
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert "(g3) fails" in captured.out and "verdict = unbounded_below" in captured.out
    assert "RuntimeWarning" not in captured.err
    payload = json.loads((tmp_path / "o" / "check.json").read_text())
    assert payload["assumptions"]["g3"] == "fails"


def test_check_with_orlicz_section(tmp_path):
    cfg = tmp_path / "orl.ini"
    cfg.write_text("[nonlinearity]\nfamily = log\nalpha = 1.0\n"
                   "[grid]\ndim = 3\n[solver]\nrho = 1.0\n"
                   "[orlicz]\nfamily = log_matched\nalpha = 1.0\n"
                   f"[output]\ndirectory = {tmp_path/'o'}\n")
    assert cli.main(["check", "--config", str(cfg)]) == cli.EXIT_OK
    payload = json.loads((tmp_path / "o" / "check.json").read_text())
    assert payload["orlicz"]["delta2_nabla2_holds"]
    assert abs(payload["orlicz"]["knot_mismatch"][0]) <= 1e-10


@pytest.mark.parametrize("orlicz_section, c_delta, c_nabla", [
    ("family = pure_q\nq = 40\n", 40.0, 40.0),
    ("family = pure_q\nq = 100\n", 100.0, 100.0),
    ("family = log_matched\nalpha = 1e300\n", 2.0, 1.0 + math.sqrt(3.0 / 7.0)),
    ("family = log_matched_power_tail\np = 50\n", 50.0, 5.0 / 3.0),
    ("family = log_matched_power_tail\np = 300\n", 300.0, 5.0 / 3.0),
], ids=["pure_q_40", "pure_q_100", "log_matched_huge_alpha", "power_tail_50",
        "power_tail_300"])
def test_check_growth_constants_in_closed_form(tmp_path, capsys, orlicz_section, c_delta,
                                               c_nabla):
    # the sampled ratio overflowed to nan here (exit 3, numpy warnings) or
    # raised OverflowError (p = 300); the exit code is (g0)-(g4)'s alone
    cfg = tmp_path / "orl.ini"
    cfg.write_text("[nonlinearity]\nfamily = log\n[grid]\ndim = 3\n[solver]\nrho = 1.0\n"
                   f"[orlicz]\n{orlicz_section}[output]\ndirectory = {tmp_path / 'o'}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["check", "--config", str(cfg)]) == cli.EXIT_OK
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert f"holds=True C_delta={c_delta:.6g} C_nabla={c_nabla:.6g}" in capsys.readouterr().out
    growth = json.loads((tmp_path / "o" / "check.json").read_text())["orlicz"]
    assert (growth["c_delta"], growth["c_nabla"]) == (c_delta, c_nabla)
    assert growth["delta2_nabla2_holds"] and "sampled_range" not in growth


def test_gn_command(capsys):
    assert cli.main(["gn", "3", "7"]) == cli.EXIT_USAGE
    capsys.readouterr()
    # the plane has no 2*, but p must still be finite: one line, no warning
    assert cli.main(["gn", "2", "inf"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "usage error: need a finite p > 2\n"
    assert cli.main(["gn", "3", str(10.0 / 3.0)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "C_{3," in out


@pytest.mark.parametrize("p", ["1e3", "1e4", "1e7", "1e300"])
def test_gn_at_large_p(capsys, p):
    # |u|^p overflowed: an inf estimate or validation excess, or a warning
    # and then a usage error; now the quotient is scale-free and a p where
    # int |u|^p underflows to 0 is refused in one line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["gn", "2", p])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NOCONV)
    assert "inf" not in captured.out + captured.err
    if rc == cli.EXIT_USAGE:
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


def test_threshold_command(capsys):
    assert cli.main(["threshold", "--alpha", "1", "--p", "4", "--mu", "-0.5"]) == 0
    out = capsys.readouterr().out
    assert f"{-2 * math.exp(-2):.6f}"[:8] in out
    assert "no_nontrivial" in out
    # a negative --mu in exponent notation is a number, not an option
    assert cli.main(["threshold", "--alpha", "1", "--p", "4", "--mu", "-0.05"]) == 0
    decimal = capsys.readouterr()
    assert cli.main(["threshold", "--alpha", "1", "--p", "4", "--mu", "-5e-2"]) == 0
    assert capsys.readouterr() == decimal and len(decimal.out.splitlines()) == 3
    assert cli.main(["threshold", "--alpha", "1", "--p", "1.5"]) == cli.EXIT_USAGE
    capsys.readouterr()
    # p = 7 lies above 2N/(N-2) = 6 for the default dimension 3: one line, no traceback
    rc = cli.main(["threshold", "--alpha", "1", "--p", "7", "--mu", "-0.5"])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
    # a dimension that is not an integer >= 2 is a usage error, with or
    # without --mu, and 0 does not fall back to the default 3
    for mu in (["--mu", "0.1"], []):
        for dim in ("0", "1", "-2"):
            rc = cli.main(["threshold", "--alpha", "1", "--p", "4", *mu, "--dim", dim])
            assert rc == cli.EXIT_USAGE, (mu, dim)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"usage error: dim must be an integer >= 2, got {dim}\n"
    # the spec is built with or without --mu, so p = 7 is refused without it
    # too, and so is a non-finite alpha, mu or p: one line, no traceback
    for argv in (["--alpha", "1", "--p", "7"],
                 ["--alpha", "1", "--p", "inf"],
                 ["--alpha", "inf", "--p", "4"],
                 ["--alpha", "1", "--p", "4", "--mu", "nan"],
                 ["--alpha", "1", "--p", "4", "--mu=-inf"],
                 ["--alpha", "1", "--p", "inf", "--mu", "0.1", "--dim", "2"]):
        assert cli.main(["threshold", *argv]) == cli.EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("edits", [{"mu = 0.0": "mu = nan"},
                                   {"mu = 0.0": "mu = inf"},
                                   {"alpha = 1.0": "alpha = inf"},
                                   {"p = 4.0": "p = inf", "dim = 3": "dim = 2"},
                                   {"family = log_power": "family = cubic"},
                                   # a key that the family does not read must
                                   # keep its default: log does not read p
                                   {"family = log_power": "family = log"},
                                   {"family = log_power": "family = saturation",
                                    "p = 4.0": "p = 0.0", "alpha = 1.0": "alpha = 2.0"},
                                   {"family = log_power\nalpha = 1.0\nmu = 0.0\np = 4.0":
                                    "family = custom"},
                                   # roots of g beyond the brackets of _log_roots,
                                   # which each ended in a traceback: a small
                                   # root below 1e-18, and a peak t_star of
                                   # g(t)/t that overflows or underflows
                                   {"alpha = 1.0": "alpha = 2.0", "mu = 0.0": "mu = 1e300",
                                    "dim = 3": "dim = 4"},
                                   {"alpha = 1.0": "alpha = 1e300", "mu = 0.0": "mu = -0.3",
                                    "p = 4.0": "p = 2.5"},
                                   {"alpha = 1.0": "alpha = 1e-300", "mu = 0.0": "mu = -0.3",
                                    "p = 4.0": "p = 2.5", "dim = 3": "dim = 5"}],
                         ids=["mu_nan", "mu_inf", "alpha_inf", "p_inf_dim2", "unknown_family",
                              "log_p", "saturation_alpha", "custom", "root_below_bracket",
                              "t_star_overflows", "t_star_underflows"])
def test_bad_model_parameters_exit_one(tmp_path, capsys, command, edits):
    text = QUICK
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    assert cli.main([command, "--config", write_config(tmp_path, text)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_solve_every_start_failing_exits_two(tmp_path, monkeypatch, capsys):
    def failing(config, grid=None, rng=None):
        ended = SimpleNamespace(eps=1e-1, status="nonfinite")
        return mz.ContinuationResult(stages=[ended], limit=None)

    monkeypatch.setattr(mz, "continuation", failing)
    rc = cli.main(["solve", "--config", write_config(tmp_path, QUICK)])
    assert rc == cli.EXIT_NOCONV
    assert "no start reached an eps = 0 limit" in capsys.readouterr().err


def test_solve_overflowing_trial_exits_two(tmp_path, capsys):
    # at rho = 1e153 (rho^2 finite) an Armijo trial overflows: its energy is
    # not finite, the stage ends nonfinite and the only start has no limit.
    # The overflow is the stage's status, so numpy warns of none of it
    text = QUICK.replace("family = log_power\nalpha = 1.0\nmu = 0.0\np = 4.0",
                         "family = log\nalpha = 1.0")
    text = text.replace("r_max = 14.0\nn = 500", "r_max = 12.0\nn = 200")
    text = text.replace("rho = 20.0\neps_schedule = 1e-1, 1e-2, 1e-3", "rho = 1e153")
    assert "rho = 1e153" in text and "n = 200" in text and "family = log\n" in text
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["solve", "--config", write_config(tmp_path, text)])
    assert rc == cli.EXIT_NOCONV
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == "no start reached an eps = 0 limit\n"
    assert not (tmp_path / "out" / "result.json").exists()


def test_solve_stalled_stage_exits_two(tmp_path, capsys, caplog):
    # configs/quick.ini with tol_grad = 1e-15: the first stage stalls at a
    # KKT residual near 5e-14, which is not convergence, so the only start
    # has no limit
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.ini"
    text = quick.read_text().replace("tol_grad = 1e-8", "tol_grad = 1e-15")
    text = text.replace("directory = out/quick", f"directory = {tmp_path / 'out'}")
    assert "tol_grad = 1e-15" in text and str(tmp_path) in text
    cfg = tmp_path / "stall.ini"
    cfg.write_text(text)
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_NOCONV
    assert "no start reached an eps = 0 limit" in capsys.readouterr().err
    assert "start 0 skipped: stage eps=0.1 ended stalled" in caplog.messages
    assert not (tmp_path / "out" / "result.json").exists()


@pytest.mark.parametrize("old,new", [("n = 500", "n = 2"),
                                     ("r_max = 14.0", "r_max = -5"),
                                     ("[solver]\n", "[solver]\nmax_iter = 0\n"),
                                     ("[solver]\n", "[solver]\nmultistarts = 0\n"),
                                     ("[solver]\n", "[solver]\ntol_grad = 0\n"),
                                     ("[solver]\n", "[solver]\ntol_grad = -1e-8\n"),
                                     ("r_max = 14.0", "r_max = inf"),
                                     ("rho = 20.0", "rho = inf"),
                                     ("[solver]\n", "[solver]\ntol_grad = inf\n"),
                                     ("n = 500", "n = abc"),
                                     ("rho = 20.0", "rho = 1e200")],
                         ids=["n", "r_max", "max_iter", "multistarts", "tol_grad_0",
                              "tol_grad_negative", "r_max_inf", "rho_inf", "tol_grad_inf",
                              "n_not_int", "rho_squared_overflows"])
def test_bad_grid_and_solver_values_exit_one(tmp_path, capsys, old, new):
    rc = cli.main(["solve", "--config", write_config(tmp_path, QUICK.replace(old, new))])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# the numbers a fuzzed config draws from, and for each key the members in
# its domain, which it takes five times in six so that most examples reach
# the solver
NUMBERS = (0.0, 1.0, -1.0, 0.5, 3.0, 100.0, 1e-8, 1e300, -1e300, 1e-300,
           math.nan, math.inf, -math.inf)
IN_DOMAIN = {"alpha": (1.0, 0.5, 3.0, 100.0), "mu": (0.0, 1.0, -1.0, 0.5), "p": (3.0,),
             "omega": (0.5,), "q": (1.5, 100.0), "r_max": (1.0, 3.0, 100.0),
             "rho": (0.5, 1.0, 3.0, 100.0)}
INI_KEY = {"alpha": "alpha", "mu": "mu", "p_exp": "p", "omega": "omega", "q_exp": "q"}


def _number(key):
    return st.integers(0, 5).flatmap(
        lambda k: st.sampled_from(NUMBERS if k == 5 else IN_DOMAIN[key]))


@st.composite
def _fuzzed_call(draw):
    family = draw(st.sampled_from(sorted(nl._FAMILIES)))
    lines = ["[nonlinearity]", f"family = {family}"]
    # only the keys the family reads: any other is refused before a solve
    lines += [f"{INI_KEY[f]} = {draw(_number(INI_KEY[f]))!r}"
              for f in nl._FAMILIES[family].params]
    rho = draw(_number("rho"))
    lines += ["[grid]", f"dim = {draw(st.sampled_from([2, 3, 5]))}",
              f"r_max = {draw(_number('r_max'))!r}", f"n = {draw(st.sampled_from([3, 8, 40]))}",
              "[solver]", f"rho = {rho!r}", f"max_iter = {draw(st.integers(1, 40))}"]
    command = draw(st.sampled_from(["solve", "check", "sweep-rho"]))
    extra = [repr(rho), repr(2.0 * rho), "3"] if command == "sweep-rho" else []
    if command == "check" and draw(st.booleans()):
        # an [orlicz] block with only the keys its family reads
        nfamily = draw(st.sampled_from(sorted(orlicz._PARAMS)))
        lines += ["[orlicz]", f"family = {nfamily}"]
        lines += [f"{INI_KEY[f]} = {draw(_number(INI_KEY[f]))!r}"
                  for f in orlicz._PARAMS[nfamily]]
    return command, extra, "\n".join(lines)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_fuzzed_call())
# a sampled growth ratio of pure_q overflowed at q = 100, with a warning
@example(("check", [], "[nonlinearity]\nfamily = log\nalpha = 1.0\n[grid]\ndim = 3\n"
                       "r_max = 3.0\nn = 40\n[solver]\nrho = 1.0\nmax_iter = 1\n"
                       "[orlicz]\nfamily = pure_q\nq = 100.0"))
def test_every_config_ends_in_a_documented_exit_code(tmp_path_factory, call):
    # solve, check and sweep-rho on configs drawn across each family's keys,
    # finite and not, check with or without an [orlicz] block: each returns
    # 0-3, raises nothing and warns of nothing
    command, extra, text = call
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "run.ini"
    cfg.write_text(f"{text}\n[output]\ndirectory = {tmp / 'out'}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([command, "--config", str(cfg), *extra])
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NOCONV, cli.EXIT_ASSUMPTION)
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", [["solve"], ["sweep-rho", "18", "36", "3"]])
@pytest.mark.parametrize("r_max", ["1e300", "1e160", "1e-300", "1e-100"])
def test_grid_it_cannot_represent_exits_one(tmp_path, capsys, command, r_max):
    # h^2 overflowed into a traceback, or every weight was 0 and solve
    # "converged" off the sphere (exit 2); at 1e-100 h^2 and the weights are
    # positive but the Laplacian scale r^2 h^2 underflowed to 0, and both
    # commands warned of a division by zero and exited 2
    cfg = write_config(tmp_path, QUICK.replace("r_max = 14.0", f"r_max = {r_max}"))
    assert cli.main([command[0], "--config", cfg, *command[1:]]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "not finite and positive" in err
    assert not (tmp_path / "out").exists()


def test_solve_records_stage_status(tmp_path):
    cfg = write_config(tmp_path, QUICK)
    assert cli.main(["solve", "--config", cfg]) == cli.EXIT_OK
    payload = json.loads((tmp_path / "out" / "result.json").read_text())
    assert payload["status"] == "converged"


def test_sweep_builds_the_solve_config_once(tmp_path, monkeypatch):
    real = cli.build_solve_config
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(cli, "build_solve_config", counting)
    cfg = write_config(tmp_path, QUICK)
    rc = cli.main(["sweep-rho", "--config", cfg, "18", str(18 * 2.0), "3",
                   "--out", str(tmp_path / "sweep")])
    assert rc == cli.EXIT_OK
    assert len(calls) == 1


ABORTED = """
[nonlinearity]
family = log

[grid]
dim = 3
r_max = 12.0
n = 300

[solver]
rho = 20.0
eps_schedule = 1e-1, 1e-2, 1e-3
max_iter = 40

[output]
directory = {out}
"""


def test_solve_aborted_continuation_exits_two(tmp_path, capsys, monkeypatch):
    # with every Newton step rejected, the descent alone (under the Newton
    # finish these stages take 5/5/5 iterations) stops stage 1e-2 on
    # max_iter: the completed eps = 0.1 stage is not a limit, so the only
    # start yields no result
    monkeypatch.setattr(mz, "_newton_step", lambda *args: None)
    rc = cli.main(["solve", "--config", write_config(tmp_path, ABORTED)])
    assert rc == cli.EXIT_NOCONV
    assert "no start reached an eps = 0 limit" in capsys.readouterr().err
    assert not (tmp_path / "out" / "result.json").exists()


UNBOUNDED = """
[nonlinearity]
family = log_power
alpha = 1.0
mu = 0.1
p = 4.0

[grid]
dim = 3
r_max = 8.0
n = 100

[solver]
rho = 2.0
eps_schedule = 1e-1
max_iter = 400

[output]
directory = {out}
"""


def test_solve_notes_why_the_energy_is_unbounded_below(tmp_path, capsys):
    # mu > 0 with p = 4 > 2 + 4/3: (g3) fails, and the note says so instead
    # of comparing mu with the threshold
    cli.main(["solve", "--config", write_config(tmp_path, UNBOUNDED)])
    note = "analytic verdict: unbounded_below ((g3) fails: mu > 0 and p > 2 + 4/N = 3.33333)"
    assert note in capsys.readouterr().out.splitlines()
    payload = json.loads((tmp_path / "out" / "result.json").read_text())
    assert payload["notes"] == [note]


def test_mass_critical_verdict_is_printed_and_explained(tmp_path, capsys):
    # mu > 0 with p = 2 + 4/3 = 10/3: neither exists_large_rho nor
    # unbounded_below; solve's note gives the mass condition at the
    # configured rho
    assert cli.main(["threshold", "--alpha", "1", "--p", str(10.0 / 3.0), "--mu", "0.1",
                     "--dim", "3"]) == cli.EXIT_OK
    assert "verdict = mass_critical" in capsys.readouterr().out.splitlines()
    text = UNBOUNDED.replace("p = 4.0", f"p = {10.0 / 3.0!r}")
    cli.main(["check", "--config", write_config(tmp_path, text, "check.ini")])
    assert capsys.readouterr().out.splitlines()[-1].endswith("verdict = mass_critical")
    payload = json.loads((tmp_path / "out" / "check.json").read_text())
    assert payload["threshold"]["verdict"] == "mass_critical"
    cli.main(["solve", "--config", write_config(tmp_path, text)])
    spec = nl.log_power(1.0, 0.1, 10.0 / 3.0, dim=3)
    value, holds = dg.mass_condition(spec, 2.0)
    assert 0.0 < value < 1.0 and holds
    note = (f"analytic verdict: mass_critical (mu > 0 and p = 2 + 4/N: "
            f"2 eta C^(2+4/N) rho^(4/N) = {value:.6g} at rho = 2, {'<' if holds else '>='} 1)")
    assert note in capsys.readouterr().out.splitlines()
    payload = json.loads((tmp_path / "out" / "result.json").read_text())
    assert payload["notes"] == [note]


@pytest.mark.parametrize("orlicz_section", ["family = pure_q\nq = 0.5\n",
                                            "family = log_matched_power_tail\nalpha = 1.0\n",
                                            "family = log_matched\nalpha = inf\n",
                                            "family = pure_q\nq = inf\n",
                                            "family = log_matched_power_tail\np = inf\n",
                                            "family = cubic\n",
                                            # keys that the family does not read
                                            "family = pure_q\nq = 1.5\nalpha = 3\n",
                                            "family = log_matched\nq = 1.5\n"])
def test_check_bad_orlicz_parameters_are_config_errors(tmp_path, capsys, orlicz_section):
    cfg = tmp_path / "orl.ini"
    cfg.write_text("[nonlinearity]\nfamily = log\n[grid]\ndim = 3\n[solver]\nrho = 1.0\n"
                   f"[orlicz]\n{orlicz_section}[output]\ndirectory = {tmp_path/'o'}\n")
    assert cli.main(["check", "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def _doc_table(section):
    """key -> (default cell, meaning cell) of the table under '## [section]'
    in docs/config.md."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    body = text.split(f"## [{section}]", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in body.splitlines() if line.startswith("| `")]
    return {cells[0].strip().strip("`"): (cells[2].strip(), cells[3].strip()) for cells in rows}


# the family that reads each key documented with default "—": the key's schema
# default 0.0 is a placeholder that this family's check rejects
NOT_SET_READERS = {("nonlinearity", "p"): "log_power",
                   ("nonlinearity", "omega"): "power_sublinear",
                   ("orlicz", "p"): "log_matched_power_tail",
                   ("orlicz", "q"): "pure_q"}


def _schema_defaults(section, family):
    """A RunConfig of schema defaults with [section] family set."""
    values = {sec: {key: default for key, (_, default) in keys.items()}
              for sec, keys in cli._SCHEMA.items()}
    values["nonlinearity"]["family"] = "log"
    values["grid"]["dim"] = 3
    values["solver"]["rho"] = 1.0
    values[section]["family"] = family
    return cli.RunConfig(values=values, digest="")


@pytest.mark.parametrize("section", list(cli._SCHEMA))
def test_config_doc_lists_the_schema(section):
    schema = cli._SCHEMA[section]
    documented = _doc_table(section)
    assert list(documented) == list(schema)
    for key, (parse, default) in schema.items():
        cell = documented[key][0]
        if default is MISSING:
            assert cell == "*required*", key
        elif cell != "—":
            assert parse(cell.strip("`")) == default, key
        elif (section, key) == ("orlicz", "family"):
            assert default == "", key  # no [orlicz] block
        else:
            assert default == 0.0, key
            build = cli.build_spec if section == "nonlinearity" else cli.build_nfunction
            with pytest.raises(cli.ConfigError):
                build(_schema_defaults(section, NOT_SET_READERS[section, key]))
    if section == "nonlinearity":
        # the family row names exactly the families a spec accepts
        listed = [name.strip().strip("`") for name in documented["family"][1].split(",")]
        assert listed == list(nl._FAMILIES)


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", [*sorted(ROOT.glob("configs/*.ini")),
                                  ROOT / "perfbench" / "sweep.ini"], ids=lambda path: path.name)
def test_shipped_configs_build(path):
    # each shipped key is one that its family reads, or keeps its default
    cfg = cli.load_config(str(path))
    cli.build_solve_config(cfg)
    cli.build_nfunction(cfg)


def test_config_doc_lists_the_result_keys(tmp_path):
    # the keys listed for result.json under 'Artifacts' in docs/config.md are
    # exactly those a solve writes
    assert cli.main(["solve", "--config", write_config(tmp_path, QUICK)]) == cli.EXIT_OK
    written = json.loads((tmp_path / "out" / "result.json").read_text())
    text = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    listed = text.split("## Artifacts", 1)[1].split("* `result.json` — ", 1)[1]
    listed = " ".join(listed.split(" (", 1)[0].split()).split(", ")
    assert sorted(listed) == sorted(written)


@pytest.mark.parametrize("section,line", [("solver", "tol_mass = 1e-9"),
                                          ("solver", "seed = 3"),
                                          ("output", "formats = json")])
def test_removed_config_keys_exit_one(tmp_path, capsys, section, line):
    text = QUICK.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    rc = cli.main(["solve", "--config", write_config(tmp_path, text)])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"config error: unknown key {line.split()[0]!r} in section [{section}]\n"
    assert not (tmp_path / "out").exists()


def test_solve_has_no_format_option(tmp_path, capsys):
    rc = cli.main(["solve", "--config", write_config(tmp_path, QUICK), "--format", "json"])
    assert rc == cli.EXIT_USAGE
    assert "subnls: error: unrecognized arguments: --format json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


THRESHOLD = ["threshold", "--alpha", "1", "--p", "4"]


def test_repeated_calls_carry_no_option_over(capsys):
    # main keeps its parser for the process: an option given to one call is
    # not seen by the next, and a usage error between two good calls changes
    # neither of them
    assert cli.main([*THRESHOLD, "--mu", "-0.1"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert cli.main(THRESHOLD) == cli.EXIT_OK
    alone = capsys.readouterr()
    assert alone.out.startswith("mu_star(alpha=1, p=4) = ") and alone.out.count("\n") == 1
    assert alone.err == ""
    assert cli.main(["threshold", "--alpha", "1"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: the following arguments are required: --p\n")
    assert cli.main(THRESHOLD) == cli.EXIT_OK
    assert capsys.readouterr() == alone


def test_sweep_without_out_after_one_with_out_writes_to_the_config_directory(tmp_path):
    cfg = write_config(tmp_path, QUICK)
    argv = ["sweep-rho", "--config", cfg, "18", str(18 * 2.0), "3"]
    assert cli.main([*argv, "--out", str(tmp_path / "given")]) == cli.EXIT_OK
    assert not (tmp_path / "out").exists()
    assert cli.main(argv) == cli.EXIT_OK
    for name in ("energy_map.csv", "energy_map_properties.json"):
        assert (tmp_path / "out" / name).read_text() == (tmp_path / "given" / name).read_text()


def test_repeated_main_builds_no_parser(capsys, monkeypatch):
    # the first call of the process builds the parser (it may be this one or
    # an earlier test's), so only the second call is counted
    assert cli.main(THRESHOLD) == cli.EXIT_OK
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(THRESHOLD) == cli.EXIT_OK
    assert built == []
    assert capsys.readouterr().out.startswith("mu_star(alpha=1, p=4) = ")


@pytest.fixture
def subnls_level():
    # main sets the level of the subnls loggers: put it back after the test
    logger = logging.getLogger("subnls")
    level = logger.level
    yield
    logger.setLevel(level)


FALLBACK = "no level with positive primitive"


def test_solve_without_positive_level_warns_once(tmp_path, monkeypatch, caplog, subnls_level):
    # every one of the three starts seeds from the Gaussian fallback; the
    # command says so once, before the first start
    monkeypatch.delenv("SUBNLS_LOG", raising=False)
    cfg = write_config(tmp_path, NONEXIST.replace("[solver]\n", "[solver]\nmultistarts = 3\n"))
    assert cli.main(["solve", "--config", cfg]) == cli.EXIT_NOCONV
    fallback = [r for r in caplog.records if FALLBACK in r.getMessage()]
    assert [(r.name, r.levelno) for r in fallback] == [("subnls.cli", logging.WARNING)]


def test_subnls_log_applies_to_each_call(tmp_path, monkeypatch, caplog, subnls_level):
    # one process, three calls: each takes the level SUBNLS_LOG has when it
    # starts, not the first call's
    cfg = write_config(tmp_path, NONEXIST)
    seen = []
    for level in ("error", "debug", "warn"):
        monkeypatch.setenv("SUBNLS_LOG", level)
        caplog.clear()
        assert cli.main(["solve", "--config", cfg]) == cli.EXIT_NOCONV
        seen.append({(r.name, r.levelname) for r in caplog.records if FALLBACK in r.getMessage()})
        if level == "debug":
            assert any(r.getMessage().startswith("stage eps=") for r in caplog.records)
    assert seen == [set(),
                    {("subnls.cli", "WARNING"), ("subnls.minimizer", "INFO")},
                    {("subnls.cli", "WARNING")}]


def test_unknown_subnls_log_value_is_reported(monkeypatch, caplog, capsys, subnls_level):
    # an unknown value runs at warn and says so, once; a known one in any
    # case, and an empty one, say nothing
    expected = {"verbose": [("subnls.cli", logging.WARNING,
                             "unknown SUBNLS_LOG value 'verbose': logging at warn "
                             "(accepted values: error, warn, info, debug)")],
                "": [], "INFO": []}
    for value, records in expected.items():
        monkeypatch.setenv("SUBNLS_LOG", value)
        caplog.clear()
        assert cli.main(["threshold", "--alpha", "1", "--p", "4"]) == cli.EXIT_OK
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == records
    assert logging.getLogger("subnls").level == logging.INFO
    monkeypatch.setenv("SUBNLS_LOG", "verbose")
    cli.main(["threshold", "--alpha", "1", "--p", "4"])
    assert logging.getLogger("subnls").level == logging.WARNING


def test_ignored_rearrange_every_warns_once_per_command(tmp_path, monkeypatch, caplog,
                                                        subnls_level):
    # a sweep builds a SolveConfig per radius and one for the rho_max check;
    # the key is reported once, where the config is read
    monkeypatch.delenv("SUBNLS_LOG", raising=False)
    cfg = write_config(tmp_path, QUICK.replace("[solver]\n", "[solver]\nrearrange_every = 25\n"))
    rc = cli.main(["sweep-rho", "--config", cfg, "18", str(18 * 2.0), "3",
                   "--out", str(tmp_path / "sweep")])
    assert rc == cli.EXIT_OK
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("subnls.cli", logging.WARNING,
         "rearrange_every = 25 is ignored: the solver no longer rearranges")]
