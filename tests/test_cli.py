import json
import math
from dataclasses import MISSING
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from subnls import cli
from subnls import diagnostics as dg
from subnls import minimizer as mz
from subnls import nonlinearity as nl

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


def test_gn_command(capsys):
    assert cli.main(["gn", "3", "7"]) == cli.EXIT_USAGE
    assert cli.main(["gn", "3", str(10.0 / 3.0)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "C_{3," in out


def test_threshold_command(capsys):
    assert cli.main(["threshold", "--alpha", "1", "--p", "4", "--mu", "-0.5"]) == 0
    out = capsys.readouterr().out
    assert f"{-2 * math.exp(-2):.6f}"[:8] in out
    assert "no_nontrivial" in out
    assert cli.main(["threshold", "--alpha", "1", "--p", "1.5"]) == cli.EXIT_USAGE
    capsys.readouterr()
    # p = 7 lies above 2N/(N-2) = 6 for the default dimension 3: one line, no traceback
    rc = cli.main(["threshold", "--alpha", "1", "--p", "7", "--mu", "-0.5"])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
    # a dimension that is not an integer >= 2 is a usage error, and 0 does
    # not fall back to the default 3
    for dim in ("0", "1", "-2"):
        rc = cli.main(["threshold", "--alpha", "1", "--p", "4", "--mu", "0.1", "--dim", dim])
        assert rc == cli.EXIT_USAGE, dim
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: dim must be an integer >= 2, got {dim}\n"


def test_solve_every_start_failing_exits_two(tmp_path, monkeypatch, capsys):
    def failing(config, grid=None, rng=None):
        ended = SimpleNamespace(eps=1e-1, status="nonfinite")
        return mz.ContinuationResult(stages=[ended], limit=None)

    monkeypatch.setattr(mz, "continuation", failing)
    rc = cli.main(["solve", "--config", write_config(tmp_path, QUICK)])
    assert rc == cli.EXIT_NOCONV
    assert "no stage produced a result" in capsys.readouterr().err


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
    assert "no stage produced a result" in capsys.readouterr().err
    assert "start 0 skipped: stage eps=0.1 ended stalled" in caplog.messages
    assert not (tmp_path / "out" / "result.json").exists()


@pytest.mark.parametrize("old,new", [("n = 500", "n = 2"),
                                     ("r_max = 14.0", "r_max = -5"),
                                     ("[solver]\n", "[solver]\nmax_iter = 0\n"),
                                     ("[solver]\n", "[solver]\nmultistarts = 0\n"),
                                     ("[solver]\n", "[solver]\ntol_grad = 0\n"),
                                     ("[solver]\n", "[solver]\ntol_grad = -1e-8\n")],
                         ids=["n", "r_max", "max_iter", "multistarts", "tol_grad_0",
                              "tol_grad_negative"])
def test_bad_grid_and_solver_values_exit_one(tmp_path, capsys, old, new):
    rc = cli.main(["solve", "--config", write_config(tmp_path, QUICK.replace(old, new))])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
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
    assert "no stage produced a result" in capsys.readouterr().err
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
                                            "family = log_matched_power_tail\nalpha = 1.0\n"])
def test_check_bad_orlicz_parameters_are_config_errors(tmp_path, capsys, orlicz_section):
    cfg = tmp_path / "orl.ini"
    cfg.write_text("[nonlinearity]\nfamily = log\n[grid]\ndim = 3\n[solver]\nrho = 1.0\n"
                   f"[orlicz]\n{orlicz_section}[output]\ndirectory = {tmp_path/'o'}\n")
    assert cli.main(["check", "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def _doc_table(section):
    """key -> default cell of the table under '## [section]' in docs/config.md."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    body = text.split(f"## [{section}]", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in body.splitlines() if line.startswith("| `")]
    return {cells[0].strip().strip("`"): cells[2].strip() for cells in rows}


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
        cell = documented[key]
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
