"""Command-line entry point: strict INI config parsing, subcommand dispatch
(solve, sweep-rho, check, gn, threshold), and artifact output.

Exit codes are stable for scripting: 0 converged/pass, 1 usage/IO/schema,
2 solver non-convergence or no ground state found, 3 assumption failure.
Identical configs reproduce bit-identical JSON apart from the timestamp
field, which is excluded from the digest.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import minimizer as mz
from . import nonlinearity as nl
from . import orlicz
from .grid import RadialGrid, _gn_quotient, gn_constant, save_field

log = logging.getLogger("subnls.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOCONV = 2
EXIT_ASSUMPTION = 3


class ConfigError(ValueError):
    pass


def _floats(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


# the [grid] keys r_max and n and every [solver] key are the fields of
# SolveConfig: name, default and a parser picked by the annotation (a field of
# another type needs its parser here)
_PARSERS = {"float": float, "int": int, "Sequence[float]": _floats}


def _solve_config_keys(section):
    return {f.name: (_PARSERS[f.type], f.default) for f in fields(mz.SolveConfig)
            if f.name != "spec" and (f.name in ("r_max", "n")) == (section == "grid")}


# section -> key -> (parser, default); MISSING means required
_SCHEMA = {
    "nonlinearity": {
        "family": (str, MISSING),
        "alpha": (float, 1.0),
        "mu": (float, 0.0),
        "p": (float, 0.0),
        "omega": (float, 0.0),
    },
    "grid": {"dim": (int, MISSING), **_solve_config_keys("grid")},
    "solver": _solve_config_keys("solver"),
    "orlicz": {
        "family": (str, ""),
        "alpha": (float, 1.0),
        "p": (float, 0.0),
        "q": (float, 0.0),
    },
    "output": {"directory": (str, "out")},
}

_NONLINEARITY_KEYS = {"log", "log_power", "saturation", "power_sublinear"}


@dataclass
class RunConfig:
    values: dict
    digest: str


def load_config(path) -> RunConfig:
    """Strictly-typed INI config: unknown sections or keys are errors."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    with open(path) as fh:
        raw = fh.read()
    parser.read_string(raw)
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, text in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[section][key] = _SCHEMA[section][key][0](text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {text!r}") from exc
    for section, keys in _SCHEMA.items():
        values.setdefault(section, {})
        for key, (_, default) in keys.items():
            if key not in values[section]:
                if default is MISSING:
                    raise ConfigError(f"missing required key {section}.{key}")
                values[section][key] = default
    digest = hashlib.sha256(raw.encode()).hexdigest()[:16]
    return RunConfig(values=values, digest=digest)


def build_spec(cfg: RunConfig) -> nl.NonlinearitySpec:
    sec = cfg.values["nonlinearity"]
    dim = cfg.values["grid"]["dim"]
    family = sec["family"]
    if family not in _NONLINEARITY_KEYS:
        raise ConfigError(f"unknown nonlinearity family {family!r}")
    try:
        if family == "log":
            return nl.logarithmic(sec["alpha"], dim=dim)
        if family == "log_power":
            return nl.log_power(sec["alpha"], sec["mu"], sec["p"], dim=dim)
        if family == "saturation":
            return nl.saturation(dim=dim)
        return nl.power_sublinear(sec["omega"], dim=dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_solve_config(cfg: RunConfig) -> mz.SolveConfig:
    spec = build_spec(cfg)
    g, s = cfg.values["grid"], cfg.values["solver"]
    try:
        config = mz.SolveConfig(spec=spec, r_max=g["r_max"], n=g["n"], **s)
        config.make_grid()  # RadialGrid checks r_max and n
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def build_nfunction(cfg: RunConfig):
    sec = cfg.values["orlicz"]
    family = sec["family"]
    if not family:
        return None
    try:
        if family == "log_matched":
            return orlicz.log_matched(sec["alpha"])
        if family == "log_matched_power_tail":
            return orlicz.log_matched_power_tail(sec["alpha"], sec["p"])
        if family == "pure_q":
            return orlicz.pure_q(sec["q"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown N-function family {family!r}")


def _atomic_write(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _dump_json(payload, path):
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def result_payload(result, cfg: RunConfig, profile_csv_path):
    payload = result.to_json_dict()
    payload["profile_csv_path"] = profile_csv_path
    payload["config_digest"] = cfg.digest
    payload["version"] = __version__
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return payload


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    solve_cfg = build_solve_config(cfg)
    out_dir = args.out or cfg.values["output"]["directory"]
    os.makedirs(out_dir, exist_ok=True)
    notes = []
    spec = solve_cfg.spec
    if spec.family == "log_power":
        verdict = dg.nonexistence_verdict(spec.alpha, spec.mu, spec.p_exp, spec.dim)
        if verdict == dg.UNBOUNDED_BELOW:
            notes.append(f"analytic verdict: {verdict} "
                         f"((g3) fails: mu > 0 and p > 2 + 4/N = {2 + 4 / spec.dim:.6g})")
        elif verdict == dg.MASS_CRITICAL:
            value, holds = dg.mass_condition(spec, solve_cfg.rho)
            notes.append(f"analytic verdict: {verdict} (mu > 0 and p = 2 + 4/N: "
                         f"2 eta C^(2+4/N) rho^(4/N) = {value:.6g} at rho = "
                         f"{solve_cfg.rho:g}, {'<' if holds else '>='} 1)")
        elif verdict != dg.EXISTS_LARGE_RHO:
            notes.append(f"analytic verdict: {verdict} "
                         f"(mu <= threshold {nl.mu_threshold(spec.alpha, spec.p_exp):.6g})")
    limits = mz.multistart(solve_cfg)
    if not limits:
        print("no stage produced a result", file=sys.stderr)
        return EXIT_NOCONV
    best = min(limits, key=lambda r: r.energy)
    profile_csv = os.path.join(out_dir, "profile.csv")
    save_field(best.u, profile_csv)
    payload = result_payload(best, cfg, profile_csv)
    if notes:
        payload["notes"] = notes
    _dump_json(payload, os.path.join(out_dir, "result.json"))
    ground_state = (best.converged and best.on_sphere and best.lam > 0
                    and best.energy < 0)
    for note in notes:
        print(note)
    print(f"energy={best.energy:.8g} lambda={best.lam:.8g} converged={best.converged} "
          f"on_sphere={best.on_sphere}")
    if not ground_state:
        print("no negative-energy sphere-saturating minimizer found", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def cmd_sweep_rho(args) -> int:
    if args.steps < 3:
        print("steps must be >= 3", file=sys.stderr)
        return EXIT_USAGE
    if not (0 < args.rho_min < args.rho_max):
        print("need 0 < rho_min < rho_max", file=sys.stderr)
        return EXIT_USAGE
    cfg = load_config(args.config)
    solve_cfg = build_solve_config(cfg)
    out_dir = args.out or cfg.values["output"]["directory"]
    os.makedirs(out_dir, exist_ok=True)
    points = mz.energy_map(solve_cfg, np.geomspace(args.rho_min, args.rho_max, args.steps))
    csv_path = os.path.join(out_dir, "energy_map.csv")
    lines = ["rho,c_value,eps,converged"]
    for p in points:
        lines.append(f"{p.rho:.17g},{p.c_value:.17g},{p.eps:.17g},{str(p.converged).lower()}")
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    try:
        checks = dg.energy_map_properties(points)
    except ValueError as exc:
        print(f"property checks skipped: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    _dump_json(dg.property_report_json(checks, points),
               os.path.join(out_dir, "energy_map_properties.json"))
    all_ok = all(c.passed for c in checks)
    for c in checks:
        reason = f": {c.details['reason']}" if "reason" in c.details else ""
        print(f"{c.check_name}: {'pass' if c.passed else 'FAIL'} "
              f"(margin={c.margin:.3g}, tol={c.tolerance:.3g}){reason}")
    failed = [p for p in points if not p.converged]
    if failed:
        print(f"{len(failed)} point(s) did not converge", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK if all_ok else EXIT_NOCONV


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    spec = build_spec(cfg)
    report = nl.check_assumptions(spec)
    payload = {"assumptions": report.verdicts(), "xi0": report.xi0,
               "details": report.details}
    if spec.family == "log_power":
        tr = nl.threshold_report(spec)
        payload["threshold"] = {
            "mu_star": tr.mu_star,
            "gtilde_max": None if math.isinf(tr.gtilde_max) else tr.gtilde_max,
            "g4_holds": tr.g4_holds,
            "eta": tr.eta,
            "verdict": dg.nonexistence_verdict(spec.alpha, spec.mu, spec.p_exp, spec.dim),
        }
    nfun = build_nfunction(cfg)
    orlicz_failed = False
    if nfun is not None:
        growth = orlicz.check_delta2_nabla2(nfun)
        payload["orlicz"] = {
            "delta2_nabla2_holds": growth.holds,
            "c_delta": growth.c_delta,
            "c_nabla": growth.c_nabla,
            "sampled_range": list(growth.sampled_range),
        }
        if nfun.family in ("log_matched", "log_matched_power_tail"):
            val, der = orlicz.knot_mismatch(nfun)
            payload["orlicz"]["knot_mismatch"] = [val, der]
        orlicz_failed = not growth.holds
    out_dir = args.out or cfg.values["output"]["directory"]
    os.makedirs(out_dir, exist_ok=True)
    payload["config_digest"] = cfg.digest
    payload["version"] = __version__
    _dump_json(payload, os.path.join(out_dir, "check.json"))
    for name, verdict in report.verdicts().items():
        print(f"({name}) {verdict}")
    if report.xi0 is not None:
        print(f"positive-primitive witness xi0 = {report.xi0:.6g}")
    if "threshold" in payload:
        print(f"mu_star = {payload['threshold']['mu_star']:.12g} "
              f"verdict = {payload['threshold']['verdict']}")
    if nfun is not None:
        print(f"N-function growth: holds={payload['orlicz']['delta2_nabla2_holds']} "
              f"C_delta={payload['orlicz']['c_delta']:.6g} "
              f"C_nabla={payload['orlicz']['c_nabla']:.6g}")
    return EXIT_ASSUMPTION if (report.any_fails or orlicz_failed) else EXIT_OK


def cmd_gn(args) -> int:
    dim, p = args.dim, args.p
    try:
        est = gn_constant(dim, p)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(0)
    grid = RadialGrid(dim, 12.0, 300)
    theta = dim * (0.5 - 1.0 / p)
    worst = 0.0
    for _ in range(1000):
        vals = rng.normal(size=grid.n) * np.exp(-grid.r / rng.uniform(0.5, 4.0))
        worst = max(worst, _gn_quotient(grid, vals, p, theta) - est.value)
    print(f"C_{{{dim},{p:g}}} ~= {est.value:.8g} "
          f"(+/- {est.rel_uncertainty:.0%}, estimate from {est.iterations} ascent steps)")
    print(f"validation: worst quotient excess over estimate on 1000 random fields: "
          f"{worst:.3e}")
    return EXIT_OK if worst <= 1e-10 else EXIT_NOCONV


def cmd_threshold(args) -> int:
    try:
        lines = [f"mu_star(alpha={args.alpha:g}, p={args.p:g}) = "
                 f"{nl.mu_threshold(args.alpha, args.p):.15g}"]
        if args.mu is not None:
            if args.mu < 0:
                lines.append(f"gtilde_max = {nl.gtilde_max(args.alpha, args.mu, args.p):.15g}")
            dim = 3 if args.dim is None else args.dim
            verdict = dg.nonexistence_verdict(args.alpha, args.mu, args.p, dim)
            lines.append(f"verdict = {verdict}")
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print("\n".join(lines))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subnls",
        description="normalized ground states for strongly sublinear "
                    "Schrodinger nonlinearities")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the continuation for one config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep-rho", help="energy map over a range of mass radii")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("rho_min", type=float)
    p_sweep.add_argument("rho_max", type=float)
    p_sweep.add_argument("steps", type=int)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="ignored: the radii are solved in order in one "
                              "process, each warm-started from the one before")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep_rho)

    p_check = sub.add_parser("check", help="assumption and threshold report")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_gn = sub.add_parser("gn", help="Gagliardo-Nirenberg constant estimate")
    p_gn.add_argument("dim", type=int)
    p_gn.add_argument("p", type=float)
    p_gn.set_defaults(func=cmd_gn)

    p_thr = sub.add_parser("threshold", help="existence threshold for the log+power family")
    p_thr.add_argument("--alpha", type=float, required=True)
    p_thr.add_argument("--p", type=float, required=True)
    p_thr.add_argument("--mu", type=float, default=None)
    p_thr.add_argument("--dim", type=int, default=None)
    p_thr.set_defaults(func=cmd_threshold)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SUBNLS_LOG", "warn").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}.get(level, logging.WARNING))
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
