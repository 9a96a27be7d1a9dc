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
import functools
import hashlib
import json
import logging
import os
import re
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import minimizer as mz
from . import nonlinearity as nl
from . import orlicz
from .grid import GN_REL_UNCERTAINTY, RadialGrid, _gn_quotient, gn_constant, save_field

log = logging.getLogger("subnls.cli")
_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

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
    try:
        parser.read_string(raw, source=path)
        items = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:
        # a key before any section header, a key given twice, a lone '%'
        raise ConfigError(" ".join(str(exc).split())) from exc
    values = {}
    for section, pairs in items.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, text in pairs:
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


def _checked(build, *args, **kwargs):
    """build(*args, **kwargs), the ValueError of a check it fails raised as a
    ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_spec(cfg: RunConfig) -> nl.NonlinearitySpec:
    sec = cfg.values["nonlinearity"]
    return _checked(nl.NonlinearitySpec, sec["family"], cfg.values["grid"]["dim"],
                    alpha=sec["alpha"], mu=sec["mu"], p_exp=sec["p"], omega=sec["omega"])


def build_solve_config(cfg: RunConfig) -> mz.SolveConfig:
    spec = build_spec(cfg)
    g, s = cfg.values["grid"], cfg.values["solver"]
    config = _checked(mz.SolveConfig, spec=spec, r_max=g["r_max"], n=g["n"], **s)
    _checked(config.make_grid)  # RadialGrid checks r_max and n
    # once per command: SolveConfig accepts the field silently, since a sweep
    # builds one per radius
    if config.rearrange_every:
        log.warning("rearrange_every = %d is ignored: the solver no longer rearranges",
                    config.rearrange_every)
    return config


def _warn_without_positive_level(spec):
    """Log once per command, before its first start, that every start of
    spec seeds from a Gaussian: without a level where G > 0 there is no
    negative-energy seed (minimizer._guess logs the fallback at INFO, once
    per start)."""
    if nl.find_positive_level(spec) is None:
        log.warning("no level with positive primitive: every start falls back to a "
                    "Gaussian seed of mass rho^2 (no negative-energy start)")


def build_nfunction(cfg: RunConfig):
    sec = cfg.values["orlicz"]
    if not sec["family"]:
        return None
    return _checked(orlicz.NFunction, sec["family"], alpha=sec["alpha"], p_exp=sec["p"],
                    q_exp=sec["q"])


def _atomic_write(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _dump_json(payload, path):
    """Standard JSON: a float that is not finite is written as null (read
    back as None from the NaN and Infinity that json writes for it)."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda name: None)
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


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
        report = dg.threshold_report(spec)
        verdict = report["verdict"]
        if verdict == dg.UNBOUNDED_BELOW:
            notes.append(f"analytic verdict: {verdict} "
                         f"((g3) fails: mu > 0 and p > 2 + 4/N = {spec.mass_critical_exp:.6g})")
        elif verdict == dg.MASS_CRITICAL:
            value, holds = dg.mass_condition(spec, solve_cfg.rho)
            notes.append(f"analytic verdict: {verdict} (mu > 0 and p = 2 + 4/N: "
                         f"2 eta C^(2+4/N) rho^(4/N) = {value:.6g} at rho = "
                         f"{solve_cfg.rho:g}, {'<' if holds else '>='} 1)")
        elif verdict != dg.EXISTS_LARGE_RHO:
            notes.append(f"analytic verdict: {verdict} "
                         f"(mu <= threshold {report['mu_star']:.6g})")
    _warn_without_positive_level(spec)
    limits = mz.multistart(solve_cfg)
    if not limits:
        # multistart has logged how each start ended
        print("no start reached an eps = 0 limit", file=sys.stderr)
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
    if not 0 < args.rho_min < args.rho_max:
        print("need 0 < rho_min < rho_max", file=sys.stderr)
        return EXIT_USAGE
    cfg = load_config(args.config)
    solve_cfg = build_solve_config(cfg)
    # SolveConfig's check of both ends, so of every radius, before any solve
    _checked(replace, solve_cfg, rho=args.rho_min)
    _checked(replace, solve_cfg, rho=args.rho_max)
    out_dir = args.out or cfg.values["output"]["directory"]
    os.makedirs(out_dir, exist_ok=True)
    _warn_without_positive_level(solve_cfg.spec)
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
    verdicts = nl.check_assumptions(spec)
    xi0 = nl.find_positive_level(spec) if verdicts["g4"] == nl.HOLDS else None
    payload = {"assumptions": verdicts, "xi0": xi0,
               "config_digest": cfg.digest, "version": __version__}
    if spec.family == "log_power":
        payload["threshold"] = dg.threshold_report(spec)
    nfun = build_nfunction(cfg)
    if nfun is not None:
        growth = orlicz.check_delta2_nabla2(nfun)
        payload["orlicz"] = {"delta2_nabla2_holds": growth.holds, "c_delta": growth.c_delta,
                             "c_nabla": growth.c_nabla}
        if nfun.two_piece:
            payload["orlicz"]["knot_mismatch"] = list(orlicz.knot_mismatch(nfun))
    out_dir = args.out or cfg.values["output"]["directory"]
    os.makedirs(out_dir, exist_ok=True)
    _dump_json(payload, os.path.join(out_dir, "check.json"))
    for name, verdict in verdicts.items():
        print(f"({name}) {verdict}")
    if xi0 is not None:
        print(f"positive-primitive witness xi0 = {xi0:.6g}")
    if "threshold" in payload:
        print(f"mu_star = {payload['threshold']['mu_star']:.12g} "
              f"verdict = {payload['threshold']['verdict']}")
    if nfun is not None:
        print(f"N-function growth: holds={growth.holds} C_delta={growth.c_delta:.6g} "
              f"C_nabla={growth.c_nabla:.6g}")
    return EXIT_ASSUMPTION if nl.FAILS in verdicts.values() else EXIT_OK


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
          f"(+/- {GN_REL_UNCERTAINTY:.0%}, estimate from {est.iterations} ascent steps)")
    print(f"validation: worst quotient excess over estimate on 1000 random fields: "
          f"{worst:.3e}")
    return EXIT_OK if worst <= 1e-10 else EXIT_NOCONV


def cmd_threshold(args) -> int:
    try:
        # the spec checks alpha, mu, p and dim, with or without --mu
        spec = nl.log_power(args.alpha, args.mu or 0.0, args.p, dim=args.dim)
        report = dg.threshold_report(spec)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"mu_star(alpha={args.alpha:g}, p={args.p:g}) = {report['mu_star']:.15g}")
    if args.mu is not None:
        if spec.mu < 0:
            print(f"gtilde_max = {report['gtilde_max']:.15g}")
        print(f"verdict = {report['verdict']}")
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call (main's first, not
    at import) and returned, unchanged, by every later call: parse_args
    keeps no state between calls and returns a fresh namespace each time, so
    main reuses one parser rather than paying for the set-up of six on every
    call.  Callers must not modify it."""
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
                              "process, each after the first by one eps = 0 "
                              "stage from the radii before it")
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
    p_thr.add_argument("--dim", type=int, default=3)
    p_thr.set_defaults(func=cmd_threshold)
    return parser


# a negative decimal number: argparse reads only -5 and -0.05 as numbers, and
# any other token that starts with "-" as an option
_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _joined_values(argv):
    """argv with every "--option -5e-2" written "--option=-5e-2"."""
    out = []
    for token in argv:
        if out and re.fullmatch("--[^=]+", out[-1]) and _NEGATIVE.fullmatch(token):
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    # SUBNLS_LOG sets the level of the subnls loggers on every call, so no
    # call inherits the last one's; the stderr handler goes on the root
    # logger once, when it has none
    value = os.environ.get("SUBNLS_LOG") or "warn"
    logging.basicConfig()
    logging.getLogger("subnls").setLevel(_LOG_LEVELS.get(value.lower(), logging.WARNING))
    if value.lower() not in _LOG_LEVELS:
        log.warning("unknown SUBNLS_LOG value %r: logging at warn (accepted values: %s)",
                    value, ", ".join(_LOG_LEVELS))
    parser = make_parser()
    try:
        args = parser.parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
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
