#!/usr/bin/env python3
"""One SHA-256 over the outputs of `subnls check` and `subnls threshold` on a
fixed grid of nonlinearities.

    PYTHONPATH=src python3 scripts/check_fingerprint.py [--verbose] [--expect DIGEST]

The grid: for every N in {2, 3, 4, 5} and alpha in {1e-3, 0.5, 1, 2, 100},
`check` on log and on log_power with p in {2.5, 3, 2 + 4/N, 4, 5, 6, 50} and
mu in {-1, -0.5, -0.1, -0.05, -0.01, 0, 0.05, 0.7, 1, 100} and k mu* for k in
{0.5, 0.999, 1, 1.001, 2}; for every N, saturation and power_sublinear with
omega in {0.1, 0.5, 0.97}; and log_power alpha = 1, mu = -1e-15, p = 100,
N = 2, where |mu*| is far below 1e-12.  The check configs rotate through no
[orlicz] section and the three N-function families.  Every log_power spec
also runs `threshold` without and with --mu (given as --mu=VALUE, so that a
negative value in exponent notation parses on every version).  A spec that
its family refuses is kept: its usage or config error is an output too.

The digest covers, for every call in order, its argv, exit code, stdout,
stderr and check.json (null where none is written).  Two trees that print the
same digest give byte-identical outputs on all of these.  --verbose also
prints one line per call, and --expect DIGEST makes the exit status 1 when the
digest differs from DIGEST (0 when it matches).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from subnls import cli
from subnls import nonlinearity as nl

DIMS = (2, 3, 4, 5)
ALPHAS = (1e-3, 0.5, 1.0, 2.0, 100.0)
MUS = (-1.0, -0.5, -0.1, -0.05, -0.01, 0.0, 0.05, 0.7, 1.0, 100.0)
MU_STAR_FACTORS = (0.5, 0.999, 1.0, 1.001, 2.0)
OMEGAS = (0.1, 0.5, 0.97)
ORLICZ = ("", "[orlicz]\nfamily = pure_q\nq = 1.5\n",
          "[orlicz]\nfamily = log_matched\nalpha = 1.0\n",
          "[orlicz]\nfamily = log_matched_power_tail\np = 4.0\n")


def exponents(dim):
    return (2.5, 3.0, 2.0 + 4.0 / dim, 4.0, 5.0, 6.0, 50.0)


def specs():
    """(family, dim, {INI key: value}) in a fixed order."""
    for dim in DIMS:
        for alpha in ALPHAS:
            yield "log", dim, {"alpha": alpha}
            for p in exponents(dim):
                mu_star = nl.mu_threshold(alpha, p)
                for mu in MUS + tuple(k * mu_star for k in MU_STAR_FACTORS):
                    yield "log_power", dim, {"alpha": alpha, "mu": mu, "p": p}
        yield "saturation", dim, {}
        for omega in OMEGAS:
            yield "power_sublinear", dim, {"omega": omega}
    yield "log_power", 2, {"alpha": 1.0, "mu": -1e-15, "p": 100.0}


def call(argv):
    """(exit code, stdout, stderr, check.json text or None) of cli.main(argv)
    run in the current directory."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join("out", "check.json"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    try:
        with open(os.path.join("out", "check.json")) as fh:
            check_json = fh.read()
    except FileNotFoundError:
        check_json = None
    return rc, out.getvalue(), err.getvalue(), check_json


def calls():
    """The argv of every call, with the config each check call writes first."""
    for i, (family, dim, keys) in enumerate(specs()):
        lines = "".join(f"{k} = {v!r}\n" for k, v in keys.items())
        text = (f"[nonlinearity]\nfamily = {family}\n{lines}[grid]\ndim = {dim}\n"
                f"[solver]\nrho = 1.0\n{ORLICZ[i % len(ORLICZ)]}")
        yield text, ["check", "--config", "check.ini", "--out", "out"]
        if family == "log_power":
            base = ["threshold", f"--alpha={keys['alpha']!r}", f"--p={keys['p']!r}",
                    f"--dim={dim}"]
            yield None, base
            yield None, [*base, f"--mu={keys['mu']!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--expect", metavar="DIGEST",
                        help="exit 1 unless the digest equals DIGEST")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    counts = {"check": 0, "threshold": 0}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for text, command in calls():
                if text is not None:
                    with open("check.ini", "w") as fh:
                        fh.write(text)
                rc, out, err, check_json = call(command)
                counts[command[0]] += 1
                line = json.dumps([command, text, rc, out, err, check_json])
                digest.update(line.encode())
                if args.verbose:
                    print(line)
        finally:
            os.chdir(here)
    print(digest.hexdigest())
    print(f"calls: check={counts['check']} threshold={counts['threshold']}", file=sys.stderr)
    if args.expect is not None and digest.hexdigest() != args.expect:
        print(f"digest differs from the expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
