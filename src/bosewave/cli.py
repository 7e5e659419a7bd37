"""Command-line interface.

Subcommands expose every operation with deterministic text output:

    roots       solve the dispersion relation at one parameter point
    sweep       dispersion/attenuation table over an h grid
    hmax        locate the maximum-absorption state on a branch
    theta-scan  max attenuation vs orientation (acoustic + secondary)
    simulate    forced kinetic run, wave fit, snapshot dump
    verify      oracle cross-check suite (pass/fail table)

Exit codes: 0 success, 1 argument/validation error, 2 numerical failure.
Angles are radians by default; append "deg" for degrees (e.g. --theta 45deg).
A flat `key = value` config file may supply any long option (without the
leading dashes).  Each value becomes that flag, placed before the command
line's flags, so it is cast and checked like a flag, `choices` included,
and a flag given on the command line wins.  An on/off key (log, nonlinear)
adds its flag for 1, true, yes or on and nothing otherwise, so `log = off`
is the same as leaving out --log.  Every number must be finite and in its
flag's domain (e.g. --h > 0, --B > -1).  A value that starts with '-' and
is not a plain decimal is attached with '=': --B=-0.5,0.5, --theta=-45deg.
A warning is printed as one `Category: message` line on stderr.

Tables: `sweep` and `roots` print one row per root, with the same columns;
`theta-scan` prints one row per angle and branch.  A command given --out
checks that it can write there before it solves anything.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from argparse import ArgumentTypeError

import numpy as np

from . import analysis, dispersion, simulate
from .errors import DomainError, NumericalError
from .model import ModelConfig

__all__ = ["main", "entry", "emit"]

SWEEP_HEADER = ("h", "B", "theta", "n", "branch", "lambda_r", "lambda_i", "residual")
THETA_SCAN_HEADER = ("theta", "branch", "max_lambda_i")
VERIFY_SEED = 2718
DEFAULT_H_GRID = (1e-2, 1e2, 40)         # sweep without --h-range: LO, HI, STEPS
SWITCHES = ("log", "nonlinear")          # store_true flags; in a config file
TRUE_WORDS = ("1", "true", "yes", "on")  # these values switch them on


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise DomainError(message)


def _fmt(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _finite(cast, above):
    """argparse type: a finite `cast` (float or int) value greater than `above`."""
    bound = f"a finite number > {above:g}" if cast is float else f"an integer >= {above + 1}"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not above < value < math.inf:
            raise ArgumentTypeError(f"{text!r} is not {bound}")
        return value
    return parse


_positive = _finite(float, 0.0)


def parse_angle(text: str) -> float:
    """Finite angle in radians; a trailing 'deg' marks degrees."""
    text = text.strip()
    degrees = text.lower().endswith("deg")
    try:
        value = float(text[:-3] if degrees else text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ArgumentTypeError(f"invalid angle {text!r}: expected a finite number")
    return math.radians(value) if degrees else value


def _list_of(parse):
    """argparse type: one or more comma-separated values, each read by `parse`."""
    def parse_list(text: str) -> list:
        values = [parse(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise ArgumentTypeError(f"expected comma-separated values, got {text!r}")
        return values
    return parse_list


def _field(name: str, parse, text: str):
    """One field of a range, read by `parse`; an error names the field."""
    try:
        return parse(text)
    except ArgumentTypeError as exc:
        raise ArgumentTypeError(f"{name} {exc}") from None


def _parse_bounds(text: str) -> tuple:
    """LO:HI as finite positive floats with LO < HI; fields after HI are not read."""
    parts = text.split(":")
    if len(parts) < 2:
        raise ArgumentTypeError(f"invalid range {text!r}: expected LO:HI")
    lo, hi = _field("LO", _positive, parts[0]), _field("HI", _positive, parts[1])
    if not lo < hi:
        raise ArgumentTypeError(f"invalid range {text!r}: LO must be below HI")
    return lo, hi


def _parse_range(text: str) -> tuple:
    """LO:HI[:STEPS] as (lo, hi, steps), 40 steps unless given; HI may be below LO."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ArgumentTypeError(f"invalid range {text!r}: expected LO:HI[:STEPS]")
    lo, hi = _field("LO", _positive, parts[0]), _field("HI", _positive, parts[1])
    steps = (_field("STEPS", _finite(int, 1), parts[2]) if len(parts) == 3
             else DEFAULT_H_GRID[2])
    return lo, hi, steps


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    return values


def emit(rows, fmt: str, path, header=SWEEP_HEADER) -> None:
    """Write a table as CSV (17 significant digits) or JSON.

    Output is byte-identical for identical inputs: fixed header, fixed float
    formatting, newline-terminated rows, no locale dependence.  A CSV row is
    the comma join of its `_fmt` values.  The CLI's `sweep` and `roots`
    tables do not come here: `_write_sweep` writes them from their columns,
    with the bytes this writes of the same table's ``analysis.SweepRow``
    records.
    """
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join([_fmt(getattr(row, key)) for key in header]) for row in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        records = [{key: getattr(row, key) for key in header} for row in rows]
        text = json.dumps(records, indent=1) + "\n"
    else:
        raise DomainError("format must be 'csv' or 'json'")
    _write(text, path)


def _write(text: str, path) -> None:
    """Write a table's text to stdout, or to the file at path when one is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        simulate._write_text(text, path)


def _write_sweep(tables, n: int, fmt: str, path) -> None:
    """Write the `sweep` and `roots` tables straight from their labelled columns.

    The bytes are those :func:`emit` writes of the :class:`SweepRow` that
    ``analysis.sweep`` builds from the same walk of the columns
    (``analysis._labelled_points``), but no record is built: a CSV line
    is its point's "h,B,theta,n," prefix, formatted once per point, then
    one %-format call on the branch name, lambda_r, lambda_i and the
    residual; a JSON record is a dict of the same values.
    """
    if fmt == "csv":
        lines = [",".join(SWEEP_HEADER)]
        for point, roots in analysis._labelled_points(tables, n):
            head = "%.17g,%.17g,%.17g,%s," % (*point, n)
            lines += [head + "%s,%.17g,%.17g,%.17g" % (name, z.real, z.imag, res)
                      for name, z, res in roots]
        text = "\n".join(lines) + "\n"
    else:
        records = [dict(zip(SWEEP_HEADER, (*point, n, name, z.real, z.imag, res)))
                   for point, roots in analysis._labelled_points(tables, n)
                   for name, z, res in roots]
        text = json.dumps(records, indent=1) + "\n"
    _write(text, path)


def _check_point(args, *keys) -> None:
    """The flags ``keys`` given, by flag or config file (their types check the values)."""
    for key in keys:
        if getattr(args, key) is None:
            raise DomainError(f"--{key} is required")


def _cmd_roots(args) -> int:
    _check_point(args, "h", "theta")
    _check_writable(args.out)
    point = (args.h, args.B, args.theta)
    lam, _, residual = dispersion._branches_at(dispersion._line(args.h, args.B), args.theta,
                                               args.n, args.branch)
    _write_sweep([([point], [len(lam)], lam, residual)], args.n, args.format, args.out)
    return 0


def _cmd_sweep(args) -> int:
    _check_writable(args.out)
    # the default grid is log-spaced; an explicit --h-range is linear unless --log
    lo, hi, steps = args.h_range or DEFAULT_H_GRID
    log = args.h_range is None if args.log is None else args.log
    h_grid = (np.geomspace if log else np.linspace)(lo, hi, steps)
    tables = analysis._sweep_columns(args.theta, args.B, h_grid, args.n, args.branch)
    _write_sweep(tables, args.n, args.format, args.out)
    return 0


def _cmd_hmax(args) -> int:
    _check_point(args, "theta")
    peak = analysis.find_hmax(args.theta, args.B, n=args.n, branch=args.branch,
                              h_range=args.h_range)
    sys.stdout.write(f"h_max = {_fmt(peak.h_max)}\n"
                     f"lambda_i_max = {_fmt(peak.lambda_i_max)}\n"
                     f"bracket = {_fmt(peak.bracket[0])} {_fmt(peak.bracket[1])}\n")
    return 0


def _cmd_theta_scan(args) -> int:
    _check_writable(args.out)
    grid = np.linspace(0.0, math.pi / 2.0, args.steps)
    grid[np.argmin(np.abs(grid - math.pi / 4.0))] = math.pi / 4.0  # exact
    rows = analysis.theta_scan(args.B, args.n, args.h_cap, grid)
    emit(rows, args.format, args.out, header=THETA_SCAN_HEADER)
    return 0


def _check_writable(path) -> None:
    """Raise the DomainError of an unwritable path now, before any solve or run.

    Appending nothing leaves an existing file as it was; a file this check
    created is removed again.  A path of None (stdout) is not checked.
    """
    if path is None:
        return
    existed = os.path.lexists(path)
    simulate._write_text("", path, mode="a")
    if not existed:
        os.remove(path)


def _cmd_simulate(args) -> int:
    _check_point(args, "h", "theta")
    cfg = ModelConfig.from_reduced(n=args.n, theta=args.theta, h=args.h, B=args.B)
    _check_writable(args.out)
    series = simulate.run_forced(
        cfg, wavelengths=args.wavelengths, points_per_wavelength=args.ppw,
        periods=args.periods, mode="nonlinear" if args.nonlinear else "linear",
        eps=args.eps)
    fit = simulate.fit_wave(series)
    root = dispersion.acoustic_root(dispersion._line(args.h, args.B), cfg.theta, args.n)
    lam = fit.lambda_meas
    sys.stdout.write(
        f"k_r = {_fmt(fit.k_r)}\n"
        f"k_i = {_fmt(fit.k_i)}\n"
        f"lambda_meas = {_fmt(lam.real)} {_fmt(lam.imag)}\n"
        f"lambda_root = {_fmt(root.lam.real)} {_fmt(root.lam.imag)}\n"
        f"rms_residual = {_fmt(fit.rms_residual)}\n")
    if args.out is not None:
        simulate.dump_snapshot(series[-1], args.out, stride=args.stride)
    return 0


def _multiset_match(a, b, tol=1e-9) -> bool:
    if len(a) != len(b):
        return False
    a = sorted(a, key=lambda u: (u.real, u.imag))
    b = sorted(b, key=lambda u: (u.real, u.imag))
    return all(abs(x - y) <= tol * max(1.0, abs(y)) for x, y in zip(a, b))


def _live(roots):
    """A row of ``dispersion._eig_roots`` without the NaN of its dropped roots."""
    return roots[~np.isnan(roots)]


def _verify_checks(seed: int = VERIFY_SEED):
    rng = np.random.default_rng(seed)

    def closed_form_oracle():
        points = [(10.0 ** rng.uniform(-3, 3), rng.uniform(0.0, math.pi / 2.0))
                  for _ in range(1000)]
        h_b, theta = np.array(points).T
        rows = dispersion._eig_roots(h_b, theta, 2)  # one angle per row
        return all(_multiset_match(_live(got), dispersion.closed_form_n2(*point))
                   for got, point in zip(rows, points))

    def theta_pi4_identity():
        for B in (-0.5, 0.0, 0.5):
            for h in (0.1, 1.0, 10.0):
                root = dispersion.acoustic_root(h * (1.0 + B), math.pi / 4.0, 2)
                if abs(root.lam - 1.0) >= 1e-10:
                    return False
        return True

    def hydrodynamic_limit():
        for n in (2, 3, 4):
            for theta in np.linspace(0.0, math.pi / n, 5):
                root = dispersion.acoustic_root(1e6, float(theta), n)
                if abs(root.lam - 1.0) >= 1e-4:
                    return False
        return True

    def theta_symmetry():
        for n in (2, 3, 4):
            theta = np.linspace(1e-3, math.pi / n - 1e-3, 10)
            h_b = np.array([10.0 ** rng.uniform(-2, 2) for _ in theta])
            base = dispersion._eig_roots(h_b, theta, n)
            for other in (theta + math.pi / n, math.pi / n - theta):
                rows = dispersion._eig_roots(h_b, other, n)
                if not all(_multiset_match(_live(a), _live(b))
                           for a, b in zip(base, rows)):
                    return False
        return True

    def hb_collapse():
        # linear forced runs at h_b = 1 exactly, with different S, N0 and
        # gamma: the linear model sees (h, B) only through h_b; a uniform
        # drive and a given fit window keep the dispersion engine out
        measured = set()
        for h, B in ((1.0, 0.0), (0.5, 1.0), (2.0, -0.5)):
            cfg = ModelConfig.from_reduced(n=2, theta=0.3, h=h, B=B)
            series = simulate.run_forced(cfg, wavelengths=4, points_per_wavelength=10,
                                         periods=2, drive="uniform")
            lam_est = simulate.hydrodynamic_wavelength(cfg)
            fit = simulate.fit_wave(series, fit_window=(lam_est, 3.5 * lam_est))
            measured.add(fit.lambda_meas)
        return len(measured) == 1

    def residual_contract():
        table = analysis.sweep([0.0, math.pi / 8, math.pi / 4], [0.0, 0.5],
                               np.geomspace(1e-2, 1e2, 25), 2,
                               branch_policy="all")
        return all(row.residual < 1e-9 for row in table)

    return [
        ("closed-form-oracle", closed_form_oracle),
        ("theta-pi4-identity", theta_pi4_identity),
        ("hydrodynamic-limit", hydrodynamic_limit),
        ("theta-symmetry", theta_symmetry),
        ("h-b-collapse", hb_collapse),
        ("residual-contract", residual_contract),
    ]


def _cmd_verify(args) -> int:
    failures = 0
    for name, check in _verify_checks(VERIFY_SEED):
        ok = check()
        sys.stdout.write(f"{name}: {'PASS' if ok else 'FAIL'}\n")
        failures += 0 if ok else 1
    sys.stdout.write(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}\n")
    return 0 if failures == 0 else 2


# flags that several subcommands share, with their argparse settings
_SHARED_FLAGS = {
    "h": dict(type=_positive),
    "B": dict(type=_finite(float, -1.0), default=0.0),
    "theta": dict(type=parse_angle),
    "n": dict(type=_finite(int, 1), default=2),
    "branch": dict(default="acoustic", choices=("acoustic", "all")),
    "out": dict(help="output file (default stdout)"),
    "format": dict(default="csv", choices=("csv", "json")),
}


@functools.cache
def _parsers():
    """The parser, built on first use and then shared."""
    parser = _Parser(prog="bosewave", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand")

    def add(name, help, command, shared):
        p = sub.add_parser(name, help=help)
        p.set_defaults(command=command)
        p.add_argument("--config", help="flat key = value file")
        for flag in shared.split():
            p.add_argument("--" + flag, **_SHARED_FLAGS[flag])
        return p

    add("roots", "dispersion roots at one parameter point", _cmd_roots,
        "h B theta n branch out format")
    p = add("sweep", "dispersion/attenuation table over h", _cmd_sweep,
            "n branch out format")
    p.add_argument("--h-range", type=_parse_range, metavar="LO:HI:STEPS")
    p.add_argument("--log", action="store_true", default=None)
    p.add_argument("--theta", type=_list_of(parse_angle), default=[0.0],
                   help="comma-separated angles")
    p.add_argument("--B", type=_list_of(_finite(float, -1.0)), default=[0.0],
                   help="comma-separated values")
    p = add("hmax", "maximum-absorption state", _cmd_hmax, "theta B n")
    p.add_argument("--branch", default="acoustic", choices=("acoustic", "secondary"))
    p.add_argument("--h-range", type=_parse_bounds, metavar="LO:HI",
                   default=analysis.DEFAULT_H_RANGE)
    p = add("theta-scan", "max attenuation vs orientation", _cmd_theta_scan,
            "B n out format")
    p.add_argument("--h-cap", type=_positive, default=10.0)
    p.add_argument("--steps", type=_finite(int, 2), default=33)
    p = add("simulate", "forced kinetic run + wave fit", _cmd_simulate,
            "h B theta n out")
    for flag, default in (("ppw", 40), ("periods", 5), ("wavelengths", 12)):
        p.add_argument("--" + flag, type=int, default=default)  # run_forced checks them
    p.add_argument("--stride", type=_finite(int, 0), default=1)
    p.add_argument("--nonlinear", action="store_true")
    p.add_argument("--eps", type=_positive, default=1e-3)
    add("verify", "oracle cross-check suite", _cmd_verify, "")
    return parser


def _config_tokens(args) -> list:
    """The --config file's values as flags of this subcommand, in option order.

    A key names a long option without its dashes; any other key is ignored.
    A switch is given when its value is one of TRUE_WORDS and left out
    otherwise, as on the command line.
    """
    values = _read_config_file(args.config)
    tokens = []
    for dest in vars(args):
        key = dest.replace("_", "-")
        if key not in values or dest in ("subcommand", "command"):
            continue
        if dest not in SWITCHES:
            tokens.append(f"--{key}={values[key]}")
        elif values[key].lower() in TRUE_WORDS:
            tokens.append(f"--{key}")
    return tokens


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One `Category: message` line on stderr, whatever the caller's source."""
    sys.stderr.write(f"{category.__name__}: {message}\n")


def main(argv=None) -> int:
    """Run the CLI; returns the exit code (0 ok, 1 arguments, 2 numerical)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parsers()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_help(sys.stderr)
            return 1
        if args.config:  # config flags first, so a command-line flag wins
            args = parser.parse_args(argv[:1] + _config_tokens(args) + argv[1:])
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.command(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
