"""Command-line entry point.

    ncflux study [options]

runs a convergence study and writes the report (CSV by default) to
stdout or --out. Per-level progress and the fitted orders go to stderr,
so piping stdout captures clean data. Options may also come from a flat
key=value config file, read as flags placed before the command line's:
file entries get the parser's checks, and explicit flags win. The
parser and StudyConfig are the only description of a study's options;
StudyConfig holds their defaults.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import warnings
from dataclasses import fields

from .analysis import StudyConfig, emit_report, run_study
from .problems import Problem
from .sparse_solve import SolverError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncflux",
        description="Nonconforming finite elements with superconvergent "
                    "flux recovery.")
    sub = parser.add_subparsers(dest="command", required=True)
    st = sub.add_parser("study", help="run a convergence study")
    st.add_argument("--problem", default=None,
                    help="built-in problem name (p1, p2) or 'custom'")
    st.add_argument("--element", default=None,
                    choices=["ncrt2d", "ncrt3d", "cr"])
    st.add_argument("--levels", type=int, default=None,
                    help="number of refinement levels")
    st.add_argument("--perturb", type=float, default=None,
                    help="gridline perturbation fraction in [0, 0.5)")
    st.add_argument("--seed", type=int, default=None,
                    help="seed for the per-level perturbations")
    st.add_argument("--skip", type=int, default=None,
                    help="leading levels excluded from the order fit")
    st.add_argument("--tol", type=float, default=None,
                    help="BiCGStab bound on the true relative residual, "
                         "in (0, 1)")
    st.add_argument("--cr-initial", dest="cr_initial", type=int, default=None,
                    help="per-side cell count of the first triangular level")
    st.add_argument("--custom-spec", dest="custom_spec", default=None,
                    metavar="MODULE:ATTR",
                    help="import path of a Problem (or zero-arg factory) "
                         "for --problem custom")
    st.add_argument("--format", default="csv", choices=["csv", "structured"])
    st.add_argument("--out", default=None,
                    help="write the report to this file instead of stdout")
    st.add_argument("--config", default=None,
                    help="flat key=value option file; flags take precedence")
    return parser


def read_config_file(path: str) -> list:
    """Turn a flat key=value file into ``--key=value`` study flags.

    '#' starts a comment line; underscores in a key read as dashes.
    """
    flags = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def load_custom(spec: str) -> Problem:
    """Import MODULE:ATTR and return the Problem it names or builds.

    A module that fails on import, a missing ATTR and a factory that
    raises are each a ValueError naming the spec, whatever they raise.
    """
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ValueError(f"custom spec must look like module:attr, "
                         f"got {spec!r}")
    try:
        obj = getattr(importlib.import_module(module_name), attr)
        if callable(obj) and not isinstance(obj, Problem):
            obj = obj()
    except Exception as exc:
        raise ValueError(
            f"custom spec {spec!r}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(obj, Problem):
        raise TypeError(f"{spec} is not a Problem (got {type(obj).__name__})")
    return obj


def _run_study(args: argparse.Namespace) -> int:
    if args.out:
        if os.path.isdir(args.out):
            print(f"error: --out {args.out} is a directory", file=sys.stderr)
            return 2
        folder = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(folder):
            print(f"error: --out {args.out}: directory {folder} does not "
                  "exist", file=sys.stderr)
            return 2
    names = {f.name for f in fields(StudyConfig)}
    options = {key: value for key, value in vars(args).items()
               if key in names and value is not None}
    if args.custom_spec is not None and options.get("problem") != "custom":
        print("error: --custom-spec needs --problem custom", file=sys.stderr)
        return 2
    if options.get("problem") == "custom":
        if not args.custom_spec:
            print("error: --problem custom requires --custom-spec",
                  file=sys.stderr)
            return 2
        options["custom"] = load_custom(args.custom_spec)
    config = StudyConfig(**options)

    def progress(r):
        print(f"ne={r.ne:<8d} h={r.h:.3e} u={r.err_u:.3e} "
              f"raw={r.err_flux_raw:.3e} superclose={r.err_superclose:.3e} "
              f"recovered={r.err_recovered:.3e}", file=sys.stderr)

    def show_warning(message, category, filename, lineno, file=None,
                     line=None):
        # one line, like the errors: the source line would be ours
        print(f"warning: {message}", file=sys.stderr)

    try:
        with warnings.catch_warnings():
            warnings.showwarning = show_warning
            result = run_study(config, progress=progress)
    except (SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for col, order in result.orders.items():
        print(f"order {col}: {order:.4f}", file=sys.stderr)
    text = emit_report(result, format=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # argv[0] is the command; the file's flags go before the rest
            args = parser.parse_args(
                argv[:1] + read_config_file(args.config) + argv[1:])
        return _run_study(args)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
