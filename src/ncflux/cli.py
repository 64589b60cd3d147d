"""Command-line entry point.

    ncflux study [options]

runs a convergence study and writes the report (CSV by default) to
stdout or --out. Per-level progress and the fitted orders go to stderr,
so piping stdout captures clean data. Options may also come from a flat
key=value config file; explicit flags win over file entries.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from .analysis import StudyConfig, emit_report, run_study
from .problems import Problem
from .sparse_solve import SolverError

_INT_KEYS = {"levels", "seed", "skip", "cr_initial"}
_FLOAT_KEYS = {"perturb", "tol"}
_STR_KEYS = {"problem", "element", "solver", "format", "out", "custom_spec"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

_DEFAULTS = {
    "problem": "p1",
    "element": "ncrt2d",
    "levels": 7,
    "perturb": 0.2,
    "seed": 0,
    "skip": None,
    "solver": "bicgstab",
    "tol": 1e-10,
    "cr_initial": 8,
    "format": "csv",
    "out": None,
    "custom_spec": None,
}


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
    st.add_argument("--solver", default=None,
                    choices=["bicgstab", "gmres"])
    st.add_argument("--tol", type=float, default=None,
                    help="iterative solver relative tolerance, in (0, 1)")
    st.add_argument("--cr-initial", dest="cr_initial", type=int, default=None,
                    help="per-side cell count of the first triangular level")
    st.add_argument("--custom-spec", dest="custom_spec", default=None,
                    metavar="MODULE:ATTR",
                    help="import path of a Problem (or zero-arg factory) "
                         "for --problem custom")
    st.add_argument("--format", default=None, choices=["csv", "structured"])
    st.add_argument("--out", default=None,
                    help="write the report to this file instead of stdout")
    st.add_argument("--config", default=None,
                    help="flat key=value option file; flags take precedence")
    return parser


def read_config_file(path: str) -> dict:
    """Parse a flat key=value file; '#' starts a comment line."""
    options = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _ALL_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            if key in _INT_KEYS:
                options[key] = int(value)
            elif key in _FLOAT_KEYS:
                options[key] = float(value)
            else:
                options[key] = value
    return options


def load_custom(spec: str) -> Problem:
    """Import MODULE:ATTR and return the Problem it names or builds."""
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ValueError(f"custom spec must look like module:attr, "
                         f"got {spec!r}")
    obj = getattr(importlib.import_module(module_name), attr)
    if callable(obj) and not isinstance(obj, Problem):
        obj = obj()
    if not isinstance(obj, Problem):
        raise TypeError(f"{spec} is not a Problem (got {type(obj).__name__})")
    return obj


def _merge_options(args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS)
    if args.config is not None:
        merged.update(read_config_file(args.config))
    for key in _ALL_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _run_study(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    custom = None
    if opts["problem"] == "custom":
        if not opts["custom_spec"]:
            print("error: --problem custom requires --custom-spec",
                  file=sys.stderr)
            return 2
        custom = load_custom(opts["custom_spec"])
    config = StudyConfig(
        problem=opts["problem"], element=opts["element"],
        levels=opts["levels"], perturb=opts["perturb"], seed=opts["seed"],
        skip=opts["skip"], solver=opts["solver"], tol=opts["tol"],
        cr_initial=opts["cr_initial"], custom=custom)

    def progress(r):
        print(f"ne={r.ne:<8d} h={r.h:.3e} u={r.err_u:.3e} "
              f"raw={r.err_flux_raw:.3e} superclose={r.err_superclose:.3e} "
              f"recovered={r.err_recovered:.3e}", file=sys.stderr)

    try:
        result = run_study(config, progress=progress)
    except (SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for col, order in result.orders.items():
        print(f"order {col}: {order:.4f}", file=sys.stderr)
    text = emit_report(result, format=opts["format"])
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "study":
        try:
            return _run_study(args)
        except (OSError, ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
