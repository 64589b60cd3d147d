"""Study benchmark: times whole convergence studies and checks their tables.

    python3 perfbench/run.py --workload ncrt2d-p1-L8 --seed 0 \
        --seconds 30 --trace 0

Run from the root of a checkout; ``ncflux`` is imported from its ``src``.
Each study runs as one ``run_study`` call in a fresh child process, one at
a time (a closed loop with one client): studies start until ``--seconds``
have passed, so a run measures at least one study and overruns the window
by at most one. Every child gets the same StudyConfig (see
``workloads.py``; ``--seed`` is recorded but every workload pins its study
seed), and ``OPENBLAS_NUM_THREADS`` fixed at ``min(BLAS_THREADS, nproc)``.

With ``--trace 0`` the run prints the end-to-end metrics:

* ``study_s``: median wall seconds of a full table. A study that loses
  levels is charged its wall time scaled up by the elements of all its
  levels over the elements of the levels it passed: the time a full
  table would take at the rate it ran. A study that passes no level is
  charged the whole measurement window.
* ``elems_per_s``: per study, the elements of the levels that completed
  and passed the check over the study's wall time, failed time included;
  median over the studies.
* ``levels_ok_ratio``: levels that completed and passed the check over
  the levels attempted. A study that aborts on level k loses levels k..L;
  one that fails the check loses all its levels.
* ``peak_rss_mb``: median ``ru_maxrss`` of the study processes.
* ``setup_s``: median fresh-process time to import ncflux and resolve the
  problem, over set-up probes and the study processes.

With ``--trace 1`` the run makes an untraced, a traced and another
untraced study and prints the per-layer metrics of the traced one (see
``tracing.py``), the tracing overhead against the untraced ones, and a
per-level table; spans and per-level values go to ``perfbench/out/``.
The last line of stdout is always one JSON object
with ``correct``, ``attempted``, ``failed`` (levels) and ``metrics``.

The self-test is ``python3 -m pytest perfbench/test_perfbench.py``;
``make_reference.py`` rewrites the reference table the check uses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("study_s", "s"),
    ("elems_per_s", "1/s"),
    ("levels_ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class ChildFailed(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--levels", type=int, default=None,
                   help="override the workload's level count (self-test)")
    p.add_argument("--inject-breakdown", type=int, default=None,
                   metavar="LEVEL",
                   help="make solve raise SolverError on LEVEL (self-test)")
    return p.parse_args(argv)


def child_env() -> tuple[dict, int]:
    threads = min(workloads.BLAS_THREADS, os.cpu_count() or 1)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def run_child(spec: dict, env: dict, timeout: float) -> dict:
    """Run study.py on spec; return its JSON result or raise ChildFailed."""
    cmd = [sys.executable, str(HERE / "study.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=max(timeout, 1.0), text=True)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit code {proc.returncode}")
    return json.loads(lines[-1])


def attempt(spec: dict, env: dict, deadline: float) -> dict:
    """One study; a study process that crashes counts as a failed study."""
    t = time.perf_counter()
    try:
        res = run_child(spec, env, deadline - t)
    except ChildFailed as exc:
        res = {"error": f"study process failed: {exc}", "records": [],
               "orders": {}, "csv": None, "wall_s": time.perf_counter() - t,
               "setup_s": None, "peak_rss_mb": None}
    res["config"] = spec["config"]
    return res


def check_attempts(workload: str, attempts: list, reference: dict) -> None:
    """Attach ``problems`` and ``ok_levels`` to every attempt."""
    csvs = {a["csv"] for a in attempts if a["csv"] is not None}
    for a in attempts:
        problems = workloads.check_records(a["records"])
        if a["error"] is None:
            problems += workloads.check_orders(workload, a["config"],
                                               a["orders"], reference)
            if len(csvs) > 1:
                problems.append("CSV report bytes differ between repeats "
                                "of the same config")
        a["problems"] = problems
        a["ok_levels"] = 0 if problems else len(a["records"])


def end_to_end(workload: str, attempts: list, window_wall: float,
               setups: list, reference: dict) -> dict:
    """The end-to-end metrics of a run from its checked attempts."""
    study, rate = [], []
    for a in attempts:
        full = workloads.reference_elements(workload, a["config"]["levels"],
                                            reference)
        elems = sum(r["ne"] for r in a["records"][:a["ok_levels"]])
        study.append(a["wall_s"] * full / elems if elems else window_wall)
        rate.append(elems / a["wall_s"])
    attempted = sum(a["config"]["levels"] for a in attempts)
    rss = [a["peak_rss_mb"] for a in attempts if a["peak_rss_mb"]]
    return {
        "study_s": statistics.median(study),
        "elems_per_s": statistics.median(rate),
        "levels_ok_ratio": sum(a["ok_levels"] for a in attempts) / attempted,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "setup_s": statistics.median(setups),
    }


def trace_metrics(workload: str, traced: dict, untraced: list,
                  reference: dict) -> tuple[dict, list, list]:
    """Per-layer totals, per-level values and per-level self times of each
    traced function, for the traced study."""
    if "spans" in traced:
        levels, functions = tracing.layer_metrics(traced["spans"],
                                                  traced["level_walls"])
    else:
        levels, functions = [], []
    totals = tracing.sum_levels(levels)
    cfg = traced["config"]
    drift = workloads.error_drift(workload, traced["records"], reference)
    totals["analysis.levels_failed_ratio"] = \
        1.0 - traced["ok_levels"] / cfg["levels"]
    totals["analysis.err_rel_drift"] = drift
    totals["trace.study_s"] = traced["wall_s"]
    totals["trace.overhead_s"] = traced["wall_s"] - statistics.median(
        a["wall_s"] for a in untraced)
    return totals, levels, functions


def print_level_table(levels: list, records: list) -> None:
    cols = ["sparse_solve.solve_s", "sparse_solve.iterations",
            "assembly.assemble_s", "elements.tables_s", "problems.eval_s",
            "recovery.correct_s", "analysis.l2_error_s",
            "analysis.self_s"]
    print("level ne " + " ".join(cols))
    for k, lvl in enumerate(levels):
        ne = records[k]["ne"] if k < len(records) else "failed"
        print(f"{k} {ne} " + " ".join(f"{lvl[c]:.4g}" for c in cols))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ncflux" / "__init__.py").is_file():
        print(f"error: no ncflux package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    env, threads = child_env()
    config = workloads.study_config(args.workload, args.levels)
    reference = workloads.load_reference()

    setups = []
    for _ in range(SETUP_PROBES):
        try:
            probe = run_child({"config": config, "setup_only": True}, env,
                              deadline - time.perf_counter())
        except ChildFailed as exc:
            print(f"error: set-up probe failed: {exc}", file=sys.stderr)
            return 2
        setups.append(probe["setup_s"])
    environment = {"python": platform.python_version(),
                   "numpy": probe["numpy"], "scipy": probe["scipy"],
                   "nproc": os.cpu_count(), "blas_threads": threads}
    print(f"# environment {json.dumps(environment)}")
    print(f"# workload {args.workload} config {json.dumps(config)}")

    spec = {"config": config, "inject_breakdown": args.inject_breakdown}
    attempts = []
    t_window = time.perf_counter()
    if args.trace:
        # untraced studies on both sides of the traced one, so that a slow
        # first study does not pass for tracing overhead
        for trace in (False, True, False):
            attempts.append(attempt(dict(spec, trace=trace), env, deadline))
    else:
        while not attempts or time.perf_counter() - t_window < args.seconds:
            attempts.append(attempt(spec, env, deadline))
            if deadline - time.perf_counter() < 2 * attempts[-1]["wall_s"]:
                break
    window_wall = time.perf_counter() - t_window

    check_attempts(args.workload, attempts, reference)
    setups += [a["setup_s"] for a in attempts if a["setup_s"] is not None]
    for i, a in enumerate(attempts):
        status = "ok" if a["error"] is None else a["error"]
        print(f"# study {i}: {a['wall_s']:.3f} s, {len(a['records'])}/"
              f"{a['config']['levels']} levels, {status}")
        for problem in a["problems"]:
            print(f"#   check failed: {problem}")

    if args.trace:
        traced = attempts[1]
        values, levels, functions = trace_metrics(
            args.workload, traced, attempts[::2], reference)
        print_level_table(levels, traced["records"])
        if traced.get("unwrapped"):
            print(f"# not found, so not traced: {traced['unwrapped']}")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "config": config,
                       "environment": environment,
                       "totals": values, "levels": levels,
                       "functions": functions,
                       "spans": traced.get("spans", [])}, fh)
        print(f"# trace written to {path.relative_to(ROOT)}")
    else:
        values = end_to_end(args.workload, attempts, window_wall, setups,
                            reference)
    units = dict(END_TO_END + tracing.METRICS + tracing.STUDY_METRICS)
    result = {
        "correct": not any(a["problems"] for a in attempts),
        "attempted": sum(a["config"]["levels"] for a in attempts),
        "failed": sum(a["config"]["levels"] - a["ok_levels"]
                      for a in attempts),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(f"# failed levels: {result['failed']} of {result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
