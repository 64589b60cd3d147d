"""Child process of the study benchmark: one study, or one set-up probe.

    python3 perfbench/study.py '<json spec>'

The spec holds ``config`` (StudyConfig keyword arguments), ``trace``
(record spans), ``setup_only`` (import and resolve the problem, then
stop) and ``inject_breakdown`` (a level on which ``solve`` raises
``SolverError``; used by the self-test). The result is printed as one
JSON line on stdout. ``ncflux`` must be importable, which ``run.py``
arranges through ``PYTHONPATH``.
"""

import json
import resource
import sys
import time


def _inject_breakdown(analysis, target, level_of):
    """Make ``analysis.solve`` raise SolverError on one level.

    The dense fallback is switched off for that call, as it is on systems
    above DENSE_LIMIT unknowns, so the breakdown ends the study.
    """
    from ncflux.sparse_solve import SolveReport, SolverError
    solve = analysis.solve

    def failing(matrix, rhs, *args, **kwargs):
        if level_of() != target:
            return solve(matrix, rhs, *args, **kwargs)
        analysis.DENSE_LIMIT = 0
        report = SolveReport(method="bicgstab", converged=False,
                             iterations=0, residual=1.0, dim=matrix.shape[0])
        raise SolverError("injected breakdown", report)

    analysis.solve = failing


def main(spec):
    start = time.perf_counter()
    import ncflux.analysis as analysis
    from ncflux.problems import REGISTRY
    problem = REGISTRY[spec["config"]["problem"]]()
    setup_s = time.perf_counter() - start
    if spec.get("setup_only"):
        import numpy
        import scipy
        return {"setup_s": setup_s, "numpy": numpy.__version__,
                "scipy": scipy.__version__}

    import ncflux.assembly
    import ncflux.cr
    import ncflux.recovery
    from ncflux.analysis import COLUMNS, StudyConfig, emit_report, run_study
    from ncflux.sparse_solve import SolverError

    records, ends = [], []       # per completed level; ends from t0
    config = StudyConfig(**spec["config"])
    tracer = None
    if spec.get("inject_breakdown") is not None:
        _inject_breakdown(analysis, spec["inject_breakdown"],
                          lambda: len(records))
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install({"analysis": analysis, "assembly": ncflux.assembly,
                        "recovery": ncflux.recovery, "cr": ncflux.cr})
        config = StudyConfig(**dict(spec["config"], problem="custom"),
                             custom=tracer.timed_problem(problem))

    def progress(record):
        ends.append(time.perf_counter() - t0)
        records.append({k: getattr(record, k) for k in ("ne", "h", *COLUMNS)})
        if tracer is not None:
            tracer.level = len(records)

    out = {"setup_s": setup_s, "error": None, "orders": {}, "csv": None,
           "records": records}
    t0 = time.perf_counter()
    try:
        result = run_study(config, progress=progress)
    except SolverError as exc:
        out["error"] = f"SolverError: {exc}"
    wall = time.perf_counter() - t0
    out["wall_s"] = wall
    if out["error"] is None:
        out["orders"] = result.orders
        out["csv"] = emit_report(result)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        # the order fit after the last level counts into that level
        if out["error"] is None:
            ends.pop()
        ends.append(wall)
        out["level_walls"] = [b - a for a, b in zip([0.0] + ends, ends)]
        out["spans"] = [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                        for s in tracer.spans]
        out["unwrapped"] = tracer.unwrapped
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
