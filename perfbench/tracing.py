"""Span recorder for the traced study run.

The traced run wraps, by name, the functions that ``ncflux.analysis`` and
the modules it calls look up in their own namespaces at call time. Only
functions are wrapped, never classes: ``l2_error`` checks
``isinstance(mesh, TensorMesh)`` against the class in its namespace.
Problem data is timed through a ``Problem`` whose leaf callables are
wrapped with ``dataclasses.replace``, so no file of the package changes.

Every span records its name, layer, start, end, parent span and level,
plus counts taken at the same boundary. Spans stay in memory until the
study ends. ``layer_metrics`` turns them into per-layer numbers: each
``_s`` metric is self time (span durations minus their child spans), so
the layer times plus ``analysis.self_s`` add up to the study wall time.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import defaultdict

# (module, function, layer). The elements tables are wrapped under every
# module that imports them, since each looks them up in its own namespace.
WRAPPED = (
    ("analysis", "assemble", "assembly"),
    ("analysis", "reconstruct_field", "assembly"),
    ("analysis", "solve", "sparse_solve"),
    ("analysis", "dense_lu", "sparse_solve"),
    ("analysis", "corrected_flux", "recovery"),
    ("analysis", "rt_interpolate", "recovery"),
    ("analysis", "midpoint_average", "recovery"),
    ("analysis", "assemble_cr", "cr"),
    ("analysis", "corrected_flux_cr", "cr"),
    ("analysis", "rt_interpolate_tri", "cr"),
    ("analysis", "edge_midpoint_average", "cr"),
    ("analysis", "cell_means", "cr"),
    ("analysis", "refine_midpoint", "mesh"),
    ("analysis", "perturb", "mesh"),
    ("analysis", "build_uniform_parallel", "mesh"),
    ("analysis", "l2_error", "analysis"),
    ("analysis", "cell_quadrature", "elements"),
    ("analysis", "tri_quadrature", "elements"),
    ("assembly", "nc_basis", "elements"),
    ("assembly", "cell_quadrature", "elements"),
    ("assembly", "facet_quadrature", "elements"),
    ("recovery", "nc_basis", "elements"),
    ("recovery", "cell_quadrature", "elements"),
    ("recovery", "facet_quadrature", "elements"),
    ("cr", "cr_basis", "elements"),
    ("cr", "tri_quadrature", "elements"),
    ("cr", "edge_quadrature", "elements"),
)

PROBLEM_LEAVES = ("u", "grad_u", "lap_u", "a", "grad_a", "b", "c", "g")

# span name -> the time metric its self time adds to. The triangular
# pipeline's functions in ncflux.cr count into the stage they perform, so
# every time metric is measured on every workload; on cr-p1-L5, the only
# workload through ncflux.cr, these stages are that module's time. Self
# times per function, module by module, are in the trace file.
TIME_METRIC = {
    "assembly.assemble": "assembly.assemble_s",
    "assembly.reconstruct_field": "assembly.assemble_s",
    "cr.assemble_cr": "assembly.assemble_s",
    "sparse_solve.solve": "sparse_solve.solve_s",
    "sparse_solve.dense_lu": "sparse_solve.solve_s",
    "recovery.corrected_flux": "recovery.correct_s",
    "cr.corrected_flux_cr": "recovery.correct_s",
    "recovery.rt_interpolate": "recovery.interpolate_s",
    "cr.rt_interpolate_tri": "recovery.interpolate_s",
    "recovery.midpoint_average": "recovery.average_s",
    "cr.edge_midpoint_average": "recovery.average_s",
    "cr.cell_means": "recovery.average_s",
    "mesh.refine_midpoint": "mesh.build_s",
    "mesh.perturb": "mesh.build_s",
    "mesh.build_uniform_parallel": "mesh.build_s",
    "analysis.l2_error": "analysis.l2_error_s",
}
LAYER_TIME_METRIC = {"elements": "elements.tables_s",
                     "problems": "problems.eval_s"}

# Per-layer metrics in the order they are printed, with their units:
# first the ones summed from the spans of each level, then the ones
# run.py sets once per traced study.
METRICS = (
    ("sparse_solve.solve_s", "s"),
    ("sparse_solve.iterations", "count"),
    ("sparse_solve.breakdowns", "count"),
    ("sparse_solve.dense_fallbacks", "count"),
    ("assembly.assemble_s", "s"),
    ("assembly.unknowns", "count"),
    ("assembly.nnz", "count"),
    ("elements.tables_s", "s"),
    ("elements.calls", "count"),
    ("elements.quad_points", "count"),
    ("elements.quad_bytes", "bytes"),
    ("problems.eval_s", "s"),
    ("problems.eval_points", "count"),
    ("recovery.correct_s", "s"),
    ("recovery.interpolate_s", "s"),
    ("recovery.average_s", "s"),
    ("mesh.build_s", "s"),
    ("analysis.l2_error_s", "s"),
    ("analysis.l2_error_calls", "count"),
    ("analysis.self_s", "s"),
)
STUDY_METRICS = (
    ("analysis.levels_failed_ratio", "ratio"),
    ("analysis.err_rel_drift", "ratio"),
    ("trace.study_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span recorder; ``level`` is advanced by the caller."""

    def __init__(self):
        self.spans = []          # dicts, in start order
        self._stack = []         # indices of the open spans
        self.level = 0
        self.unwrapped = []      # names absent from their module

    def _call(self, name, layer, fn, args, kwargs, count):
        span = {"name": name, "layer": layer, "level": self.level,
                "parent": self._stack[-1] if self._stack else None,
                "start": 0.0, "end": 0.0, "error": None, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        out = exc = None
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        except Exception as err:
            exc = err
            span["error"] = type(err).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if count is not None:
                count(span["counts"], args, out, exc)

    def wrap(self, name, layer, fn, count=None):
        def traced(*args, **kwargs):
            return self._call(name, layer, fn, args, kwargs, count)
        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict):
        """Wrap every WRAPPED function found in ``modules`` (by name)."""
        for mod_name, attr, layer in WRAPPED:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.unwrapped.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(f"{layer}.{attr}", layer, fn,
                                            COUNTERS.get(attr)))

    def timed_problem(self, problem):
        """Copy of ``problem`` whose leaf callables record spans."""
        leaves = {}
        for leaf in PROBLEM_LEAVES:
            fn = getattr(problem, leaf)
            if fn is not None:
                leaves[leaf] = self.wrap(f"problems.{leaf}", "problems", fn,
                                         _count_points)
        return dataclasses.replace(problem, **leaves)


# -- counts taken at span boundaries ------------------------------------------

def _count_points(counts, args, out, exc):
    counts["points"] = math.prod(args[0].shape[:-1])


def _count_system(counts, args, out, exc):
    if out is not None:
        counts["unknowns"] = int(out.matrix.shape[0])
        counts["nnz"] = int(out.matrix.nnz)


def _count_solve(counts, args, out, exc):
    if out is not None:
        counts["iterations"] = int(out[1].iterations)
    elif getattr(exc, "report", None) is not None:
        counts["iterations"] = int(exc.report.iterations)


def _count_quadrature(counts, args, out, exc):
    if out is not None:
        pts, wts = out
        counts["array_id"] = id(pts)
        counts["points"] = math.prod(pts.shape[:-1])
        counts["bytes"] = int(pts.nbytes + wts.nbytes)


COUNTERS = {
    "assemble": _count_system,
    "assemble_cr": _count_system,
    "solve": _count_solve,
    "cell_quadrature": _count_quadrature,
    "facet_quadrature": _count_quadrature,
    "tri_quadrature": _count_quadrature,
    "edge_quadrature": _count_quadrature,
}


def layer_metrics(spans: list, level_walls: list) -> tuple[list, list]:
    """Per-level metric values and per-function self times of one study.

    ``level_walls[k]`` is the wall time of level k, the last entry being
    the level the study stopped on when it failed. Quadrature arrays are
    counted once per level however often the cache hands them out; their
    sizes are computed from array shapes, not measured.
    """
    levels = [dict.fromkeys((m for m, _ in METRICS), 0)
              for _ in level_walls]
    functions = [defaultdict(float) for _ in level_walls]
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    top = [0.0] * len(level_walls)
    seen_arrays = set()
    for i, span in enumerate(spans):
        out = levels[span["level"]]
        name = span["name"]
        dur = span["end"] - span["start"]
        if span["parent"] is None:
            top[span["level"]] += dur
        metric = TIME_METRIC.get(name) or LAYER_TIME_METRIC[span["layer"]]
        out[metric] += dur - child_time[i]
        functions[span["level"]][name] += dur - child_time[i]
        counts = span["counts"]
        if span["layer"] == "elements":
            out["elements.calls"] += 1
            key = (span["level"], counts.get("array_id"))
            if "array_id" in counts and key not in seen_arrays:
                seen_arrays.add(key)
                out["elements.quad_points"] += counts["points"]
                out["elements.quad_bytes"] += counts["bytes"]
        elif span["layer"] == "problems":
            out["problems.eval_points"] += counts["points"]
        elif name in ("assembly.assemble", "cr.assemble_cr"):
            out["assembly.unknowns"] += counts.get("unknowns", 0)
            out["assembly.nnz"] += counts.get("nnz", 0)
        elif name == "sparse_solve.solve":
            out["sparse_solve.iterations"] += counts.get("iterations", 0)
            if span["error"] == "SolverError":
                out["sparse_solve.breakdowns"] += 1
        elif name == "sparse_solve.dense_lu":
            out["sparse_solve.dense_fallbacks"] += 1
        elif name == "analysis.l2_error":
            out["analysis.l2_error_calls"] += 1
    for k, wall in enumerate(level_walls):
        levels[k]["analysis.self_s"] = wall - top[k]
    return levels, [dict(f) for f in functions]


def sum_levels(levels: list[dict]) -> dict:
    total = dict.fromkeys((m for m, _ in METRICS), 0)
    for lvl in levels:
        for key, value in lvl.items():
            total[key] += value
    return total
