"""Convergence studies: mesh hierarchies, error norms, order fitting.

A study runs one manufactured problem over a hierarchy of meshes, solves
on each level, and records four L2 errors per level: the solution error,
the raw flux error, the distance of the corrected flux to the canonical
facet-flux interpolant of the exact flux (the supercloseness quantity),
and the error of the averaged, recovered flux. Orders are least-squares
slopes in log-log, fitted after dropping the preasymptotic levels.

Boxes and triangles share one ``_level``. The mesh families differ only
in its five stages (assemble, field from dofs, correct, interpolate,
average), which ``run_study`` reads from this module's namespace. Every
level is solved with the map ``assembly.preconditioner`` picks by the
mesh's dimension.

The error norms use the 4-point Gauss rule per axis on boxes
(``elements.NORM_RULE``); the problem data were integrated with the
3-point data rule, whose quadrature error falls much faster than these
errors (Ciarlet, The Finite Element Method for Elliptic Problems, 1978,
sec. 4.1). The discrete fields are read from reference tables at the
rule's points, not evaluated at mapped points, on boxes and on
triangles. The exact data of a level are ``problems.Term``s, so each
block of the norms samples u, grad u and a in one ``Problem.sample``
call. On both mesh families the supercloseness error, the norm of a
piecewise affine field, is computed in closed form
(``BrokenRT.l2_norm``).

Box hierarchies refine by interval halving and then randomly perturb the
gridlines of every level after the first, so the superconvergence is
exercised on meshes with no special structure. Triangular hierarchies
use the uniformly refined same-diagonal pattern that the edge-averaging
theory requires; perturbation does not apply there.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .assembly import assemble, preconditioner, reconstruct_field
from .cr import (CRField, assemble_cr, corrected_flux_cr,
                 edge_midpoint_average, rt_interpolate_tri)
from .elements import (NORM_RULE, RawFlux, cell_blocks, cell_quadrature,
                       cell_table, reference_values)
from .mesh import TensorMesh, build_uniform_parallel, perturb, refine_midpoint
from .problems import Problem, REGISTRY, Term
from .recovery import corrected_flux, midpoint_average, rt_interpolate
from .sparse_solve import solve

COLUMNS = ("err_u", "err_flux_raw", "err_superclose", "err_recovered")

# each element's problem dimension and default skip
ELEMENTS = {"ncrt2d": (2, 3), "ncrt3d": (3, 2), "cr": (2, 0)}


def l2_error(mesh, exact, approx=None) -> float | tuple[float, ...]:
    """L2 norm of exact - approx over the mesh (of exact when approx is None).

    exact and approx are each a table field or a callable: a discrete
    field that gives reference_coeffs(rows), a RawFlux, or a plain
    callable on quadrature points such as a ``problems.Term``; anything
    else raises TypeError. Scalar and vector integrands are both
    accepted. exact and approx may also be equal-length lists or tuples
    (approx entries may be None); then the norms of all pairs come back
    as a tuple, measured in one pass. The
    mesh, boxes or triangles, gives its blocks, its rule and its table
    (``elements.cell_blocks``, ``cell_quadrature`` and ``cell_table``
    with ``elements.NORM_RULE``; triangles take their one rule), and the
    quadrature is mapped once per block; each distinct field or callable
    (matched by identity) is sampled once per block, with the block's
    rows for discrete fields, and the ``problems.Term``s of one problem,
    RawFlux parts included, in one ``Problem.sample`` call. A block's
    sum of w |v|^2 is one einsum of the weights and the values twice,
    with no squared temporary. Every norm adds its block sums in block
    order.

    A table field is not evaluated at the mapped points: its
    coefficients times the mesh's table are its values there. A RawFlux
    is a at the points times its gradient's values, so every flux over
    one a samples a once per block.
    """
    single = not isinstance(exact, (list, tuple))
    if single:
        exact, approx = (exact,), (approx,)
    elif approx is None:
        approx = (None,) * len(exact)
    if len(approx) != len(exact):
        raise ValueError(f"{len(exact)} exact fields but {len(approx)} "
                         "approximations")
    blocks = cell_blocks(mesh, NORM_RULE)
    table = cell_table(mesh, NORM_RULE)
    groups = _term_groups((*exact, *approx))
    totals = [0.0] * len(exact)
    for rows in blocks:
        pts, wts = cell_quadrature(mesh, rows, NORM_RULE)
        samples = {}        # the previous block's samples are freed first
        for problem, names in groups:
            samples[id(problem)] = problem.sample(pts, names)
        for i, (ex, ap) in enumerate(zip(exact, approx)):
            vals = _sample(samples, ex, pts, rows, table)
            if ap is not None:
                vals = vals - _sample(samples, ap, pts, rows, table)
            spec = "bq,bq,bq->" if vals.ndim == wts.ndim else "bq,bqd,bqd->"
            totals[i] += np.einsum(spec, wts, vals, vals)
    norms = tuple(float(np.sqrt(t)) for t in totals)
    return norms[0] if single else norms


def _term_groups(objs) -> list:
    """(problem, names) for each problem with Terms among objs, directly
    or as the parts of a RawFlux."""
    groups = {}
    for obj in objs:
        for part in (obj.a, obj.grad) if isinstance(obj, RawFlux) else (obj,):
            if isinstance(part, Term):
                names = groups.setdefault(id(part.problem),
                                          (part.problem, {}))[1]
                names[part.name] = None
    return [(problem, tuple(names)) for problem, names in groups.values()]


def _sample(samples, obj, pts, rows, table):
    """obj at pts, evaluated once per block: samples holds the block's
    values by identity."""
    if id(obj) not in samples:
        samples[id(obj)] = _values(samples, obj, pts, rows, table)
    return samples[id(obj)]


def _values(samples, obj, pts, rows, table):
    """obj at pts. rows selects the elements of a table field, whose
    reference coefficients times table, the basis of the rule's
    reference coefficients, are its values. A Term is read from its
    problem's sample of the block, when samples holds one. A RawFlux is
    a times its gradient's values; a goes through samples, where the raw
    and the exact flux share it, and the gradient's values are not kept.
    Anything else is called on pts."""
    if hasattr(obj, "reference_coeffs"):
        vals = reference_values(obj.reference_coeffs(rows), table)
    elif isinstance(obj, Term) and id(obj.problem) in samples:
        vals = samples[id(obj.problem)][obj.name]
    elif isinstance(obj, RawFlux):
        vals = (_sample(samples, obj.a, pts, rows, table)[..., None]
                * _values(samples, obj.grad, pts, rows, table))
    elif callable(obj):
        vals = obj(pts)
    else:
        raise TypeError("l2_error needs a table field or callable, got "
                        f"{type(obj).__name__}")
    return np.asarray(vals, dtype=float)


def fit_order(h, err) -> float:
    """Least-squares slope of log(err) against log(h)."""
    h = np.asarray(h, dtype=float)
    err = np.asarray(err, dtype=float)
    if h.shape != err.shape or h.size < 2:
        raise ValueError("need two or more (h, err) pairs")
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(err))):
        raise ValueError("h and err must be finite")
    if np.any(h <= 0) or np.any(err <= 0):
        raise ValueError("h and err must be positive")
    return float(np.polyfit(np.log(h), np.log(err), 1)[0])


@dataclass(frozen=True)
class LevelRecord:
    """Errors on one level of a study."""

    ne: int
    h: float
    err_u: float
    err_flux_raw: float
    err_superclose: float
    err_recovered: float


@dataclass(frozen=True)
class StudyConfig:
    """Everything a convergence study depends on.

    element is "ncrt2d" or "ncrt3d" (box meshes, facet-mean dofs) or
    "cr" (triangles). skip counts the leading levels excluded from the
    order fit; None picks the element default, and an explicit skip must
    leave two levels. perturb is the gridline perturbation fraction for
    box hierarchies, ignored with a warning on triangular ones. tol in
    (0, 1) bounds the true relative residual of every BiCGStab solve.
    cr_initial is the per-side cell count of the first triangular level.
    custom supplies the Problem when problem="custom". These defaults
    are the command line's defaults.
    """

    problem: str = "p1"
    element: str = "ncrt2d"
    levels: int = 7
    perturb: float = 0.2
    seed: int = 0
    skip: Optional[int] = None
    tol: float = 1e-10
    cr_initial: int = 8
    custom: Optional[Problem] = None


@dataclass
class StudyResult:
    config: StudyConfig
    records: list
    orders: dict
    solver_reports: list


def _resolve_problem(config: StudyConfig) -> Problem:
    if config.problem == "custom":
        if config.custom is None:
            raise ValueError('problem "custom" requires a Problem instance')
        return config.custom
    factory = REGISTRY.get(config.problem)
    if factory is None:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown problem {config.problem!r} "
                         f"(known: {known}, custom)")
    return factory()


def _check_config(config: StudyConfig, problem: Problem) -> int:
    if config.element not in ELEMENTS:
        raise ValueError(f"unknown element {config.element!r}")
    need_dim, auto_skip = ELEMENTS[config.element]
    if problem.dim != need_dim:
        raise ValueError(f"element {config.element} needs a {need_dim}d "
                         f"problem, got {problem.dim}d")
    for name in ("levels", "seed", "cr_initial", "skip"):
        value = getattr(config, name)
        whole = (isinstance(value, (int, np.integer))
                 and not isinstance(value, bool))
        if not (whole or name == "skip" and value is None):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if config.levels < 1:
        raise ValueError("need at least one level")
    if not 0.0 < config.tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {config.tol}")
    if not 0.0 <= config.perturb < 0.5:
        raise ValueError(f"perturb must be in [0, 0.5), got {config.perturb}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    if config.cr_initial < 1:
        raise ValueError(f"cr_initial must be >= 1, got {config.cr_initial}")
    skip = auto_skip if config.skip is None else config.skip
    if skip < 0:
        raise ValueError("skip must be nonnegative")
    if config.skip is not None and config.levels - skip < 2:
        raise ValueError(f"skip={skip} leaves fewer than 2 of "
                         f"levels={config.levels} to fit orders over")
    return skip


def _tensor_meshes(problem: Problem, config: StudyConfig):
    if problem.initial_gridlines is None:
        raise ValueError(f"problem {problem.name!r} has no initial gridlines; "
                         "box studies need them")
    for k, lines in enumerate(problem.initial_gridlines):
        # every level averages the flux, extrapolating along two elements
        if len(lines) < 3:
            raise ValueError(
                f"initial_gridlines of problem {problem.name!r} need >= 3 "
                f"gridlines (2 elements) per axis; axis {k} has {len(lines)}")
    seeds = np.random.SeedSequence(config.seed).generate_state(config.levels)
    gridlines = problem.initial_gridlines
    for k in range(config.levels):
        if k:
            gridlines = refine_midpoint(gridlines)
            if config.perturb > 0.0:
                gridlines = perturb(gridlines, config.perturb, int(seeds[k]))
        yield TensorMesh(gridlines)


def _level(mesh, problem: Problem, config: StudyConfig, stages):
    """Solve, correct, average and measure one level of a study."""
    assemble_system, make_field, correct, interpolate, average = stages
    system = assemble_system(mesh, problem)
    # a temporary: the factor or hierarchy is freed when solve returns
    x, report = solve(system.matrix, system.rhs, config.tol,
                      preconditioner(system, problem))
    field = make_field(mesh, system.full_dofs(x))
    del system, x       # the matrix is not read again; free it now
    u, a, flux = (Term(problem, name) for name in ("u", "a", "flux"))

    sigma = correct(field, problem)
    interp = interpolate(mesh, flux)
    recovered = average(sigma)

    err_u, err_raw, err_recovered = l2_error(
        mesh, (u, flux, flux),
        (field, RawFlux(a, field.gradient_rt()), recovered))
    # sigma - interp is a BrokenRT, whose norm has a closed form
    err_superclose = (sigma - interp).l2_norm()
    return LevelRecord(mesh.ne, mesh.h, err_u, err_raw, err_superclose,
                       err_recovered), report


def run_study(config: StudyConfig,
              progress: Optional[Callable] = None) -> StudyResult:
    """Run a convergence study and fit orders over the asymptotic levels."""
    problem = _resolve_problem(config)
    skip = _check_config(config, problem)
    # stages are read per call: a traced run swaps these module globals
    if config.element == "cr":
        if config.perturb > 0.0:
            warnings.warn("gridline perturbation does not apply to "
                          "triangular studies; ignoring it", stacklevel=2)
        sides = (config.cr_initial * 2 ** k for k in range(config.levels))
        meshes = (build_uniform_parallel(n, n) for n in sides)
        stages = (assemble_cr, CRField, corrected_flux_cr, rt_interpolate_tri,
                  lambda sigma: edge_midpoint_average(
                      sigma.mesh, sigma.values_at_centers()))
    else:
        meshes = _tensor_meshes(problem, config)
        stages = (assemble, reconstruct_field, corrected_flux, rt_interpolate,
                  midpoint_average)
    records, reports = [], []
    for mesh in meshes:
        record, report = _level(mesh, problem, config, stages)
        records.append(record)
        reports.append(report)
        if progress is not None:
            progress(record)

    orders = {}
    if len(records) - skip >= 2:
        h = np.array([r.h for r in records[skip:]])
        for col in COLUMNS:
            err = np.array([getattr(r, col) for r in records[skip:]])
            bad = np.flatnonzero(~(err > 0))
            if bad.size:
                level = skip + int(bad[0])
                raise ValueError(
                    f"cannot fit the order of {col}: it is "
                    f"{float(err[bad[0]])!r} on level {level + 1} of "
                    f"{len(records)} (ne={records[level].ne}), not positive")
            orders[col] = fit_order(h, err)
    return StudyResult(config=config, records=records, orders=orders,
                       solver_reports=reports)


def emit_report(result: StudyResult, format: str = "csv") -> str:
    """Render a study as CSV rows or a structured JSON document.

    Floats are rendered with repr, so equal studies produce identical
    bytes.
    """
    if format == "csv":
        lines = ["ne,h," + ",".join(COLUMNS)]
        for r in result.records:
            lines.append(",".join(
                [str(r.ne), repr(r.h)]
                + [repr(getattr(r, col)) for col in COLUMNS]))
        return "\n".join(lines) + "\n"
    if format == "structured":
        cfg = result.config
        doc = {
            "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)
                       if f.name != "custom"},
            "levels": [
                {"ne": r.ne, "h": r.h,
                 **{col: getattr(r, col) for col in COLUMNS}}
                for r in result.records
            ],
            "orders": {col: result.orders.get(col)
                       for col in COLUMNS if col in result.orders},
            "solver": [
                {"method": rep.method, "converged": rep.converged,
                 "iterations": rep.iterations, "residual": rep.residual,
                 "dim": rep.dim}
                for rep in result.solver_reports
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown format {format!r}")
