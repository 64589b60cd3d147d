import dataclasses
import gc
import importlib.util
import json
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from ncflux.analysis import (COLUMNS, LevelRecord, StudyConfig, StudyResult,
                             emit_report, fit_order, l2_error, run_study)
from ncflux import analysis, assembly, elements
from ncflux.assembly import reconstruct_field
from ncflux.cr import CRField, edge_midpoint_average
from ncflux.elements import (DATA_RULE, NORM_RULE, BrokenRT, RawFlux,
                             cell_blocks, cell_quadrature, cell_table,
                             reference_values)
from ncflux.mesh import TensorMesh, TriMesh, build_uniform_parallel
from ncflux.problems import Problem, Term, custom_problem, problem1, problem2
from ncflux.recovery import MidpointFlux, midpoint_average
from ncflux.sparse_solve import SolveReport, SolverError

from helpers import (cell_block_bytes, eval_at, jittered_parallel,
                     linear_problem, refined_box_mesh, traced_peak)


# -- error norms ----------------------------------------------------------------

def test_norm_of_constant_one():
    mesh = TensorMesh(((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))
    assert l2_error(mesh, lambda x: np.ones(x.shape[:-1])) \
        == pytest.approx(1.0, abs=1e-14)


def test_norm_of_quadratic_monomial():
    mesh = TensorMesh(((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))
    got = l2_error(mesh, lambda x: x[..., 0] ** 2)
    assert got == pytest.approx(np.sqrt(0.2), abs=1e-14)


def test_norm_of_constant_vector_offset():
    mesh = TensorMesh(((0.0, 0.5, 1.0), (0.0, 1.0)))
    got = l2_error(mesh, lambda x: np.broadcast_to([3.0, 4.0],
                                                   x.shape).copy(),
                   lambda x: np.zeros(x.shape))
    assert got == pytest.approx(5.0, abs=1e-13)


def test_norm_on_triangulation():
    mesh = build_uniform_parallel(2, 2)
    assert l2_error(mesh, lambda x: np.ones(x.shape[:-1])) \
        == pytest.approx(1.0, abs=1e-14)


def test_error_of_reconstructed_linear_field_is_tiny():
    mesh = TensorMesh(((0.0, 0.4, 1.0), (0.0, 0.7, 1.0)))

    def u(x):
        return 1.0 + x[..., 0] - 0.5 * x[..., 1]

    field = reconstruct_field(mesh, u(mesh.facet_midpoint))
    assert l2_error(mesh, u, field) < 1e-13


def test_error_is_symmetric_in_sign():
    mesh = TensorMesh(((0.0, 1.0), (0.0, 1.0)))
    a = l2_error(mesh, lambda x: x[..., 0], lambda x: x[..., 1])
    b = l2_error(mesh, lambda x: x[..., 1], lambda x: x[..., 0])
    assert a == pytest.approx(b, abs=1e-15)
    assert a > 0.0


class PointField:
    """A field that can only be evaluated at points."""

    def eval_at(self, pts, rows=slice(None)):
        return pts[..., 0]


@pytest.mark.parametrize("approx", [PointField(), np.zeros(3), 1.0],
                         ids=["point_field", "array", "float"])
@pytest.mark.parametrize("mesh", [
    TensorMesh(((0.0, 0.5, 1.0), (0.0, 1.0))),
    build_uniform_parallel(2, 2)], ids=["box", "tri"])
def test_unusable_field_is_a_type_error(mesh, approx):
    # l2_error reads a table field's reference coefficients or calls a
    # callable on the rule's points, and nothing else
    match = f"table field or callable, got {type(approx).__name__}$"
    with pytest.raises(TypeError, match=match):
        l2_error(mesh, lambda x: x[..., 0], approx)
    with pytest.raises(TypeError, match=match):
        l2_error(mesh, approx)


def level_error_pairs(prob, mesh, seed):
    """A study level's three (exact, approx) pairs and one field alone
    (approx None), on a random discrete field of a box or triangular
    mesh."""
    rng = np.random.default_rng(seed)
    if isinstance(mesh, TriMesh):
        field = CRField(mesh, rng.normal(size=mesh.nf))
        grad = field.gradient_rt()
        recovered = edge_midpoint_average(mesh, grad.values_at_centers())
    else:
        field = reconstruct_field(mesh, rng.normal(size=mesh.nf))
        grad = field.gradient_rt()
        recovered = midpoint_average(grad)
    raw = RawFlux(prob.a, grad)
    flux = RawFlux(prob.a, prob.grad_u)
    return (prob.u, flux, raw, flux), (field, raw, None, recovered)


def test_box_error_norms_allocate_one_block_at_a_time(monkeypatch):
    prob = problem2()
    mesh = refined_box_mesh(prob, 4096)
    exact, approx = level_error_pairs(prob, mesh, 51)
    pts, wts = cell_quadrature(mesh)       # whole-mesh rule, for its size

    monkeypatch.setattr(elements, "BLOCK_POINTS", 256 * 4 ** 3)
    block_bytes = cell_block_bytes(mesh)
    assert 8 * block_bytes < pts.nbytes + wts.nbytes
    for ex, ap in zip(exact, approx):
        args = (ex,) if ap is None else (ex, ap)
        assert traced_peak(l2_error, mesh, *args) <= 8 * block_bytes
    # the four norms of a level in one pass keep the samples of a block:
    # twice the bound of one pair, half the whole mesh's points and weights
    assert traced_peak(l2_error, mesh, exact, approx) <= 16 * block_bytes


@pytest.mark.parametrize("kind", ["2d", "3d", "tri"])
def test_error_sequence_gives_the_floats_of_separate_calls(monkeypatch,
                                                           kind):
    # several blocks of 7 elements with a partial last one, so the norms
    # add up block sums
    if kind == "tri":
        prob = problem1()
        mesh = build_uniform_parallel(6, 6)
        monkeypatch.setattr(elements, "TRI_BLOCK", 7)
    else:
        prob = problem1() if kind == "2d" else problem2()
        mesh = refined_box_mesh(prob, 64 if kind == "2d" else 200)
        monkeypatch.setattr(elements, "BLOCK_POINTS", 7 * 4 ** mesh.dim)
    n, blocks = mesh.ne, cell_blocks(mesh)
    assert len(blocks) > 2 and n % 7 != 0
    exact, approx = level_error_pairs(prob, mesh, 53)
    together = l2_error(mesh, exact, approx)
    separate = tuple(l2_error(mesh, ex, ap) for ex, ap in zip(exact, approx))
    assert type(together) is tuple and len(together) == 4
    assert together == separate
    assert all(type(err) is float for err in together)
    assert l2_error(mesh, exact[:1], approx[:1]) == together[:1]
    assert l2_error(mesh, list(exact[2:3])) == together[2:3]


def test_level_errors_sample_the_exact_flux_once_per_block(monkeypatch):
    prob = problem2()
    mesh = refined_box_mesh(prob, 200)
    monkeypatch.setattr(elements, "BLOCK_POINTS", 64 * 4 ** 3)
    calls = {"grad_u": [], "a": []}

    def counting(name):
        def leaf(x):
            calls[name].append(x.shape[0])
            return getattr(prob, name)(x)
        return leaf

    counted = dataclasses.replace(prob, grad_u=counting("grad_u"),
                                  a=counting("a"))
    exact, approx = level_error_pairs(counted, mesh, 54)
    assert exact[1] is exact[3]            # the exact flux, passed twice
    l2_error(mesh, exact, approx)
    blocks = cell_blocks(mesh)
    assert len(blocks) > 2
    # a is shared by the exact flux and the raw flux
    sizes = [blk.stop - blk.start for blk in blocks]
    assert calls == {"grad_u": sizes, "a": sizes}


@pytest.mark.parametrize("dim", [2, 3])
def test_reference_tables_give_the_values_of_eval_at(monkeypatch, dim):
    # blocks of 7 cells with a partial last one, on a perturbed mesh
    prob = problem1() if dim == 2 else problem2()
    mesh = refined_box_mesh(prob, 64 if dim == 2 else 200)
    monkeypatch.setattr(elements, "BLOCK_POINTS", 7 * NORM_RULE ** dim)
    blocks = cell_blocks(mesh, NORM_RULE)
    assert len(blocks) > 2 and 0 < blocks[-1].stop - blocks[-1].start < 7
    rng = np.random.default_rng(70 + dim)
    field = reconstruct_field(mesh, rng.normal(size=mesh.nf))
    grad = field.gradient_rt()
    flux = BrokenRT(mesh, rng.normal(size=(mesh.ne, dim)),
                    rng.normal(size=(mesh.ne, dim)))
    fields = (field, grad, flux,
              MidpointFlux(mesh, rng.normal(size=(mesh.nf, dim))),
              RawFlux(prob.a, grad))
    table = cell_table(mesh, NORM_RULE)
    for rows in (blocks[0], blocks[-1]):
        pts, _ = cell_quadrature(mesh, rows, NORM_RULE)
        for obj in fields:
            got = analysis._sample({}, obj, pts, rows, table)
            ref = eval_at(obj, pts, rows)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["2d", "3d"])
def test_box_error_pass_maps_no_local_coordinates(monkeypatch, kind):
    prob = problem1() if kind == "2d" else problem2()
    mesh = refined_box_mesh(prob, 64 if kind == "2d" else 200)
    exact, approx = level_error_pairs(prob, mesh, 55)
    expected = l2_error(mesh, exact, approx)
    values = analysis._values
    read = []

    def no_points(samples, obj, pts, rows, table):
        # a table field is read from its coefficients: hand it no points
        if hasattr(obj, "reference_coeffs"):
            read.append(type(obj))
            pts = None
        return values(samples, obj, pts, rows, table)

    monkeypatch.setattr(analysis, "_values", no_points)
    assert l2_error(mesh, exact, approx) == expected
    # the field, the raw flux's gradient and the recovered flux, per block
    assert set(read) == {type(approx[0]), BrokenRT, MidpointFlux}
    assert len(read) == 3 * len(cell_blocks(mesh))


def arrays_in(obj):
    """The numpy arrays reachable from obj through containers and
    dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from arrays_in(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from arrays_in(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays_in(getattr(obj, f.name))


@pytest.mark.parametrize("config", [
    StudyConfig(problem="p1", element="ncrt2d", levels=1),
    StudyConfig(problem="p2", element="ncrt3d", levels=1),
    StudyConfig(problem="p1", element="cr", levels=1, cr_initial=2,
                perturb=0.0)], ids=["2d", "3d", "tri"])
def test_mesh_caches_are_read_only_after_a_level(monkeypatch, config):
    # a write into a cached table would corrupt every later use of it
    meshes = []
    level = analysis._level

    def kept(mesh, *args):
        meshes.append(mesh)
        return level(mesh, *args)

    monkeypatch.setattr(analysis, "_level", kept)
    run_study(config)
    cache = meshes[0]._cache
    assert not cache["unknown_index"].flags.writeable
    # basis tables are built for each block and not kept
    assert not [key for key in cache if "nc_basis" in key]
    arrays = list(arrays_in(cache))
    assert len(arrays) >= len(cache)
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("kind", [2, 3, "tri"])
def test_broken_rt_norm_in_closed_form_matches_the_norm_rule(kind):
    if kind == "tri":
        # jittered, so the triangles' second moments differ; a + b x with
        # one scalar b, and the degree-5 rule is exact for its square
        mesh = jittered_parallel(16, 16, amount=0.01)
        rng = np.random.default_rng(84)
        beta = np.repeat(rng.normal(size=(mesh.ne, 1)), 2, axis=1)
    else:
        prob = problem1() if kind == 2 else problem2()
        mesh = refined_box_mesh(prob, 64 if kind == 2 else 200)
        rng = np.random.default_rng(80 + kind)
        beta = rng.normal(size=(mesh.ne, kind))
    # a small field made of large opposite parts, like sigma - I sigma
    alpha = 1e-3 * rng.normal(size=beta.shape) - beta * mesh.elem_center
    flux = BrokenRT(mesh, alpha, beta)
    pts, wts = cell_quadrature(mesh, rule=NORM_RULE)
    quad = np.sqrt(np.sum(wts * (eval_at(flux, pts) ** 2).sum(axis=-1)))
    assert type(flux.l2_norm()) is float
    assert abs(flux.l2_norm() - quad) <= 1e-13 * quad
    assert abs(flux.l2_norm() - l2_error(mesh, flux)) <= 1e-13 * quad


def test_triangle_flux_norm_reads_the_rule_table(monkeypatch):
    # a + b x with one scalar b per triangle, over two blocks: its values
    # at the three edge midpoints times the rule's table are its values
    # at the mapped rule, so the norm maps no point into a triangle
    mesh = jittered_parallel(24, 24, amount=0.2 / 24, seed=31)
    blocks = cell_blocks(mesh)
    assert len(blocks) == 2
    rng = np.random.default_rng(86)
    beta = np.repeat(rng.normal(size=(mesh.ne, 1)), 2, axis=1)
    flux = BrokenRT(mesh, rng.normal(size=(mesh.ne, 2)), beta)
    refs = [eval_at(flux, cell_quadrature(mesh, rows)[0], rows)
            for rows in blocks]
    norm = flux.l2_norm()

    quadrature = analysis.cell_quadrature

    def no_points(*args):
        # the weights alone: the norm of a table field reads no point
        return None, quadrature(*args)[1]

    for patched in (False, True):
        if patched:
            monkeypatch.setattr(analysis, "cell_quadrature", no_points)
        for rows, ref in zip(blocks, refs):
            got = reference_values(flux.reference_coeffs(rows),
                                   cell_table(mesh))
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert abs(l2_error(mesh, flux) - norm) <= 1e-13 * norm


def test_box_norms_keep_the_four_point_rule():
    mesh = TensorMesh(((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))

    def cube(x):
        return x[..., 0] ** 3

    assert l2_error(mesh, cube) == pytest.approx(np.sqrt(1.0 / 7.0),
                                                 abs=1e-14)
    # the data rule is not exact for x_0^6, and this guard would catch it
    pts, wts = cell_quadrature(mesh, rule=DATA_RULE)
    three = np.sqrt(np.sum(wts * cube(pts) ** 2))
    assert abs(three - np.sqrt(1.0 / 7.0)) > 1e-7


def test_error_sequences_of_unequal_length_rejected():
    mesh = TensorMesh(((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))
    with pytest.raises(ValueError, match="2 exact fields but 1"):
        l2_error(mesh, (lambda x: x[..., 0], lambda x: x[..., 1]),
                 (lambda x: x[..., 1],))


def test_unsupported_mesh_type_rejected():
    with pytest.raises(TypeError, match="unsupported mesh type object"):
        l2_error(object(), lambda x: x)
    # the elements' cell functions, which l2_error asks, check the type
    for cell_function in (cell_blocks, cell_quadrature, cell_table):
        with pytest.raises(TypeError, match="unsupported mesh type dict"):
            cell_function({})


# -- order fitting ----------------------------------------------------------------

def test_fit_recovers_exact_power():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    assert fit_order(h, 3.0 * h ** 2) == pytest.approx(2.0, abs=1e-12)
    assert fit_order(h, 0.7 * h) == pytest.approx(1.0, abs=1e-12)


def test_fit_on_frozen_error_sequence():
    errs = (5.350e-4, 1.352e-4, 3.410e-5, 8.582e-6)
    hs = (1.0, 0.5, 0.25, 0.125)
    assert fit_order(hs, errs) == pytest.approx(1.9873495047864682,
                                                abs=5e-5)


def test_two_point_fit_is_the_log_ratio():
    h = (0.3, 0.1)
    e = (2e-3, 3e-4)
    expected = np.log(e[0] / e[1]) / np.log(h[0] / h[1])
    assert fit_order(h, e) == pytest.approx(expected, abs=1e-13)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_order([0.1], [1.0])
    with pytest.raises(ValueError):
        fit_order([0.1, 0.05], [1.0, 0.0])
    with pytest.raises(ValueError):
        fit_order([0.1, -0.05], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_order([0.1, 0.05, 0.025], [1.0, 0.5])


@pytest.mark.parametrize("h, err", [
    ([0.1, np.nan, 0.025], [1.0, 0.5, 0.25]),
    ([0.1, np.inf, 0.025], [1.0, 0.5, 0.25]),
    ([0.1, 0.05, 0.025], [1.0, np.inf, 0.25]),
    ([0.1, 0.05, 0.025], [np.nan, 0.5, 0.25]),
], ids=["nan_h", "inf_h", "inf_err", "nan_err"])
def test_fit_rejects_non_finite_input(h, err):
    # LAPACK would fail on a NaN, or return nan for an infinite err
    with pytest.raises(ValueError, match="h and err must be finite"):
        fit_order(h, err)


# -- study driver ----------------------------------------------------------------

def linear_config(levels=3, **kw):
    prob = linear_problem(2, coef=(2.0, -1.0), const=0.5,
                          gridlines=((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))
    defaults = dict(problem="custom", element="ncrt2d", levels=levels,
                    perturb=0.2, seed=4, tol=1e-13, custom=prob)
    defaults.update(kw)
    return StudyConfig(**defaults)


def test_study_is_exact_for_linear_solutions():
    result = run_study(linear_config())
    assert len(result.records) == 3
    for record in result.records:
        assert record.err_u < 1e-10
        assert record.err_flux_raw < 1e-10
        assert record.err_superclose < 1e-10
        assert record.err_recovered < 1e-10


def test_study_errors_decay_monotonically():
    result = run_study(StudyConfig(problem="p1", levels=4, seed=0))
    errs = [r.err_u for r in result.records]
    for k in range(1, len(errs) - 1):
        assert errs[k + 1] <= 1.05 * errs[k]
    assert result.records[0].ne == 6
    assert all(b.ne == 4 * a.ne
               for a, b in zip(result.records, result.records[1:]))


def test_a_box_study_builds_each_level_once(monkeypatch):
    # refine_midpoint and perturb map gridlines; only TensorMesh builds
    built = []
    init = TensorMesh.__init__

    def counted(self, gridlines):
        built.append(tuple(len(g) for g in gridlines))
        init(self, gridlines)

    monkeypatch.setattr(TensorMesh, "__init__", counted)
    result = run_study(StudyConfig(problem="p1", element="ncrt2d", levels=4,
                                   perturb=0.2, seed=0))
    assert [r.ne for r in result.records] == [6, 24, 96, 384]
    assert built == [(4, 3), (7, 5), (13, 9), (25, 17)]


def test_study_is_deterministic():
    cfg = StudyConfig(problem="p1", levels=3, seed=7)
    r1 = run_study(cfg)
    r2 = run_study(cfg)
    assert r1.records == r2.records
    assert emit_report(r1) == emit_report(r2)


def test_perturbation_seed_changes_the_meshes():
    r1 = run_study(StudyConfig(problem="p1", levels=3, seed=1))
    r2 = run_study(StudyConfig(problem="p1", levels=3, seed=2))
    assert r1.records[1].h != r2.records[1].h


def test_triangular_study_warns_about_perturbation():
    prob = linear_problem(2, coef=(1.0, 1.0))
    cfg = StudyConfig(problem="custom", element="cr", levels=2,
                      perturb=0.2, cr_initial=2, custom=prob)
    with pytest.warns(UserWarning):
        result = run_study(cfg)
    assert len(result.records) == 2
    assert result.records[0].ne == 8
    assert result.records[1].ne == 32
    for record in result.records:
        assert record.err_u < 1e-10


def test_triangular_perturbation_warning_points_at_the_caller():
    prob = linear_problem(2, coef=(1.0, 1.0))
    cfg = StudyConfig(problem="custom", element="cr", levels=1,
                      perturb=0.2, cr_initial=2, custom=prob)
    with pytest.warns(UserWarning, match="perturbation does not apply") \
            as caught:
        run_study(cfg)
    assert len(caught) == 1
    assert caught[0].filename == __file__


def test_orders_skipped_when_too_few_levels():
    result = run_study(StudyConfig(problem="p1", levels=2, seed=0))
    # auto skip leaves fewer than two levels, so no orders are fitted
    assert result.orders == {}


@pytest.mark.parametrize("levels, skip", [(3, 5), (3, 2), (1, 0)])
def test_explicit_skip_must_leave_two_levels(monkeypatch, levels, skip):
    def no_level(*args):
        raise AssertionError("a level ran")

    monkeypatch.setattr(analysis, "_level", no_level)
    with pytest.raises(ValueError, match=f"skip={skip} .* levels={levels}"):
        run_study(StudyConfig(problem="p1", levels=levels, skip=skip))


def test_an_order_fit_names_the_column_and_level_that_is_not_positive(
        monkeypatch):
    level = analysis._level
    levels = []

    def superclose_zero_on_level_2(*args):
        record, report = level(*args)
        levels.append(record)
        if len(levels) == 2:
            record = dataclasses.replace(record, err_superclose=0.0)
        return record, report

    monkeypatch.setattr(analysis, "_level", superclose_zero_on_level_2)
    with pytest.raises(ValueError) as caught:
        run_study(StudyConfig(problem="p1", levels=3, seed=0, skip=0))
    assert str(caught.value) == (
        "cannot fit the order of err_superclose: it is 0.0 on level 2 of 3 "
        f"(ne={levels[1].ne}), not positive")


def test_orders_fitted_with_explicit_skip():
    result = run_study(StudyConfig(problem="p1", levels=3, seed=0, skip=1))
    assert set(result.orders) == set(COLUMNS)
    for value in result.orders.values():
        assert np.isfinite(value)


def test_progress_callback_sees_every_level():
    seen = []
    run_study(linear_config(), progress=seen.append)
    assert len(seen) == 3
    assert all(isinstance(r, LevelRecord) for r in seen)


@pytest.mark.parametrize("kw,match", [
    (dict(problem="p9"), "unknown problem"),
    (dict(element="hex"), "unknown element"),
    (dict(problem="custom"), "custom"),
    (dict(levels=0), "at least one"),
    (dict(skip=-1), "nonnegative"),
    (dict(problem="p2"), "needs"),
    (dict(element="cr", perturb=0.7), "perturb must be in"),
    (dict(tol=-1.0), "tol must be in"),
    (dict(tol=0.0), "tol must be in"),
    (dict(tol=1.0), "tol must be in"),
    (dict(tol=float("nan")), "tol must be in"),
    (dict(tol=float("inf")), "tol must be in"),
    (dict(perturb=float("nan")), "perturb must be in"),
    (dict(perturb=float("inf")), "perturb must be in"),
    (dict(perturb=-0.1), "perturb must be in"),
    (dict(perturb=0.7, levels=1), "perturb must be in"),
    (dict(element="cr", cr_initial=0), "cr_initial"),
    (dict(cr_initial=-2), "cr_initial"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(element="cr", seed=-3), "seed must be >= 0, got -3"),
])
def test_bad_configuration_rejected(kw, match, monkeypatch):
    cfg = StudyConfig(**{**dict(problem="p1", element="ncrt2d", levels=2),
                         **kw})

    def no_mesh(*args):
        raise AssertionError("a mesh was built before the check")

    monkeypatch.setattr(analysis, "TensorMesh", no_mesh)
    monkeypatch.setattr(analysis, "build_uniform_parallel", no_mesh)
    with pytest.raises(ValueError, match=match):
        run_study(cfg)


@pytest.mark.parametrize("name", ["levels", "seed", "cr_initial", "skip"])
@pytest.mark.parametrize("value, whole", [
    (1, True), (np.int64(1), True), (np.int32(1), True), (1.0, False),
    (np.float64(1.0), False), (True, False), (False, False), ("1", False),
], ids=["int", "int64", "int32", "float", "float64", "True", "False",
        "str"])
def test_integer_fields_take_python_and_numpy_ints(name, value, whole,
                                                   monkeypatch):
    # a float or a bool would reach numpy's SeedSequence or a range
    cfg = StudyConfig(**{"problem": "p1", "element": "ncrt2d", "levels": 3,
                         "seed": 0, name: value})
    if whole:
        skip = analysis._check_config(cfg, problem1())
        assert skip == (value if name == "skip" else 3)
        return

    def no_mesh(*args):
        raise AssertionError("a mesh was built before the check")

    monkeypatch.setattr(analysis, "TensorMesh", no_mesh)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, "
                                         f"got {re.escape(repr(value))}$"):
        run_study(cfg)


def test_solver_error_ends_the_study(monkeypatch):
    # a small level's breakdown is not hidden behind another solver
    solve, calls, seen = analysis.solve, [], []

    def breaks_on_level_1(matrix, rhs, *args):
        calls.append(matrix.shape[0])
        if len(calls) == 2:
            report = SolveReport(method="bicgstab", converged=False,
                                 iterations=0, residual=1.0,
                                 dim=matrix.shape[0])
            raise SolverError("injected breakdown", report)
        return solve(matrix, rhs, *args)

    monkeypatch.setattr(analysis, "solve", breaks_on_level_1)
    with pytest.raises(SolverError, match="injected breakdown"):
        run_study(StudyConfig(problem="p1", element="ncrt2d", levels=2),
                  progress=seen.append)
    assert len(seen) == 1 and len(calls) == 2


@pytest.mark.parametrize("element, problem, fraction", [
    ("cr", "p1", 0.0), ("ncrt2d", "p1", 0.2), ("ncrt3d", "p2", 0.2)])
def test_study_leaves_no_reference_cycles(element, problem, fraction):
    # a cycle keeps a level's mesh, caches or ordering arrays alive
    # until a full collection, which need not come during a study
    gc.collect()
    gc.disable()
    try:
        run_study(StudyConfig(problem=problem, element=element, levels=2,
                              perturb=fraction))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_multigrid_study_leaves_no_reference_cycles():
    # four 3d levels: the last system (11,520 unknowns) is solved through
    # a coarse level, so the hierarchy and its V-cycle are built
    gc.collect()
    gc.disable()
    try:
        result = run_study(StudyConfig(problem="p2", element="ncrt3d",
                                       levels=4, perturb=0.2))
        assert result.solver_reports[-1].dim > assembly.COARSEST_UNKNOWNS
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("element, problem, fraction", [
    ("cr", "p1", 0.0), ("ncrt2d", "p1", 0.2), ("ncrt3d", "p2", 0.2)])
def test_study_inverts_no_matrix(monkeypatch, element, problem, fraction):
    # the element tables and the flux projection are closed forms: a
    # study never calls inv or solve
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called")
        return call

    monkeypatch.setattr(np.linalg, "inv", forbidden("inv"))
    monkeypatch.setattr(np.linalg, "solve", forbidden("solve"))
    result = run_study(StudyConfig(problem=problem, element=element,
                                   levels=2, perturb=fraction))
    assert len(result.records) == 2


# hooks that perfbench/tracing.py still lists but the package no longer has
DEAD_HOOKS = {("analysis", "dense_lu"), ("analysis", "cell_means"),
              ("cr", "edge_quadrature"), ("analysis", "tri_quadrature"),
              ("cr", "tri_quadrature")}


def load_tracing(monkeypatch):
    """The benchmark's perfbench/tracing.py, loaded without bytecode."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_stage_is_a_module_global(monkeypatch):
    # the benchmark times a stage by swapping the global it names; a
    # renamed stage would silently read zero there
    missing = set()
    for module, name, _layer in load_tracing(monkeypatch).WRAPPED:
        target = importlib.import_module(f"ncflux.{module}")
        if not callable(getattr(target, name, None)):
            missing.add((module, name))
    assert missing <= DEAD_HOOKS


TRI_STAGES = {"assemble_cr", "build_uniform_parallel", "cell_quadrature",
              "corrected_flux_cr", "edge_midpoint_average", "l2_error",
              "rt_interpolate_tri", "solve"}
BOX_STAGES = {"assemble", "cell_quadrature", "corrected_flux", "l2_error",
              "midpoint_average", "perturb", "reconstruct_field",
              "refine_midpoint", "rt_interpolate", "solve"}


@pytest.mark.parametrize("element, problem, expected", [
    ("cr", "p1", TRI_STAGES), ("ncrt2d", "p1", BOX_STAGES),
    ("ncrt3d", "p2", BOX_STAGES)])
def test_study_calls_every_stage_through_its_global(monkeypatch, element,
                                                    problem, expected):
    # a stage captured at import (say, in a module-level table) would run
    # unseen by a benchmark that swaps the global it names
    called = set()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapped

    for module, name, _layer in load_tracing(monkeypatch).WRAPPED:
        fn = getattr(analysis, name, None)
        if module == "analysis" and fn is not None:
            monkeypatch.setattr(analysis, name, counting(name, fn))
    run_study(StudyConfig(problem=problem, element=element, levels=2,
                          perturb=0.0 if element == "cr" else 0.2))
    assert called == expected


@pytest.mark.parametrize("element, stages", [
    ("ncrt2d", ("assemble", "corrected_flux")),
    ("ncrt3d", ("assemble", "corrected_flux")),
    ("cr", ("assemble_cr", "corrected_flux_cr"))])
def test_a_level_frees_its_matrix_before_the_correction(monkeypatch, element,
                                                        stages):
    # the matrix and the preconditioner (the 2d LU factor, or the 3d
    # hierarchy) are the level's largest arrays, and nothing after the
    # solve reads them
    assemble_name, correct_name = stages
    assemble, correct = (getattr(analysis, name) for name in stages)
    precondition = analysis.preconditioner
    matrices, maps, alive = [], [], []

    def assembling(*args):
        system = assemble(*args)
        matrices.append(weakref.ref(system.matrix))
        return system

    def preconditioning(*args):
        out = precondition(*args)
        maps.append(weakref.ref(out))
        return out

    def correcting(*args):
        alive.append((matrices[-1]() is not None, maps[-1]() is not None))
        return correct(*args)

    monkeypatch.setattr(analysis, assemble_name, assembling)
    monkeypatch.setattr(analysis, "preconditioner", preconditioning)
    monkeypatch.setattr(analysis, correct_name, correcting)
    run_study(StudyConfig(problem="p2" if element == "ncrt3d" else "p1",
                          element=element, levels=2,
                          perturb=0.0 if element == "cr" else 0.2))
    assert alive == [(False, False), (False, False)]


def nan_gradient_problem():
    """u = x_0^2 with a = 1 and a load that does not need grad u, whose
    grad_u is NaN where |x_0 - 0.5| < 0.05."""
    def grad_u(x):
        g = np.stack([2.0 * x[..., 0], 0.0 * x[..., 1]], axis=-1)
        return np.where(np.abs(x[..., :1] - 0.5) < 0.05, np.nan, g)

    return custom_problem(
        dim=2, u=lambda x: x[..., 0] ** 2, grad_u=grad_u,
        lap_u=lambda x: np.full(x.shape[:-1], 2.0),
        a=lambda x: np.ones(x.shape[:-1]),
        initial_gridlines=((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))


@pytest.mark.parametrize("element", ["ncrt2d", "cr"])
def test_non_finite_exact_gradient_stops_the_study(element):
    # assembly and correction never read grad_u here; the interpolant
    # and the error norms do, and must not carry NaN into the report
    cfg = StudyConfig(problem="custom", element=element, levels=3,
                      perturb=0.0, cr_initial=2,
                      custom=nan_gradient_problem())
    with pytest.raises(ValueError, match="problem data grad_u is not "
                                         "finite at x = "):
        run_study(cfg)


@pytest.mark.parametrize("kind", ["box", "tri"])
def test_level_errors_sample_a_problem_once_per_block(monkeypatch, kind):
    prob = problem1()
    if kind == "box":
        mesh = refined_box_mesh(prob, 64)
        monkeypatch.setattr(elements, "BLOCK_POINTS", 7 * NORM_RULE ** 2)
    else:
        mesh = jittered_parallel(12, 12, amount=0.2 / 12)
        monkeypatch.setattr(elements, "TRI_BLOCK", 50)
    blocks = cell_blocks(mesh)
    assert len(blocks) > 2
    exact, approx = level_error_pairs(prob, mesh, 56)
    expected = l2_error(mesh, exact, approx)
    calls = []
    sample = Problem.sample

    def counting(self, pts, names):
        calls.append(tuple(sorted(names)))
        return sample(self, pts, names)

    monkeypatch.setattr(Problem, "sample", counting)
    u, a, flux = (Term(prob, name) for name in ("u", "a", "flux"))
    raw = approx[1]
    got = l2_error(mesh, (u, flux, RawFlux(a, raw.grad), flux),
                   (approx[0], RawFlux(a, raw.grad), None, approx[3]))
    assert calls == [("a", "flux", "u")] * len(blocks)
    # the same bits as the leaves, sampled one by one
    assert got == expected


def guarded_problem(dim, inside):
    """A custom problem with every leaf, g included, whose leaves raise
    unless inside() is true: u = |x|^2 + sin(x_0), a = 1 + x_0^2,
    b = x / 2, c = 1 + x_1 and g = u."""
    def unit(x):
        e = np.zeros(x.shape)
        e[..., 0] = 1.0
        return e

    forms = dict(
        u=lambda x: (x * x).sum(axis=-1) + np.sin(x[..., 0]),
        grad_u=lambda x: 2.0 * x + np.cos(x[..., 0])[..., None] * unit(x),
        lap_u=lambda x: 2.0 * dim - np.sin(x[..., 0]),
        a=lambda x: 1.0 + x[..., 0] ** 2,
        grad_a=lambda x: 2.0 * x[..., 0][..., None] * unit(x),
        b=lambda x: 0.5 * x,
        c=lambda x: 1.0 + x[..., 1],
        g=lambda x: (x * x).sum(axis=-1) + np.sin(x[..., 0]),
    )

    def guarded(name, fn):
        def leaf(x):
            if not inside():
                raise AssertionError(f"leaf {name} called outside "
                                     "Problem.sample")
            return fn(x)
        return leaf

    return custom_problem(
        dim, **{name: guarded(name, fn) for name, fn in forms.items()},
        initial_gridlines=((0.0, 0.5, 1.0),) * dim)


@pytest.mark.parametrize("element, dim", [("ncrt2d", 2), ("ncrt3d", 3),
                                          ("cr", 2)])
def test_a_study_reads_problem_data_only_through_sample(monkeypatch, element,
                                                       dim):
    # one door: the boundary data too goes through Problem.sample
    depth = []
    sample = Problem.sample

    def entered(self, pts, names):
        depth.append(names)
        try:
            return sample(self, pts, names)
        finally:
            depth.pop()

    monkeypatch.setattr(Problem, "sample", entered)
    result = run_study(StudyConfig(
        problem="custom", element=element, levels=2, perturb=0.0,
        cr_initial=2, custom=guarded_problem(dim, lambda: bool(depth))))
    assert len(result.records) == 2
    assert all(np.isfinite(getattr(r, c)) for r in result.records
               for c in COLUMNS)


def test_custom_problem_without_gridlines_rejected():
    prob = linear_problem(2)
    cfg = StudyConfig(problem="custom", element="ncrt2d", levels=2,
                      custom=prob)
    with pytest.raises(ValueError, match="gridlines"):
        run_study(cfg)


def test_one_interval_gridlines_rejected_before_level_zero(monkeypatch):
    prob = linear_problem(2, gridlines=((0.0, 0.5, 1.0), (0.0, 1.0)))
    cfg = StudyConfig(problem="custom", element="ncrt2d", levels=2,
                      custom=prob)

    def no_assembly(*args):
        raise AssertionError("level 0 was assembled")

    monkeypatch.setattr(analysis, "assemble", no_assembly)
    with pytest.raises(ValueError, match="initial_gridlines.*axis 1 has 2"):
        run_study(cfg)


# -- reports ----------------------------------------------------------------------

def test_csv_report_shape_and_round_trip():
    result = run_study(linear_config())
    text = emit_report(result)
    lines = text.strip().split("\n")
    assert lines[0] == "ne,h," + ",".join(COLUMNS)
    assert len(lines) == 1 + len(result.records)
    first = lines[1].split(",")
    assert int(first[0]) == result.records[0].ne
    assert float(first[1]) == result.records[0].h
    assert float(first[2]) == result.records[0].err_u


def test_structured_report_parses_and_carries_everything():
    result = run_study(linear_config(levels=2, skip=0))
    doc = json.loads(emit_report(result, format="structured"))
    assert set(doc) == {"config", "levels", "orders", "solver"}
    assert doc["config"]["problem"] == "custom"
    assert doc["config"]["levels"] == 2
    assert len(doc["levels"]) == 2
    assert set(doc["levels"][0]) == {"ne", "h", *COLUMNS}
    assert doc["levels"][0]["ne"] == result.records[0].ne
    assert set(doc["orders"]) == set(COLUMNS)
    assert len(doc["solver"]) == 2
    assert doc["solver"][0]["converged"] is True


def test_empty_study_report_is_header_only():
    result = StudyResult(config=StudyConfig(), records=[], orders={},
                         solver_reports=[])
    assert emit_report(result) == "ne,h," + ",".join(COLUMNS) + "\n"


def test_unknown_format_rejected():
    result = StudyResult(config=StudyConfig(), records=[], orders={},
                         solver_reports=[])
    with pytest.raises(ValueError):
        emit_report(result, format="yaml")
