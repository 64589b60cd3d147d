"""End-to-end acceptance checks for the flux-recovery pipeline.

These tests pin the headline behavior: superconvergent recovery orders
for the stock 2d and 3d studies on randomly perturbed mesh hierarchies,
exact normal continuity of corrected fluxes for cellwise-constant loads,
exactness on linear solutions for every element type, the operator
identities the theory rests on, triangular recovery orders, solver
cross-validation, and byte-reproducible reports.
"""

import time

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from ncflux.analysis import (COLUMNS, StudyConfig, emit_report, fit_order,
                             l2_error, run_study)
from ncflux.assembly import assemble, preconditioner
from ncflux.cr import (assemble_cr, corrected_flux_cr, edge_midpoint_average,
                       vertex_average)
from ncflux.elements import BrokenRT, RawFlux, cell_quadrature
from ncflux.mesh import (TensorMesh, TriMesh, build_uniform_parallel,
                         perturb, refine_midpoint)
from ncflux.problems import custom_problem, problem1, problem2
from ncflux.recovery import (correction_field, corrected_flux,
                             max_normal_jump, midpoint_average,
                             rt_interpolate)
from ncflux.sparse_solve import solve

from helpers import (cell_means, divergence, eval_at, jittered_parallel,
                     linear_problem, project_onto_gradients, solve_cr,
                     solve_tensor, source_problem, tensor_locator,
                     tri_locator)

# Reference orders for the stock studies at the pinned seeds, in the
# column order err_u, err_flux_raw, err_superclose, err_recovered.
EXPECTED_2D_ORDERS = (2.045, 1.023, 2.042, 2.098)
EXPECTED_2D_FINAL_RECOVERED = 1.826e-4
EXPECTED_3D_ORDERS = (2.085, 1.044, 2.042, 2.274)
STUDY_SEED_2D = 10
STUDY_SEED_3D = 1


@pytest.fixture(scope="module")
def study_2d():
    start = time.perf_counter()
    result = run_study(StudyConfig(problem="p1", element="ncrt2d", levels=7,
                                   perturb=0.2, seed=STUDY_SEED_2D))
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def study_3d():
    start = time.perf_counter()
    result = run_study(StudyConfig(problem="p2", element="ncrt3d", levels=5,
                                   perturb=0.2, seed=STUDY_SEED_3D))
    return result, time.perf_counter() - start


def perturbed_square(n=4, seed=1):
    gl = np.linspace(0.0, 1.0, n + 1)
    return TensorMesh(perturb((gl, gl), 0.2, seed=seed))


def perturbed_cube(n=4, seed=2):
    gl = np.linspace(0.0, 1.0, n + 1)
    return TensorMesh(perturb((gl, gl, gl), 0.2, seed=seed))


def oscillatory_problem():
    pi = np.pi

    def u(x):
        return np.sin(pi * x[..., 0]) * np.sin(pi * x[..., 1])

    def grad_u(x):
        return pi * np.stack(
            [np.cos(pi * x[..., 0]) * np.sin(pi * x[..., 1]),
             np.sin(pi * x[..., 0]) * np.cos(pi * x[..., 1])], axis=-1)

    def lap_u(x):
        return -2.0 * pi ** 2 * u(x)

    return custom_problem(
        2, u, grad_u, lap_u,
        a=lambda x: 1.0 + x[..., 0] ** 2 + x[..., 1] ** 2,
        grad_a=lambda x: 2.0 * x)


# -- criterion: 2d superconvergence on perturbed hierarchies -------------------

def test_two_dimensional_recovery_superconverges(study_2d):
    result, elapsed = study_2d
    assert result.records[0].ne == 6
    assert result.records[-1].ne == 24576
    for col, expected in zip(COLUMNS, EXPECTED_2D_ORDERS):
        assert abs(result.orders[col] - expected) <= 0.15, (
            f"{col}: fitted {result.orders[col]:.3f}, "
            f"expected near {expected}")
    final = result.records[-1].err_recovered
    assert EXPECTED_2D_FINAL_RECOVERED / 3.0 <= final \
        <= EXPECTED_2D_FINAL_RECOVERED * 3.0
    assert elapsed < 120.0


# -- criterion: 3d superconvergence on perturbed hierarchies -------------------

def test_three_dimensional_recovery_superconverges(study_3d):
    result, elapsed = study_3d
    assert result.records[0].ne == 8
    assert result.records[-1].ne == 32768
    for col, expected in zip(COLUMNS, EXPECTED_3D_ORDERS):
        assert abs(result.orders[col] - expected) <= 0.2, (
            f"{col}: fitted {result.orders[col]:.3f}, "
            f"expected near {expected}")
    assert result.orders["err_recovered"] >= 1.9
    assert elapsed < 600.0


# -- criterion: corrected fluxes are normally continuous -----------------------

def test_corrected_flux_continuity_on_boxes():
    mesh = perturbed_square(n=4, seed=3)
    rng = np.random.default_rng(0)
    fbar = rng.uniform(-3.0, 3.0, size=mesh.ne)
    locate = tensor_locator(mesh)
    prob = source_problem(2, source=lambda x: fbar[locate(x)])
    field = solve_tensor(mesh, prob, tol=1e-13)
    sigma = corrected_flux(field, prob)
    scale = 1.0 + np.abs(fbar).max()
    assert max_normal_jump(sigma) <= 1e-8 * scale
    assert max_normal_jump(field.gradient_rt()) > 1e-3


def test_corrected_flux_continuity_on_triangles():
    mesh = build_uniform_parallel(4, 4)
    assert mesh.ne == 32
    rng = np.random.default_rng(1)
    fbar = rng.uniform(-3.0, 3.0, size=mesh.ne)
    locate = tri_locator(mesh)
    prob = source_problem(2, source=lambda x: fbar[locate(x)])
    field = solve_cr(mesh, prob, tol=1e-13)
    sigma = corrected_flux_cr(field, prob)
    scale = 1.0 + np.abs(fbar).max()
    assert max_normal_jump(sigma) <= 1e-8 * scale
    assert max_normal_jump(field.gradient_rt()) > 1e-3


# -- criterion: linear solutions are exact for every element -------------------

def linear_study_config(element, levels):
    dim = 3 if element == "ncrt3d" else 2
    gridlines = (((0.0, 0.5, 1.0),) * dim)
    prob = linear_problem(dim, coef=tuple(range(1, dim + 1)), const=0.25,
                          gridlines=gridlines)
    return StudyConfig(problem="custom", element=element, levels=levels,
                       perturb=0.0 if element == "cr" else 0.2,
                       seed=5, tol=1e-13, cr_initial=2, custom=prob)


@pytest.mark.parametrize("element,levels", [
    ("ncrt2d", 4),
    ("ncrt3d", 3),
    ("cr", 3),
])
def test_linear_solutions_exact_at_every_level(element, levels):
    result = run_study(linear_study_config(element, levels))
    assert len(result.records) == levels
    for record in result.records:
        for col in COLUMNS:
            assert getattr(record, col) <= 1e-10, (
                f"{element} level with ne={record.ne}: {col} = "
                f"{getattr(record, col):.3e}")


# -- criterion: operator identities --------------------------------------------

def jittered_triangles():
    return jittered_parallel(4, 4, seed=5)


@pytest.mark.parametrize("mesh_factory", [
    perturbed_square, perturbed_cube, jittered_triangles])
def test_correction_field_identities(mesh_factory):
    mesh = mesh_factory()
    r = correction_field(mesh)
    assert np.abs(divergence(r) - 1.0).max() <= 1e-15

    triangles = isinstance(mesh, TriMesh)
    pts, wts = cell_quadrature(mesh)
    rvals = eval_at(r, pts)
    rng = np.random.default_rng(4)
    d = mesh.dim
    for _ in range(100):
        if triangles:   # the divergence-free members of a + b x
            beta = np.zeros((mesh.ne, d))
        else:
            beta = rng.normal(size=(mesh.ne, d))
            beta[:, -1] = -beta[:, :-1].sum(axis=1)
        tau = BrokenRT(mesh, rng.normal(size=(mesh.ne, d)), beta)
        dots = np.einsum("eq,eqd,eqd->e", wts, rvals, eval_at(tau, pts))
        assert np.abs(dots).max() <= 1e-13


@pytest.mark.parametrize("mesh_factory", [perturbed_square, perturbed_cube])
def test_midpoint_averaging_preserves_constants(mesh_factory):
    mesh = mesh_factory()
    const = np.arange(1.0, mesh.dim + 1.0)
    flux = BrokenRT(mesh, alpha=np.tile(const, (mesh.ne, 1)),
                    beta=np.zeros((mesh.ne, mesh.dim)))
    avg = midpoint_average(flux)
    assert np.abs(avg.values - const).max() <= 5e-14


def test_averaged_interpolant_reproduces_multilinear_fields_2d():
    mesh = perturbed_square(n=4, seed=6)
    fields = [
        lambda x: np.stack([x[..., 1], np.zeros(x.shape[:-1])], axis=-1),
        lambda x: np.stack([np.zeros(x.shape[:-1]), x[..., 0]], axis=-1),
        lambda x: np.stack([1.0 + 2.0 * x[..., 0] * x[..., 1] - x[..., 1],
                            x[..., 0] * x[..., 1] + 3.0 * x[..., 0]],
                           axis=-1),
    ]
    inter = mesh.interior_facets
    for tau in fields:
        avg = midpoint_average(rt_interpolate(mesh, tau))
        gap = np.abs(avg.values[inter]
                     - tau(mesh.facet_midpoint[inter])).max()
        assert gap <= 1e-12


def test_averaged_interpolant_reproduces_multilinear_fields_3d():
    mesh = perturbed_cube(n=4, seed=7)

    def tau(x):
        return np.stack([x[..., 1] * x[..., 2] + x[..., 0],
                         x[..., 0] * x[..., 2] - 2.0,
                         x[..., 0] * x[..., 1] * x[..., 2]], axis=-1)

    avg = midpoint_average(rt_interpolate(mesh, tau))
    inter = mesh.interior_facets
    gap = np.abs(avg.values[inter] - tau(mesh.facet_midpoint[inter])).max()
    assert gap <= 1e-12


@pytest.mark.parametrize("n", [4, 8])
def test_interpolation_commutes_with_divergence(n):
    gl = np.linspace(0.0, 1.0, n + 1)
    mesh = TensorMesh(perturb((gl, gl), 0.2, seed=8))

    def tau(x):
        return np.stack([np.sin(x[..., 1]) + x[..., 0] ** 2,
                         x[..., 0] * x[..., 1]], axis=-1)

    interp = rt_interpolate(mesh, tau)
    pts, wts = cell_quadrature(mesh)
    means = np.einsum("eq,eq->e", wts, 3.0 * pts[..., 0]) \
        / mesh.elem_measure
    defect = np.sqrt(np.sum(mesh.elem_measure
                            * (divergence(interp) - means) ** 2))
    assert defect <= 1e-10


def test_flux_projection_is_idempotent():
    mesh = perturbed_square(n=4, seed=9)
    pts, wts = cell_quadrature(mesh)
    values = np.stack([np.sin(3.0 * pts[..., 0]) + pts[..., 1] ** 3,
                       np.exp(pts[..., 0] * pts[..., 1])], axis=-1)
    q1 = project_onto_gradients(mesh, values, pts, wts)
    q2 = project_onto_gradients(mesh, eval_at(q1, pts), pts, wts)
    assert np.abs(eval_at(q1, pts) - eval_at(q2, pts)).max() <= 1e-12


# -- criterion: triangular recovery orders --------------------------------------

def test_triangular_recovery_orders():
    prob = oscillatory_problem()

    def aflux(x):
        return prob.a(x)[..., None] * prob.grad_u(x)

    hs, err_raw, err_edge, err_vertex = [], [], [], []
    for n in (8, 16, 32, 64):
        mesh = build_uniform_parallel(n, n)
        field = solve_cr(mesh, prob, tol=1e-12)
        grad = field.gradient_rt()
        flux = grad.scaled_by(cell_means(mesh, prob.a))
        err_raw.append(l2_error(mesh, aflux, RawFlux(prob.a, grad)))
        err_edge.append(l2_error(mesh, aflux, edge_midpoint_average(flux)))
        err_vertex.append(l2_error(mesh, aflux, vertex_average(flux)))
        hs.append(mesh.h)
    assert mesh.ne == 8192 and len(hs) == 4

    assert fit_order(hs, err_edge) >= 1.8
    assert 0.85 <= fit_order(hs, err_raw) <= 1.15
    assert fit_order(hs, err_vertex) >= 1.45
    # recovery beats the raw flux on the finest level
    assert err_edge[-1] < err_raw[-1]


# -- criterion: iterative and direct sparse solvers agree -----------------------

def collect_systems():
    """(system, problem) pairs of box systems in 2d and 3d and of
    triangular systems."""
    systems = []
    prob1 = problem1()
    lines = prob1.initial_gridlines
    for level in range(5):
        if level:
            lines = perturb(refine_midpoint(lines), 0.2, seed=level)
        systems.append((assemble(TensorMesh(lines), prob1), prob1))
    prob2 = problem2()
    lines3 = prob2.initial_gridlines
    for level in range(3):
        if level:
            lines3 = perturb(refine_midpoint(lines3), 0.2, seed=level)
        systems.append((assemble(TensorMesh(lines3), prob2), prob2))
    tri_prob = oscillatory_problem()
    for n in (8, 16):
        systems.append((assemble_cr(build_uniform_parallel(n, n), tri_prob),
                        tri_prob))
    return systems


def test_iterative_and_dense_solutions_agree():
    for system, problem in collect_systems():
        n = system.matrix.shape[0]
        assert n <= 3000
        x_it, report = solve(system.matrix, system.rhs, 1e-12,
                             preconditioner(system, problem))
        x_lu = spsolve(system.matrix, system.rhs)
        rel = np.linalg.norm(x_it - x_lu) / np.linalg.norm(x_lu)
        assert rel <= 1e-8, f"dim {n}: relative gap {rel:.3e}"
        assert report.converged


def test_large_triangular_system_converges_at_once():
    # 196,096 unknowns, where Jacobi-preconditioned BiCGStab stalls near
    # a relative residual of 6.4e-10
    problem = oscillatory_problem()
    system = assemble_cr(build_uniform_parallel(256, 256), problem)
    _, report = solve(system.matrix, system.rhs, StudyConfig().tol,
                      preconditioner(system, problem))
    assert report.converged and report.iterations <= 2


# -- criterion: reports are byte-reproducible ------------------------------------

def test_same_seed_reproduces_report_bytes():
    cfg = StudyConfig(problem="p1", element="ncrt2d", levels=4,
                      perturb=0.2, seed=STUDY_SEED_2D)
    first = emit_report(run_study(cfg))
    second = emit_report(run_study(cfg))
    assert first.encode() == second.encode()
