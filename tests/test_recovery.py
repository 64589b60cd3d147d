import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from ncflux import elements
from ncflux.analysis import fit_order, l2_error
from ncflux.assembly import assemble, reconstruct_field
from ncflux.elements import BrokenRT, cell_quadrature
from ncflux.mesh import build_tensor_mesh, perturb
from ncflux.problems import custom_problem, problem2
from ncflux.recovery import (MidpointFlux, correction_field, corrected_flux,
                             max_normal_jump, midpoint_average,
                             rt_interpolate)

from helpers import (cell_block_bytes, divergence, eval_at,
                     perturbed_2d_meshes,
                     project_onto_gradients, refined_box_mesh, solve_tensor,
                     source_problem, tensor_locator, traced_peak,
                     zeros_scalar, zeros_vector)


def perturbed_square(n=4, fraction=0.2, seed=1):
    mesh = build_tensor_mesh(np.linspace(0.0, 1.0, n + 1),
                             np.linspace(0.0, 1.0, n + 1))
    return perturb(mesh, fraction, seed=seed)


def perturbed_cube(n=3, fraction=0.2, seed=2):
    gl = np.linspace(0.0, 1.0, n + 1)
    return perturb(build_tensor_mesh(gl, gl, gl), fraction, seed=seed)


def random_divergence_free(mesh, rng):
    d = mesh.dim
    alpha = rng.normal(size=(mesh.ne, d))
    beta = rng.normal(size=(mesh.ne, d))
    beta[:, -1] = -beta[:, :-1].sum(axis=1)
    return BrokenRT(mesh, alpha, beta)


# -- correction field ---------------------------------------------------------

def test_correction_weights_on_unit_square():
    mesh = build_tensor_mesh((0.0, 1.0), (0.0, 1.0))
    r = correction_field(mesh)
    assert np.allclose(r.beta, 0.5)


def test_correction_weights_on_unit_cube():
    mesh = build_tensor_mesh((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    r = correction_field(mesh)
    assert np.allclose(r.beta, 1.0 / 3.0)


def test_correction_weights_on_anisotropic_element():
    # extents (0.4, 0.7): weights (0.49, 0.16) / 0.65
    mesh = build_tensor_mesh((0.0, 0.4), (0.0, 0.7))
    r = correction_field(mesh)
    assert r.beta[0, 0] == pytest.approx(0.7538461538461538, abs=1e-15)
    assert r.beta[0, 1] == pytest.approx(0.24615384615384617, abs=1e-15)


@pytest.mark.parametrize("mesh_factory", [perturbed_square, perturbed_cube])
def test_correction_divergence_is_one(mesh_factory):
    mesh = mesh_factory()
    r = correction_field(mesh)
    assert np.abs(divergence(r) - 1.0).max() < 1e-15


def test_correction_vanishes_at_centroids():
    mesh = perturbed_square(seed=3)
    r = correction_field(mesh)
    vals = eval_at(r, mesh.elem_center[:, None, :])
    assert np.abs(vals).max() < 1e-14


@pytest.mark.parametrize("mesh_factory", [perturbed_square, perturbed_cube])
def test_correction_orthogonal_to_divergence_free_fields(mesh_factory):
    mesh = mesh_factory()
    r = correction_field(mesh)
    pts, wts = cell_quadrature(mesh)
    rvals = eval_at(r, pts)
    rng = np.random.default_rng(7)
    for _ in range(100):
        tau = random_divergence_free(mesh, rng)
        dots = np.einsum("eq,eqd,eqd->e", wts, rvals, eval_at(tau, pts))
        assert np.abs(dots).max() < 1e-13


# -- projection onto the gradient span ---------------------------------------

def test_projection_reproduces_constant_fields():
    mesh = perturbed_square(seed=4)
    pts, wts = cell_quadrature(mesh)
    values = np.broadcast_to([1.5, -2.5], pts.shape).copy()
    q = project_onto_gradients(mesh, values, pts, wts)
    assert np.abs(eval_at(q, pts) - values).max() < 1e-12


def test_projection_reproduces_quadratic_gradient():
    mesh = perturbed_square(seed=5)
    pts, wts = cell_quadrature(mesh)
    values = np.stack([2.0 * pts[..., 0], -2.0 * pts[..., 1]], axis=-1)
    q = project_onto_gradients(mesh, values, pts, wts)
    assert np.abs(eval_at(q, pts) - values).max() < 1e-12


def test_projection_matches_least_squares_oracle():
    mesh = perturbed_square(n=3, seed=6)
    pts, wts = cell_quadrature(mesh)
    values = np.stack([pts[..., 1], np.zeros(pts.shape[:2])], axis=-1)
    q = project_onto_gradients(mesh, values, pts, wts)
    got = eval_at(q, pts)
    for e in range(mesh.ne):
        # same span, assembled independently: constants plus (x1, -x2)
        basis = np.zeros((pts.shape[1], 2, 3))
        basis[:, 0, 0] = 1.0
        basis[:, 1, 1] = 1.0
        basis[:, 0, 2] = pts[e, :, 0]
        basis[:, 1, 2] = -pts[e, :, 1]
        sw = np.sqrt(wts[e])
        lhs = (basis * sw[:, None, None]).reshape(-1, 3)
        rhs = (values[e] * sw[:, None]).ravel()
        coef, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        best = np.einsum("qdi,i->qd", basis, coef)
        assert np.abs(got[e] - best).max() < 1e-12


def test_projection_is_idempotent():
    mesh = perturbed_square(seed=8)
    pts, wts = cell_quadrature(mesh)
    rng = np.random.default_rng(0)
    values = np.sin(3.0 * pts) + rng.normal(scale=0.1, size=pts.shape)
    q1 = project_onto_gradients(mesh, values, pts, wts)
    q2 = project_onto_gradients(mesh, eval_at(q1, pts), pts, wts)
    assert np.abs(eval_at(q1, pts) - eval_at(q2, pts)).max() < 1e-12


def test_projection_is_self_adjoint():
    mesh = perturbed_square(seed=9)
    pts, wts = cell_quadrature(mesh)
    u = np.stack([np.sin(2 * pts[..., 0]), np.cos(pts[..., 1])], axis=-1)
    v = np.stack([pts[..., 0] * pts[..., 1], np.exp(pts[..., 0])], axis=-1)
    qu = eval_at(project_onto_gradients(mesh, u, pts, wts), pts)
    qv = eval_at(project_onto_gradients(mesh, v, pts, wts), pts)
    lhs = np.einsum("eq,eqd,eqd->", wts, qu, v)
    rhs = np.einsum("eq,eqd,eqd->", wts, u, qv)
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


# -- corrected flux ------------------------------------------------------------

def test_corrected_flux_reduces_to_projection_without_load():
    mesh = perturbed_square(seed=10)
    prob = custom_problem(
        dim=2,
        u=lambda x: x[..., 0] * x[..., 1],
        grad_u=lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1),
        lap_u=zeros_scalar,
        a=lambda x: np.ones(x.shape[:-1]),
        source=zeros_scalar,
    )
    field = solve_tensor(mesh, prob)
    sigma = corrected_flux(field, prob)
    pts, wts = cell_quadrature(mesh)
    q = project_onto_gradients(mesh, eval_at(field.gradient_rt(), pts), pts,
                               wts)
    assert np.abs(sigma.alpha - q.alpha).max() < 1e-13
    assert np.abs(sigma.beta - q.beta).max() < 1e-13


def test_corrected_flux_of_zero_field_is_negative_correction():
    mesh = perturbed_square(seed=11)
    prob = source_problem(2, source=lambda x: np.ones(x.shape[:-1]))
    field = reconstruct_field(mesh, np.zeros(mesh.nf))
    sigma = corrected_flux(field, prob)
    r = correction_field(mesh)
    assert np.abs(sigma.alpha + r.alpha).max() < 1e-14
    assert np.abs(sigma.beta + r.beta).max() < 1e-14


def test_corrected_flux_is_normally_continuous_for_cellwise_load():
    mesh = perturbed_square(n=3, seed=13)
    rng = np.random.default_rng(5)
    fbar = rng.uniform(-2.0, 2.0, size=mesh.ne)
    locate = tensor_locator(mesh)
    prob = source_problem(2, source=lambda x: fbar[locate(x)])
    field = solve_tensor(mesh, prob, tol=1e-13)
    raw = field.gradient_rt()
    sigma = corrected_flux(field, prob)
    scale = 1.0 + np.abs(fbar).max()
    assert max_normal_jump(sigma) < 1e-9 * scale
    assert max_normal_jump(raw) > 1e-3


@settings(max_examples=25)
@given(perturbed_2d_meshes(max_cells=16), st.floats(0.25, 4.0),
       st.integers(0, 2**16))
def test_corrected_flux_is_normally_continuous_property(mesh, a, seed):
    # Marini (1985): for a piecewise-constant load and constant a the
    # corrected flux is the mixed flux, whose normal components are
    # continuous; a direct solve keeps the discrete equations exact
    fbar = np.random.default_rng(seed).uniform(-2.0, 2.0, size=mesh.ne)
    locate = tensor_locator(mesh)
    prob = source_problem(2, source=lambda x: fbar[locate(x)],
                          a=lambda x: np.full(x.shape[:-1], a))
    system = assemble(mesh, prob)
    field = reconstruct_field(mesh, system.full_dofs(
        spsolve(system.matrix.tocsc(), system.rhs)))
    sigma = corrected_flux(field, prob)
    scale = np.abs(sigma.midpoint_traces()).max()
    assert max_normal_jump(sigma) <= 1e-12 * scale


def test_corrected_flux_is_normally_continuous_in_3d():
    gl = np.linspace(0.0, 1.0, 5)
    mesh = perturb(build_tensor_mesh(gl, np.linspace(0.0, 1.0, 4), gl), 0.2,
                   seed=24)
    fbar = np.random.default_rng(25).uniform(-2.0, 2.0, size=mesh.ne)
    locate = tensor_locator(mesh)
    assert np.array_equal(locate(mesh.elem_center), np.arange(mesh.ne))
    prob = source_problem(3, source=lambda x: fbar[locate(x)],
                          a=lambda x: np.full(x.shape[:-1], 1.5))
    system = assemble(mesh, prob)
    field = reconstruct_field(mesh, system.full_dofs(
        spsolve(system.matrix.tocsc(), system.rhs)))
    sigma = corrected_flux(field, prob)
    scale = np.abs(sigma.midpoint_traces()).max()
    assert max_normal_jump(sigma) <= 1e-12 * scale
    raw = field.gradient_rt().scaled_by(np.full(mesh.ne, 1.5))
    assert max_normal_jump(raw) > 1e-3


@settings(max_examples=25)
@given(perturbed_2d_meshes())
def test_correction_divergence_is_one_property(mesh):
    r = correction_field(mesh)
    assert np.abs(divergence(r) - 1.0).max() <= 1e-15


@settings(max_examples=25)
@given(perturbed_2d_meshes(), st.tuples(st.floats(-5.0, 5.0),
                                        st.floats(-5.0, 5.0)))
def test_averaging_preserves_constants_property(mesh, const):
    const = np.array(const)
    flux = BrokenRT(mesh, alpha=np.tile(const, (mesh.ne, 1)),
                    beta=np.zeros((mesh.ne, 2)))
    avg = midpoint_average(flux)
    assert np.abs(avg.values - const).max() <= 1e-13 * (1.0 + np.abs(const).max())


def test_corrected_flux_allocates_one_block_at_a_time(monkeypatch):
    prob = problem2()
    mesh = refined_box_mesh(prob, 4096)
    rng = np.random.default_rng(52)
    field = reconstruct_field(mesh, rng.normal(size=mesh.nf))

    monkeypatch.setattr(elements, "BLOCK_POINTS", 256 * 4 ** 3)
    block_bytes = cell_block_bytes(mesh)
    # 3.7 blocks measured: a block's quadrature and samples of a, and the
    # whole mesh's affine gradient and coefficients. A block's per-point
    # raw flux, (block, nq, d), would add 0.75 and a per-point Gram
    # tensor, (block, nq, d, 2d - 1), 3.75
    assert traced_peak(corrected_flux, field, prob) <= 4 * block_bytes


# -- facet-flux interpolation --------------------------------------------------

def test_rt_interpolation_of_constant_field():
    mesh = perturbed_square(seed=14)
    tau = rt_interpolate(mesh, lambda x: np.broadcast_to(
        [2.0, -3.0], x.shape).copy())
    pts, _ = cell_quadrature(mesh)
    assert np.abs(eval_at(tau, pts) - np.array([2.0, -3.0])).max() < 1e-13


def test_rt_interpolation_reproduces_member_field():
    mesh = perturbed_square(seed=15)
    tau = rt_interpolate(
        mesh, lambda x: np.stack([x[..., 0], np.zeros(x.shape[:-1])],
                                 axis=-1))
    pts, _ = cell_quadrature(mesh)
    expected = np.stack([pts[..., 0], np.zeros(pts.shape[:2])], axis=-1)
    assert np.abs(eval_at(tau, pts) - expected).max() < 1e-13


def test_rt_interpolant_has_continuous_normal_components():
    mesh = perturbed_square(n=5, seed=16)
    tau = rt_interpolate(
        mesh, lambda x: np.stack([np.sin(x[..., 1]) + x[..., 0] ** 2,
                                  x[..., 0] * x[..., 1]], axis=-1))
    assert max_normal_jump(tau) < 1e-12


def test_single_cell_has_no_normal_jump():
    mesh = build_tensor_mesh(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    tau = rt_interpolate(
        mesh, lambda x: np.stack([x[..., 0], -x[..., 1]], axis=-1))
    assert mesh.interior_facets.size == 0
    assert max_normal_jump(tau) == 0.0


@pytest.mark.parametrize("n", [4, 8])
def test_interpolation_commutes_with_divergence(n):
    mesh = perturb(build_tensor_mesh(np.linspace(0.0, 1.0, n + 1),
                                     np.linspace(0.0, 1.0, n + 1)),
                   0.2, seed=17)

    def tau(x):
        return np.stack([np.sin(x[..., 1]) + x[..., 0] ** 2,
                         x[..., 0] * x[..., 1]], axis=-1)

    def div_tau(x):
        return 3.0 * x[..., 0]

    interp = rt_interpolate(mesh, tau)
    pts, wts = cell_quadrature(mesh)
    means = np.einsum("eq,eq->e", wts, div_tau(pts)) / mesh.elem_measure
    defect = np.sqrt(np.sum(mesh.elem_measure
                            * (divergence(interp) - means) ** 2))
    assert defect < 1e-10


# -- midpoint averaging ---------------------------------------------------------

@pytest.mark.parametrize("mesh_factory", [
    perturbed_square,
    perturbed_cube,
    lambda: build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)),
])
def test_averaging_preserves_constants_everywhere(mesh_factory):
    mesh = mesh_factory()
    const = np.array([1.25, -0.75, 0.5][:mesh.dim])
    flux = BrokenRT(mesh, alpha=np.tile(const, (mesh.ne, 1)),
                    beta=np.zeros((mesh.ne, mesh.dim)))
    avg = midpoint_average(flux)
    assert np.abs(avg.values - const).max() < 5e-14


def test_averaging_is_plain_mean_on_uniform_meshes():
    mesh = build_tensor_mesh(np.linspace(0.0, 1.0, 5),
                             np.linspace(0.0, 1.0, 5))
    rng = np.random.default_rng(3)
    flux = BrokenRT(mesh, rng.normal(size=(mesh.ne, 2)),
                    rng.normal(size=(mesh.ne, 2)))
    avg = midpoint_average(flux)
    traces = flux.midpoint_traces()
    inter = mesh.interior_facets
    expected = 0.5 * (traces[inter, 0, :] + traces[inter, 1, :])
    assert np.abs(avg.values[inter] - expected).max() < 1e-14


def test_averaged_interpolant_reproduces_bilinear_fields():
    mesh = perturbed_square(n=4, seed=18)

    def tau(x):
        xy = x[..., 0] * x[..., 1]
        return np.stack([x[..., 1] + 2.0 * xy,
                         3.0 - x[..., 0] + xy], axis=-1)

    # every facet: the boundary chains extrapolate a bilinear field exactly
    avg = midpoint_average(rt_interpolate(mesh, tau))
    expected = tau(mesh.facet_midpoint)
    assert np.abs(avg.values - expected).max() < 1e-12


def test_averaged_interpolant_reproduces_trilinear_fields():
    mesh = perturbed_cube(n=4, seed=19)

    def tau(x):
        return np.stack([x[..., 1] * x[..., 2],
                         x[..., 0] * x[..., 2],
                         x[..., 0] * x[..., 1]], axis=-1)

    # every facet: the boundary chains extrapolate a trilinear field exactly
    avg = midpoint_average(rt_interpolate(mesh, tau))
    expected = tau(mesh.facet_midpoint)
    assert np.abs(avg.values - expected).max() < 1e-12


def test_averaged_interpolant_second_order_for_smooth_fields():
    def tau(x):
        return np.stack([np.sin(np.pi * x[..., 0]) * x[..., 1],
                         np.cos(x[..., 0] + 2.0 * x[..., 1])], axis=-1)

    hs, errs = [], []
    for n in (4, 8, 16, 32):
        gl = np.linspace(0.0, 1.0, n + 1)
        mesh = build_tensor_mesh(gl, gl)
        avg = midpoint_average(rt_interpolate(mesh, tau))
        errs.append(l2_error(mesh, tau, avg))
        hs.append(mesh.h)
    assert fit_order(hs, errs) > 1.9


def test_averaging_needs_two_elements_per_axis():
    mesh = build_tensor_mesh((0.0, 1.0), (0.0, 0.5, 1.0))
    flux = BrokenRT(mesh, np.zeros((mesh.ne, 2)), np.zeros((mesh.ne, 2)))
    with pytest.raises(ValueError):
        midpoint_average(flux)


def test_midpoint_flux_evaluation_matches_stored_values():
    mesh = perturbed_square(seed=20)
    rng = np.random.default_rng(21)
    stored = rng.normal(size=(mesh.nf, 2))
    flux = MidpointFlux(mesh, stored)
    mids = mesh.facet_midpoint[mesh.elem_facets]        # (ne, 4, 2)
    got = eval_at(flux, mids)
    assert np.abs(got - stored[mesh.elem_facets]).max() < 1e-12
