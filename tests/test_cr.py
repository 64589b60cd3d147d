import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from ncflux import analysis, assembly, cr, elements, recovery
from ncflux.analysis import StudyConfig, l2_error, run_study
from ncflux.cr import (CRField, assemble_cr, corrected_flux_cr,
                       edge_midpoint_average, rt_interpolate_tri,
                       vertex_average)
from ncflux.elements import (BrokenRT, RawFlux, cell_blocks, cell_quadrature,
                             cr_basis, cr_rule_table, facet_quadrature)
from ncflux.mesh import TriMesh, build_uniform_parallel
from ncflux.problems import Term, custom_problem, problem1, problem2
from ncflux.recovery import MidpointFlux, correction_field, max_normal_jump

from helpers import (cell_flux, cell_means, cr_bary_by_inverse, cr_values,
                     divergence, edge_midpoint_average_loop, eval_at,
                     jittered_parallel, linear_problem, ones_scalar,
                     solve_cr, source_problem, tri_locator, tri_meshes,
                     zeros_scalar, zeros_vector)


def random_tri_rt(mesh, rng):
    """A random member of the triangles' flux space a + b x, b scalar."""
    slope = rng.normal(size=(mesh.ne, 1))
    return BrokenRT(mesh, rng.normal(size=(mesh.ne, 2)),
                    np.repeat(slope, 2, axis=1))


def linear_tau(x):
    return np.stack([1.0 + 2.0 * x[..., 0] - x[..., 1],
                     0.5 - x[..., 0] + 3.0 * x[..., 1]], axis=-1)


# -- assembly and solving ------------------------------------------------------

@pytest.mark.parametrize("mesh_factory", [
    lambda: build_uniform_parallel(4, 4),
    lambda: jittered_parallel(4, 4),
])
def test_linear_solution_is_reproduced_exactly(mesh_factory):
    mesh = mesh_factory()
    prob = linear_problem(2, coef=(2.0, -1.0), const=0.3)
    exact = prob.u(mesh.facet_midpoint)

    system = assemble_cr(mesh, prob)
    residual = system.matrix @ exact[mesh.interior_facets] - system.rhs
    assert np.abs(residual).max() < 1e-12

    field = solve_cr(mesh, prob)
    assert np.abs(field.dofs - exact).max() < 1e-10


def test_constant_boundary_data_gives_constant_solution():
    mesh = jittered_parallel(3, 3, seed=5)
    prob = custom_problem(2, ones_scalar, zeros_vector, zeros_scalar,
                          a=ones_scalar, source=zeros_scalar)
    field = solve_cr(mesh, prob)
    assert np.abs(field.dofs - 1.0).max() < 1e-10


def test_galerkin_residual_recomputed_without_matrix():
    mesh = build_uniform_parallel(2, 2)
    prob = custom_problem(
        dim=2,
        u=lambda x: np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
        grad_u=lambda x: np.pi * np.stack(
            [np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
             np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])], axis=-1),
        lap_u=lambda x: -2.0 * np.pi ** 2
        * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
        a=lambda x: 1.0 + x[..., 0] ** 2 + x[..., 1] ** 2,
        grad_a=lambda x: 2.0 * x,
        c=lambda x: np.exp(x[..., 0]),
    )
    field = solve_cr(mesh, prob, tol=1e-13)

    gphi = cr_basis(mesh)
    pts, wts = cell_quadrature(mesh)
    phi = cr_values(mesh, pts)
    grads = field.gradient_rt().alpha
    vals = eval_at(field, pts)
    integrand = np.einsum("tq,td,tdi->ti", wts * prob.a(pts),
                          grads, gphi)
    load = Term(prob, "f")(pts)
    integrand += np.einsum("tq,tqi->ti", wts * (prob.c(pts) * vals - load),
                           phi)
    residual = np.zeros(mesh.nf)
    np.add.at(residual, mesh.elem_facets.ravel(), integrand.ravel())
    scale = np.abs(np.einsum("tq,tq->", wts, np.abs(load)))
    assert np.abs(residual[mesh.interior_facets]).max() < 1e-8 * scale


def test_matrix_symmetric_without_advection():
    mesh = jittered_parallel(3, 3, seed=6)
    prob = custom_problem(2, zeros_scalar, zeros_vector, zeros_scalar,
                          a=lambda x: 1.0 + x[..., 0],
                          grad_a=lambda x: np.stack(
                              [np.ones(x.shape[:-1]),
                               np.zeros(x.shape[:-1])], axis=-1),
                          c=ones_scalar)
    mat = assemble_cr(mesh, prob).matrix
    asym = np.abs((mat - mat.T).toarray()).max()
    assert asym < 1e-12 * np.abs(mat.toarray()).max()


def test_three_dimensional_problem_rejected():
    mesh = build_uniform_parallel(2, 2)
    with pytest.raises(ValueError):
        assemble_cr(mesh, problem2())


def test_field_values_and_gradients_for_linear_dofs():
    mesh = jittered_parallel(2, 2, seed=8)

    def u(x):
        return 4.0 - x[..., 0] + 2.0 * x[..., 1]

    field = CRField(mesh, u(mesh.facet_midpoint))
    pts, _ = cell_quadrature(mesh)
    assert np.abs(eval_at(field, pts) - u(pts)).max() < 1e-12
    grad = field.gradient_rt()
    assert np.abs(grad.alpha - np.array([-1.0, 2.0])).max() < 1e-12
    assert not grad.beta.any()


@pytest.mark.parametrize("extra", [5, -1])
def test_a_field_needs_one_dof_per_edge(extra):
    mesh = build_uniform_parallel(4, 4)
    with pytest.raises(ValueError, match=rf"expected {mesh.nf} dof values, "
                       rf"got \({mesh.nf + extra},\)"):
        CRField(mesh, np.zeros(mesh.nf + extra))


def test_a_field_takes_its_dofs_as_a_list():
    mesh = build_uniform_parallel(4, 4)
    prob = problem1()
    dofs = np.random.default_rng(10).normal(size=mesh.nf)
    field = CRField(mesh, dofs.tolist())
    assert (l2_error(mesh, prob.u, field)
            == l2_error(mesh, prob.u, CRField(mesh, dofs)))
    assert field.dofs.dtype == float


def test_cell_means_of_linear_function_hit_centroids():
    mesh = jittered_parallel(3, 3, seed=9)
    means = cell_means(mesh, lambda x: x[..., 0] + x[..., 1])
    expected = mesh.elem_center[:, 0] + mesh.elem_center[:, 1]
    assert np.abs(means - expected).max() < 1e-13


# -- corrected flux ------------------------------------------------------------

def test_corrected_flux_without_load_is_scaled_gradient():
    mesh = jittered_parallel(3, 3, seed=11)
    prob = custom_problem(
        dim=2,
        u=lambda x: x[..., 0] * x[..., 1],
        grad_u=lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1),
        lap_u=zeros_scalar,
        a=lambda x: 1.0 + x[..., 0],
        grad_a=lambda x: np.stack(
            [np.ones(x.shape[:-1]), np.zeros(x.shape[:-1])], axis=-1),
        source=zeros_scalar,
    )
    field = solve_cr(mesh, prob)
    sigma = corrected_flux_cr(field, prob)
    abar = cell_means(mesh, prob.a)
    assert np.abs(sigma.alpha
                  - abar[:, None] * field.gradient_rt().alpha).max() < 1e-13
    assert np.abs(sigma.beta).max() < 1e-13


def test_correction_maps_the_quadrature_once_per_block(monkeypatch):
    # the triangle means of a come out of the residual-load loop, bit for
    # bit the ones cell_means computes in a pass of its own
    mesh = build_uniform_parallel(40, 40)
    prob = problem1()
    field = CRField(mesh, np.random.default_rng(6).normal(size=mesh.nf))
    abar = cell_means(mesh, prob.a)
    calls, factors = [], []

    def counted(*args):
        calls.append(args)
        return cell_quadrature(*args)

    def recorded(self, factor):
        factors.append(factor)
        return scaled_by(self, factor)

    scaled_by = BrokenRT.scaled_by
    monkeypatch.setattr(cr, "cell_quadrature", counted)
    monkeypatch.setattr(BrokenRT, "scaled_by", recorded)
    corrected_flux_cr(field, prob)
    assert len(calls) == len(cell_blocks(mesh)) == 4
    assert np.array_equal(factors[0], abar)


def test_corrected_flux_of_zero_field_under_unit_load():
    mesh = build_uniform_parallel(3, 3)
    prob = source_problem(2, source=ones_scalar)
    field = CRField(mesh, np.zeros(mesh.nf))
    sigma = corrected_flux_cr(field, prob)
    assert np.abs(sigma.values_at_centers()).max() < 1e-14
    assert np.abs(sigma.beta + 0.5).max() < 1e-14
    assert np.abs(divergence(sigma) + 1.0).max() < 1e-14


def test_radial_field_has_unit_divergence():
    # on triangles the correction field is (x - x_K) / 2
    mesh = jittered_parallel(2, 2, seed=10)
    r = correction_field(mesh)
    assert np.allclose(divergence(r), 1.0)
    pts, _ = cell_quadrature(mesh)
    assert np.allclose(eval_at(r, pts),
                       0.5 * (pts - mesh.elem_center[:, None, :]),
                       rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("mesh_factory", [
    lambda: build_uniform_parallel(4, 4),
    lambda: jittered_parallel(4, 4),
])
def test_corrected_flux_is_normally_continuous_for_cellwise_load(
        mesh_factory):
    mesh = mesh_factory()
    rng = np.random.default_rng(12)
    fbar = rng.uniform(-2.0, 2.0, size=mesh.ne)
    locate = tri_locator(mesh)
    prob = source_problem(2, source=lambda x: fbar[locate(x)])
    field = solve_cr(mesh, prob, tol=1e-13)
    sigma = corrected_flux_cr(field, prob)
    scale = 1.0 + np.abs(fbar).max()
    assert max_normal_jump(sigma) < 1e-8 * scale
    assert max_normal_jump(field.gradient_rt()) > 1e-3


@settings(max_examples=25)
@given(tri_meshes(), st.floats(0.25, 4.0), st.integers(0, 2**16))
def test_corrected_flux_is_normally_continuous_property(mesh, a, seed):
    # for a piecewise-constant load and constant a the corrected flux is
    # the lowest-order Raviart-Thomas mixed flux; a direct solve keeps
    # the discrete equations exact
    fbar = np.random.default_rng(seed).uniform(-2.0, 2.0, size=mesh.ne)
    locate = tri_locator(mesh)
    prob = source_problem(2, source=lambda x: fbar[locate(x)],
                          a=lambda x: np.full(x.shape[:-1], a))
    system = assemble_cr(mesh, prob)
    field = CRField(mesh, system.full_dofs(
        spla.spsolve(system.matrix.tocsc(), system.rhs)))
    sigma = corrected_flux_cr(field, prob)
    scale = np.abs(sigma.midpoint_traces()[mesh.interior_facets]).max()
    assert max_normal_jump(sigma) <= 1e-12 * scale


def test_interpolated_flux_is_normally_continuous():
    mesh = jittered_parallel(4, 4, seed=13)
    tau = rt_interpolate_tri(
        mesh, lambda x: np.stack([np.sin(x[..., 1]) + x[..., 0] ** 2,
                                  x[..., 0] * x[..., 1]], axis=-1))
    assert max_normal_jump(tau) < 1e-12


def test_interpolant_matches_the_edge_fluxes():
    # the closed form reproduces every edge integral of the normal
    # component, from the triangles on both sides
    mesh = jittered_parallel(4, 3, seed=30)

    def vec(x):
        return np.stack([np.cos(x[..., 1]) + x[..., 0] ** 3,
                         np.exp(x[..., 0]) * x[..., 1]], axis=-1)

    tau = rt_interpolate_tri(mesh, vec)
    pts, wts = facet_quadrature(mesh)
    n = mesh.facet_normal
    flux = np.einsum("eq,eqd,ed->e", wts, vec(pts), n)
    traces = tau.midpoint_traces()
    for side in (0, 1):
        has = mesh.facet_elems[:, side] >= 0
        got = (np.einsum("ed,ed->e", traces[has, side], n[has])
               * mesh.facet_measure[has])
        assert np.abs(got - flux[has]).max() < 1e-13


def test_single_triangle_has_no_normal_jump():
    mesh = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]))
    tau = rt_interpolate_tri(mesh, linear_tau)
    assert mesh.interior_facets.size == 0
    assert max_normal_jump(tau) == 0.0


def test_interpolation_reproduces_member_fields():
    mesh = jittered_parallel(3, 3, seed=14)

    def vec(x):
        return np.stack([2.0 + 0.5 * x[..., 0], -1.0 + 0.5 * x[..., 1]],
                        axis=-1)

    tau = rt_interpolate_tri(mesh, vec)
    pts, _ = cell_quadrature(mesh)
    assert np.abs(eval_at(tau, pts) - vec(pts)).max() < 1e-12
    assert np.abs(tau.beta - 0.5).max() < 1e-12


# -- midpoint and vertex averaging ----------------------------------------------

def test_edge_averaging_preserves_constants_everywhere():
    mesh = jittered_parallel(3, 3, seed=15)
    cellvals = np.tile([1.5, -0.5], (mesh.ne, 1))
    avg = edge_midpoint_average(cell_flux(mesh, cellvals))
    assert np.abs(avg.values - np.array([1.5, -0.5])).max() < 1e-13


def test_edge_averaging_preserves_constants_from_boundary_parallel_edges():
    # on one cell's two triangles every parallel edge is a boundary edge,
    # so its one-sided trace stands in for the midpoint value
    mesh = build_uniform_parallel(1, 1)
    cellvals = np.tile([1.5, -0.5], (mesh.ne, 1))
    avg = edge_midpoint_average(cell_flux(mesh, cellvals))
    assert np.abs(avg.values - np.array([1.5, -0.5])).max() < 1e-14


def test_edge_averaging_reproduces_linear_fields_on_parallel_mesh():
    mesh = build_uniform_parallel(4, 4)
    avg = edge_midpoint_average(cell_flux(mesh,
                                          linear_tau(mesh.elem_center)))
    assert np.abs(avg.values - linear_tau(mesh.facet_midpoint)).max() < 1e-12


def test_edge_averaging_annihilates_radial_field_at_interior_midpoints():
    # opposite-centroid symmetry makes the two one-sided traces cancel, so
    # averaging a corrected flux needs only its centroid values
    mesh = build_uniform_parallel(4, 4)
    traces = correction_field(mesh).midpoint_traces()[mesh.interior_facets]
    assert np.abs(0.5 * (traces[:, 0] + traces[:, 1])).max() < 1e-14


def test_edge_averaging_own_trace_fallback_on_single_triangle():
    mesh = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]))
    cellvals = np.array([[2.0, -1.0]])
    avg = edge_midpoint_average(cell_flux(mesh, cellvals))
    assert np.abs(avg.values - np.array([2.0, -1.0])).max() < 1e-14


@pytest.mark.parametrize("mesh", [
    build_uniform_parallel(1, 1),        # every parallel edge on the boundary
    build_uniform_parallel(5, 3),        # equidistant candidates tie on d2
    build_uniform_parallel(1, 4),
    jittered_parallel(4, 4, seed=28),
    jittered_parallel(7, 3, amount=0.05, seed=29),
    TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]])),      # no candidate: own trace
], ids=["1x1", "5x3", "1x4", "jittered4x4", "jittered7x3", "single"])
def test_edge_averaging_matches_the_boundary_loop_exactly(mesh):
    rng = np.random.default_rng(mesh.ne)
    for flux in (cell_flux(mesh, rng.normal(size=(mesh.ne, 2))),
                 random_tri_rt(mesh, rng)):
        avg = edge_midpoint_average(flux)
        loop = edge_midpoint_average_loop(mesh, flux.values_at_centers())
        assert type(avg) is type(loop) is MidpointFlux
        assert np.array_equal(avg.values, loop.values)


def test_edge_field_evaluation_matches_stored_values():
    mesh = jittered_parallel(2, 2, seed=16)
    rng = np.random.default_rng(17)
    vals = rng.normal(size=(mesh.nf, 2))
    fld = MidpointFlux(mesh, vals)
    mids = mesh.facet_midpoint[mesh.elem_facets]
    # the basis at the midpoints times the field's reference coefficients
    got = cr_values(mesh, mids) @ fld.reference_coeffs().transpose(0, 2, 1)
    assert np.abs(got - vals[mesh.elem_facets]).max() < 1e-12


def test_vertex_averaging_preserves_constants():
    mesh = jittered_parallel(3, 3, seed=18)
    cellvals = np.tile([0.25, 4.0], (mesh.ne, 1))
    fld = vertex_average(cell_flux(mesh, cellvals))
    assert np.abs(fld.values - np.array([0.25, 4.0])).max() < 1e-13
    pts, _ = cell_quadrature(mesh)
    assert np.abs(eval_at(fld, pts) - np.array([0.25, 4.0])).max() < 1e-13


def test_vertex_averaging_matches_direct_accumulation():
    mesh = jittered_parallel(3, 2, seed=19)
    rng = np.random.default_rng(20)
    cellvals = rng.normal(size=(mesh.ne, 2))
    fld = vertex_average(cell_flux(mesh, cellvals))
    assert type(fld) is MidpointFlux
    vertex = np.empty((mesh.nv, 2))
    for vid in range(mesh.nv):
        rows = np.nonzero((mesh.triangles == vid).any(axis=1))[0]
        w = mesh.elem_measure[rows]
        vertex[vid] = (cellvals[rows] * w[:, None]).sum(axis=0) / w.sum()
    # the linear field of the vertex values, at each edge's midpoint
    for e, (a, b) in enumerate(mesh.edges):
        expected = 0.5 * (vertex[a] + vertex[b])
        assert np.abs(fld.values[e] - expected).max() < 1e-13


def test_vertex_field_is_continuous_across_edges():
    mesh = jittered_parallel(3, 3, seed=21)
    rng = np.random.default_rng(22)
    fld = vertex_average(cell_flux(mesh, rng.normal(size=(mesh.ne, 2))))
    # evaluate along each interior edge from both adjacent triangles; at
    # the midpoints alone any MidpointFlux would pass
    inter = mesh.interior_facets
    pts, _ = facet_quadrature(mesh, inter)       # (interior edges, nq, 2)
    sides = mesh.facet_elems[inter]

    def gap(field):
        lo, hi = (eval_at(field, pts, sides[:, k]) for k in (0, 1))
        return np.abs(lo - hi).max()

    assert gap(fld) < 1e-12
    assert gap(MidpointFlux(mesh, rng.normal(size=(mesh.nf, 2)))) > 0.1


# -- blocked evaluation -------------------------------------------------------

def blocked_level(mesh, prob):
    """The per-level cr quantities of the study, for comparing block sizes."""
    system = assemble_cr(mesh, prob)
    x = spla.spsolve(system.matrix.tocsc(), system.rhs)
    field = CRField(mesh, system.full_dofs(x))
    sigma = corrected_flux_cr(field, prob)
    interp = rt_interpolate_tri(mesh, prob.grad_u)
    grad = field.gradient_rt()
    recovered = edge_midpoint_average(sigma)
    errs = [l2_error(mesh, prob.u, field),
            l2_error(mesh, prob.grad_u, RawFlux(prob.a, grad)),
            l2_error(mesh, sigma - interp),
            l2_error(mesh, prob.grad_u, recovered)]
    return system, sigma, interp, cell_means(mesh, prob.a), errs


def test_blocks_give_the_single_block_results(monkeypatch):
    # 1152 triangles; a jitter of a fifth of the cell side keeps them
    # all positive, so the mesh is not folded
    mesh = jittered_parallel(24, 24, amount=0.2 / 24, seed=23)
    prob = problem1()
    assert len(cell_blocks(mesh)) == 2
    blocked = blocked_level(mesh, prob)
    monkeypatch.setattr(elements, "TRI_BLOCK", mesh.nf)
    assert len(cell_blocks(mesh)) == 1
    whole = blocked_level(mesh, prob)

    (sys_b, sig_b, int_b, mean_b, err_b) = blocked
    (sys_w, sig_w, int_w, mean_w, err_w) = whole
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(sys_b.matrix, name),
                              getattr(sys_w.matrix, name))
    assert np.array_equal(sys_b.rhs, sys_w.rhs)
    for a, b in ((sig_b, sig_w), (int_b, int_w)):
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(mean_b, mean_w)
    # only the order of the block sums differs
    assert np.allclose(err_b, err_w, rtol=1e-13, atol=0.0)


def test_fields_evaluate_one_block_of_rows():
    mesh = jittered_parallel(4, 3, seed=24)
    rng = np.random.default_rng(25)
    pts, _ = cell_quadrature(mesh)
    rows = slice(5, 17)
    fields = [
        CRField(mesh, rng.normal(size=mesh.nf)),
        random_tri_rt(mesh, rng),
        MidpointFlux(mesh, rng.normal(size=(mesh.nf, 2))),
        vertex_average(cell_flux(mesh, rng.normal(size=(mesh.ne, 2)))),
        RawFlux(ones_scalar,
                CRField(mesh, rng.normal(size=mesh.nf)).gradient_rt()),
    ]
    for fld in fields:
        if isinstance(fld, RawFlux):        # a times its gradient's values
            fld = fld.grad
        assert np.array_equal(fld.reference_coeffs(rows),
                              fld.reference_coeffs()[rows])
    block_pts, block_wts = cell_quadrature(mesh, rows)
    assert np.array_equal(block_pts, pts[rows])
    assert np.array_equal(cr_basis(mesh, rows), cr_basis(mesh)[rows])
    edge_pts, _ = facet_quadrature(mesh)
    assert np.array_equal(facet_quadrature(mesh, mesh.boundary_facets)[0],
                          edge_pts[mesh.boundary_facets])


def test_flux_difference_evaluates_as_difference():
    mesh = jittered_parallel(3, 3, seed=26)
    rng = np.random.default_rng(27)
    p, q = (random_tri_rt(mesh, rng) for _ in range(2))
    pts, _ = cell_quadrature(mesh)
    assert np.allclose(eval_at(p - q, pts), eval_at(p, pts) - eval_at(q, pts),
                       rtol=0.0, atol=1e-13)


def test_a_level_computes_the_field_gradients_once(monkeypatch):
    # the raw flux and the correction both read them
    mesh = build_uniform_parallel(6, 6)
    field = CRField(mesh, np.random.default_rng(4).normal(size=mesh.nf))
    grad = field.gradient_rt()
    assert field.gradient_rt() is grad
    assert not (grad.alpha.flags.writeable or grad.beta.flags.writeable)
    fresh = CRField(mesh, field.dofs)
    assert np.array_equal(fresh.gradient_rt().alpha, grad.alpha)

    computed = []
    gradient_rt = CRField.gradient_rt

    def spy(self):
        computed.append(self._gradient is None)
        return gradient_rt(self)

    monkeypatch.setattr(CRField, "gradient_rt", spy)
    run_study(StudyConfig(problem="p1", element="cr", levels=2, perturb=0.0))
    assert computed == [True, False] * 2


# -- the triangle rule's basis table -------------------------------------------

@settings(max_examples=25)
@given(tri_meshes())
def test_rule_table_is_the_basis_at_the_mapped_rule(mesh):
    bary = cr_bary_by_inverse(mesh)
    expected = cr_values(mesh, cell_quadrature(mesh)[0])
    # the bound scales with the barycentric coefficients, up to 2 |bary|
    # (x and y lie in [0, 1]), which grow as 1 / h
    size = 2.0 * np.abs(bary).sum(axis=1).max()
    assert np.abs(cr_rule_table().T - expected).max() <= 1e-15 * size
    assert not cr_rule_table().flags.writeable


@settings(max_examples=25)
@given(tri_meshes(), st.integers(0, 2**16))
def test_table_norms_of_tri_fields_match_eval_at(mesh, seed):
    rng = np.random.default_rng(seed)
    pts, wts = cell_quadrature(mesh)
    for field in (CRField(mesh, rng.normal(size=mesh.nf)),
                  MidpointFlux(mesh, rng.normal(size=(mesh.nf, 2))),
                  vertex_average(cell_flux(mesh,
                                           rng.normal(size=(mesh.ne, 2))))):
        vals = eval_at(field, pts)
        spec = "bq,bq,bq->" if vals.ndim == 2 else "bq,bqd,bqd->"
        expected = np.sqrt(np.einsum(spec, wts, vals, vals))
        assert abs(l2_error(mesh, field) - expected) <= 1e-13 * expected


def test_a_cr_study_evaluates_no_basis_at_mapped_points(monkeypatch):
    # the package has no point evaluator of the triangle basis, so every
    # basis value a study reads comes from the rule's table
    modules = (analysis, assembly, cr, elements, recovery)
    called = [f"{module.__name__}.{name}" for module in modules
              for name in ("cr_values", "cr_barycentrics", "eval_at")
              if hasattr(module, name)]
    called += [f"{cls.__name__}.eval_at" for cls in (
        CRField, MidpointFlux, BrokenRT, RawFlux)
        if hasattr(cls, "eval_at")]
    assert called == []
    for module in (analysis, cr):
        def counting(*args, _fn=module.cell_table):
            called.append(args[0].ne)
            return _fn(*args)
        monkeypatch.setattr(module, "cell_table", counting)
    run_study(StudyConfig(problem="p1", element="cr", levels=3,
                          perturb=0.0))
    # assembly, the correction and the norms of each level
    assert called == [ne for ne in (128, 512, 2048) for _ in range(3)]
