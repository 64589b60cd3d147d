import math
import time
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from ncflux import assembly
from ncflux.analysis import StudyConfig, _tensor_meshes
from ncflux.assembly import assemble, coarse_levels, preconditioner
from ncflux.cr import assemble_cr
from ncflux.mesh import (TensorMesh, TriMesh, build_uniform_parallel,
                         perturb, refine_midpoint)
from ncflux.problems import problem1, problem2
from ncflux.sparse_solve import (SolveReport, SolverError,
                                 lu_preconditioner, multigrid, solve)

from helpers import perturbed_2d_meshes, tri_meshes


def jacobi(A):
    """The diagonal map r -> r / diag(A), a zero diagonal entry read as 1."""
    diag = A.diagonal()
    return partial(np.multiply, 1.0 / np.where(diag == 0.0, 1.0, diag))


def p1_system():
    prob = problem1()
    mesh = TensorMesh(perturb(refine_midpoint(prob.initial_gridlines), 0.2,
                              seed=2))
    return assemble(mesh, prob), prob


def test_identity_system():
    b = np.array([3.0, -1.0, 2.0])
    A = sp.eye(3, format="csr")
    x, report = solve(A, b, 1e-10, jacobi(A))
    assert np.allclose(x, b, atol=1e-12)
    assert report.converged
    assert report.residual <= 1e-10
    assert report.dim == 3


def test_small_spd_system():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = np.array([3.0, 3.0])
    x, report = solve(A, b, 1e-13, jacobi(A))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)
    assert report.method == "bicgstab"
    assert report.converged
    assert report.residual <= 1e-12


def test_zero_rhs_short_circuits():
    A = sp.eye(4, format="csr")
    x, report = solve(A, np.zeros(4), 1e-10, jacobi(A))
    assert np.all(x == 0.0)
    assert report.converged
    assert report.iterations == 0


def test_iterative_matches_dense_on_assembled_system():
    system, prob = p1_system()
    x_it, rep = solve(system.matrix, system.rhs, 1e-12,
                      preconditioner(system, prob))
    x_lu = spla.spsolve(system.matrix, system.rhs)
    rel = np.linalg.norm(x_it - x_lu) / np.linalg.norm(x_lu)
    assert rel < 1e-8
    assert rep.converged
    assert rep.method == "bicgstab"
    assert rep.residual <= 1e-11


def test_dense_lu_random_diagonally_dominant():
    rng = np.random.default_rng(42)
    A = rng.normal(size=(10, 10)) + 10.0 * np.eye(10)
    b = rng.normal(size=10)
    x = spla.spsolve(sp.csc_matrix(A), b)
    assert np.linalg.norm(A @ x - b) < 1e-12
    A = sp.csr_matrix(A)
    x_it, _ = solve(A, b, 1e-13, jacobi(A))
    assert np.linalg.norm(x_it - x) < 1e-10


def test_solutions_are_deterministic():
    system, prob = p1_system()
    x1, _ = solve(system.matrix, system.rhs, 1e-11,
                  preconditioner(system, prob))
    x2, _ = solve(system.matrix, system.rhs, 1e-11,
                  preconditioner(system, prob))
    assert np.array_equal(x1, x2)


def _assert_raises_with_report(rows, b):
    A = sp.csr_matrix(np.array(rows))
    with pytest.raises(SolverError) as exc:
        solve(A, np.array(b), 1e-10, jacobi(A))
    report = exc.value.report
    assert isinstance(report, SolveReport)
    assert not report.converged
    assert report.dim == 2


def test_singular_system_raises_with_report():
    _assert_raises_with_report([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])


def test_omega_breakdown_raises_with_report():
    # A M r = 0 at the half step, so omega is undefined: a breakdown
    _assert_raises_with_report([[0.0, 0.0], [1.0, -1.0]], [1.0, 1.0])


def test_bicgstab_restarts_after_rho_breakdown():
    A = np.array([[4.0, 2.0, -2.0], [2.0, 14.0, 0.0], [-2.0, 0.0, 3.0]])
    b = np.array([0.0, 2.0, 2.0])
    A_csr = sp.csr_matrix(A)
    # plain scipy BiCGStab breaks down (rho = 0) on this SPD system
    _, info = spla.bicgstab(A_csr, b, rtol=1e-12, atol=0.0,
                            M=sp.diags(1.0 / np.diag(A)), maxiter=60)
    assert info == -10
    x, report = solve(A_csr, b, 1e-12, jacobi(A_csr))
    assert np.allclose(x, np.linalg.solve(A, b), rtol=0.0, atol=1e-12)
    assert report.converged
    assert report.method == "bicgstab"
    assert report.residual <= 1e-12


def test_bicgstab_stops_restarting_without_progress():
    # omega breakdown on the first step leaves x = 0, so a restart
    # would repeat the same attempt
    A = sp.csr_matrix(np.array([[6.0, 3.0], [3.0, 2.0]]))
    b = np.array([2.0, -2.0])
    with pytest.raises(SolverError) as exc:
        solve(A, b, 1e-12, jacobi(A))
    report = exc.value.report
    assert not report.converged
    assert report.method == "bicgstab"
    assert report.residual == pytest.approx(1.0)


def test_converged_means_the_true_residual_is_below_tol():
    # Jacobi-preconditioned, BiCGStab stops on this system on its
    # recurrence residual after hundreds of iterations; the report gives
    # the true relative residual of x, reduced by numpy's pairwise sum
    system = assemble_cr(build_uniform_parallel(64, 64), problem1())
    A, b = system.matrix, system.rhs
    x, report = solve(A, b, 1e-10, jacobi(A))
    assert report.converged
    assert report.residual <= 1e-10
    d = b - A @ x
    true = math.sqrt(np.add.reduce(d * d)) / math.sqrt(np.add.reduce(b * b))
    assert true == report.residual


# a diagonal map, a float32 LU factor in the given order, and a V-cycle
# with no coarse level: a float64 LU factor
MAPS = {"jacobi": jacobi,
        "lu": lambda A: lu_preconditioner(A, np.arange(A.shape[0])),
        "direct": lambda A: multigrid(A, [])}


@pytest.mark.parametrize("kind", ["jacobi", "lu", "direct"])
@pytest.mark.parametrize("where", ["right-hand side b", "matrix A"])
def test_non_finite_input_is_rejected_at_once(where, kind):
    # unchecked, a NaN would spin through the whole iteration budget
    n = 20_000
    A, b = sp.eye(n, format="csr"), np.ones(n)
    precondition = MAPS[kind](A)     # built while A is finite
    (b if where == "right-hand side b" else A.data)[n // 2] = np.nan
    start = time.perf_counter()
    with pytest.raises(ValueError, match=where):
        solve(A, b, 1e-10, precondition)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=15)
@given(st.one_of(perturbed_2d_meshes(), tri_meshes()))
def test_lu_preconditioned_solve_matches_dense_lu(mesh):
    assembler = assemble_cr if isinstance(mesh, TriMesh) else assemble
    system = assembler(mesh, problem1())
    x, report = solve(system.matrix, system.rhs, 1e-12,
                      preconditioner(system, problem1()))
    x_lu = spla.spsolve(system.matrix, system.rhs)
    assert report.converged and report.method == "bicgstab"
    assert report.residual <= 1e-12
    assert np.linalg.norm(x - x_lu) <= 1e-12 * np.linalg.norm(x_lu)


def test_half_step_exit_counts_as_an_iteration():
    # the identity map is exact on the identity, so BiCGStab stops at
    # the half step of its first iteration
    b = np.arange(1.0, 6.0)
    x, report = solve(sp.eye(5, format="csr"), b, 1e-10, np.copy)
    assert np.allclose(x, b, rtol=0.0, atol=1e-14)
    assert report.converged and report.iterations == 1


@settings(max_examples=30)
@given(st.integers(1, 8), st.integers(0, 2 ** 16),
       st.sampled_from(["jacobi", "lu", "direct"]))
def test_converged_solves_of_nonzero_systems_count_iterations(n, seed, kind):
    rng = np.random.default_rng(seed)
    A = sp.csr_matrix(rng.normal(size=(n, n)) + 2.0 * n * np.eye(n))
    b = rng.normal(size=n)
    x, report = solve(A, b, 1e-10, MAPS[kind](A))
    assert report.converged and report.iterations >= 1


def multigrid_hierarchy(monkeypatch):
    """An 8x8x8 perturbed p2 system (1,344 unknowns) with a hierarchy two
    levels deep, coarsened down to 12 unknowns under a lowered floor."""
    monkeypatch.setattr(assembly, "COARSEST_UNKNOWNS", 50)
    prob = problem2()
    lines = prob.initial_gridlines
    for seed in (3, 4):
        lines = perturb(refine_midpoint(lines), 0.2, seed=seed)
    mesh = TensorMesh(lines)
    system = assemble(mesh, prob)
    levels = coarse_levels(mesh, prob)
    assert [A_c.shape[0] for _, A_c in levels] == [144, 12]
    return system, levels


def test_v_cycle_is_a_fixed_linear_map(monkeypatch):
    system, levels = multigrid_hierarchy(monkeypatch)
    cycle = multigrid(system.matrix, levels)
    rng = np.random.default_rng(8)
    r1, r2 = rng.normal(size=(2, system.matrix.shape[0]))
    y1, y2 = cycle(r1), cycle(r2)
    both = cycle(2.0 * r1 - 3.0 * r2)
    assert np.linalg.norm(both - (2.0 * y1 - 3.0 * y2)) \
        <= 1e-12 * np.linalg.norm(both)
    assert np.array_equal(cycle(r1), y1)


def test_v_cycle_preconditions_a_deep_hierarchy(monkeypatch):
    system, levels = multigrid_hierarchy(monkeypatch)
    x, report = solve(system.matrix, system.rhs, 1e-12,
                      multigrid(system.matrix, levels))
    x_lu = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert report.converged and 1 <= report.iterations <= 15
    assert np.linalg.norm(x - x_lu) <= 1e-10 * np.linalg.norm(x_lu)


def test_multigrid_study_levels_converge_in_few_iterations():
    # the solve of every level of a 4-level p2 study; the last one
    # (11,520 unknowns) is the first with a coarse level
    problem = problem2()
    config = StudyConfig(problem="p2", element="ncrt3d", levels=4)
    iterations = []
    for mesh in _tensor_meshes(problem, config):
        system = assemble(mesh, problem)
        x, report = solve(system.matrix, system.rhs, config.tol,
                          preconditioner(system, problem))
        x_lu = spla.spsolve(system.matrix.tocsc(), system.rhs)
        assert report.converged
        assert np.linalg.norm(x - x_lu) <= 1e-8 * np.linalg.norm(x_lu)
        iterations.append(report.iterations)
    assert system.matrix.shape[0] > assembly.COARSEST_UNKNOWNS
    assert all(1 <= it <= 15 for it in iterations), iterations
