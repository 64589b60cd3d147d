import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from ncflux.assembly import assemble, nested_dissection
from ncflux.cr import assemble_cr
from ncflux.mesh import (TriMesh, build_tensor_mesh, build_uniform_parallel,
                         perturb, refine_midpoint)
from ncflux.problems import problem1
from ncflux.sparse_solve import SolveReport, SolverError, solve

from helpers import perturbed_2d_meshes, tri_meshes


def p1_system():
    prob = problem1()
    mesh = perturb(refine_midpoint(
        build_tensor_mesh(*prob.initial_gridlines)), 0.2, seed=2)
    return assemble(mesh, prob)


def test_identity_system():
    b = np.array([3.0, -1.0, 2.0])
    x, report = solve(sp.eye(3, format="csr"), b)
    assert np.allclose(x, b, atol=1e-12)
    assert report.converged
    assert report.residual <= 1e-10
    assert report.dim == 3


def test_small_spd_system():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = np.array([3.0, 3.0])
    x, report = solve(A, b, tol=1e-13)
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)
    assert report.method == "bicgstab"
    assert report.converged
    assert report.residual <= 1e-12


def test_zero_rhs_short_circuits():
    A = sp.eye(4, format="csr")
    x, report = solve(A, np.zeros(4))
    assert np.all(x == 0.0)
    assert report.converged
    assert report.iterations == 0


def test_iterative_matches_dense_on_assembled_system():
    system = p1_system()
    x_it, rep = solve(system.matrix, system.rhs, tol=1e-12)
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
    x_it, _ = solve(sp.csr_matrix(A), b, tol=1e-13)
    assert np.linalg.norm(x_it - x) < 1e-10


def test_solutions_are_deterministic():
    system = p1_system()
    x1, _ = solve(system.matrix, system.rhs, tol=1e-11)
    x2, _ = solve(system.matrix, system.rhs, tol=1e-11)
    assert np.array_equal(x1, x2)


def test_singular_system_raises_with_report():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    b = np.array([1.0, 0.0])
    with pytest.raises(SolverError) as exc:
        solve(A, b)
    report = exc.value.report
    assert isinstance(report, SolveReport)
    assert not report.converged
    assert report.dim == 2


def test_bicgstab_restarts_after_rho_breakdown():
    A = np.array([[4.0, 2.0, -2.0], [2.0, 14.0, 0.0], [-2.0, 0.0, 3.0]])
    b = np.array([0.0, 2.0, 2.0])
    jacobi = sp.diags(1.0 / np.diag(A))
    # plain scipy BiCGStab breaks down (rho = 0) on this SPD system
    _, info = spla.bicgstab(sp.csr_matrix(A), b, rtol=1e-12, atol=0.0,
                            M=jacobi, maxiter=60)
    assert info == -10
    x, report = solve(sp.csr_matrix(A), b, tol=1e-12)
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
        solve(A, b, tol=1e-12)
    report = exc.value.report
    assert not report.converged
    assert report.method == "bicgstab"
    assert report.residual == pytest.approx(1.0)


def test_converged_means_the_true_residual_is_below_tol():
    # with two BLAS threads, scipy's BiCGStab stops on this system on its
    # recurrence residual while the true relative residual is about 5e-9
    system = assemble_cr(build_uniform_parallel(64, 64), problem1())
    A, b = system.matrix, system.rhs
    x, report = solve(A, b, tol=1e-10)
    assert report.converged
    assert report.residual <= 1e-10
    true = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert true == report.residual


@settings(max_examples=15)
@given(st.one_of(perturbed_2d_meshes(), tri_meshes()))
def test_lu_preconditioned_solve_matches_dense_lu(mesh):
    assembler = assemble_cr if isinstance(mesh, TriMesh) else assemble
    system = assembler(mesh, problem1())
    x, report = solve(system.matrix, system.rhs, tol=1e-12,
                      order=nested_dissection(mesh))
    x_lu = spla.spsolve(system.matrix, system.rhs)
    assert report.converged and report.method == "bicgstab"
    assert report.residual <= 1e-12
    assert np.linalg.norm(x - x_lu) <= 1e-12 * np.linalg.norm(x_lu)
