"""Sparse linear solvers with a uniform report.

The Krylov method is BiCGStab (H. A. van der Vorst, SIAM J. Sci. Stat.
Comput. 13, 1992). It is deterministic: the same matrix and right-hand
side produce bit-identical solutions.

The preconditioner is Jacobi unless the caller passes a fill-reducing
``order`` of the unknowns. Then it is a single-precision SuperLU factor
(X. S. Li, ACM TOMS 31, 2005) of the matrix in that order, which the
study driver uses for every 2d system, on boxes and on triangles, with a
nested-dissection order (``assembly.nested_dissection``; A. George,
SIAM J. Numer. Anal. 10, 1973): BiCGStab then needs one or two
iterations, and the float32 factor takes half the memory of a float64
one. 3d systems keep Jacobi, for which the factor fills too much.

Convergence is judged on the true residual. A BiCGStab breakdown (rho or
omega near zero), or a stop on the recurrence residual while the true
residual is still above the tolerance, is not final: the solve restarts
from the current iterate with a fresh shadow residual (Saad, *Iterative
Methods for Sparse Linear Systems*, sec. 7.4) while that keeps lowering
the true residual within the iteration budget. A system that converges
at once takes a single scipy call. Where restarts make no progress,
`SolverError` is raised, and the study driver lets it end the study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


@dataclass(frozen=True)
class SolveReport:
    method: str
    converged: bool
    iterations: int
    residual: float              # relative to |rhs|
    dim: int


class SolverError(RuntimeError):
    """Iterative solve failed; carries the report of the attempt."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def _relative_residual(A, b, x, bnorm):
    return float(np.linalg.norm(b - A @ x) / bnorm)


def _jacobi(A):
    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    return sp.diags(1.0 / diag)


def _lu_preconditioner(A, order):
    """Inverse of A by a float32 SuperLU factor of A[order][:, order].

    The order is taken as fill-reducing, so SuperLU keeps it (NATURAL
    column order, diagonal pivots preferred) and only the factor's single
    precision separates the preconditioner from A^-1.
    """
    order = np.asarray(order)
    # cast, then permute: the same factor bits, no permuted float64 copy
    lu = spla.splu(A.astype(np.float32)[order][:, order].tocsc(),
                   permc_spec="NATURAL", relax=1, panel_size=1,
                   diag_pivot_thresh=0.1,
                   options=dict(SymmetricMode=True))

    def apply(r):
        y = np.empty(r.shape[0])
        y[order] = lu.solve(r.ravel()[order].astype(np.float32))
        return y

    return spla.LinearOperator(A.shape, matvec=apply, dtype=float)


def solve(A, b, tol: float = 1e-10, order=None):
    """Solve A x = b by BiCGStab; returns (x, SolveReport).

    Convergence means the true relative residual |b - A x| / |b| is at
    most tol, within a budget of 20 * dim iterations summed over all
    attempts. When BiCGStab breaks down, or stops on its recurrence
    residual while the true one is still above tol, it restarts from its
    iterate as long as each attempt lowers the true relative residual;
    SolverError is raised when an attempt brings no decrease or the
    budget runs out. The report then carries the total iterations and
    the final true residual.

    order, a permutation of the unknowns, switches the preconditioner
    from Jacobi to a float32 sparse LU factor of A in that order (see
    _lu_preconditioner); the factor is freed before solve returns.
    """
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if n == 0 or bnorm == 0.0:
        report = SolveReport(method="bicgstab", converged=True, iterations=0,
                             residual=0.0, dim=n)
        return np.zeros(n), report
    max_iter = 20 * n
    M = _jacobi(A) if order is None else _lu_preconditioner(A, order)

    count = [0]

    def tick(_):
        count[0] += 1

    def attempt(start):
        return spla.bicgstab(A, b, x0=start, rtol=tol, atol=0.0, M=M,
                             maxiter=max_iter - count[0], callback=tick)

    x, info = attempt(None)
    # A breakdown, or a stop on the recurrence residual while the true
    # one is above tol: restart from the iterate (true residual, fresh
    # shadow vector) for as long as each attempt lowers the true residual.
    prev, res = 1.0, _relative_residual(A, b, x, bnorm)
    while (info < 0 or (info == 0 and res > tol)) and res < prev \
            and count[0] < max_iter:
        x, info = attempt(x)
        prev, res = res, _relative_residual(A, b, x, bnorm)
    del M                       # frees the LU factor, if any
    converged = info == 0 and res <= tol
    report = SolveReport(method="bicgstab", converged=converged,
                         iterations=count[0], residual=res, dim=n)
    if not converged:
        raise SolverError(
            f"bicgstab did not converge (info={info}, "
            f"relative residual {res:.3e})", report)
    return x, report

