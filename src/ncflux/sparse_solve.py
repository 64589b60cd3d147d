"""Sparse linear solvers with a uniform report.

The Krylov method is BiCGStab (H. A. van der Vorst, SIAM J. Sci. Stat.
Comput. 13, 1992), written here as one loop. Its inner products and
norms are numpy's pairwise sums (``_dot``, ``_norm``), not BLAS, whose
partial sums depend on the thread count; so the same system gives
bit-identical solutions at any BLAS thread count.

The caller passes the preconditioner, any fixed linear map r -> y; the
study driver picks it by the mesh's dimension
(``assembly.preconditioner``). Two are built here:

* ``lu_preconditioner(A, order)``, with order a fill-reducing order of
  the unknowns: a single-precision SuperLU factor (X. S. Li, ACM TOMS
  31, 2005) of the matrix in that order. The study driver uses it for
  every 2d system, with a nested-dissection order
  (``assembly.nested_dissection``; A. George, SIAM J. Numer. Anal. 10,
  1973): BiCGStab then needs one or two iterations, and the float32
  factor takes half the memory of a float64 one.
* ``multigrid(A, coarse)``, with coarse the coarse levels of a geometric
  multigrid hierarchy (``assembly.coarse_levels``): one V-cycle with
  damped Jacobi smoothing and a float64 SuperLU factor of the coarsest
  matrix. The study driver uses it for every 3d system, where the LU
  factor fills too much; the iteration count then stays flat as the
  mesh is refined (S. C. Brenner, Math. Comp. 52, 1989; S. Turek,
  *Efficient Solvers for Incompressible Flow Problems*, Springer, 1999).
  A system small enough to need no coarse level is solved by the factor
  alone.

Convergence is judged on the true residual. Each pass of the outer loop
starts from the true residual of the iterate with a fresh shadow vector
(Saad, *Iterative Methods for Sparse Linear Systems*, sec. 7.4) and
ends on a breakdown (rho or omega near zero) or when its recurrence
residual falls below the tolerance. Another pass follows while the true
residual is above the tolerance, the last pass lowered it, and the
iteration budget is not spent; otherwise `SolverError` is raised, and
the study driver lets it end the study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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


def _dot(u, v):
    """u . v by numpy's pairwise sum, the same at any BLAS thread count."""
    return float(np.add.reduce(u * v))


def _norm(u):
    return math.sqrt(_dot(u, u))


def _inverse_diagonal(A):
    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    return 1.0 / diag


def lu_preconditioner(A, order):
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
        y[order] = lu.solve(r[order].astype(np.float32))
        return y

    return apply


# damped Jacobi smoothing of the V-cycle: sweeps before and after the
# coarse correction, and the damping factor
SMOOTH_SWEEPS = 2
SMOOTH_OMEGA = 0.8


def multigrid(A, coarse):
    """One V-cycle on A x = r from x = 0, as a fixed linear map.

    coarse lists (P, A_c) from the finest level down: P maps the
    unknowns of A_c to those of the level above, and P^T restricts.
    Every level but the last is smoothed by SMOOTH_SWEEPS damped Jacobi
    sweeps before and after its coarse correction; the last is solved by
    a float64 SuperLU factor, so with no coarse levels the cycle is A^-1.
    The levels are walked in loops: a recursive closure would be a
    reference cycle, keeping the hierarchy alive after the solve.
    """
    mats = [A] + [Ac for _, Ac in coarse]
    prolong = [P for P, _ in coarse]
    damped = [SMOOTH_OMEGA * _inverse_diagonal(M) for M in mats[:-1]]
    lu = spla.splu(mats[-1].tocsc())

    def residual(M, x, r):
        t = M @ x
        return np.subtract(r, t, out=t)

    def smooth(M, w, x, r, sweeps):
        for _ in range(sweeps):         # x += w (r - M x), in place
            t = residual(M, x, r)
            t *= w
            x += t

    def apply(r):
        down = []                       # per smoothed level: (x, r)
        for M, P, w in zip(mats, prolong, damped):
            x = w * r
            smooth(M, w, x, r, SMOOTH_SWEEPS - 1)
            down.append((x, r))
            r = P.T @ residual(M, x, r)
        x = lu.solve(r)
        for M, P, w, (x_fine, r_fine) in zip(mats[-2::-1], prolong[::-1],
                                             damped[::-1], down[::-1]):
            x_fine += P @ x
            smooth(M, w, x_fine, r_fine, SMOOTH_SWEEPS)
            x = x_fine
        return x

    return apply


def solve(A, b, tol, precondition):
    """Solve A x = b by BiCGStab; returns (x, SolveReport).

    precondition is a fixed linear map r -> y, such as
    lu_preconditioner or multigrid. Convergence means the true relative
    residual |b - A x| / |b| is at most tol within 20 * dim iterations,
    summed over the passes; an iteration counts once it applies the
    preconditioner. Otherwise SolverError is raised, carrying the report.
    ValueError is raised when A or b holds a non-finite entry.
    """
    b = np.asarray(b, dtype=float)
    for name, values in (("right-hand side b", b), ("matrix A", A.data)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} has a non-finite entry")
    n = A.shape[0]
    bnorm = _norm(b)
    if n == 0 or bnorm == 0.0:
        return np.zeros(n), SolveReport(method="bicgstab", converged=True,
                                        iterations=0, residual=0.0, dim=n)
    # scipy's bicgstab thresholds: a breakdown, and the recurrence stop
    tiny, atol = np.finfo(float).eps ** 2, tol * bnorm
    budget = 20 * n
    x, r = np.zeros(n), b.copy()
    count, prev, res = 0, math.inf, 1.0
    while res > tol and res < prev and count < budget:
        # one pass from the true residual r, with a fresh shadow vector
        shadow = r.copy()
        p = v = np.zeros(n)
        rho_prev = alpha = omega = 1.0  # so p = r on the first iteration
        while count < budget and _norm(r) >= atol:
            rho = _dot(shadow, r)
            if abs(rho) < tiny or abs(omega) < tiny:
                break
            p = r + (rho / rho_prev) * (alpha / omega) * (p - omega * v)
            phat = precondition(p)
            count += 1
            v = A @ phat
            rv = _dot(shadow, v)
            if rv == 0.0:
                break
            alpha = rho / rv
            r -= alpha * v
            x += alpha * phat
            if _norm(r) < atol:
                break
            shat = precondition(r)
            t = A @ shat
            tt = _dot(t, t)
            omega = _dot(t, r) / tt if tt else 0.0  # t = 0: a breakdown
            x += omega * shat
            r -= omega * t
            rho_prev = rho
        r = b - A @ x
        prev, res = res, _norm(r) / bnorm
    report = SolveReport(method="bicgstab", converged=res <= tol,
                         iterations=count, residual=res, dim=n)
    if not report.converged:
        raise SolverError(
            f"bicgstab did not converge (relative residual {res:.3e})",
            report)
    return x, report
