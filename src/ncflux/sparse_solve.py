"""Sparse linear solvers with a uniform report.

The Krylov method is BiCGStab (H. A. van der Vorst, SIAM J. Sci. Stat.
Comput. 13, 1992). It is deterministic: the same matrix and right-hand
side produce bit-identical solutions.

The preconditioner is picked by the caller; the study driver picks it by
the mesh's dimension.

* ``order``, a fill-reducing order of the unknowns: a single-precision
  SuperLU factor (X. S. Li, ACM TOMS 31, 2005) of the matrix in that
  order. The study driver uses it for every 2d system, on boxes and on
  triangles, with a nested-dissection order
  (``assembly.nested_dissection``; A. George, SIAM J. Numer. Anal. 10,
  1973): BiCGStab then needs one or two iterations, and the float32
  factor takes half the memory of a float64 one.
* ``coarse``, the coarse levels of a geometric multigrid hierarchy
  (``assembly.coarse_levels``): one V-cycle with damped Jacobi smoothing
  and a float64 SuperLU factor of the coarsest matrix. The study driver
  uses it for every 3d system, where the LU factor fills too much; the
  iteration count then stays flat as the mesh is refined (S. C.
  Brenner, Math. Comp. 52, 1989; S. Turek, *Efficient Solvers for
  Incompressible Flow Problems*, Springer, 1999). A system small enough
  to need no coarse level is solved by the factor alone.
* neither: Jacobi.

Each is a fixed linear map, so BiCGStab and its restarts stay valid.

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


def _inverse_diagonal(A):
    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    return 1.0 / diag


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


# damped Jacobi smoothing of the V-cycle: sweeps before and after the
# coarse correction, and the damping factor
SMOOTH_SWEEPS = 2
SMOOTH_OMEGA = 0.8


def _multigrid(A, coarse):
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
        r = r.ravel()
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

    return spla.LinearOperator(A.shape, matvec=apply, dtype=float)


def solve(A, b, tol: float = 1e-10, order=None, coarse=None):
    """Solve A x = b by BiCGStab; returns (x, SolveReport).

    Convergence means the true relative residual |b - A x| / |b| is at
    most tol, within a budget of 20 * dim iterations summed over all
    attempts. When BiCGStab breaks down, or stops on its recurrence
    residual while the true one is still above tol, it restarts from its
    iterate as long as each attempt lowers the true relative residual;
    SolverError is raised when an attempt brings no decrease or the
    budget runs out. The report then carries the total iterations and
    the final true residual. An iteration counts once it has applied the
    preconditioner, so an attempt that stops at the half step of an
    iteration counts that iteration too.

    The preconditioner is Jacobi, unless one of these is given:
    order, a permutation of the unknowns, makes it a float32 sparse LU
    factor of A in that order (see _lu_preconditioner); coarse, the
    levels (P, A_c) of a multigrid hierarchy below A (possibly none),
    makes it one V-cycle (see _multigrid). Either is freed before solve
    returns.
    """
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if n == 0 or bnorm == 0.0:
        report = SolveReport(method="bicgstab", converged=True, iterations=0,
                             residual=0.0, dim=n)
        return np.zeros(n), report
    max_iter = 20 * n
    if order is not None:
        M = _lu_preconditioner(A, order)
    elif coarse is not None:
        M = _multigrid(A, coarse)
    else:
        M = sp.diags(_inverse_diagonal(A))

    count, begun = 0, False

    def precondition(r):
        nonlocal begun
        begun = True
        return M @ r

    def tick(_):
        nonlocal count, begun
        count, begun = count + 1, False

    def attempt(start):
        nonlocal count, begun
        out = spla.bicgstab(A, b, x0=start, rtol=tol, atol=0.0,
                            M=spla.LinearOperator(A.shape, precondition,
                                                  dtype=float),
                            maxiter=max_iter - count, callback=tick)
        # an exit at the half step skips the callback
        count, begun = count + begun, False
        return out

    x, info = attempt(None)
    # A breakdown, or a stop on the recurrence residual while the true
    # one is above tol: restart from the iterate (true residual, fresh
    # shadow vector) for as long as each attempt lowers the true residual.
    prev, res = 1.0, _relative_residual(A, b, x, bnorm)
    while (info < 0 or (info == 0 and res > tol)) and res < prev \
            and count < max_iter:
        x, info = attempt(x)
        prev, res = res, _relative_residual(A, b, x, bnorm)
    del M                       # frees the LU factors, if any
    converged = info == 0 and res <= tol
    report = SolveReport(method="bicgstab", converged=converged,
                         iterations=count, residual=res, dim=n)
    if not converged:
        raise SolverError(
            f"bicgstab did not converge (info={info}, "
            f"relative residual {res:.3e})", report)
    return x, report
