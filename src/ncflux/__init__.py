"""Nonconforming finite elements with superconvergent flux recovery.

Solves -div(a grad u) + b . grad u + c u = f with Dirichlet data on
axis-aligned box meshes (2d and 3d) and on triangulations, using
facet-based nonconforming elements. The discrete flux is corrected to
have continuous normal components and then averaged to facet midpoints;
on shape-regular randomly perturbed meshes the recovered flux converges
one order faster than the raw broken gradient. ``ncflux study`` runs the
convergence studies from the command line.
"""

from .analysis import (LevelRecord, StudyConfig, StudyResult, emit_report,
                       fit_order, l2_error, run_study)
from .assembly import LinearSystem, NcrtField, assemble, reconstruct_field
from .cr import (CRField, EdgeMidpointField, VertexField, assemble_cr,
                 corrected_flux_cr, edge_midpoint_average,
                 rt_interpolate_tri, vertex_average)
from .elements import BrokenRT
from .mesh import (TensorMesh, TriMesh, build_uniform_parallel, perturb,
                   refine_midpoint)
from .problems import (REGISTRY, Problem, custom_problem, problem1, problem2)
from .recovery import (MidpointFlux, corrected_flux, correction_field,
                       max_normal_jump, midpoint_average, rt_interpolate)
from .sparse_solve import SolveReport, SolverError, solve

__version__ = "0.1.0"

__all__ = [
    "BrokenRT", "CRField", "EdgeMidpointField", "LevelRecord",
    "LinearSystem", "MidpointFlux", "NcrtField", "Problem", "REGISTRY",
    "SolveReport", "SolverError", "StudyConfig", "StudyResult", "TensorMesh",
    "TriMesh", "VertexField", "assemble", "assemble_cr",
    "build_uniform_parallel", "corrected_flux",
    "corrected_flux_cr", "correction_field", "custom_problem",
    "edge_midpoint_average", "emit_report", "fit_order", "l2_error",
    "max_normal_jump", "midpoint_average", "perturb",
    "problem1", "problem2", "reconstruct_field", "refine_midpoint",
    "rt_interpolate", "rt_interpolate_tri", "run_study", "solve",
    "vertex_average",
]
