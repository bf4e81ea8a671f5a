"""Exact lower bounds and triangulation verification for products of simplices."""

from .core import (
    FaceId,
    FaceSignature,
    SimplotopeSpec,
    VertexPoint,
    VertexSimplex,
    all_simplices,
    class_of,
    corner_simplex,
    exterior_faces,
    face_class,
    footprint,
    has_exterior_facet,
    is_parallel,
    is_tri_positioned,
    minimal_face,
    shadow,
)
from .counting import QQuery, q_by_enumeration, q_by_generating_function, q_count
from .exact import LpProblem, LpResult, det, lp_minimize
from .fbounds import VTable, comb_bound, f_bound
from .lptable import BoundCell, BoundsTable, bounds_table, build_lp, solve_cell
from .standard import standard_triangulation
from .verifier import (
    TriangulationCandidate,
    VerifierReport,
    adjacency_graph,
    interiors_overlap,
    meet_face_to_face,
    verify,
)

__version__ = "0.1.0"
