"""The pairwise face-to-face test that certification by facet matching replaced.

`verifier.verify` decides a candidate in one pass over its facets.  The
tests check that verdict against the old pairwise one: every two members
meet face-to-face, which makes their interiors disjoint.
"""

from simplotope.core import VertexPoint
from simplotope.exact import INFEASIBLE, OPTIMAL, LpProblem, lp_minimize
from simplotope.verifier import facet_rows


def meet_face_to_face(a, b):
    """Exact test that two simplices intersect in a common face.

    One LP over the barycentric coordinates lambda of a point of a: the
    point lies in b (every row of `facet_rows(b)` is >= 0 at it), and the LP
    maximizes the weight lambda puts on the vertices of a outside b.  The
    simplices meet face-to-face exactly when the LP is infeasible (the hulls
    are disjoint) or that weight is 0, because the barycentric coordinates of
    a point in the nondegenerate simplex a are unique.
    """
    if a.spec != b.spec:
        raise ValueError("simplices come from different simplotopes")
    if a.is_degenerate or b.is_degenerate:
        raise ValueError("face-to-face is only defined for nondegenerate simplices")
    # `facet_rows` reduces with respect to the all-zero vertex
    pivot = VertexPoint(a.spec, (0,) * len(a.spec.factors))
    points = [(1,) + v.reduced(pivot) for v in a.vertices]
    n = len(points)
    rows = [([sum(c * p for c, p in zip(row, point)) for point in points], 0)
            for row in facet_rows(b)]
    rows += [([1] * n, 1), ([-1] * n, -1)]
    objective = [0 if v in b.vertex_set else -1 for v in a.vertices]
    result = lp_minimize(LpProblem.build(objective, rows))
    if result.status == INFEASIBLE:
        return True
    if result.status != OPTIMAL:
        raise RuntimeError(f"face-to-face LP came out {result.status}, but it is bounded by -1")
    return result.value == 0
