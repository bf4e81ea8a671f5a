"""Pairwise LP tests that certification and the overlap test replaced.

`verifier.verify` decides a candidate in one pass over its facets.  The
tests check that verdict against the old pairwise one: every two members
meet face-to-face, which makes their interiors disjoint.  They also check
`verifier.interiors_overlap`, a homogeneous LP, against the normalized
overlap LP it replaced, which needs phase 1 and so runs on the Fraction
oracle.
"""

from lp_oracle import INFEASIBLE, OPTIMAL, fraction_lp_minimize
from simplotope.core import VertexPoint
from simplotope.exact import LpProblem, lp_minimize
from simplotope.verifier import facet_rows


def _zero_vertex(spec):
    # `facet_rows` reduces with respect to the all-zero vertex
    return VertexPoint(spec, (0,) * len(spec.factors))


def meet_face_to_face(a, b):
    """Exact test that two simplices intersect in a common face.

    One homogeneous LP over weights lambda >= 0 on the vertices of a: the
    lifted point sum lambda_i (1, a_i) satisfies every row of
    `facet_rows(b)` (rows with rhs 0), sum lambda <= 1, and the LP maximizes
    the weight lambda puts on the vertices of a outside b.  A feasible
    lambda != 0 divided by its sum is the barycentric coordinate vector of a
    point of a that lies in b, so the optimum is positive exactly when some
    point of a and b has weight outside b.  The simplices meet face-to-face
    exactly when it is 0 (which includes disjoint hulls, where only lambda =
    0 is feasible), because the barycentric coordinates of a point in the
    nondegenerate simplex a are unique.
    """
    if a.spec != b.spec:
        raise ValueError("simplices come from different simplotopes")
    if a.cls == 0 or b.cls == 0:
        raise ValueError("face-to-face is only defined for nondegenerate simplices")
    pivot = _zero_vertex(a.spec)
    points = [(1,) + v.reduced(pivot) for v in a.vertices]
    n = len(points)
    rows = [([sum(c * p for c, p in zip(row, point)) for point in points], 0)
            for row in facet_rows(b)]
    rows.append(([-1] * n, -1))
    objective = [0 if v in b.vertex_set else -1 for v in a.vertices]
    return lp_minimize(LpProblem(objective, rows)).value == 0


def overlap_by_normalized_lp(a, b):
    """`interiors_overlap` as it was: barycentric coordinates that sum to 1.

    Maximizes the smallest barycentric coordinate z across both simplices
    subject to sum lambda = sum mu = 1 and the two combinations being the
    same point; the interiors meet exactly when the LP is feasible with a
    positive optimum.
    """
    pivot = _zero_vertex(a.spec)
    ra = [v.reduced(pivot) for v in a.vertices]
    rb = [v.reduced(pivot) for v in b.vertices]
    p, q = len(ra), len(rb)
    n = p + q + 1  # lambda, mu, z
    rows = []

    def eq(coeffs, rhs):
        rows.append((coeffs, rhs))
        rows.append(([-c for c in coeffs], -rhs))

    eq([1] * p + [0] * q + [0], 1)
    eq([0] * p + [1] * q + [0], 1)
    for k in range(a.spec.dim):
        eq([r[k] for r in ra] + [-r[k] for r in rb] + [0], 0)
    for i in range(p + q):
        row = [0] * n
        row[i] = 1
        row[-1] = -1
        rows.append((row, 0))
    result = fraction_lp_minimize(LpProblem([0] * (p + q) + [-1], rows))
    if result.status == INFEASIBLE:
        return False
    if result.status != OPTIMAL:
        raise RuntimeError(f"overlap LP came out {result.status}, but z is bounded by 1")
    return result.value < 0
