"""Placing (beneath-beyond) triangulations of a simplotope, for testing `verify`.

A placing triangulation adds the vertices one at a time in a given order.
Each new vertex p is coned to every boundary facet of the current
triangulation that p lies beyond, that is, strictly on the other side of
the facet's hyperplane from the simplex that owns it (De Loera, Rambau and
Santos, *Triangulations*, 2010, section 4.3).  Every vertex of a product of
simplices is a vertex of the polytope, so no later vertex lies in the hull
of earlier ones and each is beyond some facet; coplanar facets are left
alone, which keeps the construction exact without general position.

Here the first d + 1 affinely independent vertices of the order form the
first simplex and the rest are placed in order.  Each boundary facet keeps
one integer normal n with n . lifted(x) = det(facet rows, lifted(x)),
oriented so that the owner's apex is on the positive side, so the test for
a new vertex is one dot product per facet.  Different orders give different
triangulations, many of them not unimodular.
"""

import random

from simplotope.core import VertexSimplex
from simplotope.exact import det
from simplotope.verifier import TriangulationCandidate


def _independent(rows):
    """Whether the integer rows are linearly independent: a nonzero Gram determinant."""
    return det([[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]) != 0


def _normal(rows, apex):
    """The cofactor normal of d lifted facet rows, positive on the apex."""
    m = len(rows) + 1
    n = [(-1) ** (m - 1 + j) * det([r[:j] + r[j + 1:] for r in rows]) for j in range(m)]
    return n if sum(a * b for a, b in zip(n, apex)) > 0 else [-a for a in n]


def placing_triangulation(spec, order):
    """The placing triangulation of `spec` for an order of `spec.vertices()` indices."""
    verts = spec.vertices()
    lifted = [v.lifted() for v in verts]
    first = []
    for i in order:
        if len(first) <= spec.dim and _independent([lifted[j] for j in first + [i]]):
            first.append(i)
    simplices = []
    boundary = {}  # facet (sorted vertex indices) -> inward normal

    def add(simplex):
        simplices.append(simplex)
        for apex in simplex:
            facet = tuple(sorted(set(simplex) - {apex}))
            if boundary.pop(facet, None) is None:
                boundary[facet] = _normal([lifted[j] for j in facet], lifted[apex])

    add(tuple(first))
    for p in order:
        if p in first:
            continue
        visible = [facet for facet, n in boundary.items()
                   if sum(a * b for a, b in zip(n, lifted[p])) < 0]
        for facet in visible:
            add(facet + (p,))
    return TriangulationCandidate(
        spec, tuple(VertexSimplex(spec, [verts[j] for j in s]) for s in simplices))


def random_placings(spec, count, seed):
    """`count` placing triangulations of `spec` for orders shuffled from `seed`."""
    rng = random.Random(seed)
    order = list(range(len(spec.vertices())))
    out = []
    for _ in range(count):
        rng.shuffle(order)
        out.append(placing_triangulation(spec, order))
    return out
