"""Exterior faces, footprints and shadows: the slow oracles of the F bound's proof.

The bound counts the exterior faces of a vertex simplex x: sets of j + 1
vertices of x that lie in a common j-face of the simplotope.  Its proof
pins each such face down by its footprint and shadow with respect to a
fixed exterior face sigma, and uses that exterior faces are never parallel
or tri-positioned.  Everything here is an exhaustive computation written
over the public face model of ``simplotope.core``: a face is the set
`FaceId.zeros` of (factor, position) coordinates it fixes at zero, and
`minimal_face` gives the smallest face holding some vertices.  It is kept
only for the tests to check the proof's lemmas and the evaluator against.
`all_simplices`, every vertex set of the right size as a simplex, is the
enumeration the case study's scan over vertex indices is checked against,
and `nondegenerate_subsets_by_det` is that scan as it was, one determinant
per five-subset.  `exterior_facet_positions` is the spot rule as a set of
(factor, position) pairs counted per vertex, and `spot_set` reads the
package's spot masks as such sets.
"""

import itertools
from collections import Counter

from simplotope.core import SimplotopeSpec, VertexPoint, VertexSimplex, minimal_face
from simplotope.exact import det
from simplotope.trisquare import TRI_SQUARE


def all_simplices(spec):
    """Every (dim+1)-subset of the vertices as a simplex, degenerate ones included."""
    for sub in itertools.combinations(spec.vertices(), spec.dim + 1):
        yield VertexSimplex(spec, sub)


def tri_square_class2():
    """The class-2 simplices of the triangle-cross-square, by the case study's own filter."""
    return [x for x in all_simplices(TRI_SQUARE) if x.cls == 2]


def nondegenerate_subsets_by_det():
    """Every nondegenerate 5-subset of the tri-square's vertices as a sorted
    tuple of vertex indices, with its class: |det| of the lifted rows, one
    determinant per subset, in `itertools.combinations` order."""
    lifted = [v.lifted() for v in TRI_SQUARE.vertices()]
    out = []
    for sub in itertools.combinations(range(len(lifted)), TRI_SQUARE.dim + 1):
        cls = abs(det([lifted[i] for i in sub]))
        if cls:
            out.append((sub, cls))
    return out


def exterior_facet_positions(idxs):
    """The (factor, position) spots that exactly one of a nondegenerate
    simplex's vertices uses, given by their index tuples: the zero
    coordinates of the simplotope facets that hold a facet of the simplex."""
    uses = Counter(spot for idx in idxs for spot in enumerate(idx))
    return {spot for spot, n in uses.items() if n == 1}


def spot_set(mask, spec):
    """A spot mask as a set of (factor, position): bit k is standard coordinate k."""
    spots = [(i, j) for i, c in enumerate(spec.factors) for j in range(c + 1)]
    return {spot for k, spot in enumerate(spots) if mask >> k & 1}


def _kept(fid, factor):
    """Positions of one factor that the face does not fix at zero."""
    return [j for j in range(fid.spec.factors[factor] + 1) if (factor, j) not in fid.zeros]


def signature(fid):
    """(s', t', q): the face of a segment/triangle product as s' segments and
    t' triangles, q of the segments from segment factors of the product (the
    other s' - q are edges of triangle factors)."""
    sp = tp = q = 0
    for i, c in enumerate(fid.spec.factors):
        nfree = len(_kept(fid, i))
        if nfree == 1:
            continue
        if c == 1:
            sp += 1
            q += 1
        elif c == 2 and nfree == 2:
            sp += 1
        elif c == 2:
            tp += 1
        else:
            raise ValueError("face signatures are only defined for segment/triangle products")
    return sp, tp, q


def free_coords(fid):
    """Coordinates that vary over the face (a block's single nonzero is fixed at 1)."""
    kept = [_kept(fid, i) for i in range(len(fid.spec.factors))]
    return frozenset((i, j) for i, k in enumerate(kept) if len(k) >= 2 for j in k)


def localize(fid, points):
    """Points of the face as vertices of the face in its own right: pinned
    factors dropped, each other factor renumbered over its kept positions."""
    kept = [_kept(fid, i) for i in range(len(fid.spec.factors))]
    blocks = [i for i, k in enumerate(kept) if len(k) >= 2]
    local = SimplotopeSpec(tuple(len(kept[i]) - 1 for i in blocks))
    return [VertexPoint(local, tuple(kept[i].index(p.idx[i]) for i in blocks)) for p in points]


def face_class(points):
    """Class of a vertex simplex inside its minimal face.

    The points must span that face's dimension (one more point than the
    face dimension); this is the class that the divisibility statements
    about exterior faces refer to.
    """
    fid = minimal_face(points)
    if fid.dim == 0:
        if len(points) != 1:
            raise ValueError("several points cannot span a vertex")
        return 1
    local = localize(fid, points)
    if len(local) != fid.dim + 1:
        raise ValueError("points do not span their minimal face")
    return VertexSimplex(local[0].spec, local).cls


def exterior_faces(x, sig):
    """All exterior faces of x with the (s', t') signature sig, as (vertices, face).

    An exterior j-face is a set of j+1 vertices of x lying in a common j-face
    of the simplotope; here j = s' + 2t' and the face must be a product of s'
    segments and t' triangles.
    """
    if x.cls == 0:
        raise ValueError("exterior faces are only defined for nondegenerate simplices")
    sp, tp = sig
    k = sp + 2 * tp
    out = []
    for subset in itertools.combinations(x.vertices, k + 1):
        fid = minimal_face(subset)
        if fid.dim == k and signature(fid)[:2] == (sp, tp):
            out.append((subset, fid))
    return out


def exterior_facet_positions_by_minimal_face(x):
    """Zero coordinates of the simplotope facets holding a facet of x: the
    union of the zeros of the minimal face of every d-subset of x."""
    spots = set()
    for subset in itertools.combinations(x.vertices, len(x.vertices) - 1):
        spots.update(minimal_face(subset).zeros)
    return spots


def is_parallel(f1, f2):
    """Faces are parallel when they have exactly the same free coordinates."""
    if f1.spec != f2.spec:
        raise ValueError("faces come from different simplotopes")
    return free_coords(f1) == free_coords(f2)


def is_tri_positioned(f1, f2, f3):
    """Same zero coordinates except in one triangle factor, where the three
    faces each fix a different single coordinate at zero."""
    faces = (f1, f2, f3)
    spec = f1.spec
    if any(f.spec != spec for f in faces):
        raise ValueError("faces come from different simplotopes")
    for i, c in enumerate(spec.factors):
        if c != 2:
            continue
        inside = [frozenset(j for fi, j in f.zeros if fi == i) for f in faces]
        outside = [frozenset(z for z in f.zeros if z[0] != i) for f in faces]
        if outside[0] == outside[1] == outside[2] \
                and all(len(z) == 1 for z in inside) \
                and len(set(inside)) == 3:
            return True
    return False


def corner_simplex(spec, v):
    """The simplex on v and its neighbors, the vertices that differ from v in
    exactly one factor (class 1)."""
    if v.spec != spec:
        raise ValueError("vertex comes from a different simplotope")
    neighbors = [spec.vertex(v.idx[:i] + (j,) + v.idx[i + 1:])
                 for i, c in enumerate(spec.factors) for j in range(c + 1) if j != v.idx[i]]
    return VertexSimplex(spec, [v] + neighbors)


def _exterior_subset(face, x, name):
    vs = tuple(face)
    if not set(vs) <= x.vertex_set:
        raise ValueError(f"{name} is not a vertex subset of the simplex")
    if minimal_face(vs).dim != len(vs) - 1:
        raise ValueError(f"{name} is not an exterior face of the simplex")
    return vs


def footprint(tau, sigma, x):
    """The intersection of two exterior faces of x, as a vertex subset."""
    t = _exterior_subset(tau, x, "tau")
    s = set(_exterior_subset(sigma, x, "sigma"))
    return tuple(v for v in t if v in s)


def shadow(tau, sigma, x):
    """Image of tau under the projection that collapses sigma to a point.

    In reduced coordinates with respect to a vertex of sigma, the projection
    zeroes the free coordinates of sigma and keeps its zero coordinates, so
    vertices map to vertices.  Distinct images are returned in tau's order;
    the projection is one-to-one on vertices of x outside sigma.
    """
    if x.cls == 0:
        raise ValueError("shadows are only defined for nondegenerate simplices")
    t = _exterior_subset(tau, x, "tau")
    s = _exterior_subset(sigma, x, "sigma")
    pivot = s[0]
    sigma_zeros = minimal_face(s).zeros
    out = []
    for u in t:
        # Coordinates free on sigma project to 0; the block's 1 then lands on
        # the pivot's coordinate for that factor.
        pv = VertexPoint(x.spec, tuple(p if j != p and (i, j) not in sigma_zeros else j
                                       for i, (j, p) in enumerate(zip(u.idx, pivot.idx))))
        if pv not in out:
            out.append(pv)
    return tuple(out)
