"""Certification of simplicial triangulations of a simplotope.

A candidate is a set of vertex simplices of the simplotope P, of dimension
d.  A facet of a simplex is the simplex on d of its d + 1 vertices.  The
candidate is certified exactly when

1. every simplex is nondegenerate and full-dimensional;
2. the classes (normalized volumes) sum to the class of P;
3. every facet that lies in a facet of P (for some factor of c_i + 1
   positions, its vertices use at most c_i) belongs to exactly one simplex;
4. every other facet belongs to exactly two simplices, and their apexes
   (the vertices off the facet) lie on opposite sides of it.

This is the pseudo-manifold criterion of De Loera, Rambau and Santos,
*Triangulations* (Springer 2010), ch. 4.  Sketch of why it suffices:

- A facet of kind 4 has its relative interior inside the interior of P: a
  face of P that met that relative interior would contain all the facet's
  vertices.
- For a point p of P off every facet hyperplane, let m(p) count the
  simplices that contain p.  Moving p across a generic point of a kind-4
  facet leaves the owner on one side and enters the owner on the other, so
  m does not change.  The points where m could change otherwise have
  codimension 2 and do not disconnect the interior, so m is one constant k
  on all of it.
- Summing volumes, the classes add up to k times the class of P, and
  condition 2 makes k = 1: the interiors are pairwise disjoint and the
  simplices cover P.
- Two simplices that met in anything but a common face would form a
  T-junction (a facet of one shared only in part with the other) or two
  faces crossing.  Near such a point, the simplex across the facet given by
  the matching and the other simplex would both contain a point, against
  k = 1.

The check is one pass over all facets, with one exact determinant per
simplex on its vertices' `VertexPoint.lifted` rows.  A facet is the sorted
tuple of its vertices' index tuples, so it has one key and one vertex order
whichever simplex it comes from.  The orientation of the facet followed by
its apex is then the simplex's signed determinant times the parity of
moving the apex to the end, so the side of the apex is known without
further arithmetic.  Adjacency is read from the same facet map.

Certification makes no pairwise test.  The tests check its verdict against
the pairwise face-to-face LP it replaced (`tests/pairwise_oracle.py`), which
reads each simplex's integer half-space rows from `facet_rows`, the
adjugate of its vertex matrix.  `interiors_overlap` decides by one small
exact LP whether two simplices share an interior point; it is the overlap
test of the triangle-cross-square argument.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import SimplotopeSpec, VertexSimplex
from .exact import LpProblem, det, lp_minimize, scaled_inverse


class TriangulationCandidate(NamedTuple):
    spec: SimplotopeSpec
    simplices: tuple[VertexSimplex, ...]


class VerifierReport(NamedTuple):
    spec: SimplotopeSpec
    classes: tuple[int, ...]
    total_class: int
    polytope_class: int
    classes_ok: bool
    facets_ok: bool
    certified: bool
    adjacency: tuple[tuple[int, int], ...]
    diagnostics: tuple[str, ...]


def facet_rows(x: VertexSimplex) -> tuple[tuple[int, ...], ...]:
    """Integer half-space rows r with r . (1, x) >= 0 cutting out the simplex.

    Row i is the i-th barycentric functional scaled by |det|: it vanishes on
    every vertex but the i-th, where it equals |det|.
    """
    d, adj = scaled_inverse([v.lifted() for v in x.vertices])
    sign = 1 if d > 0 else -1
    return tuple(tuple(sign * entry for entry in column) for column in zip(*adj))


def interiors_overlap(a: VertexSimplex, b: VertexSimplex) -> bool:
    """Exact test for a point interior to both simplices.

    Start from one homogeneous LP over lambda, mu, z >= 0: sum lambda_i
    (1, a_i) = sum mu_j (1, b_j), with every coordinate lifted by a leading
    1, and lambda_i >= z, mu_j >= z, z <= 1; minimize -z.  Without z <= 1
    the feasible set is a cone, so any feasible z > 0 scales up to z = 1
    and the optimum is exactly -1 or 0.  It is -1 exactly when the
    interiors meet: positive barycentric coordinates of a common interior
    point are feasible with z = their minimum, and conversely z > 0 makes
    every weight positive while the lifted coordinate gives sum lambda =
    sum mu = sigma > 0, so lambda / sigma and mu / sigma put one point
    strictly inside both.

    The LP solved is that one with the weights shifted by z: lambda_i =
    z + lambda'_i and mu_j = z + mu'_j with lambda', mu' >= 0.  The map
    (lambda', mu', z) -> (lambda, mu, z) is linear and one-to-one, and it
    takes the orthant lambda', mu', z >= 0 onto exactly the set lambda_i >=
    z, mu_j >= z, z >= 0 (which implies lambda, mu >= 0).  So the rows
    lambda_i >= z and mu_j >= z disappear into the sign constraints, the z
    column of coordinate row k becomes sum_i a_ik - sum_j b_jk, and the
    feasible set is the old one under that change of variables, with the
    same objective -z and the same optimum.  What is left is the 2(d + 1)
    equality rows, each split into two inequalities, and z <= 1: still
    homogeneous, with every rhs <= 0, as `lp_minimize` requires.  Works
    for equal-dimensional faces as well (relative interiors).
    """
    if a.spec != b.spec:
        raise ValueError("simplices come from different simplotopes")
    if len(a.vertices) < 2 or len(b.vertices) < 2:
        raise ValueError("overlap test needs at least segments")
    ra = [v.lifted() for v in a.vertices]
    rb = [v.lifted() for v in b.vertices]
    n = len(ra) + len(rb)  # lambda', mu'; z is column n
    rows = []
    for k in range(a.spec.dim + 1):
        coeffs = [r[k] for r in ra] + [-r[k] for r in rb]
        coeffs.append(sum(coeffs))
        rows += [(coeffs, 0), ([-c for c in coeffs], 0)]
    minus_z = [0] * n + [-1]
    rows.append((minus_z, -1))
    value = lp_minimize(LpProblem(minus_z, rows)).value
    if value not in (-1, 0):
        raise RuntimeError(f"overlap LP came out at {value}, but its optimum is -1 or 0")
    return value == -1


# A facet as the facet map holds it: its vertices' index tuples, sorted.
Facet = tuple[tuple[int, ...], ...]


def _facet_owners(cand: TriangulationCandidate) -> dict[Facet, list[tuple[int, int]]]:
    """Map every d-vertex subset of every simplex to its owners.

    An owner is (simplex index, k).  The subsets of a simplex come from
    `itertools.combinations` of its sorted vertex index tuples, and k is the
    position of the subset in that sequence.  For a simplex with d + 1
    vertices the k-th subset omits the vertex at sorted position d - k, and
    moving that apex behind the facet takes k transpositions.  Owners of one
    subset are listed in increasing simplex order.
    """
    d = cand.spec.dim
    owners: dict[Facet, list[tuple[int, int]]] = {}
    for i, x in enumerate(cand.simplices):
        for k, facet in enumerate(itertools.combinations(sorted(v.idx for v in x.vertices), d)):
            owners.setdefault(facet, []).append((i, k))
    return owners


def _check_members(cand: TriangulationCandidate) -> tuple[list[int], list[int], list[str], bool]:
    """Classes, signed determinants (vertices in index order) and member diagnostics."""
    d = cand.spec.dim
    classes, signed, diagnostics = [], [], []
    ok = True
    for i, x in enumerate(cand.simplices):
        if x.spec != cand.spec:
            raise ValueError("simplex does not live in the candidate's simplotope")
        if len(x.vertices) != d + 1:
            diagnostics.append(f"simplex {i}: {len(x.vertices)} vertices, expected {d + 1}")
            classes.append(0)
            signed.append(0)
            ok = False
            continue
        # |det| is the class whatever the vertex order
        s = det([v.lifted() for v in sorted(x.vertices, key=lambda v: v.idx)])
        classes.append(abs(s))
        signed.append(s)
        if s == 0:
            diagnostics.append(f"simplex {i}: degenerate (class 0)")
            ok = False
    return classes, signed, diagnostics, ok


def _apex_side(signed_det: int, k: int) -> bool:
    """Sign of det(facet rows, apex row): the signed determinant times (-1)^k."""
    return (signed_det > 0) != (k % 2 == 1)


def _facet_diagnostics(spec: SimplotopeSpec, owners: dict[Facet, list[tuple[int, int]]],
                       signed: list[int]) -> list[str]:
    """One line per facet that breaks condition 3 or 4 of the module docstring."""
    out = []
    for facet, own in owners.items():
        # in a facet of P exactly when some factor i has a position no vertex uses
        boundary = any(len({idx[i] for idx in facet}) <= c for i, c in enumerate(spec.factors))
        where, want = ("boundary", 1) if boundary else ("interior", 2)
        label = f"{where} facet {list(facet)}"
        if len(own) != want:
            noun = "simplex" if len(own) == 1 else "simplices"
            out.append(f"{label}: owned by {len(own)} {noun} {[i for i, _ in own]}, "
                       f"expected {want}")
            continue
        if boundary:
            continue
        (i, ki), (j, kj) = own
        if _apex_side(signed[i], ki) == _apex_side(signed[j], kj):
            out.append(f"{label}: simplices {i} and {j} have their apexes on one side")
    return out


def _adjacency(owners: dict[Facet, list[tuple[int, int]]]) -> tuple[tuple[int, int], ...]:
    # Two vertex sets of at most d + 1 elements share exactly d vertices
    # exactly when they have one d-subset in common; identical simplices
    # share all d + 1 of theirs.
    shared: dict[tuple[int, int], int] = {}
    for own in owners.values():
        for (i, _), (j, _) in itertools.combinations(own, 2):
            shared[i, j] = shared.get((i, j), 0) + 1
    return tuple(sorted(pair for pair, n in shared.items() if n == 1))


def verify(cand: TriangulationCandidate) -> VerifierReport:
    """Run every certification check and report all flags and diagnostics."""
    spec = cand.spec
    classes, signed, diagnostics, members_ok = _check_members(cand)
    total = sum(classes)
    poly = spec.polytope_class
    if total != poly:
        diagnostics.append(f"total class {total} != polytope class {poly}")

    if members_ok:
        owners = _facet_owners(cand)
        facet_diagnostics = _facet_diagnostics(spec, owners, signed)
    else:
        owners = {}
        facet_diagnostics = ["facet check skipped: not all members are nondegenerate full-dimensional"]
    diagnostics += facet_diagnostics
    facets_ok = not facet_diagnostics
    certified = members_ok and total == poly and facets_ok
    adjacency = _adjacency(owners) if certified else ()
    return VerifierReport(
        spec=spec,
        classes=tuple(classes),
        total_class=total,
        polytope_class=poly,
        classes_ok=members_ok,
        facets_ok=facets_ok,
        certified=certified,
        adjacency=adjacency,
        diagnostics=tuple(diagnostics),
    )


def adjacency_graph(cand: TriangulationCandidate) -> tuple[tuple[int, int], ...]:
    """Pairs of simplices sharing exactly d vertices, read from the facet map.

    Identical simplices are not adjacent.  Meaningful for certified
    candidates, where sharing d vertices is the same as meeting face-to-face
    along a common facet.
    """
    return _adjacency(_facet_owners(cand))
