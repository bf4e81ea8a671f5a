"""The triangle-cross-square case: minimal cover and triangulation size 10.

The product of two segments and a triangle has twelve vertices; ordering
them numerically by their lifted rows (`VertexPoint.lifted`: 1, then the
reduced coordinates at the all-zero vertex, which becomes the origin) and
labeling them 1..9, 0, #, * gives the coding used throughout this module.
The linear program gives a lower bound of 9; the refinement to 10 combines
four finite checks (largest class is 2 with an exterior facet forced, every
class-2 simplex holds the center interior to a facet, no three class-2
simplices are pairwise interior-disjoint, and a pair of opposite prism
facets needs six distinct class-1 simplices), and the bound is met by an
explicit ten-simplex triangulation obtained from the standard twelve by two
cone replacements.

The checks scan all 792 five-subsets of the vertices as index tuples, with
one determinant of lifted rows each, and build a `VertexSimplex` only for
the 24 of class 2.  The overlap test solves one small LP per orbit of
class-2 pairs under the product's symmetries: 14 LPs of 11 rows.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .core import (
    SimplotopeSpec,
    VertexPoint,
    VertexSimplex,
    exterior_facet_positions,
    symmetries,
)
from .exact import det
from .fbounds import DEFAULT_VTABLE
from .lptable import solve_cell
from .standard import standard_triangulation
from .verifier import TriangulationCandidate, interiors_overlap, verify

SYMBOLS = "1234567890#*"

TRI_SQUARE = SimplotopeSpec.seg_tri(2, 1)

# the minimal triangulation, by vertex symbols; 1850* and 1358* are the
# fat simplices of class 2
MINIMAL_10 = ("1850*", "1450*", "1456*", "1356*", "1358*",
              "1398*", "1798*", "1708*", "#850*", "13582")

# symbol -> vertex, in numeric order of the lifted rows
VERTEX_CODE = MappingProxyType(dict(zip(SYMBOLS, sorted(TRI_SQUARE.vertices(), key=VertexPoint.lifted))))

# reduced coordinates of the center: (1/2; 1/2; 1/3, 1/3)
CENTER_REDUCED = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(1, 3))


def decode(word: str) -> VertexSimplex:
    """The simplex on the symbols of word."""
    return VertexSimplex(TRI_SQUARE, [VERTEX_CODE[ch] for ch in word])


def center_in_facet(x: VertexSimplex) -> tuple[Fraction, ...]:
    """Barycentric coefficients of the center in a class-2 simplex.

    Solves the exact convex-combination system A . coeffs = (1; center), A
    the transpose of the vertices' lifted rows, by Cramer's rule: with the
    rhs scaled by the lcm of its denominators (6) to integers, coefficient i
    is det(A with column i replaced by the rhs) / (6 det A).  |det A| is the
    class, so a simplex of another class is refused.  Exactly one
    coefficient is zero and the rest are positive, so the center is
    interior to a facet.
    """
    system = [list(column) for column in zip(*(v.lifted() for v in x.vertices))]
    n = len(x.vertices)
    d = det(system)
    if abs(d) != 2:
        raise ValueError("the center-in-facet property is about class-2 simplices")
    scale = math.lcm(*(c.denominator for c in CENTER_REDUCED))
    rhs = [scale] + [int(c * scale) for c in CENTER_REDUCED]
    coeffs = [Fraction(det([line[:i] + [r] + line[i + 1:] for line, r in zip(system, rhs)]), scale * d)
              for i in range(n)]
    zeros = sum(1 for a in coeffs if a == 0)
    if zeros != 1 or any(a < 0 for a in coeffs):
        raise ValueError(f"center not interior to a facet: coefficients {coeffs}")
    return tuple(coeffs)


def minimal_triangulation_10() -> TriangulationCandidate:
    """The minimal ten-simplex triangulation, decoded from its symbols."""
    return TriangulationCandidate(TRI_SQUARE, tuple(map(decode, MINIMAL_10)))


# --- the 12 -> 11 -> 10 construction ---------------------------------------
#
# Stage one removes the six standard simplices that triangulate the cone,
# with apex *, over the cube spanned by {1,2,4,5,7,8,0,#} (the standard
# triangulation of that cube around its diagonal) and replaces them with the
# cone over the cube's five-simplex triangulation (central tetrahedron 1058
# plus four corners).  Stage two removes the five simplices coning, from
# vertex 1, the cube {2,3,5,6,8,9,#,*} with its corner at # cut off, and
# replaces them with the cone over a four-tetrahedron triangulation of that
# cut cube.  Both replacements keep all facets on the cone boundaries
# unchanged, so each stage stays a triangulation.

CONE_CUBE_APEX = "*"
CONE_CUBE = "1245780#"
CUBE_FIVE = ("1058", "2158", "7108", "4105", "#058")
CONE_CUT_APEX = "1"
CONE_CUT = "235689*"
CUT_FOUR = ("356*", "358*", "398*", "3582")


def standard_12() -> TriangulationCandidate:
    """The standard triangulation, oriented so each simplex contains 1 and *.

    The triangle factor's positions are relabeled through (0, 2, 1), so its
    vertex chain runs 1-block, 2-block, *-block.
    """
    relabel = (0, 2, 1)
    sims = [VertexSimplex(TRI_SQUARE, [VertexPoint(TRI_SQUARE, (a, b, relabel[c]))
                                      for a, b, c in (v.idx for v in x.vertices)])
            for x in standard_triangulation(TRI_SQUARE)]
    return TriangulationCandidate(TRI_SQUARE, tuple(sims))


def _replace(cand: TriangulationCandidate, region: str, apex: str,
             new_bases: tuple[str, ...]) -> tuple[TriangulationCandidate, int]:
    """Swap the subcomplex inside cone(apex, region) for cones over new_bases."""
    allowed = {VERTEX_CODE[ch] for ch in region + apex}
    keep = []
    removed = 0
    for x in cand.simplices:
        if x.vertex_set <= allowed:
            removed += 1
        else:
            keep.append(x)
    added = tuple(decode(base + apex) for base in new_bases)
    return TriangulationCandidate(cand.spec, tuple(keep) + added), removed


def construction_stages() -> tuple[TriangulationCandidate, TriangulationCandidate, TriangulationCandidate]:
    """The 12-, 11- and 10-simplex stages of the cone-replacement construction."""
    t12 = standard_12()
    t11, removed = _replace(t12, CONE_CUBE, CONE_CUBE_APEX, CUBE_FIVE)
    if removed != 6:
        raise RuntimeError(f"expected 6 simplices in the cube cone, found {removed}")
    t10, removed = _replace(t11, CONE_CUT, CONE_CUT_APEX, CUT_FOUR)
    if removed != 5:
        raise RuntimeError(f"expected 5 simplices in the cut-cube cone, found {removed}")
    return t12, t11, t10


# --- the lower-bound argument ------------------------------------------------

class Ingredient(NamedTuple):
    name: str
    ok: bool
    detail: str


class CaseReport(NamedTuple):
    ingredients: tuple[Ingredient, ...]
    lower_bound: int
    achieved_by: int

    @property
    def ok(self) -> bool:
        return all(i.ok for i in self.ingredients)


def overlap_matrix(simplices: list[VertexSimplex]) -> list[list[bool]]:
    """Which pairs of the tri-square simplices have overlapping interiors.

    One exact `interiors_overlap` LP is solved per orbit of pairs under the
    product's 48 symmetries, `core.symmetries(TRI_SQUARE)`; the verdict is
    copied to every image pair (g.a, g.b) that is in the list.  That copy is
    exact: g is a linear automorphism of the polytope, so int(g.a) and
    int(g.b) meet in g(int a & int b), which is empty exactly when
    int a & int b is.  A pair that no earlier verdict reached gets its own
    LP, so any list of tri-square simplices is handled, closed under the
    symmetries or not.
    """
    n = len(simplices)
    position = {v: k for k, v in enumerate(TRI_SQUARE.vertices())}
    keys = [frozenset(position[v] for v in x.vertices) for x in simplices]
    index = {key: i for i, key in enumerate(keys)}
    images = [[index.get(frozenset(map(g.__getitem__, key))) for key in keys] for g in symmetries(TRI_SQUARE)]
    m: list[list[bool | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = True
        for j in range(i + 1, n):
            if m[i][j] is not None:
                continue
            m[i][j] = m[j][i] = verdict = interiors_overlap(simplices[i], simplices[j])
            for image in images:
                gi, gj = image[i], image[j]
                if gi is not None and gj is not None:
                    m[gi][gj] = m[gj][gi] = verdict
    return m


def nondegenerate_subsets() -> list[tuple[tuple[int, ...], int]]:
    """Every nondegenerate 5-subset of the vertices, with its class.

    A subset is a sorted tuple of indices into `TRI_SQUARE.vertices()`, in
    `itertools.combinations` order over all 792; its class is |det| of the
    vertices' lifted reduced coordinates (1, reduced), computed once.
    """
    lifted = [v.lifted() for v in TRI_SQUARE.vertices()]
    out = []
    for sub in itertools.combinations(range(len(lifted)), TRI_SQUARE.dim + 1):
        cls = abs(det([lifted[i] for i in sub]))
        if cls:
            out.append((sub, cls))
    return out


def lower_bound_10_argument() -> CaseReport:
    """Machine-check every ingredient of the size-10 lower bound."""
    ingredients = []

    cell = solve_cell(2, 1)
    ingredients.append(Ingredient(
        "lp-bound-9", cell.lower_bound == 9,
        f"linear program gives {cell.lp_value}, bound {cell.lower_bound}"))

    verts = TRI_SQUARE.vertices()
    nondeg = nondegenerate_subsets()
    # spots[n] is empty exactly when simplex n has no exterior facet
    spots = [exterior_facet_positions(verts[i].idx for i in sub) for sub, _ in nondeg]
    facet_ok = all(spots)
    max_class = max(cls for _, cls in nondeg)
    ingredients.append(Ingredient(
        "exterior-facet-and-class-2", facet_ok and max_class == 2,
        f"{len(nondeg)} nondegenerate simplices, all with exterior facets; max class {max_class}"))

    fat = [VertexSimplex(TRI_SQUARE, [verts[i] for i in sub]) for sub, cls in nondeg if cls == 2]
    count_ok = len(fat) == 24
    expected = sorted([Fraction(0), Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3)])
    centers_ok = all(sorted(center_in_facet(x)) == expected for x in fat)
    ingredients.append(Ingredient(
        "center-in-facet", count_ok and centers_ok,
        f"{len(fat)} class-2 simplices, center coefficients {{0, 1/6, 1/6, 1/3, 1/3}}"))

    m = overlap_matrix(fat)
    bad_triples = 0
    for i, j, k in itertools.combinations(range(len(fat)), 3):
        if not (m[i][j] or m[i][k] or m[j][k]):
            bad_triples += 1
    ingredients.append(Ingredient(
        "no-three-disjoint-fat", bad_triples == 0,
        f"{bad_triples} of {len(fat) * (len(fat) - 1) * (len(fat) - 2) // 6} triples pairwise disjoint"))

    parallel_violations = 0
    for x_spots in spots:
        for i, c in enumerate(TRI_SQUARE.factors):
            if c == 1 and (i, 0) in x_spots and (i, 1) in x_spots:
                parallel_violations += 1
    # each prism facet has class 3 and holds only class-1 tetrahedra, so a
    # pair of opposite prisms forces 2 * 3 distinct class-1 cover members
    prism_class = SimplotopeSpec.seg_tri(1, 1).polytope_class
    per_pair = 2 * -(-prism_class // DEFAULT_VTABLE.get(1, 1).value)
    ingredients.append(Ingredient(
        "opposite-prisms-need-six", parallel_violations == 0 and per_pair == 6,
        "no simplex has exterior facets in opposite prism facets; "
        f"each pair of opposite prisms needs {per_pair} distinct class-1 simplices"))

    report10 = verify(minimal_triangulation_10())
    ingredients.append(Ingredient(
        "ten-simplices-suffice", report10.certified and sorted(report10.classes) == [1] * 8 + [2, 2],
        f"explicit triangulation certified: {report10.certified}, classes {sorted(report10.classes)}"))

    # A cover of size 9 would need at least three class-2 simplices (two give
    # total class at most 2*2 + 7 = 11 < 12) and at least six class-1 ones,
    # so exactly 3 + 6 with total class 12: an interior-disjoint partition
    # with three pairwise-disjoint class-2 simplices, which is impossible.
    ok = all(i.ok for i in ingredients)
    return CaseReport(tuple(ingredients), 10 if ok else 9, len(MINIMAL_10))
