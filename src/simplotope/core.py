"""Products of simplices: coordinates, vertices, faces, and vertex simplices.

A point of the product Delta^{c_1} x ... x Delta^{c_n} is stored in standard
coordinates as one barycentric block per factor (block i has c_i + 1 entries
summing to 1).  Vertices are the 0/1 points, encoded compactly by the index
of the 1 in each block.  Reduced coordinates drop one entry per block, the
one where a chosen pivot vertex is 1; nothing is lost because each block sums
to 1.  A vertex's lifted row is 1 followed by its reduced coordinates at the
all-zero vertex: the row it contributes to every determinant of a class,
an orientation or an overlap system.

The class of a full-dimensional vertex simplex is the absolute determinant of
its reduced coordinate matrix augmented with a column of ones (an integer:
the simplex volume times d!).  Faces are identified by their set of
always-zero coordinates, which makes the minimal face of a vertex set a
plain set computation.  The (factor, position) spots a vertex uses are a
mask over the standard coordinates, and the spots of a simplex's exterior
facets, those exactly one of its vertices uses, are once & ~twice over its
vertices' masks.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Sequence

from .exact import det
from .record import Record

# The most digits an integer read from an input file may have: CPython's
# default int-string limit.  The command line lifts that limit so that exact
# answers print in full, and str-to-int conversion takes time quadratic in
# the digits, so the files' parsers refuse longer integers before converting.
MAX_INT_DIGITS = 4300

# The largest simplotope dimension a file or command may ask for.  A
# triangulation of dimension d lists d + 1 vertices of at least d entries per
# simplex, so any file that could be certified is far below it; the bound
# only stops a huge dimension (say an empty triangulation of a 10**30-simplex,
# or a face count of 2^(10**7)) from reaching the arithmetic.
MAX_DIMENSION = 10_000


class SimplotopeSpec(Record):
    """Factor dimensions (c_1, ..., c_n) of a product of simplices."""

    __slots__ = ("factors",)
    factors: tuple[int, ...]

    def __init__(self, factors: tuple[int, ...]):
        if len(factors) == 0:
            raise ValueError("a simplotope needs at least one factor")
        if any(c < 1 for c in factors):
            raise ValueError("factor dimensions must be positive")
        object.__setattr__(self, "factors", factors)

    @staticmethod
    def seg_tri(s: int, t: int) -> "SimplotopeSpec":
        """The product of s segments followed by t triangles."""
        if s < 0 or t < 0 or s + t == 0:
            raise ValueError("need s, t >= 0 with at least one factor")
        return SimplotopeSpec((1,) * s + (2,) * t)

    @property
    def dim(self) -> int:
        return sum(self.factors)

    @property
    def polytope_class(self) -> int:
        """dim! times the volume: the multinomial (sum c_i)! / prod c_i!."""
        v = math.factorial(self.dim)
        for c in self.factors:
            v //= math.factorial(c)
        return v

    def vertex(self, idx: Sequence[int]) -> "VertexPoint":
        return VertexPoint(self, tuple(idx))

    def vertices(self) -> list["VertexPoint"]:
        """All vertices, in lexicographic order of their per-factor indices."""
        ranges = [range(c + 1) for c in self.factors]
        return [VertexPoint(self, idx) for idx in itertools.product(*ranges)]


class VertexPoint(Record):
    """A simplotope vertex: per factor, the position of its single 1."""

    __slots__ = ("spec", "idx")
    spec: SimplotopeSpec
    idx: tuple[int, ...]

    def __init__(self, spec: SimplotopeSpec, idx: tuple[int, ...]):
        if len(idx) != len(spec.factors):
            raise ValueError("vertex index count does not match factor count")
        for j, c in zip(idx, spec.factors):
            if not 0 <= j <= c:
                raise ValueError("vertex index out of range for its factor")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "idx", idx)

    def standard(self) -> tuple[int, ...]:
        out = []
        for j, c in zip(self.idx, self.spec.factors):
            block = [0] * (c + 1)
            block[j] = 1
            out.extend(block)
        return tuple(out)

    def reduced(self, pivot: "VertexPoint") -> tuple[int, ...]:
        """Drop, in each factor, the coordinate where the pivot is 1."""
        if pivot.spec != self.spec:
            raise ValueError("pivot comes from a different simplotope")
        out = []
        for i, c in enumerate(self.spec.factors):
            p = pivot.idx[i]
            v = self.idx[i]
            for j in range(c + 1):
                if j != p:
                    out.append(1 if v == j else 0)
        return tuple(out)

    def lifted(self) -> tuple[int, ...]:
        """(1,) + the reduced coordinates at the all-zero vertex."""
        out = [1]
        for j, c in zip(self.idx, self.spec.factors):
            out.extend(1 if j == k else 0 for k in range(1, c + 1))
        return tuple(out)


def symmetries(spec: SimplotopeSpec, fixing_vertex_0: bool = False) -> list[tuple[int, ...]]:
    """The product's automorphisms as permutations of `spec.vertices()` indices.

    The group is the direct product of the position permutations inside each
    factor and the permutations of equal-size factors: prod (c_i + 1)! times
    prod m_k! elements, m_k the number of factors of size k.  With
    fixing_vertex_0, only the position permutations that keep position 0
    enter, which gives the stabilizer of vertex 0 (prod c_i! times prod m_k!
    elements).  Every element permutes standard coordinates, so it is a
    linear automorphism of the polytope and preserves classes and faces.
    The identity comes first.
    """
    verts = [v.idx for v in spec.vertices()]
    index = {idx: i for i, idx in enumerate(verts)}
    n = len(spec.factors)
    if fixing_vertex_0:
        moves = [[(0,) + p for p in itertools.permutations(range(1, c + 1))] for c in spec.factors]
    else:
        moves = [list(itertools.permutations(range(c + 1))) for c in spec.factors]
    # factor i of an image takes its position from factor order[i], of equal size
    orders = [order for order in itertools.permutations(range(n))
              if all(spec.factors[i] == spec.factors[j] for i, j in enumerate(order))]
    return [tuple(index[tuple(move[i][v[j]] for i, j in enumerate(order))] for v in verts)
            for order in orders for move in itertools.product(*moves)]


class FaceId(Record):
    """A face, identified by the coordinate positions it fixes at zero."""

    __slots__ = ("spec", "zeros")
    spec: SimplotopeSpec
    zeros: frozenset[tuple[int, int]]

    def __init__(self, spec: SimplotopeSpec, zeros: frozenset[tuple[int, int]]):
        counts: dict[int, int] = {}
        for i, j in zeros:
            c = spec.factors[i]
            if not 0 <= j <= c:
                raise ValueError("zero position out of range")
            counts[i] = counts.get(i, 0) + 1
        if any(counts.get(i, 0) > c for i, c in enumerate(spec.factors)):
            raise ValueError("a face cannot fix a whole factor block at zero")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "zeros", zeros)

    @property
    def dim(self) -> int:
        return self.spec.dim - len(self.zeros)


def minimal_face(points: Sequence[VertexPoint]) -> FaceId:
    """The smallest face containing all points: their common zero coordinates."""
    if not points:
        raise ValueError("minimal_face needs at least one point")
    spec = points[0].spec
    if any(p.spec != spec for p in points):
        raise ValueError("points come from different simplotopes")
    zeros = set()
    for i, c in enumerate(spec.factors):
        used = {p.idx[i] for p in points}
        zeros.update((i, j) for j in range(c + 1) if j not in used)
    return FaceId(spec, frozenset(zeros))


class VertexSimplex:
    """An ordered set of distinct simplotope vertices spanning a simplex."""

    def __init__(self, spec: SimplotopeSpec, vertices: Iterable[VertexPoint]):
        vs = tuple(vertices)
        if any(v.spec != spec for v in vs):
            raise ValueError("vertices come from a different simplotope")
        if len(set(vs)) != len(vs):
            raise ValueError("vertices must be distinct")
        if not 1 <= len(vs) <= spec.dim + 1:
            raise ValueError("a simplex has between 1 and dim+1 vertices")
        self.spec = spec
        self.vertices = vs

    def __eq__(self, other):
        return isinstance(other, VertexSimplex) and self.vertex_set == other.vertex_set

    def __hash__(self):
        return hash(self.vertex_set)

    def __repr__(self):
        return f"VertexSimplex({[v.idx for v in self.vertices]})"

    @cached_property
    def vertex_set(self) -> frozenset[VertexPoint]:
        return frozenset(self.vertices)

    @cached_property
    def cls(self) -> int:
        """Normalized volume; only full-dimensional simplices carry a class."""
        return class_of(self, self.vertices[0])


def class_of(x: VertexSimplex, pivot: VertexPoint) -> int:
    """|det [1 | reduced matrix]| of a full-dimensional vertex simplex.

    The value does not depend on the pivot used for the reduction.
    """
    d = x.spec.dim
    if len(x.vertices) != d + 1:
        raise ValueError(f"need {d + 1} vertices for a full-dimensional simplex")
    rows = [(1,) + v.reduced(pivot) for v in x.vertices]
    return abs(det(rows))


def spot_mask(v: VertexPoint) -> int:
    """The (factor, position) spots vertex v uses, as a mask: spot (i, j) is
    bit j + sum of (c_k + 1) over k < i, the index of its standard coordinate."""
    return sum(1 << k for k, x in enumerate(v.standard()) if x)


def exterior_spots(masks: Iterable[int]) -> int:
    """The spots of the simplotope facets that hold a facet of a simplex, as a mask.

    The simplex is given by its vertices' `spot_mask`s, and the caller has
    found it nondegenerate.  A nondegenerate simplex uses every position of
    every factor (otherwise all its vertices share a zero coordinate and it
    lies in a facet).  So its facet without vertex v misses position j of
    factor i, and lies in the simplotope facet (i, j), exactly when v is its
    only vertex at that position: the spots are those that exactly one
    vertex uses, once & ~twice.
    """
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    return once & ~twice


def has_exterior_facet(x: VertexSimplex) -> bool:
    """True when some d of the d+1 vertices lie in a facet of the simplotope."""
    if x.cls == 0:
        raise ValueError("exterior facets are only defined for nondegenerate simplices")
    return bool(exterior_spots(map(spot_mask, x.vertices)))
