"""The standard triangulation of a simplotope.

Points of Delta^c can be written with c coordinates y_1 >= ... >= y_c in
[0, 1]; doing this in every factor and then fixing a linear order on all the
y coordinates (compatible with the within-factor chains) cuts the simplotope
into simplices, one per ordering.  The simplex of an ordering is spanned by
the 0/1 points obtained by thresholding: all-ones down to all-zeros along
the order.  The number of orderings is the multinomial
(c_1 + ... + c_n)! / (c_1! ... c_n!).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import SimplotopeSpec, VertexPoint, VertexSimplex


def orderings(spec: SimplotopeSpec) -> Iterator[tuple[int, ...]]:
    """Interleavings of the factor labels, c_i copies of label i.

    Within one factor the y coordinates are forced into their chain order, so
    an ordering of all coordinates is exactly a multiset permutation of the
    labels; the k-th occurrence of label i stands for y_k of factor i.
    """
    counts = list(spec.factors)
    n = len(counts)
    total = spec.dim
    seq: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(seq) == total:
            yield tuple(seq)
            return
        for i in range(n):
            if counts[i] > 0:
                counts[i] -= 1
                seq.append(i)
                yield from rec()
                seq.pop()
                counts[i] += 1

    yield from rec()


def simplex_of_ordering(spec: SimplotopeSpec, ordering: Sequence[int],
                        orientation: Sequence[Sequence[int]] | None = None) -> VertexSimplex:
    """The simplex spanned by the prefix-threshold vertices of an ordering.

    The prefix of length m sets the first m coordinates in the order to 1 and
    the rest to 0; within factor i, k ones select the k-th vertex along the
    factor's chain.  `orientation` optionally remaps that chain per factor
    (a permutation of 0..c_i, default identity).
    """
    verts = []
    counts = [0] * len(spec.factors)
    verts.append(_chain_vertex(spec, counts, orientation))
    for label in ordering:
        counts[label] += 1
        verts.append(_chain_vertex(spec, counts, orientation))
    return VertexSimplex(spec, verts)


def _chain_vertex(spec, counts, orientation) -> VertexPoint:
    if orientation is None:
        return VertexPoint(spec, tuple(counts))
    return VertexPoint(spec, tuple(orientation[i][k] for i, k in enumerate(counts)))


def standard_triangulation(spec: SimplotopeSpec,
                           orientation: Sequence[Sequence[int]] | None = None) -> list[VertexSimplex]:
    """All simplices of the standard triangulation; count = spec.polytope_class."""
    return [simplex_of_ordering(spec, o, orientation) for o in orderings(spec)]
