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
    """Interleavings of the factor labels, c_i copies of label i, in
    lexicographic order.

    Within one factor the y coordinates are forced into their chain order, so
    an ordering of all coordinates is exactly a multiset permutation of the
    labels; the k-th occurrence of label i stands for y_k of factor i.  They
    are stepped through by the next-permutation rule, from the sorted labels
    on: find the last ascent k, swap seq[k] with the last entry above it and
    reverse the tail after k.
    """
    seq = [i for i, c in enumerate(spec.factors) for _ in range(c)]
    while True:
        yield tuple(seq)
        k = len(seq) - 2
        while k >= 0 and seq[k] >= seq[k + 1]:
            k -= 1
        if k < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[k]:
            j -= 1
        seq[k], seq[j] = seq[j], seq[k]
        seq[k + 1:] = reversed(seq[k + 1:])


def simplex_of_ordering(spec: SimplotopeSpec, ordering: Sequence[int]) -> VertexSimplex:
    """The simplex spanned by the prefix-threshold vertices of an ordering.

    The prefix of length m sets the first m coordinates in the order to 1 and
    the rest to 0; within factor i, k ones select the k-th vertex along the
    factor's chain.
    """
    counts = [0] * len(spec.factors)
    verts = [VertexPoint(spec, tuple(counts))]
    for label in ordering:
        counts[label] += 1
        verts.append(VertexPoint(spec, tuple(counts)))
    return VertexSimplex(spec, verts)


def standard_triangulation(spec: SimplotopeSpec) -> list[VertexSimplex]:
    """All simplices of the standard triangulation; count = spec.polytope_class."""
    return [simplex_of_ordering(spec, o) for o in orderings(spec)]
