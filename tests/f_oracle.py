"""Reference F oracle: the bound written out as a plain recursion.

A direct transcription of the zero conventions, the combinatorial bound and
the footprint/shadow recurrence of ``simplotope.fbounds``, memoized with
``functools.cache`` and nothing else: no shared memo, no counters, no
precomputed divisors, no pruning.  V values come in as a function.  It is
kept only for the tests to compare the evaluator against.

``f.reached`` maps every key the recursion got past the zero conventions and
base cases to its value: the key set an evaluator that memoizes without
pruning would hold.  ``oracle_over_cells`` runs the oracle over the cells of
a bounds table, with V read from a VTable.

``orbit_face_counts`` is the other side of the soundness check: the exact
exterior-face counts of one simplex of every orbit, which F must bound.
"""

import functools
import itertools
import math
from collections import Counter

from simplotope.exact import det
from simplotope.fbounds import VMaxUnavailable, VTable


def binom(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def comb_bound(s, t, sp, tp):
    if sp + 2 * tp >= 2:
        return binom(t, tp) * sum(binom(s, q) * binom(t - tp, sp - q) * 2 ** (sp - q)
                                  for q in range(min(s, sp) + 1))
    if (sp, tp) == (1, 0):
        return s + 3 * t
    return s + 2 * t + 1


def make_f(v):
    """F(s, t, c, s', t', c') as the recurrence uses it, for V given by v(s, t)."""
    reached = {}

    @functools.cache
    def f(s, t, c, sp, tp, cp):
        if min(s, t, sp, tp) < 0 or c < 1 or cp < 1:
            return 0
        if sp + 2 * tp > s + 2 * t or c % cp != 0:
            return 0
        if c > v(s, t) or cp > v(sp, tp):
            return 0
        if (sp, tp) == (s, t):
            return 1 if cp == c else 0
        if (sp, tp) == (0, 0):
            return s + 2 * t + 1 if cp == 1 else 0  # every vertex, class 1
        value = min(comb_bound(s, t, sp, tp), recurrence(s, t, c, sp, tp, cp))
        reached[(s, t, c, sp, tp, cp)] = value
        return value

    def shadow(s, t, c, x, y, k):
        # the shadow of the whole of sigma is a single point, of class 1
        if (x, y) == (0, 0):
            return 1 if k == 1 and c <= v(s, t) else 0
        return f(s, t, c, x, y, k)

    def recurrence(s, t, c, sp, tp, cp):
        best = 0
        for e in range(max(0, s - sp), min(s + t - sp - tp, s) + 1):
            total = 0
            for w in range(min(sp - s + e, tp) + 1):
                for k in range(1, cp + 1):
                    if cp % k != 0:
                        continue
                    for j in range(tp + 1):
                        for i in range(w, min(sp + tp - j, sp + w) + 1):
                            total += (f(sp, tp, cp, i, j, k)
                                      * shadow(sp - s + 2 * e, s + t - sp - tp - e, c // cp,
                                               sp - i + 2 * w, tp - j - w, cp // k))
            best = max(best, total)
        return best

    f.reached = reached
    return f


def oracle_over_cells(caps, dim):
    """The oracle at every LP coefficient of the cells through `dim`, walked
    class by class as build_lp walks them, and the V pairs it asked for.

    A cell with an unavailable V value stops at the first such pair."""
    ref = VTable(caps)
    asked = set()

    def v(s, t):
        asked.add((s, t))
        return ref.get(s, t).value

    oracle = make_f(v)
    for t in range(dim // 2 + 1):
        for s in range(dim - 2 * t + 1):
            if (s, t) == (0, 0):
                continue
            try:
                for c in range(1, v(s, t) + 1):
                    for tp in range(t + 1):
                        for sp in range(s + t - tp + 1):
                            if (sp, tp) != (0, 0):
                                oracle(s, t, c, sp, tp, c)
            except VMaxUnavailable:
                pass
    return oracle, asked


def orbit_face_counts(spec, leaves):
    """Exterior-face counts of the simplices on vertex 0 and `leaves`.

    `leaves` holds (the other vertex indices, class) pairs; with the leaves
    of the orderly V search, `fbounds._orderly_leaves(spec)`, that is one
    simplex of every symmetry orbit.  Every nondegenerate simplex is a
    symmetry image of one that holds vertex 0 (the group is vertex
    transitive), and every such simplex is a leaf's image under the
    symmetries fixing vertex 0, which preserve face shapes and classes.
    Yields (vertex indices, class, Counter of (s', t', face class)).

    A vertex is the bitmask of its 1s in standard coordinates, so the OR of
    a vertex subset U marks the coordinates its minimal face keeps free in
    each factor.  That face has dimension popcount(OR) minus the number of
    factors, and U is exterior when that is |U| - 1.  The face's shape comes
    from the per-factor popcounts (2: a segment, 3: a triangle); its class is
    |det| of U's reduced coordinates inside the face, cached by subset.
    """
    verts = spec.vertices()
    offsets = list(itertools.accumulate((c + 1 for c in spec.factors), initial=0))
    masks = [sum(1 << (offsets[i] + j) for i, j in enumerate(v.idx)) for v in verts]
    blocks = [((1 << (c + 1)) - 1) << offsets[i] for i, c in enumerate(spec.factors)]
    n_factors = len(spec.factors)
    shapes = {}   # OR of a subset -> its face's (s', t')
    classes = {}  # vertex indices of an exterior subset -> its face class

    def shape(m):
        if m not in shapes:
            sizes = Counter((m & b).bit_count() for b in blocks)
            shapes[m] = (sizes[2], sizes[3])
        return shapes[m]

    def face_class(sub, m):
        if sub not in classes:
            # reduced coordinates at sub[0]: the free bits of the face, less
            # the one that sub[0] sets in each factor
            free = [bit for bit in range(m.bit_length())
                    if m >> bit & 1 and not masks[sub[0]] >> bit & 1]
            classes[sub] = abs(det([[masks[u] >> bit & 1 for bit in free] for u in sub[1:]]))
        return classes[sub]

    for leaf, cls in leaves:
        simplex = (0, *leaf)
        counts = Counter()
        ors = [0] * (1 << len(simplex))  # ors[S]: OR of the vertices in the bit set S
        for subset in range(1, len(ors)):
            low = subset & -subset
            m = ors[subset] = ors[subset ^ low] | masks[simplex[low.bit_length() - 1]]
            size = subset.bit_count()
            if m.bit_count() - n_factors != size - 1:
                continue
            if size <= 2:
                cp = 1
            elif size == len(simplex):
                cp = cls
            else:
                cp = face_class(tuple(v for k, v in enumerate(simplex) if subset >> k & 1), m)
            counts[(*shape(m), cp)] += 1
        yield simplex, cls, counts
