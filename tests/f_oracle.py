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
exterior-face counts of one simplex of every orbit, which F must bound, and
``faces_over_f`` compares the two.  ``leaves_by_stem`` expands the stems of
the orderly V search into that simplex of every orbit.
"""

import functools
import itertools
import math
from collections import Counter

from simplotope.core import SimplotopeSpec
from simplotope.exact import det
from simplotope.fbounds import VMaxUnavailable, VTable, f_bound


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


def leaves_by_stem(spec, stems):
    """The leaves of the orderly V search, one list per stem.

    `stems` are `fbounds._orderly_stems(spec)`: (prefix R, alpha, beta, p,
    start).  Below R lie the leaves R + (u, v) for start <= u < v, with u
    independent of R (alpha(u) or beta(u) nonzero) and a nonzero class
    |alpha(u) beta(v) - beta(u) alpha(v)| / |p|.  A leaf is (the vertex
    indices other than vertex 0, class).  The segment has no stems; its one
    leaf is vertex 1, of class 1.
    """
    if spec.dim == 1:
        yield [((1,), 1)]
        return
    verts = spec.vertices()
    vecs = [v.reduced(verts[0]) for v in verts]
    for prefix, alpha, beta, p, start in stems:
        a_of = [sum(x * y for x, y in zip(alpha, vec)) for vec in vecs]
        b_of = [sum(x * y for x, y in zip(beta, vec)) for vec in vecs]
        leaves = []
        for u in range(start, len(vecs)):
            a, b = a_of[u], b_of[u]
            if not (a or b):
                continue
            for v in range(u + 1, len(vecs)):
                cls, r = divmod(abs(a * b_of[v] - b * a_of[v]), abs(p))
                if r:
                    raise ArithmeticError(f"class division by {p} is not exact")
                if cls:
                    leaves.append(((*prefix, u, v), cls))
        yield leaves


def orbit_face_counts(spec, stems):
    """Exterior-face counts of the simplices on vertex 0 and a leaf below `stems`.

    With the stems of the orderly V search, `fbounds._orderly_stems(spec)`,
    the leaves (`leaves_by_stem`) hold one simplex of every symmetry orbit.
    Every nondegenerate simplex is a symmetry image of one that holds
    vertex 0 (the group is vertex transitive), and every such simplex is a
    leaf's image under the symmetries fixing vertex 0, which preserve face
    shapes and classes.  Yields (vertex indices, class, Counter of (s', t',
    face class)).

    A vertex is the bitmask of its 1s in standard coordinates, so the OR of
    a vertex subset U marks the coordinates its minimal face keeps free in
    each factor.  That face has dimension popcount(OR) minus the number of
    factors, and U is exterior when that is |U| - 1.  The face's shape comes
    from the per-factor popcounts (2: a segment, 3: a triangle); its class is
    |det| of U's reduced coordinates inside the face, cached by subset.  A
    leaf is R + (u, v) below its stem R.  Subsets of 0 and R recur in the
    next stems, so they are kept while they lie in the current stem; the
    subsets with one of u and v are reused by the stem's other leaves and
    dropped at the next stem; a subset with both belongs to one leaf and is
    not cached.  The cache therefore holds one stem's subsets at most,
    however many leaves there are.
    """
    verts = spec.vertices()
    offsets = list(itertools.accumulate((c + 1 for c in spec.factors), initial=0))
    masks = [sum(1 << (offsets[i] + j) for i, j in enumerate(v.idx)) for v in verts]
    blocks = [((1 << (c + 1)) - 1) << offsets[i] for i, c in enumerate(spec.factors)]
    n_factors = len(spec.factors)
    shapes = {}  # OR of a subset -> its face's (s', t')
    # vertex indices of an exterior subset -> its face class: in `kept` for
    # subsets of 0 and the stem, in `below` for those with one of u and v
    kept, below = {}, {}

    def shape(m):
        if m not in shapes:
            sizes = Counter((m & b).bit_count() for b in blocks)
            shapes[m] = (sizes[2], sizes[3])
        return shapes[m]

    def face_class(sub, m):
        # reduced coordinates at sub[0]: the free bits of the face, less the
        # one that sub[0] sets in each factor
        free = [bit for bit in range(m.bit_length())
                if m >> bit & 1 and not masks[sub[0]] >> bit & 1]
        return abs(det([[masks[u] >> bit & 1 for bit in free] for u in sub[1:]]))

    for leaves in leaves_by_stem(spec, stems):
        stem = {0, *leaves[0][0][:-2]} if leaves else set()
        kept = {sub: c for sub, c in kept.items() if stem.issuperset(sub)}
        below.clear()
        for leaf, cls in leaves:
            simplex = (0, *leaf)
            caches = {0: kept, 1: below, 2: below}  # by which of u and v a subset holds
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
                    sub = tuple(v for k, v in enumerate(simplex) if subset >> k & 1)
                    cache = caches.get(subset >> (len(simplex) - 2), {})
                    cp = cache.get(sub)
                    if cp is None:
                        cp = cache[sub] = face_class(sub, m)
                counts[(*shape(m), cp)] += 1
            yield simplex, cls, counts


def faces_over_f(s, t, stems):
    """The most exterior faces of each (c, s', t', c') that one simplex of
    every orbit below `stems` has, wherever it exceeds F(s, t, c, s', t', c').
    """
    most = Counter()
    for _, c, counts in orbit_face_counts(SimplotopeSpec.seg_tri(s, t), stems):
        for (sp, tp, cp), n in counts.items():
            most[(c, sp, tp, cp)] = max(most[(c, sp, tp, cp)], n)
    return {key: n for key, n in most.items() if n > f_bound(s, t, *key)}
