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

``orderly_stems_by_mask_lists`` is the orderly V search's stem generator as
it was before its elimination walk and canonicity test were shared and
packed: one image mask per stabilizer element in a list, a prefix cut when
their maximum exceeds its own mask, and the elimination inline.

``climb_to_f_violation`` reaches the products that no exhaustive check
does: a hill-climb over simplices, by one-vertex swaps, towards more
exterior faces of some kind than F allows.  It and ``orbit_face_counts``
count the exterior faces of each simplex with ``FaceCounter``.
"""

import functools
import itertools
import math
import operator
import random
from collections import Counter

from simplotope.core import SimplotopeSpec, symmetries
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


def make_f(v, zero_faces=lambda s, t: s + 2 * t + 1):
    """F(s, t, c, s', t', c') as the recurrence uses it, for V given by v(s, t).

    zero_faces(s, t) is F on the 0-face shape, class 1: every vertex.  The
    tests hand it the rule F had before its mend, the footprint factor 1,
    to show that `climb_to_f_violation` finds the undercount it caused.
    """
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
            return zero_faces(s, t) if cp == 1 else 0
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


def orderly_stems_by_mask_lists(spec):
    """(prefix, alpha, beta, p, start) for each canonical, independent prefix
    of d - 2 vertices other than vertex 0, as `fbounds._orderly_stems`
    yields them (see the `fbounds` docstring), with canonicity tested on a
    list of image masks per prefix.  Needs d >= 2."""
    d = spec.dim
    verts = spec.vertices()
    n = len(verts)
    vecs = [v.reduced(verts[0]) for v in verts]
    others = symmetries(spec, fixing_vertex_0=True)[1:]
    # a vertex set is a mask with vertex v at bit n - 1 - v; images[v] holds
    # the bit of g(v) for every g in others
    images = [[1 << (n - 1 - g[v]) for g in others] for v in range(n)]
    chosen = []
    rows, cols, pivots = [[]] * d, [0] * d, [1] * (d + 1)

    def push(level, vec):
        v = list(vec)
        for j in range(level):
            row, c, p, prev = rows[j], cols[j], pivots[j + 1], pivots[j]
            m = v[c]
            if m or p != prev:
                v = [(p * x - m * y) // prev for x, y in zip(v, row)]
        for c, x in enumerate(v):
            if x:
                rows[level], cols[level], pivots[level + 1] = v, c, x
                return True
        return False

    def cofactor(k, free):
        phi = [0] * d
        phi[free] = pivots[k]
        for j in range(k - 1, -1, -1):
            q, r = divmod(-sum(map(operator.mul, rows[j], phi)), pivots[j + 1])
            if r:
                raise ArithmeticError(f"cofactor division by {pivots[j + 1]} is not exact")
            phi[cols[j]] = q
        return phi

    def search(level, start, mask, seen):
        if level == d - 2:
            f1, f2 = sorted(set(range(d)).difference(cols[:level]))
            yield tuple(chosen), cofactor(level, f1), cofactor(level, f2), pivots[level], start
            return
        for v in range(start, n):
            grown = mask | 1 << (n - 1 - v)
            grown_seen = list(map(operator.or_, seen, images[v]))
            if max(grown_seen, default=0) <= grown and push(level, vecs[v]):
                chosen.append(v)
                yield from search(level + 1, v + 1, grown, grown_seen)
                chosen.pop()

    return search(0, 1, 0, [0] * len(others))


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


class FaceCounter:
    """Exterior-face counts of the vertex simplices of one product.

    A vertex is the bitmask of its 1s in standard coordinates, so the OR of
    a vertex subset U marks the coordinates its minimal face keeps free in
    each factor.  That face has dimension popcount(OR) minus the number of
    factors, and U is exterior when that is |U| - 1.  The face's shape comes
    from the per-factor popcounts (2: a segment, 3: a triangle); its class is
    |det| of U's reduced coordinates inside the face.  A simplex is a tuple
    of indices into `spec.vertices()`.
    """

    def __init__(self, spec):
        offsets = list(itertools.accumulate((c + 1 for c in spec.factors), initial=0))
        self.masks = [sum(1 << (offsets[i] + j) for i, j in enumerate(v.idx))
                      for v in spec.vertices()]
        self.blocks = [((1 << (c + 1)) - 1) << offsets[i] for i, c in enumerate(spec.factors)]
        self.n_factors = len(spec.factors)
        self.shapes = {}  # OR of a subset -> its face's (s', t')

    def shape(self, m):
        if m not in self.shapes:
            sizes = Counter((m & b).bit_count() for b in self.blocks)
            self.shapes[m] = (sizes[2], sizes[3])
        return self.shapes[m]

    def face_class(self, sub, m):
        """The class of the exterior vertex subset `sub`, whose OR is m."""
        # reduced coordinates at sub[0]: the free bits of the face, less the
        # one that sub[0] sets in each factor
        free = [bit for bit in range(m.bit_length())
                if m >> bit & 1 and not self.masks[sub[0]] >> bit & 1]
        return abs(det([[self.masks[u] >> bit & 1 for bit in free] for u in sub[1:]]))

    def simplex_class(self, simplex):
        """The class of a simplex with as many vertices as the product has
        dimensions plus one; 0 when it lies in a facet or is flat."""
        m = functools.reduce(operator.or_, (self.masks[u] for u in simplex))
        if m.bit_count() - self.n_factors != len(simplex) - 1:
            return 0
        return self.face_class(simplex, m)

    def counts(self, simplex, cls, cache_of):
        """Counter of (s', t', face class) over the exterior faces of the
        simplex of class cls.

        The class of a face of three or more vertices, short of the whole
        simplex, is looked up in and stored to the dict cache_of(subset),
        keyed by the face's vertex indices; subset is its bit set, bit k
        for simplex[k].
        """
        counts = Counter()
        ors = [0] * (1 << len(simplex))  # ors[S]: OR of the vertices in the bit set S
        for subset in range(1, len(ors)):
            low = subset & -subset
            m = ors[subset] = ors[subset ^ low] | self.masks[simplex[low.bit_length() - 1]]
            size = subset.bit_count()
            if m.bit_count() - self.n_factors != size - 1:
                continue
            if size <= 2:
                cp = 1
            elif size == len(simplex):
                cp = cls
            else:
                sub = tuple(v for k, v in enumerate(simplex) if subset >> k & 1)
                cache = cache_of(subset)
                cp = cache.get(sub)
                if cp is None:
                    cp = cache[sub] = self.face_class(sub, m)
            counts[(*self.shape(m), cp)] += 1
        return counts


def orbit_face_counts(spec, stems):
    """Exterior-face counts of the simplices on vertex 0 and a leaf below `stems`.

    With the stems of the orderly V search, `fbounds._orderly_stems(spec)`,
    the leaves (`leaves_by_stem`) hold one simplex of every symmetry orbit.
    Every nondegenerate simplex is a symmetry image of one that holds
    vertex 0 (the group is vertex transitive), and every such simplex is a
    leaf's image under the symmetries fixing vertex 0, which preserve face
    shapes and classes.  Yields (vertex indices, class, Counter of (s', t',
    face class)), counted by `FaceCounter`.

    A leaf is R + (u, v) below its stem R.  Subsets of 0 and R recur in the
    next stems, so their classes are kept while they lie in the current
    stem; the subsets with one of u and v are reused by the stem's other
    leaves and dropped at the next stem; a subset with both belongs to one
    leaf and is not cached.  The cache therefore holds one stem's subsets
    at most, however many leaves there are.
    """
    counter = FaceCounter(spec)
    # vertex indices of an exterior subset -> its face class: in `kept` for
    # subsets of 0 and the stem, in `below` for those with one of u and v
    kept, below = {}, {}
    top = spec.dim - 1  # subset >> top tells which of u and v a subset holds
    for leaves in leaves_by_stem(spec, stems):
        stem = {0, *leaves[0][0][:-2]} if leaves else set()
        kept = {sub: c for sub, c in kept.items() if stem.issuperset(sub)}
        below.clear()
        caches = {0: kept, 1: below, 2: below}
        for leaf, cls in leaves:
            simplex = (0, *leaf)
            counts = counter.counts(simplex, cls, lambda subset: caches.get(subset >> top, {}))
            yield simplex, cls, counts


SWAPS_PER_RESTART = 200


def climb_to_f_violation(s, t, f, seed, evaluations):
    """Hill-climb for a simplex of the (s, t) product with more exterior
    faces of some kind than F allows, F given as f(s, t, c, s', t', c').

    A simplex holds vertex 0 and d = s + 2t others, in index order.  Its
    excess is the largest count - F(s, t, c, s', t', c') over the kinds of
    its exterior faces with 0 < s' + 2t' < d, leaving out the simplex
    itself, which F counts exactly, and its vertices, a row the cover LP
    does not use.  Each restart draws a random nondegenerate simplex and
    makes up to SWAPS_PER_RESTART one-vertex swaps, each a random vertex
    other than 0 for a random one outside the simplex, keeping a swap
    unless its simplex is degenerate or has a lower excess.  Every simplex
    whose class is taken counts as one evaluation.  Returns (simplex,
    class, (s', t', c'), count, F) at the first simplex with a positive
    excess, or None once `evaluations` are spent.  Finding none is evidence
    for F on that product, not a proof.
    """
    spec = SimplotopeSpec.seg_tri(s, t)
    counter = FaceCounter(spec)
    n, d = len(spec.vertices()), spec.dim
    rng = random.Random(seed)
    bounds = {}
    classes = {}  # face classes of the current simplex and the candidate

    def evaluate(simplex):
        cls = counter.simplex_class(simplex)
        if cls == 0:
            return cls, None, None
        worst, excess = None, -math.inf  # a simplex may have no such face
        for (sp, tp, cp), count in counter.counts(simplex, cls, lambda subset: classes).items():
            if 0 < sp + 2 * tp < d:
                key = (cls, sp, tp, cp)
                if key not in bounds:
                    bounds[key] = f(s, t, *key)
                if count - bounds[key] > excess:
                    worst, excess = ((sp, tp, cp), count, bounds[key]), count - bounds[key]
        return cls, worst, excess

    def forget(vertex):
        for sub in [sub for sub in classes if vertex in sub]:
            del classes[sub]

    spent = 0
    while spent < evaluations:
        classes.clear()
        cls = 0
        while cls == 0 and spent < evaluations:
            simplex = (0, *sorted(rng.sample(range(1, n), d)))
            cls, worst, excess = evaluate(simplex)
            spent += 1
        if cls and excess > 0:
            return (simplex, cls, *worst)
        for _ in range(SWAPS_PER_RESTART):
            if spent == evaluations:
                break
            out = rng.choice(simplex[1:])
            into = rng.choice([v for v in range(1, n) if v not in simplex])
            candidate = tuple(sorted({*simplex} - {out} | {into}))
            new_cls, new_worst, new_excess = evaluate(candidate)
            spent += 1
            if new_cls and new_excess >= excess:
                simplex, cls, worst, excess = candidate, new_cls, new_worst, new_excess
                forget(out)
                if excess > 0:
                    return (simplex, cls, *worst)
            else:
                forget(into)
    return None


def faces_over_f(s, t, stems):
    """The most exterior faces of each (c, s', t', c') that one simplex of
    every orbit below `stems` has, wherever it exceeds F(s, t, c, s', t', c').
    """
    most = Counter()
    for _, c, counts in orbit_face_counts(SimplotopeSpec.seg_tri(s, t), stems):
        for (sp, tp, cp), n in counts.items():
            most[(c, sp, tp, cp)] = max(most[(c, sp, tp, cp)], n)
    return {key: n for key, n in most.items() if n > f_bound(s, t, *key)}
