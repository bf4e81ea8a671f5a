"""Upper bounds on exterior-face counts and maximum simplex classes.

F(s, t, c, s', t', c') bounds, over class-c simplices of the product of s
segments and t triangles, how many exterior faces of class c' a simplex can
have inside (s', t')-shaped faces.  Two bounds are combined: a combinatorial
count of admissible free-coordinate sets (tight for corner simplices), and a
recurrence that counts footprint/shadow pairs with respect to a fixed
exterior face.  The bound function is memoized; it vanishes on negative
arguments, dimension overflow, class overflow (c > V) and failed
divisibility, which lets the sums below range freely.

V(s, t), the largest class of a vertex simplex, is brute forced for products
of at most three factors (through dimension 6) by an exact search over
(s+2t+1)-subsets of vertices; other products use the known maximal
0/1-determinant values for cubes, read from a configuration file, as caps.
The reference bound table corresponds exactly to this split: recomputing a
capped pair by brute force (say (3, 1), where the search finds 4 against the
cap 5) would strengthen the table away from its reference entries, so the
split is deliberately not widened.

The search covers every subset without enumerating them all:

- The symmetry group of the product is vertex-transitive and preserves
  classes, so some largest simplex contains vertex 0.  Its class is |det| of
  the other d vertices' reduced coordinates at vertex 0.
- The stabilizer H of vertex 0, `core.symmetries(spec, fixing_vertex_0=True)`,
  is the direct product of the position permutations that keep position 0
  inside each factor and the permutations of equal-size factors: s! t! 2^t
  elements (48 for (0, 3), 8 for (1, 2)).  It permutes the reduced
  coordinates taken at vertex 0, so it preserves |det| too.
- One depth-first search adds vertices 1, ..., n - 1 in increasing order
  (orderly generation).  A set S of vertices, written as its sorted tuple,
  is canonical if no g in H maps it to a lexicographically smaller sorted
  tuple; every H-orbit holds exactly one canonical set.  Canonicity is
  hereditary: if g(S') < S' for S' = S minus its largest vertex, then the
  j-th smallest element of g(S) is at most that of g(S'), so g(S) < S as
  well.  Every prefix of a canonical set is therefore canonical, so
  cutting non-canonical prefixes keeps the canonical set of every orbit of
  d-sets as a leaf: a set of every class.
- The search stops at the stems: the canonical prefixes R of d - 2
  vertices, `_orderly_stems`.  Testing only prefixes that short is sound:
  a canonical set passes the test at every prefix, and a leaf the test did
  not cut is still a d-set of some class, so it cannot raise the maximum.
- Canonicity is a bitmask comparison.  A vertex set is a mask with vertex v
  at bit n - 1 - v.  For sets A and B of equal size, sorted(A) < sorted(B)
  exactly when the lowest vertex of A ^ B lies in A, that is, when A's
  mask is the larger integer.  The search keeps one image mask per
  element of H, grows each by one bit per added vertex, and cuts a prefix
  when the largest image mask exceeds its own: one `max` per node in place
  of |H| - 1 sorted images.
- Each level of the search adds one vector and eliminates it against the
  levels below by fraction-free Bareiss steps, whose divisions are exact by
  Sylvester's identity.  A vector that eliminates to zero is dependent on
  the ones chosen, so that branch and every superset of it is degenerate
  and is cut.  No float is used anywhere.
- The last two levels are not searched.  After R's d - 2 rows, a vector
  reduces to zero on their pivot columns and to alpha(u) and beta(u) on
  the two free columns f1 < f2, two integer linear forms
  (`_cofactor`, exact back-substitution that raises ArithmeticError on a
  division that is not exact).  One more Bareiss step gives the class of
  {0} + R + {u, v} as |alpha(u) beta(v) - beta(u) alpha(v)| / |p|, with p
  R's last pivot, exactly by Sylvester's identity.
- For fixed u that is |w . v| / |p| with w = alpha(u) beta - beta(u) alpha.
  A vertex's reduced coordinates at vertex 0 take at most one coordinate
  of each factor's block, in any combination, so the maximum over all
  vertices v is the larger of the sum of the blocks' nonnegative maxima and
  minus the sum of their nonpositive minima: O(d) per u, and the same for
  every u with the same (alpha(u), beta(u)).  V is the maximum over stems
  and u >= start.  It is sound, because a nonzero value is the class of
  the simplex on 0, R, u and the maximizing v, and complete, because every
  leaf R + (u, v) with start <= u < v is among the v maximized over.
  Expanded over the u >= start independent of R and the v > u, the stems
  give the leaves of the same search run two levels deeper without a test,
  classes included (6,589 of them on (0, 3)).  V(0, 3) takes about 0.015 s
  and V(2, 2) about 0.1 s (best of 7, 2 vCPUs, Python 3.11).
- The segment, d = 1, has no stems; its V is 1.

A VTable is the F evaluator of one cube-cap table.  It owns a copy of the
caps, the V values computed from them and the F memo.  F depends on the caps
through every class-overflow test, so a memo filled under one table is wrong
under another (capping V(4,0) at 1 instead of 3 moves the (2,2) cell from 68
to 84).  Keeping the memo inside the table that computed it makes that reuse
impossible.  The memo lives in process only: a memo kept in a file would
also have to match the code that filled it, and a stored value is trusted
as it stands, so one stale or altered entry would print a wrong cell with
exit 0.

F's conventions live in `VTable.f` alone.  It looks up its memo first (a
memoized key passed the conventions when it was stored), then returns 0
outside the admissible range, on failed divisibility and on class overflow,
1 or 0 on the full shape and the vertex count on the 0-face shape; only
the other keys reach the memo.  The recurrence and `lptable.build_lp` take
a convention's 0 from F.  The recurrence keeps three shortcuts:

- An e whose shadow class c/c' exceeds V(ss, tt) is skipped: the point
  shadow (below) is written without F, so this is F's class check on it.
- The loops run only over the divisor pairs (k, c'/k) with c'/k | c/c' and
  the i that keep the shadow inside the shadow's dimension.  The terms
  outside are zero by a convention, but asking F for them adds 2-8 ms to
  the 20-23 ms that F and the cover LPs take at d = 10 with V known
  (2 vCPUs, Python 3.11), and memoizes keys nothing else reaches.
- One recurrence call looks up each footprint factor F(s', t', c', i, j, k),
  which depends on neither e nor w, once, and a footprint of 0 skips the
  shadow factor.  That cache and the caches of `comb_bound` and `_divisors`
  save 1.5-6 ms there.

The d = 10 table memoizes 1,299 keys (the plain recursion reaches 6,040)
and calls F 12,191 times.  Every shape F reaches from a cell (s, t) is
(0, 0) or one of the cell's rows (t' <= t, s' + t' <= s + t), whose V
`build_lp` reads before any F, so V is computed for no pair the cell does
not need and a missing cube cap skips the same cells with the same reasons.

The 0-face shape has one F value: a nondegenerate simplex has s + 2t + 1
exterior 0-faces, all of its vertices, each of class 1, which is
comb_bound's value there.  The recurrence reads that value as its
footprint factor too: two exterior faces with the same footprint and the
same shadow are equal, but a face tau that meets sigma in one vertex v has
the same shadow whichever vertex of sigma v is, so the faces with a
one-vertex footprint number up to sigma's vertex count times their shadows.
The shadow of the whole of sigma is different: collapsing sigma maps it to
a single point, of class 1, so the recurrence writes that shadow factor as
1 for c'/k = 1 and 0 otherwise, rather than reading F at (0, 0).  With
both in place every class, class 1 included, takes the smaller of the
combinatorial bound and the recurrence.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import reprlib
from importlib import resources
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .core import MAX_INT_DIGITS, SimplotopeSpec, symmetries
from .counting import comb0


class VMaxUnavailable(Exception):
    """No brute-force value and no configured cap for this dimension."""


BRUTE_FORCE_DIM_LIMIT = 6
BRUTE_FORCE_FACTOR_LIMIT = 3
BRUTE_FORCE = "brute-forced"
CUBE_CAP = "configured-cube-cap"


# Dimensions d where the cube attains Hadamard's bound: d + 1 = 4, 8, 16.
SYLVESTER_DIMS = (3, 7, 15)


def _hadamard_class(d: int) -> int:
    """The largest class a d-cube simplex can have: its matrix [1 | X], X 0/1,
    gives the +-1 matrix [1 | 2X - J] with 2^d times its |det|, which
    Hadamard (1893) bounds by (d + 1)^((d + 1) / 2)."""
    return math.isqrt((d + 1) ** (d + 1) // 4 ** d)


def load_cube_caps(path=None) -> dict[int, int]:
    """Cube maximal-class caps by dimension from a key-value text file.

    Each line holds a dimension and its cap, both >= 1 and of at most
    MAX_INT_DIGITS digits, and no dimension appears twice; no cap is above
    Hadamard's bound, `_hadamard_class`, and at a dimension of SYLVESTER_DIMS
    none is below it: Sylvester's Hadamard matrix of order d + 1 meets the
    bound, and its 0/1 core, popcount(i & j) mod 2 for 1 <= i, j <= d, spans
    with the origin a d-cube simplex of that class.  A file other than the
    packaged one may not go below a packaged cap at d <= BRUTE_FORCE_DIM_LIMIT
    either: the tests find each of those caps as the class of a d-cube simplex
    by search.  A line that breaks this raises ValueError naming it
    (shortened by `reprlib`).
    """
    if path is None:
        text = resources.files("simplotope").joinpath("data/cube_caps.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    floors = {} if path is None else {d: cap for d, cap in load_cube_caps().items()
                                      if d <= BRUTE_FORCE_DIM_LIMIT}
    caps = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {number} {reprlib.repr(line)}"
        words = line.split()
        if any(len(w) > MAX_INT_DIGITS for w in words):
            raise ValueError(f"{where}: a number is longer than {MAX_INT_DIGITS} characters")
        try:
            dim, cap = (int(x) for x in words)
        except ValueError:
            raise ValueError(f"{where}: expected two integers") from None
        if dim < 1 or cap < 1:
            raise ValueError(f"{where}: dimension and cap must be >= 1")
        if dim in caps:
            raise ValueError(f"{where}: dimension {reprlib.repr(dim)} is given twice")
        if dim in SYLVESTER_DIMS and cap < (attained := _hadamard_class(dim)):
            raise ValueError(f"{where}: the {dim}-cube has a simplex of class {attained} "
                             f"(from Sylvester's Hadamard matrix of order {dim + 1}), "
                             "so a lower cap is unsound")
        # d >= 7 puts the bound at >= 2^(d // 2): a cap of <= d / 2 bits is below it
        if (dim < 7 or 2 * cap.bit_length() > dim) and cap > (bound := _hadamard_class(dim)):
            raise ValueError(f"{where}: a {dim}-cube simplex has class at most {bound} "
                             "(Hadamard's bound), so a higher cap is impossible")
        if cap < floors.get(dim, 0):
            raise ValueError(f"{where}: the {dim}-cube has a simplex of class {floors[dim]} "
                             "(the packaged cap, found by search), so a lower cap is unsound")
        caps[dim] = cap
    return caps


class VEntry(NamedTuple):
    value: int
    provenance: str


class FMemo:
    """Append-only F memo of one VTable, keyed by (s, t, c, s', t', c') int tuples."""

    def __init__(self):
        self.values: dict[tuple[int, ...], int] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self.values)


@functools.cache
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1, ascending, by trial division up to sqrt(n)."""
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return tuple(small + [n // k for k in reversed(small) if k * k != n])


class VTable:
    """The F evaluator of one cube-cap table: its caps, V values and F memo.

    With no caps given, the packaged table is read on first use.
    """

    def __init__(self, caps: Mapping[int, int] | None = None):
        self._caps = None if caps is None else MappingProxyType(dict(caps))
        self._values: dict[tuple[int, int], VEntry] = {}
        self.memo = FMemo()

    @property
    def caps(self) -> Mapping[int, int]:
        if self._caps is None:
            self._caps = MappingProxyType(load_cube_caps())
        return self._caps

    def get(self, s: int, t: int) -> VEntry:
        """V(s, t) with its provenance, computed on first use."""
        entry = self._values.get((s, t))
        if entry is None:
            entry = self._values[(s, t)] = self._compute(s, t)
        return entry

    def _compute(self, s: int, t: int) -> VEntry:
        if s == 0 and t == 0:
            return VEntry(1, BRUTE_FORCE)
        dim = s + 2 * t
        if dim <= BRUTE_FORCE_DIM_LIMIT and s + t <= BRUTE_FORCE_FACTOR_LIMIT:
            return VEntry(_brute_force_vmax(s, t), BRUTE_FORCE)
        if dim in self.caps:
            return VEntry(self.caps[dim], CUBE_CAP)
        raise VMaxUnavailable(f"no cube cap configured for dimension {dim}")

    def f(self, s: int, t: int, c: int, sp: int, tp: int, cp: int) -> int:
        """F(s, t, c, s', t', c'): a memo hit, else the conventions, the 0-face
        and full shapes, then the memoized minimum of the combinatorial bound
        and the recurrence.
        """
        key = (s, t, c, sp, tp, cp)
        memo = self.memo
        value = memo.values.get(key)
        if value is not None:
            memo.hits += 1
            return value
        # the conventions: zero outside the admissible range, 1 on the full shape
        if s < 0 or t < 0 or sp < 0 or tp < 0 or c < 1 or cp < 1:
            return 0
        if sp + 2 * tp > s + 2 * t or c % cp:
            return 0
        if c > self.get(s, t)[0] or cp > self.get(sp, tp)[0]:
            return 0
        if sp == s and tp == t:
            return 1 if cp == c else 0
        if sp == 0 and tp == 0:
            return s + 2 * t + 1 if cp == 1 else 0
        memo.misses += 1
        value = min(comb_bound(s, t, sp, tp), self.recurrence(s, t, c, sp, tp, cp))
        memo.values[key] = value
        return value

    def recurrence(self, s: int, t: int, c: int, sp: int, tp: int, cp: int) -> int:
        """The raw footprint/shadow double count at one key.

        Fixing one exterior (sp, tp)-face sigma, every other such face is
        pinned down by its intersection with sigma (the footprint, an exterior
        face of sigma) and its image under the projection collapsing sigma (the
        shadow, an exterior face of the complementary simplex).  Summing bounds
        for both over all shapes and classes, maximized over the number e of
        ambient segment factors supporting the complement, bounds the face
        count.

        The caller, `f`, has already applied F's conventions at this key
        (see the module docstring for the shortcuts the loops keep).
        """
        f = self.f
        cq = c // cp
        shadow_dim = s + 2 * t - sp - 2 * tp
        kqs = [(k, cp // k) for k in _divisors(cp) if cq % (cp // k) == 0]
        footprints: dict[tuple[int, int, int], int] = {}
        best = 0
        for e in range(max(0, s - sp), min(s + t - sp - tp, s) + 1):
            ss = sp - s + 2 * e
            tt = s + t - sp - tp - e
            # F's class check on the point shadow, which is written without F
            if cq > self.get(ss, tt)[0]:
                continue
            total = 0
            for w in range(0, min(sp - s + e, tp) + 1):
                for j in range(0, tp - w + 1):
                    y = tp - j - w
                    for i in range(max(w, sp + 2 * tp - shadow_dim - 2 * j),
                                   min(sp + tp - j, sp + w) + 1):
                        x = sp - i + 2 * w
                        point = x == 0 and y == 0  # the shadow of the whole of sigma
                        for k, kq in kqs:
                            a = footprints.get((i, j, k))
                            if a is None:
                                a = footprints[(i, j, k)] = f(sp, tp, cp, i, j, k)
                            if a:
                                total += a * (kq == 1 if point else f(ss, tt, cq, x, y, kq))
            if total > best:
                best = total
        return best


def _cofactor(k: int, rows: list[list[int]], cols: list[int], pivots: list[int],
              free: int) -> list[int]:
    """A vector's Bareiss-reduced entry in column `free` as a linear form.

    rows[j], j < k, is the j-th chosen vector after elimination, with pivot
    pivots[j + 1] in column cols[j] and zeros in cols[:j]; rows has one slot
    per coordinate.  Eliminating v against those k rows leaves phi . v in
    column `free`, a column no row pivots on.  phi is orthogonal to every
    row, pivots[k] on `free` and 0 on the other columns no row pivots on, so
    back-substitution gives phi[cols[j]] = -(rows[j] . phi) / pivots[j + 1]
    for j = k - 1, ..., 0.  Each division is exact because phi is an integer
    cofactor vector; one that is not raises ArithmeticError.
    """
    phi = [0] * len(rows)
    phi[free] = pivots[k]
    for j in range(k - 1, -1, -1):
        q, r = divmod(-sum(map(operator.mul, rows[j], phi)), pivots[j + 1])
        if r:
            raise ArithmeticError(f"cofactor division by {pivots[j + 1]} is not exact")
        phi[cols[j]] = q
    return phi


def _orderly_stems(spec: SimplotopeSpec) -> Iterator[
        tuple[tuple[int, ...], list[int], list[int], int, int]]:
    """The stems of the orderly search: its canonical prefixes of d - 2 vertices.

    Yields (prefix, alpha, beta, p, start) for each prefix R of vertices
    other than vertex 0 that passes the canonicity test at every length and
    spans, with vertex 0, d - 2 independent vectors.  alpha and beta are the
    `_cofactor` forms of the two columns f1 < f2 that no row of R pivots
    on, p is R's last Bareiss pivot, and the leaves below R are R + (u, v)
    for start <= u < v (see the module docstring).  Needs d >= 2.
    """
    d = spec.dim
    verts = spec.vertices()
    n = len(verts)
    vecs = [v.reduced(verts[0]) for v in verts]
    others = symmetries(spec, fixing_vertex_0=True)[1:]
    # a vertex set is a mask with vertex v at bit n - 1 - v; images[v] holds
    # the bit of g(v) for every g in others
    images = [[1 << (n - 1 - g[v]) for g in others] for v in range(n)]
    chosen: list[int] = []
    # level k holds the k-th chosen vector after Bareiss elimination against
    # levels 0..k-1, its pivot column and its pivot; pivots[k] divides step k + 1
    rows: list[list[int]] = [[]] * d
    cols = [0] * d
    pivots = [1] * (d + 1)

    def push(level: int, vec: tuple[int, ...]) -> bool:
        """Eliminate vec against the levels below; False if it is dependent on them."""
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

    def search(level: int, start: int, mask: int, seen: list[int]):
        if level == d - 2:
            f1, f2 = sorted(set(range(d)).difference(cols[:level]))
            yield (tuple(chosen), _cofactor(level, rows, cols, pivots, f1),
                   _cofactor(level, rows, cols, pivots, f2), pivots[level], start)
            return
        for v in range(start, n):
            grown = mask | 1 << (n - 1 - v)
            grown_seen = list(map(operator.or_, seen, images[v]))
            # canonical: no image is a larger mask, that is, a smaller sorted tuple
            if max(grown_seen, default=0) <= grown and push(level, vecs[v]):
                chosen.append(v)
                yield from search(level + 1, v + 1, grown, grown_seen)
                chosen.pop()

    # vertex 0 is in the simplex and reduces to the zero vector
    return search(0, 1, 0, [0] * len(others))


def _stem_maxima(spec: SimplotopeSpec) -> Iterator[tuple[tuple, int]]:
    """Each stem with the largest class of {0} + R + {u, v} over its u >= start
    and every vertex v (see the module docstring)."""
    verts = spec.vertices()
    # reduced coordinates at vertex 0 are 0/1, so a linear form on a vertex
    # is the sum of its values over the vertex's support
    supports = [tuple(j for j, x in enumerate(v.reduced(verts[0])) if x) for v in verts]
    # the reduced coordinates of factor i form one block of c_i columns
    blocks = list(itertools.pairwise(itertools.accumulate(spec.factors, initial=0)))
    for stem in _orderly_stems(spec):
        _, alpha, beta, p, start = stem
        top = 0
        # the best v for u depends on u only through (alpha(u), beta(u))
        for a, b in {(sum(map(alpha.__getitem__, supports[u])),
                      sum(map(beta.__getitem__, supports[u]))) for u in range(start, len(verts))}:
            w = [a * y - b * x for x, y in zip(alpha, beta)]
            hi = lo = 0
            for i, j in blocks:  # v takes at most one coordinate of each block
                block = w[i:j]
                hi += max(0, *block)
                lo += min(0, *block)
            top = max(top, hi, -lo)
        q, r = divmod(top, abs(p))
        if r:
            raise ArithmeticError(f"class division by {p} is not exact")
        yield stem, q


def _brute_force_vmax(s: int, t: int) -> int:
    """Largest class over every (s+2t+1)-subset of the simplotope's vertices."""
    spec = SimplotopeSpec.seg_tri(s, t)
    if spec.dim == 1:
        return 1  # the segment is its own only simplex
    return max(value for _, value in _stem_maxima(spec))


# The evaluator of the packaged caps.  DEFAULT_MEMO is its memo under a second
# name, not a memo of its own: it is only ever used with those caps.
DEFAULT_VTABLE = VTable()
DEFAULT_MEMO = DEFAULT_VTABLE.memo


@functools.cache  # every F memo miss asks; the four integers are its whole input
def comb_bound(s: int, t: int, sp: int, tp: int) -> int:
    """Combinatorial bound on exterior-face counts; ignores the classes.

    Faces of dimension >= 2 in distinct, non-parallel, non-tri-positioned
    positions have distinct free-coordinate sets, so counting admissible
    free-coordinate choices bounds the face count.  Edges are capped at
    s + 3t and a simplex has at most s + 2t + 1 vertices on 0-faces.
    """
    dim = sp + 2 * tp
    if dim >= 2:
        total = 0
        for q in range(0, min(s, sp) + 1):
            total += comb0(s, q) * comb0(t - tp, sp - q) * 2 ** (sp - q)
        return comb0(t, tp) * total
    if (sp, tp) == (1, 0):
        return s + 3 * t
    return s + 2 * t + 1


def f_bound(s: int, t: int, c: int, sp: int, tp: int, cp: int,
            vtable: VTable = DEFAULT_VTABLE) -> int:
    """Upper bound on exterior-face counts: F as `vtable` evaluates it."""
    return vtable.f(s, t, c, sp, tp, cp)
