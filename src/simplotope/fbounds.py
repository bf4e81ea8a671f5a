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
- The group H generated by swapping positions a, a + 1 >= 1 inside one
  factor and by swapping two factors of equal size fixes vertex 0 and
  permutes those coordinates, so it preserves |det| too.  It is closed
  from the generators by composition: s! t! 2^t elements (48 for (0, 3),
  8 for (1, 2)).
- One depth-first search adds vertices 1, ..., n - 1 in increasing order
  (orderly generation).  A set S of vertices, written as its sorted tuple,
  is canonical if no g in H maps it to a lexicographically smaller sorted
  tuple; every H-orbit holds exactly one canonical set.  Canonicity is
  hereditary: if g(S') < S' for S' = S minus its largest vertex, then the
  j-th smallest element of g(S) is at most that of g(S'), so g(S) < S as
  well.  Every prefix of a canonical set is therefore canonical, so
  cutting non-canonical prefixes keeps the canonical set of every orbit of
  d-sets as a leaf: a set of every class.
- The test runs on prefixes of at most d - 2 vertices only.  Any depth is
  sound: a canonical set passes the test at every prefix, and a leaf the
  test did not cut is still a d-set, so it cannot raise the maximum.  The
  depth only trades cost.  A test is |H| - 1 sorted images, while below a
  prefix of d - 1 vertices lies a single level of leaves, one elimination
  step each, which is cheaper than the test that would cut them.  Measured
  on V(0, 3) (2 vCPUs, Python 3.11): about 0.09 s testing prefixes up to
  d - 2 vertices (6,589 leaves), 0.15 s up to d - 3, 0.18 s up to d - 1
  and 0.4 s at every level, against 0.39 s for a split over first-choice
  orbits alone.
- Each level of the search adds one vector and eliminates it against the
  levels below by fraction-free Bareiss steps, whose divisions are exact by
  Sylvester's identity.  A vector that eliminates to zero is dependent on
  the ones chosen, so that branch and every superset of it is degenerate
  and is cut.  At depth d the last pivot is the d x d determinant up to
  sign.  No float is used anywhere.

A VTable is the F evaluator of one cube-cap table.  It owns a copy of the
caps, the V values computed from them and the F memo.  F depends on the caps
through every class-overflow test, so a memo filled under one table is wrong
under another (capping V(4,0) at 1 instead of 3 moves the (2,2) cell from 68
to 84).  Keeping the memo inside the table that computed it makes that reuse
impossible.  The memo lives in process only: a memo kept in a file would
also have to match the code that filled it, and a stored value is trusted
as it stands, so one stale or altered entry would print a wrong cell with
exit 0.

The recurrence is pruned by the same zero conventions, so every F value is
what the plain recursion gives, but far fewer keys are reached (the d = 10
table memoizes 4,752 keys instead of 34,992):

- The footprint factor F(s', t', c', i, j, k) depends on neither e nor w.
  It is looked up once per (i, j, k) in one recurrence call.
- An e whose shadow class c/c' exceeds V(ss, tt) adds nothing and is
  skipped before any of its terms.
- A term whose shadow factor F(ss, tt, c/c', x, y, c'/k) vanishes by a
  convention (y < 0, x + 2y beyond the shadow's dimension, c'/k not
  dividing c/c', or c'/k > V(x, y)) is skipped before its footprint factor
  is looked up.  A footprint factor of 0 (k > V(i, j) among others) skips
  the shadow factor, as before.

V is asked for no pair the plain recursion does not ask for.  That
recursion asks for V(s', t') at its first footprint, and for V(ss, tt) at
every e: its term w = 0, k = c', j = t', i = s' pairs the whole face
(footprint 1) with the 0-face shadow.  V(x, y) is only
read when some earlier query already computed it; otherwise the term runs
as before, and the shadow factor asks for V(x, y) only after a nonzero
footprint, as the plain recursion does.  A missing cube cap therefore
skips the same cells with the same reasons.

Two values exist for the 0-face shape.  As a count of exterior 0-faces, a
nondegenerate simplex has s + 2t + 1 of them (all of its vertices): that is
comb_bound's value there, and f_bound, the F that `simplotope fbound` prints,
reports it.  VTable.f, the F that the recurrence and the linear program read,
keeps the base case pinned at 1 per footprint class, which is what the
reference table was computed with; the linear program never uses a (0,0)
constraint, so the two readings never collide there.
"""

from __future__ import annotations

import functools
import itertools
from importlib import resources
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .core import SimplotopeSpec
from .counting import comb0


class VMaxUnavailable(Exception):
    """No brute-force value and no configured cap for this dimension."""


BRUTE_FORCE_DIM_LIMIT = 6
BRUTE_FORCE_FACTOR_LIMIT = 3
BRUTE_FORCE = "brute-forced"
CUBE_CAP = "configured-cube-cap"


def load_cube_caps(path=None) -> dict[int, int]:
    """Cube maximal-class caps by dimension from a key-value text file.

    Each line holds a dimension and its cap, both >= 1, and no dimension
    appears twice; a line that breaks this raises ValueError naming it.
    """
    if path is None:
        text = resources.files("simplotope").joinpath("data/cube_caps.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    caps = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            dim, cap = (int(x) for x in line.split())
        except ValueError:
            raise ValueError(f"line {number} {line!r}: expected two integers") from None
        if dim < 1 or cap < 1:
            raise ValueError(f"line {number} {line!r}: dimension and cap must be >= 1")
        if dim in caps:
            raise ValueError(f"line {number} {line!r}: dimension {dim} is given twice")
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
    return tuple(k for k in range(1, n + 1) if n % k == 0)


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
        """F as the recursion uses it: the conventions, then the 0-face base
        case pinned at 1, then the memoized bound.

        Class-1 queries take the combinatorial bound alone; the recurrence only
        refines classes 2 and up (it exists because the combinatorial bound
        ignores the class entirely).  Recursing with the pinned 0-face base
        case and the class-1 rule reproduces the reference table; taking the
        recurrence for class-1 queries as well would not (its 0-face base case
        can undercount vertex footprints).
        """
        # the conventions: zero outside the admissible range, 1 on the full shape
        if s < 0 or t < 0 or sp < 0 or tp < 0 or c < 1 or cp < 1:
            return 0
        if sp + 2 * tp > s + 2 * t or c % cp:
            return 0
        values = self._values  # V read directly; get() only computes a missing value
        if c > (values.get((s, t)) or self.get(s, t))[0]:
            return 0
        if cp > (values.get((sp, tp)) or self.get(sp, tp))[0]:
            return 0
        if sp == s and tp == t:
            return 1 if cp == c else 0
        if sp == 0 and tp == 0:
            return 1 if cp == 1 else 0
        key = (s, t, c, sp, tp, cp)
        memo = self.memo
        value = memo.values.get(key)
        if value is not None:
            memo.hits += 1
            return value
        memo.misses += 1
        value = comb_bound(s, t, sp, tp)
        if c > 1:
            value = min(value, self.recurrence(s, t, c, sp, tp, cp))
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

        Terms that a zero convention of F makes vanish are skipped before
        the other factor is looked up (see the module docstring).
        """
        if c < 1 or cp < 1 or c % cp or sp < 0 or tp < 0:
            return 0
        es = range(max(0, s - sp), min(s + t - sp - tp, s) + 1)
        values = self._values
        if not es or cp > (values.get((sp, tp)) or self.get(sp, tp))[0]:
            return 0
        f = self.f
        cq = c // cp
        shadow_dim = s + 2 * t - sp - 2 * tp
        kqs = [(k, cp // k) for k in _divisors(cp) if cq % (cp // k) == 0]
        footprints: dict[tuple[int, int, int], int] = {}
        best = 0
        for e in es:
            ss = sp - s + 2 * e
            tt = s + t - sp - tp - e
            if cq > (values.get((ss, tt)) or self.get(ss, tt))[0]:
                continue
            total = 0
            for w in range(0, min(sp - s + e, tp) + 1):
                for j in range(0, tp - w + 1):
                    y = tp - j - w
                    for i in range(max(w, sp + 2 * tp - shadow_dim - 2 * j),
                                   min(sp + tp - j, sp + w) + 1):
                        x = sp - i + 2 * w
                        vx = values.get((x, y))
                        for k, kq in kqs:
                            if vx is not None and kq > vx[0]:
                                continue
                            a = footprints.get((i, j, k))
                            if a is None:
                                a = footprints[(i, j, k)] = f(sp, tp, cp, i, j, k)
                            if a:
                                total += a * f(ss, tt, cq, x, y, kq)
            if total > best:
                best = total
        return best


def _stabilizer_generators(spec: SimplotopeSpec) -> list[list[int]]:
    """Generators of a group of symmetries fixing vertex 0, as vertex permutations.

    Vertices are numbered in the order of `spec.vertices()`.  Inside each
    factor, positions a and a + 1 are swapped for every a >= 1, so position 0
    stays put; any two factors of the same size are swapped.  Both kinds
    permute the reduced coordinates taken at vertex 0, so they preserve the
    class of every vertex simplex.
    """
    verts = spec.vertices()
    index = {v.idx: i for i, v in enumerate(verts)}
    n = len(spec.factors)
    perms = []
    for f, c in enumerate(spec.factors):
        for a in range(1, c):
            swap = {a: a + 1, a + 1: a}
            perms.append([index[tuple(swap.get(j, j) if i == f else j for i, j in enumerate(v.idx))]
                          for v in verts])
    for f, g in itertools.combinations(range(n), 2):
        if spec.factors[f] == spec.factors[g]:
            swap = {f: g, g: f}
            perms.append([index[tuple(v.idx[swap.get(i, i)] for i in range(n))] for v in verts])
    return perms


def _stabilizer_group(spec: SimplotopeSpec) -> list[tuple[int, ...]]:
    """The group the stabilizer generators compose to, identity first."""
    generators = _stabilizer_generators(spec)
    group = [tuple(range(spec.n_vertices))]
    seen = set(group)
    for g in group:  # grows while it is read: a breadth-first closure
        for h in generators:
            hg = tuple(h[i] for i in g)
            if hg not in seen:
                seen.add(hg)
                group.append(hg)
    return group


def _orderly_leaves(spec: SimplotopeSpec) -> Iterator[tuple[tuple[int, ...], int]]:
    """The leaves of the orderly search, with their classes.

    A leaf is a sorted d-tuple of vertices other than vertex 0 that spans,
    with vertex 0, a nondegenerate simplex of the given class.  Every orbit
    of such tuples under the stabilizer group has a leaf (its canonical
    tuple); the search and the depth of its canonicity test are described
    in the module docstring.
    """
    d = spec.dim
    verts = spec.vertices()
    vecs = [v.reduced(verts[0]) for v in verts]
    others = _stabilizer_group(spec)[1:]
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

    def canonical() -> bool:
        """No symmetry maps the chosen vertices to a lexicographically smaller set."""
        for g in others:
            if sorted(map(g.__getitem__, chosen)) < chosen:
                return False
        return True

    def search(level: int, start: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if level == d:
            yield tuple(chosen), abs(pivots[d])
            return
        test = level < d - 2  # the new prefix holds at most d - 2 vertices
        for v in range(start, len(vecs)):
            chosen.append(v)
            if (not test or canonical()) and push(level, vecs[v]):
                yield from search(level + 1, v + 1)
            chosen.pop()

    return search(0, 1)  # vertex 0 is in the simplex and reduces to the zero vector


def _brute_force_vmax(s: int, t: int) -> int:
    """Largest class over every (s+2t+1)-subset of the simplotope's vertices."""
    return max(cls for _, cls in _orderly_leaves(SimplotopeSpec.seg_tri(s, t)))


# The evaluator of the packaged caps.  DEFAULT_MEMO is its memo under a second
# name, not a memo of its own: it is only ever used with those caps.
DEFAULT_VTABLE = VTable()
DEFAULT_MEMO = DEFAULT_VTABLE.memo


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
    """Upper bound on exterior-face counts, zero conventions applied first.

    VTable.f everywhere but on the 0-face shape, where a nonzero value is
    the geometric vertex count s + 2t + 1 (see comb_bound).
    """
    value = vtable.f(s, t, c, sp, tp, cp)
    if value and (sp, tp) == (0, 0):
        return comb_bound(s, t, sp, tp)
    return value
