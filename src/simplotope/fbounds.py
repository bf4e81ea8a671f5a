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
of at most three factors (through dimension 6) by scanning every
(s+2t+1)-subset of vertices; other products use the known maximal
0/1-determinant values for cubes, read from a configuration file, as caps.
The reference bound table corresponds exactly to this split: recomputing a
capped pair by brute force (say (3, 1), where the scan finds 4 against the
cap 5) would strengthen the table away from its reference entries, so the
split is deliberately not widened.

A VTable is the F evaluator of one cube-cap table.  It owns a copy of the
caps, the V values computed from them, the F memo and the sha256 of the
caps.  F depends on the caps through every class-overflow test, so a memo
filled under one table is wrong under another (capping V(4,0) at 1 instead
of 3 moves the (2,2) cell from 68 to 84).  Keeping the memo inside the table
that computed it makes that reuse impossible in process, and a memo written
to a file carries the caps hash so that it is refused under other caps.

Two values exist for the 0-face shape.  As a count of exterior 0-faces, a
nondegenerate simplex has s + 2t + 1 of them (all of its vertices), and that
is what comb_bound and f_bound report.  Inside the recurrence the base case
stays pinned at 1 per footprint class, which is what the reference table was
computed with; the linear program never uses a (0,0) constraint, so the two
readings never collide there.
"""

from __future__ import annotations

import functools
import itertools
from importlib import resources
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .core import SimplotopeSpec
from .counting import comb0


class FKey(NamedTuple):
    s: int
    t: int
    c: int
    sp: int
    tp: int
    cp: int


class VMaxUnavailable(Exception):
    """No brute-force value and no configured cap for this dimension."""


BRUTE_FORCE_DIM_LIMIT = 6
BRUTE_FORCE_FACTOR_LIMIT = 3
BRUTE_FORCE = "brute-forced"
CUBE_CAP = "configured-cube-cap"


def load_cube_caps(path=None) -> dict[int, int]:
    """Cube maximal-class caps by dimension from a key-value text file."""
    if path is None:
        text = resources.files("simplotope").joinpath("data/cube_caps.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    caps = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        dim, cap = line.split()
        caps[int(dim)] = int(cap)
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

    @property
    def caps_sha256(self) -> str:
        """Fingerprint of the parsed caps: one "dim cap" line per dimension, sorted."""
        import hashlib  # local import: OpenSSL adds ~4 MB to every process that loads it

        text = "".join(f"{dim} {cap}\n" for dim, cap in sorted(self.caps.items()))
        return hashlib.sha256(text.encode()).hexdigest()

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

    def f(self, key) -> int:
        """F as the recursion uses it: the conventions, then the 0-face base
        case pinned at 1, then the memoized bound.

        Class-1 queries take the combinatorial bound alone; the recurrence only
        refines classes 2 and up (it exists because the combinatorial bound
        ignores the class entirely).  Recursing with the pinned 0-face base
        case and the class-1 rule reproduces the reference table; taking the
        recurrence for class-1 queries as well would not (its 0-face base case
        can undercount vertex footprints).
        """
        return self._f(*key)

    def recurrence(self, key) -> int:
        """The raw footprint/shadow recurrence value at one key."""
        return self._recurrence(*key)

    def _f(self, s: int, t: int, c: int, sp: int, tp: int, cp: int) -> int:
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
        value = comb_bound(key)
        if c > 1:
            value = min(value, self._recurrence(s, t, c, sp, tp, cp))
        memo.values[key] = value
        return value

    def _recurrence(self, s: int, t: int, c: int, sp: int, tp: int, cp: int) -> int:
        """The footprint/shadow double count.

        Fixing one exterior (sp, tp)-face sigma, every other such face is
        pinned down by its intersection with sigma (the footprint, an exterior
        face of sigma) and its image under the projection collapsing sigma (the
        shadow, an exterior face of the complementary simplex).  Summing bounds
        for both over all shapes and classes, maximized over the number e of
        ambient segment factors supporting the complement, bounds the face
        count.
        """
        if cp < 1 or c % cp != 0:
            return 0
        f = self._f
        cq = c // cp
        divisors = _divisors(cp)
        best = 0
        for e in range(max(0, s - sp), min(s + t - sp - tp, s) + 1):
            ss = sp - s + 2 * e
            tt = s + t - sp - tp - e
            total = 0
            for w in range(0, min(sp - s + e, tp) + 1):
                for k in divisors:
                    kq = cp // k
                    for j in range(0, tp + 1):
                        for i in range(w, min(sp + tp - j, sp + w) + 1):
                            a = f(sp, tp, cp, i, j, k)
                            if a:
                                total += a * f(ss, tt, cq, sp - i + 2 * w, tp - j - w, kq)
            if total > best:
                best = total
        return best


def _brute_force_vmax(s: int, t: int) -> int:
    """Largest class over every (s+2t+1)-subset of the simplotope's vertices.

    The scan runs batched float determinants (a 0/1 matrix of size <= 7 has
    |det| <= 32 and LAPACK's error here is ~1e-11, far below the integer
    spacing, so rounding is safe); the winning subset is then re-checked with
    the exact integer determinant before the value is trusted.
    """
    from .exact import det  # local import keeps module load light

    spec = SimplotopeSpec.seg_tri(s, t)
    d = spec.dim
    verts = spec.vertices()
    pivot = verts[0]
    reduced = np.array([v.reduced(pivot) for v in verts], dtype=np.float64)
    k = d + 1
    best = -1.0
    best_subset: tuple[int, ...] | None = None
    combos = itertools.combinations(range(len(verts)), k)
    chunk_size = 200_000
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        idx = np.array(chunk, dtype=np.intp)
        mats = np.ones((len(chunk), k, k))
        mats[:, :, 1:] = reduced[idx]
        dets = np.abs(np.linalg.det(mats))
        pos = int(np.argmax(dets))
        if dets[pos] > best:
            best = float(dets[pos])
            best_subset = chunk[pos]
    if best_subset is None:
        raise RuntimeError(f"no {k}-subset of vertices scanned for V({s},{t})")
    value = round(best)
    if abs(best - value) >= 1e-6:
        raise RuntimeError(f"float determinant {best} for V({s},{t}) is not near an integer")
    rows = [(1,) + verts[i].reduced(pivot) for i in best_subset]
    if abs(det(rows)) != value:
        raise RuntimeError(f"exact recheck of V({s},{t}) disagrees with the float scan")
    return value


# The evaluator of the packaged caps.  DEFAULT_MEMO is its memo under a second
# name, not a memo of its own: it is only ever used with those caps.
DEFAULT_VTABLE = VTable()
DEFAULT_MEMO = DEFAULT_VTABLE.memo


def v_max(s: int, t: int, vtable: VTable | None = None) -> VEntry:
    """Largest possible class of a simplex in a cover, with provenance."""
    return (vtable or DEFAULT_VTABLE).get(s, t)


def comb_bound(key: FKey) -> int:
    """Combinatorial bound on exterior-face counts; ignores the classes.

    Faces of dimension >= 2 in distinct, non-parallel, non-tri-positioned
    positions have distinct free-coordinate sets, so counting admissible
    free-coordinate choices bounds the face count.  Edges are capped at
    s + 3t and a simplex has at most s + 2t + 1 vertices on 0-faces.
    """
    s, t, _, sp, tp, _ = key
    dim = sp + 2 * tp
    if dim >= 2:
        total = 0
        for q in range(0, min(s, sp) + 1):
            total += comb0(s, q) * comb0(t - tp, sp - q) * 2 ** (sp - q)
        return comb0(t, tp) * total
    if (sp, tp) == (1, 0):
        return s + 3 * t
    return s + 2 * t + 1


def f_recurrence(key: FKey, vtable: VTable | None = None) -> int:
    """The raw footprint/shadow recurrence value at one key.

    Sub-queries go through the same evaluator f_bound uses, so the worked
    examples come out exactly as tabulated (3 for the class-1 square-face
    count in the prism, 2 for the class-1 prism-face count in the
    triangle-cross-square).
    """
    return (vtable or DEFAULT_VTABLE).recurrence(key)


def f_bound(key: FKey, vtable: VTable | None = None) -> int:
    """Upper bound on exterior-face counts, zero conventions applied first.

    comb_bound for class-1 queries, min(comb_bound, recurrence) above that;
    0-face queries report the geometric vertex count (see comb_bound).
    """
    key = FKey(*key)
    value = (vtable or DEFAULT_VTABLE).f(key)
    if value and (key.sp, key.tp) == (0, 0):
        # The geometric count: every vertex of a simplex is an exterior
        # 0-face, and there are s + 2t + 1 of them (all of class 1).
        return comb_bound(key)
    return value
