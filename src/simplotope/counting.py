"""Counting faces of a product of s segments and t triangles.

q_count is the closed form for the number of faces that are themselves a
product of s' segments and t' triangles; the other two functions recompute
it independently (coefficient extraction from (x+2)^s (y+3x+3)^t, and direct
enumeration of zero-coordinate sets) and exist to cross-check it.  Out of
range queries return 0, which the recurrences and the linear program rely on.
"""

from __future__ import annotations

import itertools
import math

from .core import SimplotopeSpec
from .record import Record

ENUM_DIM_LIMIT = 8


def comb0(n: int, k: int) -> int:
    """Binomial coefficient that vanishes outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


class QQuery(Record):
    """Faces of shape (sp, tp) of the product of s segments and t triangles."""

    __slots__ = ("s", "t", "sp", "tp")
    s: int
    t: int
    sp: int
    tp: int

    def __init__(self, s: int, t: int, sp: int, tp: int):
        if min(s, t, sp, tp) < 0:
            raise ValueError("face counts take nonnegative arguments")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "sp", sp)
        object.__setattr__(self, "tp", tp)


def q_count(q: QQuery) -> int:
    """Number of (sp, tp) faces of the product of s segments and t triangles.

    Closed form: C(t, tp) * sum_q 2^(s-q) 3^(t-tp) C(s, q) C(t-tp, sp-q),
    where q counts the face's segment factors that come from segment factors.
    """
    total = 0
    # only C(s, qq) C(t - tp, sp - qq) != 0 counts: sp - (t - tp) <= qq <= min(s, sp)
    for qq in range(max(0, q.sp - (q.t - q.tp)), min(q.s, q.sp) + 1):
        term = comb0(q.s, qq) * comb0(q.t - q.tp, q.sp - qq)
        if term:
            total += term * 2 ** (q.s - qq) * 3 ** (q.t - q.tp)
    return comb0(q.t, q.tp) * total


def q_by_generating_function(q: QQuery) -> int:
    """Coefficient of x^sp y^tp in (x + 2)^s (y + 3x + 3)^t."""
    # poly[a][b] = coefficient of x^a y^b, built by exact multiplication
    poly = {(0, 0): 1}
    for _ in range(q.s):
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), c in poly.items():
            nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) + c
            nxt[(a, b)] = nxt.get((a, b), 0) + 2 * c
        poly = nxt
    for _ in range(q.t):
        nxt = {}
        for (a, b), c in poly.items():
            nxt[(a, b + 1)] = nxt.get((a, b + 1), 0) + c
            nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) + 3 * c
            nxt[(a, b)] = nxt.get((a, b), 0) + 3 * c
        poly = nxt
    return poly.get((q.sp, q.tp), 0)


def q_by_enumeration(q: QQuery) -> int:
    """Count faces with signature (sp, tp) by enumerating zero-coordinate sets.

    Each face corresponds to one choice, per factor, of which coordinates are
    fixed at zero (at most c_i of them).  Guarded to dimension 8.
    """
    if q.s + 2 * q.t > ENUM_DIM_LIMIT:
        raise ValueError(f"enumeration is limited to dimension {ENUM_DIM_LIMIT}")
    if q.s + q.t == 0:
        return 1 if (q.sp, q.tp) == (0, 0) else 0
    spec = SimplotopeSpec.seg_tri(q.s, q.t)
    per_factor = []
    for c in spec.factors:
        opts = []
        for k in range(c + 1):
            opts.extend(itertools.combinations(range(c + 1), k))
        per_factor.append(opts)
    count = 0
    for choice in itertools.product(*per_factor):
        sp = tp = 0
        for c, zset in zip(spec.factors, choice):
            nfree = c + 1 - len(zset)
            if nfree == 3:
                tp += 1
            elif nfree == 2:
                sp += 1
        if (sp, tp) == (q.sp, q.tp):
            count += 1
    return count
