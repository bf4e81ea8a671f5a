"""Counting faces of a product of s segments and t triangles.

q_count is the closed form for the number of faces that are themselves a
product of s' segments and t' triangles.  Tier-1 recomputes it two
independent ways (`tests/q_oracle.py`).  Out of range queries return 0,
which the recurrences and the linear program rely on.
"""

from __future__ import annotations

import math


def comb0(n: int, k: int) -> int:
    """Binomial coefficient that vanishes outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def q_count(s: int, t: int, sp: int, tp: int) -> int:
    """Number of (sp, tp) faces of the product of s segments and t triangles.

    Closed form: C(t, tp) * sum_q 2^(s-q) 3^(t-tp) C(s, q) C(t-tp, sp-q),
    where q counts the face's segment factors that come from segment factors.
    Raises ValueError on a negative argument.
    """
    if min(s, t, sp, tp) < 0:
        raise ValueError("face counts take nonnegative arguments")
    total = 0
    # only C(s, q) C(t - tp, sp - q) != 0 counts: sp - (t - tp) <= q <= min(s, sp)
    for q in range(max(0, sp - (t - tp)), min(s, sp) + 1):
        term = comb0(s, q) * comb0(t - tp, sp - q)
        if term:
            total += term * 2 ** (s - q) * 3 ** (t - tp)
    return comb0(t, tp) * total
