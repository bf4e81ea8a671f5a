"""Two independent recomputations of the face counts Q(s, t, s', t').

`counting.q_count` is a closed form; these recount the same faces by
coefficient extraction from a generating function and by enumerating the
faces one by one, and the tests hold the closed form to both.
"""

import itertools

from simplotope.core import SimplotopeSpec

ENUM_DIM_LIMIT = 8


def q_by_generating_function(s, t, sp, tp):
    """Coefficient of x^sp y^tp in (x + 2)^s (y + 3x + 3)^t."""
    # poly[a, b] = coefficient of x^a y^b, built by exact multiplication
    poly = {(0, 0): 1}
    for _ in range(s):
        nxt = {}
        for (a, b), c in poly.items():
            nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) + c
            nxt[(a, b)] = nxt.get((a, b), 0) + 2 * c
        poly = nxt
    for _ in range(t):
        nxt = {}
        for (a, b), c in poly.items():
            nxt[(a, b + 1)] = nxt.get((a, b + 1), 0) + c
            nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) + 3 * c
            nxt[(a, b)] = nxt.get((a, b), 0) + 3 * c
        poly = nxt
    return poly.get((sp, tp), 0)


def q_by_enumeration(s, t, sp, tp):
    """Count faces with signature (sp, tp) by enumerating zero-coordinate sets.

    Each face corresponds to one choice, per factor, of which coordinates are
    fixed at zero (at most c_i of them).  Guarded to dimension 8.
    """
    if s + 2 * t > ENUM_DIM_LIMIT:
        raise ValueError(f"enumeration is limited to dimension {ENUM_DIM_LIMIT}")
    if s + t == 0:
        return 1 if (sp, tp) == (0, 0) else 0
    spec = SimplotopeSpec.seg_tri(s, t)
    per_factor = []
    for c in spec.factors:
        opts = []
        for k in range(c + 1):
            opts.extend(itertools.combinations(range(c + 1), k))
        per_factor.append(opts)
    count = 0
    for choice in itertools.product(*per_factor):
        segments = triangles = 0
        for c, zset in zip(spec.factors, choice):
            nfree = c + 1 - len(zset)
            if nfree == 3:
                triangles += 1
            elif nfree == 2:
                segments += 1
        if (segments, triangles) == (sp, tp):
            count += 1
    return count
