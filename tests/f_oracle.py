"""Reference F oracle: the bound written out as a plain recursion.

A direct transcription of the zero conventions, the combinatorial bound and
the footprint/shadow recurrence of ``simplotope.fbounds``, memoized with
``functools.cache`` and nothing else: no shared memo, no counters, no
precomputed divisors.  V values come in as a function.  It is kept only for
the tests to compare the evaluator against.
"""

import functools
import math


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
            return 1 if cp == 1 else 0
        bound = comb_bound(s, t, sp, tp)
        if c == 1:
            return bound
        return min(bound, recurrence(s, t, c, sp, tp, cp))

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
                                      * f(sp - s + 2 * e, s + t - sp - tp - e, c // cp,
                                          sp - i + 2 * w, tp - j - w, cp // k))
            best = max(best, total)
        return best

    return f
