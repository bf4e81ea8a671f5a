"""Exact numeric kernel: integer determinants and an integer simplex LP solver.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always normalized, positive denominator).  The
determinant uses fraction-free Bareiss elimination, so intermediate values
stay integral.

The LP solver is a dense simplex with Bland's least-index rule, which
guarantees termination on the small, often degenerate programs this
package produces.  It takes only programs that x = 0 satisfies, that is,
with every rhs <= 0: the cover LP as its dual (`lptable`) and the overlap
LP written homogeneously (`verifier`).  A row row . x >= rhs is written as
-row . x + s = -rhs with its surplus s >= 0, a unit column, and -rhs >= 0,
so the surpluses form a feasible starting basis: an identity matrix, with
denominator D = 1.  There is no phase 1 and no status "infeasible".
Bland's rule terminates from any feasible basis.

The tableau is fraction-free as well (the Bareiss/Edmonds
common-denominator form): each constraint row is scaled to integers, and the
solver keeps an integer tableau T with one denominator D > 0 for every entry,
so the rational tableau is T / D.  D is the absolute determinant of the
current basis matrix, and by Cramer's rule every T[i][j] is plus or minus a
minor of the integer constraint matrix (the basis with one column replaced).
Pivoting on (r, c) with p = T[r][c] keeps row r, sets D to p and replaces
every other row by (T[i][j]·p − T[i][c]·T[r][j]) / D.  That division is exact
because, by Sylvester's determinant identity (Bareiss's argument), the
quotient is the corresponding minor for the new basis, an integer.  The
ratio test only picks a positive p, so D stays positive.  Reduced costs and
ratio tests compare integers; ``Fraction`` appears only in the returned value
and solution.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .record import Record

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det requires a square matrix")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                # Bareiss one-step: the division by the previous pivot is exact.
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def scaled_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """Return (det, adjugate) of an integer matrix, so inverse = adj / det.

    The adjugate is taken by cofactors: adj[i][j] = (-1)^(i+j) times the
    determinant of the matrix without row j and column i.  Raises ValueError
    when the matrix is singular.
    """
    rows = [tuple(r) for r in rows]
    d = det(rows)
    if d == 0:
        raise ValueError("matrix is singular")
    n = len(rows)
    adj = [[(-1) ** (i + j) * det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            for j in range(n)] for i in range(n)]
    return d, adj


class LpProblem(Record):
    """min objective . x  subject to  row . x >= rhs for every constraint, x >= 0."""

    __slots__ = ("objective", "constraints")
    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __init__(self, objective: tuple[Fraction, ...],
                 constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]):
        n = len(objective)
        for row, _ in constraints:
            if len(row) != n:
                raise ValueError("constraint row length does not match objective")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", constraints)

    @staticmethod
    def build(objective, constraints) -> "LpProblem":
        obj = tuple(Fraction(c) for c in objective)
        cons = tuple((tuple(Fraction(c) for c in row), Fraction(b)) for row, b in constraints)
        return LpProblem(obj, cons)


class LpResult(NamedTuple):
    status: str
    value: Fraction | None
    solution: tuple[Fraction, ...] | None


ZERO = Fraction(0)


def _pivot(tab: list[list[int]], basis: list[int], d: int, row: int, col: int) -> int:
    """Pivot the integer tableau over denominator d on (row, col); return the new one.

    Every other row i becomes (T[i]·p − T[i][col]·T[row]) / d with p = T[row][col],
    an exact division; the pivot row stays and p > 0 becomes the denominator.
    """
    p = tab[row][col]
    prow = tab[row]
    for i, line in enumerate(tab):
        if i == row:
            continue
        f = line[col]
        if f:
            tab[i] = [(x * p - f * y) // d for x, y in zip(line, prow)]
        elif p != d:
            tab[i] = [x * p // d for x in line]
    basis[row] = col
    return p


def _simplex_phase(tab: list[list[int]], basis: list[int], d: int,
                   cost: list[int]) -> tuple[str, int]:
    """Minimize cost over the tableau in place from its feasible basis; Bland's
    rule, so it terminates.

    Returns the status and the final denominator.  The width comes from
    cost, so a tableau without rows works too.
    """
    ncols = len(cost)
    while True:
        # reduced cost of column j, times d > 0: c_j·d − Σ_i c_B(i)·T[i][j]
        priced = [(cost[b], line) for b, line in zip(basis, tab) if cost[b]]
        entering = -1
        for j in range(ncols):
            if cost[j] * d < sum(cb * line[j] for cb, line in priced):
                entering = j
                break
        if entering < 0:
            return OPTIMAL, d
        # ratio test T[i][-1] / T[i][entering] by cross-multiplication (d cancels)
        leaving = -1
        for i, line in enumerate(tab):
            a = line[entering]
            if a > 0:
                if leaving < 0:
                    leaving = i
                    continue
                lhs = line[-1] * tab[leaving][entering]
                rhs = tab[leaving][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            return UNBOUNDED, d
        d = _pivot(tab, basis, d, leaving, entering)


def _scaled(values, scale: int) -> list[int]:
    """Rationals (or ints) times a common multiple of their denominators."""
    return [v.numerator * (scale // v.denominator) for v in values]


def lp_minimize(problem: LpProblem) -> LpResult:
    """Exact optimum of an LP in >=/nonnegative form that x = 0 satisfies.

    Raises ValueError on a row with rhs > 0.  Returns status optimal or
    unbounded; when optimal, the solution satisfies every constraint exactly
    over the rationals.
    """
    n = len(problem.objective)
    m = len(problem.constraints)
    if any(rhs > 0 for _, rhs in problem.constraints):
        raise ValueError("lp_minimize needs x = 0 to be feasible: every rhs must be <= 0")

    # Columns: n structural, m surplus (the starting basis), then -rhs.  Row
    # i is scaled by the lcm of its denominators, and its surplus with it.
    tab: list[list[int]] = []
    for i, (row, rhs) in enumerate(problem.constraints):
        scale = math.lcm(rhs.denominator, *(c.denominator for c in row))
        *coeffs, b = (-v for v in _scaled((*row, rhs), scale))
        line = coeffs + [0] * m + [b]
        line[n + i] = 1
        tab.append(line)
    basis = [n + i for i in range(m)]
    obj_scale = math.lcm(*(c.denominator for c in problem.objective))
    cost = _scaled(problem.objective, obj_scale) + [0] * m
    status, d = _simplex_phase(tab, basis, 1, cost)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    x = [ZERO] * n
    for line, b in zip(tab, basis):
        if b < n:
            x[b] = Fraction(line[-1], d)
    value = sum((c * v for c, v in zip(problem.objective, x)), ZERO)
    return LpResult(OPTIMAL, value, tuple(x))
