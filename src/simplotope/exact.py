"""Exact numeric kernel: integer determinants and an integer simplex LP solver.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always normalized, positive denominator).  The
determinant uses fraction-free Bareiss elimination, so intermediate values
stay integral.

The LP solver is a dense two-phase simplex with Bland's least-index rule,
which guarantees termination on the small, often degenerate programs this
package produces.  It starts from the slack basis wherever it can.  A row
row . x >= rhs with rhs <= 0 is written as -row . x + s = -rhs with its
surplus s >= 0.  The surplus column is a unit column and -rhs >= 0, so
x = 0, s = -rhs satisfies the row, and s starts in the basis.  Only a row
with rhs > 0, which x = 0 violates, gets an artificial variable, and phase 1
(minimize the artificials) runs only when such a row exists.  The starting
basis is an identity matrix either way, so the starting denominator is
D = 1.  Bland's rule terminates from any feasible basis: its proof derives
a contradiction at the largest-index variable that enters and leaves within
a cycle of pivots, and uses nothing of how the first basis was found, so
phase 2 started directly from the slack basis terminates as it does after
phase 1.

The tableau is fraction-free as well (the Bareiss/Edmonds
common-denominator form): each constraint row is scaled to integers, and the
solver keeps an integer tableau T with one denominator D > 0 for every entry,
so the rational tableau is T / D.  D is the absolute determinant of the
current basis matrix, and by Cramer's rule every T[i][j] is plus or minus a
minor of the integer constraint matrix (the basis with one column replaced).
Pivoting on (r, c) with p = T[r][c] keeps row r, sets D to p and replaces
every other row by (T[i][j]·p − T[i][c]·T[r][j]) / D.  That division is exact
because, by Sylvester's determinant identity (Bareiss's argument), the
quotient is the corresponding minor for the new basis, an integer.  A
negative p negates all rows, which keeps D positive.  Reduced costs and
ratio tests compare integers; ``Fraction`` appears only in the returned value
and solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
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


@dataclass(frozen=True)
class LpProblem:
    """min objective . x  subject to  row . x >= rhs for every constraint, x >= 0."""

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self):
        n = len(self.objective)
        for row, _ in self.constraints:
            if len(row) != n:
                raise ValueError("constraint row length does not match objective")

    @staticmethod
    def build(objective, constraints) -> "LpProblem":
        obj = tuple(Fraction(c) for c in objective)
        cons = tuple((tuple(Fraction(c) for c in row), Fraction(b)) for row, b in constraints)
        return LpProblem(obj, cons)


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None
    solution: tuple[Fraction, ...] | None


ZERO = Fraction(0)


def _pivot(tab: list[list[int]], basis: list[int], d: int, row: int, col: int) -> int:
    """Pivot the integer tableau over denominator d on (row, col); return the new one.

    Every other row i becomes (T[i]·p − T[i][col]·T[row]) / d with p = T[row][col],
    an exact division; the pivot row stays and p becomes the denominator.  A
    negative p (only an artificial drive-out picks one) negates every row so
    that the denominator stays positive.
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
    if p < 0:
        tab[:] = [[-x for x in line] for line in tab]
        p = -p
    return p


def _simplex_phase(tab: list[list[int]], basis: list[int], d: int,
                   cost: list[int]) -> tuple[str, int]:
    """Minimize cost over the tableau in place; Bland's rule, so it terminates.

    Returns the status and the final denominator.
    """
    ncols = len(tab[0]) - 1
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
    """Exact optimum of an LP in >=/nonnegative form; see LpProblem.

    Returns status optimal/infeasible/unbounded; when optimal, the solution
    satisfies every constraint exactly over the rationals.
    """
    n = len(problem.objective)
    m = len(problem.constraints)
    if m == 0:
        # x = 0 is feasible; negative objective coefficients make it unbounded.
        if any(c < 0 for c in problem.objective):
            return LpResult(UNBOUNDED, None, None)
        return LpResult(OPTIMAL, ZERO, (ZERO,) * n)

    # Standard form: row . x - surplus = rhs.  A row with rhs <= 0 is negated
    # to -row . x + surplus = -rhs >= 0, so its surplus starts in the basis; a
    # row with rhs > 0 gets an artificial that starts there instead (see the
    # module docstring).  Columns: n structural, m surplus, one artificial per
    # row with rhs > 0, then the rhs.  Row i is scaled by the lcm L_i of its
    # denominators, which makes its surplus and artificial stand for L_i
    # times the unscaled ones.
    live = n + m
    needy = [i for i, (_, rhs) in enumerate(problem.constraints) if rhs > 0]
    width = live + len(needy)
    tab: list[list[int]] = []
    basis = [n + i for i in range(m)]
    scales = []
    for i, (row, rhs) in enumerate(problem.constraints):
        scale = math.lcm(rhs.denominator, *(c.denominator for c in row))
        sgn = 1 if rhs > 0 else -1
        *coeffs, b = (sgn * v for v in _scaled((*row, rhs), scale))
        line = coeffs + [0] * (width - n) + [b]
        line[n + i] = -sgn
        tab.append(line)
        scales.append(scale)
    d = 1
    if needy:
        for k, i in enumerate(needy):
            tab[i][live + k] = 1
            basis[i] = live + k
        # Weighting artificial i by lcm(L)/L_i minimizes the unscaled sum of
        # artificials: every reduced cost and ratio keeps its sign and order,
        # so the pivots are those of the unscaled rational tableau.
        common = math.lcm(*(scales[i] for i in needy))
        phase1 = [0] * live + [common // scales[i] for i in needy]
        status, d = _simplex_phase(tab, basis, d, phase1)
        if status != OPTIMAL:
            raise RuntimeError("phase 1 came out unbounded, but it is bounded below by 0")
        if sum(line[-1] for line, b in zip(tab, basis) if b >= live) != 0:
            return LpResult(INFEASIBLE, None, None)
        # Drive any residual zero-level artificials out of the basis.
        for i in range(m):
            if basis[i] >= live:
                for j in range(live):
                    if tab[i][j] != 0:
                        d = _pivot(tab, basis, d, i, j)
                        break
        # Artificials leave the tableau, with any row still holding one.
        tab = [line[:live] + line[-1:] for line, b in zip(tab, basis) if b < live]
        basis = [b for b in basis if b < live]
    obj_scale = math.lcm(*(c.denominator for c in problem.objective))
    phase2 = _scaled(problem.objective, obj_scale) + [0] * m
    status, d = _simplex_phase(tab, basis, d, phase2)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    x = [ZERO] * n
    for line, b in zip(tab, basis):
        if b < n:
            x[b] = Fraction(line[-1], d)
    value = sum((c * v for c, v in zip(problem.objective, x)), ZERO)
    return LpResult(OPTIMAL, value, tuple(x))
