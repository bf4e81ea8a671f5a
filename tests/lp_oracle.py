"""Reference LP oracle: the dense two-phase simplex over ``Fraction``.

This is the rational tableau the integer kernel in ``simplotope.exact``
replaced, with the phase 1 that the kernel does not have.  It solves any LP
in the kernel's form, with any rational entries (an `LpProblem`, or a
`RationalLp` for the tests' LPs that are not integral), and returns a
status with its result (`OracleResult`): rows with rhs <= 0 are negated and start on their
surplus, rows with rhs > 0 start on an artificial, and phase 1 (minimize
the artificials) decides feasibility before phase 2.  On the LPs the kernel
accepts, every rhs is <= 0, so there is no artificial and no phase 1, and
phase 2 starts from the kernel's basis in the same standard form.  It
prices by Bland's least index throughout, where the kernel takes the most
negative reduced cost, so the two may pivot differently; the tests compare
value and solution, and that the kernel raises exactly where the oracle
says unbounded, and on every LP they compare both reach the same optimal
vertex.  The tests also use it directly on
LPs that need phase 1, such as primal cover LPs and the normalized overlap
LP.  It is kept only for the tests.

`pareto_columns` is the pairwise dominance filter that the cover LP once
ran on all of its class columns; the tests check that the breakpoint
columns `lptable.build_lp` builds are exactly its front.
"""

from fractions import Fraction
from typing import NamedTuple

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


class RationalLp(NamedTuple):
    """An LP of `simplotope.exact.LpProblem`'s form with any rational entries."""
    objective: tuple
    constraints: tuple


class OracleResult(NamedTuple):
    status: str
    value: Fraction | None
    solution: tuple[Fraction, ...] | None

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    inv = 1 / tab[row][col]
    tab[row] = [x * inv if x else x for x in tab[row]]
    prow = tab[row]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            # a zero of the pivot row leaves the entry as it is
            tab[i] = [x - f * y if y else x for x, y in zip(tab[i], prow)]
    basis[row] = col


def _simplex_phase(tab: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> str:
    m = len(tab)
    ncols = len(tab[0]) - 1
    while True:
        priced = [(cost[b], line) for b, line in zip(basis, tab) if cost[b]]
        entering = -1
        for j in range(ncols):
            rc = cost[j]
            for cb, line in priced:
                if line[j]:
                    rc -= cb * line[j]
            if rc < 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED
        _pivot(tab, basis, leaving, entering)


def fraction_lp_minimize(problem) -> OracleResult:
    """``simplotope.exact.lp_minimize`` for any rhs, with status infeasible too."""
    n = len(problem.objective)
    m = len(problem.constraints)
    if m == 0:
        if any(c < 0 for c in problem.objective):
            return OracleResult(UNBOUNDED, None, None)
        return OracleResult(OPTIMAL, ZERO, (ZERO,) * n)

    # rows with rhs <= 0 are negated and start on their surplus; rows with
    # rhs > 0 start on an artificial, numbered in row order after the surpluses
    live = n + m
    needy = [i for i, (_, rhs) in enumerate(problem.constraints) if rhs > 0]
    ncols = live + len(needy)
    tab: list[list[Fraction]] = []
    basis = [n + i for i in range(m)]
    for i, (row, rhs) in enumerate(problem.constraints):
        line = [ZERO] * (ncols + 1)
        sgn = ONE if rhs > 0 else -ONE
        for j, c in enumerate(row):
            line[j] = sgn * c
        line[n + i] = -sgn
        line[ncols] = sgn * rhs
        tab.append(line)
    if needy:
        for k, i in enumerate(needy):
            tab[i][live + k] = ONE
            basis[i] = live + k
        phase1 = [ZERO] * live + [ONE] * len(needy)
        if _simplex_phase(tab, basis, phase1) != OPTIMAL:
            raise RuntimeError("phase 1 is bounded below by 0")
        p1value = sum((tab[i][-1] for i in range(m) if basis[i] >= live), ZERO)
        if p1value != 0:
            return OracleResult(INFEASIBLE, None, None)
        for i in range(m):
            if basis[i] >= live:
                for j in range(live):
                    if tab[i][j] != 0:
                        _pivot(tab, basis, i, j)
                        break
        tab = [tab[i][:live] + [tab[i][-1]] for i in range(m) if basis[i] < live]
        basis = [b for b in basis if b < live]
    phase2 = [Fraction(c) for c in problem.objective] + [ZERO] * m
    if _simplex_phase(tab, basis, phase2) == UNBOUNDED:
        return OracleResult(UNBOUNDED, None, None)
    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    value = sum((c * v for c, v in zip(problem.objective, x)), ZERO)
    return OracleResult(OPTIMAL, value, tuple(x))


def pareto_columns(columns: list[tuple[int, ...]]) -> list[int]:
    """Indices, ascending, of the columns that no other column dominates.

    Columns are visited by decreasing coefficient sum, so a column can only be
    dominated by one visited before it; of equal columns the first is kept.
    """
    order = sorted(range(len(columns)), key=lambda j: -sum(columns[j]))
    kept: list[int] = []
    for j in order:
        col = columns[j]
        if not any(all(a >= b for a, b in zip(columns[i], col)) for i in kept):
            kept.append(j)
    return sorted(kept)
