"""Exact numeric kernel: fraction-free elimination and an integer simplex LP solver.

Integers are plain Python ints (arbitrary precision); no float is used.
`lp_minimize`, the one function that builds a rational, returns
``fractions.Fraction`` values and imports `fractions` itself, so `verify`,
`standard` and `q` load neither it nor `decimal` (2 ms of start-up).

Elimination is fraction-free (Bareiss, 1968).  `push` eliminates a vector
against the rows pushed before it: with pivots p_0 = 1, p_1, ..., the step
against row j, pivot column c_j, is (p_(j+1) v - v[c_j] row_j) / p_j, an
exact division by Sylvester's determinant identity (the quotient is a
minor).  The first nonzero entry left is the new row's pivot, and a vector
that eliminates to zero, dependent on the rows below, is refused.  After k
rows, a vector's entry in a column that no row pivots on is phi . v, its
`cofactor` form: phi is orthogonal to every row, p_k on that column and 0
on the other free ones, so back-substitution gives it, each division exact
(phi holds cofactors) and checked by `exact_quotient`, which raises
ArithmeticError.  With alpha and beta the forms of two free columns, one
more Bareiss step gives alpha(u) beta(v) - beta(u) alpha(v) =
+-p_k det(the k rows' vectors, u, v), by the same identity.
`elimination_stems` walks the independent subsets of a list of m-vectors
by `push` and yields each one of m - 2 vectors, a stem, with its two forms:
the V search (`fbounds`) with its canonicity test as a hook, the
triangle-cross-square scan (`trisquare`) with none.

`det` keeps its in-place elimination with row swaps: through `push`, which
copies a row per step, the 7-cube's 5,040 8x8 determinants took 336 ms
instead of 187 (2 vCPUs, Python 3.11).  `scaled_inverse` stays the
adjugate by minors: it shares no code with the walk, so the tests hold
`center_in_facet` to it, and perfbench traces it under this name.

The LP solver is a dense simplex.  It takes only integer programs that
x = 0 satisfies, that is, with every rhs <= 0: the cover LP as its dual
(`lptable`) and the overlap LP written homogeneously (`verifier`).  A row
row . x >= rhs is written as -row . x + s = -rhs with its surplus s >= 0, a
unit column, and -rhs >= 0, so the surpluses form a feasible starting
basis: an identity matrix, with denominator D = 1.  There is no phase 1
and no status "infeasible", and an unbounded LP raises ValueError, so
every solve that returns returns an optimum.  `LpProblem` refuses any
entry that is not an int.

The tableau is fraction-free as well (the Bareiss/Edmonds
common-denominator form): the solver keeps an integer tableau T with one
denominator D > 0 for every entry, so the rational tableau is T / D.  D is
the absolute determinant of the current basis matrix, and by Cramer's rule
every T[i][j] is plus or minus a minor of the integer constraint matrix (the
basis with one column replaced).
Pivoting on (r, c) with p = T[r][c] keeps row r, sets D to p and replaces
every other row by (T[i][j]·p − T[i][c]·T[r][j]) / D.  That division is exact
by Sylvester's identity as above: the quotient is the corresponding minor
for the new basis, an integer.  The ratio test only picks a positive p, so
D stays positive.

`lp_minimize` runs one simplex loop from that basis.  The reduced costs
times D ride along as one more row of T, and it starts as the integer cost
vector over the rhs column's 0: the surplus basis costs nothing and D = 1,
so there is nothing to price.  Entry j is c_j·D − Σ_i c_B(i)·T[i][j], which
by Cramer's rule is plus or minus a minor of the constraint matrix bordered
below by the cost row: the basis and the cost row's basic part, with column
j appended.  The cost row is never a pivot row, so each pivot updates it by
the same formula as any other row, and the division is exact by the same
identity on the bordered matrix.  Its rhs entry is −(cost . x)·D, so the
value is read from it; the solver checks that reading against cost . x over
the final basis and raises RuntimeError if they differ.  Pricing is one
scan of that row and ratio tests compare integers; ``Fraction`` appears
only in the returned value and solution.

The entering column is the most negative reduced cost, the lowest index on
ties; the leaving row is the least ratio, ties to the lowest basic column.
After a degenerate pivot (one whose ratio is 0) the entering column is
Bland's least index with a negative reduced cost instead, until a pivot
strictly lowers the objective again.  That terminates: a nondegenerate
pivot strictly lowers the objective, so no basis recurs across one, and
there are finitely many bases; a run of degenerate pivots follows Bland's
rule from its second pivot on, and Bland's rule cannot cycle from any
basis, so every such run ends.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Sequence

from .record import Record

if TYPE_CHECKING:
    from fractions import Fraction


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


def exact_quotient(a: int, b: int) -> int:
    """a / b for a division that must be exact; ArithmeticError if it is not."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"division of {a} by {b} is not exact")
    return q


def push(level: int, rows: list[list[int]], cols: list[int], pivots: list[int],
         vec: Sequence[int]) -> bool:
    """Eliminate vec against rows[:level] and store it as row `level`, with
    its pivot column and pivot in cols[level] and pivots[level + 1]
    (pivots[0] is 1); False, storing nothing, if it eliminates to zero."""
    v = list(vec)
    for j in range(level):
        row, c, p, prev = rows[j], cols[j], pivots[j + 1], pivots[j]
        x = v[c]
        if x or p != prev:
            v = [(p * a - x * b) // prev for a, b in zip(v, row)]
    for c, x in enumerate(v):
        if x:
            rows[level], cols[level], pivots[level + 1] = v, c, x
            return True
    return False


def cofactor(k: int, rows: list[list[int]], cols: list[int], pivots: list[int],
             free: int) -> list[int]:
    """phi with phi . v = v's entry in column `free` once `push` eliminates
    it against rows[:k], none of which pivots on `free`; rows has one slot
    per coordinate."""
    phi = [0] * len(rows)
    phi[free] = pivots[k]
    for j in range(k - 1, -1, -1):
        phi[cols[j]] = exact_quotient(-sum(map(operator.mul, rows[j], phi)), pivots[j + 1])
    return phi


def elimination_stems(vecs: Sequence[Sequence[int]], start: int = 0,
                      admit: Callable[[Any, int], Any] | None = None, state: Any = None
                      ) -> Iterator[tuple[tuple[int, ...], list[int], list[int], int, int]]:
    """The stems of a depth-first search over independent subsets of `vecs`.

    vecs are n integer vectors of one length m >= 2.  The search `push`es
    indices from `start` on in increasing order, cuts one that eliminates
    to zero (it and every superset are dependent) and stops m - 2 deep.  It
    yields, in lexicographic order, (prefix, alpha, beta, p, start') for
    each independent prefix of m - 2 indices that leaves two after it (its
    last is at most n - 3): alpha and beta are the `cofactor` forms of the
    columns f1 < f2 that no row pivots on, p is the last pivot and start'
    is one past the last index.  The m-subset prefix + (u, v),
    start' <= u < v, has |det| = |alpha(u) beta(v) - beta(u) alpha(v)| / |p|.

    With an admission hook, index v extends a prefix only when
    admit(prefix's state, v) returns a state other than None, which the
    longer prefix carries; the empty prefix carries `state`.  The hook is
    asked before the elimination.
    """
    m = len(vecs[0])
    depth = m - 2
    n = len(vecs)
    chosen: list[int] = []
    rows: list[list[int]] = [[]] * m
    cols = [0] * m
    pivots = [1] * (m + 1)

    def search(level: int, start: int, state):
        if level == depth:
            f1, f2 = sorted(set(range(m)).difference(cols[:level]))
            yield (tuple(chosen), cofactor(level, rows, cols, pivots, f1),
                   cofactor(level, rows, cols, pivots, f2), pivots[level], start)
            return
        # index v leaves depth - level - 1 more stem indices and a pair after it
        for v in range(start, n - 1 - depth + level):
            grown = state
            if admit is not None and (grown := admit(state, v)) is None:
                continue
            if push(level, rows, cols, pivots, vecs[v]):
                chosen.append(v)
                yield from search(level + 1, v + 1, grown)
                chosen.pop()

    return search(0, start, state)


class LpProblem(Record):
    """min objective . x  subject to  row . x >= rhs for every constraint, x >= 0.

    Every entry is an int; a Fraction, a float or a bool raises ValueError.
    """

    __slots__ = ("objective", "constraints")
    objective: tuple[int, ...]
    constraints: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, objective: Sequence[int],
                 constraints: Sequence[tuple[Sequence[int], int]]):
        objective = tuple(objective)
        constraints = tuple((tuple(row), rhs) for row, rhs in constraints)
        for row, _ in constraints:
            if len(row) != len(objective):
                raise ValueError("constraint row length does not match objective")
        if any(type(v) is not int for v in objective) or any(
                type(v) is not int for row, rhs in constraints for v in (*row, rhs)):
            raise ValueError("every LP entry must be an int")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", constraints)


class LpResult(NamedTuple):
    value: Fraction
    solution: tuple[Fraction, ...]


def _pivot(tab: list[list[int]], basis: list[int], d: int, row: int, col: int) -> int:
    """Pivot the integer tableau over denominator d on (row, col); return the new one.

    Every other row i, the reduced-cost row included, becomes
    (T[i]·p − T[i][col]·T[row]) / d with p = T[row][col], an exact division;
    the pivot row stays and p > 0 becomes the denominator.
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


def lp_minimize(problem: LpProblem) -> LpResult:
    """Exact optimum of an LP in >=/nonnegative form that x = 0 satisfies.

    Raises ValueError on a row with rhs > 0 and on an unbounded LP.  The
    solution satisfies every constraint exactly over the rationals.
    """
    from fractions import Fraction

    n = len(problem.objective)
    m = len(problem.constraints)
    if any(rhs > 0 for _, rhs in problem.constraints):
        raise ValueError("lp_minimize needs x = 0 to be feasible: every rhs must be <= 0")

    # Columns: n structural, m surplus (the starting basis), then -rhs.
    tab: list[list[int]] = []
    for i, (row, rhs) in enumerate(problem.constraints):
        line = [-v for v in row] + [0] * m + [-rhs]
        line[n + i] = 1
        tab.append(line)
    basis = [n + i for i in range(m)]
    cost = list(problem.objective) + [0] * m
    # the reduced costs times d: the surplus basis costs nothing and d = 1
    tab.append(cost + [0])
    d = 1
    bland = False
    while True:
        reduced = tab[m][:-1]
        if bland:
            entering = next((j for j, r in enumerate(reduced) if r < 0), -1)
        else:
            least = min(reduced, default=0)
            entering = reduced.index(least) if least < 0 else -1
        if entering < 0:
            break
        # ratio test T[i][-1] / T[i][entering] by cross-multiplication (d cancels)
        leaving = -1
        for i in range(m):
            line = tab[i]
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
            raise ValueError("the LP is unbounded")
        # a zero ratio leaves the objective where it is: a degenerate pivot
        bland = tab[leaving][-1] == 0
        d = _pivot(tab, basis, d, leaving, entering)
    scaled_value = -tab.pop()[-1]
    # the carried row must agree with the basis: cost . x_B, both times d
    if scaled_value != sum(cost[b] * line[-1] for line, b in zip(tab, basis)):
        raise RuntimeError("reduced-cost row disagrees with the basic solution")
    x = [Fraction(0)] * n
    for line, b in zip(tab, basis):
        if b < n:
            x[b] = Fraction(line[-1], d)
    return LpResult(Fraction(scaled_value, d), tuple(x))
