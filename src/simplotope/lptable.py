"""Lower bounds on cover sizes of segment/triangle products via an exact LP.

For each (s, t), any cover's class counts x_c must supply enough exterior
faces to cover every family of (s', t')-faces: summed over classes,
c * x_c * F(s, t, c, s', t', c) / (s'+2t')!  must reach  Q(s, t, s', t') / 2^t'.
Minimizing sum x_c over those inequalities (one per (s', t') with
0 <= t' <= t, 0 <= s' <= s+t-t') gives a lower bound; its ceiling is the
reported table entry since the x_c are cardinalities.

The (s', t') = (0, 0) inequality is omitted: with F's vertex count there
it would overshoot the reference table, and dropping a constraint only
weakens the minimum, so the reported bounds stay valid.  Each row is
multiplied by (s'+2t')!, which leaves the coefficients c * F as they are
and makes the requirement Q * (s'+2t')! / 2^t' an integer as well: the t'
even factors 2, 4, ..., 2t' of (2t')! give 2^t' | (2t')!, and (2t')!
divides (s'+2t')!.  So the cover LP and its dual hold ints only, as
`exact.LpProblem` requires.

Only the breakpoint classes become columns.  `build_lp` reads diagonal
keys F(s, t, c, s', t', c) alone, and on that family F is piecewise
constant in c, by induction on the dimension:

- On a diagonal key the shadow class is c/c' = 1, so the recurrence has
  the single divisor pair k = c.  It reads only the diagonal footprints
  F(s', t', c, i, j, c) and class-1 shadows, and a class-1 shadow does not
  depend on c.
- For c > 1, c therefore enters only through the class-overflow tests
  c > V(.) on sub-shapes (i, j).  Every sub-shape is itself one of the
  cell's constraint rows (0 <= j <= t' <= t and i + j <= s' + t' <= s + t),
  or the 0-face shape, where F is 0 for every c > 1.
- So with b_1 < b_2 < ... the classes {1, V(s, t)} together with every
  V(s', t') < V(s, t) over the cell's rows, column c equals c times one
  fixed nonnegative vector on each interval (b_(k-1), b_k].  The top class
  b_k dominates every other class of its interval: moving x_c onto x_(b_k)
  keeps every >= row satisfied at the same cost, and dually a y >= 0 with
  A_(b_k) . y <= 1 has A_c . y <= 1 for every c in the interval, so the
  LP on the breakpoint columns has the full LP's optimum and its dual
  certificate certifies the full one.

That makes at most one column per distinct V value up to V(s, t): 10 at
d = 10 and 13 at d = 13, where the full LP has 320 and 9,477 class columns.
Distinct breakpoints give distinct columns (they differ on the full row
(s', t') = (s, t), where F = 1).  Through d = 13 the breakpoint columns
are exactly the Pareto front of all class columns, in class order, so the
solver gets the LP it got when that front was computed by pairwise
comparison (tier-1 checks this through d = 10).  No V value outside the
cell's own rows is read, and a row with a positive requirement has a
positive entry in some class exactly when it has one at the top of that
class's interval, so the support check (InconsistentCellError) is the full
LP's.

The cover LP min 1.x subject to Ax >= b, x >= 0 is solved as its dual,
max b.y subject to A^T y <= 1, y >= 0, passed to `exact.lp_minimize` as
min -b.y subject to -A^T y >= -1 (`dual_lp`).  Every right-hand side of
that form is -1, so y = 0 is feasible, as the solver requires, and it
starts from its slack basis there; the primal, with b > 0 in nearly every
row, is infeasible at x = 0 and would need a phase 1 that the solver does
not have.  The cell value is minus the dual optimum, and strong duality
makes it exactly the primal optimum: the primal is feasible (every entry
of A is >= 0, and `build_lp` raises InconsistentCellError unless each row
with b > 0 has a positive entry, so a large enough x satisfies every row)
and bounded below by 0, so both programs have optima and they are equal.
The dual solve's `solution` is y itself: y >= 0 with A^T y <= 1 and
b.y = lp_value, the dual certificate of the breakpoint LP that the
dominance argument above extends to the full one.  It is not yet printed,
nor checked by a command of its own.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from .counting import q_count
from .exact import LpProblem, lp_minimize
from .fbounds import DEFAULT_VTABLE, VMaxUnavailable, VTable


# The skip reason of a cell past the dimension cap: the one skip that is not an error.
BEYOND_DIM_CAP = "beyond dimension cap"


class InconsistentCellError(Exception):
    """A constraint with no support but a positive requirement: F/Q disagree."""


class BoundCell(NamedTuple):
    s: int
    t: int
    lp_value: Fraction
    lower_bound: int
    v_used: int
    v_provenance: str
    n_constraints: int


class BoundsTable(NamedTuple):
    max_s: int
    max_t: int
    dim_cap: int
    cells: tuple[BoundCell, ...]
    skipped: tuple[tuple[int, int, str], ...]

    def to_csv(self) -> str:
        lines = ["s,t,lp_value,lower_bound,v_used"]
        for c in self.cells:
            lines.append(f"{c.s},{c.t},{c.lp_value},{c.lower_bound},{c.v_used}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "max_s": self.max_s,
            "max_t": self.max_t,
            "dim_cap": self.dim_cap,
            "cells": [
                {
                    "s": c.s,
                    "t": c.t,
                    "lp_value": str(c.lp_value),
                    "lower_bound": c.lower_bound,
                    "v_used": c.v_used,
                    "v_provenance": c.v_provenance,
                    "constraints": c.n_constraints,
                }
                for c in self.cells
            ],
            "skipped": [{"s": s, "t": t, "reason": r} for s, t, r in self.skipped],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def constraint_pairs(s: int, t: int) -> list[tuple[int, int]]:
    """The (s', t') index range of the inequalities, without (0, 0)."""
    return [(sp, tp)
            for tp in range(0, t + 1)
            for sp in range(0, s + t - tp + 1)
            if (sp, tp) != (0, 0)]


def build_lp(s: int, t: int, vtable: VTable = DEFAULT_VTABLE) -> LpProblem:
    """The cover LP of (s, t) on its breakpoint class columns.

    Column c holds c * F(s, t, c, s', t', c) for each constraint pair (0
    where c > V(s', t'), by F's class convention), for c in 1, V(s, t) and
    every V(s', t') < V(s, t) over the rows, ascending:
    the top class of each interval on which F is constant in c, at most one
    column per distinct V value (see the module docstring).  A row that
    needs support no column gives raises InconsistentCellError.
    """
    if s < 0 or t < 0 or s + 2 * t < 1:
        raise ValueError("the LP needs a positive-dimensional simplotope")
    pairs = constraint_pairs(s, t)
    v_full = vtable.get(s, t).value
    v_rows = [vtable.get(sp, tp).value for sp, tp in pairs]
    classes = sorted({1, v_full}.union(v for v in v_rows if v < v_full))
    f = vtable.f
    columns = [[c * f(s, t, c, sp, tp, c) for sp, tp in pairs] for c in classes]
    rhs = [q_count(s, t, sp, tp) * (math.factorial(sp + 2 * tp) // 2 ** tp)
           for sp, tp in pairs]
    for row, (sp, tp) in enumerate(pairs):
        if rhs[row] > 0 and not any(col[row] for col in columns):
            raise InconsistentCellError(
                f"(s,t)=({s},{t}) constraint (s',t')=({sp},{tp}) has no support")
    rows = [([col[row] for col in columns], b) for row, b in enumerate(rhs)]
    return LpProblem([1] * len(classes), rows)


def dual_lp(problem: LpProblem) -> LpProblem:
    """The dual of min c.x, Ax >= b, x >= 0 (max b.y, A^T y <= c, y >= 0) in
    the solver's form: min -b.y subject to -A^T y >= -c, y >= 0."""
    rows = [row for row, _ in problem.constraints]
    return LpProblem([-b for _, b in problem.constraints],
                     [([-row[j] for row in rows], -c) for j, c in enumerate(problem.objective)])


def solve_cell(s: int, t: int, vtable: VTable = DEFAULT_VTABLE) -> BoundCell:
    """Exact LP optimum for one (s, t) cell; the bound is its ceiling.

    The cover LP is solved as its dual, which starts from a feasible basis
    (see the module docstring); the cell value is minus the dual optimum.
    """
    problem = build_lp(s, t, vtable)
    value = -lp_minimize(dual_lp(problem)).value
    entry = vtable.get(s, t)
    return BoundCell(
        s=s,
        t=t,
        lp_value=value,
        lower_bound=math.ceil(value),
        v_used=entry.value,
        v_provenance=entry.provenance,
        n_constraints=len(problem.constraints),
    )


def bounds_table(max_s: int, max_t: int, dim_cap: int,
                 vtable: VTable = DEFAULT_VTABLE) -> BoundsTable:
    """All cells with s <= max_s, t <= max_t, s + 2t <= dim_cap.

    Cells whose V value is unavailable (no brute force, no configured cap)
    are skipped and marked rather than guessed.
    """
    cells = []
    skipped = []
    for s in range(0, max_s + 1):
        for t in range(0, max_t + 1):
            if s + 2 * t > dim_cap:
                skipped.append((s, t, BEYOND_DIM_CAP))
                continue
            if s == 0 and t == 0:
                # the empty product is a point; one 0-simplex covers it
                entry = vtable.get(0, 0)
                cells.append(BoundCell(0, 0, Fraction(1), 1, entry.value, entry.provenance, 0))
                continue
            try:
                cells.append(solve_cell(s, t, vtable))
            except VMaxUnavailable as exc:
                skipped.append((s, t, str(exc)))
    return BoundsTable(max_s, max_t, dim_cap, tuple(cells), tuple(skipped))
