"""The cover-inequality LP and the lower-bound table."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from lp_oracle import OPTIMAL, RationalLp, fraction_lp_minimize, pareto_columns
from simplotope.counting import q_count
from simplotope.exact import LpProblem, lp_minimize
from simplotope.fbounds import DEFAULT_VTABLE, VTable, f_bound, load_cube_caps
from simplotope.lptable import (
    BEYOND_DIM_CAP,
    bounds_table,
    build_lp,
    constraint_pairs,
    dual_lp,
    solve_cell,
)

BOUNDS_D10_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "bounds_d10_expected.json"

TABLE_DIM6 = {
    (0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 5, (4, 0): 16, (5, 0): 60, (6, 0): 250,
    (0, 1): 1, (1, 1): 3, (2, 1): 9, (3, 1): 32, (4, 1): 119,
    (0, 2): 6, (1, 2): 20, (2, 2): 68,
    (0, 3): 50,
}


def test_constraint_pairs_range():
    assert constraint_pairs(1, 1) == [(1, 0), (2, 0), (0, 1), (1, 1)]
    assert (0, 0) not in constraint_pairs(3, 2)
    assert (5, 0) in constraint_pairs(3, 2)  # s' may exceed s


def test_lp_coefficients_are_f_bound():
    # build_lp reads VTable.f, the one F that f_bound and `simplotope fbound` report
    for s, t in [(1, 1), (3, 0), (2, 1), (0, 3), (4, 1)]:
        v = DEFAULT_VTABLE.get(s, t).value
        for sp, tp in constraint_pairs(s, t):
            for c in range(1, v + 1):
                assert DEFAULT_VTABLE.f(s, t, c, sp, tp, c) == f_bound(s, t, c, sp, tp, c)


def test_build_lp_cube():
    problem = build_lp(3, 0)
    assert len(problem.objective) == 2  # V(3,0) = 2
    rows = {tuple(r): rhs for r, rhs in problem.constraints}
    # (s',t')=(1,0): 3 x1 >= 12, the class-2 coefficient vanishes
    assert rows[(3, 0)] == 12
    # (s',t')=(3,0) scaled by 3!: x1 + 2 x2 >= 6
    assert rows[(1, 2)] == 6


def test_solve_cells_small():
    for (s, t), want in [((3, 0), 5), ((1, 1), 3), ((2, 1), 9), ((0, 2), 6)]:
        cell = solve_cell(s, t)
        assert cell.lower_bound == want
        assert cell.lower_bound == math.ceil(cell.lp_value)


def test_tri_square_cell_is_nine():
    cell = solve_cell(2, 1)
    assert cell.lp_value == 9 and cell.lower_bound == 9
    assert cell.v_used == 2


def test_dropping_constraints_never_increases():
    # the primal cover LP needs phase 1, so the Fraction oracle solves it
    problem = build_lp(2, 1)
    base = fraction_lp_minimize(problem).value
    top = max(range(len(problem.constraints)),
              key=lambda i: sum(problem.constraints[i][0]))
    for i in range(len(problem.constraints)):
        if i == top:
            continue
        reduced = LpProblem(problem.objective,
                            problem.constraints[:i] + problem.constraints[i + 1:])
        r = fraction_lp_minimize(reduced)
        assert r.status == OPTIMAL and r.value <= base


def test_row_scaling_invariance():
    # build_lp scales rows by (s'+2t')!; undoing the scaling cannot move the optimum
    problem = build_lp(1, 1)
    scaled_back = []
    for (sp, tp), (row, rhs) in zip(constraint_pairs(1, 1), problem.constraints):
        f = Fraction(1, math.factorial(sp + 2 * tp))
        scaled_back.append(([c * f for c in row], rhs * f))
    assert fraction_lp_minimize(RationalLp(problem.objective, scaled_back)).value \
        == fraction_lp_minimize(problem).value


def test_full_table_matches_reference_through_dim_six():
    table = bounds_table(6, 3, 6)
    assert len(table.cells) == len(TABLE_DIM6)
    for cell in table.cells:
        assert TABLE_DIM6[(cell.s, cell.t)] == cell.lower_bound, (cell.s, cell.t)


def test_point_cell():
    (cell,) = bounds_table(0, 0, 6).cells
    assert cell.lower_bound == 1 and cell.lp_value == 1


def test_skipped_cells_marked():
    from simplotope.fbounds import load_cube_caps

    caps = {d: v for d, v in load_cube_caps().items() if d <= 7}
    table = bounds_table(8, 0, 13, vtable=VTable(caps=caps))
    reasons = {(s, t): r for s, t, r in table.skipped}
    assert (8, 0) in reasons and "no cube cap" in reasons[(8, 0)]
    assert {(c.s, c.t): c.lower_bound for c in table.cells}[7, 0] == 1117


def test_cells_past_the_dimension_cap_carry_the_reason_bounds_forgives():
    # `simplotope bounds` exits 0 when every skip has this reason
    table = bounds_table(2, 1, 2)
    assert table.skipped == ((1, 1, BEYOND_DIM_CAP), (2, 1, BEYOND_DIM_CAP))
    assert '"reason": "beyond dimension cap"' in table.to_json()


# Every lp_value with s + 2t <= 6, t <= 2, as `simplotope bounds` prints it in a
# fresh process: with the packaged caps, and with the d = 4 cap lowered to 1.
LP_DIM6 = {
    (0, 0): "1", (1, 0): "1", (2, 0): "2", (3, 0): "5", (4, 0): "16", (5, 0): "60",
    (6, 0): "1248/5", (0, 1): "1", (1, 1): "3", (2, 1): "9", (3, 1): "159/5",
    (4, 1): "8912/75", (0, 2): "6", (1, 2): "20", (2, 2): "202/3",
}
LP_DIM6_D4_CAP_1 = {**LP_DIM6, (2, 2): "84", (3, 1): "204/5", (4, 0): "24",
                    (4, 1): "616/5", (5, 0): "312/5", (6, 0): "1296/5"}


def test_each_cap_table_has_its_own_memo():
    caps = load_cube_caps()
    caps[4] = 1
    for vtable, want in [(VTable(caps), LP_DIM6_D4_CAP_1), (DEFAULT_VTABLE, LP_DIM6),
                         (VTable(caps), LP_DIM6_D4_CAP_1), (DEFAULT_VTABLE, LP_DIM6)]:
        table = bounds_table(6, 2, 6, vtable=vtable)
        assert {(c.s, c.t): str(c.lp_value) for c in table.cells} == want


def full_lp(s, t):
    """The cover LP with every class column, written out from f_bound and q_count."""
    v = DEFAULT_VTABLE.get(s, t).value
    rows = [([c * f_bound(s, t, c, sp, tp, c) for c in range(1, v + 1)],
             q_count(s, t, sp, tp) * math.factorial(sp + 2 * tp) // 2 ** tp)
            for sp, tp in constraint_pairs(s, t)]
    return LpProblem([1] * v, rows)


CELLS_DIM10 = [(s, t) for t in range(6) for s in range(11 - 2 * t) if (s, t) != (0, 0)]


def columns_of(problem):
    return [tuple(row[j] for row, _ in problem.constraints) for j in range(len(problem.objective))]


def test_presolve_keeps_the_full_lp_optimum():
    # the breakpoint columns are the Pareto front of every class column, in
    # class order, so the LP keeps the full LP's rows and optimum
    assert len(CELLS_DIM10) == 35
    for s, t in CELLS_DIM10:
        full = full_lp(s, t)
        reduced = build_lp(s, t)
        columns = columns_of(full)
        assert columns_of(reduced) == [columns[j] for j in pareto_columns(columns)], (s, t)
        assert solve_cell(s, t).lp_value == -lp_minimize(dual_lp(full)).value, (s, t)
        assert [rhs for _, rhs in reduced.constraints] == [rhs for _, rhs in full.constraints]


def test_f_is_constant_between_breakpoints():
    # on the LP's diagonal keys, F(s, t, c, s', t', c) changes with c only
    # where c crosses a V value of the cell's own rows
    vt = VTable()
    for s, t in CELLS_DIM10:
        pairs = constraint_pairs(s, t)
        v_full = vt.get(s, t).value
        breaks = {1, v_full}.union(vt.get(*pair).value for pair in pairs)
        for sp, tp in pairs:
            for c in range(2, v_full + 1):
                top = min(b for b in breaks if b >= c)
                assert vt.f(s, t, c, sp, tp, c) == vt.f(s, t, top, sp, tp, top), (s, t, sp, tp, c)


def test_solve_cell_computes_v_only_on_its_rows():
    # the case study solves the (2, 1) cell; V(0, 3), the costliest search,
    # is not one of its rows and must stay uncomputed.  V(0, 0) is the
    # point, 1 without a search, read by F's 0-face shape.
    vt = VTable()
    solve_cell(2, 1, vt)
    assert set(vt._values) == set(constraint_pairs(2, 1)) | {(2, 1), (0, 0)}


def test_dual_solve_matches_the_primal():
    # solve_cell solves the dual of build_lp's LP; strong duality makes its
    # value the primal optimum, which the Fraction oracle's primal solve checks
    cells = [(s, t) for t in range(5) for s in range(9 - 2 * t) if (s, t) != (0, 0)]
    assert len(cells) == 24
    for s, t in cells:
        problem = build_lp(s, t)
        primal = fraction_lp_minimize(problem)
        assert primal.status == OPTIMAL
        assert solve_cell(s, t).lp_value == primal.value, (s, t)
        # the dual solution is a certificate: y >= 0, A^T y <= 1, b . y = value
        y = lp_minimize(dual_lp(problem)).solution
        rows = [row for row, _ in problem.constraints]
        assert all(v >= 0 for v in y)
        assert all(sum(row[j] * v for row, v in zip(rows, y)) <= 1
                   for j in range(len(problem.objective)))
        assert sum(b * v for (_, b), v in zip(problem.constraints, y)) == primal.value


def test_pareto_columns():
    cols = [(1, 0, 2), (2, 0, 2), (0, 3, 0), (2, 0, 2), (0, 0, 0), (1, 1, 1)]
    # (1,0,2) and (0,0,0) are dominated, the second (2,0,2) repeats the first
    assert pareto_columns(cols) == [1, 2, 5]


# Cells with s + 2t = 11 and 12 as this code computes them: regression values,
# not the paper's (its table stops at dimension 6).
TABLE_DIM11 = {(1, 5): 16251, (3, 4): 26838, (5, 3): 45958, (7, 2): 92047,
               (9, 1): 210993, (11, 0): 516465}
TABLE_DIM12 = {(0, 6): 49737, (2, 5): 72081, (4, 4): 118212, (6, 3): 208906,
               (8, 2): 426617, (10, 1): 1104387, (12, 0): 2906455}


def test_table_through_dimension_twelve():
    expected = json.loads(BOUNDS_D10_EXPECTED.read_text())["cells"]
    table = bounds_table(12, 6, 12)
    got = {(c.s, c.t): c for c in table.cells}
    assert len(got) == len(expected) + len(TABLE_DIM11) + len(TABLE_DIM12)
    for want in expected:
        cell = got[(want["s"], want["t"])]
        assert (str(cell.lp_value), cell.lower_bound) == (want["lp_value"], want["lower_bound"])
    assert {key: got[key].lower_bound for key in TABLE_DIM11} == TABLE_DIM11
    assert {key: got[key].lower_bound for key in TABLE_DIM12} == TABLE_DIM12


# The d = 13 row, the last dimension with a packaged cube cap, as this code
# computes it: regression values, not the paper's.
TABLE_DIM13 = {(13, 0): 16372399, (11, 1): 5636824, (9, 2): 2244134, (7, 3): 1110655,
               (5, 4): 550005, (3, 5): 347428, (1, 6): 227030}


def test_dimension_thirteen_row():
    assert {key: solve_cell(*key).lower_bound for key in TABLE_DIM13} == TABLE_DIM13


def test_csv_and_json_output():
    table = bounds_table(3, 1, 6)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "s,t,lp_value,lower_bound,v_used"
    assert "3,0,5,5,2" in csv
    assert "3,1,159/5,32,5" in csv
    doc = json.loads(table.to_json())
    cells = {(c["s"], c["t"]): c for c in doc["cells"]}
    assert cells[(1, 1)]["lower_bound"] == 3
    assert cells[(3, 1)]["lp_value"] == "159/5"
    assert table.to_json() == table.to_json()  # deterministic


def test_build_lp_keeps_its_entries_integral():
    # Q (s'+2t')! / 2^t' is an integer (2^t' divides (2t')!, which divides
    # (s'+2t')!), so the cover LP holds ints only, through the d = 13 row
    cells = [(s, t) for t in range(7) for s in range(14 - 2 * t) if (s, t) != (0, 0)]
    for s, t in cells:
        problem = build_lp(s, t)
        assert all(type(c) is int for c in problem.objective)
        for (row, rhs), (sp, tp) in zip(problem.constraints, constraint_pairs(s, t)):
            assert type(rhs) is int and all(type(c) is int for c in row), (s, t, sp, tp)
            q = q_count(s, t, sp, tp)
            assert rhs == Fraction(q * math.factorial(sp + 2 * tp), 2 ** tp), (s, t, sp, tp)


def test_build_lp_rejects_point():
    with pytest.raises(ValueError):
        build_lp(0, 0)


def test_inconsistent_cell_aborts(monkeypatch):
    # a positive requirement with no supporting F values is an internal
    # inconsistency and must abort loudly rather than report infeasibility
    from simplotope.lptable import InconsistentCellError

    vtable = VTable()
    monkeypatch.setattr(vtable, "f", lambda *key: 0)
    with pytest.raises(InconsistentCellError):
        build_lp(1, 1, vtable)
