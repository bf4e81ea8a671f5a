"""Exact kernel: determinants and the integer LP solver."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import pairwise_oracle
import simplotope.exact as exact
import simplotope.verifier as verifier
from lp_oracle import OPTIMAL, UNBOUNDED, RationalLp, fraction_lp_minimize
from simplotope.exact import LpProblem, LpResult, det, lp_minimize, scaled_inverse
from simplotope.lptable import dual_lp


def cofactor_det(m):
    """Independent oracle: textbook cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def test_det_examples():
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det([[1, 0, 1], [1, 1, 0], [0, 1, 1]]) == 2
    assert det([[1, 2, 3], [1, 2, 3], [0, 1, 1]]) == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def test_det_row_swap_negates():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        swapped = list(m)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det(swapped) == -det(m)


def test_det_agrees_with_cofactor_oracle():
    for n in range(0, 4):
        for bits in itertools.product((0, 1), repeat=n * n):
            m = [list(bits[i * n:(i + 1) * n]) for i in range(n)]
            assert det(m) == cofactor_det(m)
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(4, 6)
        m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        assert det(m) == cofactor_det(m)


def test_scaled_inverse_example():
    a = [[2, 1], [1, 3]]
    d, adj = scaled_inverse(a)
    assert d == 5
    for i in range(2):
        for j in range(2):
            got = sum(a[i][k] * adj[k][j] for k in range(2))
            assert got == (d if i == j else 0)


def test_scaled_inverse_is_the_adjugate():
    # A . adj = det . I on seeded random integer matrices; singular ones raise
    rng = random.Random(31)
    singular = 0
    for n in range(1, 9):
        for _ in range(25):
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if det(a) == 0:
                singular += 1
                with pytest.raises(ValueError):
                    scaled_inverse(a)
                continue
            d, adj = scaled_inverse(a)
            assert d == det(a)
            for i in range(n):
                for j in range(n):
                    got = sum(a[i][k] * adj[k][j] for k in range(n))
                    assert got == (d if i == j else 0), (a, i, j)
    assert singular >= 1
    with pytest.raises(ValueError):
        scaled_inverse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])


# lp_minimize takes integer LPs that x = 0 satisfies (every rhs <= 0).  The
# examples are the duals (max b.y, A^T y <= c, y >= 0, as min -b.y,
# -A^T y >= -c) of small covering LPs, whose optima they are up to sign.

def integral(problem):
    """A rational LP as integers: each row times the lcm of its denominators,
    rhs included, and the objective times the lcm of its own, returned with
    that objective scale.  Scaling a row keeps its half-space, so the LP
    keeps its feasible set and its optimal vertices."""
    def scaled(values):
        scale = math.lcm(*(Fraction(v).denominator for v in values))
        return [int(v * scale) for v in values], scale

    objective, scale = scaled(problem.objective)
    rows = []
    for row, rhs in problem.constraints:
        *coeffs, b = scaled([*row, rhs])[0]
        rows.append((coeffs, b))
    return LpProblem(objective, rows), scale


def agrees_with_oracle(rational):
    """Solve an LP with the Fraction oracle, and scaled to integers with the
    kernel: the kernel must reach the oracle's solution, with the value
    times the objective scale, and raise exactly where the oracle says
    unbounded.  Returns the oracle's status."""
    want = fraction_lp_minimize(rational)
    problem, scale = integral(rational)
    if want.status == UNBOUNDED:
        with pytest.raises(ValueError, match="unbounded"):
            lp_minimize(problem)
    else:
        assert lp_minimize(problem) == LpResult(want.value * scale, want.solution), rational
    return want.status


def test_lp_problem_takes_ints_only():
    assert LpProblem([1, 2], [([3, 4], -5)]) == LpProblem((1, 2), (((3, 4), -5),))
    for bad in (Fraction(1, 2), Fraction(2), 1.0, True):
        for objective, constraints in [([bad, 1], [([1, 1], 0)]), ([1, 1], [([1, bad], 0)]),
                                       ([1, 1], [([1, 1], bad)])]:
            with pytest.raises(ValueError, match="int"):
                LpProblem(objective, constraints)


def test_lp_examples():
    # min x1 + x2 with x1 >= 4, x1 + 2 x2 >= 6 has optimum 5 at (4, 1)
    r = lp_minimize(dual_lp(LpProblem([1, 1], [([1, 0], 4), ([1, 2], 6)])))
    assert r.value == -5 and r.solution == (Fraction(1, 2), Fraction(1, 2))
    r = lp_minimize(dual_lp(LpProblem([1], [([1], 3)])))
    assert r.value == -3 and r.solution == (1,)
    with pytest.raises(ValueError, match="unbounded"):
        lp_minimize(LpProblem([-1], [([1], 0)]))


def test_lp_refuses_a_positive_rhs():
    # x = 0 violates x1 >= 1: the kernel has no phase 1 to find another start
    with pytest.raises(ValueError):
        lp_minimize(LpProblem([1, 1], [([-1, 0], -2), ([1, 0], 1)]))
    with pytest.raises(ValueError):
        lp_minimize(LpProblem([1], [([3], 1)]))


def test_lp_residuals_exact():
    # the rhs 7/3, 5/2, 1 times 6, which scales the optimum by 6
    primal = LpProblem([2, 3, 1], [([1, 1, 0], 14), ([0, 2, 1], 15), ([1, 0, 3], 6)])
    problem = dual_lp(primal)
    r = lp_minimize(problem)
    for row, rhs in problem.constraints:
        residual = sum(c * x for c, x in zip(row, r.solution)) - rhs
        assert residual >= 0
    assert all(x >= 0 for x in r.solution)
    # strong duality, against the oracle's two-phase solve of the primal
    assert r.value == -fraction_lp_minimize(primal).value


def test_lp_value_invariant_under_permutation():
    # re-solving from a permuted constraint/variable order is the spec's
    # stand-in for a dual certificate: the optimum must be identical
    rng = random.Random(3)
    obj = [1, 2, 1, 3]
    cons = [([1, 1, 0, 0], 4), ([0, 1, 1, 1], 3), ([2, 0, 1, 0], 5), ([1, 0, 0, 2], 2)]
    base = lp_minimize(dual_lp(LpProblem(obj, cons))).value
    for _ in range(5):
        cperm = rng.sample(range(len(cons)), len(cons))
        vperm = rng.sample(range(4), 4)
        obj2 = [obj[v] for v in vperm]
        cons2 = [([cons[c][0][v] for v in vperm], cons[c][1]) for c in cperm]
        assert lp_minimize(dual_lp(LpProblem(obj2, cons2))).value == base


def test_lp_degenerate_terminates():
    # many redundant constraints through one vertex, (1, 1): Bland's rule must not cycle
    cons = [([-1, 0], -1), ([0, -1], -1), ([-1, -1], -2), ([-2, -1], -3), ([-1, -2], -3),
            ([-3, -3], -6)]
    r = lp_minimize(LpProblem([-1, -1], cons))
    assert r.value == -2 and r.solution == (1, 1)
    # Chvatal's example, on which the largest-coefficient rule cycles at x = 0
    F = Fraction
    chvatal = RationalLp((-10, 57, 9, 24), (
        ((F(-1, 2), F(11, 2), F(5, 2), -9), 0), ((F(-1, 2), F(3, 2), F(1, 2), -1), 0),
        ((-1, 0, 0, 0), -1)))
    problem, scale = integral(chvatal)
    assert scale == 1 and problem.constraints[0] == ((-1, 11, 5, -18), 0)
    r = lp_minimize(problem)
    assert r.value == -1 and r.solution == (1, 0, 1, 0)
    assert agrees_with_oracle(chvatal) == OPTIMAL


def test_lp_beale_cycling_example_terminates():
    # Beale (1955), built to make the largest-coefficient rule cycle at x = 0
    F = Fraction
    beale = RationalLp((F(-3, 4), 20, F(-1, 2), 6), (
        ((F(-1, 4), 8, 1, -9), 0), ((F(-1, 2), 12, F(1, 2), -3), 0), ((0, 0, -1, 0), -1)))
    problem, scale = integral(beale)
    assert scale == 4 and problem.objective == (-3, 80, -2, 24)
    assert lp_minimize(problem).value == -5  # -5/4 times 4
    assert agrees_with_oracle(beale) == OPTIMAL


def test_lp_takes_blands_column_after_a_degenerate_pivot(monkeypatch):
    # the first pivot enters x3 (reduced cost -5) in the row of rhs 0, so the
    # objective stays put; Bland's rule then enters x1, the least index with
    # a negative reduced cost, where the most negative one is x2
    entering = []
    real_pivot = exact._pivot

    def record(tab, basis, d, row, col):
        entering.append(col)
        return real_pivot(tab, basis, d, row, col)

    monkeypatch.setattr(exact, "_pivot", record)
    problem = LpProblem([2, -2, -4, -5], [
        ([-3, -2, -2, -2], -2), ([-1, 0, 1, 4], 0), ([1, 1, 1, -3], 0)])
    r = lp_minimize(problem)
    assert entering == [3, 1, 2]
    assert r.value == Fraction(-17, 4)
    assert r.solution == (0, 0, Fraction(3, 4), Fraction(1, 4))
    assert agrees_with_oracle(problem) == OPTIMAL


def test_lp_value_row_is_checked(monkeypatch):
    # the value read from the reduced-cost row must equal objective . x;
    # pricing never reads that row's rhs entry, so corrupting it changes no pivot
    real_pivot = exact._pivot

    def corrupt(tab, basis, d, row, col):
        d = real_pivot(tab, basis, d, row, col)
        tab[-1][-1] += d
        return d

    monkeypatch.setattr(exact, "_pivot", corrupt)
    with pytest.raises(RuntimeError):
        lp_minimize(dual_lp(LpProblem([1, 1], [([1, 0], 4), ([1, 2], 6)])))


def test_lp_no_constraints():
    r = lp_minimize(LpProblem([1, 1], []))
    assert r.value == 0 and r.solution == (0, 0)
    with pytest.raises(ValueError, match="unbounded"):
        lp_minimize(LpProblem([1, -1], []))


def test_lp_solve_is_one_simplex_phase():
    # every row starts on its own surplus, a feasible basis, so a solve is
    # one run of the simplex from there
    F = Fraction
    rational = RationalLp((-2, -3, 1), (
        ((-1, -1, 0), -4), ((F(-1, 2), -2, 1), F(-5, 3)), ((1, -1, 0), 0)))
    problem, _ = integral(rational)
    r = lp_minimize(problem)
    assert all(sum(c * x for c, x in zip(row, r.solution)) >= rhs
               for row, rhs in problem.constraints)
    assert agrees_with_oracle(rational) == OPTIMAL


def _random_lp(rng: random.Random) -> RationalLp:
    """Small LPs that x = 0 satisfies, with negative and fractional entries
    and split equalities (whose rhs is 0)."""
    def num():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4)))

    n = rng.randint(1, 6)
    cons = []
    for _ in range(rng.randint(1, 6)):
        row = [num() for _ in range(n)]
        if rng.random() < 0.3:
            cons += [(row, 0), ([-c for c in row], 0)]
        else:
            cons.append((row, -abs(num())))
    return RationalLp([num() for _ in range(n)], cons)


def test_lp_matches_fraction_oracle_on_random_lps():
    rng = random.Random(2009)
    seen = set()
    for _ in range(600):
        seen.add(agrees_with_oracle(_random_lp(rng)))
    assert seen == {OPTIMAL, UNBOUNDED}


CELLS_DIM10 = [(s, t) for t in range(6) for s in range(11 - 2 * t) if (s, t) != (0, 0)]


def test_lp_matches_fraction_oracle_on_cell_lps():
    # the duals of the cover LPs, which `solve_cell` solves, through d = 10
    from simplotope.lptable import build_lp

    for s, t in CELLS_DIM10:
        assert agrees_with_oracle(dual_lp(build_lp(s, t))) == OPTIMAL, (s, t)


def test_cell_lps_take_few_pivots(monkeypatch):
    # Bland's rule alone takes 494 pivots on the 35 dual LPs of the d = 10
    # table; most-negative pricing with its Bland fallback takes 176
    from simplotope.lptable import build_lp

    problems = [dual_lp(build_lp(s, t)) for s, t in CELLS_DIM10]
    pivots = []
    real_pivot = exact._pivot

    def count(*args):
        pivots.append(args[3:])  # (row, col)
        return real_pivot(*args)

    monkeypatch.setattr(exact, "_pivot", count)
    for problem in problems:
        lp_minimize(problem)
    assert len(problems) == 35
    assert len(pivots) <= 200


def test_lp_matches_fraction_oracle_on_overlap_lps(monkeypatch):
    from face_oracle import tri_square_class2
    from simplotope.trisquare import overlap_matrix

    problems = []

    def record(problem):
        problems.append(problem)
        return lp_minimize(problem)

    monkeypatch.setattr(verifier, "lp_minimize", record)
    overlap_matrix(tri_square_class2())
    assert len(problems) == 14  # one per orbit of class-2 pairs
    for problem in problems:
        assert agrees_with_oracle(problem) == OPTIMAL


def test_lp_matches_fraction_oracle_on_face_to_face_lps(monkeypatch):
    from simplotope.core import SimplotopeSpec
    from simplotope.standard import standard_triangulation

    problems = []

    def record(problem):
        problems.append(problem)
        return lp_minimize(problem)

    monkeypatch.setattr(pairwise_oracle, "lp_minimize", record)
    sims = standard_triangulation(SimplotopeSpec((1, 1, 2)))
    for a, b in itertools.combinations(sims, 2):
        pairwise_oracle.meet_face_to_face(a, b)
    assert len(problems) == 66
    for problem in problems:
        assert agrees_with_oracle(problem) == OPTIMAL
