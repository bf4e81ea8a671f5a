"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison is plain equality; there are no
tolerances anywhere.  Each test prints one pass line (run with -s to see
them).  The heavyweight computations (the dimension-6 table with its
(0,3) brute force, the certification of every standard triangulation
through dimension 5 and of the 6-cube) live here rather than in the
unit tests.
"""

import math
import time
from fractions import Fraction

import pytest

from f_oracle import faces_over_f
from face_oracle import all_simplices, corner_simplex, exterior_faces, tri_square_class2
from q_oracle import ENUM_DIM_LIMIT, q_by_enumeration, q_by_generating_function
from simplotope.core import SimplotopeSpec
from simplotope.counting import q_count
from simplotope.fbounds import BRUTE_FORCE, DEFAULT_VTABLE, _orderly_stems, _stem_maxima, comb_bound
from simplotope.lptable import bounds_table
from simplotope.standard import standard_triangulation
from simplotope.trisquare import (
    MINIMAL_10,
    center_in_facet,
    construction_stages,
    lower_bound_10_argument,
    minimal_triangulation_10,
)
from simplotope.verifier import TriangulationCandidate, verify

TABLE_1_PINNED = {
    (0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 5,
    (0, 1): 1, (1, 1): 3, (2, 1): 9,
    (0, 2): 6, (1, 2): 20, (2, 2): 68,
    (0, 3): 50,
}

TABLE_1_DIM6 = {
    **TABLE_1_PINNED,
    (4, 0): 16, (5, 0): 60, (6, 0): 250, (3, 1): 32, (4, 1): 119,
}


def report(n, text):
    print(f"[criterion {n:2d}] PASS: {text}")


def partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


@pytest.fixture(scope="module")
def case_report():
    return lower_bound_10_argument()


def test_criterion_01_table_reproduction():
    start = time.time()
    table = bounds_table(6, 3, 6)
    cells = {(c.s, c.t): c for c in table.cells}
    for (s, t), want in TABLE_1_PINNED.items():
        cell = cells[s, t]
        assert cell.lower_bound == want, ((s, t), cell.lp_value)
    # every other cell the run produced matches the reference table as well
    for cell in table.cells:
        assert TABLE_1_DIM6[(cell.s, cell.t)] == cell.lower_bound
    report(1, f"all {len(table.cells)} table entries with s+2t <= 6 "
              f"match the reference values ({time.time() - start:.0f}s)")


def test_criterion_02_v_values():
    start = time.time()
    pinned = [((1, 1), 1), ((0, 2), 1), ((2, 1), 2), ((1, 2), 3), ((0, 3), 4), ((3, 0), 2)]
    for (s, t), want in pinned:
        entry = DEFAULT_VTABLE.get(s, t)
        assert entry.value == want and entry.provenance == BRUTE_FORCE, (s, t, entry)
    report(2, f"brute force reproduces all six reference V values ({time.time() - start:.0f}s)")


def test_criterion_03_recurrence_worked_examples():
    assert DEFAULT_VTABLE.recurrence(1, 1, 1, 2, 0, 1) == 3
    assert DEFAULT_VTABLE.recurrence(2, 1, 1, 1, 1, 1) == 2
    f = DEFAULT_VTABLE.f

    def shadow(s, t, c, x, y, k):
        # the shadow of the whole fixed face is one point, of class 1
        return int(k == 1) if (x, y) == (0, 0) else f(s, t, c, x, y, k)

    # term for term, footprint times shadow; first example: 3*0 + 2*1 + 1*1
    terms1 = [f(2, 0, 1, i, 0, 1) * shadow(1, 0, 1, 2 - i, 0, 1) for i in range(3)]
    assert terms1 == [0, 2, 1]
    # and the second: 4*0 + 4*0 + 1*1 + 1*1
    terms2 = [f(1, 1, 1, i, j, 1) * shadow(1, 0, 1, 1 - i, 1 - j, 1)
              for j in (0, 1) for i in (0, 1)]
    assert terms2 == [0, 0, 1, 1]
    report(3, "recurrence worked examples give 3 and 2, matching term for term")


def test_criterion_04_q_triple_agreement():
    checked = 0
    for s in range(0, 5):
        for t in range(0, 5):
            for sp in range(0, s + t + 2):
                for tp in range(0, t + 2):
                    closed = q_count(s, t, sp, tp)
                    assert q_by_generating_function(s, t, sp, tp) == closed
                    if s + 2 * t <= ENUM_DIM_LIMIT:
                        assert q_by_enumeration(s, t, sp, tp) == closed
                        checked += 1
    assert q_count(0, 2, 2, 0) == 9
    report(4, f"closed form, generating function and enumeration agree "
              f"({checked} fully enumerated queries)")


def test_criterion_05_corner_extremality():
    pairs = [(s, t) for s in range(0, 6) for t in range(0, 3) if 1 <= s + 2 * t <= 5]
    for s, t in pairs:
        spec = SimplotopeSpec.seg_tri(s, t)
        x = corner_simplex(spec, spec.vertex((0,) * len(spec.factors)))
        for sp in range(0, s + t + 1):
            for tp in range(0, t + 1):
                if sp + 2 * tp < 2 or sp + 2 * tp > s + 2 * t:
                    continue
                got = len(exterior_faces(x, (sp, tp)))
                assert got == comb_bound(s, t, sp, tp), (s, t, sp, tp)
        assert len(exterior_faces(x, (1, 0))) == s + 3 * t
    report(5, f"corner simplices meet the combinatorial bound for all "
              f"{len(pairs)} products with dimension <= 5")


def test_criterion_06_f_soundness():
    # one simplex of every symmetry orbit stands for all of the product's
    # simplices (tests/f_oracle.py); test_fbounds runs the same check on
    # every product through dimension 5 and on (0, 3)
    for s, t in [(1, 1), (2, 1), (0, 2), (3, 0)]:
        assert faces_over_f(s, t, _orderly_stems(SimplotopeSpec.seg_tri(s, t))) == {}, (s, t)
    report(6, "exact exterior-face counts of one simplex of every orbit never exceed the "
              "bound on the four products (1,1), (2,1), (0,2) and (3,0)")


def test_criterion_07_products_of_two_simplices():
    checked = 0
    for a in range(1, 5):
        for b in range(a, 6 - a):
            spec = SimplotopeSpec((a, b))
            for x in all_simplices(spec):
                if x.cls != 0:
                    assert x.cls == 1, (a, b, x)
                    checked += 1
    report(7, f"every nondegenerate vertex simplex of a product of two "
              f"simplices has class 1 ({checked} simplices)")


def test_criterion_07_the_staircase_is_minimal_through_dimension_seven():
    # The abstract's two-simplex theorem on every Delta^a x Delta^b with
    # 1 <= a <= b and a + b <= 7.  The stem search finds V = 1, so a cover by
    # vertex simplices needs class(P) / V = C(a+b, a) of them (the full-shape
    # row of the cover LP), and the staircase certifies with exactly that many.
    products = [(a, b) for a in range(1, 8) for b in range(a, 8 - a)]
    assert len(products) == 12
    for a, b in products:
        spec = SimplotopeSpec((a, b))
        assert max(q for _, q in _stem_maxima(spec)) == 1, (a, b)
        tri = standard_triangulation(spec)
        assert len(tri) == math.comb(a + b, a) == spec.polytope_class, (a, b)
        assert verify(TriangulationCandidate(spec, tuple(tri))).certified, (a, b)
    report(7, f"on all {len(products)} products of two simplices through dimension 7, "
              "V = 1 and the staircase certifies with class(P) simplices: it is minimal")


def test_criterion_08_standard_triangulations():
    start = time.time()
    for n in range(1, 7):
        for factors in partitions(n):
            spec = SimplotopeSpec(tuple(factors))
            tri = standard_triangulation(spec)
            assert len(tri) == spec.polytope_class
    certified = 0
    for n in range(1, 6):
        for factors in partitions(n):
            spec = SimplotopeSpec(tuple(factors))
            cand = TriangulationCandidate(spec, tuple(standard_triangulation(spec)))
            rep = verify(cand)
            assert rep.certified, (factors, rep.diagnostics)
            certified += 1
    cube6 = SimplotopeSpec((1,) * 6)
    rep = verify(TriangulationCandidate(cube6, tuple(standard_triangulation(cube6))))
    assert rep.certified and rep.total_class == 720, rep.diagnostics[:5]
    report(8, f"sizes match through dimension 6; all {certified} standard "
              f"triangulations through dimension 5 and the 6-cube's 720 simplices "
              f"certify ({time.time() - start:.0f}s)")


def test_criterion_09_tri_square_case(case_report):
    start = time.time()
    fat = tri_square_class2()
    assert len(fat) == 24
    expected = sorted([Fraction(0), Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3)])
    assert all(sorted(center_in_facet(x)) == expected for x in fat)

    by_name = {i.name: i for i in case_report.ingredients}
    assert by_name["lp-bound-9"].ok
    assert by_name["no-three-disjoint-fat"].ok       # all 2024 triples checked
    assert case_report.ok and case_report.lower_bound == 10

    cand = minimal_triangulation_10()
    rep = verify(cand)
    assert rep.certified and rep.total_class == 12
    assert sorted(rep.classes) == [1] * 8 + [2, 2]
    fat_words = {MINIMAL_10[i] for i, c in enumerate(rep.classes) if c == 2}
    assert fat_words == {"1850*", "1358*"}
    s1850 = cand.simplices[0]
    s1358 = cand.simplices[4]
    assert len(s1850.vertex_set & s1358.vertex_set) == 4  # the facet 158*
    cycle = {(i, i + 1) for i in range(7)} | {(0, 7)}
    assert set(rep.adjacency) == cycle | {(0, 4), (0, 8), (4, 9)}
    report(9, f"24 fat simplices, centers on facets, no disjoint triple, "
              f"bundled triangulation certified, bound 10 ({time.time() - start:.0f}s)")


def test_criterion_10_construction_replay():
    start = time.time()
    t12, t11, t10 = construction_stages()
    sizes = (len(t12.simplices), len(t11.simplices), len(t10.simplices))
    assert sizes == (12, 11, 10)
    for cand in (t12, t11, t10):
        assert verify(cand).certified
    want = {frozenset(x.vertex_set) for x in minimal_triangulation_10().simplices}
    assert {frozenset(x.vertex_set) for x in t10.simplices} == want
    report(10, f"the 12 -> 11 -> 10 replacement sequence certifies at every "
               f"stage and ends at the minimal triangulation ({time.time() - start:.0f}s)")
