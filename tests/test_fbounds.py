"""Exterior-face bounds F and maximum classes V."""

import itertools
import math
import operator
import random
from collections import Counter

import pytest

from f_oracle import (
    climb_to_f_violation,
    faces_over_f,
    leaves_by_stem,
    make_f,
    oracle_over_cells,
    orbit_face_counts,
)
from face_oracle import corner_simplex, exterior_faces, face_class
from v_oracle import v_by_enumeration
from simplotope.core import SimplotopeSpec, VertexSimplex, symmetries
from simplotope.exact import det
from simplotope.fbounds import (
    BRUTE_FORCE,
    CUBE_CAP,
    DEFAULT_VTABLE,
    VMaxUnavailable,
    VTable,
    _brute_force_vmax,
    _divisors,
    _hadamard_class,
    _cofactor,
    _orderly_stems,
    _stem_maxima,
    comb_bound,
    f_bound,
    load_cube_caps,
)
from simplotope.lptable import bounds_table


def test_recurrence_worked_examples():
    assert DEFAULT_VTABLE.recurrence(1, 1, 1, 2, 0, 1) == 3
    assert DEFAULT_VTABLE.recurrence(2, 1, 1, 1, 1, 1) == 2


def test_recurrence_cube_collapse():
    # with t = t' = 0 the recurrence is the plain cube product sum
    collapsed = sum(
        DEFAULT_VTABLE.f(2, 0, 1, i, 0, k) * DEFAULT_VTABLE.f(1, 0, 2, 2 - i, 0, 1 // k)
        for i in range(0, 3) for k in (1,))
    assert DEFAULT_VTABLE.recurrence(3, 0, 2, 2, 0, 1) == collapsed


def test_comb_bound_cases():
    assert comb_bound(1, 1, 2, 0) == 2
    assert comb_bound(1, 1, 1, 0) == 4     # s + 3t
    assert comb_bound(2, 1, 2, 1) == 1     # whole-simplex shape
    assert comb_bound(2, 1, 0, 0) == 5     # every vertex is a 0-face


def test_zero_face_readings():
    # one F at the 0-face shape: every vertex, s + 2t + 1 of them, of class 1,
    # for the recurrence and the LP (VTable.f) as for `fbound` (f_bound)
    assert f_bound(2, 1, 2, 0, 0, 1) == DEFAULT_VTABLE.f(2, 1, 2, 0, 0, 1) == 5
    assert f_bound(2, 1, 2, 0, 0, 2) == DEFAULT_VTABLE.f(2, 1, 2, 0, 0, 2) == 0


def test_f_bound_examples():
    assert f_bound(1, 1, 1, 2, 0, 1) == 2
    assert f_bound(3, 0, 2, 1, 0, 2) == 0
    assert f_bound(2, 1, 1, 2, 1, 1) == 1
    assert f_bound(2, 1, 2, 2, 1, 2) == 1


def test_f_bound_zero_conventions():
    assert f_bound(1, 1, 1, 2, 1, 1) == 0        # s'+2t' > s+2t
    assert f_bound(-1, 1, 1, 0, 1, 1) == 0
    assert f_bound(1, 1, 0, 1, 0, 1) == 0        # c < 1
    assert f_bound(1, 1, 1, 1, 0, 3) == 0        # c' does not divide c
    assert f_bound(1, 1, 2, 1, 0, 1) == 0        # c > V(1,1) = 1
    assert f_bound(3, 0, 2, 1, 0, 2) == 0        # c' > V(1,0) = 1
    assert f_bound(2, 1, 2, 2, 1, 1) == 0        # full shape, c' != c


def test_v_values():
    for (s, t), want in [((1, 1), 1), ((0, 2), 1), ((2, 1), 2), ((1, 2), 3), ((3, 0), 2),
                         ((1, 0), 1), ((2, 0), 1), ((0, 1), 1), ((0, 3), 4)]:
        entry = DEFAULT_VTABLE.get(s, t)
        assert entry.value == want
        assert entry.provenance == BRUTE_FORCE


def test_v_caps():
    caps = load_cube_caps()
    assert caps[7] == 32 and caps[13] == 9477
    entry = DEFAULT_VTABLE.get(7, 0)
    assert entry == (32, CUBE_CAP)
    # four or more factors fall back to the cube cap of their dimension
    assert DEFAULT_VTABLE.get(2, 2) == (9, CUBE_CAP)
    assert DEFAULT_VTABLE.get(3, 1) == (5, CUBE_CAP)
    with pytest.raises(VMaxUnavailable):
        VTable(caps={}).get(9, 0)


@pytest.mark.parametrize("text, line", [
    ("0 1\n", "line 1 '0 1'"),
    ("3 2\n4 0\n", "line 2 '4 0'"),
    ("5 -3  # negative\n", "line 1 '5 -3'"),
    ("# d cap\n4 3\n4 1\n", "line 3 '4 1'"),
    ("4\n", "line 1 '4'"),
    ("4 x\n", "line 1 '4 x'"),
], ids=["dim-zero", "cap-zero", "cap-negative", "repeated-dim", "one-field", "not-an-int"])
def test_load_cube_caps_names_the_bad_line(tmp_path, text, line):
    path = tmp_path / "caps.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=line):
        load_cube_caps(path)


def test_load_cube_caps_refuses_long_numbers_in_a_short_message(tmp_path):
    # the cap is checked on the text, before int() converts it
    path = tmp_path / "caps.txt"
    path.write_text("4 " + "9" * 100_000 + "\n")
    with pytest.raises(ValueError, match="longer than 4300 characters") as exc:
        load_cube_caps(path)
    assert len(str(exc.value)) < 120
    path.write_text("4 3\n" + "4 " * 50_000 + "\n")
    with pytest.raises(ValueError, match="line 2 .*expected two integers") as exc:
        load_cube_caps(path)
    assert len(str(exc.value)) < 120


@pytest.mark.parametrize("d, attained", [(3, 2), (7, 32), (15, 131072)])
def test_load_cube_caps_refuses_a_cap_below_sylvesters_simplex(tmp_path, d, attained):
    # the 0/1 core of Sylvester's Hadamard matrix of order d + 1 is a d-cube
    # simplex of this class, so any lower cap is unsound; it meets Hadamard's
    # bound, which is what load_cube_caps checks against
    core = [[bin(i & j).count("1") % 2 for j in range(1, d + 1)] for i in range(1, d + 1)]
    assert abs(det(core)) == attained == _hadamard_class(d)
    path = tmp_path / "caps.txt"
    path.write_text(f"{d} {attained}\n")
    assert load_cube_caps(path) == {d: attained}
    path.write_text(f"1 1\n{d} {attained - 1}\n")
    with pytest.raises(ValueError, match=f"line 2 '{d} {attained - 1}': .* class {attained} "):
        load_cube_caps(path)


@pytest.mark.parametrize("d, bound", [(3, 2), (7, 32), (11, 1458)])
def test_load_cube_caps_refuses_a_cap_above_hadamards_bound(tmp_path, d, bound):
    # d + 1 = 4, 8, 12 are Hadamard orders, so these cubes meet the bound
    path = tmp_path / "caps.txt"
    path.write_text(f"{d} {bound}\n")
    assert load_cube_caps(path) == {d: bound}
    path.write_text(f"1 1\n{d} {bound + 1}\n")
    with pytest.raises(ValueError, match=f"line 2 '{d} {bound + 1}': .* at most {bound} "):
        load_cube_caps(path)


def test_load_cube_caps_checks_hadamards_bound_without_huge_powers(tmp_path):
    # a cap of at most d / 2 bits is below the bound; (d + 1)^(d + 1) is never formed
    path = tmp_path / "caps.txt"
    path.write_text(f"{10 ** 4000} {2 ** 100}\n")
    assert load_cube_caps(path) == {10 ** 4000: 2 ** 100}
    assert all(cap <= _hadamard_class(d) for d, cap in load_cube_caps().items())


def test_load_cube_caps_refuses_a_cap_below_a_searched_cap(tmp_path):
    # the packaged caps at d <= 6 are the searched maxima (next test), so a
    # file may match or raise them but not go below
    packaged = load_cube_caps()
    path = tmp_path / "caps.txt"
    path.write_text("".join(f"{d} {packaged[d]}\n" for d in range(1, 7)) + "7 32\n8 1\n")
    assert load_cube_caps(path) == {**{d: packaged[d] for d in range(1, 7)}, 7: 32, 8: 1}
    path.write_text("4 3\n5 4\n")
    with pytest.raises(ValueError, match="line 2 '5 4': the 5-cube has a simplex of class 5 "):
        load_cube_caps(path)


def test_caps_file_agrees_with_brute_force_small():
    # the configuration's small-dimension rows match an actual scan of cubes
    caps = load_cube_caps()
    for d in range(1, 7):
        assert _brute_force_vmax(d, 0) == caps[d], d


@pytest.mark.parametrize("s, t", [(1, 0), (2, 0), (3, 0), (4, 0), (0, 1), (1, 1),
                                  (2, 1), (0, 2), (1, 2)])
def test_brute_force_vmax_matches_enumeration(s, t):
    assert _brute_force_vmax(s, t) == v_by_enumeration(s, t)


@pytest.mark.parametrize("s, t", [(3, 0), (2, 1), (1, 2), (0, 3)])
def test_stabilizer_group_order_and_symmetries(s, t):
    # s! t! 2^t (48 for (0, 3)): permutations of the segments, of the
    # triangles, and the swap of the two non-zero positions in each triangle.
    # A map that is not a symmetry fixing vertex 0 would make the V search
    # skip subsets and undercount V silently, so the direct stabilizer is
    # checked against the full group filtered.
    spec = SimplotopeSpec.seg_tri(s, t)
    group = symmetries(spec, fixing_vertex_0=True)
    assert len(group) == math.factorial(s) * math.factorial(t) * 2 ** t
    assert set(group) == {g for g in symmetries(spec) if g[0] == 0}


def orderly_leaves(spec):
    """Every leaf below the stems of the orderly V search, with its class."""
    return [leaf for leaves in leaves_by_stem(spec, _orderly_stems(spec)) for leaf in leaves]


@pytest.mark.parametrize("s, t", [(3, 0), (2, 1), (0, 2), (1, 2), (3, 1)])
def test_orderly_leaves_meet_every_orbit(s, t):
    # the orbits of the nondegenerate d-sets at vertex 0 come from every
    # d-subset by itertools.combinations, each named by its smallest image;
    # the pruned search must leave a leaf in each, with the right class
    spec = SimplotopeSpec.seg_tri(s, t)
    verts = spec.vertices()
    group = symmetries(spec, fixing_vertex_0=True)

    lifted = [(1,) + v.reduced(verts[0]) for v in verts]
    # the class of vertex 0 with every d-subset, one determinant each
    cls = {sub: abs(det([lifted[0]] + [lifted[i] for i in sub]))
           for sub in itertools.combinations(range(1, len(verts)), spec.dim)}

    def orbit(sub):
        return min(tuple(sorted(g[i] for i in sub)) for g in group)

    nondegenerate = [sub for sub, value in cls.items() if value]
    leaves = orderly_leaves(spec)
    assert all(value == cls[sub] for sub, value in leaves)
    assert {orbit(sub) for sub, _ in leaves} == {orbit(sub) for sub in nondegenerate}
    assert len(leaves) < len(nondegenerate)  # the canonicity test did cut


@pytest.mark.parametrize("s, t, n", [(0, 3, 6589), (3, 1, 3394), (1, 2, 648)])
def test_orderly_leaf_counts(s, t, n):
    # the counts of the search that tested sorted images at prefixes of up
    # to d - 2 vertices and summed a cofactor per leaf: the bitmask test
    # keeps the same canonical prefixes
    assert len(orderly_leaves(SimplotopeSpec.seg_tri(s, t))) == n


@pytest.mark.parametrize("s, t", [(0, 3), (3, 1), (2, 2)])
def test_brute_force_vmax_is_the_largest_leaf_class(s, t):
    # the per-block maximum over v finds no class the leaves do not have
    leaves = orderly_leaves(SimplotopeSpec.seg_tri(s, t))
    assert _brute_force_vmax(s, t) == max(cls for _, cls in leaves)


def test_mask_order_is_sorted_tuple_order():
    # _orderly_stems puts vertex v at bit n - 1 - v; for sets of one size,
    # the larger mask is the smaller sorted tuple
    rng = random.Random(30)
    n = 64
    for _ in range(2000):
        size = rng.randint(1, 8)
        a, b = rng.sample(range(n), size), rng.sample(range(n), size)
        mask_a, mask_b = (sum(1 << (n - 1 - v) for v in x) for x in (a, b))
        assert (sorted(a) < sorted(b)) == (mask_a > mask_b), (a, b)
        low = min(set(a) ^ set(b), default=None)  # the lowest vertex of A ^ B
        assert (sorted(a) < sorted(b)) == (low in a), (a, b)


def test_divisors_by_trial_division():
    for n in range(1, 600):
        assert _divisors(n) == tuple(k for k in range(1, n + 1) if n % k == 0), n


def test_leaf_cofactor_is_the_last_pivot():
    # the rows of [[1, 1, 0], [0, 1, 1]] after Bareiss elimination pivot on
    # columns 0 and 1 with pivots 1 and 1; phi is orthogonal to both rows and
    # phi . v = det([[1, 1, 0], [0, 1, 1], v]) for every v
    rows, cols, pivots = [[1, 1, 0], [0, 1, 1], []], [0, 1, 0], [1, 1, 1, 1]
    phi = _cofactor(2, rows, cols, pivots, 2)
    assert phi == [1, -1, 1]
    for v in itertools.product((0, 1), repeat=3):
        assert sum(x * y for x, y in zip(phi, v)) == det([[1, 1, 0], [0, 1, 1], list(v)])


def test_leaf_cofactor_division_is_checked():
    # rows that no Bareiss elimination produces: the back-substitution's
    # division by the pivot 2 leaves a remainder, which must raise
    rows, cols, pivots = [[2, 1, 0], [0, 1, 1], []], [0, 1, 0], [1, 2, 1, 1]
    with pytest.raises(ArithmeticError):
        _cofactor(2, rows, cols, pivots, 2)


@pytest.mark.parametrize("s, t", [(2, 1), (1, 2)])
def test_stem_forms_give_every_class_below_a_stem(s, t):
    # Sylvester's identity: the last Bareiss step on the two free columns
    # is the determinant of the whole simplex, over the stem's last pivot
    spec = SimplotopeSpec.seg_tri(s, t)
    verts = spec.vertices()
    vecs = [v.reduced(verts[0]) for v in verts]
    stems = list(_orderly_stems(spec))
    for prefix, alpha, beta, p, start in random.Random(30).sample(stems, 5):
        form = {u: (sum(map(operator.mul, alpha, vec)), sum(map(operator.mul, beta, vec)))
                for u, vec in enumerate(vecs)}
        for u, v in itertools.combinations(range(len(verts)), 2):
            (au, bu), (av, bv) = form[u], form[v]
            rows = [vecs[i] for i in (*prefix, u, v)]
            assert abs(au * bv - bu * av) == abs(p * det(rows)), (prefix, u, v)


@pytest.mark.parametrize("s, t", [(2, 1), (0, 2), (1, 2), (3, 1)])
def test_stem_maxima_are_the_largest_classes_below_each_stem(s, t):
    # the per-block maximum over every vertex v, for each u >= start, is the
    # largest |det| of the stem with u and v
    spec = SimplotopeSpec.seg_tri(s, t)
    verts = spec.vertices()
    vecs = [v.reduced(verts[0]) for v in verts]
    maxima = list(_stem_maxima(spec))
    for (prefix, _, _, _, start), value in random.Random(30).sample(maxima, min(10, len(maxima))):
        rows = [vecs[i] for i in prefix]
        want = max((abs(det(rows + [vecs[u], vecs[v]]))
                    for u in range(start, len(vecs)) for v in range(len(vecs))), default=0)
        assert value == want, prefix


def test_v_never_exceeds_cap():
    caps = load_cube_caps()
    for s, t in [(1, 1), (0, 2), (2, 1), (1, 2), (3, 0)]:
        assert DEFAULT_VTABLE.get(s, t).value <= caps[s + 2 * t]


def test_memo_behavior():
    vt = VTable()
    assert f_bound(2, 1, 2, 1, 1, 1, vtable=vt) == f_bound(2, 1, 2, 1, 1, 1)
    memo = vt.memo
    n = len(memo)
    assert n > 0 and memo.misses == n
    f_bound(2, 1, 2, 1, 1, 1, vtable=vt)
    assert len(memo) == n  # append-only, nothing recomputed
    assert memo.hits >= 1


def check_evaluator_against_oracle(caps):
    """bounds_table through d = 8 on a fresh evaluator, then the oracle: the
    evaluator computed V only for pairs the oracle asked for, memoized only
    keys the oracle reached, and agrees with it on every key it reached."""
    vt = VTable(caps)
    table = bounds_table(8, 4, 8, vtable=vt)
    computed = set(vt._values)
    oracle, asked = oracle_over_cells(caps, 8)
    assert computed <= asked
    assert set(vt.memo.values) <= set(oracle.reached)
    assert len(oracle.reached) > len(vt.memo) > 100
    wrong = {key: value for key, value in oracle.reached.items() if vt.f(*key) != value}
    assert wrong == {}
    return table


def test_evaluator_matches_recursive_oracle():
    table = check_evaluator_against_oracle(load_cube_caps())
    assert [r for _, _, r in table.skipped] == ["beyond dimension cap"] * len(table.skipped)


# Cells of bounds_table(8, 4, 8) skipped with the d = 7 cap missing, as the
# evaluator without pruning skipped them.
SKIPPED_WITHOUT_CAP_7 = [(0, 4), (1, 3), (2, 3), (3, 2), (4, 2), (5, 1), (6, 1), (7, 0), (8, 0)]


def test_evaluator_matches_recursive_oracle_without_a_cap():
    # pruning reads V only where the unpruned recursion asks for it, so a
    # missing cap skips the same cells for the same reason
    caps = {d: v for d, v in load_cube_caps().items() if d != 7}
    table = check_evaluator_against_oracle(caps)
    skipped = [(s, t) for s, t, r in table.skipped if r != "beyond dimension cap"]
    assert skipped == SKIPPED_WITHOUT_CAP_7
    assert {r for s, t, r in table.skipped if (s, t) in skipped} == {
        "no cube cap configured for dimension 7"}


def test_corner_extremality_small():
    for s, t in [(1, 1), (2, 1), (0, 2), (3, 0)]:
        spec = SimplotopeSpec.seg_tri(s, t)
        x = corner_simplex(spec, spec.vertex((0,) * len(spec.factors)))
        for sp in range(0, s + t + 1):
            for tp in range(0, t + 1):
                if sp + 2 * tp < 2 or sp + 2 * tp > s + 2 * t:
                    continue
                assert len(exterior_faces(x, (sp, tp))) == comb_bound(s, t, sp, tp)
        assert len(exterior_faces(x, (1, 0))) == s + 3 * t


def test_f_positive_where_faces_exist():
    # a class-1 bound is positive whenever faces of that shape exist at all
    from simplotope.counting import q_count
    for s in range(0, 5):
        for t in range(0, 3):
            if not 1 <= s + 2 * t <= 4:
                continue
            for sp in range(0, s + t + 1):
                for tp in range(0, t + 1):
                    if sp + 2 * tp > s + 2 * t:
                        continue
                    if q_count(s, t, sp, tp) > 0:
                        assert f_bound(s, t, 1, sp, tp, 1) >= 1, (s, t, sp, tp)


# Every segment/triangle product through dimension 5, and (0, 3).
ORBIT_PRODUCTS = [(s, t) for t in range(3) for s in range(6 - 2 * t) if (s, t) != (0, 0)] + [(0, 3)]


@pytest.mark.parametrize("s, t", ORBIT_PRODUCTS)
def test_f_bounds_the_faces_of_every_orbit(s, t):
    # the most exterior faces of each (shape, class) that a class-c simplex
    # has, over one simplex of every orbit, never exceeds F; the footprint
    # factor pinned at 1 on the 0-face shape gave F(3,1,2,1,0,1) = 2 here,
    # against 3 such edges
    assert faces_over_f(s, t, _orderly_stems(SimplotopeSpec.seg_tri(s, t))) == {}


@pytest.mark.parametrize("s, t", [(3, 1), (1, 2)])
def test_orbit_face_counts_match_the_face_oracle(s, t):
    spec = SimplotopeSpec.seg_tri(s, t)
    verts = spec.vertices()
    orbits = list(orbit_face_counts(spec, _orderly_stems(spec)))
    for simplex, c, counts in random.Random(29).sample(orbits, 12):
        x = VertexSimplex(spec, [verts[i] for i in simplex])
        assert x.cls == c
        want = Counter((sp, tp, face_class(sub))
                       for tp in range(t + 1) for sp in range(s + t - tp + 1)
                       for sub, _ in exterior_faces(x, (sp, tp)))
        assert counts == want, simplex


# The F falsifier: a fixed seed and a fixed number of simplices climbed
# through on each product that no exhaustive check reaches (d = 6 to 8).
CLIMB_SEED = 3
CLIMB_EVALUATIONS = 3000


@pytest.mark.parametrize("s, t", [(2, 2), (4, 1), (1, 3), (3, 2), (2, 3)])
def test_climb_finds_no_simplex_with_more_faces_than_f(s, t):
    # evidence for F on these products, not a proof
    assert climb_to_f_violation(s, t, f_bound, CLIMB_SEED, CLIMB_EVALUATIONS) is None


def test_climb_finds_the_undercount_of_the_pre_mend_footprint_rule():
    # F with the footprint factor 1 on the 0-face shape, as before the mend,
    # undercounts on (3, 1); the climb finds a witness within the same
    # budget, and the face oracle confirms its count
    s, t = 3, 1
    pre_mend = make_f(lambda s, t: DEFAULT_VTABLE.get(s, t).value, zero_faces=lambda s, t: 1)
    found = climb_to_f_violation(s, t, pre_mend, CLIMB_SEED, CLIMB_EVALUATIONS)
    assert found is not None
    simplex, c, (sp, tp, cp), count, bound = found
    assert count > bound == pre_mend(s, t, c, sp, tp, cp)
    assert f_bound(s, t, c, sp, tp, cp) >= count  # the mended F bounds it
    spec = SimplotopeSpec.seg_tri(s, t)
    x = VertexSimplex(spec, [spec.vertices()[i] for i in simplex])
    assert x.cls == c
    assert sum(face_class(sub) == cp for sub, _ in exterior_faces(x, (sp, tp))) == count
