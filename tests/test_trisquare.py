"""The triangle-cross-square case study."""

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from importlib import resources

import pytest

from face_oracle import (
    all_simplices,
    corner_simplex,
    exterior_facet_positions_by_minimal_face,
    face_class,
    nondegenerate_subsets_by_det,
    signature,
    spot_set,
    tri_square_class2,
)
from simplotope import trisquare, verifier
from simplotope.core import SimplotopeSpec, VertexSimplex, exterior_spots, minimal_face, spot_mask, symmetries
from simplotope.exact import scaled_inverse
from simplotope.standard import standard_triangulation
from simplotope.trisquare import (
    CENTER_REDUCED,
    MINIMAL_10,
    SYMBOLS,
    TRI_SQUARE,
    VERTEX_CODE,
    center_in_facet,
    construction_stages,
    decode,
    minimal_triangulation_10,
    nondegenerate_subsets,
    overlap_matrix,
    standard_12,
)
from simplotope.verifier import interiors_overlap, verify

ZERO = TRI_SQUARE.vertex((0, 0, 0))


def canon(word):
    return "".join(sorted(word, key=SYMBOLS.index))


SYMBOL_OF = {v: s for s, v in VERTEX_CODE.items()}


def word_in_order(x):
    """The symbols of a simplex's vertices, in its vertex order."""
    return "".join(SYMBOL_OF[v] for v in x.vertices)


def encode(x):
    """The word of a simplex: its vertices' symbols in symbol order."""
    return canon(word_in_order(x))


def test_vertex_code_anchors():
    assert VERTEX_CODE["1"].reduced(ZERO) == (0, 0, 0, 0)
    assert VERTEX_CODE["2"].reduced(ZERO) == (0, 0, 0, 1)
    assert VERTEX_CODE["3"].reduced(ZERO) == (0, 0, 1, 0)
    assert VERTEX_CODE["4"].reduced(ZERO) == (0, 1, 0, 0)
    assert VERTEX_CODE["*"].reduced(ZERO) == (1, 1, 1, 0)
    # numeric order: reduced coordinates strictly increase along the symbols
    ordered = [VERTEX_CODE[s].reduced(ZERO) for s in SYMBOLS]
    assert ordered == sorted(ordered)
    with pytest.raises(TypeError):  # one table, read-only
        VERTEX_CODE["1"] = VERTEX_CODE["2"]


def test_exactly_24_class_two_simplices():
    fat = tri_square_class2()
    assert len(fat) == 24
    assert all(x.cls == 2 for x in fat)


def test_index_scan_matches_the_enumeration():
    # the scan over vertex indices finds the same nondegenerate vertex sets,
    # classes and exterior-facet spots as the enumeration of simplices
    verts = TRI_SQUARE.vertices()
    scanned = {frozenset(verts[i] for i in sub): (cls, spot_set(exterior_spots(spot_mask(verts[i]) for i in sub),
                                                               TRI_SQUARE))
               for sub, cls in nondegenerate_subsets()}
    enumerated = {x.vertex_set: (x.cls, exterior_facet_positions_by_minimal_face(x))
                  for x in all_simplices(TRI_SQUARE) if x.cls}
    assert len(scanned) == 504
    assert scanned == enumerated
    fat = {vs for vs, (cls, _) in scanned.items() if cls == 2}
    assert fat == {x.vertex_set for x in tri_square_class2()} and len(fat) == 24


def test_scan_equals_one_determinant_per_subset():
    # the same (subset, class) pairs in the same combinations order
    assert nondegenerate_subsets() == nondegenerate_subsets_by_det()


def test_scan_division_is_checked(monkeypatch):
    # a stem pivot doubled: a class-1 subset's cross product |p| is not a
    # multiple of 2|p|, and the scan must raise, not round
    stems = trisquare.elimination_stems
    monkeypatch.setattr(trisquare, "elimination_stems",
                        lambda rows: ((*stem[:3], 2 * stem[3], stem[4]) for stem in stems(rows)))
    with pytest.raises(ArithmeticError):
        nondegenerate_subsets()


def test_exact_quotient_is_checked():
    assert trisquare._exact_quotient(-12, 3) == -4
    with pytest.raises(ArithmeticError):
        trisquare._exact_quotient(7, 2)


def vertex_indices(x):
    """x's vertices as indices into TRI_SQUARE.vertices(), which symmetries permute."""
    position = {v: k for k, v in enumerate(TRI_SQUARE.vertices())}
    return frozenset(position[v] for v in x.vertices)


def test_class_two_single_orbit():
    fat = [vertex_indices(x) for x in tri_square_class2()]
    group = symmetries(TRI_SQUARE)
    assert len(group) == 48
    assert {frozenset(g[i] for i in fat[0]) for g in group} == set(fat)


def test_class_two_pairs_form_14_orbits():
    fat = [vertex_indices(x) for x in tri_square_class2()]
    index = {x: i for i, x in enumerate(fat)}
    images = [[index[frozenset(g[i] for i in x)] for x in fat] for g in symmetries(TRI_SQUARE)]
    pairs = list(itertools.combinations(range(len(fat)), 2))
    assert len(pairs) == 276
    orbits = {frozenset(frozenset((g[i], g[j])) for g in images) for i, j in pairs}
    assert len(orbits) == 14


def test_overlap_matrix_matches_direct_lps():
    # the slow oracle: one LP for every one of the 276 pairs
    fat = tri_square_class2()
    m = overlap_matrix(fat)
    assert all(m[i][i] for i in range(len(fat)))
    for i, j in itertools.combinations(range(len(fat)), 2):
        assert m[i][j] == m[j][i] == interiors_overlap(fat[i], fat[j]), (encode(fat[i]), encode(fat[j]))


def test_overlap_matrix_on_a_list_not_closed_under_symmetry():
    # the ten simplices of a triangulation have pairwise disjoint interiors,
    # and a repeated entry overlaps its twin
    sims = list(minimal_triangulation_10().simplices)
    m = overlap_matrix(sims + sims[:1])
    assert [[m[i][j] for j in range(10)] for i in range(10)] == [[i == j for j in range(10)] for i in range(10)]
    assert m[10][0] and m[0][10]


def test_every_fat_simplex_has_class2_cube_facet():
    for x in tri_square_class2():
        found = False
        for sub in itertools.combinations(x.vertices, 4):
            fid = minimal_face(sub)
            if fid.dim == 3 and signature(fid)[1] == 0 and face_class(sub) == 2:
                found = True
        assert found


def test_center_coefficients():
    x = decode("15803")
    assert x.cls == 2
    assert center_in_facet(x) == (0, Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3))
    expected = sorted([Fraction(0), Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3)])
    for y in tri_square_class2():
        assert sorted(center_in_facet(y)) == expected


def test_cramer_centers_equal_the_adjugate_solution():
    # the convex-combination system solved as adj . rhs / det instead
    for x in tri_square_class2():
        rows = [v.reduced(ZERO) for v in x.vertices]
        system = [[1] * 5] + [[r[k] for r in rows] for k in range(TRI_SQUARE.dim)]
        d, adj = scaled_inverse(system)
        rhs = [Fraction(1), *CENTER_REDUCED]
        assert center_in_facet(x) == tuple(sum(a * r for a, r in zip(row, rhs)) / d for row in adj)


def test_center_guard_for_class_one():
    with pytest.raises(ValueError):
        center_in_facet(corner_simplex(TRI_SQUARE, ZERO))


def test_overlap_lp_has_one_row_per_split_equality_and_z(monkeypatch):
    # 2(d + 1) split equality rows and z <= 1; a column per weight and z
    shapes = []
    lp_minimize = verifier.lp_minimize

    def recording(problem):
        shapes.append((len(problem.constraints), len(problem.objective)))
        return lp_minimize(problem)

    monkeypatch.setattr(verifier, "lp_minimize", recording)
    overlap_matrix(tri_square_class2())
    assert shapes == [(11, 11)] * 14
    shapes.clear()
    cube = standard_triangulation(SimplotopeSpec((1, 1, 1)))
    segment = VertexSimplex(cube[0].spec, cube[0].vertices[:2])
    assert interiors_overlap(cube[0], cube[0]) and not interiors_overlap(cube[0], cube[1])
    assert interiors_overlap(segment, segment)
    assert shapes == [(9, 9), (9, 9), (9, 5)]


def test_minimal_triangulation_checks_out():
    cand = minimal_triangulation_10()
    report = verify(cand)
    assert report.certified
    assert report.total_class == 12
    assert sorted(report.classes) == [1] * 8 + [2, 2]
    fat_words = {MINIMAL_10[i] for i, c in enumerate(report.classes) if c == 2}
    assert fat_words == {"1850*", "1358*"}


def test_fat_pair_common_facet():
    s1850, s1358 = decode("1850*"), decode("1358*")
    common = {SYMBOL_OF[v] for v in s1850.vertex_set & s1358.vertex_set}
    assert common == set("158*")


def test_adjacency_structure():
    report = verify(minimal_triangulation_10())
    # the first eight form a cycle, the fat pair is a chord, and the two
    # corner simplices hang off the fat ones
    cycle = {(i, i + 1) for i in range(7)} | {(0, 7)}
    chord = {(0, 4)}
    pendants = {(0, 8), (4, 9)}
    assert set(report.adjacency) == cycle | chord | pendants


def test_boundary_tiling():
    # the exterior facets of the ten simplices tile every simplotope facet:
    # classes sum to the facet class and no two overlap inside one facet
    cand = minimal_triangulation_10()
    exterior = defaultdict(list)
    interior: Counter = Counter()
    for x in cand.simplices:
        for facet in itertools.combinations(x.vertices, TRI_SQUARE.dim):
            zeros = minimal_face(facet).zeros
            for z in zeros:
                exterior[z].append(facet)
            if not zeros:
                interior[frozenset(facet)] += 1
    assert all(n == 2 for n in interior.values())
    for i, c in enumerate(TRI_SQUARE.factors):
        for j in range(c + 1):
            entries = exterior[(i, j)]
            total = sum(face_class(facet) for facet in entries)
            facet_class = 3 if c == 1 else 6
            assert total == facet_class, (i, j, total)
            for fa, fb in itertools.combinations(entries, 2):
                assert not interiors_overlap(VertexSimplex(TRI_SQUARE, fa),
                                             VertexSimplex(TRI_SQUARE, fb))


def test_standard_12_relabels_the_triangle_chain():
    # the standard triangulation with the triangle's positions 1 and 2
    # swapped: the same simplices, vertex for vertex, each from 1 to *
    t12 = standard_12().simplices
    assert [word_in_order(x) for x in t12] == [
        "170#*", "178#*", "1789*", "140#*", "145#*", "1456*",
        "128#*", "1289*", "125#*", "1256*", "1239*", "1236*"]
    relabel = (0, 2, 1)
    plain = standard_triangulation(TRI_SQUARE)
    assert [[(a, b, relabel[c]) for a, b, c in (v.idx for v in x.vertices)] for x in plain] == \
        [[v.idx for v in x.vertices] for x in t12]
    assert {x.vertex_set for x in plain} != {x.vertex_set for x in t12}


def test_construction_replay():
    t12, t11, t10 = construction_stages()
    assert (len(t12.simplices), len(t11.simplices), len(t10.simplices)) == (12, 11, 10)
    # stage zero is the standard triangulation with spine 1-*
    for x in t12.simplices:
        word = encode(x)
        assert "1" in word and "*" in word
    assert {encode(x) for x in t10.simplices} == {canon(w) for w in MINIMAL_10}
    for cand in (t12, t11, t10):
        assert verify(cand).certified


def test_bundled_file_matches():
    from simplotope.tfiles import load_candidate

    cand = load_candidate(resources.files("simplotope").joinpath("data/tri_square_minimal.json"))
    want = {x.vertex_set for x in minimal_triangulation_10().simplices}
    assert {x.vertex_set for x in cand.simplices} == want
