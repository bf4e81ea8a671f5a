"""Triangulation certification by facet matching, and the pairwise oracle it replaced."""

import itertools
import random
from collections import Counter

import pytest

from face_oracle import corner_simplex, tri_square_class2
from pairwise_oracle import meet_face_to_face, overlap_by_normalized_lp
from placing import random_placings
from simplotope.core import SimplotopeSpec, VertexPoint, VertexSimplex, minimal_face
from simplotope.exact import det
from simplotope.standard import standard_triangulation
from simplotope.trisquare import TRI_SQUARE, construction_stages, decode, minimal_triangulation_10
from simplotope.verifier import (
    TriangulationCandidate,
    adjacency_graph,
    facet_rows,
    interiors_overlap,
    verify,
)

SQ = SimplotopeSpec((1, 1))
CUBE = SimplotopeSpec((1, 1, 1))


def square_pair():
    return standard_triangulation(SQ)


def test_overlap_examples():
    a, b = square_pair()
    assert interiors_overlap(a, a)
    assert not interiors_overlap(a, b)  # they share only the diagonal
    c0 = corner_simplex(CUBE, CUBE.vertex((0, 0, 0)))
    c1 = corner_simplex(CUBE, CUBE.vertex((1, 0, 0)))
    assert interiors_overlap(c0, c1)


def test_overlap_symmetric():
    sims = [corner_simplex(CUBE, v) for v in CUBE.vertices()]
    for a, b in itertools.combinations(sims, 2):
        assert interiors_overlap(a, b) == interiors_overlap(b, a)


def test_overlap_agrees_with_the_normalized_lp():
    # the homogeneous LP against the normalized one it replaced: every pair of
    # tri-square class-2 simplices, and seeded pairs of vertex sets of any
    # size from 2 up, lower-dimensional and affinely dependent ones included
    fat = tri_square_class2()
    pairs = list(itertools.combinations(fat, 2))
    assert len(pairs) == 276
    rng = random.Random(25)
    for spec in (CUBE, SimplotopeSpec((1, 2)), SimplotopeSpec((2, 2))):
        verts = spec.vertices()
        for _ in range(30):
            pairs.append(tuple(VertexSimplex(spec, rng.sample(verts, rng.randint(2, spec.dim + 1)))
                               for _ in range(2)))
    verdicts = Counter()
    for a, b in pairs:
        got = interiors_overlap(a, b)
        assert got == overlap_by_normalized_lp(a, b), (a, b)
        verdicts[got, a.spec == TRI_SQUARE] += 1
    assert all(verdicts[key] for key in itertools.product((True, False), repeat=2)), verdicts


def test_face_to_face_examples():
    a, b = square_pair()
    assert meet_face_to_face(a, b)
    # the two fat tri-square simplices share the facet 158*
    s1850, s1358 = decode("1850*"), decode("1358*")
    assert meet_face_to_face(s1850, s1358)
    assert len(s1850.vertex_set & s1358.vertex_set) == 4
    # interior-overlapping simplices do not meet face-to-face
    c0 = corner_simplex(CUBE, CUBE.vertex((0, 0, 0)))
    c1 = corner_simplex(CUBE, CUBE.vertex((1, 0, 0)))
    assert not meet_face_to_face(c0, c1)
    # disjoint simplices meet vacuously
    c7 = corner_simplex(CUBE, CUBE.vertex((1, 1, 1)))
    assert meet_face_to_face(c0, c7)
    assert not interiors_overlap(c0, c7)


def test_face_to_face_symmetric():
    sims = standard_triangulation(CUBE)
    for a, b in itertools.combinations(sims, 2):
        assert meet_face_to_face(a, b) == meet_face_to_face(b, a)


def test_face_to_face_detects_shared_nonface():
    # two triangles of the square crossing along the two diagonals
    t1 = VertexSimplex(SQ, [SQ.vertex(i) for i in [(0, 0), (1, 1), (1, 0)]])
    t2 = VertexSimplex(SQ, [SQ.vertex(i) for i in [(0, 1), (1, 0), (1, 1)]])
    assert not meet_face_to_face(t1, t2)
    assert interiors_overlap(t1, t2)


def test_degenerate_rejected():
    degenerate = VertexSimplex(CUBE, [CUBE.vertex(i) for i in
                                      [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]])
    with pytest.raises(ValueError):
        meet_face_to_face(degenerate, degenerate)


def test_verify_product_of_triangles():
    spec = SimplotopeSpec((2, 2))
    report = verify(TriangulationCandidate(spec, tuple(standard_triangulation(spec))))
    assert report.certified
    assert report.classes == (1,) * 6
    assert report.total_class == report.polytope_class == 6


def test_verify_class_deficit():
    spec = SimplotopeSpec((2, 2))
    cand = TriangulationCandidate(spec, tuple(standard_triangulation(spec))[:-1])
    report = verify(cand)
    assert not report.certified and not report.facets_ok
    assert report.total_class == 5
    # the dropped simplex leaves its interior facet with one owner
    assert "total class 5 != polytope class 6" in report.diagnostics
    assert "interior facet [(0, 0), (0, 1), (1, 2), (2, 2)]: owned by 1 simplex [4], " \
           "expected 2" in report.diagnostics


def test_verify_duplicate_simplex():
    a, b = square_pair()
    report = verify(TriangulationCandidate(SQ, (a, b, b)))
    assert not report.certified
    assert not report.facets_ok
    assert "boundary facet [(0, 0), (0, 1)]: owned by 2 simplices [1, 2], expected 1" \
        in report.diagnostics
    assert "interior facet [(0, 0), (1, 1)]: owned by 3 simplices [0, 1, 2], expected 2" \
        in report.diagnostics


# Six class-1 simplices of the product of two triangles: the classes sum to 6,
# every boundary facet has one owner and every interior facet two, yet five
# interior facets have both apexes on one side.  Only the side test rejects it.
SAME_SIDE_22 = (
    ((0, 0), (0, 1), (0, 2), (1, 0), (2, 1)),
    ((0, 0), (0, 1), (0, 2), (1, 1), (2, 2)),
    ((0, 0), (0, 1), (1, 1), (2, 1), (2, 2)),
    ((0, 0), (0, 2), (1, 0), (1, 1), (2, 1)),
    ((0, 0), (0, 2), (1, 1), (2, 1), (2, 2)),
    ((0, 1), (0, 2), (1, 0), (1, 1), (2, 1)),
)


def candidate(spec, simplices):
    return TriangulationCandidate(spec, tuple(
        VertexSimplex(spec, [VertexPoint(spec, v) for v in x]) for x in simplices))


def test_verify_apexes_on_one_side():
    spec = SimplotopeSpec((2, 2))
    report = verify(candidate(spec, SAME_SIDE_22))
    assert report.total_class == report.polytope_class == 6
    assert not report.certified and not report.facets_ok
    assert report.diagnostics == (
        "interior facet [(0, 0), (0, 2), (1, 0), (2, 1)]: simplices 0 and 3 have their apexes on one side",
        "interior facet [(0, 0), (0, 2), (1, 1), (2, 2)]: simplices 1 and 4 have their apexes on one side",
        "interior facet [(0, 0), (1, 1), (2, 1), (2, 2)]: simplices 2 and 4 have their apexes on one side",
        "interior facet [(0, 0), (0, 2), (1, 1), (2, 1)]: simplices 3 and 4 have their apexes on one side",
        "interior facet [(0, 2), (1, 0), (1, 1), (2, 1)]: simplices 3 and 5 have their apexes on one side",
    )
    assert not pairwise_oracle(candidate(spec, SAME_SIDE_22))


def test_verify_wrong_vertex_count():
    a, b = square_pair()
    edge = VertexSimplex(SQ, a.vertices[:2])
    report = verify(TriangulationCandidate(SQ, (a, b, edge)))
    assert not report.certified and not report.classes_ok
    assert any("vertices" in d for d in report.diagnostics)


def test_adjacency_square():
    a, b = square_pair()
    report = verify(TriangulationCandidate(SQ, (a, b)))
    assert report.adjacency == ((0, 1),)
    assert adjacency_graph(TriangulationCandidate(SQ, (a, b))) == ((0, 1),)


def test_facet_matching_in_certified_partition():
    # every interior facet of a certified triangulation is shared by exactly
    # two simplices; every other facet lies in a simplotope facet
    for spec in [SimplotopeSpec((2, 2)), SimplotopeSpec((1, 1, 2))]:
        cand = TriangulationCandidate(spec, tuple(standard_triangulation(spec)))
        assert verify(cand).certified
        interior: Counter = Counter()
        for x in cand.simplices:
            for facet in itertools.combinations(x.vertices, spec.dim):
                zeros = minimal_face(facet).zeros
                if zeros:
                    # exterior facets lying in facet z have all vertices off coordinate z
                    assert all(v.idx[i] != j for i, j in zeros for v in facet)
                else:
                    interior[frozenset(facet)] += 1
        assert interior and all(n == 2 for n in interior.values())


def test_facet_rows_are_scaled_barycentric_functionals():
    # row i vanishes at every vertex but the i-th, where it equals |det|
    for n in range(1, 5):
        for f in partitions(n):
            spec = SimplotopeSpec(tuple(f))
            pivot = spec.vertex((0,) * len(spec.factors))
            for x in standard_triangulation(spec):
                rows = facet_rows(x)
                assert len(rows) == len(x.vertices) == spec.dim + 1
                for i, row in enumerate(rows):
                    values = [sum(r * c for r, c in zip(row, (1,) + v.reduced(pivot)))
                              for v in x.vertices]
                    assert values == [x.cls if k == i else 0 for k in range(len(values))], (spec, x)


def test_face_to_face_implies_disjoint_interiors():
    # the two exact engines must agree: distinct simplices meeting
    # face-to-face can never share an interior point
    spec = SimplotopeSpec((1, 1, 2))
    verts = spec.vertices()
    rng = random.Random(23)
    pairs_checked = 0
    while pairs_checked < 60:
        a = VertexSimplex(spec, rng.sample(verts, spec.dim + 1))
        b = VertexSimplex(spec, rng.sample(verts, spec.dim + 1))
        if a.cls == 0 or b.cls == 0 or a.vertex_set == b.vertex_set:
            continue
        pairs_checked += 1
        f2f = meet_face_to_face(a, b)
        overlap = interiors_overlap(a, b)
        if f2f:
            assert not overlap
        if not overlap and not f2f:
            # they touch along a shared set that is not a common face; at
            # least the symmetric check agrees
            assert not meet_face_to_face(b, a)


# --- the facet criterion against the pairwise oracle ---------------------------

def pairwise_oracle(cand):
    """The verdict of the old pairwise certification.

    Certified when every member is nondegenerate and full-dimensional, the
    classes sum to the polytope class, no two members have the same vertex
    set and every pair meets face-to-face (which makes interiors disjoint).
    """
    d = cand.spec.dim
    xs = cand.simplices
    if any(len(x.vertices) != d + 1 or x.cls == 0 for x in xs):
        return False
    if sum(x.cls for x in xs) != cand.spec.polytope_class:
        return False
    return all(x.vertex_set != y.vertex_set and meet_face_to_face(x, y)
               for x, y in itertools.combinations(xs, 2))


def old_adjacency_scan(cand):
    """adjacency_graph as the O(n^2) scan computed it: pairs sharing exactly d vertices."""
    d = cand.spec.dim
    return tuple((i, j) for i, j in itertools.combinations(range(len(cand.simplices)), 2)
                 if len(cand.simplices[i].vertex_set & cand.simplices[j].vertex_set) == d)


def partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def standard(spec):
    return TriangulationCandidate(spec, tuple(standard_triangulation(spec)))


def affine_dependence(points):
    """The integer affine dependence of d + 2 points spanning dimension d (Cramer)."""
    cols = [p.lifted() for p in points]
    rows = list(zip(*cols))
    return [(-1) ** k * det([r[:k] + r[k + 1:] for r in rows]) for k in range(len(points))]


def pair_flips(cand):
    """Every bistellar flip of cand that replaces two adjacent simplices.

    For adjacent simplices with apexes a and b, the d + 2 vertices of their
    union carry one affine dependence.  When a and b are its only terms of
    one sign, the pair is one of the two triangulations of that circuit
    (joined with the vertices off it), and the flip swaps in the other: the
    union minus each vertex of the opposite sign.  Whether the result is a
    triangulation depends on the rest of cand; both verifiers must agree.
    """
    xs = cand.simplices
    out = []
    for i, j in adjacency_graph(cand):
        union = sorted(xs[i].vertex_set | xs[j].vertex_set, key=lambda v: v.idx)
        (a,), (b,) = xs[i].vertex_set - xs[j].vertex_set, xs[j].vertex_set - xs[i].vertex_set
        lam = affine_dependence(union)
        sign = lam[union.index(a)]
        if {u for u, c in zip(union, lam) if c * sign > 0} != {a, b}:
            continue
        new = tuple(VertexSimplex(cand.spec, [u for u in union if u != z])
                    for z, c in zip(union, lam) if c * sign < 0)
        rest = tuple(x for k, x in enumerate(xs) if k not in (i, j))
        out.append(TriangulationCandidate(cand.spec, rest + new))
    return out


def single_vertex_mutants(cand, count, rng):
    """Seeded mutants that move one vertex of one simplex, as in the benchmark.

    Each new simplex is nondegenerate and not already a member, so no mutant
    is a triangulation (see perfbench/workloads.py for the argument).
    """
    xs = cand.simplices
    members = {x.vertex_set for x in xs}
    verts = cand.spec.vertices()
    out = []
    while len(out) < count:
        k = rng.randrange(len(xs))
        pos = rng.randrange(len(xs[k].vertices))
        w = rng.choice([v for v in verts if v not in xs[k].vertex_set])
        new = VertexSimplex(cand.spec, xs[k].vertices[:pos] + (w,) + xs[k].vertices[pos + 1:])
        if new.vertex_set in members or new.cls == 0:
            continue
        out.append(TriangulationCandidate(cand.spec, xs[:k] + (new,) + xs[k + 1:]))
    return out


FLIP_BASES = [SimplotopeSpec((2, 2)), SimplotopeSpec((1, 3)), SimplotopeSpec((1, 1, 2))]


@pytest.fixture(scope="module")
def certified_inputs():
    """Triangulations that certify: standard ones up to 30 simplices through
    dimension 5, the construction stages, the bundled minimal triangulation
    and the certified pair flips of the (2,2), (1,3) and (1,1,2) triangulations."""
    cands = [standard(SimplotopeSpec(tuple(f))) for n in range(1, 6) for f in partitions(n)
             if SimplotopeSpec(tuple(f)).polytope_class <= 30]
    cands += list(construction_stages())
    cands.append(minimal_triangulation_10())
    return cands


def test_fast_path_agrees_with_oracle_on_triangulations(certified_inputs):
    for cand in certified_inputs:
        report = verify(cand)
        assert report.certified and report.facets_ok, (cand.spec, report.diagnostics)
        assert pairwise_oracle(cand), cand.spec
        assert report.adjacency == old_adjacency_scan(cand)


def test_fast_path_agrees_with_oracle_on_flips():
    for spec in FLIP_BASES:
        base = standard(spec)
        flips = pair_flips(base)
        certified = 0
        for cand in flips:
            want = pairwise_oracle(cand)
            assert verify(cand).certified == want, spec
            if want:
                certified += 1
                assert {x.vertex_set for x in cand.simplices} != {x.vertex_set for x in base.simplices}
        assert certified >= 1, spec
        if spec == SimplotopeSpec((2, 2)):
            assert certified < len(flips)  # some flips are rejected, by both


def test_fast_path_agrees_with_oracle_on_mutants():
    rng = random.Random(2024)
    bases = []
    for spec in FLIP_BASES:
        bases.append(standard(spec))
        bases += [c for c in pair_flips(standard(spec)) if verify(c).certified][:2]
    bases += list(construction_stages()) + [minimal_triangulation_10()]
    preserving = 0
    for base in bases:
        for cand in single_vertex_mutants(base, 4, rng):
            report = verify(cand)
            assert not report.certified and report.diagnostics
            assert not pairwise_oracle(cand)
            if report.total_class == report.polytope_class:
                preserving += 1
                assert not report.facets_ok  # only the facet check can reject these
            assert adjacency_graph(cand) == old_adjacency_scan(cand)
    assert preserving >= 10


# Seeded placing triangulations (tests/placing.py), with the fewest simplices
# a triangulation can have: the table's cells (3,0), (4,0), (5,0) and (1,2),
# and for (1,1,2) the bound 10 of the triangle-cross-square case study.
PLACINGS = [(CUBE, 60, 3, 5), (SimplotopeSpec((1, 1, 1, 1)), 30, 4, 16),
            (SimplotopeSpec((1, 1, 2)), 40, 112, 10), (SimplotopeSpec((1,) * 5), 4, 11, 60),
            (SimplotopeSpec((1, 2, 2)), 10, 11, 20)]


@pytest.fixture(scope="module")
def placings():
    return {spec: random_placings(spec, count, seed) for spec, count, seed, _ in PLACINGS}


@pytest.mark.parametrize("spec, bound", [(spec, bound) for spec, _, _, bound in PLACINGS],
                         ids=["3-cube", "4-cube", "1-1-2", "5-cube", "1-2-2"])
def test_placings_certify_and_respect_the_lower_bound(placings, spec, bound):
    not_unimodular = 0
    for cand in placings[spec]:
        report = verify(cand)
        assert report.certified, (cand.spec, report.diagnostics)
        assert len(cand.simplices) >= bound
        not_unimodular += max(report.classes) > 1
    assert not_unimodular  # unlike every standard triangulation


def oracle_agrees_on_placings(cands):
    """The oracle accepts each placing, and both verifiers agree on two mutants of each."""
    rng = random.Random(5)
    for cand in cands:
        assert pairwise_oracle(cand)
        for mutant in single_vertex_mutants(cand, 2, rng):
            assert verify(mutant).certified == pairwise_oracle(mutant)


def test_fast_path_agrees_with_oracle_on_cube_placings(placings):
    oracle_agrees_on_placings(placings[CUBE])


def test_fast_path_agrees_with_oracle_on_1_2_2_placings(placings):
    # the oracle takes seconds on a 5-cube placing, so those are left to verify
    oracle_agrees_on_placings(placings[SimplotopeSpec((1, 2, 2))][:2])


def test_adjacency_matches_old_scan_on_malformed_candidates():
    a, b = square_pair()
    edge = VertexSimplex(SQ, a.vertices[:2])
    point = VertexSimplex(SQ, a.vertices[:1])
    for sims in [(a, b, b), (a, a), (a, edge), (edge, edge, b), (point, a, edge), (a, b, edge, b)]:
        cand = TriangulationCandidate(SQ, sims)
        assert adjacency_graph(cand) == old_adjacency_scan(cand), sims
