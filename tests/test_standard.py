"""Standard (staircase) triangulation: sizes, classes, certification."""

import itertools

from simplotope.core import SimplotopeSpec
from simplotope.standard import orderings, standard_triangulation
from simplotope.verifier import TriangulationCandidate, verify


def partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def test_standard_size_examples():
    assert SimplotopeSpec((2, 2)).polytope_class == 6
    assert SimplotopeSpec((1, 1, 2)).polytope_class == 12
    assert SimplotopeSpec((2, 2, 2)).polytope_class == 90
    assert SimplotopeSpec((1,)).polytope_class == 1


def test_ordering_count_matches_size():
    for factors in [(1,), (2,), (1, 1), (2, 1), (2, 2), (1, 1, 2), (3, 2)]:
        spec = SimplotopeSpec(tuple(factors))
        os = list(orderings(spec))
        assert len(os) == spec.polytope_class
        assert len(set(os)) == len(os)


def test_sizes_for_all_specs_up_to_dim_six():
    for n in range(1, 7):
        for factors in partitions(n):
            spec = SimplotopeSpec(tuple(factors))
            tri = standard_triangulation(spec)
            assert len(tri) == spec.polytope_class
            assert len({x.vertex_set for x in tri}) == len(tri)


def test_all_class_one_and_class_sum():
    for n in range(1, 7):
        for factors in partitions(n):
            spec = SimplotopeSpec(tuple(factors))
            tri = standard_triangulation(spec)
            assert all(x.cls == 1 for x in tri)
            assert sum(x.cls for x in tri) == spec.polytope_class


def test_single_segment():
    tri = standard_triangulation(SimplotopeSpec((1,)))
    assert len(tri) == 1
    assert {v.idx for v in tri[0].vertices} == {(0,), (1,)}


def test_three_cube_partition():
    tri = standard_triangulation(SimplotopeSpec((1, 1, 1)))
    assert len(tri) == 6
    assert sum(x.cls for x in tri) == 6


def test_certification_small():
    # full certification of every spec through dimension 4 (dimension 5 is
    # exercised by the acceptance suite)
    for n in range(1, 5):
        for factors in partitions(n):
            spec = SimplotopeSpec(tuple(factors))
            cand = TriangulationCandidate(spec, tuple(standard_triangulation(spec)))
            report = verify(cand)
            assert report.certified, (factors, report.diagnostics)


def test_orderings_are_the_label_permutations_in_lexicographic_order():
    for factors in [(1,), (3,), (1, 1), (2, 1), (1, 2, 1), (2, 2, 1)]:
        labels = [i for i, c in enumerate(factors) for _ in range(c)]
        want = sorted(set(itertools.permutations(labels)))
        assert list(orderings(SimplotopeSpec(factors))) == want


def test_orderings_of_one_long_factor():
    # one ordering, found without a call per coordinate
    assert list(orderings(SimplotopeSpec((5000,)))) == [(0,) * 5000]


def test_poles_common_to_all_simplices():
    spec = SimplotopeSpec((2, 2))
    tri = standard_triangulation(spec)
    common = set.intersection(*[set(x.vertices) for x in tri])
    assert {v.idx for v in common} == {(0, 0), (2, 2)}
