"""Simplotope model: coordinates, classes, faces, exterior structure."""

import itertools
import math
import random
from collections import Counter

import pytest

from face_oracle import (
    all_simplices,
    corner_simplex,
    exterior_faces,
    exterior_facet_positions,
    exterior_facet_positions_by_minimal_face,
    face_class,
    footprint,
    free_coords,
    is_parallel,
    is_tri_positioned,
    shadow,
    signature,
    spot_set,
)
from simplotope.core import (
    SimplotopeSpec,
    VertexSimplex,
    class_of,
    exterior_spots,
    has_exterior_facet,
    minimal_face,
    spot_mask,
    symmetries,
)

S21 = SimplotopeSpec.seg_tri(2, 1)
S11 = SimplotopeSpec.seg_tri(1, 1)


def nondegenerate(spec):
    return [x for x in all_simplices(spec) if x.cls > 0]


# --- coordinates -------------------------------------------------------------

def test_spec_basics():
    assert S21.dim == 4
    assert len(S21.vertices()) == 12
    assert S21.polytope_class == 12
    assert SimplotopeSpec((2, 2)).polytope_class == 6
    with pytest.raises(ValueError):
        SimplotopeSpec(())
    with pytest.raises(ValueError):
        SimplotopeSpec((1, 0))


def test_reduce_pivot_to_zero():
    # only the pivot reduces to the zero vector, whichever vertex it is
    for pivot in S21.vertices():
        assert [v for v in S21.vertices() if not any(v.reduced(pivot))] == [pivot]


def test_reduce_rejects_mismatched_spec():
    with pytest.raises(ValueError):
        S21.vertex((0, 0, 0)).reduced(SimplotopeSpec((2, 2)).vertex((0, 0)))


def products_through(dim):
    """Every product of simplices of dimension at most dim, factors ascending."""
    def rest(n, smallest):
        yield ()
        for c in range(smallest, n + 1):
            yield from ((c,) + tail for tail in rest(n - c, c))
    return [SimplotopeSpec(f) for f in rest(dim, 1) if f]


def test_lifted_is_one_then_reduced_at_the_zero_vertex():
    specs = products_through(5)
    assert len(specs) == 18  # the partitions of 1, ..., 5
    for spec in specs:
        zero = spec.vertex((0,) * len(spec.factors))
        for v in spec.vertices():
            assert v.lifted() == (1,) + v.reduced(zero), (spec, v)


# --- classes ----------------------------------------------------------------

def test_corner_simplices_class_one():
    for spec in [S11, S21, SimplotopeSpec.seg_tri(0, 2), SimplotopeSpec((1, 1, 1))]:
        for v in spec.vertices():
            x = corner_simplex(spec, v)
            assert len(x.vertices) == spec.dim + 1
            assert x.cls == 1


def test_corner_simplex_sizes():
    # one-cube: the segment itself; two triangles: five vertices
    seg = SimplotopeSpec((1,))
    x = corner_simplex(seg, seg.vertex((1,)))
    assert {v.idx for v in x.vertices} == {(0,), (1,)}
    tt = SimplotopeSpec.seg_tri(0, 2)
    assert len(corner_simplex(tt, tt.vertex((0, 0))).vertices) == 5


def test_class_two_simplex_from_tri_square():
    # reduced vertices (0;0;0,0),(0;1;0,1),(1;0;0,1),(1;1;0,0),(0;0;1,0)
    idxs = [(0, 0, 0), (0, 1, 2), (1, 0, 2), (1, 1, 0), (0, 0, 1)]
    x = VertexSimplex(S21, [S21.vertex(i) for i in idxs])
    assert x.cls == 2


def test_class_pivot_independent():
    verts = S21.vertices()
    sims = random.Random(2).sample(list(all_simplices(S21)), 40)
    for x in sims:
        expected = class_of(x, verts[0])
        for pivot in verts:
            assert class_of(x, pivot) == expected


def test_degenerate_class_zero():
    square_face = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1)]
    x = VertexSimplex(S21, [S21.vertex(i) for i in square_face])
    assert x.cls == 0


def test_simplex_validation():
    v = S21.vertex((0, 0, 0))
    with pytest.raises(ValueError):
        VertexSimplex(S21, [v, v])
    with pytest.raises(ValueError):
        class_of(VertexSimplex(S21, [v]), v)


# --- symmetries -------------------------------------------------------------

SYMMETRY_CASES = [(factors, mode) for factors in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2), (1, 2), (1, 3)]
                  for mode in (False, True)] + [((2, 2, 2), True)]


@pytest.mark.parametrize("factors, fixing_vertex_0", SYMMETRY_CASES,
                         ids=["x".join(map(str, f)) + ("-stabilizer" if m else "-full")
                              for f, m in SYMMETRY_CASES])
def test_symmetries(factors, fixing_vertex_0):
    # (1, 1, 2) is the tri-square, whose 48 symmetries copy overlap verdicts;
    # the V search runs under the stabilizers.  The full group of (2, 2, 2)
    # is left out: its closure check is 1.7M compositions.
    spec = SimplotopeSpec(factors)
    group = symmetries(spec, fixing_vertex_0=fixing_vertex_0)
    n = len(spec.vertices())
    shift = 0 if fixing_vertex_0 else 1
    order = math.prod(math.factorial(c + shift) for c in factors)
    order *= math.prod(math.factorial(m) for m in Counter(factors).values())
    assert len(group) == len(set(group)) == order
    assert group[0] == tuple(range(n))
    assert all(sorted(g) == list(range(n)) for g in group)
    # built as a product, with no closure loop to vouch for it: check closure
    elements = set(group)
    assert all(tuple(g[i] for i in h) in elements for g in group for h in group)
    if fixing_vertex_0:
        assert all(g[0] == 0 for g in group)

    verts = spec.vertices()

    def cls(sub):
        return VertexSimplex(spec, [verts[i] for i in sub]).cls

    def zeros(sub):
        return len(minimal_face([verts[i] for i in sub]).zeros)

    rng = random.Random(5)
    samples = []
    while len(samples) < 20:
        sub = rng.sample(range(n), spec.dim + 1)
        if cls(sub):
            samples.append(sub)
    for g in group:
        for sub in samples:
            image = [g[i] for i in sub]
            assert cls(image) == cls(sub)
            # a facet-sized and an edge-sized subset keep their minimal faces' zero counts
            assert zeros(image[1:]) == zeros(sub[1:]) and zeros(image[:2]) == zeros(sub[:2])


# --- faces ------------------------------------------------------------------

def test_minimal_face_extremes():
    v = S21.vertex((1, 0, 2))
    fid = minimal_face([v])
    assert fid.dim == 0 and len(fid.zeros) == S21.dim
    fid = minimal_face(S21.vertices())
    assert fid.zeros == frozenset() and fid.dim == S21.dim


def test_face_signature():
    # a prism face of the tri-square: fix one segment coordinate at zero
    fid = minimal_face([v for v in S21.vertices() if v.idx[0] == 0])
    assert signature(fid) == (1, 1, 1)
    # a square face using the triangle factor as a segment
    fid = minimal_face([S21.vertex(i) for i in [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]])
    assert signature(fid) == (2, 0, 1) and fid.dim == 2


def test_exterior_faces_corner_counts():
    x = corner_simplex(S11, S11.vertex((0, 0)))
    assert len(exterior_faces(x, (2, 0))) == 2
    assert len(exterior_faces(x, (1, 0))) == 4


def test_exterior_faces_whole_simplex():
    for spec, (s, t) in [(S11, (1, 1)), (S21, (2, 1))]:
        for x in random.Random(3).sample(nondegenerate(spec), 10):
            found = exterior_faces(x, (s, t))
            assert len(found) == 1 and set(found[0][0]) == x.vertex_set


def test_exterior_faces_rejects_degenerate():
    square_face = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1)]
    x = VertexSimplex(S21, [S21.vertex(i) for i in square_face])
    with pytest.raises(ValueError):
        exterior_faces(x, (1, 0))


def test_has_exterior_facet_products_of_two():
    for a, b in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        spec = SimplotopeSpec((a, b))
        for x in nondegenerate(spec):
            assert has_exterior_facet(x)


@pytest.mark.parametrize("factors", [(1, 1, 2), (1, 2), (2, 2)])
def test_exterior_facet_positions_match_minimal_faces(factors):
    # the spot masks, the per-vertex count and the minimal faces of the
    # d-subsets give the same spots on every nondegenerate simplex
    spec = SimplotopeSpec(factors)
    for x in nondegenerate(spec):
        spots = exterior_facet_positions(v.idx for v in x.vertices)
        assert spots == exterior_facet_positions_by_minimal_face(x), x
        assert spot_set(exterior_spots(map(spot_mask, x.vertices)), spec) == spots, x


def test_spot_mask_holds_one_position_per_factor():
    spec = SimplotopeSpec((1, 3, 2))
    for v in spec.vertices():
        assert spot_set(spot_mask(v), spec) == set(enumerate(v.idx)), v


def test_exterior_spots_are_the_spots_used_once():
    # seeded masks with spots used once, twice and three times
    rng = random.Random(41)
    for _ in range(500):
        masks = [rng.getrandbits(12) for _ in range(rng.randint(0, 6))]
        once = {k for k in range(12) if sum(m >> k & 1 for m in masks) == 1}
        assert exterior_spots(masks) == sum(1 << k for k in once), masks


def test_has_exterior_facet_rejects_degenerate():
    # exterior_spots takes simplices its caller found nondegenerate
    square_face = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1)]
    with pytest.raises(ValueError):
        has_exterior_facet(VertexSimplex(S21, [S21.vertex(i) for i in square_face]))


def test_parallel_lines_example():
    # the two parallel edges with free coordinates 5 and 7 (1-indexed)
    l1 = minimal_face([S21.vertex((1, 1, 2)), S21.vertex((1, 1, 0))])
    l2 = minimal_face([S21.vertex((1, 0, 2)), S21.vertex((1, 0, 0))])
    assert free_coords(l1) == frozenset({(2, 0), (2, 2)})
    assert is_parallel(l1, l2)
    assert is_parallel(l1, l1)
    # two distinct facets of a triangle factor are not parallel
    t = SimplotopeSpec.seg_tri(0, 1)
    e1 = minimal_face([t.vertex((0,)), t.vertex((1,))])
    e2 = minimal_face([t.vertex((0,)), t.vertex((2,))])
    assert not is_parallel(e1, e2)


def test_tri_positioned():
    prism = SimplotopeSpec((1, 2))
    squares = [minimal_face([v for v in prism.vertices() if v.idx[1] != j]) for j in range(3)]
    assert is_tri_positioned(*squares)
    # the three edges of a triangular facet
    tri_facet = [v for v in prism.vertices() if v.idx[0] == 0]
    edges = [minimal_face([v for v in tri_facet if v.idx[1] != j]) for j in range(3)]
    assert is_tri_positioned(*edges)
    # squares of a cube: no triangle factor, so never tri-positioned
    cube = SimplotopeSpec((1, 1, 1))
    f1 = minimal_face([v for v in cube.vertices() if v.idx[0] == 0])
    f2 = minimal_face([v for v in cube.vertices() if v.idx[0] == 1])
    f3 = minimal_face([v for v in cube.vertices() if v.idx[1] == 0])
    assert not is_tri_positioned(f1, f2, f3)


# --- exterior-face structure theorems, checked exhaustively -------------------

def test_facet_class_equals_simplex_class():
    for spec in [S11, S21]:
        for x in nondegenerate(spec):
            d = spec.dim
            for sub in itertools.combinations(x.vertices, d):
                fid = minimal_face(sub)
                if fid.dim == d - 1:
                    assert face_class(sub) == x.cls
                    # and any exterior face's class divides the simplex class
            for size in range(1, d + 1):
                for sub in itertools.combinations(x.vertices, size):
                    fid = minimal_face(sub)
                    if fid.dim == size - 1:
                        assert x.cls % face_class(sub) == 0


def test_no_parallel_exterior_faces():
    for spec in [S11, S21]:
        for x in nondegenerate(spec):
            for size in range(2, spec.dim + 1):
                faces = [minimal_face(sub)
                         for sub in itertools.combinations(x.vertices, size)
                         if minimal_face(sub).dim == size - 1]
                for f1, f2 in itertools.combinations(faces, 2):
                    if f1 != f2:
                        assert not is_parallel(f1, f2)


def test_no_tri_positioned_exterior_faces():
    for spec in [S11, S21]:
        for x in nondegenerate(spec):
            for size in range(3, spec.dim + 1):
                faces = {minimal_face(sub)
                         for sub in itertools.combinations(x.vertices, size)
                         if minimal_face(sub).dim == size - 1}
                for f1, f2, f3 in itertools.combinations(faces, 3):
                    assert not is_tri_positioned(f1, f2, f3)


def test_parallel_face_holds_at_most_one_vertex():
    for x in nondegenerate(S11):
        for size in range(2, S11.dim + 1):
            for sub in itertools.combinations(x.vertices, size):
                sigma = minimal_face(sub)
                if sigma.dim != size - 1:
                    continue
                for other in _all_faces(S11):
                    if other != sigma and is_parallel(other, sigma):
                        inside = [v for v in x.vertices if other.zeros <= minimal_face([v]).zeros]
                        assert len(inside) <= 1


def _all_faces(spec):
    per_factor = []
    for c in spec.factors:
        opts = []
        for k in range(c + 1):
            opts.extend(itertools.combinations(range(c + 1), k))
        per_factor.append(opts)
    out = []
    for choice in itertools.product(*per_factor):
        zeros = frozenset((i, j) for i, zs in enumerate(choice) for j in zs)
        from simplotope.core import FaceId
        out.append(FaceId(spec, zeros))
    return out


# --- footprints and shadows ---------------------------------------------------

def _exterior_subsets(x, size):
    for sub in itertools.combinations(x.vertices, size):
        if minimal_face(sub).dim == size - 1:
            yield sub


def test_footprint_shadow_basics():
    x = corner_simplex(S11, S11.vertex((0, 0)))
    sigmas = list(_exterior_subsets(x, 3))
    sigma = sigmas[0]
    assert footprint(sigma, sigma, x) == sigma
    # shadow of sigma w.r.t. itself: all vertices collapse to the pivot
    assert shadow(sigma, sigma, x) == (sigma[0],)


def test_footprint_empty_for_disjoint():
    cube = SimplotopeSpec((1, 1, 1))
    x = VertexSimplex(cube, [cube.vertex(i) for i in
                             [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    tau = ((cube.vertex((0, 0, 1)),))
    sigma = (cube.vertex((1, 0, 0)),)
    assert footprint(tau, sigma, x) == ()


def test_shadow_injective_outside_sigma():
    for x in random.Random(4).sample(nondegenerate(S21), 25):
        for sigma in _exterior_subsets(x, 3):
            outside = [v for v in x.vertices if v not in set(sigma)]
            images = [shadow((v,), sigma, x)[0] for v in outside]
            assert len(set(images)) == len(outside)


def test_footprint_shadow_pairs_unique():
    # no two exterior faces share both footprint and shadow w.r.t. a fixed sigma
    for spec in [S11, S21]:
        pool = nondegenerate(spec)
        sample = random.Random(6).sample(pool, min(15, len(pool)))
        for x in sample:
            for size in range(2, spec.dim + 1):
                taus = list(_exterior_subsets(x, size))
                if len(taus) < 2:
                    continue
                sigma = taus[0]
                seen = {}
                for tau in taus:
                    key = (frozenset(footprint(tau, sigma, x)), shadow(tau, sigma, x))
                    assert key not in seen, (tau, seen[key])
                    seen[key] = tau


def test_footprint_exterior_or_empty():
    for x in random.Random(8).sample(nondegenerate(S21), 20):
        for size in range(2, S21.dim + 1):
            taus = list(_exterior_subsets(x, size))
            for sigma, tau in itertools.permutations(taus, 2):
                common = footprint(tau, sigma, x)
                if common:
                    assert minimal_face(common).dim == len(common) - 1


def test_shadow_is_exterior():
    for x in random.Random(9).sample(nondegenerate(S21), 20):
        for size in range(2, S21.dim + 1):
            taus = list(_exterior_subsets(x, size))
            for sigma, tau in itertools.permutations(taus, 2):
                images = shadow(tau, sigma, x)
                assert minimal_face(images).dim == len(images) - 1
