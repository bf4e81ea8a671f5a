"""Certification of simplicial triangulations of a simplotope.

A candidate (a set of full-dimensional vertex simplices) is certified when
its classes sum to the polytope's class, interiors are pairwise disjoint and
simplices pairwise meet face-to-face.  Class accounting plus disjointness
makes the union an exact partition, hence a cover.

Both pairwise tests are exact.  Face-to-face builds each simplex's facet
half-spaces with integer coefficients (rows of the scaled inverse of the
ones-augmented vertex matrix), intersects the two half-space systems, and
enumerates every vertex of the intersection by solving all d-subsets of the
constraints; Cramer determinants keep everything in integers (entries stay
far below the int64 range for the dimensions handled here).  The
interior-overlap test asks an exact LP for a point whose barycentric
coordinates in both simplices are all positive.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SimplotopeSpec, VertexPoint, VertexSimplex, minimal_face
from .exact import INFEASIBLE, OPTIMAL, LpProblem, lp_minimize, scaled_inverse


@dataclass(frozen=True)
class TriangulationCandidate:
    spec: SimplotopeSpec
    simplices: tuple[VertexSimplex, ...]


@dataclass(frozen=True)
class VerifierReport:
    spec: SimplotopeSpec
    classes: tuple[int, ...]
    total_class: int
    polytope_class: int
    classes_ok: bool
    disjoint_ok: bool
    face_to_face_ok: bool
    certified: bool
    adjacency: tuple[tuple[int, int], ...]
    diagnostics: tuple[str, ...]


def _global_pivot(spec: SimplotopeSpec) -> VertexPoint:
    return VertexPoint(spec, (0,) * len(spec.factors))


def _reduced_rows(x: VertexSimplex) -> list[tuple[int, ...]]:
    pivot = _global_pivot(x.spec)
    return [v.reduced(pivot) for v in x.vertices]


def facet_rows(x: VertexSimplex) -> np.ndarray:
    """Integer half-space rows r with r . (1, x) >= 0 cutting out the simplex.

    Row i is the i-th barycentric functional scaled by |det|: it vanishes on
    every vertex but the i-th, where it equals |det|.
    """
    rows = [(1,) + r for r in _reduced_rows(x)]
    d, adj = scaled_inverse(rows)
    sign = 1 if d > 0 else -1
    n = len(rows)
    return np.array([[sign * adj[k][i] for k in range(n)] for i in range(n)], dtype=np.int64)


@lru_cache(maxsize=None)
def _subset_array(n_rows: int, size: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n_rows), size)), dtype=np.intp)


def _batched_int_det(a: np.ndarray) -> np.ndarray:
    """Exact determinants of a batch of small integer matrices (Bareiss).

    Works for int64 input (caller guarantees no overflow) and for object
    arrays of Python ints.
    """
    a = a.copy()
    batch, n, _ = a.shape
    if n == 0:
        return np.ones(batch, dtype=np.int64)
    sign = np.ones(batch, dtype=a.dtype)
    prev = np.ones(batch, dtype=a.dtype)
    for k in range(n - 1):
        need = a[:, k, k] == 0
        if need.any():
            idx = np.flatnonzero(need)
            below = a[idx, k + 1:, k] != 0
            has = below.any(axis=1)
            # no pivot available: the determinant is 0; park the matrix as an
            # identity block so the remaining steps stay harmless
            dead = idx[~has]
            if dead.size:
                a[dead[:, None], np.arange(k, n)[None, :], :] = 0
                a[dead[:, None], np.arange(k, n)[None, :], np.arange(k, n)[None, :]] = 1
                sign[dead] = 0
            swp = idx[has]
            if swp.size:
                rows = np.argmax(below[has], axis=1) + k + 1
                tmp = a[swp, k, :].copy()
                a[swp, k, :] = a[swp, rows, :]
                a[swp, rows, :] = tmp
                sign[swp] = -sign[swp]
        piv = a[:, k, k].copy()
        a[:, k + 1:, k:] = (a[:, k + 1:, k:] * piv[:, None, None]
                            - a[:, k + 1:, k:k + 1] * a[:, k:k + 1, k:]) // prev[:, None, None]
        prev = piv
    return sign * a[:, n - 1, n - 1]


def _face_to_face_rows(rows_a: np.ndarray, rows_b: np.ndarray,
                       shared_reduced: np.ndarray) -> bool:
    """conv(a) cut conv(b) equals conv(shared vertices), all in exact integers.

    Enumerates candidate vertices of the half-space intersection via Cramer's
    rule over every d-subset of the 2(d+1) constraint rows and demands each
    feasible one be a shared vertex.
    """
    d = rows_a.shape[1] - 1
    rows = np.vstack([rows_a, rows_b])
    if d == 0:
        return True
    # Every intermediate is a minor of a d x (d+1) integer system, so the
    # Hadamard bound on the entry size says whether int64 is safe; huge
    # entries (possible from dimension 8 up) fall back to exact Python ints.
    entry_max = int(np.abs(rows).max()) or 1
    worst = (d + 2) * entry_max ** (d + 1) * int(d ** (d / 2) + 1)
    if worst >= 2 ** 62:
        rows = rows.astype(object)
    subsets = _subset_array(rows.shape[0], d)
    mats = rows[subsets]                      # (K, d, d+1)
    a = mats[:, :, 1:]
    b = -mats[:, :, 0]
    # Cramer: stack det(A) and every det(A with column i replaced by b)
    stacks = [a]
    for i in range(d):
        ai = a.copy()
        ai[:, :, i] = b
        stacks.append(ai)
    dets = _batched_int_det(np.concatenate(stacks)).reshape(d + 1, -1)
    det_a = dets[0]
    nums = dets[1:].T                         # (K, d): x = nums / det_a
    sing = det_a == 0
    sgn = np.where(det_a > 0, 1, np.where(det_a < 0, -1, 0))
    hom = np.concatenate([det_a[:, None], nums], axis=1)
    margins = hom @ rows.T                    # (K, 2d+2), scaled by det_a
    feasible = (margins * sgn[:, None] >= 0).all(axis=1) & ~sing
    if not feasible.any():
        return True
    cand = np.flatnonzero(feasible)
    if shared_reduced.size:
        shared = shared_reduced.astype(det_a.dtype)
        target = det_a[cand, None, None] * shared[None, :, :]
        in_shared = (nums[cand][:, None, :] == target).all(axis=2).any(axis=1)
        return bool(in_shared.all())
    return False


def meet_face_to_face(a: VertexSimplex, b: VertexSimplex) -> bool:
    """Exact test that two simplices intersect in a common face.

    For vertex simplices this means the half-space intersection has no vertex
    beyond the shared vertices; the empty intersection passes vacuously.
    """
    if a.spec != b.spec:
        raise ValueError("simplices come from different simplotopes")
    if a.is_degenerate or b.is_degenerate:
        raise ValueError("face-to-face is only defined for nondegenerate simplices")
    pivot = _global_pivot(a.spec)
    shared = [v.reduced(pivot) for v in a.vertices if v in b.vertex_set]
    shared_reduced = np.array(shared, dtype=np.int64) if shared \
        else np.zeros((0, a.spec.dim), dtype=np.int64)
    return _face_to_face_rows(facet_rows(a), facet_rows(b), shared_reduced)


def interiors_overlap(a: VertexSimplex, b: VertexSimplex) -> bool:
    """Exact test for a point interior to both simplices.

    Maximizes, by LP over the rationals, the smallest barycentric coordinate
    across both simplices subject to the two barycentric combinations being
    the same point; the interiors meet exactly when the optimum is positive.
    Works for equal-dimensional faces as well (relative interiors).
    """
    if a.spec != b.spec:
        raise ValueError("simplices come from different simplotopes")
    if len(a.vertices) < 2 or len(b.vertices) < 2:
        raise ValueError("overlap test needs at least segments")
    pivot = _global_pivot(a.spec)
    ra = [v.reduced(pivot) for v in a.vertices]
    rb = [v.reduced(pivot) for v in b.vertices]
    p, q = len(ra), len(rb)
    n = p + q + 1  # lambda, mu, z
    rows: list[tuple[list[int], int]] = []

    def eq(coeffs: list[int], rhs: int) -> None:
        rows.append((coeffs, rhs))
        rows.append(([-c for c in coeffs], -rhs))

    eq([1] * p + [0] * q + [0], 1)
    eq([0] * p + [1] * q + [0], 1)
    for k in range(a.spec.dim):
        eq([r[k] for r in ra] + [-r[k] for r in rb] + [0], 0)
    for i in range(p):
        row = [0] * n
        row[i] = 1
        row[-1] = -1
        rows.append((row, 0))
    for j in range(q):
        row = [0] * n
        row[p + j] = 1
        row[-1] = -1
        rows.append((row, 0))
    objective = [0] * (p + q) + [-1]
    result = lp_minimize(LpProblem.build(objective, rows))
    if result.status == INFEASIBLE:
        return False
    if result.status != OPTIMAL:
        raise RuntimeError(f"overlap LP came out {result.status}, but z is bounded by 1")
    return result.value < 0


def _check_members(cand: TriangulationCandidate) -> tuple[list[int], list[str], bool]:
    d = cand.spec.dim
    classes = []
    diagnostics = []
    ok = True
    for i, x in enumerate(cand.simplices):
        if x.spec != cand.spec:
            raise ValueError("simplex does not live in the candidate's simplotope")
        if len(x.vertices) != d + 1:
            diagnostics.append(f"simplex {i}: {len(x.vertices)} vertices, expected {d + 1}")
            classes.append(0)
            ok = False
            continue
        c = x.cls
        classes.append(c)
        if c == 0:
            diagnostics.append(f"simplex {i}: degenerate (class 0)")
            ok = False
    return classes, diagnostics, ok


def _pair_data(cand: TriangulationCandidate):
    pivot = _global_pivot(cand.spec)
    rows = [facet_rows(x) for x in cand.simplices]
    reduced = [np.array([v.reduced(pivot) for v in x.vertices], dtype=np.int64)
               for x in cand.simplices]
    ordered = [x.vertices for x in cand.simplices]
    return rows, reduced, ordered


_WORKER_STATE: dict = {}


def _pool_init(rows, reduced, keys):
    _WORKER_STATE["rows"] = rows
    _WORKER_STATE["reduced"] = reduced
    _WORKER_STATE["keys"] = keys


def _pool_check(pair: tuple[int, int]) -> tuple[int, int, bool]:
    i, j = pair
    rows = _WORKER_STATE["rows"]
    reduced = _WORKER_STATE["reduced"]
    keys = _WORKER_STATE["keys"]
    shared = _shared_reduced(reduced[i], keys[i], keys[j])
    return i, j, _face_to_face_rows(rows[i], rows[j], shared)


def _shared_reduced(reduced_i: np.ndarray, verts_i, verts_j) -> np.ndarray:
    other = set(verts_j)
    mask = np.array([v in other for v in verts_i], dtype=bool)
    sel = reduced_i[mask]
    return sel if sel.size else np.zeros((0, reduced_i.shape[1]), dtype=np.int64)


def verify(cand: TriangulationCandidate, jobs: int = 1) -> VerifierReport:
    """Run every certification check and report all flags and diagnostics."""
    spec = cand.spec
    classes, diagnostics, members_ok = _check_members(cand)
    total = sum(classes)
    poly = spec.polytope_class
    classes_ok = members_ok
    if total != poly:
        diagnostics.append(f"total class {total} != polytope class {poly}")

    face_ok = True
    disjoint_ok = True
    if members_ok:
        rows, reduced, keys = _pair_data(cand)
        n = len(cand.simplices)
        pairs = []
        for i, j in itertools.combinations(range(n), 2):
            if set(keys[i]) == set(keys[j]):
                disjoint_ok = False
                diagnostics.append(f"simplices {i} and {j}: identical vertex sets")
            else:
                pairs.append((i, j))
        failed: list[tuple[int, int]] = []
        if jobs > 1 and len(pairs) > 64:
            with ProcessPoolExecutor(max_workers=jobs, initializer=_pool_init,
                                     initargs=(rows, reduced, keys)) as pool:
                for i, j, ok in pool.map(_pool_check, pairs, chunksize=256):
                    if not ok:
                        failed.append((i, j))
        else:
            for i, j in pairs:
                shared = _shared_reduced(reduced[i], keys[i], keys[j])
                if not _face_to_face_rows(rows[i], rows[j], shared):
                    failed.append((i, j))
        # A pair that meets face-to-face shares at most a proper face, so its
        # interiors are disjoint; only failed pairs need the overlap LP.
        for i, j in sorted(failed):
            face_ok = False
            if interiors_overlap(cand.simplices[i], cand.simplices[j]):
                disjoint_ok = False
                diagnostics.append(f"simplices {i} and {j}: interiors overlap")
            else:
                diagnostics.append(f"simplices {i} and {j}: touch but not along a common face")
    else:
        face_ok = False
        disjoint_ok = False
        diagnostics.append("pairwise checks skipped: not all members are nondegenerate full-dimensional")

    certified = (total == poly) and disjoint_ok and face_ok and members_ok
    adjacency: tuple[tuple[int, int], ...] = ()
    if certified:
        adjacency = adjacency_graph(cand)
    return VerifierReport(
        spec=spec,
        classes=tuple(classes),
        total_class=total,
        polytope_class=poly,
        classes_ok=classes_ok,
        disjoint_ok=disjoint_ok,
        face_to_face_ok=face_ok,
        certified=certified,
        adjacency=adjacency,
        diagnostics=tuple(diagnostics),
    )


def adjacency_graph(cand: TriangulationCandidate) -> tuple[tuple[int, int], ...]:
    """Pairs of simplices sharing a full facet (all but one vertex).

    Meaningful for certified candidates, where sharing d vertices is the same
    as meeting face-to-face along a common facet.
    """
    d = cand.spec.dim
    out = []
    for i, j in itertools.combinations(range(len(cand.simplices)), 2):
        if len(cand.simplices[i].vertex_set & cand.simplices[j].vertex_set) == d:
            out.append((i, j))
    return tuple(out)


def facet_inventory(cand: TriangulationCandidate):
    """Split every simplex facet into exterior ones and interior ones.

    Returns (exterior, interior) where exterior maps a simplotope facet's
    zero coordinate to the list of (simplex index, facet vertex tuple) lying
    in it, and interior counts how often each facet vertex set occurs.
    """
    from collections import Counter, defaultdict

    exterior = defaultdict(list)
    interior: Counter = Counter()
    for i, x in enumerate(cand.simplices):
        for subset in itertools.combinations(x.vertices, len(x.vertices) - 1):
            zeros = minimal_face(subset).zeros
            key = tuple(sorted(v.idx for v in subset))
            if zeros:
                for z in sorted(zeros):
                    exterior[z].append((i, subset))
            else:
                interior[key] += 1
    return exterior, interior
