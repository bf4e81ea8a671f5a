"""Face counts Q(s, t, s', t'), held to their two independent oracles."""

import pytest

from q_oracle import ENUM_DIM_LIMIT, q_by_enumeration, q_by_generating_function
from simplotope import counting
from simplotope.counting import comb0, q_count


def test_examples():
    assert q_count(0, 2, 2, 0) == 9       # square faces of two triangles
    assert q_count(3, 0, 2, 0) == 6       # 2-faces of the 3-cube
    assert q_count(1, 1, 1, 1) == 1       # the whole prism
    assert q_count(1, 1, 2, 0) == 3       # the prism's squares
    assert q_count(2, 0, 1, 0) == 4       # edges of a square
    assert q_count(0, 1, 1, 0) == 3       # edges of a triangle


def test_cube_column_closed_form():
    for s in range(0, 7):
        for sp in range(0, s + 1):
            from math import comb
            assert q_count(s, 0, sp, 0) == 2 ** (s - sp) * comb(s, sp)


def test_vertex_count():
    for s in range(0, 4):
        for t in range(0, 4):
            assert q_count(s, t, 0, 0) == 2 ** s * 3 ** t


def test_out_of_range_vanishes():
    assert q_count(1, 1, 5, 0) == 0
    assert q_count(1, 1, 0, 2) == 0
    assert q_count(2, 0, 1, 1) == 0
    for args in [(-1, 0, 0, 0), (0, 0, 0, -1)]:
        with pytest.raises(ValueError):
            q_count(*args)


def test_huge_sp_returns_at_once(monkeypatch):
    # only s' - (t - t') <= q <= min(s, s') can contribute; a loop over
    # every q <= s' would run 10^12 times, so more than a few binomials
    # mean it does
    calls = []

    def counted(n, k):
        calls.append((n, k))
        if len(calls) > 10:
            raise AssertionError("q_count loops over terms that vanish")
        return comb0(n, k)

    monkeypatch.setattr(counting, "comb0", counted)
    assert q_count(1, 0, 10**12, 0) == 0
    assert q_count(10**12, 1, 10**12, 0) == 3 + 6 * 10**12  # 15 at s = s' = 2


def test_triple_agreement():
    for s in range(0, 5):
        for t in range(0, 5):
            for sp in range(0, s + t + 2):
                for tp in range(0, t + 2):
                    closed = q_count(s, t, sp, tp)
                    assert q_by_generating_function(s, t, sp, tp) == closed
                    if s + 2 * t <= ENUM_DIM_LIMIT:
                        assert q_by_enumeration(s, t, sp, tp) == closed


def test_enumeration_guard():
    with pytest.raises(ValueError):
        q_by_enumeration(9, 0, 1, 0)


def test_total_face_count():
    # summing Q over all shapes counts every face: 3^s * 7^t of them
    for s in range(0, 3):
        for t in range(0, 3):
            if s + t == 0:
                continue
            total = sum(q_count(s, t, sp, tp)
                        for sp in range(0, s + t + 1) for tp in range(0, t + 1))
            assert total == 3 ** s * 7 ** t
