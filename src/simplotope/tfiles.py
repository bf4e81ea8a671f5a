"""JSON interchange format for triangulation candidates.

The document carries the factor dimensions, the coordinate system of the
vertex arrays ("standard": one 0/1 entry per barycentric coordinate;
"reduced": one entry per dimension plus the reduction vertex in standard
coordinates), and the simplices as lists of flat integer vertex arrays.
Extra keys (such as "metadata") are accepted on load and ignored.  Output
is deterministic: sorted keys, simplices in input order.
"""

from __future__ import annotations

import json
import reprlib
from typing import Sequence

from .core import MAX_DIMENSION, MAX_INT_DIGITS, SimplotopeSpec, VertexPoint, VertexSimplex
from .verifier import TriangulationCandidate


class TriangulationFileError(ValueError):
    pass


def _parse_int(text: str) -> int:
    """A JSON integer literal, refused beyond MAX_INT_DIGITS digits before conversion."""
    digits = len(text) - text.startswith("-")
    if digits > MAX_INT_DIGITS:
        raise TriangulationFileError(
            f"an integer has {digits} digits, more than the {MAX_INT_DIGITS} allowed")
    return int(text)


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise TriangulationFileError(f"{what} must be a list of integers, got {reprlib.repr(value)}")
    return value


def _vertex_from_standard(spec: SimplotopeSpec, flat: Sequence[int]) -> VertexPoint:
    flat = _int_list(flat, "a vertex")
    if len(flat) != spec.dim + len(spec.factors):
        raise TriangulationFileError(f"standard vertex needs {spec.dim + len(spec.factors)} entries")
    idx = []
    pos = 0
    for c in spec.factors:
        block = list(flat[pos:pos + c + 1])
        pos += c + 1
        if sorted(block) != [0] * c + [1]:
            raise TriangulationFileError(f"block {reprlib.repr(block)} is not a vertex block")
        idx.append(block.index(1))
    return VertexPoint(spec, tuple(idx))


def _vertex_from_reduced(spec: SimplotopeSpec, flat: Sequence[int],
                         pivot: VertexPoint) -> VertexPoint:
    flat = _int_list(flat, "a vertex")
    if len(flat) != spec.dim:
        raise TriangulationFileError(f"reduced vertex needs {spec.dim} entries")
    idx = []
    pos = 0
    for i, c in enumerate(spec.factors):
        kept = list(flat[pos:pos + c])
        pos += c
        if any(x not in (0, 1) for x in kept) or sum(kept) > 1:
            raise TriangulationFileError(f"reduced block {reprlib.repr(kept)} is not a vertex block")
        positions = [j for j in range(c + 1) if j != pivot.idx[i]]
        if sum(kept) == 0:
            idx.append(pivot.idx[i])
        else:
            idx.append(positions[kept.index(1)])
    return VertexPoint(spec, tuple(idx))


def candidate_from_dict(doc: dict) -> TriangulationCandidate:
    if not isinstance(doc, dict):
        raise TriangulationFileError("the document must be a JSON object")
    try:
        factors = doc["factors"]
        coords = doc["coords"]
        raw = doc["simplices"]
    except KeyError as exc:
        raise TriangulationFileError(f"missing field {exc}") from exc
    if not isinstance(factors, list) or any(type(c) is not int for c in factors):
        raise TriangulationFileError(f"factors must be a list of integers, got {reprlib.repr(factors)}")
    try:
        spec = SimplotopeSpec(tuple(factors))
    except ValueError as exc:
        raise TriangulationFileError(f"factors {reprlib.repr(factors)}: {exc}") from exc
    if spec.dim > MAX_DIMENSION:
        raise TriangulationFileError(
            f"the factor dimensions add up to more than {MAX_DIMENSION}, the largest accepted")
    if coords == "standard":
        decode = lambda flat: _vertex_from_standard(spec, flat)
    elif coords == "reduced":
        if "reduction_vertex" not in doc:
            raise TriangulationFileError("reduced coordinates need a reduction_vertex")
        pivot = _vertex_from_standard(spec, _int_list(doc["reduction_vertex"], "reduction_vertex"))
        decode = lambda flat: _vertex_from_reduced(spec, flat, pivot)
    else:
        raise TriangulationFileError(f"unknown coordinate system {reprlib.repr(coords)}")
    if not isinstance(raw, list):
        raise TriangulationFileError(f"simplices must be a list, got {reprlib.repr(raw)}")
    simplices = []
    for k, vlist in enumerate(raw):
        if not isinstance(vlist, list):
            raise TriangulationFileError(f"simplex {k} must be a list of vertices, got {reprlib.repr(vlist)}")
        if len(vlist) != spec.dim + 1:
            raise TriangulationFileError(f"simplex {k} has {len(vlist)} vertices, expected {spec.dim + 1}")
        vertices = [decode(flat) for flat in vlist]
        try:
            simplices.append(VertexSimplex(spec, vertices))
        except ValueError as exc:
            raise TriangulationFileError(f"simplex {k}: {exc}") from exc
    return TriangulationCandidate(spec, tuple(simplices))


def candidate_to_dict(cand: TriangulationCandidate, coords: str = "standard",
                      metadata: dict | None = None) -> dict:
    spec = cand.spec
    doc: dict = {"factors": list(spec.factors), "coords": coords}
    if coords == "standard":
        encode = lambda v: list(v.standard())
    elif coords == "reduced":
        pivot = VertexPoint(spec, (0,) * len(spec.factors))
        doc["reduction_vertex"] = list(pivot.standard())
        encode = lambda v: list(v.reduced(pivot))
    else:
        raise TriangulationFileError(f"unknown coordinate system {coords!r}")
    doc["simplices"] = [[encode(v) for v in x.vertices] for x in cand.simplices]
    if metadata:
        doc["metadata"] = metadata
    return doc


# bytes.translate table that turns every decimal digit into b"0" and every
# other byte into b" ", so that a run of digits becomes a run of b"0"
_DIGIT_RUNS = bytes(0x30 if 0x30 <= b <= 0x39 else 0x20 for b in range(256))


def load_candidate(path) -> TriangulationCandidate:
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    # Only a file with a long run of digits can hold a long integer.  The cap
    # costs a Python call per integer (a third of a second on the 7-cube's
    # 564,480 entries), so the parser gets it only for such a file.
    long_run = b"0" * (MAX_INT_DIGITS + 1) in data.translate(_DIGIT_RUNS)
    return candidate_from_dict(json.loads(text, parse_int=_parse_int if long_run else None))


def save_candidate(cand: TriangulationCandidate, path, coords: str = "standard",
                   metadata: dict | None = None) -> None:
    doc = candidate_to_dict(cand, coords=coords, metadata=metadata)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
