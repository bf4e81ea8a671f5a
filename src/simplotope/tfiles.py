"""JSON interchange format for triangulation candidates.

The document carries the factor dimensions, the coordinate system of the
vertex arrays ("standard": one 0/1 entry per barycentric coordinate;
"reduced": one entry per dimension plus the reduction vertex in standard
coordinates), and the simplices as lists of flat integer vertex arrays.
Extra keys (such as "metadata") are preserved on load and ignored by the
verifier.  Output is deterministic: sorted keys, simplices in input order.
"""

from __future__ import annotations

import json
from typing import Sequence

from .core import SimplotopeSpec, VertexPoint, VertexSimplex
from .verifier import TriangulationCandidate


class TriangulationFileError(ValueError):
    pass


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise TriangulationFileError(f"{what} must be a list of integers, got {value!r}")
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
            raise TriangulationFileError(f"block {block} is not a vertex block")
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
            raise TriangulationFileError(f"reduced block {kept} is not a vertex block")
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
        raise TriangulationFileError(f"factors must be a list of integers, got {factors!r}")
    try:
        spec = SimplotopeSpec(tuple(factors))
    except ValueError as exc:
        raise TriangulationFileError(f"factors {factors}: {exc}") from exc
    if coords == "standard":
        decode = lambda flat: _vertex_from_standard(spec, flat)
    elif coords == "reduced":
        if "reduction_vertex" not in doc:
            raise TriangulationFileError("reduced coordinates need a reduction_vertex")
        pivot = _vertex_from_standard(spec, _int_list(doc["reduction_vertex"], "reduction_vertex"))
        decode = lambda flat: _vertex_from_reduced(spec, flat, pivot)
    else:
        raise TriangulationFileError(f"unknown coordinate system {coords!r}")
    if not isinstance(raw, list):
        raise TriangulationFileError(f"simplices must be a list, got {raw!r}")
    simplices = []
    for k, vlist in enumerate(raw):
        if not isinstance(vlist, list):
            raise TriangulationFileError(f"simplex {k} must be a list of vertices, got {vlist!r}")
        if len(vlist) != spec.dim + 1:
            raise TriangulationFileError(f"simplex {k} has {len(vlist)} vertices, expected {spec.dim + 1}")
        vertices = [decode(flat) for flat in vlist]
        try:
            simplices.append(VertexSimplex(spec, vertices))
        except ValueError as exc:
            raise TriangulationFileError(f"simplex {k}: {exc}") from exc
    return TriangulationCandidate(spec, tuple(simplices))


def candidate_to_dict(cand: TriangulationCandidate, coords: str = "standard",
                      pivot: VertexPoint | None = None, metadata: dict | None = None) -> dict:
    spec = cand.spec
    doc: dict = {"factors": list(spec.factors), "coords": coords}
    if coords == "standard":
        encode = lambda v: list(v.standard())
    elif coords == "reduced":
        pivot = pivot or VertexPoint(spec, (0,) * len(spec.factors))
        doc["reduction_vertex"] = list(pivot.standard())
        encode = lambda v: list(v.reduced(pivot))
    else:
        raise TriangulationFileError(f"unknown coordinate system {coords!r}")
    doc["simplices"] = [[encode(v) for v in x.vertices] for x in cand.simplices]
    if metadata:
        doc["metadata"] = metadata
    return doc


def load_candidate(path) -> TriangulationCandidate:
    with open(path) as fh:
        return candidate_from_dict(json.load(fh))


def save_candidate(cand: TriangulationCandidate, path, coords: str = "standard",
                   metadata: dict | None = None) -> None:
    doc = candidate_to_dict(cand, coords=coords, metadata=metadata)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
