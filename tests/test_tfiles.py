"""Triangulation JSON files: schema validation and round trips."""

import json
import random
import sys
from importlib import resources

import pytest

from simplotope.core import SimplotopeSpec
from simplotope.standard import standard_triangulation
from simplotope.tfiles import (
    MAX_DIMENSION,
    TriangulationFileError,
    candidate_from_dict,
    candidate_to_dict,
    load_candidate,
    save_candidate,
)
from simplotope.verifier import TriangulationCandidate


def partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def candidates_up_to_dim(n):
    for m in range(1, n + 1):
        for factors in partitions(m):
            spec = SimplotopeSpec(tuple(factors))
            yield TriangulationCandidate(spec, tuple(standard_triangulation(spec)))


@pytest.mark.parametrize("coords", ["standard", "reduced"])
def test_round_trip_all_small_specs(coords, tmp_path):
    for k, cand in enumerate(candidates_up_to_dim(4)):
        path = tmp_path / f"t{k}.json"
        save_candidate(cand, path, coords=coords)
        back = load_candidate(path)
        assert back.spec == cand.spec
        assert [x.vertex_set for x in back.simplices] == [x.vertex_set for x in cand.simplices]


def test_deterministic_output(tmp_path):
    cand = next(candidates_up_to_dim(3))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_candidate(cand, a)
    save_candidate(cand, b)
    assert a.read_text() == b.read_text()


def test_metadata_preserved_and_ignored(tmp_path):
    spec = SimplotopeSpec((1, 1))
    cand = TriangulationCandidate(spec, tuple(standard_triangulation(spec)))
    doc = candidate_to_dict(cand, metadata={"note": "anything"})
    assert doc["metadata"] == {"note": "anything"}
    assert candidate_from_dict(doc).spec == spec


def test_rejects_malformed():
    with pytest.raises(TriangulationFileError):
        candidate_from_dict({"coords": "standard", "simplices": []})
    with pytest.raises(TriangulationFileError):
        candidate_from_dict({"factors": [1, 1], "coords": "polar", "simplices": []})
    with pytest.raises(TriangulationFileError):
        candidate_from_dict({"factors": [1, 1], "coords": "reduced", "simplices": []})
    # a bad vertex block
    with pytest.raises(TriangulationFileError):
        candidate_from_dict({
            "factors": [1, 1], "coords": "standard",
            "simplices": [[[1, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]],
        })
    # wrong vertex count for the dimension
    with pytest.raises(TriangulationFileError):
        candidate_from_dict({
            "factors": [1, 1], "coords": "standard",
            "simplices": [[[1, 0, 1, 0], [0, 1, 1, 0]]],
        })


def test_reduced_requires_valid_blocks():
    with pytest.raises(TriangulationFileError):
        candidate_from_dict({
            "factors": [1, 1], "coords": "reduced", "reduction_vertex": [1, 0, 1, 0],
            "simplices": [[[2, 0], [0, 1], [1, 1]]],
        })


def test_rejects_a_dimension_above_the_limit():
    # an empty triangulation is cheap to write for any declared dimension;
    # its polytope class is not, so the loader refuses the dimension
    for factors in ([10 ** 30], [1] * (MAX_DIMENSION + 1), [MAX_DIMENSION, 1]):
        with pytest.raises(TriangulationFileError, match=f"more than {MAX_DIMENSION}"):
            candidate_from_dict({"factors": factors, "coords": "standard", "simplices": []})
    doc = {"factors": [MAX_DIMENSION], "coords": "standard", "simplices": []}
    assert candidate_from_dict(doc).spec.dim == MAX_DIMENSION


@pytest.fixture
def no_int_string_limit():
    # the command line runs with CPython's int-string limit lifted
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-string limit before Python 3.11")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(before)


def test_refuses_an_integer_of_too_many_digits(tmp_path, no_int_string_limit):
    # with the limit lifted, json would convert the literal; the loader's own
    # cap refuses it before any conversion, in a short message
    path = tmp_path / "long.json"
    path.write_text('{"factors": [-' + "7" * 100_000 + '], "coords": "standard", "simplices": []}')
    with pytest.raises(TriangulationFileError, match="an integer has 100000 digits") as exc:
        load_candidate(path)
    assert len(str(exc.value)) < 100
    path.write_text('{"factors": [' + "7" * 4300 + '], "coords": "standard", "simplices": []}')
    with pytest.raises(TriangulationFileError, match="add up to more"):
        load_candidate(path)  # 4300 digits parse, and the factor is refused as usual
    # a long run of digits inside a string is no integer
    doc = {"factors": [1], "coords": "standard", "simplices": [], "metadata": {"n": "7" * 5000}}
    path.write_text(json.dumps(doc))
    assert load_candidate(path).spec.factors == (1,)


def test_error_messages_shorten_the_values_they_echo():
    long_vertex = ["x"] * 100_000
    docs = [
        {"factors": [1, 1], "coords": "standard", "simplices": [[long_vertex] * 3]},
        {"factors": [1, 1], "coords": "standard", "simplices": [[[1] * 100_000] * 3]},
        {"factors": ["x" * 100_000], "coords": "standard", "simplices": []},
        {"factors": [1, 1], "coords": "x" * 100_000, "simplices": []},
        {"factors": [1, 1], "coords": "standard", "simplices": {"k": long_vertex}},
        {"factors": [1, 1], "coords": "standard", "simplices": [{"k": long_vertex}]},
    ]
    for doc in docs:
        with pytest.raises(TriangulationFileError) as exc:
            candidate_from_dict(doc)
        assert len(str(exc.value)) < 200, str(exc.value)[:300]


# --- seeded fuzzing of the loader ---------------------------------------------

KEYS = ["factors", "coords", "simplices", "reduction_vertex", "metadata", "x"]


def random_json(rng, depth=0):
    """A JSON value of a random type and shape."""
    kind = rng.randrange(8 if depth < 2 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return rng.choice([0, 1, 2, 3, -1, 7, 10 ** 18])
    if kind == 3:
        return rng.choice([0.5, -1.0, 1.0, 1e300])
    if kind == 4:
        return rng.choice(["", "standard", "reduced", "1", "x"])
    if kind == 5:
        return [random_json(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return {rng.choice(KEYS): random_json(rng, depth + 1) for _ in range(rng.randrange(4))}
    return [[rng.randint(0, 1) for _ in range(rng.randrange(6))] for _ in range(rng.randrange(6))]


def node_paths(doc, path=()):
    """Paths (key and index sequences) of every node of a JSON document, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from node_paths(value, path + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutants(count, seed):
    """Seeded copies of the bundled triangulation with one to three nodes replaced.

    Each replacement is a JSON value that serializes differently from the
    node it replaces.
    """
    text = resources.files("simplotope").joinpath("data/tri_square_minimal.json").read_text()
    rng = random.Random(seed)
    for _ in range(count):
        doc = json.loads(text)
        for _ in range(rng.randint(1, 3)):
            path = rng.choice(list(node_paths(doc)))
            current = json.dumps(node_at(doc, path))
            value = random_json(rng)
            while json.dumps(value) == current:
                value = random_json(rng)
            if path:
                node_at(doc, path[:-1])[path[-1]] = value
            else:
                doc = value
        yield doc


def refused(docs):
    """The documents `candidate_from_dict` refuses; any other exception escapes."""
    out = []
    for doc in docs:
        try:
            candidate_from_dict(doc)
        except TriangulationFileError:
            out.append(doc)
    return out


def test_fuzzed_documents_fail_only_with_file_errors():
    # most mutants are refused; the rest load into a candidate
    assert len(refused(mutants(2000, seed=14))) >= 1000


def test_fuzzed_documents_exit_2_with_one_line(tmp_path, capsys):
    from simplotope.cli import main

    for k, doc in enumerate(refused(mutants(200, seed=15))[:8]):
        path = tmp_path / f"mutant{k}.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", "--input", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", doc
        assert err.startswith("error: ") and err.count("\n") == 1, err
