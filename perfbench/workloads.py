"""The benchmark's workloads: the jobs each one runs and how their output is checked.

A job is one `simplotope` command line, run as a fresh process.  Every job
carries a check that turns its exit code and standard output into either
None (correct) or a one-line reason it is wrong.  Expected values come from
the paper's table, from pinned output of this code, or from arithmetic done
here independently of the package (simplex counts, classes, mutant
verdicts); none of them is produced by the code under test at run time.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

CERTIFY = "certify"
REJECT = "reject"


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]                       # arguments after `python -m simplotope.cli`
    check: Callable[[int, str], "str | None"]   # (exit code, stdout) -> failure reason or None
    verdict: str | None = None                  # CERTIFY / REJECT for verify jobs


# --- bounds-d10 ---------------------------------------------------------------

# Lower bounds of the paper's table, every cell with s + 2t <= 6.
PAPER_TABLE = {
    (0, 0): 1, (0, 1): 1, (0, 2): 6, (0, 3): 50,
    (1, 0): 1, (1, 1): 3, (1, 2): 20,
    (2, 0): 2, (2, 1): 9, (2, 2): 68,
    (3, 0): 5, (3, 1): 32,
    (4, 0): 16, (4, 1): 119,
    (5, 0): 60,
    (6, 0): 250,
}

BOUNDS_ARGV = ("bounds", "--max-s", "10", "--max-t", "5", "--dim-cap", "10", "--format", "json")


def load_bounds_expected(path: Path = HERE / "bounds_d10_expected.json") -> dict:
    """(s, t) -> (lp_value, lower_bound) pinned from this code's output."""
    with open(path) as fh:
        cells = json.load(fh)["cells"]
    pinned = {(c["s"], c["t"]): (c["lp_value"], c["lower_bound"]) for c in cells}
    for cell, bound in PAPER_TABLE.items():
        if pinned[cell][1] != bound:
            raise ValueError(f"pinned cell {cell} = {pinned[cell][1]} contradicts the paper's {bound}")
    return pinned


def check_bounds(expected: dict) -> Callable[[int, str], "str | None"]:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        try:
            cells = json.loads(out)["cells"]
            got = {(c["s"], c["t"]): (c["lp_value"], c["lower_bound"]) for c in cells}
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable bounds JSON: {exc}"
        if set(got) != set(expected):
            return f"cells {sorted(set(got) ^ set(expected))} missing or unexpected"
        wrong = sorted(k for k in expected if got[k] != expected[k])
        if wrong:
            k = wrong[0]
            return f"{len(wrong)} wrong cells, first {k}: {got[k]} != {expected[k]}"
        return None
    return check


# --- case-trisquare -----------------------------------------------------------

CASE_LINES = (
    "lower bound for (s,t)=(2,1): 10, achieved by a triangulation of size 10",
    "  construction stage 12: certified",
    "  construction stage 11: certified",
    "  construction stage 10: certified",
)


def check_case(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    lines = out.splitlines()
    missing = [line for line in CASE_LINES if line not in lines]
    if missing:
        return f"missing line {missing[0]!r}"
    if any(line.lstrip().startswith("[FAIL]") for line in lines):
        return "an ingredient of the size-10 argument failed"
    return None


# --- verify-mixed -------------------------------------------------------------

# Standard triangulations to certify, smallest first, with the coordinate
# system each file is written in.  The three largest go through the reduced
# decoder; the rest stay in standard coordinates so the mutant generator
# below can read them.  (1,1,1,2) is left out: its one 14-20 s job would
# push a run of this workload past the time budget of a full sweep.
CERTIFIED_SPECS = (
    ((1, 3), "standard"), ((2, 2), "standard"), ((1, 4), "standard"),
    ((1, 1, 2), "standard"), ((2, 3), "standard"), ((1, 1, 1, 1), "standard"),
    ((1, 1, 3), "reduced"), ((1, 2, 2), "reduced"), ((2, 4), "reduced"),
)
MUTANT_BASES = ((1, 3), (2, 2), (1, 4), (1, 1, 2))
MUTANTS_PER_BASE = 3
BUNDLED = Path("src", "simplotope", "data", "tri_square_minimal.json")


def polytope_class(factors) -> int:
    """d! times the volume of the product: the multinomial (sum c)! / prod c!."""
    v = math.factorial(sum(factors))
    for c in factors:
        v //= math.factorial(c)
    return v


def check_certified(n_simplices: int, poly: int) -> Callable[[int, str], "str | None"]:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        try:
            rep = json.loads(out)
            got = (rep["certified"], rep["n_simplices"], rep["polytope_class"], rep["total_class"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable verify JSON: {exc}"
        want = (True, n_simplices, poly, poly)
        if got != want:
            return f"(certified, n, polytope class, total class) = {got}, expected {want}"
        return None
    return check


def check_rejected(code: int, out: str) -> str | None:
    if code != 1:
        return f"exit {code}, expected 1"
    try:
        rep = json.loads(out)
        certified, diagnostics = rep["certified"], rep["diagnostics"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable verify JSON: {exc}"
    if certified is not False:
        return f"certified = {certified!r}, expected false"
    if not diagnostics:
        return "no diagnostics for a rejected input"
    return None


def spec_label(factors) -> str:
    return "x".join(str(c) for c in factors)


def write_standard(root: Path, env: dict, factors, coords: str, out: Path) -> None:
    """Write a standard triangulation with the program's own `standard` command."""
    argv = [sys.executable, "-m", "simplotope.cli", "standard",
            "--spec", ",".join(map(str, factors)), "--coords", coords, "--out", str(out)]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"`simplotope standard` failed for {factors}: {proc.stderr.strip()}")


# --- seeded single-vertex mutants ---------------------------------------------
#
# Soundness.  Let T triangulate the simplotope P, let S = conv(V) be one of
# its simplices, and let T' replace S by S' = conv(V') with V' = V - {v} + {w},
# w a vertex of P not in V.  The generator keeps only S' that is
# nondegenerate (class > 0) and whose vertex set is not already a member of
# T.  Then T' is never a triangulation of P:
#   * The vertices of P are in convex position and S, S' are nondegenerate,
#     so each simplex's vertex set is exactly its set of extreme points.
#     V' != V therefore gives S' != S as point sets.
#   * The members of T other than S cover the closure of P - S and meet S
#     only in its boundary.  If T' were a triangulation, S' would have to be
#     interior-disjoint from all of them, so S' is contained in S; and S'
#     would have to cover what they leave uncovered, so S is contained in
#     S'.  Hence S' = S, a contradiction.
# So "not certified" is the only correct verdict.  The degenerate and
# duplicate cases are redrawn because the verifier rejects those by a
# member check or by identical vertex sets; every kept mutant has to be
# rejected by the class sum or by a pairwise geometric test.

def _det(rows: list[list[int]]) -> int:
    """Exact integer determinant by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _decode(factors, flat) -> tuple[int, ...]:
    """Standard coordinates (one 0/1 block per factor) -> index of the 1 per block."""
    idx, pos = [], 0
    for c in factors:
        block = flat[pos:pos + c + 1]
        pos += c + 1
        if sorted(block) != [0] * c + [1]:
            raise ValueError(f"{block} is not a vertex block")
        idx.append(block.index(1))
    return tuple(idx)


def _encode(factors, idx) -> list[int]:
    return [int(j == i) for c, i in zip(factors, idx) for j in range(c + 1)]


def simplex_class(factors, simplex) -> int:
    """|det [1 | reduced coordinates]|, the reduction dropping each block's first entry."""
    rows = [[1] + [int(i == j) for c, i in zip(factors, v) for j in range(1, c + 1)]
            for v in simplex]
    return abs(_det(rows))


def draw_mutants(factors, simplices, count: int, rng: random.Random) -> list[dict]:
    """`count` distinct single-vertex mutants of a triangulation (vertex index tuples).

    Each returned record holds the mutated simplex list and what was changed.
    """
    vertices = list(itertools.product(*(range(c + 1) for c in factors)))
    members = {frozenset(x) for x in simplices}
    out: list[dict] = []
    seen: set[tuple[int, frozenset]] = set()
    while len(out) < count:
        k = rng.randrange(len(simplices))
        pos = rng.randrange(len(simplices[k]))
        w = rng.choice([v for v in vertices if v not in simplices[k]])
        new = list(simplices[k])
        new[pos] = w
        key = (k, frozenset(new))
        if frozenset(new) in members or key in seen or simplex_class(factors, new) == 0:
            continue
        seen.add(key)
        mutated = [list(x) for x in simplices]
        mutated[k] = new
        out.append({"simplices": mutated, "simplex": k, "position": pos,
                    "old": list(simplices[k][pos]), "new": list(w)})
    return out


def write_mutants(base: Path, count: int, rng: random.Random, out_dir: Path) -> list[Path]:
    with open(base) as fh:
        doc = json.load(fh)
    if doc["coords"] != "standard":
        raise ValueError(f"{base}: mutants are drawn from standard coordinates")
    factors = doc["factors"]
    simplices = [[_decode(factors, v) for v in x] for x in doc["simplices"]]
    paths = []
    for n, m in enumerate(draw_mutants(factors, simplices, count, rng)):
        path = out_dir / f"mutant-{spec_label(factors)}-{n}.json"
        mutant = {
            "factors": factors,
            "coords": "standard",
            "simplices": [[_encode(factors, v) for v in x] for x in m["simplices"]],
            "metadata": {"kind": "single-vertex mutant", "base": base.name,
                         "simplex": m["simplex"], "position": m["position"],
                         "old": m["old"], "new": m["new"]},
        }
        with open(path, "w") as fh:
            json.dump(mutant, fh, sort_keys=True)
        paths.append(path)
    return paths


def verify_jobs(workdir: Path, seed: int, root: Path, env: dict) -> tuple[list[Job], list[Path]]:
    jobs, inputs, bases = [], [], {}
    for factors, coords in CERTIFIED_SPECS:
        path = workdir / f"standard-{spec_label(factors)}-{coords}.json"
        write_standard(root, env, factors, coords, path)
        bases[factors] = path
        n = polytope_class(factors)  # standard triangulations are unimodular
        jobs.append(Job(f"certify-{spec_label(factors)}",
                        ("verify", "--input", str(path), "--format", "json"),
                        check_certified(n, n), CERTIFY))
        inputs.append(path)
    bundled = root / BUNDLED
    jobs.append(Job("certify-tri-square-minimal",
                    ("verify", "--input", str(bundled), "--format", "json"),
                    check_certified(10, polytope_class((1, 1, 2))), CERTIFY))
    inputs.append(bundled)
    rng = random.Random(seed)
    for factors in MUTANT_BASES:
        for path in write_mutants(bases[factors], MUTANTS_PER_BASE, rng, workdir):
            jobs.append(Job(path.stem, ("verify", "--input", str(path), "--format", "json"),
                            check_rejected, REJECT))
            inputs.append(path)
    return jobs, inputs


WORKLOADS = ("bounds-d10", "verify-mixed", "case-trisquare")


def make_jobs(workload: str, workdir: Path, seed: int, root: Path, env: dict) -> tuple[list[Job], list[Path]]:
    """The jobs of one workload and the input files they read (the seed only shapes verify-mixed)."""
    if workload == "bounds-d10":
        return [Job("bounds-d10", BOUNDS_ARGV, check_bounds(load_bounds_expected()))], []
    if workload == "case-trisquare":
        return [Job("case-trisquare", ("case", "tri-square", "--check", "all"), check_case)], []
    if workload == "verify-mixed":
        return verify_jobs(workdir, seed, root, env)
    raise ValueError(f"unknown workload {workload!r}")
