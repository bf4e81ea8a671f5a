"""Command-line surface: flags, formats, exit codes, round trips."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import simplotope
from simplotope.cli import MAX_BOUNDS_DIM, main
from simplotope.fbounds import load_cube_caps

BUNDLED = str(resources.files("simplotope").joinpath("data/tri_square_minimal.json"))


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refused the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--max-s", "3", "--max-t", "1",
                       "--dim-cap", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "s,t,lp_value,lower_bound,v_used"
    assert "3,0,5,5,2" in out


def test_bounds_point(capsys):
    code, out, _ = run(capsys, "bounds", "--max-s", "0", "--max-t", "0")
    assert code == 0
    assert "0,0,1,1,1" in out


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--max-s", "1", "--max-t", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    cells = {(c["s"], c["t"]): c for c in doc["cells"]}
    assert cells[(1, 1)]["lower_bound"] == 3


def test_verify_bundled(capsys):
    code, out, _ = run(capsys, "verify", "--input", BUNDLED)
    assert code == 0
    assert "CERTIFIED" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--input", BUNDLED, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True and doc["n_simplices"] == 10
    assert doc["facets_ok"] is True and doc["diagnostics"] == []
    assert "disjoint_ok" not in doc and "face_to_face_ok" not in doc


def test_standard_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "t22.json"
    code, _, err = run(capsys, "standard", "--spec", "2,2", "--out", str(out_file))
    assert code == 0 and "6 simplices" in err
    code, out, _ = run(capsys, "verify", "--input", str(out_file))
    assert code == 0 and "CERTIFIED" in out


def test_standard_reduced_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "t112.json"
    code, _, _ = run(capsys, "standard", "--spec", "1,1,2", "--out", str(out_file),
                     "--coords", "reduced")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--input", str(out_file))
    assert code == 0 and "12 simplices" in out


def test_verify_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"factors": [1, 1]}')
    code, _, err = run(capsys, "verify", "--input", str(bad))
    assert code == 2 and "error" in err


def test_verify_uncertified_exit_code(tmp_path, capsys):
    doc = {
        "factors": [1, 1],
        "coords": "standard",
        "simplices": [
            [[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]],
            [[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]],
        ],
    }
    f = tmp_path / "dup.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--input", str(f))
    assert code == 1 and "NOT CERTIFIED" in out
    assert "facets matched: False" in out
    assert "  - boundary facet [(0, 0), (1, 0)]: owned by 2 simplices [0, 1], expected 1" in out


# Python refuses by default to print an int of more than 4300 digits; an
# exact answer is printed in full all the same, and the caller's limit is
# back in force when main returns.

HAS_INT_LIMIT = hasattr(sys, "set_int_max_str_digits")  # Python 3.11 and later


def full_digits(n):
    """str(n) however many digits n has, under any int-string limit."""
    if not HAS_INT_LIMIT:
        return str(n)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(before)


def test_verify_prints_a_polytope_class_of_any_length(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"factors": [1] * 2000, "coords": "standard", "simplices": []}))
    code, out, err = run(capsys, "verify", "--input", str(f))
    assert code == 1 and out.endswith("NOT CERTIFIED\n") and err == ""
    # 5736 digits
    assert f"total class 0 != polytope class {full_digits(math.factorial(2000))}\n" in out


def test_q_prints_an_answer_of_any_length(capsys):
    code, out, err = run(capsys, "q", "--s", "10000", "--t", "0", "--sp", "3333", "--tp", "0")
    assert code == 0 and err == ""
    # the 10000-cube's 3333-faces: 4770 digits, past the default int-string limit
    assert out == full_digits(math.comb(10000, 3333) * 2 ** 6667) + "\n"
    assert len(out) == 4771


def test_q_answers_at_the_largest_dimension_accepted(capsys):
    code, out, err = run(capsys, "q", "--s", "10000", "--t", "0", "--sp", "0", "--tp", "0")
    assert code == 0 and err == ""
    assert out == full_digits(2 ** 10000) + "\n"  # the 10000-cube's vertices: 3011 digits
    assert len(out) == 3012


@pytest.mark.skipif(not HAS_INT_LIMIT, reason="no int-string limit before Python 3.11")
def test_main_restores_the_int_string_limit(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4500)
    try:
        code, out, _ = run(capsys, "q", "--s", "10000", "--t", "0", "--sp", "3333", "--tp", "0")
        assert code == 0 and len(out) == 4771
        assert sys.get_int_max_str_digits() == 4500
        code, _, _ = run(capsys, "q", "--s", "x", "--t", "0", "--sp", "0", "--tp", "0")
        assert code == 2  # argparse's exit
        assert sys.get_int_max_str_digits() == 4500
    finally:
        sys.set_int_max_str_digits(before)


def test_q_prints_the_count(capsys):
    code, out, err = run(capsys, "q", "--s", "0", "--t", "2", "--sp", "2", "--tp", "0")
    assert (code, out, err) == (0, "9\n", "")


def test_vmax_counts_form(capsys):
    code, out, err = run(capsys, "vmax", "--s", "1", "--t", "2")
    assert code == 0 and out.strip() == "3"
    assert "brute-forced" in err


def test_vmax_missing_args(capsys):
    code, _, err = run(capsys, "vmax")
    assert code == 2 and "error" in err


def test_fbound(capsys):
    code, out, _ = run(capsys, "fbound", "--s", "1", "--t", "1", "--c", "1",
                       "--sp", "2", "--tp", "0", "--cp", "1")
    assert code == 0 and out.strip() == "2"


@pytest.mark.parametrize("key, want", [
    ("3 1 2 1 0 1", "3"),
    ("2 2 2 1 0 1", "7"),
    ("4 1 2 1 0 1", "7"),
    ("4 1 3 1 0 1", "3"),
    ("1 3 2 1 0 1", "10"),
])
def test_fbound_counts_the_edges_of_a_vertex_footprint(capsys, key, want):
    # class-1 edges of a class-c simplex: those meeting a fixed edge in one
    # vertex count once per vertex of that edge; under (3,1,2,1,0,1) a
    # simplex has 3 such edges, where a footprint factor of 1 gave F = 2
    flags = [w for flag, k in zip(("--s", "--t", "--c", "--sp", "--tp", "--cp"), key.split())
             for w in (flag, k)]
    code, out, _ = run(capsys, "fbound", *flags)
    assert code == 0 and out.strip() == want


def test_fbound_counts_every_vertex_as_a_zero_face(capsys):
    code, out, _ = run(capsys, "fbound", "--s", "1", "--t", "1", "--c", "1",
                       "--sp", "0", "--tp", "0", "--cp", "1")
    assert code == 0 and out.strip() == "4"


def test_case_tri_square_fast(capsys):
    code, out, _ = run(capsys, "case", "tri-square")
    assert code == 0
    assert "certified" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--format", "yaml"])
    assert exc.value.code == 2


def test_bounds_missing_caps_fails(tmp_path, capsys):
    config = tmp_path / "caps.txt"
    config.write_text("# truncated table\n3 2\n4 3\n5 5\n6 9\n")
    code, out, err = run(capsys, "bounds", "--max-s", "8", "--max-t", "0",
                         "--dim-cap", "8", "--config", str(config))
    assert code == 1
    assert "7,0" not in out and "6,0,1248/5,250,9" in out
    assert "no cube cap" in err


def test_bounds_with_explicit_default_config(capsys):
    path = resources.files("simplotope").joinpath("data/cube_caps.txt")
    code, out, _ = run(capsys, "bounds", "--max-s", "3", "--max-t", "0",
                       "--config", str(path))
    assert code == 0 and "3,0,5,5,2" in out


def test_standard_single_segment(capsys):
    code, out, err = run(capsys, "standard", "--spec", "1")
    assert code == 0
    assert "1 simplices" in err
    assert json.loads(out)["simplices"] == [[[1, 0], [0, 1]]]


def test_standard_one_long_factor(tmp_path, capsys):
    # the simplex itself: its orderings are found without a call per coordinate
    out_file = tmp_path / "simplex.json"
    code, _, err = run(capsys, "standard", "--spec", "1000", "--coords", "reduced", "--out", str(out_file))
    assert code == 0 and err == "1 simplices (size formula: 1)\n"
    assert len(json.loads(out_file.read_text())["simplices"]) == 1


@pytest.mark.parametrize("spec", [",".join(["x"] * 150), ",".join(["1"] * 150) + ",0"],
                         ids=["not-integers", "zero-factor"])
def test_standard_spec_errors_echo_the_spec_shortened(capsys, spec):
    code, out, err = run(capsys, "standard", "--spec", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: --spec") and err.count("\n") == 1
    assert len(err.encode()) < 120


def test_standard_refuses_the_twelve_cube_before_generating(capsys):
    # 479,001,600 simplices: refused from the size formula alone
    start = time.perf_counter()
    code, out, err = run(capsys, "standard", "--spec", ",".join(["1"] * 12))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: --spec: the standard triangulation has more than 10000000")


def test_bounds_refuses_a_grid_above_ten_thousand_cells(capsys):
    code, out, err = run(capsys, "bounds", "--max-s", "3000", "--max-t", "300", "--dim-cap", "2")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: the --max-s by --max-t grid has more than 10000 cells")
    code, out, _ = run(capsys, "bounds", "--max-s", "10000", "--max-t", "0")
    assert code == 2 and out == ""
    # exactly 10,000 cells is accepted; all but the first two are beyond the cap
    code, out, _ = run(capsys, "bounds", "--max-s", "9999", "--max-t", "0", "--dim-cap", "1",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0 and len(doc["cells"]) == 2 and len(doc["skipped"]) == 9998


# deeper than the JSON parser's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


# The packaged caps with 10^30 at d = 7 and 8, where Hadamard's bound gives 32
# and 76; listing the divisors of such a cap by trial division would take years.
CAPS_ABOVE_HADAMARD = "".join(f"{d} {10 ** 30 if d in (7, 8) else cap}\n"
                              for d, cap in load_cube_caps().items())


@pytest.mark.parametrize("doc, argv", [
    ([1, 2, 3], None),
    ({"factors": [0], "coords": "standard", "simplices": []}, None),
    ({"factors": [1.5, "x"], "coords": "standard", "simplices": []}, None),
    ({"factors": [1, 1], "coords": "standard",
      "simplices": [[[1, 0, 1, 0], [1, 0, 1, 0], [1, 0, 0, 1]]]}, None),
    ({"factors": [1, 1], "coords": "standard", "simplices": 5}, None),
    ({"factors": [1, 1], "coords": "standard", "simplices": [[1, 2, 3]]}, None),
    ({"factors": [1, 1], "coords": "standard", "simplices": [5]}, None),
    ({"factors": [1, 1], "coords": "reduced", "reduction_vertex": 5, "simplices": []}, None),
    ({"factors": [1, 1], "coords": "standard",
      "simplices": [[["1", 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]]}, None),
    ({"factors": [1, 1], "coords": "standard",
      "simplices": [[[1.0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]]}, None),
    (None, ["bounds", "--max-t", "-1"]),
    (None, ["bounds", "--config", "/nonexistent/caps.txt"]),
    (None, ["vmax", "--s", "-1", "--t", "0"]),
    (None, ["vmax", "--s", "9", "--t", "9"]),
    (None, ["vmax", "--spec", "1,2"]),
    (None, ["q", "--s", "-1", "--t", "0", "--sp", "0", "--tp", "0"]),
    (None, ["q", "--s", "0", "--t", "2", "--sp", "2", "--tp", "0", "--check"]),
    (None, ["q", "--s", "1", "--t", "5000", "--sp", "0", "--tp", "0"]),
    (None, ["standard", "--spec", "0"]),
    (None, ["standard", "--spec", "99999999999"]),
    (None, ["fbound", "--s", "-1", "--t", "0", "--c", "1", "--sp", "0", "--tp", "0", "--cp", "1"]),
    (None, ["fbound", "--s", "20", "--t", "0", "--c", "2", "--sp", "1", "--tp", "0", "--cp", "1"]),
    (None, ["verify", "--input", "{file}", "--jobs", "2"]),
    (None, ["case", "tri-square", "--jobs", "2"]),
    (None, ["bounds", "--memo-cache", "F"]),
    # a file written for the retired `--memo-cache` is refused with the flag
    # and left as it was
    ({"format": 1, "caps": "f" * 64, "entries": {"1,1,2,1,0,1": 6}},
     ["bounds", "--max-s", "1", "--max-t", "1", "--memo-cache", "{file}"]),
    ("4 0\n", ["bounds", "--config", "{file}"]),
    ("5 -3\n", ["bounds", "--config", "{file}"]),
    ("4 3\n4 1\n", ["vmax", "--s", "4", "--t", "0", "--config", "{file}"]),
    (b"\xff\xfe{}", None),
    (DEEP, None),
    ({"factors": [10 ** 30], "coords": "standard", "simplices": []}, None),
    ('{"factors": [' + "7" * 400_000 + '], "coords": "standard", "simplices": []}', None),
    ("4 " + "9" * 400_000 + "\n", ["bounds", "--config", "{file}"]),
    ("7 9\n", ["bounds", "--max-s", "7", "--max-t", "0", "--dim-cap", "7", "--config", "{file}"]),
    ("4 3\n5 4\n", ["bounds", "--max-s", "5", "--max-t", "0", "--dim-cap", "5", "--config", "{file}"]),
    ("6 8\n", ["vmax", "--s", "6", "--t", "0", "--config", "{file}"]),
    (CAPS_ABOVE_HADAMARD, ["bounds", "--max-s", "8", "--max-t", "0", "--dim-cap", "8",
                           "--config", "{file}"]),
    (None, ["standard", "--spec", "1", "--out", "{file}/x.json"]),
], ids=["top-level-list", "zero-factor", "non-integer-factors", "repeated-vertex",
        "simplices-not-a-list", "vertex-is-a-number", "simplex-not-a-list",
        "reduction-vertex-not-a-list", "string-vertex-entry", "float-vertex-entry",
        "negative-max-t", "missing-config",
        "vmax-negative-count", "vmax-without-cap", "vmax-spec-flag",
        "q-negative-count", "q-check-flag", "q-beyond-max-dimension", "standard-zero-factor", "standard-huge-dimension",
        "fbound-negative-count", "fbound-without-cap", "verify-jobs-flag", "case-jobs-flag",
        "bounds-memo-cache-flag", "memo-caps-mismatch", "caps-zero", "caps-negative",
        "caps-repeated-dim", "not-utf8", "deeply-nested", "huge-dimension", "huge-integer",
        "caps-huge-integer", "caps-below-sylvester", "caps-below-searched-5",
        "caps-below-searched-6", "caps-above-hadamard", "standard-unwritable-out"])
def test_usage_errors_exit_2_with_one_line(tmp_path, capsys, doc, argv):
    f = tmp_path / "input.json"
    if isinstance(doc, bytes):
        f.write_bytes(doc)
    elif doc is not None:
        f.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [a.replace("{file}", str(f)) for a in argv or ["verify", "--input", "{file}"]]
    before = f.read_bytes() if doc is not None else None
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 300  # values are echoed shortened
    if before is not None:
        assert f.read_bytes() == before  # a refused file is left as it was


def test_refusals_of_huge_inputs_are_quick(tmp_path, capsys):
    # both commands used to run for many seconds: q printing a 2^s-sized
    # answer, and bounds listing the divisors of a 10^30 cap
    config = tmp_path / "caps.txt"
    config.write_text(CAPS_ABOVE_HADAMARD)
    for argv in (["q", "--s", "10000000", "--t", "0", "--sp", "0", "--tp", "0"],
                 ["bounds", "--max-s", "8", "--max-t", "0", "--dim-cap", "8",
                  "--config", str(config)]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "line 7 " in err and "Hadamard" in err


def capped_everywhere(tmp_path):
    """Caps that load_cube_caps accepts at every dimension through 600: the
    packaged ones, 131072 at d = 15 and 1 elsewhere."""
    caps = {d: 131072 if d == 15 else 1 for d in range(1, 601)} | load_cube_caps()
    config = tmp_path / "caps.txt"
    config.write_text("".join(f"{d} {cap}\n" for d, cap in caps.items()))
    return str(config)


def test_f_deeper_than_the_stack_exits_2_with_one_line(tmp_path):
    # caps up to d = 600: F(600, ...) recurses once per dimension
    config = capped_everywhere(tmp_path)

    def fbound(s):
        argv = ["fbound", "--s", str(s), "--t", "0", "--c", "1", "--sp", "1", "--tp", "0",
                "--cp", "1", "--config", config]
        return subprocess.run([sys.executable, "-m", "simplotope.cli", *argv], env=fresh_env(),
                              capture_output=True, text=True, timeout=60)

    assert fbound(450).returncode == 0
    start = time.perf_counter()
    proc = fbound(600)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: F(600, ") and proc.stderr.count("\n") == 1


def test_bounds_reports_a_recursion_error_in_one_line(monkeypatch, capsys):
    import simplotope.lptable as lptable

    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(lptable, "bounds_table", too_deep)
    code, out, err = run(capsys, "bounds", "--max-s", "1", "--max-t", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: F's recurrence") and err.count("\n") == 1


# Runs one command in a fresh interpreter, then reports its exit code and
# every module imported on the way.
FRESH_CLI_SCRIPT = """
import contextlib, io, json, sys
from simplotope import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(simplotope.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(script, *argv):
    """What `script` prints as JSON, run in a fresh interpreter that imports this package."""
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_fresh(argv):
    code, modules = run_python(FRESH_CLI_SCRIPT, *argv)
    return code, set(modules)


@pytest.mark.parametrize("argv", [
    ["bounds", "--max-s", "3", "--max-t", "3", "--dim-cap", "6"],  # reaches V(0,3)
    ["verify", "--input", BUNDLED],
    ["case", "tri-square", "--check", "all"],
    ["standard", "--spec", "1,2"],
    ["vmax", "--s", "0", "--t", "3"],
], ids=["bounds", "verify", "case", "standard", "vmax"])
def test_cli_commands_do_not_import_numpy(argv):
    code, modules = run_fresh(argv)
    assert code == 0
    assert "numpy" not in modules


def test_importing_the_cli_loads_no_command_module():
    # each command imports what it needs; `--help` and the module itself load
    # none of the bounds, counting or case-study code
    modules = set(run_python("import json, sys\nimport simplotope.cli\n"
                             "print(json.dumps(sorted(sys.modules)))"))
    assert "simplotope.cli" in modules
    assert modules.isdisjoint({"simplotope.fbounds", "simplotope.lptable", "simplotope.counting",
                               "simplotope.trisquare"})


def test_importing_the_case_study_computes_no_v():
    # `case tri-square` solves one cover LP cell; importing its modules must
    # not fill the packaged V table ahead of it
    values = run_python("import json\nimport simplotope.trisquare, simplotope.lptable\n"
                        "from simplotope.fbounds import DEFAULT_VTABLE\n"
                        "print(json.dumps(sorted(DEFAULT_VTABLE._values)))")
    assert values == []


@pytest.mark.parametrize("argv", [
    ["bounds", "--max-s", "3", "--max-t", "1", "--dim-cap", "6"],
    ["verify", "--input", BUNDLED],
], ids=["bounds", "verify"])
def test_commands_import_neither_dataclasses_nor_inspect(argv):
    # the records are plain classes and named tuples: importing dataclasses
    # pulls in inspect, 15–20 ms of a short command's start-up
    script = "import sys\nbefore = set(sys.modules)\n" + FRESH_CLI_SCRIPT.replace(
        "sorted(sys.modules)", "sorted(set(sys.modules) - before)")
    code, added = run_python(script, *argv)
    assert code == 0 and "simplotope.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added)


def test_verify_does_not_import_the_case_study():
    code, modules = run_fresh(["verify", "--input", BUNDLED])
    assert code == 0
    assert "simplotope.cli" in modules and "simplotope.trisquare" not in modules


def package_modules(argv):
    code, modules = run_fresh(argv)
    assert code == 0
    return {m.removeprefix("simplotope.") for m in modules if m.startswith("simplotope.")}


def test_each_command_loads_only_its_modules():
    # without bytecode files every start compiles each module it loads,
    # about 11 us a line: the stem walk in `exact` costs `verify` about
    # 0.75 ms that way, and not loading `fractions` and `decimal` (only
    # `lp_minimize` imports them) saves it 2 ms; the case study's and the
    # bounds' code stay off it
    code, modules = run_fresh(["verify", "--input", BUNDLED])
    assert code == 0 and "fractions" not in modules
    assert package_modules(["verify", "--input", BUNDLED]) == {
        "cli", "core", "exact", "record", "tfiles", "verifier"}
    assert package_modules(["bounds", "--max-s", "3", "--max-t", "1"]).isdisjoint(
        {"verifier", "tfiles", "trisquare"})
    assert package_modules(["--help"]) == {"cli"}


# sha256 of the stdout of outputs that no refactoring may change by a byte:
# the d=12 and d=13 tables, the tri-square argument and the bundled
# file's certificate
PINNED_OUTPUTS = [
    (["bounds", "--max-s", "12", "--max-t", "6", "--dim-cap", "12", "--format", "json"],
     "c9e863a959c40d981c121ae0953587690d83746e5ed3037d5726eb2fe47f432b"),
    (["bounds", "--max-s", "13", "--max-t", "6", "--dim-cap", "13", "--format", "json"],
     "ee61c35dc5556cedc4b0c44be914fa0ebefd6af5c6641b6b9b97b10f4e63cd48"),
    (["case", "tri-square", "--check", "all"],
     "5814474c321497aca37bc3b2fa1cda7f6a1bdaf381d90fc3398a5979460fbf76"),
    (["verify", "--input", BUNDLED, "--format", "json"],
     "b09e8d2629d87219f5636ecdb0880ba4d44f4c9efb62dff37e578dc5d315d136"),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS, ids=["bounds-d12", "bounds-d13", "case", "verify"])
def test_listed_outputs_keep_their_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_bounds_refuses_a_dimension_above_the_limit_at_once(tmp_path, capsys):
    # with every dimension capped, --max-s 200 walked the table for 2 s with
    # nothing printed, --max-s 400 for 40 s, and --max-t 50 ran past 5 min
    config = capped_everywhere(tmp_path)
    for argv, reach in ((["--max-s", "200", "--max-t", "0", "--dim-cap", "200"], 200),
                        (["--max-s", "0", "--max-t", "51", "--dim-cap", "600"], 102),
                        (["--max-s", "0", "--max-t", "50", "--dim-cap", "100"], 100)):
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", *argv, "--config", config)
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: the table reaches dimension {reach}, more than 40"), err
    # the largest table accepted prints every cell; a larger grid under the
    # same dimension cap is accepted too
    for max_s in (MAX_BOUNDS_DIM, 2 * MAX_BOUNDS_DIM):
        code, out, _ = run(capsys, "bounds", "--max-s", str(max_s), "--max-t", "0",
                           "--dim-cap", str(MAX_BOUNDS_DIM), "--config", config)
        assert code == 0 and len(out.splitlines()) == MAX_BOUNDS_DIM + 2
