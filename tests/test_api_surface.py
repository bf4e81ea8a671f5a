"""Every module-level function and class of the package, and every method and
property of its classes, is used by a command or kept on purpose, and every
test oracle is used by a test.

A name is used when the code that `simplotope` runs can reach it: start from
`cli.main` and from every module-level statement that is not a definition
(those run on import), then follow each identifier to the definition of that
name.  A member `Class.name` is reached when reachable code names `name` as
an attribute (`x.name`), whatever x is.  Dunder members run implicitly, so
they count as part of their class.  `__init__.py` re-exports do not count as
a use.  The names listed in KEPT are extra starting points, each with the
reason it stays.

The slow checkers that tier-1 compares fast paths and proof steps against
live in `tests/*_oracle.py`, outside the package.  Each of their definitions
must be reached the same way from the `test_*` functions and the
module-level code of the test modules.  No oracle may use a private name of
the package: an oracle built from the fast path's own helpers would not
check that path independently.
"""

import ast
from pathlib import Path

import simplotope

PACKAGE = Path(simplotope.__file__).parent
TESTS = Path(__file__).resolve().parent
ENTRY = "main"  # `simplotope = "simplotope.cli:main"` in pyproject.toml

TRACED = "traced by perfbench: its module and name must stay until the benchmark changes"
KEPT = {
    "adjacency_graph": TRACED,
    "facet_rows": TRACED,
    "has_exterior_facet": TRACED,
    "minimal_face": TRACED,
    "SimplotopeSpec.vertex": "called by perfbench's self-test",
    "_Parser.error": "argparse calls it",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def identifiers(node):
    """Every name a piece of code mentions, and every attribute as ".name"."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield "." + sub.attr


def reference_graph(sources):
    """({definition: identifiers it mentions}, identifiers of module-level code)
    over the module sources given.  The definitions are the module-level
    functions and classes, by name, and the non-dunder methods and
    properties of those classes, as "Class.name"; a class's own identifiers
    leave those members' bodies out."""
    uses, on_import = {}, set()
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.ClassDef):
                members = [m for m in stmt.body if isinstance(m, FUNCTIONS) and not is_dunder(m.name)]
                for member in members:
                    uses[f"{stmt.name}.{member.name}"] = set(identifiers(member))
                rest = [node for node in [*stmt.bases, *stmt.decorator_list, *stmt.body]
                        if node not in members]
                uses[stmt.name] = {n for node in rest for n in identifiers(node)} - {stmt.name}
            elif isinstance(stmt, FUNCTIONS):
                uses[stmt.name] = set(identifiers(stmt)) - {stmt.name}
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                on_import.update(identifiers(stmt))
    return uses, on_import


def reachable(uses, start):
    """The definitions that the start names reach: a name or an attribute
    reaches the module-level definition of that name, and only an attribute
    reaches a member."""
    by_identifier = {}
    for name in uses:
        member = name.rpartition(".")[2]
        if "." not in name:
            by_identifier.setdefault(name, []).append(name)
        by_identifier.setdefault("." + member, []).append(name)
    seen, todo = set(), [name for name in start if name in uses]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [d for n in uses[name] for d in by_identifier.get(n, ()) if d not in seen]
    return seen


def package_sources():
    return [path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def test_every_definition_is_used_or_kept():
    uses, on_import = reference_graph(package_sources())
    used = reachable(uses, {ENTRY} | on_import | set(KEPT))
    assert sorted(set(uses) - used) == []


def test_kept_names_exist_and_no_command_uses_them():
    uses, on_import = reference_graph(package_sources())
    by_commands = reachable(uses, {ENTRY} | on_import)
    assert sorted(set(KEPT) - set(uses)) == []
    assert sorted(set(KEPT) & by_commands) == []


def sources(pattern):
    return [path.read_text() for path in sorted(TESTS.glob(pattern))]


def test_every_oracle_definition_is_used_by_a_test():
    tests, oracles = sources("test_*.py"), sources("*_oracle.py")
    defined = set(reference_graph(oracles)[0])
    uses, _ = reference_graph(tests + oracles)
    _, on_import = reference_graph(tests)
    used = reachable(uses, {name for name in uses if name.startswith("test_")} | on_import)
    assert defined and sorted(defined - used) == []


def test_oracles_use_no_private_name_of_the_package():
    found = []
    for path in sorted(TESTS.glob("*_oracle.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("simplotope"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith("_") and not name.startswith("__")]
    assert found == []


def test_scan_follows_calls_methods_and_module_code():
    sources = [
        "def main():\n    return B().run()\n\ndef dead():\n    return helper()\n",
        "class B:\n    def run(self):\n        return self.step()\n\n"
        "    def step(self):\n        return helper()\n\n"
        "    def unused(self):\n        return other()\n\n"
        "    def __eq__(self, x):\n        return cmp()\n\n"
        "def helper():\n    return 1\n\ndef other():\n    return 2\n\ndef cmp():\n    return 3\n\n"
        "DEFAULT = Table()\n\nclass Table:\n    pass\n",
    ]
    uses, on_import = reference_graph(sources)
    used = reachable(uses, {"main"} | on_import)
    assert sorted(set(uses) - used) == ["B.unused", "dead", "other"]


def test_a_member_is_reached_by_attribute_only():
    uses, _ = reference_graph(["class C:\n    def size(self):\n        return 1\n\n"
                               "def main(size):\n    return size\n"])
    assert reachable(uses, {"main"}) == {"main"}
    uses, _ = reference_graph(["class C:\n    def size(self):\n        return 1\n\n"
                               "def main(c):\n    return c.size()\n"])
    assert reachable(uses, {"main"}) == {"main", "C.size"}
