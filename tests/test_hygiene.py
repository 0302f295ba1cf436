"""Source hygiene: no unused imports, no private imports between modules,
no unreferenced top-level code, no new recursion.

A static scan with the standard-library ``ast``: every name a module under
``src/cplusplan`` imports is used in that module and is not an underscore
name of another module of the package, and every top-level function,
class or assigned name there other than a dunder, and every method of
such a class other than a dunder method, is referenced somewhere in
``src/``, ``tests/`` or ``perfbench/`` outside its own body or
statement.  A reference is a name, an attribute, or a string equal to
the name (tools patch functions by their name); a method is reached
only by the last two.  The definitions that only
tests reach are exactly those of `TEST_ONLY`, the functions that call
themselves exactly those of `SELF_RECURSIVE`, and the classes that are
still stdlib dataclasses exactly those of `STDLIB_DATACLASSES`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cplusplan"
MODULES = sorted(PACKAGE.glob("*.py"))
SCANNED = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
# what the program and its benchmark tooling run, without the tests
OUTSIDE_TESTS = [p for p in SCANNED if p.parent.name != "tests" and not p.name.startswith("test_")]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return set()


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [name for name in imported if name not in used]


def _references(tree: ast.Module, skip: ast.AST | None = None, names: bool = True) -> set[str]:
    """Names (unless not names), attributes and strings in the tree,
    outside the node `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            if names:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(_tree(path)) == []


def _private_imports(tree: ast.Module) -> list[str]:
    """The underscore names the module imports from the package."""
    return [
        a.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "cplusplan")
        for a in node.names if a.name.startswith("_")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert _private_imports(_tree(path)) == []


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _top_level(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Each function, class and assigned name other than a dunder, with
    the statement that defines it."""
    out = []
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            out.append((n.name, n))
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            out += [(t.id, n) for target in targets for t in ast.walk(target)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                    and not _dunder(t.id)]
    return out


def _methods(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    return [
        (m.name, m) for n in tree.body if isinstance(n, ast.ClassDef) for m in n.body
        if isinstance(m, ast.FunctionDef) and not _dunder(m.name)
    ]


def _unreferenced(definitions, names: bool, scanned=SCANNED) -> list[str]:
    """The names of definitions(tree) of each module that nothing in
    scanned references; a bare name counts only if names is set."""
    trees = {p: _tree(p) for p in {*scanned, *MODULES}}
    refs = {p: _references(trees[p], names=names) for p in scanned}
    out = []
    for path in MODULES:
        elsewhere = set().union(*(r for q, r in refs.items() if q != path))
        for name, node in definitions(trees[path]):
            own = _references(trees[path], skip=node, names=names)
            if name in elsewhere or name in own:
                continue
            out.append(f"{path.name}:{name}")
    return out


def test_every_top_level_definition_is_referenced():
    assert _unreferenced(_top_level, names=True) == []


def test_every_method_is_referenced():
    # a method is reached through an attribute or by its name as a string
    assert _unreferenced(_methods, names=False) == []


# Every definition under src/cplusplan that only the tests reach, with the
# reason it stays.  The independent routes are kept apart from the solver
# on purpose; a helper that tests alone call otherwise moves into the test
# that calls it, or goes.
TEST_ONLY: dict[str, str] = {
    "mvpf.py:is_stable": "the reference semantics' stability test, an independent route",
    "solve.py:brute_force_models": "the exhaustive oracle that the search is checked against",
    "translate.py:theory_to_prop": "reduces a multi-valued theory for the brute-force route",
    "translate.py:prop_model_to_interp": "maps models across that reduction, one way",
    "translate.py:interp_to_prop_model": "maps models across that reduction, the other way",
    "translate.py:decode_prop_model": "a solver model as a trajectory, to compare with the reference",
    "translate.py:decode_mv_model": "a reference model as a trajectory, to compare with the solver",
    "translate.py:model_key": "a trajectory as a comparable key",
    "suite.py:run_oracle_bfs": "the explicit transition-system oracle of the suite",
    "suite.py:run_oracle_exhaustive": "the reference-semantics oracle of the suite",
    "suite.py:default_cases": "the suite's registry: the cases without the stress marker",
    "suite.py:description_file": "the suite's registry: where a case's description lives",
}


def test_test_only_definitions_are_listed():
    found = set(_unreferenced(_top_level, True, OUTSIDE_TESTS)
                + _unreferenced(_methods, False, OUTSIDE_TESTS))
    assert sorted(found - set(TEST_ONLY)) == [], "reached only from tests; list it or delete it"
    assert sorted(set(TEST_ONLY) - found) == [], "listed, but reached outside the tests"


# Every function under src/cplusplan that calls itself, by name or as a
# method of `self`, with its module and the classes and functions it sits
# in.  Each one overflows the stack on input nested deeply enough; a new
# walker takes an explicit stack instead, and one rewritten as a loop
# leaves this list.
SELF_RECURSIVE: set[str] = set()


def _calls_itself(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                return True
    return False


def _self_recursive(path: Path) -> set[str]:
    out = set()
    stack = [(_tree(path), "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    out.add(f"{path.name}:{name}")
                stack.append((child, name + "."))
            else:
                stack.append((child, prefix))
    return out


def test_self_recursion_is_listed():
    found = set().union(*(_self_recursive(p) for p in MODULES))
    assert sorted(found - SELF_RECURSIVE) == [], "new self-recursive function"
    assert sorted(SELF_RECURSIVE - found) == [], "listed function no longer recurses"


# Every class under src/cplusplan that is a stdlib dataclass, with the
# reason it stays one.  Each costs the import about a millisecond for the
# code it generates and compiles; an immutable record is an `mvpf.Record`
# instead, and a mutable one a plain class.
STDLIB_DATACLASSES: dict[str, str] = {
    "syntax.py:QuerySpec": "perfbench/bench_workload.py derives queries with dataclasses.replace",
}


def _dataclasses(path: Path) -> set[str]:
    out = set()
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ClassDef):
            continue
        for d in node.decorator_list:
            f = d.func if isinstance(d, ast.Call) else d
            if getattr(f, "id", getattr(f, "attr", None)) == "dataclass":
                out.add(f"{path.name}:{node.name}")
    return out


def test_stdlib_dataclasses_are_listed():
    found = set().union(*(_dataclasses(p) for p in MODULES))
    assert sorted(found - set(STDLIB_DATACLASSES)) == [], "a new dataclass; list it or make it a Record"
    assert sorted(set(STDLIB_DATACLASSES) - found) == [], "listed, but no longer a dataclass"
