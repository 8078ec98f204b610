"""The module layering of the package, as one table.

The package counts peak statistics three independent ways: closed forms,
the series engine and brute-force enumeration, and no route may be
computed from another.  ``LAYERS`` lists, for every module of
``src/peakmod``, the package modules it may import.  The imports are read
with ``ast`` wherever they stand, so a function-local import counts, and
so does an absolute ``peakmod.*`` one.  A module with no row fails, so a
new module arrives with its own row.

The closed forms and the series route share ``counting.py``; the last
test keeps them apart by the module-level names each one reaches.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "peakmod"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
ANY = None  # the module may import anything in the package

LAYERS = {
    "core": set(),
    "statistics": {"core"},
    "transforms": {"core"},
    "render": {"core"},
    "counting": {"core"},
    "enumeration": {"core", "statistics"},
    "bijections": {"core", "statistics", "transforms"},
    "verify": ANY,
    "cli": ANY,
    "__init__": ANY,
}

CLOSED_FORMS = {"fuss_catalan", "count_joint", "count_marginal", "count_pk",
                "narayana", "count_ballot_joint"}
# helpers both routes may call: errors and the reading of arguments
SHARED = {"NonIntegerResultError", "_exact_int", "_entries", "_joint_args"}


def package_imports(source: str) -> set[str]:
    """The package modules ``source`` imports, read as ``src/peakmod``
    modules read them.  ``from peakmod import x`` imports module x if x
    is one, and the package's ``__init__`` otherwise."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            # in a module of the package, "." is "peakmod"
            base = (("peakmod." if node.level else "")
                    + (node.module or "")).rstrip(".")
            dotted = [base]
            if base == "peakmod":
                dotted = [f"peakmod.{alias.name}" if alias.name in MODULES
                          else base for alias in node.names]
        else:
            continue
        for name in dotted:
            top, _, rest = name.partition(".")
            if top == "peakmod":
                found.add(rest.partition(".")[0] or "__init__")
    return found


def name_graph(source: str) -> dict[str, set[str]]:
    """Each module-level name of ``source`` with the module-level names its
    definition reads."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
    return {name: {n.id for n in ast.walk(node)
                   if isinstance(n, ast.Name) and n.id in defined}
            for name, node in defined.items()}


def reach(graph: dict[str, set[str]], roots) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += graph[name]
    return seen


def routes_meet(source: str) -> set[str]:
    """The names both the closed forms and the series route (``solve_*``
    and ``lagrange_coefficient``) reach, other than the shared helpers."""
    graph = name_graph(source)
    series = {name for name in graph if name.startswith("solve_")}
    series.add("lagrange_coefficient")
    assert CLOSED_FORMS | series <= graph.keys()
    return (reach(graph, CLOSED_FORMS) & reach(graph, series)) - SHARED


def test_every_module_has_a_row():
    assert sorted(LAYERS) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_imports_stay_in_layer(module):
    allowed = LAYERS[module]  # test_every_module_has_a_row names a gap
    if allowed is not ANY:
        imports = package_imports((PACKAGE / f"{module}.py").read_text())
        assert imports <= allowed, f"{module} imports {imports - allowed}"


def test_reader_sees_every_form_of_import():
    source = (
        "from .core import UP\n"
        "from . import render\n"
        "import peakmod.statistics as s\n"
        "import peakmod\n"
        "from peakmod.transforms import lift\n"
        "from peakmod import bijections, gen_k_dyck\n"
        "from .series import solve\n"
        "import json\n"
        "from itertools import product\n"
        "def f():\n"
        "    from .enumeration import gen_kac\n"
        "    class C:\n"
        "        from .counting import solve_f\n")
    assert package_imports(source) == {
        "core", "render", "statistics", "__init__", "transforms",
        "bijections", "series", "enumeration", "counting"}


def test_closed_forms_and_series_route_stay_apart():
    assert routes_meet((PACKAGE / "counting.py").read_text()) == set()


def test_a_crossing_between_the_routes_is_seen():
    source = (PACKAGE / "counting.py").read_text() + (
        "\n\ndef count_pk(k, n, r):\n"
        "    return solve_f(k, n + 1).coefficient(n)\n")
    assert "solve_f" in routes_meet(source)
