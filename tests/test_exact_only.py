"""Static guards over every module under src/orbitope.  The exactness and
memo guards also scan tests/reference.py, the code the tests compare the
package against, and the import guard scans every module under tests.

Exactness: no floating point in the package.  Modules are scanned for
float literals, any use of the name `float`, and `math` imports other than
`gcd`.  The one allowed exception is `cli.render_svg`, whose SVG pixel
coordinates are floats.

One memo idiom: no module-level empty `{}`, `[]`, `dict()` or `set()`, the
shape of a hand-rolled cache.  Memos are `functools.cache`, `lru_cache` or
`cached_property`.

An integer core in the exact layer: the pivot kernel, `row_reduce` and the
equality substitution pass rows to each other and to the simplex as ints
over a row denominator.  They never call `Fraction`, and `_simplex_le`
never converts its rows with `_int_row`.  A row's integer normal is read
at a point the same way, over one denominator (`_dot`,
`AffineIneq.satisfied_by`).

No unused imports: every module-level import binds a name that some other
node of the module reads (`from __future__` imports aside), so a move
between the package and the tests leaves no stale import behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbitope"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
ALLOWED = {("cli.py", "render_svg")}


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    skipped = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in ALLOWED
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        line = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{line} float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{line} uses float")
        elif isinstance(node, ast.Import):
            found += [f"{line} imports {a.name}" for a in node.names
                      if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{line} imports math.{a.name}" for a in node.names if a.name != "gcd"]
    return found


def _module_containers(path: Path) -> list[str]:
    """Module-level assignments of an empty dict, list or set."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        empty = (
            (isinstance(value, ast.Dict) and not value.keys)
            or (isinstance(value, ast.List) and not value.elts)
            or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "set") and not value.args and not value.keywords)
        )
        if empty:
            found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


# Function (or Class.method) of exactmath.py -> the names it must not call.
INTEGER_CORE = {
    "_reduce": {"Fraction"},
    "_eliminate": {"Fraction"},
    "_pivot": {"Fraction"},
    "row_reduce": {"Fraction"},
    "_Substitution._row": {"Fraction"},
    "_Substitution.reduce": {"Fraction"},
    "_dot": {"Fraction"},
    "AffineIneq.satisfied_by": {"Fraction"},
    "_Substitution.program": {"Fraction"},
    "_simplex_le": {"_int_row"},
}


def _core_calls(path: Path) -> tuple[set, list[str]]:
    """(the INTEGER_CORE functions defined in path, the banned calls they
    make)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    functions += [
        (f"{cls.name}.{fn.name}", fn)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
    ]
    seen, found = set(), []
    for name, fn in functions:
        banned = INTEGER_CORE.get(name)
        if banned is None:
            continue
        seen.add(name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in banned:
                    found.append(f"{path.name}:{node.lineno} {name} calls {called}")
    return seen, found


def _unused_imports(path: Path) -> list[str]:
    """Module-level imports whose bound name no node of the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


MODULES = sorted(PACKAGE.glob("*.py"))
SCANNED = MODULES + [REFERENCE]
TEST_MODULES = sorted(REFERENCE.parent.glob("*.py"))


def test_package_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert _violations(path) == []


def test_scan_catches_floats(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float(1)\n")
    assert len(_violations(bad)) == 4
    ok = tmp_path / "cli.py"
    ok.write_text("from math import gcd\n\ndef render_svg():\n    return float(1) + 0.5\n")
    assert _violations(ok) == []


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.name)
def test_no_hand_rolled_cache(path):
    assert _module_containers(path) == []


def test_scan_catches_module_containers(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("A = {}\nB: dict = {}\nC = []\nD = dict()\nE = set()\n"
                   "F = {1: 2}\nG = [1]\nH = dict(a=1)\n\ndef f():\n    x = {}\n")
    assert [v.split()[1] for v in _module_containers(bad)] == ["A", "B:", "C", "D", "E"]


def test_integer_core():
    seen, found = _core_calls(PACKAGE / "exactmath.py")
    assert seen == set(INTEGER_CORE)
    assert found == []


def test_scan_catches_core_conversions(tmp_path):
    bad = tmp_path / "exactmath.py"
    bad.write_text(
        "import fractions\n\n"
        "def row_reduce(rows, order):\n    return Fraction(1)\n\n"
        "def _simplex_le(rows):\n    return _int_row(rows), Fraction(0)\n\n"
        "class _Substitution:\n    def program(self):\n        return fractions.Fraction(2)\n\n"
        "    def lift(self):\n        return Fraction(3)\n"
    )
    seen, found = _core_calls(bad)
    assert seen == {"row_reduce", "_simplex_le", "_Substitution.program"}
    assert [v.split(" ", 1)[1] for v in found] == [
        "row_reduce calls Fraction",
        "_simplex_le calls _int_row",
        "_Substitution.program calls Fraction",
    ]


def test_no_unused_imports():
    assert [v for path in MODULES + TEST_MODULES for v in _unused_imports(path)] == []


def test_scan_catches_unused_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport json as j\nfrom math import gcd, lcm\nfrom typing import Any\n\n"
        "def f(x: Any):\n    return os.path.join(x), gcd(2, 4)\n"
    )
    assert [v.split()[1] for v in _unused_imports(bad)] == ["j", "lcm"]
