"""Static guard for the exactness claim: no floating point in the package.

Every module under src/orbitope is scanned for float literals, any use of
the name `float`, and `math` imports other than `gcd`.  The one allowed
exception is `cli.render_svg`, whose SVG pixel coordinates are floats.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbitope"
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


MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert _violations(path) == []


def test_scan_catches_floats(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float(1)\n")
    assert len(_violations(bad)) == 4
    ok = tmp_path / "cli.py"
    ok.write_text("from math import gcd\n\ndef render_svg():\n    return float(1) + 0.5\n")
    assert _violations(ok) == []
