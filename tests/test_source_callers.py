"""Every name the package defines has a caller outside its own tests.

A caller is the package source other than ``__init__.py`` (whose
re-exports call nothing), the benchmark harness, the tools and the
acceptance tests.  In the package, string literals do not count; in
the harness they do, because it binds its spans by dotted name
(``"HalfPowerSeries.dissect"``).
"""

import ast
import re
from pathlib import Path

import pytest

import thetaq

PACKAGE = Path(thetaq.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(PACKAGE.glob("*.py"))
OUTSIDE = [
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def defined(tree: ast.Module):
    """Top-level defs and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name


def used(tree: ast.Module, strings: bool) -> set[str]:
    """Every name, attribute and imported name in ``tree``; with ``strings``,
    every identifier-like word of a string literal too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_callers_found():
    assert {p.name for p in SOURCES} >= {"series.py", "theta.py", "relations.py"}
    assert all(p.is_file() for p in OUTSIDE)
    # tools/ may be empty; a script put there later counts as a caller
    assert {p.parent.name for p in OUTSIDE} >= {"perfbench", "tests"}


def test_every_definition_has_a_caller():
    callers = set()
    for path in SOURCES:
        if path.name != "__init__.py":
            callers |= used(_parse(path), strings=False)
    for path in OUTSIDE:
        callers |= used(_parse(path), strings=True)
    unused = sorted(
        f"{path.name}: {name}"
        for path in SOURCES
        for name in defined(_parse(path))
        if name not in callers
    )
    assert unused == [], unused


@pytest.mark.parametrize("snippet,strings,name", [
    ("x.monomial(1)", False, "monomial"),
    ("from .theta import f_delta", False, "f_delta"),
    ("f(valuation)", False, "valuation"),
    ("T = ('HalfPowerSeries.dissect',)", True, "dissect"),
])
def test_each_use_is_seen(snippet, strings, name):
    assert name in used(ast.parse(snippet), strings)


def test_string_literals_count_only_outside_the_package():
    assert "dissect" not in used(ast.parse("T = 'HalfPowerSeries.dissect'"), False)


def test_definitions_exclude_dunders_and_nested_defs():
    tree = ast.parse(
        "class A:\n    def __init__(self): pass\n    def m(self):\n"
        "        def inner(): pass\ndef f(): pass\nX = 1\n"
    )
    assert list(defined(tree)) == ["A", "m", "f"]
