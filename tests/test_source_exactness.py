"""No floating-point intermediates anywhere in the package source.

Every coefficient and exponent is an exact integer, so a true division,
a float literal or a ``float(...)`` call in ``src/thetaq`` is a defect
waiting for an argument past 2^53.
"""

import ast
from pathlib import Path

import pytest

import thetaq

SOURCES = sorted(Path(thetaq.__file__).parent.glob("*.py"))


def float_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"series.py", "theta.py", "identity.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_intermediates(path):
    sites = list(float_sites(ast.parse(path.read_text(), filename=str(path))))
    assert sites == [], [f"{path.name}:{line}: {what}" for line, what in sites]


@pytest.mark.parametrize("snippet", [
    "x = a / b", "x /= 2", "x = 0.5", "x = float(n)", "f(1e3)",
])
def test_each_float_form_is_caught(snippet):
    assert list(float_sites(ast.parse(snippet)))


def test_integer_forms_pass():
    assert not list(float_sites(ast.parse("x = a // b; x //= 2; y = 10**20; z = int(w)")))
