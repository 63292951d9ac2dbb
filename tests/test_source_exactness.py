"""No floating-point intermediates and no wrapping magnitudes anywhere
in the package source.

Every coefficient and exponent is an exact integer, so a true division,
a float literal or a ``float(...)`` call in ``src/thetaq`` is a defect
waiting for an argument past 2^53.  ``np.abs`` maps -2^63 to itself, so
every int64 magnitude goes through ``series._max_abs``, the one place
that reads it exactly.  Series arithmetic proves its 64-bit bounds or
raises, and so do the theta term exponents, so no object
(Python-integer) array appears anywhere.  ``np.bincount`` with weights
returns float64, so no count is weighted: a weighted sum over pairs of
exponents goes through ``np.add.at`` in the one pair kernel,
``series.scatter_pairs``, and the only other ``np.add.at`` fills
``repcount._membership``'s one-byte table.
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


def abs_sites(tree, allowed_in=None):
    """``np.abs``/``np.absolute`` references outside the def ``allowed_in``."""
    exempt = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == allowed_in
              for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("abs", "absolute")
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                and id(node) not in exempt):
            yield node.lineno, f"{node.value.id}.{node.attr}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_wrapping_magnitudes(path):
    allowed_in = "_max_abs" if path.name == "series.py" else None
    sites = list(abs_sites(ast.parse(path.read_text(), filename=str(path)), allowed_in))
    assert sites == [], [f"{path.name}:{line}: {what}" for line, what in sites]


@pytest.mark.parametrize("snippet", [
    "top = int(np.abs(a).max())", "m = numpy.absolute(x)", "f = np.abs",
    "def _max_abs(a):\n    pass\nb = np.abs(c)",
])
def test_each_abs_form_is_caught(snippet):
    assert list(abs_sites(ast.parse(snippet), "_max_abs"))


def test_exact_magnitudes_pass():
    assert not list(abs_sites(ast.parse(
        "def _max_abs(a):\n    return int(np.abs(a).view(np.uint64).max())\n"
        "x = abs(c); y = sum(map(abs, v))"
    ), "_max_abs"))


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


def names_object(node):
    return ((isinstance(node, ast.Name) and node.id == "object")
            or (isinstance(node, ast.Attribute) and node.attr == "object_")
            or (isinstance(node, ast.Constant) and node.value in ("O", "object")))


def object_dtype_sites(tree):
    """Object dtypes, in a ``dtype=`` keyword or an ``astype`` argument."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            dtypes += node.args[:1]
        if any(names_object(sub) for d in dtypes for sub in ast.walk(d)):
            yield node.lineno, "object dtype"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_object_arrays(path):
    sites = list(object_dtype_sites(ast.parse(path.read_text(), filename=str(path))))
    assert sites == [], [f"{path.name}:{line}: {what}" for line, what in sites]


@pytest.mark.parametrize("snippet", [
    "a = np.arange(3, dtype=object)", "a = np.zeros(3, dtype='O')",
    "a = np.arange(n, dtype=object if big else np.int64)", "b = a.astype(np.object_)",
])
def test_each_object_dtype_form_is_caught(snippet):
    assert list(object_dtype_sites(ast.parse(snippet)))


def test_int64_dtypes_pass():
    assert not list(object_dtype_sites(ast.parse(
        "a = np.zeros(3, dtype=np.int64); b = a.astype(np.uint8); c = isinstance(a, object)"
    )))


def weighted_bincount_sites(tree):
    """``bincount`` calls given weights, by keyword or as a second argument."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "bincount" and (len(node.args) > 1
                                   or any(k.arg == "weights" for k in node.keywords)):
            yield node.lineno, "weighted bincount"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_weighted_bincount(path):
    sites = list(weighted_bincount_sites(ast.parse(path.read_text(), filename=str(path))))
    assert sites == [], [f"{path.name}:{line}: {what}" for line, what in sites]


@pytest.mark.parametrize("snippet", [
    "c = np.bincount(i, weights=w)", "c = numpy.bincount(i, w)",
    "c = bincount(i, weights=w, minlength=n)", "c = np.bincount(i, None, n)",
])
def test_each_weighted_bincount_form_is_caught(snippet):
    assert list(weighted_bincount_sites(ast.parse(snippet)))


def test_unweighted_bincount_passes():
    assert not list(weighted_bincount_sites(ast.parse(
        "c = np.bincount(i); d = np.bincount(i, minlength=n); e = counts(i, w)"
    )))


# the one function per file that may call np.add.at
ADD_AT_HOMES = {"series.py": "scatter_pairs", "repcount.py": "_membership"}


def add_at_sites(tree, allowed_in=None):
    """``np.add.at`` (or ``add.at``) references outside the def ``allowed_in``."""
    exempt = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == allowed_in
              for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "at"
                and id(node) not in exempt):
            continue
        owner = node.value
        if ((isinstance(owner, ast.Name) and owner.id == "add")
                or (isinstance(owner, ast.Attribute) and owner.attr == "add"
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id in ("np", "numpy"))):
            yield node.lineno, "add.at"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_pair_kernel(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = list(add_at_sites(tree, ADD_AT_HOMES.get(path.name)))
    assert sites == [], [f"{path.name}:{line}: {what}" for line, what in sites]


def test_each_home_calls_add_at():
    for name in ADD_AT_HOMES:
        path = next(p for p in SOURCES if p.name == name)
        assert list(add_at_sites(ast.parse(path.read_text()))), name


@pytest.mark.parametrize("snippet", [
    "np.add.at(out, i, w)", "numpy.add.at(out, i, w)", "f = np.add.at",
    "from numpy import add\nadd.at(out, i, w)",
    "def scatter_pairs(o, i, w):\n    pass\nnp.add.at(out, i, w)",
])
def test_each_add_at_form_is_caught(snippet):
    assert list(add_at_sites(ast.parse(snippet), "scatter_pairs"))


def test_add_at_in_its_home_passes():
    assert not list(add_at_sites(ast.parse(
        "def scatter_pairs(out, i, w):\n    np.add.at(out, i, w)\n"
        "x = np.add(a, b); y = table.at; z = np.multiply.at"
    ), "scatter_pairs"))
