"""The embedded catalogs are exactly what tools/build_catalogs.py builds."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "thetaq" / "data"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "build_catalogs", ROOT / "tools" / "build_catalogs.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("builder,name", [
    ("build_relations", "relations.json"),
    ("build_identities", "identities.json"),
])
def test_catalog_matches_its_builder(builder, name):
    # builds in memory only; the tool's main() is what writes the files
    built = getattr(_load_tool(), builder)()
    assert json.dumps(built, indent=1) + "\n" == (DATA / name).read_text()
