"""Every pinned command still prints its pinned records.

The commands and the files under ``tests/data/`` come from
``tools/pin_payloads.py``, which rewrites the files; each command runs
through ``thetaq.cli.main`` in this process.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import pin_payloads  # noqa: E402


@pytest.mark.parametrize("pin", sorted(pin_payloads.PINS))
def test_records_match_the_pinned_file(pin):
    want = (pin_payloads.DATA / f"{pin}.jsonl").read_text().splitlines()
    got = pin_payloads.records(pin_payloads.PINS[pin])
    for i, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, f"{pin}.jsonl record {i} differs:\n  pinned {w}\n  now    {g}"
    assert len(got) == len(want), f"{pin}: {len(got)} records, {len(want)} pinned"


def test_every_pinned_file_has_a_pin():
    files = {p.stem for p in pin_payloads.DATA.glob("*.jsonl")}
    assert files == set(pin_payloads.PINS)
