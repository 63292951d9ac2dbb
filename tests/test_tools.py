"""Smoke tests of the scripts under tools/."""

import subprocess
import sys
from pathlib import Path

from thetaq import load_relation_catalog

ROOT = Path(__file__).resolve().parents[1]


def test_table_traffic_reports_every_signature_then_totals():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "table_traffic.py"), "--nmax", "200"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    header, *lines = run.stdout.splitlines()
    assert header.split() == ["signature", "requests", "builds", "rebuilds",
                              "cells_built", "cells_read"]
    *rows, total = [line.split() for line in lines]
    assert total[0] == "total"
    columns = [[int(x) for x in row[1:]] for row in rows]
    assert [int(x) for x in total[1:]] == [sum(col) for col in zip(*columns)]

    catalog = load_relation_catalog()
    sides = [ref for rel in catalog for ref in (rel.lhs, *rel.rhs)]
    assert len(rows) == len({ref.spec.terms for ref in sides})
    requests, builds, rebuilds = map(int, total[1:4])
    assert requests == len(sides) and builds == len(rows)
    # one bound per signature, alpha and beta // alpha
    assert builds + rebuilds <= len({(ref.spec.terms, ref.alpha, ref.beta // ref.alpha)
                                  for ref in sides})
