"""Smoke tests of the scripts under tools/."""

import subprocess
import sys
from pathlib import Path

from thetaq import load_identity_catalog, load_relation_catalog
from thetaq.identity import TripleParams, instantiate_corollary, triple_lhs

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


def test_identity_traffic_counts_one_scatter_per_entry():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "identity_traffic.py"), "--order", "150"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    header, *lines = run.stdout.splitlines()
    columns = header.split()
    assert columns == ["kind", "entries", "scatters", "expansions", "kernel_calls",
                       "pair_sets", "pairs_formed", "pairs_kept", "exp_calls",
                       "exp_requests", "products"]
    *rows, total = [line.split() for line in lines]
    assert [row[0] for row in rows] == ["thm1", "thm2", "corollary"] and total[0] == "total"
    counts = [[int(x) for x in row[1:]] for row in rows]
    got = dict(zip(columns[1:], map(int, total[1:])))
    assert list(got.values()) == [sum(col) for col in zip(*counts)]
    entries = load_identity_catalog()
    assert got["entries"] == len(entries) == 148
    # the counts that do not depend on the kernel's block layout: one
    # scatter per entry, one theta expansion per left side of Theorem 1
    # and of cor1-cor4 whose outer factor does not vanish, one
    # term-exponent call for each, every request and every product as in
    # a term-by-term pass
    outer = []
    for e in entries:
        if e.kind == "thm1":
            outer.append(triple_lhs(TripleParams(**e.params)).factors[0])
        elif e.params.get("id", "").startswith("cor"):
            params = dict(e.params)
            (lhs,), _ = instantiate_corollary(params.pop("id"), **params)
            outer.append(lhs.factors[0])
    assert len(outer) == 74
    assert got["scatters"] == 148
    assert got["expansions"] == sum(not f.is_zero_function() for f in outer) == 66
    assert got["exp_calls"] == got["scatters"] + got["expansions"]
    assert got["kernel_calls"] <= got["exp_calls"]
    assert got["exp_requests"] == 2200 and got["products"] == 206
    assert got["pairs_kept"] <= got["pairs_formed"]


def test_pin_payloads_rewrites_the_pinned_files_unchanged(tmp_path):
    # a fresh process, so no cache an earlier test filled can hide a change
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pin_payloads.py"), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    pinned = sorted(p.name for p in (ROOT / "tests" / "data").glob("*.jsonl"))
    assert sorted(p.name for p in tmp_path.iterdir()) == pinned
    assert len(run.stdout.splitlines()) == len(pinned)
    for name in pinned:
        assert (tmp_path / name).read_bytes() == (ROOT / "tests" / "data" / name).read_bytes(), name
