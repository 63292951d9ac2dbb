"""Count-table traffic of the relation catalog, per sum signature.

    python3 tools/table_traffic.py --nmax N

Verifies every relation of the embedded catalog through N = n_max with
``verify_relation``, in catalog order, starting from an empty
``TABLE_CACHE``.  For each signature it prints the table requests, the
builds (a first request), the rebuilds (a request past the table, which
builds the whole table again at the new limit), the cells those builds
and rebuilds computed, and the cells the relations read off the table;
the totals come last.
The package is imported from the ``src`` directory beside this one.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from thetaq import load_relation_catalog, repcount, verify_relation  # noqa: E402

COLUMNS = ("requests", "builds", "rebuilds", "cells_built", "cells_read")


def cells_read(ref, m: int, r: int, n_max: int) -> int:
    """How many N = r mod m in [0, n_max] give ref a nonnegative argument."""
    lo = max(r, -(ref.beta // ref.alpha))  # the least N with alpha*N + beta >= 0
    lo += (r - lo) % m
    return max(0, (n_max - lo) // m + 1)


def traffic(relations, n_max: int) -> dict[str, dict[str, int]]:
    """{signature: {column: count}} over verifying ``relations`` in order."""
    rows = defaultdict(lambda: dict.fromkeys(COLUMNS, 0))
    labels = {}
    build, get = repcount._count_columns, repcount.TABLE_CACHE.get

    def counted_build(spec, limit, *rest):
        row = rows[labels[spec.terms]]
        row["rebuilds" if spec.terms in repcount.TABLE_CACHE._tables else "builds"] += 1
        cols = build(spec, limit, *rest)
        row["cells_built"] += cols.size
        return cols

    def counted_get(spec, limit):
        rows[labels[spec.terms]]["requests"] += 1
        return get(spec, limit)

    repcount._count_columns, repcount.TABLE_CACHE.get = counted_build, counted_get
    repcount.TABLE_CACHE._tables = {}
    try:
        for rel in relations:
            m, r = rel.residue_class or (1, 0)
            for ref in (rel.lhs, *rel.rhs):
                label = labels.setdefault(
                    ref.spec.terms, f"{ref.form}({','.join(map(str, ref.coeffs))})")
                rows[label]["cells_read"] += cells_read(ref, m, r, n_max)
            verify_relation(rel, n_max)
    finally:
        repcount._count_columns = build
        del repcount.TABLE_CACHE.get  # back to the class's method
    return dict(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nmax", type=int, required=True)
    args = parser.parse_args(argv)
    if args.nmax < 0:
        parser.error("--nmax must be nonnegative")
    rows = traffic(load_relation_catalog(), args.nmax)
    width = max(len("signature"), *map(len, rows))
    print(f"{'signature':<{width}}", *(f"{c:>11}" for c in COLUMNS))
    for label, row in rows.items():
        print(f"{label:<{width}}", *(f"{row[c]:>11}" for c in COLUMNS))
    totals = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    print(f"{'total':<{width}}", *(f"{totals[c]:>11}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
