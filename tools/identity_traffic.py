"""Expansion traffic of one pass over the identity catalog, per kind.

    python3 tools/identity_traffic.py --order N

Verifies every identity of the embedded catalog through 2N half-units
(``thetaq verify all --order N``), in catalog order.  For each kind
(thm1, thm2, corollary) and in total it prints the entries, the pair
scatters the identity layer makes, the one-theta expansions
(``theta_expand``) it makes, the pair-kernel calls those scatters and
expansions make, the pair sets they hand over, the pairs those sets form
and the pairs they keep (at or below their cut), the term-exponent calls
and the requests in them, and the series products.  Products that
``convolve`` scatters pairwise are counted as products, not as
pair-kernel calls.
The package is imported from the ``src`` directory beside this one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from thetaq import identity, load_identity_catalog, theta  # noqa: E402
from thetaq.series import HalfPowerSeries  # noqa: E402

KINDS = ("thm1", "thm2", "corollary")
COLUMNS = ("entries", "scatters", "expansions", "kernel_calls", "pair_sets",
           "pairs_formed", "pairs_kept", "exp_calls", "exp_requests", "products")


def traffic(entries, order: int) -> dict[str, dict[str, int]]:
    """{kind: {column: count}} over verifying ``entries`` in order."""
    rows = {kind: dict.fromkeys(COLUMNS, 0) for kind in KINDS}
    row = {}
    scatter, kernel, exponents = identity._pair_scatter, theta.scatter_pairs, theta.term_exponents
    expand, mul = identity.theta_expand, HalfPowerSeries.__mul__

    def counted_scatter(rows):
        row["scatters"] += 1
        return scatter(rows)

    def counted_expand(arg, hi):
        row["expansions"] += 1
        return expand(arg, hi)

    def counted_kernel(out, e1, w1, e2, w2, sets):
        row["kernel_calls"] += 1
        for base, cut, i0, i1, j0, j1 in sets:
            sums = np.add.outer(e1[i0:i1], e2[j0:j1])
            row["pair_sets"] += 1
            row["pairs_formed"] += sums.size
            row["pairs_kept"] += int(np.count_nonzero(sums <= cut))
        return kernel(out, e1, w1, e2, w2, sets)

    def counted_exponents(requests):
        requests = list(requests)
        row["exp_calls"] += 1
        row["exp_requests"] += len(requests)
        return exponents(requests)

    def counted_mul(a, b):
        row["products"] += 1
        return mul(a, b)

    identity._pair_scatter, theta.scatter_pairs = counted_scatter, counted_kernel
    identity.theta_expand = counted_expand
    theta.term_exponents, HalfPowerSeries.__mul__ = counted_exponents, counted_mul
    try:
        for entry in entries:
            row = rows[entry.kind]
            row["entries"] += 1
            if not entry.verify(2 * order).ok:
                raise SystemExit(f"identity {entry.id} does not verify through order {order}")
    finally:
        identity._pair_scatter, theta.scatter_pairs = scatter, kernel
        identity.theta_expand = expand
        theta.term_exponents, HalfPowerSeries.__mul__ = exponents, mul
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--order", type=int, required=True)
    args = parser.parse_args(argv)
    if args.order < 0:
        parser.error("--order must be nonnegative")
    rows = traffic(load_identity_catalog(), args.order)
    width = max(len("kind"), *map(len, rows))
    print(f"{'kind':<{width}}", *(f"{c:>13}" for c in COLUMNS))
    for kind, row in rows.items():
        print(f"{kind:<{width}}", *(f"{row[c]:>13}" for c in COLUMNS))
    totals = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    print(f"{'total':<{width}}", *(f"{totals[c]:>13}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
