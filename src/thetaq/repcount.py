"""Representation counts for weighted ternary sums of figurate numbers.

A :class:`MixedSumSpec` fixes an ordered triple of (coefficient, kind)
slots.  There are two routes to its counts, independent enough to check
one another: ``count_enumerate`` counts ordered index tuples representing
N one query at a time, and the generating series, the product of the
three kinds' theta expansions, gives every count through a bound at
once.  ``count_series`` returns that product as a series and
``count_table`` reads the count vector off it.  ``TABLE_CACHE`` keeps one
table per signature and grows it in place: a request past a table adds
only the new columns, each the sum of the sparsest factor's shifted
copies of the other two factors' product.  ``count_enumerate`` reads
its value lists as prefixes of one grow-only entry per figurate kind.

Index domains follow the classical conventions: squares, generalized
pentagonal and generalized octagonal indices run over all integers,
triangular indices over the nonnegative integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .series import HalfPowerSeries, shifted_copies
from .theta import ThetaArg, theta_expand, theta_special


class FigurateKind(enum.Enum):
    SQUARE = "square"
    TRIANGULAR = "triangular"
    GEN_PENTAGONAL = "gen_pentagonal"
    GEN_OCTAGONAL = "gen_octagonal"

    @property
    def generating_special(self) -> str:
        return _GENERATING[self]


_GENERATING = {
    FigurateKind.SQUARE: "phi",
    FigurateKind.TRIANGULAR: "psi",
    FigurateKind.GEN_PENTAGONAL: "X",
    FigurateKind.GEN_OCTAGONAL: "Y",
}


def figurate_value(kind: FigurateKind, n: int) -> int:
    if kind is FigurateKind.SQUARE:
        return n * n
    if kind is FigurateKind.TRIANGULAR:
        return n * (n + 1) // 2
    if kind is FigurateKind.GEN_PENTAGONAL:
        return n * (3 * n + 1) // 2
    return n * (3 * n + 2)


def figurate_values(kind: FigurateKind, limit: int) -> list[tuple[int, int]]:
    """All (index, value) pairs with value <= limit, ascending by value.

    Generalized kinds include both signs of the index; triangular
    indices stay nonnegative.
    """
    if limit < 0:
        return []
    pairs = []
    n = 0
    while True:
        if kind is FigurateKind.TRIANGULAR or n == 0:
            candidates = [n]
        else:
            candidates = [-n, n]
        vals = [(m, figurate_value(kind, m)) for m in candidates]
        pairs.extend((m, v) for m, v in vals if v <= limit)
        # per-sign values grow monotonically, so one all-over step ends it
        if n > 0 and all(v > limit for _, v in vals):
            break
        n += 1
    pairs.sort(key=lambda p: (p[1], p[0]))
    return pairs


# One grow-only entry per kind: (limit, values, multiplicities) and the
# membership table; a query at a smaller limit reads prefixes of them.
_VALUES: dict[FigurateKind, tuple[int, np.ndarray, np.ndarray]] = {}
_MEMBERSHIP: dict[FigurateKind, np.ndarray] = {}


def _value_multiplicities(kind: FigurateKind, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, multiplicities): attainable values <= limit with index counts."""
    entry = _VALUES.get(kind)
    if entry is None or entry[0] < limit:
        values, counts = np.unique(
            np.array([v for _, v in figurate_values(kind, limit)], dtype=np.int64),
            return_counts=True,
        )
        entry = _VALUES[kind] = (limit, values, counts.astype(np.int64))
    _, values, counts = entry
    end = int(np.searchsorted(values, limit, side="right"))
    return values[:end], counts[:end]


def _membership(kind: FigurateKind, limit: int) -> np.ndarray:
    """mult[x] = number of domain indices whose figurate value equals x."""
    table = _MEMBERSHIP.get(kind)
    if table is None or table.size <= limit:
        table = np.zeros(limit + 1, dtype=np.int64)
        values, counts = _value_multiplicities(kind, limit)
        table[values] = counts
        table.setflags(write=False)
        _MEMBERSHIP[kind] = table
    return table[: limit + 1]


@dataclass(frozen=True)
class MixedSumSpec:
    """Ordered triple (a_i, kind_i) describing one count function."""

    terms: tuple[tuple[int, FigurateKind], ...]

    def __post_init__(self) -> None:
        if len(self.terms) != 3:
            raise ValueError("a mixed sum has exactly three slots")
        if any(a < 1 for a, _ in self.terms):
            raise ValueError("coefficients must be positive integers")

    @staticmethod
    def of(name: str, coeffs: tuple[int, int, int]) -> "MixedSumSpec":
        kinds = registry_lookup(name)
        return MixedSumSpec(tuple(zip(coeffs, kinds)))

    @property
    def coeffs(self) -> tuple[int, int, int]:
        return tuple(a for a, _ in self.terms)  # type: ignore[return-value]

    @property
    def kinds(self) -> tuple[FigurateKind, FigurateKind, FigurateKind]:
        return tuple(k for _, k in self.terms)  # type: ignore[return-value]


# the 20 count-function signatures, keyed by their conventional names
_SQ = FigurateKind.SQUARE
_TR = FigurateKind.TRIANGULAR
_PE = FigurateKind.GEN_PENTAGONAL
_OC = FigurateKind.GEN_OCTAGONAL

REGISTRY: dict[str, tuple[FigurateKind, FigurateKind, FigurateKind]] = {
    "r": (_SQ, _SQ, _SQ),
    "T": (_TR, _TR, _TR),
    "P": (_PE, _PE, _PE),
    "G": (_OC, _OC, _OC),
    "Rt": (_SQ, _SQ, _TR),
    "Rp": (_SQ, _SQ, _PE),
    "Rg": (_SQ, _SQ, _OC),
    "Tp": (_TR, _TR, _PE),
    "Tg": (_TR, _TR, _OC),
    "rT": (_SQ, _TR, _TR),
    "rP": (_SQ, _PE, _PE),
    "rG": (_SQ, _OC, _OC),
    "pG": (_PE, _OC, _OC),
    "tP": (_TR, _PE, _PE),
    "tG": (_TR, _OC, _OC),
    "Pg": (_PE, _PE, _OC),
    "rtp": (_SQ, _TR, _PE),
    "rtg": (_SQ, _TR, _OC),
    "rpg": (_SQ, _PE, _OC),
    "tpg": (_TR, _PE, _OC),
}


def registry_lookup(name: str) -> tuple[FigurateKind, FigurateKind, FigurateKind]:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown count function {name!r}") from None


def count_enumerate(spec: MixedSumSpec, n: int) -> int:
    """Number of ordered index tuples with a1*F1 + a2*F2 + a3*F3 = n.

    Loops over the two slots with the fewest attainable values and
    resolves the third through a precomputed multiplicity table.
    """
    if n < 0:
        return 0
    slots = []
    for a, kind in spec.terms:
        values, counts = _value_multiplicities(kind, n // a)
        slots.append((a, kind, values, counts))
    slots_sorted = sorted(range(3), key=lambda idx: slots[idx][2].size)
    i1, i2, i3 = slots_sorted
    a1, _, v1, c1 = slots[i1]
    a2, _, v2, c2 = slots[i2]
    a3, kind3, _, _ = slots[i3]
    table = _membership(kind3, n // a3)
    inner = list(zip(v2.tolist(), c2.tolist()))
    total = 0
    for x, cx in zip(v1.tolist(), c1.tolist()):
        rest = n - a1 * x
        if rest < 0:
            break
        for y, cy in inner:
            rem = rest - a2 * y
            if rem < 0:
                break
            if rem % a3 == 0:
                total += cx * cy * int(table[rem // a3])
    return total


def _count_columns(spec: MixedSumSpec, start: int, limit: int) -> np.ndarray:
    """counts[N] for start <= N <= limit, read off the generating series.

    Every generating theta has only even half-unit exponents, so halving
    its ``ThetaArg`` exponents moves it exactly onto the whole-q grid.  The
    two densest factors are multiplied first, and the sparsest factor's
    shifted copies of their product are added only on the requested
    columns, from any ``start`` (0 included), by ``shifted_copies``;
    popping the factors releases each one once it is multiplied.  Only
    when the copies' coefficient bound is not proven to fit in 64 bits
    does the whole product go through ``HalfPowerSeries.__mul__`` and its
    exact route.
    """
    parts = []
    for a, kind in spec.terms:
        arg = theta_special(kind.generating_special, a)
        parts.append(theta_expand(ThetaArg(arg.eps, arg.a // 2, arg.b // 2), limit))
    parts.sort(key=lambda part: np.count_nonzero(part.coeffs))
    sparsest = parts.pop(0)
    pair = parts.pop() * parts.pop()
    nz = np.flatnonzero(sparsest.coeffs)
    cols = shifted_copies(sparsest.coeffs, nz, pair.coeffs, start, limit + 1)
    if cols is None:
        cols = (pair * sparsest).coeffs[start:]
    return cols


def count_series(spec: MixedSumSpec, order: int) -> HalfPowerSeries:
    """Generating series of the counts, exact through q^order.

    The coefficient at q^N equals ``count_enumerate(spec, N)``; half-integer
    exponents carry exact zeros.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    return HalfPowerSeries(0, order, _count_columns(spec, 0, order)).substitute_power(2)


def count_table(spec: MixedSumSpec, limit: int) -> np.ndarray:
    """counts[N] for all 0 <= N <= limit, read off the generating series,
    as a read-only int64 array."""
    if limit < 0:
        table = np.zeros(0, dtype=np.int64)
    else:
        table = _count_columns(spec, 0, limit)
    table.setflags(write=False)
    return table


class _TableCache:
    """Count tables keyed by the sum signature, grown in place.

    A signature's first request builds its table at exactly the requested
    limit.  A later request past the table computes only the new columns
    and appends them; a request inside it returns the table as it is.  No
    table is larger than the largest limit requested for its signature.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple, np.ndarray] = {}

    def get(self, spec: MixedSumSpec, limit: int) -> np.ndarray:
        key = spec.terms
        table = self._tables.get(key)
        if table is None:
            table = count_table(spec, limit)
        elif table.size <= limit:
            table = np.concatenate((table, _count_columns(spec, table.size, limit)))
            table.setflags(write=False)
        else:
            return table
        self._tables[key] = table
        return table


TABLE_CACHE = _TableCache()


def nonrep_scan(
    spec: MixedSumSpec, modulus: int, residue: int, n_max: int
) -> list[int]:
    """All represented N <= n_max in the residue class; empty confirms
    the non-representability statement up to the bound."""
    if not 0 <= residue < modulus:
        raise ValueError("need 0 <= residue < modulus")
    if n_max < 0:
        return []
    table = TABLE_CACHE.get(spec, n_max)
    hits = np.flatnonzero(table[residue : n_max + 1 : modulus])
    return (residue + modulus * hits).tolist()
