"""Representation counts for weighted ternary sums of figurate numbers.

A :class:`MixedSumSpec` fixes an ordered triple of (coefficient, kind)
slots.  There are two routes to its counts, independent enough to check
one another: ``count_enumerate`` counts ordered index tuples representing
N one query at a time, and the generating series, the product of the
three kinds' theta expansions, gives every count through a bound at
once.  One column builder reads the series: it takes each generating
theta as its bilateral sum's term exponents, splits them by residue
mod M, and computes only the counts at N = R mod M, every N when M = 1.
``count_series`` returns the full product as a series, ``count_table``
returns the counts of one residue class (by default all of them), and
``nonrep_scan`` builds the class it checks and nothing else.
``TABLE_CACHE`` keeps one full table per signature for the relation
and classical checks, each a single build: a request past a table
rebuilds it at the new limit.  The builder returns its counts in the
narrowest integer type their proven bound allows, and the cache stores
them in that type; ``count_table`` widens them to int64.
``count_enumerate`` reads each kind's values and their multiplicities
off a prefix of one grow-only membership table per figurate kind, and
walks the value pairs of its two sparsest slots in numpy blocks of at
most ``_BLOCK_PAIRS`` pairs.  It calls nothing of :mod:`thetaq.series`
or :mod:`thetaq.theta`, and the series route never reads the
membership tables, so neither route can hide the other's fault.

Index domains follow the classical conventions: squares, generalized
pentagonal and generalized octagonal indices run over all integers,
triangular indices over the nonnegative integers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import series
from .series import CoefficientOverflowError, HalfPowerSeries, scatter_pairs, shifted_copies
from .theta import ThetaArg, term_exponents, theta_special


class FigurateKind(enum.Enum):
    SQUARE = "square"
    TRIANGULAR = "triangular"
    GEN_PENTAGONAL = "gen_pentagonal"
    GEN_OCTAGONAL = "gen_octagonal"


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


# One grow-only table per kind; a query at a smaller limit reads a prefix.
_MEMBERSHIP: dict[FigurateKind, np.ndarray] = {}


def _membership(kind: FigurateKind, limit: int) -> np.ndarray:
    """mult[x] = number of domain indices whose figurate value equals x.

    No value has more than two indices (+-n for squares), so one byte
    per value holds every multiplicity.
    """
    table = _MEMBERSHIP.get(kind)
    if table is None or table.size <= limit:
        table = np.zeros(limit + 1, dtype=np.uint8)
        values = np.array([v for _, v in figurate_values(kind, limit)], dtype=np.intp)
        np.add.at(table, values, np.uint8(1))
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


# most (x, y) pairs that count_enumerate forms at once
_BLOCK_PAIRS = 1 << 16


def count_enumerate(spec: MixedSumSpec, n: int) -> int:
    """Number of ordered index tuples with a1*F1 + a2*F2 + a3*F3 = n.

    Enumerates the grid of values (x, y) of the two slots with the
    fewest attainable values and resolves the third through its
    multiplicity table.  The grid is walked in blocks of at most
    ``_BLOCK_PAIRS`` pairs, whole rows of x while a row fits in a block
    and pieces of one row past that, so the memory a query takes beyond
    the membership tables is bounded by the block, not by n.  Each block
    forms rem = n - a1*x - a2*y, keeps the pairs with rem >= 0 and
    rem = 0 mod a3, and adds m1[x]*m2[y]*mult3[rem // a3] in int64.

    Nothing wraps: x <= n // a1 and y <= n // a2, so |rem| <= n, and
    each product of three multiplicities is at most 2*2*2 = 8.  Since
    rem >= -n, rem // a3 >= -(n // a3 + 1), so every gather of mult3 is
    in range; what it reads for a pair that is not kept is set to 0.
    """
    if n < 0:
        return 0
    slots = []
    for a, kind in spec.terms:
        mult = _membership(kind, n // a)
        slots.append((a, mult, mult.nonzero()[0]))
    (a1, m1, v1), (a2, m2, v2), (a3, table, _) = sorted(slots, key=lambda s: s[2].size)
    rest, cost = n - a1 * v1, a2 * v2
    c1, c2 = m1[v1], m2[v2].astype(np.int64)
    rows, cols = max(1, _BLOCK_PAIRS // v2.size), min(v2.size, _BLOCK_PAIRS)
    total = 0
    for i in range(0, v1.size, rows):
        for j in range(0, v2.size, cols):
            q, r = np.divmod(rest[i : i + rows, None] - cost[j : j + cols], a3)
            hits = table[q]
            hits[(r != 0) | (q < 0)] = 0
            total += int(c1[i : i + rows].dot(hits.dot(c2[j : j + cols])))
    return total


def _generating_arg(a: int, kind: FigurateKind) -> ThetaArg:
    """The generating theta of a*F on the whole-q grid.

    Every generating theta has only even half-unit exponents, so halving
    its ``ThetaArg`` exponents moves it exactly onto the whole-q grid.
    """
    arg = theta_special(_GENERATING[kind], a)
    return ThetaArg(arg.eps, arg.a // 2, arg.b // 2)


def _runs(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, multiplicities) of a nonempty ascending array:
    the multiplicities are the run lengths."""
    last = np.empty(exps.size, dtype=bool)  # exps[i] ends a run
    np.not_equal(exps[1:], exps[:-1], out=last[:-1])
    last[-1] = True
    ends = np.flatnonzero(last)
    mult = np.empty_like(ends)
    mult[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=mult[1:])
    return exps[ends], mult


def _split(exps, mult, modulus: int, offset: int) -> dict:
    """{class: (positions, multiplicities)} of the distinct ascending
    exponents ``exps``, whose multiplicities are ``mult``.

    Each exponent e goes to class (e + offset) mod M at position
    (e + offset) // M, so a class's positions stay distinct and
    ascending.  Empty classes are left out.
    """
    if modulus == 1:  # offset is 0
        return {0: (exps, mult)}
    pos, cls = np.divmod(exps + offset, modulus)
    out = {}
    for c in _runs(np.sort(cls))[0].tolist():
        sel = cls == c
        out[c] = pos[sel], mult[sel]
    return out


def _count_columns(
    spec: MixedSumSpec, limit: int, modulus: int = 1, residue: int = 0
) -> np.ndarray:
    """counts[N] for N = residue + modulus*j with 0 <= N <= limit.

    Each generating theta is taken as the exponents of its bilateral
    sum's terms: every generating theta has eps = +1, so a coefficient
    is the number of terms at its exponent, and no pass over a dense
    expansion is needed to find the nonzeros.  Each factor is taken as
    its distinct exponents and their multiplicities, the run lengths of
    its sorted exponents, split by exponent mod M.  Each class c of the
    two densest factors' product that the sparsest factor's terms reach
    is the sum of the class products x_r1 * y_r2 with r1 + r2 = c mod M,
    each scattered straight into the class's pair array by
    :func:`~thetaq.series.scatter_pairs`; a class no pair of classes
    reaches is an exact zero and costs nothing, and a pair array is
    built only for the class that reads it.  The sparsest factor's terms
    then add their shifted copies of class c, by ``shifted_copies``, on
    the class's columns.  At M = 1 this is one product and one set of
    copies: the full table.

    Every partial sum formed here, the class-pair sums, each
    ``shifted_copies`` bound and the counts, is at most the product of
    the three factors' term counts, so one check of that product proves
    every kernel; past 64 bits the table is refused with
    :class:`CoefficientOverflowError` before any column is built.

    A single class part, the whole table at M = 1, comes back in the
    type ``shifted_copies`` proved for it: int16, or, because every
    count is nonnegative, uint16, uint32 or int64.  The
    term-count check proves a sum of several parts only in int64, so
    they are added in int64.
    """
    if limit < residue:
        return np.zeros(0, dtype=series._accumulator(0))
    width = (limit - residue) // modulus + 1
    _, e, stops = term_exponents([(_generating_arg(a, kind), limit) for a, kind in spec.terms])
    exps = [np.sort(e[start:stop]) for start, stop in zip([0, *stops], stops)]
    terms = math.prod(e.size for e in exps)
    if terms > series.COEFF_LIMIT:
        raise CoefficientOverflowError(
            f"counts through N = {limit} are not proven to fit in 64 bits: the "
            f"generating thetas' term counts multiply to {terms}, past the "
            f"bound {series.COEFF_LIMIT}"
        )
    factors = sorted(map(_runs, exps), key=lambda factor: factor[0].size)
    # A sparsest term at e meets the product's class c = residue - e mod M,
    # ceil((e - residue) / M) positions up: offset M - 1 - residue puts it
    # at that position, in class M - 1 - c.
    offsets = (modulus - 1 - residue, 0, 0)
    sparse, left, right = (
        _split(*factor, modulus, off) for factor, off in zip(factors, offsets)
    )

    cols = None
    for c_sparse, (nz, mult) in sparse.items():
        c = modulus - 1 - c_sparse
        pair = None
        for r1, (nz_a, mult_a) in left.items():
            r2 = (c - r1) % modulus
            carry = int(r1 > c)  # r1 + r2 = c + M: one position up
            if r2 not in right or carry >= width:
                continue
            if pair is None:
                pair = np.zeros(width, dtype=np.int64)
            nz_b, mult_b = right[r2]
            scatter_pairs(pair, nz_a, mult_a, nz_b, mult_b,
                          ((carry, width - 1 - carry, 0, nz_a.size, 0, nz_b.size),))
        if pair is None:
            continue
        part = shifted_copies(nz, mult, pair, width)
        # several parts are proven to sum only in int64; += could wrap
        cols = part if cols is None else np.add(cols, part, dtype=np.int64)
    return np.zeros(width, dtype=series._accumulator(0)) if cols is None else cols


def count_series(spec: MixedSumSpec, order: int) -> HalfPowerSeries:
    """Generating series of the counts, exact through q^order.

    The coefficient at q^N equals ``count_enumerate(spec, N)``; half-integer
    exponents carry exact zeros.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    return HalfPowerSeries(0, order, _count_columns(spec, order)).substitute_power(2)


def count_table(
    spec: MixedSumSpec, limit: int, modulus: int = 1, residue: int = 0
) -> np.ndarray:
    """counts[N] for the N = residue + modulus*j with 0 <= N <= limit,
    read off the generating series, as a read-only int64 array (the
    builder's narrow counts widened); by default every N."""
    if not 0 <= residue < modulus:
        raise ValueError("need 0 <= residue < modulus")
    table = _count_columns(spec, limit, modulus, residue).astype(np.int64, copy=False)
    table.setflags(write=False)
    return table


class _TableCache:
    """One count table per sum signature, each a single build.

    A request inside a signature's table returns the table as it is; a
    first request, or one past the table, builds the table at exactly the
    requested limit and replaces the old one, which a refused build
    (:class:`CoefficientOverflowError`) leaves in place.  No table is
    larger than the largest limit requested for its signature.  A rebuild
    recomputes every column, so ``verify_relation`` asks for each side
    through the end of its argument's alpha-block: the sides of a
    signature that share alpha and beta // alpha ask for one limit, and
    only a side with another alpha or block can rebuild a table.

    Each table is stored read-only in the one type its build proved, with
    no int64 copy beside it.  Readers only index and compare it, or widen
    it before any arithmetic.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple, np.ndarray] = {}

    def get(self, spec: MixedSumSpec, limit: int) -> np.ndarray:
        table = self._tables.get(spec.terms)
        if table is None or table.size <= limit:
            table = _count_columns(spec, limit)
            table.setflags(write=False)
            self._tables[spec.terms] = table
        return table


TABLE_CACHE = _TableCache()


def nonrep_scan(
    spec: MixedSumSpec, modulus: int, residue: int, n_max: int
) -> list[int]:
    """All represented N <= n_max in the residue class; empty confirms
    the non-representability statement up to the bound.  Only the
    class's counts are built, and no table is cached."""
    table = count_table(spec, n_max, modulus=modulus, residue=residue)
    return (residue + modulus * np.flatnonzero(table)).tolist()
