"""Truncated formal power series with exponents on the half-integer grid.

Every exponent in this package is measured in *half-units*: an exponent of
``e`` half-units stands for ``q^(e/2)``.  Working on the half grid removes
all parity case analysis from the theta-product formulas, whose exponents
are integer combinations divided by two.

A :class:`HalfPowerSeries` is exact between ``lo`` and ``hi`` (inclusive,
both in half-units): coefficients below ``lo`` are zero by contract, those
above ``hi`` are unknown.  Coefficients are exact signed int64 integers.
Every operation computes one bound on every partial sum it forms; when
that bound fits in 64 bits it runs in int64, and otherwise it raises
:class:`CoefficientOverflowError` before it writes any output.  No
operation wraps, and none falls back to Python integers.  Every sum goes
through one kernel, :func:`sum_series`.  Every product with a series
goes through one kernel, :func:`shifted_copies`: one shifted copy of a
series, scaled by the coefficient, per nonzero of the other factor, in
:meth:`HalfPowerSeries.__mul__` and in the class products of
:mod:`thetaq.repcount`'s count tables.  Every weighted sum over a set of
pairs of term exponents goes through one pair kernel,
:func:`scatter_pairs`: the pair scatter of :mod:`thetaq.theta`, which
adds every product of one or two theta functions an identity check or
``theta_expand`` needs from their term exponents, as many pair sets in
one call, without forming any series; and the pair products of the
count tables' classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

# Widest coefficient magnitude the series carries.  Each operation's bound
# is checked against this limit; past it is an error, never a wrapped value.
COEFF_LIMIT = 2**63 - 1


class CoefficientOverflowError(OverflowError):
    """A coefficient exceeded the 64-bit width limit."""


class TruncationError(ValueError):
    """A coefficient beyond a series' validity bound was requested."""


@dataclass(frozen=True)
class EqualityReport:
    """Outcome of comparing two series through a common bound."""

    equal: bool
    through: int
    mismatch: Optional[tuple[int, int, int]] = None  # (exponent, lhs, rhs)


class HalfPowerSeries:
    """Dense truncated series over the grid (1/2)Z with exact coefficients."""

    __slots__ = ("lo", "hi", "coeffs")

    def __init__(self, lo: int, hi: int, coeffs) -> None:
        if lo > hi:
            raise ValueError(f"lo={lo} must not exceed hi={hi}")
        arr = np.array(coeffs, dtype=np.int64)  # a copy: the caller's stays writable
        if arr.shape != (hi - lo + 1,):
            raise ValueError(
                f"need {hi - lo + 1} coefficients for [{lo}, {hi}], got {arr.shape}"
            )
        self.lo = lo
        self.hi = hi
        self.coeffs = arr
        self.coeffs.setflags(write=False)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zero(hi: int, lo: int = 0) -> "HalfPowerSeries":
        lo = min(lo, hi)
        return HalfPowerSeries(lo, hi, np.zeros(hi - lo + 1, dtype=np.int64))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def coeff(self, e: int) -> int:
        """Exact coefficient at exponent ``e`` (half-units)."""
        if e > self.hi:
            raise TruncationError(f"exponent {e} beyond validity bound {self.hi}")
        if e < self.lo:
            return 0
        return int(self.coeffs[e - self.lo])

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def items(self) -> Iterator[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        for idx in np.flatnonzero(self.coeffs):
            yield self.lo + int(idx), int(self.coeffs[idx])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(f"{c}@{e}" for e, c in list(self.items())[:8])
        return f"HalfPowerSeries(lo={self.lo}, hi={self.hi}, [{terms}...])"

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfPowerSeries):
            return NotImplemented
        if self.hi != other.hi:
            return False
        return self.compare(other, min(self.hi, other.hi)).equal

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: "HalfPowerSeries") -> "HalfPowerSeries":
        if not isinstance(other, HalfPowerSeries):
            return NotImplemented
        return sum_series((self, other), min(self.hi, other.hi))

    def __neg__(self) -> "HalfPowerSeries":
        return self.scale(-1)

    def scale(self, c: int) -> "HalfPowerSeries":
        """Multiply every coefficient by the integer ``c``."""
        top = _max_abs(self.coeffs)
        if c == 0 or top == 0:  # exactly zero, whatever the width of c
            return HalfPowerSeries.zero(self.hi, self.lo)
        if abs(c) * top > COEFF_LIMIT:
            raise CoefficientOverflowError(
                f"scaled bound {abs(c) * top} exceeds the 64-bit width"
            )
        return HalfPowerSeries(self.lo, self.hi, self.coeffs * np.int64(c))

    def shift(self, d: int) -> "HalfPowerSeries":
        """Multiply by q^(d/2): every exponent moves up by ``d`` half-units."""
        return HalfPowerSeries(self.lo + d, self.hi + d, self.coeffs)

    def __mul__(self, other: "HalfPowerSeries") -> "HalfPowerSeries":
        """The product, exact from ``self.lo + other.lo`` through the least
        exponent either factor's unknown tail can reach.

        Both factors are cut to the output width, and the product is
        :func:`shifted_copies` of one factor at the nonzeros of the other,
        the one with fewer of them.  B = sum|a| * max|b|, over the factor
        ``a`` whose nonzeros are iterated, bounds every partial sum; it is
        proven to fit in 64 bits before any column is written, and
        :class:`CoefficientOverflowError` is raised when it does not.
        """
        if not isinstance(other, HalfPowerSeries):
            return NotImplemented
        nz_a, nz_b = np.flatnonzero(self.coeffs), np.flatnonzero(other.coeffs)
        # Validity propagates through valuations: terms of one factor above
        # its bound pair with the other factor's valuation at least.
        v1 = self.lo + int(nz_a[0]) if nz_a.size else self.hi
        v2 = other.lo + int(nz_b[0]) if nz_b.size else other.hi
        hi = min(self.hi + v2, other.hi + v1)
        lo = self.lo + other.lo
        width = hi - lo + 1
        # Output column k only sees factor columns 0..k, so both factors
        # are cut to the output width before the nonzeros are counted.
        a, b = self.coeffs[:width], other.coeffs[:width]
        nz_a = nz_a[: np.searchsorted(nz_a, width)]
        nz_b = nz_b[: np.searchsorted(nz_b, width)]
        if nz_a.size == 0 or nz_b.size == 0:
            return HalfPowerSeries.zero(hi, min(lo, hi))
        if nz_a.size > nz_b.size:
            a, nz_a, b = b, nz_b, a
        out = shifted_copies(nz_a, a[nz_a], b, width)
        return HalfPowerSeries(lo, hi, out.astype(np.int64, copy=False))

    # ------------------------------------------------------------------
    # grid operations
    # ------------------------------------------------------------------

    def substitute_power(self, m: int) -> "HalfPowerSeries":
        """Replace q by q^m: exponents scale by ``m``.

        Between consecutive multiples of ``m`` the result is exactly zero,
        so the bound extends to ``m*hi + (m-1)``.
        """
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        if m == 1:
            return self
        lo = self.lo * m
        hi = self.hi * m + (m - 1)
        arr = np.zeros(hi - lo + 1, dtype=np.int64)
        arr[::m][: self.coeffs.size] = self.coeffs
        return HalfPowerSeries(lo, hi, arr)

    def dissect(self, modulus: int, residue: int, divide: bool = False) -> "HalfPowerSeries":
        """Keep exponents congruent to ``residue`` mod ``modulus``.

        With ``divide`` the kept exponents remap as e -> (e - residue) / modulus.
        """
        if modulus < 1:
            raise ValueError("modulus must be a positive number of half-units")
        if not 0 <= residue < modulus:
            raise ValueError("need 0 <= residue < modulus")
        offset = (residue - self.lo) % modulus
        if not divide:
            arr = np.zeros_like(self.coeffs)
            arr[offset::modulus] = self.coeffs[offset::modulus]
            return HalfPowerSeries(self.lo, self.hi, arr)
        kept = self.coeffs[offset::modulus]
        first = self.lo + offset  # least represented exponent in the class
        lo = (first - residue) // modulus
        hi = (self.hi - residue) // modulus
        if hi < lo:  # no exponent of the class is within the window
            return HalfPowerSeries.zero(hi, hi)
        arr = np.zeros(hi - lo + 1, dtype=np.int64)
        arr[: kept.size] = kept
        return HalfPowerSeries(lo, hi, arr)

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------

    def compare(self, other: "HalfPowerSeries", through: int) -> EqualityReport:
        """Exact coefficient comparison through the given exponent."""
        if through > self.hi or through > other.hi:
            raise TruncationError(
                f"comparison through {through} exceeds validity bounds "
                f"({self.hi}, {other.hi})"
            )
        # through may lie below both lo, where every coefficient is a contract zero
        lo = min(self.lo, other.lo, through)
        a = self._window(lo, through)
        b = other._window(lo, through)
        if np.array_equal(a, b):
            return EqualityReport(True, through)
        idx = int(np.flatnonzero(a != b)[0])
        return EqualityReport(False, through, (lo + idx, int(a[idx]), int(b[idx])))

    def _window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients over [lo, hi] padded with contract zeros below self.lo."""
        out = np.zeros(hi - lo + 1, dtype=np.int64)
        src_lo = max(lo, self.lo)
        src_hi = min(hi, self.hi)
        if src_lo <= src_hi:
            out[src_lo - lo : src_hi - lo + 1] = self.coeffs[
                src_lo - self.lo : src_hi - self.lo + 1
            ]
        return out


def sum_series(parts: Sequence[HalfPowerSeries], hi: int) -> HalfPowerSeries:
    """The sum of ``parts``, exact through ``hi``, from the least ``lo``.

    B = the sum over the parts of their largest magnitude through ``hi``
    bounds every partial sum, so the parts are added in place into one
    int64 buffer once B is proven to fit in 64 bits; otherwise
    :class:`CoefficientOverflowError` is raised before any output is
    written.  A part valid through less than ``hi`` raises
    :class:`TruncationError`.
    """
    for p in parts:
        if p.hi < hi:
            raise TruncationError(f"summand only valid through {p.hi}, needed {hi}")
    lo = min([hi, *(p.lo for p in parts)])
    # every part starts at or above lo; one ending above hi is cut there
    windows = [p.coeffs[: max(hi - p.lo + 1, 0)] for p in parts]
    bound = sum(map(_max_abs, windows))
    if bound > COEFF_LIMIT:
        raise CoefficientOverflowError(f"sum bound {bound} exceeds the 64-bit width")
    out = np.zeros(hi - lo + 1, dtype=np.int64)
    for p, w in zip(parts, windows):
        out[p.lo - lo : p.lo - lo + w.size] += w
    return HalfPowerSeries(lo, hi, out)


def _max_abs(arr: np.ndarray) -> int:
    """Largest |x| over an int64 array, exact: |-2^63| wraps to -2^63 in
    int64, which read as uint64 is 2^63."""
    if arr.size == 0:
        return 0
    return int(np.abs(arr).view(np.uint64).max())


_PAIR_BLOCK = 1 << 16  # pairs scatter_pairs forms at a time
# A pair set of fewer pairs than this shares ragged blocks with the sets
# beside it.  Measured with numpy 2.4 on x86-64, over the pair-kernel
# calls of one identity-catalog pass: a small set's own broadcast costs
# more than its share of a block's fixed index arithmetic, and past this
# size each pair's rank division and four gathers cost more than the
# broadcast (7.05 against 12.48 ms all broadcast at order 400; 53.2
# against 53.3 ms at order 10000, where 4096 pairs took 83 ms).
_RAGGED_PAIRS = 1024
# Output columns the shifted copies fill at a time in int64: a tile is
# 2^18 bytes, and a narrower accumulator fills 8 // itemsize times as many.
_SHIFT_TILE = 1 << 15


def _accumulator(bound: int, unsigned: bool = False) -> type:
    """Narrowest integer type that holds every value up to ``bound`` in
    magnitude: int16 when it can, and otherwise, when ``unsigned`` (no
    value is below 0), uint16 or uint32 before int32 or int64."""
    if bound <= 2**15 - 1:
        return np.int16
    if unsigned:
        if bound <= 2**16 - 1:
            return np.uint16
        if bound <= 2**32 - 1:
            return np.uint32
    elif bound <= 2**31 - 1:
        return np.int32
    return np.int64


def scatter_pairs(out: np.ndarray, e1, w1, e2, w2, sets) -> None:
    """For each pair set (base, cut, i0, i1, j0, j1) of ``sets``, add
    w1[i] * w2[j] to ``out`` at column base + e1[i] + e2[j], for every
    i0 <= i < i1 and j0 <= j < j1 with e1[i] + e2[j] <= cut.

    In a call of several sets, a set of fewer than ``_RAGGED_PAIRS``
    pairs, and at most ``_PAIR_BLOCK``, shares ragged blocks of at most
    ``_PAIR_BLOCK`` pairs with the sets beside it: each pair's indices
    come from its rank within the block.  Every other set, and the one
    set of a one-set call, is formed as outer products, ``_PAIR_BLOCK``
    pairs at a time.  Each block is added by ``np.add.at``, which adds
    repeated columns exactly.  The kernel checks nothing: its callers
    prove that every exponent sum, every column, every product and
    every partial sum fits the type of ``out``, and that no column lies
    outside it.
    """
    share = len(sets) > 1
    blocks = []  # ragged blocks: (per set: base, cut, i0, j0, j1 - j0, first rank), sizes, pairs
    params, sizes, filled = [], [], 0
    for base, cut, i0, i1, j0, j1 in sets:
        pairs = (i1 - i0) * (j1 - j0)
        if pairs == 0:
            continue
        if share and pairs < _RAGGED_PAIRS and pairs <= _PAIR_BLOCK:
            if filled + pairs > _PAIR_BLOCK:
                blocks.append((params, sizes, filled))
                params, sizes, filled = [], [], 0
            params += (base, cut, i0, j0, j1 - j0, filled)
            sizes.append(pairs)
            filled += pairs
            continue
        a, wa, b, wb = e1[i0:i1], w1[i0:i1], e2[j0:j1], w2[j0:j1]
        cols = min(b.size, _PAIR_BLOCK)
        rows = _PAIR_BLOCK // cols
        for j in range(0, b.size, cols):
            for i in range(0, a.size, rows):
                at = (a[i : i + rows, None] + b[j : j + cols]).ravel()
                keep = at <= cut
                prods = (wa[i : i + rows, None] * wb[j : j + cols]).ravel()
                np.add.at(out, at[keep] + base, prods[keep])
    if params:
        blocks.append((params, sizes, filled))
    for params, sizes, filled in blocks:
        base, cut, i0, j0, n2, first = np.repeat(
            np.array(params, dtype=np.int64).reshape(-1, 6).T, sizes, axis=1)
        rank = np.arange(filled, dtype=np.int64) - first
        i = rank // n2
        j = rank - i * n2 + j0
        i += i0
        at = e1[i] + e2[j]
        keep = at <= cut
        at += base
        np.add.at(out, at[keep], (w1[i] * w2[j])[keep])


def shifted_copies(nz_a, vals, b, width: int) -> np.ndarray:
    """First ``width`` columns of a * b, where ``a`` has the nonzero
    coefficients ``vals`` at the ascending positions ``nz_a``: one
    shifted copy of ``b`` per nonzero of ``a``.

    B = sum|a| * max|b| bounds every partial sum, so the copies are added
    in the narrowest type ``_accumulator`` gives for B: int16, or, when
    both operands are nonnegative, uint16 or uint32, or else int32 or
    int64.  The operands' signs are read only when int16 cannot hold B.
    The result is returned in that type; a caller that does arithmetic on it
    past B widens it first.  ``b`` is scaled once per distinct coefficient
    c of ``a``, in that type, since |c| * max|b| <= B.  The columns are
    filled one tile of ``_SHIFT_TILE`` int64 widths at a time, one in-place
    add of a scaled copy per nonzero, so a tile stays in cache while every
    copy lands on it.  Raises :class:`CoefficientOverflowError` when B
    does not fit in 64 bits, before any column is written.
    """
    bound = sum(map(abs, vals.tolist())) * _max_abs(b)
    if bound > COEFF_LIMIT:
        raise CoefficientOverflowError(f"product bound {bound} exceeds the 64-bit width")
    # the operands' sign is read only where int16 cannot hold B
    unsigned = bound > 2**15 - 1 and int(vals.min()) >= 0 and int(b.min()) >= 0
    dtype = _accumulator(bound, unsigned)
    if bound == 0:  # a coefficient beyond the narrow type must not be cast
        return np.zeros(width, dtype=dtype)
    b = b[:width].astype(dtype, copy=False)
    scaled = {c: b * dtype(c) for c in set(vals.tolist())}
    copies = [(s, scaled[c]) for s, c in zip(nz_a.tolist(), vals.tolist())]
    step = _SHIFT_TILE * (8 // b.itemsize)
    out = np.zeros(width, dtype=dtype)
    for lo in range(0, width, step):
        hi = min(lo + step, width)
        for s, copy in copies:
            if s >= hi:
                break
            # b may end before hi - s; past its end both slices are empty
            src_lo, src_hi = max(lo - s, 0), min(hi - s, b.size)
            out[src_lo + s : src_hi + s] += copy[src_lo:src_hi]
    return out
