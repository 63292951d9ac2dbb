"""Truncated formal power series with exponents on the half-integer grid.

Every exponent in this package is measured in *half-units*: an exponent of
``e`` half-units stands for ``q^(e/2)``.  Working on the half grid removes
all parity case analysis from the theta-product formulas, whose exponents
are integer combinations divided by two.

A :class:`HalfPowerSeries` is exact between ``lo`` and ``hi`` (inclusive,
both in half-units): coefficients below ``lo`` are zero by contract, those
above ``hi`` are unknown.  Coefficients are exact signed integers limited
to 64-bit width; arithmetic that would exceed that width raises
:class:`CoefficientOverflowError` instead of wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

# Widest coefficient magnitude the series carries.  Results are checked
# against this limit; a violation is an error, never a wrapped value.
COEFF_LIMIT = 2**63 - 1
_SAFE_ADD = 2**62 - 1  # adding two values below this cannot wrap int64


class CoefficientOverflowError(OverflowError):
    """A coefficient exceeded the 64-bit width limit."""


class TruncationError(ValueError):
    """A coefficient beyond a series' validity bound was requested."""


def _as_int64(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    return arr


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
        arr = _as_int64(coeffs)
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
    def monomial(c: int, e: int, hi: int) -> "HalfPowerSeries":
        """Series with coefficient ``c`` at exponent ``e``, zero through ``hi``."""
        if e > hi:
            raise TruncationError(f"monomial exponent {e} exceeds bound {hi}")
        if abs(c) > COEFF_LIMIT:
            raise CoefficientOverflowError(f"coefficient {c} exceeds 64-bit width")
        lo = min(e, 0)
        arr = np.zeros(hi - lo + 1, dtype=np.int64)
        arr[e - lo] = c
        return HalfPowerSeries(lo, hi, arr)

    @staticmethod
    def zero(hi: int, lo: int = 0) -> "HalfPowerSeries":
        lo = min(lo, hi)
        return HalfPowerSeries(lo, hi, np.zeros(hi - lo + 1, dtype=np.int64))

    @staticmethod
    def from_items(items, hi: int) -> "HalfPowerSeries":
        """Build from (exponent, coefficient) pairs; exponents above hi dropped."""
        pairs = [(e, c) for e, c in items if e <= hi]
        lo = min((e for e, _ in pairs), default=0)
        lo = min(lo, 0, hi)
        arr = np.zeros(hi - lo + 1, dtype=np.int64)
        for e, c in pairs:
            arr[e - lo] += c
        return HalfPowerSeries(lo, hi, arr)

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

    def valuation(self) -> int:
        """Least exponent with a nonzero coefficient; ``hi`` for the zero series."""
        nz = np.flatnonzero(self.coeffs)
        if nz.size == 0:
            return self.hi
        return self.lo + int(nz[0])

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
        hi = min(self.hi, other.hi)
        lo = min(self.lo, other.lo)
        a = self._window(lo, hi)
        b = other._window(lo, hi)
        if _max_abs(a) <= _SAFE_ADD and _max_abs(b) <= _SAFE_ADD:
            return HalfPowerSeries(lo, hi, a + b)
        out = [int(x) + int(y) for x, y in zip(a.tolist(), b.tolist())]
        _check_width(out)
        return HalfPowerSeries(lo, hi, out)

    def __sub__(self, other: "HalfPowerSeries") -> "HalfPowerSeries":
        return self + (-other)

    def __neg__(self) -> "HalfPowerSeries":
        return HalfPowerSeries(self.lo, self.hi, -self.coeffs)

    def scale(self, c: int) -> "HalfPowerSeries":
        """Multiply every coefficient by the integer ``c``."""
        if c == 0:
            return HalfPowerSeries.zero(self.hi, self.lo)
        if abs(c) * _max_abs(self.coeffs) <= COEFF_LIMIT:
            return HalfPowerSeries(self.lo, self.hi, self.coeffs * np.int64(c))
        out = [int(x) * c for x in self.coeffs.tolist()]
        _check_width(out)
        return HalfPowerSeries(self.lo, self.hi, out)

    def shift(self, d: int) -> "HalfPowerSeries":
        """Multiply by q^(d/2): every exponent moves up by ``d`` half-units."""
        return HalfPowerSeries(self.lo + d, self.hi + d, self.coeffs)

    def __mul__(self, other: "HalfPowerSeries") -> "HalfPowerSeries":
        if not isinstance(other, HalfPowerSeries):
            return NotImplemented
        # Validity propagates through valuations: terms of one factor above
        # its bound pair with the other factor's valuation at least.
        v1, v2 = self.valuation(), other.valuation()
        hi = min(self.hi + v2, other.hi + v1)
        lo = self.lo + other.lo
        width = hi - lo + 1
        # Output column k only sees factor columns 0..k, so both factors
        # are cut to the output width before the route is chosen.
        a, b = self.coeffs[:width], other.coeffs[:width]
        nz_a, nz_b = np.flatnonzero(a), np.flatnonzero(b)
        if nz_a.size == 0 or nz_b.size == 0:
            return HalfPowerSeries.zero(hi, min(lo, hi))
        out = _sparse_convolve(a, nz_a, b, nz_b, width)
        if out is None:
            out = _dense_convolve(a, b, width)
        return HalfPowerSeries(lo, hi, out)

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
        lo = min(self.lo, other.lo)
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


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    return int(np.abs(arr).max())


def _check_width(values) -> None:
    for v in values:
        if abs(v) > COEFF_LIMIT:
            raise CoefficientOverflowError(
                f"coefficient {v} exceeds 64-bit width"
            )


# Costs of the sparse routes in units of one np.convolve multiply-add,
# measured with numpy 2.4 on x86-64: setting up a sparse route costs about
# ten thousand multiply-adds, one shifted slice add carries about two
# thousand of call overhead, and one pairwise product scattered by
# np.add.at costs about twenty.
_SPARSE_SETUP = 10_000
_SHIFT_OVERHEAD = 2000
_PAIR_COST = 20
_PAIR_BLOCK = 1 << 16  # pairwise products scattered per np.add.at call


def _sparse_convolve(a, nz_a, b, nz_b, width: int) -> Optional[np.ndarray]:
    """First ``width`` columns of a * b from the nonzeros of the sparser factor.

    Returns ``None`` when the dense route is cheaper, or when the sparse
    route's coefficient bound, sum|sparse| * max|other|, is not proven to
    fit in 64 bits; the caller then runs the dense route.
    """
    shifts = nz_a.size * (b.size + _SHIFT_OVERHEAD)
    if shifts > nz_b.size * (a.size + _SHIFT_OVERHEAD):
        a, nz_a, b, nz_b = b, nz_b, a, nz_a  # iterate over the sparser factor
        shifts = nz_a.size * (b.size + _SHIFT_OVERHEAD)
    pairs = _PAIR_COST * nz_a.size * nz_b.size
    if _SPARSE_SETUP + min(pairs, shifts) >= a.size * b.size:
        return None
    vals = a[nz_a]
    if sum(map(abs, vals.tolist())) * _max_abs(b) > COEFF_LIMIT:
        return None
    out = np.zeros(width, dtype=np.int64)
    if pairs <= shifts:
        other = b[nz_b]
        step = max(1, _PAIR_BLOCK // nz_b.size)  # bounds the scratch arrays
        for i in range(0, nz_a.size, step):
            cols = (nz_a[i : i + step, None] + nz_b).ravel()
            prods = (vals[i : i + step, None] * other).ravel()
            keep = cols < width
            np.add.at(out, cols[keep], prods[keep])
        return out
    for s, c in zip(nz_a.tolist(), vals.tolist()):
        seg = b[: width - s]  # shorter than width - s when b ends early
        out[s : s + seg.size] += c * seg
    return out


def _dense_convolve(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """First ``width`` columns of a * b, in int64 when the dense bound allows."""
    if _max_abs(a) * _max_abs(b) * min(a.size, b.size) <= COEFF_LIMIT:
        return np.convolve(a, b)[:width]
    out = _exact_convolve(a.tolist(), b.tolist())[:width]
    _check_width(out)
    return np.array(out, dtype=np.int64)


def _exact_convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out
