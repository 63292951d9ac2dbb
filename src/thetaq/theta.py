"""Two-parameter theta functions specialized to signed powers of q.

A :class:`ThetaArg` with sign ``eps`` and half-exponents ``a``, ``b``
denotes the bilateral series

    f(eps*q^(a/2), eps*q^(b/2)) = sum over n in Z of
        eps^n * q^((a*n(n+1)/2 + b*n(n-1)/2) / 2)

which converges formally whenever a + b > 0.  The classical special
cases phi, psi, f(-q), X and Y are fixed specializations whose
expansions generate squares, triangular, signed-pentagonal, generalized
pentagonal and generalized octagonal numbers respectively.

The module provides two independent expansion routes (the bilateral sum
and the Jacobi triple product), a normalization that clears a negative
exponent, and the n-term dissection of a theta function into shifted
theta terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import COEFF_LIMIT, CoefficientOverflowError, HalfPowerSeries, _max_abs


class ExpansionError(ValueError):
    """The requested specialization diverges as a formal series."""


@dataclass(frozen=True)
class ThetaArg:
    """f(eps*q^(a/2), eps*q^(b/2)); symmetric in a and b."""

    eps: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")

    def is_zero_function(self) -> bool:
        """True when one argument is eps*q^0 = -1, which kills the series."""
        return self.eps == -1 and (self.a == 0 or self.b == 0)

    def min_exponent(self) -> int:
        """Least exponent carrying a term of the bilateral sum (always <= 0)."""
        if self.is_zero_function():
            return 0
        s, d = self.a + self.b, self.a - self.b
        if s <= 0:
            raise ExpansionError(f"divergent specialization {self}")
        # the integers either side of the exponent quadratic's vertex -d/(2s)
        n0 = -d // (2 * s)
        return min(0, *(_term_exponent(self.a, self.b, n) for n in (n0, n0 + 1)))


def _term_exponent(a: int, b: int, n):
    """Exponent of the n-th term; ``n`` may be an int or an integer array."""
    return ((a + b) * n + (a - b)) * n // 2


def term_exponents(arg: ThetaArg, hi: int) -> tuple[int, np.ndarray]:
    """``(n_lo, e)``: ``e[i]`` is the exponent of the bilateral sum's term
    ``n = n_lo + i``, over the indices whose exponent is at most ``hi``.

    The exponents are int64, or Python ints where the formula may pass
    64 bits; they fall and then rise with ``n``, and two terms share an
    exponent only when ``a - b`` is a multiple of ``a + b``.
    """
    a, b = arg.a, arg.b
    s, d = a + b, a - b
    if s <= 0:
        raise ExpansionError(f"divergent specialization {arg}")
    # The exponent (s*n^2 + d*n)/2 is at most hi exactly when
    # |2*s*n + d| <= isqrt(d^2 + 8*s*hi).
    disc = d * d + 8 * s * hi
    root = math.isqrt(disc) if disc >= 0 else -1
    n_lo, n_hi = -((root + d) // (2 * s)), (root - d) // (2 * s)
    # Every intermediate of the exponent formula is at most
    # (|a| + |b|) * reach^2 in magnitude; past int64 the same formula
    # runs on Python ints.
    reach = max(-n_lo, n_hi) + 1
    exact = (abs(a) + abs(b)) * reach * reach > COEFF_LIMIT
    n = np.arange(n_lo, n_hi + 1, dtype=object if exact else np.int64)
    return n_lo, _term_exponent(a, b, n)


def theta_expand(arg: ThetaArg, hi: int) -> HalfPowerSeries:
    """Bilateral-sum expansion, exact through ``hi`` half-units."""
    if arg.is_zero_function():
        return HalfPowerSeries.zero(max(hi, 0), min(0, hi))
    n_lo, e = term_exponents(arg, hi)
    eps = arg.eps
    lo = min(int(e.min()) if e.size else 0, 0, hi)
    idx = (e - lo).astype(np.intp, copy=False)
    arr = np.zeros(hi - lo + 1, dtype=np.int64)
    even = n_lo % 2  # position of the first even index
    np.add.at(arr, idx[even::2], 1)
    np.add.at(arr, idx[1 - even :: 2], eps)
    return HalfPowerSeries(lo, hi, arr)


def jacobi_triple_product(arg: ThetaArg, hi: int) -> HalfPowerSeries:
    """Product-form expansion, exact through ``hi`` half-units.

    Multiplies out (1 + eps*q^((a+sn)/2)) (1 + eps*q^((b+sn)/2)) for n >= 0
    and (1 - q^(sn/2)) for n >= 1, s = a + b, dropping factors beyond the
    bound.  Serves as an independent oracle for :func:`theta_expand`.

    One factor at most doubles the largest coefficient magnitude, so the
    running product carries a doubling bound and re-reads its true
    maximum only when twice the bound would pass 64 bits.  A running
    product whose largest magnitude reaches 2^62 before a factor is
    refused with :class:`CoefficientOverflowError`: first at 5772
    half-units for f(1, q), 11896 for phi and 24516 for psi.
    """
    a, b, eps = arg.a, arg.b, arg.eps
    if a < 0 or b < 0 or a + b <= 0:
        raise ExpansionError(
            f"triple product needs nonnegative exponents with a+b > 0, got {arg}"
        )
    if hi < 0:
        return HalfPowerSeries.zero(0, hi)
    s = a + b
    arr = np.zeros(hi + 1, dtype=np.int64)
    arr[0] = 1
    bound = 1  # proven upper bound on every coefficient's magnitude
    n = 0
    while min(a, b) + s * n <= hi:
        for e, sign in ((a + s * n, eps), (b + s * n, eps), (s * (n + 1), -1)):
            if e > hi:
                continue
            if 2 * bound > COEFF_LIMIT:
                bound = _max_abs(arr)
                if 2 * bound > COEFF_LIMIT:
                    raise CoefficientOverflowError(
                        f"triple product bound {2 * bound} exceeds the 64-bit width"
                    )
            if e == 0:
                arr = arr * (1 + sign)
            else:
                arr[e:] = arr[e:] + sign * arr[:-e]
            bound *= 2
        n += 1
    return HalfPowerSeries(0, hi, arr)


@dataclass(frozen=True)
class NormalizedTheta:
    """sign * q^(shift/2) * f(arg), with arg exponents 0 <= a <= b."""

    sign: int
    shift: int
    arg: ThetaArg

    def expand(self, hi: int) -> HalfPowerSeries:
        series = theta_expand(self.arg, hi - self.shift).shift(self.shift)
        return series if self.sign == 1 else -series


def theta_normalize(arg: ThetaArg) -> NormalizedTheta:
    """Clear a negative exponent via the standard index shift.

    For f(+-q^(-r/2), +-q^(s/2)) with 0 <= r < s the function equals
    (+-1)^m q^(-h/2) f(+-q^(l/2), +-q^(k/2)) where m = floor(s/(s-r)),
    l = m(s-r) - r, k = s - m(s-r) and h = m*r - m(m-1)(s-r)/2; the sign
    twist applies only in the negative-sign case.
    """
    a, b = arg.a, arg.b
    if a >= 0 and b >= 0:
        lo, hi_ = sorted((a, b))
        return NormalizedTheta(1, 0, ThetaArg(arg.eps, lo, hi_))
    if a < 0 and b < 0:
        raise ExpansionError(f"both exponents negative in {arg}")
    r, s = -min(a, b), max(a, b)
    if r >= s:
        raise ExpansionError(f"divergent specialization {arg}")
    m = s // (s - r)
    l = m * (s - r) - r
    k = s - m * (s - r)
    h = m * r - (m * (m - 1) // 2) * (s - r)
    sign = -1 if (arg.eps == -1 and m % 2 == 1) else 1
    lo, hi_ = sorted((l, k))
    return NormalizedTheta(sign, -h, ThetaArg(arg.eps, lo, hi_))


_SPECIALS = {
    "phi": (1, 2, 2),  # f(q, q): squares
    "psi": (1, 2, 6),  # f(q, q^3): triangular numbers
    "fneg": (-1, 2, 4),  # f(-q, -q^2): signed pentagonal numbers
    "X": (1, 2, 4),  # f(q, q^2): generalized pentagonal numbers
    "Y": (1, 2, 10),  # f(q, q^5): generalized octagonal numbers
}


def theta_special(name: str, scale: int = 1) -> ThetaArg:
    """Classical specialization evaluated at q^scale."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    if name not in _SPECIALS:
        raise KeyError(f"unknown special function {name!r}")
    eps, a, b = _SPECIALS[name]
    return ThetaArg(eps, a * scale, b * scale)


def theta_dissection(arg: ThetaArg, n: int) -> list[tuple[int, int, ThetaArg]]:
    """Split f into n shifted theta terms by index residue.

    Returns (sign, shift, arg) triples whose expansions sum back to the
    original function: term r carries the monomial of the r-th series
    term and a theta function collecting indices congruent to r mod n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    a, b, eps = arg.a, arg.b, arg.eps

    def u(m: int) -> int:
        return (a * m * (m + 1) + b * m * (m - 1)) // 2

    def v(m: int) -> int:
        return (a * m * (m - 1) + b * m * (m + 1)) // 2

    terms = []
    new_eps = 1 if eps == 1 or n % 2 == 0 else -1
    for r in range(n):
        sign = 1 if eps == 1 or r % 2 == 0 else -1
        terms.append(
            (sign, u(r), ThetaArg(new_eps, u(n + r) - u(r), v(n - r) - u(r)))
        )
    return terms
