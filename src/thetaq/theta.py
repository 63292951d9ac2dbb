"""Two-parameter theta functions specialized to signed powers of q.

A :class:`ThetaArg` with sign ``eps`` and half-exponents ``a``, ``b``
denotes the bilateral series

    f(eps*q^(a/2), eps*q^(b/2)) = sum over n in Z of
        eps^n * q^((a*n(n+1)/2 + b*n(n-1)/2) / 2)

which converges formally exactly when a + b > 0.  That is the one
convergence check: :class:`ThetaArg` refuses any other argument when it
is built, so every function here may assume it.  The classical special
cases phi, psi, f(-q), X and Y are fixed specializations whose
expansions generate squares, triangular, signed-pentagonal, generalized
pentagonal and generalized octagonal numbers respectively.

The module provides two independent expansion routes (the bilateral sum
and the Jacobi triple product), a normalization that clears a negative
exponent, and the n-term dissection of a theta function into shifted
theta terms.  The bilateral sum is the one-factor case of
:func:`_pair_scatter`, which adds every product of two theta functions
that :mod:`thetaq.identity` adds from the pairs of their term exponents,
through the one pair kernel :func:`thetaq.series.scatter_pairs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import (
    COEFF_LIMIT, CoefficientOverflowError, HalfPowerSeries, _max_abs, scatter_pairs,
)


class ExpansionError(ValueError):
    """The requested specialization diverges as a formal series."""


@dataclass(frozen=True)
class ThetaArg:
    """f(eps*q^(a/2), eps*q^(b/2)); symmetric in a and b, with a + b > 0."""

    eps: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        if self.a + self.b <= 0:
            raise ExpansionError(f"divergent specialization {self}")

    def is_zero_function(self) -> bool:
        """True when one argument is eps*q^0 = -1, which kills the series."""
        return self.eps == -1 and (self.a == 0 or self.b == 0)

    def min_exponent(self) -> int:
        """Least exponent of a term of the bilateral sum (always <= 0, and 0
        for an identically zero function)."""
        s, d, n0 = _quadratic(self)
        return min(_term_exponent(s, d, n0), _term_exponent(s, d, n0 + 1))


def _quadratic(arg: ThetaArg) -> tuple[int, int, int]:
    """(s, d, n0): the n-th term's exponent is (s*n + d)*n / 2, with
    s = a + b and d = a - b, and n0 = floor(-d / 2s) and n0 + 1 are the
    integers either side of its vertex."""
    s, d = arg.a + arg.b, arg.a - arg.b
    return s, d, -d // (2 * s)


def _term_exponent(s: int, d: int, n):
    """Exponent of the n-th term; ``n`` may be an int or an integer array."""
    return (s * n + d) * n // 2


def term_exponents(arg: ThetaArg, hi: int) -> tuple[int, np.ndarray]:
    """``(n_lo, e)``: ``e[i]`` is the exponent of the bilateral sum's term
    ``n = n_lo + i``, over the indices whose exponent is at most ``hi``.

    The exponents are int64; they fall and then rise with ``n``, and two
    terms share an exponent only when ``a - b`` is a multiple of ``a + b``.
    With s = a + b and d = a - b, every intermediate of the formula,
    (s*n + d)*n = 2*e, is at most B = max(s, 2*max(hi, d^2 // 8s + 1) + |d|)
    in magnitude for an index in range, because each exponent e lies
    between -d^2 / 8s and ``hi``, and |s*n + d| <= |2*e| when n != 0.  B is
    computed once; past 64 bits the expansion raises
    :class:`CoefficientOverflowError` before it forms any exponent.
    """
    s, d, _ = _quadratic(arg)
    bound = max(s, 2 * max(hi, d * d // (8 * s) + 1) + abs(d))
    if bound > COEFF_LIMIT:
        raise CoefficientOverflowError(
            f"term exponents of {arg} through {hi} are bounded by {bound}, "
            "past the 64-bit width"
        )
    # The exponent (s*n^2 + d*n)/2 is at most hi exactly when
    # |2*s*n + d| <= isqrt(d^2 + 8*s*hi).
    disc = d * d + 8 * s * hi
    root = math.isqrt(disc) if disc >= 0 else -1
    n_lo, n_hi = -((root + d) // (2 * s)), (root - d) // (2 * s)
    return n_lo, _term_exponent(s, d, np.arange(n_lo, n_hi + 1, dtype=np.int64))


def theta_expand(arg: ThetaArg, hi: int) -> HalfPowerSeries:
    """Bilateral-sum expansion, exact through ``hi`` half-units: the
    one-factor case of :func:`_pair_scatter`.

    The series runs from lo = min(hi, ``arg.min_exponent()``) to ``hi``.
    Through a bound below the least exponent, and for an identically
    zero function, it is the one coefficient 0 at ``hi``.
    """
    return _pair_scatter(((1, 0, (arg,)),), hi)


# the one term of a constant 1: exponent 0, weight 1
_NO_FACTOR = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))


def _pair_scatter(terms, hi: int) -> HalfPowerSeries:
    """The sum over ``terms`` of sign * q^(shift/2) * f1 * f2, exact
    through ``hi``, from lo = min(hi, the least exponent of any term it
    adds); a term of one factor carries the constant 1 as f2.

    f1 * f2 is the sum over index pairs (n1, n2) of
    eps1^n1 * eps2^n2 * q^((e1 + e2)/2), so each term is one call of
    :func:`~thetaq.series.scatter_pairs` with the two factors' term
    exponents, weighted eps^n; f1's weights carry the term's sign and
    f2's exponents its shift.  Each factor's term exponents are taken
    through exactly hi - shift - m_other, m_other the other factor's
    least exponent, past which no pair reaches hi.  A term with an
    identically-zero factor adds nothing.

    Every coefficient and every partial sum is at most the number of
    pairs P in magnitude, and every exponent sum formed is at most
    R = max|e1| + max|e2| + |shift| in magnitude.  Both are checked
    against ``COEFF_LIMIT`` before the output is allocated, and
    :class:`CoefficientOverflowError` is raised past it.  The kernel
    forms the pairs after the output exists.
    """
    lo, pairs, reach = hi, 0, 0
    sets = []  # (shift, (e1, w1), (e2, w2)) per term
    for sign, shift, factors in terms:
        if any(f.is_zero_function() for f in factors):
            continue
        mins = [f.min_exponent() for f in factors]
        total = sum(mins)
        lo = min(lo, shift + total)
        sides, term_pairs, term_reach = [], 1, abs(shift)
        for f, m in zip(factors, mins):
            n_lo, e = term_exponents(f, hi - shift - (total - m))
            if e.size:  # the least exponent m sits between the two ends
                term_reach += max(int(e[0]), int(e[-1]), -m)
            term_pairs *= e.size
            # weights eps^n, times the term's sign on the first factor
            w = np.full(e.size, 1 if sides else sign, dtype=np.int64)
            if f.eps == -1:
                w[(n_lo + 1) % 2 :: 2] *= -1
            sides.append((e, w))
        if len(sides) == 1:
            sides.append(_NO_FACTOR)
        pairs += term_pairs
        reach = max(reach, term_reach)
        sets.append((shift, *sides))
    if pairs > COEFF_LIMIT:
        raise CoefficientOverflowError(f"pair count {pairs} exceeds the 64-bit width")
    if reach > COEFF_LIMIT:
        raise CoefficientOverflowError(f"exponent sum bound {reach} exceeds the 64-bit width")
    out = np.zeros(hi - lo + 1, dtype=np.int64)
    for shift, (e1, w1), (e2, w2) in sets:
        scatter_pairs(out, lo, e1, w1, e2 + shift, w2)
    return HalfPowerSeries(lo, hi, out)


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
    if a < 0 or b < 0:
        raise ExpansionError(f"triple product needs nonnegative exponents, got {arg}")
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
    twist applies only in the negative-sign case.  Convergence, a + b > 0,
    gives r < s.
    """
    a, b = arg.a, arg.b
    if a >= 0 and b >= 0:
        lo, hi_ = sorted((a, b))
        return NormalizedTheta(1, 0, ThetaArg(arg.eps, lo, hi_))
    r, s = -min(a, b), max(a, b)
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
