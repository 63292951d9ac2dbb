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
theta terms.  The bilateral sum, :func:`theta_expand`, is the one-row,
one-term case of :func:`_pair_scatter`, which forms every row an identity check of
:mod:`thetaq.identity` needs, each a sum of products of one or two
theta functions, from the pairs of their term exponents: one
:func:`term_exponents` call and one call of the pair kernel
:func:`thetaq.series.scatter_pairs` for all of them.
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
        for an identically zero function).

        The n-th term's exponent is (s*n + d)*n / 2, with s = a + b and
        d = a - b; n = floor(-d / 2s) and n + 1 are the integers either
        side of its vertex, and (s*n + d)*n is even for every n.
        """
        s, d = self.a + self.b, self.a - self.b
        n = -d // (2 * s)
        return min((s * n + d) * n, (s * n + s + d) * (n + 1)) // 2


def term_exponents(requests) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """``(n, e, stops)`` for a sequence of ``(arg, hi)`` requests: the
    indices ``n`` and exponents ``e`` of the bilateral sums' terms whose
    exponent is at most ``hi``, each request's terms ascending in n,
    the requests one after another, request k ending at ``stops[k]``.

    The arrays are int64; each request's exponents fall and then rise
    with ``n``, and two terms share an exponent only when ``a - b`` is a
    multiple of ``a + b``.  With s = a + b and d = a - b, every
    intermediate of the formula, (s*n + d)*n = 2*e, is at most
    B = max(s, 2*max(hi, d^2 // 8s + 1) + |d|) in magnitude for an index
    in range, because each exponent e lies between -d^2 / 8s and ``hi``,
    and |s*n + d| <= |2*e| when n != 0.  Every request's B is computed
    first; past 64 bits the call raises :class:`CoefficientOverflowError`
    before it forms any exponent.  Then every request is formed in one
    vectorized pass.
    """
    params, counts, stops = [], [], []
    total = 0
    for arg, hi in requests:
        s, d = arg.a + arg.b, arg.a - arg.b
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
        count = max(n_hi - n_lo + 1, 0)
        params += (n_lo - total, s, d)
        counts.append(count)
        total += count
        stops.append(total)
    offset, s, d = np.repeat(np.array(params, dtype=np.int64).reshape(-1, 3).T, counts, axis=1)
    n = np.arange(total, dtype=np.int64)
    n += offset
    # 2e = (s*n + d)*n, in place; it is even, so the shift halves it exactly
    e = s * n
    e += d
    e *= n
    e >>= 1
    return n, e, stops


def theta_expand(arg: ThetaArg, hi: int) -> HalfPowerSeries:
    """Bilateral-sum expansion, exact through ``hi`` half-units: the
    one-row, one-term case of :func:`_pair_scatter`.

    The series runs from lo = min(hi, ``arg.min_exponent()``) to ``hi``.
    Through a bound below the least exponent, and for an identically
    zero function, it is the one coefficient 0 at ``hi``.
    """
    return _pair_scatter([_scatter_row(((1, 0, (arg,)),), hi)])[0]


class _ScatterRow:
    """One output series of :func:`_pair_scatter`: the sum over ``terms``
    of sign * q^(shift/2) * f1 * f2 (f2 = 1 for a term of one factor),
    exact through ``hi``, from ``lo``.  ``terms`` holds each term without
    an identically-zero factor as (sign, shift, factors, least exponents),
    and ``requests`` each such factor's (arg, bound), in order."""

    __slots__ = ("lo", "hi", "terms", "requests")

    def __init__(self, lo: int, hi: int, terms: list, requests: list) -> None:
        self.lo, self.hi, self.terms, self.requests = lo, hi, terms, requests


def _scatter_row(terms, hi: int) -> _ScatterRow:
    """The row of (sign, shift, factors) ``terms`` through ``hi``.

    Each factor's term exponents are asked for through exactly
    hi - shift - m_other, m_other the other factor's least exponent,
    past which no pair reaches hi.  A term with an identically-zero
    factor adds nothing.  lo = min(hi, the least exponent of any term
    the row adds), so a caller can bound another row by it before any
    row is formed.
    """
    lo, planned, requests = hi, [], []
    for sign, shift, factors in terms:
        if any(f.is_zero_function() for f in factors):
            continue
        mins = [f.min_exponent() for f in factors]
        total = sum(mins)
        lo = min(lo, shift + total)
        planned.append((sign, shift, factors, mins))
        requests += [(f, hi - shift - (total - m)) for f, m in zip(factors, mins)]
    return _ScatterRow(lo, hi, planned, requests)


def _pair_scatter(rows) -> list[HalfPowerSeries]:
    """One series per :class:`_ScatterRow` of ``rows``, as views of one
    int64 buffer, from one :func:`term_exponents` call over every row's
    requests and one call of :func:`~thetaq.series.scatter_pairs`.

    f1 * f2 is the sum over index pairs (n1, n2) of
    eps1^n1 * eps2^n2 * q^((e1 + e2)/2), so each term is one pair set of
    the two factors' term exponents, weighted eps^n, with f1's weights
    carrying the term's sign; a one-factor term pairs its factor with
    the one exponent 0 of weight 1.  The set adds at column
    e1 + e2 + shift - lo of its row, for every pair with
    e1 + e2 <= hi - shift.

    The buffer's width is the sum of the rows' widths hi - lo + 1, known
    from the rows alone, so it is allocated first: a request too wide for
    memory fails there, before any term exponent is formed.  In each row,
    every coefficient and every partial sum is at most the row's number
    of pairs P in magnitude, and every exponent sum formed is at most
    R = max|e1| + max|e2| + |shift| over its terms.  Every row's P and R
    are checked against ``COEFF_LIMIT`` once the exponents exist, and
    :class:`CoefficientOverflowError` is raised past it, before the
    kernel forms any pair.
    """
    offsets = [0]
    for row in rows:
        offsets.append(offsets[-1] + row.hi - row.lo + 1)
    out = np.zeros(offsets.pop(), dtype=np.int64)
    n, e, stops = term_exponents([req for row in rows for req in row.requests])
    one = len(e)  # index of the constant term appended below
    signs, negs, counts, sets = [], [], [], []
    k = start = 0
    for row, at in zip(rows, offsets):
        pairs = reach = 0
        for sign, shift, factors, mins in row.terms:
            span, term_pairs, term_reach = [], 1, abs(shift)
            for f, m in zip(factors, mins):
                stop = stops[k]
                if stop > start:  # the least exponent m sits between the two ends
                    term_reach += max(int(e[start]), int(e[stop - 1]), -m)
                term_pairs *= stop - start
                counts.append(stop - start)
                signs.append(sign if not span else 1)
                negs.append(f.eps == -1)
                span += [start, stop]
                k, start = k + 1, stop
            if len(span) == 2:
                span += [one, one + 1]
            pairs += term_pairs
            reach = max(reach, term_reach)
            if term_pairs:
                sets.append((at + shift - row.lo, row.hi - shift, *span))
        if pairs > COEFF_LIMIT:
            raise CoefficientOverflowError(f"pair count {pairs} exceeds the 64-bit width")
        if reach > COEFF_LIMIT:
            raise CoefficientOverflowError(f"exponent sum bound {reach} exceeds the 64-bit width")
    # weights eps^n = 1 - 2*(n & 1) where eps = -1, times the term's sign
    # on its first factor; the constant term last
    w, exps = np.empty(one + 1, dtype=np.int64), np.empty(one + 1, dtype=np.int64)
    w[:one] = np.repeat(np.array(signs, dtype=np.int64), counts)
    if any(negs):
        w[:one] *= 1 - 2 * (n & np.repeat(np.array(negs, dtype=np.int64), counts))
    exps[:one] = e
    w[one], exps[one] = 1, 0
    scatter_pairs(out, exps, w, exps, w, sets)
    return [HalfPowerSeries(row.lo, row.hi, out[at : at + row.hi - row.lo + 1])
            for row, at in zip(rows, offsets)]


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
