"""Decompositions of products of two and three theta functions.

The central result expands a product of three theta functions
f(e1*q^g, e1*q^h) f(e2*q^u, e2*q^v) f(e3*q^i, e3*q^j), subject to the
parameter constraints of :func:`validate_triple`, into an explicit sum
of 2k products of three theta functions.  A companion result does the
same for a product of two theta functions (k terms of two factors).

Everything is verified coefficientwise: both sides are expanded as
:class:`~thetaq.series.HalfPowerSeries` to a requested order and
compared exactly, with truncation bounds tracked rather than assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from .series import HalfPowerSeries, sum_series
from .theta import ThetaArg, _pair_scatter, theta_expand


@dataclass(frozen=True)
class ThetaProduct:
    """sign * q^(shift/2) * product of up to three theta factors."""

    sign: int
    shift: int
    factors: tuple[ThetaArg, ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 1 <= len(self.factors) <= 3:
            raise ValueError("a theta product carries one to three factors")

    def expand(self, hi: int) -> HalfPowerSeries:
        """Expansion exact through ``hi`` half-units: :func:`expand_sum`
        of this one term."""
        return expand_sum((self,), hi)


def expand_sum(terms: Sequence[ThetaProduct], hi: int) -> HalfPowerSeries:
    """Expand and add a list of theta products, exact through ``hi``.

    Terms are grouped, by first appearance, by their factors before the
    last two, and each group is expanded by the distributive law,
    sum_t o * x_t = o * sum_t x_t: the remainders x_t of one or two
    factors (with each term's sign and shift) are added in one
    :func:`_pair_scatter` of :mod:`thetaq.theta`.  The group with no
    outer factor, the one- and two-factor terms, is that scatter through
    ``hi``.  A three-factor group's scatter runs through hi - m, where
    m = o.min_exponent() for its outer factor o, from lo, the least
    exponent it could add (lo <= hi - m); o is expanded once, through
    hi - lo >= m, and multiplied once.  The product is exact through hi,
    because each factor's bound plus the other factor's least exponent
    (at least m, at least lo) reaches hi.  A group whose o is identically
    zero adds nothing.  Every part is added in one :func:`sum_series`.
    """
    groups: dict[tuple[ThetaArg, ...], list] = {}
    for t in terms:
        groups.setdefault(t.factors[:-2], []).append((t.sign, t.shift, t.factors[-2:]))
    parts = []
    for outer, group in groups.items():
        if not outer:
            parts.append(_pair_scatter(group, hi))
        elif not outer[0].is_zero_function():
            inner = _pair_scatter(group, hi - outer[0].min_exponent())
            parts.append(theta_expand(outer[0], hi - inner.lo) * inner)
    return sum_series(parts, hi)


@dataclass(frozen=True)
class IdentityReport:
    """Result of one coefficientwise identity verification."""

    equal: bool
    checked_through: int
    mismatch: Optional[tuple[int, int, int]]  # (exponent, lhs, rhs)
    rhs_term_count: int
    negative_violation: Optional[tuple[str, int, int]] = None  # side, exp, coeff

    @property
    def ok(self) -> bool:
        return self.equal and self.negative_violation is None


def _negative_violation(side: str, s: HalfPowerSeries):
    for e, c in s.items():
        if e < 0:
            return (side, e, c)
        break
    return None


def _verify_terms(
    lhs_terms: Sequence[ThetaProduct],
    rhs_terms: Sequence[ThetaProduct],
    through: int,
) -> IdentityReport:
    lhs = expand_sum(lhs_terms, through)
    rhs = expand_sum(rhs_terms, through)
    cmp = lhs.compare(rhs, through)
    violation = _negative_violation("lhs", lhs) or _negative_violation("rhs", rhs)
    return IdentityReport(
        equal=cmp.equal,
        checked_through=through,
        mismatch=cmp.mismatch,
        rhs_term_count=len(rhs_terms),
        negative_violation=violation,
    )


# ----------------------------------------------------------------------
# product of three theta functions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TripleParams:
    """Parameters of the three-theta-product decomposition.

    Whole-q exponents g, h, u, v, i, j with sums/differences
    S1 = g+h = S2 = u+v, S3 = i+j, D1 = g-h, D2 = u-v, D3 = i-j,
    and the coupling 2*S1 = r(k-r)*S3.
    """

    k: int
    r: int
    g: int
    h: int
    u: int
    v: int
    i: int
    j: int
    eps1: int = 1
    eps2: int = 1
    eps3: int = 1

    @property
    def s1(self) -> int:
        return self.g + self.h

    @property
    def d1(self) -> int:
        return self.g - self.h

    @property
    def s2(self) -> int:
        return self.u + self.v

    @property
    def d2(self) -> int:
        return self.u - self.v

    @property
    def s3(self) -> int:
        return self.i + self.j

    @property
    def d3(self) -> int:
        return self.i - self.j

    @property
    def deltas(self) -> tuple[int, int, int]:
        return ((1 - self.eps1) // 2, (1 - self.eps2) // 2, (1 - self.eps3) // 2)


def _sgn(parity: int) -> int:
    return -1 if parity % 2 else 1


def _kr_violations(k: int, r: int) -> list[str]:
    """Violated admissibility conditions on (k, r), shared by both results."""
    if not (k > r > 0):
        return ["k > r > 0"]
    bad = []
    if math.gcd(2 * k, r) not in (1, 2):
        bad.append("gcd(2k, r) in {1, 2}")
    if math.gcd(2 * k, k - r) != 1:
        bad.append("gcd(2k, k-r) = 1")
    return bad


def _require_valid(bad: list[str]) -> None:
    if bad:
        raise ValueError("constraint violations: " + "; ".join(bad))


def validate_triple(p: TripleParams) -> list[str]:
    """Names of violated constraints; empty means admissible."""
    bad = _kr_violations(p.k, p.r)
    if any(es not in (1, -1) for es in (p.eps1, p.eps2, p.eps3)):
        bad.append("signs must be +1 or -1")
    if p.s1 <= 0:
        bad.append("S1 > 0")
    if p.s2 <= 0:
        bad.append("S2 > 0")
    if p.s3 <= 0:
        bad.append("S3 > 0")
    if p.s1 != p.s2:
        bad.append("S1 = S2")
    if p.k > p.r > 0 and 2 * p.s1 != p.r * (p.k - p.r) * p.s3:
        bad.append("2*S1 = r(k-r)*S3")
    return bad


def triple_lhs(p: TripleParams) -> ThetaProduct:
    """The product f(e1 q^g, e1 q^h) f(e2 q^u, e2 q^v) f(e3 q^i, e3 q^j)."""
    _require_valid(validate_triple(p))
    return ThetaProduct(
        1,
        0,
        (
            ThetaArg(p.eps1, 2 * p.g, 2 * p.h),
            ThetaArg(p.eps2, 2 * p.u, 2 * p.v),
            ThetaArg(p.eps3, 2 * p.i, 2 * p.j),
        ),
    )


def _first_block(
    k: int, r: int, s3: int, d3: int, d: int, dl3: int,
    eps_mid: int, eps_last: int, outer: tuple[ThetaArg, ...],
) -> list[ThetaProduct]:
    """The k terms of Theorem 1's first block, alpha from floor((2-k)/2).

    ``d`` stands for D1 + D2 and ``outer`` for the block's outer factor,
    distributed into every term.  Theorem 2's terms are this block with
    d = D = s - t and no outer factor.
    """
    terms = []
    for alpha in range((2 - k) // 2, k // 2 + 1):
        mid = ThetaArg(
            eps_mid,
            r * (s3 * (k + 2 * alpha) + d3) + d,
            r * (s3 * (k - 2 * alpha) - d3) - d,
        )
        last = ThetaArg(
            eps_last,
            (k - r) * (s3 * (k - 2 * alpha) - d3) + d,
            (k - r) * (s3 * (k + 2 * alpha) + d3) - d,
        )
        terms.append(ThetaProduct(
            _sgn(alpha * dl3), alpha * (alpha * s3 + d3), outer + (mid, last)
        ))
    return terms


def triple_rhs(p: TripleParams) -> list[ThetaProduct]:
    """The 2k decomposition terms, first-block terms first.

    Each term is one alpha instance of one of the three blocks; the
    block's outer theta factor is distributed into every term so each
    entry is a full product of three factors with an explicit monomial.
    All exponents below are in half-units (= the whole-q formulas).
    """
    _require_valid(validate_triple(p))
    k, r = p.k, p.r
    s1, d1, s2, d2, s3, d3 = p.s1, p.d1, p.s2, p.d2, p.s3, p.d3
    dl1, dl2, dl3 = p.deltas
    w = r * (k - r)

    eps_outer = _sgn(dl1 + dl2)
    eps_mid = _sgn(dl1 + dl2 + r * dl3)
    eps_last = _sgn(dl1 + dl2 + dl3)  # k-r odd keeps the parity honest

    outer1 = ThetaArg(eps_outer, w * s3 + d1 - d2, w * s3 - d1 + d2)
    terms = _first_block(k, r, s3, d3, d1 + d2, dl3, eps_mid, eps_last, (outer1,))

    # blocks 2 and 3 share this outer factor and global sign
    outer23 = ThetaArg(eps_outer, 2 * w * s3 + d1 - d2, -d1 + d2)
    block_sign = dl3 * (k - r + 1) // 2

    # block 2: alpha from 1 to floor((k+1)/2)
    for alpha in range(1, (k + 1) // 2 + 1):
        c = -k + r + 2 * alpha - 1  # even since k-r is odd
        sign = _sgn(alpha * dl3 + dl1 + block_sign)
        shift = s1 + d1 + s3 * c * c // 4 + d3 * c // 2
        mid = ThetaArg(
            eps_mid,
            r * (s3 * (k + 2 * alpha - 1) + d3) + d1 + d2,
            r * (s3 * (k - 2 * alpha + 1) - d3) - d1 - d2,
        )
        last = ThetaArg(
            eps_last,
            (k - r) * (s3 * (2 * k - 2 * alpha + 1) - d3) + d1 + d2,
            (k - r) * (s3 * (2 * alpha - 1) + d3) - d1 - d2,
        )
        terms.append(ThetaProduct(sign, shift, (outer23, mid, last)))

    # block 3: alpha from 1 to floor(k/2)
    for alpha in range(1, k // 2 + 1):
        c = k - r - 2 * alpha + 1  # even since k-r is odd
        sign = _sgn(alpha * dl3 + dl2 + block_sign)
        shift = s2 - d2 + s3 * c * c // 4 + d3 * c // 2
        mid = ThetaArg(
            eps_mid,
            r * (s3 * (k - 2 * alpha + 1) + d3) + d1 + d2,
            r * (s3 * (k + 2 * alpha - 1) - d3) - d1 - d2,
        )
        last = ThetaArg(
            eps_last,
            (k - r) * (s3 * (2 * alpha - 1) - d3) + d1 + d2,
            (k - r) * (s3 * (2 * k - 2 * alpha + 1) + d3) - d1 - d2,
        )
        terms.append(ThetaProduct(sign, shift, (outer23, mid, last)))

    assert len(terms) == 2 * k
    return terms


def verify_triple(p: TripleParams, through: int) -> IdentityReport:
    """Expand both sides through ``through`` half-units and compare."""
    return _verify_terms([triple_lhs(p)], triple_rhs(p), through)


# ----------------------------------------------------------------------
# product of two theta functions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairParams:
    """Parameters of the two-theta-product decomposition.

    Whole-q exponents s, t, i, j with S = s+t = r(k-r)*S3, S3 = i+j,
    D = s-t, D3 = i-j; the second factor carries the sign eps.
    """

    k: int
    r: int
    s: int
    t: int
    i: int
    j: int
    eps: int = 1


def validate_pair(p: PairParams) -> list[str]:
    bad = _kr_violations(p.k, p.r)
    if p.eps not in (1, -1):
        bad.append("eps must be +1 or -1")
    if p.s + p.t <= 0:
        bad.append("S > 0")
    if p.i + p.j <= 0:
        bad.append("S3 > 0")
    if p.k > p.r > 0 and p.s + p.t != p.r * (p.k - p.r) * (p.i + p.j):
        bad.append("S = r(k-r)*S3")
    return bad


def pair_lhs(p: PairParams) -> ThetaProduct:
    _require_valid(validate_pair(p))
    return ThetaProduct(
        1,
        0,
        (ThetaArg(1, 2 * p.s, 2 * p.t), ThetaArg(p.eps, 2 * p.i, 2 * p.j)),
    )


def pair_rhs(p: PairParams) -> list[ThetaProduct]:
    """The k decomposition terms of the two-theta product."""
    _require_valid(validate_pair(p))
    delta = (1 - p.eps) // 2
    return _first_block(
        p.k, p.r, p.i + p.j, p.i - p.j, p.s - p.t, delta,
        _sgn(p.r * delta), _sgn(delta), (),
    )


def verify_pair(p: PairParams, through: int) -> IdentityReport:
    return _verify_terms([pair_lhs(p)], pair_rhs(p), through)


# ----------------------------------------------------------------------
# named corollaries
# ----------------------------------------------------------------------

# The signed two-theta identities as rows (gm, hm, i, j, eps3) of the
# triple-product setting k = m+1, r = m, g = u = gm*m, h = v = hm*m,
# signs (-1, +1, eps3).  Row key is the catalog identifier.
_SIGNED_PAIR_ROWS: dict[str, tuple[int, int, int, int, int]] = {
    "clp2.1": (1, 1, 2, 2, 1),
    "clp2.2": (3, 1, 6, 2, 1),
    "clp2.3": (2, 1, 4, 2, -1),
    "clp2.4": (1, 1, 4, 0, 1),
    "clp2.5": (1, 1, 3, 1, 1),
    "clp2.6": (2, 1, 3, 3, 1),
    "clp2.7": (3, 1, 4, 4, 1),
    "clp2.8": (3, 1, 8, 0, 1),
}

_COROLLARY_IDS = ("cor1", "cor2", "cor3", "cor4")


def signed_pair_params(cid: str, m: int) -> TripleParams:
    """Triple-product parameters behind a signed two-theta identity."""
    if cid not in _SIGNED_PAIR_ROWS:
        raise KeyError(f"unknown identity {cid!r}")
    if m < 1:
        raise ValueError("m must be a positive integer")
    gm, hm, i, j, eps3 = _SIGNED_PAIR_ROWS[cid]
    g, h = gm * m, hm * m
    return TripleParams(
        k=m + 1, r=m, g=g, h=h, u=g, v=h, i=i, j=j, eps1=-1, eps2=1, eps3=eps3
    )


def corollary_params(cid: str, k: int, r: int) -> TripleParams:
    """Triple-product parameters of the four direct specializations."""
    w = r * (k - r)
    if cid == "cor1":  # 8 psi^2(q^w) psi(q^2)
        return TripleParams(k, r, g=w, h=0, u=w, v=0, i=2, j=0)
    if cid == "cor2":  # 4 psi^2(q^w) phi(q)
        return TripleParams(k, r, g=w, h=0, u=w, v=0, i=1, j=1)
    if cid == "cor3":  # phi^2(q^w) phi(q^2)
        return TripleParams(k, r, g=w, h=w, u=w, v=w, i=2, j=2)
    if cid == "cor4":  # phi^2(q^w) psi(q)
        return TripleParams(k, r, g=w, h=w, u=w, v=w, i=3, j=1)
    raise KeyError(f"unknown corollary {cid!r}")


def _halve_product(t: ThetaProduct) -> ThetaProduct:
    return ThetaProduct(
        t.sign,
        t.shift // 2,
        tuple(ThetaArg(f.eps, f.a // 2, f.b // 2) for f in t.factors),
    )


def _all_even(terms: Sequence[ThetaProduct]) -> bool:
    for t in terms:
        if t.shift % 4:
            return False
        for f in t.factors:
            if f.a % 4 or f.b % 4:
                return False
    return True


def _reduced_signed_pair(
    cid: str, m: int
) -> tuple[list[ThetaProduct], list[ThetaProduct]]:
    """Both sides of a signed two-theta identity on its source grid.

    Derivation from the triple-product decomposition: the second and
    third blocks vanish because their outer factor has a -q^0 argument;
    the surviving block shares the factor f(-q^S1, -q^S1) with the left
    side rewritten via f(a,b) f(-a,-b) = f(-a^2,-b^2) phi(-ab), so that
    factor cancels structurally.
    """
    p = signed_pair_params(cid, m)
    rhs_full = triple_rhs(p)
    k = p.k
    head, tail = rhs_full[:k], rhs_full[k:]
    for term in tail:
        if not any(f.is_zero_function() for f in term.factors):
            raise AssertionError("expected vanishing outer factor in tail blocks")
    # shared factor: each head term's first factor is f(-q^S1, -q^S1)
    shared = ThetaArg(-1, 2 * p.s1, 2 * p.s1)
    rhs = []
    for term in head:
        if term.factors[0] != shared:
            raise AssertionError("unexpected head-block outer factor")
        rhs.append(ThetaProduct(term.sign, term.shift, term.factors[1:]))
    squared = ThetaArg(-1, 4 * p.g, 4 * p.h)  # f(-q^2g, -q^2h)
    lhs = [ThetaProduct(1, 0, (squared, ThetaArg(p.eps3, 2 * p.i, 2 * p.j)))]
    return lhs, rhs


def instantiate_corollary(
    cid: str, *, k: int | None = None, r: int | None = None, m: int | None = None
) -> tuple[list[ThetaProduct], list[ThetaProduct]]:
    """Both sides of a named corollary as printed, as lists of theta products.

    cor1..cor4 take k and r and no m; a signed pair takes m and neither
    k nor r, and its sides are those of :func:`_reduced_signed_pair`,
    with exponents halved when the whole identity lives on even powers
    of q.
    """
    if cid in _COROLLARY_IDS:
        if k is None or r is None:
            raise ValueError(f"{cid} needs k and r")
        if m is not None:
            raise ValueError(f"{cid} takes no m")
        p = corollary_params(cid, k, r)
        return [triple_lhs(p)], triple_rhs(p)
    if cid in _SIGNED_PAIR_ROWS:
        if m is None:
            raise ValueError(f"{cid} needs m")
        unused = [name for name, v in (("k", k), ("r", r)) if v is not None]
        if unused:
            raise ValueError(f"{cid} takes no {' or '.join(unused)}")
        lhs, rhs = _reduced_signed_pair(cid, m)
        if _all_even(lhs + rhs):
            lhs = [_halve_product(t) for t in lhs]
            rhs = [_halve_product(t) for t in rhs]
        return lhs, rhs
    raise KeyError(f"unknown corollary {cid!r}")


def verify_corollary(
    cid: str,
    *,
    k: int | None = None,
    r: int | None = None,
    m: int | None = None,
    through: int,
) -> IdentityReport:
    """Expand both printed sides through ``through`` half-units and compare.

    A halved signed pair is checked on the q grid it is printed on: its
    reduced form lives on multiples of 4 half-units only, so it agrees
    through 2*through exactly when the printed form agrees through
    ``through``.
    """
    return _verify_terms(*instantiate_corollary(cid, k=k, r=r, m=m), through)


# ----------------------------------------------------------------------
# embedded identity catalog
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityEntry:
    """One named, machine-verifiable identity instance."""

    id: str
    kind: str  # thm1 | thm2 | corollary
    params: dict
    citation: str = ""

    def verify(self, through: int) -> IdentityReport:
        if self.kind == "thm1":
            return verify_triple(TripleParams(**self.params), through)
        if self.kind == "thm2":
            return verify_pair(PairParams(**self.params), through)
        if self.kind == "corollary":
            return verify_corollary(self.params["id"], through=through, **{
                key: self.params[key]
                for key in ("k", "r", "m")
                if key in self.params
            })
        raise ValueError(f"unknown identity kind {self.kind!r}")


def load_identity_catalog() -> list[IdentityEntry]:
    raw = json.loads(
        resources.files("thetaq.data").joinpath("identities.json").read_text()
    )
    return [
        IdentityEntry(
            id=item["id"],
            kind=item["kind"],
            params=item["params"],
            citation=item.get("citation", ""),
        )
        for item in raw["identities"]
    ]
