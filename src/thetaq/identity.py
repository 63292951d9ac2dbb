"""Decompositions of products of two and three theta functions.

The central result expands a product of three theta functions
f(e1*q^g, e1*q^h) f(e2*q^u, e2*q^v) f(e3*q^i, e3*q^j), subject to the
parameter constraints of :func:`validate_triple`, into an explicit sum
of 2k products of three theta functions.  A companion result does the
same for a product of two theta functions (k terms of two factors).

Every term of both results comes from one term rule, :func:`_terms`: a
spec (outer, parity, base, y, x, c) is the term
(-1)^parity * q^shift * outer * f(mid) * f(last), with d = D1 + D2,
mid = (r(S3(k+y)+D3)+d, r(S3(k-y)-D3)-d),
last = ((k-r)(S3(k-x)-D3)+d, (k-r)(S3(k+x)+D3)-d) and
shift = base + S3*c^2/4 + D3*c/2.  The three blocks of the first result
differ only in their specs (:func:`triple_rhs`), and the second result's
terms are the first block with no outer factor and d = s - t.

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
from .theta import ThetaArg, _pair_scatter, _scatter_row, theta_expand


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


def _side_rows(terms: Sequence[ThetaProduct], hi: int) -> tuple[list, list]:
    """The pair-scatter rows of one side through ``hi``, and, for each of
    its parts, the number of rows (1 or 2) behind it and the outer factor
    :func:`_side_sum` expands for it, if any.

    Terms are grouped, by first appearance, by their factors before the
    last two, and each group is expanded by the distributive law,
    sum_t o * x_t = o * sum_t x_t: the remainders x_t of one or two
    factors (with each term's sign and shift) are one row.  The group
    with no outer factor, the one- and two-factor terms, is a row
    through ``hi`` and a part by itself.  A three-factor group's row
    runs through hi - m, where m = o.min_exponent() for its outer factor
    o, from lo, the least exponent it could add (lo <= hi - m); o is
    expanded through hi - lo >= m, and the part is their product.  The
    product is exact through hi, because each factor's bound plus the
    other factor's least exponent (at least m, at least lo) reaches hi.
    A group whose o is identically zero adds nothing.

    The o of a group of several terms is one more row, a one-factor term
    through hi - lo.  The o of a one-term group, the left side of
    Theorem 1 and of cor1-cor4, is left to :func:`theta_expand`, the
    public one-theta expansion, so every such check still passes through
    it: the layer tracer of ``perfbench`` times the theta layer by that
    function.  It costs one more term-exponent and pair-kernel call.
    """
    groups: dict[tuple[ThetaArg, ...], list] = {}
    for t in terms:
        groups.setdefault(t.factors[:-2], []).append((t.sign, t.shift, t.factors[-2:]))
    rows, parts = [], []
    for outer, group in groups.items():
        if not outer:
            rows.append(_scatter_row(group, hi))
            parts.append((1, None))
        elif not outer[0].is_zero_function():
            inner = _scatter_row(group, hi - outer[0].min_exponent())
            rows.append(inner)
            if len(group) == 1:
                parts.append((1, outer[0]))
            else:
                rows.append(_scatter_row(((1, 0, outer),), hi - inner.lo))
                parts.append((2, None))
    return rows, parts


def _side_sum(series: Sequence[HalfPowerSeries], parts: list, hi: int) -> HalfPowerSeries:
    """A side from the series of its :func:`_side_rows`: each part is its
    row, or the outer factor's row or :func:`theta_expand` times the
    group's row, and every part is added in one :func:`sum_series`."""
    out, at = [], 0
    for size, outer in parts:
        row = series[at]
        if outer is not None:
            row = theta_expand(outer, hi - row.lo) * row
        elif size == 2:
            row = series[at + 1] * row
        out.append(row)
        at += size
    return sum_series(out, hi)


def expand_sum(terms: Sequence[ThetaProduct], hi: int) -> HalfPowerSeries:
    """Expand and add a list of theta products, exact through ``hi``:
    the rows of :func:`_side_rows`, formed in one :func:`_pair_scatter`
    of :mod:`thetaq.theta`, then :func:`_side_sum`."""
    rows, parts = _side_rows(terms, hi)
    return _side_sum(_pair_scatter(rows), parts, hi)


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
    """Both sides expanded through ``through`` and compared: the rows of
    both sides are formed in one :func:`_pair_scatter`."""
    lhs_rows, lhs_parts = _side_rows(lhs_terms, through)
    rhs_rows, rhs_parts = _side_rows(rhs_terms, through)
    series = _pair_scatter(lhs_rows + rhs_rows)
    lhs = _side_sum(series[: len(lhs_rows)], lhs_parts, through)
    rhs = _side_sum(series[len(lhs_rows) :], rhs_parts, through)
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


def _terms(
    k: int, r: int, s3: int, d3: int, d: int, eps_mid: int, eps_last: int,
    specs: Sequence[tuple],
) -> list[ThetaProduct]:
    """One term per spec (outer, parity, base, y, x, c), by the one term
    rule of the module docstring, in half-units.  ``d`` stands for
    D1 + D2 (D in Theorem 2) and ``outer`` for the block's outer factor,
    if any."""
    terms, kr = [], k - r
    for outer, parity, base, y, x, c in specs:
        mid = ThetaArg(eps_mid, r * (s3 * (k + y) + d3) + d, r * (s3 * (k - y) - d3) - d)
        last = ThetaArg(eps_last, kr * (s3 * (k - x) - d3) + d, kr * (s3 * (k + x) + d3) - d)
        terms.append(ThetaProduct(
            _sgn(parity), base + s3 * c * c // 4 + d3 * c // 2, outer + (mid, last)
        ))
    return terms


def _first_block(k: int, dl3: int, outer: tuple[ThetaArg, ...]) -> list[tuple]:
    """The specs of Theorem 1's first block: y = x = c = 2*alpha, base 0,
    parity alpha*delta3, alpha from floor((2-k)/2) to floor(k/2)."""
    return [(outer, a * dl3, 0, 2 * a, 2 * a, 2 * a) for a in range((2 - k) // 2, k // 2 + 1)]


def triple_rhs(p: TripleParams) -> list[ThetaProduct]:
    """The 2k decomposition terms, first-block terms first.

    Each term is one alpha instance of one of the three blocks, built by
    :func:`_terms`; the blocks differ only in their specs.  With
    b = delta3(k-r+1)/2, block 2 takes y = 2alpha-1, x = y-k,
    c = y-(k-r), base S1+D1 and parity alpha*delta3 + delta1 + b for
    alpha from 1 to floor((k+1)/2); block 3 is block 2 mirrored
    (y, x and c negated, base S2-D2, delta2 for delta1), alpha from 1 to
    floor(k/2).  The c of blocks 2 and 3 is even, since k-r is odd.  The
    block's outer theta factor is distributed into every term so each
    entry is a full product of three factors with an explicit monomial.
    """
    _require_valid(validate_triple(p))
    k, r = p.k, p.r
    s1, d1, s2, d2, s3, d3 = p.s1, p.d1, p.s2, p.d2, p.s3, p.d3
    dl1, dl2, dl3 = p.deltas
    w = r * (k - r)

    eps_outer = _sgn(dl1 + dl2)
    eps_mid = _sgn(dl1 + dl2 + r * dl3)
    eps_last = _sgn(dl1 + dl2 + dl3)  # k-r odd keeps the parity honest

    specs = _first_block(k, dl3, (ThetaArg(eps_outer, w * s3 + d1 - d2, w * s3 - d1 + d2),))
    # blocks 2 and 3 share this outer factor and global sign
    outer23 = (ThetaArg(eps_outer, 2 * w * s3 + d1 - d2, -d1 + d2),)
    b = dl3 * (k - r + 1) // 2
    # block 2 (m = 1), then block 3, its mirror image (m = -1)
    for m, base, dl, top in ((1, s1 + d1, dl1, (k + 1) // 2), (-1, s2 - d2, dl2, k // 2)):
        for alpha in range(1, top + 1):
            y = m * (2 * alpha - 1)
            specs.append((outer23, alpha * dl3 + dl + b, base, y, y - m * k, y - m * (k - r)))
    terms = _terms(k, r, s3, d3, d1 + d2, eps_mid, eps_last, specs)
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
    """The k decomposition terms of the two-theta product: the first
    block of :func:`triple_rhs` with no outer factor, d = D = s - t,
    S3 = i + j, D3 = i - j and delta3 = delta, built by :func:`_terms`."""
    _require_valid(validate_pair(p))
    delta = (1 - p.eps) // 2
    return _terms(
        p.k, p.r, p.i + p.j, p.i - p.j, p.s - p.t, _sgn(p.r * delta), _sgn(delta),
        _first_block(p.k, delta, ()),
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
