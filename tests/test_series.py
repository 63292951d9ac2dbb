"""Core series arithmetic: frozen values, independent oracles, ring axioms."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetaq.series import (
    COEFF_LIMIT,
    CoefficientOverflowError,
    HalfPowerSeries,
    TruncationError,
    _dense_convolve,
    _exact_convolve,
    _sparse_convolve,
)
from thetaq.theta import theta_expand, theta_special


def brute_convolve(a: dict, b: dict) -> dict:
    """Independent reference convolution over exponent dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def as_dict(s: HalfPowerSeries) -> dict:
    return dict(s.items())


def series_of(d: dict, hi: int) -> HalfPowerSeries:
    return HalfPowerSeries.from_items(d.items(), hi)


small_series = st.builds(
    series_of,
    st.dictionaries(st.integers(-6, 12), st.integers(-9, 9), max_size=6),
    st.integers(12, 24),
)


class TestMonomial:
    def test_constant_one(self):
        s = HalfPowerSeries.monomial(1, 0, 10)
        assert s.coeff(0) == 1
        assert all(s.coeff(e) == 0 for e in range(1, 11))
        assert (s.lo, s.hi) == (0, 10)

    def test_scaled_power(self):
        s = HalfPowerSeries.monomial(4, 2, 10)
        assert s.coeff(2) == 4
        assert s.coeff(0) == 0

    def test_negative_exponent(self):
        s = HalfPowerSeries.monomial(-1, -2, 10)
        assert s.coeff(-2) == -1
        assert s.lo == -2

    def test_exponent_beyond_bound(self):
        with pytest.raises(TruncationError):
            HalfPowerSeries.monomial(1, 11, 10)


class TestAdd:
    def test_opposite_linear_terms(self):
        one_plus = series_of({0: 1, 2: 1}, 8)
        one_minus = series_of({0: 1, 2: -1}, 8)
        total = one_plus + one_minus
        assert as_dict(total) == {0: 2}

    def test_zero_identity(self):
        s = series_of({0: 3, 5: -2}, 9)
        z = HalfPowerSeries.zero(9)
        assert as_dict(s + z) == as_dict(s)

    def test_bound_is_minimum(self):
        # expansions through different orders: the sum is only as good
        # as the shorter one
        phi = theta_expand(theta_special("phi"), 8)   # through q^4
        psi = theta_expand(theta_special("psi"), 6)   # through q^3
        total = phi + psi
        assert total.hi == 6
        # frozen by hand: phi 1,2,0,0 and psi 1,1,0,1 through q^3
        assert [total.coeff(2 * n) for n in range(4)] == [2, 3, 0, 1]


class TestMul:
    def test_difference_of_squares(self):
        a = series_of({0: 1, 2: 1}, 20)
        b = series_of({0: 1, 2: -1}, 20)
        assert as_dict(a * b) == {0: 1, 4: -1}

    def test_one_identity(self):
        s = series_of({-2: 2, 3: 5}, 15)
        one = HalfPowerSeries.monomial(1, 0, 15)
        prod = s * one
        assert as_dict(prod) == as_dict(s)

    def test_psi_squared_low_coefficients(self):
        # ordered pairs of triangular numbers: 4 = 1+3 = 3+1 gives 2,
        # while 5 admits no representation at all
        psi = theta_expand(theta_special("psi"), 40)
        sq = psi * psi
        tri = [0, 1, 3, 6, 10, 15]
        want = {
            n: sum(1 for a in tri for b in tri if a + b == n) for n in range(16)
        }
        for n, expected in want.items():
            assert sq.coeff(2 * n) == expected
        assert sq.coeff(10) == 0  # q^5
        assert sq.coeff(8) == 2   # q^4

    def test_matches_brute_convolution(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d1 = {int(e): int(c) for e, c in zip(rng.integers(-4, 15, 5), rng.integers(-9, 9, 5)) if c}
            d2 = {int(e): int(c) for e, c in zip(rng.integers(-4, 15, 5), rng.integers(-9, 9, 5)) if c}
            s1, s2 = series_of(d1, 30), series_of(d2, 30)
            prod = s1 * s2
            ref = brute_convolve(d1, d2)
            for e in range(prod.lo, prod.hi + 1):
                assert prod.coeff(e) == ref.get(e, 0)

    def test_validity_uses_valuations(self):
        mono = HalfPowerSeries.monomial(1, 6, 6)
        s = series_of({0: 1, 2: 1}, 10)
        # the monomial's own bound caps the product: its unknown tail
        # meets the other factor's valuation 0
        assert (mono * s).hi == 6
        # a high-valuation second factor pushes the bound up
        t = series_of({6: 1, 8: 1}, 10)
        assert (mono * t).hi == 12
        # exact monomial multiplication is a shift, which loses nothing
        assert s.shift(6).hi == 16

    def test_overflow_detected(self):
        big = HalfPowerSeries.monomial(2**62, 0, 4)
        four = HalfPowerSeries.monomial(4, 0, 4)
        with pytest.raises(CoefficientOverflowError):
            big * four

    def test_overflow_in_scale(self):
        big = HalfPowerSeries.monomial(2**62, 0, 4)
        with pytest.raises(CoefficientOverflowError):
            big.scale(4)

    def test_overflow_in_add(self):
        big = HalfPowerSeries.monomial(2**62 + 5, 0, 4)
        with pytest.raises(CoefficientOverflowError):
            big + big

    def test_large_but_legal_add(self):
        big = HalfPowerSeries.monomial(2**62 + 5, 0, 4)
        small = HalfPowerSeries.monomial(-7, 0, 4)
        assert (big + small).coeff(0) == 2**62 - 2

    def test_large_but_legal_product(self):
        a = HalfPowerSeries.monomial(2**40, 0, 4)
        b = HalfPowerSeries.monomial(2**22, 2, 4)
        assert (a * b).coeff(2) == 2**62


@st.composite
def mul_factor(draw, density: float):
    """A factor for the multiply kernel with about ``density`` nonzeros."""
    # long factors reach the shifted-copy route, whose call overhead
    # keeps it off short ones
    size = draw(st.integers(1, 60) | st.integers(200, 700))
    lo = draw(st.integers(-12, 6))
    magnitude = draw(st.sampled_from([3, 2**20, 2**61]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.integers(-magnitude, magnitude + 1, size)
    coeffs[rng.random(size) >= density] = 0
    coeffs[draw(st.integers(0, size - 1))] = draw(st.sampled_from([-1, 1, 2]))
    return HalfPowerSeries(lo, lo + size - 1, coeffs)


# sparse x sparse, sparse x dense (both orders) and dense x dense
factor_pairs = st.sampled_from(
    [(0.02, 0.02), (0.02, 1.0), (1.0, 0.02), (1.0, 1.0)]
).flatmap(lambda d: st.tuples(mul_factor(d[0]), mul_factor(d[1])))


def exact_window(a: np.ndarray, b: np.ndarray, width: int) -> list[int]:
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a  # the reference loops over the nonzeros of its first factor
    return _exact_convolve(a.tolist(), b.tolist())[:width]


class TestMulKernel:
    """The one multiply kernel against the exact Python-int convolution."""

    @settings(max_examples=150, deadline=None)
    @given(factor_pairs)
    def test_matches_exact_convolution(self, pair):
        a, b = pair
        width = min(a.hi + b.valuation(), b.hi + a.valuation()) - a.lo - b.lo + 1
        ref = exact_window(a.coeffs, b.coeffs, width)
        if any(abs(v) > COEFF_LIMIT for v in ref):
            with pytest.raises(CoefficientOverflowError):
                a * b
            return
        prod = a * b
        assert (prod.lo, prod.hi - prod.lo + 1) == (a.lo + b.lo, width)
        assert prod.coeffs.tolist() == ref

    @settings(max_examples=150, deadline=None)
    @given(factor_pairs, st.integers(1, 1400))
    def test_routes_at_any_width(self, pair, width):
        a, b = pair
        # __mul__'s validity bound keeps every shifted segment full; a
        # wider window reaches the guard for a segment shorter than
        # width - s, and a narrower one cuts the product
        x, y = a.coeffs[:width], b.coeffs[:width]
        assume(x.any() and y.any())  # __mul__ returns zero before the routes
        width = min(width, x.size + y.size - 1)
        ref = exact_window(x, y, width)
        if any(abs(v) > COEFF_LIMIT for v in ref):
            return
        out = _sparse_convolve(x, np.flatnonzero(x), y, np.flatnonzero(y), width)
        if out is None:
            out = _dense_convolve(x, y, width)
        assert out.tolist() == ref

    def test_route_choice(self):
        phi = theta_expand(theta_special("phi"), 4000)
        psi = theta_expand(theta_special("psi"), 4000)
        prod = phi * psi
        nz = np.flatnonzero
        for a, b in ((phi.coeffs, psi.coeffs), (prod.coeffs, psi.coeffs)):
            assert _sparse_convolve(a, nz(a), b, nz(b), a.size) is not None
        noise = np.random.default_rng(3).integers(1, 100, 600)
        assert _sparse_convolve(noise, nz(noise), noise, nz(noise), 600) is None

    def test_sparse_bound_fails_exact_fits(self):
        # sum|a| * max|b| = 2^63 rules out the sparse routes and the dense
        # bound fails too, yet 2^62 (1 - q^100) fits: the exact route wins
        a = series_of({0: 2**62, 100: 2**62}, 300)
        b = series_of({0: 1, 100: -1}, 300)
        prod = a * b
        assert as_dict(prod) == {0: 2**62, 200: -(2**62)}

    def test_true_overflow_raises(self):
        a = series_of({0: 2**62, 100: 2**62}, 300)
        b = series_of({0: 1, 100: 1}, 300)
        with pytest.raises(CoefficientOverflowError):
            a * b


class TestCoeff:
    def test_phi_values(self):
        phi = theta_expand(theta_special("phi"), 20)
        assert phi.coeff(0) == 1
        assert phi.coeff(2) == 2
        assert phi.coeff(7) == 0  # q^{7/2}, off the whole-q grid

    def test_below_lo_is_zero(self):
        s = HalfPowerSeries.monomial(5, 3, 8)
        assert s.coeff(-4) == 0

    def test_above_hi_raises(self):
        s = HalfPowerSeries.monomial(5, 3, 8)
        with pytest.raises(TruncationError):
            s.coeff(9)


class TestSubstitutePower:
    def test_doubles_exponents(self):
        s = series_of({0: 1, 2: 1}, 2)  # 1 + q through q
        out = s.substitute_power(2)
        assert as_dict(out) == {0: 1, 4: 1}
        assert out.hi == 5  # known-zero gap extends the bound

    def test_identity_power(self):
        s = series_of({0: 1, 3: 4}, 9)
        assert s.substitute_power(1) is s

    def test_psi_at_fourth_power(self):
        psi4 = theta_expand(theta_special("psi"), 30).substitute_power(4)
        direct = theta_expand(theta_special("psi", 4), psi4.hi)
        assert psi4.compare(direct, psi4.hi).equal

    def test_composition(self):
        s = series_of({1: 2, 4: -1}, 10)
        a = s.substitute_power(2).substitute_power(3)
        b = s.substitute_power(6)
        through = min(a.hi, b.hi)
        assert a.compare(b, through).equal

    def test_negative_exponents_scale(self):
        s = series_of({-2: 3, 1: -1}, 4)
        out = s.substitute_power(3)
        assert as_dict(out) == {-6: 3, 3: -1}
        assert (out.lo, out.hi) == (-6, 14)


class TestDissect:
    def test_keep_even(self):
        s = series_of({0: 1, 2: 1, 4: 1, 6: 1}, 6)  # 1+q+q^2+q^3
        out = s.dissect(4, 0)
        assert as_dict(out) == {0: 1, 4: 1}

    def test_partition_reassembles(self):
        s = series_of({-3: 2, 0: 1, 2: 5, 7: -4}, 12)
        total = None
        for residue in range(5):
            part = s.dissect(5, residue)
            total = part if total is None else total + part
        assert as_dict(total) == as_dict(s)
        assert total.hi == s.hi

    def test_divide_remaps(self):
        s = series_of({2: 3, 6: -1, 10: 7}, 11)
        out = s.dissect(4, 2, divide=True)
        assert as_dict(out) == {0: 3, 1: -1, 2: 7}

    def test_bad_residue(self):
        s = series_of({0: 1}, 4)
        with pytest.raises(ValueError):
            s.dissect(4, 4)

    def test_divide_below_zero(self):
        s = series_of({-6: 2, -4: 9, -3: 5, 0: 1, 2: 7, 3: -1, 6: 4}, 8)
        out = s.dissect(3, 0, divide=True)
        assert as_dict(out) == {-2: 2, -1: 5, 0: 1, 1: -1, 2: 4}
        assert (out.lo, out.hi) == (-2, 2)

    def test_divide_nonzero_residue(self):
        s = series_of({1: 7, 5: -2, 9: 3}, 10)
        out = s.dissect(4, 1, divide=True)
        assert as_dict(out) == {0: 7, 1: -2, 2: 3}

    def test_window_narrower_than_modulus(self):
        s = series_of({2: 5}, 3)
        assert as_dict(s.dissect(8, 2, divide=True)) == {0: 5}
        assert s.dissect(8, 5, divide=True).is_zero()


class TestCompare:
    def test_equal_to_self(self):
        s = series_of({0: 1, 3: 2}, 9)
        assert s.compare(s, 9).equal

    def test_mismatch_reported(self):
        a = series_of({0: 1, 2: 1}, 9)
        b = series_of({0: 1}, 9)
        report = a.compare(b, 9)
        assert not report.equal
        assert report.mismatch == (2, 1, 0)

    def test_beyond_bound_raises(self):
        a = series_of({0: 1}, 5)
        with pytest.raises(TruncationError):
            a.compare(a, 6)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(small_series, small_series)
    def test_add_commutes(self, a, b):
        left, right = a + b, b + a
        assert as_dict(left) == as_dict(right)
        assert (left.lo, left.hi) == (right.lo, right.hi)

    @settings(max_examples=60, deadline=None)
    @given(small_series, small_series)
    def test_mul_commutes(self, a, b):
        left, right = a * b, b * a
        through = min(left.hi, right.hi)
        assert left.compare(right, through).equal

    @settings(max_examples=40, deadline=None)
    @given(small_series, small_series, small_series)
    def test_mul_associates(self, a, b, c):
        left, right = (a * b) * c, a * (b * c)
        through = min(left.hi, right.hi)
        assert left.compare(right, through).equal

    @settings(max_examples=40, deadline=None)
    @given(small_series, small_series, small_series)
    def test_distributivity(self, a, b, c):
        left = a * (b + c)
        right = a * b + a * c
        through = min(left.hi, right.hi)
        assert left.compare(right, through).equal

    @settings(max_examples=40, deadline=None)
    @given(small_series)
    def test_dissect_partition(self, s):
        total = None
        for residue in range(3):
            part = s.dissect(3, residue)
            total = part if total is None else total + part
        assert as_dict(total) == as_dict(s)
