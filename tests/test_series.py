"""Core series arithmetic: frozen values, independent oracles, ring axioms."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetaq.series import (
    COEFF_LIMIT,
    CoefficientOverflowError,
    EqualityReport,
    HalfPowerSeries,
    TruncationError,
    convolve,
    shifted_copies,
    sum_series,
)
from thetaq import series as series_module
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
    """Coefficient d[e] at each exponent e <= hi, from min(0, hi, least e)."""
    kept = {e: c for e, c in d.items() if e <= hi}
    lo = min(0, hi, *kept)
    coeffs = [0] * (hi - lo + 1)
    for e, c in kept.items():
        coeffs[e - lo] = c
    return HalfPowerSeries(lo, hi, coeffs)


def valuation(s: HalfPowerSeries) -> int:
    """Least exponent with a nonzero coefficient; ``hi`` for the zero series."""
    return next((e for e, _ in s.items()), s.hi)


small_series = st.builds(
    series_of,
    st.dictionaries(st.integers(-6, 12), st.integers(-9, 9), max_size=6),
    st.integers(12, 24),
)


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


class TestSumSeries:
    """Any number of parts added in one buffer under one bound: the sum
    over the parts of their largest magnitude through ``hi``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(small_series, st.integers(-4, 30)), min_size=1, max_size=5),
           st.integers(-8, 12))
    def test_python_integer_sum(self, shifted, hi):
        # some parts start above hi and add nothing
        parts = [s.shift(d) for s, d in shifted if s.hi + d >= hi]
        assume(parts)
        total = sum_series(parts, hi)
        lo = min(hi, *(p.lo for p in parts))
        assert (total.lo, total.hi) == (lo, hi)
        assert total.coeffs.tolist() == [
            sum(p.coeff(e) for p in parts) for e in range(lo, hi + 1)
        ]

    def test_bound_is_the_sum_of_the_largest_magnitudes(self, monkeypatch):
        # the exact sum stays within 2, but a partial sum may reach 2 + 2;
        # the 50 lies above hi and is not added
        parts = [series_of({0: 2}, 3), series_of({1: 2}, 3),
                 series_of({0: -3, 2: 1}, 3), series_of({4: 50}, 6)]
        monkeypatch.setattr(series_module, "COEFF_LIMIT", 7)
        total = sum_series(parts, 3)
        assert (total.lo, total.coeffs.tolist()) == (0, [-1, 2, 1, 0])
        monkeypatch.setattr(series_module, "COEFF_LIMIT", 6)
        with pytest.raises(CoefficientOverflowError, match="sum bound 7 exceeds"):
            sum_series(parts, 3)

    def test_short_part_raises(self):
        with pytest.raises(TruncationError, match="only valid through 2, needed 3"):
            sum_series([series_of({0: 1}, 5), series_of({0: 1}, 2)], 3)


class TestMul:
    def test_difference_of_squares(self):
        a = series_of({0: 1, 2: 1}, 20)
        b = series_of({0: 1, 2: -1}, 20)
        assert as_dict(a * b) == {0: 1, 4: -1}

    def test_one_identity(self):
        s = series_of({-2: 2, 3: 5}, 15)
        one = series_of({0: 1}, 15)
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
        mono = series_of({6: 1}, 6)
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
        big = series_of({0: 2**62}, 4)
        four = series_of({0: 4}, 4)
        with pytest.raises(CoefficientOverflowError):
            big * four

    def test_overflow_in_scale(self):
        big = series_of({0: 2**62}, 4)
        with pytest.raises(CoefficientOverflowError):
            big.scale(4)

    def test_zero_scaled_by_wide_integer(self):
        # the exact product is zero; 2^63 used to reach np.int64 and
        # raise a bare OverflowError
        z = HalfPowerSeries.zero(5)
        for c in (2**63, -(2**70)):
            out = z.scale(c)
            assert out.is_zero() and (out.lo, out.hi) == (0, 5)

    def test_overflow_in_add(self):
        big = series_of({0: 2**62 + 5}, 4)
        with pytest.raises(CoefficientOverflowError):
            big + big

    def test_large_but_legal_add(self):
        big = series_of({0: 2**62 + 5}, 4)
        small = series_of({0: -7}, 4)
        assert (big + small).coeff(0) == 2**62 - 2

    def test_large_but_legal_product(self):
        a = series_of({0: 2**40}, 4)
        b = series_of({2: 2**22}, 4)
        assert (a * b).coeff(2) == 2**62


class TestMostNegativeCoefficient:
    """-2^63 fits int64, but its magnitude is past the 64-bit width."""

    def test_magnitude(self):
        assert series_module._max_abs(np.array([5, -(2**63)])) == 2**63

    @pytest.mark.parametrize("op", [
        lambda s: -s,
        lambda s: s.scale(1),
        lambda s: s + HalfPowerSeries.zero(s.hi),
        lambda s: s * series_of({0: -1}, s.hi),
    ], ids=["neg", "scale", "add", "mul"])
    @pytest.mark.parametrize("coeffs", [[-(2**63)], [5, -(2**63)]], ids=["alone", "beside-5"])
    def test_raises(self, op, coeffs):
        # each used to return -2^63 (the product's true value is 2^63):
        # negation wraps to itself, and |-2^63| read as a negative magnitude
        s = HalfPowerSeries(0, len(coeffs) - 1, coeffs)
        with pytest.raises(CoefficientOverflowError):
            op(s)


# magnitudes on both sides of the 64-bit width, and small ones
wide_coeff = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([2**62, -(2**62), 2**62 + 1, COEFF_LIMIT, -COEFF_LIMIT, -(2**63)]),
)
wide_series = st.builds(
    lambda lo, coeffs: HalfPowerSeries(lo, lo + len(coeffs) - 1, coeffs),
    st.integers(-3, 3), st.lists(wide_coeff, min_size=1, max_size=6),
)


class TestBoundOrRaise:
    """Addition and scaling: the exact Python-integer value when the
    operation's bound fits in 64 bits, else CoefficientOverflowError,
    never a wrapped value."""

    @settings(max_examples=300, deadline=None)
    @given(wide_series, wide_series)
    def test_add(self, a, b):
        lo, hi = min(a.lo, b.lo), min(a.hi, b.hi)
        x = [a.coeff(e) for e in range(lo, hi + 1)]
        y = [b.coeff(e) for e in range(lo, hi + 1)]
        if max(map(abs, x)) + max(map(abs, y)) > COEFF_LIMIT:
            with pytest.raises(CoefficientOverflowError, match="sum bound"):
                a + b
            return
        total = a + b
        assert (total.lo, total.hi) == (lo, hi)
        assert total.coeffs.tolist() == [u + v for u, v in zip(x, y)]

    @settings(max_examples=300, deadline=None)
    @given(wide_series, st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64)))
    def test_scale(self, s, c):
        x = s.coeffs.tolist()
        if c != 0 and abs(c) * max(map(abs, x)) > COEFF_LIMIT:
            with pytest.raises(CoefficientOverflowError, match="scaled bound"):
                s.scale(c)
            return
        out = s.scale(c)
        assert (out.lo, out.hi) == (s.lo, s.hi)
        assert out.coeffs.tolist() == [c * v for v in x]


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


def exact_convolve(a: list[int], b: list[int]) -> list[int]:
    """Reference product in Python integers, which never wrap."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def exact_window(a: np.ndarray, b: np.ndarray, width: int) -> list[int]:
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a  # the reference loops over the nonzeros of its first factor
    return exact_convolve(a.tolist(), b.tolist())[:width]


def product_bound(x: np.ndarray, y: np.ndarray) -> int:
    """sum|x| * max|y|, the bound a route iterating over ``x`` proves."""
    return sum(abs(v) for v in x.tolist()) * max((abs(v) for v in y.tolist()), default=0)


def exact_or_raises(run, x: np.ndarray, y: np.ndarray, ref: list[int]):
    """The one overflow rule for a product: the exact value when the bound
    fits whichever factor a route iterates over, a raise when the exact
    value does not fit, and never a wrapped value.  Returns the output,
    or ``None`` after a raise."""
    fits = max(product_bound(x, y), product_bound(y, x)) <= COEFF_LIMIT
    try:
        out = run()
    except CoefficientOverflowError:
        assert not fits
        return None
    assert all(abs(v) <= COEFF_LIMIT for v in ref)
    assert out.dtype == np.int64 and out.tolist() == ref
    return out


def narrowest(a: np.ndarray, b: np.ndarray) -> type:
    """The type ``shifted_copies`` of ``b`` at the nonzeros of ``a`` must
    return: int16 up to 2^15 - 1, then, for operands with no negative
    value, uint16 up to 2^16 - 1 and uint32 up to 2^32 - 1, else int32 up
    to 2^31 - 1, and int64 past those."""
    bound = product_bound(a, b)
    if bound <= 2**15 - 1:
        return np.int16
    if min(a.tolist(), default=0) >= 0 and min(b.tolist(), default=0) >= 0:
        return np.uint16 if bound <= 2**16 - 1 else np.uint32 if bound <= 2**32 - 1 else np.int64
    return np.int32 if bound <= 2**31 - 1 else np.int64


def copies_of(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """``shifted_copies`` of ``b`` at the nonzeros of the dense factor ``a``."""
    nz = np.flatnonzero(a)
    return shifted_copies(nz, a[nz], b, width)


def route_of(monkeypatch, a: np.ndarray, b: np.ndarray, width: int):
    """The route ``convolve`` takes for the first ``width`` columns of
    a * b, "shifted" or "pairwise", and its output."""
    taken = []

    def spy(*args):
        taken.append("shifted")
        return shifted_copies(*args)

    monkeypatch.setattr(series_module, "shifted_copies", spy)
    out = convolve(a, np.flatnonzero(a), b, np.flatnonzero(b), width)
    return (taken[0] if taken else "pairwise"), out


class TestMulKernel:
    """The one multiply kernel against the exact Python-int convolution."""

    @settings(max_examples=150, deadline=None)
    @given(factor_pairs)
    def test_matches_exact_convolution(self, pair):
        a, b = pair
        width = min(a.hi + valuation(b), b.hi + valuation(a)) - a.lo - b.lo + 1
        x, y = a.coeffs[:width], b.coeffs[:width]
        ref = exact_window(x, y, width)
        prod = exact_or_raises(lambda: (a * b).coeffs, x, y, ref)
        if prod is not None:
            assert (a * b).lo == a.lo + b.lo and prod.size == width

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
        exact_or_raises(
            lambda: convolve(x, np.flatnonzero(x), y, np.flatnonzero(y), width), x, y, ref
        )

    def test_route_choice(self, monkeypatch):
        # pairwise products while both factors are sparse, else shifted
        # copies of the denser factor, dense factors included: there is
        # no third route
        phi = theta_expand(theta_special("phi"), 4000)
        psi = theta_expand(theta_special("psi"), 4000)
        noise = np.random.default_rng(3).integers(1, 100, 600)
        for a, b, want in ((phi.coeffs, psi.coeffs, "pairwise"),
                           ((phi * psi).coeffs, psi.coeffs, "shifted"),
                           (noise, noise, "shifted")):
            route, out = route_of(monkeypatch, a, b, a.size)
            assert route == want
            assert out.dtype == np.int64  # the shifted copies' narrow type is widened
            assert out.tolist() == exact_window(a, b, a.size)

    def test_unproven_bound_raises(self):
        # 2^62 (1 - q^100) fits, but sum|a| * max|b| = 2^63 does not, on
        # any route: no operation falls back to Python integers
        a = series_of({0: 2**62, 100: 2**62}, 300)
        b = series_of({0: 1, 100: -1}, 300)
        with pytest.raises(CoefficientOverflowError, match="product bound"):
            a * b

    @pytest.mark.parametrize("route", ["pairwise", "shifted"])
    def test_bound_at_the_edge(self, monkeypatch, route):
        # sum|a| * max|b| == COEFF_LIMIT runs in int64; one more raises
        a = np.zeros(400, dtype=np.int64)
        a[[0, 399]] = [COEFF_LIMIT - 1, 1]
        if route == "pairwise":
            b = np.zeros(400, dtype=np.int64)
            b[[0, 200]] = [1, -1]
        else:  # every column of b nonzero
            b = np.resize(np.array([1, -1], dtype=np.int64), 400)
        taken, out = route_of(monkeypatch, a, b, 400)
        assert taken == route
        assert out.tolist() == exact_window(a, b, 400)
        a[0] += 1
        with pytest.raises(CoefficientOverflowError, match="product bound"):
            route_of(monkeypatch, a, b, 400)

    def test_true_overflow_raises(self):
        a = series_of({0: 2**62, 100: 2**62}, 300)
        b = series_of({0: 1, 100: 1}, 300)
        with pytest.raises(CoefficientOverflowError):
            a * b


class RecordingAdd:
    """``np.add`` whose ``at`` records the size of each block it adds."""

    def __init__(self, sizes: list):
        self.sizes, self.add = sizes, np.add

    def __call__(self, *args, **kwargs):
        return self.add(*args, **kwargs)

    def at(self, out, idx, vals):
        self.sizes.append(idx.size)
        self.add.at(out, idx, vals)


def pair_loop(out: list, e1, w1, e2, w2, sets) -> list:
    """``scatter_pairs`` as a Python-int double loop per set."""
    for base, cut, i0, i1, j0, j1 in sets:
        for x, a in zip(e1[i0:i1], w1[i0:i1]):
            for y, b in zip(e2[j0:j1], w2[j0:j1]):
                if x + y <= cut:
                    out[base + x + y] += a * b
    return out


class TestScatterPairs:
    """The one pair kernel against a Python-int double loop."""

    @settings(max_examples=300, deadline=None)
    @given(e1=st.lists(st.integers(-8, 30), max_size=25),
           e2=st.lists(st.integers(-8, 30), max_size=25),
           block=st.sampled_from([1, 5, 64]), data=st.data())
    def test_matches_double_loop(self, e1, e2, block, data):
        # small ranges repeat exponents; lo lies at or below every pair
        # sum, and the output may end before the last one
        w1 = data.draw(st.lists(st.integers(-2, 2), min_size=len(e1), max_size=len(e1)))
        w2 = data.draw(st.lists(st.integers(-2, 2), min_size=len(e2), max_size=len(e2)))
        sums = [x + y for x in e1 for y in e2]
        lo = min(sums, default=0) - data.draw(st.integers(0, 5))
        width = data.draw(st.integers(1, max(sums, default=lo) - lo + 4))
        start = data.draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width))
        one_set = ((-lo, lo + width - 1, 0, len(e1), 0, len(e2)),)
        want = pair_loop(list(start), e1, w1, e2, w2, one_set)
        out = np.array(start, dtype=np.int64)
        arrays = [np.array(v, dtype=np.int64) for v in (e1, w1, e2, w2)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "_PAIR_BLOCK", block)
            series_module.scatter_pairs(out, *arrays, one_set)
        assert out.tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(e=st.lists(st.integers(-8, 30), min_size=1, max_size=40),
           block=st.sampled_from([1, 5, 64, 1 << 16]),
           ragged=st.sampled_from([1, 8, 1024]), data=st.data())
    def test_sets_match_double_loop(self, e, block, ragged, data):
        # sets of one flat pair of arrays, empty ones too, each with its
        # own base and cut, in ragged and broadcast blocks alike
        w = data.draw(st.lists(st.integers(-2, 2), min_size=len(e), max_size=len(e)))
        slices = st.tuples(st.integers(0, len(e)), st.integers(0, len(e))).map(sorted)
        sets = []
        for _ in range(data.draw(st.integers(1, 6))):
            (i0, i1), (j0, j1) = data.draw(slices), data.draw(slices)
            sums = [x + y for x in e[i0:i1] for y in e[j0:j1]] or [0]
            cut = data.draw(st.integers(min(sums) - 1, max(sums) + 1))
            base = data.draw(st.integers(0, 6)) - min(sums)
            sets.append((base, cut, i0, i1, j0, j1))
        width = max(base + cut for base, cut, *_ in sets) + 1 + data.draw(st.integers(0, 3))
        start = data.draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width))
        want = pair_loop(list(start), e, w, e, w, sets)
        out = np.array(start, dtype=np.int64)
        e_arr, w_arr = np.array(e, dtype=np.int64), np.array(w, dtype=np.int64)
        sizes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "_PAIR_BLOCK", block)
            mp.setattr(series_module, "_RAGGED_PAIRS", ragged)
            mp.setattr(np, "add", RecordingAdd(sizes))
            series_module.scatter_pairs(out, e_arr, w_arr, e_arr, w_arr, sets)
        assert out.tolist() == want
        assert all(size <= block for size in sizes)

    @pytest.mark.parametrize("block,broadcast,ragged", [
        (5, [5] * 20, [4] * 4),  # 4 + 4 pairs would pass the block
        (64, [60, 40], [16]),  # six rows of the 10 x 10 set at a time
    ])
    def test_small_sets_share_ragged_blocks(self, monkeypatch, block, broadcast, ragged):
        # four sets of 4 pairs share blocks of at most ``block`` pairs; the
        # set of 100 pairs is outer products, at most ``block`` at a time
        e = np.arange(20, dtype=np.int64)
        w = np.ones(20, dtype=np.int64)
        small = [(0, 100, i, i + 2, 10, 12) for i in (0, 2, 4, 6)]
        sets = [*small[:2], (0, 100, 0, 10, 10, 20), *small[2:]]
        sizes = []
        monkeypatch.setattr(series_module, "_PAIR_BLOCK", block)
        monkeypatch.setattr(np, "add", RecordingAdd(sizes))
        out = np.zeros(40, dtype=np.int64)
        series_module.scatter_pairs(out, e, w, e, w, sets)
        monkeypatch.undo()
        assert out.tolist() == pair_loop([0] * 40, e.tolist(), w.tolist(),
                                         e.tolist(), w.tolist(), sets)
        assert sorted(sizes) == sorted(broadcast + ragged)

    def test_one_set_is_outer_products(self, monkeypatch):
        # a one-set call forms outer products even below the ragged size,
        # as convolve and the count tables' class products need
        e = np.arange(6, dtype=np.int64)
        sizes = []
        monkeypatch.setattr(series_module, "_PAIR_BLOCK", 4)
        monkeypatch.setattr(np, "add", RecordingAdd(sizes))
        out = np.zeros(12, dtype=np.int64)
        series_module.scatter_pairs(out, e, e, e, e, ((0, 11, 0, 3, 0, 3),))
        monkeypatch.undo()
        assert sizes == [3, 3, 3]  # one row of 3 pairs at a time, 4 // 3 rows a block


class TestShiftedCopies:
    """The tiled shifted-copies route at any output width."""

    @settings(max_examples=150, deadline=None)
    @given(pair=st.sampled_from([(0.02, 1.0), (0.02, 0.02), (0.3, 1.0)]).flatmap(
               lambda d: st.tuples(mul_factor(d[0]), mul_factor(d[1]))),
           tile=st.sampled_from([1, 7, 64, 1 << 15]), data=st.data())
    def test_columns_at_any_width(self, pair, tile, data):
        # small tiles make short outputs span many of them
        x, y = pair[0].coeffs, pair[1].coeffs
        width = data.draw(st.integers(1, x.size + y.size - 1))
        ref = exact_window(x, y, width)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "_SHIFT_TILE", tile)
            if product_bound(x, y) > COEFF_LIMIT:
                with pytest.raises(CoefficientOverflowError, match="product bound"):
                    copies_of(x, y, width)
                return
            out = copies_of(x, y, width)
        assert out.dtype.type is narrowest(x, y)
        assert out.tolist() == ref

    def test_several_full_tiles(self):
        # theta-shaped factors at the real tile size: 1 and 2 coefficients
        # (phi) against a dense product
        phi = theta_expand(theta_special("phi", 3), 200_000).coeffs[::2]
        dense = np.random.default_rng(5).integers(-50, 50, 100_001)
        width = 100_001
        out = copies_of(phi, dense, width)
        ref = np.zeros(width, dtype=np.int64)  # untiled; |ref| < 2^30
        for s in np.flatnonzero(phi).tolist():
            ref[s:] += phi[s] * dense[: width - s]
        assert np.array_equal(out, ref)

    def test_bound_failure_writes_nothing(self):
        # B = (2^62 + 1) * 2 is past 64 bits although column 1, 2^62 + 2,
        # fits: the raise comes before any column is written
        a = np.array([2**62, 0, 1], dtype=np.int64)
        b = np.array([2, 1, 1], dtype=np.int64)
        with pytest.raises(CoefficientOverflowError, match="product bound"):
            copies_of(a, b, 5)


class TestNarrowAccumulator:
    """The shifted copies in int16 and int32, and in uint16 and uint32
    when no operand is negative, at the edges of those types, returned
    in the type that holds B."""

    EDGES = sorted({e + d for e in (2**15 - 1, 2**15, 2**16 - 1, 2**16, 2**31 - 1, 2**31,
                                    2**32 - 1, 2**32) for d in (-1, 0, 1)})

    @settings(max_examples=300, deadline=None)
    @given(bound=st.sampled_from(EDGES), tile=st.sampled_from([1, 7, 1 << 15]),
           data=st.data())
    def test_bound_at_type_edges(self, bound, tile, data):
        # sum|a| * max|b| == bound exactly; with aligned signs and a constant
        # b, the columns every copy overlaps reach +-bound
        top = data.draw(st.sampled_from([d for d in range(1, 65) if bound % d == 0]))
        k = data.draw(st.integers(1, 6))
        cuts = data.draw(st.lists(st.integers(1, bound // top - 1), min_size=k - 1,
                                  max_size=k - 1, unique=True))
        edges = [0, *sorted(cuts), bound // top]
        parts = np.diff(edges)
        aligned = data.draw(st.booleans())
        sign = data.draw(st.sampled_from([-1, 1]))
        signs = [sign] * k if aligned else data.draw(
            st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k))
        shifts = data.draw(st.lists(st.integers(0, 40), min_size=k, max_size=k, unique=True))
        a = np.zeros(41, dtype=np.int64)
        a[shifts] = parts * signs
        size = data.draw(st.integers(1, 80))
        if aligned:
            b = np.full(size, top, dtype=np.int64)
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            b = rng.integers(-top, top + 1, size)
            b[data.draw(st.integers(0, size - 1))] = data.draw(st.sampled_from([-top, top]))
        width = data.draw(st.integers(1, a.size + b.size - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series_module, "_SHIFT_TILE", tile)
            out = copies_of(a, b, width)
        # aligned positive operands are unsigned: every edge of both kinds
        assert out.dtype.type is narrowest(a, b)
        assert out.tolist() == exact_window(a, b, width)

    @pytest.mark.parametrize("bound", EDGES)
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_sum_reaches_each_edge(self, bound, sign):
        # three copies of a constant b overlap on columns 9..29, where the
        # sum is sign * bound
        top = max(d for d in range(1, 65) if bound % d == 0)
        a = np.zeros(10, dtype=np.int64)
        third = bound // top // 3
        a[[0, 5, 9]] = [third, third, bound // top - 2 * third]
        b = np.full(30, sign * top, dtype=np.int64)
        out = copies_of(a, b, 39)
        assert out.dtype.type is narrowest(a, b)
        assert int(out[9]) == sign * bound
        assert out.tolist() == exact_window(a, b, 39)

    def test_zero_bound_casts_nothing(self):
        # 40000 does not fit in int16, but a zero b makes B = 0: the result
        # is zeros of the narrowest type, and no coefficient is cast
        a = np.array([0, 40_000, 0, -3], dtype=np.int64)
        zero = series_module._accumulator(0)
        for b in (np.zeros(9, dtype=np.int64), np.zeros(0, dtype=np.int64)):
            out = copies_of(a, b, 10)
            assert out.dtype.type is zero and out.tolist() == [0] * 10
        nothing = np.zeros(5, dtype=np.int64)
        out = copies_of(nothing, a, 4)
        assert out.dtype.type is zero and out.tolist() == [0] * 4


class TestCoeff:
    def test_phi_values(self):
        phi = theta_expand(theta_special("phi"), 20)
        assert phi.coeff(0) == 1
        assert phi.coeff(2) == 2
        assert phi.coeff(7) == 0  # q^{7/2}, off the whole-q grid

    def test_below_lo_is_zero(self):
        s = series_of({3: 5}, 8)
        assert s.coeff(-4) == 0

    def test_above_hi_raises(self):
        s = series_of({3: 5}, 8)
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

    def test_through_below_both_lo(self):
        # every coefficient through 1 is a contract zero on both sides;
        # this used to raise numpy's "negative dimensions" ValueError
        s = HalfPowerSeries(3, 8, range(6))
        assert s.compare(s, 1) == EqualityReport(True, 1)
        assert s.compare(series_of({1: 4}, 8), 1) == EqualityReport(False, 1, (1, 0, 4))


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
