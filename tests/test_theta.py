"""Theta expansion, the product-form oracle, normalization, dissections."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq import theta as theta_module
from thetaq.series import COEFF_LIMIT, CoefficientOverflowError, HalfPowerSeries
from thetaq.theta import (
    ExpansionError,
    ThetaArg,
    jacobi_triple_product,
    theta_dissection,
    theta_expand,
    theta_normalize,
    theta_special,
)

BOUND = 120


def expand(eps, a, b, hi=BOUND):
    return theta_expand(ThetaArg(eps, a, b), hi)


def q_coeffs(series, n_max):
    return [series.coeff(2 * n) for n in range(n_max + 1)]


def reference_terms(a, b, hi):
    """(n, exponent) of every term at most hi, in Python ints, walking out
    from the vertex."""
    s, d = a + b, a - b
    for n, step in ((-d // (2 * s) + 1, 1), (-d // (2 * s), -1)):
        while True:
            e = (a * n * (n + 1) + b * n * (n - 1)) // 2
            if e > hi and step * (2 * s * n + d) > 0:  # past the vertex
                break
            if e <= hi:
                yield n, e
            n += step


def reference_expand(eps, a, b, hi):
    """The bilateral sum in Python ints."""
    out = {}
    for n, e in reference_terms(a, b, hi):
        out[e] = out.get(e, 0) + eps ** (n % 2)
    return {e: c for e, c in out.items() if c}


def exponent_bound(a, b, hi):
    """max(s, 2*max(hi, d^2 // 8s + 1) + |d|), the bound term_exponents
    proves for every intermediate of its exponent formula."""
    s, d = a + b, a - b
    return max(s, 2 * max(hi, d * d // (8 * s) + 1) + abs(d))


def exact_or_raises(eps, a, b, hi):
    """The one overflow rule for exponents: the Python-int reference when
    the bound fits in 64 bits, else CoefficientOverflowError."""
    if ThetaArg(eps, a, b).is_zero_function():  # forms no exponent
        assert expand(eps, a, b, hi).is_zero()
        return
    bound = exponent_bound(a, b, hi)
    if bound > COEFF_LIMIT:
        with pytest.raises(CoefficientOverflowError, match="64-bit width"):
            expand(eps, a, b, hi)
        return
    s, d = a + b, a - b
    for n, _ in reference_terms(a, b, hi):
        assert max(abs(s), abs(d), abs(s * n), abs((s * n + d) * n)) <= bound
    assert dict(expand(eps, a, b, hi).items()) == reference_expand(eps, a, b, hi)


class TestSpecials:
    def test_phi_counts_square_representations(self):
        phi = theta_expand(theta_special("phi"), 2 * 30)
        squares = {n * n for n in range(-10, 11)}
        for n in range(31):
            want = 2 if n in squares and n > 0 else (1 if n == 0 else 0)
            assert phi.coeff(2 * n) == want

    def test_psi_hits_triangular_numbers(self):
        psi = theta_expand(theta_special("psi"), 2 * 30)
        tri = {n * (n + 1) // 2 for n in range(30)}
        for n in range(31):
            assert psi.coeff(2 * n) == (1 if n in tri else 0)

    def test_pentagonal_and_octagonal(self):
        X = theta_expand(theta_special("X"), 2 * 30)
        Y = theta_expand(theta_special("Y"), 2 * 30)
        pent = {m * (3 * m + 1) // 2 for m in range(-10, 11)}
        octa = {m * (3 * m + 2) for m in range(-10, 11)}
        for n in range(31):
            assert X.coeff(2 * n) == (1 if n in pent else 0)
            assert Y.coeff(2 * n) == (1 if n in octa else 0)

    def test_signed_pentagonal_series(self):
        fneg = theta_expand(theta_special("fneg"), 2 * 30)
        signed = {m * (3 * m + 1) // 2: (-1) ** m for m in range(-10, 11)}
        for n in range(31):
            assert fneg.coeff(2 * n) == signed.get(n, 0)

    def test_scale_argument(self):
        arg = theta_special("phi", 2)
        assert (arg.eps, arg.a, arg.b) == (1, 4, 4)
        assert theta_expand(arg, 20).coeff(4) == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            theta_special("zeta")


class TestExpand:
    def test_zero_function_rule(self):
        assert expand(-1, 0, 6).is_zero()
        assert expand(-1, 6, 0).is_zero()

    def test_unit_argument_doubles(self):
        # f at argument 1 equals twice the series at the shifted argument
        for b in (2, 4, 6, 10):
            left = expand(1, 0, b)
            right = expand(1, b, 3 * b).scale(2)
            assert left.compare(right, BOUND).equal

    def test_symmetry(self):
        for eps in (1, -1):
            for a, b in [(2, 6), (1, 4), (0, 2), (3, 3), (-2, 8)]:
                assert expand(eps, a, b).compare(expand(eps, b, a), BOUND).equal

    def test_negative_exponent_shifts(self):
        got = expand(1, -2, 6)
        want = theta_expand(theta_special("phi"), BOUND + 2).shift(-2)
        assert got.compare(want, BOUND).equal
        assert next(got.items())[0] == -2  # least nonzero exponent

    @pytest.mark.parametrize("eps,a,b,hi,want", [
        (1, 2**63, 0, 100, CoefficientOverflowError("64-bit width")),
        (-1, 2**62 + 1, -1, 100, {-1: -1, 0: 1}),
        (1, 2**62 - 3, 5, 200, {0: 1, 5: 1}),
        (-1, 3, 2**63 + 7, 500, CoefficientOverflowError("64-bit width")),
    ])
    def test_huge_exponents_stay_exact(self, eps, a, b, hi, want):
        # a + b or a - b past 64 bits raises; an argument whose bound fits
        # expands in int64, exactly
        if isinstance(want, CoefficientOverflowError):
            with pytest.raises(CoefficientOverflowError, match=str(want)):
                expand(eps, a, b, hi)
            return
        assert dict(expand(eps, a, b, hi).items()) == want == reference_expand(eps, a, b, hi)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from((1, -1)), st.integers(2**61, 2**63), st.integers(-50, 1000),
           st.booleans(), st.integers(-60, 3000))
    def test_huge_exponents_match_reference(self, eps, big, small, swap, hi):
        a, b = (small, big) if swap else (big, small)
        exact_or_raises(eps, a, b, hi)

    def test_bound_at_the_edge(self):
        # s = 2^63 - 1 with d = 0 is the widest argument that fits
        exact_or_raises(1, 2**62, 2**62 - 1, 10)
        assert dict(expand(1, 2**62, 2**62 - 1, 10).items()) == {0: 1}
        with pytest.raises(CoefficientOverflowError, match="64-bit width"):
            expand(1, 2**62, 2**62, 10)

    @pytest.mark.parametrize("eps,a,b", [(1, 2, 6), (-1, 2, 4), (1, 0, 6), (-1, -2, 8),
                                         (1, 3, 3), (1, -5, 7), (-1, 1, 20)])
    def test_matches_reference(self, eps, a, b):
        for hi in (-3, 0, 1, 57, 400):
            assert dict(expand(eps, a, b, hi).items()) == reference_expand(eps, a, b, hi)

    @staticmethod
    def vertex_minimum(a, b):
        """min(0, e(n)) over the integers n either side of the real vertex."""
        vertex = Fraction(-(a - b), 2 * (a + b))
        exps = [((a + b) * n + (a - b)) * n // 2
                for n in (math.floor(vertex), math.ceil(vertex))]
        return min(0, *exps)

    def test_min_exponent_past_53_bits(self):
        # the vertex used to be a float, off by 420 here
        arg = ThetaArg(1, 2049850523259563094, -2049850523259563086)
        assert arg.min_exponent() == -262617947981719037540210321105646756
        assert arg.min_exponent() == self.vertex_minimum(arg.a, arg.b)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((1, -1)), st.one_of(st.integers(1, 64), st.integers(1, 2**62)),
           st.integers(-2**62, 2**62))
    def test_min_exponent_is_exact(self, eps, s, d):
        # a vertex -d/(2s) beyond 2^53 is where a float loses the integers
        if (s + d) % 2:
            d += 1
        a, b = (s + d) // 2, (s - d) // 2
        if eps == -1 and 0 in (a, b):
            return  # the zero function
        got = ThetaArg(eps, a, b).min_exponent()
        assert got == self.vertex_minimum(a, b)
        if abs(a) + abs(b) < 500:
            assert got == min(0, min(reference_expand(1, a, b, 0), default=0))

    def test_divergent_raises(self):
        # a + b <= 0 diverges, whatever the sign; a -q^0 argument does not
        # make it the zero function
        for eps, a, b in [(1, -4, 2), (1, 0, 0), (-1, 0, 0), (-1, 0, -2)]:
            with pytest.raises(ExpansionError, match="divergent specialization"):
                ThetaArg(eps, a, b)
            with pytest.raises(ExpansionError):
                expand(eps, a, b)

    def test_window_of_the_one_factor_scatter(self):
        # theta_expand runs from min(hi, m) to hi, m the least exponent
        for hi, window in [(5, (-2, 5)), (-2, (-2, -2)), (-3, (-3, -3))]:
            got = expand(1, -2, 6, hi)  # least exponent -2
            assert (got.lo, got.hi) == window
            assert dict(got.items()) == reference_expand(1, -2, 6, hi)

    @pytest.mark.parametrize("hi", [-4, 0, 9])
    def test_zero_function_is_valid_through_the_bound(self, hi):
        # one zero coefficient at hi, also below 0
        got = expand(-1, 0, 6, hi)
        assert (got.lo, got.hi) == (hi, hi) and got.is_zero()


class TestOnePairKernel:
    """A theta expansion is one call of the pair kernel: its term
    exponents, weighted eps^n, against the constant 1."""

    @staticmethod
    def kernel_calls(monkeypatch, arg, hi):
        calls = []
        kernel = theta_module.scatter_pairs

        def spy(out, lo, e1, w1, e2, w2):
            calls.append([v.tolist() for v in (e1, w1, e2, w2)])
            kernel(out, lo, e1, w1, e2, w2)

        monkeypatch.setattr(theta_module, "scatter_pairs", spy)
        got = theta_expand(arg, hi)
        monkeypatch.undo()
        assert dict(got.items()) == reference_expand(arg.eps, arg.a, arg.b, hi)
        return calls

    def test_psi_hands_over_its_term_exponents(self, monkeypatch):
        # about 140 pairs through 20000 half-units, not one per column
        psi = theta_special("psi")
        (e1, w1, e2, w2), = self.kernel_calls(monkeypatch, psi, 20000)
        assert e1 == theta_module.term_exponents(psi, 20000)[1].tolist()
        assert e1 == [e for _, e in sorted(reference_terms(psi.a, psi.b, 20000))]
        assert w1 == [1] * len(e1) and (e2, w2) == ([0], [1])

    def test_signed_factor_is_one_pair_set(self, monkeypatch):
        # one call with weights (-1)^n, not one pass per parity class
        arg = ThetaArg(-1, 2, 4)
        (e1, w1, e2, w2), = self.kernel_calls(monkeypatch, arg, 400)
        terms = sorted(reference_terms(arg.a, arg.b, 400))
        assert e1 == [e for _, e in terms]
        assert w1 == [(-1) ** (n % 2) for n, _ in terms]
        assert set(w1) == {-1, 1} and (e2, w2) == ([0], [1])


class TestTripleProductOracle:
    def test_matches_on_grid(self):
        for eps in (1, -1):
            for a in range(0, 13):
                for b in range(a, 13):
                    if a + b == 0:
                        continue
                    arg = ThetaArg(eps, a, b)
                    left = theta_expand(arg, BOUND)
                    right = jacobi_triple_product(arg, BOUND)
                    assert left.compare(right, BOUND).equal, (eps, a, b)

    def test_vanishing_unit_factor(self):
        assert jacobi_triple_product(ThetaArg(-1, 0, 2), 60).is_zero()

    def test_rejects_negative_exponents(self):
        with pytest.raises(ExpansionError):
            jacobi_triple_product(ThetaArg(1, -2, 6), 20)


def running_peak(arg, hi):
    """Largest coefficient magnitude the triple product holds before any
    of its factors, from the same product in Python integers."""
    a, b, eps, s = arg.a, arg.b, arg.eps, arg.a + arg.b
    coeffs, peak, n = [1] + [0] * hi, 0, 0
    while min(a, b) + s * n <= hi:
        for e, sign in ((a + s * n, eps), (b + s * n, eps), (s * (n + 1), -1)):
            if e <= hi:
                peak = max(peak, *map(abs, coeffs))
                coeffs = [c + sign * coeffs[i - e] if i >= e else c
                          for i, c in enumerate(coeffs)]
        n += 1
    return peak


class TestProductBound:
    """One factor at most doubles the running product: with COEFF_LIMIT at
    twice its peak the product is built, one below it is refused."""

    ARGS = [ThetaArg(1, 0, 2), ThetaArg(1, 2, 2), ThetaArg(1, 2, 6), ThetaArg(-1, 1, 3)]

    @pytest.mark.parametrize("arg", ARGS, ids=str)
    def test_refused_past_the_bound(self, monkeypatch, arg):
        monkeypatch.setattr(theta_module, "COEFF_LIMIT", 2 * running_peak(arg, 200) - 1)
        with pytest.raises(CoefficientOverflowError, match="64-bit"):
            jacobi_triple_product(arg, 200)

    @pytest.mark.parametrize("arg", ARGS, ids=str)
    def test_built_at_the_bound(self, monkeypatch, arg):
        # the reference first: the patched limit also bounds term_exponents
        want = theta_expand(arg, 200)
        monkeypatch.setattr(theta_module, "COEFF_LIMIT", 2 * running_peak(arg, 200))
        assert jacobi_triple_product(arg, 200).compare(want, 200).equal

    @pytest.mark.parametrize("arg", ARGS, ids=str)
    def test_matches_the_bilateral_sum_at_600(self, arg):
        assert jacobi_triple_product(arg, 600).compare(theta_expand(arg, 600), 600).equal


class TestNormalize:
    def test_plain_shift(self):
        nt = theta_normalize(ThetaArg(1, -2, 6))
        assert (nt.sign, nt.shift) == (1, -2)
        assert (nt.arg.a, nt.arg.b) == (2, 2)

    def test_identity_when_nonnegative(self):
        nt = theta_normalize(ThetaArg(1, 6, 2))
        assert (nt.sign, nt.shift) == (1, 0)
        assert (nt.arg.a, nt.arg.b) == (2, 6)

    def test_sign_twist(self):
        nt = theta_normalize(ThetaArg(-1, -2, 6))
        assert nt.sign == -1
        assert nt.shift == -2
        assert nt.arg == ThetaArg(-1, 2, 2)

    def test_round_trips_on_half_grid(self):
        for eps in (1, -1):
            for r in range(0, 13):
                for s in range(r + 1, 13):
                    arg = ThetaArg(eps, -r, s)
                    nt = theta_normalize(arg)
                    direct = theta_expand(arg, BOUND)
                    via = nt.expand(BOUND)
                    assert direct.compare(via, BOUND).equal, (eps, r, s)
                    assert 0 <= nt.arg.a <= nt.arg.b

    def test_rejects_hopeless_arguments(self):
        with pytest.raises(ExpansionError):
            theta_normalize(ThetaArg(1, -6, 2))
        with pytest.raises(ExpansionError):
            theta_normalize(ThetaArg(1, -2, -2))


class TestDissection:
    def test_phi_two_way(self):
        terms = theta_dissection(theta_special("phi"), 2)
        assert terms == [
            (1, 0, ThetaArg(1, 8, 8)),
            (1, 2, ThetaArg(1, 16, 0)),
        ]

    def test_psi_two_way(self):
        terms = theta_dissection(theta_special("psi"), 2)
        assert terms == [
            (1, 0, ThetaArg(1, 12, 20)),
            (1, 2, ThetaArg(1, 28, 4)),
        ]

    def test_pentagonal_two_way(self):
        terms = theta_dissection(theta_special("X"), 2)
        assert terms == [
            (1, 0, ThetaArg(1, 10, 14)),
            (1, 2, ThetaArg(1, 22, 2)),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "arg",
        [
            theta_special("phi"),
            theta_special("psi"),
            theta_special("fneg"),
            ThetaArg(1, 1, 3),
            ThetaArg(-1, 2, 3),
        ],
    )
    def test_partition_property(self, arg, n):
        whole = theta_expand(arg, BOUND)
        total = HalfPowerSeries.zero(BOUND)
        for sign, shift, part in theta_dissection(arg, n):
            piece = theta_expand(part, BOUND - shift).shift(shift)
            if sign == -1:
                piece = -piece
            total = total + piece
        assert whole.compare(total, BOUND).equal

    def test_two_way_split_with_negative_argument(self):
        # second term's argument picks up a negative exponent when b < a;
        # normalization makes it expandable and the sum still reassembles
        arg = ThetaArg(1, 6, 2)
        parts = theta_dissection(arg, 2)
        assert any(min(p.a, p.b) < 0 for _, _, p in parts)
        whole = theta_expand(arg, BOUND)
        total = HalfPowerSeries.zero(BOUND)
        for sign, shift, part in parts:
            nt = theta_normalize(part)
            piece = nt.expand(BOUND - shift).shift(shift)
            if sign == -1:
                piece = -piece
            total = total + piece
        assert whole.compare(total, BOUND).equal


class TestClassicalLemmas:
    def test_product_pairing_lemma(self):
        # f(a,b) f(c,d) + f(-a,-b) f(-c,-d) = 2 f(a+c, b+d) f(a+d, b+c)
        # whenever a+b = c+d, in exponent form
        for s in range(1, 9):
            for a in range(0, s // 2 + 1):
                for c in range(0, s // 2 + 1):
                    b, d = s - a, s - c
                    left = (
                        expand(1, a, b) * expand(1, c, d)
                        + expand(-1, a, b) * expand(-1, c, d)
                    )
                    right = (expand(1, a + c, b + d) * expand(1, a + d, b + c)).scale(2)
                    assert left.compare(right, BOUND).equal, (a, b, c, d)

    def test_psi_product_identity(self):
        # f(x, x+2y) f(y, 2x+y) = f(x, y) * psi-series at exponent x+y
        for x in range(0, 7):
            for y in range(0, 7):
                if x + y == 0:
                    continue
                left = expand(1, x, x + 2 * y) * expand(1, y, 2 * x + y)
                right = expand(1, x, y) * expand(1, x + y, 3 * (x + y))
                assert left.compare(right, BOUND).equal, (x, y)

    def test_sign_split_identity(self):
        # f(a,b) f(-a,-b) = f(-a^2,-b^2) phi(-product) in exponent form
        for x in range(0, 7):
            for y in range(0, 7):
                if x + y == 0:
                    continue
                left = expand(1, x, y) * expand(-1, x, y)
                right = expand(-1, 2 * x, 2 * y) * expand(-1, x + y, x + y)
                assert left.compare(right, BOUND).equal, (x, y)

    def test_quarter_split_via_dissection(self):
        # f(a,b) = f(a^3 b, a b^3) + a f(b/a, a^5 b^3) as the two-way split,
        # including arguments where b/a carries a negative exponent
        for eps in (1, -1):
            for a in range(1, 6):
                for b in range(1, 6):
                    (s0, h0, t0), (s1, h1, t1) = theta_dissection(
                        ThetaArg(eps, a, b), 2
                    )
                    assert (s0, h0, t0.a, t0.b) == (1, 0, 3 * a + b, a + 3 * b)
                    assert (h1, t1.a, t1.b) == (a, 5 * a + 3 * b, b - a)
                    assert s1 == eps and t0.eps == t1.eps == 1
