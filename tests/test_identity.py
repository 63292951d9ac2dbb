"""Product decompositions: validation, term counts, display cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq import identity
from thetaq import series as series_module
from thetaq import theta as theta_module
from thetaq.series import COEFF_LIMIT, CoefficientOverflowError, HalfPowerSeries
from thetaq.theta import (
    ThetaArg,
    jacobi_triple_product,
    term_exponents,
    theta_expand,
    theta_normalize,
    theta_special,
)
from thetaq.identity import (
    PairParams,
    ThetaProduct,
    TripleParams,
    expand_sum,
    instantiate_corollary,
    _all_even,
    _reduced_signed_pair,
    load_identity_catalog,
    pair_lhs,
    pair_rhs,
    signed_pair_params,
    triple_lhs,
    triple_rhs,
    validate_pair,
    validate_triple,
    verify_corollary,
    verify_pair,
    verify_triple,
)

T = 240  # default half-unit comparison bound for this module


def special(name, scale=1, hi=T + 80):
    return theta_expand(theta_special(name, scale), hi)


class TestValidation:
    def test_reference_setting_is_admissible(self):
        assert validate_triple(TripleParams(2, 1, 1, 0, 1, 0, 1, 1)) == []

    def test_shared_factor_parity_case(self):
        assert validate_triple(TripleParams(3, 2, 5, 1, 5, 1, 4, 2)) == []

    def test_gcd_violation(self):
        bad = validate_triple(TripleParams(3, 1, 2, 0, 2, 0, 1, 1))
        assert "gcd(2k, k-r) = 1" in bad

    def test_sum_coupling_violation(self):
        bad = validate_triple(TripleParams(2, 1, 2, 0, 2, 0, 1, 1))
        assert "2*S1 = r(k-r)*S3" in bad

    def test_unequal_first_sums(self):
        bad = validate_triple(TripleParams(2, 1, 1, 0, 2, 0, 1, 1))
        assert "S1 = S2" in bad

    def test_all_valid_pairs_to_six(self):
        valid = []
        for k in range(2, 7):
            for r in range(1, k):
                p = TripleParams(k, r, r * (k - r), 0, r * (k - r), 0, 1, 1)
                if not validate_triple(p):
                    valid.append((k, r))
        assert valid == [(2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 1), (6, 5)]


class TestTermCounts:
    @pytest.mark.parametrize("k,r", [(2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 1), (6, 5)])
    def test_triple_rhs_has_2k_terms(self, k, r):
        w = r * (k - r)
        terms = triple_rhs(TripleParams(k, r, w, 0, w, 0, 1, 1))
        assert len(terms) == 2 * k

    @pytest.mark.parametrize("k,r", [(2, 1), (3, 2), (4, 1), (5, 2), (6, 1)])
    def test_pair_rhs_has_k_terms(self, k, r):
        w = r * (k - r)
        terms = pair_rhs(PairParams(k, r, w, w, 1, 1, 1))
        assert len(terms) == k


class TestNamedSettings:
    """The parameter sets behind the count-function theorems."""

    SETTINGS = [
        ("Athm1", TripleParams(2, 1, 1, 0, 1, 0, 1, 1)),
        ("Athm2", TripleParams(2, 1, 1, 1, 1, 1, 4, 0)),
        ("Athm3", TripleParams(2, 1, 1, 1, 1, 1, 2, 2)),
        ("Athm4", TripleParams(2, 1, 3, 1, 3, 1, 6, 2)),
        ("Athm7", TripleParams(2, 1, 5, 1, 5, 1, 10, 2)),
        ("Athm8", TripleParams(2, 1, 5, 1, 5, 1, 12, 0)),
        ("Athm9", TripleParams(2, 1, 5, 1, 5, 1, 8, 4)),
        ("Athm10", TripleParams(2, 1, 3, 3, 3, 3, 10, 2)),
        ("Athm11", TripleParams(2, 1, 3, 3, 3, 3, 8, 4)),
        ("Athm12", TripleParams(3, 2, 5, 1, 5, 1, 4, 2)),
    ]

    @pytest.mark.parametrize("name,params", SETTINGS)
    def test_verifies(self, name, params):
        report = verify_triple(params, T)
        assert report.ok, (name, report)
        assert report.rhs_term_count == 2 * params.k


class TestDisplayIdentities:
    """Expanded decompositions against independently built display forms."""

    def test_psi_psi_phi(self):
        # psi^2(q) phi(q) = psi(q^2) phi^2(q^2) + 4 q psi(q^2) psi^2(q^4);
        # the engine's left side carries the unit-argument factor 4
        lhs = expand_sum([triple_lhs(TripleParams(2, 1, 1, 0, 1, 0, 1, 1))], T)
        disp = (
            special("psi", 2) * special("phi", 2) * special("phi", 2)
            + (special("psi", 2) * special("psi", 4) * special("psi", 4)).shift(2).scale(4)
        )
        assert lhs.compare(disp.scale(4), T).equal
        rhs = expand_sum(triple_rhs(TripleParams(2, 1, 1, 0, 1, 0, 1, 1)), T)
        assert rhs.compare(disp.scale(4), T).equal

    def test_phi_phi_psi4(self):
        # phi^2(q) psi(q^4) = phi(q^2) psi^2(q^2) + 4 q psi(q^4) psi(q^8) phi(q^4)
        rhs = expand_sum(triple_rhs(TripleParams(2, 1, 1, 1, 1, 1, 4, 0)), T)
        disp = (
            special("phi", 2) * special("psi", 2) * special("psi", 2)
            + (special("psi", 4) * special("psi", 8) * special("phi", 4)).shift(2).scale(4)
        )
        assert rhs.compare(disp.scale(2), T).equal  # unit factor: f(q^4, 1)

    def test_phi_phi_phi2(self):
        # phi^2(q) phi(q^2) = phi(q^2) phi^2(q^4) + 4q psi(q^4) psi^2(q^2)
        #                     + 4q^2 phi(q^2) psi^2(q^8)
        rhs = expand_sum(triple_rhs(TripleParams(2, 1, 1, 1, 1, 1, 2, 2)), T)
        disp = (
            special("phi", 2) * special("phi", 4) * special("phi", 4)
            + (special("psi", 4) * special("psi", 2) * special("psi", 2)).shift(2).scale(4)
            + (special("phi", 2) * special("psi", 8) * special("psi", 8)).shift(4).scale(4)
        )
        assert rhs.compare(disp, T).equal

    def test_psi_psi_psi2(self):
        # psi^2(q) psi(q^2) = phi(q^4) psi(q^4) phi(q^8)
        #   + 2q phi(q^8) psi(q^4) psi(q^8) + 2q^2 phi(q^4) psi(q^4) psi(q^16)
        #   + 4q^3 psi(q^4) psi(q^8) psi(q^16)
        rhs = expand_sum(triple_rhs(TripleParams(2, 1, 3, 1, 3, 1, 6, 2)), T)
        disp = (
            special("phi", 4) * special("psi", 4) * special("phi", 8)
            + (special("phi", 8) * special("psi", 4) * special("psi", 8)).shift(2).scale(2)
            + (special("phi", 4) * special("psi", 4) * special("psi", 16)).shift(4).scale(2)
            + (special("psi", 4) * special("psi", 8) * special("psi", 16)).shift(6).scale(4)
        )
        assert rhs.compare(disp, T).equal
        # and the whole product collapses to phi(q) phi(q^2) psi(q^4)
        collapsed = special("phi", 1) * special("phi", 2) * special("psi", 4)
        assert rhs.compare(collapsed, T).equal

    def test_octagonal_cubes(self):
        # Y^2(q) Y(q^2) = phi(q^6) phi(q^12) Y(q^4) + 2q psi(q^6) psi(q^12) X(q^2)
        #                 + 2q^2 phi(q^6) psi(q^24) X(q^8)
        rhs = expand_sum(triple_rhs(TripleParams(2, 1, 5, 1, 5, 1, 10, 2)), T)
        disp = (
            special("phi", 6) * special("phi", 12) * special("Y", 4)
            + (special("psi", 6) * special("psi", 12) * special("X", 2)).shift(2).scale(2)
            + (special("phi", 6) * special("psi", 24) * special("X", 8)).shift(4).scale(2)
        )
        assert rhs.compare(disp, T).equal

    def test_psi12_y_y(self):
        # psi(q^12) Y^2(q) = phi(q^6) psi(q^12) Y(q^2) + 2q psi(q^12) X(q^8) Y(q^4)
        rhs = expand_sum(triple_rhs(TripleParams(2, 1, 5, 1, 5, 1, 12, 0)), T)
        disp = (
            special("phi", 6) * special("psi", 12) * special("Y", 2)
            + (special("psi", 12) * special("X", 8) * special("Y", 4)).shift(2).scale(2)
        )
        assert rhs.compare(disp.scale(2), T).equal  # unit factor: f(q^12, 1)

    def test_x4_y_y(self):
        # X(q^4) Y^2(q) = phi(q^6) psi(q^6) X(q^2) + 2q phi(q^12) psi(q^12) X(q^8)
        #                 + 4q^5 psi(q^12) psi(q^24) Y(q^4)
        rhs = expand_sum(triple_rhs(TripleParams(2, 1, 5, 1, 5, 1, 8, 4)), T)
        disp = (
            special("phi", 6) * special("psi", 6) * special("X", 2)
            + (special("phi", 12) * special("psi", 12) * special("X", 8)).shift(2).scale(2)
            + (special("psi", 12) * special("psi", 24) * special("Y", 4)).shift(10).scale(4)
        )
        assert rhs.compare(disp, T).equal

    def test_phi3_squared_y2(self):
        # phi^2(q^3) Y(q^2) = phi(q^6) X^2(q^8) + q^2 phi(q^6) Y^2(q^4)
        #                     + 4q^3 psi^2(q^12) Y(q^2)
        rhs = expand_sum(triple_rhs(TripleParams(2, 1, 3, 3, 3, 3, 10, 2)), T)
        disp = (
            special("phi", 6) * special("X", 8) * special("X", 8)
            + (special("phi", 6) * special("Y", 4) * special("Y", 4)).shift(4)
            + (special("psi", 12) * special("psi", 12) * special("Y", 2)).shift(6).scale(4)
        )
        assert rhs.compare(disp, T).equal

    def test_phi3_squared_x4(self):
        # phi^2(q^3) X(q^4) = phi(q^6) X^2(q^2) - 2q^2 phi(q^6) psi(q^12) Y(q^2)
        #                     + 4q^3 psi(q^12) X(q^8) Y(q^4)
        rhs = expand_sum(triple_rhs(TripleParams(2, 1, 3, 3, 3, 3, 8, 4)), T)
        disp = (
            special("phi", 6) * special("X", 2) * special("X", 2)
            + (special("phi", 6) * special("psi", 12) * special("Y", 2)).shift(4).scale(-2)
            + (special("psi", 12) * special("X", 8) * special("Y", 4)).shift(6).scale(4)
        )
        assert rhs.compare(disp, T).equal

    def test_six_way_octagonal(self):
        # X(q^2) Y^2(q) = phi(q^6) X(q^6) X(q^12) + 2q phi(q^18) psi(q^12) X(q^6)
        #   + 2q^2 phi(q^6) psi(q^18) X(q^12) + 2q^3 psi(q^12) X(q^6) Y(q^6)
        #   + 2q^4 phi(q^6) psi(q^36) X(q^6) + 4q^5 psi(q^18) psi(q^12) Y(q^6)
        rhs = expand_sum(triple_rhs(TripleParams(3, 2, 5, 1, 5, 1, 4, 2)), T)
        disp = (
            special("phi", 6) * special("X", 6) * special("X", 12)
            + (special("phi", 18) * special("psi", 12) * special("X", 6)).shift(2).scale(2)
            + (special("phi", 6) * special("psi", 18) * special("X", 12)).shift(4).scale(2)
            + (special("psi", 12) * special("X", 6) * special("Y", 6)).shift(6).scale(2)
            + (special("phi", 6) * special("psi", 36) * special("X", 6)).shift(8).scale(2)
            + (special("psi", 18) * special("psi", 12) * special("Y", 6)).shift(10).scale(4)
        )
        assert rhs.compare(disp, T).equal


class TestPairDecomposition:
    def test_basic_settings(self):
        assert verify_pair(PairParams(2, 1, 2, 0, 1, 1, 1), T).ok
        assert verify_pair(PairParams(2, 1, 1, 1, 2, 0, -1), T).ok

    def test_sign_split_square(self):
        # phi(q) phi(-q) = phi^2(-q^2)
        report = verify_pair(PairParams(2, 1, 1, 1, 1, 1, -1), T)
        assert report.ok and report.rhs_term_count == 2
        rhs = expand_sum(pair_rhs(PairParams(2, 1, 1, 1, 1, 1, -1)), T)
        phi_neg_q2 = theta_expand(ThetaArg(-1, 4, 4), T + 8)
        assert rhs.compare(phi_neg_q2 * phi_neg_q2, T).equal

    def test_constraint_errors(self):
        assert "S = r(k-r)*S3" in validate_pair(PairParams(2, 1, 3, 0, 1, 1, 1))
        with pytest.raises(ValueError):
            pair_rhs(PairParams(2, 1, 3, 0, 1, 1, 1))

    @pytest.mark.parametrize("k,r", [(2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 1), (6, 5)])
    def test_grid(self, k, r):
        w = r * (k - r)
        for params in (
            PairParams(k, r, w, w, 1, 1, 1),
            PairParams(k, r, 2 * w - 1, 1, 2, 0, -1),
            PairParams(k, r, 3 * w, w, 3, 1, -1),
        ):
            report = verify_pair(params, 160)
            assert report.ok, (params, report)
            assert report.rhs_term_count == k


class TestSignedPairIdentities:
    @pytest.mark.parametrize("row", range(1, 9))
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_all_rows(self, row, m):
        assert verify_corollary(f"clp2.{row}", m=m, through=160).ok, (row, m)

    def test_substitution_pattern(self):
        halved = {
            row: _all_even(sum(_reduced_signed_pair(f"clp2.{row}", 2), []))
            for row in range(1, 9)
        }
        assert halved == {1: True, 2: True, 3: True, 4: True,
                          5: False, 6: False, 7: True, 8: True}

    @pytest.mark.parametrize("row", range(1, 9))
    @pytest.mark.parametrize("m", range(1, 7))
    def test_printed_sides_are_the_dissected_reduced_sides(self, row, m):
        # the printed sides, which verify_corollary checks, must be the
        # reduced identity read on the q^2 grid; a halved row's reduced
        # expansions carry no term off the multiples of 4 half-units, so
        # halving loses nothing
        cid = f"clp2.{row}"
        halved = row not in (5, 6)
        printed = instantiate_corollary(cid, m=m)
        for side, reduced in zip(printed, _reduced_signed_pair(cid, m)):
            want = expand_sum(reduced, 600 if halved else 300)
            if halved:
                assert all(e % 4 == 0 for e, _ in want.items()), (cid, m)
                want = want.dissect(2, 0, divide=True)
            got = expand_sum(side, 300)
            exps = range(min(got.lo, want.lo), 301)
            assert [got.coeff(e) for e in exps] == [want.coeff(e) for e in exps], (cid, m)

    @pytest.mark.parametrize("row", range(1, 9))
    def test_each_side_is_expanded_once(self, monkeypatch, row):
        # on the printed grid, halved or not: never through 2 * through;
        # each two-factor side is one row of the check's one scatter
        calls = spy_rows(monkeypatch)
        assert verify_corollary(f"clp2.{row}", m=2, through=100).ok
        assert [[r.hi for r in rows] for rows in calls] == [[100, 100]]

    def test_printed_forms_row1(self):
        # phi(-q^m) phi(q) = sum q^{a^2} f(-q^{m(m+1+2a)}, -q^{m(m+1-2a)})
        #                            * f(-q^{m+1-2a}, -q^{m+1+2a})
        for m in (1, 2, 3, 5):
            lhs, rhs = instantiate_corollary("clp2.1", m=m)
            assert lhs[0].factors == (ThetaArg(-1, 2 * m, 2 * m), ThetaArg(1, 2, 2))
            want = [
                (1, 2 * a * a,
                 (ThetaArg(-1, 2 * m * (m + 1 + 2 * a), 2 * m * (m + 1 - 2 * a)),
                  ThetaArg(-1, 2 * (m + 1 - 2 * a), 2 * (m + 1 + 2 * a))))
                for a in range((1 - m) // 2, (1 + m) // 2 + 1)
            ]
            assert [(t.sign, t.shift, t.factors) for t in rhs] == want

    def test_printed_forms_row5(self):
        # phi(-q^{2m}) psi(q) = sum q^{2a^2+a} f(-q^{m(2m+3+4a)}, -q^{m(2m+1-4a)})
        #                               * f(-q^{2m+1-4a}, -q^{2m+3+4a})
        for m in (1, 2, 4):
            lhs, rhs = instantiate_corollary("clp2.5", m=m)
            assert lhs[0].factors == (ThetaArg(-1, 4 * m, 4 * m), ThetaArg(1, 6, 2))
            want = [
                (1, 2 * (2 * a * a + a),
                 (ThetaArg(-1, 2 * m * (2 * m + 3 + 4 * a), 2 * m * (2 * m + 1 - 4 * a)),
                  ThetaArg(-1, 2 * (2 * m + 1 - 4 * a), 2 * (2 * m + 3 + 4 * a))))
                for a in range((1 - m) // 2, (1 + m) // 2 + 1)
            ]
            assert [(t.sign, t.shift, t.factors) for t in rhs] == want

    def test_printed_forms_row3_carries_m_dependent_sign(self):
        # f(-q^m) f(-q) = sum (-1)^a q^{a(3a+1)/2}
        #     f_{m+1}(q^{m(3m+6a+5)/2}, q^{m(3m-6a+1)/2}) f(q^{2m+1-3a}, q^{2+m+3a})
        for m in (1, 2, 3, 4):
            _, rhs = instantiate_corollary("clp2.3", m=m)
            eps_mid = -1 if (m + 1) % 2 else 1
            want = [
                (-1 if a % 2 else 1, a * (3 * a + 1),
                 (ThetaArg(eps_mid, m * (3 * m + 6 * a + 5), m * (3 * m - 6 * a + 1)),
                  ThetaArg(1, 2 * (2 * m + 1 - 3 * a), 2 * (2 + m + 3 * a))))
                for a in range((1 - m) // 2, (1 + m) // 2 + 1)
            ]
            assert [(t.sign, t.shift, t.factors) for t in rhs] == want

    def test_unit_factor_rows_carry_factor_two(self):
        # rows 4 and 8 state a leading 2; it appears as the expansion of
        # a unit-argument factor
        lhs, _ = instantiate_corollary("clp2.4", m=3)
        assert any(f.a == 0 or f.b == 0 for f in lhs[0].factors)

    def test_vanishing_tail_blocks(self):
        p = signed_pair_params("clp2.1", 3)
        tail = triple_rhs(p)[p.k:]
        assert tail and all(
            any(f.is_zero_function() for f in t.factors) for t in tail
        )


class TestDirectCorollaries:
    PAIRS = [(2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 1), (6, 5)]

    @pytest.mark.parametrize("cid", ["cor1", "cor2", "cor3", "cor4"])
    @pytest.mark.parametrize("k,r", PAIRS)
    def test_verify(self, cid, k, r):
        assert verify_corollary(cid, k=k, r=r, through=160).ok

    def test_cor1_against_printed_formula(self):
        # 8 psi^2(q^w) psi(q^2) decomposed via phi(q^w) and 2 psi(q^{2w})
        # blocks, transcribed independently from the statement
        for (k, r) in [(2, 1), (3, 2), (4, 3)]:
            w = r * (k - r)
            lhs_terms, rhs_terms = instantiate_corollary("cor1", k=k, r=r)
            lhs = expand_sum(lhs_terms, 200)
            direct = (special("psi", w) * special("psi", w) * special("psi", 2)).scale(8)
            assert lhs.compare(direct, 200).equal
            terms = []
            for a in range((2 - k) // 2, k // 2 + 1):
                prod = ThetaProduct(1, 2 * a * (a + 1), (
                    ThetaArg(1, 2 * w, 2 * w),
                    ThetaArg(1, 2 * r * (2 * k - r + 2 * a + 1), 2 * r * (r - 2 * a - 1)),
                    ThetaArg(1, 2 * (k - r) * (k + r - 2 * a - 1), 2 * (k - r) * (k - r + 2 * a + 1)),
                ))
                terms.append(prod)
            for a in range(1, (k + 1) // 2 + 1):
                c = -k + r + 2 * a - 1
                shift = 2 * r * (k - r) + c * c // 2 + c
                terms.append(ThetaProduct(1, shift, (
                    ThetaArg(1, 4 * r * (k - r), 0),
                    ThetaArg(1, 2 * r * (2 * k - r + 2 * a), 2 * r * (r - 2 * a)),
                    ThetaArg(1, 2 * (k - r) * (2 * k + r - 2 * a), 2 * (k - r) * (2 * a - r)),
                )))
            for a in range(1, k // 2 + 1):
                c = k - r - 2 * a + 1
                shift = c * c // 2 + c
                terms.append(ThetaProduct(1, shift, (
                    ThetaArg(1, 4 * r * (k - r), 0),
                    ThetaArg(1, 2 * r * (2 * k - r - 2 * a + 2), 2 * r * (r + 2 * a - 2)),
                    ThetaArg(1, 2 * (k - r) * (r + 2 * a - 2), 2 * (k - r) * (2 * k - r - 2 * a + 2)),
                )))
            printed = expand_sum(terms, 200)
            engine = expand_sum(rhs_terms, 200)
            assert printed.compare(engine, 200).equal, (k, r)

    def test_rejects_missing_parameters(self):
        with pytest.raises(ValueError):
            verify_corollary("cor1", through=100)
        with pytest.raises(ValueError):
            verify_corollary("clp2.1", through=100)
        with pytest.raises(KeyError):
            verify_corollary("cor9", k=2, r=1, through=100)

    @pytest.mark.parametrize("cid,kwargs,unused", [
        ("cor1", {"k": 2, "r": 1, "m": 9}, "m"),
        ("cor4", {"k": 3, "r": 2, "m": 1}, "m"),
        ("clp2.4", {"m": 2, "k": 7}, "k"),
        ("clp2.1", {"m": 1, "r": 1}, "r"),
        ("clp2.6", {"m": 3, "k": 2, "r": 1}, "k or r"),
    ])
    def test_rejects_unused_parameters(self, cid, kwargs, unused):
        # an argument the identity does not read used to be ignored
        message = f"{cid} takes no {unused}$"
        with pytest.raises(ValueError, match=message):
            instantiate_corollary(cid, **kwargs)
        with pytest.raises(ValueError, match=message):
            verify_corollary(cid, **kwargs, through=100)


class TestStructuralProperties:
    def test_negative_exponents_cancel_in_sums(self):
        # individual factors reach below q^0; the summed side never does
        p = TripleParams(2, 1, 1, 0, 1, 0, 1, 1)
        terms = triple_rhs(p)
        assert any(f.min_exponent() < 0 for t in terms for f in t.factors)
        total = expand_sum(terms, 60)
        assert all(e >= 0 for e, _ in total.items())
        report = verify_triple(p, 60)
        assert report.negative_violation is None

    def test_scaling_consistency(self):
        # a verified identity survives q -> q^m on both sides
        p = TripleParams(2, 1, 1, 1, 1, 1, 4, 0)
        lhs = expand_sum([triple_lhs(p)], 80).substitute_power(3)
        rhs = expand_sum(triple_rhs(p), 80).substitute_power(3)
        assert lhs.compare(rhs, 240).equal

    def test_insufficient_truncation_is_loud(self):
        prod = ThetaProduct(1, 0, (ThetaArg(1, 2, 2),))
        series = prod.expand(40)
        with pytest.raises(Exception):
            series.compare(series, 60)


class TestDissectionBridge:
    def test_quarter_extraction_of_triangular_product(self):
        # extracting the exponents divisible by four from
        # psi^2(q) psi(q^2) leaves phi(q) psi(q) phi(q^2) after the
        # exponent remap; on the half grid the remapped series compares
        # against the specializations evaluated at sqrt(q)
        bound = 400
        psi2psi = (
            special("psi", 1, bound) * special("psi", 1, bound)
            * special("psi", 2, bound)
        )
        quarters = psi2psi.dissect(8, 0, divide=True)
        half = bound // 8
        target = (
            theta_expand(ThetaArg(1, 1, 1), half + 4)
            * theta_expand(ThetaArg(1, 1, 3), half + 4)
            * theta_expand(ThetaArg(1, 2, 2), half + 4)
        )
        assert quarters.compare(target, half).equal
        # equivalently, after doubling back onto the whole-q grid
        doubled = quarters.substitute_power(2)
        target_q = special("phi", 1) * special("psi", 1) * special("phi", 2)
        assert doubled.compare(target_q, 2 * half).equal

    def test_odd_extraction_matches_doubled_counts(self):
        # the odd part of phi^2(q) psi(q^4) is 4q psi(q^4) psi(q^8) phi(q^4)
        bound = 400
        lhs = special("phi", 1, bound) * special("phi", 1, bound) * special("psi", 4, bound)
        odd = lhs.dissect(4, 2, divide=False)
        rhs = (
            special("psi", 4, bound) * special("psi", 8, bound)
            * special("phi", 4, bound)
        ).shift(2).scale(4)
        assert odd.compare(rhs, 360).equal


class TestCatalog:
    def test_loads_and_spot_verifies(self):
        entries = load_identity_catalog()
        assert len(entries) >= 140
        by_id = {e.id: e for e in entries}
        for eid in ("thm1.Athm1", "thm2.k2r1.zero", "cor3.k4r3", "clp2.6.m2"):
            assert by_id[eid].verify(120).ok, eid

    @pytest.mark.parametrize("through", [0, 2, 10, 40])
    def test_every_entry_verifies_at_low_order(self, through):
        # a factor asked for less than its own least exponent once came
        # back too short for its product's validity bound
        for entry in load_identity_catalog():
            assert entry.verify(through).ok, entry.id

    def test_grid_covers_every_admissible_pair(self):
        entries = load_identity_catalog()
        pairs = {(2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 1), (6, 5)}
        for (k, r) in pairs:
            thm1 = [e for e in entries
                    if e.kind == "thm1" and e.params.get("k") == k and e.params.get("r") == r]
            assert len(thm1) >= 3, (k, r)


class TestExpansionBound:
    """Each scatter term's factors are asked for their term exponents
    through exactly the bound the target needs, each outer factor is a
    row or a theta expansion through its exact bound, and no further;
    each check makes one term-exponent call for every row of both sides,
    and one more for each outer factor of a one-term group."""

    @pytest.mark.parametrize("through", [0, 7, 120])
    def test_factors_expanded_through_the_exact_bound(self, monkeypatch, through):
        calls = spy_requests(monkeypatch)
        entries = load_identity_catalog()
        for entry in entries:
            assert entry.verify(through).ok, entry.id
        monkeypatch.undo()
        want = []
        for entry in entries:
            lhs, rhs = entry_sides(entry)
            want.append(route_requests(lhs, through) + route_requests(rhs, through))
            want += [[r] for r in outer_requests(lhs, through) + outer_requests(rhs, through)]
        assert len(calls) == len(want) > len(entries)
        assert calls == want

    @pytest.mark.parametrize("eid", ["thm1.Athm1", "thm1.k4r1.1", "thm1.k6r1.1"])
    def test_each_shared_outer_factor_is_expanded_once(self, monkeypatch, eid):
        # Every two-factor remainder is a pair scatter: no theta expansion
        # and no product.  Term by term, each of the left side and the 2k
        # right-side terms expands its outer factor once, by theta_expand,
        # and multiplies once, 2k+1 of each; grouped, the left side's outer
        # factor (by theta_expand) and the two outer factors of the right
        # side (rows of the one scatter), block 1's and the one blocks 2
        # and 3 share, cost 3 and 3.
        p = TripleParams(**{e.id: e for e in load_identity_catalog()}[eid].params)
        terms = [triple_lhs(p)] + triple_rhs(p)
        assert not any(f.is_zero_function() for t in terms for f in t.factors)
        assert len({t.factors[0] for t in terms[1:]}) == 2
        calls, thetas, products = count_route(monkeypatch)
        for term in terms:
            term.expand(120)
        assert (len(expansions(calls)), len(thetas)) == (0, 2 * p.k + 1)
        assert len(products) == 2 * p.k + 1
        calls.clear()
        thetas.clear()
        products.clear()
        assert verify_triple(p, 120).ok
        assert len(calls) == 1
        assert thetas == outer_requests([triple_lhs(p)], 120)
        assert (len(expansions(calls)) + len(thetas), len(products)) == (3, 3)

    def test_two_factor_sides_expand_no_theta(self, monkeypatch):
        # thm2 and the signed pairs carry two factors a term on both sides
        entries = [e for e in load_identity_catalog()
                   if e.kind == "thm2" or e.params.get("id", "").startswith("clp2")]
        assert len(entries) > 20
        calls, thetas, products = count_route(monkeypatch)
        for entry in entries:
            assert entry.verify(120).ok, entry.id
            assert (len(expansions(calls)), len(thetas), len(products)) == (0, 0, 0), entry.id


def spy_rows(monkeypatch) -> list:
    """A list that collects the rows of each pair scatter the identity
    layer makes."""
    calls = []
    scatter = identity._pair_scatter

    def spy(rows):
        calls.append(list(rows))
        return scatter(rows)

    monkeypatch.setattr(identity, "_pair_scatter", spy)
    return calls


def expansions(calls) -> list:
    """The rows of one term with one factor, the outer factors, over
    every scatter call."""
    return [row for rows in calls for row in rows
            if len(row.terms) == 1 and len(row.terms[0][2]) == 1]


def count_route(monkeypatch):
    """Lists that collect the rows of each pair scatter, the (arg, hi) of
    each theta expansion the identity layer makes, and each series
    product."""
    thetas, products = [], []
    mul, expand = HalfPowerSeries.__mul__, identity.theta_expand

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    def counting_expand(arg, hi):
        thetas.append((arg, hi))
        return expand(arg, hi)

    calls = spy_rows(monkeypatch)
    monkeypatch.setattr(HalfPowerSeries, "__mul__", counting_mul)
    monkeypatch.setattr(identity, "theta_expand", counting_expand)
    return calls, thetas, products


def spy_requests(monkeypatch) -> list:
    """A list that collects, for each term-exponent call of the pair
    scatter in :mod:`thetaq.theta`, its (f, bound) requests in order."""
    calls = []

    def terms_spy(requests):
        calls.append(list(requests))
        return term_exponents(requests)

    monkeypatch.setattr(theta_module, "term_exponents", terms_spy)
    return calls


def product_oracle(terms, hi) -> dict:
    """Nonzero coefficients through ``hi`` of the sum of the terms.

    Each factor is cleared of a negative exponent by theta_normalize and
    expanded by the Jacobi triple product, the factors are multiplied by
    ``np.convolve``, and the terms are added in Python integers: no
    route of :func:`expand_sum` is used.  A normalized factor starts at
    q^0, so the term's least exponent is its shift plus the factors'
    normalizing shifts, and every factor is needed through hi minus that.
    """
    total: dict = {}
    for t in terms:
        if any(f.is_zero_function() for f in t.factors):
            continue
        norms = [theta_normalize(f) for f in t.factors]
        low = t.shift + sum(n.shift for n in norms)
        top = hi - low
        if top < 0:
            continue
        sign, prod = t.sign, np.ones(1, dtype=np.int64)
        for n in norms:
            sign *= n.sign
            prod = np.convolve(prod, jacobi_triple_product(n.arg, top).coeffs)[: top + 1]
        for i in np.flatnonzero(prod).tolist():
            total[low + i] = total.get(low + i, 0) + sign * int(prod[i])
    return {e: c for e, c in total.items() if c}


def scatter_requests(terms, hi) -> list:
    """Term-exponent requests of one scatter row through ``hi``: each
    factor of a term without a vanishing factor, through exactly
    hi - shift - m_other, m_other the other factor's least exponent."""
    out = []
    for t in terms:
        if any(f.is_zero_function() for f in t.factors):
            continue
        mins = [f.min_exponent() for f in t.factors]
        out += [(f, hi - t.shift - (sum(mins) - m)) for f, m in zip(t.factors, mins)]
    return out


def outer_groups(terms, hi) -> list:
    """(o, bound, group) for each group of terms that share their factors
    before the last two, by first appearance, o their outer factor (None
    for the group with none) and bound the least the group's row runs
    through: hi - m, m o's least exponent.  Each group is the terms'
    remainders; a group whose o vanishes is left out."""
    groups: dict = {}
    for t in terms:
        groups.setdefault(t.factors[:-2], []).append(
            ThetaProduct(t.sign, t.shift, t.factors[-2:]))
    out = []
    for outer, rest in groups.items():
        if not outer:
            out.append((None, hi, rest))
        elif not outer[0].is_zero_function():
            out.append((outer[0], hi - outer[0].min_exponent(), rest))
    return out


def outer_bound(hi, bound, rest) -> int:
    """hi - lo, lo the least exponent a group's row could add: its bound,
    or a remainder's shift plus its factors' least exponents if that is
    less."""
    return hi - min([bound] + [t.shift + sum(g.min_exponent() for g in t.factors)
                               for t in rest
                               if not any(g.is_zero_function() for g in t.factors)])


def route_requests(terms, hi) -> list:
    """Every request the rows of one side make, in order: per group of
    :func:`outer_groups`, one row of the remainders through its bound,
    and, for a group of several terms, o's row through hi - lo
    (:func:`outer_bound`).  o's row is one term of one factor, so it
    asks for o's term exponents through that bound."""
    out = []
    for f, bound, rest in outer_groups(terms, hi):
        out += scatter_requests(rest, bound)
        if f is not None and len(rest) > 1:
            out.append((f, outer_bound(hi, bound, rest)))
    return out


def outer_requests(terms, hi) -> list:
    """The (o, hi - lo) of each one-term group of :func:`outer_groups`, in
    order: the expansions :func:`theta_expand` makes for one side, each
    one term-exponent call of that one request."""
    return [(f, outer_bound(hi, bound, rest))
            for f, bound, rest in outer_groups(terms, hi)
            if f is not None and len(rest) == 1]


def entry_sides(entry):
    if entry.kind == "thm1":
        p = TripleParams(**entry.params)
        return [triple_lhs(p)], triple_rhs(p)
    if entry.kind == "thm2":
        p = PairParams(**entry.params)
        return [pair_lhs(p)], pair_rhs(p)
    params = dict(entry.params)
    return instantiate_corollary(params.pop("id"), **params)


PHI = theta_special("phi")
NEG = ThetaArg(1, -2, 6)  # least exponent -2
SGN = ThetaArg(-1, 2, 4)
PSI = theta_special("psi")
ZERO = ThetaArg(-1, 0, 4)  # f(-1, -q^2) vanishes identically
UNIT = ThetaArg(1, 0, 2)  # f(1, q): every exponent taken twice
DEEP = ThetaArg(1, -20, 22)  # least exponent -110


@st.composite
def theta_args(draw):
    """A convergent ThetaArg, either sign, one exponent possibly negative."""
    a = draw(st.integers(-6, 12))
    b = draw(st.integers(max(0, 1 - a), 12))
    if draw(st.booleans()):
        a, b = b, a
    return ThetaArg(draw(st.sampled_from([1, -1])), a, b)


@st.composite
def sides(draw):
    """Terms of one to three factors drawn from a small pool, so that
    three-factor terms share their first factor."""
    pool = draw(st.lists(st.one_of(st.sampled_from([PHI, NEG, SGN, PSI, ZERO]),
                                   theta_args()), min_size=1, max_size=4))
    return draw(st.lists(st.builds(
        ThetaProduct,
        st.sampled_from([1, -1]),
        st.integers(-12, 12),
        st.lists(st.sampled_from(pool), min_size=1, max_size=3).map(tuple),
    ), min_size=1, max_size=6))


class TestGroupedSum:
    """The grouped expansion equals the sum of every term's product of
    Jacobi triple products."""

    @pytest.mark.parametrize("hi", [9, 150, 800])
    def test_every_catalog_side(self, hi):
        for entry in load_identity_catalog():
            for side in entry_sides(entry):
                got = expand_sum(side, hi)
                assert got.hi == hi
                assert dict(got.items()) == product_oracle(side, hi), entry.id

    @settings(max_examples=200, deadline=None)
    @given(terms=sides(), hi=st.integers(-4, 200))
    def test_random_sides(self, terms, hi):
        got = expand_sum(terms, hi)
        assert got.hi == hi
        assert dict(got.items()) == product_oracle(terms, hi)

    def test_below_every_least_exponent(self):
        terms = [ThetaProduct(1, 5, (PHI, NEG)), ThetaProduct(-1, 2, (NEG, SGN, NEG)),
                 ThetaProduct(1, -1, (NEG,))]
        hi = min(t.shift + sum(f.min_exponent() for f in t.factors) for t in terms) - 1
        got = expand_sum(terms, hi)
        assert got.hi == hi and got.is_zero()
        assert product_oracle(terms, hi) == {}

    @pytest.mark.parametrize("hi", [0, 5, 60])
    @pytest.mark.parametrize("terms", [
        [ThetaProduct(1, 0, (PHI,)),
         ThetaProduct(-1, 3, (SGN, PSI)),
         ThetaProduct(1, -4, (NEG, PHI, SGN)),
         ThetaProduct(-1, 2, (NEG, PSI, NEG)),
         ThetaProduct(1, 1, (PHI, NEG, PSI)),
         ThetaProduct(-1, -1, (NEG, SGN, SGN))],
        [ThetaProduct(1, 0, (ZERO, PHI, SGN)),
         ThetaProduct(-1, 5, (ZERO, PSI, PSI)),
         ThetaProduct(1, 0, (SGN, NEG))],
        [ThetaProduct(1, 2, (PSI, PHI, SGN)),
         ThetaProduct(-1, 2, (PSI, SGN, PHI)),
         ThetaProduct(1, -3, (NEG, NEG, PHI))],
        [ThetaProduct(-1, -2, (NEG, PHI, PSI))],
        [ThetaProduct(1, -2, (SGN, NEG, NEG)),
         ThetaProduct(1, 0, (PHI, NEG, SGN)),
         ThetaProduct(-1, 4, (PSI,))],
        # phi*f(-q,-q^2) - phi^2 is 0 at its least exponent q^0, -3q above
        [ThetaProduct(1, 2, (NEG, PHI, SGN)),
         ThetaProduct(-1, 2, (NEG, PHI, PHI))],
        [ThetaProduct(1, -1, (NEG, SGN, PSI)),
         ThetaProduct(-1, -1, (NEG, PSI, SGN)),
         ThetaProduct(1, 3, (PHI, NEG))],
    ], ids=["mixed", "zero-outer", "cancelling", "one-term", "one-term-groups",
            "zero-at-lo", "cancels-exactly"])
    def test_hand_built(self, monkeypatch, terms, hi):
        calls = spy_requests(monkeypatch)
        got = expand_sum(terms, hi)
        monkeypatch.undo()
        assert got.hi == hi
        assert dict(got.items()) == product_oracle(terms, hi)
        # one call for the scatter, then one per one-term group's outer
        # factor: each scatter factor is asked through its exact bound,
        # each outer factor once, through hi minus its group's lo, and a
        # vanishing one's never
        want = [route_requests(terms, hi)] + [[r] for r in outer_requests(terms, hi)]
        assert calls == want

    def test_cancelling_group_adds_nothing(self, monkeypatch):
        terms = [ThetaProduct(1, 2, (PSI, PHI, SGN)), ThetaProduct(-1, 2, (PSI, SGN, PHI))]
        assert product_oracle(terms, 40) == {}
        calls = spy_requests(monkeypatch)
        got = expand_sum(terms, 40)
        assert got.hi == 40 and got.is_zero()
        # psi starts at q^0, so the group's row runs through 40 from lo = 2
        # (the shift) and psi is one row, through 40 - 2, to multiply zero
        (requests,) = calls
        assert len(requests) == 5 and requests[4] == (PSI, 38)


def scatter_bounds(rows) -> list[tuple[int, int]]:
    """(P, R) of each (terms, hi) row of a scatter: its pair count and
    the largest max|e1| + max|e2| + |shift| over its terms."""
    out = []
    for terms, hi in rows:
        pairs, reach = 0, 0
        for sign, shift, factors in terms:
            mins = [f.min_exponent() for f in factors]
            exps = [term_exponents([(f, hi - shift - (sum(mins) - m))])[1].tolist()
                    for f, m in zip(factors, mins)]
            pairs += math.prod(len(e) for e in exps)
            reach = max(reach, abs(shift) + sum(max(map(abs, e), default=0) for e in exps))
        out.append((pairs, reach))
    return out


@st.composite
def scatter_rows(draw):
    """One to four (terms, hi) rows, each of one to six terms of one or
    two factors, signed, vanishing and negative-exponent ones among them."""
    pool = draw(st.lists(st.one_of(st.sampled_from([PHI, NEG, SGN, PSI, ZERO, UNIT]),
                                   theta_args()), min_size=1, max_size=4))
    terms = st.lists(st.tuples(
        st.sampled_from([1, -1]),
        st.integers(-12, 12),
        st.lists(st.sampled_from(pool), min_size=1, max_size=2).map(tuple),
    ), min_size=1, max_size=6)
    return draw(st.lists(st.tuples(terms, st.integers(-4, 150)), min_size=1, max_size=4))


class TestPairScatter:
    """Every row's bounds are proven before the one buffer is allocated,
    every row is its own series, and the pairs are formed in bounded
    blocks."""

    def scatter_at(self, monkeypatch, rows, limit, events):
        """Run the scatter of (terms, hi) ``rows`` under ``limit``, logging
        "output" for its allocation and "pairs" for each call of the pair
        kernel.  The term exponents keep their own bound under the true
        limit."""
        zeros, scatter_pairs = np.zeros, theta_module.scatter_pairs
        term_exponents = theta_module.term_exponents

        def counting_zeros(*args, **kwargs):
            events.append("output")
            return zeros(*args, **kwargs)

        def counting_scatter_pairs(*args):
            events.append("pairs")
            return scatter_pairs(*args)

        def exponents_at_the_true_limit(requests):
            theta_module.COEFF_LIMIT = COEFF_LIMIT
            try:
                return term_exponents(requests)
            finally:
                theta_module.COEFF_LIMIT = limit

        planned = [theta_module._scatter_row(terms, hi) for terms, hi in rows]
        monkeypatch.setattr(theta_module, "COEFF_LIMIT", limit)
        monkeypatch.setattr(np, "zeros", counting_zeros)
        monkeypatch.setattr(theta_module, "scatter_pairs", counting_scatter_pairs)
        monkeypatch.setattr(theta_module, "term_exponents", exponents_at_the_true_limit)
        try:
            return theta_module._pair_scatter(planned)
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("bound,terms,hi", [
        ("pair count", [(1, 0, (UNIT, UNIT)), (-1, 2, (PHI, SGN))], 60),
        ("exponent sum", [(1, -1000, (PHI,)), (1, 3, (NEG, PSI))], 10),
        # every exponent taken lies below 0, so the least one is the largest
        ("exponent sum", [(1, 0, (DEEP,)), (-1, 1, (PHI, PHI))], 0),
    ])
    def test_bound_at_the_edge(self, monkeypatch, bound, terms, hi):
        # the binding row (terms, hi) sits between its own last term and
        # a small row of its own: its bound equal to COEFF_LIMIT runs,
        # allocating the buffer before any pair; one less raises after the
        # buffer, which the rows' widths size before any exponent, and
        # before any pair
        rows = [(terms[-1:], hi), (terms, hi), ([(-1, 0, (SGN, SGN))], 20)]
        bounds = scatter_bounds(rows)
        pairs, reach = bounds[1]
        limit = pairs if bound == "pair count" else reach
        assert limit > min(pairs, reach)
        assert max(*bounds[0], *bounds[2]) < limit
        events = []
        got = self.scatter_at(monkeypatch, rows, limit, events)
        assert events == ["output", "pairs"]
        for series, (terms, hi) in zip(got, rows):
            assert series.hi == hi
            assert dict(series.items()) == product_oracle([ThetaProduct(*t) for t in terms], hi)
        events.clear()
        with pytest.raises(CoefficientOverflowError, match=bound):
            self.scatter_at(monkeypatch, rows, limit - 1, events)
        assert events == ["output"]

    @settings(max_examples=150, deadline=None)
    @given(rows=scatter_rows())
    def test_rows_against_the_oracle(self, rows):
        # each row is its own series, from the least exponent it could add
        got = theta_module._pair_scatter(
            [theta_module._scatter_row(terms, hi) for terms, hi in rows])
        assert len(got) == len(rows)
        for series, (terms, hi) in zip(got, rows):
            least = [shift + sum(f.min_exponent() for f in factors)
                     for _, shift, factors in terms
                     if not any(f.is_zero_function() for f in factors)]
            assert (series.lo, series.hi) == (min([hi, *least]), hi)
            assert dict(series.items()) == product_oracle([ThetaProduct(*t) for t in terms], hi)

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_pairs_are_counted_in_bounded_blocks(self, monkeypatch, block):
        # at block 64 the two smallest sets share one ragged block and the
        # two others are outer products; at 1 and 5 every set is
        terms = [ThetaProduct(1, -3, (NEG, SGN)), ThetaProduct(-1, 2, (UNIT, PSI)),
                 ThetaProduct(-1, 50, (SGN, PSI)), ThetaProduct(1, 0, (SGN,))]
        want = product_oracle(terms, 90)
        set_pairs = [p for p, _ in scatter_bounds(
            [([(t.sign, t.shift, t.factors)], 90) for t in terms])]
        assert set_pairs == [143, 162, 42, 11]

        def blocks(ragged):
            counted = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(series_module, "_PAIR_BLOCK", block)
                mp.setattr(series_module, "_RAGGED_PAIRS", ragged)
                mp.setattr(np, "add", RecordingAdd(counted))
                got = expand_sum(terms, 90)
            assert dict(got.items()) == want
            assert counted and max(counted) <= block
            assert sum(counted) <= sum(set_pairs)
            return counted

        shared, alone = blocks(series_module._RAGGED_PAIRS), blocks(1)
        assert len(shared) == len(alone) - (block == 64)


class RecordingAdd:
    """``np.add`` whose ``at`` records the size of each block."""

    def __init__(self, sizes: list):
        self.sizes, self.add = sizes, np.add

    def __call__(self, *args, **kwargs):
        return self.add(*args, **kwargs)

    def at(self, out, idx, vals):
        self.sizes.append(idx.size)
        self.add.at(out, idx, vals)
