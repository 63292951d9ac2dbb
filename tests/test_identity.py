"""Product decompositions: validation, term counts, display cross-checks."""

import pytest

from thetaq import identity
from thetaq.theta import ThetaArg, theta_expand, theta_special
from thetaq.identity import (
    PairParams,
    ThetaProduct,
    TripleParams,
    expand_sum,
    instantiate_corollary,
    _all_even,
    _reduced_signed_pair,
    load_identity_catalog,
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
        # on the printed grid, halved or not: never through 2 * through
        calls = []

        def counting(terms, hi):
            calls.append(hi)
            return expand_sum(terms, hi)

        monkeypatch.setattr(identity, "expand_sum", counting)
        assert verify_corollary(f"clp2.{row}", m=2, through=100).ok
        assert calls == [100, 100]

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
    """A product is valid through the least of each factor's bound plus
    the other's valuation, so each factor is expanded through exactly
    the bound the target needs, and no further."""

    @pytest.mark.parametrize("through", [0, 7, 120])
    def test_factors_expanded_through_the_exact_bound(self, monkeypatch, through):
        requests = []
        products = []

        def spy(arg, hi):
            requests.append((arg, hi))
            return theta_expand(arg, hi)

        expand = ThetaProduct.expand

        def checked_expand(self, hi):
            requests.clear()
            out = expand(self, hi)
            want = []
            if not any(f.is_zero_function() for f in self.factors):
                mins = [f.min_exponent() for f in self.factors]
                want = [(f, max(hi - self.shift - (sum(mins) - m), m))
                        for f, m in zip(self.factors, mins)]
            assert requests == want
            assert out.hi >= hi
            products.append(self)
            return out

        monkeypatch.setattr(identity, "theta_expand", spy)
        monkeypatch.setattr(ThetaProduct, "expand", checked_expand)
        entries = load_identity_catalog()
        for entry in entries:
            assert entry.verify(through).ok, entry.id
        assert len(products) > 2 * len(entries)
