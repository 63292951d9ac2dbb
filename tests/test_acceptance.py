"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion.  Bounds follow the statements verbatim; every
comparison is exact integer equality (tolerance zero).
"""

import subprocess
import sys
import time

import numpy as np

from thetaq.series import HalfPowerSeries
from thetaq.theta import (
    ThetaArg,
    jacobi_triple_product,
    theta_dissection,
    theta_expand,
    theta_normalize,
    theta_special,
)
from thetaq.identity import (
    _all_even,
    _reduced_signed_pair,
    load_identity_catalog,
    verify_corollary,
)
from thetaq.relations import (
    classical_check,
    load_relation_catalog,
    load_scan_catalog,
    verify_relation,
)
from thetaq.repcount import (
    MixedSumSpec,
    count_enumerate,
    count_series,
    nonrep_scan,
)

Q150 = 300  # q^150 in half-units


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_01_theta_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for eps in (1, -1):
        for a in range(0, 25):
            for b in range(a, 25):
                if a + b == 0:
                    continue
                arg = ThetaArg(eps, a, b)
                bilateral = theta_expand(arg, 600)
                product = jacobi_triple_product(arg, 600)
                outcome = bilateral.compare(product, 600)
                assert outcome.equal, (eps, a, b, outcome.mismatch)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report(f"ACCEPTANCE 1 PASS: expansion == triple product for {checked} "
           f"arguments through half-order 600 in {elapsed:.1f}s")


def test_criterion_02_foundational_property_suite():
    # argument symmetry
    for eps in (1, -1):
        for (a, b) in [(2, 6), (1, 5), (0, 4), (3, 9), (5, 7)]:
            left = theta_expand(ThetaArg(eps, a, b), Q150)
            right = theta_expand(ThetaArg(eps, b, a), Q150)
            assert left.compare(right, Q150).equal

    # unit-argument rules: doubling for +1, vanishing for -1
    for b in range(1, 13):
        doubled = theta_expand(ThetaArg(1, 0, b), Q150)
        base = theta_expand(ThetaArg(1, b, 3 * b), Q150).scale(2)
        assert doubled.compare(base, Q150).equal
        assert theta_expand(ThetaArg(-1, 0, b), Q150).is_zero()

    # pairing lemma over all quadruples with a+b = c+d <= 16
    quads = 0
    for s in range(1, 17):
        for a in range(0, s // 2 + 1):
            for c in range(0, s // 2 + 1):
                b, d = s - a, s - c
                left = (
                    theta_expand(ThetaArg(1, a, b), Q150 + 8)
                    * theta_expand(ThetaArg(1, c, d), Q150 + 8)
                    + theta_expand(ThetaArg(-1, a, b), Q150 + 8)
                    * theta_expand(ThetaArg(-1, c, d), Q150 + 8)
                )
                right = (
                    theta_expand(ThetaArg(1, a + c, b + d), Q150 + 8)
                    * theta_expand(ThetaArg(1, a + d, b + c), Q150 + 8)
                ).scale(2)
                assert left.compare(right, Q150).equal, (a, b, c, d)
                quads += 1

    # product-of-shifted-arguments identities
    for x in range(0, 9):
        for y in range(0, 9):
            if x + y == 0:
                continue
            left = theta_expand(ThetaArg(1, x, x + 2 * y), Q150 + 8) * \
                theta_expand(ThetaArg(1, y, 2 * x + y), Q150 + 8)
            right = theta_expand(ThetaArg(1, x, y), Q150 + 8) * \
                theta_expand(ThetaArg(1, x + y, 3 * (x + y)), Q150 + 8)
            assert left.compare(right, Q150).equal
            left = theta_expand(ThetaArg(1, x, y), Q150 + 8) * \
                theta_expand(ThetaArg(-1, x, y), Q150 + 8)
            right = theta_expand(ThetaArg(-1, 2 * x, 2 * y), Q150 + 8) * \
                theta_expand(ThetaArg(-1, x + y, x + y), Q150 + 8)
            assert left.compare(right, Q150).equal

    # normalization round-trips on the half-unit grid
    for eps in (1, -1):
        for r in range(0, 13):
            for s in range(r + 1, 13):
                arg = ThetaArg(eps, -r, s)
                direct = theta_expand(arg, Q150)
                via = theta_normalize(arg).expand(Q150)
                assert direct.compare(via, Q150).equal, (eps, r, s)

    # two-way split identity, including negative second arguments
    for eps in (1, -1):
        for a in range(1, 7):
            for b in range(1, 7):
                arg = ThetaArg(eps, a, b)
                whole = theta_expand(arg, Q150)
                total = HalfPowerSeries.zero(Q150)
                for sign, shift, part in theta_dissection(arg, 2):
                    piece = theta_normalize(part).expand(Q150 - shift).shift(shift)
                    total = total + (piece if sign == 1 else -piece)
                assert whole.compare(total, Q150).equal, (eps, a, b)

    # the three fixed two-way splits
    phi = theta_expand(theta_special("phi"), Q150)
    split = theta_expand(theta_special("phi", 4), Q150) + \
        theta_expand(theta_special("psi", 8), Q150 - 2).shift(2).scale(2)
    assert phi.compare(split, Q150).equal

    psi = theta_expand(theta_special("psi"), Q150)
    split = theta_expand(ThetaArg(1, 12, 20), Q150) + \
        theta_expand(ThetaArg(1, 28, 4), Q150 - 2).shift(2)
    assert psi.compare(split, Q150).equal

    X = theta_expand(theta_special("X"), Q150)
    split = theta_expand(ThetaArg(1, 14, 10), Q150) + \
        theta_expand(ThetaArg(1, 22, 2), Q150 - 2).shift(2)
    assert X.compare(split, Q150).equal

    report(f"ACCEPTANCE 2 PASS: foundational identities exact through q^150 "
           f"({quads} pairing quadruples)")


def test_criterion_03_triple_product_grid():
    entries = [e for e in load_identity_catalog() if e.kind == "thm1"]
    pairs = {(2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 1), (6, 5)}
    per_pair = {p: 0 for p in pairs}
    for entry in entries:
        rep = entry.verify(Q150)
        assert rep.ok, (entry.id, rep)
        assert rep.rhs_term_count == 2 * entry.params["k"], entry.id
        per_pair[(entry.params["k"], entry.params["r"])] += 1
    assert all(n >= 3 for n in per_pair.values()), per_pair
    named = {e.id for e in entries if e.id.startswith("thm1.A")}
    assert named == {
        "thm1.Athm1", "thm1.Athm2", "thm1.Athm3", "thm1.Athm4", "thm1.Athm7",
        "thm1.Athm8", "thm1.Athm9", "thm1.Athm10", "thm1.Athm11", "thm1.Athm12",
    }
    report(f"ACCEPTANCE 3 PASS: {len(entries)} triple-product settings exact "
           f"through q^150 with term count 2k")


def test_criterion_04_pair_grid_and_signed_identities():
    pair_entries = [e for e in load_identity_catalog() if e.kind == "thm2"]
    assert len(pair_entries) >= 24
    for entry in pair_entries:
        rep = entry.verify(Q150)
        assert rep.ok, (entry.id, rep)
        assert rep.rhs_term_count == entry.params["k"], entry.id
    substituted = 0
    for row in range(1, 9):
        for m in range(1, 7):
            cid = f"clp2.{row}"
            assert verify_corollary(cid, m=m, through=Q150).ok, (row, m)
            substituted += _all_even(sum(_reduced_signed_pair(cid, m), []))
    assert substituted == 6 * 6  # rows 1-4, 7, 8 halve their exponents
    report(f"ACCEPTANCE 4 PASS: {len(pair_entries)} two-theta settings and "
           f"48 signed identities exact through q^150")


def test_criterion_05_worked_examples():
    rT = MixedSumSpec.of("rT", (1, 1, 1))
    Rt = MixedSumSpec.of("Rt", (2, 2, 2))
    T244 = MixedSumSpec.of("T", (2, 4, 4))
    series = {
        name: count_series(spec, 12)
        for name, spec in (("rT", rT), ("Rt", Rt), ("T", T244))
    }
    assert count_enumerate(rT, 5) == 8 and series["rT"].coeff(10) == 8
    assert count_enumerate(Rt, 5) == 0 and series["Rt"].coeff(10) == 0
    assert count_enumerate(T244, 4) == 2 and series["T"].coeff(8) == 2
    assert count_enumerate(rT, 10) == 16 and series["rT"].coeff(20) == 16
    assert count_enumerate(Rt, 10) == 16 and series["Rt"].coeff(20) == 16
    report("ACCEPTANCE 5 PASS: worked count examples by both methods")


def test_criterion_06_count_method_equivalence():
    pairs = set()
    for rel in load_relation_catalog():
        pairs.add((rel.lhs.form, rel.lhs.coeffs))
        for r in rel.rhs:
            pairs.add((r.form, r.coeffs))
    for s in load_scan_catalog():
        pairs.add((s.form, tuple(s.coeffs)))
    forms_seen = {form for form, _ in pairs}
    assert len(forms_seen) == 20
    for form, coeffs in sorted(pairs):
        spec = MixedSumSpec.of(form, coeffs)
        series = count_series(spec, 500)
        for n in range(501):
            assert count_enumerate(spec, n) == series.coeff(2 * n), (form, coeffs, n)
    report(f"ACCEPTANCE 6 PASS: enumeration agrees with series coefficients "
           f"for {len(pairs)} cataloged forms through N=500")


def test_criterion_07_relation_catalog():
    catalog = load_relation_catalog()
    pinned = [r for r in catalog if r.status == "pinned"]
    empirical = [r for r in catalog if r.status == "empirical"]
    minimum = {
        "Athm1", "Athm2", "Athm3", "Athm4", "Athm7", "Athm8", "Athm9",
        "Athm10", "Athm11", "Athm12",
    }
    assert minimum <= {r.id.split(".")[0] for r in pinned}
    assert {"AAthm71.10", "AAthm71.14", "AAthm18.1", "AAthm18.3",
            "AAthm18.5"} <= {r.id for r in pinned}
    # the status flag is the outcome through N = 1000: a pinned row holds
    # there and an empirical row has a counterexample there
    for rel in pinned:
        assert verify_relation(rel, 1000) == [], rel.id
    outcomes = {}
    for rel in empirical:
        first = verify_relation(rel, 1000)
        second = verify_relation(rel, 1000)
        assert [c.n for c in first] == [c.n for c in second]  # deterministic
        assert first, f"{rel.id} holds through N = 1000 but is flagged empirical"
        outcomes[rel.id] = first[0].n
    assert outcomes["Athm11.3"] == 1  # smallest counterexample, reported
    report(f"ACCEPTANCE 7 PASS: {len(pinned)} pinned relations hold to "
           f"N=1000; {len(empirical)} empirical rows fail by then")


def test_criterion_08_classical_checks():
    assert classical_check("gauss3tri", 5000).ok
    assert classical_check("gauss_legendre", 4096).ok
    assert classical_check("liouville", 2000).ok
    assert classical_check("sun_sq_sq_t", 2000).ok
    assert classical_check("sun_sq_t_t", 2000).ok
    assert classical_check("ramanujan_dickson_10", 4096).ok
    assert classical_check("dickson_126", 4096).ok
    report("ACCEPTANCE 8 PASS: classical desk-scale checks at stated bounds")


def test_criterion_09_nonrepresentability_scans():
    scans = load_scan_catalog()
    expected = {
        ("Rt", (1, 1, 4), 4, 3), ("pG", (4, 1, 1), 4, 3),
        ("tG", (12, 1, 1), 4, 3), ("tG", (4, 1, 1), 4, 3),
        ("Rt", (3, 3, 4), 4, 1), ("Rp", (3, 3, 4), 4, 1),
        ("rtg", (3, 12, 1), 4, 2), ("rpg", (3, 4, 1), 4, 2),
        ("rpg", (9, 4, 3), 4, 2), ("rtg", (3, 4, 1), 4, 2),
    }
    got = {(s.form, tuple(s.coeffs), s.modulus, s.residue) for s in scans}
    assert got == expected
    for scan in scans:
        hits = nonrep_scan(scan.spec, scan.modulus, scan.residue, 10_000)
        assert hits == [], (scan.id, hits[:5])
    report("ACCEPTANCE 9 PASS: all ten residue classes empty through N=10000")


def test_criterion_10_performance():
    # dense half-order-600 series product
    rng = np.random.default_rng(3)
    a = HalfPowerSeries(0, 600, rng.integers(-50, 50, 601))
    b = HalfPowerSeries(0, 600, rng.integers(-50, 50, 601))
    best = min(
        _timed(lambda: a * b) for _ in range(5)
    )
    assert best < 0.050, f"product took {best * 1000:.1f}ms"

    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "thetaq.cli", "verify", "all"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 300, f"full verification took {elapsed:.0f}s"
    report(f"ACCEPTANCE 10 PASS: product {best * 1000:.1f}ms, full "
           f"verification {elapsed:.1f}s")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
