"""Relation catalog, classical checks, falsification paths."""

import hashlib
import json

import numpy as np
import pytest

from thetaq.relations import (
    CLASSICAL_IDS,
    Counterexample,
    CountRef,
    RelationStatement,
    classical_check,
    load_relation_catalog,
    load_scan_catalog,
    verify_relation,
)
from thetaq.repcount import TABLE_CACHE, MixedSumSpec, count_enumerate, nonrep_scan


@pytest.fixture(scope="module")
def catalog():
    return load_relation_catalog()


class TestCatalogShape:
    def test_sizes(self, catalog):
        assert len(catalog) >= 108
        assert sum(1 for r in catalog if r.status == "pinned") >= 90
        assert len(load_scan_catalog()) == 10

    def test_minimum_pinned_ids(self, catalog):
        pinned = {r.id for r in catalog if r.status == "pinned"}
        for rid in [
            "Athm1.1", "Athm1.2", "Athm2.1", "Athm2.2", "Athm2.3",
            "Athm3.1", "Athm3.2", "Athm4.1", "Athm4.2", "Athm4.3",
            "Athm4.4", "Athm4.5", "Athm4.6", "Athm7.1", "Athm7.2",
            "Athm8.1", "Athm8.2", "Athm8.3", "Athm9.1", "Athm9.2",
            "Athm9.3", "Athm10.1", "Athm10.2", "Athm11.1", "Athm12.1",
            "Athm12.2", "Athm12.3", "Athm12.4", "Athm12.5", "Athm12.6",
            "AAthm71.10", "AAthm71.14", "AAthm18.1", "AAthm18.3", "AAthm18.5",
        ]:
            assert rid in pinned, rid

    def test_statement_rendering(self, catalog):
        by_id = {r.id: r for r in catalog}
        assert by_id["Athm1.1"].render() == "rT(1,1,1;N) = Rt(2,2,2;N)  (N == 0 mod 2)"
        assert by_id["Athm4.4"].render() == "T(1,1,2;4N+3) = 4 T(1,2,4;N)"
        assert by_id["Athm2.3"].render() == "Rt(1,1,4;N) = 0  (N == 3 mod 4)"

    def test_residue_families_partition(self, catalog):
        # argument maps of one theorem family tile the integers exactly once
        families = {
            "Athm4": ("T", (1, 1, 2)),
            "Athm12": ("pG", (2, 1, 1)),
        }
        for gid, (form, coeffs) in families.items():
            classes = []
            for rel in catalog:
                if rel.id.startswith(gid + ".") and rel.lhs.form == form \
                        and rel.lhs.coeffs == coeffs:
                    classes.append((rel.lhs.alpha, rel.lhs.beta))
            modulus = classes[0][0]
            assert all(alpha == modulus for alpha, _ in classes)
            assert sorted(beta % modulus for _, beta in classes) == list(range(modulus))


class TestVerification:
    def test_pinned_relations_hold_to_moderate_bound(self, catalog):
        for rel in catalog:
            if rel.status == "pinned":
                assert verify_relation(rel, 200) == [], rel.id

    def test_empirical_failures_are_reported_not_raised(self, catalog):
        outcomes = {}
        for rel in catalog:
            if rel.status == "empirical":
                counter = verify_relation(rel, 120)
                outcomes[rel.id] = counter[0] if counter else None
        assert outcomes, "catalog is expected to carry empirical rows"
        failing = {rid: ce for rid, ce in outcomes.items() if ce}
        assert failing
        # deterministic smallest counterexamples
        assert outcomes["Athm11.3"].n == 1
        assert outcomes["AAthm71.1"].n == 0

    def test_amended_twins_hold(self, catalog):
        by_id = {r.id: r for r in catalog}
        for rid in ("Athm11.2a", "Athm11.3a", "AAthm71.1a", "AAthm18.13a",
                    "PgTg.11a", "PgTg.12a"):
            assert by_id[rid].status == "pinned"
            assert verify_relation(by_id[rid], 400) == []
            # each amendment keeps its printed sibling in the catalog
            assert by_id[rid[:-1]].status == "empirical"

    def test_worked_example_values(self):
        # rT(1,1,1;10) = Rt(2,2,2;10) = 16 sits inside the even branch
        rel = RelationStatement(
            "probe", CountRef("rT", (1, 1, 1)), (CountRef("Rt", (2, 2, 2)),),
            residue_class=(2, 0),
        )
        assert verify_relation(rel, 10) == []
        assert count_enumerate(MixedSumSpec.of("rT", (1, 1, 1)), 10) == 16

    def test_corrupted_relation_is_falsified(self):
        rel = RelationStatement(
            "probe", CountRef("rT", (1, 1, 1)),
            (CountRef("T", (2, 4, 4), 1, -1, 3),),  # scalar 3 instead of 4
            residue_class=(2, 1),
        )
        counter = verify_relation(rel, 100)
        assert counter and counter[0].n == 1
        assert counter[0].lhs == 4 and counter[0].rhs == 3

    @pytest.mark.parametrize("rid", ["Athm11.3", "AAthm71.1", "AAthm18.13", "PgTg.11",
                                     "Athm4.4", "user"])
    def test_against_per_n_reference(self, catalog, rid):
        if rid == "user":  # every N fails: scalars, negative arguments, no class
            rel = RelationStatement(
                rid, CountRef("rT", (1, 1, 1), 2, -3, 2),
                (CountRef("T", (1, 2, 4), 3, 1, -1), CountRef("r", (1, 1, 1))),
            )
        else:
            rel = next(r for r in catalog if r.id == rid)

        def side(ref, n):
            arg = ref.alpha * n + ref.beta
            return ref.scalar * count_enumerate(ref.spec, arg) if arg >= 0 else 0

        m, r = rel.residue_class or (1, 0)
        expected = []
        for n in range(r, 151, m):
            lhs, rhs = side(rel.lhs, n), sum(side(ref, n) for ref in rel.rhs)
            if lhs != rhs:
                expected.append(Counterexample(n, lhs, rhs))
        counter = verify_relation(rel, 150)
        assert counter == expected
        assert all(type(v) is int for ce in counter for v in (ce.n, ce.lhs, ce.rhs))

    def test_zero_relations(self, catalog):
        by_id = {r.id: r for r in catalog}
        for rid in ("Athm2.3", "Athm8.3", "Athm9.3", "AAthm71.10",
                    "AAthm71.14", "AAthm18.1", "AAthm18.3", "AAthm18.5"):
            rel = by_id[rid]
            assert rel.rhs == ()
            assert verify_relation(rel, 300) == []

    def test_external_catalog_extension(self, tmp_path):
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps({
            "relations": [{
                "id": "user.1",
                "lhs": {"form": "T", "coeffs": [1, 1, 1]},
                "rhs": [{"form": "T", "coeffs": [1, 1, 1]}],
            }]
        }))
        merged = load_relation_catalog(extra)
        assert any(r.id == "user.1" for r in merged)
        user = next(r for r in merged if r.id == "user.1")
        assert verify_relation(user, 50) == []


class TestCounterexamples:
    """The lazy sequence ``verify_relation`` returns behaves as a list."""

    # nearly every N fails: scalars, negative arguments, no residue class
    USER = RelationStatement(
        "user", CountRef("rT", (1, 1, 1), 2, -3, 2),
        (CountRef("T", (1, 2, 4), 3, 1, -1), CountRef("r", (1, 1, 1))),
    )

    @pytest.fixture(scope="class")
    def expected(self):
        def side(ref, n):
            arg = ref.alpha * n + ref.beta
            return ref.scalar * count_enumerate(ref.spec, arg) if arg >= 0 else 0

        rel = self.USER
        rows = [Counterexample(n, side(rel.lhs, n), sum(side(r, n) for r in rel.rhs))
                for n in range(61)]
        return [ce for ce in rows if ce.lhs != ce.rhs]

    def test_length_and_truth(self, expected):
        counter = verify_relation(self.USER, 60)
        assert len(counter) == len(expected) == 60 and counter
        empty = verify_relation(self.USER, -1)
        assert len(empty) == 0 and not empty

    def test_indexing_and_slices(self, expected):
        counter = verify_relation(self.USER, 60)
        for i in (0, 1, 30, 59, -1, -2, -60):
            assert counter[i] == expected[i], i
        for i in (60, -61):
            with pytest.raises(IndexError):
                counter[i]
        assert counter[5:17:3] == expected[5:17:3]
        assert counter[-4:] == expected[-4:]
        assert counter[70:] == []

    def test_iteration_yields_python_ints(self, expected):
        counter = verify_relation(self.USER, 60)
        items = list(counter)
        assert items == expected
        assert all(type(ce) is Counterexample for ce in items)
        assert all(type(v) is int for ce in counter for v in (ce.n, ce.lhs, ce.rhs))
        assert all(type(v) is int for v in (counter[-1].n, counter[-1].lhs, counter[-1].rhs))

    def test_equality_against_lists(self, expected):
        counter = verify_relation(self.USER, 60)
        assert counter == expected and expected == counter
        assert not (counter != expected) and not (expected != counter)
        altered = expected[:-1] + [Counterexample(expected[-1].n, 0, 0)]
        for other in (altered, expected[:-1], [], expected + expected[:1]):
            assert counter != other and other != counter
            assert not (counter == other) and not (other == counter)
        assert verify_relation(self.USER, -1) == [] and [] == verify_relation(self.USER, -1)
        assert counter == verify_relation(self.USER, 60)
        assert counter != tuple(expected)  # as for a list

    def test_repr(self, expected):
        counter = verify_relation(self.USER, 60)
        assert repr(counter[:2]) == f"Counterexamples([{expected[0]!r}, {expected[1]!r}])"
        assert repr(counter[:0]) == "Counterexamples([])"
        assert repr(counter[:5]).endswith(f"{expected[4]!r}])")
        assert repr(counter[:6]).endswith(f"{expected[4]!r}, ... (6 in all)])")
        text = repr(counter)
        assert text.startswith(f"Counterexamples([{expected[0]!r}, ")
        assert text.endswith(", ... (60 in all)])") and repr(expected[5]) not in text

    def test_catalog_matches_list_built_from_arrays(self, catalog):
        # the reference rebuilds every counterexample eagerly from the
        # masked arrays, as the sequence would on a full read
        def digest(items):
            return hashlib.sha256(repr(items).encode()).hexdigest()

        n_max = 20000
        for rel in catalog:
            m, r = rel.residue_class or (1, 0)
            ns = np.arange(n_max + 1)
            ns = ns[ns % m == r]

            def side(ref):
                args = ref.alpha * ns + ref.beta
                table = TABLE_CACHE.get(ref.spec, int(args.max()))
                vals = np.zeros(ns.size, dtype=np.int64)
                vals[args >= 0] = table[args[args >= 0]]
                return ref.scalar * vals

            lhs, rhs = side(rel.lhs), sum((side(ref) for ref in rel.rhs), np.zeros_like(ns))
            bad = lhs != rhs
            reference = [
                Counterexample(n, lv, rv)
                for n, lv, rv in zip(ns[bad].tolist(), lhs[bad].tolist(), rhs[bad].tolist())
            ]
            assert digest(list(verify_relation(rel, n_max))) == digest(reference), rel.id


class TestSeriesToRelationBridge:
    """One relation family rederived from its source series identity.

    The generating function of 2p + g + g' representations is the
    product X(q^2) Y^2(q); extracting each residue class of its
    exponents modulo 6 must reproduce the cataloged count relations,
    closing the loop between the identity engine and the enumerative
    side with no shared code path.
    """

    # residue class -> (count form, coeffs, scalar) per the catalog
    CASES = {
        0: ("rP", (1, 1, 2), 1),
        1: ("rtp", (3, 2, 1), 2),
        2: ("rtp", (1, 3, 2), 2),
        3: ("tpg", (2, 1, 1), 2),
        4: ("rtp", (1, 6, 1), 2),
        5: ("Tg", (2, 3, 1), 4),
    }

    def test_six_way_split(self):
        from thetaq.repcount import count_series
        from thetaq.theta import theta_expand, theta_special

        bound = 720
        source = (
            theta_expand(theta_special("X", 2), bound)
            * theta_expand(theta_special("Y"), bound)
            * theta_expand(theta_special("Y"), bound)
        )
        order = (bound // 12 - 1) // 2  # surviving q-order after the split
        for residue, (form, coeffs, scalar) in self.CASES.items():
            part = source.dissect(12, 2 * residue, divide=True)
            part = part.substitute_power(2)  # back onto the whole-q grid
            target = count_series(MixedSumSpec.of(form, coeffs), order).scale(scalar)
            assert part.compare(target, 2 * order).equal, residue


class TestScanCatalog:
    def test_all_confirmed_to_moderate_bound(self):
        for scan in load_scan_catalog():
            hits = nonrep_scan(scan.spec, scan.modulus, scan.residue, 600)
            assert hits == [], scan.id


class TestClassical:
    def test_three_triangular_coverage(self):
        assert classical_check("gauss3tri", 600).ok

    def test_liouville_vectors(self):
        assert classical_check("liouville", 400).ok

    def test_liouville_negative_control(self):
        # a vector outside the list fails coverage: t + t' + 3 t'' misses 8
        spec = MixedSumSpec.of("T", (1, 1, 3))
        assert count_enumerate(spec, 8) == 0

    def test_sun_lists(self):
        assert classical_check("sun_sq_sq_t", 400).ok
        assert classical_check("sun_sq_t_t", 400).ok

    def test_three_squares_exception_set(self):
        report = classical_check("gauss_legendre", 512)
        assert report.ok
        gaps = [n for n in range(513)
                if count_enumerate(MixedSumSpec.of("r", (1, 1, 1)), n) == 0]
        assert gaps[:6] == [7, 15, 23, 28, 31, 39]

    def test_even_ten_form(self):
        assert classical_check("ramanujan_dickson_10", 512).ok
        # 6 is the least even exception
        assert count_enumerate(MixedSumSpec.of("r", (1, 1, 10)), 6) == 0

    def test_one_two_six_form(self):
        assert classical_check("dickson_126", 512).ok
        assert count_enumerate(MixedSumSpec.of("r", (1, 2, 6)), 5) == 0

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            classical_check("fermat", 100)

    def test_id_listing(self):
        assert set(CLASSICAL_IDS) == {
            "gauss3tri", "liouville", "sun_sq_sq_t", "sun_sq_t_t",
            "gauss_legendre", "ramanujan_dickson_10", "dickson_126",
        }
