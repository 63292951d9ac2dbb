"""Relation catalog, classical checks, falsification paths."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq import relations, repcount
from thetaq.relations import (
    CLASSICAL_IDS,
    ClassicalReport,
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


def per_n_reference(rel: RelationStatement, n_max: int) -> tuple[list, list, list]:
    """(ns, lhs, rhs): the N through n_max in the relation's class and both
    sides at each, one N at a time by enumeration; a negative argument
    counts 0."""
    def side(ref, n):
        arg = ref.alpha * n + ref.beta
        return ref.scalar * count_enumerate(ref.spec, arg) if arg >= 0 else 0

    m, r = rel.residue_class or (1, 0)
    ns = list(range(r, n_max + 1, m))
    return (ns, [side(rel.lhs, n) for n in ns],
            [sum(side(ref, n) for ref in rel.rhs) for n in ns])


def every_n(rel: RelationStatement, n_max: int) -> tuple[list, list, list]:
    """The (ns, lhs, rhs) arrays ``verify_relation`` compares, as lists."""
    return tuple(a.tolist() for a in relations._sides(rel, n_max))


def first_failure(ns, lhs, rhs) -> list[Counterexample]:
    """What ``verify_relation`` returns for these sides."""
    return [Counterexample(n, lv, rv) for n, lv, rv in zip(ns, lhs, rhs) if lv != rv][:1]


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
        reference = per_n_reference(rel, 150)
        assert every_n(rel, 150) == reference
        counter = verify_relation(rel, 150)
        assert counter == first_failure(*reference)
        assert all(type(v) is int for ce in counter for v in (ce.n, ce.lhs, ce.rhs))

    @pytest.mark.parametrize("lhs,residue_class,wider", [
        # beta < -alpha*r: the first arguments are negative and count 0
        (CountRef("rT", (1, 1, 1), 3, -20), (5, 2), None),
        # every argument is negative
        (CountRef("T", (1, 2, 4), 2, -1000), (3, 1), None),
        # a cached table much wider than the largest argument
        (CountRef("Rt", (1, 1, 2), 2, 1), (4, 3), 5000),
    ])
    def test_strided_sides(self, lhs, residue_class, wider):
        if wider is not None:
            assert TABLE_CACHE.get(lhs.spec, wider).size > 2 * 150 + 2
        rel = RelationStatement("probe", lhs, (CountRef("r", (1, 1, 1), 1, 2),),
                                residue_class=residue_class)
        reference = per_n_reference(rel, 150)
        assert every_n(rel, 150) == reference
        assert verify_relation(rel, 150) == first_failure(*reference)

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


@pytest.fixture
def builds(monkeypatch):
    """(spec, limit) of every table build, from an empty cache."""
    calls = []
    build = repcount._count_columns

    def spy(spec, limit, *rest):
        calls.append((spec, limit))
        return build(spec, limit, *rest)

    monkeypatch.setattr(TABLE_CACHE, "_tables", {})
    monkeypatch.setattr(repcount, "_count_columns", spy)
    return calls


class TestTableRequests:
    """Each side asks for its table through the end of the alpha-block
    that holds its largest argument at n_max."""

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.integers(1, 10**6), beta=st.integers(-10**7, 10**7),
           mr=st.integers(1, 40).flatmap(
               lambda m: st.tuples(st.just(m), st.integers(0, m - 1))),
           n_max=st.integers(0, 5000))
    def test_bound_covers_every_argument_and_less_than_one_step_more(
            self, alpha, beta, mr, n_max):
        requests = []

        class Spy:
            def get(self, spec, limit):
                requests.append(limit)
                return np.broadcast_to(np.int16(0), (limit + 1,))  # no memory

        rel = RelationStatement("probe", CountRef("T", (1, 1, 1), alpha, beta), (),
                                residue_class=mr)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relations, "TABLE_CACHE", Spy())
            verify_relation(rel, n_max)
        m, r = mr
        args = [alpha * n + beta for n in range(r, n_max + 1, m)]
        if not args or args[-1] < 0:  # every argument counts 0 unread
            assert requests == []
            return
        (bound,) = requests
        assert all(bound >= arg for arg in args)
        assert bound - args[-1] < alpha * m

    def test_betas_of_one_block_share_one_build(self, builds):
        # beta = 0 .. alpha - 1 in several classes; exact bounds would
        # rebuild the table at every new beta
        alpha, n_max = 4, 300
        for beta in range(alpha):
            for residue_class in ((1, 0), (3, 2), (5, beta)):
                rel = RelationStatement("probe", CountRef("Tp", (1, 2, 3), alpha, beta),
                                        (), residue_class=residue_class)
                verify_relation(rel, n_max)
        spec = MixedSumSpec.of("Tp", (1, 2, 3))
        assert builds == [(spec, alpha * (n_max + 1) - 1)]

    def test_catalog_builds_at_most_one_table_per_block(self, catalog, builds):
        # one bound per (signature, alpha, beta // alpha): 190 keys; exact
        # bounds made 224 builds here in catalog order
        for rel in catalog:
            verify_relation(rel, 2000)
        keys = {(ref.spec.terms, ref.alpha, ref.beta // ref.alpha)
                for rel in catalog for ref in (rel.lhs, *rel.rhs)}
        assert len(builds) <= len(keys)


class TestCounterexamples:
    """``verify_relation`` returns a list: the smallest counterexample, or
    nothing."""

    # nearly every N fails: scalars, negative arguments, no residue class
    USER = RelationStatement(
        "user", CountRef("rT", (1, 1, 1), 2, -3, 2),
        (CountRef("T", (1, 2, 4), 3, 1, -1), CountRef("r", (1, 1, 1))),
    )

    @pytest.fixture(scope="class")
    def expected(self):
        ns, lhs, rhs = per_n_reference(self.USER, 60)
        return [Counterexample(*row) for row in zip(ns, lhs, rhs) if row[1] != row[2]]

    def test_length_and_truth(self, expected):
        counter = verify_relation(self.USER, 60)
        assert len(expected) == 60
        assert type(counter) is list and len(counter) == 1 and counter
        empty = verify_relation(self.USER, -1)
        assert empty == [] and not empty

    def test_equality_against_lists(self, expected):
        counter = verify_relation(self.USER, 60)
        assert counter == expected[:1] and expected[:1] == counter
        altered = [Counterexample(expected[0].n, 0, 0)]
        for other in (altered, expected[1:2], [], expected[:2]):
            assert counter != other and other != counter
        assert counter == verify_relation(self.USER, 60)

    def test_catalog_matches_list_built_from_arrays(self, catalog):
        # the reference reads every side's table at its exact arguments
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
            reference = (ns.tolist(), lhs.tolist(), rhs.tolist())
            assert every_n(rel, n_max) == reference, rel.id
            assert verify_relation(rel, n_max) == first_failure(*reference), rel.id


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

    @staticmethod
    def patch_gaps(monkeypatch, form, coeffs, add=(), drop=()):
        """Add ``add`` to and take ``drop`` from the true gaps of one count."""
        real = relations._coverage_gaps

        def gaps(f, c, n_max):
            out = set(real(f, c, n_max))
            if (f, c) == (form, coeffs):
                out = (out | set(add)) - set(drop)
            return sorted(out)

        monkeypatch.setattr(relations, "_coverage_gaps", gaps)

    def test_gauss3tri_reports_gaps(self, monkeypatch):
        self.patch_gaps(monkeypatch, "T", (1, 1, 1), add=(10, 40))
        assert classical_check("gauss3tri", 100) == ClassicalReport(
            "gauss3tri", False, 100, {"uncovered": [10, 40]})

    def test_coverage_reports_gaps_by_triple(self, monkeypatch):
        self.patch_gaps(monkeypatch, "T", (1, 2, 3), add=(5, 40))
        triples = [(1, 1, 1), (1, 1, 2), (1, 1, 4), (1, 1, 5), (1, 2, 2), (1, 2, 3),
                   (1, 2, 4)]
        want = {str(t): [5, 40] if t == (1, 2, 3) else [] for t in triples}
        assert classical_check("liouville", 100) == ClassicalReport(
            "liouville", False, 100, {"uncovered": want})

    @pytest.mark.parametrize("cid,form,coeffs,add,drop", [
        ("gauss_legendre", "r", (1, 1, 1), (10,), (7,)),
        ("ramanujan_dickson_10", "r", (1, 1, 10), (8,), (6,)),
        ("dickson_126", "r", (1, 2, 6), (12,), (5,)),
    ])
    def test_exception_set_reports_difference(self, monkeypatch, cid, form, coeffs,
                                              add, drop):
        # a represented N reported unrepresented, and a family member
        # reported represented, both land in the symmetric difference
        self.patch_gaps(monkeypatch, form, coeffs, add=add, drop=drop)
        assert classical_check(cid, 100) == ClassicalReport(
            cid, False, 100, {"difference": sorted(add + drop)})

    def test_ten_form_reads_even_n_only(self, monkeypatch):
        self.patch_gaps(monkeypatch, "r", (1, 1, 10), add=(1, 5, 99))
        assert classical_check("ramanujan_dickson_10", 100).ok

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            classical_check("fermat", 100)

    def test_id_listing(self):
        assert set(CLASSICAL_IDS) == {
            "gauss3tri", "liouville", "sun_sq_sq_t", "sun_sq_t_t",
            "gauss_legendre", "ramanujan_dickson_10", "dickson_126",
        }
