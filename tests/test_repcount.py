"""Counting routes against brute-force index enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq import repcount
from thetaq import series as series_module
from thetaq.relations import load_scan_catalog
from thetaq.series import CoefficientOverflowError
from thetaq.repcount import (
    REGISTRY,
    FigurateKind,
    MixedSumSpec,
    _count_columns,
    _membership,
    _TableCache,
    count_enumerate,
    count_series,
    count_table,
    figurate_value,
    figurate_values,
    nonrep_scan,
    registry_lookup,
)


def brute_count(spec: MixedSumSpec, n: int) -> int:
    """Reference count over raw index ranges, independent of value lists."""
    if n < 0:
        return 0
    total = 0
    ranges = []
    for a, kind in spec.terms:
        idx = []
        if kind is FigurateKind.TRIANGULAR:
            m = 0
            while a * figurate_value(kind, m) <= n:
                idx.append(m)
                m += 1
        else:
            idx = [0]
            m = 1
            while True:
                added = [s * m for s in (1, -1)
                         if a * figurate_value(kind, s * m) <= n]
                idx.extend(added)
                if not added and min(
                    a * figurate_value(kind, m), a * figurate_value(kind, -m)
                ) > n:
                    break
                m += 1
        ranges.append((a, kind, idx))
    a1, k1, r1 = ranges[0]
    a2, k2, r2 = ranges[1]
    a3, k3, r3 = ranges[2]
    vals3 = {}
    for m in r3:
        vals3[a3 * figurate_value(k3, m)] = vals3.get(a3 * figurate_value(k3, m), 0) + 1
    for x in r1:
        vx = a1 * figurate_value(k1, x)
        if vx > n:
            continue
        for y in r2:
            rem = n - vx - a2 * figurate_value(k2, y)
            if rem >= 0:
                total += vals3.get(rem, 0)
    return total


class TestFigurateValues:
    def test_triangular(self):
        assert [v for _, v in figurate_values(FigurateKind.TRIANGULAR, 10)] == [0, 1, 3, 6, 10]

    def test_octagonal_with_indices(self):
        assert figurate_values(FigurateKind.GEN_OCTAGONAL, 16) == [
            (0, 0), (-1, 1), (1, 5), (-2, 8), (2, 16),
        ]

    def test_pentagonal(self):
        assert [v for _, v in figurate_values(FigurateKind.GEN_PENTAGONAL, 7)] == [0, 1, 2, 5, 7]

    def test_squares_signed_indices(self):
        assert figurate_values(FigurateKind.SQUARE, 4) == [
            (0, 0), (-1, 1), (1, 1), (-2, 4), (2, 4),
        ]

    def test_empty_below_zero(self):
        assert figurate_values(FigurateKind.SQUARE, -1) == []


class TestRegistry:
    def test_known_names(self):
        assert registry_lookup("rT") == (
            FigurateKind.SQUARE, FigurateKind.TRIANGULAR, FigurateKind.TRIANGULAR,
        )
        assert registry_lookup("Pg") == (
            FigurateKind.GEN_PENTAGONAL, FigurateKind.GEN_PENTAGONAL,
            FigurateKind.GEN_OCTAGONAL,
        )

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            registry_lookup("zz")

    def test_twenty_forms(self):
        assert len(REGISTRY) == 20


class TestWorkedExamples:
    def test_reference_values(self):
        assert count_enumerate(MixedSumSpec.of("rT", (1, 1, 1)), 5) == 8
        assert count_enumerate(MixedSumSpec.of("T", (2, 4, 4)), 4) == 2
        assert count_enumerate(MixedSumSpec.of("Rt", (2, 2, 2)), 5) == 0
        assert count_enumerate(MixedSumSpec.of("rT", (1, 1, 1)), 10) == 16
        assert count_enumerate(MixedSumSpec.of("Rt", (2, 2, 2)), 10) == 16

    def test_reference_values_by_series(self):
        assert count_series(MixedSumSpec.of("rT", (1, 1, 1)), 10).coeff(10) == 8
        assert count_series(MixedSumSpec.of("T", (2, 4, 4)), 10).coeff(8) == 2
        assert count_series(MixedSumSpec.of("Rt", (2, 2, 2)), 10).coeff(10) == 0

    def test_negative_argument(self):
        assert count_enumerate(MixedSumSpec.of("T", (1, 1, 1)), -3) == 0


class TestRouteAgreement:
    FORMS = [
        ("r", (1, 1, 2)), ("T", (1, 1, 1)), ("P", (1, 1, 2)), ("G", (1, 1, 2)),
        ("Rt", (1, 1, 4)), ("Rp", (3, 3, 4)), ("Rg", (3, 6, 2)),
        ("Tp", (3, 6, 1)), ("Tg", (3, 6, 1)), ("rT", (4, 4, 8)),
        ("rP", (3, 1, 1)), ("rG", (3, 2, 2)), ("pG", (4, 1, 1)),
        ("tP", (6, 1, 1)), ("tG", (12, 1, 1)), ("Pg", (2, 2, 1)),
        ("rtp", (3, 12, 4)), ("rtg", (3, 6, 1)), ("rpg", (3, 4, 1)),
        ("tpg", (3, 2, 1)),
    ]

    @pytest.mark.parametrize("name,coeffs", FORMS)
    def test_enumerate_series_table_and_brute(self, name, coeffs):
        spec = MixedSumSpec.of(name, coeffs)
        series = count_series(spec, 60)
        table = count_table(spec, 60)
        for n in range(61):
            expected = brute_count(spec, n)
            assert count_enumerate(spec, n) == expected
            assert series.coeff(2 * n) == expected
            assert int(table[n]) == expected

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @settings(max_examples=4, deadline=None)
    @given(coeffs=st.tuples(*[st.integers(1, 8)] * 3), limit=st.integers(1000, 5000),
           data=st.data())
    def test_table_against_enumeration_at_scale(self, name, coeffs, limit, data):
        # limits this large take the kernel's sparse routes
        spec = MixedSumSpec.of(name, coeffs)
        table = count_table(spec, limit)
        assert table.shape == (limit + 1,)
        ns = data.draw(st.lists(st.integers(0, limit), min_size=3, max_size=6))
        for n in ns + [limit]:
            assert int(table[n]) == count_enumerate(spec, n), (spec, n)

    def test_slot_symmetry(self):
        # identical (coefficient, kind) slots commute
        a = MixedSumSpec.of("rT", (3, 2, 2))
        for n in range(0, 120, 7):
            assert count_enumerate(a, n) == count_enumerate(
                MixedSumSpec((a.terms[0], a.terms[2], a.terms[1])), n
            )

    def test_domains_differ(self):
        # triangular indices are one-sided, squares two-sided: T vs r
        assert count_enumerate(MixedSumSpec.of("T", (1, 1, 1)), 2) == 3
        assert count_enumerate(MixedSumSpec.of("r", (1, 1, 1)), 2) == 12


class TestNarrowTables:
    """Real tables whose shifted copies run in int16, uint16 and uint32:
    a count table's operands are never negative."""

    @pytest.mark.parametrize("name,coeffs,limit,dtype", [
        ("T", (2, 5, 5), 400019, np.int16),  # B = 7200
        ("r", (1, 1, 1), 200000, np.uint32),  # B = 85920
        ("r", (1, 1, 1), 80000, np.uint16),  # B = 40680
    ])
    def test_table_near_its_top(self, name, coeffs, limit, dtype, monkeypatch):
        chosen = []
        real = series_module._accumulator

        def spy(bound, unsigned=False):
            chosen.append(real(bound, unsigned))
            return chosen[-1]

        monkeypatch.setattr(series_module, "_accumulator", spy)
        spec = MixedSumSpec.of(name, coeffs)
        table = count_table(spec, limit)
        assert chosen[-1] is dtype  # the last call adds the sparsest factor's copies
        assert table.dtype == np.int64 and table.shape == (limit + 1,)
        assert not table.flags.writeable
        ns = np.random.default_rng(limit).integers(limit - 60, limit + 1, 6).tolist()
        for n in ns + [limit]:
            assert int(table[n]) == count_enumerate(spec, n), (spec, n)


def term_product(spec: MixedSumSpec, limit: int) -> int:
    """Product of the generating thetas' term counts through ``limit``."""
    terms = 1
    for a, kind in spec.terms:
        terms *= repcount.term_exponents([(repcount._generating_arg(a, kind), limit)])[1].size
    return terms


class TestTermBound:
    """Every partial sum of a table is at most the product of the factors'
    term counts: a table within it is built, one past it is refused."""

    SPEC = MixedSumSpec.of("r", (1, 1, 2))
    CLASSES = [(1, 0), (4, 1), (8, 7)]

    @pytest.mark.parametrize("modulus,residue", CLASSES)
    def test_refused_past_the_bound(self, monkeypatch, modulus, residue):
        monkeypatch.setattr(series_module, "COEFF_LIMIT", term_product(self.SPEC, 3000) - 1)
        with pytest.raises(CoefficientOverflowError, match="64 bits"):
            count_table(self.SPEC, 3000, modulus, residue)

    def test_rebuild_refused_past_the_bound(self, monkeypatch):
        cache = _TableCache()
        table = cache.get(self.SPEC, 1000)
        monkeypatch.setattr(series_module, "COEFF_LIMIT", term_product(self.SPEC, 3000) - 1)
        with pytest.raises(CoefficientOverflowError, match="64 bits"):
            cache.get(self.SPEC, 3000)
        assert cache.get(self.SPEC, 1000) is table  # the refused rebuild kept the table

    @pytest.mark.parametrize("modulus,residue", CLASSES)
    def test_built_at_the_bound(self, monkeypatch, modulus, residue):
        full = count_table(self.SPEC, 3000)
        monkeypatch.setattr(series_module, "COEFF_LIMIT", term_product(self.SPEC, 3000))
        table = count_table(self.SPEC, 3000, modulus, residue)
        assert np.array_equal(table, full[residue::modulus]) and not table.flags.writeable
        for n in range(residue, 3001, modulus)[::40]:
            assert int(full[n]) == count_enumerate(self.SPEC, n), n

    def test_rebuild_at_the_bound(self, monkeypatch):
        full = count_table(self.SPEC, 3000)
        cache = _TableCache()
        cache.get(self.SPEC, 1000)
        monkeypatch.setattr(series_module, "COEFF_LIMIT", term_product(self.SPEC, 3000))
        assert np.array_equal(cache.get(self.SPEC, 3000), full)


class TestClassColumns:
    """One residue class N = R mod M of the counts, built on its own."""

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @settings(max_examples=20, deadline=None)
    @given(coeffs=st.tuples(*[st.integers(1, 12)] * 3), limit=st.integers(0, 3000),
           modulus=st.integers(1, 12), data=st.data())
    def test_class_is_a_slice_of_the_full_table(self, name, coeffs, limit, modulus, data):
        residue = data.draw(st.integers(0, modulus - 1))
        width = data.draw(st.integers(-1, limit))  # the class through a smaller N
        spec = MixedSumSpec.of(name, coeffs)
        full = count_table(spec, limit)
        table = count_table(spec, limit, modulus, residue)
        assert table.dtype == np.int64 and not table.flags.writeable
        assert np.array_equal(table, full[residue::modulus])
        assert np.array_equal(_count_columns(spec, width, modulus, residue),
                              full[residue : width + 1 : modulus])
        ns = data.draw(st.lists(st.integers(0, limit), max_size=2))
        for n in ns:
            assert int(full[n]) == count_enumerate(spec, n), (spec, n)

    def test_bad_class(self):
        spec = MixedSumSpec.of("Rt", (1, 1, 4))
        for modulus, residue in ((4, 4), (4, -1), (0, 0)):
            with pytest.raises(ValueError):
                count_table(spec, 100, modulus, residue)

    @pytest.mark.parametrize("name,coeffs,limit", [
        ("rtp", (1, 1, 1), 1000), ("tP", (1, 1, 1), 1000), ("rtg", (1, 1, 2), 3000),
    ])
    def test_narrow_parts_sum_in_int64(self, monkeypatch, name, coeffs, limit):
        # an extra int8 rung keeps every class part exact, and makes a sum
        # of two parts that is not widened wrap past 127 on tables this small
        spec = MixedSumSpec.of(name, coeffs)
        full = count_table(spec, limit)
        assert int(full.max()) > 127
        real = series_module._accumulator
        rungs = []

        def with_int8(bound, unsigned=False):
            rungs.append(np.int8 if bound <= 127 else real(bound, unsigned))
            return rungs[-1]

        monkeypatch.setattr(series_module, "_accumulator", with_int8)
        for modulus in range(2, 13):
            for residue in range(modulus):
                table = count_table(spec, limit, modulus=modulus, residue=residue)
                assert np.array_equal(table, full[residue::modulus]), (modulus, residue)
        assert np.int8 in rungs


class TestTableCache:
    # first requests, rebuilds past the table (+1 steps included) and
    # requests inside it
    limits = st.lists(
        st.one_of(st.integers(0, 3000), st.just(-1), st.just("+1")),
        min_size=1, max_size=8,
    )

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(sorted(REGISTRY)),
           coeffs=st.tuples(*[st.integers(1, 6)] * 3), steps=limits, data=st.data())
    def test_rebuilds_past_the_table(self, name, coeffs, steps, data):
        spec = MixedSumSpec.of(name, coeffs)
        cache = _TableCache()
        largest, before = -1, None
        for step in steps:
            limit = largest + 1 if step == "+1" else step
            table = cache.get(spec, limit)
            if before is not None and limit <= largest:  # inside: read as it is
                assert table is before
            largest, before = max(largest, limit), table
            # never larger than the largest request
            assert table.size == largest + 1
            assert np.array_equal(table, count_table(spec, largest))
            if largest >= 0:
                ns = data.draw(st.lists(st.integers(0, largest), min_size=1, max_size=3))
                for n in ns:
                    assert int(table[n]) == count_enumerate(spec, n), (spec, n)


class TestCacheStorage:
    """The cache keeps each table in the type its kernel proved."""

    def test_stored_narrow_and_read_only(self, monkeypatch):
        monkeypatch.setattr(repcount.TABLE_CACHE, "_tables", {})
        spec = MixedSumSpec.of("T", (2, 5, 5))  # B = 7200
        table = repcount.TABLE_CACHE.get(spec, 400019)
        stored = repcount.TABLE_CACHE._tables[spec.terms]
        assert stored is table and stored.dtype == np.int16
        assert stored.nbytes == 2 * 400020 and not stored.flags.writeable

    def test_rebuild_is_one_build_in_one_type(self, monkeypatch):
        monkeypatch.setattr(repcount.TABLE_CACHE, "_tables", {})
        builds = []
        build = repcount._count_columns

        def spy(spec, limit, *rest):
            builds.append(build(spec, limit, *rest))
            return builds[-1]

        monkeypatch.setattr(repcount, "_count_columns", spy)
        spec = MixedSumSpec.of("r", (1, 1, 1))
        assert repcount.TABLE_CACHE.get(spec, 1000).dtype == np.int16
        table = repcount.TABLE_CACHE.get(spec, 200000)  # B = 85920: uint32
        # the stored table is the second build itself, with no int16 piece
        assert repcount.TABLE_CACHE._tables[spec.terms] is table is builds[1]
        assert table.dtype == np.uint32 and table.size == 200001
        assert not table.flags.writeable
        fresh = count_table(spec, 200000)
        assert fresh.dtype == np.int64 and not fresh.flags.writeable
        assert np.array_equal(table, fresh)


class TestValueLists:
    def test_one_entry_per_kind_read_by_prefix(self):
        spec = MixedSumSpec.of("rtp", (1, 1, 1))
        kinds = REGISTRY["rtp"]
        count_enumerate(spec, 5000)
        tables = {kind: repcount._MEMBERSHIP[kind] for kind in kinds}
        for n in (0, 1, 17, 400, 4999):
            count_enumerate(spec, n)
            for kind in kinds:
                mult = _membership(kind, n)
                expected = {}
                for _, v in figurate_values(kind, n):
                    expected[v] = expected.get(v, 0) + 1
                values = np.flatnonzero(mult)
                assert mult.size == n + 1
                assert dict(zip(values.tolist(), mult[values].tolist())) == expected
        # smaller queries read prefixes: no table was rebuilt
        assert all(repcount._MEMBERSHIP[kind] is tables[kind] for kind in kinds)

    @pytest.mark.parametrize("kind", list(FigurateKind), ids=lambda k: k.value)
    def test_one_byte_per_value(self, monkeypatch, kind):
        # no figurate value has more than two indices (+-n for squares)
        monkeypatch.setattr(repcount, "_MEMBERSHIP", {})
        mult = _membership(kind, 10**5)
        stored = repcount._MEMBERSHIP[kind]
        assert stored.dtype == np.uint8 and stored.nbytes == 10**5 + 1
        assert int(mult.max()) == (2 if kind is FigurateKind.SQUARE else 1)
        assert int(mult.sum()) == len(figurate_values(kind, 10**5))


class TestScan:
    def test_confirmed_class(self):
        assert nonrep_scan(MixedSumSpec.of("Rt", (1, 1, 4)), 4, 3, 800) == []

    def test_represented_class(self):
        hits = nonrep_scan(MixedSumSpec.of("Rt", (1, 1, 4)), 4, 1, 100)
        assert hits and hits[0] == 1

    def test_bad_residue(self):
        with pytest.raises(ValueError):
            nonrep_scan(MixedSumSpec.of("Rt", (1, 1, 4)), 4, 5, 100)

    def test_leaves_the_table_cache_alone(self):
        before = dict(repcount.TABLE_CACHE._tables)
        for residue in range(4):
            nonrep_scan(MixedSumSpec.of("Rt", (1, 1, 4)), 4, residue, 5000)
        after = repcount.TABLE_CACHE._tables
        assert after.keys() == before.keys()
        assert all(after[key] is table for key, table in before.items())

    @pytest.mark.parametrize("scan", load_scan_catalog(), ids=lambda scan: scan.id)
    def test_sibling_classes_against_enumeration(self, scan):
        # a class the builder skips as unreachable reads as zeros, so the
        # represented classes beside each claimed one must still show
        n_max = 200
        represented = []
        for residue in range(scan.modulus):
            expected = [n for n in range(residue, n_max + 1, scan.modulus)
                        if count_enumerate(scan.spec, n)]
            assert nonrep_scan(scan.spec, scan.modulus, residue, n_max) == expected
            if expected:
                represented.append(residue)
        assert represented and scan.residue not in represented

    @pytest.mark.parametrize("name,coeffs,modulus,residue,n_max", [
        ("r", (1, 1, 1), 8, 7, 600), ("r", (1, 1, 1), 4, 1, 300),
        ("Rt", (1, 1, 4), 4, 3, 0), ("rT", (1, 2, 2), 3, 2, 1),
        ("tpg", (3, 2, 1), 5, 0, 400), ("pG", (4, 1, 1), 7, 6, -5),
    ])
    def test_against_enumeration(self, name, coeffs, modulus, residue, n_max):
        spec = MixedSumSpec.of(name, coeffs)
        repcount.TABLE_CACHE.get(spec, 700)  # a table wider than the scan
        expected = [n for n in range(residue, n_max + 1, modulus)
                    if count_enumerate(spec, n)]
        assert nonrep_scan(spec, modulus, residue, n_max) == expected


class TestSpecValidation:
    def test_three_slots_required(self):
        with pytest.raises(ValueError):
            MixedSumSpec(((1, FigurateKind.SQUARE), (1, FigurateKind.SQUARE)))

    def test_positive_coefficients(self):
        with pytest.raises(ValueError):
            MixedSumSpec.of("r", (1, 0, 2))
