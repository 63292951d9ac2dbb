"""Counting routes against brute-force index enumeration."""

import ast
import bisect
import math
import tracemalloc
from pathlib import Path

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
from thetaq.theta import ThetaArg, theta_special


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


def oracle_pairs(kind: FigurateKind, limit: int) -> list[tuple[int, int]]:
    """Every (index, value) with value <= limit over the domain indices
    |n| <= limit + 1, in ``figurate_values``' order.  A value is at least
    |n| on each kind's domain, so no index past the range qualifies."""
    span = range(0 if kind is FigurateKind.TRIANGULAR else -(limit + 1), limit + 2)
    return sorted(((n, figurate_value(kind, n)) for n in span if figurate_value(kind, n) <= limit),
                  key=lambda p: (p[1], p[0]))


def extreme_limits(kind: FigurateKind, index: int = 100) -> list[int]:
    """F(n) - 1, F(n) and F(n) + 1 at the domain's extreme indices +-index."""
    ends = [index] if kind is FigurateKind.TRIANGULAR else [-index, index]
    return [figurate_value(kind, n) + off for n in ends for off in (-1, 0, 1)]


class TestDomain:
    """``_domain`` takes every index of a value at most L from the closed
    form |n| <= isqrt(2L) + 1; brute force over |n| <= L + 1 agrees."""

    @pytest.mark.parametrize("kind", list(FigurateKind), ids=lambda k: k.value)
    def test_values_against_brute_force(self, kind):
        # one oracle run through 3000, cut at each limit: the pairs with
        # value <= L all have |n| <= L + 1, so its prefix is L's oracle
        full = oracle_pairs(kind, 3000)
        cuts = [v for _, v in full]
        for limit in range(-3, 3001):
            want = [p for p in full[: bisect.bisect_right(cuts, limit)] if abs(p[0]) <= limit + 1]
            assert figurate_values(kind, limit) == want, limit
        for limit in extreme_limits(kind):
            assert figurate_values(kind, limit) == oracle_pairs(kind, limit), limit

    @pytest.mark.parametrize("kind", list(FigurateKind), ids=lambda k: k.value)
    def test_membership_is_the_bincount(self, monkeypatch, kind):
        for limit in [*range(0, 301), 1000, 3000, *extreme_limits(kind)]:
            monkeypatch.setattr(repcount, "_MEMBERSHIP", {})
            values = np.array([v for _, v in oracle_pairs(kind, limit)], dtype=np.int64)
            want = np.bincount(values, minlength=limit + 1)
            assert np.array_equal(_membership(kind, limit), want), limit

    @pytest.mark.parametrize("kind", list(FigurateKind), ids=lambda k: k.value)
    def test_overflow_is_refused_before_any_value(self, kind):
        # an index loop would take about 3*10^9 steps to get here
        with pytest.raises(CoefficientOverflowError, match="past the 64-bit width"):
            figurate_values(kind, 2**62)

    def test_overflow_bound_is_exact(self, monkeypatch):
        # the largest top with 3*top^2 + 2*top <= 2^63 - 1, and the largest
        # limit whose indices stay within it; np.arange marks a passed proof
        most = 2**63 - 1
        top = (math.isqrt(1 + 3 * most) - 1) // 3
        assert 3 * top * top + 2 * top <= most < 3 * (top + 1) ** 2 + 2 * (top + 1)
        limit = (top * top - 1) // 2
        assert math.isqrt(2 * limit) + 1 == top < math.isqrt(2 * limit + 2) + 1

        def proven(*args, **kwargs):
            raise AssertionError("proven")

        monkeypatch.setattr(np, "arange", proven)
        for kind in FigurateKind:
            with pytest.raises(AssertionError, match="proven"):
                repcount._domain(kind, limit)
            with pytest.raises(CoefficientOverflowError):
                repcount._domain(kind, limit + 1)


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


class TestBlockedEnumeration:
    """``count_enumerate`` walks its (x, y) grid in blocks of at most
    ``_BLOCK_PAIRS`` pairs; the count is the same at every block size."""

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @settings(max_examples=5, deadline=None)
    @given(coeffs=st.tuples(*[st.integers(1, 8)] * 3), small=st.integers(0, 60),
           large=st.integers(61, 5000))
    def test_any_block_size(self, name, coeffs, small, large):
        # one pair per block, and blocks of 7 and 64 that end mid-row
        spec = MixedSumSpec.of(name, coeffs)
        expected = brute_count(spec, small), int(count_table(spec, large)[large])
        for block in (1, 7, 64):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(repcount, "_BLOCK_PAIRS", block)
                got = count_enumerate(spec, small), count_enumerate(spec, large)
            assert got == expected, (spec, block)

    @pytest.mark.parametrize("block,shapes", [
        # r(1,1,1) at 61: 8 distinct squares per slot, an 8 x 8 grid
        (7, [(1, 7), (1, 1)] * 8),
        (20, [(2, 8)] * 4),
        (1 << 16, [(8, 8)]),
    ])
    def test_blocks_hold_at_most_the_bound(self, monkeypatch, block, shapes):
        seen = []
        divmod_ = np.divmod

        def spy(rem, a):
            seen.append(rem.shape)
            return divmod_(rem, a)

        monkeypatch.setattr(repcount, "_BLOCK_PAIRS", block)
        monkeypatch.setattr(np, "divmod", spy)
        spec = MixedSumSpec.of("r", (1, 1, 1))
        assert count_enumerate(spec, 61) == brute_count(spec, 61)
        assert seen == shapes

    def test_memory_is_bounded_by_the_block(self):
        # 1001 x 1001 pairs in 16 blocks; one unblocked grid of rem and its
        # quotient and remainder alone would take 24 MB
        spec = MixedSumSpec.of("r", (1, 1, 1))
        n = 10**6
        expected = int(count_table(spec, n, modulus=n, residue=0)[-1])
        assert count_enumerate(spec, n) == expected  # warms the membership table
        tracemalloc.start()
        try:
            assert count_enumerate(spec, n) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


def _reads(tree: ast.Module, root: str) -> set[str]:
    """Every name that function ``root`` reads, and that every function of
    the module it reaches by name reads in turn."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names, walked, todo = {root}, set(), [root]
    while todo:
        name = todo.pop()
        if name in walked:
            continue
        walked.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
                if node.id in functions:
                    todo.append(node.id)
    return names


def _imported_from(tree: ast.Module, modules: set[str]) -> set[str]:
    """Names that ``tree`` binds from the sibling ``modules``, by
    ``from .m import name`` or ``from . import m``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module in modules or (node.module is None and alias.name in modules):
                    names.add(alias.asname or alias.name)
    return names


SERIES_ROUTE = {"series", "theta"}
# the one name both routes may read: an error type, which computes nothing
SHARED = {"CoefficientOverflowError"}
ENUMERATION_ONLY = {"_membership", "_MEMBERSHIP", "_domain", "figurate_values", "figurate_value"}
SERIES_ONLY = {"_factors", "_FACTORS", "_UNIT"}


def _series_code(tree: ast.Module) -> set[str]:
    return _imported_from(tree, SERIES_ROUTE) - SHARED


class TestRouteIndependence:
    """Enumeration and the generating series check one another only while
    neither reaches the other's code."""

    TREE = ast.parse(Path(repcount.__file__).read_text())

    def test_enumeration_reaches_no_series_code(self):
        reached = _reads(self.TREE, "count_enumerate")
        assert {"_membership", "_domain"} <= reached  # the walk follows module calls
        assert reached & _series_code(self.TREE) == set()

    def test_the_shared_error_type_holds_no_code(self):
        assert SHARED <= _imported_from(self.TREE, SERIES_ROUTE)
        assert issubclass(CoefficientOverflowError, OverflowError)
        assert not [v for v in vars(CoefficientOverflowError).values() if callable(v)]

    def test_enumeration_reads_no_factor_tables(self):
        assert SERIES_ONLY <= _reads(self.TREE, "_count_columns")
        assert _reads(self.TREE, "count_enumerate") & SERIES_ONLY == set()

    def test_series_reads_no_value_lists(self):
        reached = _reads(self.TREE, "_count_columns")
        assert "_split" in reached and "term_exponents" in reached
        assert reached & ENUMERATION_ONLY == set()

    @pytest.mark.parametrize("source,root,forbidden", [
        ("from .series import shifted_copies\ndef count_enumerate(s, n):\n    return shifted_copies(s)\n",
         "count_enumerate", None),
        ("from . import theta\ndef _helper(n):\n    return theta.term_exponents(n)\n"
         "def count_enumerate(s, n):\n    return _helper(n)\n", "count_enumerate", None),
        ("def _membership(k, n):\n    pass\ndef _count_columns(s, n):\n"
         "    return _membership(s, n)\n", "_count_columns", ENUMERATION_ONLY),
        ("_FACTORS = {}\ndef count_enumerate(s, n):\n    return _FACTORS[s]\n",
         "count_enumerate", SERIES_ONLY),
        ("from .series import CoefficientOverflowError, shifted_copies\n"
         "def count_enumerate(s, n):\n    if n < 0:\n        raise CoefficientOverflowError\n"
         "    return shifted_copies(s)\n", "count_enumerate", None),
        ("def _domain(k, n):\n    pass\ndef _count_columns(s, n):\n"
         "    return _domain(s, n)\n", "_count_columns", ENUMERATION_ONLY),
    ])
    def test_each_crossing_is_caught(self, source, root, forbidden):
        tree = ast.parse(source)
        forbidden = forbidden or _series_code(tree)
        assert _reads(tree, root) & forbidden


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


GENERATING = {FigurateKind.SQUARE: "phi", FigurateKind.TRIANGULAR: "psi",
              FigurateKind.GEN_PENTAGONAL: "X", FigurateKind.GEN_OCTAGONAL: "Y"}


def scaled_theta(a: int, kind: FigurateKind) -> ThetaArg:
    """The generating theta of a*F on the whole-q grid, built from
    ``theta_special``: its half-unit exponents are all even, so halving
    them is exact."""
    arg = theta_special(GENERATING[kind], a)
    return ThetaArg(arg.eps, arg.a // 2, arg.b // 2)


def term_product(spec: MixedSumSpec, limit: int) -> int:
    """Product of the generating thetas' term counts through ``limit``."""
    terms = 1
    for a, kind in spec.terms:
        terms *= repcount.term_exponents([(scaled_theta(a, kind), limit)])[1].size
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


class TestFactorTables:
    """One grow-only table per kind of the unit generating theta's
    distinct exponents and multiplicities; the factor a*F through L is a
    times its prefix through L // a."""

    SQ, TR, PE, OC = FigurateKind

    @pytest.fixture
    def requests(self, monkeypatch):
        """Every (arg, hi) request the series route forms exponents for,
        starting from cleared tables."""
        monkeypatch.setattr(repcount, "_FACTORS", {})
        formed = []
        exponents = repcount.term_exponents

        def spy(reqs):
            formed.extend(reqs)
            return exponents(reqs)

        monkeypatch.setattr(repcount, "term_exponents", spy)
        return formed

    def test_grows_only_past_its_reach(self, requests):
        unit = {kind: scaled_theta(1, kind) for kind in FigurateKind}
        count_table(MixedSumSpec.of("r", (1, 2, 3)), 1000)
        assert requests == [(unit[self.SQ], 1000)]  # one request for the widest slot
        assert repcount._FACTORS[self.SQ][1].size == 32  # 0, 1, 4, ..., 31^2
        count_table(MixedSumSpec.of("r", (1, 1, 2)), 1000)
        count_table(MixedSumSpec.of("r", (4, 4, 4)), 4000, 4, 1)
        assert len(requests) == 1  # at the reach: read by prefix
        count_table(MixedSumSpec.of("rT", (1, 2, 2)), 900)
        assert requests[1:] == [(unit[self.TR], 450)]  # squares within reach
        count_table(MixedSumSpec.of("rT", (1, 1, 1)), 451)
        assert requests[2:] == [(unit[self.TR], 451)]
        nonrep_scan(MixedSumSpec.of("tpg", (1, 1, 1)), 4, 3, 300)
        assert requests[3:] == [(unit[self.PE], 300), (unit[self.OC], 300)]

    @pytest.mark.parametrize("kind", list(FigurateKind), ids=lambda k: k.value)
    def test_prefix_is_the_scaled_theta(self, monkeypatch, kind):
        monkeypatch.setattr(repcount, "_FACTORS", {})
        # limits on, beside and between the scaled exponents, each read
        # after the table reached 400 and from a table that grows to it
        values = [v for _, v in figurate_values(kind, 400)]
        for a in range(1, 9):
            limits = sorted({max(0, a * v + off) for v in values[:12] for off in (-1, 0, 1)})
            for limit in limits + [400]:
                spec = MixedSumSpec(((a, kind), (1, kind), (8, kind)))
                want = repcount._runs(np.sort(repcount.term_exponents(
                    [(scaled_theta(a, kind), limit)])[1]))
                exps, mult = repcount._factors(spec, limit)[0]
                assert exps.tolist() == want[0].tolist(), (a, limit)
                assert mult.tolist() == want[1].tolist(), (a, limit)

    def test_shuffled_stream_against_enumeration_and_fresh_tables(self, monkeypatch):
        monkeypatch.setattr(repcount, "_FACTORS", {})
        rng = np.random.default_rng(30)
        names = sorted(REGISTRY) * 3
        rng.shuffle(names)
        classes = [(1, 0), (4, 1), (8, 7)]
        for name in names:
            spec = MixedSumSpec.of(name, tuple(rng.integers(1, 9, 3).tolist()))
            limit = int(rng.integers(0, 3001))
            modulus, residue = classes[rng.integers(3)]
            table = count_table(spec, limit, modulus, residue)
            grown = repcount._FACTORS
            with monkeypatch.context() as m:
                m.setattr(repcount, "_FACTORS", {})
                assert np.array_equal(table, count_table(spec, limit, modulus, residue))
            assert repcount._FACTORS is grown
            if table.size:
                for j in [*rng.integers(0, table.size, 2).tolist(), table.size - 1]:
                    n = residue + modulus * j
                    assert int(table[j]) == count_enumerate(spec, n), (spec, n)

    def test_a_warm_build_forms_one_theta_per_slot(self, monkeypatch):
        spec = MixedSumSpec.of("rtp", (1, 2, 3))
        count_table(spec, 500)  # warms every table it reads
        calls = {"theta_special": 0, "ThetaArg": 0}
        for name in calls:
            def spy(*args, _name=name, _real=getattr(repcount, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(repcount, name, spy)
        count_table(spec, 500)
        assert calls == {"theta_special": 0, "ThetaArg": 3}  # one width proof per slot

    def _refused_leaves_tables(self, requests, build, match):
        count_table(MixedSumSpec.of("rtp", (1, 1, 1)), 500)
        before = dict(repcount._FACTORS)
        formed = len(requests)
        with pytest.raises(CoefficientOverflowError, match=match):
            build()
        assert len(requests) == formed  # no exponent formed
        assert repcount._FACTORS.keys() == before.keys()
        assert all(repcount._FACTORS[kind] is table for kind, table in before.items())

    def test_width_refusal_leaves_every_table(self, requests):
        self._refused_leaves_tables(
            requests, lambda: count_table(MixedSumSpec.of("r", (2**62, 1, 1)), 3),
            "past the 64-bit width")

    def test_term_bound_refusal_leaves_every_table(self, requests):
        self._refused_leaves_tables(
            requests, lambda: nonrep_scan(MixedSumSpec.of("r", (1, 1, 1)), 10**11, 3, 11 * 10**11),
            "not proven to fit in 64 bits")


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
