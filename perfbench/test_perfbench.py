"""Self-tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import thetaq  # noqa: E402
import thetaq.cli  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90),
     (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_interpolates():
    values = list(range(101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([1.0, 2.0], 50) == 1.5
    assert run.percentile([7.0], 90) == 7.0


def _rep(record_ns, reference_ns):
    return {"record_ids": [f"r{i}" for i in range(len(record_ns))], "record_ns": record_ns,
            "reference_ns": reference_ns, "peak_rss_mb": 30.0}


def test_times_are_in_units_of_the_reference_kernel():
    record_ns = [1000 + 10 * i for i in range(100)]
    quiet = _rep(record_ns, [400, 600])
    busy = _rep([2 * t for t in record_ns], [900, 1100])  # the machine at half speed
    metrics = run.summarize([quiet, busy, quiet])
    assert metrics == run.summarize([quiet, quiet, quiet])
    assert metrics["wall_ref"] == pytest.approx(sum(record_ns) / 500)
    assert metrics["record_p50_ref"] == pytest.approx(run.percentile(record_ns, 50) / 500)
    assert metrics["wall_s"] == pytest.approx(sum(record_ns) / 1e9)


def test_records_must_match_across_repetitions():
    first = _rep([1000] * 100, [500])
    second = _rep([1000] * 100, [500])
    second["record_ids"] = list(reversed(second["record_ids"]))
    with pytest.raises(run.ChildFailed):
        run.summarize([first, second])


def test_mirrored_pairs_pool_their_record_times():
    drawn = _rep([1000] * 90 + [5000] * 10, [500])
    mirror = {**drawn, "record_ids": drawn["record_ids"][::-1],
              "record_ns": [3000] * 10 + [1000] * 90}
    metrics = run.summarize([drawn, mirror], mirrored=True)
    assert metrics["wall_ref"] == pytest.approx((140000 + 120000) / 2 / 500)
    assert metrics["record_p50_ref"] == pytest.approx(2)
    assert metrics["record_p90_ref"] == pytest.approx(run.percentile(
        [1000] * 180 + [3000] * 10 + [5000] * 10, 90) / 500)


def test_mirroring_reverses_each_section_in_place():
    def ids(records):
        return [rec.id for rec in records]

    records = [workloads.Record(i, None, None)
               for i in ("relation:a", "relation:b", "relation:c", "scan:x", "scan:y", "classical:z")]
    assert ids(workloads.mirrored(records)) == [
        "relation:c", "relation:b", "relation:a", "scan:y", "scan:x", "classical:z"]
    assert workloads.mirrored(workloads.mirrored(records)) == records


def test_self_time_subtracts_nested_children():
    recorded = [
        ["root", 0, 100, -1, "r"],
        ["child", 10, 40, 0, "r"],
        ["grandchild", 20, 30, 1, "r"],
        ["child", 50, 60, 0, "r"],
    ]
    assert spans.self_times_ns(recorded) == [60, 20, 10, 10]


def test_covered_time_is_a_clipped_union():
    assert spans.covered_ns(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40
    assert spans.covered_ns(0, 100, []) == 0


def test_count_queries_are_a_function_of_the_seed():
    params = workloads.PARAMS["count-queries"]

    def stream(key):
        return workloads.make_queries(thetaq.REGISTRY, params, random.Random(key))

    first = stream("count-queries:7:0")
    assert first == stream("count-queries:7:0")
    assert first != stream("count-queries:8:0")
    assert first != stream("count-queries:7:1")
    assert len(first) == params["queries"]
    ns = sorted(n for _, _, n in first)
    assert params["n_min"] <= ns[0] and ns[-1] < params["n_max"]
    geometric_mean = (params["n_min"] * params["n_max"]) ** 0.5
    assert geometric_mean / 2 < ns[len(ns) // 2] < geometric_mean * 2  # log-uniform median
    for name, coeffs, _ in first:
        assert name in thetaq.REGISTRY
        assert all(1 <= c <= params["coeff_max"] for c in coeffs)


SMALL = {
    "identities-deep": {"order": 40},
    "relations-wide": {"nmax": 600, "scan_nmax": 3000},
    "count-queries": {"queries": 120, "n_min": 5, "n_max": 300},
}


def _traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", "3",
         "--trace", "1", "--params", json.dumps(SMALL[workload])],
        cwd=HERE.parent, env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["problems"]
    return {k: v for k, v in result["layers"].items() if not k.endswith("self_s")}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_computed_counts_repeat_across_processes(workload):
    counts = _traced_counts(workload)
    assert counts == _traced_counts(workload)
    for name in ("series.mul.dense_macs", "series.mul.sparse_macs", "repcount.table.cells",
                 "repcount.table.pair_cells", "theta.expand.repeat_ratio",
                 "repcount.table_cache.hit_ratio"):
        assert name in counts


def _bindings():
    """Every name the tracer may rebind, by identity."""
    from thetaq.identity import IdentityEntry, ThetaProduct
    from thetaq.repcount import TABLE_CACHE
    from thetaq.series import HalfPowerSeries

    found = {}
    for mod in spans._thetaq_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                found[mod.__name__, attr] = value
    for cls in (HalfPowerSeries, ThetaProduct, IdentityEntry):
        for attr, value in vars(cls).items():
            found[cls.__name__, attr] = value
    found["TABLE_CACHE", "attributes"] = frozenset(vars(TABLE_CACHE))
    return found


def _small_work():
    spec = thetaq.MixedSumSpec.of("rT", (1, 2, 3))
    assert thetaq.count_enumerate(spec, 40) == thetaq.count_series(spec, 40).coeff(80)
    assert thetaq.load_identity_catalog()[0].verify(60).ok
    assert thetaq.nonrep_scan(spec, 5, 4, 200) is not None


def test_wrappers_are_removed_after_a_traced_run():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        _small_work()
    finally:
        tracer.uninstall()
    recorded = len(tracer.spans)
    names = {s[0] for s in tracer.spans}
    assert {"series.mul", "theta.expand", "repcount.enumerate", "repcount.table"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] == value if key[0] == "TABLE_CACHE" else after[key] is value, key
    _small_work()
    assert len(tracer.spans) == recorded
