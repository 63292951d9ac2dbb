"""Run one thetaq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/thetaq``.  Every
repetition is a fresh ``child.py`` process (cold caches, one thread);
one closed-loop client sends each record only after the previous one
finished.  Repetitions continue while the next one is expected to end
within ``--seconds``, with at least three (two mirrored pairs in
relations-wide).  The seed alone fixes every input.

``--trace 0`` reports the end-to-end metrics.  Each repetition times a
reference kernel after every record; a record's time is divided by the
mean reference time of its repetition, so the times are in units of
``ref`` and do not move with the speed other tenants leave the machine.
Repetitions of one input are combined record by record, keeping each
record's median; the work time is the sum of those and the latency
percentiles are taken over them.  Where repetitions run in mirrored
pairs of orders (``MIRRORED``), the percentiles are taken over all their
record times and the work time is the mean over repetitions.  The same
figures in seconds are printed and stored, but are not metrics.

``--trace 1`` alternates untraced and traced repetitions of the seed's
first input and reports the per-layer metrics, with the tracing
overhead as traced minus untraced work time, taken in ``ref`` and
given in seconds at the untraced repetitions' reference speed.

Each metric is printed as ``name value unit``, then one JSON line with
the machine, versions, source revision, seed and workload parameters,
and last one JSON line ``{correct, attempted, failed, metrics}``.  The
same data, with the raw repetitions, goes to ``.perfbench_out/``.  The
exit code is 1 when any output check fails or a repetition crashes, and
2 on a usage error.  README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import MIRRORED, PARAMS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_REPS = 3
MIN_PAIRS = 2
SETUP_SAMPLES = 9  # fresh processes timed for setup_s, repetitions included
CHILD_TIMEOUT_S = 120
PERCENTILES = (50, 90, 99, 99.9)
TAIL_SAMPLES = 10  # samples a reported percentile must have beyond it

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "setup_s": "s",
    "record_p50_ref": "ref",
    "record_p90_ref": "ref",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def tail_percentile(n: int):
    """Highest of PERCENTILES with at least TAIL_SAMPLES of n beyond it."""
    usable = [p for p in PERCENTILES if n * (100 - Fraction(str(p))) >= 100 * TAIL_SAMPLES]
    return max(usable) if usable else None


def percentile(values, p: float) -> float:
    """Linearly interpolated p-th percentile."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(*args) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(cmd[2:])}: no result within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{' '.join(cmd[2:])}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(seconds: float, minimum: int, fn) -> list:
    """Call fn(i) while the next call is expected to end within ``seconds``."""
    started = time.monotonic()
    results = []
    while True:
        elapsed = time.monotonic() - started
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results
        results.append(fn(len(results)))


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------


def relative_times(rep) -> list[float]:
    """A repetition's record times as multiples of its mean reference time.

    The mean, not the median: a record is slowed by the average of the
    spells it spans, and so is the mean of many short kernel calls.
    """
    reference = statistics.fmean(rep["reference_ns"])
    return [t / reference for t in rep["record_ns"]]


def record_seconds(rep) -> list[float]:
    return [t / 1e9 for t in rep["record_ns"]]


def record_times(reps, times_of) -> list[float]:
    """Each record's median time over repetitions of one input."""
    ids = reps[0]["record_ids"]
    if any(r["record_ids"] != ids for r in reps):
        raise ChildFailed("repetitions of one input ran different records")
    return [statistics.median(times) for times in zip(*(times_of(r) for r in reps))]


def summarize(reps, mirrored: bool = False) -> dict:
    """End-to-end metrics, and the same in seconds, of a run's repetitions.

    With one input, each record keeps its median time over the
    repetitions.  In mirrored pairs a record's time depends on the order
    it ran in, so the percentiles are taken over every record time of
    every repetition and the work time is the mean over repetitions.
    """
    records = len(reps[0]["record_ns"])
    tail = tail_percentile(records)
    if tail is None or tail < 90:
        raise ChildFailed(f"{records} records cannot support a p90")

    def work_and_times(times_of):
        if mirrored:
            times = [t for r in reps for t in times_of(r)]
            return sum(times) / len(reps), times
        times = record_times(reps, times_of)
        return sum(times), times

    wall, times = work_and_times(relative_times)
    wall_s, raw = work_and_times(record_seconds)
    return {
        "wall_ref": wall,
        "record_p50_ref": percentile(times, 50),
        "record_p90_ref": percentile(times, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "wall_s": wall_s,
        "record_ms_p50": percentile(raw, 50) * 1e3,
        "record_ms_p90": percentile(raw, 90) * 1e3,
        "reference_ms": statistics.median(statistics.fmean(r["reference_ns"]) for r in reps) / 1e6,
    }


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics from untraced repetitions."""
    mirrored = workload in MIRRORED

    def step(i: int) -> list:
        if not mirrored:
            return [run_child("--workload", workload, "--seed", seed)]
        return [run_child("--workload", workload, "--seed", seed, "--input", i, *mirror)
                for mirror in ([], ["--mirror"])]

    reps = [rep for group in repeat(seconds, MIN_PAIRS if mirrored else MIN_REPS, step)
            for rep in group]
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child("--workload", workload, "--seed", seed, "--setup-only")["setup_s"])

    figures = summarize(reps, mirrored)
    figures["setup_s"] = statistics.median(setups)
    metrics = {name: figures[name] for name in END_TO_END_UNITS}
    samples = {"repetitions": len(reps), "setup_samples": len(setups),
               "records": len(reps[0]["record_ns"]), "tail_percentile": 90,
               "in_seconds": {name: figures[name] for name in
                              ("wall_s", "record_ms_p50", "record_ms_p90", "reference_ms")}}
    return metrics, END_TO_END_UNITS, reps, samples


def measure_traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics from alternating untraced and traced repetitions."""
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"

    def pair(i):
        plain = run_child("--workload", workload, "--seed", seed)
        extra = ["--spans", spans_path] if i == 0 else []
        traced = run_child("--workload", workload, "--seed", seed, "--trace", 1, *extra)
        return plain, traced

    pairs = repeat(seconds, 1, pair)
    reps = [r for p in pairs for r in p]
    traced = [t["layers"] for _, t in pairs]
    metrics = {}
    for name in traced[0]:
        values = [layers[name] for layers in traced]
        if name.endswith("self_s"):
            metrics[name] = statistics.median(values)
        elif len(set(values)) != 1:
            raise ChildFailed(f"count {name} differs between runs of one input: {values}")
        else:
            metrics[name] = values[0]
    plain = [p for p, _ in pairs]
    reference_s = statistics.median(statistics.fmean(r["reference_ns"]) for r in plain) / 1e9
    metrics["trace.overhead_s"] = reference_s * (
        sum(record_times([t for _, t in pairs], relative_times))
        - sum(record_times(plain, relative_times)))
    units = {name: layer_unit(name) for name in metrics}
    samples = {"pairs": len(pairs), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, units, reps, samples


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """Digest of src/, which identifies the code measured without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thetaq" / "__init__.py").is_file():
        print(f"error: no thetaq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    try:
        run_child("--workload", args.workload, "--seed", args.seed, "--setup-only")  # warm-up
        measure_run = measure_traced if args.trace else measure
        metrics, units, reps, samples = measure_run(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = sorted({p for r in reps for p in r["problems"]})
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": reps[0]["params"],
        "samples": samples,
        "failed_ratio": failed / attempted,
        "environment": {**environment(), **reps[0]["versions"]},
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({**info, **result, "problems": problems, "repetitions": reps}, fh)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in samples.get("in_seconds", {}).items():
        print(f"({name} {value:.6g}: in seconds, not a metric)")
    print(f"failed_ratio {info['failed_ratio']:.6g} ({failed}/{attempted} records)")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
