"""One cold repetition of one workload, run in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N [--input K] [--mirror]
                               --trace 0|1 [--setup-only] [--params JSON]
                               [--spans PATH]

The process times its own set-up (``import thetaq``, ``import thetaq.cli``
and loading the three embedded catalogs), then runs the workload's
records one after another, timing each with ``perf_counter_ns``.  After
each record it times one call of the reference kernel, outside the
record's time, so that run.py can express every record's time as a
multiple of the kernel's mean time in the same repetition.  With
``--trace 1`` the span wrappers are installed around the work and taken
out before the output checks run.  The last line of standard output is a
JSON object with the timings, the peak RSS and the check results.

``src`` must be importable: run.py puts it on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import traceback
from time import perf_counter, perf_counter_ns

from spans import Tracer
from workloads import (
    BUILDERS,
    PARAMS,
    check_verify_all,
    expected_verify_all,
    load_catalogs,
    mirrored,
    verify_all_record,
)


REFERENCE_WARMUP = 20


def reference_timer():
    """A function that times one call of the reference kernel, in ns.

    The kernel is a full integer convolution of two fixed vectors, the
    operation behind ``HalfPowerSeries.__mul__``, about 1 ms.  Other
    tenants of a shared machine slow the benchmark by 1.5 to 2.5 times,
    in spells that switch within a second and can fill a whole run; the
    kernel, timed between the records, slows with them.  numpy is
    imported here, after set-up is timed, because set-up includes the
    import that thetaq makes of it.
    """
    import numpy

    data = numpy.arange(1000, dtype=numpy.int64)

    def time_reference() -> int:
        started = perf_counter_ns()
        numpy.convolve(data, data)
        return perf_counter_ns() - started

    for _ in range(REFERENCE_WARMUP):
        time_reference()
    return time_reference


class LineClock(io.TextIOBase):
    """Captured stdout that times each completed line and the kernel after it.

    `verify all` has no per-record timer a caller can reach, but it
    prints exactly one line per record, so the time from the end of one
    line (after the reference call that follows it) to the end of the
    next is one record's latency.
    """

    def __init__(self, tracer, time_reference) -> None:
        self.lines: list[str] = []
        self.times: list[int] = []
        self.reference_ns: list[int] = []
        self._partial: list[str] = []
        self._tracer = tracer
        self._time_reference = time_reference
        self._since = perf_counter_ns()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        *complete, rest = text.split("\n")
        for piece in complete:
            self.times.append(perf_counter_ns() - self._since)
            self._partial.append(piece)
            self.lines.append("".join(self._partial))
            self._partial = []
            if self._tracer is not None:
                self._tracer.record = len(self.lines)
            self.reference_ns.append(self._time_reference())
            self._since = perf_counter_ns()
        if rest:
            self._partial.append(rest)
        return len(text)


def run_records(records, tracer, time_reference):
    """Time each record in turn, then the reference kernel.

    An exception is that record's outcome.
    """
    outcomes, times, reference_ns = [], [], []
    for rec in records:
        if tracer is not None:
            tracer.record = rec.id
        started = perf_counter_ns()
        try:
            outcome = rec.run()
        except Exception as exc:  # a record that raises counts as failed
            outcome = exc
            traceback.print_exc(file=sys.stderr)
        times.append(perf_counter_ns() - started)
        outcomes.append(outcome)
        reference_ns.append(time_reference())
    return outcomes, times, reference_ns


def check_records(records, outcomes) -> list[str]:
    problems = []
    for rec, outcome in zip(records, outcomes):
        if isinstance(outcome, Exception):
            problems.append(f"{rec.id}: raised {outcome!r}")
            continue
        try:
            msg = rec.check(outcome)
        except Exception as exc:  # a check that raises counts as failed
            msg = f"check raised {exc!r}"
        if msg:
            problems.append(f"{rec.id}: {msg}")
    return problems


def run_verify_all(thetaq, params, tracer, time_reference):
    """Run `verify all` with stdout captured.

    Returns the exit code, the lines, the line times and the reference
    times.
    """
    if tracer is not None:
        tracer.record = 0
    clock = LineClock(tracer, time_reference)
    try:
        with contextlib.redirect_stdout(clock):
            exit_code = thetaq.cli.main(params["argv"])
    except Exception:  # every record then shows as missing
        traceback.print_exc(file=sys.stderr)
        exit_code = None
    return exit_code, clock.lines, clock.times, clock.reference_ns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", type=int, default=0, help="index of the seed's input")
    parser.add_argument("--mirror", action="store_true",
                        help="run each section of the input in reverse order")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--params", default="{}", help="JSON overrides of the workload parameters")
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)

    started = perf_counter()
    import thetaq
    import thetaq.cli

    catalogs = load_catalogs(thetaq)
    result = {"setup_s": perf_counter() - started}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import numpy

    params = {**PARAMS[args.workload], **json.loads(args.params)}
    rng = random.Random(f"{args.workload}:{args.seed}:{args.input}")
    tracer = Tracer() if args.trace else None
    time_reference = reference_timer()
    if tracer is not None:
        tracer.install()
    try:
        if args.workload == "verify-all":
            exit_code, lines, times, reference_ns = run_verify_all(thetaq, params, tracer,
                                                                   time_reference)
        else:
            records = BUILDERS[args.workload](thetaq, catalogs, params, rng)
            if args.mirror:
                records = mirrored(records)
            outcomes, times, reference_ns = run_records(records, tracer, time_reference)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.workload == "verify-all":
        expected = expected_verify_all(thetaq, catalogs)
        attempted, problems = len(expected), check_verify_all(expected, exit_code, lines)
        keys = [verify_all_record(line) for line in lines]
        ids = [f"{k[0]}:{k[1]}" if k else "malformed" for k in keys]
    else:
        attempted, problems = len(records), check_records(records, outcomes)
        ids = [rec.id for rec in records]

    result.update(
        record_ns=times,
        reference_ns=reference_ns,
        record_ids=ids,
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        failed=min(len(problems), attempted),
        problems=problems[:20],
        params=params,
        versions={"numpy": numpy.__version__, "thetaq": thetaq.__version__},
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
