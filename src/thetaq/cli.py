"""Command-line front end.

Subcommands: ``expand`` (theta coefficient lists), ``verify`` (identity,
relation and classical checks, or the whole embedded catalog), ``count``
(representation numbers by enumeration and/or series) and ``scan``
(non-representability of a residue class).

Exit codes: 0 when every requested check passes, 1 on a mathematical
mismatch, 2 on a usage error or a coefficient beyond the 64-bit width.
``--format json`` emits one record per line with the shape
{cmd, params, status, payload, elapsed_ms}; the payload is deterministic
for a given command.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .identity import (
    PairParams,
    TripleParams,
    load_identity_catalog,
    verify_corollary,
    verify_pair,
    verify_triple,
)
from .relations import (
    CLASSICAL_IDS,
    classical_check,
    load_relation_catalog,
    load_scan_catalog,
    verify_relation,
)
from .repcount import MixedSumSpec, count_enumerate, count_series, nonrep_scan
from .series import CoefficientOverflowError, TruncationError
from .theta import ExpansionError, ThetaArg, theta_expand, theta_special

_USAGE_ERROR = 2

# classical desk-scale bounds used by `verify all`
_CLASSICAL_BOUNDS = {
    "gauss3tri": 5000,
    "liouville": 2000,
    "sun_sq_sq_t": 2000,
    "sun_sq_t_t": 2000,
    "gauss_legendre": 4096,
    "ramanujan_dickson_10": 4096,
    "dickson_126": 4096,
}


class Reporter:
    def __init__(self, fmt: str) -> None:
        self.fmt = fmt
        self.failed = False

    def emit(self, cmd: str, params: dict, status: str, payload, started: float) -> None:
        if status != "pass":
            self.failed = True
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        if self.fmt == "json":
            record = {
                "cmd": cmd,
                "params": params,
                "status": status,
                "payload": payload,
                "elapsed_ms": elapsed_ms,
            }
            print(json.dumps(record, sort_keys=True))
        else:
            print(f"[{status}] {cmd} {_render_params(params)}")
            _render_payload(payload)

    def info(self, cmd: str, params: dict, payload, started: float) -> None:
        # informational rows never flip the exit code
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        if self.fmt == "json":
            record = {
                "cmd": cmd,
                "params": params,
                "status": "info",
                "payload": payload,
                "elapsed_ms": elapsed_ms,
            }
            print(json.dumps(record, sort_keys=True))
        else:
            print(f"[info] {cmd} {_render_params(params)}")
            _render_payload(payload)


def _render_params(params: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def _render_payload(payload) -> None:
    if payload in (None, {}, []):
        return
    text = json.dumps(payload, sort_keys=True)
    if len(text) > 400:
        text = text[:400] + "..."
    print("  " + text)


def _exp_str(e: int) -> str:
    """Half-unit exponent rendered in q units, halves as 'p/2'."""
    return str(e // 2) if e % 2 == 0 else f"{e}/2"


def _parse_form(text: str) -> MixedSumSpec:
    m = re.fullmatch(r"\s*([A-Za-z]+)\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*", text)
    if not m:
        raise ValueError(f"malformed form {text!r}; expected NAME(a1,a2,a3)")
    return MixedSumSpec.of(m.group(1), (int(m.group(2)), int(m.group(3)), int(m.group(4))))


def _report_identity(rep) -> tuple[str, dict]:
    payload = {
        "equal": rep.equal,
        "checked_through": _exp_str(rep.checked_through),
        "rhs_term_count": rep.rhs_term_count,
    }
    if rep.mismatch:
        e, l, r = rep.mismatch
        payload["mismatch"] = {"exponent": _exp_str(e), "lhs": l, "rhs": r}
    if rep.negative_violation:
        side, e, c = rep.negative_violation
        payload["negative_exponent"] = {"side": side, "exponent": _exp_str(e), "coeff": c}
    return ("pass" if rep.ok else "fail", payload)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_expand(args, reporter: Reporter) -> None:
    started = time.perf_counter()
    if args.name:
        arg = theta_special("fneg" if args.name == "f" else args.name, args.scale)
        params = {"name": args.name, "scale": args.scale, "order": args.order}
    else:
        eps, g, h = (int(x) for x in args.theta.split(","))
        arg = ThetaArg(eps, 2 * g, 2 * h)
        params = {"theta": args.theta, "order": args.order}
    series = theta_expand(arg, 2 * args.order)
    coeffs = [(_exp_str(e), c) for e, c in series.items()]
    reporter.emit("expand", params, "pass", {"coefficients": coeffs}, started)


def _cmd_count(args, reporter: Reporter) -> None:
    started = time.perf_counter()
    spec = _parse_form(args.form)
    if args.range:
        a, b = (int(x) for x in args.range.split(".."))
        ns = list(range(a, b + 1))
    else:
        ns = [args.n]
    payload: dict = {"values": []}
    status = "pass"
    series = None
    if args.method in ("series", "both"):
        series = count_series(spec, max(ns))
    for n in ns:
        row: dict = {"n": n}
        if args.method in ("enumerate", "both"):
            row["enumerate"] = count_enumerate(spec, n)
        if series is not None:
            row["series"] = series.coeff(2 * n) if n >= 0 else 0
        if args.method == "both" and row["enumerate"] != row["series"]:
            status = "fail"
        row["value"] = row.get("enumerate", row.get("series"))
        payload["values"].append(row)
    params = {"form": args.form, "method": args.method}
    params["range" if args.range else "n"] = args.range or args.n
    reporter.emit("count", params, status, payload, started)


def _cmd_scan(args, reporter: Reporter) -> None:
    started = time.perf_counter()
    spec = _parse_form(args.form)
    hits = nonrep_scan(spec, args.modulus, args.residue, args.nmax)
    params = {
        "form": args.form,
        "modulus": args.modulus,
        "residue": args.residue,
        "nmax": args.nmax,
    }
    status = "pass" if not hits else "fail"
    reporter.emit("scan", params, status, {"represented": hits[:50]}, started)


def _verify_thm1(args, reporter: Reporter) -> None:
    started = time.perf_counter()
    eps1, eps2, eps3 = (int(x) for x in args.eps.split(","))
    p = TripleParams(args.k, args.r, args.g, args.h, args.u, args.v,
                     args.i, args.j, eps1, eps2, eps3)
    params = {k: getattr(args, k) for k in ("k", "r", "g", "h", "u", "v", "i", "j")}
    params["eps"] = args.eps
    params["order"] = args.order
    status, payload = _report_identity(verify_triple(p, 2 * args.order))
    reporter.emit("verify thm1", params, status, payload, started)


def _verify_thm2(args, reporter: Reporter) -> None:
    started = time.perf_counter()
    p = PairParams(args.k, args.r, args.s, args.t, args.i, args.j, int(args.eps))
    params = {k: getattr(args, k) for k in ("k", "r", "s", "t", "i", "j", "eps")}
    params["order"] = args.order
    status, payload = _report_identity(verify_pair(p, 2 * args.order))
    reporter.emit("verify thm2", params, status, payload, started)


def _verify_corollary(args, reporter: Reporter) -> None:
    started = time.perf_counter()
    kwargs = {}
    if args.k is not None:
        kwargs["k"] = args.k
    if args.r is not None:
        kwargs["r"] = args.r
    if args.m is not None:
        kwargs["m"] = args.m
    rep = verify_corollary(args.id, through=2 * args.order, **kwargs)
    params = {"id": args.id, **kwargs, "order": args.order}
    status, payload = _report_identity(rep)
    reporter.emit("verify corollary", params, status, payload, started)


def _verify_relation(args, reporter: Reporter) -> None:
    catalog = load_relation_catalog(args.catalog)
    matches = [r for r in catalog if r.id == args.id or r.id.startswith(args.id + ".")]
    if not matches:
        raise ValueError(f"no relation with id {args.id!r}")
    for stmt in matches:
        started = time.perf_counter()
        counter = verify_relation(stmt, args.nmax)
        payload = {"relation": stmt.render(), "status_flag": stmt.status}
        if counter:
            payload["counterexample"] = {
                "n": counter[0].n, "lhs": counter[0].lhs, "rhs": counter[0].rhs,
            }
        params = {"id": stmt.id, "nmax": args.nmax}
        if stmt.status == "pinned":
            reporter.emit("verify relation", params, "pass" if not counter else "fail",
                          payload, started)
        else:
            payload["outcome"] = "pass" if not counter else "fail"
            reporter.info("verify relation", params, payload, started)


def _verify_classical(args, reporter: Reporter) -> None:
    started = time.perf_counter()
    report = classical_check(args.id, args.nmax)
    status = "pass" if report.ok else "fail"
    detail = {
        k: (v if not isinstance(v, dict) else {kk: vv for kk, vv in v.items() if vv})
        for k, v in report.details.items()
    }
    reporter.emit("verify classical", {"id": args.id, "nmax": args.nmax},
                  status, detail, started)


def _verify_all(args, reporter: Reporter) -> None:
    order = args.order
    nmax = args.nmax
    for entry in load_identity_catalog():
        started = time.perf_counter()
        rep = entry.verify(2 * order)
        status, payload = _report_identity(rep)
        payload["citation"] = entry.citation
        reporter.emit("verify identity", {"id": entry.id, "order": order},
                      status, payload, started)
    for stmt in load_relation_catalog(args.catalog):
        started = time.perf_counter()
        counter = verify_relation(stmt, nmax)
        payload = {"relation": stmt.render(), "status_flag": stmt.status}
        if counter:
            payload["counterexample"] = {
                "n": counter[0].n, "lhs": counter[0].lhs, "rhs": counter[0].rhs,
            }
        params = {"id": stmt.id, "nmax": nmax}
        if stmt.status == "pinned":
            reporter.emit("verify relation", params,
                          "pass" if not counter else "fail", payload, started)
        else:
            payload["outcome"] = "pass" if not counter else "fail"
            reporter.info("verify relation", params, payload, started)
    for scan in load_scan_catalog():
        started = time.perf_counter()
        hits = nonrep_scan(scan.spec, scan.modulus, scan.residue, args.scan_nmax)
        reporter.emit(
            "verify scan",
            {"id": scan.id, "nmax": args.scan_nmax},
            "pass" if not hits else "fail",
            {"represented": hits[:20], "citation": scan.citation},
            started,
        )
    for cid in CLASSICAL_IDS:
        started = time.perf_counter()
        bound = _CLASSICAL_BOUNDS[cid]
        report = classical_check(cid, bound)
        reporter.emit("verify classical", {"id": cid, "nmax": bound},
                      "pass" if report.ok else "fail", {}, started)


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetaq",
        description="theta-function identity verifier and ternary-sum counter",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print theta expansion coefficients")
    group = p_expand.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", help="EPS,G,H whole-q exponents")
    group.add_argument("--name", choices=("phi", "psi", "f", "X", "Y"))
    p_expand.add_argument("--scale", type=int, default=1)
    p_expand.add_argument("--order", type=int, required=True)

    p_verify = sub.add_parser("verify", help="verify identities and relations")
    vsub = p_verify.add_subparsers(dest="target", required=True)

    pv1 = vsub.add_parser("thm1")
    for flag in ("k", "r", "g", "h", "u", "v", "i", "j"):
        pv1.add_argument(f"--{flag}", type=int, required=True)
    pv1.add_argument("--eps", default="1,1,1")
    pv1.add_argument("--order", type=int, default=100)

    pv2 = vsub.add_parser("thm2")
    for flag in ("k", "r", "s", "t", "i", "j"):
        pv2.add_argument(f"--{flag}", type=int, required=True)
    pv2.add_argument("--eps", default="1")
    pv2.add_argument("--order", type=int, default=100)

    pvc = vsub.add_parser("corollary")
    pvc.add_argument("--id", required=True)
    pvc.add_argument("--k", type=int)
    pvc.add_argument("--r", type=int)
    pvc.add_argument("--m", type=int)
    pvc.add_argument("--order", type=int, default=100)

    pvr = vsub.add_parser("relation")
    pvr.add_argument("--id", required=True)
    pvr.add_argument("--nmax", type=int, default=1000)
    pvr.add_argument("--catalog", default=None)

    pvl = vsub.add_parser("classical")
    pvl.add_argument("--id", required=True, choices=CLASSICAL_IDS)
    pvl.add_argument("--nmax", type=int, required=True)

    pva = vsub.add_parser("all")
    pva.add_argument("--order", type=int, default=150)
    pva.add_argument("--nmax", type=int, default=1000)
    pva.add_argument("--scan-nmax", type=int, default=10000)
    pva.add_argument("--catalog", default=None)

    p_count = sub.add_parser("count", help="representation numbers")
    p_count.add_argument("--form", required=True)
    group = p_count.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--range", help="A..B inclusive")
    p_count.add_argument("--method", choices=("enumerate", "series", "both"),
                         default="enumerate")

    p_scan = sub.add_parser("scan", help="non-representability scan")
    p_scan.add_argument("--form", required=True)
    p_scan.add_argument("--modulus", type=int, required=True)
    p_scan.add_argument("--residue", type=int, required=True)
    p_scan.add_argument("--nmax", type=int, required=True)
    return parser


_DISPATCH = {
    "expand": _cmd_expand,
    "count": _cmd_count,
    "scan": _cmd_scan,
}

_VERIFY_DISPATCH = {
    "thm1": _verify_thm1,
    "thm2": _verify_thm2,
    "corollary": _verify_corollary,
    "relation": _verify_relation,
    "classical": _verify_classical,
    "all": _verify_all,
}


def _join_theta_flag(argv: list[str]) -> list[str]:
    """Let `--theta -1,0,3` parse even though the value starts with '-'."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok == "--theta"
            and i + 1 < len(argv)
            and re.fullmatch(r"-?\d+,-?\d+,-?\d+", argv[i + 1])
        ):
            out.append(f"--theta={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_theta_flag(list(argv)))
    reporter = Reporter(args.format)
    try:
        if args.command == "verify":
            _VERIFY_DISPATCH[args.target](args, reporter)
        else:
            _DISPATCH[args.command](args, reporter)
    except (
        ValueError, KeyError, ExpansionError, TruncationError, CoefficientOverflowError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    return 1 if reporter.failed else 0


if __name__ == "__main__":
    sys.exit(main())
