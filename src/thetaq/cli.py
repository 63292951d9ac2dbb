"""Command-line front end.

Subcommands: ``expand`` (theta coefficient lists), ``verify`` (identity,
relation and classical checks, or the whole embedded catalog), ``count``
(representation numbers by enumeration and/or series) and ``scan``
(non-representability of a residue class).

Exit codes: 0 when every requested check passes, 1 on a mathematical
mismatch, 2 on a usage error, a coefficient or a theta term exponent
beyond the 64-bit width, a residue class holding no N up to the bound,
or a bound too large for memory.
Each subcommand is a generator of (cmd, params, status, payload) records
that prints nothing and reads no clock; ``main`` is the one loop that
times, prints and scores them, each as soon as it exists.
``--format json`` emits one record per line with the shape
{cmd, params, status, payload, elapsed_ms}; the payload is deterministic
for a given command.  ``elapsed_ms`` runs from the end of the previous
record to this one, in milliseconds to the microsecond, so it covers one
record's own work; the first ``verify all`` record also covers loading
the catalogs.
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
    CLASSICAL_BOUNDS,
    CLASSICAL_IDS,
    classical_check,
    load_relation_catalog,
    load_scan_catalog,
    verify_relation,
)
from .repcount import MixedSumSpec, count_enumerate, count_table, nonrep_scan
from .series import CoefficientOverflowError
from .theta import ThetaArg, theta_expand, theta_special

_USAGE_ERROR = 2


def _exp_str(e: int) -> str:
    """Half-unit exponent rendered in q units, halves as 'p/2'."""
    return str(e // 2) if e % 2 == 0 else f"{e}/2"


def _parse_form(text: str) -> MixedSumSpec:
    m = re.fullmatch(r"\s*([A-Za-z]+)\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*", text)
    if not m:
        raise ValueError(f"malformed form {text!r}; expected NAME(a1,a2,a3)")
    return MixedSumSpec.of(m.group(1), (int(m.group(2)), int(m.group(3)), int(m.group(4))))


def _int_fields(flag: str, form: str, pattern: str, text: str) -> list[int]:
    """The comma-separated integers of a flag's value; a malformed value is
    refused with the flag and the form it takes."""
    if not re.fullmatch(pattern, text):
        raise ValueError(f"expected {flag} {form} (integers), got {text!r}")
    return [int(x) for x in text.split(",")]


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
# subcommands: each yields (cmd, params, status, payload) records
# ----------------------------------------------------------------------


def _cmd_expand(args):
    if args.name:
        scale = 1 if args.scale is None else args.scale
        arg = theta_special("fneg" if args.name == "f" else args.name, scale)
        params = {"name": args.name, "scale": scale, "order": args.order}
    else:
        if args.scale is not None:  # refused rather than silently ignored
            raise ValueError("--scale applies to --name, not to --theta")
        eps, g, h = _int_fields("--theta", "EPS,G,H", _SIGNED_VALUES["--theta"], args.theta)
        arg = ThetaArg(eps, 2 * g, 2 * h)
        params = {"theta": args.theta, "order": args.order}
    series = theta_expand(arg, 2 * args.order)
    coeffs = [(_exp_str(e), c) for e, c in series.items()]
    yield "expand", params, "pass", {"coefficients": coeffs}


def _cmd_count(args):
    spec = _parse_form(args.form)
    if args.range:
        m = re.fullmatch(r"\s*(-?\d+)\.\.(-?\d+)\s*", args.range)
        if not m or int(m[1]) > int(m[2]):  # an empty range would print a vacuous [pass]
            raise ValueError(f"bad range {args.range!r}; expected A..B with A <= B")
        ns = list(range(int(m[1]), int(m[2]) + 1))
    else:
        ns = [args.n]
    payload: dict = {"values": []}
    status = "pass"
    table = None
    if args.method in ("series", "both"):
        table = count_table(spec, max(max(ns), 0))
    for n in ns:
        row: dict = {"n": n}
        if args.method in ("enumerate", "both"):
            row["enumerate"] = count_enumerate(spec, n)
        if table is not None:
            row["series"] = int(table[n]) if n >= 0 else 0  # negative N count 0
        if args.method == "both" and row["enumerate"] != row["series"]:
            status = "fail"
        row["value"] = row.get("enumerate", row.get("series"))
        payload["values"].append(row)
    params = {"form": args.form, "method": args.method}
    params["range" if args.range else "n"] = args.range or args.n
    yield "count", params, status, payload


def _require_class(what: str, modulus: int, residue: int, nmax: int) -> None:
    """Refuse an invalid residue class, and one holding no N <= nmax,
    which checks nothing, rather than print a vacuous [pass]."""
    if not 0 <= residue < modulus:
        raise ValueError(
            f"{what}: {residue} mod {modulus} is not a residue class;"
            " need modulus >= 1 and 0 <= residue < modulus"
        )
    if residue > nmax:
        raise ValueError(
            f"{what}: residue class N == {residue} mod {modulus} holds no N <= {nmax}"
        )


def _require_relation_classes(relations, nmax: int) -> None:
    for rel in relations:
        if rel.residue_class:
            _require_class(f"relation {rel.id!r}", *rel.residue_class, nmax)


def _cmd_scan(args):
    spec = _parse_form(args.form)
    _require_class(f"scan {args.form}", args.modulus, args.residue, args.nmax)
    hits = nonrep_scan(spec, args.modulus, args.residue, args.nmax)
    params = {
        "form": args.form,
        "modulus": args.modulus,
        "residue": args.residue,
        "nmax": args.nmax,
    }
    yield "scan", params, "pass" if not hits else "fail", {"represented": hits[:50]}


def _verify_thm1(args):
    eps1, eps2, eps3 = _int_fields("--eps", "E1,E2,E3", _SIGNED_VALUES["--theta"], args.eps)
    p = TripleParams(args.k, args.r, args.g, args.h, args.u, args.v,
                     args.i, args.j, eps1, eps2, eps3)
    params = {k: getattr(args, k) for k in ("k", "r", "g", "h", "u", "v", "i", "j")}
    params["eps"] = args.eps
    params["order"] = args.order
    yield "verify thm1", params, *_report_identity(verify_triple(p, 2 * args.order))


def _verify_thm2(args):
    (eps,) = _int_fields("--eps", "E", r"-?\d+", args.eps)
    p = PairParams(args.k, args.r, args.s, args.t, args.i, args.j, eps)
    params = {k: getattr(args, k) for k in ("k", "r", "s", "t", "i", "j", "eps")}
    params["order"] = args.order
    yield "verify thm2", params, *_report_identity(verify_pair(p, 2 * args.order))


def _verify_corollary(args):
    kwargs = {k: getattr(args, k) for k in ("k", "r", "m") if getattr(args, k) is not None}
    rep = verify_corollary(args.id, through=2 * args.order, **kwargs)
    params = {"id": args.id, **kwargs, "order": args.order}
    yield "verify corollary", params, *_report_identity(rep)


def _load_relations(path) -> list:
    """The relation catalog; an unreadable extra catalog is a usage error."""
    try:
        return load_relation_catalog(path)
    except OSError as exc:
        raise ValueError(f"cannot read catalog {path!r}: {exc.strerror or exc}") from None


def _report_relations(relations, nmax: int):
    """One record per relation; empirical ones are informational."""
    for stmt in relations:
        counter = verify_relation(stmt, nmax)
        payload = {"relation": stmt.render(), "status_flag": stmt.status}
        if counter:
            payload["counterexample"] = {
                "n": counter[0].n, "lhs": counter[0].lhs, "rhs": counter[0].rhs,
            }
        status = "pass" if not counter else "fail"
        if stmt.status != "pinned":
            payload["outcome"] = status
            status = "info"
        yield "verify relation", {"id": stmt.id, "nmax": nmax}, status, payload


def _verify_relation(args):
    catalog = _load_relations(args.catalog)
    matches = [r for r in catalog if r.id == args.id or r.id.startswith(args.id + ".")]
    if not matches:
        raise ValueError(f"no relation with id {args.id!r}")
    _require_relation_classes(matches, args.nmax)
    yield from _report_relations(matches, args.nmax)


def _verify_classical(args):
    report = classical_check(args.id, args.nmax)
    status = "pass" if report.ok else "fail"
    detail = {
        k: (v if not isinstance(v, dict) else {kk: vv for kk, vv in v.items() if vv})
        for k, v in report.details.items()
    }
    yield "verify classical", {"id": args.id, "nmax": args.nmax}, status, detail


def _verify_all(args):
    # refuse every domain error before the first record
    relations = _load_relations(args.catalog)
    _require_relation_classes(relations, args.nmax)
    scans = load_scan_catalog()
    for scan in scans:
        _require_class(f"scan {scan.id!r}", scan.modulus, scan.residue, args.scan_nmax)
    for entry in load_identity_catalog():
        status, payload = _report_identity(entry.verify(2 * args.order))
        payload["citation"] = entry.citation
        yield "verify identity", {"id": entry.id, "order": args.order}, status, payload
    yield from _report_relations(relations, args.nmax)
    for scan in scans:
        hits = nonrep_scan(scan.spec, scan.modulus, scan.residue, args.scan_nmax)
        yield ("verify scan", {"id": scan.id, "nmax": args.scan_nmax},
               "pass" if not hits else "fail",
               {"represented": hits[:20], "citation": scan.citation})
    for cid, bound in CLASSICAL_BOUNDS.items():
        yield ("verify classical", {"id": cid, "nmax": bound},
               "pass" if classical_check(cid, bound).ok else "fail", {})


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    """argparse type for bounds: a negative bound would check nothing."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


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
    p_expand.add_argument("--scale", type=int, help="power of q for --name; default 1")
    p_expand.add_argument("--order", type=_nonnegative_int, required=True)
    p_expand.set_defaults(run=_cmd_expand)

    p_verify = sub.add_parser("verify", help="verify identities and relations")
    vsub = p_verify.add_subparsers(dest="target", required=True)

    pv1 = vsub.add_parser("thm1")
    for flag in ("k", "r", "g", "h", "u", "v", "i", "j"):
        pv1.add_argument(f"--{flag}", type=int, required=True)
    pv1.add_argument("--eps", default="1,1,1")
    pv1.add_argument("--order", type=_nonnegative_int, default=100)
    pv1.set_defaults(run=_verify_thm1)

    pv2 = vsub.add_parser("thm2")
    for flag in ("k", "r", "s", "t", "i", "j"):
        pv2.add_argument(f"--{flag}", type=int, required=True)
    pv2.add_argument("--eps", default="1")
    pv2.add_argument("--order", type=_nonnegative_int, default=100)
    pv2.set_defaults(run=_verify_thm2)

    pvc = vsub.add_parser("corollary")
    pvc.add_argument("--id", required=True)
    pvc.add_argument("--k", type=int)
    pvc.add_argument("--r", type=int)
    pvc.add_argument("--m", type=int)
    pvc.add_argument("--order", type=_nonnegative_int, default=100)
    pvc.set_defaults(run=_verify_corollary)

    pvr = vsub.add_parser("relation")
    pvr.add_argument("--id", required=True)
    pvr.add_argument("--nmax", type=_nonnegative_int, default=1000)
    pvr.add_argument("--catalog", default=None)
    pvr.set_defaults(run=_verify_relation)

    pvl = vsub.add_parser("classical")
    pvl.add_argument("--id", required=True, choices=CLASSICAL_IDS)
    pvl.add_argument("--nmax", type=_nonnegative_int, required=True)
    pvl.set_defaults(run=_verify_classical)

    pva = vsub.add_parser("all")
    pva.add_argument("--order", type=_nonnegative_int, default=150)
    pva.add_argument("--nmax", type=_nonnegative_int, default=1000)
    pva.add_argument("--scan-nmax", type=_nonnegative_int, default=10000)
    pva.add_argument("--catalog", default=None)
    pva.set_defaults(run=_verify_all)

    p_count = sub.add_parser("count", help="representation numbers")
    p_count.add_argument("--form", required=True)
    group = p_count.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--range", help="A..B inclusive")
    p_count.add_argument("--method", choices=("enumerate", "series", "both"),
                         default="enumerate")
    p_count.set_defaults(run=_cmd_count)

    p_scan = sub.add_parser("scan", help="non-representability scan")
    p_scan.add_argument("--form", required=True)
    p_scan.add_argument("--modulus", type=int, required=True)
    p_scan.add_argument("--residue", type=int, required=True)
    p_scan.add_argument("--nmax", type=_nonnegative_int, required=True)
    p_scan.set_defaults(run=_cmd_scan)
    return parser


# Flags whose value may start with '-', which argparse reads as an option.
_SIGNED_VALUES = {
    "--theta": r"-?\d+,-?\d+,-?\d+",
    "--range": r"\s*-?\d+\.\.-?\d+\s*",
    "--eps": r"-?\d+(?:,-?\d+)*",  # thm1's E1,E2,E3 and thm2's E
}


def _join_signed_values(argv: list[str]) -> list[str]:
    """Let `--theta -1,0,3`, `--eps -1,-1,1` and `--range -3..-1` parse as
    `--flag=value`."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        pattern = _SIGNED_VALUES.get(tok)
        if pattern and i + 1 < len(argv) and re.fullmatch(pattern, argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def _print_record(fmt: str, cmd: str, params: dict, status: str, payload,
                  elapsed_ms: float) -> None:
    if fmt == "json":
        print(json.dumps({"cmd": cmd, "params": params, "status": status,
                          "payload": payload, "elapsed_ms": elapsed_ms}, sort_keys=True))
        return
    print(f"[{status}] {cmd} " + " ".join(f"{k}={v}" for k, v in params.items()))
    if payload not in (None, {}, []):
        text = json.dumps(payload, sort_keys=True)
        print("  " + (text if len(text) <= 400 else text[:400] + "..."))


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_signed_values(list(argv)))
    failed = False
    try:
        started = time.perf_counter()
        for cmd, params, status, payload in args.run(args):
            elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
            # informational rows never flip the exit code
            failed |= status not in ("pass", "info")
            _print_record(args.format, cmd, params, status, payload, elapsed_ms)
            started = time.perf_counter()
    except (ValueError, KeyError, CoefficientOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except MemoryError as exc:
        # a bound too large for memory is a usage error, not a mismatch
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
