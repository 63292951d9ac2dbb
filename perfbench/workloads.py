"""The four benchmark workloads: their inputs, their work and their checks.

Each workload turns a seeded ``random.Random`` into a list of records.
A record is one unit a user waits for (an identity, a relation, a scan,
a classical check or a count query): ``run`` does the work and returns
its outcome, ``check`` returns ``None`` for a correct outcome or a
message saying what is wrong.  Checks run after the timed loop, so the
oracle work they do is neither timed nor traced.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

# Desk bounds of the classical checks in `thetaq verify all`.
CLASSICAL_BOUNDS = {
    "gauss3tri": 5000,
    "liouville": 2000,
    "sun_sq_sq_t": 2000,
    "sun_sq_t_t": 2000,
    "gauss_legendre": 4096,
    "ramanujan_dickson_10": 4096,
    "dickson_126": 4096,
}

PARAMS = {
    "identities-deep": {"order": 400},
    "relations-wide": {"nmax": 20000, "scan_nmax": 200000,
                       "classical_bounds": CLASSICAL_BOUNDS},
    "count-queries": {"queries": 400, "n_min": 50, "n_max": 3000, "coeff_max": 8},
    "verify-all": {"argv": ["--format", "json", "verify", "all"]},
}

# Workloads whose repetitions run in mirrored pairs.  By default every
# repetition of a run runs the seed's input 0.  In relations-wide the
# record order decides which count tables are built at which size, and
# one order's table work differs from another's by about 13 %, so each
# pair draws its own order and runs it once as drawn and once mirrored
# (see `mirrored`).  A table that one order builds twice, small then
# large, the mirrored order builds once, so a pair's mean varies about
# half as much between orders as a single order does.
MIRRORED = {"relations-wide"}


@dataclass
class Record:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Catalogs:
    identities: list
    relations: list
    scans: list


def mirrored(records: list[Record]) -> list[Record]:
    """The same records with each section in reverse order.

    A section is a run of records whose ids share the prefix before the
    first ``:``; sections keep their places.
    """
    out = []
    for _, section in itertools.groupby(records, key=lambda rec: rec.id.split(":", 1)[0]):
        out += reversed(list(section))
    return out


def load_catalogs(thetaq) -> Catalogs:
    return Catalogs(
        thetaq.load_identity_catalog(),
        thetaq.load_relation_catalog(),
        thetaq.load_scan_catalog(),
    )


# ----------------------------------------------------------------------
# identities-deep: the expansion stack
# ----------------------------------------------------------------------


def identities_deep(thetaq, catalogs: Catalogs, params: dict, rng) -> list[Record]:
    through = 2 * params["order"]
    entries = list(catalogs.identities)
    rng.shuffle(entries)

    def check(report):
        return None if report.ok else f"identity report not ok: {report}"

    return [
        Record(f"identity:{e.id}", lambda e=e: e.verify(through), check)
        for e in entries
    ]


# ----------------------------------------------------------------------
# relations-wide: the counting stack
# ----------------------------------------------------------------------


def _oracle_side(thetaq, ref, n: int) -> int:
    arg = ref.alpha * n + ref.beta
    if arg < 0:
        return 0
    return ref.scalar * thetaq.count_enumerate(ref.spec, arg)


def _relation_check(thetaq, rel):
    def check(counter) -> Optional[str]:
        if rel.status == "pinned":
            return f"pinned relation fails at N={counter[0].n}" if counter else None
        if not counter:
            return None
        first = counter[0]
        lhs = _oracle_side(thetaq, rel.lhs, first.n)
        rhs = sum(_oracle_side(thetaq, ref, first.n) for ref in rel.rhs)
        if (lhs, rhs) != (first.lhs, first.rhs) or lhs == rhs:
            return (f"counterexample N={first.n} reported ({first.lhs}, {first.rhs}), "
                    f"enumeration gives ({lhs}, {rhs})")
        return None

    return check


def _scan_check(hits) -> Optional[str]:
    return f"scan finds represented N {hits[:5]}" if hits else None


def _classical_check(report) -> Optional[str]:
    return None if report.ok else f"classical check fails: {report.details}"


def relations_wide(thetaq, catalogs: Catalogs, params: dict, rng) -> list[Record]:
    """`verify all`'s counting sections in CLI order, each section permuted."""
    nmax, scan_nmax = params["nmax"], params["scan_nmax"]
    relations = list(catalogs.relations)
    scans = list(catalogs.scans)
    classical = sorted(params["classical_bounds"].items())
    for section in (relations, scans, classical):
        rng.shuffle(section)
    records = [
        Record(f"relation:{rel.id}",
               lambda rel=rel: thetaq.verify_relation(rel, nmax),
               _relation_check(thetaq, rel))
        for rel in relations
    ]
    records += [
        Record(f"scan:{s.id}",
               lambda s=s: thetaq.nonrep_scan(s.spec, s.modulus, s.residue, scan_nmax),
               _scan_check)
        for s in scans
    ]
    records += [
        Record(f"classical:{cid}",
               lambda cid=cid, bound=bound: thetaq.classical_check(cid, bound),
               _classical_check)
        for cid, bound in classical
    ]
    return records


# ----------------------------------------------------------------------
# count-queries: interactive single queries
# ----------------------------------------------------------------------


def make_queries(form_names, params: dict, rng) -> list[tuple[str, tuple, int]]:
    """Seeded (form, coeffs, n) queries with n log-uniform in [n_min, n_max).

    The n are stratified: query i draws from the i-th equal slice of
    [log n_min, log n_max), so every stream spans the whole range evenly
    and the total work varies little between seeds.  The stream is then
    shuffled.  Below n_min a query is mostly call overhead (about 0.3 ms),
    whose speed against the reference kernel shifts by a third with the
    machine's state, so the median query would measure that instead of
    the counting code.
    """
    count = params["queries"]
    log_min, log_max = math.log(params["n_min"]), math.log(params["n_max"])
    names = sorted(form_names)
    queries = []
    for i in range(count):
        n = int(math.exp(log_min + (i + rng.random()) / count * (log_max - log_min)))
        coeffs = tuple(rng.randint(1, params["coeff_max"]) for _ in range(3))
        queries.append((rng.choice(names), coeffs, n))
    rng.shuffle(queries)
    return queries


def count_queries(thetaq, catalogs: Catalogs, params: dict, rng) -> list[Record]:
    """What `thetaq count --method both` does, one query at a time."""

    def query(name, coeffs, n):
        spec = thetaq.MixedSumSpec.of(name, coeffs)
        return thetaq.count_enumerate(spec, n), thetaq.count_series(spec, n).coeff(2 * n)

    def check(pair):
        enumerated, series = pair
        return None if enumerated == series else f"enumerate {enumerated} != series {series}"

    return [
        Record(f"count:{q[0]}{q[1]};{q[2]}", lambda q=q: query(*q), check)
        for q in make_queries(thetaq.REGISTRY, params, rng)
    ]


# ----------------------------------------------------------------------
# verify-all: the headline command
# ----------------------------------------------------------------------


def expected_verify_all(thetaq, catalogs: Catalogs) -> dict[tuple[str, str], str]:
    """(cmd, id) -> status of every record `verify all` must print."""
    expected = {("verify identity", e.id): "pass" for e in catalogs.identities}
    for rel in catalogs.relations:
        expected["verify relation", rel.id] = "pass" if rel.status == "pinned" else "info"
    for scan in catalogs.scans:
        expected["verify scan", scan.id] = "pass"
    for cid in thetaq.CLASSICAL_IDS:
        expected["verify classical", cid] = "pass"
    return expected


def verify_all_record(line: str):
    """(cmd, id, status) of one printed `verify all` record; None if malformed."""
    try:
        rec = json.loads(line)
        return rec["cmd"], rec["params"]["id"], rec["status"]
    except (ValueError, KeyError, TypeError):
        return None


def check_verify_all(expected: dict, exit_code, lines: list[str]) -> list[str]:
    """One message per expected record missing or wrong, and per extra record."""
    problems = []
    seen = {}
    for line in lines:
        rec = verify_all_record(line)
        if rec is None:
            problems.append(f"malformed record {line[:80]!r}")
            continue
        key, status = rec[:2], rec[2]
        if key in seen or key not in expected:
            problems.append(f"unexpected record {key}")
        seen[key] = status
    for key, status in expected.items():
        if seen.get(key) != status:
            problems.append(f"{key}: expected {status}, got {seen.get(key)}")
    if exit_code != 0 and not problems:
        problems.append(f"exit code {exit_code}")
    return problems


BUILDERS = {
    "identities-deep": identities_deep,
    "relations-wide": relations_wide,
    "count-queries": count_queries,
}
