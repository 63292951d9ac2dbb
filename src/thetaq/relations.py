"""Residue-qualified linear relations between representation counts.

A :class:`RelationStatement` asserts, for every N in a residue class up
to a scan bound, that a scaled count at an affine argument equals a
signed sum of other scaled counts.  Statements are cataloged with a
status flag: ``pinned`` statements are guaranteed by the test suite,
``empirical`` ones are machine-checked and reported with their smallest
counterexample, guarding against transcription slips in the sources the
catalog was assembled from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .repcount import REGISTRY, TABLE_CACHE, MixedSumSpec
from .series import COEFF_LIMIT, CoefficientOverflowError


@dataclass(frozen=True)
class CountRef:
    """scalar * count(form, coeffs; alpha*N + beta); negative args count 0."""

    form: str
    coeffs: tuple[int, int, int]
    alpha: int = 1
    beta: int = 0
    scalar: int = 1

    def __post_init__(self) -> None:
        c = self.coeffs
        if not (
            isinstance(self.form, str) and self.form in REGISTRY
            and isinstance(c, tuple) and len(c) == 3
            and all(type(x) is int and x > 0 for x in c)
            and type(self.alpha) is int and self.alpha >= 1
            and type(self.beta) is int
            and type(self.scalar) is int and self.scalar != 0
        ):
            # a float field would be compared in floats, an alpha below 1
            # does not step through N, and a zero scalar drops its count
            raise ValueError(
                f"count {self.form!r} {c!r} alpha={self.alpha!r} beta={self.beta!r} "
                f"scalar={self.scalar!r} needs a registered form, three positive "
                "integer coefficients, integers alpha >= 1 and beta, and a nonzero "
                "integer scalar"
            )

    @property
    def spec(self) -> MixedSumSpec:
        return MixedSumSpec.of(self.form, self.coeffs)

    def render(self) -> str:
        arg = "N"
        if self.alpha != 1:
            arg = f"{self.alpha}N"
        if self.beta:
            arg = f"{arg}{self.beta:+d}"
        c = ",".join(str(c) for c in self.coeffs)
        body = f"{self.form}({c};{arg})"
        if abs(self.scalar) != 1:
            body = f"{abs(self.scalar)} {body}"
        return body


@dataclass(frozen=True)
class Counterexample:
    n: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class RelationStatement:
    id: str
    lhs: CountRef
    rhs: tuple[CountRef, ...]  # empty tuple states a zero relation
    residue_class: Optional[tuple[int, int]] = None  # (modulus, residue) on N
    status: str = "empirical"  # pinned | empirical

    def __post_init__(self) -> None:
        rc = self.residue_class
        if rc is not None and not (
            isinstance(rc, tuple) and len(rc) == 2
            and all(type(x) is int for x in rc) and 0 <= rc[1] < rc[0]
        ):
            # a class with m < 1 or r outside [0, m) checks no N, or divides by 0
            raise ValueError(
                f"relation {self.id!r}: residue class {rc!r} needs integers "
                "(m, r) with m >= 1 and 0 <= r < m"
            )
        if self.status not in ("pinned", "empirical"):
            raise ValueError(
                f"relation {self.id!r}: status {self.status!r} is not "
                "'pinned' or 'empirical'"
            )

    def render(self) -> str:
        rhs_parts = []
        for i, ref in enumerate(self.rhs):
            text = ref.render()
            if ref.scalar < 0:
                rhs_parts.append(("- " if i else "-") + text)
            else:
                rhs_parts.append(("+ " if i else "") + text)
        rhs_text = " ".join(rhs_parts) if rhs_parts else "0"
        tail = ""
        if self.residue_class:
            m, r = self.residue_class
            tail = f"  (N == {r} mod {m})"
        return f"{self.lhs.render()} = {rhs_text}{tail}"


def verify_relation(rel: RelationStatement, n_max: int) -> list[Counterexample]:
    """The smallest N <= n_max in the relation's class where the two sides
    differ, as a one-item list, or ``[]`` when they agree at every N.

    Each side reads its counts off ``TABLE_CACHE``'s table through
    L = alpha*(n_max + 1 + beta // alpha) - 1, the last argument of the
    alpha-block that holds alpha*n_max + beta.  L is at least the side's
    largest argument and less than alpha*m past it, and it depends on
    beta only through beta // alpha, so sides that share a signature and
    alpha but differ in class or in beta mod alpha ask for one bound, and
    a table built for one is not rebuilt for the next by a few columns.

    Every argument alpha*N + beta, L + 1, |scalar| * max(counts) of the
    left side and the sum of |scalar| * max(counts) over the right side
    are proven to fit in 64 bits before any int64 arithmetic or table
    request; otherwise the relation is refused, by
    :class:`CoefficientOverflowError` for the scaled counts, so that no
    wrapped value is ever compared.
    """
    ns, lhs, rhs = _sides(rel, n_max)
    bad = np.flatnonzero(lhs != rhs)[:1].tolist()
    return [Counterexample(int(ns[i]), int(lhs[i]), int(rhs[i])) for i in bad]


def _sides(rel: RelationStatement, n_max: int) -> tuple[np.ndarray, ...]:
    """(ns, lhs, rhs): the N <= n_max in the relation's class and the two
    sides at each, as the int64 arrays ``verify_relation`` compares."""
    m, r = rel.residue_class or (1, 0)
    ns = np.arange(r, n_max + 1, m, dtype=np.int64)
    if ns.size == 0:
        return ns, ns, ns
    last = int(ns[-1])

    def counts(ref: CountRef) -> np.ndarray:
        # L of the docstring: the end of alpha*n_max + beta's alpha-block
        block_end = ref.alpha * (n_max + 1 + ref.beta // ref.alpha) - 1
        if max(ref.alpha * max(last, 1), abs(ref.beta), block_end + 1) > COEFF_LIMIT:
            raise ValueError(
                f"relation {rel.id!r}: the argument of {ref.render()} at N = {last} "
                "exceeds 64-bit width"
            )
        # the arguments step by alpha*m from alpha*r + beta; the leading
        # negative ones count 0, and the table may run past the last one
        step, first = ref.alpha * m, ref.alpha * r + ref.beta
        skip = min(ns.size, max(0, -(first // step)))
        vals = np.zeros(ns.size, dtype=np.int64)
        if skip < ns.size:
            table = TABLE_CACHE.get(ref.spec, block_end)
            vals[skip:] = table[first + skip * step :: step][: ns.size - skip]
        return vals

    sides = [(ref.scalar, counts(ref)) for ref in (rel.lhs, *rel.rhs)]
    bounds = [abs(c) * int(vals.max()) for c, vals in sides]  # counts are >= 0
    if bounds[0] > COEFF_LIMIT or sum(bounds[1:]) > COEFF_LIMIT:
        raise CoefficientOverflowError(
            f"relation {rel.id!r}: scaled counts through N = {last} exceed 64-bit width"
        )
    # a zero bound means zero counts, whatever the scalar
    lhs, *terms = (c * vals if b else vals for (c, vals), b in zip(sides, bounds))
    rhs = np.zeros(ns.size, dtype=np.int64)
    for term in terms:
        rhs += term
    return ns, lhs, rhs


# ----------------------------------------------------------------------
# catalog loading
# ----------------------------------------------------------------------


# the keys each catalog object may hold; a row's note and citation are free text
_REF_KEYS = ("form", "coeffs", "alpha", "beta", "scalar")
_ROW_KEYS = ("id", "lhs", "rhs", "residue", "status", "note", "citation")


def _refuse_unknown_keys(raw: dict, known: tuple[str, ...], what: str) -> None:
    """A misspelt key would otherwise load as its default, silently."""
    unknown = [key for key in raw if key not in known]
    if unknown:
        raise ValueError(
            f"{what} has unknown key {unknown[0]!r}; expected one of {', '.join(known)}"
        )


def _parse_ref(raw) -> CountRef:
    if not isinstance(raw, dict):
        raise ValueError(f"count {raw!r:.60} is not an object")
    _refuse_unknown_keys(raw, _REF_KEYS, f"count {raw.get('form')!r}")
    coeffs = raw.get("coeffs")
    return CountRef(
        form=raw.get("form"),
        coeffs=tuple(coeffs) if isinstance(coeffs, list) else coeffs,
        alpha=raw.get("alpha", 1),
        beta=raw.get("beta", 0),
        scalar=raw.get("scalar", 1),
    )


def _parse_relation(raw) -> RelationStatement:
    rid = raw.get("id") if isinstance(raw, dict) else None
    if not isinstance(rid, str):
        raise ValueError(f"catalog row {raw!r:.60} is not an object with a string id")
    residue = raw.get("residue")
    rhs = raw.get("rhs", [])
    try:
        _refuse_unknown_keys(raw, _ROW_KEYS, "row")
        if not isinstance(rhs, list):
            raise ValueError(f"rhs {rhs!r:.60} is not a list of counts")
        lhs = _parse_ref(raw.get("lhs"))
        rhs = tuple(_parse_ref(r) for r in rhs)
    except ValueError as exc:
        raise ValueError(f"relation {rid!r}: {exc}") from None
    return RelationStatement(
        id=rid,
        lhs=lhs,
        rhs=rhs,
        residue_class=tuple(residue) if isinstance(residue, list) else residue,
        status=raw.get("status", "empirical"),
    )


def load_relation_catalog(extra: str | Path | None = None) -> list[RelationStatement]:
    """Embedded relation catalog, optionally extended from a JSON file."""
    raw = json.loads(
        resources.files("thetaq.data").joinpath("relations.json").read_text()
    )
    relations = [_parse_relation(item) for item in raw["relations"]]
    if extra is not None:
        more = json.loads(Path(extra).read_text())
        rows = more.get("relations") if isinstance(more, dict) else None
        if not isinstance(rows, list):
            raise ValueError(
                f"catalog {str(extra)!r} is not an object with a 'relations' list"
            )
        relations.extend(_parse_relation(item) for item in rows)
    seen = set()
    for rel in relations:
        if rel.id in seen:  # a second row would shadow or double the first
            raise ValueError(f"relation {rel.id!r} appears twice in the catalog")
        seen.add(rel.id)
    return relations


@dataclass(frozen=True)
class ScanStatement:
    """A residue class claimed to carry no representations at all."""

    id: str
    form: str
    coeffs: tuple[int, int, int]
    modulus: int
    residue: int
    citation: str = ""

    @property
    def spec(self) -> MixedSumSpec:
        return MixedSumSpec.of(self.form, self.coeffs)


def load_scan_catalog() -> list[ScanStatement]:
    raw = json.loads(
        resources.files("thetaq.data").joinpath("relations.json").read_text()
    )
    return [
        ScanStatement(
            id=item["id"],
            form=item["form"],
            coeffs=tuple(item["coeffs"]),
            modulus=item["modulus"],
            residue=item["residue"],
            citation=item.get("citation", ""),
        )
        for item in raw["scans"]
    ]


# ----------------------------------------------------------------------
# classical desk-scale checks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalReport:
    id: str
    ok: bool
    n_max: int
    details: dict


def _coverage_gaps(form: str, coeffs: tuple[int, int, int], n_max: int) -> list[int]:
    table = TABLE_CACHE.get(MixedSumSpec.of(form, coeffs), n_max)
    return [int(n) for n in np.flatnonzero(table[: n_max + 1] == 0)]


def _power4_family(base_mod: int, base_res: int, n_max: int) -> set[int]:
    """{4^k (base_mod*l + base_res)} intersected with [0, n_max]."""
    out = set()
    p = 1
    while p * base_res <= n_max:
        v = p * base_res
        while v <= n_max:
            out.add(v)
            v += p * base_mod
        p *= 4
    return out


# each classical check with the desk-scale bound `verify all` runs it at
CLASSICAL_BOUNDS = {
    "gauss3tri": 5000,
    "liouville": 2000,
    "sun_sq_sq_t": 2000,
    "sun_sq_t_t": 2000,
    "gauss_legendre": 4096,
    "ramanujan_dickson_10": 4096,
    "dickson_126": 4096,
}
CLASSICAL_IDS = tuple(CLASSICAL_BOUNDS)


# coverage checks: every N is represented by the form at each triple
_COVERAGE = {
    "liouville": ("T", [
        (1, 1, 1), (1, 1, 2), (1, 1, 4), (1, 1, 5), (1, 2, 2), (1, 2, 3), (1, 2, 4),
    ]),
    "sun_sq_sq_t": ("Rt", [
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 4),
        (1, 3, 1), (1, 4, 1), (1, 4, 2), (1, 8, 1), (2, 2, 1),
    ]),
    "sun_sq_t_t": ("rT", [
        (1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 3, 1), (1, 4, 1),
        (1, 4, 2), (1, 5, 2), (1, 6, 1), (1, 8, 1), (2, 1, 1),
        (2, 2, 1), (2, 4, 1), (3, 2, 1), (4, 1, 1), (4, 2, 1),
    ]),
}

# exception-set checks (form, coeffs, base_mod, base_res, step): the
# unrepresented multiples of step are exactly 4^k (base_mod*l + base_res)
_EXCEPTIONS = {
    "gauss_legendre": ("r", (1, 1, 1), 8, 7, 1),
    "ramanujan_dickson_10": ("r", (1, 1, 10), 16, 6, 2),
    "dickson_126": ("r", (1, 2, 6), 8, 5, 1),
}


def classical_check(check_id: str, n_max: int) -> ClassicalReport:
    """Desk-scale verification of a classical representability fact.

    Coverage checks report uncovered N (expected none); exception-set
    checks report the symmetric difference between the observed zero
    set and the stated family (expected empty).  N = 0 is always
    represented and never in a family, so neither needs to skip it.
    """
    if check_id == "gauss3tri":
        gaps = _coverage_gaps("T", (1, 1, 1), n_max)
        return ClassicalReport(check_id, not gaps, n_max, {"uncovered": gaps})
    if check_id in _COVERAGE:
        form, triples = _COVERAGE[check_id]
        detail = {str(t): _coverage_gaps(form, t, n_max) for t in triples}
        ok = not any(detail.values())
        return ClassicalReport(check_id, ok, n_max, {"uncovered": detail})
    if check_id in _EXCEPTIONS:
        form, coeffs, base_mod, base_res, step = _EXCEPTIONS[check_id]
        zero = {n for n in _coverage_gaps(form, coeffs, n_max) if n % step == 0}
        diff = sorted(zero ^ _power4_family(base_mod, base_res, n_max))
        return ClassicalReport(check_id, not diff, n_max, {"difference": diff})
    raise KeyError(f"unknown classical check {check_id!r}")
