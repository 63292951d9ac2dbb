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
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .repcount import TABLE_CACHE, MixedSumSpec


@dataclass(frozen=True)
class CountRef:
    """scalar * count(form, coeffs; alpha*N + beta); negative args count 0."""

    form: str
    coeffs: tuple[int, int, int]
    alpha: int = 1
    beta: int = 0
    scalar: int = 1

    @property
    def spec(self) -> MixedSumSpec:
        return MixedSumSpec.of(self.form, self.coeffs)

    def render(self, var: str = "N") -> str:
        arg = var
        if self.alpha != 1:
            arg = f"{self.alpha}{var}"
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


class Counterexamples(Sequence[Counterexample]):
    """Read-only sequence of counterexamples, smallest N first.

    Holds the failing N and both sides as int64 arrays and builds a
    :class:`Counterexample` with Python-int fields only for the items
    read; a slice is another such sequence.  Compares equal to a list
    of the same items, in either operand order.
    """

    __slots__ = ("_n", "_lhs", "_rhs")

    def __init__(self, n: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> None:
        self._n, self._lhs, self._rhs = n, lhs, rhs

    def __len__(self) -> int:
        return self._n.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Counterexamples(self._n[i], self._lhs[i], self._rhs[i])
        return Counterexample(int(self._n[i]), int(self._lhs[i]), int(self._rhs[i]))

    def __iter__(self):
        return map(Counterexample, self._n.tolist(), self._lhs.tolist(), self._rhs.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, Counterexamples)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self) -> str:
        shown = ", ".join(map(repr, self[:5]))
        more = f", ... ({len(self)} in all)" if len(self) > 5 else ""
        return f"Counterexamples([{shown}{more}])"


@dataclass(frozen=True)
class RelationStatement:
    id: str
    lhs: CountRef
    rhs: tuple[CountRef, ...]  # empty tuple states a zero relation
    residue_class: Optional[tuple[int, int]] = None  # (modulus, residue) on N
    citation: str = ""
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


def verify_relation(rel: RelationStatement, n_max: int) -> Counterexamples:
    """All N <= n_max in the relation's class where the two sides differ."""
    m, r = rel.residue_class or (1, 0)
    ns = np.arange(r, n_max + 1, m, dtype=np.int64)
    if ns.size == 0:
        return Counterexamples(ns, ns, ns)

    def side(ref: CountRef) -> np.ndarray:
        args = ref.alpha * ns + ref.beta
        table = TABLE_CACHE.get(ref.spec, int(args.max()))
        vals = np.zeros(ns.size, dtype=np.int64)
        good = args >= 0
        vals[good] = table[args[good]]
        return ref.scalar * vals

    lhs = side(rel.lhs)
    rhs = np.zeros(ns.size, dtype=np.int64)
    for ref in rel.rhs:
        rhs = rhs + side(ref)
    bad = lhs != rhs
    return Counterexamples(ns[bad], lhs[bad], rhs[bad])


# ----------------------------------------------------------------------
# catalog loading
# ----------------------------------------------------------------------


def _parse_ref(raw: dict) -> CountRef:
    return CountRef(
        form=raw["form"],
        coeffs=tuple(raw["coeffs"]),
        alpha=raw.get("alpha", 1),
        beta=raw.get("beta", 0),
        scalar=raw.get("scalar", 1),
    )


def _parse_relation(raw: dict) -> RelationStatement:
    residue = raw.get("residue") or None
    return RelationStatement(
        id=raw["id"],
        lhs=_parse_ref(raw["lhs"]),
        rhs=tuple(_parse_ref(r) for r in raw.get("rhs", [])),
        residue_class=tuple(residue) if isinstance(residue, list) else residue,
        citation=raw.get("citation", ""),
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
        relations.extend(_parse_relation(item) for item in more["relations"])
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


LIOUVILLE_TRIPLES = [
    (1, 1, 1), (1, 1, 2), (1, 1, 4), (1, 1, 5), (1, 2, 2), (1, 2, 3), (1, 2, 4),
]

SUN_SQUARE_SQUARE_TRIANGULAR = [
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 4),
    (1, 3, 1), (1, 4, 1), (1, 4, 2), (1, 8, 1), (2, 2, 1),
]

SUN_SQUARE_TRIANGULAR_TRIANGULAR = [
    (1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 3, 1), (1, 4, 1),
    (1, 4, 2), (1, 5, 2), (1, 6, 1), (1, 8, 1), (2, 1, 1),
    (2, 2, 1), (2, 4, 1), (3, 2, 1), (4, 1, 1), (4, 2, 1),
]

CLASSICAL_IDS = (
    "gauss3tri",
    "liouville",
    "sun_sq_sq_t",
    "sun_sq_t_t",
    "gauss_legendre",
    "ramanujan_dickson_10",
    "dickson_126",
)


def classical_check(check_id: str, n_max: int) -> ClassicalReport:
    """Desk-scale verification of a classical representability fact.

    Coverage checks report uncovered N (expected none); exception-set
    checks report the symmetric difference between the observed zero
    set and the stated family (expected empty).
    """
    if check_id == "gauss3tri":
        gaps = _coverage_gaps("T", (1, 1, 1), n_max)
        return ClassicalReport(check_id, not gaps, n_max, {"uncovered": gaps})
    if check_id == "liouville":
        detail = {
            str(t): _coverage_gaps("T", t, n_max) for t in LIOUVILLE_TRIPLES
        }
        ok = not any(detail.values())
        return ClassicalReport(check_id, ok, n_max, {"uncovered": detail})
    if check_id == "sun_sq_sq_t":
        detail = {
            str(t): _coverage_gaps("Rt", t, n_max)
            for t in SUN_SQUARE_SQUARE_TRIANGULAR
        }
        ok = not any(detail.values())
        return ClassicalReport(check_id, ok, n_max, {"uncovered": detail})
    if check_id == "sun_sq_t_t":
        detail = {
            str(t): _coverage_gaps("rT", t, n_max)
            for t in SUN_SQUARE_TRIANGULAR_TRIANGULAR
        }
        ok = not any(detail.values())
        return ClassicalReport(check_id, ok, n_max, {"uncovered": detail})
    if check_id == "gauss_legendre":
        zero = set(_coverage_gaps("r", (1, 1, 1), n_max))
        family = _power4_family(8, 7, n_max)
        diff = sorted(zero ^ family)
        return ClassicalReport(check_id, not diff, n_max, {"difference": diff})
    if check_id == "ramanujan_dickson_10":
        zero = {
            n for n in _coverage_gaps("r", (1, 1, 10), n_max)
            if n > 0 and n % 2 == 0
        }
        family = {n for n in _power4_family(16, 6, n_max) if n > 0}
        diff = sorted(zero ^ family)
        return ClassicalReport(check_id, not diff, n_max, {"difference": diff})
    if check_id == "dickson_126":
        zero = {n for n in _coverage_gaps("r", (1, 2, 6), n_max) if n > 0}
        family = {n for n in _power4_family(8, 5, n_max) if n > 0}
        diff = sorted(zero ^ family)
        return ClassicalReport(check_id, not diff, n_max, {"difference": diff})
    raise KeyError(f"unknown classical check {check_id!r}")
