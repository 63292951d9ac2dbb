#!/usr/bin/env python3
"""Regenerate the embedded catalogs under src/thetaq/data/.

Relation statements are transcribed here exactly as stated by their
sources; running this script verifies every statement to the pinning
bound and assigns status flags mechanically: a statement that holds to
the bound is pinned, anything else stays empirical and its smallest
counterexample is printed for review.  Identity-catalog entries are
validated against the parameter constraints before being written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from thetaq.identity import (  # noqa: E402
    PairParams,
    TripleParams,
    signed_pair_params,
    validate_pair,
    validate_triple,
)
from thetaq.relations import _parse_relation, verify_relation  # noqa: E402

DATA = SRC / "thetaq" / "data"
PIN_BOUND = 1000

# (k, r) pairs admissible for k <= 6
GRID_PAIRS = [(2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (6, 1), (6, 5)]


def ref(form, coeffs, alpha=1, beta=0, scalar=1):
    return {
        "form": form,
        "coeffs": list(coeffs),
        "alpha": alpha,
        "beta": beta,
        "scalar": scalar,
    }


def rel(rid, lhs, rhs, residue=None, note=""):
    out = {"id": rid, "residue": list(residue) if residue else None,
           "lhs": lhs, "rhs": rhs}
    if note:
        out["note"] = note
    return out


RELATIONS = [
    # ---- Athm1
    rel("Athm1.1", ref("rT", (1, 1, 1)), [ref("Rt", (2, 2, 2))], (2, 0)),
    rel("Athm1.2", ref("rT", (1, 1, 1)), [ref("T", (2, 4, 4), 1, -1, 4)], (2, 1)),
    # ---- Athm2
    rel("Athm2.1", ref("Rt", (1, 1, 4)), [ref("rT", (2, 2, 2))], (2, 0)),
    rel("Athm2.2", ref("Rt", (1, 1, 4)), [ref("rT", (4, 4, 8), 1, -1, 4)], (4, 1)),
    rel("Athm2.3", ref("Rt", (1, 1, 4)), [], (4, 3)),
    # ---- Athm3
    rel("Athm3.1", ref("r", (1, 1, 2)),
        [ref("r", (2, 4, 4)), ref("rT", (2, 8, 8), 1, -2, 4)], (2, 0)),
    rel("Athm3.2", ref("r", (1, 1, 2)), [ref("T", (2, 2, 4), 1, -1, 4)], (2, 1)),
    # ---- Athm4
    rel("Athm4.1", ref("T", (1, 1, 2), 4), [ref("Rt", (1, 2, 1))]),
    rel("Athm4.2", ref("T", (1, 1, 2), 4, 1), [ref("rT", (2, 1, 2), scalar=2)]),
    rel("Athm4.3", ref("T", (1, 1, 2), 4, 2), [ref("rT", (1, 1, 4), scalar=2)]),
    rel("Athm4.4", ref("T", (1, 1, 2), 4, 3), [ref("T", (1, 2, 4), scalar=4)]),
    rel("Athm4.5", ref("r", (1, 2, 4), 2), [ref("r", (1, 2, 2))]),
    rel("Athm4.6", ref("r", (1, 2, 4), 2, 1), [ref("T", (1, 1, 2), scalar=2)]),
    # ---- Athm7
    rel("Athm7.1", ref("G", (1, 1, 2), 2),
        [ref("Rg", (3, 6, 2)), ref("rtp", (3, 12, 4), 1, -1, 2)]),
    rel("Athm7.2", ref("G", (1, 1, 2), 2, 1), [ref("Tp", (3, 6, 1), scalar=2)]),
    # ---- Athm8
    rel("Athm8.1", ref("tG", (12, 1, 1), 2), [ref("rtg", (3, 6, 1))]),
    rel("Athm8.2", ref("tG", (12, 1, 1), 4, 1), [ref("tpg", (3, 2, 1), scalar=2)]),
    rel("Athm8.3", ref("tG", (12, 1, 1), 4, 3), []),
    # ---- Athm9
    rel("Athm9.1", ref("pG", (4, 1, 1), 2), [ref("rtp", (3, 3, 1))]),
    rel("Athm9.2", ref("pG", (4, 1, 1), 4, 1),
        [ref("rtp", (3, 3, 2), scalar=2), ref("Tg", (3, 6, 1), 1, -1, 4)]),
    rel("Athm9.3", ref("pG", (4, 1, 1), 4, 3), []),
    # ---- Athm10
    rel("Athm10.1", ref("Rg", (3, 3, 2), 2),
        [ref("rP", (3, 4, 4)), ref("rG", (3, 2, 2), 1, -1)]),
    rel("Athm10.2", ref("Rg", (3, 3, 2), 2, 1), [ref("Tg", (6, 6, 1), 1, -1, 4)]),
    # ---- Athm11
    rel("Athm11.1", ref("Rp", (3, 3, 4), 2),
        [ref("rP", (3, 1, 1)), ref("rtg", (3, 6, 1), 1, -1, -2)]),
    rel("Athm11.2", ref("Rp", (3, 3, 2), 4, 3), [ref("tpg", (3, 2, 1), scalar=4)],
        note="as printed; the proof identity points at Rp(3,3,4)"),
    rel("Athm11.2a", ref("Rp", (3, 3, 4), 4, 3), [ref("tpg", (3, 2, 1), scalar=4)],
        note="amended form of Athm11.2 via the proof identity"),
    rel("Athm11.3", ref("Rp", (3, 3, 2), 4, 1), [],
        note="as printed; fails and stays empirical"),
    rel("Athm11.3a", ref("Rp", (3, 3, 4), 4, 1), [],
        note="amended form of Athm11.3 backed by the zero scan"),
    # ---- Athm12
    rel("Athm12.1", ref("pG", (2, 1, 1), 6), [ref("rP", (1, 1, 2))]),
    rel("Athm12.2", ref("pG", (2, 1, 1), 6, 1), [ref("rtp", (3, 2, 1), scalar=2)]),
    rel("Athm12.3", ref("pG", (2, 1, 1), 6, 2), [ref("rtp", (1, 3, 2), scalar=2)]),
    rel("Athm12.4", ref("pG", (2, 1, 1), 6, 3), [ref("tpg", (2, 1, 1), scalar=2)]),
    rel("Athm12.5", ref("pG", (2, 1, 1), 6, 4), [ref("rtp", (1, 6, 1), scalar=2)]),
    rel("Athm12.6", ref("pG", (2, 1, 1), 6, 5), [ref("Tg", (2, 3, 1), scalar=4)]),
    # ---- AAthm3
    rel("AAthm3.1", ref("T", (1, 1, 4), scalar=2),
        [ref("rpg", (1, 2, 2)), ref("Rt", (1, 6, 6))]),
    rel("AAthm3.2", ref("T", (1, 1, 4), 2, 0, 2),
        [ref("rpg", (2, 1, 1)), ref("Rt", (2, 3, 3))]),
    rel("AAthm3.3", ref("T", (1, 1, 4), 2, 1),
        [ref("tpg", (4, 1, 1)), ref("rT", (3, 3, 4))]),
    rel("AAthm3.4", ref("T", (1, 1, 8), scalar=4),
        [ref("r", (1, 4, 4), 4, 5), ref("r", (1, 4, 16), 4, 5, -1)]),
    rel("AAthm3.5", ref("T", (1, 1, 8), 2), [ref("T", (1, 2, 2))]),
    rel("AAthm3.6", ref("T", (1, 1, 8), 2, 1), [ref("T", (1, 4, 4), scalar=2)]),
    rel("AAthm3.7", ref("r", (1, 1, 1)),
        [ref("r", (1, 1, 4)), ref("r", (1, 4, 4), 4), ref("r", (1, 4, 16), 4, 0, -1)]),
    rel("AAthm3.8", ref("r", (1, 4, 4), 4, 2), [ref("r", (1, 4, 16), 4, 2)]),
    rel("AAthm3.9", ref("r", (1, 4, 4), 4, 3), [ref("r", (1, 4, 16), 4, 3)]),
    rel("AAthm3.10", ref("T", (2, 3, 3), 4), [ref("Rt", (3, 3, 2))]),
    rel("AAthm3.11", ref("T", (2, 3, 3), 4, 1), [ref("T", (1, 3, 12), 2, -1, 2)]),
    rel("AAthm3.12", ref("T", (2, 3, 3), 4, 2), [ref("Rt", (1, 3, 6))]),
    rel("AAthm3.13", ref("T", (2, 3, 3), 4, 3), [ref("T", (1, 3, 12), 2, 0, 2)]),
    rel("AAthm3.14", ref("T", (2, 7, 7), 4),
        [ref("Rt", (7, 14, 4)), ref("Rt", (2, 7, 12), 1, -3)]),
    rel("AAthm3.15", ref("T", (2, 7, 7), 4, 2), [ref("rT", (7, 1, 7))]),
    rel("AAthm3.16", ref("T", (2, 7, 7), 8, 3), [ref("rT", (1, 7, 14), 1, -2, 2)]),
    rel("AAthm3.17", ref("T", (2, 7, 7), 8, 7), [ref("rT", (7, 2, 7), scalar=2)]),
    rel("AAthm3.18", ref("T", (2, 7, 7), 4, 1), [ref("T", (1, 7, 14), 1, -2, 2)]),
    rel("AAthm3.19", ref("T", (2, 5, 5), 4),
        [ref("Rt", (5, 30, 3)), ref("rpg", (5, 1, 10), 1, -3)]),
    rel("AAthm3.20", ref("T", (2, 5, 5), 4),
        [ref("rP", (5, 4, 5)), ref("rT", (5, 12, 15), 1, -3, 2)]),
    rel("AAthm3.21", ref("T", (2, 5, 5), 4, 1),
        [ref("tP", (10, 4, 5), 1, -1, 2), ref("T", (10, 12, 15), 1, -4, 2)]),
    rel("AAthm3.22", ref("T", (2, 5, 5), 4, 1),
        [ref("rT", (30, 10, 3), 1, -1, 2), ref("tpg", (10, 1, 10), 1, -4, 2)]),
    rel("AAthm3.23", ref("T", (2, 5, 5), 4, 2),
        [ref("rP", (5, 1, 20)), ref("rT", (5, 3, 60), 1, -7, 2)]),
    rel("AAthm3.24", ref("T", (2, 5, 5), 4, 2),
        [ref("rpg", (5, 5, 2)), ref("Rt", (5, 6, 15), 1, -1)]),
    rel("AAthm3.25", ref("T", (2, 5, 5), 4, 3),
        [ref("tpg", (10, 20, 1), 1, -1, 2), ref("T", (3, 10, 6), 1, -8, 4)]),
    rel("AAthm3.26", ref("T", (2, 5, 5), 20, 11),
        [ref("tpg", (10, 5, 2), 5, 1, 2), ref("rT", (12, 2, 3), scalar=2)]),
    rel("AAthm3.27", ref("T", (2, 5, 5), 20, 3), [ref("tpg", (10, 5, 2), 5, -1, 2)]),
    rel("AAthm3.28", ref("T", (2, 5, 5), 20, 7), [ref("tpg", (10, 5, 2), 5, 0, 2)]),
    rel("AAthm3.29", ref("T", (2, 5, 5), 20, 15), [ref("tpg", (10, 5, 2), 5, 2, 2)]),
    rel("AAthm3.30", ref("T", (2, 5, 5), 20, 19), [ref("tpg", (10, 5, 2), 5, 3, 2)]),
    rel("AAthm3.31", ref("T", (2, 15, 15), 4), [ref("rT", (15, 3, 5))]),
    rel("AAthm3.32", ref("T", (2, 15, 15), 4, 2),
        [ref("Rt", (10, 15, 12)), ref("Rt", (6, 15, 20), 1, -1)]),
    rel("AAthm3.33", ref("T", (2, 15, 15), 4, 3), [ref("T", (3, 5, 30), 1, -3, 2)]),
    rel("AAthm3.34", ref("T", (2, 15, 15), 8, 1), [ref("rT", (5, 6, 15), 1, -2, 2)]),
    rel("AAthm3.35", ref("T", (2, 15, 15), 8, 5), [ref("rT", (3, 10, 15), 1, -2, 2)]),
    # ---- PgTg block
    rel("PgTg.1", ref("rtg", (3, 12, 1), 4), [ref("Pg", (1, 2, 1))]),
    rel("PgTg.2", ref("rtg", (3, 12, 1), 2, 1), [ref("tP", (6, 1, 1))]),
    rel("PgTg.3", ref("rtg", (3, 12, 1), 4, 2), []),
    rel("PgTg.4", ref("tpg", (3, 1, 1), 2), [ref("rpg", (3, 1, 1))]),
    rel("PgTg.5", ref("tpg", (3, 1, 1), 2, 1), [ref("tP", (6, 2, 1), scalar=2)]),
    rel("PgTg.6", ref("Pg", (2, 2, 1), 3),
        [ref("Rp", (2, 3, 4)), ref("rtg", (3, 4, 2), 1, -1, 2)]),
    rel("PgTg.7", ref("Pg", (2, 2, 1), 3, 1),
        [ref("rpg", (2, 4, 1)), ref("tG", (4, 2, 1), 1, -1, 2)]),
    rel("PgTg.8", ref("Pg", (2, 2, 1), 3, 2),
        [ref("rtg", (6, 4, 1), scalar=2), ref("rtg", (2, 12, 1), 1, -1, 2)]),
    rel("PgTg.9", ref("Pg", (1, 1, 1), 2),
        [ref("rtp", (3, 3, 1), 2), ref("Tp", (3, 6, 2), 1, -1, 4)]),
    rel("PgTg.10", ref("Pg", (1, 1, 1), 2, 1),
        [ref("rtp", (3, 3, 1), 2, 1), ref("rtg", (3, 3, 1), scalar=2)]),
    rel("PgTg.11", ref("Tg", (3, 3, 1), 2),
        [ref("rtg", (3, 6, 1), 2), ref("tP", (3, 2, 2))],
        note="as printed; see PgTg.11a"),
    rel("PgTg.11a", ref("Tg", (3, 3, 1), 2, 0, 2),
        [ref("rtg", (3, 6, 1), 2), ref("tP", (3, 2, 2))],
        note="amended left scalar that holds at scale"),
    rel("PgTg.12", ref("Tg", (3, 3, 1), 2, 1),
        [ref("rtg", (3, 6, 1), 2, 1), ref("tG", (3, 1, 1))],
        note="as printed; see PgTg.12a"),
    rel("PgTg.12a", ref("Tg", (3, 3, 1), 2, 1, 2),
        [ref("rtg", (3, 6, 1), 2, 1), ref("tG", (3, 1, 1))],
        note="amended left scalar that holds at scale"),
    # ---- AAthm71 (duplicated source lines cataloged once)
    rel("AAthm71.1", ref("Rt", (1, 1, 2), 2),
        [ref("rP", (1, 1, 2)), ref("rT", (1, 3, 6), scalar=2)],
        note="as printed; see AAthm71.1a"),
    rel("AAthm71.1a", ref("Rt", (1, 1, 2), 2),
        [ref("rP", (1, 1, 2)), ref("rT", (1, 3, 6), 1, -1, 2)],
        note="amended argument shift that holds at scale"),
    rel("AAthm71.2", ref("Rt", (1, 1, 2), 2, 1),
        [ref("tpg", (2, 1, 1), scalar=2), ref("rT", (3, 2, 3), scalar=2)]),
    rel("AAthm71.3", ref("rG", (6, 1, 1), 2),
        [ref("rP", (3, 4, 4)), ref("rG", (3, 2, 2), 1, -1)]),
    rel("AAthm71.4", ref("rG", (6, 1, 1), 2, 1),
        [ref("tP", (6, 1, 1), scalar=2), ref("Tg", (6, 6, 1), 1, -1, -4)]),
    rel("AAthm71.5", ref("tP", (6, 1, 1)),
        [ref("rpg", (3, 4, 2)), ref("Tg", (6, 6, 1), 1, -1, 2)]),
    rel("AAthm71.6", ref("Rg", (3, 6, 1), 2),
        [ref("P", (1, 1, 2)), ref("tpg", (6, 2, 1), 1, -1, -2)]),
    rel("AAthm71.7", ref("Rg", (3, 6, 1), 2, 1),
        [ref("Pg", (4, 4, 1)), ref("G", (1, 2, 2), 1, -1)]),
    rel("AAthm71.8", ref("rpg", (3, 4, 1), 4),
        [ref("rP", (3, 1, 2)), ref("tpg", (6, 1, 1), 1, -1, 2)]),
    rel("AAthm71.9", ref("rpg", (3, 4, 1), 2, 1), [ref("tpg", (3, 1, 1))]),
    rel("AAthm71.10", ref("rpg", (3, 4, 1), 4, 2), []),
    rel("AAthm71.11", ref("tpg", (3, 2, 1)),
        [ref("rtp", (12, 6, 1)), ref("Tp", (6, 24, 1), 1, -3, 2)]),
    rel("AAthm71.12", ref("tpg", (3, 2, 1)), [ref("rtp", (3, 6, 1))]),
    rel("AAthm71.13", ref("tG", (4, 1, 1), 4, 1),
        [ref("Tp", (1, 3, 1)), ref("rtp", (2, 3, 4)), ref("Tg", (3, 4, 2), 1, -1, 2)]),
    rel("AAthm71.14", ref("tG", (4, 1, 1), 4, 3), []),
    rel("AAthm71.15", ref("rtg", (3, 4, 1), 4, 0, 2),
        [ref("rP", (2, 1, 4)), ref("tP", (1, 1, 1)), ref("tpg", (4, 1, 2), 1, -1, 2)]),
    # ---- AAthm18
    rel("AAthm18.1", ref("rtg", (3, 4, 1), 4, 2), []),
    rel("AAthm18.2", ref("rpg", (9, 4, 3), 4),
        [ref("rP", (18, 3, 4)), ref("tP", (9, 1, 3), 1, -1),
         ref("tpg", (36, 3, 2), 1, -5, 2)]),
    rel("AAthm18.3", ref("rpg", (9, 4, 3), 4, 2), []),
    rel("AAthm18.4", ref("Rt", (3, 3, 4), 4, 3),
        [ref("T", (1, 3, 3), scalar=2), ref("rT", (6, 3, 4), scalar=2),
         ref("rT", (2, 3, 6), 1, -1, 2)]),
    rel("AAthm18.5", ref("Rt", (3, 3, 4), 4, 1), []),
    rel("AAthm18.6", ref("rtp", (3, 6, 1)),
        [ref("tP", (3, 2, 8)), ref("tpg", (3, 2, 4), 1, -1)]),
    rel("AAthm18.7", ref("tP", (3, 1, 2)),
        [ref("rpg", (6, 4, 1)), ref("rG", (12, 1, 2), 1, -2, 2)]),
    rel("AAthm18.8", ref("Tp", (3, 6, 1), scalar=2),
        [ref("tpg", (6, 2, 1)), ref("pG", (4, 1, 2))]),
    rel("AAthm18.9", ref("P", (1, 1, 2)),
        [ref("Rp", (3, 6, 4)), ref("Tp", (3, 6, 1), 1, -1, 2),
         ref("rtg", (3, 12, 2), 1, -2, 2)]),
    rel("AAthm18.10", ref("r", (2, 3, 3), 2),
        [ref("r", (3, 4, 12)), ref("T", (2, 3, 3), 1, -1, 2),
         ref("rT", (3, 8, 24), 1, -4, 4)]),
    rel("AAthm18.11", ref("G", (2, 3, 3), 2),
        [ref("Rg", (9, 36, 4)), ref("rtp", (9, 18, 2), 1, -1),
         ref("rtp", (9, 72, 8), 1, -8, 2)]),
    rel("AAthm18.12", ref("rG", (2, 1, 1), 2),
        [ref("rtp", (3, 2, 2)), ref("Rg", (3, 4, 4), 1, -1),
         ref("rtp", (3, 8, 8), 1, -1, 2)]),
    rel("AAthm18.13", ref("Rg", (2, 3, 1), 2, 1),
        [ref("rG", (4, 1, 4), 1, -1), ref("tpg", (2, 2, 1), 1, -1),
         ref("tpg", (8, 8, 1), 1, -2, 2)],
        note="as printed; see AAthm18.13a"),
    rel("AAthm18.13a", ref("Rg", (2, 3, 1), 2, 1),
        [ref("rG", (4, 1, 4), 1, -1), ref("tpg", (2, 2, 1)),
         ref("tpg", (8, 8, 1), 1, -1, 2)],
        note="amended argument shifts that hold at scale"),
]

SCANS = [
    {"id": "scan.Rt114", "form": "Rt", "coeffs": [1, 1, 4], "modulus": 4, "residue": 3,
     "citation": "l^2 + m^2 + 4 t_n misses the class 4k+3"},
    {"id": "scan.pG411", "form": "pG", "coeffs": [4, 1, 1], "modulus": 4, "residue": 3,
     "citation": "4 p_l + g_m + g_n misses the class 4k+3"},
    {"id": "scan.tG1211", "form": "tG", "coeffs": [12, 1, 1], "modulus": 4, "residue": 3,
     "citation": "12 t_l + g_m + g_n misses the class 4k+3"},
    {"id": "scan.tG411", "form": "tG", "coeffs": [4, 1, 1], "modulus": 4, "residue": 3,
     "citation": "4 t_l + g_m + g_n misses the class 4k+3"},
    {"id": "scan.Rt334", "form": "Rt", "coeffs": [3, 3, 4], "modulus": 4, "residue": 1,
     "citation": "3 l^2 + 3 m^2 + 4 t_n misses the class 4k+1"},
    {"id": "scan.Rp334", "form": "Rp", "coeffs": [3, 3, 4], "modulus": 4, "residue": 1,
     "citation": "3 l^2 + 3 m^2 + 4 p_n misses the class 4k+1"},
    {"id": "scan.rtg3121", "form": "rtg", "coeffs": [3, 12, 1], "modulus": 4, "residue": 2,
     "citation": "3 l^2 + 12 t_m + g_n misses the class 4k+2"},
    {"id": "scan.rpg341", "form": "rpg", "coeffs": [3, 4, 1], "modulus": 4, "residue": 2,
     "citation": "3 l^2 + 4 p_m + g_n misses the class 4k+2"},
    {"id": "scan.rpg943", "form": "rpg", "coeffs": [9, 4, 3], "modulus": 4, "residue": 2,
     "citation": "9 l^2 + 4 p_m + 3 g_n misses the class 4k+2"},
    {"id": "scan.rtg341", "form": "rtg", "coeffs": [3, 4, 1], "modulus": 4, "residue": 2,
     "citation": "3 l^2 + 4 t_m + g_n misses the class 4k+2"},
]


def build_relations() -> dict:
    out = []
    failures = []
    for raw in RELATIONS:
        stmt = _parse_relation(raw)
        counter = verify_relation(stmt, PIN_BOUND)
        status = "pinned" if not counter else "empirical"
        if counter:
            failures.append((raw["id"], counter[0]))
        entry = dict(raw)
        entry["status"] = status
        entry["citation"] = stmt.render()
        out.append(entry)
    for rid, ce in failures:
        print(f"  empirical {rid}: first counterexample N={ce.n} "
              f"(lhs={ce.lhs}, rhs={ce.rhs})")
    return {"relations": out, "scans": SCANS}


# ----------------------------------------------------------------------
# identity catalog
# ----------------------------------------------------------------------

# named parameter sets behind the count theorems (see relation ids)
NAMED_TRIPLES = [
    ("Athm1", dict(k=2, r=1, g=1, h=0, u=1, v=0, i=1, j=1)),
    ("Athm2", dict(k=2, r=1, g=1, h=1, u=1, v=1, i=4, j=0)),
    ("Athm3", dict(k=2, r=1, g=1, h=1, u=1, v=1, i=2, j=2)),
    ("Athm4", dict(k=2, r=1, g=3, h=1, u=3, v=1, i=6, j=2)),
    ("Athm7", dict(k=2, r=1, g=5, h=1, u=5, v=1, i=10, j=2)),
    ("Athm8", dict(k=2, r=1, g=5, h=1, u=5, v=1, i=12, j=0)),
    ("Athm9", dict(k=2, r=1, g=5, h=1, u=5, v=1, i=8, j=4)),
    ("Athm10", dict(k=2, r=1, g=3, h=3, u=3, v=3, i=10, j=2)),
    ("Athm11", dict(k=2, r=1, g=3, h=3, u=3, v=3, i=8, j=4)),
    ("Athm12", dict(k=3, r=2, g=5, h=1, u=5, v=1, i=4, j=2)),
]


def grid_triples(k: int, r: int) -> list[dict]:
    w = r * (k - r)
    rows = [
        dict(k=k, r=r, g=w, h=0, u=w, v=0, i=1, j=1, eps1=1, eps2=1, eps3=1),
        dict(k=k, r=r, g=w, h=0, u=max(w - 1, 1), v=w - max(w - 1, 1), i=1, j=1,
             eps1=-1, eps2=-1, eps3=1),
        dict(k=k, r=r, g=w + 1, h=w - 1, u=2 * w, v=0, i=3, j=1,
             eps1=1, eps2=1, eps3=-1),
        dict(k=k, r=r, g=w, h=w, u=w, v=w, i=2, j=2, eps1=-1, eps2=1, eps3=1),
    ]
    return rows


def grid_pairs(k: int, r: int) -> list[dict]:
    w = r * (k - r)
    return [
        dict(k=k, r=r, s=w, t=w, i=1, j=1, eps=1),
        dict(k=k, r=r, s=2 * w - 1, t=1, i=2, j=0, eps=-1),
        dict(k=k, r=r, s=3 * w, t=w, i=3, j=1, eps=-1),
    ]


def build_identities() -> dict:
    entries = []
    for name, params in NAMED_TRIPLES:
        p = TripleParams(**params)
        assert not validate_triple(p), (name, validate_triple(p))
        entries.append({
            "id": f"thm1.{name}",
            "kind": "thm1",
            "params": params,
            "citation": f"triple-product setting behind relation group {name}",
        })
    for (k, r) in GRID_PAIRS:
        for idx, params in enumerate(grid_triples(k, r), start=1):
            p = TripleParams(**params)
            assert not validate_triple(p), (k, r, idx, validate_triple(p))
            entries.append({
                "id": f"thm1.k{k}r{r}.{idx}",
                "kind": "thm1",
                "params": params,
                "citation": f"triple-product decomposition at k={k}, r={r}",
            })
        for idx, params in enumerate(grid_pairs(k, r), start=1):
            p = PairParams(**params)
            assert not validate_pair(p), (k, r, idx, validate_pair(p))
            entries.append({
                "id": f"thm2.k{k}r{r}.{idx}",
                "kind": "thm2",
                "params": params,
                "citation": f"two-theta decomposition at k={k}, r={r}",
            })
    # the k=2 settings quoted with the count theorems
    entries.append({
        "id": "thm2.k2r1.s2t0", "kind": "thm2",
        "params": dict(k=2, r=1, s=2, t=0, i=1, j=1, eps=1),
        "citation": "two-theta decomposition with a unit argument",
    })
    entries.append({
        "id": "thm2.k2r1.zero", "kind": "thm2",
        "params": dict(k=2, r=1, s=1, t=1, i=2, j=0, eps=-1),
        "citation": "two-theta decomposition with a vanishing side",
    })
    for cid in ("cor1", "cor2", "cor3", "cor4"):
        for (k, r) in GRID_PAIRS:
            entries.append({
                "id": f"{cid}.k{k}r{r}",
                "kind": "corollary",
                "params": {"id": cid, "k": k, "r": r},
                "citation": f"{cid} at k={k}, r={r}",
            })
    for i in range(1, 9):
        for m in range(1, 7):
            cid = f"clp2.{i}"
            signed_pair_params(cid, m)  # validates
            entries.append({
                "id": f"{cid}.m{m}",
                "kind": "corollary",
                "params": {"id": cid, "m": m},
                "citation": f"signed two-theta identity {i} at m={m}",
            })
    return {"identities": entries}


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    print("verifying relation statements to N <=", PIN_BOUND)
    relations = build_relations()
    pinned = sum(1 for x in relations["relations"] if x["status"] == "pinned")
    print(f"relations: {len(relations['relations'])} total, {pinned} pinned")
    (DATA / "relations.json").write_text(json.dumps(relations, indent=1) + "\n")
    identities = build_identities()
    print(f"identities: {len(identities['identities'])} entries")
    (DATA / "identities.json").write_text(json.dumps(identities, indent=1) + "\n")


if __name__ == "__main__":
    main()
