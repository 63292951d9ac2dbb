"""Rewrite the pinned command records under ``tests/data/``.

    python3 tools/pin_payloads.py [--out DIR]

Runs the commands of each pin in ``PINS`` through ``thetaq.cli.main`` in
this process with ``--format json``, and writes their records to
``DIR/<pin>.jsonl`` (by default ``tests/data/``), one per line with
sorted keys and without ``elapsed_ms``, the one field that is not a
function of the command.
``tests/test_payloads.py`` runs the same commands and names the first
record that differs from these files.  Rewrite them only for a change
that is meant to change a payload.  The package is imported from the
``src`` directory beside this one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from thetaq import cli  # noqa: E402

DATA = ROOT / "tests" / "data"

SIGNATURES = ("r", "T", "P", "G", "Rt", "Rp", "Rg", "Tp", "Tg", "rT", "rP", "rG",
              "pG", "tP", "tG", "Pg", "rtp", "rtg", "rpg", "tpg")

# pin name -> the commands whose records it holds, in order
PINS = {
    "verify-all": [["verify", "all"]],
    "verify-all-order1000": [["verify", "all", "--order", "1000", "--nmax", "20000",
                              "--scan-nmax", "200000"]],
    "expand": [["expand", "--name", name, "--order", "100"]
               for name in ("phi", "psi", "X", "Y")],
    "count-both": [["count", "--form", f"{sig}(1,2,3)", "--range", "0..40",
                    "--method", "both"] for sig in SIGNATURES],
    "scan": [["scan", "--form", "Rt(1,1,4)", "--modulus", "4", "--residue", "3",
              "--nmax", "10000"]],
}


def records(commands) -> list[str]:
    """The records of ``commands`` as pinned: one JSON line each, keys
    sorted, ``elapsed_ms`` left out.  Raises when a command exits nonzero."""
    lines = []
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--format", "json", *argv])
        if code != 0:
            raise RuntimeError(f"thetaq {' '.join(argv)} exited {code}")
        for line in out.getvalue().splitlines():
            record = json.loads(line)
            del record["elapsed_ms"]
            lines.append(json.dumps(record, sort_keys=True))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DATA, help="default: tests/data")
    out = parser.parse_args().out
    out.mkdir(parents=True, exist_ok=True)
    for name, commands in PINS.items():
        lines = records(commands)
        (out / f"{name}.jsonl").write_text("".join(line + "\n" for line in lines))
        print(f"{name}: {len(lines)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
