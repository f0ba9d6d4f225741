"""Record the field-search ledger: the modulus and pi that build_field picks.

One JSON line per (p, m, modulus_index, primitive_index) in
tests/golden/field_searches.jsonl, with the modulus as its ascending
coefficients and pi as its code.  tests/test_gf.py replays every line, so
a change to the irreducible or the primitive search that picks another
modulus or another pi fails there.  The points are every (p, m) with p in
{3, 5, 7, 11, 13} and p**m <= 3**10, and the wide points WIDE, each at
modulus indices 0-2 and primitive indices 0-1.  An index past the count of
irreducibles or of primitive elements is recorded as the refusal's message.

    PYTHONPATH=src python tests/record_field_searches.py

pytest does not collect this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parent / "golden" / "field_searches.jsonl"

# Past 3**10: the widest coefficient (p = 2097143) and points near the table
# budget of 2**21 elements at every m from 1 to 13.
WIDE = [(2097143, 1), (1447, 2), (127, 3), (7, 7), (5, 9), (3, 13)]


def points() -> list[tuple[int, int]]:
    small = [(p, m) for p in (3, 5, 7, 11, 13) for m in range(1, 11) if p**m <= 3**10]
    return small + [point for point in WIDE if point not in small]


def rows() -> list[dict]:
    return [
        {"p": p, "m": m, "modulus_index": i, "primitive_index": j, **search(p, m, i, j)}
        for p, m in points()
        for i in range(3)
        for j in range(2)
    ]


def search(p: int, m: int, modulus_index: int, primitive_index: int) -> dict:
    """The modulus coefficients and pi that build_field picks, or its refusal."""
    from twozero import build_field
    from twozero.errors import ParameterError

    try:
        field = build_field(p, m, modulus_index=modulus_index, primitive_index=primitive_index)
    except ParameterError as exc:
        return {"refused": str(exc)}
    return {"modulus": list(field.modulus.coeffs), "primitive": field.primitive_element}


def main() -> int:
    lines = [json.dumps(row, separators=(", ", ": ")) for row in rows()]
    LEDGER.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"recorded {len(lines)} field searches in {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
