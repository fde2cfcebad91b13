"""Re-record the golden CLI bytes of ``tests/fixtures/cli_golden.json``.

Reruns every case in-process under its own dense cap and captures stdout,
stderr and the exit code, as ``test_cli.test_golden_bytes`` compares them.
The file is rewritten only if every case keeps its exit code, its stderr and
all of its non-numeric text, and moves no number by more than 1e-12
relative; otherwise nothing is written and the exit code is 1.  Each moved
case is reported with how many numbers moved, the largest relative move, and
the old and new text of its first five moved numbers.

    PYTHONPATH=src python tests/record_golden.py

pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from decimal import Decimal
from pathlib import Path

GOLDEN = Path(__file__).parent / "fixtures" / "cli_golden.json"
MAX_MOVE = 1e-12
# a number starts where no word does: the 15 of "cor15" is text
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def run_case(case: dict) -> dict:
    """The case rerun: its argv and cap, with the exit code and output now."""
    from treecut.cli import main

    if case["cap"] is None:
        os.environ.pop("TREECUT_MAX_VERTICES", None)
    else:
        os.environ["TREECUT_MAX_VERTICES"] = case["cap"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case["argv"])
    return dict(case, code=code, stdout=out.getvalue(), stderr=err.getvalue())


def numeric_moves(old: str, new: str) -> list[tuple[str, str, float]]:
    """``(old text, new text, relative move)`` of every number of ``old``
    whose text differs at its place in ``new``; ``ValueError`` if the text
    around the numbers differs."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        raise ValueError("non-numeric text changed")
    moves = []
    for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)):
        if a != b:
            x, y = Decimal(a), Decimal(b)  # exact, whatever the digit count
            moves.append((a, b, float(abs(x - y) / max(abs(x), abs(y))) if x != y else 0.0))
    return moves


def compare(old: dict, new: dict) -> list[tuple[str, str, float]]:
    """The moves of one case's stdout; ``ValueError`` on any other change."""
    if new["code"] != old["code"]:
        raise ValueError(f"exit code {old['code']} -> {new['code']}")
    if new["stderr"] != old["stderr"]:
        raise ValueError("stderr changed")
    return numeric_moves(old["stdout"], new["stdout"])


def main() -> int:
    cases = json.loads(GOLDEN.read_text("ascii"))
    fresh, refused, moved = [], 0, 0
    for case in cases:
        new = run_case(case)
        fresh.append(new)
        label = f"cap{case['cap']} {' '.join(case['argv'])}"
        try:
            moves = compare(case, new)
        except ValueError as exc:
            print(f"REFUSED {label}: {exc}")
            refused += 1
            continue
        if moves:
            moved += 1
            largest = max(move for _, _, move in moves)
            ok = largest <= MAX_MOVE
            refused += not ok
            print(f"{'moved' if ok else 'REFUSED'} {label}: {len(moves)} numbers, "
                  f"largest relative move {largest:.2g}")
            for a, b, _ in moves[:5]:
                print(f"    {a} -> {b}")
    print(f"{len(cases)} cases, {moved} moved, {refused} refused")
    if refused:
        return 1
    if moved:
        GOLDEN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n", "ascii")
        print(f"rewrote {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
