#!/usr/bin/env python3
"""Run one benchmark workload in two checkouts, in alternating pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 30] [--seed 101]

Pair i (from 1) runs ``bench/run.py --workload W --seed S --seconds T
--trace 0`` in each checkout, with S = seed + i - 1 and
``PYTHONDONTWRITEBYTECODE=1``: odd pairs run PARENT first, even pairs CHANGE
first.  It prints every pair, then for each end-to-end metric of CHANGE's
``BENCHMARK.json`` the q1/median/q3 of both sides, the number of pairs the
change won, the relative change of the medians (change / parent - 1) and
the median of the per-pair ratios change / parent.  It refuses to start
(exit 2) if either checkout has a ``__pycache__`` under ``src/``, since
stale bytecode skews ``setup_s``, and exits 1 if any run fails, is not
``correct`` or has failed checks.  Before the pairs it prints the line
count of each checkout's ``src/`` Python files and the net change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``bench/run.py`` run, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{checkout}: bench/run.py exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under the checkout's ``src/``."""
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src").rglob("*.py"))


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, checkout in sides.items():
        if not (checkout / "bench" / "run.py").is_file():
            print(f"error: {name} {checkout} has no bench/run.py", file=sys.stderr)
            return 2
        stale = sorted((checkout / "src").rglob("__pycache__"))
        if stale:
            print(f"error: {name} has bytecode caches, e.g. {stale[0]}; remove them "
                  "first", file=sys.stderr)
            return 2
    lines = {name: src_lines(checkout) for name, checkout in sides.items()}
    print(f"src/ lines: parent {lines['parent']}, change {lines['change']}, "
          f"net {lines['change'] - lines['parent']:+d}", flush=True)
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = {"parent": [], "change": []}
    bad = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            result = run_once(sides[name], args.workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                bad += 1
                print(f"pair {i + 1}: {name} run not correct "
                      f"({result['failed']} of {result['attempted']} checks failed)")
            runs[name].append({k: v["value"] for k, v in result["metrics"].items()})
        cells = [f"{k} {runs['parent'][-1][k]:.6g}/{runs['change'][-1][k]:.6g}"
                 for k in better]
        print(f"pair {i + 1} seed {seed} {order[0]} first: " + "  ".join(cells), flush=True)

    print(f"{args.workload}: q1/median/q3 parent vs change over {args.pairs} pairs")
    for metric, direction in better.items():
        old = [r[metric] for r in runs["parent"]]
        new = [r[metric] for r in runs["change"]]
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        moved = statistics.median(new) / statistics.median(old) - 1
        ratio = statistics.median(b / a for a, b in zip(old, new))
        print(f"  {metric:12s} " + "/".join(f"{q:.6g}" for q in quartiles(old)) + " vs "
              + "/".join(f"{q:.6g}" for q in quartiles(new))
              + f"  change {direction} in {won}/{args.pairs}"
              + f"  medians {moved:+.2%}  pair ratio median {ratio:.4f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
