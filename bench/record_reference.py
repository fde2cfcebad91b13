#!/usr/bin/env python3
"""Record the reference outputs the checks compare against.

    python3 bench/record_reference.py [workload ...]

Runs one job of each named workload (all by default) at the default seed
and writes its summary to ``bench/reference/<workload>.json``.  Record from
a commit whose outputs are trusted; ``checks.py`` then holds every later
commit to them.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workdir = run.ROOT / ".bench_work" / f"reference-{name}"
        try:
            _, inputs = run.setup(name, workdir, workloads.DEFAULT_SEED)
            _, job, summarize = workloads.WORKLOADS[name]
            summary = summarize(job(inputs, 0))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failed = [c for c, ok in checks.invariants(name, summary) if not ok]
        if failed:
            print(f"{name}: invariants fail, not recorded: {failed}", file=sys.stderr)
            return 1
        path = checks.reference_path(name)
        path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                        encoding="ascii")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
