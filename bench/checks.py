"""Output checks; every failed check counts toward ``failed`` (error_rate).

Two kinds of check run on the summary of each job:

* invariants the paper proves, which hold for every seed: the exact
  relaxation time sits between its certified bounds, the gap lies in the
  Hardy interval, the birth-and-death gap is a tree eigenvalue and its
  lift has a small residual, and the CLI ``bounds`` sandwich holds;
* agreement with the reference outputs in ``reference/``, recorded from
  the unmodified program at the default seed: integer loads, site counts,
  modes and verdict strings must match exactly, times to ``RTOL``.
  ``gw_reps`` draws its trees from the seed, so its reference applies to
  the first job at the default seed only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Optional, Tuple

from workloads import DEFAULT_SEED, SEEDED

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-6
SLACK = 1e-9        # relative slack on inequalities between computed floats
EIG_RTOL = 1e-9     # birth-and-death gap against the nearest tree eigenvalue
LIFT_TOL = 1e-8     # sup-norm residual of the lifted eigenfunction

EXACT_KEYS = frozenset({
    "n", "sites", "size", "mode", "method", "family", "trees", "trends",
    "max_edge_load", "max_path_load", "tail_max", "max_degree", "diameter",
    "root", "center", "depth_sum", "subtree_size_sum", "path_load_sum", "lengths",
})
CLOSE_KEYS = frozenset({"t_rel", "t_mix", "ratio", "t_rel_lower", "t_rel_upper",
                        "t_mix_lower", "bd_gap"})

Check = Tuple[str, bool]


def _le(a: float, b: float) -> bool:
    return a <= b + SLACK * max(abs(a), abs(b))


def _rows(name: str, report: dict, mode: str) -> List[Check]:
    out = []
    for row in report["rows"]:
        tag = f"{name}[n={row['n']:g}]"
        out.append((f"{tag}.mode", row["mode"] == mode))
        if mode == "exact":
            out.append((f"{tag}.t_rel_lower<=t_rel<=t_rel_upper",
                        _le(row["t_rel_lower"], row["t_rel"])
                        and _le(row["t_rel"], row["t_rel_upper"])))
        else:
            out.append((f"{tag}.t_rel_lower<=t_rel_upper",
                        _le(row["t_rel_lower"], row["t_rel_upper"])))
            out.append((f"{tag}.t_mix_lower>0", row["t_mix_lower"] > 0))
    return out


def invariants(workload: str, summary: dict) -> List[Check]:
    out: List[Check] = []
    if workload == "exact_families":
        for name, report in summary["families"].items():
            out += _rows(name, report, "exact")
        for m in summary["members"]:
            tag = f"{m['family']}[n={m['size']}]"
            lo, hi = m["hardy_interval"]
            out.append((f"{tag}.gap_in_hardy_interval", _le(lo, m["gap"]) and _le(m["gap"], hi)))
            if "bd_gap" in m:
                out.append((f"{tag}.bd_gap_is_tree_eigenvalue",
                            m["bd_gap_eig_rel_err"] <= EIG_RTOL))
                out.append((f"{tag}.lift_residual", m["lift_residual"] <= LIFT_TOL))
    elif workload == "gw_reps":
        report = summary["families"]["gw_size"]
        out += _rows("gw_size", report, "exact")
        out += [(f"gw_size[n={r['n']:g}].sites==n", r["sites"] == r["n"])
                for r in report["rows"]]
    elif workload == "large_bounds":
        for family, s in summary.items():
            b, m = s["bounds"], s["metrics"]
            upper = min(b["cor24"], b["cor25"], b["cor26"], b["tail32"])
            out.append((f"{family}.bounds.hardy_lower<=t_rel<=min_upper",
                        _le(b["hardy_lower"], b["t_rel"]) and _le(b["t_rel"], upper)))
            out.append((f"{family}.bounds.sites==metrics.sites", b["sites"] == m["sites"]))
            out.append((f"{family}.metrics.lengths", m["lengths"] == [m["sites"]]))
            # sum of subtree sizes counts each vertex once per ancestor-or-self
            out.append((f"{family}.metrics.subtree_size_sum",
                        m["subtree_size_sum"] == m["depth_sum"] + m["sites"]))
            out += _rows(f"{family}.sweep", s["sweep"], "bounded")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def against_reference(ref, got, path: str = "") -> List[Check]:
    """Compare the keys listed in EXACT_KEYS and CLOSE_KEYS, recursively."""
    out: List[Check] = []
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [(path or "summary", False)]
        for key, r in ref.items():
            here = f"{path}.{key}" if path else key
            g = got.get(key)
            if key in EXACT_KEYS:
                out.append((here, g == r))
            elif key in CLOSE_KEYS:
                out.append((here, _close(r, g)))
            elif isinstance(r, (dict, list)):
                out += against_reference(r, g, here)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [(f"{path}.length", False)]
        for i, (r, g) in enumerate(zip(ref, got)):
            out += against_reference(r, g, f"{path}[{i}]")
    return out


def _close(r: Optional[float], g: Optional[float]) -> bool:
    if r is None or g is None:
        return r is None and g is None
    return math.isclose(r, g, rel_tol=RTOL, abs_tol=0.0)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str):
    return json.loads(reference_path(workload).read_text(encoding="ascii"))


def reference_applies(workload: str, seed: int, k: int) -> bool:
    """Seeded workloads were recorded for job 0 at the default seed only."""
    return workload not in SEEDED or (seed == DEFAULT_SEED and k == 0)


def run_checks(workload: str, summary: dict, reference) -> List[Check]:
    checks = invariants(workload, summary)
    if reference is not None:
        checks += against_reference(reference, summary)
    return checks
