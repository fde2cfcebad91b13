"""Finite-size cutoff diagnostics evaluated over tree families.

The asymptotic comparisons behind the cutoff criteria (same order,
negligible, dominant) are operationalized as least-squares slopes of
log(quotient) against log(vertex count) across a family sweep, with a
configurable threshold (default 0.05) and at least four sizes before a
verdict is issued.  Every verdict carries its slope and R^2 and is labeled
"diagnostic": these are trend readings, not proofs.

A sweep generates each family member, computes the combinatorial load
quantities, and adds the exact relaxation and mixing times wherever
``mixing._modes``, the one chooser of the solver path, serves the tree;
members it refuses (above the dense cap) carry certified bound pairs
instead and are labeled "bounded".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (DegenerateInputError, ResourceLimitError, ValidationError,
                     _check_array, _check_count, _check_real)
from .generate import (OffspringDistribution, _check_size, _conditioned_tree,
                       binary_of_size, cor15_tree, gw_survival_truncated,
                       gw_tree, kesten_tree, peres_sousi, segment,
                       spherically_symmetric)
from .mixing import _check_epsilon, _gap, _modes, mixing_lower_bounds, mixing_time
from .rng import derive_seed
from .spectral import _upper_bounds, hardy_lower
from .tree import (RootedTree, compute_metrics, max_edge_load, max_path_load,
                   root_path, tail_profile)

__all__ = [
    "TrendFit", "Diagnostic", "FamilyRow", "FamilyReport", "RetractionReport",
    "fit_loglog", "no_cutoff_check", "tail_cutoff_check",
    "retraction_report", "retraction_trend", "retraction_alpha",
    "analyze_tree", "sweep", "FAMILIES",
]

SLOPE_THRESHOLD = 0.05
MIN_TREND_POINTS = 4


class TrendFit(NamedTuple):
    slope: float
    intercept: float
    r2: float
    points: int


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> TrendFit:
    """Least-squares slope of log(y) against log(x), all finite and positive."""
    xs = _check_array(xs, "x values", low=0, ends="()")
    ys = _check_array(ys, "y values", low=0, ends="()")
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValidationError("need at least two (x, y) pairs")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return TrendFit(float(slope), float(intercept), r2, len(xs))


class Diagnostic(NamedTuple):
    quotient: str
    verdict: str
    fit: Optional[TrendFit]
    threshold: float
    values: tuple


@dataclass(frozen=True, kw_only=True)  # not a tuple: read by fields() and asdict()
class FamilyRow:
    """One family member: combinatorial loads plus exact or bounded times.

    Exact rows carry t_rel, t_mix(epsilon) and their ratio.  Bounded rows
    (trees that ``mixing._modes`` refuses, above the dense cap) carry the
    certified pair instead: t_rel between
    ``t_rel_lower`` and ``t_rel_upper``, and ``t_mix_lower`` bounding the
    mixing time at target level min(epsilon, delta)/2 from below (no
    numeric upper bound on mixing exists without a universal constant).
    The fields are in the column order of ``treecut sweep --format csv``.
    """

    n: float
    sites: float
    mode: str                      # "exact" or "bounded"
    t_rel: Optional[float] = None
    t_mix: Optional[float] = None
    ratio: Optional[float] = None
    t_rel_lower: Optional[float] = None
    t_rel_upper: Optional[float] = None
    t_mix_lower: Optional[float] = None
    max_edge_load: float
    max_path_load: float
    tail_max: float
    max_degree: float
    delta: float


class FamilyReport(NamedTuple):
    family: str
    epsilon: float
    rows: List[FamilyRow]
    trends: dict


def analyze_tree(tree: RootedTree, epsilon: float, size_label: float) -> FamilyRow:
    """Row for one tree: exact times where ``mixing._modes`` serves it,
    bounds where it refuses.

    t_rel comes from what ``mixing_time`` searches on (orbit quotients on
    symmetric trees, bottom eigenpairs from ``mixing.PARTIAL_MIN_VERTICES``
    vertices on, and on tall trees from ``mixing.TALL_MIN_VERTICES``).  The
    refusal is read before ``mixing_time``, which answers 0 at
    epsilon >= 1 - 1/n without asking the chooser.  Bounded
    rows compute no gap; their ``t_mix_lower`` is the hitting bound of
    ``mixing_lower_bounds`` at min(epsilon, delta), on the split that the
    Hardy lower bound already made.
    ``ValidationError`` unless 1e-8 <= epsilon < 1 (``mixing._check_epsilon``).
    """
    epsilon = _check_epsilon(epsilon)
    size_label = _check_real(size_label, "size label", 0, ends="[)")
    metrics = compute_metrics(tree)
    lower = hardy_lower(tree)
    base = dict(
        n=size_label, sites=float(tree.n),
        max_degree=float(metrics.max_degree),
        max_edge_load=float(max_edge_load(metrics).value),
        max_path_load=float(max_path_load(metrics).value),
        tail_max=float(tail_profile(metrics).value),
        delta=lower.delta,
    )
    upper = min(_upper_bounds(tree).values())
    if not isinstance(_modes(tree), ResourceLimitError):
        t_rel = 1.0 / _gap(tree)[0]
        t_mix = mixing_time(tree, epsilon).t_mix
        return FamilyRow(mode="exact", t_rel=t_rel, t_mix=t_mix,
                         ratio=t_mix / t_rel, t_rel_lower=lower.value,
                         t_rel_upper=upper, t_mix_lower=None, **base)
    hitting = mixing_lower_bounds(tree, min(epsilon, lower.delta)).hitting_bound
    return FamilyRow(mode="bounded", t_rel=None, t_mix=None, ratio=None,
                     t_rel_lower=lower.value, t_rel_upper=upper,
                     t_mix_lower=hitting, **base)


def _verdict_fit(rows: Sequence[FamilyRow], quotient: Callable[[FamilyRow], float],
                 name: str, threshold: float, direction: str) -> Diagnostic:
    threshold = _check_real(threshold, "threshold", 0, ends="()")
    values = tuple(quotient(r) for r in rows)
    if len(rows) < MIN_TREND_POINTS:
        return Diagnostic(name, "insufficient data (diagnostic)", None,
                          threshold, values)
    fit = fit_loglog([r.sites for r in rows], values)
    if direction == "flat":
        ok = abs(fit.slope) < threshold
        verdict = "consistent with no cutoff (diagnostic)" if ok \
            else "inconclusive (diagnostic)"
    else:  # "down": quotient should vanish
        ok = fit.slope <= -threshold
        verdict = "cutoff predicted (diagnostic)" if ok \
            else "not indicated (diagnostic)"
    return Diagnostic(name, verdict, fit, threshold, values)


def no_cutoff_check(rows: Sequence[FamilyRow],
                    threshold: float = SLOPE_THRESHOLD) -> Diagnostic:
    """Flat max_path_load / max_edge_load across the family rules out cutoff."""
    return _verdict_fit(rows, lambda r: r.max_path_load / r.max_edge_load,
                        "max_path_load/max_edge_load", threshold, "flat")


def tail_cutoff_check(rows: Sequence[FamilyRow],
                      threshold: float = SLOPE_THRESHOLD) -> Diagnostic:
    """Vanishing max_degree * tail_max / max_path_load predicts cutoff."""
    return _verdict_fit(rows,
                        lambda r: r.max_degree * r.tail_max / r.max_path_load,
                        "max_degree*tail_max/max_path_load", threshold, "down")


class RetractionReport(NamedTuple):
    """Load comparators of one candidate deep vertex against the whole tree."""

    path_sum: float            # sum of subtree sizes along the root path of v*
    max_path_load: float
    sites: float
    max_edge_on_path: float    # max depth*size over the root-path edges of v*


def retraction_report(tree: RootedTree, v_star: int) -> RetractionReport:
    metrics = compute_metrics(tree)
    path = root_path(tree, v_star)[1:]
    edge_loads = metrics.depth[path] * metrics.subtree_size[path]
    return RetractionReport(
        path_sum=float(metrics.path_load[v_star]),
        max_path_load=float(max_path_load(metrics).value),
        sites=float(tree.n),
        max_edge_on_path=float(edge_loads.max(initial=0)),
    )


def retraction_trend(reports: Sequence[RetractionReport],
                     threshold: float = SLOPE_THRESHOLD) -> dict:
    """Trend reading of the retraction-cutoff conditions over a family.

    Checks that the candidate path carries the maximal load (flat ratio),
    that the maximal load dominates the vertex count (rising ratio), and
    that the largest single edge load on the path is negligible against
    the maximal load (falling ratio).  All three together predict cutoff
    for the retracted family.
    """
    threshold = _check_real(threshold, "threshold", 0, ends="()")
    if len(reports) < MIN_TREND_POINTS:
        return {"verdict": "insufficient data (diagnostic)", "fits": {}}
    sites = [r.sites for r in reports]
    fits = {
        "path_carries_max": fit_loglog(sites, [r.path_sum / r.max_path_load
                                               for r in reports]),
        "load_dominates_sites": fit_loglog(sites, [r.max_path_load / r.sites
                                                   for r in reports]),
        "path_edge_negligible": fit_loglog(sites, [r.max_edge_on_path / r.max_path_load
                                                   for r in reports]),
    }
    ok = (abs(fits["path_carries_max"].slope) < threshold
          and fits["load_dominates_sites"].slope >= threshold
          and fits["path_edge_negligible"].slope <= -threshold)
    verdict = ("retraction cutoff predicted (diagnostic)" if ok
               else "not indicated (diagnostic)")
    return {"verdict": verdict, "fits": fits}


def retraction_alpha(tree: RootedTree, v: int) -> float:
    """Worst path-load-to-size ratio among the subtrees hanging off the
    spine, the root path of ``v``.

    For each edge leaving the spine, the hanging subtree R contributes
    max over u in R of the within-R path load divided by |R|; level-filled
    binary attachments stay at or below 2, length-L path attachments reach
    (L+1)/2.  Returns 1.0 when nothing hangs off the spine.
    """
    on_spine = np.zeros(tree.n, dtype=bool)
    on_spine[root_path(tree, v)] = True  # the root too, so its -1 is masked
    hanging = np.flatnonzero(on_spine[tree.parent] & ~on_spine)
    if not hanging.size:
        return 1.0
    metrics = compute_metrics(tree)
    # the hanging subtrees are disjoint: one ancestor_sum labels them all
    label = np.zeros(tree.n, dtype=np.int64)
    label[hanging] = np.arange(1, hanging.size + 1)
    label = _kernels.ancestor_sum(tree, label)
    top = np.zeros(hanging.size + 1, dtype=np.int64)  # top[0] takes the rest
    np.maximum.at(top, label, metrics.path_load)
    local_max = top[1:] - metrics.path_load[tree.parent[hanging]]
    return max(1.0, float((local_max / metrics.subtree_size[hanging]).max()))


# ---------------------------------------------------------------------------
# family sweeps
# ---------------------------------------------------------------------------

_RANDOM_FAMILIES = frozenset({"gw", "gw_survival", "gw_size", "kesten"})
FAMILIES = frozenset({"segment", "star", "binary", "ssym_binary", "cor15",
                      "peres_sousi"}) | _RANDOM_FAMILIES


def _check_family(family: str, seed: Optional[int],
                  offspring: Optional[OffspringDistribution]) -> None:
    """The family is known, and a random one has a seed and an offspring law."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    if family in _RANDOM_FAMILIES and seed is None:
        raise ValidationError(f"family {family!r} is random and needs a seed")
    if family in _RANDOM_FAMILIES and offspring is None:
        raise ValidationError(f"family {family!r} needs an offspring distribution")


def _build_family_member(family: str, size: int, seed: Optional[int],
                         offspring: Optional[OffspringDistribution]) -> RootedTree:
    """Member ``size`` of ``family``, for ``sweep`` and the CLI alike;
    random families also read ``seed`` and ``offspring``."""
    _check_family(family, seed, offspring)
    if family == "segment":
        return segment(size)
    if family == "star":
        return spherically_symmetric([size])
    if family == "binary":
        return binary_of_size(size)
    if family == "ssym_binary":
        size = _check_count(size, "ssym_binary depth", 1)
        _check_size(2 ** (min(size, 62) + 1) - 1)  # before the degree list
        return spherically_symmetric([2] + [3] * (size - 1))
    if family == "cor15":
        return cor15_tree(size)
    if family == "peres_sousi":
        return peres_sousi(size)
    if family == "gw":
        return gw_tree(offspring, size, seed)
    if family == "gw_survival":
        return gw_survival_truncated(offspring, size, seed)
    if family == "gw_size":
        return _conditioned_tree(offspring, size, seed)[0]
    return kesten_tree(offspring, size, seed)


def _median_row(rows: Sequence[FamilyRow]) -> FamilyRow:
    """Per-field medians; ``n`` from the first row, exact if all rows are."""
    if len(rows) == 1:
        return rows[0]

    def med(name):
        vals = [getattr(r, name) for r in rows]
        if any(v is None for v in vals):
            return None
        return float(np.median(vals))

    medians = {f.name: med(f.name) for f in fields(FamilyRow)
               if f.name not in ("n", "mode")}
    mode = "exact" if all(r.mode == "exact" for r in rows) else "bounded"
    return FamilyRow(n=rows[0].n, mode=mode, **medians)


def _sweep_one(args):
    family, size, rep, eps, seed, offspring = args
    tree = _build_family_member(family, size, seed, offspring)
    if tree.n == 1:
        raise DegenerateInputError(
            f"sweep member {family!r} size {size} rep {rep} (stream seed {seed}) "
            "is a single vertex, which has no spectral gap")
    return analyze_tree(tree, eps, size_label=size)


def sweep(family: str, sizes: Sequence[int], epsilon: float = 0.25,
          seed: Optional[int] = None,
          offspring: Optional[OffspringDistribution] = None,
          reps: int = 1, jobs: int = 1,
          threshold: float = SLOPE_THRESHOLD) -> FamilyReport:
    """Generate, analyze, and aggregate a family across sizes.

    Random families require a seed; each (size, rep) draws from the stream
    ``derive_seed(seed, size, rep)``, so results do not depend on
    evaluation order and up to ``jobs`` workers, no more than the tasks or
    cores, can run concurrently.  With ``reps > 1`` each row reports the per-size median.
    """
    _check_family(family, seed, offspring)
    reps, jobs = _check_count(reps, "reps", 1), _check_count(jobs, "jobs", 1)
    epsilon = _check_epsilon(epsilon)
    threshold = _check_real(threshold, "threshold", 0, ends="()")
    sizes = sorted(_check_count(s, "size", 0) for s in sizes)
    if not sizes:
        raise ValidationError("need at least one size")

    tasks = [(family, size, rep, epsilon,
              derive_seed(seed, size, rep) if seed is not None else None, offspring)
             for size in sizes for rep in range(reps)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)  # each a spawned process
    if workers > 1:
        # spawn context: forking is unsafe once the OpenBLAS thread pool
        # has started in this process
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=mp.get_context("spawn")) as pool:
            flat = list(pool.map(_sweep_one, tasks))
    else:
        flat = [_sweep_one(t) for t in tasks]

    rows = [_median_row(flat[i:i + reps]) for i in range(0, len(flat), reps)]

    trends = {
        "no_cutoff": no_cutoff_check(rows, threshold),
        "tail_cutoff": tail_cutoff_check(rows, threshold),
    }
    exact = [r for r in rows if r.mode == "exact" and r.ratio is not None]
    if len(exact) >= 2:
        trends["product_ratio"] = fit_loglog([r.sites for r in exact],
                                             [r.ratio for r in exact])
    return FamilyReport(family=family, epsilon=epsilon, rows=rows, trends=trends)
