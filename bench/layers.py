"""Per-layer metrics derived from the spans of one traced job.

Times named ``<fn>_s`` are inclusive times summed over outermost calls of
that function; ``*_self_s`` subtract the time of child spans.  Flop and
byte counts are computed from the vertex count each span recorded, not
measured by hardware counters:

* one worst-start TV evaluation forms P = W W^T with W n x n: 2 n^3 flop,
  3 * 8 n^2 bytes (two operand reads and one result write);
* one dense ``eigh`` with eigenvectors: 9 n^3 flop (Golub and Van Loan's
  count for the symmetric QR algorithm), 2 * 8 n^2 bytes (matrix in,
  eigenvectors out).

Every ratio is reported next to its base count.
"""

from __future__ import annotations

from spans import END, NAME, PARENT, SIZE, START, LAYERS, outermost, self_times_ns

GEN_RANDOM = ("generate.gw_tree", "generate.gw_survival_truncated",
              "generate.gw_conditioned_size", "generate.kesten_tree")
UPPER_BOUNDS = ("spectral.bound_log_diameter", "spectral.bound_summable_weights",
                "spectral.bound_path_load", "spectral.bound_tail")
LAYER_NAMES = tuple(LAYERS) + ("bench",)

# name -> (unit, better); the order is the report order
METRICS = {
    "mixing.mixing_time_s": ("s", "lower"),
    "mixing.tv_evals": ("count", "lower"),
    "mixing.tv_eval_ms": ("ms", "lower"),
    "mixing.tv_gemm_gflop_computed": ("Gflop", "lower"),
    "mixing.tv_gemm_gbyte_computed": ("GB", "lower"),
    "mixing.hitting_profile_s": ("s", "lower"),
    "spectral.eigh_s": ("s", "lower"),
    "spectral.eigh_calls": ("count", "lower"),
    "spectral.decompose_calls": ("count", "lower"),
    "spectral.decompose_hit_ratio": ("ratio", "higher"),
    "spectral.eigh_gflop_computed": ("Gflop", "lower"),
    "spectral.eigh_gbyte_computed": ("GB", "lower"),
    "spectral.hardy_interval_s": ("s", "lower"),
    "spectral.hardy_lower_s": ("s", "lower"),
    "spectral.upper_bounds_s": ("s", "lower"),
    "spectral.gap_iterative_s": ("s", "lower"),
    "spectral.lanczos_steps": ("count", "lower"),
    "tree.from_parents_s": ("s", "lower"),
    "tree.from_text_s": ("s", "lower"),
    "tree.compute_metrics_s": ("s", "lower"),
    "tree.center_of_mass_s": ("s", "lower"),
    "tree.reroot_s": ("s", "lower"),
    "tree.reroot_calls": ("count", "lower"),
    "kernels.tree_solve_s": ("s", "lower"),
    "kernels.tree_solve_calls": ("count", "lower"),
    "kernels.size_and_load_s": ("s", "lower"),
    "kernels.tv_from_kernel_s": ("s", "lower"),
    "generate.build_s": ("s", "lower"),
    "generate.attempts": ("count", "lower"),
    "generate.trees": ("count", "higher"),
    "generate.accept_ratio": ("ratio", "higher"),
    "bdchain.s": ("s", "lower"),
    "criteria.analyze_tree_self_s": ("s", "lower"),
    "cli.main_self_s": ("s", "lower"),
    **{f"layer.{name}.self_s": ("s", "lower") for name in LAYER_NAMES},
    **{f"layer.{name}.share": ("ratio", "lower") for name in LAYER_NAMES},
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def _dur(span) -> float:
    return (span[END] - span[START]) * 1e-9


def layer_metrics(spans, counters, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """Every metric in ``METRICS`` for one traced job, as plain numbers."""
    selfs = [t * 1e-9 for t in self_times_ns(spans)]

    def total(*names):
        return sum(map(_dur, outermost(spans, lambda nm: nm in names)))

    def self_of(name):
        return sum(t for s, t in zip(spans, selfs) if s[NAME] == name)

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    def children_of(parent_name, child_name):
        return [i for i, s in enumerate(spans) if s[NAME] == child_name
                and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent_name]

    m = {}
    tv = [s for s in spans if s[NAME] == "mixing.heat_kernel_tv"]
    m["mixing.mixing_time_s"] = total("mixing.mixing_time")
    m["mixing.tv_evals"] = len(tv)
    m["mixing.tv_eval_ms"] = 1e3 * sum(map(_dur, tv)) / len(tv) if tv else 0.0
    m["mixing.tv_gemm_gflop_computed"] = sum(2 * s[SIZE] ** 3 for s in tv) * 1e-9
    m["mixing.tv_gemm_gbyte_computed"] = sum(24 * s[SIZE] ** 2 for s in tv) * 1e-9
    m["mixing.hitting_profile_s"] = total("mixing.hitting_profile")

    # decompose builds the Laplacian only on a cache miss, right before eigh
    misses = {spans[i][PARENT] for i in children_of("spectral.decompose",
                                                    "spectral.laplacian")}
    decompose_calls = count("spectral.decompose")
    m["spectral.eigh_s"] = sum(selfs[i] for i in misses)
    m["spectral.eigh_calls"] = len(misses)
    m["spectral.decompose_calls"] = decompose_calls
    m["spectral.decompose_hit_ratio"] = (1.0 - len(misses) / decompose_calls
                                         if decompose_calls else 0.0)
    m["spectral.eigh_gflop_computed"] = sum(9 * spans[i][SIZE] ** 3 for i in misses) * 1e-9
    m["spectral.eigh_gbyte_computed"] = sum(16 * spans[i][SIZE] ** 2 for i in misses) * 1e-9
    m["spectral.hardy_interval_s"] = total("spectral.hardy_interval")
    m["spectral.hardy_lower_s"] = total("spectral.hardy_lower")
    m["spectral.upper_bounds_s"] = total(*UPPER_BOUNDS)
    m["spectral.gap_iterative_s"] = total("spectral.gap_iterative")
    m["spectral.lanczos_steps"] = len(children_of("spectral.gap_iterative",
                                                  "kernels.tree_solve"))

    for fn in ("from_parents", "from_text", "compute_metrics", "center_of_mass", "reroot"):
        m[f"tree.{fn}_s"] = total(f"tree.{fn}")
    m["tree.reroot_calls"] = count("tree.reroot")
    m["kernels.tree_solve_s"] = total("kernels.tree_solve")
    m["kernels.tree_solve_calls"] = count("kernels.tree_solve")
    m["kernels.size_and_load_s"] = total("kernels.size_and_load")
    m["kernels.tv_from_kernel_s"] = total("kernels.tv_from_kernel")

    attempts = counters.get("generate.attempts", 0)
    trees = len(outermost(spans, lambda nm: nm in GEN_RANDOM))
    m["generate.build_s"] = _layer_time(spans, "generate")
    m["generate.attempts"] = attempts
    m["generate.trees"] = trees
    m["generate.accept_ratio"] = trees / attempts if attempts else 0.0
    m["bdchain.s"] = _layer_time(spans, "bdchain")
    m["criteria.analyze_tree_self_s"] = self_of("criteria.analyze_tree")
    m["cli.main_self_s"] = self_of("cli.main")

    layer_self = dict.fromkeys(LAYER_NAMES, 0.0)
    for s, t in zip(spans, selfs):
        layer_self[s[NAME].split(".", 1)[0]] += t
    layer_self["bench"] = traced_wall_s - sum(_dur(s) for s in spans if s[PARENT] < 0)
    for name in LAYER_NAMES:
        m[f"layer.{name}.self_s"] = layer_self[name]
        m[f"layer.{name}.share"] = layer_self[name] / traced_wall_s
    m["trace.wall_s"] = traced_wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.overhead_share"] = (traced_wall_s - untraced_wall_s) / untraced_wall_s
    m["trace.spans"] = len(spans)
    return m


def _layer_time(spans, layer: str) -> float:
    """Time inside ``layer``: its spans that have no ancestor in it."""
    prefix = layer + "."
    return sum(map(_dur, outermost(spans, lambda nm: nm.startswith(prefix))))
