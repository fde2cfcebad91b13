"""Mixing times, relaxation times, and cutoff diagnostics for the
variable-speed simple random walk on finite rooted trees."""

from ._kernels import BACKEND
from .bdchain import BDChain, bd_spectrum, cs_lower_bound, lift, project
from .criteria import (FamilyReport, FamilyRow, fit_loglog, no_cutoff_check,
                       retraction_alpha, retraction_report, retraction_trend,
                       sweep, tail_cutoff_check)
from .generate import (Contour, OffspringDistribution, binary_of_size, contour,
                       cor15_tree, gw_conditioned_size, gw_survival_truncated,
                       gw_tree, hanging_sizes, kesten_tree, normalized_contour,
                       peres_sousi, retraction, segment, spherically_symmetric)
from .mixing import (HittingProfile, MixingResult, heat_kernel_tv,
                     hitting_profile, mixing_lower_bounds, mixing_time,
                     tv_curve, tv_from_start)
from .spectral import (Eigensystem, HardyCertificate, SpectrumResult,
                       bound_log_diameter, bound_path_load,
                       bound_summable_weights, bound_tail, bottom_pairs,
                       count_below, dense_cap, decompose, gap_iterative,
                       hardy_constant, hardy_interval, hardy_lower, laplacian,
                       nu_exact, retraction_weights, spectrum,
                       weighted_path_bound)
from .tree import (CenterOfMass, RootedTree, TreeMetrics, center_of_mass,
                   compute_metrics, from_parents, from_text, max_edge_load,
                   max_path_load, reroot, root_path, tail_profile, to_text)

__version__ = "0.1.0"
