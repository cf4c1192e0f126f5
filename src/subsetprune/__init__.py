"""Structured pruning of random convolutional stacks via approximate subset sums,
with a Monte Carlo harness that verifies the underlying probability bounds."""

from .errors import BudgetError, ParameterError, ShapeError, StructureError
from .tensors import (
    FeatureMap,
    Tensor4,
    conv,
    neg_part,
    norm_l1,
    norm_max,
    pos_part,
    relu,
)
from .sampling import (
    NsnEnsemble,
    SeedSpec,
    sample_normal_tensor,
    sample_nsn,
    sample_uniform,
    sample_uniform_map,
    standard_normals,
)
from .solvers import (
    CardinalityMode,
    SearchOutcome,
    SolverParams,
    Strategy,
    SubsetSolution,
    dimension_constant,
    search_subsets,
    solve_rssp_1d,
    subset_sum_number,
)
from .masks import (
    ChannelBlocked,
    Composite,
    FilterRemoval,
    Mask4,
    channel_blocked_mask,
    compose,
    filter_removal_mask,
    mask_from_bytes,
    mask_to_bytes,
    sign_split_mask,
    validate_structure,
)
from .pruning import (
    NetworkSpec,
    PruneParams,
    PruneReport,
    PrunedNetworkBundle,
    bundle_probe_error,
    composition_bound,
    default_k_budget,
    drop_relu_decompose,
    evaluate_network,
    load_bundle,
    make_probes,
    probe_error,
    prune_network,
    prune_random_layer,
    prune_single_layer,
    save_bundle,
    single_layer_output,
)
from .harness import (
    BoundCheckResult,
    BoundDirection,
    SecondMomentReport,
    check_chi_squared_tails,
    check_intersection_tail,
    check_joint_upper_bound,
    check_most_probable_interval,
    check_nsn_hit_lower_bound,
    check_second_moment_identity,
    scan_mrss_phase,
    scan_prune_success,
    scan_rssp_phase,
)

__version__ = "0.1.0"
