"""Two-stage resource allocation simulator for ultra-dense user-centric
C-RAN downlinks.

Stage 1 picks users and pilots under a pilot budget and per-pilot reuse
cap, working on a cluster-overlap conflict graph with interference-aware
tie-breaking.  Stage 2 designs robust beams from the contaminated channel
estimates, allocates powers by fixed-point iteration under per-RRH caps
and a fronthaul served-user limit, and greedily admits users whose rate
lower bound clears the requirement.  The harness sweeps cluster size and
pilot budget over shared seeds and emits CSV campaigns.
"""

from .channel import (
    ChannelState,
    build_channel_state,
    draw_channels,
    mmse_estimate,
    perfect_csi,
    simulate_pilot_rx,
)
from .coloring import PilotAssignment, dsatur_color, validate_assignment
from .conflict_graph import (
    ConflictGraph,
    build_base_graph,
    build_thresholded_graph,
    interference_matrix,
    interference_score,
    vertex_degrees,
)
from .harness import (
    ALGORITHMS,
    CSV_HEADER,
    CampaignReport,
    TrialResult,
    audit_solution,
    baseline_con,
    baseline_nocase2,
    baseline_ortho,
    run_campaign,
    run_trial,
    write_csv,
)
from .stage1 import Stage1Result, run_stage1
from .stage2 import (
    AdmissionSolution,
    PowerControlResult,
    admission_loop,
    enforce_fronthaul_cap,
    expected_rate_lb,
    power_allocation_fixed_point,
    rate_coefficients,
    robust_beam_direction,
    rrh_power_share,
)
from .topology import (
    NetworkInstance,
    SimConfig,
    build_clusters,
    build_network,
    compute_large_scale,
    generate_topology,
    load_config_file,
    make_config,
    pairwise_distances,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AdmissionSolution",
    "CSV_HEADER",
    "CampaignReport",
    "ChannelState",
    "ConflictGraph",
    "NetworkInstance",
    "PilotAssignment",
    "PowerControlResult",
    "SimConfig",
    "Stage1Result",
    "TrialResult",
    "admission_loop",
    "audit_solution",
    "baseline_con",
    "baseline_nocase2",
    "baseline_ortho",
    "build_channel_state",
    "build_clusters",
    "build_network",
    "build_base_graph",
    "build_thresholded_graph",
    "compute_large_scale",
    "draw_channels",
    "dsatur_color",
    "enforce_fronthaul_cap",
    "expected_rate_lb",
    "generate_topology",
    "interference_matrix",
    "interference_score",
    "load_config_file",
    "make_config",
    "mmse_estimate",
    "pairwise_distances",
    "perfect_csi",
    "power_allocation_fixed_point",
    "rate_coefficients",
    "robust_beam_direction",
    "rrh_power_share",
    "run_campaign",
    "run_stage1",
    "run_trial",
    "simulate_pilot_rx",
    "validate_assignment",
    "vertex_degrees",
    "write_csv",
]
