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

from .channel import build_channel_state, link_channels, mmse_estimate, simulate_pilot_rx
from .coloring import PilotAssignment, dsatur_color, validate_assignment
from .conflict_graph import build_base_graph, interference_matrix
from .harness import ALGORITHMS, run_campaign, run_trial, write_csv
from .stage1 import run_stage1
from .stage2 import admission_loop
from .topology import SimConfig, build_network, make_config, pairwise_distances

__version__ = "0.1.0"

# The names the README, the demos and the tests import from the package;
# everything else is imported from its submodule.
__all__ = [
    "ALGORITHMS",
    "PilotAssignment",
    "SimConfig",
    "admission_loop",
    "build_base_graph",
    "build_channel_state",
    "build_network",
    "dsatur_color",
    "interference_matrix",
    "link_channels",
    "make_config",
    "mmse_estimate",
    "pairwise_distances",
    "run_campaign",
    "run_stage1",
    "run_trial",
    "simulate_pilot_rx",
    "validate_assignment",
    "write_csv",
]
