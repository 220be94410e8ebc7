"""Stage 2 on one drop: who actually gets served, and at what cost.

Pilot holders from stage 1 enter the admission loop; the fronthaul cap
prunes serving sets, beams are matched to the estimated channels with
error loading, and the power fixed point either meets the rate target or
names the next user to drop.
"""

import numpy as np

from ucran import SimConfig, admission_loop, build_channel_state, build_network, run_stage1

config = SimConfig()
instance = build_network(config, seed=11)

s1 = run_stage1(instance, config.pilot_count, config.reuse_cap)
print(f"stage 1: {s1.num_admitted} pilot holders ({s1.case_taken}), "
      f"{s1.colors_used} pilots in use")

# the fading and pilot noise are those of the seed the network was built from
state = build_channel_state(instance, s1.assignment, config)
solution = admission_loop(instance, s1, state, config)

print(f"stage 2: {solution.num_served} of {s1.num_admitted} served "
      f"at >= {config.rate_req} bit/s/Hz")
if solution.removal_trace:
    print(f"dropped along the way: {list(solution.removal_trace)}")

print(f"\nrate lower bounds: min {solution.rates.min():.3f}, "
      f"max {solution.rates.max():.3f}")
print(f"transmit powers (mW): min {solution.powers.min():.3f}, "
      f"max {solution.powers.max():.3f}, total {solution.powers.sum():.1f}")
print(f"per-RRH power (cap {config.rrh_power_cap:.0f} mW): "
      f"max {solution.per_rrh_power.max():.2f}")

beams = solution.beams
loads = np.bincount(beams.rrhs[beams.valid], minlength=beams.num_rrhs)
print(f"fronthaul loads (cap {config.fronthaul_cap}): max {loads.max()}, "
      f"busy RRHs {(loads > 0).sum()}")

# perfect estimates at the same fading: the admission headroom grows
perfect = build_channel_state(instance, s1.assignment, config, perfect=True)
ideal = admission_loop(instance, s1, perfect, config)
print(f"\nsame drop with perfect intra-cluster CSI: {ideal.num_served} served")
