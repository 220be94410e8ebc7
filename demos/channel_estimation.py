"""Pilot contamination in numbers.

Two users on one pilot: each one's estimate at a shared observation soaks
up the other's channel. More pilot power does not help past the floor, the
residual error saturates at half the link gain for equal-gain users.
"""

import numpy as np

from ucran import PilotAssignment, link_channels, mmse_estimate, simulate_pilot_rx

noise = 0.1
gain = 1.0
draws = 40_000

# batch the realizations along the RRH axis: one call, many i.i.d. copies;
# every RRH is in both users' clusters, so every observation is read and
# y[k, i] and estimates[k, i] are link (i, k)
alpha = np.tile([[gain, gain]], (draws, 1))
clusters = np.array([np.arange(draws), np.arange(draws)])
shared = PilotAssignment(pilots=[0, 0])
orthogonal = PilotAssignment(pilots=[0, 1])

print("pilot power | residual error, shared pilot | orthogonal pilots")
for power in (0.5, 2.0, 8.0, 32.0, 128.0, 512.0):
    # seed 0's channels and pilot noise, the same links in both runs
    y = simulate_pilot_rx(0, alpha, 1, shared, clusters, power, noise)
    _, err_shared = mmse_estimate(y, alpha, shared, clusters, power, noise)

    y = simulate_pilot_rx(0, alpha, 1, orthogonal, clusters, power, noise)
    _, err_clean = mmse_estimate(y, alpha, orthogonal, clusters, power, noise)

    print(f"{power:11.1f} | {err_shared[0, 0]:28.4f} | {err_clean[0, 0]:.6f}")

print(f"\ncontamination floor for equal gains: alpha/2 = {gain / 2}")

# the analytic error is also what the realizations show
power = 8.0
h = link_channels(1, alpha, 1, np.arange(draws), 0)    # user 0's link at every RRH
y = simulate_pilot_rx(1, alpha, 1, shared, clusters, power, noise)
estimates, err = mmse_estimate(y, alpha, shared, clusters, power, noise)
empirical = float((np.abs(h - estimates[0]) ** 2).mean())
print(f"empirical MSE over {draws} draws: {empirical:.4f} "
      f"vs analytic {err[0, 0]:.4f}")
