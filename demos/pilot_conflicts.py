"""Conflict graph and capacitated coloring on a single drop.

Cluster overlap forces distinct pilots; the reuse cap additionally limits
how many users may sit on one pilot even when their clusters are disjoint.
"""

import numpy as np

from ucran import (
    SimConfig,
    build_base_graph,
    build_network,
    dsatur_color,
    interference_matrix,
    validate_assignment,
)

config = SimConfig()
instance = build_network(config, seed=3)

graph = build_base_graph(instance.clusters)
degrees = graph.adjacency.sum(axis=1)
print(f"conflict graph: {graph.adjacency.sum() // 2} edges, "
      f"max degree {degrees.max()}, mean degree {degrees.mean():.1f}")

assignment = dsatur_color(graph, config.reuse_cap)
print(f"capacitated coloring: {assignment.num_pilots} pilots "
      f"for {config.num_users} users (cap {config.reuse_cap} per pilot)")
for pilot in range(assignment.num_pilots):
    print(f"  pilot {pilot}: users {np.flatnonzero(assignment.pilots == pilot).tolist()}")
validate_assignment(graph, assignment, config.reuse_cap)

# pairwise weights say how bad sharing a pilot would be
weights = interference_matrix(instance.alpha, instance.clusters)
off = weights[~np.eye(config.num_users, dtype=bool)]
print(f"\npairwise pilot-interference weights: "
      f"median {np.median(off):.4f}, max {off.max():.4f}")
worst = np.unravel_index(np.argmax(weights), weights.shape)
pair = (int(worst[0]), int(worst[1]))
print(f"worst pair {pair}: weight {weights[worst]:.4f}, "
      f"conflict edge already present: {bool(graph.adjacency[worst])}")
