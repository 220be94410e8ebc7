"""One instance, three pilot budgets: the three branches of stage 1.

A tight budget sheds the most conflicted users, a matching budget keeps the
base coloring, and spare pilots get spent on extra interference separation.
"""

from ucran import SimConfig, build_network, run_stage1
from ucran.stage1 import base_coloring

config = SimConfig()
instance = build_network(config, seed=7)

for budget in (2, 3, 4, 6, 8, 12):
    result = run_stage1(instance, budget, config.reuse_cap)
    line = (f"budget {budget:2d}: case {result.case_taken:5s} "
            f"admitted {result.num_admitted:2d}/{config.num_users} "
            f"colors {result.colors_used}")
    if result.removal_trace:
        line += f" removed {list(result.removal_trace)}"
    if result.threshold is not None:
        line += f" spread threshold {result.threshold:.4f}"
    print(line)

# the removal order is greedy on conflict degree, so early victims sit in
# the thickest part of the graph
tight = run_stage1(instance, 2, config.reuse_cap)
needed = base_coloring(instance, config.reuse_cap).num_pilots
print(f"\nbase coloring needs {needed} pilots; "
      f"with only 2, stage 1 removed {len(tight.removal_trace)} users")
