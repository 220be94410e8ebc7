"""The benchmark's campaign workloads.

A workload is one fixed campaign: a ``SimConfig`` override plus the
(algorithm, cluster size, pilot budget) sweep and the number of seeds per
pass.  The workload seed becomes ``SimConfig.master_seed``; trial ``j`` of
every cell then uses seed ``master_seed + j``, as in ``ucran campaign``.
Every field not overridden keeps its ``SimConfig`` default (700 m side,
reuse cap 4, fronthaul cap 3, 4 bit/s/Hz).

Pass sizes are chosen so that one pass takes a few seconds on a 2-core
host: a run of the benchmark repeats whole passes, so two passes always
fit and their CSVs can be compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL_ALGORITHMS = ("proposed", "ortho", "nocase2", "con", "perfect")
DENSE = {"num_rrhs": 324, "num_users": 216}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithms: tuple[str, ...]
    cluster_sizes: tuple[int, ...]
    pilot_budgets: tuple[int, ...]
    seeds_per_pass: int
    sim: dict = field(default_factory=dict)

    @property
    def trials_per_pass(self) -> int:
        return (len(self.algorithms) * len(self.cluster_sizes)
                * len(self.pilot_budgets) * self.seeds_per_pass)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="grid-default",
        why=("the paper's campaign at 36 RRHs/24 users: every stage-1 branch, "
             "~10 ms trials, stage 2 ~65% with a power-control tail"),
        algorithms=ALL_ALGORITHMS, cluster_sizes=(2, 4, 6), pilot_budgets=(4, 8),
        seeds_per_pass=20),
    Workload(
        name="dense-removal",
        why=("324 RRHs/216 users, tau 8: all case 1, stage 1 ~98% in ~185 "
             "recolor rounds, both victim policies"),
        algorithms=("proposed", "con"), cluster_sizes=(4,), pilot_budgets=(8,),
        seeds_per_pass=2, sim=DENSE),
    Workload(
        name="dense-admission",
        why=("324 RRHs/216 users, tau 64: case-2 spread probes in stage 1, "
             "stage 2 ~80% in ~57 admission rounds"),
        algorithms=("proposed",), cluster_sizes=(4,), pilot_budgets=(64,),
        seeds_per_pass=8, sim=DENSE),
    # not in BENCHMARK.json: a sub-second campaign for the benchmark's own tests
    Workload(
        name="smoke",
        why="tiny campaign for the benchmark's own tests",
        algorithms=("proposed", "con", "perfect"), cluster_sizes=(4,),
        pilot_budgets=(4, 8), seeds_per_pass=2),
)}
