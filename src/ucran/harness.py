"""Monte Carlo campaign runner: baselines, per-trial pipeline, aggregation
and CSV emission.

Seeds fan out as master_seed + j for j in range(num_seeds), and every
(cluster size, pilot budget, algorithm) cell reuses the same seed list, so
all algorithms and sweep points see identical placements, shadowing and
fading.  Algorithm-local randomness (random user picks in the baselines)
draws from its own stream and cannot shift the physics.
"""

from __future__ import annotations

import csv
import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import build_channel_state
from .coloring import PilotAssignment, dsatur_color, validate_assignment
from .conflict_graph import build_base_graph
from .stage1 import Stage1Result, run_stage1
from .stage1 import select_users_case1  # noqa: F401  (perfbench/spans.py wraps this name)
from .stage2 import AdmissionSolution, admission_loop
from .topology import NetworkInstance, STREAM_BASELINE, SimConfig, build_network, stream_rng

ALG_PROPOSED = "proposed"
ALG_ORTHO = "ortho"
ALG_NOCASE2 = "nocase2"
ALG_CON = "con"
ALG_PERFECT = "perfect"
ALGORITHMS = (ALG_PROPOSED, ALG_ORTHO, ALG_NOCASE2, ALG_CON, ALG_PERFECT)

CASE_ORTHO = "ortho"   # orthogonal baseline ignores the conflict graph

CSV_HEADER = ("algorithm", "L", "tau", "seed", "stage1_admitted", "stage2_served",
              "min_rate", "mean_rate", "max_rrh_power_mw", "case_taken", "colors_used")


@dataclass(frozen=True)
class TrialResult:
    algorithm: str
    cluster_size: int
    pilot_budget: int
    seed: int
    stage1_admitted: int
    stage2_served: int
    min_rate: float
    mean_rate: float
    max_rrh_power_mw: float
    case_taken: str
    colors_used: int
    runtime_s: float

    def csv_row(self) -> list:
        return [self.algorithm, self.cluster_size, self.pilot_budget, self.seed,
                self.stage1_admitted, self.stage2_served,
                f"{self.min_rate:.10g}", f"{self.mean_rate:.10g}",
                f"{self.max_rrh_power_mw:.10g}", self.case_taken, self.colors_used]


def baseline_ortho(instance: NetworkInstance, pilot_budget: int, seed: int) -> Stage1Result:
    """Orthogonal pilots for a random pick of min(budget, K) users."""
    num_users = instance.num_users
    count = min(pilot_budget, num_users)
    rng = stream_rng(seed, STREAM_BASELINE)
    chosen = np.sort(rng.choice(num_users, size=count, replace=False))
    assignment = PilotAssignment(
        pilot_of={int(k): t for t, k in enumerate(chosen)}, num_pilots=count)
    base_colors = dsatur_color(build_base_graph(instance.clusters),
                               reuse_cap=num_users).num_pilots
    return Stage1Result(admitted=chosen.astype(np.int64), assignment=assignment,
                        case_taken=CASE_ORTHO, removal_trace=(), threshold=None,
                        base_colors=base_colors)


def baseline_nocase2(instance: NetworkInstance, pilot_budget: int,
                     reuse_cap: int) -> Stage1Result:
    """Like the proposed stage 1, but an under-budget base coloring is kept
    as is instead of being spread over the spare pilots."""
    return run_stage1(instance, pilot_budget, reuse_cap, spread=False)


def baseline_con(instance: NetworkInstance, pilot_budget: int, reuse_cap: int,
                 seed: int) -> Stage1Result:
    """Conventional removal: over-budget colorings shed uniformly random
    users instead of the highest-conflict ones; otherwise as baseline_nocase2."""
    return run_stage1(instance, pilot_budget, reuse_cap, spread=False,
                      rng=stream_rng(seed, STREAM_BASELINE))


def audit_solution(solution: AdmissionSolution, config: SimConfig) -> list[str]:
    """Constraint check on a finished downlink solution; empty list = clean."""
    problems = []
    if solution.num_served == 0:
        return problems
    if (solution.rates < config.rate_req).any():
        problems.append(f"rate below requirement: min {solution.rates.min():.6f}")
    if (solution.per_rrh_power > config.rrh_power_cap).any():
        problems.append(f"per-RRH power cap exceeded: max {solution.per_rrh_power.max():.6f}")
    loads = np.zeros(config.num_rrhs, dtype=np.int64)
    for k in solution.served:
        loads[solution.serving_sets[int(k)]] += 1
    if (loads > config.fronthaul_cap).any():
        problems.append(f"fronthaul cap exceeded: max load {loads.max()}")
    norms = np.linalg.norm(solution.directions, axis=0)
    if (np.abs(norms - 1.0) > 1e-9).any():
        problems.append("beam directions are not unit norm")
    if (solution.powers < 0).any():
        problems.append("negative transmit power")
    return problems


def _stage1_for(algorithm: str, instance: NetworkInstance, config: SimConfig,
                seed: int) -> Stage1Result:
    if algorithm in (ALG_PROPOSED, ALG_PERFECT):
        return run_stage1(instance, config.pilot_count, config.reuse_cap)
    if algorithm == ALG_ORTHO:
        return baseline_ortho(instance, config.pilot_count, seed)
    if algorithm == ALG_NOCASE2:
        return baseline_nocase2(instance, config.pilot_count, config.reuse_cap)
    if algorithm == ALG_CON:
        return baseline_con(instance, config.pilot_count, config.reuse_cap, seed)
    raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def run_trial(config: SimConfig, seed: int, algorithm: str,
              return_details: bool = False):
    """Full pipeline for one seed: topology, stage 1, channels, stage 2.

    With ``return_details`` the stage results come back alongside the
    summary, for inspection and auditing.
    """
    start = time.perf_counter()
    instance = build_network(config, seed)
    s1 = _stage1_for(algorithm, instance, config, seed)

    # pilot validity on the base conflict graph is a hard guarantee:
    # co-clustered users must never share a pilot
    base = build_base_graph(instance.clusters, s1.admitted)
    validate_assignment(base, s1.assignment, config.reuse_cap)

    state = build_channel_state(instance, s1.assignment, config, seed,
                                perfect=(algorithm == ALG_PERFECT))
    solution = admission_loop(instance, s1, state, config)

    problems = audit_solution(solution, config)
    if problems:
        raise AssertionError(f"constraint audit failed (seed {seed}, {algorithm}): "
                             + "; ".join(problems))
    if not solution.num_served <= s1.num_admitted <= config.num_users:
        raise AssertionError("served/admitted counts are inconsistent")

    served = solution.num_served
    result = TrialResult(
        algorithm=algorithm,
        cluster_size=config.cluster_size,
        pilot_budget=config.pilot_count,
        seed=seed,
        stage1_admitted=s1.num_admitted,
        stage2_served=served,
        min_rate=float(solution.rates.min()) if served else 0.0,
        mean_rate=float(solution.rates.mean()) if served else 0.0,
        max_rrh_power_mw=float(solution.per_rrh_power.max()),
        case_taken=s1.case_taken,
        colors_used=s1.colors_used,
        runtime_s=time.perf_counter() - start,
    )
    if return_details:
        return result, s1, solution
    return result


@dataclass(frozen=True)
class CellStats:
    n: int
    mean_admitted: float
    mean_served: float


@dataclass(frozen=True)
class CampaignReport:
    cells: dict          # (algorithm, cluster_size, pilot_budget) -> CellStats
    trials: tuple        # TrialResult, in deterministic emission order
    seeds: tuple


def run_campaign(config: SimConfig, cluster_sizes, pilot_budgets,
                 algorithms=ALGORITHMS, num_seeds: int = 100,
                 out_csv=None) -> CampaignReport:
    """Sweep (algorithm, cluster size, pilot budget) over a shared seed list.

    Emits one CSV row per trial plus one aggregate row per cell (seed
    column set to "mean").  Deterministic for a fixed config.
    """
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    seeds = [config.master_seed + j for j in range(num_seeds)]
    trials: list[TrialResult] = []
    cells: dict[tuple, CellStats] = {}
    for algorithm in algorithms:
        for cluster_size in cluster_sizes:
            for pilot_budget in pilot_budgets:
                cfg = dataclasses.replace(config, cluster_size=cluster_size,
                                          pilot_count=pilot_budget)
                cell = [run_trial(cfg, seed, algorithm) for seed in seeds]
                trials.extend(cell)
                cells[(algorithm, cluster_size, pilot_budget)] = CellStats(
                    n=len(cell),
                    mean_admitted=float(np.mean([t.stage1_admitted for t in cell])),
                    mean_served=float(np.mean([t.stage2_served for t in cell])))
    report = CampaignReport(cells=cells, trials=tuple(trials), seeds=tuple(seeds))
    if out_csv is not None:
        write_csv(report, out_csv)
    return report


def write_csv(report: CampaignReport, out) -> None:
    """Trial rows in emission order, then one aggregate row per cell.

    ``out`` is a path or an open text stream.
    """
    if hasattr(out, "write"):
        _write_rows(report, out)
        return
    try:
        with Path(out).open("w", newline="") as fh:
            _write_rows(report, fh)
    except OSError as exc:
        raise OSError(f"failed to write CSV to {out}: {exc}") from exc


def _write_rows(report: CampaignReport, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for t in report.trials:
        writer.writerow(t.csv_row())
    for (algorithm, cluster_size, pilot_budget), stats in report.cells.items():
        writer.writerow([algorithm, cluster_size, pilot_budget, "mean",
                         f"{stats.mean_admitted:.10g}", f"{stats.mean_served:.10g}",
                         "", "", "", "", ""])
