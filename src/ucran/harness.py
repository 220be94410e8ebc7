"""Monte Carlo campaign runner: baselines, per-trial pipeline, aggregation
and CSV emission.

Seeds fan out as master_seed + j for j in range(num_seeds), and every
(cluster size, pilot budget, algorithm) cell reuses the same seed list, so
all algorithms and sweep points see identical placements, shadowing and
fading.  A network carries its seed; its baselines' random user picks read
their own stream of it (:func:`baseline_draws`) and cannot shift the physics.

A campaign runs its trials seed by seed, and every trial of a seed
shares that seed's work through one :class:`~ucran.topology.Memo`: per
cluster size one network, which keeps on its own memo what stage 1
derives from it (:mod:`ucran.stage1`), and one admission per input it
reads (cluster size, CSI mode and pilots).  The memo keeps no channel
state: an admission builds its own and drops it on return.  The
fading needs no memo: each channel state makes the links it reads as
the seed's keyed values there (:mod:`ucran.channel`), so every trial of
a seed reads the same value on a shared link.
Each trial calls stage 1 itself with its algorithm's flags, so
:func:`~ucran.stage1.run_stage1` alone decides its branch and case, and
two rows share an admission exactly when their pilots and CSI mode
agree.  Every row still runs its own pilot check and audit.  Rows still
come out cell by cell, and a failing trial stops the campaign at the
first failure in seed order.

Within a seed's memo, what each key's value reads (every other config
field is fixed for a campaign):

- ``("network", L)``: the seed, which the network carries, and L.  Its
  positions and ``alpha`` come from the placement and shadowing streams,
  which read no L (tested): every cluster size of a seed sees the same ones.
- ``("admission", L, perfect, pilots)``: that network, with its seed, the
  CSI mode and the pilots; stage 1's admitted users are the pilot holders and
  its pilot count is one more than the highest pilot, so nothing else of
  the stage-1 result is read.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import build_channel_state
from .coloring import PilotAssignment, validate_assignment
from .coloring import dsatur_color  # noqa: F401  (perfbench/spans.py wraps this name)
from .conflict_graph import build_base_graph  # noqa: F401  (perfbench/spans.py wraps this name)
from .stage1 import Stage1Result, base_graph, run_stage1
from .stage1 import select_users_case1  # noqa: F401  (perfbench/spans.py wraps this name)
from .stage2 import AdmissionSolution, admission_loop
from .topology import (Memo, NetworkInstance, STREAM_BASELINE, SimConfig, build_network,
                       check_integer, read_only, uniforms)

ALG_PROPOSED = "proposed"
ALG_ORTHO = "ortho"
ALG_NOCASE2 = "nocase2"
ALG_CON = "con"
ALG_PERFECT = "perfect"
ALGORITHMS = (ALG_PROPOSED, ALG_ORTHO, ALG_NOCASE2, ALG_CON, ALG_PERFECT)

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

    def csv_row(self) -> list:
        return [self.algorithm, self.cluster_size, self.pilot_budget, self.seed,
                self.stage1_admitted, self.stage2_served,
                f"{self.min_rate:.10g}", f"{self.mean_rate:.10g}",
                f"{self.max_rrh_power_mw:.10g}", self.case_taken, self.colors_used]


def baseline_draws(instance: NetworkInstance) -> np.ndarray:
    """One float in (0, 1) per user: u1 at counters 0..K-1 of the network's baseline stream."""
    return uniforms(instance.seed, STREAM_BASELINE, np.arange(instance.num_users))[0]


def baseline_ortho(instance: NetworkInstance, pilot_budget: int) -> Stage1Result:
    """Orthogonal pilots for the min(budget, K) users of least baseline draw.

    The pick ignores the conflict graph and reads no pilot-interference
    weight."""
    check_integer("pilot_budget", pilot_budget)
    num_users = instance.num_users
    count = min(pilot_budget, num_users)
    chosen = np.sort(np.argsort(baseline_draws(instance), kind="stable")[:count])
    pilots = np.full(num_users, -1, dtype=np.int64)
    pilots[chosen] = np.arange(count)
    return Stage1Result(assignment=PilotAssignment(pilots=pilots),
                        case_taken=ALG_ORTHO, removal_trace=(), threshold=None)


def baseline_nocase2(instance: NetworkInstance, pilot_budget: int,
                     reuse_cap: int) -> Stage1Result:
    """Like the proposed stage 1, but an under-budget base coloring is kept
    as is instead of being spread over the spare pilots.

    Trials call :func:`~ucran.stage1.run_stage1` with the same flags;
    this name stays because perfbench/spans.py wraps it."""
    return run_stage1(instance, pilot_budget, reuse_cap, spread=False)


def baseline_con(instance: NetworkInstance, pilot_budget: int, reuse_cap: int) -> Stage1Result:
    """Conventional removal: over-budget colorings shed users picked by
    :func:`baseline_draws`, not the highest-conflict ones; otherwise as baseline_nocase2.

    Trials call :func:`~ucran.stage1.run_stage1` with the same flags;
    this name stays because perfbench/spans.py wraps it."""
    return run_stage1(instance, pilot_budget, reuse_cap, spread=False,
                      draws=baseline_draws(instance))


class AuditError(AssertionError):
    """A trial fails its pilot check or its constraint audit; the message
    names the seed and algorithm and lists the problems."""


def audit_solution(solution: AdmissionSolution, config: SimConfig,
                   holders: np.ndarray) -> list[str]:
    """Constraint check on a finished downlink solution; empty list = clean.
    Its served and dropped users must split stage 1's sorted pilot
    ``holders`` exactly.  An empty solution takes the same checks."""
    problems = []
    accounted = np.sort(np.concatenate((solution.served, solution.removal_trace)))
    if not np.array_equal(accounted, holders):
        problems.append("served and dropped users are not exactly the pilot holders")
    if (solution.rates < config.rate_req).any():
        problems.append(f"rate below requirement: min {solution.rates.min():.6f}")
    if (solution.per_rrh_power > config.rrh_power_cap).any():
        problems.append(f"per-RRH power cap exceeded: max {solution.per_rrh_power.max():.6f}")
    beams = solution.beams
    loads = np.bincount(beams.rrhs[beams.valid], minlength=beams.num_rrhs)
    if (loads > config.fronthaul_cap).any():
        problems.append(f"fronthaul cap exceeded: max load {loads.max()}")
    norms = np.linalg.norm(beams.weights, axis=(1, 2))
    if (np.abs(norms - 1.0) > 1e-9).any():
        problems.append("beam directions are not unit norm")
    if (solution.powers < 0).any():
        problems.append("negative transmit power")
    return problems


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def run_trial(config: SimConfig, seed: int, algorithm: str,
              return_details: bool = False, *, physics: Memo | None = None):
    """Full pipeline for one seed: topology, stage 1, channels, stage 2.

    With ``return_details`` the stage results come back alongside the
    summary, for inspection and auditing.  ``physics`` is the seed's
    shared state when a campaign runs several trials of one seed: per
    cluster size its network, with what stage 1 keeps on it, and one
    admission per (cluster size, CSI mode, pilots) that another of its
    trials has already made, whose channel state was built for it and
    dropped; a trial run alone makes its own.  Every trial runs its own
    stage-1 call, pilot check and audit.
    ValueError for an unknown algorithm or a bad seed, before any work;
    AuditError when a check fails.
    """
    _check_algorithm(algorithm)
    check_integer("seed", seed, 0)
    if physics is None:
        physics = Memo()
    size, budget, cap = config.cluster_size, config.pilot_count, config.reuse_cap
    instance = physics.once(("network", size), lambda: build_network(config, seed))
    if algorithm == ALG_ORTHO:
        s1 = baseline_ortho(instance, budget)
    else:
        draws = baseline_draws(instance) if algorithm == ALG_CON else None
        s1 = run_stage1(instance, budget, cap, spread=algorithm in (ALG_PROPOSED, ALG_PERFECT),
                        draws=draws)
    read_only(s1)

    # a hard guarantee: co-clustered users must never share a pilot
    try:
        validate_assignment(base_graph(instance).restrict(s1.admitted), s1.assignment, cap)
    except AssertionError as exc:
        raise AuditError(f"pilot check failed (seed {seed}, {algorithm}): {exc}") from exc

    perfect, pilots = algorithm == ALG_PERFECT, s1.assignment

    def admit() -> AdmissionSolution:
        state = build_channel_state(instance, pilots, config, perfect=perfect)
        return admission_loop(instance, s1, state, config)

    # the inputs of both stages that differ between a campaign's trials of one seed
    solution = physics.once(("admission", size, perfect, pilots.pilots.tobytes()), admit)

    problems = audit_solution(solution, config, s1.admitted)
    if problems:
        raise AuditError(f"constraint audit failed (seed {seed}, {algorithm}): "
                         + "; ".join(problems))

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
    )
    if return_details:
        return result, s1, solution
    return result


@dataclass(frozen=True)
class CellStats:
    mean_admitted: float
    mean_served: float


@dataclass(frozen=True)
class CampaignReport:
    cells: dict          # (algorithm, cluster_size, pilot_budget) -> CellStats
    trials: tuple        # TrialResult, in deterministic emission order


def run_campaign(config: SimConfig, cluster_sizes, pilot_budgets,
                 algorithms=ALGORITHMS, num_seeds: int = 100,
                 out_csv=None) -> CampaignReport:
    """Sweep (algorithm, cluster size, pilot budget) over a shared seed list.

    Trials run seed by seed (then cluster size, algorithm, pilot budget).
    Each seed's trials share one network per cluster size, with what
    stage 1 keeps on it (base graph, base coloring, weights and each
    budget's deterministic decision), and one admission per (cluster
    size, CSI mode, pilots) that more than one of them reaches, without
    the channel state it was built from; all of it is dropped before the
    next seed's.  The rows equal those of trials run one by one, whatever
    the order of ``algorithms``.  Emits one CSV row per trial, cell by cell in sweep
    order and by seed within a cell, plus one aggregate row per cell
    (seed column set to "mean").  Deterministic for a fixed config.
    ValueError, before the first trial, when a sweep list is empty or
    repeats an entry, names an unknown algorithm or holds a point that
    makes no valid config.  A failing trial stops the campaign at the
    first failure in seed order.
    """
    check_integer("num_seeds", num_seeds)
    for name, values in (("algorithms", algorithms), ("cluster_sizes", cluster_sizes),
                         ("pilot_budgets", pilot_budgets)):
        if not 0 < len(set(values)) == len(values):
            raise ValueError(f"{name} must be non-empty without repeats, got {list(values)}")
    for algorithm in algorithms:
        _check_algorithm(algorithm)
    configs = {(size, budget): dataclasses.replace(config, cluster_size=size, pilot_count=budget)
               for size in cluster_sizes for budget in pilot_budgets}
    seeds = [config.master_seed + j for j in range(num_seeds)]
    rows: dict[tuple, list[TrialResult]] = {
        (algorithm, size, budget): []
        for algorithm in algorithms for size in cluster_sizes for budget in pilot_budgets}
    for seed in seeds:
        physics = Memo()    # drops the previous seed's before any draw
        for size in cluster_sizes:
            for algorithm in algorithms:
                for budget in pilot_budgets:
                    rows[(algorithm, size, budget)].append(
                        run_trial(configs[(size, budget)], seed, algorithm, physics=physics))
    cells = {key: CellStats(mean_admitted=float(np.mean([t.stage1_admitted for t in cell])),
                            mean_served=float(np.mean([t.stage2_served for t in cell])))
             for key, cell in rows.items()}
    report = CampaignReport(cells=cells,
                            trials=tuple(t for cell in rows.values() for t in cell))
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
