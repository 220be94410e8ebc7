"""One workload process: import ucran from the checkout, run one untimed
warm-up trial, then (role ``measure``) run whole campaign passes through
``ucran.harness.run_campaign`` and print one JSON object as the last line.

``run.py`` starts this script; it is not meant to be run by hand.
Untraced passes time only the trial boundary (``spans.STOPWATCH_TARGETS``)
and sample the host speed.  With ``--trace 1`` untraced and traced passes
alternate, and the traced ones record every span of ``spans.TARGETS``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(BENCH_DIR))
from spans import (CAMPAIGN, STOPWATCH_TARGETS, TRIAL,  # noqa: E402
                   Tracer, format_table, layer_metrics, summarize)
from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_KERNEL_BURSTS = 5
TRACED_PASS_BURSTS = 5


def import_ucran():
    """Import the package from ``src/`` of this checkout, never another copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import ucran.harness
    if not Path(ucran.harness.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ucran imported from {ucran.harness.__file__}, not from {src}")
    return ucran.harness


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:   # numpy < 1.25 only prints its configuration
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


class Campaign:
    """The workload's fixed campaign, run as whole passes."""

    def __init__(self, harness, workload, seed: int, tag: str):
        self.harness = harness
        self.workload = workload
        self.config = harness.SimConfig(master_seed=seed, **workload.sim)
        self.csv_path = OUT_DIR / f"{workload.name}-seed{seed}-{tag}.csv"

    def warm_up(self) -> None:
        w = self.workload
        cfg = dataclasses.replace(self.config, cluster_size=w.cluster_sizes[0],
                                  pilot_count=w.pilot_budgets[0])
        self.harness.run_trial(cfg, self.config.master_seed, w.algorithms[0])

    def run_pass(self):
        """(report, start, end, CSV SHA-256) of one whole campaign."""
        w = self.workload
        start = time.perf_counter()
        report = self.harness.run_campaign(
            self.config, w.cluster_sizes, w.pilot_budgets, algorithms=w.algorithms,
            num_seeds=w.seeds_per_pass, out_csv=self.csv_path)
        end = time.perf_counter()
        return report, start, end, hashlib.sha256(self.csv_path.read_bytes()).hexdigest()


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(campaign, seconds: float, trace: bool, speed: HostSpeed) -> dict:
    """Run passes for ``seconds`` (at least two); with ``trace`` they
    alternate untraced/traced and end on a traced one.  Untraced passes
    sample the host speed (see hostspeed.py); traced passes only just
    before and after."""
    stopwatch = Tracer(STOPWATCH_TARGETS, on_call=speed.tick, hooks={})
    tracer = Tracer()
    passes = []         # (traced, raw seconds, rescaled seconds, trials, CSV digest)
    trial_ms = []       # rescaled
    trial_ms_raw = []
    layer_runs = []
    counts = None
    served = None
    oracle_checked, oracle_worst = 0, 0.0
    problems = []
    attempted = failed = 0
    started = time.perf_counter()
    for traced in itertools.cycle((False, True)) if trace else itertools.repeat(False):
        active = tracer if traced else stopwatch
        active.reset()
        if traced:
            speed.burst(TRACED_PASS_BURSTS)
        try:
            with active, active.span(CAMPAIGN):
                report, start, end, digest = campaign.run_pass()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += max(1, active.raised[TRIAL])
            attempted += max(failed, sum(1 for span in active.spans if span[3] == TRIAL))
            problems.append("a campaign pass raised")
            break
        attempted += len(report.trials)
        if served is None:
            served = statistics.fmean(t.stage2_served for t in report.trials)
        if traced:
            speed.burst(TRACED_PASS_BURSTS)
            passes.append((True, end - start, (end - start) * speed.scale(start, end),
                           len(report.trials), digest))
            checked, worst = tracer.check_power()
            oracle_checked += checked
            oracle_worst = max(oracle_worst, worst)
            summary = summarize(tracer.spans)
            metrics = layer_metrics(summary, tracer.counts)
            pass_counts = {k: v for k, v in metrics.items() if isinstance(v, int)}
            pass_counts.update(tracer.counts)
            if counts is None:
                counts = pass_counts
                stem = campaign.csv_path.with_suffix("")
                tracer.write_jsonl(f"{stem}.spans.jsonl", started)
                table = format_table(summary)
                Path(f"{stem}.summary.txt").write_text(table + "\n")
                print(table, file=sys.stderr)
            elif pass_counts != counts:
                problems.append("per-layer counts differ between traced passes")
            layer_runs.append(metrics)
        else:
            trials = stopwatch.trial_intervals()
            rescaled = [speed.rescaled(a, b) for a, b in trials]
            raw = [b - a - speed.calibration_seconds(a, b) for a, b in trials]
            pass_raw = end - start - speed.calibration_seconds(start, end)
            outside = (pass_raw - sum(raw)) * speed.scale(start, end)
            passes.append((False, pass_raw, sum(rescaled) + outside,
                           len(report.trials), digest))
            trial_ms.extend(1e3 * t for t in rescaled)
            trial_ms_raw.extend(1e3 * t for t in raw)
        if (len(passes) >= 2 and time.perf_counter() - started >= seconds
                and (traced or not trace)):
            break

    digests = sorted({p[4] for p in passes})
    if len(digests) > 1:
        problems.append("campaign CSV bytes differ between passes")
    if oracle_worst > 1.0:
        problems.append(f"power control is {oracle_worst:.3g} tolerances off the closed form")
    if tracer.missing or stopwatch.missing:
        problems.append(f"trace targets missing: {tracer.missing + stopwatch.missing}")

    result = {
        "attempted": attempted, "failed": failed, "problems": problems,
        "passes": [{"traced": t, "seconds": raw, "rescaled_s": s, "trials": n}
                   for t, raw, s, n, _ in passes],
        "csv_sha256": digests, "served_mean": served,
        "power_oracle": {"checked": oracle_checked, "worst_in_tolerances": oracle_worst},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if layer_runs:
        untraced = [n / s for t, _, s, n, _ in passes if not t]
        traced_rate = [n / s for t, _, s, n, _ in passes if t]
        layer = {k: (v if isinstance(v, int)
                     else statistics.median(run[k] for run in layer_runs))
                 for k, v in layer_runs[0].items()}
        layer["trace.overhead_frac"] = (statistics.median(untraced)
                                        / statistics.median(traced_rate) - 1.0)
        result["layer"] = layer
        result["counts"] = counts
    if trial_ms and not trace:
        result.update(
            trials_per_s=statistics.median(n / s for _, _, s, n, _ in passes),
            trial_ms_p50=statistics.median(trial_ms),
            trial_ms_p95=quantile(trial_ms, 95),
            raw={"trials_per_s": statistics.median(n / raw for _, raw, _, n, _ in passes),
                 "trial_ms_p50": statistics.median(trial_ms_raw),
                 "trial_ms_p95": quantile(trial_ms_raw, 95)},
            host_scale=speed.scale(), kernel_samples=len(speed.samples),
            trial_samples=len(trial_ms))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    args = parser.parse_args(argv)

    harness = import_ucran()
    OUT_DIR.mkdir(exist_ok=True)
    campaign = Campaign(harness, WORKLOADS[args.workload], args.seed,
                        f"{args.role}-trace{args.trace}")
    speed = HostSpeed()
    with Tracer(STOPWATCH_TARGETS, on_call=speed.tick, hooks={}):
        campaign.warm_up()
    setup_raw = time.monotonic() - args.t0
    inside = sum(e - s for s, e in speed.samples)
    speed.burst(SETUP_KERNEL_BURSTS)
    result = {"setup_s": (setup_raw - inside) * speed.scale(), "setup_s_raw": setup_raw - inside}
    if args.role == "measure":
        result.update(measure(campaign, args.seconds, bool(args.trace), speed))
        result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
