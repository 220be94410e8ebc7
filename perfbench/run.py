"""Run one workload of the ucran campaign benchmark and print its metrics.

    python3 perfbench/run.py --workload grid-default --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ucran is imported from its ``src/``.
Each worker process is started fresh (``worker.py``): it imports ucran and
runs one untimed warm-up trial, which is the set-up time.  With
``--trace 0`` two set-up-only workers run first, then the measuring
worker, and ``setup_s`` is the median of the three set-ups; the metrics
are the ``end_to_end`` ones of ``BENCHMARK.json``.  With ``--trace 1`` one
worker alternates untraced and traced passes and the metrics are the
``per_layer`` ones.

The second-to-last stdout line is a JSON object of details (CSV digests,
sample counts, failure fraction, power-control oracle, environment); the
last line is the result object.  Exit status is 0 with a result, and
non-zero without one when the program cannot be imported or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# One BLAS thread per worker: the program's matrices are small, and on a
# 2-core host BLAS threads only add scheduling noise.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(args, role: str, deadline: float) -> dict:
    """Start one worker, wait for it, return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, **WORKER_ENV})
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{role} worker passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (ROOT / "src" / "ucran" / "__init__.py").is_file():
        print(f"perfbench: no ucran sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker(args, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0)]
        result = run_worker(args, "measure", deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    values = dict(result.get("layer", {}))
    values.update({k: result[k] for k in (
        "trials_per_s", "trial_ms_p50", "trial_ms_p95", "peak_rss_mb", "served_mean")
        if k in result})
    values["setup_s"] = statistics.median(setups)
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and attempted > 0 and not result["problems"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and correct:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    # a run that failed early has no timings to report; it reads 0
    values.update((name, 0.0) for name in missing)

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": failed / attempted if attempted else 1.0,
        "setup_s_samples": setups,
        **{k: v for k, v in result.items() if k not in values and k != "layer"},
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
