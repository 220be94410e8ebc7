"""Outside-in tracing of a ucran campaign.

The program has no spans of its own yet, so the benchmark wraps ucran's
public functions in the module namespaces that call them
(``ucran.harness``, ``ucran.stage1``, ``ucran.stage2``) and restores the
originals afterwards.  Each wrapped call records one span
``(span_id, parent_id, trial_id, name, start, end)`` in memory; the
parent is the innermost open span, the trial id the enclosing
``run_trial`` call.  Counts are taken at the same boundaries, from the
arguments and return values of the wrapped calls.

Span names are ``<layer>`` or ``<layer>.<sub-call>``; the layer is the
part before the first dot.  Power-control iteration counts are not
visible from outside and are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

TRIAL = "harness.trial"
CAMPAIGN = "harness.campaign"

# (module whose globals hold the callee, function name, span name)
TARGETS = (
    ("ucran.harness", "run_trial", TRIAL),
    ("ucran.harness", "build_network", "topology"),
    ("ucran.harness", "run_stage1", "stage1"),
    ("ucran.harness", "baseline_ortho", "stage1"),
    ("ucran.harness", "baseline_nocase2", "stage1"),
    ("ucran.harness", "baseline_con", "stage1"),
    ("ucran.harness", "select_users_case1", "stage1.removal"),
    ("ucran.harness", "dsatur_color", "coloring.dsatur"),
    ("ucran.harness", "build_base_graph", "conflict_graph.base_graph"),
    ("ucran.harness", "validate_assignment", "harness.checks"),
    ("ucran.harness", "audit_solution", "harness.checks"),
    ("ucran.harness", "build_channel_state", "channel"),
    ("ucran.harness", "admission_loop", "stage2"),
    ("ucran.harness", "write_csv", "harness.csv"),
    ("ucran.stage1", "select_users_case1", "stage1.removal"),
    ("ucran.stage1", "reallocate_case2", "stage1.spread"),
    ("ucran.stage1", "build_base_graph", "conflict_graph.base_graph"),
    ("ucran.stage1", "dsatur_color", "coloring.dsatur"),
    ("ucran.stage1", "interference_matrix", "conflict_graph.weights"),
    ("ucran.stage1", "interference_score", "conflict_graph.score"),
    ("ucran.stage1", "build_thresholded_graph", "conflict_graph.threshold_graph"),
    ("ucran.stage1", "vertex_degrees", "conflict_graph.degrees"),
    ("ucran.stage2", "interference_matrix", "conflict_graph.weights"),
    ("ucran.stage2", "interference_score", "conflict_graph.score"),
    ("ucran.stage2", "enforce_fronthaul_cap", "stage2.fronthaul"),
    ("ucran.stage2", "robust_beam_direction", "stage2.beam"),
    ("ucran.stage2", "rate_coefficients", "stage2.rate_coeffs"),
    ("ucran.stage2", "rrh_power_share", "stage2.power_share"),
    ("ucran.stage2", "power_allocation_fixed_point", "stage2.power"),
    ("ucran.stage2", "expected_rate_lb", "stage2.rate_lb"),
)

# Untraced passes time only the trial boundary; the other two are calls
# that recur every few milliseconds inside long trials, where the host
# speed is sampled (see hostspeed.py).
STOPWATCH_TARGETS = tuple(t for t in TARGETS
                          if t[2] in (TRIAL, "coloring.dsatur", "stage2.beam"))

# Spans whose self time is the layer's own code (the rest are sub-calls
# reported under their own names).
SELF_SPANS = {
    "stage1": ("stage1", "stage1.removal", "stage1.spread"),
    "stage2": ("stage2",),
    "harness": (TRIAL, CAMPAIGN),
}

POWER_REASONS = ("ceiling", "margin", "rrh_cap", "no_convergence")

# Floor of the power-control oracle's tolerance, relative to the largest
# exact power: what a direct solve may differ by through rounding alone.
POWER_ORACLE_FLOOR = 1e-9


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _count_dsatur(tracer, args, result):
    tracer.counts["coloring.dsatur.vertices"] += len(args["graph"].users)


def _count_beam(tracer, args, result):
    tracer.counts["stage2.beam.user_solves"] += len(args["served"])


def _count_admission(tracer, args, result):
    stage1_result = args["stage1_result"]
    tracer.counts["stage1.removal_rounds"] += len(stage1_result.removal_trace)
    tracer.counts[f"stage1.case.{stage1_result.case_taken}"] += 1
    tracer.counts["stage2.drops"] += len(result.removal_trace)


def _count_power(tracer, args, result):
    tracer.counts[f"stage2.power.{result.reason or 'feasible'}"] += 1
    if result.feasible and len(result.powers) and args["sinr_target"] > 0:
        gamma = args["sinr_target"] * (1.0 + args.get("target_margin", 0.0))
        tracer.power_checks.append((
            np.array(args["signal"]), np.array(args["self_err"]),
            np.array(args["cross"]), gamma, float(args["noise_power"]),
            np.array(result.powers), float(args.get("rel_tol", 0.0))))


HOOKS = {
    "coloring.dsatur": _count_dsatur,
    "stage2.beam": _count_beam,
    "stage2": _count_admission,
    "stage2.power": _count_power,
}


def power_oracle_error(signal, self_err, cross, gamma, noise, powers, rel_tol) -> float:
    """Deviation of ``powers`` from the exact solution ``p*`` of
    ``(diag(m) - gamma C) p = gamma noise 1``, ``m = signal - gamma self_err``,
    as a multiple of the tolerance; at most 1 passes, and a system without
    a positive solution gives infinity.

    With ``T = gamma diag(m)^-1 C``, an iterate ``p`` of ``p <- T p + b``
    whose last step was at most ``rel_tol * p`` per component lies within
    ``rel_tol (I - T)^-1 T p`` of ``p*``.  The tolerance is twice that plus
    ``POWER_ORACLE_FLOOR * max(p*)``, so it still holds for a direct solve
    (``rel_tol`` 0).
    """
    margins = signal - gamma * self_err
    transfer = gamma * cross / margins[:, None]
    identity = np.eye(len(signal))
    try:
        exact = np.linalg.solve(identity - transfer, gamma * noise / margins)
        reach = np.linalg.solve(identity - transfer, transfer @ powers)
    except np.linalg.LinAlgError:
        return float("inf")
    if not (exact > 0).all():
        return float("inf")
    allowed = 2.0 * rel_tol * np.abs(reach) + POWER_ORACLE_FLOOR * exact.max()
    return float((np.abs(powers - exact) / allowed).max())


class Tracer:
    """Wraps the ``targets`` while installed; spans and counts accumulate
    until :meth:`reset`.  ``on_call`` runs at the entry of every wrapped
    call, before its span opens; ``hooks`` take counts after it returns."""

    def __init__(self, targets=TARGETS, on_call=None, hooks=HOOKS):
        self.targets = targets
        self.on_call = on_call
        self.hooks = hooks
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.power_checks: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._trial: int | None = None
        self._next_span = 0
        self._next_trial = 0
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.raised = Counter()
        self.power_checks = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module_name, attr, name in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a campaign."""
        span_id = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, name, start)

    def _open(self) -> int:
        span_id = self._next_span
        self._next_span += 1
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent, self._trial, name, start, end))

    def _wrap(self, original, name):
        hook = self.hooks.get(name)
        signature = inspect.signature(original) if hook else None
        is_trial = name == TRIAL

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self.on_call is not None:
                self.on_call()
            if is_trial:
                self._trial = self._next_trial
                self._next_trial += 1
            span_id = self._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                self._close(span_id, name, start)
                if is_trial:
                    self._trial = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return traced

    def trial_intervals(self) -> list[tuple[float, float]]:
        return [(start, end) for _, _, _, name, start, end in self.spans if name == TRIAL]

    def check_power(self) -> tuple[int, float]:
        """(number of feasible returns checked, worst error in tolerances)."""
        worst = 0.0
        for check in self.power_checks:
            worst = max(worst, power_oracle_error(*check))
        return len(self.power_checks), worst

    def write_jsonl(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for span_id, parent, trial, name, start, end in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - origin, 9),
                    "end": round(end - origin, 9), "span_id": span_id,
                    "parent_id": parent, "trial_id": trial}) + "\n")


def summarize(spans) -> dict:
    """Per-name and per-layer calls, total and self seconds, from spans only.

    Totals count a span only when no ancestor has the same name (per name)
    or the same layer (per layer), so nested calls are not counted twice.
    Self time is a span's duration minus that of its direct children.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict = defaultdict(float)
    for span_id, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start

    def nested_in(span, key):
        parent = span[1]
        while parent is not None:
            if key(by_id[parent][3]) == key(span[3]):
                return True
            parent = by_id[parent][1]
        return False

    names: dict = {}
    layers: dict = defaultdict(float)
    for span in spans:
        span_id, _, _, name, start, end = span
        duration = end - start
        row = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += duration - child_time[span_id]
        if not nested_in(span, lambda n: n):
            row["s"] += duration
        if not nested_in(span, layer_of):
            layers[layer_of(name)] += duration
    return {"names": names, "layers": dict(layers)}


def format_table(summary: dict) -> str:
    """Human-readable per-name table with each name's share of trial time."""
    names = summary["names"]
    trial_s = names.get(TRIAL, {}).get("s", 0.0) or float("nan")
    lines = [f"{'span':34s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}"]
    for name in sorted(names):
        row = names[name]
        lines.append(f"{name:34s} {row['calls']:9d} {row['s']:10.4f} "
                     f"{row['self_s']:10.4f} {row['s'] / trial_s:7.1%}")
    lines.append("layers: " + ", ".join(
        f"{layer} {seconds / trial_s:.1%}"
        for layer, seconds in sorted(summary["layers"].items())))
    return "\n".join(lines)


def layer_metrics(summary: dict, counts: Counter) -> dict:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    names, layers = summary["names"], summary["layers"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def seconds(name):
        return names.get(name, {}).get("s", 0.0)

    def self_s(layer):
        return sum(names.get(n, {}).get("self_s", 0.0) for n in SELF_SPANS[layer])

    power_calls = calls("stage2.power")
    trial_total = seconds(TRIAL)
    metrics = {
        "topology.s": layers.get("topology", 0.0),
        "topology.calls": calls("topology"),
        "stage1.s": layers.get("stage1", 0.0),
        "stage1.self_s": self_s("stage1"),
        "stage1.removal_rounds": counts["stage1.removal_rounds"],
        "stage1.spread_probes": calls("conflict_graph.threshold_graph"),
        "coloring.dsatur.calls": calls("coloring.dsatur"),
        "coloring.dsatur.s": seconds("coloring.dsatur"),
        "coloring.dsatur.vertices": counts["coloring.dsatur.vertices"],
        "channel.s": layers.get("channel", 0.0),
        "channel.calls": calls("channel"),
        "stage2.s": layers.get("stage2", 0.0),
        "stage2.self_s": self_s("stage2"),
        "stage2.rounds": calls("stage2.fronthaul"),
        "stage2.drops": counts["stage2.drops"],
        "stage2.fronthaul.s": seconds("stage2.fronthaul"),
        "stage2.beam.calls": calls("stage2.beam"),
        "stage2.beam.s": seconds("stage2.beam"),
        "stage2.beam.user_solves": counts["stage2.beam.user_solves"],
        "stage2.rate_coeffs.s": seconds("stage2.rate_coeffs"),
        "stage2.power.calls": power_calls,
        "stage2.power.s": seconds("stage2.power"),
        "stage2.power.feasible_ratio": (counts["stage2.power.feasible"] / power_calls
                                        if power_calls else 0.0),
        "harness.checks.s": seconds("harness.checks"),
        "harness.csv.s": seconds("harness.csv"),
        "harness.self_s": self_s("harness"),
        "trace.attributed_frac": (1.0 - names.get(TRIAL, {}).get("self_s", 0.0) / trial_total
                                  if trial_total else 0.0),
    }
    for sub in ("base_graph", "weights", "score", "threshold_graph"):
        metrics[f"conflict_graph.{sub}.calls"] = calls(f"conflict_graph.{sub}")
        metrics[f"conflict_graph.{sub}.s"] = seconds(f"conflict_graph.{sub}")
    for reason in POWER_REASONS:
        metrics[f"stage2.power.{reason}"] = counts[f"stage2.power.{reason}"]
    return metrics
