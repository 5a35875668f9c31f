"""Micro-benchmark — the within-iteration GroupTracker — and the
bench *trajectory* recorder.

The cycle's recheck (skip tuples already fixed by earlier suppressions
in the same pass) relies on O(|null rows|) incremental group statistics
instead of a full semantics recomputation.  This bench quantifies the
per-recheck cost of both paths — the design choice that keeps the
injected-null counts minimal *and* the cycle fast.

:func:`record_registry_snapshot` is the perf-baseline hook: it appends
the current telemetry registry snapshot (chase iterations, rule
firings, wall-time histograms, ...) to a ``BENCH_<tag>.json`` file at
the repo root, so each perf-focused PR can extend the trajectory and
compare itself against every previous baseline.  ``run_all.py
--telemetry`` drives it over the whole figure suite.
"""

import datetime
import json
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.anonymize import GroupTracker, LocalSuppression
from repro.model import MAYBE_MATCH
from repro.vadalog.terms import NullFactory

from paperfig import SCALE, dataset, emit, render_table

CODE = "R25A4U"

#: BENCH_*.json files live at the repository root, next to ROADMAP.md.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: The continuous perf trajectory ``benchmarks/regress.py`` gates on.
HISTORY_PATH = REPO_ROOT / "BENCH_history.json"


def record_history_entry(tag, metrics, extra=None, path=None):
    """Append one per-run snapshot to ``BENCH_history.json``.

    ``tag`` names the workload (``figure7e``, ``smoke_telemetry``, ...),
    ``metrics`` is a flat ``{metric_name: number}`` dict (seconds,
    counts).  Entries carry the dataset ``scale`` so the regression
    gate only ever compares like with like.  Returns the path written.
    """
    target = Path(path) if path is not None else HISTORY_PATH
    entry = {
        "recorded_at": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "tag": tag,
        "scale": SCALE,
        "metrics": {str(k): v for k, v in dict(metrics).items()},
    }
    if extra:
        entry.update(extra)
    history = []
    if target.exists():
        try:
            history = json.loads(target.read_text())
        except (ValueError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(entry)
    target.write_text(json.dumps(history, indent=2) + "\n")
    return target


def record_registry_snapshot(tag, extra=None, path=None):
    """Append the active telemetry registry snapshot to
    ``BENCH_<tag>.json`` (a JSON list — one entry per recorded run —
    forming the perf trajectory re-anchored by later PRs).

    Returns the path written.  ``extra`` is merged into the entry
    (figure timings, dataset scale, git describe, ...).
    """
    target = (
        Path(path) if path is not None
        else REPO_ROOT / f"BENCH_{tag}.json"
    )
    entry = {
        "recorded_at": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "scale": SCALE,
        "telemetry": telemetry.snapshot(),
    }
    if extra:
        entry.update(extra)
    trajectory = []
    if target.exists():
        try:
            trajectory = json.loads(target.read_text())
        except (ValueError, OSError):
            trajectory = []
        if not isinstance(trajectory, list):
            trajectory = [trajectory]
    trajectory.append(entry)
    target.write_text(json.dumps(trajectory, indent=2) + "\n")
    return target


def tracker_vs_recompute():
    db = dataset(CODE).copy()
    attributes = db.quasi_identifiers
    tracker = GroupTracker(db, attributes, MAYBE_MATCH)
    method = LocalSuppression()
    factory = NullFactory()
    # Suppress a handful of cells so null rows exist.
    for row in range(0, 40, 4):
        old_values = tracker.before_change(row)
        method.apply(db, row, attributes[row % len(attributes)], factory)
        tracker.after_change(row, old_values)

    probes = list(range(0, len(db), 7))
    start = time.perf_counter()
    for row in probes:
        tracker.stats(row)
    tracker_time = time.perf_counter() - start

    start = time.perf_counter()
    counts = MAYBE_MATCH.match_counts(db, attributes)
    recompute_time = time.perf_counter() - start

    # Consistency: the tracker agrees with the full recomputation.
    for row in probes:
        count, _ = tracker.stats(row)
        assert count == counts[row]

    per_probe = tracker_time / len(probes)
    return [
        ["tracker recheck (per row)", round(per_probe * 1e6, 1), "µs"],
        ["full recomputation (whole file)",
         round(recompute_time * 1e3, 2), "ms"],
        ["break-even (#rechecks per recompute)",
         round(recompute_time / max(per_probe, 1e-12)), "rechecks"],
    ]


def test_tracker_report(benchmark):
    rows = benchmark.pedantic(tracker_vs_recompute, rounds=1,
                              iterations=1)
    emit(render_table(
        f"GroupTracker recheck vs full recomputation ({CODE})",
        ["operation", "cost", "unit"],
        rows,
    ))


def test_tracker_stats_benchmark(benchmark):
    db = dataset(CODE).copy()
    tracker = GroupTracker(db, db.quasi_identifiers, MAYBE_MATCH)
    benchmark.pedantic(
        lambda: [tracker.stats(row) for row in range(0, len(db), 11)],
        rounds=3,
        iterations=1,
    )


if __name__ == "__main__":
    emit(render_table(
        f"GroupTracker recheck vs full recomputation ({CODE})",
        ["operation", "cost", "unit"],
        tracker_vs_recompute(),
    ))
