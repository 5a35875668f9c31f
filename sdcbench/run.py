"""End-to-end exchange benchmark for the SDC pipeline and the chase.

Run from the repository root::

    python3 sdcbench/run.py --workload suppress_r50a9w --seed 1 \\
        --seconds 55 --trace 0

One process, pinned to one CPU, runs one workload: set-up (import,
dataset generation from the seed, CSV staging), then a closed loop of
jobs, one at a time, until ``--seconds`` have passed.  Every job's
outputs are checked.  A child process probes the host's memory speed
between these steps (see ``hostspeed.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced and
normalized by the host probe.
``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones (see ``layers.py``) and the
tracing overhead.  ``README.md`` describes the metrics, the layer
predictions and why the loop is shaped the way it is.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed
from layers import HOOKS, TIMED, LayerTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".sdcbench_work"
CLOCK = time.perf_counter

WORKLOAD_NAMES = ("suppress_r50a9w", "engine_r100a4u")
#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPS = 5
#: Jobs an untraced run makes at least, and at least one per dataset,
#: even when one job outlasts --seconds.
MIN_JOBS = 3
#: Untraced/traced job pairs a traced run makes at least.
MIN_PAIRS = 2

#: name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "time_to_verdict_s": "s",
    "time_to_share_s": "s",
    "peak_rss_mb": "MB",
    "nulls_injected": "cells",
    "info_loss": "ratio",
}

#: Self time (``<layer>_s``) of every timed layer, and the counted
#: calls (``<layer>_calls``) reported by a traced run; see layers.py.
LAYER_TIMES = tuple(hook.layer for hook in HOOKS if hook.kind == TIMED)
LAYER_CALLS = (
    "nulls.match_aggregate", "nulls.matches_combination",
    "risk.kanon.assess", "risk.suda.assess", "heuristics.prepare",
    "tracker.stats", "suppress.apply", "provenance.record",
)
PER_LAYER = {
    **{f"{layer}_s": "s" for layer in LAYER_TIMES},
    **{f"{layer}_calls": "count" for layer in LAYER_CALLS},
    "cycle.iterations": "count",
    "cycle.steps": "count",
    "cycle.recheck_yield": "ratio",
    "chase.rounds": "count",
    "chase.facts": "count",
    "chase.derivations": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def scrub_environment() -> None:
    """Drop settings that could switch the measured path (``CHASE_*``
    backend/parallelism hatches, ``REPRO_*`` scale knobs) and keep
    native libraries to one thread."""
    for key in list(os.environ):
        if key.startswith(("CHASE_", "REPRO_")):
            del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def pin_to_one_cpu() -> None:
    """Run on one CPU, with the host probe's child, which inherits the
    mask.  The host's slow phases differ between its two CPUs: a probe
    on the benchmark's own CPU tracked SUDA's time per sample with a
    correlation of 0.72, one on the other CPU with 0.10."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_job(workload, staged, outdir):
    """One job with the collector quiet: everything alive before the
    job is frozen out of the collector's generations."""
    gc.collect()
    gc.freeze()
    try:
        return workload.job(staged, outdir)
    finally:
        gc.unfreeze()


class Tally:
    """Attempted and failed jobs over a workload's staged datasets.

    A job fails when it raises, when its outputs fail a check, or when
    its exact utility metrics differ from the first job on the same
    dataset.
    """

    def __init__(self, workload, staged, outdir):
        self.workload = workload
        self.staged = staged
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        #: dataset index -> (nulls_injected, info_loss) of its first job
        self.utility = {}

    def run(self, dataset, tracer=None):
        """Run and check one job on ``staged[dataset]``, under
        ``tracer`` when one is given.

        Returns the job's figures, or None if it failed.  The outcome
        itself (datasets, chase store) is dropped here, so memory does
        not grow with the number of jobs and no job runs while the
        previous one's data is still alive.
        """
        self.attempted += 1
        staged = self.staged[dataset]
        try:
            if tracer is None:
                outcome = timed_job(self.workload, staged, self.outdir)
            else:
                with tracer:
                    outcome = timed_job(self.workload, staged, self.outdir)
            problems = self.workload.check(staged, outcome)
        except Exception:  # one broken job must not end the run
            traceback.print_exc()
            self.failed += 1
            return None
        utility = (outcome.nulls_injected, outcome.info_loss)
        first = self.utility.get(dataset, utility)
        if utility != first:
            problems.append(
                f"nulls/info loss {utility} differ from {first} of the "
                f"first job on dataset {dataset}"
            )
        if problems:
            for problem in problems:
                print(f"FAILED job {self.attempted}: {problem}",
                      file=sys.stderr)
            self.failed += 1
            return None
        self.utility[dataset] = utility
        figures = {"verdict_s": outcome.verdict_s,
                   "share_s": outcome.share_s}
        if tracer is not None:
            figures.update(layer_metrics(tracer, outcome))
        print(f"job {self.attempted} on dataset {dataset}"
              f"{' (traced)' if tracer else ''}: verdict "
              f"{outcome.verdict_s:.3f} s, share {outcome.share_s:.3f} s",
              flush=True)
        return figures


def keep_going(tally, start, seconds, min_jobs, step=1):
    """Whether to start the next ``step`` jobs: always until
    ``min_jobs`` were attempted, then while they would end nearer the
    deadline than not, judged by the mean job so far.  This keeps a
    run close to ``seconds`` instead of overrunning by half a step on
    average."""
    if tally.attempted < min_jobs:
        return True
    elapsed = CLOCK() - start
    return elapsed + 0.5 * step * elapsed / tally.attempted < seconds


def slowdown(before, after, sensitivity=1.0):
    """The slowdown, over a stretch between two probes, of work that
    follows the probe with ``sensitivity`` (see workloads.py)."""
    return ((before + after) / 2 / REFERENCE_S) ** sensitivity


def untraced(tally, seconds, host):
    """Jobs over the datasets in turn, with the host probed (see
    hostspeed.py) before the first job and after every job.  A job's
    times are divided by the host's slowdown around it: the mean of the
    probes before and after it, over the probe's reference time, to the
    power of the workload's ``host_sensitivity``.  Each timing is the
    mean over a dataset's jobs, averaged over the datasets.  Utility
    metrics are the mean over the datasets."""
    pool = len(tally.staged)
    jobs = {}
    slowdowns = []
    before = host.probe()
    start = CLOCK()
    while keep_going(tally, start, seconds, max(MIN_JOBS, pool)):
        dataset = tally.attempted % pool
        figures = tally.run(dataset)
        after = host.probe()
        if figures is not None:
            slowdowns.append(slowdown(
                before, after, tally.workload.host_sensitivity))
            jobs.setdefault(dataset, []).append(
                (figures["verdict_s"] / slowdowns[-1],
                 figures["share_s"] / slowdowns[-1]))
        before = after
    metrics = {
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(jobs) == pool:
        print(f"workload slowdown around the jobs: median "
              f"{statistics.median(slowdowns):.3f}, range "
              f"{min(slowdowns):.3f}-{max(slowdowns):.3f}")
        for index, name in enumerate(("time_to_verdict_s",
                                      "time_to_share_s")):
            metrics[name] = statistics.fmean(
                statistics.fmean(job[index] for job in runs)
                for runs in jobs.values())
    if len(tally.utility) == pool:
        metrics["nulls_injected"] = statistics.fmean(
            nulls for nulls, _ in tally.utility.values())
        metrics["info_loss"] = statistics.fmean(
            loss for _, loss in tally.utility.values())
    return metrics


def layer_metrics(tracer, outcome):
    """Per-layer figures of one traced job."""
    metrics = {f"{layer}_s": tracer.self_s.get(layer, 0.0)
               for layer in LAYER_TIMES}
    metrics.update({f"{layer}_calls": tracer.calls.get(layer, 0)
                    for layer in LAYER_CALLS})
    results = [cycle.result for cycle in outcome.cycles]
    rechecked_steps = sum(
        len(cycle.result.steps) for cycle in outcome.cycles
        if cycle.rechecked
    )
    stats_calls = tracer.calls.get("tracker.stats", 0)
    chase = outcome.chase
    metrics.update({
        "cycle.iterations": sum(r.iterations for r in results),
        "cycle.steps": sum(len(r.steps) for r in results),
        "cycle.recheck_yield":
            rechecked_steps / stats_calls if stats_calls else 0.0,
        "chase.rounds": chase.rounds if chase else 0,
        "chase.facts": len(chase.store) if chase else 0,
        "chase.derivations": len(chase.provenance) if chase else 0,
        "trace.wall_s": outcome.share_s,
        "trace.unattributed_s": outcome.share_s - tracer.attributed_s,
    })
    return metrics


def traced(tally, seconds):
    """Pairs of one untraced and one traced job on the first dataset.
    Counts are exact for a seed.  Times are means, not medians, so
    layer self times plus the unattributed remainder add up to the
    traced wall time exactly."""
    untraced_walls = []
    per_job = []
    start = CLOCK()
    while keep_going(tally, start, seconds, 2 * MIN_PAIRS, step=2):
        figures = tally.run(0)
        if figures is not None:
            untraced_walls.append(figures["share_s"])
        figures = tally.run(0, LayerTracer())
        if figures is not None:
            per_job.append(figures)
    if not per_job or not untraced_walls:
        return {}
    metrics = {name: statistics.fmean(job[name] for job in per_job)
               for name in PER_LAYER if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = (
        metrics["trace.wall_s"] / statistics.fmean(untraced_walls))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"sdcbench: no program source at {SRC}", file=sys.stderr)
        return 2
    scrub_environment()
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    with HostSpeed() as host:
        return measure(args, host)


def measure(args, host) -> int:
    """Set up and run one workload; see the module docstring.  Set-up
    time is normalized like job times, by the probes before and after
    it."""
    before = host.probe()
    began = CLOCK()
    import repro
    from workloads import WORKLOADS
    import_s = CLOCK() - began
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"sdcbench: imported repro from {repro.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2
    if repro.telemetry.state.enabled or repro.telemetry.state.events:
        print("sdcbench: telemetry is enabled; timed runs need it off",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            gc.collect()
            began = CLOCK()
            inputs = workload.stage(args.seed, workdir)
            setup_times.append(CLOCK() - began)
        setup_s = (import_s + statistics.median(setup_times)) / slowdown(
            before, host.probe(), workload.host_sensitivity)
        tally = Tally(workload, [workload.reference(p) for p in inputs],
                      workdir)
        if args.trace:
            metrics = traced(tally, args.seconds)
            units = PER_LAYER
        else:
            metrics = untraced(tally, args.seconds, host)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [name for name in units if name not in metrics]
    for name in units:
        if name in metrics:
            print(f"{args.workload:18s} {name:34s} "
                  f"{metrics[name]:>14.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
