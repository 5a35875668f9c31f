"""Tests of the exchange benchmark itself: its output checks, its
metric coverage, its tracer and BENCHMARK.json.

Run from the repository root::

    python3 -m pytest -q sdcbench/test_sdcbench.py

The workloads run here at a few hundred rows, through the same code
paths as the real ones.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Row-count divisors giving 100-200 row versions of each workload.
SMALL_SCALE = {
    "suppress_r50a9w": 500,
    "engine_r100a4u": 500,
}


def small(name):
    return workloads.WORKLOADS[name]._replace(scale=SMALL_SCALE[name])


def stage(workload, tmp_path, seed=3):
    """The first staged dataset of a seed."""
    return workload.reference(workload.stage(seed, tmp_path)[0])


def _small_tally_args(name, tmp_path):
    workload = small(name)
    return workload, [stage(workload, tmp_path)], tmp_path


@pytest.fixture
def restore_environment():
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


# -- output checks ----------------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_clean_job_passes_every_check(name, tmp_path):
    workload = small(name)
    staged = stage(workload, tmp_path)
    outcome = workload.job(staged, tmp_path)
    assert workload.check(staged, outcome) == []
    assert outcome.nulls_injected > 0


def test_restored_suppressed_cell_fails_the_job(tmp_path):
    workload = small("suppress_r50a9w")
    staged = stage(workload, tmp_path)
    outcome = workload.job(staged, tmp_path)
    shared = outcome.cycles[0].shared_csv
    header, rows = workloads.read_raw_csv(shared)
    row, column = next(
        (r, c) for r, cells in enumerate(rows)
        for c, cell in enumerate(cells)
        if cell.startswith(workloads.NULL_PREFIX)
    )
    rows[row][column] = staged.rows[row][staged.header.index(header[column])]
    with open(shared, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header] + rows)
    problems = workload.check(staged, outcome)
    assert any("suppressed on disk" in p for p in problems), problems


def test_engine_verdict_mismatch_fails_the_job(tmp_path):
    workload = small("engine_r100a4u")
    staged = stage(workload, tmp_path)
    outcome = workload.job(staged, tmp_path)
    assert workload.check(staged, outcome) == []
    outcome.engine_verdicts[0] = 1.0 - outcome.engine_verdicts[0]
    problems = workload.check(staged, outcome)
    assert any("disagree" in p for p in problems), problems
    del outcome.engine_verdicts[1]
    problems = workload.check(staged, outcome)
    assert any("engine scored" in p for p in problems), problems


def test_changed_utility_between_jobs_fails_the_job(tmp_path):
    tally = run.Tally(*_small_tally_args("suppress_r50a9w", tmp_path))
    assert tally.run(0) is not None
    nulls, loss = tally.utility[0]
    tally.utility[0] = (nulls + 1, loss)
    assert tally.run(0) is None
    assert (tally.attempted, tally.failed) == (2, 1)



# -- metric coverage ----------------------------------------------------------


def _run_main(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, small(name))
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(
        name, monkeypatch, capsys, restore_environment):
    result = _run_main(name, 0, monkeypatch, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_JOBS
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_per_layer_metric_is_printed_and_adds_up(
        name, monkeypatch, capsys, restore_environment):
    result = _run_main(name, 1, monkeypatch, capsys)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    self_times = sum(metrics[f"{layer}_s"] for layer in run.LAYER_TIMES)
    assert self_times + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    assert all(metrics[f"{layer}_s"] >= 0 for layer in run.LAYER_TIMES)
    assert metrics["trace.overhead_ratio"] > 0
    engine = name.startswith("engine")
    assert (metrics["chase.rounds"] > 0) == engine
    assert (metrics["provenance.record_calls"] > 0) == engine
    assert metrics["risk.kanon.assess_calls"] > 0
    assert (metrics["risk.suda.assess_calls"] > 0) == name.startswith(
        "suppress")


# -- tracer -----------------------------------------------------------------


class Nest:
    """Synthetic layers for self-time accounting."""

    def outer(self):
        time.sleep(0.02)
        self.inner()
        self.hot()

    def inner(self):
        time.sleep(0.03)

    def hot(self):
        pass


NEST_HOOKS = (
    layers.Hook(f"{__name__}:Nest", "outer", "outer", layers.TIMED),
    layers.Hook(f"{__name__}:Nest", "inner", "inner", layers.TIMED),
    layers.Hook(f"{__name__}:Nest", "hot", "hot", layers.COUNTED),
)


def test_nested_calls_get_self_time():
    tracer = layers.LayerTracer(NEST_HOOKS)
    with tracer:
        Nest().outer()
    assert tracer.self_s["outer"] == pytest.approx(0.02, abs=0.015)
    assert tracer.self_s["inner"] == pytest.approx(0.03, abs=0.015)
    assert tracer.attributed_s == pytest.approx(
        tracer.self_s["outer"] + tracer.self_s["inner"], rel=1e-9)
    assert dict(tracer.calls) == {"outer": 1, "inner": 1, "hot": 1}


def test_originals_are_back_after_a_traced_job(tmp_path):
    originals = {
        (hook.owner, hook.attribute):
            vars(layers._resolve(hook.owner))[hook.attribute]
        for hook in layers.HOOKS
    }
    tally = run.Tally(*_small_tally_args("engine_r100a4u", tmp_path))
    tracer = layers.LayerTracer()
    traced = tally.run(0, tracer)
    assert traced["vadalog.chase_s"] > 0
    for (owner, attribute), original in originals.items():
        assert vars(layers._resolve(owner))[attribute] is original
    calls = dict(tracer.calls)
    assert tally.run(0) is not None
    assert dict(tracer.calls) == calls
    with pytest.raises(RuntimeError):
        with tracer:
            tracer.install()
    for (owner, attribute), original in originals.items():
        assert vars(layers._resolve(owner))[attribute] is original


# -- host probe -------------------------------------------------------------


def test_host_probe_answers_and_its_process_ends():
    with hostspeed.HostSpeed() as host:
        times = [host.probe(), host.probe()]
    assert all(0 < t < 10 for t in times)
    assert host.process.returncode == 0
    assert run.slowdown(
        hostspeed.REFERENCE_S, 3 * hostspeed.REFERENCE_S) == 2


# -- environment and BENCHMARK.json ------------------------------------------


def test_scrub_removes_path_switching_settings(restore_environment):
    os.environ["CHASE_PARALLELISM"] = "4"
    os.environ["CHASE_COLUMNAR"] = "0"
    os.environ["REPRO_BENCH_SCALE"] = "1"
    run.scrub_environment()
    assert not [k for k in os.environ if k.startswith(("CHASE_", "REPRO_"))]
    assert os.environ["OMP_NUM_THREADS"] == "1"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        BENCHMARK["command"] + ["--workload", "suppress_r50a9w", "--seed",
                                "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        run.WORKLOAD_NAMES)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"])
        assert metric["better"] in ("lower", "higher")
