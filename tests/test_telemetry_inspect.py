"""Inspection primitives: StepStats/PlanAnalysis accounting, the
explain renderer, peak-RSS sampling and the chase progress tracker
(heartbeat rate-limiting + stall episodes, on a fake clock)."""

import pytest

from repro.telemetry.inspect import (
    ChaseProgress,
    PeakRSSSampler,
    PlanAnalysis,
    StepStats,
    current_rss_bytes,
    render_explain,
    render_memory,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestStepStats:
    def test_probe_misses_derived(self):
        stats = StepStats()
        stats.probe_calls = 5
        stats.probe_hits = 3
        assert stats.probe_misses == 2

    def test_to_json_omits_probe_fields_for_eval_steps(self):
        stats = StepStats()
        stats.invocations = 4
        stats.rows_out = 2
        stats.wall_ns = 1000
        data = stats.to_json()
        assert data == {"invocations": 4, "rows_out": 2,
                        "wall_ns": 1000}

    def test_to_json_includes_probe_fields_when_probing(self):
        stats = StepStats()
        stats.probe_calls = 2
        stats.probe_hits = 1
        stats.rows_scanned = 9
        data = stats.to_json()
        assert data["probe_calls"] == 2
        assert data["probe_misses"] == 1
        assert data["rows_scanned"] == 9

    def test_plan_analysis_allocates_per_step(self):
        analysis = PlanAnalysis(3)
        assert len(analysis.steps) == 3
        assert analysis.steps[0] is not analysis.steps[1]
        assert analysis.to_json()["executions"] == 0


class TestRenderExplain:
    def doc(self, analyze=False):
        step = {"op": "scan", "detail": "scan e(X, Y)"}
        if analyze:
            step["actual"] = {
                "invocations": 1, "rows_out": 3, "wall_ns": 1500,
                "probe_calls": 1, "probe_hits": 1, "rows_scanned": 3,
            }
        plan = {"name": "first-round", "steps": [step]}
        if analyze:
            plan["executions"] = 1
            plan["matches"] = 3
        return {
            "version": 1,
            "analyze": analyze,
            "rules": [{
                "rule": "hop", "stratum": 0,
                "streamable": True, "plans": [plan],
            }],
        }

    def test_static_render(self):
        text = render_explain(self.doc())
        assert text.startswith("EXPLAIN: 1 rule(s)")
        assert "rule hop  [stratum 0, streamable]" in text
        assert "1. scan e(X, Y)" in text
        assert "execution" not in text

    def test_analyze_render_carries_actuals(self):
        text = render_explain(self.doc(analyze=True))
        assert text.startswith("EXPLAIN ANALYZE")
        assert "(1 execution(s), 3 match(es))" in text
        assert "rows in=1 out=3" in text
        assert "probes=1/1 (100% hit)" in text
        assert "1.5us" in text

    def test_empty_program(self):
        text = render_explain({"analyze": False, "rules": []})
        assert "0 rule(s)" in text
        assert "nothing to plan" in text

    def test_empty_plan_marked_unconditional(self):
        doc = {"analyze": False, "rules": [{
            "rule": "r",
            "plans": [{"name": "first-round", "steps": []}],
        }]}
        assert "fires unconditionally" in render_explain(doc)

    def test_memory_section_appended(self):
        doc = self.doc()
        doc["memory"] = {
            "store": {
                "predicates": {"e": {
                    "facts": 3, "delta": 0,
                    "estimated_bytes": 2048, "index_entries": 3,
                }},
                "facts": 3, "estimated_bytes": 2048,
                "index_entries": 3,
            },
            "provenance": {"derivations": 2, "estimated_bytes": 512},
        }
        text = render_explain(doc)
        assert "memory:" in text
        assert "e: 3 fact(s), ~2.0 KiB, 3 index entr(ies)" in text
        assert "provenance: 2 derivation(s), ~512 B" in text

    def test_render_memory_standalone(self):
        text = render_memory({"store": {
            "predicates": {}, "facts": 0,
            "estimated_bytes": 0, "index_entries": 0,
        }})
        assert "total: 0 fact(s)" in text


class TestPeakRSS:
    def test_current_rss_is_positive_here(self):
        # Linux CI and dev boxes have /proc; the fallback still
        # returns a positive peak via getrusage.
        assert current_rss_bytes() > 0

    def test_sampler_context_manager_records_peak(self):
        with PeakRSSSampler(interval=0.001) as rss:
            ballast = [bytes(4096) for _ in range(2000)]
        assert rss.max_rss_bytes > 0
        assert ballast  # keep alive until after the edge sample

    def test_sampler_monotonic_and_restartable(self):
        sampler = PeakRSSSampler(interval=0.001)
        sampler.start()
        first = sampler.stop()
        assert first == sampler.max_rss_bytes > 0
        sampler.start()
        second = sampler.stop()
        assert second >= first  # peak never decreases in-process

    def test_synchronous_sample_without_thread(self):
        sampler = PeakRSSSampler()
        value = sampler.sample()
        assert value > 0
        assert sampler.max_rss_bytes == value


class TestChaseProgress:
    def test_stall_reported_once_per_episode(self):
        clock = FakeClock()
        progress = ChaseProgress(stall_threshold=10.0, clock=clock)
        assert progress.check_stall() is None
        clock.advance(11.0)
        stall = progress.check_stall()
        assert stall is not None
        assert stall["idle_seconds"] == pytest.approx(11.0)
        assert stall["threshold"] == 10.0
        # Same episode: quiet.
        clock.advance(100.0)
        assert progress.check_stall() is None
        assert progress.stalls == 1

    def test_recovery_ends_episode_and_allows_next(self):
        clock = FakeClock()
        progress = ChaseProgress(stall_threshold=5.0, clock=clock)
        clock.advance(6.0)
        assert progress.check_stall() is not None
        assert progress.progressed() is True  # recovery
        assert progress.stalled is False
        assert progress.progressed() is False  # plain progress
        clock.advance(6.0)
        assert progress.check_stall() is not None
        assert progress.stalls == 2

    def test_zero_threshold_stalls_immediately(self):
        clock = FakeClock()
        progress = ChaseProgress(stall_threshold=0.0, clock=clock)
        assert progress.check_stall() is not None

    def test_heartbeat_fire_rate_guards_zero_duration(self):
        progress = ChaseProgress(clock=FakeClock())
        beat = progress.heartbeat(0, 1, new_facts=10, frontier=4,
                                  seconds=0.0, total_facts=10)
        assert beat["fire_rate"] == 0.0
        beat = progress.heartbeat(0, 2, new_facts=10, frontier=4,
                                  seconds=2.0, total_facts=20)
        assert beat["fire_rate"] == pytest.approx(5.0)
        assert progress.rounds == 2
        assert progress.facts_derived == 20

    def test_event_rate_limiter(self):
        clock = FakeClock()
        progress = ChaseProgress(heartbeat_interval=5.0, clock=clock)
        assert progress.event_due() is True
        clock.advance(1.0)
        assert progress.event_due() is False
        clock.advance(4.5)
        assert progress.event_due() is True

    def test_zero_interval_always_due(self):
        progress = ChaseProgress(heartbeat_interval=0.0,
                                 clock=FakeClock())
        assert progress.event_due() is True
        assert progress.event_due() is True
