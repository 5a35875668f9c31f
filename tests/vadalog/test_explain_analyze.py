"""EXPLAIN / EXPLAIN ANALYZE through the engine and the CLI, plus the
chase-side observability hooks this PR wires in: memory gauges,
heartbeat/stall publication, and the degenerate-run plan-report fixes."""

import json

import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.errors import EvaluationError
from repro.telemetry.inspect import render_explain
from repro.vadalog import Program
from repro.vadalog.atoms import Atom
from repro.vadalog.chase import ChaseEngine

TRANSITIVE = """
e(1, 2). e(2, 3). e(3, 4).
@label("base").
path(X, Y) :- e(X, Y).
@label("step").
path(X, Z) :- path(X, Y), e(Y, Z).
@output("path").
"""


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


class TestStaticExplain:
    def test_document_shape(self):
        program = Program.parse(TRANSITIVE)
        engine = ChaseEngine(program.rules)
        doc = engine.explain()
        assert doc["version"] == 1
        assert doc["analyze"] is False
        assert [r["rule"] for r in doc["rules"]] == ["base", "step"]
        base = doc["rules"][0]
        assert base["stratum"] == 0
        names = [p["name"] for p in base["plans"]]
        assert names == ["first-round", "delta[0:e]"]
        first_step = base["plans"][0]["steps"][0]
        assert first_step["op"] == "scan"
        assert first_step["predicate"] == "e"
        assert first_step["delta_only"] is False
        assert "actual" not in first_step

    def test_probe_layout_surfaces_key_positions(self):
        program = Program.parse(TRANSITIVE)
        doc = ChaseEngine(program.rules).explain()
        step_rule = doc["rules"][1]
        probe = step_rule["plans"][0]["steps"][1]
        assert probe["op"] == "scan"
        assert probe["key_positions"] == [0]
        assert "probe" in probe["detail"]

    def test_unplannable_rule_carries_reason(self):
        # An assignment reading a variable only an external binds can
        # never be evaluated: compiling the rule rejects it, naming
        # the assignment.
        source = (
            "out(Q) :- #gen(X), Q = X + 1.\n@output(\"out\").\n"
        )
        program = Program.parse(source)
        with pytest.raises(EvaluationError, match="assignment to Q .*"
                           "depends on external-only variables"):
            ChaseEngine(program.rules).explain()

    def test_empty_program(self):
        doc = ChaseEngine([]).explain()
        assert doc["rules"] == []
        assert "0 rule(s)" in render_explain(doc)

    def test_document_is_json_serializable(self):
        program = Program.parse(TRANSITIVE)
        doc = ChaseEngine(program.rules).explain()
        assert json.loads(json.dumps(doc)) == doc


class TestAnalyze:
    def test_actuals_recorded_per_step(self):
        result = Program.parse(TRANSITIVE).run(
            preflight=False, analyze=True
        )
        doc = result.explain_report
        assert doc["analyze"] is True
        base = next(r for r in doc["rules"] if r["rule"] == "base")
        first = base["plans"][0]
        assert first["executions"] == 1
        assert first["matches"] == 3  # e has 3 facts
        actual = first["steps"][0]["actual"]
        assert actual["rows_out"] == 3
        assert actual["probe_calls"] == 1
        assert actual["probe_hits"] == 1
        assert actual["rows_scanned"] == 3
        assert actual["wall_ns"] > 0

    def test_stats_explain_section(self):
        result = Program.parse(TRANSITIVE).run(
            preflight=False, analyze=True
        )
        assert result.stats["explain"] is result.explain_report
        assert json.loads(json.dumps(result.stats["explain"]))

    def test_analyze_does_not_change_results(self):
        plain = Program.parse(TRANSITIVE).run(preflight=False)
        analyzed = Program.parse(TRANSITIVE).run(
            preflight=False, analyze=True
        )
        assert frozenset(plain.facts()) == frozenset(analyzed.facts())
        assert plain.rounds == analyzed.rounds

    def test_analyze_with_telemetry_enabled(self):
        # The two-phase (metrics) path must collect actuals too.
        telemetry.enable()
        result = Program.parse(TRANSITIVE).run(
            preflight=False, analyze=True
        )
        doc = result.explain_report
        step_rule = next(
            r for r in doc["rules"] if r["rule"] == "step"
        )
        executed = [p for p in step_rule["plans"]
                    if p.get("executions")]
        assert executed, "no step-rule plan recorded executions"

    def test_no_analyze_no_report(self):
        result = Program.parse(TRANSITIVE).run(preflight=False)
        assert result.explain_report is None
        assert "explain" not in result.stats

    def test_analyze_survives_plan_fallback(self):
        # A pushed-down expression raising on a masked row must not
        # break ANALYZE's run or its document.  (Mutual recursion puts
        # the bad e-fact into a delta round where the division raises
        # on a binding f never completes — see TestBatchedErrorMasking
        # in test_columnar.)
        source = (
            'f(1). e(1, 1). seed(2).\n'
            'out(Q) :- e(X, Y), Q = X / Y, f(X).\n'
            'e(X, 0) :- out(Q), seed(X).\n@output("out").\n'
        )
        result = Program.parse(source).run(
            preflight=False, analyze=True
        )
        assert sorted(result.tuples("out")) == [(1.0,)]
        assert result.explain_report["rules"]


class TestDegeneratePlanReports:
    """Satellite: --rule-profile / stats["plans"] on degenerate runs."""

    def test_plans_available_without_telemetry(self):
        # Before this PR stats["plans"] existed only on telemetry runs.
        result = Program.parse(TRANSITIVE).run(preflight=False)
        assert not telemetry.state.enabled
        assert "base" in result.stats["plans"]
        assert "first-round" in result.stats["plans"]["base"]

    def test_empty_program_yields_empty_report(self):
        result = ChaseEngine([]).run([Atom.of("e", 1)])
        assert result.plan_report == {}
        assert result.stats["plans"] == {}

    def test_zero_firing_run_keeps_report(self):
        # No facts: nothing fires, the plan report must still render.
        program = Program.parse(
            'out(X) :- e(X).\n@output("out").\n'
        )
        result = program.run(preflight=False)
        assert result.rounds >= 1
        assert "rule_0" in result.stats["plans"]

    def test_rule_profile_renders_on_empty_registry(self):
        # Divide-by-zero guard: no per-rule cost recorded at all.
        profile = telemetry.RuleProfile.from_registry(
            telemetry.MetricsRegistry()
        )
        text = profile.render()
        assert "no per-rule cost recorded" in text

    def test_cli_rule_profile_on_empty_program(self, tmp_path, capsys):
        path = tmp_path / "empty.vada"
        path.write_text("e(1).\n")
        exit_code = cli_main(
            ["--rule-profile", "engine", str(path), "--no-preflight"]
        )
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "compiled join plans" in err
        assert "nothing was planned" in err

    def test_cli_rejects_external_only_assignment(self, tmp_path,
                                                  capsys):
        path = tmp_path / "p.vada"
        path.write_text("out(Q) :- #gen(X), Q = X + 1.\n")
        exit_code = cli_main(["engine", str(path), "--no-preflight"])
        assert exit_code == 3
        assert "external-only" in capsys.readouterr().err


class TestMemoryAccounting:
    def test_store_memory_stats_shape(self):
        result = Program.parse(TRANSITIVE).run(preflight=False)
        report = result.store.memory_stats()
        assert set(report) == {
            "predicates", "facts", "estimated_bytes", "index_entries",
            "column_bytes",
        }
        assert report["facts"] == len(result.store)
        assert report["estimated_bytes"] > 0
        path_info = report["predicates"]["path"]
        assert path_info["facts"] == result.store.count("path")
        assert path_info["estimated_bytes"] > 0

    def test_empty_store_memory_stats(self):
        from repro.vadalog.database import FactStore

        report = FactStore().memory_stats()
        assert report == {
            "predicates": {}, "facts": 0,
            "estimated_bytes": 0, "index_entries": 0,
            "column_bytes": 0,
        }

    def test_frontier_size_tracks_delta(self):
        from repro.vadalog.database import FactStore

        store = FactStore([Atom.of("e", 1), Atom.of("e", 2)])
        store.advance_delta()
        assert store.frontier_size() == 2
        store.advance_delta()
        assert store.frontier_size() == 0

    def test_memory_gauges_in_telemetry_snapshot(self):
        telemetry.enable()
        result = Program.parse(TRANSITIVE).run(preflight=False)
        gauges = result.stats["telemetry"]["gauges"]
        assert gauges['store.predicate_facts{predicate=path}'] == \
            result.store.count("path")
        assert gauges["store.estimated_bytes"] > 0
        assert gauges["provenance.entries"] == len(result.provenance)
        assert gauges["provenance.estimated_bytes"] > 0


class TestLiveProgress:
    def test_heartbeat_gauges_on_global_registry(self):
        telemetry.enable()
        Program.parse(TRANSITIVE).run(preflight=False)
        gauges = telemetry.snapshot()["gauges"]
        assert gauges["chase.heartbeat.round"] >= 1
        assert gauges["chase.heartbeat.frontier"] == 0  # fixpoint
        assert gauges["chase.heartbeat.facts"] > 0
        assert "chase.heartbeat.fire_rate" in gauges

    def test_heartbeat_events_emitted(self):
        telemetry.enable(events=True)
        Program.parse(TRANSITIVE).run(preflight=False)
        beats = telemetry.events().tail("heartbeat")
        assert beats, "no heartbeat events"
        payload = beats[0]["payload"]
        assert {"stratum", "round", "new_facts", "frontier",
                "fire_rate", "total_facts", "stalled"} <= set(payload)

    def test_heartbeat_interval_rate_limits_events(self):
        telemetry.enable(events=True)
        program = Program.parse(TRANSITIVE)
        program.run(preflight=False)
        every_round = len(telemetry.events().tail("heartbeat"))
        assert every_round >= 2
        telemetry.reset()
        telemetry.enable(events=True)
        program.run(preflight=False, analyze=False)
        # A huge interval lets only the first event through.
        from repro.vadalog.database import FactStore

        engine = ChaseEngine(
            program.rules, heartbeat_interval=3600.0
        )
        engine.run(FactStore(program.facts))
        limited = [
            e for e in telemetry.events().tail("heartbeat")
        ]
        # The direct-engine run contributed exactly one event.
        assert len(limited) == every_round + 1

    def test_stall_event_and_gauge(self):
        telemetry.enable(events=True)
        # Threshold 0: every non-firing rule application reports a
        # stall episode immediately; the next firing recovers.
        Program.parse(TRANSITIVE).run(
            preflight=False, max_rounds=100
        )
        engine = ChaseEngine(
            Program.parse(TRANSITIVE).rules, stall_threshold=0.0
        )
        from repro.vadalog.database import FactStore

        engine.run(FactStore(Program.parse(TRANSITIVE).facts))
        stalls = telemetry.events().tail("stall")
        assert stalls, "zero threshold produced no stall events"
        payload = stalls[0]["payload"]
        assert payload["threshold"] == 0.0
        assert {"rule", "stratum", "round"} <= set(payload)
        gauges = telemetry.snapshot()["gauges"]
        assert "chase.stalled" in gauges

    def test_no_heartbeat_when_disabled(self):
        Program.parse(TRANSITIVE).run(preflight=False)
        assert "chase.heartbeat.round" not in telemetry.snapshot().get(
            "gauges", {}
        )

    def test_heartbeat_visible_through_metrics_http(self):
        import urllib.request

        telemetry.enable()
        Program.parse(TRANSITIVE).run(preflight=False)
        with telemetry.MetricsHTTPServer(port=0) as server:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics", timeout=5
            ) as response:
                body = response.read().decode("utf-8")
        assert "repro_chase_heartbeat_round" in body
        assert "repro_chase_heartbeat_frontier" in body


class TestExplainCli:
    def write_program(self, tmp_path):
        path = tmp_path / "prog.vada"
        path.write_text(TRANSITIVE)
        return path

    def test_static_explain(self, tmp_path, capsys):
        path = self.write_program(tmp_path)
        assert cli_main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN: 2 rule(s)")
        assert "rule base" in out
        assert "delta-scan" in out
        assert "execution" not in out

    def test_analyze_explain_prints_actuals(self, tmp_path, capsys):
        path = self.write_program(tmp_path)
        assert cli_main(["explain", str(path), "--analyze"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN ANALYZE")
        assert "execution(s)" in out
        assert "rows in=" in out
        assert "memory:" in out
        assert "provenance:" in out

    def test_json_export(self, tmp_path, capsys):
        path = self.write_program(tmp_path)
        json_path = tmp_path / "explain.json"
        assert cli_main([
            "explain", str(path), "--analyze", "--json", str(json_path)
        ]) == 0
        doc = json.loads(json_path.read_text())
        assert doc["analyze"] is True
        assert doc["memory"]["store"]["facts"] > 0
        assert doc["memory"]["provenance"]["derivations"] > 0
        assert [r["rule"] for r in doc["rules"]] == ["base", "step"]
        err = capsys.readouterr().err
        assert f"explain document written to {json_path}" in err

    def test_preflight_gate_applies(self, tmp_path, capsys):
        path = tmp_path / "bad.vada"
        # Unstratifiable negation: VDL010, error severity.
        path.write_text(
            "p(X) :- b(X), not q(X).\n"
            "q(X) :- b(X), not p(X).\n"
            "b(1).\n"
        )
        # The CLI's error boundary reports the StaticAnalysisError as
        # one line and exit 3.
        assert cli_main(["explain", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "VDL010" in err
        # --no-preflight skips the gate and explains anyway.
        assert cli_main(["explain", str(path), "--no-preflight"]) == 0
        assert "EXPLAIN: 2 rule(s)" in capsys.readouterr().out
