"""The chase: stratified semi-naive evaluation with existentials,
stratified negation, monotonic aggregation and external predicates.

Semantics implemented here:

* **Restricted chase** for existential rules: a head conjunction with
  fresh labelled nulls is only asserted when it has no joint
  homomorphic image in the current store — the standard termination
  device for warded programs.
* **Stratified negation**: negative literals are checked against the
  saturated lower strata (enforced by stratification).
* **Monotonic aggregation** with contributor semantics: aggregate
  predicates are *functional* per group — when a group's value improves
  the previously emitted fact is retracted and replaced, so downstream
  joins always see the most accurate value.  Recursion through
  aggregates is allowed (the ownership-closure rules of Section 4.4
  depend on it).
* **External predicates** (``#``-prefixed) resolved through the
  registry; externals may inject facts (``#anonymize``), which re-enter
  the semi-naive frontier.
* **Routing strategies** order candidate bindings before firing
  (Section 4.4 runtime heuristics).
* **EGDs** are enforced at the end of every round of the stratum
  containing them; constant clashes are collected as violations.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, \
    Tuple

from .. import telemetry
from ..errors import EvaluationError
from ..telemetry.inspect import ChaseProgress, PlanAnalysis
from ..telemetry.metrics import MetricsRegistry
from .atoms import Fact
from .aggregates import AggregateState
from .columnar import _RowView, execute_batch
from .database import FactStore, columnar_default_enabled
from .egd import EGDViolation, enforce_egds
from .expressions import TupleExpr, VarRef
from .explain import ProvenanceLog
from .externals import ExternalContext, ExternalRegistry
from .negation import stratify
from .plans import (
    MaskRecord,
    RulePlans,
    compile_rule_plans,
    deferred_conditions,
)
from .routing import RoutingTable, fifo_strategy
from .rules import EGD, Rule
from .terms import Constant, LabelledNull, NullFactory, Term, Variable, unwrap
from .unification import Substitution, conjunction_has_image


class ChaseResult:
    """Outcome of a reasoning task: the derived extensional component."""

    def __init__(
        self,
        store: FactStore,
        provenance: ProvenanceLog,
        null_factory: NullFactory,
        egd_violations: List[EGDViolation],
        rounds: int,
        telemetry_snapshot: Optional[Dict] = None,
        plan_report=None,
        explain_report: Optional[Dict] = None,
    ):
        self.store = store
        self.provenance = provenance
        self.null_factory = null_factory
        self.egd_violations = egd_violations
        self.rounds = rounds
        self._telemetry_snapshot = telemetry_snapshot
        #: rule label -> {plan name -> step descriptions}, or a
        #: zero-argument callable producing it (resolved lazily so a
        #: telemetry-free run pays nothing unless someone looks).
        self._plan_report = plan_report
        #: Engine explain document (see ``ChaseEngine.explain``);
        #: populated when the run executed with ``analyze=True``.
        self.explain_report = explain_report

    @property
    def plan_report(self) -> Optional[Dict[str, Dict[str, List[str]]]]:
        """rule label -> {plan name -> step descriptions}; available
        whenever the run used compiled plans (telemetry or not)."""
        if callable(self._plan_report):
            self._plan_report = self._plan_report()
        return self._plan_report

    @property
    def stats(self) -> Dict[str, object]:
        """Run statistics; includes a ``telemetry`` section (per-rule
        firing counts, nulls introduced, timing histograms) when the
        run executed with :mod:`repro.telemetry` enabled, and an
        ``explain`` section when it ran with ``analyze=True``."""
        data: Dict[str, object] = {
            "rounds": self.rounds,
            "facts": len(self.store),
            "nulls_introduced": self.null_factory.issued,
            "egd_violations": len(self.egd_violations),
            "derivations": len(self.provenance),
        }
        if self._telemetry_snapshot is not None:
            data["telemetry"] = self._telemetry_snapshot
        if self.plan_report is not None:
            data["plans"] = self.plan_report
        if self.explain_report is not None:
            data["explain"] = self.explain_report
        return data

    def facts(self, predicate: Optional[str] = None):
        return self.store.facts(predicate)

    def output_facts(self, outputs: Sequence[str]):
        """Facts restricted to the program's ``@output`` predicates."""
        for predicate in outputs:
            yield from self.store.facts(predicate)

    def query(self, pattern: str) -> List[Dict[str, object]]:
        """Match an atom pattern against the result, e.g.
        ``result.query("path(X, b)")`` returns one dict per match,
        mapping variable names to plain Python values.

        The pattern uses the same term syntax as rule bodies: uppercase
        identifiers are variables, everything else constants.
        """
        from .parser.parser import Parser

        parser = Parser(pattern.strip().rstrip(".") + ".")
        tokens_atom = parser._parse_atom()
        bound = {
            position: term
            for position, term in enumerate(tokens_atom.terms)
            if not isinstance(term, Variable)
        }
        answers: List[Dict[str, object]] = []
        from .unification import match_atom

        for fact in self.store.lookup(tokens_atom.predicate, bound):
            bindings = match_atom(tokens_atom, fact, {})
            if bindings is None:
                continue
            answers.append(
                {
                    variable.name: unwrap(value)
                    for variable, value in bindings.items()
                }
            )
        return answers

    def tuples(self, predicate: str) -> List[Tuple]:
        """All facts of a predicate as tuples of plain Python values
        (labelled nulls pass through as :class:`LabelledNull`)."""
        return [
            tuple(unwrap(term) for term in fact.terms)
            for fact in self.store.facts(predicate)
        ]

    def explain(self, fact: Fact, max_depth: int = 12,
                max_nodes: int = 10_000):
        return self.provenance.explain(
            fact, max_depth=max_depth, max_nodes=max_nodes
        )

    @property
    def nulls_introduced(self) -> int:
        return self.null_factory.issued


class _Binding:
    """A successful body match: substitution plus matched premises."""

    __slots__ = ("substitution", "premises")

    def __init__(self, substitution: Substitution, premises: List[Fact]):
        self.substitution = substitution
        self.premises = premises


def _tuple_column(columns: List[List[Term]], n: int) -> List[Tuple]:
    """Row-wise tuples over parallel term columns, built column-at-a-time."""
    if not columns:
        return [()] * n
    if len(columns) == 1:
        return [(value,) for value in columns[0]]
    return list(zip(*columns))


def _contribution_column(argument, cols, n: int) -> List[Any]:
    """Evaluate an aggregate's contribution argument over a whole batch.

    Bare variable references and tuples of them — the shapes the
    paper's programs use (``mcount``'s implicit 1, ``munion((A, V))``)
    — evaluate without touching the per-row expression interpreter;
    anything else falls back to row-at-a-time evaluation."""
    if argument is None:
        return [1] * n
    if type(argument) is VarRef:
        column = cols.get(argument.variable)
        if column is not None:
            return [unwrap(term) for term in column]
    elif type(argument) is TupleExpr and all(
        type(item) is VarRef for item in argument.items
    ):
        item_cols = [cols.get(item.variable) for item in argument.items]
        if all(column is not None for column in item_cols):
            return _tuple_column(
                [[unwrap(term) for term in column] for column in item_cols],
                n,
            )
    view = _RowView(cols)
    out = []
    for i in range(n):
        view.i = i
        out.append(argument.evaluate(view))
    return out


class ChaseEngine:
    """Evaluates a set of rules (and EGDs) over an input fact store."""

    def __init__(
        self,
        rules: Sequence[Rule],
        egds: Sequence[EGD] = (),
        externals: Optional[ExternalRegistry] = None,
        routing: Optional[RoutingTable] = None,
        provenance: bool = True,
        max_rounds: int = 10_000,
        max_facts: int = 5_000_000,
        strict_egds: bool = False,
        null_factory: Optional[NullFactory] = None,
        termination: str = "restricted",
        listener=None,
        preflight: bool = False,
        analyze: bool = False,
        heartbeat_interval: Optional[float] = None,
        stall_threshold: Optional[float] = None,
        use_columnar: Optional[bool] = None,
        columnar_threshold: Optional[int] = None,
    ):
        if termination not in ("restricted", "isomorphic"):
            raise EvaluationError(
                f"unknown termination strategy {termination!r}; use "
                "'restricted' or 'isomorphic'"
            )
        if preflight:
            # Engine-level escape hatch mirror of Program.run(preflight=):
            # callers constructing an engine from bare rules can still
            # ask for the static analyzer gate.
            from .program import Program

            Program(rules=rules, egds=egds).preflight()
        self.termination = termination
        #: Optional audit hook: called as listener(rule_label, facts,
        #: premises) for every successful firing that added facts.
        self.listener = listener
        self.rules = list(rules)
        self.egds = list(egds)
        self.externals = externals or ExternalRegistry()
        self.routing = routing or RoutingTable()
        self.provenance_enabled = provenance
        self.max_rounds = max_rounds
        self.max_facts = max_facts
        self.strict_egds = strict_egds
        self._null_factory = null_factory
        # Negative labels for restricted-chase trial nulls; these are
        # never stored and never counted as injected.
        self._placeholder_label = 0
        # Stable metric label per rule (telemetry): @label when given.
        self._rule_names = {
            id(rule): rule.label or f"rule_{index}"
            for index, rule in enumerate(self.rules)
        }
        self.analyze = analyze
        # Columnar backend switch: storage promotion on stores this
        # engine constructs, plus batched plan execution (off: the
        # compiled plans run tuple-at-a-time over dict relations).
        if use_columnar is None:
            use_columnar = columnar_default_enabled()
        self.use_columnar = use_columnar
        self.columnar_threshold = columnar_threshold
        # Live-progress knobs: how often heartbeat *events* may fire
        # (gauges refresh every round regardless; 0 = every round) and
        # how long the chase may go without any rule firing before a
        # stall is reported.  Only consulted when telemetry is on.
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else float(os.environ.get("CHASE_HEARTBEAT_INTERVAL", "0"))
        )
        self.stall_threshold = (
            stall_threshold
            if stall_threshold is not None
            else float(os.environ.get("CHASE_STALL_THRESHOLD", "30"))
        )
        # id(rule) -> RulePlans; survives across run() calls so a
        # reused engine pays compilation once.
        self._plan_cache: Dict[int, RulePlans] = {}
        # id(rule) -> sorted non-anonymous variable order for batch
        # dedup keys, and -> bulk-fire mode ('facts'/'aggregates'/
        # None); both are static per rule.
        self._dedup_orders: Dict[int, List[Variable]] = {}
        self._batch_fire_modes: Dict[int, Optional[str]] = {}
        # id(JoinPlan) -> PlanAnalysis, reset per run (ANALYZE only).
        self._plan_analysis: Dict[int, PlanAnalysis] = {}
        # Per-run metrics registry; None while telemetry is disabled so
        # the hot paths pay one attribute check and nothing else.
        self._metrics: Optional[MetricsRegistry] = None
        # Structured event log (None unless telemetry attached one) and
        # the stratum/round the engine is currently in, for decision
        # events ("rule R derived N facts in round K of stratum S").
        self._events = None
        self._stratum_index = 0
        self._round = 0

    # -- public API ------------------------------------------------------

    def run(self, facts: Iterable[Fact]) -> ChaseResult:
        """Run the reasoning task over the given extensional facts."""
        store = (
            facts
            if isinstance(facts, FactStore)
            else FactStore(
                facts,
                columnar=self.use_columnar,
                columnar_threshold=self.columnar_threshold,
            )
        )
        provenance = ProvenanceLog(enabled=self.provenance_enabled)
        null_factory = self._null_factory or NullFactory()
        context = ExternalContext(store, null_factory)
        violations: List[EGDViolation] = []
        strata = stratify(self.rules) if self.rules else []
        total_rounds = 0

        metrics = MetricsRegistry() if telemetry.state.enabled else None
        self._metrics = metrics
        self._events = (
            telemetry.state.events if telemetry.state.enabled else None
        )
        if self.analyze:
            self._plan_analysis = {}
        # Live progress (heartbeat + stall detection) rides the same
        # switch as metrics: None while telemetry is off, so disabled
        # runs never touch a clock.  ANALYZE alone does not enable it.
        progress = (
            ChaseProgress(
                stall_threshold=self.stall_threshold,
                heartbeat_interval=self.heartbeat_interval,
            )
            if metrics is not None
            else None
        )
        self._compile_plans(metrics)
        run_start = time.perf_counter_ns() if metrics is not None else 0
        nulls_before = null_factory.issued
        if metrics is not None:
            for stratum_index, stratum in enumerate(strata):
                for rule in stratum:
                    metrics.gauge(
                        "chase.rule_stratum",
                        rule=self._rule_names[id(rule)],
                    ).set(stratum_index)

        with telemetry.span(
            "chase.run", rules=len(self.rules), strata=len(strata),
            input_facts=len(store),
        ) as run_span:
            for stratum_index, stratum in enumerate(strata):
                # Per-stratum aggregate state and last-emitted aggregate
                # facts (for functional replacement).
                aggregate_states: Dict[Tuple[int, int], AggregateState] = {}
                emitted_aggregates: Dict[Tuple[int, int, Tuple], Fact] = {}
                store.reset_delta_to_all()
                rounds = 0
                with telemetry.span(
                    "chase.stratum", stratum=stratum_index,
                    rules=len(stratum),
                ) as stratum_span:
                    while True:
                        rounds += 1
                        total_rounds += 1
                        self._stratum_index = stratum_index
                        self._round = rounds
                        if rounds > self.max_rounds:
                            raise EvaluationError(
                                f"chase exceeded {self.max_rounds} rounds "
                                "in one stratum; the program may not "
                                "terminate"
                            )
                        round_start = (
                            time.perf_counter_ns()
                            if metrics is not None else 0
                        )
                        facts_before = len(store)
                        changed = False
                        with telemetry.span(
                            "chase.round", stratum=stratum_index,
                            round=rounds,
                        ) as round_span:
                            for rule_index, rule in enumerate(stratum):
                                fired = self._apply_rule(
                                    rule,
                                    rule_index,
                                    store,
                                    provenance,
                                    null_factory,
                                    context,
                                    aggregate_states,
                                    emitted_aggregates,
                                    first_round=(rounds == 1),
                                )
                                changed = fired or changed
                                if progress is not None:
                                    self._track_progress(
                                        progress, fired, rule
                                    )
                                if len(store) > self.max_facts:
                                    raise EvaluationError(
                                        f"chase exceeded {self.max_facts} "
                                        "facts; aborting as a "
                                        "non-termination guard"
                                    )
                            round_span.set(
                                new_facts=len(store) - facts_before
                            )
                        round_ns = 0
                        if metrics is not None:
                            round_ns = (
                                time.perf_counter_ns() - round_start
                            )
                            metrics.counter("chase.iterations").inc()
                            metrics.histogram("chase.round_ns").observe(
                                round_ns
                            )
                        store.advance_delta()
                        if progress is not None:
                            self._publish_heartbeat(
                                progress,
                                stratum_index,
                                rounds,
                                new_facts=len(store) - facts_before,
                                frontier=store.frontier_size(),
                                seconds=round_ns / 1e9,
                                total_facts=len(store),
                            )
                        if self.egds:
                            new_violations = enforce_egds(
                                self.egds, store, strict=self.strict_egds
                            )
                            violations.extend(new_violations)
                        if not store.has_delta():
                            break
                    stratum_span.set(rounds=rounds)

            if not strata and self.egds:
                # EGD-only program: enforce once over extensional facts.
                violations.extend(
                    enforce_egds(self.egds, store, strict=self.strict_egds)
                )

            store.advance_delta()
            run_span.set(
                rounds=total_rounds,
                facts=len(store),
                nulls_introduced=null_factory.issued - nulls_before,
                egd_violations=len(violations),
            )

        snapshot = None
        if metrics is not None:
            metrics.counter("chase.runs").inc()
            metrics.counter("chase.egd_violations").inc(len(violations))
            metrics.gauge("chase.facts").set(len(store))
            metrics.histogram("chase.run_ns").observe(
                time.perf_counter_ns() - run_start
            )
            self._record_memory_gauges(metrics, store, provenance)
            snapshot = metrics.snapshot()
            telemetry.state.registry.merge(metrics)
            self._metrics = None
        self._events = None
        explain_report = self.explain() if self.analyze else None
        return ChaseResult(
            store, provenance, null_factory, violations, total_rounds,
            telemetry_snapshot=snapshot,
            # Lazy: describing every plan is pure rendering work, so it
            # runs only if someone actually reads result.plan_report —
            # and it is available on telemetry-free runs too.
            plan_report=self.plan_report,
            explain_report=explain_report,
        )

    # -- compiled plans ----------------------------------------------------

    def _compile_plans(self, metrics: Optional[MetricsRegistry]) -> None:
        """Compile every rule's join plans once per engine (cached
        across runs); see :mod:`repro.vadalog.plans`."""
        for rule in self.rules:
            if id(rule) in self._plan_cache:
                if metrics is not None:
                    metrics.counter("chase.plan_cache_hits").inc()
                continue
            start = time.perf_counter_ns() if metrics is not None else 0
            plans = compile_rule_plans(rule)
            self._plan_cache[id(rule)] = plans
            if metrics is not None:
                metrics.histogram("chase.plan_compile_ns").observe(
                    time.perf_counter_ns() - start
                )
                metrics.counter("chase.plans_compiled").inc()

    def plan_report(self) -> Dict[str, Dict[str, List[str]]]:
        """Step-by-step description of every compiled plan, keyed by
        rule label — the ``--rule-profile`` plan dump."""
        report: Dict[str, Dict[str, List[str]]] = {}
        for rule in self.rules:
            plans = self._plan_cache.get(id(rule))
            if plans is not None:
                report[self._rule_names[id(rule)]] = plans.describe()
        return report

    def explain(self) -> Dict[str, Any]:
        """The engine's explain document: every compiled plan as
        structured JSON, annotated with per-step actuals when the
        engine ran with ``analyze=True``.  Render it with
        :func:`repro.telemetry.inspect.render_explain`."""
        self._compile_plans(self._metrics)
        try:
            strata = stratify(self.rules) if self.rules else []
        except Exception:
            # Unstratifiable programs still get a static explain —
            # the chase would reject them, the plan dump should not.
            strata = []
        stratum_of = {
            id(rule): index
            for index, stratum in enumerate(strata)
            for rule in stratum
        }
        rules_doc: List[Dict[str, Any]] = []
        for rule in self.rules:
            plans = self._plan_cache.get(id(rule))
            if plans is None:  # pragma: no cover — cache is eager
                continue
            entry = plans.explain()
            entry["rule"] = self._rule_names[id(rule)]
            entry["stratum"] = stratum_of.get(id(rule))
            if self.analyze:
                for (name, plan), plan_doc in zip(
                    plans.named_plans(), entry["plans"]
                ):
                    analysis = self._plan_analysis.get(id(plan))
                    if analysis is None:
                        continue
                    plan_doc["executions"] = analysis.executions
                    plan_doc["matches"] = analysis.matches
                    for step_doc, stats in zip(
                        plan_doc["steps"], analysis.steps
                    ):
                        step_doc["actual"] = stats.to_json()
            rules_doc.append(entry)
        return {
            "version": 1,
            "analyze": bool(self.analyze),
            "rules": rules_doc,
        }

    def _analysis_for(self, plan) -> PlanAnalysis:
        analysis = self._plan_analysis.get(id(plan))
        if analysis is None:
            analysis = PlanAnalysis(len(plan.steps))
            self._plan_analysis[id(plan)] = analysis
        return analysis

    # -- live progress -----------------------------------------------------

    def _track_progress(self, progress, fired: bool, rule: Rule) -> None:
        """Per-rule stall bookkeeping (telemetry-on runs only)."""
        if fired:
            if progress.progressed():
                # Recovery ends the stall episode on the live gauge.
                telemetry.state.registry.gauge("chase.stalled").set(0)
            return
        stall = progress.check_stall()
        if stall is None:
            return
        telemetry.state.registry.gauge("chase.stalled").set(1)
        if self._metrics is not None:
            self._metrics.counter("chase.stalls").inc()
        if self._events is not None:
            self._events.emit(
                "stall",
                stratum=self._stratum_index,
                round=self._round,
                rule=self._rule_names.get(id(rule), rule.label or "?"),
                idle_seconds=round(stall["idle_seconds"], 6),
                threshold=stall["threshold"],
            )

    def _publish_heartbeat(
        self,
        progress,
        stratum: int,
        round_: int,
        new_facts: int,
        frontier: int,
        seconds: float,
        total_facts: int,
    ) -> None:
        """End-of-round heartbeat: live gauges on the *global* registry
        (so a concurrent ``/metrics`` scrape sees mid-run state) plus a
        rate-limited JSONL event."""
        beat = progress.heartbeat(
            stratum, round_, new_facts, frontier, seconds, total_facts
        )
        live = telemetry.state.registry
        live.gauge("chase.heartbeat.stratum").set(stratum)
        live.gauge("chase.heartbeat.round").set(round_)
        live.gauge("chase.heartbeat.frontier").set(frontier)
        live.gauge("chase.heartbeat.new_facts").set(new_facts)
        live.gauge("chase.heartbeat.fire_rate").set(
            round(beat["fire_rate"], 3)
        )
        live.gauge("chase.heartbeat.facts").set(total_facts)
        if self._events is not None and progress.event_due():
            beat["fire_rate"] = round(beat["fire_rate"], 3)
            self._events.emit("heartbeat", **beat)

    def _record_memory_gauges(
        self,
        metrics: MetricsRegistry,
        store: FactStore,
        provenance: ProvenanceLog,
    ) -> None:
        """End-of-run memory accounting: per-predicate cardinality and
        estimated bytes, index-entry counts, provenance-log size."""
        report = store.memory_stats()
        for name, info in report["predicates"].items():
            metrics.gauge(
                "store.predicate_facts", predicate=name
            ).set(info["facts"])
            metrics.gauge(
                "store.predicate_bytes", predicate=name
            ).set(info["estimated_bytes"])
        metrics.gauge("store.estimated_bytes").set(
            report["estimated_bytes"]
        )
        metrics.gauge("store.index_entries").set(
            report["index_entries"]
        )
        metrics.gauge("provenance.entries").set(len(provenance))
        metrics.gauge("provenance.estimated_bytes").set(
            provenance.estimated_bytes()
        )

    def _applicable_plans(
        self, plans: RulePlans, store: FactStore, first_round: bool
    ):
        """The plans a rule application executes: the first-round plan
        when every fact is frontier (or the rule has no positive
        literal), otherwise one delta plan per positive literal with a
        non-empty frontier."""
        if not plans.has_positives or first_round:
            yield plans.first_round
            return
        for _index, predicate, plan in plans.delta_plans:
            if store.delta(predicate):
                yield plan

    def _planned_bindings(
        self,
        plans: RulePlans,
        store: FactStore,
        first_round: bool,
        seen: Set[Tuple],
        masks: Optional[List[MaskRecord]] = None,
    ):
        """Yield deduplicated ``(substitution, premises)`` pairs from
        the applicable plans."""
        for plan in self._applicable_plans(plans, store, first_round):
            yield from self._planned_unique(plan, store, seen, masks)

    def _planned_unique(self, plan, store, seen: Set[Tuple], masks):
        """Filter a plan's matches through one dedup key (sorted
        non-anonymous variable/value pairs), shared across a rule's
        delta plans."""
        if self.analyze:
            matches = plan.execute_analyzed(
                store, self._analysis_for(plan), masks
            )
        else:
            matches = plan.execute(store, masks)
        for substitution, premises in matches:
            key = tuple(sorted(
                (
                    (variable.name, value)
                    for variable, value in substitution.items()
                    if not variable.is_anonymous
                ),
                key=lambda pair: pair[0],
            ))
            if key in seen:
                continue
            seen.add(key)
            yield substitution, premises

    # -- batched execution -------------------------------------------------

    def _dedup_order(self, rule: Rule) -> List[Variable]:
        """The rule's bound variables in sorted-name order — the fixed
        column order batch dedup keys use.  Equivalent to the per-row
        ``sorted()`` the row path pays: every plan of a rule binds the
        same variable set (non-anonymous positive-body variables plus
        assignment targets)."""
        order = self._dedup_orders.get(id(rule))
        if order is None:
            bound: Set[Variable] = set()
            for lit in rule.body:
                if not lit.negated and not lit.atom.is_external:
                    bound.update(
                        v for v in lit.variables() if not v.is_anonymous
                    )
            bound.update(a.target for a in rule.assignments)
            order = sorted(bound, key=lambda v: v.name)
            self._dedup_orders[id(rule)] = order
        return order

    def _enumerate_batched(
        self,
        plans: RulePlans,
        store: FactStore,
        first_round: bool,
        order: List[Variable],
        masks: Optional[List[MaskRecord]],
    ) -> List[_Binding]:
        """Batched counterpart of the row path in
        :meth:`_enumerate_bindings`: run each applicable plan as one
        vectorized pipeline over the whole frontier, then materialize
        the deduped binding list."""
        metrics = self._metrics
        track = self.provenance_enabled or self.listener is not None
        results: List[_Binding] = []
        seen: Set[Tuple] = set()
        for plan in self._applicable_plans(plans, store, first_round):
            analysis = self._analysis_for(plan) if self.analyze else None
            batch = execute_batch(
                plan, store, track_premises=track,
                analysis=analysis, masks=masks,
            )
            if metrics is not None:
                metrics.counter("chase.batch_executions").inc()
                metrics.counter("chase.batch_rows").inc(batch.n)
            if not batch.n:
                continue
            cols = batch.cols
            key_cols = [cols[variable] for variable in order]
            for i in range(batch.n):
                key = tuple(col[i] for col in key_cols)
                if key in seen:
                    continue
                seen.add(key)
                results.append(_Binding(batch.row(i), batch.premises_row(i)))
        return results

    def _report_masks(
        self, rule: Rule, masks: List[MaskRecord]
    ) -> None:
        """Surface error masking (either backend): a counter per rule
        and one schema-versioned ``batch_mask`` event per masked
        step."""
        name = self._rule_names.get(id(rule), rule.label or "?")
        for record in masks:
            if self._metrics is not None:
                self._metrics.counter(
                    "chase.batch_masked_rows", rule=name
                ).inc(record.rows)
            if self._events is not None:
                self._events.emit(
                    "batch_mask",
                    rule=name,
                    op=record.op,
                    step=record.detail,
                    error=record.error,
                    rows=record.rows,
                    stratum=self._stratum_index,
                    round=self._round,
                )

    def _batch_fire_mode(self, rule: Rule) -> Optional[str]:
        """Whether a telemetry-free application may fire straight from
        batch columns: ``'facts'`` (bulk head firing), ``'aggregates'``
        (deferred per-group emission) or None (row-at-a-time firing).

        Everything the bulk paths skip must be unobservable: no audit
        listener, no externals (they expand at fire time under routing
        order).  The facts path additionally needs ground heads (no
        existentials — the restricted-chase image check is per-row);
        the aggregate path needs provenance off (per-binding firing
        records every intermediate emission), no post-aggregate
        conditions (per-binding firing checks them against
        intermediate values, an order-dependent effect) and no
        aggregate input reading another aggregate's target (per-binding
        firing evaluates later aggregates with earlier targets already
        substituted)."""
        mode = self._batch_fire_modes.get(id(rule))
        if mode is not None or id(rule) in self._batch_fire_modes:
            return mode
        mode = self._compute_batch_fire_mode(rule)
        self._batch_fire_modes[id(rule)] = mode
        return mode

    def _compute_batch_fire_mode(self, rule: Rule) -> Optional[str]:
        if self.listener is not None:
            return None
        if any(lit.atom.is_external for lit in rule.body):
            return None
        if rule.has_aggregates:
            if self.provenance_enabled:
                return None
            targets = {agg.target for agg in rule.aggregates}
            for condition in rule.conditions:
                if targets & set(condition.variables()):
                    return None
            for agg in rule.aggregates:
                inputs = set(agg.variables()) - {agg.target}
                if inputs & targets:
                    return None
            return "aggregates"
        if rule.existential_variables():
            return None
        return "facts"

    def _apply_rule_batched(
        self,
        rule: Rule,
        rule_index: int,
        plans: RulePlans,
        store: FactStore,
        provenance: ProvenanceLog,
        aggregate_states,
        emitted_aggregates,
        first_round: bool,
        mode: str,
    ) -> bool:
        """Telemetry-free fast path: materialize every applicable
        plan's batch, then fire straight from the columns.  All batches
        complete before any firing, so recursive rules never observe
        their own additions mid-enumeration (full indices are only
        consulted by probes, which have all run); an expression error
        can therefore only escape before the store is touched."""
        track = mode == "facts" and self.provenance_enabled
        batches = []
        for plan in self._applicable_plans(plans, store, first_round):
            analysis = self._analysis_for(plan) if self.analyze else None
            batch = execute_batch(
                plan, store, track_premises=track, analysis=analysis,
            )
            if batch.n:
                batches.append(batch)
        if not batches:
            return False
        if mode == "aggregates":
            return self._fire_aggregates_batched(
                rule, rule_index, batches, store,
                aggregate_states, emitted_aggregates,
            )
        return self._fire_facts_batched(rule, batches, store, provenance)

    def _fire_facts_batched(
        self,
        rule: Rule,
        batches,
        store: FactStore,
        provenance: ProvenanceLog,
    ) -> bool:
        """Bulk head firing for ground-head rules.  Duplicate bindings
        (within or across delta plans) need no dedup pass: the store
        add is idempotent and provenance records first-added atoms
        only, exactly as the deduped row path would."""
        head = rule.head
        label = rule.label
        track = self.provenance_enabled
        changed = False
        for batch in batches:
            view = _RowView(batch.cols)
            for i in range(batch.n):
                view.i = i
                for atom in head:
                    fact = atom.substitute(view)
                    if not fact.is_ground:
                        raise EvaluationError(
                            f"head atom {fact} not ground after "
                            f"substitution in rule {rule.label or rule}"
                        )
                    if store.add(fact):
                        changed = True
                        if track:
                            provenance.record(
                                fact, label, batch.premises_row(i)
                            )
        return changed

    def _fire_aggregates_batched(
        self,
        rule: Rule,
        rule_index: int,
        batches,
        store: FactStore,
        aggregate_states: Dict,
        emitted_aggregates: Dict,
    ) -> bool:
        """Deferred per-group aggregate emission: contribute every
        batch row, then emit each touched group's head atoms once with
        the final values.  Equivalent to per-binding
        retract-and-replace under this path's gates: monotonic values
        make contributions order-independent and idempotent (duplicate
        bindings are no-ops, so no dedup pass is needed), intermediate
        emissions are invisible (firing performs no lookups, and by
        the end of the application only the final atom remains), and
        the final atom differs from the previously emitted one iff any
        contribution changed the group — so rounds, delta frontiers
        and the changed flag all match."""
        targets = {agg.target for agg in rule.aggregates}
        group_vars = sorted(
            (v for v in rule.head_variables() if v not in targets),
            key=lambda v: v.name,
        )
        specs = []
        for agg_index, agg in enumerate(rule.aggregates):
            state_key = (rule_index, agg_index)
            state = aggregate_states.get(state_key)
            if state is None:
                state = AggregateState(agg.function)
                aggregate_states[state_key] = state
            specs.append((agg, state))
        touched: Dict[Tuple, bool] = {}
        for batch in batches:
            cols = batch.cols
            try:
                group_cols = [cols[v] for v in group_vars]
            except KeyError as exc:
                raise EvaluationError(
                    f"group-by variable unbound in aggregate rule "
                    f"{rule.label or rule}: {exc}"
                ) from exc
            n = batch.n
            group_keys = _tuple_column(group_cols, n)
            for group_key in group_keys:
                touched[group_key] = True
            for agg, state in specs:
                contributors = _tuple_column(
                    [cols[v] for v in agg.contributors], n
                )
                contributions = _contribution_column(
                    agg.argument, cols, n
                )
                state.absorb_many(group_keys, contributors, contributions)
        substitution: Dict[Variable, Term] = {}
        changed = False
        for group_key in touched:
            for variable, value in zip(group_vars, group_key):
                substitution[variable] = value
            for agg, state in specs:
                substitution[agg.target] = Constant(
                    state.value(group_key)
                )
            for atom_index, atom in enumerate(rule.head):
                grounded = atom.substitute(substitution)
                if not grounded.is_ground:
                    raise EvaluationError(
                        f"aggregate head atom {grounded} not ground in "
                        f"rule {rule.label or rule}"
                    )
                emit_key = (rule_index, atom_index, group_key)
                previous = emitted_aggregates.get(emit_key)
                if previous == grounded:
                    continue
                if previous is not None:
                    store.retract(previous)
                if store.add(grounded):
                    changed = True
                emitted_aggregates[emit_key] = grounded
        return changed

    def _apply_rule_streaming(
        self,
        rule: Rule,
        rule_index: int,
        plans: RulePlans,
        store: FactStore,
        provenance: ProvenanceLog,
        null_factory: NullFactory,
        aggregate_states,
        emitted_aggregates,
        first_round: bool,
    ) -> bool:
        """Fire bindings as the plan streams them, never materializing
        the full binding list.  Only taken for rules where firing
        cannot feed back into the enumeration (``plans.streamable``)
        under fifo routing, so the result is bit-identical to
        enumerate-then-fire."""
        changed = False
        seen: Set[Tuple] = set()
        for substitution, premises in self._planned_bindings(
            plans, store, first_round, seen
        ):
            if rule.has_aggregates:
                fired = self._fire_with_aggregates(
                    rule, rule_index, substitution, premises, store,
                    provenance, aggregate_states, emitted_aggregates,
                )
            else:
                fired = self._fire(
                    rule, substitution, premises, store, provenance,
                    null_factory,
                )
            changed = fired or changed
        return changed

    # -- rule application --------------------------------------------------

    def _apply_rule(
        self,
        rule: Rule,
        rule_index: int,
        store: FactStore,
        provenance: ProvenanceLog,
        null_factory: NullFactory,
        context: ExternalContext,
        aggregate_states,
        emitted_aggregates,
        first_round: bool,
    ) -> bool:
        metrics = self._metrics
        if (
            metrics is None
            and self.routing.strategy_for(rule) is fifo_strategy
        ):
            # Telemetry-free fast paths.  Metrics runs keep the
            # two-phase enumerate/fire shape so match/fire attribution
            # stays meaningful.
            plans = self._plan_cache[id(rule)]
            if self.use_columnar:
                # Batched enumeration plus bulk firing; recursion is
                # safe because every batch materializes before any
                # fact is added.
                mode = self._batch_fire_mode(rule)
                if mode is not None:
                    return self._apply_rule_batched(
                        rule, rule_index, plans, store, provenance,
                        aggregate_states, emitted_aggregates,
                        first_round, mode,
                    )
            elif plans.streamable:
                # Routing-free, non-recursive rules stream straight
                # from the plan into firing.
                return self._apply_rule_streaming(
                    rule, rule_index, plans, store, provenance,
                    null_factory, aggregate_states, emitted_aggregates,
                    first_round,
                )
        if metrics is not None:
            name = self._rule_names[id(rule)]
            start = time.perf_counter_ns()
            bindings = self._enumerate_bindings(rule, store, first_round)
            match_ns = time.perf_counter_ns() - start
            metrics.histogram("chase.enumerate_bindings_ns").observe(
                match_ns
            )
            metrics.histogram("chase.match_ns", rule=name).observe(
                match_ns
            )
            if bindings:
                metrics.counter("chase.bindings", rule=name).inc(
                    len(bindings)
                )
        else:
            bindings = self._enumerate_bindings(rule, store, first_round)
        if not bindings:
            return False
        # Routing orders the regular-body bindings BEFORE externals run,
        # so side-effecting externals (#anonymize) observe the paper's
        # heuristics ("less significant first", Section 4.4).
        ordered = self.routing.order(
            rule, [b.substitution for b in bindings]
        )
        premises_of: Dict[int, List[Fact]] = {
            id(b.substitution): b.premises for b in bindings
        }
        external_literals = [
            lit for lit in rule.body if lit.atom.is_external
        ]
        changed = False
        fire_start = time.perf_counter_ns() if metrics is not None else 0
        for substitution in ordered:
            premises = premises_of.get(id(substitution), [])
            for full in self._expand_externals(
                rule, external_literals, substitution, context
            ):
                if rule.has_aggregates:
                    fired = self._fire_with_aggregates(
                        rule,
                        rule_index,
                        full,
                        premises,
                        store,
                        provenance,
                        aggregate_states,
                        emitted_aggregates,
                    )
                else:
                    fired = self._fire(
                        rule,
                        full,
                        premises,
                        store,
                        provenance,
                        null_factory,
                    )
                changed = fired or changed
        if metrics is not None:
            metrics.histogram(
                "chase.fire_ns", rule=self._rule_names[id(rule)]
            ).observe(time.perf_counter_ns() - fire_start)
        return changed

    def _expand_externals(
        self,
        rule: Rule,
        external_literals,
        substitution: Substitution,
        context: ExternalContext,
    ):
        """Evaluate the rule's external atoms (in order) against a
        regular-body binding, then the deferred conditions that needed
        their outputs."""
        if not external_literals:
            yield substitution
            return
        deferred = deferred_conditions(rule)

        def _chain(bindings, position):
            if position == len(external_literals):
                for condition in deferred:
                    if not condition.holds(bindings):
                        return
                yield bindings
                return
            atom = external_literals[position].atom
            for extended in self.externals.evaluate(
                atom.predicate, atom.terms, bindings, context
            ):
                yield from _chain(extended, position + 1)

        yield from _chain(substitution, 0)

    def _fire(
        self,
        rule: Rule,
        substitution: Substitution,
        premises: List[Fact],
        store: FactStore,
        provenance: ProvenanceLog,
        null_factory: NullFactory,
    ) -> bool:
        head_atoms = self._instantiate_head(
            rule, substitution, null_factory, store
        )
        if head_atoms is None:
            return False
        changed = False
        added = []
        for atom in head_atoms:
            if store.add(atom):
                changed = True
                added.append(atom)
                provenance.record(atom, rule.label, premises)
        if added:
            metrics = self._metrics
            if metrics is not None:
                name = self._rule_names.get(id(rule), rule.label or "?")
                metrics.counter("chase.rule_firings", rule=name).inc()
                metrics.counter(
                    "chase.new_facts", rule=name
                ).inc(len(added))
            if self._events is not None:
                self._events.emit(
                    "decision",
                    kind="derive",
                    rule=self._rule_names.get(id(rule), rule.label or "?"),
                    stratum=self._stratum_index,
                    round=self._round,
                    facts=len(added),
                    derived=[str(atom) for atom in added[:5]],
                )
            if self.listener is not None:
                self.listener(rule.label, added, list(premises))
        return changed

    def _instantiate_head(
        self,
        rule: Rule,
        substitution: Substitution,
        null_factory: NullFactory,
        store: FactStore,
    ) -> Optional[List[Fact]]:
        existentials = rule.existential_variables()
        if existentials:
            # Restricted chase: instantiate with *placeholder* nulls
            # (negative labels, never stored or counted), and only
            # materialize fresh nulls when no homomorphic image exists.
            trial = dict(substitution)
            placeholders = set()
            for var in existentials:
                self._placeholder_label -= 1
                placeholder = LabelledNull(self._placeholder_label)
                trial[var] = placeholder
                placeholders.add(placeholder)
            trial_atoms = [atom.substitute(trial) for atom in rule.head]
            if conjunction_has_image(
                trial_atoms,
                store,
                placeholders,
                null_to_null=(self.termination == "isomorphic"),
            ):
                return None
            fresh = {var: null_factory.fresh() for var in existentials}
            if self._metrics is not None:
                self._metrics.counter("chase.nulls_introduced").inc(
                    len(fresh)
                )
                self._metrics.counter(
                    "chase.nulls_introduced_by_rule",
                    rule=self._rule_names.get(id(rule), rule.label or "?"),
                ).inc(len(fresh))
            if self._events is not None:
                self._events.emit(
                    "decision",
                    kind="invent_null",
                    rule=self._rule_names.get(id(rule), rule.label or "?"),
                    stratum=self._stratum_index,
                    round=self._round,
                    nulls=len(fresh),
                )
            final = dict(substitution)
            final.update(fresh)
            return [atom.substitute(final) for atom in rule.head]
        atoms = [atom.substitute(substitution) for atom in rule.head]
        for atom in atoms:
            if not atom.is_ground:
                raise EvaluationError(
                    f"head atom {atom} not ground after substitution in "
                    f"rule {rule.label or rule}"
                )
        return atoms

    def _fire_with_aggregates(
        self,
        rule: Rule,
        rule_index: int,
        substitution: Substitution,
        premises: List[Fact],
        store: FactStore,
        provenance: ProvenanceLog,
        aggregate_states: Dict,
        emitted_aggregates: Dict,
    ) -> bool:
        """Contribute this binding to the rule's aggregates, and emit
        (or update) head facts with the current aggregate values."""
        # Group key: every head variable that is not an aggregate target.
        targets = {agg.target for agg in rule.aggregates}
        group_vars = sorted(
            (v for v in rule.head_variables() if v not in targets),
            key=lambda v: v.name,
        )
        try:
            group_key = tuple(substitution[v] for v in group_vars)
        except KeyError as exc:
            raise EvaluationError(
                f"group-by variable unbound in aggregate rule "
                f"{rule.label or rule}: {exc}"
            ) from exc

        substitution = dict(substitution)
        any_change = False
        for agg_index, agg in enumerate(rule.aggregates):
            state_key = (rule_index, agg_index)
            state = aggregate_states.get(state_key)
            if state is None:
                state = AggregateState(agg.function)
                aggregate_states[state_key] = state
            contributor = tuple(
                substitution[v] for v in agg.contributors
            )
            if agg.argument is not None:
                contribution = agg.argument.evaluate(substitution)
            else:
                contribution = 1
            changed, value = state.contribute(
                group_key, contributor, contribution
            )
            if self._metrics is not None:
                name = self._rule_names.get(id(rule), rule.label or "?")
                self._metrics.counter(
                    "chase.aggregate_contributions", rule=name
                ).inc()
                if changed:
                    self._metrics.counter(
                        "chase.aggregate_updates", rule=name
                    ).inc()
            any_change = any_change or changed
            substitution[agg.target] = Constant(value)

        # Post-aggregate conditions (e.g. msum(...) > 0.5).
        for condition in rule.conditions:
            if any(
                v in {a.target for a in rule.aggregates}
                for v in condition.variables()
            ):
                if not condition.holds(substitution):
                    return False

        head_atoms = [atom.substitute(substitution) for atom in rule.head]
        emitted_change = False
        for atom_index, atom in enumerate(head_atoms):
            if not atom.is_ground:
                raise EvaluationError(
                    f"aggregate head atom {atom} not ground in rule "
                    f"{rule.label or rule}"
                )
            emit_key = (rule_index, atom_index, group_key)
            previous = emitted_aggregates.get(emit_key)
            if previous == atom:
                continue
            if previous is not None:
                store.retract(previous)
            if store.add(atom):
                emitted_change = True
                provenance.record(
                    atom,
                    rule.label,
                    premises,
                    note="monotonic aggregate update",
                )
            emitted_aggregates[emit_key] = atom
        if emitted_change and self._metrics is not None:
            name = self._rule_names.get(id(rule), rule.label or "?")
            self._metrics.counter("chase.rule_firings", rule=name).inc()
        return emitted_change

    # -- body evaluation -----------------------------------------------------

    def _enumerate_bindings(
        self,
        rule: Rule,
        store: FactStore,
        first_round: bool,
    ) -> List[_Binding]:
        """Enumerate regular-body matches by executing the rule's
        compiled plans (:mod:`repro.vadalog.plans`), semi-naive: at
        least one positive regular literal must match a delta fact
        (unless the rule has no regular positive literal at all).

        External atoms are NOT evaluated here — they run at firing
        time, after routing, so binding-order heuristics govern their
        side effects.  A pushed-down expression that raises either
        aborts the chase (its binding completes a body match) or drops
        the row, reported through :meth:`_report_masks`.
        """
        plans = self._plan_cache[id(rule)]
        masks: Optional[List[MaskRecord]] = (
            [] if (self._metrics is not None or self._events is not None)
            else None
        )
        if self.use_columnar:
            results = self._enumerate_batched(
                plans, store, first_round, self._dedup_order(rule), masks
            )
        else:
            seen: Set[Tuple] = set()
            results = [
                _Binding(substitution, premises)
                for substitution, premises in self._planned_bindings(
                    plans, store, first_round, seen, masks
                )
            ]
        if masks:
            self._report_masks(rule, masks)
        return results
