"""The anonymization cycle (Algorithms 2 and 9).

Iterative interplay of disclosure-risk evaluation and anonymization
until every tuple's risk is within the threshold T:

1. assess risk for all tuples (optionally lifted to business-knowledge
   clusters, Algorithm 9);
2. pick the risky tuples (R > T) that still have actionable
   quasi-identifiers;
3. order them with the tuple heuristic (*less significant first*);
4. for each, apply **one** anonymization step — the greedy minimum —
   to the quasi-identifier chosen by the QI heuristic (*most risky
   first*);
5. repeat until no tuple violates T.

Mirroring the monotonic-aggregation semantics that lets an anonymized
tuple supersede its original *within* an iteration, the cycle keeps an
incremental :class:`GroupTracker`: before acting on a tuple it rechecks
whether earlier suppressions in the same pass already pushed it under
the threshold, which is what keeps the injected-null counts minimal
(Fig. 7a).  Measures that cannot be rechecked from group statistics
alone (SUDA) simply skip the recheck.

Every applied step carries the full motivation (the body binding of
Rule 2: tuple id, risk score, group evidence) in the result's trace —
the paper's explainability guarantee.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Union

from .. import telemetry
from ..errors import AnonymizationError
from ..model.groups import GroupIndex, masked_sum
from ..model.microdata import MicrodataDB, is_suppressed
from ..model.nulls import MAYBE_MATCH, NullSemantics
from ..risk.base import RiskMeasure, RiskReport
from ..risk.cluster import propagate_over_clusters
from ..vadalog.terms import NullFactory
from .base import AnonymizationMethod, AnonymizationStep
from .heuristics import (
    QISelection,
    TupleOrdering,
    qi_selection_by_name,
    tuple_ordering_by_name,
)
from . import metrics as _metrics


class GroupTracker:
    """Incremental =⊥-group statistics under suppression/recoding.

    Keeps one :class:`~repro.model.groups.GroupIndex` over the working
    dataset and moves each changed cell in it, so a row's current group
    frequency is a popcount and its weight sum a masked sum, with no
    rescan of the rows.
    """

    def __init__(
        self,
        db: MicrodataDB,
        attributes: Sequence[str],
        semantics: NullSemantics,
    ):
        self.db = db
        self.attributes = list(attributes)
        self.semantics = semantics
        self.weights = db.weights()
        self.index = GroupIndex(db, self.attributes, semantics)

    def stats(self, index: int) -> Tuple[int, float]:
        """Current (=⊥-match count, matched weight sum) for a row."""
        group = self.index.row_group(index)
        return group.bit_count(), masked_sum(group, self.weights)

    def before_change(self, index: int) -> Tuple:
        """Capture the row's QI values before the method mutates it."""
        return self.db.qi_values(index, self.index.attributes)

    def after_change(self, index: int, old_values: Tuple) -> None:
        """Move the row's changed cells after a suppression or
        recoding."""
        row = self.db.rows[index]
        for attribute, old in zip(self.index.attributes, old_values):
            new = row[attribute]
            if new != old:
                self.index.move(index, attribute, old, new)


class CycleResult:
    """Outcome of the anonymization cycle, with full trace."""

    def __init__(
        self,
        original: MicrodataDB,
        anonymized: MicrodataDB,
        steps: List[AnonymizationStep],
        reports: List[RiskReport],
        initial_risky: List[int],
        iterations: int,
        converged: bool,
        null_factory: NullFactory,
    ):
        self.original = original
        self.db = anonymized
        self.steps = steps
        self.reports = reports
        self.initial_risky = initial_risky
        self.iterations = iterations
        self.converged = converged
        self.null_factory = null_factory

    @property
    def initial_report(self) -> RiskReport:
        return self.reports[0]

    @property
    def final_report(self) -> RiskReport:
        return self.reports[-1]

    @property
    def nulls_injected(self) -> int:
        return _metrics.nulls_injected(self.original, self.db)

    @property
    def recoded_cells(self) -> int:
        return _metrics.recoded_cells(self.original, self.db)

    @property
    def information_loss(self) -> float:
        return _metrics.information_loss(
            self.original, self.db, len(self.initial_risky)
        )

    @property
    def utility_weighted_loss(self) -> float:
        return _metrics.utility_weighted_loss(self.original, self.db)

    def explain_row(self, row: int) -> str:
        """The full anonymization story of one tuple."""
        lines = [f"tuple {row}:"]
        initial = self.initial_report
        lines.append("  initial " + initial.explain(row))
        for step in self.steps:
            if step.row == row:
                lines.append("  " + step.explain())
        final = self.final_report
        lines.append("  final " + final.explain(row))
        return "\n".join(lines)

    def shared_view(self) -> MicrodataDB:
        """The dataset as handed to the counterparty: identifiers
        dropped (Section 4.1)."""
        return self.db.drop_identifiers()

    def __repr__(self):
        return (
            f"CycleResult({self.db.name!r}: {len(self.steps)} steps in "
            f"{self.iterations} iteration(s), nulls={self.nulls_injected}, "
            f"converged={self.converged})"
        )


class AnonymizationCycle:
    """Configurable driver for Algorithm 2 / Algorithm 9."""

    def __init__(
        self,
        measure: RiskMeasure,
        method: AnonymizationMethod,
        threshold: float = 0.5,
        semantics: NullSemantics = MAYBE_MATCH,
        tuple_ordering: Union[str, TupleOrdering] = "less-significant-first",
        qi_selection: Union[str, QISelection] = "most-risky-first",
        max_iterations: int = 200,
        clusters: Optional[Sequence[Set[int]]] = None,
        recheck: bool = True,
        attributes: Optional[Sequence[str]] = None,
    ):
        if not 0 <= threshold <= 1:
            raise AnonymizationError(
                f"threshold must be in [0, 1], got {threshold}"
            )
        self.measure = measure
        self.method = method
        self.threshold = threshold
        self.semantics = semantics
        self.tuple_ordering = (
            tuple_ordering_by_name(tuple_ordering)
            if isinstance(tuple_ordering, str)
            else tuple_ordering
        )
        self.qi_selection = (
            qi_selection_by_name(qi_selection)
            if isinstance(qi_selection, str)
            else qi_selection
        )
        self.max_iterations = max_iterations
        self.clusters = list(clusters) if clusters is not None else None
        self.recheck = recheck
        self.attributes = list(attributes) if attributes else None

    # -- main loop -----------------------------------------------------------

    def run(self, db: MicrodataDB) -> CycleResult:
        with telemetry.span(
            "cycle.run", db=db.name, measure=type(self.measure).__name__,
            method=type(self.method).__name__, threshold=self.threshold,
        ) as cycle_span:
            result = self._run(db)
            cycle_span.set(
                iterations=result.iterations,
                steps=len(result.steps),
                converged=result.converged,
            )
        if telemetry.state.enabled:
            registry = telemetry.state.registry
            registry.counter("cycle.runs").inc()
            registry.counter("cycle.iterations").inc(result.iterations)
            registry.counter("cycle.suppression_steps").inc(
                len(result.steps)
            )
            self._record_outcome(result)
        return result

    def _run(self, db: MicrodataDB) -> CycleResult:
        original = db.copy()
        working = db.copy()
        null_factory = NullFactory()
        steps: List[AnonymizationStep] = []
        reports: List[RiskReport] = []
        initial_risky: List[int] = []
        converged = False
        attributes = self.attributes or working.quasi_identifiers
        # One tracker for the whole run: it sees every change the cycle
        # makes, so its index stays current from pass to pass.
        tracker: Optional[GroupTracker] = None

        iteration = 0
        while iteration < self.max_iterations:
            iteration += 1
            report = self._assess(working)
            reports.append(report)
            risky = report.risky_indices(self.threshold)
            if iteration == 1:
                initial_risky = list(risky)
            if not risky:
                if telemetry.state.enabled:
                    self._record_iteration(
                        working, report, iteration, 0, 0, 0, 0, 0,
                    )
                converged = True
                break
            actionable = [
                index
                for index in risky
                if self.method.applicable_attributes(working, index)
            ]
            if not actionable:
                # Risky tuples remain but nothing can be transformed.
                if telemetry.state.enabled:
                    self._record_iteration(
                        working, report, iteration, len(risky), 0,
                        0, 0, 0,
                    )
                break
            ordered = self.tuple_ordering(working, actionable, report)
            self.qi_selection.prepare(working, attributes, self.semantics)
            if tracker is None and self.recheck and self._supports_recheck():
                tracker = GroupTracker(working, attributes, self.semantics)
            acted = 0
            suppressed_now = 0
            recoded_now = 0
            kept_now = 0
            observing = (
                telemetry.state.enabled
                and telemetry.state.events is not None
            )
            for row in ordered:
                if tracker is not None:
                    count, weight_sum = tracker.stats(row)
                    safe = self.measure.safe_from_group(
                        count, weight_sum, self.threshold
                    )
                    if safe:
                        kept_now += 1
                        if telemetry.state.enabled:
                            telemetry.state.registry.counter(
                                "cycle.recheck_skips"
                            ).inc()
                            telemetry.state.registry.counter(
                                "sdc.cells_kept"
                            ).inc()
                        if observing:
                            # A "keep": the tuple was risky when the
                            # pass started but an earlier step in the
                            # same pass already pushed its group under
                            # the threshold.
                            verdict = report.verdict(row, self.threshold)
                            telemetry.state.events.emit(
                                "decision",
                                kind="keep",
                                db=working.name,
                                row=row,
                                method=self.method.name,
                                measure=report.measure,
                                iteration=iteration,
                                score=verdict.score,
                                threshold=self.threshold,
                                detail=verdict.detail,
                                qis=list(attributes),
                                evidence=(
                                    f"group regrew to {count} member(s)"
                                    f" (weight {weight_sum:.6g}) within"
                                    f" iteration {iteration}"
                                ),
                            )
                        continue  # an earlier step already fixed it
                applicable = self.method.applicable_attributes(working, row)
                if not applicable:
                    continue
                attribute = self.qi_selection.select(working, row, applicable)
                qi_values_before = (
                    [str(v) for v in working.qi_values(row, attributes)]
                    if observing else None
                )
                old_values = (
                    tracker.before_change(row) if tracker is not None else None
                )
                step = self.method.apply(
                    working,
                    row,
                    attribute,
                    null_factory,
                    reason=report.explain(row),
                )
                steps.append(step)
                acted += 1
                action = (
                    "suppress" if is_suppressed(step.new_value)
                    else "recode"
                )
                if action == "suppress":
                    suppressed_now += 1
                else:
                    recoded_now += 1
                if telemetry.state.enabled:
                    telemetry.state.registry.counter(
                        "sdc.cells_suppressed" if action == "suppress"
                        else "sdc.cells_recoded"
                    ).inc()
                if observing:
                    # The audit-stream form of the paper's Rule 2
                    # motivation: which cell, by which method, under
                    # which measure, in which pass, and why — the
                    # verdict carries the threshold comparison so the
                    # audit ledger can explain the decision without
                    # the RiskReport.
                    verdict = report.verdict(row, self.threshold)
                    telemetry.state.events.emit(
                        "decision",
                        kind=action,
                        db=working.name,
                        row=row,
                        attribute=attribute,
                        method=self.method.name,
                        measure=report.measure,
                        iteration=iteration,
                        old=step.old_value,
                        new=step.new_value,
                        reason=step.reason,
                        score=verdict.score,
                        threshold=self.threshold,
                        detail=verdict.detail,
                        qis=list(attributes),
                        qi_values=qi_values_before,
                    )
                if tracker is not None:
                    tracker.after_change(row, old_values)
            if telemetry.state.enabled:
                self._record_iteration(
                    working, report, iteration, len(risky), acted,
                    suppressed_now, recoded_now, kept_now,
                )
            if acted == 0:
                # Recheck filtered everything: risk assessment and the
                # tracker agree nothing more is needed.
                converged = True
                break

        if not converged:
            final = self._assess(working)
            reports.append(final)
            converged = not final.risky_indices(self.threshold)
        elif not reports or reports[-1].risky_indices(self.threshold):
            final = self._assess(working)
            reports.append(final)
            converged = not final.risky_indices(self.threshold)

        return CycleResult(
            original,
            working,
            steps,
            reports,
            initial_risky,
            iteration,
            converged,
            null_factory,
        )

    # -- helpers --------------------------------------------------------------

    def _record_iteration(
        self,
        db: MicrodataDB,
        report: RiskReport,
        iteration: int,
        risky: int,
        acted: int,
        suppressed: int,
        recoded: int,
        kept: int,
    ) -> None:
        """Per-pass risk/utility time series: gauges track the latest
        iteration (scrapeable mid-run via /metrics, like the chase
        heartbeat), the per-measure histogram accumulates the score
        distribution across passes, and a ``cycle_iteration`` event
        pins the whole point into the audit stream."""
        registry = telemetry.state.registry
        measure = report.measure
        max_score = report.max_score()
        mean_score = report.mean_score()
        registry.gauge("sdc.iteration").set(iteration)
        registry.gauge("sdc.risk.max", measure=measure).set(max_score)
        registry.gauge("sdc.risk.mean", measure=measure).set(mean_score)
        registry.gauge("sdc.risk.risky", measure=measure).set(risky)
        histogram = registry.histogram("sdc.risk.score", measure=measure)
        for index in report.risky_indices(self.threshold):
            histogram.observe(report.scores[index])
        if telemetry.state.events is not None:
            telemetry.state.events.emit(
                "cycle_iteration",
                db=db.name,
                measure=measure,
                iteration=iteration,
                risky=risky,
                max_score=max_score,
                mean_score=mean_score,
                threshold=self.threshold,
                acted=acted,
                suppressed=suppressed,
                recoded=recoded,
                kept=kept,
            )

    def _record_outcome(self, result: CycleResult) -> None:
        """End-of-run utility-vs-risk gauges plus the ``cycle_summary``
        event the audit ledger folds as the cycle's outcome."""
        registry = telemetry.state.registry
        final = result.final_report
        attributes = result.db.quasi_identifiers
        qi_cells = len(result.db) * len(attributes)
        nulls = result.nulls_injected
        recoded = result.recoded_cells
        published = qi_cells - nulls - recoded
        registry.gauge("sdc.cells_published").set(published)
        registry.gauge("sdc.utility.nulls_injected").set(nulls)
        registry.gauge("sdc.utility.recoded_cells").set(recoded)
        registry.gauge("sdc.utility.information_loss").set(
            result.information_loss
        )
        registry.gauge("sdc.utility.weighted_loss").set(
            result.utility_weighted_loss
        )
        if telemetry.state.events is not None:
            telemetry.state.events.emit(
                "cycle_summary",
                db=result.db.name,
                measure=final.measure,
                method=self.method.name,
                threshold=self.threshold,
                iterations=result.iterations,
                converged=result.converged,
                steps=len(result.steps),
                initial_risky=len(result.initial_risky),
                final_risky=len(
                    final.risky_indices(self.threshold)
                ),
                final_max_score=final.max_score(),
                final_mean_score=final.mean_score(),
                nulls_injected=nulls,
                recoded_cells=recoded,
                published_cells=published,
                information_loss=result.information_loss,
                utility_weighted_loss=result.utility_weighted_loss,
                qis=list(attributes),
            )

    def _assess(self, db: MicrodataDB) -> RiskReport:
        with telemetry.profile_block(
            "cycle.assess", measure=type(self.measure).__name__
        ):
            report = self.measure.assess(
                db, semantics=self.semantics, attributes=self.attributes
            )
            if self.clusters:
                report = propagate_over_clusters(report, self.clusters)
        return report

    def _supports_recheck(self) -> bool:
        # Cluster-level risk couples tuples; a per-row group recheck
        # would wrongly mark a tuple safe while its cluster is not.
        if self.clusters:
            return False
        probe = self.measure.safe_from_group(1, 1.0, self.threshold)
        return probe is not None


def anonymize(
    db: MicrodataDB,
    measure: RiskMeasure,
    method: AnonymizationMethod,
    **kwargs,
) -> CycleResult:
    """One-call convenience wrapper around :class:`AnonymizationCycle`."""
    return AnonymizationCycle(measure, method, **kwargs).run(db)
