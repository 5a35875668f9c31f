"""Compiled join plans: the chase engine's query-plan layer.

A naive matcher re-derives its join order *per partial binding*: every
extension step scans the remaining literals, counts bound positions
against the current substitution and sizes relations, then recurses.
That work is identical across the thousands of bindings a round
enumerates, so this module hoists it to rule-compilation time, the way
the Vadalog system compiles rules into reusable execution pipelines
instead of interpreting them tuple by tuple.

For every rule the compiler produces one :class:`JoinPlan` per
semi-naive delta literal plus a first-round plan.  A plan is a flat
sequence of steps executed by an iterative matcher (no recursion, one
shared mutable substitution):

* :class:`ScanStep` — probe one positive literal through a composite
  (multi-position) index; the probe layout (which positions form the
  key, which bind new variables, which check repeated variables) is
  fixed at compile time by :func:`~.unification.probe_layout`.
* :class:`AssignStep` / :class:`FilterStep` — assignments and boolean
  conditions *pushed down* to the earliest point where their inputs
  are bound.  This is the plan layer's big win: an assignment target
  that feeds a later literal (``Q = project(VSet, ASet)`` feeding
  ``tupleFreq(Q, F)``) turns that literal's enumeration from a cross
  product filtered afterwards into a single hash probe.
* :class:`NegationStep` — a stratified negation check, scheduled once
  every positively-bindable variable of the negated atom is bound.
  Its layout deliberately ignores assignment-bound variables: the
  semantics check negation on the positive join, before assignments.

Literal order is fixed up front by a greedy bound-position /
shared-variable / arity heuristic; the delta literal always leads.

**Fidelity contract.** Planned evaluation must be indistinguishable
from the naive oracle :mod:`repro.vadalog.reference`, which joins
*every* positive literal, checks negation, then evaluates assignments
and conditions in rule order.  Pushed-down expressions are the one
place the two could diverge: a pushed expression may raise on a
partial binding that never completes a body match.  Both executors
(the row steps here and the batch steps in :mod:`.columnar`) settle
such an error with :func:`completes_match`: when the binding extends to
a complete match the original error propagates and aborts the chase,
exactly as the oracle raises; otherwise the row is dropped and counted
in a :class:`MaskRecord` (the engine reports it as a ``batch_mask``
event and the ``chase.batch_masked_rows`` counter).
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, \
    Tuple

from ..errors import EvaluationError
from ..telemetry.inspect import PlanAnalysis, StepStats
from .atoms import Assignment, Atom, Condition, Fact, Literal
from .database import FactStore
from .expressions import evaluate_to_term
from .rules import Rule
from .terms import Term, Variable
from .unification import (
    Substitution,
    bound_positions,
    match_atom,
    probe_layout,
)


class MaskRecord:
    """Rows one eval step dropped because its expression raised on a
    binding that completes no body match."""

    __slots__ = ("op", "detail", "error", "rows")

    def __init__(self, op: str, detail: str, error: str, rows: int):
        self.op = op
        self.detail = detail
        self.error = error
        self.rows = rows


def completes_match(
    rule: Rule, store: FactStore, binding: Dict[Variable, Term]
) -> bool:
    """Does ``binding`` extend to a complete body match of ``rule`` —
    every positive literal joined over the full store, every negation
    passing?  ``binding`` is everything a plan bound before an
    expression raised (scan outputs and assignment targets), so an
    extension evaluates the rule-order-earlier assignments and
    conditions to the same values and reaches the raising expression
    too.  The one check that decides raise versus mask."""
    positives = [
        lit for lit in rule.body
        if not lit.negated and not lit.atom.is_external
    ]
    negatives = [lit for lit in rule.body if lit.negated]
    positive_vars = {
        v for lit in positives for v in lit.variables()
        if not v.is_anonymous
    }

    def negation_ok(substitution: Substitution) -> bool:
        # Negation sees the positive join only, never assignment
        # targets (the oracle checks it before assignments run).
        substitution = {
            v: t for v, t in substitution.items() if v in positive_vars
        }
        for literal in negatives:
            atom = literal.atom
            grounded = atom.substitute(substitution)
            if grounded.is_ground:
                if store.contains(grounded):
                    return False
            else:
                bound = bound_positions(atom, substitution)
                if any(True for _ in store.lookup(atom.predicate, bound)):
                    return False
        return True

    def extend(index: int, substitution: Substitution) -> bool:
        if index == len(positives):
            return negation_ok(substitution)
        atom = positives[index].atom
        bound = bound_positions(atom, substitution)
        for fact in store.lookup(atom.predicate, bound):
            extended = match_atom(atom, fact, substitution)
            if extended is not None and extend(index + 1, extended):
                return True
        return False

    return extend(0, dict(binding))


def record_mask(
    masks: Optional[List[MaskRecord]], op: str, detail: str,
    error: BaseException,
) -> None:
    """Count one masked row against its step (``masks`` is None when
    nobody is listening)."""
    if masks is None:
        return
    for record in masks:
        if record.op == op and record.detail == detail:
            record.rows += 1
            return
    masks.append(MaskRecord(op, detail, type(error).__name__, 1))


_SENTINEL = object()


def _timed(iterator: Iterator[bool], stats: StepStats) -> Iterator[bool]:
    """Wrap a step iterator with per-step actuals: one invocation per
    upstream row, one row_out per yield, wall time charged to the time
    spent *inside* this iterator (downstream steps excluded).  Uses the
    two-argument ``next`` so an error raised by the step propagates
    unchanged."""
    stats.invocations += 1
    while True:
        start = perf_counter_ns()
        item = next(iterator, _SENTINEL)
        stats.wall_ns += perf_counter_ns() - start
        if item is _SENTINEL:
            return
        stats.rows_out += 1
        yield item


class _Step:
    """One plan step: ``iterate`` yields once per way of extending the
    shared substitution, restoring its bindings between yields."""

    __slots__ = ()

    def iterate(self, store: FactStore, subst: Substitution,
                premises: List[Fact],
                stats: Optional[StepStats] = None,
                masks: Optional[List[MaskRecord]] = None) -> Iterator[bool]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def explain(self) -> Dict[str, Any]:
        """Static, JSON-serialisable description of this step — the
        shape :func:`repro.telemetry.inspect.render_explain` consumes."""
        return {"op": type(self).__name__, "detail": self.describe()}


class ScanStep(_Step):
    """Probe one positive literal via a composite index."""

    __slots__ = (
        "atom", "predicate", "delta_only",
        "key_positions", "key_consts", "key_vars", "outputs", "repeats",
    )

    def __init__(self, atom: Atom, known: Set[Variable],
                 delta_only: bool = False):
        self.atom = atom
        self.predicate = atom.predicate
        self.delta_only = delta_only
        positions, sources, outputs, repeats = probe_layout(atom, known)
        self.key_positions = positions
        # Split constants from runtime-bound variables once: the probe
        # key template carries constants in place and None where a
        # variable's current value is patched in per call.
        self.key_consts: Tuple = tuple(
            None if isinstance(source, Variable) else source
            for source in sources
        )
        self.key_vars: Tuple[Tuple[int, Variable], ...] = tuple(
            (slot, source)
            for slot, source in enumerate(sources)
            if isinstance(source, Variable)
        )
        self.outputs = outputs
        self.repeats = repeats

    def iterate(self, store, subst, premises, stats=None, masks=None):
        if self.key_vars:
            key = list(self.key_consts)
            for slot, variable in self.key_vars:
                key[slot] = subst[variable]
            key = tuple(key)
        else:
            key = self.key_consts
        outputs = self.outputs
        repeats = self.repeats
        facts = store.probe(
            self.predicate, self.key_positions, key, self.delta_only
        )
        if stats is not None:
            stats.probe_calls += 1
            if facts:
                stats.probe_hits += 1
                stats.rows_scanned += len(facts)
        for fact in facts:
            terms = fact.terms
            for position, variable in outputs:
                subst[variable] = terms[position]
            ok = True
            for position, variable in repeats:
                if terms[position] != subst[variable]:
                    ok = False
                    break
            if ok:
                premises.append(fact)
                yield True
                premises.pop()
            for _, variable in outputs:
                del subst[variable]

    def describe(self) -> str:
        tag = "delta-scan" if self.delta_only else "scan"
        if self.key_positions:
            tag = "delta-probe" if self.delta_only else "probe"
            keys = ",".join(str(p) for p in self.key_positions)
            return f"{tag} {self.atom} [key positions {keys}]"
        return f"{tag} {self.atom}"

    def explain(self) -> Dict[str, Any]:
        return {
            "op": "scan",
            "detail": self.describe(),
            "predicate": self.predicate,
            "delta_only": self.delta_only,
            "key_positions": list(self.key_positions),
            "binds": [v.name for _, v in self.outputs],
        }


class AssignStep(_Step):
    """Evaluate an assignment as soon as its inputs are bound.  A
    bound target degrades to an equality filter."""

    __slots__ = ("assignment", "rule")

    def __init__(self, assignment: Assignment, rule: Rule):
        self.assignment = assignment
        self.rule = rule

    def iterate(self, store, subst, premises, stats=None, masks=None):
        assignment = self.assignment
        try:
            value = evaluate_to_term(assignment.expression, subst)
        except Exception as exc:  # noqa: BLE001 — raise or mask
            if completes_match(self.rule, store, subst):
                raise
            record_mask(masks, "assign", self.describe(), exc)
            return
        target = assignment.target
        bound = subst.get(target)
        if bound is not None:
            if bound == value:
                yield True
            return
        subst[target] = value
        yield True
        del subst[target]

    def describe(self) -> str:
        return f"assign {self.assignment.target.name} = " \
               f"{self.assignment.expression!r}"

    def explain(self) -> Dict[str, Any]:
        return {
            "op": "assign",
            "detail": self.describe(),
            "target": self.assignment.target.name,
        }


class FilterStep(_Step):
    """Check a boolean condition as soon as its variables are bound."""

    __slots__ = ("condition", "rule")

    def __init__(self, condition: Condition, rule: Rule):
        self.condition = condition
        self.rule = rule

    def iterate(self, store, subst, premises, stats=None, masks=None):
        try:
            ok = self.condition.holds(subst)
        except Exception as exc:  # noqa: BLE001 — raise or mask
            if completes_match(self.rule, store, subst):
                raise
            record_mask(masks, "filter", self.describe(), exc)
            return
        if ok:
            yield True

    def describe(self) -> str:
        return f"filter {self.condition.expression!r}"

    def explain(self) -> Dict[str, Any]:
        return {"op": "filter", "detail": self.describe()}


class NegationStep(_Step):
    """Negation-as-failure over the saturated lower strata.

    The probe layout treats only *positively* bindable variables as
    bound — the semantics check negation on the positive join, before
    assignments run — so scheduling the check early cannot change its
    outcome (the store is stable during enumeration and the check
    depends only on its own key values).
    """

    __slots__ = ("atom", "predicate", "key_positions", "key_consts",
                 "key_vars")

    def __init__(self, atom: Atom, positive_vars: Set[Variable]):
        self.atom = atom
        self.predicate = atom.predicate
        bindable = {
            v for v in atom.variables()
            if not v.is_anonymous and v in positive_vars
        }
        positions, sources, _outputs, _repeats = probe_layout(
            atom, bindable
        )
        self.key_positions = positions
        self.key_consts: Tuple = tuple(
            None if isinstance(source, Variable) else source
            for source in sources
        )
        self.key_vars: Tuple[Tuple[int, Variable], ...] = tuple(
            (slot, source)
            for slot, source in enumerate(sources)
            if isinstance(source, Variable)
        )

    def iterate(self, store, subst, premises, stats=None, masks=None):
        if self.key_vars:
            key = list(self.key_consts)
            for slot, variable in self.key_vars:
                key[slot] = subst[variable]
            key = tuple(key)
        else:
            key = self.key_consts
        facts = store.probe(self.predicate, self.key_positions, key)
        if stats is not None:
            stats.probe_calls += 1
            if facts:
                stats.probe_hits += 1
                stats.rows_scanned += len(facts)
        if not facts:
            yield True

    def describe(self) -> str:
        keys = ",".join(str(p) for p in self.key_positions)
        return f"negation-check not {self.atom} [key positions {keys}]"

    def explain(self) -> Dict[str, Any]:
        return {
            "op": "negation-check",
            "detail": self.describe(),
            "predicate": self.predicate,
            "key_positions": list(self.key_positions),
        }


class JoinPlan:
    """A fixed step sequence for one (rule, delta literal) pair,
    executed by a flat iterative matcher."""

    __slots__ = ("rule", "steps", "delta_index", "has_eval_steps")

    def __init__(self, rule: Rule, steps: Sequence[_Step],
                 delta_index: Optional[int]):
        self.rule = rule
        self.steps = tuple(steps)
        self.delta_index = delta_index
        self.has_eval_steps = any(
            isinstance(step, (AssignStep, FilterStep))
            for step in self.steps
        )

    def execute(
        self, store: FactStore,
        masks: Optional[List[MaskRecord]] = None,
    ) -> Iterator[Tuple[Substitution, List[Fact]]]:
        """Yield ``(substitution, premises)`` per complete match.  The
        yielded objects are fresh copies; internal state is a single
        mutable substitution un/re-wound by the step iterators.  Rows
        whose pushed-down expression raised without completing a match
        are counted into ``masks``."""
        steps = self.steps
        n = len(steps)
        subst: Substitution = {}
        premises: List[Fact] = []
        if n == 0:
            yield {}, []
            return
        stack: List[Iterator[bool]] = [
            steps[0].iterate(store, subst, premises, None, masks)
        ]
        while stack:
            if next(stack[-1], None) is None:
                stack.pop()
                continue
            depth = len(stack)
            if depth == n:
                yield dict(subst), list(premises)
            else:
                stack.append(
                    steps[depth].iterate(store, subst, premises, None, masks)
                )

    def execute_analyzed(
        self, store: FactStore, analysis: PlanAnalysis,
        masks: Optional[List[MaskRecord]] = None,
    ) -> Iterator[Tuple[Substitution, List[Fact]]]:
        """:meth:`execute` with per-step actuals folded into
        ``analysis`` — the opt-in ANALYZE path.  Step iterators are
        wrapped in a timing shim, and scan/negation steps count their
        own index probes; the matcher itself is unchanged, so planned
        semantics (including error masking) are identical."""
        steps = self.steps
        n = len(steps)
        analysis.executions += 1
        subst: Substitution = {}
        premises: List[Fact] = []
        if n == 0:
            analysis.matches += 1
            yield {}, []
            return
        step_stats = analysis.steps

        def open_step(depth: int) -> Iterator[bool]:
            stats = step_stats[depth]
            return _timed(
                steps[depth].iterate(store, subst, premises, stats, masks),
                stats,
            )

        stack: List[Iterator[bool]] = [open_step(0)]
        while stack:
            if next(stack[-1], None) is None:
                stack.pop()
                continue
            depth = len(stack)
            if depth == n:
                analysis.matches += 1
                yield dict(subst), list(premises)
            else:
                stack.append(open_step(depth))

    def describe(self) -> List[str]:
        return [step.describe() for step in self.steps]

    def explain(self) -> List[Dict[str, Any]]:
        return [step.explain() for step in self.steps]


class RulePlans:
    """All compiled plans for one rule: a first-round plan plus one
    delta plan per positive body literal."""

    __slots__ = (
        "rule", "first_round", "delta_plans", "has_positives",
        "streamable",
    )

    def __init__(self, rule, first_round, delta_plans, has_positives,
                 streamable):
        self.rule = rule
        self.first_round = first_round
        #: ``(literal_index, predicate, plan)`` triples.
        self.delta_plans = delta_plans
        self.has_positives = has_positives
        #: True when bindings may fire as they are found: the rule's
        #: firings cannot feed its own enumeration (no externals, head
        #: disjoint from the positive body) and no pushed-down
        #: expression can raise after firing has touched the store.
        self.streamable = streamable

    def describe(self) -> Dict[str, List[str]]:
        dump = {"first-round": self.first_round.describe()}
        for index, predicate, plan in self.delta_plans:
            dump[f"delta[{index}:{predicate}]"] = plan.describe()
        return dump

    def named_plans(self) -> List[Tuple[str, "JoinPlan"]]:
        """``(name, plan)`` pairs in execution order (first-round plan
        first) — the iteration order every explain consumer shares."""
        named = [("first-round", self.first_round)]
        for index, predicate, plan in self.delta_plans:
            named.append((f"delta[{index}:{predicate}]", plan))
        return named

    def explain(self) -> Dict[str, Any]:
        """Structured, JSON-serialisable description of every plan."""
        return {
            "streamable": self.streamable,
            "plans": [
                {"name": name, "steps": plan.explain()}
                for name, plan in self.named_plans()
            ],
        }


def deferred_conditions(rule: Rule) -> List[Condition]:
    """Conditions mentioning variables bound only by externals — they
    run after external expansion, never inside a plan."""
    regular_vars: Set[Variable] = set()
    for lit in rule.body:
        if not lit.atom.is_external:
            regular_vars.update(lit.variables())
    regular_vars.update(a.target for a in rule.assignments)
    regular_vars.update(agg.target for agg in rule.aggregates)
    deferred = []
    for condition in rule.conditions:
        if any(v not in regular_vars for v in condition.variables()):
            deferred.append(condition)
    return deferred


def _order_score(literal: Literal, known: Set[Variable]):
    """Greedy static join-order key (higher is better): bound
    positions first, then shared-variable connectivity, then smaller
    arity (fewer fresh bindings per matched fact)."""
    atom = literal.atom
    bound = 0
    shared = set()
    for term in atom.terms:
        if isinstance(term, Variable):
            if not term.is_anonymous and term in known:
                bound += 1
                shared.add(term)
        else:
            bound += 1
    return (bound, len(shared), -atom.arity)


def _build_plan(
    rule: Rule,
    positives: List[Literal],
    negatives: List[Literal],
    assignments: List[Assignment],
    conditions: List[Condition],
    positive_vars: Set[Variable],
    delta_index: Optional[int],
) -> JoinPlan:
    steps: List[_Step] = []
    known: Set[Variable] = set()
    known_positive: Set[Variable] = set()
    pending_assignments = list(assignments)
    pending_conditions = list(conditions)
    pending_negatives = list(negatives)

    def flush():
        """Schedule whatever just became evaluable.

        Ordering here is a fidelity constraint, not a style choice.
        The oracle evaluates a complete match's assignments in rule
        order, then its conditions in rule order, stopping at the
        first failure — so a later expression's error is *suppressed*
        by an earlier failure.  To keep the planned path's error
        behaviour identical we only ever pop assignments and
        conditions from the front of their queues (rule order), and a
        condition may not run before the assignment queue has drained;
        an error on a partial binding is then settled by
        :func:`completes_match`.  Negation checks are pure store
        probes over positively-bound variables: they cannot raise and
        their outcome is fixed by their key values, so they schedule
        freely.
        """
        changed = True
        while changed:
            changed = False
            for literal in list(pending_negatives):
                needed = {
                    v for v in literal.variables()
                    if not v.is_anonymous and v in positive_vars
                }
                if needed <= known_positive:
                    steps.append(
                        NegationStep(literal.atom, known_positive)
                    )
                    pending_negatives.remove(literal)
                    changed = True
            while pending_assignments and all(
                v in known
                for v in pending_assignments[0].input_variables()
            ):
                assignment = pending_assignments.pop(0)
                steps.append(AssignStep(assignment, rule))
                known.add(assignment.target)
                changed = True
            while (
                not pending_assignments
                and pending_conditions
                and all(
                    v in known
                    for v in pending_conditions[0].variables()
                )
            ):
                steps.append(FilterStep(pending_conditions.pop(0), rule))
                changed = True

    remaining = list(enumerate(positives))
    flush()  # constant-only conditions / input-free assignments
    first = True
    while remaining:
        if first and delta_index is not None:
            choice = next(
                entry for entry in remaining if entry[0] == delta_index
            )
        else:
            choice = max(
                remaining,
                key=lambda entry: (_order_score(entry[1], known),
                                   -entry[0]),
            )
        remaining.remove(choice)
        index, literal = choice
        steps.append(ScanStep(
            literal.atom, known,
            delta_only=(delta_index is not None and index == delta_index),
        ))
        fresh = {
            v for v in literal.variables() if not v.is_anonymous
        }
        known.update(fresh)
        known_positive.update(fresh)
        flush()
        first = False

    flush()
    assert not pending_negatives, "negation left unscheduled"
    assert not pending_assignments, "assignment left unscheduled"
    assert not pending_conditions, "condition left unscheduled"
    return JoinPlan(rule, steps, delta_index)


def compile_rule_plans(rule: Rule) -> RulePlans:
    """Compile one rule into its first-round and per-delta plans.

    Raises :class:`~repro.errors.EvaluationError` for a rule whose
    assignment reads a variable that only an external atom binds:
    externals run after the plan, so the assignment could never be
    evaluated."""
    positives = [
        lit for lit in rule.body
        if not lit.negated and not lit.atom.is_external
    ]
    negatives = [lit for lit in rule.body if lit.negated]
    aggregate_targets = {agg.target for agg in rule.aggregates}
    deferred = {id(c) for c in deferred_conditions(rule)}
    plan_conditions = [
        condition for condition in rule.conditions
        if id(condition) not in deferred
        and not (set(condition.variables()) & aggregate_targets)
    ]
    positive_vars: Set[Variable] = set()
    for literal in positives:
        positive_vars.update(
            v for v in literal.variables() if not v.is_anonymous
        )

    available = set(positive_vars)
    for assignment in rule.assignments:
        if any(v not in available for v in assignment.input_variables()):
            raise EvaluationError(
                f"assignment to {assignment.target.name} in rule "
                f"{rule.label or rule} depends on external-only "
                "variables; bind them with regular atoms instead"
            )
        available.add(assignment.target)

    def build(delta_index):
        return _build_plan(
            rule, positives, negatives, list(rule.assignments),
            plan_conditions, positive_vars, delta_index,
        )

    first_round = build(None)
    delta_plans = [
        (index, literal.atom.predicate, build(index))
        for index, literal in enumerate(positives)
    ]

    has_externals = any(lit.atom.is_external for lit in rule.body)
    # Streaming fires bindings while enumeration is still probing the
    # store, so any head predicate the body reads — positively OR under
    # negation — would let this round's own firings leak into this
    # round's matches; the two-phase path enumerates fully before
    # firing.  Eval steps keep a rule two-phase too, so an expression
    # error aborts the chase before the application fires anything.
    body_predicates = {
        lit.atom.predicate for lit in rule.body
        if not lit.atom.is_external
    }
    recursive = bool(rule.head_predicates() & body_predicates)
    has_eval = first_round.has_eval_steps or any(
        plan.has_eval_steps for _, _, plan in delta_plans
    )
    streamable = not has_externals and not recursive and not has_eval
    return RulePlans(
        rule, first_round, delta_plans,
        has_positives=bool(positives), streamable=streamable,
    )
