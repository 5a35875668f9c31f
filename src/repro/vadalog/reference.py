"""A deliberately *naive* reference evaluator — the conformance oracle.

This module answers one question for the differential-testing harness
(:mod:`repro.testing`): what model does the paper's semantics assign to
a program, computed with the dumbest strategy that can possibly work?

It re-implements the chase with none of the machinery that makes
:class:`~repro.vadalog.chase.ChaseEngine` fast, and none of its code:

* **no semi-naive deltas** — every round re-joins every rule against
  the full fact set from scratch;
* **no indices** — body matching scans the per-predicate fact list
  linearly, with its own unification code (it does *not* call
  :mod:`repro.vadalog.unification`, so index/matching bugs in the
  engine cannot mask themselves);
* **own stratification** — a textbook counting fixpoint instead of the
  engine's networkx condensation;
* **own homomorphism check** for the restricted chase;
* **no routing, no provenance, no telemetry, no externals**.

The only things shared with the production engine are the immutable
data model (:mod:`repro.vadalog.terms`, :mod:`repro.vadalog.atoms`,
:mod:`repro.vadalog.rules`) and expression evaluation — by design, so
that a disagreement between the two evaluators points at the chase
machinery, not at two different readings of a rule object.

Semantics implemented (mirroring the engine's documented contract):

* restricted chase for existentials (``termination="restricted"``),
  with the optional isomorphic-pattern blocking
  (``termination="isomorphic"``);
* stratified negation, negated atoms checked against the live store;
* monotonic aggregation with per-contributor retention and functional
  (replace-on-update) emission;
* EGDs enforced to their own fixpoint after every round: null
  unification rewrites the store, constant clashes are recorded as
  violations;
* the same ``max_rounds`` (per stratum) and ``max_facts`` budgets,
  raising :class:`~repro.errors.EvaluationError` with an ``exceeded``
  message so the conformance runner can classify budget exhaustion.

Evaluation errors (the rule ``docs/vadalog-syntax.md`` documents and
the engine is tested against): assignments and conditions run only on
a *complete* body match — every positive atom joined, every negation
passed — assignments in rule order, then conditions in rule order,
stopping at the first failure.  An expression that raises there aborts
the run; an expression is never evaluated on a partial binding, so an
error the engine meets on a binding that completes no match cannot
occur here (the engine masks it).  Rules whose assignments read
variables only externals bind never reach this oracle: it rejects
externals outright, and the engine rejects such rules when compiling.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import EvaluationError, StratificationError
from .atoms import Atom, Fact
from .expressions import evaluate_to_term
from .rules import AGGREGATE_FUNCTIONS, EGD, Rule
from .terms import Constant, LabelledNull, NullFactory, Term, Variable


class ReferenceResult:
    """Outcome of a naive evaluation: plain facts, no bookkeeping."""

    def __init__(
        self,
        facts_by_pred: Dict[str, Set[Fact]],
        violations: List[Tuple[Term, Term]],
        rounds: int,
        nulls_introduced: int,
    ):
        self._facts_by_pred = facts_by_pred
        #: Constant-vs-constant EGD clashes as (left, right) term pairs.
        self.violations = violations
        self.rounds = rounds
        self.nulls_introduced = nulls_introduced

    def facts(self, predicate: Optional[str] = None):
        if predicate is not None:
            yield from self._facts_by_pred.get(predicate, ())
            return
        for bucket in self._facts_by_pred.values():
            yield from bucket

    def __len__(self):
        return sum(len(b) for b in self._facts_by_pred.values())


# ---------------------------------------------------------------------------
# Independent stratification (counting fixpoint, no graph library).


def _stratum_numbers(rules: Sequence[Rule]) -> Dict[str, int]:
    """Assign each predicate a stratum number: ``s(head) >= s(body)``,
    ``s(head) > s(body)`` through negation, and ``s(h1) == s(h2)`` for
    co-heads of one rule (they are derived by the same firing, so they
    must reach fixpoint together).  Classic iterate-until-stable
    algorithm; a number exceeding the predicate count proves a negative
    cycle."""
    predicates: Set[str] = set()
    for rule in rules:
        predicates.update(rule.head_predicates())
        for literal in rule.body:
            if not literal.atom.is_external:
                predicates.add(literal.atom.predicate)
    stratum = {pred: 0 for pred in predicates}
    limit = len(predicates) + 1
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for literal in rule.body:
                if literal.atom.is_external:
                    continue
                body_pred = literal.atom.predicate
                for head in rule.head_predicates():
                    required = stratum[body_pred] + (
                        1 if literal.negated else 0
                    )
                    if stratum[head] < required:
                        stratum[head] = required
                        if stratum[head] > limit:
                            raise StratificationError(
                                f"negation cycle through {head!r}: the "
                                "program is not stratifiable"
                            )
                        changed = True
            heads = rule.head_predicates()
            if len(heads) > 1:
                top = max(stratum[head] for head in heads)
                for head in heads:
                    if stratum[head] < top:
                        stratum[head] = top
                        changed = True
    return stratum


def _reference_strata(rules: Sequence[Rule]) -> List[List[Rule]]:
    """Group rules bottom-up; a rule joins the stratum of its highest
    head predicate (same convention as the engine)."""
    if not rules:
        return []
    numbers = _stratum_numbers(rules)
    by_rank: Dict[int, List[Rule]] = {}
    for rule in rules:
        rank = max(numbers[pred] for pred in rule.head_predicates())
        by_rank.setdefault(rank, []).append(rule)
    return [by_rank[rank] for rank in sorted(by_rank)]


# ---------------------------------------------------------------------------
# Independent matching (linear scan, no substitution sharing tricks).


def _match(atom: Atom, fact: Fact, bindings: Dict[Variable, Term]):
    """Extend ``bindings`` so ``atom`` maps onto ``fact``; None on
    failure.  Anonymous variables match anything and never bind."""
    if atom.predicate != fact.predicate or atom.arity != fact.arity:
        return None
    extended = dict(bindings)
    for pattern, value in zip(atom.terms, fact.terms):
        if isinstance(pattern, Variable):
            if pattern.is_anonymous:
                continue
            bound = extended.get(pattern)
            if bound is None:
                extended[pattern] = value
            elif bound != value:
                return None
        elif pattern != value:
            return None
    return extended


def _negated_atom_has_match(
    atom: Atom, facts_by_pred: Dict[str, Set[Fact]]
) -> bool:
    """Negation-as-failure test mirroring the engine: ground positions
    must agree, variable positions (only anonymous ones can remain
    after safety validation) are independent wildcards."""
    for fact in facts_by_pred.get(atom.predicate, ()):
        if fact.arity != atom.arity:
            continue
        if all(
            isinstance(pattern, Variable) or pattern == value
            for pattern, value in zip(atom.terms, fact.terms)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Independent homomorphism search for the restricted chase.


def _conjunction_has_image(
    atoms: Sequence[Fact],
    placeholders: Set[LabelledNull],
    facts_by_pred: Dict[str, Set[Fact]],
    null_to_null: bool,
) -> bool:
    """Joint homomorphic image check: placeholder nulls map to any
    term (consistently across the conjunction); other nulls are rigid,
    or — with ``null_to_null`` — may map to labelled nulls."""

    def search(index: int, mapping: Dict[LabelledNull, Term]) -> bool:
        if index == len(atoms):
            return True
        atom = atoms[index]
        for fact in facts_by_pred.get(atom.predicate, ()):
            if fact.arity != atom.arity:
                continue
            extension: Dict[LabelledNull, Term] = {}
            ok = True
            for pattern, value in zip(atom.terms, fact.terms):
                if isinstance(pattern, LabelledNull):
                    mappable = pattern in placeholders
                    soft = null_to_null and not mappable
                    if mappable or soft:
                        if soft and not isinstance(value, LabelledNull):
                            ok = False
                            break
                        prior = mapping.get(pattern, extension.get(pattern))
                        if prior is None:
                            extension[pattern] = value
                        elif prior != value:
                            ok = False
                            break
                        continue
                if pattern != value:
                    ok = False
                    break
            if not ok:
                continue
            mapping.update(extension)
            if search(index + 1, mapping):
                return True
            for null in extension:
                mapping.pop(null, None)
        return False

    return search(0, {})


# ---------------------------------------------------------------------------
# Aggregate bookkeeping (same contributor-monotone semantics, fresh code).


class _NaiveAggregate:
    """Per (rule, aggregate) contributor state with monotone retention."""

    def __init__(self, function: str):
        if function not in AGGREGATE_FUNCTIONS:
            raise EvaluationError(f"unknown aggregate {function!r}")
        self.function = function
        # group key -> contributor -> retained contribution
        self.groups: Dict[Tuple, Dict[Tuple, object]] = {}

    def contribute(self, group: Tuple, contributor: Tuple, value) -> None:
        if self.function == "mcount":
            value = 1
        elif self.function == "munion":
            if not isinstance(value, frozenset):
                value = frozenset([value])
        elif not isinstance(value, (int, float)):
            raise EvaluationError(
                f"{self.function} expects a numeric contribution, got "
                f"{value!r}"
            )
        bucket = self.groups.setdefault(group, {})
        previous = bucket.get(contributor)
        if previous is None:
            bucket[contributor] = value
        elif self.function in ("msum", "mmax", "mprod"):
            bucket[contributor] = max(previous, value)
        elif self.function == "mmin":
            bucket[contributor] = min(previous, value)
        elif self.function == "munion":
            bucket[contributor] = previous | value
        # mcount: nothing to update, contributor already counted once

    def value(self, group: Tuple):
        contributions = list(self.groups[group].values())
        if self.function == "mcount":
            return len(contributions)
        if self.function == "msum":
            return sum(contributions)
        if self.function == "mprod":
            product = 1.0
            for item in contributions:
                product *= item
            return product
        if self.function == "mmin":
            return min(contributions)
        if self.function == "mmax":
            return max(contributions)
        union: frozenset = frozenset()
        for item in contributions:
            union |= item
        return union


# ---------------------------------------------------------------------------
# The naive chase itself.


class NaiveChase:
    """Naive-evaluation oracle over a rule set.

    Unlike the engine this object is single-use per :meth:`run` call
    and keeps no state between runs.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        egds: Sequence[EGD] = (),
        max_rounds: int = 10_000,
        max_facts: int = 5_000_000,
        termination: str = "restricted",
    ):
        if termination not in ("restricted", "isomorphic"):
            raise EvaluationError(
                f"unknown termination strategy {termination!r}"
            )
        for rule in rules:
            if any(lit.atom.is_external for lit in rule.body):
                raise EvaluationError(
                    "the reference oracle does not support external "
                    f"predicates (rule {rule.label or rule})"
                )
        self.rules = list(rules)
        self.egds = list(egds)
        self.max_rounds = max_rounds
        self.max_facts = max_facts
        self.termination = termination

    # -- public API ----------------------------------------------------

    def run(self, facts: Iterable[Fact] = ()) -> ReferenceResult:
        facts_by_pred: Dict[str, Set[Fact]] = {}
        for fact in facts:
            if not fact.is_ground:
                raise EvaluationError(f"non-ground input fact {fact}")
            facts_by_pred.setdefault(fact.predicate, set()).add(fact)

        null_factory = NullFactory()
        self._placeholder_label = 0
        violations: List[Tuple[Term, Term]] = []
        total_rounds = 0

        for stratum in _reference_strata(self.rules):
            # Aggregate state persists across the stratum's rounds
            # (contributions are never forgotten — Section 4.3).
            aggregate_states: Dict[Tuple[int, int], _NaiveAggregate] = {}
            emitted: Dict[Tuple[int, int, Tuple], Fact] = {}
            rounds = 0
            while True:
                rounds += 1
                total_rounds += 1
                if rounds > self.max_rounds:
                    raise EvaluationError(
                        f"reference chase exceeded {self.max_rounds} "
                        "rounds in one stratum"
                    )
                changed = False
                for rule_index, rule in enumerate(stratum):
                    if self._apply_rule(
                        rule,
                        rule_index,
                        facts_by_pred,
                        null_factory,
                        aggregate_states,
                        emitted,
                    ):
                        changed = True
                    if self._count(facts_by_pred) > self.max_facts:
                        raise EvaluationError(
                            f"reference chase exceeded {self.max_facts} "
                            "facts"
                        )
                if self.egds:
                    if self._enforce_egds(facts_by_pred, violations):
                        changed = True
                if not changed:
                    break

        if not self.rules and self.egds:
            self._enforce_egds(facts_by_pred, violations)

        return ReferenceResult(
            facts_by_pred, violations, total_rounds, null_factory.issued
        )

    # -- rule application ----------------------------------------------

    @staticmethod
    def _count(facts_by_pred: Dict[str, Set[Fact]]) -> int:
        return sum(len(bucket) for bucket in facts_by_pred.values())

    def _apply_rule(
        self,
        rule: Rule,
        rule_index: int,
        facts_by_pred: Dict[str, Set[Fact]],
        null_factory: NullFactory,
        aggregate_states: Dict[Tuple[int, int], _NaiveAggregate],
        emitted: Dict[Tuple[int, int, Tuple], Fact],
    ) -> bool:
        bindings = list(self._enumerate(rule, facts_by_pred))
        changed = False
        for substitution in bindings:
            if rule.has_aggregates:
                fired = self._fire_aggregate(
                    rule,
                    rule_index,
                    substitution,
                    facts_by_pred,
                    aggregate_states,
                    emitted,
                )
            else:
                fired = self._fire(
                    rule, substitution, facts_by_pred, null_factory
                )
            changed = fired or changed
        return changed

    def _enumerate(self, rule: Rule, facts_by_pred):
        """All body matches: a full nested-loop join, every round."""
        positives = [
            lit
            for lit in rule.body
            if not lit.negated and not lit.atom.is_external
        ]
        negatives = [lit for lit in rule.body if lit.negated]

        def join(index: int, bindings: Dict[Variable, Term]):
            if index == len(positives):
                yield dict(bindings)
                return
            atom = positives[index].atom
            for fact in list(facts_by_pred.get(atom.predicate, ())):
                extended = _match(atom, fact, bindings)
                if extended is not None:
                    yield from join(index + 1, extended)

        for substitution in join(0, {}):
            rejected = False
            for literal in negatives:
                grounded = literal.atom.substitute(substitution)
                if _negated_atom_has_match(grounded, facts_by_pred):
                    rejected = True
                    break
            if rejected:
                continue
            substitution = self._apply_assignments(rule, substitution)
            if substitution is None:
                continue
            if not self._check_conditions(rule, substitution):
                continue
            yield substitution

    def _apply_assignments(self, rule: Rule, substitution):
        for assignment in rule.assignments:
            value = evaluate_to_term(assignment.expression, substitution)
            bound = substitution.get(assignment.target)
            if bound is not None:
                if bound != value:
                    return None
            else:
                substitution[assignment.target] = value
        return substitution

    def _check_conditions(self, rule: Rule, substitution) -> bool:
        targets = {agg.target for agg in rule.aggregates}
        for condition in rule.conditions:
            if any(v in targets for v in condition.variables()):
                continue  # checked after aggregation
            if not condition.holds(substitution):
                return False
        return True

    def _fire(
        self, rule: Rule, substitution, facts_by_pred, null_factory
    ) -> bool:
        existentials = rule.existential_variables()
        if existentials:
            trial = dict(substitution)
            placeholders: Set[LabelledNull] = set()
            for variable in existentials:
                self._placeholder_label -= 1
                placeholder = LabelledNull(self._placeholder_label)
                trial[variable] = placeholder
                placeholders.add(placeholder)
            trial_atoms = [atom.substitute(trial) for atom in rule.head]
            if _conjunction_has_image(
                trial_atoms,
                placeholders,
                facts_by_pred,
                null_to_null=(self.termination == "isomorphic"),
            ):
                return False
            final = dict(substitution)
            for variable in existentials:
                final[variable] = null_factory.fresh()
            head_atoms = [atom.substitute(final) for atom in rule.head]
        else:
            head_atoms = [
                atom.substitute(substitution) for atom in rule.head
            ]
        changed = False
        for atom in head_atoms:
            if not atom.is_ground:
                raise EvaluationError(
                    f"head atom {atom} not ground after substitution in "
                    f"rule {rule.label or rule}"
                )
            bucket = facts_by_pred.setdefault(atom.predicate, set())
            if atom not in bucket:
                bucket.add(atom)
                changed = True
        return changed

    def _fire_aggregate(
        self,
        rule: Rule,
        rule_index: int,
        substitution,
        facts_by_pred,
        aggregate_states,
        emitted,
    ) -> bool:
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
        for agg_index, agg in enumerate(rule.aggregates):
            state = aggregate_states.get((rule_index, agg_index))
            if state is None:
                state = _NaiveAggregate(agg.function)
                aggregate_states[(rule_index, agg_index)] = state
            contributor = tuple(substitution[v] for v in agg.contributors)
            contribution = (
                agg.argument.evaluate(substitution)
                if agg.argument is not None
                else 1
            )
            state.contribute(group_key, contributor, contribution)
            substitution[agg.target] = Constant(state.value(group_key))

        for condition in rule.conditions:
            if any(v in targets for v in condition.variables()):
                if not condition.holds(substitution):
                    return False

        changed = False
        for atom_index, atom in enumerate(
            atom.substitute(substitution) for atom in rule.head
        ):
            if not atom.is_ground:
                raise EvaluationError(
                    f"aggregate head atom {atom} not ground in rule "
                    f"{rule.label or rule}"
                )
            emit_key = (rule_index, atom_index, group_key)
            previous = emitted.get(emit_key)
            if previous == atom:
                continue
            if previous is not None:
                facts_by_pred.get(previous.predicate, set()).discard(
                    previous
                )
            bucket = facts_by_pred.setdefault(atom.predicate, set())
            if atom not in bucket:
                bucket.add(atom)
                changed = True
            emitted[emit_key] = atom
        return changed

    # -- EGD enforcement ------------------------------------------------

    def _enforce_egds(self, facts_by_pred, violations) -> bool:
        """Run the EGDs to their own fixpoint; returns whether the
        store changed.  Null unification rewrites the whole store."""
        reported = {
            (left, right) for left, right in violations
        }
        any_change = False
        progress = True
        while progress:
            progress = False
            for egd in self.egds:
                positives = [lit for lit in egd.body if not lit.negated]

                def join(index: int, bindings):
                    if index == len(positives):
                        yield bindings
                        return
                    atom = positives[index].atom
                    for fact in list(
                        facts_by_pred.get(atom.predicate, ())
                    ):
                        extended = _match(atom, fact, bindings)
                        if extended is not None:
                            yield from join(index + 1, extended)

                restart = False
                for bindings in join(0, {}):
                    for left_var, right_var in egd.equalities:
                        left = bindings.get(left_var)
                        right = bindings.get(right_var)
                        if left is None or right is None or left == right:
                            continue
                        if isinstance(left, LabelledNull):
                            self._rewrite_null(facts_by_pred, left, right)
                            progress = any_change = restart = True
                        elif isinstance(right, LabelledNull):
                            self._rewrite_null(facts_by_pred, right, left)
                            progress = any_change = restart = True
                        else:
                            if (left, right) not in reported:
                                reported.add((left, right))
                                violations.append((left, right))
                    if restart:
                        break  # store mutated: restart enumeration
                if restart:
                    break
        return any_change

    @staticmethod
    def _rewrite_null(facts_by_pred, null: LabelledNull, replacement: Term):
        for predicate, bucket in facts_by_pred.items():
            affected = [fact for fact in bucket if null in fact.terms]
            for fact in affected:
                bucket.discard(fact)
                bucket.add(
                    Atom(
                        fact.predicate,
                        tuple(
                            replacement if term == null else term
                            for term in fact.terms
                        ),
                    )
                )


def naive_chase(
    rules: Sequence[Rule],
    facts: Iterable[Fact] = (),
    egds: Sequence[EGD] = (),
    max_rounds: int = 10_000,
    max_facts: int = 5_000_000,
    termination: str = "restricted",
) -> ReferenceResult:
    """One-call naive evaluation (the conformance oracle entry point)."""
    return NaiveChase(
        rules,
        egds=egds,
        max_rounds=max_rounds,
        max_facts=max_facts,
        termination=termination,
    ).run(facts)
