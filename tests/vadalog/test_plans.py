"""Compiled join plans: compilation shape, execution fidelity against
the naive oracle, and the evaluation-error rule (a pushed-down
expression error aborts when its binding completes a body match and is
masked otherwise)."""

import os
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.vadalog import Program
from repro.vadalog.atoms import Atom
from repro.vadalog.chase import ChaseEngine
from repro.vadalog.database import FactStore
from repro.vadalog.plans import (
    AssignStep,
    FilterStep,
    MaskRecord,
    NegationStep,
    ScanStep,
    compile_rule_plans,
    completes_match,
)
from repro.vadalog.reference import naive_chase
from repro.vadalog.terms import Constant, Variable
from repro.vadalog.unification import probe_layout


def parse_rules(source):
    return Program.parse(source).rules


class TestProbeLayout:
    def test_constants_and_known_vars_form_the_key(self):
        X, Y = Variable("X"), Variable("Y")
        atom = Atom("p", (X, Constant("c"), Y))
        positions, sources, outputs, repeats = probe_layout(atom, {X})
        assert positions == (0, 1)
        assert sources == (X, Constant("c"))
        assert outputs == ((2, Y),)
        assert repeats == ()

    def test_repeated_fresh_variable_becomes_equality_check(self):
        X = Variable("X")
        atom = Atom("p", (X, X))
        positions, _sources, outputs, repeats = probe_layout(atom, set())
        assert positions == ()
        assert outputs == ((0, X),)
        assert repeats == ((1, X),)

    def test_anonymous_variables_constrain_nothing(self):
        atom = Atom("p", (Variable("_"), Variable("X")))
        positions, _sources, outputs, _repeats = probe_layout(atom, set())
        assert positions == ()
        assert [v.name for _, v in outputs] == ["X"]


class TestCompilation:
    def test_one_delta_plan_per_positive_literal(self):
        (rule,) = parse_rules(
            "out(X, Z) :- e(X, Y), f(Y, Z).\n@output(\"out\").\n"
        )
        plans = compile_rule_plans(rule)
        assert [pred for _, pred, _ in plans.delta_plans] == ["e", "f"]
        # Each delta plan leads with a delta-scoped scan of its literal.
        for index, _pred, plan in plans.delta_plans:
            first = plan.steps[0]
            assert isinstance(first, ScanStep) and first.delta_only

    def test_second_scan_probes_on_the_join_variable(self):
        (rule,) = parse_rules(
            "out(X, Z) :- e(X, Y), f(Y, Z).\n@output(\"out\").\n"
        )
        plans = compile_rule_plans(rule)
        second = plans.first_round.steps[1]
        assert isinstance(second, ScanStep)
        assert second.key_positions == (0,)  # f's Y, bound by e's scan

    def test_assignment_pushed_before_dependent_scan(self):
        # Q is assigned from e's variables and then *probes* f — the
        # cross-product-to-hash-probe rewrite the plan layer exists for.
        (rule,) = parse_rules(
            "out(X, F) :- e(X, Y), Q = Y + 1, f(Q, F).\n"
            "@output(\"out\").\n"
        )
        plans = compile_rule_plans(rule)
        kinds = [type(s).__name__ for s in plans.first_round.steps]
        assert kinds == ["ScanStep", "AssignStep", "ScanStep"]
        assert plans.first_round.steps[2].key_positions == (0,)

    def test_conditions_wait_for_assignments(self):
        # The oracle evaluates every assignment before any condition
        # and stops at the first failure; the plan preserves that order.
        (rule,) = parse_rules(
            "out(X) :- e(X, Y), X > 0, Q = Y * 2, R = Q + X.\n"
            "@output(\"out\").\n"
        )
        plans = compile_rule_plans(rule)
        kinds = [type(s).__name__ for s in plans.first_round.steps]
        assert kinds.index("FilterStep") > kinds.index("AssignStep")
        assert kinds.count("AssignStep") == 2

    def test_negation_scheduled_over_positive_vars_only(self):
        (rule,) = parse_rules(
            "out(X) :- e(X, Y), not f(X, Q), Q = Y + 1.\n"
            "@output(\"out\").\n"
        )
        plans = compile_rule_plans(rule)
        steps = plans.first_round.steps
        negation = next(s for s in steps if isinstance(s, NegationStep))
        # Q is assignment-bound: the oracle checks negation before
        # assignments run, so Q must stay out of the probe key.
        assert negation.key_positions == (0,)

    def test_recursive_rule_not_streamable(self):
        (rule,) = parse_rules(
            "p(X, Z) :- p(X, Y), e(Y, Z).\np(1, 2).\n@output(\"p\").\n"
        )
        assert not compile_rule_plans(rule).streamable

    def test_negated_head_predicate_not_streamable(self):
        rules = parse_rules(
            "out(X) :- e(X), not aux(X).\naux(X) :- f(X).\n"
            "@output(\"out\").\n"
        )
        out_rule = next(r for r in rules if "out" in r.head_predicates())
        # 'out' is not read by its own body: streamable.
        assert compile_rule_plans(out_rule).streamable

    def test_plain_join_is_streamable_but_eval_steps_are_not(self):
        (plain,) = parse_rules(
            "out(X, Z) :- e(X, Y), f(Y, Z).\n@output(\"out\").\n"
        )
        assert compile_rule_plans(plain).streamable
        (with_filter,) = parse_rules(
            "out(X) :- e(X, Y), Y > 1.\n@output(\"out\").\n"
        )
        assert not compile_rule_plans(with_filter).streamable

    def test_external_only_assignment_rejected(self):
        (rule,) = parse_rules(
            "out(Q) :- e(Y), #gen(X), Q = X + Y.\n@output(\"out\").\n"
        )
        with pytest.raises(EvaluationError,
                           match="depends on external-only variables"):
            compile_rule_plans(rule)

    def test_describe_lists_every_plan(self):
        (rule,) = parse_rules(
            "out(X, Z) :- e(X, Y), f(Y, Z).\n@output(\"out\").\n"
        )
        dump = compile_rule_plans(rule).describe()
        assert set(dump) == {"first-round", "delta[0:e]", "delta[1:f]"}
        assert any("probe" in line for line in dump["first-round"])


def _outcome(run):
    """``("ok", facts)`` or ``("error", None)`` for an evaluation that
    raised :class:`EvaluationError` — the shape every evaluator is
    compared in."""
    try:
        return "ok", frozenset(run().facts())
    except EvaluationError:
        return "error", None


def _engine_and_oracle(source, facts=()):
    """Outcomes of the dict row path, the columnar batch path (every
    relation promoted) and the naive oracle on one program."""
    program = Program.parse(source)
    facts = list(facts)
    runs = {
        "dict": lambda: program.run(
            facts, preflight=False, use_columnar=False
        ),
        "columnar": lambda: program.run(
            facts, preflight=False, use_columnar=True,
            columnar_threshold=1,
        ),
        "oracle": lambda: naive_chase(
            program.rules, list(program.facts) + facts, program.egds
        ),
    }
    return {name: _outcome(run) for name, run in runs.items()}


class TestExecutionFidelity:
    """Each fixture runs on both engine backends and on the naive
    oracle; all three must agree."""

    def _run_both(self, source, facts=()):
        outcomes = _engine_and_oracle(source, facts)
        assert outcomes["dict"] == outcomes["columnar"] == \
            outcomes["oracle"], outcomes
        return outcomes["dict"]

    def test_join_results_match_legacy(self):
        source = (
            "e(1, 2). e(2, 3). e(3, 4).\n"
            "path(X, Y) :- e(X, Y).\n"
            "path(X, Z) :- path(X, Y), e(Y, Z).\n"
            "@output(\"path\").\n"
        )
        kind, facts = self._run_both(source)
        assert kind == "ok"
        assert len([f for f in facts if f.predicate == "path"]) == 6

    def test_duplicate_body_literals(self):
        # The seed suite's RecursionError shape: identical literals.
        source = (
            "e(1, 2). e(2, 3).\n"
            "out(X, Z) :- e(X, Z), e(X, Z).\n@output(\"out\").\n"
        )
        assert self._run_both(source)[0] == "ok"

    def test_repeated_variables_in_one_atom(self):
        source = (
            "e(1, 1). e(1, 2). e(2, 2).\n"
            "diag(X) :- e(X, X).\n@output(\"diag\").\n"
        )
        _, facts = self._run_both(source)
        assert sorted(
            f.terms[0].value for f in facts if f.predicate == "diag"
        ) == [1, 2]

    def test_assignment_equality_check_when_target_bound(self):
        source = (
            "e(1, 2). e(2, 4). f(1). f(2).\n"
            "out(X) :- e(X, Y), f(X), Y = X * 2.\n@output(\"out\").\n"
        )
        _, facts = self._run_both(source)
        assert sorted(
            f.terms[0].value for f in facts if f.predicate == "out"
        ) == [1, 2]

    def test_fallback_reproduces_legacy_error(self):
        # Error that completes a match: the pushed-down division by an
        # e-value hits 0 on a binding that f(1) completes, so every
        # evaluator raises EvaluationError.
        source = (
            "e(1, 0). f(1).\n"
            "out(Q) :- e(X, Y), Q = X / Y, f(X).\n@output(\"out\").\n"
        )
        assert self._run_both(source)[0] == "error"

    def test_fallback_suppresses_error_legacy_never_hits(self):
        # Error that completes no match: the oracle never evaluates Q
        # for X=2 (f(2) is absent), so the pushed-down division by zero
        # mid-join is masked and the engine agrees, not crashes.
        source = (
            "e(1, 1). e(2, 0). f(1).\n"
            "out(Q) :- e(X, Y), Q = X / Y, f(X).\n@output(\"out\").\n"
        )
        assert self._run_both(source)[0] == "ok"

    def test_negation_with_unbound_variable(self):
        source = (
            "e(1). e(2). f(2, 7).\n"
            "out(X) :- e(X), not f(X, _).\n@output(\"out\").\n"
        )
        _, facts = self._run_both(source)
        assert [
            f.terms[0].value for f in facts if f.predicate == "out"
        ] == [1]

    def test_error_behind_failing_negation_is_masked(self):
        # The division raises before the negation that rejects the
        # binding is scheduled: no complete match, so the row masks.
        source = (
            "e(1, 0). e(5, 1). e(6, 1). f(1, 5). f(1, 6).\n"
            "out(X, Q) :- e(X, Y), Q = X / Y, f(X, Z), not e(Z, _).\n"
            "@output(\"out\").\n"
        )
        assert self._run_both(source)[0] == "ok"

    def test_error_behind_bound_assignment_target_is_masked(self):
        # Q is assigned before it probes g, so the plan reaches the
        # division for e(1, 0) with Q = 2.  The only g row is g(7, 0):
        # the oracle joins it with Q = 7 and rejects that binding at
        # the equality check Q = X + 1, before the division.  The
        # assignment target is part of the completion check, so the
        # row masks instead of raising.
        source = (
            "e(1, 0). e(6, 2). g(7, 0).\n"
            "out(X, R) :- e(X, Y), Q = X + 1, R = X / Y, g(Q, W).\n"
            "@output(\"out\").\n"
        )
        _, facts = self._run_both(source)
        assert [
            tuple(t.value for t in f.terms)
            for f in facts if f.predicate == "out"
        ] == [(6, 3.0)]


# Fixed rules with a pushed-down '/' or '<' before and after the join
# that filters its bindings; Hypothesis draws the e/f facts.
_RAISING_RULES = (
    "out(X, Q) :- e(X, Y), Q = X / Y, f(X, Z).",
    "out(X, Y) :- e(X, Y), X < Y, f(Y, Z).",
    "out(X, Q) :- e(X, Y), f(X, Z), Q = Z / Y.",
    "out(X, Q) :- e(X, Y), Q = X / Y, f(X, Z), not e(Z, _).",
)
_VALUES = st.sampled_from([0, 1, 2, "a", "b"])
_PAIRS = st.lists(st.tuples(_VALUES, _VALUES), max_size=5)


class TestEvaluationErrorProperty:
    @given(rule=st.sampled_from(_RAISING_RULES), e_rows=_PAIRS,
           f_rows=_PAIRS)
    def test_backends_agree_with_oracle(self, rule, e_rows, f_rows):
        facts = [Atom.of("e", *row) for row in e_rows]
        facts += [Atom.of("f", *row) for row in f_rows]
        outcomes = _engine_and_oracle(
            rule + "\n@output(\"out\").\n", facts
        )
        assert outcomes["dict"] == outcomes["columnar"] == \
            outcomes["oracle"], outcomes


class TestEscapeHatch:
    def test_explicit_flag_wins(self):
        # The columnar hatch: an explicit use_columnar beats
        # CHASE_COLUMNAR either way.
        with mock.patch.dict(os.environ, {"CHASE_COLUMNAR": "0"}):
            assert not ChaseEngine([]).use_columnar
            assert ChaseEngine([], use_columnar=True).use_columnar
        with mock.patch.dict(os.environ, {"CHASE_COLUMNAR": "1"}):
            assert not ChaseEngine([], use_columnar=False).use_columnar

    def test_plan_cache_survives_across_runs(self):
        (rule,) = parse_rules("out(X) :- e(X).\n@output(\"out\").\n")
        engine = ChaseEngine([rule])
        engine.run([Atom.of("e", 1)])
        cached = engine._plan_cache[id(rule)]
        engine.run([Atom.of("e", 2)])
        assert engine._plan_cache[id(rule)] is cached

    def test_plan_report_names_rules(self):
        rules = parse_rules(
            "@label(\"hop\").\nout(X, Z) :- e(X, Y), e(Y, Z).\n"
            "@output(\"out\").\n"
        )
        engine = ChaseEngine(rules)
        engine.run([Atom.of("e", 1, 2)])
        report = engine.plan_report()
        assert "hop" in report
        assert "first-round" in report["hop"]


class TestCompletesMatch:
    RULE = (
        "out(X) :- e(X, Y), f(Y, Z), not g(Z), Q = X + 1.\n"
        "@output(\"out\").\n"
    )

    def _rule(self):
        (rule,) = parse_rules(self.RULE)
        return rule

    def test_join_and_negation_decide(self):
        store = FactStore([
            Atom.of("e", 1, 2), Atom.of("f", 2, 3), Atom.of("f", 2, 4),
            Atom.of("g", 3),
        ])
        X = Variable("X")
        # f(2, 4) completes the join and g(4) is absent.
        assert completes_match(self._rule(), store, {X: Constant(1)})
        store.add(Atom.of("g", 4))
        # Every extension is now rejected by the negation.
        assert not completes_match(self._rule(), store, {X: Constant(1)})
        # No e-fact for X = 7 at all.
        assert not completes_match(self._rule(), store, {X: Constant(7)})

    def test_bound_assignment_target_constrains_the_join(self):
        (rule,) = parse_rules(
            "out(X) :- e(X), Q = X + 1, g(Q).\n@output(\"out\").\n"
        )
        store = FactStore([Atom.of("e", 1), Atom.of("g", 5)])
        X, Q = Variable("X"), Variable("Q")
        assert completes_match(rule, store, {X: Constant(1)})
        assert not completes_match(
            rule, store, {X: Constant(1), Q: Constant(2)}
        )


class TestPlanSteps:
    RULE = "out(X) :- e(X), f(X), X > 1.\n@output(\"out\").\n"

    def _filter_step(self):
        (rule,) = parse_rules(self.RULE)
        return FilterStep(rule.conditions[0], rule)

    def test_filter_step_raises_when_binding_completes_match(self):
        store = FactStore([Atom.of("e", "nope"), Atom.of("f", "nope")])
        with pytest.raises(EvaluationError):
            # X bound to a string: '>' raises inside holds().
            list(self._filter_step().iterate(
                store, {Variable("X"): Constant("nope")}, []
            ))

    def test_filter_step_masks_when_no_match_completes(self):
        store = FactStore([Atom.of("e", "nope")])  # no f("nope")
        masks = []
        rows = list(self._filter_step().iterate(
            store, {Variable("X"): Constant("nope")}, [], None, masks
        ))
        assert rows == []
        assert [(m.op, m.error, m.rows) for m in masks] == [
            ("filter", "EvaluationError", 1)
        ]

    def test_assign_step_masks_and_counts_per_step(self):
        (rule,) = parse_rules(
            "out(Q) :- e(X), f(X), Q = X + 1.\n@output(\"out\").\n"
        )
        step = AssignStep(rule.assignments[0], rule)
        masks = [MaskRecord("filter", "other step", "X", 1)]
        for _ in range(2):
            assert list(step.iterate(
                FactStore(), {Variable("X"): Constant("nope")}, [],
                None, masks,
            )) == []
        assert [(m.op, m.rows) for m in masks] == [
            ("filter", 1), ("assign", 2)
        ]
