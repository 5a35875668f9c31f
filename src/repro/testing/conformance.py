"""Cross-engine conformance: run both evaluators, diff the models.

For every generated (program, database) pair the runner executes

* the production :class:`~repro.vadalog.chase.ChaseEngine` (semi-naive,
  indexed, routed compiled join plans) on the dict backend, the
  columnar backend, or both, selected by the ``backend`` knob — and
* the naive :func:`~repro.vadalog.reference.naive_chase` oracle,

under identical round/fact budgets, then classifies the pair
(``backend="both"`` first requires columnar/dict agreement, so a single
run asserts three-way columnar/dict/reference consensus):

========================  ====================================================
status                    meaning
========================  ====================================================
``equal``                 identical fact sets (labels and all)
``isomorphic``            equal up to a bijective labelled-null renaming
``hom-equivalent``        homomorphically equivalent — legitimate
                          restricted-chase firing-order divergence
``error-match``           both evaluators raised the same exception type
``budget``                both runs exhausted a budget (skipped)
``budget-skew``           exactly one run exhausted a budget (skipped; a
                          cluster of these deserves investigation)
``analyzer-dirty``        the static analyzer reports error-level
                          diagnostics on a generated program — the
                          generator broke its own cleanliness contract
``analyzer-engine-       the analyzer found no errors but the engine's
disagree``                static machinery (safety / stratification /
                          wardedness) still refused the program
``flow-disagree``         the static leakage pass (VDL070) called the
                          program clean, yet a sentinel identifier
                          surfaced in an ``@output`` fact — the static
                          information-flow analysis is unsound
``disagree``              anything else — a real conformance failure
========================  ====================================================

The ``analyzer-*`` and ``flow-*`` statuses count as disagreements: both
directions of analyzer/engine divergence are findings, minimized and
archived like model mismatches.

Static/dynamic leakage cross-check: the generator (with probability
``p_identifier_seed``) declares one EDB position
``@category(..., "identifier")``, fills it with unique sentinel
constants, and marks every derived predicate ``@output``.  After the
evaluators agree, the harness compares the static VDL070 verdict with
:func:`repro.attack.disclosure.find_disclosures` over the engine's
model.  VDL070 over-approximates, so "static flags a flow, dynamics
show none" is fine — but a static-clean program disclosing a sentinel
is a soundness bug (``flow-disagree``).  Outcomes that performed the
check carry ``flow_checked=True``.

Disagreements are minimized by greedy delta-debugging (drop rules,
EGDs, facts while the disagreement persists) and written as a JSON
*seed artifact* that replays with one command::

    PYTHONPATH=src python -m repro.testing.conformance --replay <artifact.json>

The artifact embeds the generator seed and config (for regeneration)
*and* the rendered minimized program (for humans and for replay
independent of generator drift).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..vadalog.atoms import Fact
from ..vadalog.program import Program
from ..vadalog.reference import naive_chase
from .compare import ComparisonResult, compare_fact_sets, diff_summary
from .generator import GeneratorConfig, generate_program

#: Default budgets: generous relative to generated instance sizes, so
#: budget exhaustion means a genuinely diverging (or non-terminating
#: restricted-chase) program, not a close call.
DEFAULT_MAX_ROUNDS = 400
DEFAULT_MAX_FACTS = 4_000


class _Run:
    """Outcome of one evaluator on one program."""

    __slots__ = ("kind", "facts", "violations", "error")

    def __init__(self, kind, facts=None, violations=None, error=None):
        self.kind = kind  # 'ok' | 'budget' | 'error'
        self.facts = facts
        self.violations = violations
        self.error = error


def _violation_pairs(pairs) -> Set[frozenset]:
    """Normalize EGD constant clashes to unordered repr pairs, so the
    two evaluators' different bookkeeping compares cleanly."""
    return {frozenset((repr(left), repr(right))) for left, right in pairs}


#: Fact-store backends the harness can pit against each other and
#: against the naive oracle: ``dict`` (tuple-at-a-time over hash
#: indexes), ``columnar`` (dictionary-encoded columns + batched
#: plan execution, promotion forced at threshold 1 so every relation
#: actually exercises the columnar code), or ``both`` — which first
#: requires columnar/dict agreement before any engine/oracle check.
BACKENDS = ("dict", "columnar", "both")

def _run_engine(
    program: Program,
    max_rounds: int,
    max_facts: int,
    termination: str,
    backend: str = "dict",
) -> _Run:
    columnar = backend == "columnar"
    try:
        result = program.run(
            provenance=False,
            max_rounds=max_rounds,
            max_facts=max_facts,
            termination=termination,
            use_columnar=columnar,
            columnar_threshold=1 if columnar else None,
            # The harness runs the analyzer itself (run_one) and must
            # not let the pre-flight mask engine/oracle divergence.
            preflight=False,
        )
    except Exception as exc:  # noqa: BLE001 — crashes are findings too
        if "exceeded" in str(exc):
            return _Run("budget", error=exc)
        return _Run("error", error=exc)
    return _Run(
        "ok",
        facts=frozenset(result.facts()),
        violations=_violation_pairs(
            (violation.left, violation.right)
            for violation in result.egd_violations
        ),
    )


def _run_oracle(
    program: Program, max_rounds: int, max_facts: int, termination: str
) -> _Run:
    try:
        result = naive_chase(
            program.rules,
            facts=program.facts,
            egds=program.egds,
            max_rounds=max_rounds,
            max_facts=max_facts,
            termination=termination,
        )
    except Exception as exc:  # noqa: BLE001
        if "exceeded" in str(exc):
            return _Run("budget", error=exc)
        return _Run("error", error=exc)
    return _Run(
        "ok",
        facts=frozenset(result.facts()),
        violations=_violation_pairs(result.violations),
    )


@dataclass
class ConformanceOutcome:
    """Verdict for one generated pair."""

    status: str
    detail: str = ""
    seed: Optional[int] = None
    #: True when the static/dynamic leakage cross-check actually ran
    #: (the program carried sentinel identifiers and @output marks).
    flow_checked: bool = False

    AGREEMENT_STATUSES = (
        "equal",
        "isomorphic",
        "hom-equivalent",
        "error-match",
    )
    SKIP_STATUSES = ("budget", "budget-skew")

    @property
    def is_disagreement(self) -> bool:
        return self.status not in (
            self.AGREEMENT_STATUSES + self.SKIP_STATUSES
        )

    def __repr__(self):
        tag = f" seed={self.seed}" if self.seed is not None else ""
        return f"ConformanceOutcome({self.status}{tag})"


#: Exception types raised by the engine's own static machinery; when
#: one of these fires on an analyzer-clean program, the analyzer and
#: the engine disagree about the program's static legality.
STATIC_ERROR_TYPES = (
    "SafetyError",
    "StratificationError",
    "WardednessError",
    "StaticAnalysisError",
)


def _analyzer_errors(program: Program) -> Tuple[List[str], bool]:
    """Rendered error-level diagnostics for the program (post
    ``@lint_ignore`` suppression), split by kind.

    Returns ``(other_errors, static_leak)``: VDL070 findings are the
    static leakage verdict under cross-check — an expected product of
    sensitivity seeding, not a generator cleanliness violation — so
    they are reported as a flag, not as dirt."""
    from ..vadalog.analysis import analyze

    report = analyze(program)
    other = [
        d.render(report.source_name)
        for d in report.errors
        if d.code != "VDL070"
    ]
    static_leak = any(d.code == "VDL070" for d in report.errors)
    return other, static_leak


def _flow_cross_check(
    program: Program, facts, static_leak: bool
) -> Optional[List]:
    """Compare the static VDL070 verdict with the dynamic oracle.

    Returns ``None`` when the program has no cross-check substrate
    (no sentinel identifiers or no ``@output`` marks); otherwise the
    list of disclosures that *contradict* a clean static verdict —
    empty when the two views are consistent."""
    from ..attack.disclosure import find_disclosures, sentinel_values

    if not sentinel_values(program) or not program.outputs():
        return None
    if static_leak:
        # The static analysis over-approximates: it already flags a
        # flow, so any dynamic behaviour is consistent with it.
        return []
    return find_disclosures(program, facts)


def _classify(
    left: _Run,
    right: _Run,
    left_name: str = "engine",
    right_name: str = "oracle",
) -> ConformanceOutcome:
    """Classify one evaluator pairing (the table at the top of this
    module); names only flavour the diagnostics."""
    if left.kind == "budget" and right.kind == "budget":
        return ConformanceOutcome("budget")
    if left.kind == "budget" or right.kind == "budget":
        which = left_name if left.kind == "budget" else right_name
        return ConformanceOutcome(
            "budget-skew", f"only the {which} exhausted its budget"
        )
    if left.kind == "error" and right.kind == "error":
        if type(left.error).__name__ == type(right.error).__name__:
            name = type(left.error).__name__
            if name in STATIC_ERROR_TYPES:
                # The program passed the analyzer, yet the engine's own
                # static checks refused it — a genuine divergence
                # between the two static views, not an agreement.
                return ConformanceOutcome(
                    "analyzer-engine-disagree",
                    "analyzer found no errors but both evaluators "
                    f"raised {name}: {left.error}",
                )
            return ConformanceOutcome("error-match", name)
        return ConformanceOutcome(
            "disagree",
            f"different exceptions: {left_name} raised "
            f"{type(left.error).__name__} ({left.error}), {right_name} "
            f"raised {type(right.error).__name__} ({right.error})",
        )
    if left.kind == "error" or right.kind == "error":
        which, run = (
            (left_name, left) if left.kind == "error" else
            (right_name, right)
        )
        return ConformanceOutcome(
            "disagree",
            f"only the {which} raised "
            f"{type(run.error).__name__}: {run.error}",
        )

    comparison = compare_fact_sets(left.facts, right.facts)
    if not comparison.agree:
        return ConformanceOutcome(
            "disagree",
            f"models differ ({left_name} vs {right_name}):\n"
            + diff_summary(left.facts, right.facts),
        )
    if left.violations != right.violations:
        return ConformanceOutcome(
            "disagree",
            f"EGD violations differ: {left_name} "
            f"{sorted(map(sorted, left.violations))} vs {right_name} "
            f"{sorted(map(sorted, right.violations))}",
        )
    return ConformanceOutcome(comparison.verdict, comparison.detail)


def run_one(
    program: Program,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_facts: int = DEFAULT_MAX_FACTS,
    termination: str = "restricted",
    backend: str = "dict",
) -> ConformanceOutcome:
    """Execute the evaluators on one program and classify the pair.

    ``backend`` picks the fact-store backend(s): ``"dict"`` (the
    default), ``"columnar"`` (promotion forced at threshold 1), or
    ``"both"`` — which gates columnar/dict agreement *before* any
    engine/oracle comparison, so a backend bug is reported as the
    backend diff rather than as an oracle mismatch."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; use one of {BACKENDS}"
        )
    analyzer_errors, static_leak = _analyzer_errors(program)
    if analyzer_errors:
        return ConformanceOutcome(
            "analyzer-dirty",
            "static analysis rejects the generated program: "
            + "; ".join(analyzer_errors),
        )
    primary_backend = "columnar" if backend == "both" else backend
    engine = _run_engine(
        program, max_rounds, max_facts, termination,
        backend=primary_backend,
    )
    if backend == "both":
        dict_run = _run_engine(
            program, max_rounds, max_facts, termination, backend="dict",
        )
        cross = _classify(engine, dict_run, "columnar", "dict")
        if cross.is_disagreement or cross.status in (
            ConformanceOutcome.SKIP_STATUSES
        ):
            return cross
    oracle = _run_oracle(program, max_rounds, max_facts, termination)
    outcome = _classify(engine, oracle)
    if engine.kind == "ok" and not outcome.is_disagreement:
        disclosures = _flow_cross_check(
            program, engine.facts, static_leak
        )
        if disclosures is None:
            return outcome
        if disclosures:
            return ConformanceOutcome(
                "flow-disagree",
                "static leakage analysis called the program clean but "
                "sentinels surfaced dynamically: "
                + "; ".join(str(d) for d in disclosures),
                flow_checked=True,
            )
        outcome.flow_checked = True
    return outcome


# ---------------------------------------------------------------------------
# Failure minimization (greedy delta debugging).


def minimize_case(
    program: Program,
    still_failing: Callable[[Program], bool],
) -> Program:
    """Greedily drop rules, EGDs and facts while the failure persists."""
    current = program

    def variants(base: Program):
        # Annotations ride along unshrunk: sensitivity/output marks
        # are part of what makes a flow finding reproduce.
        for index in range(len(base.rules)):
            yield Program(
                rules=base.rules[:index] + base.rules[index + 1:],
                egds=base.egds,
                facts=base.facts,
                annotations=base.annotations,
            )
        for index in range(len(base.egds)):
            yield Program(
                rules=base.rules,
                egds=base.egds[:index] + base.egds[index + 1:],
                facts=base.facts,
                annotations=base.annotations,
            )
        for index in range(len(base.facts)):
            yield Program(
                rules=base.rules,
                egds=base.egds,
                facts=base.facts[:index] + base.facts[index + 1:],
                annotations=base.annotations,
            )

    shrunk = True
    while shrunk:
        shrunk = False
        for candidate in variants(current):
            try:
                if still_failing(candidate):
                    current = candidate
                    shrunk = True
                    break
            except Exception:  # pragma: no cover — defensive
                continue
    return current


# ---------------------------------------------------------------------------
# Batch running and seed artifacts.


@dataclass
class ConformanceReport:
    """Aggregate over a batch of generated pairs."""

    outcomes: List[ConformanceOutcome] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    @property
    def disagreements(self) -> List[ConformanceOutcome]:
        return [o for o in self.outcomes if o.is_disagreement]

    @property
    def executed(self) -> int:
        return len(self.outcomes)

    @property
    def flow_checked(self) -> int:
        """Pairs where the static/dynamic leakage cross-check ran."""
        return sum(1 for o in self.outcomes if o.flow_checked)

    def summary(self) -> str:
        parts = [f"{self.executed} pairs"]
        for status, count in sorted(self.counts.items()):
            parts.append(f"{status}={count}")
        parts.append(f"flow-checked={self.flow_checked}")
        if self.artifacts:
            parts.append(f"artifacts: {', '.join(self.artifacts)}")
        return "  ".join(parts)


def _render_or_repr(program: Program) -> str:
    try:
        return program.to_source()
    except Exception:  # pragma: no cover — renderer gap, keep going
        lines = [repr(rule) for rule in program.rules]
        lines += [repr(egd) for egd in program.egds]
        lines += [f"{fact}." for fact in program.facts]
        return "\n".join(lines)


def write_artifact(
    directory: str,
    seed: int,
    base_seed: int,
    config: GeneratorConfig,
    outcome: ConformanceOutcome,
    program: Program,
    minimized: Optional[Program],
    max_rounds: int,
    max_facts: int,
    termination: str,
    backend: str = "dict",
) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"conformance_seed_{seed}.json")
    payload = {
        "seed": seed,
        "base_seed": base_seed,
        "config": config.to_dict(),
        "max_rounds": max_rounds,
        "max_facts": max_facts,
        "termination": termination,
        "backend": backend,
        "status": outcome.status,
        "detail": outcome.detail,
        "program": _render_or_repr(program),
        "minimized_program": (
            _render_or_repr(minimized) if minimized is not None else None
        ),
        "replay": (
            "PYTHONPATH=src python -m repro.testing.conformance "
            f"--replay {path}"
        ),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path


def run_conformance(
    base_seed: int,
    examples: int,
    config: Optional[GeneratorConfig] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_facts: int = DEFAULT_MAX_FACTS,
    termination: str = "restricted",
    artifact_dir: Optional[str] = None,
    minimize: bool = True,
    progress: Optional[Callable[[int, ConformanceOutcome], None]] = None,
    backend: str = "dict",
) -> ConformanceReport:
    """Run ``examples`` seeds starting at ``base_seed``; one outcome
    each.  Disagreements are minimized and written as artifacts when
    ``artifact_dir`` is given."""
    config = config or GeneratorConfig()
    report = ConformanceReport()
    for offset in range(examples):
        seed = base_seed + offset
        program = generate_program(random.Random(seed), config)
        outcome = run_one(
            program,
            max_rounds=max_rounds,
            max_facts=max_facts,
            termination=termination,
            backend=backend,
        )
        outcome.seed = seed
        report.outcomes.append(outcome)
        if progress is not None:
            progress(seed, outcome)
        if outcome.is_disagreement and artifact_dir is not None:
            minimized = None
            if minimize:
                minimized = minimize_case(
                    program,
                    lambda candidate: run_one(
                        candidate,
                        max_rounds=max_rounds,
                        max_facts=max_facts,
                        termination=termination,
                        backend=backend,
                    ).is_disagreement,
                )
            report.artifacts.append(
                write_artifact(
                    artifact_dir,
                    seed,
                    base_seed,
                    config,
                    outcome,
                    program,
                    minimized,
                    max_rounds,
                    max_facts,
                    termination,
                    backend,
                )
            )
    return report


def replay_artifact(path: str) -> ConformanceOutcome:
    """Re-run a failure artifact.  Prefers the embedded minimized
    program; falls back to regenerating from the recorded seed."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    config = GeneratorConfig.from_dict(payload["config"])
    source = payload.get("minimized_program") or payload.get("program")
    if source:
        program = Program.parse(source)
    else:
        program = generate_program(
            random.Random(payload["seed"]), config
        )
    outcome = run_one(
        program,
        max_rounds=payload.get("max_rounds", DEFAULT_MAX_ROUNDS),
        max_facts=payload.get("max_facts", DEFAULT_MAX_FACTS),
        termination=payload.get("termination", "restricted"),
        backend=payload.get("backend", "dict"),
    )
    outcome.seed = payload.get("seed")
    return outcome


# ---------------------------------------------------------------------------
# CLI.


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.conformance",
        description="Differential conformance: chase engine vs naive "
        "oracle on random warded programs.",
    )
    parser.add_argument("--seed", type=int, default=20260805,
                        help="base seed (pair i uses seed+i)")
    parser.add_argument("--examples", type=int, default=300)
    parser.add_argument("--max-rounds", type=int,
                        default=DEFAULT_MAX_ROUNDS)
    parser.add_argument("--max-facts", type=int, default=DEFAULT_MAX_FACTS)
    parser.add_argument("--termination", default="restricted",
                        choices=("restricted", "isomorphic"))
    parser.add_argument("--backend", default="both",
                        choices=BACKENDS,
                        help="fact-store backend(s) under test: dict, "
                        "columnar (promotion forced at threshold 1), "
                        "or both (columnar/dict agreement gated "
                        "before any engine/oracle comparison)")
    parser.add_argument("--artifact-dir", default="conformance-artifacts")
    parser.add_argument("--no-minimize", action="store_true")
    parser.add_argument("--replay", metavar="ARTIFACT",
                        help="re-run a failure artifact instead of "
                        "generating new pairs")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.replay:
        outcome = replay_artifact(args.replay)
        print(f"replay {args.replay}: {outcome.status}")
        if outcome.detail:
            print(outcome.detail)
        return 1 if outcome.is_disagreement else 0

    def progress(seed: int, outcome: ConformanceOutcome) -> None:
        if not args.quiet and outcome.is_disagreement:
            print(f"seed {seed}: DISAGREE — {outcome.detail}")

    report = run_conformance(
        args.seed,
        args.examples,
        max_rounds=args.max_rounds,
        max_facts=args.max_facts,
        termination=args.termination,
        artifact_dir=args.artifact_dir,
        minimize=not args.no_minimize,
        progress=progress,
        backend=args.backend,
    )
    print(report.summary())
    if report.disagreements:
        print(
            f"{len(report.disagreements)} disagreement(s); replay with: "
            "PYTHONPATH=src python -m repro.testing.conformance "
            "--replay <artifact>"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
