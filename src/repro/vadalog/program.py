"""Program container: parsed rules + metadata + evaluation facade.

A :class:`Program` bundles rules, EGDs, extensional facts from the
source text and annotations, supports composition (``+``) so that
pluggable Vadalog *modules* — the paper's off-the-shelf risk measures
and anonymization criteria — can be combined with user-written business
knowledge, and offers one-call evaluation through the chase engine.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .atoms import Atom, Fact
from .chase import ChaseEngine, ChaseResult
from .database import FactStore
from .externals import ExternalRegistry
from .negation import stratify
from .parser.parser import parse_program
from .routing import RoutingTable
from .rules import EGD, Rule
from .terms import NullFactory
from .wardedness import WardednessReport, check_wardedness


class Program:
    """A Vadalog program: rules, EGDs, inline facts and annotations."""

    def __init__(
        self,
        rules: Sequence[Rule] = (),
        egds: Sequence[EGD] = (),
        facts: Sequence[Fact] = (),
        annotations: Sequence[Tuple[str, Tuple]] = (),
        name: Optional[str] = None,
    ):
        self.rules = list(rules)
        self.egds = list(egds)
        self.facts = list(facts)
        self.annotations = list(annotations)
        self.name = name

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, source: str, name: Optional[str] = None) -> "Program":
        """Parse Vadalog source text into a program."""
        parsed = parse_program(source)
        return cls(
            rules=parsed.rules,
            egds=parsed.egds,
            facts=parsed.facts,
            annotations=parsed.annotations,
            name=name,
        )

    def outputs(self) -> List[str]:
        """Predicates marked with ``@output("name")`` annotations."""
        return [
            str(args[0])
            for name, args in self.annotations
            if name == "output" and args
        ]

    def inputs(self) -> List[str]:
        """Predicates marked with ``@input("name")`` annotations."""
        return [
            str(args[0])
            for name, args in self.annotations
            if name == "input" and args
        ]

    def __add__(self, other: "Program") -> "Program":
        """Compose two modules into one program."""
        if not isinstance(other, Program):
            return NotImplemented
        name = None
        if self.name and other.name:
            name = f"{self.name}+{other.name}"
        return Program(
            rules=self.rules + other.rules,
            egds=self.egds + other.egds,
            facts=self.facts + other.facts,
            annotations=self.annotations + other.annotations,
            name=name or self.name or other.name,
        )

    # -- static analysis ------------------------------------------------------

    def wardedness(self, strict: bool = False) -> WardednessReport:
        """Run the Warded Datalog± syntactic check (Section 3)."""
        return check_wardedness(self.rules, strict=strict)

    def analyze(self, passes: Optional[Sequence[str]] = None):
        """Run the full static analyzer (see :mod:`.analysis`)."""
        from .analysis import analyze

        return analyze(self, passes=passes)

    def preflight(self) -> None:
        """Reject the program if the analyzer finds error-level
        diagnostics; ``@lint_ignore`` suppressions are honoured.

        Raises :class:`~repro.errors.StaticAnalysisError` carrying the
        full report.  Called by :meth:`run` unless ``preflight=False``.
        """
        from ..errors import StaticAnalysisError

        report = self.analyze()
        if report.has_errors:
            rendered = "; ".join(
                d.render(report.source_name) for d in report.errors
            )
            raise StaticAnalysisError(
                f"program rejected by static analysis: {rendered} "
                "(run with preflight=False to skip the check)",
                report=report,
            )

    def strata(self) -> List[List[Rule]]:
        """The stratification the chase will use (bottom-up)."""
        return stratify(self.rules)

    def predicates(self) -> List[str]:
        names = set()
        for rule in self.rules:
            names.update(rule.head_predicates())
            names.update(rule.body_predicates())
        for fact in self.facts:
            names.add(fact.predicate)
        return sorted(names)

    def rule_by_label(self, label: str) -> Rule:
        for rule in self.rules:
            if rule.label == label:
                return rule
        raise KeyError(f"no rule labelled {label!r}")

    def to_source(self) -> str:
        """Render the program back to parseable Vadalog text."""
        from .render import render_program

        return render_program(self)

    # -- evaluation -------------------------------------------------------------

    def run(
        self,
        facts: Iterable[Fact] = (),
        externals: Optional[ExternalRegistry] = None,
        routing: Optional[RoutingTable] = None,
        provenance: bool = True,
        null_factory: Optional[NullFactory] = None,
        strict_egds: bool = False,
        max_rounds: int = 10_000,
        max_facts: int = 5_000_000,
        termination: str = "restricted",
        listener=None,
        preflight: bool = True,
        analyze: bool = False,
        use_columnar: Optional[bool] = None,
        columnar_threshold: Optional[int] = None,
    ) -> ChaseResult:
        """Evaluate the program over its inline facts plus ``facts``.

        ``termination`` selects the existential blocking strategy:
        ``"restricted"`` (restricted chase; body-bound nulls are rigid)
        or ``"isomorphic"`` (body nulls may map onto other nulls —
        terminates recursive existential chains like employee/manager).

        Unless ``preflight=False``, the static analyzer runs first and
        error-level diagnostics (not-warded rules, unstratifiable
        negation, arity clashes...) abort with a
        :class:`~repro.errors.StaticAnalysisError` instead of a
        chase-time crash or a silently wrong answer.

        ``analyze=True`` runs EXPLAIN ANALYZE: per-step actuals (rows
        in/out, probe hits, wall time) are collected and surface as
        ``result.explain_report`` / ``result.stats["explain"]`` — see
        ``docs/observability.md``.

        ``use_columnar`` toggles the columnar store backend and the
        batched plan executor (default from ``CHASE_COLUMNAR``, on);
        ``columnar_threshold`` overrides the per-predicate cardinality
        at which relations switch to column storage.
        """
        if preflight:
            self.preflight()
        from .database import columnar_default_enabled

        if use_columnar is None:
            use_columnar = columnar_default_enabled()
        store = FactStore(
            self.facts,
            columnar=use_columnar,
            columnar_threshold=columnar_threshold,
        )
        store.add_all(facts)
        engine = ChaseEngine(
            self.rules,
            egds=self.egds,
            externals=externals,
            routing=routing,
            provenance=provenance,
            null_factory=null_factory,
            strict_egds=strict_egds,
            max_rounds=max_rounds,
            max_facts=max_facts,
            termination=termination,
            listener=listener,
            analyze=analyze,
            use_columnar=use_columnar,
            columnar_threshold=columnar_threshold,
        )
        return engine.run(store)

    def __len__(self):
        return len(self.rules) + len(self.egds)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"Program({tag} {len(self.rules)} rules, {len(self.egds)} "
            f"egds, {len(self.facts)} facts)"
        )
