"""The language-reference document's code snippets must stay valid:
every prolog-style block in docs/vadalog-syntax.md parses."""

import re
from pathlib import Path

import pytest

from repro.vadalog import Program

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC = REPO_ROOT / "docs" / "vadalog-syntax.md"


def prolog_blocks():
    text = DOC.read_text(encoding="utf-8")
    return re.findall(r"```prolog\n(.*?)```", text, flags=re.DOTALL)


class TestSyntaxDoc:
    def test_document_exists_with_blocks(self):
        blocks = prolog_blocks()
        assert len(blocks) >= 2

    def test_every_prolog_block_parses(self):
        for index, block in enumerate(prolog_blocks()):
            program = Program.parse(block)
            assert len(program) + len(program.facts) > 0, (
                f"block {index} parsed to an empty program"
            )

    def test_statement_table_examples_parse(self):
        """The body-element table's inline examples, as full rules."""
        examples = [
            "h(M, I) :- tuple(M, I, VSet).",
            "h(I) :- q(I, S), not msu(I, S).",
            "h(R) :- q(R, T), R > T.",
            'h(C) :- q(C), C in ["Quasi-identifier"].',
            "h(X, Y) :- q(X, Y), X > 0 && Y < 2.",
            "h(R) :- q(S), R = 1 / S.",
            "h(Q) :- q(VSet, ASet), Q = project(VSet, ASet).",
            "h(S) :- q(W, I), S = msum(W, <I>).",
            "h(F) :- q(I), F = mcount(<I>).",
            "rel(X, Y) :- rel(X, Z), own(Z, Y, W), msum(W, <Z>) > 0.5.",
            "h(A) :- q(A, A1), #similar(A, A1).",
            "h(I, R) :- q(I), #risk(I, R).",
        ]
        for example in examples:
            program = Program.parse(example)
            assert len(program.rules) == 1, example

    def test_termination_examples(self):
        program = Program.parse(
            """
            emp(e1).
            emp(X) -> reportsTo(X, Z).
            emp(Z) :- reportsTo(X, Z).
            """
        )
        result = program.run(termination="isomorphic")
        assert result.nulls_introduced == 2


class TestEvaluationErrorsSection:
    """The "Evaluation errors" examples behave as documented on both
    backends."""

    def blocks(self):
        return [b for b in prolog_blocks() if "/ 0" in b]

    def test_aborting_example_raises(self):
        from repro.errors import EvaluationError

        (aborts,) = [b for b in self.blocks() if "aborts" in b]
        for columnar in (True, False):
            with pytest.raises(EvaluationError):
                Program.parse(aborts).run(use_columnar=columnar)

    def test_masked_example_runs(self):
        (runs,) = [b for b in self.blocks() if "masked" in b]
        for columnar in (True, False):
            result = Program.parse(runs).run(use_columnar=columnar)
            assert result.tuples("out") == [(1.0,)]
