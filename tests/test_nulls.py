"""Null-semantics tests: maybe-match vs standard grouping, the
Figure 5 frequencies, and hypothesis properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model import (
    MAYBE_MATCH,
    STANDARD,
    MicrodataDB,
    semantics_by_name,
    survey_schema,
)
from repro.vadalog.terms import LabelledNull, NullFactory


def make_db(rows, attrs=("A", "B")):
    schema = survey_schema(quasi_identifiers=list(attrs))
    return MicrodataDB("t", schema, rows)


class TestStandardSemantics:
    def test_exact_grouping(self):
        db = make_db(
            [
                {"A": 1, "B": 1},
                {"A": 1, "B": 1},
                {"A": 2, "B": 1},
            ]
        )
        assert STANDARD.match_counts(db) == [2, 2, 1]

    def test_each_null_is_its_own_value(self):
        n1, n2 = LabelledNull(1), LabelledNull(2)
        db = make_db(
            [
                {"A": n1, "B": 1},
                {"A": n2, "B": 1},
                {"A": n1, "B": 1},
            ]
        )
        assert STANDARD.match_counts(db) == [2, 1, 2]

    def test_weight_sums(self):
        schema = survey_schema(quasi_identifiers=["A"], weight="W")
        db = MicrodataDB(
            "t",
            schema,
            [{"A": 1, "W": 10}, {"A": 1, "W": 5}, {"A": 2, "W": 3}],
        )
        assert STANDARD.match_weight_sums(db) == [15, 15, 3]


class TestMaybeMatchSemantics:
    def test_figure5_frequencies_before_anonymization(self, cities_db):
        counts = MAYBE_MATCH.match_counts(cities_db)
        assert counts == [1, 2, 2, 2, 2, 1, 1]

    def test_figure5_frequencies_after_suppression(self, cities_db):
        db = cities_db.copy()
        db.with_value(0, "Sector", LabelledNull(1))
        # Tuple 1's suppressed Sector lets it match tuples 2-5 -> 5;
        # tuples 2-5 now also match tuple 1 -> 3 (Figure 5b).
        counts = MAYBE_MATCH.match_counts(db)
        assert counts[:5] == [5, 3, 3, 3, 3]

    def test_null_matches_other_nulls(self):
        db = make_db(
            [
                {"A": LabelledNull(1), "B": 1},
                {"A": LabelledNull(2), "B": 1},
            ]
        )
        assert MAYBE_MATCH.match_counts(db) == [2, 2]

    def test_null_does_not_bridge_distinct_constants_elsewhere(self):
        db = make_db(
            [
                {"A": LabelledNull(1), "B": 1},
                {"A": "x", "B": 2},
            ]
        )
        assert MAYBE_MATCH.match_counts(db) == [1, 1]

    def test_zero_attributes_all_match(self):
        db = make_db([{"A": 1, "B": 1}, {"A": 2, "B": 2}])
        assert MAYBE_MATCH.match_counts(db, attributes=[]) == [2, 2]

    def test_matches_combination_with_wildcards(self):
        row = {"A": LabelledNull(3), "B": "y"}
        assert MAYBE_MATCH.matches_combination(
            row, [("A", "x"), ("B", "y")]
        )
        assert not MAYBE_MATCH.matches_combination(
            row, [("A", "x"), ("B", "z")]
        )

    def test_weight_sums_with_nulls(self):
        schema = survey_schema(quasi_identifiers=["A"], weight="W")
        db = MicrodataDB(
            "t",
            schema,
            [
                {"A": LabelledNull(1), "W": 10},
                {"A": "x", "W": 5},
                {"A": "y", "W": 3},
            ],
        )
        sums = MAYBE_MATCH.match_weight_sums(db)
        assert sums[0] == 18  # the null row matches everyone
        assert sums[1] == 15  # x matches itself and the null row


class TestSemanticsLookup:
    def test_by_name(self):
        assert semantics_by_name("maybe-match") is MAYBE_MATCH
        assert semantics_by_name("standard") is STANDARD

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            semantics_by_name("fuzzy")


# -- property-based tests ----------------------------------------------------

value_strategy = st.integers(min_value=0, max_value=3)


@st.composite
def small_dataset(draw, max_rows=12):
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [
        {"A": draw(value_strategy), "B": draw(value_strategy)}
        for _ in range(n_rows)
    ]
    return make_db(rows)


@st.composite
def dataset_with_nulls(draw, max_rows=10):
    db = draw(small_dataset(max_rows))
    factory = NullFactory()
    n_suppressions = draw(st.integers(min_value=0, max_value=5))
    for _ in range(n_suppressions):
        row = draw(st.integers(min_value=0, max_value=len(db) - 1))
        attr = draw(st.sampled_from(["A", "B"]))
        db.with_value(row, attr, factory.fresh())
    return db


class TestSemanticsProperties:
    @given(dataset_with_nulls())
    def test_maybe_match_dominates_standard(self, db):
        """Maybe-match can only enlarge groups: per-row frequency under
        =⊥ is >= the standard-semantics frequency."""
        maybe = MAYBE_MATCH.match_counts(db)
        standard = STANDARD.match_counts(db)
        for m, s in zip(maybe, standard):
            assert m >= s

    @given(dataset_with_nulls())
    def test_counts_match_naive_quadratic(self, db):
        """The group-index computation equals the O(n^2) definition."""
        expected = []
        for i in range(len(db)):
            combination = [(a, db.rows[i][a]) for a in ["A", "B"]]
            expected.append(
                sum(
                    1
                    for j in range(len(db))
                    if MAYBE_MATCH.matches_combination(
                        db.rows[j], combination
                    )
                )
            )
        assert MAYBE_MATCH.match_counts(db) == expected

    @given(small_dataset())
    def test_semantics_agree_without_nulls(self, db):
        assert MAYBE_MATCH.match_counts(db) == STANDARD.match_counts(db)

    @given(dataset_with_nulls())
    def test_every_row_matches_itself(self, db):
        for count in MAYBE_MATCH.match_counts(db):
            assert count >= 1

    @given(dataset_with_nulls(), st.integers(0, 9), st.sampled_from(["A", "B"]))
    def test_suppression_never_decreases_own_frequency(
        self, db, row_seed, attr
    ):
        """Replacing a value with a fresh null is monotone for the
        suppressed row under maybe-match semantics."""
        row = row_seed % len(db)
        before = MAYBE_MATCH.match_counts(db)[row]
        db.with_value(row, attr, NullFactory(start=1000).fresh())
        after = MAYBE_MATCH.match_counts(db)[row]
        assert after >= before
