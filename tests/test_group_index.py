"""Differential tests: the =⊥ group index against the per-pair
definition.

Every consumer of :class:`repro.model.groups.GroupIndex` — group
counts and weight sums, SUDA's minimal sample uniques, the QI
heuristic's leave-one-out counts, the cycle's group tracker,
l-diversity, t-closeness and composition linkage — is compared with a
naive quadratic scan built on ``matches_combination``, on random
microdata with 1–4 quasi-identifiers, random suppressions, both null
semantics and random suppress/recode sequences.
"""

import itertools
from collections import Counter, defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.anonymize import GroupTracker, LocalSuppression
from repro.anonymize.heuristics import MostRiskyFirstSelection
from repro.anonymize.utility import total_variation
from repro.attack.composition import composition_links
from repro.model import MAYBE_MATCH, STANDARD, MicrodataDB, survey_schema
from repro.model.groups import GroupIndex, bitset, index_column, masked_sum
from repro.model.microdata import is_suppressed
from repro.risk import find_minimal_sample_uniques
from repro.risk.l_diversity import sensitive_diversity
from repro.risk.t_closeness import group_closeness
from repro.vadalog.terms import LabelledNull, NullFactory

QIS = ("A", "B", "C", "D")
SEMANTICS = st.sampled_from([MAYBE_MATCH, STANDARD])


@st.composite
def microdata(draw, max_rows=12):
    """A dataset over 1–4 QIs (small domains, so groups form), a
    sensitive attribute S and a weight W, with random suppressions."""
    quasi = QIS[: draw(st.integers(1, 4))]
    n_rows = draw(st.integers(1, max_rows))
    rows = [
        {
            **{a: draw(st.integers(0, 2)) for a in quasi},
            "S": draw(st.sampled_from("xyz")),
            "W": draw(st.floats(0.5, 50.0)),
        }
        for _ in range(n_rows)
    ]
    schema = survey_schema(
        quasi_identifiers=quasi, non_identifying=["S"], weight="W"
    )
    db = MicrodataDB("g", schema, rows)
    factory = NullFactory()
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.integers(0, n_rows - 1))
        db.with_value(row, draw(st.sampled_from(quasi)), factory.fresh())
    return db


@st.composite
def with_attributes(draw):
    """A dataset plus a subset of its QIs (possibly empty)."""
    db = draw(microdata())
    attributes = draw(
        st.lists(st.sampled_from(db.quasi_identifiers), unique=True)
    )
    return db, attributes


def naive_group(db, row, attributes, semantics):
    """Rows =⊥-matching ``row`` on ``attributes``, by the definition."""
    combination = [(a, db.rows[row][a]) for a in attributes]
    return [
        other
        for other in range(len(db))
        if semantics.matches_combination(db.rows[other], combination)
    ]


def naive_msus(db, attributes, max_size, semantics):
    """MSUs by definition: a subset on which the row matches only
    itself, with no proper non-empty subset doing the same."""
    msus = {}
    for row in range(len(db)):
        unique = []
        for size in range(1, max_size + 1):
            for subset in itertools.combinations(attributes, size):
                if naive_group(db, row, subset, semantics) == [row]:
                    unique.append(frozenset(subset))
        minimal = [s for s in unique if not any(t < s for t in unique)]
        if minimal:
            msus[row] = minimal
    return msus


class TestPrimitives:
    @given(st.lists(st.integers(0, 200), unique=True))
    def test_bitset_holds_exactly_the_rows(self, rows):
        rows = sorted(rows)
        mask = bitset(rows)
        assert mask.bit_count() == len(rows)
        assert all(mask >> row & 1 for row in rows)

    @given(st.data(), st.booleans(), st.sampled_from([3, 200]))
    def test_index_column_matches_naive(self, data, wildcard, domain):
        """Narrow columns (few distinct constants) and wide ones are
        indexed differently; both must give the per-row bitsets."""
        constants = data.draw(st.lists(
            st.integers(0, domain), min_size=domain // 2, max_size=150
        ))
        nulls = data.draw(st.lists(
            st.builds(LabelledNull, st.integers(1, 4)), max_size=10
        ))
        column = data.draw(st.permutations(constants + nulls))
        expected = defaultdict(int)
        expected_nulls = 0
        for row, value in enumerate(column):
            if wildcard and is_suppressed(value):
                expected_nulls |= 1 << row
            else:
                expected[value] |= 1 << row
        assert index_column(column, wildcard) == (
            dict(expected), expected_nulls
        )

    @given(
        st.lists(st.floats(0.5, 50.0), min_size=1, max_size=300),
        st.data(),
    )
    def test_masked_sum_adds_in_row_order(self, values, data):
        rows = sorted(data.draw(st.sets(
            st.integers(0, len(values) - 1), max_size=len(values)
        )))
        expected = 0.0
        for row in rows:
            expected += values[row]
        assert masked_sum(bitset(rows), values) == expected


class TestGroupCounts:
    @given(with_attributes(), SEMANTICS)
    def test_counts_and_weight_sums(self, case, semantics):
        db, attributes = case
        weights = db.weights()
        counts, sums = semantics.match_aggregate(db, attributes, weights)
        for row in range(len(db)):
            group = naive_group(db, row, attributes, semantics)
            assert counts[row] == len(group)
            assert sums[row] == pytest.approx(
                sum(weights[other] for other in group), rel=1e-9
            )

    @given(microdata(), microdata(), SEMANTICS)
    def test_composition_links(self, first, second, semantics):
        shared = [a for a in first.quasi_identifiers
                  if a in second.quasi_identifiers]
        links = composition_links(first, second, shared, semantics)
        for row in range(len(first)):
            combination = [(a, first.rows[row][a]) for a in shared]
            assert links[row] == sum(
                1 for other in second.rows
                if semantics.matches_combination(other, combination)
            )


class TestSuda:
    @given(microdata(max_rows=8), SEMANTICS, st.integers(1, 4))
    def test_msus_match_brute_force(self, db, semantics, max_size):
        attributes = db.quasi_identifiers
        found = find_minimal_sample_uniques(
            db, attributes, max_size=max_size, semantics=semantics
        )
        expected = naive_msus(
            db, attributes, min(max_size, len(attributes)), semantics
        )
        assert sorted(found) == sorted(expected)
        for row, msus in found.items():
            assert len(msus) == len(set(msus))
            assert set(msus) == set(expected[row])
            sizes = [len(msu) for msu in msus]
            assert sizes == sorted(sizes)


class TestLeaveOneOut:
    @given(microdata(), SEMANTICS)
    def test_prepare_counts_drop_one_attribute(self, db, semantics):
        attributes = db.quasi_identifiers
        selection = MostRiskyFirstSelection()
        selection.prepare(db, attributes, semantics)
        for attribute in attributes:
            remaining = [a for a in attributes if a != attribute]
            expected = [
                len(naive_group(db, row, remaining, semantics))
                for row in range(len(db))
            ]
            assert selection._counts_without[attribute] == expected
            assert expected == semantics.match_counts(db, remaining)


class TestTracker:
    @given(
        microdata(),
        SEMANTICS,
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 3), st.booleans()),
            max_size=8,
        ),
    )
    def test_stats_follow_suppress_and_recode(self, db, semantics, edits):
        """After every change the tracker's stats equal a fresh
        recomputation; a recode maps a value onto a coarser band that
        may collide with values already present."""
        attributes = db.quasi_identifiers
        weights = db.weights()
        tracker = GroupTracker(db, attributes, semantics)
        factory = NullFactory(start=100)
        suppression = LocalSuppression()
        for row_seed, attribute_seed, suppress in edits:
            row = row_seed % len(db)
            attribute = attributes[attribute_seed % len(attributes)]
            value = db.rows[row][attribute]
            if is_suppressed(value):
                continue
            old_values = tracker.before_change(row)
            if suppress:
                suppression.apply(db, row, attribute, factory)
            else:
                db.with_value(row, attribute, value // 2)
            tracker.after_change(row, old_values)
            for index in range(len(db)):
                group = naive_group(db, index, attributes, semantics)
                count, weight_sum = tracker.stats(index)
                assert count == len(group)
                assert weight_sum == pytest.approx(
                    sum(weights[other] for other in group), rel=1e-9
                )

    @pytest.mark.parametrize("semantics", [MAYBE_MATCH, STANDARD])
    def test_moves_match_a_rebuilt_index(self, cities_db, semantics):
        """Suppressing a cell and restoring it leave the index as a
        fresh build over the same data would be."""
        db = cities_db.copy()
        attributes = db.quasi_identifiers
        original = db.rows[0][attributes[0]]
        tracker = GroupTracker(db, attributes, semantics)
        for value in (NullFactory().fresh(), original):
            old_values = tracker.before_change(0)
            db.with_value(0, attributes[0], value)
            tracker.after_change(0, old_values)
            fresh = GroupIndex(db, attributes, semantics)
            assert tracker.index.bits == fresh.bits
            assert tracker.index.nulls == fresh.nulls


    def test_repeated_attribute_is_indexed_once(self, cities_db):
        db = cities_db.copy()
        attributes = db.quasi_identifiers
        tracker = GroupTracker(db, attributes + attributes[:1], MAYBE_MATCH)
        old_values = tracker.before_change(0)
        LocalSuppression().apply(db, 0, attributes[0], NullFactory())
        tracker.after_change(0, old_values)
        expected = MAYBE_MATCH.match_counts(db, attributes)
        assert [tracker.stats(row)[0] for row in range(len(db))] == expected


class TestSensitiveMeasures:
    @given(with_attributes(), SEMANTICS)
    def test_l_diversity(self, case, semantics):
        db, attributes = case
        diversities = sensitive_diversity(db, "S", attributes, semantics)
        for row in range(len(db)):
            group = naive_group(db, row, attributes, semantics)
            assert diversities[row] == len(
                {db.rows[other]["S"] for other in group}
            )

    @given(with_attributes(), SEMANTICS)
    def test_t_closeness(self, case, semantics):
        db, attributes = case

        def distribution(values):
            counter = Counter(values)
            total = sum(counter.values())
            return {v: c / total for v, c in counter.items()}

        overall = distribution(row["S"] for row in db.rows)
        distances = group_closeness(db, "S", attributes, semantics)
        for row in range(len(db)):
            group = naive_group(db, row, attributes, semantics)
            expected = total_variation(
                distribution(db.rows[other]["S"] for other in group),
                overall,
            )
            assert distances[row] == pytest.approx(expected, rel=1e-9)
