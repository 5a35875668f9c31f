"""Labelled-null match semantics and group formation.

Section 4.3: once local suppression injects labelled nulls into
quasi-identifier cells, a semantics must define when two QI tuples fall
into the same aggregation group.

* **Maybe-match** (the paper's choice, after Ciglic et al.):
  ``q =⊥ q'`` holds when the values are equal constants **or at least
  one side is a labelled null**.  A null-carrying tuple therefore joins
  *multiple* groups — groups stop partitioning the dataset — which is
  what makes a single suppression raise the frequency of every tuple it
  may match (Figure 5).
* **Standard** (Skolem-chase) semantics: a labelled null equals only
  itself.  Each suppression creates a brand-new value, so suppressed
  tuples never merge and nulls proliferate (the red curves of Fig. 7c).

Both semantics expose the same interface: per-row *match frequency*
(how many rows =⊥-match this row on the chosen QIs, including itself)
and *matched weight sums* (the Σ W over matching rows used by
re-identification risk).  Both are computed on a
:class:`~repro.model.groups.GroupIndex`: one AND of per-value row
bitsets per distinct QI tuple, a popcount for the frequency and a
masked sum for the weights.  ``matches_combination`` keeps the
per-pair definition the index is tested against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .groups import GroupIndex
from .microdata import MicrodataDB, is_suppressed


class NullSemantics:
    """Interface for =⊥ group formation over quasi-identifiers."""

    name = "abstract"
    #: Whether a labelled null =⊥-matches every value (maybe-match) or
    #: only itself (standard); the group index reads it.
    null_matches_anything = False

    def match_counts(
        self,
        db: MicrodataDB,
        attributes: Optional[Sequence[str]] = None,
    ) -> List[int]:
        """For each row, the number of rows (including itself) whose QI
        tuple =⊥-matches it."""
        return self.match_aggregate(db, attributes, values=None)[0]

    def match_weight_sums(
        self,
        db: MicrodataDB,
        attributes: Optional[Sequence[str]] = None,
    ) -> List[float]:
        """For each row, Σ weight over =⊥-matching rows."""
        return self.match_aggregate(db, attributes, values=db.weights())[1]

    def match_aggregate(
        self,
        db: MicrodataDB,
        attributes: Optional[Sequence[str]],
        values: Optional[List[float]],
    ) -> Tuple[List[int], List[float]]:
        """Compute counts and (optionally) value sums in one pass."""
        raise NotImplementedError

    def matches_combination(
        self, row: Dict[str, Any], combination: Sequence[Tuple[str, Any]]
    ) -> bool:
        """Does the row =⊥-match a partial combination of (attribute,
        value) pairs?  The per-pair definition of the semantics, which
        the group index is tested against."""
        raise NotImplementedError


class StandardSemantics(NullSemantics):
    """Skolem semantics: ⊥i = ⊥j iff i = j.  A labelled null is indexed
    as just another (hashable, distinct) value."""

    name = "standard"

    def match_aggregate(self, db, attributes, values):
        return _indexed_aggregate(self, db, attributes, values)

    def matches_combination(self, row, combination):
        return all(row[attribute] == value for attribute, value in combination)


class MaybeMatchSemantics(NullSemantics):
    """The paper's =⊥: a labelled null matches anything."""

    name = "maybe-match"
    null_matches_anything = True

    def match_aggregate(self, db, attributes, values):
        return _indexed_aggregate(self, db, attributes, values)

    def matches_combination(self, row, combination):
        for attribute, value in combination:
            cell = row[attribute]
            if is_suppressed(cell) or is_suppressed(value):
                continue
            if cell != value:
                return False
        return True


# Each semantics class defines ``match_aggregate`` itself rather than
# inheriting it, because the benchmark's outside-in tracer
# (``sdcbench/layers.py``) looks the method up in the class's own
# namespace to wrap it.
def _indexed_aggregate(semantics, db, attributes, values):
    attributes = (
        list(attributes) if attributes is not None else db.quasi_identifiers
    )
    return GroupIndex(db, attributes, semantics).aggregate(values)


#: Default semantics used by the framework (the paper's choice).
MAYBE_MATCH = MaybeMatchSemantics()
STANDARD = StandardSemantics()


def semantics_by_name(name: str) -> NullSemantics:
    """Look up a semantics by its name (``maybe-match``/``standard``)."""
    table = {
        MAYBE_MATCH.name: MAYBE_MATCH,
        STANDARD.name: STANDARD,
    }
    try:
        return table[name]
    except KeyError:
        raise ValueError(
            f"unknown null semantics {name!r}; expected one of "
            f"{sorted(table)}"
        ) from None
