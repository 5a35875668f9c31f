"""Runtime heuristics (Section 4.4).

Two degrees of freedom in the anonymization cycle are resolved by
pluggable heuristics, mirroring Vadalog routing strategies:

* **Which risky tuple first?**  The paper's greedy answer: *less
  significant first* — sort by sampling weight ascending, so the cycle
  erodes statistically marginal tuples before touching relevant ones.
* **Which quasi-identifier of the tuple first?**  *Most risky first* —
  suppress/recode the attribute whose transformation most reduces the
  tuple's disclosure risk (e.g. in Figure 5a, suppressing Sector of
  tuple 1 lifts its frequency to 5, while suppressing Area would leave
  the sample-unique "Textiles" in place).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from ..model.groups import GroupIndex
from ..model.microdata import MicrodataDB
from ..model.nulls import NullSemantics
from ..risk.base import RiskReport

# ---------------------------------------------------------------------------
# Tuple ordering


TupleOrdering = Callable[[MicrodataDB, List[int], RiskReport], List[int]]


def fifo_order(
    db: MicrodataDB, risky: List[int], report: RiskReport
) -> List[int]:
    """Process risky tuples in dataset order."""
    return list(risky)


def less_significant_first(
    db: MicrodataDB, risky: List[int], report: RiskReport
) -> List[int]:
    """Lowest sampling weight first (the paper's default)."""
    return sorted(risky, key=db.weight_of)


def most_risky_tuple_first(
    db: MicrodataDB, risky: List[int], report: RiskReport
) -> List[int]:
    """Highest risk score first (ties broken by weight ascending)."""
    return sorted(
        risky, key=lambda i: (-report.scores[i], db.weight_of(i))
    )


TUPLE_ORDERINGS: Dict[str, TupleOrdering] = {
    "fifo": fifo_order,
    "less-significant-first": less_significant_first,
    "most-risky-first": most_risky_tuple_first,
}


# ---------------------------------------------------------------------------
# Quasi-identifier selection


class QISelection:
    """Chooses which applicable attribute of a risky tuple to act on."""

    name = "abstract"

    def prepare(
        self,
        db: MicrodataDB,
        attributes: Sequence[str],
        semantics: NullSemantics,
    ) -> None:
        """Called once per cycle iteration before any selection."""

    def select(
        self,
        db: MicrodataDB,
        row: int,
        applicable: Sequence[str],
    ) -> str:
        raise NotImplementedError


class FixedOrderSelection(QISelection):
    """Always pick the first applicable attribute in schema order."""

    name = "fixed-order"

    def select(self, db, row, applicable):
        return applicable[0]


class RandomSelection(QISelection):
    """Uniformly random choice — the ablation baseline."""

    name = "random"

    def __init__(self, seed: int = 0):
        self._random = random.Random(seed)

    def select(self, db, row, applicable):
        return self._random.choice(list(applicable))


class MostRiskyFirstSelection(QISelection):
    """Pick the attribute whose suppression yields the largest
    =⊥-group for the tuple (i.e. reduces its risk the most).

    Per cycle iteration, ``prepare`` snapshots every row's match count
    over each leave-one-out attribute subset: per distinct QI tuple,
    the AND of the prefix and suffix cell masks around the left-out
    attribute in the :class:`~repro.model.groups.GroupIndex`.
    """

    name = "most-risky-first"

    def __init__(self):
        self._counts_without: Dict[str, List[int]] = {}

    def prepare(self, db, attributes, semantics):
        index = GroupIndex(db, attributes, semantics)
        counts = {attribute: [0] * len(db) for attribute in index.attributes}
        for qi_tuple, rows in index.distinct().items():
            cells = index.cell_masks(qi_tuple)
            # suffixes[i] is the AND of cells[i:]; prefix of cells[:i].
            suffixes = [index.everyone] * (len(cells) + 1)
            for position in range(len(cells) - 1, -1, -1):
                suffixes[position] = suffixes[position + 1] & cells[position]
            prefix = index.everyone
            for position, attribute in enumerate(index.attributes):
                count = (prefix & suffixes[position + 1]).bit_count()
                column = counts[attribute]
                for row in rows:
                    column[row] = count
                prefix &= cells[position]
        self._counts_without = counts

    def select(self, db, row, applicable):
        best = None
        best_count = -1
        for attribute in applicable:
            counts = self._counts_without.get(attribute)
            count = counts[row] if counts is not None else 0
            if count > best_count:
                best_count = count
                best = attribute
        assert best is not None
        return best


QI_SELECTIONS: Dict[str, Callable[[], QISelection]] = {
    "fixed-order": FixedOrderSelection,
    "random": RandomSelection,
    "most-risky-first": MostRiskyFirstSelection,
}


def tuple_ordering_by_name(name: str) -> TupleOrdering:
    try:
        return TUPLE_ORDERINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown tuple ordering {name!r}; available: "
            f"{sorted(TUPLE_ORDERINGS)}"
        ) from None


def qi_selection_by_name(name: str, **kwargs) -> QISelection:
    try:
        factory = QI_SELECTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown QI selection {name!r}; available: "
            f"{sorted(QI_SELECTIONS)}"
        ) from None
    return factory(**kwargs)
