"""SUDA — special uniques detection (Algorithm 6).

A *sample unique* is a set of (quasi-identifier, value) pairs matched
by exactly one tuple; a **minimal sample unique** (MSU) is a sample
unique with no sample-unique proper subset.  SUDA scores a tuple by the
size and number of its MSUs: very small MSUs mean very few attribute
values suffice to single the tuple out.

Per Rule 8 of Algorithm 6, the off-the-shelf risk is thresholded:
a tuple is dangerous (risk 1) when it has an MSU of size < k.

The search enumerates attribute subsets in ascending size.  A row is
unique on a subset when the AND of its cell masks in the
:class:`~repro.model.groups.GroupIndex` holds its own bit only.
Supersets of already-found MSUs are pruned before any mask work — the
same preemptive pruning the paper attributes to the Vadalog "greedy
activation of Rule 7", which is why Fig. 7f shows no combinatorial
blow-up.  A SUDA2-style DIS score is also exposed as an extension.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..errors import ReproError
from ..model.groups import GroupIndex
from ..model.microdata import MicrodataDB
from ..model.nulls import MAYBE_MATCH, NullSemantics
from .base import RiskMeasure, RiskReport, register_measure


def find_minimal_sample_uniques(
    db: MicrodataDB,
    attributes: Sequence[str],
    max_size: Optional[int] = None,
    semantics: NullSemantics = MAYBE_MATCH,
) -> Dict[int, List[FrozenSet[str]]]:
    """Per-row list of MSUs (as attribute-name frozensets).

    ``max_size`` bounds the subset size inspected (SUDA's usual cap);
    None inspects all sizes up to the number of attributes.
    """
    index = GroupIndex(db, attributes, semantics)
    attributes = index.attributes
    if max_size is None:
        max_size = len(attributes)
    # A row's group only grows as attributes are dropped, so a row can
    # be sample unique on some subset only if it is unique on all of
    # them (rows sharing their whole QI tuple never are).
    candidates = []
    for qi_tuple, rows in index.distinct().items():
        group = index.group(qi_tuple)
        if not group & (group - 1):
            candidates.append((rows[0], index.cell_masks(qi_tuple), []))
    # MSUs are tracked as bitmasks over attribute positions while the
    # search runs; ``found_order`` keeps rows in order of first MSU.
    found_order = []
    for size in range(1, max_size + 1):
        for positions in itertools.combinations(range(len(attributes)), size):
            subset = sum(1 << position for position in positions)
            first, rest = positions[0], positions[1:]
            for row, cells, found in candidates:
                if found and any(known & subset == known for known in found):
                    continue  # superset of a known MSU: not minimal
                group = cells[first]
                for position in rest:
                    group &= cells[position]
                if not group & (group - 1):  # the row matches only itself
                    if not found:
                        found_order.append((row, found))
                    found.append(subset)
    return {
        row: [
            frozenset(a for p, a in enumerate(attributes) if known >> p & 1)
            for known in found
        ]
        for row, found in found_order
    }


def suda_dis_scores(
    msus: Dict[int, List[FrozenSet[str]]],
    total_rows: int,
    attribute_count: int,
    dis_fraction: float = 0.1,
) -> List[float]:
    """SUDA2-style DIS scores (extension beyond Algorithm 6).

    Each MSU of size m over q attributes contributes (q − m)! — smaller
    MSUs weigh (factorially) more; scores are normalized over the file
    and scaled by the expected misclassification fraction.
    """
    raw = [0.0] * total_rows
    for index, sets in msus.items():
        raw[index] = float(
            sum(math.factorial(attribute_count - len(s)) for s in sets)
        )
    total = sum(raw)
    if total <= 0:
        return raw
    return [dis_fraction * value / total * total_rows for value in raw]


@register_measure
class SudaRisk(RiskMeasure):
    """Thresholded MSU-size risk: 1 when some MSU has size < k."""

    name = "suda"

    def __init__(self, k: int = 3, max_msu_size: Optional[int] = None):
        if k < 1:
            raise ReproError(f"SUDA threshold k must be positive, got {k}")
        self.k = int(k)
        self.max_msu_size = max_msu_size

    def assess(
        self,
        db: MicrodataDB,
        semantics: NullSemantics = MAYBE_MATCH,
        attributes: Optional[Sequence[str]] = None,
    ) -> RiskReport:
        attributes = self._resolve_attributes(db, attributes)
        max_size = self.max_msu_size
        if max_size is None:
            # Minimal uniques larger than k are never dangerous, so the
            # ascending search may stop at size k (the same preemption
            # that keeps Fig. 7f flat).
            max_size = min(len(attributes), self.k)
        msus = find_minimal_sample_uniques(
            db, attributes, max_size=max_size, semantics=semantics
        )
        scores = []
        details = []
        for index in range(len(db)):
            row_msus = msus.get(index, [])
            dangerous = any(len(s) < self.k for s in row_msus)
            scores.append(1.0 if dangerous else 0.0)
            if row_msus:
                sizes = sorted(len(s) for s in row_msus)
                details.append(
                    f"{len(row_msus)} MSU(s), sizes {sizes}, k={self.k}"
                )
            else:
                details.append(f"no MSU up to size {max_size}")
        return RiskReport(
            self.name,
            scores,
            attributes,
            details=details,
            parameters={
                "k": self.k,
                "max_msu_size": max_size,
                "semantics": semantics.name,
            },
        )

    def minimal_sample_uniques(
        self,
        db: MicrodataDB,
        semantics: NullSemantics = MAYBE_MATCH,
        attributes: Optional[Sequence[str]] = None,
        max_size: Optional[int] = None,
    ) -> Dict[int, List[FrozenSet[str]]]:
        """Expose the raw MSUs (used by tests and the DIS extension)."""
        attributes = self._resolve_attributes(db, attributes)
        return find_minimal_sample_uniques(
            db,
            attributes,
            max_size=max_size or len(attributes),
            semantics=semantics,
        )
