"""t-closeness risk (extension: sensitive-distribution protection).

Completes the classic privacy-model trio (k-anonymity, l-diversity,
t-closeness — all supported by the ARX comparator the paper cites).
l-diversity counts *distinct* sensitive values; t-closeness bounds how
much a group's sensitive-value *distribution* may deviate from the
file-wide one: a group whose distribution is skewed toward one value
leaks probabilistic information even when l distinct values appear.

A tuple is flagged (risk 1) when the total-variation distance between
its =⊥-group's sensitive distribution and the global distribution
exceeds ``t``.  (The original paper uses Earth Mover's Distance with a
ground metric; for the categorical sensitive attributes of survey
microdata TV — EMD under the discrete metric — is the standard
instantiation.)
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence

from ..anonymize.utility import total_variation
from ..errors import ReproError
from ..model.groups import GroupIndex, index_column, set_bits
from ..model.microdata import MicrodataDB
from ..model.nulls import MAYBE_MATCH, NullSemantics
from .base import RiskMeasure, RiskReport, register_measure


def _distribution(counter: Counter) -> Dict[Any, float]:
    total = sum(counter.values())
    if total == 0:
        return {}
    return {value: count / total for value, count in counter.items()}


def group_closeness(
    db: MicrodataDB,
    sensitive: str,
    attributes: Sequence[str],
    semantics: NullSemantics = MAYBE_MATCH,
) -> List[float]:
    """Per row: TV distance between the sensitive distribution of its
    =⊥-group and the global sensitive distribution.

    A group's count of each sensitive value is the popcount of the
    group AND the value's bitset or, when the group has fewer members
    than there are sensitive values, a count over its members.
    """
    values = [row[sensitive] for row in db.rows]
    holders = index_column(values, False)[0]
    global_distribution = _distribution(Counter(values))
    index = GroupIndex(db, attributes, semantics)
    distances = [0.0] * len(db)
    for qi_tuple, rows in index.distinct().items():
        group = index.group(qi_tuple)
        if group.bit_count() < len(holders):
            counter = Counter(values[member] for member in set_bits(group))
        else:
            counter = Counter()
            for value, holder in holders.items():
                shared = (group & holder).bit_count()
                if shared:
                    counter[value] = shared
        distance = total_variation(
            _distribution(counter), global_distribution
        )
        for row in rows:
            distances[row] = distance
    return distances


@register_measure
class TClosenessRisk(RiskMeasure):
    """Risk 1 when the group's sensitive distribution is farther than
    ``t`` (in total variation) from the file-wide distribution."""

    name = "t-closeness"

    def __init__(self, sensitive: str, t: float = 0.3):
        if not 0 < t <= 1:
            raise ReproError(f"t must be in (0, 1], got {t}")
        if not sensitive:
            raise ReproError("a sensitive attribute is required")
        self.sensitive = sensitive
        self.t = float(t)

    def assess(
        self,
        db: MicrodataDB,
        semantics: NullSemantics = MAYBE_MATCH,
        attributes: Optional[Sequence[str]] = None,
    ) -> RiskReport:
        attributes = self._resolve_attributes(db, attributes)
        if self.sensitive not in db.schema.categories:
            raise ReproError(
                f"sensitive attribute {self.sensitive!r} not in schema"
            )
        if self.sensitive in attributes:
            raise ReproError(
                "the sensitive attribute cannot be a quasi-identifier "
                "under evaluation"
            )
        distances = group_closeness(
            db, self.sensitive, attributes, semantics
        )
        scores = [
            1.0 if distance > self.t else 0.0 for distance in distances
        ]
        details = [
            f"group-vs-global TV {distance:.4f} vs t={self.t}"
            for distance in distances
        ]
        return RiskReport(
            self.name,
            scores,
            attributes,
            details=details,
            parameters={
                "t": self.t,
                "sensitive": self.sensitive,
                "semantics": semantics.name,
            },
        )
