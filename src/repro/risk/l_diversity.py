"""l-diversity risk (extension: sensitive-attribute protection).

k-anonymity bounds *re-identification*, but a homogeneous group leaks
its sensitive value even without identifying anyone (the classic
Machanavajjhala et al. critique, implemented by the ARX tool the paper
cites as a comparator).  A tuple is l-diverse-safe when its
=⊥-group over the quasi-identifiers contains at least ``l`` distinct
values of the designated *sensitive* attribute.

In the Vada-SA setting the sensitive attribute is one of the
non-identifying attributes (e.g. ``Growth6mos``: a firm's performance
is confidential even if the firm stays anonymous).  The measure is
registered like any other plug-in and runs in the anonymization cycle;
suppression enlarges groups, which can only add sensitive values, so
the cycle converges under maybe-match semantics like k-anonymity does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ReproError
from ..model.groups import GroupIndex, index_column, set_bits
from ..model.microdata import MicrodataDB
from ..model.nulls import MAYBE_MATCH, NullSemantics
from .base import RiskMeasure, RiskReport, register_measure


def sensitive_diversity(
    db: MicrodataDB,
    sensitive: str,
    attributes: Sequence[str],
    semantics: NullSemantics = MAYBE_MATCH,
) -> List[int]:
    """Per row: distinct sensitive values among its =⊥-matching rows.

    A group is intersected with each sensitive value's bitset, or, when
    it has fewer members than there are sensitive values, its members'
    values are read directly.
    """
    values = [row[sensitive] for row in db.rows]
    holders = list(index_column(values, False)[0].values())
    index = GroupIndex(db, attributes, semantics)
    diversities = [0] * len(db)
    for qi_tuple, rows in index.distinct().items():
        group = index.group(qi_tuple)
        if group.bit_count() < len(holders):
            diversity = len({values[member] for member in set_bits(group)})
        else:
            diversity = sum(1 for holder in holders if group & holder)
        for row in rows:
            diversities[row] = diversity
    return diversities


@register_measure
class LDiversityRisk(RiskMeasure):
    """Risk 1 when the tuple's group has < l distinct sensitive
    values, 0 otherwise."""

    name = "l-diversity"

    def __init__(self, sensitive: str, l: int = 2):  # noqa: E741
        if l < 1:
            raise ReproError(f"l must be positive, got {l}")
        if not sensitive:
            raise ReproError("a sensitive attribute is required")
        self.sensitive = sensitive
        self.l = int(l)

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
        diversities = sensitive_diversity(
            db, self.sensitive, attributes, semantics
        )
        scores = [
            1.0 if diversity < self.l else 0.0
            for diversity in diversities
        ]
        details = [
            f"{diversity} distinct {self.sensitive!r} value(s) in "
            f"group vs l={self.l}"
            for diversity in diversities
        ]
        return RiskReport(
            self.name,
            scores,
            attributes,
            details=details,
            parameters={
                "l": self.l,
                "sensitive": self.sensitive,
                "semantics": semantics.name,
            },
        )
