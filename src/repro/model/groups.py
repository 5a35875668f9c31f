"""The =⊥ group index: row bitsets per quasi-identifier value.

Under maybe-match semantics (Section 4.3) a tuple carrying a labelled
null joins every group it may match, so groups overlap and cannot be
formed by hashing each row once.  The index keeps, for every
quasi-identifier ``a`` and every value ``v`` it takes, the rows with
``a = v`` as a Python int used as a bitset (bit ``i`` is row ``i``),
plus the rows whose ``a`` cell is a labelled null:

* the *cell mask* of ``(a, v)``, the rows that =⊥-match ``v`` on
  ``a``, is ``bits[a][v] | nulls[a]``, or every row when ``v`` is
  itself a null;
* the =⊥-group of a combination is the AND of its cell masks, its
  frequency the popcount of that AND and its weight the sum of the
  weights at the set bits.

Under standard semantics a null equals only itself, so it is indexed
as just another value and the null bitsets stay empty.

One structure serves the whole SDC layer: group counts and weight
sums (``aggregate``), SUDA's uniqueness test, the leave-one-out counts
of the QI heuristic, l-diversity and t-closeness, and the cycle's
within-pass recheck, which keeps its index current with ``move``.
This is the aggregate-then-score shape of monotonic aggregation:
rows are folded once into per-value sets, and every measure scores
intersections of those sets instead of rescanning rows.  A bitset
costs up to ``n/8`` bytes, so memory grows with the number of
distinct values per attribute times the row count.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .microdata import MicrodataDB, is_suppressed

if TYPE_CHECKING:
    from .nulls import NullSemantics


def bitset(rows: Sequence[int]) -> int:
    """The bitset of an ascending sequence of row indexes."""
    if not rows:
        return 0
    buffer = bytearray((rows[-1] >> 3) + 1)
    for row in rows:
        buffer[row >> 3] |= 1 << (row & 7)
    return int.from_bytes(buffer, "little")


#: Columns with fewer distinct constants than this are indexed with one
#: C-speed pass per value; wider columns group their rows in Python.
_FEW_VALUES = 32
#: ``_DIGITS[c]`` maps byte ``c`` to ``b"1"`` and every other byte to
#: ``b"0"``.
_DIGITS = [b"0" * code + b"1" + b"0" * (255 - code)
           for code in range(_FEW_VALUES + 1)]


def index_column(
    column: Sequence[Hashable], wildcard_nulls: bool
) -> Tuple[Dict[Hashable, int], int]:
    """Bitsets of a column's rows per value, and of its rows holding a
    wildcard null (every labelled null when ``wildcard_nulls``; none
    otherwise, a null then being just another value)."""
    nulls: List[Hashable] = []
    constants: List[Hashable] = []
    for value in dict.fromkeys(column):
        wildcard = wildcard_nulls and is_suppressed(value)
        (nulls if wildcard else constants).append(value)
    if len(constants) < _FEW_VALUES:
        # Encode each row as one byte (all wildcard nulls share a code),
        # row 0 last; a value's bitset is then the code string with its
        # code turned into b"1", everything else into b"0", in base 2.
        code = dict.fromkeys(nulls, len(constants))
        code.update((value, c) for c, value in enumerate(constants))
        digits = bytes(map(code.__getitem__, reversed(column)))

        def rows_of(c: int) -> int:
            return int(digits.translate(_DIGITS[c]), 2)

        null_rows = rows_of(len(constants)) if nulls else 0
        return {v: rows_of(c) for c, v in enumerate(constants)}, null_rows
    members: Dict[Hashable, List[int]] = defaultdict(list)
    for row, value in enumerate(column):
        members[value].append(row)
    wild = sorted(row for value in nulls for row in members.pop(value))
    return {v: bitset(rows) for v, rows in members.items()}, bitset(wild)


#: Up to this many set bits, ``set_bits`` peels bits one at a time;
#: above it, one byte scan of the mask is cheaper.
_SPARSE = 32
_BYTE_BITS = tuple(
    tuple([bit for bit in range(8) if byte >> bit & 1]) for byte in range(256)
)
_NONZERO_RUNS = re.compile(rb"[^\x00]+")


def set_bits(mask: int) -> List[int]:
    """The rows in a bitset, ascending."""
    rows = []
    if mask.bit_count() <= _SPARSE:
        row = 0
        while mask:
            skip = (mask & -mask).bit_length() - 1
            row += skip
            rows.append(row)
            mask >>= skip + 1
            row += 1
        return rows
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    for run in _NONZERO_RUNS.finditer(data):
        base = run.start() * 8
        for byte in run.group():
            for bit in _BYTE_BITS[byte]:
                rows.append(base + bit)
            base += 8
    return rows


def masked_sum(mask: int, values: Sequence[float]) -> float:
    """Σ ``values[i]`` over the set bits ``i`` of ``mask``, added in
    ascending row order."""
    total = 0.0
    for row in set_bits(mask):
        total += values[row]
    return total


class GroupIndex:
    """Per-attribute value bitsets of a dataset over chosen QIs, under
    a null semantics (its ``null_matches_anything`` decides whether a
    labelled null is a wildcard or just another value).  A repeated
    attribute is indexed once; QI tuples passed in and handed out
    follow ``attributes``."""

    def __init__(
        self,
        db: MicrodataDB,
        attributes: Sequence[str],
        semantics: NullSemantics,
    ):
        self.attributes = list(dict.fromkeys(attributes))
        self.wildcard_nulls = semantics.null_matches_anything
        self.size = len(db)
        #: Every row: the cell mask of a wildcard null.
        self.everyone = (1 << self.size) - 1
        self.bits: Dict[str, Dict[Hashable, int]] = {}
        self.nulls: Dict[str, int] = {}
        # Per attribute, every row's cell value.
        self._columns: List[List[Hashable]] = []
        # Per attribute, cell masks computed so far (reset on move).
        self._cells: List[Dict[Hashable, int]] = []
        for attribute in self.attributes:
            column = [row[attribute] for row in db.rows]
            self.bits[attribute], self.nulls[attribute] = index_column(
                column, self.wildcard_nulls
            )
            self._columns.append(column)
            self._cells.append({})

    def _is_wildcard(self, value: Any) -> bool:
        return self.wildcard_nulls and is_suppressed(value)

    # -- group formation ----------------------------------------------------

    def cell_masks(self, values: Sequence[Hashable]) -> List[int]:
        """The cell mask of each value, aligned with the attributes."""
        masks = []
        for position, value in enumerate(values):
            cache = self._cells[position]
            mask = cache.get(value)
            if mask is None:
                if self._is_wildcard(value):
                    mask = self.everyone
                else:
                    attribute = self.attributes[position]
                    mask = (
                        self.bits[attribute].get(value, 0)
                        | self.nulls[attribute]
                    )
                cache[value] = mask
            masks.append(mask)
        return masks

    def group(self, values: Sequence[Hashable]) -> int:
        """The =⊥-group of a QI tuple: the AND of its cell masks."""
        mask = self.everyone
        for cell in self.cell_masks(values):
            mask &= cell
        return mask

    def row_group(self, row: int) -> int:
        """The rows that =⊥-match ``row`` on every indexed attribute."""
        return self.group([column[row] for column in self._columns])

    def distinct(self) -> Dict[Tuple[Hashable, ...], List[int]]:
        """Rows by QI tuple, in first-occurrence order.  Rows sharing a
        tuple share every group mask, so each tuple is scored once."""
        if not self.attributes:
            return {(): list(range(self.size))} if self.size else {}
        rows: Dict[Tuple[Hashable, ...], List[int]] = defaultdict(list)
        for index, values in enumerate(zip(*self._columns)):
            rows[values].append(index)
        return rows

    def aggregate(
        self, values: Optional[Sequence[float]] = None
    ) -> Tuple[List[int], List[float]]:
        """Per row, the =⊥-group frequency and (when ``values`` is
        given) the sum of ``values`` over the group: one AND per
        distinct QI tuple."""
        counts = [0] * self.size
        sums = [0.0] * self.size
        for qi_tuple, rows in self.distinct().items():
            mask = self.group(qi_tuple)
            count = mask.bit_count()
            total = masked_sum(mask, values) if values is not None else 0.0
            for row in rows:
                counts[row] = count
                sums[row] = total
        return counts, sums

    # -- maintenance --------------------------------------------------------

    def move(self, row: int, attribute: str, old: Any, new: Any) -> None:
        """Record that ``row``'s ``attribute`` cell changed from ``old``
        to ``new`` (a suppression or a recoding)."""
        position = self.attributes.index(attribute)
        bit = 1 << row
        bits = self.bits[attribute]
        if self._is_wildcard(old):
            self.nulls[attribute] &= ~bit
        else:
            remaining = bits[old] & ~bit
            if remaining:
                bits[old] = remaining
            else:
                del bits[old]
        if self._is_wildcard(new):
            self.nulls[attribute] |= bit
        else:
            bits[new] = bits.get(new, 0) | bit
        self._columns[position][row] = new
        self._cells[position].clear()
