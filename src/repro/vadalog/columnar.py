"""Columnar fact storage and batched plan execution.

This module is the second :class:`~repro.vadalog.database.FactStore`
backend promised by the ROADMAP: high-cardinality relations are stored
as per-position *code columns* over a per-relation term dictionary
(the classic dictionary-encoded columnar layout of analytic engines,
and the storage split the Vadalog System paper motivates for chase
workloads), while small relations keep the dict/set representation.

Two pieces live here:

* :class:`ColumnarRelation` — a drop-in replacement for the dict
  relation inside :class:`FactStore`.  Every term is interned once in
  a :class:`TermDictionary`; each position of the relation is a
  growable int64 column of codes (numpy-backed when numpy is
  importable, ``array('q')`` otherwise).  Probes run over *rowid*
  buckets: a full-key probe is one hash lookup on the code tuple, a
  partial-key probe goes through a lazily built group index
  ``positions -> code key -> [rowid]``.  Facts themselves are kept in
  a rowid-indexed list so probe results stay ordinary
  :class:`~repro.vadalog.atoms.Fact` tuples and every row-at-a-time
  consumer (negation, EGDs, externals, ``conjunction_has_image``)
  works unchanged.
* :func:`execute_batch` — a batched executor for the PR 5 compiled
  join plans.  Instead of a generator stack yielding one substitution
  dict per match, the whole delta frontier flows through the plan as
  parallel columns: scan steps are hash joins that expand the batch,
  assignments/conditions evaluate per row through a zero-copy
  :class:`_RowView`, negation checks filter rows in place.  The
  binding set it produces is identical to
  :meth:`JoinPlan.execute <repro.vadalog.plans.JoinPlan.execute>` up
  to row order.

**Error masking (fidelity contract).**  The naive oracle
(:mod:`repro.vadalog.reference`) joins *all* positive literals first
and only then evaluates assignments and conditions (in rule order,
stopping at the first failure).  A pushed-down expression in a plan
may therefore raise on a row that never completes a body match.  When
a batched eval step raises for a row, the executor asks the same
:func:`~repro.vadalog.plans.completes_match` check as the row path:

* if the row's bindings **cannot** be extended to a complete positive
  join that passes every negation check, the oracle never evaluates
  the expression for it — the error is *masked*: only that row is
  dropped, the rest of the batch proceeds, and the engine emits a
  schema-versioned ``batch_mask`` event;
* if a completing extension **does** exist, the oracle raises the
  same error (every rule-order-earlier assignment and condition
  succeeded for this row), so the original error propagates and
  aborts the chase.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

try:  # pragma: no cover — exercised via HAVE_NUMPY branches
    import numpy as _np

    HAVE_NUMPY = True
except Exception:  # pragma: no cover — numpy is in the base image
    _np = None
    HAVE_NUMPY = False

from ..telemetry import state as _telemetry
from .atoms import Fact
from .expressions import evaluate_to_term
from .plans import (
    AssignStep,
    FilterStep,
    JoinPlan,
    MaskRecord,
    NegationStep,
    ScanStep,
    completes_match,
    record_mask,
)
from .terms import Term, Variable


class TermDictionary:
    """Per-relation term interning: ``Term -> code`` plus the decode
    list.  Codes are dense ints starting at 0, so they double as
    indices into decode arrays."""

    __slots__ = ("encode", "decode")

    def __init__(self):
        self.encode: Dict[Term, int] = {}
        self.decode: List[Term] = []

    def code(self, term: Term) -> int:
        """Intern ``term``, returning its (possibly fresh) code."""
        found = self.encode.get(term)
        if found is None:
            found = len(self.decode)
            self.encode[term] = found
            self.decode.append(term)
        return found

    def probe(self, term: Term) -> Optional[int]:
        """Code for ``term`` or None — never interns (probe keys for
        terms the relation has never seen must miss, not grow the
        dictionary)."""
        return self.encode.get(term)

    def __len__(self):
        return len(self.decode)


def _new_column():
    return array("q")


def _column_nbytes(column) -> int:
    if HAVE_NUMPY and isinstance(column, _np.ndarray):  # pragma: no cover
        return int(column.nbytes)
    return column.itemsize * len(column)


class ColumnarRelation:
    """Dictionary-encoded columnar storage for one predicate.

    Mirrors the semantics of
    :class:`~repro.vadalog.database._PredicateRelation` exactly —
    including the semi-naive ``delta``/``pending`` frontier sets and
    the lazily built frontier index views — while replacing fact-set
    indices with rowid buckets over int64 code columns.  Retraction
    (functional aggregates, EGD null unification) tombstones the rowid
    instead of rewriting columns.
    """

    backend = "columnar"

    __slots__ = (
        "arity", "dictionary", "facts", "rows", "columns", "dead",
        "row_ids", "groups", "delta", "pending", "delta_indices",
        "live_count", "encoded_upto", "active", "row_ids_built",
        "probes", "probe_hits",
    )

    def __init__(self, arity: int):
        if arity < 0:
            raise ValueError("columnar relation needs a known arity")
        self.arity = arity
        self.dictionary = TermDictionary()
        #: live facts (dedup, membership and full-key probes — the
        #: same set the dict backend keeps, so ingestion costs the
        #: same; encoding is deferred, see ``_encode_pending``).
        self.facts: Set[Fact] = set()
        #: rowid -> Fact (probe results decode through this list).
        self.rows: List[Fact] = []
        #: per position, the int64 code column (encoded lazily up to
        #: ``encoded_upto``).
        self.columns = [_new_column() for _ in range(arity)]
        #: tombstoned rowids (retracted facts).
        self.dead: Set[int] = set()
        #: full code tuple -> rowid, live encoded rows only.
        self.row_ids: Dict[Tuple[int, ...], int] = {}
        #: positions -> code key -> [rowid, ...] (live rows only).
        self.groups: Dict[
            Tuple[int, ...], Dict[Tuple[int, ...], List[int]]
        ] = {}
        self.delta: Set[Fact] = set()
        self.pending: Set[Fact] = set()
        # Frontier-scoped views, same shape and lifecycle as the dict
        # relation's: keyed by positions, cleared whenever the
        # frontier changes.
        self.delta_indices: Dict[
            Tuple[int, ...], Dict[Tuple[Term, ...], Set[Fact]]
        ] = {}
        self.live_count = 0
        #: rows[:encoded_upto] have codes in every *active* column;
        #: appends past this watermark are plain list/set inserts
        #: until the next partial-key probe forces an encode pass.
        self.encoded_upto = 0
        #: positions whose code columns exist (column pruning: a
        #: probe activates only the positions it keys on, so the
        #: unprobed columns of a wide relation are never interned).
        self.active: Set[int] = set()
        #: the full-key rowid map is built only when retraction (or a
        #: whole-row account) first needs it, then kept incremental.
        self.row_ids_built = False
        # Always-on probe accounting (ints, no telemetry gate): the
        # memory report surfaces these as real hit/miss counts.
        self.probes = 0
        self.probe_hits = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict_relation(cls, relation) -> "ColumnarRelation":
        """Promote a dict relation, preserving the frontier state."""
        twin = cls(relation.arity)
        for fact in relation.facts:
            twin._append(fact)
        twin.delta = set(relation.delta)
        twin.pending = set(relation.pending)
        return twin

    # -- mutation ----------------------------------------------------------

    def _append(self, fact: Fact) -> bool:
        if fact in self.facts:
            return False
        self.facts.add(fact)
        self.rows.append(fact)
        self.live_count += 1
        return True

    def _encode_column(self, position: int, start: int, total: int) -> None:
        """Intern ``rows[start:total]`` at one position, appending the
        codes to that column (interning inlined: this is the hottest
        loop in the backend)."""
        rows = self.rows
        encode = self.dictionary.encode
        decode = self.dictionary.decode
        codes: List[int] = []
        append = codes.append
        for rowid in range(start, total):
            term = rows[rowid].terms[position]
            code = encode.get(term)
            if code is None:
                code = len(decode)
                encode[term] = code
                decode.append(term)
            append(code)
        self.columns[position].extend(codes)

    def _encode_pending(
        self,
        positions: Tuple[int, ...] = (),
        all_columns: bool = False,
        with_row_ids: bool = False,
    ) -> None:
        """Encode lazily and *per column*: activate the columns the
        caller's key touches (interning their terms from row zero),
        catch newly appended rows up on every already-active column,
        and keep any built group index and the full-key rowid map
        incremental.  Ingestion stays as cheap as the dict backend's,
        and a probe keyed on two positions of a wide relation never
        pays for the other columns; ``all_columns`` (byte accounting)
        and ``with_row_ids`` (retraction, which must tombstone by
        whole row) force the remainder."""
        active = self.active
        wanted = range(self.arity) if (all_columns or with_row_ids) \
            else positions
        fresh = [p for p in wanted if p not in active]
        total = len(self.rows)
        upto = self.encoded_upto
        need_row_ids = with_row_ids and not self.row_ids_built
        if not fresh and not need_row_ids and upto == total:
            return
        cells = 0
        for position in fresh:
            self._encode_column(position, 0, total)
            cells += total
        if upto < total:
            for position in active:
                self._encode_column(position, upto, total)
                cells += total - upto
            columns = self.columns
            # Group indices only ever span already-active positions
            # (ensure_group activates before building), so the new
            # rows' codes are all in place.
            for group_positions, index in self.groups.items():
                group_columns = [columns[p] for p in group_positions]
                for rowid in range(upto, total):
                    group_key = tuple(c[rowid] for c in group_columns)
                    bucket = index.get(group_key)
                    if bucket is None:
                        index[group_key] = [rowid]
                    else:
                        bucket.append(rowid)
            if self.row_ids_built:
                row_ids = self.row_ids
                for rowid in range(upto, total):
                    row_ids[tuple(c[rowid] for c in columns)] = rowid
            self.encoded_upto = total
        active.update(fresh)
        if need_row_ids:
            columns = self.columns
            row_ids = self.row_ids
            dead = self.dead
            for rowid in range(total):
                if rowid not in dead:
                    row_ids[tuple(c[rowid] for c in columns)] = rowid
            self.row_ids_built = True
        if cells and _telemetry.enabled:
            _telemetry.registry.counter(
                "store.columnar.rows_encoded"
            ).inc(cells)

    def add(self, fact: Fact) -> bool:
        if not self._append(fact):
            return False
        self.pending.add(fact)
        return True

    def remove(self, fact: Fact) -> bool:
        if fact not in self.facts:
            return False
        self.facts.discard(fact)
        # Tombstoning needs the rowid, so retraction forces encoding
        # (rare: functional-aggregate replacement and EGD repairs).
        self._encode_pending(with_row_ids=True)
        probe = self.dictionary.probe
        key = tuple(probe(term) for term in fact.terms)
        rowid = self.row_ids.pop(key)
        self.dead.add(rowid)
        self.live_count -= 1
        if fact in self.delta:
            self.delta.discard(fact)
            # Frontier changed mid-round: every view is stale.
            self.delta_indices.clear()
        self.pending.discard(fact)
        for positions, index in self.groups.items():
            group_key = tuple(key[p] for p in positions)
            bucket = index.get(group_key)
            if bucket is not None:
                try:
                    bucket.remove(rowid)
                except ValueError:  # pragma: no cover — kept defensive
                    pass
        return True

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.facts

    # -- lookup ------------------------------------------------------------

    def fact_count(self) -> int:
        return self.live_count

    def iter_facts(self) -> Iterator[Fact]:
        if not self.dead:
            return iter(self.rows)
        dead = self.dead
        return (
            fact for rowid, fact in enumerate(self.rows)
            if rowid not in dead
        )

    def all_facts(self) -> List[Fact]:
        return list(self.iter_facts())

    def contains_fact(self, fact: Fact) -> bool:
        return fact in self.facts

    def snapshot_facts(self) -> Set[Fact]:
        return set(self.facts)

    def clone(self) -> "ColumnarRelation":
        twin = ColumnarRelation(self.arity)
        for fact in self.iter_facts():
            twin._append(fact)
        twin.delta = set(self.delta)
        twin.pending = set(self.pending)
        return twin

    def ensure_group(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[int, ...], List[int]]:
        self._encode_pending(positions)
        index = self.groups.get(positions)
        if index is None:
            index = {}
            dead = self.dead
            columns = [self.columns[p] for p in positions]
            for rowid in range(len(self.rows)):
                if rowid in dead:
                    continue
                group_key = tuple(column[rowid] for column in columns)
                bucket = index.get(group_key)
                if bucket is None:
                    index[group_key] = [rowid]
                else:
                    bucket.append(rowid)
            self.groups[positions] = index
            if _telemetry.enabled:
                _telemetry.registry.counter(
                    "store.columnar.group_index_builds"
                ).inc()
        return index

    def delta_view(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Term, ...], Set[Fact]]:
        """Frontier-scoped composite view, identical to the dict
        relation's (the frontier is a plain fact set either way)."""
        index = self.delta_indices.get(positions)
        if index is None:
            index = {}
            for fact in self.delta:
                terms = fact.terms
                key = tuple(terms[p] for p in positions)
                bucket = index.get(key)
                if bucket is None:
                    bucket = index[key] = set()
                bucket.add(fact)
            self.delta_indices[positions] = index
            if _telemetry.enabled:
                _telemetry.registry.counter(
                    "store.delta_index_builds"
                ).inc()
        return index

    def probe(
        self,
        predicate: str,
        positions: Tuple[int, ...],
        key: Tuple[Term, ...],
        delta_only: bool = False,
    ) -> Tuple[Fact, ...]:
        """Same contract as :meth:`FactStore.probe`; misses on terms
        the relation has never stored short-circuit without touching
        an index."""
        if delta_only:
            if not self.delta:
                return ()
            if not positions:
                return tuple(self.delta)
            bucket = self.delta_view(positions).get(key)
            return tuple(bucket) if bucket else ()
        if not self.live_count:
            return ()
        if not positions:
            return tuple(self.iter_facts())
        self.probes += 1
        telemetry_on = _telemetry.enabled
        if telemetry_on:
            _telemetry.registry.counter("store.columnar.probes").inc()
        if len(positions) == self.arity:
            # Full-key membership needs no encoding — same shortcut
            # as the dict backend.
            candidate = Fact(predicate, key)
            if candidate not in self.facts:
                return ()
            self.probe_hits += 1
            if telemetry_on:
                _telemetry.registry.counter(
                    "store.columnar.probe_hits"
                ).inc()
            return (candidate,)
        self._encode_pending(positions)
        probe = self.dictionary.probe
        codes: List[int] = []
        for term in key:
            code = probe(term)
            if code is None:
                # Never-stored term: guaranteed miss, skip the index.
                return ()
            codes.append(code)
        bucket = self.ensure_group(positions).get(tuple(codes))
        if not bucket:
            return ()
        self.probe_hits += 1
        if telemetry_on:
            _telemetry.registry.counter("store.columnar.probe_hits").inc()
        rows = self.rows
        return tuple(rows[rowid] for rowid in bucket)

    # -- memory accounting -------------------------------------------------

    def column_bytes(self) -> int:
        """Real bytes held by the code columns (the part a dict
        backend spends on per-fact index-set entries).  Forces the
        encode pass so the figure covers every stored row."""
        self._encode_pending(all_columns=True)
        return sum(_column_nbytes(column) for column in self.columns)

    def memory_info(self) -> Dict[str, Any]:
        index_entries = sum(
            len(bucket)
            for index in self.groups.values()
            for bucket in index.values()
        ) + sum(
            len(bucket)
            for index in self.delta_indices.values()
            for bucket in index.values()
        )
        column_bytes = self.column_bytes()
        # Real, not sampled: code columns + the rowid list's pointer
        # slots + the dictionary's decode payloads.
        dictionary_bytes = sys.getsizeof(self.dictionary.decode)
        for term in self.dictionary.decode:
            dictionary_bytes += sys.getsizeof(term)
            value = getattr(term, "value", None)
            if value is not None:
                dictionary_bytes += sys.getsizeof(value)
        estimated = (
            column_bytes
            + sys.getsizeof(self.rows)
            + dictionary_bytes
        )
        return {
            "facts": self.live_count,
            "delta": len(self.delta),
            "estimated_bytes": estimated,
            "index_entries": index_entries,
            "backend": self.backend,
            "column_bytes": column_bytes,
            "dictionary_terms": len(self.dictionary),
            "probes": self.probes,
            "probe_hits": self.probe_hits,
        }


# ---------------------------------------------------------------------------
# Batched plan execution.


class _RowView:
    """A zero-copy Mapping facade over one batch row — the object
    handed to expression evaluation, which only ever calls ``.get``
    (see :class:`~repro.vadalog.expressions.VarRef`)."""

    __slots__ = ("cols", "i")

    def __init__(self, cols: Dict[Variable, list]):
        self.cols = cols
        self.i = 0

    def get(self, key, default=None):
        col = self.cols.get(key)
        if col is None:
            return default
        return col[self.i]

    def __getitem__(self, key):
        col = self.cols.get(key)
        if col is None:
            raise KeyError(key)
        return col[self.i]

    def __contains__(self, key):
        return key in self.cols


class Batch:
    """Parallel columns for the rows surviving a plan prefix.

    ``cols`` maps every bound variable to a list of terms (length
    ``n``); ``premises`` — tracked only when provenance or an audit
    listener needs them — holds one fact column per completed scan
    step, in plan order.
    """

    __slots__ = ("n", "cols", "premises")

    def __init__(self, n: int, cols: Dict[Variable, list],
                 premises: Optional[List[list]]):
        self.n = n
        self.cols = cols
        self.premises = premises

    @classmethod
    def unit(cls, track_premises: bool) -> "Batch":
        return cls(1, {}, [] if track_premises else None)

    def premises_row(self, i: int) -> List[Fact]:
        if not self.premises:
            return []
        return [column[i] for column in self.premises]

    def take(self, keep: List[int]) -> "Batch":
        """A new batch holding only the rows at ``keep``."""
        cols = {
            var: [col[i] for i in keep] for var, col in self.cols.items()
        }
        premises = None
        if self.premises is not None:
            premises = [
                [col[i] for i in keep] for col in self.premises
            ]
        return Batch(len(keep), cols, premises)

    def row(self, i: int) -> Dict[Variable, Term]:
        """Row ``i`` as a substitution over every bound variable."""
        return {var: col[i] for var, col in self.cols.items()}


def _expand_scan(
    step: ScanStep, store, batch: Batch, stats
) -> Batch:
    """Hash-join one positive literal against the whole batch."""
    probe = store.probe
    positions = step.key_positions
    delta_only = step.delta_only
    predicate = step.predicate
    source_rows: List[int] = []
    matched: List[Fact] = []
    if step.key_vars:
        key_cols = [
            (slot, batch.cols[var]) for slot, var in step.key_vars
        ]
        template = list(step.key_consts)
        for i in range(batch.n):
            for slot, col in key_cols:
                template[slot] = col[i]
            facts = probe(predicate, positions, tuple(template),
                          delta_only)
            if stats is not None:
                stats.probe_calls += 1
            if facts:
                if stats is not None:
                    stats.probe_hits += 1
                    stats.rows_scanned += len(facts)
                matched.extend(facts)
                source_rows.extend([i] * len(facts))
    else:
        facts = probe(predicate, positions, step.key_consts, delta_only)
        if stats is not None:
            stats.probe_calls += 1
            if facts:
                stats.probe_hits += 1
                stats.rows_scanned += len(facts)
        if facts:
            if batch.n == 1:
                matched = list(facts)
                source_rows = [0] * len(facts)
            else:
                for i in range(batch.n):
                    matched.extend(facts)
                    source_rows.extend([i] * len(facts))
    if step.repeats and matched:
        # A repeat is always a later occurrence of one of THIS step's
        # output variables (bound occurrences become key positions),
        # so the equality check stays within the matched fact.
        first_occurrence = {
            variable: position for position, variable in step.outputs
        }
        checks = [
            (position, first_occurrence[variable])
            for position, variable in step.repeats
        ]
        kept_rows: List[int] = []
        kept_facts: List[Fact] = []
        for fact, i in zip(matched, source_rows):
            terms = fact.terms
            ok = True
            for position, out_position in checks:
                if terms[position] != terms[out_position]:
                    ok = False
                    break
            if ok:
                kept_rows.append(i)
                kept_facts.append(fact)
        source_rows = kept_rows
        matched = kept_facts
    # Gather: replicate surviving upstream columns, then bind the
    # step's outputs straight out of the matched facts.
    cols = {
        var: [col[i] for i in source_rows]
        for var, col in batch.cols.items()
    }
    for position, variable in step.outputs:
        cols[variable] = [fact.terms[position] for fact in matched]
    premises = None
    if batch.premises is not None:
        premises = [
            [col[i] for i in source_rows] for col in batch.premises
        ]
        premises.append(matched)
    return Batch(len(matched), cols, premises)


def _apply_assign(
    step: AssignStep, store, batch: Batch,
    masks: Optional[List[MaskRecord]],
) -> Batch:
    assignment = step.assignment
    expression = assignment.expression
    target = assignment.target
    bound_col = batch.cols.get(target)
    view = _RowView(batch.cols)
    keep: List[int] = []
    values: List[Term] = []
    for i in range(batch.n):
        view.i = i
        try:
            value = evaluate_to_term(expression, view)
        except Exception as exc:  # noqa: BLE001 — raise or mask
            if completes_match(step.rule, store, batch.row(i)):
                raise
            record_mask(masks, "assign", step.describe(), exc)
            continue
        if bound_col is not None:
            # Bound target degrades to an equality filter, exactly
            # like AssignStep.
            if bound_col[i] == value:
                keep.append(i)
        else:
            keep.append(i)
            values.append(value)
    shrunk = batch.take(keep) if len(keep) != batch.n else batch
    if bound_col is None:
        shrunk.cols[target] = values
    return shrunk


def _apply_filter(
    step: FilterStep, store, batch: Batch,
    masks: Optional[List[MaskRecord]],
) -> Batch:
    condition = step.condition
    view = _RowView(batch.cols)
    keep: List[int] = []
    for i in range(batch.n):
        view.i = i
        try:
            ok = condition.holds(view)
        except Exception as exc:  # noqa: BLE001 — raise or mask
            if completes_match(step.rule, store, batch.row(i)):
                raise
            record_mask(masks, "filter", step.describe(), exc)
            continue
        if ok:
            keep.append(i)
    if len(keep) == batch.n:
        return batch
    return batch.take(keep)


def _apply_negation(
    step: NegationStep, store, batch: Batch, stats
) -> Batch:
    probe = store.probe
    positions = step.key_positions
    predicate = step.predicate
    keep: List[int] = []
    if step.key_vars:
        key_cols = [
            (slot, batch.cols[var]) for slot, var in step.key_vars
        ]
        template = list(step.key_consts)
        for i in range(batch.n):
            for slot, col in key_cols:
                template[slot] = col[i]
            facts = probe(predicate, positions, tuple(template))
            if stats is not None:
                stats.probe_calls += 1
                if facts:
                    stats.probe_hits += 1
                    stats.rows_scanned += len(facts)
            if not facts:
                keep.append(i)
    else:
        facts = probe(predicate, positions, step.key_consts)
        if stats is not None:
            stats.probe_calls += 1
            if facts:
                stats.probe_hits += 1
                stats.rows_scanned += len(facts)
        if facts:
            keep = []
        else:
            return batch
    if len(keep) == batch.n:
        return batch
    return batch.take(keep)


def execute_batch(
    plan: JoinPlan,
    store,
    track_premises: bool = False,
    analysis=None,
    masks: Optional[List[MaskRecord]] = None,
) -> Batch:
    """Run one compiled plan over the store as a batch pipeline.

    Returns the final batch — one row per complete body match, columns
    for every bound variable (scan outputs plus assignment targets).
    Matches :meth:`JoinPlan.execute` row for row (modulo order),
    raising and masking exactly where the tuple-at-a-time path does
    (see the module docstring).  When
    ``analysis`` is given (EXPLAIN ANALYZE), per-step actuals are
    recorded batch-wise: ``invocations`` counts rows entering the
    step, ``rows_out`` rows leaving it.
    """
    batch = Batch.unit(track_premises)
    steps = plan.steps
    if analysis is not None:
        analysis.executions += 1
    for index, step in enumerate(steps):
        stats = None
        started = 0
        if analysis is not None:
            stats = analysis.steps[index]
            stats.invocations += batch.n
            started = perf_counter_ns()
        if type(step) is ScanStep:
            batch = _expand_scan(step, store, batch, stats)
        elif type(step) is AssignStep:
            batch = _apply_assign(step, store, batch, masks)
        elif type(step) is FilterStep:
            batch = _apply_filter(step, store, batch, masks)
        else:
            batch = _apply_negation(step, store, batch, stats)
        if analysis is not None:
            stats.wall_ns += perf_counter_ns() - started
            stats.rows_out += batch.n
        if not batch.n:
            return batch
    if analysis is not None:
        analysis.matches += batch.n
    return batch
