"""Schema-versioned structured event stream (the unified audit log).

One replayable JSONL stream unifies the three things an auditor asks
for after an exchange: *what happened* (decision events — "cell
(row, attr) suppressed by rule R in iteration N"), *where time went*
(finished spans, forwarded from the tracer), and *how much work it was*
(metrics snapshots).  Every record has the same envelope::

    {"v": 1, "seq": 17, "ts": 1754380800.123, "type": "decision",
     "payload": {"kind": "suppress", "db": "R25A4U", "row": 3, ...}}

``v`` is :data:`EVENT_SCHEMA_VERSION`, ``seq`` a per-log monotonically
increasing sequence number (gap-free, so truncated files are
detectable), ``ts`` wall-clock seconds.

The log keeps an incremental :meth:`EventLog.summary` while it writes,
and :func:`replay` folds a written file back into the same summary with
the same :func:`fold` function — so ``replay(path) ==
log.summary()`` is the integrity check that the stream on disk tells
the whole story (exercised by the tests and the CI export smoke).

Event types emitted by the instrumented call sites:

* ``decision`` — anonymization-cycle actions (suppress/recode, with
  row, attribute, method, measure, iteration and the motivating risk
  evidence) and chase derivations (rule label, stratum, round, facts
  added, nulls invented);
* ``span`` — every finished tracer span (attached via
  :class:`EventSpanSink` when :func:`repro.telemetry.enable` is given
  an ``events_path``);
* ``metrics`` — a full registry snapshot (emitted at ``disable()`` and
  on demand);
* ``lifecycle`` — framework-level milestones (``assess`` /
  ``anonymize`` / ``share`` completed, with their headline outcomes);
* ``batch_mask`` — rows a compiled plan dropped because a pushed-down
  expression raised on a binding that completes no body match (rule
  label, step, exception class, row count);
* ``heartbeat`` / ``stall`` — live chase progress (stratum, round,
  frontier size, fire rate) and no-progress episodes, see
  ``docs/observability.md``;
* ``cycle_iteration`` / ``cycle_summary`` — the anonymization cycle's
  per-pass risk/utility gauges and its end-of-run outcome, the time
  series the confidentiality audit ledger
  (:mod:`repro.audit`) folds into risk-vs-utility trajectories.

The :class:`repro.audit.AuditLedger` consumes this stream twice over:
live, as an :meth:`EventLog.add_observer` callback receiving every
envelope as it is emitted, and offline, by folding a written file —
both paths see byte-identical records, which is what makes
``AuditLedger.replay(path)`` reconstruct the live ledger exactly.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Bump when the envelope or the summary fold changes incompatibly.
EVENT_SCHEMA_VERSION = 1

_SCALARS = (str, int, float, bool, type(None))


def _normalize(value: Any) -> Any:
    """JSON-normalize a payload value so the live event and its
    re-parsed form are indistinguishable (LabelledNulls and other
    domain objects become their string rendering)."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {str(k): _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    return str(value)


#: Decision kinds that are confidentiality actions on microdata cells
#: (as opposed to chase derivations); the audit section counts these.
AUDIT_ACTIONS = ("suppress", "recode", "keep")


def new_summary() -> Dict[str, Any]:
    """The empty summary every fold starts from."""
    return {
        "schema": EVENT_SCHEMA_VERSION,
        "events": 0,
        "by_type": {},
        "decisions": {"total": 0, "by_kind": {}, "by_rule": {}},
        "spans": {"total": 0, "by_name": {}},
        "lifecycle": {},
        "counters": {},
        "audit": {
            "cells": {action: 0 for action in AUDIT_ACTIONS},
            "iterations": 0,
            "by_measure": {},
            "outcome": {},
        },
    }


def fold(summary: Dict[str, Any], event: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one event into a summary (shared by the live log and
    :func:`replay`, which is what makes the stream replayable)."""
    summary["events"] += 1
    event_type = event.get("type", "?")
    by_type = summary["by_type"]
    by_type[event_type] = by_type.get(event_type, 0) + 1
    payload = event.get("payload", {})
    if event_type == "decision":
        decisions = summary["decisions"]
        decisions["total"] += 1
        kind = str(payload.get("kind", "?"))
        decisions["by_kind"][kind] = decisions["by_kind"].get(kind, 0) + 1
        rule = payload.get("rule") or payload.get("method")
        if rule is not None:
            rule = str(rule)
            decisions["by_rule"][rule] = (
                decisions["by_rule"].get(rule, 0) + 1
            )
        if kind in AUDIT_ACTIONS:
            audit = summary.setdefault(
                "audit", new_summary()["audit"]
            )
            audit["cells"][kind] = audit["cells"].get(kind, 0) + 1
            iteration = payload.get("iteration")
            if isinstance(iteration, int):
                audit["iterations"] = max(audit["iterations"], iteration)
            measure = payload.get("measure")
            if measure is not None:
                measure = str(measure)
                audit["by_measure"][measure] = (
                    audit["by_measure"].get(measure, 0) + 1
                )
    elif event_type == "cycle_iteration":
        audit = summary.setdefault("audit", new_summary()["audit"])
        iteration = payload.get("iteration")
        if isinstance(iteration, int):
            audit["iterations"] = max(audit["iterations"], iteration)
    elif event_type == "cycle_summary":
        # Last cycle wins, mirroring the metrics-snapshot semantics:
        # the outcome is cumulative state, not an increment.
        audit = summary.setdefault("audit", new_summary()["audit"])
        audit["outcome"] = dict(payload)
    elif event_type == "span":
        spans = summary["spans"]
        spans["total"] += 1
        name = str(payload.get("name", "?"))
        spans["by_name"][name] = spans["by_name"].get(name, 0) + 1
    elif event_type == "lifecycle":
        stage = str(payload.get("stage", "?"))
        lifecycle = summary["lifecycle"]
        lifecycle[stage] = lifecycle.get(stage, 0) + 1
    elif event_type == "metrics":
        # Last snapshot wins; counters are cumulative already.
        summary["counters"] = dict(payload.get("counters", {}))
    return summary


class EventLog:
    """Append-only structured event log with an incremental summary.

    With a ``path`` every event is written as one JSON line; without
    one the log still folds its summary (useful in tests and when only
    the in-memory tail matters).  ``keep`` bounds the in-memory tail
    returned by :meth:`tail`.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        keep: int = 1024,
        clock: Callable[[], float] = time.time,
    ):
        self.path = path
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._summary = new_summary()
        self._keep = keep
        self._tail: List[Dict[str, Any]] = []
        self._observers: List[Callable[[Dict[str, Any]], Any]] = []
        self._handle = (
            open(path, "a", encoding="utf-8") if path is not None else None
        )
        self._closed = False

    def add_observer(
        self, observer: Callable[[Dict[str, Any]], Any]
    ) -> None:
        """Register a callback receiving every emitted envelope (after
        normalization, i.e. exactly what lands on disk) — the live
        counterpart of folding a written file, so an observer such as
        :class:`repro.audit.AuditLedger` sees the same records a later
        replay will."""
        with self._lock:
            self._observers.append(observer)

    def remove_observer(
        self, observer: Callable[[Dict[str, Any]], Any]
    ) -> None:
        with self._lock:
            self._observers = [
                o for o in self._observers if o is not observer
            ]

    # -- emission ---------------------------------------------------------

    def emit(self, event_type: str, **payload: Any) -> Optional[Dict]:
        """Record one event; returns the envelope (None once closed)."""
        if self._closed:
            return None
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "type": event_type,
            "payload": _normalize(payload),
        }
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            record["ts"] = self._clock()
            fold(self._summary, record)
            self._tail.append(record)
            if len(self._tail) > self._keep:
                del self._tail[: len(self._tail) - self._keep]
            if self._handle is not None:
                self._handle.write(json.dumps(record) + "\n")
            observers = list(self._observers)
        for observer in observers:
            observer(record)
        return record

    def emit_span(self, span: Dict[str, Any]) -> None:
        self.emit("span", **span)

    def emit_metrics(self, snapshot: Dict[str, Any]) -> None:
        self.emit("metrics", **snapshot)

    # -- views ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """A deep-ish copy of the running summary (safe to mutate)."""
        with self._lock:
            return json.loads(json.dumps(self._summary))

    def tail(self, event_type: Optional[str] = None) -> List[Dict]:
        with self._lock:
            events = list(self._tail)
        if event_type is None:
            return events
        return [e for e in events if e["type"] == event_type]

    def __len__(self) -> int:
        return self._seq

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._handle is not None and not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def __repr__(self) -> str:
        return f"EventLog({self._seq} events, path={self.path!r})"


class EventSpanSink:
    """Tracer sink forwarding finished spans into an event log, which
    is how the span stream and the decision stream end up interleaved
    in one file."""

    def __init__(self, log: EventLog):
        self.log = log

    def emit(self, span: Dict[str, Any]) -> None:
        self.log.emit_span(span)

    def close(self) -> None:
        pass


def read_events(path: str) -> Iterator[Dict[str, Any]]:
    """Iterate the events of a JSONL file, validating the envelope."""
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as error:
                raise ValueError(
                    f"{path}:{number}: not valid JSON: {error}"
                ) from None
            if not isinstance(event, dict) or "type" not in event:
                raise ValueError(
                    f"{path}:{number}: not an event envelope"
                )
            version = event.get("v")
            if version != EVENT_SCHEMA_VERSION:
                raise ValueError(
                    f"{path}:{number}: schema version {version!r}, "
                    f"expected {EVENT_SCHEMA_VERSION}"
                )
            yield event


def iter_session_events(
    path: str, strict_sequence: bool = True
) -> Iterator[Dict[str, Any]]:
    """Iterate a written event file with gap detection.

    With ``strict_sequence`` (default) the per-log ``seq`` numbers must
    be gap-free within a log session — a truncated or interleaved file
    fails loudly instead of producing a silently partial stream.  A
    ``seq`` of 1 starts a new session (the file is opened in append
    mode, so several runs may share it).  Both :func:`replay` and
    :meth:`repro.audit.AuditLedger.replay` fold over this iterator, so
    they enforce the same integrity contract.
    """
    expected = None
    for event in read_events(path):
        if strict_sequence:
            seq = event.get("seq")
            if seq != 1 and seq != expected:
                raise ValueError(
                    f"{path}: sequence gap: expected seq "
                    f"{expected if expected is not None else 1}, "
                    f"got {seq!r}"
                )
            expected = (seq or 0) + 1
        yield event


def replay(path: str, strict_sequence: bool = True) -> Dict[str, Any]:
    """Fold a written event file back into a summary (see
    :func:`iter_session_events` for the sequence contract)."""
    summary = new_summary()
    for event in iter_session_events(path, strict_sequence):
        fold(summary, event)
    return summary
