"""Outside-in per-layer tracing for the exchange benchmark.

The program is never edited and never traces itself: this module
replaces the public functions of each layer with wrappers for the
duration of one traced job and puts the originals back afterwards.

* A *timed* wrapper records self time: its own wall time minus the
  time spent in timed wrappers it called.  ``match_aggregate`` runs
  inside both ``assess`` and ``heuristics.prepare``, and ``preflight``
  inside ``Program.run``, so inclusive times would count them twice.
* A *counted* wrapper only counts calls.  It is used for hot per-row
  functions (``matches_combination``, ``ProvenanceLog.record``,
  ``LocalSuppression.apply``), where reading the clock twice per call
  would distort the layer it is attributed to.

The time of a counted call lands in the self time of the timed layer
that called it.  Whatever runs outside every timed wrapper is
reported as the unattributed remainder, so layer self times plus the
remainder add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, NamedTuple, Tuple

TIMED = "timed"
COUNTED = "counted"


class Hook(NamedTuple):
    """One wrapped callable: ``owner`` is a module path, or a module
    path and a class name joined by ``:``."""

    owner: str
    attribute: str
    layer: str
    kind: str


#: The layer boundaries the traced run wraps, by public name.
HOOKS: Tuple[Hook, ...] = (
    Hook("repro.io", "load_csv", "io.load_csv", TIMED),
    Hook("repro.io", "save_csv", "io.save_csv", TIMED),
    Hook("repro.model.microdata:MicrodataDB", "to_facts", "model.to_facts",
         TIMED),
    Hook("repro.model.microdata:MicrodataDB", "drop_identifiers",
         "model.drop_identifiers", TIMED),
    Hook("repro.model.nulls:MaybeMatchSemantics", "match_aggregate",
         "nulls.match_aggregate", TIMED),
    Hook("repro.model.nulls:MaybeMatchSemantics", "matches_combination",
         "nulls.matches_combination", COUNTED),
    Hook("repro.risk.k_anonymity:KAnonymityRisk", "assess",
         "risk.kanon.assess", TIMED),
    Hook("repro.risk.suda:SudaRisk", "assess", "risk.suda.assess", TIMED),
    Hook("repro.anonymize.cycle:AnonymizationCycle", "run", "cycle.run",
         TIMED),
    Hook("repro.anonymize.heuristics:MostRiskyFirstSelection", "prepare",
         "heuristics.prepare", TIMED),
    Hook("repro.anonymize.cycle:GroupTracker", "stats", "tracker.stats",
         TIMED),
    Hook("repro.anonymize.suppression:LocalSuppression", "apply",
         "suppress.apply", COUNTED),
    Hook("repro.vadalog.program:Program", "parse", "vadalog.parse", TIMED),
    Hook("repro.vadalog.program:Program", "run", "vadalog.store", TIMED),
    Hook("repro.vadalog.program:Program", "preflight", "vadalog.preflight",
         TIMED),
    Hook("repro.vadalog.chase:ChaseEngine", "run", "vadalog.chase", TIMED),
    Hook("repro.vadalog.explain:ProvenanceLog", "record",
         "provenance.record", COUNTED),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class LayerTracer:
    """Self-time and call-count accounting for one traced job."""

    def __init__(self, hooks: Tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Inclusive time of wrapped calls made while no other wrapped
        #: call was active; wall time minus this is unattributed.
        self.attributed_s = 0.0
        # One child-time accumulator per active timed call.
        self._stack: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, layer: str, function: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    self.attributed_s += elapsed

        return wrapper

    def _counted(self, layer: str, function: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return function(*args, **kwargs)

        return wrapper

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        """Replace every hooked callable by its wrapper."""
        if self._saved:
            raise RuntimeError("layer tracer is already installed")
        for hook in self.hooks:
            owner = _resolve(hook.owner)
            original = vars(owner)[hook.attribute]
            make = self._timed if hook.kind == TIMED else self._counted
            if isinstance(original, classmethod):
                replacement = classmethod(make(hook.layer, original.__func__))
            else:
                replacement = make(hook.layer, original)
            self._saved.append((owner, hook.attribute, original))
            setattr(owner, hook.attribute, replacement)

    def remove(self) -> None:
        """Put every original callable back, in reverse order."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        self._stack.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()
