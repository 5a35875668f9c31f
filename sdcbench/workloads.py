"""Workloads of the exchange benchmark: set-up, one job, output checks.

A job is what a data steward waits for: input CSV on disk → loaded
microdata → risk verdict → anonymization cycle → shared CSV on disk.
Every call into the program goes through a module or class attribute
at call time (``rio.load_csv``, ``Program.parse``), so the wrappers
of :mod:`layers` see it when a traced run installs them.

The checks never trust the program's own reader: a shared CSV is
parsed with :mod:`csv`, diffed cell by cell against the raw input, and
re-assessed by a fresh measure instance.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro import io as rio
from repro.data.generator import generate_dataset
from repro.framework import VadaSA
from repro.model.microdata import MicrodataDB
from repro.model.nulls import MAYBE_MATCH
from repro.model.schema import AttributeCategory, MicrodataSchema
from repro.risk.base import RiskMeasure
from repro.risk.k_anonymity import KAnonymityRisk
from repro.risk.suda import SudaRisk
from repro.vadalog.atoms import Atom
from repro.vadalog.program import Program
from repro.vadalog.terms import LabelledNull
from repro.vadalog_programs.programs import K_ANONYMITY, TUPLE_BUILD

CLOCK = time.perf_counter

#: The risk threshold T of every cycle (the framework default).
THRESHOLD = 0.5
#: k of the k-anonymity verdicts, native and declarative.
K = 2
#: How ``repro.io`` writes a labelled null into a CSV cell.
NULL_PREFIX = "#NULL:"


def kanon() -> RiskMeasure:
    return KAnonymityRisk(k=K)


def suda() -> RiskMeasure:
    return SudaRisk()


class Staged(NamedTuple):
    """A workload's input as staged by set-up, plus the raw text the
    checks compare outputs against."""

    input_csv: Path
    header: List[str]
    rows: List[List[str]]
    identifiers: List[str]
    quasi_identifiers: List[str]
    categories: Dict[str, str]


class Cycle(NamedTuple):
    """One verdict + anonymization cycle + shared CSV of a job."""

    make_measure: Callable[[], RiskMeasure]
    verdict_risky: int
    result: object  # repro.anonymize.cycle.CycleResult
    shared_csv: Path

    @property
    def rechecked(self) -> bool:
        """Whether the cycle's tracker rechecks rows within a pass:
        only measures that decide safety from group statistics allow
        it, SUDA does not."""
        measure = self.make_measure()
        return measure.safe_from_group(1, 1.0, THRESHOLD) is not None


class JobOutcome(NamedTuple):
    verdict_s: float
    share_s: float
    loaded: MicrodataDB
    cycles: List[Cycle]
    chase: Optional[object]  # repro.vadalog.chase.ChaseResult
    engine_verdicts: Optional[Dict[int, float]]

    @property
    def nulls_injected(self) -> int:
        return sum(cycle.result.nulls_injected for cycle in self.cycles)

    @property
    def info_loss(self) -> float:
        losses = [cycle.result.information_loss for cycle in self.cycles]
        return sum(losses) / len(losses)


def engine_verdict(db: MicrodataDB):
    """k-anonymity through the chase: Algorithm 2 Rule 1 (TUPLE_BUILD)
    and Algorithm 4 (K_ANONYMITY) with the engine's user defaults."""
    facts = db.to_facts()
    facts.append(Atom.of("anonSet", db.name, frozenset(db.quasi_identifiers)))
    facts.append(Atom.of("param", "k", K))
    result = Program.parse(TUPLE_BUILD + K_ANONYMITY).run(facts)
    verdicts = {
        int(row): float(risk) for row, risk in result.tuples("riskOutput")
    }
    return result, verdicts


class Workload(NamedTuple):
    name: str
    why: str
    code: str
    scale: int
    measures: Sequence[Callable[[], RiskMeasure]]
    #: Datasets generated per seed; a run gives them jobs in turn, so
    #: its figures average over that many inputs, not one.
    datasets: int
    #: The verdict comes from the chase instead of the native measure.
    engine: bool = False
    #: How strongly the workload's times follow the host probe: a job
    #: on a host ``s`` times slower by the probe takes ``s **
    #: host_sensitivity`` times as long.  Over seeds 1-10 of 55-second
    #: runs, exponents of 0.75-1 gave the suppress workload's times the
    #: smallest spread and 0.25-0.5 the engine workload's; the chase
    #: slows far less than SUDA's scans in the host's slow phases.
    host_sensitivity: float = 1.0

    # -- set-up ---------------------------------------------------------------

    def stage(self, seed: int, workdir: Path) -> List[Path]:
        """Generate the datasets from the seed and stage them as CSV.
        Dataset ``i`` of seed ``s`` uses generator seed
        ``s * datasets + i``, so seeds never share a dataset (``s`` is
        taken modulo 2**32, as the generator needs a non-negative
        seed)."""
        base = (seed % 2**32) * self.datasets
        return [
            rio.save_csv(
                generate_dataset(self.code, seed=base + i,
                                 scale=self.scale),
                workdir / f"input{i}.csv",
            )
            for i in range(self.datasets)
        ]

    def reference(self, input_csv: Path) -> Staged:
        """Raw text of the staged input, for the output checks."""
        header, rows = read_raw_csv(input_csv)
        with open(input_csv.with_suffix(".schema.json"),
                  encoding="utf-8") as handle:
            entries = json.load(handle)["attributes"]
        categories = {entry["name"]: entry["category"] for entry in entries}
        return Staged(
            input_csv,
            header,
            rows,
            [a for a in header if categories[a] == "Identifier"],
            [a for a in header if categories[a] == "Quasi-identifier"],
            categories,
        )

    # -- the timed job --------------------------------------------------------

    def job(self, staged: Staged, outdir: Path) -> JobOutcome:
        start = CLOCK()
        db = rio.load_csv(staged.input_csv)
        verdict_s = 0.0
        chase = verdicts = None
        if self.engine:
            began = CLOCK()
            chase, verdicts = engine_verdict(db)
            verdict_s += CLOCK() - began
        vada = VadaSA(threshold=THRESHOLD)
        vada.register(db)
        cycles = []
        for index, make_measure in enumerate(self.measures):
            if verdicts is None:
                began = CLOCK()
                report = vada.assess(db.name, measure=make_measure())
                verdict_s += CLOCK() - began
                risky = len(report.risky_indices(THRESHOLD))
            else:
                risky = sum(1 for r in verdicts.values() if r > THRESHOLD)
            result = vada.anonymize(db.name, measure=make_measure())
            shared_csv = rio.save_csv(
                result.shared_view(), outdir / f"shared{index}.csv"
            )
            cycles.append(Cycle(make_measure, risky, result, shared_csv))
        return JobOutcome(
            verdict_s, CLOCK() - start, db, cycles, chase, verdicts
        )

    # -- output checks --------------------------------------------------------

    def check(self, staged: Staged, outcome: JobOutcome) -> List[str]:
        """Reasons the job's outputs are wrong (empty when correct)."""
        problems: List[str] = []
        if outcome.engine_verdicts is not None:
            problems += check_engine_verdicts(
                outcome.loaded, outcome.engine_verdicts
            )
        for cycle in outcome.cycles:
            result = cycle.result
            name = cycle.make_measure().name
            if not result.converged:
                problems.append(f"{name}: cycle did not converge")
            if cycle.verdict_risky != len(result.initial_risky):
                problems.append(
                    f"{name}: verdict found {cycle.verdict_risky} risky "
                    f"tuples, the cycle started from "
                    f"{len(result.initial_risky)}"
                )
            problems += check_shared(
                staged, cycle.shared_csv, cycle.make_measure,
                result.nulls_injected,
            )
        return problems


def read_raw_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


def check_shared(
    staged: Staged,
    shared_csv: Path,
    make_measure: Callable[[], RiskMeasure],
    nulls_injected: int,
) -> List[str]:
    """Diff a shared CSV against the input and re-assess it.

    The shared view must keep every row in order, drop exactly the
    identifier columns, and differ from the input only where a
    quasi-identifier cell became a labelled null; the number of such
    cells must equal the cycle's ``nulls_injected``; and a fresh
    measure must find no tuple above the threshold.
    """
    header, rows = read_raw_csv(shared_csv)
    expected = [a for a in staged.header if a not in staged.identifiers]
    if header != expected:
        return [f"{shared_csv.name}: columns {header}, expected {expected}"]
    if len(rows) != len(staged.rows):
        return [f"{shared_csv.name}: {len(rows)} rows, expected "
                f"{len(staged.rows)}"]
    problems: List[str] = []
    positions = [staged.header.index(a) for a in header]
    quasi = {header.index(a) for a in staged.quasi_identifiers}
    suppressed = 0
    for number, (before, after) in enumerate(zip(staged.rows, rows)):
        for column, source in enumerate(positions):
            if after[column] == before[source]:
                continue
            if column in quasi and after[column].startswith(NULL_PREFIX):
                suppressed += 1
            elif len(problems) < 5:
                problems.append(
                    f"{shared_csv.name}: row {number} "
                    f"{header[column]!r} changed from "
                    f"{before[source]!r} to {after[column]!r}"
                )
    if suppressed != nulls_injected:
        problems.append(
            f"{shared_csv.name}: {suppressed} cells suppressed on disk, "
            f"the cycle reports {nulls_injected} nulls injected"
        )
    measure = make_measure()
    report = measure.assess(shared_db(staged, header, rows),
                            semantics=MAYBE_MATCH)
    risky = report.risky_indices(THRESHOLD)
    if risky:
        problems.append(
            f"{shared_csv.name}: {len(risky)} tuple(s) still above "
            f"T={THRESHOLD} under {measure.name}, e.g. row {risky[0]}"
        )
    return problems


def shared_db(staged: Staged, header: List[str], rows) -> MicrodataDB:
    """A microdata DB built from raw shared-CSV text."""
    schema = MicrodataSchema(
        header,
        {a: AttributeCategory.from_label(staged.categories[a])
         for a in header},
    )
    weight = schema.weight_attribute

    def cell(attribute: str, text: str):
        if text.startswith(NULL_PREFIX):
            return LabelledNull(int(text[len(NULL_PREFIX):]))
        return float(text) if attribute == weight else text

    records = [
        {a: cell(a, text) for a, text in zip(header, row)} for row in rows
    ]
    return MicrodataDB("shared", schema, records)


def check_engine_verdicts(
    db: MicrodataDB, verdicts: Dict[int, float]
) -> List[str]:
    """The chase's per-tuple ``riskOutput`` must equal native
    k-anonymity on the same data, for every row."""
    scores = kanon().assess(db, semantics=MAYBE_MATCH).scores
    if sorted(verdicts) != list(range(len(scores))):
        return [
            f"engine scored {len(verdicts)} tuples, the dataset has "
            f"{len(scores)}"
        ]
    wrong = [row for row, score in enumerate(scores)
             if verdicts[row] != score]
    if wrong:
        return [
            f"engine and native k-anonymity disagree on {len(wrong)} "
            f"tuple(s), e.g. row {wrong[0]}: engine "
            f"{verdicts[wrong[0]]}, native {scores[wrong[0]]}"
        ]
    return []


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "suppress_r50a9w",
            "R50A9W at 500 rows (9 QIs, Fig. 7f): k=2 then SUDA cycles, "
            "~1k suppressions, many null patterns, tracker rechecks and "
            "SUDA scans; never runs the chase",
            "R50A9W", 100, (kanon, suda), 8,
        ),
        Workload(
            "engine_r100a4u",
            "R100A4U at 10k rows: k=2 verdict from TUPLE_BUILD+K_ANONYMITY "
            "through the chase (pre-flight, provenance, columnar, serial), "
            "then the native cycle shares",
            "R100A4U", 10, (kanon,), 4, engine=True, host_sensitivity=0.25,
        ),
    )
}
