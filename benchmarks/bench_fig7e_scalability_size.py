"""Figure 7e — execution time by dataset size and risk technique.

Paper setting: unbalanced datasets R6A4U, R12A4U, R25A4U, R50A4U,
R100A4U; three risk techniques (individual risk, k-anonymity, SUDA);
k = 2 for k-anonymity, MSU threshold 3 for SUDA, T = 0.5.  Both the
full anonymization-cycle time and the risk-estimation-only time are
measured.  Expected shape: risk estimation dominates total time;
k-anonymity is cheapest and roughly linear; individual risk with the
library-sampled negative binomial is costlier (library interaction
overhead); SUDA is the most expensive.
"""

import time

import pytest
# Warm import: sampled individual risk imports scipy.stats lazily, and
# that one-time ~1 s cost must not land in the first timed cycle.
import scipy.stats  # noqa: F401

from repro.anonymize import AnonymizationCycle, LocalSuppression
from repro.risk import IndividualRisk, KAnonymityRisk, SudaRisk

from paperfig import dataset, emit, engine_kanon_seconds, render_table

SIZES = ("R6A4U", "R12A4U", "R25A4U", "R50A4U", "R100A4U")


def make_measure(name: str):
    if name == "k-anonymity":
        return KAnonymityRisk(k=2)
    if name == "individual":
        # The paper plugged an off-the-shelf statistical library and
        # sampled from the actual negative binomial: the costly trend.
        return IndividualRisk(mode="sampled", samples=200)
    if name == "suda":
        return SudaRisk(k=3)
    raise ValueError(name)


MEASURES = ("individual", "k-anonymity", "suda")


def risk_only(code: str, measure_name: str) -> float:
    db = dataset(code)
    measure = make_measure(measure_name)
    start = time.perf_counter()
    measure.assess(db)
    return time.perf_counter() - start


def full_cycle(code: str, measure_name: str) -> float:
    db = dataset(code)
    cycle = AnonymizationCycle(
        make_measure(measure_name),
        LocalSuppression(),
        threshold=0.5,
    )
    start = time.perf_counter()
    cycle.run(db)
    return time.perf_counter() - start


def figure7e_rows():
    rows = []
    for code in SIZES:
        row = [code, len(dataset(code))]
        for measure_name in MEASURES:
            row.append(round(full_cycle(code, measure_name), 4))
            row.append(round(risk_only(code, measure_name), 4))
        rows.append(row)
    return rows


def engine_rows(sizes=SIZES):
    """k-anonymity through the chase engine across the size grid,
    compiled plans tuple-at-a-time vs the columnar batch backend."""
    rows = []
    for code in sizes:
        planned = engine_kanon_seconds(code)
        columnar = engine_kanon_seconds(code, columnar=True)
        rows.append([
            code, len(dataset(code)),
            round(planned, 4), round(columnar, 4),
            round(planned / columnar, 2),
        ])
    return rows


def record_engine_history():
    """Append planned/columnar engine timings at the largest size to
    the bench trajectory (the regress.py ``engine_fig7e`` workload)."""
    from bench_tracker import record_history_entry

    largest = SIZES[-1]
    planned = engine_kanon_seconds(largest)
    columnar = engine_kanon_seconds(largest, columnar=True)
    return record_history_entry(
        "engine_fig7e",
        {"planned_seconds": planned, "columnar_seconds": columnar},
        extra={"dataset": largest},
    )


@pytest.mark.parametrize("measure_name", MEASURES)
@pytest.mark.parametrize("code", ("R6A4U", "R25A4U"))
def test_fig7e_risk_estimation(benchmark, code, measure_name):
    db = dataset(code)
    measure = make_measure(measure_name)
    benchmark.pedantic(
        measure.assess, args=(db,), rounds=2, iterations=1
    )


@pytest.mark.parametrize("measure_name", MEASURES)
def test_fig7e_full_cycle(benchmark, measure_name):
    benchmark.pedantic(
        full_cycle, args=("R25A4U", measure_name), rounds=1, iterations=1
    )


def test_fig7e_engine_planned_vs_columnar(benchmark):
    # Both backends score riskOutput; the speedup itself is tracked by
    # the regress.py engine_fig7e workload, not asserted here (CI
    # noise).
    rows = benchmark.pedantic(
        engine_rows, args=(("R6A4U", "R25A4U"),), rounds=1, iterations=1
    )
    emit(render_table(
        "Figure 7e (engine path): k-anonymity via chase, "
        "plans vs columnar",
        ["dataset", "rows", "planned/s", "columnar/s", "col-speedup"],
        rows,
    ))
    assert all(row[2] > 0 and row[3] > 0 for row in rows)


def test_fig7e_report(benchmark):
    rows = benchmark.pedantic(figure7e_rows, rounds=1, iterations=1)
    columns = ["dataset", "rows"]
    for measure_name in MEASURES:
        columns += [f"{measure_name}/total", f"{measure_name}/risk"]
    emit(render_table(
        "Figure 7e: elapsed seconds by dataset size and risk technique",
        columns,
        rows,
    ))
    # Shape: time grows with size for every technique (compare the
    # smallest and largest datasets).
    for column in range(2, len(columns)):
        assert rows[-1][column] >= rows[0][column] * 0.5
    # SUDA total >= k-anonymity total on the largest dataset.
    last = rows[-1]
    k_total = last[2 + 2 * MEASURES.index("k-anonymity")]
    suda_total = last[2 + 2 * MEASURES.index("suda")]
    assert suda_total >= k_total


if __name__ == "__main__":
    columns = ["dataset", "rows"]
    for measure_name in MEASURES:
        columns += [f"{measure_name}/total", f"{measure_name}/risk"]
    emit(render_table(
        "Figure 7e: elapsed seconds by dataset size and risk technique",
        columns,
        figure7e_rows(),
    ))
