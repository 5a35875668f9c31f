"""Shared helpers for the figure-regeneration benchmarks.

Every ``bench_fig7*.py`` regenerates one panel of Figure 7.  Datasets
follow the Figure 6 grid, scaled down by ``REPRO_BENCH_SCALE`` (default
25, i.e. R25A4W becomes 1 000 rows) so the suite is CI-friendly;
set ``REPRO_BENCH_SCALE=1`` to run the paper's original sizes.

The helpers cache generated datasets per (code, seed) and render the
aligned text tables the modules print — the "same rows/series the paper
reports", shape-comparable rather than absolute.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence

from repro.data import generate_dataset

#: Row-count divisor for every benchmark dataset.
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "25"))

#: Seed shared by all benchmark datasets (deterministic figures).
SEED = 20210323


@lru_cache(maxsize=32)
def dataset(code: str, seed: int = SEED):
    """Generate (and cache) a Figure 6 dataset at benchmark scale."""
    return generate_dataset(code, seed=seed, scale=SCALE)


def engine_kanon_seconds(code: str, columnar: bool = False) -> float:
    """Seconds to score a dataset's k-anonymity risk *through the
    chase engine* (TUPLE_BUILD + K_ANONYMITY, k = 2) — the reasoning
    path the native risk measures shortcut.  ``columnar`` opts the run
    into the columnar batch backend (pinned off by default so the
    planned lane keeps its tuple-at-a-time meaning), letting the
    benches record the planned-vs-columnar trajectory side by side.
    """
    import time

    from repro.vadalog.atoms import Atom
    from repro.vadalog.program import Program
    from repro.vadalog_programs.programs import K_ANONYMITY, TUPLE_BUILD

    db = dataset(code)
    facts = list(db.to_facts())
    facts.append(
        Atom.of("anonSet", db.name, frozenset(db.quasi_identifiers))
    )
    facts.append(Atom.of("param", "k", 2))
    program = Program.parse(TUPLE_BUILD + K_ANONYMITY)
    start = time.perf_counter()
    result = program.run(
        facts, provenance=False, preflight=False, use_columnar=columnar,
    )
    seconds = time.perf_counter() - start
    assert result.tuples("riskOutput"), "engine scored no tuples"
    return seconds


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> str:
    """Render an aligned text table with a title banner."""
    rows = [[_fmt(value) for value in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    header = "  ".join(
        column.ljust(widths[index])
        for index, column in enumerate(columns)
    )
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(widths[index]) for index, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def emit(text: str) -> None:
    """Print a regenerated table (flushed so it interleaves sanely with
    pytest-benchmark output)."""
    print("\n" + text + "\n", flush=True)
