"""Command-line interface.

Sub-commands:

* ``generate`` — synthesize a Figure 6 dataset to CSV
  (``repro generate R25A4W --scale 25 -o out.csv``);
* ``assess`` — preemptive risk evaluation of a CSV dataset
  (``repro assess data.csv --measure k-anonymity --k 2``);
* ``anonymize`` — run the anonymization cycle and write the shared view
  (``repro anonymize data.csv --measure k-anonymity --k 2 -o anon.csv``);
* ``engine`` — evaluate a Vadalog program file and print derived facts
  (``repro engine program.vada --output path``);
* ``explain`` — print compiled join plans, optionally with runtime
  actuals (``repro explain program.vada --analyze --json out.json``);
* ``lint`` — static analysis over Vadalog files or shipped modules
  (``repro lint program.vada --format json --fail-on warning``);
* ``audit`` — the confidentiality audit console over a recorded event
  stream (``repro audit summary --ledger run.jsonl``, ``repro audit
  why 17:city --ledger run.jsonl``, ``repro audit timeline ...``);
* ``events`` — event-stream utilities (``repro events replay
  run.jsonl --format json`` prints the folded summary).

Run as ``python -m repro <command> ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import io as repro_io
from . import telemetry
from .anonymize import AnonymizationCycle, LocalSuppression
from .data import generate_dataset
from .errors import ReproError
from .model import semantics_by_name
from .risk import measure_by_name

#: Exit code of an ``anonymize`` run whose cycle did not converge: the
#: shared view is written, but some tuple is still above the threshold.
EXIT_NOT_CONVERGED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vada-SA: reasoning-based statistical disclosure "
        "control (EDBT 2021 reproduction)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="enable telemetry and print a metrics snapshot (counters, "
        "timing histograms) to stderr when the command finishes",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE.jsonl", default=None,
        help="enable telemetry and append every finished span to this "
        "JSONL file",
    )
    parser.add_argument(
        "--events-out", metavar="FILE.jsonl", default=None,
        help="enable telemetry and append the unified event stream "
        "(decisions, spans, metric snapshots) to this JSONL file",
    )
    parser.add_argument(
        "--prom-out", metavar="FILE.prom", default=None,
        help="enable telemetry and write the final metrics registry "
        "in Prometheus text exposition format to this file",
    )
    parser.add_argument(
        "--rule-profile", action="store_true",
        help="enable telemetry and print the per-rule cost profile "
        "(hot rules: match/fire time, facts, nulls, strata) to stderr "
        "when the command finishes",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesize a Figure 6 dataset to CSV"
    )
    generate.add_argument("code", help="dataset code, e.g. R25A4W")
    generate.add_argument("--scale", type=int, default=25,
                          help="row-count divisor (default 25)")
    generate.add_argument("--seed", type=int, default=20210323)
    generate.add_argument("-o", "--output", required=True,
                          help="CSV output path")

    def add_measure_arguments(subparser):
        subparser.add_argument("dataset", help="CSV dataset path")
        subparser.add_argument("--schema", default=None,
                               help="schema JSON (default: sidecar)")
        subparser.add_argument("--measure", default="k-anonymity",
                               help="risk measure plug-in name")
        subparser.add_argument("--k", type=int, default=None,
                               help="k for k-anonymity / SUDA")
        subparser.add_argument("--epsilon", type=float, default=None,
                               help="epsilon for the differential measure")
        subparser.add_argument("--threshold", type=float, default=0.5,
                               help="risk threshold T (default 0.5)")
        subparser.add_argument("--semantics", default="maybe-match",
                               choices=["maybe-match", "standard"])

    assess = commands.add_parser(
        "assess", help="evaluate statistical disclosure risk"
    )
    add_measure_arguments(assess)
    assess.add_argument("--explain", type=int, default=None,
                        metavar="ROW", help="explain one row's score")

    anonymize = commands.add_parser(
        "anonymize", help="run the anonymization cycle"
    )
    add_measure_arguments(anonymize)
    anonymize.add_argument("-o", "--output", required=True,
                           help="anonymized CSV output path")
    anonymize.add_argument("--keep-identifiers", action="store_true",
                           help="do not drop direct identifiers")
    anonymize.add_argument("--trace", action="store_true",
                           help="print every anonymization step")

    report = commands.add_parser(
        "report", help="multi-measure exchange report for a CSV dataset"
    )
    report.add_argument("dataset", help="CSV dataset path")
    report.add_argument("--schema", default=None,
                        help="schema JSON (default: sidecar)")
    report.add_argument("--threshold", type=float, default=0.5)
    report.add_argument("--k", type=int, default=2,
                        help="k for the k-anonymity line")

    engine = commands.add_parser(
        "engine", help="evaluate a Vadalog program file"
    )
    engine.add_argument("program", help="Vadalog source file")
    engine.add_argument("--output", action="append", default=None,
                        metavar="PREDICATE",
                        help="predicate(s) to print (default: all derived)")
    engine.add_argument("--no-columnar", action="store_true",
                        help="keep every relation on the dict backend "
                        "and evaluate tuple-at-a-time instead of the "
                        "columnar batch executor (same as "
                        "CHASE_COLUMNAR=0)")
    engine.add_argument("--check-warded", action="store_true",
                        help="fail if the program is not warded")
    engine.add_argument("--no-preflight", action="store_true",
                        help="skip the static-analysis pre-flight gate "
                        "(escape hatch for programs outside the warded "
                        "fragment)")

    explain = commands.add_parser(
        "explain",
        help="print the compiled join plans of a Vadalog program "
        "(EXPLAIN), optionally with per-step runtime actuals "
        "(EXPLAIN ANALYZE)",
    )
    explain.add_argument("program", help="Vadalog source file")
    explain.add_argument("--analyze", action="store_true",
                         help="run the chase and annotate every plan "
                         "step with actual rows in/out, probe hits and "
                         "wall time")
    explain.add_argument("--json", metavar="FILE.json", default=None,
                         dest="json_out",
                         help="also write the explain document (plus "
                         "memory report with --analyze) as JSON")
    explain.add_argument("--no-columnar", action="store_true",
                         help="analyze the tuple-at-a-time executor "
                         "instead of the columnar batch executor")
    explain.add_argument("--no-preflight", action="store_true",
                         help="skip the static-analysis pre-flight gate")

    lint = commands.add_parser(
        "lint", help="run the static analyzer over Vadalog programs"
    )
    lint.add_argument("paths", nargs="*", metavar="FILE.vada",
                      help="Vadalog source file(s) to lint")
    lint.add_argument("--module", action="append", default=None,
                      metavar="NAME",
                      help="lint a shipped vadalog_programs module by "
                      "name (repeatable)")
    lint.add_argument("--all-modules", action="store_true",
                      help="lint every shipped vadalog_programs module")
    lint.add_argument("--format", default="pretty",
                      choices=["pretty", "json", "sarif"],
                      help="output format (default pretty)")
    lint.add_argument("--fail-on", default="error",
                      choices=["error", "warning", "info"],
                      help="lowest severity that makes the exit code "
                      "non-zero (default error)")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print diagnostics suppressed via "
                      "@lint_ignore annotations")

    audit = commands.add_parser(
        "audit",
        help="confidentiality audit console over a recorded event "
        "stream (per-cell why/why-not, risk/utility timeline)",
    )
    audit.add_argument("action", choices=["summary", "why", "timeline"],
                       help="summary: one-page run overview; why: one "
                       "cell's decision story; timeline: per-iteration "
                       "risk/utility trajectory")
    audit.add_argument("cell", nargs="?", default=None,
                       metavar="[DB:]ROW[:ATTRIBUTE]",
                       help="cell to explain (why only); the row is "
                       "the integer component")
    audit.add_argument("--ledger", required=True, metavar="FILE.jsonl",
                       help="event stream written via --events-out or "
                       "telemetry.enable(events_path=...)")
    audit.add_argument("--format", default="text",
                       choices=["text", "json"])
    audit.add_argument("--published", action="store_true",
                       help="with why: explain why the cell was "
                       "published instead (why-not)")
    audit.add_argument("--no-strict-sequence", action="store_true",
                       help="tolerate sequence gaps when folding the "
                       "ledger (e.g. a live file mid-write)")

    events = commands.add_parser(
        "events", help="unified event stream utilities"
    )
    events.add_argument("action", choices=["replay"],
                        help="replay: fold a written stream back into "
                        "its summary (integrity check included)")
    events.add_argument("path", metavar="FILE.jsonl",
                        help="event stream file")
    events.add_argument("--format", default="text",
                        choices=["text", "json"])
    events.add_argument("--no-strict-sequence", action="store_true",
                        help="tolerate sequence gaps (truncated or "
                        "still-growing files)")
    return parser


def _make_measure(args):
    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.epsilon is not None:
        params["epsilon"] = args.epsilon
    return measure_by_name(args.measure, **params)


def _command_generate(args) -> int:
    db = generate_dataset(args.code, seed=args.seed, scale=args.scale)
    path = repro_io.save_csv(db, args.output)
    print(f"wrote {len(db)} rows to {path} (+ schema sidecar)")
    return 0


def _command_assess(args) -> int:
    db = repro_io.load_csv(args.dataset, schema=args.schema)
    measure = _make_measure(args)
    semantics = semantics_by_name(args.semantics)
    report = measure.assess(db, semantics=semantics)
    risky = report.risky_indices(args.threshold)
    print(f"dataset: {db.name} ({len(db)} rows, "
          f"{len(db.quasi_identifiers)} quasi-identifiers)")
    print(f"measure: {report.measure} {report.parameters}")
    print(f"max risk: {report.max_score():.6g}")
    print(f"risky rows (T={args.threshold}): {len(risky)}")
    if risky[:10]:
        print("first risky rows:", risky[:10])
    if args.explain is not None:
        print(report.explain(args.explain))
    return 1 if risky else 0


def _command_anonymize(args) -> int:
    db = repro_io.load_csv(args.dataset, schema=args.schema)
    measure = _make_measure(args)
    semantics = semantics_by_name(args.semantics)
    cycle = AnonymizationCycle(
        measure,
        LocalSuppression(),
        threshold=args.threshold,
        semantics=semantics,
    )
    result = cycle.run(db)
    print(f"cycle: {result.iterations} iteration(s), "
          f"{len(result.steps)} step(s), "
          f"nulls={result.nulls_injected}, "
          f"information loss={result.information_loss:.2%}, "
          f"converged={result.converged}")
    if args.trace:
        for step in result.steps:
            print("  " + step.explain())
    output_db = (
        result.db if args.keep_identifiers else result.shared_view()
    )
    path = repro_io.save_csv(output_db, args.output)
    print(f"wrote anonymized view to {path}")
    return 0 if result.converged else EXIT_NOT_CONVERGED


def _command_report(args) -> int:
    from .framework import VadaSA

    db = repro_io.load_csv(args.dataset, schema=args.schema)
    vada = VadaSA(threshold=args.threshold)
    vada.register(db)
    text = vada.exchange_report(
        db.name, params={"k-anonymity": {"k": args.k}}
    )
    print(text)
    return 0 if "PASS" in text else 1


def _command_engine(args) -> int:
    from .vadalog import Program

    with open(args.program, encoding="utf-8") as handle:
        source = handle.read()
    program = Program.parse(source, name=args.program)
    if args.check_warded:
        report = program.wardedness()
        if not report.is_warded:
            for violation in report.violations():
                print("not warded:", violation, file=sys.stderr)
            return 3
        print("program is warded")
    result = program.run(
        preflight=not args.no_preflight,
        use_columnar=False if args.no_columnar else None,
    )
    if args.rule_profile:
        print("\n--- compiled join plans ---", file=sys.stderr)
        if result.plan_report:
            for rule_name, plans in result.plan_report.items():
                print(f"{rule_name}:", file=sys.stderr)
                for plan_name, steps in plans.items():
                    print(f"  {plan_name}:", file=sys.stderr)
                    for step in steps:
                        print(f"    {step}", file=sys.stderr)
        else:
            print("(no rules — nothing was planned)", file=sys.stderr)
    inputs = {fact.predicate for fact in program.facts}
    predicates = args.output or sorted(
        p for p in result.store.predicates() if p not in inputs
    )
    for predicate in predicates:
        for row in sorted(result.tuples(predicate), key=str):
            rendered = ", ".join(str(value) for value in row)
            print(f"{predicate}({rendered})")
    if result.egd_violations:
        print(f"{len(result.egd_violations)} EGD violation(s):",
              file=sys.stderr)
        for violation in result.egd_violations:
            print("  " + repr(violation), file=sys.stderr)
    return 0


def _command_explain(args) -> int:
    import json

    from .telemetry.inspect import render_explain
    from .vadalog import Program
    from .vadalog.chase import ChaseEngine

    with open(args.program, encoding="utf-8") as handle:
        source = handle.read()
    program = Program.parse(source, name=args.program)
    if args.analyze:
        result = program.run(
            preflight=not args.no_preflight, analyze=True,
            use_columnar=False if args.no_columnar else None,
        )
        doc = result.explain_report or {}
        doc["memory"] = {
            "store": result.store.memory_stats(),
            "provenance": result.provenance.stats(),
        }
    else:
        if not args.no_preflight:
            program.preflight()
        engine = ChaseEngine(program.rules, egds=program.egds)
        doc = engine.explain()
    print(render_explain(doc))
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"explain document written to {args.json_out}",
              file=sys.stderr)
    return 0


def _command_lint(args) -> int:
    import json

    from .errors import ParseError, SafetyError
    from .vadalog import Program
    from .vadalog.analysis import (
        AnalysisReport,
        Diagnostic,
        Span,
        analyze,
        severity_rank,
        to_sarif,
    )
    from .vadalog_programs import PROGRAMS, program_source

    targets: List = []  # (source_name, source_text)
    for path in args.paths or ():
        with open(path, encoding="utf-8") as handle:
            targets.append((path, handle.read()))
    if args.all_modules:
        targets.extend(
            (f"module:{name}", source) for name, source in PROGRAMS.items()
        )
    for name in args.module or ():
        targets.append((f"module:{name}", program_source(name)))
    if not targets:
        print("lint: nothing to lint (give FILE.vada paths, --module "
              "NAME or --all-modules)", file=sys.stderr)
        return 2

    floor = severity_rank(args.fail_on)
    failed = False
    reports = []
    for source_name, source in targets:
        try:
            program = Program.parse(source, name=source_name)
        except (ParseError, SafetyError) as error:
            # Parse/construction failures are reported as the reserved
            # VDL000 so one code covers "did not even reach analysis".
            failed = True
            report = AnalysisReport(
                [Diagnostic(
                    "VDL000",
                    "error",
                    str(error),
                    span=Span(
                        getattr(error, "line", None),
                        getattr(error, "column", None),
                    ),
                    pass_name="parse",
                )],
                source_name=source_name,
            )
        else:
            report = analyze(program, source_name=source_name)
            if any(
                severity_rank(d.severity) >= floor
                for d in report.diagnostics
            ):
                failed = True
        reports.append(report)
        if args.format == "pretty":
            if report.diagnostics or (
                args.show_suppressed and report.suppressed
            ):
                print(report.render(show_suppressed=args.show_suppressed))
            else:
                print(f"{source_name}: clean")
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    elif args.format == "sarif":
        print(json.dumps(to_sarif(reports), indent=2))
    return 1 if failed else 0


def _command_audit(args) -> int:
    from .audit import (
        AuditLedger,
        render_summary,
        render_timeline,
        render_why,
    )

    try:
        ledger = AuditLedger.replay(
            args.ledger,
            strict_sequence=not args.no_strict_sequence,
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot fold ledger {args.ledger}: {error}",
              file=sys.stderr)
        return 2
    if args.action == "why":
        if args.cell is None:
            print("error: audit why needs a cell "
                  "([DB:]ROW[:ATTRIBUTE])", file=sys.stderr)
            return 2
        try:
            print(render_why(ledger, args.cell, fmt=args.format,
                             published=args.published))
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0
    if args.action == "timeline":
        print(render_timeline(ledger, fmt=args.format))
        return 0
    print(render_summary(ledger, fmt=args.format))
    return 0


def _command_events(args) -> int:
    import json

    from .telemetry import replay

    try:
        summary = replay(
            args.path, strict_sequence=not args.no_strict_sequence
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot replay {args.path}: {error}",
              file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    lines = [f"Event stream {args.path}"]
    lines.append(f"  events: {summary['events']}")
    for event_type, count in sorted(summary["by_type"].items()):
        lines.append(f"    {event_type}: {count}")
    decisions = summary["decisions"]
    if decisions["total"]:
        lines.append(f"  decisions: {decisions['total']}")
        for kind, count in sorted(decisions["by_kind"].items()):
            lines.append(f"    {kind}: {count}")
    audit = summary.get("audit", {})
    if audit.get("cells", {}).get("suppress") or \
            audit.get("cells", {}).get("recode") or \
            audit.get("cells", {}).get("keep"):
        cells = audit["cells"]
        lines.append(
            "  audit: "
            + ", ".join(f"{k} {v}" for k, v in sorted(cells.items()))
            + f" over {audit.get('iterations', 0)} iteration(s)"
        )
    if summary["lifecycle"]:
        lines.append("  lifecycle: " + ", ".join(
            f"{stage} {count}"
            for stage, count in sorted(summary["lifecycle"].items())
        ))
    if summary["spans"]["total"]:
        lines.append(f"  spans: {summary['spans']['total']}")
    print("\n".join(lines))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "assess": _command_assess,
        "anonymize": _command_anonymize,
        "report": _command_report,
        "engine": _command_engine,
        "explain": _command_explain,
        "lint": _command_lint,
        "audit": _command_audit,
        "events": _command_events,
    }
    observing = (
        args.profile or args.rule_profile
        or args.trace_out is not None
        or args.events_out is not None
        or args.prom_out is not None
    )
    if observing:
        try:
            telemetry.enable(
                trace_path=args.trace_out,
                events_path=args.events_out,
            )
        except OSError as error:
            print(f"error: cannot open telemetry output: "
                  f"{error.strerror or error}", file=sys.stderr)
            return 2
    try:
        return handlers[args.command](args)
    except ReproError as error:
        # Bad input (malformed CSV, invalid weights, unparsable or
        # rejected programs...) is one stderr line and exit 3, never a
        # traceback; see "Command line" in the README.
        message = " ".join(str(error).splitlines())
        print(f"error: {message}", file=sys.stderr)
        return 3
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if observing:
            if args.profile:
                print("\n--- telemetry snapshot ---", file=sys.stderr)
                print(
                    telemetry.format_snapshot(telemetry.snapshot()),
                    file=sys.stderr,
                )
            if args.rule_profile:
                print("\n--- rule cost profile ---", file=sys.stderr)
                print(telemetry.rule_profile().render(), file=sys.stderr)
            if args.prom_out is not None:
                try:
                    telemetry.write_prometheus(args.prom_out)
                    print(f"metrics written to {args.prom_out}",
                          file=sys.stderr)
                except OSError as error:
                    print(f"error: cannot write --prom-out: {error}",
                          file=sys.stderr)
            if args.trace_out is not None:
                print(f"trace written to {args.trace_out}",
                      file=sys.stderr)
            if args.events_out is not None:
                print(f"events written to {args.events_out}",
                      file=sys.stderr)
            telemetry.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
