"""Observability CLI: reports, trace breakdowns, live campaign view.

Usage::

    python -m repro.obs report campaign.jsonl
    python -m repro.obs report a.jsonl b.jsonl --top 20
    python -m repro.obs report campaign.jsonl --json report.json
    python -m repro.obs report campaign.jsonl --avf      # vulnerability view
    python -m repro.obs report --trace trace.json        # phase breakdown
    python -m repro.obs top status.json                  # live dashboard
    python -m repro.obs top status.json --once           # one snapshot
"""

from __future__ import annotations

import argparse
import sys

from . import trace as trace_mod
from .report import LogReport
from .top import watch


def _cmd_report(args) -> int:
    if not args.logs and not args.trace:
        print("report: provide at least one LOG or --trace TRACE",
              file=sys.stderr)
        return 2
    if args.logs:
        try:
            aggregated = LogReport.from_paths(args.logs)
        except OSError as err:
            print(f"report: cannot read log {err.filename}: {err}",
                  file=sys.stderr)
            return 1
        if args.avf:
            print(aggregated.render_avf())
        else:
            print(aggregated.render_text(top=args.top))
        if args.json == "-":
            import json

            json.dump(aggregated.to_json(), sys.stdout, indent=2)
            sys.stdout.write("\n")
        elif args.json:
            aggregated.save_json(args.json)
            print(f"wrote {args.json}")
    if args.trace:
        try:
            document = trace_mod.load_trace(args.trace)
        except (OSError, ValueError) as err:
            print(f"report: cannot read trace {args.trace}: {err}",
                  file=sys.stderr)
            return 1
        problems = trace_mod.validate_trace(document)
        if problems:
            print(f"report: trace {args.trace} failed schema validation:",
                  file=sys.stderr)
            for problem in problems[:10]:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        if args.logs:
            print()
        summary = trace_mod.summarize_trace(document)
        print(trace_mod.render_summary(summary, top=args.top * 2))
    return 0


def _cmd_top(args) -> int:
    return watch(
        args.heartbeat,
        interval=args.interval,
        once=args.once,
        until_done=args.until_done,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect campaign observability artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="aggregate JSONL trial logs and/or a span trace"
    )
    report.add_argument("logs", nargs="*", metavar="LOG",
                        help="JSONL trial event log(s) written via --obs-log "
                             "or REPRO_OBS")
    report.add_argument("--top", type=int, default=10, metavar="N",
                        help="rows per breakdown table (default 10)")
    report.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full aggregation as JSON "
                             "('-' for stdout)")
    report.add_argument("--avf", action="store_true",
                        help="render the AVF-style per-structure "
                             "vulnerability table (trial outcomes weighted "
                             "by golden-run occupancy residency) instead of "
                             "the standard report")
    report.add_argument("--trace", metavar="TRACE", default=None,
                        help="also validate + summarize a Chrome trace-event "
                             "JSON written via --trace/REPRO_TRACE: "
                             "per-phase self times and the critical path")
    report.set_defaults(func=_cmd_report)

    top = sub.add_parser(
        "top", help="live view of a running campaign's heartbeat file"
    )
    top.add_argument("heartbeat", metavar="HEARTBEAT",
                     help="status JSON written via --heartbeat "
                          "or REPRO_HEARTBEAT")
    top.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                     help="refresh interval (default 1.0)")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (exit 1 when the "
                          "heartbeat file is missing)")
    top.add_argument("--until-done", action="store_true",
                     help="exit when the campaign reports done/failed")
    top.set_defaults(func=_cmd_top)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
