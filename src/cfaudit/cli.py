"""Command line front end.

Three subcommands cover the workflows the library supports:

    cfaudit run a.scn [b.scn ...]     drive each scenario to completion
    cfaudit window program.asm        sweep evidence capacity vs exposure
    cfaudit instrument program.asm    show a program as it will be deployed

``run`` applies its overrides to each scenario and writes one JSON line
per scenario with ``--json`` or ``--output``. It exits 0 when every
scenario settled and met every expectation, 1 when one missed one, and 2
when a scenario file is bad. ``window`` runs the program as a scenario
over an ideal link per capacity; a run that does not settle exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .instrument import UnsupportedPattern, instrument
from .isa import LinkError, ParseError
from .scenario import ScenarioError, ScenarioSpec, parse_scenario, run

EXIT_OK = 0
EXIT_EXPECT = 1
EXIT_USAGE = 2

WINDOW_MAX_TICKS = 5_000_000


def _format_run(res) -> str:
    lines = [
        f"{res.name}: {'PASS' if res.ok else 'FAIL'}"
        f" ({'settled' if res.settled else 'did not settle'}, {res.ticks} ticks)",
        f"  verdicts        {' '.join(res.verdicts) or 'none'}",
        f"  violation       {res.violation}"
        + (f" at entry {res.violation_index}" if res.violation != "none" else ""),
        f"  device          {res.device_state}"
        + ("  image wiped" if res.pmem_zeroed else ""),
        f"  slices          {res.slices_audited} audited"
        f" / {res.reports_transmitted} sent"
        f" / {res.reports_received} received"
        f"  (retransmissions {res.retransmissions},"
        f" duplicates {res.duplicates}, rejected {res.rejected})",
        f"  evidence        {res.log_bytes} bytes,"
        f" {res.destinations_seen} destinations",
        f"  exposure        max {res.max_window} app instructions unaudited",
    ]
    if res.post_heal_ns is not None:
        lines.append(f"  after heal      {res.post_heal_ns} app instructions")
    if res.post_reset_ns is not None:
        lines.append(f"  after reset     {res.post_reset_ns} app instructions")
    for failure in res.failures:
        lines.append(f"  FAILED          {failure}")
    return "\n".join(lines)


def _load_spec(path: str, args):
    spec = parse_scenario(path)
    if args.seed is not None:
        spec = replace(spec, channel=replace(spec.channel, seed=args.seed))
    if args.delta is not None:
        spec = replace(spec, delta=args.delta)
    if args.log_max is not None:
        spec = replace(spec, log_max=args.log_max)
    return spec


def _cmd_run(args) -> int:
    specs = [_load_spec(path, args) for path in args.scenarios]
    results = [run(spec) for spec in specs]
    records = "".join(res.to_json() + "\n" for res in results)
    if args.output:
        Path(args.output).write_text(records)
    if not args.quiet:
        if args.json:
            print(records, end="")
        else:
            print("\n".join(_format_run(res) for res in results))
    return EXIT_OK if all(res.ok for res in results) else EXIT_EXPECT


def _parse_capacities(text: str) -> list[int]:
    try:
        caps = [int(tok, 0) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ScenarioError(f"bad capacity list: {exc}") from exc
    if not caps:
        raise ScenarioError("capacity list is empty")
    return caps


def _cmd_window(args) -> int:
    path = Path(args.program)
    asm_text = path.read_text()
    tokens = tuple(args.input.split())
    rows = []
    for cap in _parse_capacities(args.log_max):
        res = run(ScenarioSpec(path.stem, asm_text, delta=args.delta, log_max=cap,
                               input_tokens=tokens, max_ticks=WINDOW_MAX_TICKS))
        if not res.settled:
            raise ScenarioError("window measurement did not converge")
        rows.append((cap, res))
    if args.json:
        print(json.dumps([{"log_max": cap, "max_window": res.max_window,
                           "slices": res.device_slices, "triggers": res.triggers}
                          for cap, res in rows]))
        return EXIT_OK
    print(f"{'log_max':>8} {'max_window':>11} {'slices':>7}  triggers")
    for cap, res in rows:
        trig = " ".join(f"{k}={v}" for k, v in res.triggers.items() if v)
        print(f"{cap:>8} {res.max_window:>11} {res.device_slices:>7}  {trig}")
    return EXIT_OK


def _cmd_instrument(args) -> int:
    asm2, imap = instrument(Path(args.program).read_text())
    print(imap.to_text() if args.map else asm2, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfaudit",
        description="deterministic control-flow auditing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="drive scenario files to completion")
    p_run.add_argument("scenarios", nargs="+", metavar="scenario",
                       help="path to a .scn file")
    p_run.add_argument("--json", action="store_true",
                       help="emit each result record as one JSON line")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the channel seed")
    p_run.add_argument("--delta", type=int, default=None,
                       help="override the instruction budget per authorization")
    p_run.add_argument("--log-max", type=int, default=None,
                       help="override the evidence buffer capacity")
    p_run.add_argument("--output", default=None,
                       help="also write the JSON records to this file")
    p_run.add_argument("--quiet", action="store_true",
                       help="no stdout; the exit code carries the outcome")
    p_run.set_defaults(func=_cmd_run)

    p_win = sub.add_parser(
        "window", help="measure unaudited execution vs evidence capacity")
    p_win.add_argument("program", help="path to an assembly program")
    p_win.add_argument("--log-max", default="1024 2048 4096 8192",
                       help="capacities in bytes, space or comma separated")
    p_win.add_argument("--delta", type=int, default=500_000,
                       help="instruction budget per authorization")
    p_win.add_argument("--input", default="",
                       help="input words, written to data memory before the run")
    p_win.add_argument("--json", action="store_true")
    p_win.set_defaults(func=_cmd_window)

    p_ins = sub.add_parser(
        "instrument", help="print a program as it will be deployed")
    p_ins.add_argument("program", help="path to an assembly program")
    p_ins.add_argument("--map", action="store_true",
                       help="print the branch/loop sidecar map instead")
    p_ins.set_defaults(func=_cmd_instrument)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ParseError, LinkError, UnsupportedPattern,
            OSError, ValueError) as exc:
        print(f"cfaudit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
