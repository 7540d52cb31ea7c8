"""Command-line front end.

Subcommands: parse | print | synthesize | compose | simulate | verify.
Set COMAL_LOG=debug|info|warning|error for diagnostics verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .commitments import CommitmentSpec, print_commitment
from .enactment import DELIVERIES, trace_lines
from .errors import BoundExceeded, ComalError
from .protocol import Protocol, print_protocol, print_protocols, uod
from .simulate import load_scenario, load_sources, report_to_json, run_scenario
from .synthesis import SynthesisMode, compose_operationalization, synthesize_alignment_protocol
from .verify import (
    Bound,
    VerificationReport,
    check_alignment_reachability,
    check_embedding,
    check_liveness,
    check_safety,
    check_safety_and_liveness,
    check_theorem1,
)

log = logging.getLogger("comal")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_BOUND_EXCEEDED = 3

LOG_LEVELS = ("debug", "info", "warning", "error")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit ``EXIT_ERROR``: argparse's own 2 is the counterexample
    code. Subparsers are built with the parser's class, so they do too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("COMAL_LOG", "warning").lower()
    if level not in LOG_LEVELS:
        print(f"error: COMAL_LOG must be one of {', '.join(LOG_LEVELS)}", file=sys.stderr)
        return EXIT_ERROR
    logging.basicConfig(level=level.upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ComalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="comal", description=__doc__)
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("parse", help="parse and validate protocol or commitment files")
    p.add_argument("files", nargs="+", type=Path)
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("print", help="reprint files canonically")
    p.add_argument("files", nargs="+", type=Path)
    p.add_argument("--protocol", help="print only this protocol")
    p.set_defaults(handler=cmd_print)

    p = sub.add_parser("synthesize", help="synthesize alignment protocols for commitments")
    p.add_argument("files", nargs="+", type=Path, help=".bspl input protocol and .cupid commitment files")
    p.add_argument("--mode", choices=["literal", "complete"], default="complete")
    p.add_argument("--protocol", help="input protocol name (default: first protocol parsed)")
    p.add_argument("--commitment", action="append", help="synthesize only these commitments")
    p.add_argument("-o", "--out", type=Path, help="output file (default: stdout)")
    p.set_defaults(handler=cmd_synthesize)

    p = sub.add_parser("compose", help="compose an input protocol with alignment protocols")
    p.add_argument("files", nargs="+", type=Path, help=".bspl files: input protocol first, then aligners")
    p.add_argument("--protocol", help="input protocol name (default: first protocol parsed)")
    p.add_argument("--name", help="name of the composed protocol")
    p.add_argument("-o", "--out", type=Path, help="output file (default: stdout)")
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("simulate", help="run a scenario and report lifecycles and alignment per tick")
    p.add_argument("scenario", type=Path)
    p.add_argument("--seed", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--delivery", choices=DELIVERIES)
    p.add_argument("--trace", type=Path, help="write the JSON-lines trace here")
    p.add_argument("--report", type=Path, help="write the per-tick report here")
    p.add_argument("--json", action="store_true", help="print report as JSON lines")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("verify", help="bounded verification of safety, liveness, and alignment")
    p.add_argument("files", nargs="+", type=Path, help=".bspl and .cupid files")
    p.add_argument("--safety", action="store_true")
    p.add_argument("--liveness", action="store_true")
    p.add_argument("--theorem1", action="store_true", help="safety/liveness preservation (needs --input)")
    p.add_argument("--theorem2", action="store_true", help="alignment reachability for the .cupid commitments")
    p.add_argument("--embedding", action="store_true", help="input enactments embed in the composition (needs --input)")
    p.add_argument("--protocol", help="protocol under verification (default: first protocol parsed)")
    p.add_argument("--input", help="input protocol name for --theorem1/--embedding")
    p.add_argument("--bound-keys", type=int, default=1,
                   help="number of distinct key values; a verdict covers every run at these values. Safety, "
                        "liveness, --theorem1 and --embedding answer k values from the graph at one when every two "
                        "message schemas share a key parameter, whatever its verdict, and enumerate all k otherwise")
    p.add_argument("--max-states", type=int, default=Bound.max_states)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_verify)

    return parser


def _load_sources(files: list[Path]) -> tuple[dict[str, Protocol], dict[str, CommitmentSpec]]:
    """Every ``.cupid`` file is a commitment file; any other is a protocol file."""
    return load_sources([f for f in files if f.suffix != ".cupid"], [f for f in files if f.suffix == ".cupid"])


def _pick_protocol(protocols: dict[str, Protocol], name: str | None) -> Protocol:
    if name is not None:
        if name not in protocols:
            raise ComalError(f"protocol {name!r} not found (have: {', '.join(protocols)})")
        return protocols[name]
    if not protocols:
        raise ComalError("no protocol given")
    return next(iter(protocols.values()))


def cmd_parse(args) -> int:
    protocols, commitments = _load_sources(args.files)
    for p in protocols.values():
        uod(p, protocols)
    for p in protocols.values():
        schemas = len(p.schemas)
        refs = len(p.subprotocols)
        print(f"protocol {p.name}: roles {', '.join(p.roles)}; {len(p.params)} parameters; "
              f"{schemas} schemas; {refs} references")
    for c in commitments.values():
        print(f"commitment {c.name}: {c.debtor} to {c.creditor}")
    return EXIT_OK


def cmd_print(args) -> int:
    protocols, commitments = _load_sources(args.files)
    if args.protocol:
        print(print_protocol(_pick_protocol(protocols, args.protocol)), end="")
        return EXIT_OK
    chunks = [print_protocol(p) for p in protocols.values()]
    chunks += [print_commitment(c) for c in commitments.values()]
    print("\n".join(chunks), end="")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    protocols, commitments = _load_sources(args.files)
    input_protocol = _pick_protocol(protocols, args.protocol)
    wanted = dict.fromkeys(args.commitment or commitments)
    mode = SynthesisMode(args.mode)
    aligners = []
    for name in wanted:
        if name not in commitments:
            raise ComalError(f"commitment {name!r} not found")
        aligner = synthesize_alignment_protocol(commitments[name], input_protocol, mode, protocols)
        if aligner.schemas:
            aligners.append(aligner)
        else:
            print(f"warning: {name}: no forwarding required, aligner is empty", file=sys.stderr)
        log.info("synthesized %s with %d schemas", aligner.name, len(aligner.schemas))
    text = print_protocols(aligners)
    if args.out:
        args.out.write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_compose(args) -> int:
    protocols, _ = _load_sources(args.files)
    input_protocol = _pick_protocol(protocols, args.protocol)
    aligners = [p for p in protocols.values() if p.name != input_protocol.name]
    composed = compose_operationalization(input_protocol, aligners, name=args.name)
    text = print_protocols([composed, input_protocol, *sorted(aligners, key=lambda a: a.name)])
    if args.out:
        args.out.write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.delivery is not None:
        overrides["delivery"] = args.delivery
    scenario = load_scenario(args.scenario, overrides)
    result = run_scenario(scenario)
    trace = "\n".join(trace_lines(result.vector))
    if args.trace:
        args.trace.write_text(trace + "\n" if trace else "")
    rows = [report_to_json(row) for row in result.reports]
    if args.report:
        args.report.write_text("\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n")
    if args.json:
        for r in rows:
            print(json.dumps(r, sort_keys=True))
    else:
        if trace:
            print(trace)
        for r in rows:
            states = {
                role: ",".join(k for k, v in kinds.items() if v) or "-"
                for role, kinds in r["lifecycle"].items()
            }
            verdict = "aligned" if r["aligned"] else "MISALIGNED " + ";".join(
                f"{m['kind']}@{m['missing']}" for m in r["misalignments"]
            )
            print(f"t={r['tick']:<3} {r['commitment']:<16} "
                  + " ".join(f"{role}[{info}]" for role, info in sorted(states.items()))
                  + f" {verdict}")
    return EXIT_OK


def _report_line(report: VerificationReport, json_mode: bool) -> None:
    if json_mode:
        print(json.dumps({
            "property": report.property,
            "holds": report.holds,
            "states": report.states_explored,
            "detail": report.detail,
            "witness": report.witness,
        }, sort_keys=True))
    else:
        status = "holds" if report.holds else "FAILS"
        print(f"{report.property}: {status} ({report.states_explored} states) {report.detail}")
        if report.witness and not report.holds:
            print(f"  witness: {json.dumps(report.witness, sort_keys=True)}")


def cmd_verify(args) -> int:
    protocols, commitments = _load_sources(args.files)
    protocol = _pick_protocol(protocols, args.protocol)
    bound = Bound(key_values=tuple(str(i + 1) for i in range(args.bound_keys)), max_states=args.max_states)
    requested = args.safety or args.liveness or args.theorem1 or args.theorem2 or args.embedding
    if not requested:
        raise ComalError("nothing to verify: pass --safety/--liveness/--theorem1/--theorem2/--embedding")
    # Nothing given is ignored: --input and .cupid files are read by these checks alone.
    if args.input and not (args.theorem1 or args.embedding):
        raise ComalError("--input is read only by --theorem1 and --embedding")
    if not args.theorem2 and any(f.suffix == ".cupid" for f in args.files):
        raise ComalError(".cupid commitment files are read only by --theorem2")
    input_protocol = None
    if args.theorem1 or args.embedding:
        if not args.input:
            raise ComalError(f"--{'theorem1' if args.theorem1 else 'embedding'} needs --input NAME")
        input_protocol = _pick_protocol(protocols, args.input)
    if args.theorem2 and not commitments:
        raise ComalError("--theorem2 needs .cupid commitment files")

    exit_code = EXIT_OK

    def record(report: VerificationReport) -> None:
        nonlocal exit_code
        _report_line(report, args.json)
        if not report.holds:
            exit_code = max(exit_code, EXIT_COUNTEREXAMPLE)

    try:
        if args.safety and args.liveness:
            for report in check_safety_and_liveness(protocol, bound, protocols):
                record(report)
        elif args.safety:
            record(check_safety(protocol, bound, protocols))
        elif args.liveness:
            record(check_liveness(protocol, bound, protocols))
        if args.theorem1:
            result = check_theorem1(input_protocol, protocol, bound, protocols)
            for report in (result.safety_input, result.safety_composed,
                           result.liveness_input, result.liveness_composed):
                _report_line(report, args.json)
            preserved = result.holds
            summary = {"property": "THEOREM1", "holds": preserved, "safety_preserved": result.safety_preserved,
                       "liveness_preserved": result.liveness_preserved}
            print(json.dumps(summary, sort_keys=True) if args.json else
                  f"THEOREM1: {'holds' if preserved else 'FAILS'} (safety preserved: {result.safety_preserved}, "
                  f"liveness preserved: {result.liveness_preserved})")
            if not preserved:
                exit_code = max(exit_code, EXIT_COUNTEREXAMPLE)
        if args.embedding:
            record(check_embedding(input_protocol, protocol, bound, protocols))
        if args.theorem2:
            record(check_alignment_reachability(
                protocol, list(commitments.values()), bound, punctual=True, registry=protocols
            ))
            # Without punctual delivery deadlines may outrun deliveries, so
            # this can fail without contradicting the punctual result: its
            # verdict is printed but leaves the exit code alone.
            _report_line(check_alignment_reachability(
                protocol, list(commitments.values()), bound, punctual=False, registry=protocols
            ), args.json)
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        graph = exc.partial
        if graph is not None:
            print(f"partial {type(graph).__name__}: {len(graph.states)} states, "
                  f"{graph.edge_count()} edges, depth {graph.depth()}", file=sys.stderr)
        return EXIT_BOUND_EXCEEDED
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
