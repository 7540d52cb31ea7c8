"""Command-line front end.

Subcommands: parse | print | synthesize | compose | simulate | verify.
Set COMAL_LOG=debug|info|warning for diagnostics verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .commitments import CommitmentSpec, parse_commitments, print_commitment
from .enactment import trace_lines
from .errors import BoundExceeded, ComalError
from .protocol import Protocol, parse_protocols, print_protocol, print_protocols
from .simulate import load_scenario, report_to_json, run_scenario
from .synthesis import SynthesisMode, compose_operationalization, synthesize_alignment_protocol
from .verify import (
    Bound,
    VerificationReport,
    check_alignment_reachability,
    check_embedding,
    check_liveness,
    check_safety,
    check_theorem1,
)

log = logging.getLogger("comal")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_BOUND_EXCEEDED = 3


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("COMAL_LOG", "warning").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ComalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="comal", description=__doc__)
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
    p.add_argument("--delivery", choices=["any", "fifo"])
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
    p.add_argument("--bound-keys", type=int, default=1, help="number of distinct key values")
    p.add_argument("--max-states", type=int, default=400_000)
    p.add_argument("--max-ticks", type=int, default=80)
    p.add_argument("--delivery", choices=["any", "fifo"], default="any",
                   help="in-flight delivery order; only --embedding enumerates ordered histories and reads it")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_verify)

    return parser


def _load_sources(files: list[Path]) -> tuple[dict[str, Protocol], dict[str, CommitmentSpec]]:
    protocols: dict[str, Protocol] = {}
    commitments: dict[str, CommitmentSpec] = {}
    for path in files:
        if path.suffix == ".cupid":
            commitments.update(parse_commitments(path.read_text(), commitments))
        else:
            protocols.update(parse_protocols(path.read_text()))
    return protocols, commitments


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
    wanted = args.commitment or list(commitments)
    mode = SynthesisMode(args.mode)
    aligners = []
    for name in wanted:
        if name not in commitments:
            raise ComalError(f"commitment {name!r} not found")
        aligner = synthesize_alignment_protocol(commitments[name], input_protocol, mode, protocols)
        if not aligner.schemas:
            print(f"warning: {name}: no forwarding required, aligner is empty", file=sys.stderr)
        aligners.append(aligner)
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
    bound = Bound(
        key_values=tuple(str(i + 1) for i in range(args.bound_keys)),
        max_ticks=args.max_ticks,
        delivery=args.delivery,
        max_states=args.max_states,
    )
    requested = args.safety or args.liveness or args.theorem1 or args.theorem2 or args.embedding
    if not requested:
        raise ComalError("nothing to verify: pass --safety/--liveness/--theorem1/--theorem2/--embedding")

    exit_code = EXIT_OK

    def record(report: VerificationReport) -> None:
        nonlocal exit_code
        _report_line(report, args.json)
        if not report.holds:
            exit_code = max(exit_code, EXIT_COUNTEREXAMPLE)

    try:
        if args.safety:
            record(check_safety(protocol, bound, protocols))
        if args.liveness:
            record(check_liveness(protocol, bound, protocols))
        if args.theorem1:
            if not args.input:
                raise ComalError("--theorem1 needs --input NAME")
            result = check_theorem1(_pick_protocol(protocols, args.input), protocol, bound, protocols)
            for report in (result.safety_input, result.safety_composed,
                           result.liveness_input, result.liveness_composed):
                _report_line(report, args.json)
            preserved = result.holds
            print(f"THEOREM1: {'holds' if preserved else 'FAILS'} "
                  f"(safety preserved: {result.safety_preserved}, liveness preserved: {result.liveness_preserved})")
            if not preserved:
                exit_code = max(exit_code, EXIT_COUNTEREXAMPLE)
        if args.embedding:
            if not args.input:
                raise ComalError("--embedding needs --input NAME")
            record(check_embedding(_pick_protocol(protocols, args.input), protocol, bound, protocols))
        if args.theorem2:
            if not commitments:
                raise ComalError("--theorem2 needs .cupid commitment files")
            record(check_alignment_reachability(
                protocol, list(commitments.values()), bound, punctual=True, registry=protocols
            ))
            # The unrestricted scheduler is reported informationally: deadlines
            # may outrun deliveries, so this can legitimately fail or blow the
            # bound without contradicting the punctual result.
            try:
                informational = check_alignment_reachability(
                    protocol, list(commitments.values()),
                    dataclasses.replace(bound, max_states=min(bound.max_states, 50_000)),
                    punctual=False, registry=protocols,
                )
                _report_line(informational, args.json)
            except BoundExceeded:
                print("ALIGNMENT_REACHABILITY: inconclusive without the punctual-delivery "
                      "restriction (bound exceeded); informational only")
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND_EXCEEDED
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
