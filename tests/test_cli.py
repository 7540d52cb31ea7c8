from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest.mock import ANY

import pytest

from comal.cli import main
from comal.commitments import bind_commitment, parse_commitment
from comal.lexer import MAX_DEPTH
from comal.protocol import canonicalize, parse_protocol, parse_protocols, print_protocol, uod
from comal.simulate import load_scenario, report_to_json, run_scenario
from test_protocol import MISKEYED, reference_chain


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def direct_order(fixtures_dir) -> dict:
    """The direct-order scenario, its file names made absolute so that an
    edited copy can be written anywhere."""
    data = json.loads((fixtures_dir / "scenario_direct_order.json").read_text())
    data["protocols"] = [str(fixtures_dir / name) for name in data["protocols"]]
    data["commitments"] = [str(fixtures_dir / name) for name in data["commitments"]]
    return data


def test_parse_ok(capsys, fixtures_dir):
    code, out, _ = run(capsys, "parse", fixtures_dir / "ordering.bspl", fixtures_dir / "purchase.cupid")
    assert code == 0
    assert "protocol Ordering" in out
    assert "commitment Purchase: M to C" in out


def test_non_utf8_input_is_an_error(capsys, fixtures_dir, tmp_path):
    bad = tmp_path / "bad.bspl"
    bad.write_bytes(b"Oops \xff { roles A B }")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**direct_order(fixtures_dir), "protocols": [str(bad)]}))
    for argv in (("parse", bad), ("simulate", scenario)):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "0xff" in err
        assert "bad.bspl" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.bspl"
    bad.write_text("Oops { roles A B }")
    code, _, err = run(capsys, "parse", bad)
    assert code == 1
    assert "error:" in err


def test_syntax_error_names_its_file(capsys, fixtures_dir, tmp_path):
    """With several inputs, a syntax error's line and column come after the
    path of the file they point into."""
    bad = tmp_path / "bad.bspl"
    bad.write_text("Oops {\n  roles A B\n}\n")
    cut = tmp_path / "cut.cupid"
    cut.write_text("commitment Late M to C\n")
    for argv, expected in (
        ((fixtures_dir / "ordering.bspl", bad), f"error: {bad}:2:11: expected 'parameters', found 'B'\n"),
        ((fixtures_dir / "ordering.bspl", cut), f"error: {cut}:2:1: expected 'create', found 'eof'\n"),
    ):
        assert run(capsys, "parse", *argv) == (1, "", expected)


def test_non_decimal_digit_is_a_syntax_error(capsys, tmp_path):
    """``²`` is a digit ``int`` refuses, so it starts no number: ``parse``
    exits 1 with one error line at its line and column, not a traceback."""
    bad = tmp_path / "superscript.cupid"
    bad.write_text("commitment P M to C create quote detach pay[, quote + ²] discharge ship\n", encoding="utf-8")
    assert run(capsys, "parse", bad) == (1, "", f"error: {bad}:1:55: unexpected character '²'\n")


def _error_case_files(fixtures_dir) -> dict[str, str]:
    """Inputs that each reach one error message no other test triggers."""
    m = "R1 {\n roles A, B\n parameters out k key, out x\n A -> B: m[out k, out x]\n}\n"
    top = "Top {\n roles A, B\n parameters out k key, out x, out y\n %s\n}\n"
    ordering = (fixtures_dir / "ordering.bspl").read_text()
    return {
        "miskeyed.bspl": MISKEYED,
        # Two references whose universes define m differently.
        "conflict.bspl": top % "R1(A, B, out k key, out x)\n R2(A, B, out k key, out y)" + m
        + m.replace("R1", "R2").replace("x", "y"),
        "few_roles.bspl": top % "R1(A, out k key, out x)" + m,
        "many_params.bspl": top % "R1(A, B, out k key, out x, out y)" + m,
        # m is keyed by k and n by j, so n's window cannot end at m + 5.
        "two_keys.bspl": "Two {\n roles A, B\n parameters out k key, out j key, out x, out y\n"
        " A -> B: m[out k, out x]\n B -> A: n[out j, out y]\n}\n",
        "late.cupid": "commitment Late A to B\n  create m\n  detach n[, m + 5]\n  discharge m\n",
        "consumer_al.bspl": "OrderingAl {\n roles C, M\n parameters in oID key, in zzz, out fwdCMZID\n"
        " C -> M: fwdCMZ[in oID, in zzz, out fwdCMZID]\n}\n",
        # Ordering declaring the identifier of Purchase's one forward, fwdSMShip.
        "ordering_fwd.bspl": ordering.replace("out sID\n", "out sID, out fwdSMShipID\n", 1),
    }


ERROR_CASES = {
    "miskeyed": (["parse", "miskeyed.bspl"], "protocol 'P': schema 'm' keys ['k', 'x'] must equal its "
                 "parameters intersected with the protocol keys ['k']"),
    "conflicting-schemas": (["parse", "conflict.bspl"], "conflicting definitions for schema 'm' in the universe of 'Top'"),
    "too-few-roles": (["parse", "few_roles.bspl"], "reference 'R1': 1 role arguments for 2 declared roles"),
    "too-many-params": (["parse", "many_params.bspl"], "reference 'R1': 3 parameter arguments for 2 declared parameters"),
    "window-keys-verify": (["verify", "--theorem2", "two_keys.bspl", "late.cupid"],
                           "window bound event shares no key parameter with the windowed event"),
    "window-keys-synthesize": (["synthesize", "two_keys.bspl", "late.cupid"],
                               "window bound event shares no key parameter with the windowed event"),
    "policy-kind": (["simulate", "bogus.json"], "unknown policy kind 'bogus'"),
    "no-protocol": (["verify", "--theorem2", "{fixtures}/purchase.cupid"], "no protocol given"),
    "aligner-consumes": (["compose", "{fixtures}/ordering.bspl", "consumer_al.bspl"],
                         "aligner 'OrderingAl' consumes 'zzz', which the input does not provide"),
    "forward-id-declared": (["synthesize", "ordering_fwd.bspl", "{fixtures}/purchase.cupid"],
                            "forwarding identifier 'fwdSMShipID' collides with an input parameter"),
}


@pytest.mark.parametrize("case", ERROR_CASES)
def test_error_exits_1_with_one_line(capsys, fixtures_dir, tmp_path, case):
    """Each of these malformed inputs ends in exit 1 and one error line."""
    for name, text in _error_case_files(fixtures_dir).items():
        (tmp_path / name).write_text(text)
    (tmp_path / "bogus.json").write_text(json.dumps({**direct_order(fixtures_dir), "policy": {"kind": "bogus"}}))
    (command, *args), message = ERROR_CASES[case]
    args = [arg if arg.startswith("-") else tmp_path / arg.format(fixtures=fixtures_dir) for arg in args]
    assert run(capsys, command, *args) == (1, "", f"error: {message}\n")


def test_parse_validates_references(capsys, tmp_path):
    """``parse`` expands references as ``verify`` does: a cycle or a missing
    protocol exits 1 with one error line."""
    cycle = tmp_path / "cycle.bspl"
    cycle.write_text(
        "P {\n roles A, B\n parameters out k key\n Q(A, B, out k key)\n}\n"
        "Q {\n roles A, B\n parameters out k key\n P(A, B, out k key)\n}\n"
    )
    missing = tmp_path / "missing.bspl"
    missing.write_text("P {\n roles A, B\n parameters out k key\n Nowhere(A, B, out k key)\n}\n")
    for path in (cycle, missing):
        code, out, err = run(capsys, "parse", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err == run(capsys, "verify", "--safety", path)[2]


def _deep_inputs(tmp_path, depth: int) -> list[list]:
    """Commands reading inputs nested ``depth`` levels: parentheses in a
    condition, through ``parse``; an ``and`` chain of that many terms, through
    ``synthesize`` and ``verify --theorem2``; protocol references, through
    ``parse``."""
    commitment = "commitment P M to C create {} detach pay discharge ship\n"
    parentheses, chain = tmp_path / "parentheses.cupid", tmp_path / "chain.cupid"
    parentheses.write_text(commitment.format("(" * depth + "quote" + ")" * depth))
    chain.write_text(commitment.format(" and ".join(["quote"] * depth)))
    references = tmp_path / "references.bspl"
    references.write_text(reference_chain(depth))
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    return [["parse", parentheses], ["synthesize", fixtures / "ordering.bspl", chain],
            ["verify", "--theorem2", fixtures / "ordering_op.bspl", chain, "--protocol", "OrderingOp"],
            ["parse", references]]


def test_nesting_at_the_depth_bound_runs(capsys, tmp_path):
    for argv in _deep_inputs(tmp_path, MAX_DEPTH):
        assert run(capsys, *argv)[0] == 0, argv


def test_nesting_past_the_depth_bound_is_one_error_line(capsys, tmp_path):
    """One level past the bound, each command exits 1 with one error line
    (deeper inputs ended in a ``RecursionError`` traceback)."""
    for argv in _deep_inputs(tmp_path, MAX_DEPTH + 1):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1 and f"nested deeper than {MAX_DEPTH}" in err


def test_print_round_trips(capsys, fixtures_dir):
    code, out, _ = run(capsys, "print", fixtures_dir / "escrow_ordering.bspl")
    assert code == 0
    original = parse_protocol((fixtures_dir / "escrow_ordering.bspl").read_text())
    assert parse_protocol(out) == original


def test_synthesize_literal_matches_published_aligner(capsys, fixtures_dir, tmp_path):
    out_file = tmp_path / "aligner.bspl"
    code, _, err = run(
        capsys,
        "synthesize",
        fixtures_dir / "escrow_ordering.bspl",
        fixtures_dir / "escrow_purchase.cupid",
        "--mode", "literal",
        "-o", out_file,
    )
    assert code == 0
    synthesized = parse_protocol(out_file.read_text())
    golden = parse_protocol((fixtures_dir / "escrow_purchase_al.bspl").read_text())
    assert canonicalize(synthesized) == canonicalize(golden)


def test_synthesize_empty_aligner_warns(capsys, fixtures_dir, tmp_path):
    """An aligner-free commitment writes no protocol, so the output reads back
    and composes with the input protocol."""
    aligners = tmp_path / "al.bspl"
    code, out, err = run(
        capsys,
        "synthesize",
        fixtures_dir / "ordering.bspl",
        fixtures_dir / "purchase.cupid",
        "--mode", "literal",
        "-o", aligners,
    )
    assert code == 0
    assert "no forwarding required" in err
    assert aligners.read_text() == ""
    assert run(capsys, "parse", aligners)[0] == 0
    code, out, err = run(capsys, "compose", fixtures_dir / "ordering.bspl", aligners)
    assert code == 0 and err == ""
    assert "Ordering(M, C, S," in out


def test_synthesize_complete_contains_published_schemas(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "synthesize",
        fixtures_dir / "escrow_ordering.bspl",
        fixtures_dir / "escrow_transfer.cupid",
        "--mode", "complete",
        "--commitment", "EscrowTransfer",
    )
    assert code == 0
    aligner = parse_protocol(out)
    names = {s.name for s in aligner.schemas}
    assert {"fwdMEQuote", "fwdCMPayEscrow", "fwdSEShip", "fwdMEShip"} <= names


def test_compose_fixture_is_reproducible(capsys, fixtures_dir, tmp_path):
    """The checked-in composed fixture equals a fresh synthesize+compose run."""
    aligners = tmp_path / "aligners.bspl"
    code, _, _ = run(
        capsys,
        "synthesize",
        fixtures_dir / "escrow_ordering.bspl",
        fixtures_dir / "escrow_transfer.cupid",
        "--mode", "complete",
        "-o", aligners,
    )
    assert code == 0
    composed_file = tmp_path / "composed.bspl"
    code, _, _ = run(
        capsys,
        "compose",
        fixtures_dir / "escrow_ordering.bspl",
        aligners,
        "--name", "EscrowOrderingOp",
        "-o", composed_file,
    )
    assert code == 0
    assert composed_file.read_text() == (fixtures_dir / "escrow_ordering_op.bspl").read_text()


def test_simulate_writes_trace_and_report(capsys, fixtures_dir, tmp_path):
    scenario = tmp_path / "scenario.json"
    shutil.copy(fixtures_dir / "scenario_direct_order.json", scenario)
    shutil.copy(fixtures_dir / "ordering.bspl", tmp_path / "ordering.bspl")
    shutil.copy(fixtures_dir / "purchase.cupid", tmp_path / "purchase.cupid")
    trace = tmp_path / "trace.jsonl"
    report = tmp_path / "report.jsonl"
    code, out, _ = run(capsys, "simulate", scenario, "--trace", trace, "--report", report)
    assert code == 0
    trace_rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(trace_rows) == 8
    report_rows = [json.loads(line) for line in report.read_text().splitlines()]
    aligned_at = {row["tick"]: row["aligned"] for row in report_rows}
    assert aligned_at[4] is False and aligned_at[8] is True


def test_simulate_is_deterministic(capsys, fixtures_dir):
    args = ["simulate", fixtures_dir / "scenario_nested_transfer.json", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_safety_counterexample_exit_code(capsys, fixtures_dir):
    code, out, _ = run(capsys, "verify", "--safety", fixtures_dir / "unsafe_toy.bspl")
    assert code == 2
    assert "SAFETY: FAILS" in out


def test_verify_liveness_vacuous_exit_zero(capsys, fixtures_dir):
    code, out, _ = run(capsys, "verify", "--liveness", fixtures_dir / "empty.bspl")
    assert code == 0
    assert "LIVENESS: holds" in out


def test_verify_theorem1_via_cli(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem1",
        fixtures_dir / "ordering_op.bspl",
        "--protocol", "OrderingOp",
        "--input", "Ordering",
    )
    assert code == 0
    assert "THEOREM1: holds" in out


def test_verify_theorem2_via_cli(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem2",
        fixtures_dir / "ordering_op.bspl",
        fixtures_dir / "purchase.cupid",
        "--protocol", "OrderingOp",
        "--json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert rows[0]["property"] == "ALIGNMENT_REACHABILITY"
    assert rows[0]["holds"] is True


@pytest.mark.parametrize(
    "argv, last",
    [
        (
            ("--theorem1", "ordering_op.bspl", "--input", "Ordering"),
            {"property": "THEOREM1", "holds": True, "safety_preserved": True, "liveness_preserved": True},
        ),
        (
            ("--theorem2", "ordering_op.bspl", "purchase.cupid", "--max-states", "1000"),
            {
                "property": "ALIGNMENT_REACHABILITY",
                "holds": False,
                "states": 31,
                "detail": "unrestricted: no aligning extension for 'Purchase'",
                "witness": {"commitment": "Purchase", "reach": ANY},
            },
        ),
    ],
    ids=["theorem1", "theorem2-unrestricted-fails"],
)
def test_verify_json_lines_are_all_json(capsys, fixtures_dir, argv, last):
    """In --json mode the summary lines are JSON too. The unrestricted Theorem
    2 run decides within 1 000 states: its depth-first search finds a
    misaligned terminal state among 31, and its failure leaves exit code 0."""
    argv = [fixtures_dir / a if a.endswith((".bspl", ".cupid")) else a for a in argv]
    code, out, _ = run(capsys, "verify", *argv, "--protocol", "OrderingOp", "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    # Theorem 1 reports four checks before its summary; Theorem 2 the
    # punctual check before the unrestricted one.
    assert len(rows) == (5 if argv[0] == "--theorem1" else 2)
    assert rows[-1] == last


def test_verify_embedding_via_cli(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "verify",
        "--embedding",
        fixtures_dir / "escrow_ordering_op.bspl",
        "--protocol", "EscrowOrderingOp",
        "--input", "EscrowOrdering",
    )
    assert code == 0
    assert "EMBEDDING: holds" in out


@pytest.mark.parametrize(
    "argv",
    [("--safety", "ordering.bspl", "--bound-keys", "two"), ("--delivery", "fifo", "--safety", "ordering.bspl"),
     ("--max-ticks", "5", "--liveness", "ordering.bspl")],
    ids=["bound-keys-not-int", "delivery-removed", "max-ticks-removed"],
)
def test_usage_errors_exit_1(capsys, fixtures_dir, argv):
    """A usage error is an error, not the counterexample code 2 argparse exits
    with; ``comal verify`` has no ``--delivery`` and no ``--max-ticks``."""
    argv = [fixtures_dir / a if a.endswith(".bspl") else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main(["verify", *map(str, argv)])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: comal") and "error:" in captured.err


def test_unknown_log_level_is_an_error(capsys, fixtures_dir, monkeypatch):
    monkeypatch.setenv("COMAL_LOG", "verbose")
    code, out, err = run(capsys, "parse", fixtures_dir / "ordering.bspl")
    assert (code, out, err) == (1, "", "error: COMAL_LOG must be one of debug, info, warning, error\n")


def test_verify_requires_a_property(capsys, fixtures_dir):
    code, _, err = run(capsys, "verify", fixtures_dir / "ordering.bspl")
    assert code == 1
    assert "nothing to verify" in err


def test_verify_unknown_input_protocol_is_an_error(capsys, fixtures_dir):
    for prop in ("--theorem1", "--embedding"):
        code, _, err = run(
            capsys,
            "verify",
            prop,
            fixtures_dir / "ordering_op.bspl",
            "--protocol", "OrderingOp",
            "--input", "Nope",
        )
        assert code == 1
        assert "'Nope' not found" in err


@pytest.mark.parametrize("extra, message", [
    (("--theorem1",), "error: --theorem1 needs --input NAME\n"),
    (("--embedding",), "error: --embedding needs --input NAME\n"),
    (("--theorem2",), "error: --theorem2 needs .cupid commitment files\n"),
    (("--embedding", "--input", "Nope"),
     "error: protocol 'Nope' not found (have: OrderingOp, Ordering, PurchaseAl)\n"),
    (("--theorem1", "--theorem2", "--input", "Ordering"), "error: --theorem2 needs .cupid commitment files\n"),
    (("--input", "Nope"), "error: --input is read only by --theorem1 and --embedding\n"),
    (("--input", "Ordering", "--liveness"), "error: --input is read only by --theorem1 and --embedding\n"),
    (("purchase.cupid",), "error: .cupid commitment files are read only by --theorem2\n"),
    (("purchase.cupid", "--theorem1", "--input", "Ordering"),
     "error: .cupid commitment files are read only by --theorem2\n"),
], ids=["theorem1", "embedding", "theorem2", "unknown-input", "theorem1-theorem2", "unused-input",
        "unused-known-input", "unused-cupid", "theorem1-cupid"])
def test_verify_request_is_checked_before_any_check_runs(capsys, fixtures_dir, extra, message):
    """A request that cannot run in full, or names an input no requested check
    reads, prints no verdict of its other checks."""
    files = [fixtures_dir / a for a in ("ordering_op.bspl", *extra) if a.endswith((".bspl", ".cupid"))]
    flags = [a for a in extra if not a.endswith(".cupid")]
    code, out, err = run(capsys, "verify", "--safety", *files, "--protocol", "OrderingOp", *flags)
    assert (code, out, err) == (1, "", message)


def test_verify_safety_and_liveness_build_one_graph(capsys, caplog, fixtures_dir):
    """Both checks read one reduced knowledge graph, and print what each
    prints alone."""
    argv = (fixtures_dir / "ordering_op.bspl", "--protocol", "OrderingOp")
    alone = [run(capsys, "verify", flag, *argv) for flag in ("--safety", "--liveness")]
    caplog.clear()
    caplog.set_level(logging.INFO, logger="comal.verify")
    code, out, _ = run(capsys, "verify", "--safety", "--liveness", *argv)
    builds = [r.getMessage() for r in caplog.records if r.getMessage().startswith("KnowledgeGraph:")]
    assert len(builds) == 1 and builds[0].startswith("KnowledgeGraph: 12 states")  # 43 in full
    assert builds[0].endswith(", reduced to safe deliveries and independent emissions")
    assert (code, out) == (0, alone[0][1] + alone[1][1])


def test_verify_theorem1_reads_reduced_graphs_and_embedding_the_full_one(capsys, caplog, fixtures_dir):
    """Theorem 1 reads the reduced graphs of both protocols, safe and live;
    embedding needs every prefix of a complete run, so it builds the input's
    full graph. Each prints what it prints alone."""
    argv = (fixtures_dir / "ordering_op.bspl", "--protocol", "OrderingOp", "--input", "Ordering")
    theorem1, embedding = (run(capsys, "verify", flag, *argv) for flag in ("--theorem1", "--embedding"))
    caplog.clear()
    caplog.set_level(logging.INFO, logger="comal.verify")
    code, out, _ = run(capsys, "verify", "--theorem1", "--embedding", *argv)
    builds = [r.getMessage() for r in caplog.records if r.getMessage().startswith("KnowledgeGraph:")]
    # Reduced Ordering (23 states in full), reduced OrderingOp (43), full Ordering.
    assert [b.split(",")[0] for b in builds] == [
        "KnowledgeGraph: 9 states", "KnowledgeGraph: 12 states", "KnowledgeGraph: 23 states"
    ]
    reduced = ", reduced to safe deliveries and independent emissions"
    assert [b.endswith(reduced) for b in builds] == [True, True, False]
    assert (code, out) == (0, theorem1[1] + embedding[1])


def test_verify_unsafe_relay_is_independent_of_the_hash_seed(fixtures_dir):
    """m1 and m2 both bound x before m3 binds it again; the violation names the
    first in message order, whatever order a set of them iterates in."""
    argv = [sys.executable, "-m", "comal.cli", "verify", "--safety", str(fixtures_dir / "unsafe_relay.bspl")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = [
        subprocess.run(
            argv, capture_output=True, timeout=60, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        )
        for seed in ("0", "1")
    ]
    assert [o.returncode for o in outs] == [2, 2]
    assert outs[0].stdout == outs[1].stdout
    assert b"bound to 'm1.x' by 'm1' and to 'm3.x' by 'm3'" in outs[0].stdout


def test_verify_zero_bound_is_an_error(capsys, fixtures_dir):
    for flags, toy in ((("--safety", "--bound-keys", "0"), "unsafe_toy"),
                       (("--liveness", "--max-states", "-1"), "stuck_toy"),
                       (("--safety", "--max-states", "0"), "unsafe_toy")):
        code, out, err = run(capsys, "verify", *flags, fixtures_dir / f"{toy}.bspl")
        assert code == 1
        assert out == ""
        assert "error:" in err


def test_missing_files_are_errors(capsys, fixtures_dir, tmp_path):
    code, _, err = run(capsys, "verify", "--safety", tmp_path / "nope.bspl")
    assert code == 1
    assert "nope.bspl" in err
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"protocols": ["nope.bspl"], "protocol": "Nope"}))
    code, _, err = run(capsys, "simulate", scenario)
    assert code == 1
    assert "nope.bspl" in err


def test_simulate_scenario_not_json_is_an_error(capsys, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"protocols": ["a.bspl"],\n  "protocol": }')
    code, _, err = run(capsys, "simulate", scenario)
    assert code == 1
    assert "error: 2:" in err and "not JSON" in err


def test_simulate_scenario_without_protocols_is_an_error(capsys, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"policy": {"kind": "random"}, "horizon": 3}))
    code, _, err = run(capsys, "simulate", scenario)
    assert code == 1
    assert "protocols" in err


@pytest.mark.parametrize(
    "change",
    [{"seed": "abc"}, {"horizon": "x"}, {"horizon": None}, {"policy": "random"}, {"delivery": "bogus"}, "list",
     {"policy": {"kind": "scripted", "moves": 5}}, {"policy": {"kind": "scripted", "moves": [5]}},
     {"protocols": 5}, {"commitments": 3}, {"protocol": ["x"]},
     {"horizon": -3, "policy": {"kind": "random"}}, {"key": ["a"]}, {"key": None},
     {"horizon": 8.7}, {"seed": True}],
    ids=["seed", "horizon", "horizon-null", "policy-string", "delivery", "top-level-list",
         "moves-not-list", "move-not-object", "protocols-not-list", "commitments-not-list",
         "protocol-not-string", "horizon-negative", "key-list", "key-null",
         "horizon-fraction", "seed-bool"],
)
def test_simulate_malformed_scenario_is_an_error(capsys, fixtures_dir, tmp_path, change):
    data = direct_order(fixtures_dir)
    data = [data] if change == "list" else {**data, **change}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    code, out, err = run(capsys, "simulate", scenario)
    assert code == 1
    assert out == ""
    assert "error:" in err and "Traceback" not in err


BAD_ROLE = """
commitment Bad M to Z
  create quote
  detach pay[, quote + 10]
  discharge ship[, pay + 5]
"""


BAD_EVENT = """
commitment Bad M to C
  create quote
  detach refund[, quote + 10]
  discharge ship[, quote + 5]
"""


def test_commitment_role_outside_the_protocol_is_an_error(capsys, fixtures_dir, tmp_path):
    """A commitment naming a role or a message outside the protocol is
    rejected before anything is evaluated."""
    for text, message in ((BAD_ROLE, "commitment 'Bad': role 'Z' not in the universe"),
                          (BAD_EVENT, "event 'refund' is not a message of the universe")):
        bad = tmp_path / "bad.cupid"
        bad.write_text(text)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**direct_order(fixtures_dir), "commitments": [str(bad)]}))
        for argv in (("verify", "--theorem2", fixtures_dir / "ordering.bspl", bad), ("simulate", scenario)):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err == f"error: {message}\n"


@pytest.mark.parametrize("change", ["tick", "role", "schema", "dir", {"tick": "x"}, {"tick": None}, {"tick": 0},
                                    {"role": "Z"}, {"schema": "refund"}, {"dir": "send"}, {"key": ["a"]},
                                    {"tick": 8.5}, {"tick": 1.9}, {"tick": True}],
                         ids=["tick", "role", "schema", "dir", "tick-string", "tick-null", "tick-zero",
                              "role-unknown", "schema-unknown", "dir-unknown", "key-list",
                              "tick-fraction", "tick-fraction-low", "tick-bool"])
def test_simulate_malformed_scripted_move_is_an_error(capsys, fixtures_dir, tmp_path, change):
    """Every move is checked before the run: a bad last move is reported as
    itself, not as a failure at its tick."""
    data = direct_order(fixtures_dir)
    move = data["policy"]["moves"][-1]
    if isinstance(change, str):
        del move[change]
    else:
        move.update(change)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    code, out, err = run(capsys, "simulate", scenario)
    assert code == 1
    assert out == ""
    assert err.startswith("error: scripted move {") and "Traceback" not in err


def test_verify_bound_exceeded_reports_partial_graph(capsys, fixtures_dir):
    """A cut build reports its partial graph, here the reduced one: the full
    graph contains it, so it would be cut too (composed escrow's reduced graph
    has 81 states, its full one 9 595). At two key values of OrderingOp the
    one-value graph, 12 states reduced, answers for both values, so its cut
    stands and is reported."""
    cases = [
        (("--theorem1", fixtures_dir / "escrow_ordering_op.bspl", "--protocol", "EscrowOrderingOp",
          "--input", "EscrowOrdering", "--max-states", "60", "--json"),
         ["bound exceeded: more than 60 states", "partial KnowledgeGraph: 60 states, 64 edges, depth 21"]),
        (("--safety", fixtures_dir / "ordering_op.bspl", "--protocol", "OrderingOp", "--bound-keys", "2",
          "--max-states", "10"),
         ["bound exceeded: more than 10 states", "partial KnowledgeGraph: 10 states, 9 edges, depth 9"]),
    ]
    for argv, lines in cases:
        code, out, err = run(capsys, "verify", *argv)
        assert code == 3
        assert out == ""
        assert err.splitlines() == lines


def test_verify_unrestricted_theorem2_is_bounded_like_every_check(capsys, tmp_path):
    """The unrestricted Theorem 2 run has the user's ``--max-states``, and
    exceeding it takes the partial-graph path, exit code 3, after the punctual
    verdict. Here both hold, punctually on 7 states and unrestricted on 9, so
    the depth-first search expands every state and is cut at 8."""
    protocol = tmp_path / "note.bspl"
    protocol.write_text("Note {\n roles S, R\n parameters out k key, out v\n S -> R: note[out k key, out v]\n}\n")
    commitment = tmp_path / "tell.cupid"
    commitment.write_text("commitment Tell S to R\n  create note[, 2]\n  detach note\n  discharge note\n")
    code, out, err = run(capsys, "verify", "--theorem2", protocol, commitment)
    assert code == 0
    assert out.splitlines() == [
        "ALIGNMENT_REACHABILITY: holds (7 states) punctual: aligning extensions exist",
        "ALIGNMENT_REACHABILITY: holds (9 states) unrestricted: aligning extensions exist",
    ]
    code, out, err = run(capsys, "verify", "--theorem2", protocol, commitment, "--max-states", "8")
    assert code == 3
    assert out == "ALIGNMENT_REACHABILITY: holds (7 states) punctual: aligning extensions exist\n"
    assert err.splitlines() == ["bound exceeded: more than 8 states", "partial AlignmentGraph: 8 states, 7 edges, depth 3"]


@pytest.mark.parametrize(
    "change, message",
    [({"tick": 1}, "scripted moves must occupy distinct ticks"),
     ({"horizon": 5}, "move at tick 6 is beyond the horizon"),
     ({"role": "M", "dir": "recv", "schema": "pay"}, "no deliverable 'pay' for 'M' at tick 2")],
    ids=["same-tick", "beyond-horizon", "nothing-deliverable"],
)
def test_simulate_scripted_move_that_cannot_run_is_an_error(capsys, fixtures_dir, tmp_path, change, message):
    """A well-formed script that cannot be played out ends in one error line:
    two moves at one tick, a move past the horizon, a receipt of a message
    nobody sent. ``horizon`` changes the scenario, anything else its second move."""
    data = direct_order(fixtures_dir)
    if "horizon" in change:
        data.update(change)
    else:
        data["policy"]["moves"][1].update(change)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    code, out, err = run(capsys, "simulate", scenario)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_overrides_match_run_scenario(capsys, fixtures_dir, tmp_path):
    """``--seed``, ``--horizon`` and ``--delivery`` print what ``run_scenario``
    reports for the scenario loaded with the same overrides."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**direct_order(fixtures_dir), "policy": {"kind": "random"}}))
    overrides = {"seed": 3, "horizon": 12, "delivery": "fifo"}
    code, out, _ = run(capsys, "simulate", scenario, "--json", *(f"--{k}={v}" for k, v in overrides.items()))
    assert code == 0
    result = run_scenario(load_scenario(scenario, overrides))
    assert out.splitlines() == [json.dumps(report_to_json(row), sort_keys=True) for row in result.reports]
    assert json.loads(out.splitlines()[-1])["tick"] == 12
    assert out != run(capsys, "simulate", scenario, "--json", "--horizon=12")[1]


def test_print_one_protocol(capsys, fixtures_dir):
    code, out, _ = run(capsys, "print", fixtures_dir / "ordering_op.bspl", "--protocol", "PurchaseAl")
    assert code == 0
    assert out == print_protocol(parse_protocols((fixtures_dir / "ordering_op.bspl").read_text())["PurchaseAl"])


def test_synthesize_unknown_commitment_is_an_error(capsys, fixtures_dir):
    code, out, err = run(capsys, "synthesize", fixtures_dir / "ordering.bspl", fixtures_dir / "purchase.cupid",
                         "--commitment", "Nope")
    assert (code, out, err) == (1, "", "error: commitment 'Nope' not found\n")


def test_synthesize_repeated_commitment_writes_one_aligner(capsys, fixtures_dir, tmp_path):
    """A commitment named twice is synthesized once, so the file parses."""
    aligners = tmp_path / "al.bspl"
    code, out, err = run(capsys, "synthesize", fixtures_dir / "escrow_ordering.bspl",
                         fixtures_dir / "escrow_transfer.cupid", "--commitment", "EscrowPurchase",
                         "--commitment", "EscrowPurchase", "-o", aligners)
    assert (code, out, err) == (0, "", "")
    code, out, err = run(capsys, "parse", aligners)
    assert (code, err) == (0, "")
    assert [line.split(":")[0] for line in out.splitlines()] == ["protocol EscrowPurchaseAl"]


def test_verify_theorem1_failing_via_cli(capsys, fixtures_dir):
    code, out, _ = run(capsys, "verify", "--theorem1", fixtures_dir / "ordering.bspl", fixtures_dir / "unsafe_toy.bspl",
                       "--protocol", "UnsafeToy", "--input", "Ordering")
    assert code == 2
    assert out.splitlines()[-1] == "THEOREM1: FAILS (safety preserved: False, liveness preserved: True)"


def test_conflicting_definitions_are_an_error(capsys, fixtures_dir, tmp_path):
    """A protocol or commitment defined differently in two files is an error
    naming both files, in either order and from a scenario too; a definition
    repeated identically is accepted."""
    op, al = fixtures_dir / "escrow_ordering_op.bspl", fixtures_dir / "escrow_purchase_al.bspl"
    for first, second in ((op, al), (al, op)):
        message = f"error: protocol 'EscrowPurchaseAl' is defined differently in {first} and {second}\n"
        code, out, err = run(capsys, "verify", "--safety", first, second, "--protocol", "EscrowOrderingOp")
        assert (code, out, err) == (1, "", message)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**direct_order(fixtures_dir), "protocols": [str(first), str(second)]}))
        assert run(capsys, "simulate", scenario) == (1, "", message)
    purchase, other = fixtures_dir / "purchase.cupid", tmp_path / "purchase.cupid"
    other.write_text(purchase.read_text().replace("pay + 5", "pay + 6"))
    message = f"error: commitment 'Purchase' is defined differently in {purchase} and {other}\n"
    assert run(capsys, "parse", purchase, other) == (1, "", message)
    code, out, _ = run(capsys, "parse", *(fixtures_dir / name for name in (
        "ordering.bspl", "ordering_op.bspl", "escrow_purchase.cupid", "escrow_transfer.cupid")))
    assert code == 0
    assert out.count("protocol Ordering:") == out.count("commitment EscrowPurchase:") == 1


CONNECTIVES = "commitment X M to C create quote and pay detach pay or ship discharge ship except pay[, quote + 5]\n"


def test_connectives_bind_and_simulate(capsys, fixtures_dir, tmp_path, ordering):
    """``and``, ``or`` and ``except`` bind against Ordering and run through
    the simulator: the merchant learns of the customer's payment at tick 6."""
    bind_commitment(parse_commitment(CONNECTIVES), uod(ordering))
    cupid = tmp_path / "connectives.cupid"
    cupid.write_text(CONNECTIVES)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**direct_order(fixtures_dir), "commitments": [str(cupid)]}))
    code, out, _ = run(capsys, "simulate", scenario)
    assert code == 0
    rows = {line.split()[0]: line for line in out.splitlines() if line.startswith("t=")}
    assert rows["t=5"].endswith(" MISALIGNED created@M;detached@M")
    assert rows["t=6"].endswith(" aligned")
