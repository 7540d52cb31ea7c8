from __future__ import annotations

import json
import shutil

from comal.cli import main
from comal.protocol import canonicalize, parse_protocol


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ok(capsys, fixtures_dir):
    code, out, _ = run(capsys, "parse", fixtures_dir / "ordering.bspl", fixtures_dir / "purchase.cupid")
    assert code == 0
    assert "protocol Ordering" in out
    assert "commitment Purchase: M to C" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.bspl"
    bad.write_text("Oops { roles A B }")
    code, _, err = run(capsys, "parse", bad)
    assert code == 1
    assert "error:" in err


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


def test_synthesize_empty_aligner_warns(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "synthesize",
        fixtures_dir / "ordering.bspl",
        fixtures_dir / "purchase.cupid",
        "--mode", "literal",
    )
    assert code == 0
    assert "no forwarding required" in err


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


def test_verify_zero_bound_is_an_error(capsys, fixtures_dir):
    for flags, toy in ((("--safety", "--bound-keys", "0"), "unsafe_toy"),
                       (("--liveness", "--max-ticks", "0"), "stuck_toy")):
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
