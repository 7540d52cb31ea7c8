"""Acceptance suite: golden-example reproduction plus the property suites.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from comal.commitments import parse_commitments
from comal.protocol import OUT, canonicalize, parse_protocol
from comal.simulate import load_scenario, run_scenario
from comal.synthesis import (
    SynthesisMode,
    compose_operationalization,
    synthesize_alignment_protocol,
)
from comal.verify import (
    Bound,
    check_alignment_reachability,
    check_embedding,
    check_theorem1,
)

BOUND = Bound()


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="module")
def workbench(fixtures_dir):
    """Everything the criteria share: protocols, commitments, compositions."""
    ordering = parse_protocol((fixtures_dir / "ordering.bspl").read_text())
    escrow = parse_protocol((fixtures_dir / "escrow_ordering.bspl").read_text())
    purchase = parse_commitments((fixtures_dir / "purchase.cupid").read_text())["Purchase"]
    escrow_commitments = parse_commitments((fixtures_dir / "escrow_transfer.cupid").read_text())

    purchase_aligner = synthesize_alignment_protocol(purchase, ordering, SynthesisMode.COMPLETE)
    ordering_composed = compose_operationalization(ordering, [purchase_aligner])
    ordering_registry = {p.name: p for p in (ordering_composed, ordering, purchase_aligner)}

    escrow_aligners = [
        synthesize_alignment_protocol(c, escrow, SynthesisMode.COMPLETE)
        for c in escrow_commitments.values()
    ]
    escrow_composed = compose_operationalization(escrow, escrow_aligners)
    escrow_registry = {p.name: p for p in (escrow_composed, escrow, *escrow_aligners)}

    return {
        "ordering": ordering,
        "escrow": escrow,
        "purchase": purchase,
        "escrow_commitments": escrow_commitments,
        "ordering_composed": ordering_composed,
        "ordering_registry": ordering_registry,
        "escrow_composed": escrow_composed,
        "escrow_registry": escrow_registry,
    }


def test_criterion_1_golden_literal_synthesis(workbench, fixtures_dir):
    with criterion(1, "golden literal synthesis of the escrow-payment aligner"):
        aligner = synthesize_alignment_protocol(
            workbench["escrow_commitments"]["EscrowPurchase"],
            workbench["escrow"],
            SynthesisMode.LITERAL,
        )
        golden = parse_protocol((fixtures_dir / "escrow_purchase_al.bspl").read_text())
        assert canonicalize(aligner) == canonicalize(golden)
        assert set(aligner.roles) == {"C", "M"}
        by_kind = {(p.name, p.adornment, p.key) for p in aligner.params}
        assert by_kind == {
            ("oID", "in", True),
            ("pID", "in", False),
            ("fwdCMPayEscrowID", "out", False),
        }
        assert [s.name for s in aligner.schemas] == ["fwdCMPayEscrow"]


def test_criterion_2_golden_complete_synthesis(workbench, fixtures_dir):
    with criterion(2, "complete synthesis covers the published transfer aligner"):
        aligner = synthesize_alignment_protocol(
            workbench["escrow_commitments"]["EscrowTransfer"],
            workbench["escrow"],
            SynthesisMode.COMPLETE,
        )
        published = parse_protocol((fixtures_dir / "escrow_transfer_al.bspl").read_text())
        ours = {s.name: s for s in aligner.schemas}
        expected_signatures = {
            "fwdMEQuote": ("M", "E", ("oID", "item", "price"), ("fwdMEQuoteID",)),
            "fwdCMPayEscrow": ("C", "M", ("oID", "pID"), ("fwdCMPayEscrowID",)),
            "fwdSEShip": ("S", "E", ("oID", "sID"), ("fwdSEShipID",)),
            "fwdMEShip": ("M", "E", ("oID", "sID"), ("fwdMEShipID",)),
        }
        for name, (sender, receiver, ins, outs) in expected_signatures.items():
            schema = ours[name]
            assert (schema.sender, schema.receiver) == (sender, receiver)
            assert schema.ins == ins
            assert schema.outs == outs
            assert schema.keys == ("oID",)
            assert schema.params == {s.name: s for s in published.schemas}[name].params


def test_criterion_3_composition_structure(workbench):
    with criterion(3, "composition yields the operationalization structure"):
        composed = workbench["escrow_composed"]
        escrow = workbench["escrow"]
        assert len(composed.references) == 3
        assert set(composed.roles) == {"M", "C", "E", "S"}
        assert composed.keys == ("oID",)
        out_names = [p.name for p in composed.params if p.adornment == OUT]
        assert out_names.count("fwdCMPayEscrowID") == 1
        forwarding_ids = set(out_names) - set(escrow.out_params)
        assert set(escrow.out_params) <= set(out_names)
        assert forwarding_ids and all(name.endswith("ID") for name in forwarding_ids)


def test_criterion_4_direct_order_timeline(fixtures_dir):
    with criterion(4, "direct-order timeline: detach misalignment is transient"):
        scenario = load_scenario(fixtures_dir / "scenario_direct_order.json")
        result = run_scenario(scenario)
        # Dashes 1..4 sit at the ticks recorded in the scenario file.
        for tick in (1, 2, 3):
            assert result.report_at(tick, "Purchase").alignment.aligned
        for tick in (4, 5):
            row = result.report_at(tick, "Purchase")
            assert not row.alignment.aligned
            assert {m.kind for m in row.alignment.misalignments} == {"detached"}
        for tick in (6, 7):
            assert result.report_at(tick, "Purchase").alignment.aligned
        final = result.report_at(8, "Purchase")
        assert final.alignment.aligned
        assert final.lifecycle["C"]["discharged"]


def test_criterion_5_escrow_payment_timeline(fixtures_dir):
    with criterion(5, "escrow-payment timeline: forwarding resolves misalignment"):
        scenario = load_scenario(fixtures_dir / "scenario_escrow_payment.json")
        result = run_scenario(scenario)
        misaligned = result.report_at(4, "EscrowPurchase")
        assert not misaligned.alignment.aligned
        assert {m.kind for m in misaligned.alignment.misalignments} == {"detached"}
        realigned = result.report_at(6, "EscrowPurchase")
        assert realigned.alignment.aligned
        assert realigned.lifecycle["M"]["detached"]


def test_criterion_6_nested_transfer_timeline(fixtures_dir):
    with criterion(6, "nested-transfer timeline: detach propagates to the debtor"):
        scenario = load_scenario(fixtures_dir / "scenario_nested_transfer.json")
        result = run_scenario(scenario)
        at_seven = result.report_at(13, "EscrowTransfer")
        assert at_seven.lifecycle["M"]["detached"]
        assert not at_seven.lifecycle["E"]["detached"]
        at_eight = result.report_at(16, "EscrowTransfer")
        assert at_eight.lifecycle["M"]["detached"]
        assert at_eight.lifecycle["E"]["detached"]


def test_criterion_7_safety_liveness_preservation(workbench):
    with criterion(7, "safety and liveness hold and are preserved by composition"):
        ordering_result = check_theorem1(
            workbench["ordering"],
            workbench["ordering_composed"],
            BOUND,
            workbench["ordering_registry"],
        )
        assert ordering_result.safety_input.holds
        assert ordering_result.liveness_input.holds
        assert ordering_result.safety_composed.holds
        assert ordering_result.liveness_composed.holds

        escrow_result = check_theorem1(
            workbench["escrow"],
            workbench["escrow_composed"],
            BOUND,
            workbench["escrow_registry"],
        )
        assert escrow_result.safety_input.holds
        assert escrow_result.liveness_input.holds
        assert escrow_result.safety_composed.holds
        assert escrow_result.liveness_composed.holds


def test_criterion_8_alignment_reachability(workbench):
    with criterion(8, "alignment is reachable with forwards, lost without them"):
        positive = check_alignment_reachability(
            workbench["escrow_composed"],
            list(workbench["escrow_commitments"].values()),
            BOUND,
            punctual=True,
            registry=workbench["escrow_registry"],
        )
        assert positive.holds
        assert positive.witness is not None and positive.witness["extension"] is not None

        negative = check_alignment_reachability(
            workbench["escrow"],
            [workbench["escrow_commitments"]["EscrowPurchase"]],
            BOUND,
            punctual=True,
        )
        assert not negative.holds
        assert negative.witness["commitment"] == "EscrowPurchase"
        schemas = [step["schema"] for step in negative.witness["reach"] if "lapse" not in step]
        assert "payEscrow" in schemas  # the unnotified escrow payment


def test_criterion_9_embedding(workbench):
    with criterion(9, "complete input enactments embed in the composition"):
        report = check_embedding(
            workbench["ordering"],
            workbench["ordering_composed"],
            BOUND,
            workbench["ordering_registry"],
        )
        assert report.holds
        escrow_report = check_embedding(
            workbench["escrow"],
            workbench["escrow_composed"],
            BOUND,
            workbench["escrow_registry"],
        )
        assert escrow_report.holds


def test_criterion_10_property_suites(ordering, escrow_ordering):
    from test_enactment import test_prefix_closure_on_random_runs
    from test_protocol import test_round_trip_randomized
    from test_semantics import test_evaluate_matches_brute_force_oracle
    from test_synthesis import test_reduce_terminates_and_is_deterministic_on_random_formulas

    with criterion(10, "randomized property suites"):
        test_round_trip_randomized()
        test_reduce_terminates_and_is_deterministic_on_random_formulas()
        test_evaluate_matches_brute_force_oracle()
        test_prefix_closure_on_random_runs(ordering, escrow_ordering)
