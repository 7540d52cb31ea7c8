from __future__ import annotations

import random

import pytest

from comal.commitments import (
    And,
    BaseEvent,
    Except,
    Or,
    TimeRef,
    Window,
)
from comal.errors import WellFormednessError
from comal.protocol import (
    IN,
    OUT,
    MessageSchema,
    ParameterDecl,
    canonicalize,
    parse_protocol,
    uod,
)
from comal.synthesis import (
    AlignmentInstruction,
    ForwardingName,
    SynthesisMode,
    atomic_instructions,
    compose_operationalization,
    decompose_commitment,
    forward_schema,
    forwarding_registry,
    forwards_for,
    reduce,
    synthesize_alignment_protocol,
)

LITERAL = SynthesisMode.LITERAL
COMPLETE = SynthesisMode.COMPLETE


def test_forwarding_name_scheme():
    naming = ForwardingName("S", "E", "ship")
    assert naming.name == "fwdSEShip"
    assert naming.id_param == "fwdSEShipID"
    triples = [("C", "M", "payEscrow"), ("M", "E", "quote"), ("M", "E", "ship"), ("S", "M", "ship")]
    names = {ForwardingName(*t).name for t in triples}
    assert len(names) == len(triples)
    assert ForwardingName("C", "M", "payEscrow").name == "fwdCMPayEscrow"


def test_decompose_yields_five(purchase):
    instrs = decompose_commitment(purchase)
    assert len(instrs) == 5
    directions = {(i.knower, i.formula.kind, i.learner) for i in instrs}
    assert directions == {
        ("C", "created", "M"),
        ("C", "detached", "M"),
        ("C", "violated", "M"),
        ("M", "discharged", "C"),
        ("M", "expired", "C"),
    }


def test_alignment_instruction_needs_two_roles():
    with pytest.raises(WellFormednessError, match="^alignment instruction: knower equals learner$"):
        AlignmentInstruction("M", BaseEvent("quote"), "M")


def test_reduce_window():
    instr = AlignmentInstruction(
        "C", Window(BaseEvent("payEscrow"), upper=TimeRef(10, BaseEvent("quote"))), "M"
    )
    atoms = {(i.knower, i.formula.name, i.learner) for i in reduce(instr)}
    assert atoms == {("C", "payEscrow", "M"), ("C", "quote", "M")}


def test_reduce_exception_flips_direction():
    # A discharge like "shipped in time, unless reported damaged in time":
    # the exception must flow back from the learner.
    formula = Except(
        Window(BaseEvent("ship"), upper=TimeRef(5, BaseEvent("requestShip"))),
        Window(BaseEvent("reportDamage"), upper=TimeRef(5, BaseEvent("ship"))),
    )
    atoms = {(i.knower, i.formula.name, i.learner) for i in reduce(AlignmentInstruction("S", formula, "M"))}
    assert atoms == {
        ("S", "ship", "M"),
        ("S", "requestShip", "M"),
        ("M", "reportDamage", "S"),
        ("M", "ship", "S"),
    }


def test_reduce_atomic_fixpoint():
    instr = AlignmentInstruction("C", BaseEvent("m"), "M")
    assert reduce(instr) == (instr,)


def test_reduce_absolute_bounds_contribute_nothing():
    instr = AlignmentInstruction("A", Window(BaseEvent("m"), TimeRef(2), TimeRef(9)), "B")
    atoms = reduce(instr)
    assert {(i.knower, i.formula.name, i.learner) for i in atoms} == {("A", "m", "B")}


def test_reduce_nested_lifecycle(escrow_transfer):
    detached = [
        i for i in decompose_commitment(escrow_transfer) if i.formula.kind == "detached"
    ]
    atoms = {(i.knower, i.formula.name, i.learner) for i in reduce(detached[0])}
    # detached = create and detach; the nested discharge pulls in quote and ship.
    assert atoms == {("M", "payEscrow", "E"), ("M", "quote", "E"), ("M", "ship", "E")}


def test_atomic_instructions_escrow_transfer(escrow_transfer):
    atoms = {(i.knower, i.formula.name, i.learner) for i in atomic_instructions(escrow_transfer)}
    assert atoms == {
        ("M", "payEscrow", "E"),
        ("M", "quote", "E"),
        ("M", "ship", "E"),
        ("E", "payTransfer", "M"),
        ("E", "quote", "M"),
        ("E", "ship", "M"),
        ("E", "payEscrow", "M"),
    }


def test_forwards_literal_sender_to_learner(escrow_ordering):
    universe = uod(escrow_ordering)
    schemas = forwards_for(AlignmentInstruction("C", BaseEvent("payEscrow"), "M"), universe, LITERAL)
    assert [s.name for s in schemas] == ["fwdCMPayEscrow"]
    fwd = schemas[0]
    assert (fwd.sender, fwd.receiver) == ("C", "M")
    assert fwd.ins == ("oID", "pID")
    assert fwd.keys == ("oID",)
    assert fwd.outs == ("fwdCMPayEscrowID",)


def test_forwards_literal_skips_participants(escrow_ordering):
    universe = uod(escrow_ordering)
    # The learner already sends quote, so nothing is needed.
    assert forwards_for(AlignmentInstruction("C", BaseEvent("quote"), "M"), universe, LITERAL) == ()


def test_forwards_complete_adds_knower_and_relay(escrow_ordering):
    universe = uod(escrow_ordering)
    schemas = forwards_for(AlignmentInstruction("M", BaseEvent("ship"), "E"), universe, COMPLETE)
    by_name = {s.name: (s.sender, s.receiver) for s in schemas}
    assert by_name == {
        "fwdSEShip": ("S", "E"),
        "fwdSMShip": ("S", "M"),
        "fwdMEShip": ("M", "E"),
    }


def test_forwards_unknown_message(escrow_ordering):
    universe = uod(escrow_ordering)
    with pytest.raises(WellFormednessError, match="no message schema named 'nonesuch'"):
        forwards_for(AlignmentInstruction("A", BaseEvent("nonesuch"), "B"), universe, LITERAL)


def test_literal_is_subset_of_complete(escrow_ordering, escrow_purchase, escrow_transfer, ordering, purchase):
    for commitment, protocol in [
        (escrow_purchase, escrow_ordering),
        (escrow_transfer, escrow_ordering),
        (purchase, ordering),
    ]:
        lit = synthesize_alignment_protocol(commitment, protocol, LITERAL)
        comp = synthesize_alignment_protocol(commitment, protocol, COMPLETE)
        lit_names = {s.name for s in lit.schemas}
        comp_names = {s.name for s in comp.schemas}
        assert lit_names <= comp_names


def test_synthesize_escrow_purchase_literal_golden(escrow_ordering, escrow_purchase, fixtures_dir):
    aligner = synthesize_alignment_protocol(escrow_purchase, escrow_ordering, LITERAL)
    golden = parse_protocol((fixtures_dir / "escrow_purchase_al.bspl").read_text())
    assert canonicalize(aligner) == canonicalize(golden)


def test_synthesize_purchase_literal_is_empty(ordering, purchase):
    aligner = synthesize_alignment_protocol(purchase, ordering, LITERAL)
    assert aligner.schemas == ()
    assert aligner.roles == ()


def test_synthesize_purchase_complete_notifies_debtor_of_ship(ordering, purchase):
    aligner = synthesize_alignment_protocol(purchase, ordering, COMPLETE)
    assert {s.name for s in aligner.schemas} == {"fwdSMShip"}


def test_synthesize_escrow_transfer_complete_contains_published(escrow_ordering, escrow_transfer, fixtures_dir):
    aligner = synthesize_alignment_protocol(escrow_transfer, escrow_ordering, COMPLETE)
    published = parse_protocol((fixtures_dir / "escrow_transfer_al.bspl").read_text())
    ours = {s.name: s for s in aligner.schemas}
    for want in published.schemas:
        assert want.name in ours
        got = ours[want.name]
        assert (got.sender, got.receiver) == (want.sender, want.receiver)
        assert got.params == want.params


def test_synthesize_escrow_transfer_literal(escrow_ordering, escrow_transfer):
    aligner = synthesize_alignment_protocol(escrow_transfer, escrow_ordering, LITERAL)
    assert {s.name for s in aligner.schemas} == {
        "fwdMEQuote",
        "fwdCMPayEscrow",
        "fwdSEShip",
        "fwdSMShip",
    }
    assert aligner.roles == ("C", "E", "M", "S")


def test_synthesis_is_deterministic(escrow_ordering, escrow_transfer):
    first = synthesize_alignment_protocol(escrow_transfer, escrow_ordering, COMPLETE)
    second = synthesize_alignment_protocol(escrow_transfer, escrow_ordering, COMPLETE)
    assert first == second


def test_forward_outputs_are_fresh(escrow_ordering, escrow_purchase, escrow_transfer):
    input_params = set(escrow_ordering.param_names)
    for commitment in (escrow_purchase, escrow_transfer):
        aligner = synthesize_alignment_protocol(commitment, escrow_ordering, COMPLETE)
        for name in (p.name for p in aligner.params if p.adornment == OUT):
            assert name not in input_params


def test_forward_shape():
    base = MessageSchema(
        "deal",
        "A",
        "B",
        (ParameterDecl("k", OUT, key=True), ParameterDecl("x", IN), ParameterDecl("y", OUT)),
    )
    fwd = forward_schema(base, "A", "C")
    assert fwd.ins == ("k", "x", "y")
    assert fwd.keys == ("k",)
    assert fwd.outs == ("fwdACDeal" + "ID",)


def test_compose_structure(escrow_ordering, escrow_purchase, escrow_transfer):
    aligners = [
        synthesize_alignment_protocol(escrow_purchase, escrow_ordering, COMPLETE),
        synthesize_alignment_protocol(escrow_transfer, escrow_ordering, COMPLETE),
    ]
    composed = compose_operationalization(escrow_ordering, aligners)
    assert len(composed.references) == 3
    assert set(composed.roles) == {"M", "C", "E", "S"}
    assert composed.keys == ("oID",)
    out_names = [p.name for p in composed.params if p.adornment == OUT]
    assert out_names.count("fwdCMPayEscrowID") == 1
    assert set(escrow_ordering.out_params) <= set(out_names)


def test_compose_single_aligner(escrow_ordering, escrow_purchase):
    aligner = synthesize_alignment_protocol(escrow_purchase, escrow_ordering, LITERAL)
    composed = compose_operationalization(escrow_ordering, [aligner])
    assert len(composed.references) == 2
    assert set(composed.out_params) == set(escrow_ordering.out_params) | {"fwdCMPayEscrowID"}


def test_compose_drops_empty_aligners(ordering, purchase):
    aligner = synthesize_alignment_protocol(purchase, ordering, LITERAL)
    composed = compose_operationalization(ordering, [aligner])
    assert len(composed.references) == 1
    assert [p.name for p in composed.params] == list(ordering.param_names)


def test_compose_name_clash(escrow_ordering):
    bad = parse_protocol(
        """
        BadAl {
          roles C, M
          parameters in oID key, out pID
          C -> M: fwdCMX[in oID key, out pID]
        }
        """
    )
    with pytest.raises(WellFormednessError, match="aligner 'BadAl' output 'pID' collides with an input parameter"):
        compose_operationalization(escrow_ordering, [bad])


def test_forwarding_registry_recovers_names(operationalization_registry):
    top = operationalization_registry["OperationalizationProtocol"]
    universe = uod(top, operationalization_registry)
    registry = forwarding_registry(universe)
    assert registry["fwdCMPayEscrow"].base_message == "payEscrow"
    assert registry["fwdMEShip"].base_message == "ship"
    assert registry["fwdMEShip"].forwarder == "M"
    assert "quote" not in registry


# ---------------------------------------------------------------------------
# Termination and determinism on random formulas

EVENTS = ["m", "n", "p", "q"]


def random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return BaseEvent(rng.choice(EVENTS))
    pick = rng.randrange(4)
    if pick == 0:
        upper = TimeRef(rng.randint(0, 12), BaseEvent(rng.choice(EVENTS)) if rng.random() < 0.7 else None)
        return Window(random_formula(rng, depth - 1), upper=upper)
    node = [And, Or, Except][pick - 1]
    return node(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def test_reduce_terminates_and_is_deterministic_on_random_formulas():
    rng = random.Random(8102026)
    for _ in range(300):
        formula = random_formula(rng, rng.randint(1, 6))
        instr = AlignmentInstruction("A", formula, "B")
        first = reduce(instr)
        second = reduce(instr)
        assert first == second
        assert all(isinstance(i.formula, BaseEvent) for i in first)
        assert all(i.knower != i.learner for i in first)
