from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from comal.commitments import parse_commitments
from comal.enactment import EMIT, RECV, check_viable, deliverable, enabled_emissions
from comal.errors import BoundExceeded, UnknownForwardName, WellFormednessError
from comal.protocol import parse_protocol, parse_protocols, uod
from comal.synthesis import (
    SynthesisMode,
    compose_operationalization,
    synthesize_alignment_protocol,
)
from comal.verify import (
    Bound,
    check_alignment_reachability,
    check_embedding,
    check_liveness,
    check_safety,
    check_theorem1,
    enumerate_uoe,
    is_complete,
)

BOUND = Bound()


@pytest.fixture(scope="module")
def toys(fixtures_dir):
    return {
        name: parse_protocol((fixtures_dir / f"{name}.bspl").read_text())
        for name in ("unsafe_toy", "stuck_toy", "empty")
    }


@pytest.fixture(scope="module")
def escrow_composed_literal(fixtures_dir):
    escrow = parse_protocol((fixtures_dir / "escrow_ordering.bspl").read_text())
    commitments = parse_commitments((fixtures_dir / "escrow_transfer.cupid").read_text())
    aligners = [
        synthesize_alignment_protocol(c, escrow, SynthesisMode.LITERAL)
        for c in commitments.values()
    ]
    composed = compose_operationalization(escrow, aligners, name="EscrowOrderingOpLit")
    registry = {p.name: p for p in [composed, escrow, *aligners]}
    return escrow, composed, registry, commitments


@pytest.fixture(scope="module")
def op_registry(fixtures_dir):
    return parse_protocols((fixtures_dir / "ordering_op.bspl").read_text())


def _protocol(name, op_registry, toys):
    """A fixture protocol by name, with the registry it needs."""
    if name in op_registry:
        return op_registry[name], op_registry
    return toys[name], None


def _sha256(witness) -> str:
    return hashlib.sha256(json.dumps(witness, sort_keys=True).encode()).hexdigest()


NO_WITNESS = _sha256(None)

# States explored and witness digests of the cheap fixture checks, recorded
# before the explorers were merged; any change here is a semantic change.
PINNED = {
    "safety-Ordering": (23, NO_WITNESS),
    "liveness-Ordering": (23, NO_WITNESS),
    "safety-OrderingOp": (43, NO_WITNESS),
    "liveness-OrderingOp": (43, NO_WITNESS),
    "safety-unsafe_toy": (5, "2577cb7f8b7129cd475483fa237ba1db46076eb790311e62dc5be761b2fed4c7"),
    "liveness-unsafe_toy": (9, NO_WITNESS),
    "safety-stuck_toy": (3, NO_WITNESS),
    "liveness-stuck_toy": (3, "c6e0c18bb32bbdb2b2df624531af9df83e41ddb4611d5f6e8c3ccee153a2dd9e"),
    "safety-empty": (1, NO_WITNESS),
    "liveness-empty": (1, NO_WITNESS),
    "theorem2-OrderingOp": (163, "769fd50c538baabb3d06a8c240a13b360b037eda1eb5ed72edec9f5c2501ce4b"),
    "theorem2-bare-escrow": (242, "c7223a3d9c0a52e658ea01968c0247f7779df9215295c57aec881ca27afe055d"),
    "embedding-Ordering": (34, NO_WITNESS),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_outputs(case, op_registry, toys, purchase, escrow_ordering, escrow_commitments):
    kind, _, name = case.partition("-")
    if kind in ("safety", "liveness"):
        protocol, registry = _protocol(name, op_registry, toys)
        check = check_safety if kind == "safety" else check_liveness
        report = check(protocol, BOUND, registry)
    elif name == "OrderingOp":
        report = check_alignment_reachability(op_registry[name], [purchase], BOUND, True, op_registry)
    elif name == "bare-escrow":
        report = check_alignment_reachability(
            escrow_ordering, [escrow_commitments["EscrowPurchase"]], BOUND, True
        )
    else:
        report = check_embedding(op_registry["Ordering"], op_registry["OrderingOp"], BOUND, op_registry)
    assert (report.states_explored, _sha256(report.witness)) == PINNED[case]


def test_enumerate_atomic_protocol():
    atom = parse_protocol(
        "Atom { roles A, B parameters out k key, out x A -> B: m[out k key, out x] }"
    )
    graph = enumerate_uoe(atom, BOUND)
    assert len(graph.states) == 3


def test_enumerate_ordering_complete_states(ordering):
    graph = enumerate_uoe(ordering, BOUND)
    initiated = [
        s for s in graph.states if any(events for events in s)
    ]
    complete = [s for s in initiated if is_complete(graph.emitted(s), ordering.out_params)]
    assert complete
    for state in complete:
        emitted = {inst.schema for inst in graph.emitted(state)}
        assert emitted == {"quote", "pay", "requestShip", "ship"}
    # Every enumerated state is a viable vector.
    universe = uod(ordering)
    for sid in range(len(graph.states)):
        assert check_viable(graph.vector(sid), universe) is None


def test_enumerate_respects_fifo(ordering, chan):
    unordered = enumerate_uoe(ordering, BOUND)
    fifo = enumerate_uoe(ordering, Bound(delivery="fifo"))
    assert len(fifo.states) <= len(unordered.states)
    assert len(enumerate_uoe(chan, BOUND).states) == 8
    fifo = enumerate_uoe(chan, Bound(delivery="fifo"))
    assert len(fifo.states) == 6
    for sid in range(len(fifo.states)):
        received = [obs.instance.schema for obs in fifo.vector(sid).history("B").events]
        assert received in ([], ["m1"], ["m1", "m2"])


@pytest.mark.parametrize("name", ("Ordering", "OrderingOp", "Chan"))
@pytest.mark.parametrize("delivery", ("any", "fifo"))
def test_ordered_moves_match_simulator(name, delivery, op_registry, chan):
    """The ordered explorer and the simulator enable the same moves in every
    reachable state."""
    protocol, registry = (chan, None) if name == "Chan" else (op_registry[name], op_registry)
    graph = enumerate_uoe(protocol, Bound(delivery=delivery), registry)
    universe = uod(protocol, registry)
    for sid in range(len(graph.states)):
        v = graph.vector(sid)
        simulator = {
            (EMIT, role, inst)
            for role in graph.roles
            for inst in enabled_emissions(v, universe, role, graph.key_bindings)
        }
        simulator |= {(RECV, receiver, inst) for receiver, inst in deliverable(v, delivery == "fifo")}
        assert {move for move, _ in graph.edges[sid]} == simulator, sid


@pytest.mark.parametrize(
    "fields", ({"key_values": ()}, {"max_ticks": 0}, {"delivery": "unordered"})
)
def test_bound_rejects_empty_or_unknown_limits(fields):
    with pytest.raises(WellFormednessError):
        Bound(**fields)


def test_safety_ordering_holds(ordering):
    assert check_safety(ordering, BOUND).holds


def test_safety_unsafe_toy_two_step_witness(toys):
    report = check_safety(toys["unsafe_toy"], BOUND)
    assert not report.holds
    assert len(report.witness["reach"]) == 2
    assert "bound to" in report.detail


def test_safety_empty_protocol_vacuous(toys):
    report = check_safety(toys["empty"], BOUND)
    assert report.holds
    assert report.states_explored == 1


def test_liveness_ordering_holds(ordering):
    assert check_liveness(ordering, BOUND).holds


def test_liveness_stuck_toy_fails(toys):
    report = check_liveness(toys["stuck_toy"], BOUND)
    assert not report.holds
    assert report.witness is not None


def test_liveness_empty_vacuous(toys):
    assert check_liveness(toys["empty"], BOUND).holds


def test_theorem1_ordering(ordering, purchase):
    aligner = synthesize_alignment_protocol(purchase, ordering, SynthesisMode.COMPLETE)
    composed = compose_operationalization(ordering, [aligner])
    registry = {p.name: p for p in [composed, ordering, aligner]}
    result = check_theorem1(ordering, composed, BOUND, registry)
    assert result.safety_input.holds and result.safety_composed.holds
    assert result.liveness_input.holds and result.liveness_composed.holds
    assert result.holds


def test_theorem1_escrow(escrow_composed_literal):
    escrow, composed, registry, _ = escrow_composed_literal
    result = check_theorem1(escrow, composed, BOUND, registry)
    assert result.holds
    assert result.safety_composed.holds and result.liveness_composed.holds


def test_theorem1_vacuous_on_unsafe_input(toys):
    unsafe = toys["unsafe_toy"]
    result = check_theorem1(unsafe, unsafe, BOUND)
    assert not result.safety_input.holds
    assert result.safety_preserved  # implication is vacuous


def test_composition_enlarges_state_space(escrow_composed_literal):
    escrow, composed, registry, _ = escrow_composed_literal
    small = check_safety(escrow, BOUND)
    large = check_safety(composed, BOUND, registry)
    assert large.states_explored > small.states_explored


def test_embedding_ordering(ordering, purchase):
    aligner = synthesize_alignment_protocol(purchase, ordering, SynthesisMode.COMPLETE)
    composed = compose_operationalization(ordering, [aligner])
    registry = {p.name: p for p in [composed, ordering, aligner]}
    report = check_embedding(ordering, composed, BOUND, registry)
    assert report.holds
    assert "replayed" in report.detail


def test_embedding_escrow(escrow_composed_literal):
    escrow, composed, registry, _ = escrow_composed_literal
    report = check_embedding(escrow, composed, BOUND, registry)
    assert report.holds


def test_alignment_reachability_composed(escrow_composed_literal):
    _, composed, registry, commitments = escrow_composed_literal
    report = check_alignment_reachability(
        composed, list(commitments.values()), BOUND, punctual=True, registry=registry
    )
    assert report.holds
    assert report.witness is not None
    assert report.witness["extension"] is not None


def test_alignment_reachability_without_forwarding_fails(escrow_ordering, escrow_commitments):
    report = check_alignment_reachability(
        escrow_ordering, [escrow_commitments["EscrowPurchase"]], BOUND, punctual=True
    )
    assert not report.holds
    assert report.witness["commitment"] == "EscrowPurchase"
    schemas = [step["schema"] for step in report.witness["reach"]]
    assert "payEscrow" in schemas


def test_violated_misalignment_reachable_without_ship_notification(ordering, purchase):
    """Without forwarding, a delayed delivery can leave the creditor's violated
    inference permanently invisible to the debtor (unrestricted scheduling)."""
    report = check_alignment_reachability(
        ordering, [purchase], Bound(max_states=100_000), punctual=False
    )
    assert not report.holds


def test_violated_alignment_restored_by_notification(ordering, purchase):
    aligner = synthesize_alignment_protocol(purchase, ordering, SynthesisMode.COMPLETE)
    composed = compose_operationalization(ordering, [aligner])
    registry = {p.name: p for p in [composed, ordering, aligner]}
    report = check_alignment_reachability(composed, [purchase], BOUND, punctual=True, registry=registry)
    assert report.holds


def test_bound_exceeded_carries_partial_graph(escrow_composed_literal):
    _, composed, registry, commitments = escrow_composed_literal
    with pytest.raises(BoundExceeded) as info:
        check_alignment_reachability(
            composed,
            list(commitments.values()),
            Bound(max_states=50),
            punctual=True,
            registry=registry,
        )
    assert info.value.partial is not None


def test_reports_are_deterministic(escrow_composed_literal):
    _, composed, registry, commitments = escrow_composed_literal
    first = check_alignment_reachability(
        composed, list(commitments.values()), BOUND, punctual=True, registry=registry
    )
    second = check_alignment_reachability(
        composed, list(commitments.values()), BOUND, punctual=True, registry=registry
    )
    assert first == second


DIFFERENTIAL = ("Ordering", "OrderingOp", "unsafe_toy", "stuck_toy", "empty")


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_knowledge_sets_agree_with_ordered_enumeration(name, op_registry, toys):
    """The knowledge-set abstraction behind safety and liveness gives the same
    verdicts as the exact ordered enumeration checked vector by vector."""
    protocol, registry = _protocol(name, op_registry, toys)
    graph = enumerate_uoe(protocol, BOUND, registry)
    complete = [
        sid for sid, state in enumerate(graph.states)
        if is_complete(graph.emitted(state), protocol.out_params)
    ]
    live = len(graph.backward_closure(complete)) == len(graph.states)
    assert live == check_liveness(protocol, BOUND, registry).holds
    universe = uod(protocol, registry)
    violations = [check_viable(graph.vector(sid), universe) for sid in range(len(graph.states))]
    unsafe = any(v is not None and v.rule == "c" for v in violations)
    assert unsafe == (not check_safety(protocol, BOUND, registry).holds)


def test_benchmark_hook_surface(monkeypatch):
    """Every attribute the benchmark's tracer rebinds is defined on its owner
    itself, not inherited, and every probed graph class defines ``build``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracer import GRAPH_CLASSES, TARGETS

    for owner, attr, _, _ in TARGETS:
        assert attr in owner.__dict__, (owner, attr)
    for cls in GRAPH_CLASSES:
        assert "build" in cls.__dict__, cls


def test_alignment_rejects_unregistered_forward():
    odd = parse_protocol(
        """
        Odd {
          roles A, B
          parameters out k key, out fwdOddID
          A -> B: fwdABThing[out k key, out fwdOddID]
        }
        """
    )
    with pytest.raises(UnknownForwardName):
        check_alignment_reachability(odd, [], BOUND, punctual=True)
