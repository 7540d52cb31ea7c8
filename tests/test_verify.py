from __future__ import annotations

import hashlib
import json
import logging
import random
from contextlib import suppress
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import comal.verify
from comal.commitments import And, BaseEvent, CommitmentSpec, Except, Or, TimeRef, Window, bind_commitment, parse_commitments
from comal.enactment import (
    EMIT,
    RECV,
    Model,
    RoleKnowledge,
    check_viable,
    deliverable,
    emission_candidates,
    emission_violation,
    enabled_emissions,
    kb_agree,
    model_entry,
    model_of,
    observation_from_json,
    observation_to_json,
    vector_from_records,
)
from comal.errors import BoundExceeded, ComalError, WellFormednessError
from comal.protocol import IN, OUT, parse_protocol, parse_protocols, uod
from comal.semantics import (
    EvaluationContext,
    base_event_names,
    check_alignment_models,
    lifecycle_table,
    next_change,
    window_anchors,
)
from comal.synthesis import (
    SynthesisMode,
    compose_operationalization,
    forwarding_registry,
    synthesize_alignment_protocol,
)
from comal.verify import (
    AlignmentGraph,
    Bound,
    EnactmentGraph,
    KnowledgeGraph,
    StateSpace,
    check_alignment_reachability,
    check_embedding,
    check_liveness,
    check_safety,
    check_safety_and_liveness,
    check_theorem1,
    enumerate_uoe,
)
from test_interning import (
    _assert_knowledge_reduced,
    _assert_quotient,
    _assert_reduced,
    _assert_replays,
    _assert_unsafe_run,
    _classes,
    _composition,
    _instance_order,
    _reduced_edges,
    _reference_timed,
    _replay,
    _replayed,
    _timed_successors,
    _untimed_successors,
)
from test_protocol import random_protocol

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
# before the explorers were merged; any change here is a semantic change. The
# punctual Theorem 2 entries (163, 242 and 16 244 states in full), and safety
# and liveness (full count beside those the reduction shrinks), are the
# reduced graphs; the toys' counterexamples are as recorded, and bare escrow's
# witness ends in a misaligned terminal state. Composed escrow's punctual
# entry also expands one independent forward at a time, so its holding
# witness is that graph's most misaligned state. Timed states are explored up
# to the views their commitments read, so the punctual entries count classes
# of states (104, 213 and 539 with states keyed on every observation and its
# phase); each class is numbered by its first member, so the witnesses are
# those of the graph that tells them apart. The ``unrestricted`` entries are
# Theorem 2's depth-first probes, which stop at the first misaligned terminal
# state they find. The ``@2`` entries run at two key values, which Theorem 2
# enumerates. The reduced counts, and the punctual witnesses of bare escrow,
# of composed escrow and of OrderingOp at two values, were re-recorded when a
# delivery became safe once its receiver has sent, at its key value, every
# schema that could bind one of its parameters (OrderingOp 73 -> 65, bare
# escrow 113 -> 103, composed escrow 702 -> 288, at two values 13 553 -> 9 893
# and 45 301 -> 32 396): such a delivery lands alone, so fewer states hold a
# message in flight. Composed escrow's and two-value OrderingOp's most
# misaligned states now have one misalignment, not two: the old ones held
# several messages to M in flight at once.
PINNED = {
    "safety-Ordering": (9, NO_WITNESS),  # 23 in full
    "liveness-Ordering": (9, NO_WITNESS),  # 23 in full
    "safety-OrderingOp": (11, NO_WITNESS),  # 43 in full
    "liveness-OrderingOp": (11, NO_WITNESS),  # 43 in full
    "safety-unsafe_toy": (5, "2577cb7f8b7129cd475483fa237ba1db46076eb790311e62dc5be761b2fed4c7"),
    "liveness-unsafe_toy": (8, NO_WITNESS),  # 9 in full
    "safety-stuck_toy": (3, NO_WITNESS),
    "liveness-stuck_toy": (3, "c6e0c18bb32bbdb2b2df624531af9df83e41ddb4611d5f6e8c3ccee153a2dd9e"),
    "safety-empty": (1, NO_WITNESS),
    "liveness-empty": (1, NO_WITNESS),
    "theorem2-OrderingOp": (65, "769fd50c538baabb3d06a8c240a13b360b037eda1eb5ed72edec9f5c2501ce4b"),
    "theorem2-bare-escrow": (103, "9c8b7ca00e0554398314b53a9ec8352b31f877d44ae1c601674327803db0fdb8"),
    "theorem2-EscrowOrderingOp": (288, "4dc6ff4530228a0dc9de0faf031c6cc3a82247967b63ade443b5a7837ce4aee1"),
    "unrestricted-OrderingOp": (31, "52461936276554f889480168805252e7a2cbf92c7e052c142e908e99e2b34e05"),
    "unrestricted-EscrowOrderingOp": (88, "04dccae7109506a2247e56d21338ea70be0f3a451f040c92b1a684caea71adae"),
    "theorem2-OrderingOp@2": (9893, "769fd50c538baabb3d06a8c240a13b360b037eda1eb5ed72edec9f5c2501ce4b"),
    "theorem2-bare-escrow@2": (32396, "a5a83378995aa3a1d3d512de5396d8d3661671a4576df817d93b68cd239df4f5"),
    "embedding-Ordering": (23, NO_WITNESS),
}


def _pinned_report(case, op_registry, toys, purchase, escrow_ordering, escrow_commitments, escrow_op_registry):
    """The report of a ``PINNED`` case, at the key values its ``@k`` suffix
    counts (one without), and the universe its witness runs in."""
    kind, _, name = case.partition("-")
    name, _, k = name.partition("@")
    bound = Bound(key_values=_values(int(k or 1)))
    if kind in ("safety", "liveness"):
        protocol, registry = _protocol(name, op_registry, toys)
        check = check_safety if kind == "safety" else check_liveness
        return check(protocol, bound, registry), uod(protocol, registry)
    punctual = kind == "theorem2"
    if name == "OrderingOp":
        report = check_alignment_reachability(op_registry[name], [purchase], bound, punctual, op_registry)
        return report, uod(op_registry[name], op_registry)
    if name == "EscrowOrderingOp":
        specs = list(escrow_commitments.values())
        report = check_alignment_reachability(escrow_op_registry[name], specs, bound, punctual, escrow_op_registry)
        return report, uod(escrow_op_registry[name], escrow_op_registry)
    if name == "bare-escrow":
        report = check_alignment_reachability(
            escrow_ordering, [escrow_commitments["EscrowPurchase"]], bound, punctual
        )
        return report, uod(escrow_ordering)
    report = check_embedding(op_registry["Ordering"], op_registry["OrderingOp"], bound, op_registry)
    return report, uod(op_registry["OrderingOp"], op_registry)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_outputs(case, op_registry, toys, purchase, escrow_ordering, escrow_commitments, escrow_op_registry):
    report, _ = _pinned_report(case, op_registry, toys, purchase, escrow_ordering, escrow_commitments,
                               escrow_op_registry)
    assert (report.states_explored, _sha256(report.witness)) == PINNED[case]


@pytest.mark.parametrize("case", sorted(case for case, (_, digest) in PINNED.items() if digest != NO_WITNESS))
def test_witnesses_are_trace_records(
    case, op_registry, toys, purchase, escrow_ordering, escrow_commitments, escrow_op_registry
):
    """Every witness path is a run in the trace format: each record other than
    a lapse reads back as an observation that writes the same record."""
    report, universe = _pinned_report(case, op_registry, toys, purchase, escrow_ordering, escrow_commitments,
                                      escrow_op_registry)
    records = [r for path in report.witness.values() if isinstance(path, list) for r in path if "lapse" not in r]
    assert records
    for record in records:
        assert record == observation_to_json(observation_from_json(record, universe))


@pytest.mark.parametrize("direction", ["emit", "recv"])
def test_trace_record_must_name_its_observing_role(direction, op_registry):
    """A record is read as the observation of its sender (``emit``) or its
    receiver (``recv``), so any other ``"role"`` is refused."""
    universe = uod(op_registry["Ordering"], op_registry)
    record = {"tick": 1, "dir": direction, "schema": "quote",
              "bindings": {"oID": "1", "item": "quote.item", "price": "quote.price"}}
    observing = "M" if direction == "emit" else "C"
    assert observation_from_json({**record, "role": observing}, universe).role == observing
    for role in ("Nobody", "C" if observing == "M" else "M"):
        with pytest.raises(WellFormednessError, match=f"names role '{role}', but '{observing}' observes it"):
            observation_from_json({**record, "role": role}, universe)


def test_enumerate_atomic_protocol():
    atom = parse_protocol(
        "Atom { roles A, B parameters out k key, out x A -> B: m[out k key, out x] }"
    )
    graph = enumerate_uoe(atom, BOUND)
    assert len(graph.states) == 3


def test_enumerate_ordering_complete_states(ordering):
    graph = enumerate_uoe(ordering, BOUND)
    initiated = [
        s for s in graph.states if any(events for events in graph.decode(s))
    ]
    complete = [s for s in initiated if _is_complete_reference(graph.emitted(s), ordering.out_params)]
    assert complete
    for state in complete:
        emitted = {inst.schema for inst in graph.emitted(state)}
        assert emitted == {"quote", "pay", "requestShip", "ship"}
    # Every enumerated state is a viable vector.
    universe = uod(ordering)
    for sid in range(len(graph.states)):
        assert check_viable(graph.vector(sid), universe) is None


def test_enumerate_respects_fifo(chan):
    """The verifier delivers in any order; the simulator's FIFO runs are paths
    of its ordered graph. Walking the graph along the moves the simulator's
    FIFO rule enables reaches 6 of Chan's 8 states, each receiving in order."""
    graph = enumerate_uoe(chan, BOUND)
    assert len(graph.states) == 8
    universe = uod(chan)
    reached, stack = {0}, [0]
    while stack:
        sid = stack.pop()
        v = graph.vector(sid)
        fifo = {(EMIT, role, inst) for role in v.roles for inst in enabled_emissions(v, universe, role, ("1",))}
        fifo |= {(RECV, receiver, inst) for receiver, inst in deliverable(v, fifo=True)}
        edges = dict(graph.edges[sid])
        assert fifo <= edges.keys(), sid
        for move in fifo:
            if edges[move] not in reached:
                reached.add(edges[move])
                stack.append(edges[move])
    assert len(reached) == 6
    for sid in reached:
        received = [obs.instance.schema for obs in graph.vector(sid).history("B")]
        assert received in ([], ["m1"], ["m1", "m2"])


@pytest.mark.parametrize("name", ("Ordering", "OrderingOp", "Chan"))
@pytest.mark.parametrize("delivery", ("any", "fifo"))
def test_ordered_moves_match_simulator(name, delivery, op_registry, chan):
    """The ordered explorer and the simulator enable the same moves in every
    reachable state; under FIFO the simulator enables some of them, so every
    FIFO run is a run the verifier explores."""
    protocol, registry = (chan, None) if name == "Chan" else (op_registry[name], op_registry)
    graph = enumerate_uoe(protocol, BOUND, registry)
    universe = uod(protocol, registry)
    for sid in range(len(graph.states)):
        v = graph.vector(sid)
        simulator = {
            (EMIT, role, inst)
            for role in graph.roles
            for inst in enabled_emissions(v, universe, role, graph.bound.key_values)
        }
        simulator |= {(RECV, receiver, inst) for receiver, inst in deliverable(v, delivery == "fifo")}
        explored = {move for move, _ in graph.edges[sid]}
        assert (simulator == explored) if delivery == "any" else (simulator <= explored), sid


@pytest.mark.parametrize(
    "fields", ({"key_values": ()}, {"max_states": -1}, {"key_values": ("1", "1")}, {"max_states": 0})
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


# Safety and liveness of seed 225's compositions: (holds, states explored).
SEED225 = {
    SynthesisMode.LITERAL: [(False, 77), (False, 667)],
    SynthesisMode.COMPLETE: [(False, 54), (False, 16_889)],
}


@pytest.mark.parametrize("mode", SynthesisMode, ids=lambda mode: mode.value)
def test_theorem1_decides_seed225(mode, fixtures_dir):
    """Seed 225's input is safe and live, but a forward lets E send what it
    never could in the input, so both compositions are unsafe and not live.
    Theorem 1 decides at the default bound in both modes (complete mode's
    full graph passes 400 000 states); each witness replays, the safety one
    as an unsafe run and the liveness one as a viable run."""
    protocol = parse_protocol((fixtures_dir / "seed225.bspl").read_text())
    specs = parse_commitments((fixtures_dir / "seed225.cupid").read_text()).values()
    composed, registry = _composition(protocol, specs, mode)
    result = check_theorem1(protocol, composed, BOUND, registry)
    assert result.safety_input.holds and result.liveness_input.holds
    assert not result.safety_preserved and not result.liveness_preserved
    reports = [result.safety_composed, result.liveness_composed]
    assert [(report.holds, report.states_explored) for report in reports] == SEED225[mode]
    universe = uod(composed, registry)
    _assert_unsafe_run(reports[0].witness["reach"], universe)
    assert check_viable(vector_from_records(reports[1].witness["reach"], universe), universe) is None


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


# The input protocol, and a composition whose copy of ``reply`` binds the
# input's ``in x`` as ``out``.
RELAY = parse_protocol(
    """
    Relay {
      roles S, R
      parameters out k key, out x, out y
      S -> R: offer[out k key, out x]
      R -> S: reply[in k key, in x, out y]
    }
    """
)
RELAY_OP = parse_protocol(
    """
    RelayOp {
      roles S, R
      parameters out k key, out x, out y
      S -> R: offer[out k key, out x]
      R -> S: reply[in k key, out x, out y]
    }
    """
)


def test_embedding_failure_witness_is_a_run():
    """The witness is the input enactment up to the emission that breaks, a
    run of the input protocol that the composition rejects at that emission,
    for the reason the report gives."""
    report = check_embedding(RELAY, RELAY_OP, BOUND)
    assert not report.holds
    trace = report.witness["trace"]
    assert [(r["role"], r["dir"], r["schema"]) for r in trace] == [
        ("S", EMIT, "offer"), ("R", RECV, "offer"), ("R", EMIT, "reply"),
    ]
    assert check_viable(vector_from_records(trace, uod(RELAY)), uod(RELAY)) is None
    violation = check_viable(vector_from_records(trace, uod(RELAY_OP)), uod(RELAY_OP))
    assert violation is not None and violation.rule == "b" and violation.tick == len(trace)
    assert str(violation) == report.witness["violation"]


def _embedding_reference(input_protocol, composed, bound, registry) -> bool:
    """Embedding by its definition, on the exact ordered enumeration: every
    complete history vector of the input replays in the composition, each
    emission keeping the composed schema's rules against what its sender had
    observed by then."""
    graph = enumerate_uoe(input_protocol, bound, registry)
    universe = uod(composed, registry)
    for sid, state in enumerate(graph.states):
        if not _is_complete_reference(graph.emitted(state), input_protocol.out_params):
            continue
        knowledge = {role: RoleKnowledge(role) for role in graph.roles}
        for obs in graph.vector(sid).observations():
            if obs.direction == EMIT:
                schema = universe.schema(obs.instance.schema)
                if emission_violation(knowledge[obs.role], schema, obs.instance, obs.tick) is not None:
                    return False
            knowledge[obs.role].observe(obs.instance)
    return True


def _assert_embedding_agrees(input_protocol, composed, bound, registry=None) -> bool:
    """``check_embedding`` gives the reference's verdict, and a failure's
    witness is a viable run of the input that the composition rejects at its
    last tick, for the reason reported. Returns the verdict."""
    report = check_embedding(input_protocol, composed, bound, registry)
    assert report.holds == _embedding_reference(input_protocol, composed, bound, registry)
    if not report.holds:
        trace = report.witness["trace"]
        source, target = uod(input_protocol, registry), uod(composed, registry)
        assert check_viable(vector_from_records(trace, source), source) is None
        violation = check_viable(vector_from_records(trace, target), target)
        assert violation is not None and violation.tick == len(trace)
        assert str(violation) == report.witness["violation"]
    return report.holds


@pytest.mark.parametrize(
    "pair, k", (("Ordering", 1), ("EscrowOrdering", 1), ("EscrowOrderingLit", 1), ("Relay", 1), ("Relay", 3))
)
def test_embedding_agrees_with_ordered_replay(pair, k, op_registry, escrow_op_registry, escrow_composed_literal):
    """The fixture pairs hold, and Relay fails; the composed fixtures are too
    large to enumerate in order at more than one key value."""
    if pair == "Ordering":
        args = op_registry["Ordering"], op_registry["OrderingOp"], op_registry
    elif pair == "EscrowOrdering":
        args = escrow_op_registry["EscrowOrdering"], escrow_op_registry["EscrowOrderingOp"], escrow_op_registry
    elif pair == "EscrowOrderingLit":
        args = escrow_composed_literal[:3]
    else:
        args = RELAY, RELAY_OP, None
    assert _assert_embedding_agrees(*args[:2], Bound(key_values=_values(k)), args[2]) == (pair != "Relay")


def _flip_one_adornment(protocol, rng: random.Random):
    """A copy of ``protocol`` with one schema parameter's adornment flipped."""
    schemas = list(protocol.references)
    si = rng.randrange(len(schemas))
    params = list(schemas[si].params)
    pi = rng.randrange(len(params))
    params[pi] = replace(params[pi], adornment=OUT if params[pi].adornment == IN else IN)
    schemas[si] = replace(schemas[si], params=tuple(params))
    return replace(protocol, references=tuple(schemas))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from((1, 2, 3)))
def test_embedding_agrees_with_ordered_replay_on_random_pairs(seed, k):
    """As above on Hypothesis-drawn random protocols, each against a copy with
    one adornment flipped, skipping those too large to enumerate."""
    rng = random.Random(seed)
    protocol = random_protocol(rng, 0)
    assume(protocol.references)
    try:
        _assert_embedding_agrees(protocol, _flip_one_adornment(protocol, rng), Bound(_values(k), max_states=5_000))
    except BoundExceeded:
        assume(False)


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
    schemas = [step["schema"] for step in report.witness["reach"] if "lapse" not in step]
    assert "payEscrow" in schemas


@pytest.mark.parametrize(
    "case, punctual",
    [("bare-escrow", True), ("bare-escrow", False), ("composed-escrow", False)],
    ids=("punctual", "unrestricted", "composed-escrow-unrestricted"),
)
def test_alignment_failure_witness_ends_where_no_move_is_left(
    case, punctual, escrow_ordering, escrow_commitments, escrow_op_registry
):
    """A failing Theorem 2 names the path to a misaligned terminal state: with
    its lapses left out it is a viable run, after which the simulator's move
    rule offers no emission and no delivery. Its commitment is misaligned in
    the debtor's and creditor's models of the run, each observation at the
    phase of the last lapse before it, evaluated past every window bound, so
    no later instant realigns it. Unrestricted composed escrow is decided by
    the depth-first probe alone: its full graph is out of reach."""
    if case == "bare-escrow":
        protocol, specs, registry = escrow_ordering, [escrow_commitments["EscrowPurchase"]], None
    else:
        protocol, specs, registry = (
            escrow_op_registry["EscrowOrderingOp"], list(escrow_commitments.values()), escrow_op_registry
        )
    report = check_alignment_reachability(protocol, specs, BOUND, punctual, registry)
    assert not report.holds
    universe = uod(protocol, registry)
    vector = vector_from_records(report.witness["reach"], universe)
    assert check_viable(vector, universe) is None
    assert not deliverable(vector)
    assert not any(enabled_emissions(vector, universe, role, BOUND.key_values) for role in vector.roles)

    phase, observed = 0, {role: [] for role in universe.roles}
    for record in report.witness["reach"]:
        if "lapse" in record:
            phase = record["lapse"]
        else:
            obs = observation_from_json(record, universe)
            observed[obs.role].append((obs.instance, phase))
    # Every bound is an absolute instant or an observation's phase plus an
    # offset, and no observation is later than the last phase.
    past = phase + max(offset for _, offset in window_anchors(specs)) + 1
    c = next(c for c in specs if c.name == report.witness["commitment"])
    fwd = forwarding_registry(universe)
    debtor, creditor = (
        lifecycle_table(c, EvaluationContext(model_of(observed[role], fwd), past)) for role in (c.debtor, c.creditor)
    )
    assert check_alignment_models(c, debtor, creditor).misalignments


def test_violated_misalignment_reachable_without_ship_notification(ordering, purchase):
    """Without forwarding, a delayed delivery can leave the creditor's violated
    inference permanently invisible to the debtor (unrestricted scheduling)."""
    report = check_alignment_reachability(
        ordering, [purchase], Bound(max_states=100_000), punctual=False
    )
    assert not report.holds


def test_violated_alignment_restored_by_notification(ordering, purchase):
    """Ordering composed with complete mode's aligner for Purchase, whose one
    forward is the shipper's notification of ``ship`` to the merchant
    (``fwdSMShip``), holds punctual Theorem 2. It holds without that
    notification too, as bare Ordering does (``NECESSITY``): punctually every
    message is delivered before a deadline passes. So this shows the
    composition aligned, not that the notification is needed."""
    aligner = synthesize_alignment_protocol(purchase, ordering, SynthesisMode.COMPLETE)
    composed = compose_operationalization(ordering, [aligner])
    registry = {p.name: p for p in [composed, ordering, aligner]}
    report = check_alignment_reachability(composed, [purchase], BOUND, punctual=True, registry=registry)
    assert report.holds


# Punctual Theorem 2 on a composition with each of its forwards dropped in
# turn, from every aligner that has it: (input, commitments, synthesis mode,
# the forwards it holds without, those it fails without, whether the bare
# input protocol holds with no aligner). With every forward, each holds.
# Complete escrow holds without any one forward but fwdMEQuote, literal escrow
# without none; bare escrow fails, and bare Ordering holds.
NECESSITY = {
    "OrderingOp": ("ordering.bspl", "purchase.cupid", "complete", {"fwdSMShip"}, set(), True),
    "escrow-complete": (
        "escrow_ordering.bspl", "escrow_transfer.cupid", "complete",
        {"fwdCMPayEscrow", "fwdEMPayEscrow", "fwdEMShip", "fwdMEShip", "fwdSEShip", "fwdSMShip"}, {"fwdMEQuote"},
        False,
    ),
    "escrow-literal": (
        "escrow_ordering.bspl", "escrow_transfer.cupid", "literal",
        set(), {"fwdCMPayEscrow", "fwdMEQuote", "fwdSEShip", "fwdSMShip"}, False,
    ),
}


@pytest.mark.parametrize("case", NECESSITY)
def test_forward_necessity_on_the_fixtures(fixtures_dir, case):
    """Which forwards punctual Theorem 2 can do without, one at a time, and
    whether the bare protocol holds (see ``NECESSITY``)."""
    input_file, cupid, mode, droppable, needed, bare = NECESSITY[case]
    base = parse_protocol((fixtures_dir / input_file).read_text())
    specs = list(parse_commitments((fixtures_dir / cupid).read_text()).values())
    aligners = [synthesize_alignment_protocol(c, base, SynthesisMode(mode)) for c in specs]

    def holds(dropped):
        kept = [replace(a, references=tuple(r for r in a.references if r.name != dropped)) for a in aligners]
        composed = compose_operationalization(base, kept)
        registry = {p.name: p for p in [composed, base, *kept]}
        return check_alignment_reachability(composed, specs, BOUND, punctual=True, registry=registry).holds

    forwards = {r.name for a in aligners for r in a.references}
    assert forwards == droppable | needed
    assert holds(None)
    assert {f for f in forwards if holds(f)} == droppable
    assert check_alignment_reachability(base, specs, BOUND, punctual=True).holds is bare


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


def _assert_probe_matches_full(protocol, specs, bound, registry=None) -> bool:
    """The unrestricted depth-first probe against the breadth-first graph. It
    finds a misaligned terminal state exactly when that graph has one, and ends
    at one of them; states are compared decoded, since the two graphs intern
    knowledge in different orders. When it finds none, it has renumbered itself
    into that graph, and its report is the breadth-first one. Returns whether
    Theorem 2 holds."""
    universe = uod(protocol, registry)
    full = AlignmentGraph(universe, specs, bound, punctual=False)
    full.build()
    misaligned_ends = {
        full.decode(state) for sid, state in enumerate(full.states) if not full.edges[sid] and any(full.alignment(state))
    }
    probe = AlignmentGraph(universe, specs, bound, punctual=False)
    end = probe.build(probe=True)
    if end is not None:
        assert not probe.edges[end]
        assert probe.decode(probe.states[end]) in misaligned_ends
        return False
    assert not misaligned_ends
    assert [probe.decode(state) for state in probe.states] == [full.decode(state) for state in full.states]
    assert (probe.parents, probe.edges) == (full.parents, full.edges)
    build = AlignmentGraph.build
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AlignmentGraph, "build", lambda graph, probe=False: build(graph))
        breadth_first = check_alignment_reachability(protocol, specs, bound, False, registry)
    assert check_alignment_reachability(protocol, specs, bound, False, registry) == breadth_first
    return True


@pytest.mark.parametrize("case", ["OrderingOp", "Ordering", "bare-escrow"])
def test_probe_agrees_with_full_unrestricted_graph(case, op_registry, purchase, escrow_ordering, escrow_commitments):
    """Unrestricted Theorem 2 fails on these fixtures. Composed escrow is left
    out: its breadth-first graph passes 300 000 states."""
    if case == "bare-escrow":
        protocol, specs, registry = escrow_ordering, [escrow_commitments["EscrowPurchase"]], None
    else:
        protocol, specs, registry = op_registry[case], [purchase], op_registry
    assert not _assert_probe_matches_full(protocol, specs, BOUND, registry)


def _random_commitment(rng: random.Random, protocol) -> CommitmentSpec:
    """A commitment between two of ``protocol``'s roles over its message names,
    with windows closing 0-3 phases after an absolute 0 or a message."""
    names = [schema.name for schema in protocol.references]

    def formula(depth):
        if depth == 0 or rng.random() < 0.4:
            return BaseEvent(rng.choice(names))
        pick = rng.randrange(4)
        if pick == 0:
            anchor = BaseEvent(rng.choice(names)) if rng.random() < 0.5 else None
            return Window(formula(depth - 1), upper=TimeRef(rng.randint(0, 3), anchor))
        return (And, Or, Except)[pick - 1](formula(depth - 1), formula(depth - 1))

    debtor, creditor = rng.sample(protocol.roles, 2)
    return CommitmentSpec("C", debtor, creditor, formula(2), formula(2), formula(2))


def _random_alignment_pair(seed: int):
    """The ``random_protocol`` of ``seed`` with a random commitment, or None
    for a draw with no message or whose commitment does not bind."""
    rng = random.Random(seed)
    protocol = random_protocol(rng, 0)
    if not protocol.references:
        return None
    commitment = _random_commitment(rng, protocol)
    try:
        bind_commitment(commitment, uod(protocol))
    except ComalError:
        return None
    return protocol, [commitment]


def _random_alignment_pairs(count: int):
    """The ``_random_alignment_pair``s of seeds 0 to ``count`` - 1."""
    return filter(None, map(_random_alignment_pair, range(count)))


SMALL = Bound(max_states=3_000)


def test_probe_agrees_with_full_unrestricted_graph_on_random_protocols():
    """As above on random commitments, where it holds as well as fails."""
    verdicts = []
    for protocol, specs in _random_alignment_pairs(150):
        try:
            verdicts.append(_assert_probe_matches_full(protocol, specs, SMALL))
        except BoundExceeded:
            continue
    assert len(verdicts) > 100 and set(verdicts) == {True, False}


def test_alignment_matches_uncached_tables_on_random_protocols():
    """As ``test_alignment_matches_uncached_tables``, on random commitments,
    whose windows close at offsets other than the fixtures' multiples of 5."""
    built = 0
    for protocol, specs in _random_alignment_pairs(150):
        for punctual in (True, False):
            graph = AlignmentGraph(uod(protocol), specs, SMALL, punctual)
            try:
                graph.build()
            except BoundExceeded:
                continue
            _assert_views_match_whole_models(graph)
            built += 1
    assert built > 200


@pytest.mark.parametrize("punctual", (True, False), ids=("punctual", "unrestricted"))
def test_timed_graph_matches_plain_encoding_on_random_protocols(punctual):
    """``test_interning``'s timed reference, on plain per-role sets of
    (instance, phase), against the graph on random commitments: unrestricted,
    the graph is the reference's breadth-first quotient (states, parents and
    edges); punctually, the quotient of the reference reduced to safe
    deliveries and independent forwards, which is a subgraph of the reference
    with the same terminal states."""
    checked = 0
    for protocol, specs in _random_alignment_pairs(150):
        graph = AlignmentGraph(uod(protocol), specs, SMALL, punctual)
        graph.build()
        (_assert_reduced if punctual else _assert_quotient)(graph, _reference_timed(graph))
        checked += 1
    assert checked == 112


def test_forward_reduction_keeps_terminal_states_on_random_compositions():
    """``random_protocol`` draws no forward, so the timed graph's forward rule
    is checked on each ``_random_alignment_pairs`` draw composed with its
    commitment's aligner, synthesized in each mode. The reduced knowledge-set
    graph is a subgraph of the full one with the same terminal states, safety
    and liveness, and the punctual timed graph one of the unreduced reference
    with the same terminal states and Theorem 2 verdict. Compositions whose
    full knowledge-set graph passes 3 000 states are left out. At seeds 71
    and 95 a forward's ``in`` parameter is ``out`` in two schemas, and
    expanding that forward alone loses terminal states in both modes."""
    checked = []
    for seed in range(150):
        pair = _random_alignment_pair(seed)
        if pair is None:
            continue
        protocol, specs = pair
        for mode in SynthesisMode:
            composed, registry = _composition(protocol, specs, mode)
            try:
                _assert_knowledge_reduced(composed, registry, SMALL)
            except BoundExceeded:
                continue
            graph = AlignmentGraph(uod(composed, registry), specs, BOUND, punctual=True)
            graph.build()
            _assert_reduced(graph, _reference_timed(graph))
            checked.append((seed, mode))
    assert len(checked) == 222
    assert {(seed, mode) for seed in (71, 95) for mode in SynthesisMode} <= set(checked)


def test_theorem2_on_random_compositions():
    """The paper's Theorems 1 and 2 on each ``_random_alignment_pairs`` draw
    that is safe and live at ``SMALL``, composed with its commitment's aligner
    synthesized in each mode. Complete mode holds punctual Theorem 2 on every
    draw, and literal mode fails it on two, each with a witness that replays
    as a viable run of the composition. Both modes preserve safety. Liveness
    is not always preserved: a composition's public ``out`` parameters include
    every forward's identifier, but a forward can only follow its base
    message, and at seeds 47, 60 and 80 that message reads an ``in``
    parameter nothing binds; at seed 110 two messages bind one ``out``
    parameter, so once one of them is received the other cannot follow."""
    kept, literal_fails, not_live = 0, [], set()
    for seed in range(150):
        pair = _random_alignment_pair(seed)
        if pair is None:
            continue
        protocol, specs = pair
        try:
            safety, liveness = check_safety_and_liveness(protocol, SMALL)
        except BoundExceeded:
            continue
        if not (safety.holds and liveness.holds):
            continue
        kept += 1
        for mode in SynthesisMode:
            composed, registry = _composition(protocol, specs, mode)
            theorem1 = check_theorem1(protocol, composed, SMALL, registry)
            assert theorem1.safety_preserved, (seed, mode)
            if not theorem1.liveness_preserved:
                not_live.add((seed, mode))
            report = check_alignment_reachability(composed, specs, SMALL, True, registry)
            if report.holds:
                continue
            assert mode is SynthesisMode.LITERAL, seed
            literal_fails.append(seed)
            universe = uod(composed, registry)
            assert check_viable(vector_from_records(report.witness["reach"], universe), universe) is None
    assert kept == 92
    assert literal_fails == [45, 120]
    assert not_live == {(seed, mode) for seed in (47, 60, 80) for mode in SynthesisMode} | {
        (110, SynthesisMode.COMPLETE)
    }


def test_probe_cut_at_max_states_reports_its_deepest_state(op_registry, purchase):
    """A depth-first probe cut at ``max_states`` carries its partial graph. Cut
    at 30 of the 31 states it finds on OrderingOp, its last state found, at
    depth 11, is not its deepest: ``depth`` is the longest path along the
    edges states were found by."""
    universe = uod(op_registry["OrderingOp"], op_registry)
    graph = AlignmentGraph(universe, [purchase], Bound(max_states=30), punctual=False)
    with pytest.raises(BoundExceeded) as info:
        graph.build(probe=True)
    assert info.value.partial is graph and len(graph.states) == 30
    trails = [len(graph._trail(sid, graph.parents)) for sid in range(len(graph.states))]
    assert graph.depth() == max(trails) > trails[-1]


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


def _assert_knowledge_sets_agree(protocol, registry, bound) -> bool:
    """The knowledge-set abstraction behind safety and liveness gives the same
    verdicts as the exact ordered enumeration checked vector by vector; the
    liveness verdict is returned."""
    graph = enumerate_uoe(protocol, bound, registry)
    complete = [
        sid for sid, state in enumerate(graph.states)
        if _is_complete_reference(graph.emitted(state), protocol.out_params)
    ]
    live = len(graph.backward_closure(complete)) == len(graph.states)
    assert live == check_liveness(protocol, bound, registry).holds
    universe = uod(protocol, registry)
    violations = [check_viable(graph.vector(sid), universe) for sid in range(len(graph.states))]
    unsafe = any(v is not None and v.rule == "c" for v in violations)
    assert unsafe == (not check_safety(protocol, bound, registry).holds)
    return live


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_knowledge_sets_agree_with_ordered_enumeration(name, op_registry, toys):
    _assert_knowledge_sets_agree(*_protocol(name, op_registry, toys), BOUND)


@pytest.mark.parametrize("key_values", (("1",), ("1", "2")), ids=("keys1", "keys2"))
def test_knowledge_sets_agree_with_ordered_enumeration_on_random_protocols(key_values):
    """As above on random protocols, skipping those too large to enumerate;
    both verdicts of liveness occur, so neither side is vacuous."""
    rng = random.Random(11)
    bound = Bound(key_values=key_values, max_states=5_000)
    verdicts = []
    for index in range(30):
        try:
            verdicts.append(_assert_knowledge_sets_agree(random_protocol(rng, index), None, bound))
        except BoundExceeded:
            continue
    assert True in verdicts and False in verdicts, verdicts


def _values(k: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(k))


def _built(protocol, registry, bound, reduced=False) -> KnowledgeGraph:
    return KnowledgeGraph(uod(protocol, registry), bound, protocol.out_params, reduced).complete()


def _read_bound(protocol, registry, bound) -> Bound:
    """The bound of the graph safety and liveness read: the first key value
    alone where every two schemas share a key parameter, else ``bound``."""
    schemas = uod(protocol, registry).schemas
    if all(set(a.keys) & set(b.keys) for a, b in combinations(schemas, 2)):
        return replace(bound, key_values=bound.key_values[:1])
    return bound


def _assert_matches_full_enumeration(protocol, registry, bound) -> tuple[KnowledgeGraph, bool]:
    """Safety and liveness at ``bound`` against a direct full ``KnowledgeGraph``
    build: each report's verdict is the full build's. Where every two schemas
    share a key parameter, a check at k > 1 key values is decomposed, and the
    full build's state count is the k-th power of the full one-value build's.
    A report counts the states of the reduced graph it read, at one value if
    decomposed, a safety report up to its first violation, and its detail
    names the decomposition. A failing report's witness replays: a safety
    witness is an unsafe run, and a liveness witness ends in a state of the
    full build with no completing extension. Returns the full build and
    whether the checks were decomposed."""
    k = len(bound.key_values)
    universe = uod(protocol, registry)
    full = _built(protocol, registry, bound)
    read = _read_bound(protocol, registry, bound)
    decomposed = k > 1 and read != bound
    if decomposed:
        assert len(full.states) == len(_built(protocol, registry, read).states) ** k
    reduced = KnowledgeGraph(universe, read, protocol.out_params, reduced=True)
    reduced.build()
    counts = [len(reduced.states), len(reduced.complete().states)]
    decomposition = f"{k} key values answered from one" if decomposed else ""
    ids = {full.decode(state): sid for sid, state in enumerate(full.states)}
    verdicts = [full.safety_violation is None, full.live_everywhere]
    for check, holds, states in zip((check_safety, check_liveness), verdicts, counts):
        report = check(protocol, bound, registry)
        assert (report.holds, report.states_explored) == (holds, states)
        assert report.detail.endswith(decomposition) and ("answered from one" in report.detail) == decomposed
        if holds:
            assert report.witness is None
        elif check is check_safety:
            _assert_unsafe_run(report.witness["reach"], universe)
        else:
            assert ids[_replayed(full, report.witness["reach"])] not in full.live
    return full, decomposed


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("name", ("Ordering", "OrderingOp", "EscrowOrdering", "unsafe_toy", "stuck_toy"))
def test_key_values_answered_from_one_match_full_enumeration(name, k, op_registry, toys, escrow_ordering):
    """Every fixture here has one key set, so each decomposes, safe and live
    or not: the toys fail at one value and so at k, with a one-value witness."""
    if name == "EscrowOrdering":
        protocol, registry = escrow_ordering, None
    else:
        protocol, registry = _protocol(name, op_registry, toys)
    _, decomposed = _assert_matches_full_enumeration(protocol, registry, Bound(key_values=_values(k)))
    assert decomposed


@pytest.mark.parametrize("k", (2, 3))
def test_key_values_answered_from_one_at_any_depth(k, chan):
    """Chan's one-value graph is 4 observations deep, and its k-value graph,
    4k deep, is the whole k-fold product: no run is cut short."""
    one = KnowledgeGraph(uod(chan), BOUND, chan.out_params)
    one.build()
    assert one.depth() == 4
    full, decomposed = _assert_matches_full_enumeration(chan, None, Bound(key_values=_values(k)))
    assert decomposed
    assert len(full.states) == len(one.states) ** k


def _chain(length: int):
    """``length`` messages between A and B, alternating direction, each taking
    the previous one's ``out`` parameter as ``in``."""
    schemas = ["A -> B: m1[out id key, out p1]"] + [
        f"{'A -> B' if i % 2 else 'B -> A'}: m{i}[in id key, in p{i - 1}, out p{i}]" for i in range(2, length + 1)
    ]
    params = ", ".join(f"out p{i}" for i in range(1, length + 1))
    return parse_protocol("Chain {\n roles A, B\n parameters out id key, %s\n %s\n}" % (params, "\n ".join(schemas)))


def test_deep_protocol_is_explored_to_completion():
    """A 22-message chain: its one-value graph is one run of 45 states, 44
    observations deep, and at two key values every completion takes 88
    observations. Both values are explored to the end, so both checks hold."""
    chain = _chain(22)
    for k in (1, 2):
        safety, liveness = check_safety_and_liveness(chain, Bound(key_values=_values(k)))
        assert safety.holds and liveness.holds
        assert safety.states_explored == liveness.states_explored == 45
    assert liveness.detail == "2 key values answered from one"
    full = KnowledgeGraph(uod(chain), Bound(key_values=_values(2)), chain.out_params)
    full.build()
    assert len(full.states) == 45 ** 2 == len(full.live)
    assert full.depth() == 88


def test_key_values_of_disjoint_key_sets_are_enumerated():
    """``first`` is keyed by ``a`` and ``second`` by ``b``, so no key parameter
    separates their instances: ``x`` from ``a`` = 1 is known at ``b`` = 2, and
    the k-value graph is not the product of the one-value graph."""
    protocol = parse_protocol(
        """
        Disjoint {
          roles A, B
          parameters out a key, out b key, out x, out y
          A -> B: first[out a key, out x]
          B -> A: second[out b key, in x, out y]
        }
        """
    )
    full, decomposed = _assert_matches_full_enumeration(protocol, None, Bound(key_values=_values(2)))
    assert not decomposed
    assert len(full.states) != len(_built(protocol, None, BOUND).states) ** 2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from((2, 3)))
def test_key_values_answered_from_one_match_full_enumeration_on_random_protocols(seed, k):
    """As above on Hypothesis-drawn random protocols, skipping those too large
    to enumerate; about one in eight has two schemas without a shared key."""
    protocol = random_protocol(random.Random(seed), 0)
    try:
        _assert_matches_full_enumeration(protocol, None, Bound(key_values=_values(k), max_states=5_000))
    except BoundExceeded:
        assume(False)


def test_decomposed_liveness_runs_no_closure(monkeypatch, op_registry):
    """Deciding that the one-value graph is live answers the report too, and
    both are decided on the terminal states, with no backward closure."""
    calls = []
    closure = KnowledgeGraph.backward_closure

    def counted(graph, seeds):
        calls.append(graph)
        return closure(graph, seeds)

    monkeypatch.setattr(KnowledgeGraph, "backward_closure", counted)
    protocol = op_registry["OrderingOp"]
    report = check_liveness(protocol, Bound(key_values=_values(2)), op_registry)
    assert report.holds and report.detail == "2 key values answered from one"
    assert calls == []


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
    with pytest.raises(WellFormednessError, match="schema 'fwdABThing' has no forwarding registry entry"):
        check_alignment_reachability(odd, [], BOUND, punctual=True)


def test_alignment_rejects_forward_with_other_key_marks():
    """A forward must carry its base's key marks, so that its key binding is
    the base's: one keyed by ``k`` alone does not forward ``thing``, keyed by
    ``k`` and ``v``."""
    registry = parse_protocols(
        """
        Odd {
          roles A, B, C
          parameters out k key, out v key, out fwdBCThingID
          Base(A, B, out k key, out v key)
          Al(B, C, in k key, in v, out fwdBCThingID)
        }
        Base {
          roles A, B
          parameters out k key, out v key
          A -> B: thing[out k, out v]
        }
        Al {
          roles B, C
          parameters in k key, in v, out fwdBCThingID
          B -> C: fwdBCThing[in k, in v, out fwdBCThingID]
        }
        """
    )
    universe = uod(registry["Odd"], registry)
    assert universe.schema("fwdBCThing").keys == ("k",)
    assert forwarding_registry(universe) == {}
    with pytest.raises(WellFormednessError, match="schema 'fwdBCThing' has no forwarding registry entry"):
        check_alignment_reachability(registry["Odd"], [], BOUND, punctual=True, registry=registry)


def test_nested_key_sets_give_one_edge_per_move(nested_keys):
    graph = KnowledgeGraph(uod(nested_keys), BOUND, nested_keys.out_params)
    graph.build()
    assert len(graph.states) == 5
    assert sum(len(out) for out in graph.edges) == 4


TIMED_CASES = ["OrderingOp", "bare-escrow", "composed-escrow", "OrderingOp-unrestricted"]


def _timed_graph(case, op_registry, escrow_op_registry, purchase, escrow_ordering, escrow_commitments):
    """The built timed graph of a ``TIMED_CASES`` case at ``BOUND``."""
    punctual = not case.endswith("-unrestricted")
    if case.startswith("OrderingOp"):
        protocol, specs, registry = op_registry["OrderingOp"], [purchase], op_registry
    elif case == "bare-escrow":
        protocol, specs, registry = escrow_ordering, [escrow_commitments["EscrowPurchase"]], None
    else:
        protocol, specs, registry = (
            escrow_op_registry["EscrowOrderingOp"], list(escrow_commitments.values()), escrow_op_registry
        )
    graph = AlignmentGraph(uod(protocol, registry), specs, BOUND, punctual)
    graph.build()
    return graph


@pytest.mark.parametrize("case", TIMED_CASES)
def test_alignment_matches_uncached_tables(
    case, op_registry, escrow_op_registry, purchase, escrow_ordering, escrow_commitments
):
    """The graph caches lifecycle tables and misalignment counts on (commitment,
    view, phase), a view being the model entries a commitment's base events
    name, and next lapse boundaries on the entries the window anchors name;
    each role's views are stepped per move from its parent's. Every
    state's counts must equal those of tables evaluated from each role's whole
    model in the state's ``path_to`` replay, and its boundary the first
    ``next_change`` over those whole models. Composed escrow's two commitments read different names;
    unrestricted OrderingOp lapses before deliveries."""
    graph = _timed_graph(case, op_registry, escrow_op_registry, purchase, escrow_ordering, escrow_commitments)
    if case == "composed-escrow":
        assert len(set(graph._reads.values())) == 2
    _assert_views_match_whole_models(graph)


def _assert_instance_masks_match_replays(graph: AlignmentGraph) -> int:
    """Each role's instance mask in every state, which the moves are found
    from, is the mask of the instances the state's ``path_to`` replay has the
    role observe, and ``decode`` gives those instances. Returns the number of
    masks compared, one per role per state."""
    for sid, state in enumerate(graph.states):
        sets, _ = _replay(graph, sid)
        instances = tuple(frozenset(inst for inst, _ in pairs) for pairs in sets)
        assert state[0] == tuple(sum(1 << graph._bit[inst] for inst in s) for s in instances)
        assert graph.decode(state)[0] == instances
    return len(graph.states) * len(graph.roles)


def _timed_graphs(case, op_registry, escrow_op_registry, purchase, escrow_ordering, escrow_commitments):
    """The graph of a ``TIMED_CASES`` case; for ``"random"`` the graphs of the
    ``_random_alignment_pairs``, built punctually and unrestricted at
    ``SMALL``; for ``"cut"`` composed escrow, both ways, and unrestricted
    OrderingOp, each cut at 300 states."""
    if case in TIMED_CASES:
        return [_timed_graph(case, op_registry, escrow_op_registry, purchase, escrow_ordering, escrow_commitments)]
    if case == "random":
        draws = [(uod(protocol), specs, punctual, SMALL)
                 for protocol, specs in _random_alignment_pairs(150) for punctual in (True, False)]
    else:
        composed = uod(escrow_op_registry["EscrowOrderingOp"], escrow_op_registry)
        cut = Bound(max_states=300)
        draws = [(composed, list(escrow_commitments.values()), punctual, cut) for punctual in (True, False)]
        draws.append((uod(op_registry["OrderingOp"], op_registry), [purchase], False, cut))
    graphs = []
    for universe, specs, punctual, bound in draws:
        graphs.append(AlignmentGraph(universe, specs, bound, punctual))
        try:
            graphs[-1].build()
        except BoundExceeded:
            assert case == "cut"
    return graphs


@pytest.mark.parametrize("case", [*TIMED_CASES, "random", "cut"])
def test_timed_instance_masks_match_pair_masks(
    case, op_registry, escrow_op_registry, purchase, escrow_ordering, escrow_commitments
):
    """A timed state carries each role's instance mask beside its view
    record: a move sets its bit, a lapse changes neither. On the fixture
    graphs, on the random ones, built punctually and unrestricted, and on cut
    builds, every state's instance masks are those of the observations its
    ``path_to`` replays."""
    graphs = _timed_graphs(case, op_registry, escrow_op_registry, purchase, escrow_ordering, escrow_commitments)
    assert sum(map(_assert_instance_masks_match_replays, graphs)) > 100


@pytest.mark.parametrize("case", [*TIMED_CASES, "random", "cut"])
def test_views_derived_per_move_match_whole_models(
    case, op_registry, escrow_op_registry, purchase, escrow_ordering, escrow_commitments
):
    """Each role's view tuple in a state holds one view per read set, the
    anchors' then each commitment's, stepped from its parent's tuple by the
    entry of the pair the move sets. On the fixture graphs, on the random
    ones, built both ways, and on cut builds, every role's views in every
    state are the entries, with the read set's names, of the whole model of
    the observations the state's ``path_to`` replays, at the phases it
    replays them, and the state's phase is the replay's."""
    graphs = _timed_graphs(case, op_registry, escrow_op_registry, purchase, escrow_ordering, escrow_commitments)
    assert sum(map(_assert_replays, graphs)) > 100


def test_timed_graph_projects_each_pair_once(monkeypatch, escrow_op_registry, escrow_commitments):
    """The timed graph makes a model entry once per (instance, phase) pair a
    move reaches, never per state or view tuple: on punctual composed escrow,
    through the build and an alignment pass over every state."""
    projected = []

    def counted(inst, tick, fwd):
        projected.append((inst, tick))
        return model_entry(inst, tick, fwd)

    monkeypatch.setattr(comal.verify, "model_entry", counted)
    protocol = escrow_op_registry["EscrowOrderingOp"]
    graph = AlignmentGraph(uod(protocol, escrow_op_registry), list(escrow_commitments.values()), BOUND, punctual=True)
    graph.build()
    assert any(any(graph.alignment(state)) for state in graph.states)
    assert (len(graph.states), len(graph._entries), len(graph._views)) == (288, 36, 36)
    assert len(projected) == len(graph._entries)
    assert len(set(projected)) == len(projected)


def _assert_views_match_whole_models(graph: AlignmentGraph) -> None:
    """Each state's misalignment counts and next lapse boundary, read from the
    graph's view caches, against tables and ``next_change`` evaluated on each
    role's whole model in the state's ``path_to`` replay, memoized on its whole
    knowledge."""
    fwd = forwarding_registry(graph.universe)
    models: dict = {}
    tables: dict = {}

    def model(entries):
        if entries not in models:
            models[entries] = model_of(entries, fwd)
        return models[entries]

    def table(c, entries, phase):
        key = (c.name, entries, phase)
        if key not in tables:
            tables[key] = lifecycle_table(c, EvaluationContext(model(entries), phase))
        return tables[key]

    for sid, state in enumerate(graph.states):
        sets, phase = _replay(graph, sid)
        expected = [
            len(check_alignment_models(
                c, table(c, sets[graph.role_index[c.debtor]], phase), table(c, sets[graph.role_index[c.creditor]], phase)
            ).misalignments)
            for c in graph.commitments
        ]
        assert graph.alignment(state) == expected
        boundary = min(next_change(graph.anchors, EvaluationContext(model(entries), phase)) for entries in sets)
        assert graph._next_boundary(state[1], phase) == boundary


@pytest.fixture(scope="module")
def escrow_op_registry(fixtures_dir):
    return parse_protocols((fixtures_dir / "escrow_ordering_op.bspl").read_text())


def _cached_graph(case, op_registry, escrow_op_registry, chan, escrow_ordering, escrow_commitments, purchase):
    """The graph of a ``CACHE_CASES`` case, and whether its build stopped at
    ``max_states``."""
    kind, name, setting = case
    protocol, registry = {
        "Ordering": (op_registry["Ordering"], op_registry),
        "OrderingOp": (op_registry["OrderingOp"], op_registry),
        "EscrowOrdering": (escrow_ordering, None),
        "EscrowOrderingOp": (escrow_op_registry["EscrowOrderingOp"], escrow_op_registry),
        "Chan": (chan, None),
    }[name]
    universe = uod(protocol, registry)
    if kind == "knowledge":
        graph = KnowledgeGraph(universe, Bound(key_values=setting), protocol.out_params)
    elif kind == "ordered":
        graph = EnactmentGraph(universe, BOUND)
    else:
        specs = {
            "OrderingOp": [purchase],
            "EscrowOrdering": [escrow_commitments["EscrowPurchase"]],
            "EscrowOrderingOp": escrow_commitments.values(),
        }[name]
        graph = AlignmentGraph(universe, specs, Bound(max_states=setting), punctual=name != "EscrowOrderingOp")
    try:
        graph.build()
    except BoundExceeded as exc:
        assert exc.partial is graph
        return graph, True
    return graph, False


# (graph, protocol, key values | delivery, always any | max_states). Every timed
# graph but punctual OrderingOp, whose 65 states fit in 80, is cut: punctual
# EscrowOrdering at 80 of its 103 states (test_interning checks both whole
# builds), and unrestricted composed escrow at 3 000, where most phases share
# one tuple of observed sets, so where the timed moves cache answers most.
CACHE_CASES = [
    *(("knowledge", name, keys) for name in ("Ordering", "OrderingOp", "EscrowOrdering") for keys in (("1",), ("1", "2"))),
    *(("ordered", name, "any") for name in ("Ordering", "OrderingOp", "Chan")),
    ("alignment", "OrderingOp", 80),
    ("alignment", "EscrowOrdering", 80),
    ("alignment", "EscrowOrderingOp", 3_000),
]


@pytest.mark.parametrize("case", CACHE_CASES, ids=lambda case: "-".join(map(str, case)))
def test_cached_successors_match_uncached(
    case, monkeypatch, op_registry, escrow_op_registry, chan, escrow_ordering, escrow_commitments, purchase
):
    """Every state's successors, and the edges the build recorded, are those
    the graph finds with its move caches emptied before each state: emission,
    delivery and, in the timed graph, moves, so that its moves come from that
    state's own observed sets and not from another phase's, and every graph,
    the ordered one too, calls ``_moves`` once per state. Decoded, they are
    the reference move rule's on the decoded state, which rebuilds knowledge
    and candidates each time; in the timed graph, on the plain state the
    state's ``path_to`` replays, each successor taken to its class (see
    ``test_interning``). Punctually, they are reduced to the first safe
    delivery where there is one, or else to the first independent forward's
    emission.
    A build cut at ``max_states`` recorded every edge of the states expanded
    before the last one found, and a prefix of the rest."""
    graph, cut = _cached_graph(
        case, op_registry, escrow_op_registry, chan, escrow_ordering, escrow_commitments, purchase
    )
    timed = isinstance(graph, AlignmentGraph)
    ordered = isinstance(graph, EnactmentGraph)
    if timed:
        assert graph.moves_hits > 0
        successors, cls = _timed_successors(graph), _classes(graph)

        def reference(sid):
            return [(move, cls(succ)) for move, succ in successors(_replay(graph, sid))]
    else:
        successors = _untimed_successors(graph, ordered, fifo=False)

        def reference(sid):
            return successors(graph.decode(graph.states[sid]))
    cached = [list(graph._successors(state)) for state in graph.states]
    calls = []
    moves = graph._moves
    monkeypatch.setattr(graph, "_moves", lambda masks: calls.append(masks) or moves(masks))
    expanded = graph.parents[-1][0] if cut else len(graph.states)
    for sid, state in enumerate(graph.states):
        graph._emission_cache.clear()
        graph._delivery_cache.clear()
        if timed:
            graph._moves_cache.clear()
        uncached = list(graph._successors(state))
        assert cached[sid] == uncached, sid
        edges = [(move, graph.index.get(succ)) for move, succ in uncached]
        assert graph.edges[sid] == (edges if sid < expanded else edges[:len(graph.edges[sid])]), sid
        expected = reference(sid)
        if graph.reduced:
            expected = _reduced_edges(graph, graph.decode(graph.states[sid])[0], expected)
        assert [(move, graph.decode(succ)) for move, succ in uncached] == expected, sid
    assert len(calls) == len(graph.states)


def test_candidates_generated_once_per_role_and_knowledge_set(monkeypatch, op_registry):
    calls = []

    def counted(knowledge, universe, role, key_values):
        calls.append((role, frozenset(knowledge.instances)))
        return emission_candidates(knowledge, universe, role, key_values)

    monkeypatch.setattr("comal.verify.emission_candidates", counted)
    protocol = op_registry["OrderingOp"]
    graph = KnowledgeGraph(uod(protocol, op_registry), Bound(key_values=("1", "2")), protocol.out_params)
    graph.build()
    assert len(calls) == len(set(calls)) == len(graph._emission_cache)
    assert graph.cache_hits > len(calls)


def test_graphs_over_different_protocols_share_no_moves():
    """Two protocols with the same roles and the same initial knowledge: a cache
    shared between graphs would hand the second one the first one's moves."""
    twins = [
        parse_protocol("One { roles A, B parameters out k key, out x A -> B: m[out k key, out x] }"),
        parse_protocol(
            """
            Two {
              roles A, B
              parameters out k key, out y, out z
              A -> B: n[out k key, out y]
              B -> A: r[in k key, in y, out z]
            }
            """
        ),
    ]

    def built(p):
        graph = KnowledgeGraph(uod(p), BOUND, p.out_params)
        graph.build()
        return [graph.decode(state) for state in graph.states], graph.edges

    alone = [built(p) for p in twins]
    together = [built(p) for p in twins]
    assert together == alone
    assert [(len(states), sum(map(len, edges))) for states, edges in alone] == [(3, 2), (5, 4)]
    for p, (_, edges) in zip(twins, alone):
        schemas = {s.name for s in p.schemas}
        assert {move[2].schema for out in edges for move, _ in out} == schemas


def _is_complete_reference(emitted, public_out):
    return all(
        any(inst.binding(param) is not None and kb_agree(inst.key_binding, kb) for inst in emitted)
        for kb in {inst.key_binding for inst in emitted}
        for param in public_out
    )


@pytest.mark.parametrize("name", ("Ordering", "OrderingOp", "EscrowOrdering"))
def test_is_complete_matches_rescan(name, op_registry, escrow_ordering):
    """Completeness read off the masks is a rescan's of the emitted
    instances on every state at two key values, and both verdicts occur."""
    protocol, registry = (escrow_ordering, None) if name == "EscrowOrdering" else (op_registry[name], op_registry)
    graph = KnowledgeGraph(uod(protocol, registry), Bound(key_values=("1", "2")), protocol.out_params)
    graph.build()
    verdicts = set()
    for state in graph.states:
        verdict = graph._is_complete(state)
        assert verdict == _is_complete_reference(graph.emitted(state), protocol.out_params)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _pairwise_clash(graph: KnowledgeGraph, state, new) -> str | None:
    """A scan with no masks: ``new`` against every instance sent in ``state``,
    in (schema, bindings) order; the detail of the first that binds a
    parameter of its enactment to another value."""
    sent = [inst for role, seen in zip(graph.roles, graph.decode(state)) for inst in seen if inst.sender == role]
    for inst in sorted(sent, key=_instance_order):
        if not kb_agree(inst.key_binding, new.key_binding):
            continue
        for param, value in inst.bindings:
            if new.binding(param) not in (None, value):
                return (f"parameter {param!r} bound to {value!r} by {inst.schema!r} "
                        f"and to {new.binding(param)!r} by {new.schema!r}")
    return None


def _assert_masks_match_scans(protocol, registry, bound) -> tuple[bool, bool]:
    """On a whole knowledge-set graph, the conflict masks of an emission edge
    meet exactly where a pairwise scan finds a clash, and the safety violation
    is the scan's first on the edges the states were found by, state id and
    detail. Every state's completeness, read off the masks, is a rescan's of
    its emitted instances. Liveness decided on the terminal states, and
    ``check_liveness``, decomposed or not, agree with the backward closure of
    the complete states. A failing report counts the states of the reduced
    graph it read, and its witness is the path there to the first state
    outside that graph's closure, rescanned; the witness ends outside the
    whole graph's closure. Returns whether the graph is safe and whether it
    is live."""
    graph = KnowledgeGraph(uod(protocol, registry), bound, protocol.out_params).complete()
    for sid, out in enumerate(graph.edges):
        for move, _ in (edge for edge in out if edge[0][0] == EMIT):
            gate = graph._emitted_mask(graph.states[sid]) & graph._conflicts[graph._bit[move[2]]]
            assert bool(gate) == (_pairwise_clash(graph, graph.states[sid], move[2]) is not None), (sid, move)
    found = [(tid, _pairwise_clash(graph, graph.states[pid], move[2]))
             for tid, (pid, move) in enumerate(graph.parents[1:], start=1) if move[0] == EMIT]
    assert graph.safety_violation == next(((tid, clash) for tid, clash in found if clash), None)
    verdicts = [graph._is_complete(state) for state in graph.states]
    assert verdicts == [_is_complete_reference(graph.emitted(state), protocol.out_params) for state in graph.states]
    complete = [sid for sid, verdict in enumerate(verdicts) if verdict]
    closure = graph.backward_closure(complete)
    live = len(closure) == len(graph.states)
    assert graph.live_everywhere == live
    assert graph.live == closure
    report = check_liveness(protocol, bound, registry)
    assert report.holds == live
    if not live:
        read = _built(protocol, registry, _read_bound(protocol, registry, bound), reduced=True)
        complete = [sid for sid, state in enumerate(read.states)
                    if _is_complete_reference(read.emitted(state), protocol.out_params)]
        stuck = min(set(range(len(read.states))) - read.backward_closure(complete))
        assert report.witness == {"reach": read.path_to(stuck)}
        assert report.states_explored == len(read.states)
        ids = {graph.decode(state): sid for sid, state in enumerate(graph.states)}
        assert ids[_replayed(graph, report.witness["reach"])] not in closure
    return graph.safety_violation is None, live


MASK_CASES = [
    *((name, k) for name in ("Ordering", "OrderingOp", "EscrowOrdering", "unsafe_toy", "unsafe_relay", "stuck_toy",
                             "empty", "Two") for k in (1, 2)),
    ("EscrowOrderingOp", 1),
]


@pytest.mark.parametrize("name, k", MASK_CASES, ids=lambda case: str(case))
def test_masks_match_scans(name, k, fixtures_dir, op_registry, escrow_op_registry, toys, escrow_ordering, nested_keys):
    """The fixtures at one and two key values (composed escrow at one: its
    two-value graph is the square of 9 595 states). In ``Two`` an enactment
    of ``a``, keyed by k, is completed by ``b``, keyed by k and j: their key
    bindings agree without being equal."""
    if name == "EscrowOrdering":
        protocol, registry = escrow_ordering, None
    elif name == "Two":
        protocol, registry = nested_keys, None
    elif name == "EscrowOrderingOp":
        protocol, registry = escrow_op_registry[name], escrow_op_registry
    elif name == "unsafe_relay":
        protocol, registry = parse_protocol((fixtures_dir / "unsafe_relay.bspl").read_text()), None
    else:
        protocol, registry = _protocol(name, op_registry, toys)
    safe, live = _assert_masks_match_scans(protocol, registry, Bound(key_values=_values(k)))
    assert (safe, live) == (not name.startswith("unsafe"), name != "stuck_toy")


@pytest.mark.parametrize("k", (1, 2))
def test_masks_match_scans_on_random_protocols(k):
    """As above on ``test_interning``'s 30 random protocols (seed 7), all of
    them safe, and on the 30 of the ordered cross-check above (seed 11), one
    of them unsafe: some draws are unsafe and some not live, so neither
    check is vacuous."""
    verdicts = []
    for seed in (7, 11):
        rng = random.Random(seed)
        verdicts += [_assert_masks_match_scans(random_protocol(rng, index), None, Bound(key_values=_values(k)))
                     for index in range(30)]
    assert {safe for safe, _ in verdicts} == {live for _, live in verdicts} == {True, False}


def _assert_agreement_masks_match_pairs(graph: StateSpace) -> int:
    """Each interned instance's agreement and conflict masks, against
    ``kb_agree`` and a binding comparison over every pair of instances; the
    number of agreeing pairs whose key bindings differ is returned."""
    unequal = 0
    for bit, inst in enumerate(graph._instances):
        agree = clash = 0
        for other_bit, other in enumerate(graph._instances):
            if kb_agree(other.key_binding, inst.key_binding):
                agree |= 1 << other_bit
                unequal += other.key_binding != inst.key_binding
                if any(inst.binding(param) not in (None, value) for param, value in other.bindings):
                    clash |= 1 << other_bit
        assert (graph._agree[bit], graph._conflicts[bit]) == (agree, clash), (bit, inst)
    return unequal


@pytest.mark.parametrize("k", (1, 2, 3))
def test_agreement_masks_match_pairwise_checks(k, nested_keys, op_registry, toys):
    """The masks ``_intern`` reads off per-(key parameter, value) masks are a
    pairwise ``kb_agree`` scan's, on ``Two`` (fixture ``nested_keys``),
    OrderingOp, the unsafe toy and 30 random protocols (seed 7), built in
    full or to 2 000 states. In ``Two`` a pair can agree with unequal key
    bindings, so the scan is not only a comparison of equal ones."""
    rng = random.Random(7)
    cases = [(nested_keys, None), *(_protocol(name, op_registry, toys) for name in ("OrderingOp", "unsafe_toy"))]
    cases += [(random_protocol(rng, index), None) for index in range(30)]
    unequal = []
    for protocol, registry in cases:
        graph = KnowledgeGraph(uod(protocol, registry), Bound(_values(k), 2_000), protocol.out_params)
        with suppress(BoundExceeded):
            graph.complete()
        unequal.append(_assert_agreement_masks_match_pairs(graph))
    assert unequal[0] > 0


def test_interning_reads_only_agreeing_instances(ordering):
    """Ordering at 600 key values, cut at 10 states, interns a quote at each
    value in its first expansion, and no two agree. Interning reads fewer than
    10 earlier instances per instance, where comparing each with every one
    before it reads about 300."""

    class Counted(list):
        reads = 0

        def __getitem__(self, index):
            Counted.reads += 1
            return super().__getitem__(index)

        def __iter__(self):
            for item in super().__iter__():
                Counted.reads += 1
                yield item

    graph = KnowledgeGraph(uod(ordering), Bound(_values(600), 10), ordering.out_params)
    graph._instances = Counted()
    with pytest.raises(BoundExceeded):
        graph.build()
    assert len(graph._instances) >= 600
    assert Counted.reads < 10 * len(graph._instances)


def test_build_logs_one_line(caplog, ordering, op_registry, purchase):
    """One line per graph; the timed graph's also gives its moves cache, which
    answers for every state after the first of each tuple of observed sets,
    and its views and lifecycle tables. Views are derived as moves are found;
    tables are worked out by ``alignment``, which a breadth-first build does
    not ask."""
    graph = KnowledgeGraph(uod(ordering), BOUND, ordering.out_params)
    protocol = op_registry["OrderingOp"]
    timed = AlignmentGraph(uod(protocol, op_registry), [purchase], BOUND, punctual=False)
    with caplog.at_level(logging.INFO, logger="comal.verify"):
        graph.build()
        timed.build()
    first, second = caplog.records
    assert first.getMessage() == (
        f"KnowledgeGraph: 23 states, {graph.edge_count()} edges, "
        f"{len(graph._emission_cache)} candidate-cache entries, {graph.cache_hits} hits"
    )
    assert second.getMessage() == (
        f"AlignmentGraph: 2103 states, {timed.edge_count()} edges, "
        f"{len(timed._emission_cache)} candidate-cache entries, {timed.cache_hits} hits, "
        f"43 moves-cache entries, {2103 - 43} hits, 89 views, 0 tables"
    )


def test_reduced_build_logs_say_so(caplog, ordering, op_registry, purchase):
    """A reduced knowledge-set graph and a punctual timed graph end their line
    in ``, reduced to safe deliveries and independent emissions``, after the
    ``"<Graph>: N states"`` prefix and the counts every graph logs."""
    graph = KnowledgeGraph(uod(ordering), BOUND, ordering.out_params, reduced=True)
    protocol = op_registry["OrderingOp"]
    timed = AlignmentGraph(uod(protocol, op_registry), [purchase], BOUND, punctual=True)
    with caplog.at_level(logging.INFO, logger="comal.verify"):
        graph.build()
        timed.build()
    first, second = (record.getMessage() for record in caplog.records)
    assert first == (
        f"KnowledgeGraph: 9 states, {graph.edge_count()} edges, "
        f"{len(graph._emission_cache)} candidate-cache entries, {graph.cache_hits} hits, "
        "reduced to safe deliveries and independent emissions"
    )
    assert second.startswith("AlignmentGraph: 65 states, ")
    assert second.endswith(
        f"moves-cache entries, {timed.moves_hits} hits, 16 views, 0 tables, "
        "reduced to safe deliveries and independent emissions"
    )


def test_alignment_check_logs_its_caches_after_the_pass(caplog, escrow_op_registry, escrow_commitments):
    """A breadth-first build logs its line before alignment is asked, so its
    ``tables`` field reads 0; ``check_alignment_reachability`` logs a second
    line after the pass, with the lifecycle tables, misalignment counts and
    next changes then cached. Punctual composed escrow: 36 views, then 75
    tables and 34 next changes, as the module docstring says."""
    protocol = escrow_op_registry["EscrowOrderingOp"]
    specs = list(escrow_commitments.values())
    with caplog.at_level(logging.INFO, logger="comal.verify"):
        report = check_alignment_reachability(protocol, specs, BOUND, True, escrow_op_registry)
    build, after = (record.getMessage() for record in caplog.records)
    assert report.holds and build.startswith("AlignmentGraph: 288 states, ")
    assert build.endswith("36 views, 0 tables, reduced to safe deliveries and independent emissions")
    assert after == "AlignmentGraph: 75 tables, 126 counts, 34 next changes after the punctual check"


def _graph_record(graph: KnowledgeGraph) -> tuple:
    return (graph.states, graph.parents, graph.edges, list(graph._emission_cache), graph.cache_hits,
            graph.safety_violation)


def _assert_resumed_equals_uninterrupted(protocol, registry, bound, reduced=False) -> bool:
    """A graph stopped at its safety violation and then completed records what
    one built without stopping records: states, parents, edges, emission-cache
    keys, cache hits and the violation. Returns whether the build stopped early."""
    universe = uod(protocol, registry)
    resumed = KnowledgeGraph(universe, bound, protocol.out_params, reduced)
    resumed.build()
    stopped = resumed._expanded < len(resumed.states)
    assert resumed.complete() is resumed
    whole = KnowledgeGraph(universe, bound, protocol.out_params, reduced).complete()
    assert _graph_record(resumed) == _graph_record(whole)
    return stopped


@pytest.mark.parametrize("reduced", (False, True), ids=("full", "reduced"))
@pytest.mark.parametrize("name, k", (("unsafe_toy", 1), ("unsafe_relay", 1), ("unsafe_relay", 2), ("unsafe_relay", 3)))
def test_resumed_build_equals_uninterrupted(name, k, reduced, fixtures_dir):
    protocol = parse_protocol((fixtures_dir / f"{name}.bspl").read_text())
    assert _assert_resumed_equals_uninterrupted(protocol, None, Bound(key_values=_values(k)), reduced)


def _made_unsafe(protocol, rng: random.Random):
    """``protocol`` with a schema that binds a non-key parameter made to bind
    every parameter ``out``, and a copy of it sent by another role: both are
    enabled at the start and bind that parameter to different values. None
    when no schema binds a non-key parameter."""
    chosen = [i for i, s in enumerate(protocol.references) if not all(d.key for d in s.params)]
    if not chosen:
        return None
    i = rng.choice(chosen)
    schema = protocol.references[i]
    schema = replace(schema, params=tuple(replace(d, adornment=OUT) for d in schema.params))
    sender = rng.choice([r for r in protocol.roles if r != schema.sender])
    receiver = rng.choice([r for r in protocol.roles if r != sender])
    copy = replace(schema, name=schema.name + "Again", sender=sender, receiver=receiver)
    return replace(protocol, references=protocol.references[:i] + (schema, copy) + protocol.references[i + 1:])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from((1, 2)), reduced=st.booleans())
def test_resumed_build_equals_uninterrupted_on_random_protocols(seed, k, reduced):
    """As above on Hypothesis-drawn random protocols, each made unsafe, so
    that every build is stopped and resumed; those too large to enumerate
    are skipped."""
    rng = random.Random(seed)
    protocol = _made_unsafe(random_protocol(rng, 0), rng)
    assume(protocol is not None)
    try:
        assert _assert_resumed_equals_uninterrupted(protocol, None, Bound(_values(k), max_states=5_000), reduced)
    except BoundExceeded:
        assume(False)


# States expanded per check; in parentheses, what each cost while a failing
# reduced graph was rebuilt in full for its witness and a failing one-value
# graph sent the check to the k-value full graph. Each protocol here is
# unsafe or not live, and unsafe_relay's one-value graph, reduced or not, is
# one run of 9 states.
EXPANSIONS = {
    "safety-and-liveness-unsafe_relay-2": (check_safety_and_liveness, "unsafe_relay", 2, 9),  # (88)
    "safety-and-liveness-unsafe_relay-1": (check_safety_and_liveness, "unsafe_relay", 1, 9),  # (16)
    "liveness-unsafe_relay-3": (check_liveness, "unsafe_relay", 3, 9),  # (736)
    "liveness-stuck_toy-2": (check_liveness, "stuck_toy", 2, 3),  # (12)
    "embedding-unsafe_relay-2": (lambda p, bound: check_embedding(p, p, bound), "unsafe_relay", 2, 9),  # (88)
}


@pytest.mark.parametrize("case", EXPANSIONS)
def test_checks_expand_each_state_of_a_graph_once(case, monkeypatch, fixtures_dir):
    """A check builds one graph, once: a graph its safety violation stopped
    is resumed for liveness, and a one-value graph answers for k values
    whatever its verdict."""
    check, name, k, expanded = EXPANSIONS[case]
    calls = []
    expand = comal.verify.StateSpace._expand

    def counted(graph, sid):
        calls.append(sid)
        return expand(graph, sid)

    monkeypatch.setattr(comal.verify.StateSpace, "_expand", counted)
    check(parse_protocol((fixtures_dir / f"{name}.bspl").read_text()), Bound(key_values=_values(k)))
    assert len(calls) == expanded


def _reverse_closure(graph, seeds) -> set[int]:
    """The states with a path to one of ``seeds``, over reverse adjacency lists."""
    reverse: list[list[int]] = [[] for _ in graph.states]
    for sid, out in enumerate(graph.edges):
        for _, tid in out:
            reverse[tid].append(sid)
    closed, stack = set(seeds), list(seeds)
    while stack:
        for pred in reverse[stack.pop()]:
            if pred not in closed:
                closed.add(pred)
                stack.append(pred)
    return closed


@pytest.mark.parametrize("kind", ("knowledge", "reduced", "ordered"))
def test_backward_closure_in_one_pass_on_random_protocols(kind):
    """Every move adds an observation, so every stored edge of a knowledge-set
    graph, reduced or not, and of an ordered graph leads to a later state, and
    the one-pass closure is the reverse-adjacency one, from the complete
    states and from random ones; both find states beyond their seeds."""
    rng = random.Random(32)
    grown = 0
    for index in range(30):
        protocol = random_protocol(rng, index)
        bound = Bound(_values(rng.choice((1, 2))), max_states=5_000)
        if kind == "ordered":
            graph = EnactmentGraph(uod(protocol), bound)
            build = graph.build
        else:
            graph = KnowledgeGraph(uod(protocol), bound, protocol.out_params, reduced=kind == "reduced")
            build = graph.complete
        try:
            build()
        except BoundExceeded:
            continue
        assert all(tid > sid for sid, out in enumerate(graph.edges) for _, tid in out)
        complete = [sid for sid, state in enumerate(graph.states)
                    if _is_complete_reference(graph.emitted(state), protocol.out_params)]
        for seeds in (complete, rng.sample(range(len(graph.states)), min(3, len(graph.states)))):
            closure = graph.backward_closure(seeds)
            assert closure == _reverse_closure(graph, seeds)
            grown += len(closure) > len(seeds)
    assert grown >= 5, grown
