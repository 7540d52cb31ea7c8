"""The explorers intern each role's knowledge and keep every state as a tuple
of knowledge ids. A reference breadth-first search over the plain encoding
must find the same states, numbered alike, with the same edges: per-role
frozensets of instances (knowledge-set graph), per-role observation tuples
(ordered graph), and per-role frozensets of (instance, phase) with the phase
(timed graph). The reference memoizes candidates and next changes on plain
sets, as a graph without interning would. The ordered graph delivers in any
order; its states and edges also contain every run of the reference under
FIFO delivery, the simulator's other order, so a check that holds on it
holds under FIFO."""

from __future__ import annotations

import random

import pytest
from test_protocol import random_protocol

from comal.enactment import EMIT, RECV, emission_candidates, knowledge_from, model_of
from comal.protocol import parse_protocol, parse_protocols, uod
from comal.semantics import INF, EvaluationContext, next_change, window_anchors
from comal.synthesis import forwarding_registry
from comal.verify import AlignmentGraph, Bound, EnactmentGraph, KnowledgeGraph


@pytest.fixture(scope="module")
def op_registry(fixtures_dir):
    return parse_protocols((fixtures_dir / "ordering_op.bspl").read_text())


def _bfs(initial, successors):
    states, index, edges = [initial], {initial: 0}, []
    for state in states:  # grows while iterated: breadth-first order
        out = []
        for move, succ in successors(state):
            if succ not in index:
                index[succ] = len(states)
                states.append(succ)
            out.append((move, index[succ]))
        edges.append(out)
    return states, edges


def _instance_order(inst):
    return (inst.schema, inst.bindings)


def _moves(graph, known, fifo, candidates):
    """Emissions per role, then deliveries of every sent instance its receiver
    has not observed (with ``fifo``, the first per channel), each with the
    index of the observing role."""
    moves = []
    for ri, role in enumerate(graph.roles):
        key = (role, frozenset(known[ri]))
        if key not in candidates:
            knowledge = knowledge_from(known[ri], role)
            candidates[key] = emission_candidates(knowledge, graph.universe, role, graph.bound.key_values)
        moves += [(ri, (EMIT, role, inst)) for inst in candidates[key]]
    observed = {role: set(seen) for role, seen in zip(graph.roles, known)}
    channels = set()
    for role, seen in zip(graph.roles, known):
        for inst in seen:
            if inst.sender != role or inst in observed[inst.receiver]:
                continue
            if fifo:
                if (inst.sender, inst.receiver) in channels:
                    continue
                channels.add((inst.sender, inst.receiver))
            moves.append((graph.roles.index(inst.receiver), (RECV, inst.receiver, inst)))
    return moves


def _reference_untimed(graph, ordered: bool, fifo: bool):
    candidates = {}

    def successors(state):
        known = [list(s) if ordered else sorted(s, key=_instance_order) for s in state]
        out = []
        for ri, move in _moves(graph, known, fifo, candidates):
            grown = state[ri] + (move[2],) if ordered else state[ri] | {move[2]}
            out.append((move, state[:ri] + (grown,) + state[ri + 1:]))
        return out

    empty = () if ordered else frozenset()
    return _bfs((empty,) * len(graph.roles), successors)


def _reference_timed(graph: AlignmentGraph):
    fwd = forwarding_registry(graph.universe)
    anchors = window_anchors(graph.commitments)
    candidates, changes = {}, {}

    def change(entries, phase):
        if (entries, phase) not in changes:
            ctx = EvaluationContext(model_of(entries, fwd), phase)
            changes[entries, phase] = next_change(anchors, ctx)
        return changes[entries, phase]

    def successors(state):
        sets, phase = state
        known = [sorted((inst for inst, _ in s), key=_instance_order) for s in sets]
        moves = _moves(graph, known, False, candidates)
        out = [
            (move, (sets[:ri] + (sets[ri] | {(move[2], phase)},) + sets[ri + 1:], phase))
            for ri, move in moves
        ]
        boundary = min((change(s, phase) for s in sets), default=INF)
        blocked = graph.punctual and any(kind == RECV or inst.schema in fwd for _, (kind, _, inst) in moves)
        if boundary < INF and not blocked:
            out.append((("lapse", boundary), (sets, boundary)))
        return out

    return _bfs((tuple(frozenset() for _ in graph.roles), 0), successors)


def _assert_matches(graph, reference) -> None:
    states, edges = reference
    assert len(graph.states) == len(states)
    assert [graph.decode(state) for state in graph.states] == states
    assert graph.edges == edges


def _assert_contains(graph, reference) -> None:
    """Every state and edge of ``reference`` is one of ``graph``'s."""
    states, edges = reference
    ids = {graph.decode(state): sid for sid, state in enumerate(graph.states)}
    for state, out in zip(states, edges):
        assert {(move, ids[states[tid]]) for move, tid in out} <= set(graph.edges[ids[state]])


def _check_untimed(protocol, registry, setting) -> None:
    universe = uod(protocol, registry)
    if setting in ("any", "fifo"):
        graph = EnactmentGraph(universe, Bound())
        graph.build()
        check = _assert_matches if setting == "any" else _assert_contains
        check(graph, _reference_untimed(graph, ordered=True, fifo=setting == "fifo"))
    else:
        graph = KnowledgeGraph(universe, Bound(key_values=setting), protocol.out_params)
        graph.build()
        _assert_matches(graph, _reference_untimed(graph, ordered=False, fifo=False))


UNTIMED = [("1",), ("1", "2"), "any", "fifo"]
FIXTURES = ("Ordering", "OrderingOp", "EscrowOrdering", "Chan", "Two", "unsafe_toy", "stuck_toy", "empty")


@pytest.mark.parametrize("setting", UNTIMED, ids=lambda s: s if isinstance(s, str) else f"keys{len(s)}")
@pytest.mark.parametrize("name", FIXTURES)
def test_untimed_graphs_match_plain_encoding(name, setting, fixtures_dir, op_registry, chan, nested_keys, escrow_ordering):
    if name in op_registry:
        protocol, registry = op_registry[name], op_registry
    elif name in ("Chan", "Two", "EscrowOrdering"):
        protocol, registry = {"Chan": chan, "Two": nested_keys, "EscrowOrdering": escrow_ordering}[name], None
    else:
        protocol, registry = parse_protocol((fixtures_dir / f"{name}.bspl").read_text()), None
    _check_untimed(protocol, registry, setting)


@pytest.mark.parametrize("setting", UNTIMED, ids=lambda s: s if isinstance(s, str) else f"keys{len(s)}")
def test_untimed_graphs_match_plain_encoding_on_random_protocols(setting):
    rng = random.Random(7)
    for index in range(30):
        _check_untimed(random_protocol(rng, index), None, setting)


@pytest.mark.parametrize("punctual", (True, False), ids=("punctual", "unrestricted"))
@pytest.mark.parametrize("name", ("OrderingOp", "bare-escrow"))
def test_timed_graph_matches_plain_encoding(name, punctual, op_registry, purchase, escrow_ordering, escrow_commitments):
    if name == "OrderingOp":
        universe, specs = uod(op_registry[name], op_registry), [purchase]
    else:
        universe, specs = uod(escrow_ordering), [escrow_commitments["EscrowPurchase"]]
    graph = AlignmentGraph(universe, specs, Bound(), punctual)
    graph.build()
    _assert_matches(graph, _reference_timed(graph))
