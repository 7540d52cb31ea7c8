"""The knowledge-set and timed graphs intern what they store: a knowledge-set
state is a tuple of per-role instance masks, and a timed state a tuple of
per-role masks of (instance, phase) pairs, with the phase; the ordered graph
keeps the plain encoding. A reference breadth-first search over the plain
encoding must find the same states, numbered alike, with the same edges:
per-role frozensets of instances (knowledge-set graph), per-role observation
tuples (ordered graph), and per-role frozensets of (instance, phase) with the
phase (timed graph). The reference memoizes candidates and next changes on
plain sets, as a graph without interning would. The ordered graph delivers in
any order; its states and edges also contain every run of the reference under
FIFO delivery, the simulator's other order, so a check that holds on it holds
under FIFO. The reduced graphs, punctual timed and reduced knowledge-set,
which expand a safe delivery or an independent forward's emission alone where
there is one, are subgraphs of the reference with the same terminal states and
verdicts. The timed reference also runs on random commitments, in
``test_verify.test_timed_graph_matches_plain_encoding_on_random_protocols``."""

from __future__ import annotations

import random

import pytest
from test_protocol import random_protocol

from comal.commitments import parse_commitments
from comal.enactment import EMIT, RECV, emission_candidates, knowledge_from, model_of
from comal.protocol import parse_protocol, parse_protocols, uod
from comal.semantics import (
    INF,
    EvaluationContext,
    check_alignment_models,
    lifecycle_table,
    next_change,
    window_anchors,
)
from comal.synthesis import SynthesisMode, compose_operationalization, forwarding_registry, synthesize_alignment_protocol
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


def _untimed_successors(graph, ordered: bool, fifo: bool):
    """The reference move rule on plain per-role tuples (``ordered``) or
    frozensets of instances."""
    candidates = {}

    def successors(state):
        known = [list(s) if ordered else sorted(s, key=_instance_order) for s in state]
        out = []
        for ri, move in _moves(graph, known, fifo, candidates):
            grown = state[ri] + (move[2],) if ordered else state[ri] | {move[2]}
            out.append((move, state[:ri] + (grown,) + state[ri + 1:]))
        return out

    return successors


def _reference_untimed(graph, ordered: bool, fifo: bool):
    empty = () if ordered else frozenset()
    return _bfs((empty,) * len(graph.roles), _untimed_successors(graph, ordered, fifo))


def _timed_successors(graph: AlignmentGraph):
    """The reference timed move rule on plain per-role frozensets of
    (instance, phase) with the phase, unreduced."""
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

    return successors


def _reference_timed(graph: AlignmentGraph):
    return _bfs((tuple(frozenset() for _ in graph.roles), 0), _timed_successors(graph))


def _assert_matches(graph, reference) -> None:
    states, edges = reference
    assert len(graph.states) == len(states)
    assert [graph.decode(state) for state in graph.states] == states
    assert graph.edges == edges


def _plain(graph):
    return [graph.decode(state) for state in graph.states], graph.edges


def _assert_contains(outer, inner) -> None:
    """Every state and edge of ``inner`` is one of ``outer``'s; each is a
    (states, edges) pair."""
    ids = {state: sid for sid, state in enumerate(outer[0])}
    states, edges = inner
    for state, out in zip(states, edges):
        assert {(move, ids[states[tid]]) for move, tid in out} <= set(outer[1][ids[state]])


def _terminals(states, edges) -> set:
    return {state for state, out in zip(states, edges) if not out}


def _theorem2_holds(graph: AlignmentGraph, states, edges) -> bool:
    """Whether no terminal state of the plain ``states`` is misaligned, with
    tables evaluated on each role's whole model."""
    fwd = forwarding_registry(graph.universe)
    for (sets, phase), out in zip(states, edges):
        if out:
            continue
        for c in graph.commitments:
            debtor, creditor = (
                lifecycle_table(c, EvaluationContext(model_of(sets[graph.role_index[role]], fwd), phase))
                for role in (c.debtor, c.creditor)
            )
            if check_alignment_models(c, debtor, creditor).misalignments:
                return False
    return True


def _assert_reduced(graph: AlignmentGraph, reference) -> None:
    """The punctual graph expands only a safe delivery, or else an independent
    forward's emission, where there is one: it is a subgraph of the full
    ``reference`` with the same terminal states, and its own Theorem 2 verdict
    is the reference's."""
    reduced = _plain(graph)
    _assert_contains(reference, reduced)
    assert _terminals(*reduced) == _terminals(*reference)
    holds = not any(any(graph.alignment(state)) for state, out in zip(graph.states, graph.edges) if not out)
    assert holds == _theorem2_holds(graph, *reference)


def _check_untimed(protocol, registry, setting) -> None:
    universe = uod(protocol, registry)
    if setting in ("any", "fifo"):
        graph = EnactmentGraph(universe, Bound())
        graph.build()
        reference = _reference_untimed(graph, ordered=True, fifo=setting == "fifo")
        if setting == "any":
            _assert_matches(graph, reference)
        else:
            _assert_contains(_plain(graph), reference)
    else:
        graph = KnowledgeGraph(universe, Bound(key_values=setting), protocol.out_params)
        graph.build()
        _assert_matches(graph, _reference_untimed(graph, ordered=False, fifo=False))


UNTIMED = [("1",), ("1", "2"), "any", "fifo"]
FIXTURES = ("Ordering", "OrderingOp", "EscrowOrdering", "Chan", "Two", "unsafe_toy", "stuck_toy", "empty")


def _fixture(name, fixtures_dir, op_registry, chan, nested_keys, escrow_ordering):
    """A ``FIXTURES`` protocol by name, with the registry it needs."""
    if name in op_registry:
        return op_registry[name], op_registry
    if name in ("Chan", "Two", "EscrowOrdering"):
        return {"Chan": chan, "Two": nested_keys, "EscrowOrdering": escrow_ordering}[name], None
    return parse_protocol((fixtures_dir / f"{name}.bspl").read_text()), None


@pytest.mark.parametrize("setting", UNTIMED, ids=lambda s: s if isinstance(s, str) else f"keys{len(s)}")
@pytest.mark.parametrize("name", FIXTURES)
def test_untimed_graphs_match_plain_encoding(name, setting, fixtures_dir, op_registry, chan, nested_keys, escrow_ordering):
    _check_untimed(*_fixture(name, fixtures_dir, op_registry, chan, nested_keys, escrow_ordering), setting)


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
    reference = _reference_timed(graph)
    if punctual:
        _assert_reduced(graph, reference)
        assert len(graph.states) < len(reference[0])
    else:
        _assert_matches(graph, reference)


LITERAL_FAILS = """
Relay {
  roles B, C, D
  parameters out id key, out v0, out v1, out v2, out v3
  B -> C: m0[out id key, out v0]
  D -> C: m1[in id key, out v1]
  B -> D: m2[in id key, out v2]
  C -> B: m3[in id key, out v3]
}
"""
LITERAL_FAILS_COMMITMENT = "commitment Late D to C create m3 detach m2 discharge m2[, m0 + 7]"

# Unsafe: with ``offer`` in flight, B may still bind x by ``counter``, so that
# delivery is not safe; ``start`` carries only k and is.
RACE = """
Race {
  roles A, B
  parameters out k key, out x, out y
  A -> B: start[out k key]
  A -> B: offer[in k key, out x]
  B -> A: counter[in k key, out x, out y]
}
"""
RACE_COMMITMENT = "commitment Deal A to B create start detach counter[, start + 3] discharge offer"


def _composition(base, specs, mode=SynthesisMode.LITERAL):
    """``base`` composed with the aligners of ``specs`` synthesized in
    ``mode``, and the registry the composition needs."""
    aligners = [synthesize_alignment_protocol(c, base, mode) for c in specs]
    composed = compose_operationalization(base, aligners)
    return composed, {p.name: p for p in (composed, base, *aligners)}


@pytest.mark.parametrize("name", ("EscrowOrderingOp", "escrow-literal", "relay-literal", "race"))
def test_reduction_keeps_terminal_states(name, fixtures_dir, escrow_ordering, escrow_commitments):
    """Punctual composed escrow (complete aligners), escrow with literal
    aligners, a literal composition whose Theorem 2 fails, and an unsafe
    protocol whose receiver can bind a parameter of a message in flight."""
    if name == "EscrowOrderingOp":
        registry = parse_protocols((fixtures_dir / "escrow_ordering_op.bspl").read_text())
        universe, specs = uod(registry[name], registry), list(escrow_commitments.values())
    elif name == "race":
        universe, specs = uod(parse_protocol(RACE)), list(parse_commitments(RACE_COMMITMENT).values())
    else:
        base, specs = escrow_ordering, list(escrow_commitments.values())
        if name == "relay-literal":
            base = parse_protocol(LITERAL_FAILS)
            specs = list(parse_commitments(LITERAL_FAILS_COMMITMENT).values())
        universe = uod(*_composition(base, specs))
    graph = AlignmentGraph(universe, specs, Bound(), punctual=True)
    graph.build()
    _assert_reduced(graph, _reference_timed(graph))


def _assert_knowledge_reduced(protocol, registry, bound: Bound) -> tuple[bool, bool, int, int]:
    """The reduced knowledge-set graph is a subgraph of the full one, with the
    same terminal states, safety verdict and ``live_everywhere``. Returns
    whether the protocol is safe and whether it is live, and the reduced and
    full state counts."""
    universe = uod(protocol, registry)
    full, reduced = (KnowledgeGraph(universe, bound, protocol.out_params, r) for r in (False, True))
    full.build()
    reduced.build()
    _assert_contains(_plain(full), _plain(reduced))
    assert _terminals(*_plain(reduced)) == _terminals(*_plain(full))
    assert (reduced.safety_violation is None) == (full.safety_violation is None)
    assert reduced.live_everywhere == full.live_everywhere
    return full.safety_violation is None, full.live_everywhere, len(reduced.states), len(full.states)


# Reduced and full state counts, so that a rule that reduces less is caught too.
REDUCED_COUNTS = {
    ("1",): {"Ordering": (17, 23), "OrderingOp": (23, 43), "EscrowOrdering": (25, 35),
             "EscrowOrderingOp": (230, 9595)},
    ("1", "2"): {"Ordering": (240, 529), "OrderingOp": (429, 1849), "EscrowOrdering": (481, 1225)},
}


@pytest.mark.parametrize("key_values", (("1",), ("1", "2")), ids=("keys1", "keys2"))
def test_knowledge_reduction_keeps_terminal_states(
    key_values, fixtures_dir, op_registry, chan, nested_keys, escrow_ordering
):
    """The fixtures, composed escrow at one key value (its two-value graph is
    the square of 9 595 states), ``RACE``, whose ``offer`` is an unsafe
    delivery, ``LITERAL_FAILS`` with its literal aligner, and 30 random
    protocols each from seeds 7 and 11. Safe and unsafe, live and not live
    all occur."""
    cases = {name: _fixture(name, fixtures_dir, op_registry, chan, nested_keys, escrow_ordering) for name in FIXTURES}
    if key_values == ("1",):
        registry = parse_protocols((fixtures_dir / "escrow_ordering_op.bspl").read_text())
        cases["EscrowOrderingOp"] = registry["EscrowOrderingOp"], registry
    cases["Race"] = parse_protocol(RACE), None
    cases["relay-literal"] = _composition(
        parse_protocol(LITERAL_FAILS), parse_commitments(LITERAL_FAILS_COMMITMENT).values()
    )
    for seed in (7, 11):
        rng = random.Random(seed)
        cases.update((f"random-{seed}-{index}", (random_protocol(rng, index), None)) for index in range(30))
    results = {name: _assert_knowledge_reduced(*case, Bound(key_values=key_values)) for name, case in cases.items()}
    assert {safe for safe, *_ in results.values()} == {live for _, live, *_ in results.values()} == {True, False}
    assert {name: results[name][2:] for name in REDUCED_COUNTS[key_values]} == REDUCED_COUNTS[key_values]
