"""The knowledge-set and timed graphs intern what they store: a knowledge-set
state is a tuple of per-role instance masks, and a timed state a tuple of
per-role instance masks and view-id tuples with the phase; the ordered graph
keeps the plain encoding. A reference breadth-first search over the plain
encoding must find the same states, numbered alike, with the same edges:
per-role frozensets of instances (knowledge-set graph) and per-role
observation tuples (ordered graph). The reference memoizes candidates and next
changes on plain sets, as a graph without interning would. The ordered graph
delivers in any order; its states and edges also contain every run of the
reference under FIFO delivery, the simulator's other order, so a check that
holds on it holds under FIFO.

The timed reference runs on per-role frozensets of (instance, phase) with the
phase. The timed graph explores it up to what its checks read: a plain state's
*class* is each role's instance set, each role's model restricted to each read
set (the window anchors' base-event names, then each commitment's), and the
phase. States of one class have the same moves, lapse and tables, and their
successors are of the same classes; this is checked on every plain state. The
timed graph must be the breadth-first quotient of the reference: each class
once, numbered by its first member in breadth-first order, with that member's
parent and edges. The reduced graphs, punctual timed and reduced
knowledge-set, which expand a safe delivery or an independent emission (in
the timed graph, a forward's) alone where there is one, are subgraphs of the
reference with the same terminal states and verdicts; the punctual timed
graph is the quotient of the reference reduced so. The timed reference also
runs on random commitments, in
``test_verify.test_timed_graph_matches_plain_encoding_on_random_protocols``."""

from __future__ import annotations

import random

import pytest
from test_protocol import random_protocol

from comal.commitments import parse_commitments
from comal.enactment import (
    EMIT,
    RECV,
    Model,
    check_viable,
    emission_candidates,
    knowledge_from,
    model_of,
    observation_from_json,
    vector_from_records,
)
from comal.protocol import parse_protocol, parse_protocols, uod
from comal.semantics import (
    INF,
    EvaluationContext,
    base_event_names,
    check_alignment_models,
    lifecycle_table,
    next_change,
    window_anchors,
)
from comal.synthesis import SynthesisMode, compose_operationalization, forwarding_registry, synthesize_alignment_protocol
from comal.verify import AlignmentGraph, Bound, EnactmentGraph, KnowledgeGraph, check_safety_and_liveness


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
    has not observed, by sender in role order, then in (schema, bindings)
    order (with ``fifo``, the first per channel in emission order), each with
    the index of the observing role."""
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
        sent = [inst for inst in seen if inst.sender == role]
        for inst in sent if fifo else sorted(sent, key=_instance_order):
            if inst in observed[inst.receiver]:
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
        blocked = graph.reduced and any(kind == RECV or inst.schema in fwd for _, (kind, _, inst) in moves)
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


def _reduced_edges(graph, edges):
    """``edges`` as a reduced graph expands them: the first delivery whose
    parameters are ``out`` in no schema its receiver sends, alone, where there
    is one; otherwise the first emission of an independent forward, alone,
    where there is one. A forward is independent when no other schema has its
    ``out`` parameters ``out``, its sender receives none of them, and each of
    its non-key ``in`` parameters is ``out`` in one schema at most."""
    schemas = graph.universe.schemas
    outs = {role: {p for s in schemas if s.sender == role for p in s.outs} for role in graph.roles}
    binders = [p for s in schemas for p in s.outs]
    forwards = forwarding_registry(graph.universe)

    def independent(schema):
        return (
            schema.name in forwards
            and all(binders.count(p) == 1 for p in schema.outs)
            and not any(set(s.param_names) & set(schema.outs) for s in schemas if s.receiver == schema.sender)
            and all(binders.count(p) <= 1 for p in schema.ins if p not in schema.keys)
        )

    safe = [
        (move, succ) for move, succ in edges
        if move[0] == RECV and outs[move[1]].isdisjoint(graph.universe.schema(move[2].schema).param_names)
    ]
    forward = [
        (move, succ) for move, succ in edges if move[0] == EMIT and independent(graph.universe.schema(move[2].schema))
    ]
    return safe[:1] or forward[:1] or edges


def _reference_reduced(graph: AlignmentGraph):
    """``_reference_timed`` expanding only what ``_reduced_edges`` keeps."""
    successors = _timed_successors(graph)
    return _bfs((tuple(frozenset() for _ in graph.roles), 0), lambda state: _reduced_edges(graph, successors(state)))


def _classes(graph: AlignmentGraph):
    """The class of a plain timed state: each role's instance set, its
    model's entries of each read set's names, the window anchors' then each
    commitment's, and the phase. Models are memoized on plain sets."""
    fwd = forwarding_registry(graph.universe)
    read_sets = (
        base_event_names(anchor for anchor, _ in window_anchors(graph.commitments) if anchor is not None),
        *(base_event_names((c.create, c.detach, c.discharge)) for c in graph.commitments),
    )
    views = {}

    def role_views(pairs):
        if pairs not in views:
            entries = model_of(pairs, fwd).entries
            views[pairs] = tuple(Model(tuple(e for e in entries if e.name in reads)) for reads in read_sets)
        return views[pairs]

    def cls(state):
        sets, phase = state
        return tuple(frozenset(inst for inst, _ in s) for s in sets), tuple(map(role_views, sets)), phase

    return cls


def _assert_quotient(graph: AlignmentGraph, reference) -> None:
    """``graph`` is the breadth-first quotient of the plain ``reference``:
    every plain state's edges lead, move by move, to the classes its class's
    first member's lead to, and the graph's decoded states, parents and edges
    are those of each class's first member, numbered in breadth-first order."""
    states, edges = reference
    cls = _classes(graph)
    classes = [cls(state) for state in states]
    index: dict = {}
    firsts = []
    for sid, c in enumerate(classes):
        if index.setdefault(c, len(firsts)) == len(firsts):
            firsts.append(sid)
    quotient_edges = [[(move, index[classes[tid]]) for move, tid in out] for out in edges]
    for sid, out in enumerate(quotient_edges):
        assert out == quotient_edges[firsts[index[classes[sid]]]], sid
    parents: list = [None] * len(states)
    for sid, out in enumerate(edges):
        for move, tid in out:
            if tid and parents[tid] is None:
                parents[tid] = (sid, move)
    assert [graph.decode(state) for state in graph.states] == [classes[sid] for sid in firsts]
    assert graph.parents == [
        None if parents[sid] is None else (index[classes[parents[sid][0]]], parents[sid][1]) for sid in firsts
    ]
    assert graph.edges == [quotient_edges[sid] for sid in firsts]


def _replay(graph: AlignmentGraph, sid: int):
    """The plain timed state ``graph.path_to(sid)`` reaches: each role's
    observations paired with the phase of each, and the phase."""
    sets = [set() for _ in graph.roles]
    phase = 0
    for record in graph.path_to(sid):
        if "lapse" in record:
            phase = record["lapse"]
        else:
            obs = observation_from_json(record, graph.universe)
            sets[graph.role_index[obs.role]].add((obs.instance, phase))
    return tuple(map(frozenset, sets)), phase


def _assert_replays(graph: AlignmentGraph) -> int:
    """Every state decodes to the class of its ``path_to`` replay: each role's
    instances, its views, the entries of the replay's whole model with each
    read set's names, and the phase. Returns the number of roles' views
    compared, one per role per state."""
    cls = _classes(graph)
    for sid, state in enumerate(graph.states):
        assert graph.decode(state) == cls(_replay(graph, sid)), sid
    return len(graph.states) * len(graph.roles)


def _assert_reduced(graph: AlignmentGraph, reference) -> None:
    """The punctual graph expands only a safe delivery, or else an independent
    forward's emission, where there is one: the plain reference reduced so is
    a subgraph of the full ``reference`` with the same terminal states, the
    graph is its quotient, and the graph's Theorem 2 verdict is the full
    reference's."""
    reduced = _reference_reduced(graph)
    _assert_contains(reference, reduced)
    assert _terminals(*reduced) == _terminals(*reference)
    _assert_quotient(graph, reduced)
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
        graph = KnowledgeGraph(universe, Bound(key_values=setting), protocol.out_params).complete()
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
        _assert_quotient(graph, reference)


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

# ``s`` meets conditions (b) and (d) of an independent emission, not (c): its
# sender hears ``p`` back by ``t``, keyed by ``m`` alone, so ``t`` agrees with
# ``s`` at every key value. At two values, receiving ``t`` before sending ``s``
# at the second value disables it there; expanding ``s`` alone would lose the
# terminal states where A never sends it.
ECHO = """
Echo {
  roles A, B
  parameters out k key, out m key, out p, out q
  A -> B: s[out k key, out p]
  B -> A: u[out m key, out q]
  B -> A: t[in m key, in p]
}
"""


def _composition(base, specs, mode=SynthesisMode.LITERAL):
    """``base`` composed with the aligners of ``specs`` synthesized in
    ``mode``, and the registry the composition needs."""
    aligners = [synthesize_alignment_protocol(c, base, mode) for c in specs]
    composed = compose_operationalization(base, aligners)
    return composed, {p.name: p for p in (composed, base, *aligners)}


def _fan(n: int):
    """The fan protocol of ``n`` messages composed with the complete-mode
    aligner of ``P``, and the registry the composition needs. ``m0`` from A to
    B starts an enactment; each later message is independent of the others:
    ``m_i`` goes from C to A when i mod 3 is 2, and otherwise from B to C,
    reading ``x0``."""
    messages = ["A -> B: m0[out k key, out x0]"] + [
        f"C -> A: m{i}[in k key, out x{i}]" if i % 3 == 2 else f"B -> C: m{i}[in k key, in x0, out x{i}]"
        for i in range(1, n)
    ]
    params = ", ".join(["out k key", *(f"out x{i}" for i in range(n))])
    base = parse_protocol(f"Fan{n} {{\n  roles A, B, C\n  parameters {params}\n  " + "\n  ".join(messages) + "\n}\n")
    commitment = f"commitment P A to B create m0 detach m1[, m0 + 10] discharge m{n - 1}[, m1 + 5]"
    return _composition(base, parse_commitments(commitment).values(), SynthesisMode.COMPLETE)


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
    _assert_replays(graph)


def _assert_unsafe_run(records, universe) -> None:
    """The witness ``records`` replay as a viable run on every prefix but the
    whole, which breaks key integrity."""
    for end in range(len(records)):
        assert check_viable(vector_from_records(records[:end], universe), universe) is None, end
    violation = check_viable(vector_from_records(records, universe), universe)
    assert violation is not None and violation.rule == "c", violation


def _replayed(graph: KnowledgeGraph, records) -> tuple[frozenset, ...]:
    """Each role's knowledge set after the witness ``records``."""
    sets = [set() for _ in graph.roles]
    for record in records:
        obs = observation_from_json(record, graph.universe)
        sets[graph.role_index[obs.role]].add(obs.instance)
    return tuple(map(frozenset, sets))


def _assert_knowledge_reduced(protocol, registry, bound: Bound) -> tuple[bool, bool, int, int]:
    """The reduced knowledge-set graph is a subgraph of the full one, with the
    same terminal states, safety verdict and ``live_everywhere``; the checks
    report on it alone. Its safety witness is an unsafe run, and each of its
    states has a completing extension exactly when it has one in the full
    graph, so its liveness witness, the first state outside ``live``, ends
    where the full graph has none either. Returns whether the protocol is
    safe and whether it is live, and the reduced and full state counts."""
    universe = uod(protocol, registry)
    full, reduced = (KnowledgeGraph(universe, bound, protocol.out_params, r) for r in (False, True))
    full.complete()
    reduced.complete()
    _assert_contains(_plain(full), _plain(reduced))
    assert _terminals(*_plain(reduced)) == _terminals(*_plain(full))
    assert (reduced.safety_violation is None) == (full.safety_violation is None)
    assert reduced.live_everywhere == full.live_everywhere
    if reduced.safety_violation is not None:
        _assert_unsafe_run(reduced.path_to(reduced.safety_violation[0]), universe)
    ids = {state: sid for sid, state in enumerate(_plain(full)[0])}
    for sid, state in enumerate(_plain(reduced)[0]):
        assert (sid in reduced.live) == (ids[state] in full.live), sid
    if not reduced.live_everywhere:
        stuck = min(set(range(len(reduced.states))) - reduced.live)
        assert ids[_replayed(full, reduced.path_to(stuck))] not in full.live
    return full.safety_violation is None, full.live_everywhere, len(reduced.states), len(full.states)


# Reduced and full state counts, so that a rule that reduces less is caught too.
REDUCED_COUNTS = {
    ("1",): {"Ordering": (9, 23), "OrderingOp": (12, 43), "EscrowOrdering": (11, 35),
             "EscrowOrderingOp": (81, 9595), "fan-6": (29, 1851)},
    ("1", "2"): {"Ordering": (45, 529), "OrderingOp": (95, 1849), "EscrowOrdering": (57, 1225)},
}


@pytest.mark.parametrize("key_values", (("1",), ("1", "2")), ids=("keys1", "keys2"))
def test_knowledge_reduction_keeps_terminal_states(
    key_values, fixtures_dir, op_registry, chan, nested_keys, escrow_ordering
):
    """The fixtures, composed escrow and ``_fan(6)`` at one key value (their
    two-value graphs are the squares of 9 595 and 1 851 states),
    ``unsafe_relay``, ``RACE``, whose ``offer`` is an unsafe delivery, ``ECHO``, whose ``s`` is not
    independent, ``LITERAL_FAILS`` with its literal aligner, and 30 random
    protocols each from seeds 7 and 11. Safe and unsafe, live and not live
    all occur."""
    cases = {name: _fixture(name, fixtures_dir, op_registry, chan, nested_keys, escrow_ordering) for name in FIXTURES}
    if key_values == ("1",):
        registry = parse_protocols((fixtures_dir / "escrow_ordering_op.bspl").read_text())
        cases["EscrowOrderingOp"] = registry["EscrowOrderingOp"], registry
        cases["fan-6"] = _fan(6)
    cases["unsafe_relay"] = parse_protocol((fixtures_dir / "unsafe_relay.bspl").read_text()), None
    cases["Race"] = parse_protocol(RACE), None
    cases["Echo"] = parse_protocol(ECHO), None
    cases["relay-literal"] = _composition(
        parse_protocol(LITERAL_FAILS), parse_commitments(LITERAL_FAILS_COMMITMENT).values()
    )
    for seed in (7, 11):
        rng = random.Random(seed)
        cases.update((f"random-{seed}-{index}", (random_protocol(rng, index), None)) for index in range(30))
    results = {name: _assert_knowledge_reduced(*case, Bound(key_values=key_values)) for name, case in cases.items()}
    assert {safe for safe, *_ in results.values()} == {live for _, live, *_ in results.values()} == {True, False}
    assert {name: results[name][2:] for name in REDUCED_COUNTS[key_values]} == REDUCED_COUNTS[key_values]


@pytest.mark.parametrize("n, states", ((10, 51), (12, 87)))
def test_fan_safety_and_liveness_read_the_reduced_graph(n, states):
    """Wide protocols are where independent emissions pay: safety and
    liveness of fan-10 and fan-12 hold on one reduced graph each (16 616 and
    92 486 states with independent forwards alone)."""
    composed, registry = _fan(n)
    reports = check_safety_and_liveness(composed, Bound(), registry)
    assert [(report.holds, report.states_explored) for report in reports] == [(True, states)] * 2
