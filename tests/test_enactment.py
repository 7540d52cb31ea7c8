from __future__ import annotations

import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from comal.enactment import (
    EMIT,
    RECV,
    HistoryVector,
    MessageInstance,
    Model,
    ModelEntry,
    Observation,
    check_viable,
    deliverable,
    emission_candidates,
    emission_violation,
    enabled_emissions,
    freeze_bindings,
    kb_agree,
    knowledge_from,
    model_entry,
    model_of,
    observation_from_json,
    observation_to_json,
    project_model,
    trace_lines,
    vector_from_records,
)
from comal.errors import BoundExceeded, WellFormednessError
from comal.protocol import IN, default_value, parse_protocol, parse_protocols, uod
from comal.simulate import Scenario, run_scenario
from comal.synthesis import forwarding_registry
from comal.verify import Bound, KnowledgeGraph
from test_protocol import random_protocol

KB = ("1",)


def instance(universe, name, **bindings):
    return MessageInstance.make(universe.schema(name), bindings)


def play(vector, *steps):
    """Extend a vector with (tick, dir, instance) steps."""
    for tick, direction, inst in steps:
        vector = vector.extend(Observation(inst, direction, tick))
    return vector


@pytest.fixture()
def order_universe(ordering):
    return uod(ordering)


def order_run(universe):
    quote = instance(universe, "quote", oID="1", item="book", price="10")
    pay = instance(universe, "pay", oID="1", pID="7")
    request = instance(universe, "requestShip", oID="1", rID="3")
    ship = instance(universe, "ship", oID="1", sID="9")
    v = HistoryVector.empty(universe.roles)
    return play(
        v,
        (1, EMIT, quote),
        (2, RECV, quote),
        (3, EMIT, pay),
        (4, RECV, pay),
        (5, EMIT, request),
        (6, RECV, request),
        (7, EMIT, ship),
        (8, RECV, ship),
    )


def test_full_order_run_is_viable(order_universe):
    assert check_viable(order_run(order_universe), order_universe) is None


def test_pay_before_quote_violates_in_rule(order_universe):
    pay = instance(order_universe, "pay", oID="1", pID="7")
    v = play(HistoryVector.empty(order_universe.roles), (1, EMIT, pay))
    violation = check_viable(v, order_universe)
    assert violation is not None and violation.rule == "a"
    assert violation.role == "C"


def test_two_quotes_same_key_violate(order_universe):
    quote1 = instance(order_universe, "quote", oID="1", item="book", price="10")
    quote2 = instance(order_universe, "quote", oID="1", item="pen", price="2")
    v = play(HistoryVector.empty(order_universe.roles), (1, EMIT, quote1), (2, EMIT, quote2))
    violation = check_viable(v, order_universe)
    assert violation is not None and violation.rule in ("b", "c", "d")


def test_receive_without_send(order_universe):
    quote = instance(order_universe, "quote", oID="1", item="book", price="10")
    v = play(HistoryVector.empty(order_universe.roles), (1, RECV, quote))
    violation = check_viable(v, order_universe)
    assert violation is not None and violation.rule == "unsent"


def test_receive_twice(order_universe):
    quote = instance(order_universe, "quote", oID="1", item="book", price="10")
    v = play(HistoryVector.empty(order_universe.roles), (1, EMIT, quote), (2, RECV, quote), (3, RECV, quote))
    violation = check_viable(v, order_universe)
    assert (violation.rule, violation.role, violation.tick, violation.detail) == ("unsent", "C", 3, "received twice")


def test_emission_by_a_non_sender_role(order_universe):
    """An instance whose sender is not its schema's: C emitting a quote."""
    quote = instance(order_universe, "quote", oID="1", item="book", price="10")
    forged = dataclasses.replace(quote, sender="C", receiver="M")
    violation = check_viable(play(HistoryVector.empty(order_universe.roles), (1, EMIT, forged)), order_universe)
    assert (violation.rule, violation.role, violation.detail) == ("a", "C", "emitted by a non-sender role")


def test_trace_record_with_a_bad_direction(order_universe):
    record = {"tick": 1, "role": "M", "dir": "send", "schema": "quote",
              "bindings": {"oID": "1", "item": "book", "price": "10"}}
    with pytest.raises(WellFormednessError, match="^bad trace direction 'send'$"):
        observation_from_json(record, order_universe)


def test_vector_takes_only_its_own_roles(order_universe):
    """A role outside the vector has no history, and its observations are
    refused rather than dropped."""
    quote = instance(order_universe, "quote", oID="1", item="book", price="10")
    v = HistoryVector.empty(["M"]).extend(Observation(quote, EMIT, 1))
    assert v.history("M") == (Observation(quote, EMIT, 1),)
    with pytest.raises(WellFormednessError):
        v.extend(Observation(quote, RECV, 2))
    with pytest.raises(WellFormednessError):
        v.history("C")


def test_enabled_emissions_initial(order_universe):
    v = HistoryVector.empty(order_universe.roles)
    assert [i.schema for i in enabled_emissions(v, order_universe, "M", KB)] == ["quote"]
    assert enabled_emissions(v, order_universe, "C", KB) == []
    assert enabled_emissions(v, order_universe, "S", KB) == []


def test_enabled_emissions_after_quote(order_universe):
    quote = instance(order_universe, "quote", oID="1", item="book", price="10")
    v = play(HistoryVector.empty(order_universe.roles), (1, EMIT, quote), (2, RECV, quote))
    assert [i.schema for i in enabled_emissions(v, order_universe, "C", KB)] == ["pay"]
    # The merchant may request shipping but may not quote again for this key.
    assert [i.schema for i in enabled_emissions(v, order_universe, "M", KB)] == ["requestShip"]


def test_no_further_emissions_for_sender(order_universe):
    v = order_run(order_universe)
    assert enabled_emissions(v, order_universe, "S", KB) == []


def test_deliverable(order_universe):
    quote = instance(order_universe, "quote", oID="1", item="book", price="10")
    v = play(HistoryVector.empty(order_universe.roles), (1, EMIT, quote))
    assert deliverable(v) == [("C", quote)]
    v = v.extend(Observation(quote, RECV, 2))
    assert deliverable(v) == []
    assert deliverable(HistoryVector.empty(order_universe.roles)) == []


def test_deliverable_fifo_orders_channel(order_universe, chan):
    quote = instance(order_universe, "quote", oID="1", item="book", price="10")
    request = instance(order_universe, "requestShip", oID="1", rID="3")
    v = play(HistoryVector.empty(order_universe.roles), (1, EMIT, quote), (2, EMIT, request))
    assert len(deliverable(v)) == 2
    # Different channels, so fifo does not serialize them.
    assert len(deliverable(v, fifo=True)) == 2
    # Two messages on one channel: only the older is offered.
    universe = uod(chan)
    m1 = instance(universe, "m1", k="1", x="m1.x")
    m2 = instance(universe, "m2", k="1", y="m2.y")
    v = play(HistoryVector.empty(universe.roles), (1, EMIT, m1), (2, EMIT, m2))
    assert deliverable(v) == [("B", m1), ("B", m2)]
    assert deliverable(v, fifo=True) == [("B", m1)]


def test_project_model_renames_forwards(operationalization_registry):
    top = operationalization_registry["OperationalizationProtocol"]
    universe = uod(top, operationalization_registry)
    registry = forwarding_registry(universe)
    quote = instance(universe, "quote", oID="1", item="book", price="10")
    pay = instance(universe, "payEscrow", oID="1", pID="7")
    fwd = instance(universe, "fwdCMPayEscrow", oID="1", pID="7", fwdCMPayEscrowID="9")
    v = play(
        HistoryVector.empty(universe.roles),
        (1, EMIT, quote),
        (2, RECV, quote),
        (3, EMIT, pay),
        (5, EMIT, fwd),
        (6, RECV, fwd),
    )
    model = project_model(v, "M", registry)
    entries = {(e.name, e.tick) for e in model.entries}
    assert entries == {("quote", 1), ("payEscrow", 6)}
    renamed = [e for e in model.entries if e.name == "payEscrow"]
    assert dict(renamed[0].bindings) == {"oID": "1", "pID": "7"}


def test_project_model_keeps_earliest_knowledge(operationalization_registry):
    top = operationalization_registry["OperationalizationProtocol"]
    universe = uod(top, operationalization_registry)
    registry = forwarding_registry(universe)
    pay = instance(universe, "payEscrow", oID="1", pID="7")
    quote = instance(universe, "quote", oID="1", item="book", price="10")
    fwd = instance(universe, "fwdCMPayEscrow", oID="1", pID="7", fwdCMPayEscrowID="9")
    v = play(
        HistoryVector.empty(universe.roles),
        (1, EMIT, quote),
        (2, RECV, quote),
        (3, EMIT, pay),
        (4, RECV, pay),  # escrow knows payEscrow directly
        (5, EMIT, fwd),
        (6, RECV, fwd),
    )
    # The customer emitted payEscrow at 3 and forwarded it at 5: earliest wins.
    model = project_model(v, "C", registry)
    pays = [e for e in model.entries if e.name == "payEscrow"]
    assert [e.tick for e in pays] == [3]


def test_project_model_unknown_forward(order_universe):
    schemas = parse_protocols(
        """
        Odd {
          roles A, B
          parameters out k key, out fwdOddID
          A -> B: fwdABThing[out k key, out fwdOddID]
        }
        """
    )
    universe = uod(schemas["Odd"])
    inst = instance(universe, "fwdABThing", k="1", fwdOddID="2")
    v = play(HistoryVector.empty(universe.roles), (1, EMIT, inst))
    with pytest.raises(WellFormednessError, match="schema 'fwdABThing' has no forwarding registry entry"):
        project_model(v, "A", {})


def _reference_model_of(observed, fwd_registry):
    """The model as one dict of the earliest (tick, key binding) per renamed
    (name, bindings), sorted: the rule ``Model.add`` and ``model_entry`` fold."""
    first = {}
    for inst, tick in observed:
        naming = fwd_registry.get(inst.schema)
        if naming is not None:
            name = naming.base_message
            bindings = tuple(item for item in inst.bindings if item[0] != naming.id_param)
        else:
            name, bindings = inst.schema, inst.bindings
        if (name, bindings) not in first or tick < first[name, bindings][0]:
            first[name, bindings] = (tick, inst.key_binding)
    return Model(tuple(ModelEntry(name, bindings, tick, kb) for (name, bindings), (tick, kb) in sorted(first.items())))


def _model_pool(registry):
    """Instances of composed escrow at two orders: base messages, forwards of
    them under two identifiers, and a second payment, so that renamed
    forwards and repeats collide."""
    universe = uod(registry["OperationalizationProtocol"], registry)
    pool = []
    for oid in ("1", "2"):
        pool += [
            instance(universe, "quote", oID=oid, item="book", price="10"),
            instance(universe, "payEscrow", oID=oid, pID="7"),
            instance(universe, "payEscrow", oID=oid, pID="8"),
            instance(universe, "ship", oID=oid, sID="5"),
        ]
        pool += [instance(universe, "fwdCMPayEscrow", oID=oid, pID="7", fwdCMPayEscrowID=i) for i in ("9", "10")]
        pool += [instance(universe, "fwdSEShip", oID=oid, sID="5", fwdSEShipID="3")]
        pool += [instance(universe, "fwdMEShip", oID=oid, sID="5", fwdMEShipID="4")]
    return pool, forwarding_registry(universe)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_model_of_folds_add_like_the_earliest_tick_dict(operationalization_registry, data):
    """On drawn observation lists, unordered, with forwards and repeats, the
    fold of ``Model.add`` over ``model_entry`` equals the dict that keeps the
    earliest tick per (name, bindings)."""
    pool, fwd = _model_pool(operationalization_registry)
    observed = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 8)), max_size=16))
    assert model_of(observed, fwd) == _reference_model_of(observed, fwd)


def test_model_add_keeps_a_known_entry(operationalization_registry):
    """``add`` returns the model itself for an entry of a known (name,
    bindings), whatever its tick, and inserts others in (name, bindings)
    order."""
    pool, fwd = _model_pool(operationalization_registry)
    quote, pay, _, ship, forward, *_ = pool
    model = Model(()).add(model_entry(ship, 2, fwd)).add(model_entry(quote, 5, fwd))
    assert [(e.name, e.tick) for e in model.entries] == [("quote", 5), ("ship", 2)]
    assert model.add(model_entry(quote, 1, fwd)) is model
    grown = model.add(model_entry(forward, 3, fwd))
    assert grown.entries == (model_entry(pay, 3, fwd), *model.entries)
    assert grown.add(model_entry(pay, 4, fwd)) is grown


def test_bindings_domain_checked(order_universe):
    with pytest.raises(WellFormednessError):
        MessageInstance.make(order_universe.schema("quote"), {"oID": "1"})


def test_vector_from_records_reads_witness_parts_as_one_run(order_universe):
    """A trace reads back as its run. Witness parts are each ticked from 1 and
    carry lapse records; joined, they read as one run ticked from 1."""
    v = order_run(order_universe)
    records = [json.loads(line) for line in trace_lines(v)]
    assert vector_from_records(records, order_universe) == v
    head, tail = records[:2], [{**r, "tick": tick} for tick, r in enumerate(records[2:], start=1)]
    parts = head + [{"tick": 3, "lapse": 5}] + tail
    assert vector_from_records(parts, order_universe) == v


def test_trace_round_trip(order_universe):
    v = order_run(order_universe)
    lines = list(trace_lines(v))
    parsed = [observation_from_json(json.loads(line), order_universe) for line in lines]
    assert parsed == v.observations()
    record = observation_to_json(v.observations()[0])
    assert record == {
        "tick": 1,
        "role": "M",
        "dir": "emit",
        "schema": "quote",
        "bindings": {"oID": "1", "item": "book", "price": "10"},
    }


def test_prefix_closure_on_random_runs(ordering, escrow_ordering):
    """Every tick-cutoff prefix of a simulator-produced vector stays viable,
    and each role's model only grows along the run."""
    rng = random.Random(42)
    protocols = [ordering, escrow_ordering]
    for run in range(200):
        protocol = protocols[run % 2]
        scenario = Scenario(
            protocol=protocol,
            registry={protocol.name: protocol},
            commitments=(),
            policy={"kind": "random"},
            horizon=rng.randint(0, 14),
            seed=run,
        )
        result = run_scenario(scenario)
        universe = uod(protocol)
        assert check_viable(result.vector, universe) is None
        observations = result.vector.observations()
        if not observations:
            continue
        cut = rng.randint(0, len(observations))
        prefix = HistoryVector.empty(universe.roles)
        for obs in observations[:cut]:
            prefix = prefix.extend(obs)
        assert check_viable(prefix, universe) is None
        for role in universe.roles:
            before = set(project_model(prefix, role, {}).entries)
            after = set(project_model(result.vector, role, {}).entries)
            assert before <= after


def test_emission_candidates_distinct_with_nested_key_sets(nested_keys):
    universe = uod(nested_keys)
    candidates = enabled_emissions(HistoryVector.empty(universe.roles), universe, "A", ("1",))
    assert [inst.schema for inst in candidates] == ["a"]


def _reference_candidates(knowledge, universe, role, key_values):
    """The candidates built one by one and then checked: every combination of
    a key value, the ``in`` values known at its key binding and the ``out``
    defaults, kept when ``emission_violation`` allows it."""
    out = []
    for schema in universe.schemas:
        if schema.sender != role:
            continue
        for value in dict.fromkeys(key_values):
            kb = freeze_bindings({k: value for k in schema.keys})
            candidates = [dict(kb)]
            for p in schema.params:
                if p.key:
                    continue
                values = knowledge.values_for(p.name, kb) if p.adornment == IN else [default_value(schema.name, p.name)]
                candidates = [{**partial, p.name: v} for partial in candidates for v in values]
            for bindings in candidates:
                inst = MessageInstance.make(schema, bindings)
                if emission_violation(knowledge, schema, inst, 0) is None:
                    out.append(inst)
    return sorted(out, key=lambda i: (i.schema, i.bindings))


def _assert_candidates_match_reference(universe, key_values, max_states=400_000):
    """``emission_candidates`` equals the reference for each role's knowledge
    in every state of the full knowledge-set graph at ``key_values``, or in
    every state found before ``max_states`` cuts it; and each ``values_for``
    those rules read is the scan of the role's instances ``kb_agree`` gives.
    Returns the number of distinct knowledges checked."""
    graph = KnowledgeGraph(universe, Bound(key_values, max_states), ())
    try:
        graph.complete()
    except BoundExceeded:
        pass
    checked = set()
    for state in graph.states:
        for role, observed in zip(graph.roles, graph.decode(state)):
            if (role, observed) in checked:
                continue
            checked.add((role, observed))
            knowledge = knowledge_from(sorted(observed, key=lambda i: (i.schema, i.bindings)), role)
            expected = _reference_candidates(knowledge, universe, role, key_values)
            assert emission_candidates(knowledge, universe, role, key_values) == expected
            for schema in universe.schemas:
                for value in key_values:
                    kb = freeze_bindings({k: value for k in schema.keys})
                    for param in schema.param_names:
                        scan = [b for i in knowledge.instances if kb_agree(i.key_binding, kb) for p, b in i.bindings
                                if p == param]
                        assert knowledge.values_for(param, kb) == list(dict.fromkeys(scan))
    return len(checked)


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize(
    "file, name",
    [
        ("nested_keys.bspl", "Two"),
        ("unsafe_toy.bspl", "UnsafeToy"),
        ("unsafe_relay.bspl", "UnsafeRelay"),
        ("ordering_op.bspl", "OrderingOp"),
        ("escrow_ordering_op.bspl", "EscrowOrderingOp"),
    ],
)
def test_emission_candidates_match_per_candidate_reference(fixtures_dir, file, name, k):
    """Deciding the rules once per (schema, key value) offers exactly what
    checking each built candidate did. Composed escrow at two key values
    passes 400 000 states, so there the first 10 000 states are checked."""
    registry = parse_protocols((fixtures_dir / file).read_text())
    universe = uod(registry[name], registry)
    cap = 10_000 if (name, k) == ("EscrowOrderingOp", 2) else 400_000
    assert _assert_candidates_match_reference(universe, tuple(str(i + 1) for i in range(k)), cap) > 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from((1, 2)))
def test_emission_candidates_match_reference_on_random_protocols(seed, k):
    """As above on Hypothesis-drawn random protocols, where an ``in`` key may
    never be bound and a schema may bind no ``out`` parameter, so that only
    rule (d) stops it being sent twice."""
    protocol = random_protocol(random.Random(seed), 0)
    assume(protocol.references)
    _assert_candidates_match_reference(uod(protocol), tuple(str(i + 1) for i in range(k)), 5_000)


def test_in_key_unknown_at_a_value_blocks_only_that_value(nested_keys):
    """``b[in k key, out j key, out y]`` is offered to B at the one key value
    whose ``k`` B has learned, not at the other."""
    universe = uod(nested_keys)
    a = instance(universe, "a", k="1", x="a.x")
    knowledge = knowledge_from([a], "B")
    offered = emission_candidates(knowledge, universe, "B", ("1", "2"))
    assert offered == [instance(universe, "b", k="1", j="1", y="b.y")]
    assert emission_candidates(knowledge_from([], "B"), universe, "B", ("1", "2")) == []


def test_emitted_at_one_value_is_offered_at_another():
    """Rule (d) is per key binding. ``ack`` binds no ``out`` parameter, so only
    (d) stops a second ``ack`` at ``k=1``; the one at 2 is still offered. (In
    the fixtures every schema binds an ``out`` parameter, and (b) stops it too.)"""
    universe = uod(parse_protocol(
        """
        Ack {
          roles A, B
          parameters out k key, out x
          B -> A: start[out k key, out x]
          A -> B: ack[in k key, in x]
        }
        """
    ))
    starts = [instance(universe, "start", k=k, x="start.x") for k in ("1", "2")]
    acks = [instance(universe, "ack", k=k, x="start.x") for k in ("1", "2")]
    assert emission_candidates(knowledge_from(starts, "A"), universe, "A", ("1", "2")) == acks
    assert emission_candidates(knowledge_from([*starts, acks[0]], "A"), universe, "A", ("1", "2")) == acks[1:]


def test_known_out_at_one_value_blocks_only_that_value(fixtures_dir):
    """Rule (b) is per key binding: once B has received ``x`` at ``k=1`` it
    knows ``k`` and ``v`` there, so ``y[out k key, out v]`` is offered at 2
    only."""
    universe = uod(parse_protocol((fixtures_dir / "unsafe_toy.bspl").read_text()))
    knowledge = knowledge_from([instance(universe, "x", k="1", v="x.v")], "B")
    assert emission_candidates(knowledge, universe, "B", ("1", "2")) == [instance(universe, "y", k="2", v="y.v")]


def test_key_binding_cache_leaves_identity_alone(order_universe):
    fresh = instance(order_universe, "quote", oID="1", item="book", price="10")
    used = instance(order_universe, "quote", oID="1", item="book", price="10")
    assert used.key_binding == (("oID", "1"),)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


def test_hash_cache_leaves_identity_alone(order_universe):
    """The cached hash is the dataclass hash of the five fields; it stays out of
    eq, repr, ``asdict`` and pickled state (a string's hash differs between
    processes, so a pickled one could be wrong where it is loaded)."""
    fields = ("quote", "M", "C", (("item", "book"), ("oID", "1"), ("price", "10")), ("oID",))
    fresh = instance(order_universe, "quote", oID="1", item="book", price="10")
    used = instance(order_universe, "quote", oID="1", item="book", price="10")
    assert hash(used) == hash(fields)
    assert "_hash" in used.__dict__ and "_hash" not in fresh.__dict__
    assert used == fresh and hash(fresh) == hash(used)
    assert repr(used) == repr(fresh) == (
        "MessageInstance(schema='quote', sender='M', receiver='C', "
        "bindings=(('item', 'book'), ('oID', '1'), ('price', '10')), keys=('oID',))"
    )
    assert dataclasses.asdict(used) == dataclasses.asdict(fresh) == dict(
        zip(("schema", "sender", "receiver", "bindings", "keys"), fields)
    )
    other = instance(order_universe, "quote", oID="2", item="book", price="10")
    hash(other)
    assert used != other and {used, fresh, other} == {fresh, other}
    loaded = pickle.loads(pickle.dumps(used))
    assert "_hash" not in loaded.__dict__
    assert loaded == used and hash(loaded) == hash(used) and repr(loaded) == repr(used)
