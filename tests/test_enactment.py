from __future__ import annotations

import json
import random

import pytest

from comal.enactment import (
    EMIT,
    RECV,
    HistoryVector,
    MessageInstance,
    Observation,
    check_viable,
    deliverable,
    enabled_emissions,
    observation_from_json,
    observation_to_json,
    project_model,
    trace_lines,
)
from comal.errors import UnknownForwardName, WellFormednessError
from comal.protocol import parse_protocols, uod
from comal.simulate import Scenario, run_scenario
from comal.synthesis import forwarding_registry

KB = [{"oID": "1"}]


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
    with pytest.raises(UnknownForwardName):
        project_model(v, "A", {})


def test_bindings_domain_checked(order_universe):
    with pytest.raises(WellFormednessError):
        MessageInstance.make(order_universe.schema("quote"), {"oID": "1"})


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
