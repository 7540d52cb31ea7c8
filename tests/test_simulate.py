from __future__ import annotations

import hashlib
import json

import pytest
from test_cli import oversized_scenarios
from test_commitments import int_digits_limited
from test_interning import CLOCKED_COMMITMENTS

import comal.simulate
from comal.commitments import parse_commitments
from comal.enactment import HistoryVector, Model, enabled_emissions, project_model, trace_lines
from comal.errors import ParseError, WellFormednessError
from comal.protocol import uod
from comal.semantics import EvaluationContext, base_event_names, check_alignment_models, lifecycle_table
from comal.simulate import CommitmentTick, Scenario, Simulation, load_scenario, report_to_json, run_scenario
from comal.synthesis import forwarding_registry


def kb_names(row, role, kind):
    return row.lifecycle[role][kind]


def test_direct_order_timeline(fixtures_dir):
    scenario = load_scenario(fixtures_dir / "scenario_direct_order.json")
    result = run_scenario(scenario)
    # Quote sent but not yet received: debtor aligned ahead of the creditor.
    first = result.report_at(1, "Purchase")
    assert first.alignment.aligned
    assert kb_names(first, "M", "created") and not kb_names(first, "C", "created")
    for tick in (2, 3):
        assert result.report_at(tick, "Purchase").alignment.aligned
    for tick in (4, 5):
        row = result.report_at(tick, "Purchase")
        assert not row.alignment.aligned
        assert {m.kind for m in row.alignment.misalignments} == {"detached"}
    for tick in (6, 7):
        assert result.report_at(tick, "Purchase").alignment.aligned
    last = result.report_at(8, "Purchase")
    assert last.alignment.aligned
    assert kb_names(last, "C", "discharged")
    assert not kb_names(last, "C", "violated")


def test_report_at_a_tick_without_a_row(fixtures_dir):
    result = run_scenario(load_scenario(fixtures_dir / "scenario_direct_order.json"))
    with pytest.raises(KeyError, match="no report for commitment 'Purchase' at tick 99"):
        result.report_at(99, "Purchase")


def test_escrow_payment_timeline(fixtures_dir):
    scenario = load_scenario(fixtures_dir / "scenario_escrow_payment.json")
    result = run_scenario(scenario)
    misaligned = result.report_at(4, "EscrowPurchase")
    assert not misaligned.alignment.aligned
    assert {m.kind for m in misaligned.alignment.misalignments} == {"detached"}
    assert misaligned.alignment.misalignments[0].missing_role == "M"
    realigned = result.report_at(6, "EscrowPurchase")
    assert realigned.alignment.aligned
    assert kb_names(realigned, "M", "detached")


def test_nested_transfer_timeline(fixtures_dir):
    scenario = load_scenario(fixtures_dir / "scenario_nested_transfer.json")
    result = run_scenario(scenario)
    at_seven = result.report_at(13, "EscrowTransfer")
    assert kb_names(at_seven, "M", "detached")
    assert not kb_names(at_seven, "E", "detached")
    assert not at_seven.alignment.aligned
    at_eight = result.report_at(16, "EscrowTransfer")
    assert kb_names(at_eight, "M", "detached")
    assert kb_names(at_eight, "E", "detached")
    assert at_eight.alignment.aligned
    # The nested commitment stays consistent throughout the tail.
    assert result.report_at(16, "EscrowPurchase").alignment.aligned


def test_scripted_move_not_enabled(fixtures_dir, ordering, purchase):
    scenario = Scenario(
        protocol=ordering,
        registry={ordering.name: ordering},
        commitments=(purchase,),
        policy={
            "kind": "scripted",
            "moves": [{"tick": 1, "role": "C", "dir": "emit", "schema": "pay"}],
        },
        horizon=3,
    )
    with pytest.raises(WellFormednessError, match="emission of 'pay' by 'C' is not enabled at tick 1"):
        run_scenario(scenario)


@pytest.mark.parametrize("name, cause", [
    pytest.param("horizon.json", "integer string conversion", marks=int_digits_limited),
    ("nested.json", "recursion"),
])
def test_unreadable_scenario_is_a_parse_error(fixtures_dir, tmp_path, name, cause):
    """JSON that ``json`` cannot turn into Python values is a ``ParseError``
    naming the scenario file, not a ``ValueError`` or ``RecursionError``."""
    path = tmp_path / name
    path.write_text(oversized_scenarios(fixtures_dir)[name])
    with pytest.raises(ParseError, match=f"^scenario {name} cannot be read: .*{cause}"):
        load_scenario(path)


def test_scenario_rejects_unknown_delivery(ordering, purchase):
    with pytest.raises(WellFormednessError):
        Scenario(
            protocol=ordering,
            registry={ordering.name: ordering},
            commitments=(purchase,),
            policy={"kind": "random"},
            delivery="FIFO",
        )


def test_zero_horizon_is_vacuously_aligned(ordering, purchase):
    scenario = Scenario(
        protocol=ordering,
        registry={ordering.name: ordering},
        commitments=(purchase,),
        policy={"kind": "random"},
        horizon=0,
    )
    result = run_scenario(scenario)
    assert result.vector.observations() == []
    assert result.reports == []


def test_random_runs_are_deterministic(escrow_ordering, escrow_commitments):
    def run(seed):
        scenario = Scenario(
            protocol=escrow_ordering,
            registry={escrow_ordering.name: escrow_ordering},
            commitments=tuple(escrow_commitments.values()),
            policy={"kind": "random"},
            horizon=15,
            seed=seed,
        )
        result = run_scenario(scenario)
        return list(trace_lines(result.vector)), [report_to_json(r) for r in result.reports]

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_aligner_policy_sends_forwards(fixtures_dir):
    scenario = load_scenario(
        fixtures_dir / "scenario_nested_transfer.json",
        {"policy": {"kind": "aligner"}, "horizon": 40, "seed": 1},
    )
    result = run_scenario(scenario)
    schemas = {obs.instance.schema for obs in result.vector.observations()}
    assert any(s.startswith("fwd") for s in schemas)


def test_trace_is_emitted_in_trace_format(fixtures_dir):
    scenario = load_scenario(fixtures_dir / "scenario_escrow_payment.json")
    result = run_scenario(scenario)
    lines = [json.loads(line) for line in trace_lines(result.vector)]
    assert lines[0] == {
        "tick": 1,
        "role": "M",
        "dir": "emit",
        "schema": "quote",
        "bindings": {"oID": "1", "item": "quote.item", "price": "quote.price"},
    }
    assert {line["dir"] for line in lines} == {"emit", "recv"}


@pytest.mark.parametrize("policy", ["random", "aligner"])
@pytest.mark.parametrize("name", ["direct_order", "escrow_payment", "nested_transfer"])
def test_reports_match_fresh_evaluation(name, policy, fixtures_dir):
    """The simulator keeps a role's tables until the role observes something
    or the tick reaches their next change; every report row must equal one
    built from a freshly projected model and tables evaluated at its tick."""
    for seed in (1, 2, 3):
        scenario = load_scenario(
            fixtures_dir / f"scenario_{name}.json", {"policy": {"kind": policy}, "seed": seed, "horizon": 120}
        )
        assert_rows_match_fresh_evaluation(scenario, run_scenario(scenario), seed)


def assert_rows_match_fresh_evaluation(scenario, result, seed=None):
    """Each report row of ``result`` equals the row built from models freshly
    projected from the run's observations up to its tick and tables evaluated
    at that tick."""
    universe = uod(scenario.protocol, scenario.registry)
    fwd = forwarding_registry(universe)
    commitments = {c.name: c for c in scenario.commitments}
    pending = result.vector.observations()
    vector = HistoryVector.empty(universe.roles)
    for row in result.reports:
        while pending and pending[0].tick <= row.tick:
            vector = vector.extend(pending.pop(0))
        c = commitments[row.commitment]
        tables = {
            role: lifecycle_table(c, EvaluationContext(project_model(vector, role, fwd), row.tick))
            for role in (c.debtor, c.creditor)
        }
        lifecycle = {
            role: {kind: [dict(inst.key_binding) for inst in instances] for kind, instances in table.items()}
            for role, table in tables.items()
        }
        assert row.lifecycle == lifecycle, (seed, row.tick)
        assert row.alignment == check_alignment_models(c, tables[c.debtor], tables[c.creditor])


def _quiet_ordering(ordering, purchase):
    """Ordering with the quote sent at tick 1 and received at tick 2, then
    nothing until M requests shipping at tick 30: each party's ``quote + 10``
    window closes in the quiet stretch (M's at 11, C's at 12)."""
    moves = [
        {"tick": 1, "role": "M", "dir": "emit", "schema": "quote"},
        {"tick": 2, "role": "C", "dir": "recv", "schema": "quote"},
        {"tick": 30, "role": "M", "dir": "emit", "schema": "requestShip"},
    ]
    return Scenario(
        protocol=ordering,
        registry={ordering.name: ordering},
        commitments=(purchase,),
        policy={"kind": "scripted", "moves": moves},
        horizon=60,
    )


def test_clock_reading_lifecycle_events_match_fresh_evaluation(ordering, purchase):
    """Two commitments created by lifecycle states of Purchase that read the
    clock, ``CLOCKED_COMMITMENTS``. At key 1 the quote goes unpaid, so
    Purchase expires at 11 for M and at 12 for C; at key 2 the payment is
    never followed by a shipment, so Purchase is violated at 10 for C and at
    11 for M. No model grows at those ticks, yet the tables of both
    commitments change there, and every row equals a freshly evaluated one."""
    moves = [
        {"tick": 1, "role": "M", "dir": "emit", "schema": "quote"},
        {"tick": 2, "role": "C", "dir": "recv", "schema": "quote"},
        {"tick": 3, "role": "M", "dir": "emit", "schema": "quote", "key": "2"},
        {"tick": 4, "role": "C", "dir": "recv", "schema": "quote", "key": "2"},
        {"tick": 5, "role": "C", "dir": "emit", "schema": "pay", "key": "2"},
        {"tick": 6, "role": "M", "dir": "recv", "schema": "pay", "key": "2"},
    ]
    clocked = parse_commitments(CLOCKED_COMMITMENTS, {purchase.name: purchase})
    scenario = Scenario(
        protocol=ordering,
        registry={ordering.name: ordering},
        commitments=(purchase, *clocked.values()),
        policy={"kind": "scripted", "moves": moves},
        horizon=20,
    )
    result = run_scenario(scenario)
    for name, key, role, tick in (("Lapse", "1", "M", 11), ("Lapse", "1", "C", 12),
                                  ("Compensate", "2", "C", 10), ("Compensate", "2", "M", 11)):
        assert {"oID": key} not in result.report_at(tick - 1, name).lifecycle[role]["created"]
        assert {"oID": key} in result.report_at(tick, name).lifecycle[role]["created"]
    assert_rows_match_fresh_evaluation(scenario, result)


def test_quiet_ticks_refresh_nothing(ordering, purchase, monkeypatch):
    """Tables are evaluated only when a party's model grows or a window
    boundary falls due: both parties' at tick 1, C's at 2 after it receives
    the quote, and M's at 11 and C's at 12, where their deadlines pass. M's
    ``requestShip`` at 30 is no entry ``Purchase`` reads, so it evaluates
    nothing. Every other tick only appends rows, and every row still equals a
    freshly evaluated one."""
    evaluated_at = []

    def evaluating(c, ctx):
        evaluated_at.append(ctx.now)
        return lifecycle_table(c, ctx)

    monkeypatch.setattr(comal.simulate, "lifecycle_table", evaluating)
    scenario = _quiet_ordering(ordering, purchase)
    result = run_scenario(scenario)
    assert evaluated_at == [1, 1, 2, 11, 12]
    assert [row.tick for row in result.reports] == list(range(1, 61))
    assert [row.tick for row in result.reports if not row.alignment.aligned] == [11]
    assert result.report_at(12, "Purchase").lifecycle["C"]["expired"] == [{"oID": "1"}]
    assert_rows_match_fresh_evaluation(scenario, result)


@pytest.mark.parametrize("policy", ["scripted", "random", "aligner"])
@pytest.mark.parametrize("name", ["direct_order", "escrow_payment", "nested_transfer"])
def test_role_models_match_projected_models(name, policy, fixtures_dir, monkeypatch):
    """At every refresh, each debtor's and creditor's model, grown by
    ``Model.add`` one observation at a time, is its projected whole model
    restricted to the names the commitments read. No other role keeps one."""
    refresh = Simulation._refresh
    checked = []

    def checking(simulation, tick):
        fwd = simulation.fwd_registry
        reads = base_event_names(e for c in simulation.scenario.commitments for e in (c.create, c.detach, c.discharge))
        parties = {role for c in simulation.scenario.commitments for role in (c.debtor, c.creditor)}
        models = {role: model for role, (model, *_) in simulation._parties.items()}
        assert set(models) == parties
        for role in parties:
            entries = project_model(simulation.vector, role, fwd).entries
            assert models[role] == Model(tuple(e for e in entries if e.name in reads)), (tick, role)
            checked.append((tick, role))
        refresh(simulation, tick)

    monkeypatch.setattr(Simulation, "_refresh", checking)
    runs = [{}] if policy == "scripted" else [{"policy": {"kind": policy}, "seed": s, "horizon": 120} for s in (1, 2, 3)]
    for overrides in runs:
        run_scenario(load_scenario(fixtures_dir / f"scenario_{name}.json", overrides))
    assert len(checked) >= 5


def test_parties_evaluate_only_their_own_commitments(fixtures_dir, monkeypatch):
    """A debtor or creditor evaluates the tables of the commitments it is
    party to, and no others. Over aligner and random runs of nested transfer
    to horizon 800 (seeds 1-5) that is 243 tables, each on the model of one of
    its commitment's two parties; a party evaluating every commitment would
    make 368. Alignment is checked 205 times, at 141 refreshes."""
    calls = {"tables": 0, "checks": 0, "refreshes": 0}
    refresh = Simulation._refresh

    def evaluating(c, ctx):
        calls["tables"] += 1
        assert any(ctx.model is simulation._parties[role][0] for role in (c.debtor, c.creditor)), (c.name, ctx.now)
        return lifecycle_table(c, ctx)

    def checking(c, debtor_table, creditor_table):
        calls["checks"] += 1
        return check_alignment_models(c, debtor_table, creditor_table)

    def refreshing(sim, tick):
        calls["refreshes"] += 1
        refresh(sim, tick)

    monkeypatch.setattr(comal.simulate, "lifecycle_table", evaluating)
    monkeypatch.setattr(comal.simulate, "check_alignment_models", checking)
    monkeypatch.setattr(Simulation, "_refresh", refreshing)
    path = fixtures_dir / "scenario_nested_transfer.json"
    for kind in ("aligner", "random"):
        for seed in range(1, 6):
            simulation = Simulation(load_scenario(path, {"policy": {"kind": kind}, "seed": seed, "horizon": 800}))
            simulation.run()
    assert calls == {"tables": 243, "checks": 205, "refreshes": 141}


def test_repeated_and_unread_entries_evaluate_nothing(fixtures_dir, monkeypatch):
    """The nested-transfer script, then, after the last window bound falls
    due at 21, M forwards ship to E, which knows it from S, and E forwards
    payEscrow to M, which knows it from C. Neither forward, emitted or
    received, grows a model, and nor does ``requestShip`` at ticks 3 and 4,
    which no commitment reads: tables are evaluated at the same ticks as
    without the four forwards, where a party's model grows or a window bound
    falls due."""
    evaluated_at = []

    def evaluating(c, ctx):
        evaluated_at.append(ctx.now)
        return lifecycle_table(c, ctx)

    monkeypatch.setattr(comal.simulate, "lifecycle_table", evaluating)
    path = fixtures_dir / "scenario_nested_transfer.json"
    script = json.loads(path.read_text())["policy"]["moves"]
    forwards = [
        {"tick": 22, "role": "M", "dir": "emit", "schema": "fwdMEShip"},
        {"tick": 23, "role": "E", "dir": "recv", "schema": "fwdMEShip"},
        {"tick": 24, "role": "E", "dir": "emit", "schema": "fwdEMPayEscrow"},
        {"tick": 25, "role": "M", "dir": "recv", "schema": "fwdEMPayEscrow"},
    ]
    ticks = []
    for moves in (script, script + forwards):
        scenario = load_scenario(path, {"policy": {"kind": "scripted", "moves": moves}, "horizon": 30})
        result = run_scenario(scenario)
        assert len(result.vector.observations()) == len(moves)
        assert_rows_match_fresh_evaluation(scenario, result)
        ticks.append(sorted(set(evaluated_at)))
        evaluated_at.clear()
    assert [obs.instance.schema for obs in result.vector.observations()][2:4] == ["requestShip"] * 2
    assert ticks[0] == ticks[1] == [1, 2, 6, 7, 9, 11, 12, 13, 14, 15, 16, 18, 20, 21]


def test_observations_by_no_party_refresh_nothing(fixtures_dir, monkeypatch):
    """S is neither commitment's debtor or creditor in nested transfer, so its
    observations grow no model: the script's refreshes are the ticks that
    evaluate tables, and S's ``ship`` at 5, a name both commitments read,
    starts none. Over aligner and random runs to horizon 800 (seeds 1-5),
    every refresh evaluates a table."""
    evaluated_at, refreshed_at = [], []
    refresh = Simulation._refresh

    def evaluating(c, ctx):
        evaluated_at.append(ctx.now)
        return lifecycle_table(c, ctx)

    def refreshing(simulation, tick):
        refreshed_at.append(tick)
        refresh(simulation, tick)

    monkeypatch.setattr(comal.simulate, "lifecycle_table", evaluating)
    monkeypatch.setattr(Simulation, "_refresh", refreshing)
    path = fixtures_dir / "scenario_nested_transfer.json"
    vector = run_scenario(load_scenario(path)).vector
    assert [obs.tick for obs in vector.history("S")] == [4, 5, 12, 14]
    assert refreshed_at == sorted(set(evaluated_at)) == [1, 2, 6, 7, 9, 11, 12, 13, 14, 15, 16]
    for kind in ("aligner", "random"):
        for seed in range(1, 6):
            refreshed_at.clear()
            evaluated_at.clear()
            run_scenario(load_scenario(path, {"policy": {"kind": kind}, "seed": seed, "horizon": 800}))
            assert refreshed_at == sorted(set(evaluated_at)), (kind, seed)


def test_report_rows_are_light_immutable_tuples(ordering, purchase):
    result = run_scenario(_quiet_ordering(ordering, purchase))
    row = result.report_at(20, "Purchase")
    assert CommitmentTick._fields == ("tick", "commitment", "lifecycle", "alignment")
    assert tuple(row) == (20, "Purchase", row.lifecycle, row.alignment)
    with pytest.raises(AttributeError):
        row.tick = 21
    quiet = [row for row in result.reports if 12 <= row.tick < 30]
    assert all(r.lifecycle is quiet[0].lifecycle and r.alignment is quiet[0].alignment for r in quiet)


def test_emissions_are_regenerated_only_after_own_observations(fixtures_dir, monkeypatch):
    """A role's enabled emissions depend only on its own history, so each
    role's are generated once at first need and once more after each of its
    own observations, never after another role's."""
    seen = []

    def counting(v, universe, role, key_values):
        seen.append((role, len(v.history(role))))
        return enabled_emissions(v, universe, role, key_values)

    monkeypatch.setattr(comal.simulate, "enabled_emissions", counting)
    scenario = load_scenario(
        fixtures_dir / "scenario_nested_transfer.json", {"policy": {"kind": "random"}, "horizon": 120, "seed": 1}
    )
    vector = run_scenario(scenario).vector
    assert len(vector.observations()) < 60  # most ticks are idle
    assert sorted(seen) == sorted(
        (role, observed) for role in vector.roles for observed in range(len(vector.history(role)) + 1)
    )


def test_alignment_is_rechecked_only_when_tables_change(fixtures_dir, monkeypatch):
    """A commitment's row is rebuilt, and its alignment checked, only at a
    tick where its debtor's or creditor's lifecycle table was re-evaluated;
    every other tick reuses the last row, so a long idle tail costs no checks."""
    evaluated = {}  # id of each lifecycle table -> (the tick it was evaluated at, the table)
    checked = []

    def evaluating(c, ctx):
        table = lifecycle_table(c, ctx)
        evaluated[id(table)] = ctx.now, table
        return table

    def checking(c, debtor_table, creditor_table):
        tick = len(simulation.result.reports) // len(scenario.commitments) + 1
        checked.append((tick, {evaluated[id(debtor_table)][0], evaluated[id(creditor_table)][0]}))
        return check_alignment_models(c, debtor_table, creditor_table)

    monkeypatch.setattr(comal.simulate, "lifecycle_table", evaluating)
    monkeypatch.setattr(comal.simulate, "check_alignment_models", checking)
    scenario = load_scenario(
        fixtures_dir / "scenario_nested_transfer.json", {"policy": {"kind": "random"}, "horizon": 800, "seed": 1}
    )
    simulation = Simulation(scenario)
    rows = len(simulation.run().reports)
    assert rows == 800 * len(scenario.commitments)
    assert all(tick in evaluated_at for tick, evaluated_at in checked)
    assert len(checked) < rows // 20


# SHA-256 of what ``comal simulate --json --trace`` writes (trace lines, then
# report lines) for seeded runs; "scenario-policy-delivery-seed", at horizon 40,
# or "scenario-policy-delivery-seed-horizon". The horizon-800 runs are idle for
# all but about 24 ticks, so their reports byte-check rows reused across
# hundreds of unchanged ticks.
SIM_PINNED = {
    "direct_order-random-any-2": "6730b08cdeba1134c5a22ca8b2340ed3064c4f70e685f52eedde3b4ae1c8c79b",
    "direct_order-random-any-5": "8984c8447a8453e1ce53b4f499d72fbf36383031e63863bac852eeb1229d4f79",
    "direct_order-random-fifo-2": "6730b08cdeba1134c5a22ca8b2340ed3064c4f70e685f52eedde3b4ae1c8c79b",
    "direct_order-random-fifo-5": "8984c8447a8453e1ce53b4f499d72fbf36383031e63863bac852eeb1229d4f79",
    "direct_order-aligner-any-2": "8984c8447a8453e1ce53b4f499d72fbf36383031e63863bac852eeb1229d4f79",
    "direct_order-aligner-any-5": "8984c8447a8453e1ce53b4f499d72fbf36383031e63863bac852eeb1229d4f79",
    "direct_order-aligner-fifo-2": "8984c8447a8453e1ce53b4f499d72fbf36383031e63863bac852eeb1229d4f79",
    "direct_order-aligner-fifo-5": "8984c8447a8453e1ce53b4f499d72fbf36383031e63863bac852eeb1229d4f79",
    "escrow_payment-random-any-2": "1c0b654b8451ea39d16099b78530475c6bb453fcd8039efc4e862570a40e5a5e",
    "escrow_payment-random-any-5": "e5b9708c2d66868a1ccc80c3fd30e966fb45ba667086100597a3c9313298a152",
    "escrow_payment-random-fifo-2": "0ad157bbc28453c66a07afcf549a2c966cccc32501d6990607b67a84140a59d5",
    "escrow_payment-random-fifo-5": "850747e1a7fb58b90ad53c3361718fa03ba80bea42e5ceb42092e33bbba864b8",
    "escrow_payment-aligner-any-2": "837ff662350f3fb683c46ef47578cffee1990caa9e7e1748d69402ccabdc2cd2",
    "escrow_payment-aligner-any-5": "950afc2c742e95118627fa4ec722e6a6861158530c5d590f0c34c24198c637c3",
    "escrow_payment-aligner-fifo-2": "837ff662350f3fb683c46ef47578cffee1990caa9e7e1748d69402ccabdc2cd2",
    "escrow_payment-aligner-fifo-5": "950afc2c742e95118627fa4ec722e6a6861158530c5d590f0c34c24198c637c3",
    "nested_transfer-random-any-2": "64cabdc08c81b699a23bc0e9f6b5f1669b814a3758b14a1d43a374ab09c04c81",
    "nested_transfer-random-any-5": "6b1dea7b74eaf2bfdd7ac9a9f514371cfefdfe6a39517a22c673b0ccbc6a8983",
    "nested_transfer-random-fifo-2": "5afe46ccafc728dc895fc6aff25730b14b2e2a8e0df1230655f1a6b2dcfeb55f",
    "nested_transfer-random-fifo-5": "5cd1926658d8f510bed49561feabacc7eb81fe94b1efdbb48e311a40e22cff6f",
    "nested_transfer-aligner-any-2": "b2efb0655da3cb81483c8344bf2a29d0c4322ccd818289e7175ba7dc842a8c58",
    "nested_transfer-aligner-any-5": "b08410982549616860906db513a84e35e26065753968b19bd5bf0b4b034afa72",
    "nested_transfer-aligner-fifo-2": "b2efb0655da3cb81483c8344bf2a29d0c4322ccd818289e7175ba7dc842a8c58",
    "nested_transfer-aligner-fifo-5": "b08410982549616860906db513a84e35e26065753968b19bd5bf0b4b034afa72",
    "nested_transfer-random-any-5-800": "e01fb37aa7e812417306c7edd7c5c6cd3881629df54f5b1302b5c4cec9aad1b7",
    "nested_transfer-random-fifo-5-800": "f47e6bc9c0b962a8f3f3ebbb286ba34cbcc8520621edea1ca463a6f3d1a64b4e",
    "nested_transfer-aligner-any-5-800": "5aa94e126773ddce609bd53f8e4ff949d51ec8b157f3088115d6eb455b321ca8",
    "nested_transfer-aligner-fifo-5-800": "5aa94e126773ddce609bd53f8e4ff949d51ec8b157f3088115d6eb455b321ca8",
}


@pytest.mark.parametrize("case", sorted(SIM_PINNED))
def test_pinned_simulation_bytes(case, fixtures_dir):
    name, policy, delivery, seed, *rest = case.split("-")
    horizon = int(rest[0]) if rest else 40
    scenario = load_scenario(
        fixtures_dir / f"scenario_{name}.json",
        {"policy": {"kind": policy}, "delivery": delivery, "seed": int(seed), "horizon": horizon},
    )
    result = run_scenario(scenario)
    lines = list(trace_lines(result.vector))
    lines += [json.dumps(report_to_json(row), sort_keys=True) for row in result.reports]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SIM_PINNED[case]
