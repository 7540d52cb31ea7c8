from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comal import semantics
from comal.commitments import (
    LIFECYCLE_KINDS,
    And,
    BaseEvent,
    CommitmentSpec,
    Except,
    Or,
    TimeRef,
    Window,
)
from comal.enactment import Model, ModelEntry, freeze_bindings
from comal.protocol import parse_protocol, uod
from comal.semantics import (
    EvaluationContext,
    base_event_names,
    check_alignment_models,
    deadline,
    evaluate,
    lifecycle_table,
    next_change,
    window_anchors,
)

ORDER_TEXT = """
Ordering {
  roles M, C, S
  parameters out oID key, out item, out price, out pID, out rID, out sID
  M -> C: quote[out oID, out item, out price]
  C -> M: pay[in oID, out pID]
  M -> S: requestShip[in oID, out rID]
  S -> C: ship[in oID, out sID]
}
"""


ORDER_UNIVERSE = uod(parse_protocol(ORDER_TEXT))


def entry(name, tick, **bindings):
    keys = ORDER_UNIVERSE.schema(name).keys
    return ModelEntry(name, freeze_bindings(bindings), tick, freeze_bindings({k: bindings[k] for k in keys}))


def model(role, *entries):
    return Model(tuple(entries))


def ctx(universe, m, now):
    return EvaluationContext(m, now)


def kbs(instances):
    return {i.key_binding for i in instances}


def test_window_absolute(ordering):
    universe = uod(ordering)
    shipped = Window(BaseEvent("ship"), TimeRef(0), TimeRef(10))
    early = model("C", entry("ship", 3, oID="1", sID="9"))
    late = model("C", entry("ship", 12, oID="1", sID="9"))
    assert len(evaluate(shipped, ctx(universe, early, 20))) == 1
    assert evaluate(shipped, ctx(universe, late, 20)) == ()


def test_window_event_anchored(ordering):
    universe = uod(ordering)
    detach = Window(BaseEvent("pay"), upper=TimeRef(10, BaseEvent("quote")))
    in_time = model(
        "C", entry("quote", 1, oID="1", item="b", price="2"), entry("pay", 8, oID="1", pID="7")
    )
    too_late = model(
        "C", entry("quote", 1, oID="1", item="b", price="2"), entry("pay", 12, oID="1", pID="7")
    )
    assert len(evaluate(detach, ctx(universe, in_time, 20))) == 1
    assert evaluate(detach, ctx(universe, too_late, 20)) == ()


def test_window_absent_anchor_excludes(ordering):
    universe = uod(ordering)
    detach = Window(BaseEvent("pay"), upper=TimeRef(10, BaseEvent("quote")))
    no_quote = model("C", entry("pay", 2, oID="1", pID="7"))
    assert evaluate(detach, ctx(universe, no_quote, 20)) == ()


def test_exception_waits_for_deadline(ordering):
    universe = uod(ordering)
    expired = Except(BaseEvent("quote"), Window(BaseEvent("pay"), upper=TimeRef(10, BaseEvent("quote"))))
    m = model("C", entry("quote", 1, oID="1", item="b", price="2"))
    assert evaluate(expired, ctx(universe, m, 5)) == ()
    assert len(evaluate(expired, ctx(universe, m, 11))) == 1


def test_exception_without_finite_deadline_never_holds(ordering):
    universe = uod(ordering)
    formula = Except(BaseEvent("quote"), BaseEvent("pay"))
    m = model("C", entry("quote", 1, oID="1", item="b", price="2"))
    assert evaluate(formula, ctx(universe, m, 10 ** 9)) == ()


def test_exception_blocked_by_occurrence(ordering):
    universe = uod(ordering)
    expired = Except(BaseEvent("quote"), Window(BaseEvent("pay"), upper=TimeRef(10, BaseEvent("quote"))))
    m = model(
        "C", entry("quote", 1, oID="1", item="b", price="2"), entry("pay", 4, oID="1", pID="7")
    )
    assert evaluate(expired, ctx(universe, m, 50)) == ()


def test_and_joins_on_keys_with_max_timestamp(ordering):
    universe = uod(ordering)
    formula = And(BaseEvent("quote"), BaseEvent("pay"))
    m = model(
        "C",
        entry("quote", 1, oID="1", item="b", price="2"),
        entry("pay", 8, oID="1", pID="7"),
        entry("quote", 2, oID="2", item="c", price="3"),
    )
    instances = evaluate(formula, ctx(universe, m, 20))
    assert kbs(instances) == {freeze_bindings({"oID": "1"})}
    assert instances[0].timestamp == 8


def test_or_takes_earliest(ordering):
    universe = uod(ordering)
    formula = Or(BaseEvent("quote"), BaseEvent("pay"))
    m = model(
        "C",
        entry("quote", 3, oID="1", item="b", price="2"),
        entry("pay", 8, oID="1", pID="7"),
    )
    instances = evaluate(formula, ctx(universe, m, 20))
    assert [i.timestamp for i in instances] == [3]


def test_deadline_arithmetic(ordering):
    universe = uod(ordering)
    m = model("C", entry("quote", 1, oID="1", item="b", price="2"))
    c = ctx(universe, m, 0)
    kb = freeze_bindings({"oID": "1"})
    detach = Window(BaseEvent("pay"), upper=TimeRef(10, BaseEvent("quote")))
    assert deadline(detach, kb, c) == 11
    assert deadline(BaseEvent("pay"), kb, c) == math.inf
    discharge = Window(BaseEvent("ship"), upper=TimeRef(5, BaseEvent("pay")))
    assert deadline(discharge, kb, c) == math.inf  # pay unknown, no finite bound
    assert deadline(And(detach, discharge), kb, c) == 11
    assert deadline(Or(detach, discharge), kb, c) == math.inf


def test_lifecycle_progression(ordering, purchase):
    universe = uod(ordering)
    customer = model(
        "C",
        entry("quote", 2, oID="1", item="b", price="2"),
        entry("pay", 4, oID="1", pID="7"),
    )
    merchant = model("M", entry("quote", 1, oID="1", item="b", price="2"))
    assert kbs(lifecycle_table(purchase, ctx(universe, customer, 4))["detached"])
    assert not kbs(lifecycle_table(purchase, ctx(universe, merchant, 4))["detached"])
    assert kbs(lifecycle_table(purchase, ctx(universe, merchant, 4))["created"])


def test_lifecycle_empty_model(ordering, purchase):
    universe = uod(ordering)
    empty = model("C")
    for kind in ("created", "detached", "discharged", "expired", "violated"):
        assert lifecycle_table(purchase, ctx(universe, empty, 99))[kind] == ()


def test_alignment_on_identical_models(ordering, purchase):
    universe = uod(ordering)
    shared = model(
        "X",
        entry("quote", 1, oID="1", item="b", price="2"),
        entry("pay", 3, oID="1", pID="7"),
    )
    for now in (3, 12, 40):
        table = lifecycle_table(purchase, ctx(universe, shared, now))
        result = check_alignment_models(purchase, table, table)
        assert result.aligned


def test_alignment_from_history_vector(fixtures_dir, escrow_purchase):
    from comal.enactment import EMIT, RECV, HistoryVector, MessageInstance, Observation, project_model
    from comal.protocol import parse_protocols
    from comal.synthesis import forwarding_registry
    from comal.protocol import uod as make_uod

    registry = parse_protocols((fixtures_dir / "escrow_ordering_op.bspl").read_text())
    universe = make_uod(registry["EscrowOrderingOp"], registry)
    fwd = forwarding_registry(universe)
    quote = MessageInstance.make(universe.schema("quote"), {"oID": "1", "item": "b", "price": "2"})
    pay = MessageInstance.make(universe.schema("payEscrow"), {"oID": "1", "pID": "7"})
    forward = MessageInstance.make(
        universe.schema("fwdCMPayEscrow"), {"oID": "1", "pID": "7", "fwdCMPayEscrowID": "9"}
    )

    def alignment_at(v, now):
        tables = [
            lifecycle_table(escrow_purchase, ctx(universe, project_model(v, role, fwd), now))
            for role in (escrow_purchase.debtor, escrow_purchase.creditor)
        ]
        return check_alignment_models(escrow_purchase, *tables)

    v = HistoryVector.empty(universe.roles)
    for tick, direction, inst in [
        (1, EMIT, quote), (2, RECV, quote), (3, EMIT, pay), (4, RECV, pay),
    ]:
        v = v.extend(Observation(inst, direction, tick))
    early = alignment_at(v, 4)
    assert not early.aligned  # the merchant cannot see the escrow payment yet
    for tick, direction, inst in [(5, EMIT, forward), (6, RECV, forward)]:
        v = v.extend(Observation(inst, direction, tick))
    late = alignment_at(v, 6)
    assert late.aligned


def test_alignment_detects_creditor_only_detach(ordering, purchase):
    universe = uod(ordering)
    customer = model(
        "C",
        entry("quote", 2, oID="1", item="b", price="2"),
        entry("pay", 3, oID="1", pID="7"),
    )
    merchant = model("M", entry("quote", 1, oID="1", item="b", price="2"))
    result = check_alignment_models(
        purchase,
        lifecycle_table(purchase, ctx(universe, merchant, 3)),
        lifecycle_table(purchase, ctx(universe, customer, 3)),
    )
    assert not result.aligned
    assert {m.kind for m in result.misalignments} == {"detached"}
    assert result.misalignments[0].missing_role == "M"


def test_monotone_for_exception_free(ordering):
    universe = uod(ordering)
    rng = random.Random(7)
    base = [
        entry("quote", 1, oID="1", item="b", price="2"),
        entry("pay", 3, oID="1", pID="7"),
        entry("ship", 6, oID="1", sID="9"),
    ]
    formulas = [
        BaseEvent("pay"),
        And(BaseEvent("quote"), BaseEvent("pay")),
        Or(BaseEvent("pay"), BaseEvent("ship")),
        Window(BaseEvent("ship"), upper=TimeRef(5, BaseEvent("pay"))),
    ]
    for _ in range(50):
        k = rng.randint(0, len(base))
        small = model("C", *base[:k])
        big = model("C", *base)
        for formula in formulas:
            small_kbs = kbs(evaluate(formula, ctx(universe, small, 30)))
            big_kbs = kbs(evaluate(formula, ctx(universe, big, 30)))
            assert small_kbs <= big_kbs


def test_lifecycle_containment_on_running_models(
    ordering, purchase, escrow_ordering, escrow_commitments
):
    """created contains detached, which contains the detach-and-discharge part."""
    from comal.enactment import project_model
    from comal.simulate import Scenario, run_scenario
    from comal.synthesis import (
        SynthesisMode,
        compose_operationalization,
        forwarding_registry,
        synthesize_alignment_protocol,
    )

    setups = []
    for input_protocol, commitments in [
        (ordering, {"Purchase": purchase}),
        (escrow_ordering, escrow_commitments),
    ]:
        aligners = [
            synthesize_alignment_protocol(c, input_protocol, SynthesisMode.COMPLETE)
            for c in commitments.values()
        ]
        composed = compose_operationalization(input_protocol, aligners)
        registry = {p.name: p for p in [composed, input_protocol, *aligners]}
        setups.append((composed, registry, commitments))

    for composed, registry, commitments in setups:
        universe = uod(composed, registry)
        fwd = forwarding_registry(universe)
        for seed in range(25):
            scenario = Scenario(
                protocol=composed,
                registry=registry,
                commitments=tuple(commitments.values()),
                policy={"kind": "aligner"},
                horizon=18,
                seed=seed,
            )
            result = run_scenario(scenario)
            now = max(18, result.vector.events[-1].tick)
            for c in commitments.values():
                for role in (c.debtor, c.creditor):
                    m = project_model(result.vector, role, fwd)
                    context = ctx(universe, m, now)
                    created = kbs(lifecycle_table(c, context)["created"])
                    detached = kbs(lifecycle_table(c, context)["detached"])
                    partial = kbs(evaluate(And(c.detach, c.discharge), context))
                    assert detached <= created
                    assert partial <= detached


@pytest.mark.parametrize("case", ["Purchase", "EscrowPurchase", "EscrowTransfer", "Drawn"])
def test_tables_hold_until_next_change(case, ordering, escrow_ordering, purchase, escrow_commitments):
    """On random models, every lifecycle table at an instant in [now,
    next_change) equals the table at now; the rule is not vacuous either: some
    spans are longer than one instant and some tables change at their end.
    The table, and ``next_change``, are the same on the entries that
    ``base_event_names`` names alone, the views the timed explorer caches on;
    some views leave entries out. The drawn case draws each commitment from
    the oracle's formula generator, so windows sit under and, or and except."""
    if case != "Drawn":
        protocol, c = (ordering, purchase) if case == "Purchase" else (escrow_ordering, escrow_commitments[case])
        universe = uod(protocol)
    rng = random.Random(f"next-change-{case}")
    long_spans = changes = views = 0
    for _ in range(150):
        if case == "Drawn":
            universe = _random_universe(rng)
            c = CommitmentSpec(case, "A", "B", *(_random_oracle_formula(rng, 3, WITH_EXCEPT) for _ in range(3)))
        anchors = window_anchors([c])
        reads = base_event_names((c.create, c.detach, c.discharge))
        anchor_reads = base_event_names(anchor for anchor, _ in anchors if anchor is not None)
        entries = [
            ModelEntry(
                schema.name,
                freeze_bindings({p.name: key if p.key else f"{schema.name}.{p.name}" for p in schema.params}),
                rng.randint(0, 30),
                freeze_bindings({k: key for k in schema.keys}),
            )
            for schema in universe.schemas
            for key in ("1", "2")
            if rng.random() < 0.6
        ]
        m = Model(tuple(entries))
        now = rng.randint(0, 40)
        first = next_change(anchors, ctx(universe, m, now))
        assert first > now
        table = lifecycle_table(c, ctx(universe, m, now))
        for t in range(now, min(first, now + 40)):
            assert lifecycle_table(c, ctx(universe, m, t)) == table, (m, now, t)
        view = Model(tuple(entry for entry in entries if entry.name in reads))
        assert lifecycle_table(c, ctx(universe, view, now)) == table
        anchor_view = Model(tuple(entry for entry in entries if entry.name in anchor_reads))
        assert next_change(anchors, ctx(universe, anchor_view, now)) == first
        views += len(view.entries) < len(entries)
        long_spans += first - now > 1
        changes += first < math.inf and lifecycle_table(c, ctx(universe, m, first)) != table
    assert long_spans and changes and views


# ---------------------------------------------------------------------------
# Brute-force oracle equivalence

ORACLE_NAMES = ["alpha", "beta", "gamma", "delta"]


def oracle_eval(expr, entries, universe, unit, now=40):
    """Naive reference evaluator for window-, and-, or-, except- and
    base-formulas at instant ``now``: instances as (key binding, timestamp)
    pairs, computed by enumeration."""
    if isinstance(expr, BaseEvent):
        keys = set(universe.schema(expr.name).keys)
        return {
            (tuple(sorted((p, v) for p, v in e.bindings if p in keys)), e.tick)
            for e in entries
            if e.name == expr.name
        }
    if isinstance(expr, Window):
        kept = set()
        for kb, ts in oracle_eval(expr.inner, entries, universe, unit, now):
            lo, hi = (_oracle_bound(b, kb, entries, universe, unit, now) for b in (expr.lower, expr.upper))
            if lo is not None and hi is not None and lo <= ts < hi:
                kept.add((kb, ts))
        return kept
    if isinstance(expr, And):
        out = set()
        for lkb, lts in oracle_eval(expr.left, entries, universe, unit, now):
            for rkb, rts in oracle_eval(expr.right, entries, universe, unit, now):
                if _compatible(lkb, rkb):
                    merged = dict(rkb)
                    merged.update(dict(lkb))
                    out.add((tuple(sorted(merged.items())), max(lts, rts)))
        return out
    if isinstance(expr, Or):
        union = oracle_eval(expr.left, entries, universe, unit, now) | oracle_eval(
            expr.right, entries, universe, unit, now
        )
        best = {}
        for kb, ts in union:
            if kb not in best or ts < best[kb]:
                best[kb] = ts
        return {(kb, ts) for kb, ts in best.items()}
    if isinstance(expr, Except):
        exceptions = oracle_eval(expr.right, entries, universe, unit, now)
        return {
            (kb, ts)
            for kb, ts in oracle_eval(expr.left, entries, universe, unit, now)
            if not any(_compatible(ekb, kb) for ekb, _ in exceptions)
            and _oracle_deadline(expr.right, kb, entries, universe, unit, now) <= now
        }
    raise AssertionError(f"oracle does not handle {type(expr).__name__}")


def _oracle_bound(bound, kb, entries, universe, unit, now):
    """A window bound for ``kb`` as an absolute time; None when its anchor
    has no instance compatible with ``kb``."""
    if bound.base_event is None:
        return bound.offset if bound.offset == math.inf else bound.offset * unit
    anchors = [t for akb, t in oracle_eval(bound.base_event, entries, universe, unit, now) if _compatible(akb, kb)]
    return min(anchors) + bound.offset * unit if anchors else None


def _oracle_deadline(expr, kb, entries, universe, unit, now):
    """The last instant ``expr`` could still come to hold for ``kb``: a
    window's upper bound caps its inner deadline, ``and`` holds only while
    both sides can, ``or`` and ``except`` while either can."""
    if isinstance(expr, BaseEvent):
        return math.inf
    if isinstance(expr, Window):
        hi = _oracle_bound(expr.upper, kb, entries, universe, unit, now)
        inner = _oracle_deadline(expr.inner, kb, entries, universe, unit, now)
        return inner if hi is None else min(inner, hi)
    sides = [_oracle_deadline(e, kb, entries, universe, unit, now) for e in (expr.left, expr.right)]
    return min(sides) if isinstance(expr, And) else max(sides)


def _compatible(kb1, kb2):
    d2 = dict(kb2)
    return all(d2.get(p, v) == v for p, v in kb1)


def _random_universe(rng):
    schemas = []
    lines = []
    params = ["k key", "k2 key", "x", "y"]
    for i, name in enumerate(ORACLE_NAMES):
        chosen = ["out k key"]
        if rng.random() < 0.4:
            chosen.append("out k2 key")
        if rng.random() < 0.6:
            chosen.append("out x" if i % 2 else "out y")
        lines.append(f"A -> B: {name}[{', '.join(chosen)}]")
        schemas.append((name, chosen))
    text = "Rand {{ roles A, B parameters out k key, out k2 key, out x, out y\n {} }}".format(
        "\n".join(lines)
    )
    return uod(parse_protocol(text))


def _random_entries(rng, universe):
    entries = []
    for _ in range(rng.randint(0, 8)):
        schema = rng.choice(universe.schemas)
        bindings = {}
        for p in schema.params:
            if p.key:
                bindings[p.name] = rng.choice(["1", "2"])
            else:
                bindings[p.name] = rng.choice(["a", "b"])
        entries.append(ModelEntry(
            schema.name, freeze_bindings(bindings), rng.randint(0, 15),
            freeze_bindings({k: bindings[k] for k in schema.keys}),
        ))
    # Models keep one entry per (name, bindings).
    unique = {}
    for e in entries:
        unique.setdefault((e.name, e.bindings), e)
    return tuple(unique.values())


WITH_EXCEPT = (Window, And, Or, Except)


def _random_oracle_formula(rng, depth, connectives=(Window, And, Or)):
    if depth == 0 or rng.random() < 0.35:
        return BaseEvent(rng.choice(ORACLE_NAMES))
    node = connectives[rng.randrange(len(connectives))]
    if node is Window:
        bound = (
            TimeRef(rng.randint(0, 20))
            if rng.random() < 0.5
            else TimeRef(rng.randint(0, 12), BaseEvent(rng.choice(ORACLE_NAMES)))
        )
        return Window(_random_oracle_formula(rng, depth - 1, connectives), upper=bound)
    return node(*(_random_oracle_formula(rng, depth - 1, connectives) for _ in range(2)))


def test_evaluate_matches_brute_force_oracle():
    """Window, and and or at instant 40; then with except, nested too, at
    drawn instants, where some exceptions hold. Each drawn model is evaluated
    on one ``Model`` at a drawn instant, then later, earlier and later again,
    and must give at each what a fresh model gives, which the model's memo of
    clock-free nodes would not if it held a node that reads the clock."""
    rng = random.Random(501)
    for case in range(500):
        universe = _random_universe(rng)
        entries = _random_entries(rng, universe)
        formula = _random_oracle_formula(rng, rng.randint(1, 3))
        context = EvaluationContext(Model(entries), 40)
        ours = {(i.key_binding, i.timestamp) for i in evaluate(formula, context)}
        reference = oracle_eval(formula, entries, universe, 1)
        assert ours == reference, f"case {case}: {formula}"
    rng = random.Random(502)
    held = 0
    for case in range(3000):
        universe = _random_universe(rng)
        entries = _random_entries(rng, universe)
        formula = _random_oracle_formula(rng, rng.randint(1, 4), WITH_EXCEPT)
        now = rng.randint(0, 30)
        shared = Model(entries)
        for at in (now, now + 8, now // 2, 31):
            context = EvaluationContext(shared, at)
            ours = evaluate(formula, context)
            assert ours == evaluate(formula, EvaluationContext(Model(entries), at)), f"case {case} at {at}: {formula}"
            reference = oracle_eval(formula, entries, universe, 1, at)
            assert {(i.key_binding, i.timestamp) for i in ours} == reference, f"case {case} at {at}: {formula}"
            held += any(isinstance(node, Except) and instances for node, instances in context._memo.values())
    assert held


# ---------------------------------------------------------------------------
# One evaluation per node and context


class _Forgetful(dict):
    """A memo that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def _unshared(m, now):
    """A context that evaluates every node afresh each time it is reached: on
    a copy of ``m`` whose memo, like the context's memos, keeps nothing."""
    copy = Model(m.entries)
    object.__setattr__(copy, "_memo", _Forgetful())
    context = EvaluationContext(copy, now)
    object.__setattr__(context, "_memo", _Forgetful())
    object.__setattr__(context, "_anchors", _Forgetful())
    return context


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_shared_context_matches_unshared_evaluation(data, ordering, escrow_ordering, purchase, escrow_commitments):
    """On models drawn over the fixture commitments' messages (EscrowTransfer
    nests discharged(EscrowPurchase); expired and violated are exceptions), at
    several instants: every lifecycle table and the next change, evaluated in
    one shared context in a drawn order, equal each formula evaluated in a
    context of its own that remembers nothing."""
    schemas = {s.name: s for p in (ordering, escrow_ordering) for s in uod(p).schemas}
    ticks = data.draw(st.fixed_dictionaries(
        {(name, key): st.none() | st.integers(0, 30) for name in sorted(schemas) for key in ("1", "2")}
    ))
    m = Model(tuple(
        ModelEntry(
            name,
            freeze_bindings({p.name: key if p.key else f"{name}.{p.name}" for p in schemas[name].params}),
            tick,
            freeze_bindings({k: key for k in schemas[name].keys}),
        )
        for (name, key), tick in sorted(ticks.items())
        if tick is not None
    ))
    commitments = data.draw(st.permutations([purchase, *escrow_commitments.values()]))
    anchors = window_anchors(commitments)
    for now in data.draw(st.lists(st.integers(0, 45), min_size=1, max_size=4)):
        shared = EvaluationContext(m, now)
        change_first = data.draw(st.booleans())
        change = next_change(anchors, shared) if change_first else None
        tables = {c.name: lifecycle_table(c, shared) for c in commitments}
        if not change_first:
            change = next_change(anchors, shared)
        assert change == next_change(anchors, _unshared(m, now))
        for c in commitments:
            assert tables[c.name] == {
                kind: evaluate(c.lifecycle[kind], _unshared(m, now)) for kind in LIFECYCLE_KINDS
            }, (c.name, now)


def test_each_node_evaluated_once_per_context(monkeypatch, escrow_ordering, escrow_commitments):
    """All tables and the next change in one context evaluate each distinct
    node once, the nested discharged(EscrowPurchase) included. Another
    context over the same model evaluates only the nodes that read the clock
    (expired, violated and the nodes above them): the model keeps what it
    reads of the others, the lifecycle formulas, the anchors and the operands
    of those nodes, but not the event inside a window that does not read the
    clock. A context over a grown model, even grown by an entry no commitment
    reads, evaluates them all again."""
    computed = []
    evaluate_node = semantics._evaluate

    def counted(expr, context):
        computed.append(expr)
        return evaluate_node(expr, context)

    monkeypatch.setattr(semantics, "_evaluate", counted)
    universe = uod(escrow_ordering)

    def entry(name, tick):
        bindings = {p.name: "1" if p.key else f"{name}.{p.name}" for p in universe.schema(name).params}
        return ModelEntry(name, freeze_bindings(bindings), tick, (("oID", "1"),))

    m = Model(tuple(
        entry(name, tick) for name, tick in (("quote", 1), ("payEscrow", 3), ("ship", 5), ("payTransfer", 7))
    ))
    commitments = list(escrow_commitments.values())

    def evaluated(model):
        computed.clear()
        context = EvaluationContext(model, 9)
        tables = [lifecycle_table(c, context) for c in commitments]
        # The nested discharge (ship at 5) plus 5 comes before quote plus 10.
        assert next_change(window_anchors(commitments), context) == 10
        assert kbs(tables[1]["discharged"]) == {(("oID", "1"),)}
        ids = [id(node) for node in computed]
        assert len(ids) == len(set(ids))
        return ids

    first = evaluated(m)
    assert id(escrow_commitments["EscrowPurchase"].lifecycle["discharged"]) in first
    clocked = [id(node) for node in computed if node.reads_clock]
    assert 0 < len(clocked) < len(first)
    assert evaluated(m) == clocked
    purchase = escrow_commitments["EscrowPurchase"]
    kept = {id(node) for node, _ in m._memo.values()}
    assert {id(purchase.lifecycle[kind]) for kind in ("created", "detached", "discharged")} <= kept
    assert {id(purchase.detach), id(purchase.detach.upper.base_event)} <= kept
    assert id(purchase.detach.inner) in first and id(purchase.detach.inner) not in kept
    grown = m.add(entry("requestShip", 8))
    assert grown is not m
    assert evaluated(grown) == first
