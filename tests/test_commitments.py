from __future__ import annotations

import inspect
import random
import sys
from contextlib import suppress
from itertools import islice

import pytest

from comal import commitments, semantics
from comal.commitments import (
    CONNECTIVES,
    And,
    BaseEvent,
    CommitmentSpec,
    Except,
    FOREVER,
    INFINITY,
    LIFECYCLE_KINDS,
    LifecycleEvent,
    Or,
    TimeRef,
    Window,
    ZERO,
    bind_commitment,
    formula_depth,
    parse_commitment,
    parse_commitments,
    print_commitment,
)
from comal.enactment import Model, ModelEntry
from comal.errors import ComalError, ParseError, WellFormednessError
from comal.lexer import MAX_DEPTH
from comal.protocol import parse_protocol, parse_protocols, uod
from comal.simulate import load_sources
from comal.synthesis import synthesize_alignment_protocol


def test_parse_purchase(purchase):
    assert (purchase.debtor, purchase.creditor) == ("M", "C")
    assert purchase.create == BaseEvent("quote")
    assert purchase.detach == Window(
        BaseEvent("pay"), ZERO, TimeRef(10, BaseEvent("quote"))
    )
    assert purchase.discharge == Window(
        BaseEvent("ship"), ZERO, TimeRef(5, BaseEvent("pay"))
    )


@pytest.mark.parametrize(
    "offset, base, message",
    [
        (-1, None, "absolute instant must be a tick >= 0, got -1"),
        (1.5, None, "absolute instant must be a tick >= 0, got 1.5"),
        (INFINITY, BaseEvent("quote"), "event offset must be a tick >= 0, got inf"),
        (-1, BaseEvent("quote"), "event offset must be a tick >= 0, got -1"),
    ],
    ids=("absolute-negative", "absolute-fraction", "event-infinite", "event-negative"),
)
def test_time_reference_offsets_are_ticks(offset, base, message):
    with pytest.raises(WellFormednessError, match=f"^{message}$"):
        TimeRef(offset, base)


def test_lifecycle_event_kind_is_checked(purchase):
    with pytest.raises(WellFormednessError, match="^unknown lifecycle kind 'paid'$"):
        LifecycleEvent("paid", purchase)


def test_lifecycle_events_compare_by_kind_and_name(purchase):
    """Equality, hashing and ``repr`` read the commitment's name, as printing
    does, not its conditions."""
    renamed = parse_commitment("commitment Purchase M to C create pay detach quote discharge ship")
    assert LifecycleEvent("created", renamed) == LifecycleEvent("created", purchase)
    assert hash(LifecycleEvent("created", renamed)) == hash(LifecycleEvent("created", purchase))
    assert LifecycleEvent("created", purchase) != LifecycleEvent("detached", purchase)
    assert repr(LifecycleEvent("created", purchase)) == "LifecycleEvent(kind='created', name='Purchase')"


def test_parse_nested_transfer(escrow_transfer, escrow_purchase):
    assert (escrow_transfer.debtor, escrow_transfer.creditor) == ("E", "M")
    assert escrow_transfer.detach == LifecycleEvent("discharged", escrow_purchase)
    deadline = escrow_transfer.discharge
    assert isinstance(deadline, Window)
    assert deadline.upper == TimeRef(5, LifecycleEvent("discharged", escrow_purchase))


def test_debtor_equals_creditor_rejected():
    with pytest.raises(WellFormednessError, match="debtor equals creditor"):
        parse_commitment("commitment X A to A create m detach n discharge o")


def test_trailing_tokens_after_a_commitment_are_a_parse_error():
    with pytest.raises(ParseError):
        parse_commitment("commitment X A to B create m detach n discharge o ) garbage [")


def test_unknown_nested_commitment():
    with pytest.raises(WellFormednessError, match="commitment 'Nowhere' not in registry"):
        parse_commitment(
            "commitment X A to B create m detach discharged(Nowhere) discharge o"
        )


def test_window_defaults():
    c = parse_commitment("commitment X A to B create m detach n[,] discharge o[3, 9]")
    assert c.detach == Window(BaseEvent("n"), ZERO, FOREVER)
    assert c.discharge == Window(BaseEvent("o"), TimeRef(3), TimeRef(9))


def test_non_decimal_digit_is_a_parse_error():
    """A digit ``int`` refuses, such as ``²``, starts no number: it is an
    unexpected character at its line and column. A decimal digit of another
    script, such as ``٣``, is a number."""
    with pytest.raises(ParseError, match="unexpected character '²'") as info:
        parse_commitment("commitment P M to C create quote detach pay[, quote + ²] discharge ship")
    assert (info.value.line, info.value.column) == (1, 55)
    c = parse_commitment("commitment P M to C create quote detach pay[, quote + ٣] discharge ship")
    assert c.detach == Window(BaseEvent("pay"), ZERO, TimeRef(3, BaseEvent("quote")))


def test_inserted_characters_raise_only_comal_errors(fixtures_dir):
    """Each of these characters (digits ``int`` refuses or reads, a letter,
    and whitespace that ends no line), inserted at every offset of the
    commitment fixtures and ``ordering.bspl``, parses or is a ComalError:
    nothing else escapes the parsers."""
    characters = ("²", "½", "٣", "é", "\u00a0", "\u2028", "\u0085", "\r")
    sources = [(parse_commitments, f"{name}.cupid") for name in ("purchase", "escrow_purchase", "escrow_transfer")]
    sources.append((parse_protocols, "ordering.bspl"))
    parsed, escaped = 0, []
    for parse, name in sources:
        text = (fixtures_dir / name).read_text()
        for ch in characters:
            for i in range(len(text) + 1):
                parsed += 1
                try:
                    parse(text[:i] + ch + text[i:])
                except ComalError:
                    pass
                except Exception as exc:  # noqa: BLE001  any other exception is the failure reported
                    escaped.append((name, ch, i, repr(exc)))
    assert parsed == 6704
    assert escaped == []


def test_operator_precedence():
    c = parse_commitment(
        "commitment X A to B create m and n or p except q detach n discharge o"
    )
    assert c.create == Except(Or(And(BaseEvent("m"), BaseEvent("n")), BaseEvent("p")), BaseEvent("q"))


def test_round_trip(purchase, escrow_purchase, escrow_commitments):
    for c in [purchase, escrow_purchase, *escrow_commitments.values()]:
        registry = {name: spec for name, spec in escrow_commitments.items()}
        assert parse_commitment(print_commitment(c), registry) == c


def test_round_trip_compound():
    source = (
        "commitment X A to B "
        "create (m or n) and p[2, q + 7] "
        "detach m except (n or p) "
        "discharge p[, m]"
    )
    c = parse_commitment(source)
    assert parse_commitment(print_commitment(c)) == c


def _random_formula(rng: random.Random, depth: int, target: CommitmentSpec):
    """A formula at most ``depth`` nodes deep over quote, pay, ship and
    ``target``'s lifecycle events, joined by every connective and windowed
    with absolute, event-anchored or default bounds."""

    def event():
        if rng.random() < 0.25:
            return LifecycleEvent(rng.choice(LIFECYCLE_KINDS), target)
        return BaseEvent(rng.choice(("quote", "pay", "ship")))

    def bound(default):
        pick = rng.randrange(3)
        return default if pick == 0 else TimeRef(rng.randint(0, 9), event() if pick == 2 else None)

    if depth == 1 or rng.random() < 0.2:
        return event()
    pick = rng.randrange(len(CONNECTIVES) + 1)
    if pick == len(CONNECTIVES):
        return Window(_random_formula(rng, depth - 1, target), bound(ZERO), bound(FOREVER))
    node = CONNECTIVES[pick][0]
    return node(_random_formula(rng, depth - 1, target), _random_formula(rng, depth - 1, target))


def test_round_trip_random(purchase):
    """Printing and parsing back gives the same commitment, on formulas the
    printer must parenthesize: a looser connective below a tighter one or as
    a right side, a connective or a window under a window."""
    rng = random.Random(2017)
    registry = {purchase.name: purchase}
    texts = []
    for _ in range(300):
        c = CommitmentSpec("X", "M", "C", *(_random_formula(rng, 6, purchase) for _ in range(3)))
        texts.append(print_commitment(c))
        assert parse_commitment(texts[-1], registry) == c, texts[-1]
    bare = [text.replace(f"({purchase.name})", "") for text in texts]
    assert all(any(f" {keyword} " in text for text in bare) for _, keyword in CONNECTIVES)
    assert sum("(" in text for text in bare) > 100
    assert any(f"{kind}({purchase.name}) + " in text for text in texts for kind in LIFECYCLE_KINDS)


def test_lifecycle_formulas(purchase):
    cre, det, dis = purchase.create, purchase.detach, purchase.discharge
    assert purchase.lifecycle == {
        "created": cre,
        "detached": And(cre, det),
        "discharged": Or(And(cre, dis), And(det, dis)),
        "expired": Except(cre, det),
        "violated": Except(And(cre, det), dis),
    }


def test_bind_against_universe(ordering, purchase):
    bind_commitment(purchase, uod(ordering))


def test_bind_unknown_event(ordering):
    c = parse_commitment("commitment X M to C create nonesuch detach pay discharge ship")
    with pytest.raises(WellFormednessError, match="event 'nonesuch' is not a message of the universe"):
        bind_commitment(c, uod(ordering))


def test_bind_unknown_role(ordering):
    c = parse_commitment("commitment X M to Z create quote detach pay discharge ship")
    with pytest.raises(WellFormednessError, match="role"):
        bind_commitment(c, uod(ordering))


def test_bind_rejects_uncorrelated_sides():
    registry = {}
    protocol_text = """
    Disjoint {
      roles A, B
      parameters out k1 key, out k2 key, out x, out y
      A -> B: m[out k1 key, out x]
      A -> B: n[out k2 key, out y]
    }
    """
    from comal.protocol import parse_protocol

    universe = uod(parse_protocol(protocol_text))
    c = parse_commitment("commitment X A to B create m or n detach m discharge n", registry)
    with pytest.raises(WellFormednessError, match="share no key"):
        bind_commitment(c, universe)


KEYS = """
Keys {
  roles A, B
  parameters out k key, out j key, out x, out y, out z
  A -> B: a[out k key, out x]
  B -> A: b[in k key, out j key, out y]
  A -> B: c[out j key, out z]
}
"""


@pytest.mark.parametrize("create", ("(a or b) and c", "(b or a) and c"))
def test_bind_or_carries_the_keys_of_both_sides(create):
    """An ``or`` instance comes from either side, so it carries only the keys
    both sides carry: here none that ``c`` carries, whichever side ``b`` is."""
    universe = uod(parse_protocol(KEYS))
    c = parse_commitment(f"commitment X A to B create {create} detach a discharge c")
    with pytest.raises(WellFormednessError, match="^'and' sides share no key parameter"):
        bind_commitment(c, universe)


@pytest.mark.parametrize("kind, binds", (
    ("created", False), ("expired", False), ("detached", True), ("violated", True), ("discharged", False),
))
def test_lifecycle_event_carries_the_keys_of_its_kind(kind, binds):
    """A lifecycle instance carries the keys of its kind's formula, not of
    every condition of its commitment: ``C`` is created and expires by ``a``,
    keyed by ``k`` alone, so ``c``, keyed by ``j``, cannot correlate with
    those; its detachment joins ``b`` and carries ``j`` too, and its discharge
    comes from ``a`` with either of ``a`` and ``b``, so carries ``k`` alone."""
    universe = uod(parse_protocol(KEYS))
    registry = {"C": parse_commitment("commitment C A to B create a detach b discharge a")}
    d = parse_commitment(f"commitment D A to B create {kind}(C) and c detach a discharge a", registry)
    if binds:
        bind_commitment(d, universe)
    else:
        with pytest.raises(WellFormednessError, match="^'and' sides share no key parameter"):
            bind_commitment(d, universe)


def _chain(length: int, twice: bool) -> CommitmentSpec:
    """C0 to C{length - 1}, each created on the creation of the one before it;
    with ``twice``, also detached on its detachment, so that it names that
    commitment twice."""
    c = CommitmentSpec("C0", "M", "C", BaseEvent("quote"), BaseEvent("pay"), BaseEvent("ship"))
    for i in range(1, length):
        detach = LifecycleEvent("detached", c) if twice else BaseEvent("pay")
        c = CommitmentSpec(f"C{i}", "M", "C", LifecycleEvent("created", c), detach, BaseEvent("ship"))
    return c


@pytest.mark.parametrize("twice", (False, True), ids=("once", "twice"))
def test_nested_commitments_are_walked_once_each(monkeypatch, ordering, twice):
    """Binding a chain of 40 nested commitments binds each commitment's three
    conditions once, and ``semantics._reached`` visits each once: 120 calls
    and 120 nodes, where walking every path takes 2**40 on the twice-named
    chain. The counters stop a walk that passes 120."""
    n = 40
    last = _chain(n, twice)
    calls = 0
    bind = commitments._bind_expr

    class Exhausted(Exception):
        pass

    def counted(expr, universe, seen):
        nonlocal calls
        calls += 1
        if calls > 3 * n:
            raise Exhausted
        return bind(expr, universe, seen)

    monkeypatch.setattr(commitments, "_bind_expr", counted)
    # A stopped walk is left here, and only counts reach the asserts, so that
    # a failure report prints no formula: printing one walks every path too.
    with suppress(Exhausted):
        bind_commitment(last, uod(ordering))
    assert calls == 3 * n
    conditions = (last.create, last.detach, last.discharge)
    assert sum(1 for _ in islice(semantics._reached(conditions), 3 * n + 1)) == 3 * n
    assert semantics.base_event_names(conditions) == {"quote", "pay", "ship"}


def _twice_source(length: int) -> str:
    """``_chain(length, twice=True)`` as a commitment file."""
    lines = ["commitment C0 M to C create quote detach pay discharge ship"]
    lines += [f"commitment C{i} M to C create created(C{i - 1}) detach detached(C{i - 1}) discharge ship"
              for i in range(1, length)]
    return "\n".join(lines) + "\n"


def test_depth_of_a_built_commitment_is_its_parsed_twins():
    """The parser records a commitment's depth; one built directly works it
    out from its conditions, to the same value: 100 at the bound."""
    n = (MAX_DEPTH - 1) // 3 + 1
    assert _chain(n, twice=True).depth == parse_commitments(_twice_source(n))[f"C{n - 1}"].depth == MAX_DEPTH


def test_commitments_defined_twice_are_compared_once_each(monkeypatch, tmp_path):
    """Loading a file that chains 34 commitments, each created and detached on
    the one before it, twice over compares each commitment with its twin
    once, and each of its two lifecycle events by kind and name: 100
    comparisons, where comparing formulas walks 2**33 paths. The counter stops
    a comparison past 102, and only the count reaches the assert, so that a
    failure report prints no formula."""
    n = (MAX_DEPTH - 1) // 3 + 1
    path = tmp_path / "chain.cupid"
    path.write_text(_twice_source(n))
    calls = 0

    class Exhausted(Exception):
        pass

    def counting(cls):
        compare = cls.__eq__

        def counted(self, other):
            nonlocal calls
            calls += 1
            if calls > 3 * n:
                raise Exhausted
            return compare(self, other)
        monkeypatch.setattr(cls, "__eq__", counted)

    counting(CommitmentSpec)
    counting(LifecycleEvent)
    with suppress(Exhausted):
        assert len(load_sources([], [path, path])[1]) == n
    assert calls == 3 * n - 2


# Purchase's three messages of order 1: quote at tick 1, pay at 2, ship at 3,
# in (name, bindings) order.
MODEL = Model(tuple(
    ModelEntry(name, (("oID", "1"), (f"{name}ID", "v")), tick, (("oID", "1"),))
    for name, tick in (("pay", 2), ("quote", 1), ("ship", 3))
))


def _nested_source(length: int) -> str:
    """C0 to C{length - 1}, each created on the creation of the one before."""
    lines = ["commitment C0 M to C create quote detach pay discharge ship"]
    lines += [f"commitment C{i} M to C create created(C{i - 1}) detach pay discharge ship" for i in range(1, length)]
    return "\n".join(lines) + "\n"


def _deep_source(kind: str, depth: int) -> str:
    """A commitment file whose last condition nests ``depth`` levels of
    ``kind``: parentheses, an ``and`` chain of that many terms, or created
    events nested through 3·depth + 1 levels (a lifecycle event counts its
    commitment's formula)."""
    if kind == "nested":
        return _nested_source(depth + 1)
    create = "(" * depth + "quote" + ")" * depth if kind == "parentheses" else " and ".join(["quote"] * depth)
    return f"commitment P M to C create {create} detach pay[, quote + 10] discharge ship[, pay + 5]\n"


DEEPEST = {"parentheses": MAX_DEPTH, "chain": MAX_DEPTH, "nested": (MAX_DEPTH - 1) // 3}


@pytest.mark.parametrize("kind", DEEPEST)
def test_deepest_formula_binds_synthesizes_and_evaluates(kind, ordering):
    """At the depth bound a commitment parses, prints back, binds, has its
    aligner synthesized and its lifecycle evaluated and bounded: every walker
    stays within Python's recursion limit."""
    registry = parse_commitments(_deep_source(kind, DEEPEST[kind]))
    c = list(registry.values())[-1]
    assert formula_depth(c.create) == (1 if kind == "parentheses" else MAX_DEPTH)
    assert c.depth == max(formula_depth(e) for e in (c.create, c.detach, c.discharge))
    assert parse_commitment(print_commitment(c), registry) == c
    assert hash(c) == hash(parse_commitment(print_commitment(c), registry))
    bind_commitment(c, uod(ordering))
    assert synthesize_alignment_protocol(c, ordering).schemas
    ctx = semantics.EvaluationContext(MODEL, 20)
    assert semantics.lifecycle_table(c, ctx)["created"]
    for kind in LIFECYCLE_KINDS:
        semantics.deadline(c.lifecycle[kind], (("oID", "1"),), ctx)


def test_parentheses_at_the_depth_bound_take_two_frames_each():
    """The parser recurses once per parenthesis through ``_parse_atom`` and
    ``_parse_expr``, so ``MAX_DEPTH`` of them parse within 250 frames."""
    source = _deep_source("parentheses", MAX_DEPTH)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 250)
    try:
        c = parse_commitment(source)
    finally:
        sys.setrecursionlimit(limit)
    assert c.create == BaseEvent("quote")


@pytest.mark.parametrize("kind", DEEPEST)
def test_formula_past_the_depth_bound_is_a_parse_error(kind):
    """One level deeper is a ``ParseError`` at the token that passes the
    bound: the parenthesis past it, the ``and`` that makes the chain too deep,
    or the lifecycle event whose commitment is too deep."""
    source = _deep_source(kind, DEEPEST[kind] + 1)
    last = source.splitlines()[-1]
    line, column = source.count("\n"), last.index(" create ") + len(" create ") + 1
    if kind == "parentheses":
        column += MAX_DEPTH
    elif kind == "chain":
        column += len("quote and " * (MAX_DEPTH - 1) + "quote ")
    with pytest.raises(ParseError, match=f"^{line}:{column}: .* nested deeper than {MAX_DEPTH} levels$"):
        parse_commitments(source)
