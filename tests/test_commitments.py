from __future__ import annotations

import pytest

from comal.commitments import (
    And,
    BaseEvent,
    Except,
    FOREVER,
    LifecycleEvent,
    Or,
    TimeRef,
    Window,
    ZERO,
    bind_commitment,
    parse_commitment,
    parse_commitments,
    print_commitment,
)
from comal.errors import ComalError, ParseError, WellFormednessError
from comal.protocol import parse_protocols, uod


def test_parse_purchase(purchase):
    assert (purchase.debtor, purchase.creditor) == ("M", "C")
    assert purchase.create == BaseEvent("quote")
    assert purchase.detach == Window(
        BaseEvent("pay"), ZERO, TimeRef(10, BaseEvent("quote"))
    )
    assert purchase.discharge == Window(
        BaseEvent("ship"), ZERO, TimeRef(5, BaseEvent("pay"))
    )


def test_parse_nested_transfer(escrow_transfer, escrow_purchase):
    assert (escrow_transfer.debtor, escrow_transfer.creditor) == ("E", "M")
    assert escrow_transfer.detach == LifecycleEvent("discharged", escrow_purchase)
    deadline = escrow_transfer.discharge
    assert isinstance(deadline, Window)
    assert deadline.upper == TimeRef(5, LifecycleEvent("discharged", escrow_purchase))


def test_debtor_equals_creditor_rejected():
    with pytest.raises(WellFormednessError, match="debtor equals creditor"):
        parse_commitment("commitment X A to A create m detach n discharge o")


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
