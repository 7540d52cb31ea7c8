from __future__ import annotations

import random

import pytest

from comal.commitments import parse_commitments
from comal.errors import ParseError, WellFormednessError
from comal.lexer import MAX_DEPTH
from comal.protocol import (
    IN,
    OUT,
    MessageSchema,
    ParameterDecl,
    Protocol,
    canonicalize,
    parse_protocol,
    parse_protocols,
    print_protocol,
    uod,
)


def test_parse_ordering(ordering):
    assert ordering.name == "Ordering"
    assert ordering.roles == ("M", "C", "S")
    assert ordering.keys == ("oID",)
    assert len(ordering.params) == 6
    assert all(p.adornment == OUT for p in ordering.params)
    assert [s.name for s in ordering.schemas] == ["quote", "pay", "requestShip", "ship"]
    quote = ordering.schemas[0]
    assert (quote.sender, quote.receiver) == ("M", "C")
    assert quote.outs == ("oID", "item", "price")
    assert quote.keys == ("oID",)  # inherited from the protocol declaration


def test_parse_composite(operationalization_registry):
    top = operationalization_registry["OperationalizationProtocol"]
    assert len(top.subprotocols) == 3
    assert not top.schemas
    assert top.keys == ("oID",)


def test_self_message_rejected():
    text = """
    Bad {
      roles M
      parameters out k key, out x
      M -> M: x[out k key, out x]
    }
    """
    with pytest.raises(WellFormednessError, match="sender equals receiver"):
        parse_protocol(text)


def test_schema_requires_key():
    text = """
    Bad {
      roles A, B
      parameters out k key, out x
      A -> B: m[out x]
    }
    """
    with pytest.raises(WellFormednessError, match="key"):
        parse_protocol(text)


MISKEYED = "P {\n roles A, B\n parameters out k key, out x\n A -> B: m[out k key, out x key]\n}\n"


def test_schema_keys_must_be_the_protocol_keys():
    """The message names the keys sorted, whatever the hash seed."""
    message = (
        "protocol 'P': schema 'm' keys ['k', 'x'] must equal its parameters intersected "
        "with the protocol keys ['k']"
    )
    with pytest.raises(WellFormednessError) as info:
        parse_protocol(MISKEYED)
    assert str(info.value) == message


def test_parameter_cannot_be_both_in_and_out():
    text = """
    Bad {
      roles A, B
      parameters out k key, in x, out x
      A -> B: m[out k key]
    }
    """
    with pytest.raises(WellFormednessError, match="duplicate"):
        parse_protocol(text)


def test_undeclared_role_rejected():
    text = """
    Bad {
      roles A, B
      parameters out k key
      A -> Z: m[out k key]
    }
    """
    with pytest.raises(WellFormednessError, match="undeclared role"):
        parse_protocol(text)


HEADER = "P {\n  roles A, B\n  parameters out k key\n"

# (parser, source, error, message, line of a parse error)
MALFORMED = [
    (parse_protocol, "Oops {\n  roles A B\n}", ParseError, "expected 'parameters'", 2),
    (parse_protocol, HEADER + "  A -> B: m[inout k]\n}", ParseError, "expected 'in' or 'out'", 4),
    (parse_protocol, HEADER + "  Sub(A, in k key, B)\n}", ParseError, "role arguments must precede", 4),
    (parse_protocol, HEADER + "  A B\n}", ParseError, "expected a message schema", 4),
    (parse_protocol, "P {\n  roles A, $B\n}", ParseError, "unexpected character", 2),
    (parse_protocol, HEADER + "}\ngarbage [", ParseError, "expected 'eof', found 'garbage'", 5),
    (parse_protocols, HEADER + "}\n" + HEADER + "}", WellFormednessError, "duplicate protocol name", None),
    (parse_commitments, "commitment C A to B create m detach m discharge m\n" * 2, WellFormednessError,
     "duplicate commitment name", None),
]


def test_syntax_error_carries_position():
    """A bad adornment, a role argument after a parameter argument, a
    reference with neither '->' nor '(', an unexpected character, tokens
    after the one protocol ``parse_protocol`` reads, and duplicate protocol
    and commitment names are each rejected."""
    for parse, source, error, message, line in MALFORMED:
        with pytest.raises(error, match=message) as info:
            parse(source)
        if line is not None:
            assert info.value.line == line, source


def test_round_trip_fixture(ordering, escrow_ordering, operationalization_registry):
    hidden = parse_protocol(
        """
        Hidden {
          roles A, B private R
          parameters out k key, out x private out h, out j key
          A -> B: m[out k, out x]
          B -> R: n[in k, out h]
          R -> A: o[in k, in h, out j]
        }
        """
    )
    assert hidden.private_roles == ("R",) and len(hidden.private_params) == 2
    for p in [ordering, escrow_ordering, *operationalization_registry.values(), hidden]:
        assert parse_protocol(print_protocol(p)) == p


def test_print_header_only():
    p = parse_protocol("Empty { roles A, B parameters out k key }")
    assert parse_protocol(print_protocol(p)) == p
    assert p.references == ()


def test_canonicalize_is_order_insensitive(ordering):
    shuffled = Protocol(
        name=ordering.name,
        roles=tuple(reversed(ordering.roles)),
        params=tuple(reversed(ordering.params)),
        references=tuple(reversed(ordering.references)),
    )
    assert canonicalize(shuffled) == canonicalize(ordering)


def test_canonicalize_keeps_a_reference_as_written(fixtures_dir):
    """A protocol reference's arguments are positional, so canonicalizing
    sorts the references by name but leaves each one's arguments in order."""
    op = parse_protocols((fixtures_dir / "ordering_op.bspl").read_text())["OrderingOp"]
    shuffled = Protocol(op.name, op.roles, op.params, references=tuple(reversed(op.references)))
    assert canonicalize(shuffled).references == tuple(sorted(op.references, key=lambda r: r.name))


@pytest.mark.parametrize(
    "name, adornment, message",
    [("x", "inout", "parameter 'x': bad adornment 'inout'"), ("", OUT, "parameter name must be nonempty")],
    ids=("adornment", "name"),
)
def test_parameter_declaration_is_checked(name, adornment, message):
    with pytest.raises(WellFormednessError, match=f"^{message}$"):
        ParameterDecl(name, adornment)


def test_uod_rejects_a_role_outside_the_universe():
    """A protocol built without ``validate`` may send a schema from a role it
    does not declare; its universe refuses it."""
    k = ParameterDecl("k", OUT, key=True)
    p = Protocol("P", ("A",), (k,), references=(MessageSchema("m", "A", "B", (k,)),))
    with pytest.raises(WellFormednessError, match="^schema 'm' uses a role outside the universe$"):
        uod(p)


def test_uod_ordering(ordering):
    universe = uod(ordering)
    assert set(universe.roles) == {"M", "C", "S"}
    assert {s.name for s in universe.schemas} == {"quote", "pay", "requestShip", "ship"}


def test_uod_atomic_protocol():
    p = parse_protocol(
        """
        Atom {
          roles A, B
          parameters out k key, out x
          A -> B: m[out k key, out x]
        }
        """
    )
    universe = uod(p)
    assert set(universe.roles) == {"A", "B"}
    assert [s.name for s in universe.schemas] == ["m"]


def test_uod_composite_expansion(operationalization_registry):
    top = operationalization_registry["OperationalizationProtocol"]
    universe = uod(top, operationalization_registry)
    assert set(universe.roles) == {"M", "C", "E", "S"}
    # The input protocol's five schemas plus the union of both aligners'
    # forwarding schemas (fwdCMPayEscrow appears in both and is deduplicated).
    assert {s.name for s in universe.schemas} == {
        "quote",
        "payEscrow",
        "requestShip",
        "ship",
        "payTransfer",
        "fwdCMPayEscrow",
        "fwdMEQuote",
        "fwdSEShip",
        "fwdMEShip",
    }
    fwd = universe.schema("fwdCMPayEscrow")
    assert (fwd.sender, fwd.receiver) == ("C", "M")
    assert fwd.keys == ("oID",)


def test_uod_flattening_is_union(operationalization_registry):
    top = operationalization_registry["OperationalizationProtocol"]
    whole = uod(top, operationalization_registry)
    parts: set[str] = set()
    for ref in top.subprotocols:
        sub = uod(operationalization_registry[ref.name], operationalization_registry)
        parts |= {s.name for s in sub.schemas}
    assert {s.name for s in whole.schemas} == parts


def test_uod_renames_by_position():
    registry = parse_protocols(
        """
        Inner {
          roles X, Y
          parameters out id key, out val
          X -> Y: move[out id key, out val]
        }
        Outer {
          roles A, B
          parameters out k key, out v
          Inner(B, A, out k key, out v)
        }
        """
    )
    universe = uod(registry["Outer"], registry)
    move = universe.schema("move")
    assert (move.sender, move.receiver) == ("B", "A")
    assert move.param_names == ("k", "v")
    assert move.keys == ("k",)


def test_uod_unresolved_and_cyclic():
    missing = parse_protocol(
        """
        Top {
          roles A, B
          parameters out k key
          Nowhere(A, B, out k key)
        }
        """
    )
    with pytest.raises(WellFormednessError, match="protocol 'Nowhere' not found in registry"):
        uod(missing, {})
    registry = parse_protocols(
        """
        Ping {
          roles A, B
          parameters out k key
          Pong(A, B, out k key)
        }
        Pong {
          roles A, B
          parameters out k key
          Ping(A, B, out k key)
        }
        """
    )
    with pytest.raises(WellFormednessError, match="^Ping -> Pong -> Ping$"):
        uod(registry["Ping"], registry)


def reference_chain(length: int) -> str:
    """P0 to P{length}, each referring to the next; P{length} sends m."""
    chain = "".join(f"P{i} {{\n roles A, B\n parameters out k key\n P{i + 1}(A, B, out k key)\n}}\n"
                    for i in range(length))
    return chain + f"P{length} {{\n roles A, B\n parameters out k key\n A -> B: m[out k key]\n}}\n"


def test_references_nest_up_to_the_depth_bound():
    """``MAX_DEPTH`` references nested in one another expand; one more is a
    ``WellFormednessError`` naming the chain."""
    registry = parse_protocols(reference_chain(MAX_DEPTH))
    assert [s.name for s in uod(registry["P0"], registry).schemas] == ["m"]
    registry = parse_protocols(reference_chain(MAX_DEPTH + 1))
    chain = " -> ".join(f"P{i}" for i in range(MAX_DEPTH + 2))
    with pytest.raises(WellFormednessError, match=f"^references nested deeper than {MAX_DEPTH} levels: {chain}$"):
        uod(registry["P0"], registry)


# ---------------------------------------------------------------------------
# Randomized round-trip suite

NAMES = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def random_protocol(rng: random.Random, index: int) -> Protocol:
    roles = rng.sample(["A", "B", "C", "D", "E"], rng.randint(2, 4))
    n_params = rng.randint(1, 5)
    names = rng.sample(NAMES, n_params)
    keys = set(rng.sample(names, rng.randint(1, n_params)))
    params = tuple(
        ParameterDecl(n, rng.choice([IN, OUT]), key=n in keys) for n in names
    )
    schemas = []
    for i in range(rng.randint(0, 4)):
        sender, receiver = rng.sample(roles, 2)
        chosen = rng.sample(names, rng.randint(1, n_params))
        if not any(c in keys for c in chosen):
            chosen.append(rng.choice(sorted(keys)))
        schema_params = tuple(
            ParameterDecl(c, rng.choice([IN, OUT]), key=c in keys) for c in chosen
        )
        schemas.append(MessageSchema(f"msg{index}_{i}", sender, receiver, schema_params))
    return Protocol(
        name=f"Proto{index}",
        roles=tuple(roles),
        params=params,
        references=tuple(schemas),
    )


def test_round_trip_randomized():
    rng = random.Random(20260810)
    for index in range(200):
        p = random_protocol(rng, index)
        p.validate()
        assert parse_protocol(print_protocol(p)) == p
