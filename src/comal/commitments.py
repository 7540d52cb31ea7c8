"""Commitment model: event expressions over message schemas, and named
commitments with create/detach/discharge conditions.

A commitment ``c`` binds a debtor to a creditor. Its three conditions are
event expressions: base message names, lifecycle events of other commitments,
time windows, and the connectives ``and``, ``or``, ``except``. Windows are
written ``event[lo, hi]``; either bound may be omitted (defaulting to ``0``
and infinity) and bounds may be anchored to events, as in ``pay[, quote + 10]``.

File grammar (`//` comments allowed):

    commitment := "commitment" NAME ROLE "to" ROLE
                  "create" expr "detach" expr "discharge" expr
    expr       := atom (CONNECTIVE atom)*
    atom       := ("(" expr ")" | event) window*
    event      := LIFEKIND "(" NAME ")" | NAME
    window     := "[" [time] "," [time] "]"
    time       := NUMBER | event ["+" NUMBER]

``CONNECTIVES`` lists the connectives' keywords, loosest first; each
associates to the left. The parser, the printer and the binder all read it. A
condition nests at most ``lexer.MAX_DEPTH`` parentheses, and its
:func:`formula_depth` is at most ``MAX_DEPTH``; past either it is a
``ParseError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .errors import ParseError, WellFormednessError
from .lexer import MAX_DEPTH, Token, TokenStream
from .protocol import Uod

INFINITY = math.inf

LIFECYCLE_KINDS = ("created", "detached", "discharged", "expired", "violated")
# Lifecycle states the creditor's model must not exceed the debtor's, and
# conversely; keyed by which side's inference implies the other's.
CREDITOR_TO_DEBTOR = ("created", "detached", "violated")
DEBTOR_TO_CREDITOR = ("discharged", "expired")


class EventExpr:
    """Base class for event expressions."""

    __slots__ = ()

    @cached_property  # kept in each node's __dict__, outside eq, hash and repr
    def reads_clock(self) -> bool:
        """Whether the instances of this expression can depend on the instant
        it is evaluated at, not only on the model. Only an ``except`` reads
        the clock, and so does every node above one: a lifecycle event
        through its formula in ``CommitmentSpec.lifecycle``, so ``expired``
        and ``violated`` do, whatever the conditions below them."""
        if isinstance(self, Except):
            return True
        if isinstance(self, LifecycleEvent):
            return self.commitment.lifecycle[self.kind].reads_clock
        return any(e.reads_clock for e in subformulas(self))


@dataclass(frozen=True)
class TimeRef:
    """A time instant: absolute ticks, or an event's occurrence plus an offset."""

    offset: int | float
    base_event: EventExpr | None = None

    def __post_init__(self):
        if self.base_event is None:
            if self.offset != INFINITY and (self.offset < 0 or int(self.offset) != self.offset):
                raise WellFormednessError(f"absolute instant must be a tick >= 0, got {self.offset}")
        else:
            if self.offset == INFINITY or self.offset < 0 or int(self.offset) != self.offset:
                raise WellFormednessError(f"event offset must be a tick >= 0, got {self.offset}")

    @property
    def is_absolute(self) -> bool:
        return self.base_event is None


ZERO = TimeRef(0)
FOREVER = TimeRef(INFINITY)


@dataclass(frozen=True)
class BaseEvent(EventExpr):
    name: str


@dataclass(frozen=True)
class LifecycleEvent(EventExpr):
    """A commitment reaching a lifecycle state. Equality, hashing and ``repr``
    read the kind and the commitment's name, as ``print_event`` does."""

    kind: str
    commitment: "CommitmentSpec" = field(compare=False, repr=False)
    name: str = field(init=False)

    def __post_init__(self):
        if self.kind not in LIFECYCLE_KINDS:
            raise WellFormednessError(f"unknown lifecycle kind {self.kind!r}")
        object.__setattr__(self, "name", self.commitment.name)


@dataclass(frozen=True)
class Window(EventExpr):
    inner: EventExpr
    lower: TimeRef = ZERO
    upper: TimeRef = FOREVER


@dataclass(frozen=True)
class And(EventExpr):
    left: EventExpr
    right: EventExpr


@dataclass(frozen=True)
class Or(EventExpr):
    left: EventExpr
    right: EventExpr


@dataclass(frozen=True)
class Except(EventExpr):
    left: EventExpr
    right: EventExpr


# The connectives and their keywords, loosest first: each binds tighter than
# those before it, so ``a except b or c and d`` is ``a except (b or (c and d))``.
CONNECTIVES = ((Except, "except"), (Or, "or"), (And, "and"))


@dataclass(frozen=True)
class CommitmentSpec:
    name: str
    debtor: str
    creditor: str
    create: EventExpr
    detach: EventExpr
    discharge: EventExpr

    def __post_init__(self):
        if self.debtor == self.creditor:
            raise WellFormednessError(f"commitment {self.name!r}: debtor equals creditor ({self.debtor!r})")

    @cached_property  # kept in the instance __dict__, outside eq, hash and repr
    def lifecycle(self) -> dict[str, EventExpr]:
        """Each lifecycle state's formula, built once, so that the formulas
        share their nodes: ``detached`` is part of ``violated``."""
        detached = And(self.create, self.detach)
        return {
            "created": self.create,
            "detached": detached,
            "discharged": Or(And(self.create, self.discharge), And(self.detach, self.discharge)),
            "expired": Except(self.create, self.detach),
            "violated": Except(detached, self.discharge),
        }

    @cached_property
    def depth(self) -> int:
        """The deepest :func:`formula_depth` of its conditions; the parser
        records it, and a nested commitment's is worked out once."""
        return max(map(formula_depth, (self.create, self.detach, self.discharge)))


# ---------------------------------------------------------------------------
# Parsing


def parse_commitments(
    source: str, registry: Mapping[str, CommitmentSpec] | None = None
) -> dict[str, CommitmentSpec]:
    """Parse every commitment in ``source``; earlier ones may be referenced by
    later ones (and by ``registry`` entries supplied by the caller)."""
    known = dict(registry or {})
    out: dict[str, CommitmentSpec] = {}
    stream = TokenStream(source)
    while not stream.at("eof"):
        c = _parse_commitment(stream, known)
        if c.name in out:
            raise WellFormednessError(f"duplicate commitment name {c.name!r}")
        known[c.name] = c
        out[c.name] = c
    return out


def parse_commitment(source: str, registry: Mapping[str, CommitmentSpec] | None = None) -> CommitmentSpec:
    """Parse ``source``, which holds one commitment and nothing after it."""
    stream = TokenStream(source)
    c = _parse_commitment(stream, dict(registry or {}))
    stream.expect("eof")
    return c


def _parse_commitment(stream: TokenStream, registry: Mapping[str, CommitmentSpec]) -> CommitmentSpec:
    stream.expect("name", "commitment")
    name = stream.expect("name").text
    debtor = stream.expect("name").text
    stream.expect("name", "to")
    creditor = stream.expect("name").text
    stream.expect("name", "create")
    create, create_depth = _parse_expr(stream, registry, 0)
    stream.expect("name", "detach")
    detach, detach_depth = _parse_expr(stream, registry, 0)
    stream.expect("name", "discharge")
    discharge, discharge_depth = _parse_expr(stream, registry, 0)
    c = CommitmentSpec(name, debtor, creditor, create, detach, discharge)
    # The parser knows ``depth`` already; a later reference reads it from here.
    c.__dict__["depth"] = max(create_depth, detach_depth, discharge_depth)
    return c


def _checked(tok: Token, depth: int) -> int:
    """``depth``, a ``ParseError`` at ``tok`` past ``MAX_DEPTH``."""
    if depth > MAX_DEPTH:
        raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", tok.line, tok.column)
    return depth


def _parse_expr(stream: TokenStream, registry, level: int, tier: int = 0) -> tuple[EventExpr, int]:
    """An expression within ``level`` parentheses whose connectives are
    ``CONNECTIVES[tier:]``, and its :func:`formula_depth`. Precedence climbing:
    a connective's right side takes only those binding tighter, so each
    parenthesis costs two frames."""
    expr, depth = _parse_atom(stream, registry, level)
    while True:
        for t in range(tier, len(CONNECTIVES)):
            node, keyword = CONNECTIVES[t]
            if tok := stream.accept("name", keyword):
                right, right_depth = _parse_expr(stream, registry, level, t + 1)
                expr, depth = node(expr, right), _checked(tok, 1 + max(depth, right_depth))
                break
        else:
            return expr, depth


def _parse_atom(stream: TokenStream, registry, level: int) -> tuple[EventExpr, int]:
    if stream.at("symbol", "("):
        if level == MAX_DEPTH:
            raise stream.error(f"parentheses nested deeper than {MAX_DEPTH} levels")
        stream.next()
        expr, depth = _parse_expr(stream, registry, level + 1)
        stream.expect("symbol", ")")
    else:
        expr, depth = _parse_event(stream, registry)
    while stream.at("symbol", "["):
        expr, depth = _parse_window(stream, registry, expr, depth)
    return expr, depth


def _parse_event(stream: TokenStream, registry) -> tuple[EventExpr, int]:
    tok = stream.expect("name")
    if tok.text in LIFECYCLE_KINDS and stream.at("symbol", "("):
        stream.next()
        ref = stream.expect("name").text
        stream.expect("symbol", ")")
        target = registry.get(ref)
        if target is None:
            raise WellFormednessError(f"commitment {ref!r} not in registry")
        return LifecycleEvent(tok.text, target), _checked(tok, 3 + target.depth)
    return BaseEvent(tok.text), 1


def _parse_window(stream: TokenStream, registry, inner: EventExpr, depth: int) -> tuple[Window, int]:
    tok = stream.expect("symbol", "[")
    lower = ZERO
    if not stream.at("symbol", ","):
        lower, lower_depth = _parse_time(stream, registry)
        depth = max(depth, lower_depth)
    stream.expect("symbol", ",")
    upper = FOREVER
    if not stream.at("symbol", "]"):
        upper, upper_depth = _parse_time(stream, registry)
        depth = max(depth, upper_depth)
    stream.expect("symbol", "]")
    return Window(inner, lower, upper), _checked(tok, 1 + depth)


def _parse_time(stream: TokenStream, registry) -> tuple[TimeRef, int]:
    if stream.at("number"):
        return TimeRef(_number(stream.next())), 0
    event, depth = _parse_event(stream, registry)
    offset = 0
    if stream.accept("symbol", "+"):
        offset = _number(stream.expect("number"))
    return TimeRef(offset, event), depth


def _number(tok: Token) -> int:
    """``tok``'s value; a ``ParseError`` at ``tok`` when it has more digits
    than ``int`` converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"number of {len(tok.text)} digits is too long", tok.line, tok.column) from None


def formula_depth(expr: EventExpr) -> int:
    """The nodes along ``expr``'s longest path. A lifecycle event counts three
    more than its commitment's ``depth``: its formula
    (``CommitmentSpec.lifecycle``) joins the conditions with up to two
    connectives, and evaluation, ``deadline`` and binding walk all three.
    Equality and hashing read only the commitment's name."""
    if isinstance(expr, LifecycleEvent):
        return 3 + expr.commitment.depth
    return 1 + max(map(formula_depth, subformulas(expr)), default=0)


def subformulas(expr: EventExpr) -> list[EventExpr]:
    """The expressions directly below ``expr``: a window's event and the
    events its bounds are anchored to, a connective's two sides, or the
    create, detach and discharge of the commitment a lifecycle event names."""
    if isinstance(expr, Window):
        return [expr.inner] + [t.base_event for t in (expr.lower, expr.upper) if t.base_event is not None]
    if isinstance(expr, (And, Or, Except)):
        return [expr.left, expr.right]
    if isinstance(expr, LifecycleEvent):
        return [expr.commitment.create, expr.commitment.detach, expr.commitment.discharge]
    return []


# ---------------------------------------------------------------------------
# Printing


def print_event(expr: EventExpr) -> str:
    return _print_expr(expr, 0)


def _print_expr(expr: EventExpr, outer: int) -> str:
    if isinstance(expr, BaseEvent):
        return expr.name
    if isinstance(expr, LifecycleEvent):
        return f"{expr.kind}({expr.name})"
    if isinstance(expr, Window):
        lo = "" if expr.lower == ZERO else _print_time(expr.lower)
        hi = "" if expr.upper == FOREVER else _print_time(expr.upper)
        return f"{_print_expr(expr.inner, len(CONNECTIVES))}[{lo}, {hi}]"
    tier = [node for node, _ in CONNECTIVES].index(type(expr))
    text = f"{_print_expr(expr.left, tier)} {CONNECTIVES[tier][1]} {_print_expr(expr.right, tier + 1)}"
    return f"({text})" if tier < outer else text


def _print_time(t: TimeRef) -> str:
    if t.is_absolute:
        return str(int(t.offset))
    if t.offset == 0:
        return _print_expr(t.base_event, len(CONNECTIVES))
    return f"{_print_expr(t.base_event, len(CONNECTIVES))} + {int(t.offset)}"


def print_commitment(c: CommitmentSpec) -> str:
    return (
        f"commitment {c.name} {c.debtor} to {c.creditor}\n"
        f"  create {print_event(c.create)}\n"
        f"  detach {print_event(c.detach)}\n"
        f"  discharge {print_event(c.discharge)}\n"
    )


# ---------------------------------------------------------------------------
# Binding against a universe of discourse


def bind_commitment(c: CommitmentSpec, universe: Uod) -> None:
    """Check that ``c`` only uses roles and message names from ``universe`` and
    that every connective correlates its sides through shared key parameters."""
    _bind_commitment(c, universe, {})


def _bind_commitment(
    c: CommitmentSpec, universe: Uod, seen: dict[int, dict[str, frozenset[str]]]
) -> dict[str, frozenset[str]]:
    """Bind ``c`` and return, for each lifecycle kind, the key parameters its
    instances carry. Each commitment is bound once per call: ``seen`` holds
    their key sets by ``id``, as hashing a commitment walks its whole formula
    tree."""
    keys = seen.get(id(c))
    if keys is None:
        for role in (c.debtor, c.creditor):
            if role not in universe.roles:
                raise WellFormednessError(f"commitment {c.name!r}: role {role!r} not in the universe")
        create, detach, discharge = (_bind_expr(e, universe, seen) for e in (c.create, c.detach, c.discharge))
        # What ``_bind_expr`` would give each formula of ``c.lifecycle``, read
        # off the conditions' key sets without walking the formulas again.
        detached = create | detach
        keys = seen[id(c)] = {
            "created": create,
            "detached": detached,
            "discharged": (create | discharge) & (detach | discharge),
            "expired": create,
            "violated": detached,
        }
    return keys


def _bind_expr(expr: EventExpr, universe: Uod, seen: dict[int, dict[str, frozenset[str]]]) -> frozenset[str]:
    """Validate ``expr`` and return the key parameters its instances carry."""
    if isinstance(expr, BaseEvent):
        if expr.name not in universe.by_name:
            raise WellFormednessError(f"event {expr.name!r} is not a message of the universe")
        return frozenset(universe.schema(expr.name).keys)
    if isinstance(expr, LifecycleEvent):
        return _bind_commitment(expr.commitment, universe, seen)[expr.kind]
    if isinstance(expr, Window):
        keys = _bind_expr(expr.inner, universe, seen)
        for bound in (expr.lower, expr.upper):
            if bound.base_event is not None:
                anchor = _bind_expr(bound.base_event, universe, seen)
                if not anchor & keys:
                    raise WellFormednessError(
                        "window bound event shares no key parameter with the windowed event"
                    )
        return keys
    if isinstance(expr, (And, Or, Except)):
        left = _bind_expr(expr.left, universe, seen)
        right = _bind_expr(expr.right, universe, seen)
        if not left & right:
            keyword = dict(CONNECTIVES)[type(expr)]
            raise WellFormednessError(f"{keyword!r} sides share no key parameter; instances cannot correlate")
        # An ``or`` instance comes from either side, an ``except`` one from its left.
        return left | right if isinstance(expr, And) else left & right if isinstance(expr, Or) else left
    raise TypeError(f"unknown expression node {type(expr).__name__}")
