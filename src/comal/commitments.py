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
    expr       := orexpr ("except" orexpr)*
    orexpr     := andexpr ("or" andexpr)*
    andexpr    := atom ("and" atom)*
    atom       := ("(" expr ")" | event) [window]
    event      := LIFEKIND "(" NAME ")" | NAME
    window     := "[" [time] "," [time] "]"
    time       := NUMBER | event ["+" NUMBER]

``except`` binds loosest, then ``or``, then ``and``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import WellFormednessError
from .lexer import TokenStream
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
    kind: str
    commitment: "CommitmentSpec"

    def __post_init__(self):
        if self.kind not in LIFECYCLE_KINDS:
            raise WellFormednessError(f"unknown lifecycle kind {self.kind!r}")


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
    """Parse the first commitment in ``source``."""
    stream = TokenStream(source)
    return _parse_commitment(stream, dict(registry or {}))


def _parse_commitment(stream: TokenStream, registry: Mapping[str, CommitmentSpec]) -> CommitmentSpec:
    stream.expect("name", "commitment")
    name = stream.expect("name").text
    debtor = stream.expect("name").text
    stream.expect("name", "to")
    creditor = stream.expect("name").text
    stream.expect("name", "create")
    create = _parse_expr(stream, registry)
    stream.expect("name", "detach")
    detach = _parse_expr(stream, registry)
    stream.expect("name", "discharge")
    discharge = _parse_expr(stream, registry)
    return CommitmentSpec(name, debtor, creditor, create, detach, discharge)


def _parse_expr(stream: TokenStream, registry) -> EventExpr:
    expr = _parse_or(stream, registry)
    while stream.accept("name", "except"):
        expr = Except(expr, _parse_or(stream, registry))
    return expr


def _parse_or(stream: TokenStream, registry) -> EventExpr:
    expr = _parse_and(stream, registry)
    while stream.accept("name", "or"):
        expr = Or(expr, _parse_and(stream, registry))
    return expr


def _parse_and(stream: TokenStream, registry) -> EventExpr:
    expr = _parse_atom(stream, registry)
    while stream.accept("name", "and"):
        expr = And(expr, _parse_atom(stream, registry))
    return expr


def _parse_atom(stream: TokenStream, registry) -> EventExpr:
    if stream.accept("symbol", "("):
        expr = _parse_expr(stream, registry)
        stream.expect("symbol", ")")
    else:
        expr = _parse_event(stream, registry)
    if stream.at("symbol", "["):
        expr = _parse_window(stream, registry, expr)
    return expr


def _parse_event(stream: TokenStream, registry) -> EventExpr:
    tok = stream.expect("name")
    if tok.text in LIFECYCLE_KINDS and stream.at("symbol", "("):
        stream.next()
        ref = stream.expect("name").text
        stream.expect("symbol", ")")
        target = registry.get(ref)
        if target is None:
            raise WellFormednessError(f"commitment {ref!r} not in registry")
        return LifecycleEvent(tok.text, target)
    return BaseEvent(tok.text)


def _parse_window(stream: TokenStream, registry, inner: EventExpr) -> Window:
    stream.expect("symbol", "[")
    lower = ZERO
    if not stream.at("symbol", ","):
        lower = _parse_time(stream, registry)
    stream.expect("symbol", ",")
    upper = FOREVER
    if not stream.at("symbol", "]"):
        upper = _parse_time(stream, registry)
    stream.expect("symbol", "]")
    return Window(inner, lower, upper)


def _parse_time(stream: TokenStream, registry) -> TimeRef:
    if stream.at("number"):
        return TimeRef(int(stream.next().text))
    event = _parse_event(stream, registry)
    offset = 0
    if stream.accept("symbol", "+"):
        offset = int(stream.expect("number").text)
    return TimeRef(offset, event)


# ---------------------------------------------------------------------------
# Printing


def print_event(expr: EventExpr) -> str:
    return _print_expr(expr, 0)


_PRECEDENCE = {Except: 1, Or: 2, And: 3}


def _print_expr(expr: EventExpr, outer: int) -> str:
    if isinstance(expr, BaseEvent):
        return expr.name
    if isinstance(expr, LifecycleEvent):
        return f"{expr.kind}({expr.commitment.name})"
    if isinstance(expr, Window):
        lo = "" if expr.lower == ZERO else _print_time(expr.lower)
        hi = "" if expr.upper == FOREVER else _print_time(expr.upper)
        return f"{_print_expr(expr.inner, 4)}[{lo}, {hi}]"
    op = {And: "and", Or: "or", Except: "except"}[type(expr)]
    level = _PRECEDENCE[type(expr)]
    text = f"{_print_expr(expr.left, level)} {op} {_print_expr(expr.right, level + 1)}"
    return f"({text})" if level < outer else text


def _print_time(t: TimeRef) -> str:
    if t.is_absolute:
        return str(int(t.offset))
    if t.offset == 0:
        return _print_expr(t.base_event, 4)
    return f"{_print_expr(t.base_event, 4)} + {int(t.offset)}"


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
    for role in (c.debtor, c.creditor):
        if role not in universe.roles:
            raise WellFormednessError(f"commitment {c.name!r}: role {role!r} not in the universe")
    for expr in (c.create, c.detach, c.discharge):
        _bind_expr(expr, universe)


def _bind_expr(expr: EventExpr, universe: Uod) -> frozenset[str]:
    """Validate ``expr`` and return the key parameters its instances carry."""
    if isinstance(expr, BaseEvent):
        if expr.name not in universe.by_name:
            raise WellFormednessError(f"event {expr.name!r} is not a message of the universe")
        return frozenset(universe.schema(expr.name).keys)
    if isinstance(expr, LifecycleEvent):
        bind_commitment(expr.commitment, universe)
        keys: frozenset[str] = frozenset()
        for kind_expr in (expr.commitment.create, expr.commitment.detach, expr.commitment.discharge):
            keys |= _bind_expr(kind_expr, universe)
        return keys
    if isinstance(expr, Window):
        keys = _bind_expr(expr.inner, universe)
        for bound in (expr.lower, expr.upper):
            if bound.base_event is not None:
                anchor = _bind_expr(bound.base_event, universe)
                if not anchor & keys:
                    raise WellFormednessError(
                        "window bound event shares no key parameter with the windowed event"
                    )
        return keys
    if isinstance(expr, (And, Or, Except)):
        left = _bind_expr(expr.left, universe)
        right = _bind_expr(expr.right, universe)
        if not left & right:
            op = {And: "and", Or: "or", Except: "except"}[type(expr)]
            raise WellFormednessError(f"{op!r} sides share no key parameter; instances cannot correlate")
        return left | right if isinstance(expr, And) else left
    raise TypeError(f"unknown expression node {type(expr).__name__}")
