"""Evaluation of event expressions over a role's model, each commitment's
lifecycle table (the instances of its five lifecycle states), and alignment,
which compares the debtor's and the creditor's tables: each role infers a
commitment's lifecycle from its own observations, and those inferences must be
compatible.

The evaluator reads only the model, and the model only through base-event
names: a ``BaseEvent`` keeps the entries of its name, and nothing else looks at
an entry. So an expression, its deadlines and :func:`next_change` come out the
same on the entries :func:`base_event_names` names alone; the timed explorer
caches its tables on these views. Each entry carries the key binding its
message instance fixed (``enactment.MessageInstance.key_binding``); an event
instance is a key binding and a timestamp, and instances correlate through
shared key parameters. Windows are half-open: an instance at timestamp ``t``
satisfies ``[lo, hi]`` when ``lo <= t < hi``, where event-anchored bounds
resolve per key binding to the anchor's timestamp plus the offset; if the
anchor is absent the instance is excluded. Conjunction joins on shared keys
and holds from the later timestamp; disjunction keeps the earliest instance
per key binding. An exception ``L except R`` holds for an instance of ``L``
only once ``R`` is absent *and* can no longer occur, i.e. its deadline has
passed at the evaluation instant; without a finite deadline it never holds.

A table reads ``now`` only through exception deadlines, which are window
upper bounds, so it stays the same until the model changes or ``now`` reaches
:func:`next_change`; the timed explorer and the simulator both rely on this.

Evaluation is per :class:`EvaluationContext`, one model at one instant: a
context evaluates each expression node at most once, however many formulas,
window bounds and deadlines reach it. A commitment's lifecycle formulas are
built once (``CommitmentSpec.lifecycle``), so its five tables, a nested
lifecycle event and every window anchored on it share their nodes. Only an
``except`` reads the instant, and so do the nodes above it
(``EventExpr.reads_clock``): ``expired``, ``violated`` and what names them.
The others hold at every instant, and those a later instant reads (see
:func:`_eval`) are kept on the model object, so every context over it shares
them: the timed explorer's views at each phase, and a simulator party's model
at each window bound until the model grows. Another context over the same
model evaluates only the nodes that read the clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import commitments as cm
from .commitments import CREDITOR_TO_DEBTOR, DEBTOR_TO_CREDITOR, CommitmentSpec, EventExpr
from .enactment import Bindings, Model, kb_agree

INF = math.inf


class EventInstance(NamedTuple):
    key_binding: Bindings
    timestamp: int | float


@dataclass(frozen=True)
class EvaluationContext:
    """A model and the instant it is evaluated at. ``_memo`` holds each
    expression node evaluated in this context with its instances, by the
    node's ``id``; holding the node keeps that id from being reused. Of the
    nodes that do not read the clock (``EventExpr.reads_clock``), those a
    later instant reads are kept on the model instead (``Model._memo``, see
    :func:`_eval`), so every context over one model shares them. ``_within``
    holds the one such node being evaluated, if any. ``_anchors`` holds each
    event-anchored bound's earliest anchor instant, or None, by the anchor's
    ``id`` and a key binding, with the anchor."""

    model: Model
    now: int | float
    _memo: dict[int, tuple[EventExpr, tuple[EventInstance, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _anchors: dict[tuple[int, Bindings], tuple[EventExpr, int | float | None]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _within: list[EventExpr] = field(default_factory=list, init=False, repr=False, compare=False)


def evaluate(expr: EventExpr, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    """The set of ``expr``'s instances entailed by the context's model."""
    return _eval(expr, ctx)


def _eval(expr: EventExpr, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    """``expr``'s instances, evaluated once per context. A node that does not
    read the clock is kept on the model as well, and so evaluated once per
    model, unless it is evaluated within a window or connective that does not
    read the clock either: a later instant reaches it only through that one.
    A later instant starts again from the lifecycle formulas and the window
    anchors and re-evaluates the nodes that read the clock, so the model
    keeps what it reads: those formulas and anchors, and the operands of the
    nodes that read the clock. Where a node is kept never changes its
    instances: without the clock, they are the same at every instant."""
    if expr.reads_clock:
        return _in_context(expr, ctx)
    known = ctx.model._memo.get(id(expr))
    if known is None:
        if ctx._within:
            return _in_context(expr, ctx)
        opens = isinstance(expr, (cm.Window, cm.And, cm.Or))
        if opens:
            ctx._within.append(expr)
        known = ctx.model._memo[id(expr)] = (expr, _in_context(expr, ctx))
        if opens:
            ctx._within.pop()
    return known[1]


def _in_context(expr: EventExpr, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    known = ctx._memo.get(id(expr))
    if known is None:
        known = ctx._memo[id(expr)] = (expr, _evaluate(expr, ctx))
    return known[1]


def _evaluate(expr: EventExpr, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    rule = _RULES.get(type(expr))
    if rule is None:
        raise TypeError(f"cannot evaluate expression node {type(expr).__name__}")
    return rule(expr, ctx)


def _base(expr: cm.BaseEvent, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    return tuple(EventInstance(entry.key_binding, entry.tick) for entry in ctx.model.entries if entry.name == expr.name)


def _lifecycle(expr: cm.LifecycleEvent, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    return _eval(expr.commitment.lifecycle[expr.kind], ctx)


def _window(expr: cm.Window, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    out = []
    for inst in _eval(expr.inner, ctx):
        lo = _resolve_bound(expr.lower, inst.key_binding, ctx)
        hi = _resolve_bound(expr.upper, inst.key_binding, ctx)
        if lo is not None and hi is not None and lo <= inst.timestamp < hi:
            out.append(inst)
    return tuple(out)


def _and(expr: cm.And, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    left = _eval(expr.left, ctx)
    right = _eval(expr.right, ctx) if left else ()
    return _dedupe(
        EventInstance(_merge(i.key_binding, j.key_binding), max(i.timestamp, j.timestamp))
        for i in left
        for j in right
        if kb_agree(i.key_binding, j.key_binding)
    )


def _or(expr: cm.Or, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    grouped: dict[Bindings, EventInstance] = {}
    for inst in _eval(expr.left, ctx) + _eval(expr.right, ctx):
        prior = grouped.get(inst.key_binding)
        if prior is None or inst.timestamp < prior.timestamp:
            grouped[inst.key_binding] = inst
    return tuple(grouped[kb] for kb in sorted(grouped))


def _except(expr: cm.Except, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    left = _eval(expr.left, ctx)
    if not left:
        return ()
    exceptions = _eval(expr.right, ctx)
    return _dedupe(
        inst
        for inst in left
        if not any(kb_agree(inst.key_binding, e.key_binding) for e in exceptions)
        and deadline(expr.right, inst.key_binding, ctx) <= ctx.now
    )


_RULES = {
    cm.BaseEvent: _base,
    cm.LifecycleEvent: _lifecycle,
    cm.Window: _window,
    cm.And: _and,
    cm.Or: _or,
    cm.Except: _except,
}


def _merge(left: Bindings, right: Bindings) -> Bindings:
    merged = dict(right)
    merged.update(dict(left))
    return tuple(sorted(merged.items()))


def _dedupe(instances: Iterable[EventInstance]) -> tuple[EventInstance, ...]:
    return tuple(sorted(set(instances)))


def _resolve_bound(bound: cm.TimeRef, kb: Bindings, ctx: EvaluationContext) -> int | float | None:
    """A window bound as an absolute time for one key binding, or None when an
    event-anchored bound's event has not occurred."""
    anchor = bound.base_event
    if anchor is None:
        return bound.offset
    known = ctx._anchors.get((id(anchor), kb))
    if known is None:
        first = min((i.timestamp for i in _eval(anchor, ctx) if kb_agree(i.key_binding, kb)), default=None)
        known = ctx._anchors[id(anchor), kb] = (anchor, first)
    return None if known[1] is None else known[1] + bound.offset


def deadline(expr: EventExpr, kb: Bindings, ctx: EvaluationContext) -> int | float:
    """The latest instant at which ``expr`` could still come to hold for ``kb``
    given the current model; infinite when nothing bounds it."""
    if isinstance(expr, cm.BaseEvent):
        return INF
    if isinstance(expr, cm.LifecycleEvent):
        return deadline(expr.commitment.lifecycle[expr.kind], kb, ctx)
    if isinstance(expr, cm.Window):
        hi = _resolve_bound(expr.upper, kb, ctx)
        upper = INF if hi is None else hi
        return min(deadline(expr.inner, kb, ctx), upper)
    if isinstance(expr, cm.And):
        return min(deadline(expr.left, kb, ctx), deadline(expr.right, kb, ctx))
    if isinstance(expr, cm.Or):
        return max(deadline(expr.left, kb, ctx), deadline(expr.right, kb, ctx))
    if isinstance(expr, cm.Except):
        return max(deadline(expr.left, kb, ctx), deadline(expr.right, kb, ctx))
    raise TypeError(f"cannot bound expression node {type(expr).__name__}")


def lifecycle_table(c: CommitmentSpec, ctx: EvaluationContext) -> dict[str, tuple[EventInstance, ...]]:
    """The instances of each lifecycle state of ``c`` entailed by the model."""
    return {kind: _eval(c.lifecycle[kind], ctx) for kind in cm.LIFECYCLE_KINDS}


def _reached(exprs: Iterable[EventExpr]) -> Iterator[EventExpr]:
    """Every node the evaluation of ``exprs`` can reach, once each: through
    windows and their event-anchored bounds, connectives, and the create,
    detach and discharge of the commitments their lifecycle events name. Nodes
    are told apart by ``id``, as hashing one walks its whole formula tree."""
    stack = list(exprs)
    seen: set[int] = set()
    while stack:
        expr = stack.pop()
        if id(expr) in seen:
            continue
        seen.add(id(expr))
        yield expr
        stack += cm.subformulas(expr)


def base_event_names(exprs: Iterable[EventExpr]) -> frozenset[str]:
    """The names of the base events ``exprs`` reach: their evaluation, and
    their deadlines, read only the model entries of these names."""
    return frozenset(expr.name for expr in _reached(exprs) if isinstance(expr, cm.BaseEvent))


def window_anchors(commitments: Iterable[CommitmentSpec]) -> frozenset[tuple[EventExpr | None, int]]:
    """Every (anchor expression, offset) of an event-anchored window bound in
    ``commitments`` and the commitments their lifecycle events name, plus
    (None, instant) for each finite absolute bound."""
    return frozenset(
        (bound.base_event, int(bound.offset))
        for expr in _reached(e for c in commitments for e in (c.create, c.detach, c.discharge))
        if isinstance(expr, cm.Window)
        for bound in (expr.lower, expr.upper)
        if bound.offset != INF  # never infinite after an event
    )


def next_change(anchors: Iterable[tuple[EventExpr | None, int]], ctx: EvaluationContext) -> int | float:
    """The first instant after ``ctx.now`` at which a window bound from
    ``anchors`` falls under ``ctx.model``, or ``INF``: until then, lifecycle
    tables over those windows stay the same under this model."""
    first = INF
    for anchor, offset in anchors:
        instants = (offset,) if anchor is None else (i.timestamp + offset for i in _eval(anchor, ctx))
        for instant in instants:
            if ctx.now < instant < first:
                first = instant
    return first


# ---------------------------------------------------------------------------
# Alignment


@dataclass(frozen=True)
class Misalignment:
    kind: str
    key_binding: Bindings
    missing_role: str


@dataclass(frozen=True)
class AlignmentResult:
    aligned: bool
    misalignments: tuple[Misalignment, ...] = ()


def check_alignment_models(
    c: CommitmentSpec,
    debtor_table: Mapping[str, tuple[EventInstance, ...]],
    creditor_table: Mapping[str, tuple[EventInstance, ...]],
) -> AlignmentResult:
    """Compare the debtor's and the creditor's :func:`lifecycle_table` of
    ``c``: the creditor's ``CREDITOR_TO_DEBTOR`` inferences must be the
    debtor's too, and the debtor's ``DEBTOR_TO_CREDITOR`` ones the creditor's.
    Misalignments follow the order of the knower's table."""
    failures: list[Misalignment] = []
    for kind in CREDITOR_TO_DEBTOR:
        have = _kbs(debtor_table[kind])
        for kb in dict.fromkeys(i.key_binding for i in creditor_table[kind]):
            if kb not in have:
                failures.append(Misalignment(kind, kb, c.debtor))
    for kind in DEBTOR_TO_CREDITOR:
        have = _kbs(creditor_table[kind])
        for kb in dict.fromkeys(i.key_binding for i in debtor_table[kind]):
            if kb not in have:
                failures.append(Misalignment(kind, kb, c.creditor))
    return AlignmentResult(aligned=not failures, misalignments=tuple(failures))


def _kbs(instances) -> set[Bindings]:
    return {i.key_binding for i in instances}
