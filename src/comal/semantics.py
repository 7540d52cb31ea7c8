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

Evaluation is per :class:`EvaluationContext`: a context evaluates each
expression node at most once, however many formulas, window bounds and
deadlines reach it. A commitment's lifecycle formulas are built once
(``CommitmentSpec.lifecycle``), so its five tables, a nested lifecycle event
and every window anchored on it share their nodes. The memo dies with the
context, which holds one model at one instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from . import commitments as cm
from .commitments import CREDITOR_TO_DEBTOR, DEBTOR_TO_CREDITOR, CommitmentSpec, EventExpr
from .enactment import Bindings, Model, kb_agree

INF = math.inf


@dataclass(frozen=True)
class EventInstance:
    key_binding: Bindings
    timestamp: int | float


@dataclass(frozen=True)
class EvaluationContext:
    """A model and the instant it is evaluated at. ``_memo`` holds each
    expression node evaluated in this context with its instances, by the
    node's ``id``; holding the node keeps that id from being reused."""

    model: Model
    now: int | float
    _memo: dict[int, tuple[EventExpr, tuple[EventInstance, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def evaluate(expr: EventExpr, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    """The set of ``expr``'s instances entailed by the context's model."""
    return _eval(expr, ctx)


def _eval(expr: EventExpr, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    """``expr``'s instances, evaluated once per context."""
    known = ctx._memo.get(id(expr))
    if known is None:
        known = ctx._memo[id(expr)] = (expr, _evaluate(expr, ctx))
    return known[1]


def _evaluate(expr: EventExpr, ctx: EvaluationContext) -> tuple[EventInstance, ...]:
    if isinstance(expr, cm.BaseEvent):
        return tuple(
            EventInstance(entry.key_binding, entry.tick)
            for entry in ctx.model.entries
            if entry.name == expr.name
        )
    if isinstance(expr, cm.LifecycleEvent):
        return _eval(expr.commitment.lifecycle[expr.kind], ctx)
    if isinstance(expr, cm.Window):
        out = []
        for inst in _eval(expr.inner, ctx):
            lo = _resolve_bound(expr.lower, inst.key_binding, ctx)
            hi = _resolve_bound(expr.upper, inst.key_binding, ctx)
            if lo is None or hi is None:
                continue
            if lo <= inst.timestamp < hi:
                out.append(inst)
        return tuple(out)
    if isinstance(expr, cm.And):
        out = []
        for left in _eval(expr.left, ctx):
            for right in _eval(expr.right, ctx):
                if kb_agree(left.key_binding, right.key_binding):
                    kb = _merge(left.key_binding, right.key_binding)
                    out.append(EventInstance(kb, max(left.timestamp, right.timestamp)))
        return _dedupe(out)
    if isinstance(expr, cm.Or):
        grouped: dict[Bindings, EventInstance] = {}
        for inst in _eval(expr.left, ctx) + _eval(expr.right, ctx):
            prior = grouped.get(inst.key_binding)
            if prior is None or inst.timestamp < prior.timestamp:
                grouped[inst.key_binding] = inst
        return tuple(grouped[kb] for kb in sorted(grouped))
    if isinstance(expr, cm.Except):
        exceptions = _eval(expr.right, ctx)
        out = []
        for inst in _eval(expr.left, ctx):
            if any(kb_agree(inst.key_binding, e.key_binding) for e in exceptions):
                continue
            if deadline(expr.right, inst.key_binding, ctx) <= ctx.now:
                out.append(inst)
        return _dedupe(out)
    raise TypeError(f"cannot evaluate expression node {type(expr).__name__}")


def _merge(left: Bindings, right: Bindings) -> Bindings:
    merged = dict(right)
    merged.update(dict(left))
    return tuple(sorted(merged.items()))


def _dedupe(instances) -> tuple[EventInstance, ...]:
    keys = {(inst.key_binding, inst.timestamp) for inst in instances}
    return tuple(EventInstance(kb, t) for kb, t in sorted(keys))


def _resolve_bound(bound: cm.TimeRef, kb: Bindings, ctx: EvaluationContext) -> int | float | None:
    """A window bound as an absolute time for one key binding, or None when an
    event-anchored bound's event has not occurred."""
    if bound.is_absolute:
        return bound.offset
    anchors = [i for i in _eval(bound.base_event, ctx) if kb_agree(i.key_binding, kb)]
    if not anchors:
        return None
    return min(i.timestamp for i in anchors) + bound.offset


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
    debtor's too, and the debtor's ``DEBTOR_TO_CREDITOR`` ones the creditor's."""
    failures: list[Misalignment] = []
    for kind in CREDITOR_TO_DEBTOR:
        have = _kbs(debtor_table[kind])
        for kb in _kbs(creditor_table[kind]):
            if kb not in have:
                failures.append(Misalignment(kind, kb, c.debtor))
    for kind in DEBTOR_TO_CREDITOR:
        have = _kbs(creditor_table[kind])
        for kb in _kbs(debtor_table[kind]):
            if kb not in have:
                failures.append(Misalignment(kind, kb, c.creditor))
    return AlignmentResult(aligned=not failures, misalignments=tuple(failures))


def _kbs(instances) -> set[Bindings]:
    return {i.key_binding for i in instances}
