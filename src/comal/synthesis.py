"""Synthesis of alignment protocols from commitments.

Alignment means the two parties to a commitment infer compatible lifecycle
states from their own observations. A commitment decomposes into alignment
instructions ``(knower, formula, learner)``: whenever the knower can infer the
formula, the learner must be able to learn it. Instructions reduce to atomic
ones over single messages, and each atomic instruction may require forwarding
schemas: a copy of the message's parameters sent as ``in``, plus one fresh
``out`` identifier so the forward itself is a first-class message.

Two synthesis modes are provided. ``LITERAL`` emits only original-sender to
learner forwards, and only when the learner neither sends nor receives the
message. ``COMPLETE`` (the default) also emits sender-to-knower forwards, so
the knower can actually come to know the message, and knower-to-learner
relays, so knowledge acquired via a forward can be passed on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import commitments as cm
from .commitments import CommitmentSpec, EventExpr
from .errors import WellFormednessError
from .protocol import IN, OUT, MessageSchema, ParameterDecl, Protocol, ProtocolReference, Uod, uod


class SynthesisMode(enum.Enum):
    LITERAL = "literal"
    COMPLETE = "complete"


@dataclass(frozen=True)
class AlignmentInstruction:
    """A requirement that ``formula`` be aligned from ``knower`` to ``learner``."""

    knower: str
    formula: EventExpr
    learner: str

    def __post_init__(self):
        if self.knower == self.learner:
            raise WellFormednessError("alignment instruction: knower equals learner")


@dataclass(frozen=True)
class ForwardingName:
    """Naming scheme for forwarding schemas, injective over its three fields."""

    forwarder: str
    recipient: str
    base_message: str

    @property
    def name(self) -> str:
        base = self.base_message[:1].upper() + self.base_message[1:]
        return f"fwd{self.forwarder}{self.recipient}{base}"

    @property
    def id_param(self) -> str:
        return self.name + "ID"


def decompose_commitment(c: CommitmentSpec) -> tuple[AlignmentInstruction, ...]:
    """The five lifecycle instructions of a commitment: the creditor's
    inferences of the ``CREDITOR_TO_DEBTOR`` states must reach the debtor, and
    the debtor's of the ``DEBTOR_TO_CREDITOR`` states the creditor."""
    life = lambda kind: cm.LifecycleEvent(kind, c)
    return tuple(
        [AlignmentInstruction(c.creditor, life(kind), c.debtor) for kind in cm.CREDITOR_TO_DEBTOR]
        + [AlignmentInstruction(c.debtor, life(kind), c.creditor) for kind in cm.DEBTOR_TO_CREDITOR]
    )


def reduce(*instrs: AlignmentInstruction) -> tuple[AlignmentInstruction, ...]:
    """Reduce instructions to the atomic (single-message) instructions they
    require, once each, sorted. A node aligns its ``cm.subformulas`` in its
    own direction, with two exceptions: an exception aligns its right side in
    the reverse direction, and a lifecycle event aligns its formula
    (``CommitmentSpec.lifecycle``)."""
    atomic: dict[tuple[str, str, str], AlignmentInstruction] = {}
    # Formula nodes are compared by identity, since hashing an instruction walks
    # its whole formula tree: every node is reachable from ``instrs`` or a
    # commitment's cached ``lifecycle`` while this runs, so no id is reused.
    seen: set[tuple[str, int, str]] = set()
    work = list(instrs)
    while work:
        item = work.pop()
        a, f, b = item.knower, item.formula, item.learner
        if (a, id(f), b) in seen:
            continue
        seen.add((a, id(f), b))
        if isinstance(f, cm.BaseEvent):
            atomic[a, f.name, b] = item
        elif isinstance(f, cm.Except):
            work += [AlignmentInstruction(a, f.left, b), AlignmentInstruction(b, f.right, a)]
        elif isinstance(f, cm.LifecycleEvent):
            work.append(AlignmentInstruction(a, f.commitment.lifecycle[f.kind], b))
        else:
            work += [AlignmentInstruction(a, g, b) for g in cm.subformulas(f)]
    return tuple(atomic[k] for k in sorted(atomic))


def atomic_instructions(c: CommitmentSpec) -> tuple[AlignmentInstruction, ...]:
    """All atomic instructions required to align ``c``."""
    return reduce(*decompose_commitment(c))


def forward_schema(base: MessageSchema, forwarder: str, recipient: str) -> MessageSchema:
    """The schema forwarding ``base`` from ``forwarder`` to ``recipient``: the
    base parameters as ``in`` (keys preserved) plus one fresh ``out`` id."""
    naming = ForwardingName(forwarder, recipient, base.name)
    params = tuple(ParameterDecl(p.name, IN, p.key) for p in base.params)
    params += (ParameterDecl(naming.id_param, OUT),)
    return MessageSchema(name=naming.name, sender=forwarder, receiver=recipient, params=params)


def forwards_for(
    instr: AlignmentInstruction, universe: Uod, mode: SynthesisMode = SynthesisMode.COMPLETE
) -> tuple[MessageSchema, ...]:
    """Forwarding schemas needed for one atomic instruction.

    With learner ``b``, knower ``a``, and the message sent by ``s`` to ``r``:
    nothing is needed for a party that already sends or receives the message;
    otherwise the sender forwards to the learner (both modes), and in COMPLETE
    mode also to the knower, with a knower-to-learner relay when the knower is
    not the sender.
    """
    if not isinstance(instr.formula, cm.BaseEvent):
        raise TypeError("forwards_for requires an atomic instruction")
    base = universe.schema(instr.formula.name)
    s, r = base.sender, base.receiver
    a, b = instr.knower, instr.learner
    out: list[MessageSchema] = []
    if b not in (s, r):
        out.append(forward_schema(base, s, b))
    if mode is SynthesisMode.COMPLETE:
        if a not in (s, r):
            out.append(forward_schema(base, s, a))
        if b not in (s, r) and a not in (s, b):
            out.append(forward_schema(base, a, b))
    return tuple(out)


def synthesize_alignment_protocol(
    c: CommitmentSpec,
    input_protocol: Protocol,
    mode: SynthesisMode = SynthesisMode.COMPLETE,
    registry: Mapping[str, Protocol] | None = None,
) -> Protocol:
    """Build the alignment protocol for ``c`` over ``input_protocol``.

    The result collects the deduplicated forwarding schemas of every atomic
    instruction. Its keys are the forwarded keys as ``in``, its other ``in``
    parameters are the forwarded payloads, and its ``out`` parameters are the
    fresh forwarding identifiers. A commitment whose instructions need no
    forwarding yields an empty protocol.
    """
    universe = uod(input_protocol, registry)
    cm.bind_commitment(c, universe)
    schemas: dict[str, MessageSchema] = {}
    for instr in atomic_instructions(c):
        for schema in forwards_for(instr, universe, mode):
            schemas.setdefault(schema.name, schema)
    ordered = [schemas[name] for name in sorted(schemas)]

    input_params = set(input_protocol.param_names) | {p.name for p in input_protocol.private_params}
    key_names: list[str] = []
    in_names: list[str] = []
    out_names: list[str] = []
    roles: list[str] = []
    for schema in ordered:
        for role in (schema.sender, schema.receiver):
            if role not in roles:
                roles.append(role)
        for p in schema.params:
            bucket = key_names if p.key else (in_names if p.adornment == IN else out_names)
            if p.name not in bucket:
                bucket.append(p.name)
            if p.adornment == OUT and p.name in input_params:
                raise WellFormednessError(f"forwarding identifier {p.name!r} collides with an input parameter")
    params = tuple(ParameterDecl(n, IN, key=True) for n in sorted(key_names))
    params += tuple(ParameterDecl(n, IN) for n in in_names)
    params += tuple(ParameterDecl(n, OUT) for n in out_names)

    protocol = Protocol(
        name=c.name + "Al",
        roles=tuple(sorted(roles)),
        params=params,
        references=tuple(ordered),
    )
    protocol.validate()
    return protocol


def compose_operationalization(
    input_protocol: Protocol, aligners: Iterable[Protocol], name: str | None = None
) -> Protocol:
    """Compose the input protocol with alignment protocols into a single
    operationalization protocol.

    The composite keeps the input's roles and keys; its ``out`` parameters are
    the input's plus every aligner's forwarding identifiers, each declared
    once. Aligners with fewer than two roles (no forwarding needed) are
    dropped.
    """
    kept = sorted((a for a in aligners if len(a.roles) >= 2), key=lambda a: a.name)
    input_params = set(input_protocol.param_names)
    params = list(input_protocol.params)
    declared = set(input_protocol.param_names)
    references: list[ProtocolReference] = [
        ProtocolReference(input_protocol.name, input_protocol.roles, input_protocol.params)
    ]
    for aligner in kept:
        for p in aligner.params:
            if p.adornment == OUT:
                if p.name in input_params:
                    raise WellFormednessError(
                        f"aligner {aligner.name!r} output {p.name!r} collides with an input parameter"
                    )
                if p.name not in declared:
                    params.append(ParameterDecl(p.name, OUT))
                    declared.add(p.name)
            elif p.name not in input_params:
                raise WellFormednessError(
                    f"aligner {aligner.name!r} consumes {p.name!r}, which the input does not provide"
                )
        references.append(ProtocolReference(aligner.name, aligner.roles, aligner.params))

    protocol = Protocol(
        name=name or input_protocol.name + "Op",
        roles=input_protocol.roles,
        params=tuple(params),
        references=tuple(references),
    )
    protocol.validate()
    return protocol


def forwarding_registry(universe: Uod) -> dict[str, ForwardingName]:
    """Recover the forwarding registry of a universe from schema shapes.

    A schema counts as a forward when its name matches the naming scheme for
    its own sender and receiver and some base schema, and its parameters are
    exactly :func:`forward_schema`'s, adornments and key marks included: the
    base parameters as ``in`` plus the one ``out`` identifier. A forward's key
    binding is therefore always its base's.
    """
    registry: dict[str, ForwardingName] = {}
    for schema in universe.schemas:
        prefix = f"fwd{schema.sender}{schema.receiver}"
        if not schema.name.startswith(prefix):
            continue
        suffix = schema.name[len(prefix):]
        base_name = suffix[:1].lower() + suffix[1:]
        base = universe.by_name.get(base_name)
        if base is None:
            continue
        if set(schema.params) == set(forward_schema(base, schema.sender, schema.receiver).params):
            registry[schema.name] = ForwardingName(schema.sender, schema.receiver, base.name)
    return registry
