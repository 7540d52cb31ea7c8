"""Asynchronous enactment: message instances, per-role histories, history
vectors, emission/reception legality, and model projection.

Every observation (an emission or a reception) carries a global tick.
Emissions are legal only when the sender already knows each ``in`` binding,
has no prior binding for any ``out`` parameter of the same enactment, and has
not emitted the same schema for the same key binding before. Reception is
never forced: in-flight messages may be delayed arbitrarily. The simulator
and every explorer in ``verify`` take the messages in flight from one rule,
:func:`in_flight`, and build role knowledge with :func:`knowledge_from`.

A role's *model* is its history with every forwarding message renamed to the
message it forwards, the forwarding identifier dropped, and each entry
timestamped with the tick at which the role first knew it.

Trace format (JSON lines): ``{"tick", "role", "dir": "emit"|"recv", "schema",
"bindings"}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import UnknownForwardName, WellFormednessError
from .protocol import IN, MessageSchema, Uod
from .synthesis import ForwardingName

EMIT = "emit"
RECV = "recv"

Bindings = tuple[tuple[str, str], ...]


def freeze_bindings(bindings: Mapping[str, str]) -> Bindings:
    return tuple(sorted(bindings.items()))


@dataclass(frozen=True)
class MessageInstance:
    schema: str
    sender: str
    receiver: str
    bindings: Bindings
    keys: tuple[str, ...]

    @classmethod
    def make(cls, schema: MessageSchema, bindings: Mapping[str, str]) -> "MessageInstance":
        if set(bindings) != set(schema.param_names):
            raise WellFormednessError(
                f"instance of {schema.name!r}: bindings {sorted(bindings)} do not match "
                f"parameters {sorted(schema.param_names)}"
            )
        return cls(
            schema=schema.name,
            sender=schema.sender,
            receiver=schema.receiver,
            bindings=freeze_bindings(bindings),
            keys=tuple(sorted(schema.keys)),
        )

    @property
    def key_binding(self) -> Bindings:
        keys = set(self.keys)
        return tuple(item for item in self.bindings if item[0] in keys)

    def binding(self, name: str) -> str | None:
        for param, value in self.bindings:
            if param == name:
                return value
        return None


@dataclass(frozen=True)
class Observation:
    instance: MessageInstance
    direction: str  # EMIT | RECV
    tick: int

    @property
    def role(self) -> str:
        return self.instance.sender if self.direction == EMIT else self.instance.receiver


@dataclass(frozen=True)
class History:
    role: str
    events: tuple[Observation, ...] = ()

    def validate(self) -> None:
        last = -1
        for obs in self.events:
            if obs.role != self.role:
                raise WellFormednessError(f"history of {self.role!r} contains an event of {obs.role!r}")
            if obs.tick <= last:
                raise WellFormednessError(f"history of {self.role!r}: ticks must strictly increase")
            last = obs.tick


@dataclass(frozen=True)
class HistoryVector:
    histories: tuple[History, ...]  # sorted by role
    clock: int = 0

    @classmethod
    def empty(cls, roles: Iterable[str]) -> "HistoryVector":
        return cls(tuple(History(r) for r in sorted(roles)))

    def history(self, role: str) -> History:
        for h in self.histories:
            if h.role == role:
                return h
        raise WellFormednessError(f"role {role!r} has no history in this vector")

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(h.role for h in self.histories)

    def extend(self, obs: Observation) -> "HistoryVector":
        histories = tuple(
            replace(h, events=h.events + (obs,)) if h.role == obs.role else h for h in self.histories
        )
        return HistoryVector(histories, max(self.clock, obs.tick))

    def observations(self) -> list[Observation]:
        """All observations across roles, in tick order."""
        out = [obs for h in self.histories for obs in h.events]
        out.sort(key=lambda o: o.tick)
        return out


@dataclass(frozen=True)
class ViabilityViolation:
    rule: str  # "unsent" | "a" | "b" | "c" | "d"
    role: str
    tick: int
    instance: MessageInstance
    detail: str

    def __str__(self) -> str:
        return f"rule ({self.rule}) at tick {self.tick}, role {self.role}: {self.detail}"


def kb_agree(kb1: Bindings, kb2: Bindings) -> bool:
    """Two key bindings correlate when they agree on every shared key parameter."""
    other = dict(kb2)
    return all(other.get(param, value) == value for param, value in kb1)


class RoleKnowledge:
    """What one role has observed so far, indexed for emission checks."""

    def __init__(self, role: str):
        self.role = role
        self.instances: list[MessageInstance] = []
        self.emitted: set[tuple[str, Bindings]] = set()
        self._bound: dict[str, list[tuple[Bindings, str]]] = {}

    def observe(self, inst: MessageInstance) -> None:
        """Record an instance this role emitted (it is the sender) or received."""
        self.instances.append(inst)
        if inst.sender == self.role:
            self.emitted.add((inst.schema, inst.key_binding))
        for param, value in inst.bindings:
            self._bound.setdefault(param, []).append((inst.key_binding, value))

    def values_for(self, param: str, kb: Bindings) -> list[str]:
        found = []
        for known_kb, value in self._bound.get(param, ()):
            if kb_agree(known_kb, kb) and value not in found:
                found.append(value)
        return found

    def binds(self, param: str, kb: Bindings) -> bool:
        return bool(self.values_for(param, kb))


def emission_violation(
    knowledge: RoleKnowledge, schema: MessageSchema, instance: MessageInstance, tick: int
) -> ViabilityViolation | None:
    """Check the local emission rules: (a) every ``in`` binding already known,
    (b) every ``out`` parameter unbound for this enactment, (d) no repeat
    emission of the same schema for the same key binding."""
    kb = instance.key_binding
    if (instance.schema, kb) in knowledge.emitted:
        return ViabilityViolation("d", knowledge.role, tick, instance, f"{instance.schema!r} already emitted for {kb}")
    for p in schema.params:
        value = instance.binding(p.name)
        if p.adornment == IN:
            if value not in knowledge.values_for(p.name, kb):
                return ViabilityViolation(
                    "a", knowledge.role, tick, instance, f"'in' parameter {p.name!r} not known as {value!r}"
                )
        else:
            if knowledge.binds(p.name, kb):
                return ViabilityViolation(
                    "b", knowledge.role, tick, instance, f"'out' parameter {p.name!r} already bound"
                )
    return None


def check_viable(v: HistoryVector, universe: Uod) -> ViabilityViolation | None:
    """Check a whole vector: reception matched by an earlier emission, the
    local emission rules (a), (b), (d) for every emission, and global key
    integrity (c): for one key binding, a parameter never takes two values."""
    knowledge = {h.role: RoleKnowledge(h.role) for h in v.histories}
    emitted_instances: dict[MessageInstance, int] = {}
    received: set[tuple[str, MessageInstance]] = set()
    global_bound: dict[str, list[tuple[Bindings, str, int]]] = {}

    for obs in v.observations():
        inst = obs.instance
        role = obs.role
        if obs.direction == RECV:
            emit_tick = emitted_instances.get(inst)
            if emit_tick is None or emit_tick >= obs.tick:
                return ViabilityViolation("unsent", role, obs.tick, inst, "received before any emission")
            if (role, inst) in received:
                return ViabilityViolation("unsent", role, obs.tick, inst, "received twice")
            received.add((role, inst))
        else:
            schema = universe.schema(inst.schema)
            if schema.sender != role:
                return ViabilityViolation("a", role, obs.tick, inst, "emitted by a non-sender role")
            bad = emission_violation(knowledge[role], schema, inst, obs.tick)
            if bad is not None:
                return bad
            emitted_instances.setdefault(inst, obs.tick)
            kb = inst.key_binding
            for param, value in inst.bindings:
                for known_kb, known_value, _ in global_bound.get(param, ()):
                    if kb_agree(known_kb, kb) and known_value != value:
                        return ViabilityViolation(
                            "c", role, obs.tick, inst,
                            f"parameter {param!r} bound to {known_value!r} and {value!r} for one enactment",
                        )
                global_bound.setdefault(param, []).append((kb, value, obs.tick))
        knowledge[role].observe(inst)
    return None


def default_value(schema: str, param: str) -> str:
    """Deterministic synthetic binding for an ``out`` parameter; distinct
    schemas binding the same parameter produce distinct values."""
    return f"{schema}.{param}"


def uniform_key_bindings(universe: Uod, key_values: Iterable[str]) -> list[dict[str, str]]:
    """For each distinct key-parameter set and each key value, the binding of
    every key parameter to that value, in schema order without repeats. Mixed
    bindings, with key parameters taking different values, are not produced."""
    bindings: list[dict[str, str]] = []
    for schema in universe.schemas:
        for value in key_values:
            kb = {k: value for k in schema.keys}
            if kb not in bindings:
                bindings.append(kb)
    return bindings


def knowledge_from(instances: Iterable[MessageInstance], role: str) -> RoleKnowledge:
    """What ``role`` knows after observing ``instances``."""
    knowledge = RoleKnowledge(role)
    for inst in instances:
        knowledge.observe(inst)
    return knowledge


def emission_candidates(
    knowledge: RoleKnowledge,
    universe: Uod,
    role: str,
    key_bindings: Sequence[Mapping[str, str]],
) -> list[MessageInstance]:
    """Every instance ``role`` could emit given ``knowledge``. Key bindings are
    drawn from the given finite set; every other ``out`` parameter takes its
    one :func:`default_value`."""
    out: list[MessageInstance] = []
    for schema in universe.schemas:
        if schema.sender != role:
            continue
        for kb_source in key_bindings:
            if not all(k in kb_source for k in schema.keys):
                continue
            key = {k: kb_source[k] for k in schema.keys}
            kb = freeze_bindings(key)
            candidates = [key]
            for p in schema.params:
                if p.key:
                    continue
                if p.adornment == IN:
                    values = knowledge.values_for(p.name, kb)
                else:
                    values = [default_value(schema.name, p.name)]
                candidates = [{**partial, p.name: value} for partial in candidates for value in values]
            for bindings in candidates:
                instance = MessageInstance.make(schema, bindings)
                if emission_violation(knowledge, schema, instance, 0) is None:
                    out.append(instance)
    out.sort(key=lambda i: (i.schema, i.bindings))
    return out


def enabled_emissions(
    v: HistoryVector,
    universe: Uod,
    role: str,
    key_bindings: Sequence[Mapping[str, str]],
) -> list[MessageInstance]:
    """Every instance ``role`` could emit next while keeping ``v`` viable."""
    observed = (obs.instance for obs in v.history(role).events)
    return emission_candidates(knowledge_from(observed, role), universe, role, key_bindings)


def in_flight(
    roles: Sequence[str], known: Sequence[Sequence[MessageInstance]], fifo: bool = False
) -> list[MessageInstance]:
    """Every sent instance whose receiver has not observed it, where
    ``known[i]`` is what ``roles[i]`` observed, in order: by sender in role
    order, then in the sender's ``known`` order. With ``fifo`` only the first
    instance per (sender, receiver) channel is kept; a sender's own order is
    its emission order, so that is the oldest message on the channel."""
    received = {inst for role, seen in zip(roles, known) for inst in seen if inst.receiver == role}
    pending = [
        inst for role, seen in zip(roles, known) for inst in seen if inst.sender == role and inst not in received
    ]
    if fifo:
        oldest: dict[tuple[str, str], MessageInstance] = {}
        for inst in pending:
            oldest.setdefault((inst.sender, inst.receiver), inst)
        pending = list(oldest.values())
    return pending


def deliverable(v: HistoryVector, fifo: bool = False) -> list[tuple[str, MessageInstance]]:
    """The :func:`in_flight` instances of ``v`` as (receiver, instance) pairs."""
    known = [[obs.instance for obs in h.events] for h in v.histories]
    return [(inst.receiver, inst) for inst in in_flight(v.roles, known, fifo)]


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True)
class ModelEntry:
    name: str
    bindings: Bindings
    tick: int


@dataclass(frozen=True)
class Model:
    role: str
    entries: tuple[ModelEntry, ...]


def model_of(
    role: str, observed: Iterable[tuple[MessageInstance, int]], fwd_registry: Mapping[str, ForwardingName]
) -> Model:
    """The model of a role that observed each instance at the paired tick:
    forwards renamed to the message they forward and stripped of the
    forwarding identifier; duplicate knowledge keeps the earliest tick."""
    first: dict[tuple[str, Bindings], int] = {}
    for inst, tick in observed:
        naming = fwd_registry.get(inst.schema)
        if naming is not None:
            name = naming.base_message
            bindings = tuple(item for item in inst.bindings if item[0] != naming.id_param)
        else:
            if inst.schema.startswith("fwd"):
                raise UnknownForwardName(f"schema {inst.schema!r} has no forwarding registry entry")
            name = inst.schema
            bindings = inst.bindings
        key = (name, bindings)
        if key not in first or tick < first[key]:
            first[key] = tick
    entries = tuple(
        ModelEntry(name, bindings, tick) for (name, bindings), tick in sorted(first.items())
    )
    return Model(role=role, entries=entries)


def project_model(
    v: HistoryVector, role: str, fwd_registry: Mapping[str, ForwardingName]
) -> Model:
    """Project a role's history to its model (see :func:`model_of`)."""
    return model_of(role, ((obs.instance, obs.tick) for obs in v.history(role).events), fwd_registry)


# ---------------------------------------------------------------------------
# Trace format


def observation_to_json(obs: Observation) -> dict:
    return {
        "tick": obs.tick,
        "role": obs.role,
        "dir": obs.direction,
        "schema": obs.instance.schema,
        "bindings": dict(obs.instance.bindings),
    }


def trace_lines(v: HistoryVector) -> Iterator[str]:
    for obs in v.observations():
        yield json.dumps(observation_to_json(obs), sort_keys=True)


def observation_from_json(record: Mapping, universe: Uod) -> Observation:
    schema = universe.schema(record["schema"])
    instance = MessageInstance.make(schema, record["bindings"])
    direction = record["dir"]
    if direction not in (EMIT, RECV):
        raise WellFormednessError(f"bad trace direction {direction!r}")
    return Observation(instance, direction, int(record["tick"]))
