"""Asynchronous enactment: message instances, runs (history vectors),
emission/reception legality, and model projection.

Every observation (an emission or a reception) carries a global tick.
Emissions are legal only when the sender already knows each ``in`` binding,
has no prior binding for any ``out`` parameter of the same enactment, and has
not emitted the same schema for the same key binding before. Reception is
never forced: in-flight messages may be delayed arbitrarily. The simulator
takes the messages in flight, in any order or FIFO, from :func:`deliverable`
(``verify``'s explorers find the same messages on instance masks), and every
explorer builds role knowledge with :func:`knowledge_from`.

A role's *model* is its history with every forwarding message renamed to the
message it forwards, the forwarding identifier dropped, and each entry
timestamped with the tick at which the role first knew it. It grows by one
rule: :func:`model_entry` is an observation's entry, and :meth:`Model.add`
adds it unless the role knew it already. :func:`model_of` folds a whole
history; the simulator and ``verify``'s timed graph add one entry per
observation.

Trace format (JSON lines): ``{"tick", "role", "dir": "emit"|"recv", "schema",
"bindings"}``, one :func:`observation_to_json` record per observation. The
simulator's traces and every ``verify`` witness are written in it, and
:func:`vector_from_records` reads them back as a run.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import WellFormednessError
from .protocol import IN, MessageSchema, Uod
from .synthesis import ForwardingName

EMIT = "emit"
RECV = "recv"
DELIVERIES = ("any", "fifo")  # any in-flight message, or the oldest per channel

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

    @cached_property  # kept in the instance __dict__, outside eq, hash and repr
    def key_binding(self) -> Bindings:
        keys = set(self.keys)
        return tuple(item for item in self.bindings if item[0] in keys)

    # The dataclass hash of the five fields, computed once: instances are
    # hashed on every set and dict operation of the explorers. A string's hash
    # differs between processes, so the cached value is not pickled.
    @cached_property
    def _hash(self) -> int:
        return hash((self.schema, self.sender, self.receiver, self.bindings, self.keys))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

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
class HistoryVector:
    """One run: its roles, sorted, and its observations in arrival order."""

    roles: tuple[str, ...]
    events: tuple[Observation, ...] = ()

    @classmethod
    def empty(cls, roles: Iterable[str]) -> "HistoryVector":
        return cls(tuple(sorted(roles)))

    def history(self, role: str) -> tuple[Observation, ...]:
        if role not in self.roles:
            raise WellFormednessError(f"role {role!r} has no history in this vector")
        return tuple(obs for obs in self.events if obs.role == role)

    def extend(self, obs: Observation) -> "HistoryVector":
        if obs.role not in self.roles:
            raise WellFormednessError(f"role {obs.role!r} has no history in this vector")
        return HistoryVector(self.roles, self.events + (obs,))

    def observations(self) -> list[Observation]:
        """All observations, in tick order."""
        return sorted(self.events, key=lambda o: o.tick)


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
    return _agrees(kb1, dict(kb2))


def _agrees(kb1: Bindings, other: Mapping[str, str]) -> bool:
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
        other = dict(kb)
        found = []
        for known_kb, value in self._bound.get(param, ()):
            if value not in found and _agrees(known_kb, other):
                found.append(value)
        return found


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
            if knowledge.values_for(p.name, kb):
                return ViabilityViolation(
                    "b", knowledge.role, tick, instance, f"'out' parameter {p.name!r} already bound"
                )
    return None


def check_viable(v: HistoryVector, universe: Uod) -> ViabilityViolation | None:
    """Check a whole vector: reception matched by an earlier emission, the
    local emission rules (a), (b), (d) for every emission, and global key
    integrity (c): for one key binding, a parameter never takes two values."""
    knowledge = {role: RoleKnowledge(role) for role in v.roles}
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
    key_values: Sequence[str],
) -> list[MessageInstance]:
    """Every instance ``role`` could emit given ``knowledge``, sorted by
    (schema, bindings). Each distinct key value gives a schema's key parameters
    one binding ``kb``, so mixed bindings are not produced, and the rules are
    decided once per (schema, ``kb``): it was not emitted at ``kb`` (d), no
    ``out`` parameter is known at ``kb`` (b), and each ``in`` key parameter is
    known as the key value there (a). Each ``in`` non-key parameter then ranges
    over its values known at ``kb``, which is rule (a) for it, and each ``out``
    non-key parameter takes its one ``protocol.default_value``. What the rules
    read of each schema (its sorted key and parameter names, the parameters
    each rule reads, the defaults) is the universe's ``emission_plans``, worked
    out once per universe, so ``kb`` and each instance's bindings are built in
    name order with no sort. Every binding is complete by construction, so
    instances are built directly; :meth:`MessageInstance.make` checks and
    sorts the bindings of a trace record."""
    out: list[MessageInstance] = []
    values_for = knowledge.values_for
    for plan in universe.emission_plans.get(role, ()):
        schema = plan.schema
        for value in dict.fromkeys(key_values):
            kb = tuple((k, value) for k in plan.keys)
            if (
                (schema.name, kb) in knowledge.emitted  # (d)
                or any(values_for(p, kb) for p in plan.outs)  # (b)
                or any(value not in values_for(p, kb) for p in plan.in_keys)  # (a)
            ):
                continue
            choices = [(value,) if fill is None else fill or values_for(name, kb)
                       for name, fill in zip(plan.names, plan.fills)]
            out.extend(
                MessageInstance(schema.name, schema.sender, schema.receiver, tuple(zip(plan.names, combo)), plan.keys)
                for combo in product(*choices)
            )
    out.sort(key=lambda i: (i.schema, i.bindings))
    return out


def enabled_emissions(
    v: HistoryVector,
    universe: Uod,
    role: str,
    key_values: Sequence[str],
) -> list[MessageInstance]:
    """Every instance ``role`` could emit next while keeping ``v`` viable."""
    observed = (obs.instance for obs in v.history(role))
    return emission_candidates(knowledge_from(observed, role), universe, role, key_values)


def deliverable(v: HistoryVector, fifo: bool = False) -> list[tuple[str, MessageInstance]]:
    """Every instance emitted in ``v`` and not yet received, as (receiver,
    instance) pairs in emission order. With ``fifo`` only the first per
    (sender, receiver) channel, the oldest message on it."""
    received = {obs.instance for obs in v.events if obs.direction == RECV}
    pending: list[tuple[str, MessageInstance]] = []
    channels: set[tuple[str, str]] = set()
    for obs in v.events:
        inst = obs.instance
        channel = (inst.sender, inst.receiver)
        if obs.direction == EMIT and inst not in received and not (fifo and channel in channels):
            channels.add(channel)
            pending.append((inst.receiver, inst))
    return pending


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True)
class ModelEntry:
    name: str
    bindings: Bindings
    tick: int
    key_binding: Bindings


@dataclass(frozen=True)
class Model:
    entries: tuple[ModelEntry, ...]  # in (name, bindings) order, one per (name, bindings)

    def add(self, entry: ModelEntry) -> "Model":
        """This model with ``entry`` inserted in (name, bindings) order, or this
        very model when it has an entry of that name and bindings: the role
        knew it already, so the entry there keeps its tick. Entries added in
        tick order keep the earliest."""
        entries, key = self.entries, (entry.name, entry.bindings)
        i = bisect_left(entries, key, key=lambda e: (e.name, e.bindings))
        if i < len(entries) and (entries[i].name, entries[i].bindings) == key:
            return self
        return Model(entries[:i] + (entry,) + entries[i:])


def model_entry(inst: MessageInstance, tick: int, fwd_registry: Mapping[str, ForwardingName]) -> ModelEntry:
    """The entry of ``inst`` observed at ``tick``: a forward renamed to the
    message it forwards and stripped of the forwarding identifier. It keeps
    the instance's key binding: a forward carries its base's keys (see
    ``synthesis.forwarding_registry``), so renaming leaves it exact."""
    naming = fwd_registry.get(inst.schema)
    if naming is not None:
        bindings = tuple(item for item in inst.bindings if item[0] != naming.id_param)
        return ModelEntry(naming.base_message, bindings, tick, inst.key_binding)
    if inst.schema.startswith("fwd"):
        raise WellFormednessError(f"schema {inst.schema!r} has no forwarding registry entry")
    return ModelEntry(inst.schema, inst.bindings, tick, inst.key_binding)


def model_of(observed: Iterable[tuple[MessageInstance, int]], fwd_registry: Mapping[str, ForwardingName]) -> Model:
    """The model of a role that observed each instance at the paired tick:
    :meth:`Model.add` of each one's :func:`model_entry`, in tick order."""
    pairs = sorted(observed, key=lambda pair: pair[1])
    return reduce(Model.add, (model_entry(inst, tick, fwd_registry) for inst, tick in pairs), Model(()))


def project_model(
    v: HistoryVector, role: str, fwd_registry: Mapping[str, ForwardingName]
) -> Model:
    """Project a role's history to its model (see :func:`model_of`)."""
    return model_of(((obs.instance, obs.tick) for obs in v.history(role)), fwd_registry)


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
    """The observation a trace record describes; its ``"role"`` must be the
    observing role, the sender of an emission or the receiver of a reception."""
    schema = universe.schema(record["schema"])
    instance = MessageInstance.make(schema, record["bindings"])
    direction = record["dir"]
    if direction not in (EMIT, RECV):
        raise WellFormednessError(f"bad trace direction {direction!r}")
    obs = Observation(instance, direction, int(record["tick"]))
    if record["role"] != obs.role:
        raise WellFormednessError(f"trace record names role {record['role']!r}, but {obs.role!r} observes it")
    return obs


def vector_from_records(records: Iterable[Mapping], universe: Uod) -> HistoryVector:
    """The run trace or witness records describe, in record order: lapse
    records (``{"tick", "lapse"}``) are skipped and ticks renumbered from 1, so
    consecutive witness parts read as one run."""
    vector = HistoryVector.empty(universe.roles)
    for tick, record in enumerate((record for record in records if "lapse" not in record), start=1):
        vector = vector.extend(observation_from_json({**record, "tick": tick}, universe))
    return vector
