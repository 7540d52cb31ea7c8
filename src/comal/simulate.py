"""Decentralized enactment simulation.

A scenario enacts one protocol (usually a composed operationalization) in
one loop over ticks 1 to the horizon. Each tick makes at most one
observation, taken from one list of enabled moves: every role's emissions at
a key value and every deliverable instance (any in flight, or with
``"delivery": "fifo"`` the oldest per channel). The policy picks it:

* ``scripted`` takes the move its script names for the tick, the one entry
  of the list with that direction, schema, observing role and key, and aborts
  if there is none;
* ``random`` picks uniformly from the list at the scenario key;
* ``aligner`` is random but prefers forwarding emissions and deliveries, so
  runs drift toward alignment.

After every tick the simulator reports each commitment's five lifecycle states
in the debtor's and the creditor's models and the alignment verdict; ticks
after the final move keep reporting, so deadline expiry shows up in the report
tail. Each tick redoes only what it can change. Each debtor and creditor keeps
one record: its model of the entries the commitments read (their base events'
names, which include the window anchors'), grown by ``enactment.Model.add`` as
it observes, so a forward of a message it knows, or a message no commitment
reads, leaves it as it is; the tables of its own commitments, evaluated in one
context so that a nested commitment shares the memo of the one it nests, and
on a model that keeps until it grows what does not read the clock; and
the tick they next change at (``semantics.next_change``). Until the first such
tick, or the next observation that grows a model, a quiet tick refreshes
nothing and only appends each commitment's current row. Then the stale parties
are re-evaluated (those whose model grew, or whose window bound fell due), and
a commitment's row is rebuilt, and its alignment checked, only when its debtor
or creditor was; otherwise it keeps the last row's ``lifecycle`` and
``alignment``. A random run of the nested-transfer scenario to horizon 800
(seed 1) makes 24 observations, 11 of which grow a model, and refreshes at 16
of its 800 ticks, those 11 and 5 window bounds; at the other 784 it only
appends rows. A role's enabled emissions depend only on its own history, so
they are generated once per key value and again only after that role observes.

Scenario files are JSON::

    {"protocols": ["file.bspl", ...], "protocol": "Name",
     "commitments": ["file.cupid", ...],
     "policy": {"kind": "scripted", "moves": [
         {"tick": 1, "role": "M", "dir": "emit", "schema": "quote"}, ...]},
     "horizon": 12, "delivery": "any", "seed": 0, "key": "1"}

Scripted moves name instances by schema and key value (the move's ``"key"``,
else the scenario's); emission bindings are derived (``in`` values from the
sender's knowledge, ``out`` values deterministic).

``load_sources`` reads the ``.bspl`` and ``.cupid`` files of a scenario, and
those the ``comal`` command is given.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .commitments import CommitmentSpec, bind_commitment, parse_commitments
from .enactment import (
    DELIVERIES,
    EMIT,
    RECV,
    HistoryVector,
    MessageInstance,
    Model,
    Observation,
    deliverable,
    enabled_emissions,
    model_entry,
)
from .enactment import project_model  # noqa: F401  unused here; perfbench/tracer.py rebinds it on this module
from .errors import ParseError, WellFormednessError, read_source
from .protocol import Protocol, Uod, parse_protocols, uod
from .semantics import (
    INF,
    AlignmentResult,
    EvaluationContext,
    base_event_names,
    check_alignment_models,
    lifecycle_table,
    next_change,
    window_anchors,
)
from .synthesis import ForwardingName, forwarding_registry


@dataclass(frozen=True)
class Scenario:
    protocol: Protocol
    registry: Mapping[str, Protocol]
    commitments: tuple[CommitmentSpec, ...]
    policy: Mapping
    horizon: int = 20
    delivery: str = "any"  # "any" | "fifo"
    seed: int = 0
    key: str = "1"

    def __post_init__(self):
        if self.delivery not in DELIVERIES:
            raise WellFormednessError(f"delivery must be one of {DELIVERIES}, not {self.delivery!r}")
        if self.horizon < 0:
            raise WellFormednessError(f"horizon must be at least 0, not {self.horizon}")


class CommitmentTick(NamedTuple):
    """One commitment's report at one tick. Rows are read-only snapshots:
    consecutive rows of a commitment share one ``lifecycle`` and one
    ``alignment`` object while neither party's tables changed, so a quiet
    tick, where no table can change, only appends one tuple per commitment."""

    tick: int
    commitment: str
    lifecycle: Mapping[str, Mapping[str, list]]  # role -> kind -> key bindings
    alignment: AlignmentResult


@dataclass
class SimulationResult:
    vector: HistoryVector
    reports: list[CommitmentTick] = field(default_factory=list)

    def report_at(self, tick: int, commitment: str) -> CommitmentTick:
        for row in self.reports:
            if row.tick == tick and row.commitment == commitment:
                return row
        raise KeyError(f"no report for commitment {commitment!r} at tick {tick}")


def load_sources(
    protocol_files: Iterable[Path], commitment_files: Iterable[Path]
) -> tuple[dict[str, Protocol], dict[str, CommitmentSpec]]:
    """The protocols and the commitments the files define, in file order; a
    commitment file may name commitments of the files before it. A name may
    be defined again only identically: two different definitions are a
    :class:`WellFormednessError` naming both files. A syntax error's line and
    column follow the path of its file."""
    protocols: dict[str, Protocol] = {}
    commitments: dict[str, CommitmentSpec] = {}
    origin: dict[tuple[str, str], Path] = {}

    def load(what: str, registry: dict, parse, path: Path) -> None:
        text = read_source(path)
        try:
            defined = parse(text)
        except ParseError as exc:
            raise ParseError(f"{path}:{exc}") from None
        for name, value in defined.items():
            if name in registry and registry[name] != value:
                raise WellFormednessError(f"{what} {name!r} is defined differently in {origin[what, name]} and {path}")
            registry[name] = value
            origin[what, name] = path

    for path in protocol_files:
        load("protocol", protocols, parse_protocols, path)
    for path in commitment_files:
        load("commitment", commitments, lambda text: parse_commitments(text, commitments), path)
    return protocols, commitments


def load_scenario(path: str | Path, overrides: Mapping | None = None) -> Scenario:
    path = Path(path)
    source = read_source(path)
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario {path.name} is not JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except (ValueError, RecursionError) as exc:
        # An integer of more digits than ``int`` converts, or nesting past the recursion limit.
        raise ParseError(f"scenario {path.name} cannot be read: {exc}") from None
    if not isinstance(data, dict):
        raise WellFormednessError(f"scenario {path.name} must be a JSON object")
    data.update(overrides or {})
    if "protocols" not in data or "protocol" not in data:
        raise WellFormednessError(
            f"scenario {path.name} must name its \"protocols\" files and its \"protocol\""
        )
    for name in ("protocols", "commitments"):
        files = data.get(name, [])
        if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
            raise WellFormednessError(f'scenario {path.name}: "{name}" must be a list of file names, not {files!r}')
    registry, commitments = load_sources(
        [path.parent / name for name in data["protocols"]], [path.parent / name for name in data.get("commitments", ())]
    )
    protocol = registry.get(data["protocol"]) if isinstance(data["protocol"], str) else None
    if protocol is None:
        raise WellFormednessError(f"scenario names unknown protocol {data['protocol']!r}")
    policy = data.get("policy", {"kind": "random"})
    if not isinstance(policy, dict):
        raise WellFormednessError(f"scenario {path.name}: \"policy\" must be an object, not {policy!r}")
    numbers = {}
    for name, default in (("horizon", 20), ("seed", 0)):
        value = data.get(name, default)
        numbers[name] = _integer(value, f'scenario {path.name}: "{name}" must be an integer, not {value!r}')
    return Scenario(
        protocol=protocol,
        registry=registry,
        commitments=tuple(commitments.values()),
        policy=policy,
        delivery=data.get("delivery", "any"),
        key=_key_value(data.get("key", "1"), f"scenario {path.name}"),
        **numbers,
    )


class Simulation:
    """Single-writer enactment loop over immutable history-vector snapshots."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.universe: Uod = uod(scenario.protocol, scenario.registry)
        self.fwd_registry: dict[str, ForwardingName] = forwarding_registry(self.universe)
        self.vector = HistoryVector.empty(self.universe.roles)
        self.result = SimulationResult(self.vector)
        self.rng = random.Random(scenario.seed)
        for c in scenario.commitments:
            bind_commitment(c, self.universe)
        self.anchors = window_anchors(scenario.commitments)
        # The commitments' tables, and the window anchors they reach, read only
        # the model entries of these names (see ``semantics``).
        self._reads = base_event_names(e for c in scenario.commitments for e in (c.create, c.detach, c.discharge))
        # Each debtor and creditor -> [its model of those entries alone, its
        # tables by name of the commitments it is party to (None until they are
        # evaluated on that model), the tick they next change at]
        self._parties: dict[str, list] = {
            role: [Model(()), None, 0] for c in scenario.commitments for role in (c.debtor, c.creditor)
        }
        # commitment name -> its current row's lifecycle and alignment
        self._rows: dict[str, tuple[dict, AlignmentResult]] = {}
        # the first tick at which any party's tables can change
        self._stale_at: int | float = 0
        # role -> key value -> the role's enabled emissions at that value
        self._emissions: dict[str, dict[str, list[MessageInstance]]] = {}

    def run(self) -> SimulationResult:
        policy = self.scenario.policy
        kind = policy.get("kind", "random")
        if kind not in ("scripted", "random", "aligner"):
            raise WellFormednessError(f"unknown policy kind {kind!r}")
        key = self.scenario.key
        scripted = _scripted_moves(policy.get("moves", ()), self.universe, key) if kind == "scripted" else {}
        moves = [] if kind == "scripted" else self._enabled_moves(key)
        for tick in range(1, self.scenario.horizon + 1):
            if tick in scripted:
                self._apply_scripted(*scripted.pop(tick), tick)
            elif moves:
                preferred = [m for m in moves if m[0] == RECV or m[1].schema in self.fwd_registry]
                direction, instance = self.rng.choice(preferred if kind == "aligner" and preferred else moves)
                self._observe(Observation(instance, direction, tick))
                moves = self._enabled_moves(key)
            self._report(tick)
        if scripted:
            raise WellFormednessError(f"move at tick {min(scripted)} is beyond the horizon")
        self.result.vector = self.vector
        return self.result

    # -- moves -------------------------------------------------------------

    def _apply_scripted(self, move: Mapping, key: str, tick: int) -> None:
        """Observe the enabled move of ``move``'s direction, schema and role
        whose key parameters all take ``key``."""
        schema, role = move["schema"], move["role"]
        listed = self._enabled_moves(key, (role,))  # other roles' emissions would be filtered out
        options = [
            obs
            for obs in (Observation(instance, direction, tick) for direction, instance in listed)
            if (obs.direction, obs.instance.schema, obs.role) == (move["dir"], schema, role)
            and all(value == key for _, value in obs.instance.key_binding)
        ]
        if not options and move["dir"] == EMIT:
            raise WellFormednessError(f"emission of {schema!r} by {role!r} is not enabled at tick {tick}")
        if not options:
            raise WellFormednessError(f"no deliverable {schema!r} for {role!r} at tick {tick}")
        self._observe(options[0])

    def _enabled_moves(self, key: str, roles: Iterable[str] | None = None) -> list[tuple[str, MessageInstance]]:
        """The emissions at ``key`` of ``roles`` (every role by default), then
        every deliverable instance, as (direction, instance) pairs sorted by
        direction, schema and bindings."""
        moves = [
            (EMIT, instance)
            for role in (self.universe.roles if roles is None else roles)
            for instance in self._emitted(role, key)
        ]
        moves += [(RECV, instance) for _, instance in deliverable(self.vector, fifo=self.scenario.delivery == "fifo")]
        moves.sort(key=lambda m: (m[0], m[1].schema, m[1].bindings))
        return moves

    def _emitted(self, role: str, key: str) -> list[MessageInstance]:
        """``role``'s enabled emissions at ``key``, kept until it observes."""
        by_key = self._emissions.setdefault(role, {})
        if key not in by_key:
            by_key[key] = enabled_emissions(self.vector, self.universe, role, (key,))
        return by_key[key]

    # -- bookkeeping --------------------------------------------------------

    def _observe(self, obs: Observation) -> None:
        """Extend the run by ``obs``, and a debtor's or creditor's model by a new read entry."""
        self.vector = self.vector.extend(obs)
        self._emissions.pop(obs.role, None)
        entry = model_entry(obs.instance, obs.tick, self.fwd_registry)
        party = self._parties.get(obs.role)
        if party is not None and entry.name in self._reads and (grown := party[0].add(entry)) is not party[0]:
            party[:2], self._stale_at = (grown, None), 0

    def _report(self, tick: int) -> None:
        if tick >= self._stale_at:
            self._refresh(tick)
        self.result.reports += [CommitmentTick(tick, name, *row) for name, row in self._rows.items()]

    def _refresh(self, tick: int) -> None:
        """Re-evaluate the stale parties' tables, rebuild the rows of the
        commitments with such a party, and work out the next tick at which any
        party's tables can change."""
        fresh = set()
        for role, party in self._parties.items():
            if party[1] is None or tick >= party[2]:
                ctx = EvaluationContext(party[0], tick)  # one memo for a commitment and those it nests
                own = (c for c in self.scenario.commitments if role in (c.debtor, c.creditor))
                party[1:] = {c.name: lifecycle_table(c, ctx) for c in own}, next_change(self.anchors, ctx)
                fresh.add(role)
        for c in self.scenario.commitments:
            if c.debtor in fresh or c.creditor in fresh:
                debtor, creditor = (self._parties[role][1][c.name] for role in (c.debtor, c.creditor))
                lifecycle = {
                    role: {kind: [dict(inst.key_binding) for inst in instances] for kind, instances in table.items()}
                    for role, table in ((c.debtor, debtor), (c.creditor, creditor))
                }
                self._rows[c.name] = lifecycle, check_alignment_models(c, debtor, creditor)
        self._stale_at = min((changes for *_, changes in self._parties.values()), default=INF)


def _scripted_moves(moves, universe: Uod, default_key: str) -> dict[int, tuple[Mapping, str]]:
    """Each scripted move and its key, by tick. Every move must be an object
    naming a tick from 1, a role and a schema of ``universe``, and ``emit`` or
    ``recv``, with a valid ``"key"`` if it has one (else it takes
    ``default_key``); then the ticks must be distinct."""
    if not isinstance(moves, (list, tuple)):
        raise WellFormednessError(f"scripted \"moves\" must be a list, not {moves!r}")
    checked = []
    for move in moves:
        if not isinstance(move, Mapping):
            raise WellFormednessError(f"a scripted move must be an object, not {move!r}")
        for name in ("tick", "role", "dir", "schema"):
            if name not in move:
                raise WellFormednessError(f"scripted move {move!r} has no \"{name}\"")
        bad_tick = f'scripted move {move!r}: "tick" must be an integer from 1, not {move["tick"]!r}'
        tick = _integer(move["tick"], bad_tick)
        if tick < 1:
            raise WellFormednessError(bad_tick)
        if move["role"] not in universe.roles:
            raise WellFormednessError(f"scripted move {move!r}: role {move['role']!r} is not in the protocol")
        if not any(move["schema"] == schema.name for schema in universe.schemas):
            raise WellFormednessError(f"scripted move {move!r}: no message schema named {move['schema']!r}")
        if move["dir"] not in (EMIT, RECV):
            raise WellFormednessError(f'scripted move {move!r}: "dir" must be "emit" or "recv", not {move["dir"]!r}')
        checked.append((tick, move, _key_value(move.get("key", default_key), f"scripted move {move!r}")))
    by_tick = {tick: (move, key) for tick, move, key in checked}
    if len(by_tick) != len(checked):
        raise WellFormednessError("scripted moves must occupy distinct ticks")
    return by_tick


def _integer(value, message: str) -> int:
    """``value`` as an integer. A bool, a number with a fractional part, or a
    value ``int`` refuses is a :class:`WellFormednessError` with ``message``."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise WellFormednessError(message)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise WellFormednessError(message) from None


def _key_value(key, where: str) -> str:
    """A ``"key"`` value as a string; it must be a string or an integer, not a bool."""
    if isinstance(key, bool) or not isinstance(key, (str, int)):
        raise WellFormednessError(f'{where}: "key" must be a string or an integer, not {key!r}')
    return str(key)


def run_scenario(scenario: Scenario) -> SimulationResult:
    return Simulation(scenario).run()


def report_to_json(row: CommitmentTick) -> dict:
    return {
        "tick": row.tick,
        "commitment": row.commitment,
        "lifecycle": {role: dict(kinds) for role, kinds in row.lifecycle.items()},
        "aligned": row.alignment.aligned,
        "misalignments": [
            {"kind": m.kind, "key": dict(m.key_binding), "missing": m.missing_role}
            for m in row.alignment.misalignments
        ],
    }
