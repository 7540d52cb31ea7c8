"""Decentralized enactment simulation.

A scenario enacts one protocol (usually a composed operationalization) under a
move policy:

* ``scripted`` replays an explicit move list, aborting if a move is not
  enabled at its scheduled tick;
* ``random`` picks uniformly among enabled emissions and deliveries;
* ``aligner`` is random but prefers forwarding emissions and deliveries, so
  runs drift toward alignment.

One observation happens per tick. After every tick the simulator evaluates
each commitment's five lifecycle states in the debtor's and the creditor's
models and records the alignment verdict; ticks after the final move keep
reporting, so deadline expiry shows up in the report tail.

Scenario files are JSON::

    {"protocols": ["file.bspl", ...], "protocol": "Name",
     "commitments": ["file.cupid", ...],
     "policy": {"kind": "scripted", "moves": [
         {"tick": 1, "role": "M", "dir": "emit", "schema": "quote"}, ...]},
     "horizon": 12, "delivery": "any", "seed": 0, "key": "1"}

Scripted moves name instances by schema and key value; emission bindings are
derived (keys from the scenario key, ``in`` values from the sender's
knowledge, ``out`` values deterministic).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .commitments import CommitmentSpec, parse_commitments
from .enactment import (
    EMIT,
    RECV,
    HistoryVector,
    MessageInstance,
    Observation,
    deliverable,
    enabled_emissions,
    project_model,
    uniform_key_bindings,
)
from .errors import ParseError, ScriptedMoveNotEnabled, WellFormednessError
from .protocol import Protocol, Uod, parse_protocols, uod
from .semantics import (
    AlignmentResult,
    EvaluationContext,
    check_alignment_models,
    lifecycle_table,
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


@dataclass(frozen=True)
class CommitmentTick:
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


def load_scenario(path: str | Path, overrides: Mapping | None = None) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario {path.name} is not JSON: {exc.msg}", exc.lineno, exc.colno) from None
    data.update(overrides or {})
    if "protocols" not in data or "protocol" not in data:
        raise WellFormednessError(
            f"scenario {path.name} must name its \"protocols\" files and its \"protocol\""
        )
    registry: dict[str, Protocol] = {}
    for name in data["protocols"]:
        registry.update(parse_protocols((path.parent / name).read_text()))
    protocol = registry.get(data["protocol"])
    if protocol is None:
        raise WellFormednessError(f"scenario names unknown protocol {data['protocol']!r}")
    commitments: dict[str, CommitmentSpec] = {}
    for name in data.get("commitments", ()):
        commitments.update(parse_commitments((path.parent / name).read_text(), commitments))
    return Scenario(
        protocol=protocol,
        registry=registry,
        commitments=tuple(commitments.values()),
        policy=data.get("policy", {"kind": "random"}),
        horizon=int(data.get("horizon", 20)),
        delivery=data.get("delivery", "any"),
        seed=int(data.get("seed", 0)),
        key=str(data.get("key", "1")),
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
        self.key_bindings = uniform_key_bindings(self.universe, (scenario.key,))

    def run(self) -> SimulationResult:
        policy = dict(self.scenario.policy)
        kind = policy.get("kind", "random")
        if kind == "scripted":
            self._run_scripted(policy.get("moves", ()))
        elif kind in ("random", "aligner"):
            self._run_random(prefer_forwards=kind == "aligner")
        else:
            raise WellFormednessError(f"unknown policy kind {kind!r}")
        self.result.vector = self.vector
        return self.result

    # -- policies ----------------------------------------------------------

    def _run_scripted(self, moves: Sequence[Mapping]) -> None:
        moves = sorted(moves, key=lambda m: int(m["tick"]))
        ticks = [int(m["tick"]) for m in moves]
        if len(set(ticks)) != len(ticks):
            raise WellFormednessError("scripted moves must occupy distinct ticks")
        next_move = 0
        for tick in range(1, self.scenario.horizon + 1):
            if next_move < len(moves) and int(moves[next_move]["tick"]) == tick:
                self._apply_scripted(moves[next_move], tick)
                next_move += 1
            self._report(tick)
        if next_move < len(moves):
            move = moves[next_move]
            raise ScriptedMoveNotEnabled(
                f"move at tick {move['tick']} is beyond the horizon", int(move["tick"]), move
            )

    def _apply_scripted(self, move: Mapping, tick: int) -> None:
        role = move["role"]
        schema_name = move["schema"]
        direction = move["dir"]
        key = str(move.get("key", self.scenario.key))
        if direction == EMIT:
            options = enabled_emissions(
                self.vector, self.universe, role, [{k: key for k in self.universe.schema(schema_name).keys}]
            )
            options = [i for i in options if i.schema == schema_name]
            if not options:
                raise ScriptedMoveNotEnabled(
                    f"emission of {schema_name!r} by {role!r} is not enabled at tick {tick}", tick, move
                )
            self._observe(Observation(options[0], EMIT, tick))
        elif direction == RECV:
            pending = [
                inst
                for receiver, inst in deliverable(self.vector, fifo=self.scenario.delivery == "fifo")
                if receiver == role
                and inst.schema == schema_name
                and all(value == key for _, value in inst.key_binding)
            ]
            if not pending:
                raise ScriptedMoveNotEnabled(
                    f"no deliverable {schema_name!r} for {role!r} at tick {tick}", tick, move
                )
            self._observe(Observation(pending[0], RECV, tick))
        else:
            raise ScriptedMoveNotEnabled(f"bad direction {direction!r}", tick, move)

    def _run_random(self, prefer_forwards: bool) -> None:
        for tick in range(1, self.scenario.horizon + 1):
            moves = self._enabled_moves()
            if moves:
                if prefer_forwards:
                    preferred = [
                        m for m in moves
                        if m[0] == RECV or m[1].schema in self.fwd_registry
                    ]
                    moves = preferred or moves
                direction, instance = self.rng.choice(moves)
                self._observe(Observation(instance, direction, tick))
            self._report(tick)

    def _enabled_moves(self) -> list[tuple[str, MessageInstance]]:
        moves: list[tuple[str, MessageInstance]] = []
        for role in self.universe.roles:
            for instance in enabled_emissions(self.vector, self.universe, role, self.key_bindings):
                moves.append((EMIT, instance))
        for _, instance in deliverable(self.vector, fifo=self.scenario.delivery == "fifo"):
            moves.append((RECV, instance))
        moves.sort(key=lambda m: (m[0], m[1].schema, m[1].bindings))
        return moves

    # -- bookkeeping --------------------------------------------------------

    def _observe(self, obs: Observation) -> None:
        self.vector = self.vector.extend(obs)

    def _report(self, tick: int) -> None:
        models = {}
        for c in self.scenario.commitments:
            for role in (c.debtor, c.creditor):
                if role not in models:
                    models[role] = project_model(self.vector, role, self.fwd_registry)
            lifecycle = {
                role: {
                    kind: [dict(inst.key_binding) for inst in instances]
                    for kind, instances in lifecycle_table(
                        c, EvaluationContext(models[role], tick, self.universe)
                    ).items()
                }
                for role in (c.debtor, c.creditor)
            }
            alignment = check_alignment_models(
                models[c.debtor], models[c.creditor], c, tick, self.universe
            )
            self.result.reports.append(CommitmentTick(tick, c.name, lifecycle, alignment))


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
