"""Bounded verification by exhaustive enumeration of reachable enactments.

Four checks are provided over a finite :class:`Bound` (key values, an
observation budget, a delivery order and a state budget):

* safety: no reachable state binds two values to one parameter of one
  enactment. Emissions are validated against the *sender's* knowledge only,
  so conflicting bindings by mutually ignorant roles are reachable and get
  caught here.
* liveness: from every reachable state some extension binds every public
  ``out`` parameter for every initiated key binding.
* embedding: every complete enactment of an input protocol replays verbatim
  inside a composed protocol, preserving each role's observation order.
* alignment reachability: from every reachable state of a composed protocol,
  some extension is aligned for every commitment.

All four enumerate with one breadth-first explorer, ``StateSpace``; the
knowledge-set, ordered and timed graphs below differ only in their state
encoding. Their moves, like the simulator's, are the ``emission_candidates``
of each role's knowledge and a delivery of each ``in_flight`` message, both
from ``enactment``.

Safety and liveness work on knowledge-set states: a role's enabled moves and
the two verdicts depend only on what each role knows, not on the order it
learned it, so states collapse to per-role knowledge sets. Theorem 1 builds
each protocol's graph once: a safe protocol's safety build is the whole
graph, and liveness reads it too.

Alignment needs time. Observations are treated as instantaneous next to
window units: window offsets are scaled by a large unit, every observation
happens in the current *phase*, and the clock advances only through explicit
deadline-lapse moves that jump to the next pending window boundary. Knowledge
is annotated with its phase, which fully determines window membership;
deadlines sharing one nominal instant lapse together. The punctual-delivery
restriction (deliveries and available forwards happen before deadlines pass)
gates lapse moves on empty channels and no enabled forwarding emissions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import commitments as cm
from .commitments import CommitmentSpec, print_event
from .enactment import (
    EMIT,
    RECV,
    HistoryVector,
    MessageInstance,
    Model,
    Observation,
    RoleKnowledge,
    emission_candidates,
    emission_violation,
    in_flight,
    kb_agree,
    model_of,
    uniform_key_bindings,
)
from .enactment import knowledge_from as _knowledge_from
from .errors import BoundExceeded, WellFormednessError
from .protocol import Protocol, Uod, uod
from .semantics import check_alignment_models, evaluate, EvaluationContext
from .synthesis import forwarding_registry

SCALE = 10 ** 9

SAFETY = "SAFETY"
LIVENESS = "LIVENESS"
EMBEDDING = "EMBEDDING"
ALIGNMENT_REACHABILITY = "ALIGNMENT_REACHABILITY"


@dataclass(frozen=True)
class Bound:
    """Finite restriction of the enactment space.

    * ``key_values``: the values key parameters range over. In each key
      binding every key parameter takes the same value, so mixed bindings
      (one key parameter at ``"1"``, another at ``"2"``) are not explored.
    * ``max_ticks``: observations per enactment; past it no role emits, and
      only the timed graph of Theorem 2 still delivers and lapses deadlines.
    * ``delivery``: ``"any"`` delivers any in-flight message, ``"fifo"`` only
      the oldest per channel. Only the ordered enumeration (``enumerate_uoe``,
      ``check_embedding``) reads it; knowledge sets keep no order.
    * ``max_states``: states explored before ``BoundExceeded`` is raised.
    """

    key_values: tuple[str, ...] = ("1",)
    max_ticks: int = 80
    delivery: str = "any"
    max_states: int = 400_000

    def __post_init__(self):
        if not self.key_values:
            raise WellFormednessError("a bound needs at least one key value")
        if self.max_ticks < 1:
            raise WellFormednessError(f"a bound needs max_ticks >= 1, not {self.max_ticks}")
        if self.delivery not in ("any", "fifo"):
            raise WellFormednessError(f"delivery must be 'any' or 'fifo', not {self.delivery!r}")


@dataclass(frozen=True)
class VerificationReport:
    property: str
    holds: bool
    witness: object | None
    states_explored: int
    detail: str = ""


def _instance_order(inst: MessageInstance):
    return (inst.schema, inst.bindings)


def is_complete(emitted: Sequence[MessageInstance], public_out: Sequence[str]) -> bool:
    """Every key binding initiated by the emitted instances binds every public
    ``out`` parameter."""
    for kb in {inst.key_binding for inst in emitted}:
        for param in public_out:
            if not any(
                inst.binding(param) is not None and kb_agree(inst.key_binding, kb)
                for inst in emitted
            ):
                return False
    return True


def _move_json(move: tuple, tick: int) -> dict:
    kind = move[0]
    if kind == "lapse":
        return {"tick": tick, "lapse": move[1]}
    _, role, inst = move
    return {
        "tick": tick,
        "role": role,
        "dir": kind,
        "schema": inst.schema,
        "bindings": dict(inst.bindings),
    }


# ---------------------------------------------------------------------------
# The shared explorer


class StateSpace:
    """Breadth-first enumeration of the states reachable at a bound. States are
    numbered in discovery order; each keeps the edge it was found by and its
    out-edges. Subclasses give the initial state (to ``build``) and
    ``_successors``."""

    def __init__(self, universe: Uod, bound: Bound):
        self.universe = universe
        self.bound = bound
        self.roles = tuple(sorted(universe.roles))
        self.role_index = {r: i for i, r in enumerate(self.roles)}
        self.key_bindings = uniform_key_bindings(universe, bound.key_values)
        self.states: list = []
        self.parents: list[tuple[int, tuple] | None] = []
        self.edges: list[list[tuple[tuple, int]]] = []
        self.index: dict = {}

    def _explore(self, initial, stop=None) -> None:
        """Enumerate from ``initial``; ``stop()`` is asked before expanding each
        state, and ``_found`` is told of every new state."""
        self._add(initial, None)
        frontier = [0]
        while frontier:
            next_frontier: list[int] = []
            for sid in frontier:
                if stop is not None and stop():
                    return
                for move, succ in self._successors(self.states[sid]):
                    tid = self.index.get(succ)
                    if tid is None:
                        tid = self._add(succ, (sid, move))
                        next_frontier.append(tid)
                        self._found(sid, tid, move)
                    self.edges[sid].append((move, tid))
            frontier = next_frontier

    def _found(self, parent_id: int, state_id: int, move: tuple) -> None:
        pass

    def _add(self, state, parent) -> int:
        if len(self.states) >= self.bound.max_states:
            raise BoundExceeded(f"more than {self.bound.max_states} states", partial=self)
        sid = len(self.states)
        self.states.append(state)
        self.parents.append(parent)
        self.edges.append([])
        self.index[state] = sid
        return sid

    def _moves(
        self, known: Sequence[Sequence[MessageInstance]], fifo: bool = False
    ) -> list[tuple[int, tuple]]:
        """Emission candidates per role while the observation budget lasts, then
        a delivery of each in-flight instance. ``known[i]`` is what role ``i``
        observed, in the order that sets the order of deliveries; each move
        comes with the index of the role that observes it. Only the timed graph
        asks past the budget: the others stop there."""
        moves = []
        if sum(map(len, known)) < self.bound.max_ticks:
            for ri, role in enumerate(self.roles):
                knowledge = _knowledge_from(known[ri], role)
                for inst in emission_candidates(knowledge, self.universe, role, self.key_bindings):
                    moves.append((ri, (EMIT, role, inst)))
        for inst in in_flight(self.roles, known, fifo):
            moves.append((self.role_index[inst.receiver], (RECV, inst.receiver, inst)))
        return moves

    def _trail(self, state_id: int) -> list[tuple]:
        """The moves from the initial state to ``state_id``."""
        moves = []
        while self.parents[state_id] is not None:
            state_id, move = self.parents[state_id]
            moves.append(move)
        moves.reverse()
        return moves

    def path_to(self, state_id: int) -> list[dict]:
        return [_move_json(move, tick) for tick, move in enumerate(self._trail(state_id), start=1)]

    def backward_closure(self, seeds: Iterable[int]) -> set[int]:
        reverse: list[list[int]] = [[] for _ in self.states]
        for sid, out_edges in enumerate(self.edges):
            for _, tid in out_edges:
                reverse[tid].append(sid)
        closed = set(seeds)
        stack = list(closed)
        while stack:
            node = stack.pop()
            for pred in reverse[node]:
                if pred not in closed:
                    closed.add(pred)
                    stack.append(pred)
        return closed


# ---------------------------------------------------------------------------
# Knowledge-set enumeration (safety, liveness)


class KnowledgeGraph(StateSpace):
    """Reachable per-role knowledge sets under emission and delivery moves."""

    def __init__(self, universe: Uod, bound: Bound, public_out: Sequence[str]):
        super().__init__(universe, bound)
        self.public_out = tuple(public_out)
        self.safety_violation: tuple[int, str] | None = None

    def build(self, stop_on_safety: bool = False) -> None:
        stop = (lambda: self.safety_violation is not None) if stop_on_safety else None
        self._explore(tuple(frozenset() for _ in self.roles), stop)

    def _successors(self, state) -> list[tuple[tuple, tuple]]:
        if sum(map(len, state)) >= self.bound.max_ticks:
            return []
        known = [sorted(s, key=_instance_order) for s in state]
        return [(move, self._with(state, ri, move[2])) for ri, move in self._moves(known)]

    @staticmethod
    def _with(state, ri: int, inst: MessageInstance):
        return tuple(s | {inst} if i == ri else s for i, s in enumerate(state))

    def emitted(self, state) -> list[MessageInstance]:
        """The instances sent in ``state``: a role emitted exactly those it is
        the sender of. Ordered states use this too."""
        return [inst for ri, role in enumerate(self.roles) for inst in state[ri] if inst.sender == role]

    def _found(self, parent_id: int, state_id: int, move: tuple) -> None:
        if move[0] != EMIT or self.safety_violation is not None:
            return
        new = move[2]
        new_bindings = dict(new.bindings)
        for inst in set(self.emitted(self.states[parent_id])):
            if not kb_agree(inst.key_binding, new.key_binding):
                continue
            for param, value in inst.bindings:
                if param in new_bindings and new_bindings[param] != value:
                    self.safety_violation = (
                        state_id,
                        f"parameter {param!r} bound to {value!r} by {inst.schema!r} "
                        f"and to {new_bindings[param]!r} by {new.schema!r}",
                    )
                    return

    # perfbench/tracer.py rebinds these on each graph class it traces, so the
    # class must hold them in its own namespace.
    path_to = StateSpace.path_to
    backward_closure = StateSpace.backward_closure


def _knowledge_graph(universe: Uod, p: Protocol, bound: Bound, stop_on_safety: bool) -> KnowledgeGraph:
    graph = KnowledgeGraph(universe, bound, p.out_params)
    graph.build(stop_on_safety)
    return graph


def _safety_report(graph: KnowledgeGraph) -> VerificationReport:
    if graph.safety_violation is not None:
        state_id, detail = graph.safety_violation
        witness = {"reach": graph.path_to(state_id), "violation": detail}
        return VerificationReport(SAFETY, False, witness, len(graph.states), detail)
    return VerificationReport(SAFETY, True, None, len(graph.states))


def _liveness_report(graph: KnowledgeGraph) -> VerificationReport:
    complete = [
        sid for sid, state in enumerate(graph.states) if is_complete(graph.emitted(state), graph.public_out)
    ]
    closed = graph.backward_closure(complete)
    stuck = [sid for sid in range(len(graph.states)) if sid not in closed]
    if stuck:
        witness = {"reach": graph.path_to(stuck[0])}
        return VerificationReport(
            LIVENESS, False, witness, len(graph.states), "state with no completing extension"
        )
    return VerificationReport(LIVENESS, True, None, len(graph.states))


def check_safety(
    p: Protocol, bound: Bound = Bound(), registry: Mapping[str, Protocol] | None = None
) -> VerificationReport:
    """Key integrity across every reachable state at the bound."""
    return _safety_report(_knowledge_graph(uod(p, registry), p, bound, stop_on_safety=True))


def check_liveness(
    p: Protocol, bound: Bound = Bound(), registry: Mapping[str, Protocol] | None = None
) -> VerificationReport:
    """Every reachable state can still be extended to a complete enactment."""
    return _liveness_report(_knowledge_graph(uod(p, registry), p, bound, stop_on_safety=False))


@dataclass(frozen=True)
class Theorem1Result:
    """Preservation of safety and liveness by an operationalization."""

    safety_input: VerificationReport
    safety_composed: VerificationReport
    liveness_input: VerificationReport
    liveness_composed: VerificationReport

    @property
    def safety_preserved(self) -> bool:
        return (not self.safety_input.holds) or self.safety_composed.holds

    @property
    def liveness_preserved(self) -> bool:
        return (not self.liveness_input.holds) or self.liveness_composed.holds

    @property
    def holds(self) -> bool:
        return self.safety_preserved and self.liveness_preserved


def check_theorem1(
    input_protocol: Protocol,
    composed: Protocol,
    bound: Bound = Bound(),
    registry: Mapping[str, Protocol] | None = None,
) -> Theorem1Result:
    def safety_and_liveness(p: Protocol) -> tuple[VerificationReport, VerificationReport]:
        # A safe protocol's safety build ran to the end, so it is the whole
        # graph liveness needs; an unsafe one stopped early and is rebuilt.
        universe = uod(p, registry)
        graph = _knowledge_graph(universe, p, bound, stop_on_safety=True)
        safety = _safety_report(graph)
        if not safety.holds:
            graph = _knowledge_graph(universe, p, bound, stop_on_safety=False)
        return safety, _liveness_report(graph)

    safety_input, liveness_input = safety_and_liveness(input_protocol)
    safety_composed, liveness_composed = safety_and_liveness(composed)
    return Theorem1Result(safety_input, safety_composed, liveness_input, liveness_composed)


# ---------------------------------------------------------------------------
# Ordered enumeration (exact per-role sequences)


class EnactmentGraph(StateSpace):
    """Reachable history vectors, deduplicated up to tick relabeling: states
    are the per-role instance sequences in observation order, with ticks
    assigned by global arrival order on reconstruction. Keeping each sender's
    emission order is what lets FIFO delivery find the oldest message per
    channel."""

    def build(self) -> None:
        self._explore(tuple(() for _ in self.roles))

    def _successors(self, state):
        if sum(map(len, state)) >= self.bound.max_ticks:
            return []
        moves = self._moves(state, fifo=self.bound.delivery == "fifo")
        return [(move, self._with(state, ri, move[2])) for ri, move in moves]

    @staticmethod
    def _with(state, ri: int, inst: MessageInstance):
        return tuple(s + (inst,) if i == ri else s for i, s in enumerate(state))

    emitted = KnowledgeGraph.emitted

    def vector(self, state_id: int) -> HistoryVector:
        v = HistoryVector.empty(self.roles)
        for tick, (direction, _, inst) in enumerate(self._trail(state_id), start=1):
            v = v.extend(Observation(inst, direction, tick))
        return v


def enumerate_uoe(
    p: Protocol, bound: Bound = Bound(), registry: Mapping[str, Protocol] | None = None
) -> EnactmentGraph:
    """The reachability graph of viable history vectors at the bound."""
    graph = EnactmentGraph(uod(p, registry), bound)
    graph.build()
    return graph


def check_embedding(
    input_protocol: Protocol,
    composed: Protocol,
    bound: Bound = Bound(),
    registry: Mapping[str, Protocol] | None = None,
) -> VerificationReport:
    """Every complete enactment of the input protocol replays move for move
    inside the composed protocol, so each role's input-schema observations
    appear there in the same order."""
    input_graph = enumerate_uoe(input_protocol, bound, registry)
    composed_universe = uod(composed, registry)
    checked = 0
    for sid, state in enumerate(input_graph.states):
        if not is_complete(input_graph.emitted(state), input_protocol.out_params):
            continue
        checked += 1
        vector = input_graph.vector(sid)
        knowledge = {role: RoleKnowledge(role) for role in vector.roles}
        for obs in vector.observations():
            if obs.direction == EMIT:
                schema = composed_universe.schema(obs.instance.schema)
                bad = emission_violation(knowledge[obs.role], schema, obs.instance, obs.tick)
                if bad is not None:
                    witness = {
                        "trace": [_move_json((obs.direction, obs.role, obs.instance), obs.tick)],
                        "violation": str(bad),
                    }
                    return VerificationReport(
                        EMBEDDING, False, witness, len(input_graph.states),
                        "input enactment not viable inside the composition",
                    )
            knowledge[obs.role].observe(obs.instance)
    return VerificationReport(
        EMBEDDING, True, None, len(input_graph.states),
        f"{checked} complete enactments replayed order-preservingly",
    )


# ---------------------------------------------------------------------------
# Timed enumeration (alignment reachability)


def _window_anchors(commitments: Sequence[CommitmentSpec]):
    """Every (anchor expression, offset) pair appearing as an event-anchored
    window bound, plus absolute finite upper bounds as (None, instant)."""
    anchors: dict[tuple[str, int], tuple[cm.EventExpr | None, int]] = {}
    seen_commitments: set[str] = set()

    def walk(expr: cm.EventExpr) -> None:
        if isinstance(expr, cm.Window):
            walk(expr.inner)
            for bound in (expr.lower, expr.upper):
                if bound.base_event is not None:
                    anchors[(print_event(bound.base_event), int(bound.offset))] = (
                        bound.base_event,
                        int(bound.offset),
                    )
                    walk(bound.base_event)
                elif bound.offset != cm.INFINITY:
                    anchors[("", int(bound.offset))] = (None, int(bound.offset))
        elif isinstance(expr, (cm.And, cm.Or, cm.Except)):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, cm.LifecycleEvent):
            walk_commitment(expr.commitment)

    def walk_commitment(c: CommitmentSpec) -> None:
        if c.name in seen_commitments:
            return
        seen_commitments.add(c.name)
        for expr in (c.create, c.detach, c.discharge):
            walk(expr)

    for c in commitments:
        walk_commitment(c)
    return list(anchors.values())


class AlignmentGraph(StateSpace):
    """Reachable phase-annotated knowledge states of a composed protocol,
    including deadline-lapse moves."""

    def __init__(
        self,
        universe: Uod,
        commitments: Sequence[CommitmentSpec],
        bound: Bound,
        punctual: bool,
    ):
        # state: (per-role frozenset[(MessageInstance, phase)], now_phase)
        super().__init__(universe, bound)
        self.commitments = tuple(commitments)
        self.punctual = punctual
        self.fwd_registry = forwarding_registry(universe)
        self.anchors = _window_anchors(commitments)
        self._model_cache: dict[frozenset, Model] = {}
        self._verdict_cache: dict[tuple, int] = {}
        self._pending_cache: dict[tuple, list[int]] = {}

    def build(self) -> None:
        self._explore((tuple(frozenset() for _ in self.roles), 0))

    def _successors(self, state):
        sets, now_phase = state
        moves = self._moves([sorted((inst for inst, _ in s), key=_instance_order) for s in sets])
        out = [(move, (self._with(sets, ri, move[2], now_phase), now_phase)) for ri, move in moves]
        lapse_value = self._next_boundary(sets, now_phase)
        if lapse_value is not None and self._lapse_allowed(moves):
            out.append((("lapse", lapse_value), (sets, lapse_value)))
        return out

    def _lapse_allowed(self, moves) -> bool:
        """Punctually, no deadline passes while a message is in flight or a
        forward can be emitted."""
        if not self.punctual:
            return True
        return not any(kind == RECV or inst.schema in self.fwd_registry for _, (kind, _, inst) in moves)

    @staticmethod
    def _with(sets, ri: int, inst: MessageInstance, phase: int):
        return tuple(s | {(inst, phase)} if i == ri else s for i, s in enumerate(sets))

    def _model(self, entries: frozenset, role: str) -> Model:
        model = self._model_cache.get(entries)
        if model is None:
            model = model_of(role, ((inst, phase * SCALE) for inst, phase in entries), self.fwd_registry)
            self._model_cache[entries] = model
        return model

    def _next_boundary(self, sets, now_phase: int) -> int | None:
        values = []
        for anchor, offset in self.anchors:
            if anchor is None and offset > now_phase:
                values.append(offset)
        for ri, role in enumerate(self.roles):
            values.extend(self._role_pending(sets[ri], role, now_phase))
        return min(values) if values else None

    def _role_pending(self, entries: frozenset, role: str, now_phase: int) -> list[int]:
        key = (entries, now_phase)
        cached = self._pending_cache.get(key)
        if cached is not None:
            return cached
        model = self._model(entries, role)
        ctx = EvaluationContext(model, now_phase * SCALE, self.universe, SCALE)
        values = []
        for anchor, offset in self.anchors:
            if anchor is None:
                continue
            for inst in evaluate(anchor, ctx):
                value = inst.timestamp // SCALE + offset
                if value > now_phase and value not in values:
                    values.append(value)
        self._pending_cache[key] = values
        return values

    def alignment(self, state) -> list[int]:
        """Each commitment's number of misalignments at ``state``; 0 means
        aligned."""
        sets, now_phase = state
        out = []
        for c in self.commitments:
            debtor_entries = sets[self.role_index[c.debtor]]
            creditor_entries = sets[self.role_index[c.creditor]]
            key = (c.name, debtor_entries, creditor_entries, now_phase)
            cached = self._verdict_cache.get(key)
            if cached is None:
                result = check_alignment_models(
                    self._model(debtor_entries, c.debtor),
                    self._model(creditor_entries, c.creditor),
                    c,
                    now_phase * SCALE,
                    self.universe,
                    SCALE,
                )
                cached = len(result.misalignments)
                self._verdict_cache[key] = cached
            out.append(cached)
        return out

    def forward_path(self, start: int, goal: set[int]) -> list[dict] | None:
        if start in goal:
            return []
        seen = {start}
        queue = deque([(start, [])])
        while queue:
            node, path = queue.popleft()
            for move, succ in self.edges[node]:
                if succ in goal:
                    return [_move_json(m, t) for t, m in enumerate(path + [move], start=1)]
                if succ not in seen:
                    seen.add(succ)
                    queue.append((succ, path + [move]))
        return None

    # Held in the class namespace for perfbench/tracer.py, as in KnowledgeGraph.
    path_to = StateSpace.path_to
    backward_closure = StateSpace.backward_closure


def check_alignment_reachability(
    composed: Protocol,
    commitments: Sequence[CommitmentSpec],
    bound: Bound = Bound(),
    punctual: bool = True,
    registry: Mapping[str, Protocol] | None = None,
) -> VerificationReport:
    """From every reachable state, some extension is aligned for every
    commitment. On success the witness shows a maximally misaligned state and
    its aligning extension; on failure, a state with no aligning extension."""
    universe = uod(composed, registry)
    graph = AlignmentGraph(universe, commitments, bound, punctual)
    graph.build()
    mode = "punctual" if punctual else "unrestricted"
    counts = [graph.alignment(state) for state in graph.states]
    for ci, c in enumerate(graph.commitments):
        closed = graph.backward_closure(sid for sid, row in enumerate(counts) if row[ci] == 0)
        missing = [sid for sid in range(len(graph.states)) if sid not in closed]
        if missing:
            witness = {
                "commitment": c.name,
                "reach": graph.path_to(missing[0]),
            }
            return VerificationReport(
                ALIGNMENT_REACHABILITY,
                False,
                witness,
                len(graph.states),
                f"{mode}: no aligning extension for {c.name!r}",
            )
    # Success: exhibit the most misaligned state and how it realigns.
    totals = [sum(row) for row in counts]
    witness = None
    if max(totals, default=0) > 0:
        worst_id = totals.index(max(totals))
        all_aligned = {sid for sid, row in enumerate(counts) if not any(row)}
        extension = graph.forward_path(worst_id, all_aligned)
        witness = {
            "misaligned_state": graph.path_to(worst_id),
            "extension": extension,
        }
    return VerificationReport(
        ALIGNMENT_REACHABILITY, True, witness, len(graph.states), f"{mode}: aligning extensions exist"
    )
