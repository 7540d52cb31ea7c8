"""Bounded verification by exhaustive enumeration of reachable enactments.

Four checks are provided over a finite :class:`Bound` (key values and a
state budget). A verdict covers every run at those key values, or the check
raises ``BoundExceeded``:

* safety: no reachable state binds two values to one parameter of one
  enactment. Emissions are validated against the *sender's* knowledge only,
  so conflicting bindings by mutually ignorant roles are reachable and get
  caught here.
* liveness: from every reachable state some extension binds every public
  ``out`` parameter for every initiated key binding.
* embedding: every enactment of an input protocol that can still complete
  replays inside a composed protocol: each of its emissions keeps the composed
  schema's emission rules.
* alignment reachability (Theorem 2): from every reachable state of a
  composed protocol, some extension is aligned for every commitment.

All four enumerate with one explorer, ``StateSpace``, breadth-first except
for Theorem 2's unrestricted search (below); the knowledge-set, ordered and
timed graphs below differ only in their state encoding (no check reads the
ordered one: it is the tests' exact reference), and all three find their
moves with one rule, ``StateSpace._moves``. Their moves, like the
simulator's, are the ``emission_candidates`` of each role's knowledge and a
delivery of any message in flight: BSPL's channels are unordered, and every
FIFO run is also such a run, so a check that holds here holds under FIFO, the
simulator's option (``enactment.deliverable``).

Every graph is a finite DAG: a parameter is bound once per enactment, so a
schema is emitted at most once per key binding (``emission_candidates``' rule
(d)), a run at k key values makes at most 2·k·|schemas| observations, and a
lapse moves the phase forward to a window bound anchored at 0 or at one of
them. Every move grows the state, so every maximal run ends in a *terminal*
state, one with no move, and "from every reachable state some extension is
good" holds exactly when every reachable terminal state is good.

Witnesses are runs: each path in one is a list of the simulator's trace
records (``enactment.observation_to_json``) ticked from 1, and a deadline
lapse is the one other record, ``{"tick", "lapse"}``.

Every graph finds its moves on one encoding. Each instance
``emission_candidates`` returns is one bit, numbered in the order it is first
met, and the moves from a tuple of per-role masks of observed instances are
worked out once per graph: a move sets one bit; the messages in flight are
the emitted bits outside their receivers' masks, and their deliveries, or in
a reduced graph the safe one chosen, are cached on that mask; emissions are
cached on (role index, mask). A knowledge-set state is such a tuple (composed
escrow: 9 595 states in full over 12 instances); the ordered graph derives it
from its observation tuples. Each bit keeps the masks of the instances whose
key bindings agree with its own and of those that also clash with it, so
safety and completeness are read off masks (see ``KnowledgeGraph``).

The timed graph gives a move the model entry of its instance at its phase
(``enactment.model_entry``), made once per (instance, phase). ``semantics``
reads a model only through base-event names, so a commitment's tables read
only the entries its create, detach and discharge name, and the lapse
boundary only those the window anchors name: a model's entries of one read
set are an interned *view*. A timed state is each role's instance mask and
tuple of view ids, and the phase. States differing only in entries nobody
reads, or in a later phase of a known entry, are one: they have the same
moves, lapse, tables and successors (an exact abstraction: Clarke, Grumberg
and Long, "Model checking and abstraction", TOPLAS 1994), and breadth-first
only a class's first-found member finds new classes, so numbering and
witnesses are those of the graph that tells them apart. A move steps its
observer's views by ``enactment.Model.add`` of its entry, as the simulator
grows a role's model (incremental view maintenance: Gupta, Mumick and
Subrahmanian, SIGMOD 1993). Moves are cached on instance masks, steps on
(views, instance, phase), tables on (commitment, view, phase), misalignment
counts on (commitment, debtor view, creditor view, phase), next changes on
(anchor view, phase): punctual composed escrow needs 41 views, 80 tables and
34 next changes, where keys on whole knowledge and phase need 848 and 217.

A *safe* delivery is one whose parameters are ``out`` in no schema its
receiver sends. A reduced graph expands only such a delivery where one is in
flight, the first in delivery order. It disables none of the receiver's
emissions (it only adds bindings, and ``in`` rules only gain values), no move
disables it, and observations by different roles, or two receipts by one,
commute. So it is a stubborn set: the reduced graph is a subgraph of the full
one with the same reachable terminal states (Valmari, "Stubborn sets for
reduced state space generation", 1990; Godefroid, *Partial-Order Methods for
the Verification of Concurrent Systems*, 1996).

Where none is, a reduced graph expands only the first emission, in move
order, of an *independent emission*: of a schema (b) whose ``out`` parameters
no other schema has ``out``, (c) whose sender receives none of them, and (d)
each of whose non-key ``in`` parameters is ``out`` in one schema at most. By
(b) it binds only what no other move binds, so it disables nothing.
``emission_candidates`` gives a non-key ``out`` parameter its one default
value, so by (b) to (d) the sender never learns a second value of a parameter
the emission reads, nor any value of one it binds: no move disables it. (c)
is not implied by (b): a message back to its sender that carries one of them
under other keys agrees with the emission at another key value, and would
disable it there. So it is a stubborn set too. The timed graph also asks (a)
that the schema be in ``forwarding_registry``: no lapse passes while a
forward is enabled (below), but a plain emission does not commute with a
lapse. The knowledge-set graph has no lapses. Punctual composed escrow takes
702 states instead of 4 227, with the same 15 terminal states, and its
reduced knowledge-set graph 81 instead of 2 678 (230 with independent
forwards alone). The unrestricted Theorem 2 search and embedding are never
reduced.

Safety, liveness and embedding work on knowledge-set states: a role's
enabled moves and the three verdicts depend only on what each role knows, not
on the order it learned it. Safety and liveness are terminal-state
properties: liveness holds exactly when every terminal state is complete, and
a role's emitted set only grows along a run, so a state that binds a
parameter twice is reachable exactly when such a terminal state is. So they
are decided and reported on the reduced graph (composed escrow: 81 states
instead of 9 595). A stubborn set keeps the terminal states reachable from
each of its states, so its path to an unsafe state is an unsafe run, and a
state with no completing extension in it has none in the full graph. Every
build stops at its first safety violation, and a check that reads liveness
resumes it. The backward closure of the complete states (``live``) is
computed only for embedding and for a liveness witness, the first state
outside it. Embedding alone builds the full graph: an emission on a prefix of
a complete input enactment is exactly an emission edge into a *live* state,
and ``emission_violation`` reads only the sender's order-free
``RoleKnowledge``.

When every two schemas share a key parameter, instances at different key
values never agree (``kb_agree``), so the k-value graph is the k-fold
product of the first value's graph. These three then answer k > 1 values
from that graph, whatever its verdict: a witness there is a k-value run with
the other values idle, and a report's detail says so. Theorem 2 enumerates.

Alignment needs time. Every observation happens in the current *phase*,
which is also its timestamp in the observer's model and the instant tables
are evaluated at. Observations take no time: the clock advances only through
explicit deadline-lapse moves, which jump to the first phase at which some
role's lifecycle tables can change (``semantics.next_change``). Knowledge is
annotated with its phase, which fully determines window membership;
deadlines falling on one instant lapse together. The punctual-delivery
restriction (deliveries and available forwards happen before deadlines pass)
gates lapse moves on empty channels and no enabled forwarding emissions.

Theorem 2 fails exactly when a reachable terminal state is misaligned for
some commitment; the witness is the path to the first one found. On success
it is the most misaligned state and a shortest extension to an all-aligned
one. Punctual runs are reduced: no lapse may pass while a message is in
flight or a forward can be emitted, so a safe delivery or an independent
forward lands at the current phase in every order. Unrestricted runs are not
reduced: a lapse may pass before any delivery or forward.
There Theorem 2 is expected to fail, so the graph is searched depth-first,
each state's successors in their order, and the search stops at the first
misaligned terminal state; its report counts the states found (composed
escrow: 88, where the breadth-first graph passes 300 000). This is the
on-the-fly, counterexample-first search of Courcoubetis, Vardi, Wolper and
Yannakakis ("Memory-efficient algorithms for the verification of temporal
properties", FMSD 1992). A search that finds none has expanded every state;
it is renumbered breadth-first over its stored edges, so a holding report is
the breadth-first one. Punctually Theorem 2 is expected to hold, and the
search would only add a pass, so punctual runs are breadth-first.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from typing import Container, Iterable, Iterator, Mapping, Sequence

from .commitments import CommitmentSpec, bind_commitment
from .enactment import (
    EMIT,
    RECV,
    HistoryVector,
    MessageInstance,
    Model,
    ModelEntry,
    Observation,
    emission_candidates,
    emission_violation,
    model_entry,
    observation_to_json,
)
from .enactment import knowledge_from as _knowledge_from
from .errors import BoundExceeded, WellFormednessError
from .protocol import Protocol, Uod, uod
from .semantics import (
    INF,
    EvaluationContext,
    base_event_names,
    check_alignment_models,
    lifecycle_table,
    next_change,
    window_anchors,
)
from .semantics import evaluate  # noqa: F401  unused here; perfbench/tracer.py rebinds it on this module
from .synthesis import forwarding_registry

log = logging.getLogger(__name__)

SAFETY = "SAFETY"
LIVENESS = "LIVENESS"
EMBEDDING = "EMBEDDING"
ALIGNMENT_REACHABILITY = "ALIGNMENT_REACHABILITY"


@dataclass(frozen=True)
class Bound:
    """Finite restriction of the enactment space.

    * ``key_values``: the values key parameters range over. An emission
      gives every key parameter of its schema the same one of them, so mixed
      bindings (one key parameter at ``"1"``, another at ``"2"``) are not
      produced or explored. Safety, liveness and embedding answer k > 1 values
      from the first value's graph when every two schemas share a key
      parameter; otherwise all k are enumerated.
    * ``max_states``: states explored before ``BoundExceeded`` is raised.
      Every run at the key values is finite (see the module docstring), so
      a verdict within it covers all of them.
    """

    key_values: tuple[str, ...] = ("1",)
    max_states: int = 400_000

    def __post_init__(self):
        if not self.key_values or len(set(self.key_values)) < len(self.key_values):
            raise WellFormednessError(f"a bound needs one or more distinct key values, not {self.key_values}")
        if self.max_states < 1:
            raise WellFormednessError(f"a bound needs max_states >= 1, not {self.max_states}")


@dataclass(frozen=True)
class VerificationReport:
    property: str
    holds: bool
    witness: object | None
    states_explored: int
    detail: str = ""


def _instance_order(inst: MessageInstance):
    return (inst.schema, inst.bindings)


def _witness(moves: Sequence[tuple]) -> list[dict]:
    """Moves as trace records, ticked from 1; a lapse is ``{"tick", "lapse"}``."""
    return [
        {"tick": tick, "lapse": move[1]} if move[0] == "lapse"
        else observation_to_json(Observation(move[2], move[0], tick))
        for tick, move in enumerate(moves, start=1)
    ]


def _union(masks: Sequence[int], parts: Sequence[int]) -> int:
    """The union of each mask's intersection with its part."""
    union = 0
    for mask, part in zip(masks, parts):
        union |= mask & part
    return union


def _with(masks: tuple[int, ...], index: int, bit: int) -> tuple[int, ...]:
    """``masks`` with ``bit`` set in the mask at ``index``."""
    return masks[:index] + (masks[index] | bit,) + masks[index + 1:]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# The shared explorer


class StateSpace:
    """Enumeration of the states reachable at a bound, breadth-first or, to
    look for a state, depth-first. States are numbered in discovery order;
    each keeps the edge it was found by and its out-edges.

    Moves are found on instance masks: bit ``b`` stands for ``_instances[b]``,
    interned in the order ``_emissions`` first meets it, with the masks of
    what each role sends and receives, of the instances it agrees and
    conflicts with, and of each parameter's binders. ``_moves`` gives every
    graph's moves from one instance mask per role. Subclasses give the initial
    state (to ``build``), ``_successors``, and ``decode``, which gives a
    state's contents back."""

    def __init__(self, universe: Uod, bound: Bound, reduced: bool = False):
        self.universe = universe
        self.bound = bound
        self.roles = tuple(sorted(universe.roles))
        self.role_index = {r: i for i, r in enumerate(self.roles)}
        # Reduced, a state expands only a safe delivery where one is in flight,
        # else only an independent emission where one is enabled (see the
        # module docstring); ``_safe`` and ``_independent`` name the schemas.
        self.reduced = reduced
        self.fwd_registry = forwarding_registry(universe)
        schemas = universe.schemas
        outs = {role: {p for s in schemas if s.sender == role for p in s.outs} for role in self.roles}
        heard = {role: {p for s in schemas if s.receiver == role for p in s.param_names} for role in self.roles}
        binders = Counter(p for s in schemas for p in s.outs)
        self._safe = {s.name for s in schemas if reduced and outs[s.receiver].isdisjoint(s.param_names)}
        self._independent = {
            s.name for s in schemas if reduced and heard[s.sender].isdisjoint(s.outs)
            and all(binders[p] == 1 for p in s.outs) and all(binders[p] <= 1 for p in s.ins if p not in s.keys)
        }
        self.states: list[tuple[int, ...]] = []
        self.parents: list[tuple[int, tuple] | None] = []
        self.edges: list[list[tuple[tuple, int]]] = []
        self.index: dict[tuple[int, ...], int] = {}
        self._instances: list[MessageInstance] = []
        self._bit: dict[MessageInstance, int] = {}
        self._send = [0] * len(self.roles)
        self._recv = [0] * len(self.roles)
        # Per bit, the instances whose key bindings agree with it (``kb_agree``),
        # itself included, and those of them that bind a shared parameter to
        # another value; per parameter, the instances that bind it. An agreement
        # mask is read off the instances keyed by each key parameter and those
        # keyed by it at each value, so only agreeing instances are compared.
        self._agree: list[int] = []
        self._conflicts: list[int] = []
        self._binders: dict[str, int] = {}
        self._keyed: dict[str, int] = {}
        self._key_values: dict[tuple[str, str], int] = {}
        # Emission moves by (role index, mask); delivery moves, and whether
        # they are the only moves expanded, by the mask of instances in flight.
        self._emission_cache: dict[tuple[int, int], list] = {}
        self._delivery_cache: dict[int, tuple[list[tuple[int, tuple, int]], bool]] = {}
        self.cache_hits = 0
        self._expanded = 0  # states expanded breadth-first; see ``_explore``

    def _explore(self, initial, stop=None, goal=None) -> int | None:
        """Enumerate from ``initial``, breadth-first, or resume where ``stop()``,
        asked before expanding each state, ended it; ``_found`` is told of every
        new state. With ``goal``, depth-first instead, each state's successors
        in their order, until a terminal state ``goal(state id)`` holds for:
        its id is returned, or None once every state is expanded."""
        try:
            if not self.states:
                self._add(initial, None)
            if goal is None:
                # Breadth-first, states are expanded in the order they are found.
                while self._expanded < len(self.states):
                    if stop is not None and stop():
                        return None
                    self._expand(self._expanded)
                    self._expanded += 1
                return None
            stack = [0]
            while stack:
                sid = stack.pop()
                first = len(self.states)
                self._expand(sid)
                if not self.edges[sid] and goal(sid):
                    return sid
                # The states just found, numbered from ``first`` on; the first
                # successor's goes on top, so it is expanded next.
                stack.extend(range(len(self.states) - 1, first - 1, -1))
            return None
        finally:
            log.info("%s: %d states, %d edges, %s%s%s", type(self).__name__, len(self.states), self.edge_count(),
                     self._cache_summary(),
                     ", reduced to safe deliveries and independent emissions" if self.reduced else "",
                     ", depth-first" if goal is not None else "")

    def _expand(self, sid: int) -> None:
        """Record the out-edges of state ``sid``, adding the states they find."""
        for move, succ in self._successors(self.states[sid]):
            tid = self.index.get(succ)
            if tid is None:
                tid = self._add(succ, (sid, move))
                self._found(sid, tid, move)
            self.edges[sid].append((move, tid))

    def _walk(self, start: int, goal: Container[int] = frozenset()) -> dict[int, tuple[int, tuple] | None]:
        """Breadth-first over the stored edges from ``start``: each state
        reached, in the order first reached, with the edge it was first
        reached by (None for ``start``). Stops when it reaches a state of ``goal``."""
        parents: dict[int, tuple[int, tuple] | None] = {start: None}
        order = [start]
        for sid in order:
            for move, tid in self.edges[sid]:
                if tid not in parents:
                    parents[tid] = (sid, move)
                    if tid in goal:
                        return parents
                    order.append(tid)
        return parents

    def _renumber(self) -> None:
        """Renumber a complete graph breadth-first over its stored edges: its
        states, parents and edges become those a breadth-first build records."""
        walk = self._walk(0)
        renumbered = {sid: new for new, sid in enumerate(walk)}
        self.states = [self.states[sid] for sid in walk]
        self.parents = [None if parent is None else (renumbered[parent[0]], parent[1]) for parent in walk.values()]
        self.edges = [[(move, renumbered[tid]) for move, tid in self.edges[sid]] for sid in walk]
        self.index = {state: sid for sid, state in enumerate(self.states)}

    def _cache_summary(self) -> str:
        return f"{len(self._emission_cache)} candidate-cache entries, {self.cache_hits} hits"

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

    def _intern(self, inst: MessageInstance) -> int:
        """The bit of ``inst``, assigned with its role, agreement, conflict and
        binder masks the first time it is met."""
        bit = self._bit.get(inst)
        if bit is None:
            bit = self._bit[inst] = len(self._instances)
            self._send[self.role_index[inst.sender]] |= 1 << bit
            self._recv[self.role_index[inst.receiver]] |= 1 << bit
            values = dict(inst.bindings)
            # Earlier instances not keyed by each key parameter, or keyed by it at its value.
            agree, clash = (1 << bit) - 1, 0
            for key in inst.key_binding:
                agree &= ~self._keyed.get(key[0], 0) | self._key_values.get(key, 0)
                self._keyed[key[0]] = self._keyed.get(key[0], 0) | 1 << bit
                self._key_values[key] = self._key_values.get(key, 0) | 1 << bit
            for other_bit in _bits(agree):
                self._agree[other_bit] |= 1 << bit
                if any(values.get(param, value) != value for param, value in self._instances[other_bit].bindings):
                    clash |= 1 << other_bit
                    self._conflicts[other_bit] |= 1 << bit
            for param in values:
                self._binders[param] = self._binders.get(param, 0) | 1 << bit
            self._instances.append(inst)
            self._agree.append(agree | 1 << bit)
            self._conflicts.append(clash)
        return bit

    def _members(self, mask: int) -> list[MessageInstance]:
        """The instances of ``mask``, in bit order."""
        return [self._instances[bit] for bit in _bits(mask)]

    def _emitted_mask(self, masks: Sequence[int]) -> int:
        """The instances some role sent, given one instance mask per role."""
        return _union(masks, self._send)

    def _moves(self, masks: Sequence[int]) -> list[tuple[int, tuple, int]]:
        """The moves from one instance mask per role, each with its observer's
        index and the bit it sets: emissions per role, then a delivery of each
        instance in flight, emitted and not in its receiver's mask. Reduced,
        the first safe delivery, or else the first independent emission (in the
        timed graph, only a forward is independent), alone where there is one."""
        deliveries, alone = self._deliveries(self._emitted_mask(masks) & ~_union(masks, self._recv))
        if alone:
            return deliveries
        emissions = [move for ri, mask in enumerate(masks) for move in self._emissions(ri, mask)]
        independent = next((move for move in emissions if move[1][2].schema in self._independent), None)
        return [independent] if independent else emissions + deliveries

    def _emissions(self, ri: int, mask: int) -> list[tuple[int, tuple, int]]:
        """Role ``ri``'s emission moves from ``mask``, cached per graph.
        Knowledge is built in bit order: no ``RoleKnowledge`` answer depends on
        it, and ``emission_candidates`` sorts its output."""
        key = (ri, mask)
        moves = self._emission_cache.get(key)
        if moves is not None:
            self.cache_hits += 1
            return moves
        role = self.roles[ri]
        moves = self._emission_cache[key] = []
        knowledge = _knowledge_from(self._members(mask), role)
        for inst in emission_candidates(knowledge, self.universe, role, self.bound.key_values):
            bit = self._intern(inst)
            moves.append((ri, (EMIT, role, self._instances[bit]), 1 << bit))
        return moves

    def _deliveries(self, pending: int) -> tuple[list[tuple[int, tuple, int]], bool]:
        """A delivery of each instance in ``pending``, by sender in role order,
        then by schema and bindings. Reduced, the first safe one alone where
        there is one, and then ``True``: no emission is expanded."""
        cached = self._delivery_cache.get(pending)
        if cached is None:
            flying = sorted(self._members(pending), key=lambda i: (self.role_index[i.sender], _instance_order(i)))
            moves = [
                (self.role_index[inst.receiver], (RECV, inst.receiver, inst), 1 << self._bit[inst]) for inst in flying
            ]
            safe = [move for move in moves if move[1][2].schema in self._safe][:1]
            cached = self._delivery_cache[pending] = (safe or moves, bool(safe))
        return cached

    def edge_count(self) -> int:
        return sum(map(len, self.edges))

    def depth(self) -> int:
        """Moves to the deepest state found, along the edges it was found by. A
        state is found after its parent, so one pass in id order suffices."""
        depths = [0] * len(self.states)
        for sid, parent in enumerate(self.parents):
            if parent is not None:
                depths[sid] = depths[parent[0]] + 1
        return max(depths, default=0)

    def _trail(self, state_id: int, parents) -> list[tuple]:
        """The moves to ``state_id`` from the root of ``parents`` (state id -> parent id and move)."""
        moves = []
        while parents[state_id] is not None:
            state_id, move = parents[state_id]
            moves.append(move)
        moves.reverse()
        return moves

    def path_to(self, state_id: int) -> list[dict]:
        return _witness(self._trail(state_id, self.parents))

    def backward_closure(self, seeds: Iterable[int]) -> set[int]:
        """The states with a path to one of ``seeds``, in one pass from the last
        state back: in a knowledge-set or ordered graph every edge leads to a later state."""
        closed = set(seeds)
        for sid in range(len(self.states) - 1, -1, -1):
            if sid not in closed and any(tid in closed for _, tid in self.edges[sid]):
                closed.add(sid)
        return closed


# ---------------------------------------------------------------------------
# Knowledge-set enumeration (safety, liveness)


class KnowledgeGraph(StateSpace):
    """Reachable per-role knowledge sets under emission and delivery moves.

    A state is a tuple of instance masks, one per role, and a move sets one
    bit of its observer's mask. With ``reduced``, a state expands only a safe
    delivery, or else an independent emission, forward or not, where there is
    one: with no lapses, conditions (b) to (d) suffice."""

    def __init__(self, universe: Uod, bound: Bound, public_out: Sequence[str], reduced: bool = False):
        super().__init__(universe, bound, reduced)
        self.public_out = tuple(public_out)
        self.safety_violation: tuple[int, str] | None = None
        self.detail = ""

    def build(self) -> None:
        """Enumerate breadth-first, to the first safety violation if there is one."""
        self._explore((0,) * len(self.roles), lambda: self.safety_violation is not None)

    def complete(self) -> KnowledgeGraph:
        """This graph enumerated to the end, from where ``build`` stopped or from the start."""
        if not self.states or self._expanded < len(self.states):
            self._explore((0,) * len(self.roles))
        return self

    def decode(self, state: tuple[int, ...]) -> tuple[frozenset, ...]:
        """Each role's knowledge set in ``state``."""
        return tuple(frozenset(self._members(mask)) for mask in state)

    def emitted(self, state: tuple[int, ...]) -> list[MessageInstance]:
        return self._members(self._emitted_mask(state))

    def _successors(self, state: tuple[int, ...]) -> list[tuple[tuple, tuple[int, ...]]]:
        return [(move, _with(state, ri, bit)) for ri, move, bit in self._moves(state)]

    def _found(self, parent_id: int, state_id: int, move: tuple) -> None:
        """Record the first emission that binds a parameter of its enactment a
        second time, against the first instance, in (schema, bindings) order,
        that its conflict mask meets among those already emitted."""
        if move[0] != EMIT or self.safety_violation is not None:
            return
        new = move[2]
        clash = self._emitted_mask(self.states[parent_id]) & self._conflicts[self._bit[new]]
        if not clash:
            return
        inst = min(self._members(clash), key=_instance_order)
        param, value = next(item for item in inst.bindings if new.binding(item[0]) not in (None, item[1]))
        self.safety_violation = (
            state_id,
            f"parameter {param!r} bound to {value!r} by {inst.schema!r} "
            f"and to {new.binding(param)!r} by {new.schema!r}",
        )

    def _is_complete(self, state: tuple[int, ...]) -> bool:
        """Whether every emitted instance agrees with an emitted binder of each
        public ``out`` parameter, so every initiated key binding binds them."""
        emitted = self._emitted_mask(state)
        return all(
            emitted & self._agree[bit] & self._binders.get(param, 0)
            for bit in _bits(emitted) for param in self.public_out
        )

    @cached_property
    def live_everywhere(self) -> bool:
        """Whether every state of a built graph has a completing extension:
        every maximal run ends in a terminal state, so exactly when every
        terminal state is complete."""
        return all(self._is_complete(state) for state, out in zip(self.states, self.edges) if not out)

    @cached_property
    def live(self) -> set[int]:
        """The states with a completing extension, the backward closure of the
        complete states: asked of a built graph by embedding and for a
        liveness witness."""
        return self.backward_closure(sid for sid, state in enumerate(self.states) if self._is_complete(state))

    # perfbench/tracer.py rebinds these on each graph class it traces, so the
    # class must hold them in its own namespace.
    path_to = StateSpace.path_to
    backward_closure = StateSpace.backward_closure


def _knowledge_graph(universe: Uod, p: Protocol, bound: Bound, reduce: bool = True) -> KnowledgeGraph:
    """The one graph a check reads at ``bound``, reduced with ``reduce``,
    stopped at its first safety violation. At k > 1 key values where every two
    schemas share a key parameter, it is built at the first value alone."""
    k = len(bound.key_values)
    detail = ""
    if k > 1 and all(set(a.keys) & set(b.keys) for a, b in combinations(universe.schemas, 2)):
        bound = replace(bound, key_values=bound.key_values[:1])
        detail = f"{k} key values answered from one"
        log.info("%s: %s", p.name, detail)
    graph = KnowledgeGraph(universe, bound, p.out_params, reduce)
    graph.detail = detail
    graph.build()
    return graph


def _report(prop: str, graph: KnowledgeGraph, witness, detail: str = "") -> VerificationReport:
    """A report on ``graph``, holding when there is no witness; its detail
    ends with the graph's."""
    detail = ", ".join(filter(None, (detail, graph.detail)))
    return VerificationReport(prop, witness is None, witness, len(graph.states), detail)


def _safety_report(graph: KnowledgeGraph) -> VerificationReport:
    if graph.safety_violation is None:
        return _report(SAFETY, graph, None)
    state_id, detail = graph.safety_violation
    return _report(SAFETY, graph, {"reach": graph.path_to(state_id), "violation": detail}, detail)


def _liveness_report(graph: KnowledgeGraph) -> VerificationReport:
    graph.complete()
    if graph.live_everywhere:
        return _report(LIVENESS, graph, None)
    stuck = next(sid for sid in range(len(graph.states)) if sid not in graph.live)
    return _report(LIVENESS, graph, {"reach": graph.path_to(stuck)}, "state with no completing extension")


def check_safety(
    p: Protocol, bound: Bound = Bound(), registry: Mapping[str, Protocol] | None = None
) -> VerificationReport:
    """Key integrity across every reachable state at the bound."""
    return _safety_report(_knowledge_graph(uod(p, registry), p, bound))


def check_liveness(
    p: Protocol, bound: Bound = Bound(), registry: Mapping[str, Protocol] | None = None
) -> VerificationReport:
    """Every reachable state can still be extended to a complete enactment."""
    return _liveness_report(_knowledge_graph(uod(p, registry), p, bound))


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


def check_safety_and_liveness(
    p: Protocol, bound: Bound = Bound(), registry: Mapping[str, Protocol] | None = None
) -> tuple[VerificationReport, VerificationReport]:
    """``check_safety`` and ``check_liveness`` from one reduced graph, which
    an unsafe protocol's violation stops until liveness resumes it."""
    graph = _knowledge_graph(uod(p, registry), p, bound)
    return _safety_report(graph), _liveness_report(graph)


def check_theorem1(
    input_protocol: Protocol,
    composed: Protocol,
    bound: Bound = Bound(),
    registry: Mapping[str, Protocol] | None = None,
) -> Theorem1Result:
    safety_input, liveness_input = check_safety_and_liveness(input_protocol, bound, registry)
    safety_composed, liveness_composed = check_safety_and_liveness(composed, bound, registry)
    return Theorem1Result(safety_input, safety_composed, liveness_input, liveness_composed)


# ---------------------------------------------------------------------------
# Ordered enumeration (exact per-role sequences)


class EnactmentGraph(StateSpace):
    """Reachable history vectors, deduplicated up to tick relabeling: a state
    is the tuple of per-role instance sequences in observation order, with
    ticks assigned by global arrival order on reconstruction. Its moves are
    ``_moves`` on each role's instance mask. No check reads it: it is the
    exact reference the knowledge-set graph is tested against."""

    def build(self) -> None:
        self._explore(((),) * len(self.roles))

    def decode(self, state: tuple[tuple[MessageInstance, ...], ...]) -> tuple[tuple[MessageInstance, ...], ...]:
        return state

    def emitted(self, state: tuple[tuple[MessageInstance, ...], ...]) -> list[MessageInstance]:
        return [inst for role, seen in zip(self.roles, state) for inst in seen if inst.sender == role]

    def _successors(self, state):
        masks = [sum(1 << self._intern(inst) for inst in seen) for seen in state]
        return [(move, state[:ri] + (state[ri] + (move[2],),) + state[ri + 1:]) for ri, move, _ in self._moves(masks)]

    def vector(self, state_id: int) -> HistoryVector:
        trail = enumerate(self._trail(state_id, self.parents), start=1)
        return HistoryVector(self.roles, tuple(Observation(inst, kind, tick) for tick, (kind, _, inst) in trail))


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
    """Every enactment of the input protocol that can still complete replays
    inside the composed protocol: each emission edge of the input's graph into
    a live state passes the composed schema's emission rules against the
    sender's knowledge at its source. On failure the witness is the path to
    that source and the emission, a run of the input the composition rejects.
    Every prefix of a complete run is read, so the graph is never reduced."""
    graph = _knowledge_graph(uod(input_protocol, registry), input_protocol, bound, reduce=False).complete()
    composed_universe = uod(composed, registry)
    checked = 0
    for sid, out_edges in enumerate(graph.edges):
        for move, tid in out_edges:
            if move[0] != EMIT or tid not in graph.live:
                continue
            checked += 1
            _, role, inst = move
            knowledge = _knowledge_from(graph._members(graph.states[sid][graph.role_index[role]]), role)
            trail = graph._trail(sid, graph.parents)
            bad = emission_violation(knowledge, composed_universe.schema(inst.schema), inst, len(trail) + 1)
            if bad is not None:
                witness = {"trace": _witness(trail + [move]), "violation": str(bad)}
                return _report(EMBEDDING, graph, witness, "input enactment not viable inside the composition")
    return _report(EMBEDDING, graph, None, f"{checked} emissions toward complete enactments replayed")


# ---------------------------------------------------------------------------
# Timed enumeration (alignment reachability)


class AlignmentGraph(StateSpace):
    """Reachable phase-annotated knowledge states of a composed protocol, up
    to the views its checks read, with deadline-lapse moves; punctually, only
    a safe delivery, or else an independent forward's emission, where there is
    one. A state is (per-role instance masks, per-role tuples of view ids,
    phase). A move sets its bit in its observer's instance mask and steps its
    views by its instance's entry at the phase (``_grow``); a lapse changes
    only the phase. Moves are found on instance masks; tables, misalignment
    counts and lapse boundaries are read off views."""

    def __init__(
        self,
        universe: Uod,
        commitments: Sequence[CommitmentSpec],
        bound: Bound,
        punctual: bool,
    ):
        super().__init__(universe, bound, reduced=punctual)
        # Only a forward blocks a lapse, so only a forward lands at the current
        # phase in every order: a plain emission does not commute with a lapse.
        self._independent &= self.fwd_registry.keys()
        self.commitments = tuple(commitments)
        self.anchors = window_anchors(commitments)
        # A commitment's tables read only the entries its base events name, and
        # the lapse boundary only those the anchors name (see ``semantics``).
        # A model's entries named in one read set are an interned view; a role
        # holds one per read set, the anchors' first, view 0 being empty.
        self._reads = {c.name: base_event_names((c.create, c.detach, c.discharge)) for c in self.commitments}
        anchor_reads = base_event_names(anchor for anchor, _ in self.anchors if anchor is not None)
        self._read_sets = (anchor_reads, *(self._reads[c.name] for c in self.commitments))
        self._view_ids: dict[tuple, int] = {(): 0}
        self._views: list[Model] = [Model(())]
        self._insert_cache: dict[tuple[int, int, int], int] = {}
        self._grow_cache: dict[tuple[tuple[int, ...], int, int], tuple[int, ...]] = {}
        self._table_cache: dict[tuple, dict] = {}
        self._change_cache: dict[tuple[int, int], int | float] = {}
        self._count_cache: dict[tuple, int] = {}
        # Each move's entry by (instance index, phase); moves, and whether a
        # lapse may follow, by instance masks.
        self._entries: dict[tuple[int, int], ModelEntry] = {}
        self._moves_cache: dict[tuple[int, ...], tuple[list[tuple[int, tuple, int]], bool]] = {}
        self.moves_hits = 0

    def build(self, probe: bool = False) -> int | None:
        """Enumerate breadth-first. With ``probe``, search depth-first instead
        and stop at the first terminal state misaligned for some commitment,
        whose id is returned. A probe that finds none has expanded every state,
        and is renumbered as a breadth-first build would number it."""
        root = ((0,) * len(self.roles), ((0,) * len(self._read_sets),) * len(self.roles), 0)
        end = self._explore(root, goal=(lambda sid: any(self.alignment(self.states[sid]))) if probe else None)
        if probe and end is None:
            self._renumber()
        return end

    def _grow(self, views: tuple[tuple[int, ...], ...], ri: int, index: int, phase: int) -> tuple[tuple[int, ...], ...]:
        """``views`` with role ``ri``'s stepped, by ``Model.add``, by the entry
        of instance ``index`` at ``phase``, made when first met; a move is at the
        current phase, no earlier than any its observer holds. Steps are cached
        on (the role's views, index, phase)."""
        key = (views[ri], index, phase)
        child = self._grow_cache.get(key)
        if child is None:
            entry = self._entries.get((index, phase))
            if entry is None:
                entry = self._entries[index, phase] = self._model(index, phase)
            child = self._grow_cache[key] = tuple(
                self._insert(view, index, phase) if entry.name in names else view
                for view, names in zip(views[ri], self._read_sets)
            )
        return views[:ri] + (child,) + views[ri + 1:]

    def _insert(self, view: int, index: int, phase: int) -> int:
        """The id of view ``view`` grown by the entry of instance ``index`` at ``phase`` (``Model.add``)."""
        key = (view, index, phase)
        if key not in self._insert_cache:
            model = self._views[view].add(self._entries[index, phase])
            grown = self._insert_cache[key] = self._view_ids.setdefault(model.entries, len(self._views))
            if grown == len(self._views):
                self._views.append(model)
        return self._insert_cache[key]

    def decode(self, state):
        """Each role's instance set and views (``Model``s) in ``state``, and its phase."""
        views = tuple(tuple(self._views[view] for view in role_views) for role_views in state[1])
        return tuple(frozenset(self._members(mask)) for mask in state[0]), views, state[2]

    def _successors(self, state):
        """Each move's successor, then the lapse's, made one at a time, so a
        build cut by ``max_states`` stops making them at the cut."""
        observed, views, now_phase = state
        cached = self._moves_cache.get(observed)
        if cached is None:
            moves = self._moves(observed)
            # Punctually, no deadline passes while a message is in flight or a
            # forward can be emitted.
            blocked = any(kind == RECV or inst.schema in self.fwd_registry for _, (kind, _, inst), _ in moves)
            cached = self._moves_cache[observed] = (moves, not (self.reduced and blocked))
        else:
            self.moves_hits += 1
        moves, lapse_allowed = cached
        for ri, move, bit in moves:
            yield move, (_with(observed, ri, bit), self._grow(views, ri, bit.bit_length() - 1, now_phase), now_phase)
        lapse_value = self._next_boundary(views, now_phase) if lapse_allowed else INF
        if lapse_value < INF:
            yield ("lapse", lapse_value), (observed, views, lapse_value)

    def _cache_summary(self) -> str:
        return (f"{super()._cache_summary()}, {len(self._moves_cache)} moves-cache entries, {self.moves_hits} hits, "
                f"{len(self._views)} views, {len(self._table_cache)} tables")

    def _model(self, index: int, phase: int) -> ModelEntry:
        """The entry of instance ``index`` observed at ``phase``."""
        return model_entry(self._instances[index], phase, self.fwd_registry)

    def _next_boundary(self, views: tuple[tuple[int, ...], ...], now_phase: int) -> int | float:
        """The phase the next lapse jumps to: the first at which some role's
        lifecycle tables can change, or INF when none can."""
        first = INF
        for role_views in views:
            key = (role_views[0], now_phase)
            change = self._change_cache.get(key)
            if change is None:
                ctx = EvaluationContext(self._views[key[0]], now_phase)
                change = self._change_cache[key] = next_change(self.anchors, ctx)
            first = min(first, change)
        return first

    def _table(self, c: CommitmentSpec, view: int, now_phase: int) -> dict:
        key = (c.name, view, now_phase)
        table = self._table_cache.get(key)
        if table is None:
            ctx = EvaluationContext(self._views[view], now_phase)
            table = self._table_cache[key] = lifecycle_table(c, ctx)
        return table

    def alignment(self, state) -> list[int]:
        """Each commitment's number of misalignments at ``state``; 0 means
        aligned."""
        _, views, phase = state
        counts = []
        for i, c in enumerate(self.commitments, start=1):
            debtor = views[self.role_index[c.debtor]][i]
            creditor = views[self.role_index[c.creditor]][i]
            key = (c.name, debtor, creditor, phase)
            if key not in self._count_cache:
                self._count_cache[key] = len(check_alignment_models(
                    c, self._table(c, debtor, phase), self._table(c, creditor, phase)
                ).misalignments)
            counts.append(self._count_cache[key])
        return counts

    def forward_path(self, start: int, goal: set[int]) -> list[dict] | None:
        """A shortest path from ``start`` to a state of ``goal``, or None."""
        parents = self._walk(start, goal)
        end = next(reversed(parents))
        return _witness(self._trail(end, parents)) if end in goal else None

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
    its aligning extension; on failure, the path to a misaligned terminal
    state. Unrestricted, deadlines may outrun deliveries and the check is
    expected to fail, so the graph is probed depth-first for such a state;
    punctually it is expected to hold, and a probe would add a second pass."""
    universe = uod(composed, registry)
    for c in commitments:
        bind_commitment(c, universe)
    graph = AlignmentGraph(universe, commitments, bound, punctual)
    stuck = graph.build(probe=not punctual)
    mode = "punctual" if punctual else "unrestricted"
    if stuck is None:
        # The graph is complete. Every maximal run ends in a terminal state, so
        # a state with no aligning extension exists exactly when a terminal one
        # is misaligned.
        counts = [graph.alignment(state) for state in graph.states]
        stuck = next((sid for sid, row in enumerate(counts) if any(row) and not graph.edges[sid]), None)
    log.info("AlignmentGraph: %d tables, %d counts, %d next changes after the %s check",
             len(graph._table_cache), len(graph._count_cache), len(graph._change_cache), mode)
    if stuck is not None:
        c = next(c for c, n in zip(graph.commitments, graph.alignment(graph.states[stuck])) if n)
        witness = {"commitment": c.name, "reach": graph.path_to(stuck)}
        detail = f"{mode}: no aligning extension for {c.name!r}"
        return VerificationReport(ALIGNMENT_REACHABILITY, False, witness, len(graph.states), detail)
    # Success: exhibit the most misaligned state and how it realigns.
    totals = [sum(row) for row in counts]
    witness = None
    if max(totals, default=0) > 0:
        worst_id = totals.index(max(totals))
        all_aligned = {sid for sid, row in enumerate(counts) if not any(row)}
        witness = {
            "misaligned_state": graph.path_to(worst_id),
            "extension": graph.forward_path(worst_id, all_aligned),
        }
    return VerificationReport(
        ALIGNMENT_REACHABILITY, True, witness, len(graph.states), f"{mode}: aligning extensions exist"
    )
