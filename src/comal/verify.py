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
ordered one: it is the tests' exact reference).
Their moves, like the simulator's, are the ``emission_candidates`` of each
role's knowledge and a delivery of any message in flight, in the order
``enactment.in_flight`` gives (the ordered graph calls it; the knowledge-set
and timed graphs find the same deliveries on instance masks): BSPL's channels
are unordered, and every FIFO run is also such a run, so a check that holds
here holds under FIFO, the simulator's option.

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

The knowledge-set and timed graphs find their moves on one encoding. Each
instance ``emission_candidates`` returns is one bit, numbered in the order it
is first met, and the moves from a tuple of per-role masks of observed
instances are worked out once per graph: a move sets one bit; the messages in
flight are the emitted bits outside their receivers' masks, and their
deliveries, or in a reduced graph the safe one chosen, are cached on that
mask; emissions are cached on (role index, mask). A knowledge-set state is
such a tuple (composed escrow: 9 595 states in full over 12 instances). Each
bit keeps the mask of the instances it conflicts with, so an emission whose
mask meets nothing already emitted binds no parameter twice and is not
scanned. ``is_complete`` is evaluated once per emitted mask.

The timed graph also interns (instance, phase) pairs: a state is the tuple of
per-role masks of the pairs each role observed, then the phase. Each pair
mask's instance mask is derived once, and a state's moves, and whether a
lapse may follow them, are cached on the tuple of those (unrestricted
OrderingOp: 8 760 states, 43 tuples); models are cached on pair mask.
``semantics`` reads a model only through base-event names, so a commitment's
tables read only the entries its create, detach and discharge name, and the
lapse boundary only those the window anchors name. Those entries of a model
are an interned *view*: lifecycle tables are cached on (commitment, view,
phase), misalignment counts on (commitment, debtor view, creditor view,
phase), next changes on (anchor view, phase). Punctual composed escrow needs
85 tables and 34 next changes, where keys on a role's whole knowledge and the
phase need 1 181 and 217. Per timed state, only the successor states, and the
next lapse boundary where a lapse may follow, are worked out.

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
order, of an *independent forward*: a schema (a) in ``forwarding_registry``,
(b) whose ``out`` parameters no other schema has ``out``, (c) whose sender
receives none of them, and (d) each of whose non-key ``in`` parameters is
``out`` in one schema at most. It binds only its own fresh identifier, so it
disables nothing. ``emission_candidates`` gives an ``out`` parameter its one
default value, so by (b) to (d) the sender never learns a second value of a
parameter the forward reads or binds: no move disables it. No lapse passes
while it is enabled (below), so it is a stubborn set too. Punctual composed
escrow takes 1 216 states instead of 5 957, with the same 30 terminal states,
and its reduced knowledge-set graph 230 instead of 2 678. The unrestricted
Theorem 2 search, embedding and the full rebuilds are never reduced.

Safety, liveness and embedding work on knowledge-set states: a role's
enabled moves and the three verdicts depend only on what each role knows, not
on the order it learned it. Safety and liveness are terminal-state
properties: liveness holds exactly when every terminal state is complete, and
a role's emitted set only grows along a run, so a state that binds a
parameter twice is reachable exactly when such a terminal state is. So they
read the reduced knowledge-set graph first (composed escrow: 230 states
instead of 9 595), and when it is safe and live it answers with its own state
count. Otherwise the check runs again on the full graph, so every
counterexample, witness and state count, is the full graph's. A reduced build
cut at ``max_states`` is reported as it is: the full graph contains it, so it
would be cut too. Safety with liveness, alone or in Theorem 1, builds each
protocol's graph once: a safe graph ran to the end, so liveness reads it too;
an unsafe one stopped at its violation and is rebuilt in full. The backward
closure of the complete states (``live``) is computed only for embedding and
for a liveness witness, the first state outside it. Embedding reads every
prefix of a complete input run, so its graph is never reduced. An emission on
a prefix of a complete input enactment is exactly an emission edge into a
*live* state (one with a completing extension), and ``emission_violation``
reads only the sender's order-free ``RoleKnowledge``, so embedding is exact
there.

These three answer k > 1 key values from the first value's graph when every
two schemas share a key parameter: instances at different values then never
agree (``kb_agree``), no move, violation, emission rule or completeness check
links two values, and the k-value graph is the k-fold product of the one-value
graph. A safe and live one-value graph answers for all k with its own state
count; otherwise, or past ``max_states``, all k values are enumerated, so
counterexamples are the full graph's. Theorem 2 enumerates.

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
from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .commitments import CommitmentSpec, bind_commitment
from .enactment import (
    EMIT,
    RECV,
    HistoryVector,
    MessageInstance,
    Model,
    Observation,
    emission_candidates,
    emission_violation,
    in_flight,
    kb_agree,
    model_of,
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
      parameter and that graph is safe and live; otherwise all k are
      enumerated.
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


def is_complete(emitted: Sequence[MessageInstance], public_out: Sequence[str]) -> bool:
    """Every key binding initiated by the emitted instances binds every public
    ``out`` parameter."""
    initiated: set = set()
    binders: dict[str, set] = {param: set() for param in public_out}
    for inst in emitted:
        initiated.add(inst.key_binding)
        for param, _ in inst.bindings:
            if param in binders:
                binders[param].add(inst.key_binding)
    return all(
        any(kb_agree(binder, kb) for binder in binders[param]) for kb in initiated for param in public_out
    )


def _witness(moves: Sequence[tuple]) -> list[dict]:
    """Moves as trace records, ticked from 1; a lapse is ``{"tick", "lapse"}``."""
    return [
        {"tick": tick, "lapse": move[1]} if move[0] == "lapse"
        else observation_to_json(Observation(move[2], move[0], tick))
        for tick, move in enumerate(moves, start=1)
    ]


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
    what each role sends and receives and of the instances each one conflicts
    with. ``_moves`` gives the moves from one instance mask per role.
    Subclasses give the initial state (to ``build``), ``_successors``, and
    ``decode``, which gives a state's contents back; the ordered graph keeps
    plain observation tuples and finds its own moves."""

    def __init__(self, universe: Uod, bound: Bound, reduced: bool = False):
        self.universe = universe
        self.bound = bound
        self.roles = tuple(sorted(universe.roles))
        self.role_index = {r: i for i, r in enumerate(self.roles)}
        # Reduced, a state expands only a safe delivery where one is in flight,
        # else only an independent forward's emission where one is enabled (see
        # the module docstring); ``_safe`` and ``_independent`` name the schemas.
        self.reduced = reduced
        self.fwd_registry = forwarding_registry(universe)
        schemas = universe.schemas
        outs = {role: {p for s in schemas if s.sender == role for p in s.outs} for role in self.roles}
        heard = {role: {p for s in schemas if s.receiver == role for p in s.param_names} for role in self.roles}
        binders = Counter(p for s in schemas for p in s.outs)
        self._safe = {s.name for s in schemas if reduced and outs[s.receiver].isdisjoint(s.param_names)}
        self._independent = {
            s.name for s in schemas if reduced and s.name in self.fwd_registry and heard[s.sender].isdisjoint(s.outs)
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
        # Per bit, the instances that agree on key bindings and bind a shared
        # parameter to another value.
        self._conflicts: list[int] = []
        # Emission moves by (role index, mask), or candidates by (role index,
        # observed set) in the ordered graph; delivery moves, and whether they
        # are the only moves expanded, by the mask of instances in flight.
        self._emission_cache: dict[tuple[int, object], list] = {}
        self._delivery_cache: dict[int, tuple[list[tuple[int, tuple, int]], bool]] = {}
        self.cache_hits = 0

    def _explore(self, initial, stop=None, goal=None) -> int | None:
        """Enumerate from ``initial``, breadth-first; ``stop()`` is asked before
        expanding each state, and ``_found`` is told of every new state. With
        ``goal``, depth-first instead, each state's successors in their order,
        until a terminal state ``goal(state id)`` holds for: its id is
        returned, or None once every state is expanded."""
        try:
            self._add(initial, None)
            if goal is None:
                # Breadth-first, states are expanded in the order they are found.
                sid = 0
                while sid < len(self.states):
                    if stop is not None and stop():
                        return None
                    self._expand(sid)
                    sid += 1
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
                     self._cache_summary(), ", reduced to safe deliveries" if self.reduced else "",
                     ", depth-first" if goal is not None else "")

    def _expand(self, sid: int) -> None:
        """Record the out-edges of state ``sid``, adding the states they find."""
        for move, succ in self._successors(self.states[sid]):
            tid = self.index.get(succ)
            if tid is None:
                tid = self._add(succ, (sid, move))
                self._found(sid, tid, move)
            self.edges[sid].append((move, tid))

    def _renumber(self) -> None:
        """Renumber a complete graph breadth-first over its stored edges: its
        states, parents and edges become those a breadth-first build records."""
        states, edges = self.states, self.edges
        order, renumbered, parents = [0], {0: 0}, [None]
        for sid in order:
            for move, tid in edges[sid]:
                if tid not in renumbered:
                    renumbered[tid] = len(order)
                    order.append(tid)
                    parents.append((renumbered[sid], move))
        self.states = [states[sid] for sid in order]
        self.parents = parents
        self.edges = [[(move, renumbered[tid]) for move, tid in edges[sid]] for sid in order]
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
        """The bit of ``inst``, assigned with its role and conflict masks the
        first time it is met."""
        bit = self._bit.get(inst)
        if bit is None:
            bit = self._bit[inst] = len(self._instances)
            self._send[self.role_index[inst.sender]] |= 1 << bit
            self._recv[self.role_index[inst.receiver]] |= 1 << bit
            values = dict(inst.bindings)
            clash = 0
            for other_bit, other in enumerate(self._instances):
                if kb_agree(other.key_binding, inst.key_binding) and any(
                    values.get(param, value) != value for param, value in other.bindings
                ):
                    clash |= 1 << other_bit
                    self._conflicts[other_bit] |= 1 << bit
            self._instances.append(inst)
            self._conflicts.append(clash)
        return bit

    def _members(self, mask: int) -> list[MessageInstance]:
        """The instances of ``mask``, in bit order."""
        return [self._instances[bit] for bit in _bits(mask)]

    def _moves(self, masks: Sequence[int]) -> list[tuple[int, tuple, int]]:
        """The moves from one instance mask per role, each with its observer's
        index and the bit it sets: emissions per role, then a delivery of each
        instance in flight, emitted and not in its receiver's mask. Reduced,
        the first safe delivery, or else the first emission of an independent
        forward, alone where there is one."""
        emitted = received = 0
        for mask, sends, receives in zip(masks, self._send, self._recv):
            emitted |= mask & sends
            received |= mask & receives
        deliveries, alone = self._deliveries(emitted & ~received)
        if alone:
            return deliveries
        emissions = [move for ri, mask in enumerate(masks) for move in self._emissions(ri, mask)]
        forward = next((move for move in emissions if move[1][2].schema in self._independent), None)
        return [forward] if forward else emissions + deliveries

    def _emissions(self, ri: int, mask: int) -> list[tuple[int, tuple, int]]:
        """Role ``ri``'s emission moves from ``mask``, cached per graph."""
        key = (ri, mask)
        moves = self._emission_cache.get(key)
        if moves is not None:
            self.cache_hits += 1
            return moves
        role = self.roles[ri]
        moves = self._emission_cache[key] = []
        for inst in self._candidates(ri, self._members(mask)):
            bit = self._intern(inst)
            moves.append((ri, (EMIT, role, self._instances[bit]), 1 << bit))
        return moves

    def _deliveries(self, pending: int) -> tuple[list[tuple[int, tuple, int]], bool]:
        """A delivery of each instance in ``pending``, in ``in_flight``'s order:
        by sender in role order, then by schema and bindings. Reduced, the
        first safe one alone where there is one, and then ``True``: no
        emission is expanded."""
        cached = self._delivery_cache.get(pending)
        if cached is None:
            flying = sorted(self._members(pending), key=lambda i: (self.role_index[i.sender], _instance_order(i)))
            moves = [
                (self.role_index[inst.receiver], (RECV, inst.receiver, inst), 1 << self._bit[inst]) for inst in flying
            ]
            safe = [move for move in moves if move[1][2].schema in self._safe][:1]
            cached = self._delivery_cache[pending] = (safe or moves, bool(safe))
        return cached

    def _candidates(self, ri: int, seen: Iterable[MessageInstance]) -> list[MessageInstance]:
        """What role ``ri`` may emit after observing ``seen``. Knowledge is
        built in the order given: no ``RoleKnowledge`` answer depends on it,
        and ``emission_candidates`` sorts its output."""
        role = self.roles[ri]
        return emission_candidates(_knowledge_from(seen, role), self.universe, role, self.bound.key_values)

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
    """Reachable per-role knowledge sets under emission and delivery moves.

    A state is a tuple of instance masks, one per role, and a move sets one
    bit of its observer's mask. With ``reduced``, a state expands only a safe
    delivery, or else an independent forward's emission, where there is one."""

    def __init__(self, universe: Uod, bound: Bound, public_out: Sequence[str], reduced: bool = False):
        super().__init__(universe, bound, reduced)
        self.public_out = tuple(public_out)
        self.safety_violation: tuple[int, str] | None = None
        self.detail = ""
        # ``is_complete`` by the mask of emitted instances.
        self._complete: dict[int, bool] = {}

    def build(self, stop_on_safety: bool = False) -> None:
        stop = (lambda: self.safety_violation is not None) if stop_on_safety else None
        self._explore((0,) * len(self.roles), stop)

    def decode(self, state: tuple[int, ...]) -> tuple[frozenset, ...]:
        """Each role's knowledge set in ``state``."""
        return tuple(frozenset(self._members(mask)) for mask in state)

    def emitted(self, state: tuple[int, ...]) -> list[MessageInstance]:
        return self._members(self._emitted_mask(state))

    def _emitted_mask(self, state: tuple[int, ...]) -> int:
        emitted = 0
        for mask, sends in zip(state, self._send):
            emitted |= mask & sends
        return emitted

    def _successors(self, state: tuple[int, ...]) -> list[tuple[tuple, tuple[int, ...]]]:
        return [(move, state[:ri] + (state[ri] | bit,) + state[ri + 1:]) for ri, move, bit in self._moves(state)]

    def _found(self, parent_id: int, state_id: int, move: tuple) -> None:
        """Record the first emission that binds a parameter of its enactment a
        second time. The parent's emitted instances are scanned for the detail
        only when the emission's conflict mask meets them."""
        if move[0] != EMIT or self.safety_violation is not None:
            return
        parent, new = self.states[parent_id], move[2]
        if not self._emitted_mask(parent) & self._conflicts[self._bit[new]]:
            return
        new_bindings = dict(new.bindings)
        for inst in sorted(self.emitted(parent), key=_instance_order):
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

    def _is_complete(self, state: tuple[int, ...]) -> bool:
        emitted = self._emitted_mask(state)
        verdict = self._complete.get(emitted)
        if verdict is None:
            verdict = self._complete[emitted] = is_complete(self._members(emitted), self.public_out)
        return verdict

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


def _knowledge_graph(
    universe: Uod, p: Protocol, bound: Bound, stop_on_safety: bool, reduce: bool = True
) -> KnowledgeGraph:
    """The graph the checks read at ``bound``. With ``reduce``, the reduced
    graph when it is safe and live, and otherwise the full one, so that a
    counterexample is the full graph's. At k > 1 key values, the graph at the
    first value alone when it answers for all k (see the module docstring)."""
    k = len(bound.key_values)
    if k > 1 and all(set(a.keys) & set(b.keys) for a, b in combinations(universe.schemas, 2)):
        try:
            one = _knowledge_graph(universe, p, replace(bound, key_values=bound.key_values[:1]), stop_on_safety, reduce)
        except BoundExceeded:
            one = None
        if one is not None and one.safety_violation is None and one.live_everywhere:
            one.detail = f"{k} key values answered from one"
            log.info("%s: %s", p.name, one.detail)
            return one
        # A value that is unsafe or not live is so in the product too.
        reduce = reduce and one is None
    if reduce:
        # The full graph contains this one, so a BoundExceeded here stands.
        graph = KnowledgeGraph(universe, bound, p.out_params, reduced=True)
        graph.build(stop_on_safety=True)
        if graph.safety_violation is None and graph.live_everywhere:
            return graph
    graph = KnowledgeGraph(universe, bound, p.out_params)
    graph.build(stop_on_safety)
    return graph


def _safety_report(graph: KnowledgeGraph) -> VerificationReport:
    if graph.safety_violation is not None:
        state_id, detail = graph.safety_violation
        witness = {"reach": graph.path_to(state_id), "violation": detail}
        return VerificationReport(SAFETY, False, witness, len(graph.states), detail)
    return VerificationReport(SAFETY, True, None, len(graph.states), graph.detail)


def _liveness_report(graph: KnowledgeGraph) -> VerificationReport:
    if graph.live_everywhere:
        return VerificationReport(LIVENESS, True, None, len(graph.states), graph.detail)
    stuck = next(sid for sid in range(len(graph.states)) if sid not in graph.live)
    witness = {"reach": graph.path_to(stuck)}
    return VerificationReport(LIVENESS, False, witness, len(graph.states), "state with no completing extension")


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


def check_safety_and_liveness(
    p: Protocol, bound: Bound = Bound(), registry: Mapping[str, Protocol] | None = None
) -> tuple[VerificationReport, VerificationReport]:
    """``check_safety`` and ``check_liveness`` from one build where it can: a
    safe protocol's graph, reduced or not, ran to the end, so it is the graph
    liveness needs; an unsafe one stopped early and is rebuilt in full."""
    universe = uod(p, registry)
    graph = _knowledge_graph(universe, p, bound, stop_on_safety=True)
    safety = _safety_report(graph)
    if not safety.holds:
        graph = _knowledge_graph(universe, p, bound, stop_on_safety=False, reduce=False)
    return safety, _liveness_report(graph)


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
    ticks assigned by global arrival order on reconstruction. It keeps this
    plain encoding and delivers what ``in_flight`` gives. No check reads it:
    it is the exact reference the knowledge-set graph is tested against."""

    def build(self) -> None:
        self._explore(((),) * len(self.roles))

    def decode(self, state: tuple[tuple[MessageInstance, ...], ...]) -> tuple[tuple[MessageInstance, ...], ...]:
        return state

    def emitted(self, state: tuple[tuple[MessageInstance, ...], ...]) -> list[MessageInstance]:
        return [inst for role, seen in zip(self.roles, state) for inst in seen if inst.sender == role]

    def _successors(self, state):
        """Emission candidates per role, cached on (role index, observed set),
        then a delivery of each ``in_flight`` instance."""
        moves = []
        for ri, seen in enumerate(state):
            key = (ri, frozenset(seen))
            candidates = self._emission_cache.get(key)
            if candidates is None:
                candidates = self._emission_cache[key] = self._candidates(ri, seen)
            else:
                self.cache_hits += 1
            moves += [(ri, (EMIT, self.roles[ri], inst)) for inst in candidates]
        for inst in in_flight(self.roles, state):
            moves.append((self.role_index[inst.receiver], (RECV, inst.receiver, inst)))
        return [(move, state[:ri] + (state[ri] + (move[2],),) + state[ri + 1:]) for ri, move in moves]

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
    graph = _knowledge_graph(uod(input_protocol, registry), input_protocol, bound, stop_on_safety=False, reduce=False)
    composed_universe = uod(composed, registry)

    def report(witness, detail: str) -> VerificationReport:
        detail = ", ".join(filter(None, (detail, graph.detail)))
        return VerificationReport(EMBEDDING, witness is None, witness, len(graph.states), detail)

    checked = 0
    for sid, out_edges in enumerate(graph.edges):
        for move, tid in out_edges:
            if move[0] != EMIT or tid not in graph.live:
                continue
            checked += 1
            _, role, inst = move
            knowledge = _knowledge_from(graph.decode(graph.states[sid])[graph.role_index[role]], role)
            trail = graph._trail(sid, graph.parents)
            bad = emission_violation(knowledge, composed_universe.schema(inst.schema), inst, len(trail) + 1)
            if bad is not None:
                witness = {"trace": _witness(trail + [move]), "violation": str(bad)}
                return report(witness, "input enactment not viable inside the composition")
    return report(None, f"{checked} emissions toward complete enactments replayed")


# ---------------------------------------------------------------------------
# Timed enumeration (alignment reachability)


class AlignmentGraph(StateSpace):
    """Reachable phase-annotated knowledge states of a composed protocol, with
    deadline-lapse moves; punctually, only a safe delivery, or else an
    independent forward's emission, where there is one.

    A state is a tuple of per-role masks over interned (instance, phase)
    pairs, bit ``p`` standing for ``_pairs[p]``, then the phase. Moves are
    found on the instance masks the pair masks give (``_observed``)."""

    def __init__(
        self,
        universe: Uod,
        commitments: Sequence[CommitmentSpec],
        bound: Bound,
        punctual: bool,
    ):
        super().__init__(universe, bound, reduced=punctual)
        self.commitments = tuple(commitments)
        self.punctual = punctual
        self.anchors = window_anchors(commitments)
        # A commitment's tables read only the entries its base events name, and
        # the lapse boundary only those the anchors name (see ``semantics``).
        # Models are cached by pair mask, and the entries of one with given
        # names are an interned view: tables, misalignment counts and next
        # changes are cached on views, so knowledges that differ only in what a
        # commitment does not read share its tables.
        self._reads = {c.name: base_event_names((c.create, c.detach, c.discharge)) for c in self.commitments}
        self._anchor_reads = base_event_names(anchor for anchor, _ in self.anchors if anchor is not None)
        self._model_cache: dict[int, Model] = {}
        self._view_of: dict[tuple[frozenset, int], int] = {}
        self._view_ids: dict[tuple, int] = {}
        self._views: list[Model] = []
        self._table_cache: dict[tuple, dict] = {}
        self._change_cache: dict[tuple[int, int], int | float] = {}
        self._count_cache: dict[tuple, int] = {}
        # The pairs; the mask of each by (instance mask, phase); the instance
        # mask of each pair mask; the moves, and whether a lapse may follow
        # them, by the tuple of instance masks.
        self._pairs: list[tuple[MessageInstance, int]] = []
        self._pair_bit: dict[tuple[int, int], int] = {}
        self._observed_cache: dict[int, int] = {}
        self._moves_cache: dict[tuple[int, ...], tuple[list[tuple[int, tuple, int]], bool]] = {}
        self.moves_hits = 0
        self.misaligned_end: int | None = None

    def build(self, probe: bool = False) -> None:
        """Enumerate breadth-first. With ``probe``, search depth-first instead
        and stop at the first terminal state misaligned for some commitment,
        kept in ``misaligned_end``. A probe that finds none has expanded every
        state, and is renumbered as a breadth-first build would number it."""
        root = (0,) * (len(self.roles) + 1)
        if not probe:
            self._explore(root)
            return
        self.misaligned_end = self._explore(root, goal=lambda sid: any(self.alignment(self.states[sid])))
        if self.misaligned_end is None:
            self._renumber()

    def _pair(self, bit: int, phase: int) -> int:
        """The one-bit mask of the pair of ``bit``'s instance and ``phase``,
        interned the first time it is met."""
        key = (bit, phase)
        pair = self._pair_bit.get(key)
        if pair is None:
            pair = self._pair_bit[key] = 1 << len(self._pairs)
            self._pairs.append((self._instances[bit.bit_length() - 1], phase))
        return pair

    def _observed(self, pairs: int) -> int:
        """The mask of the instances in pair mask ``pairs``."""
        observed = self._observed_cache.get(pairs)
        if observed is None:
            observed = 0
            for p in _bits(pairs):
                observed |= 1 << self._bit[self._pairs[p][0]]
            self._observed_cache[pairs] = observed
        return observed

    def decode(self, state):
        """Each role's (instance, phase) set in ``state``, and its phase."""
        return tuple(frozenset(self._pairs[p] for p in _bits(pairs)) for pairs in state[:-1]), state[-1]

    def _successors(self, state):
        now_phase = state[-1]
        observed = tuple(map(self._observed, state[:-1]))
        cached = self._moves_cache.get(observed)
        if cached is None:
            moves = self._moves(observed)
            # Punctually, no deadline passes while a message is in flight or a
            # forward can be emitted.
            blocked = any(kind == RECV or inst.schema in self.fwd_registry for _, (kind, _, inst), _ in moves)
            cached = self._moves_cache[observed] = (moves, not (self.punctual and blocked))
        else:
            self.moves_hits += 1
        moves, lapse_allowed = cached
        out = [
            (move, state[:ri] + (state[ri] | self._pair(bit, now_phase),) + state[ri + 1:]) for ri, move, bit in moves
        ]
        lapse_value = self._next_boundary(state[:-1], now_phase) if lapse_allowed else INF
        if lapse_value < INF:
            out.append((("lapse", lapse_value), state[:-1] + (lapse_value,)))
        return out

    def _cache_summary(self) -> str:
        return f"{super()._cache_summary()}, {len(self._moves_cache)} moves-cache entries, {self.moves_hits} hits"

    def _model(self, pairs: int) -> Model:
        model = self._model_cache.get(pairs)
        if model is None:
            model = self._model_cache[pairs] = model_of((self._pairs[p] for p in _bits(pairs)), self.fwd_registry)
        return model

    def _view(self, names: frozenset, pairs: int) -> int:
        """The id of the entries of pair mask ``pairs``'s model named in
        ``names``."""
        key = (names, pairs)
        view = self._view_of.get(key)
        if view is None:
            entries = tuple(entry for entry in self._model(pairs).entries if entry.name in names)
            view = self._view_ids.get(entries)
            if view is None:
                view = self._view_ids[entries] = len(self._views)
                self._views.append(Model(entries))
            self._view_of[key] = view
        return view

    def _next_boundary(self, masks: tuple[int, ...], now_phase: int) -> int | float:
        """The phase the next lapse jumps to: the first at which some role's
        lifecycle tables can change, or INF when none can."""
        first = INF
        for pairs in masks:
            key = (self._view(self._anchor_reads, pairs), now_phase)
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
        counts = []
        for c in self.commitments:
            names = self._reads[c.name]
            debtor = self._view(names, state[self.role_index[c.debtor]])
            creditor = self._view(names, state[self.role_index[c.creditor]])
            key = (c.name, debtor, creditor, state[-1])
            if key not in self._count_cache:
                self._count_cache[key] = len(check_alignment_models(
                    c, self._table(c, debtor, state[-1]), self._table(c, creditor, state[-1])
                ).misalignments)
            counts.append(self._count_cache[key])
        return counts

    def forward_path(self, start: int, goal: set[int]) -> list[dict] | None:
        parents: dict[int, tuple[int, tuple] | None] = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for move, succ in self.edges[node]:
                if succ not in parents:
                    parents[succ] = (node, move)
                    if succ in goal:
                        return _witness(self._trail(succ, parents))
                    queue.append(succ)
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
    its aligning extension; on failure, the path to a misaligned terminal
    state. Unrestricted, deadlines may outrun deliveries and the check is
    expected to fail, so the graph is probed depth-first for such a state;
    punctually it is expected to hold, and a probe would add a second pass."""
    universe = uod(composed, registry)
    for c in commitments:
        bind_commitment(c, universe)
    graph = AlignmentGraph(universe, commitments, bound, punctual)
    graph.build(probe=not punctual)
    mode = "punctual" if punctual else "unrestricted"
    stuck = graph.misaligned_end
    if stuck is None:
        # The graph is complete. Every maximal run ends in a terminal state, so
        # a state with no aligning extension exists exactly when a terminal one
        # is misaligned.
        counts = [graph.alignment(state) for state in graph.states]
        stuck = next((sid for sid, row in enumerate(counts) if any(row) and not graph.edges[sid]), None)
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
