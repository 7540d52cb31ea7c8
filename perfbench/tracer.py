"""Spans and counters recorded around the public functions of each comal layer.

Nothing here edits ``comal``: a :class:`Tracer` rebinds module and class
attributes (``comal.verify.emission_candidates``, ``AlignmentGraph._model``,
...) to wrappers for the duration of a traced pass and restores them after.

Three kinds of wrapper:

* ``span`` records one span per call: name, start, end, parent span and the
  operation (check or scenario) it belongs to.
* ``agg`` is for hot functions called hundreds of thousands of times per pass.
  Each call is still timed, with its children's coverage subtracted, but the
  calls are folded into one record per (name, parent span) instead of being
  kept one by one.
* ``count`` only counts calls; ``semantics._eval`` is recursive and cheap, so
  timing it would distort the self time of everything above it.

Self time is a call's duration minus the time its traced children cover.
The wrapper's own bookkeeping is added to the parent's child coverage, so it
shows up in the traced pass's wall time (the tracing overhead) and not in any
layer's self time.

:class:`GraphProbe` is the one hook that also runs untraced: it wraps the
three ``build`` methods of ``comal.verify`` to read each graph's size, edge
count and depth, including the partial graph carried by ``BoundExceeded``.
"""

from __future__ import annotations

from time import perf_counter

import comal.commitments
import comal.enactment
import comal.protocol
import comal.semantics
import comal.simulate
import comal.synthesis
import comal.verify
from comal.verify import AlignmentGraph, EnactmentGraph, KnowledgeGraph

GRAPH_CLASSES = (KnowledgeGraph, EnactmentGraph, AlignmentGraph)


def graph_stats(graph, max_states: int) -> dict:
    """Structural counts of a (possibly partial) verification graph. States
    are added in breadth-first order, so the last one is at maximal depth."""
    depth = 0
    current = len(graph.parents) - 1
    while current > 0 and graph.parents[current] is not None:
        current = graph.parents[current][0]
        depth += 1
    return {
        "graph": type(graph).__name__,
        "states": len(graph.states),
        "edges": sum(len(out) for out in graph.edges),
        "max_depth": depth,
        "headroom": len(graph.states) / max_states,
    }


class GraphProbe:
    """Collects :func:`graph_stats` for every graph built while installed."""

    def __init__(self):
        self.builds: list[dict] = []
        self._saved: list[tuple[type, object]] = []

    def install(self) -> None:
        for cls in GRAPH_CLASSES:
            original = cls.__dict__["build"]
            self._saved.append((cls, original))
            cls.build = self._wrap(original)

    def uninstall(self) -> None:
        for cls, original in reversed(self._saved):
            cls.build = original
        self._saved.clear()

    def take(self) -> list[dict]:
        builds = list(self.builds)
        self.builds.clear()
        return builds

    def _wrap(self, build):
        builds = self.builds

        def probed_build(graph, *args, **kwargs):
            try:
                return build(graph, *args, **kwargs)
            finally:
                builds.append(graph_stats(graph, graph.bound.max_states))

        return probed_build


# (owner, attribute, span name, kind). Functions imported by name into another
# module are rebound in every module that calls them, so that calls from
# ``verify`` and from ``simulate`` are both seen.
TARGETS = (
    (comal.protocol, "parse_protocol", "protocol.parse", "span"),
    (comal.protocol, "parse_protocols", "protocol.parse", "span"),
    (comal.simulate, "parse_protocols", "protocol.parse", "span"),
    (comal.protocol, "uod", "protocol.uod", "span"),
    (comal.verify, "uod", "protocol.uod", "span"),
    (comal.simulate, "uod", "protocol.uod", "span"),
    (comal.commitments, "parse_commitments", "commitments.parse", "span"),
    (comal.simulate, "parse_commitments", "commitments.parse", "span"),
    (comal.synthesis, "synthesize_alignment_protocol", "synthesis.synthesize", "span"),
    (comal.synthesis, "compose_operationalization", "synthesis.compose", "span"),
    (comal.verify, "emission_candidates", "enactment.emission_candidates", "agg"),
    (comal.enactment, "emission_candidates", "enactment.emission_candidates", "agg"),
    (comal.verify, "_knowledge_from", "verify.knowledge_from", "agg"),
    (KnowledgeGraph, "build", "verify.build", "span"),
    (EnactmentGraph, "build", "verify.build", "span"),
    (AlignmentGraph, "build", "verify.build", "span"),
    (KnowledgeGraph, "backward_closure", "verify.closure", "span"),
    (AlignmentGraph, "backward_closure", "verify.closure", "span"),
    (KnowledgeGraph, "path_to", "verify.witness", "span"),
    (AlignmentGraph, "path_to", "verify.witness", "span"),
    (AlignmentGraph, "forward_path", "verify.witness", "span"),
    (AlignmentGraph, "_model", "verify.model", "agg"),
    (AlignmentGraph, "alignment", "verify.alignment", "agg"),
    (comal.verify, "check_alignment_models", "semantics.check_alignment_models", "agg"),
    (comal.simulate, "check_alignment_models", "semantics.check_alignment_models", "agg"),
    (comal.verify, "evaluate", "semantics.evaluate", "agg"),
    (comal.simulate, "lifecycle_table", "semantics.lifecycle_table", "agg"),
    (comal.semantics, "_eval", "semantics.eval", "count"),
    (comal.simulate, "project_model", "enactment.project_model", "agg"),
    (comal.simulate, "enabled_emissions", "simulate.enabled_emissions", "agg"),
)

# Calls of this name also record their distinct (role, knowledge set) arguments.
CANDIDATES = "enactment.emission_candidates"


class Tracer:
    """In-memory spans and per-name totals for one traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int], list] = {}
        # name -> [calls, self_s, inclusive_s, active depth]
        self.totals: dict[str, list] = {}
        self.candidate_args: set = set()
        self.op = None
        # Each frame is [child coverage, id of the nearest recorded span].
        self._stack: list[list] = [[0.0, None]]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, kind in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, kind))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- recording -----------------------------------------------------------

    def _total(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, fn, name: str, kind: str):
        total = self._total(name)
        if kind == "count":
            def counted(*args, **kwargs):
                total[0] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        record = kind == "span"
        candidates = name == CANDIDATES

        def traced(*args, **kwargs):
            t0 = perf_counter()
            parent = stack[-1]
            span_id = len(self.spans) if record else parent[1]
            if record:
                self.spans.append(None)  # reserve the id; filled in below
            frame = [0.0, span_id]
            stack.append(frame)
            total[3] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                total[3] -= 1
                duration = end - start
                total[0] += 1
                total[1] += duration - frame[0]
                if total[3] == 0:
                    total[2] += duration
                if record:
                    self.spans[span_id] = {
                        "id": span_id,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent[1],
                        "op": self.op,
                        "self_s": duration - frame[0],
                    }
                else:
                    agg = self.aggregates.setdefault((name, parent[1]), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[0]
                if candidates:
                    knowledge, role = args[0], args[2]
                    self.candidate_args.add((span_id, role, frozenset(knowledge.instances)))
                parent[0] += perf_counter() - t0

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn`` inside a recorded span of the benchmark's own code."""
        return self.wrap(fn, name, "span")(*args)

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0])[1]

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def candidates_distinct_ratio(self) -> float:
        """Distinct (graph, role, knowledge set) arguments of
        ``emission_candidates`` over its calls."""
        calls = self.calls(CANDIDATES)
        return len(self.candidate_args) / calls if calls else 0.0

    def dump(self) -> dict:
        origin = min((s["start"] for s in self.spans if s), default=0.0)
        spans = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
            if s is not None
        ]
        aggregates = [
            {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": own}
            for (name, parent), (calls, total, own) in sorted(
                self.aggregates.items(), key=lambda item: (item[0][1] is None, item[0][1] or 0, item[0][0])
            )
        ]
        totals = {
            name: {"calls": calls, "self_s": own, "inclusive_s": incl}
            for name, (calls, own, incl, _) in sorted(self.totals.items())
        }
        return {"spans": spans, "aggregates": aggregates, "totals": totals}
