"""One run of one workload, in the process whose peak RSS is reported.

``run.py`` starts this file; see ``README.md`` for the metrics. Untraced
(``--trace 0``) it sets up the workload's inputs several times, then runs
passes over the workload's operations until ``--seconds`` is used up, and
reports the end-to-end metrics. Traced (``--trace 1``) it runs one untraced
pass, then one traced set-up and pass, and reports the per-layer metrics.

The last line of standard output is the JSON result. Every run also writes
its per-operation records, and spans when traced, to ``out/`` beside this
file.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from comal.errors import BoundExceeded

import workloads
from speed import SpeedSampler
from tracer import GraphProbe, Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

SETUP_SAMPLES = 15
SETUP_BATCH = 10
# Start no pass expected to end after this many seconds of the run, so that
# a run ends well inside the 180 s a run may take.
DEADLINE_S = 150.0

CLOCK_START = perf_counter()


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index``; string seeding does not depend on the
    interpreter's hash seed."""
    return random.Random(f"{seed}:{index}").randrange(2 ** 31)


def _sim_counts(result) -> dict:
    ticks = max(row.tick for row in result.reports)
    by_tick: dict[int, list] = {}
    for row in result.reports:
        by_tick.setdefault(row.tick, []).append((row.commitment, row.lifecycle, row.alignment))
    unchanged = sum(1 for t in range(2, ticks + 1) if by_tick.get(t) == by_tick.get(t - 1))
    return {"ticks": ticks, "observations": len(result.vector.observations()), "unchanged_ticks": unchanged}


def run_op(op: workloads.Op, probe: GraphProbe, sampler: SpeedSampler, tracer: Tracer | None) -> dict:
    gc.collect()
    call = op.call
    if tracer is not None:
        tracer.op = op.name
        call = tracer.wrap(op.call, "op", "span")
    result, outcome, start = None, None, perf_counter()
    try:
        result = call()
    except BoundExceeded as exc:
        outcome = ("undecided", None, [])
        partial = exc.partial
    except Exception as exc:  # an unexpected exception is a failed operation
        outcome = ("exception", None, [f"{type(exc).__name__}: {exc}"])
    end = perf_counter()
    record = {"name": op.name, "seconds": sampler.corrected(start, end), "raw_seconds": end - start,
              "builds": probe.take()}
    if outcome is None:
        try:
            outcome = op.judge(result)
        except Exception as exc:
            outcome = ("exception", None, [f"judging raised {type(exc).__name__}: {exc}"])
        if hasattr(result, "reports"):
            record.update(_sim_counts(result))
    verdict, witness, errors = outcome
    record.update(
        verdict=verdict,
        states=sum(b["states"] for b in record["builds"]),
        witness_sha256=None if witness is None else workloads.witness_hash(witness),
        errors=errors,
    )
    if verdict == "undecided":
        record["partial_states"] = len(partial.states)
    return record


def run_pass(workload: workloads.Workload, inputs: dict, seed: int, index: int,
             probe: GraphProbe, sampler: SpeedSampler, tracer: Tracer | None = None) -> list[dict]:
    """Every operation of the workload once, in an order drawn from the seed."""
    ops = workload.ops(inputs, pass_seed(seed, index))
    random.Random(pass_seed(seed, index)).shuffle(ops)
    return [run_op(op, probe, sampler, tracer) for op in ops]


def pass_wall(records: list[dict], key: str = "seconds") -> float:
    return sum(r[key] for r in records)


# ---------------------------------------------------------------------------
# Checks on the records


STRUCTURE = ("verdict", "builds", "witness_sha256")


def _structure(record: dict) -> dict:
    builds = [{k: b[k] for k in ("graph", "states", "edges", "max_depth")} for b in record["builds"]]
    return {"verdict": record["verdict"], "builds": builds, "witness_sha256": record["witness_sha256"]}


def mark_nondeterminism(passes: list[list[dict]]) -> None:
    """Fail operations whose output differs from their first pass in the same
    run. Seeded operations draw new policy seeds each pass and are skipped."""
    first: dict[str, dict] = {}
    for records in passes:
        for r in records:
            if r["name"] in workloads.SEEDED:
                continue
            if first.setdefault(r["name"], _structure(r)) != _structure(r):
                r["errors"].append("output differs from the first pass of this run")


def semantic_changes(workload: str, records: list[dict]) -> list[str]:
    """Differences from the baseline commit's counts and witness hashes. They are
    reported, not counted as failures: a state-space reduction may change
    counts legitimately, and must argue it."""
    if not GOLDEN.exists():
        return ["no golden.json to compare with"]
    golden = json.loads(GOLDEN.read_text()).get(workload, {})
    changes = []
    for r in records:
        expected = golden.get(r["name"])
        if expected is None:
            continue
        got = _structure(r)
        for key in STRUCTURE:
            if got[key] != expected[key]:
                changes.append(f"{r['name']}: {key} {got[key]} differs from the seed's {expected[key]}")
    return changes


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(setup_times: list[float], passes: list[list[dict]]) -> dict:
    records = [r for p in passes for r in p]
    decided = sum(1 for r in records if r["verdict"] != "undecided")
    return {
        "wall_s": (statistics.median(pass_wall(p) for p in passes), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "decided_ratio": (decided / len(records), "ratio"),
    }


def per_layer(tracer: Tracer, traced: list[dict], untraced_wall: float) -> dict:
    builds = [b for r in traced for b in r["builds"]]
    sims = [r for r in traced if "ticks" in r]
    ticks = sum(r["ticks"] for r in sims)
    observations = sum(r["observations"] for r in sims)
    t = tracer
    metrics = {
        "protocol.parse_s": (t.inclusive_s("protocol.parse"), "s"),
        "commitments.parse_s": (t.inclusive_s("commitments.parse"), "s"),
        "synthesis.synthesize_s": (t.inclusive_s("synthesis.synthesize"), "s"),
        "synthesis.compose_s": (t.inclusive_s("synthesis.compose"), "s"),
        "protocol.uod.calls": (t.calls("protocol.uod"), "count"),
        "protocol.uod_s": (t.inclusive_s("protocol.uod"), "s"),
        "enactment.emission_candidates.distinct_ratio": (
            t.candidates_distinct_ratio(), "ratio"),
        "verify.builds": (len(builds), "count"),
        "verify.build_s": (t.self_s("verify.build"), "s"),
        "verify.states": (sum(b["states"] for b in builds), "count"),
        "verify.edges": (sum(b["edges"] for b in builds), "count"),
        "verify.max_depth": (max((b["max_depth"] for b in builds), default=0), "count"),
        "verify.bound_headroom": (max((b["headroom"] for b in builds), default=0.0), "ratio"),
        "verify.closure_s": (t.inclusive_s("verify.closure"), "s"),
        "verify.witness_s": (t.inclusive_s("verify.witness"), "s"),
        "verify.alignment.calls": (t.calls("verify.alignment"), "count"),
        "semantics.eval.calls": (t.calls("semantics.eval"), "count"),
        "simulate.ticks": (ticks, "count"),
        "simulate.observations": (observations, "count"),
        "simulate.idle_ratio": ((ticks - observations) / ticks if ticks else 0.0, "ratio"),
        "simulate.report_unchanged_ratio": (
            sum(r["unchanged_ticks"] for r in sims) / ticks if ticks else 0.0, "ratio"),
        "trace.wall_s": (pass_wall(traced), "s"),
        "trace.overhead_s": (pass_wall(traced) - untraced_wall, "s"),
    }
    for name in (
        "enactment.emission_candidates",
        "verify.knowledge_from",
        "verify.model",
        "semantics.check_alignment_models",
        "semantics.evaluate",
        "semantics.lifecycle_table",
        "enactment.project_model",
        "simulate.enabled_emissions",
    ):
        metrics[f"{name}.calls"] = (t.calls(name), "count")
        metrics[f"{name}.self_s"] = (t.self_s(name), "s")
    return dict(sorted(metrics.items()))


# ---------------------------------------------------------------------------


def timed_setup(workload: workloads.Workload, sampler: SpeedSampler) -> tuple[dict, list[float]]:
    """Set-up times, each the mean of a batch of set-ups: one set-up takes a
    few milliseconds, too short for the contention correction on its own."""
    times, inputs = [], None
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        start = perf_counter()
        for _ in range(SETUP_BATCH):
            inputs = workload.setup()
        times.append(sampler.corrected(start, perf_counter()) / SETUP_BATCH)
    return inputs, times


def measure(workload: workloads.Workload, seed: int, seconds: float, probe: GraphProbe,
            sampler: SpeedSampler) -> dict:
    inputs, setup_times = timed_setup(workload, sampler)
    passes: list[list[dict]] = []
    while True:
        passes.append(run_pass(workload, inputs, seed, len(passes), probe, sampler))
        expected_end = perf_counter() - CLOCK_START + statistics.median(
            pass_wall(p, "raw_seconds") for p in passes)
        if expected_end > min(seconds, DEADLINE_S):
            break
    return {"setup_times": setup_times, "passes": passes,
            "metrics": end_to_end(setup_times, passes)}


def measure_traced(workload: workloads.Workload, seed: int, probe: GraphProbe,
                   sampler: SpeedSampler) -> dict:
    inputs = workload.setup()
    untraced = run_pass(workload, inputs, seed, 0, probe, sampler)
    tracer = Tracer()
    tracer.install()
    try:
        traced_inputs = tracer.call("setup", workload.setup)
        traced = run_pass(workload, traced_inputs, seed, 0, probe, sampler, tracer)
    finally:
        tracer.uninstall()
    return {"passes": [untraced, traced], "trace": tracer.dump(),
            "metrics": per_layer(tracer, traced, pass_wall(untraced))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    probe = GraphProbe()
    probe.install()
    try:
        with SpeedSampler() as sampler:
            if args.trace:
                run = measure_traced(workload, args.seed, probe, sampler)
            else:
                run = measure(workload, args.seed, args.seconds, probe, sampler)
    finally:
        probe.uninstall()

    passes = run["passes"]
    records = [r for p in passes for r in p]
    mark_nondeterminism(passes)
    failed = sum(1 for r in records if r["errors"])
    changes = semantic_changes(args.workload, passes[0])
    run.update(workload=args.workload, seed=args.seed, trace=args.trace, semantic_changes=changes)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(run, indent=1, sort_keys=True, default=str))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {len(records)} operations")
    for r in passes[-1]:
        verdict = r["verdict"] if isinstance(r["verdict"], str) else json.dumps(r["verdict"])
        print(f"  {r['name']}: {verdict}, {r['states']} states, {r['seconds']:.3f} s")
    for r in records:
        for error in r["errors"]:
            print(f"  ERROR {r['name']}: {error}")
    for change in changes:
        print(f"  semantic change: {change}")
    print(f"contention: median calibration sample {sampler.slowdown():.2f} x reference; "
          f"uncorrected pass wall times {[round(pass_wall(p, 'raw_seconds'), 3) for p in passes]} s")
    for name, (value, unit) in run["metrics"].items():
        print(f"{name} {value} {unit}")
    print(f"error_ratio {failed / len(records)} ratio ({failed} of {len(records)} operations failed)")
    print(f"records: {out_file.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
