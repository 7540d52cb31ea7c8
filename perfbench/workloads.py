"""The benchmark's workloads: their inputs, their operations, and the answers
each operation must give.

Expected verdicts come from the paper and the acceptance criteria, never from
running the code under test. The one exception is unrestricted Theorem 2 on
``OrderingOp``, which no external source decides; its expected verdict
(fails) is the answer the baseline commit gave, recorded as a golden.

Every counterexample or witness path is replayed through
``comal.enactment.check_viable``, which is independent of the explorers in
``comal.verify``, and so is every simulated trace.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from comal import commitments, protocol, simulate, synthesis
from comal.enactment import EMIT, HistoryVector, check_viable, observation_from_json, trace_lines
from comal.verify import (
    Bound,
    check_alignment_reachability,
    check_embedding,
    check_liveness,
    check_safety,
    check_theorem1,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

DEFAULT = Bound()
TWO_KEYS = Bound(key_values=("1", "2"))
# Caps that make a check end undecided at the baseline commit: the first is what
# ``comal verify --theorem2`` uses for its unrestricted run, the second keeps
# two-key composed-escrow safety, whose state count squares the one-key
# 9 595, to seconds.
UNRESTRICTED_CAP = Bound(max_states=50_000)
TWO_KEY_CAP = Bound(key_values=("1", "2"), max_states=30_000)

LONG_HORIZON = 800
SMOKE_HORIZON = 40


@dataclass(frozen=True)
class Op:
    """One operation of a pass. ``call`` is the timed call into comal;
    ``judge`` turns its result into (verdict, witness, errors) untimed.
    A ``BoundExceeded`` from ``call`` makes the operation undecided."""

    name: str
    call: Callable[[], object]
    judge: Callable[[object], tuple[object, object, list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], dict]
    ops: Callable[[dict, int], list[Op]]


# ---------------------------------------------------------------------------
# Independent checks


def witness_hash(witness) -> str:
    return hashlib.sha256(json.dumps(witness, sort_keys=True).encode()).hexdigest()


def replay(moves, universe) -> HistoryVector:
    """The history vector a witness path describes; lapse moves carry no
    observation."""
    vector = HistoryVector.empty(universe.roles)
    tick = 0
    for move in moves:
        if "lapse" in move:
            continue
        tick += 1
        obs = observation_from_json({**move, "tick": tick}, universe)
        if obs.role != move["role"]:
            raise ValueError(f"move {move} names role {move['role']!r}, observation is {obs.role!r}")
        vector = vector.extend(obs)
    return vector


def _viable(moves, universe, what: str) -> list[str]:
    try:
        violation = check_viable(replay(moves, universe), universe)
    except Exception as exc:  # a witness that cannot be replayed at all
        return [f"{what}: replay raised {type(exc).__name__}: {exc}"]
    return [] if violation is None else [f"{what} not viable: {violation}"]


def _unbound_outs(moves, universe, public_out) -> bool:
    """Whether some initiated enactment still lacks a public ``out`` binding."""
    vector = replay(moves, universe)
    emitted = [o.instance for o in vector.observations() if o.direction == EMIT]
    for kb in {i.key_binding for i in emitted}:
        bound = {p for i in emitted if i.key_binding == kb for p, _ in i.bindings}
        if set(public_out) - bound:
            return True
    return False


def _verdict(report) -> str:
    return "holds" if report.holds else "fails"


def judge_safety(expect_holds: bool, universe):
    def judge(report):
        errors = []
        if report.holds != expect_holds:
            errors.append(f"safety {_verdict(report)}, expected {'holds' if expect_holds else 'fails'}")
        if not report.holds:
            reach = report.witness["reach"]
            errors += _viable(reach[:-1], universe, "safety counterexample prefix")
            violation = check_viable(replay(reach, universe), universe)
            if violation is None or violation.rule != "c":
                errors.append(f"safety counterexample does not break key integrity: {violation}")
        return _verdict(report), report.witness, errors

    return judge


def judge_liveness(expect_holds: bool, universe, public_out):
    def judge(report):
        errors = []
        if report.holds != expect_holds:
            errors.append(f"liveness {_verdict(report)}, expected {'holds' if expect_holds else 'fails'}")
        if not report.holds:
            reach = report.witness["reach"]
            errors += _viable(reach, universe, "liveness counterexample")
            if not errors and not _unbound_outs(reach, universe, public_out):
                errors.append("liveness counterexample ends in a complete enactment")
        return _verdict(report), report.witness, errors

    return judge


def judge_theorem1(input_universe, composed_universe, input_outs, composed_outs):
    parts = (
        ("safety_input", judge_safety(True, input_universe)),
        ("safety_composed", judge_safety(True, composed_universe)),
        ("liveness_input", judge_liveness(True, input_universe, input_outs)),
        ("liveness_composed", judge_liveness(True, composed_universe, composed_outs)),
    )

    def judge(result):
        verdicts, witnesses, errors = {}, {}, []
        for field, part in parts:
            verdict, witness, problems = part(getattr(result, field))
            verdicts[field] = verdict
            witnesses[field] = witness
            errors += [f"{field}: {p}" for p in problems]
        if not result.holds:
            errors.append("Theorem 1 fails")
        return verdicts, witnesses, errors

    return judge


def judge_alignment(expect_holds: bool | None, universe, commitment=None, schema=None):
    """Theorem 2. ``expect_holds`` None accepts either verdict (a capped run
    with no external answer); the witness must replay either way."""

    def judge(report):
        errors = []
        if expect_holds is not None and report.holds != expect_holds:
            errors.append(f"alignment {_verdict(report)}, expected {'holds' if expect_holds else 'fails'}")
        witness = report.witness
        if report.holds:
            # The compositions do misalign transiently; success shows the worst
            # such state and an extension that realigns it.
            if witness is None or witness["extension"] is None:
                errors.append("no misaligned state with an aligning extension")
            else:
                errors += _viable(
                    witness["misaligned_state"] + witness["extension"], universe, "aligning extension"
                )
        else:
            errors += _viable(witness["reach"], universe, "misalignment witness")
            if commitment is not None and witness["commitment"] != commitment:
                errors.append(f"witness names {witness['commitment']!r}, expected {commitment!r}")
            if schema is not None and schema not in [m.get("schema") for m in witness["reach"]]:
                errors.append(f"witness does not contain {schema!r}")
        return _verdict(report), witness, errors

    return judge


def judge_embedding(report):
    errors = [] if report.holds else [f"embedding fails: {report.witness}"]
    return _verdict(report), report.witness, errors


# -- simulation --------------------------------------------------------------


def horizon_alignment(result) -> tuple[str, list[str]]:
    """How an aligner-policy run ends. Theorem 2 promises realignment only
    under punctual delivery, and the aligner policy does not wait for
    deliveries before deadlines pass, so a run may end misaligned after a
    violation (about 7% of policy seeds at the baseline commit). Any other
    misalignment at the horizon is an error."""
    last = max(row.tick for row in result.reports)
    misaligned = [row for row in result.reports if row.tick == last and not row.alignment.aligned]
    errors = [
        f"{row.commitment} misaligned at the horizon (tick {last}) without a violation"
        for row in misaligned
        if "violated" not in {m.kind for m in row.alignment.misalignments}
    ]
    return ("misaligned-after-violation" if misaligned else "aligned"), errors


def _direct_order_checkpoints(result) -> list[str]:
    """Acceptance criterion 4: detach misalignment at dashes 3-4 is transient."""
    errors = []
    for tick in (1, 2, 3, 6, 7, 8):
        if not result.report_at(tick, "Purchase").alignment.aligned:
            errors.append(f"Purchase misaligned at tick {tick}")
    for tick in (4, 5):
        row = result.report_at(tick, "Purchase")
        if row.alignment.aligned or {m.kind for m in row.alignment.misalignments} != {"detached"}:
            errors.append(f"Purchase not detach-misaligned at tick {tick}")
    if not result.report_at(8, "Purchase").lifecycle["C"]["discharged"]:
        errors.append("C does not infer Purchase discharged at tick 8")
    return errors


def _escrow_payment_checkpoints(result) -> list[str]:
    """Acceptance criterion 5: forwarding resolves the detach misalignment."""
    errors = []
    row = result.report_at(4, "EscrowPurchase")
    if row.alignment.aligned or {m.kind for m in row.alignment.misalignments} != {"detached"}:
        errors.append("EscrowPurchase not detach-misaligned at tick 4")
    row = result.report_at(6, "EscrowPurchase")
    if not row.alignment.aligned or not row.lifecycle["M"]["detached"]:
        errors.append("EscrowPurchase not realigned and detached for M at tick 6")
    return errors


def _nested_transfer_checkpoints(result) -> list[str]:
    """Acceptance criterion 6: the nested detach reaches the debtor E."""
    errors = []
    row = result.report_at(13, "EscrowTransfer")
    if not row.lifecycle["M"]["detached"] or row.lifecycle["E"]["detached"]:
        errors.append("EscrowTransfer at tick 13: expected detached for M only")
    row = result.report_at(16, "EscrowTransfer")
    if not (row.lifecycle["M"]["detached"] and row.lifecycle["E"]["detached"]):
        errors.append("EscrowTransfer at tick 16: expected detached for M and E")
    return errors


def sim_output(result) -> list[str]:
    """What ``comal simulate --json --trace`` would write: trace lines, then
    one report line per commitment and tick."""
    lines = list(trace_lines(result.vector))
    lines += [json.dumps(simulate.report_to_json(row), sort_keys=True) for row in result.reports]
    return lines


def judge_simulation(universe, checkpoints: Callable[[object], list[str]] | None = None,
                     aligner: bool = False):
    def judge(result):
        violation = check_viable(result.vector, universe)
        errors = [] if violation is None else [f"simulated trace not viable: {violation}"]
        verdict = "ran"
        if checkpoints is not None:
            errors += checkpoints(result)
        if aligner:
            verdict, problems = horizon_alignment(result)
            errors += problems
        return verdict, sim_output(result), errors

    return judge


# ---------------------------------------------------------------------------
# Inputs


def _read(name: str) -> str:
    return (FIXTURES / name).read_text()


def _pair(input_file: str, cupid_file: str) -> dict:
    """An input protocol, its commitments, their complete-mode aligners and
    the composition, as in the acceptance suite."""
    base = protocol.parse_protocol(_read(input_file))
    specs = commitments.parse_commitments(_read(cupid_file))
    aligners = [
        synthesis.synthesize_alignment_protocol(c, base, synthesis.SynthesisMode.COMPLETE)
        for c in specs.values()
    ]
    composed = synthesis.compose_operationalization(base, aligners)
    registry = {p.name: p for p in (composed, base, *aligners)}
    return {
        "input": base,
        "composed": composed,
        "commitments": specs,
        "registry": registry,
        "input_uod": protocol.uod(base, registry),
        "composed_uod": protocol.uod(composed, registry),
    }


def setup_pairs() -> dict:
    return {
        "ordering": _pair("ordering.bspl", "purchase.cupid"),
        "escrow": _pair("escrow_ordering.bspl", "escrow_transfer.cupid"),
    }


def setup_knowledge() -> dict:
    inputs = setup_pairs()
    for name in ("unsafe_toy", "stuck_toy", "empty"):
        toy = protocol.parse_protocol(_read(f"{name}.bspl"))
        inputs[name] = {"protocol": toy, "uod": protocol.uod(toy)}
    return inputs


def _scenario(file: str, **overrides) -> dict:
    scenario = simulate.load_scenario(FIXTURES / file, overrides)
    return {"scenario": scenario, "uod": protocol.uod(scenario.protocol, scenario.registry)}


def setup_simulation() -> dict:
    return {
        "nested": _scenario("scenario_nested_transfer.json", horizon=LONG_HORIZON),
        "direct_order": _scenario("scenario_direct_order.json"),
        "escrow_payment": _scenario("scenario_escrow_payment.json"),
        "nested_transfer": _scenario("scenario_nested_transfer.json"),
    }


def setup_smoke() -> dict:
    return {
        "ordering": _pair("ordering.bspl", "purchase.cupid"),
        "ordering_op": _scenario(
            "scenario_direct_order.json",
            protocols=["ordering_op.bspl"],
            protocol="OrderingOp",
            horizon=SMOKE_HORIZON,
        ),
        "direct_order": _scenario("scenario_direct_order.json"),
    }


# ---------------------------------------------------------------------------
# Operations


def _theorem1_op(name: str, pair: dict) -> Op:
    return Op(
        name,
        lambda: check_theorem1(pair["input"], pair["composed"], DEFAULT, pair["registry"]),
        judge_theorem1(
            pair["input_uod"], pair["composed_uod"], pair["input"].out_params, pair["composed"].out_params
        ),
    )


def _alignment_op(name: str, pair: dict, bound: Bound, punctual: bool, judge, specs=None) -> Op:
    chosen = specs if specs is not None else list(pair["commitments"].values())
    return Op(
        name,
        lambda: check_alignment_reachability(pair["composed"], chosen, bound, punctual, pair["registry"]),
        judge,
    )


def _embedding_op(name: str, pair: dict) -> Op:
    return Op(
        name,
        lambda: check_embedding(pair["input"], pair["composed"], DEFAULT, pair["registry"]),
        judge_embedding,
    )


def knowledge_ops(inputs: dict, pass_seed: int) -> list[Op]:
    toy, stuck, empty = inputs["unsafe_toy"], inputs["stuck_toy"], inputs["empty"]
    return [
        _theorem1_op("theorem1-ordering", inputs["ordering"]),
        _theorem1_op("theorem1-escrow", inputs["escrow"]),
        Op("safety-unsafe-toy", lambda: check_safety(toy["protocol"], DEFAULT),
           judge_safety(False, toy["uod"])),
        Op("liveness-stuck-toy", lambda: check_liveness(stuck["protocol"], DEFAULT),
           judge_liveness(False, stuck["uod"], stuck["protocol"].out_params)),
        Op("liveness-empty", lambda: check_liveness(empty["protocol"], DEFAULT),
           judge_liveness(True, empty["uod"], empty["protocol"].out_params)),
    ]


def alignment_ops(inputs: dict, pass_seed: int) -> list[Op]:
    ordering, escrow = inputs["ordering"], inputs["escrow"]
    # The bare input protocol with no aligners: ``composed`` is the input.
    bare = {**escrow, "composed": escrow["input"], "composed_uod": escrow["input_uod"]}
    return [
        _alignment_op("theorem2-escrow-punctual", escrow, DEFAULT, True,
                      judge_alignment(True, escrow["composed_uod"])),
        _alignment_op("theorem2-ordering-punctual", ordering, DEFAULT, True,
                      judge_alignment(True, ordering["composed_uod"])),
        # Seed golden: no external source decides the unrestricted scheduler.
        _alignment_op("theorem2-ordering-unrestricted", ordering, DEFAULT, False,
                      judge_alignment(False, ordering["composed_uod"])),
        _alignment_op("theorem2-escrow-unrestricted-capped", escrow, UNRESTRICTED_CAP, False,
                      judge_alignment(None, escrow["composed_uod"])),
        _alignment_op("theorem2-bare-escrow", bare, DEFAULT, True,
                      judge_alignment(False, escrow["input_uod"], "EscrowPurchase", "payEscrow"),
                      specs=[escrow["commitments"]["EscrowPurchase"]]),
        _embedding_op("embedding-ordering", ordering),
        _embedding_op("embedding-escrow", escrow),
    ]


def multikey_ops(inputs: dict, pass_seed: int) -> list[Op]:
    ops = []
    for name, pair, side in (
        ("ordering", inputs["ordering"], "input"),
        ("ordering-op", inputs["ordering"], "composed"),
        ("escrow", inputs["escrow"], "input"),
    ):
        p, universe, registry = pair[side], pair[f"{side}_uod"], pair["registry"]
        ops.append(Op(f"safety-2key-{name}", lambda p=p, r=registry: check_safety(p, TWO_KEYS, r),
                      judge_safety(True, universe)))
        ops.append(Op(f"liveness-2key-{name}", lambda p=p, r=registry: check_liveness(p, TWO_KEYS, r),
                      judge_liveness(True, universe, p.out_params)))
    escrow = inputs["escrow"]
    # Theorem 1 makes the composition safe, so a decided run must hold.
    ops.append(Op("safety-2key-escrow-op-capped",
                  lambda: check_safety(escrow["composed"], TWO_KEY_CAP, escrow["registry"]),
                  judge_safety(True, escrow["composed_uod"])))
    return ops


def _sim_op(name: str, entry: dict, checkpoints=None, **changes) -> Op:
    scenario = replace(entry["scenario"], **changes)
    aligner = scenario.policy.get("kind") == "aligner"
    return Op(name, lambda: simulate.run_scenario(scenario),
              judge_simulation(entry["uod"], checkpoints, aligner))


def _policy_seeds(pass_seed: int) -> tuple[int, int]:
    rng = random.Random(pass_seed)
    return rng.randrange(2 ** 31), rng.randrange(2 ** 31)


def simulation_ops(inputs: dict, pass_seed: int) -> list[Op]:
    aligner_seed, random_seed = _policy_seeds(pass_seed)
    nested = inputs["nested"]
    return [
        _sim_op("nested-aligner", nested, policy={"kind": "aligner"}, seed=aligner_seed),
        _sim_op("nested-random", nested, policy={"kind": "random"}, seed=random_seed),
        _sim_op("scripted-direct-order", inputs["direct_order"], _direct_order_checkpoints),
        _sim_op("scripted-escrow-payment", inputs["escrow_payment"], _escrow_payment_checkpoints),
        _sim_op("scripted-nested-transfer", inputs["nested_transfer"], _nested_transfer_checkpoints),
    ]


def smoke_ops(inputs: dict, pass_seed: int) -> list[Op]:
    ordering = inputs["ordering"]
    aligner_seed, _ = _policy_seeds(pass_seed)
    return [
        _theorem1_op("theorem1-ordering", ordering),
        _alignment_op("theorem2-ordering-punctual", ordering, DEFAULT, True,
                      judge_alignment(True, ordering["composed_uod"])),
        _embedding_op("embedding-ordering", ordering),
        _sim_op("ordering-op-aligner", inputs["ordering_op"],
                policy={"kind": "aligner"}, seed=aligner_seed),
        _sim_op("scripted-direct-order", inputs["direct_order"], _direct_order_checkpoints),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-knowledge", setup_knowledge, knowledge_ops),
        Workload("verify-alignment", setup_pairs, alignment_ops),
        Workload("verify-multikey", setup_pairs, multikey_ops),
        Workload("simulate-horizon", setup_simulation, simulation_ops),
        # Not in BENCHMARK.json: the harness self-test's tiny workload.
        Workload("smoke", setup_smoke, smoke_ops),
    )
}

# Operations whose outcome depends on the benchmark seed; they have no
# seed-commit golden and are compared run against run instead.
SEEDED = {"nested-aligner", "nested-random", "ordering-op-aligner"}
