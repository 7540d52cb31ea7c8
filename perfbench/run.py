"""comal benchmark: time to verdict, decided share and memory on four
verifier and simulator workloads, plus a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-alignment --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --smoke

Each run happens in one fresh worker process (``worker.py``), so that its
peak RSS is that workload's alone, with a fixed interpreter hash seed so that
set iteration order does not add run-to-run noise. The last line of standard
output is the JSON result. See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUN_TIMEOUT_S = 175
HASH_SEED = "0"


def checkout_problem() -> str | None:
    for needed in (ROOT / "src" / "comal" / "__init__.py", ROOT / "fixtures" / "ordering.bspl"):
        if not needed.is_file():
            return f"{needed.relative_to(ROOT)} is missing: run from the root of a comal checkout"
    return None


def run_worker(args: list[str], hash_seed: str = HASH_SEED, capture: bool = False):
    # No .pyc files: the run leaves nothing in the checkout but out/.
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
        stdout=subprocess.PIPE if capture else None,
    )


# ---------------------------------------------------------------------------
# Harness self-test


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"smoke: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _structures(workload: str, seed: int, trace: int) -> list[dict]:
    """Per-operation counts and witness hashes of the first pass of a run."""
    run = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    keys = ("name", "verdict", "states", "builds", "witness_sha256")
    return [{k: r.get(k) for k in keys} for r in run["passes"][0]]


def smoke() -> int:
    """Runs the tiny workload untraced under two interpreter hash seeds and
    traced once, and checks the harness: every metric named in BENCHMARK.json
    present with its unit, no failed operation, and identical counts and
    witness hashes from the two untraced runs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    structures = []
    for hash_seed in ("0", "1"):
        result = _result(run_worker(["--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", "0"],
                                    hash_seed, capture=True))
        problems += _check_result(result, spec["end_to_end"], "untraced")
        structures.append(_structures("smoke", 7, 0))
    result = _result(run_worker(["--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", "1"],
                                capture=True))
    problems += _check_result(result, spec["per_layer"], "traced")
    if structures[0] != structures[1]:
        problems.append("counts or witness hashes differ between two runs with the same seed")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def _check_result(result: dict, declared: list[dict], what: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(result)}")
    if result["failed"] or not result["correct"]:
        problems.append(f"{what}: error_ratio {result['failed']}/{result['attempted']}, expected 0")
    names = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != names:
        problems.append(f"{what}: metrics/units {got} differ from BENCHMARK.json {names}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the harness self-test")
    args = parser.parse_args(argv)
    problem = checkout_problem()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    proc = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
