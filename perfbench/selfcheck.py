"""Checks of the benchmark itself.

Run from the repository root::

    python3 perfbench/selfcheck.py [--workload NAME] [--seed N]
    python3 perfbench/selfcheck.py --record-expected

* Negative controls over whole operations: one operation with every RHS
  perturbed by 1e-6 relative must count as failed in the closed loop's
  accounting, and one unperturbed operation must pass.  For the
  workloads that solve, every final state of an operation whose RHS is
  perturbed by ``oracle.FINAL_CONTROL`` must fail the final-state check
  on its own.
* Determinism: two traced runs of one seed, each in its own process,
  must report every count (``workloads.DETERMINISTIC``) exactly alike.
* The per-layer catalogue in ``workloads.py`` matches ``BENCHMARK.json``.

``--record-expected`` rewrites ``expected_seed1.json`` with the
interpreter's values for the default seed.  Exits non-zero on any
failed check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def negative_control(name: str, seed: int, scratch: Path) -> list[str]:
    import oracle
    import workloads
    from spans import Tracer

    tracer = Tracer(enabled=False)
    dirs = workloads.RunDirs(cache=run.tree_cache(), scratch=scratch)
    workload = workloads.WORKLOADS[name](seed, tracer, dirs)
    try:
        workload.setup()
        [bad] = run.closed_loop(workload, tracer, 0.0, False,
                                perturb=oracle.PERTURBATION)
        [good] = run.closed_loop(workload, tracer, 0.0, False)
        drifted = None
        if good.finals:
            [drifted] = run.closed_loop(workload, tracer, 0.0, False,
                                        perturb=oracle.FINAL_CONTROL)
        workload.prepare_oracle()
        bad.failures += workload.check(bad)
        good.failures += workload.check(good)
        missed = [
            label for label, key, y_final, tol in (drifted.finals if drifted else [])
            if not oracle.check_final(label, y_final, workload.references[key], tol)
        ]
    finally:
        workload.close()
    problems = []
    if not bad.failures:
        problems.append(f"{name}: perturbed operation was not counted as failed")
    else:
        print(f"{name}: perturbed operation failed as it must: {bad.failures[0]}")
    if good.failures:
        problems.append(f"{name}: unperturbed operation failed: {good.failures}")
    if missed:
        problems.append(f"{name}: final-state check missed a drifted solve: {missed}")
    elif drifted:
        print(f"{name}: all {len(drifted.finals)} final states of the solves "
              f"with a {oracle.FINAL_CONTROL:g} RHS drift were flagged")
    return problems


def traced_counts(name: str, seed: int) -> dict:
    import workloads

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=900,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{name}: traced run not correct:\n{proc.stdout}")
    return {k: result["metrics"][k]["value"] for k in workloads.DETERMINISTIC}


def determinism(name: str, seed: int) -> list[str]:
    first, second = traced_counts(name, seed), traced_counts(name, seed)
    diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    nonzero = sum(1 for v in first.values() if v)
    print(f"{name}: {nonzero} nonzero counts, {len(diff)} differ between runs")
    return [f"{name}: counts differ across runs: {diff}"] if diff else []


def catalogue_matches() -> list[str]:
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if listed != workloads.PER_LAYER:
        return ["BENCHMARK.json per_layer differs from workloads.PER_LAYER"]
    return []


def record_expected(scratch: Path) -> None:
    import oracle
    import workloads
    from spans import Tracer

    dirs = workloads.RunDirs(cache=run.tree_cache(), scratch=scratch)
    for name in ("compile_cold", "solve_rk45", "ensemble"):
        workload = workloads.WORKLOADS[name](
            oracle.DEFAULT_SEED, Tracer(enabled=False), dirs)
        try:
            workload.setup()
            workload.op()  # a compile op draws the sample states
            workload.prepare_oracle()
            oracle.write_expected(workload.expected_values())
        finally:
            workload.close()
    print(f"wrote {oracle.EXPECTED_PATH}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="checks of the benchmark itself")
    ap.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args(argv)
    with run.bench_environment() as scratch:
        if args.record_expected:
            record_expected(scratch)
            return 0
        problems = catalogue_matches()
        for name in args.workload or run.WORKLOAD_NAMES:
            problems += negative_control(name, args.seed, scratch)
            problems += determinism(name, args.seed)
    for line in problems:
        print(f"FAILED: {line}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
