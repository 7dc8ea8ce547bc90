"""Benchmark of the repro user path: compile, solve, parallel and ensemble.

Run from the repository root::

    python3 perfbench/run.py --workload solve_rk45 --seed 1 --seconds 5 --trace 0

One client runs the workload's operation in a closed loop (each operation
starts when the previous one finished) for ``--seconds``, on one usable
core (``one_core``); only the traced run's parallel probes use more, and
never more worker threads than usable cores.  Before measuring it sets
the workload up ``SETUP_REPS`` times (``setup_s`` is the median import
time of ``IMPORT_REPS`` fresh interpreters plus the median repetition,
both at the reference host speed).  After
measuring it reads the peak RSS, builds the oracle and checks every
operation (see ``oracle.py``); one that raises or fails a check counts
as failed.  Last comes the negative control, which must be flagged.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
``setup_s``, ``op_s`` (median time of one operation: the suite's cold or
warm compile, the rk45 or bdf solves, or one ensemble batch, each scaled
to the reference host speed by ``hostspeed.SpeedClock``) and
``peak_rss_mb``; the human report adds the unscaled ``op_wall_s`` and
the named parts (``compile_cold_s``, ``solve_bdf_s`` ...).  ``--trace 1``
alternates untraced and traced operations, prints the per-layer metrics
and writes the spans as Chrome trace-event JSON.  The solve_rk45 traced
run also solves through ``ParallelRHS`` over ``ThreadedExecutor(nproc)``
(``runtime.parallel_speedup``: the monolithic rk45 time of the same
solves over the parallel one) and probes a process pool, whose POSIX
shared memory is released before exit.  The last line of standard
output is always the JSON result; the lines before it are the human
report.  Build products live in ``.bench_build/`` of the
checkout: the warm-compile cache of the current source tree (keyed by its
digest; caches of other trees are removed), and per-run scratch
(cold-compile caches, ``TMPDIR``) that is removed at exit.
``selfcheck.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 3
#: fresh interpreters whose import time enters setup_s (their median)
IMPORT_REPS = 3
WORKLOAD_NAMES = ("compile_cold", "compile_warm", "solve_rk45", "solve_bdf",
                  "ensemble")
#: the named end-to-end quantities each workload reports for people
PART_UNITS = {
    "compile_cold_s": "s",
    "compile_warm_s": "s",
    "generated_kb": "KB",
    "solve_rk45_s": "s",
    "solve_bdf_s": "s",
    "ensemble_solve_s": "s",
    "ensemble_traj_per_s": "1/s",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def closed_loop(workload, tracer, seconds: float, traced: bool,
                perturb: float = 0.0) -> list:
    """Run operations back to back for ``seconds``.

    A traced run alternates untraced and traced operations (at least one
    of each), so the tracing overhead is measured in one process.  Each
    operation runs under the workload's speed clock, which samples the
    reference kernel inside untraced operations only.
    """
    from workloads import OpResult

    clock = workload.clock
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer.enabled = traced and len(results) % 2 == 1
        clock.sampling = not tracer.enabled
        tracer.begin_trace()
        clock.start()
        with tracer.span("op", workload=workload.name):
            try:
                result = workload.op(perturb)
            except Exception:  # an operation that raises counts as failed
                result = OpResult(failures=[traceback.format_exc(limit=4)])
        clock.stop()
        result.traced = tracer.enabled
        result.speed = clock.scaled_s / clock.wall_s
        results.append(result)
        if time.perf_counter() >= deadline and (not traced or len(results) >= 2):
            break
    tracer.enabled = False
    clock.sampling = True
    return results


def at_reference_speed(result) -> float:
    """The op's wall time at the reference host speed (``op_s``)."""
    return result.wall_s * result.speed


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tree_cache() -> Path:
    """The warm-compile cache of this source tree.

    Cached artifacts carry generated code, so a cache filled by other
    sources would run that code instead of this tree's; the directory is
    keyed by the source digest and caches of other trees are removed.
    """
    from hostinfo import source_digest

    root = WORKDIR / "cache"
    digest = source_digest(ROOT / "src")
    if root.is_dir():
        for child in root.iterdir():
            if child.name != digest:
                shutil.rmtree(child, ignore_errors=True)
    return root / digest


@contextlib.contextmanager
def one_core():
    """Run the calling thread, and the ``cc`` processes it starts, on one
    usable core.  A shared host slows each core on its own, so the speed
    clock's kernel samples only describe the core they ran on; every
    measured workload runs one thread, so it loses nothing here."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The process-pool probe's shared memory starts the tracker, a helper
    process that would otherwise outlive this one until it reads EOF.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def bench_environment():
    """Per-run scratch inside the checkout, removed on exit.

    ``cc`` and Python's tempfile put their temporaries there, and BLAS
    runs one thread, so the client plus executor workers stay within the
    usable cores and dense LU timings stay steady.  On every way out,
    SIGTERM included, executors are closed by the workloads and the
    resource tracker is stopped, so no process started here outlives it.
    """
    scratch = WORKDIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        yield scratch
    finally:
        _stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a "
              f"full checkout of the repository", file=sys.stderr)
        return 2
    with bench_environment() as scratch:
        return run(args, scratch)


def import_walls() -> list[float]:
    """Wall time of importing NumPy and the workloads (so ``repro``) in
    ``IMPORT_REPS`` fresh interpreters, each waited for.  One import per
    run varies by half from run to run, so ``setup_s`` takes the median."""
    code = (f"import sys, time; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
            f"t0 = time.perf_counter(); import numpy, workloads; "
            f"print(time.perf_counter() - t0)")
    walls = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        walls.append(float(proc.stdout.split()[-1]))
    return walls


def run(args, scratch: Path) -> int:
    import workloads
    import oracle
    from hostinfo import host_info
    from spans import Tracer, format_timing, summarize

    tracer = Tracer(enabled=False)
    dirs = workloads.RunDirs(cache=tree_cache(), scratch=scratch)
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer, dirs)
    report: list[str] = []
    try:
        setup_reps, setup_walls = [], []
        with one_core():
            workload.clock.start()
            imports = import_walls()
            import_scaled_s = (_median(imports) * workload.clock.stop()
                               / workload.clock.wall_s)
            for _ in range(SETUP_REPS):
                workload.clock.start()
                workload.setup()
                setup_reps.append(workload.clock.stop())
                setup_walls.append(workload.clock.wall_s)
            ops = closed_loop(workload, tracer, args.seconds, bool(args.trace))
        # The program's own high-water mark: the oracle has not run yet.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = workload.probes() if args.trace else {}
        t0 = time.perf_counter()
        workload.prepare_oracle()
        for r in ops:
            r.failures += workload.check(r)
        oracle_failures = oracle.check_expected(
            args.seed, workload.expected_values())
        if workload.probe_result is not None:
            probe = workload.probe_result
            oracle_failures += probe.failures + workload.check(probe)
        oracle_s = time.perf_counter() - t0
        oracle_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Negative control: a 1e-6 relative RHS perturbation must fail.
        negative_flagged = bool(workload.check(workloads.OpResult(
            rhs=workload.rhs_outputs(oracle.PERTURBATION))))
        final_margin = workload.final_errors(ops)
        loader = workload.native_loader()
    finally:
        workload.close()

    failed = [r for r in ops if r.failures]
    ok = [r for r in ops if not r.failures] or ops
    untraced = [r for r in ok if not r.traced]
    traced = [r for r in ok if r.traced]
    correct = not failed and negative_flagged and not oracle_failures
    host = host_info(ROOT, loader)
    setup_s = import_scaled_s + _median(setup_reps)

    report.append(f"# perfbench workload={args.workload} seed={args.seed} "
                  f"seconds={args.seconds:g} trace={args.trace}")
    report.append(f"# host {json.dumps(host, sort_keys=True)}")
    report.append(f"# setup at reference speed: import {import_scaled_s:.3f} s "
                  f"+ median of {[round(s, 3) for s in setup_reps]} s (walls "
                  f"{[round(s, 3) for s in imports]} + "
                  f"{[round(s, 3) for s in setup_walls]} s); "
                  f"oracle {oracle_s:.3f} s after measuring (not in setup_s)")
    report.append(f"# peak RSS: {peak_rss_mb:.1f} MB after the operations "
                  f"(peak_rss_mb), {oracle_rss_mb:.1f} MB after the oracle")
    report.append(f"# ops attempted={len(ops)} failed={len(failed)}; "
                  f"negative control flagged={negative_flagged}")
    for r in failed:
        for line in r.failures[:5]:
            report.append(f"# FAILED: {line.strip()}")
    for line in oracle_failures:
        report.append(f"# FAILED: {line}")
    if final_margin:
        label = max(final_margin, key=final_margin.get)
        report.append(f"# worst final-state error: {final_margin[label]:.3f} "
                      f"of its limit ({label})")

    op_s = _median([at_reference_speed(r) for r in untraced])
    report.append(f"# op walls (s): {[round(r.wall_s, 4) for r in ops]}")
    report.append(f"# host speed over each op (reference = 1): "
                  f"{[round(1.0 / r.speed, 3) for r in ops]}")
    report.append("# end-to-end")
    report.append(format_timing("setup_s", summarize([setup_s]), "s"))
    report.append(format_timing("peak_rss_mb", summarize([peak_rss_mb]), "MB"))
    report.append(format_timing(
        "op_s", summarize([at_reference_speed(r) for r in untraced]), "s"))
    report.append(format_timing(
        "op_wall_s", summarize([r.wall_s for r in untraced]), "s"))
    report.append(format_timing(
        "ops_failed_ratio", summarize([len(failed) / len(ops)]), "ratio"))
    for part, unit in PART_UNITS.items():
        values = [r.parts[part] for r in untraced if part in r.parts]
        if values:
            report.append(format_timing(part, summarize(values), unit))
    if args.trace and args.workload == "solve_rk45":
        report.append("# runtime.parallel_speedup base: the same rk45 solves "
                      "with the monolithic native RHS, timed in the same run")

    if args.trace:
        samples = {
            name: probes.get(name)
            or [r.layers[name] for r in traced if name in r.layers]
            for name in workloads.PER_LAYER
        }
        overhead = (_median([at_reference_speed(r) for r in traced]) / op_s - 1.0
                    if traced and untraced else 0.0)
        samples["trace.overhead_ratio"] = [overhead]
        metrics = {
            name: {"value": _median(samples[name]), "unit": unit}
            for name, unit in workloads.PER_LAYER.items()
        }
        report.append(f"# tracing overhead: traced operations take "
                      f"{overhead:+.1%} against untraced ones")
        report.append("# per-layer (traced operations; a layer this "
                      "workload bypasses reads 0)")
        for name, unit in workloads.PER_LAYER.items():
            if samples[name]:
                report.append(format_timing(name, summarize(samples[name]), unit))
        trace_ids = {i + 1 for i, r in enumerate(ops) if r.traced}
        report.append("# self time by span, summed over traced operations")
        for name, ns in sorted(tracer.self_by_name(trace_ids).items(),
                               key=lambda kv: -kv[1]):
            report.append(f"#   {name:<30} {ns / 1e9:12.6f} s")
        for name, calls in sorted(tracer.samples.items()):
            report.append(format_timing(
                f"{name} per call", summarize([c / 1e3 for c in calls]), "us"))
        tracer.write_chrome(
            WORKDIR / "traces" / f"{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "host": host})
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    result = {"correct": correct, "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    results_dir = WORKDIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"host": host, "report": report, **result},
                             indent=1))
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
