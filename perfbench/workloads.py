"""The benchmark workloads: compile (cold and warm), solve (rk45 and bdf)
and ensemble; the traced solve_rk45 run also solves through the parallel
runtime.

Each workload is driven by ``run.py`` as a closed loop: one client, each
operation starting when the previous one finished.  A workload object
offers

* ``setup()``: model build, warm compile, executor start and warm-up,
  repeated by ``run.py`` (its median is ``setup_s``); only the last
  repetition's state is kept,
* ``op(perturb)``: one measured operation, returning an :class:`OpResult`
  with what the oracle must check (RHS values at the sample states,
  final states) and the failures found on the spot (a failed solve, a
  cache miss, a degraded backend),
* ``prepare_oracle()``: interpreter values and SciPy references, built
  after the measured operations because the program under test does
  none of it,
* ``check(result)``: the oracle's verdict on one operation,
* ``rhs_outputs(perturb)``: the RHS-value records alone, which the
  negative control makes with a perturbed RHS,
* ``probes()``: per-layer micro-measurements for the traced run (what
  they leave for the oracle goes to ``probe_result``).

Every operation and set-up runs under the workload's
:class:`hostspeed.SpeedClock`: RHS calls, batch sweeps and compiler
passes tick it, so ``op_s`` and ``setup_s`` are scaled to the reference
host speed from kernel samples taken on the operation's own thread.

Inputs come only from the seed: parameter values drawn within a stated
spread of each model's defaults.  Layers are timed from outside, by
wrapping the public entry points (``Pass.run`` of the default pass
manager, the RHS callables, ``ParallelRHS``, ``EnsembleRHS``).
"""

from __future__ import annotations

import dataclasses
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.apps import Bearing3dParams, BearingParams, build_bearing2d, build_bearing3d
from repro.codegen.native import NativeCache
from repro.compiler import (
    ArtifactCache,
    CompilationContext,
    CompileOptions,
    PassManager,
    build_default_manager,
)
from repro.runtime import (
    EnsembleRHS,
    ParallelRHS,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
)
from repro.runtime.supervisor import dependency_levels
from repro.schedule import lpt_schedule
from repro.solver import solve_ivp
from repro.solver.batch import solve_ivp_batch

import oracle
from hostspeed import SpeedClock
from spans import Tracer

__all__ = ["WORKLOADS", "PER_LAYER", "OpResult", "RunDirs"]

#: usable cores; the parallel executors never get more workers
NPROC = len(os.sched_getaffinity(0))

#: compiler pass -> the per-layer metric its span feeds
PASS_METRICS = {
    "parse": "language.parse_s",
    "flatten": "model.flatten_s",
    "typecheck": "model.typecheck_s",
    "scalarize": "model.scalarize_s",
    "partition": "analysis.partition_s",
    "transform": "codegen.transform_s",
    "verify": "codegen.verify_s",
    "tasks": "codegen.tasks_s",
    "fuse_tasks": "codegen.fuse_s",
    "codegen": "codegen.emit_s",
    "link_native": "codegen.native_link_s",
    "link": "codegen.link_s",
    "fingerprint": "compiler.fingerprint_s",
    "cache-lookup": "compiler.cache_lookup_s",
    "cache-store": "compiler.cache_store_s",
}
#: passes reported for warm recompiles (the rest are skipped on a hit)
WARM_PASSES = ("parse", "flatten", "typecheck", "fingerprint",
               "cache-lookup", "link_native", "link")
SOLVE_TAGS = ("b2d10", "b3d", "b2d100")
SOLVE_METHODS = ("rk45", "bdf")


def _per_layer_catalogue() -> dict[str, str]:
    """Per-layer metric name -> unit.  Every traced run reports all of
    them; a layer the workload bypasses reads 0 there."""
    cat: dict[str, str] = {}
    for metric in PASS_METRICS.values():
        cat[f"{metric}.cold"] = "s"
    for name in WARM_PASSES:
        cat[f"{PASS_METRICS[name]}.warm"] = "s"
    cat.update({
        "compiler.driver_overhead_s.cold": "s",
        "compiler.driver_overhead_s.warm": "s",
        "compiler.cold_s": "s",
        "compiler.warm_s": "s",
        "compiler.cache_hit_ratio.warm": "ratio",
        "codegen.native_cache_hit_ratio.warm": "ratio",
        "model.scalarized_models": "count",
        "codegen.c_source_bytes": "bytes",
        "codegen.generated_kb": "KB",
        "codegen.task_count": "count",
        "analysis.scc_count": "count",
    })
    for method in SOLVE_METHODS:
        cat[f"solver.{method}_s"] = "s"
        cat[f"rhs.compute_s.{method}"] = "s"
        cat[f"solver.self_s.{method}"] = "s"
        cat[f"solver.nfev.{method}"] = "count"
        cat[f"solver.nsteps.{method}"] = "count"
        cat[f"solver.nrejected.{method}"] = "count"
    cat.update({
        "solver.njev.bdf": "count",
        "solver.nlu.bdf": "count",
        "solver.newton_iters.bdf": "count",
        "runtime.parallel_solve_s": "s",
        "runtime.monolithic_solve_s": "s",
        "runtime.parallel_speedup": "ratio",
        "solver.self_s.parallel": "s",
        "solver.nfev.parallel": "count",
    })
    for tag in SOLVE_TAGS:
        cat[f"rhs.call_us.{tag}"] = "us"
        cat[f"codegen.native_rhs_us.{tag}"] = "us"
        cat[f"runtime.round_us.serial.{tag}"] = "us"
        cat[f"runtime.round_us.threads.{tag}"] = "us"
        cat[f"runtime.round_us.processes.{tag}"] = "us"
        cat[f"runtime.task_calls_us.{tag}"] = "us"
        cat[f"runtime.task_overhead_ratio.{tag}"] = "ratio"
        cat[f"runtime.dispatch_us.{tag}"] = "us"
        cat[f"runtime.busy_ratio.{tag}"] = "ratio"
        cat[f"runtime.stage_chunk.{tag}"] = "count"
        cat[f"schedule.lpt_us.{tag}"] = "us"
    cat.update({
        "solver.batch_s": "s",
        "solver.batch.traj_per_s": "1/s",
        "solver.batch.self_s": "s",
        "solver.batch.nsweeps": "count",
        "rhs_batch.sweep_us": "us",
        "trace.overhead_ratio": "ratio",
    })
    return cat


PER_LAYER = _per_layer_catalogue()

#: per-layer metrics that must repeat exactly for one seed
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER.items()
    if unit in ("count", "bytes", "KB") and "stage_chunk" not in name
)


@dataclass
class RunDirs:
    """Where a run may write: all inside the checkout."""

    #: build cache shared by the runs of one source tree (the solve
    #: set-ups warm-compile from it); keyed by the source digest
    cache: Path
    #: per-run scratch, removed at exit (cold-compile caches, TMPDIR)
    scratch: Path


@dataclass
class OpResult:
    #: the operation's headline wall time (op_s)
    wall_s: float = 0.0
    #: named end-to-end parts, for the human report
    parts: dict = field(default_factory=dict)
    #: per-layer values from this op (traced ops only, plus exact counts)
    layers: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    #: RHS values to check: (label, samples key, [values])
    rhs: list = field(default_factory=list)
    #: final states to check: (label, reference key, y_final, tolerance);
    #: y_final is a copy, since the solver's is a view that would keep the
    #: whole trajectory alive and inflate peak_rss_mb with every op
    finals: list = field(default_factory=list)
    #: whether the op ran with tracing on (set by the closed loop)
    traced: bool = False
    #: reference seconds per wall second over the op (set by the closed loop)
    speed: float = 1.0


def _scaled(rng: np.random.Generator, value: float, spread: float) -> float:
    return float(value) * float(rng.uniform(1.0 - spread, 1.0 + spread))


def _timed(clock: SpeedClock, fn: Callable, *args):
    """``fn(*args)`` and its wall time, kernel samples left out."""
    t0 = clock.now()
    out = fn(*args)
    return out, clock.now() - t0


def _time_calls_us(fn: Callable, args_list, repeats: int) -> list[float]:
    """Per-call wall times (µs) of ``fn(*args)`` cycling over ``args_list``."""
    clock = time.perf_counter_ns
    out = []
    for r in range(repeats):
        args = args_list[r % len(args_list)]
        t0 = clock()
        fn(*args)
        out.append((clock() - t0) / 1e3)
    return out


def loader_of(programs) -> str:
    """The FFI the native modules were loaded with (cffi or ctypes)."""
    for program in programs:
        if program.native_module is not None:
            return program.native_module.ffi_kind
    return "unavailable"


def _sum_layer(total: dict, values: dict) -> None:
    for k, v in values.items():
        total[k] = total.get(k, 0.0) + v


class Workload:
    """Oracle bookkeeping shared by every workload.

    ``samples`` (sample states per key) are drawn at set-up, or by the
    first operation for a compiled suite, from the program's own start
    vector; ``expected`` (interpreter values per key) and ``references`` (SciPy
    final states per key) are filled by ``prepare_oracle``.
    """

    name = ""

    def __init__(self, seed: int, tracer: Tracer, dirs: RunDirs) -> None:
        self.seed = seed
        self.tracer = tracer
        self.dirs = dirs
        #: scales the work to the reference host speed (``run.py``)
        self.clock = SpeedClock()
        #: what the traced run's probes leave for the oracle to check
        self.probe_result: OpResult | None = None
        self.samples: dict[str, oracle.Samples] = {}
        self.expected: dict[str, list[np.ndarray]] = {}
        self.references: dict[str, oracle.Reference] = {}

    def check(self, result: OpResult) -> list[str]:
        failures = []
        for label, key, values in result.rhs:
            failures += oracle.check_rhs(
                label, values, self.expected[key], self.samples[key].names)
        for label, key, y_final, tol in result.finals:
            failures += oracle.check_final(label, y_final, self.references[key], tol)
        return failures

    def expected_values(self) -> dict[str, list[np.ndarray]]:
        """Interpreter values by key, for the pinned-values check."""
        return self.expected

    def final_errors(self, results) -> dict[str, float]:
        """Worst final-state error per check label, as a share of its limit."""
        worst: dict[str, float] = {}
        for result in results:
            for label, key, y_final, tol in result.finals:
                share = oracle.final_error(y_final, self.references[key]) / tol
                worst[label] = max(worst.get(label, 0.0), share)
        return worst

    def probes(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

MODELS_DIR = Path(__file__).resolve().parent.parent / "examples" / "models"
#: source-text suite and the parameters the seed draws in each (±10%)
SUITE_SOURCES = {
    "servo": ("target",),
    "powerplant": ("qref", "head", "Qin"),
    "bearing2d": ("Tdrive", "Wy"),
}
PARAM_SPREAD = 0.10
_NUMBER = r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"


def seeded_source(text: str, names, rng: np.random.Generator) -> str:
    """``text`` with every ``name := number`` of ``names`` rescaled."""
    for name in names:
        factor = _scaled(rng, 1.0, PARAM_SPREAD)
        text = re.sub(
            rf"\b({re.escape(name)}\s*:=\s*)({_NUMBER})",
            lambda m: f"{m.group(1)}{float(m.group(2)) * factor!r}",
            text,
        )
    return text


def observed_manager(tracer: Tracer, clock: SpeedClock) -> PassManager:
    """The default pipeline with every ``Pass.run`` recorded as a span
    (when tracing) and preceded by a clock tick (when sampling)."""
    return PassManager([
        dataclasses.replace(p, run=clock.ticking(
            tracer.wrap_span(f"pass.{p.name}", p.run)))
        for p in build_default_manager().passes
    ])


def compile_once(tracer: Tracer, clock: SpeedClock, options: CompileOptions,
                 source=None, model=None) -> CompilationContext:
    """``compile_context`` through :func:`observed_manager`."""
    ctx = CompilationContext(options=options, source=source, model=model)
    observed_manager(tracer, clock).run(ctx)
    return ctx


def native_options(cache_root: Path) -> CompileOptions:
    """``backend="c", flatten_mode="array"`` over caches at ``cache_root``."""
    return CompileOptions(
        backend="c", flatten_mode="array",
        cache=ArtifactCache(cache_root / "artifacts"),
        native_cache=NativeCache(cache_root / "native"),
    )


class CompileWorkload(Workload):
    """The paper's three models from source text plus bearing3d, compiled
    to C.  ``compile_cold`` and ``compile_warm`` differ in their caches."""

    phase = ""

    def __init__(self, seed: int, tracer: Tracer, dirs: RunDirs) -> None:
        super().__init__(seed, tracer, dirs)
        self._ops = 0
        self.sources: dict[str, str] = {}
        self.b3d_params: Bearing3dParams | None = None
        #: programs of the latest op, for the negative control
        self.programs: dict[str, object] = {}

    def _draw_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.sources = {
            name: seeded_source(
                (MODELS_DIR / f"{name}.om").read_text(), params, rng
            )
            for name, params in SUITE_SOURCES.items()
        }
        base = BearingParams()
        self.b3d_params = Bearing3dParams(base=dataclasses.replace(
            base,
            drive_torque=_scaled(rng, base.drive_torque, PARAM_SPREAD),
            radial_load=_scaled(rng, base.radial_load, PARAM_SPREAD),
        ))

    def _inputs(self):
        for name, text in self.sources.items():
            yield name, {"source": text}
        yield "bearing3d", {"model": build_bearing3d(self.b3d_params)}

    def prepare_oracle(self) -> None:
        for name, inputs in self._inputs():
            key = f"compile/{name}"
            if key not in self.samples:  # no operation got this far
                continue
            self.expected[key] = oracle.interpreter_values(
                oracle.scalar_system(**inputs), {}, self.samples[key])

    def _suite(self, cache_root: Path, result: OpResult) -> dict:
        """Compile the suite once; returns {model: context}."""
        tracer = self.tracer
        phase = self.phase
        first = len(tracer.spans)
        contexts = {}
        t0 = self.clock.now()
        with tracer.span(f"compile.{phase}"):
            for name, inputs in self._inputs():
                with tracer.span("compile", model=name, phase=phase):
                    contexts[name] = compile_once(
                        tracer, self.clock, native_options(cache_root), **inputs
                    )
        wall = self.clock.now() - t0
        result.wall_s = wall
        result.parts[f"compile_{phase}_s"] = wall
        result.layers[f"compiler.{phase}_s"] = wall
        if tracer.enabled:
            passes = WARM_PASSES if phase == "warm" else tuple(PASS_METRICS)
            for name in passes:
                result.layers[f"{PASS_METRICS[name]}.{phase}"] = 0.0
            own = tracer.self_ns()
            overhead = 0
            for i in range(first, len(tracer.spans)):
                span = tracer.spans[i]
                pass_name = span.name.removeprefix("pass.")
                if span.name.startswith("pass.") and pass_name in passes:
                    key = f"{PASS_METRICS[pass_name]}.{phase}"
                    result.layers[key] += span.duration_ns / 1e9
                elif span.name == "compile":
                    overhead += own[i]
            result.layers[f"compiler.driver_overhead_s.{phase}"] = overhead / 1e9
        return contexts

    def _record(self, contexts: dict, result: OpResult, perturb: float) -> None:
        """Programs of this op: backend check and RHS values to check."""
        self.programs = {name: ctx.program for name, ctx in contexts.items()}
        for k, (name, program) in enumerate(self.programs.items()):
            key = f"compile/{name}"
            if key not in self.samples:
                self.samples[key] = oracle.sample_states(
                    program, np.random.default_rng([self.seed, 10, k]))
        result.failures += self.backend_checks()
        result.rhs += self.rhs_outputs(perturb)

    def backend_checks(self) -> list[str]:
        return [line for name, program in self.programs.items()
                for line in oracle.check_backend(f"{self.name}/{name}", program)]

    def rhs_outputs(self, perturb: float) -> list:
        out = []
        for name, program in self.programs.items():
            if program.native_module is None:
                continue
            fn = program.rhs  # with the compiled-in PARAMS()
            if perturb:
                fn = oracle.perturbed(fn, perturb)
            key = f"compile/{name}"
            out.append((f"{self.name}/{name}", key,
                        oracle.rhs_values(fn, self.samples[key])))
        return out

    def native_loader(self) -> str:
        return loader_of(self.programs.values())

    def close(self) -> None:
        self.programs = {}


class CompileColdWorkload(CompileWorkload):
    """Each op compiles the suite into fresh, empty caches."""

    name = "compile_cold"
    phase = "cold"

    def setup(self) -> None:
        self._draw_inputs()
        # Warm-up: one cold and one warm compile of the smallest model
        # loads the native toolchain and every lazily imported pass.
        warm_dir = self.dirs.scratch / "warmup"
        try:
            for _ in range(2):
                compile_once(self.tracer, self.clock, native_options(warm_dir),
                             source=self.sources["servo"])
        finally:
            shutil.rmtree(warm_dir, ignore_errors=True)

    def op(self, perturb: float = 0.0) -> OpResult:
        self._ops += 1
        cache_root = self.dirs.scratch / f"cold-{self._ops}"
        result = OpResult()
        try:
            contexts = self._suite(cache_root, result)
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)
        c_bytes = sum(len(c.native_source.source.encode()) for c in contexts.values())
        py_bytes = sum(len(c.module.source.encode()) for c in contexts.values())
        result.parts["generated_kb"] = (c_bytes + py_bytes) / 1024
        result.layers.update({
            "codegen.generated_kb": (c_bytes + py_bytes) / 1024,
            "codegen.c_source_bytes": c_bytes,
            "model.scalarized_models": sum(
                bool(c.metrics.get("scalarized")) for c in contexts.values()),
            "codegen.task_count": sum(
                c.program.num_tasks for c in contexts.values()),
            "analysis.scc_count": sum(
                c.partition.num_subsystems for c in contexts.values()),
        })
        for name, ctx in contexts.items():
            if ctx.metrics.get("cache_hit") or ctx.metrics.get("native_cache_hit"):
                result.failures.append(f"compile_cold/{name}: cold compile hit a cache")
        self._record(contexts, result, perturb)
        return result


class CompileWarmWorkload(CompileWorkload):
    """Each op recompiles the suite from the artifact and native caches
    that set-up filled: the first set-up repetition compiles cold, the
    later ones (and so the median) are warm."""

    name = "compile_warm"
    phase = "warm"

    def setup(self) -> None:
        self._draw_inputs()
        self.cache_root = self.dirs.scratch / "suite-cache"
        for name, inputs in self._inputs():
            compile_once(self.tracer, self.clock,
                         native_options(self.cache_root), **inputs)

    def op(self, perturb: float = 0.0) -> OpResult:
        result = OpResult()
        contexts = self._suite(self.cache_root, result)
        result.layers.update({
            "compiler.cache_hit_ratio.warm": float(np.mean(
                [bool(c.metrics.get("cache_hit")) for c in contexts.values()])),
            "codegen.native_cache_hit_ratio.warm": float(np.mean(
                [bool(c.metrics.get("native_cache_hit")) for c in contexts.values()])),
        })
        for name, ctx in contexts.items():
            if not (ctx.metrics.get("cache_hit")
                    and ctx.metrics.get("native_cache_hit")):
                result.failures.append(f"compile_warm/{name}: warm recompile missed a cache")
        self._record(contexts, result, perturb)
        return result


# ---------------------------------------------------------------------------
# solve: the same three native models and seeds
# ---------------------------------------------------------------------------

#: tag -> (model factory, integration horizon)
NATIVE_MODELS = {
    "b2d10": (lambda: build_bearing2d(BearingParams(num_rollers=10)), 0.1),
    "b3d": (build_bearing3d, 0.05),
    "b2d100": (lambda: build_bearing2d(BearingParams(num_rollers=100)), 0.02),
}
#: the load/drive parameters the seed draws (±10%)
LOAD_PARAMS = ("Ir.Tdrive", "Ir.Wy")
#: warm-up solves integrate this fraction of each horizon
WARMUP_FRACTION = 0.02
#: probed, not solved, by the traced solve_rk45 run
PROBE_ONLY = "b2d100"
#: per-call probe repetitions
PROBE_CALLS = 2000
ROUND_CALLS = 400


@dataclass
class NativeModel:
    tag: str
    program: object
    params: np.ndarray
    f: Callable
    t_end: float
    y0: np.ndarray
    samples: oracle.Samples


def seeded_params(program, rng: np.random.Generator) -> np.ndarray:
    """The default parameter vector with the load/drive entries drawn."""
    p = program.param_vector()
    for name in LOAD_PARAMS:
        i = program.system.param_names.index(name)
        p[i] = _scaled(rng, p[i], PARAM_SPREAD)
    return p


def build_native_model(tag: str, seed: int, dirs: RunDirs,
                       clock: SpeedClock) -> NativeModel:
    """Warm-compile one native model from the build cache (the first run
    of a source tree fills it) and bind seeded parameters; a model gets
    the same inputs for one seed in every workload."""
    k = list(NATIVE_MODELS).index(tag)
    factory, t_end = NATIVE_MODELS[tag]
    ctx = compile_once(Tracer(enabled=False), clock,
                       native_options(dirs.cache), model=factory())
    program = ctx.program
    p = seeded_params(program, np.random.default_rng([seed, 1, k]))
    samples = oracle.sample_states(program, np.random.default_rng([seed, 20, k]))
    return NativeModel(tag, program, p, program.make_rhs(p), t_end,
                       program.start_vector(), samples)


class NativeWorkload(Workload):
    """Shared by the solve workloads."""

    #: the NATIVE_MODELS this workload solves
    tags: tuple[str, ...] = ()

    def __init__(self, seed: int, tracer: Tracer, dirs: RunDirs) -> None:
        super().__init__(seed, tracer, dirs)
        self.models: list[NativeModel] = []

    def prepare_oracle(self) -> None:
        for m in self.models:
            key = f"native/{m.tag}"
            system = oracle.scalar_system(model=NATIVE_MODELS[m.tag][0]())
            params = dict(zip(m.program.system.param_names, m.params))
            self.expected[key] = oracle.interpreter_values(system, params, m.samples)
            self.references[key] = oracle.reference_solve(m.f, m.t_end, m.y0)

    def _build(self) -> None:
        self.close()
        self.models = [build_native_model(tag, self.seed, self.dirs, self.clock)
                       for tag in self.tags]
        self.samples = {f"native/{m.tag}": m.samples for m in self.models}

    def _callables(self) -> dict:
        """The RHS callable each model's solves use, by tag."""
        return {m.tag: m.f for m in self.models}

    def rhs_outputs(self, perturb: float) -> list:
        out = []
        calls = self._callables()
        for m in self.models:
            fn = calls[m.tag]
            if perturb:
                fn = oracle.perturbed(fn, perturb)
            out.append((f"{self.name}/{m.tag}", f"native/{m.tag}",
                        oracle.rhs_values(fn, m.samples)))
        return out

    def backend_checks(self) -> list[str]:
        return [line for m in self.models
                for line in oracle.check_backend(f"{self.name}/{m.tag}", m.program)]

    def native_loader(self) -> str:
        return loader_of(m.program for m in self.models)

    def native_probes(self, models=None) -> dict:
        """``rhs.call_us`` and ``codegen.native_rhs_us`` per model."""
        out = {}
        for m in self.models if models is None else models:
            args = list(m.samples.states)
            out[f"rhs.call_us.{m.tag}"] = _time_calls_us(m.f, args, PROBE_CALLS)
            rhs = m.program.native_module.rhs
            buf = np.empty(m.program.num_states)
            nargs = [(t, y, m.params, buf) for t, y in args]
            out[f"codegen.native_rhs_us.{m.tag}"] = _time_calls_us(
                rhs, nargs, PROBE_CALLS)
        return out

    def close(self) -> None:
        self.models = []


class SolveWorkload(NativeWorkload):
    """Monolithic native RHS, one solver method to a fixed t."""

    method = ""

    def setup(self) -> None:
        self._build()
        for m in self.models:
            solve_ivp(self.clock.ticking(m.f), (0.0, m.t_end * WARMUP_FRACTION),
                      m.y0, method=self.method)

    def op(self, perturb: float = 0.0) -> OpResult:
        tracer = self.tracer
        method = self.method
        result = OpResult()
        total = 0.0
        for m in self.models:
            f = oracle.perturbed(m.f, perturb) if perturb else m.f
            f = self.clock.ticking(tracer.rollup("rhs.compute", f))
            with tracer.span("solve", model=m.tag, method=method) as span:
                res, wall = _timed(
                    self.clock, solve_ivp, f, (0.0, m.t_end), m.y0, method)
            total += wall
            label = f"{self.name}/{m.tag}"
            if not res.success:
                result.failures.append(f"{label}: {res.message}")
            result.finals.append((label, f"native/{m.tag}", res.y_final.copy(),
                                  oracle.final_tol(m.tag, method)))
            _sum_layer(result.layers, {
                f"solver.nfev.{method}": res.stats.nfev,
                f"solver.nsteps.{method}": res.stats.nsteps,
                f"solver.nrejected.{method}": res.stats.nrejected,
            })
            if method == "bdf":
                _sum_layer(result.layers, {
                    "solver.njev.bdf": res.stats.njev,
                    "solver.nlu.bdf": res.stats.nlu,
                    "solver.newton_iters.bdf": res.stats.newton_iters,
                })
            if span is not None:
                inside = span.rollups.get("rhs.compute", (0, 0))[1] / 1e9
                _sum_layer(result.layers, {
                    f"rhs.compute_s.{method}": inside,
                    f"solver.self_s.{method}": span.duration_ns / 1e9 - inside,
                })
        result.wall_s = total
        result.parts[f"solve_{method}_s"] = total
        result.layers[f"solver.{method}_s"] = total
        result.failures += self.backend_checks()
        result.rhs += self.rhs_outputs(perturb)
        return result

    def probes(self) -> dict:
        return self.native_probes()


class SolveBdfWorkload(SolveWorkload):
    name = "solve_bdf"
    method = "bdf"
    tags = ("b2d10", "b3d", "b2d100")


class _TracedParallelRHS:
    """A ``ParallelRHS`` whose calls and stage rounds fold into spans."""

    def __init__(self, prhs: ParallelRHS, tracer: Tracer) -> None:
        self._call = tracer.rollup("rhs.parallel", prhs)
        self.eval_stages = tracer.rollup("rhs.parallel", prhs.eval_stages)

    def __call__(self, t, y):
        return self._call(t, y)


def _process_rounds(m: NativeModel, args) -> list[float]:
    """Per-call µs of a ``ProcessExecutor`` round; empty when the host
    offers no POSIX shared memory (the pool's segments live there)."""
    try:
        # spawn, not fork: this process already runs executor threads
        executor = ProcessExecutor(m.program, NPROC, start_method="spawn")
    except OSError as exc:
        print(f"# runtime.round_us.processes.{m.tag}: pool unavailable: {exc}")
        return []
    procs = ParallelRHS(m.program, executor, params=m.params)
    try:
        return _time_calls_us(procs, args, ROUND_CALLS)
    finally:
        procs.close()


def runtime_probes(m: NativeModel, prhs: ParallelRHS) -> dict:
    """Per-round runtime metrics of one model's threaded ``ParallelRHS``."""
    tag = m.tag
    out = {}
    args = list(m.samples.states)
    executor = prhs.executor
    out[f"runtime.stage_chunk.{tag}"] = [float(prhs._auto_chunk or 1)]
    # The threaded executor recomputes this schedule every round.
    out[f"schedule.lpt_us.{tag}"] = _time_calls_us(
        lpt_schedule, [(m.program.task_graph, NPROC)], ROUND_CALLS)
    out[f"runtime.dispatch_us.{tag}"] = [
        executor.measure_dispatch_overhead() * 1e6 for _ in range(5)]
    # One threaded round per call, with its workers' busy share.
    rounds, busy = [], []
    clock = time.perf_counter_ns
    for r in range(ROUND_CALLS):
        t, y = args[r % len(args)]
        t0 = clock()
        prhs(t, y)
        wall = clock() - t0
        rounds.append(wall / 1e3)
        busy.append(float(np.sum(executor.last_task_times))
                    / (executor.num_workers * wall / 1e9))
    out[f"runtime.round_us.threads.{tag}"] = rounds
    out[f"runtime.busy_ratio.{tag}"] = busy
    serial = ParallelRHS(m.program, SerialExecutor(m.program), params=m.params)
    out[f"runtime.round_us.serial.{tag}"] = _time_calls_us(
        serial, args, ROUND_CALLS)
    out[f"runtime.round_us.processes.{tag}"] = _process_rounds(m, args)
    # One call of every task callable, in dependency order.
    tasks = m.program.task_callables()
    order = [tid for level in dependency_levels(m.program.task_graph)
             for tid in level]
    res = m.program.results_buffer()
    sums = []
    for r in range(ROUND_CALLS):
        t, y = args[r % len(args)]
        total = 0
        for tid in order:
            t0 = clock()
            tasks[tid](t, y, m.params, res)
            total += clock() - t0
        sums.append(total / 1e3)
    out[f"runtime.task_calls_us.{tag}"] = sums
    # against one direct native RHS call into a preallocated buffer
    direct = _time_calls_us(
        m.program.native_module.rhs,
        [(t, y, m.params, np.empty(m.program.num_states)) for t, y in args],
        ROUND_CALLS)
    out[f"runtime.task_overhead_ratio.{tag}"] = [
        float(np.median(sums)) / float(np.median(direct))]
    return out


class SolveRk45Workload(SolveWorkload):
    """The serial baseline; its traced run also solves through threaded
    native tasks (the parallel runtime) and probes the runtime layers."""

    name = "solve_rk45"
    method = "rk45"
    tags = ("b2d10", "b3d")

    def probes(self) -> dict:
        out = self.native_probes()
        self.probe_result = OpResult()
        for m in self.models:
            prhs = ParallelRHS(m.program, ThreadedExecutor(m.program, NPROC),
                               params=m.params)
            try:
                _merge_samples(out, self._parallel_solve(m, prhs))
                out.update(runtime_probes(m, prhs))
            finally:
                prhs.close()
        # bearing2d-100, the largest task grain, is probed but not solved
        # here: rk45 on it would outlast the run.
        big = build_native_model(PROBE_ONLY, self.seed, self.dirs, self.clock)
        prhs = ParallelRHS(big.program, ThreadedExecutor(big.program, NPROC),
                           params=big.params)
        try:
            out.update(self.native_probes([big]))
            out.update(runtime_probes(big, prhs))
        finally:
            prhs.close()
        return out

    def _parallel_solve(self, m: NativeModel, prhs: ParallelRHS) -> dict:
        """One model's rk45 solve through ``prhs`` (``ParallelRHS`` over
        ``ThreadedExecutor(nproc)``, default fusion, ``stage_chunk="auto"``)
        against the same solve on the monolithic RHS, the speed-up base."""
        tracer = self.tracer
        window = (0.0, m.t_end * WARMUP_FRACTION)
        solve_ivp(prhs, window, m.y0, method="rk45")  # warm-up
        tracer.enabled = True
        tracer.begin_trace()
        try:
            with tracer.span("solve", model=m.tag, method="parallel") as span:
                res, par = _timed(self.clock, solve_ivp,
                                  _TracedParallelRHS(prhs, tracer),
                                  (0.0, m.t_end), m.y0, "rk45")
            inside = span.rollups.get("rhs.parallel", (0, 0))[1] / 1e9
            with tracer.span("solve", model=m.tag, method="monolithic"):
                base_res, base = _timed(self.clock, solve_ivp, m.f,
                                        (0.0, m.t_end), m.y0, "rk45")
        finally:
            tracer.enabled = False
        check = self.probe_result
        label = f"parallel/{m.tag}"
        if not res.success:
            check.failures.append(f"{label}: {res.message}")
        check.finals.append((label, f"native/{m.tag}", res.y_final.copy(),
                             oracle.final_tol(m.tag, "parallel")))
        check.finals.append((f"{label}/monolithic", f"native/{m.tag}",
                             base_res.y_final.copy(), oracle.final_tol(m.tag, "rk45")))
        check.rhs.append((label, f"native/{m.tag}",
                          oracle.rhs_values(prhs, m.samples)))
        return {
            "runtime.parallel_solve_s": par,
            "runtime.monolithic_solve_s": base,
            "solver.self_s.parallel": span.duration_ns / 1e9 - inside,
            "solver.nfev.parallel": res.stats.nfev,
        }


def _merge_samples(out: dict, per_model: dict) -> None:
    """Sum one model's values into single-sample totals of ``out``."""
    for name, value in per_model.items():
        out[name] = [out.get(name, [0.0])[0] + value]
    out["runtime.parallel_speedup"] = [
        out["runtime.monolithic_solve_s"][0] / out["runtime.parallel_solve_s"][0]]


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

ENSEMBLE_LANES = 256
ENSEMBLE_T_END = 0.02
ENSEMBLE_SPREAD = 0.20
#: the warm-up batch integrates this fraction of the horizon
ENSEMBLE_WARMUP = 0.1
#: lanes checked against SciPy references (seeded choice)
ENSEMBLE_CHECKED_LANES = 4
SWEEP_CALLS = 200


class EnsembleWorkload(Workload):
    """256 lanes of bearing2d-10 on the NumPy backend, batched rk45."""

    name = "ensemble"

    def __init__(self, seed: int, tracer: Tracer, dirs: RunDirs) -> None:
        super().__init__(seed, tracer, dirs)
        self.program = None
        self.ens: EnsembleRHS | None = None
        self.lanes: list[int] = []

    @staticmethod
    def _factory():
        return build_bearing2d(BearingParams(num_rollers=10))

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        # Array-mode NumPy artifacts are not cacheable, so every set-up
        # compiles; it is the array path's cheap compile.
        ctx = compile_once(
            self.tracer, self.clock,
            CompileOptions(backend="numpy", flatten_mode="array"),
            model=self._factory(),
        )
        program = self.program = ctx.program
        names = program.system.param_names
        P = np.tile(program.param_vector(), (ENSEMBLE_LANES, 1))
        for name in LOAD_PARAMS:
            j = names.index(name)
            P[:, j] *= rng.uniform(1 - ENSEMBLE_SPREAD, 1 + ENSEMBLE_SPREAD,
                                   ENSEMBLE_LANES)
        self.P = P
        self.Y0 = np.tile(program.start_vector(), (ENSEMBLE_LANES, 1))
        self.ens = EnsembleRHS(program, P)
        self.lanes = sorted(rng.choice(ENSEMBLE_LANES, ENSEMBLE_CHECKED_LANES,
                                       replace=False).tolist())
        self.samples = {
            f"ensemble/lane{k}": oracle.sample_states(
                program, np.random.default_rng([self.seed, 30, k]))
            for k in range(ENSEMBLE_CHECKED_LANES)
        }
        # The first batch solve of a process is markedly slower.
        solve_ivp_batch(self.clock.ticking(self.ens),
                        (0.0, ENSEMBLE_T_END * ENSEMBLE_WARMUP),
                        self.Y0, method="rk45")

    def prepare_oracle(self) -> None:
        system = oracle.scalar_system(model=self._factory())
        names = self.program.system.param_names
        for k, lane in enumerate(self.lanes):
            key = f"ensemble/lane{k}"
            params = dict(zip(names, self.P[lane]))
            self.expected[key] = oracle.interpreter_values(
                system, params, self.samples[key])
            self.references[key] = oracle.reference_solve(
                self.program.make_rhs(self.P[lane]), ENSEMBLE_T_END,
                self.Y0[lane])

    def op(self, perturb: float = 0.0) -> OpResult:
        tracer = self.tracer
        result = OpResult()
        f = oracle.perturbed(self.ens, perturb) if perturb else self.ens
        f = self.clock.ticking(tracer.rollup("rhs_batch.sweep", f))
        with tracer.span("solve_batch", lanes=ENSEMBLE_LANES) as span:
            batch, wall = _timed(self.clock, solve_ivp_batch, f,
                                 (0.0, ENSEMBLE_T_END), self.Y0, "rk45")
        if not batch.all_success:
            result.failures.append("ensemble: not every lane succeeded")
        for k, lane in enumerate(self.lanes):
            result.finals.append((
                f"ensemble/lane{lane}", f"ensemble/lane{k}",
                batch.results[lane].y_final.copy(),
                oracle.final_tol("ensemble", "rk45")))
        result.wall_s = wall
        result.parts.update({
            "ensemble_traj_per_s": ENSEMBLE_LANES / wall,
            "ensemble_solve_s": wall,
        })
        result.layers.update({
            "solver.batch_s": wall,
            "solver.batch.traj_per_s": ENSEMBLE_LANES / wall,
            "solver.batch.nsweeps": batch.nsweeps,
        })
        if span is not None:
            inside = span.rollups.get("rhs_batch.sweep", (0, 0))[1] / 1e9
            result.layers["solver.batch.self_s"] = span.duration_ns / 1e9 - inside
        result.rhs += self.rhs_outputs(perturb)
        return result

    def rhs_outputs(self, perturb: float) -> list:
        out = []
        for k, lane in enumerate(self.lanes):
            def fn(t, y, lane=lane):
                Y = self.Y0.copy()
                Y[lane] = y
                return self.ens(t, Y)[lane].copy()

            if perturb:
                fn = oracle.perturbed(fn, perturb)
            key = f"ensemble/lane{k}"
            out.append((f"ensemble/lane{lane}", key,
                        oracle.rhs_values(fn, self.samples[key])))
        return out

    def probes(self) -> dict:
        states = self.samples["ensemble/lane0"].states
        Y = [(t, np.tile(y, (ENSEMBLE_LANES, 1))) for t, y in states]
        return {"rhs_batch.sweep_us": _time_calls_us(self.ens, Y, SWEEP_CALLS)}

    def native_loader(self) -> str:
        return "not used (numpy backend)"

    def close(self) -> None:
        self.ens = None


WORKLOADS = {
    w.name: w
    for w in (CompileColdWorkload, CompileWarmWorkload, SolveRk45Workload,
              SolveBdfWorkload, EnsembleWorkload)
}
