"""Correctness oracle for every benchmark operation.

Three independent checks, none of which trusts generated code:

* RHS values.  At seeded sample states, the callable an operation
  actually used (``program.rhs``, the ``make_rhs`` closure, a
  ``ParallelRHS`` or an ``EnsembleRHS``) must match the symbolic
  interpreter, ``repro.symbolic.subs.evaluate``, run over the
  scalar-mode ``OdeSystem`` of the same model.  The tolerance is far
  below the 1e-6 relative perturbation of the negative control.
* Final states.  Each solve must end near a SciPy ``solve_ivp`` (LSODA,
  rtol 1e-10) reference.  Adaptive solvers and parallel task rounds
  differ from it by about rtol times the state scale, so the tolerance
  is relative to each component's largest magnitude along the reference
  trajectory, set per model and method from the measured worst case.
* Backend.  A ``backend="c"`` program whose native module is missing
  silently runs Python tasks; that counts as a failure.

Operations only record what they computed (RHS values at the sample
states, final states); the interpreter and the references are built
after the measured operations and compared then, so neither their time
nor their memory is charged to the program under test.

For the default seed the interpreter's values are also compared with the
checked-in ``expected_seed1.json``, which guards the oracle itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.compiler import CompileOptions, compile_context
from repro.symbolic.subs import evaluate

__all__ = [
    "DEFAULT_SEED",
    "EXPECTED_PATH",
    "FINAL_CONTROL",
    "PERTURBATION",
    "Reference",
    "Samples",
    "check_backend",
    "check_expected",
    "check_final",
    "check_rhs",
    "final_error",
    "final_tol",
    "interpreter_values",
    "perturbed",
    "reference_solve",
    "rhs_values",
    "sample_states",
    "scalar_system",
]

#: seed whose interpreter values are pinned in EXPECTED_PATH
DEFAULT_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected_seed1.json")

#: RHS agreement: |got - ref| <= RHS_RTOL*|ref| + RHS_ATOL*max|ref|
RHS_RTOL = 1e-9
RHS_ATOL = 1e-12
#: relative output perturbation the negative control injects
PERTURBATION = 1e-6
#: relative RHS perturbation whose solves the final-state check must
#: flag (``selfcheck.py``)
FINAL_CONTROL = 3e-3
#: final-state agreement per (model, method), relative to each
#: component's largest magnitude along the reference trajectory (floored
#: at FINAL_FLOOR of the largest component, for components that stay
#: near zero): three times the worst error seen over seeds 1-12.  The
#: parallel solves are rk45 with another floating-point summation order
#: and share its limit; on bearing2d-10 that order alone moves one
#: roller's spin by 5e-3 of its scale (seed 12), so that limit is loose.
FINAL_TOL = {
    ("b2d10", "rk45"): 1.5e-2,
    ("b2d10", "bdf"): 1.1e-4,
    ("b3d", "rk45"): 2.6e-3,
    ("b3d", "bdf"): 1.7e-4,
    ("b2d100", "bdf"): 2.3e-3,
    ("ensemble", "rk45"): 1e-4,
}
FINAL_FLOOR = 1e-6
#: how far sample states stray from the start vector, relative
SAMPLE_SPREAD = 1e-3
SAMPLE_STATES = 2


@dataclass(frozen=True)
class Samples:
    """Seeded sample states in one program's state layout."""

    names: tuple[str, ...]
    states: tuple[tuple[float, np.ndarray], ...]


@dataclass(frozen=True)
class Reference:
    y_final: np.ndarray
    scale: np.ndarray


def final_tol(model: str, method: str) -> float:
    return FINAL_TOL[(model, "rk45" if method == "parallel" else method)]


def sample_states(program, rng: np.random.Generator) -> Samples:
    """States near ``program``'s start vector, in its layout.

    The noise is drawn in sorted state-name order, so the states (and
    the pinned interpreter values) do not depend on how a program lays
    out its state vector.
    """
    names = tuple(program.system.state_names)
    y0 = np.asarray(program.start_vector(), dtype=float)
    order = np.array(sorted(range(len(names)), key=names.__getitem__))
    states = []
    for k in range(SAMPLE_STATES):
        y = y0.copy()
        noise = rng.normal(size=y0.size)
        y[order] = y0[order] + noise * SAMPLE_SPREAD * (np.abs(y0[order]) + 0.01)
        states.append((0.01 * k, y))
    return Samples(names, tuple(states))


def rhs_values(fn: Callable, samples: Samples) -> list[np.ndarray]:
    """``fn(t, y)`` at every sample state (recorded during an operation)."""
    return [np.array(fn(t, y), dtype=float) for t, y in samples.states]


def scalar_system(source=None, model=None):
    """The scalar-mode ``OdeSystem`` the interpreter evaluates."""
    ctx = compile_context(
        source=source, model=model,
        options=CompileOptions(flatten_mode="scalar"), until="transform",
    )
    return ctx.system


def interpreter_values(system, params: dict, samples: Samples) -> list[np.ndarray]:
    """The interpreter's RHS at each sample state, in the samples' layout.

    ``params`` maps parameter names to the values the checked program is
    expected to use; the others keep the model's defaults.
    """
    index = {n: i for i, n in enumerate(system.state_names)}
    if sorted(index) != sorted(samples.names):
        raise RuntimeError("program and interpreter disagree on the states")
    perm = np.array([index[n] for n in samples.names])
    env_params = dict(system.param_map())
    env_params.update(params)
    out = []
    for t, y in samples.states:
        env = dict(env_params)
        env.update(zip(samples.names, y))
        env[system.free_var] = t
        ref = np.array([evaluate(e, env) for e in system.rhs])
        out.append(ref[perm])
    return out


def check_rhs(label: str, got: list[np.ndarray], want: list[np.ndarray],
              names: tuple[str, ...]) -> list[str]:
    """Recorded RHS values against the interpreter's."""
    failures = []
    for k, (g, ref) in enumerate(zip(got, want)):
        bound = RHS_RTOL * np.abs(ref) + RHS_ATOL * np.max(np.abs(ref))
        err = np.abs(g - ref)
        if g.shape != ref.shape or not np.all(err <= bound):
            i = int(np.argmax(err - bound)) if g.shape == ref.shape else 0
            failures.append(
                f"{label}: RHS differs from the interpreter at sample {k} "
                f"({names[i]}: got {float(g.flat[i])!r}, want {float(ref[i])!r})"
            )
    return failures


def perturbed(fn: Callable, rel: float = PERTURBATION) -> Callable:
    """``fn`` with its output scaled by ``1 + rel`` (negative controls)."""

    def wrong(*args):
        return np.asarray(fn(*args), dtype=float) * (1.0 + rel)

    return wrong


def reference_solve(f: Callable, t_end: float, y0: np.ndarray) -> Reference:
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    sol = scipy_solve_ivp(
        f, (0.0, t_end), y0, method="LSODA", rtol=1e-10, atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    scale = np.max(np.abs(sol.y), axis=1)
    scale = np.maximum(scale, FINAL_FLOOR * float(np.max(scale)))
    return Reference(sol.y[:, -1].copy(), scale)


def final_error(y: np.ndarray, ref: Reference) -> float:
    return float(np.max(np.abs(np.asarray(y) - ref.y_final) / ref.scale))


def check_final(label: str, y: np.ndarray, ref: Reference, tol: float) -> list[str]:
    err = np.abs(np.asarray(y) - ref.y_final) / ref.scale
    if not np.all(err <= tol):
        i = int(np.argmax(err))
        return [
            f"{label}: final state differs from the SciPy reference "
            f"(component {i}: {err[i]:.3g} of its scale, limit {tol:g})"
        ]
    return []


def check_backend(label: str, program) -> list[str]:
    if program.native_module is None:
        reason = program.native_fallback_reason or "unknown"
        return [f"{label}: backend='c' degraded to Python tasks ({reason})"]
    return []


def check_expected(seed: int, values: dict[str, list[np.ndarray]]) -> list[str]:
    """Interpreter values for the default seed against the pinned file."""
    if seed != DEFAULT_SEED:
        return []
    expected = json.loads(EXPECTED_PATH.read_text())
    failures = []
    for label, got in values.items():
        want = expected.get(label)
        if want is None:
            failures.append(f"{label}: no expected values in {EXPECTED_PATH.name}")
            continue
        if len(got) != len(want) or not all(
            np.allclose(g, w, rtol=1e-12, atol=0.0) for g, w in zip(got, want)
        ):
            failures.append(
                f"{label}: interpreter values differ from {EXPECTED_PATH.name}"
            )
    return failures


def write_expected(values: dict[str, list[np.ndarray]]) -> None:
    """Merge ``values`` into the pinned file (run with the default seed)."""
    data = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    for label, model_values in values.items():
        data[label] = [v.tolist() for v in model_values]
    EXPECTED_PATH.write_text(json.dumps(data, sort_keys=True) + "\n")
