"""C back end.

The ObjectMath code generator also emitted C++ (Figure 8/9).  Both C
printers here are pure formatting over one shared
:class:`~repro.codegen.lower.Lowering` — the CSE blocks, Jacobian entries
and symbol loads are computed once, in :mod:`repro.codegen.lower`:

* :func:`generate_c` prints the inspectable textual artifact (``repro
  codegen -t c``) with the same structure as the Fortran 90 one: ``RHS``
  as a ``switch (workerid)`` in parallel mode or straight-line code in
  serial mode, plus the generated start-value function;
* :func:`print_c_tasks` (and its standalone form :func:`generate_c_tasks`)
  prints the self-contained *executable* translation unit
  (:class:`NativeSource`) for ``backend="c"``: serial ``RHS``, one
  exported ``task_k`` entry point per (possibly fused) task body, the
  sparse analytic Jacobian with its entries reordered by SCC block, and
  the start/parameter vectors.  The native build layer
  (:mod:`repro.codegen.native`) compiles it into a loadable shared
  object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..schedule.lpt import Schedule
from ..symbolic.printer import code as expr_code
from .gen_python import NameTable
from .lower import Lowering, lower
from .tasks import TaskPlan, partition_tasks
from .transform import OdeSystem

__all__ = [
    "CSource", "NativeSource", "generate_c", "generate_c_tasks", "print_c_tasks",
]


@dataclass(frozen=True)
class CSource:
    """Generated C source plus statistics."""

    source: str
    num_lines: int
    num_cse: int
    mode: str

    def __str__(self) -> str:
        return f"C[{self.mode}]: {self.num_lines} lines, {self.num_cse} CSEs"


#: ``static inline`` so a model that never calls sign() still compiles
#: under ``-Wall -Werror`` (unused static inline functions do not warn).
_SIGN_HELPER = (
    "static inline double sign(double v) "
    "{ return v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0); }"
)


@dataclass(frozen=True)
class NativeSource:
    """A self-contained executable C translation unit plus its interface.

    Everything here is plain strings/ints/tuples: the object pickles for
    :class:`~repro.codegen.program.ProgramSpec` (process-pool workers
    rebuild native modules from it) and serialises into the artifact
    cache.  ``cdef`` is the cffi declaration block matching ``source``'s
    exported symbols; ``jac_rows``/``jac_cols`` record the sparse Jacobian
    pattern (row-major within each SCC block) so the Python wrapper can
    scatter values without calling back into C.
    """

    source: str
    cdef: str
    name: str
    num_states: int
    num_partials: int
    num_tasks: int
    num_params: int
    has_jacobian: bool
    jac_rows: tuple[int, ...]
    jac_cols: tuple[int, ...]
    num_lines: int
    num_cse: int

    @property
    def jac_nnz(self) -> int:
        return len(self.jac_rows)

    def __str__(self) -> str:
        jac = f", jac nnz={self.jac_nnz}" if self.has_jacobian else ""
        return (
            f"C[native]: {self.num_lines} lines, {self.num_tasks} tasks, "
            f"{self.num_cse} CSEs{jac}"
        )


#: where each load kind lives in a generated C function
_SLOTS = {"t": "t", "state": "yin[{0}]", "param": "p[{0}]", "partial": "yout[{0}]"}

_ASSIGN = "  const double {} = {};"


def generate_c(
    system: OdeSystem,
    plan: TaskPlan | None = None,
    schedule: Schedule | None = None,
    mode: str = "parallel",
    cse_min_ops: int = 1,
    jacobian: bool = False,
) -> CSource:
    """Generate C source for ``system`` (see :func:`generate_fortran`).

    ``jacobian=True`` additionally emits the analytic ``JAC`` function
    (section 3.2.1's user-supplied Jacobian, generated)."""
    if mode not in ("parallel", "serial"):
        raise ValueError(f"unknown mode {mode!r}")
    if plan is None:
        plan = partition_tasks(system)
    low = lower(system, plan, jacobian, cse_min_ops)

    lines: list[str] = [
        f"/* Generated by repro.codegen.gen_c for model {system.name} */",
        "#include <math.h>",
        "",
        _SIGN_HELPER,
        "",
    ]

    if mode == "serial":
        num_cse = low.num_cse_serial
        lines.append(
            "void RHS(double t, const double *yin, const double *p, "
            "double *yout)"
        )
        lines.append("{")
        lines += low.serial.lines(
            NameTable(reserved=["t", "yin", "p", "yout"]), "c", _SLOTS,
            _ASSIGN, "  yout[{}] = {};",
        )
        lines.append("}")
    else:
        num_cse = low.num_cse_parallel
        if schedule is not None:
            case_tasks = [
                list(schedule.tasks_of(w)) for w in range(schedule.num_workers)
            ]
        else:
            case_tasks = [[b.task_id] for b in plan.bodies]

        lines.append(
            "void RHS(int workerid, double t, const double *yin, "
            "const double *p, double *yout)"
        )
        lines.append("{")
        lines.append("  switch (workerid) {")
        for case_no, task_ids in enumerate(case_tasks, start=1):
            lines.append(f"  case {case_no}: {{")
            # Block-scoped names: fresh table per case keeps C legal; the
            # emitted set deduplicates loads shared by the case's tasks.
            names = NameTable(reserved=["t", "yin", "p", "yout", "workerid"])
            emitted: set[str] = set()
            for tid in task_ids:
                block = low.tasks[tid]
                loads = tuple(
                    ld for ld in block.loads if ld.name not in emitted
                )
                emitted.update(ld.name for ld in loads)
                lines += block._replace(loads=loads).lines(
                    names, "c", _SLOTS, "  " + _ASSIGN, "    yout[{}] = {};"
                )
            lines.append("    break;")
            lines.append("  }")
        lines.append("  }")
        lines.append("}")

    if low.jac is not None:
        names = NameTable(reserved=["t", "yin", "p", "dfdy", "n"])
        n = system.num_states
        lines.append("")
        lines.append(
            "void JAC(double t, const double *yin, const double *p, "
            "double *dfdy)"
        )
        lines.append("{")
        lines.append(f"  for (int k = 0; k < {n * n}; ++k) dfdy[k] = 0.0;")
        lines += low.jac.lines(names, "c", _SLOTS, _ASSIGN)
        lines += [
            f"  dfdy[{i * n + j}] = {expr_code(e, 'c', names)};"
            for (i, j), e in low.jac.stores
        ]
        lines.append("}")

    lines.append("")
    lines.append("void START(double *y0)")
    lines.append("{")
    for i, (name, value) in enumerate(zip(system.state_names, low.start_values)):
        lines.append(f"  y0[{i}] = {value!r};  /* {name} */")
    lines.append("}")

    source = "\n".join(lines)
    return CSource(
        source=source, num_lines=len(lines), num_cse=num_cse, mode=mode
    )


# ---------------------------------------------------------------------------
# Executable translation unit (backend="c")
# ---------------------------------------------------------------------------

_ARGS = "double t, const double *yin, const double *p, double *yout"


def generate_c_tasks(
    system: OdeSystem,
    plan: TaskPlan | None = None,
    jacobian: bool = False,
    cse_min_ops: int = 1,
    blocks: Mapping[str, int] | None = None,
) -> NativeSource:
    """Emit the executable C translation unit for ``backend="c"``.

    Exports (all ``double`` buffers are caller-allocated):

    * ``RHS(t, yin, p, yout)`` — serial global-CSE evaluation writing the
      ``num_states`` derivatives,
    * ``task_<k>(t, yin, p, yout)`` — one entry point per (fused) task
      body of ``plan``, writing its slots of the shared results vector
      (states first, partial sums after — the Python backend's layout),
    * with ``jacobian=True``: ``JAC(t, yin, p, vals)`` writing only the
      structurally nonzero entries (ordered per SCC block via
      ``blocks``), plus ``JAC_NNZ()`` / ``JAC_PATTERN(rows, cols)``,
    * ``START(y0)`` / ``PARAMS(pout)`` and the ``NUM_*()`` layout probes
      the loader cross-checks against this object.

    The unit is self-contained (``#include <math.h>`` only) and compiles
    warning-free under ``-Wall -Werror``.
    """
    if plan is None:
        plan = partition_tasks(system)
    return print_c_tasks(lower(system, plan, jacobian, cse_min_ops), blocks)


def print_c_tasks(
    low: Lowering, blocks: Mapping[str, int] | None = None
) -> NativeSource:
    """Format a :class:`~repro.codegen.lower.Lowering` as the executable
    translation unit (see :func:`generate_c_tasks`).

    ``blocks`` is the analysis partition's state-name → SCC-block
    membership.  The Jacobian entries are grouped by their row state's
    block (row-major within a block) so ``JAC`` walks one diagonal block
    at a time — the iteration order of Peleš & Klus's block-sparse
    evaluation.  States the partition does not know sort last.
    """
    system, plan = low.system, low.plan
    n = system.num_states
    num_partials = len(plan.partial_slots)
    num_tasks = len(plan.bodies)

    lines: list[str] = [
        f"/* Generated by repro.codegen.gen_c (native) "
        f"for model {system.name} */",
        "#include <math.h>",
        "",
        _SIGN_HELPER,
        "",
        f"int NUM_STATES(void) {{ return {n}; }}",
        f"int NUM_PARTIALS(void) {{ return {num_partials}; }}",
        f"int NUM_TASKS(void) {{ return {num_tasks}; }}",
        "",
    ]
    cdef: list[str] = [
        "int NUM_STATES(void);",
        "int NUM_PARTIALS(void);",
        "int NUM_TASKS(void);",
        f"void RHS({_ARGS});",
    ]
    num_cse = low.num_cse_serial + low.num_cse_parallel

    # -- serial RHS (global CSE over the full system) ----------------------
    lines.append(f"void RHS({_ARGS})")
    lines.append("{")
    lines += low.serial.lines(
        NameTable(reserved=["t", "yin", "p", "yout"]), "c", _SLOTS, _ASSIGN,
        "  yout[{}] = {};",
    )
    lines.append("}")

    # -- one exported entry point per (fused) task body --------------------
    for body, block in zip(plan.bodies, low.tasks):
        fn = f"task_{body.task_id}"
        cdef.append(f"void {fn}({_ARGS});")
        lines.append("")
        lines.append(f"/* {body.name} */")
        lines.append(f"void {fn}({_ARGS})")
        lines.append("{")
        lines += block.lines(
            NameTable(reserved=["t", "yin", "p", "yout"]), "c", _SLOTS,
            _ASSIGN, "  yout[{}] = {};",
        )
        lines.append("}")

    # -- sparse SCC-block Jacobian -----------------------------------------
    jac_rows: tuple[int, ...] = ()
    jac_cols: tuple[int, ...] = ()
    if low.jac is not None:
        jac = low.jac
        num_cse += len(jac.temps)
        block_of = None
        stores = jac.stores
        if blocks:
            fallback = 1 + max(blocks.values(), default=-1)
            block_of = [blocks.get(s, fallback) for s in system.state_names]
            stores = sorted(stores, key=lambda st: (block_of[st[0][0]], st[0]))
        jac_rows = tuple(i for (i, _), _ in stores)
        jac_cols = tuple(j for (_, j), _ in stores)
        nnz = len(stores)
        cdef.append("void JAC(double t, const double *yin, "
                    "const double *p, double *vals);")
        cdef.append("int JAC_NNZ(void);")
        cdef.append("void JAC_PATTERN(int *rows, int *cols);")

        names = NameTable(reserved=["t", "yin", "p", "vals"])
        lines.append("")
        lines.append(f"int JAC_NNZ(void) {{ return {nnz}; }}")
        lines.append("")
        lines.append("void JAC_PATTERN(int *rows, int *cols)")
        lines.append("{")
        if nnz:
            rows_text = ", ".join(str(i) for i in jac_rows)
            cols_text = ", ".join(str(j) for j in jac_cols)
            lines.append(f"  static const int r[] = {{{rows_text}}};")
            lines.append(f"  static const int c[] = {{{cols_text}}};")
            lines.append(
                f"  for (int k = 0; k < {nnz}; ++k) "
                "{ rows[k] = r[k]; cols[k] = c[k]; }"
            )
        else:
            lines.append("  (void)rows; (void)cols;")
        lines.append("}")
        lines.append("")
        lines.append(
            "void JAC(double t, const double *yin, const double *p, "
            "double *vals)"
        )
        lines.append("{")
        lines += jac.lines(names, "c", _SLOTS, _ASSIGN)
        if not (jac.loads or jac.temps or stores):
            lines.append("  (void)t; (void)yin; (void)p; (void)vals;")
        last_block: int | None = None
        for k, ((i, j), expr) in enumerate(stores):
            if block_of is not None and block_of[i] != last_block:
                last_block = block_of[i]
                lines.append(f"  /* SCC block {last_block} */")
            lines.append(
                f"  vals[{k}] = {expr_code(expr, 'c', names)};"
                f"  /* d f[{i}] / d y[{j}] */"
            )
        lines.append("}")

    # -- start values and parameters ---------------------------------------
    cdef.append("void START(double *y0);")
    cdef.append("void PARAMS(double *pout);")
    lines.append("")
    lines.append("void START(double *y0)")
    lines.append("{")
    if not system.state_names:
        lines.append("  (void)y0;")
    for i, (name, value) in enumerate(zip(system.state_names, low.start_values)):
        lines.append(f"  y0[{i}] = {value!r};  /* {name} */")
    lines.append("}")
    lines.append("")
    lines.append("void PARAMS(double *pout)")
    lines.append("{")
    if not system.param_names:
        lines.append("  (void)pout;")
    for i, (name, value) in enumerate(zip(system.param_names, low.param_values)):
        lines.append(f"  pout[{i}] = {value!r};  /* {name} */")
    lines.append("}")

    return NativeSource(
        source="\n".join(lines),
        cdef="\n".join(cdef),
        name=system.name,
        num_states=n,
        num_partials=num_partials,
        num_tasks=num_tasks,
        num_params=len(system.param_names),
        has_jacobian=low.jac is not None,
        jac_rows=jac_rows,
        jac_cols=jac_cols,
        num_lines=len(lines),
        num_cse=num_cse,
    )
