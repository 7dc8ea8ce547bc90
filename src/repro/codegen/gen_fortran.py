"""Fortran 90 back end.

Reproduces the artifact shape of Figure 11: one ``subroutine RHS`` whose
body is a ``select case (workerid)`` with the task bodies of each worker
inlined ("the generated code for all right-hand sides have been put into
the single subroutine RHS.  The derivatives have been replaced by the
variables xdot and ydot").

Two modes are generated:

* **parallel** — per-task CSE, one ``case`` per worker (given a schedule)
  or per task; no subexpression crosses a case,
* **serial** — a straight-line subroutine with global CSE over all
  equations, the mode the paper contrasts in section 3.3 (10 913 lines /
  4 642 CSEs parallel vs 4 301 lines / 1 840 CSEs serial for the 2D
  bearing).

Like every printer, this one is pure formatting over the shared
:class:`~repro.codegen.lower.Lowering` (CSE blocks, Jacobian entries,
symbol loads).  The emitted source is valid-looking Fortran 90 meant for
inspection and statistics, not compiled here (no Fortran toolchain is
assumed); the executable path is :mod:`repro.codegen.gen_python`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..schedule.lpt import Schedule
from ..symbolic.printer import code as expr_code
from .gen_python import NameTable
from .lower import Block, lower
from .tasks import TaskPlan, partition_tasks
from .transform import OdeSystem

__all__ = ["FortranSource", "generate_fortran"]


@dataclass(frozen=True)
class FortranSource:
    """Generated Fortran 90 source with the statistics the paper reports."""

    source: str
    num_lines: int
    num_declaration_lines: int
    num_statement_lines: int
    num_cse: int
    mode: str

    def __str__(self) -> str:
        return (
            f"Fortran90[{self.mode}]: {self.num_lines} lines "
            f"({self.num_declaration_lines} declarations), "
            f"{self.num_cse} common subexpressions"
        )


#: where each load kind lives in the generated subroutines (1-based)
_SLOTS = {"t": "t", "state": "yin({1})", "param": "p({1})", "partial": "yout({1})"}


def _prologue(
    block: Block, names: NameTable, decls: list[str], indent: str
) -> list[str]:
    """Loads and CSE temporaries of ``block``, declaring each local."""
    lines = block.lines(names, "fortran", _SLOTS, indent + "{} = {}")
    decls += [names(ld.name) for ld in block.loads]
    decls += [names(sym.name) for sym, _ in block.temps]
    return lines


def _emit_case_body(
    block: Block,
    system: OdeSystem,
    names: NameTable,
    decls: list[str],
    indent: str,
) -> list[str]:
    """Emit loads, CSE temporaries and stores for one RHS or task block.

    A derivative goes through its ``<state>dot`` variable (Figure 11's
    ``xdot``/``ydot``); a partial-sum slot is stored directly.
    """
    lines = _prologue(block, names, decls, indent)
    n = system.num_states
    for slot, expr in block.stores:
        text = expr_code(expr, "fortran", names)
        if slot < n:
            dot = names(f"{system.state_names[slot]}dot")
            decls.append(dot)
            lines.append(f"{indent}{dot} = {text}")
            text = dot
        lines.append(f"{indent}yout({slot + 1}) = {text}")
    return lines


def generate_fortran(
    system: OdeSystem,
    plan: TaskPlan | None = None,
    schedule: Schedule | None = None,
    mode: str = "parallel",
    cse_min_ops: int = 1,
    jacobian: bool = False,
) -> FortranSource:
    """Generate Fortran 90 source for ``system``.

    ``mode="parallel"`` emits the ``select case (workerid)`` SPMD form; with
    a ``schedule`` each case holds one worker's tasks, otherwise one case
    per task.  ``mode="serial"`` emits the straight-line global-CSE form.
    ``jacobian=True`` additionally emits the analytic ``JAC`` subroutine
    (section 3.2.1: "an extra function that computes the Jacobian,
    instead of having the solver doing it internally").
    """
    if mode not in ("parallel", "serial"):
        raise ValueError(f"unknown mode {mode!r}")
    if plan is None:
        plan = partition_tasks(system)
    low = lower(system, plan, jacobian, cse_min_ops)

    n = system.num_states
    n_out = n + len(plan.partial_slots)
    names = NameTable(reserved=["workerid", "yin", "yout", "p", "t", "dp"])
    p_dim = max(len(system.param_names), 1)

    header = [
        f"! Generated by repro.codegen.gen_fortran for model {system.name}",
        f"! {n} state variables, {len(system.param_names)} parameters",
        "",
    ]
    decls: list[str] = []
    body: list[str] = []

    if mode == "serial":
        num_cse = low.num_cse_serial
        body += _emit_case_body(low.serial, system, names, decls, "  ")
        sig = "subroutine RHS(t, yin, p, yout)"
        dims = [
            "  integer, parameter :: dp = kind(1.0d0)",
            "  real(dp), intent(in) :: t",
            f"  real(dp), intent(in) :: yin({n})",
            f"  real(dp), intent(in) :: p({p_dim})",
            f"  real(dp), intent(out) :: yout({n})",
        ]
    else:
        num_cse = low.num_cse_parallel
        if schedule is not None:
            case_tasks: list[list[int]] = [
                list(schedule.tasks_of(w)) for w in range(schedule.num_workers)
            ]
        else:
            case_tasks = [[b.task_id] for b in plan.bodies]

        body.append("  select case (workerid)")
        for case_no, task_ids in enumerate(case_tasks, start=1):
            body.append(f"  case ({case_no})")
            for tid in task_ids:
                body += _emit_case_body(
                    low.tasks[tid], system, names, decls, "    "
                )
        body.append("  end select")
        sig = "subroutine RHS(workerid, t, yin, p, yout)"
        dims = [
            "  integer, parameter :: dp = kind(1.0d0)",
            "  integer, intent(in) :: workerid",
            "  real(dp), intent(in) :: t",
            f"  real(dp), intent(in) :: yin({n})",
            f"  real(dp), intent(in) :: p({p_dim})",
            f"  real(dp), intent(inout) :: yout({n_out})",
        ]

    # One declaration line per local, as the paper's generator did
    # ("10913 lines of Fortran 90 code, of which 4709 lines are variable
    # declarations", section 3.3).
    decl_lines = [f"  real(dp) :: {ident}" for ident in dict.fromkeys(decls)]

    lines = header + [sig] + dims + decl_lines + body + [
        "end subroutine RHS",
        "",
    ]

    # Generated start-value subroutine (section 3.2: variable names from
    # the ObjectMath model remain usable; start values read without
    # recompilation come from repro.codegen.startvalues).
    lines.append("subroutine START(y0)")
    lines.append("  integer, parameter :: dp = kind(1.0d0)")
    lines.append(f"  real(dp), intent(out) :: y0({n})")
    for i, (name, value) in enumerate(
        zip(system.state_names, low.start_values), start=1
    ):
        lines.append(f"  y0({i}) = {value!r}_dp  ! {name}")
    lines.append("end subroutine START")

    if low.jac is not None:
        jac_names = NameTable(reserved=["t", "yin", "p", "dfdy", "dp"])
        jac_decls: list[str] = []
        jac_body = _prologue(low.jac, jac_names, jac_decls, "  ")
        lines.append("")
        lines.append("subroutine JAC(t, yin, p, dfdy)")
        lines.append("  integer, parameter :: dp = kind(1.0d0)")
        lines.append("  real(dp), intent(in) :: t")
        lines.append(f"  real(dp), intent(in) :: yin({n})")
        lines.append(f"  real(dp), intent(in) :: p({p_dim})")
        lines.append(f"  real(dp), intent(out) :: dfdy({n},{n})")
        lines += [f"  real(dp) :: {ident}" for ident in dict.fromkeys(jac_decls)]
        lines.append("  dfdy = 0.0_dp")
        lines += jac_body
        for (i, j), expr in low.jac.stores:
            lines.append(
                f"  dfdy({i + 1},{j + 1}) = "
                f"{expr_code(expr, 'fortran', jac_names)}"
            )
        lines.append("end subroutine JAC")

    source = "\n".join(lines)
    total = len(lines)
    return FortranSource(
        source=source,
        num_lines=total,
        num_declaration_lines=len(decl_lines) + len(dims),
        num_statement_lines=total - len(decl_lines) - len(dims),
        num_cse=num_cse,
        mode=mode,
    )
