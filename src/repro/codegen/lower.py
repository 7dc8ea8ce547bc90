"""Shared lowering: the middle of Figure 9's code generator, run once.

Verification and task partitioning hand the code generator an
:class:`~repro.codegen.transform.OdeSystem` plus a
:class:`~repro.codegen.tasks.TaskPlan`.  Everything the target printers
then need that does not depend on the target language lives in one
:class:`Lowering`:

* ``serial`` — the global-CSE block over every right-hand side (the
  paper's serial mode),
* ``tasks`` — one per-task CSE block per plan body ("no subexpressions
  are shared between the tasks", section 3.2),
* ``jac`` — the structurally nonzero analytic Jacobian entries, each
  differentiated once, plus their CSE,
* for every block, its resolved *loads*: each free symbol mapped to the
  free variable, a state index, a parameter index or a partial-sum slot,
* the start and parameter vectors, coerced to ``float`` once.

The Python, NumPy, C and Fortran 90 printers are pure formatting over a
:class:`Lowering`; a compile lowers once and hands the result to every
printer its backend needs.  Blocks are computed on first use, so a
printer that needs only the serial block (``generate_fortran(...,
mode="serial")``) never pays for the per-task CSE.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from ..symbolic.cse import CseResult, cse, cse_grouped
from ..symbolic.diff import diff
from ..symbolic.expr import Expr, Sym, free_symbols
from ..symbolic.printer import code
from ..symbolic.simplify import simplify
from .tasks import TaskPlan
from .transform import ArraySystem, OdeSystem

__all__ = ["Block", "Load", "Lowering", "load_table", "lower", "resolve_loads"]


class Load(NamedTuple):
    """Where one free symbol's value comes from.

    ``kind`` is ``"t"`` (the free variable), ``"state"`` (``index`` into
    the state vector), ``"param"`` (into the parameter vector) or
    ``"partial"`` (into the results vector, after the state slots).
    """

    name: str
    kind: str
    index: int

    def source(self, slots: Mapping[str, str]) -> str:
        """``slots[kind]`` formatted with the 0-based and 1-based index."""
        return slots[self.kind].format(self.index, self.index + 1)


class Block(NamedTuple):
    """One straight-line body: loads, then CSE temporaries, then stores.

    A store's target is a results-vector slot for the RHS and task
    blocks, and a ``(row, col)`` pair for the Jacobian block.
    """

    loads: tuple[Load, ...]
    temps: tuple[tuple[Sym, Expr], ...]
    stores: tuple[tuple[Any, Expr], ...]

    def lines(
        self,
        names: Callable[[str], str],
        dialect: str,
        slots: Mapping[str, str],
        assign: str,
        store: str | None = None,
    ) -> list[str]:
        """Loads and temporaries as ``assign.format(ident, value)``, then
        (given ``store``) each store as ``store.format(target, value)``."""
        out = [assign.format(names(ld.name), ld.source(slots)) for ld in self.loads]
        out += [
            assign.format(names(sym.name), code(d, dialect, names))
            for sym, d in self.temps
        ]
        if store is not None:
            out += [
                store.format(target, code(e, dialect, names))
                for target, e in self.stores
            ]
        return out


def load_table(
    system: OdeSystem | ArraySystem, partial_slots: Sequence[str] = ()
) -> dict[str, Load]:
    """Every bindable symbol of ``system`` → its load."""
    n = system.num_states
    table = {s: Load(s, "partial", n + k) for k, s in enumerate(partial_slots)}
    table.update((s, Load(s, "param", j)) for j, s in enumerate(system.param_names))
    table.update((s, Load(s, "state", i)) for i, s in enumerate(system.state_names))
    table[system.free_var] = Load(system.free_var, "t", 0)
    return table


def resolve_loads(
    names: Iterable[str], table: Mapping[str, Load]
) -> tuple[Load, ...]:
    """The loads of ``names``, sorted by name."""
    ordered = sorted(set(names))
    for name in ordered:
        if name not in table:
            raise ValueError(f"cannot bind symbol {name!r} in generated code")
    return tuple(table[name] for name in ordered)


def _block(
    result: CseResult, targets: Iterable[Any], table: Mapping[str, Load]
) -> Block:
    used: set[str] = set()
    for e in [d for _, d in result.replacements] + list(result.exprs):
        used.update(s.name for s in free_symbols(e))
    used.difference_update(sym.name for sym, _ in result.replacements)
    return Block(
        resolve_loads(used, table),
        result.replacements,
        tuple(zip(targets, result.exprs)),
    )


@dataclass(frozen=True, eq=False)
class Lowering:
    """The target-independent code-generation artifact of one compile."""

    system: OdeSystem
    plan: TaskPlan
    jacobian: bool = False
    cse_min_ops: int = 1

    @cached_property
    def serial(self) -> Block:
        result = cse(
            list(self.system.rhs), symbol_prefix="cse", min_ops=self.cse_min_ops
        )
        return _block(result, range(self.system.num_states), load_table(self.system))

    @cached_property
    def tasks(self) -> tuple[Block, ...]:
        plan = self.plan
        table = load_table(self.system, plan.partial_slots)
        results = cse_grouped(
            [[a.expr for a in body.assignments] for body in plan.bodies],
            symbol_prefix="cse",
            min_ops=self.cse_min_ops,
        )
        return tuple(
            _block(
                result,
                [
                    table[a.target if a.is_partial else a.state].index
                    for a in body.assignments
                ],
                table,
            )
            for body, result in zip(plan.bodies, results)
        )

    @cached_property
    def jac(self) -> Block | None:
        """Row-major nonzero entries ``d rhs[i] / d y[j]`` (``None``
        unless lowered with ``jacobian=True``)."""
        if not self.jacobian:
            return None
        state_index = {s: j for j, s in enumerate(self.system.state_names)}
        targets: list[tuple[int, int]] = []
        entries: list[Expr] = []
        for i, rhs in enumerate(self.system.rhs):
            cols = sorted(
                state_index[s.name] for s in free_symbols(rhs)
                if s.name in state_index
            )
            for j in cols:
                d = simplify(diff(rhs, Sym(self.system.state_names[j])))
                if not d.is_zero:
                    targets.append((i, j))
                    entries.append(d)
        result = cse(entries, symbol_prefix="jcse", min_ops=self.cse_min_ops)
        return _block(result, targets, load_table(self.system))

    @cached_property
    def start_values(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.system.start_values)

    @cached_property
    def param_values(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.system.param_values)

    @property
    def num_cse_serial(self) -> int:
        return len(self.serial.temps)

    @property
    def num_cse_parallel(self) -> int:
        return sum(len(b.temps) for b in self.tasks)


def lower(
    system: OdeSystem,
    plan: TaskPlan,
    jacobian: bool = False,
    cse_min_ops: int = 1,
) -> Lowering:
    """Lower ``system`` under ``plan`` for the target printers."""
    return Lowering(system, plan, jacobian, cse_min_ops)
