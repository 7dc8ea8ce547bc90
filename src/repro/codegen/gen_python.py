"""Python back end: generate an executable RHS module.

Where the paper emits Fortran 90 / C++ and compiles with the platform
compilers, this reproduction's *executable* target is Python source
compiled with :func:`compile`/``exec`` — same pipeline shape, importable
result.  The module contains:

* ``RHS(t, y, p, out)`` — the serial right-hand side, optimised with
  *global* CSE over all equations together (the paper's serial mode),
* ``TASKS`` — a list of per-task functions ``task_k(t, y, p, res)``, each
  optimised with *per-task* CSE only ("No subexpressions are shared between
  the tasks", section 3.2); partial-sum slots live in ``res`` after the
  state-derivative slots,
* ``JAC(t, y, p, jac)`` — optional analytic Jacobian (section 3.2.1),
* ``START()`` / ``PARAMS()`` — generated start-value and parameter vectors
  (the paper generates these so users keep the model's variable names).

The scalar module is pure formatting over the shared
:class:`~repro.codegen.lower.Lowering` (:func:`print_python`); only the
array-mode member loops (:func:`_generate_python_array`) run their own CSE.
"""

from __future__ import annotations

import keyword
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..symbolic.cse import cse
from ..symbolic.expr import Expr, Reduce, Sym, free_symbols, preorder
from ..symbolic.printer import code as expr_code
from ..symbolic.subs import substitute
from .lower import Lowering, load_table, lower, resolve_loads
from .tasks import Assignment, TaskPlan, partition_tasks, partition_tasks_array
from .transform import ArraySystem, FamilyLayout, OdeSystem

__all__ = [
    "NameTable", "PythonModule", "generate_python", "load_python_module",
    "print_python",
]


class NameTable:
    """Maps flattened model names to unique legal identifiers."""

    _TRANSLATE = str.maketrans(
        {".": "_", "[": "_", "]": "", ":": "_", "#": "_", ",": "_",
         " ": "", "(": "_", ")": "", "@": "_"}
    )

    def __init__(self, reserved: Sequence[str] = ()) -> None:
        self._map: dict[str, str] = {}
        self._used: set[str] = set(reserved) | {"t", "y", "p", "out", "res", "jac"}

    def __call__(self, name: str) -> str:
        hit = self._map.get(name)
        if hit is not None:
            return hit
        base = name.translate(self._TRANSLATE)
        if not base or base[0].isdigit():
            base = "v_" + base
        if keyword.iskeyword(base):
            base += "_"
        candidate = base
        suffix = 1
        while candidate in self._used:
            candidate = f"{base}_{suffix}"
            suffix += 1
        self._used.add(candidate)
        self._map[name] = candidate
        return candidate


@dataclass
class PythonModule:
    """Generated Python source plus its compiled namespace."""

    source: str
    namespace: dict
    num_states: int
    num_partials: int
    num_cse_serial: int
    num_cse_parallel: int

    @property
    def rhs(self) -> Callable:
        return self.namespace["RHS"]

    @property
    def tasks(self) -> list[Callable]:
        return self.namespace["TASKS"]

    @property
    def jac(self) -> Callable | None:
        return self.namespace.get("JAC")

    @property
    def start(self) -> Callable:
        return self.namespace["START"]

    @property
    def params(self) -> Callable:
        return self.namespace["PARAMS"]

    @property
    def num_lines(self) -> int:
        return self.source.count("\n") + 1


def _sign(value: float) -> float:
    if value > 0:
        return 1.0
    if value < 0:
        return -1.0
    return 0.0


def _base_namespace() -> dict:
    ns = {name: getattr(math, name) for name in (
        "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
        "sinh", "cosh", "tanh", "exp", "log", "sqrt",
    )}
    ns["abs"] = abs
    ns["min"] = min
    ns["max"] = max
    ns["sign"] = _sign
    return ns


#: where each load kind lives in the generated scalar functions
_SLOTS = {"t": "t", "state": "y[{0}]", "param": "p[{0}]", "partial": "res[{0}]"}


def _module_trailer(
    system: OdeSystem | ArraySystem,
    start_values: Sequence[float],
    param_values: Sequence[float],
    num_partials: int,
) -> list[str]:
    """``START``/``PARAMS`` and the layout constants (Python and NumPy)."""
    return [
        "def START():",
        f"    return {list(start_values)!r}",
        "",
        "def PARAMS():",
        f"    return {list(param_values)!r}",
        "",
        f"STATE_NAMES = {list(system.state_names)!r}",
        f"PARAM_NAMES = {list(system.param_names)!r}",
        f"NUM_PARTIALS = {num_partials}",
        "",
    ]


def generate_python(
    system: OdeSystem,
    plan: TaskPlan | None = None,
    jacobian: bool = False,
    cse_min_ops: int = 1,
) -> PythonModule:
    """Generate and compile the Python RHS module for ``system``.

    ``plan`` defaults to :func:`~repro.codegen.tasks.partition_tasks` with
    default thresholds.  ``jacobian=True`` additionally emits the analytic
    Jacobian (quadratic in the state count — opt in for large systems).

    An :class:`~repro.codegen.transform.ArraySystem` takes the array path:
    one member loop per family instead of one statement per member, so the
    generated text is sized by class structure (see
    :func:`_generate_python_array`).
    """
    if isinstance(system, ArraySystem):
        return _generate_python_array(system, plan, jacobian, cse_min_ops)
    if plan is None:
        plan = partition_tasks(system)
    return print_python(lower(system, plan, jacobian, cse_min_ops))


def print_python(low: Lowering) -> PythonModule:
    """Format a :class:`~repro.codegen.lower.Lowering` as the scalar
    module and compile it."""
    system, plan = low.system, low.plan
    lines: list[str] = [
        '"""Generated by repro.codegen.gen_python — do not edit."""',
        "",
        "def RHS(t, y, p, out):",
        *low.serial.lines(
            NameTable(), "python", _SLOTS, "    {} = {}", "    out[{}] = {}"
        ),
        "    return out",
        "",
    ]
    task_names: list[str] = []
    for body, block in zip(plan.bodies, low.tasks):
        task_names.append(f"task_{body.task_id}")
        lines.append(f"def {task_names[-1]}(t, y, p, res):")
        lines += block.lines(
            NameTable(), "python", _SLOTS, "    {} = {}", "    res[{}] = {}"
        )
        lines.append("")
    lines += [f"TASKS = [{', '.join(task_names)}]", ""]

    if low.jac is not None:
        # 2-D ndarray indexing: one tuple index per entry instead of the
        # chained jac[i][j], which materialises a row view per assignment.
        lines.append("def JAC(t, y, p, jac):")
        lines += low.jac.lines(
            NameTable(), "python", _SLOTS, "    {} = {}",
            "    jac[{0[0]}, {0[1]}] = {1}",
        )
        lines += ["    return jac", ""]

    lines += _module_trailer(
        system, low.start_values, low.param_values, len(plan.partial_slots)
    )
    source = "\n".join(lines)
    namespace = _base_namespace()
    exec(compile(source, f"<generated {system.name}>", "exec"), namespace)

    return PythonModule(
        source=source,
        namespace=namespace,
        num_states=system.num_states,
        num_partials=len(plan.partial_slots),
        num_cse_serial=low.num_cse_serial,
        num_cse_parallel=low.num_cse_parallel,
    )


def _family_section(
    fam: FamilyLayout,
    suffix_exprs: Sequence[tuple[int, Expr]],
    replacements: Sequence[tuple[Sym, Expr]],
    names: NameTable,
    out_var: str,
    indent: str = "    ",
) -> tuple[list[str], set[str]]:
    """One family's member loop: index-arithmetic bindings + slot writes.

    ``suffix_exprs`` pairs each state-suffix index ``j`` with its (CSE'd)
    template expression.  Returns ``(lines, outer_names)`` — the symbols the
    loop body references that are *not* the representative's own slice and
    must be bound by the caller before the loop (singleton states, shared
    parameters, the free variable, CSE temps excluded).
    """
    rep = fam.representative
    state_j = {rep + s: j for j, s in enumerate(fam.state_suffixes)}
    param_j = {rep + s: j for j, s in enumerate(fam.param_suffixes)}

    local = {s.name for s, _ in replacements}
    used: set[str] = set()
    for e in [d for _, d in replacements] + [e for _, e in suffix_exprs]:
        used.update(s.name for s in free_symbols(e))
    used -= local

    rep_states = sorted(n for n in used if n in state_j)
    rep_params = sorted(n for n in used if n in param_j)
    stray = [
        n for n in used
        if n.partition(".")[0] == rep and n not in state_j and n not in param_j
    ]
    if stray:
        raise ValueError(
            f"family {fam.base}: unbindable representative symbols "
            f"{stray[:5]!r} (not in state/param layout)"
        )
    outer = {n for n in used if n not in state_j and n not in param_j}

    inner = indent + "    "
    lines = [f"{indent}for _i in range({fam.count}):"]
    lines.append(f"{inner}_sb = {fam.state_base} + _i * {fam.state_stride}")
    if rep_params:
        lines.append(
            f"{inner}_pb = {fam.param_base} + _i * {fam.param_stride}"
        )
    for n in rep_states:
        lines.append(f"{inner}{names(n)} = y[_sb + {state_j[n]}]")
    for n in rep_params:
        lines.append(f"{inner}{names(n)} = p[_pb + {param_j[n]}]")
    for sym, definition in replacements:
        lines.append(
            f"{inner}{names(sym.name)} = "
            f"{expr_code(definition, 'python', names)}"
        )
    for j, expr in suffix_exprs:
        lines.append(
            f"{inner}{out_var}[_sb + {j}] = "
            f"{expr_code(expr, 'python', names)}"
        )
    return lines, outer


def _hoist_reduces(
    exprs: Sequence[Expr],
) -> tuple[list[Expr], dict[tuple[str, int, int], list[tuple[Sym, Reduce]]]]:
    """Pull every symbolic family sum out of ``exprs`` into ``_red{k}`` temps.

    The code printer has no lowering for :class:`Reduce`; instead each
    distinct reduction (hash-consing makes duplicates pointer-equal) is
    replaced by a temp symbol that the backend computes ahead of the
    statements using it — a member loop here, a strided ``.sum(axis=-1)``
    in the NumPy backend.  Returns the rewritten expressions plus
    ``{(family, start, count): [(temp, reduce), ...]}`` in first-seen
    order.
    """
    temps: dict[Expr, Sym] = {}
    groups: dict[tuple[str, int, int], list[tuple[Sym, Reduce]]] = {}
    for e in exprs:
        for node in preorder(e):
            if isinstance(node, Reduce) and node not in temps:
                sym = Sym(f"_red{len(temps)}")
                temps[node] = sym
                groups.setdefault(
                    (node.family, node.start, node.count), []
                ).append((sym, node))
    if not temps:
        return list(exprs), {}
    return [substitute(e, temps) for e in exprs], groups


def _reduce_section(
    red_groups: Mapping[tuple[str, int, int], Sequence[tuple[Sym, Reduce]]],
    fam_by_base: Mapping[str, FamilyLayout],
    names: NameTable,
    cse_min_ops: int,
    indent: str = "    ",
) -> tuple[list[str], set[str], int]:
    """Member-loop lowering of hoisted family sums.

    One loop per family accumulates all of that family's sums.
    Representative state/parameter references inside the bodies bind to
    member slices through index arithmetic, keyed ``name + "@m"`` in the
    NameTable so a literal first-member reference elsewhere in the function
    keeps its own binding.  Everything else the bodies reference is
    returned in the outer set for the caller to bind before the loop.  A
    body with no representative references folds to ``count * body`` —
    the coefficient the canonical sum of identical terms carries.

    Returns ``(lines, outer_names, num_cse_extracted)``.
    """
    lines: list[str] = []
    outer: set[str] = set()
    num_cse = 0
    inner = indent + "    "
    for g, ((family, start, count), pairs) in enumerate(red_groups.items()):
        fam = fam_by_base.get(family)
        if (
            fam is None
            or fam.count != count
            or fam.representative != f"{family}{start}"
        ):
            raise ValueError(
                f"reduction over {family}[{start}..{start + count - 1}] "
                f"does not match any family layout"
            )
        rep = fam.representative
        state_j = {rep + s: j for j, s in enumerate(fam.state_suffixes)}
        param_j = {rep + s: j for j, s in enumerate(fam.param_suffixes)}
        member = set(state_j) | set(param_j)

        def rename(nm: str, _member=member) -> str:
            return names(nm + "@m") if nm in _member else names(nm)

        loop_pairs: list[tuple[Sym, Reduce]] = []
        for sym, node in pairs:
            body_syms = {s.name for s in free_symbols(node.body)}
            if body_syms & member:
                loop_pairs.append((sym, node))
            else:
                outer |= body_syms
                lines.append(
                    f"{indent}{names(sym.name)} = {count} * "
                    f"({expr_code(node.body, 'python', names)})"
                )
        if not loop_pairs:
            continue
        bc = cse(
            [node.body for _s, node in loop_pairs],
            symbol_prefix=f"r{g}_cse",
            min_ops=cse_min_ops,
        )
        num_cse += bc.num_extracted
        local = {s.name for s, _ in bc.replacements}
        used: set[str] = set()
        for e in [d for _, d in bc.replacements] + list(bc.exprs):
            used.update(s.name for s in free_symbols(e))
        used -= local
        stray = [
            nm for nm in used
            if nm.partition(".")[0] == rep and nm not in member
        ]
        if stray:
            raise ValueError(
                f"family {family}: unbindable representative symbols "
                f"{stray[:5]!r} in reduction body"
            )
        rep_states = sorted(nm for nm in used if nm in state_j)
        rep_params = sorted(nm for nm in used if nm in param_j)
        outer |= {nm for nm in used if nm not in member}

        for sym, _node in loop_pairs:
            lines.append(f"{indent}{names(sym.name)} = 0.0")
        lines.append(f"{indent}for _ri in range({count}):")
        lines.append(
            f"{inner}_rb = {fam.state_base} + _ri * {fam.state_stride}"
        )
        if rep_params:
            lines.append(
                f"{inner}_rpb = {fam.param_base} + _ri * {fam.param_stride}"
            )
        for nm in rep_states:
            lines.append(f"{inner}{rename(nm)} = y[_rb + {state_j[nm]}]")
        for nm in rep_params:
            lines.append(f"{inner}{rename(nm)} = p[_rpb + {param_j[nm]}]")
        for sym, definition in bc.replacements:
            lines.append(
                f"{inner}{names(sym.name)} = "
                f"{expr_code(definition, 'python', rename)}"
            )
        for (sym, _node), body in zip(loop_pairs, bc.exprs):
            lines.append(
                f"{inner}{names(sym.name)} += "
                f"{expr_code(body, 'python', rename)}"
            )
    return lines, outer, num_cse


def _array_suffix_index(a: Assignment, fam: FamilyLayout) -> int:
    """State-suffix index of an array assignment within its family."""
    suffix = a.state[len(fam.base) + 3:]  # strip "<base>[*]"
    return fam.state_suffixes.index(suffix)


def _generate_python_array(
    system: ArraySystem,
    plan: TaskPlan | None,
    jacobian: bool,
    cse_min_ops: int,
) -> PythonModule:
    """Array-mode Python back end: one member loop per family.

    The serial RHS and every task body iterate ``for _i in range(count)``
    with index arithmetic (``_sb = state_base + _i * stride``) binding the
    representative's identifiers to member slices — the loop body IS the
    template, printed once.  Generated source size is O(class structure).
    """
    if jacobian:
        raise ValueError(
            "analytic Jacobian requires scalar equations; compile with "
            "flatten_mode='scalar' (the compiler scalarizes automatically)"
        )
    if plan is None:
        plan = partition_tasks_array(system)

    n = system.num_states
    fam_by_base = {f.base: f for f in system.families}

    lines: list[str] = [
        '"""Generated by repro.codegen.gen_python (array mode) — do not '
        'edit."""',
        "",
    ]

    # -- serial RHS: singleton writes, then one loop per family ----------------
    names = NameTable()
    singleton_exprs, red_groups = _hoist_reduces(
        [e for _i, e in system.singleton_rhs]
    )
    red_locals = {
        s.name for pairs in red_groups.values() for s, _ in pairs
    }
    serial = cse(singleton_exprs, symbol_prefix="g_cse", min_ops=cse_min_ops)
    serial_locals = frozenset(
        s.name for s, _ in serial.replacements
    ) | red_locals
    num_cse_serial = serial.num_extracted
    red_lines, red_outer, red_cse = _reduce_section(
        red_groups, fam_by_base, names, cse_min_ops
    )
    num_cse_serial += red_cse

    fam_sections: list[list[str]] = []
    outer_needed: set[str] = set()
    for k, fam in enumerate(system.families):
        fc = cse(
            list(fam.template_rhs),
            symbol_prefix=f"f{k}_cse",
            min_ops=cse_min_ops,
        )
        num_cse_serial += fc.num_extracted
        section, outer = _family_section(
            fam,
            list(enumerate(fc.exprs)),
            fc.replacements,
            names,
            "out",
        )
        fam_sections.append(section)
        outer_needed |= outer

    body_exprs = [d for _, d in serial.replacements] + list(serial.exprs)
    for e in body_exprs:
        outer_needed.update(s.name for s in free_symbols(e))
    outer_needed |= red_outer
    outer_needed -= serial_locals

    table = load_table(system)
    lines.append("def RHS(t, y, p, out):")
    lines += [
        f"    {names(ld.name)} = {ld.source(_SLOTS)}"
        for ld in resolve_loads(outer_needed, table)
    ]
    lines.extend(red_lines)
    for sym, definition in serial.replacements:
        lines.append(
            f"    {names(sym.name)} = "
            f"{expr_code(definition, 'python', names)}"
        )
    for (i, _e), expr in zip(system.singleton_rhs, serial.exprs):
        lines.append(f"    out[{i}] = {expr_code(expr, 'python', names)}")
    for section in fam_sections:
        lines.extend(section)
    lines.append("    return out")
    lines.append("")

    # -- per-task functions -----------------------------------------------------
    num_cse_parallel = 0
    task_names: list[str] = []
    state_index = {s: i for i, s in enumerate(system.state_names)}

    for body in plan.bodies:
        fn = f"task_{body.task_id}"
        task_names.append(fn)
        tnames = NameTable()

        scalar_assigns = [a for a in body.assignments if a.count == 1]
        fam_assigns: dict[str, list[Assignment]] = {}
        for a in body.assignments:
            if a.count > 1:
                fam_assigns.setdefault(a.state.partition("[")[0], []).append(a)

        scalar_exprs, t_red_groups = _hoist_reduces(
            [a.expr for a in scalar_assigns]
        )
        t_red_locals = {
            s.name for pairs in t_red_groups.values() for s, _ in pairs
        }
        scalar_cse = cse(
            scalar_exprs, symbol_prefix="l_cse", min_ops=cse_min_ops
        )
        scalar_locals = frozenset(
            s.name for s, _ in scalar_cse.replacements
        ) | t_red_locals
        t_red_lines, t_red_outer, t_red_cse = _reduce_section(
            t_red_groups, fam_by_base, tnames, cse_min_ops
        )
        num_cse_parallel += scalar_cse.num_extracted + t_red_cse

        sections: list[list[str]] = []
        needed: set[str] = set(t_red_outer)
        for k, (base, assigns) in enumerate(fam_assigns.items()):
            fam = fam_by_base[base]
            fc = cse(
                [a.expr for a in assigns],
                symbol_prefix=f"f{k}_cse",
                min_ops=cse_min_ops,
            )
            num_cse_parallel += fc.num_extracted
            suffix_exprs = [
                (_array_suffix_index(a, fam), e)
                for a, e in zip(assigns, fc.exprs)
            ]
            section, outer = _family_section(
                fam, suffix_exprs, fc.replacements, tnames, "res"
            )
            sections.append(section)
            needed |= outer

        body_exprs = [d for _, d in scalar_cse.replacements] + list(
            scalar_cse.exprs
        )
        for e in body_exprs:
            needed.update(s.name for s in free_symbols(e))
        needed -= scalar_locals

        lines.append(f"def {fn}(t, y, p, res):")
        lines += [
            f"    {tnames(ld.name)} = {ld.source(_SLOTS)}"
            for ld in resolve_loads(needed, table)
        ]
        lines.extend(t_red_lines)
        for sym, definition in scalar_cse.replacements:
            lines.append(
                f"    {tnames(sym.name)} = "
                f"{expr_code(definition, 'python', tnames)}"
            )
        for a, expr in zip(scalar_assigns, scalar_cse.exprs):
            lines.append(
                f"    res[{state_index[a.state]}] = "
                f"{expr_code(expr, 'python', tnames)}"
            )
        for section in sections:
            lines.extend(section)
        lines.append("")

    lines.append(f"TASKS = [{', '.join(task_names)}]")
    lines.append("")

    lines += _module_trailer(
        system,
        [float(v) for v in system.start_values],
        [float(v) for v in system.param_values],
        0,
    )

    source = "\n".join(lines)
    namespace = _base_namespace()
    exec(compile(source, f"<generated {system.name}>", "exec"), namespace)

    return PythonModule(
        source=source,
        namespace=namespace,
        num_states=n,
        num_partials=0,
        num_cse_serial=num_cse_serial,
        num_cse_parallel=num_cse_parallel,
    )


def load_python_module(
    source: str,
    num_states: int,
    num_partials: int,
    num_cse_serial: int = 0,
    num_cse_parallel: int = 0,
    name: str = "cached",
) -> PythonModule:
    """Rebuild a :class:`PythonModule` from previously generated source.

    The artifact cache (:mod:`repro.compiler.cache`) persists the generated
    text; re-entry is a single ``exec`` against the stock math namespace —
    no CSE, no expression printing, no task partitioning.
    """
    namespace = _base_namespace()
    exec(compile(source, f"<cached {name}>", "exec"), namespace)
    return PythonModule(
        source=source,
        namespace=namespace,
        num_states=num_states,
        num_partials=num_partials,
        num_cse_serial=num_cse_serial,
        num_cse_parallel=num_cse_parallel,
    )
