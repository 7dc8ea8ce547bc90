"""The shared lowering: one CSE and Jacobian pass feeds every printer.

A compile lowers its ODE system once (``repro.codegen.lower``) and the
Python, NumPy and native C printers format that one result, so each CSE
kind runs once and each structurally nonzero Jacobian entry is
differentiated once.  The lowering's single ``float`` coercion of the
start and parameter vectors also keeps NumPy scalars out of every
generated source.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.codegen.lower as lower_mod
from repro.apps.powerplant import build_powerplant
from repro.apps.servo import build_servo
from repro.codegen import (
    generate_c,
    generate_c_tasks,
    generate_fortran,
    generate_numpy,
    generate_python,
    make_ode_system,
)
from repro.codegen.lower import Lowering
from repro.compiler import CompileOptions, compile_context
from repro.symbolic import free_symbols

_BUILDERS = {"servo": build_servo, "powerplant": build_powerplant}


class TestLowerOnce:
    @pytest.mark.parametrize("app", sorted(_BUILDERS))
    @pytest.mark.parametrize(
        "backend, jacobian", [("c", True), ("numpy", False)]
    )
    def test_compile_lowers_once(self, monkeypatch, app, backend, jacobian):
        cse_prefixes: list[str] = []
        counts = {"cse_grouped": 0, "diff": 0}
        real_cse = lower_mod.cse
        real_grouped = lower_mod.cse_grouped
        real_diff = lower_mod.diff

        def cse(exprs, symbol_prefix="cse", **kwargs):
            cse_prefixes.append(symbol_prefix)
            return real_cse(exprs, symbol_prefix=symbol_prefix, **kwargs)

        def cse_grouped(*args, **kwargs):
            counts["cse_grouped"] += 1
            return real_grouped(*args, **kwargs)

        def diff(*args, **kwargs):
            counts["diff"] += 1
            return real_diff(*args, **kwargs)

        monkeypatch.setattr(lower_mod, "cse", cse)
        monkeypatch.setattr(lower_mod, "cse_grouped", cse_grouped)
        monkeypatch.setattr(lower_mod, "diff", diff)

        ctx = compile_context(
            model=_BUILDERS[app](),
            options=CompileOptions(backend=backend, jacobian=jacobian),
        )

        assert cse_prefixes.count("cse") == 1  # the serial global CSE
        assert counts["cse_grouped"] == 1  # the per-task CSE
        assert cse_prefixes.count("jcse") == int(jacobian)
        assert len(cse_prefixes) == 1 + int(jacobian)

        system = ctx.system
        states = set(system.state_names)
        structural = sum(
            1
            for rhs in system.rhs
            for sym in free_symbols(rhs)
            if sym.name in states
        )
        assert counts["diff"] == (structural if jacobian else 0)

        # every printer the backend needs came out of that one lowering
        assert ctx.module is not None
        if backend == "c":
            assert ctx.native_source is not None
            assert ctx.native_source.has_jacobian
        else:
            assert ctx.vector_module is not None
        # ... and the lowering itself is not kept on the context
        assert not any(
            isinstance(value, Lowering) for value in vars(ctx).values()
        )

    def test_cse_counts_agree_across_printers(self):
        ctx = compile_context(
            model=build_powerplant(),
            options=CompileOptions(backend="c", jacobian=True),
        )
        system, plan = ctx.system, ctx.plan
        serial = ctx.metrics["num_cse_serial"]
        parallel = ctx.metrics["num_cse_parallel"]
        assert generate_c(system, plan, mode="serial").num_cse == serial
        assert generate_c(system, plan, mode="parallel").num_cse == parallel
        assert generate_fortran(system, plan, mode="serial").num_cse == serial
        assert (
            generate_fortran(system, plan, mode="parallel").num_cse
            == parallel
        )
        jac_temps = len(lower_mod.lower(system, plan, True).jac.temps)
        assert ctx.native_source.num_cse == serial + parallel + jac_temps


class TestNumpyScalarValues:
    """NumPy-scalar start/parameter values print as plain floats."""

    @pytest.fixture(scope="class")
    def servo(self):
        system = make_ode_system(build_servo().flatten())
        return dataclasses.replace(
            system,
            start_values=tuple(np.float64(v) for v in system.start_values),
            param_values=tuple(np.float64(v) for v in system.param_values),
        )

    @pytest.mark.parametrize("generate", [generate_python, generate_numpy])
    def test_executable_modules(self, servo, generate):
        module = generate(servo, jacobian=True)
        assert module.start() == [float(v) for v in servo.start_values]
        assert module.params() == [float(v) for v in servo.param_values]
        assert all(type(v) is float for v in module.start() + module.params())

    @pytest.mark.parametrize(
        "generate", [generate_c, generate_c_tasks, generate_fortran]
    )
    def test_text_sources(self, servo, generate):
        source = generate(servo, jacobian=True).source
        assert "float64" not in source
        for value in servo.start_values:
            assert repr(float(value)) in source
