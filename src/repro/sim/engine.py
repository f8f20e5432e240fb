"""The FSMD engine seam: one abstract driver, one env-selected engine.

Three engines are registered under the ``engine`` capability kind:

* ``compiled`` — closure plans lowered once per design
  (:mod:`repro.sim.compiled`);
* ``interp`` — the reference interpreter
  (:class:`repro.sim.fsmd_sim.FsmdSimulator`), the differential oracle;
* ``codegen`` — the default: exec()-generated Python per design
  (:mod:`repro.sim.codegen`), built once and run for whole key batches.

:func:`resolve_engine` picks the engine for ``simulate`` /
``simulate_batch`` / ``run_testbench`` — an explicit ``engine``
argument wins, then the ``REPRO_SIM_ENGINE`` environment variable, then
:data:`DEFAULT_ENGINE`.  An unknown name fails with the registry's
uniform error, which lists the valid engines.  Runs that want a state
trace use the interpreter (``FsmdSimulator(..., trace=True)``); the
codegen engine records none.

Determinism contract: for any design, arguments, arrays, key and cycle
budget, every engine's :class:`~repro.sim.fsmd_sim.SimulationResult`
is field-identical to the interpreter's (return value, arrays, cycle
count and completed flag).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.registry import REGISTRY
from repro.sim import codegen, compiled
from repro.sim.fsmd_sim import FsmdSimulator

#: Environment variable selecting the default simulation engine.
ENGINE_ENV = "REPRO_SIM_ENGINE"
DEFAULT_ENGINE = "codegen"


@dataclass(frozen=True)
class EngineDriver:
    """One simulation engine as a registered capability.

    ``run_batch(design, args, arrays, working_keys, max_cycles)``
    simulates one workload once per working key and returns one
    :class:`~repro.sim.fsmd_sim.SimulationResult` per key, in key
    order, each field-identical to the ``interp`` reference oracle.
    """

    name: str
    description: str
    run_batch: Callable[..., list]


# The plan builders are looked up through their modules at call time:
# compiled_for and codegen_for are the build boundaries that profilers
# and tests wrap.
def _compiled_run_batch(design, args, arrays, working_keys, max_cycles):
    plan = compiled.compiled_for(design)
    return [
        plan.run(args, arrays=arrays, working_key=key, max_cycles=max_cycles)
        for key in working_keys
    ]


def _interp_run_batch(design, args, arrays, working_keys, max_cycles):
    simulator = FsmdSimulator(design, max_cycles=max_cycles)
    return [simulator.run(args, arrays, key) for key in working_keys]


def _codegen_run_batch(design, args, arrays, working_keys, max_cycles):
    return codegen.codegen_for(design).run_batch(
        args, arrays=arrays, working_keys=working_keys, max_cycles=max_cycles
    )


for _driver in (
    EngineDriver(
        name="compiled",
        description="closure-compiled plan, lowered once per design",
        run_batch=_compiled_run_batch,
    ),
    EngineDriver(
        name="interp",
        description="reference interpreter: the differential oracle",
        run_batch=_interp_run_batch,
    ),
    EngineDriver(
        name="codegen",
        description="exec()-generated source, built once per design (default)",
        run_batch=_codegen_run_batch,
    ),
):
    REGISTRY.register(
        "engine", _driver.name, _driver, description=_driver.description
    )
del _driver

def engine_driver(name: str) -> EngineDriver:
    """The registered :class:`EngineDriver` called ``name`` (plugins
    loaded first), with the uniform unknown-capability error."""
    REGISTRY.load_plugins()
    return REGISTRY.get("engine", name)


def resolve_engine(engine: Optional[str] = None) -> str:
    """The engine to run: explicit choice > ``$REPRO_SIM_ENGINE`` > default."""
    if engine:
        choice, source = engine, "engine argument"
    elif os.environ.get(ENGINE_ENV):
        choice, source = os.environ[ENGINE_ENV], f"${ENGINE_ENV}"
    else:
        choice, source = DEFAULT_ENGINE, "default"
    REGISTRY.load_plugins()
    REGISTRY.entry("engine", choice, context=f"(from {source})")
    return choice
