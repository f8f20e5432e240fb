"""Cycle-accurate FSMD simulation.

Substitutes for the paper's ModelSim RTL simulations (§4.1): executes
an :class:`repro.hls.design.FsmdDesign` state-by-state with a given
working key, reporting outputs, final memory contents and the cycle
count.  All three obfuscations participate:

* obfuscated constants decode as ``stored ^ key_slice``;
* masked branches evaluate ``test ^ key_bit`` against design-time
  swapped targets;
* obfuscated blocks execute the DFG variant selected by their key
  slice.

With the correct working key the simulation reproduces the golden IR
interpretation exactly (asserted throughout the test suite); wrong keys
produce "logical but incorrect execution flows" (paper §3.2.2).

Register-level fidelity: values are read from and written to *bound
registers*, so register-sharing bugs would corrupt results — this is
how the test suite validates the binding stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.hls.controller import StateId
from repro.hls.design import FsmdDesign, VariantOp
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import IntType
from repro.ir.values import ArrayValue, Constant, ObfuscatedConstant, Value
from repro.opt.constant_folding import evaluate_op


class SimulationError(Exception):
    """Raised on malformed designs or exceeded cycle budgets."""


def zero_size_memory_error(name: str) -> SimulationError:
    """The (single-sourced) error for indexing an empty memory image.

    Both engines raise this identically-worded error — the engine
    parity contract covers error behaviour too.
    """
    return SimulationError(
        f"memory {name!r} has zero size; cannot index into it"
    )


@dataclass
class SimulationResult:
    """Outcome of one FSMD run.

    Attributes:
        return_value: Value of the return register at completion (None
            for void functions or when the run timed out).
        arrays: Final contents of every memory.
        cycles: Clock cycles until the done state (or the budget).
        completed: False when the cycle budget expired first (possible
            under wrong keys that corrupt loop bounds).
        state_trace: Executed state sequence (when tracing enabled).
    """

    return_value: Optional[int]
    arrays: dict[str, list[int]]
    cycles: int
    completed: bool
    state_trace: list[str] = field(default_factory=list)


class FsmdSimulator:
    """Simulates an FSMD design for one invocation."""

    def __init__(
        self,
        design: FsmdDesign,
        max_cycles: int = 2_000_000,
        trace: bool = False,
    ) -> None:
        self.design = design
        self.max_cycles = max_cycles
        self.trace = trace
        # Per-(state, selected-variant) op lists: loops revisit the
        # same states thousands of times, and rebuilding the filtered
        # list each cycle made long runs quadratic-feeling.
        self._ops_cache: dict[tuple, list] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        args: Sequence[int] = (),
        arrays: Optional[dict[str, list[int]]] = None,
        working_key: int = 0,
    ) -> SimulationResult:
        design = self.design
        func = design.func
        registers: dict[str, int] = {r.name: 0 for r in design.binding.registers}
        memories = self._initial_memories(arrays)
        trace: list[str] = []

        # Latch scalar arguments into parameter registers.
        scalar_params = func.scalar_params()
        if len(args) != len(scalar_params):
            raise SimulationError(
                f"{func.name} expects {len(scalar_params)} scalar args, "
                f"got {len(args)}"
            )
        for param, arg in zip(scalar_params, args):
            register = design.binding.register_of.get(param)
            if register is not None:
                assert isinstance(param.type, IntType)
                registers[register.name] = param.type.wrap(arg)

        return_register_value: Optional[int] = None
        state: Optional[StateId] = design.controller.entry_state
        assert state is not None
        cycles = 0
        completed = False
        while cycles < self.max_cycles:
            cycles += 1
            if self.trace:
                trace.append(str(state))
            # Gather this state's operations (baseline or selected variant).
            ops = self._state_ops(state, working_key)
            # Phase 1: combinational reads (old register values).
            writes: list[tuple[str, int]] = []
            memory_writes: list[tuple[str, int, int]] = []
            returned: Optional[int] = None
            condition_value = 0
            for op in ops:
                outcome = self._execute_op(
                    op, registers, memories, working_key
                )
                if outcome is None:
                    continue
                kind = outcome[0]
                if kind == "write":
                    writes.append(outcome[1])
                elif kind == "memwrite":
                    memory_writes.append(outcome[1])
                elif kind == "ret":
                    returned = outcome[1]
                elif kind == "cond":
                    condition_value = outcome[1]
            # Phase 2: clock edge — commit writes.
            for name, value in writes:
                registers[name] = value
            for array_name, index, value in memory_writes:
                memory = memories[array_name]
                if not memory:
                    raise zero_size_memory_error(array_name)
                memory[index % len(memory)] = value
            if returned is not None or self._is_done(state):
                return_register_value = returned
                completed = True
                break
            # Controller: next state.
            transition = self.design.controller.transitions[state]
            if transition.condition is not None:
                condition_value = self._read_value(
                    transition.condition, registers, working_key
                )
            key_bit_value = 0
            key_bit = transition.key_bit
            if key_bit is not None:
                key_bit_value = (working_key >> key_bit) & 1
            next_state = self.design.controller.resolve_next(
                state, condition_value, key_bit_value
            )
            if next_state is None:
                completed = True
                break
            state = next_state

        return SimulationResult(
            return_value=return_register_value,
            arrays=memories,
            cycles=cycles,
            completed=completed,
            state_trace=trace,
        )

    # ------------------------------------------------------------------
    def _initial_memories(
        self, arrays: Optional[dict[str, list[int]]]
    ) -> dict[str, list[int]]:
        memories: dict[str, list[int]] = {}
        for name, memory_binding in self.design.binding.memories.items():
            array = memory_binding.array
            rom = self.design.obfuscated_roms.get(name)
            if rom is not None:
                # The fabricated image is the encrypted one; reads decode
                # through the key XOR (see _execute_op).
                memories[name] = list(rom.encrypted_image)  # type: ignore[attr-defined]
            elif arrays is not None and array.name in arrays:
                provided = list(arrays[array.name])
                if len(provided) < array.size:
                    provided += [0] * (array.size - len(provided))
                memories[name] = [
                    array.element_type.wrap(v) for v in provided[: array.size]
                ]
            elif array.initializer is not None:
                memories[name] = [
                    array.element_type.wrap(v) for v in array.initializer
                ]
            else:
                memories[name] = [0] * array.size
        return memories

    def _state_ops(self, state: StateId, working_key: int) -> list:
        """Operations executing in ``state`` under the given key.

        Memoized per (state, selected variant): the op list of a state
        is a pure function of the design and the key slice steering its
        block, so it is computed once per run instead of once per cycle.
        """
        variants = self.design.block_variants.get(state.block)
        selector = None if variants is None else variants.selector(working_key)
        key = (state, selector)
        ops = self._ops_cache.get(key)
        if ops is None:
            if variants is None:
                block_schedule = self.design.schedule.blocks[state.block]
                ops = block_schedule.instructions_at(state.step)
            else:
                ops = [
                    op
                    for op in variants.variants[selector]
                    if op.cstep == state.step
                ]
            self._ops_cache[key] = ops
        return ops

    def _is_done(self, state: StateId) -> bool:
        return self.design.controller.transitions[state].is_done

    # ------------------------------------------------------------------
    def _execute_op(
        self,
        op,
        registers: dict[str, int],
        memories: dict[str, list[int]],
        working_key: int,
    ):
        if isinstance(op, Instruction):
            opcode = op.opcode
            result = op.result
            operands = op.operands
            array_name = op.array.name if op.array is not None else None
        else:
            assert isinstance(op, VariantOp)
            opcode = op.opcode
            result = op.result
            operands = op.operands
            array_name = op.array_name

        if opcode in (Opcode.JUMP, Opcode.BRANCH):
            return None  # handled by the controller
        if opcode is Opcode.RET:
            if operands:
                return ("ret", self._read_value(operands[0], registers, working_key))
            return ("ret", 0)
        if opcode is Opcode.LOAD:
            assert array_name is not None and result is not None
            memory = memories[array_name]
            if not memory:
                raise zero_size_memory_error(array_name)
            index = self._read_value(operands[0], registers, working_key)
            value = memory[index % len(memory)]
            rom = self.design.obfuscated_roms.get(array_name)
            if rom is not None:
                element_type = self.design.func.arrays[array_name].element_type
                value = rom.decode(value, element_type, working_key)  # type: ignore[attr-defined]
            return self._register_write(result, value)
        if opcode is Opcode.STORE:
            assert array_name is not None
            index = self._read_value(operands[0], registers, working_key)
            raw = self._read_value(operands[1], registers, working_key)
            element_type = self.design.func.arrays[array_name].element_type
            return ("memwrite", (array_name, index, element_type.wrap(raw)))
        if opcode is Opcode.CALL:  # pragma: no cover - rejected by engine
            raise SimulationError("calls must be inlined before simulation")
        # Datapath op or MOV.
        assert result is not None
        result_type = result.type
        assert isinstance(result_type, IntType)
        values = [self._read_value(v, registers, working_key) for v in operands]
        types = [self._operand_type(v) for v in operands]
        computed = evaluate_op(opcode, values, types, result_type)
        if computed is None:
            raise SimulationError(f"cannot evaluate opcode {opcode}")
        return self._register_write(result, computed)

    def _register_write(self, result: Value, value: int):
        register = self.design.binding.register_of.get(result)
        if register is None:
            raise SimulationError(f"value {result} has no bound register")
        assert isinstance(result.type, IntType)
        return ("write", (register.name, result.type.wrap(value)))

    def _read_value(
        self, value: Value, registers: dict[str, int], working_key: int
    ) -> int:
        if isinstance(value, ObfuscatedConstant):
            return value.decode(working_key)
        if isinstance(value, Constant):
            return value.value
        register = self.design.binding.register_of.get(value)
        if register is None:
            raise SimulationError(f"value {value} has no bound register")
        raw = registers[register.name]
        assert isinstance(value.type, IntType)
        return value.type.wrap(raw)

    @staticmethod
    def _operand_type(value: Value) -> IntType:
        assert isinstance(value.type, IntType)
        return value.type


def simulate(
    design: FsmdDesign,
    args: Sequence[int] = (),
    arrays: Optional[dict[str, list[int]]] = None,
    working_key: int = 0,
    max_cycles: int = 2_000_000,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Run one FSMD trial on the selected engine — a batch of one key.

    ``engine`` is ``"codegen"`` (the default: Python source generated
    once per design by :mod:`repro.sim.codegen`), ``"compiled"``
    (closure plans lowered once by :mod:`repro.sim.compiled`) or
    ``"interp"`` (this module's reference interpreter); ``None`` defers
    to ``$REPRO_SIM_ENGINE`` (see :func:`repro.sim.engine.resolve_engine`).
    All engines return field-identical :class:`SimulationResult`\\ s —
    the differential tests assert it.
    """
    return simulate_batch(
        design, args, arrays, [working_key], max_cycles=max_cycles, engine=engine
    )[0]


def simulate_batch(
    design: FsmdDesign,
    args: Sequence[int] = (),
    arrays: Optional[dict[str, list[int]]] = None,
    working_keys: Sequence[int] = (),
    max_cycles: int = 2_000_000,
    engine: Optional[str] = None,
) -> list[SimulationResult]:
    """Run one FSMD trial per working key; all lanes share the workload.

    The seam the key-trial layers (:mod:`repro.tao.metrics`,
    :mod:`repro.attack`) ride: under ``codegen`` the design is built
    once and every key of the batch runs through the generated code;
    ``compiled`` and ``interp`` loop their scalar runs.  ``result[i]`` is
    field-identical to ``simulate(..., working_key=working_keys[i])``
    on every engine.
    """
    from repro.sim.engine import engine_driver, resolve_engine

    driver = engine_driver(resolve_engine(engine))
    return driver.run_batch(design, args, arrays, working_keys, max_cycles)
