"""The FSMD design: the complete output of the HLS flow.

An :class:`FsmdDesign` bundles the scheduled function, the bound
datapath (FUs, registers, memories), the synthesized controller and —
after TAO runs — the obfuscation metadata: obfuscated constants,
masked branches, per-block DFG variants and the key configuration.

The design is the object all downstream consumers share: the RTL
emitter (``repro.rtl.verilog``), the area/timing models
(``repro.rtl.area_model`` / ``timing_model``) and the cycle-accurate
simulator (``repro.sim.fsmd_sim``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hls.binding import BindingResult, FUInstance, Register
from repro.hls.controller import Controller, StateId
from repro.hls.scheduling import FunctionSchedule
from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import ObfuscatedConstant, Value


@dataclass
class VariantOp:
    """One operation inside a DFG variant.

    Mirrors a scheduled baseline instruction: executes in ``cstep`` on
    the FU bound to the baseline op at the same slot, computing
    ``opcode`` over ``operands`` into ``result``.
    """

    opcode: Opcode
    result: Optional[Value]
    operands: list[Value]
    cstep: int
    array_name: Optional[str] = None
    slot: int = 0  # index of the baseline instruction this op shadows


@dataclass
class BlockVariants:
    """The set of DFG variants of one obfuscated basic block.

    ``key_offset``/``key_bits`` locate the selector slice in the working
    key; ``correct_value`` is the slice value under the correct key.
    ``variants`` maps each selector value to the op list to execute;
    the entry at ``correct_value`` reproduces the baseline block.

    Selectors that share a decoy share one list *object* (all selectors
    at one Hamming distance, under the default ``"distance"``
    diversity); each distinct list is an *arm*.  Consumers that derive
    something from a list — datapath sources, timing paths, generated
    code — iterate :meth:`arms` and do that work once per arm.  The
    lists are never mutated after :mod:`repro.tao.dfg_variants` builds
    them, so sharing them is safe.
    """

    block_name: str
    key_offset: int
    key_bits: int
    correct_value: int
    variants: dict[int, list[VariantOp]] = field(default_factory=dict)

    def selector(self, working_key: int) -> int:
        """The selector slice this key steers the block with."""
        return (working_key >> self.key_offset) & ((1 << self.key_bits) - 1)

    def select(self, working_key: int) -> list[VariantOp]:
        return self.variants[self.selector(working_key)]

    def arms(self) -> list[tuple[tuple[int, ...], list[VariantOp]]]:
        """``[(selectors, ops)]``, one entry per distinct op list.

        Selectors are grouped by list identity, in ascending selector
        order; arms are ordered by their smallest selector.
        """
        grouped: dict[int, tuple[list[int], list[VariantOp]]] = {}
        for selector in sorted(self.variants):
            ops = self.variants[selector]
            grouped.setdefault(id(ops), ([], ops))[0].append(selector)
        return [(tuple(selectors), ops) for selectors, ops in grouped.values()]


@dataclass
class KeyConfiguration:
    """Working/locking key layout for one design (paper §3.2.1, Eq. 1).

    Attributes:
        working_key_bits: Total working-key width W.
        correct_working_key: The working key that unlocks the design.
        constant_slices: (offset, width) per obfuscated constant.
        branch_bits: key bit index per masked branch (by branch uid).
        block_slices: (offset, width) per obfuscated block.
        locking_key_bits: Locking key width K delivered to the chip.
    """

    working_key_bits: int = 0
    correct_working_key: int = 0
    constant_slices: list[tuple[int, int]] = field(default_factory=list)
    branch_bits: dict[int, int] = field(default_factory=dict)
    block_slices: dict[str, tuple[int, int]] = field(default_factory=dict)
    locking_key_bits: int = 256


@dataclass
class FsmdDesign:
    """A synthesized (and possibly obfuscated) FSMD component."""

    module: Module
    func: Function
    schedule: FunctionSchedule
    binding: BindingResult
    controller: Controller
    # --- obfuscation metadata (empty for baseline designs) ---
    obfuscated_constants: list[ObfuscatedConstant] = field(default_factory=list)
    masked_branches: dict[int, int] = field(default_factory=dict)  # inst uid -> key bit
    block_variants: dict[str, BlockVariants] = field(default_factory=dict)
    obfuscated_roms: dict[str, object] = field(default_factory=dict)  # name -> RomObfuscation
    key_config: KeyConfiguration = field(default_factory=KeyConfiguration)

    @property
    def name(self) -> str:
        return self.func.name

    @property
    def is_obfuscated(self) -> bool:
        return bool(
            self.obfuscated_constants
            or self.masked_branches
            or self.block_variants
            or self.obfuscated_roms
        )

    # ------------------------------------------------------------------
    # Structural queries used by area/timing models and the simulator
    # ------------------------------------------------------------------
    def states(self) -> list[StateId]:
        return self.controller.states

    def register_for(self, value: Value) -> Optional[Register]:
        return self.binding.register_of.get(value)

    def fu_input_sources(self) -> dict[tuple[str, int], set[str]]:
        """Distinct operand sources per FU input port.

        Returns ``{(fu_name, port): {source ids}}`` aggregated over all
        states and, when present, all DFG variants — the quantity that
        sizes the datapath input multiplexers.
        """
        sources: dict[tuple[str, int], set[str]] = {}

        def add(fu: FUInstance, port: int, value: Value) -> None:
            key = (fu.name, port)
            sources.setdefault(key, set()).add(self._source_id(value))

        for block_schedule in self.schedule.blocks.values():
            for inst in block_schedule.block.instructions:
                fu = self.binding.fu_for(inst)
                if fu is None:
                    continue
                for port, operand in enumerate(inst.operands):
                    add(fu, port, operand)
        for variants in self.block_variants.values():
            baseline = self._baseline_slots(variants.block_name)
            for _, ops in variants.arms():
                for op in ops:
                    base_inst = baseline.get(op.slot)
                    if base_inst is None:
                        continue
                    fu = self.binding.fu_for(base_inst)
                    if fu is None:
                        continue
                    for port, operand in enumerate(op.operands):
                        add(fu, port, operand)
        return sources

    def register_input_sources(self) -> dict[str, set[str]]:
        """Distinct sources per register write port (sizes write muxes)."""
        sources: dict[str, set[str]] = {}

        def add(result: Optional[Value], source: str) -> None:
            if result is None:
                return
            register = self.binding.register_of.get(result)
            if register is None:
                return
            sources.setdefault(register.name, set()).add(source)

        for block_schedule in self.schedule.blocks.values():
            for inst in block_schedule.block.instructions:
                fu = self.binding.fu_for(inst)
                if fu is not None:
                    add(inst.result, f"fu:{fu.name}")
                elif inst.opcode is Opcode.MOV:
                    add(inst.result, f"val:{self._source_id(inst.operands[0])}")
                elif inst.opcode is Opcode.LOAD:
                    assert inst.array is not None
                    add(inst.result, f"mem:{inst.array.name}")
        for variants in self.block_variants.values():
            baseline = self._baseline_slots(variants.block_name)
            for _, ops in variants.arms():
                for op in ops:
                    base_inst = baseline.get(op.slot)
                    fu = self.binding.fu_for(base_inst) if base_inst else None
                    if fu is not None:
                        add(op.result, f"fu:{fu.name}")
                    elif op.opcode is Opcode.MOV and op.operands:
                        add(op.result, f"val:{self._source_id(op.operands[0])}")
                    elif op.opcode is Opcode.LOAD and op.array_name:
                        add(op.result, f"mem:{op.array_name}")
        return sources

    def memory_port_sources(self) -> dict[str, set[str]]:
        """Distinct address/data sources per memory port."""
        sources: dict[str, set[str]] = {}
        for block_schedule in self.schedule.blocks.values():
            for inst in block_schedule.block.instructions:
                if inst.opcode in (Opcode.LOAD, Opcode.STORE):
                    assert inst.array is not None
                    for operand in inst.operands:
                        sources.setdefault(inst.array.name, set()).add(
                            self._source_id(operand)
                        )
        for variants in self.block_variants.values():
            for _, ops in variants.arms():
                for op in ops:
                    if op.opcode in (Opcode.LOAD, Opcode.STORE) and op.array_name:
                        for operand in op.operands:
                            sources.setdefault(op.array_name, set()).add(
                                self._source_id(operand)
                            )
        return sources

    def merged_fu_optypes(self) -> dict[str, set[Opcode]]:
        """Opcodes each FU must implement, including variant demands."""
        optypes: dict[str, set[Opcode]] = {
            fu.name: set(fu.optypes) for fu in self.binding.fus
        }
        for variants in self.block_variants.values():
            baseline = self._baseline_slots(variants.block_name)
            for _, ops in variants.arms():
                for op in ops:
                    base_inst = baseline.get(op.slot)
                    if base_inst is None:
                        continue
                    fu = self.binding.fu_for(base_inst)
                    if fu is not None and op.opcode not in (
                        Opcode.MOV,
                        Opcode.LOAD,
                        Opcode.STORE,
                    ):
                        optypes[fu.name].add(op.opcode)
        return optypes

    def _baseline_slots(self, block_name: str) -> dict[int, Instruction]:
        block = self.func.blocks[block_name]
        return dict(enumerate(block.instructions))

    @staticmethod
    def _source_id(value: Value) -> str:
        from repro.ir.values import Constant

        if isinstance(value, ObfuscatedConstant):
            return f"kconst:{value.name}"
        if isinstance(value, Constant):
            return f"const:{value.value}:{value.type}"
        return f"val:{value.name}"

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        """Headline structural statistics."""
        return {
            "states": self.controller.n_states,
            "fus": len(self.binding.fus),
            "registers": len(self.binding.registers),
            "memories": len(self.binding.memories),
            "obfuscated_constants": len(self.obfuscated_constants),
            "masked_branches": len(self.masked_branches),
            "variant_blocks": len(self.block_variants),
            "obfuscated_roms": len(self.obfuscated_roms),
            "working_key_bits": self.key_config.working_key_bits,
        }
