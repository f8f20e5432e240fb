"""Shared lowering analysis for the fast FSMD execution tiers.

Both non-reference engines — the closure-compiled plan
(:mod:`repro.sim.compiled`) and the exec()-generated codegen tier
(:mod:`repro.sim.codegen`) — need the same design analysis before they
can specialize execution: a flat slot assignment for registers and
memories, the set of types written into each register slot (for
read-side wrap elision), scalar-parameter latch points, a dense state
index with pre-resolved transitions, per-state op lists filtered by
cstep, and per-block DFG variant tables.  :class:`DesignLayout`
computes all of that **once** per design; the tiers consume it to build
their own execution artifacts (closures there, Python source here).
:func:`arith_fn` and :func:`op_fields` are the op-level helpers both
tiers share.

Keeping the analysis in one place is what keeps the tiers honest: both
engines agree on slot numbering, wrap elision and transition targets by
construction, so the differential contract against the reference
interpreter only has to catch *execution* divergences, never layout
ones.

:class:`PlanCache` is the shared compile-once memoization: a small LRU
keyed on design identity and guarded by an obfuscation-metadata
fingerprint, so re-obfuscating a design in place recompiles rather than
running stale plans.  Each tier owns one instance (plans hold closures
or generated code objects and never pickle — worker processes build
their own).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable, Optional

from repro.hls.controller import StateId
from repro.hls.design import FsmdDesign, VariantOp
from repro.ir.instructions import Instruction, Opcode
from repro.ir.types import IntType
from repro.ir.values import Value


def wrap_fn(type_: IntType) -> Callable[[int], int]:
    """A closure computing ``type_.wrap`` without attribute lookups."""
    mask = (1 << type_.width) - 1
    if not type_.signed:
        return lambda v: v & mask
    sign = 1 << (type_.width - 1)
    return lambda v: ((v + sign) & mask) - sign


def arith_fn(
    opcode: Opcode, operand_types: list[IntType], result_type: IntType
) -> Optional[Callable]:
    """One datapath opcode as a closure over Python ints.

    Mirrors :func:`repro.opt.constant_folding.evaluate_op` exactly
    (including division-by-zero totality, shift-modulo semantics and
    the operand-type bit masking of the bitwise ops), with the result
    wrap folded in — the bit-identity contract with the interpreter
    rests on this correspondence.  The compiled tier runs every
    datapath op through it; the codegen emitter folds fully-constant
    ops through it and calls it for DIV/REM.
    """
    wrap = wrap_fn(result_type)
    if opcode is Opcode.ADD:
        return lambda a, b: wrap(a + b)
    if opcode is Opcode.SUB:
        return lambda a, b: wrap(a - b)
    if opcode is Opcode.MUL:
        return lambda a, b: wrap(a * b)
    if opcode is Opcode.DIV:

        def div(a: int, b: int) -> int:
            if b == 0:
                return wrap(0)
            quotient = abs(a) // abs(b)
            return wrap(-quotient if (a < 0) != (b < 0) else quotient)

        return div
    if opcode is Opcode.REM:

        def rem(a: int, b: int) -> int:
            if b == 0:
                return wrap(0)
            magnitude = abs(a) % abs(b)
            return wrap(-magnitude if a < 0 else magnitude)

        return rem
    if opcode is Opcode.NEG:
        return lambda a: wrap(-a)
    if opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
        mask0 = (1 << operand_types[0].width) - 1
        mask1 = (1 << operand_types[1].width) - 1
        if opcode is Opcode.AND:
            return lambda a, b: wrap((a & mask0) & (b & mask1))
        if opcode is Opcode.OR:
            return lambda a, b: wrap((a & mask0) | (b & mask1))
        return lambda a, b: wrap((a & mask0) ^ (b & mask1))
    if opcode is Opcode.NOT:
        return lambda a: wrap(~a)
    if opcode in (Opcode.SHL, Opcode.SHR):
        modulus = max(1, result_type.width)
        if opcode is Opcode.SHL:
            return lambda a, b: wrap(a << (b % modulus))
        if operand_types[0].signed:
            return lambda a, b: wrap(a >> (b % modulus))
        mask0 = (1 << operand_types[0].width) - 1
        return lambda a, b: wrap((a & mask0) >> (b % modulus))
    if opcode in (Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE):
        true_value = wrap(1)
        false_value = wrap(0)
        if opcode is Opcode.EQ:
            return lambda a, b: true_value if a == b else false_value
        if opcode is Opcode.NE:
            return lambda a, b: true_value if a != b else false_value
        if opcode is Opcode.LT:
            return lambda a, b: true_value if a < b else false_value
        if opcode is Opcode.LE:
            return lambda a, b: true_value if a <= b else false_value
        if opcode is Opcode.GT:
            return lambda a, b: true_value if a > b else false_value
        return lambda a, b: true_value if a >= b else false_value
    if opcode is Opcode.MOV:
        return lambda a: wrap(a)
    return None


def op_fields(op) -> tuple:
    """``(opcode, result, operands, array_name)`` of a scheduled op or
    a DFG :class:`VariantOp` — the two shapes a state executes."""
    if isinstance(op, Instruction):
        return (
            op.opcode,
            op.result,
            list(op.operands),
            op.array.name if op.array is not None else None,
        )
    assert isinstance(op, VariantOp)
    return op.opcode, op.result, list(op.operands), op.array_name


#: Transition record kinds (first tuple element of a transition spec).
SEQ = 0
COND = 1


class DesignLayout:
    """Slot-indexed view of one FSMD design.

    Attributes (all read-only by convention):

    * ``reg_slots`` / ``n_regs`` — register name → flat slot index;
    * ``mem_slots`` / ``mem_names`` / ``memory_specs`` /
      ``memory_sizes`` — memory name → slot, per-slot ``(name, array,
      rom, element_wrap)`` build specs for initial images, and each
      image's length;
    * ``slot_write_types`` — every :class:`IntType` stored into each
      register slot on any path (baseline schedule, parameters and all
      DFG variants), used for read-side wrap elision;
    * ``param_latches`` — per scalar parameter, ``(slot, wrap)`` or
      ``None`` when the parameter never landed in a register;
    * ``states`` / ``idx_of`` / ``state_names`` / ``entry_idx`` /
      ``done`` — the dense state numbering;
    * ``transition_specs`` — per state, ``(COND, condition_value,
      key_bit_or_None, true_idx_or_None, false_idx_or_None)`` or
      ``(SEQ, next_idx_or_None)``;
    * ``state_op_lists`` — per state, the cstep-filtered baseline op
      list, or ``None`` for states of variant-obfuscated blocks;
    * ``variant_tables`` — per obfuscated block, ``(BlockVariants,
      [(state_idx, {selector: cstep-filtered op list})])``; the
      selectors of one arm (:meth:`BlockVariants.arms`) share one
      filtered list object.
    """

    def __init__(self, design: FsmdDesign) -> None:
        self.design = design
        binding = design.binding
        # --- flat register file ------------------------------------
        self.reg_slots: dict[str, int] = {
            r.name: i for i, r in enumerate(binding.registers)
        }
        self.n_regs = len(binding.registers)
        # --- flat memories -----------------------------------------
        self.mem_slots: dict[str, int] = {}
        self.mem_names: list[str] = []
        self.memory_specs: list[tuple] = []
        for name, memory_binding in binding.memories.items():
            self.mem_slots[name] = len(self.mem_names)
            self.mem_names.append(name)
            array = memory_binding.array
            rom = design.obfuscated_roms.get(name)
            self.memory_specs.append((name, array, rom, wrap_fn(array.element_type)))
        self.memory_sizes = [len(memory) for memory in self.initial_memories(None)[0]]
        # --- wrap elision: registers written by exactly one type can
        # be read back without re-wrapping (values are stored wrapped).
        self.slot_write_types = self._collect_write_types()
        # --- scalar-argument latches -------------------------------
        scalar_params = design.func.scalar_params()
        self.n_scalar_params = len(scalar_params)
        self.param_latches: list[Optional[tuple[int, Callable]]] = []
        for param in scalar_params:
            register = binding.register_of.get(param)
            if register is None:
                self.param_latches.append(None)
            else:
                assert isinstance(param.type, IntType)
                self.param_latches.append(
                    (self.reg_slots[register.name], param.type.wrap)
                )
        # --- states, ops and transitions ---------------------------
        self.states: list[StateId] = list(design.controller.states)
        self.idx_of: dict[StateId, int] = {s: i for i, s in enumerate(self.states)}
        self.state_names = [str(s) for s in self.states]
        self.done: list[bool] = []
        self.transition_specs: list[tuple] = []
        self.state_op_lists: list[Optional[list]] = [None] * len(self.states)
        for idx, state in enumerate(self.states):
            if state.block not in design.block_variants:
                block_schedule = design.schedule.blocks[state.block]
                self.state_op_lists[idx] = list(
                    block_schedule.instructions_at(state.step)
                )
            self._lower_transition(state)
        variant_states: dict[str, list[tuple[StateId, int]]] = {
            name: [] for name in design.block_variants
        }
        for state, idx in self.idx_of.items():
            if state.block in variant_states:
                variant_states[state.block].append((state, idx))
        self.variant_tables: list[tuple] = []
        for block_name, variants in design.block_variants.items():
            arms = variants.arms()
            tables: list[tuple[int, dict[int, list]]] = []
            for state, idx in variant_states[block_name]:
                # Filtered once per arm; the arm's selectors share it.
                per_selector: dict[int, list] = {}
                for selectors, ops in arms:
                    filtered = [op for op in ops if op.cstep == state.step]
                    per_selector.update(dict.fromkeys(selectors, filtered))
                tables.append((idx, dict(sorted(per_selector.items()))))
            self.variant_tables.append((variants, tables))
        entry = design.controller.entry_state
        assert entry is not None
        self.entry_idx = self.idx_of[entry]

    # ------------------------------------------------------------------
    def _collect_write_types(self) -> dict[int, set[IntType]]:
        """Every IntType stored into each register slot (any path)."""
        design = self.design
        written: dict[int, set[IntType]] = {}

        def note(result: Optional[Value]) -> None:
            if result is None:
                return
            register = design.binding.register_of.get(result)
            if register is None:
                return
            if isinstance(result.type, IntType):
                written.setdefault(self.reg_slots[register.name], set()).add(
                    result.type
                )

        for param in design.func.scalar_params():
            note(param)
        for block_schedule in design.schedule.blocks.values():
            for inst in block_schedule.block.instructions:
                note(inst.result)
        for variants in design.block_variants.values():
            for _, ops in variants.arms():
                for op in ops:
                    note(op.result)
        return written

    def _lower_transition(self, state: StateId) -> None:
        transition = self.design.controller.transitions[state]
        self.done.append(transition.is_done)
        if transition.condition is not None:
            true_idx = (
                self.idx_of[transition.true_state]
                if transition.true_state is not None
                else None
            )
            false_idx = (
                self.idx_of[transition.false_state]
                if transition.false_state is not None
                else None
            )
            self.transition_specs.append(
                (COND, transition.condition, transition.key_bit, true_idx, false_idx)
            )
        else:
            next_idx = (
                self.idx_of[transition.next_state]
                if transition.next_state is not None
                else None
            )
            self.transition_specs.append((SEQ, next_idx))

    # ------------------------------------------------------------------
    def elidable_read(self, slot: int, type_: IntType) -> bool:
        """True when a read of ``slot`` at ``type_`` needs no re-wrap.

        Registers only ever hold values wrapped at write time; when
        every writer shares the reader's type the stored value is
        already in range and the read-side wrap is the identity.
        """
        return self.slot_write_types.get(slot) == {type_}

    def initial_memories(
        self, arrays: Optional[dict[str, list[int]]]
    ) -> tuple[list[list[int]], dict[str, list[int]]]:
        """Slot-indexed memory images plus the name-keyed view of them.

        Both structures share the same lists, so the dict (returned in
        ``SimulationResult.arrays``) reflects every committed store.
        """
        mems: list[list[int]] = []
        by_name: dict[str, list[int]] = {}
        for name, array, rom, element_wrap in self.memory_specs:
            if rom is not None:
                memory = list(rom.encrypted_image)
            elif arrays is not None and array.name in arrays:
                provided = list(arrays[array.name])
                if len(provided) < array.size:
                    provided += [0] * (array.size - len(provided))
                memory = [element_wrap(v) for v in provided[: array.size]]
            elif array.initializer is not None:
                memory = [element_wrap(v) for v in array.initializer]
            else:
                memory = [0] * array.size
            mems.append(memory)
            by_name[name] = memory
        return mems, by_name


# ----------------------------------------------------------------------
# Compile-once cache (shared by the compiled and codegen tiers)
# ----------------------------------------------------------------------
def design_fingerprint(design: FsmdDesign) -> tuple:
    """Cheap invalidation key over the mutable obfuscation metadata.

    Every TAO pass grows one of these collections (or the key config),
    so obfuscating a design in place after a baseline simulation
    rotates the fingerprint and forces a rebuild; so does resizing a
    ROM image (generated code bakes memory sizes in).  Mutating the
    schedule or binding of an already-simulated design in place is not
    detected — build a fresh design (as every repo flow does) instead.
    """
    return (
        len(design.obfuscated_constants),
        len(design.masked_branches),
        len(design.block_variants),
        len(design.obfuscated_roms),
        len(design.controller.transitions),
        design.key_config.working_key_bits,
        design.key_config.correct_working_key,
        tuple(len(rom.encrypted_image) for rom in design.obfuscated_roms.values()),
    )


class PlanCache:
    """Bounded LRU of lowered execution plans, one instance per tier.

    Keyed on design object identity and validated against
    :func:`design_fingerprint`.  A cached plan keeps its design alive
    (plans reference design values), so the cache is a small LRU rather
    than unbounded: campaigns touch one design per unit and attack
    sweeps a handful, so a few slots cover the access pattern while
    bounding memory in long-lived processes that churn through many
    designs.  Entries for designs that die early are evicted by the
    weakref callback, so a recycled ``id()`` can never resurrect a
    stale plan.
    """

    def __init__(self, factory: Callable[[FsmdDesign], object], limit: int = 8):
        self._factory = factory
        self._limit = limit
        self._entries: OrderedDict[int, tuple[weakref.ref, tuple, object]] = (
            OrderedDict()
        )

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def plan_for(self, design: FsmdDesign):
        key = id(design)
        entry = self._entries.get(key)
        if entry is not None:
            ref, fingerprint, plan = entry
            if ref() is design and fingerprint == design_fingerprint(design):
                self._entries.move_to_end(key)
                return plan
        plan = self._factory(design)

        # The entry dict is captured as a default so the callback still
        # works during interpreter shutdown, when module globals are None.
        def _evict(
            _ref: weakref.ref, _key: int = key, _cache: dict = self._entries
        ) -> None:
            _cache.pop(_key, None)

        self._entries[key] = (
            weakref.ref(design, _evict),
            design_fingerprint(design),
            plan,
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self._limit:
            self._entries.popitem(last=False)
        return plan
