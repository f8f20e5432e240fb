"""Generated FSMD execution engine: exec()-compiled Python per design.

The reference interpreter (:class:`repro.sim.fsmd_sim.FsmdSimulator`)
re-resolves everything per cycle: operand kinds, register bindings,
cstep filtering, variant selection and opcode dispatch.  A §4.3
validation campaign pays that once per cycle per key, mostly on wrong
keys that spin to the cycle cap.  This module generates Python source
for a design once and ``compile()``\\ s it, so a cycle is straight-line
code over a per-lane register list:

* **Chains.**  States are partitioned into *chains* — maximal runs in
  which every state but the head has its chain predecessor as its only
  inbound edge (see :meth:`CodegenDesign._build_chains`).  Each chain
  becomes one generated function that executes its states as
  consecutive cycles and returns ``(next_state, cycles)`` when control
  leaves it; a jump back to its own head is a ``continue`` of the
  function's loop, so a loop body spins without leaving the function.
  A per-lane driver dispatches on the returned state through a
  state-indexed function list.

* **Storage.**  A lane's registers live in one list ``R`` (slot-indexed;
  one extra slot holds the return value), its memories in ``M`` and
  its key material in ``K``: every key-dependent quantity — decoded
  obfuscated constants, ROM masks, branch key bits, variant arm
  indices — gets one slot, filled per lane by
  :meth:`CodegenDesign.bind_keys`.  Wrap bounds, memory sizes and
  folded constants are literals; so are memory indices and shift
  amounts that are literals in the design, reduced when the code is
  generated.

* **Wraps.**  A value is wrapped to its type only where the wrap can
  change it.  None is emitted for a MOV or STORE whose operand's type
  range lies within the target's (a register read is always in range
  for its own type, and a literal is wrapped at generation time), nor
  for a LOAD whose element type's range lies within the result's
  (memories hold element-wrapped values; an obfuscated ROM word is
  wrapped once decoded).  A remaining signed wrap range-tests the value
  first, ``(_w if LO <= (_w := e) <= HI else ((_w + OFF) & MASK) -
  OFF)``, so the usual small in-range value costs two compares instead
  of three big-int operations; an unsigned wrap stays one mask.

* **Variant dispatch.**  A DFG-variant state compares one ``K`` slot
  of its own, the lane's *arm index* — the position of the arm group
  that holds the lane's selector — against small int literals.  The
  index is bound per lane, once per batch, through the block's
  selector function.

* **Budget checks.**  Every generated cycle first checks the cycle
  budget and then counts itself, so a lane times out at exactly the
  cycle the interpreter would.

* **Small compile units.**  ``compile()``'s peak memory grows with the
  size of the source it is given, so chain functions are split at
  :data:`UNIT_SOURCE_CAP` characters and packed into compile units no
  larger than that; each unit is compiled on its own.

* **Render once.**  Temporaries are local to one cycle, so a state's
  rendered body does not depend on where it is emitted: it is rendered
  once per plan — for a DFG-variant state once per distinct arm, with
  the arms then grouped by identical text — and reused wherever the
  state's cycle appears.

The engine records no state trace; a caller that wants one runs the
reference interpreter with ``trace=True``.  The batch lifecycle is:
:func:`codegen_for` (build once per process) →
:meth:`~CodegenDesign.bind_keys` (per batch; called by
:meth:`~CodegenDesign.run_batch`) → one driver loop per lane → per-lane
:class:`~repro.sim.fsmd_sim.SimulationResult`\\ s, field-identical to
the interpreter's (asserted differentially in
``tests/test_sim_compiled.py`` and ``tests/test_sim_codegen.py``, and
gated in CI by ``scripts/check_engine_parity.py``).

Instances hold code objects and are deliberately not picklable; worker
processes build their own via :func:`codegen_for` (a
:class:`repro.sim.layout.PlanCache`).
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence

from repro.hls.design import FsmdDesign
from repro.ir.instructions import Opcode
from repro.ir.types import BOOL, IntType
from repro.ir.values import Constant, ObfuscatedConstant, Value
from repro.sim.fsmd_sim import (
    SimulationError,
    SimulationResult,
    zero_size_memory_error,
)
from repro.sim.layout import (
    COND,
    SEQ,
    DesignLayout,
    PlanCache,
    arith_fn,
    op_fields,
    wrap_fn,
)

#: Largest generated source, in characters, handed to one ``compile()``
#: call.  Peak memory of ``compile()`` scales with the unit, not the
#: design, so this bounds the build's memory high-water mark.
UNIT_SOURCE_CAP = 24_000

#: Driver return codes: the lane completed (returned, reached a done
#: state or left the FSM), or its cycle budget ran out first.
DONE = -1
TIMEOUT = -2

_CMP_OPS = {
    Opcode.EQ: "==",
    Opcode.NE: "!=",
    Opcode.LT: "<",
    Opcode.LE: "<=",
    Opcode.GT: ">",
    Opcode.GE: ">=",
}


def _wrap_expr(expr: str, type_: IntType) -> str:
    """Inline ``type_.wrap`` as a source expression (bounds as literals).

    An unsigned wrap is one mask.  A signed wrap first range-tests the
    value (held in the cycle-local ``_w``) and pays the three big-int
    operations of the two's-complement fold only when it is out of
    range.  ``_w`` is read right after its own assignment, so nested
    wraps do not disturb each other.
    """
    mask = (1 << type_.width) - 1
    if not type_.signed:
        return f"(({expr}) & {mask})"
    sign = 1 << (type_.width - 1)
    return (
        f"(_w if {-sign} <= (_w := {expr}) <= {sign - 1} "
        f"else ((_w + {sign}) & {mask}) - {sign})"
    )


def _within(inner: IntType, outer: IntType) -> bool:
    """True when every value of ``inner`` is a value of ``outer``."""
    return outer.contains(inner.min_value) and outer.contains(inner.max_value)


def _indent(lines: list[str], prefix: str = "    ") -> list[str]:
    return [prefix + line for line in lines]


class _Emitter:
    """Lowers one cycle's op list to source lines.

    Temporaries are numbered from 1 per cycle, so the rendering of an
    op list is independent of where it is emitted.  Records which
    memories the code touches so the enclosing function can alias
    exactly those.
    """

    def __init__(self, plan: "CodegenDesign") -> None:
        self.plan = plan
        self.mems: set[int] = set()
        self._tmp = 0

    def temp(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def _slot(self, value: Value) -> int:
        register = self.plan.design.binding.register_of.get(value)
        if register is None:
            raise SimulationError(f"value {value} has no bound register")
        return self.plan.layout.reg_slots[register.name]

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def operand(self, value: Value) -> str:
        if isinstance(value, ObfuscatedConstant):
            return self.plan.key_ref(("kc", value), value.decode)
        if isinstance(value, Constant):
            return repr(value.value)
        slot = self._slot(value)
        assert isinstance(value.type, IntType)
        if self.plan.layout.elidable_read(slot, value.type):
            return f"R[{slot}]"
        return _wrap_expr(f"R[{slot}]", value.type)

    def fitted(self, value: Value, type_: IntType) -> str:
        """``value`` read and wrapped to ``type_``.

        A read is always in range for the value's own type, so the wrap
        is dropped when that range lies within ``type_``'s; a literal
        is wrapped here, at generation time.
        """
        if isinstance(value, Constant):
            return repr(type_.wrap(value.value))
        assert isinstance(value.type, IntType)
        expression = self.operand(value)
        if _within(value.type, type_):
            return expression
        return _wrap_expr(expression, type_)

    def arith(self, opcode: Opcode, operands: list[Value], result_type: IntType) -> str:
        """Inline arithmetic for one datapath op (wrap folded in)."""
        a = self.operand(operands[0])
        b = self.operand(operands[1]) if len(operands) > 1 else None
        types: list[IntType] = []
        for operand in operands:
            assert isinstance(operand.type, IntType)
            types.append(operand.type)

        def wrap(expression: str) -> str:
            return _wrap_expr(expression, result_type)

        if opcode is Opcode.ADD:
            return wrap(f"{a} + {b}")
        if opcode is Opcode.SUB:
            return wrap(f"{a} - {b}")
        if opcode is Opcode.MUL:
            return wrap(f"{a} * {b}")
        if opcode is Opcode.NEG:
            return wrap(f"-({a})")
        if opcode is Opcode.NOT:
            return wrap(f"~({a})")
        if opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
            mask0 = (1 << types[0].width) - 1
            mask1 = (1 << types[1].width) - 1
            symbol = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}[opcode]
            return wrap(f"(({a}) & {mask0}) {symbol} (({b}) & {mask1})")
        if opcode in (Opcode.SHL, Opcode.SHR):
            modulus = max(1, result_type.width)
            amount = operands[1]
            if isinstance(amount, Constant):
                shift = str(amount.value % modulus)
            else:
                shift = f"(({b}) % {modulus})"
            if opcode is Opcode.SHL:
                return wrap(f"({a}) << {shift}")
            if types[0].signed:
                return wrap(f"({a}) >> {shift}")
            mask0 = (1 << types[0].width) - 1
            return wrap(f"(({a}) & {mask0}) >> {shift}")
        if opcode in _CMP_OPS:
            true_value = wrap_fn(result_type)(1)
            false_value = wrap_fn(result_type)(0)
            return f"({true_value} if ({a}) {_CMP_OPS[opcode]} ({b}) else {false_value})"
        if opcode is Opcode.MOV:
            return self.fitted(operands[0], result_type)
        if opcode in (Opcode.DIV, Opcode.REM):
            # Division totality (the |0 quotient, sign conventions) is
            # easier to keep bit-identical by calling arith_fn's closure
            # than by inlining the conditionals.
            helper = self.plan.helper_name(opcode, types, result_type)
            return f"{helper}({a}, {b})"
        raise SimulationError(f"cannot evaluate opcode {opcode}")

    def _index(
        self, mem_idx: int, index: Value, expression: Optional[str] = None
    ) -> str:
        """A memory index reduced modulo the (baked-in) memory size.

        A literal index is reduced here, at generation time; any other
        is read (or taken from ``expression``, a temporary holding it)
        and reduced at run time.
        """
        self.mems.add(mem_idx)
        size = self.plan.layout.memory_sizes[mem_idx]
        if size and isinstance(index, Constant):
            return str(index.value % size)
        if expression is None:
            expression = self.operand(index)
        if size & (size - 1) == 0:
            return f"({expression}) & {size - 1}"  # == % size for every int
        return f"({expression}) % {size}"

    def _zero_guard(self, mem_idx: int, array_name: str) -> list[str]:
        if self.plan.layout.memory_sizes[mem_idx]:
            return []
        return [f"raise _zero({array_name!r})"]

    def _read_slots(self, operands: Sequence[Value]) -> set[int]:
        """Register slots an op's read phase touches (for direct writes)."""
        return {
            self._slot(value)
            for value in operands
            if not isinstance(value, (Constant, ObfuscatedConstant))
            and self.plan.design.binding.register_of.get(value) is not None
        }

    # ------------------------------------------------------------------
    # One op list -> (lines, ret temp or None)
    # ------------------------------------------------------------------
    def body(self, ops: Sequence) -> tuple[list[str], Optional[str]]:
        plan = self.plan
        self._tmp = 0
        reads: list[str] = []
        reg_commits: list[str] = []
        mem_commits: list[str] = []
        ret_temp: Optional[str] = None
        # The two-phase clock edge: every read sees pre-cycle values, so
        # of multiple writes to one slot only the last is live — earlier
        # ones keep their read phase (a dead LOAD must still raise on a
        # zero-size memory) but drop their commit.  A live write goes
        # straight into R when no later op reads the slot this cycle,
        # and through a temporary otherwise; transitions read
        # post-commit values, so they never force a temporary.
        future_reads: list[set[int]] = [set() for _ in ops]
        last_write: dict[int, int] = {}
        register_of = plan.design.binding.register_of
        pending: set[int] = set()
        for position in range(len(ops) - 1, -1, -1):
            future_reads[position] = set(pending)
            opcode, result, operands, _ = op_fields(ops[position])
            pending |= self._read_slots(operands)
            if (
                result is not None
                and opcode not in (Opcode.JUMP, Opcode.BRANCH, Opcode.RET)
                and register_of.get(result) is not None
            ):
                last_write.setdefault(self._slot(result), position)

        def commit_result(position: int, slot: int, expression: str) -> None:
            """Route one register write: dead / direct / through a temp."""
            if last_write.get(slot) != position:
                reads.append(f"{self.temp()} = {expression}")
                return
            if slot not in future_reads[position]:
                reads.append(f"R[{slot}] = {expression}")
                return
            temp = self.temp()
            reads.append(f"{temp} = {expression}")
            reg_commits.append(f"R[{slot}] = {temp}")

        for position, op in enumerate(ops):
            opcode, result, operands, array_name = op_fields(op)
            if opcode in (Opcode.JUMP, Opcode.BRANCH):
                continue  # handled by the generated transition
            if opcode is Opcode.RET:
                ret_temp = self.temp("_ret")
                value = self.operand(operands[0]) if operands else "0"
                reads.append(f"{ret_temp} = {value}")
                continue
            if opcode is Opcode.CALL:
                raise SimulationError("calls must be inlined before simulation")
            if opcode is Opcode.LOAD:
                assert array_name is not None and result is not None
                mem_idx = plan.layout.mem_slots[array_name]
                reads.extend(self._zero_guard(mem_idx, array_name))
                raw = f"_a{mem_idx}[{self._index(mem_idx, operands[0])}]"
                element_type = plan.design.func.arrays[array_name].element_type
                rom = plan.design.obfuscated_roms.get(array_name)
                if rom is not None:
                    element_mask = (1 << element_type.width) - 1
                    mask_ref = plan.key_ref(
                        ("rom", array_name),
                        lambda key, rom=rom, et=element_type: rom.mask_for(et, key),
                    )
                    raw = _wrap_expr(
                        f"({raw} & {element_mask}) ^ {mask_ref}", element_type
                    )
                # Memories hold values wrapped to their element type
                # (ROM words once decoded), so the load needs no wrap
                # when that range lies within the result's.
                assert isinstance(result.type, IntType)
                if not _within(element_type, result.type):
                    raw = _wrap_expr(raw, result.type)
                commit_result(position, self._slot(result), raw)
                continue
            if opcode is Opcode.STORE:
                assert array_name is not None
                mem_idx = plan.layout.mem_slots[array_name]
                element_type = plan.design.func.arrays[array_name].element_type
                # The commit runs after the read phase, so a register
                # operand is read into a temporary; a literal is not.
                index, value = operands[0], operands[1]
                index_temp = None
                if not isinstance(index, Constant):
                    index_temp = self.temp("_ti")
                    reads.append(f"{index_temp} = {self.operand(index)}")
                stored = self.fitted(value, element_type)
                if not isinstance(value, Constant):
                    value_temp = self.temp("_tv")
                    reads.append(f"{value_temp} = {stored}")
                    stored = value_temp
                mem_commits.extend(self._zero_guard(mem_idx, array_name))
                mem_commits.append(
                    f"_a{mem_idx}[{self._index(mem_idx, index, index_temp)}] = {stored}"
                )
                continue
            # Datapath op or MOV.
            assert result is not None and isinstance(result.type, IntType)
            if all(isinstance(v, Constant) for v in operands):
                # Fully-constant op: fold at generation time.
                fn = arith_fn(opcode, [v.type for v in operands], result.type)
                if fn is None:
                    raise SimulationError(f"cannot evaluate opcode {opcode}")
                expression = repr(fn(*[v.value for v in operands]))
            else:
                expression = self.arith(opcode, operands, result.type)
            commit_result(position, self._slot(result), expression)

        return reads + reg_commits + mem_commits, ret_temp


class CodegenDesign:
    """One FSMD design lowered into generated chain functions.

    Build once (the constructor generates and compiles the code), then
    :meth:`run_batch` any number of key batches; :meth:`bind_keys`
    fills the per-lane key material and is called automatically.
    :meth:`run` is the scalar view — a batch of one lane.
    """

    def __init__(self, design: FsmdDesign) -> None:
        self.design = design
        layout = self.layout = DesignLayout(design)
        self._namespace: dict[str, object] = {"_zero": zero_size_memory_error}
        # Key material: one K slot per key-dependent quantity.
        self._key_slots: dict[Hashable, int] = {}
        self._key_fns: list[Callable[[int], int]] = []
        self._helpers: dict[tuple, str] = {}
        self._bound_keys: Optional[tuple[int, ...]] = None
        self._lane_keys: list[list[int]] = []
        #: Op-list renderings performed (the render-once regression
        #: test bounds this by states x selectors).
        self.body_renders = 0
        self._variant_states: dict[
            int, tuple[Callable[[int], int], dict[int, list]]
        ] = {}
        for variants, tables in layout.variant_tables:
            valid = frozenset(variants.variants)

            def select(key: int, variants=variants, valid=valid) -> int:
                selector = variants.selector(key)
                if selector not in valid:
                    # An out-of-table selector fails the whole bind.
                    raise KeyError(selector)
                return selector

            # Binds the selector even where no state of the block
            # dispatches on it, so every block validates its key slice.
            self.key_ref(("sel", variants.block_name), select)
            for idx, per_selector in tables:
                self._variant_states[idx] = (select, per_selector)
        self._cycles: dict[int, tuple[list, set[int]]] = {}
        # Generate, split and compile the chain functions.
        # Generated source of each chain function, keyed by its head,
        # and the head of the function that holds each state.
        self.function_sources: dict[int, str] = {}
        self._head_of_state: dict[int, int] = {}
        for chain in self._build_chains():
            for segment, source in self._split(chain):
                self.function_sources[segment[0]] = source
                for state_idx in segment:
                    self._head_of_state[state_idx] = segment[0]
        self.unit_sources: list[str] = []
        unit: list[str] = []
        size = 0
        for source in self.function_sources.values():
            if unit and size + len(source) > UNIT_SOURCE_CAP:
                self._compile_unit("\n\n".join(unit))
                unit, size = [], 0
            unit.append(source)
            size += len(source) + 2
        self._compile_unit("\n\n".join(unit))
        self._chain_fns: list[Optional[Callable]] = [None] * len(layout.states)
        for head in self.function_sources:
            self._chain_fns[head] = self._namespace[f"_c{head}"]

    # ------------------------------------------------------------------
    # Name registries (per-lane key slots, helper closures)
    # ------------------------------------------------------------------
    def key_ref(self, identity: Hashable, fn: Callable[[int], int]) -> str:
        """The ``K[...]`` read of one key-dependent quantity.

        ``fn`` maps a working key to the quantity; it runs once per
        lane in :meth:`bind_keys`.
        """
        slot = self._key_slots.get(identity)
        if slot is None:
            slot = self._key_slots[identity] = len(self._key_fns)
            self._key_fns.append(fn)
        return f"K[{slot}]"

    def helper_name(
        self, opcode: Opcode, operand_types: list[IntType], result_type: IntType
    ) -> str:
        key = (opcode, tuple(operand_types), result_type)
        name = self._helpers.get(key)
        if name is None:
            name = f"_h{len(self._helpers)}"
            self._helpers[key] = name
            fn = arith_fn(opcode, list(operand_types), result_type)
            assert fn is not None
            self._namespace[name] = fn
        return name

    def _compile_unit(self, source: str) -> None:
        index = len(self.unit_sources)
        self.unit_sources.append(source)
        code = compile(source, f"<codegen:{self.design.name}:{index}>", "exec")
        exec(code, self._namespace)

    # ------------------------------------------------------------------
    # Chains
    # ------------------------------------------------------------------
    def _build_chains(self) -> list[list[int]]:
        """Partition states into maximal straight-line multi-cycle runs.

        A state joins its predecessor's chain when one of the
        predecessor's outbound edges — the ``SEQ`` edge, or either arm
        of a ``COND`` — is its *sole* inbound edge and it is not the
        entry state; for a ``COND`` the other arm becomes an exit from
        the chain.  When both arms could be absorbed, the one whose
        continuation jumps back to the chain head wins: the loop then
        spins as a ``continue`` inside one function, which is where a
        corrupted wrong-key lane spends its cycles.  States with
        several inbound edges (and the entry) head chains first; a
        state left over because its predecessor took the other arm
        heads a chain of its own.
        """
        layout = self.layout
        n = len(layout.states)
        preds = [0] * n
        for spec in layout.transition_specs:
            for target in self._targets(spec):
                if target is not None:
                    preds[target] += 1
        claimed: set[int] = set()

        def grow(head: int, prefer_loops: bool = True) -> list[int]:
            chain = [head]
            while not layout.done[chain[-1]]:
                options = [
                    target
                    for target in self._targets(layout.transition_specs[chain[-1]])
                    if target is not None
                    and target != layout.entry_idx
                    and preds[target] == 1
                    and target not in claimed
                    and target not in chain
                ]
                if not options:
                    break
                target = options[0]
                if prefer_loops and len(options) > 1:
                    for option in options:
                        if any(
                            head in self._targets(layout.transition_specs[state])
                            for state in grow(option, prefer_loops=False)
                        ):
                            target = option
                            break
                chain.append(target)
            return chain

        heads = [i for i in range(n) if i == layout.entry_idx or preds[i] != 1]
        chains: list[list[int]] = []
        for idx in heads + list(range(n)):
            if idx not in claimed:
                chain = grow(idx)
                claimed.update(chain)
                chains.append(chain)
        return chains

    @staticmethod
    def _targets(spec: tuple) -> tuple[Optional[int], ...]:
        """Successor states of a transition spec, false arm first."""
        return (spec[4], spec[3]) if spec[0] == COND else (spec[1],)

    def _split(self, chain: list[int]) -> list[tuple[list[int], str]]:
        """Cut a chain into segments whose rendering fits one unit.

        Returns ``[(segment, source)]``.  The continuation state of each
        cut becomes a segment head (a dispatch target of its own).  A
        single state is never cut.
        """
        segments: list[tuple[list[int], str]] = []
        start = 0
        while start < len(chain):
            end = len(chain)
            source = self._render(chain[start:end])
            while end - start > 1 and len(source) > UNIT_SOURCE_CAP:
                # Shrink in proportion to the overshoot, by one at least.
                length = end - start
                end = start + max(
                    1, min(length - 1, length * UNIT_SOURCE_CAP // len(source))
                )
                source = self._render(chain[start:end])
            segments.append((chain[start:end], source))
            start = end
        return segments

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _cycle(
        self, state_idx: int
    ) -> tuple[list[tuple[tuple[int, ...], list[str], Optional[str]]], set[int]]:
        """The memoized body groups of one state, and the memories
        they touch.

        The groups are ``[(selectors, lines, ret_temp)]`` — one entry
        for a plain state, and for a DFG-variant state one entry per
        group of selectors whose arms render to identical text.
        """
        cached = self._cycles.get(state_idx)
        if cached is not None:
            return cached
        emitter = _Emitter(self)
        variant = self._variant_states.get(state_idx)
        per_selector = (
            {0: self.layout.state_op_lists[state_idx] or []}
            if variant is None
            else variant[1]
        )
        # Selectors sharing an op list (one arm) are keyed once; arms
        # whose operations at this cycle are equal render once; arms
        # whose operations differ but render to the same text (a dead
        # write, say) merge afterwards.
        arms: dict[int, tuple[list, list[int]]] = {}
        for selector in sorted(per_selector):
            ops = per_selector[selector]
            arms.setdefault(id(ops), (ops, []))[1].append(selector)
        same_ops: dict[tuple, list[int]] = {}
        for ops, selectors in arms.values():
            fields = tuple(
                (opcode, result, tuple(operands), array_name)
                for opcode, result, operands, array_name in map(op_fields, ops)
            )
            same_ops.setdefault(fields, []).extend(selectors)
        groups: dict[tuple, list[int]] = {}
        for selectors in same_ops.values():
            self.body_renders += 1
            lines, ret_temp = emitter.body(per_selector[selectors[0]])
            groups.setdefault((tuple(lines), ret_temp), []).extend(selectors)
        result = [
            (tuple(sorted(selectors)), list(lines), ret_temp)
            for (lines, ret_temp), selectors in sorted(
                groups.items(), key=lambda entry: min(entry[1])
            )
        ]
        self._cycles[state_idx] = (result, emitter.mems)
        return result, emitter.mems

    def _arm_ref(self, state_idx: int, groups: list) -> str:
        """The ``K[...]`` read of a variant state's arm index: the
        position in ``groups`` of the group holding the lane's
        selector."""
        select = self._variant_states[state_idx][0]
        arm_of = {
            selector: arm
            for arm, (selectors, _, _) in enumerate(groups)
            for selector in selectors
        }
        return self.key_ref(
            ("arm", state_idx),
            lambda key, select=select, arm_of=arm_of: arm_of[select(key)],
        )

    def _condition(self, spec: tuple) -> str:
        _, condition, key_bit, _, _ = spec
        test = _Emitter(self).operand(condition)
        # A read is in range for its own type: a u1 condition is 0 or 1.
        if not (isinstance(condition.type, IntType) and _within(condition.type, BOOL)):
            test = f"({test}) & 1"
        if key_bit is not None:
            bit_ref = self.key_ref(("kb", key_bit), lambda key, b=key_bit: (key >> b) & 1)
            test = f"({test}) ^ {bit_ref}"
        return test

    def _render(self, segment: list[int]) -> str:
        """One chain segment as the function ``_c<head>``: its states as
        consecutive cycles, looping on a jump back to the head and
        returning ``(next_state, cycles)`` on any other exit."""
        layout = self.layout
        head = segment[0]
        mems: set[int] = set()
        body: list[str] = []

        def goto(target: Optional[int]) -> list[str]:
            if target is None:
                return [f"return {DONE}, n"]
            if target == head:
                return ["continue"]
            return [f"return {target}, n"]

        for position, state_idx in enumerate(segment):
            following = segment[position + 1] if position + 1 < len(segment) else None

            def tail(ret_temp: Optional[str]) -> list[str]:
                if ret_temp is not None:
                    return [f"R[{layout.n_regs}] = {ret_temp}"] + goto(None)
                if layout.done[state_idx]:
                    return goto(None)
                spec = layout.transition_specs[state_idx]
                if spec[0] == SEQ:
                    return [] if following is not None else goto(spec[1])
                test = self._condition(spec)
                if following is None:
                    return [f"if {test}:", *_indent(goto(spec[3]))] + goto(spec[4])
                if spec[4] == following:
                    return [f"if {test}:", *_indent(goto(spec[3]))]
                return [f"if not ({test}):", *_indent(goto(spec[4]))]

            body += [
                f"# state {layout.state_names[state_idx]}",
                "if n >= budget:",
                f"    return {TIMEOUT}, n",
                "n += 1",
            ]
            groups, state_mems = self._cycle(state_idx)
            mems |= state_mems
            if len(groups) == 1:
                _, group_lines, ret_temp = groups[0]
                body += group_lines + tail(ret_temp)
                continue
            # Arm dispatch on the lane's arm index for this state.  The
            # tail is rendered once after the dispatch when no arm
            # returns, and once per group otherwise.
            shared_tail = all(ret_temp is None for _, _, ret_temp in groups)
            arm_ref = self._arm_ref(state_idx, groups)
            for index, (_, group_lines, ret_temp) in enumerate(groups):
                if index + 1 == len(groups):
                    body.append("else:")
                else:
                    keyword = "elif" if index else "if"
                    body.append(f"{keyword} {arm_ref} == {index}:")
                arm = group_lines if shared_tail else group_lines + tail(ret_temp)
                body += _indent(arm or ["pass"])
            if shared_tail:
                body += tail(None)
        lines = [f"def _c{head}(R, M, K, n, budget):"]
        lines += [f"    _a{m} = M[{m}]" for m in sorted(mems)]
        lines.append("    while True:")
        return "\n".join(lines + _indent(body, "        "))

    def state_source(self, state_idx: int) -> str:
        """The generated chain function that holds one state's code."""
        return self.function_sources[self._head_of_state[state_idx]]

    # ------------------------------------------------------------------
    # Per-batch key specialization
    # ------------------------------------------------------------------
    def bind_keys(self, working_keys: Sequence[int]) -> None:
        """Fill every lane's key material for the batch ``working_keys``.

        Cheap — O(lanes × key-dependent quantities), independent of
        cycle count — and memoized on the last bound batch.  Lane ``i``
        of the subsequent :meth:`run_batch` simulates
        ``working_keys[i]``.  Each DFG-variant state gets the lane's arm
        index, computed through its block's selector function, so the
        generated dispatch never looks at the selector itself.  An
        out-of-table variant selector in any lane — in any obfuscated
        block, dispatching or not — raises ``KeyError`` and leaves the
        previous binding intact.
        """
        keys = tuple(working_keys)
        if keys == self._bound_keys:
            return
        fns = self._key_fns
        self._lane_keys = [[fn(key) for fn in fns] for key in keys]
        self._bound_keys = keys

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_batch(
        self,
        args: Sequence[int] = (),
        arrays: Optional[dict[str, list[int]]] = None,
        working_keys: Sequence[int] = (),
        max_cycles: int = 2_000_000,
    ) -> list[SimulationResult]:
        """Simulate one lane per working key; all lanes share the workload.

        Every lane starts from the same arguments and initial memory
        images (each lane gets private copies) and runs to completion
        or to the budget.  ``result[i]`` is field-identical to an
        untraced interpreter run of ``working_keys[i]``.
        """
        layout = self.layout
        if len(args) != layout.n_scalar_params:
            raise SimulationError(
                f"{self.design.func.name} expects {layout.n_scalar_params} "
                f"scalar args, got {len(args)}"
            )
        if not working_keys:
            return []
        self.bind_keys(working_keys)
        registers: list[Optional[int]] = [0] * layout.n_regs + [None]
        for latch, arg in zip(layout.param_latches, args):
            if latch is not None:
                slot, wrap = latch
                registers[slot] = wrap(arg)
        chain_fns = self._chain_fns
        entry = layout.entry_idx
        results = []
        for lane_keys in self._lane_keys:
            lane_registers = list(registers)
            memories, by_name = layout.initial_memories(arrays)
            state, cycles = entry, 0
            while state >= 0:
                state, cycles = chain_fns[state](
                    lane_registers, memories, lane_keys, cycles, max_cycles
                )
            results.append(
                SimulationResult(
                    return_value=lane_registers[-1],
                    arrays=by_name,
                    cycles=cycles,
                    completed=state == DONE,
                )
            )
        return results

    def run(
        self,
        args: Sequence[int] = (),
        arrays: Optional[dict[str, list[int]]] = None,
        working_key: int = 0,
        max_cycles: int = 2_000_000,
    ) -> SimulationResult:
        """One scalar trial — a batch of one lane."""
        return self.run_batch(
            args,
            arrays=arrays,
            working_keys=[working_key],
            max_cycles=max_cycles,
        )[0]


# ----------------------------------------------------------------------
# Compile-once cache
# ----------------------------------------------------------------------
_CODEGEN_CACHE = PlanCache(CodegenDesign, limit=8)


def codegen_for(design: FsmdDesign) -> CodegenDesign:
    """The (memoized) generated plan for ``design``.

    Keyed on object identity, validated against
    :func:`repro.sim.layout.design_fingerprint`, bounded LRU.
    """
    return _CODEGEN_CACHE.plan_for(design)
