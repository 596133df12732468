"""Compile column-local compute runs into batched execution.

Between communication instructions a column's behaviour is entirely
local: the SIMD controller streams compute instructions to the tiles,
nothing touches a comm buffer, and therefore nothing any other clock
domain can observe changes.  The reference engine still pays one full
fetch/issue round trip per tile-clock edge for those stretches.  This
module compiles them away:

* **Runs** - maximal blocks of plain compute instructions are bound
  into a dispatch table so a whole block issues without the
  controller's fetch machinery (pending slot, ZORM check, control
  resolution).  Each block is additionally *code-generated* into one
  specialized Python function per block that executes every
  instruction of the block on one tile with the register-file dict
  and memory list bound to locals; a companion bounds pre-check
  proves, from the statically-tracked pointer evolution, that no
  memory access in the block can fault before any tile commits.
  Blocks whose shape the generator does not model (and any block
  whose pre-check fails at run time) fall back to instruction-by-
  instruction issue through :meth:`~repro.arch.tile.Tile.execute`,
  which preserves partial state and error behaviour exactly.

* **Comm-headed issue** - a ``SEND``/``RECV`` may issue *as the first
  edge of a runner call* (that edge is the engine's current tick, so
  the buffer effect lands at exactly the reference time), after which
  the following compute run is pre-executed in the same call.  A comm
  instruction reached after the first edge always stops the run:
  pre-executing it would move its buffer traffic to the wrong tick.
  This also makes loops whose bodies contain communication cheap: the
  per-iteration ``ENDLOOP`` resolves zero-cost in the runner and the
  body's comm/compute segments dispatch individually.

* **Loops** - a ``LOOP`` whose body is all plain compute executes its
  iterations in closed form: the ``LOOP``/``ENDLOOP`` zero-cost
  control is accounted arithmetically, and bodies matching a static
  dataflow shape (post-increment loads, self-increment ``ADDI``,
  ``MAC`` into an accumulator) are *vectorized* - the whole batch of
  iterations collapses into numpy slice arithmetic plus exact Python
  integer accumulation, with register wrap-per-iteration replaced by
  wrap-once (exact for +/- chains by modular arithmetic).

The engine drives this through :class:`ColumnRunner`: ``run_edges(n)``
pre-executes up to ``n`` future tile-clock edges and returns how many
it consumed; the engine credits the column that many upcoming edges.
Crediting is invisible to every other domain because pre-executed
instructions are pure compute - the runner stops at every
communication instruction, branch, ``HALT``, ZORM-enabled controller,
or any other shape that needs the reference fetch path, which then
runs through :meth:`~repro.arch.chip.Column.step_tile_clock`
unchanged.

The runner maintains the exact post-commit controller state at every
stop: ``pc`` sits after the last issued instruction, loop frames and
``control_executed`` match what the reference fetch sequence would
have left, and a pending zero-cost ``ENDLOOP`` exit is only resolved
when the runner itself handles what follows (otherwise it is left for
the next reference fetch, which resolves it in the same cycle it
would have anyway).
"""

from __future__ import annotations

from repro.isa.instructions import Opcode
from repro.isa.program import MAX_LOOP_DEPTH
from repro.isa.registers import ACCUMULATORS, ALL_REGISTERS

try:  # pragma: no cover - numpy is part of the baked toolchain
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["ColumnRunner", "compile_column_runner"]

#: Minimum batched iterations before a load-carrying loop takes the
#: numpy path (below this the slice/array setup outweighs the win);
#: affine-only bodies are O(1) closed form and always worth it.
VECTOR_MIN_LOADS = 8

_ACC_SET = frozenset(ACCUMULATORS)
_REG_SET = frozenset(ALL_REGISTERS)

_MASK32 = (1 << 32) - 1
_MASK40 = (1 << 40) - 1
_SMAX32 = (1 << 31) - 1
_SMAX40 = (1 << 39) - 1


def _reg(name):
    """Canonical register name, or None if unknown (stay scalar)."""
    if name in _REG_SET:
        return name
    name = name.upper()
    return name if name in _REG_SET else None


def _mask_of(name):
    return _MASK40 if name in _ACC_SET else _MASK32


def _emit_signed(lines, temp, name):
    """Lines loading register ``name`` two's-complement into ``temp``."""
    lines.append(f"    {temp} = v['{name}']")
    if name in _ACC_SET:
        lines.append(
            f"    if {temp} > {_SMAX40}: {temp} -= {_MASK40 + 1}"
        )
    else:
        lines.append(
            f"    if {temp} > {_SMAX32}: {temp} -= {_MASK32 + 1}"
        )


#: Structural memo for generated block functions.  Workload harnesses
#: rebuild identical chips per engine per repeat; the generated code
#: depends only on the instruction shapes, so recompiling per run
#: would put ``builtins.compile`` on the benchmark's critical path.
#: Least recently used first; at most ``_CODEGEN_CACHE_CAP`` entries.
_CODEGEN_CACHE: dict = {}
_CODEGEN_CACHE_CAP = 1024


def _codegen_key(instrs):
    return tuple(
        (
            instr.opcode, instr.dst, instr.srcs, instr.imm,
            instr.ptr, instr.offset, instr.post_increment,
        )
        for instr in instrs
    )


def _codegen_block(instrs):
    """Compile a compute block to ``(fn, check)``, or ``(None, None)``.

    ``fn(tile)`` executes the whole block on one tile, byte-identical
    to the :meth:`~repro.arch.tile.Tile.execute` sequence.  ``check``
    (``None`` when the block provably cannot fault) evaluates every
    memory address the block will touch - pointer evolution within the
    block is affine, tracked symbolically - against the tile's memory
    bound, so the caller can refuse the batch *before* any tile
    mutates.  Any shape outside the model (dynamic pointers, invalid
    operands that the reference path would fault on, negative shift
    counts) yields ``(None, None)`` and the scalar path keeps the
    reference semantics, including error ordering across tiles.
    """
    try:
        key = _codegen_key(instrs)
    except TypeError:
        key = None
    if key is not None:
        cached = _CODEGEN_CACHE.pop(key, None)
        if cached is not None:
            _CODEGEN_CACHE[key] = cached
            return cached
    compiled = _codegen_block_uncached(instrs)
    if key is not None:
        if len(_CODEGEN_CACHE) >= _CODEGEN_CACHE_CAP:
            del _CODEGEN_CACHE[next(iter(_CODEGEN_CACHE))]
        _CODEGEN_CACHE[key] = compiled
    return compiled


def _codegen_block_uncached(instrs):
    lines = []
    check_lines = []
    # Symbolic register values relative to block entry:
    # ('e', delta) = entry value + delta, ('c', v) = constant, None =
    # dynamic (untrackable - no memory access may depend on it).
    sym = {name: ("e", 0) for name in ALL_REGISTERS}
    n_mem = 0
    n_mac = 0
    seen_checks = set()
    for instr in instrs:
        op = instr.opcode
        if op is Opcode.NOP:
            continue
        if op in (Opcode.LD, Opcode.ST):
            ptr = _reg(instr.ptr)
            if ptr is None:
                return None, None
            ptr_sym = sym[ptr]
            if ptr_sym is None:
                return None, None  # dynamic pointer: stay scalar
            mask = _mask_of(ptr)
            offset = instr.offset
            if ptr_sym[0] == "c":
                address = (ptr_sym[1] & mask) + offset
                if not 0 <= address < 1 << 32:
                    return None, None  # always faults: stay scalar
                # Constant addresses still need the per-tile memory
                # bound (memory size is uniform per chip config, but
                # the check keeps the generator honest).
                key = ("c", address)
                if key not in seen_checks:
                    seen_checks.add(key)
                    check_lines.append(
                        f"    if not 0 <= {address} < n: return False"
                    )
                addr_expr = str(address)
            else:
                delta = ptr_sym[1]
                evolved = (
                    f"(v['{ptr}'] + {delta}) & {mask}" if delta
                    else f"v['{ptr}']"
                )
                key = ("e", ptr, delta, offset)
                if key not in seen_checks:
                    seen_checks.add(key)
                    check_lines.append(f"    _a = {evolved}")
                    bound = (
                        f"_a + {offset}" if offset else "_a"
                    )
                    check_lines.append(
                        f"    if not 0 <= {bound} < n: return False"
                    )
                addr_expr = (
                    f"{evolved} + {offset}" if offset else evolved
                )
            n_mem += 1
            if op is Opcode.LD:
                dst = _reg(instr.dst)
                if dst is None:
                    return None, None
                # Memory words are stored wrapped, so no dst mask.
                lines.append(f"    v['{dst}'] = mem[{addr_expr}]")
                sym[dst] = None
            else:
                src = _reg(instr.srcs[0])
                if src is None:
                    return None, None
                value = (
                    f"v['{src}'] & {_MASK32}" if src in _ACC_SET
                    else f"v['{src}']"
                )
                lines.append(f"    mem[{addr_expr}] = {value}")
            if instr.post_increment:
                # Reference order: the increment reads the pointer
                # *after* an LD's destination write (dst == ptr loads
                # then increments the loaded value).
                pmask = _mask_of(ptr)
                lines.append(
                    f"    v['{ptr}'] = (v['{ptr}'] + 1) & {pmask}"
                )
                after = sym[ptr]
                sym[ptr] = (
                    (after[0], after[1] + 1) if after is not None
                    else None
                )
            continue
        dst = _reg(instr.dst) if instr.dst else None
        if op is Opcode.MOVI:
            if dst is None:
                return None, None
            lines.append(
                f"    v['{dst}'] = {instr.imm & _mask_of(dst)}"
            )
            sym[dst] = ("c", instr.imm & _mask_of(dst))
            continue
        if op is Opcode.TID:
            if dst is None:
                return None, None
            lines.append(f"    v['{dst}'] = tile.tile_id")
            sym[dst] = None
            continue
        if op is Opcode.MOV:
            src = _reg(instr.srcs[0])
            if dst is None or src is None:
                return None, None
            value = (
                f"v['{src}'] & {_MASK32}"
                if src in _ACC_SET and dst not in _ACC_SET
                else f"v['{src}']"
            )
            lines.append(f"    v['{dst}'] = {value}")
            src_sym = sym[src]
            # ('e', d) is relative to the *source's* entry value, so
            # only constants survive a register-to-register copy.
            sym[dst] = (
                src_sym
                if src_sym is not None and src_sym[0] == "c"
                and src not in _ACC_SET and dst not in _ACC_SET
                else None
            )
            continue
        if op in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                  Opcode.XOR):
            a = _reg(instr.srcs[0])
            b = _reg(instr.srcs[1])
            if dst is None or a is None or b is None:
                return None, None
            sign = {
                Opcode.ADD: "+", Opcode.SUB: "-", Opcode.AND: "&",
                Opcode.OR: "|", Opcode.XOR: "^",
            }[op]
            lines.append(
                f"    v['{dst}'] = (v['{a}'] {sign} v['{b}'])"
                f" & {_mask_of(dst)}"
            )
            sym[dst] = None
            continue
        if op is Opcode.ADDI:
            src = _reg(instr.srcs[0])
            if dst is None or src is None:
                return None, None
            lines.append(
                f"    v['{dst}'] = (v['{src}'] + {instr.imm})"
                f" & {_mask_of(dst)}"
            )
            src_sym = sym[src]
            if dst in _ACC_SET or src in _ACC_SET:
                sym[dst] = None
            elif src_sym is None:
                sym[dst] = None
            elif src_sym[0] == "c":
                sym[dst] = ("c", (src_sym[1] + instr.imm) & _MASK32)
            elif dst == src:
                sym[dst] = ("e", src_sym[1] + instr.imm)
            else:
                # entry-relative to *another* register: not modelled.
                sym[dst] = None
            continue
        if op in (Opcode.MIN, Opcode.MAX):
            a = _reg(instr.srcs[0])
            b = _reg(instr.srcs[1])
            if dst is None or a is None or b is None:
                return None, None
            _emit_signed(lines, "_a", a)
            _emit_signed(lines, "_b", b)
            cmp = "<=" if op is Opcode.MIN else ">="
            lines.append(
                f"    v['{dst}'] = (_a if _a {cmp} _b else _b)"
                f" & {_mask_of(dst)}"
            )
            sym[dst] = None
            continue
        if op in (Opcode.NEG, Opcode.ABS):
            src = _reg(instr.srcs[0])
            if dst is None or src is None:
                return None, None
            _emit_signed(lines, "_a", src)
            value = "-_a" if op is Opcode.NEG else "(_a if _a >= 0 else -_a)"
            lines.append(
                f"    v['{dst}'] = ({value}) & {_mask_of(dst)}"
            )
            sym[dst] = None
            continue
        if op in (Opcode.ASR, Opcode.LSL, Opcode.LSR):
            src = _reg(instr.srcs[0])
            if dst is None or src is None or instr.imm < 0:
                return None, None
            if op is Opcode.ASR:
                _emit_signed(lines, "_a", src)
                expr = f"_a >> {instr.imm}"
            elif op is Opcode.LSL:
                expr = f"v['{src}'] << {instr.imm}"
            else:
                expr = f"v['{src}'] >> {instr.imm}"
            lines.append(
                f"    v['{dst}'] = ({expr}) & {_mask_of(dst)}"
            )
            sym[dst] = None
            continue
        if op in (Opcode.MUL, Opcode.MULH, Opcode.MAC):
            a = _reg(instr.srcs[0])
            b = _reg(instr.srcs[1])
            if dst is None or a is None or b is None:
                return None, None
            if op is Opcode.MAC and dst not in _ACC_SET:
                return None, None  # reference path raises: stay scalar
            _emit_signed(lines, "_a", a)
            _emit_signed(lines, "_b", b)
            if op is Opcode.MAC:
                _emit_signed(lines, "_c", dst)
                lines.append(
                    f"    v['{dst}'] = (_c + _a * _b) & {_MASK40}"
                )
                n_mac += 1
            elif op is Opcode.MUL:
                lines.append(
                    f"    v['{dst}'] = (_a * _b) & {_mask_of(dst)}"
                )
            else:
                lines.append(
                    f"    v['{dst}'] = ((_a * _b) >> 32)"
                    f" & {_mask_of(dst)}"
                )
            sym[dst] = None
            continue
        return None, None  # unmodelled opcode (comm/control): scalar
    body = ["def _block(tile):", "    v = tile.regs._values"]
    if n_mem:
        body.append("    mem = tile.memory")
    body.extend(lines)
    body.append(f"    tile.instructions_executed += {len(instrs)}")
    if n_mem:
        body.append(f"    tile.memory_accesses += {n_mem}")
    if n_mac:
        body.append(f"    tile.mac_operations += {n_mac}")
    namespace: dict = {}
    exec(compile("\n".join(body), "<column-exec>", "exec"),
         {}, namespace)
    fn = namespace["_block"]
    if not check_lines:
        return fn, None
    check_src = "\n".join(
        ["def _check(tile):", "    v = tile.regs._values",
         "    n = len(tile.memory)"]
        + check_lines
        + ["    return True"]
    )
    exec(compile(check_src, "<column-exec>", "exec"),
         {"len": len}, namespace)
    return fn, namespace["_check"]


class _VectorPlan:
    """Closed-form batch execution of one compiled loop body.

    ``check(tile, k)`` proves ``k`` iterations raise nothing (every
    load stays in bounds); ``apply(tile, k)`` commits the batch:
    loaded registers take their final (last-iteration) values, each
    accumulator gains the exact sum of its per-iteration products
    (computed as int64 numpy products folded with Python integers, so
    no precision is lost), pointers and ``ADDI`` targets advance
    affinely, and the per-tile counters advance by the batch totals.
    """

    __slots__ = ("lds", "addis", "macs", "n_instrs", "min_batch")

    def __init__(self, lds, addis, macs, n_instrs) -> None:
        self.lds = lds        # ((dst, ptr), ...)
        self.addis = addis    # ((dst, imm), ...)
        self.macs = macs      # ((acc, src0, src1), ...)
        self.n_instrs = n_instrs
        self.min_batch = VECTOR_MIN_LOADS if lds else 1

    def check(self, tile, k: int) -> bool:
        """Whether ``k`` iterations touch only in-bounds addresses."""
        regs = tile.regs
        limit = len(tile.memory)
        for _, ptr in self.lds:
            start = regs.read(ptr)
            if start + k > limit:
                return False
        return True

    def apply(self, tile, k: int) -> None:
        regs = tile.regs
        memory = tile.memory
        loaded = {}
        signed_arrays = {}
        for dst, ptr in self.lds:
            start = regs.read(ptr)
            loaded[dst] = memory[start:start + k]
            regs.write(ptr, start + k)
        totals = {}
        for acc, src0, src1 in self.macs:
            words0 = loaded.get(src0)
            words1 = loaded.get(src1)
            if words0 is None and words1 is None:
                term = (
                    regs.read_signed(src0) * regs.read_signed(src1) * k
                )
            else:
                if words0 is None:
                    vector = self._signed(signed_arrays, src1, words1)
                    products = regs.read_signed(src0) * vector
                elif words1 is None:
                    vector = self._signed(signed_arrays, src0, words0)
                    products = regs.read_signed(src1) * vector
                else:
                    products = (
                        self._signed(signed_arrays, src0, words0)
                        * self._signed(signed_arrays, src1, words1)
                    )
                # Fold in Python integers: int64 products are exact
                # (|signed32|^2 < 2**62) but their *sum* may not be.
                term = sum(products.tolist())
            totals[acc] = totals.get(acc, 0) + term
        for acc, term in totals.items():
            regs.write(acc, regs.read_signed(acc) + term)
        for dst, words in loaded.items():
            regs.write(dst, words[-1])
        for dst, imm in self.addis:
            regs.write(dst, regs.read(dst) + imm * k)
        tile.instructions_executed += k * self.n_instrs
        tile.memory_accesses += k * len(self.lds)
        tile.mac_operations += k * len(self.macs)

    @staticmethod
    def _signed(cache, name, words):
        vector = cache.get(name)
        if vector is None:
            vector = _np.asarray(words, dtype=_np.int64)
            vector = vector - ((vector >> 31) << 32)
            cache[name] = vector
        return vector


def _vectorize(body):
    """A :class:`_VectorPlan` for a loop body, or None.

    The recognized shape is the static dataflow kernel of the paper's
    inner loops: post-increment loads off private pointers, ``MAC``
    accumulation whose operands are this-iteration loads or loop
    invariants, self-increment ``ADDI`` counters, and ``NOP`` padding.
    Anything with a cross-iteration register dependency (other than
    the affine/accumulating ones modelled exactly) is rejected and
    runs through the scalar path instead.
    """
    lds = []    # (body_index, dst, ptr)
    addis = []  # (dst, imm)
    macs = []   # (body_index, acc, src0, src1)
    for index, instr in enumerate(body):
        op = instr.opcode
        if op is Opcode.NOP:
            continue
        if op is Opcode.LD:
            if not instr.post_increment or instr.offset != 0:
                return None
            lds.append((index, instr.dst.upper(), instr.ptr.upper()))
        elif op is Opcode.ADDI:
            dst = instr.dst.upper()
            if dst != instr.srcs[0].upper():
                return None
            addis.append((dst, instr.imm))
        elif op is Opcode.MAC:
            dst = instr.dst.upper()
            if dst not in _ACC_SET:
                return None  # the reference path raises; stay scalar
            macs.append((
                index, dst,
                instr.srcs[0].upper(), instr.srcs[1].upper(),
            ))
        else:
            return None
    if (lds or macs) and _np is None:
        return None
    ld_dst_list = [dst for _, dst, _ in lds]
    ld_ptrs = [ptr for _, _, ptr in lds]
    addi_dsts = [dst for dst, _ in addis]
    mac_srcs = [name for _, _, s0, s1 in macs for name in (s0, s1)]
    written = set(ld_dst_list) | set(ld_ptrs) | set(addi_dsts)
    if len(written) != len(ld_dst_list) + len(ld_ptrs) + len(addi_dsts):
        return None  # aliasing (or duplicate writes): stay scalar
    ld_dsts = {dst: index for index, dst, _ in lds}
    for _, dst, ptr in lds:
        if dst in _ACC_SET or ptr in _ACC_SET:
            return None
        if ptr in mac_srcs:
            return None
    for dst, _ in addis:
        if dst in _ACC_SET or dst in mac_srcs:
            return None
    for index, acc, src0, src1 in macs:
        for src in (src0, src1):
            if src in _ACC_SET or src in addi_dsts:
                return None
            ld_index = ld_dsts.get(src)
            if ld_index is not None and ld_index > index:
                return None  # reads last iteration's load
    return _VectorPlan(
        lds=tuple((dst, ptr) for _, dst, ptr in lds),
        addis=tuple(addis),
        macs=tuple((acc, s0, s1) for _, acc, s0, s1 in macs),
        n_instrs=len(body),
    )


class _LoopPlan:
    """One ``LOOP`` whose whole body is compiled compute."""

    __slots__ = ("body_start", "body", "body_len", "end_pc", "imm",
                 "vector", "body_fn", "body_check")

    def __init__(self, body_start, body, end_pc, imm, vector) -> None:
        self.body_start = body_start
        self.body = body
        self.body_len = len(body)
        self.end_pc = end_pc
        self.imm = imm
        self.vector = vector
        self.body_fn, self.body_check = _codegen_block(body)


#: Dispatch kinds.
_RUN = 0
_LOOP_HEAD = 1
_LOOP_END = 2
_COMM = 3
_LIGHT_END = 4


class ColumnRunner:
    """Pre-executes a column's compiled compute over future edges."""

    __slots__ = ("column", "ctrl", "program_len", "dispatch",
                 "traces", "calls", "edges", "vector_batches",
                 "vector_iterations")

    def __init__(self, column, program_len, dispatch, traces) -> None:
        self.column = column
        self.ctrl = column.controller
        self.program_len = program_len
        self.dispatch = dispatch
        #: per-pc straight-line paths (see :func:`_compile_trace`)
        self.traces = traces
        self.calls = 0
        self.edges = 0
        self.vector_batches = 0
        self.vector_iterations = 0

    def comm_head(self, pc: int) -> bool:
        """Whether ``pc`` sits on a SEND/RECV this runner can issue.

        The engine's lockstep replay uses this to classify a recorded
        runner call as *comm-headed*: its first edge carries a buffer
        effect, so replaying it inside a batched round fuses the comm
        edge into the batch instead of breaking the batch per call.
        """
        if 0 <= pc < self.program_len:
            entry = self.dispatch[pc]
            return entry is not None and entry[0] == _COMM
        return False

    def run_edges(self, budget: int) -> int:
        """Pre-execute up to ``budget`` tile-clock edges; return count.

        Stops (leaving exact post-commit controller state) at any
        shape the reference path must handle: a fetched-but-stalled
        comm instruction, a branch, ``HALT``/program end, a loop-stack
        error, or plain budget exhaustion.  A return of 0 means the
        very next edge needs :meth:`Column.step_tile_clock`.
        """
        ctrl = self.ctrl
        self.calls += 1
        # No runner-executed edge fetches, stalls or halts, so these
        # flags hold for the whole call.
        if (ctrl._pending is not None or ctrl.halted
                or ctrl._stall_pending):
            return 0
        column = self.column
        dispatch = self.dispatch
        program_len = self.program_len
        # Nor does one run TMASK: the SIMD mask is fixed for the call.
        active = column.active_tiles()
        pc = ctrl.pc
        trace = self.traces[pc] if pc < program_len else None
        if trace is not None and budget >= trace[0]:
            # The whole call is one precompiled path once its dynamic
            # tests pass; they are all decided by state no earlier
            # step of the path changes, so they are checked up front
            # and a miss leaves everything to the generic walk.
            _need, edges, comm, light, steps = trace
            ready = True
            if comm is not None:
                if comm[0]:
                    for tile in active:
                        buffer = tile.write_buffer
                        if len(buffer._words) >= buffer.capacity:
                            ready = False
                            break
                else:
                    for tile in active:
                        if not tile.read_buffer._words:
                            ready = False
                            break
            if ready and light is not None:
                stack = ctrl._loop_stack
                ready = (bool(stack) and stack[-1][1] > 0
                         and stack[-1][0] == light)
            if ready:
                for step in steps:
                    kind = step[0]
                    if kind == _RUN:
                        fn = step[1]
                        count = step[2]
                        for tile in active:
                            fn(tile)
                        column.tile_cycles += count
                        ctrl.pc += count
                        ctrl.issued += count
                    elif kind == _COMM:
                        reg = step[2]
                        column.tile_cycles += 1
                        ctrl.pc += 1
                        ctrl.issued += 1
                        if step[1]:
                            for tile in active:
                                buffer = tile.write_buffer
                                buffer._words.append(
                                    tile.regs._values[reg]
                                )
                                buffer.total_pushed += 1
                                tile.instructions_executed += 1
                        else:
                            for tile in active:
                                buffer = tile.read_buffer
                                buffer.total_popped += 1
                                tile.regs._values[reg] = (
                                    buffer._words.popleft()
                                )
                                tile.instructions_executed += 1
                    else:  # zero-cost ENDLOOP, jumping back
                        ctrl.control_executed += 1
                        top = ctrl._loop_stack[-1]
                        top[1] -= 1
                        ctrl.pc = top[0]
                self.edges += edges
                return edges
        consumed = 0
        light_used = False
        while consumed < budget:
            pc = ctrl.pc
            if pc >= program_len:
                break  # the reference fetch records the halting bubble
            entry = dispatch[pc]
            if entry is None:
                break
            kind = entry[0]
            if kind == _RUN:
                instrs = entry[1]
                count = budget - consumed
                n = len(instrs)
                if n <= count:
                    fn = entry[2]
                    if fn is not None:
                        check = entry[3]
                        safe = True
                        if check is not None:
                            for tile in active:
                                if not check(tile):
                                    safe = False
                                    break
                        if safe:
                            for tile in active:
                                fn(tile)
                            column.tile_cycles += n
                            ctrl.pc += n
                            ctrl.issued += n
                            consumed += n
                            continue
                    count = n
                for instr in instrs[:count]:
                    column.tile_cycles += 1
                    ctrl.pc += 1
                    ctrl.issued += 1
                    for tile in active:
                        tile.execute(instr)
                consumed += count
                continue
            if kind == _COMM:
                if consumed:
                    break  # a future edge cannot carry a comm effect
                reg = entry[2]
                if entry[1]:  # SEND: every write buffer needs room
                    for tile in active:
                        buffer = tile.write_buffer
                        if len(buffer._words) >= buffer.capacity:
                            break
                    else:
                        column.tile_cycles += 1
                        ctrl.pc += 1
                        ctrl.issued += 1
                        for tile in active:
                            buffer = tile.write_buffer
                            buffer._words.append(
                                tile.regs._values[reg]
                            )
                            buffer.total_pushed += 1
                            tile.instructions_executed += 1
                        consumed = 1
                        continue
                    break
                for tile in active:  # RECV: every read buffer nonempty
                    if not tile.read_buffer._words:
                        break
                else:
                    column.tile_cycles += 1
                    ctrl.pc += 1
                    ctrl.issued += 1
                    for tile in active:
                        buffer = tile.read_buffer
                        buffer.total_popped += 1
                        tile.regs._values[reg] = (
                            buffer._words.popleft()
                        )
                        tile.instructions_executed += 1
                    consumed = 1
                    continue
                break
            if kind == _LIGHT_END:
                # Zero-cost ENDLOOP of a loop whose body contains
                # communication: resolve it at most once per call,
                # mirroring the reference fetch's control resolution.
                # Resolving it mid-call lands the pc/loop-frame update
                # a few edges before the reference fetch would - legal
                # for the same reason run crediting is: nothing any
                # other domain (or the settlement/governor machinery)
                # observes mid-window reads them.  Chains of zero-cost
                # control are left to the generic fetch, whose
                # control-only-cycle budget must stay authoritative.
                if light_used:
                    break
                stack = ctrl._loop_stack
                if not stack:
                    break  # reference fetch raises endloop-without-loop
                light_used = True
                ctrl.control_executed += 1
                top = stack[-1]
                if top[1] > 0:
                    top[1] -= 1
                    ctrl.pc = top[0]
                else:
                    stack.pop()
                    ctrl.pc = pc + 1
                continue
            plan = entry[1]
            if kind == _LOOP_HEAD:
                if len(ctrl._loop_stack) >= MAX_LOOP_DEPTH:
                    break  # the reference fetch raises the overflow
                ctrl.control_executed += 1
                ctrl._loop_stack.append([plan.body_start, plan.imm - 1])
                ctrl.pc = plan.body_start
                consumed += self._iterate(plan, budget - consumed)
                continue
            # _LOOP_END: the ENDLOOP of a compiled loop.
            stack = ctrl._loop_stack
            if not stack or stack[-1][0] != plan.body_start:
                break  # foreign/missing frame: reference semantics
            top = stack[-1]
            if top[1] > 0:
                ctrl.control_executed += 1
                top[1] -= 1
                ctrl.pc = plan.body_start
                consumed += self._iterate(plan, budget - consumed)
                continue
            # Loop exit resolves zero-cost control; only take it when
            # the runner handles what follows, otherwise leave the
            # ENDLOOP for the next reference fetch (which resolves it
            # within the same edge it always would have).
            nxt = plan.end_pc + 1
            if nxt >= program_len or dispatch[nxt] is None:
                break
            ctrl.control_executed += 1
            stack.pop()
            ctrl.pc = nxt
        self.edges += consumed
        return consumed

    def _iterate(self, plan, budget: int) -> int:
        """Run whole/partial loop iterations from the body start.

        Entered with ``pc`` at the body start and the top loop frame
        current; issues at least one edge (``budget >= 1``).
        """
        ctrl = self.ctrl
        column = self.column
        body = plan.body
        body_len = plan.body_len
        top = ctrl._loop_stack[-1]
        iterations = min(budget // body_len, top[1] + 1)
        active = column.active_tiles()
        if iterations == 0:
            # Budget ends mid-body: issue the prefix instruction by
            # instruction (exact partial state, including errors).
            for instr in body[:budget]:
                column.tile_cycles += 1
                ctrl.pc += 1
                ctrl.issued += 1
                for tile in active:
                    tile.execute(instr)
            return budget
        vector = plan.vector
        if vector is not None and iterations >= vector.min_batch:
            for tile in active:
                if not vector.check(tile, iterations):
                    break
            else:
                for tile in active:
                    vector.apply(tile, iterations)
                count = iterations * body_len
                column.tile_cycles += count
                ctrl.issued += count
                ctrl.control_executed += iterations - 1
                top[1] -= iterations - 1
                ctrl.pc = plan.end_pc
                self.vector_batches += 1
                self.vector_iterations += iterations
                return count
        body_fn = plan.body_fn
        body_check = plan.body_check
        first = True
        for _ in range(iterations):
            if first:
                first = False
            else:
                # ENDLOOP jump-back: zero-cost prefix of the next edge.
                ctrl.control_executed += 1
                top[1] -= 1
                ctrl.pc = plan.body_start
            if body_fn is not None:
                safe = True
                if body_check is not None:
                    for tile in active:
                        if not body_check(tile):
                            safe = False
                            break
                if safe:
                    for tile in active:
                        body_fn(tile)
                    column.tile_cycles += body_len
                    ctrl.pc += body_len
                    ctrl.issued += body_len
                    continue
            for instr in body:
                column.tile_cycles += 1
                ctrl.pc += 1
                ctrl.issued += 1
                for tile in active:
                    tile.execute(instr)
        return iterations * body_len


def compile_column_runner(column):
    """A :class:`ColumnRunner` for the column, or None.

    Returns None when nothing is compilable or when the controller
    hosts an enabled ZORM counter (rate-matching nops depend on the
    issue history, so every edge must go through the reference fetch).
    """
    ctrl = column.controller
    if ctrl.zorm.enabled:
        return None
    instructions = ctrl._instructions
    entry = _DISPATCH_CACHE.get(id(instructions))
    if entry is None or entry[0] is not instructions:
        if len(_DISPATCH_CACHE) >= _DISPATCH_CACHE_CAP:
            _DISPATCH_CACHE.clear()
        entry = (instructions, _compile_dispatch(instructions))
        _DISPATCH_CACHE[id(instructions)] = entry
    tables = entry[1]
    if tables is None:
        return None
    return ColumnRunner(column, len(instructions), *tables)


#: id(instruction tuple) -> (instruction tuple, (dispatch table,
#: per-pc traces) or None).  Both depend on the program alone, and a
#: harness that reuses one program across the chips it builds
#: compiles it once; holding the tuple keeps its id from being reused.
_DISPATCH_CACHE: dict = {}
_DISPATCH_CACHE_CAP = 256


def _compile_dispatch(instructions):
    """``(dispatch table, per-pc traces)``, or None if nothing runs."""
    n = len(instructions)
    if n == 0:
        return None
    eligible = [
        not instr.is_control
        and instr.opcode is not Opcode.SEND
        and instr.opcode is not Opcode.RECV
        for instr in instructions
    ]
    dispatch: list = [None] * n
    index = 0
    while index < n:
        if not eligible[index]:
            index += 1
            continue
        stop = index
        while stop < n and eligible[stop]:
            stop += 1
        block = tuple(instructions[index:stop])
        for pc in range(index, stop):
            suffix = block[pc - index:]
            fn, check = _codegen_block(suffix)
            dispatch[pc] = (_RUN, suffix, fn, check)
        index = stop
    for pc, instr in enumerate(instructions):
        op = instr.opcode
        if op is Opcode.SEND:
            reg = _reg(instr.srcs[0]) if instr.srcs else None
            # An accumulator source would need the push-time 32-bit
            # mask; leave that rarity to the reference path.
            if reg is not None and reg not in _ACC_SET:
                dispatch[pc] = (_COMM, True, reg)
        elif op is Opcode.RECV:
            reg = _reg(instr.dst) if instr.dst else None
            if reg is not None:
                dispatch[pc] = (_COMM, False, reg)
    for pc, instr in enumerate(instructions):
        if instr.opcode is not Opcode.LOOP or instr.imm < 1:
            continue
        body_start = pc + 1
        end = body_start
        while end < n and eligible[end]:
            end += 1
        if end == body_start or end >= n:
            continue
        if instructions[end].opcode is not Opcode.ENDLOOP:
            continue
        body = tuple(instructions[body_start:end])
        plan = _LoopPlan(
            body_start, body, end, instr.imm, _vectorize(body)
        )
        dispatch[pc] = (_LOOP_HEAD, plan)
        dispatch[end] = (_LOOP_END, plan)
    # ENDLOOPs not claimed by a fully-compiled loop (bodies with
    # communication or other reference-path shapes) still resolve
    # zero-cost in the runner, provided they statically match a LOOP
    # whose body holds at least one non-control instruction - the
    # guard that keeps the generic fetch's control-only-cycle budget
    # reachable exactly when the reference would hit it.
    loop_stack: list = []
    for pc, instr in enumerate(instructions):
        op = instr.opcode
        if op is Opcode.LOOP:
            loop_stack.append((pc, instr.imm))
        elif op is Opcode.ENDLOOP and loop_stack:
            head, imm = loop_stack.pop()
            if dispatch[pc] is not None or imm < 1:
                continue
            if any(
                not ins.is_control
                for ins in instructions[head + 1:pc]
            ):
                dispatch[pc] = (_LIGHT_END, head + 1)
    if not any(entry is not None for entry in dispatch):
        return None
    dispatch = tuple(dispatch)
    return dispatch, tuple(
        _compile_trace(dispatch, pc) for pc in range(n)
    )


def _compile_trace(dispatch, pc):
    """The straight-line path ``run_edges`` takes from ``pc``, or None.

    Walks the dispatch table as :meth:`ColumnRunner.run_edges` would
    with an unbounded budget, assuming every dynamic test passes: the
    leading SEND/RECV finds room or a word, and a zero-cost ENDLOOP
    jumps back to its loop body.  Returns ``(need, edges, comm,
    light, steps)``: the smallest budget that reaches the walk's
    structural end, the edges it consumes, the ``(is_send, reg)`` of
    its comm edge, the body start a jump-back must find on top of the
    loop stack, and the effect steps in execution order.  Paths with
    checked (faultable) compute blocks or compiled-loop control are
    left to the generic walk (None).
    """
    n = len(dispatch)
    steps = []
    edges = need = 0
    comm = light = None
    while pc < n:
        entry = dispatch[pc]
        if entry is None:
            break
        kind = entry[0]
        if kind == _RUN:
            if entry[2] is None or entry[3] is not None:
                return None
            count = len(entry[1])
            steps.append((_RUN, entry[2], count))
            edges += count
            need = edges
            pc += count
        elif kind == _COMM:
            if edges:
                break
            comm = (entry[1], entry[2])
            steps.append((_COMM, entry[1], entry[2]))
            edges = need = 1
            pc += 1
        elif kind == _LIGHT_END:
            if light is not None:
                break
            light = entry[1]
            steps.append((_LIGHT_END,))
            need = edges + 1
            pc = light
        else:
            return None
    if not edges:
        return None
    return need, edges, comm, light, tuple(steps)
