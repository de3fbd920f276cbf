"""Two-world micro-machine: Non-Secure app execution under Secure-World control.

The machine executes the toy ISA from :mod:`cfaudit.isa` over a fixed
memory map. What the Non-Secure world may do there:

    pmem       the app image     read and execute; write until ``lock_pmem``
    dmem       data and stack    read and write, never execute
    secure     Secure-World RAM  nothing
    retained   audit context     nothing

Program memory ends at the image's length, not at its capacity; every
other address is unmapped. The Secure World (the monitor, modeled at the
Python level) may read, write and execute any mapped address. The pmem
lock is the only permission that changes, and only a warm reset clears it.
A secure watchdog timer bounds Non-Secure execution; it counts only
Non-Secure instructions, so it needs no pause. A Non-Secure transfer
to one of the five secure-gateway entry points never executes bytes, it
stands in for gateway veneer code; any other address in the gateway window
faults like an unmapped fetch.

Faults never raise: they come back as ``Fault`` events so the caller can
route them through the reset path the way the hardware would.

``Machine.run`` executes until the first event that is not a plain
execution, or until its limit. Each program word becomes a closure,
``f(regs, st)``, with its operands bound; ``st`` holds the flags, the lr
before its last write, dmem, a weak handle on the machine for the checked
path of a non-dmem access, and the world. A control instruction's closure
returns the next pc; a fault, a halt, or a store into program memory (the
rest of the block may be stale) raises ``_Stop``. A block is the closures
from a pc through the first control instruction or illegal word, one a
word, except that a ``cmp`` joins the ``bcond`` after it. Which words end
a block, and which a counted pass may run through, the machine reads from
their rows in ``isa.OPS``; what each opcode does is ``_translate``'s
alone. A block runs whole when it fits the limit and the watchdog budget;
otherwise, and under ``step``, the machine runs one instruction at a
time, so counters and faults are exactly those of one instruction at a
time.

A counted loop runs its passes in closed form. A block is a loop's head
when the code from it runs straight on to one closing ``cmp`` and
``bcond`` whose target is the head, or a ``bl trampoline_cond`` just
before it: straight on through ``mov``, ``add``/``sub`` (immediate or
register), ``ldr``, ``cmp``, ``bl trampoline_cond`` sites and conditional
branches to their own fall-through. A pass starts with no gateway call,
so a loop has one head, and makes at most two, the longest log unit. It
writes neither sp nor lr, and one symbolic pass over its arithmetic and
loads, reading each value as an expression, shows:

- an ``ldr`` addresses through a base that is invariant, the same every
  pass;
- each register the pass writes ends it invariant, or as its own entry
  value plus an invariant, its step; a written register's entry value is
  read only on the way to its own end value, and never subtracted;
- one compared operand steps and the other is invariant.

Such a block is kept in ``_Code.loops``, never in ``blocks``, so only a
dispatch that misses ``blocks`` and may run two or more instructions
looks for it. Exactness: an invariant is computed from immediates,
registers the pass never writes, words loaded from invariant addresses of
memory the pass never stores to, and registers written before it in the
same pass from those. No entry value of a written register enters it, so
every pass computes it alike, the first included; a step is a sum of
invariants, so the step of one ordinary pass is the step of every later
one. A gateway call writes lr and the previous lr; a handler that takes
passes at once resumes it at the next word and gives the app its lr
back, as ``service_gateway`` does, so every pass leaves lr as it found it
and the previous lr equal to it. A compare on the way sets only flags,
which the closing one, the last of the pass, sets again.

``run`` notes the registers, the instructions run and the entries
serviced at a head. Back at it with one pass's instructions and entries
more, and the pass's last two pcs as its own, it ran one ordinary pass:
from the head the code runs only straight on to the closing branch, and a
path that left there and came back would have run that branch twice.
That pass made each load, took any fault it raised and had each entry
serviced, or refused, which ends the run as dispatch does. j more passes
leave each stepping register plus j times its step mod 2**32 and every
other register as that pass left it. The compared register takes x + i·s
at the i-th of them; in the signed order, its value biased by 2**31 (and
mirrored when s steps down) rises strictly until it would wrap, so the i
for which the branch stays taken form a run that ends where it first
meets or passes the bound, in closed form. ``run`` takes j of them, no
more than that run, stopping short of the wrap, and no more than fit
whole: with S instructions and G entries a pass, n + j·S within the
watchdog deadline, below it when G > 0 (an entry is serviced only while
an instruction could still run), and n + j·(S + G) within the limit. A
pass with entries also goes to the handler's ``repeat(arrivals, j)``,
which returns how many the log takes at once: only passes whose arrivals
are its repetition in flight once round from the element it expects
next, each adding one to the count, and one short of a full count
record, so the append that commits it is an ordinary one. The closing
compare then sets the flags; the counters, the cycle count (which counts
each entry) and the timer (which does not) come out as after j passes,
and ``last`` and ``prev`` as after any. Everything else runs as ordinary
dispatch: a wrap, arrivals the log does not take, and entries under no
handler (each ends the run with an ``NscEntry``), under a handler without
``repeat``, or in the Secure World, where none is serviced.

An armed head lives within one ``run`` call, so each call runs one
ordinary pass before any closed form. Keeping it armed from one call to
the next is not done: a pass that spans two calls could straddle a
Secure-World write to data memory made between them (a monitor's pokes,
say), and every invariant load of the closed form rests on memory the
pass alone may write. It would gain little: ``scenario.run`` runs a
device at work through the datagrams it ignores, so a slice is one call
unless a power cut or a delivery to the auditor falls inside it.

A dispatch that misses ``blocks`` and may run two or more instructions
builds the block at its pc, wherever a run stopped: at a leader, or
partway through a block, where a limit or the watchdog deadline fell. A
block runs the very closures the one-instruction path runs one by one,
with the same counters, faults and flags (a fused compare sets the flags
the ``cmp`` sets), so the path taken changes no result.

An image's words are decoded once, on its first fetch, and each word is
translated once, into the closure a block and a single step share. Its
closures and blocks are built on first fetch into the ``_Code`` shared by
every machine handed it (a session's is its program's deployment's); a
machine handed none, or that writes its program memory, builds its own. A
gateway entry ends the block with an ``NscEntry`` event, unless ``run`` is
given a gateway handler: a logging entry it services stays inside. The
event carries only the entry address; the parked core holds the gateway
state, in ``regs``, ``last_exec_pc``, ``prev_exec_pc`` and ``prev_lr``.
A serviced entry that resumes at a gateway entry ends the run with
``Fault(EXEC_VIOLATION)`` at that address, as a ``BXNS`` into Secure
memory faults on a Cortex-M33; the entry stays logged. Were it serviced,
entries could chain with no Non-Secure instruction between them, and the
watchdog, which counts only those, would never end the slice.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import itertools
import struct
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from . import isa
from .isa import (
    DMEM_BASE, DMEM_SIZE, INSTR_WIDTH, LR, NSC_EXIT, PC,
    PMEM_BASE, PMEM_CAPACITY, RETAINED_BASE, RETAINED_SIZE, SECURE_BASE,
    SECURE_SIZE, SP, STACK_TOP, CTL_COND, CTL_NONE, OPS, RA,
    OP_ADD_RI, OP_ADD_RR, OP_B, OP_BCOND, OP_BL, OP_BLX, OP_BX_LR, OP_CMP_RI,
    OP_CMP_RR, OP_HALT, OP_ILLEGAL, OP_LDR, OP_MOV_IMM, OP_MOV_REG, OP_NSC_CALL,
    OP_POP, OP_PUSH, OP_STR, OP_SUB_RI, OP_SUB_RR,
)

MASK32 = 0xFFFFFFFF


class World(enum.Enum):
    SECURE = "secure"
    NONSECURE = "nonsecure"


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"


class FaultKind(enum.Enum):
    READ_VIOLATION = "read_violation"
    WRITE_VIOLATION = "write_violation"
    EXEC_VIOLATION = "exec_violation"
    UNMAPPED = "unmapped"
    UNALIGNED = "unaligned"
    ILLEGAL_INSTRUCTION = "illegal_instruction"


class WorldViolation(Exception):
    """Secure-only operation attempted from the wrong world."""


class UnmappedAddress(Exception):
    """Secure-side program-memory write outside the image."""

    def __init__(self, addr: int):
        super().__init__(f"unmapped address {addr:#x}")
        self.addr = addr


# --- events -------------------------------------------------------------

@dataclass(frozen=True)
class Executed:
    pc: int


@dataclass(frozen=True)
class TimerTrigger:
    """Watchdog deadline reached before the next Non-Secure instruction."""


@dataclass(frozen=True)
class NscEntry:
    """A secure-gateway entry; the parked core holds the gateway state, with
    the branch that entered it in ``last_exec_pc``."""

    addr: int             # which gateway entry point


@dataclass(frozen=True)
class Fault:
    kind: FaultKind
    addr: int


@dataclass(frozen=True)
class Halted:
    pass


Event = Executed | TimerTrigger | NscEntry | Fault | Halted


# --- secure timer --------------------------------------------------------

@dataclass
class SecureTimer:
    """Counts Non-Secure instructions; the deadline cannot be silenced
    from the Non-Secure side."""

    delta: int = 0
    elapsed: int = 0
    active: bool = False

    def arm(self, delta: int) -> None:
        self.delta = delta
        self.elapsed = 0
        self.active = True

    def resume(self) -> None:
        self.elapsed = 0

    def deactivate(self) -> None:
        self.active = False
        self.elapsed = 0


# --- machine -------------------------------------------------------------

class Machine:
    """Registers, the four memories of the fixed map, and secure timer."""

    def __init__(self, pmem: bytes, code: _Code | None = None):
        if len(pmem) > PMEM_CAPACITY:
            raise ValueError("program exceeds pmem capacity")
        self.pmem = bytearray(pmem)
        self.retained_mem = bytearray(RETAINED_SIZE)
        self._st = [0, 0, None, weakref.ref(self), False]
        self.reset()
        self._code = _Code(self.pmem) if code is None else code

    # -- registers ------------------------------------------------------

    @property
    def pc(self) -> int:
        return self.regs[PC]

    @pc.setter
    def pc(self, v: int) -> None:
        self.regs[PC] = v & MASK32

    flag_z = property(lambda self: bool(self._st[_FLAGS] & 2))
    flag_n = property(lambda self: bool(self._st[_FLAGS] & 1))
    # lr before its most recent write by mov, bl, blx or pop
    prev_lr = property(lambda self: self._st[_PREV_LR])

    # -- memory ---------------------------------------------------------

    def _decode_addr(self, addr: int) -> tuple[bytearray, int, frozenset] | None:
        """The memory behind ``addr``, the offset into it and the access
        kinds the Non-Secure world has there; None when unmapped."""
        if PMEM_BASE <= addr < PMEM_BASE + len(self.pmem):
            return self.pmem, addr - PMEM_BASE, _RX if self.pmem_locked else _RWX
        if DMEM_BASE <= addr < _DMEM_END:
            return self.dmem, addr - DMEM_BASE, _RW
        if SECURE_BASE <= addr < _SECURE_END:
            return self.secure_mem, addr - SECURE_BASE, _NO_ACCESS
        if RETAINED_BASE <= addr < _RETAINED_END:
            return self.retained_mem, addr - RETAINED_BASE, _NO_ACCESS
        return None

    def _checked(self, addr: int, kind: AccessKind) -> FaultKind | None:
        """Permission check for the current world; returns a fault kind or None."""
        mapped = self._decode_addr(addr)
        if mapped is None:
            return FaultKind.UNMAPPED
        if self.world is World.NONSECURE and kind not in mapped[2]:
            return _VIOLATION[kind]
        return None

    def load_word(self, addr: int) -> int:
        store, off, _ = self._decode_addr(addr)
        return _load(store, off)[0]

    def store_word(self, addr: int, value: int) -> None:
        store, off, _ = self._decode_addr(addr)
        _store(store, off, value & MASK32)
        if store is self.pmem:
            self._code = _Code(self.pmem)

    def write_pmem(self, addr: int, data: bytes) -> None:
        """Secure-side program-memory write (provisioning, remediation)."""
        off = addr - PMEM_BASE
        if not 0 <= off <= len(self.pmem) - len(data):
            raise UnmappedAddress(addr)
        self.pmem[off:off + len(data)] = data
        self._code = _Code(self.pmem)

    # -- secure-world operations -----------------------------------------

    def hash_pmem(self) -> bytes:
        """SHA-256 of program memory, measured once per content: every
        program-memory write replaces ``_code``, which keeps the digest."""
        code = self._code
        if code.digest is None:
            code.digest = hashlib.sha256(self.pmem).digest()
        return code.digest

    def lock_pmem(self) -> None:
        """Make pmem read/execute-only for the Non-Secure world."""
        if self.world is not World.SECURE:
            raise WorldViolation("lock_pmem requires Secure World")
        self.pmem_locked = True

    def reset(self) -> None:
        """Warm reset: volatile state cleared, pmem and retained preserved."""
        self.regs = [0] * 16
        self.regs[SP] = STACK_TOP
        self.regs[PC] = PMEM_BASE
        self.dmem = bytearray(DMEM_SIZE)
        self.secure_mem = bytearray(SECURE_SIZE)
        self.timer = SecureTimer()
        self.pmem_locked = False
        self.world = World.SECURE
        self.halted = False
        self.cycle_count = 0
        self.last_exec_pc = 0
        self.prev_exec_pc = 0
        self._st[:_MACHINE] = [0, 0, self.dmem]

    def enter_nonsecure(self, entry: int) -> None:
        if self.world is not World.SECURE:
            raise WorldViolation("world switch is a Secure-World operation")
        self.world = World.NONSECURE
        self.pc = entry

    # -- execution --------------------------------------------------------

    def _fetch(self, pc: int) -> Callable | Fault:
        """The closure of the word at ``pc``, or the fault its fetch takes;
        the Secure World's words outside pmem are translated every fetch."""
        if (code := self._code).covers(pc):
            return code.op(pc)
        if pc % INSTR_WIDTH:
            return Fault(FaultKind.UNALIGNED, pc)
        fk = self._checked(pc, AccessKind.EXECUTE)
        if fk is not None:
            return Fault(fk, pc)
        store, off, _ = self._decode_addr(pc)
        return _translate(_decode(_load(store, off)[0]), pc)

    def step(self) -> Event:
        """Execute one cycle. Never raises for program behavior: bad accesses
        and bad encodings come back as Fault events with pc unchanged."""
        _, ev = self.run(1)
        return Executed(self.last_exec_pc) if ev is None else ev

    def run(self, limit: int | None = None,
            gateway: Callable[[int, int, int, int], int | None] | None = None,
            ) -> tuple[int, Event | None]:
        """Execute up to ``limit`` cycles (no limit when None).

        Returns how many instructions executed and the event that ended
        the block, or None when the limit was reached first. The ending
        event takes one cycle of its own, exactly as under ``step``.
        Without a limit or an armed watchdog, a program that never leaves
        its loop never returns.

        ``gateway(addr, caller_pc, pre_caller_pc, prev_lr)``, if given,
        services each logging gateway entry and returns the pc to resume
        at, or None to end the block with the ``NscEntry`` event. A
        serviced entry is one cycle of ``limit`` that the watchdog and the
        returned count leave out. The handler must not write program
        memory. A handler with ``repeat(arrivals, k)`` services a loop's
        passes at once (see the module docstring): it logs up to ``k``
        more passes whose ``trampoline_cond`` entries resume at
        ``arrivals`` and returns how many it took; it must service each
        such entry alone as ``service_gateway`` does.
        """
        limit = _UNBOUNDED if limit is None else limit
        if limit <= 0:
            return 0, None
        if self.halted:
            self.cycle_count += 1
            return 0, Halted()

        regs, st = self.regs, self._st
        ns = st[_NS] = self.world is World.NONSECURE
        timer = self.timer
        counting = ns and timer.active
        budget = limit
        if counting and timer.delta - timer.elapsed < limit:
            budget = timer.delta - timer.elapsed     # the deadline ends the block
        blocks, ops = (code := self._code).blocks, code.ops
        pc = regs[PC]
        last, prev = self.last_exec_pc, self.prev_exec_pc
        n = served = halt_counted = 0
        armed = None        # (loop, n, served, registers) at its head
        ev: Event | None = None

        while True:
            try:
                while n < budget:
                    blk = blocks.get(pc)
                    if blk is None:
                        if ns and pc in _GATEWAY_ENTRIES:
                            if gateway is not None and pc != NSC_EXIT:
                                resume = gateway(pc, last, prev, st[_PREV_LR])
                                if resume in _GATEWAY_ENTRIES:
                                    # a BXNS into Secure memory, in the entry's cycle
                                    pc, ev = resume, Fault(FaultKind.EXEC_VIOLATION, resume)
                                    break
                                if resume is not None:
                                    # one cycle of the limit, not of the deadline
                                    pc = resume
                                    served += 1
                                    limit -= 1
                                    if limit < budget:
                                        budget = limit
                                    continue
                            regs[PC] = pc
                            self.world = World.SECURE
                            ev = NscEntry(pc)
                            break
                        if budget - n > 1 and ((loop := code.loops.get(pc)) is not None
                                               or code.covers(pc)):
                            if loop is None:
                                blk = code.block(pc)
                            else:
                                g = len(loop.arrivals)
                                if armed is not None and armed[0] is loop \
                                        and n - armed[1] == loop.size \
                                        and served - armed[2] == g \
                                        and last == loop.last and prev == loop.prev:
                                    # one ordinary pass since the head: take
                                    # the further ones that fit whole at once
                                    room = (limit - n) // (loop.size + g)
                                    if counting:
                                        room = min(room, (timer.delta - timer.elapsed
                                                          - n - (g > 0)) // loop.size)
                                    k = _iterate(loop, regs, st, armed[3], room, gateway)
                                    n += k * loop.size
                                    served += k * g
                                    limit -= k * g
                                    if limit < budget:
                                        budget = limit
                                    if n == budget:
                                        continue
                                armed = loop, n, served, regs[:]
                                blk = loop.block
                    if blk is not None and blk[2] <= budget - n:
                        body, term, size, b_last, b_prev = blk
                        for f in body:
                            f(regs, st)
                        pc = term(regs, st)
                        n += size
                        prev = b_prev or last     # None: a one-instruction block
                        last = b_last
                        continue
                    # one instruction: a single step, or a block the limit or
                    # the deadline falls inside
                    f = ops.get(pc) or self._fetch(pc)
                    if f.__class__ is Fault:
                        ev = f
                        break
                    nxt = f(regs, st)
                    prev, last = last, pc
                    pc = pc + INSTR_WIDTH if nxt is None else nxt
                    n += 1
            except _Stop as stop:
                at, ev = stop.args
                k = (at - pc) // INSTR_WIDTH  # executed before it in this dispatch
                if k:
                    n += k
                    prev, last = at - 2 * INSTR_WIDTH if k > 1 else last, at - INSTR_WIDTH
                pc = at
                if ev is None:
                    # a store into program memory: done, but the rest of the
                    # block may be stale, and the table is now the machine's own
                    prev, last = last, at
                    pc += INSTR_WIDTH
                    n += 1
                    blocks, ops = (code := self._code).blocks, code.ops
                    continue
                if ev.__class__ is Halted:
                    prev, last = last, at
                    self.halted = True
                    halt_counted = 1
            break
        if ev is None and budget < limit:
            # deadline wins before the next instruction executes
            self.world = World.SECURE
            ev = TimerTrigger()

        regs[PC] = pc
        self.last_exec_pc, self.prev_exec_pc = last, prev
        if counting:
            timer.elapsed += n + halt_counted
        self.cycle_count += n + served if ev is None else n + served + 1
        return n, ev


# --- memory map ------------------------------------------------------------

_UNBOUNDED = 1 << 62
_GATEWAY_ENTRIES = frozenset(isa.NSC_SYMBOLS.values())
_DMEM_END = DMEM_BASE + DMEM_SIZE
_SECURE_END = SECURE_BASE + SECURE_SIZE
_RETAINED_END = RETAINED_BASE + RETAINED_SIZE
_RWX = frozenset(AccessKind)
_RX = frozenset({AccessKind.READ, AccessKind.EXECUTE})
_RW = frozenset({AccessKind.READ, AccessKind.WRITE})
_NO_ACCESS = frozenset()
_VIOLATION = {AccessKind.READ: FaultKind.READ_VIOLATION,
              AccessKind.WRITE: FaultKind.WRITE_VIOLATION,
              AccessKind.EXECUTE: FaultKind.EXEC_VIOLATION}
_U32 = struct.Struct(">I")
_load, _store = _U32.unpack_from, _U32.pack_into

# Signed 32-bit order is unsigned order with the sign bit flipped. Flags are
# kept as one int, z << 1 | n, and a condition is a truth table over it.
_SIGN = 0x80000000
_COND_TAKEN = {
    isa.COND_EQ: (False, False, True, True),
    isa.COND_NE: (True, True, False, False),
    isa.COND_LT: (False, True, False, True),
    isa.COND_GE: (True, False, True, False),
    isa.COND_GT: (True, False, False, False),
    isa.COND_LE: (False, True, True, True),
}


# --- translation: one closure per instruction ------------------------------

_FLAGS, _PREV_LR, _DMEM, _MACHINE, _NS = range(5)     # the slots of ``st``


class _Stop(Exception):
    """(pc, the fault or halt there, or None after a program-memory store)"""


def _checked_machine(st: list, pc: int, addr: int, kind: AccessKind) -> Machine:
    """The slow path of a data access outside dmem: the checked machine."""
    if addr % 4:
        raise _Stop(pc, Fault(FaultKind.UNALIGNED, addr))
    m = st[_MACHINE]()
    fk = m._checked(addr, kind)
    if fk is not None:
        raise _Stop(pc, Fault(fk, addr))
    return m


def _store_word(m: Machine, pc: int, addr: int, value: int) -> None:
    m.store_word(addr, value)
    if PMEM_BASE <= addr < PMEM_BASE + len(m.pmem):
        raise _Stop(pc, None)


def _translate(inst: tuple[int, int, int, int], pc: int) -> Callable:
    """The factory table: the closure of one instruction at ``pc``, by
    opcode; a data access outside dmem is checked."""
    op, ra, rb, imm = inst
    ret, taken = pc + INSTR_WIDTH, _COND_TAKEN.get(ra)
    if (op == OP_MOV_IMM or op == OP_MOV_REG) and ra == LR:
        def f(regs, st):
            st[_PREV_LR] = regs[LR]
            regs[LR] = imm if op == OP_MOV_IMM else regs[rb] & MASK32
    elif op == OP_MOV_IMM:
        def f(regs, st):
            regs[ra] = imm
    elif op == OP_MOV_REG:
        def f(regs, st):
            regs[ra] = regs[rb]
    elif op == OP_ADD_RI or op == OP_SUB_RI:
        imm = imm if op == OP_ADD_RI else -imm & MASK32

        def f(regs, st):
            regs[ra] = (regs[rb] + imm) & MASK32
    elif op == OP_ADD_RR:
        def f(regs, st):
            regs[ra] = (regs[rb] + regs[imm]) & MASK32
    elif op == OP_SUB_RR:
        def f(regs, st):
            regs[ra] = (regs[rb] - regs[imm]) & MASK32
    elif op == OP_CMP_RI or op == OP_CMP_RR:
        f = _compare(inst, (False,) * 4, None, None)  # a cmp alone transfers nothing
    elif op == OP_LDR:
        def f(regs, st):
            addr = (regs[rb] + imm) & MASK32
            if DMEM_BASE <= addr < _DMEM_END and not addr & 3:
                regs[ra] = _load(st[_DMEM], addr - DMEM_BASE)[0]
            else:
                regs[ra] = _checked_machine(st, pc, addr, AccessKind.READ).load_word(addr)
    elif op == OP_STR:
        def f(regs, st):
            addr = (regs[rb] + imm) & MASK32
            if DMEM_BASE <= addr < _DMEM_END and not addr & 3:
                _store(st[_DMEM], addr - DMEM_BASE, regs[ra] & MASK32)
            else:
                _store_word(_checked_machine(st, pc, addr, AccessKind.WRITE), pc, addr,
                            regs[ra])
    elif op == OP_PUSH:
        def f(regs, st):
            addr = (regs[SP] - 4) & MASK32
            if DMEM_BASE <= addr < _DMEM_END and not addr & 3:
                regs[SP] = addr
                _store(st[_DMEM], addr - DMEM_BASE, regs[ra] & MASK32)
            else:
                m = _checked_machine(st, pc, addr, AccessKind.WRITE)
                regs[SP] = addr
                _store_word(m, pc, addr, regs[ra])
    elif op == OP_POP:
        def pop(regs, st):            # popping pc: the value is the next pc
            addr = regs[SP]
            if DMEM_BASE <= addr < _DMEM_END and not addr & 3:
                val = _load(st[_DMEM], addr - DMEM_BASE)[0]
            else:
                val = _checked_machine(st, pc, addr, AccessKind.READ).load_word(addr)
            regs[SP] = (addr + 4) & MASK32
            return val
        f = pop
        if ra == LR:
            def f(regs, st):
                val = pop(regs, st)
                st[_PREV_LR] = regs[LR]
                regs[LR] = val
        elif ra != PC:
            def f(regs, st):
                regs[ra] = pop(regs, st)
    elif op == OP_B:
        def f(regs, st):
            return imm
    elif op == OP_BCOND:
        def f(regs, st):
            return imm if taken[st[_FLAGS]] else ret
    elif op == OP_BL or op == OP_BLX:
        def f(regs, st):
            st[_PREV_LR] = regs[LR]
            regs[LR] = ret
            return imm if op == OP_BL else regs[ra] & MASK32
    elif op == OP_BX_LR:
        def f(regs, st):
            return regs[LR]
    elif op == OP_NSC_CALL or op == OP_HALT:
        def f(regs, st):
            if op == OP_NSC_CALL and st[_NS]:
                return NSC_EXIT       # protected return; traps next cycle
            # without a monitor attached the gateway return ends execution
            raise _Stop(pc, Halted())
    else:
        def f(regs, st):
            raise _Stop(pc, Fault(FaultKind.ILLEGAL_INSTRUCTION, pc))
    return f


def _compare(cmp: tuple[int, int, int, int], taken: tuple, target: int,
             fall: int) -> Callable:
    """A ``cmp`` and the ``bcond`` after it, with its condition's truth
    table ``taken``, as one block terminator."""
    op, ra, rb, imm = cmp
    k = imm ^ _SIGN
    if op == OP_CMP_RI:
        def f(regs, st):
            a = regs[ra] ^ _SIGN
            st[_FLAGS] = flags = 2 if a == k else 1 if a < k else 0
            return target if taken[flags] else fall
    else:
        def f(regs, st):
            a, b = regs[ra] ^ _SIGN, regs[rb] ^ _SIGN
            st[_FLAGS] = flags = 2 if a == b else 1 if a < b else 0
            return target if taken[flags] else fall
    return f


@functools.lru_cache(maxsize=1 << 12)
def _decode(word: int) -> tuple[int, int, int, int]:
    """(op, ra, rb, imm) of an instruction word; an illegal one has op 0."""
    inst = isa.decode(word.to_bytes(INSTR_WIDTH, "big"))
    return (OP_ILLEGAL, 0, 0, 0) if inst is None else (inst.op, inst.ra, inst.rb, inst.imm)


_INV = -1       # a value that is the same in every iteration


class _Loop(NamedTuple):
    """A loop head's block, and the pass from it in closed form: the fields
    of ``_closed_form``, then the closing branch's truth table and its
    compare as a terminator, the instructions of a pass, the pcs its
    gateway entries resume at, and its last two pcs."""

    block: tuple
    stepping: tuple
    x: int
    other: int | None
    bound: int
    second: bool
    taken: tuple
    close: Callable
    size: int
    arrivals: tuple
    last: int
    prev: int


def _loop(words: list, head: int, blk: tuple) -> _Loop | None:
    """The loop whose head is ``head`` in the image decoded as ``words``,
    with ``blk`` the block there; None when the pass from it is no counted
    pass (see the module docstring)."""
    # straight on through gateway calls, branches to their fall-through,
    # compares, and register arithmetic and loads (``body``)
    insts, body, arrivals, at = [], [], [], head
    for inst in itertools.islice(words, (head - PMEM_BASE) // INSTR_WIDTH, None):
        op, target, at = inst[0], inst[3], at + INSTR_WIDTH
        row = OPS.get(op)
        if row is None:
            return None
        if op == OP_BL and target == isa.TRAMP_COND:
            arrivals.append(at)
        elif row.control == CTL_COND:
            if target != at:
                break                 # the closing branch
        elif row.control != CTL_NONE:
            return None
        elif row.writes == (RA,):
            body.append(inst)
        elif row.mnemonic != "cmp":
            return None
        insts.append(inst)
    else:
        return None
    if not insts or OPS[insts[-1][0]].mnemonic != "cmp":
        return None
    size, last, prev = len(insts) + 1, at - INSTR_WIDTH, at - 2 * INSTR_WIDTH
    if target == head - INSTR_WIDTH and target >= PMEM_BASE and \
            words[(target - PMEM_BASE) // INSTR_WIDTH][::3] == (OP_BL, isa.TRAMP_COND):
        arrivals.append(head)         # through the entry just before the head
        size, last, prev = size + 1, target, last
    elif target != head:
        return None
    if len(arrivals) > 2:             # no log unit is longer
        return None
    form = _closed_form(body, insts[-1])
    if form is None:
        return None
    taken = _COND_TAKEN[inst[1]]
    return _Loop(blk, *form, taken, _compare(insts[-1], taken, target, at), size,
                 tuple(arrivals), last, prev)


def _closed_form(body: list[tuple[int, int, int, int]],
                 cmp: tuple[int, int, int, int]) -> tuple | None:
    """The closed form of a pass whose register arithmetic and loads are
    ``body`` and whose closing compare is ``cmp``: (the registers that
    step, the place among them of the compared one, the other compared
    register or None, the compared immediate, whether the stepping
    register is compared second). None when there is none."""
    op, ra, rb, imm = cmp
    written = {d for _, d, _, _ in body}
    if written & {SP, LR}:
        return None
    # each register, symbolically: _INV, or the written register whose
    # entry value it is, plus something that is the same every iteration
    val: dict[int, int] = {}

    def of(r: int) -> int:
        return val.get(r, r if r in written else _INV)

    for o, d, s, i in body:
        if o == OP_MOV_IMM:
            val[d] = _INV
            continue
        v = of(s)
        if o == OP_LDR:
            if v != _INV:             # a load whose address may move
                return None
        elif o == OP_ADD_RR or o == OP_SUB_RR:
            w = of(i)
            if w != _INV:
                if o == OP_SUB_RR or v != _INV:   # not an entry value plus a step
                    return None
                v = w
        val[d] = v
    if any(of(r) not in (_INV, r) for r in written):
        return None
    stepping = tuple(sorted(r for r in written if of(r) == r))
    left, right = of(ra), _INV if op == OP_CMP_RI else of(rb)
    if left == ra and right == _INV:
        x, other, second = ra, None if op == OP_CMP_RI else rb, False
    elif op == OP_CMP_RR and right == rb and left == _INV:
        x, other, second = rb, ra, True
    else:
        return None
    return stepping, stepping.index(x), other, imm, second


def _iterate(loop: _Loop, regs: list, st: list, entry: list, room: int,
             gateway: Callable | None) -> int:
    """After one ordinary pass of ``loop`` that began with the registers at
    ``entry``, take up to ``room`` further passes at once, as many as stay
    taken and the gateway's ``repeat`` logs: the passes taken."""
    _, stepping, x, other, bound, second, taken, close, _, arrivals, _, _ = loop
    steps = [(r, (regs[r] - entry[r]) & MASK32) for r in stepping]
    step = steps[x][1]
    a = regs[stepping[x]] ^ _SIGN
    b = (bound if other is None else regs[other]) ^ _SIGN
    if step >> 31:                    # a step down: count up in the mirrored order
        step, a, b, second = -step & MASK32, MASK32 - a, MASK32 - b, not second
    if step:
        # the flags of the i-th further compare: below b for i <= lo, at
        # b for i = lo + 1 when eq, above b after, until a + i * step wraps
        below, above = (0, 1) if second else (1, 0)
        wrap, c = (MASK32 - a) // step, b - a
        lo, eq = ((c - 1) // step, not c % step) if c > 0 else (0, False)
        k = 0
        for span, flags in ((lo, below), (eq, 2), (wrap, above)):
            if span and not taken[flags]:
                break
            k += span
        room = min(room, k, wrap)
    if room and arrivals:
        repeat = getattr(gateway, "repeat", None)
        room = repeat(arrivals, room) if repeat is not None else 0
    if room:
        for r, s in steps:
            regs[r] = (regs[r] + room * s) & MASK32
        close(regs, st)
    return room


class _Code:
    """The closures of an image or a machine's own ``pmem``, by pc and
    block, and its SHA-256 once measured (or ``digest``, when known)."""

    def __init__(self, pmem: bytes | bytearray, digest: bytes | None = None, words=None):
        # by pc: closures, blocks, and loop heads (never in ``blocks``)
        self.pmem, self.ops, self.blocks, self.loops = pmem, {}, {}, {}
        self.digest = digest
        if words is not None:           # the image's instructions as laid out
            self.words = words

    @functools.cached_property
    def words(self) -> list[tuple[int, int, int, int]]:
        """Every word of the image, decoded once."""
        return list(map(_decode, struct.unpack_from(
            f">{len(self.pmem) // INSTR_WIDTH}I", self.pmem)))

    def covers(self, pc: int) -> bool:
        """Whether ``pc`` is a whole, aligned program-memory word."""
        off = pc - PMEM_BASE
        return 0 <= off <= len(self.pmem) - INSTR_WIDTH and not off % INSTR_WIDTH

    def op(self, pc: int) -> Callable:
        """The closure of the word at ``pc``, translated once."""
        f = self.ops.get(pc)
        if f is None:
            f = self.ops[pc] = _translate(self.words[(pc - PMEM_BASE) // INSTR_WIDTH], pc)
        return f

    def block(self, pc: int) -> tuple:
        """(body, terminator returning the next pc, size, last pc, the pc
        before it or None) of the block at ``pc``; a loop head's goes into
        ``loops`` with the closed form of its pass."""
        words = self.words
        start = end = (pc - PMEM_BASE) // INSTR_WIDTH
        for inst in itertools.islice(words, start, None):
            end += 1
            if (ctl := isa.control(inst)) != CTL_NONE:     # None: an illegal word
                break
        insts, at = words[start:end], PMEM_BASE + end * INSTR_WIDTH
        size, (op, ra, _, imm) = end - start, insts[-1]
        if ctl == CTL_COND and size > 1 and OPS[insts[-2][0]].mnemonic == "cmp":
            n, term = size - 2, _compare(insts[-2], _COND_TAKEN[ra], imm, at)
        elif ctl != CTL_NONE:
            n, term = size - 1, self.op(at - INSTR_WIDTH)
        else:
            n, term = size, lambda regs, st: at     # cut by the end of the image
        # a tuple of a list: one of an iterator is sized by resizing, and the
        # blocks that leaves behind raise a long run's peak RSS by megabytes
        body = tuple([self.op(a) for a in range(pc, pc + n * INSTR_WIDTH, INSTR_WIDTH)])
        blk = (body, term, size, at - INSTR_WIDTH,
               at - 2 * INSTR_WIDTH if size > 1 else None)
        # a pass goes on through a gateway call or a branch to its fall-through,
        # or closes back to its head; a gateway call alone starts none, so a
        # loop has one head
        goes_on = op == OP_BL and imm == isa.TRAMP_COND and size > 1 \
            or ctl == CTL_COND and imm in (at, pc, pc - INSTR_WIDTH)
        loop = _loop(words, pc, blk) if goes_on else None
        if loop is None:
            self.blocks[pc] = blk
        else:
            self.loops[pc] = loop
        return blk


def load_program(asm_text: str) -> Machine:
    """Assemble and install a program; machine starts in the Secure World
    with pc at the entry label."""
    prog = isa.assemble(asm_text)
    m = Machine(prog.image)
    m.pc = prog.entry
    return m
