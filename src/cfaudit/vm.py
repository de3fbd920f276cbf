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
A secure watchdog timer bounds Non-Secure execution. A Non-Secure transfer
to one of the five secure-gateway entry points never executes bytes, it
stands in for gateway veneer code; any other address in the gateway window
faults like an unmapped fetch.

Faults never raise: they come back as ``Fault`` events so the caller can
route them through the reset path the way the hardware would.

``Machine.run`` is the interpreter: it executes a block of instructions
until the first event that is not a plain execution, or until its limit.
Inside a block the world and the permissions cannot change, so the
watchdog deadline becomes a bound on the block, a fetch from program
memory is a lookup in a per-word predecoded table, a dmem access is never
checked, and no event object is built per instruction. The table of an
image is built once and every machine loaded with that image starts from
its own copy; a program-memory write invalidates, in that machine's copy
only, the words it touches. ``Machine.step`` is ``run(1)``.
A gateway entry ends the block with an ``NscEntry`` event, unless ``run``
is given a gateway handler: a logging entry the handler services stays
inside the block.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import struct
from collections.abc import Callable
from dataclasses import dataclass

from . import isa
from .isa import (
    DMEM_BASE, DMEM_SIZE, INSTR_WIDTH, LR, NSC_EXIT, PC,
    PMEM_BASE, PMEM_CAPACITY, RETAINED_BASE, RETAINED_SIZE, SECURE_BASE,
    SECURE_SIZE, SP, STACK_TOP,
    OP_ADD_RI, OP_ADD_RR, OP_B, OP_BCOND, OP_BL, OP_BLX, OP_BX_LR, OP_CMP_RI,
    OP_CMP_RR, OP_HALT, OP_LDR, OP_MOV_IMM, OP_MOV_REG, OP_NSC_CALL, OP_POP,
    OP_PUSH, OP_STR, OP_SUB_RI, OP_SUB_RR,
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
class NscSnapshot:
    """Register context captured at a secure-gateway entry."""

    regs: tuple[int, ...]
    caller_pc: int        # address of the branch that entered the gateway
    pre_caller_pc: int    # address of the instruction executed before that
    prev_lr: int          # lr value before the most recent lr write

    @property
    def lr(self) -> int:
        return self.regs[LR]

    @property
    def r10(self) -> int:
        return self.regs[10]

    @property
    def r11(self) -> int:
        return self.regs[11]


@dataclass(frozen=True)
class NscEntry:
    addr: int             # which gateway entry point
    snapshot: NscSnapshot


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
    paused: bool = False

    def arm(self, delta: int) -> None:
        self.delta = delta
        self.elapsed = 0
        self.active = True
        self.paused = False

    def clear_and_pause(self) -> None:
        self.elapsed = 0
        self.paused = True

    def resume(self) -> None:
        self.elapsed = 0
        self.paused = False

    def deactivate(self) -> None:
        self.active = False
        self.paused = False
        self.elapsed = 0


# --- machine -------------------------------------------------------------

class Machine:
    """Registers, the four memories of the fixed map, and secure timer."""

    def __init__(self, pmem: bytes):
        if len(pmem) > PMEM_CAPACITY:
            raise ValueError("program exceeds pmem capacity")
        self.pmem = bytearray(pmem)
        self.dmem = bytearray(DMEM_SIZE)
        self.secure_mem = bytearray(SECURE_SIZE)
        self.retained_mem = bytearray(RETAINED_SIZE)
        self.pmem_locked = False
        self.timer = SecureTimer()
        self.regs = [0] * 16
        self.regs[SP] = STACK_TOP
        self.regs[PC] = PMEM_BASE
        self.world = World.SECURE
        self.halted = False
        self.cycle_count = 0
        self.flag_z = False
        self.flag_n = False
        # bookkeeping for gateway snapshots
        self.last_exec_pc = 0
        self.prev_exec_pc = 0
        self.prev_lr = 0
        # predecoded program words by address: the image's shared table,
        # copied; a word dropped by a pmem write is decoded again on fetch
        self._decode_cache = _predecoded(bytes(pmem)).copy()

    # -- registers ------------------------------------------------------

    @property
    def pc(self) -> int:
        return self.regs[PC]

    @pc.setter
    def pc(self, v: int) -> None:
        self.regs[PC] = v & MASK32

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
            self._decode_cache.pop(addr, None)

    def write_pmem(self, addr: int, data: bytes) -> None:
        """Secure-side program-memory write (provisioning, remediation)."""
        off = addr - PMEM_BASE
        if not 0 <= off <= len(self.pmem) - len(data):
            raise UnmappedAddress(addr)
        self.pmem[off:off + len(data)] = data
        self._decode_cache.clear()

    # -- secure-world operations -----------------------------------------

    def hash_pmem(self) -> bytes:
        return hashlib.sha256(bytes(self.pmem)).digest()

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
        self.flag_z = False
        self.flag_n = False
        self.last_exec_pc = 0
        self.prev_exec_pc = 0
        self.prev_lr = 0

    def enter_nonsecure(self, entry: int) -> None:
        if self.world is not World.SECURE:
            raise WorldViolation("world switch is a Secure-World operation")
        self.world = World.NONSECURE
        self.pc = entry

    def enter_secure(self) -> None:
        self.world = World.SECURE

    # -- execution --------------------------------------------------------

    def _predecode_at(self, pc: int) -> tuple | Fault:
        """Fetch the word at ``pc`` for execution in the current world.
        Program-memory words are kept in the predecoded table."""
        if pc % INSTR_WIDTH:
            return Fault(FaultKind.UNALIGNED, pc)
        fk = self._checked(pc, AccessKind.EXECUTE)
        if fk is not None:
            return Fault(fk, pc)
        store, off, _ = self._decode_addr(pc)
        inst = _predecode(bytes(store[off:off + INSTR_WIDTH]))
        if store is self.pmem:
            self._decode_cache[pc] = inst
        return inst

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
        returned count leave out.
        """
        limit = _UNBOUNDED if limit is None else limit
        if limit <= 0:
            return 0, None
        if self.halted:
            self.cycle_count += 1
            return 0, Halted()

        regs = self.regs
        ns = self.world is World.NONSECURE
        timer = self.timer
        counting = ns and timer.active and not timer.paused
        budget = limit
        if counting and timer.delta - timer.elapsed < limit:
            budget = timer.delta - timer.elapsed     # the deadline ends the block
        fetch = self._decode_cache.get
        # dmem is read/write in both worlds, so its accesses are never checked
        dmem, dmem_lo, dmem_hi = self.dmem, DMEM_BASE, _DMEM_END
        pc = regs[PC]
        last, prev, prev_lr = self.last_exec_pc, self.prev_exec_pc, self.prev_lr
        flags = (self.flag_z << 1) | self.flag_n
        n = 0
        served = 0
        halt_counted = 0
        ev: Event | None = None

        while n < budget:
            inst = fetch(pc)
            if inst is None:
                if ns and pc in _GATEWAY_ENTRIES:
                    if gateway is not None and pc != NSC_EXIT:
                        resume = gateway(pc, last, prev, prev_lr)
                        if resume is not None:
                            # one cycle of the limit, not of the deadline
                            pc = resume
                            served += 1
                            limit -= 1
                            budget = min(budget, limit)
                            continue
                    regs[PC] = pc
                    self.world = World.SECURE
                    ev = NscEntry(pc, NscSnapshot(tuple(regs), last, prev, prev_lr))
                    break
                inst = self._predecode_at(pc)
                if inst.__class__ is Fault:
                    ev = inst
                    break
            op, ra, rb, imm = inst
            regs[PC] = pc
            nxt = pc + INSTR_WIDTH

            if op == OP_ADD_RI:
                regs[ra] = (regs[rb] + imm) & MASK32
            elif op == OP_CMP_RI:
                a = regs[ra] ^ _SIGN          # imm is predecoded the same way
                flags = 2 if a == imm else 1 if a < imm else 0
            elif op == OP_BCOND:
                if ra[flags]:                 # ra is the condition's truth table
                    nxt = imm
            elif op == OP_MOV_IMM:
                if ra == LR:
                    prev_lr = regs[LR]
                regs[ra] = imm
            elif op == OP_B:
                nxt = imm
            elif op == OP_CMP_RR:
                a, b = regs[ra] ^ _SIGN, regs[rb] ^ _SIGN
                flags = 2 if a == b else 1 if a < b else 0
            elif op == OP_BL:
                prev_lr = regs[LR]
                regs[LR] = nxt
                nxt = imm
            elif op == OP_LDR:
                addr = (regs[rb] + imm) & MASK32
                if addr % 4:
                    ev = Fault(FaultKind.UNALIGNED, addr)
                    break
                if dmem_lo <= addr < dmem_hi:
                    regs[ra] = _load(dmem, addr - dmem_lo)[0]
                else:
                    fk = self._checked(addr, AccessKind.READ)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    regs[ra] = self.load_word(addr)
            elif op == OP_STR:
                addr = (regs[rb] + imm) & MASK32
                if addr % 4:
                    ev = Fault(FaultKind.UNALIGNED, addr)
                    break
                if dmem_lo <= addr < dmem_hi:
                    _store(dmem, addr - dmem_lo, regs[ra] & MASK32)
                else:
                    fk = self._checked(addr, AccessKind.WRITE)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    self.store_word(addr, regs[ra])
            elif op == OP_SUB_RI:
                regs[ra] = (regs[rb] - imm) & MASK32
            elif op == OP_ADD_RR:
                regs[ra] = (regs[rb] + regs[imm]) & MASK32
            elif op == OP_SUB_RR:
                regs[ra] = (regs[rb] - regs[imm]) & MASK32
            elif op == OP_MOV_REG:
                if ra == LR:
                    prev_lr = regs[LR]
                    regs[LR] = regs[rb] & MASK32
                else:
                    regs[ra] = regs[rb]
            elif op == OP_PUSH:
                addr = (regs[SP] - 4) & MASK32
                if addr % 4:
                    ev = Fault(FaultKind.UNALIGNED, addr)
                    break
                if dmem_lo <= addr < dmem_hi:
                    regs[SP] = addr
                    _store(dmem, addr - dmem_lo, regs[ra] & MASK32)
                else:
                    fk = self._checked(addr, AccessKind.WRITE)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    regs[SP] = addr
                    self.store_word(addr, regs[ra])
            elif op == OP_POP:
                addr = regs[SP]
                if addr % 4:
                    ev = Fault(FaultKind.UNALIGNED, addr)
                    break
                if dmem_lo <= addr < dmem_hi:
                    val = _load(dmem, addr - dmem_lo)[0]
                else:
                    fk = self._checked(addr, AccessKind.READ)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    val = self.load_word(addr)
                regs[SP] = (addr + 4) & MASK32
                if ra == PC:
                    nxt = val
                elif ra == LR:
                    prev_lr = regs[LR]
                    regs[LR] = val
                else:
                    regs[ra] = val
            elif op == OP_BX_LR:
                nxt = regs[LR]
            elif op == OP_BLX:
                prev_lr = regs[LR]
                regs[LR] = nxt
                nxt = regs[ra] & MASK32
            elif op == OP_NSC_CALL and ns:
                nxt = NSC_EXIT                # protected return; traps next cycle
            elif op == OP_NSC_CALL or op == OP_HALT:
                # without a monitor attached the gateway return ends execution
                prev, last = last, pc
                self.halted = True
                halt_counted = 1
                ev = Halted()
                break
            else:
                ev = Fault(FaultKind.ILLEGAL_INSTRUCTION, pc)
                break

            prev, last = last, pc
            pc = nxt
            n += 1
        else:
            if budget < limit:
                # deadline wins before the next instruction executes
                self.world = World.SECURE
                ev = TimerTrigger()

        regs[PC] = pc
        self.last_exec_pc, self.prev_exec_pc, self.prev_lr = last, prev, prev_lr
        self.flag_z, self.flag_n = bool(flags & 2), bool(flags & 1)
        if counting:
            timer.elapsed += n + halt_counted
        self.cycle_count += n + served if ev is None else n + served + 1
        return n, ev


# --- memory map and predecoding -------------------------------------------

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
_ILLEGAL = (isa.OP_ILLEGAL, 0, 0, 0)


@functools.lru_cache(maxsize=isa.IMAGE_CACHE_SIZE)
def _predecoded(image: bytes) -> dict[int, tuple]:
    """Every whole word of ``image`` predecoded, by address. Shared: a
    machine copies it before its first fetch."""
    return {PMEM_BASE + off: _predecode(image[off:off + INSTR_WIDTH])
            for off in range(0, len(image) - INSTR_WIDTH + 1, INSTR_WIDTH)}


def _predecode(word: bytes) -> tuple:
    """(op, ra, rb, imm) for the interpreter; a conditional branch carries
    its truth table as ra and a compare its immediate with the sign flipped."""
    inst = isa.decode(word)
    if inst is None:
        return _ILLEGAL
    if inst.op == OP_BCOND:
        return (OP_BCOND, _COND_TAKEN[inst.ra], 0, inst.imm)
    if inst.op == OP_CMP_RI:
        return (OP_CMP_RI, inst.ra, 0, inst.imm ^ _SIGN)
    return (inst.op, inst.ra, inst.rb, inst.imm)


def load_program(asm_text: str) -> Machine:
    """Assemble and install a program; machine starts in the Secure World
    with pc at the entry label."""
    prog = isa.assemble(asm_text)
    m = Machine(prog.image)
    m.pc = prog.entry
    return m
