"""Two-world micro-machine: Non-Secure app execution under Secure-World control.

The machine executes the toy ISA from :mod:`cfaudit.isa`. Non-Secure code is
subject to a permission map and a secure watchdog timer; Secure-World code
(the monitor, modeled at the Python level) has unrestricted access. Entering
the secure-gateway window from the Non-Secure world never executes bytes, it
yields an ``NscEntry`` event instead, standing in for gateway veneer code.

Faults never raise: they come back as ``Fault`` events so the caller can
route them through the reset path the way the hardware would.

``Machine.run`` is the interpreter: it executes a block of instructions
until the first event that is not a plain execution, or until its limit.
Inside a block the world and the permissions cannot change, so the
watchdog deadline becomes a bound on the block, a fetch from program
memory is a lookup in a per-word predecoded table (any program-memory
write invalidates the words it touches), and no event object is built per
instruction. ``Machine.step`` is ``run(1)``.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass

from . import isa
from .isa import (
    DMEM_BASE, DMEM_SIZE, INSTR_WIDTH, LR, NSC_BASE, NSC_SIZE, PC,
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
    """Address belongs to no region."""

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


# --- permissions ---------------------------------------------------------

@dataclass
class Region:
    name: str
    base: int
    size: int
    world: World
    read: bool
    write: bool
    execute: bool

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class PermissionMap:
    """Per-region access flags enforced on Non-Secure accesses only.

    The Secure World passes every check: on the modeled hardware the secure
    side owns the attribution unit and is trusted with full access.
    """

    def __init__(self, pmem_size: int):
        self.regions = {
            "pmem": Region("pmem", PMEM_BASE, pmem_size, World.NONSECURE, True, True, True),
            "dmem": Region("dmem", DMEM_BASE, DMEM_SIZE, World.NONSECURE, True, True, False),
            "secure": Region("secure", SECURE_BASE, SECURE_SIZE, World.SECURE, True, True, False),
            "retained": Region("retained", RETAINED_BASE, RETAINED_SIZE, World.SECURE, True, True, False),
        }
        self.pmem_locked = False

    def region_at(self, addr: int) -> Region | None:
        for r in self.regions.values():
            if r.contains(addr):
                return r
        return None

    def check_access(self, addr: int, kind: AccessKind, world: World) -> bool:
        """True when allowed; False on a violation. Raises UnmappedAddress."""
        r = self.region_at(addr)
        if r is None:
            raise UnmappedAddress(addr)
        if world is World.SECURE:
            return True
        if r.world is not World.NONSECURE:
            return False
        if kind is AccessKind.READ:
            return r.read
        if kind is AccessKind.WRITE:
            return r.write
        return r.execute


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
    """Registers, four memory regions, permission map, and secure timer."""

    def __init__(self, pmem: bytes):
        if len(pmem) > PMEM_CAPACITY:
            raise ValueError("program exceeds pmem capacity")
        self.pmem = bytearray(pmem)
        self.dmem = bytearray(DMEM_SIZE)
        self.secure_mem = bytearray(SECURE_SIZE)
        self.retained_mem = bytearray(RETAINED_SIZE)
        self.perm = PermissionMap(len(self.pmem))
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
        # predecoded program words by address, filled on first fetch
        self._decode_cache: dict[int, tuple] = {}

    # -- registers ------------------------------------------------------

    @property
    def pc(self) -> int:
        return self.regs[PC]

    @pc.setter
    def pc(self, v: int) -> None:
        self.regs[PC] = v & MASK32

    # -- memory ---------------------------------------------------------

    def _backing(self, addr: int) -> tuple[bytearray, int] | None:
        r = self.perm.region_at(addr)
        if r is None:
            return None
        store = {"pmem": self.pmem, "dmem": self.dmem,
                 "secure": self.secure_mem, "retained": self.retained_mem}[r.name]
        return store, addr - r.base

    def _checked(self, addr: int, kind: AccessKind) -> FaultKind | None:
        """Permission check for the current world; returns a fault kind or None."""
        try:
            ok = self.perm.check_access(addr, kind, self.world)
        except UnmappedAddress:
            return FaultKind.UNMAPPED
        if self.world is World.NONSECURE and self.perm.pmem_locked \
                and kind is AccessKind.WRITE and self.perm.regions["pmem"].contains(addr):
            ok = False
        if not ok:
            return {
                AccessKind.READ: FaultKind.READ_VIOLATION,
                AccessKind.WRITE: FaultKind.WRITE_VIOLATION,
                AccessKind.EXECUTE: FaultKind.EXEC_VIOLATION,
            }[kind]
        return None

    def load_word(self, addr: int) -> int:
        store, off = self._backing(addr)
        return struct.unpack_from(">I", store, off)[0]

    def store_word(self, addr: int, value: int) -> None:
        store, off = self._backing(addr)
        struct.pack_into(">I", store, off, value & MASK32)
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
        """Read/execute-only pmem, non-executable dmem, NS reconfig revoked."""
        if self.world is not World.SECURE:
            raise WorldViolation("lock_pmem requires Secure World")
        self.perm.pmem_locked = True
        self.perm.regions["pmem"].write = False
        self.perm.regions["dmem"].execute = False

    def unlock_pmem(self) -> None:
        if self.world is not World.SECURE:
            raise WorldViolation("unlock_pmem requires Secure World")
        self.perm.pmem_locked = False
        self.perm.regions["pmem"].write = True

    def reset(self) -> None:
        """Warm reset: volatile state cleared, pmem and retained preserved."""
        self.regs = [0] * 16
        self.regs[SP] = STACK_TOP
        self.regs[PC] = PMEM_BASE
        self.dmem = bytearray(DMEM_SIZE)
        self.secure_mem = bytearray(SECURE_SIZE)
        self.timer = SecureTimer()
        self.perm = PermissionMap(len(self.pmem))
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
        store, off = self._backing(pc)
        inst = _predecode(bytes(store[off:off + INSTR_WIDTH]))
        if store is self.pmem:
            self._decode_cache[pc] = inst
        return inst

    def step(self) -> Event:
        """Execute one cycle. Never raises for program behavior: bad accesses
        and bad encodings come back as Fault events with pc unchanged."""
        _, ev = self.run(1)
        return Executed(self.last_exec_pc) if ev is None else ev

    def run(self, limit: int | None = None) -> tuple[int, Event | None]:
        """Execute up to ``limit`` cycles (no limit when None).

        Returns how many instructions executed and the event that ended
        the block, or None when the limit was reached first. The ending
        event takes one cycle of its own, exactly as under ``step``.
        Without a limit or an armed watchdog, a program that never leaves
        its loop never returns.
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
        dmem = self.dmem
        # data accesses inside these windows skip the permission check; a
        # window opens after one checked access to dmem succeeds, since
        # permissions are per region and fixed for the block
        rd_lo = rd_hi = wr_lo = wr_hi = 0
        pc = regs[PC]
        last, prev, prev_lr = self.last_exec_pc, self.prev_exec_pc, self.prev_lr
        flags = (self.flag_z << 1) | self.flag_n
        n = 0
        halt_counted = 0
        ev: Event | None = None

        while n < budget:
            inst = fetch(pc)
            if inst is None:
                if ns and NSC_BASE <= pc < _NSC_END:
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
                if rd_lo <= addr < rd_hi:
                    regs[ra] = _load(dmem, addr - DMEM_BASE)[0]
                else:
                    fk = self._checked(addr, AccessKind.READ)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    regs[ra] = self.load_word(addr)
                    if DMEM_BASE <= addr < _DMEM_END:
                        rd_lo, rd_hi = DMEM_BASE, _DMEM_END
            elif op == OP_STR:
                addr = (regs[rb] + imm) & MASK32
                if addr % 4:
                    ev = Fault(FaultKind.UNALIGNED, addr)
                    break
                if wr_lo <= addr < wr_hi:
                    _store(dmem, addr - DMEM_BASE, regs[ra] & MASK32)
                else:
                    fk = self._checked(addr, AccessKind.WRITE)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    self.store_word(addr, regs[ra])
                    if DMEM_BASE <= addr < _DMEM_END:
                        wr_lo, wr_hi = DMEM_BASE, _DMEM_END
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
                if wr_lo <= addr < wr_hi:
                    regs[SP] = addr
                    _store(dmem, addr - DMEM_BASE, regs[ra] & MASK32)
                else:
                    fk = self._checked(addr, AccessKind.WRITE)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    regs[SP] = addr
                    self.store_word(addr, regs[ra])
                    if DMEM_BASE <= addr < _DMEM_END:
                        wr_lo, wr_hi = DMEM_BASE, _DMEM_END
            elif op == OP_POP:
                addr = regs[SP]
                if addr % 4:
                    ev = Fault(FaultKind.UNALIGNED, addr)
                    break
                if rd_lo <= addr < rd_hi:
                    val = _load(dmem, addr - DMEM_BASE)[0]
                else:
                    fk = self._checked(addr, AccessKind.READ)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    val = self.load_word(addr)
                    if DMEM_BASE <= addr < _DMEM_END:
                        rd_lo, rd_hi = DMEM_BASE, _DMEM_END
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
                nxt = isa.NSC_EXIT            # protected return; traps next cycle
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
        self.cycle_count += n if ev is None else n + 1
        return n, ev


# --- predecoding -----------------------------------------------------------

_UNBOUNDED = 1 << 62
_NSC_END = NSC_BASE + NSC_SIZE
_DMEM_END = DMEM_BASE + DMEM_SIZE
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
