"""Toy 32-bit ISA: memory map, fixed-width instruction encoding, and a two-pass assembler.

Every instruction occupies exactly 4 bytes (big-endian word):

    byte 0   opcode
    byte 1   ra << 4 | rb        (register fields, 0..15)
    bytes 2-3  16-bit immediate / branch target / third register

All memory regions sit below 2**31 so any code address fits the 31-bit
payload of an audit-log entry.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field

# --- memory map ---------------------------------------------------------

# Secure-gateway window. Entering any of these addresses from the
# Non-Secure world traps to the monitor instead of executing bytes.
NSC_BASE = 0x0100
NSC_SIZE = 0x20

PMEM_BASE = 0x1000
PMEM_CAPACITY = 16 * 1024
DMEM_BASE = 0x8000
DMEM_SIZE = 8 * 1024
STACK_TOP = DMEM_BASE + DMEM_SIZE
SECURE_BASE = 0x0001_0000
SECURE_SIZE = 64 * 1024
RETAINED_BASE = 0x0002_0000
RETAINED_SIZE = 64 * 1024

TRAMP_COND = NSC_BASE + 0x00
TRAMP_ICALL = NSC_BASE + 0x04
TRAMP_RET = NSC_BASE + 0x08
TRAMP_LOOP = NSC_BASE + 0x0C
NSC_EXIT = NSC_BASE + 0x10

NSC_SYMBOLS = {
    "trampoline_cond": TRAMP_COND,
    "trampoline_icall": TRAMP_ICALL,
    "trampoline_ret": TRAMP_RET,
    "trampoline_loop": TRAMP_LOOP,
    "nsc_exit": NSC_EXIT,
}

# Symbols resolvable in any program without a local definition.
BUILTIN_SYMBOLS = dict(
    NSC_SYMBOLS,
    input_base=DMEM_BASE,
    dmem_base=DMEM_BASE,
    stack_top=STACK_TOP,
)

INSTR_WIDTH = 4

# What is derived from a program's text or image alone (its rewrite, the
# auditor's graph, the predecoded words) is built once and shared by every
# session of that program. Each such cache keeps the programs used last,
# up to this many.
IMAGE_CACHE_SIZE = 16

# --- registers ----------------------------------------------------------

SP = 13
LR = 14
PC = 15

REG_NAMES = {f"r{i}": i for i in range(13)}
REG_NAMES.update(sp=SP, lr=LR, pc=PC)
REG_REPR = {v: k for k, v in REG_NAMES.items()}

# --- opcodes ------------------------------------------------------------

OP_ILLEGAL = 0x00
OP_MOV_IMM = 0x01
OP_MOV_REG = 0x02
OP_LDR = 0x03
OP_STR = 0x04
OP_ADD_RI = 0x05
OP_ADD_RR = 0x06
OP_SUB_RI = 0x07
OP_SUB_RR = 0x08
OP_CMP_RI = 0x09
OP_CMP_RR = 0x0A
OP_B = 0x0B
OP_BCOND = 0x0C
OP_BL = 0x0D
OP_BLX = 0x0E
OP_BX_LR = 0x0F
OP_PUSH = 0x10
OP_POP = 0x11
OP_NSC_CALL = 0x12
OP_HALT = 0x13

VALID_OPCODES = frozenset(range(OP_MOV_IMM, OP_HALT + 1))

# Condition codes for bcond, derived from the flags a preceding cmp set.
COND_EQ, COND_NE, COND_LT, COND_GE, COND_GT, COND_LE = range(6)
COND_NAMES = {"eq": COND_EQ, "ne": COND_NE, "lt": COND_LT,
              "ge": COND_GE, "gt": COND_GT, "le": COND_LE}
COND_REPR = {v: k for k, v in COND_NAMES.items()}

# Opcodes that may redirect control flow when executed.
BRANCH_MNEMONICS = frozenset({"b", "bl", "blx", "bx", "nsc_call"} | {"b" + c for c in COND_NAMES})


class ParseError(Exception):
    """Malformed assembly source."""

    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line = line
        self.msg = msg


class LinkError(Exception):
    """Reference to an undefined label."""

    def __init__(self, label: str):
        super().__init__(f"undefined label: {label}")
        self.label = label


@dataclass(frozen=True)
class Instruction:
    op: int
    ra: int = 0
    rb: int = 0
    imm: int = 0

    def encode(self) -> bytes:
        return struct.pack(">BBH", self.op, (self.ra << 4) | self.rb, self.imm & 0xFFFF)


def decode(word: bytes) -> Instruction | None:
    """Decode 4 bytes; None when the word is not a well-formed instruction."""
    op, regs, imm = struct.unpack(">BBH", word)
    if op not in VALID_OPCODES:
        return None
    ra, rb = regs >> 4, regs & 0x0F
    if op == OP_BCOND and ra not in COND_REPR:
        return None
    if op in (OP_ADD_RR, OP_SUB_RR) and imm > 15:
        return None
    return Instruction(op, ra, rb, imm)


# --- source representation ----------------------------------------------

@dataclass
class SourceLine:
    """One instruction with the labels attached to it."""

    labels: list[str]
    mnemonic: str
    args: list[str]
    lineno: int

    def render(self) -> list[str]:
        out = [f"{lab}:" for lab in self.labels]
        out.append(f"    {self.mnemonic} {', '.join(self.args)}".rstrip())
        return out


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):\s*(.*)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def parse_lines(text: str) -> list[SourceLine]:
    """Parse assembly text into SourceLines; raises ParseError."""
    lines: list[SourceLine] = []
    pending_labels: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split(";", 1)[0].strip()
        while code:
            m = _LABEL_RE.match(code)
            if not m:
                break
            pending_labels.append(m.group(1))
            code = m.group(2).strip()
        if not code:
            continue
        parts = code.split(None, 1)
        mnemonic = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        args = [a.strip() for a in rest.split(",")] if rest.strip() else []
        lines.append(SourceLine(pending_labels, mnemonic, args, lineno))
        pending_labels = []
    if pending_labels:
        # trailing labels attach to nothing
        raise ParseError(len(text.splitlines()), "label at end of file has no instruction")
    return lines


def _parse_reg(tok: str, line: int) -> int:
    r = REG_NAMES.get(tok.lower())
    if r is None:
        raise ParseError(line, f"expected register, got {tok!r}")
    return r


def _parse_imm(tok: str, line: int, symbols: dict[str, int]) -> int:
    if not tok.startswith("#"):
        raise ParseError(line, f"expected immediate, got {tok!r}")
    body = tok[1:]
    if _NAME_RE.match(body):
        if body in symbols:
            return symbols[body]
        raise LinkError(body)
    try:
        val = int(body, 0)
    except ValueError:
        raise ParseError(line, f"bad immediate {tok!r}") from None
    if not 0 <= val <= 0xFFFF:
        raise ParseError(line, f"immediate {val} out of range 0..65535")
    return val


def _parse_mem(args: list[str], line: int) -> tuple[int, int]:
    """[rs] or [rs, #off] split across comma-separated args."""
    joined = ", ".join(args)
    m = re.match(r"^\[\s*(\w+)\s*(?:,\s*#(\w+)\s*)?\]$", joined)
    if not m:
        raise ParseError(line, f"bad memory operand {joined!r}")
    base = _parse_reg(m.group(1), line)
    off = 0
    if m.group(2) is not None:
        try:
            off = int(m.group(2), 0)
        except ValueError:
            raise ParseError(line, f"bad offset in {joined!r}") from None
        if not 0 <= off <= 0xFFFF:
            raise ParseError(line, f"offset {off} out of range")
    return base, off


@dataclass
class Program:
    """Assembled image plus the symbol and line bookkeeping the tooling needs."""

    lines: list[SourceLine]
    instructions: list[Instruction]
    labels: dict[str, int]
    line_addrs: list[int]          # address of each SourceLine's instruction
    entry: int
    image: bytes = field(repr=False, default=b"")

    def line_at_addr(self, addr: int) -> int | None:
        off = addr - PMEM_BASE
        if off % INSTR_WIDTH or not 0 <= off < len(self.image):
            return None
        return off // INSTR_WIDTH


def assemble(text: str | list[SourceLine]) -> Program:
    """Two-pass assembly. Entry point is the label ``main`` when defined,
    otherwise the first instruction."""
    lines = parse_lines(text) if isinstance(text, str) else text
    labels: dict[str, int] = {}
    line_addrs: list[int] = []
    addr = PMEM_BASE
    for sl in lines:
        for lab in sl.labels:
            if lab in labels or lab in BUILTIN_SYMBOLS:
                raise ParseError(sl.lineno, f"duplicate label {lab!r}")
            labels[lab] = addr
        line_addrs.append(addr)
        addr += INSTR_WIDTH
    if addr - PMEM_BASE > PMEM_CAPACITY:
        raise ParseError(lines[-1].lineno, "program exceeds program-memory capacity")

    symbols = dict(BUILTIN_SYMBOLS)
    symbols.update(labels)

    def target(tok: str, line: int) -> int:
        if tok in symbols:
            return symbols[tok]
        if _NAME_RE.match(tok):
            raise LinkError(tok)
        raise ParseError(line, f"bad branch target {tok!r}")

    instrs: list[Instruction] = []
    for sl in lines:
        n, a, ln = sl.mnemonic, sl.args, sl.lineno

        def need(k: int):
            if len(a) != k:
                raise ParseError(ln, f"{n} expects {k} operand(s), got {len(a)}")

        if n == "mov":
            need(2)
            rd = _parse_reg(a[0], ln)
            if a[1].startswith("#"):
                instrs.append(Instruction(OP_MOV_IMM, rd, 0, _parse_imm(a[1], ln, symbols)))
            else:
                instrs.append(Instruction(OP_MOV_REG, rd, _parse_reg(a[1], ln)))
        elif n == "ldr":
            if len(a) < 2:
                raise ParseError(ln, "ldr expects rd, [rs(, #off)]")
            rd = _parse_reg(a[0], ln)
            base, off = _parse_mem(a[1:], ln)
            instrs.append(Instruction(OP_LDR, rd, base, off))
        elif n == "str":
            if len(a) < 2:
                raise ParseError(ln, "str expects rs, [rb(, #off)]")
            rs = _parse_reg(a[0], ln)
            base, off = _parse_mem(a[1:], ln)
            instrs.append(Instruction(OP_STR, rs, base, off))
        elif n in ("add", "sub"):
            if len(a) == 2:          # add rd, #imm  =>  add rd, rd, #imm
                a = [a[0], a[0], a[1]]
            if len(a) != 3:
                raise ParseError(ln, f"{n} expects 2 or 3 operands")
            rd, rs = _parse_reg(a[0], ln), _parse_reg(a[1], ln)
            if a[2].startswith("#"):
                op = OP_ADD_RI if n == "add" else OP_SUB_RI
                instrs.append(Instruction(op, rd, rs, _parse_imm(a[2], ln, symbols)))
            else:
                op = OP_ADD_RR if n == "add" else OP_SUB_RR
                instrs.append(Instruction(op, rd, rs, _parse_reg(a[2], ln)))
        elif n == "cmp":
            need(2)
            rs = _parse_reg(a[0], ln)
            if a[1].startswith("#"):
                instrs.append(Instruction(OP_CMP_RI, rs, 0, _parse_imm(a[1], ln, symbols)))
            else:
                instrs.append(Instruction(OP_CMP_RR, rs, _parse_reg(a[1], ln)))
        elif n == "b":
            need(1)
            instrs.append(Instruction(OP_B, 0, 0, target(a[0], ln)))
        elif n in BRANCH_MNEMONICS and n.startswith("b") and n[1:] in COND_NAMES:
            need(1)
            instrs.append(Instruction(OP_BCOND, COND_NAMES[n[1:]], 0, target(a[0], ln)))
        elif n == "bl":
            need(1)
            instrs.append(Instruction(OP_BL, 0, 0, target(a[0], ln)))
        elif n == "blx":
            need(1)
            instrs.append(Instruction(OP_BLX, _parse_reg(a[0], ln)))
        elif n == "bx":
            need(1)
            if a[0].lower() != "lr":
                raise ParseError(ln, "only 'bx lr' is supported")
            instrs.append(Instruction(OP_BX_LR))
        elif n == "push":
            need(1)
            instrs.append(Instruction(OP_PUSH, _parse_reg(a[0].strip("{}"), ln)))
        elif n == "pop":
            need(1)
            instrs.append(Instruction(OP_POP, _parse_reg(a[0].strip("{}"), ln)))
        elif n == "nsc_call":
            need(0)
            instrs.append(Instruction(OP_NSC_CALL))
        elif n == "halt":
            need(0)
            instrs.append(Instruction(OP_HALT))
        else:
            raise ParseError(ln, f"unknown mnemonic {n!r}")

    image = b"".join(i.encode() for i in instrs)
    entry = labels.get("main", PMEM_BASE)
    return Program(lines, instrs, labels, line_addrs, entry, image)
