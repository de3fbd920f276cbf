"""Toy 32-bit ISA: memory map, fixed-width instruction encoding, and a two-pass assembler.

Every instruction occupies exactly 4 bytes (big-endian word):

    byte 0   opcode
    byte 1   ra << 4 | rb        (register fields, 0..15)
    bytes 2-3  16-bit immediate / branch target / third register

All memory regions sit below 2**31 so any code address fits the 31-bit
payload of an audit-log entry.

Assembly syntax is known in one place, ``parse_lines``. It checks every
line on its own: the mnemonic, operand count and form, register names,
numeric immediates and offsets in range, and labels defined twice or
shadowing a builtin symbol. A ``SourceLine`` is therefore well formed and
carries its encoding fields. ``layout`` only lays checked lines out,
resolves symbols (an undefined one is a ``LinkError``), checks that there
is at least one line and no more than program memory holds, and encodes
the image in one pack. ``assemble`` is ``parse_lines`` then ``layout``;
the rewriter's lines, already checked, go to ``layout`` directly, and
``render`` gives the text they parse back from.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

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
# auditor's graph, the machine's code: per-instruction closures and
# blocks) is built once and shared by every session of that program. Each
# such cache keeps the programs used last, up to this many.
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


class Instruction(NamedTuple):
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

@dataclass(slots=True)
class SourceLine:
    """One well-formed instruction with the labels attached to it, at line
    ``lineno`` of the text it is read from (or, for a rewritten line, of
    the text ``render`` gives).

    ``code`` holds its encoding fields ``(op, ra, rb, imm)``; where ``imm``
    comes from a symbol (a branch target or ``#label``) it holds the
    symbol's name, which only ``layout`` resolves.
    """

    labels: list[str]
    mnemonic: str
    args: list[str]
    lineno: int
    code: tuple[int, int, int, int | str]


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):\s*(.*)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MEM_RE = re.compile(r"^\[\s*(\w+)\s*(?:,\s*#(\w+)\s*)?\]$")

# branches to a symbol: mnemonic -> (opcode, ra)
_BRANCHES = {"b": (OP_B, 0), "bl": (OP_BL, 0)}
_BRANCHES.update({"b" + c: (OP_BCOND, cc) for c, cc in COND_NAMES.items()})

# operand counts of the mnemonics that take a fixed number
_ARITY = dict.fromkeys([*_BRANCHES, "blx", "bx", "push", "pop"], 1)
_ARITY.update(mov=2, cmp=2, nsc_call=0, halt=0)


def parse_lines(text: str) -> list[SourceLine]:
    """Parse assembly text into well-formed SourceLines; raises ParseError
    on any fault that can be found without a symbol's value."""
    lines: list[SourceLine] = []
    pending_labels: list[str] = []
    defined: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split(";", 1)[0].strip()
        while ":" in code:
            m = _LABEL_RE.match(code)
            if not m:
                break
            pending_labels.append(m.group(1))
            code = m.group(2).strip()
        if not code:
            continue
        for lab in pending_labels:
            if lab in defined or lab in BUILTIN_SYMBOLS:
                raise ParseError(lineno, f"duplicate label {lab!r}")
            defined.add(lab)
        parts = code.split(None, 1)
        mnemonic = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        args = [a.strip() for a in rest.split(",")] if rest.strip() else []
        lines.append(SourceLine(pending_labels, mnemonic, args, lineno,
                                _encode(mnemonic, args, lineno)))
        pending_labels = []
    if pending_labels:
        # trailing labels attach to nothing
        raise ParseError(len(text.splitlines()), "label at end of file has no instruction")
    return lines


def _encode(n: str, a: list[str], ln: int) -> tuple[int, int, int, int | str]:
    """The ``SourceLine.code`` of one instruction; raises ParseError."""
    k = _ARITY.get(n)
    if k is not None and len(a) != k:
        raise ParseError(ln, f"{n} expects {k} operand(s), got {len(a)}")
    if n == "mov" or n == "cmp":
        r = _parse_reg(a[0], ln)
        if a[1].startswith("#"):
            return (OP_MOV_IMM if n == "mov" else OP_CMP_RI), r, 0, _parse_imm(a[1], ln)
        return (OP_MOV_REG if n == "mov" else OP_CMP_RR), r, _parse_reg(a[1], ln), 0
    if n == "ldr" or n == "str":
        if len(a) < 2:
            raise ParseError(ln, "ldr expects rd, [rs(, #off)]" if n == "ldr"
                             else "str expects rs, [rb(, #off)]")
        r = _parse_reg(a[0], ln)
        return (OP_LDR if n == "ldr" else OP_STR), r, *_parse_mem(a[1:], ln)
    if n == "add" or n == "sub":
        if len(a) == 2:          # add rd, #imm  =>  add rd, rd, #imm
            a = [a[0], a[0], a[1]]
        if len(a) != 3:
            raise ParseError(ln, f"{n} expects 2 or 3 operands")
        rd, rs = _parse_reg(a[0], ln), _parse_reg(a[1], ln)
        if a[2].startswith("#"):
            return (OP_ADD_RI if n == "add" else OP_SUB_RI), rd, rs, _parse_imm(a[2], ln)
        return (OP_ADD_RR if n == "add" else OP_SUB_RR), rd, rs, _parse_reg(a[2], ln)
    if n in _BRANCHES:
        if not _NAME_RE.match(a[0]):
            raise ParseError(ln, f"bad branch target {a[0]!r}")
        return *_BRANCHES[n], 0, a[0]
    if n == "blx":
        return OP_BLX, _parse_reg(a[0], ln), 0, 0
    if n == "bx":
        if a[0].lower() != "lr":
            raise ParseError(ln, "only 'bx lr' is supported")
        return OP_BX_LR, 0, 0, 0
    if n == "push" or n == "pop":
        return (OP_PUSH if n == "push" else OP_POP), _parse_reg(a[0].strip("{}"), ln), 0, 0
    if n == "nsc_call":
        return OP_NSC_CALL, 0, 0, 0
    if n == "halt":
        return OP_HALT, 0, 0, 0
    raise ParseError(ln, f"unknown mnemonic {n!r}")


def _parse_reg(tok: str, line: int) -> int:
    r = REG_NAMES.get(tok.lower())
    if r is None:
        raise ParseError(line, f"expected register, got {tok!r}")
    return r


def _parse_imm(tok: str, line: int) -> int | str:
    """A ``#`` operand's value, or the name of the symbol it stands for."""
    body = tok[1:]
    if _NAME_RE.match(body):
        return body
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
    m = _MEM_RE.match(joined)
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


def assemble(text: str) -> Program:
    """Parse and lay out assembly text: ``layout(parse_lines(text))``."""
    return layout(parse_lines(text))


def layout(lines: list[SourceLine]) -> Program:
    """Lay checked lines out from ``PMEM_BASE``, resolve symbols and encode.
    Raises ParseError on a program with no instruction or past
    program-memory capacity, and LinkError on an undefined symbol. Entry
    point is the label ``main`` when defined, otherwise the first
    instruction."""
    if not lines:
        raise ParseError(0, "program has no instruction")
    size = len(lines) * INSTR_WIDTH
    if size > PMEM_CAPACITY:
        raise ParseError(lines[-1].lineno, "program exceeds program-memory capacity")
    line_addrs = list(range(PMEM_BASE, PMEM_BASE + size, INSTR_WIDTH))
    labels = {lab: addr for sl, addr in zip(lines, line_addrs) for lab in sl.labels}
    symbols = BUILTIN_SYMBOLS | labels

    instrs: list[Instruction] = []
    words: list[int] = []
    for sl in lines:
        op, ra, rb, imm = code = sl.code
        if imm.__class__ is str:
            if imm not in symbols:
                raise LinkError(imm)
            imm = symbols[imm]
            code = (op, ra, rb, imm)
        instrs.append(_new_instruction(Instruction, code))
        words.append(op << 24 | ra << 20 | rb << 16 | imm & 0xFFFF)
    image = struct.pack(f">{len(words)}I", *words)
    return Program(instrs, labels, line_addrs, labels.get("main", PMEM_BASE), image)


# builds an Instruction from a 4-tuple without the keyword handling of
# ``Instruction(...)``
_new_instruction = tuple.__new__


def render(lines: list[SourceLine]) -> str:
    """The text of checked lines, each label on a line of its own, that
    ``parse_lines`` reads back as the same lines when each ``lineno`` is
    the line it is rendered at."""
    rows: list[str] = []
    for sl in lines:
        rows += [f"{lab}:" for lab in sl.labels]
        rows.append(f"    {sl.mnemonic} {', '.join(sl.args)}".rstrip())
    return "\n".join(rows) + "\n"
