"""Toy 32-bit ISA: memory map, fixed-width instruction encoding, and a two-pass assembler.

Every instruction occupies exactly 4 bytes (big-endian word):

    byte 0   opcode
    byte 1   ra << 4 | rb        (register fields, 0..15)
    bytes 2-3  16-bit immediate / branch target / third register

All memory regions sit below 2**31 so any code address fits the 31-bit
payload of an audit-log entry.

The facts of the instruction set have one home, ``OPS``: a row per opcode
with its mnemonic, operand form, the code fields that name registers, the
registers it writes (``sp`` for ``push`` and ``pop`` and ``lr`` for ``bl``
and ``blx`` besides) and its control class. The parser, the decoder, the
rewriter, the machine and the auditor's graph read them there; what each
opcode does is the machine's alone (``vm._translate``).

Assembly syntax is read in one place, ``parse_lines``. It looks each
mnemonic's row up once and checks every line on its own, by its form: the
operand count, register names, numeric immediates and offsets in range,
and labels defined twice or shadowing a builtin symbol. A register operand
may be pc only in ``pop pc``, the one write to pc the model runs as a
branch, and ``decode`` refuses any other word that names pc. A
``SourceLine`` is therefore well formed and carries its encoding fields.
``layout`` only resolves the symbols of placed words (an undefined one is
a ``LinkError``), checks that there is at least one word and no more than
program memory holds, and encodes the image in one pack. ``assemble`` is
``parse_lines``, ``place`` and ``layout``; the rewriter places its words
itself, and ``render`` gives the text they parse back from.
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

# A program's deployment (the auditor's graph of its rewritten image, the
# machine's closures and blocks) is built once and shared by every session
# of it: ``scenario.deploy`` keeps those of this many programs used last,
# and the text path, ``verifier._golden_cfg``, as many rewritten texts' graphs.
IMAGE_CACHE_SIZE = 16

# --- registers ----------------------------------------------------------

SP = 13
LR = 14
PC = 15

REG_NAMES = {f"r{i}": i for i in range(13)}
REG_NAMES.update(sp=SP, lr=LR, pc=PC)
REG_REPR = {v: k for k, v in REG_NAMES.items()}
_REGS = {name: r for name, r in REG_NAMES.items() if r != PC}     # read by ``_encode`` itself

# --- the instruction set: one row per opcode ----------------------------

# Condition codes for bcond, derived from the flags a preceding cmp set.
COND_EQ, COND_NE, COND_LT, COND_GE, COND_GT, COND_LE = range(6)
COND_NAMES = {"eq": COND_EQ, "ne": COND_NE, "lt": COND_LT,
              "ge": COND_GE, "gt": COND_GT, "le": COND_LE}
COND_REPR = {v: k for k, v in COND_NAMES.items()}

# Operand forms, as in ``halt``, ``push r1``, ``add r1, r2, r3`` or ``add
# r1, r2, #3``, ``ldr r1, [r2, #4]``, ``bl f`` and ``bx lr``.
FORM_NONE, FORM_REG, FORM_REG_OR_IMM = "none", "register", "register-or-immediate"
FORM_MEM, FORM_LABEL, FORM_LR = "memory", "label", "lr"

# Control classes, by where control goes next: the next word; a fixed
# address; either, by the flags; a fixed address or a register's value,
# with the next word in lr; lr's value; the popped word, when the register
# popped is pc; the Secure World, by the protected return; nowhere.
CTL_NONE, CTL_JUMP, CTL_COND = "none", "jump", "cond"
CTL_CALL, CTL_ICALL, CTL_RETURN, CTL_POP_PC = "call", "icall", "return", "pop-pc"
CTL_EXIT, CTL_HALT = "exit", "halt"

RA = -1     # in ``Op.writes``: the register that field ra names


class Op(NamedTuple):
    """An opcode's row: its facts, which every module reads here."""

    op: int
    mnemonic: str               # a conditional branch's, followed by its condition
    form: str                   # a ``FORM_*``
    regs: tuple[int, ...]       # the fields of ``(op, ra, rb, imm)`` that name a register
    writes: tuple[int, ...]     # the registers written: ``RA`` first, then implicit ones
    control: str                # a ``CTL_*``; see ``control`` for a pop


# Each opcode is defined in its row. OP_ILLEGAL has none: the machine
# decodes every ill-formed word to it.
OP_ILLEGAL = 0x00
_ROWS = (
    Op(OP_MOV_IMM := 0x01, "mov", FORM_REG_OR_IMM, (1,), (RA,), CTL_NONE),
    Op(OP_MOV_REG := 0x02, "mov", FORM_REG_OR_IMM, (1, 2), (RA,), CTL_NONE),
    Op(OP_LDR := 0x03, "ldr", FORM_MEM, (1, 2), (RA,), CTL_NONE),
    Op(OP_STR := 0x04, "str", FORM_MEM, (1, 2), (), CTL_NONE),
    Op(OP_ADD_RI := 0x05, "add", FORM_REG_OR_IMM, (1, 2), (RA,), CTL_NONE),
    Op(OP_ADD_RR := 0x06, "add", FORM_REG_OR_IMM, (1, 2, 3), (RA,), CTL_NONE),
    Op(OP_SUB_RI := 0x07, "sub", FORM_REG_OR_IMM, (1, 2), (RA,), CTL_NONE),
    Op(OP_SUB_RR := 0x08, "sub", FORM_REG_OR_IMM, (1, 2, 3), (RA,), CTL_NONE),
    Op(OP_CMP_RI := 0x09, "cmp", FORM_REG_OR_IMM, (1,), (), CTL_NONE),
    Op(OP_CMP_RR := 0x0A, "cmp", FORM_REG_OR_IMM, (1, 2), (), CTL_NONE),
    Op(OP_B := 0x0B, "b", FORM_LABEL, (), (), CTL_JUMP),
    Op(OP_BCOND := 0x0C, "b", FORM_LABEL, (), (), CTL_COND),     # ra holds the condition
    Op(OP_BL := 0x0D, "bl", FORM_LABEL, (), (LR,), CTL_CALL),
    Op(OP_BLX := 0x0E, "blx", FORM_REG, (1,), (LR,), CTL_ICALL),
    Op(OP_BX_LR := 0x0F, "bx", FORM_LR, (), (), CTL_RETURN),
    Op(OP_PUSH := 0x10, "push", FORM_REG, (1,), (SP,), CTL_NONE),
    Op(OP_POP := 0x11, "pop", FORM_REG, (1,), (RA, SP), CTL_POP_PC),
    Op(OP_NSC_CALL := 0x12, "nsc_call", FORM_NONE, (), (), CTL_EXIT),
    Op(OP_HALT := 0x13, "halt", FORM_NONE, (), (), CTL_HALT),
)
OPS = {row.op: row for row in _ROWS}


def control(code: tuple) -> str | None:
    """The control class of the instruction with fields ``code``: its row's,
    but a pop transfers control only into pc; None for an opcode with no row."""
    row = OPS.get(code[0])
    if row is None:
        return None
    c = row.control
    return CTL_NONE if c == CTL_POP_PC and code[1] != PC else c


def written(code: tuple) -> tuple[int, ...]:
    """The registers the instruction with fields ``code`` writes."""
    w = OPS[code[0]].writes
    return (code[1],) + w[1:] if RA in w else w


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
    """Decode 4 bytes; None when the word is not a well-formed instruction:
    no row, no condition for a ``bcond``, or a register field (``imm``'s
    included) past lr, but for the pc a ``pop`` may name."""
    op, regs, imm = struct.unpack(">BBH", word)
    row = OPS.get(op)
    if row is None:
        return None
    code = op, regs >> 4, regs & 0x0F, imm
    if row.control == CTL_COND and code[1] not in COND_REPR \
            or op != OP_POP and any(code[k] >= PC for k in row.regs):
        return None
    return Instruction(*code)


# --- source representation ----------------------------------------------

@dataclass(slots=True)
class SourceLine:
    """One well-formed instruction with the labels attached to it, at line
    ``lineno`` of the text it is read from.

    ``code`` holds its encoding fields ``(op, ra, rb, imm)``; where ``imm``
    comes from a symbol (a branch target or ``#label``) it holds the
    symbol's name, which only ``layout`` resolves.
    """

    labels: list[str]
    mnemonic: str
    args: list[str]
    lineno: int
    code: tuple[int, int, int, int | str]


_MEM_RE = re.compile(r"^\[\s*(\w+)\s*(?:,\s*#(\w+)\s*)?\]$")


def _syntax() -> dict[str, tuple[str, int, int, int, int]]:
    """mnemonic -> (form, operand count, opcode, its immediate form's
    opcode, the ``ra`` it fixes). Operands name the register fields in
    order; a register-or-immediate pair shares a mnemonic, and its register
    form names one register more."""
    out: dict[str, tuple[str, int, int, int, int]] = {}
    for row in sorted(OPS.values(), key=lambda r: len(r.regs)):     # immediate forms first
        k = len(row.regs) + (row.form == FORM_LABEL or row.form == FORM_LR)
        if row.control == CTL_COND:
            out.update({row.mnemonic + c: (row.form, k, row.op, 0, cc)
                        for c, cc in COND_NAMES.items()})
        else:
            imm = out[row.mnemonic][2] if row.mnemonic in out else 0
            out[row.mnemonic] = (row.form, k, row.op, imm, 0)
    return out


_SYNTAX = _syntax()


def parse_lines(text: str) -> list[SourceLine]:
    """Parse assembly text into well-formed SourceLines; raises ParseError
    on any fault that can be found without a symbol's value."""
    lines: list[SourceLine] = []
    pending_labels: list[str] = []
    defined: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = (raw[:raw.index(";")] if ";" in raw else raw).strip()
        while ":" in code:
            name, _, rest = code.partition(":")
            if not (name.isidentifier() and name.isascii()):
                break
            pending_labels.append(name)
            code = rest.strip()
        if not code:
            continue
        for lab in pending_labels:
            if lab in defined or lab in BUILTIN_SYMBOLS:
                raise ParseError(lineno, f"duplicate label {lab!r}")
            defined.add(lab)
        parts = code.split(None, 1)
        mnemonic = parts[0].lower()
        args = parts[1].split(",") if len(parts) > 1 else []
        if len(args) > 1:               # a lone operand has no space around it
            args = [a.strip() for a in args]
        lines.append(SourceLine(pending_labels, mnemonic, args, lineno,
                                _encode(mnemonic, args, lineno)))
        pending_labels = []
    if pending_labels:
        # trailing labels attach to nothing
        raise ParseError(len(text.splitlines()), "label at end of file has no instruction")
    return lines


def _encode(n: str, a: list[str], ln: int) -> tuple[int, int, int, int | str]:
    """The ``SourceLine.code`` of one instruction, parsed by the form of its
    mnemonic's row; raises ParseError."""
    syntax = _SYNTAX.get(n)
    if syntax is None:
        raise ParseError(ln, f"unknown mnemonic {n!r}")
    form, k, op, imm_op, ra = syntax
    if form == FORM_REG_OR_IMM:
        if len(a) == 2 < k:             # add rd, #imm  =>  add rd, rd, #imm
            a = [a[0], *a]
        elif len(a) != k:
            raise ParseError(ln, f"{n} expects 2 or 3 operands" if k == 3
                             else f"{n} expects {k} operand(s), got {len(a)}")
        rd, rs, last = _REGS.get(a[0]), _REGS.get(a[1]) if k == 3 else 0, a[-1]
        if rd is None or rs is None:
            rd, rs = _parse_reg(a[0], ln), _parse_reg(a[1], ln) if k == 3 else 0
        if last[:1] == "#":
            return imm_op, rd, rs, _parse_imm(last, ln)
        if (rt := _REGS.get(last)) is None:
            rt = _parse_reg(last, ln)
        return (op, rd, rs, rt) if k == 3 else (op, rd, rt, 0)
    if form == FORM_MEM:
        if len(a) < 2:
            raise ParseError(ln, f"{n} expects {'rd, [rs' if OPS[op].writes else 'rs, [rb'}(, #off)]")
        return op, _parse_reg(a[0], ln), *_parse_mem(a[1:], ln)
    if len(a) != k:
        raise ParseError(ln, f"{n} expects {k} operand(s), got {len(a)}")
    if form == FORM_LABEL:
        if not (a[0].isidentifier() and a[0].isascii()):
            raise ParseError(ln, f"bad branch target {a[0]!r}")
        return op, ra, 0, a[0]
    if form == FORM_REG:
        return op, _parse_reg(a[0].strip("{}"), ln, op == OP_POP), 0, 0
    if form == FORM_LR and a[0].lower() != "lr":
        raise ParseError(ln, f"only '{n} lr' is supported")
    return op, 0, 0, 0


def _parse_reg(tok: str, line: int, pc_ok: bool = False) -> int:
    """The register ``tok`` names; pc only where ``pc_ok`` (``pop``'s operand)."""
    r = REG_NAMES.get(tok)
    if r is None:
        r = REG_NAMES.get(tok.lower())
        if r is None:
            raise ParseError(line, f"expected register, got {tok!r}")
    if r == PC and not pc_ok:
        raise ParseError(line, "only 'pop pc' may name pc")
    return r


def _parse_imm(tok: str, line: int) -> int | str:
    """A ``#`` operand's value, or the name of the symbol it stands for."""
    body = tok[1:]
    if body.isidentifier() and body.isascii():      # a name starts with no digit
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
    entry: int
    image: bytes = field(repr=False, default=b"")

    def line_at_addr(self, addr: int) -> int | None:
        off = addr - PMEM_BASE
        if off % INSTR_WIDTH or not 0 <= off < len(self.image):
            return None
        return off // INSTR_WIDTH


def place(lines: list[SourceLine]) -> tuple:
    """Checked lines placed as they stand, a word each, as ``layout`` takes them."""
    labels = {lab: PMEM_BASE + i * INSTR_WIDTH for i, sl in enumerate(lines) for lab in sl.labels}
    return [sl.code for sl in lines], labels, lines[-1].lineno if lines else 0


def assemble(text: str) -> Program:
    """Parse, place and lay out assembly text."""
    return layout(place(parse_lines(text)))


def layout(placed: tuple) -> Program:
    """Resolve the symbols of words placed from ``PMEM_BASE`` and encode
    them, in one pass. ``placed`` is their fields (``imm`` a symbol's name
    where it is one), each label's address and the last word's line.
    Raises ParseError on a program with no instruction or past
    program-memory capacity, and LinkError on an undefined symbol. Entry
    point is the label ``main`` when defined, otherwise the first
    instruction."""
    codes, labels, last_line = placed
    if not codes:
        raise ParseError(0, "program has no instruction")
    size = len(codes) * INSTR_WIDTH
    if size > PMEM_CAPACITY:
        raise ParseError(last_line, "program exceeds program-memory capacity")
    symbols = BUILTIN_SYMBOLS | labels
    instrs: list[Instruction] = []
    words: list[int] = []
    for op, ra, rb, imm in codes:
        if imm.__class__ is str:
            if imm not in symbols:
                raise LinkError(imm)
            imm = symbols[imm]
        instrs.append(_new_instruction(Instruction, (op, ra, rb, imm)))
        words.append(op << 24 | ra << 20 | rb << 16 | imm & 0xFFFF)
    image = struct.pack(f">{len(words)}I", *words)
    return Program(instrs, labels, labels.get("main", PMEM_BASE), image)


# builds an Instruction from a 4-tuple without the keyword handling of
# ``Instruction(...)``
_new_instruction = tuple.__new__


def render(rows) -> str:
    """The text of rows of labels, mnemonic and operands, each label on a
    line of its own, that ``parse_lines`` reads back as lines with those
    fields."""
    out: list[str] = []
    for labels, mnemonic, args in rows:
        out += [f"{lab}:" for lab in labels]
        out.append(f"    {mnemonic} {', '.join(args)}".rstrip())
    return "\n".join(out) + "\n"
