"""Static binary instrumentation: route every non-deterministic control
transfer through a secure-gateway trampoline.

Rewrites applied to the source program:

  * conditional branches: a ``bl trampoline_cond`` is inserted at both
    possible destinations (taken target and fall-through), so the gateway
    sees the destination in ``lr`` no matter which way the branch went;
  * ``bx lr``   becomes  ``b trampoline_ret``            (lr already holds the destination);
  * ``pop pc``  becomes  ``pop lr`` + ``b trampoline_ret``;
  * ``blx rx``  becomes  ``mov r10, rx`` + ``bl trampoline_icall``;
  * counted loops in canonical form get three instructions ahead of the
    header (taken destination into r10, limit into r11, ``bl
    trampoline_loop``) and keep their backward branch untouched; the loop
    exit is instrumented like any other not-taken destination.

r10/r11 are reserved for the gateway; prior uses are renamed to the
lowest-numbered free registers. Direct ``b``/``bl`` to a fixed label are
deterministic and stay untouched.

A counted loop is only treated as static when it matches the canonical
shape exactly (``mov ri, #0`` init, a single ``add ri, ri, #1`` in the
body, ``cmp ri, limit`` feeding a backward ``bne``/``blt``, no other
branches, labels, or limit writes inside). Anything ambiguous falls back
to plain conditional instrumentation, which is always safe.

The rewriter reads only lines ``isa.parse_lines`` has checked, so a
malformed line is rejected at its source line, as the assembler rejects
it, and is never rewritten. What it checks itself is the program's shape:
a conditional branch needs a fall-through and a program label to go to
(``UnsupportedPattern``), and r10/r11 need free registers to move to
(``RegisterPressure``). Symbols and capacity are checked when the
rewritten text is assembled.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from . import isa
from .isa import BRANCH_MNEMONICS, SourceLine, parse_lines

RESERVED = ("r10", "r11")

KIND_COND_TAKEN = "cond_taken"
KIND_COND_NOT_TAKEN = "cond_not_taken"
KIND_STATIC_LOOP = "static_loop"
KIND_INDIRECT_CALL = "indirect_call"
KIND_RETURN_BX_LR = "return_bx_lr"
KIND_RETURN_POP_PC = "return_pop_pc"

# the trampoline each kind of entry goes through
_TRAMPOLINE = {KIND_COND_TAKEN: "trampoline_cond", KIND_COND_NOT_TAKEN: "trampoline_cond",
               KIND_STATIC_LOOP: "trampoline_loop", KIND_INDIRECT_CALL: "trampoline_icall",
               KIND_RETURN_BX_LR: "trampoline_ret", KIND_RETURN_POP_PC: "trampoline_ret"}

class UnsupportedPattern(Exception):
    """Program shape the rewriter cannot instrument soundly."""


class RegisterPressure(Exception):
    """No free registers left to relocate r10/r11 uses."""


@dataclass(frozen=True)
class MapEntry:
    original_addr: int
    kind: str


@dataclass
class LoopDescriptor:
    branch_line: int        # index of the backward conditional
    header_line: int        # index of the loop header (taken destination)
    counter: int            # ri register number
    limit_reg: int | None   # rL register, None when the limit is immediate
    limit_imm: int | None


@dataclass
class InstrumentationMap:
    """Sidecar produced with the rewritten program.

    ``line_map`` gives, per source line, the address its instruction landed
    at in the rewritten image (insertions excluded); ``line_end`` the address
    just past its last rewritten instruction. ``cfaudit instrument --map``
    prints it; the verifier never reads it, it audits the rewritten image.
    """

    entries: list[MapEntry] = field(default_factory=list)
    renames: dict[str, str] = field(default_factory=dict)
    line_map: dict[int, int] = field(default_factory=dict)
    line_end: dict[int, int] = field(default_factory=dict)

    def to_text(self) -> str:
        out = ["[entries]"]
        for e in self.entries:
            out.append(f"{e.original_addr:#x} {e.kind} {_TRAMPOLINE[e.kind]}")
        out.append("[renames]")
        for old, new in sorted(self.renames.items()):
            out.append(f"{old} {new}")
        out.append("[line_map]")
        for idx in sorted(self.line_map):
            out.append(f"{idx} {self.line_map[idx]:#x} {self.line_end[idx]:#x}")
        return "\n".join(out) + "\n"


# --- register renaming ----------------------------------------------------

_REG_TOKEN = re.compile(r"\b(r\d+|sp|lr|pc)\b", re.IGNORECASE)

# branches whose one operand is the symbol ``code[3]`` names, never a
# register, however it is spelt
_TARGET_OPS = frozenset({isa.OP_B, isa.OP_BL, isa.OP_BCOND})


def _registers_used(lines: list[SourceLine]) -> set[str]:
    used = set()
    for sl in lines:
        if sl.code[0] in _TARGET_OPS:
            continue
        for arg in sl.args:
            if arg.startswith("#"):
                continue
            for tok in _REG_TOKEN.findall(arg):
                used.add(tok.lower())
    return used


def plan_renames(lines: list[SourceLine]) -> dict[str, str]:
    used = _registers_used(lines)
    renames: dict[str, str] = {}
    pool = [f"r{i}" for i in range(10)] + ["r12"]
    for reserved in RESERVED:
        if reserved in used:
            free = [r for r in pool if r not in used and r not in renames.values()]
            if not free:
                raise RegisterPressure(f"no free register to relocate {reserved}")
            renames[reserved] = free[0]
    return renames


# --- structural helpers ----------------------------------------------------

# opcodes whose ``ra`` is the register they write
_WRITES_RA = frozenset({isa.OP_MOV_IMM, isa.OP_MOV_REG, isa.OP_LDR, isa.OP_ADD_RI,
                        isa.OP_ADD_RR, isa.OP_SUB_RI, isa.OP_SUB_RR, isa.OP_POP})


def _writes_reg(sl: SourceLine) -> int | None:
    """Register a data instruction writes."""
    return sl.code[1] if sl.code[0] in _WRITES_RA else None


def _is_pop_pc(sl: SourceLine) -> bool:
    return sl.code[0] == isa.OP_POP and sl.code[1] == isa.PC


def _is_branch(sl: SourceLine) -> bool:
    return sl.mnemonic in BRANCH_MNEMONICS or sl.mnemonic == "halt" or _is_pop_pc(sl)


def _label_lines(lines: list[SourceLine]) -> dict[str, int]:
    out = {}
    for i, sl in enumerate(lines):
        for lab in sl.labels:
            out[lab] = i
    return out


def detect_static_loops(lines: list[SourceLine]) -> list[LoopDescriptor]:
    """Find canonical counted loops eligible for single-record logging."""
    labels = _label_lines(lines)
    # lines naming each symbol, as a branch target or a ``#label`` operand
    mentions = Counter(sl.code[3] for sl in lines if isinstance(sl.code[3], str))
    loops: list[LoopDescriptor] = []
    for i, sl in enumerate(lines):
        if sl.mnemonic not in ("bne", "blt"):
            continue
        h = labels.get(sl.args[0])
        if h is None or h >= i or i < 2:
            continue
        # the header may only be entered by fall-in and this one branch: no
        # other reference to any of its labels, and it is not the entry
        header_labels = lines[h].labels
        if "main" in header_labels or sum(mentions[lab] for lab in header_labels) != 1:
            continue
        op, counter, limit_reg, limit_imm = lines[i - 1].code
        if op == isa.OP_CMP_RI:
            if isinstance(limit_imm, str):
                continue
            if limit_imm == 0 and sl.mnemonic == "bne":
                continue            # the counter wraps: ~2**32 passes, not 0
            limit_reg = None
        elif op == isa.OP_CMP_RR and limit_reg != counter:
            limit_imm = None
        else:
            continue
        # body checks: lines h .. i-1, no branches, no labels past the
        # header, exactly one canonical counter increment, limit untouched
        body = lines[h:i]
        if any(_is_branch(b) for b in body):
            continue
        if any(b.labels for b in body[1:]) or sl.labels:
            continue
        increments = [b for b in body if _writes_reg(b) == counter]
        if len(increments) != 1 or increments[0].code != (isa.OP_ADD_RI, counter, counter, 1):
            continue
        if limit_reg is not None and any(_writes_reg(b) == limit_reg for b in body):
            continue
        # dominating init: nearest preceding write to the counter must be
        # ``mov ri, #0`` reached by straight-line flow
        init = None
        j = h - 1
        while j >= 0:
            w = _writes_reg(lines[j])
            if w == counter:
                if lines[j].code == (isa.OP_MOV_IMM, counter, 0, 0):
                    init = j
                break
            if _is_branch(lines[j]) or (limit_reg is not None and w == limit_reg):
                break
            if j != h - 1 and lines[j].labels:
                break
            j -= 1
        if init is None:
            continue
        if any(lines[k].labels for k in range(init + 1, h)):
            continue
        loops.append(LoopDescriptor(i, h, counter, limit_reg, limit_imm))
    return loops


# --- rewriting -------------------------------------------------------------

def instrument(asm_text: str) -> tuple[str, InstrumentationMap]:
    """Rewrite a program for gateway-mediated control-flow logging.

    Returns the rewritten assembly text and the sidecar map. The lines are
    checked when they are parsed, so a malformed line is rejected at its
    source line; the text is not assembled here, so a program with an
    undefined label or too many instructions is rejected when it is.
    """
    lines = parse_lines(asm_text)
    renames = plan_renames(lines)
    # renaming moves r10/r11 to registers the program never names, so the
    # loops found before it are the loops found after it
    loops = detect_static_loops(lines)

    # site scan: the lines that gain a ``bl trampoline_cond``
    labels = _label_lines(lines)
    headers = {lp.header_line: lp for lp in loops}
    loop_branches = {lp.branch_line for lp in loops}
    cond_sites: set[int] = set()
    for i, sl in enumerate(lines):
        if sl.code[0] != isa.OP_BCOND:
            continue
        if i + 1 == len(lines):
            raise UnsupportedPattern(f"line {sl.lineno}: conditional branch has no fall-through")
        if i not in loop_branches:
            t = labels.get(sl.args[0])
            if t is None:
                raise UnsupportedPattern(
                    f"line {sl.lineno}: conditional target {sl.args[0]!r} is not a program label")
            cond_sites.add(t)
        cond_sites.add(i + 1)

    def rename(arg: str) -> str:
        if arg.startswith("#"):
            return arg
        return _REG_TOKEN.sub(lambda m: renames.get(m.group(1).lower(), m.group(1)), arg)

    # emit scan: each line as rewritten, with its map entries and addresses
    imap = InstrumentationMap(renames=renames)
    rows: list[str] = []
    addr = isa.PMEM_BASE            # of the next instruction in the rewritten image
    for i, sl in enumerate(lines):
        lp = headers.get(i)
        if lp is not None:
            limit = f"#{lp.limit_imm}" if lp.limit_reg is None \
                else rename(isa.REG_REPR[lp.limit_reg])
            rows += [f"    mov r10, #{sl.labels[0]}", f"    mov r11, {limit}",
                     "    bl trampoline_loop"]
            addr += 3 * isa.INSTR_WIDTH
        # the site label moves to the inserted call so branches land on it
        rows += [f"{lab}:" for lab in sl.labels]
        if i in cond_sites:
            rows.append("    bl trampoline_cond")
            addr += isa.INSTR_WIDTH
        origin = isa.PMEM_BASE + i * isa.INSTR_WIDTH
        op = sl.code[0]
        args = [rename(a) for a in sl.args] if renames and op not in _TARGET_OPS \
            else sl.args
        if op == isa.OP_BLX:
            imap.entries.append(MapEntry(origin, KIND_INDIRECT_CALL))
            body = [f"    mov r10, {args[0]}", "    bl trampoline_icall"]
        elif op == isa.OP_BX_LR:
            imap.entries.append(MapEntry(origin, KIND_RETURN_BX_LR))
            body = ["    b trampoline_ret"]
        elif _is_pop_pc(sl):
            imap.entries.append(MapEntry(origin, KIND_RETURN_POP_PC))
            body = ["    pop lr", "    b trampoline_ret"]
        else:
            body = [f"    {sl.mnemonic} {', '.join(args)}".rstrip()]
            if op == isa.OP_BCOND:
                imap.entries += [MapEntry(origin, KIND_STATIC_LOOP if i in loop_branches
                                          else KIND_COND_TAKEN),
                                 MapEntry(origin, KIND_COND_NOT_TAKEN)]
        rows += body
        imap.line_map[i] = addr
        addr += len(body) * isa.INSTR_WIDTH
        imap.line_end[i] = addr
    return "\n".join(rows) + "\n", imap
