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
a conditional branch needs a fall-through and a program label to go to,
and r10/r11 need free registers to move to (``RegisterPressure``, an
``UnsupportedPattern`` like the first two).

It writes no text. ``rewrite`` emits the rewritten program as checked
lines: each is a source line as parsed, with r10/r11 renamed in its
register fields and operands, or one of the fixed gateway lines, and each
carries the number of the line ``isa.render`` puts it at. ``isa.layout``
lays them out as they are, and checks symbols and capacity there;
``instrument`` renders them for output.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from . import isa
from .isa import (CTL_COND, CTL_ICALL, CTL_NONE, CTL_POP_PC, CTL_RETURN, OPS,
                  SourceLine, control, written)

RESERVED = (10, 11)             # r10 and r11, the gateway's registers

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


class RegisterPressure(UnsupportedPattern):
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

def _renamed(code: tuple, regs: dict[int, int]) -> tuple:
    """``code`` with each register field moved as ``regs`` says."""
    fields = OPS[code[0]].regs
    return tuple(regs.get(f, f) if k in fields else f for k, f in enumerate(code))


def plan_renames(lines: list[SourceLine]) -> dict[str, str]:
    """Where r10 and r11 move: each that the program names goes to the
    lowest free one of r0-r9 and r12. Reads the register fields."""
    used = {sl.code[k] for sl in lines for k in OPS[sl.code[0]].regs}
    free = [r for r in (*range(10), 12) if r not in used]
    renames: dict[str, str] = {}
    for reserved in RESERVED:
        if reserved in used:
            if not free:
                raise RegisterPressure(f"no free register to relocate r{reserved}")
            renames[f"r{reserved}"] = f"r{free.pop(0)}"
    return renames


# --- structural helpers ----------------------------------------------------

def _label_lines(lines: list[SourceLine]) -> dict[str, int]:
    return {lab: i for i, sl in enumerate(lines) for lab in sl.labels}


def detect_static_loops(lines: list[SourceLine]) -> list[LoopDescriptor]:
    """Find canonical counted loops eligible for single-record logging."""
    return _static_loops(lines, _label_lines(lines), [control(sl.code) for sl in lines])


def _static_loops(lines: list[SourceLine], labels: dict[str, int],
                  ctls: list[str]) -> list[LoopDescriptor]:
    """``detect_static_loops``, given the line of each label and the control
    class of each line."""
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
        if any(c != CTL_NONE for c in ctls[h:i]):
            continue
        if any(b.labels for b in body[1:]) or sl.labels:
            continue
        increments = [b for b in body if counter in written(b.code)]
        if len(increments) != 1 or increments[0].code != (isa.OP_ADD_RI, counter, counter, 1):
            continue
        if limit_reg is not None and any(limit_reg in written(b.code) for b in body):
            continue
        # dominating init: nearest preceding write to the counter must be
        # ``mov ri, #0`` reached by straight-line flow
        init = None
        j = h - 1
        while j >= 0:
            w = written(lines[j].code)
            if counter in w:
                if lines[j].code == (isa.OP_MOV_IMM, counter, 0, 0):
                    init = j
                break
            if ctls[j] != CTL_NONE or limit_reg in w:
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

def rewrite(asm_text: str) -> tuple[list[SourceLine], InstrumentationMap]:
    """Rewrite a program for gateway-mediated control-flow logging.

    Returns the rewritten program as checked lines, ready for
    ``isa.layout``, and the sidecar map. The source is read once, by
    ``isa.parse_lines``, so a malformed line is rejected at its source
    line; the lines are not laid out here, so a program with an undefined
    label, too many instructions or none is rejected when they are.
    """
    lines = isa.parse_lines(asm_text)
    renames = plan_renames(lines)
    regs = {int(old[1:]): int(new[1:]) for old, new in renames.items()}
    # renaming moves r10/r11 to registers the program never names, so the
    # loops found before it are the loops found after it
    labels, ctls = _label_lines(lines), [control(sl.code) for sl in lines]
    loops = _static_loops(lines, labels, ctls)

    # site scan: the lines that gain a ``bl trampoline_cond``
    headers = {lp.header_line: lp for lp in loops}
    loop_branches = {lp.branch_line for lp in loops}
    cond_sites: set[int] = set()
    for i, sl in enumerate(lines):
        if ctls[i] != CTL_COND:
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
    entries, line_map, line_end = imap.entries, imap.line_map, imap.line_end
    base, width = isa.PMEM_BASE, isa.INSTR_WIDTH
    out: list[SourceLine] = []
    row = 0                         # rendered lines so far, labels included

    def emit(labels: list[str], mnemonic: str, args: list[str], code: tuple) -> None:
        nonlocal row
        row += len(labels) + 1
        out.append(SourceLine(labels, mnemonic, args, row, code))

    for i, sl in enumerate(lines):
        lp = headers.get(i)
        if lp is not None:
            header = sl.labels[0]
            emit([], "mov", ["r10", f"#{header}"], (isa.OP_MOV_IMM, 10, 0, header))
            if lp.limit_reg is None:
                emit([], "mov", ["r11", f"#{lp.limit_imm}"], (isa.OP_MOV_IMM, 11, 0, lp.limit_imm))
            else:
                limit = regs.get(lp.limit_reg, lp.limit_reg)
                emit([], "mov", ["r11", isa.REG_REPR[limit]], (isa.OP_MOV_REG, 11, limit, 0))
            emit([], "bl", ["trampoline_loop"], _CALL_LOOP)
        # the site label moves to the inserted call so branches land on it
        site_labels = sl.labels
        if i in cond_sites:
            emit(site_labels, "bl", ["trampoline_cond"], _CALL_COND)
            site_labels = []
        origin = base + i * width
        args, code, ctl = sl.args, sl.code, ctls[i]
        if regs and OPS[code[0]].regs:        # a label operand is never renamed
            args = [rename(a) for a in args]
            code = _renamed(code, regs)
        line_map[i] = base + len(out) * width
        if ctl == CTL_ICALL:
            entries.append(MapEntry(origin, KIND_INDIRECT_CALL))
            emit(site_labels, "mov", ["r10", args[0]], (isa.OP_MOV_REG, 10, code[1], 0))
            emit([], "bl", ["trampoline_icall"], _CALL_ICALL)
        elif ctl == CTL_RETURN:
            entries.append(MapEntry(origin, KIND_RETURN_BX_LR))
            emit(site_labels, "b", ["trampoline_ret"], _JUMP_RET)
        elif ctl == CTL_POP_PC:
            entries.append(MapEntry(origin, KIND_RETURN_POP_PC))
            emit(site_labels, "pop", ["lr"], (isa.OP_POP, isa.LR, 0, 0))
            emit([], "b", ["trampoline_ret"], _JUMP_RET)
        else:
            emit(site_labels, sl.mnemonic, args, code)
            if ctl == CTL_COND:
                entries += [MapEntry(origin, KIND_STATIC_LOOP if i in loop_branches
                                     else KIND_COND_TAKEN),
                            MapEntry(origin, KIND_COND_NOT_TAKEN)]
        line_end[i] = base + len(out) * width
    return out, imap


# the gateway calls, as ``isa.parse_lines`` encodes them
_CALL_COND = (isa.OP_BL, 0, 0, "trampoline_cond")
_CALL_ICALL = (isa.OP_BL, 0, 0, "trampoline_icall")
_CALL_LOOP = (isa.OP_BL, 0, 0, "trampoline_loop")
_JUMP_RET = (isa.OP_B, 0, 0, "trampoline_ret")


def instrument(asm_text: str) -> tuple[str, InstrumentationMap]:
    """``rewrite``, with the lines rendered as assembly text."""
    lines, imap = rewrite(asm_text)
    return isa.render(lines), imap
