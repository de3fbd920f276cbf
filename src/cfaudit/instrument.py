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

It writes no text. ``rewrite`` scans the checked lines once for their
sites and once to emit their words: each is a source line's fields as
parsed, with r10/r11 renamed, or one of the fixed gateway lines, placed at
its address, with each label's address recorded as it goes. ``isa.layout``
resolves and packs the placed words, and checks symbols and capacity
there; ``rendered`` renders the same words and maps the source lines to
them.
"""

from __future__ import annotations

import re
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


def _rename(arg: str, renames: dict[str, str]) -> str:
    """A register operand's text with r10/r11 moved as ``renames`` says."""
    if not renames or arg.startswith("#"):
        return arg
    return _REG_TOKEN.sub(lambda m: renames.get(m.group(1).lower(), m.group(1)), arg)


def _renames(used: set[int]) -> dict[str, str]:
    """Where r10 and r11 move: each in ``used`` to the lowest free of r0-r9 and r12."""
    free = [r for r in (*range(10), 12) if r not in used]
    renames: dict[str, str] = {}
    for reserved in RESERVED:
        if reserved in used:
            if not free:
                raise RegisterPressure(f"no free register to relocate r{reserved}")
            renames[f"r{reserved}"] = f"r{free.pop(0)}"
    return renames


# --- structural helpers ----------------------------------------------------

def _scan(lines: list[SourceLine]) -> tuple:
    """The site scan: each label's line, each line's control class, the
    registers named, the lines naming each symbol, the conditional branches'
    lines, and the (branch, header) lines of each ``bne``/``blt`` back."""
    labels, ctls, used, mentions, conds, candidates = {}, [], set(), {}, [], []
    for i, sl in enumerate(lines):
        for lab in sl.labels:
            labels[lab] = i
        code = sl.code
        for k in OPS[code[0]].regs:
            used.add(code[k])
        if (target := code[3]).__class__ is str:
            mentions[target] = mentions.get(target, 0) + 1
        ctls.append(ctl := control(code))
        if ctl == CTL_COND:
            conds.append(i)
            h = labels.get(target)
            if h is not None and h < i and code[1] in (isa.COND_NE, isa.COND_LT):
                candidates.append((i, h))
    return labels, ctls, used, mentions, conds, candidates


def detect_static_loops(lines: list[SourceLine]) -> list[LoopDescriptor]:
    """Find canonical counted loops eligible for single-record logging."""
    return _static_loops(lines, _scan(lines))


def _static_loops(lines: list[SourceLine], scan: tuple) -> list[LoopDescriptor]:
    """``detect_static_loops``, over the candidates of the site scan."""
    _, ctls, _, mentions, _, candidates = scan
    loops: list[LoopDescriptor] = []
    for i, h in candidates:
        # the header may only be entered by fall-in and this one branch: no
        # other reference to any of its labels, and it is not the entry
        header_labels = lines[h].labels
        if "main" in header_labels or sum(mentions.get(lab, 0) for lab in header_labels) != 1:
            continue
        op, counter, limit_reg, limit_imm = lines[i - 1].code
        if op == isa.OP_CMP_RI:
            if isinstance(limit_imm, str):
                continue
            if limit_imm == 0 and lines[i].code[1] == isa.COND_NE:
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
        if any(b.labels for b in body[1:]) or lines[i].labels:
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

def rewrite(asm_text: str) -> tuple:
    """Rewrite a program for gateway-mediated control-flow logging.

    Returns the words as ``isa.layout`` takes them, then what ``rendered``
    renders and maps them from: each word's source line or text, each source
    line's words by index with its map entries' kinds, and the renames.
    ``isa.parse_lines`` rejects a malformed line, ``isa.layout`` the rest.
    """
    lines = isa.parse_lines(asm_text)
    scan = _scan(lines)
    labels, ctls, used, _, conds, _ = scan
    renames = _renames(used)
    regs = {int(old[1:]): int(new[1:]) for old, new in renames.items()}
    # renaming moves r10/r11 to registers the program never names, so the
    # loops found before it are the loops found after it
    loops = _static_loops(lines, scan)
    headers = {lp.header_line: lp for lp in loops}
    loop_branches = {lp.branch_line for lp in loops}

    # the lines that gain a ``bl trampoline_cond``
    cond_sites: set[int] = set()
    for i in conds:
        sl = lines[i]
        if i + 1 == len(lines):
            raise UnsupportedPattern(f"line {sl.lineno}: conditional branch has no fall-through")
        if i not in loop_branches:
            t = labels.get(sl.args[0])
            if t is None:
                raise UnsupportedPattern(
                    f"line {sl.lineno}: conditional target {sl.args[0]!r} is not a program label")
            cond_sites.add(t)
        cond_sites.add(i + 1)

    # emit scan: each word with its text, each label's address, each line's words
    codes, texts, spans, addrs = [], [], [], {}
    base, width = isa.PMEM_BASE, isa.INSTR_WIDTH
    for i, sl in enumerate(lines):
        if i in headers:
            lp, header = headers[i], sl.labels[0]
            limit = regs.get(lp.limit_reg, lp.limit_reg)
            codes += ((isa.OP_MOV_IMM, 10, 0, header), (isa.OP_MOV_IMM, 11, 0, lp.limit_imm)
                      if limit is None else (isa.OP_MOV_REG, 11, limit, 0),
                      (isa.OP_BL, 0, 0, "trampoline_loop"))
            texts += (("mov", ("r10", f"#{header}")), ("mov", ("r11", f"#{lp.limit_imm}"
                      if limit is None else isa.REG_REPR[limit])), ("bl", ("trampoline_loop",)))
        # the site label moves to the inserted call so branches land on it
        for lab in sl.labels:
            addrs[lab] = base + len(codes) * width
        if i in cond_sites:
            codes.append((isa.OP_BL, 0, 0, "trampoline_cond"))
            texts.append(("bl", ("trampoline_cond",)))
        start, code, ctl, kinds = len(codes), sl.code, ctls[i], ()
        if regs and OPS[code[0]].regs:        # a label operand is never renamed
            code = _renamed(code, regs)
        if ctl == CTL_ICALL:
            codes += (isa.OP_MOV_REG, 10, code[1], 0), (isa.OP_BL, 0, 0, "trampoline_icall")
            texts += ("mov", ("r10", _rename(sl.args[0], renames))), ("bl", ("trampoline_icall",))
            kinds = (KIND_INDIRECT_CALL,)
        elif ctl == CTL_RETURN or ctl == CTL_POP_PC:
            pop = ctl == CTL_POP_PC         # ``pop lr`` first, then the gateway jump
            codes += ((isa.OP_POP, isa.LR, 0, 0),) * pop + ((isa.OP_B, 0, 0, "trampoline_ret"),)
            texts += (("pop", ("lr",)),) * pop + (("b", ("trampoline_ret",)),)
            kinds = (KIND_RETURN_POP_PC if pop else KIND_RETURN_BX_LR,)
        else:
            codes.append(code)
            texts.append(sl)
            if ctl == CTL_COND:
                kinds = (KIND_STATIC_LOOP if i in loop_branches else KIND_COND_TAKEN,
                         KIND_COND_NOT_TAKEN)
        spans.append((start, len(codes), kinds))
    # each label and each word is a line of the rendered text
    return (codes, addrs, len(codes) + len(addrs)), texts, spans, renames


def instrument(asm_text: str) -> tuple[str, InstrumentationMap]:
    """``rewrite``'s words rendered as assembly text, and its sidecar map."""
    return rendered(rewrite(asm_text))


def rendered(rewritten: tuple) -> tuple[str, InstrumentationMap]:
    """The assembly text and sidecar map of one ``rewrite`` result."""
    (codes, addrs, _), texts, spans, renames = rewritten
    base, width = isa.PMEM_BASE, isa.INSTR_WIDTH
    at: dict[int, list[str]] = {}
    for lab, addr in addrs.items():
        at.setdefault(addr, []).append(lab)
    rows = []
    for k, (code, text) in enumerate(zip(codes, texts)):
        if text.__class__ is not tuple:       # a source line, copied
            text = text.mnemonic, [_rename(a, renames) for a in text.args] \
                if OPS[code[0]].regs else text.args
        rows.append((at.get(base + k * width, ()), *text))
    imap = InstrumentationMap(renames=renames)
    for i, (start, end, kinds) in enumerate(spans):
        imap.line_map[i], imap.line_end[i] = base + start * width, base + end * width
        imap.entries += [MapEntry(base + i * width, kind) for kind in kinds]
    return isa.render(rows), imap
