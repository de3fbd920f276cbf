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
"""

from __future__ import annotations

import re
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
    init_line: int          # index of the dominating ``mov ri, #0``


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

_REG_TOKEN = re.compile(r"\b(r\d+|sp|lr|pc)\b")


def _registers_used(lines: list[SourceLine]) -> set[str]:
    used = set()
    for sl in lines:
        for arg in sl.args:
            if arg.startswith("#"):
                continue
            for tok in _REG_TOKEN.findall(arg):
                used.add(tok)
    return used


def _apply_renames(lines: list[SourceLine], renames: dict[str, str]) -> list[SourceLine]:
    if not renames:
        return [SourceLine(list(sl.labels), sl.mnemonic, list(sl.args), sl.lineno)
                for sl in lines]

    def sub(arg: str) -> str:
        if arg.startswith("#"):
            return arg
        return _REG_TOKEN.sub(lambda m: renames.get(m.group(1), m.group(1)), arg)

    return [SourceLine(list(sl.labels), sl.mnemonic, [sub(a) for a in sl.args], sl.lineno)
            for sl in lines]


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

def _writes_reg(sl: SourceLine) -> str | None:
    """Register a data instruction writes, by name (post-parse, pre-assembly)."""
    if sl.mnemonic in ("mov", "ldr", "add", "sub") and sl.args:
        return sl.args[0].lower()
    if sl.mnemonic == "pop" and sl.args:
        return sl.args[0].strip("{}").lower()
    return None


def _is_branch(sl: SourceLine) -> bool:
    return sl.mnemonic in BRANCH_MNEMONICS or sl.mnemonic == "halt" \
        or (sl.mnemonic == "pop" and sl.args and sl.args[0].strip("{}").lower() == "pc")


def _label_lines(lines: list[SourceLine]) -> dict[str, int]:
    out = {}
    for i, sl in enumerate(lines):
        for lab in sl.labels:
            out[lab] = i
    return out


def _label_references(lines: list[SourceLine], label: str) -> list[int]:
    """Lines whose operands mention the label (branch targets or #label)."""
    refs = []
    for i, sl in enumerate(lines):
        for arg in sl.args:
            if arg == label or arg == f"#{label}":
                refs.append(i)
                break
    return refs


def _is_canonical_increment(sl: SourceLine, reg: str) -> bool:
    if sl.mnemonic != "add":
        return False
    a = [x.lower() for x in sl.args]
    return a == [reg, "#1"] or a == [reg, reg, "#1"]


def detect_static_loops(lines: list[SourceLine]) -> list[LoopDescriptor]:
    """Find canonical counted loops eligible for single-record logging."""
    labels = _label_lines(lines)
    loops: list[LoopDescriptor] = []
    for i, sl in enumerate(lines):
        if sl.mnemonic not in ("bne", "blt") or len(sl.args) != 1:
            continue
        target = sl.args[0]
        h = labels.get(target)
        if h is None or h >= i or i < 2:
            continue
        # the header may only be entered by fall-in and this one branch: no
        # other reference to any of its labels, and it is not the entry
        header_labels = lines[h].labels
        if "main" in header_labels or \
                sum(len(_label_references(lines, lab)) for lab in header_labels) != 1:
            continue
        cmp_line = lines[i - 1]
        if cmp_line.mnemonic != "cmp" or len(cmp_line.args) != 2:
            continue
        counter = cmp_line.args[0].lower()
        if counter not in isa.REG_NAMES:
            continue
        limit_tok = cmp_line.args[1]
        limit_reg = limit_imm = None
        if limit_tok.startswith("#"):
            try:
                limit_imm = int(limit_tok[1:], 0)
            except ValueError:
                continue
            if limit_imm == 0 and sl.mnemonic == "bne":
                continue            # the counter wraps: ~2**32 passes, not 0
        else:
            limit_reg = limit_tok.lower()
            if limit_reg not in isa.REG_NAMES or limit_reg == counter:
                continue
        # body checks: lines h .. i-1, no branches, no labels past the
        # header, exactly one canonical counter increment, limit untouched
        body = lines[h:i]
        if any(_is_branch(b) for b in body):
            continue
        if any(b.labels for b in body[1:]) or sl.labels:
            continue
        increments = [b for b in body if _writes_reg(b) == counter]
        if len(increments) != 1 or not _is_canonical_increment(increments[0], counter):
            continue
        if limit_reg and any(_writes_reg(b) == limit_reg for b in body):
            continue
        # dominating init: nearest preceding write to the counter must be
        # ``mov ri, #0`` reached by straight-line flow
        init = None
        j = h - 1
        while j >= 0:
            w = _writes_reg(lines[j])
            if w == counter:
                a = [x.lower() for x in lines[j].args]
                if lines[j].mnemonic == "mov" and a == [counter, "#0"]:
                    init = j
                break
            if _is_branch(lines[j]) or (limit_reg and w == limit_reg):
                break
            if j != h - 1 and lines[j].labels:
                break
            j -= 1
        if init is None:
            continue
        if any(lines[k].labels for k in range(init + 1, h)):
            continue
        loops.append(LoopDescriptor(i, h, isa.REG_NAMES[counter],
                                    isa.REG_NAMES[limit_reg] if limit_reg else None,
                                    limit_imm, init))
    return loops


# --- rewriting -------------------------------------------------------------

def _mk(mnemonic: str, *args: str) -> SourceLine:
    return SourceLine([], mnemonic, list(args), 0)


@dataclass
class _Plan:
    cond_sites: set[int] = field(default_factory=set)       # lines gaining a bl trampoline_cond
    loop_inserts: dict[int, LoopDescriptor] = field(default_factory=dict)  # header line -> loop
    replacements: dict[int, list[SourceLine]] = field(default_factory=dict)


def _build_plan(lines: list[SourceLine],
                loops: list[LoopDescriptor]) -> tuple[_Plan, list[MapEntry]]:
    labels = _label_lines(lines)
    loop_branches = {lp.branch_line: lp for lp in loops}
    plan = _Plan()
    entries: list[MapEntry] = []

    def addr(i: int) -> int:
        return isa.PMEM_BASE + i * isa.INSTR_WIDTH

    for i, sl in enumerate(lines):
        n = sl.mnemonic
        if n.startswith("b") and n[1:] in isa.COND_NAMES:
            if i + 1 >= len(lines):
                raise UnsupportedPattern(f"line {sl.lineno}: conditional branch has no fall-through")
            lp = loop_branches.get(i)
            if lp is not None:
                plan.loop_inserts[lp.header_line] = lp
                plan.cond_sites.add(i + 1)
                entries.append(MapEntry(addr(i), KIND_STATIC_LOOP))
                entries.append(MapEntry(addr(i), KIND_COND_NOT_TAKEN))
            else:
                target = sl.args[0]
                t = labels.get(target)
                if t is None:
                    raise UnsupportedPattern(
                        f"line {sl.lineno}: conditional target {target!r} is not a program label")
                plan.cond_sites.add(t)
                plan.cond_sites.add(i + 1)
                entries.append(MapEntry(addr(i), KIND_COND_TAKEN))
                entries.append(MapEntry(addr(i), KIND_COND_NOT_TAKEN))
        elif n == "blx":
            reg = sl.args[0]
            plan.replacements[i] = [_mk("mov", "r10", reg), _mk("bl", "trampoline_icall")]
            entries.append(MapEntry(addr(i), KIND_INDIRECT_CALL))
        elif n == "bx":
            plan.replacements[i] = [_mk("b", "trampoline_ret")]
            entries.append(MapEntry(addr(i), KIND_RETURN_BX_LR))
        elif n == "pop" and sl.args and sl.args[0].strip("{}").lower() == "pc":
            plan.replacements[i] = [_mk("pop", "lr"), _mk("b", "trampoline_ret")]
            entries.append(MapEntry(addr(i), KIND_RETURN_POP_PC))
    return plan, entries


def _emit(lines: list[SourceLine], plan: _Plan) -> tuple[list[SourceLine], list[int | None]]:
    out: list[SourceLine] = []
    origins: list[int | None] = []

    def push(sl: SourceLine, origin: int | None) -> None:
        out.append(sl)
        origins.append(origin)

    for i, sl in enumerate(lines):
        if i in plan.loop_inserts:
            lp = plan.loop_inserts[i]
            header_label = lines[i].labels[0]
            limit_arg = f"#{lp.limit_imm}" if lp.limit_reg is None \
                else isa.REG_REPR[lp.limit_reg]
            push(_mk("mov", "r10", f"#{header_label}"), None)
            push(_mk("mov", "r11", limit_arg), None)
            push(_mk("bl", "trampoline_loop"), None)
        if i in plan.cond_sites:
            # the site label moves to the inserted call so branches land on it
            push(SourceLine(list(sl.labels), "bl", ["trampoline_cond"], 0), None)
            sl = SourceLine([], sl.mnemonic, list(sl.args), sl.lineno)
        if i in plan.replacements:
            repl = plan.replacements[i]
            first = SourceLine(list(sl.labels), repl[0].mnemonic, list(repl[0].args), sl.lineno)
            push(first, i)
            for extra in repl[1:]:
                push(extra, i)
        else:
            push(sl, i)
    return out, origins


def _render(lines: list[SourceLine]) -> str:
    rows = []
    for sl in lines:
        rows.extend(sl.render())
    return "\n".join(rows) + "\n"


def instrument(asm_text: str) -> tuple[str, InstrumentationMap]:
    """Rewrite a program for gateway-mediated control-flow logging.

    Returns the rewritten assembly text and the sidecar map. The text is
    not assembled here: a program with an undefined label or too many
    instructions is rejected when it is assembled.
    """
    lines = parse_lines(asm_text)
    renames = plan_renames(lines)
    lines = _apply_renames(lines, renames)
    loops = detect_static_loops(lines)
    plan, entries = _build_plan(lines, loops)
    out, origins = _emit(lines, plan)
    imap = InstrumentationMap(entries=entries, renames=renames)
    # the assembler places rewritten line i at PMEM_BASE + i * INSTR_WIDTH
    for new_idx, origin in enumerate(origins):
        if origin is None:
            continue
        a = isa.PMEM_BASE + new_idx * isa.INSTR_WIDTH
        if origin not in imap.line_map:
            imap.line_map[origin] = a
        imap.line_end[origin] = a + isa.INSTR_WIDTH
    return _render(out), imap

