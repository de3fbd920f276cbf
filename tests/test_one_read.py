"""The one-read path against the text path: a program's rewritten lines,
laid out as the rewriter emits them, give what its rewritten text gives
when it is parsed and assembled again, in every field of the image and
the auditor's graph, and fail with the same error where the text fails."""

import random
import struct
from pathlib import Path

import pytest

from cfaudit import isa, scenario, vm
from cfaudit.instrument import RegisterPressure, UnsupportedPattern, instrument, rewrite
from cfaudit.verifier import build_cfg, cfg_of
from cfaudit.vm import Halted, Machine

from support import generate_program

PROGRAM_DIR = Path(__file__).resolve().parent.parent / "scenarios" / "programs"

HANDWRITTEN = {
    # r10 and r11 in every register field and spelling, moved to free registers
    "reserved": """main:
    mov r10, #input_base
    ldr R11, [r10, #4]
    add r11, r10, r11
    sub r10, r11, r10
    str r11, [ r10 ]
    push {r10}
    pop {r11}
    cmp r11, r10
    beq out
    mov r10, #fn
    blx r10
out:
    mov r9, r11
    nsc_call
fn:
    bx lr
""",
    # a register-limit loop whose limit is the renamed r10
    "reserved_limit": """main:
    mov r10, #4
    mov r1, #0
loop:
    add r1, r1, #1
    cmp r1, r10
    blt loop
    nsc_call
""",
    "register_limit": """main:
    mov r5, #4
    mov r1, #0
loop:
    add r1, r1, #1
    cmp r1, r5
    blt loop
    nsc_call
""",
    "immediate_limit": """main:
    mov r1, #0
loop:
    add r1, r1, #1
    cmp r1, #7
    bne loop
    nsc_call
""",
    "blx": """main:
    mov r7, #input_base
    ldr r8, [r7, #0]
    blx r8
    nsc_call
helper:
    mov r6, #1
    pop {pc}
""",
    "exit_jump": "main:\n    mov r9, #1\n    b nsc_exit\n",
}


def _programs():
    for path in sorted(PROGRAM_DIR.glob("*.asm")):
        yield f"bundled-{path.stem}", path.read_text()
    for seed in range(80):
        yield f"generated-{seed}", generate_program(random.Random(seed))[0]
    yield from HANDWRITTEN.items()


PROGRAMS = dict(_programs())


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_laid_out_lines_give_the_assembled_rewrite(name):
    text = PROGRAMS[name]
    placed = rewrite(text)[0]
    asm2, _ = instrument(text)
    # the words are those their rendering parses back to
    assert isa.place(isa.parse_lines(asm2)) == placed
    got, want = isa.layout(placed), isa.assemble(asm2)
    assert got.image == want.image
    assert got.labels == want.labels
    assert got.entry == want.entry
    assert got.instructions == want.instructions
    cfg, golden = cfg_of(got), build_cfg(asm2)
    for deployed in (cfg, scenario.deploy(text).cfg):
        assert deployed.digest == golden.digest
        assert deployed.loops == golden.loops
        assert deployed.icall_targets == golden.icall_targets
        assert deployed.prog.entry == golden.prog.entry


def test_only_the_gateway_lines_name_r10_and_r11():
    asm2, imap = instrument(HANDWRITTEN["reserved"])
    lines = isa.parse_lines(asm2)
    assert imap.renames == {"r10": "r0", "r11": "r1"}
    named = [sl for sl in lines
             if {"r10", "r11"} & {a.lower().strip("[]{} ") for a in sl.args}]
    assert [(sl.mnemonic, sl.code[:2]) for sl in named] == [("mov", (isa.OP_MOV_REG, 10))]


def _failure(fn, *args):
    with pytest.raises((isa.ParseError, isa.LinkError)) as info:
        fn(*args)
    exc = info.value
    return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "label", None)


@pytest.mark.parametrize("text", [
    "main:\n    b nowhere\n",
    "main:\n    mov r1, #nowhere\n    cmp r1, #0\n    beq main\n    nsc_call\n",
    # within capacity as written, past it once each blx becomes two lines
    "main:\n" + "    halt\n" * (isa.PMEM_CAPACITY // isa.INSTR_WIDTH - 12)
    + "    blx r1\n" * 10,
    "",
    "; nothing but a comment\n",
], ids=["branch-target", "immediate", "capacity", "empty", "comment"])
def test_the_one_read_path_fails_as_the_text_does(text):
    got = _failure(lambda: isa.layout(rewrite(text)[0]))
    assert got == _failure(lambda: isa.assemble(instrument(text)[0]))
    assert got == _failure(scenario.deploy, text)


# every register r0-r12 named, so a reserved one has nowhere to go
_ALL_NAMED = "".join(f"    mov r{r}, #1\n" for r in range(13))


@pytest.mark.parametrize("text, kind, msg", [
    ("main:\n    cmp r0, #0\n    beq main\n", UnsupportedPattern,
     "line 3: conditional branch has no fall-through"),
    ("main:\n    cmp r0, #0\n    beq stack_top\n    halt\n", UnsupportedPattern,
     "line 3: conditional target 'stack_top' is not a program label"),
    ("main:\n    mov r1, #2\n    cmp r1, #0\n    beq input_base\n    halt\n",
     UnsupportedPattern, "line 4: conditional target 'input_base' is not a program label"),
    ("main:\n" + _ALL_NAMED + "    nsc_call\n", RegisterPressure,
     "no free register to relocate r10"),
    ("main:\n" + _ALL_NAMED.replace("r10", "r11", 1) + "    nsc_call\n", RegisterPressure,
     "no free register to relocate r11"),
], ids=["no-fall-through", "stack_top", "input_base", "pressure-r10", "pressure-r11"])
def test_each_path_refuses_a_shape_the_rewriter_cannot_instrument(text, kind, msg):
    def refusal(fn):
        with pytest.raises(UnsupportedPattern) as info:
            fn()
        exc = info.value
        return type(exc), str(exc), getattr(exc, "line", None)

    want = (kind, msg, None)
    assert refusal(lambda: instrument(text)) == want
    assert refusal(lambda: isa.layout(rewrite(text)[0])) == want
    assert refusal(lambda: scenario.deploy(text)) == want


def _decoded(image: bytes) -> list:
    return [vm._decode(w) for w in struct.unpack(f">{len(image) // isa.INSTR_WIDTH}I", image)]


def test_the_machine_takes_the_words_the_layout_decoded():
    texts = [path.read_text() for path in sorted(PROGRAM_DIR.glob("*.asm"))]
    texts += [generate_program(random.Random(seed))[0] for seed in range(300)]
    for text in texts:
        dep = scenario.deploy(text)
        assert dep.code.words is dep.cfg.prog.instructions      # handed over, not decoded
        assert dep.code.words == _decoded(dep.cfg.prog.image)


def test_a_machine_whose_program_memory_is_written_decodes_its_own_bytes():
    # the program stores a halt word, its input, over its own next line
    text = ("main:\n    mov r7, #input_base\n    ldr r2, [r7, #0]\n    mov r1, #patch\n"
            "    str r2, [r1, #0]\npatch:\n    mov r3, #1\n    nsc_call\n")
    dep = scenario.deploy(text)
    image, halt = dep.cfg.prog.image, isa.Instruction(isa.OP_HALT).encode()
    stored = Machine(image, dep.code)
    stored.dmem[:4] = halt
    stored.enter_nonsecure(dep.cfg.prog.entry)
    assert stored.run() == (4, Halted()) and stored.regs[3] == 0
    written = Machine(image, dep.code)
    written.write_pmem(dep.cfg.prog.labels["patch"], halt)
    for m in (stored, written):
        assert m._code is not dep.code
        assert m._code.words == _decoded(bytes(m.pmem)) != dep.code.words
    assert dep.code.words == _decoded(image)
