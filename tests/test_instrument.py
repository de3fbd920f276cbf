"""Rewriter unit tests: insertion points, replacements, loop detection,
register renaming, and the sidecar map."""

import pytest

from cfaudit import isa
from cfaudit.instrument import (RegisterPressure, UnsupportedPattern,
                                detect_static_loops, instrument, rewrite)
from cfaudit.isa import parse_lines
from cfaudit.scenario import ScenarioSpec, run


def text_of(asm):
    return instrument(asm)[0]


def count_calls(asm2, tramp):
    return sum(1 for ln in asm2.splitlines() if tramp in ln)


DIAMOND = """
main:
    mov r0, #5
    cmp r0, #5
    beq is_five
    mov r1, #1
    b join
is_five:
    mov r1, #2
join:
    nsc_call
"""


def test_conditional_gets_sites_at_both_destinations():
    asm2, imap = instrument(DIAMOND)
    assert count_calls(asm2, "trampoline_cond") == 2
    kinds = sorted(e.kind for e in imap.entries)
    assert kinds == ["cond_not_taken", "cond_taken"]


def test_site_label_moves_to_inserted_call():
    asm2, _ = instrument(DIAMOND)
    lines = parse_lines(asm2)
    labeled = {lab: sl for sl in lines for lab in sl.labels}
    assert labeled["is_five"].mnemonic == "bl"
    assert labeled["is_five"].args == ["trampoline_cond"]


def test_direct_branches_stay_untouched():
    asm2, _ = instrument(DIAMOND)
    lines = parse_lines(asm2)
    direct = [sl for sl in lines if sl.mnemonic == "b" and sl.args == ["join"]]
    assert len(direct) == 1


def test_bx_lr_becomes_gateway_jump():
    asm = """
    main:
        bl f
        nsc_call
    f:
        bx lr
    """
    asm2, imap = instrument(asm)
    assert "bx" not in [sl.mnemonic for sl in parse_lines(asm2)]
    assert count_calls(asm2, "trampoline_ret") == 1
    assert [e.kind for e in imap.entries] == ["return_bx_lr"]


def test_pop_pc_becomes_pop_lr_plus_gateway_jump():
    asm = """
    main:
        bl f
        nsc_call
    f:
        push lr
        pop pc
    """
    asm2, _ = instrument(asm)
    lines = parse_lines(asm2)
    ms = [(sl.mnemonic, sl.args) for sl in lines]
    i = ms.index(("pop", ["lr"]))
    assert ms[i + 1] == ("b", ["trampoline_ret"])


def test_indirect_call_routes_through_gateway():
    asm = """
    main:
        mov r3, #f
        blx r3
        nsc_call
    f:
        bx lr
    """
    asm2, imap = instrument(asm)
    lines = parse_lines(asm2)
    ms = [(sl.mnemonic, sl.args) for sl in lines]
    i = ms.index(("mov", ["r10", "r3"]))
    assert ms[i + 1] == ("bl", ["trampoline_icall"])
    assert "blx" not in [m for m, _ in ms]


CANONICAL_LOOP = """
main:
    mov r2, #0
loop:
    add r0, r0, #3
    add r2, r2, #1
    cmp r2, #5
    bne loop
    nsc_call
"""


def test_canonical_loop_detected():
    loops = detect_static_loops(parse_lines(CANONICAL_LOOP))
    assert len(loops) == 1
    lp = loops[0]
    assert lp.limit_imm == 5
    assert lp.counter == 2
    assert lp.limit_reg is None


def test_canonical_loop_gets_entry_block_and_untouched_branch():
    asm2, imap = instrument(CANONICAL_LOOP)
    lines = parse_lines(asm2)
    ms = [(sl.mnemonic, tuple(sl.args)) for sl in lines]
    i = ms.index(("bl", ("trampoline_loop",)))
    assert ms[i - 2] == ("mov", ("r10", "#loop"))
    assert ms[i - 1] == ("mov", ("r11", "#5"))
    # the backward branch still targets the header directly
    assert ("bne", ("loop",)) in ms
    # loop exit is a logged not-taken destination
    assert count_calls(asm2, "trampoline_cond") == 1
    kinds = [e.kind for e in imap.entries]
    assert kinds == ["static_loop", "cond_not_taken"]


def test_header_label_stays_on_header():
    asm2, _ = instrument(CANONICAL_LOOP)
    lines = parse_lines(asm2)
    labeled = {lab: sl for sl in lines for lab in sl.labels}
    assert labeled["loop"].mnemonic == "add"


@pytest.mark.parametrize("body, why", [
    ("    add r2, r2, #2\n", "non-unit step"),
    ("    add r2, r2, #1\n    add r2, r2, #1\n", "two increments"),
    ("    bl helper\n    add r2, r2, #1\n", "branch in body"),
    ("    mov r3, #9\n    add r2, r2, #1\n    mov r3, #limitless\n", "unrelated ok"),
])
def test_non_canonical_loops_fall_back(body, why):
    asm = ("main:\n    mov r2, #0\nloop:\n" + body
           + "    cmp r2, #4\n    bne loop\n    nsc_call\n"
           + "helper:\n    bx lr\nlimitless:\n    halt\n")
    loops = detect_static_loops(parse_lines(asm))
    if why == "unrelated ok":
        assert len(loops) == 1
    else:
        assert loops == []


def test_register_limit_loop_detected():
    asm = """
    main:
        mov r3, #7
        mov r2, #0
    loop:
        add r0, r0, #1
        add r2, r2, #1
        cmp r2, r3
        blt loop
        nsc_call
    """
    loops = detect_static_loops(parse_lines(asm))
    assert len(loops) == 1
    assert loops[0].limit_reg == 3


def test_limit_register_written_in_body_rejected():
    asm = """
    main:
        mov r3, #7
        mov r2, #0
    loop:
        add r3, r3, #0
        add r2, r2, #1
        cmp r2, r3
        blt loop
        nsc_call
    """
    assert detect_static_loops(parse_lines(asm)) == []


@pytest.mark.parametrize("write, counter, limit", [
    ("push r0", "r2", "sp"), ("pop r0", "r2", "sp"), ("push r0", "sp", "#5")])
def test_a_loop_register_written_by_push_or_pop_falls_back(write, counter, limit):
    # push and pop write sp: a limit in sp changes every pass, and a counter
    # in sp steps more than once a pass
    asm = f"""
    main:
        mov {counter}, #0
    loop:
        {write}
        add {counter}, {counter}, #1
        cmp {counter}, {limit}
        blt loop
        nsc_call
    """
    assert detect_static_loops(parse_lines(asm)) == []
    asm2, imap = instrument(asm)
    assert count_calls(asm2, "trampoline_loop") == 0
    assert [e.kind for e in imap.entries] == ["cond_taken", "cond_not_taken"]


def test_missing_zero_init_rejected():
    asm = """
    main:
        mov r2, #1
    loop:
        add r2, r2, #1
        cmp r2, #4
        bne loop
        nsc_call
    """
    assert detect_static_loops(parse_lines(asm)) == []


def test_header_with_second_reference_rejected():
    asm = """
    main:
        mov r2, #0
        cmp r0, #0
        beq loop
    loop:
        add r2, r2, #1
        cmp r2, #4
        bne loop
        nsc_call
    """
    assert detect_static_loops(parse_lines(asm)) == []


def test_header_entered_through_another_label_rejected():
    # a second label on the header is a way in besides the back branch
    asm = CANONICAL_LOOP.replace("loop:", "loop:\nalso:") \
        .replace("main:", "main:\n    mov r8, #also")
    assert detect_static_loops(parse_lines(asm)) == []
    # an unreferenced second label changes nothing
    assert len(detect_static_loops(parse_lines(
        CANONICAL_LOOP.replace("loop:", "loop:\nalso:")))) == 1


def test_header_at_the_entry_point_rejected():
    # execution starts in the body, past the loop's record
    asm = "    mov r2, #0\nmain:\n    add r2, r2, #1\n    cmp r2, #5\n" \
          "    bne main\n    nsc_call\n"
    assert detect_static_loops(parse_lines(asm)) == []


def test_bne_loop_with_zero_limit_falls_back_to_conditional_logging():
    # ``cmp r2, #0 / bne`` first compares 1 with 0: the counter wraps and
    # the loop runs ~2**32 times, which a static record of limit 0 denies
    asm = CANONICAL_LOOP.replace("cmp r2, #5", "cmp r2, #0")
    assert detect_static_loops(parse_lines(asm)) == []
    asm2, imap = instrument(asm)
    assert count_calls(asm2, "trampoline_loop") == 0
    assert [e.kind for e in imap.entries] == ["cond_taken", "cond_not_taken"]
    # the same loop under blt runs once and stays static
    assert len(detect_static_loops(parse_lines(asm.replace("bne", "blt")))) == 1


def test_reserved_registers_renamed_to_lowest_free():
    asm = """
    main:
        mov r10, #1
        mov r11, #2
        add r10, r10, r11
        nsc_call
    """
    asm2, imap = instrument(asm)
    assert imap.renames == {"r10": "r0", "r11": "r1"}
    lines = parse_lines(asm2)
    ms = [(sl.mnemonic, tuple(sl.args)) for sl in lines]
    assert ("mov", ("r0", "#1")) in ms
    assert ("add", ("r0", "r0", "r1")) in ms


def test_rename_pool_exhaustion_raises():
    uses = "\n".join(f"    mov r{i}, #0" for i in list(range(10)) + [12])
    asm = f"main:\n{uses}\n    mov r10, #1\n    nsc_call\n"
    with pytest.raises(RegisterPressure):
        rewrite(asm)


@pytest.mark.parametrize("bad", ["bx r3", "bx", "blx", "blx #5", "blx r3, r4",
                                 "pop {pc}, r2", "bne", "bne main, x"])
def test_a_malformed_transfer_is_rejected_as_the_assembler_rejects_it(bad):
    # after a conditional branch, so the rewritten text's lines are shifted
    asm = f"main:\n    cmp r0, #0\n    beq out\n    {bad}\nout:\n    nsc_call\n"
    with pytest.raises(isa.ParseError) as want:
        isa.assemble(asm)
    with pytest.raises(isa.ParseError) as got:
        instrument(asm)
    assert want.value.line == 4
    assert (got.value.line, got.value.msg) == (want.value.line, want.value.msg)


def test_a_reserved_register_written_in_capitals_is_renamed():
    asm = "main:\n    mov R10, #5\n    mov r3, #f\n    blx r3\n    mov r0, R10\n" \
          "    nsc_call\nf:\n    bx lr\n"
    asm2, imap = instrument(asm)
    assert imap.renames == {"r10": "r1"}
    ms = [(sl.mnemonic, sl.args) for sl in parse_lines(asm2)]
    assert ("mov", ["r1", "#5"]) in ms and ("mov", ["r0", "r1"]) in ms


def test_a_branch_target_spelt_like_a_reserved_register_is_not_renamed():
    # a label is a symbol however it is spelt: only register operands move
    kept = "main:\n    mov r1, #1\n    b r10\nr10:\n    nsc_call\n"
    asm2, imap = instrument(kept)
    assert imap.renames == {}
    assert ("b", ["r10"]) in [(sl.mnemonic, sl.args) for sl in parse_lines(asm2)]
    res = run(ScenarioSpec(name="kept", asm_text=kept))
    assert res.settled and res.verdict == "end" and res.violation == "none"
    moved = "main:\n    mov r10, #3\n    b r10\nr10:\n    add r10, r10, #1\n    nsc_call\n"
    asm2, imap = instrument(moved)
    assert imap.renames == {"r10": "r0"}
    lines = parse_lines(asm2)
    assert [(sl.labels, sl.mnemonic, sl.args) for sl in lines] == [
        (["main"], "mov", ["r0", "#3"]), ([], "b", ["r10"]),
        (["r10"], "add", ["r0", "r0", "#1"]), ([], "nsc_call", [])]
    isa.assemble(asm2)


def test_conditional_without_fall_through_rejected():
    asm = "main:\n cmp r0, #0\n beq main\n"
    with pytest.raises(UnsupportedPattern):
        instrument(asm)


def test_line_map_tracks_moved_instructions():
    asm2, imap = instrument(DIAMOND)
    orig = isa.assemble(DIAMOND)
    prog2 = isa.assemble(asm2)
    # every original line maps to an address holding the same mnemonic
    orig_lines = parse_lines(DIAMOND)
    new_lines = parse_lines(asm2)
    for idx, sl in enumerate(orig_lines):
        new_addr = imap.line_map[idx]
        new_idx = prog2.line_at_addr(new_addr)
        assert new_lines[new_idx].mnemonic == sl.mnemonic


def test_instrumented_program_still_assembles():
    for asm in (DIAMOND, CANONICAL_LOOP):
        asm2, _ = instrument(asm)
        prog2 = isa.assemble(asm2)
        assert len(prog2.image) >= len(isa.assemble(asm).image)


def test_nested_conditionals_get_four_sites():
    asm = """
    main:
        cmp r0, #1
        beq outer
        mov r1, #1
    outer:
        cmp r0, #2
        bne inner
        mov r1, #2
    inner:
        nsc_call
    """
    asm2, _ = instrument(asm)
    assert count_calls(asm2, "trampoline_cond") == 4
