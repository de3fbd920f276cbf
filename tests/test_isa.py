"""Assembler, encoder, and memory-map unit tests."""

import struct

import pytest
from hypothesis import given, strategies as st

from cfaudit import isa


def test_memory_map_constants():
    assert isa.NSC_BASE == 0x0100
    assert isa.TRAMP_COND == 0x0100
    assert isa.TRAMP_ICALL == 0x0104
    assert isa.TRAMP_RET == 0x0108
    assert isa.TRAMP_LOOP == 0x010C
    assert isa.NSC_EXIT == 0x0110
    assert isa.PMEM_BASE == 0x1000
    assert isa.DMEM_BASE == 0x8000
    assert isa.STACK_TOP == 0xA000
    assert isa.SECURE_BASE == 0x10000
    assert isa.RETAINED_BASE == 0x20000
    for base, size in [(isa.PMEM_BASE, isa.PMEM_CAPACITY),
                       (isa.DMEM_BASE, isa.DMEM_SIZE),
                       (isa.SECURE_BASE, isa.SECURE_SIZE),
                       (isa.RETAINED_BASE, isa.RETAINED_SIZE)]:
        assert base + size < 2 ** 31


def test_three_line_program_occupies_twelve_bytes():
    prog = isa.assemble("mov r0, #1\nadd r0, r0, #2\nhalt\n")
    assert len(prog.image) == 12
    assert prog.entry == isa.PMEM_BASE


def test_fixed_width_encoding_layout():
    inst = isa.Instruction(isa.OP_ADD_RI, 3, 4, 0x1234)
    word = inst.encode()
    assert len(word) == 4
    op, regs, imm = struct.unpack(">BBH", word)
    assert op == isa.OP_ADD_RI
    assert regs >> 4 == 3 and regs & 0xF == 4
    assert imm == 0x1234


def test_decode_rejects_unknown_opcode():
    assert isa.decode(struct.pack(">BBH", 0xEE, 0, 0)) is None
    assert isa.decode(struct.pack(">BBH", isa.OP_ILLEGAL, 0, 0)) is None


def test_decode_roundtrip_all_opcodes():
    for op in sorted(isa.VALID_OPCODES):
        inst = isa.Instruction(op, 2, 3, 7)
        assert isa.decode(inst.encode()) == inst


def test_labels_resolve_and_entry_is_main():
    text = """
    start:
        mov r0, #0
    main:
        b start
    """
    prog = isa.assemble(text)
    assert prog.labels["start"] == isa.PMEM_BASE
    assert prog.labels["main"] == isa.PMEM_BASE + 4
    assert prog.entry == prog.labels["main"]


def test_duplicate_label_rejected():
    with pytest.raises(isa.ParseError):
        isa.assemble("x:\n mov r0, #1\nx:\n halt\n")


def test_unknown_label_reference_rejected():
    with pytest.raises(isa.LinkError):
        isa.assemble("b nowhere\n")


def test_builtin_symbols_resolve():
    text = """
    mov r0, #input_base
    mov r1, #stack_top
    mov r2, #trampoline_ret
    halt
    """
    prog = isa.assemble(text)
    words = [struct.unpack(">BBH", prog.image[i:i + 4]) for i in range(0, 12, 4)]
    assert words[0][2] == isa.DMEM_BASE
    assert words[1][2] == isa.STACK_TOP
    assert words[2][2] == isa.TRAMP_RET


def test_comments_and_blank_lines_ignored():
    prog = isa.assemble("; header\n\nmov r0, #1  ; trailing\nhalt\n")
    assert len(prog.instructions) == 2


def test_conditional_branch_encodes_condition_code():
    prog = isa.assemble("top:\n beq top\n bne top\n blt top\n bge top\n bgt top\n ble top\n")
    conds = [inst.ra for inst in prog.instructions]
    assert conds == [isa.COND_EQ, isa.COND_NE, isa.COND_LT,
                     isa.COND_GE, isa.COND_GT, isa.COND_LE]
    assert all(inst.op == isa.OP_BCOND for inst in prog.instructions)


def test_capacity_limit_enforced():
    lines = ["halt"] * (isa.PMEM_CAPACITY // 4 + 1)
    with pytest.raises(isa.ParseError):
        isa.assemble("\n".join(lines))


@pytest.mark.parametrize("text", ["", "\n\n", "; only a comment\n"])
def test_a_program_with_no_instruction_is_rejected(text):
    with pytest.raises(isa.ParseError, match="program has no instruction"):
        isa.assemble(text)
    with pytest.raises(isa.ParseError, match="program has no instruction"):
        isa.layout(isa.parse_lines(text))


def test_layout_encodes_each_line_as_its_instruction():
    text = "main:\n    mov r1, #main\n    add r2, r1, r3\n    b main\n    halt\n"
    prog = isa.layout(isa.parse_lines(text))
    assert prog.instructions == [isa.Instruction(isa.OP_MOV_IMM, 1, 0, isa.PMEM_BASE),
                                 isa.Instruction(isa.OP_ADD_RR, 2, 1, 3),
                                 isa.Instruction(isa.OP_B, imm=isa.PMEM_BASE),
                                 isa.Instruction(isa.OP_HALT)]
    assert prog.image == b"".join(i.encode() for i in prog.instructions)


def test_immediate_out_of_range_rejected():
    with pytest.raises(isa.ParseError):
        isa.assemble("mov r0, #65536\n")


def test_two_operand_add_normalized():
    prog = isa.assemble("add r3, #5\nhalt\n")
    inst = prog.instructions[0]
    assert (inst.ra, inst.rb, inst.imm) == (3, 3, 5)


@given(st.integers(min_value=0, max_value=0xFF),
       st.integers(min_value=0, max_value=15),
       st.integers(min_value=0, max_value=15),
       st.integers(min_value=0, max_value=0xFFFF))
def test_decode_never_raises(op, ra, rb, imm):
    word = struct.pack(">BBH", op, (ra << 4) | rb, imm)
    inst = isa.decode(word)
    if inst is not None:
        assert inst.encode() == word


def test_line_addr_round_trip():
    text = "main:\n mov r0, #1\n add r0, r0, #1\n halt\n"
    prog = isa.assemble(text)
    for i in range(len(prog.instructions)):
        assert prog.line_at_addr(prog.line_addrs[i]) == i
    assert prog.line_at_addr(isa.PMEM_BASE - 4) is None
    assert prog.line_at_addr(isa.PMEM_BASE + 1) is None


# Each bad form, written as line 3 of a program, and the message it is
# rejected with.
BAD_LINES = [
    ("mov r1", "mov expects 2 operand(s), got 1"),
    ("mov r1, #1, #2", "mov expects 2 operand(s), got 3"),
    ("mov x1, #1", "expected register, got 'x1'"),
    ("mov #1, r1", "expected register, got '#1'"),
    ("mov r1, x2", "expected register, got 'x2'"),
    ("mov r1, #70000", "immediate 70000 out of range 0..65535"),
    ("mov r1, #-1", "immediate -1 out of range 0..65535"),
    ("mov r1, #1x", "bad immediate '#1x'"),
    ("ldr r1", "ldr expects rd, [rs(, #off)]"),
    ("ldr #1, [r2]", "expected register, got '#1'"),
    ("ldr r1, r2", "bad memory operand 'r2'"),
    ("ldr r1, [x2]", "expected register, got 'x2'"),
    ("ldr r1, [r2, #99999]", "offset 99999 out of range"),
    ("ldr r1, [r2, #zz]", "bad offset in '[r2, #zz]'"),
    ("ldr r1, [r2, r3]", "bad memory operand '[r2, r3]'"),
    ("str r1", "str expects rs, [rb(, #off)]"),
    ("str x1, [r2]", "expected register, got 'x1'"),
    ("str r1, [r2, #70000]", "offset 70000 out of range"),
    ("str r1, [r2", "bad memory operand '[r2'"),
    ("add r1", "add expects 2 or 3 operands"),
    ("add r1, r2, r3, r4", "add expects 2 or 3 operands"),
    ("add r1, x2, #1", "expected register, got 'x2'"),
    ("add #1, r2, r3", "expected register, got '#1'"),
    ("add r1, r2, #70000", "immediate 70000 out of range 0..65535"),
    ("add r1, r2, x3", "expected register, got 'x3'"),
    ("sub r1", "sub expects 2 or 3 operands"),
    ("sub r1, #1, r2", "expected register, got '#1'"),
    ("sub r1, r2, #-5", "immediate -5 out of range 0..65535"),
    ("cmp r1", "cmp expects 2 operand(s), got 1"),
    ("cmp #1, r1", "expected register, got '#1'"),
    ("cmp r1, #70000", "immediate 70000 out of range 0..65535"),
    ("cmp r1, x2", "expected register, got 'x2'"),
    ("b", "b expects 1 operand(s), got 0"),
    ("b main, main", "b expects 1 operand(s), got 2"),
    ("b #main", "bad branch target '#main'"),
    ("b 0x1000", "bad branch target '0x1000'"),
    ("beq", "beq expects 1 operand(s), got 0"),
    ("bne main, x", "bne expects 1 operand(s), got 2"),
    ("blt #5", "bad branch target '#5'"),
    ("bl", "bl expects 1 operand(s), got 0"),
    ("bl main, main", "bl expects 1 operand(s), got 2"),
    ("bl [r1]", "bad branch target '[r1]'"),
    ("blx", "blx expects 1 operand(s), got 0"),
    ("blx #5", "expected register, got '#5'"),
    ("blx r3, r4", "blx expects 1 operand(s), got 2"),
    ("blx main", "expected register, got 'main'"),
    ("bx", "bx expects 1 operand(s), got 0"),
    ("bx r3", "only 'bx lr' is supported"),
    ("bx lr, lr", "bx expects 1 operand(s), got 2"),
    ("push", "push expects 1 operand(s), got 0"),
    ("push #1", "expected register, got '#1'"),
    ("push r1, r2", "push expects 1 operand(s), got 2"),
    ("push {x}", "expected register, got 'x'"),
    ("pop", "pop expects 1 operand(s), got 0"),
    ("pop {pc}, r2", "pop expects 1 operand(s), got 2"),
    ("pop #1", "expected register, got '#1'"),
    ("nsc_call r1", "nsc_call expects 0 operand(s), got 1"),
    ("halt r0", "halt expects 0 operand(s), got 1"),
    ("jmp main", "unknown mnemonic 'jmp'"),
    ("MOVE r1, r2", "unknown mnemonic 'move'"),
]


@pytest.mark.parametrize("bad, msg", BAD_LINES, ids=[bad for bad, _ in BAD_LINES])
def test_a_malformed_line_is_rejected_at_its_line(bad, msg):
    with pytest.raises(isa.ParseError) as caught:
        isa.assemble(f"main:\n    nsc_call\n    {bad}\n    halt\n")
    assert (caught.value.line, caught.value.msg) == (3, msg)


@pytest.mark.parametrize("text, line, msg", [
    ("main:\n    nsc_call\nend:\n", 3, "label at end of file has no instruction"),
    ("main:\n    nsc_call\nmain:\n    halt\n", 4, "duplicate label 'main'"),
    ("x:\ny:\nx:\n    halt\n", 4, "duplicate label 'x'"),
    ("main:\n    nsc_call\nstack_top:\n    halt\n", 4, "duplicate label 'stack_top'"),
    ("main:\n    nsc_call\ntrampoline_ret: halt\n", 3, "duplicate label 'trampoline_ret'"),
], ids=["trailing", "duplicate", "duplicate-on-one-instruction", "builtin", "trampoline"])
def test_a_misplaced_label_is_rejected_at_its_line(text, line, msg):
    with pytest.raises(isa.ParseError) as caught:
        isa.assemble(text)
    assert (caught.value.line, caught.value.msg) == (line, msg)
