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
