"""Machine-model unit tests: worlds, permissions, faults, timer, gateway window."""

import hashlib
import random

import pytest

from cfaudit import isa, vm
from cfaudit.cfa_engine import CfLog
from cfaudit.instrument import instrument
from cfaudit.supervisor import service_gateway
from cfaudit.isa import DMEM_BASE, NSC_EXIT, PMEM_BASE, STACK_TOP, TRAMP_COND
from cfaudit.vm import (AccessKind, Fault, FaultKind, Halted, Machine, NscEntry,
                        TimerTrigger, World, WorldViolation, Executed,
                        load_program)

from support import generate_program, load_input


def run_until(m, cls, limit=10_000):
    for _ in range(limit):
        ev = m.step()
        if isinstance(ev, cls):
            return ev
    raise AssertionError(f"no {cls.__name__} within {limit} steps")


def test_arithmetic_and_flags():
    m = load_program("""
    main:
        mov r0, #10
        sub r1, r0, #3
        add r2, r1, #5
        cmp r2, #12
        halt
    """)
    run_until(m, Halted)
    assert m.regs[1] == 7
    assert m.regs[2] == 12
    assert m.flag_z and not m.flag_n


def test_signed_comparison_sets_negative_flag():
    m = load_program("""
    main:
        mov r0, #1
        cmp r0, #2
        halt
    """)
    run_until(m, Halted)
    assert m.flag_n and not m.flag_z


def test_conditional_branch_taken_and_not_taken():
    m = load_program("""
    main:
        mov r0, #5
        cmp r0, #5
        beq hit
        mov r1, #1
    hit:
        cmp r0, #9
        beq miss
        mov r2, #2
    miss:
        halt
    """)
    run_until(m, Halted)
    assert m.regs[1] == 0 and m.regs[2] == 2


def test_call_and_return_with_stack():
    m = load_program("""
    main:
        mov r0, #3
        bl double
        bl double
        halt
    double:
        push lr
        add r0, r0, r0
        pop pc
    """)
    run_until(m, Halted)
    assert m.regs[0] == 12
    assert m.regs[isa.SP] == STACK_TOP


def test_indirect_call_via_register():
    m = load_program("""
    main:
        mov r4, #target
        blx r4
        halt
    target:
        mov r0, #77
        bx lr
    """)
    run_until(m, Halted)
    assert m.regs[0] == 77


def test_memory_load_store_big_endian():
    m = load_program("""
    main:
        mov r0, #258
        mov r1, #dmem_base
        str r0, [r1, #8]
        ldr r2, [r1, #8]
        halt
    """)
    run_until(m, Halted)
    assert m.regs[2] == 258
    assert m.dmem[8:12] == (258).to_bytes(4, "big")


def test_fault_leaves_pc_unchanged_and_never_raises():
    m = load_program("""
    main:
        mov r1, #0
        ldr r0, [r1, #0]
    """)
    m.step()
    pc_before = m.pc
    ev = m.step()
    assert isinstance(ev, Fault)
    assert ev.kind is FaultKind.UNMAPPED
    assert m.pc == pc_before
    again = m.step()
    assert isinstance(again, Fault)


def test_nonsecure_cannot_touch_secure_or_retained():
    m = load_program("main:\n mov r0, #0\n halt\n")
    m.lock_pmem()
    m.enter_nonsecure(PMEM_BASE)
    for addr in (isa.SECURE_BASE, isa.RETAINED_BASE):
        assert m._checked(addr, AccessKind.READ) is FaultKind.READ_VIOLATION
        assert m._checked(addr, AccessKind.WRITE) is FaultKind.WRITE_VIOLATION


def test_locked_pmem_rejects_nonsecure_writes():
    m = load_program("main:\n halt\n")
    m.lock_pmem()
    m.world = World.NONSECURE
    assert m._checked(PMEM_BASE, AccessKind.WRITE) is FaultKind.WRITE_VIOLATION
    assert m._checked(PMEM_BASE, AccessKind.READ) is None
    m.world = World.SECURE
    assert m._checked(PMEM_BASE, AccessKind.WRITE) is None


def test_lock_pmem_requires_secure_world():
    m = load_program("main:\n halt\n")
    m.world = World.NONSECURE
    with pytest.raises(WorldViolation):
        m.lock_pmem()


def test_dmem_not_executable():
    m = load_program("main:\n halt\n")
    m.lock_pmem()
    m.enter_nonsecure(DMEM_BASE)
    ev = m.step()
    assert isinstance(ev, Fault)
    assert ev.kind is FaultKind.EXEC_VIOLATION


def test_misaligned_fetch_faults():
    m = load_program("main:\n halt\n")
    m.enter_nonsecure(PMEM_BASE + 2)
    ev = m.step()
    assert isinstance(ev, Fault)
    assert ev.kind is FaultKind.UNALIGNED


def test_nsc_window_entry_yields_snapshot():
    m = load_program("""
    main:
        mov r0, #41
        bl trampoline_cond
        halt
    """)
    m.enter_nonsecure(PMEM_BASE)
    m.step()          # mov
    m.step()          # bl lands in the gateway window
    ev = m.step()     # trap before any gateway byte executes
    assert isinstance(ev, NscEntry)
    assert ev.addr == TRAMP_COND
    assert m.world is World.SECURE
    assert ev.snapshot.regs[0] == 41
    assert ev.snapshot.lr == PMEM_BASE + 8
    assert ev.snapshot.caller_pc == PMEM_BASE + 4
    assert ev.snapshot.pre_caller_pc == PMEM_BASE


def test_snapshot_preserves_previous_link_register():
    m = load_program("""
    main:
        bl helper
        halt
    helper:
        bl trampoline_ret
        halt
    """)
    m.enter_nonsecure(PMEM_BASE)
    m.step()                       # bl helper
    first_lr = m.regs[isa.LR]
    m.step()                       # bl trampoline_ret
    ev = m.step()
    assert isinstance(ev, NscEntry)
    assert ev.snapshot.prev_lr == first_lr


def test_nsc_call_from_nonsecure_lands_on_exit_door():
    m = load_program("main:\n nsc_call\n")
    m.enter_nonsecure(PMEM_BASE)
    m.step()
    ev = m.step()
    assert isinstance(ev, NscEntry)
    assert ev.addr == NSC_EXIT


def test_nsc_call_from_secure_halts():
    m = load_program("main:\n nsc_call\n")
    ev = m.step()
    assert isinstance(ev, Halted)


def test_timer_counts_only_executed_app_instructions():
    m = load_program("""
    main:
        mov r0, #0
    spin:
        add r0, r0, #1
        b spin
    """)
    m.enter_nonsecure(PMEM_BASE)
    m.timer.arm(5)
    executed = 0
    while True:
        ev = m.step()
        if isinstance(ev, TimerTrigger):
            break
        assert isinstance(ev, Executed)
        executed += 1
    assert executed == 5
    assert m.world is World.SECURE


def test_timer_trigger_precedes_next_instruction():
    m = load_program("""
    main:
        mov r0, #1
        mov r0, #2
        mov r0, #3
    """)
    m.enter_nonsecure(PMEM_BASE)
    m.timer.arm(2)
    m.step()
    m.step()
    pc_at_trigger = m.pc
    ev = m.step()
    assert isinstance(ev, TimerTrigger)
    assert m.pc == pc_at_trigger
    assert m.regs[0] == 2


def test_secure_world_ignores_timer_and_permissions():
    m = load_program("""
    main:
        mov r0, #1
        mov r0, #2
        halt
    """)
    m.timer.arm(1)
    run_until(m, Halted)
    assert m.timer.elapsed == 0


def test_program_digest_is_sha256_of_program_region():
    text = "main:\n mov r0, #1\n halt\n"
    m = load_program(text)
    prog = isa.assemble(text)
    assert m.hash_pmem() == hashlib.sha256(bytes(prog.image)).digest()


def test_reset_preserves_program_and_retained_only():
    m = load_program("main:\n mov r0, #9\n halt\n")
    run_until(m, Halted)
    m.dmem[0] = 0xAA
    m.secure_mem[0] = 0xBB
    m.retained_mem[0] = 0xCC
    image_before = bytes(m.pmem)
    m.reset()
    assert bytes(m.pmem) == image_before
    assert m.retained_mem[0] == 0xCC
    assert m.dmem[0] == 0
    assert m.secure_mem[0] == 0
    assert m.regs[0] == 0
    assert m.world is World.SECURE
    assert m.cycle_count == 0


def test_write_pmem_refreshes_decode_cache():
    m = load_program("main:\n mov r0, #7\n halt\n")
    ev = m.step()
    assert isinstance(ev, Executed)
    halt_word = isa.Instruction(isa.OP_HALT, 0, 0, 0).encode()
    m.write_pmem(PMEM_BASE, halt_word)
    m.regs[isa.PC] = PMEM_BASE
    assert isinstance(m.step(), Halted)


def test_push_pop_pair():
    m = load_program("""
    main:
        mov r0, #5
        push r0
        mov r0, #0
        pop r1
        halt
    """)
    run_until(m, Halted)
    assert m.regs[1] == 5
    assert m.regs[isa.SP] == STACK_TOP


def test_stack_underrun_into_unmapped_faults():
    m = load_program("""
    main:
        push r0
    """)
    m.regs[isa.SP] = DMEM_BASE
    ev = m.step()
    assert isinstance(ev, Fault)
    assert ev.kind is FaultKind.UNMAPPED
    assert m.regs[isa.SP] == DMEM_BASE


def test_illegal_instruction_fault():
    m = load_program("main:\n halt\n")
    m.pmem[0:4] = b"\xee\x00\x00\x00"
    m._decode_cache.clear()
    ev = m.step()
    assert isinstance(ev, Fault)
    assert ev.kind is FaultKind.ILLEGAL_INSTRUCTION


# --- blocks: run(n) against repeated step() ----------------------------------

UNBOUNDED = None


def machine_state(m):
    return (list(m.regs), m.flag_z, m.flag_n, m.cycle_count, m.last_exec_pc,
            m.prev_exec_pc, m.prev_lr, m.timer.elapsed, m.world, m.halted)


def resume_after(m, ev, log):
    """What a monitor does with an event; False when the run is over."""
    if isinstance(ev, TimerTrigger):
        m.timer.resume()
        m.enter_nonsecure(m.pc)
        return True
    if isinstance(ev, NscEntry) and ev.addr != NSC_EXIT:
        return service_gateway(m, log, ev) is None
    return False


def assert_blocks_match_steps(make, limit, max_cycles=50_000):
    """Run one machine in blocks of ``limit`` and a twin one step at a time;
    after every block both must hold the same event and the same state.
    Returns the events, up to the end of the run or ``max_cycles``."""
    stepped, batched = make(), make()
    logs = CfLog(capacity=1 << 20), CfLog(capacity=1 << 20)
    events = []
    while batched.cycle_count < max_cycles:
        n, ev = batched.run(limit)
        for _ in range(n):
            assert stepped.step() == Executed(stepped.last_exec_pc)
        if ev is not None:
            assert stepped.step() == ev
            events.append(ev)
        assert machine_state(stepped) == machine_state(batched)
        if ev is not None:
            go_on = resume_after(stepped, ev, logs[0])
            assert resume_after(batched, ev, logs[1]) == go_on
            if not go_on:
                break
    return events


def deployed(asm, words, delta=None):
    asm2, _ = instrument(asm)
    prog2 = isa.assemble(asm2)

    def make():
        m = Machine(prog2.image)
        load_input(m, words)
        m.lock_pmem()
        if delta is not None:
            m.timer.arm(delta)
        m.enter_nonsecure(prog2.entry)
        return m
    return make


@pytest.mark.parametrize("limit", [1, 7, UNBOUNDED])
def test_run_matches_step_on_generated_programs(limit):
    for seed in range(40):
        rng = random.Random(seed)
        asm, words = generate_program(rng)
        # deadlines that fall mid-block, except on a few unarmed runs
        delta = None if seed % 5 == 0 else rng.randint(3, 40)
        events = assert_blocks_match_steps(deployed(asm, words, delta=delta), limit)
        assert events[-1] == NscEntry(NSC_EXIT, events[-1].snapshot)


@pytest.mark.parametrize("limit", [1, 7, UNBOUNDED])
def test_run_matches_step_on_corrupted_images(limit):
    # random byte flips give illegal words, unaligned and unmapped
    # accesses, and jumps out of the image: each must end the block at
    # the same cycle with the same fault
    kinds = set()
    for seed in range(60):
        rng = random.Random(1000 + seed)
        asm, words = generate_program(rng)
        image = bytearray(isa.assemble(asm).image)
        for _ in range(3):
            image[rng.randrange(len(image))] ^= 1 << rng.randrange(8)
        delta = rng.randint(5, 500)
        entry = PMEM_BASE + 4 * rng.randrange(len(image) // 4)

        def make():
            m = Machine(bytes(image))
            load_input(m, words)
            m.lock_pmem()
            m.timer.arm(delta)
            m.enter_nonsecure(entry)
            return m
        events = assert_blocks_match_steps(make, limit, max_cycles=5_000)
        kinds.update(ev.kind for ev in events if isinstance(ev, Fault))
    assert {FaultKind.UNMAPPED, FaultKind.UNALIGNED,
            FaultKind.ILLEGAL_INSTRUCTION} <= kinds


def test_run_stops_at_a_deadline_inside_the_block():
    m = load_program("main:\n mov r0, #0\nspin:\n add r0, r0, #1\n b spin\n")
    m.enter_nonsecure(PMEM_BASE)
    m.timer.arm(10)
    assert m.run(7) == (7, None)
    n, ev = m.run(7)
    assert (n, ev) == (3, TimerTrigger())
    assert m.timer.elapsed == 10 and m.cycle_count == 11
    assert m.world is World.SECURE
    assert m.run(0) == (0, None)


SELF_PATCH = """
main:
    mov r1, #patch
    mov r2, #input_base
    ldr r3, [r2]
    mov r4, #0
patch:
    mov r0, #1
    add r4, r4, #1
    str r3, [r1]
    cmp r4, #2
    blt patch
    nsc_call
"""


@pytest.mark.parametrize("limit", [1, 7, UNBOUNDED])
def test_pmem_store_invalidates_the_predecoded_word(limit):
    # unlocked pmem: the app overwrites an instruction it already ran
    patched = int.from_bytes(isa.Instruction(isa.OP_MOV_IMM, 0, 0, 2).encode(), "big")

    def make():
        m = load_program(SELF_PATCH)
        load_input(m, [patched])
        m.enter_nonsecure(m.pc)
        return m
    (ev,) = assert_blocks_match_steps(make, limit)
    assert ev.addr == NSC_EXIT
    assert ev.snapshot.regs[0] == 2


@pytest.mark.parametrize("limit", [1, 7, UNBOUNDED])
def test_fetch_from_dmem(limit):
    # dmem is never executable for the app, locked or not; the Secure
    # World runs it from outside the predecoded table
    code = [isa.Instruction(isa.OP_MOV_IMM, 0, 0, 7), isa.Instruction(isa.OP_BX_LR)]
    words = [int.from_bytes(i.encode(), "big") for i in code]
    asm = "main:\n mov r4, #dmem_base\n blx r4\n nsc_call\n"

    def make(world):
        def build():
            m = load_program(asm)
            load_input(m, words)
            if world is World.NONSECURE:
                m.enter_nonsecure(m.pc)
            return m
        return build
    (ev,) = assert_blocks_match_steps(make(World.NONSECURE), limit)
    assert ev == Fault(FaultKind.EXEC_VIOLATION, DMEM_BASE)
    (ev,) = assert_blocks_match_steps(make(World.SECURE), limit)
    assert ev == Halted()


# --- the memory map, access by access through the interpreter ----------------

MATRIX_UNMAPPED = 0xC000                 # between dmem and secure memory
MATRIX_TARGETS = {
    "pmem": PMEM_BASE + 12,              # the image's last word
    "pmem_past_end": PMEM_BASE + 16,     # first word past the image
    "dmem": DMEM_BASE,
    "secure": isa.SECURE_BASE,
    "retained": isa.RETAINED_BASE,
    "unmapped": MATRIX_UNMAPPED,
}
# r1 holds the target; two data accesses so the first of the block is the
# one under test and a second one follows it in the same block
MATRIX_PROGRAMS = {
    "ldr": "main:\n ldr r2, [r1]\n ldr r2, [r1]\n nsc_call\n nsc_call\n",
    "str": "main:\n str r2, [r1]\n str r2, [r1]\n nsc_call\n nsc_call\n",
    "fetch": "main:\n blx r1\n nsc_call\n nsc_call\n nsc_call\n",
}
FAULT_OF = {"ldr": FaultKind.READ_VIOLATION, "str": FaultKind.WRITE_VIOLATION,
            "fetch": FaultKind.EXEC_VIOLATION}


def expected_access(world, locked, target, access):
    """The fault kind an access ends in, or None when it goes through."""
    if target in ("pmem_past_end", "unmapped"):
        return FaultKind.UNMAPPED
    if world is World.SECURE:
        # zero words are not instructions
        if access == "fetch" and target != "pmem":
            return FaultKind.ILLEGAL_INSTRUCTION
        return None
    if target in ("secure", "retained"):
        return FAULT_OF[access]
    if target == "dmem" and access == "fetch":
        return FaultKind.EXEC_VIOLATION
    if target == "pmem" and access == "str" and locked:
        return FaultKind.WRITE_VIOLATION
    return None


@pytest.mark.parametrize("access", sorted(MATRIX_PROGRAMS))
@pytest.mark.parametrize("target", list(MATRIX_TARGETS))
@pytest.mark.parametrize("locked", [False, True], ids=["unlocked", "locked"])
@pytest.mark.parametrize("world", [World.SECURE, World.NONSECURE], ids=["S", "NS"])
def test_memory_map_through_the_interpreter(world, locked, target, access):
    m = load_program(MATRIX_PROGRAMS[access])
    assert len(m.pmem) == 16
    if locked:
        m.lock_pmem()
    if world is World.NONSECURE:
        m.enter_nonsecure(PMEM_BASE)
    addr = MATRIX_TARGETS[target]
    m.regs[1] = addr
    n, ev = m.run()
    kind = expected_access(world, locked, target, access)
    if kind is not None:
        assert ev == Fault(kind, addr)
        # a data fault leaves pc on the access, a fetch fault on the target
        assert (n, m.pc) == ((1, addr) if access == "fetch" else (0, PMEM_BASE))
    elif world is World.SECURE:
        assert ev == Halted()
    else:
        assert isinstance(ev, NscEntry) and ev.addr == NSC_EXIT
