"""Machine-model unit tests: worlds, permissions, faults, timer, gateway
window, and the closures checked against the opcode chain they replaced."""

import gc
import hashlib
import itertools
import random
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cfaudit import isa, scenario, vm
from cfaudit.cfa_engine import CfLog
from cfaudit.instrument import instrument
from cfaudit.isa import DMEM_BASE, NSC_EXIT, PMEM_BASE, STACK_TOP, TRAMP_COND
from cfaudit.resolver import POLICY_DISABLE, POLICY_FREEZE, POLICY_WIPE
from cfaudit.scenario import load_input
from cfaudit.vm import (AccessKind, Fault, FaultKind, Halted, Machine, NscEntry,
                        TimerTrigger, World, WorldViolation, Executed,
                        load_program)

from support import (ReferenceMachine, clear_image_caches, generate_program,
                     load_reference, service_event)


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
    # the parked core holds the gateway state
    assert m.regs[0] == 41
    assert m.regs[isa.LR] == PMEM_BASE + 8
    assert m.last_exec_pc == PMEM_BASE + 4           # the branch that entered
    assert m.prev_exec_pc == PMEM_BASE


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
    assert m.prev_lr == first_lr


def test_gateway_window_off_an_entry_point_faults():
    # only the five entry points trap to the monitor; the rest of the
    # window holds no gateway instruction, so fetching there faults
    for addr, kind in ((isa.NSC_BASE + 2, FaultKind.UNALIGNED),
                       (NSC_EXIT + 4, FaultKind.UNMAPPED),
                       (isa.NSC_BASE + isa.NSC_SIZE - 4, FaultKind.UNMAPPED)):
        m = load_program("main:\n halt\n")
        m.enter_nonsecure(addr)
        assert m.step() == Fault(kind, addr)
        assert m.world is World.NONSECURE


# --- run(limit, gateway): logged transfers serviced inside the block ----------

GATEWAY_CALL = """
main:
    mov r0, #1
    bl trampoline_cond
    add r0, r0, #1
    halt
"""


class CountingGateway:
    """A gateway handler stub: records each call and resumes at lr, or
    refuses every entry once ``resume`` is set False."""

    def __init__(self, m):
        self.m, self.resume, self.calls = m, True, []

    def __call__(self, addr, caller_pc, pre_caller_pc, prev_lr):
        self.calls.append((addr, caller_pc, pre_caller_pc, prev_lr))
        return self.m.regs[isa.LR] if self.resume else None


def at_gateway_call(delta=None):
    m = load_program(GATEWAY_CALL)
    if delta is not None:
        m.timer.arm(delta)
    m.enter_nonsecure(PMEM_BASE)
    return m, CountingGateway(m)


def test_run_deadline_on_a_gateway_pc_wins_over_the_handler():
    m, gw = at_gateway_call(delta=2)                  # mov, bl: then the deadline
    assert m.run(100, gw) == (2, TimerTrigger())
    assert gw.calls == []
    assert m.pc == TRAMP_COND and m.world is World.SECURE


def test_run_limit_before_a_gateway_entry_leaves_it_for_the_next_block():
    m, gw = at_gateway_call()
    assert m.run(2, gw) == (2, None)
    assert gw.calls == [] and m.pc == TRAMP_COND
    assert m.run(1, gw) == (0, None)                  # the entry is the one cycle
    assert gw.calls == [(TRAMP_COND, PMEM_BASE + 4, PMEM_BASE, 0)]
    assert m.pc == PMEM_BASE + 8 and m.world is World.NONSECURE


def test_run_serviced_entry_is_a_cycle_but_not_a_watchdog_instruction():
    m, gw = at_gateway_call(delta=1000)
    assert m.run(3, gw) == (2, None)
    assert len(gw.calls) == 1
    assert (m.cycle_count, m.timer.elapsed) == (3, 2)
    assert m.run(None, gw) == (1, Halted())           # add, then halt ends it
    assert (m.cycle_count, m.timer.elapsed) == (5, 4)


def test_run_handler_refusal_yields_the_event_of_no_handler():
    plain, _ = at_gateway_call(delta=1000)
    refused, gw = at_gateway_call(delta=1000)
    gw.resume = False
    expected = plain.run(100)
    assert isinstance(expected[1], NscEntry)
    assert refused.run(100, gw) == expected
    assert len(gw.calls) == 1
    assert machine_state(refused) == machine_state(plain)


@pytest.mark.parametrize("entry", sorted(isa.NSC_SYMBOLS.values()))
def test_run_a_serviced_entry_resuming_at_an_entry_faults(entry):
    # a gateway returns as a BXNS does: into Secure memory it faults, with
    # the entry serviced and its one cycle the fault's
    for limit in (1, 100):
        m, gw = at_gateway_call(delta=1000)
        assert m.run(2) == (2, None) and m.pc == TRAMP_COND
        m.regs[isa.LR] = entry
        assert m.run(limit, gw) == (0, Fault(FaultKind.EXEC_VIOLATION, entry))
        assert len(gw.calls) == 1
        assert m.pc == entry and m.cycle_count == 3 and m.timer.elapsed == 2


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


def test_machines_of_one_image_keep_their_own_predecoded_words():
    prog = isa.assemble("main:\n mov r0, #7\n mov r1, #9\n"
                        "loop:\n add r1, r1, #1\n cmp r1, #20\n blt loop\n halt\n")
    head = prog.labels["loop"]
    shared = vm._Code(prog.image)
    a, b = Machine(prog.image, shared), Machine(prog.image, shared)
    assert a._code is shared and b._code is shared
    assert Machine(prog.image)._code is not shared     # one handed none builds its own
    probe = Machine(prog.image, shared)         # builds the image's blocks and loop
    probe.pc = prog.entry
    assert probe.run() == (2 + 3 * 11, Halted())
    built, loops = dict(shared.blocks), dict(shared.loops)
    assert built and list(loops) == [head]
    image_digest = hashlib.sha256(prog.image).digest()
    assert a.hash_pmem() == b.hash_pmem() == image_digest    # measured once, shared
    halt_word = isa.Instruction(isa.OP_HALT, 0, 0, 0).encode()
    a.write_pmem(PMEM_BASE, halt_word)
    assert a.hash_pmem() == hashlib.sha256(a.pmem).digest() != image_digest
    a.store_word(PMEM_BASE + 4, int.from_bytes(halt_word, "big"))
    assert a.hash_pmem() == hashlib.sha256(a.pmem).digest()
    assert b.hash_pmem() == image_digest != a.hash_pmem()   # the patched twin differs
    for pc in (PMEM_BASE, PMEM_BASE + 4):     # a fetches its new words first
        a.reset()
        a.pc = pc
        assert isinstance(a.step(), Halted)
    assert a._code is not shared
    assert b._code is shared and shared.blocks == built   # b's blocks stay in place
    for m in (b, Machine(prog.image, shared)):    # an old and a new twin
        m.pc = prog.entry
        assert isinstance(m.step(), Executed) and isinstance(m.step(), Executed)
        assert (m.regs[0], m.regs[1]) == (7, 9)
        assert m.run() == (3 * 11, Halted()) and m.regs[1] == 20     # the loop, shared
    assert b._code is shared and all(shared.blocks[pc] is blk for pc, blk in built.items())
    assert shared.loops == loops and shared.loops[head] is loops[head]
    # the patched machine runs the loop from entries of its own
    a.reset()
    a.pc = head
    assert a.run() == (3 * 20, Halted()) and a.regs[1] == 20
    assert list(a._code.loops) == [head] and a._code.loops[head] is not loops[head]
    assert shared.loops == loops and shared.loops[head] is loops[head]


def test_each_word_of_an_image_is_decoded_once(monkeypatch):
    prog = isa.assemble("main:\n mov r0, #7\n mov r1, #9\n"
                        "loop:\n add r1, r1, #1\n cmp r1, #20\n blt loop\n nsc_call\n")
    words = [int.from_bytes(prog.image[k:k + 4], "big") for k in range(0, len(prog.image), 4)]
    decoded, decode = [], vm._decode
    monkeypatch.setattr(vm, "_decode", lambda word: decoded.append(word) or decode(word))
    m = Machine(prog.image)                            # builds code of its own
    m.pc = prog.entry
    assert m.run() == (2 + 3 * 11, Halted())          # builds its blocks and loop
    assert m._code.blocks
    addrs = list(range(PMEM_BASE, PMEM_BASE + len(prog.image), 4))
    for pc in addrs:                                   # then steps every word alone
        m.reset()
        m.pc = pc
        m.step()
    assert decoded == words
    assert sorted(m._code.ops) == addrs               # one closure a word
    twin = Machine(prog.image, m._code)                # shares what is decoded
    twin.pc = prog.entry
    assert twin.run() == (2 + 3 * 11, Halted()) and decoded == words


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
    m.write_pmem(PMEM_BASE, b"\xee\x00\x00\x00")
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
        return service_event(m, log, ev) is None
    return False


def assert_blocks_match_steps(make, limit, max_cycles=50_000):
    """Run one machine in blocks of ``limit``, a twin one step at a time
    and the reference machine in blocks of ``limit``; after every block
    all three must hold the same event and the same state. ``make(cls)``
    builds a machine of class ``cls``. Returns the events, up to the end
    of the run or ``max_cycles``."""
    stepped, batched, ref = make(Machine), make(Machine), make(ReferenceMachine)
    logs = [CfLog(capacity=1 << 20) for _ in range(3)]
    events = []
    while batched.cycle_count < max_cycles:
        n, ev = batched.run(limit)
        assert ref.run(limit) == (n, ev)
        for _ in range(n):
            assert stepped.step() == Executed(stepped.last_exec_pc)
        if ev is not None:
            assert stepped.step() == ev
            events.append(ev)
        assert machine_state(stepped) == machine_state(batched) == machine_state(ref)
        assert stepped.dmem == batched.dmem == ref.dmem
        assert stepped.pmem == batched.pmem == ref.pmem
        if ev is not None:
            go_on = resume_after(stepped, ev, logs[0])
            assert resume_after(batched, ev, logs[1]) == go_on
            assert resume_after(ref, ev, logs[2]) == go_on
            if not go_on:
                break
    return events


def load_as(cls, asm):
    """``load_program`` for a machine of class ``cls``."""
    return load_program(asm) if cls is Machine else load_reference(asm)


def deployed(asm, words, delta=None):
    asm2, _ = instrument(asm)
    prog2 = isa.assemble(asm2)

    def make(cls):
        m = cls(prog2.image)
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
        assert events[-1] == NscEntry(NSC_EXIT)


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

        def make(cls):
            m = cls(bytes(image))
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


def test_a_run_resumed_partway_through_a_block_builds_the_block_there():
    text = "main:\n" + "".join(f" add r{i % 5}, r{i % 5}, #{i + 1}\n" for i in range(12)) \
        + " cmp r0, #40\n blt main\n halt\n"
    m, stepped = load_program(text), load_program(text)
    for x in (m, stepped):
        x.enter_nonsecure(PMEM_BASE)
    assert m.run(7) == (7, None)
    stop = PMEM_BASE + 7 * 4
    assert m.pc == stop and stop not in m._code.blocks
    n, ev = m.run()
    assert ev == Halted() and stop in m._code.blocks
    events = [stepped.step() for _ in range(7 + n + 1)]
    assert events[-1] == Halted() and Halted() not in events[:-1]
    assert machine_state(m) == machine_state(stepped)


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

    made = []

    def make(cls):
        m = load_as(cls, SELF_PATCH)
        load_input(m, [patched])
        m.hash_pmem()                    # measured before the app patches itself
        m.enter_nonsecure(m.pc)
        made.append(m)
        return m
    image_digest = hashlib.sha256(isa.assemble(SELF_PATCH).image).digest()
    (ev,) = assert_blocks_match_steps(make, limit)
    assert ev.addr == NSC_EXIT
    assert [m.regs[0] for m in made] == [2, 2, 2]
    for m in made:
        assert m.hash_pmem() == hashlib.sha256(m.pmem).digest() != image_digest


@pytest.mark.parametrize("limit", [1, 7, UNBOUNDED])
def test_fetch_from_dmem(limit):
    # dmem is never executable for the app, locked or not; the Secure
    # World runs it from outside the predecoded table
    code = [isa.Instruction(isa.OP_MOV_IMM, 0, 0, 7), isa.Instruction(isa.OP_BX_LR)]
    words = [int.from_bytes(i.encode(), "big") for i in code]
    asm = "main:\n mov r4, #dmem_base\n blx r4\n nsc_call\n"

    def make(world):
        def build(cls):
            m = load_as(cls, asm)
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


# --- the closures against the reference opcode chain --------------------------

I = isa.Instruction
DATA_REGS = list(range(13))
REG = st.sampled_from(DATA_REGS)
OPERAND = st.sampled_from(DATA_REGS + [isa.LR, isa.PC])
IMM = st.one_of(st.integers(0, 9), st.integers(0, 0xFFFF))
OFFSET = st.sampled_from([0, 1, 2, 4, 8, 64, 0x7FFC, 0xFFFF])
REG_VALUE = st.one_of(
    st.sampled_from([DMEM_BASE + 64, DMEM_BASE + 66, STACK_TOP - 8, MATRIX_UNMAPPED,
                     isa.SECURE_BASE, isa.RETAINED_BASE]),
    st.integers(0, 12).map(lambda k: PMEM_BASE + 4 * k),
    st.integers(0, vm.MASK32))
CONTROL = frozenset({isa.OP_B, isa.OP_BCOND, isa.OP_BL, isa.OP_BLX, isa.OP_BX_LR,
                     isa.OP_NSC_CALL, isa.OP_HALT})

# each piece is a function of the program's length in words, so branch
# targets can land anywhere in it, just past its end, or on a gateway entry
ARITH = st.one_of(
    st.builds(lambda d, s, i: lambda n: [I(isa.OP_ADD_RI, d, s, i)], OPERAND, OPERAND, IMM),
    st.builds(lambda d, s, i: lambda n: [I(isa.OP_SUB_RI, d, s, i)], OPERAND, OPERAND, IMM),
    st.builds(lambda d, i: lambda n: [I(isa.OP_MOV_IMM, d, 0, i)], OPERAND, IMM),
    st.builds(lambda d, s: lambda n: [I(isa.OP_MOV_REG, d, s)], OPERAND, OPERAND),
    st.builds(lambda d: lambda n: [I(isa.OP_MOV_REG, d, d)], REG),
    st.builds(lambda a, b, t: lambda n: [I(isa.OP_MOV_REG, t, a), I(isa.OP_MOV_REG, a, b),
                                         I(isa.OP_MOV_REG, b, t)], REG, REG, REG),
    st.builds(lambda d, s, t: lambda n: [I(isa.OP_ADD_RR, d, s, t)], OPERAND, OPERAND, OPERAND),
    st.builds(lambda d, s, t: lambda n: [I(isa.OP_SUB_RR, d, s, t)], OPERAND, OPERAND, OPERAND),
)
OTHER = st.one_of(
    st.builds(lambda r, b, o: lambda n: [I(isa.OP_LDR, r, b, o)], OPERAND, OPERAND, OFFSET),
    st.builds(lambda r, b, o: lambda n: [I(isa.OP_STR, r, b, o)], OPERAND, OPERAND, OFFSET),
    st.builds(lambda r: lambda n: [I(isa.OP_PUSH, r)], OPERAND),
    st.builds(lambda r: lambda n: [I(isa.OP_POP, r)], st.sampled_from(DATA_REGS + [isa.LR])),
    st.builds(lambda a, i: lambda n: [I(isa.OP_CMP_RI, a, 0, i)], OPERAND, IMM),
    st.builds(lambda a, b: lambda n: [I(isa.OP_CMP_RR, a, b)], OPERAND, OPERAND),
)


def _target(x, n):
    return TRAMP_COND if x < 0 else PMEM_BASE + 4 * (x % (n + 1))


TARGET = st.integers(-1, 1000)
ENDING = st.one_of(
    st.builds(lambda t: lambda n: [I(isa.OP_B, 0, 0, _target(t, n))], TARGET),
    st.builds(lambda c, t: lambda n: [I(isa.OP_BCOND, c, 0, _target(t, n))],
              st.sampled_from(range(6)), TARGET),
    st.builds(lambda a, i, c, t: lambda n: [I(isa.OP_CMP_RI, a, 0, i),
                                            I(isa.OP_BCOND, c, 0, _target(t, n))],
              OPERAND, IMM, st.sampled_from(range(6)), TARGET),
    st.builds(lambda t: lambda n: [I(isa.OP_BL, 0, 0, _target(t, n))], TARGET),
    st.builds(lambda r: lambda n: [I(isa.OP_BLX, r)], OPERAND),
    st.just(lambda n: [I(isa.OP_BX_LR)]),
    st.just(lambda n: [I(isa.OP_POP, isa.PC)]),
    st.just(lambda n: [I(isa.OP_NSC_CALL)]),
    st.just(lambda n: [I(isa.OP_HALT)]),
    st.just(lambda n: [I(0xEE)]),                    # an illegal word
    st.just(lambda n: []),
)
CHUNK = st.tuples(st.lists(ARITH, max_size=6), st.lists(OTHER, max_size=2), ENDING)


def build_image(chunks):
    pieces = [p for arith, other, end in chunks for p in arith + other + [end]]
    n = sum(len(p(0)) for p in pieces)
    return b"".join(i.encode() for p in pieces for i in p(n))


def first_block_length(image):
    for k in range(len(image) // 4):
        inst = isa.decode(image[4 * k:4 * k + 4])
        if inst is None or inst.op in CONTROL or (inst.op == isa.OP_POP and inst.ra == isa.PC):
            return k + 1
    return len(image) // 4


def full_state(m):
    return machine_state(m), bytes(m.dmem), bytes(m.pmem)


class BoundedGateway:
    """Resumes at lr, for at most a few entries, so no run loops on
    gateway entries alone."""

    def __init__(self, m):
        self.m, self.left = m, 8

    def __call__(self, addr, caller_pc, pre_caller_pc, prev_lr):
        self.left -= 1
        return self.m.regs[isa.LR] if self.left >= 0 else None


@settings(max_examples=150, deadline=None)
@given(chunks=st.lists(CHUNK, min_size=1, max_size=5),
       regs=st.lists(REG_VALUE, min_size=13, max_size=13),
       world=st.sampled_from(["ns_locked", "ns", "secure"]),
       delta=st.integers(1, 60), served=st.booleans())
def test_closures_match_the_reference_chain(chunks, regs, world, delta, served):
    image = build_image(chunks)

    def make(cls):
        m = cls(image)
        m.regs[:13] = regs
        if world == "ns_locked":
            m.lock_pmem()
        if world != "secure":
            m.timer.arm(delta)
            m.enter_nonsecure(PMEM_BASE)
        return m

    def run(m, limit):
        return m.run(limit, BoundedGateway(m) if served else None)

    # the watchdog ends a Non-Secure run; the Secure World needs a limit
    whole = None if world != "secure" else 400
    a, b = make(Machine), make(ReferenceMachine)
    assert run(a, whole) == run(b, whole)
    assert full_state(a) == full_state(b)
    for k in range(1, first_block_length(image) + 1):
        a, b = make(Machine), make(ReferenceMachine)
        assert run(a, k) == run(b, k)
        assert full_state(a) == full_state(b)
        # the rest of the run, in the world the first part left
        assert run(a, 400) == run(b, 400)
        assert full_state(a) == full_state(b)
    a, b = make(Machine), make(ReferenceMachine)
    for _ in range(300):
        ev = a.step()
        assert ev == b.step()
        assert full_state(a) == full_state(b)
        if not isinstance(ev, Executed):
            break


LONG_BLOCK = """
main:
    mov r7, #dmem_base
    mov r0, #0
loop:
    add r0, r0, #1
    mov r1, r0
    sub r2, r1, #3
    ldr r3, [r7]
    add r3, r3, r2
    str r3, [r7, #4]
    mov r4, r3
    add r5, r5, #2
    cmp r0, #30
    blt loop
    nsc_call
"""


@pytest.mark.parametrize("limit", [1, 5, UNBOUNDED])
def test_a_deadline_at_every_offset_of_a_block(limit):
    for delta in range(1, 15):
        def make(cls):
            m = load_as(cls, LONG_BLOCK)
            m.timer.arm(delta)
            m.enter_nonsecure(m.pc)
            return m
        events = assert_blocks_match_steps(make, limit)
        assert TimerTrigger() in events
        assert events[-1].addr == NSC_EXIT


# --- counted self-loops against the reference chain ----------------------------

# r2 steps and is compared, by an immediate or by r6; r5 is its bound, or is
# loaded into each iteration from [r7, #8]; r0, r1 and r4 may step too
INDUCTIONS = [lambda i: I(isa.OP_ADD_RI, 2, 2, i), lambda i: I(isa.OP_SUB_RI, 2, 2, i),
              lambda i: I(isa.OP_ADD_RR, 2, 2, 6), lambda i: I(isa.OP_ADD_RR, 2, 6, 2),
              lambda i: I(isa.OP_SUB_RR, 2, 2, 6)]
LOOP_FILLER = st.sampled_from([
    I(isa.OP_ADD_RI, 0, 0, 3), I(isa.OP_SUB_RI, 0, 0, 1), I(isa.OP_MOV_IMM, 1, 0, 9),
    I(isa.OP_LDR, 3, 7, 0), I(isa.OP_LDR, 3, 7, 4), I(isa.OP_ADD_RR, 4, 4, 3),
    I(isa.OP_SUB_RR, 4, 4, 1), I(isa.OP_MOV_REG, 1, 3), I(isa.OP_ADD_RR, 1, 1, 5),
    I(isa.OP_LDR, 5, 7, 8),
    # none of these is a counted self-loop: the loop keeps the block path
    (I(isa.OP_ADD_RI, 0, 0, 3), I(isa.OP_MOV_REG, 8, 0)), I(isa.OP_ADD_RR, 0, 0, 0),
    I(isa.OP_SUB_RR, 0, 1, 0), I(isa.OP_LDR, 7, 7, 0),
]).map(lambda f: (f,) if isinstance(f, I) else f)
COMPARES = [I(isa.OP_CMP_RR, 2, 5), I(isa.OP_CMP_RR, 5, 2)]
NEAR_EDGE = st.one_of(
    st.builds(lambda edge, off: (edge + off) & vm.MASK32,
              st.sampled_from([0, 1 << 31, 1 << 32]), st.integers(-80, 80)),
    st.integers(0, vm.MASK32))
ITERATIONS = st.tuples(st.integers(0, 50), st.integers(-2, 2))
STEP = st.one_of(st.integers(-9, 9).map(lambda s: s & vm.MASK32),
                 st.sampled_from([(1 << 31) - 1, 1 << 31, (1 << 31) + 1]),
                 st.integers(0, vm.MASK32))


@settings(max_examples=600, deadline=None)
@given(prefix=st.booleans(), induction=st.sampled_from(range(5)), imm=IMM, step=STEP,
       filler=st.lists(st.tuples(st.booleans(), LOOP_FILLER), max_size=5),
       compare=st.sampled_from(range(3)), cond=st.sampled_from(range(6)),
       x=NEAR_EDGE, bound=NEAR_EDGE,
       aim=st.one_of(st.none(), st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 40)),
                                          st.sampled_from([0, 0, 0, -2, -1, 1, 2]))),
       words=st.one_of(st.none(), st.lists(NEAR_EDGE, min_size=3, max_size=3)),
       base=st.sampled_from([DMEM_BASE + 64, DMEM_BASE + 66, MATRIX_UNMAPPED]),
       world=st.sampled_from(["ns", "secure"]), delta=ITERATIONS,
       limits=st.lists(ITERATIONS, min_size=1, max_size=4))
def test_counted_self_loops_run_as_the_reference_chain(
        prefix, induction, imm, step, filler, compare, cond, x, bound, aim, words, base,
        world, delta, limits):
    head = PMEM_BASE + 4 * prefix
    body = [i for first, f in filler if first for i in f] + [INDUCTIONS[induction](imm)] \
        + [i for first, f in filler if not first for i in f]
    if compare == 2:
        bound &= 0xFFFF
    cmp = COMPARES[compare] if compare < 2 else I(isa.OP_CMP_RI, 2, 0, bound)
    if aim is not None:
        # the bound is ``trips`` steps of r2 away, give or take ``skew``
        trips, skew = aim
        s = (imm, -imm, step, step, -step)[induction]
        x = (bound - trips * s - skew) & vm.MASK32
    if words is None:             # a chain: a load through r7 moves it on
        words = [DMEM_BASE + 68, DMEM_BASE + 72, DMEM_BASE + 76]
    # whole iterations, give or take a few instructions
    delta, *limits = [max(1, (len(body) + 2) * whole + part) for whole, part in [delta, *limits]]
    assert_loop_runs_as_the_reference_chain(
        [I(isa.OP_MOV_IMM, 1, 0, 5)] * prefix + body + [cmp, I(isa.OP_BCOND, cond, 0, head)],
        [7, 0, x, 0, 11, bound, step, base, 0], words[:2] + [bound if aim else words[2]],
        limits * 3, delta if world == "ns" else None)


def assert_loop_runs_as_the_reference_chain(code, regs, words, limits, delta=None,
                                            door=True, served=False):
    """Run ``code`` and an exit door from pmem's start, with ``regs`` from
    r0 and ``words`` at dmem_base + 64, in calls of each of ``limits`` on
    a machine and on the reference chain, and compare their whole states
    after every call. With ``delta`` they run Non-Secure under a watchdog,
    re-armed at every deadline. Without ``door`` the image ends with
    ``code``; with ``served`` each side has every ``trampoline_cond``
    entry serviced by a ``ServingGateway``. Returns the machine."""
    image = b"".join(i.encode() for i in [*code, *[I(isa.OP_NSC_CALL)] * door])

    def make(cls):
        m = cls(image)
        m.regs[:len(regs)] = regs
        load_input(m, [0] * 16 + words)
        if delta is not None:
            m.timer.arm(delta)
            m.enter_nonsecure(PMEM_BASE)
        return m, ServingGateway(m, 1 << 40, 1 << 40) if served else None

    (a, gw_a), (b, gw_b) = make(Machine), make(ReferenceMachine)
    for limit in limits:
        ran = a.run(limit, gw_a)
        assert ran == b.run(limit, gw_b)
        assert full_state(a) == full_state(b)
        assert (gw_a and gw_a.entries) == (gw_b and gw_b.entries)
        if isinstance(ran[1], TimerTrigger):
            for m in (a, b):
                m.timer.resume()
                m.enter_nonsecure(m.pc)
        elif ran[1] is not None:
            break
    return a


@pytest.mark.parametrize("cond", range(6))
def test_counted_self_loops_meet_their_bound_as_the_reference_chain(cond):
    # each side of the compare, steps up and down, bounds met or passed at
    # the first iterations, and a bound near the signed wrap
    compares = [(cmp, bound) for cmp in COMPARES for bound in (5, (1 << 31) - 2)]
    for (cmp, bound), step, trips, skew in itertools.product(
            compares + [(I(isa.OP_CMP_RI, 2, 0, 5), 5)], (1, 3, -1, -3, (1 << 31) + 1),
            (1, 2, 3, 6), (-1, 0, 1)):
        x = (bound - trips * step - skew) & vm.MASK32
        assert_loop_runs_as_the_reference_chain(
            [I(isa.OP_ADD_RR, 2, 2, 6), cmp, I(isa.OP_BCOND, cond, 0, PMEM_BASE)],
            [0, 0, x, 0, 0, bound, step & vm.MASK32], [], [3 * 9, 3 * 4 + 1, 30])


# a counted self-loop's body, and bodies that break one of its rules, each
# run with r2 compared to r5 under every condition and limit
NEAR_LOOPS = {
    "particle_count": [I(isa.OP_LDR, 3, 7, 0), I(isa.OP_ADD_RR, 4, 4, 3),
                       I(isa.OP_SUB_RI, 0, 0, 1), I(isa.OP_ADD_RI, 2, 2, 1)],
    "moving_load": [I(isa.OP_LDR, 7, 7, 0), I(isa.OP_ADD_RI, 2, 2, 1)],
    "copy_after_step": [I(isa.OP_ADD_RI, 0, 0, 3), I(isa.OP_MOV_REG, 8, 0),
                        I(isa.OP_ADD_RI, 2, 2, 1)],
    "copy_before_step": [I(isa.OP_MOV_REG, 8, 0), I(isa.OP_ADD_RI, 0, 0, 3),
                         I(isa.OP_ADD_RI, 2, 2, 1)],
    "negated": [I(isa.OP_SUB_RR, 0, 1, 0), I(isa.OP_ADD_RI, 2, 2, 1)],
    "doubled": [I(isa.OP_ADD_RR, 0, 0, 0), I(isa.OP_ADD_RI, 2, 2, 1)],
    "both_step": [I(isa.OP_ADD_RI, 5, 5, 1), I(isa.OP_ADD_RI, 2, 2, 2)],
    "bound_stepped_before": [I(isa.OP_ADD_RI, 2, 2, 1), I(isa.OP_MOV_REG, 5, 2)],
    "bound_loaded": [I(isa.OP_LDR, 5, 7, 8), I(isa.OP_ADD_RI, 2, 2, 1)],
}


@pytest.mark.parametrize("body", NEAR_LOOPS.values(), ids=NEAR_LOOPS)
def test_loops_near_a_counted_self_loop_run_as_the_reference_chain(body):
    size = len(body) + 2
    for cond, limit in itertools.product(range(6), range(1, 5 * size + 2)):
        assert_loop_runs_as_the_reference_chain(
            body + [I(isa.OP_CMP_RR, 2, 5), I(isa.OP_BCOND, cond, 0, PMEM_BASE)],
            [1, 0, 0, 0, 0, 9, 0, DMEM_BASE + 64],
            [DMEM_BASE + 68, DMEM_BASE + 72, 7], [limit, 17 * size])


BLT_HEAD = I(isa.OP_BCOND, isa.COND_LT, 0, PMEM_BASE)
BL_COND = I(isa.OP_BL, 0, 0, TRAMP_COND)
CMP_R2 = I(isa.OP_CMP_RI, 2, 0, PMEM_BASE)

# code from pmem's start, the head, whose pass ``vm._loop`` refuses, by the
# rule each breaks; the flag says whether an exit door follows the code
REFUSED_PASSES = {
    "no_row": ([I(isa.OP_ADD_RI, 2, 2, 1), BL_COND, I(isa.OP_ILLEGAL)], True),
    "off_the_end": ([I(isa.OP_ADD_RI, 2, 2, 1), BL_COND], False),
    "last_not_a_cmp": ([I(isa.OP_ADD_RI, 1, 1, 1), I(isa.OP_CMP_RI, 1, 0, PMEM_BASE),
                        I(isa.OP_MOV_REG, 2, 1), BLT_HEAD], True),
    "three_entries": ([I(isa.OP_ADD_RI, 2, 2, 1), BL_COND, BL_COND, BL_COND, CMP_R2,
                       BLT_HEAD], True),
    "writes_sp": ([I(isa.OP_ADD_RI, isa.SP, isa.SP, 0), I(isa.OP_ADD_RI, 2, 2, 1), CMP_R2,
                   BLT_HEAD], True),
}


@pytest.mark.parametrize("code, door", REFUSED_PASSES.values(), ids=REFUSED_PASSES)
def test_passes_with_no_closed_form_run_as_the_reference_chain(code, door):
    # the compared register starts a few passes below pmem's base and pc;
    # a first call of 2 instructions or more builds the head's block
    for limit in (2, 3, 5, 50_000):
        m = assert_loop_runs_as_the_reference_chain(
            code, [0, PMEM_BASE - 3, PMEM_BASE - 3], [], [limit, 50_000], door=door,
            served=True)
        assert PMEM_BASE in m._code.blocks and PMEM_BASE not in m._code.loops


# --- passes through the conditional gateway against the reference chain ---------

class ServingGateway:
    """Services a ``trampoline_cond`` entry as ``service_gateway`` does,
    with no log: resumes at lr and gives the app its lr back, refusing
    every entry after the first ``left``. ``repeat`` takes up to ``cap``
    of the passes offered, and no more than are left; ``entries`` counts
    each entry serviced, one at a time or in a pass taken at once."""

    def __init__(self, m, cap, left):
        self.m, self.cap, self.left, self.entries = m, cap, left, 0

    def __call__(self, addr, caller_pc, pre_caller_pc, prev_lr):
        if self.entries == self.left:
            return None
        self.entries += 1
        resume, self.m.regs[isa.LR] = self.m.regs[isa.LR], prev_lr
        return resume

    def repeat(self, arrivals, k):
        k = min(k, self.cap, (self.left - self.entries) // len(arrivals))
        self.entries += k * len(arrivals)
        return k


# whole passes, mostly many, give or take a few instructions
PASSES = st.tuples(st.integers(2, 60) | st.integers(2, 60) | st.integers(0, 2),
                   st.integers(-2, 2))


@settings(max_examples=400, deadline=None)
@given(induction=st.sampled_from(range(5)), imm=IMM,
       step=st.integers(-9, 9).map(lambda s: s & vm.MASK32) | STEP,
       filler=st.lists(LOOP_FILLER, max_size=4), closing=st.booleans(),
       site=st.one_of(st.none(), st.integers(0, 5)), fall=st.one_of(st.none(), st.integers(0, 5)),
       compare=st.sampled_from(range(3)), cond=st.sampled_from(range(6)), x=NEAR_EDGE,
       bound=NEAR_EDGE, trips=st.none() | st.integers(1, 40) | st.integers(8, 40)
       | st.integers(8, 40),
       pick=st.integers(0, 2),
       cap=st.sampled_from([0, 1, 3, 1 << 40, 1 << 40]),
       left=st.sampled_from([3, 40, 1 << 40, 1 << 40]),
       world=st.sampled_from(["ns", "ns", "ns", "secure"]), delta=PASSES,
       limits=st.lists(PASSES, min_size=1, max_size=4))
def test_gateway_passes_run_as_the_reference_chain(
        induction, imm, step, filler, closing, site, fall, compare, cond, x, bound, trips,
        pick, cap, left, world, delta, limits):
    """A counted loop whose passes enter ``trampoline_cond`` (through the
    closing branch's target just before the head, a site in the body, or
    both) and run through a branch to its own fall-through: passes taken
    at once leave the machine, and the entries serviced, as the reference
    chain's entry-by-entry service does. With ``trips`` the counter starts
    that many steps off the bound, and the condition holds while it moves
    toward it."""
    body = [i for f in filler for i in f] + [INDUCTIONS[induction](imm)]
    insert = [(site, I(isa.OP_BL, 0, 0, TRAMP_COND))] if site is not None else []
    if fall is not None:
        insert.append((fall, None))           # a cmp and a branch to the next word
    for at, inst in sorted(insert, key=lambda p: p[0], reverse=True):
        at = min(at, len(body))
        body[at:at] = [inst] if inst is not None else [I(isa.OP_CMP_RI, 0, 0, 5), None]
    if compare == 2:
        bound &= 0xFFFF
    if trips is not None:
        s = (imm, -imm, step, step, -step)[induction] & vm.MASK32
        x = (bound - trips * s) & vm.MASK32
        rising = s < 1 << 31
        cond = ((isa.COND_LT, isa.COND_LE, isa.COND_NE) if rising == (compare != 1)
                else (isa.COND_GT, isa.COND_GE, isa.COND_NE))[pick]
    head = PMEM_BASE + 4
    code = [I(isa.OP_BL, 0, 0, TRAMP_COND) if closing else I(isa.OP_MOV_IMM, 1, 0, 5)]
    for inst in body:
        code.append(inst if inst is not None
                    else I(isa.OP_BCOND, cond, 0, PMEM_BASE + 4 * (len(code) + 1)))
    code += [COMPARES[compare] if compare < 2 else I(isa.OP_CMP_RI, 2, 0, bound),
             I(isa.OP_BCOND, cond, 0, PMEM_BASE if closing else head), I(isa.OP_NSC_CALL)]
    image = b"".join(i.encode() for i in code)
    size = len(code) - 1 if closing else len(code) - 2

    def make(cls):
        m = cls(image)
        m.regs[:9] = [7, 0, x, 0, 11, bound, step, DMEM_BASE + 64, 0]
        load_input(m, [0] * 16 + [DMEM_BASE + 68, DMEM_BASE + 72, bound])
        if world == "ns":
            m.timer.arm(max(1, size * delta[0] + delta[1]))
            m.enter_nonsecure(PMEM_BASE)
        return m, ServingGateway(m, cap, left)

    (a, gw_a), (b, gw_b) = make(Machine), make(ReferenceMachine)
    for limit in [max(1, (size + 2) * whole + part) for whole, part in limits * 3] + [5000]:
        ran = a.run(limit, gw_a)
        assert ran == b.run(limit, gw_b)
        assert full_state(a) == full_state(b) and gw_a.entries == gw_b.entries
        if isinstance(ran[1], TimerTrigger):
            for m in (a, b):
                m.timer.resume()
                m.enter_nonsecure(m.pc)
        elif ran[1] is not None:
            break


def test_a_counted_self_loop_runs_its_iterations_at_once():
    # 2**32 iterations, far more than dispatching each could run
    m = load_program("main:\n mov r2, #0\nloop:\n add r2, r2, #1\n"
                     " cmp r2, #0\n bne loop\n halt\n")
    assert m.run() == (1 + 3 * (1 << 32), Halted())
    assert m.regs[2] == 0 and m.flag_z
    assert list(m._code.loops) == [PMEM_BASE + 4] and PMEM_BASE + 4 not in m._code.blocks


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("policy", [POLICY_WIPE, POLICY_FREEZE, POLICY_DISABLE],
                         ids=["wipe", "freeze", "disable"])
@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")))
def test_sessions_run_alike_on_the_reference_machine(monkeypatch, name, policy):
    # bundled sessions with their program-memory writes: a flipped bit,
    # the heal of each policy, and power cuts
    spec = scenario.parse_scenario(SCENARIO_DIR / f"{name}.scn")
    spec = replace(spec, policy=policy, max_ticks=min(spec.max_ticks, 20_000))
    clear_image_caches()
    expected = scenario.run(spec)
    if name in ("image_tamper", "overflow_hijack"):
        assert expected.heal_issued
    monkeypatch.setattr(scenario, "Machine", ReferenceMachine)
    assert scenario.run(spec) == expected


def test_a_machine_is_freed_by_reference_counting_alone():
    patched = int.from_bytes(isa.Instruction(isa.OP_MOV_IMM, 0, 0, 2).encode(), "big")
    gc.disable()
    try:
        for asm, words, handler in ((SELF_PATCH, [patched], False),
                                    (GATEWAY_CALL, [], True),
                                    ("main:\n mov r1, #0\n ldr r0, [r1]\n", [], False)):
            m = load_program(asm)
            load_input(m, words)
            m.enter_nonsecure(m.pc)
            ends = m.run(None, CountingGateway(m) if handler else None)[1]
            assert isinstance(ends, (NscEntry, Halted, Fault))
            ref = weakref.ref(m)
            del m
            assert ref() is None
    finally:
        gc.enable()
