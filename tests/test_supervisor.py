"""Device-side protocol driver tests: gateway servicing, the retained
context block, report generation, retransmission, remediation, and the
reset/boot recovery path. Verifier-side messages are crafted by hand so
each device behavior is pinned independently."""

import copy
import functools
import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from cfaudit import isa, wire
from cfaudit.cfa_engine import COUNT_MASK, CfLog, decompress, runs
from cfaudit.instrument import instrument
from cfaudit.resolver import POLICY_DISABLE, POLICY_FREEZE, POLICY_WIPE, WIPE_CHUNK
from cfaudit.isa import LR, NSC_EXIT, TRAMP_COND, TRAMP_ICALL, TRAMP_LOOP, TRAMP_RET
from cfaudit.context import (AuditContext, CTX_HEADER_SIZE, F_FINAL, F_FROZEN,
                             F_REPORT_PENDING, F_VALID, LOG_BUFFER_OFFSET, OFFSETS)
from cfaudit.scenario import load_input
from cfaudit.supervisor import Prover, ProverConfig, ProverState, service_gateway
from cfaudit.vm import Machine, NscEntry, World

from support import advance_by_events, generate_program, run_instrumented, service_event

KEY = ProverConfig().key


# --- helpers -----------------------------------------------------------------

def build(asm, policy=POLICY_WIPE, log_max=4096, input_words=None):
    asm2, _ = instrument(asm)
    prog2 = isa.assemble(asm2)
    m = Machine(prog2.image)
    if input_words:
        load_input(m, input_words)
    cfg = ProverConfig(policy=policy, log_max=log_max)
    p = Prover(m, cfg, prog2.entry)
    return p, m, prog2


def request(chal=1, delta=500_000, app_id=1, key=KEY):
    return wire.AttestRequest(app_id, delta, chal).pack(key)


def pump(p, max_steps=2_000_000):
    """Step the device until it emits a message."""
    for _ in range(max_steps):
        out = p.step()
        if out:
            return out
    raise AssertionError("device went quiet")


def run_to_gateway(asm, stop_addr=None, times=1):
    """Step a bare machine to its n-th gateway entry, servicing the ones
    on the way there with a scratch log so execution keeps moving."""
    asm2, _ = instrument(asm)
    prog2 = isa.assemble(asm2)
    m = Machine(prog2.image)
    scratch = CfLog(capacity=4096)
    m.enter_nonsecure(prog2.entry)
    seen = 0
    for _ in range(100_000):
        ev = m.step()
        if not isinstance(ev, NscEntry):
            continue
        if stop_addr is None or ev.addr == stop_addr:
            seen += 1
            if seen == times:
                return m, ev, prog2
        if ev.addr == NSC_EXIT:
            break                                     # app finished early
        service_event(m, scratch, ev)
    raise AssertionError("no gateway entry")


DIAMOND = """
main:
    mov r0, #5
    cmp r0, #5
    beq yes
    mov r1, #1
    b out
yes:
    mov r1, #2
out:
    bl fn
    nsc_call
fn:
    bx lr
"""

SINGLETON_LOOP = """
main:
    mov r0, #0
spin:
    add r0, r0, #2
    cmp r0, #40
    blt spin
    nsc_call
"""


# --- gateway service contract -------------------------------------------------

def test_cond_service_logs_arrival_and_restores_lr():
    m, ev, _ = run_to_gateway(DIAMOND, stop_addr=TRAMP_COND)
    lr_of_app = m.prev_lr
    dest = m.regs[LR]
    log = CfLog(capacity=256)
    assert service_event(m, log, ev) is None
    assert decompress(log.to_bytes()) == [dest]
    assert m.pc == dest
    assert m.regs[LR] == lr_of_app
    assert m.world is World.NONSECURE


def test_return_service_keeps_return_address_in_lr():
    m, ev, _ = run_to_gateway(DIAMOND, stop_addr=TRAMP_RET)
    dest = m.regs[LR]                                 # app's own return address
    log = CfLog(capacity=256)
    assert service_event(m, log, ev) is None
    assert decompress(log.to_bytes()) == [dest]
    assert m.pc == dest
    # the rewritten return enters through a plain jump, so lr was never
    # clobbered and nothing needs restoring
    assert m.regs[LR] == dest


def test_loop_service_writes_counted_record():
    asm = """
    main:
        mov r2, #0
    loop:
        add r0, r0, #1
        add r2, r2, #1
        cmp r2, #6
        bne loop
        nsc_call
    """
    m, ev, prog2 = run_to_gateway(asm, stop_addr=TRAMP_LOOP)
    exit_pc = m.regs[LR]
    log = CfLog(capacity=256)
    assert service_event(m, log, ev) is None
    assert decompress(log.to_bytes()) == [prog2.labels["loop"]] * 5
    assert len(log.to_bytes()) == 8                   # address + count, once
    assert m.pc == exit_pc


WINDOW = """
main:
    mov r7, #input_base
    ldr r5, [r7, #0]
    mov r2, #0
window:
    add r2, r2, #1
    cmp r2, r5
    {branch} window
    nsc_call
"""


def window_traversals(asm, limit):
    """Run ``asm``, whose counted loop at ``window`` reads its limit from
    input word 0, to the exit door under the bound gateway service, with
    no scenario clock. Returns the traversals the loop's static record
    logs (counts unexpanded) and the backward branches the VM took."""
    asm2, _ = instrument(asm)
    prog2 = isa.assemble(asm2)
    head = prog2.labels["window"]

    def drive(words):
        m = Machine(prog2.image)
        load_input(m, words)
        log = CfLog(capacity=256)
        m.enter_nonsecure(prog2.entry)
        n, ev = m.run(None, functools.partial(service_gateway, m, log, {}))
        assert ev == NscEntry(NSC_EXIT)
        return n, sum(count for unit, count in runs(log.to_bytes()) if unit == (head,)), m

    once, logged, m = drive([1])       # one iteration: no backward branch
    assert logged == 0 and head in m._code.loops      # the loop runs in closed form
    n, logged, _ = drive([limit])
    return logged, (n - once) // m._code.loops[head].size    # instructions an iteration


@pytest.mark.parametrize("branch, limit", [
    ("bne", 5),
    pytest.param("bne", 0, marks=pytest.mark.xfail(
        strict=True, reason="D2: a runtime limit of 0 wraps 2**32 - 1 times, logged as 0")),
    pytest.param("blt", 2 ** 29 + 4, marks=pytest.mark.xfail(
        strict=True, reason="D3: the static record clamps its limit at 2**29 - 1")),
], ids=["limit-5", "limit-0", "limit-2**29+4"])
def test_a_static_record_logs_every_backward_branch_the_loop_takes(branch, limit):
    logged, taken = window_traversals(WINDOW.format(branch=branch), limit)
    assert logged == taken


def test_a_register_limit_loop_of_2_28_iterations_runs_to_the_exit_door():
    # the particle_count shape; dispatching each iteration would take minutes
    asm = """
    main:
        mov r7, #input_base
        ldr r5, [r7, #0]
        mov r4, #0
        mov r2, #0
    window:
        ldr r3, [r7, #0]
        add r4, r4, r3
        sub r0, r0, #1
        add r2, r2, #1
        cmp r2, r5
        blt window
        nsc_call
    """
    assert window_traversals(asm, 1 << 28) == ((1 << 28) - 1,) * 2


def test_full_log_parks_the_machine():
    m, ev, _ = run_to_gateway(DIAMOND, stop_addr=TRAMP_COND)
    log = CfLog(capacity=0)                           # nothing fits
    assert service_event(m, log, ev) == "full"
    assert m.world is World.SECURE
    assert log.size == 0


# --- retained context block ---------------------------------------------------

def test_context_roundtrip():
    values = dict(flags=F_VALID | F_REPORT_PENDING, chal=77,
                  sigma=b"\x42" * 32, log_size=400, wipe_cursor=2048,
                  engine_state=bytes(range(14)))
    mem = bytearray(1024)
    ctx = AuditContext(mem)
    for name, value in values.items():
        setattr(ctx, name, value)
    back = AuditContext(mem)               # a second view reads the same bytes
    assert {name: getattr(back, name) for name in values} == values


# one row per 16 bytes of retained memory; the header ends at 0x7e and
# nothing behind it is written
GOLDEN_HEADER = bytes.fromhex(
    "41435458000000210c0d000000000000"  # magic flags chal
    "00000000000000000000000000000000"
    "00000000000000000000000000000000"
    "00000000000000000000000000000000"
    "0000000000000e0f4041424344454647"  # chal ends, then sigma
    "48494a4b4c4d4e4f5051525354555657"
    "58595a5b5c5d5e5f0000011100000222"  # sigma ends, log_size wipe_cursor
    "808182838485868788898a8b8c8deeee"  # engine_state
    "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee")


def test_context_layout_is_pinned():
    values = dict(flags=0x21, chal=0x0c0d << 496 | 0x0e0f,
                  sigma=bytes(range(0x40, 0x60)), log_size=0x111,
                  wipe_cursor=0x222, engine_state=bytes(range(0x80, 0x8e)))
    mem = bytearray(b"\xee") * 256
    ctx = AuditContext(mem)
    ctx.begin(values["chal"])
    for name, value in values.items():
        setattr(ctx, name, value)
    assert bytes(mem[:len(GOLDEN_HEADER)]) == GOLDEN_HEADER
    assert {name: getattr(ctx, name) for name in values} == values


def test_partial_stores_agree_with_the_full_store():
    # the log keeps its size and repetition in the header's own fields,
    # here with a repetition count in flight
    p, m, _ = build(SINGLETON_LOOP)
    p.boot()
    p.handle_message(request(chal=1))
    while sum(p.metrics.gateway_calls.values()) < 3:
        assert p.step() == []
    unit_len, _, count, _, _ = CfLog._STATE.unpack(p.log.checkpoint())
    assert p.log.size and unit_len and count
    kept = AuditContext(m.retained_mem)
    assert (kept.log_size, kept.engine_state) == (p.log.size, p.log.checkpoint())
    # a wipe chunk persists the cursor: a prover that lost its RAM reads it
    p, m, _ = build(BULKY, policy=POLICY_WIPE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    assert p.step() == []
    cursor = Prover(m, p.config, p.entry).ctx.wipe_cursor
    assert cursor == WIPE_CHUNK < len(m.pmem)
    # a freeze persists the flag
    p, m, _ = build(DIAMOND, policy=POLICY_FREEZE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    assert p.step() == []
    rebooted = Prover(m, p.config, p.entry)
    assert bool(rebooted.ctx.flags & F_FROZEN)
    assert rebooted.state is ProverState.FROZEN


def test_retained_log_state_follows_the_log_at_every_tick():
    # a repetition starts, grows and is flushed when the loop exits; the
    # context's log_size and engine_state must be the bytes the log reads
    # at each step, or a reset would go on with a log it never had
    p, m, _ = build(SINGLETON_LOOP)
    p.boot()
    p.handle_message(request(chal=1))
    seen_pending = False
    while p.state is ProverState.EXECUTING:
        p.step()
        seen_pending |= p.log.checkpoint() != CfLog.IDLE_STATE
        stored = AuditContext(m.retained_mem)
        assert stored.log_size == p.log.size
        assert stored.engine_state == p.log.checkpoint()
    assert seen_pending and p.metrics.triggers["end"] == 1

    # a whole session on a 16-byte log: capacity slices, each answered, and
    # the entry each one refused replayed as the next slice starts, the
    # log's size and repetition in the header at every tick and answer
    p, m, _ = build("main:\n" + "    bl fn\n" * 12 + "    nsc_call\nfn:\n    bx lr\n",
                    log_max=16)
    stored = AuditContext(m.retained_mem)

    def header_follows_the_prover():
        assert stored.log_size == p.log.size
        assert stored.engine_state == p.log.checkpoint()

    p.boot()
    p.handle_message(request(chal=1))
    chal = 1
    while p.state is not ProverState.WAITING:
        out = p.step()
        header_follows_the_prover()
        if out:
            done = decompress(wire.Report.parse(out[0]).log)[-1:] == [NSC_EXIT]
            chal += 1
            p.handle_message(wire.Response.make(
                KEY, wire.RESULT_END if done else wire.RESULT_EXEC, chal).pack())
            header_follows_the_prover()
    assert p.metrics.triggers["capacity"] >= 2 and p.metrics.triggers["end"] == 1
    assert stored.chal == chal


# --- session happy path ---------------------------------------------------------

def test_full_session_end_to_end():
    p, m, prog2 = build(DIAMOND)
    assert p.boot() == []
    assert p.state is ProverState.WAITING

    assert p.handle_message(request(chal=1)) == []
    assert p.state is ProverState.EXECUTING
    assert m.pmem_locked

    (report_bytes,) = pump(p)
    rep = wire.Report.parse(report_bytes)
    digest = hashlib.sha256(bytes(prog2.image)).digest()
    assert rep.sigma == wire.report_sigma(KEY, digest, rep.log, 1)
    dests = decompress(rep.log)
    assert dests[-1] == NSC_EXIT                      # end-of-app marker
    assert p.metrics.triggers["end"] == 1

    assert p.handle_message(wire.Response.make(KEY, wire.RESULT_END, 2).pack()) == []
    assert p.state is ProverState.WAITING
    # the header outlives the session: no flags, the concluding challenge
    kept = AuditContext(m.retained_mem)
    assert (kept.flags, kept.chal) == (0, 2)
    assert p.metrics.total_ns > 0


def test_report_retransmits_on_interval():
    p, _, _ = build(DIAMOND)
    p.boot()
    p.handle_message(request())
    (first,) = pump(p)
    again = pump(p)                                   # resend_interval steps later
    assert again == [first]
    assert p.metrics.retransmissions == 1


def test_duplicate_request_triggers_retransmit():
    p, _, _ = build(DIAMOND)
    p.boot()
    p.handle_message(request(chal=1))
    (first,) = pump(p)
    assert p.handle_message(request(chal=1)) == [first]
    assert p.metrics.retransmissions == 1


def test_bad_requests_ignored():
    p, _, _ = build(DIAMOND)
    p.boot()
    tampered = bytearray(request(chal=1))
    tampered[-1] ^= 1
    assert p.handle_message(bytes(tampered)) == []
    assert p.handle_message(request(app_id=9)) == []
    assert p.handle_message(request(key=b"\x99" * 32)) == []
    assert p.state is ProverState.WAITING


def test_stale_and_forged_responses_ignored():
    p, _, _ = build(DIAMOND)
    p.boot()
    p.handle_message(request(chal=5))
    pump(p)
    assert p.state is ProverState.TRANSMIT_WAIT
    # same challenge: replay; lower: stale; both ignored
    assert p.handle_message(wire.Response.make(KEY, wire.RESULT_END, 5).pack()) == []
    assert p.handle_message(wire.Response.make(KEY, wire.RESULT_END, 4).pack()) == []
    forged = wire.Response(wire.RESULT_END, 6, b"\x00" * 32).pack()
    assert p.handle_message(forged) == []
    assert p.state is ProverState.TRANSMIT_WAIT


def chained_conditionals(n):
    """n taken branches toward n distinct labels: n incompressible entries."""
    lines = ["main:", "    mov r0, #1"]
    for i in range(n):
        lines += [f"    cmp r0, #1", f"    beq hop{i}",
                  "    mov r2, #0", f"hop{i}:"]
    lines.append("    nsc_call")
    return "\n".join(lines)


def test_exec_response_resumes_with_fresh_slice():
    # 11 distinct arrivals plus the exit marker against a 16-byte log:
    # four entries per slice, so the run must split across reports
    p, m, prog2 = build(chained_conditionals(11), log_max=16)
    p.boot()
    p.handle_message(request(chal=1))
    slices = []
    chal = 1
    for _ in range(20):
        (report_bytes,) = pump(p)
        rep = wire.Report.parse(report_bytes)
        digest = hashlib.sha256(bytes(prog2.image)).digest()
        assert rep.sigma == wire.report_sigma(KEY, digest, rep.log, chal)
        slices.append(rep.log)
        if decompress(rep.log) and decompress(rep.log)[-1] == NSC_EXIT:
            break
        chal += 1
        p.handle_message(wire.Response.make(KEY, wire.RESULT_EXEC, chal).pack())
    else:
        pytest.fail("no final slice")
    assert p.metrics.triggers["capacity"] >= 1
    assert len(slices) > 1
    stitched = [d for s in slices for d in decompress(s)]
    assert stitched[-1] == NSC_EXIT
    assert len(stitched) == 12
    assert len(set(stitched)) == 12                   # no entry lost or repeated


@pytest.mark.parametrize("n", [11, 12])
def test_refused_events_are_replayed_and_counted_once(n):
    # four entries per slice: with 11 arrivals a refused arrival waits for
    # the next slice, with 12 the end-door itself does
    p, _, _ = build(chained_conditionals(n), log_max=16)
    p.boot()
    p.handle_message(request(chal=1))
    stitched = []
    for chal in range(2, 20):
        (report_bytes,) = pump(p)
        stitched += decompress(wire.Report.parse(report_bytes).log)
        if stitched[-1] == NSC_EXIT:
            break
        p.handle_message(wire.Response.make(KEY, wire.RESULT_EXEC, chal).pack())
    else:
        pytest.fail("no final slice")
    assert len(stitched) == len(set(stitched)) == n + 1
    assert p.metrics.gateway_calls == {TRAMP_COND: n, NSC_EXIT: 1}
    assert p.metrics.triggers["end"] == 1
    assert p.metrics.triggers["capacity"] == n // 4


@pytest.mark.parametrize("n, answered", [(11, 0), (12, 2)])
def test_a_refused_entry_is_counted_only_once_its_replay_logs_it(n, answered):
    # four entries per slice: with 11 arrivals the first slice refuses the
    # fifth, with 12 the third refuses the exit door; a heal ends the
    # session on that slice, so it is never replayed, logged or counted
    p, _, _ = build(chained_conditionals(n), log_max=16)
    p.boot()
    p.handle_message(request(chal=1))
    for chal in range(2, answered + 2):
        pump(p)
        p.handle_message(wire.Response.make(KEY, wire.RESULT_EXEC, chal).pack())
    pump(p)
    assert p.metrics.triggers["capacity"] == answered + 1
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, answered + 2).pack())
    (report_bytes,) = pump(p)                 # the post-heal report
    assert decompress(wire.Report.parse(report_bytes).log) == [NSC_EXIT]
    assert p.metrics.gateway_calls == {TRAMP_COND: 4 * (answered + 1)}


def run_sliced(asm, words, log_max):
    """One session answered exec after every slice, until the exit door is
    logged. Returns the device, the slices' destinations stitched and the
    gateway entry each capacity slice was cut at."""
    p, m, _ = build(asm, log_max=log_max, input_words=words)
    p.boot()
    p.handle_message(request(chal=1))
    stitched, refused_at = [], []
    for chal in range(2, 100_000):
        _, (report_bytes,) = p.advance(10 ** 9)
        stitched += decompress(wire.Report.parse(report_bytes).log)
        if stitched[-1:] == [NSC_EXIT]:
            return p, stitched, refused_at
        refused_at.append(m.pc)
        p.handle_message(wire.Response.make(KEY, wire.RESULT_EXEC, chal).pack())
    pytest.fail("no final slice")


def assert_sliced_matches_unbounded(asm, words, log_max):
    """A session cut into slices by a full log, its refused entries
    replayed, logs what one unbounded log does and ends in the same state."""
    p, stitched, refused_at = run_sliced(asm, words, log_max)
    whole = run_instrumented(instrument(asm)[0], words)
    assert not whole.faulted
    assert stitched == decompress(whole.log.to_bytes())
    assert p.m.regs == whole.machine.regs
    assert p.m.dmem == whole.machine.dmem
    assert p.metrics.gateway_calls == whole.gateway_calls
    assert p.metrics.triggers["capacity"] == len(refused_at)
    return refused_at


def test_sliced_session_replays_refused_entries_like_an_unbounded_log():
    refused = set()
    for log_max in range(16, 65, 4):
        for seed in range(40):
            asm, words = generate_program(random.Random(seed))
            refused.update(assert_sliced_matches_unbounded(asm, words, log_max))
    assert refused == GATEWAY_ENTRIES                 # every kind was replayed


def arrivals(k):
    """k distinct forward arrivals: one log word each."""
    return "".join(f"    cmp r0, #1\n    beq fill{i}\n    mov r2, #0\nfill{i}:\n"
                   for i in range(k))


# each kind's entry where a 16-byte log has just filled: after four
# arrivals, or after three for a loop record's two words
KIND_ENTRY = {
    TRAMP_COND: arrivals(5),
    TRAMP_RET: arrivals(4) + "    bl fn\n",
    TRAMP_ICALL: arrivals(4) + "    mov r5, #fn\n    blx r5\n",
    TRAMP_LOOP: arrivals(3) + "    mov r3, #0\nspin:\n    add r3, r3, #1\n"
                              "    cmp r3, #6\n    bne spin\n",
    NSC_EXIT: arrivals(4),
}


@pytest.mark.parametrize("kind", list(KIND_ENTRY),
                         ids=["cond", "ret", "icall", "loop", "exit"])
def test_a_log_filled_at_each_gateway_kind_replays_that_entry(kind):
    # lr starts nonzero: the cond and loop entries must give it back
    asm = ("main:\n    mov r0, #1\n    mov r1, #9\n    mov lr, #4\n" + KIND_ENTRY[kind]
           + "    nsc_call\nfn:\n    add r1, r1, #1\n    bx lr\n")
    refused_at = assert_sliced_matches_unbounded(asm, [], 16)
    assert refused_at[0] == kind


# a transfer into r1, and the logging entry it enters once rewritten
REFUSED_TRANSFERS = {
    "bx": ("    mov lr, r1\n    mov lr, r1\n    bx lr\n", TRAMP_RET),
    "pop": ("    push r1\n    pop pc\n", TRAMP_RET),
    "blx": ("    blx r1\n", TRAMP_ICALL),
}


@pytest.mark.parametrize("transfer", list(REFUSED_TRANSFERS))
@pytest.mark.parametrize("entry", list(isa.NSC_SYMBOLS))
def test_a_refused_return_into_a_gateway_entry_faults_at_its_replay(entry, transfer):
    # a full 16-byte log refuses the fifth entry, a transfer into a
    # gateway entry; its replay logs it, resumes at that entry and faults
    text, kind = REFUSED_TRANSFERS[transfer]
    asm = ("main:\n    mov r0, #1\n" + arrivals(4)
           + f"    mov r1, #{isa.NSC_SYMBOLS[entry]}\n" + text)
    p, m, _ = build(asm, log_max=16)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    assert p.metrics.triggers["capacity"] == 1 and m.pc == kind
    (report_bytes,) = p.handle_message(
        wire.Response.make(KEY, wire.RESULT_EXEC, 2).pack())
    assert p.metrics.triggers["fault"] == 1
    assert p.metrics.remnant_reports == 1     # the reset's boot reports the slice
    assert decompress(wire.Report.parse(report_bytes).log) == [isa.NSC_SYMBOLS[entry]]
    assert p.metrics.gateway_calls == {TRAMP_COND: 4, kind: 1}


def test_deadline_trigger_fires_exactly_on_budget():
    delta = 7
    p, _, _ = build(DIAMOND)
    p.boot()
    p.handle_message(request(chal=1, delta=delta))
    (report_bytes,) = pump(p)
    assert p.metrics.triggers["deadline"] == 1
    assert p.metrics.windows[0] == delta              # NS instructions, exact
    rep = wire.Report.parse(report_bytes)
    # resume and let it finish
    chal = 2
    p.handle_message(wire.Response.make(KEY, wire.RESULT_EXEC, chal).pack())
    for _ in range(50):
        (report_bytes,) = pump(p)
        rep = wire.Report.parse(report_bytes)
        if decompress(rep.log) and decompress(rep.log)[-1] == NSC_EXIT:
            break
        chal += 1
        p.handle_message(wire.Response.make(KEY, wire.RESULT_EXEC, chal).pack())
    assert p.metrics.triggers["end"] == 1
    assert all(w <= delta for w in p.metrics.windows)


def test_deadline_before_first_branch_reports_empty_log():
    p, _, prog2 = build(DIAMOND)
    p.boot()
    p.handle_message(request(chal=1, delta=1))        # one instruction budget
    (report_bytes,) = pump(p)
    rep = wire.Report.parse(report_bytes)
    assert rep.log == b""
    digest = hashlib.sha256(bytes(prog2.image)).digest()
    assert rep.sigma == wire.report_sigma(KEY, digest, b"", 1)


# --- remediation ----------------------------------------------------------------

def heal_then_collect(p, chal=2):
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, chal).pack())
    assert p.state is ProverState.REMEDIATE
    return pump(p)


def test_wipe_heal_zeroes_image_and_attests_it():
    p, m, prog2 = build(DIAMOND, policy=POLICY_WIPE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    (post,) = heal_then_collect(p)
    assert not any(m.pmem)
    rep = wire.Report.parse(post)
    zero_digest = hashlib.sha256(bytes(len(prog2.image))).digest()
    assert rep.sigma == wire.report_sigma(KEY, zero_digest, rep.log, 2)
    assert decompress(rep.log) == [NSC_EXIT]
    # any fresh non-heal answer closes the session
    p.handle_message(wire.Response.make(KEY, wire.RESULT_END, 3).pack())
    assert p.state is ProverState.WAITING
    kept = AuditContext(m.retained_mem)
    assert (kept.flags, kept.chal) == (0, 3)


def undefined_response(chal, result=0x07):
    """A response that authenticates under the device key and holds a
    result the protocol does not define."""
    body = wire.chal_bytes(chal)
    return bytes((wire.MSG_RESPONSE, result)) + body + wire.mac(KEY, body, bytes((result,)))


def test_a_response_with_no_defined_result_changes_nothing():
    # the concluding answers of a remnant (F_FINAL) and of the post-heal
    # wait (F_REMEDIATION) are any of the three results, and no other
    p, m, _ = build(DIAMOND, policy=POLICY_WIPE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    m.reset()
    assert len(p.boot()) == 1 and p.ctx.flags & F_FINAL
    with pytest.raises(KeyError):
        wire.Response.make(KEY, 0x07, 2)

    def ignored(chal):
        header, metrics = bytes(m.retained_mem[:CTX_HEADER_SIZE]), copy.deepcopy(p.metrics)
        assert p.handle_message(undefined_response(chal)) == []
        assert (bytes(m.retained_mem[:CTX_HEADER_SIZE]), p.metrics) == (header, metrics)

    ignored(2)
    heal_then_collect(p, chal=2)
    assert p.state is ProverState.TRANSMIT_WAIT
    ignored(3)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_END, 3).pack())
    assert (p.state, p.ctx.chal) == (ProverState.WAITING, 3)


# big enough that one wipe chunk cannot cover it
BULKY = "main:\n" + "    mov r0, #1\n" * 300 + "    nsc_call\n"


def test_wipe_is_chunked_not_instant():
    p, m, _ = build(BULKY, policy=POLICY_WIPE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    chunk = WIPE_CHUNK
    assert p.step() == []                             # first chunk only
    assert not any(m.pmem[:chunk])
    assert any(m.pmem[chunk:])
    assert AuditContext(m.retained_mem).wipe_cursor == chunk
    (post,) = pump(p)                                 # remaining chunk, then report
    assert not any(m.pmem)
    rep = wire.Report.parse(post)
    zero_digest = hashlib.sha256(bytes(len(m.pmem))).digest()
    assert rep.sigma == wire.report_sigma(KEY, zero_digest, rep.log, 2)


def test_wipe_resumes_after_reset_mid_heal():
    p, m, _ = build(BULKY, policy=POLICY_WIPE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    assert p.step() == []                             # partial wipe, then power cut
    m.reset()
    assert p.boot() == []
    assert p.state is ProverState.REMEDIATE
    (post,) = pump(p)
    assert not any(m.pmem)                            # wipe completed, not restarted
    rep = wire.Report.parse(post)
    zero_digest = hashlib.sha256(bytes(len(m.pmem))).digest()
    assert rep.sigma == wire.report_sigma(KEY, zero_digest, rep.log, 2)
    assert decompress(rep.log) == [NSC_EXIT]
    p.handle_message(wire.Response.make(KEY, wire.RESULT_END, 3).pack())
    assert p.state is ProverState.WAITING


def test_disable_heal_replaces_entry_with_halt():
    p, m, prog2 = build(DIAMOND, policy=POLICY_DISABLE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    (post,) = heal_then_collect(p)
    entry_off = prog2.entry - isa.PMEM_BASE
    inst = isa.decode(bytes(m.pmem[entry_off:entry_off + 4]))
    assert inst.op == isa.OP_HALT
    # the rest of the image is untouched
    assert m.pmem[entry_off + 4:] == bytearray(prog2.image[entry_off + 4:])
    rep = wire.Report.parse(post)
    healed = bytearray(prog2.image)
    healed[entry_off:entry_off + 4] = bytes(m.pmem[entry_off:entry_off + 4])
    assert rep.sigma == wire.report_sigma(
        KEY, hashlib.sha256(bytes(healed)).digest(), rep.log, 2)


def test_freeze_heal_halts_forever_without_reporting():
    p, m, _ = build(DIAMOND, policy=POLICY_FREEZE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    for _ in range(50):
        assert p.step() == []
    assert p.state is ProverState.FROZEN
    assert m.halted
    # a frozen device stays frozen across reboots
    m.reset()
    assert p.boot() == []
    assert p.state is ProverState.FROZEN


# --- reset recovery -------------------------------------------------------------

def step_until_gateway_count(p, addr, n, max_steps=100_000):
    for _ in range(max_steps):
        out = p.step()
        assert out == []
        if p.metrics.gateway_calls.get(addr, 0) >= n:
            return
    raise AssertionError("gateway count not reached")


def test_reset_mid_run_reports_remnants_before_any_ns_instruction():
    p, m, prog2 = build(SINGLETON_LOOP)
    p.boot()
    p.handle_message(request(chal=1))
    step_until_gateway_count(p, TRAMP_COND, 6)
    ns_before = p.metrics.total_ns

    m.reset()
    out = p.boot()
    assert len(out) == 1                              # remnant evidence, immediately
    assert p.metrics.remnant_reports == 1
    assert p.state is ProverState.TRANSMIT_WAIT
    assert p.metrics.total_ns == ns_before            # zero NS instructions since

    rep = wire.Report.parse(out[0])
    digest = hashlib.sha256(bytes(prog2.image)).digest()
    assert rep.sigma == wire.report_sigma(KEY, digest, rep.log, 1)
    # all six arrivals survived, including the in-flight repetition count
    dests = decompress(rep.log)
    assert len(dests) == 6
    assert len(set(dests)) == 1
    assert len(rep.log) == 8                          # address + count record

    # finishing answer scrubs the session without relaunching the app
    p.handle_message(wire.Response.make(KEY, wire.RESULT_END, 2).pack())
    assert p.state is ProverState.WAITING
    assert p.metrics.total_ns == ns_before


def test_reboot_while_report_pending_resends_same_sigma():
    p, m, _ = build(DIAMOND)
    p.boot()
    p.handle_message(request(chal=1))
    (first,) = pump(p)
    sigma = wire.Report.parse(first).sigma
    m.reset()
    (again,) = p.boot()
    assert wire.Report.parse(again).sigma == sigma
    assert p.metrics.remnant_reports == 1


def test_fault_resets_and_reports_remnants():
    asm = """
    main:
        cmp r0, #0
        beq over
        mov r1, #1
    over:
        mov r2, #0x1000
        str r1, [r2, #0]
        nsc_call
    """
    p, m, _ = build(asm)
    p.boot()
    p.handle_message(request(chal=1))
    out = pump(p)
    assert p.metrics.triggers["fault"] == 1
    assert p.metrics.remnant_reports == 1
    assert p.state is ProverState.TRANSMIT_WAIT
    rep = wire.Report.parse(out[0])
    assert len(decompress(rep.log)) == 1              # the branch before the fault
    assert decompress(rep.log)[0] != NSC_EXIT         # app never finished
    # retained flags force the session shut on the next fresh answer
    p.handle_message(wire.Response.make(KEY, wire.RESULT_EXEC, 2).pack())
    assert p.state is ProverState.WAITING


def test_boot_with_blank_retained_memory_waits():
    p, _, _ = build(DIAMOND)
    assert p.boot() == []
    assert p.state is ProverState.WAITING
    assert p.metrics.remnant_reports == 0


def test_a_header_without_the_magic_holds_no_session():
    # retained memory may power up holding anything: without the magic, set
    # flags and a high challenge are noise, not a session to resume
    p, m, _ = build(DIAMOND)
    m.retained_mem[:CTX_HEADER_SIZE] = b"\xff" * CTX_HEADER_SIZE
    assert p.boot() == []
    assert p.state is ProverState.WAITING
    assert p.handle_message(request(chal=1)) == []
    assert p.state is ProverState.EXECUTING


def test_a_request_replayed_after_a_power_cut_is_refused():
    p, m, _ = build("main:\n    mov r0, #1\n    nsc_call\n")
    p.boot()
    first = request(chal=1)
    p.handle_message(first)
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_END, 2).pack())
    assert p.state is ProverState.WAITING
    m.reset()
    assert p.boot() == []
    p.handle_message(first)                # the prover kept across the cut refuses it
    assert p.state is ProverState.WAITING
    # a device that lost its RAM boots a new prover on the same memories
    rebooted = Prover(m, p.config, p.entry)
    rebooted.boot()
    rebooted.handle_message(first)
    assert rebooted.state is ProverState.WAITING


@pytest.mark.parametrize("answer", [wire.RESULT_END, wire.RESULT_HEAL, wire.RESULT_EXEC],
                         ids=["end", "heal", "exec"])
def test_a_power_cut_in_the_post_heal_wait_concludes_on_the_answer(answer):
    p, m, _ = build(DIAMOND, policy=POLICY_WIPE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    (post,) = heal_then_collect(p)
    m.reset()
    rebooted = Prover(m, p.config, p.entry)
    assert rebooted.boot() == [post]                 # the post-heal report, as a remnant
    assert rebooted.state is ProverState.TRANSMIT_WAIT
    # the heal order is in the retained flags: any fresh answer ends the
    # session, a heal included, and the wiped image is not healed again
    assert rebooted.handle_message(wire.Response.make(KEY, answer, 3).pack()) == []
    assert rebooted.state is ProverState.WAITING
    kept = AuditContext(m.retained_mem)
    assert (kept.flags, kept.chal) == (0, 3)


def test_a_cut_after_begins_blank_keeps_the_freshness_floor(monkeypatch):
    # a concluded session leaves its floor at 5; power fails after begin
    # wrote its blank header and before the new challenge
    p, m, _ = build(DIAMOND)
    p.boot()
    p.handle_message(request(chal=4))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_END, 5).pack())
    assert (p.state, p.ctx.chal) == (ProverState.WAITING, 5)

    class PowerCut(Exception):
        pass

    def cut(ctx, value):
        raise PowerCut

    with monkeypatch.context() as patch:
        patch.setattr(AuditContext, "chal", property(AuditContext.chal.fget, cut))
        with pytest.raises(PowerCut):
            p.handle_message(request(chal=6))
    m.reset()
    rebooted = Prover(m, p.config, p.entry)
    assert rebooted.boot() == []
    assert rebooted.ctx.chal == 5
    # a replayed request below the floor still opens nothing
    assert rebooted.handle_message(request(chal=3)) == []
    assert rebooted.state is ProverState.WAITING


def test_the_prover_keeps_in_ram_only_what_a_power_cut_may_lose():
    """The retained header is the prover's only record of a session, and
    ``scenario.run`` builds a new prover at every power cut. A field added
    to the prover's RAM must therefore be something the device may lose at
    a cut: the session must carry on from retained memory without it. Put
    any session fact in the retained context instead."""
    p, _, _ = build(DIAMOND)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    assert set(vars(p)) == {"m", "config", "entry", "ctx", "log", "_gateway",
                            "resolver", "metrics", "_stalled", "_resend_clock"}


# --- advance: many ticks per call -------------------------------------------------

def drive(p, ticks, budget=None):
    """Run the device for ``ticks`` ticks, answering every report with exec
    (end once the log holds the exit) and leaving every third one unanswered
    so resends show. Returns (tick, output) for every tick that emitted.
    ``budget`` None steps one tick per call; otherwise ticks go by
    ``advance``."""
    p.boot()
    p.handle_message(request(chal=1, delta=37))
    chal, now, seen = 1, 0, []
    while now < ticks:
        if budget is None:
            now, out = now + 1, p.step()
        else:
            n, out = p.advance(min(budget, ticks - now))
            now += n
        if not out:
            continue
        seen.append((now, out))
        rep = wire.Report.parse(out[0])
        if len(seen) % 3 == 0:
            continue
        done = decompress(rep.log)[-1:] == [NSC_EXIT]
        chal += 1
        p.handle_message(wire.Response.make(
            KEY, wire.RESULT_END if done else wire.RESULT_EXEC, chal).pack())
    return seen


CALLING_LOOP = """
main:
    mov r0, #0
again:
    bl fn
    add r0, r0, #2
    cmp r0, #300
    blt again
    nsc_call
fn:
    bx lr
"""


@pytest.mark.parametrize("resend", [50, 0])
@pytest.mark.parametrize("budget", [7, 1000])
def test_advance_matches_stepping_tick_for_tick(budget, resend):
    stepped, _, _ = build(CALLING_LOOP, log_max=16)
    advanced, _, _ = build(CALLING_LOOP, log_max=16)
    stepped.config.resend_interval = advanced.config.resend_interval = resend
    expected = drive(stepped, 3000)
    assert len(expected) > 5
    assert drive(advanced, 3000, budget) == expected
    assert advanced.metrics == stepped.metrics
    assert advanced._resend_clock == stepped._resend_clock


GATEWAY_ENTRIES = frozenset(isa.NSC_SYMBOLS.values())

# two forward arrivals per pass that never compress: fills any log
DISTINCT_ARRIVALS = """
main:
    mov r6, #0
spin:
    cmp r6, #60
    bge fin
    cmp r6, #0
    bge mark
mark:
    add r6, r6, #1
    b spin
fin:
    nsc_call
"""


def device_state(p):
    m = p.m
    return (p.state, bytes(m.retained_mem), list(m.regs), m.flag_z,
            m.flag_n, m.prev_lr, m.last_exec_pc, m.prev_exec_pc, m.cycle_count,
            m.timer.elapsed, m.world, bytes(m.dmem), p.metrics, p._resend_clock)


def instructions_to_first_gateway(asm, words):
    """App instructions a deployed program runs before its first gateway
    entry: the delta whose first deadline falls on a gateway pc."""
    prog2 = isa.assemble(instrument(asm)[0])
    m = Machine(prog2.image)
    load_input(m, words)
    m.enter_nonsecure(prog2.entry)
    n, ev = m.run(100_000)
    assert isinstance(ev, NscEntry)
    return n


def drive_against_events(asm, words, log_max, delta, budget, ticks=1500):
    """Drive one device by ``advance`` and a twin by ``advance_by_events``
    over the same ticks, answering as ``drive`` does; after every call both
    must have used the same ticks, emitted the same output and hold the
    same state. Returns the deadlines that fell on a gateway pc and the
    device's metrics."""
    inline, _, _ = build(asm, log_max=log_max, input_words=words)
    events, _, _ = build(asm, log_max=log_max, input_words=words)
    for p in (inline, events):
        p.config.resend_interval = 50
        p.boot()
        p.handle_message(request(chal=1, delta=delta))
    chal, now, reports, deadlines, on_gateway = 1, 0, 0, 0, 0
    while now < ticks and inline.state is not ProverState.WAITING:
        n, out = inline.advance(min(budget, ticks - now))
        assert advance_by_events(events, min(budget, ticks - now)) == (n, out)
        assert device_state(inline) == device_state(events)
        now += n
        if inline.metrics.triggers["deadline"] > deadlines:
            deadlines += 1
            on_gateway += inline.m.pc in GATEWAY_ENTRIES
        if not out:
            continue
        reports += 1
        if reports % 3 == 0:
            continue
        done = decompress(wire.Report.parse(out[0]).log)[-1:] == [NSC_EXIT]
        chal += 1
        answer = wire.Response.make(
            KEY, wire.RESULT_END if done else wire.RESULT_EXEC, chal).pack()
        assert inline.handle_message(answer) == events.handle_message(answer)
        assert device_state(inline) == device_state(events)
    return on_gateway, inline.metrics


@pytest.mark.parametrize("budget", [1, 7, 1000])
@pytest.mark.parametrize("log_max", [16, 96, 160])
def test_advance_services_gateways_in_block_as_the_event_path_does(log_max, budget):
    # forged transfers off a gateway entry and past 2**31 fault mid-block
    forged = "main:\n mov r7, #input_base\n ldr r8, [r7, #0]\n blx r8\n nsc_call\n"
    programs = [(CALLING_LOOP, []), (forged, [0x114]), (forged, [0x80000000])]
    for seed in range(40):
        programs.append(generate_program(random.Random(seed)))
    on_gateway, served = 0, 0
    for i, (asm, words) in enumerate(programs):
        # every other program gets a deadline on its first gateway entry
        delta = instructions_to_first_gateway(asm, words) if i % 2 == 0 \
            else random.Random(i).randint(20, 400)
        hits, metrics = drive_against_events(asm, words, log_max, delta, budget)
        on_gateway += hits
        served += sum(metrics.gateway_calls.values())
    assert on_gateway >= len(programs) // 2 and served > 5 * len(programs)
    # a log of any of these sizes fills up, and its refusal is replayed
    _, metrics = drive_against_events(DISTINCT_ARRIVALS, [], log_max, 100_000, budget)
    assert metrics.triggers["capacity"] > 0


# --- loops whose passes enter the conditional gateway ---------------------------

CONDS = ("beq", "bne", "blt", "bge", "bgt", "ble")
# straight-line fillers; r5 and r6 are the bound and the counter, r7 the
# input. The last reads a stepping register's entry value: no closed form.
FILLERS = ("add r0, r0, #3", "sub r1, r1, #2", "mov r3, #9", "sub r4, r4, r5",
           "ldr r8, [r7, #8]", "mov r9, #4", "add r9, r9, r5", "add r4, r4, r0")


def gateway_loop(body, step, fall=None, compare="cmp r6, r5", cond="bgt", prefix=()):
    """The pool's count-down shape: ``body`` and the counter's ``step``
    (one line) in a loop on r6 from input word 0, closed by ``compare`` and
    ``cond``. With ``fall`` = (position, condition), a conditional branch
    to its own fall-through sits at that position of the body, which makes
    it the pool's pair shape: two logged arrivals a pass. ``prefix`` runs
    before the loop."""
    lines = list(body)
    lines.insert(min(len(lines), step[0]), step[1])
    if fall is not None:
        at, how = fall
        lines[at:at] = ["cmp r0, #5", f"{how} mark", "mark:"]
    return "\n".join(["main:", "mov r7, #input_base", "ldr r6, [r7, #0]",
                      "ldr r5, [r7, #4]", *prefix, "spin:", *lines, compare, f"{cond} spin",
                      "nsc_call"]) + "\n"


@st.composite
def gateway_loops(draw):
    """(a loop of ``gateway_loop``'s shapes, its input words). Half of them
    run on while the counter moves toward the bound; the rest take any
    condition, which may leave at once or run on to a wrap."""
    body = draw(st.lists(st.sampled_from(FILLERS[:-1]) | st.just(FILLERS[-1]), max_size=6))
    up, size = draw(st.booleans()), draw(st.integers(1, 5))
    step = (draw(st.integers(0, len(body))), f"{'add' if up else 'sub'} r6, r6, #{size}")
    fall = draw(st.none() | st.tuples(st.integers(0, len(body) + 1),
                                      st.sampled_from(CONDS)))
    first = draw(st.booleans())        # whether the counter is compared first
    words = draw(st.lists(st.integers(0, 300), min_size=3, max_size=3))
    if draw(st.booleans()):
        cond = draw(st.sampled_from(CONDS))
    else:
        cond = draw(st.sampled_from(("blt", "ble", "bne") if up == first
                                    else ("bgt", "bge", "bne")))
        # the bound some passes ahead, give or take a few
        trips, skew = draw(st.integers(2, 150)), draw(st.integers(-3, 3))
        words[0] = trips * size + 3 if not up else words[0]
        words[1] = words[0] + (trips * size if up else -trips * size) + skew
    if first and words[1] >= 0 and draw(st.booleans()):   # an immediate is unsigned
        compare = f"cmp r6, #{words[1]}"
    else:
        compare = "cmp r6, r5" if first else "cmp r5, r6"
    return gateway_loop(body, step, fall, compare, cond), words


@settings(max_examples=300, deadline=None)
@given(loop=gateway_loops(), log_max=st.sampled_from([16, 20, 28, 4096, 4096, 4096]),
       delta=st.integers(1, 120) | st.integers(120, 3000) | st.just(100_000),
       budget=st.integers(1, 60) | st.integers(60, 1000) | st.just(5000))
def test_gateway_loops_advance_as_the_event_path_does(loop, log_max, delta, budget):
    """Passes taken at once by ``Machine.run`` and ``CfLog.repeat`` leave
    the device, its retained bytes and its gateway call counts as the
    event path's pass-by-pass service does, after every call: whatever the
    shape, the steps, the condition, the log's room, the limit and the
    deadline."""
    asm, words = loop
    drive_against_events(asm, words, log_max, delta, budget, ticks=3000)


POOL_SHAPES = {
    "countdown": dict(step=(5, "sub r6, r6, #1"), compare="cmp r6, #0", cond="bgt"),
    "pair": dict(step=(5, "add r6, r6, #1"), fall=(2, "bge"), compare="cmp r6, r5",
                 cond="blt"),
}
POOL_LOOPS = {shape: gateway_loop(FILLERS[:6], **kw) for shape, kw in POOL_SHAPES.items()}


def loop_head(prog2):
    """The resume pc of the gateway entry the loop's backward branch makes."""
    return prog2.labels["spin"] + 4


@pytest.mark.parametrize("shape", POOL_LOOPS)
def test_a_gateway_loop_of_2_28_passes_runs_to_the_exit_door(shape):
    # dispatching each pass through the gateway would take many minutes
    passes = 1 << 28
    words = [passes, 0] if shape == "countdown" else [0, passes]
    p, m, prog2 = build(POOL_LOOPS[shape], input_words=words)
    p.boot()
    p.handle_message(request(chal=1, delta=1 << 40))
    p.advance(200)
    assert loop_head(prog2) in m._code.loops       # else it runs pass by pass
    start = time.perf_counter()
    p.advance(1 << 24)            # pass by pass, this alone takes seconds
    assert time.perf_counter() - start < 0.5
    _, out = p.advance(1 << 40)
    assert time.perf_counter() - start < 0.5
    arrivals = 1 if shape == "countdown" else 2
    assert p.metrics.gateway_calls == {TRAMP_COND: arrivals * passes + 1, NSC_EXIT: 1}
    logged = runs(wire.Report.parse(out[0]).log)
    assert sum(len(unit) * count for unit, count in logged) == arrivals * passes + 2


def test_a_filled_count_record_flushes_on_an_ordinary_pass():
    """A repetition whose count nears COUNT_MASK: the passes taken at once
    stop one short of it, and the ordinary pass after them commits the
    full record, as the event path does."""
    asm = POOL_LOOPS["countdown"]
    twins = [build(asm, input_words=[40, 0])[::2] for _ in range(2)]
    for p, prog2 in twins:
        p.boot()
        p.handle_message(request(chal=1, delta=1 << 20))
        # the loop's head word, its repetition in flight three short of full
        head = loop_head(prog2)
        assert p.log.append(head)
        state = OFFSETS["engine_state"]
        p.m.retained_mem[state:state + CfLog.STATE_WIDTH] = CfLog._STATE.pack(
            1, 0, COUNT_MASK - 3, head, 0)
    (inline, _), (events, _) = twins
    out = []
    while not out:
        n, out = inline.advance(5000)
        assert advance_by_events(events, 5000) == (n, out)
        assert device_state(inline) == device_state(events)
    logged = runs(wire.Report.parse(out[0]).log)
    assert logged[:3] == [((head,), 1), ((head,), COUNT_MASK), ((head,), 1)]


# a pass that calls a function or stores to memory keeps the block path,
# also past a gateway site, where only the walk of the pass sees it
OFF_PATH = {
    f"{name}{'_after_a_site' if fall else ''}": gateway_loop(
        [line], (1, "sub r6, r6, #1"), fall, "cmp r6, #0") + tail
    for name, line, tail in [("calls_a_leaf", "bl leaf", "leaf:\nadd r0, r0, #1\nbx lr\n"),
                             ("stores", "str r0, [r7, #12]", "")]
    for fall in (None, (0, "bge"))
}


@pytest.mark.parametrize("asm", OFF_PATH.values(), ids=OFF_PATH)
def test_a_pass_that_calls_or_stores_keeps_the_block_path(asm):
    p, m, _ = build(asm, input_words=[30, 0])
    p.boot()
    p.handle_message(request(chal=1))
    p.advance(400)
    assert m._code.loops == {}
    drive_against_events(asm, [30, 0], 4096, 100_000, 1000)


# two logged arrivals before the loop
DIAMONDS = ["cmp r0, #0", "beq one", "one:", "cmp r0, #0", "bne two", "two:"]


@pytest.mark.parametrize("shape, log_max", [("countdown", 16), ("pair", 16), ("pair", 20)],
                         ids=["countdown", "pair-second-arrival", "pair-first-arrival"])
def test_a_full_log_stops_gateway_loops_as_the_event_path_does(shape, log_max):
    """The log has no room for a repetition's reserve when the loop's
    first backward arrival comes, so no repetition starts and no pass is
    taken at once; the full log then refuses the pass's first (or second)
    arrival, and the core parks there as dispatch parks it."""
    asm = gateway_loop(FILLERS[:6], prefix=DIAMONDS, **POOL_SHAPES[shape])
    _, metrics = drive_against_events(asm, [25, 30], log_max, 100_000, 1000, ticks=4000)
    assert metrics.triggers["capacity"] > 0


def test_advance_stops_on_a_silent_state_change():
    p, m, _ = build(DIAMOND, policy=POLICY_FREEZE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    assert p.advance(100) == (1, [])
    assert p.state is ProverState.FROZEN
    assert p.advance(100) == (100, [])
