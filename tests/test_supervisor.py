"""Device-side protocol driver tests: gateway servicing, the retained
context block, report generation, retransmission, remediation, and the
reset/boot recovery path. Verifier-side messages are crafted by hand so
each device behavior is pinned independently."""

import hashlib
import random

import pytest

from cfaudit import isa, wire
from cfaudit.cfa_engine import CfLog, decompress
from cfaudit.instrument import instrument
from cfaudit.resolver import POLICY_DISABLE, POLICY_FREEZE, POLICY_WIPE, WIPE_CHUNK
from cfaudit.isa import LR, NSC_EXIT, TRAMP_COND, TRAMP_ICALL, TRAMP_LOOP, TRAMP_RET
from cfaudit.context import (AuditContext, CTX_HEADER_SIZE, F_FINAL, F_FROZEN,
                             F_REPORT_PENDING, F_VALID, LOG_BUFFER_OFFSET)
from cfaudit.supervisor import Prover, ProverConfig, ProverState
from cfaudit.vm import Machine, NscEntry, World

from support import (advance_by_events, generate_program, load_input,
                     run_instrumented, service_event)

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
    assert rebooted.ctx.flag(F_FROZEN)
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


def test_a_refused_entry_is_counted_only_once_its_replay_logs_it():
    # the fifth arrival is refused; a heal ends the session on that slice,
    # so it is never replayed, logged or counted
    p, _, _ = build(chained_conditionals(11), log_max=16)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    assert p.metrics.triggers["capacity"] == 1
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    (report_bytes,) = pump(p)                 # the post-heal report
    assert decompress(wire.Report.parse(report_bytes).log) == [NSC_EXIT]
    assert p.metrics.gateway_calls == {TRAMP_COND: 4}


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
            m.flag_n, m.cycle_count, m.timer.elapsed, m.world, p.metrics,
            p._resend_clock)


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


def test_advance_stops_on_a_silent_state_change():
    p, m, _ = build(DIAMOND, policy=POLICY_FREEZE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    assert p.advance(100) == (1, [])
    assert p.state is ProverState.FROZEN
    assert p.advance(100) == (100, [])
