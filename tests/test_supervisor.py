"""Device-side protocol driver tests: gateway servicing, the retained
context block, report generation, retransmission, remediation, and the
reset/boot recovery path. Verifier-side messages are crafted by hand so
each device behavior is pinned independently."""

import hashlib

import pytest

from cfaudit import isa, wire
from cfaudit.cfa_engine import CfLog, decompress
from cfaudit.instrument import instrument
from cfaudit.resolver import WIPE_CHUNK
from cfaudit.isa import LR, NSC_EXIT, TRAMP_COND, TRAMP_LOOP, TRAMP_RET
from cfaudit.context import (AuditContext, F_FINAL, F_FROZEN, F_REPORT_PENDING,
                             F_VALID, LOG_BUFFER_OFFSET, POLICY_DISABLE,
                             POLICY_FREEZE, POLICY_WIPE)
from cfaudit.supervisor import (Prover, ProverConfig, ProverState,
                                service_gateway)
from cfaudit.vm import Machine, NscEntry, World

from support import load_input

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
        service_gateway(m, scratch, ev)
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
    lr_of_app = ev.snapshot.prev_lr
    dest = ev.snapshot.lr
    log = CfLog(capacity=256)
    assert service_gateway(m, log, ev) is None
    assert decompress(log.to_bytes()) == [dest]
    assert m.pc == dest
    assert m.regs[LR] == lr_of_app
    assert m.world is World.NONSECURE


def test_return_service_keeps_return_address_in_lr():
    m, ev, _ = run_to_gateway(DIAMOND, stop_addr=TRAMP_RET)
    dest = ev.snapshot.lr                             # app's own return address
    log = CfLog(capacity=256)
    assert service_gateway(m, log, ev) is None
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
    log = CfLog(capacity=256)
    assert service_gateway(m, log, ev) is None
    assert decompress(log.to_bytes()) == [prog2.labels["loop"]] * 5
    assert len(log.to_bytes()) == 8                   # address + count, once
    assert m.pc == ev.snapshot.lr


def test_full_log_parks_the_machine():
    m, ev, _ = run_to_gateway(DIAMOND, stop_addr=TRAMP_COND)
    log = CfLog(capacity=0)                           # nothing fits
    assert service_gateway(m, log, ev) == "full"
    assert m.world is World.SECURE
    assert log.size == 0


# --- retained context block ---------------------------------------------------

def test_context_roundtrip():
    mem = bytearray(1024)
    ctx = AuditContext(flags=F_VALID | F_REPORT_PENDING, app_id=3,
                       policy=POLICY_DISABLE, delta=12345, chal=77,
                       sigma=b"\x42" * 32, log_size=400, wipe_cursor=2048,
                       log_max=8192, entry=0x1004, image_len=900,
                       engine_state=bytes(range(24)))
    ctx.store(mem)
    back = AuditContext.load(mem)
    assert back == ctx


# one row per 16 bytes of retained memory; the header ends at 0xa0 and
# nothing behind it is written
GOLDEN_HEADER = bytes.fromhex(
    "41435458000000210203010004050607"  # magic flags app_id policy pad delta
    "08090a0b0c0d00000000000000000000"  # delta, then chal
    "00000000000000000000000000000000"
    "00000000000000000000000000000000"
    "00000000000000000000000000000000"
    "00000e0f404142434445464748494a4b"  # chal ends, then sigma
    "4c4d4e4f505152535455565758595a5b"
    "5c5d5e5f000001110000022200002000"  # log_size wipe_cursor log_max
    "00001004000003848081828384858687"  # entry image_len engine_state
    "88898a8b8c8d8e8f9091929394959697"
    "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee")


def test_context_layout_is_pinned():
    ctx = AuditContext(flags=0x21, app_id=0x0203, policy=POLICY_DISABLE,
                       delta=0x0405060708090a0b, chal=0x0c0d << 496 | 0x0e0f,
                       sigma=bytes(range(0x40, 0x60)), log_size=0x111,
                       wipe_cursor=0x222, log_max=0x2000, entry=0x1004,
                       image_len=0x384, engine_state=bytes(range(0x80, 0x98)))
    mem = bytearray(b"\xee") * 256
    ctx.store(mem)
    assert bytes(mem[:len(GOLDEN_HEADER)]) == GOLDEN_HEADER
    assert AuditContext.load(mem) == ctx


def test_partial_stores_agree_with_the_full_store():
    # gateway events persist the log size and the engine checkpoint, here
    # with a repetition count in flight
    p, m, _ = build(SINGLETON_LOOP)
    p.boot()
    p.handle_message(request(chal=1))
    while sum(p.metrics.gateway_calls.values()) < 3:
        assert p.step() == []
    assert p.ctx.log_size and p.log.pending.count
    assert AuditContext.load(m.retained_mem) == p.ctx
    # a wipe chunk persists the cursor
    p, m, _ = build(BULKY, policy=POLICY_WIPE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    assert p.step() == []
    assert 0 < p.ctx.wipe_cursor < p.ctx.image_len
    assert AuditContext.load(m.retained_mem) == p.ctx
    # a freeze persists the flag
    p, m, _ = build(DIAMOND, policy=POLICY_FREEZE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    assert p.step() == []
    assert p.ctx.flag(F_FROZEN)
    assert AuditContext.load(m.retained_mem) == p.ctx


def test_context_erase_and_blank_load():
    mem = bytearray(1024)
    AuditContext(flags=F_VALID).store(mem)
    AuditContext.erase(mem)
    assert AuditContext.load(mem) is None
    assert AuditContext.load(bytearray(512)) is None


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
    assert AuditContext.load(m.retained_mem) is None
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
    assert AuditContext.load(m.retained_mem) is None


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
    assert AuditContext.load(m.retained_mem).wipe_cursor == chunk
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


def test_advance_stops_on_a_silent_state_change():
    p, m, _ = build(DIAMOND, policy=POLICY_FREEZE)
    p.boot()
    p.handle_message(request(chal=1))
    pump(p)
    p.handle_message(wire.Response.make(KEY, wire.RESULT_HEAL, 2).pack())
    assert p.advance(100) == (1, [])
    assert p.state is ProverState.FROZEN
    assert p.advance(100) == (100, [])
