"""Auditor tests: graph extraction from the rewritten image, the trace
walk with its shadow stack, violation localization, and the protocol
driver's authentication, challenge window, and duplicate handling."""

import copy
import hashlib
import random
import struct
import tracemalloc
from collections import deque
from pathlib import Path
from unittest import mock

import pytest

from cfaudit import cfa_engine, isa, wire
from cfaudit.cfa_engine import (COUNT_MASK, TAG_BIT, UNIT_PAIR, UNIT_SHIFT, UNIT_SINGLE,
                                UNIT_STATIC)
from cfaudit.instrument import instrument
from cfaudit.resolver import POLICY_NAMES, healed_image
from cfaudit.supervisor import Prover, ProverConfig, ProverState
from cfaudit import verifier as vf
from cfaudit.verifier import (Verifier, VerifierConfig, V_EDGE,
                              V_ICALL, V_MAC, V_MALFORMED, V_SHADOW, Walker,
                              build_cfg)
from cfaudit.vm import Machine

import support
from support import oracle_destinations

KEY = VerifierConfig().key
PROGRAM_DIR = Path(__file__).resolve().parent.parent / "scenarios" / "programs"


def cfg_of(asm):
    asm2, _ = instrument(asm)
    return build_cfg(asm2)


def as_runs(dests):
    """A destination list as walker input: one run per destination."""
    return [((d,), 1) for d in dests]


def as_slice(dests):
    """A destination list as walker input, parsed from one plain slice:
    one run of them all."""
    return cfa_engine.runs(struct.pack(f">{len(dests)}I", *dests))


def walked(asm, dests=None, input_words=None):
    asm2, _ = instrument(asm)
    cfg = build_cfg(asm2)
    if dests is None:
        _, _, dests = oracle_destinations(asm, input_words)
    w = Walker(cfg)
    w.feed(as_runs(dests))
    return w


CALLS = """
main:
    mov r0, #3
    cmp r0, #3
    beq yes
    mov r1, #0
yes:
    bl helper
    mov r8, #helper
    blx r8
    nsc_call
helper:
    bx lr
"""

NESTED = """
main:
    bl outer
    nsc_call
outer:
    push lr
    bl inner
    pop pc
inner:
    bx lr
"""

ICALL = """
main:
    mov r8, #fn
    blx r8
    nsc_call
fn:
    bx lr
"""

LOOPED = """
main:
    mov r2, #0
loop:
    add r0, r0, #1
    add r2, r2, #1
    cmp r2, #5
    bne loop
    nsc_call
"""


# --- graph extraction ----------------------------------------------------------

def control_stops(cfg):
    """The kind of every instruction a hop from it stops on at once."""
    stops = {}
    for addr in range(isa.PMEM_BASE, isa.PMEM_BASE + len(cfg.prog.image), isa.INSTR_WIDTH):
        kind, stop, _, _ = cfg.hop(addr)
        if stop == addr:
            stops[kind] = stops.get(kind, 0) + 1
    return stops


def test_cfg_classifies_every_control_instruction():
    cfg = cfg_of(CALLS)
    prog = cfg.prog
    assert control_stops(cfg) == {vf.BRANCH: 1,   # the beq itself
                                  vf.COND: 2,     # both arrival shims
                                  vf.ICALL: 1, vf.RET: 1, vf.EXIT: 1}
    # a direct bl is no stop: the hop runs through it and pushes its return
    call = prog.labels["yes"] + isa.INSTR_WIDTH
    assert prog.instructions[prog.line_at_addr(call)] \
        == isa.Instruction(isa.OP_BL, imm=prog.labels["helper"])
    assert cfg.hop(call) == (vf.RET, prog.labels["helper"], None,
                             (call + isa.INSTR_WIDTH,))


def test_cfg_branch_edge_names_both_successors():
    cfg = cfg_of(CALLS)
    prog = cfg.prog
    (addr,) = [isa.PMEM_BASE + i * isa.INSTR_WIDTH for i, inst in enumerate(prog.instructions)
               if inst.op == isa.OP_BCOND]
    kind, stop, (taken_arrival, fall_arrival), pushes = cfg.hop(addr)
    assert (kind, stop, pushes) == (vf.BRANCH, addr, ())
    # each arrival is logged by the site just before it
    for site, arrival in ((prog.labels["yes"], taken_arrival),
                          (addr + isa.INSTR_WIDTH, fall_arrival)):
        assert arrival == site + isa.INSTR_WIDTH
        assert cfg.hop(site) == (vf.COND, site, arrival, ())


def test_cfg_digest_and_icall_targets():
    asm2, _ = instrument(CALLS)
    cfg = build_cfg(asm2)
    prog2 = isa.assemble(asm2)
    import hashlib
    assert cfg.digest == hashlib.sha256(bytes(prog2.image)).digest()
    assert cfg.prog.entry == prog2.entry
    assert prog2.labels["helper"] in cfg.icall_targets


def test_cfg_loop_table():
    asm2, _ = instrument(LOOPED)
    cfg = build_cfg(asm2)
    prog2 = isa.assemble(asm2)
    ((site, info),) = cfg.loops.items()
    assert info.header == prog2.labels["loop"]
    assert info.limit == 5
    assert cfg.hop(site) == (vf.LOOP, site, (info.header, 4, info.exit), ())
    assert cfg.hop(info.exit)[:2] == (vf.COND, info.exit)    # the exit is logged


# --- trace walking --------------------------------------------------------------

def test_walker_accepts_reference_traces():
    for asm in (CALLS, NESTED, ICALL, LOOPED):
        w = walked(asm)
        assert w.violation is None
        assert w.done
        assert w.pos == w.fed


def test_walker_pauses_on_truncated_trace():
    _, _, dests = oracle_destinations(CALLS)
    w = walked(CALLS, dests=dests[:-1])
    assert w.violation is None
    assert not w.done                                 # waiting for more evidence


def test_walker_flags_foreign_branch_arrival():
    _, _, dests = oracle_destinations(CALLS)
    bad = list(dests)
    bad[0] = walked(CALLS).cfg.prog.entry             # a real address, wrong place
    w = walked(CALLS, dests=bad)
    assert w.violation is not None
    assert w.violation.kind == V_EDGE
    assert w.violation.index == 0


def test_walker_flags_cross_frame_return():
    # hijack the inner return toward the outer frame's return address:
    # still on the shadow stack, but not its top
    _, _, dests = oracle_destinations(NESTED)
    bad = list(dests)
    bad[0] = dests[1]
    w = walked(NESTED, dests=bad)
    assert w.violation is not None
    assert w.violation.kind == V_SHADOW
    assert w.violation.index == 0


def test_walker_flags_untargeted_indirect_call():
    _, _, dests = oracle_destinations(ICALL)
    bad = list(dests)
    bad[0] = walked(ICALL).cfg.prog.entry + isa.INSTR_WIDTH  # code, but not a target
    w = walked(ICALL, dests=bad)
    assert w.violation is not None
    assert w.violation.kind == V_ICALL
    assert w.violation.index == 0


def test_walker_counts_loop_iterations_exactly():
    _, _, dests = oracle_destinations(LOOPED)
    header = dests[0]
    # limit-1 counted copies, then the exit arrival, then the end marker
    assert dests[:4] == [header] * 4
    assert dests[4] != header and dests[-1] == isa.NSC_EXIT
    over = [header] * 5 + dests[4:]
    w = walked(LOOPED, dests=over)
    assert w.violation is not None and w.violation.kind == V_EDGE
    assert w.violation.index == 4                     # the surplus iteration
    under = [header] * 3 + dests[4:]
    w = walked(LOOPED, dests=under)
    assert w.violation is not None and w.violation.kind == V_EDGE
    assert w.violation.index == 3                     # the entry that broke the run


def test_walker_rejects_entries_after_program_end():
    _, _, dests = oracle_destinations(CALLS)
    w = walked(CALLS, dests=list(dests) + [dests[0]])
    assert w.violation is not None
    assert w.violation.kind == V_MALFORMED


def test_walker_parks_in_nonconsuming_cycles():
    # a program spinning with no logging point is benign: the walker parks,
    # and any destination arriving while it is parked is an illegal edge
    cfg = build_cfg("main:\nspin:\n    b spin\n")
    w = Walker(cfg)
    w.feed([])
    w.feed([])
    assert w.violation is None and not w.done
    w.feed(as_runs([cfg.prog.entry, cfg.prog.entry]))
    assert w.violation is not None
    assert w.violation.kind == V_EDGE
    assert w.violation.index == 0


def test_walker_stops_recursion_without_logging_at_the_stack_limit():
    w = Walker(build_cfg("main:\n    bl main\n"))
    w.feed([])
    assert w.violation is not None
    assert w.violation.kind == V_MALFORMED
    assert w.violation.index == 0


def test_walker_stops_branch_cycles_that_never_consume():
    # an unrewritten branch back onto itself decides on the same entry for
    # good: the reference walker ran out of budget there
    cfg = build_cfg("main:\n    cmp r0, #0\nspin:\n    beq spin\n    nsc_call\n")
    spin = cfg.prog.labels["spin"]
    w, ref = Walker(cfg), support.ReferenceWalker(cfg)
    w.feed(as_runs([spin + isa.INSTR_WIDTH]))
    ref.feed([spin + isa.INSTR_WIDTH])
    assert w.violation is not None and ref.violation is not None
    assert w.violation.kind == ref.violation.kind == V_MALFORMED
    assert w.violation.index == ref.violation.index == 0


@pytest.mark.parametrize("name", ["window_dense", "window_mid", "window_sparse"])
def test_walker_reads_each_destination_in_at_most_one_hop(name):
    # a conditional branch reads its arrival itself; its site never reads
    # the same destination again
    asm2, _ = instrument((PROGRAM_DIR / f"{name}.asm").read_text())
    run = support.run_instrumented(asm2)
    w = Walker(build_cfg(asm2))
    w.feed(cfa_engine.runs(run.log.to_bytes()))
    assert w.done and w.violation is None
    assert w.steps <= w.fed


def test_walker_rejects_unrewritten_indirects():
    cfg = build_cfg("main:\n    bl fn\n    halt\nfn:\n    bx lr\n")
    w = Walker(cfg)
    w.feed([])
    assert w.violation is not None
    assert w.violation.kind == V_MALFORMED


def test_walker_rejects_an_unrewritten_pop_into_pc():
    # a pop into pc goes where the popped word says, so the walk must not
    # go on straight past it, here to a halt that would end it with no log
    cfg = build_cfg("main:\n    bl fn\n    nsc_call\nfn:\n    push lr\n    pop pc\n"
                    "    halt\n")
    pop = cfg.prog.labels["fn"] + isa.INSTR_WIDTH
    w, ref = Walker(cfg), support.ReferenceWalker(cfg)
    w.feed([])
    ref.feed([])
    assert w.violation == vf.Violation(V_MALFORMED, 0, f"unrewritten transfer at {pop:#x}")
    assert ref.violation is not None and ref.violation.kind == V_MALFORMED
    assert not w.done and not ref.done


def test_walk_outcome_is_independent_of_slicing():
    rng = __import__("random").Random(20)
    for _ in range(15):
        asm, words = support.generate_program(rng)
        _, _, dests = oracle_destinations(asm, words)
        asm2, _ = instrument(asm)
        cfg = build_cfg(asm2)
        whole, drip = Walker(cfg), Walker(cfg)
        whole.feed(as_runs(dests))
        for d in dests:
            drip.feed(as_runs([d]))
        assert (whole.done, whole.pos, whole.violation) == \
               (drip.done, drip.pos, drip.violation)
        assert whole.violation is None and whole.done


def test_violation_index_is_independent_of_slicing():
    _, _, dests = oracle_destinations(NESTED)
    bad = list(dests)
    bad[1] = walked(NESTED).cfg.prog.entry
    cfg = build_cfg(instrument(NESTED)[0])
    whole, drip = Walker(cfg), Walker(cfg)
    whole.feed(as_runs(bad))
    for d in bad:
        if drip.violation is None:
            drip.feed(as_runs([d]))
    assert whole.violation is not None and drip.violation is not None
    assert whole.violation.kind == drip.violation.kind
    assert whole.violation.index == drip.violation.index == 1


# --- one wide run or a run per destination ----------------------------------------

def walk_state(w):
    v = w.violation
    return w.done, None if v is None else (v.kind, v.index), w.pos, w.pc, w.shadow, w.steps


def resumed(w):
    """A walker that goes on from where ``w`` paused, apart from it."""
    twin = copy.copy(w)
    twin.shadow, twin.runs = w.shadow.copy(), deque(w.runs)
    return twin


@pytest.mark.parametrize("seed", range(40))
def test_a_walk_does_not_depend_on_how_its_runs_are_cut(seed):
    asm, words = support.generate_program(random.Random(seed))
    _, _, dests = oracle_destinations(asm, words)
    cfg = cfg_of(asm)
    narrow = Walker(cfg)
    narrow.feed(as_runs(dests))
    assert narrow.done and narrow.violation is None
    # whole, and in two plain slices cut at every offset
    for cut in range(len(dests) + 1):
        wide = Walker(cfg)
        for part in (dests[:cut], dests[cut:]) if cut else (dests,):
            wide.feed(as_slice(part))
        assert walk_state(wide) == walk_state(narrow), f"cut at {cut}"


def test_a_corrupt_destination_is_found_at_its_place_in_a_wide_run():
    # window_dense with each destination in turn replaced by one no hop
    # accepts. The walks resume from two clean walks, one fed as plain
    # slices and one a run per destination, paused every ``stride``
    # destinations, so the bad word sits anywhere in a wide unit's first
    # ``stride``.
    stride = 50
    asm2, _ = instrument((PROGRAM_DIR / "window_dense.asm").read_text())
    dests = support.reference_decompress(support.run_instrumented(asm2).log.to_bytes())
    cfg = build_cfg(asm2)
    bad = cfg.prog.entry
    wide, narrow = Walker(cfg), Walker(cfg)
    for base in range(0, len(dests), stride):
        for p in range(base, min(base + stride, len(dests))):
            stream = dests[base:p] + [bad] + dests[p + 1:p + 4]
            got, want = resumed(wide), resumed(narrow)
            got.feed(as_slice(stream))
            want.feed(as_runs(stream))
            assert walk_state(got) == walk_state(want), f"bad word at {p}"
            assert got.violation.index == p
        chunk = dests[base:base + stride]
        wide.feed(as_slice(chunk))
        narrow.feed(as_runs(chunk))
        assert walk_state(wide) == walk_state(narrow)
    assert wide.done and wide.violation is None and wide.pos == len(dests)


# --- protocol driver -------------------------------------------------------------

def raw_log(dests):
    return b"".join(struct.pack(">I", d) for d in dests)


def make_report(v, dests, chal):
    return log_report(v, raw_log(dests), chal)


def log_report(v, log, chal):
    sigma = wire.report_sigma(KEY, v.cfg.digest, log, chal)
    return wire.Report(sigma, log).pack()


def fresh(asm=CALLS, **cfg):
    asm2, _ = instrument(asm)
    v = Verifier(asm2, VerifierConfig(**cfg))
    v.start(0)
    return v


def test_verifier_full_session_against_device():
    asm2, _ = instrument(CALLS)
    prog2 = isa.assemble(asm2)
    m = Machine(prog2.image)
    p = Prover(m, ProverConfig(), prog2.entry)
    p.boot()
    v = Verifier(asm2, VerifierConfig())
    inbound = list(v.start(0))
    for _ in range(100_000):
        outs = []
        for msg in inbound:
            outs += p.handle_message(msg)
        outs += p.step()
        inbound = []
        for msg in outs:
            inbound += v.handle(msg)
        if v.session_over:
            for msg in inbound:                       # final verdict still in flight
                p.handle_message(msg)
            break
    assert v.session_over and v.violation is None
    assert v.audited and wire.response_result(inbound[-1]) == wire.RESULT_END
    assert p.state is ProverState.WAITING


@pytest.mark.parametrize("name, value", [
    ("initial_chal", -1), ("initial_chal", 0),
    # no challenge would be left for the first response (D22)
    pytest.param("initial_chal", 2 ** 512 - 1, id="initial_chal-2**512-1"),
    pytest.param("initial_chal", 2 ** 512, id="initial_chal-2**512"),
    ("app_id", 70000), ("app_id", -1),
    ("delta", -5), ("delta", 0), ("delta", 2 ** 64)])
def test_a_config_the_request_cannot_carry_is_refused_naming_its_field(name, value):
    # refused when built, not as an OverflowError or struct.error from start()
    with pytest.raises(ValueError, match=rf"^{name}: {value} out of range"):
        VerifierConfig(**{name: value})


@pytest.mark.parametrize("app_id, delta, chal", [
    pytest.param(0, 1, 1, id="low"),
    # the highest start leaves the wire's last challenge for the first response
    pytest.param(0xFFFF, 2 ** 64 - 1, 2 ** 512 - 2, id="high")])
def test_a_config_at_the_wire_s_bounds_is_requested_as_it_is(app_id, delta, chal):
    asm2, _ = instrument(CALLS)
    v = Verifier(asm2, VerifierConfig(app_id=app_id, delta=delta, initial_chal=chal))
    (req,) = v.start(0)
    assert wire.AttestRequest.open(KEY, req) == wire.AttestRequest(app_id, delta, chal)


def test_a_report_at_the_last_challenge_ends_the_session_unanswered():
    # D22's reproduction is refused where the config is built
    with pytest.raises(ValueError, match=r"^initial_chal: "):
        Verifier(cfg_of("main:\n nsc_call\n"), VerifierConfig(initial_chal=2 ** 512 - 1))
    last = 2 ** 512 - 1
    v = fresh(initial_chal=last - 1)
    _, _, dests = oracle_destinations(CALLS)
    first, second = make_report(v, dests[:1], last - 1), make_report(v, dests[1:], last)
    (answer,) = v.handle(first)
    assert wire.Response.open(KEY, answer) == wire.Response.make(KEY, wire.RESULT_EXEC, last)
    assert not v.session_over
    # authenticated and audited, but no challenge is left to answer with
    assert v.handle(second) == []
    assert v.session_over and v.current_chal == last and v.violation is None
    assert (v.audited, v.destinations_seen) == (2, len(dests))
    # a duplicate of either is answered as the original was, and not re-audited
    assert v.handle(second) == [] and v.handle(first) == [answer]
    assert (v.audited, v.duplicates, v.destinations_seen) == (2, 2, len(dests))
    # a forged report there changes nothing: no heal can be answered
    v = fresh(initial_chal=last - 1)
    v.handle(first)
    forged = wire.Report(b"\x00" * 32, b"").pack()
    assert v.handle(forged) == [] and v.handle(forged) == []
    assert v.rejected == 2 and v.violation is None and not v.session_over
    assert v.handle(second) == [] and v.session_over


def test_duplicate_slice_answered_from_cache_without_rewalking():
    v = fresh()
    _, _, dests = oracle_destinations(CALLS)
    rep = make_report(v, dests, 1)
    (first,) = v.handle(rep)
    (again,) = v.handle(rep)
    assert again == first
    assert v.duplicates == 1
    assert v.audited == 1
    assert v.destinations_seen == len(dests)


def test_forged_sigma_draws_heal_and_is_counted():
    v = fresh()
    _, _, dests = oracle_destinations(CALLS)
    rep = wire.Report(b"\x5a" * 32, raw_log(dests)).pack()
    (resp_bytes,) = v.handle(rep)
    resp = wire.Response.open(KEY, resp_bytes)
    assert resp.result == wire.RESULT_HEAL
    assert v.rejected == 1
    assert v.violation is not None and v.violation.kind == V_MAC
    assert not v.audited


def test_mac_mismatch_can_be_silenced_per_config():
    v = fresh(heal_on_mac_mismatch=False)
    _, _, dests = oracle_destinations(CALLS)
    rep = wire.Report(b"\x5a" * 32, raw_log(dests)).pack()
    assert v.handle(rep) == []
    assert v.rejected == 1
    assert v.violation is None


def test_every_report_bitflip_is_rejected_or_healed():
    v0 = fresh()
    _, _, dests = oracle_destinations(CALLS)
    genuine = make_report(v0, dests, 1)
    for i in range(len(genuine) * 8):
        flipped = bytearray(genuine)
        flipped[i // 8] ^= 1 << (i % 8)
        v = fresh()
        out = v.handle(bytes(flipped))
        assert not v.audited, f"bit {i} slipped through the MAC"
        if out:
            (resp_bytes,) = out
            assert wire.response_result(resp_bytes) == wire.RESULT_HEAL


def test_challenge_window_is_one_deep():
    v = fresh(asm=NESTED)
    _, _, dests = oracle_destinations(NESTED)
    (r1,) = v.handle(make_report(v, dests[:1], 1))
    assert wire.response_result(r1) == wire.RESULT_EXEC
    # evidence still bound to the previous challenge is acceptable once
    (r2,) = v.handle(make_report(v, dests[1:2], 1))
    assert wire.response_result(r2) == wire.RESULT_EXEC
    assert v.rejected == 0
    # two challenges back is out of the window
    (r3,) = v.handle(make_report(v, dests[2:], 1))
    assert wire.response_result(r3) == wire.RESULT_HEAL
    assert v.rejected == 1


def test_responses_carry_strictly_increasing_challenges():
    v = fresh(asm=NESTED)
    _, _, dests = oracle_destinations(NESTED)
    chals = []
    chal = 1
    for i in range(len(dests)):
        (resp_bytes,) = v.handle(make_report(v, dests[i:i + 1], chal))
        resp = wire.Response.open(KEY, resp_bytes)
        chals.append(resp.chal)
        chal = resp.chal
    assert chals == sorted(set(chals))
    assert v.session_over


def test_request_resends_until_first_report():
    v = fresh()
    assert v.tick(v.config.resend_interval) != []
    assert v.tick(v.config.resend_interval + 1) == []  # too soon again
    _, _, dests = oracle_destinations(CALLS)
    v.handle(make_report(v, dests, 1))
    assert v.tick(10 * v.config.resend_interval) == []


def test_non_report_messages_ignored():
    v = fresh()
    req = wire.AttestRequest(1, 100, 1).pack(KEY)
    assert v.handle(req) == []
    assert v.handle(b"") == []
    assert v.rejected >= 0


def test_verdict_and_index_survive_slice_splitting():
    _, _, dests = oracle_destinations(NESTED)
    bad = list(dests)
    bad[1] = build_cfg(instrument(NESTED)[0]).prog.entry

    v_whole = fresh(asm=NESTED)
    (resp,) = v_whole.handle(make_report(v_whole, bad, 1))
    assert wire.response_result(resp) == wire.RESULT_HEAL

    v_split = fresh(asm=NESTED)
    chal = 1
    final = None
    for i, d in enumerate(bad):
        (resp_bytes,) = v_split.handle(make_report(v_split, [d], chal))
        resp = wire.Response.open(KEY, resp_bytes)
        chal = resp.chal
        if resp.result == wire.RESULT_HEAL:
            final = resp.result
            break
    assert final == wire.RESULT_HEAL
    assert v_whole.violation.kind == v_split.violation.kind
    assert v_whole.violation.index == v_split.violation.index == 1


def test_malformed_log_bytes_draw_heal():
    v = fresh()
    bad = struct.pack(">I", (1 << 31) | (3 << 29) | 7)  # unknown unit kind
    sigma = wire.report_sigma(KEY, v.cfg.digest, bad, 1)
    (resp_bytes,) = v.handle(wire.Report(sigma, bad).pack())
    assert wire.response_result(resp_bytes) == wire.RESULT_HEAL
    assert v.violation is not None and v.violation.kind == V_MALFORMED


def count_word(unit, count):
    return TAG_BIT | (unit << UNIT_SHIFT) | count


COUNTDOWN = """
main:
    mov r7, #input_base
    ldr r6, [r7, #0]
spin:
    add r0, r0, #1
    sub r6, r6, #1
    cmp r6, #0
    bgt spin
    nsc_call
"""


# a loop that calls a function and jumps back: the function's return alone
# reads its passes, and it runs until a report's deadline cuts it
RETURNS = """
main:
    bl work
    b main
work:
    bx lr
"""


def hops_walked(cfg, words):
    """The hops a walk that skips nothing takes over the destinations the
    log ``words`` stand for, written out as one plain slice."""
    with mock.patch.object(vf, "_PERIOD_MIN", 1 << 62):
        w = Walker(cfg)
        w.feed(as_slice(support.reference_decompress(raw_log(words))))
    return w.steps


def test_maximal_count_record_is_audited_in_constant_time_and_memory():
    # the log a count-down loop of COUNT_MASK + 1 passes leaves: the first
    # arrival at the loop header, a count record for the other passes, the
    # exit arrival, the end door
    _, run, _ = oracle_destinations(COUNTDOWN, [5])
    words = [w for (w,) in struct.iter_unpack(">I", run.log.to_bytes())]
    assert words[1] == count_word(UNIT_SINGLE, 4) and len(words) == 4
    # the returns loop's COUNT_MASK + 1 passes: the return address, a count
    # record for the other passes
    cfg = cfg_of(RETURNS)
    kind, _, _, (back,) = cfg.hop(cfg.prog.entry)
    assert kind == vf.RET
    logs = {COUNTDOWN: (words, wire.RESULT_END),
            RETURNS: ([back, count_word(UNIT_SINGLE, 4)], wire.RESULT_EXEC)}
    for asm, (words, result) in logs.items():
        cfg = cfg_of(asm)
        # every pass takes as many hops, so the hop-by-hop walk's count
        # follows from two short walks
        short = hops_walked(cfg, words)
        per_pass = hops_walked(cfg, [words[0], count_word(UNIT_SINGLE, 5)] + words[2:]) - short
        assert per_pass > 0
        words[1] = count_word(UNIT_SINGLE, COUNT_MASK)
        cfg.hops = support.CountedHops(budget=100)
        v = Verifier(cfg, VerifierConfig())
        v.start(0)
        report = log_report(v, raw_log(words), 1)
        tracemalloc.start()
        try:
            (resp,) = v.handle(report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert wire.response_result(resp) == result
        assert v.violation is None
        assert v.destinations_seen == COUNT_MASK + len(words) - 1
        assert v.walker.steps == short + (COUNT_MASK - 4) * per_pass
        assert cfg.hops.lookups < 100
        assert peak < 1 << 20


def test_a_pair_unit_of_one_address_skips_at_its_whole_units():
    # a pair count record over two copies of one address, which no device
    # writes (it writes a single unit), stands for a count-down loop's
    # passes: the walk is back at its anchor one word on, part of a unit,
    # walks on, and skips from the next whole unit
    _, run, _ = oracle_destinations(COUNTDOWN, [5])
    words = [w for (w,) in struct.iter_unpack(">I", run.log.to_bytes())]
    assert words[1] == count_word(UNIT_SINGLE, 4)

    def forged(n):
        return [words[0], words[0], count_word(UNIT_PAIR, n)] + words[2:]

    cfg = cfg_of(COUNTDOWN)
    for n in range(1, 40):
        log = raw_log(forged(n))
        w, ref = Walker(cfg), support.ReferenceWalker(cfg)
        w.feed(cfa_engine.runs(log))
        ref.feed(support.reference_decompress(log))
        assert (w.done, w.violation, w.pos) == (ref.done, ref.violation, ref.pos) \
            == (True, None, 2 * n + 4)
        assert w.steps == hops_walked(cfg, forged(n))
    short = hops_walked(cfg, forged(1))
    per_unit = hops_walked(cfg, forged(2)) - short
    cfg.hops = support.CountedHops(budget=100)
    w = Walker(cfg)
    w.feed(cfa_engine.runs(raw_log(forged(COUNT_MASK))))
    assert w.done and w.violation is None and w.pos == 2 * COUNT_MASK + 4
    assert w.steps == short + (COUNT_MASK - 1) * per_unit
    assert cfg.hops.lookups < 100


def test_a_run_past_the_count_limit_is_walked_in_full():
    # a count-down loop of COUNT_MASK + 3 passes, logged by the engine with
    # the first COUNT_MASK - 1 repetitions already in flight in its header
    _, _, dests = oracle_destinations(COUNTDOWN, [5])
    header, exit_arrival, end = dests[0], dests[-2], dests[-1]
    buf = bytearray(64)
    buf[:4] = header.to_bytes(4, "big")
    log = cfa_engine.CfLog(capacity=64, buffer=memoryview(buf), header=bytearray(
        (4).to_bytes(4, "big")
        + cfa_engine.CfLog._STATE.pack(1, 0, COUNT_MASK - 1, header, 0)))
    for _ in range(3):
        log.append(header, backward=True)
    log.append(exit_arrival)
    log.append(end)
    runs = cfa_engine.runs(log.to_bytes())
    assert sum(len(unit) * count for unit, count in runs) == COUNT_MASK + 5
    w = Walker(cfg_of(COUNTDOWN))
    w.feed(runs)
    assert w.done and w.violation is None
    assert w.pos == w.fed == COUNT_MASK + 5


def test_verifiers_of_one_image_share_its_graph_and_heal_by_their_own_policy():
    asm2, _ = instrument(CALLS)
    shared = set()
    for policy in POLICY_NAMES:
        v = Verifier(asm2, VerifierConfig(policy=policy))
        healed = healed_image(v.cfg.prog.image, policy, v.cfg.prog.entry - isa.PMEM_BASE)
        assert v.post_heal_digest == hashlib.sha256(healed).digest()
        shared.add(id(v.cfg))
    assert len(shared) == 1


def test_malformed_slice_index_counts_destinations_not_words():
    v = fresh(asm=COUNTDOWN)
    _, _, dests = oracle_destinations(COUNTDOWN, [5])
    a = dests[0]
    (r1,) = v.handle(make_report(v, [a], 1))
    assert wire.response_result(r1) == wire.RESULT_EXEC
    # a, then five more copies of it, then a static count with no header:
    # the bad word comes after 1 + 1 + 5 destinations
    bad = raw_log([a, count_word(UNIT_SINGLE, 5), count_word(UNIT_STATIC, 3)])
    (r2,) = v.handle(log_report(v, bad, wire.Response.open(KEY, r1).chal))
    assert wire.response_result(r2) == wire.RESULT_HEAL
    assert v.violation.kind == V_MALFORMED
    assert v.violation.index == 7
