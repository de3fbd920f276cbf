"""Shared test machinery: reference trace oracle, structured program
generator, a minimal gateway-service harness, and a per-tick reference
scenario driver.

The oracle runs the ORIGINAL (uninstrumented) program and predicts the raw
dynamic destination sequence the instrumented twin must log, expressed in
rewritten-image addresses via the sidecar line map. It never touches the
log engine or the gateway dispatch, so engine bugs cannot cancel out.
"""

from __future__ import annotations

import random
import struct
from dataclasses import asdict, dataclass, field

from cfaudit import isa, wire
from cfaudit.isa import DMEM_BASE, INSTR_WIDTH, NSC_EXIT, PMEM_BASE
from cfaudit.cfa_engine import AppendResult, CfLog
from cfaudit.channel import Link
from cfaudit.instrument import InstrumentationMap, detect_static_loops, instrument
from cfaudit.scenario import (ScenarioError, ScenarioResult, ScenarioSpec,
                              _check_expectations, resolve_input)
from cfaudit.supervisor import Prover, ProverConfig, ProverState, service_gateway
from cfaudit.verifier import Verifier, VerifierConfig
from cfaudit import vm
from cfaudit.vm import Machine, World

SCRATCH_BASE = DMEM_BASE + 4096


def load_input(m: Machine, words: list[int]) -> None:
    for i, w in enumerate(words):
        struct.pack_into(">I", m.dmem, i * 4, w & 0xFFFFFFFF)


# --- reference oracle ------------------------------------------------------

@dataclass
class OracleEvent:
    kind: str            # site | ret | icall | loop | exit
    line: int | None = None
    value: int = 0
    count: int = 0       # loop traversals observed


@dataclass
class RefTrace:
    events: list[OracleEvent]
    machine: Machine
    faulted: bool
    steps: int
    loop_entries: int


def _cond_site_lines(lines: list[isa.SourceLine]) -> set[int]:
    """Lines that receive an arrival trampoline, classified independently
    of the rewriter's plan (only the loop detector is shared)."""
    labels = {}
    for i, sl in enumerate(lines):
        for lab in sl.labels:
            labels[lab] = i
    static_branches = {lp.branch_line for lp in detect_static_loops(lines)}
    sites: set[int] = set()
    for i, sl in enumerate(lines):
        if sl.mnemonic.startswith("b") and sl.mnemonic[1:] in isa.COND_NAMES:
            sites.add(i + 1)
            if i not in static_branches:
                sites.add(labels[sl.args[0]])
    return sites


def run_reference(asm_text: str, input_words: list[int] | None = None,
                  max_steps: int = 500_000) -> RefTrace:
    """Execute the original program, recording every non-deterministic
    destination in source terms."""
    lines = isa.parse_lines(asm_text)
    prog = isa.assemble(asm_text)
    sites = _cond_site_lines(lines)
    loops = {lp.branch_line: lp for lp in detect_static_loops(lines)}
    header_of = {lp.header_line: lp for lp in loops.values()}

    m = Machine(prog.image)
    load_input(m, input_words or [])
    m.enter_nonsecure(prog.entry)

    events: list[OracleEvent] = []
    faulted = False
    steps = 0
    loop_entries = 0
    prev_line: int | None = None
    active_loop: tuple[int, int, int] | None = None   # header, event idx, traversals

    while steps < max_steps:
        pc = m.pc
        line = prog.line_at_addr(pc)
        if line is not None:
            if line in header_of and active_loop is None and prev_line == line - 1:
                events.append(OracleEvent("loop", line))
                active_loop = (line, len(events) - 1, 0)
                loop_entries += 1
            if active_loop and line == active_loop[0] and prev_line == loops[header_of[line].branch_line].branch_line:
                active_loop = (active_loop[0], active_loop[1], active_loop[2] + 1)
            if line in sites:
                if active_loop is not None and line != active_loop[0]:
                    # leaving the loop: seal the traversal count
                    h, idx, n = active_loop
                    events[idx].count = n
                    active_loop = None
                events.append(OracleEvent("site", line))

        ev = m.step()
        steps += 1
        if isinstance(ev, vm.NscEntry):
            if ev.addr == NSC_EXIT:
                events.append(OracleEvent("exit"))
                break
            faulted = True
            break
        if isinstance(ev, (vm.Fault, vm.Halted)):
            faulted = isinstance(ev, vm.Fault)
            break
        if isinstance(ev, vm.Executed):
            inst = prog.instructions[prog.line_at_addr(ev.pc)]
            if inst.op == isa.OP_BX_LR:
                events.append(OracleEvent("ret", None, m.pc))
            elif inst.op == isa.OP_POP and inst.ra == isa.PC:
                events.append(OracleEvent("ret", None, m.pc))
            elif inst.op == isa.OP_BLX:
                events.append(OracleEvent("icall", None, m.pc))
            prev_line = prog.line_at_addr(ev.pc)
    if active_loop is not None:
        h, idx, n = active_loop
        events[idx].count = n
    return RefTrace(events, m, faulted, steps, loop_entries)


def translate_reference(ref: RefTrace, orig: isa.Program, prog2: isa.Program,
                        imap: InstrumentationMap) -> list[int]:
    """Convert oracle events into the rewritten-image destination sequence."""
    orig_label_at = {addr: name for name, addr in orig.labels.items()}
    out: list[int] = []
    for ev in ref.events:
        if ev.kind == "site":
            out.append(imap.line_map[ev.line])
        elif ev.kind == "ret":
            call_line = orig.line_at_addr(ev.value - INSTR_WIDTH)
            assert call_line is not None, "return does not follow a call"
            out.append(imap.line_end[call_line])
        elif ev.kind == "icall":
            name = orig_label_at.get(ev.value)
            assert name is not None, "indirect target is not a label"
            out.append(prog2.labels[name])
        elif ev.kind == "loop":
            header_label = None
            for name, line_addr in orig.labels.items():
                if orig.line_at_addr(line_addr) == ev.line:
                    header_label = name
                    break
            assert header_label is not None
            out.extend([prog2.labels[header_label]] * ev.count)
        elif ev.kind == "exit":
            out.append(NSC_EXIT)
    return out


# --- lite harness for the rewritten program ---------------------------------

@dataclass
class InstrumentedRun:
    log: CfLog
    machine: Machine
    faulted: bool
    steps: int
    gateway_calls: dict[int, int] = field(default_factory=dict)


def run_instrumented(asm2_text: str, input_words: list[int] | None = None,
                     capacity: int = 1 << 22, max_steps: int = 500_000) -> InstrumentedRun:
    """Drive the rewritten program against a raw log, no protocol on top."""
    prog2 = isa.assemble(asm2_text)
    m = Machine(prog2.image)
    load_input(m, input_words or [])
    m.enter_nonsecure(prog2.entry)
    log = CfLog(capacity=capacity)
    calls: dict[int, int] = {}
    steps = 0
    faulted = False
    while steps < max_steps:
        ev = m.step()
        steps += 1
        if isinstance(ev, vm.NscEntry):
            calls[ev.addr] = calls.get(ev.addr, 0) + 1
            outcome = service_gateway(m, log, ev)
            if outcome == "exit":
                # seal the trace the way the attestation loop does
                assert log.append(ev.addr) is AppendResult.OK
                break
            assert outcome is None, f"unexpected gateway outcome {outcome}"
        elif isinstance(ev, (vm.Fault, vm.Halted)):
            faulted = isinstance(ev, vm.Fault)
            break
    log.flush_pending()
    return InstrumentedRun(log, m, faulted, steps, calls)


def oracle_destinations(asm_text: str, input_words: list[int] | None = None):
    """Full pipeline: oracle sequence and instrumented log for one program."""
    asm2, imap = instrument(asm_text)
    orig = isa.assemble(asm_text)
    prog2 = isa.assemble(asm2)
    ref = run_reference(asm_text, input_words)
    run = run_instrumented(asm2, input_words)
    expected = translate_reference(ref, orig, prog2, imap)
    return ref, run, expected


# --- structured program generator -------------------------------------------

DATA_REGS = ["r0", "r1", "r2", "r3", "r4", "r5"]


class _Gen:
    def __init__(self, rng: random.Random, allow_reserved: bool):
        self.rng = rng
        self.lines: list[str] = []
        self.funcs: list[str] = []
        self.label_n = 0
        self.func_names: list[str] = []
        self.input_words: list[int] = []
        # Cap the extras at two so the rewriter always has somewhere to
        # relocate r10/r11 (its spare pool is r0-r9 plus r12).
        extra = ["r9", "r12"] + (["r10", "r11"] if allow_reserved else [])
        rng.shuffle(extra)
        picked = [r for r in extra if rng.random() < 0.5][:2]
        self.data_regs = DATA_REGS + picked

    def label(self, stem: str) -> str:
        self.label_n += 1
        return f"{stem}_{self.label_n}"

    def reg(self) -> str:
        return self.rng.choice(self.data_regs)

    def filler(self, n: int | None = None) -> list[str]:
        out = []
        for _ in range(n if n is not None else self.rng.randint(1, 3)):
            r = self.reg()
            out.append(self.rng.choice([
                f"    add {r}, {r}, #{self.rng.randint(0, 9)}",
                f"    sub {r}, {r}, #{self.rng.randint(0, 9)}",
                f"    mov {r}, #{self.rng.randint(0, 99)}",
            ]))
        return out

    def diamond(self) -> list[str]:
        then, join = self.label("then"), self.label("join")
        cond = self.rng.choice(["beq", "bne", "blt", "bge", "bgt", "ble"])
        r = self.reg()
        out = [f"    cmp {r}, #{self.rng.randint(0, 50)}", f"    {cond} {then}"]
        out += self.filler()
        out += [f"    b {join}", f"{then}:"]
        out += self.filler()
        out += [f"{join}:"] + self.filler(1)
        return out

    def static_loop(self) -> list[str]:
        h = self.label("loop")
        counter = "r6"
        limit = self.rng.randint(0, 6)
        cond = self.rng.choice(["bne", "blt"])
        if cond == "bne" and limit == 0:
            limit = 1                       # bne with a zero limit never exits
        body = self.filler(self.rng.randint(1, 2))
        out = [f"    mov {counter}, #0", f"{h}:"]
        out += body
        out += [f"    add {counter}, {counter}, #1",
                f"    cmp {counter}, #{limit}",
                f"    {cond} {h}"]
        return out

    def dynamic_loop(self) -> list[str]:
        h = self.label("dyn")
        counter = "r6"
        limit = self.rng.randint(1, 5)
        with_call = self.func_names and self.rng.random() < 0.5
        out = [f"    mov {counter}, #0", f"{h}:"]
        if with_call:
            out.append(f"    bl {self.rng.choice(self.func_names)}")
        out += self.filler(1)
        out += [f"    add {counter}, {counter}, #2",   # non-canonical step
                f"    cmp {counter}, #{2 * limit}",
                f"    blt {h}"]
        return out

    def memory_op(self) -> list[str]:
        base, r = "r7", self.reg()
        off = 4 * self.rng.randint(0, 15)
        return [f"    mov {base}, #{SCRATCH_BASE}",
                f"    str {r}, [{base}, #{off}]",
                f"    ldr {self.reg()}, [{base}, #{off}]"]

    def input_read(self) -> list[str]:
        idx = len(self.input_words)
        self.input_words.append(self.rng.randint(0, 1000))
        return ["    mov r7, #input_base", f"    ldr {self.reg()}, [r7, #{4 * idx}]"]

    def call(self) -> list[str]:
        if not self.func_names:
            return self.filler(1)
        return [f"    bl {self.rng.choice(self.func_names)}"]

    def icall(self) -> list[str]:
        if not self.func_names:
            return self.filler(1)
        f = self.rng.choice(self.func_names)
        return [f"    mov r8, #{f}", "    blx r8"]

    def make_function(self, leaf_only: bool) -> str:
        name = self.label("fn")
        body = [f"{name}:"]
        if leaf_only or self.rng.random() < 0.5:
            body += self.filler(self.rng.randint(1, 3))
            body.append("    bx lr")
        else:
            # r6 is the loop counter at every nesting level, so callees that
            # may loop must treat it as callee-saved or a caller sitting in a
            # loop of its own would never advance.
            body.append("    push lr")
            body.append("    push r6")
            for chunk in self.pick_constructs(self.rng.randint(1, 2), inner=True):
                body += chunk
            body.append("    pop r6")
            body.append("    pop pc")
        self.funcs += body
        return name

    def pick_constructs(self, n: int, inner: bool = False) -> list[list[str]]:
        choices = [self.diamond, self.static_loop, self.memory_op, self.input_read]
        if not inner:
            choices += [self.dynamic_loop, self.call, self.icall]
        return [self.rng.choice(choices)() for _ in range(n)]


def generate_program(rng: random.Random, allow_reserved: bool = True) -> tuple[str, list[int]]:
    """Emit a structured, fault-free program exercising every rewrite kind."""
    g = _Gen(rng, allow_reserved)
    for _ in range(rng.randint(1, 2)):
        g.func_names.append(g.make_function(leaf_only=rng.random() < 0.4))
    body = ["main:"]
    for r in g.data_regs:
        body.append(f"    mov {r}, #{rng.randint(0, 60)}")
    for chunk in g.pick_constructs(rng.randint(2, 5)):
        body += chunk
    body.append("    nsc_call")
    return "\n".join(body + g.funcs) + "\n", g.input_words


# --- per-tick reference scenario driver -------------------------------------

def run_per_tick(spec: ScenarioSpec) -> ScenarioResult:
    """``scenario.run`` as a plain per-tick loop: every tick polls both
    channels, steps the device once and ticks the auditor. The scenario
    clock must give the same result while skipping quiet ticks."""
    asm2, _ = instrument(spec.asm_text)
    prog2 = isa.assemble(asm2)
    machine = Machine(prog2.image)
    prover = Prover(machine,
                    ProverConfig(policy=spec.policy, log_max=spec.log_max,
                                 app_id=spec.app_id,
                                 resend_interval=spec.device_resend),
                    prog2.entry)
    prover.boot()
    load_input(machine, resolve_input(spec.input_tokens, prog2.labels))
    if spec.pmem_flip is not None:
        if not 0 <= spec.pmem_flip < len(machine.pmem):
            raise ScenarioError("pmem_flip offset outside the image")
        machine.pmem[spec.pmem_flip] ^= spec.pmem_flip_mask

    vrf = Verifier(asm2, VerifierConfig(
        app_id=spec.app_id, delta=spec.delta, policy=spec.policy,
        initial_chal=spec.initial_chal, resend_interval=spec.verifier_resend,
        heal_on_mac_mismatch=spec.heal_on_mac_mismatch))
    link = Link.create(spec.channel)

    verdicts: list[str] = []
    now = 0
    for msg in vrf.start(now):
        link.to_device.send(now, msg)

    did_reset = False
    ns_at_reset = 0
    seen_at_reset = 0
    post_reset_ns: int | None = None
    ns_at_heal: int | None = None
    settled = False

    while now < spec.max_ticks:
        now += 1
        if spec.reset_at is not None and now == spec.reset_at and not did_reset:
            did_reset = True
            ns_at_reset = prover.metrics.total_ns
            seen_at_reset = len(vrf.slices) + vrf.duplicates
            machine.reset()
            for msg in prover.boot():
                link.to_verifier.send(now, msg)
        for data in link.to_device.poll(now):
            if ns_at_heal is None \
                    and wire.message_type(data) == wire.MSG_RESPONSE \
                    and wire.Response.parse(data).result == wire.RESULT_HEAL:
                ns_at_heal = prover.metrics.total_ns
            for out in prover.handle_message(data):
                link.to_verifier.send(now, out)
        for out in prover.step():
            link.to_verifier.send(now, out)
        for data in link.to_verifier.poll(now):
            for out in vrf.handle(data, now):
                verdicts.append(wire.RESULT_NAMES[wire.Response.parse(out).result])
                link.to_device.send(now, out)
            if did_reset and post_reset_ns is None \
                    and len(vrf.slices) + vrf.duplicates > seen_at_reset:
                post_reset_ns = prover.metrics.total_ns - ns_at_reset
        for out in vrf.tick(now):
            link.to_device.send(now, out)

        if link.to_device.pending() or link.to_verifier.pending():
            continue
        if prover.state is ProverState.FROZEN:
            settled = True
            break
        if prover.state is ProverState.WAITING \
                and (vrf.session_over or vrf.first_report_seen):
            settled = True
            break

    last = vrf.slices[-1] if vrf.slices else None
    result = ScenarioResult(
        name=spec.name,
        settled=settled,
        ticks=now,
        verdicts=verdicts,
        verdict=verdicts[-1] if verdicts else "none",
        heal_issued="heal" in verdicts,
        violation=vrf.violation.kind if vrf.violation else "none",
        violation_index=vrf.violation.index if vrf.violation else None,
        device_state=prover.state.value,
        pmem_zeroed=not any(machine.pmem),
        slices_audited=len(vrf.slices),
        device_slices=prover.metrics.slices_sent,
        log_bytes=sum(s.size for s in vrf.slices),
        destinations_seen=vrf.destinations_seen,
        duplicates=vrf.duplicates,
        rejected=vrf.rejected,
        reports_transmitted=prover.metrics.report_sends,
        reports_received=len(vrf.slices) + vrf.duplicates + vrf.rejected,
        retransmissions=prover.metrics.retransmissions,
        remnant_reports=prover.metrics.remnant_reports,
        triggers=dict(prover.metrics.triggers),
        windows=list(prover.metrics.windows),
        max_window=max(prover.metrics.windows, default=0),
        post_heal_ns=None if ns_at_heal is None
        else prover.metrics.total_ns - ns_at_heal,
        post_reset_ns=post_reset_ns,
        final_digest=last.digest.hex() if last else "",
        channel_stats={
            "to_device": asdict(link.to_device.stats),
            "to_verifier": asdict(link.to_verifier.stats)},
        failures=[])
    result.failures = _check_expectations(spec, result)
    return result
