"""Shared test machinery: reference trace oracle, structured program
generator, a minimal gateway-service harness, the event-path reference
for ``Prover.advance``, a per-tick reference scenario runner, log-word
encoders, the per-destination log decoder and walker the auditor used
before it walked log runs, a hop memo that counts the walk's lookups, and
the opcode chain the machine ran before it ran closures.

The oracle runs the ORIGINAL (uninstrumented) program and predicts the raw
dynamic destination sequence the instrumented twin must log, expressed in
rewritten-image addresses via the sidecar line map. It never touches the
log engine or the gateway dispatch, so engine bugs cannot cancel out.
"""

from __future__ import annotations

import random
import struct
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from cfaudit import isa, wire
from cfaudit.isa import DMEM_BASE, INSTR_WIDTH, NSC_EXIT, PMEM_BASE
from cfaudit.cfa_engine import (ADDR_MASK, COUNT_MASK, TAG_BIT, UNIT_MASK,
                                UNIT_SHIFT, UNIT_SINGLE, UNIT_STATIC, CfLog,
                                MalformedLog, iter_entries)
from cfaudit.channel import Link
from cfaudit.instrument import InstrumentationMap, detect_static_loops, instrument
from cfaudit.scenario import (ScenarioError, ScenarioResult, ScenarioSpec,
                              _check_expectations, load_input, resolve_input)
from cfaudit.supervisor import Prover, ProverConfig, ProverState, service_gateway
from cfaudit.verifier import (V_EDGE, V_ICALL, V_MALFORMED, V_SHADOW, _SHADOW_LIMIT,
                              Cfg, Verifier, VerifierConfig, Violation)
from cfaudit import scenario, verifier, vm
from cfaudit.isa import (
    LR, PC, SP, OP_ADD_RI, OP_ADD_RR, OP_B, OP_BCOND, OP_BL, OP_BLX, OP_BX_LR,
    OP_CMP_RI, OP_CMP_RR, OP_HALT, OP_LDR, OP_MOV_IMM, OP_MOV_REG, OP_NSC_CALL,
    OP_POP, OP_PUSH, OP_STR, OP_SUB_RI, OP_SUB_RR,
)
from cfaudit.vm import (_COND_TAKEN, _DMEM_END, _GATEWAY_ENTRIES, _SIGN, _UNBOUNDED,
                        MASK32, AccessKind, Event, Fault, FaultKind, Halted, Machine,
                        NscEntry, TimerTrigger, World, _load, _store)

SCRATCH_BASE = DMEM_BASE + 4096


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


def service_event(m: Machine, log: CfLog, ev: vm.NscEntry) -> str | None:
    """A logging gateway's ``NscEntry`` event serviced by
    ``service_gateway`` on the parked core's state, as ``Machine.run``
    services one with the prover's binding, its call count thrown away,
    then back into the app; a resume at a gateway entry is entered, where
    ``run`` faults. Returns None once resumed, or "full" with the machine
    left parked at the gateway."""
    resume = service_gateway(m, log, {}, ev.addr, m.last_exec_pc, m.prev_exec_pc,
                             m.prev_lr)
    if resume is None:
        return "full"
    m.enter_nonsecure(resume)
    return None


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
            if ev.addr == NSC_EXIT:
                # seal the trace the way the attestation loop does
                assert log.append(ev.addr)
                break
            outcome = service_event(m, log, ev)
            assert outcome is None, f"unexpected gateway outcome {outcome}"
        elif isinstance(ev, (vm.Fault, vm.Halted)):
            faulted = isinstance(ev, vm.Fault)
            break
    log.flush()
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


# --- event-path reference for Prover.advance -----------------------------------

def advance_by_events(prover: Prover, budget: int) -> tuple[int, list[bytes]]:
    """``Prover.advance`` with every gateway entry taken as an event:
    ``Machine.run`` gets no handler, a logging entry is serviced through
    the prover's bound ``service_gateway`` with the parked core's state,
    and ``_on_app_event`` gets only what that refuses, the exit door,
    deadlines and faults. The in-block gateway service must match it tick
    for tick."""
    self = prover
    state = self.state
    ticks, out = 0, []
    while ticks < budget and not out and self.state is state:
        left = budget - ticks
        if state is ProverState.EXECUTING:
            m = self.m
            n, ev = m.run(left)
            self.metrics.total_ns += n
            ticks += n
            if ev is not None:
                ticks += 1
                if isinstance(ev, NscEntry) and ev.addr != NSC_EXIT:
                    resume = self._gateway(ev.addr, m.last_exec_pc,
                                           m.prev_exec_pc, m.prev_lr)
                    if resume is not None:
                        m.enter_nonsecure(resume)
                        continue
                out = self._on_app_event(ev)
        elif state is ProverState.TRANSMIT_WAIT:
            # silent ticks only wind the resend clock forward
            wait = max(self.config.resend_interval - self._resend_clock, 1)
            if wait > left:
                self._resend_clock += left
                ticks += left
            else:
                ticks += wait
                self._resend_clock = 0
                self.metrics.retransmissions += 1
                self.metrics.report_sends += 1
                out = [self._report()]
        elif state is ProverState.REMEDIATE:
            ticks += 1
            out = self._remediate()
        else:                          # waiting or frozen: nothing to do
            ticks = budget
    return ticks, out


def clear_image_caches() -> None:
    """Forget every program's deployment and every rewritten text's graph."""
    scenario.deploy.cache_clear()
    verifier._golden_cfg.cache_clear()


# --- per-tick reference scenario driver -------------------------------------

def run_per_tick(spec: ScenarioSpec,
                 on_tick: Callable[[Machine], None] | None = None) -> ScenarioResult:
    """``scenario.run`` as a plain per-tick loop: every tick polls both
    channels, steps the device once and ticks the auditor. The scenario
    clock must give the same result while skipping quiet ticks. A power
    cut builds a new prover, as ``scenario.run`` does.
    ``on_tick`` is handed the machine at the end of every tick."""
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
        flipped = machine.pmem[spec.pmem_flip] ^ 0x01
        machine.write_pmem(isa.PMEM_BASE + spec.pmem_flip, bytes([flipped]))

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
    settled = False

    while now < spec.max_ticks:
        now += 1
        if spec.reset_at is not None and now == spec.reset_at and not did_reset:
            did_reset = True
            ns_at_reset = prover.metrics.total_ns
            seen_at_reset = vrf.audited + vrf.duplicates
            machine.reset()
            # the cut loses the prover's RAM: only its counters carry over
            prover = Prover(machine, prover.config, prover.entry, prover.metrics)
            for msg in prover.boot():
                link.to_verifier.send(now, msg)
        for data in link.to_device.poll(now):
            for out in prover.handle_message(data):
                link.to_verifier.send(now, out)
        for out in prover.step():
            link.to_verifier.send(now, out)
        for data in link.to_verifier.poll(now):
            for out in vrf.handle(data, now):
                verdicts.append(wire.RESULT_NAMES[wire.response_result(out)])
                link.to_device.send(now, out)
            if did_reset and post_reset_ns is None \
                    and vrf.audited + vrf.duplicates > seen_at_reset:
                post_reset_ns = prover.metrics.total_ns - ns_at_reset
        for out in vrf.tick(now):
            link.to_device.send(now, out)
        if on_tick is not None:
            on_tick(machine)

        if link.to_device.pending() or link.to_verifier.pending():
            continue
        if prover.state is ProverState.FROZEN:
            settled = True
            break
        if prover.state is ProverState.WAITING \
                and (vrf.session_over or vrf.audited):
            settled = True
            break

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
        slices_audited=vrf.audited,
        device_slices=prover.metrics.slices_sent,
        log_bytes=vrf.log_bytes,
        destinations_seen=vrf.destinations_seen,
        duplicates=vrf.duplicates,
        rejected=vrf.rejected,
        reports_transmitted=prover.metrics.report_sends,
        reports_received=vrf.audited + vrf.duplicates + vrf.rejected,
        retransmissions=prover.metrics.retransmissions,
        remnant_reports=prover.metrics.remnant_reports,
        triggers=dict(prover.metrics.triggers),
        windows=list(prover.metrics.windows),
        max_window=max(prover.metrics.windows, default=0),
        post_heal_ns=None if prover.metrics.ns_at_heal is None
        else prover.metrics.total_ns - prover.metrics.ns_at_heal,
        post_reset_ns=post_reset_ns,
        final_digest=vrf.last_digest.hex(),
        channel_stats={
            "to_device": asdict(link.to_device.stats),
            "to_verifier": asdict(link.to_verifier.stats)},
        failures=[])
    result.failures = _check_expectations(spec, result)
    return result


# --- reference decoder and walker -------------------------------------------

def encode_address(addr: int) -> bytes:
    """The log word for destination ``addr``, its tag bit clear."""
    if not 0 <= addr < TAG_BIT:
        raise ValueError(f"address {addr:#x} exceeds 31 bits")
    return struct.pack(">I", addr)


def encode_count(unit: int, count: int) -> bytes:
    """The count record of repetition unit kind ``unit``, its count
    clamped to ``COUNT_MASK``."""
    return struct.pack(">I", TAG_BIT | unit << UNIT_SHIFT | min(count, COUNT_MASK))


def reference_decompress(data: bytes) -> list[int]:
    """The log decoder the auditor used before ``cfa_engine.runs``: expand an
    entry stream back to the raw dynamic destination sequence.

    Inverse of the append-side compression; raises MalformedLog when a
    count record lacks the entries its unit refers to.
    """
    words = list(iter_entries(data))
    out: list[int] = []
    i = 0
    n = len(words)
    while i < n:
        w = words[i]
        if not w & TAG_BIT:
            addr = w & ADDR_MASK
            if i + 1 < n and words[i + 1] & TAG_BIT \
                    and (words[i + 1] & UNIT_MASK) >> UNIT_SHIFT == UNIT_STATIC:
                limit = words[i + 1] & COUNT_MASK
                out.extend([addr] * max(limit - 1, 0))
                i += 2
                continue
            out.append(addr)
            i += 1
            continue
        unit_kind = (w & UNIT_MASK) >> UNIT_SHIFT
        count = w & COUNT_MASK
        if unit_kind == UNIT_STATIC:
            raise MalformedLog(i, "static loop count without header entry")
        width = 1 if unit_kind == UNIT_SINGLE else 2
        if i < width or any(words[i - k] & TAG_BIT for k in range(1, width + 1)):
            raise MalformedLog(i, "count record lacks preceding unit")
        unit = [words[i - k] & ADDR_MASK for k in range(width, 0, -1)]
        out.extend(unit * count)
        i += 1
    return out


def _inst_at(cfg: Cfg, addr: int) -> isa.Instruction | None:
    line = cfg.prog.line_at_addr(addr)
    return None if line is None else cfg.prog.instructions[line]


class ReferenceWalker:
    """The per-instruction walker the auditor used before it walked log
    runs: it steps one instruction at a time over the expanded destination
    list. Kept verbatim, except that it looks instructions up itself,
    ends at a direct jump to the exit door as at ``nsc_call`` (D21) and
    fails at a pop into pc as at the other unrewritten indirects, as the
    oracle the run walker is checked against."""

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        self.pc = cfg.prog.entry
        self.shadow: list[int] = []
        self.stream: list[int] = []
        self.pos = 0
        self.done = False
        self.violation: Violation | None = None
        self.steps = 0

    def _fail(self, kind: str, detail: str = "", index: int | None = None) -> None:
        self.violation = Violation(kind, self.pos if index is None else index, detail)

    def feed(self, destinations: list[int]) -> None:
        self.stream.extend(destinations)
        self.advance()

    @property
    def budget(self) -> int:
        return (len(self.stream) + 4) * (len(self.cfg.prog.instructions) + 8)

    def advance(self) -> None:
        take = self._take
        while self.violation is None and not self.done:
            self.steps += 1
            if self.steps > self.budget:
                self._fail(V_MALFORMED, "walk budget exhausted")
                return
            inst = _inst_at(self.cfg, self.pc)
            if inst is None:
                self._fail(V_MALFORMED, f"walk left the program at {self.pc:#x}")
                return
            op, imm = inst.op, inst.imm
            if op == isa.OP_BL and imm == isa.TRAMP_COND:
                if not self._avail(1):
                    return
                e = take()
                if e != self.pc + isa.INSTR_WIDTH:
                    self._fail(V_EDGE, f"arrival {e:#x} does not match site "
                               f"{self.pc + isa.INSTR_WIDTH:#x}", self.pos - 1)
                    return
                self.pc += isa.INSTR_WIDTH
            elif op == isa.OP_BL and imm == isa.TRAMP_ICALL:
                if not self._avail(1):
                    return
                e = take()
                if e not in self.cfg.icall_targets:
                    self._fail(V_ICALL, f"indirect call to {e:#x}", self.pos - 1)
                    return
                if len(self.shadow) >= _SHADOW_LIMIT:
                    self._fail(V_MALFORMED, "shadow stack overflow")
                    return
                self.shadow.append(self.pc + isa.INSTR_WIDTH)
                self.pc = e
            elif op == isa.OP_BL and imm == isa.TRAMP_LOOP:
                info = self.cfg.loops[self.pc]
                copies = max(info.limit - 1, 0)
                if not self._avail(copies):
                    return
                for _ in range(copies):
                    e = take()
                    if e != info.header:
                        self._fail(V_EDGE, f"loop record for {e:#x} does not match "
                                   f"header {info.header:#x}", self.pos - 1)
                        return
                self.pc = info.exit
            elif op == isa.OP_B and imm == isa.TRAMP_RET:
                if not self._avail(1):
                    return
                e = take()
                if not self.shadow or self.shadow[-1] != e:
                    self._fail(V_SHADOW, f"return to {e:#x}", self.pos - 1)
                    return
                self.shadow.pop()
                self.pc = e
            elif op == isa.OP_NSC_CALL or imm == isa.NSC_EXIT and op in (isa.OP_B, isa.OP_BL):
                if not self._avail(1):
                    return
                e = take()
                if e != isa.NSC_EXIT:
                    self._fail(V_EDGE, f"end-door arrival {e:#x}", self.pos - 1)
                    return
                self.done = True
            elif op == isa.OP_BL:
                if len(self.shadow) >= _SHADOW_LIMIT:
                    self._fail(V_MALFORMED, "shadow stack overflow")
                    return
                self.shadow.append(self.pc + isa.INSTR_WIDTH)
                self.pc = imm
            elif op == isa.OP_B:
                self.pc = imm
            elif op == isa.OP_BCOND:
                if not self._avail(1):
                    return
                e = self.stream[self.pos]
                taken_site = imm + isa.INSTR_WIDTH
                fall_site = self.pc + 2 * isa.INSTR_WIDTH
                if e == taken_site:
                    self.pc = imm
                elif e == fall_site:
                    self.pc += isa.INSTR_WIDTH
                else:
                    self._fail(V_EDGE, f"{e:#x} is neither destination of the "
                               f"branch at {self.pc:#x}")
                    return
            elif op == isa.OP_HALT:
                self.done = True
            elif op == isa.OP_BLX or op == isa.OP_BX_LR or op == OP_POP and inst.ra == PC:
                self._fail(V_MALFORMED, f"unrewritten indirect at {self.pc:#x}")
                return
            else:
                self.pc += isa.INSTR_WIDTH
        if self.done and self.pos != len(self.stream):
            self._fail(V_MALFORMED, "entries beyond the end of execution")

    def _avail(self, k: int) -> bool:
        return len(self.stream) - self.pos >= k

    def _take(self) -> int:
        self.pos += 1
        return self.stream[self.pos - 1]


class CountedHops(dict):
    """A hop memo that counts the lookups the hop loop makes: the hops a
    walk takes, not those it skips. Past ``budget`` lookups it fails, so a
    walk that should skip fails fast where it would walk on."""

    lookups = 0

    def __init__(self, budget: float = float("inf")):
        super().__init__()
        self.budget = budget

    def __getitem__(self, pc):
        self.lookups += 1
        assert self.lookups <= self.budget, "the walk takes more hops than its budget"
        return super().__getitem__(pc)


# --- reference machine ------------------------------------------------------

class ReferenceMachine(Machine):
    """The machine as it ran before its code became closures: ``run`` is
    the opcode chain over per-word predecoded tuples, kept verbatim as the
    oracle the closures are checked against. Flags and the previous lr are
    plain attributes here."""

    flag_z = flag_n = False
    prev_lr = 0

    def __init__(self, pmem: bytes, code=None):
        super().__init__(pmem, code)
        self._decode_cache = _predecoded(bytes(pmem))

    def reset(self) -> None:
        super().reset()
        self.flag_z = self.flag_n = False
        self.prev_lr = 0

    def store_word(self, addr: int, value: int) -> None:
        super().store_word(addr, value)
        self._decode_cache.pop(addr, None)

    def write_pmem(self, addr: int, data: bytes) -> None:
        super().write_pmem(addr, data)
        self._decode_cache.clear()

    def _predecode_at(self, pc: int) -> tuple | Fault:
        """Fetch the word at ``pc`` for execution in the current world.
        Program-memory words are kept in the predecoded table."""
        if pc % INSTR_WIDTH:
            return Fault(FaultKind.UNALIGNED, pc)
        fk = self._checked(pc, AccessKind.EXECUTE)
        if fk is not None:
            return Fault(fk, pc)
        store, off, _ = self._decode_addr(pc)
        inst = _predecode(bytes(store[off:off + INSTR_WIDTH]))
        if store is self.pmem:
            self._decode_cache[pc] = inst
        return inst

    def run(self, limit: int | None = None,
            gateway=None,
            ) -> tuple[int, Event | None]:
        limit = _UNBOUNDED if limit is None else limit
        if limit <= 0:
            return 0, None
        if self.halted:
            self.cycle_count += 1
            return 0, Halted()

        regs = self.regs
        ns = self.world is World.NONSECURE
        timer = self.timer
        counting = ns and timer.active
        budget = limit
        if counting and timer.delta - timer.elapsed < limit:
            budget = timer.delta - timer.elapsed     # the deadline ends the block
        fetch = self._decode_cache.get
        # dmem is read/write in both worlds, so its accesses are never checked
        dmem, dmem_lo, dmem_hi = self.dmem, DMEM_BASE, _DMEM_END
        pc = regs[PC]
        last, prev, prev_lr = self.last_exec_pc, self.prev_exec_pc, self.prev_lr
        flags = (self.flag_z << 1) | self.flag_n
        n = 0
        served = 0
        halt_counted = 0
        ev: Event | None = None

        while n < budget:
            inst = fetch(pc)
            if inst is None:
                if ns and pc in _GATEWAY_ENTRIES:
                    if gateway is not None and pc != NSC_EXIT:
                        resume = gateway(pc, last, prev, prev_lr)
                        if resume is not None:
                            # one cycle of the limit, not of the deadline
                            pc = resume
                            served += 1
                            limit -= 1
                            budget = min(budget, limit)
                            continue
                    regs[PC] = pc
                    self.world = World.SECURE
                    ev = NscEntry(pc)
                    break
                inst = self._predecode_at(pc)
                if inst.__class__ is Fault:
                    ev = inst
                    break
            op, ra, rb, imm = inst
            nxt = pc + INSTR_WIDTH

            if op == OP_ADD_RI:
                regs[ra] = (regs[rb] + imm) & MASK32
            elif op == OP_CMP_RI:
                a = regs[ra] ^ _SIGN          # imm is predecoded the same way
                flags = 2 if a == imm else 1 if a < imm else 0
            elif op == OP_BCOND:
                if ra[flags]:                 # ra is the condition's truth table
                    nxt = imm
            elif op == OP_MOV_IMM:
                if ra == LR:
                    prev_lr = regs[LR]
                regs[ra] = imm
            elif op == OP_B:
                nxt = imm
            elif op == OP_CMP_RR:
                a, b = regs[ra] ^ _SIGN, regs[rb] ^ _SIGN
                flags = 2 if a == b else 1 if a < b else 0
            elif op == OP_BL:
                prev_lr = regs[LR]
                regs[LR] = nxt
                nxt = imm
            elif op == OP_LDR:
                addr = (regs[rb] + imm) & MASK32
                if addr % 4:
                    ev = Fault(FaultKind.UNALIGNED, addr)
                    break
                if dmem_lo <= addr < dmem_hi:
                    regs[ra] = _load(dmem, addr - dmem_lo)[0]
                else:
                    fk = self._checked(addr, AccessKind.READ)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    regs[ra] = self.load_word(addr)
            elif op == OP_STR:
                addr = (regs[rb] + imm) & MASK32
                if addr % 4:
                    ev = Fault(FaultKind.UNALIGNED, addr)
                    break
                if dmem_lo <= addr < dmem_hi:
                    _store(dmem, addr - dmem_lo, regs[ra] & MASK32)
                else:
                    fk = self._checked(addr, AccessKind.WRITE)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    self.store_word(addr, regs[ra])
            elif op == OP_SUB_RI:
                regs[ra] = (regs[rb] - imm) & MASK32
            elif op == OP_ADD_RR:
                regs[ra] = (regs[rb] + regs[imm]) & MASK32
            elif op == OP_SUB_RR:
                regs[ra] = (regs[rb] - regs[imm]) & MASK32
            elif op == OP_MOV_REG:
                if ra == LR:
                    prev_lr = regs[LR]
                    regs[LR] = regs[rb] & MASK32
                else:
                    regs[ra] = regs[rb]
            elif op == OP_PUSH:
                addr = (regs[SP] - 4) & MASK32
                if addr % 4:
                    ev = Fault(FaultKind.UNALIGNED, addr)
                    break
                if dmem_lo <= addr < dmem_hi:
                    regs[SP] = addr
                    _store(dmem, addr - dmem_lo, regs[ra] & MASK32)
                else:
                    fk = self._checked(addr, AccessKind.WRITE)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    regs[SP] = addr
                    self.store_word(addr, regs[ra])
            elif op == OP_POP:
                addr = regs[SP]
                if addr % 4:
                    ev = Fault(FaultKind.UNALIGNED, addr)
                    break
                if dmem_lo <= addr < dmem_hi:
                    val = _load(dmem, addr - dmem_lo)[0]
                else:
                    fk = self._checked(addr, AccessKind.READ)
                    if fk is not None:
                        ev = Fault(fk, addr)
                        break
                    val = self.load_word(addr)
                regs[SP] = (addr + 4) & MASK32
                if ra == PC:
                    nxt = val
                elif ra == LR:
                    prev_lr = regs[LR]
                    regs[LR] = val
                else:
                    regs[ra] = val
            elif op == OP_BX_LR:
                nxt = regs[LR]
            elif op == OP_BLX:
                prev_lr = regs[LR]
                regs[LR] = nxt
                nxt = regs[ra] & MASK32
            elif op == OP_NSC_CALL and ns:
                nxt = NSC_EXIT                # protected return; traps next cycle
            elif op == OP_NSC_CALL or op == OP_HALT:
                # without a monitor attached the gateway return ends execution
                prev, last = last, pc
                self.halted = True
                halt_counted = 1
                ev = Halted()
                break
            else:
                ev = Fault(FaultKind.ILLEGAL_INSTRUCTION, pc)
                break

            prev, last = last, pc
            pc = nxt
            n += 1
        else:
            if budget < limit:
                # deadline wins before the next instruction executes
                self.world = World.SECURE
                ev = TimerTrigger()

        regs[PC] = pc
        self.last_exec_pc, self.prev_exec_pc, self.prev_lr = last, prev, prev_lr
        self.flag_z, self.flag_n = bool(flags & 2), bool(flags & 1)
        if counting:
            timer.elapsed += n + halt_counted
        self.cycle_count += n + served if ev is None else n + served + 1
        return n, ev


def _predecoded(image: bytes) -> dict[int, tuple]:
    """Every whole word of ``image`` predecoded, by address."""
    return {PMEM_BASE + off: _predecode(image[off:off + INSTR_WIDTH])
            for off in range(0, len(image) - INSTR_WIDTH + 1, INSTR_WIDTH)}


# the opcodes whose ra, rb and imm fields name a register
_RA_NAMES = {OP_MOV_IMM, OP_MOV_REG, OP_LDR, OP_STR, OP_ADD_RI, OP_ADD_RR, OP_SUB_RI,
             OP_SUB_RR, OP_CMP_RI, OP_CMP_RR, OP_BLX, OP_PUSH}
_RB_NAMES = _RA_NAMES - {OP_MOV_IMM, OP_CMP_RI, OP_BLX, OP_PUSH}
_IMM_NAMES = {OP_ADD_RR, OP_SUB_RR}


def _predecode(word: bytes) -> tuple:
    """(op, ra, rb, imm) for the interpreter; a conditional branch carries
    its truth table as ra and a compare its immediate with the sign flipped.
    The word is checked by rules of its own, not by ``isa.decode``, which
    reads ``isa.OPS``, so that a wrong row cannot hide here too: a register
    field names r0 to lr, and only a ``pop``'s names pc too."""
    op, regs, imm = struct.unpack(">BBH", word)
    ra, rb = regs >> 4, regs & 0x0F
    if not OP_MOV_IMM <= op <= OP_HALT or op == OP_BCOND and ra not in _COND_TAKEN \
            or ra == PC and op in _RA_NAMES or rb == PC and op in _RB_NAMES \
            or imm >= PC and op in _IMM_NAMES:
        return (isa.OP_ILLEGAL, 0, 0, 0)
    if op == OP_BCOND:
        return (OP_BCOND, _COND_TAKEN[ra], 0, imm)
    if op == OP_CMP_RI:
        return (OP_CMP_RI, ra, 0, imm ^ _SIGN)
    return (op, ra, rb, imm)


def load_reference(asm_text: str) -> ReferenceMachine:
    """``vm.load_program`` on the reference machine."""
    prog = isa.assemble(asm_text)
    m = ReferenceMachine(prog.image)
    m.pc = prog.entry
    return m
