"""Secure-World supervisor: gateway service, retained session context,
and the device-side attestation state machine.

The supervisor owns everything the app must not touch: the audit log in
retained memory, the watchdog timer, report generation, and the response
handling that gates further execution. The app only ever re-enters through
``service_gateway``, which logs the destination and resumes it.

Report cadence has three causes, all funneled through one path:

    deadline   watchdog fired after delta app instructions
    capacity   the log cannot absorb the next event
    app end    the protected end-door was reached

A report slice is only discarded after a fresh, authenticated response
arrives, so evidence survives resets: on boot an interrupted session is
re-reported from retained memory before the app could run again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import isa, wire
from .cfa_engine import AppendResult, CfLog, DEFAULT_LOG_MAX
from .context import (AuditContext, F_FINAL, F_FROZEN, F_REMEDIATION,
                      F_REPORT_PENDING, F_VALID, LOG_BUFFER_OFFSET, POLICY_WIPE,
                      partial_store)
from .resolver import Resolver
from .vm import Fault, Halted, Machine, NscEntry, TimerTrigger, World

# --- gateway service -------------------------------------------------------

_EXIT_SENTINEL = isa.NSC_EXIT


def service_gateway(m: Machine, log: CfLog, ev: NscEntry) -> str | None:
    """Log one gateway event and resume the app.

    Returns None on success, "exit" at the protected end-door (machine left
    in the Secure World), or "full" when the log could not absorb the event
    (machine left parked at the gateway so the event can be replayed).
    """
    snap = ev.snapshot
    if ev.addr == isa.NSC_EXIT:
        return "exit"
    if ev.addr == isa.TRAMP_COND:
        dest = snap.lr
        res = log.append(dest, backward=dest < snap.pre_caller_pc)
        resume, restore_lr = dest, True
    elif ev.addr == isa.TRAMP_RET:
        dest = snap.lr
        res = log.append(dest, backward=dest < snap.caller_pc)
        resume, restore_lr = dest, False
    elif ev.addr == isa.TRAMP_ICALL:
        dest = snap.r10
        res = log.append(dest, backward=dest < snap.caller_pc)
        resume, restore_lr = dest, False
    elif ev.addr == isa.TRAMP_LOOP:
        res = log.log_static_loop(snap.r10, snap.r11)
        resume, restore_lr = snap.lr, True
    else:
        raise ValueError(f"not a gateway entry point: {ev.addr:#x}")
    if res is AppendResult.FULL:
        return "full"
    m.enter_nonsecure(resume)
    if restore_lr:
        # the arrival call clobbered lr; give the app back its own
        m.regs[isa.LR] = snap.prev_lr
    return None


# --- prover ------------------------------------------------------------------

# what append acknowledged, persisted after every logged transfer
_store_log_state = partial_store("log_size", "engine_state")


class ProverState(enum.Enum):
    WAITING = "waiting"
    EXECUTING = "executing"
    TRANSMIT_WAIT = "transmit_wait"
    REMEDIATE = "remediate"
    FROZEN = "frozen"


@dataclass
class ProverConfig:
    key: bytes = b"\x11" * 32
    app_id: int = 1
    log_max: int = DEFAULT_LOG_MAX
    policy: int = POLICY_WIPE
    resend_interval: int = 1000
    wipe_chunk: int = 1024

    def __post_init__(self):
        if self.log_max < 16:
            raise ValueError("log_max too small for a single event")
        if LOG_BUFFER_OFFSET + self.log_max > isa.RETAINED_SIZE:
            raise ValueError("log_max exceeds the retained window")


@dataclass
class ProverMetrics:
    total_ns: int = 0
    slices_sent: int = 0
    report_sends: int = 0
    retransmissions: int = 0
    triggers: dict = field(default_factory=lambda: {"deadline": 0, "capacity": 0, "end": 0, "fault": 0})
    windows: list = field(default_factory=list)
    gateway_calls: dict = field(default_factory=dict)
    remnant_reports: int = 0


class Prover:
    """Device-side protocol driver around one Machine."""

    def __init__(self, machine: Machine, config: ProverConfig, entry: int):
        self.m = machine
        self.config = config
        self.entry = entry
        self.state = ProverState.WAITING
        self.ctx = AuditContext(log_max=config.log_max, entry=entry,
                                image_len=len(machine.pmem), policy=config.policy)
        self.log: CfLog | None = None
        self.metrics = ProverMetrics()
        self.ns_since_trigger = 0
        self.current_report: bytes | None = None
        self._resend_clock = 0
        self._stalled: tuple[str, NscEntry | None] | None = None
        self._resolver: Resolver | None = None
        self._post_heal = False
        self.max_chal_seen = 0

    # -- helpers ----------------------------------------------------------

    def _attach_log(self, size: int = 0) -> None:
        window = memoryview(self.m.retained_mem)[
            LOG_BUFFER_OFFSET:LOG_BUFFER_OFFSET + self.ctx.log_max]
        self.log = CfLog(capacity=self.ctx.log_max, buffer=window)
        self.log.size = size
        if size:
            self.log.restore(self.ctx.engine_state)

    def _persist(self) -> None:
        self.ctx.store(self.m.retained_mem)

    def _persist_size(self) -> None:
        # size and matcher state together: what append acknowledged must
        # survive a power cycle, including an in-flight repetition count
        if self.log is not None:
            self.ctx.log_size = self.log.size
            self.ctx.engine_state = self.log.checkpoint()
        _store_log_state(self.ctx, self.m.retained_mem)

    def _slice_bytes(self) -> bytes:
        base = LOG_BUFFER_OFFSET
        return bytes(self.m.retained_mem[base:base + self.ctx.log_size])

    # -- boot --------------------------------------------------------------

    def boot(self) -> list[bytes]:
        """Cold or warm start. An interrupted session found in retained
        memory produces its evidence before the app could ever run again."""
        self._stalled = None
        self.current_report = None
        ctx = AuditContext.load(self.m.retained_mem)
        if ctx is None or not ctx.flag(F_VALID):
            self.state = ProverState.WAITING
            return []
        self.ctx = ctx
        if ctx.flag(F_FROZEN):
            self.state = ProverState.FROZEN
            self.m.halted = True
            return []
        if ctx.flag(F_REMEDIATION):
            self._attach_log(ctx.log_size)
            self._resolver = Resolver(self.m, ctx.policy, self.config.wipe_chunk)
            self.state = ProverState.REMEDIATE
            self._post_heal = True
            return []
        # interrupted run: re-report the retained slice, session ends here
        self._attach_log(ctx.log_size)
        if not ctx.flag(F_REPORT_PENDING):
            # an in-flight repetition restored from the checkpoint still
            # needs materializing so the remnant covers every append
            self.log.flush_pending()
            self._persist_size()
            digest = self.m.hash_pmem()
            ctx.sigma = wire.report_sigma(self.config.key, digest,
                                          self._slice_bytes(), ctx.chal)
            ctx.set_flag(F_REPORT_PENDING)
        ctx.set_flag(F_FINAL)
        self._persist()
        self.metrics.remnant_reports += 1
        return self._emit_report()

    # -- message handling ----------------------------------------------------

    def handle_message(self, data: bytes) -> list[bytes]:
        kind = wire.message_type(data)
        if kind == wire.MSG_REQUEST:
            return self._handle_request(data)
        if kind == wire.MSG_RESPONSE:
            return self._handle_response(data)
        return []

    def _handle_request(self, data: bytes) -> list[bytes]:
        try:
            req, tag = wire.AttestRequest.parse(data)
        except wire.WireError:
            return []
        if not req.verify(self.config.key, tag):
            return []
        if req.app_id != self.config.app_id:
            return []
        if self.state is ProverState.WAITING and req.chal > self.max_chal_seen:
            self.max_chal_seen = req.chal
            return self._setup_app(req)
        if req.chal == self.ctx.chal and self.state is ProverState.TRANSMIT_WAIT \
                and self.current_report is not None:
            self.metrics.retransmissions += 1
            self.metrics.report_sends += 1
            return [self.current_report]
        return []

    def _setup_app(self, req: wire.AttestRequest) -> list[bytes]:
        self.ctx = AuditContext(app_id=req.app_id, delta=req.delta, chal=req.chal,
                                log_max=self.config.log_max, entry=self.entry,
                                image_len=len(self.m.pmem), policy=self.config.policy)
        self.ctx.set_flag(F_VALID)
        self._attach_log()
        self._persist()
        if self.m.perm.pmem_locked:
            self.m.unlock_pmem()
        self.m.lock_pmem()
        self.m.timer.arm(req.delta)
        self.m.enter_nonsecure(self.entry)
        self.state = ProverState.EXECUTING
        self.ns_since_trigger = 0
        return []

    def _handle_response(self, data: bytes) -> list[bytes]:
        try:
            resp = wire.Response.parse(data)
        except wire.WireError:
            return []
        if not resp.verify(self.config.key):
            return []
        if resp.chal <= self.ctx.chal or self.state is not ProverState.TRANSMIT_WAIT:
            return []                     # stale, replayed, or unexpected
        self.max_chal_seen = max(self.max_chal_seen, resp.chal)

        if resp.result == wire.RESULT_HEAL and not self._post_heal:
            self.ctx.chal = resp.chal
            self.ctx.set_flag(F_REPORT_PENDING, False)
            self.ctx.set_flag(F_REMEDIATION)
            self._persist()
            self._resolver = Resolver(self.m, self.ctx.policy, self.config.wipe_chunk)
            self._resolver.start(self.ctx, self.m.retained_mem)
            self.state = ProverState.REMEDIATE
            self._post_heal = True
            self.current_report = None
            return []
        if resp.result == wire.RESULT_END or self.ctx.flag(F_FINAL) or self._post_heal:
            return self._conclude()
        if resp.result == wire.RESULT_EXEC:
            return self._resume_execution(resp.chal)
        return []

    def _conclude(self) -> list[bytes]:
        """Session over: scrub the retained context and await the next one."""
        if self.log is not None:
            self.log.active = False
        AuditContext.erase(self.m.retained_mem)
        self.ctx.flags = 0
        self.m.timer.deactivate()
        self.state = ProverState.WAITING
        self.current_report = None
        self._post_heal = False
        return []

    def _resume_execution(self, new_chal: int) -> list[bytes]:
        self.log.clear()
        self.ctx.chal = new_chal
        self.ctx.set_flag(F_REPORT_PENDING, False)
        self.ctx.log_size = 0
        self._persist()
        self.current_report = None
        stalled, self._stalled = self._stalled, None
        if stalled is not None:
            kind, ev = stalled
            if kind == "event":
                outcome = service_gateway(self.m, self.log, ev)
                self._persist_size()
                if outcome == "full":     # cannot happen: fresh slice
                    self._stalled = stalled
                    return self._trigger_report("capacity")
            else:                          # app end was waiting for room
                self.log.append(_EXIT_SENTINEL)
                return self._trigger_report("end")
        if self.m.world is World.SECURE:
            # deadline stall: the core was yanked out mid-run, so return it
            # to the interrupted instruction (gateway stalls re-entered the
            # app already, inside service_gateway)
            self.m.enter_nonsecure(self.m.pc)
        self.m.timer.resume()
        self.state = ProverState.EXECUTING
        self.ns_since_trigger = 0
        return []

    # -- execution ------------------------------------------------------------

    def step(self) -> list[bytes]:
        """Advance the device by one tick."""
        return self.advance(1)[1]

    def advance(self, budget: int) -> tuple[int, list[bytes]]:
        """Advance the device by up to ``budget`` ticks, one tick being one
        unit of work: an app cycle, a wait, or a remediation chunk.

        Stops after the first tick that emits output or changes the
        protocol state, so a caller that only acts on those sees exactly
        what per-tick stepping would show. Returns the ticks used and the
        output of the last one.
        """
        state = self.state
        ticks, out = 0, []
        while ticks < budget and not out and self.state is state:
            left = budget - ticks
            if state is ProverState.EXECUTING:
                n, ev = self.m.run(left)
                self.metrics.total_ns += n
                self.ns_since_trigger += n
                ticks += n
                if ev is not None:
                    ticks += 1
                    out = self._on_app_event(ev)
            elif state is ProverState.TRANSMIT_WAIT:
                # silent ticks only wind the resend clock forward
                wait = max(self.config.resend_interval - self._resend_clock, 1)
                if self.current_report is None or wait > left:
                    self._resend_clock += left
                    ticks += left
                else:
                    ticks += wait
                    self._resend_clock = 0
                    self.metrics.retransmissions += 1
                    self.metrics.report_sends += 1
                    out = [self.current_report]
            elif state is ProverState.REMEDIATE:
                ticks += 1
                out = self._remediate()
            else:                          # waiting or frozen: nothing to do
                ticks = budget
        return ticks, out

    def _remediate(self) -> list[bytes]:
        done = self._resolver.step(self.ctx, self.m.retained_mem)
        if not done:
            return []
        if self.ctx.flag(F_FROZEN):
            self.state = ProverState.FROZEN
            self.m.halted = True
            return []
        return self._post_heal_report()

    def _on_app_event(self, ev: TimerTrigger | NscEntry | Fault | Halted) -> list[bytes]:
        if isinstance(ev, TimerTrigger):
            return self._trigger_report("deadline")
        if isinstance(ev, NscEntry):
            self.metrics.gateway_calls[ev.addr] = \
                self.metrics.gateway_calls.get(ev.addr, 0) + 1
            if ev.addr == isa.NSC_EXIT:
                res = self.log.append(_EXIT_SENTINEL)
                if res is AppendResult.FULL:
                    self._stalled = ("exit", None)
                    return self._trigger_report("capacity")
                return self._trigger_report("end")
            outcome = service_gateway(self.m, self.log, ev)
            self._persist_size()
            if outcome == "full":
                self._stalled = ("event", ev)
                return self._trigger_report("capacity")
            return []
        # hardware faults reset the device outright; the boot path then
        # re-reports whatever evidence the retained region holds
        self.metrics.triggers["fault"] += 1
        self.m.reset()
        return self.boot()

    def _trigger_report(self, reason: str) -> list[bytes]:
        self.metrics.triggers[reason] += 1
        self.metrics.windows.append(self.ns_since_trigger)
        self.ns_since_trigger = 0
        self.m.timer.clear_and_pause()
        self.m.enter_secure()
        return self._generate_report()

    def _generate_report(self) -> list[bytes]:
        self.log.flush_pending()
        self._persist_size()
        digest = self.m.hash_pmem()
        slice_bytes = self.log.to_bytes()
        self.ctx.sigma = wire.report_sigma(self.config.key, digest,
                                           slice_bytes, self.ctx.chal)
        self.ctx.set_flag(F_REPORT_PENDING)
        self._persist()
        self.metrics.slices_sent += 1
        return self._emit_report()

    def _emit_report(self) -> list[bytes]:
        self.current_report = wire.Report(self.ctx.sigma, self._slice_bytes()).pack()
        self.state = ProverState.TRANSMIT_WAIT
        self._resend_clock = 0
        self.metrics.report_sends += 1
        return [self.current_report]

    def _post_heal_report(self) -> list[bytes]:
        """Attest the remediated image so the verifier can confirm the heal."""
        self.ctx.set_flag(F_REMEDIATION, False)
        self._attach_log()
        self.log.append(_EXIT_SENTINEL)
        self._persist_size()
        return self._generate_report()
