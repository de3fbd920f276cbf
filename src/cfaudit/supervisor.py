"""Secure-World supervisor: gateway service, retained session context,
and the device-side attestation state machine.

The supervisor owns everything the app must not touch: the audit log in
retained memory, the watchdog timer, report generation, and the response
handling that gates further execution. Every logged transfer goes through
one function, ``service_gateway``, which logs the destination, counts the
call and names the pc the app resumes at, or answers None when the full
log refuses it. The prover builds its log once, over the retained
window, binds the service to it and hands that binding to ``Machine.run``,
its one caller, which reads the gateway state from the parked core: in a
block, and when the next slice starts at an entry the full log refused.
Every entry is counted when the log takes it, the exit door once its
sentinel is logged. The log is a view of the retained header and window:
what it acknowledged is there when it returns, so nothing writes anything
after it.

Report cadence has three causes, all funneled through one path:

    deadline   watchdog fired after delta app instructions
    capacity   the log cannot absorb the next event
    app end    the protected end-door was reached

A report slice is only discarded after a fresh, authenticated response
arrives, so evidence survives resets: on boot an interrupted session is
re-reported from retained memory before the app could run again.

The session lives in the retained header alone. The prover reads and
writes it through ``AuditContext``, a view of those bytes, so each write
is durable when it returns and the prover keeps no copy of it; the log
reads and writes its own ``log_size`` and ``engine_state`` there too. The
prover's state is the header's flags, so a prover built on the same
memories after a power cut carries the session on. Its provisioning,
``config`` and ``entry``, is no session state: a rebuilt prover gets the
same, and builds its log and its resolver from them. A transition writes
its fields, then one whole flags word (``context`` states the rule). A
region without the magic holds no session: boot clears its challenge
floor, then its flags, whatever else it holds.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

from . import isa, wire
from .cfa_engine import ADDR_MASK, CfLog, DEFAULT_LOG_MAX
from .context import (CTX_MAGIC, AuditContext, F_FINAL, F_FROZEN, F_REMEDIATION,
                      F_REPORT_PENDING, F_VALID, LOG_BUFFER_OFFSET, OFFSETS)
from .resolver import POLICY_WIPE, Resolver
from .vm import Fault, Halted, Machine, NscEntry, TimerTrigger

# --- gateway service -------------------------------------------------------


def service_gateway(m: Machine, log: CfLog, calls: dict, addr: int, caller_pc: int,
                    pre_caller_pc: int, prev_lr: int) -> int | None:
    """Log the transfer that entered logging gateway ``addr``; its
    destination is in ``m.regs``. Returns the pc to resume the app at, its
    lr given back, and counts the call in ``calls``; or None when the log
    is full (nothing changed, nothing counted). Nothing is mapped at or
    above 2**31 and no log word holds such a destination: it resumes
    unlogged, so the fetch faults as it would unrewritten."""
    regs = m.regs
    if addr == isa.TRAMP_COND:
        dest = resume = regs[isa.LR]
        origin, restore_lr = pre_caller_pc, True
    elif addr == isa.TRAMP_RET:
        dest = resume = regs[isa.LR]
        origin, restore_lr = caller_pc, False
    elif addr == isa.TRAMP_ICALL:
        dest = resume = regs[10]
        origin, restore_lr = caller_pc, False
    elif addr == isa.TRAMP_LOOP:
        dest, resume = regs[10], regs[isa.LR]
        origin, restore_lr = None, True
    else:
        raise ValueError(f"not a logging gateway entry: {addr:#x}")
    if dest > ADDR_MASK:
        resume = dest
    elif not (log.log_static_loop(dest, regs[11]) if origin is None
              else log.append(dest, backward=dest < origin)):
        return None
    elif restore_lr:
        # the arrival call clobbered lr; give the app back its own
        regs[isa.LR] = prev_lr
    calls[addr] = calls.get(addr, 0) + 1
    return resume


def repeat_passes(log: CfLog, calls: dict, arrivals: tuple[int, ...], k: int) -> int:
    """Log up to ``k`` more passes of a loop whose passes each enter
    ``trampoline_cond`` and resume at ``arrivals``, at once, as the rounds
    of the log's repetition in flight; counts their calls in ``calls``.
    Returns the passes the log took."""
    k = log.repeat(arrivals, k)
    if k:
        calls[isa.TRAMP_COND] = calls.get(isa.TRAMP_COND, 0) + k * len(arrivals)
    return k


# --- prover ------------------------------------------------------------------

class ProverState(enum.Enum):
    WAITING = "waiting"
    EXECUTING = "executing"
    TRANSMIT_WAIT = "transmit_wait"
    REMEDIATE = "remediate"
    FROZEN = "frozen"

    @property
    def listening(self) -> bool:
        """Whether a datagram delivered in this state could change anything:
        a waiting device takes a fresh request, one in transmit-wait a
        response or a re-sent request, and no other acts on any."""
        return self is ProverState.WAITING or self is ProverState.TRANSMIT_WAIT


@dataclass
class ProverConfig:
    key: bytes = b"\x11" * 32
    app_id: int = 1
    log_max: int = DEFAULT_LOG_MAX
    policy: int = POLICY_WIPE
    resend_interval: int = 1000

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
    ns_at_heal: int | None = None  # total_ns when the device obeyed a heal


class Prover:
    """Device-side protocol driver around one Machine. The retained header
    ``ctx`` is its only record of a session: what else it holds in RAM is
    what a power cut may lose.

    The device listens only while it waits or awaits the response to a
    report (``ProverState.listening``): executing, remediating or frozen,
    it acts on no datagram, so ``scenario.run`` may run it through a
    stretch in which datagrams reach it and drop them unread afterwards."""

    def __init__(self, machine: Machine, config: ProverConfig, entry: int,
                 metrics: ProverMetrics | None = None):
        self.m = machine
        self.config = config
        self.entry = entry
        mem = machine.retained_mem
        self.ctx = AuditContext(mem)
        self.metrics = ProverMetrics() if metrics is None else metrics
        # the log over the retained window, its size and repetition in the
        # header's own fields, and the gateway service bound to it
        window = memoryview(mem)[LOG_BUFFER_OFFSET:LOG_BUFFER_OFFSET + config.log_max]
        self.log = CfLog(capacity=config.log_max, buffer=window, header=mem,
                         size_at=OFFSETS["log_size"], state_at=OFFSETS["engine_state"])
        self._gateway = functools.partial(service_gateway, machine, self.log,
                                          self.metrics.gateway_calls)
        self._gateway.repeat = functools.partial(repeat_passes, self.log,
                                                 self.metrics.gateway_calls)
        self.resolver = Resolver(machine, config.policy, entry)
        self._resend_clock = 0
        self._stalled = False      # the full log refused the entry the core is at

    @property
    def state(self) -> ProverState:
        """The protocol state, read from the retained flags."""
        flags = self.ctx.flags
        if not flags & F_VALID:
            return ProverState.WAITING
        if flags & F_FROZEN:
            return ProverState.FROZEN
        if flags & F_REPORT_PENDING:
            return ProverState.TRANSMIT_WAIT
        if flags & F_REMEDIATION:
            return ProverState.REMEDIATE
        return ProverState.EXECUTING

    # -- helpers ----------------------------------------------------------

    def _sign_slice(self, final: int = 0) -> None:
        """Seal the log as the pending report: materialize any in-flight
        repetition, bind the slice to the image digest and the challenge,
        then commit it, ``final`` (0 or F_FINAL) with it, in one flags
        write."""
        self.log.flush()
        self.ctx.sigma = wire.report_sigma(self.config.key, self.m.hash_pmem(),
                                           self.log.to_bytes(), self.ctx.chal)
        self.ctx.flags |= F_REPORT_PENDING | final

    # -- boot --------------------------------------------------------------

    def boot(self) -> list[bytes]:
        """Cold or warm start. An interrupted session found in retained
        memory produces its evidence before the app could ever run again."""
        self._stalled = False
        ctx = self.ctx
        if ctx.magic != CTX_MAGIC:
            # no session, whatever the region holds: no floor, then no
            # flags (chained targets are written left to right)
            ctx.chal = ctx.flags = 0
            return []
        state = self.state
        if state is ProverState.WAITING:
            return []
        if state is ProverState.FROZEN:
            self.m.halted = True
            return []
        if state is ProverState.REMEDIATE:
            return []
        # interrupted run: re-report the retained slice, session ends here
        if state is ProverState.EXECUTING:
            # a repetition in flight in the header still needs
            # materializing so the remnant covers every append
            self._sign_slice(F_FINAL)
        else:
            ctx.flags |= F_FINAL
        self.metrics.remnant_reports += 1
        return self._emit_report()

    # -- message handling ----------------------------------------------------

    def handle_message(self, data: bytes) -> list[bytes]:
        """Act on a datagram only while the state is ``listening``, and
        only once it opens as a request or a response under the device
        key: anything else changes nothing, and a device that is not
        listening does not even check the MAC."""
        state = self.state
        if not state.listening:
            return []
        key = self.config.key
        req = wire.AttestRequest.open(key, data)
        if req is not None:
            return self._handle_request(req, state)
        resp = wire.Response.open(key, data)
        if resp is not None:
            return self._handle_response(resp, state)
        return []

    def _handle_request(self, req: wire.AttestRequest, state: ProverState) -> list[bytes]:
        if req.app_id != self.config.app_id:
            return []
        if state is ProverState.WAITING and req.chal > self.ctx.chal:
            return self._setup_app(req)
        if req.chal == self.ctx.chal and state is ProverState.TRANSMIT_WAIT:
            self.metrics.retransmissions += 1
            self.metrics.report_sends += 1
            return [self._report()]
        return []

    def _setup_app(self, req: wire.AttestRequest) -> list[bytes]:
        self.ctx.begin(req.chal)   # zeroes the log's size and repetition too
        self.m.lock_pmem()
        self.m.timer.arm(req.delta)
        self.m.enter_nonsecure(self.entry)
        return []

    def _handle_response(self, resp: wire.Response, state: ProverState) -> list[bytes]:
        ctx = self.ctx
        if resp.chal <= ctx.chal or state is not ProverState.TRANSMIT_WAIT:
            return []                     # stale, replayed, or unexpected
        # F_REMEDIATION stays set from the heal order to the session's end
        flags = ctx.flags
        post_heal = flags & F_REMEDIATION
        if resp.result == wire.RESULT_HEAL and not post_heal:
            self.metrics.ns_at_heal = self.metrics.total_ns
            ctx.chal = resp.chal
            ctx.wipe_cursor = 0
            ctx.flags = flags & ~F_REPORT_PENDING | F_REMEDIATION
            return []
        if resp.result == wire.RESULT_END or flags & F_FINAL or post_heal:
            return self._conclude(resp.chal)
        return self._resume_execution(resp.chal)

    def _conclude(self, chal: int) -> list[bytes]:
        """Session over: clear the retained flags and keep the concluding
        challenge, the floor every later request must clear."""
        self.ctx.chal = chal
        self.ctx.flags = 0
        self.m.timer.deactivate()
        return []

    def _resume_execution(self, new_chal: int) -> list[bytes]:
        """Start the next slice at ``new_chal``. A core parked at an entry
        the full log refused re-enters it for one ``Machine.run`` cycle,
        which services it as in a block. The exit door's ``NscEntry`` seals
        the slice in the seal's one flags write; any other event finds the
        pending flag cleared, so a fault boots into a remnant report."""
        self.log.clear()
        ctx, m = self.ctx, self.m
        ctx.chal = new_chal
        m.timer.resume()           # a replayed exit door ends a window of 0
        m.enter_nonsecure(m.pc)    # every trigger left the core in the Secure World
        stalled, self._stalled = self._stalled, False
        ev = m.run(1, self._gateway)[1] if stalled else None
        if ev.__class__ is not NscEntry or ev.addr != isa.NSC_EXIT:
            ctx.flags &= ~F_REPORT_PENDING
        return [] if ev is None else self._on_app_event(ev)

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
        state, flags = self.state, self.ctx.flags
        ticks, out = 0, []
        while ticks < budget and not out:
            left = budget - ticks
            if state is ProverState.EXECUTING:
                # a gateway serviced in the block is a tick, not an instruction
                start = self.m.cycle_count
                n, ev = self.m.run(left, self._gateway)
                self.metrics.total_ns += n
                ticks += self.m.cycle_count - start
                if ev is not None:
                    out = self._on_app_event(ev)
            elif state is ProverState.TRANSMIT_WAIT:
                # silent ticks only wind the resend clock forward
                wait = max(self.config.resend_interval - self._resend_clock, 1)
                if wait > left:
                    self._resend_clock += left
                    ticks += left
                else:
                    ticks += wait
                    self.metrics.retransmissions += 1
                    out = self._emit_report()
            elif state is ProverState.REMEDIATE:
                ticks += 1
                out = self._remediate()
            else:                          # waiting or frozen: nothing to do
                ticks = budget
            # the state is read from the flags: while they hold, it holds
            if self.ctx.flags != flags:
                break
        return ticks, out

    def _remediate(self) -> list[bytes]:
        done = self.resolver.step(self.ctx)
        if not done:
            return []
        if self.ctx.flags & F_FROZEN:
            self.m.halted = True
            return []
        return self._post_heal_report()

    def _on_app_event(self, ev: TimerTrigger | NscEntry | Fault | Halted) -> list[bytes]:
        """The event that ended a run with the gateway handler. A logging
        entry here is one the full log refused, counted at its replay; the
        exit door is counted here once its sentinel is logged."""
        if isinstance(ev, TimerTrigger):
            return self._trigger_report("deadline")
        if isinstance(ev, NscEntry):
            if ev.addr == isa.NSC_EXIT and self.log.append(isa.NSC_EXIT):
                calls = self.metrics.gateway_calls
                calls[ev.addr] = calls.get(ev.addr, 0) + 1
                return self._trigger_report("end")
            self._stalled = True
            return self._trigger_report("capacity")
        # hardware faults reset the device outright; the boot path then
        # re-reports whatever evidence the retained region holds
        self.metrics.triggers["fault"] += 1
        self.m.reset()
        return self.boot()

    def _trigger_report(self, reason: str) -> list[bytes]:
        self.metrics.triggers[reason] += 1
        self.metrics.windows.append(self.m.timer.elapsed)
        return self._generate_report()

    def _generate_report(self) -> list[bytes]:
        self._sign_slice()
        self.metrics.slices_sent += 1
        return self._emit_report()

    def _emit_report(self) -> list[bytes]:
        self._resend_clock = 0
        self.metrics.report_sends += 1
        return [self._report()]

    def _report(self) -> bytes:
        """The pending report, packed from retained memory."""
        return wire.Report(self.ctx.sigma, self.log.to_bytes()).pack()

    def _post_heal_report(self) -> list[bytes]:
        """Attest the remediated image so the verifier can confirm the heal."""
        self.log.clear()
        self.log.append(isa.NSC_EXIT)
        return self._generate_report()
