"""Remote auditor: replays evidence slices against the program's graph.

The verifier holds the golden rewritten image, so it knows where every
gateway call sits and what each must log. Auditing is a walk: start at the
entry point, follow deterministic instructions for free, and spend one
logged destination at every non-deterministic point. A shadow stack built
from the call sites checks every return. Anything the walk cannot explain
is a violation, and the device is ordered to remediate.

The walk reads the log as the device wrote it, without expanding it:

- Runs. ``cfa_engine.runs`` turns each slice into ``(unit, count)`` runs,
  one per address word, count record or static pair, and the walker keeps
  them in a queue. A count record costs one run however large its count.
- Hops. ``Cfg.hop(pc)`` jumps from ``pc`` to the next instruction that
  reads the log (or ends the walk) in one move, carrying the return
  addresses the direct calls on the way push. Hops are computed on first
  arrival and memoized, so a session pays only for the code it visits.
- Repetition skipping. When a run has at least two repetitions of its
  unit left, the walker notes its pc and shadow stack at the start of one
  and walks it. If it is about to read the next repetition in the same
  state, every remaining repetition would walk the same way, so the whole
  rest of the run is consumed at once. Otherwise (under recursion, say) the
  walk goes on repetition by repetition.

Auditing thus costs O(log words), not O(instructions executed). A static
loop record is matched to its loop site in one step the same way.

Slices stitch: the walker keeps its position, stack, and consumed-entry
count across reports, so verdicts and violation indices cannot depend on
how the log was cut (the slice size is a transport knob, not a semantic
one). Indices count destinations of the expanded stream, as if every run
were written out. Duplicate slices are recognized by their MAC and answered
with the cached response without re-walking.

A program that spins in a cycle with no logging point is benign and sends
empty slices: the walker parks in the cycle, and any destination that
arrives while it is parked is an illegal edge.
"""

from __future__ import annotations

import enum
import hashlib
from collections import deque
from dataclasses import dataclass, field

from . import cfa_engine, isa, wire
from .cfa_engine import MalformedLog
from .cfa_engine import decompress  # noqa: F401  perfbench/spans.py wraps verifier.decompress
from .resolver import POLICY_WIPE, healed_image

V_SHADOW = "ShadowStackMismatch"
V_EDGE = "IllegalEdge"
V_ICALL = "IllegalIndirectTarget"
V_MALFORMED = "Malformed"
V_MAC = "MacMismatch"

_SHADOW_LIMIT = 4096

# What a hop stops on. The first six read the log; the rest end the walk or
# park it. The detail a hop carries: for COND the arrival the site logs, for
# ICALL the return address, for LOOP (header, copies, exit), for BRANCH
# (taken arrival, taken pc, fall-through arrival, fall-through pc).
COND, BRANCH, RET, ICALL, LOOP, EXIT = range(6)
HALT, UNREWRITTEN, LEFT, PARK, OVERFLOW = range(6, 11)

Hop = tuple[int, int, object, tuple[int, ...]]   # kind, stop pc, detail, pushes


@dataclass(frozen=True)
class LoopSite:
    header: int          # loop header address, the value static records carry
    limit: int           # iteration bound baked into the program
    exit: int            # address of the instrumented not-taken destination


@dataclass
class Cfg:
    """Everything the walker needs, extracted from the golden image."""

    prog: isa.Program
    entry: int
    digest: bytes
    loops: dict[int, LoopSite]               # addr of bl trampoline_loop -> info
    icall_targets: frozenset[int]
    hops: dict[int, Hop] = field(default_factory=dict, repr=False)

    def hop(self, pc: int) -> Hop:
        """Where the walk from ``pc`` next reads the log or stops, and the
        return addresses it pushes on the way. Memoized."""
        h = self.hops.get(pc)
        if h is None:
            h = self.hops[pc] = self._trace(pc)
        return h

    def _trace(self, pc: int) -> Hop:
        prog = self.prog
        pushes: list[int] = []
        seen: dict[int, int] = {}             # visited pc -> pushes made before it
        while pc not in seen:
            seen[pc] = len(pushes)
            line = prog.line_at_addr(pc)
            if line is None:
                return (LEFT, pc, None, tuple(pushes))
            inst = prog.instructions[line]
            op, imm = inst.op, inst.imm
            nxt = pc + isa.INSTR_WIDTH
            arg: object = None
            if op == isa.OP_BL and imm == isa.TRAMP_COND:
                kind, arg = COND, nxt
            elif op == isa.OP_BL and imm == isa.TRAMP_ICALL:
                kind, arg = ICALL, nxt
            elif op == isa.OP_BL and imm == isa.TRAMP_LOOP:
                site = self.loops[pc]
                if site.limit <= 1:             # no copies to read
                    pc = site.exit
                    continue
                kind, arg = LOOP, (site.header, site.limit - 1, site.exit)
            elif op == isa.OP_BL:
                pushes.append(nxt)
                pc = imm
                continue
            elif op == isa.OP_B and imm == isa.TRAMP_RET:
                kind = RET
            elif op == isa.OP_B:
                pc = imm
                continue
            elif op == isa.OP_BCOND:
                kind, arg = BRANCH, (imm + isa.INSTR_WIDTH, imm, nxt + isa.INSTR_WIDTH, nxt)
            elif op == isa.OP_NSC_CALL:
                kind = EXIT
            elif op == isa.OP_HALT:
                kind = HALT
            elif op == isa.OP_BLX or op == isa.OP_BX_LR:
                kind = UNREWRITTEN
            else:
                pc = nxt
                continue
            return (kind, pc, arg, tuple(pushes))
        # a cycle with no logging point: the program spins here for good, or
        # recurses until its stack overflows
        return (OVERFLOW if len(pushes) > seen[pc] else PARK, pc, None, tuple(pushes))


def build_cfg(asm2_text: str) -> Cfg:
    """Digest the rewritten program into walker tables."""
    prog = isa.assemble(asm2_text)
    label_addrs = set(prog.labels.values())
    code_lo, code_hi = isa.PMEM_BASE, isa.PMEM_BASE + len(prog.image)
    icall_targets: set[int] = set()
    branches: dict[int, list[int]] = {}       # bcond target -> branch addrs
    loop_calls: list[int] = []                # lines of bl trampoline_loop
    for line, inst in enumerate(prog.instructions):
        if inst.op == isa.OP_BCOND:
            branches.setdefault(inst.imm, []).append(prog.line_addrs[line])
        elif inst.op == isa.OP_MOV_IMM and code_lo <= inst.imm < code_hi \
                and inst.imm in label_addrs:
            icall_targets.add(inst.imm)
        elif inst.op == isa.OP_BL and inst.imm == isa.TRAMP_LOOP:
            loop_calls.append(line)

    loops: dict[int, LoopSite] = {}
    for line in loop_calls:
        addr = prog.line_addrs[line]
        header = prog.instructions[line - 2].imm
        limit = prog.instructions[line - 1].imm
        exits = [b + isa.INSTR_WIDTH for b in branches.get(header, []) if b > addr]
        if len(exits) != 1:
            raise ValueError(f"loop at {addr:#x} lacks a unique backward branch")
        loops[addr] = LoopSite(header, limit, exits[0])

    return Cfg(prog, prog.entry, hashlib.sha256(bytes(prog.image)).digest(),
               loops, frozenset(icall_targets))


@dataclass
class Violation:
    kind: str
    index: int            # global index into the decompressed destination stream
    detail: str = ""


class Walker:
    """Trace walk over log runs with a shadow stack; pauses when the runs
    run dry.

    ``pos`` is the number of destinations consumed and ``fed`` the number
    fed, both counted in the expanded stream. ``runs`` holds the runs not
    yet consumed; ``head`` destinations of the first are consumed already.
    """

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        self.pc = cfg.entry
        self.shadow: list[int] = []
        self.runs: deque[cfa_engine.Run] = deque()
        self.head = 0
        self.pos = 0
        self.fed = 0
        self.done = False
        self.violation: Violation | None = None
        self.steps = 0
        # repetition under trial: (pos of the next repetition, pc, shadow)
        self._trial: tuple[int, int, list[int]] | None = None
        self._branch_sites = sum(inst.op == isa.OP_BCOND for inst in cfg.prog.instructions)

    def _fail(self, kind: str, detail: str = "", index: int | None = None) -> None:
        self.violation = Violation(kind, self.pos if index is None else index, detail)

    def feed(self, runs: list[cfa_engine.Run]) -> None:
        """Queue one slice's runs, as ``cfa_engine.runs`` parses them, and
        walk as far as they reach."""
        for unit, count in runs:
            if count:
                self.runs.append((unit, count))
                self.fed += len(unit) * count
        self.advance()

    # -- run cursor ---------------------------------------------------------

    def peek(self) -> int:
        unit = self.runs[0][0]
        return unit[self.head % len(unit)]

    def _consume(self, n: int) -> None:
        """Consume ``n`` destinations, all from the first run."""
        self.pos += n
        self.head += n
        unit, count = self.runs[0]
        if self.head == len(unit) * count:
            self.runs.popleft()
            self.head = 0

    def take(self) -> int:
        e = self.peek()
        self._consume(1)
        return e

    def take_copies(self, k: int, header: int) -> int | None:
        """Consume ``k`` destinations that must all be ``header``; a run
        of header copies goes in one move. Returns the first other
        destination, consumed like the ones before it, or None."""
        while k:
            unit, count = self.runs[0]
            if unit.count(header) == len(unit):
                n = min(k, len(unit) * count - self.head)
                self._consume(n)
                k -= n
                continue
            e = self.take()
            if e != header:
                return e
            k -= 1
        return None

    def _repetition(self) -> None:
        """At a read of the log: finish or start a repetition trial.

        A trial starts at the first repetition of a run with two or more
        left. When the walk first reads the next repetition and pc and the
        shadow stack are those at the trial's start, the remaining
        repetitions would replay the same walk, so they are skipped.
        """
        trial = self._trial
        if trial is not None:
            end, pc, shadow = trial
            if self.pos < end:
                return
            self._trial = None
            if self.pos == end and self.pc == pc and self.shadow == shadow:
                unit, count = self.runs.popleft()
                self.pos += len(unit) * count - self.head
                self.head = 0
        if self.runs:
            unit, count = self.runs[0]
            width = len(unit)
            if self.head % width == 0 and count - self.head // width >= 2:
                self._trial = (self.pos + width, self.pc, self.shadow.copy())

    # -- the walk -----------------------------------------------------------

    def advance(self) -> None:
        hops, hop = self.cfg.hops, self.cfg.hop
        shadow, runs = self.shadow, self.runs
        # branch decisions made without consuming; more than there are
        # branches means the walk cycles without ever reading the log
        peeked_at, peeks = -1, 0
        while self.violation is None and not self.done:
            self.steps += 1
            kind, at, arg, pushes = hops.get(self.pc) or hop(self.pc)
            if pushes:
                if len(shadow) + len(pushes) > _SHADOW_LIMIT:
                    self._fail(V_MALFORMED, "shadow stack overflow")
                    return
                shadow.extend(pushes)
            self.pc = at
            if kind > EXIT:
                if kind == PARK and self.pos == self.fed:
                    return
                self._stop(kind)
                continue
            if self.pos == self.fed:
                return
            if self._trial is not None or runs[0][1] > 1:
                self._repetition()
                if self.pos == self.fed:
                    return
            if kind == LOOP:
                header, copies, exit_pc = arg
                if self.fed - self.pos < copies:
                    return
                e = self.take_copies(copies, header)
                if e is not None:
                    self._fail(V_EDGE, f"loop record for {e:#x} does not match "
                               f"header {header:#x}", self.pos - 1)
                    return
                self.pc = exit_pc
                continue
            e = self.peek()
            if kind == BRANCH:
                if self.pos != peeked_at:
                    peeked_at, peeks = self.pos, 0
                peeks += 1
                if peeks > self._branch_sites:
                    self._fail(V_MALFORMED, f"walk cycles at {at:#x} without reading the log")
                    return
                taken_site, taken_pc, fall_site, fall_pc = arg
                if e == taken_site:
                    self.pc = taken_pc
                elif e == fall_site:
                    self.pc = fall_pc
                else:
                    self._fail(V_EDGE, f"{e:#x} is neither destination of the "
                               f"branch at {at:#x}")
                    return
                continue
            self._consume(1)
            if kind == COND:
                if e != arg:
                    self._fail(V_EDGE, f"arrival {e:#x} does not match site {arg:#x}",
                               self.pos - 1)
                    return
                self.pc = arg
            elif kind == RET:
                if not shadow or shadow[-1] != e:
                    self._fail(V_SHADOW, f"return to {e:#x}", self.pos - 1)
                    return
                shadow.pop()
                self.pc = e
            elif kind == ICALL:
                if e not in self.cfg.icall_targets:
                    self._fail(V_ICALL, f"indirect call to {e:#x}", self.pos - 1)
                    return
                if len(shadow) >= _SHADOW_LIMIT:
                    self._fail(V_MALFORMED, "shadow stack overflow")
                    return
                shadow.append(arg)
                self.pc = e
            elif e != isa.NSC_EXIT:
                self._fail(V_EDGE, f"end-door arrival {e:#x}", self.pos - 1)
                return
            else:
                self.done = True
        if self.done and self.pos != self.fed:
            self._fail(V_MALFORMED, "entries beyond the end of execution")

    def _stop(self, kind: int) -> None:
        """A hop ended on something other than a read of the log."""
        if kind == HALT:
            self.done = True
        elif kind == PARK:
            self._fail(V_EDGE, f"arrival while the program spins at {self.pc:#x}")
        elif kind == UNREWRITTEN:
            self._fail(V_MALFORMED, f"unrewritten indirect at {self.pc:#x}")
        elif kind == LEFT:
            self._fail(V_MALFORMED, f"walk left the program at {self.pc:#x}")
        else:
            self._fail(V_MALFORMED, "shadow stack overflow")


# --- protocol driver ---------------------------------------------------------

class Verdict(enum.Enum):
    EXEC = wire.RESULT_EXEC
    END = wire.RESULT_END
    HEAL = wire.RESULT_HEAL


@dataclass
class VerifierConfig:
    key: bytes = b"\x11" * 32
    app_id: int = 1
    delta: int = 500_000
    policy: int = POLICY_WIPE
    initial_chal: int = 1
    resend_interval: int = 1000
    # An evidence MAC that matches no expected digest means either a modified
    # binary (the device signed a hash we will never reproduce) or a forgery.
    # The default answers with Heal so the device is forced clean; scenarios
    # modelling plain wire corruption can flip this to stay silent instead.
    heal_on_mac_mismatch: bool = True


@dataclass
class SliceRecord:
    verdict: Verdict
    size: int
    entries: int
    digest: bytes = b""       # image digest the evidence authenticated under


class Verifier:
    """Holds one attestation session against one device."""

    def __init__(self, asm2_text: str, config: VerifierConfig):
        self.cfg = build_cfg(asm2_text)
        self.config = config
        self.walker = Walker(self.cfg)
        entry_off = self.cfg.entry - isa.PMEM_BASE
        self.post_heal_digest = hashlib.sha256(
            healed_image(bytes(self.cfg.prog.image), config.policy, entry_off)).digest()
        self.current_chal = config.initial_chal
        self.prev_chal: int | None = None
        self.chal_counter = config.initial_chal
        self.sigma_cache: dict[bytes, bytes] = {}
        self.awaiting_remediation = False
        self.session_over = False
        self.first_report_seen = False
        self.violation: Violation | None = None
        self.slices: list[SliceRecord] = []
        self.duplicates = 0
        self.rejected = 0
        self._matched_digest: bytes | None = None
        self._request: bytes | None = None
        self._last_send = 0

    @property
    def destinations_seen(self) -> int:
        """Destinations in every audited slice, counted expanded."""
        return self.walker.fed

    # -- outbound ---------------------------------------------------------

    def start(self, now: int = 0) -> list[bytes]:
        req = wire.AttestRequest(self.config.app_id, self.config.delta,
                                 self.current_chal)
        self._request = req.pack(self.config.key)
        self._last_send = now
        return [self._request]

    def tick(self, now: int) -> list[bytes]:
        """Re-send the request until the first report lands."""
        due = self.next_resend()
        if due is not None and now >= due:
            self._last_send = now
            return [self._request]
        return []

    def next_resend(self) -> int | None:
        """The first time ``tick`` will re-send the request, or None while
        no re-send is pending."""
        if self._request is None or self.first_report_seen or self.session_over:
            return None
        return self._last_send + self.config.resend_interval

    # -- inbound ------------------------------------------------------------

    def handle(self, data: bytes, now: int = 0) -> list[bytes]:
        if wire.message_type(data) != wire.MSG_REPORT:
            return []
        try:
            report = wire.Report.parse(data)
        except wire.WireError:
            self.rejected += 1
            return []
        cached = self.sigma_cache.get(report.sigma)
        if cached is not None:
            self.duplicates += 1
            return [cached]
        matched = self._authenticate(report)
        if matched is None:
            self.rejected += 1
            if not self.config.heal_on_mac_mismatch:
                return []
            if self.violation is None:
                self.violation = Violation(
                    V_MAC, self.walker.pos,
                    "sigma matches no expected digest and challenge")
            self.awaiting_remediation = True
            return [self._respond(report.sigma, Verdict.HEAL)]
        self.first_report_seen = True
        before = self.walker.pos
        verdict = self._audit(report, matched)
        self.slices.append(SliceRecord(verdict, len(report.log),
                                       self.walker.pos - before,
                                       self._matched_digest or b""))
        return [self._respond(report.sigma, verdict)]

    def _authenticate(self, report: wire.Report) -> int | None:
        """Returns the challenge the evidence binds, or None.

        The digest is never read from the message: sigma is recomputed with
        the digest the golden image (or its healed form) must produce, so a
        modified program can only ever produce a mismatch.
        """
        digests = [self.cfg.digest]
        if self.awaiting_remediation:
            digests.insert(0, self.post_heal_digest)
        chals = [self.current_chal]
        if self.prev_chal is not None:
            chals.append(self.prev_chal)
        for digest in digests:
            for chal in chals:
                good = wire.report_sigma(self.config.key, digest, report.log, chal)
                if wire.macs_equal(good, report.sigma):
                    self._matched_digest = digest
                    return chal
        return None

    def _audit(self, report: wire.Report, chal: int) -> Verdict:
        if self.awaiting_remediation and self._matched_digest == self.post_heal_digest:
            self.session_over = True
            return Verdict.END
        try:
            runs = cfa_engine.runs(report.log)
        except MalformedLog as exc:
            # the bad word's place in the stream of all destinations fed
            self.violation = Violation(V_MALFORMED, self.walker.fed + exc.decoded,
                                       str(exc))
            self.awaiting_remediation = True
            return Verdict.HEAL
        self.walker.feed(runs)
        if self.walker.violation is not None:
            self.violation = self.walker.violation
            self.awaiting_remediation = True
            return Verdict.HEAL
        if self.walker.done:
            self.session_over = True
            return Verdict.END
        return Verdict.EXEC

    def _respond(self, sigma: bytes, verdict: Verdict) -> bytes:
        self.chal_counter += 1
        self.prev_chal = self.current_chal
        self.current_chal = self.chal_counter
        resp = wire.Response.make(self.config.key, verdict.value, self.current_chal)
        data = resp.pack()
        self.sigma_cache[sigma] = data
        return data
