"""Remote auditor: replays evidence slices against the program's graph.

The verifier holds the golden rewritten image, so it knows where every
gateway call sits and what each must log. Auditing is a walk: start at the
entry point, follow deterministic instructions for free, and spend one
logged destination at every non-deterministic point. A shadow stack built
from the call sites checks every return. Anything the walk cannot explain
is a violation, and the device is ordered to remediate.

The walk reads the log as the device wrote it, without expanding it:

- Runs. ``cfa_engine.runs`` turns each slice into ``(unit, count)`` runs
  and the walker queues them as they come. A slice of address words alone
  is parsed in bulk into one run of count 1 whose unit is every word of it;
  a slice with a count record gives one run per address word, count record
  or static pair. A count record costs one run however large its count,
  and a run leaves the queue once it is consumed.
- Hops. ``Cfg.hop(pc)`` jumps from ``pc`` to the next instruction that
  reads the log (or ends the walk) in one move, carrying the return
  addresses the direct calls on the way push. Hops are computed on first
  arrival and memoized with the golden image's graph, which every session
  auditing that image shares: the code a fleet visits is traced once.
  Each hop reads at most one destination: a conditional branch checks the
  entry against the arrivals both its successors log and resumes past the
  site that entry names, so the site's own read is never repeated.
- Repetition skipping. When a run has at least two repetitions of its
  unit left, the walker notes its pc and shadow stack at the start of one
  and walks it. If it is about to read the next repetition in the same
  state, every remaining repetition would walk the same way, so the whole
  rest of the run is consumed at once. Otherwise (under recursion, say) the
  walk goes on repetition by repetition.

Auditing thus costs O(log words), not O(instructions executed). A static
loop record is matched to its loop site in one step the same way.

The hop loop. ``Walker.advance`` is one loop that keeps the cursor (pc,
position, the head run and the offset into it) in locals. A destination
costs one memo lookup for its hop, a read of the head run's unit at the
offset, and a few comparisons; the run queue is popped when a run is done,
so once per plain slice, not once per destination. The cursor goes back
to the walker only where the loop leaves (a pause for evidence, a stop, a
violation) and around the rare moves: a repetition trial, a loop record's
copies, which read only the words they consume however wide the unit.
Nothing is kept per destination or per slice beyond the runs not yet
consumed.

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

import functools
import hashlib
from collections import deque
from collections.abc import Sequence
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
# ICALL the return address, for LOOP (header, copies, exit), for BRANCH the
# arrivals its (taken, fall-through) successor sites log. A conditional
# branch with a successor that is no arrival site is UNREWRITTEN.
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
    heal_digests: dict[int, bytes] = field(default_factory=dict, repr=False)

    def hop(self, pc: int) -> Hop:
        """Where the walk from ``pc`` next reads the log or stops, and the
        return addresses it pushes on the way. Memoized."""
        h = self.hops.get(pc)
        if h is None:
            h = self.hops[pc] = self._trace(pc)
        return h

    def healed_digest(self, policy: int) -> bytes:
        """Digest of the image that remediation under ``policy`` leaves
        behind. Memoized."""
        d = self.heal_digests.get(policy)
        if d is None:
            image = healed_image(self.prog.image, policy, self.entry - isa.PMEM_BASE)
            d = self.heal_digests[policy] = hashlib.sha256(image).digest()
        return d

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
            elif imm == isa.NSC_EXIT and (op == isa.OP_B or op == isa.OP_BL):
                kind = EXIT                     # a jump to the exit door ends the app
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
                arrivals = (self._arrival(imm), self._arrival(nxt))
                kind, arg = (UNREWRITTEN, None) if None in arrivals else (BRANCH, arrivals)
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

    def _arrival(self, site: int) -> int | None:
        """The arrival a ``bl trampoline_cond`` at ``site`` logs, or None
        when there is none."""
        line = self.prog.line_at_addr(site)
        if line is None:
            return None
        inst = self.prog.instructions[line]
        if inst.op != isa.OP_BL or inst.imm != isa.TRAMP_COND:
            return None
        return site + isa.INSTR_WIDTH


def build_cfg(asm2_text: str) -> Cfg:
    """Digest rewritten text into walker tables: ``cfg_of`` its assembly."""
    return cfg_of(isa.assemble(asm2_text))


def cfg_of(prog: isa.Program) -> Cfg:
    """Digest the rewritten program's image into walker tables."""
    label_addrs = set(prog.labels.values())
    code_lo, code_hi = isa.PMEM_BASE, isa.PMEM_BASE + len(prog.image)
    instructions, line_addrs = prog.instructions, prog.line_addrs
    icall_targets: set[int] = set()
    branches: dict[int, list[int]] = {}       # bcond target -> branch addrs
    loop_calls: list[int] = []                # lines of bl trampoline_loop
    for line, (op, _, _, imm) in enumerate(instructions):
        if op == isa.OP_BCOND:
            branches.setdefault(imm, []).append(line_addrs[line])
        elif op == isa.OP_MOV_IMM and code_lo <= imm < code_hi and imm in label_addrs:
            icall_targets.add(imm)
        elif op == isa.OP_BL and imm == isa.TRAMP_LOOP:
            loop_calls.append(line)

    loops: dict[int, LoopSite] = {}
    for line in loop_calls:
        addr = line_addrs[line]
        header = instructions[line - 2].imm
        limit = instructions[line - 1].imm
        exits = [b + isa.INSTR_WIDTH for b in branches.get(header, []) if b > addr]
        if len(exits) != 1:
            raise ValueError(f"loop at {addr:#x} lacks a unique backward branch")
        loops[addr] = LoopSite(header, limit, exits[0])
        # the rewriter's ``mov r10, #header`` is the only use of the header
        # as a value, and the loop body is walked only through its record
        icall_targets.discard(header)

    return Cfg(prog, prog.entry, hashlib.sha256(prog.image).digest(),
               loops, frozenset(icall_targets))


@functools.lru_cache(maxsize=isa.IMAGE_CACHE_SIZE)
def _golden_cfg(asm2_text: str) -> Cfg:
    """``build_cfg`` once per rewritten text; every session auditing the
    text shares the result. A Cfg only gains memoized hops and heal
    digests, both pure functions of the golden image."""
    return build_cfg(asm2_text)


@dataclass
class Violation:
    kind: str
    index: int            # global index into the decompressed destination stream
    detail: str = ""


class Walker:
    """Trace walk over log runs with a shadow stack; pauses when the runs
    run dry.

    ``runs`` holds the runs not yet consumed; ``head`` destinations of the
    first are consumed already. ``pos`` is the number of destinations
    consumed, counted in the expanded stream; ``fed`` adds those still
    queued and is summed when read, so feeding a slice is one
    ``deque.extend``. A consumed run leaves the queue at once, so a paused
    walker holds its position, its shadow stack (and a repetition trial's
    copy of it) and the runs still unread, nothing per destination.
    """

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        self.pc = cfg.entry
        self.shadow: list[int] = []
        self.runs: deque[cfa_engine.Run] = deque()
        self.head = 0
        self.pos = 0
        self.done = False
        self.violation: Violation | None = None
        self.steps = 0
        # repetition under trial: (pos of the next repetition, pc, shadow)
        self._trial: tuple[int, int, list[int]] | None = None

    @property
    def fed(self) -> int:
        """Destinations fed: those consumed and those still queued."""
        return self.pos - self.head + sum(len(unit) * count for unit, count in self.runs)

    def _fail(self, kind: str, detail: str = "", index: int | None = None) -> None:
        self.violation = Violation(kind, self.pos if index is None else index, detail)

    def feed(self, runs: list[cfa_engine.Run]) -> None:
        """Queue one slice's runs, as ``cfa_engine.runs`` parses them (every
        count at least 1), and walk as far as they reach."""
        self.runs.extend(runs)
        self.advance()

    # -- rare moves ---------------------------------------------------------

    def _queued(self, k: int) -> bool:
        """Whether ``k`` destinations are queued unconsumed. Reads only the
        runs that hold them."""
        k += self.head
        for unit, count in self.runs:
            k -= len(unit) * count
            if k <= 0:
                return True
        return False

    def take_copies(self, k: int, header: int) -> int | None:
        """Consume ``k`` destinations that must all be ``header``; a run
        of header copies goes in one move. Returns the first other
        destination, consumed like the ones before it, or None."""
        runs = self.runs
        while k:
            unit, count = runs[0]
            width = len(unit)
            if count == 1:
                # a plain slice's unit may be wide: read only what is consumed
                copies = unit[self.head:self.head + k]
                n = len(copies)
                if copies.count(header) != n:
                    n = next(i for i, d in enumerate(copies) if d != header) + 1
                e = copies[n - 1]
            elif unit.count(header) == width:
                n, e = min(k, width * count - self.head), header
            else:
                n, e = 1, unit[self.head % width]
            self.pos += n
            self.head += n
            if self.head == width * count:
                runs.popleft()
                self.head = 0
            if e != header:
                return e
            k -= n
        return None

    def _repetition(self) -> None:
        """At a read of a run with count two or more: finish or start a
        repetition trial.

        A trial starts at the first repetition of a run with two or more
        left. When the walk first reads the next repetition and pc and the
        shadow stack are those at the trial's start, the remaining
        repetitions would replay the same walk, so they are skipped. A
        trial that a loop record's copies jumped past is dropped here.
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
        """Hop until the runs run dry, the walk stops or a violation.

        One loop with the cursor in locals: ``pc``, ``pos``, ``head``,
        ``steps`` and the first run's unit, count and expanded length. They
        go back to ``self`` where the loop leaves and around the rare moves
        (a repetition trial, a loop record's copies, a stop).
        """
        cfg = self.cfg
        hops, hop, icall_targets = cfg.hops, cfg.hop, cfg.icall_targets
        shadow, runs = self.shadow, self.runs
        pc, pos, head, steps = self.pc, self.pos, self.head, self.steps
        unit, count, width, length = _first_run(runs)
        live = self.violation is None and not self.done
        while live:
            steps += 1
            try:
                kind, at, arg, pushes = hops[pc]
            except KeyError:
                kind, at, arg, pushes = hop(pc)
            if pushes:
                if len(shadow) + len(pushes) > _SHADOW_LIMIT:
                    self._fail(V_MALFORMED, "shadow stack overflow", pos)
                    break
                shadow.extend(pushes)
            pc = at
            if kind > EXIT:
                if kind != PARK or runs:
                    self.pc, self.pos = pc, pos
                    self._stop(kind)
                break
            if not runs:
                break
            if count > 1:
                # a repetition trial only ever spans a run of two or more
                self.pc, self.pos, self.head = pc, pos, head
                self._repetition()
                pos, head = self.pos, self.head
                if not runs:
                    break
                unit, count, width, length = _first_run(runs)
            if kind == LOOP:
                header, copies, exit_pc = arg
                self.pos, self.head = pos, head
                if not self._queued(copies):
                    break
                e = self.take_copies(copies, header)
                pos, head = self.pos, self.head
                if e is not None:
                    self._fail(V_EDGE, f"loop record for {e:#x} does not match "
                               f"header {header:#x}", pos - 1)
                    break
                pc = exit_pc
                unit, count, width, length = _first_run(runs)
                continue
            e = unit[head % width]
            if kind == BRANCH and e not in arg:
                # refused before it is consumed: no arrival site read it
                self._fail(V_EDGE, f"{e:#x} is neither destination of the "
                           f"branch at {at:#x}", pos)
                break
            pos += 1
            head += 1
            if head == length:
                runs.popleft()
                head = 0
                if runs:              # _first_run inlined: once per run consumed
                    unit, count = runs[0]
                    width = len(unit)
                    length = width * count
            if kind == BRANCH:
                pc = e                # past the arrival site e names
            elif kind == RET:
                if not shadow or shadow[-1] != e:
                    self._fail(V_SHADOW, f"return to {e:#x}", pos - 1)
                    break
                shadow.pop()
                pc = e
            elif kind == ICALL:
                if e not in icall_targets:
                    self._fail(V_ICALL, f"indirect call to {e:#x}", pos - 1)
                    break
                if len(shadow) >= _SHADOW_LIMIT:
                    self._fail(V_MALFORMED, "shadow stack overflow", pos)
                    break
                shadow.append(arg)
                pc = e
            elif kind == COND:
                if e != arg:
                    self._fail(V_EDGE, f"arrival {e:#x} does not match site {arg:#x}",
                               pos - 1)
                    break
                pc = arg
            elif e != isa.NSC_EXIT:
                self._fail(V_EDGE, f"end-door arrival {e:#x}", pos - 1)
                break
            else:
                self.done = True
                break
        if live and self.violation is None and not self.done:
            steps -= 1                # paused: the next slice takes this hop again
        self.pc, self.pos, self.head, self.steps = pc, pos, head, steps
        if self.done and runs:
            self._fail(V_MALFORMED, "entries beyond the end of execution")

    def _stop(self, kind: int) -> None:
        """A hop ended on something other than a read of the log."""
        if kind == HALT:
            self.done = True
        elif kind == PARK:
            self._fail(V_EDGE, f"arrival while the program spins at {self.pc:#x}")
        elif kind == UNREWRITTEN:
            self._fail(V_MALFORMED, f"unrewritten transfer at {self.pc:#x}")
        elif kind == LEFT:
            self._fail(V_MALFORMED, f"walk left the program at {self.pc:#x}")
        else:
            self._fail(V_MALFORMED, "shadow stack overflow")


def _first_run(runs: deque[cfa_engine.Run]) -> tuple[Sequence[int], int, int, int]:
    """The first run's unit, count, unit width and expanded length."""
    unit, count = runs[0] if runs else ((), 0)
    return unit, count, len(unit), len(unit) * count


# --- protocol driver ---------------------------------------------------------

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


class Verifier:
    """Holds one attestation session against one device."""

    def __init__(self, golden: Cfg | str, config: VerifierConfig):
        """``golden`` is the deployed program's graph, or its rewritten
        text, whose graph is built once per text and shared."""
        self.cfg = golden if isinstance(golden, Cfg) else _golden_cfg(golden)
        self.config = config
        self.walker = Walker(self.cfg)
        self.post_heal_digest = self.cfg.healed_digest(config.policy)
        self.current_chal = config.initial_chal
        self.sigma_cache: dict[bytes, bytes] = {}
        self.session_over = False
        self.violation: Violation | None = None    # set: a heal is owed
        self.audited = 0              # reports authenticated and audited
        self.log_bytes = 0            # their evidence bytes
        self.last_digest = b""        # image digest the last of them matched
        self.duplicates = 0
        self.rejected = 0
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
        if self._request is None or self.audited or self.session_over:
            return None
        return self._last_send + self.config.resend_interval

    # -- inbound ------------------------------------------------------------

    def handle(self, data: bytes, now: int = 0) -> list[bytes]:
        if wire.message_type(data) != wire.MSG_REPORT:
            return []
        report = wire.Report.parse(data)
        if report is None:
            self.rejected += 1
            return []
        cached = self.sigma_cache.get(report.sigma)
        if cached is not None:
            self.duplicates += 1
            return [cached]
        digest = self._authenticate(report)
        if digest is None:
            self.rejected += 1
            if not self.config.heal_on_mac_mismatch:
                return []
            if self.violation is None:
                self.violation = Violation(
                    V_MAC, self.walker.pos,
                    "sigma matches no expected digest and challenge")
            return [self._respond(report.sigma, wire.RESULT_HEAL)]
        self.audited += 1
        self.log_bytes += len(report.log)
        self.last_digest = digest
        return [self._respond(report.sigma, self._audit(report, digest))]

    def _authenticate(self, report: wire.Report) -> bytes | None:
        """Returns the image digest the evidence binds, or None.

        The digest is never read from the message: sigma is recomputed with
        the digest the golden image (or its healed form) must produce, so a
        modified program can only ever produce a mismatch.
        """
        key, log, sigma = self.config.key, report.log, report.sigma
        digests = (self.cfg.digest,) if self.violation is None \
            else (self.post_heal_digest, self.cfg.digest)
        # once a response has gone out, a re-sent report still carries the
        # challenge before it
        chal = self.current_chal
        chals = (chal,) if chal == self.config.initial_chal else (chal, chal - 1)
        for digest in digests:
            for chal in chals:
                if wire.macs_equal(wire.report_sigma(key, digest, log, chal), sigma):
                    return digest
        return None

    def _audit(self, report: wire.Report, digest: bytes) -> int:
        """The result code the audited report earns."""
        if self.violation is not None and digest == self.post_heal_digest:
            self.session_over = True
            return wire.RESULT_END
        try:
            runs = cfa_engine.runs(report.log)
        except MalformedLog as exc:
            # the bad word's place in the stream of all destinations fed
            self.violation = Violation(V_MALFORMED, self.walker.fed + exc.decoded,
                                       str(exc))
            return wire.RESULT_HEAL
        self.walker.feed(runs)
        if self.walker.violation is not None:
            self.violation = self.walker.violation
            return wire.RESULT_HEAL
        if self.walker.done:
            self.session_over = True
            return wire.RESULT_END
        return wire.RESULT_EXEC

    def _respond(self, sigma: bytes, result: int) -> bytes:
        self.current_chal += 1
        resp = wire.Response.make(self.config.key, result, self.current_chal)
        data = resp.pack()
        self.sigma_cache[sigma] = data
        return data
