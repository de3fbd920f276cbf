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
- Period skipping. A dense stream comes back to the same few hops every 2
  to 5 destinations, and a loop's count record repeats its unit however
  many times. In a run of ``_PERIOD_MIN`` destinations or more, plain or
  counted, the walk keeps one anchor (pc, offset, stack copy, steps), set
  after a hop that reads consumes a word and renewed every ``_PERIOD_CAP``
  words. Back at the anchor's pc ``p`` words on with the same stack, it
  consumes at once the whole periods ahead that repeat the last ``p``
  words: a plain run compares them, and a counted run, periodic by
  construction, repeats them whenever ``p`` is a whole number of its units.
  The walk is a function of pc, stack and the words it reads, so every
  skipped period ends in the state it began in: verdicts, indices, pc,
  stack and steps are the hop-by-hop walk's. The skip stops a word short of
  the run's end and an anchor dies with its run; a hop away from the
  anchor's pc pays one integer comparison. Under recursion the stack moves
  and the walk goes on hop by hop.

Auditing thus costs O(log words), not O(instructions executed). A static
loop record is matched to its loop site in one step the same way.

The hop loop. ``Walker.advance`` is one loop that keeps the cursor (pc,
position, the head run and the offset into it) in locals. A destination
costs one memo lookup for its hop, a read of the head run's unit at the
offset, and a few comparisons; the run queue is popped when a run is done,
so once per plain slice, not once per destination. The cursor goes back
to the walker only where the loop leaves (a pause for evidence, a stop, a
violation) and around a loop record's copies, which read only the words
they consume however wide the unit. Nothing is kept per destination or per
slice beyond the runs not yet consumed.

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
_LAST_CHAL = wire.FIELD_RANGES["initial_chal"][1]     # the wire's largest challenge
_PERIOD_CAP = 64      # the longest period the walk looks for, in words
_PERIOD_MIN = 16      # the shortest run it anchors in, in words expanded

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
            image = healed_image(self.prog.image, policy, self.prog.entry - isa.PMEM_BASE)
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
            ctl, imm = isa.control(inst), inst.imm
            nxt = pc + isa.INSTR_WIDTH
            arg: object = None
            if ctl == isa.CTL_CALL and imm == isa.TRAMP_COND:
                kind, arg = COND, nxt
            elif ctl == isa.CTL_CALL and imm == isa.TRAMP_ICALL:
                kind, arg = ICALL, nxt
            elif ctl == isa.CTL_CALL and imm == isa.TRAMP_LOOP:
                site = self.loops[pc]
                if site.limit <= 1:             # no copies to read
                    pc = site.exit
                    continue
                kind, arg = LOOP, (site.header, site.limit - 1, site.exit)
            elif imm == isa.NSC_EXIT and (ctl == isa.CTL_JUMP or ctl == isa.CTL_CALL):
                kind = EXIT                     # a jump to the exit door ends the app
            elif ctl == isa.CTL_CALL:
                pushes.append(nxt)
                pc = imm
                continue
            elif ctl == isa.CTL_JUMP and imm == isa.TRAMP_RET:
                kind = RET
            elif ctl == isa.CTL_JUMP:
                pc = imm
                continue
            elif ctl == isa.CTL_COND:
                arrivals = (self._arrival(imm), self._arrival(nxt))
                kind, arg = (UNREWRITTEN, None) if None in arrivals else (BRANCH, arrivals)
            elif ctl == isa.CTL_EXIT:
                kind = EXIT
            elif ctl == isa.CTL_HALT:
                kind = HALT
            elif ctl != isa.CTL_NONE:           # blx, bx lr, pop pc
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
    instructions, width = prog.instructions, isa.INSTR_WIDTH
    icall_targets: set[int] = set()
    branches: dict[int, list[int]] = {}       # bcond target -> branch addrs
    loop_calls: list[int] = []                # lines of bl trampoline_loop
    for line, (op, _, _, imm) in enumerate(instructions):
        if op == isa.OP_BCOND:
            branches.setdefault(imm, []).append(code_lo + line * width)
        elif op == isa.OP_MOV_IMM and code_lo <= imm < code_hi and imm in label_addrs:
            icall_targets.add(imm)
        elif op == isa.OP_BL and imm == isa.TRAMP_LOOP:
            loop_calls.append(line)

    loops: dict[int, LoopSite] = {}
    for line in loop_calls:
        addr = code_lo + line * width
        header = instructions[line - 2].imm
        limit = instructions[line - 1].imm
        exits = [b + isa.INSTR_WIDTH for b in branches.get(header, []) if b > addr]
        if len(exits) != 1:
            raise ValueError(f"loop at {addr:#x} lacks a unique backward branch")
        loops[addr] = LoopSite(header, limit, exits[0])
        # the rewriter's ``mov r10, #header`` is the only use of the header
        # as a value, and the loop body is walked only through its record
        icall_targets.discard(header)

    return Cfg(prog, hashlib.sha256(prog.image).digest(),
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
    walker holds its position, its shadow stack and the runs still unread,
    nothing per destination.
    """

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        self.pc = cfg.prog.entry
        self.shadow: list[int] = []
        self.runs: deque[cfa_engine.Run] = deque()
        self.head = 0
        self.pos = 0
        self.done = False
        self.violation: Violation | None = None
        self.steps = 0

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

    # -- the walk -----------------------------------------------------------

    def advance(self) -> None:
        """Hop until the runs run dry, the walk stops or a violation.

        One loop with the cursor in locals: ``pc``, ``pos``, ``head``,
        ``steps``, the first run's unit, count, width and expanded length,
        and ``stop``, the offset where the run ends or is anchored next.
        They go back to ``self`` where the loop leaves and around a loop
        record's copies. The anchor is local: ``apc`` (-1 for none) and
        ``ashadow``, the pc and stack a reading hop left at offset
        ``ahead``, and ``asteps``, the hops walked by then. Back at the
        anchor's pc with its stack, the walk skips whole periods of the run
        and counts the hops they stand for, so ``steps`` is the hop-by-hop
        walk's however the log was written.
        """
        cfg = self.cfg
        hops, hop, icall_targets = cfg.hops, cfg.hop, cfg.icall_targets
        shadow, runs = self.shadow, self.runs
        pc, pos, head, steps = self.pc, self.pos, self.head, self.steps
        unit, count, width, length, stop = _first_run(runs, head)
        apc = -1                      # no anchor yet: no pc is -1
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
                unit, count, width, length, stop = _first_run(runs, head)
                apc = -1
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
                # popped before the checks below: an EXIT leaves queued
                # only the runs after the one it finished
                runs.popleft()
                head, apc = 0, -1
                if runs:              # _first_run inlined: once per run consumed
                    unit, count = runs[0]
                    width = len(unit)
                    length = width * count
                    stop = 1 if length >= _PERIOD_MIN else length
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
            if head == stop:
                # the anchor: the walk goes on from pc with this stack
                apc, ahead, ashadow, asteps = pc, head, shadow.copy(), steps
                stop = min(head + _PERIOD_CAP, length)
            elif pc == apc and unit[head % width] == unit[ahead % width] \
                    and shadow == ashadow:
                # back at the anchor, p words on, with the same stack:
                # consume the whole periods ahead that repeat the last p
                p = head - ahead
                k = (length - 1 - head) // p
                if count > 1:
                    if p % width:
                        k = 0         # part of a unit: walk on to a whole one
                elif unit[head:head + k * p] != unit[ahead:ahead + k * p]:
                    k = _periods(unit, head, p, k - 1)
                    if not k:
                        apc = -1      # not periodic here: anchor anew at stop
                if k:
                    pos += k * p
                    head += k * p
                    steps += k * (steps - asteps)
                    ahead, asteps = head, steps
                    stop = min(head + _PERIOD_CAP, length)
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


def _first_run(runs: deque[cfa_engine.Run],
               head: int) -> tuple[Sequence[int], int, int, int, int]:
    """The first run's unit, count, unit width and expanded length, and
    where its walk anchors first: the next word of a long run, else the
    run's end."""
    unit, count = runs[0] if runs else ((), 0)
    width = len(unit)
    length = width * count
    return unit, count, width, length, head + 1 if length >= _PERIOD_MIN else length


def _periods(unit: Sequence[int], head: int, p: int, most: int) -> int:
    """How many whole periods of ``p`` words from ``unit[head]`` on, at
    most ``most``, repeat the ``p`` words before them: a galloping search,
    each probe one slice comparison, so its cost follows what it finds."""
    k, step, grow = 0, 1, True
    while step:
        a = head + k * p
        b = a + step * p
        if k + step <= most and unit[a:b] == unit[a - p:b - p]:
            k += step
            step = step * 2 if grow else step // 2
        else:
            grow = False
            step //= 2
    return k


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

    def __post_init__(self):
        for name, (low, high) in wire.FIELD_RANGES.items():
            if name == "initial_chal":
                high -= 1             # the first response takes the one after it
            value = getattr(self, name)
            if not low <= value <= high:
                raise ValueError(f"{name}: {value} out of range {low}..{high}")


class Verifier:
    """Holds one attestation session against one device."""

    def __init__(self, golden: Cfg | str, config: VerifierConfig):
        """``golden`` is the program's deployed graph, ``Deployment.cfg``, or
        its rewritten text, whose graph ``_golden_cfg`` builds once and shares."""
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
            return [cached] if cached else []
        digest = self._authenticate(report)
        if digest is None:
            self.rejected += 1
            if not self.config.heal_on_mac_mismatch or self.current_chal == _LAST_CHAL:
                return []
            if self.violation is None:
                self.violation = Violation(
                    V_MAC, self.walker.pos,
                    "sigma matches no expected digest and challenge")
            return [self._respond(report.sigma, wire.RESULT_HEAL)]
        self.audited += 1
        self.log_bytes += len(report.log)
        self.last_digest = digest
        result = self._audit(report, digest)
        if self.current_chal == _LAST_CHAL:
            # no challenge is left to answer with: the session ends
            # unanswered, and so does every duplicate of the report
            self.session_over = True
            self.sigma_cache[report.sigma] = b""
            return []
        return [self._respond(report.sigma, result)]

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
        data = wire.response_bytes(self.config.key, result, self.current_chal)
        self.sigma_cache[sigma] = data
        return data
