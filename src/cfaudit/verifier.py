"""Remote auditor: replays evidence slices against the program's graph.

The verifier holds the golden rewritten image, so it knows where every
gateway call sits and what each must log. Auditing is a linear walk: start
at the entry point, follow deterministic instructions for free, and spend
one logged destination at every non-deterministic point. A shadow stack
built from the call sites checks every return. Anything the walk cannot
explain is a violation, and the device is ordered to remediate.

Slices stitch: the walker keeps its position, stack, and consumed-entry
count across reports, so verdicts and violation indices cannot depend on
how the log was cut (the slice size is a transport knob, not a semantic
one). Duplicate slices are recognized by their MAC and answered with the
cached response without re-walking.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from . import isa, wire
from .cfa_engine import MalformedLog, decompress
from .resolver import POLICY_WIPE, healed_image

V_SHADOW = "ShadowStackMismatch"
V_EDGE = "IllegalEdge"
V_ICALL = "IllegalIndirectTarget"
V_MALFORMED = "Malformed"
V_MAC = "MacMismatch"

_SHADOW_LIMIT = 4096


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
    edges: dict[int, tuple[str, tuple[int, ...]]] = field(default_factory=dict)

    def inst_at(self, addr: int) -> isa.Instruction | None:
        line = self.prog.line_at_addr(addr)
        return None if line is None else self.prog.instructions[line]


def build_cfg(asm2_text: str) -> Cfg:
    """Digest the rewritten program into walker tables.

    ``edges`` classifies each control instruction with its successor set;
    it doubles as a queryable program graph for tooling and tests.
    """
    prog = isa.assemble(asm2_text)
    label_addrs = set(prog.labels.values())
    loops: dict[int, LoopSite] = {}
    icall_targets: set[int] = set()
    edges: dict[int, tuple[str, tuple[int, ...]]] = {}

    code_lo, code_hi = isa.PMEM_BASE, isa.PMEM_BASE + len(prog.image)
    back_branches: dict[int, list[int]] = {}

    for line, inst in enumerate(prog.instructions):
        addr = prog.line_addrs[line]
        if inst.op == isa.OP_BCOND:
            back_branches.setdefault(inst.imm, []).append(addr)
        if inst.op == isa.OP_MOV_IMM and code_lo <= inst.imm < code_hi \
                and inst.imm in label_addrs:
            icall_targets.add(inst.imm)

    for line, inst in enumerate(prog.instructions):
        addr = prog.line_addrs[line]
        nxt = addr + isa.INSTR_WIDTH
        if inst.op == isa.OP_BL and inst.imm == isa.TRAMP_LOOP:
            header = prog.instructions[line - 2].imm
            limit = prog.instructions[line - 1].imm
            exits = [b + isa.INSTR_WIDTH for b in back_branches.get(header, [])
                     if b > addr]
            if len(exits) != 1:
                raise ValueError(f"loop at {addr:#x} lacks a unique backward branch")
            loops[addr] = LoopSite(header, limit, exits[0])
            edges[addr] = ("loop", (header, exits[0]))
        elif inst.op == isa.OP_BL and inst.imm == isa.TRAMP_COND:
            edges[addr] = ("site", (nxt,))
        elif inst.op == isa.OP_BL and inst.imm == isa.TRAMP_ICALL:
            edges[addr] = ("icall", ())
        elif inst.op == isa.OP_B and inst.imm == isa.TRAMP_RET:
            edges[addr] = ("return", ())
        elif inst.op == isa.OP_BL:
            edges[addr] = ("call", (inst.imm,))
        elif inst.op == isa.OP_B:
            edges[addr] = ("jump", (inst.imm,))
        elif inst.op == isa.OP_BCOND:
            edges[addr] = ("branch", (inst.imm, nxt))
        elif inst.op == isa.OP_NSC_CALL:
            edges[addr] = ("exit", (isa.NSC_EXIT,))
        elif inst.op == isa.OP_HALT:
            edges[addr] = ("halt", ())

    return Cfg(prog, prog.entry, hashlib.sha256(bytes(prog.image)).digest(),
               loops, frozenset(icall_targets), edges)


@dataclass
class Violation:
    kind: str
    index: int            # global index into the decompressed destination stream
    detail: str = ""


class Walker:
    """Linear trace walk with a shadow stack; pauses when the stream runs dry."""

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        self.pc = cfg.entry
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
            inst = self.cfg.inst_at(self.pc)
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
            elif op == isa.OP_NSC_CALL:
                if not self._avail(1):
                    return
                e = take()
                if e != isa.NSC_EXIT:
                    self._fail(V_EDGE, f"end-door arrival {e:#x}", self.pos - 1)
                    return
                self.done = True
            elif op == isa.OP_HALT:
                self.done = True
            elif op == isa.OP_BLX or op == isa.OP_BX_LR:
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
        self.destinations_seen = 0
        self._matched_digest: bytes | None = None
        self._request: bytes | None = None
        self._last_send = 0

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
            destinations = decompress(report.log)
        except MalformedLog as exc:
            self.violation = Violation(V_MALFORMED, self.walker.pos + exc.index, str(exc))
            self.awaiting_remediation = True
            return Verdict.HEAL
        self.destinations_seen += len(destinations)
        self.walker.feed(destinations)
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
