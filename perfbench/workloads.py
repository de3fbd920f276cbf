"""The four workloads: seeded set-up, one session, and its outcome check.

A workload's set-up builds a pool of session inputs from the seed; the
timed run cycles through the pool, so every item runs several times. Pools
are built in periods (one item of every kind per period) and a run stops
only at a period boundary, so the mix of kinds is the same in every run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from cfaudit import cfa_engine, isa, scenario, verifier, wire
from cfaudit.channel import ChannelConfig
from cfaudit.instrument import instrument
from cfaudit.scenario import ScenarioResult, ScenarioSpec
from cfaudit.supervisor import ProverConfig
from cfaudit.vm import Executed, Machine, NscEntry

import programs
from spans import patched

BIG_DELTA = 1_000_000_000     # watchdog never fires: one slice per run
DEVICE_KEY = ProverConfig().key
D1 = "D1"


@dataclass
class Ref:
    """A pool program run uninstrumented in set-up, for the raw VM rate and
    the rewrite's execution overhead."""

    index: int          # pool item that runs the same program and input
    raw_instr: int
    raw_s: float


@dataclass
class Setup:
    items: list
    refs: list[Ref]
    image_bytes: tuple[int, int]    # (instrumented, original) over the pool's programs


@dataclass
class Session:
    """The checked, deterministic part of one session's result."""

    outcome: str                    # "ok", "known:<defect>" or "fail:<reason>"
    counters: dict[str, int]


@dataclass
class ScenarioItem:
    spec: ScenarioSpec
    violation: str = "none"         # the attack's named violation, or "none"
    known_defect: str | None = None


# --- shared helpers -----------------------------------------------------------

def run_raw(asm_text: str, words: list[int]) -> tuple[int, float]:
    """Instructions and seconds for the original program on a bare machine."""
    prog = isa.assemble(asm_text)
    m = Machine(prog.image)
    scenario.load_input(m, words)
    m.enter_nonsecure(prog.entry)
    n = 0
    start = time.perf_counter()
    while True:
        ev = m.step()
        if type(ev) is not Executed:
            break
        n += 1
    elapsed = time.perf_counter() - start
    if not (isinstance(ev, NscEntry) and ev.addr == isa.NSC_EXIT):
        raise RuntimeError(f"raw run ended with {ev}")
    return n, elapsed


def image_bytes(asm_texts) -> tuple[int, int]:
    inst = orig = 0
    for text in dict.fromkeys(asm_texts):
        inst += len(isa.assemble(instrument(text)[0]).image)
        orig += len(isa.assemble(text).image)
    return inst, orig


def scenario_counters(res: ScenarioResult) -> dict[str, int]:
    c = {"ns": sum(res.windows), "ticks": res.ticks, "slices": res.device_slices,
         "evidence_bytes": res.log_bytes, "report_sends": res.reports_transmitted,
         "destinations": res.destinations_seen,
         "retransmissions": res.retransmissions,
         "remnant_reports": res.remnant_reports, "duplicates": res.duplicates,
         "rejected": res.rejected, "max_window": res.max_window}
    for reason, n in res.triggers.items():
        c["trigger." + reason] = n
    for key in ("sent", "delivered", "dropped", "duplicated"):
        c["channel." + key] = sum(s[key] for s in res.channel_stats.values())
    return c


def scenario_outcome(item: ScenarioItem, res: ScenarioResult) -> str:
    """A benign program is never condemned, settles, and has its evidence
    audited; an attack is caught with its named violation and healed."""
    if not res.settled:
        return "fail:did not settle"
    if item.violation != "none":
        if res.violation != item.violation:
            return f"fail:attack gave violation {res.violation}"
        heal = res.verdicts.index("heal") if res.heal_issued else len(res.verdicts)
        if not (res.pmem_zeroed and "end" in res.verdicts[heal:]):
            return "fail:attack not healed"
        return "ok"
    problem = None
    if res.violation != "none" or res.heal_issued or res.pmem_zeroed:
        problem = f"benign program condemned ({res.violation})"
    elif res.slices_audited == 0:
        problem = "no evidence audited"
    elif res.remnant_reports == 0 and "end" not in res.verdicts:
        # after a power cut the session may close on the remnant (D5); a
        # late duplicate can be answered after the end, so any position counts
        problem = f"no end verdict in {res.verdicts}"
    if problem is None:
        return "ok"
    if item.known_defect == D1 and res.violation == verifier.V_EDGE \
            and res.heal_issued:
        return "known:" + D1
    return "fail:" + problem


def ideal_spec(name: str, asm: str, words: list[int], **kw) -> ScenarioSpec:
    return ScenarioSpec(name=name, asm_text=asm,
                        input_tokens=tuple(str(w) for w in words), **kw)


class ScenarioWorkload:
    """Sessions are whole ``scenario.run`` calls."""

    def run(self, item: ScenarioItem) -> ScenarioResult:
        return scenario.run(item.spec)

    def summarize(self, item: ScenarioItem, res: ScenarioResult) -> Session:
        return Session(scenario_outcome(item, res), scenario_counters(res))


def raw_refs(pairs) -> list[Ref]:
    """Raw runs of the programs of (pool index, spec) pairs on their inputs.
    Only a spec without a power cut or an image flip runs the whole
    program, so only those are references."""
    refs = []
    for i, spec in pairs:
        if spec.reset_at is not None or spec.pmem_flip is not None:
            continue
        labels = isa.assemble(spec.asm_text).labels
        words = scenario.resolve_input(spec.input_tokens, labels)
        refs.append(Ref(i, *run_raw(spec.asm_text, words)))
    return refs


def with_refs(items: list[ScenarioItem], indices) -> Setup:
    return Setup(items, raw_refs((i, items[i].spec) for i in indices),
                 image_bytes(it.spec.asm_text for it in items))


# --- compute_loop ---------------------------------------------------------------

class ComputeLoop(ScenarioWorkload):
    """Long loops with straight-line bodies over an ideal link: the VM does
    the work and the evidence collapses into a few count records."""

    name = "compute_loop"
    period = 4
    pool_size = 100

    def setup(self, seed: int) -> Setup:
        rng = random.Random(f"{self.name}:{seed}")
        offset = rng.random()
        items = []
        for i in range(self.pool_size):
            target = 5000 + int(2500 * programs.spread(i, offset))
            body = rng.randint(6, 14)
            kind = i % self.period
            if kind == 0:
                asm = programs.pair_loop(rng, body)
                words = [target // (body + 8)]
            elif kind == 1:
                asm = programs.counted_loop(rng, body, target // (body + 6))
                words = [rng.randint(1, 99)]
            elif kind == 2:
                asm = programs.countdown_loop(rng, body)
                words = [target // (body + 4)]
            else:
                asm = programs.counted_loop(rng, body, None)
                words = [rng.randint(1, 99), target // (body + 6)]
            items.append(ScenarioItem(
                ideal_spec(f"{self.name}-{i}", asm, words, delta=BIG_DELTA),
                known_defect=D1 if kind == 3 else None))
        return with_refs(items, range(self.period))


# --- dense_evidence ---------------------------------------------------------------

class DenseEvidence(ScenarioWorkload):
    """Branch-dense programs with calls, returns and indirect calls; a small
    evidence buffer cuts tens of slices per session over an ideal link."""

    name = "dense_evidence"
    period = 4
    pool_size = 200

    def setup(self, seed: int) -> Setup:
        rng = random.Random(f"{self.name}:{seed}")
        offset = rng.random()
        items = []
        for i in range(self.pool_size):
            kind = i % self.period
            asm = programs.dense_loop(rng, calls=kind % 2, icalls=kind // 2,
                                      tail=rng.random() < 0.5, fill=rng.randint(0, 2))
            passes = 120 + int(80 * programs.spread(i, offset))
            items.append(ScenarioItem(ideal_spec(
                f"{self.name}-{i}", asm, [passes], delta=BIG_DELTA,
                log_max=rng.choice((96, 128, 160)))))
        return with_refs(items, range(self.period))


# --- lossy_fleet ----------------------------------------------------------------

class LossyFleet(ScenarioWorkload):
    """Many short sessions of the bundled scenarios over lossy, duplicating,
    delaying links, with power cuts at seeded ticks on the benign ones."""

    name = "lossy_fleet"
    period = 5
    pool_size = 800

    def __init__(self, scenario_dir: Path):
        self.scenario_dir = scenario_dir

    def setup(self, seed: int) -> Setup:
        bases = [scenario.parse_scenario(p)
                 for p in sorted(self.scenario_dir.glob("*.scn"))]
        if len(bases) != self.period:
            raise RuntimeError(f"expected {self.period} bundled scenarios "
                               f"under {self.scenario_dir}, found {len(bases)}")
        rng = random.Random(f"{self.name}:{seed}")
        offsets = [rng.random() for _ in range(6)]
        items = []
        for i in range(self.pool_size):
            base = bases[i % self.period]
            u = [programs.spread(i, off) for off in offsets]
            link = ChannelConfig(loss=0.25 + 0.2 * u[0], duplicate=0.05 + 0.15 * u[1],
                                 delay_min=0, delay_max=1 + int(4 * u[2]),
                                 seed=rng.randrange(1 << 31))
            violation = base.expect.get("violation", "none")
            reset_at = None
            if violation == "none" and base.pmem_flip is None and i >= self.period \
                    and (i // self.period) % 2:
                reset_at = 2 + int(400 * u[3])
            # resend timers spread over a range, so settle times form a
            # continuum instead of peaks at multiples of one interval
            items.append(ScenarioItem(
                replace(base, name=f"{base.name}-{i}", channel=link,
                        reset_at=reset_at, expect={},
                        device_resend=250 + int(500 * u[4]),
                        verifier_resend=250 + int(500 * u[5])), violation))
        return with_refs(items, range(self.period))


# --- audit_replay ---------------------------------------------------------------

@dataclass
class Capture:
    result: ScenarioResult
    exchanges: list[tuple[bytes, list[bytes]]]   # (report, responses) in order


def capture(spec: ScenarioSpec) -> Capture:
    """Run one session and record every report the auditor handled."""
    exchanges = []
    handle = verifier.Verifier.__dict__["handle"]

    def recording(self, data, now=0):
        out = handle(self, data, now)
        exchanges.append((data, out))
        return out

    with patched(verifier.Verifier, "handle", recording):
        res = scenario.run(spec)
    return Capture(res, exchanges)


def rescale_report(data: bytes, delta: int, digest: bytes, chal: int) -> bytes | None:
    """The report with its one count record raised by ``delta``, re-MAC'd
    with the device key; None when the report holds no count record."""
    rep = wire.Report.parse(data)
    words = list(cfa_engine.iter_entries(rep.log))
    counts = [i for i, w in enumerate(words) if w & cfa_engine.TAG_BIT]
    if not counts:
        return None
    if len(counts) != 1:
        raise RuntimeError("report holds more than one count record")
    w = words[counts[0]]
    if (w & cfa_engine.COUNT_MASK) + delta > cfa_engine.COUNT_MASK:
        raise RuntimeError("scaled count exceeds the record's range")
    words[counts[0]] = w + delta
    log = b"".join(x.to_bytes(4, "big") for x in words)
    return wire.Report(wire.report_sigma(DEVICE_KEY, digest, log, chal), log).pack()


@dataclass
class Scalable:
    """A capture whose loop count can be raised to any input, with the
    per-pass growth of its device counters."""

    make_spec: Callable[[int], ScenarioSpec]
    cap: Capture
    passes: int
    digest: bytes
    slope: dict[str, int]

    def at(self, passes: int):
        """Spec, exchanges and device counters of a run at ``passes``."""
        delta = passes - self.passes
        spec = self.make_spec(passes)
        exchanges = scale_exchanges(self.cap.exchanges, delta, self.digest,
                                    spec.initial_chal)
        device = scenario_counters(self.cap.result)
        for key, step in self.slope.items():
            device[key] += step * delta
        return spec, exchanges, device


def scalable_capture(make_spec, passes: tuple[int, int, int]) -> Scalable:
    """Capture at three small inputs and check that re-encoding the first
    capture's count gives the other two byte for byte, and that its device
    counters grow linearly with the input."""
    caps = [capture(make_spec(n)) for n in passes]
    c0, c1 = (scenario_counters(c.result) for c in caps[:2])
    slope = {key: (c1[key] - c0[key]) // (passes[1] - passes[0]) for key in c0}
    digest = verifier.build_cfg(instrument(make_spec(passes[0]).asm_text)[0]).digest
    sc = Scalable(make_spec, caps[0], passes[0], digest, slope)
    for cap, n in zip(caps[1:], passes[1:]):
        _, exchanges, device = sc.at(n)
        if exchanges != cap.exchanges:
            raise RuntimeError(f"re-encoded count differs from a device run at {n}")
        if device != scenario_counters(cap.result):
            raise RuntimeError("device counters are not linear in the loop input")
    return sc


def scale_exchanges(exchanges, delta: int, digest: bytes, initial_chal: int):
    out = []
    for j, (data, responses) in enumerate(exchanges):
        # over an ideal link the j-th report is bound to the j-th challenge
        scaled = rescale_report(data, delta, digest, initial_chal + j) if delta else None
        out.append((scaled or data, responses))
    return out


@dataclass
class ReplayItem:
    asm2: str
    config: verifier.VerifierConfig
    messages: list[bytes]
    expected: list[list[bytes]]     # the responses each message must get
    forged: int
    duplicates: int
    device: dict[str, int]          # device-side counters of the captured run


def verifier_config(spec: ScenarioSpec) -> verifier.VerifierConfig:
    return verifier.VerifierConfig(
        app_id=spec.app_id, delta=spec.delta, policy=spec.policy,
        initial_chal=spec.initial_chal, resend_interval=spec.verifier_resend,
        heal_on_mac_mismatch=spec.heal_on_mac_mismatch)


def forge(data: bytes) -> bytes:
    """The report with its last log entry altered and the device's sigma kept."""
    body = bytearray(data)
    body[-1] ^= 0x04
    return bytes(body)


def replay_item(spec: ScenarioSpec, asm2: str, exchanges, device: dict[str, int],
                rng: random.Random) -> ReplayItem:
    """Captured reports with a quarter of them duplicated right after the
    original and an eighth preceded by a forgery, at seeded positions."""
    dup_at, forge_at = rng.randrange(4), rng.randrange(8)
    messages, expected = [], []
    forged = dups = 0
    for j, (data, responses) in enumerate(exchanges):
        if (j + forge_at) % 8 == 0:
            messages.append(forge(data))
            expected.append([])
            forged += 1
        messages.append(data)
        expected.append(responses)
        if (j + dup_at) % 4 == 0:
            messages.append(data)
            expected.append(responses)
            dups += 1
    return ReplayItem(asm2, verifier_config(spec), messages, expected, forged,
                      dups, device)


class AuditReplay:
    """The auditor alone: captured device reports fed to fresh Verifiers,
    some with loop counts raised to long-running inputs."""

    name = "audit_replay"
    period = 5
    pool_size = 400

    def setup(self, seed: int) -> Setup:
        rng = random.Random(f"{self.name}:{seed}")
        offset = rng.random()
        # dense sessions: tens of slices each, replayed as captured
        dense = []
        for k in range(3):
            asm = programs.dense_loop(rng, calls=k % 2, icalls=(k + 1) % 2,
                                      tail=k == 2, fill=1)
            spec = ideal_spec(f"dense-{k}", asm, [100 + 20 * k], delta=BIG_DELTA,
                              log_max=128, heal_on_mac_mismatch=False)
            dense.append((spec, capture(spec)))
        # compressible sessions: a dynamic loop, whose walk grows with its
        # count, and a register-limit counted loop (D1), whose decompressed
        # expansion grows with its count
        walk_asm = programs.countdown_loop(rng, 6)
        mem_asm = programs.counted_loop(rng, 6, None)
        walk = scalable_capture(lambda n: ideal_spec(
            "walk", walk_asm, [n], delta=BIG_DELTA, heal_on_mac_mismatch=False),
            (5, 8, 13))
        mem = scalable_capture(lambda n: ideal_spec(
            "mem", mem_asm, [7, n], delta=BIG_DELTA, heal_on_mac_mismatch=False),
            (5, 8, 13))

        # per period: three dense replays, one long walk, one large expansion
        items = []
        asm2 = {}
        for i in range(self.pool_size):
            u = programs.spread(i, offset)
            kind = i % self.period
            if kind == 2:
                spec, exchanges, device = walk.at(1500 + int(1500 * u))
            elif kind == 4:
                spec, exchanges, device = mem.at((1 << 19) + int((1 << 19) * u))
            else:
                spec, cap = dense[{0: 0, 1: 1, 3: 2}[kind]]
                exchanges, device = cap.exchanges, scenario_counters(cap.result)
            text = spec.asm_text
            if text not in asm2:
                asm2[text] = instrument(text)[0]
            items.append(replay_item(spec, asm2[text], exchanges, device, rng))
        # items 0, 1 and 3 replay the three dense captures unscaled
        refs = raw_refs(zip((0, 1, 3), (spec for spec, _ in dense)))
        texts = [s.asm_text for s, _ in dense] + [walk_asm, mem_asm]
        return Setup(items, refs, image_bytes(texts))

    def run(self, item: ReplayItem):
        v = verifier.Verifier(item.asm2, item.config)
        return v, [v.handle(m, 0) for m in item.messages]

    def summarize(self, item: ReplayItem, out) -> Session:
        v, responses = out
        c = dict(item.device)
        c.update(destinations=v.destinations_seen, duplicates=v.duplicates,
                 rejected=v.rejected)
        if responses != item.expected:
            bad = next(j for j, (a, b) in enumerate(zip(responses, item.expected))
                       if a != b)
            return Session(f"fail:message {bad} got another response than its capture", c)
        if v.rejected != item.forged or v.duplicates != item.duplicates:
            return Session("fail:forged or duplicate slices miscounted", c)
        return Session("ok", c)
