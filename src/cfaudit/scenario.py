"""Scenario harness: one device and one auditor on a shared clock.

A scenario file is INI text describing the program under audit, the link
quality, the program's input, an optional fault or attack injection, and
the outcome the run is expected to produce:

    [scenario]
    program = programs/pulse.asm     ; path relative to this file
    delta = 500000                   ; instruction budget per authorization
    log_max = 4096                   ; evidence buffer capacity, bytes
    policy = wipe                    ; wipe | disable | freeze
    max_ticks = 2000000

    [channel]
    loss = 0.3
    duplicate = 0.0
    delay_min = 0
    delay_max = 4
    seed = 7

    [input]
    words = 3 17 @handler 0          ; @label resolves to its code address

    [attack]
    pmem_flip = 8                    ; XOR program byte 8 with 0x01
    reset_at = 1200                  ; power-cut the device at this tick

    [expect]
    verdict = end
    violation = none
    device_state = waiting
    pmem_zeroed = false

Every knob except ``program`` has a default, and unknown keys are
rejected so a typo cannot silently weaken an expectation. The runner
keeps a single monotonic clock: device work, link delays, and resets all
count in the same ticks, and a reset never rewinds the clock or clears
datagrams already in flight.

The clock still counts every tick, but it does not visit each one. Within
a tick a power cut and deliveries to the device come first, then one unit
of device work, then deliveries to the auditor and its request re-send.
Until the next of those scheduled moments only the device can act, so the
runner hands it the whole stretch in one ``Prover.advance`` call and polls
the link only where something is due. Results are tick for tick those of
stepping the device once per tick.
"""

from __future__ import annotations

import configparser
import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import isa, wire
from .cfa_engine import DEFAULT_LOG_MAX
from .cfa_engine import decompress  # noqa: F401  perfbench/spans.py wraps scenario.decompress
from .channel import ChannelConfig, Link
from .instrument import instrument
from .resolver import POLICY_NAMES
from .supervisor import Prover, ProverConfig, ProverState
from .verifier import Verifier, VerifierConfig
from .vm import Machine

_POLICY_BY_NAME = {name: value for value, name in POLICY_NAMES.items()}

_KNOWN_KEYS = {
    "scenario": {"name", "program", "delta", "log_max", "policy", "max_ticks",
                 "app_id", "resend_interval"},
    "channel": {"loss", "duplicate", "delay_min", "delay_max", "seed"},
    "input": {"words"},
    "attack": {"pmem_flip", "pmem_flip_mask", "reset_at"},
    "verifier": {"heal_on_mac_mismatch", "resend_interval", "initial_chal"},
    "expect": {"verdict", "violation", "violation_index", "device_state",
               "pmem_zeroed", "heal_issued", "min_retransmissions",
               "min_slices", "settled"},
}


class ScenarioError(Exception):
    """Scenario file cannot be parsed or applied."""


@dataclass
class ScenarioSpec:
    name: str
    asm_text: str
    delta: int = 500_000
    log_max: int = DEFAULT_LOG_MAX
    policy: int = _POLICY_BY_NAME["wipe"]
    app_id: int = 1
    max_ticks: int = 2_000_000
    device_resend: int = 1000
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    input_tokens: tuple[str, ...] = ()
    pmem_flip: int | None = None
    pmem_flip_mask: int = 0x01
    reset_at: int | None = None
    heal_on_mac_mismatch: bool = True
    verifier_resend: int = 1000
    initial_chal: int = 1
    expect: dict[str, str] = field(default_factory=dict)


def _check_keys(cp: configparser.ConfigParser, path: Path) -> None:
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        unknown = set(cp[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise ScenarioError(
                f"{path}: unknown key {sorted(unknown)[0]!r} in [{section}]")


def parse_scenario(path: str | Path) -> ScenarioSpec:
    path = Path(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    _check_keys(cp, path)
    if "scenario" not in cp or "program" not in cp["scenario"]:
        raise ScenarioError(f"{path}: [scenario] must name a program")

    sc = cp["scenario"]
    program = (path.parent / sc["program"]).resolve()
    try:
        asm_text = program.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read program: {exc}") from exc

    policy_name = sc.get("policy", "wipe")
    if policy_name not in _POLICY_BY_NAME:
        raise ScenarioError(f"{path}: unknown policy {policy_name!r}")

    ch = cp["channel"] if "channel" in cp else {}
    channel = ChannelConfig(
        loss=float(ch.get("loss", 0.0)),
        duplicate=float(ch.get("duplicate", 0.0)),
        delay_min=int(ch.get("delay_min", 0)),
        delay_max=int(ch.get("delay_max", 0)),
        seed=int(ch.get("seed", 0)))

    at = cp["attack"] if "attack" in cp else {}
    vf = cp["verifier"] if "verifier" in cp else {}
    expect = dict(cp["expect"]) if "expect" in cp else {}

    return ScenarioSpec(
        name=sc.get("name", path.stem),
        asm_text=asm_text,
        delta=int(sc.get("delta", 500_000)),
        log_max=int(sc.get("log_max", DEFAULT_LOG_MAX)),
        policy=_POLICY_BY_NAME[policy_name],
        app_id=int(sc.get("app_id", 1)),
        max_ticks=int(sc.get("max_ticks", 2_000_000)),
        device_resend=int(sc.get("resend_interval", 1000)),
        channel=channel,
        input_tokens=tuple(cp["input"].get("words", "").split())
        if "input" in cp else (),
        pmem_flip=int(at["pmem_flip"], 0) if "pmem_flip" in at else None,
        pmem_flip_mask=int(str(at.get("pmem_flip_mask", "1")), 0),
        reset_at=int(at["reset_at"]) if "reset_at" in at else None,
        heal_on_mac_mismatch=str(vf.get("heal_on_mac_mismatch", "true")).lower()
        in ("1", "true", "yes", "on"),
        verifier_resend=int(vf.get("resend_interval", 1000)),
        initial_chal=int(vf.get("initial_chal", 1)),
        expect=expect)


def resolve_input(tokens: tuple[str, ...], labels: dict[str, int]) -> list[int]:
    """Input words, with @label tokens mapped to deployed code addresses."""
    words = []
    for tok in tokens:
        if tok.startswith("@"):
            name = tok[1:]
            if name not in labels:
                raise ScenarioError(f"input names unknown label {name!r}")
            words.append(labels[name])
        else:
            words.append(int(tok, 0))
    return words


def load_input(machine: Machine, words: list[int]) -> None:
    for i, w in enumerate(words):
        struct.pack_into(">I", machine.dmem, i * 4, w & 0xFFFFFFFF)


@dataclass
class ScenarioResult:
    name: str
    settled: bool
    ticks: int
    verdicts: list[str]
    verdict: str                   # last verdict issued, or "none"
    heal_issued: bool
    violation: str                 # kind, or "none"
    violation_index: int | None
    device_state: str
    pmem_zeroed: bool
    slices_audited: int
    device_slices: int
    log_bytes: int                 # evidence volume actually audited
    destinations_seen: int
    duplicates: int
    rejected: int
    reports_transmitted: int       # every wire send, re-sends included
    reports_received: int          # every report the auditor saw, bad ones included
    retransmissions: int
    remnant_reports: int
    triggers: dict[str, int]
    windows: list[int]
    max_window: int                # longest unaudited stretch, NS instructions
    post_heal_ns: int | None       # NS instructions run after the heal order
                                   # reached the device (None without a heal)
    post_reset_ns: int | None      # NS instructions run between the reset and
                                   # the first post-reset report receipt
    final_digest: str              # hex digest the last slice authenticated under
    channel_stats: dict[str, dict[str, int]]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return self.settled and not self.failures

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _check_expectations(spec: ScenarioSpec, res: ScenarioResult) -> list[str]:
    def equal(got, want):
        return got == want

    def flag(got, want):
        return got == (want == "true")

    def at_least(got, want):
        return got >= int(want)

    # expectation -> (the value it is checked against, the check)
    checks = {
        "verdict": (res.verdict, equal),
        "violation": (res.violation, equal),
        "violation_index": (res.violation_index, lambda got, want: got == int(want)),
        "device_state": (res.device_state, equal),
        "pmem_zeroed": (res.pmem_zeroed, flag),
        "heal_issued": (res.heal_issued, flag),
        "min_retransmissions": (res.retransmissions, at_least),
        "min_slices": (res.slices_audited, at_least),
        "settled": (res.settled, flag),
    }
    failures = []
    for key, want in spec.expect.items():
        got, check = checks[key]
        if not check(got, want):
            failures.append(f"{key}: wanted {want}, got {got}")
    return failures


def _quiet_until(now: int, spec: ScenarioSpec, link: Link, vrf: Verifier,
                 did_reset: bool) -> int:
    """Last tick, from ``now`` on, on which only the device can act: a
    delivery to the device or a power cut happens before the device's
    work in a tick, a delivery to the auditor or a request re-send after."""
    last = spec.max_ticks
    due = link.to_device.next_due()
    if due is not None:
        last = min(last, due - 1)
    for due in (link.to_verifier.next_due(), vrf.next_resend()):
        if due is not None:
            last = min(last, due)
    if spec.reset_at is not None and not did_reset and spec.reset_at > now:
        last = min(last, spec.reset_at - 1)
    return max(last, now)


def run(spec: ScenarioSpec) -> ScenarioResult:
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
        flipped = machine.pmem[spec.pmem_flip] ^ spec.pmem_flip_mask
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
    ns_at_heal: int | None = None
    settled = False

    while now < spec.max_ticks:
        now += 1
        busy = False
        if spec.reset_at is not None and now == spec.reset_at and not did_reset:
            busy = did_reset = True
            ns_at_reset = prover.metrics.total_ns
            seen_at_reset = len(vrf.slices) + vrf.duplicates
            machine.reset()
            for msg in prover.boot():
                link.to_verifier.send(now, msg)
        for data in link.to_device.poll(now):
            busy = True
            if ns_at_heal is None \
                    and wire.message_type(data) == wire.MSG_RESPONSE \
                    and wire.Response.parse(data).result == wire.RESULT_HEAL:
                ns_at_heal = prover.metrics.total_ns
            for out in prover.handle_message(data):
                link.to_verifier.send(now, out)
        # the device runs alone up to the next scheduled moment, stopping
        # early on a tick that emits output or changes its state; a tick
        # that delivered something or cut power runs alone, so the settle
        # check below sees its effect on that very tick
        last_tick = now if busy else _quiet_until(now, spec, link, vrf, did_reset)
        ticks, outs = prover.advance(last_tick - now + 1)
        now += ticks - 1
        for out in outs:
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


def run_scenario(path: str | Path) -> ScenarioResult:
    return run(parse_scenario(path))

