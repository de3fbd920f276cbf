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

Every knob except ``program`` has a default. Unknown keys and values that
do not parse are rejected, so a typo cannot silently weaken a check. The
runner keeps a single monotonic clock: device work, link delays, and resets
all count in the same ticks, and a reset never rewinds the clock or clears
datagrams already in flight.

The clock still counts every tick, but it does not visit each one. Within
a tick a power cut and deliveries to the device come first, then one unit
of device work, then deliveries to the auditor and its request re-send.
Until the next of those scheduled moments only the device can act, so the
runner hands it the whole stretch in one ``Prover.advance`` call and polls
the link only where something is due. A device that executes or
remediates is not listening (``ProverState.listening``): it acts on no
datagram, and the settle check cannot end the session while it works.
So it runs ahead of its peers (the lookahead of conservative
co-simulation) up to the next delivery to the auditor or the tick before
a power cut, through the auditor's re-sends and the deliveries to it;
the runner then makes each re-send that fell due in the stretch at its
own tick and drops what reached the device unread. A tick runs alone
only when power was cut or something was delivered to a device that now
waits or is frozen, the states the settle check can end a session in, so
it sees that very tick. Results are tick for tick those of stepping the
device once per tick.

A power cut resets the machine and builds a new ``Prover`` on it, so the
device resumes from retained memory alone; only the counters carry over.

A program is deployed once per source text, by ``deploy``: its text is
read once, the rewriter's words are laid out into the golden image, which
is digested into the auditor's graph, and the VM code takes the laid-out
instructions as its decoded words. The last ``isa.IMAGE_CACHE_SIZE`` are
kept; a session reads its graph, VM code and packed input from them.
"""

from __future__ import annotations

import configparser
import functools
import json
import struct
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import isa, wire
from .cfa_engine import DEFAULT_LOG_MAX
from .cfa_engine import decompress  # noqa: F401  perfbench/spans.py wraps scenario.decompress
from .channel import ChannelConfig, Link
from .instrument import instrument  # noqa: F401  perfbench/spans.py wraps scenario.instrument
from .instrument import rewrite
from .resolver import POLICY_NAMES
from .supervisor import Prover, ProverConfig, ProverState
from .verifier import Cfg, Verifier, VerifierConfig, cfg_of
from .vm import Machine, _Code

_POLICY_BY_NAME = {name: value for value, name in POLICY_NAMES.items()}

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
    reset_at: int | None = None
    heal_on_mac_mismatch: bool = True
    verifier_resend: int = 1000
    initial_chal: int = 1
    expect: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in _CHECKED:
            try:
                _check_field(name, getattr(self, name))
            except ValueError as exc:
                raise ScenarioError(f"{name}: {exc}") from None
        # each response, about one a tick at most, takes the next challenge
        if wire.FIELD_RANGES["initial_chal"][1] - self.initial_chal <= self.max_ticks:
            raise ScenarioError(f"initial_chal: {self.initial_chal} leaves fewer than "
                                f"max_ticks + 1 = {self.max_ticks + 1} challenges above it")


# the re-send intervals, in ticks; 0 re-sends every tick
_RESENDS = ("device_resend", "verifier_resend")
_CHECKED = (*wire.FIELD_RANGES, "log_max", *_RESENDS)


def _check_field(name: str, value) -> None:
    """Raise ValueError unless ``value`` fits ``ScenarioSpec`` field ``name``;
    a field not in ``_CHECKED`` fits any value its parser gives."""
    if name == "log_max":
        ProverConfig(log_max=value)       # the device's own check
    elif name in wire.FIELD_RANGES:
        low, high = wire.FIELD_RANGES[name]
        if not low <= value <= high:
            raise ValueError(f"{value} out of range {low}..{high}")
    elif name in _RESENDS and value < 0:
        raise ValueError(f"{value} is negative; 0 re-sends every tick")


def _flag(text: str) -> bool:
    """A boolean in any spelling configparser takes, in any case."""
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if value is None:
        raise ValueError(f"not a boolean: {text!r}")
    return value


def _input_words(tokens: tuple[str, ...],
                 labels: dict[str, int] | None = None) -> list[int | str]:
    """Each input token's word; an ``@label`` token's is its address in
    ``labels``, or its name without them. Raises ValueError unless every
    token is ``@label`` or an integer a data word holds, no more than data
    memory has words, and KeyError on a label ``labels`` lacks."""
    if len(tokens) > isa.DMEM_SIZE // 4:
        raise ValueError(f"{len(tokens)} words exceed data memory's {isa.DMEM_SIZE // 4}")
    words: list[int | str] = []
    for tok in tokens:
        if tok.startswith("@"):
            name = tok[1:]
            if not name.isidentifier():
                raise ValueError(f"bad label token {tok!r}")
            words.append(name if labels is None else labels[name])
            continue
        try:
            value = int(tok, 0)
        except ValueError:
            raise ValueError(f"not a number: {tok!r}") from None
        if not -2 ** 31 <= value < 2 ** 32:
            raise ValueError(f"{tok} does not fit a 32-bit word")
        words.append(value)
    return words


def parse_input(text: str) -> tuple[str, ...]:
    """Input tokens, each ``@label`` or an integer a data word holds, no more
    than data memory has words."""
    tokens = tuple(text.split())
    _input_words(tokens)
    return tokens


def _policy(text: str) -> int:
    if text not in _POLICY_BY_NAME:
        raise ValueError(f"unknown policy {text!r}")
    return _POLICY_BY_NAME[text]


# section -> key -> (its field, its parser). [channel] keys set
# ``ChannelConfig`` fields; [expect] keys are kept as written once parsed and
# name the ``ScenarioResult`` field they check, a floor for ``min_`` keys;
# every other key sets a ``ScenarioSpec`` field. A key a file leaves out
# keeps its field's default.
_KEYS = {
    "scenario": {"name": ("name", str), "program": ("program", str),
                 "delta": ("delta", int), "log_max": ("log_max", int),
                 "policy": ("policy", _policy), "max_ticks": ("max_ticks", int),
                 "app_id": ("app_id", int), "resend_interval": ("device_resend", int)},
    "channel": {"loss": ("loss", float), "duplicate": ("duplicate", float),
                "delay_min": ("delay_min", int), "delay_max": ("delay_max", int),
                "seed": ("seed", int)},
    "input": {"words": ("input_tokens", parse_input)},
    "attack": {"pmem_flip": ("pmem_flip", lambda text: int(text, 0)),
               "reset_at": ("reset_at", int)},
    "verifier": {"heal_on_mac_mismatch": ("heal_on_mac_mismatch", _flag),
                 "resend_interval": ("verifier_resend", int),
                 "initial_chal": ("initial_chal", int)},
    "expect": {"verdict": ("verdict", str), "violation": ("violation", str),
               "violation_index": ("violation_index", int),
               "device_state": ("device_state", str),
               "pmem_zeroed": ("pmem_zeroed", _flag), "heal_issued": ("heal_issued", _flag),
               "settled": ("settled", _flag), "min_retransmissions": ("retransmissions", int),
               "min_slices": ("slices_audited", int)},
}


def parse_scenario(path: str | Path) -> ScenarioSpec:
    path = Path(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    spec: dict = {"name": path.stem}
    channel: dict = {}
    expect: dict[str, str] = {}
    for section in cp.sections():
        if section not in _KEYS:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        into = {"channel": channel, "expect": expect}.get(section, spec)
        for key, text in cp[section].items():
            if key not in _KEYS[section]:
                raise ScenarioError(f"{path}: unknown key {key!r} in [{section}]")
            name, parse = _KEYS[section][key]
            try:
                value = parse(text)
                _check_field(name, value)
            except ValueError as exc:
                raise ScenarioError(f"{path}: [{section}] {key}: {exc}") from None
            if section == "expect":
                expect[key] = text
            else:
                into[name] = value
    if "program" not in spec:
        raise ScenarioError(f"{path}: [scenario] must name a program")
    program = (path.parent / spec.pop("program")).resolve()
    try:
        asm_text = program.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read program: {exc}") from exc
    try:
        link = ChannelConfig(**channel)
    except ValueError as exc:
        raise ScenarioError(f"{path}: [channel] {exc}") from None
    try:
        return ScenarioSpec(asm_text=asm_text, channel=link, expect=expect, **spec)
    except ScenarioError as exc:      # the one check across keys left
        raise ScenarioError(f"{path}: [verifier] {exc}") from None


def resolve_input(tokens: tuple[str, ...], labels: dict[str, int]) -> list[int]:
    """Input words, checked as ``parse_input`` checks them, with @label
    tokens mapped to deployed code addresses."""
    try:
        return _input_words(tokens, labels)
    except ValueError as exc:
        raise ScenarioError(f"input: {exc}") from None
    except KeyError as exc:
        raise ScenarioError(f"input names unknown label {exc.args[0]!r}") from None


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
    post_heal_ns: int | None       # NS instructions run after the device obeyed
                                   # the heal order (None without a heal)
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
    failures = []
    for key, want in spec.expect.items():
        name, parse = _KEYS["expect"][key]
        got = getattr(res, name)
        if not (got >= parse(want) if key.startswith("min_") else got == parse(want)):
            failures.append(f"{key}: wanted {want}, got {got}")
    return failures


def _quiet_until(now: int, spec: ScenarioSpec, link: Link, vrf: Verifier,
                 did_reset: bool, deaf: bool) -> int:
    """Last tick, from ``now`` on, on which only the device can act: a
    delivery to the device or a power cut happens before the device's
    work in a tick, a delivery to the auditor or a request re-send after.
    A ``deaf`` device acts on no datagram and cannot settle, so deliveries
    to it and the re-sends that make them do not stop it; ``_catch_up``
    makes them once it has run."""
    last = spec.max_ticks
    due = link.to_verifier.next_due()
    if due is not None:
        last = min(last, due)
    if not deaf:
        due = link.to_device.next_due()
        if due is not None:
            last = min(last, due - 1)
        due = vrf.next_resend()
        if due is not None:
            last = min(last, due)
    if spec.reset_at is not None and not did_reset and spec.reset_at > now:
        last = min(last, spec.reset_at - 1)
    return max(last, now)


def _catch_up(now: int, end: int, link: Link, vrf: Verifier) -> None:
    """Make what ticks ``now`` to ``end`` of a per-tick run make around a
    deaf device, short of tick ``end``'s own re-send: each request re-send
    due before ``end`` at its own tick, after the deliveries of that tick,
    and last the deliveries of ``end``. Every delivery is dropped unread."""
    tick = now
    while (due := vrf.next_resend()) is not None and (tick := max(due, tick)) < end:
        link.to_device.poll(tick)
        for out in vrf.tick(tick):
            link.to_device.send(tick, out)
        tick += 1
    link.to_device.poll(end)


@dataclass(frozen=True)
class Deployment:
    """A program as its sessions read it: the golden graph of its rewritten
    image (the image is ``cfg.prog``), the code every machine of the image
    shares, and the input as data memory holds it, for the last tokens given."""

    cfg: Cfg
    code: _Code
    input_image: Callable[[tuple[str, ...]], bytes]


@functools.lru_cache(maxsize=isa.IMAGE_CACHE_SIZE)
def deploy(asm_text: str) -> Deployment:
    """A program's deployment, built once per source text."""
    cfg = cfg_of(isa.layout(rewrite(asm_text)[0]))

    @functools.lru_cache(maxsize=1)       # a bad token raises on every call
    def input_image(tokens: tuple[str, ...]) -> bytes:
        words = resolve_input(tokens, cfg.prog.labels)
        return struct.pack(f">{len(words)}I", *[w & 0xFFFFFFFF for w in words])
    return Deployment(cfg, _Code(cfg.prog.image, cfg.digest, cfg.prog.instructions), input_image)


def run(spec: ScenarioSpec) -> ScenarioResult:
    dep = deploy(spec.asm_text)
    vrf = Verifier(dep.cfg, VerifierConfig(
        app_id=spec.app_id, delta=spec.delta, policy=spec.policy,
        initial_chal=spec.initial_chal, resend_interval=spec.verifier_resend,
        heal_on_mac_mismatch=spec.heal_on_mac_mismatch))
    machine = Machine(dep.cfg.prog.image, dep.code)
    prover = Prover(machine,
                    ProverConfig(policy=spec.policy, log_max=spec.log_max,
                                 app_id=spec.app_id,
                                 resend_interval=spec.device_resend),
                    dep.cfg.prog.entry)
    prover.boot()
    data = dep.input_image(spec.input_tokens)
    machine.dmem[:len(data)] = data
    if spec.pmem_flip is not None:
        if not 0 <= spec.pmem_flip < len(machine.pmem):
            raise ScenarioError("pmem_flip offset outside the image")
        flipped = machine.pmem[spec.pmem_flip] ^ 0x01
        machine.write_pmem(isa.PMEM_BASE + spec.pmem_flip, bytes([flipped]))

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
        cut = delivered = False
        if spec.reset_at is not None and now == spec.reset_at and not did_reset:
            cut = did_reset = True
            ns_at_reset = prover.metrics.total_ns
            seen_at_reset = vrf.audited + vrf.duplicates
            machine.reset()
            # the cut loses the prover's RAM: only its counters carry over
            prover = Prover(machine, prover.config, prover.entry, prover.metrics)
            for msg in prover.boot():
                link.to_verifier.send(now, msg)
        for data in link.to_device.poll(now):
            delivered = True
            for out in prover.handle_message(data):
                link.to_verifier.send(now, out)
        # the device runs alone up to the next scheduled moment, stopping
        # early on a tick that emits output or changes its state; a tick
        # that cut power, or delivered something to a device the settle
        # check below could find settled, runs alone so the check sees its
        # effect on that very tick
        state = prover.state
        settling = state is ProverState.WAITING or state is ProverState.FROZEN
        deaf = not (settling or state.listening)
        last_tick = now if cut or delivered and settling \
            else _quiet_until(now, spec, link, vrf, did_reset, deaf)
        ticks, outs = prover.advance(last_tick - now + 1)
        if deaf and ticks > 1:
            _catch_up(now, now + ticks - 1, link, vrf)
        now += ticks - 1
        for out in outs:
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

        if link.to_device.pending() or link.to_verifier.pending():
            continue
        state = prover.state
        if state is ProverState.FROZEN:
            settled = True
            break
        if state is ProverState.WAITING \
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
            "to_device": vars(link.to_device.stats).copy(),
            "to_verifier": vars(link.to_verifier.stats).copy()},
        failures=[])
    result.failures = _check_expectations(spec, result)
    return result

