"""End-to-end runs driven by scenario files, and the file format itself."""

import copy
import hashlib
import heapq
import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest

from cfaudit import isa, scenario, verifier, vm, wire
from cfaudit.channel import Channel, ChannelConfig
from cfaudit.cli import WINDOW_MAX_TICKS
from cfaudit.context import AuditContext, F_REMEDIATION, LOG_BUFFER_OFFSET
from cfaudit.resolver import POLICY_DISABLE, POLICY_FREEZE, POLICY_NAMES
from cfaudit.scenario import (ScenarioError, ScenarioSpec, parse_scenario,
                              resolve_input, run)
from cfaudit.supervisor import Prover, ProverConfig, ProverState
from cfaudit.vm import Machine

from support import clear_image_caches, run_per_tick

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PROGRAM_DIR = SCENARIO_DIR / "programs"
RETAINED = Path(__file__).resolve().parent / "data" / "retained.json"
MESSAGES = Path(__file__).resolve().parent / "data" / "messages.json"


def write_scn(tmp_path, body, program="main:\n    nsc_call\n"):
    prog = tmp_path / "prog.asm"
    prog.write_text(program)
    scn = tmp_path / "case.scn"
    scn.write_text(body)
    return scn


# -- parsing ---------------------------------------------------------------

def test_parse_reads_every_knob(tmp_path):
    scn = write_scn(tmp_path, """
[scenario]
name = full
program = prog.asm
delta = 1234
log_max = 64
policy = freeze
app_id = 7
max_ticks = 9999
resend_interval = 50

[channel]
loss = 0.25
duplicate = 0.5
delay_min = 1
delay_max = 6
seed = 42

[input]
words = 3 0x10 @main

[attack]
pmem_flip = 2
reset_at = 100

[verifier]
heal_on_mac_mismatch = false
resend_interval = 77
initial_chal = 5

[expect]
settled = true
""")
    spec = parse_scenario(scn)
    assert spec.name == "full"
    assert spec.delta == 1234
    assert spec.log_max == 64
    assert spec.app_id == 7
    assert spec.max_ticks == 9999
    assert spec.device_resend == 50
    assert spec.channel.loss == 0.25
    assert spec.channel.duplicate == 0.5
    assert spec.channel.delay_min == 1
    assert spec.channel.delay_max == 6
    assert spec.channel.seed == 42
    assert spec.input_tokens == ("3", "0x10", "@main")
    assert spec.pmem_flip == 2
    assert spec.reset_at == 100
    assert spec.heal_on_mac_mismatch is False
    assert spec.verifier_resend == 77
    assert spec.initial_chal == 5
    assert spec.expect == {"settled": "true"}


def test_parse_defaults_fill_missing_sections(tmp_path):
    scn = write_scn(tmp_path, "[scenario]\nprogram = prog.asm\n")
    spec = parse_scenario(scn)
    assert spec.name == "case"
    assert spec.delta == 500_000
    assert spec.channel.loss == 0.0
    assert spec.input_tokens == ()
    assert spec.pmem_flip is None
    assert spec.reset_at is None
    assert spec.expect == {}


def test_parse_rejects_unknown_key(tmp_path):
    scn = write_scn(tmp_path,
                    "[scenario]\nprogram = prog.asm\nspeed = 9\n")
    with pytest.raises(ScenarioError, match="unknown key 'speed'"):
        parse_scenario(scn)


def test_parse_rejects_unknown_section(tmp_path):
    scn = write_scn(tmp_path,
                    "[scenario]\nprogram = prog.asm\n\n[extra]\nx = 1\n")
    with pytest.raises(ScenarioError, match=r"unknown section \[extra\]"):
        parse_scenario(scn)


def test_parse_rejects_unknown_expectation(tmp_path):
    scn = write_scn(tmp_path,
                    "[scenario]\nprogram = prog.asm\n\n[expect]\nvredict = end\n")
    with pytest.raises(ScenarioError, match="unknown key 'vredict'"):
        parse_scenario(scn)


def test_parse_requires_a_program(tmp_path):
    scn = tmp_path / "empty.scn"
    scn.write_text("[scenario]\nname = no_program\n")
    with pytest.raises(ScenarioError, match="must name a program"):
        parse_scenario(scn)


def test_parse_rejects_missing_program_file(tmp_path):
    scn = tmp_path / "gone.scn"
    scn.write_text("[scenario]\nprogram = nowhere.asm\n")
    with pytest.raises(ScenarioError, match="cannot read program"):
        parse_scenario(scn)


def test_parse_rejects_unknown_policy(tmp_path):
    scn = write_scn(tmp_path,
                    "[scenario]\nprogram = prog.asm\npolicy = shred\n")
    with pytest.raises(ScenarioError, match="unknown policy 'shred'"):
        parse_scenario(scn)


def test_parse_rejects_a_mistyped_boolean(tmp_path):
    scn = write_scn(tmp_path, "[scenario]\nprogram = prog.asm\n\n"
                    "[verifier]\nheal_on_mac_mismatch = ture\n")
    with pytest.raises(ScenarioError, match=r"case\.scn: .*not a boolean: 'ture'"):
        parse_scenario(scn)


def test_parse_rejects_a_value_that_is_not_a_number(tmp_path):
    scn = write_scn(tmp_path, "[scenario]\nprogram = prog.asm\ndelta = lots\n")
    with pytest.raises(ScenarioError, match=r"case\.scn: \[scenario\] delta"):
        parse_scenario(scn)
    # an input word must be @label or an integer a 32-bit word holds, and
    # data memory must hold them all
    too_many = " ".join(["0"] * (isa.DMEM_SIZE // 4 + 1))
    for words in ("0xZZ", "4294967296", "4294967297", "-2147483649", "@", "@1x", too_many):
        scn = write_scn(tmp_path, f"[scenario]\nprogram = prog.asm\n\n[input]\nwords = 1 {words}\n")
        with pytest.raises(ScenarioError, match=r"case\.scn: \[input\] words"):
            parse_scenario(scn)
    fits = " ".join(["-2147483648", "4294967295", "0x10", "@main"]
                    + ["0"] * (isa.DMEM_SIZE // 4 - 4))
    scn = write_scn(tmp_path, f"[scenario]\nprogram = prog.asm\n\n[input]\nwords = {fits}\n")
    spec = parse_scenario(scn)
    assert len(spec.input_tokens) == isa.DMEM_SIZE // 4
    assert run(spec).settled


@pytest.mark.parametrize("bad, msg", [
    ("    mov r1, #70000", "immediate 70000 out of range 0..65535"),
    ("    mov r99, #1", "expected register, got 'r99'"),
    ("main: mov r1, #1", "duplicate label 'main'"),
], ids=["immediate", "register", "label"])
def test_a_malformed_program_is_reported_at_its_source_line(bad, msg):
    # line 4 follows a conditional branch: the rewritten text has it at 5
    asm = f"main:\n    cmp r0, #0\n    beq out\n{bad}\nout:\n    nsc_call\n"
    with pytest.raises(isa.ParseError) as caught:
        run(ScenarioSpec("bad", asm))
    assert (caught.value.line, caught.value.msg) == (4, msg)


def test_a_write_to_pc_is_refused_not_run_as_straight_line_code():
    # on the core ``mov pc, r1`` jumps to ``target`` unlogged; the model
    # names pc only in ``pop pc``, which it rewrites and logs
    asm = ("main:\n    mov r1, #target\n    mov pc, r1\n    mov r9, #1\n    nsc_call\n"
           "target:\n    mov r9, #2\n    nsc_call\n")
    with pytest.raises(isa.ParseError) as caught:
        run(ScenarioSpec("pc_write", asm))
    assert (caught.value.line, caught.value.msg) == (3, "only 'pop pc' may name pc")


def test_expected_booleans_read_in_any_case(tmp_path):
    scn = write_scn(tmp_path, "[scenario]\nprogram = prog.asm\n\n"
                    "[verifier]\nheal_on_mac_mismatch = No\n\n"
                    "[expect]\nsettled = True\nheal_issued = OFF\n")
    spec = parse_scenario(scn)
    assert spec.heal_on_mac_mismatch is False
    assert run(spec).failures == []


def test_parse_rejects_a_mistyped_expected_boolean(tmp_path):
    scn = write_scn(tmp_path, "[scenario]\nprogram = prog.asm\n\n"
                    "[expect]\nsettled = yes please\n")
    with pytest.raises(ScenarioError, match=r"case\.scn: \[expect\] settled"):
        parse_scenario(scn)


def test_resolve_input_maps_labels_and_numbers():
    words = resolve_input(("7", "0x10", "@stop"), {"stop": 0x1040})
    assert words == [7, 16, 0x1040]


def test_resolve_input_rejects_unknown_label():
    with pytest.raises(ScenarioError, match="unknown label 'ghost'"):
        resolve_input(("@ghost",), {"main": 0x1000})


@pytest.mark.parametrize("tokens, msg", [
    (("1",) * (isa.DMEM_SIZE // 4 + 1), "exceed data memory"),
    (("0xZZ",), "not a number: '0xZZ'"),
    (("4294967297",), "does not fit a 32-bit word"),
], ids=["too_many", "not_a_number", "too_wide"])
def test_input_built_in_code_is_checked_as_a_file_is(tokens, msg):
    # a spec built in code skips parse_input; the run checks its input,
    # on every run, since a failed check is not memoized
    with pytest.raises(ScenarioError, match=msg):
        resolve_input(tokens, {})
    for _ in range(2):
        with pytest.raises(ScenarioError, match=msg):
            run(ScenarioSpec("coded", "main:\n    nsc_call\n", input_tokens=tokens))


def test_a_spec_s_input_is_resolved_once_per_program_and_tokens(monkeypatch):
    calls = []

    def counted(tokens, labels, _fn=scenario.resolve_input):
        calls.append(tokens)
        return _fn(tokens, labels)
    monkeypatch.setattr(scenario, "resolve_input", counted)
    clear_image_caches()
    spec = parse_scenario(SCENARIO_DIR / "overflow_hijack.scn")
    first = run(spec)
    assert first.ok and run(spec) == first
    assert calls == [spec.input_tokens]
    # other tokens for the same program resolve anew, and an unknown
    # label is refused on every run
    benign = replace(spec, input_tokens=("4", "1", "2", "3", "4"), expect={})
    assert run(benign).verdict == "end"
    ghost = replace(spec, input_tokens=("@ghost",))
    for _ in range(2):
        with pytest.raises(ScenarioError, match="unknown label 'ghost'"):
            run(ghost)
    assert calls == [spec.input_tokens, benign.input_tokens] + [("@ghost",)] * 2


def test_pmem_flip_outside_image_is_an_error(tmp_path):
    scn = write_scn(tmp_path, """
[scenario]
program = prog.asm

[attack]
pmem_flip = 100000
""")
    with pytest.raises(ScenarioError, match="outside the image"):
        run(parse_scenario(scn))


@pytest.mark.parametrize("section, key, text", [
    ("scenario", "delta", "-1"), ("scenario", "delta", "0"),
    ("scenario", "delta", str(2 ** 64)),
    ("scenario", "app_id", "70000"), ("scenario", "app_id", "-1"),
    ("verifier", "initial_chal", "-3"), ("verifier", "initial_chal", "0"),
    ("verifier", "initial_chal", str(2 ** 512)),
    ("verifier", "initial_chal", str(2 ** 512 - 2)),
    ("scenario", "log_max", "15"),
    ("scenario", "log_max", str(isa.RETAINED_SIZE - LOG_BUFFER_OFFSET + 1)),
    ("channel", "loss", "1.5"), ("channel", "delay_min", "-1"),
    ("scenario", "resend_interval", "-1"), ("verifier", "resend_interval", "-5"),
])
def test_parse_rejects_a_value_its_field_cannot_hold(tmp_path, section, key, text):
    # a delta, app_id or challenge that the wire cannot carry, a log the
    # device refuses, or a link the channel cannot model: an error naming
    # the file, the section and the key, never a crash once the run starts
    body = "[scenario]\nprogram = prog.asm\n"
    body += f"{key} = {text}\n" if section == "scenario" else f"\n[{section}]\n{key} = {text}\n"
    scn = write_scn(tmp_path, body)
    with pytest.raises(ScenarioError, match=rf"case\.scn: \[{section}\] {key}"):
        parse_scenario(scn)


def test_a_resend_interval_of_zero_re_sends_every_tick(tmp_path):
    # 0 is the one every-tick interval; a negative one is refused above
    scn = write_scn(tmp_path, "[scenario]\nprogram = prog.asm\nresend_interval = 0\n"
                    "\n[verifier]\nresend_interval = 0\n\n[channel]\ndelay_min = 3\n"
                    "delay_max = 3\n")
    spec = parse_scenario(scn)
    assert (spec.device_resend, spec.verifier_resend) == (0, 0)
    res = run(spec)
    assert res.ok and res.verdict == "end" and res.retransmissions > 0
    assert res.to_json() == run(replace(spec, device_resend=1,
                                        verifier_resend=1)).to_json()
    assert res.to_json() == run_per_tick(spec).to_json()


# the highest first challenge that leaves one for every tick of the
# default max_ticks, and one more
TOP_CHAL = 2 ** 512 - 1 - (ScenarioSpec("s", "").max_ticks + 1)


def test_parse_takes_each_field_at_its_bounds(tmp_path):
    scn = write_scn(tmp_path, f"""
[scenario]
program = prog.asm
delta = {2 ** 64 - 1}
app_id = 65535
log_max = {isa.RETAINED_SIZE - LOG_BUFFER_OFFSET}

[verifier]
initial_chal = {TOP_CHAL}
""")
    spec = parse_scenario(scn)
    assert (spec.delta, spec.app_id, spec.initial_chal) == (2 ** 64 - 1, 0xFFFF, TOP_CHAL)
    for spec in (replace(spec, initial_chal=1),
                 replace(spec, delta=1, app_id=0, log_max=16, initial_chal=1)):
        res = run(spec)
        assert res.ok and res.verdict == "end"


@pytest.mark.parametrize("name, value", [
    ("delta", -1), ("delta", 0), ("app_id", 70000), ("initial_chal", -3),
    ("log_max", 8), ("device_resend", -1), ("verifier_resend", -1)])
def test_a_spec_is_checked_when_built_and_when_replaced(name, value):
    spec = ScenarioSpec("s", "main:\n    nsc_call\n")
    with pytest.raises(ScenarioError, match=rf"^{name}: "):
        replace(spec, **{name: value})
    with pytest.raises(ScenarioError, match=rf"^{name}: "):
        ScenarioSpec("s", spec.asm_text, **{name: value})


def test_a_first_challenge_too_near_the_top_is_refused_not_crashed_on():
    # D20: each fresh response raises the verifier's challenge by one, so
    # a spec must leave a challenge for every response its ticks allow
    with pytest.raises(ScenarioError, match=r"^initial_chal: .* fewer than"):
        run(ScenarioSpec("d20", "main:\n    nsc_call\n", delta=1,
                         initial_chal=2 ** 512 - 2))
    for spec in (ScenarioSpec("top", "main:\n    nsc_call\n", delta=1,
                              initial_chal=TOP_CHAL),
                 ScenarioSpec("top", "main:\n    nsc_call\n", delta=1, max_ticks=50,
                              initial_chal=2 ** 512 - 1 - 51)):
        res = run(spec)
        assert res.ok and res.settled and res.verdicts == ["exec", "end"]
    # the bound is checked across fields, so a replace re-checks it
    with pytest.raises(ScenarioError, match=r"^initial_chal: "):
        replace(spec, max_ticks=51)


# -- the shipped scenario corpus -------------------------------------------

@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.scn")))
def test_shipped_scenario_meets_its_expectations(name):
    res = run(parse_scenario(SCENARIO_DIR / name))
    assert res.settled, f"{name} never settled"
    assert res.ok, f"{name}: {res.failures}"


def test_benign_scenario_accounting_balances():
    res = run(parse_scenario(SCENARIO_DIR / "benign_pulse.scn"))
    # a perfect link carries every send to the auditor, exactly once
    assert res.reports_transmitted == res.reports_received == res.slices_audited
    assert res.log_bytes == 4 * res.destinations_seen
    assert res.post_heal_ns is None
    assert res.max_window == max(res.windows)
    assert res.max_window > 0


def test_hijack_scenario_details():
    res = run(parse_scenario(SCENARIO_DIR / "overflow_hijack.scn"))
    assert res.verdicts == ["heal", "end"]
    assert res.violation == "ShadowStackMismatch"
    assert res.violation_index == 6
    assert res.pmem_zeroed
    # parked for the verdict when the heal order landed, and remediation
    # never hands the core back: not one app instruction after the heal
    assert res.post_heal_ns == 0
    # the closing report authenticated under the post-remediation digest
    assert res.final_digest != ""


def test_power_cut_scenario_runs_nothing_after_reset():
    res = run(parse_scenario(SCENARIO_DIR / "power_cut.scn"))
    assert res.post_reset_ns == 0
    assert res.remnant_reports == 1
    assert res.verdict == "exec"


def test_gateway_calls_carried_across_a_power_cut_are_counted(monkeypatch):
    """A power cut builds a new prover that carries the counters on. The
    gateway service it binds when it is built must count into those, not
    into the counters the new prover started with."""
    provers = []

    class Recorded(Prover):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            provers.append(self)

    monkeypatch.setattr(scenario, "Prover", Recorded)
    spec = parse_scenario(SCENARIO_DIR / "benign_pulse.scn")
    res = run(replace(spec, reset_at=1))
    # the cut at tick 1 comes before the request, so the whole session runs
    # on the second prover: each logged transfer, the exit door included,
    # is one destination audited
    assert len(provers) == 2 and res.verdicts == ["end"]
    calls = provers[-1].metrics.gateway_calls
    assert calls[isa.NSC_EXIT] == 1
    assert sum(calls.values()) == res.destinations_seen == 26


def test_lossy_scenario_shows_channel_damage():
    res = run(parse_scenario(SCENARIO_DIR / "lossy_fold.scn"))
    dropped = (res.channel_stats["to_device"]["dropped"]
               + res.channel_stats["to_verifier"]["dropped"])
    assert dropped > 0
    assert res.retransmissions >= 1
    assert res.slices_audited >= 2
    assert res.verdict == "end"


def test_runs_are_deterministic():
    spec = parse_scenario(SCENARIO_DIR / "lossy_fold.scn")
    first = run(spec).to_json()
    second = run(spec).to_json()
    assert first == second
    json.loads(first)  # and the report is valid JSON


def test_benign_spin_without_logging_is_never_condemned():
    # the program never ends and never logs: every deadline slice is empty
    spin = "main:\n    mov r1, #0\nspin:\n    add r1, r1, #1\n    b spin\n"
    res = run(ScenarioSpec(name="spin", asm_text=spin, delta=2000, max_ticks=9000))
    assert res.violation == "none"
    assert not res.heal_issued and not res.pmem_zeroed
    assert len(res.verdicts) >= 3 and set(res.verdicts) == {"exec"}


# D9: the rewriter's ``mov r10, #spin`` made the loop header a legal
# indirect-call target, so a forged call into the loop body audited clean
FORGED_INTO_LOOP = """
main:
    mov r7, #input_base
    ldr r8, [r7, #0]
    blx r8
    nsc_call
work:
    mov r6, #0
spin:
    add r0, r0, #1
    add r6, r6, #1
    cmp r6, #3
    bne spin
    bx lr
"""


def test_indirect_call_into_a_counted_loop_header_is_illegal():
    res = run(ScenarioSpec("forged", FORGED_INTO_LOOP, input_tokens=("@spin",)))
    assert res.verdicts == ["heal", "end"]
    assert (res.violation, res.violation_index) == ("IllegalIndirectTarget", 0)
    # the function itself stays a legal target when the program names it
    benign = FORGED_INTO_LOOP.replace(
        "mov r7, #input_base\n    ldr r8, [r7, #0]", "mov r8, #work")
    res = run(ScenarioSpec("benign", benign))
    assert res.verdicts == ["end"] and res.violation == "none"


def forged_transfer(form):
    return ("main:\n    mov r7, #input_base\n    ldr r8, [r7, #0]\n"
            f"    {form}\n    nsc_call\n")


@pytest.mark.parametrize("token", ["0x102", "0x114", "0x118", "0x11c"])
def test_transfer_into_the_gateway_window_off_an_entry_faults(token):
    # only the five entry points are gateways; any other window address
    # has no gateway instruction and faults like an unmapped fetch
    res = run(ScenarioSpec("x", forged_transfer("blx r8"), input_tokens=(token,)))
    assert res.settled and res.triggers["fault"] == 1
    assert res.verdicts == ["heal", "end"]
    assert (res.violation, res.violation_index) == ("IllegalIndirectTarget", 0)


@pytest.mark.parametrize("form", ["blx r8", "push r8\n    pop pc"],
                         ids=["icall", "return"])
def test_transfer_above_the_31_bit_range_faults(form):
    # nothing is mapped at or above 2**31 and no log word can hold it: the
    # gateway resumes it unlogged, so the fetch faults and the device resets
    res = run(ScenarioSpec("x", forged_transfer(form), input_tokens=("0x80000000",)))
    assert res.settled and res.triggers["fault"] == 1
    assert res.remnant_reports == 1


@pytest.mark.parametrize("asm", [
    # the header's second label is called indirectly
    "main:\n    mov r8, #also\n    blx r8\n    nsc_call\nwork:\n    mov r6, #0\n"
    "spin:\nalso:\n    add r6, r6, #1\n    cmp r6, #3\n    bne spin\n    bx lr\n",
    # the header is the entry point
    "    mov r6, #0\nmain:\n    add r6, r6, #1\n    cmp r6, #3\n    bne main\n"
    "    nsc_call\n",
], ids=["second_label", "entry_point"])
def test_loop_entered_past_its_record_is_audited_clean(asm):
    res = run(ScenarioSpec("x", asm))
    assert res.verdicts == ["end"] and res.violation == "none"


def test_expectation_failures_are_reported_not_raised(tmp_path):
    scn = write_scn(tmp_path, """
[scenario]
program = prog.asm

[expect]
verdict = heal
""")
    res = run(parse_scenario(scn))
    assert res.settled
    assert not res.ok
    assert res.failures == ["verdict: wanted heal, got end"]


# -- attack window measurement ----------------------------------------------

def window(name, log_max, delta, max_ticks=WINDOW_MAX_TICKS):
    """A probe run over the default ideal link, as ``cfaudit window`` runs it."""
    text = (PROGRAM_DIR / f"{name}.asm").read_text()
    return run(ScenarioSpec(name, text, delta=delta, log_max=log_max,
                            max_ticks=max_ticks))


def test_window_grows_with_log_capacity():
    maxima = [window("window_dense", cap, 10_000_000).max_window
              for cap in (1024, 2048, 4096)]
    assert maxima == sorted(maxima)
    assert maxima[0] < maxima[-1]


def test_window_is_capped_by_the_deadline():
    res = window("window_sparse", 16384, 1500)
    assert res.max_window == 1500
    assert res.triggers["deadline"] > 0


def test_halving_branch_density_doubles_the_window():
    dense, mid, sparse = (window(name, 2048, 10_000_000).max_window
                          for name in ("window_dense", "window_mid",
                                       "window_sparse"))
    assert 1.5 <= mid / dense <= 2.5
    assert 1.5 <= sparse / mid <= 2.5


def test_count_expectation_failures_print_the_count(tmp_path):
    scn = write_scn(tmp_path, """
[scenario]
program = prog.asm

[expect]
min_slices = 3
min_retransmissions = 2
""")
    res = run(parse_scenario(scn))
    assert res.failures == ["min_slices: wanted 3, got 1",
                            "min_retransmissions: wanted 2, got 0"]


# -- the event-driven clock matches the per-tick loop --------------------------

def bundled(name):
    return parse_scenario(SCENARIO_DIR / f"{name}.scn")


def assert_same_as_per_tick(spec):
    assert run(spec).to_json() == run_per_tick(spec).to_json(), spec.name


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")))
def test_clock_matches_per_tick_loop_under_power_cuts(name):
    # both drivers build a new prover at the cut, so at any tick the
    # session must carry on from retained memory alone
    spec = bundled(name)
    assert_same_as_per_tick(spec)
    for reset_at in range(1, run(spec).ticks + 1, 4 if name == "lossy_fold" else 1):
        assert_same_as_per_tick(replace(spec, reset_at=reset_at))


def test_clock_matches_per_tick_loop_over_channel_seeds():
    spec = bundled("lossy_fold")
    for seed in range(20):
        assert_same_as_per_tick(replace(spec, channel=replace(spec.channel, seed=seed)))


@pytest.mark.parametrize("name", ["image_tamper", "overflow_hijack"])
@pytest.mark.parametrize("policy", [POLICY_FREEZE, POLICY_DISABLE],
                         ids=["freeze", "disable"])
def test_clock_matches_per_tick_loop_under_other_policies(name, policy):
    # a disabled image that still carries the tamper never attests clean,
    # so the session runs to max_ticks; keep that short for the per-tick loop
    spec = replace(bundled(name), policy=policy, max_ticks=5000)
    res = run(spec)
    assert res.heal_issued
    if policy == POLICY_FREEZE:
        assert res.settled and res.device_state == "frozen"
    elif name == "overflow_hijack":
        # the entry word alone becomes halt, and the closing report
        # attests exactly that image (image_tamper is D7's)
        assert res.settled and res.verdicts == ["heal", "end"]
        assert res.violation == "ShadowStackMismatch"
        assert not res.pmem_zeroed
        cfg = scenario.deploy(spec.asm_text).cfg
        assert res.final_digest == cfg.healed_digest(POLICY_DISABLE).hex()
        machines = []
        run_per_tick(spec, on_tick=machines.append)
        entry = cfg.prog.entry - isa.PMEM_BASE
        assert isa.decode(machines[-1].pmem[entry:entry + 4]).op == isa.OP_HALT
    assert_same_as_per_tick(spec)
    for reset_at in range(1, min(res.ticks, 200) + 1, 16):
        assert_same_as_per_tick(replace(spec, reset_at=reset_at))


# ``main`` follows other code, so halting the entry is not halting the
# first word; the input steers ``blx`` to ``inner``, which is no call target
ENTRY_PAST_CODE = """
helper:
    mov r6, #1
inner:
    add r6, r6, #1
    bx lr
main:
    mov r7, #input_base
    ldr r8, [r7, #0]
    blx r8
    nsc_call
"""


def test_disable_halts_the_apps_own_entry_across_every_cut_after_the_heal():
    # a link delay keeps the heal order and the post-heal messages in
    # flight for a few ticks, so cuts land on either side of each
    delay = 3
    spec = ScenarioSpec("entry_past_code", ENTRY_PAST_CODE, policy=POLICY_DISABLE,
                        input_tokens=("@inner",),
                        channel=ChannelConfig(delay_min=delay, delay_max=delay))
    cfg = scenario.deploy(spec.asm_text).cfg
    entry = cfg.prog.entry - isa.PMEM_BASE
    assert entry > 0
    healing = []
    clean = run_per_tick(spec, lambda m: healing.append(
        bool(AuditContext(m.retained_mem).flags & F_REMEDIATION)))
    assert clean.violation == "IllegalIndirectTarget"
    heal_order = healing.index(True) + 1 - delay    # the tick the verifier sent it
    for reset_at in range(heal_order, clean.ticks + 1):
        cut = replace(spec, reset_at=reset_at)
        machines = []
        res = run_per_tick(cut, on_tick=machines.append)
        assert res.to_json() == run(cut).to_json(), reset_at
        assert res.settled and res.verdicts[-1] == "end", reset_at
        assert res.final_digest == cfg.healed_digest(POLICY_DISABLE).hex()
        pmem = machines[-1].pmem
        assert isa.decode(pmem[entry:entry + 4]).op == isa.OP_HALT
        assert pmem[:entry] == cfg.prog.image[:entry]
        assert pmem[entry + 4:] == cfg.prog.image[entry + 4:]


@pytest.mark.xfail(strict=True, reason="D7: disable overwrites only the entry "
                   "word, so the tampered word stays and every post-heal report "
                   "is condemned again")
def test_a_tampered_image_under_disable_settles_healed():
    res = run(replace(bundled("image_tamper"), policy=POLICY_DISABLE, max_ticks=20000))
    assert res.heal_issued
    assert res.settled and res.verdicts == ["heal", "end"]


def test_clock_matches_per_tick_loop_on_a_reset_mid_wipe(monkeypatch):
    # padding makes the wipe take three chunks, one per tick
    base = bundled("image_tamper")
    spec = replace(base, asm_text=base.asm_text + "unused_pad:\n"
                   + "    mov r0, #0\n" * 600 + "    bx lr\n")
    mid_wipe = []
    reset = Machine.reset

    def recording_reset(machine):
        ctx = AuditContext(machine.retained_mem)
        mid_wipe.append(bool(ctx.flags & F_REMEDIATION)
                        and 0 < ctx.wipe_cursor < len(machine.pmem))
        reset(machine)

    monkeypatch.setattr(Machine, "reset", recording_reset)
    for reset_at in range(1, run(spec).ticks + 1):
        assert_same_as_per_tick(replace(spec, reset_at=reset_at))
    assert any(mid_wipe)


# -- a device at work listens to nothing ---------------------------------------

SCENARIO_NAMES = sorted(p.stem for p in SCENARIO_DIR.glob("*.scn"))
# what a sender without the device key can make of each message kind
FORGED_KEY = b"\x22" * 32
FORGED = (wire.AttestRequest(1, 500_000, 2 ** 100).pack(FORGED_KEY),
          wire.response_bytes(FORGED_KEY, wire.RESULT_END, 2 ** 100),
          wire.Report(b"\x5a" * wire.MAC_WIDTH, b"\x00" * 8).pack())


def carried_datagrams(spec, monkeypatch) -> list[bytes]:
    """Every datagram ``spec``'s link carries either way, lost ones too,
    each once, in the order first sent."""
    sent: dict[bytes, None] = {}
    send = Channel.send

    def recording(channel, now, data):
        sent[data] = None
        send(channel, now, data)

    with monkeypatch.context() as patch:
        patch.setattr(Channel, "send", recording)
        run(spec)
    return list(sent)


@pytest.mark.parametrize("policy", sorted(POLICY_NAMES), ids=POLICY_NAMES.get)
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_a_device_at_work_acts_on_no_datagram(monkeypatch, name, policy):
    # the clock runs an executing or remediating device through every
    # delivery to it: whatever arrives then, from the auditor, the device
    # itself or a forger, and under the device key with a challenge far
    # above any used, changes nothing and answers nothing
    key = ProverConfig().key
    spec = replace(bundled(name), policy=policy, max_ticks=5000)
    datagrams = carried_datagrams(spec, monkeypatch) + [
        *FORGED, wire.AttestRequest(spec.app_id, spec.delta, 2 ** 100).pack(key),
        *(wire.response_bytes(key, result, 2 ** 100) for result in wire.RESULT_NAMES)]
    at_work = {ProverState.EXECUTING: 0, ProverState.REMEDIATE: 0}
    step = Prover.step

    def delivering_step(prover):
        state = prover.state
        if state in at_work:
            at_work[state] += 1
            m = prover.m
            before = bytes(m.retained_mem), copy.deepcopy(prover.metrics), list(m.regs)
            for data in datagrams:
                assert prover.handle_message(data) == [], (state, data.hex())
            assert (bytes(m.retained_mem), prover.metrics, list(m.regs)) == before, state
        return step(prover)

    monkeypatch.setattr(Prover, "step", delivering_step)
    run_per_tick(spec)
    assert at_work[ProverState.EXECUTING]
    if bundled(name).pmem_flip is not None or name == "overflow_hijack":
        assert at_work[ProverState.REMEDIATE]     # a heal is ordered


# -- re-sends and deliveries inside a device's stretch ---------------------------

# a lossy link that drops, copies and delays datagrams in both directions
LOSSY_LINKS = [ChannelConfig(loss=0.3, duplicate=0.2, delay_min=0, delay_max=5, seed=seed)
               for seed in range(5)]


@pytest.mark.parametrize("resend", [0, 1, 7, 50])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_clock_matches_per_tick_loop_with_resends_inside_stretches(monkeypatch, name, resend):
    # the auditor's re-sends and the deliveries they make fall inside the
    # stretches an executing or remediating device runs in one call, on an
    # ideal link and a lossy one, with a power cut at every 16th tick; a
    # device that re-sends its report every 97 ticks keeps lossy sessions short
    dropped = []
    catch_up = scenario._catch_up

    def counting(now, end, link, vrf):
        delivered = link.to_device.stats.delivered
        catch_up(now, end, link, vrf)
        dropped.append(link.to_device.stats.delivered - delivered)

    monkeypatch.setattr(scenario, "_catch_up", counting)
    base = replace(bundled(name), verifier_resend=resend, device_resend=97,
                   max_ticks=20_000)
    for link in (base.channel, *LOSSY_LINKS):
        spec = replace(base, channel=link)
        assert_same_as_per_tick(spec)
        for reset_at in range(1, run(spec).ticks + 1, 16):
            assert_same_as_per_tick(replace(spec, reset_at=reset_at))
    assert sum(dropped)          # datagrams did reach a device at work


@pytest.mark.parametrize("name", ["image_tamper", "overflow_hijack"])
def test_clock_matches_per_tick_loop_on_a_frozen_device(name):
    # a frozen device acts on no datagram either, but the deliveries to it
    # empty the link the settle check reads, so they still end its stretch
    for resend in (0, 1, 7, 50):
        base = replace(bundled(name), policy=POLICY_FREEZE, verifier_resend=resend,
                       device_resend=97, max_ticks=20_000)
        for link in (base.channel, *LOSSY_LINKS):
            assert_same_as_per_tick(replace(base, channel=link))


@pytest.mark.xfail(strict=True, reason="D23: Verifier.next_resend keeps re-sending after "
                   "the heal order it answers a MAC mismatch with, so at an interval of 0 "
                   "or 1 ticks the link to a frozen device is never empty and it never settles")
def test_a_frozen_device_settles_whatever_the_resend_interval():
    for resend in (0, 1):
        res = run(replace(bundled("image_tamper"), policy=POLICY_FREEZE,
                          verifier_resend=resend, max_ticks=20_000))
        assert res.settled and res.ticks <= 5


def test_a_frozen_device_settles_at_resend_intervals_past_one():
    # D23's counterpart: from an interval of 2 ticks on the link empties
    for resend, ticks in ((2, 5), (1000, 4)):
        res = run(replace(bundled("image_tamper"), policy=POLICY_FREEZE,
                          verifier_resend=resend, max_ticks=20_000))
        assert (res.settled, res.ticks, res.device_state) == (True, ticks, "frozen")


def test_a_device_at_work_makes_one_run_call_a_slice(monkeypatch):
    # a long counted loop and one slice over an ideal link, while the
    # auditor re-sends its request every 50 ticks: neither those re-sends
    # nor their deliveries cut the device's run
    asm = ("main:\n    mov r2, #0\nspin:\n    add r2, r2, #1\n"
           "    cmp r2, #20000\n    bne spin\n    nsc_call\n")
    spec = ScenarioSpec("one_run", asm, delta=10 ** 9, verifier_resend=50)
    calls = []
    machine_run = Machine.run

    def counting_run(machine, *args):
        calls.append(args)
        return machine_run(machine, *args)

    monkeypatch.setattr(Machine, "run", counting_run)
    res = run(spec)
    assert res.ok and res.verdict == "end" and res.ticks > 20 * 50
    assert res.channel_stats["to_device"]["sent"] > 20   # the re-sends were made
    assert len(calls) == res.device_slices == 1
    monkeypatch.undo()
    assert res.to_json() == run_per_tick(spec).to_json()


# -- retained memory, tick for tick ------------------------------------------

# the retained bytes each tick pins: the header block and the log's first 4 KiB
PINNED_RETAINED = LOG_BUFFER_OFFSET + 4096


def retained_digests() -> dict[str, str]:
    """Every bundled scenario under each policy, at its own ``log_max`` and
    at 16, run per tick for at most 40 000 ticks: one SHA-256 per run over
    the pinned retained bytes as they stand after every tick. A change that
    alters retained memory on purpose re-records tests/data/retained.json
    with ``json.dumps(retained_digests(), indent=1, sort_keys=True)``."""
    digests = {}
    for name in sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")):
        base = bundled(name)
        for policy, policy_name in sorted(POLICY_NAMES.items()):
            for log_max in sorted({base.log_max, 16}):
                spec = replace(base, policy=policy, log_max=log_max,
                               max_ticks=min(base.max_ticks, 40_000))
                chain = hashlib.sha256()
                run_per_tick(spec, lambda m: chain.update(m.retained_mem[:PINNED_RETAINED]))
                digests[f"{name}/{policy_name}/{log_max}"] = chain.hexdigest()
    return digests


def test_retained_memory_matches_the_pinned_digests_at_every_tick():
    assert retained_digests() == json.loads(RETAINED.read_text())


# -- one write commits each protocol transition ---------------------------------

# the header fields a transition writes ahead of the flags that commit it
COMMITTED_FIELDS = ("chal", "sigma", "wipe_cursor")


def recorded_header_writes(patch) -> list[list[str]]:
    """Patch ``AuditContext``'s setters of the flags and of
    ``COMMITTED_FIELDS`` to record each write, and ``Prover``'s entry
    points to open one record per outermost call of ``boot``,
    ``handle_message`` or ``advance``. Returns the records, in call order,
    each the names written, in write order."""
    calls: list[list[str]] = []
    depth = [0]
    for name in ("flags", *COMMITTED_FIELDS):
        prop = getattr(AuditContext, name)

        def recorded(ctx, value, name=name, fset=prop.fset):
            if depth[0]:
                calls[-1].append(name)
            fset(ctx, value)
        patch.setattr(AuditContext, name, property(prop.fget, recorded))
    for name in ("boot", "handle_message", "advance"):
        def outermost(prover, *args, method=getattr(Prover, name)):
            if not depth[0]:
                calls.append([])
            depth[0] += 1
            try:
                return method(prover, *args)
            finally:
                depth[0] -= 1
        patch.setattr(Prover, name, outermost)
    return calls


def test_each_transition_writes_its_fields_then_the_flags_once(monkeypatch):
    """Within one call into the prover the flags are written at most once,
    and no other header field after them: a power cut then leaves either
    the state before the transition or the state after it, never a flags
    word that names a state between the two. Every bundled scenario, under
    each policy, at its own ``log_max`` and at 16, uncut and cut at every
    7th tick up to 200."""
    calls = recorded_header_writes(monkeypatch)
    bad = []
    for name in sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")):
        base = bundled(name)
        for policy in sorted(POLICY_NAMES):
            for log_max in sorted({base.log_max, 16}):
                for reset_at in (None, *range(7, 201, 7)):
                    del calls[:]
                    run(replace(base, policy=policy, log_max=log_max, reset_at=reset_at,
                                max_ticks=min(base.max_ticks, 40_000)))
                    # a write of anything, the flags too, after the flags
                    bad += [(name, policy, log_max, reset_at, writes)
                            for writes in calls if "flags" in writes[:-1]]
    assert not bad, (len(bad), bad[:5])


def test_every_report_trigger_finds_the_core_in_the_secure_world(monkeypatch):
    """A report is signed in the Secure World, and no trigger needs to switch
    there: the block run that ended on the deadline or a gateway entry
    switched, and an exit door replayed at a slice's start is still parked
    there. Every bundled scenario, under each policy, at its own
    ``log_max`` and at 16, at its own ``delta`` and at 50, uncut and cut
    at every 7th tick up to 200."""
    seen, bad = [], []
    trigger = Prover._trigger_report

    def checked(prover, reason):
        seen.append(reason)
        if prover.m.world is not vm.World.SECURE:
            bad.append((case, reason))
        return trigger(prover, reason)
    monkeypatch.setattr(Prover, "_trigger_report", checked)
    for name in sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")):
        base = bundled(name)
        for policy in sorted(POLICY_NAMES):
            for log_max, delta in itertools.product({base.log_max, 16}, {base.delta, 50}):
                for reset_at in (None, *range(7, 201, 7)):
                    case = name, policy, log_max, delta, reset_at
                    run(replace(base, policy=policy, log_max=log_max, delta=delta,
                                reset_at=reset_at, max_ticks=min(base.max_ticks, 40_000)))
    assert not bad, (len(bad), bad[:5])
    assert {"deadline", "capacity", "end"} <= set(seen)


# -- every message, byte for byte ---------------------------------------------

def message_digests(monkeypatch) -> dict[str, str]:
    """Every bundled scenario under each policy, at its own ``log_max`` and
    at 16 and 64, for at most 40 000 ticks: one SHA-256 per run over every
    datagram handed to ``Channel.send``, as its tick, its length and its
    bytes. A change that alters a message on purpose re-records
    tests/data/messages.json with
    ``json.dumps(message_digests(monkeypatch), indent=1, sort_keys=True)``."""
    chain = hashlib.sha256()
    send = Channel.send

    def hashed_send(channel, now, data):
        chain.update(now.to_bytes(8, "big") + len(data).to_bytes(4, "big") + data)
        send(channel, now, data)

    monkeypatch.setattr(Channel, "send", hashed_send)
    digests = {}
    for name in sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")):
        base = bundled(name)
        for policy, policy_name in sorted(POLICY_NAMES.items()):
            for log_max in sorted({base.log_max, 16, 64}):
                chain = hashlib.sha256()
                run(replace(base, policy=policy, log_max=log_max,
                            max_ticks=min(base.max_ticks, 40_000)))
                digests[f"{name}/{policy_name}/{log_max}"] = chain.hexdigest()
    return digests


def test_every_message_matches_the_pinned_digests(monkeypatch):
    assert message_digests(monkeypatch) == json.loads(MESSAGES.read_text())


# -- pinned defects --------------------------------------------------------------

# a report any sender can make: no key, 32 zero bytes of sigma, an empty log
KEYLESS_REPORT = wire.Report(bytes(wire.MAC_WIDTH), b"").pack()
FORGED_RUNS = [(name, log_max) for name in ("benign_pulse", "lossy_fold", "power_cut")
               for log_max in (16, 32, 256)]


def runs_with_a_keyless_report_first() -> dict[tuple[str, int], scenario.ScenarioResult]:
    """Each of ``FORGED_RUNS`` with ``KEYLESS_REPORT`` queued for the
    verifier at the tick of the device's first report, ahead of it. It is
    queued as it stands, so the link rolls no fate for it and no other
    datagram's fate moves."""
    results = {}
    for name, log_max in FORGED_RUNS:
        queued = []
        send = Channel.send

        def forging_send(channel, now, data):
            if not queued and wire.message_type(data) == wire.MSG_REPORT:
                queued.append(now)
                heapq.heappush(channel._heap, (now, channel._seq, KEYLESS_REPORT))
                channel._seq += 1
            send(channel, now, data)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Channel, "send", forging_send)
            results[name, log_max] = run(replace(bundled(name), log_max=log_max))
        assert queued, (name, log_max)
    return results


def test_a_keyless_report_ahead_of_the_first_reaches_the_verifier():
    for key, res in runs_with_a_keyless_report_first().items():
        assert res.rejected >= 1 and res.settled, key


# a response any sender can make: no key, 32 zero bytes of sigma
KEYLESS_HEAL = wire.Response(wire.RESULT_HEAL, 2, bytes(wire.MAC_WIDTH)).pack()


@pytest.mark.parametrize("drive", [run, run_per_tick], ids=["clock", "per_tick"])
def test_a_keyless_heal_ahead_of_the_first_request_times_no_heal(drive):
    """The device times the heal it obeys, not a datagram whose framing
    reads heal. ``KEYLESS_HEAL`` is queued for the device at tick 0, ahead
    of the first request, as it stands, so the link rolls no fate for it."""
    queued = []
    send = Channel.send

    def forging_send(channel, now, data):
        if not queued and wire.message_type(data) == wire.MSG_REQUEST:
            queued.append(now)
            heapq.heappush(channel._heap, (now, channel._seq, KEYLESS_HEAL))
            channel._seq += 1
        send(channel, now, data)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Channel, "send", forging_send)
        res = drive(bundled("benign_pulse"))
    assert queued == [0]
    assert res.verdicts == ["end"] and not res.heal_issued
    assert res.post_heal_ns is None


@pytest.mark.xfail(strict=True, reason="D17: the verifier answers a keyless report "
                   "with a MAC-valid heal and the device obeys it, so a benign image "
                   "is wiped; Direction 13 binds each response to the report it answers")
def test_a_keyless_report_ahead_of_the_first_changes_nothing():
    outcomes = {key: (res.violation, res.pmem_zeroed)
                for key, res in runs_with_a_keyless_report_first().items()}
    assert outcomes == {key: ("none", False) for key in FORGED_RUNS}


REGISTER_LIMIT_LOOP = """main:
    mov r5, #4
    mov r1, #0
loop:
    add r1, r1, #1
    cmp r1, {limit}
    blt loop
    nsc_call
"""


@pytest.mark.parametrize("limit", [
    "#4",
    pytest.param("r5", marks=pytest.mark.xfail(
        strict=True, reason="D1: build_cfg takes the imm of the rewriter's "
        "`mov r11, rL`, 0, as a register limit; the device logs the runtime limit")),
])
def test_a_benign_counted_loop_settles_end(limit):
    res = run(ScenarioSpec(name="counted", asm_text=REGISTER_LIMIT_LOOP.format(limit=limit)))
    assert res.settled and res.verdicts == ["end"]
    assert res.violation == "none" and not res.pmem_zeroed


# D21: a direct jump to the exit door ends the app as ``nsc_call`` does;
# the device logs the exit sentinel and cuts the end slice
EXIT_BY_JUMP = {
    "b": "main:\n    mov r9, #1\n    b nsc_exit\n",
    "bl": "main:\n    mov r9, #1\n    bl nsc_exit\n",
    "one_arm": """main:
    mov r7, #input_base
    ldr r1, [r7, #0]
    cmp r1, #0
    beq done
    mov r9, #2
    nsc_call
done:
    mov r9, #1
    b nsc_exit
""",
}


@pytest.mark.parametrize("name,word", [("b", "0"), ("bl", "0"),
                                       ("one_arm", "0"), ("one_arm", "1")])
def test_a_jump_to_the_exit_door_settles_end(name, word):
    spec = ScenarioSpec(name=name, asm_text=EXIT_BY_JUMP[name], input_tokens=(word,))
    res = run(spec)
    assert res.settled and res.verdicts == ["end"]
    assert res.violation == "none" and not res.pmem_zeroed
    assert res.final_digest == scenario.deploy(spec.asm_text).cfg.digest.hex()


def test_an_indirect_call_to_the_exit_door_stays_illegal():
    asm = ("main:\n    mov r7, #input_base\n    ldr r8, [r7, #0]\n"
           "    blx r8\n    nsc_call\n")
    res = run(ScenarioSpec(name="blx_exit", asm_text=asm,
                           input_tokens=(str(isa.NSC_EXIT),)))
    assert res.violation == "IllegalIndirectTarget" and res.violation_index == 0
    assert res.verdicts == ["heal", "end"] and res.pmem_zeroed


@pytest.mark.xfail(strict=True, reason="D5: the remnant report sent at boot is not "
                   "marked final, so a session cut before the forged return settles exec")
def test_a_session_cut_short_never_settles_exec():
    spec = bundled("overflow_hijack")
    cut_to_exec = [reset_at for reset_at in range(2, 72)
                   if run(replace(spec, reset_at=reset_at)).verdicts[-1:] == ["exec"]]
    assert cut_to_exec == []


def test_window_measurement_budget_counts_ticks():
    res = window("window_dense", 1024, 10_000_000)
    assert res.settled
    assert res.ticks >= sum(res.windows) + sum(res.triggers.values())
    short = window("window_dense", 1024, 10_000_000, max_ticks=res.ticks // 2)
    assert not short.settled
    assert short.ticks == res.ticks // 2


# -- static artefacts shared across sessions --------------------------------

def test_sessions_of_one_program_build_its_image_once(monkeypatch):
    calls = dict.fromkeys(("rewrite", "cfg_of", "parse_lines",
                           "instrument", "assemble", "build_cfg"), 0)
    for owner, name in ((scenario, "rewrite"), (scenario, "cfg_of"), (isa, "parse_lines"),
                        (scenario, "instrument"), (isa, "assemble"),
                        (verifier, "build_cfg")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    built = []

    def block(code, pc, _fn=vm._Code.block):
        built.append(pc)
        return _fn(code, pc)
    monkeypatch.setattr(vm._Code, "block", block)
    clear_image_caches()
    # a conditional branch, so that the run builds blocks at its targets
    programs = [f"main:\n    mov r0, #{i + 3}\nloop:\n    sub r0, r0, #1\n"
                "    cmp r0, #0\n    bgt loop\n    nsc_call\n"
                for i in range(isa.IMAGE_CACHE_SIZE + 1)]
    spec = ScenarioSpec(name="p0", asm_text=programs[0])
    assert run(spec) == run(spec)
    # one deployment, whose text is read once; the text path is not taken
    assert calls == {"rewrite": 1, "cfg_of": 1, "parse_lines": 1,
                     "instrument": 0, "assemble": 0, "build_cfg": 0}
    assert built and len(built) == len(set(built))   # each block built once
    # the caches are bounded: the least recently used program is rebuilt
    for text in programs[1:]:
        run(ScenarioSpec(name="p", asm_text=text))
    run(spec)
    assert calls["rewrite"] == calls["cfg_of"] == calls["parse_lines"] \
        == isa.IMAGE_CACHE_SIZE + 2


def test_a_tampered_and_a_benign_session_of_one_image_stay_apart():
    tamper = parse_scenario(SCENARIO_DIR / "image_tamper.scn")
    benign = replace(tamper, name="particle_count", pmem_flip=None, expect={})
    fresh = {}
    for spec in (tamper, benign):
        clear_image_caches()
        fresh[spec.name] = run(spec)
    assert fresh["image_tamper"].pmem_zeroed and fresh["image_tamper"].ok
    assert not fresh["particle_count"].heal_issued
    for first, second in ((tamper, benign), (benign, tamper)):
        clear_image_caches()
        assert run(first) == fresh[first.name]
        assert run(second) == fresh[second.name]


def recording(made: list, cls):
    """``cls``, keeping each object it builds in ``made``."""
    def make(*args):
        made.append(cls(*args))
        return made[-1]
    return make


def test_one_deployment_serves_a_whole_session(monkeypatch):
    # a power cut too, so that the machine outlives a reset and the device
    # measures its image again
    spec = parse_scenario(SCENARIO_DIR / "power_cut.scn")
    machines, verifiers, resolved, hashed = [], [], [], []
    monkeypatch.setattr(scenario, "Machine", recording(machines, Machine))
    monkeypatch.setattr(scenario, "Verifier", recording(verifiers, verifier.Verifier))

    def counted(tokens, labels, _fn=scenario.resolve_input):
        resolved.append(tokens)
        return _fn(tokens, labels)
    monkeypatch.setattr(scenario, "resolve_input", counted)

    def sha256(*data, _fn=hashlib.sha256):
        hashed.extend(bytes(d) for d in data)
        return _fn(*data)
    monkeypatch.setattr(hashlib, "sha256", sha256)
    clear_image_caches()
    first = run(spec)
    assert first.ok and run(spec) == first
    assert scenario.deploy.cache_info().misses == 1
    dep = scenario.deploy(spec.asm_text)
    for m, vrf in zip(machines, verifiers, strict=True):
        assert m._code is dep.code and vrf.cfg is dep.cfg
    assert len(machines) == 2 and dep.code.blocks
    assert resolved == [spec.input_tokens]
    # the image is hashed once, for the graph; the machines read that digest
    assert hashed.count(dep.cfg.prog.image) == 1
    assert dep.code.digest == dep.cfg.digest == hashlib.sha256(dep.cfg.prog.image).digest()


def test_a_healed_image_leaves_its_deployment_s_code_as_it_was(monkeypatch):
    tamper = parse_scenario(SCENARIO_DIR / "image_tamper.scn")
    benign = replace(tamper, name="particle_count", pmem_flip=None, expect={})
    machines = []
    monkeypatch.setattr(scenario, "Machine", recording(machines, Machine))
    clear_image_caches()
    dep = scenario.deploy(benign.asm_text)
    assert run(benign).ok
    blocks, loops = dict(dep.code.blocks), dict(dep.code.loops)
    assert blocks and machines[-1]._code is dep.code
    res = run(tamper)
    assert res.ok and res.heal_issued and res.pmem_zeroed
    assert machines[-1]._code is not dep.code           # the flip gave it its own
    assert run(benign).ok
    assert scenario.deploy(benign.asm_text) is dep and machines[-1]._code is dep.code
    assert dep.code.blocks == blocks and dep.code.loops == loops
    assert all(dep.code.blocks[pc] is blk for pc, blk in blocks.items())
    assert dep.code.digest == dep.cfg.digest == hashlib.sha256(dep.cfg.prog.image).digest()


def test_an_audit_over_hops_another_session_traced_gives_the_same_verdicts():
    attack = parse_scenario(SCENARIO_DIR / "overflow_hijack.scn")
    benign = replace(attack, name="benign", input_tokens=("4", "1", "2", "3", "4"),
                     expect={})
    clear_image_caches()
    alone = run(attack)
    assert alone.ok and alone.violation_index == 6
    clear_image_caches()
    assert run(benign).verdict == "end"
    cfg = scenario.deploy(attack.asm_text).cfg
    traced = dict(cfg.hops)
    assert traced
    assert run(attack) == alone
    assert cfg.hops.items() >= traced.items()


# --- a gateway returns as a BXNS: resuming at a gateway entry faults ----------

# D24: the cond gateway's lr restore gives back 0x100 (the second mov puts it
# in the previous lr too), so each serviced entry resumed at the next one and
# the device never reported
D24 = "main:\n    mov r1, #256\n    mov lr, r1\n    mov lr, r1\n    bx lr\n"


@pytest.mark.parametrize("delta", [10, 500_000])
def test_a_return_into_the_cond_gateway_is_condemned(delta):
    res = run(ScenarioSpec(name="d24", asm_text=D24, delta=delta, max_ticks=100_000))
    assert res.settled and res.verdicts == ["heal", "end"]
    assert (res.violation, res.violation_index) == ("ShadowStackMismatch", 0)
    assert res.triggers["fault"] == 1 and res.pmem_zeroed


TRANSFERS = {
    "bx": "    mov lr, r1\n    mov lr, r1\n    bx lr\n",
    "pop": "    push r1\n    pop pc\n",
    "blx": "    blx r1\n",
}


@pytest.mark.parametrize("transfer", list(TRANSFERS))
@pytest.mark.parametrize("entry", list(isa.NSC_SYMBOLS))
def test_a_transfer_into_each_gateway_entry_is_reported(entry, transfer):
    asm = f"main:\n    mov r1, #{isa.NSC_SYMBOLS[entry]}\n" + TRANSFERS[transfer]
    res = run(ScenarioSpec(name=entry, asm_text=asm, delta=10, max_ticks=100_000))
    assert res.settled and res.verdicts == ["heal", "end"]
    assert res.violation_index == 0 and res.triggers["fault"] == 1
