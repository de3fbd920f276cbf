"""End-to-end runs driven by scenario files, and the file format itself."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from cfaudit.cli import WINDOW_MAX_TICKS
from cfaudit.context import (AuditContext, F_REMEDIATION, POLICY_DISABLE,
                             POLICY_FREEZE)
from cfaudit.scenario import (ScenarioError, ScenarioSpec, parse_scenario,
                              resolve_input, run, run_scenario)
from cfaudit.vm import Machine

from support import run_per_tick

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PROGRAM_DIR = SCENARIO_DIR / "programs"


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
pmem_flip_mask = 0x80
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
    assert spec.pmem_flip_mask == 0x80
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


def test_resolve_input_maps_labels_and_numbers():
    words = resolve_input(("7", "0x10", "@stop"), {"stop": 0x1040})
    assert words == [7, 16, 0x1040]


def test_resolve_input_rejects_unknown_label():
    with pytest.raises(ScenarioError, match="unknown label 'ghost'"):
        resolve_input(("@ghost",), {"main": 0x1000})


def test_pmem_flip_outside_image_is_an_error(tmp_path):
    scn = write_scn(tmp_path, """
[scenario]
program = prog.asm

[attack]
pmem_flip = 100000
""")
    with pytest.raises(ScenarioError, match="outside the image"):
        run(parse_scenario(scn))


# -- the shipped scenario corpus -------------------------------------------

@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.scn")))
def test_shipped_scenario_meets_its_expectations(name):
    res = run_scenario(SCENARIO_DIR / name)
    assert res.settled, f"{name} never settled"
    assert res.ok, f"{name}: {res.failures}"


def test_benign_scenario_accounting_balances():
    res = run_scenario(SCENARIO_DIR / "benign_pulse.scn")
    # a perfect link carries every send to the auditor, exactly once
    assert res.reports_transmitted == res.reports_received == res.slices_audited
    assert res.log_bytes == 4 * res.destinations_seen
    assert res.post_heal_ns is None
    assert res.max_window == max(res.windows)
    assert res.max_window > 0


def test_hijack_scenario_details():
    res = run_scenario(SCENARIO_DIR / "overflow_hijack.scn")
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
    res = run_scenario(SCENARIO_DIR / "power_cut.scn")
    assert res.post_reset_ns == 0
    assert res.remnant_reports == 1
    assert res.verdict == "exec"


def test_lossy_scenario_shows_channel_damage():
    res = run_scenario(SCENARIO_DIR / "lossy_fold.scn")
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
    spec = bundled(name)
    assert_same_as_per_tick(spec)
    for reset_at in range(1, run(spec).ticks + 1, 16):
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
    assert_same_as_per_tick(spec)
    for reset_at in range(1, min(res.ticks, 200) + 1, 16):
        assert_same_as_per_tick(replace(spec, reset_at=reset_at))


def test_clock_matches_per_tick_loop_on_a_reset_mid_wipe(monkeypatch):
    # padding makes the wipe take three chunks, one per tick
    base = bundled("image_tamper")
    spec = replace(base, asm_text=base.asm_text + "unused_pad:\n"
                   + "    mov r0, #0\n" * 600 + "    bx lr\n")
    mid_wipe = []
    reset = Machine.reset

    def recording_reset(machine):
        ctx = AuditContext.load(machine.retained_mem)
        mid_wipe.append(ctx is not None and ctx.flag(F_REMEDIATION)
                        and 0 < ctx.wipe_cursor < ctx.image_len)
        reset(machine)

    monkeypatch.setattr(Machine, "reset", recording_reset)
    for reset_at in range(1, run(spec).ticks + 1):
        assert_same_as_per_tick(replace(spec, reset_at=reset_at))
    assert any(mid_wipe)


def test_window_measurement_budget_counts_ticks():
    res = window("window_dense", 1024, 10_000_000)
    assert res.settled
    assert res.ticks >= sum(res.windows) + sum(res.triggers.values())
    short = window("window_dense", 1024, 10_000_000, max_ticks=res.ticks // 2)
    assert not short.settled
    assert short.ticks == res.ticks // 2
