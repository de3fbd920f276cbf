"""Command line behavior: output shape and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfaudit import cli, isa
from cfaudit.cli import EXIT_EXPECT, EXIT_OK, EXIT_USAGE, main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PROGRAM_DIR = SCENARIO_DIR / "programs"
CORPUS = Path(__file__).resolve().parent / "data" / "corpus.jsonl"
REWRITES = Path(__file__).resolve().parent / "data" / "rewrites.json"
PROBES = ("window_dense", "window_mid", "window_sparse")

# benign and endless: every pass logs the same return
SPIN = "main:\n    bl tick\n    b main\ntick:\n    bx lr\n"


def write_missed(tmp_path):
    """A scenario that runs and settles but misses its expectation."""
    (tmp_path / "p.asm").write_text("main:\n    nsc_call\n")
    scn = tmp_path / "c.scn"
    scn.write_text("[scenario]\nprogram = p.asm\n\n[expect]\nverdict = heal\n")
    return scn


def test_run_passing_scenario(capsys):
    code = main(["run", str(SCENARIO_DIR / "benign_pulse.scn")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "benign_pulse: PASS" in out
    assert "verdicts        end" in out


def test_run_json_is_one_parseable_line(capsys):
    code = main(["run", "--json", str(SCENARIO_DIR / "overflow_hijack.scn")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["name"] == "overflow_hijack"
    assert record["violation"] == "ShadowStackMismatch"
    assert record["pmem_zeroed"] is True


def test_run_missed_expectation_exits_one(tmp_path, capsys):
    code = main(["run", str(write_missed(tmp_path))])
    out = capsys.readouterr().out
    assert code == EXIT_EXPECT
    assert "FAIL" in out
    assert "wanted heal" in out


def test_run_missing_file_exits_two(capsys):
    code = main(["run", str(SCENARIO_DIR / "absent.scn")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "cfaudit:" in err


@pytest.mark.parametrize("argv", [
    ["run", str(SCENARIO_DIR / "benign_pulse.scn"), "--delta", "-1"],
    ["run", str(SCENARIO_DIR / "benign_pulse.scn"), "--log-max", "8"],
    ["window", str(PROGRAM_DIR / "window_dense.asm"), "--delta", "0"],
], ids=["run-delta", "run-log-max", "window-delta"])
def test_an_override_its_field_cannot_hold_exits_two(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("cfaudit: ") and "Traceback" not in err
    assert argv[-2].lstrip("-").replace("-", "_") in err


@pytest.mark.parametrize("section", ["scenario", "verifier"])
def test_a_negative_resend_interval_exits_two(tmp_path, capsys, section):
    scn = tmp_path / "bad.scn"
    body = "[scenario]\nprogram = p.asm\n"
    body += f"\n[{section}]\n" * (section != "scenario") + "resend_interval = -1\n"
    scn.write_text(body)
    (tmp_path / "p.asm").write_text("main:\n    nsc_call\n")
    code = main(["run", str(scn)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"[{section}] resend_interval: -1 is negative" in err


def test_run_malformed_scenario_exits_two(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("[scenario]\nprogram = p.asm\nbogus = 1\n")
    (tmp_path / "p.asm").write_text("main:\n    nsc_call\n")
    code = main(["run", str(scn)])
    assert code == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


def test_window_table_lists_each_capacity(capsys):
    code = main(["window", str(PROGRAM_DIR / "window_dense.asm"),
                 "--log-max", "1024 2048", "--delta", "10000000"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["log_max", "max_window", "slices", "triggers"]
    assert len(lines) == 3
    assert lines[1].split()[0] == "1024"
    assert lines[2].split()[0] == "2048"


def test_window_json_reports_monotone_growth(capsys):
    code = main(["window", str(PROGRAM_DIR / "window_dense.asm"),
                 "--log-max", "1024,2048,4096", "--json",
                 "--delta", "10000000"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = json.loads(out)
    windows = [row["max_window"] for row in rows]
    assert windows == sorted(windows)


def test_window_rejects_bad_capacity_list(capsys):
    code = main(["window", str(PROGRAM_DIR / "window_dense.asm"),
                 "--log-max", "a lot"])
    assert code == EXIT_USAGE
    assert "bad capacity list" in capsys.readouterr().err


def test_window_rejects_more_input_than_data_memory_holds(capsys):
    code = main(["window", str(PROGRAM_DIR / "window_dense.asm"),
                 "--input", " ".join(["1"] * (isa.DMEM_SIZE // 4 + 1))])
    assert code == EXIT_USAGE
    assert "exceed data memory" in capsys.readouterr().err


def test_instrument_prints_deployable_source(capsys):
    code = main(["instrument", str(PROGRAM_DIR / "pulse_echo.asm")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "trampoline_cond" in out
    assert "main:" in out


def test_instrument_map_lists_rewritten_branches(capsys):
    code = main(["instrument", "--map", str(PROGRAM_DIR / "pulse_echo.asm")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[entries]" in out
    assert "[line_map]" in out
    assert "main:" not in out   # the map, not the program


def test_instrument_rejects_an_undefined_label(tmp_path, capsys):
    prog = tmp_path / "bad.asm"
    prog.write_text("main: b nowhere\n")
    code = main(["instrument", str(prog)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "undefined label: nowhere" in captured.err
    # a malformed transfer is rejected at its source line, not rewritten
    for bad, msg in [("bx r3", "only 'bx lr' is supported"),
                     ("bx", "bx expects 1 operand(s), got 0"),
                     ("blx", "blx expects 1 operand(s), got 0"),
                     ("blx #5", "expected register, got '#5'"),
                     ("blx r3, r4", "blx expects 1 operand(s), got 2"),
                     ("pop {pc}, r2", "pop expects 1 operand(s), got 2"),
                     ("bne", "bne expects 1 operand(s), got 0"),
                     ("bne main, x", "bne expects 1 operand(s), got 2")]:
        prog.write_text(f"main:\n    cmp r0, #0\n    beq out\n    {bad}\nout:\n    nsc_call\n")
        code = main(["instrument", str(prog)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE, bad
        assert captured.out == ""
        assert f"line 4: {msg}" in captured.err


# every register r0-r12 is named, so r10 and r11 have nowhere to go
EVERY_REGISTER = "main:\n" + "".join(f"    mov r{i}, #{i}\n" for i in range(13)) \
    + "    nsc_call\n"


@pytest.mark.parametrize("program,msg", [
    (EVERY_REGISTER, "no free register to relocate r10"),
    ("", "program has no instruction"),
    ("; a comment\n\n", "program has no instruction"),
], ids=["register-pressure", "empty", "comments-only"])
@pytest.mark.parametrize("command", ["instrument", "run"])
def test_a_program_the_rewriter_refuses_exits_two(tmp_path, capsys, command, program, msg):
    (tmp_path / "p.asm").write_text(program)
    scn = tmp_path / "p.scn"
    scn.write_text("[scenario]\nprogram = p.asm\n")
    code = main([command, str(tmp_path / ("p.asm" if command == "instrument" else "p.scn"))])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("cfaudit: ") and msg in captured.err


def test_run_overrides_and_output_file(tmp_path, capsys):
    out_file = tmp_path / "record.json"
    code = main(["run", str(SCENARIO_DIR / "lossy_fold.scn"),
                 "--seed", "99", "--log-max", "48", "--quiet",
                 "--output", str(out_file)])
    assert capsys.readouterr().out == ""
    record = json.loads(out_file.read_text())
    assert record["channel_stats"]["to_device"]["sent"] > 0
    # a different seed may or may not meet the lossy expectations; the
    # exit code must still only be 0 or 1, never a usage error
    assert code in (EXIT_OK, EXIT_EXPECT)


def test_module_entry_point_runs():
    # the package is found from the checkout's src/, not from an install
    env = dict(os.environ, PYTHONPATH=str(SCENARIO_DIR.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cfaudit", "run", "--json",
         str(SCENARIO_DIR / "power_cut.scn")],
        capture_output=True, text=True, cwd=str(SCENARIO_DIR.parent), env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["post_reset_ns"] == 0


def test_run_many_prints_one_json_line_per_scenario(tmp_path, capsys):
    names = ["benign_pulse", "power_cut"]
    out_file = tmp_path / "records.jsonl"
    code = main(["run", "--json", "--output", str(out_file)]
                + [str(SCENARIO_DIR / f"{name}.scn") for name in names])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert [json.loads(line)["name"] for line in out.splitlines()] == names
    assert out_file.read_text() == out


def test_run_many_exits_one_if_any_scenario_misses(tmp_path, capsys):
    code = main(["run", str(SCENARIO_DIR / "benign_pulse.scn"),
                 str(write_missed(tmp_path))])
    out = capsys.readouterr().out
    assert code == EXIT_EXPECT
    assert "benign_pulse: PASS" in out
    assert "c: FAIL" in out


def test_run_many_exits_two_on_a_bad_file_before_running_any(capsys):
    code = main(["run", "--json", str(SCENARIO_DIR / "benign_pulse.scn"),
                 str(SCENARIO_DIR / "absent.scn")])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "absent.scn" in captured.err


def test_run_overrides_apply_to_every_scenario(capsys):
    code = main(["run", "--json", "--delta", "50",
                 str(SCENARIO_DIR / "benign_pulse.scn"),
                 str(SCENARIO_DIR / "lossy_fold.scn")])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == EXIT_OK
    assert [r["max_window"] for r in records] == [50, 50]
    assert all(r["triggers"]["deadline"] > 0 for r in records)


def test_window_that_never_settles_exits_two(tmp_path, monkeypatch, capsys):
    prog = tmp_path / "spin.asm"
    prog.write_text(SPIN)
    monkeypatch.setattr(cli, "WINDOW_MAX_TICKS", 20_000)
    code = main(["window", str(prog), "--log-max", "1024", "--delta", "5000"])
    assert code == EXIT_USAGE
    assert "did not converge" in capsys.readouterr().err


def test_output_matches_the_golden_corpus(capsys):
    """``run --json`` over every bundled scenario, then ``window --json``
    on each probe, byte for byte as recorded in tests/data/corpus.jsonl."""
    scenarios = sorted(str(p) for p in SCENARIO_DIR.glob("*.scn"))
    assert main(["run", "--json"] + scenarios) == EXIT_OK
    for name in PROBES:
        assert main(["window", "--json", str(PROGRAM_DIR / f"{name}.asm")]) == EXIT_OK
    got = capsys.readouterr().out.splitlines()
    want = CORPUS.read_text().splitlines()
    assert len(got) == len(want) == len(scenarios) + len(PROBES)
    for got_line, want_line in zip(got, want):
        assert got_line == want_line


@pytest.mark.parametrize("name", sorted(p.stem for p in PROGRAM_DIR.glob("*.asm")))
def test_instrument_output_matches_the_golden_rewrites(name, capsys):
    """``instrument``, ``instrument --map`` and the image the rewritten text
    assembles to, for every bundled program, by SHA-256 as recorded in
    tests/data/rewrites.json."""
    program = str(PROGRAM_DIR / f"{name}.asm")
    assert main(["instrument", program]) == EXIT_OK
    text = capsys.readouterr().out
    assert main(["instrument", "--map", program]) == EXIT_OK
    got = {"text": text.encode(), "map": capsys.readouterr().out.encode(),
           "image": isa.assemble(text).image}
    want = json.loads(REWRITES.read_text())[name]
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == want
