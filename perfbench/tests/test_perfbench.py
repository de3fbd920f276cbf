"""Self-tests of the benchmark harness (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import run
import spans
import workloads
from cfaudit import supervisor, verifier, vm
from workloads import D1, ScenarioItem, ScenarioWorkload, ideal_spec

ROOT = Path(__file__).resolve().parents[2]

# Defect D1: a benign register-limit counted loop is condemned and wiped.
D1_PROGRAM = """\
main:
    mov r5, #4
    mov r1, #0
loop:
    add r1, r1, #1
    cmp r1, r5
    blt loop
    nsc_call
"""
BENIGN_PROGRAM = D1_PROGRAM.replace("cmp r1, r5", "cmp r1, #4")


class TwoPrograms(ScenarioWorkload):
    name = "two_programs"
    period = 2
    pool_size = 2

    def __init__(self, known_defect):
        self.known_defect = known_defect

    def setup(self, seed):
        items = [ScenarioItem(ideal_spec("benign", BENIGN_PROGRAM, [])),
                 ScenarioItem(ideal_spec("d1", D1_PROGRAM, []),
                              known_defect=self.known_defect)]
        return workloads.with_refs(items, [0])


def test_wrappers_exist_only_inside_the_traced_block():
    before = spans.snapshot_targets()
    tracer = spans.Tracer(outside_ns=0)
    with tracer.installed():
        assert vm.Machine.__dict__["step"] is not before[(id(vm.Machine), "step")]
        assert supervisor.service_gateway is not before[(id(supervisor), "service_gateway")]
        assert not spans.targets_intact(before)
    assert spans.targets_intact(before)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("session blew up")
    assert spans.targets_intact(before)


def test_setup_capture_leaves_the_verifier_unpatched():
    before = spans.snapshot_targets()
    wl = workloads.AuditReplay()
    wl.pool_size = 4
    wl.setup(3)
    assert spans.targets_intact(before)
    assert verifier.Verifier.__dict__["handle"] is before[(id(verifier.Verifier), "handle")]


def test_spans_nest_and_self_times_match_the_spans():
    wl = workloads.LossyFleet(ROOT / "scenarios")
    wl.pool_size = 10
    setup = wl.setup(5)
    tracer = spans.Tracer(keep=10**7)
    with tracer.installed():
        run.run_sessions(wl, setup, 10, tracer=tracer)
    n = len(tracer.span_id)
    assert n < tracer.keep and n == sum(tracer.calls)
    by_id = {tracer.span_id[i]: i for i in range(n)}
    child_ns = [0] * n
    for i in range(n):
        start, end = tracer.span_start[i], tracer.span_end[i]
        assert start <= end
        parent = tracer.span_parent[i]
        if parent == -1:
            assert spans.NAMES[tracer.span_name[i]] == spans.SESSION
            continue
        p = by_id[parent]
        assert tracer.span_start[p] <= start and end <= tracer.span_end[p]
        assert tracer.span_session[p] == tracer.span_session[i]
        child_ns[p] += end - start + tracer.span_aside[i] + tracer.outside_ns
    self_ns = [0] * len(spans.NAMES)
    for i in range(n):
        self_ns[tracer.span_name[i]] += \
            tracer.span_end[i] - tracer.span_start[i] - child_ns[i]
        assert tracer.span_end[i] - tracer.span_start[i] - child_ns[i] >= 0
    assert self_ns == tracer.self_ns
    assert all(ns >= 0 for ns in tracer.self_ns)


def test_calibrated_self_times_are_not_negative():
    wl = workloads.ComputeLoop()
    wl.pool_size = 4
    setup = wl.setup(2)
    tracer = spans.Tracer()
    with tracer.installed():
        run.run_sessions(wl, setup, 4, tracer=tracer)
    assert tracer.outside_ns > 0
    assert all(ns >= 0 for ns in tracer.self_ns)


@pytest.mark.parametrize("known", [None, D1])
def test_a_condemned_benign_session_counts_as_failed(known):
    wl = TwoPrograms(known)
    setup = wl.setup(0)
    times, outcomes, first = run.run_sessions(wl, setup, 2)
    expected = "known:D1" if known else "fail:benign program condemned (IllegalEdge)"
    assert outcomes == ["ok", expected]
    assert run.end_to_end(wl, setup, 0.1, times, outcomes, first)["correct_share"] == 0.5


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.LossyFleet(ROOT / "scenarios")
    wl.pool_size = 5
    setup = wl.setup(1)
    times, outcomes, first = run.run_sessions(wl, setup, 10)
    got = run.end_to_end(wl, setup, 0.1, times, outcomes, first)
    assert set(got) == {m["name"] for m in bench["end_to_end"]}
    tracer = spans.Tracer()
    with tracer.installed():
        times, _, first = run.run_sessions(wl, setup, 5, tracer=tracer)
    got = run.per_layer(setup, first, tracer, sum(times) / 2, sum(times))
    assert set(got) == {m["name"] for m in bench["per_layer"]}


def test_scaled_report_matches_a_device_run():
    asm = workloads.programs.countdown_loop(random.Random(0), 3)
    sc = workloads.scalable_capture(lambda n: ideal_spec(
        "walk", asm, [n], delta=workloads.BIG_DELTA, heal_on_mac_mismatch=False),
        (4, 6, 9))
    spec, exchanges, device = sc.at(30)
    direct = workloads.capture(spec)
    assert exchanges == direct.exchanges
    assert device == workloads.scenario_counters(direct.result)
