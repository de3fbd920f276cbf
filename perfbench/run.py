#!/usr/bin/env python3
"""cfaudit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload compute_loop --seed 1 --seconds 20 --trace 0

Sessions run back to back in this one process and thread (a closed loop
with one client). ``--trace 0`` cycles the untraced program through the
workload's pool of sessions for ``--seconds`` (at least three passes) and
reports the end-to-end metrics; ``--trace 1`` runs one pass untraced and
one traced, checks that both give the same deterministic counters, and
reports the per-layer metrics.
Metric names and units are those of BENCHMARK.json at the repository root;
perfbench/README.md explains each one.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_PASSES = 3


IMPORT_TIMER = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import cfaudit.scenario
print(time.perf_counter() - start)
"""


def import_program(speed: HostSpeed) -> float:
    """Import cfaudit from the checkout's ``src``. Returns the median time
    of a fresh interpreter's import over a few runs, at quiet-host speed."""
    src = ROOT / "src"
    if not (src / "cfaudit" / "__init__.py").is_file():
        raise SystemExit(f"no cfaudit sources under {src}")
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(src)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(speed.quiet(float(out.stdout)))
    sys.path.insert(0, str(src))
    importlib.import_module("cfaudit.scenario")
    return statistics.median(times)


def workloads() -> dict:
    from workloads import AuditReplay, ComputeLoop, DenseEvidence, LossyFleet
    return {w.name: w for w in (ComputeLoop(), DenseEvidence(), AuditReplay(),
                                LossyFleet(ROOT / "scenarios"))}


def set_up(wl, seed: int, speed: HostSpeed):
    """The workload's set-up, repeated; the last one's state and the median
    time at quiet-host speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter()
        setup = wl.setup(seed)
        times.append(speed.quiet(time.perf_counter() - start))
    return setup, statistics.median(times)


def run_sessions(wl, setup, count: int, seconds: float = 0.0, tracer=None,
                 speed: HostSpeed | None = None):
    """Run pool items in order until ``count`` sessions are done and
    ``seconds`` have passed, stopping at a period boundary. Returns the
    seconds of each session (at quiet-host speed when ``speed`` is given),
    the outcome of each session, and the checked summaries of the first
    pass. The simulator is deterministic, so a later run of a pool item
    must repeat its first run's summary exactly."""
    items = setup.items
    times, outcomes, first = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        item = items[i % len(items)]
        if speed is not None:
            speed.refresh()
        if tracer is None:
            start = time.perf_counter()
            out = wl.run(item)
            elapsed = time.perf_counter() - start
        else:
            with tracer.session_span(i):
                start = time.perf_counter()
                out = wl.run(item)
                elapsed = time.perf_counter() - start
        times.append(elapsed if speed is None else speed.quiet(elapsed))
        summary = wl.summarize(item, out)
        del out     # a replayed verifier can hold megabytes; free it now
        if i < len(items):
            first.append(summary)
        elif summary != first[i % len(items)]:
            raise RuntimeError(f"session {i} differs from the first run of its pool item")
        outcomes.append(summary.outcome)
        i += 1
        if i % wl.period == 0 and i >= count and time.perf_counter() >= deadline:
            return times, outcomes, first


def total(sessions, key: str) -> int:
    return sum(s.counters[key] for s in sessions)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def item_times(times, pool_size: int) -> list[float]:
    """Each pool item's median time over its runs in the measurement."""
    return [statistics.median(times[i::pool_size]) for i in range(pool_size)]


def end_to_end(wl, setup, setup_s: float, times, outcomes, first) -> dict[str, float]:
    per_item = item_times(times, wl.pool_size)
    host_s = sum(per_item)
    ms = [t * 1e3 for t in per_item]
    raw = sum(r.raw_instr for r in setup.refs)
    inst = sum(first[r.index].counters["ns"] for r in setup.refs)
    return {
        "setup_s": setup_s,
        "session_ms_p50": statistics.median(ms),
        "session_ms_p90": statistics.quantiles(ms, n=10)[8],
        "sim_kips": total(first, "ns") / host_s / 1e3,
        "kticks_per_s": total(first, "ticks") / host_s / 1e3,
        "audit_kdest_per_s": total(first, "destinations") / host_s / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "correct_share": outcomes.count("ok") / len(outcomes),
        "evidence_bytes_per_kinstr":
            1e3 * total(first, "evidence_bytes") / total(first, "ns"),
        "max_window_ns": max(s.counters["max_window"] for s in first),
        "settle_ticks_p50": statistics.median(s.counters["ticks"] for s in first),
        "report_sends_per_slice":
            total(first, "report_sends") / total(first, "slices"),
        "rewrite_code_growth": setup.image_bytes[0] / setup.image_bytes[1],
        "rewrite_exec_overhead": inst / raw,
    }


def per_layer(setup, sessions, tracer, untraced_s: float, traced_s: float):
    n = len(sessions)
    calls = dict(zip(tracer.names, tracer.calls))
    obs = tracer.counts

    def ms(name):              # self time per session
        return tracer.self_ms(name) / n

    m = {
        "isa.assemble_ms": ms("assemble"),
        "instrument.instrument_ms": ms("instrument"),
        "verifier.build_cfg_ms": ms("build_cfg"),
        "vm.steps": calls["Machine.step"],
        "vm.ns_instr": total(sessions, "ns"),
        "vm.step_ms": ms("Machine.step"),
        "vm.kips": ratio(calls["Machine.step"], ms("Machine.step") * n),
        "vm.raw_kips": ratio(sum(r.raw_instr for r in setup.refs),
                             sum(r.raw_s for r in setup.refs)) / 1e3,
        "vm.hash_pmem_calls": calls["Machine.hash_pmem"],
        "vm.hash_pmem_ms": ms("Machine.hash_pmem"),
        "supervisor.gateway_ms": ms("service_gateway"),
        "supervisor.prover_step_calls": calls["Prover.step"],
        "supervisor.prover_self_ms": ms("Prover.step"),
        "supervisor.useful_step_ratio": ratio(calls["Machine.step"], calls["Prover.step"]),
        "supervisor.slices": total(sessions, "slices"),
        "supervisor.report_sends": total(sessions, "report_sends"),
        "supervisor.retransmissions": total(sessions, "retransmissions"),
        "supervisor.remnant_reports": total(sessions, "remnant_reports"),
        "cfa_engine.appends": calls["CfLog.append"],
        "cfa_engine.append_ms": ms("CfLog.append"),
        "cfa_engine.checkpoint_calls": calls["CfLog.checkpoint"],
        "cfa_engine.checkpoint_ms": ms("CfLog.checkpoint"),
        "cfa_engine.evidence_bytes": total(sessions, "evidence_bytes"),
        "cfa_engine.compression_ratio": ratio(total(sessions, "destinations"),
                                              total(sessions, "evidence_bytes") / 4),
        "cfa_engine.decompress_ms": ms("decompress"),
        "cfa_engine.decompress_max_entries": obs["decompress_max_entries"],
        "wire.sigma_calls": calls["report_sigma"],
        "wire.mac_ms": ms("report_sigma"),
        "wire.mac_bytes": obs["mac_bytes"],
        "wire.auth_macs_per_report": ratio(obs["auth_macs"], calls["Verifier.handle"]),
        "channel.sends": calls["Channel.send"],
        "channel.delivered": total(sessions, "channel.delivered"),
        "channel.dropped": total(sessions, "channel.dropped"),
        "channel.duplicated": total(sessions, "channel.duplicated"),
        "channel.poll_calls": calls["Channel.poll"],
        "channel.poll_ms": ms("Channel.poll"),
        "channel.useful_poll_ratio": ratio(obs["poll_useful"], calls["Channel.poll"]),
        "scenario.ticks": total(sessions, "ticks"),
        "scenario.idle_ticks": tracer.leaf_calls[tracer.index["Prover.step"]],
        "scenario.clock_self_ms": ms("scenario.run"),
        "verifier.handle_calls": calls["Verifier.handle"],
        "verifier.handle_self_ms": ms("Verifier.handle"),
        "verifier.walk_ms": ms("Walker.feed"),
        "verifier.walk_steps": obs["walk_steps"],
        "verifier.walk_steps_per_dest": ratio(obs["walk_steps"],
                                              total(sessions, "destinations")),
        "verifier.duplicates": total(sessions, "duplicates"),
        "verifier.rejected": total(sessions, "rejected"),
        "resolver.step_calls": calls["Resolver.step"],
        "resolver.step_ms": ms("Resolver.step"),
        "trace.overhead_ms": (traced_s - untraced_s) / n * 1e3,
        "trace.overhead_share": traced_s / untraced_s - 1,
    }
    for kind in ("cond", "ret", "icall", "loop", "exit"):
        m["supervisor.gateway_calls." + kind] = obs["gateway." + kind]
    for reason in ("deadline", "capacity", "end", "fault"):
        m["supervisor.triggers." + reason] = total(sessions, "trigger." + reason)
    # shares of the self time the spans account for: the wrappers' own
    # cost is outside every span, so this approximates the untraced split
    layer_ns = tracer.layer_self_ns()
    for layer in ("isa", "instrument", "vm", "supervisor", "cfa_engine", "wire",
                  "channel", "scenario", "verifier", "resolver", "bench"):
        m["share." + layer] = layer_ns.get(layer, 0) / sum(layer_ns.values())
    return m


def deterministic_counters(sessions, tracer=None) -> dict[str, int]:
    out = {k: total(sessions, k) for k in sessions[0].counters}
    out["max_window"] = max(s.counters["max_window"] for s in sessions)
    if tracer is not None:
        out.update((k, v) for k, v in sorted(tracer.counts.items())
                   if k.startswith("gateway."))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    speed = HostSpeed()
    import_s = import_program(speed)
    import spans
    table = workloads()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(table)}")
    wl = table[args.workload]
    setup, setup_median = set_up(wl, args.seed, speed)
    setup_s = import_s + setup_median

    if args.trace == 0:
        declared = bench["end_to_end"]
        times, outcomes, first = run_sessions(wl, setup, MIN_PASSES * wl.pool_size,
                                              args.seconds, speed=speed)
        metrics = end_to_end(wl, setup, setup_s, times, outcomes, first)
        counters = deterministic_counters(first)
    else:
        declared = bench["per_layer"]
        untraced_times, _, untraced = run_sessions(wl, setup, wl.pool_size)
        tracer = spans.Tracer()
        originals = spans.snapshot_targets()
        with tracer.installed():
            traced_times, outcomes, first = run_sessions(wl, setup, wl.pool_size,
                                                         tracer=tracer)
        if not spans.targets_intact(originals):
            raise RuntimeError("a traced function was left wrapped")
        if untraced != first:
            print("traced and untraced runs disagree on deterministic counters",
                  file=sys.stderr)
            return 1
        times = traced_times
        metrics = per_layer(setup, first, tracer, sum(untraced_times),
                            sum(traced_times))
        counters = deterministic_counters(first, tracer)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{wl.name}-{args.seed}.tsv")

    units = {d["name"]: d["unit"] for d in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    unexplained = [o for o in outcomes if o.startswith("fail:")]
    for outcome in sorted(set(unexplained)):
        print(f"session failed: {outcome[5:]}", file=sys.stderr)
    for name in units:
        print(f"{name:40} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({"workload": wl.name, "seed": args.seed, "sessions": len(times),
                      "counters": counters}, sort_keys=True))
    print(json.dumps({
        "correct": not unexplained,
        "attempted": len(outcomes),
        "failed": len(outcomes) - outcomes.count("ok"),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
