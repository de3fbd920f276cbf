"""Time the auditor's walk alone on the runs each workload feeds it, in two
checkouts side by side.

    python3 tools/walk_layer.py PARENT CHANGE --seed 1 --pairs 3 --passes 6

Each run is one fresh process over one checkout's ``src`` and
``perfbench``. For each workload it runs one seeded pass of the pool and
records the runs every ``Walker.feed`` receives, walker by walker. It then
feeds those runs again to fresh walkers over the same graphs, whose hop
memos are warm by then, ``--passes`` times, and keeps the fastest pass:
the walk alone, with no parsing, MAC or device in it. A last pass counts
the hops walked (hop-memo lookups), the walkers' ``steps`` and the
destinations fed. Runs alternate between the checkouts, the parent first
in even pairs (``ab.py``); each side's median walk time over runs is
printed with its minimum and quartiles, beside the counts, which must be
the same in every run of a side.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import ab

WORKLOADS = ("compute_loop", "dense_evidence", "audit_replay", "lossy_fleet")


class _CountedHops(dict):
    """A hop memo that counts the lookups the hop loop makes."""

    lookups = 0

    def __getitem__(self, pc):
        self.lookups += 1
        return super().__getitem__(pc)


def recorded_walks(wl, seed: int) -> list:
    """[(graph, [runs of each feed])] for each walker of one seeded pass."""
    from cfaudit import verifier

    items = wl.setup(seed).items      # set-up's capture sessions are not recorded
    walks: dict = {}
    feed = verifier.Walker.feed

    def recording(self, runs):
        walks.setdefault(self, (self.cfg, []))[1].append(list(runs))
        return feed(self, runs)

    verifier.Walker.feed = recording
    try:
        for item in items:
            wl.run(item)
    finally:
        verifier.Walker.feed = feed
    return list(walks.values())


def walk(walks) -> list:
    """Fresh walkers fed the recorded runs; the walkers."""
    from cfaudit.verifier import Walker

    walkers = []
    for cfg, feeds in walks:
        w = Walker(cfg)
        for runs in feeds:
            w.feed(runs)
        walkers.append(w)
    return walkers


def measure(seed: int, passes: int) -> dict:
    """{workload: {"walk_ms": fastest pass, "hops": lookups, "steps": ...,
    "dests": ..., "walkers": ...}} for the checkout on ``sys.path``."""
    from workloads import AuditReplay, ComputeLoop, DenseEvidence, LossyFleet

    out = {}
    for wl in (ComputeLoop(), DenseEvidence(), AuditReplay(),
               LossyFleet(Path.cwd() / "scenarios")):
        walks = recorded_walks(wl, seed)
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            walk(walks)
            best = min(best, time.perf_counter() - start)
        memos = {}
        for cfg, _ in walks:
            if id(cfg) not in memos:
                memos[id(cfg)] = cfg, cfg.hops
                cfg.hops = _CountedHops(cfg.hops)
        walkers = walk(walks)
        hops = sum(cfg.hops.lookups for cfg, _ in memos.values())
        for cfg, memo in memos.values():
            memo.update(cfg.hops)
            cfg.hops = memo
        out[wl.name] = {"walk_ms": best * 1e3, "hops": hops,
                        "steps": sum(w.steps for w in walkers),
                        "dests": sum(w.fed for w in walkers), "walkers": len(walkers)}
    return out


def report(seed: int, runs: dict[str, list[dict]]) -> None:
    counts = {}
    for side, rs in runs.items():
        for name in WORKLOADS:
            got = {(r[name]["hops"], r[name]["steps"], r[name]["dests"]) for r in rs}
            if len(got) != 1:
                raise RuntimeError(f"{side} {name}: counts differ between runs: {got}")
            counts[side, name] = got.pop()
    for name in WORKLOADS:
        print(f"{name:15}" + "".join(
            f"  {side}: walk {ab.shown(rs, lambda r: r[name]['walk_ms'])} ms,"
            f" {counts[side, name][0]} hops walked, steps {counts[side, name][1]},"
            f" {counts[side, name][2]} dests"
            for side, rs in runs.items()))
    print(json.dumps({"seed": seed, "runs": runs}))


if __name__ == "__main__":
    sys.exit(ab.main(__file__, __doc__, measure, report))
