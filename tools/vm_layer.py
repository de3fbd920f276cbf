"""Time the VM layer of a ``compute_loop`` session, by program kind, in
two checkouts side by side.

    python3 tools/vm_layer.py PARENT CHANGE --seed 1 --pairs 5 --passes 5

Each run is one fresh process over one checkout's ``src`` and
``perfbench``: it builds the seeded ``compute_loop`` pool, runs it once to
warm up, then ``--passes`` times, timing each session, the time spent
inside ``Machine.run`` (which includes the gateway service it calls), the
calls to ``Machine.run``, and the blocks ``_Code.block`` builds and the
time spent building them. The pool holds more programs than the image
cache, so every session builds its blocks cold. Each pool item's median
over the passes is taken, then the median over the items of each kind.
Runs alternate between the checkouts, the parent first in even pairs
(``ab.py``), and each side's median over runs is printed per kind, with
its minimum and quartiles; the calls, which do not vary, as the median.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import ab

KINDS = {0: "pair_loop", 1: "counted_loop, immediate limit", 2: "countdown_loop",
         3: "counted_loop, register limit"}


FIGURES = ("run_ms", "run_calls", "session_ms", "blocks_built", "block_ms")


def measure(seed: int, passes: int) -> dict:
    """{kind: {figure: median}} for the checkout on ``sys.path``, with the
    figures of ``FIGURES``, each per session."""
    from cfaudit import vm
    from workloads import ComputeLoop

    # seconds inside Machine.run, calls to it, blocks built,
    # seconds inside _Code.block
    inside = [0.0, 0, 0, 0.0]
    run, block = vm.Machine.run, vm._Code.block

    def timed_run(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return run(self, *args, **kwargs)
        finally:
            inside[0] += time.perf_counter() - start
            inside[1] += 1

    def timed_block(self, pc):
        start = time.perf_counter()
        try:
            return block(self, pc)
        finally:
            inside[2] += 1
            inside[3] += time.perf_counter() - start

    vm.Machine.run, vm._Code.block = timed_run, timed_block
    wl = ComputeLoop()
    items = wl.setup(seed).items
    per_item = [{figure: [] for figure in FIGURES} for _ in items]
    for rep in range(passes + 1):                 # the first pass warms up
        for i, item in enumerate(items):
            inside[:] = [0.0, 0, 0, 0.0]
            start = time.perf_counter()
            wl.run(item)
            session = time.perf_counter() - start
            if rep:
                for figure, value in zip(FIGURES, (inside[0] * 1e3, inside[1],
                                                   session * 1e3, inside[2],
                                                   inside[3] * 1e3)):
                    per_item[i][figure].append(value)
    return {str(kind): {figure: statistics.median(statistics.median(item[figure])
                                                  for item in per_item[kind::wl.period])
                        for figure in FIGURES}
            for kind in KINDS}


def report(seed: int, runs: dict[str, list[dict]]) -> None:
    by_kind = {
        kind: {side: {f"{key}_median": round(statistics.median(
            r[kind][key] for r in runs[side]), 4) for key in FIGURES}
            for side in runs}
        for kind in map(str, KINDS)}
    for kind in by_kind:
        print(f"{KINDS[int(kind)]:32}" + "".join(
            f"  {side}: run {ab.shown(rs, lambda r: r[kind]['run_ms'], 3)} ms"
            f" in {statistics.median(r[kind]['run_calls'] for r in rs):.2f} calls,"
            f" session {ab.shown(rs, lambda r: r[kind]['session_ms'], 3)} ms,"
            f" {statistics.median(r[kind]['blocks_built'] for r in rs):.2f} blocks in"
            f" {ab.shown(rs, lambda r: r[kind]['block_ms'], 3)} ms"
            for side, rs in runs.items()))
    print(json.dumps({"seed": seed, "by_kind": by_kind, "runs": runs}))


if __name__ == "__main__":
    sys.exit(ab.main(__file__, __doc__, measure, report))
