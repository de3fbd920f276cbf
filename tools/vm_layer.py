"""Time the VM layer of a ``compute_loop`` session, by program kind, in
two checkouts side by side.

    python3 tools/vm_layer.py PARENT CHANGE --seed 1 --pairs 5 --passes 5

Each run is one fresh process over one checkout's ``src`` and
``perfbench``: it builds the seeded ``compute_loop`` pool, runs it once to
warm up, then ``--passes`` times, timing each session, the time spent
inside ``Machine.run`` (which includes the gateway service it calls), and
the blocks ``_Code.block`` builds and the time spent building them. The
pool holds more programs than the image cache, so every session builds
its blocks cold. Each pool item's median over the passes is taken, then
the median over the items of each kind. Runs alternate between the
checkouts, the parent first in even pairs, and the medians over runs are
printed per kind.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

KINDS = {0: "pair_loop", 1: "counted_loop, immediate limit", 2: "countdown_loop",
         3: "counted_loop, register limit"}


FIGURES = ("run_ms", "session_ms", "blocks_built", "block_ms")


def measure(seed: int, passes: int) -> dict:
    """{kind: {figure: median}} for the checkout on ``sys.path``, with the
    figures of ``FIGURES``, each per session."""
    from cfaudit import vm
    from workloads import ComputeLoop

    # seconds inside Machine.run, blocks built, seconds inside _Code.block
    inside = [0.0, 0, 0.0]
    run, block = vm.Machine.run, vm._Code.block

    def timed_run(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return run(self, *args, **kwargs)
        finally:
            inside[0] += time.perf_counter() - start

    def timed_block(self, pc):
        start = time.perf_counter()
        try:
            return block(self, pc)
        finally:
            inside[1] += 1
            inside[2] += time.perf_counter() - start

    vm.Machine.run, vm._Code.block = timed_run, timed_block
    wl = ComputeLoop()
    items = wl.setup(seed).items
    per_item = [{figure: [] for figure in FIGURES} for _ in items]
    for rep in range(passes + 1):                 # the first pass warms up
        for i, item in enumerate(items):
            inside[:] = [0.0, 0, 0.0]
            start = time.perf_counter()
            wl.run(item)
            session = time.perf_counter() - start
            if rep:
                for figure, value in zip(FIGURES, (inside[0] * 1e3, session * 1e3,
                                                   inside[1], inside[2] * 1e3)):
                    per_item[i][figure].append(value)
    return {str(kind): {figure: statistics.median(statistics.median(item[figure])
                                                  for item in per_item[kind::wl.period])
                        for figure in FIGURES}
            for kind in KINDS}


def run_side(checkout: Path, seed: int, passes: int) -> dict:
    checkout = checkout.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), str(checkout / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure",
         "--seed", str(seed), "--passes", str(passes)],
        env=env, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--measure", action="store_true",
                        help="time the checkout on sys.path and print JSON")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.seed, args.passes)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("give the PARENT and CHANGE checkouts")
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(getattr(args, side), args.seed, args.passes))
    by_kind = {
        kind: {side: {f"{key}_median": round(statistics.median(
            r[kind][key] for r in runs[side]), 4) for key in FIGURES}
            for side in runs}
        for kind in map(str, KINDS)}
    for kind, sides in by_kind.items():
        print(f"{KINDS[int(kind)]:32}" + "".join(
            f"  {side}: run {v['run_ms_median']:.3f} ms, session {v['session_ms_median']:.3f}"
            f" ms, {v['blocks_built_median']:.2f} blocks in {v['block_ms_median']:.3f} ms"
            for side, v in sides.items()))
    print(json.dumps({"seed": args.seed, "by_kind": by_kind, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
