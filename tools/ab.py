"""The A/B harness the layer tools share: one command line, fresh processes
over two checkouts in alternating pairs, and each side's spread.

A tool hands ``main`` its own path, a ``measure(seed, passes)`` that times
the checkout on ``sys.path`` and returns JSON-able figures, and a
``report(seed, runs)`` that prints them. Run with ``--measure`` the tool
prints ``measure``'s JSON; run with PARENT and CHANGE it starts itself
with ``--measure`` in one fresh process over each checkout's ``src`` and
``perfbench`` at a time, ``--pairs`` times each, the parent first in even
pairs, and hands ``report`` the runs of each side. ``shown`` prints a
timed figure as its median over a side's processes, with its minimum and
quartiles: wall time as measured, with no scaling for the host's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path

SIDES = ("parent", "change")


def run_side(script: Path, checkout: Path, seed: int, passes: int) -> dict:
    """One fresh process of ``script --measure`` over ``checkout``."""
    checkout = checkout.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), str(checkout / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, str(script), "--measure",
         "--seed", str(seed), "--passes", str(passes)],
        env=env, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {proc.stderr}")
    return json.loads(proc.stdout)


def spread(values) -> dict[str, float]:
    """The minimum, quartiles and median of one figure over a side's
    processes."""
    values = sorted(values)
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"min": values[0], "q1": q1, "median": median, "q3": q3}


def shown(runs: list[dict], figure: Callable[[dict], float], digits: int = 2) -> str:
    """``median [min, q1..q3]`` of the timed ``figure`` of a side's runs
    over its processes."""
    s = spread(figure(r) for r in runs)
    return (f"{s['median']:.{digits}f} [min {s['min']:.{digits}f},"
            f" q {s['q1']:.{digits}f}..{s['q3']:.{digits}f}]")


def main(script: str, doc: str, measure: Callable[[int, int], dict],
         report: Callable[[int, dict[str, list[dict]]], None], argv=None) -> int:
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
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
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_side(Path(script).resolve(), getattr(args, side),
                                       args.seed, args.passes))
    report(args.seed, runs)
    return 0
