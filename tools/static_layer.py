"""Time the static layer of a session, a cold deployment per program, in
two checkouts side by side.

    python3 tools/static_layer.py PARENT CHANGE --seed 1 --pairs 5 --passes 5

Each run is one fresh process over one checkout's ``src`` and
``perfbench``: for the seeded ``compute_loop`` and ``dense_evidence``
pools it takes each distinct program once and times
``scenario.deploy.__wrapped__`` on it (parse, rewrite, lay out and build
the auditor's graph, with no cache in the way), once to warm up, then
``--passes`` times. Each program's median over the passes is taken, then
the median over the programs of each pool. Runs alternate between the
checkouts, the parent first in even pairs, and the medians over runs are
printed per pool.
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

POOLS = ("compute_loop", "dense_evidence")


def measure(seed: int, passes: int) -> dict:
    """{pool: {"deploy_us": median, "programs": count}} for the checkout on
    ``sys.path``."""
    from cfaudit import scenario
    from workloads import ComputeLoop, DenseEvidence

    deploy = scenario.deploy.__wrapped__
    out = {}
    for pool, wl in zip(POOLS, (ComputeLoop(), DenseEvidence())):
        texts = list(dict.fromkeys(item.spec.asm_text for item in wl.setup(seed).items))
        per_text = [[] for _ in texts]
        for rep in range(passes + 1):             # the first pass warms up
            for i, text in enumerate(texts):
                start = time.perf_counter()
                deploy(text)
                took = time.perf_counter() - start
                if rep:
                    per_text[i].append(took)
        out[pool] = {"deploy_us": statistics.median(statistics.median(t) for t in per_text)
                     * 1e6, "programs": len(texts)}
    return out


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
    by_pool = {pool: {side: round(statistics.median(r[pool]["deploy_us"] for r in runs[side]), 2)
                      for side in runs}
               for pool in POOLS}
    for pool, sides in by_pool.items():
        programs = runs["change"][0][pool]["programs"]
        print(f"{pool:16} {programs:4} programs  cold deploy: parent {sides['parent']:.1f} us,"
              f" change {sides['change']:.1f} us")
    print(json.dumps({"seed": args.seed, "deploy_us_median": by_pool, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
