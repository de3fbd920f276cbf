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
checkouts, the parent first in even pairs (``ab.py``), and each side's
median over runs is printed per pool, with its minimum and quartiles.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import ab

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


def report(seed: int, runs: dict[str, list[dict]]) -> None:
    by_pool = {pool: {side: round(statistics.median(r[pool]["deploy_us"] for r in runs[side]), 2)
                      for side in runs}
               for pool in POOLS}
    for pool in POOLS:
        programs = runs["change"][0][pool]["programs"]
        print(f"{pool:16} {programs:4} programs  cold deploy (us):" + "".join(
            f"  {side} {ab.shown(runs[side], lambda r: r[pool]['deploy_us'], 1)}"
            for side in runs))
    print(json.dumps({"seed": seed, "deploy_us_median": by_pool, "runs": runs}))


if __name__ == "__main__":
    sys.exit(ab.main(__file__, __doc__, measure, report))
