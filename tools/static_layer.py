"""Time the static layer of a session, a cold deployment per program, and
the sessions that pay it, in two checkouts side by side.

    python3 tools/static_layer.py PARENT CHANGE --seed 1 --pairs 5 --passes 5

Each run is one fresh process over one checkout's ``src`` and
``perfbench``. For the seeded ``compute_loop`` and ``dense_evidence``
pools it takes each distinct program once and times
``scenario.deploy.__wrapped__`` on it (parse, rewrite, lay out and build
the auditor's graph, with no cache in the way), once to warm up, then
``--passes`` times. It then times each pool item's session three ways,
with ``scenario.deploy`` standing in for the cache:

- cold: the session builds its program's deployment;
- fresh code: the deployment is built beforehand but never run, so the
  session still builds its VM closures and blocks and traces its hops;
- warm: the deployment has run the same item before.

Each program's or item's median over the passes is taken, then the
median over the programs or items of each pool. Runs alternate between
the checkouts, the parent first in even pairs (``ab.py``), and each
side's median over runs is printed per pool, with its minimum and
quartiles.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import ab

POOLS = ("compute_loop", "dense_evidence")
SESSIONS = ("cold", "fresh_code", "warm")


def measure(seed: int, passes: int) -> dict:
    """{pool: {"deploy_us": median, "programs": count, "session_us": {regime:
    median}}} for the checkout on ``sys.path``."""
    from cfaudit import scenario
    from workloads import ComputeLoop, DenseEvidence

    build, cached = scenario.deploy.__wrapped__, scenario.deploy
    out = {}
    try:
        for pool, wl in zip(POOLS, (ComputeLoop(), DenseEvidence())):
            items = wl.setup(seed).items
            texts = list(dict.fromkeys(item.spec.asm_text for item in items))
            out[pool] = {"deploy_us": _median_us(texts, build, passes),
                         "programs": len(texts), "session_us": {}}
            warm: dict = {}
            for regime in SESSIONS:
                def session(item, regime=regime):
                    text = item.spec.asm_text
                    if regime == "cold":
                        scenario.deploy = build
                    else:
                        dep = warm.get(text) if regime == "warm" else None
                        if dep is None:
                            dep = warm[text] = build(text)
                        scenario.deploy = lambda _: dep
                    start = time.perf_counter()
                    wl.run(item)
                    return time.perf_counter() - start
                out[pool]["session_us"][regime] = _median_us(items, session, passes, True)
    finally:
        scenario.deploy = cached
    return out


def _median_us(args: list, fn, passes: int, times_itself: bool = False) -> float:
    """The median over ``args`` of each one's median over ``passes`` timings
    of ``fn(arg)``, after one pass to warm up, in microseconds; a ``fn``
    that ``times_itself`` returns its own seconds."""
    per_arg = [[] for _ in args]
    for rep in range(passes + 1):                 # the first pass warms up
        for i, arg in enumerate(args):
            if times_itself:
                took = fn(arg)
            else:
                start = time.perf_counter()
                fn(arg)
                took = time.perf_counter() - start
            if rep:
                per_arg[i].append(took)
    return statistics.median(statistics.median(t) for t in per_arg) * 1e6


def report(seed: int, runs: dict[str, list[dict]]) -> None:
    figures = {pool: _figures(pool) for pool in POOLS}
    medians = {pool: {side: {name: round(statistics.median(map(fig, runs[side])), 2)
                             for name, fig in figures[pool].items()}
                      for side in runs}
               for pool in POOLS}
    for pool in POOLS:
        print(f"{pool:16} {runs['change'][0][pool]['programs']:4} programs")
        for name, fig in figures[pool].items():
            print(f"  {name + ' (us)':22}" + "".join(
                f"  {side} {ab.shown(runs[side], fig, 1)}" for side in runs))
    print(json.dumps({"seed": seed, "medians": medians, "runs": runs}))


def _figures(pool: str) -> dict:
    """Each timed figure of a pool, by name: how to read it from a run."""
    out = {"cold deploy": lambda r: r[pool]["deploy_us"]}
    for regime in SESSIONS:
        out[f"{regime} session"] = lambda r, regime=regime: r[pool]["session_us"][regime]
    return out


if __name__ == "__main__":
    sys.exit(ab.main(__file__, __doc__, measure, report))
