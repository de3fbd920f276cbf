"""Compare the deterministic counters of two checkouts.

    python3 tools/counters.py PARENT CHANGE [--seeds 1 104729]

For each workload that ``BENCHMARK.json`` names and each seed, it runs
``python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0``
in one fresh process in each checkout, reads the ``{"counters": ...}``
line that comes before the result and prints, per workload and seed,
either "identical" or the counters that differ, with both values. The
number of sessions is left out: it counts the sessions a timed window
ran. The exit status is 1 on any difference, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def counters(checkout: Path, workload: str, seed: int) -> dict:
    """The deterministic counters of one run of ``workload`` at ``seed``
    in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: {workload} at seed {seed} failed:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("{") and '"counters"' in line:
            return json.loads(line)["counters"]
    raise SystemExit(f"{checkout}: {workload} at seed {seed} printed no counters")


def differences(parent: dict, change: dict) -> list[str]:
    """Each counter whose value differs, or that one side lacks."""
    return [f"{key}: {parent.get(key, 'absent')} -> {change.get(key, 'absent')}"
            for key in sorted(parent.keys() | change.keys())
            if parent.get(key) != change.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 104729])
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    differ = False
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in args.seeds:
            diff = differences(counters(args.parent.resolve(), workload, seed),
                               counters(args.change.resolve(), workload, seed))
            differ |= bool(diff)
            print(f"{workload} seed {seed}: " + ("; ".join(diff) if diff else "identical"),
                  flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
