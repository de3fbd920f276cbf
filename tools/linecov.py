"""Line coverage of ``src/cfaudit``, with the standard library alone: no
coverage package is needed.

    python3 tools/linecov.py [PYTEST ARGS ...]     # e.g. tests -q -p no:cacheprovider
    python3 tools/linecov.py --workloads SEED      # e.g. --workloads 1

The first form runs pytest in this process. The second runs, in place of
pytest, the set-up and one pool pass of each perfbench workload at SEED,
through ``perfbench/run.py``'s own ``workloads`` and ``run_sessions``, so
it shows which lines the benchmark's traffic never runs. Either runs under
a ``sys.settrace`` collector that traces only frames of code in
``src/cfaudit``. It is set before anything imports the package, so
module-level lines count when they run at import. Then, for each module,
it prints the lines that carry compiled code (the ``co_lines`` of the
module's code and of every code object in it) and never ran, as ranges. A
line is counted once, however many statements or parts of one it holds,
so a short-circuited operand on a line of its own shows as unrun. The exit
status is pytest's, or 0 after the workloads.

Tracing slows the suite several times over (tier-1 took 160 to 250 s
against 34 to 36 s untraced on a shared VM), so the report is opt-in and
is no part of tier-1.
"""

from __future__ import annotations

import functools
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cfaudit"


def code_lines(path: Path) -> set[int]:
    """The lines of ``path`` that carry compiled code."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(k for k in code.co_consts if isinstance(k, types.CodeType))
    return lines


def collect(body) -> tuple[int, dict[str, set[int]]]:
    """Call ``body`` under the collector: its exit status, and the lines
    run, by file."""
    prefix = str(PACKAGE) + "/"
    run: dict[str, set[int]] = {}

    def traced(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None                   # no line events for other code
        lines = run.setdefault(frame.f_code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(SRC))
    threading.settrace(traced)
    sys.settrace(traced)
    try:
        status = body()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), run


def workloads_pass(seed: int) -> int:
    """Set up each perfbench workload at ``seed`` and run one pass of its pool."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as bench

    for wl in bench.workloads().values():
        bench.run_sessions(wl, wl.setup(seed), wl.pool_size)
    return 0


def ranges(lines: list[int]) -> str:
    """``lines``, sorted, as comma-separated runs of consecutive numbers."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def report(run: dict[str, set[int]]) -> None:
    total = unrun_total = 0
    print("\nlines of src/cfaudit that carry code and never ran:")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path)
        unrun = sorted(lines - run.get(str(path), set()))
        total, unrun_total = total + len(lines), unrun_total + len(unrun)
        print(f"{path.name:15} {len(unrun):4} of {len(lines):4}"
              + (f": {ranges(unrun)}" if unrun else ""))
    print(f"{'total':15} {unrun_total:4} of {total:4}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--workloads"] and len(argv) == 2:
        body = functools.partial(workloads_pass, int(argv[1]))
    else:
        import pytest
        body = functools.partial(pytest.main, argv)
    status, run = collect(body)
    report(run)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
