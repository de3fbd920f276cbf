"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps cfaudit
functions by the name their callers look up, in the owner's own namespace.
A function renamed, removed or moved off its owner breaks that run, so the
names are checked here, with the tests every change runs."""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_every_traced_name_is_in_its_owners_namespace():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
        import workloads  # noqa: F401  its imports of cfaudit names must resolve
    finally:
        sys.path.remove(PERFBENCH)
    originals = spans.snapshot_targets()
    assert len(originals) == len({(id(o), a) for _, _, o, a in spans.TARGETS})
    assert spans.targets_intact(originals)
