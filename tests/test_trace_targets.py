"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps cfaudit
functions by the name their callers look up, in the owner's own namespace.
A function renamed, removed or moved off its owner breaks that run, so the
names are checked here, with the tests every change runs."""

import sys
from pathlib import Path

from cfaudit import scenario

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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


def traced_benign_pulse():
    """The tracer after one ``benign_pulse`` session run under it."""
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    tracer = spans.Tracer(outside_ns=0)
    with tracer.installed():
        scenario.run(scenario.parse_scenario(SCENARIOS / "benign_pulse.scn"))
    return tracer


def test_a_traced_session_reaches_the_bound_gateway_service():
    """A prover binds ``service_gateway`` to its log when it is built,
    looking the name up then. ``scenario.run`` builds its provers inside
    the traced call, so a session run under the tracer goes through the
    wrapper: the traced run's gateway figures come from there."""
    tracer = traced_benign_pulse()
    # every logged transfer of the session: 22 arrivals, the exit door aside
    assert tracer.calls[tracer.index["service_gateway"]] == 22


def test_a_traced_session_reaches_the_wrapped_report_sigma():
    """Both ends reach the evidence MAC through ``wire.report_sigma``, the
    name the tracer wraps, so the traced run's ``wire.sigma_calls``,
    ``wire.mac_bytes`` and ``auth_macs_per_report`` count every one. A MAC
    inlined past that name would leave them reading short, not fail."""
    tracer = traced_benign_pulse()
    # one slice: signed by the device, authenticated by the verifier
    assert tracer.calls[tracer.index["report_sigma"]] == 2
    assert tracer.counts["auth_macs"] == 1
    assert tracer.counts["mac_bytes"] == 384
