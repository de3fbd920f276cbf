"""Span tracer for the traced run.

The tracer wraps the public functions of each ``cfaudit`` module at the
name their callers look up, records one span per call (name, start, end,
parent span, session), and derives each function's self time as its
duration minus the time its wrapped children took. Wrappers exist only
inside ``Tracer.installed()``; leaving the block puts every original
attribute back, so the untraced run measures unpatched code.
"""

from __future__ import annotations

import contextlib
import time
import weakref
from array import array
from collections import Counter

from cfaudit import (cfa_engine, channel, isa, resolver, scenario, supervisor,
                     verifier, vm, wire)

SESSION = "session"

# (span name, layer, owner, attribute). A function bound into another
# module's namespace is wrapped there, because that is the name its callers
# look up at call time.
TARGETS = [
    ("Machine.step", "vm", vm.Machine, "step"),
    ("Machine.hash_pmem", "vm", vm.Machine, "hash_pmem"),
    ("service_gateway", "supervisor", supervisor, "service_gateway"),
    ("Prover.step", "supervisor", supervisor.Prover, "step"),
    ("CfLog.append", "cfa_engine", cfa_engine.CfLog, "append"),
    ("CfLog.checkpoint", "cfa_engine", cfa_engine.CfLog, "checkpoint"),
    ("decompress", "cfa_engine", verifier, "decompress"),
    ("decompress", "cfa_engine", scenario, "decompress"),
    ("report_sigma", "wire", wire, "report_sigma"),
    ("Channel.poll", "channel", channel.Channel, "poll"),
    ("Channel.send", "channel", channel.Channel, "send"),
    ("Walker.feed", "verifier", verifier.Walker, "feed"),
    ("Verifier.handle", "verifier", verifier.Verifier, "handle"),
    ("Resolver.step", "resolver", resolver.Resolver, "step"),
    ("instrument", "instrument", scenario, "instrument"),
    ("assemble", "isa", isa, "assemble"),
    ("build_cfg", "verifier", verifier, "build_cfg"),
    ("scenario.run", "scenario", scenario, "run"),
]

LAYER_OF = {name: layer for name, layer, _, _ in TARGETS}
LAYER_OF[SESSION] = "bench"
NAMES = [SESSION] + list(dict.fromkeys(name for name, _, _, _ in TARGETS))

_GATEWAY_KIND = {isa.TRAMP_COND: "cond", isa.TRAMP_RET: "ret",
                 isa.TRAMP_ICALL: "icall", isa.TRAMP_LOOP: "loop",
                 isa.NSC_EXIT: "exit"}


@contextlib.contextmanager
def patched(owner, attr: str, replacement):
    """Set ``owner.attr`` for the duration of the block, then restore it."""
    original = owner.__dict__[attr]
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Spans and per-name aggregates for one traced run.

    Only the first ``keep`` spans are stored; the aggregates cover every
    span. Times are ``perf_counter_ns`` values.
    """

    def __init__(self, keep: int = 200_000, outside_ns: int | None = None):
        self.names = NAMES
        self.index = {name: i for i, name in enumerate(NAMES)}
        n = len(NAMES)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.leaf_calls = [0] * n          # calls that made no wrapped call
        self.counts: Counter = Counter()  # observations of arguments and results
        self.keep = keep
        self.span_name = array("B")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_session = array("q")
        self.span_aside = array("q")
        self.span_id = array("q")
        self.session = -1
        self._stack: list[list[int]] = []  # [name index, span id, child ns, children]
        self._next_id = 0
        self._walk_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.outside_ns = calibrate() if outside_ns is None else outside_ns

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        """``fn`` wrapped so each call records one span named ``name``.
        ``observe(args, result)`` runs after the span closes; its time is
        kept out of every span's self time."""
        idx = self.index[name]
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close

        def wrapper(*args, **kwargs):
            frame = [idx, self._next_id, 0, 0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                close(frame, start, end, 0)
                raise
            end = clock()
            stack.pop()
            if observe is None:
                close(frame, start, end, 0)
            else:
                observe(args, result)
                close(frame, start, end, clock() - end)
            return result

        return wrapper

    def _close(self, frame: list[int], start: int, end: int, aside: int) -> None:
        """Account a finished span. Its parent is charged the span, the
        wrapper's own cost outside the span, and ``aside`` (observer time)
        as child time, so the parent's self time is its own work."""
        idx, sid, child_ns, children = frame
        dur = end - start
        self.calls[idx] += 1
        self.self_ns[idx] += dur - child_ns
        if not children:
            self.leaf_calls[idx] += 1
        parent = -1
        if self._stack:
            up = self._stack[-1]
            up[2] += dur + self.outside_ns + aside
            up[3] += 1
            parent = up[1]
        if len(self.span_id) < self.keep:
            self.span_id.append(sid)
            self.span_name.append(idx)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent)
            self.span_session.append(self.session)
            self.span_aside.append(aside)

    def write(self, path) -> None:
        """Stored spans as tab-separated rows. A span's self time is
        end - start minus, for each child, the child's end - start + aside
        + the wrapper cost named in the first line."""
        with open(path, "w") as fh:
            fh.write(f"# wrapper_cost_ns={self.outside_ns}\n"
                     "id\tname\tstart_ns\tend_ns\tparent\tsession\taside_ns\n")
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{NAMES[self.span_name[i]]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\t"
                         f"{self.span_parent[i]}\t{self.span_session[i]}\t"
                         f"{self.span_aside[i]}\n")

    # -- observations -----------------------------------------------------

    def _on_step(self, args, ev) -> None:
        if type(ev) is vm.NscEntry:
            self.counts["gateway." + _GATEWAY_KIND[ev.addr]] += 1

    def _on_poll(self, args, out) -> None:
        if out:
            self.counts["poll_useful"] += 1

    def _on_sigma(self, args, sigma) -> None:
        digest, log = args[1], args[2]
        self.counts["mac_bytes"] += len(digest) + 4 + len(log) + wire.CHAL_WIDTH
        if self._stack and NAMES[self._stack[-1][0]] == "Verifier.handle":
            self.counts["auth_macs"] += 1

    def _on_decompress(self, args, out) -> None:
        self.counts["decompress_max_entries"] = max(
            self.counts["decompress_max_entries"], len(out))

    def _on_feed(self, args, result) -> None:
        walker = args[0]
        self.counts["walk_steps"] += walker.steps - self._walk_seen.get(walker, 0)
        self._walk_seen[walker] = walker.steps

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        observers = {"Machine.step": self._on_step, "Channel.poll": self._on_poll,
                     "report_sigma": self._on_sigma, "decompress": self._on_decompress,
                     "Walker.feed": self._on_feed}
        with contextlib.ExitStack() as stack:
            for name, _, owner, attr in TARGETS:
                fn = owner.__dict__[attr]
                stack.enter_context(
                    patched(owner, attr, self.span(name, fn, observers.get(name))))
            yield self

    @contextlib.contextmanager
    def session_span(self, session: int):
        """Root span around one session; its self time is the session's
        work outside every wrapped function."""
        self.session = session
        frame = [self.index[SESSION], self._next_id, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._close(frame, start, end, 0)

    # -- derived figures ----------------------------------------------------

    def self_ms(self, name: str) -> float:
        return self.self_ns[self.index[name]] / 1e6

    def layer_self_ns(self) -> dict[str, int]:
        out: Counter = Counter()
        for name, ns in zip(NAMES, self.self_ns):
            out[LAYER_OF[name]] += ns
        return dict(out)


def targets_intact(originals: dict) -> bool:
    """True when every wrapped attribute is the object recorded before."""
    return all(owner.__dict__[attr] is originals[(id(owner), attr)]
               for _, _, owner, attr in TARGETS)


def snapshot_targets() -> dict:
    return {(id(owner), attr): owner.__dict__[attr] for _, _, owner, attr in TARGETS}


def calibrate(rounds: int = 21, batch: int = 1000) -> int:
    """Nanoseconds one wrapped call costs its caller beyond the call itself:
    the smallest estimate over a few batches of calls to a no-op."""
    def noop():
        return None

    probe = Tracer(keep=0, outside_ns=0)
    wrapped = probe.span(SESSION, noop)
    clock = time.perf_counter_ns
    best = None
    for _ in range(rounds):
        start = clock()
        for _ in range(batch):
            noop()
        plain = clock() - start
        inside = probe.self_ns[0]
        start = clock()
        for _ in range(batch):
            wrapped()
        traced = clock() - start
        inside = probe.self_ns[0] - inside
        est = max(0, (traced - plain - inside) // batch)
        best = est if best is None else min(best, est)
    return best
