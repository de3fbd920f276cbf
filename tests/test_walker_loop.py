"""The walker's hop loop at its exits, and the memory a walk holds.

``Walker.advance`` keeps its cursor in locals and hands it back to the
walker where the loop leaves: a pause for more evidence, a stop, a
violation, and around a loop record's copies.
Each case below feeds a log slice by slice to ``Walker`` and to
``support.ReferenceWalker``, which must agree after every slice on
``done``, ``pos``, the violation's kind and index, and the destinations
fed.
"""

import struct
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

import pytest

from cfaudit import cfa_engine
from cfaudit.cfa_engine import TAG_BIT, UNIT_PAIR, UNIT_SHIFT, UNIT_SINGLE, UNIT_STATIC
from cfaudit.instrument import instrument
from cfaudit.verifier import (BRANCH, COND, ICALL, RET, V_EDGE, V_MALFORMED,
                              Walker, _SHADOW_LIMIT, build_cfg)

import support
from support import (CountedHops, ReferenceWalker, oracle_destinations,
                     reference_decompress)

PROGRAM_DIR = Path(__file__).resolve().parent.parent / "scenarios" / "programs"


def pack(words):
    return b"".join(struct.pack(">I", w) for w in words)


def count_word(unit, count):
    return TAG_BIT | (unit << UNIT_SHIFT) | count


def device_words(asm, input_words):
    """The log words the instrumented program leaves, and its graph."""
    _, run, _ = oracle_destinations(asm, input_words)
    words = list(cfa_engine.iter_entries(run.log.to_bytes()))
    return words, build_cfg(instrument(asm)[0])


def whole_units(words, cut):
    """Whether cutting ``words`` at ``cut`` keeps every count record with
    the unit it repeats."""
    nxt = words[cut:cut + 2]
    return not (nxt and nxt[0] & TAG_BIT) and not (
        len(nxt) == 2 and nxt[1] & TAG_BIT
        and (nxt[1] >> UNIT_SHIFT) & 0b11 == UNIT_PAIR)


def outcome(w):
    v = w.violation
    return w.done, w.pos, None if v is None else (v.kind, v.index)


def walk_both(cfg, slices, after_slice=None):
    """Feed each slice's runs to the walker and its expansion to the
    reference walker; they must agree after every slice."""
    new, ref = Walker(cfg), ReferenceWalker(cfg)
    for n, words in enumerate(slices):
        data = pack(words)
        new.feed(cfa_engine.runs(data))
        ref.feed(reference_decompress(data))
        assert outcome(new) == outcome(ref), f"after slice {n}"
        assert new.fed == len(ref.stream), f"after slice {n}"
        if after_slice is not None:
            after_slice(n, new)
    return new


# --- the shadow stack limit, reached through a hop's pushes -----------------

# Each level of ``down`` logs its branch's fall-through arrival and makes a
# direct call, so LIMIT - 1 levels fill the shadow stack to the limit. The
# bottom then pushes once more on a hop that stops on a COND site, a
# return, an indirect call, or (with one level more) the branch itself.
OVERFLOW = """
main:
    mov r7, #input_base
    ldr r0, [r7, #0]
    cmp r0, #0
    beq cond_entry
    bl down
    nsc_call
down:
    push lr
    sub r0, r0, #1
    cmp r0, #0
    beq bottom
    bl down
    pop pc
bottom:
    {bottom}
    pop pc
cond_entry:
    bx lr
leaf:
    bx lr
caller:
    push lr
    mov r8, #leaf
    blx r8
    pop pc
"""

BOTTOMS = {"cond": ("bl cond_entry", COND), "ret": ("bl leaf", RET),
           "icall": ("bl caller", ICALL)}


def overflow_stream(cfg, levels):
    """Destinations that take ``down`` ``levels`` deep, then to bottom."""
    kind, _, (_, fall_in), _ = cfg.hop(cfg.prog.entry)
    assert kind == BRANCH
    kind, _, (taken, fall), pushes = cfg.hop(fall_in)
    assert kind == BRANCH and len(pushes) == 1
    return [fall_in] + [fall] * levels + [taken]


def overflow_feeds(dests):
    fall_in, fall, taken = dests[0], dests[1], dests[-1]
    n = len(dests) - 2
    compressed = [fall_in, fall, count_word(UNIT_SINGLE, n - 1), taken]
    return {
        "whole": [dests],
        "slices of 1000": [dests[i:i + 1000] for i in range(0, len(dests), 1000)],
        "count run": [compressed],
        # the count run ends a slice; the arrival that overflows is the
        # next slice's only word
        "count run, then plain": [compressed[:-1], compressed[-1:]],
        # the run is cut: part counted, the rest plain words
        "count run cut": [[fall_in, fall, count_word(UNIT_SINGLE, n - 11)],
                          [fall] * 10 + [taken]],
    }


@pytest.mark.parametrize("name", sorted(BOTTOMS))
def test_shadow_limit_reached_through_the_pushes_of_a_reading_hop(name):
    bottom, kind = BOTTOMS[name]
    cfg = build_cfg(instrument(OVERFLOW.format(bottom=bottom))[0])
    dests = overflow_stream(cfg, _SHADOW_LIMIT - 1)
    for what, slices in overflow_feeds(dests).items():
        w = walk_both(cfg, slices)
        assert outcome(w) == (False, _SHADOW_LIMIT + 1,
                              (V_MALFORMED, _SHADOW_LIMIT + 1)), what
        # the walk stopped at the start of the hop that would overflow
        hop_kind, _, _, pushes = cfg.hop(w.pc)
        assert hop_kind == kind and pushes, what
        assert len(w.shadow) == _SHADOW_LIMIT, what


def test_shadow_limit_reached_through_the_pushes_of_a_branch_hop():
    cfg = build_cfg(instrument(OVERFLOW.format(bottom="bl leaf"))[0])
    dests = overflow_stream(cfg, _SHADOW_LIMIT)
    for what, slices in overflow_feeds(dests).items():
        w = walk_both(cfg, slices)
        assert outcome(w) == (False, _SHADOW_LIMIT + 1,
                              (V_MALFORMED, _SHADOW_LIMIT + 1)), what
        assert cfg.hop(w.pc)[0] == BRANCH, what


def test_shadow_limit_reached_by_an_indirect_call_s_own_push():
    cfg = build_cfg(instrument(OVERFLOW.format(bottom="mov r8, #leaf\n    blx r8"))[0])
    dests = overflow_stream(cfg, _SHADOW_LIMIT - 1)
    leaf = cfg.prog.labels["leaf"]
    for what, slices in overflow_feeds(dests).items():
        slices[-1] = slices[-1] + [leaf]
        w = walk_both(cfg, slices)
        # the call's target is consumed, then its return address is refused
        assert outcome(w) == (False, _SHADOW_LIMIT + 2,
                              (V_MALFORMED, _SHADOW_LIMIT + 2)), what


# --- runs cut by a slice -------------------------------------------------------

RECURSE = """
main:
    mov r7, #input_base
    ldr r0, [r7, #0]
    bl down
    nsc_call
down:
    push lr
    cmp r0, #0
    beq bottom
    sub r0, r0, #1
    bl down
bottom:
    pop pc
"""

COUNTDOWN = """
main:
    mov r7, #input_base
    ldr r6, [r7, #0]
spin:
    add r0, r0, #1
    sub r6, r6, #1
    cmp r6, #0
    bgt spin
    nsc_call
"""


def test_a_pair_run_cut_by_a_slice_is_walked_into_the_plain_words_after_it():
    # the unwinding of a recursion logs one (return, arrival) pair per
    # level: the device writes it as a pair count record, which the walker
    # reads a repetition at a time, since the stack moves
    words, cfg = device_words(RECURSE, [12])
    rec = next(i for i, w in enumerate(words) if w & TAG_BIT)
    assert (words[rec] >> UNIT_SHIFT) & 0b11 == UNIT_PAIR
    count = words[rec] & cfa_engine.COUNT_MASK
    pair = words[rec - 2:rec]
    for kept in range(count + 1):
        head = words[:rec] + ([count_word(UNIT_PAIR, kept)] if kept else [])
        tail = pair * (count - kept) + words[rec + 1:]
        for cut in range(len(head) - 2, len(head) + 2 * (count - kept) + 1):
            stream = head + tail
            if not whole_units(stream, cut):
                continue
            w = walk_both(cfg, [stream[:cut], stream[cut:]])
            assert w.done and w.violation is None


def test_a_single_run_cut_by_a_slice_is_skipped_then_walked_plain():
    # a dynamic loop's repetitions are skipped once the walk is back where
    # one of them began; the ones the next slice carries as plain words are
    # walked
    words, cfg = device_words(COUNTDOWN, [40])
    rec = next(i for i, w in enumerate(words) if w & TAG_BIT)
    unit = words[rec - 1]
    count = words[rec] & cfa_engine.COUNT_MASK
    for kept in (1, 2, count // 2, count - 1):
        first = words[:rec] + [count_word(UNIT_SINGLE, kept)]
        second = [unit] * (count - kept) + words[rec + 1:]
        w = walk_both(cfg, [first, second])
        assert w.done and w.violation is None
        w = walk_both(cfg, [first] + [[d] for d in second])
        assert w.done and w.violation is None


# --- a loop record among plain runs -------------------------------------------

# a counted loop, arrivals on either side of it, then a dynamic loop
LOOP_AMID = """
main:
    mov r7, #input_base
    ldr r5, [r7, #0]
    mov r2, #0
loop:
    add r0, r0, #1
    add r2, r2, #1
    cmp r2, #4
    bne loop
    cmp r5, #0
    beq skip
    add r1, r1, #1
skip:
    cmp r5, #1
    beq spin
    add r1, r1, #1
spin:
    sub r5, r5, #1
    cmp r5, #0
    bgt spin
    nsc_call
"""


def test_a_loop_record_between_plain_runs_at_every_cut():
    words, cfg = device_words(LOOP_AMID, [9])
    static = next(i for i, w in enumerate(words) if w & TAG_BIT)
    assert (words[static] >> UNIT_SHIFT) & 0b11 == UNIT_STATIC
    header, limit = words[static - 1], words[static] & cfa_engine.COUNT_MASK
    raw = words[:static - 1] + [header] * (limit - 1) + words[static + 1:]
    for stream in (words, raw):
        for cut in range(len(stream) + 1):
            if not whole_units(stream, cut):
                continue
            w = walk_both(cfg, [stream[:cut], stream[cut:]])
            assert w.done and w.violation is None
    # a word a slice, each count record with the word before it
    drip = []
    for x in raw:
        if x & TAG_BIT:
            drip[-1].append(x)
        else:
            drip.append([x])
    w = walk_both(cfg, drip)
    assert w.done and w.violation is None


class CountedWords(Sequence):
    """A unit that counts the words read from it, and fails once more than
    ``budget`` are read."""

    def __init__(self, words, budget):
        self.words, self.budget, self.reads = list(words), budget, 0

    def __len__(self):
        return len(self.words)

    def __getitem__(self, i):
        got = self.words[i]
        self.reads += len(got) if isinstance(i, slice) else 1
        assert self.reads <= self.budget, "the walk reads the unit more than linearly"
        return got


COUNTED = """
main:
    mov r1, #0
loop:
    add r1, r1, #1
    cmp r1, #12000
    blt loop
    mov r9, r1
    nsc_call
"""


@pytest.mark.parametrize("bad", [None, 0, 6000, 11998], ids=lambda b: f"bad {b}")
def test_a_loop_record_s_copies_in_one_plain_slice_are_read_once(bad):
    # a device may send a counted loop's copies as plain words, so one
    # slice's unit holds them all: each copy is read once, not the whole
    # unit once per copy
    _, _, dests = oracle_destinations(COUNTED)
    assert len(dests) == 12_001
    if bad is not None:
        dests[bad] = dests[-1]
    unit = CountedWords(dests, budget=2 * len(dests))
    cfg = build_cfg(instrument(COUNTED)[0])
    w, ref = Walker(cfg), ReferenceWalker(cfg)
    w.feed([(unit, 1)])
    ref.feed(dests)
    assert outcome(w) == outcome(ref)
    if bad is None:
        assert w.done and w.violation is None and w.pos == len(dests)
    else:
        assert (w.violation.kind, w.violation.index) == (V_EDGE, bad)


def test_a_loop_record_after_a_run_walked_a_repetition_at_a_time():
    # the unwinding's pair run is walked a repetition at a time, each read
    # at a new offset into it; the loop record after it, of one copy, is a
    # run of its own read from its start
    asm = RECURSE.replace("    bl down\n    nsc_call\n", """    bl down
    mov r2, #0
loop:
    add r1, r1, #1
    add r2, r2, #1
    cmp r2, #2
    bne loop
    nsc_call
""")
    words, cfg = device_words(asm, [7])
    kinds = [(w >> UNIT_SHIFT) & 0b11 for w in words if w & TAG_BIT]
    assert kinds == [UNIT_PAIR, UNIT_STATIC]
    for cut in range(len(words) + 1):
        if not whole_units(words, cut):
            continue
        w = walk_both(cfg, [words[:cut], words[cut:]])
        assert w.done and w.violation is None


def test_a_loop_record_pauses_until_all_its_copies_arrive():
    words, cfg = device_words(LOOP_AMID, [9])
    static = next(i for i, w in enumerate(words) if w & TAG_BIT)
    header, limit = words[static - 1], words[static] & cfa_engine.COUNT_MASK
    copies = [header] * (limit - 1)
    paused = []

    def check(n, w):
        if n < len(copies) - 1:
            # nothing of the record is consumed until all of it is there
            assert w.pos == 0 and w.fed == n + 1
            paused.append(n)

    w = walk_both(cfg, [[c] for c in copies] + [words[static + 1:]], check)
    assert w.done and w.violation is None
    assert paused == list(range(len(copies) - 1))


def test_plain_runs_between_a_loop_record_and_a_count_run_are_walked():
    # the loop record's run of copies is consumed at once; the arrivals
    # after it are plain runs, each too short to anchor in, and the
    # dynamic loop's count run comes in a slice of its own
    words, cfg = device_words(LOOP_AMID, [9])
    static = next(i for i, w in enumerate(words) if w & TAG_BIT)
    rec = next(i for i, w in enumerate(words) if w & TAG_BIT and i > static)
    slices = [words[:static + 2], words[static + 2:rec - 1], words[rec - 1:]]
    w = walk_both(cfg, slices)
    assert w.done and w.violation is None


# --- a branch refusing a slice's first word ------------------------------------

def test_a_branch_refuses_the_first_word_of_a_slice_with_nothing_consumed():
    asm2, _ = instrument((PROGRAM_DIR / "window_dense.asm").read_text())
    run = support.run_instrumented(asm2)
    cfg = build_cfg(asm2)
    dests = reference_decompress(run.log.to_bytes())
    probe = Walker(cfg)
    cuts = []
    for p in range(60):
        if cfg.hop(probe.pc)[0] == BRANCH:
            cuts.append(p)
        probe.feed([((dests[p],), 1)])
    assert len(cuts) >= 5
    for p in cuts:
        bad = cfg.prog.entry
        assert bad not in cfg.hop(walk_both(cfg, [dests[:p]]).pc)[2]
        w = walk_both(cfg, [dests[:p], [bad] + dests[p + 1:p + 4]])
        assert outcome(w) == (False, p, (V_EDGE, p))
        assert w.fed == p + 4


# --- memory ----------------------------------------------------------------------

def test_a_long_benign_walk_holds_no_memory_per_destination():
    asm2, _ = instrument((PROGRAM_DIR / "window_dense.asm").read_text())
    run = support.run_instrumented(asm2)
    dests = reference_decompress(run.log.to_bytes())
    cfg = build_cfg(asm2)
    w = Walker(cfg)
    w.feed(cfa_engine.runs(run.log.to_bytes()))     # fills the hop memo
    assert w.done and w.violation is None
    cuts = [len(dests) * k // 500 for k in range(501)]
    slices = [pack(dests[a:b]) for a, b in zip(cuts, cuts[1:])]
    w = Walker(cfg)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for data in slices:
            w.feed(cfa_engine.runs(data))
            assert not w.runs
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.done and w.violation is None and w.pos == len(dests)
    assert after - before < 64 * 1024


# --- steps -----------------------------------------------------------------------

def test_a_hop_is_counted_once_however_the_log_is_sliced():
    # a walk paused for the next slice takes its hop again when the slice
    # arrives; the hop counts once, on the walk that reads
    asm2, _ = instrument((PROGRAM_DIR / "window_dense.asm").read_text())
    run = support.run_instrumented(asm2)
    dests = reference_decompress(run.log.to_bytes())
    cfg = build_cfg(asm2)
    steps = {}
    for parts in (1, 2, 500):
        cuts = [len(dests) * k // parts for k in range(parts + 1)]
        w = Walker(cfg)
        for a, b in zip(cuts, cuts[1:]):
            w.feed(cfa_engine.runs(pack(dests[a:b])))
        assert w.done and w.violation is None
        steps[parts] = w.steps
    assert steps[1] == steps[2] == steps[500] == len(dests)


def test_a_periodic_plain_slice_is_walked_once_per_period():
    # window_dense's stream repeats with a short period: after one period
    # the walk is back at its anchor with the same stack, and the repeats
    # are consumed whole; the hops they stand for still count
    asm2, _ = instrument((PROGRAM_DIR / "window_dense.asm").read_text())
    run = support.run_instrumented(asm2)
    dests = reference_decompress(run.log.to_bytes())
    cfg = build_cfg(asm2)
    cfg.hops = CountedHops()
    w = Walker(cfg)
    w.feed(cfa_engine.runs(pack(dests)))
    assert w.done and w.violation is None and w.pos == len(dests)
    assert w.steps == len(dests)
    assert cfg.hops.lookups < len(dests) / 4
