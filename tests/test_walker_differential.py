"""The run walker against the per-destination reference walker.

Each log is fed to ``Walker`` as ``cfa_engine.runs`` slices and to
``support.ReferenceWalker`` as expanded slices. After every slice both must
agree on ``done``, ``pos``, the violation's kind and index, and the number
of destinations seen. Logs come from generated programs, recursive programs
and the bundled scenarios' audited reports. Each is fed whole, cut at
random word boundaries, re-encoded with one address word per destination,
re-encoded with every repetition compressed, and with seeded mutations.
"""

import random
import struct
from pathlib import Path
from unittest import mock

import pytest

from cfaudit import cfa_engine, isa, scenario
from cfaudit.cfa_engine import (COUNT_MASK, TAG_BIT, UNIT_MASK, UNIT_PAIR,
                                UNIT_SHIFT, UNIT_SINGLE, UNIT_STATIC, MalformedLog)
from cfaudit.instrument import instrument
from cfaudit.verifier import Walker, build_cfg

from support import (ReferenceWalker, generate_program, oracle_destinations,
                     reference_decompress)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
PROGRAM_SEEDS = range(120)
MUTATIONS = 8

# Recursion: the same unit repeats while the shadow stack grows or shrinks,
# so pc alone must not license a skip.
RECURSE_CALL = """
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

RECURSE_ICALL = """
main:
    mov r7, #input_base
    ldr r0, [r7, #0]
    mov r8, #down
    blx r8
    nsc_call
down:
    push lr
    cmp r0, #0
    beq out
    sub r0, r0, #1
    mov r8, #down
    blx r8
out:
    pop pc
"""

# A counted loop inside a dynamic one: a loop site inside a repetition.
NESTED_LOOPS = """
main:
    mov r7, #input_base
    ldr r5, [r7, #0]
outer:
    mov r6, #0
inner:
    add r0, r0, #1
    add r6, r6, #1
    cmp r6, #3
    bne inner
    bl leaf
    sub r5, r5, #1
    cmp r5, #0
    bgt outer
    nsc_call
leaf:
    add r1, r1, #1
    bx lr
"""

# the app ends by jumping to the exit door from a called function, on one
# arm of a conditional (D21)
EXIT_JUMP = """main:
    mov r7, #input_base
    ldr r1, [r7, #0]
    bl check
    nsc_call
check:
    cmp r1, #0
    beq quit
    bx lr
quit:
    mov r9, #1
    {jump} nsc_exit
"""

HAND_WRITTEN = {"recurse_call": (RECURSE_CALL, [37]),
                "recurse_icall": (RECURSE_ICALL, [29]),
                "nested_loops": (NESTED_LOOPS, [23]),
                "exit_by_b": (EXIT_JUMP.format(jump="b"), [0]),
                "exit_by_bl": (EXIT_JUMP.format(jump="bl"), [0]),
                "exit_by_return": (EXIT_JUMP.format(jump="b"), [1])}


# --- encodings ---------------------------------------------------------------

def pack(words):
    return b"".join(struct.pack(">I", w) for w in words)


def unit_width(word):
    """Words a count record's unit spans before it (0 for an address)."""
    if not word & TAG_BIT:
        return 0
    kind = (word & UNIT_MASK) >> UNIT_SHIFT
    return 1 if kind in (UNIT_STATIC, UNIT_SINGLE) else 2


def cut(words, rng):
    """Slices cut at random word boundaries that keep every count record
    with its unit and every static pair together."""
    safe = [j for j in range(1, len(words))
            if not words[j] & TAG_BIT
            and not (j + 1 < len(words) and unit_width(words[j + 1]) == 2)]
    picked = sorted(rng.sample(safe, min(len(safe), rng.randint(1, 6))))
    bounds = [0] + picked + [len(words)]
    return [pack(words[a:b]) for a, b in zip(bounds, bounds[1:])]


def count_word(unit, count):
    return TAG_BIT | (unit << UNIT_SHIFT) | count


def compress_all(dests):
    """Every immediate repetition of one or two destinations as a count
    record, whatever edge it came from."""
    words, i, n = [], 0, len(dests)
    while i < n:
        a = dests[i]
        j = i + 1
        while j < n and dests[j] == a:
            j += 1
        if j - i >= 3:
            words += [a, count_word(UNIT_SINGLE, j - i - 1)]
            i = j
            continue
        if i + 1 < n and dests[i + 1] != a:
            b = dests[i + 1]
            k = i + 2
            while k + 1 < n and dests[k] == a and dests[k + 1] == b:
                k += 2
            if k - i >= 4:
                words += [a, b, count_word(UNIT_PAIR, (k - i) // 2 - 1)]
                i = k
                continue
        words.append(a)
        i += 1
    return words


def mutate(words, rng, addrs):
    """One address replaced by another code address, a count off by one,
    a word dropped, or an entry appended."""
    words = list(words)
    kind = rng.randrange(4)
    if kind == 0 and any(not w & TAG_BIT for w in words):
        i = rng.choice([i for i, w in enumerate(words) if not w & TAG_BIT])
        words[i] = rng.choice([a for a in addrs if a != words[i]] or addrs)
    elif kind == 1 and any(w & TAG_BIT for w in words):
        i = rng.choice([i for i, w in enumerate(words) if w & TAG_BIT])
        count = words[i] & COUNT_MASK
        up = count == 0 or (count < COUNT_MASK and rng.random() < 0.5)
        words[i] += 1 if up else -1
    elif kind == 2 and words:
        del words[rng.randrange(len(words))]
    else:
        words.append(rng.choice(addrs))
    return words


# --- the comparison ----------------------------------------------------------

def outcome(w):
    v = w.violation
    return w.done, w.pos, None if v is None else (v.kind, v.index)


def agree(cfg, slices, what):
    """Feed both walkers slice by slice, as the verifier would: a slice
    that does not parse is not walked."""
    new, ref = Walker(cfg), ReferenceWalker(cfg)
    for n, data in enumerate(slices):
        try:
            runs = cfa_engine.runs(data)
        except MalformedLog:
            with pytest.raises(MalformedLog):
                reference_decompress(data)
            return
        new.feed(runs)
        ref.feed(reference_decompress(data))
        assert outcome(new) == outcome(ref), f"{what}, after slice {n}"
        assert new.fed == len(ref.stream), f"{what}, after slice {n}"


def feeds(log, dests, rng, addrs):
    """(name, slices) pairs for every way one log is fed."""
    words = list(cfa_engine.iter_entries(log))
    raw = list(dests)
    packed = compress_all(dests)
    out = [("whole", [log]), ("cut", cut(words, rng)),
           ("raw", [pack(raw)]), ("raw cut", cut(raw, rng)),
           ("compressed", [pack(packed)]), ("compressed cut", cut(packed, rng))]
    for m in range(MUTATIONS):
        base = rng.choice((words, packed))
        bad = mutate(base, rng, addrs)
        out.append((f"mutation {m}", cut(bad, rng) if rng.random() < 0.5 else [pack(bad)]))
    return out


def check_log(cfg, slices, rng):
    log = b"".join(slices)
    dests = reference_decompress(log)
    addrs = sorted(set(dests) | set(cfg.prog.labels.values())
                   | {cfg.entry, isa.NSC_EXIT})
    agree(cfg, slices, "as captured")
    for what, fed in feeds(log, dests, rng, addrs):
        agree(cfg, fed, what)


@pytest.mark.parametrize("seed", PROGRAM_SEEDS)
def test_generated_program(seed):
    asm, words = generate_program(random.Random(seed))
    _, run, _ = oracle_destinations(asm, words)
    cfg = build_cfg(instrument(asm)[0])
    check_log(cfg, [run.log.to_bytes()], random.Random(seed))


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_program(name):
    asm, words = HAND_WRITTEN[name]
    _, run, expected = oracle_destinations(asm, words)
    log = run.log.to_bytes()
    assert not run.faulted and reference_decompress(log) == expected
    check_log(build_cfg(instrument(asm)[0]), [log], random.Random(name))


@pytest.mark.parametrize("name", ["recurse_call", "recurse_icall"])
def test_recursion_repeats_units_on_a_moving_stack(name):
    asm, words = HAND_WRITTEN[name]
    _, _, expected = oracle_destinations(asm, words)
    packed = compress_all(expected)
    assert len(packed) < len(expected) // 2
    cfg = build_cfg(instrument(asm)[0])
    rng = random.Random(name)
    agree(cfg, [pack(packed)], "compressed")
    for _ in range(4):
        agree(cfg, cut(packed, rng), "compressed, cut")
    # descent and ascent compressed apart, so a skip that ignored the stack
    # could not be undone by an equally wrong skip on the way back
    for k in range(1, len(expected), 5):
        head, tail = expected[:k], expected[k:]
        agree(cfg, [pack(compress_all(head) + tail)], f"head {k} compressed")
        agree(cfg, [pack(head + compress_all(tail))], f"tail {k} compressed")


def audited_slices(spec):
    """The logs of the reports the verifier walked, in order."""
    logs = []
    runs = cfa_engine.runs

    def recording(data):
        logs.append(data)
        return runs(data)

    with mock.patch.object(cfa_engine, "runs", recording):
        scenario.run(spec)
    return logs


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.stem)
def test_bundled_scenario_reports(path):
    spec = scenario.parse_scenario(path)
    slices = audited_slices(spec)
    cfg = build_cfg(instrument(spec.asm_text)[0])
    check_log(cfg, slices, random.Random(path.stem))
