"""Seeded program generators for the benchmark workloads.

Every generator returns assembly text for the original (uninstrumented)
program. The loop trip count is read from the input words, so the program
receives only the generated inputs and the same text can run at any scale.
"""

from __future__ import annotations

import random

# Registers the straight-line fillers may write. r2, r5, r6 and r7 are
# counters, limits and the input pointer in the shapes below, and r10/r11
# belong to the gateway.
FILLER_REGS = ("r0", "r1", "r3", "r4", "r8", "r9")


def filler(rng: random.Random, n: int) -> list[str]:
    out = []
    for _ in range(n):
        r = rng.choice(FILLER_REGS)
        out.append(rng.choice([
            f"    add {r}, {r}, #{rng.randint(1, 9)}",
            f"    sub {r}, {r}, #{rng.randint(1, 9)}",
            f"    mov {r}, #{rng.randint(0, 99)}",
        ]))
    return out


def pair_loop(rng: random.Random, body: int) -> str:
    """window_sparse with a bottom-tested backward branch: two logged
    arrivals per pass (an always-taken forward branch and the backward
    edge) that the log collapses into one pair count record.
    Input word 0 is the number of passes (at least 1)."""
    first = rng.randint(body // 3, 2 * body // 3)
    lines = ["main:", "    mov r7, #input_base", "    ldr r5, [r7, #0]",
             "    mov r6, #0", "spin:"]
    lines += filler(rng, first)
    lines += ["    cmp r6, #0", "    bge mark", "mark:"]
    lines += filler(rng, body - first)
    lines += ["    add r6, r6, #1", "    cmp r6, r5", "    blt spin", "    nsc_call"]
    return "\n".join(lines) + "\n"


def countdown_loop(rng: random.Random, body: int) -> str:
    """A dynamic loop counting down from the input: one logged backward
    arrival per pass, collapsed into one single-unit count record.
    Input word 0 is the number of passes (at least 1)."""
    lines = ["main:", "    mov r7, #input_base", "    ldr r6, [r7, #0]", "spin:"]
    lines += filler(rng, body)
    lines += ["    sub r6, r6, #1", "    cmp r6, #0", "    bgt spin", "    nsc_call"]
    return "\n".join(lines) + "\n"


def counted_loop(rng: random.Random, body: int, limit: int | None) -> str:
    """particle_count: a canonical counted loop the rewriter logs as one
    static record. With ``limit`` the bound is an immediate; without it
    the bound is a register loaded from input word 1 (defect D1).
    Input word 0 is the sample the body accumulates."""
    lines = ["main:", "    mov r7, #input_base"]
    if limit is None:
        lines.append("    ldr r5, [r7, #4]")
    lines += ["    mov r4, #0", "    mov r2, #0", "window:",
              "    ldr r3, [r7, #0]", "    add r4, r4, r3"]
    lines += filler(rng, body)
    lines += ["    add r2, r2, #1",
              f"    cmp r2, #{limit}" if limit is not None else "    cmp r2, r5",
              f"    {rng.choice(['bne', 'blt'])} window",
              "    mov r9, r4", "    nsc_call"]
    return "\n".join(lines) + "\n"


def dense_loop(rng: random.Random, calls: int, icalls: int, tail: bool,
               fill: int) -> str:
    """window_dense: two forward arrivals per pass that never repeat back to
    back, plus ``calls`` direct calls (one logged return each) and
    ``icalls`` indirect calls (a logged target and a logged return each),
    and ``fill`` straight-line instructions. With ``tail`` the exit path
    takes one more branch, as in incompressible.
    Input word 0 is the number of passes."""
    extras = ["    bl leaf"] * calls + ["    mov r8, #inner", "    blx r8"] * icalls
    lines = ["main:", "    mov r7, #input_base", "    ldr r5, [r7, #0]",
             "    mov r6, #0", "    mov r0, #0", "spin:",
             "    cmp r6, r5", "    bge fin", "    cmp r6, #0", "    bge mark",
             "mark:"]
    lines += extras
    lines += filler(rng, fill)
    lines += ["    add r6, r6, #1", "    b spin", "fin:"]
    if tail:
        lines += ["    cmp r6, #0", "    bge tail", "tail:"]
    lines += ["    nsc_call",
              "leaf:", "    add r0, r0, #1", "    bx lr",
              "inner:", "    push lr", "    add r0, r0, #2", "    pop pc"]
    return "\n".join(lines) + "\n"


def spread(i: int, offset: float) -> float:
    """The i-th point of a seeded golden-ratio sequence in [0, 1): any run of
    consecutive points covers the interval evenly, so pool statistics
    barely move from seed to seed."""
    return (offset + i * 0.6180339887498949) % 1.0
