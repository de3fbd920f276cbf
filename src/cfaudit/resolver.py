"""Guaranteed remediation: what the device does to a condemned app.

Three policies, in increasing order of mercy:

    freeze       halt the device for good; an operator must recover it
    disable      overwrite the app's entry instruction with halt
    wipe         zero the whole app image, a chunk at a time

Wiping is chunked and records its cursor in retained memory after every
chunk, so a reset mid-wipe resumes instead of leaving a half-dead image
that still attests. The healed image is a pure function of the original,
so the remote side can predict the post-heal digest without trusting the
device's claim.
"""

from __future__ import annotations

from . import isa
from .context import (F_FROZEN, POLICY_DISABLE, POLICY_FREEZE, POLICY_WIPE,
                      AuditContext, field_writer)
from .vm import Machine

POLICY_NAMES = {POLICY_FREEZE: "freeze", POLICY_DISABLE: "disable", POLICY_WIPE: "wipe"}

_HALT = isa.Instruction(isa.OP_HALT).encode()

# bytes of program memory one wipe step zeroes
WIPE_CHUNK = 1024

def healed_image(image: bytes, policy: int, entry_offset: int = 0) -> bytes:
    """The image a correct remediation leaves behind."""
    if policy == POLICY_WIPE:
        return bytes(len(image))
    if policy == POLICY_DISABLE:
        return image[:entry_offset] + _HALT + image[entry_offset + 4:]
    if policy == POLICY_FREEZE:
        return bytes(image)
    raise ValueError(f"unknown policy {policy}")


class Resolver:
    """Applies one policy to the machine, resumable across resets."""

    def __init__(self, machine: Machine, policy: int):
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy}")
        self.m = machine
        self.policy = policy

    def start(self, ctx: AuditContext, retained: bytearray) -> None:
        ctx.wipe_cursor = 0
        field_writer(retained, "wipe_cursor")(0)

    def step(self, ctx: AuditContext, retained: bytearray) -> bool:
        """One chunk of remediation work. True when the image is healed."""
        if self.policy == POLICY_FREEZE:
            ctx.set_flag(F_FROZEN)
            ctx.store(retained)
            return True
        if self.policy == POLICY_DISABLE:
            self.m.write_pmem(ctx.entry, _HALT)
            return True
        # wipe: zero the next chunk, advance the retained cursor
        start = ctx.wipe_cursor
        if start >= ctx.image_len:
            return True
        end = min(start + WIPE_CHUNK, ctx.image_len)
        self.m.write_pmem(isa.PMEM_BASE + start, bytes(end - start))
        ctx.wipe_cursor = end
        field_writer(retained, "wipe_cursor")(end)
        return end >= ctx.image_len
