"""Retained session context: the fixed-layout header at the base of
retained memory that lets an audit session survive any reset.

The layout is written once, as the field table ``FIELDS``. ``AuditContext``
is a view of the header, not a copy: each field is an attribute read from
and written to its bytes in retained memory, so a write is durable when it
returns and there is nothing to store or load. The log engine is a view
too: ``log_size`` and ``engine_state`` are the only copy of its size and
in-flight repetition, read and written by the engine itself at the offsets
the prover hands it. The log buffer sits behind a reserved block of
``CTX_HEADER_SIZE`` bytes, also written in place by the log engine.

The header holds only what a power cut must carry. Provisioning (the
policy, the log's capacity, the entry, the image length) is the prover's
own ``config`` and ``entry``, the same for a prover rebuilt after a cut,
and is never read back from here: a device re-provisioned between a cut
and its boot, say with a smaller ``log_max``, is outside this model.

The flags word alone says whether a session is open and in which state.
Every protocol transition commits the same way: it writes the other
fields it changes (``chal``, ``sigma``, ``wipe_cursor``) first, then the
whole flags word, once. So a power cut leaves the flags of the state
before the transition or of the state after it, never of a state between
the two. The log's two fields are its own: it writes them whenever it
logs, and a transition that seals or clears the log does so ahead of the
flags.

The header outlives a session: a concluded session clears its flags and
keeps its ``chal``, the freshness floor a new request must exceed, so a
device that loses its RAM still refuses a replayed request. ``begin``
never lowers that floor, whichever of its writes a cut follows. A region
without the magic holds no session, whatever its other bytes say.
"""

from __future__ import annotations

import struct

from . import wire
from .cfa_engine import CfLog

CTX_MAGIC = b"ACTX"
CTX_HEADER_SIZE = 256
LOG_BUFFER_OFFSET = CTX_HEADER_SIZE

F_VALID = 1 << 0
F_REPORT_PENDING = 1 << 2
F_REMEDIATION = 1 << 3
F_FROZEN = 1 << 4
F_FINAL = 1 << 5          # session must end after the pending report is acked

# (name, struct format) in header order
FIELDS = (
    ("magic", "4s"),
    ("flags", "I"),
    ("chal", f"{wire.CHAL_WIDTH}s"),
    ("sigma", f"{wire.MAC_WIDTH}s"),
    ("log_size", "I"),
    ("wipe_cursor", "I"),
    ("engine_state", f"{CfLog.STATE_WIDTH}s"),
)


def _field(name: str, fmt: str, offset: int) -> property:
    """Field ``name``, read and written in place. ``chal`` is an int here,
    big-endian bytes in the header."""
    codec = struct.Struct(">" + fmt)
    unpack_from, pack_into = codec.unpack_from, codec.pack_into
    if name == "chal":
        return property(lambda ctx: int.from_bytes(unpack_from(ctx.mem, offset)[0], "big"),
                        lambda ctx, value: pack_into(ctx.mem, offset, wire.chal_bytes(value)))
    return property(lambda ctx: unpack_from(ctx.mem, offset)[0],
                    lambda ctx, value: pack_into(ctx.mem, offset, value))


class AuditContext:
    """The header at the base of ``mem``, each field of ``FIELDS`` an
    attribute."""

    __slots__ = ("mem",)   # no field value is kept anywhere but in ``mem``

    def __init__(self, mem: bytearray):
        self.mem = mem

    def begin(self, chal: int) -> None:
        """Open a session at ``chal``: a blank header that keeps the old
        floor, then the new challenge, then the flags."""
        mem = self.mem
        mem[:len(_BLANK)] = _BLANK[:_CHAL.start] + mem[_CHAL] + _BLANK[_CHAL.stop:]
        self.chal = chal
        self.flags = F_VALID


OFFSETS: dict[str, int] = {}
_offset = 0
for _name, _fmt in FIELDS:
    OFFSETS[_name] = _offset
    setattr(AuditContext, _name, _field(_name, _fmt, _offset))
    _offset += struct.calcsize(">" + _fmt)
_BLANK = CTX_MAGIC + bytes(_offset - len(CTX_MAGIC))    # magic, then zeros
_CHAL = slice(OFFSETS["chal"], OFFSETS["chal"] + wire.CHAL_WIDTH)
assert len(_BLANK) <= CTX_HEADER_SIZE
