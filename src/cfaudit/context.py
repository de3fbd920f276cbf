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

The header outlives a session: a concluded session clears its flags and
keeps its ``chal``, the freshness floor a new request must exceed, so a
device that loses its RAM still refuses a replayed request. A region
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

# remediation policy codes, kept in the context's policy byte
POLICY_FREEZE = 0
POLICY_DISABLE = 1
POLICY_WIPE = 2

# (name, struct format) in header order; a None name is padding
FIELDS = (
    ("magic", "4s"),
    ("flags", "I"),
    ("app_id", "H"),
    ("policy", "B"),
    (None, "x"),
    ("delta", "Q"),
    ("chal", f"{wire.CHAL_WIDTH}s"),
    ("sigma", f"{wire.MAC_WIDTH}s"),
    ("log_size", "I"),
    ("wipe_cursor", "I"),
    ("log_max", "I"),
    ("entry", "I"),
    ("image_len", "I"),
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

    def begin(self, **values) -> None:
        """Write a fresh header: the magic, zeros, then ``values``."""
        self.mem[:len(_BLANK)] = _BLANK
        for name, value in values.items():
            setattr(self, name, value)

    def flag(self, bit: int) -> bool:
        return bool(self.flags & bit)

    def set_flag(self, bit: int, on: bool = True) -> None:
        flags = self.flags
        self.flags = (flags | bit) if on else (flags & ~bit)


OFFSETS: dict[str, int] = {}
_offset = 0
for _name, _fmt in FIELDS:
    if _name is not None:
        OFFSETS[_name] = _offset
        setattr(AuditContext, _name, _field(_name, _fmt, _offset))
    _offset += struct.calcsize(">" + _fmt)
_BLANK = CTX_MAGIC + bytes(_offset - len(CTX_MAGIC))    # magic, then zeros
assert len(_BLANK) <= CTX_HEADER_SIZE
