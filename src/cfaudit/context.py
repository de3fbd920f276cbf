"""Retained session context: the fixed-layout header at the base of
retained memory that lets an audit session survive any reset.

The layout is written once, as the field table ``FIELDS``. Every offset,
the whole-header ``store``/``load`` and the field writes made between
stores derive from it: the resolver's wipe cursor, and the log engine's
``log_size`` and ``engine_state``, which it writes itself at the offsets
the prover hands it. The log buffer sits behind a reserved block of
``CTX_HEADER_SIZE`` bytes, also written in place by the log engine.

The header outlives a session: a concluded session clears its flags and
keeps its ``chal``, the freshness floor a new request must exceed, so a
device that loses its RAM still refuses a replayed request. A blank
region, with no magic, loads as no context.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from functools import partial

from . import wire
from .cfa_engine import CfLog, DEFAULT_LOG_MAX

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

HEADER = struct.Struct(">" + "".join(fmt for _, fmt in FIELDS))
assert HEADER.size <= CTX_HEADER_SIZE

OFFSETS: dict[str, int] = {}
_STRUCTS: dict[str, struct.Struct] = {}
_offset = 0
for _name, _fmt in FIELDS:
    if _name is not None:
        OFFSETS[_name] = _offset
        _STRUCTS[_name] = struct.Struct(">" + _fmt)
    _offset += struct.calcsize(">" + _fmt)

# the header's values in pack order, the magic excluded
_VALUES = tuple(name for name, _ in FIELDS if name not in (None, "magic"))
_CHAL = _VALUES.index("chal")      # an int in memory, big-endian bytes here


@dataclass
class AuditContext:
    """The header's values, the magic aside."""

    flags: int = 0
    app_id: int = 0
    policy: int = POLICY_WIPE
    delta: int = 0
    chal: int = 0
    sigma: bytes = b"\x00" * wire.MAC_WIDTH
    log_size: int = 0
    wipe_cursor: int = 0
    log_max: int = DEFAULT_LOG_MAX
    entry: int = 0
    image_len: int = 0
    engine_state: bytes = b"\x00" * CfLog.STATE_WIDTH

    def flag(self, bit: int) -> bool:
        return bool(self.flags & bit)

    def set_flag(self, bit: int, on: bool = True) -> None:
        self.flags = (self.flags | bit) if on else (self.flags & ~bit)

    def store(self, mem: bytearray) -> None:
        values = [getattr(self, name) for name in _VALUES]
        values[_CHAL] = wire.chal_bytes(self.chal)
        HEADER.pack_into(mem, 0, CTX_MAGIC, *values)

    @classmethod
    def load(cls, mem: bytearray) -> "AuditContext | None":
        if mem[0:4] != CTX_MAGIC:
            return None
        values = list(HEADER.unpack_from(mem, 0)[1:])
        values[_CHAL] = wire.chal_value(values[_CHAL])
        return cls(*values)


assert _VALUES == tuple(f.name for f in fields(AuditContext))


def field_writer(mem: bytearray, name: str):
    """A function ``(value)`` that writes the one field ``name`` to the
    header in ``mem``: its ``pack_into`` with the buffer and offset bound.
    ``chal`` is written only by ``store``."""
    return partial(_STRUCTS[name].pack_into, mem, OFFSETS[name])
