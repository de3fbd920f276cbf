"""Append-only control-flow log with backward-edge compression.

Entries are 4-byte big-endian words. The MSB is a tag bit:

    0  branch destination address (31-bit payload)
    1  loop-count record; bits 30..29 select the repetition unit
       (0 = static-loop limit, 1 = preceding single entry,
        2 = preceding pair of entries) and bits 28..0 hold the count.

Count records for dynamic loops mean "the unit repeats COUNT additional
times beyond its logged occurrence". A repetition whose count reaches
COUNT_MASK commits its record there, and the next arrival starts afresh,
so no repetition goes unlogged. A static-loop record is the pair
(header address, limit) written atomically; it expands to max(limit-1, 0)
occurrences of the header, the number of backward traversals a canonical
counted loop performs.

Compression only collapses immediate repetition anchored at a backward
edge whose destination matches the last one or two committed entries; no
general pattern mining. Appends that merely extend a pending repetition
do not grow the log, which is what bounds log size for hot loops.

The log persists itself in place: its size and in-flight repetition go
into a header beside the buffer, both retained on a device, in the
operation that changes them, so what it acknowledged is durable on return.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

ENTRY_WIDTH = 4
TAG_BIT = 1 << 31
UNIT_SHIFT = 29
UNIT_MASK = 0b11 << UNIT_SHIFT
UNIT_STATIC = 0
UNIT_SINGLE = 1
UNIT_PAIR = 2
COUNT_MASK = (1 << UNIT_SHIFT) - 1
ADDR_MASK = TAG_BIT - 1

# Bytes a pending repetition may need when it collapses back into the
# log: one count record plus one partially matched unit element.
PENDING_RESERVE = 8

DEFAULT_LOG_MAX = 50 * 1024


class InactiveEngine(Exception):
    """Append attempted while the audit status flag is inactive."""


class MalformedLog(Exception):
    """Entry stream violates the format. ``index`` is the bad word's index;
    ``decoded`` is the number of destinations the words before it encode."""

    def __init__(self, index: int, msg: str = "malformed log", decoded: int = 0):
        super().__init__(f"{msg} at entry {index}")
        self.index = index
        self.decoded = decoded


_WORD = struct.Struct(">I")
_put_word = _WORD.pack_into
_put_progress = struct.Struct(">BI").pack_into   # a repetition's pos and count


def _address_word(addr: int) -> int:
    if not 0 <= addr < TAG_BIT:
        raise ValueError(f"address {addr:#x} exceeds 31 bits")
    return addr


def _count_word(unit: int, count: int) -> int:
    return TAG_BIT | (unit << UNIT_SHIFT) | min(count, COUNT_MASK)


def encode_address(addr: int) -> bytes:
    return _WORD.pack(_address_word(addr))


def encode_count(unit: int, count: int) -> bytes:
    return _WORD.pack(_count_word(unit, count))


@dataclass
class PendingLoop:
    """An in-flight repetition not yet flushed to the log."""

    unit: tuple[int, ...]   # one or two destination addresses
    count: int              # completed additional repetitions
    pos: int                # elements of the current repetition matched


class CfLog:
    """Bounded append-only log, optionally backed by an external buffer
    (the retained-memory window) and header so entries, the size and the
    in-flight repetition survive machine resets."""

    # Besides the buffer, a reset must not lose its size and the in-flight
    # repetition, or a power cycle would silently drop destinations already
    # acknowledged as appended. The log writes both into the header it is
    # handed, at the offsets it is given, in the operation that changes
    # them: the size with each committed word; a repetition's pos and count
    # as it grows, its whole state when it starts, flushes or is cleared.
    # Without a header it writes a private one of the same shape. Building
    # a log writes nothing; ``resume`` picks up what the header holds.

    STATE_WIDTH = 24
    _STATE = struct.Struct(">BBIII10x")     # unit length, pos, count, unit
    assert _STATE.size == STATE_WIDTH
    IDLE_STATE = _STATE.pack(0, 0, 0, 0, 0)  # no repetition in flight

    def __init__(self, capacity: int = DEFAULT_LOG_MAX, buffer: memoryview | None = None,
                 header: bytearray | None = None, size_at: int = 0,
                 state_at: int = ENTRY_WIDTH):
        if buffer is not None and len(buffer) < capacity:
            raise ValueError("backing buffer smaller than capacity")
        self.capacity = capacity
        self.buf = buffer if buffer is not None else memoryview(bytearray(capacity))
        self.header = header if header is not None \
            else bytearray(ENTRY_WIDTH + self.STATE_WIDTH)
        self._size_at = size_at
        self._state_at = state_at
        self.size = 0
        self.active = True
        self.pending: PendingLoop | None = None

    # -- raw entry plumbing ----------------------------------------------

    def _commit(self, word: int) -> None:
        size = self.size
        _put_word(self.buf, size, word)
        self.size = size = size + ENTRY_WIDTH
        _put_word(self.header, self._size_at, size)

    def _put_state(self, state: bytes) -> None:
        at = self._state_at
        self.header[at:at + self.STATE_WIDTH] = state

    def _flush_bytes_needed(self) -> int:
        if self.pending is None:
            return 0
        p = self.pending
        return (ENTRY_WIDTH if p.count > 0 else 0) + ENTRY_WIDTH * p.pos

    # -- public operations --------------------------------------------------

    def append(self, dest: int, backward: bool = False) -> bool:
        """Log one dynamic branch destination. Returns False, leaving the
        log unmodified, when the entry cannot fit."""
        if not self.active:
            raise InactiveEngine("audit engine is inactive")
        p = self.pending
        if p is not None:
            if dest == p.unit[p.pos]:
                p.pos += 1
                if p.pos == len(p.unit):
                    p.count += 1
                    p.pos = 0
                    if p.count >= COUNT_MASK:
                        self.flush()     # its record is full; the reserve holds it
                        return True
                _put_progress(self.header, self._state_at + 1, p.pos, p.count)
                return True
            # repetition broken: flush, then handle dest as a fresh append
            need = self._flush_bytes_needed() + ENTRY_WIDTH
            if self.size + need > self.capacity:
                return False
            self.flush()

        if backward:
            unit = self._match_tail(dest)
            if unit is not None and self.size + PENDING_RESERVE <= self.capacity:
                # dest matches the unit's first element: one element in
                self.pending = PendingLoop(unit, 1, 0) if len(unit) == 1 \
                    else PendingLoop(unit, 0, 1)
                self._put_state(self.checkpoint())
                return True

        # a forward edge, or a backward one that starts no repetition
        size = self.size
        if size + ENTRY_WIDTH > self.capacity:
            return False
        if not 0 <= dest < TAG_BIT:
            raise ValueError(f"address {dest:#x} exceeds 31 bits")
        _put_word(self.buf, size, dest)
        self.size = size = size + ENTRY_WIDTH
        _put_word(self.header, self._size_at, size)
        return True

    def _match_tail(self, dest: int) -> tuple[int, ...] | None:
        """The unit a backward ``dest`` repeats: the last committed word
        when it is that address, else the last two when they are address
        words and the first is ``dest``."""
        buf, end, w = self.buf, self.size, ENTRY_WIDTH
        last = int.from_bytes(buf[end - w:end], "big") if end else TAG_BIT
        if last & TAG_BIT or dest > ADDR_MASK:
            return None
        if last == dest:
            return (dest,)
        if end >= 2 * w and int.from_bytes(buf[end - 2 * w:end - w], "big") == dest:
            return (dest, last)
        return None

    def log_static_loop(self, dest: int, limit: int) -> bool:
        """Record a counted loop as (header address, limit): 8 bytes total.
        Returns False, leaving the log unmodified, when it cannot fit."""
        if not self.active:
            raise InactiveEngine("audit engine is inactive")
        need = self._flush_bytes_needed() + 2 * ENTRY_WIDTH
        if self.size + need > self.capacity:
            return False
        self.flush()
        self._commit(_address_word(dest))
        self._commit(_count_word(UNIT_STATIC, limit))
        return True

    def flush(self) -> None:
        """Materialize any pending repetition; called before every report
        so each transmitted slice is self-contained."""
        p = self.pending
        if p is None:
            return
        if p.count > 0:
            unit_kind = UNIT_PAIR if len(p.unit) == 2 else UNIT_SINGLE
            self._commit(_count_word(unit_kind, p.count))
        for elem in p.unit[:p.pos]:
            self._commit(_address_word(elem))
        self.pending = None
        self._put_state(self.IDLE_STATE)

    def clear(self) -> None:
        """Drop the acknowledged slice."""
        self.size = 0
        self.pending = None
        _put_word(self.header, self._size_at, 0)
        self._put_state(self.IDLE_STATE)

    def to_bytes(self) -> bytes:
        return bytes(self.buf[:self.size])

    # -- suspend/resume ----------------------------------------------------

    def checkpoint(self) -> bytes:
        """The in-flight repetition as the header holds it."""
        p = self.pending
        if p is None:
            return self.IDLE_STATE
        unit = p.unit + (0,) * (2 - len(p.unit))
        return self._STATE.pack(len(p.unit), p.pos, p.count, *unit)

    def restore(self, state: bytes) -> None:
        """Put the repetition ``state`` describes in flight, in the header too."""
        unit_len, pos, count, u0, u1 = self._STATE.unpack(state)
        self.pending = PendingLoop((u0, u1)[:unit_len], count, pos) if unit_len else None
        self._put_state(state)

    def resume(self) -> None:
        """Go on with the log the header holds: size and repetition."""
        self.size = _WORD.unpack_from(self.header, self._size_at)[0]
        at = self._state_at
        self.restore(bytes(self.header[at:at + self.STATE_WIDTH]))


def iter_entries(data: bytes):
    if len(data) % ENTRY_WIDTH:
        raise MalformedLog(len(data) // ENTRY_WIDTH, "truncated entry")
    for i in range(0, len(data), ENTRY_WIDTH):
        yield struct.unpack_from(">I", data, i)[0]


Run = tuple[tuple[int, ...], int]


def runs(data: bytes) -> list[Run]:
    """Parse an entry stream into runs: ``(unit, count)`` stands for the
    unit's destinations repeated ``count`` times, so a count record costs
    one tuple however large its count. Runs with count 0 are dropped.

    Raises MalformedLog at the first word that breaks the format (a
    truncated trailing word first of all), or when a count record lacks
    the address entries its unit refers to.
    """
    n = len(data) // ENTRY_WIDTH
    if data[::ENTRY_WIDTH].isascii():
        # no tag bit (the top bit of each word's first byte) is set: every
        # word is an address and a run of its own, parsed in bulk
        if len(data) % ENTRY_WIDTH:
            raise MalformedLog(n, "truncated entry", n)
        return [(unit, 1) for unit in _WORD.iter_unpack(data)]
    words = struct.unpack_from(f">{n}I", data)
    out: list[Run] = []
    decoded = 0
    fault: tuple[int, str] | None = None
    i = 0
    while i < n:
        w = words[i]
        if not w & TAG_BIT:
            unit = (w & ADDR_MASK,)
            # followed by a static count record: a (header, limit) pair
            if i + 1 < n and words[i + 1] & (TAG_BIT | UNIT_MASK) == TAG_BIT:
                count = max((words[i + 1] & COUNT_MASK) - 1, 0)
                i += 2
            else:
                count = 1
                i += 1
        else:
            unit_kind = (w & UNIT_MASK) >> UNIT_SHIFT
            if unit_kind == UNIT_STATIC:
                fault = (i, "static loop count without header entry")
                break
            width = 1 if unit_kind == UNIT_SINGLE else 2
            if i < width or any(words[i - k] & TAG_BIT for k in range(1, width + 1)):
                fault = (i, "count record lacks preceding unit")
                break
            unit = tuple(words[i - k] & ADDR_MASK for k in range(width, 0, -1))
            count = w & COUNT_MASK
            i += 1
        if count:
            out.append((unit, count))
            decoded += len(unit) * count
    if len(data) % ENTRY_WIDTH:
        fault = (n, "truncated entry")
    if fault is not None:
        raise MalformedLog(*fault, decoded)
    return out


def decompress(data: bytes) -> list[int]:
    """Expand an entry stream back to the raw dynamic destination sequence,
    one int per destination: the flattening of ``runs``. The auditor walks
    runs directly; this is the tests' view of a log."""
    out: list[int] = []
    for unit, count in runs(data):
        out.extend(unit * count)
    return out
