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

``repeat`` logs many rounds of the repetition in flight in one call, as
that many appends of its unit would, for a loop that takes them at once.

Compression only collapses immediate repetition anchored at a backward
edge whose destination matches the last one or two committed entries; no
general pattern mining. Appends that merely extend a pending repetition
do not grow the log, which is what bounds log size for hot loops.

The log is a view of retained memory: its words sit in a buffer and its
size and in-flight repetition in a header beside it, and it keeps no other
copy of them. Each operation reads them there and writes what it changes
before it returns, so what the log acknowledged is durable on return and a
log built over the same memory after a reset goes on with it. Nor does it
keep a session flag: the prover's retained flags alone say whether a
session is open, and the prover logs only while they say so.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Sequence

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


class MalformedLog(Exception):
    """Entry stream violates the format. ``index`` is the bad word's index;
    ``decoded`` is the number of destinations the words before it encode."""

    def __init__(self, index: int, msg: str = "malformed log", decoded: int = 0):
        super().__init__(f"{msg} at entry {index}")
        self.index = index
        self.decoded = decoded


_WORD = struct.Struct(">I")
_get_word = _WORD.unpack_from
_put_word = _WORD.pack_into
_put_progress = struct.Struct(">BI").pack_into   # a repetition's pos and count

# a plain slice parses into an array of its words, one item per entry,
# byteswapped to host order
if array("I").itemsize != ENTRY_WIDTH:
    raise ImportError(f"array('I') items are not {ENTRY_WIDTH} bytes on this host")
_SWAP_WORDS = sys.byteorder == "little"


def _address_word(addr: int) -> int:
    if not 0 <= addr < TAG_BIT:
        raise ValueError(f"address {addr:#x} exceeds 31 bits")
    return addr


def _count_word(unit: int, count: int) -> int:
    return TAG_BIT | (unit << UNIT_SHIFT) | min(count, COUNT_MASK)


class CfLog:
    """Bounded append-only log: a view of a buffer and a header, both
    retained on a device. It keeps no copy of its size or in-flight
    repetition, or a reset could part them from what it acknowledged: it
    reads them in the header, at the offsets it is handed, and an operation
    that changes one writes it there before it returns. Building a log
    writes nothing, and two logs over one buffer and header are one log.
    Without a header the log makes a private one, zeroed: empty and idle."""

    STATE_WIDTH = 14
    _STATE = struct.Struct(">BBIII")    # unit length, pos, count, unit
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

    @property
    def size(self) -> int:
        """Bytes of committed words, as the header holds it."""
        return _get_word(self.header, self._size_at)[0]

    # -- raw entry plumbing ----------------------------------------------

    def _commit(self, *words: int) -> None:
        """Write ``words`` after the committed ones, then the size that
        takes them all in."""
        header, at = self.header, self._size_at
        size = _get_word(header, at)[0]
        for word in words:
            _put_word(self.buf, size, word)
            size += ENTRY_WIDTH
        _put_word(header, at, size)

    def _flush_bytes_needed(self) -> int:
        unit_len, pos, count, _, _ = _get_state(self.header, self._state_at)
        if not unit_len:
            return 0
        return (ENTRY_WIDTH if count > 0 else 0) + ENTRY_WIDTH * pos

    # -- public operations --------------------------------------------------

    def append(self, dest: int, backward: bool = False) -> bool:
        """Log one dynamic branch destination. Returns False, leaving the
        log unmodified, when the entry cannot fit."""
        header, at = self.header, self._state_at
        if header[at]:                  # the unit length: a repetition in flight
            unit_len, pos, count, u0, u1 = _get_state(header, at)
            if dest == (u1 if pos else u0):
                pos += 1
                if pos == unit_len:
                    pos, count = 0, count + 1
                _put_progress(header, at + 1, pos, count)
                if count >= COUNT_MASK:
                    self.flush()     # its record is full; the reserve holds it
                return True
            # repetition broken: flush, then handle dest as a fresh append
            need = self._flush_bytes_needed() + ENTRY_WIDTH
            if self.size + need > self.capacity:
                return False
            self.flush()

        size = _get_word(header, self._size_at)[0]
        if backward and size + PENDING_RESERVE <= self.capacity \
                and self._start_repetition(dest, size):
            return True

        # a forward edge, or a backward one that starts no repetition
        if size + ENTRY_WIDTH > self.capacity:
            return False
        if not 0 <= dest < TAG_BIT:
            raise ValueError(f"address {dest:#x} exceeds 31 bits")
        _put_word(self.buf, size, dest)
        _put_word(header, self._size_at, size + ENTRY_WIDTH)
        return True

    def repeat(self, arrivals: tuple[int, ...], k: int) -> int:
        """Log ``k`` more rounds of the repetition in flight at once, when
        ``arrivals`` are its unit once round from the element it expects
        next: as ``k`` times those appends would, but for the flush. It
        stops one round short of COUNT_MASK, so the append that fills the
        record is an ordinary one and flushes it. Returns the rounds
        taken: 0 when nothing is in flight or the arrivals are not that
        round."""
        header, at = self.header, self._state_at
        unit_len, pos, count, u0, u1 = _get_state(header, at)
        unit = (u0, u1)[:unit_len]
        if not unit_len or arrivals != unit[pos:] + unit[:pos]:
            return 0
        k = min(k, COUNT_MASK - 1 - count)
        if k <= 0:
            return 0
        _put_progress(header, at + 1, pos, count + k)
        return k

    def _start_repetition(self, dest: int, size: int) -> bool:
        """Put in flight the repetition a backward ``dest`` starts, if any:
        of the last committed word when it is that address, else of the last
        two when they are address words and the first is ``dest``. ``dest``
        is its first element matched."""
        buf, w = self.buf, ENTRY_WIDTH
        last = _get_word(buf, size - w)[0] if size else TAG_BIT
        if last & TAG_BIT or dest > ADDR_MASK:
            return False
        if last == dest:
            _put_state(self.header, self._state_at, 1, 0, 1, dest, 0)
        elif size >= 2 * w and _get_word(buf, size - 2 * w)[0] == dest:
            _put_state(self.header, self._state_at, 2, 1, 0, dest, last)
        else:
            return False
        return True

    def log_static_loop(self, dest: int, limit: int) -> bool:
        """Record a counted loop as (header address, limit): 8 bytes total.
        Returns False, leaving the log unmodified, when it cannot fit."""
        need = self._flush_bytes_needed() + 2 * ENTRY_WIDTH
        if self.size + need > self.capacity:
            return False
        self.flush()
        self._commit(_address_word(dest), _count_word(UNIT_STATIC, limit))
        return True

    def flush(self) -> None:
        """Materialize any pending repetition; called before every report
        so each transmitted slice is self-contained."""
        header, at = self.header, self._state_at
        unit_len, pos, count, u0, u1 = _get_state(header, at)
        if not unit_len:
            return
        words = (u0, u1)[:pos]          # the next repetition's matched elements
        if count > 0:
            words = (_count_word(UNIT_PAIR if unit_len == 2 else UNIT_SINGLE, count),
                     *words)
        self._commit(*words)
        header[at:at + self.STATE_WIDTH] = self.IDLE_STATE

    def clear(self) -> None:
        """Drop the acknowledged slice."""
        _put_word(self.header, self._size_at, 0)
        at = self._state_at
        self.header[at:at + self.STATE_WIDTH] = self.IDLE_STATE

    def to_bytes(self) -> bytes:
        return bytes(self.buf[:self.size])

    def checkpoint(self) -> bytes:
        """The in-flight repetition as the header holds it."""
        at = self._state_at
        return bytes(self.header[at:at + self.STATE_WIDTH])


_get_state = CfLog._STATE.unpack_from
_put_state = CfLog._STATE.pack_into


def iter_entries(data: bytes):
    if len(data) % ENTRY_WIDTH:
        raise MalformedLog(len(data) // ENTRY_WIDTH, "truncated entry")
    for i in range(0, len(data), ENTRY_WIDTH):
        yield struct.unpack_from(">I", data, i)[0]


Run = tuple[Sequence[int], int]   # (unit, count); a unit is a tuple, or an array


def runs(data: bytes) -> list[Run]:
    """Parse an entry stream into runs: ``(unit, count)`` stands for the
    unit's destinations repeated ``count`` times, so a count record costs
    one run however large its count. A unit is a sequence of ints: a tuple
    of one or two addresses, or, for a slice of address words alone, an
    ``array`` of every word in it, which is then the slice's one run, of
    count 1. Runs with count 0 are dropped, and an empty slice has none.

    Raises MalformedLog at the first word that breaks the format (a
    truncated trailing word first of all), or when a count record lacks
    the address entries its unit refers to.
    """
    n = len(data) // ENTRY_WIDTH
    if data[::ENTRY_WIDTH].isascii():
        # no tag bit (the top bit of each word's first byte) is set: every
        # word is an address, parsed in bulk into one run
        if len(data) % ENTRY_WIDTH:
            raise MalformedLog(n, "truncated entry", n)
        if not n:
            return []
        unit = array("I")
        unit.frombytes(data)
        if _SWAP_WORDS:
            unit.byteswap()
        return [(unit, 1)]
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
