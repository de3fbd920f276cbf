"""Log engine unit tests: entry packing, compression, capacity, decompression."""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from cfaudit import cfa_engine as eng
from cfaudit.cfa_engine import (CfLog, MalformedLog,
                                decompress, runs, UNIT_PAIR, UNIT_SINGLE, UNIT_STATIC)

from support import encode_address, encode_count, reference_decompress

A, B, C = 0x1000, 0x2000, 0x3000

# the two fields sit inside a larger header, as in the retained context
SIZE_AT, STATE_AT = 8, 20


def header_log(capacity, buf=None, header=None):
    return CfLog(capacity=capacity,
                 buffer=memoryview(bytearray(capacity) if buf is None else buf),
                 header=bytearray(64) if header is None else header,
                 size_at=SIZE_AT, state_at=STATE_AT)


def put_repetition(header, unit, count, pos=0):
    """Write into ``header`` a repetition of ``unit`` in flight, ``count``
    repetitions done and ``pos`` elements of the next matched."""
    header[STATE_AT:STATE_AT + CfLog.STATE_WIDTH] = CfLog._STATE.pack(
        len(unit), pos, count, *unit, *(0,) * (2 - len(unit)))


def log_in_flight(unit, count, capacity=64):
    """A log built over a buffer holding ``unit`` once and a header with a
    repetition of it in flight, ``count`` repetitions done."""
    buf = bytearray(capacity)
    struct.pack_into(f">{len(unit)}I", buf, 0, *unit)
    header = bytearray(64)
    struct.pack_into(">I", header, SIZE_AT, 4 * len(unit))
    put_repetition(header, unit, count)
    return header_log(capacity, buf, header)


def test_every_entry_is_four_bytes():
    log = CfLog(capacity=64)
    log.append(A)
    log.append(B)
    assert log.size == 8
    assert len(log.to_bytes()) == 8


def test_address_entry_top_bit_clear():
    log = CfLog(capacity=64)
    log.append(0x7FFFFFFC)
    word = struct.unpack(">I", log.to_bytes())[0]
    assert word == 0x7FFFFFFC and word >> 31 == 0
    with pytest.raises(ValueError):
        log.append(1 << 31)
    assert log.to_bytes() == encode_address(0x7FFFFFFC)


def test_count_entry_top_bit_set():
    log = CfLog(capacity=64)
    for _ in range(4):
        log.append(A, backward=True)
    log.flush()
    word = struct.unpack(">2I", log.to_bytes())[1]
    assert log.to_bytes()[4:] == encode_count(UNIT_SINGLE, 3)
    assert word >> 31 == 1
    assert (word >> 29) & 0x3 == UNIT_SINGLE
    assert word & eng.COUNT_MASK == 3


def test_plain_sequence_stored_verbatim():
    log = CfLog(capacity=64)
    for dest in (A, B, C):
        assert log.append(dest) is True
    assert decompress(log.to_bytes()) == [A, B, C]


def test_backward_pair_repetition_compresses():
    log = CfLog(capacity=64)
    seq = [A, B, A, B, A, B]
    for i, dest in enumerate(seq):
        log.append(dest, backward=(dest == A and i > 0))
    log.flush()
    assert log.size == 12
    assert decompress(log.to_bytes()) == seq


def test_backward_singleton_repetition_compresses():
    log = CfLog(capacity=64)
    log.append(A)
    for _ in range(4):
        log.append(A, backward=True)
    log.append(B)
    log.flush()
    assert log.size == 12
    assert decompress(log.to_bytes()) == [A] * 5 + [B]


def test_forward_repetition_not_compressed():
    log = CfLog(capacity=64)
    for _ in range(3):
        log.append(A, backward=False)
    assert log.size == 12
    assert decompress(log.to_bytes()) == [A, A, A]


def test_pending_break_flushes_then_continues():
    log = CfLog(capacity=128)
    seq = [A, B, A, B, A, B, C, A]
    for i, dest in enumerate(seq):
        log.append(dest, backward=(dest == A and i > 0))
    log.flush()
    assert decompress(log.to_bytes()) == seq


def test_partial_pair_repetition_flushes_prefix():
    log = CfLog(capacity=128)
    seq = [A, B, A, B, A, C]
    for i, dest in enumerate(seq):
        log.append(dest, backward=(dest == A and i > 0))
    log.flush()
    assert decompress(log.to_bytes()) == seq


def test_static_loop_record_is_eight_bytes():
    log = CfLog(capacity=64)
    assert log.log_static_loop(0x100, 5) is True
    assert log.size == 8
    assert decompress(log.to_bytes()) == [0x100] * 4


def test_static_loop_zero_and_one_limits():
    for limit, copies in [(0, 0), (1, 0), (2, 1)]:
        log = CfLog(capacity=64)
        log.log_static_loop(0x100, limit)
        assert decompress(log.to_bytes()) == [0x100] * copies


def test_append_at_capacity_reports_full_without_mutation():
    log = CfLog(capacity=8)
    log.append(A)
    log.append(B)
    before = log.to_bytes()
    assert log.append(C) is False
    assert log.to_bytes() == before
    assert log.size == 8


def test_static_loop_at_capacity_reports_full():
    log = CfLog(capacity=8)
    log.append(A)
    log.append(B)
    assert log.log_static_loop(0x100, 3) is False
    assert decompress(log.to_bytes()) == [A, B]


def test_pending_reserve_guarantees_flush_fits():
    log = CfLog(capacity=24)
    log.append(A)
    log.append(B, backward=False)
    log.append(A, backward=True)      # starts a pair unit, reserves room
    for _ in range(200):
        log.append(B, backward=False)
        log.append(A, backward=True)
    log.flush()
    assert log.size <= 24
    stream = decompress(log.to_bytes())
    assert stream[0:2] == [A, B]


def destinations_in_order(data, unit):
    """Destinations the log's runs stand for, checked to repeat ``unit``
    in order without expanding a count."""
    total = 0
    for u, count in runs(data):
        for i, d in enumerate(u):
            assert d == unit[(total + i) % len(unit)]
        total += len(u) * count
    return total


@pytest.mark.parametrize("unit", [(A,), (A, B)], ids=["single", "pair"])
def test_a_repetition_reaching_the_count_limit_is_committed_not_truncated(unit):
    log = log_in_flight(unit, eng.COUNT_MASK - 1)
    for _ in range(3):
        for d in unit:
            assert log.append(d, backward=d == unit[0])
    log.flush()
    # the unit once as addresses, COUNT_MASK - 1 repetitions in the header, three more
    assert destinations_in_order(log.to_bytes(), unit) \
        == len(unit) * (eng.COUNT_MASK + 3)
    counts = [w & eng.COUNT_MASK for w in eng.iter_entries(log.to_bytes())
              if w & eng.TAG_BIT]
    assert counts[0] == eng.COUNT_MASK


# --- repeat: many rounds of the repetition in flight at once --------------------

def twin_logs(unit, count, pos=0):
    """Two logs alike, each with ``unit`` committed once and a repetition
    of it in flight, ``count`` done and ``pos`` elements matched."""
    logs = [log_in_flight(unit, count) for _ in range(2)]
    for log in logs:
        put_repetition(log.header, unit, count, pos)
    return logs


def log_state(log):
    return bytes(log.header), log.to_bytes()


@pytest.mark.parametrize("unit, pos", [((A,), 0), ((A, B), 0), ((A, B), 1)],
                         ids=["single", "pair-pos-0", "pair-pos-1"])
def test_repeat_takes_rounds_from_the_element_expected_next(unit, pos):
    at_once, by_append = twin_logs(unit, 3, pos)
    rotated = unit[pos:] + unit[:pos]
    assert at_once.repeat(rotated, 5) == 5
    for _ in range(5):
        for d in rotated:
            assert by_append.append(d)
    assert log_state(at_once) == log_state(by_append)
    at_once.flush()
    by_append.flush()
    assert log_state(at_once) == log_state(by_append)


@pytest.mark.parametrize("unit, pos, arrivals", [
    ((A, B), 1, (A, B)),       # the unit, not from the element expected next
    ((A, B), 0, (A,)),         # too short
    ((A,), 0, (A, A)),         # too long
    ((A,), 0, (B,)),           # another address
    ((A, B), 0, (A, C)),
], ids=["pair-unrotated", "pair-short", "single-long", "single-other", "pair-other"])
def test_repeat_of_arrivals_that_are_not_a_round_takes_nothing(unit, pos, arrivals):
    log, untouched = twin_logs(unit, 3, pos)
    assert log.repeat(arrivals, 5) == 0
    assert log_state(log) == log_state(untouched)


def test_repeat_with_nothing_in_flight_takes_nothing():
    log = header_log(64)
    log.append(A)
    before = log_state(log)
    assert log.repeat((A,), 5) == 0 and log.repeat((), 5) == 0
    assert log_state(log) == before


@pytest.mark.parametrize("unit", [(A,), (A, B)], ids=["single", "pair"])
def test_repeat_stops_one_round_short_of_the_count_limit(unit):
    """The round that fills the record is left to ``append``, which
    commits it: from COUNT_MASK - 2 one round is taken at once, then none."""
    at_once, by_append = twin_logs(unit, eng.COUNT_MASK - 2)
    assert at_once.repeat(unit, 5) == 1
    assert at_once.repeat(unit, 5) == 0
    for log in (at_once, by_append):
        for _ in range(3 if log is by_append else 2):
            for d in unit:
                assert log.append(d)
    assert log_state(at_once) == log_state(by_append)
    counts = [w & eng.COUNT_MASK for w in eng.iter_entries(at_once.to_bytes())
              if w & eng.TAG_BIT]
    assert counts == [eng.COUNT_MASK]


def test_full_then_flush_still_fits():
    log = CfLog(capacity=16)
    log.append(A)
    log.append(A, backward=True)
    while log.append(C):
        pass
    log.flush()
    assert log.size <= 16
    decompress(log.to_bytes())


def test_clear_resets_but_keeps_capacity():
    log = CfLog(capacity=32)
    log.append(A)
    log.clear()
    assert log.size == 0
    for _ in range(8):
        log.append(B)
    assert log.size == 32


def test_decompress_rejects_orphan_static_count():
    with pytest.raises(MalformedLog):
        decompress(encode_count(UNIT_STATIC, 4))


def test_decompress_rejects_count_without_preceding_addresses():
    data = encode_address(A) + encode_count(UNIT_PAIR, 2)
    with pytest.raises(MalformedLog):
        decompress(data)


def test_decompress_rejects_truncated_entry():
    with pytest.raises(MalformedLog):
        decompress(b"\x00\x00\x10")


def test_decompress_rejects_count_after_count():
    data = (encode_address(A)
            + encode_count(UNIT_SINGLE, 1)
            + encode_count(UNIT_SINGLE, 1))
    with pytest.raises(MalformedLog):
        decompress(data)


def test_external_buffer_is_written_in_place():
    buf = bytearray(64)
    log = CfLog(capacity=32, buffer=memoryview(buf))
    log.append(A)
    assert bytes(buf[0:4]) == encode_address(A)


@st.composite
def dest_streams(draw):
    addrs = draw(st.lists(st.sampled_from([A, B, C, 0x4000]), min_size=1, max_size=40))
    flags = draw(st.lists(st.booleans(), min_size=len(addrs), max_size=len(addrs)))
    return list(zip(addrs, flags))


@given(dest_streams())
@settings(max_examples=200, deadline=None)
def test_compression_round_trips(stream):
    log = CfLog(capacity=1 << 16)
    for dest, backward in stream:
        assert log.append(dest, backward=backward)
    log.flush()
    assert decompress(log.to_bytes()) == [dest for dest, _ in stream]


@given(dest_streams())
@settings(max_examples=100, deadline=None)
def test_compression_never_beats_identity_when_forward(stream):
    log = CfLog(capacity=1 << 16)
    for dest, _ in stream:
        log.append(dest, backward=False)
    log.flush()
    assert log.size == 4 * len(stream)


@given(st.lists(st.tuples(st.sampled_from([A, B]), st.integers(0, 6)),
                min_size=0, max_size=10))
@settings(max_examples=100, deadline=None)
def test_static_records_round_trip(records):
    log = CfLog(capacity=1 << 16)
    expected = []
    for dest, limit in records:
        log.log_static_loop(dest, limit)
        expected += [dest] * max(limit - 1, 0)
    assert decompress(log.to_bytes()) == expected


# a second append branch, backward over A and B, so repetitions start often
logged_ops = st.lists(st.one_of(
    st.tuples(st.just("append"), st.sampled_from([A, B, C]), st.booleans()),
    st.tuples(st.just("append"), st.sampled_from([A, B]), st.just(True)),
    st.tuples(st.just("static"), st.sampled_from([A, B]), st.integers(0, 4)),
    st.tuples(st.sampled_from(["flush", "clear", "saturate"]), st.just(0), st.just(0))),
    max_size=30)

def apply(log, op):
    kind, dest, arg = op
    if kind == "append":
        return log.append(dest, backward=arg)
    if kind == "static":
        return log.log_static_loop(dest, arg)
    if kind == "flush":
        log.flush()
    elif kind == "clear":
        log.clear()
    else:
        unit_len, _, _, u0, u1 = CfLog._STATE.unpack(log.checkpoint())
        if unit_len:
            # one repetition short of the count limit, then the repetition
            # that commits its record
            unit = (u0, u1)[:unit_len]
            put_repetition(log.header, unit, eng.COUNT_MASK - 1)
            for d in unit:
                assert log.append(d, backward=d == unit[0])
            assert log.checkpoint() == CfLog.IDLE_STATE
    return True


def replay(log, ops):
    """Apply ``ops``, checking after each refused one that it left the
    buffer and the header as they were."""
    results = []
    for op in ops:
        before = bytes(log.header), log.to_bytes()
        results.append(apply(log, op))
        if not results[-1]:
            assert (bytes(log.header), log.to_bytes()) == before, op
    return results


def _in_flight(unit, then):
    """Ops that put a backward repetition of ``unit`` in flight, then ``then``."""
    grow = [("append", d, d == unit[0]) for d in unit]
    return [("append", d, False) for d in unit] + grow * 2 + then


@given(logged_ops, st.sampled_from([16, 40, 1 << 12]))
@example(_in_flight((A,), [("clear", 0, 0), ("append", A, False)]
                    + _in_flight((B,), [("flush", 0, 0)])), 1 << 12)
@example(_in_flight((A, B), [("saturate", 0, 0), ("append", A, False), ("append", B, False),
                             ("append", A, True), ("clear", 0, 0)]
                    + _in_flight((A, B), [("append", A, True), ("flush", 0, 0)])), 1 << 12)
@example(_in_flight((A, B), [("append", A, True), ("append", C, False),
                             ("static", A, 3), ("append", B, False)]), 16)
@settings(max_examples=200, deadline=None)
def test_a_log_built_over_a_cut_log_goes_on_with_it(ops, capacity):
    # a power cycle after any operation: only the buffer and the header
    # survive, and a log built over them goes on as if never interrupted
    whole = header_log(capacity)
    expected = replay(whole, ops)
    whole.flush()
    for cut in range(len(ops) + 1):
        first = header_log(capacity)
        replay(first, ops[:cut])
        resumed = header_log(capacity, buf=bytearray(first.buf),
                             header=bytearray(first.header))
        assert (resumed.size, resumed.checkpoint()) == (first.size, first.checkpoint())
        assert replay(resumed, ops[cut:]) == expected[cut:]
        resumed.flush()
        assert resumed.to_bytes() == whole.to_bytes(), f"cut after {cut} operations"


def test_a_log_built_over_a_header_continues_it_and_writes_nothing():
    # A and B committed, a repetition of the pair in flight: two done and
    # A of the third matched; every other header byte is foreign
    header = bytearray(range(64))
    struct.pack_into(">I", header, SIZE_AT, 8)
    put_repetition(header, (A, B), 2, pos=1)
    kept = bytes(header)
    log = header_log(32, buf=bytearray(encode_address(A) + encode_address(B) + bytes(24)),
                     header=header)
    assert header == kept
    assert (log.size, log.to_bytes()) == (8, encode_address(A) + encode_address(B))
    # B completes the third repetition: only its pos and count are written
    assert log.append(B)
    expected = bytearray(kept)
    expected[STATE_AT + 1:STATE_AT + 6] = bytes([0]) + (3).to_bytes(4, "big")
    assert header == expected
    # a forward append flushes the repetition, then writes its own word
    assert log.append(C)
    assert decompress(log.to_bytes()) == [A, B] * 4 + [C]
    assert log.checkpoint() == CfLog.IDLE_STATE
    assert header[:SIZE_AT] == kept[:SIZE_AT]
    assert header[SIZE_AT + 4:STATE_AT] == kept[SIZE_AT + 4:STATE_AT]
    assert header[STATE_AT + CfLog.STATE_WIDTH:] == kept[STATE_AT + CfLog.STATE_WIDTH:]


def test_two_logs_over_one_buffer_and_header_are_one_log():
    buf, header = bytearray(64), bytearray(64)
    first, second = header_log(64, buf, header), header_log(64, buf, header)
    first.append(A)
    second.append(A, backward=True)       # repeats the word the first logged
    assert first.checkpoint() != CfLog.IDLE_STATE
    first.append(A, backward=True)
    second.append(B)
    assert first.to_bytes() == second.to_bytes()
    assert decompress(first.to_bytes()) == [A, A, A, B]
    first.clear()
    assert (second.size, second.checkpoint()) == (0, CfLog.IDLE_STATE)


def test_a_log_keeps_no_copy_of_its_size_or_repetition():
    """The header is the only copy of the log's size and in-flight
    repetition, or a power cut could part the two. An attribute added to
    the log must be something a reset may lose."""
    log = header_log(64)
    log.append(A)
    log.append(A, backward=True)
    assert set(vars(log)) == {"capacity", "buf", "header", "_size_at", "_state_at"}


def test_the_forward_fast_path_keeps_every_check():
    log = header_log(8)
    log.append(A)
    before = bytes(log.header), log.size
    with pytest.raises(ValueError):
        log.append(1 << 31)
    assert (bytes(log.header), log.size) == before
    assert log.append(B)
    before = bytes(log.header), log.to_bytes()
    assert not log.append(C)
    assert (bytes(log.header), log.to_bytes()) == before


@pytest.mark.xfail(strict=True, reason="D3: a static record clamps its limit "
                   "to COUNT_MASK, losing the traversals above it")
def test_a_static_limit_past_the_count_limit_keeps_every_traversal():
    log = CfLog(capacity=64)
    assert log.log_static_loop(A, eng.COUNT_MASK + 5)
    assert destinations_in_order(log.to_bytes(), (A,)) == eng.COUNT_MASK + 4


def test_runs_keep_counts_unexpanded():
    data = (encode_address(A) + encode_count(UNIT_SINGLE, 5)
            + encode_address(B) + encode_address(C) + encode_count(UNIT_PAIR, 1000)
            + encode_address(A) + encode_count(UNIT_STATIC, 0)
            + encode_address(B) + encode_count(UNIT_STATIC, 7))
    assert runs(data) == [((A,), 1), ((A,), 5), ((B,), 1), ((C,), 1),
                          ((B, C), 1000), ((B,), 6)]


def test_malformed_log_counts_the_destinations_before_the_bad_word():
    data = encode_address(A) + encode_count(UNIT_SINGLE, 5) + encode_count(UNIT_STATIC, 3)
    with pytest.raises(MalformedLog) as exc:
        runs(data)
    assert exc.value.index == 2
    assert exc.value.decoded == 6


# words whose kinds and counts are drawn so that unit-less counts, orphan
# static records, unknown unit kinds and truncated tails all turn up
log_words = st.one_of(
    st.sampled_from([A, B, C]),
    st.builds(lambda unit, count: (1 << 31) | (unit << 29) | count,
              st.integers(0, 3), st.integers(0, 4)))


@given(st.lists(log_words, max_size=24), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_runs_decode_like_the_reference_decoder(words, tail):
    data = b"".join(w.to_bytes(4, "big") for w in words) + b"\x01" * tail
    try:
        expected = reference_decompress(data)
    except MalformedLog as exc:
        with pytest.raises(MalformedLog) as got:
            runs(data)
        assert got.value.index == exc.index
        if not tail:
            prefix = data[:4 * exc.index]
            assert got.value.decoded == len(reference_decompress(prefix))
        with pytest.raises(MalformedLog):
            decompress(data)
        return
    assert [d for unit, count in runs(data) for d in unit * count] == expected
    assert decompress(data) == expected


def test_runs_of_an_empty_slice():
    assert runs(b"") == []


@pytest.mark.parametrize("words", [0, 1, 3])
@pytest.mark.parametrize("tail", [b"\x01", b"\x00\x00", b"\x80\x00\x00"])
def test_runs_of_addresses_with_a_truncated_tail(words, tail):
    data = b"".join(encode_address(A + 4 * k) for k in range(words)) + tail
    with pytest.raises(MalformedLog) as exc:
        runs(data)
    assert (exc.value.index, exc.value.decoded) == (words, words)
    with pytest.raises(MalformedLog) as ref:
        reference_decompress(data)
    assert ref.value.index == words


@pytest.mark.parametrize("last, expected", [
    (encode_count(UNIT_SINGLE, 3), [((A,), 1), ((B,), 1), ((B,), 3)]),
    (encode_count(UNIT_PAIR, 2), [((A,), 1), ((B,), 1), ((A, B), 2)]),
    (encode_count(UNIT_STATIC, 4), [((A,), 1), ((B,), 3)]),
], ids=["single", "pair", "static"])
def test_runs_of_a_slice_whose_only_count_record_is_last(last, expected):
    data = encode_address(A) + encode_address(B) + last
    assert runs(data) == expected
    assert [d for unit, count in expected for d in unit * count] == \
        reference_decompress(data)


def test_a_plain_slice_is_one_run():
    words = [A, B, A, C, 0, eng.ADDR_MASK, B]
    ((unit, count),) = runs(struct.pack(f">{len(words)}I", *words))
    assert count == 1
    assert list(unit) == words
    assert runs(b"") == []


def test_runs_at_the_tag_bit_boundary():
    top = eng.ADDR_MASK                        # 0x7fffffff: the highest address
    ((unit, count),) = runs(struct.pack(">3I", A, top, B))
    assert (list(unit), count) == ([A, top, B], 1)
    # 0x80000000 is a static count record of limit 0: without a header it
    # is malformed, after one it stands for no destination at all
    with pytest.raises(MalformedLog) as exc:
        runs(struct.pack(">2I", 0x8000_0000, A))
    assert (exc.value.index, exc.value.decoded) == (0, 0)
    with pytest.raises(MalformedLog) as exc:
        runs(struct.pack(">4I", A, B, 0x8000_0000, 0x8000_0000))
    assert (exc.value.index, exc.value.decoded) == (3, 1)
    assert runs(struct.pack(">3I", top, 0x8000_0000, B)) == [((B,), 1)]
    for data in (struct.pack(">3I", A, top, B), struct.pack(">3I", top, 0x8000_0000, B)):
        assert decompress(data) == reference_decompress(data)
