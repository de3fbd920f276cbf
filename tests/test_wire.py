"""Message framing and MAC tests, with every MAC recomputed independently
from raw hashlib/hmac calls rather than through the module under test."""

import hashlib
import hmac as stdlib_hmac
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cfaudit import wire

KEY = b"\xaa" * 32


def raw_hmac(key, payload):
    return stdlib_hmac.new(key, payload, hashlib.sha256).digest()


def test_request_roundtrip():
    req = wire.AttestRequest(app_id=7, delta=1 << 20, chal=41)
    data = req.pack(KEY)
    assert len(data) == wire.REQUEST_WIDTH
    assert wire.AttestRequest.open(KEY, data) == req


def test_request_mac_matches_independent_construction():
    req = wire.AttestRequest(app_id=1, delta=65536, chal=3)
    data = req.pack(KEY)
    body = struct.pack(">BHQ", 0x00, 1, 65536) + (3).to_bytes(64, "big")
    assert data[:11 + 64] == body
    assert data[-32:] == raw_hmac(KEY, body)


def flipped(data: bytes):
    """``data`` with one bit flipped, at each byte in turn."""
    for i in range(len(data)):
        yield i, data[:i] + bytes((data[i] ^ 0x01,)) + data[i + 1:]


def test_request_every_byte_is_authenticated():
    data = wire.AttestRequest(1, 65536, 9).pack(KEY)
    for i, bad in flipped(data):
        assert wire.AttestRequest.open(KEY, bad) is None, f"byte {i} not covered"


def test_report_roundtrip_and_size_check():
    rep = wire.Report(sigma=b"\x5c" * 32, log=b"\x00\x00\x10\x04" * 3)
    data = rep.pack()
    assert len(data) == wire.REPORT_HEADER_WIDTH + 12
    assert wire.Report.parse(data) == rep
    assert wire.Report.parse(data[:-1]) is None


def test_report_sigma_binds_all_fields():
    digest = hashlib.sha256(b"image").digest()
    log = b"\x00\x00\x11\x11"
    base = wire.report_sigma(KEY, digest, log, 5)
    assert base == raw_hmac(
        KEY, digest + struct.pack(">I", 4) + log + (5).to_bytes(64, "big"))
    assert wire.report_sigma(KEY, digest, log, 6) != base
    assert wire.report_sigma(KEY, digest, log + b"\x00", 5) != base
    assert wire.report_sigma(KEY, hashlib.sha256(b"x").digest(), log, 5) != base


def test_response_roundtrip_and_forgery():
    resp = wire.Response.make(KEY, wire.RESULT_EXEC, chal=12)
    data = resp.pack()
    assert len(data) == wire.RESPONSE_WIDTH
    assert wire.Response.open(KEY, data) == resp
    assert resp.chal == 12 and resp.result == wire.RESULT_EXEC
    forged = wire.Response(wire.RESULT_END, 12, resp.sigma).pack()
    assert wire.Response.open(KEY, forged) is None


def test_response_every_byte_is_authenticated():
    data = wire.Response.make(KEY, wire.RESULT_HEAL, chal=77).pack()
    for i, bad in flipped(data):
        assert wire.Response.open(KEY, bad) is None, f"byte {i} not covered"


def test_open_refuses_a_wrong_key_the_other_type_and_a_wrong_length():
    req = wire.AttestRequest(1, 65536, 3).pack(KEY)
    resp = wire.Response.make(KEY, wire.RESULT_END, 3).pack()
    report = wire.Report(b"\x00" * 32, b"").pack()
    other = b"\xbb" * 32
    assert wire.AttestRequest.open(other, req) is None
    assert wire.Response.open(other, resp) is None
    for data in (resp, report, b"", req[:-1], req + b"\x00"):
        assert wire.AttestRequest.open(KEY, data) is None
    for data in (req, report, b"", resp[:-1], resp + b"\x00"):
        assert wire.Response.open(KEY, data) is None


def test_response_sigma_independent_construction():
    resp = wire.Response.make(KEY, wire.RESULT_HEAL, chal=99)
    assert resp.sigma == raw_hmac(KEY, (99).to_bytes(64, "big") + b"\x03")


def test_message_type_dispatch():
    req = wire.AttestRequest(1, 65536, 1).pack(KEY)
    rep = wire.Report(b"\x00" * 32, b"").pack()
    resp = wire.Response.make(KEY, wire.RESULT_END, 2).pack()
    assert wire.message_type(req) == wire.MSG_REQUEST
    assert wire.message_type(rep) == wire.MSG_REPORT
    assert wire.message_type(resp) == wire.MSG_RESPONSE
    # a response's result byte is read without a parse, and only from a
    # well-framed response
    assert wire.response_result(resp) == wire.RESULT_END
    assert [wire.response_result(m) for m in (req, rep, resp[:-1], b"")] == [None] * 4


def test_a_response_holds_one_of_the_three_results():
    for result in range(256):
        body = wire.chal_bytes(2)
        data = bytes((wire.MSG_RESPONSE, result)) + body + raw_hmac(KEY, body + bytes((result,)))
        opened = wire.Response.open(KEY, data)
        if result in wire.RESULT_NAMES:
            assert opened == wire.Response.make(KEY, result, 2)
            assert wire.response_bytes(KEY, result, 2) == data
        else:
            assert opened is None and wire.response_result(data) is None
            with pytest.raises(KeyError):
                wire.response_bytes(KEY, result, 2)


def test_challenge_is_64_byte_big_endian():
    b = wire.chal_bytes(0x0102)
    assert len(b) == 64
    assert b[-2:] == b"\x01\x02" and not any(b[:-2])
    assert int.from_bytes(b, "big") == 0x0102


@given(st.integers(min_value=0, max_value=(1 << 512) - 1))
def test_chal_roundtrip(v):
    b = wire.chal_bytes(v)
    assert len(b) == wire.CHAL_WIDTH and int.from_bytes(b, "big") == v


@given(st.binary(max_size=200), st.integers(min_value=0, max_value=1 << 64))
def test_report_parse_pack_roundtrip(log, chal):
    digest = hashlib.sha256(b"i").digest()
    sigma = wire.report_sigma(KEY, digest, log, chal)
    rep = wire.Report(sigma, log)
    back = wire.Report.parse(rep.pack())
    assert back.sigma == sigma and back.log == log
    assert back.sigma == wire.report_sigma(KEY, digest, back.log, chal)


MANY_KEYS = [bytes([i]) * (20 + 7 * i) for i in range(wire.KEYED_CACHE_SIZE + 3)]


@given(st.lists(st.binary(max_size=100), min_size=2, max_size=2 * wire.KEYED_CACHE_SIZE,
                unique=True),
       st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                          st.lists(st.binary(max_size=80), max_size=5)),
                min_size=1, max_size=20))
@example(keys=MANY_KEYS, calls=[(i, [b"chunk", bytes([i])]) for i in range(30)])
@example(keys=[bytes(range(0)), b"k"], calls=[(0, [b"chunk"]), (1, [])])
@example(keys=[bytes(range(63)), b"k"], calls=[(0, [b"chunk"]), (1, [])])
@example(keys=[bytes(range(64)), b"k"], calls=[(0, [b"chunk"]), (1, [])])
@example(keys=[bytes(range(65)), b"k"], calls=[(0, [b"chunk"]), (1, [])])
@example(keys=[bytes(range(129)), b"k"], calls=[(0, [b"chunk"]), (1, [])])
def test_mac_equals_one_hmac_over_the_joined_chunks(keys, calls):
    # keys empty, short, at the 64-byte block and longer (hashed first, one
    # more than two blocks at 129); a key's padded states are copied for
    # each MAC, never fed themselves
    def check(key, chunks):
        assert wire.mac(key, *chunks) == stdlib_hmac.digest(key, b"".join(chunks), "sha256")
    for pick, chunks in calls:
        check(keys[pick % len(keys)], chunks)
        check(keys[0], chunks)                  # interleaved with a second key
    for key in keys + keys:     # past the cache's size, each key is keyed again
        check(key, [key[:3], b"", key[3:]])
