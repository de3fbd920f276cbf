"""Attestation wire formats and message authentication.

Three message types flow between the device and the verifier:

    request   0x00 | app_id(2) | delta(8) | chal(64) | mac(32)
    report    0x01 | sigma(32) | log_size(4) | log bytes
    response  0x02 | result(1) | next_chal(64) | sigma(32)

All integers are big-endian. A challenge is a 64-byte big-endian counter;
freshness is enforced by requiring it to increase monotonically. The
report's sigma binds the program-memory digest, the log slice, and the
challenge under HMAC-SHA256, so the receiver recomputes it with the digest
it EXPECTS and a modified program or log surfaces as a MAC mismatch.

A request or a response is read in one call, ``open``: it checks the
framing, then the MAC over the bytes received, and decodes only what
authenticates. Anything else opens to None.
"""

from __future__ import annotations

import functools
import hmac
import struct
from dataclasses import dataclass

MSG_REQUEST = 0x00
MSG_REPORT = 0x01
MSG_RESPONSE = 0x02

RESULT_EXEC = 0x01
RESULT_END = 0x02
RESULT_HEAL = 0x03
RESULT_NAMES = {RESULT_EXEC: "exec", RESULT_END: "end", RESULT_HEAL: "heal"}

CHAL_WIDTH = 64
MAC_WIDTH = 32
REQUEST_WIDTH = 1 + 2 + 8 + CHAL_WIDTH + MAC_WIDTH
RESPONSE_WIDTH = 1 + 1 + CHAL_WIDTH + MAC_WIDTH
REPORT_HEADER_WIDTH = 1 + MAC_WIDTH + 4

_U32 = struct.Struct(">I")
_REQUEST_HEAD = struct.Struct(">BHQ")          # type, app_id, delta
_REPORT_TAG = bytes((MSG_REPORT,))


# keys kept keyed: a device's and its verifier's, with room to spare
KEYED_CACHE_SIZE = 8


@functools.lru_cache(maxsize=KEYED_CACHE_SIZE)
def _keyed(key: bytes) -> hmac.HMAC:
    """HMAC-SHA256 keyed with ``key`` and fed nothing. Shared: only its
    copies are fed."""
    return hmac.new(key, digestmod="sha256")


def mac(key: bytes, *chunks: bytes) -> bytes:
    """HMAC-SHA256 of the chunks' concatenation, started from a copy of the
    key's keyed state instead of keying afresh."""
    state = _keyed(key).copy()
    state.update(b"".join(chunks))
    return state.digest()


def macs_equal(a: bytes, b: bytes) -> bool:
    return hmac.compare_digest(a, b)


def chal_bytes(value: int) -> bytes:
    return value.to_bytes(CHAL_WIDTH, "big")


@dataclass(frozen=True)
class AttestRequest:
    app_id: int
    delta: int
    chal: int

    def pack(self, key: bytes) -> bytes:
        body = _REQUEST_HEAD.pack(MSG_REQUEST, self.app_id, self.delta) \
            + chal_bytes(self.chal)
        return body + mac(key, body)

    @classmethod
    def open(cls, key: bytes, data: bytes) -> "AttestRequest | None":
        """The request ``data`` holds if its MAC over the body received
        checks under ``key``; None for anything else."""
        if len(data) != REQUEST_WIDTH or data[0] != MSG_REQUEST \
                or not macs_equal(mac(key, data[:-MAC_WIDTH]), data[-MAC_WIDTH:]):
            return None
        _, app_id, delta = _REQUEST_HEAD.unpack_from(data)
        chal = data[_REQUEST_HEAD.size:-MAC_WIDTH]
        return cls(app_id, delta, int.from_bytes(chal, "big"))


@dataclass(frozen=True)
class Report:
    sigma: bytes
    log: bytes

    def pack(self) -> bytes:
        return b"".join((_REPORT_TAG, self.sigma, _U32.pack(len(self.log)), self.log))

    @classmethod
    def parse(cls, data: bytes) -> "Report | None":
        """The report ``data`` holds if its framing and log size check;
        None for anything else."""
        if len(data) < REPORT_HEADER_WIDTH or data[0] != MSG_REPORT \
                or _U32.unpack_from(data, 1 + MAC_WIDTH)[0] != len(data) - REPORT_HEADER_WIDTH:
            return None
        return cls(data[1:1 + MAC_WIDTH], data[REPORT_HEADER_WIDTH:])


def report_sigma(key: bytes, digest: bytes, log: bytes, chal: int) -> bytes:
    """Evidence MAC: binds program digest, slice size, slice bytes, challenge."""
    return mac(key, digest, _U32.pack(len(log)), log, chal_bytes(chal))


@dataclass(frozen=True)
class Response:
    result: int
    chal: int            # challenge for the NEXT report
    sigma: bytes

    @classmethod
    def make(cls, key: bytes, result: int, chal: int) -> "Response":
        return cls(result, chal, mac(key, chal_bytes(chal), bytes((result,))))

    def pack(self) -> bytes:
        return b"".join((bytes((MSG_RESPONSE, self.result)), chal_bytes(self.chal),
                         self.sigma))

    @classmethod
    def open(cls, key: bytes, data: bytes) -> "Response | None":
        """The response ``data`` holds if its MAC over the challenge and
        result bytes received checks under ``key``; None for anything
        else."""
        result = response_result(data)
        if result is None:
            return None
        chal, sigma = data[2:2 + CHAL_WIDTH], data[-MAC_WIDTH:]
        if not macs_equal(mac(key, chal, data[1:2]), sigma):
            return None
        return cls(result, int.from_bytes(chal, "big"), sigma)


def message_type(data: bytes) -> int | None:
    return data[0] if data else None


def response_result(data: bytes) -> int | None:
    """The result byte of a well-framed response, read without parsing it;
    None for any other message."""
    if len(data) != RESPONSE_WIDTH or data[0] != MSG_RESPONSE:
        return None
    return data[1]
