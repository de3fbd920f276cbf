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
"""

from __future__ import annotations

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


class WireError(Exception):
    """Structurally invalid message."""


def mac(key: bytes, *chunks: bytes) -> bytes:
    return hmac.digest(key, b"".join(chunks), "sha256")


def macs_equal(a: bytes, b: bytes) -> bool:
    return hmac.compare_digest(a, b)


def chal_bytes(value: int) -> bytes:
    return value.to_bytes(CHAL_WIDTH, "big")


def chal_value(data: bytes) -> int:
    if len(data) != CHAL_WIDTH:
        raise WireError(f"challenge must be {CHAL_WIDTH} bytes")
    return int.from_bytes(data, "big")


@dataclass(frozen=True)
class AttestRequest:
    app_id: int
    delta: int
    chal: int

    def body(self) -> bytes:
        return struct.pack(">BHQ", MSG_REQUEST, self.app_id, self.delta) \
            + chal_bytes(self.chal)

    def pack(self, key: bytes) -> bytes:
        body = self.body()
        return body + mac(key, body)

    @classmethod
    def parse(cls, data: bytes) -> tuple["AttestRequest", bytes]:
        if len(data) != REQUEST_WIDTH or data[0] != MSG_REQUEST:
            raise WireError("bad request framing")
        _, app_id, delta = struct.unpack_from(">BHQ", data)
        chal = chal_value(data[11:11 + CHAL_WIDTH])
        return cls(app_id, delta, chal), data[-MAC_WIDTH:]

    def verify(self, key: bytes, tag: bytes) -> bool:
        return macs_equal(mac(key, self.body()), tag)


@dataclass(frozen=True)
class Report:
    sigma: bytes
    log: bytes

    def pack(self) -> bytes:
        return struct.pack(">B", MSG_REPORT) + self.sigma \
            + struct.pack(">I", len(self.log)) + self.log

    @classmethod
    def parse(cls, data: bytes) -> "Report":
        if len(data) < REPORT_HEADER_WIDTH or data[0] != MSG_REPORT:
            raise WireError("bad report framing")
        sigma = data[1:1 + MAC_WIDTH]
        (size,) = struct.unpack_from(">I", data, 1 + MAC_WIDTH)
        log = data[REPORT_HEADER_WIDTH:]
        if len(log) != size:
            raise WireError("report log size mismatch")
        return cls(sigma, log)


def report_sigma(key: bytes, digest: bytes, log: bytes, chal: int) -> bytes:
    """Evidence MAC: binds program digest, slice size, slice bytes, challenge."""
    return mac(key, digest, struct.pack(">I", len(log)), log, chal_bytes(chal))


@dataclass(frozen=True)
class Response:
    result: int
    chal: int            # challenge for the NEXT report
    sigma: bytes

    @classmethod
    def make(cls, key: bytes, result: int, chal: int) -> "Response":
        sigma = mac(key, chal_bytes(chal), struct.pack(">B", result))
        return cls(result, chal, sigma)

    def pack(self) -> bytes:
        return struct.pack(">BB", MSG_RESPONSE, self.result) \
            + chal_bytes(self.chal) + self.sigma

    @classmethod
    def parse(cls, data: bytes) -> "Response":
        if len(data) != RESPONSE_WIDTH or data[0] != MSG_RESPONSE:
            raise WireError("bad response framing")
        result = data[1]
        chal = chal_value(data[2:2 + CHAL_WIDTH])
        return cls(result, chal, data[-MAC_WIDTH:])

    def verify(self, key: bytes) -> bool:
        good = mac(key, chal_bytes(self.chal), struct.pack(">B", self.result))
        return macs_equal(good, self.sigma)


def message_type(data: bytes) -> int | None:
    return data[0] if data else None
