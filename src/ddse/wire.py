"""Length-prefixed wire protocol and body codecs.

Frame layout: [4-byte big-endian length][1-byte type][body], where the
length covers type + body.  Frames above 64 MiB are refused on both
sides.  Body layouts:

* UPDATE:  [address:32][4-byte len][payload]
    payload = [0][h:1][nonce:12] h x [wrap:16] [body][tag:16], where each
              wrap is the entry's data key under one Bloom position's
              leaf key and body = [magic:8][retrieval] under the data key
* SEARCH:  [tkn:32] alone, for a keyword whose epoch is empty (nothing
           placed since its last search; the server answers from the
           cache slot), or
           [tkn:32][revoked key][revocation filter][placement token]
    revoked key       = [0][depth:1][count:4] count x [seed:16]
    revocation filter = [b:8][h:1][seed:16][n] n x [gap], where gap
                        counts the clear bits before each set bit
    placement token   = [label id:32][1][depth:1][c] popcount(c) x [seed:16]
  n, gap and c are LEB128 varints.  No node shapes travel: the revoked
  key's nodes are the canonical cover of the runs between the filter's
  set bits, the placement key's that of [0, c) (``ggm.cover``).
* RESULT:  [4-byte count][{4-byte len, retrieval}...]  (search reply)
           or empty (update ack)
* HELLO:   ``HELLO_BODY``, the 1-byte protocol version; the server
           echoes it and refuses any other body
* ERROR:   utf-8 message
* BYE:     empty

``REPLY`` maps each frame type a client may send to the type of its
reply (HELLO and BYE are echoed, UPDATE and SEARCH get a RESULT); an
ERROR may stand in for any of them, and the server refuses every other
type.  The server answers each frame in the order it arrived.  A
client may send several SEARCH frames before reading any reply; their
RESULTs come back in the order the searches were sent.

``read_frame`` raises ``ConnectionClosed``, a ``FrameError``, when the
stream ends before a whole frame arrived, and a plain ``FrameError`` for
a frame it refuses: a peer that hangs up is told nothing, one that sends
a malformed frame is sent an ERROR.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from . import fpdse, sre
from .edb import SearchRequest
from .crypto import TOKEN_LEN

HELLO = 1
UPDATE = 2
SEARCH = 3
RESULT = 4
ERROR = 5
BYE = 6

_TYPE_NAMES = {HELLO: "HELLO", UPDATE: "UPDATE", SEARCH: "SEARCH",
               RESULT: "RESULT", ERROR: "ERROR", BYE: "BYE"}

REPLY = {HELLO: HELLO, UPDATE: RESULT, SEARCH: RESULT, BYE: BYE}

MAX_FRAME = 64 * 1024 * 1024
PROTOCOL_VERSION = 4
HELLO_BODY = bytes([PROTOCOL_VERSION])

ADDRESS_LEN = 32

_U32 = struct.Struct(">I")


class FrameError(RuntimeError):
    """Malformed, oversized, or truncated frame."""


class ConnectionClosed(FrameError):
    """The stream ended at or inside a frame."""


def type_name(ftype: int) -> str:
    return _TYPE_NAMES.get(ftype, f"type-{ftype}")


def pack_frame(ftype: int, body: bytes = b"") -> bytes:
    if ftype not in _TYPE_NAMES:
        raise ValueError(f"unknown frame type {ftype}")
    if 1 + len(body) > MAX_FRAME:
        raise FrameError(f"frame of {1 + len(body)} bytes exceeds 64 MiB cap")
    return struct.pack(">IB", 1 + len(body), ftype) + body


def read_frame(stream: BinaryIO) -> tuple[int, bytes]:
    """Read one frame from a buffered stream (e.g. socket.makefile),
    whose ``read(n)`` returns fewer than ``n`` bytes only at its end."""
    header = stream.read(4)
    if len(header) < 4:
        raise ConnectionClosed("connection closed mid-frame")
    (length,) = struct.unpack(">I", header)
    if length < 1:
        raise FrameError("frame length must cover the type byte")
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds 64 MiB cap")
    rest = stream.read(length)
    if len(rest) < length:
        raise ConnectionClosed("connection closed mid-frame")
    return rest[0], rest[1:]


def encode_update_body(address: bytes, payload: bytes) -> bytes:
    if len(address) != ADDRESS_LEN:
        raise ValueError(f"address must be {ADDRESS_LEN} bytes")
    return address + len(payload).to_bytes(4, "big") + payload


def decode_update_body(body: bytes) -> tuple[bytes, bytes]:
    if len(body) < ADDRESS_LEN + 4:
        raise FrameError("update body too short")
    address = bytes(body[:ADDRESS_LEN])
    plen = int.from_bytes(body[ADDRESS_LEN:ADDRESS_LEN + 4], "big")
    payload = bytes(body[ADDRESS_LEN + 4:])
    if len(payload) != plen:
        raise FrameError("update payload length mismatch")
    return address, payload


def encode_search_body(request: SearchRequest) -> bytes:
    # a token-only request's parts are UNSENT, which encode to nothing
    return (request.tkn + request.revoked_key.encode()
            + request.sigma_token.encode())


def decode_search_body(body: bytes) -> SearchRequest:
    """A SEARCH body in either form, told apart by length: a body of
    exactly the token is the token-only form, and no full body is that
    short.  Every other proper prefix of a full body is refused."""
    if len(body) < TOKEN_LEN:
        raise FrameError("search body too short")
    tkn = bytes(body[:TOKEN_LEN])
    if len(body) == TOKEN_LEN:
        return SearchRequest(tkn)
    try:
        revoked_key, pos = sre.decode_revoked_key(body, TOKEN_LEN)
        sigma_token, pos = fpdse.decode_sigma_token(body, pos)
    except ValueError as exc:
        raise FrameError(f"bad search body: {exc}") from exc
    if pos != len(body):
        raise FrameError("trailing bytes after search body")
    return SearchRequest(tkn, revoked_key, sigma_token)


def encode_result_body(retrievals: list[bytes]) -> bytes:
    out = bytearray(len(retrievals).to_bytes(4, "big"))
    for r in retrievals:
        out += len(r).to_bytes(4, "big")
        out += r
    return bytes(out)


def decode_result_body(body: bytes) -> list[bytes]:
    """The retrievals of a RESULT body, read in one pass; each is one
    slice of ``body``."""
    end = len(body)
    if end < 4:
        raise FrameError("result body too short")
    (count,) = _U32.unpack_from(body)
    pos = 4
    out = []
    for _ in range(count):
        if end - pos < 4:
            raise FrameError("truncated result list")
        (rlen,) = _U32.unpack_from(body, pos)
        pos += 4 + rlen
        if pos > end:
            raise FrameError("truncated retrieval")
        out.append(body[pos - rlen:pos])
    if pos != end:
        raise FrameError("trailing bytes after result list")
    return out
