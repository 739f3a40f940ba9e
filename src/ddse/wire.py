"""Length-prefixed wire protocol and body codecs.

Frame layout: [4-byte big-endian length][1-byte type][body], where the
length covers type + body.  Frames above 64 MiB are refused on both
sides.  Body layouts:

* UPDATE:  [address:32][4-byte len][payload]
    payload = [0][h:1][nonce:12] h x [wrap:16] [body][tag:16], where each
              wrap is the entry's data key under one Bloom position's
              leaf key and body = [magic:8][retrieval] under the data key
* SEARCH:  [tkn:32] alone, for a keyword whose epoch is empty (nothing
           placed or revoked since its last search; the server answers
           from the cache slot), or
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
* HELLO:   [1-byte protocol version]; the server echoes it and refuses
           any other version
* ERROR:   utf-8 message
* BYE:     empty
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

MAX_FRAME = 64 * 1024 * 1024
PROTOCOL_VERSION = 4

ADDRESS_LEN = 32


class FrameError(RuntimeError):
    """Malformed, oversized, or truncated frame."""


def type_name(ftype: int) -> str:
    return _TYPE_NAMES.get(ftype, f"type-{ftype}")


def pack_frame(ftype: int, body: bytes = b"") -> bytes:
    if ftype not in _TYPE_NAMES:
        raise ValueError(f"unknown frame type {ftype}")
    if 1 + len(body) > MAX_FRAME:
        raise FrameError(f"frame of {1 + len(body)} bytes exceeds 64 MiB cap")
    return struct.pack(">IB", 1 + len(body), ftype) + body


def read_frame(stream: BinaryIO) -> tuple[int, bytes]:
    """Read one frame from a blocking stream (e.g. socket.makefile)."""
    header = _read_exact(stream, 4)
    (length,) = struct.unpack(">I", header)
    if length < 1:
        raise FrameError("frame length must cover the type byte")
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds 64 MiB cap")
    rest = _read_exact(stream, length)
    return rest[0], rest[1:]


def _read_exact(stream: BinaryIO, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


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


def decode_search_body(body: bytes, token_only: bool = False
                       ) -> SearchRequest:
    """A full SEARCH body or, if ``token_only`` admits it, the token
    alone, told apart by length: no full body is as short as a token.
    Left out, a body of the token alone is refused as a truncated full
    one, so every proper prefix of a full body stays invalid."""
    if len(body) < TOKEN_LEN:
        raise FrameError("search body too short")
    tkn = bytes(body[:TOKEN_LEN])
    if token_only and len(body) == TOKEN_LEN:
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
    if len(body) < 4:
        raise FrameError("result body too short")
    count = int.from_bytes(body[:4], "big")
    pos = 4
    out = []
    for _ in range(count):
        if len(body) - pos < 4:
            raise FrameError("truncated result list")
        rlen = int.from_bytes(body[pos:pos + 4], "big")
        pos += 4
        if len(body) - pos < rlen:
            raise FrameError("truncated retrieval")
        out.append(bytes(body[pos:pos + rlen]))
        pos += rlen
    if pos != len(body):
        raise FrameError("trailing bytes after result list")
    return out
