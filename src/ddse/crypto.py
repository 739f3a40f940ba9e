"""Shared symmetric primitives: PRFs, a SHA-256 keystream, key and
nonce sizes, and the length framing and varints the formats use.  The
GGM tree's length-doubling PRG is SHA-256 of a seed, expanded inline
where the tree is walked (``ggm``).

Everything here is deterministic given its key material; randomness is
injected only through ``fresh_key``/``fresh_nonce`` so the protocol
layers stay testable.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from array import array

KEY_LEN = 16  # lambda/8 for the default security parameter (128 bit)
TAG_LEN = 16
TOKEN_LEN = 32
NONCE_LEN = 12
GCM_TAG_LEN = 16  # AES-GCM authentication tag
# array typecode for leaf and bit indices: unsigned, at least 32 bits,
# so any leaf of a depth-32 tree fits ("I" is 4 bytes where it can be)
INDEX_TYPE = "I" if array("I").itemsize >= 4 else "L"


def fresh_key(n: int = KEY_LEN) -> bytes:
    return secrets.token_bytes(n)


def fresh_nonce() -> bytes:
    return secrets.token_bytes(NONCE_LEN)


def prf(key: bytes, msg: bytes, out_len: int = TOKEN_LEN) -> bytes:
    """HMAC-SHA256, truncated.  out_len <= 32."""
    if not 0 < out_len <= 32:
        raise ValueError("prf output length must be in 1..32")
    return hmac.digest(key, msg, "sha256")[:out_len]


def encode_parts(*parts: bytes) -> bytes:
    """Length-framed concatenation, so PRF inputs cannot collide across
    different (part, part) splits of the same byte string."""
    out = bytearray()
    for p in parts:
        out += len(p).to_bytes(4, "big")
        out += p
    return bytes(out)


def encode_varint(n: int) -> bytes:
    """Unsigned LEB128: seven bits per byte, least significant first."""
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def decode_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Read one encode_varint value at ``pos``; returns (value, next pos).

    Only the shortest encoding of a value below 2^63 is accepted, so
    every value has exactly one byte string.
    """
    value = shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if byte == 0 and shift:
                raise ValueError("overlong varint")
            return value, pos
        shift += 7
        if shift > 56:
            raise ValueError("varint too long")


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with a SHA-256-derived keystream.

    Keystream block i = SHA256(key || nonce || i).  With a fresh nonce per
    call this is IND-CPA in the random-oracle model; callers that need
    integrity frame the plaintext (see ddse.sre).  Encrypt == decrypt.
    """
    n = len(data)
    if n == 0:
        return b""
    base = key + nonce
    if n <= 32:  # one block: every SRE wrap
        ks = hashlib.sha256(base + bytes(4)).digest()
    else:
        ks = b"".join([hashlib.sha256(base + i.to_bytes(4, "big")).digest()
                       for i in range((n + 31) // 32)])
    x = int.from_bytes(data, "big") ^ int.from_bytes(ks[:n], "big")
    return x.to_bytes(n, "big")
