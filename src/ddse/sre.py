"""Symmetric revocable encryption over a Bloom-filter revocation set.

A ciphertext is bound to a tag.  Encryption is hybrid: the payload is
encrypted once under a fresh data key, and that key is wrapped under the
GGM leaf keyed by each of the tag's ``h`` filter positions.  Revoking a
tag sets its positions in the filter ``D``; the derived key (``ck_rev``)
is the master tree punctured at every set bit, so a revoked tag has no
surviving wrap, and so no data key, while any other tag still has one
with overwhelming probability (a false positive of the filter kills an
innocent tag at the filter's FP rate -- the price of compressed
revocation state).

Encoding: [0][h:1][nonce:12] h x [wrap:16] [body], where each wrap is
the data key under one leaf key and the body is [8-byte magic | payload]
under the data key, all with the one nonce (the h + 1 keys are
distinct).  The body runs to the end of the encoding.  Decryption
unwraps with the first unpunctured position; a wrong key fails the magic
check with probability 1 - 2^-64.  The leading zero byte is the format:
the previous layout began with h >= 1, and is refused.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from . import bloom, ggm
from .crypto import KEY_LEN, NONCE_LEN, fresh_key, fresh_nonce, stream_xor

logger = logging.getLogger(__name__)

MAGIC = b"SREVALID"
FORMAT = 0
_HEAD = 2 + NONCE_LEN


@dataclass(frozen=True)
class SreMasterKey:
    sk: ggm.GgmRoot
    D: bloom.BloomFilter  # the current revocation filter


@dataclass(frozen=True)
class SreCiphertext:
    nonce: bytes
    wraps: tuple[bytes, ...]  # the data key under each position's leaf key
    body: bytes               # MAGIC + payload under the data key

    @property
    def h(self) -> int:
        return len(self.wraps)

    def encode(self) -> bytes:
        return (bytes([FORMAT, self.h]) + self.nonce + b"".join(self.wraps)
                + self.body)


def decode_ciphertext(data: bytes) -> SreCiphertext:
    """Decode a whole encoding: the body is whatever follows the wraps."""
    if len(data) < _HEAD or data[0] != FORMAT:
        raise ValueError("not a hybrid SRE ciphertext")
    h = data[1]
    wraps_end = _HEAD + KEY_LEN * h
    if h < 1 or len(data) < wraps_end + len(MAGIC):
        raise ValueError("truncated ciphertext")
    data = bytes(data)  # no copy of bytes: its slices are the fields
    wraps = tuple([data[i:i + KEY_LEN]
                   for i in range(_HEAD, wraps_end, KEY_LEN)])
    return SreCiphertext(data[2:_HEAD], wraps, data[wraps_end:])


@dataclass(frozen=True)
class RevokedKey:
    """What the server gets: punctured tree + the filter snapshot that
    defines the tag->position mapping.  The key is punctured at exactly
    the filter's set bits, so only its seeds are encoded."""

    key: ggm.DelegatedKey
    filter: bloom.BloomFilter

    def encode(self) -> bytes:
        # the key's holes are the filter's set bits: no second scan
        return self.key.encode() + self.filter.encode(self.key.shape)


def decode_revoked_key(data: bytes, offset: int = 0) -> tuple[RevokedKey, int]:
    """Seeds, then the filter; the key's holes are the filter's set
    bits, as ``ck_rev`` punctured them."""
    depth, seeds, pos = ggm.decode_punctured_seeds(data, offset)
    filt, holes, pos = bloom.decode_filter(data, pos)
    if filt.b != 1 << depth:
        raise ValueError("filter size does not match key domain")
    return RevokedKey(ggm.DelegatedKey(ggm.PUNCTURED, depth, holes, seeds),
                      filt), pos


def kgen(b: int, h: int) -> SreMasterKey:
    """Fresh master key over a 2^depth = b tag-position domain."""
    if b < 2 or b & (b - 1):
        raise ValueError("b must be a power of two >= 2")
    if b > bloom.MAX_DECODED_BITS:
        # its revocation filter could not cross the wire
        raise ValueError(f"b must be at most {bloom.MAX_DECODED_BITS}")
    if not 1 <= h <= b:
        raise ValueError("h must be in 1..b")
    depth = b.bit_length() - 1
    sk = ggm.GgmRoot(fresh_key(KEY_LEN), depth)
    D = bloom.BloomFilter(b, h, fresh_key(KEY_LEN))
    return SreMasterKey(sk, D)


def enc(msk: SreMasterKey, payload: bytes, tag: bytes) -> SreCiphertext:
    """``payload`` once under a fresh data key, wrapped at every hash
    position of ``tag``."""
    dk = fresh_key(KEY_LEN)
    nonce = fresh_nonce()
    wraps = tuple(stream_xor(msk.sk.eval(pos), nonce, dk)
                  for pos in msk.D.positions(tag))
    return SreCiphertext(nonce, wraps, stream_xor(dk, nonce, MAGIC + payload))


def comp(D: bloom.BloomFilter, tag: bytes) -> bloom.BloomFilter:
    """Revoke ``tag``: returns an updated copy, the input stays intact."""
    D = D.copy()
    D.insert(tag)
    return D


def ck_rev(sk: ggm.GgmRoot, D: bloom.BloomFilter) -> RevokedKey:
    """Derived key covering every position except D's set bits.

    Deterministic: equal (sk, D) give byte-identical keys.
    """
    if D.b != sk.leaves:
        raise ValueError("filter size does not match key domain")
    return RevokedKey(sk.puncture(D.set_bits()), D.copy())


class SubkeyStore:
    """``DelegatedKey.eval`` under another name: the benchmark's tracer
    wraps ``sre.SubkeyStore.leaf`` by name (``ddsebench/tracing.py``),
    so deleting the class crashes a traced run.  It goes when the tracer
    skips a name that is gone.  No production path uses it:
    ``EncryptedDatabase.execute_search`` calls ``dec``.
    """

    def __init__(self, key: ggm.DelegatedKey):
        self._key = key

    def leaf(self, index: int) -> Optional[bytes]:
        return self._key.eval(index)


def dec(rk: RevokedKey, ct: SreCiphertext, tag: bytes) -> Optional[bytes]:
    """Payload under the data key from the first unrevoked wrap, or None.

    None means every hash position of ``tag`` is punctured (the tag was
    revoked, or collided with revoked positions) or the magic check
    failed.  The key's holes are exactly the filter's set bits, so a
    position is tested in the filter before any key work: a revoked
    entry costs ``h`` bit tests, a live one a single leaf evaluation.
    """
    if ct.h != rk.filter.h:
        raise ValueError("wrap count does not match filter hash count")
    bits = rk.filter.bits
    for i, pos in enumerate(rk.filter.positions(tag)):
        if bits[pos >> 3] & (0x80 >> (pos & 7)):
            continue  # a hole of the key
        key = rk.key.eval(pos)
        if key is None:
            continue
        dk = stream_xor(key, ct.nonce, ct.wraps[i])
        framed = stream_xor(dk, ct.nonce, ct.body)
        if framed[:len(MAGIC)] != MAGIC:
            return None
        return framed[len(MAGIC):]
    return None
