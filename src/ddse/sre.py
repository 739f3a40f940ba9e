"""Symmetric revocable encryption over a Bloom-filter revocation set.

A ciphertext is bound to a tag.  Encryption produces one component per
filter hash function, each encrypted under the GGM leaf keyed by that
hash position of the tag.  Revoking a tag sets its positions in the
filter ``D``; the derived key (``ck_rev``) is the master tree punctured
at every set bit, so a revoked tag has no surviving component while any
other tag still has one with overwhelming probability (a false positive
of the filter kills an innocent tag at the filter's FP rate -- the price
of compressed revocation state).

Components carry a validity frame [8-byte magic | 4-byte length |
payload]; decryption under a hole-free key recovers the frame exactly,
anything else fails the check with probability 1 - 2^-64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from . import bloom, ggm
from .crypto import (KEY_LEN, NONCE_LEN, fresh_key, fresh_nonce, prg,
                     stream_xor)

logger = logging.getLogger(__name__)

MAGIC = b"SREVALID"
_FRAME_OVERHEAD = len(MAGIC) + 4


@dataclass(frozen=True)
class SreMasterKey:
    sk: ggm.GgmRoot
    D: bloom.BloomFilter  # pristine revocation filter; callers evolve a copy

    @property
    def b(self) -> int:
        return self.D.b

    @property
    def h(self) -> int:
        return self.D.h


@dataclass(frozen=True)
class SreCiphertext:
    components: tuple[tuple[bytes, bytes], ...]  # (nonce, body) per hash fn

    @property
    def h(self) -> int:
        return len(self.components)

    def encode(self) -> bytes:
        out = bytearray([len(self.components)])
        for nonce, body in self.components:
            out += nonce
            out += len(body).to_bytes(4, "big")
            out += body
        return bytes(out)


def decode_ciphertext(data: bytes, offset: int = 0) -> tuple[SreCiphertext, int]:
    if len(data) - offset < 1:
        raise ValueError("truncated ciphertext")
    h = data[offset]
    pos = offset + 1
    comps = []
    for _ in range(h):
        if len(data) - pos < NONCE_LEN + 4:
            raise ValueError("truncated ciphertext component")
        nonce = bytes(data[pos:pos + NONCE_LEN])
        blen = int.from_bytes(data[pos + NONCE_LEN:pos + NONCE_LEN + 4], "big")
        pos += NONCE_LEN + 4
        if len(data) - pos < blen:
            raise ValueError("truncated ciphertext body")
        comps.append((nonce, bytes(data[pos:pos + blen])))
        pos += blen
    return SreCiphertext(tuple(comps)), pos


@dataclass(frozen=True)
class RevokedKey:
    """What the server gets: punctured tree + the filter snapshot that
    defines the tag->position mapping.  The key is punctured at exactly
    the filter's set bits, so only its seeds are encoded."""

    key: ggm.DelegatedKey
    filter: bloom.BloomFilter

    def encode(self) -> bytes:
        return self.key.encode() + self.filter.encode()


def decode_revoked_key(data: bytes, offset: int = 0) -> tuple[RevokedKey, int]:
    """Seeds, then the filter; the key's shapes are the cover of the
    gaps between the filter's set bits, as ``ck_rev`` punctured them."""
    depth, seeds, pos = ggm.decode_punctured_seeds(data, offset)
    filt, holes, pos = bloom.decode_filter(data, pos)
    if filt.b != 1 << depth:
        raise ValueError("filter size does not match key domain")
    return RevokedKey(ggm.punctured_key(depth, holes, seeds), filt), pos


def kgen(b: int, h: int, *, lam: int = 128) -> SreMasterKey:
    """Fresh master key over a 2^depth = b tag-position domain."""
    if lam != 128:
        raise ValueError("only lambda = 128 is supported")
    if b < 2 or b & (b - 1):
        raise ValueError("b must be a power of two >= 2")
    if b > bloom.MAX_DECODED_BITS:
        # its revocation filter could not cross the wire
        raise ValueError(f"b must be at most {bloom.MAX_DECODED_BITS}")
    if not 1 <= h <= b:
        raise ValueError("h must be in 1..b")
    depth = b.bit_length() - 1
    sk = ggm.gen_root(fresh_key(KEY_LEN), depth)
    D = bloom.BloomFilter.gen(b, h, fresh_key(KEY_LEN))
    return SreMasterKey(sk, D)


def enc(msk: SreMasterKey, payload: bytes, tag: bytes) -> SreCiphertext:
    """One component per hash position of ``tag``, all carrying ``payload``."""
    framed = MAGIC + len(payload).to_bytes(4, "big") + payload
    comps = []
    for pos in msk.D.positions(tag):
        key = msk.sk.eval(pos)
        nonce = fresh_nonce()
        comps.append((nonce, stream_xor(key, nonce, framed)))
    return SreCiphertext(tuple(comps))


def comp(D: bloom.BloomFilter, tag: bytes) -> bloom.BloomFilter:
    """Revoke ``tag``: returns an updated copy, the input stays intact."""
    return D.copy().upd(tag)


def ck_rev(sk: ggm.GgmRoot, D: bloom.BloomFilter) -> RevokedKey:
    """Derived key covering every position except D's set bits.

    Deterministic: equal (sk, D) give byte-identical keys.
    """
    if D.b != sk.leaves:
        raise ValueError("filter size does not match key domain")
    return RevokedKey(sk.puncture(D.set_bits()), D.copy())


class SubkeyStore:
    """Greedy reuse of tree seeds across a batch of decryptions.

    Last-in-first-out store of unexpanded node seeds: each lookup pops
    the most recent covering candidate instead of re-deriving from the
    punctured key, then pushes the siblings passed on the way down.
    Bounded; eviction drops the oldest entries.
    """

    def __init__(self, key: ggm.DelegatedKey, max_entries: int = 512):
        self._key = key
        self._stack: list[tuple[int, int, bytes]] = []  # (start, height, seed)
        self._max = max_entries

    def leaf(self, index: int) -> Optional[bytes]:
        stack = self._stack
        start = height = seed = None
        for j in range(len(stack) - 1, -1, -1):
            s, h, sd = stack[j]
            if s <= index < s + (1 << h):
                start, height, seed = s, h, sd
                del stack[j]
                break
        if seed is None:
            located = self._key._locate(index)
            if located is None:
                return None
            node, offset = located
            height = self._key.depth - node.plen
            start = index - offset
            seed = node.seed
        while height > 0:
            out = prg(seed)
            height -= 1
            half = 1 << height
            if index < start + half:
                stack.append((start + half, height, out[16:]))
                seed = out[:16]
            else:
                stack.append((start, height, out[:16]))
                seed = out[16:]
                start += half
        if len(stack) > self._max:
            del stack[:len(stack) - self._max]
        return seed


def dec(rk: RevokedKey, ct: SreCiphertext, tag: bytes,
        store: Optional[SubkeyStore] = None) -> Optional[bytes]:
    """Payload from the first unrevoked component, or None.

    None means every hash position of ``tag`` is punctured (the tag was
    revoked, or collided with revoked positions) or the frame check
    failed.
    """
    if ct.h != rk.filter.h:
        raise ValueError("component count does not match filter hash count")
    if store is not None and store._key is not rk.key:
        raise ValueError("subkey store built for a different key")
    for i, pos in enumerate(rk.filter.positions(tag)):
        key = store.leaf(pos) if store is not None else rk.key.eval(pos)
        if key is None:
            continue
        nonce, body = ct.components[i]
        framed = stream_xor(key, nonce, body)
        if len(framed) < _FRAME_OVERHEAD or framed[:8] != MAGIC:
            return None
        plen = int.from_bytes(framed[8:12], "big")
        if len(framed) != _FRAME_OVERHEAD + plen:
            return None
        return framed[_FRAME_OVERHEAD:]
    return None
