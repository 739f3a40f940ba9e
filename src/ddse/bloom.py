"""Fixed-capacity Bloom filter with a keyed hash family.

Two roles in the scheme: the client's distinct-state (has this
keyword/value pair been inserted before?) and the revocation set carried
inside revocable-encryption keys.  Both need the same three operations
-- generate empty, insert, probe -- plus a deterministic, serializable
hash family, because the filter crosses the wire and the server must map
tags to the same bit positions the client did.  One ``insert`` serves
both roles: it sets the element's bits and reports whether any was
clear, and ``inserted`` counts only such insertions, so it measures the
filter's load against its capacity in either role.

Positions are read from a keyed expansion of the element,
``SHAKE128(seed || x)``, as 8-byte big-endian words mod ``b``; a word
that repeats an earlier position is skipped, so every element probes
``h`` distinct positions and two elements share a whole position set
only as often as ``h`` independent draws allow.  Membership is
perfectly complete (an inserted element always probes true); only
false positives occur, at a rate fixed by the sizing formula.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from array import array
from itertools import accumulate, chain
from operator import sub
from typing import Sequence

from .crypto import INDEX_TYPE, KEY_LEN, decode_varint, encode_varint

_SEED_LEN = KEY_LEN
HEADER_LEN = 8 + 1 + _SEED_LEN
# Largest filter decode_filter accepts, and so the largest revocation
# domain sre.kgen makes.  The bitmap is allocated from the header alone,
# so this caps what a few bytes on the wire can make the receiver hold
# at 2 MiB.  A domain this size holds over a million revocations at
# p = 1e-3; a key at that budget (half the bits set, a cover node of 16
# bytes per three leaves) would already overflow a 64 MiB frame.
MAX_DECODED_BITS = 1 << 24

# The gap codec's tables: a gap below 0x80 is its own one-byte varint,
# and a run of them becomes steps between set bits by one translate.
_ONE_BYTE = [bytes((gap,)) for gap in range(0x80)]
_PLUS_ONE = bytes(range(1, 0x81)) + bytes(0x80)
_CONTINUATION = re.compile(b"[\x80-\xff]")


def size_for(n: int, p: float) -> tuple[int, int]:
    """Bits and hash count for ``n`` insertions at false-positive rate ``p``.

    b = ceil(-n ln p / (ln 2)^2), h = ceil((b/n) ln 2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    b = math.ceil(-n * math.log(p) / (math.log(2) ** 2))
    h = math.ceil((b / n) * math.log(2))
    return b, h


class BloomFilter:
    """Mutable fixed-size filter; callers needing a snapshot use copy()."""

    __slots__ = ("b", "h", "seed", "bits", "inserted")

    def __init__(self, b: int, h: int, seed: bytes, bits: bytearray | None = None,
                 inserted: int = 0):
        if h < 1:
            raise ValueError("h must be >= 1")
        if b < h:
            raise ValueError("b must be >= h")
        if len(seed) != _SEED_LEN:
            raise ValueError(f"seed must be {_SEED_LEN} bytes")
        self.b = b
        self.h = h
        self.seed = seed
        nbytes = (b + 7) // 8
        if bits is None:
            bits = bytearray(nbytes)
        elif len(bits) != nbytes:
            raise ValueError("bit array length does not match b")
        self.bits = bits
        self.inserted = inserted  # insertions that set a bit

    def positions(self, x: bytes) -> list[int]:
        b, h = self.b, self.h
        words = h
        while True:
            stream = hashlib.shake_128(self.seed + x).digest(8 * words)
            # first occurrences, in order; a longer read of the same
            # stream only appends, so the first h never change
            out = list(dict.fromkeys(
                w % b for w in struct.unpack(f">{words}Q", stream)))
            if len(out) >= h:
                return out[:h]
            words *= 2

    def insert(self, x: bytes) -> bool:
        """Set ``x``'s bits; report whether one was clear, i.e. whether
        ``check(x)`` was false.  Only such an insertion counts."""
        bits = self.bits
        fresh = False
        for pos in self.positions(x):
            mask = 0x80 >> (pos & 7)
            if not bits[pos >> 3] & mask:
                bits[pos >> 3] |= mask
                fresh = True
        if fresh:
            self.inserted += 1
        return fresh

    def check(self, x: bytes) -> bool:
        bits = self.bits
        for pos in self.positions(x):
            if not bits[pos >> 3] & (0x80 >> (pos & 7)):
                return False
        return True

    def set_bits(self) -> list[int]:
        """Indices of set bits, ascending."""
        # bit i is character i of the big-endian binary string; the scan
        # runs in C but still costs O(b) time and b bytes of string,
        # whatever the fill
        text = format(int.from_bytes(self.bits, "big"), f"0{len(self.bits) * 8}b")
        return [m.start() for m in re.finditer("1", text)]

    def copy(self) -> "BloomFilter":
        return BloomFilter(self.b, self.h, self.seed, bytearray(self.bits),
                           self.inserted)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BloomFilter)
                and (self.b, self.h, self.seed) == (other.b, other.h, other.seed)
                and self.bits == other.bits)

    def encode(self, ones: Sequence[int] | None = None) -> bytes:
        """[b:8][h:1][seed:16], the number of set bits, then before each
        set bit the number of clear bits since the previous one; counts
        are encode_varint values.

        ``ones``, if given, must be the set bits, ascending: a caller
        that already holds them (a revoked key's holes) spares the O(b)
        scan of ``set_bits``.
        """
        if ones is None:
            ones = self.set_bits()
        return (self.b.to_bytes(8, "big") + bytes([self.h]) + self.seed
                + encode_varint(len(ones)) + b"".join([
                    _ONE_BYTE[gap] if gap < 0x80 else encode_varint(gap)
                    # gap = pos - (previous pos + 1)
                    for gap in map(sub, ones,
                                   chain((0,), map((1).__add__, ones)))]))

    @property
    def encoded_size(self) -> int:
        return len(self.encode())


def decode_filter(data: bytes, offset: int = 0
                  ) -> tuple[BloomFilter, array, int]:
    """Decode a BloomFilter at ``offset``; returns (filter, its set bits
    ascending, next offset)."""
    if len(data) - offset < HEADER_LEN:
        raise ValueError("truncated bloom filter header")
    b = int.from_bytes(data[offset:offset + 8], "big")
    if b > MAX_DECODED_BITS:
        raise ValueError(f"bloom filter of {b} bits is too large to decode")
    filt = BloomFilter(b, data[offset + 8],
                       bytes(data[offset + 9:offset + HEADER_LEN]))
    count, pos = decode_varint(data, offset + HEADER_LEN)
    # steps[k] = ones[k] - ones[k-1] = gap + 1.  A run of one-byte gaps
    # is taken from the body whole, up to the next continuation byte or
    # the end of the body; the varint there is read alone, and raises if
    # the body ends first.  Nothing is sized by ``count``.
    steps = array(INDEX_TYPE)
    left = count
    while left:
        end = pos + left
        multi = _CONTINUATION.search(data, pos, end)
        stop = multi.start() if multi else min(end, len(data))
        steps.extend(data[pos:stop].translate(_PLUS_ONE))
        left -= stop - pos
        pos = stop
        if left:
            gap, pos = decode_varint(data, pos)
            if gap >= b:
                raise ValueError("set bit beyond the end of the bloom filter")
            steps.append(gap + 1)
            left -= 1
    if steps:
        steps[0] -= 1
        if sum(steps) >= b:
            raise ValueError("set bit beyond the end of the bloom filter")
    # a set bit costs at least one wire byte; an array holds it in 4
    ones = array(INDEX_TYPE, accumulate(steps))
    del steps
    bits = filt.bits
    for ix in ones:
        bits[ix >> 3] |= 0x80 >> (ix & 7)
    return filt, ones, pos
