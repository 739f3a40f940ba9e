"""GGM-tree PRF with puncturing and range constraining.

A binary tree of depth ``d`` is grown from a root seed with a
length-doubling PRG; the value of leaf ``i`` is the seed reached by
walking ``i``'s bits most-significant first (0 = left/low half,
1 = right/high half).  Handing out internal-node seeds delegates
evaluation of exactly that subtree, which gives the two key shapes the
protocols need:

* *punctured* keys -- the minimal prefix-free cover of all leaves except
  a revoked set (the receiver can evaluate everything but the holes),
* *range-constrained* keys -- the canonical cover of ``[0, count)``,
  used to let a server derive the first ``count`` addresses of a chain.

Keys and roots are immutable; every operation is deterministic, so the
same revocation set always serializes to the same bytes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from hashlib import sha256
from typing import Iterable, Iterator, NamedTuple, Optional

from .crypto import KEY_LEN

PUNCTURED = "punctured"
RANGE = "range"

_KIND_CODES = {PUNCTURED: 0, RANGE: 1}
_KIND_NAMES = {0: PUNCTURED, 1: RANGE}

MAX_DEPTH = 32

# The length-doubling PRG (crypto.prg) is called millions of times per
# large token, so the loops below expand sha256 inline; left child is
# the low half of the digest, right child the high half.


def _walk(seed: bytes, path: int, nbits: int) -> bytes:
    for i in range(nbits - 1, -1, -1):
        out = sha256(seed).digest()
        seed = out[16:] if (path >> i) & 1 else out[:16]
    return seed


class KeyNode(NamedTuple):
    """Internal-node seed delegating one aligned subtree.

    ``prefix`` is the node's path (``plen`` bits); the node covers leaves
    [prefix << (depth-plen), (prefix+1) << (depth-plen)).
    """

    prefix: int
    plen: int
    seed: bytes


@dataclass(frozen=True)
class GgmRoot:
    seed: bytes
    depth: int

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {self.depth}")
        if len(self.seed) != KEY_LEN:
            raise ValueError(f"seed must be {KEY_LEN} bytes")

    @property
    def leaves(self) -> int:
        return 1 << self.depth

    def _check_index(self, index: int):
        if not 0 <= index < self.leaves:
            raise ValueError(f"leaf index {index} outside [0, 2^{self.depth})")

    def eval(self, index: int) -> bytes:
        self._check_index(index)
        return _walk(self.seed, index, self.depth)

    def puncture(self, indices: Iterable[int]) -> "DelegatedKey":
        """Delegated key covering every leaf except ``indices``.

        An empty set yields the full-coverage single-node key.  The cover
        is the canonical minimal prefix-free one, so equal revocation sets
        produce byte-identical keys.
        """
        holes = sorted(set(indices))
        for ix in holes:
            self._check_index(ix)
        depth = self.depth
        nodes: list[KeyNode] = []
        append = nodes.append
        # depth-first over (subtree, hole slice); right child pushed first
        # so the emitted cover is already in ascending leaf order
        stack = [(self.seed, 0, 0, 0, len(holes))]
        while stack:
            seed, prefix, plen, lo, hi = stack.pop()
            if lo == hi:
                append(KeyNode(prefix, plen, seed))
                continue
            if plen == depth:
                continue  # punctured leaf: contribute nothing
            height = depth - plen
            mid = (prefix << height) + (1 << (height - 1))
            split = bisect_right(holes, mid - 1, lo, hi)
            out = sha256(seed).digest()
            stack.append((out[16:], (prefix << 1) | 1, plen + 1, split, hi))
            stack.append((out[:16], prefix << 1, plen + 1, lo, split))
        return DelegatedKey(PUNCTURED, depth, tuple(nodes))

    def constrain_range(self, count: int) -> "DelegatedKey":
        """Delegated key covering exactly leaves [0, count).

        1 <= count <= 2^depth; count == 2^depth yields the single root
        node.  At most ``depth`` nodes (one per set bit of ``count``).
        """
        if not 1 <= count <= self.leaves:
            raise ValueError(f"count {count} outside [1, 2^{self.depth}]")
        nodes = []
        start = 0
        for j in range(self.depth, -1, -1):
            if (count >> j) & 1:
                plen = self.depth - j
                prefix = start >> j
                nodes.append(KeyNode(prefix, plen, _walk(self.seed, prefix, plen)))
                start += 1 << j
        return DelegatedKey(RANGE, self.depth, tuple(nodes))


def gen_root(seed: bytes, depth: int) -> GgmRoot:
    return GgmRoot(seed, depth)


@dataclass(frozen=True)
class DelegatedKey:
    """Prefix-free bundle of subtree seeds; evaluates covered leaves only."""

    kind: str
    depth: int
    nodes: tuple[KeyNode, ...]

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown key kind {self.kind!r}")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError("bad depth")
        # nodes must come in canonical order, ascending first-covered leaf:
        # the order encode() writes and puncture/constrain_range build
        starts = []
        end = 0
        for prefix, plen, _ in self.nodes:
            if not 0 <= plen <= self.depth:
                raise ValueError("node prefix longer than depth")
            if not 0 <= prefix < (1 << plen):
                raise ValueError("prefix value does not fit its bit length")
            height = self.depth - plen
            start = prefix << height
            if start < end:
                raise ValueError("nodes overlap or are out of ascending order")
            starts.append(start)
            end = start + (1 << height)
        object.__setattr__(self, "_starts", starts)

    @property
    def covered_count(self) -> int:
        return sum(1 << (self.depth - n.plen) for n in self.nodes)

    @property
    def range_bound(self) -> int:
        """For range keys: the count c such that leaves [0, c) are covered."""
        if self.kind != RANGE:
            raise ValueError("range_bound is defined for range keys only")
        return self.covered_count

    def _locate(self, index: int) -> Optional[tuple[KeyNode, int]]:
        if not 0 <= index < (1 << self.depth) or not self.nodes:
            return None
        starts = self._starts
        pos = bisect_right(starts, index) - 1
        if pos < 0:
            return None
        node = self.nodes[pos]
        height = self.depth - node.plen
        offset = index - starts[pos]
        if offset >= (1 << height):
            return None
        return node, offset

    def covers(self, index: int) -> bool:
        return self._locate(index) is not None

    def eval(self, index: int) -> Optional[bytes]:
        """Leaf value, or None when ``index`` is outside the delegation."""
        hit = self._locate(index)
        if hit is None:
            return None
        node, offset = hit
        return _walk(node.seed, offset, self.depth - node.plen)

    def iter_leaves(self) -> Iterator[tuple[int, bytes]]:
        """(index, value) for every covered leaf, ascending.

        Depth-first expansion: ~2 PRG calls per leaf instead of ``depth``.
        """
        for node in self.nodes:
            height = self.depth - node.plen
            stack = [(node.seed, node.prefix << height, height)]
            while stack:
                seed, base, h = stack.pop()
                if h == 0:
                    yield base, seed
                    continue
                out = sha256(seed).digest()
                stack.append((out[16:], base + (1 << (h - 1)), h - 1))
                stack.append((out[:16], base, h - 1))

    def encode(self) -> bytes:
        out = bytearray()
        out.append(_KIND_CODES[self.kind])
        out.append(self.depth)
        out += len(self.nodes).to_bytes(4, "big")
        for n in self.nodes:
            out.append(n.plen)
            out += n.prefix.to_bytes(4, "big")
            out += n.seed
        return bytes(out)

    @property
    def encoded_size(self) -> int:
        return 6 + len(self.nodes) * (5 + KEY_LEN)


def decode_key(data: bytes, offset: int = 0) -> tuple[DelegatedKey, int]:
    """Decode a DelegatedKey at ``offset``; returns (key, next offset)."""
    if len(data) - offset < 6:
        raise ValueError("truncated delegated key header")
    kind_code, depth = data[offset], data[offset + 1]
    if kind_code not in _KIND_NAMES:
        raise ValueError(f"unknown key kind byte {kind_code}")
    count = int.from_bytes(data[offset + 2:offset + 6], "big")
    pos = offset + 6
    need = count * (5 + KEY_LEN)
    if len(data) - pos < need:
        raise ValueError("truncated delegated key nodes")
    nodes = []
    for _ in range(count):
        plen = data[pos]
        prefix = int.from_bytes(data[pos + 1:pos + 5], "big")
        seed = bytes(data[pos + 5:pos + 5 + KEY_LEN])
        nodes.append(KeyNode(prefix, plen, seed))
        pos += 5 + KEY_LEN
    return DelegatedKey(_KIND_NAMES[kind_code], depth, tuple(nodes)), pos


class PathCache:
    """Leaf evaluator that reuses the PRG path shared with the previous
    index; sequential counters cost ~2 PRG calls per step instead of
    ``depth``."""

    def __init__(self, root: GgmRoot):
        self._root = root
        self._index = -1
        self._path: list[bytes] = []  # seed after consuming k+1 path bits

    def leaf(self, index: int) -> bytes:
        root = self._root
        root._check_index(index)
        d = root.depth
        if index == self._index:
            return self._path[-1]
        if self._index < 0:
            keep = 0
        else:
            keep = d - (index ^ self._index).bit_length()
        del self._path[keep:]
        seed = self._path[keep - 1] if keep else root.seed
        for i in range(d - keep - 1, -1, -1):
            out = sha256(seed).digest()
            seed = out[16:] if (index >> i) & 1 else out[:16]
            self._path.append(seed)
        self._index = index
        return seed
