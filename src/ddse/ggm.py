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

Both shapes are canonical covers of leaf runs (``cover``), so a key
travels as its seeds alone: the receiver rebuilds the shapes from the
holes (sent anyway, inside the revocation filter) or from ``count``.

Keys and roots are immutable; every operation is deterministic, so the
same revocation set always serializes to the same bytes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from hashlib import sha256
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .crypto import KEY_LEN, decode_varint, encode_varint

PUNCTURED = "punctured"
RANGE = "range"

_KIND_CODES = {PUNCTURED: 0, RANGE: 1}

MAX_DEPTH = 32

# The length-doubling PRG (crypto.prg) is called millions of times per
# large token, so the loops below expand sha256 inline; left child is
# the low half of the digest, right child the high half.


def _walk(seed: bytes, path: int, nbits: int) -> bytes:
    for i in range(nbits - 1, -1, -1):
        out = sha256(seed).digest()
        seed = out[16:] if (path >> i) & 1 else out[:16]
    return seed


def cover(runs: Iterable[tuple[int, int]], depth: int) -> list[tuple[int, int]]:
    """Canonical cover of leaf runs ``[start, end)``: (prefix, plen) per node.

    Each run is split greedily into the largest aligned blocks, in
    ascending order; those are exactly the maximal subtrees inside the
    run.  The gaps between holes give ``puncture``'s shapes, the single
    run ``[0, count)`` gives ``constrain_range``'s.
    """
    out = []
    append = out.append
    for start, end in runs:
        while start < end:
            height = (end - start).bit_length() - 1
            if start:
                align = (start & -start).bit_length() - 1
                if align < height:
                    height = align
            append((start >> height, depth - height))
            start += 1 << height
    return out


def gaps(holes: Sequence[int], depth: int) -> Iterator[tuple[int, int]]:
    """Runs of leaves between ``holes`` (ascending, distinct)."""
    start = 0
    for hole in holes:
        yield start, hole
        start = hole + 1
    yield start, 1 << depth


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

        0 <= count <= 2^depth; count == 2^depth yields the single root
        node, count == 0 the empty key.  One node per set bit of ``count``.
        """
        if not 0 <= count <= self.leaves:
            raise ValueError(f"count {count} outside [0, 2^{self.depth}]")
        return DelegatedKey(RANGE, self.depth, tuple(
            KeyNode(prefix, plen, _walk(self.seed, prefix, plen))
            for prefix, plen in cover([(0, count)], self.depth)))


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
        """[kind:1][depth:1], then [count:4] for a punctured key or the
        bound c as a varint for a range key, then the node seeds.

        Shapes are not sent: ``decode_punctured_seeds`` plus
        ``punctured_key`` or ``decode_range_key`` rebuild them, so only
        the canonical covers ``puncture``/``constrain_range`` build can
        be encoded.
        """
        if self.kind == RANGE:
            head = encode_varint(self.range_bound)
            if ([(n.prefix, n.plen) for n in self.nodes]
                    != cover([(0, self.range_bound)], self.depth)):
                raise ValueError("range key is not the cover of [0, count)")
        else:
            head = len(self.nodes).to_bytes(4, "big")
        return (bytes([_KIND_CODES[self.kind], self.depth]) + head
                + b"".join(n.seed for n in self.nodes))

    @property
    def encoded_size(self) -> int:
        head = (len(encode_varint(self.range_bound)) if self.kind == RANGE
                else 4)
        return 2 + head + len(self.nodes) * KEY_LEN


def _decode_head(data: bytes, offset: int, kind: str) -> tuple[int, int]:
    if len(data) - offset < 2:
        raise ValueError("truncated delegated key header")
    if data[offset] != _KIND_CODES[kind]:
        raise ValueError(f"expected a {kind} key, got kind byte {data[offset]}")
    depth = data[offset + 1]
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError("bad depth")
    return depth, offset + 2


def _decode_seeds(data: bytes, pos: int, count: int) -> tuple[list[bytes], int]:
    end = pos + count * KEY_LEN
    if end > len(data):
        raise ValueError("truncated delegated key seeds")
    blob = bytes(data[pos:end])
    return [blob[i:i + KEY_LEN] for i in range(0, len(blob), KEY_LEN)], end


def _from_shapes(kind: str, depth: int, shapes: list[tuple[int, int]],
                 seeds: list[bytes]) -> DelegatedKey:
    if len(shapes) != len(seeds):
        raise ValueError(f"{len(seeds)} seeds for a cover of {len(shapes)} nodes")
    return DelegatedKey(kind, depth, tuple(
        KeyNode(prefix, plen, seed) for (prefix, plen), seed in zip(shapes, seeds)))


def decode_punctured_seeds(data: bytes, offset: int = 0
                           ) -> tuple[int, list[bytes], int]:
    """Depth and seeds of a punctured key at ``offset``; returns
    (depth, seeds, next offset).  ``punctured_key`` adds the shapes."""
    depth, pos = _decode_head(data, offset, PUNCTURED)
    if len(data) - pos < 4:
        raise ValueError("truncated delegated key header")
    count = int.from_bytes(data[pos:pos + 4], "big")
    seeds, pos = _decode_seeds(data, pos + 4, count)
    return depth, seeds, pos


def punctured_key(depth: int, holes: Sequence[int],
                  seeds: list[bytes]) -> DelegatedKey:
    """The key ``puncture(holes)`` builds, rebuilt from its seeds alone.

    ``holes`` must be ascending and distinct; a seed count other than
    the cover's node count is rejected.
    """
    return _from_shapes(PUNCTURED, depth, cover(gaps(holes, depth), depth), seeds)


def decode_range_key(data: bytes, offset: int = 0) -> tuple[DelegatedKey, int]:
    """Decode a range key at ``offset``; returns (key, next offset)."""
    depth, pos = _decode_head(data, offset, RANGE)
    count, pos = decode_varint(data, pos)
    if count > 1 << depth:
        raise ValueError(f"range bound {count} outside [0, 2^{depth}]")
    shapes = cover([(0, count)], depth)
    seeds, pos = _decode_seeds(data, pos, len(shapes))
    return _from_shapes(RANGE, depth, shapes, seeds), pos


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
