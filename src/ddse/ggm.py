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

Both shapes are canonical covers of leaf runs (``cover``), so a key is
held, and travels, as its hole list or its bound plus one blob of node
seeds in ascending leaf order.  No node shape is stored: evaluating a
leaf bisects into the holes and finds its node within that run by
arithmetic (``_block``), so a receiver pays only for the leaves it
evaluates.  ``DelegatedKey.nodes`` rebuilds the shapes as a view.

Keys and roots are immutable; every operation is deterministic, so the
same revocation set always serializes to the same bytes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from hashlib import sha256
from itertools import accumulate, starmap
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .crypto import INDEX_TYPE, KEY_LEN, decode_varint, encode_varint

PUNCTURED = "punctured"
RANGE = "range"

_KIND_CODES = {PUNCTURED: 0, RANGE: 1}

MAX_DEPTH = 32

# The length-doubling PRG is sha256 of a 16-byte seed, called millions
# of times per large token, so the loops below expand it inline; left
# child is the low half of the digest, right child the high half.


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


def gaps(holes: Sequence[int], end: int) -> Iterator[tuple[int, int]]:
    """Runs of leaves of [0, end) between ``holes`` (ascending, distinct)."""
    start = 0
    for hole in holes:
        yield start, hole
        start = hole + 1
    yield start, end


# The cover of a run [start, end) splits at ``mid``: ``end`` with every
# bit below the highest bit in which start and end differ cleared.  Left
# of it the blocks grow, one per set bit of mid - start (lowest first);
# right of it they shrink, one per set bit of end - mid (highest first).

def _run_nodes(start: int, end: int) -> int:
    """Node count of the cover of [start, end); refuses end < start."""
    if end <= start:
        if end < start:
            raise ValueError("holes must be ascending, distinct and "
                             "inside the key's domain")
        return 0
    cut = (start ^ end).bit_length() - 1
    mid = end >> cut << cut
    return (mid - start).bit_count() + (end - mid).bit_count()


def _block(start: int, end: int, index: int) -> tuple[int, int, int]:
    """(rank in the run's cover, first leaf, height) of the node of the
    cover of [start, end) that holds ``index``."""
    cut = (start ^ end).bit_length() - 1
    mid = end >> cut << cut
    left = mid - start
    if index < mid:
        # counted back from mid, the blocks end at the high prefixes of
        # left; index's block is the highest bit where the count differs
        height = ((mid - 1 - index) ^ left).bit_length() - 1
        below = left & ((1 << height) - 1)
        return below.bit_count(), start + below, height
    right = end - mid
    height = ((index - mid) ^ right).bit_length() - 1
    above = right >> (height + 1)
    return (left.bit_count() + above.bit_count(),
            mid + (above << (height + 1)), height)


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
        if holes:
            self._check_index(holes[0])
            self._check_index(holes[-1])
        depth = self.depth
        seeds: list[bytes] = []
        append = seeds.append
        # depth-first over (subtree, hole slice); right child pushed first
        # so the seeds come out in ascending leaf order
        stack = [(self.seed, 0, 0, 0, len(holes))]
        while stack:
            seed, prefix, plen, lo, hi = stack.pop()
            if lo == hi:
                append(seed)
                continue
            if plen == depth:
                continue  # punctured leaf: contribute nothing
            height = depth - plen
            mid = (prefix << height) + (1 << (height - 1))
            split = bisect_right(holes, mid - 1, lo, hi)
            out = sha256(seed).digest()
            stack.append((out[16:], (prefix << 1) | 1, plen + 1, split, hi))
            stack.append((out[:16], prefix << 1, plen + 1, lo, split))
        return DelegatedKey(PUNCTURED, depth, array(INDEX_TYPE, holes),
                            b"".join(seeds))

    def constrain_range(self, count: int) -> "DelegatedKey":
        """Delegated key covering exactly leaves [0, count).

        0 <= count <= 2^depth; count == 2^depth yields the single root
        node, count == 0 the empty key.  One node per set bit of ``count``.
        """
        if not 0 <= count <= self.leaves:
            raise ValueError(f"count {count} outside [0, 2^{self.depth}]")
        return DelegatedKey(RANGE, self.depth, count, b"".join(
            _walk(self.seed, prefix, plen)
            for prefix, plen in cover([(0, count)], self.depth)))


def gen_root(seed: bytes, depth: int) -> GgmRoot:
    return GgmRoot(seed, depth)


@dataclass(frozen=True)
class DelegatedKey:
    """Canonical cover of leaf runs as its seeds; evaluates covered
    leaves only.

    ``shape`` is the ascending hole list of a punctured key (kept as an
    ``array`` of ``INDEX_TYPE``) or the bound ``c`` of a range key over
    [0, c).  ``seeds`` joins the cover's node seeds in ascending leaf
    order; its length must match the cover the shape implies.
    """

    kind: str
    depth: int
    shape: array | int
    seeds: bytes

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown key kind {self.kind!r}")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError("bad depth")
        leaves = 1 << self.depth
        if self.kind == RANGE:
            if not 0 <= self.shape <= leaves:
                raise ValueError(
                    f"range bound {self.shape} outside [0, 2^{self.depth}]")
            holes, limit = (), self.shape
        else:
            holes, limit = self.shape, leaves
            if not (isinstance(holes, array) and holes.typecode == INDEX_TYPE):
                try:
                    holes = array(INDEX_TYPE, holes)
                except OverflowError:
                    raise ValueError("hole outside the key's domain") from None
                object.__setattr__(self, "shape", holes)
        # leaves [0, limit) minus the holes are covered; _ranks[j] is the
        # number of nodes before run j, the run that ends at holes[j]
        ranks = array(INDEX_TYPE, accumulate(
            starmap(_run_nodes, gaps(holes, limit)), initial=0))
        if len(self.seeds) != ranks[-1] * KEY_LEN:
            raise ValueError(f"{len(self.seeds) / KEY_LEN:g} seeds for a "
                             f"cover of {ranks[-1]} nodes")
        object.__setattr__(self, "_holes", holes)
        object.__setattr__(self, "_limit", limit)
        object.__setattr__(self, "_ranks", ranks)

    @property
    def covered_count(self) -> int:
        return self._limit - len(self._holes)

    def _seed(self, node: int) -> bytes:
        return self.seeds[node * KEY_LEN:(node + 1) * KEY_LEN]

    def _locate(self, index: int) -> Optional[tuple[int, int, int]]:
        """(node number, node height, offset of ``index`` in the node), or
        None when ``index`` is a hole or outside the delegation."""
        if not 0 <= index < self._limit:
            return None
        holes = self._holes
        run = bisect_left(holes, index)
        if run < len(holes):
            end = holes[run]
            if end == index:
                return None
        else:
            end = self._limit
        start = holes[run - 1] + 1 if run else 0
        rank, first, height = _block(start, end, index)
        return self._ranks[run] + rank, height, index - first

    def eval(self, index: int) -> Optional[bytes]:
        """Leaf value, or None when ``index`` is outside the delegation."""
        hit = self._locate(index)
        if hit is None:
            return None
        node, height, offset = hit
        return _walk(self._seed(node), offset, height)

    def _cover(self) -> list[tuple[int, int]]:
        return cover(gaps(self._holes, self._limit), self.depth)

    @cached_property
    def nodes(self) -> tuple[KeyNode, ...]:
        """The cover as (prefix, plen, seed) nodes, ascending."""
        return tuple(KeyNode(prefix, plen, self._seed(i))
                     for i, (prefix, plen) in enumerate(self._cover()))

    def iter_leaves(self) -> Iterator[tuple[int, bytes]]:
        """(index, value) for every covered leaf, ascending.

        Depth-first expansion: ~2 PRG calls per leaf instead of ``depth``.
        """
        for i, (prefix, plen) in enumerate(self._cover()):
            height = self.depth - plen
            stack = [(self._seed(i), prefix << height, height)]
            while stack:
                seed, base, h = stack.pop()
                if h == 0:
                    yield base, seed
                    continue
                out = sha256(seed).digest()
                stack.append((out[16:], base + (1 << (h - 1)), h - 1))
                stack.append((out[:16], base, h - 1))

    def _head(self) -> bytes:
        if self.kind == RANGE:
            return encode_varint(self.shape)
        return (len(self.seeds) // KEY_LEN).to_bytes(4, "big")

    def encode(self) -> bytes:
        """[kind:1][depth:1], then [count:4] for a punctured key or the
        bound c as a varint for a range key, then the node seeds.

        Shapes are not sent: ``decode_punctured_seeds`` plus the holes,
        or ``decode_range_key``, rebuild the key.
        """
        return (bytes([_KIND_CODES[self.kind], self.depth]) + self._head()
                + self.seeds)

    @property
    def encoded_size(self) -> int:
        return 2 + len(self._head()) + len(self.seeds)


def _decode_head(data: bytes, offset: int, kind: str) -> tuple[int, int]:
    if len(data) - offset < 2:
        raise ValueError("truncated delegated key header")
    if data[offset] != _KIND_CODES[kind]:
        raise ValueError(f"expected a {kind} key, got kind byte {data[offset]}")
    depth = data[offset + 1]
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError("bad depth")
    return depth, offset + 2


def _decode_seeds(data: bytes, pos: int, count: int) -> tuple[bytes, int]:
    end = pos + count * KEY_LEN
    if end > len(data):
        raise ValueError("truncated delegated key seeds")
    return bytes(data[pos:end]), end


def decode_punctured_seeds(data: bytes, offset: int = 0
                           ) -> tuple[int, bytes, int]:
    """Depth and seed blob of a punctured key at ``offset``; returns
    (depth, seeds, next offset).  The key is
    ``DelegatedKey(PUNCTURED, depth, holes, seeds)``."""
    depth, pos = _decode_head(data, offset, PUNCTURED)
    if len(data) - pos < 4:
        raise ValueError("truncated delegated key header")
    count = int.from_bytes(data[pos:pos + 4], "big")
    seeds, pos = _decode_seeds(data, pos + 4, count)
    return depth, seeds, pos


def decode_range_key(data: bytes, offset: int = 0) -> tuple[DelegatedKey, int]:
    """Decode a range key at ``offset``; returns (key, next offset)."""
    depth, pos = _decode_head(data, offset, RANGE)
    count, pos = decode_varint(data, pos)
    if count > 1 << depth:
        raise ValueError(f"range bound {count} outside [0, 2^{depth}]")
    seeds, pos = _decode_seeds(data, pos, _run_nodes(0, count))
    return DelegatedKey(RANGE, depth, count, seeds), pos


class PathCache:
    """Leaf evaluator that reuses the PRG path shared with the previous
    index; sequential counters cost ~2 PRG calls per step instead of
    ``depth``.

    No production path uses it: placement re-derives each leaf with
    ``GgmRoot.eval``.  The benchmark's tracer wraps ``leaf`` by name.
    """

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
