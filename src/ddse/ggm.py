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
seeds in ascending leaf order.  ``puncture`` finds that cover by
bisecting the tree only while a subtree holds two or more holes; below
a subtree with one hole, the cover is the off-path child of each level
of that hole's path, so one loop down the path emits it.  The cover of
``[0, count)`` is the left half of that loop for the hole ``count``, so
``constrain_range`` takes it from the same walk.

Each tree operation has one implementation: a single leaf is ``_walk``,
a subtree expansion ``DelegatedKey.iter_leaves``, a cover the two
puncture walkers.  The one exception is ``PathCache.leaf``, which walks
with a loop of its own because it also keeps every node it passes.  No node shape is stored: evaluating a leaf bisects
into the holes and finds its node within that run by arithmetic
(``_block``), so a receiver pays only for the leaves it evaluates.
``cover`` rebuilds the shapes, for ``DelegatedKey.nodes`` and
``iter_leaves``.

Two memos let a client reuse the nodes it has already derived, in
memory only: ``GgmRoot.eval`` keeps its tree's level
k = min(depth // 2, 7), at most 2 KiB, so a walk through a filled slot
costs depth - k PRG calls; ``PathCache`` keeps the path to its last
leaf, so the next leaf's walk starts where the two paths part.
Neither is pickled or compared, and both go away with their owner.

Keys and roots are immutable; every operation is deterministic, so the
same revocation set always serializes to the same bytes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
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
    run.  The gaps between holes give a punctured key's shapes, the
    single run ``[0, count)`` a range key's.  It names shapes only: no
    key is built from it, the walkers emit the seeds in this order.
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


# puncture's helpers are module functions taking ``holes`` and ``out``:
# a nested function that calls itself would be a closure cycle, and keep
# each call's seeds alive until the cyclic collector runs.

def _punctured_seeds(seed: bytes, height: int, base: int,
                     holes: Sequence[int], lo: int, hi: int,
                     out: list[bytes]) -> None:
    """Append, ascending, the cover seeds of the subtree of ``height``
    levels whose first leaf is ``base``, minus holes[lo:hi] (all inside
    it): bisect while it holds two or more holes."""
    if hi - lo > 1:
        height -= 1
        mid = base + (1 << height)
        split = bisect_left(holes, mid, lo, hi)
        digest = sha256(seed).digest()
        _punctured_seeds(digest[:16], height, base, holes, lo, split, out)
        _punctured_seeds(digest[16:], height, mid, holes, split, hi, out)
    elif hi > lo:
        _lone_hole_seeds(seed, height, holes[lo] - base, out)
    else:
        out.append(seed)


def _lone_hole_seeds(seed: bytes, height: int, path: int,
                     out: list[bytes]) -> None:
    """Append the cover of a subtree minus its one leaf ``path``: the
    off-path child of each level, left ones as met, right ones after."""
    right = []
    for i in range(height - 1, -1, -1):
        digest = sha256(seed).digest()
        if (path >> i) & 1:
            out.append(digest[:16])
            seed = digest[16:]
        else:
            right.append(digest[16:])
            seed = digest[:16]
    right.reverse()
    out += right


class KeyNode(NamedTuple):
    """Internal-node seed delegating one aligned subtree.

    ``prefix`` is the node's path (``plen`` bits); the node covers leaves
    [prefix << (depth-plen), (prefix+1) << (depth-plen)).
    """

    prefix: int
    plen: int
    seed: bytes


# the deepest level GgmRoot.eval keeps: at most 2^7 x 16 B = 2 KiB per root
_KEPT_LEVEL = 7


@dataclass(frozen=True)
class GgmRoot:
    """Tree root.  ``eval`` remembers the seeds it walks through at its
    kept level, so a walk through a filled slot starts there; that memo
    is never pickled or compared and goes away with the root."""

    seed: bytes
    depth: int

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {self.depth}")
        if len(self.seed) != KEY_LEN:
            raise ValueError(f"seed must be {KEY_LEN} bytes")

    def __getstate__(self) -> dict:
        return {"seed": self.seed, "depth": self.depth}

    @property
    def leaves(self) -> int:
        return 1 << self.depth

    def _check_index(self, index: int):
        if not 0 <= index < self.leaves:
            raise ValueError(f"leaf index {index} outside [0, 2^{self.depth})")

    @cached_property
    def _kept(self) -> tuple[int, bytearray, bytearray]:
        """Tree levels below the kept level, its seeds (16 B per slot,
        ascending) and their fill mask (one bit per slot)."""
        level = min(self.depth // 2, _KEPT_LEVEL)
        return (self.depth - level, bytearray(KEY_LEN << level),
                bytearray(((1 << level) + 7) >> 3))

    def eval(self, index: int) -> bytes:
        self._check_index(index)
        below, seeds, filled = self._kept
        slot = index >> below
        at = slot * KEY_LEN
        bit = 0x80 >> (slot & 7)
        if filled[slot >> 3] & bit:
            return _walk(seeds[at:at + KEY_LEN], index & ((1 << below) - 1),
                         below)
        seed = _walk(self.seed, slot, self.depth - below)
        seeds[at:at + KEY_LEN] = seed
        filled[slot >> 3] |= bit
        return _walk(seed, index & ((1 << below) - 1), below)

    def puncture(self, indices: Iterable[int]) -> "DelegatedKey":
        """Delegated key covering every leaf except ``indices``.

        An empty set yields the full-coverage single-node key.  The cover
        is the canonical minimal prefix-free one, so equal revocation sets
        produce byte-identical keys.  It costs one PRG call per tree node
        on a path to a hole: a subtree with two or more holes is split in
        half, and one with a single hole is walked down its path.
        """
        holes = sorted(set(indices))
        if holes:
            self._check_index(holes[0])
            self._check_index(holes[-1])
        seeds: list[bytes] = []
        _punctured_seeds(self.seed, self.depth, 0, holes, 0, len(holes),
                         seeds)
        return DelegatedKey(PUNCTURED, self.depth, array(INDEX_TYPE, holes),
                            b"".join(seeds))

    def constrain_range(self, count: int) -> "DelegatedKey":
        """Delegated key covering exactly leaves [0, count).

        0 <= count <= 2^depth; count == 2^depth yields the single root
        node, count == 0 the empty key.  One node per set bit of ``count``:
        the left sibling at each level where leaf ``count``'s path turns
        right, which are the first seeds ``_lone_hole_seeds`` emits.
        """
        if not 0 <= count <= self.leaves:
            raise ValueError(f"count {count} outside [0, 2^{self.depth}]")
        if count == self.leaves:
            return DelegatedKey(RANGE, self.depth, count, self.seed)
        seeds: list[bytes] = []
        _lone_hole_seeds(self.seed, self.depth, count, seeds)
        return DelegatedKey(RANGE, self.depth, count,
                            b"".join(seeds[:count.bit_count()]))


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

    def eval(self, index: int) -> Optional[bytes]:
        """Leaf value, or None when ``index`` is a hole or outside the
        delegation: one walk from the node of the cover that holds it."""
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
        return _walk(self._seed(self._ranks[run] + rank), index - first,
                     height)

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
    """The path to the last leaf evaluated, kept dense in memory (16 B
    per level, root first), so the next leaf's walk starts below the
    deepest node the two paths share: consecutive leaves cost about two
    PRG calls instead of ``depth``.  ``fpdse.SigmaState`` keeps one per
    label with entries since its last search token, and saves none.
    The benchmark's tracer wraps ``leaf`` by name
    (``ddsebench/tracing.py``).
    """

    __slots__ = ("depth", "_path", "_last")

    def __init__(self, root: GgmRoot):
        self.depth = root.depth
        self._path = bytearray(root.seed) + bytes(KEY_LEN * root.depth)
        self._last = None

    def leaf(self, index: int) -> bytes:
        depth, path = self.depth, self._path
        if not 0 <= index < 1 << depth:
            raise ValueError(f"leaf index {index} outside [0, 2^{depth})")
        last = self._last
        # the nodes down to ``level`` are on both paths
        level = 0 if last is None else depth - (index ^ last).bit_length()
        at = (level + 1) * KEY_LEN
        seed = path[at - KEY_LEN:at]
        if level < depth:
            nodes = []
            for i in range(depth - level - 1, -1, -1):
                out = sha256(seed).digest()
                seed = out[16:] if (index >> i) & 1 else out[:16]
                nodes.append(seed)
            path[at:] = b"".join(nodes)
            self._last = index
        return bytes(seed)
