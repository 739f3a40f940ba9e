"""Tree-PRF delegation checked against a brute-force tree expansion."""

import gc
import hashlib
import random
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from ddse import ggm
from ddse.crypto import INDEX_TYPE
from ddse.ggm import (DelegatedKey, GgmRoot, KeyNode, PathCache, cover,
                      decode_punctured_seeds, decode_range_key, gaps)

SEED = bytes(range(16))


def oracle_leaves(seed: bytes, depth: int) -> list[bytes]:
    """Reference: expand every level breadth-first, left = low half."""
    level = [seed]
    for _ in range(depth):
        nxt = []
        for s in level:
            out = hashlib.sha256(s).digest()
            nxt.append(out[:16])
            nxt.append(out[16:])
        level = nxt
    return level


@pytest.mark.parametrize("depth", [1, 2, 3, 5, 8, 10])
def test_eval_matches_bfs_oracle(depth):
    root = GgmRoot(SEED, depth)
    expect = oracle_leaves(SEED, depth)
    got = [root.eval(i) for i in range(1 << depth)]
    assert got == expect


def test_eval_is_deterministic_and_leaves_distinct():
    root = GgmRoot(SEED, 10)
    vals = [root.eval(i) for i in range(1 << 10)]
    assert vals == [root.eval(i) for i in range(1 << 10)]
    assert len(set(vals)) == len(vals)


def test_eval_rejects_out_of_range():
    root = GgmRoot(SEED, 4)
    with pytest.raises(ValueError):
        root.eval(16)
    with pytest.raises(ValueError):
        root.eval(-1)


def test_root_parameter_validation():
    with pytest.raises(ValueError):
        GgmRoot(SEED, 0)
    with pytest.raises(ValueError):
        GgmRoot(SEED, 33)
    with pytest.raises(ValueError):
        GgmRoot(b"short", 4)


@pytest.mark.parametrize("depth,holes", [
    (3, [5]),
    (4, [0, 15]),
    (6, [1, 2, 3, 33]),
    (8, list(range(0, 256, 7))),
])
def test_puncture_covers_exactly_complement(depth, holes):
    root = GgmRoot(SEED, depth)
    key = root.puncture(holes)
    expect = oracle_leaves(SEED, depth)
    for i in range(1 << depth):
        if i in set(holes):
            assert key.eval(i) is None
        else:
            assert key.eval(i) == expect[i]


def test_puncture_single_leaf_gives_copath():
    # one hole -> one sibling seed per level
    for depth in (1, 4, 9):
        key = GgmRoot(SEED, depth).puncture([3 % (1 << depth)])
        assert len(key.nodes) == depth


def test_puncture_empty_set_is_full_coverage():
    root = GgmRoot(SEED, 6)
    key = root.puncture([])
    assert len(key.nodes) == 1 and key.nodes[0].plen == 0
    assert all(key.eval(i) == root.eval(i) for i in range(64))


def test_puncture_everything_leaves_nothing():
    root = GgmRoot(SEED, 4)
    key = root.puncture(range(16))
    assert key.nodes == ()
    assert all(key.eval(i) is None for i in range(16))


def test_puncture_monotone_under_superset():
    root = GgmRoot(SEED, 8)
    holes = {3, 77, 200}
    small = root.puncture(holes)
    big = root.puncture(holes | {5, 130})
    covered_small = {i for i in range(256) if small.eval(i) is not None}
    covered_big = {i for i in range(256) if big.eval(i) is not None}
    assert covered_big < covered_small
    # unrevoked leaves keep identical values
    for i in covered_big:
        assert big.eval(i) == small.eval(i)


def test_puncture_is_canonical():
    root = GgmRoot(SEED, 10)
    a = root.puncture([9, 500, 501])
    b = root.puncture([501, 9, 500, 9])
    assert a == b
    assert a.encode() == b.encode()


@pytest.mark.parametrize("depth", [1, 2, 3, 6])
def test_constrain_range_every_count(depth):
    root = GgmRoot(SEED, depth)
    expect = oracle_leaves(SEED, depth)
    for count in range(1, (1 << depth) + 1):
        key = root.constrain_range(count)
        assert len(key.nodes) <= depth
        assert len(key.nodes) == bin(count).count("1")
        assert key.shape == count
        for i in range(1 << depth):
            if i < count:
                assert key.eval(i) == expect[i]
            else:
                assert key.eval(i) is None


def test_constrain_range_full_domain_is_root_node():
    root = GgmRoot(SEED, 7)
    key = root.constrain_range(128)
    assert len(key.nodes) == 1
    assert key.nodes[0] == KeyNode(0, 0, SEED)


def test_constrain_range_bounds():
    root = GgmRoot(SEED, 4)
    assert root.constrain_range(0).nodes == ()
    with pytest.raises(ValueError):
        root.constrain_range(-1)
    with pytest.raises(ValueError):
        root.constrain_range(17)


def test_iter_leaves_matches_eval():
    root = GgmRoot(SEED, 9)
    key = root.puncture([0, 100, 101, 511])
    walked = dict(key.iter_leaves())
    assert sorted(walked) == [i for i in range(512) if i not in (0, 100, 101, 511)]
    for i, v in walked.items():
        assert v == key.eval(i)


def test_serialization_roundtrip_both_kinds():
    # a punctured key carries seeds only; the holes travel in the filter
    root = GgmRoot(SEED, 12)
    holes = [17, 3000]
    key = root.puncture(holes)
    blob = key.encode()
    assert len(blob) == key.encoded_size == 6 + 16 * len(key.nodes)
    depth, seeds, consumed = decode_punctured_seeds(blob)
    assert consumed == len(blob)
    back = DelegatedKey(ggm.PUNCTURED, depth, array(INDEX_TYPE, holes), seeds)
    assert back == key
    assert back.encode() == blob

    key = root.constrain_range(1234)
    blob = key.encode()
    assert len(blob) == key.encoded_size == 2 + 2 + 16 * bin(1234).count("1")
    back, consumed = decode_range_key(blob)
    assert consumed == len(blob)
    assert back == key
    assert back.encode() == blob


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_punctured_seeds(b"\x00\x04")
    with pytest.raises(ValueError):
        decode_range_key(b"\x07\x04" + b"\x00" * 10)  # unknown kind
    with pytest.raises(ValueError):
        decode_range_key(GgmRoot(SEED, 6).puncture([5]).encode())  # wrong kind
    with pytest.raises(ValueError):
        decode_range_key(b"\x01\x00\x00")  # depth 0
    with pytest.raises(ValueError):
        decode_range_key(b"\x01\x04\x11")  # bound 17 > 2^4
    key = GgmRoot(SEED, 6).puncture([5])
    with pytest.raises(ValueError):
        decode_punctured_seeds(key.encode()[:-3])  # truncated seed list
    with pytest.raises(ValueError):
        decode_range_key(GgmRoot(SEED, 6).constrain_range(5).encode()[:-1])
    depth, seeds, _ = decode_punctured_seeds(key.encode())
    with pytest.raises(ValueError, match="seeds for a cover"):
        DelegatedKey(ggm.PUNCTURED, depth, [4, 5], seeds)  # 5 nodes, not 6


@pytest.mark.parametrize("holes", [[5, 3], [3, 3], [0, 7, 2]],
                         ids=["unsorted", "duplicate", "unsorted-tail"])
def test_unsorted_or_duplicate_holes_rejected(holes):
    # a shape is only ever a canonical cover: the holes must be ascending
    nodes = len(cover(gaps(sorted(set(holes)), 16), 4))
    with pytest.raises(ValueError, match="ascending"):
        DelegatedKey(ggm.PUNCTURED, 4, holes, bytes(16 * nodes))


@pytest.mark.parametrize("holes", [[16], [3, 16], [-1], [2 ** 40]])
def test_holes_outside_domain_rejected(holes):
    with pytest.raises(ValueError):
        DelegatedKey(ggm.PUNCTURED, 4, holes, bytes(16 * 8))


@pytest.mark.parametrize("count", [-1, 17, 1 << 10])
def test_range_bound_outside_domain_rejected(count):
    with pytest.raises(ValueError, match="outside"):
        DelegatedKey(ggm.RANGE, 4, count, b"")


@pytest.mark.parametrize("kind,shape,nodes", [
    (ggm.PUNCTURED, [], 1), (ggm.PUNCTURED, [4], 4),
    (ggm.RANGE, 0, 0), (ggm.RANGE, 11, 3), (ggm.RANGE, 16, 1)])
def test_seed_blob_of_wrong_length_rejected(kind, shape, nodes):
    DelegatedKey(kind, 4, shape, bytes(16 * nodes))
    for size in (16 * nodes - 1, 16 * nodes + 1, 16 * (nodes + 1)):
        if size >= 0:
            with pytest.raises(ValueError, match="seeds for a cover"):
                DelegatedKey(kind, 4, shape, bytes(size))


def test_nodes_stored_in_ascending_leaf_order():
    key = GgmRoot(SEED, 8).puncture([128])
    starts = [n.prefix << (8 - n.plen) for n in key.nodes]
    assert starts == sorted(starts)


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_delegation_correctness_random(depth, data):
    leaves = 1 << depth
    holes = data.draw(st.sets(st.integers(0, leaves - 1), max_size=min(leaves, 24)))
    root = GgmRoot(SEED, depth)
    key = root.puncture(holes)
    probe = data.draw(st.lists(st.integers(0, leaves - 1), min_size=1, max_size=32))
    for i in probe:
        if i in holes:
            assert key.eval(i) is None
        else:
            assert key.eval(i) == root.eval(i)


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 12), data=st.data())
def test_range_roundtrip_random(depth, data):
    count = data.draw(st.integers(0, 1 << depth))
    key = GgmRoot(SEED, depth).constrain_range(count)
    back, _ = decode_range_key(key.encode())
    assert back == key and back.shape == count


def shapes(key: DelegatedKey) -> list[tuple[int, int]]:
    return [(n.prefix, n.plen) for n in key.nodes]


@settings(max_examples=80, deadline=None)
@given(depth=st.integers(1, 12), data=st.data())
def test_cover_of_gaps_matches_puncture(depth, data):
    leaves = 1 << depth
    holes = data.draw(st.sets(st.integers(0, leaves - 1),
                              max_size=min(leaves, 64)))
    assert (cover(gaps(sorted(holes), 1 << depth), depth)
            == shapes(GgmRoot(SEED, depth).puncture(holes)))


@pytest.mark.parametrize("depth", [1, 2, 5, 12])
def test_cover_edge_cases_match_puncture(depth):
    root, last = GgmRoot(SEED, depth), (1 << depth) - 1
    for holes in ([], [0, last], list(range(last + 1))):
        got = cover(gaps(sorted(set(holes)), last + 1), depth)
        assert got == shapes(root.puncture(holes))
    assert cover(gaps([], last + 1), depth) == [(0, 0)]
    assert cover(gaps(range(last + 1), last + 1), depth) == []


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 12), data=st.data())
def test_cover_of_prefix_run_matches_constrain_range(depth, data):
    count = data.draw(st.integers(0, 1 << depth))
    assert (cover([(0, count)], depth)
            == shapes(GgmRoot(SEED, depth).constrain_range(count)))


def test_path_cache_agrees_with_eval():
    root = GgmRoot(SEED, 16)
    cache = PathCache(root)
    seq = list(range(40)) + [1000, 1001, 7, 65535, 0, 0, 3]
    for i in seq:
        assert cache.leaf(i) == root.eval(i)


def walked_nodes(depth: int, runs) -> list[KeyNode]:
    """Reference cover: shapes from ``cover``, seeds walked from SEED."""
    nodes = []
    for prefix, plen in cover(runs, depth):
        seed = SEED
        for bit in range(plen - 1, -1, -1):
            out = hashlib.sha256(seed).digest()
            seed = out[16:] if (prefix >> bit) & 1 else out[:16]
        nodes.append(KeyNode(prefix, plen, seed))
    return nodes


@st.composite
def hole_sets(draw):
    depth = draw(st.integers(1, 12))
    leaves = 1 << depth
    dense = (st.sets(st.integers(0, leaves - 1), min_size=leaves // 2)
             if leaves <= 64 else st.just({0, leaves - 1}))
    holes = draw(st.one_of(
        st.just(set()), st.just(set(range(leaves))),
        st.sets(st.integers(0, leaves - 1), max_size=min(leaves, 64)),
        dense))  # most leaves revoked: short, ragged runs
    return depth, holes


@settings(max_examples=80, deadline=None)
@given(hole_sets())
def test_punctured_key_matches_root_and_cover(case):
    depth, holes = case
    root = GgmRoot(SEED, depth)
    key = root.puncture(holes)
    assert isinstance(key.shape, array) and key.shape.typecode == INDEX_TYPE
    assert list(key.shape) == sorted(holes)
    assert key.covered_count == (1 << depth) - len(holes)
    for i in range(1 << depth):
        assert key.eval(i) == (None if i in holes else root.eval(i))
    assert key.eval(-1) is None and key.eval(1 << depth) is None
    assert list(key.nodes) == walked_nodes(
        depth, gaps(sorted(holes), 1 << depth))
    assert dict(key.iter_leaves()) == {
        i: root.eval(i) for i in range(1 << depth) if i not in holes}


@pytest.mark.parametrize("holes", [
    [], [5000], sorted(random.Random(0).sample(range(1 << 14), 700)),
    list(range(0, 1 << 14, 2)),
], ids=["none", "one", "700-random", "every-other-leaf"])
def test_puncture_at_benchmark_depth_matches_walked_cover(holes):
    """The search_revoked workload's tree depth, byte for byte; and
    puncture leaves no reference cycle for the collector to find."""
    root = GgmRoot(SEED, 14)
    gc.collect()
    gc.disable()
    try:
        key = root.puncture(holes)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert list(key.nodes) == walked_nodes(14, gaps(holes, 1 << 14))


@settings(max_examples=60, deadline=None)
@given(hole_sets())
def test_punctured_encode_decode_gives_equal_key(case):
    depth, holes = case
    key = GgmRoot(SEED, depth).puncture(holes)
    got_depth, seeds, pos = decode_punctured_seeds(key.encode())
    assert pos == key.encoded_size
    # the server's holes come from bloom.decode_filter, an array
    back = DelegatedKey(ggm.PUNCTURED, got_depth,
                        array(INDEX_TYPE, sorted(holes)), seeds)
    assert back == key and back.encode() == key.encode()
    # any ascending sequence is held as that same array type
    assert DelegatedKey(ggm.PUNCTURED, depth, sorted(holes), seeds) == key


@pytest.mark.parametrize("depth", range(1, 9))
def test_range_keys_at_every_count(depth):
    root = GgmRoot(SEED, depth)
    expect = oracle_leaves(SEED, depth)
    for count in range((1 << depth) + 1):
        key = root.constrain_range(count)
        assert list(key.nodes) == walked_nodes(depth, [(0, count)])
        assert [key.eval(i) for i in range(1 << depth)] == (
            expect[:count] + [None] * ((1 << depth) - count))
        back, _ = decode_range_key(key.encode())
        assert back == key


@settings(max_examples=40, deadline=None)
@given(count=st.integers(0, 1 << 20))
@example(count=0)
@example(count=1)
@example(count=(1 << 20) - 1)
@example(count=1 << 20)
def test_range_keys_at_placement_depth_match_walked_cover(count):
    """ClientConfig's sigma_depth: a range key is the left half of the
    lone-hole walk to leaf ``count``, byte for byte."""
    key = GgmRoot(SEED, 20).constrain_range(count)
    assert list(key.nodes) == walked_nodes(20, [(0, count)])
