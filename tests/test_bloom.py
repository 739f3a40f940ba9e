"""Bloom filter: perfect completeness, sizing formula, bounded FP rate."""

import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from ddse.bloom import MAX_DECODED_BITS, BloomFilter, decode_filter, size_for
from ddse.crypto import encode_varint

SEED = bytes(range(16, 32))


def test_gen_starts_all_zero():
    bf = BloomFilter(1000, 5, SEED)
    assert bf.set_bits() == []
    assert not bf.check(b"anything")


def test_size_for_hand_computed_values():
    # by hand: ceil(0.6931/0.4805) = 2, ceil(2 * 0.6931) = 2
    assert size_for(1, 0.5) == (2, 2)
    # the design point for the distinct-state filter: ~25.1e6 bits, 3.1 MB
    assert size_for(2 ** 20, 1e-5) == (25126656, 17)


def test_size_for_matches_formula_randomized():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 10 ** 6)
        p = 10 ** rng.uniform(-8, -0.1)
        b, h = size_for(n, p)
        assert b == math.ceil(-n * math.log(p) / math.log(2) ** 2)
        assert h == math.ceil(b / n * math.log(2))
        assert b >= h >= 1


def test_size_for_rejects_bad_inputs():
    with pytest.raises(ValueError):
        size_for(0, 0.5)
    with pytest.raises(ValueError):
        size_for(10, 0.0)
    with pytest.raises(ValueError):
        size_for(10, 1.5)


def test_completeness_always_found_after_upd():
    bf = BloomFilter(*size_for(200, 1e-3), SEED)
    items = [f"item-{i}".encode() for i in range(200)]
    for x in items:
        bf.insert(x)
    assert all(bf.check(x) for x in items)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=40), max_size=30))
def test_completeness_property(items):
    bf = BloomFilter(64, 4, SEED)
    # insert sets the element's positions and reports, in one probe,
    # whether check() was false; it counts only those first insertions
    bits, first = set(), 0
    for x in items:
        fresh = not bf.check(x)
        first += fresh
        assert bf.insert(x) == fresh
        assert bf.check(x)
        bits.update(bf.positions(x))
        assert bf.set_bits() == sorted(bits)
    for x in items:
        assert bf.check(x)
    assert bf.inserted == first


def test_upd_idempotent_and_monotone():
    bf = BloomFilter(512, 6, SEED)
    last = 0
    for i in range(50):
        bf.insert(str(i).encode())
        pc = len(bf.set_bits())
        assert pc >= last
        assert pc <= 6 * (i + 1)
        last = pc
    before, inserted = bytes(bf.bits), bf.inserted
    assert not bf.insert(b"17")  # already inserted
    assert (bytes(bf.bits), bf.inserted) == (before, inserted)


def test_positions_deterministic_and_in_range():
    bf = BloomFilter(777, 9, SEED)
    pos = bf.positions(b"x")
    assert pos == bf.positions(b"x")
    assert len(pos) == 9
    assert all(0 <= p < 777 for p in pos)
    other = BloomFilter(777, 9, bytes(16))
    assert other.positions(b"x") != pos  # family keyed by seed


def test_positions_distinct_for_composite_b():
    # b = 2 * 9817 used to collapse an element's probe set to two
    # positions whenever 9817 divided its h2 draw, inflating that
    # element's FP rate from p to ~(load)^2; hunt one such element down
    # and confirm its positions stay distinct
    import hmac as hmac_mod

    b = 2 * 9817
    bf = BloomFilter(b, 14, SEED)
    degenerate = None
    for i in range(200_000):
        x = b"elem-%d" % i
        d = hmac_mod.digest(SEED, x, "sha256")
        if (int.from_bytes(d[8:16], "big") | 1) % 9817 == 0:
            degenerate = x
            break
    assert degenerate is not None, "no degenerate h2 draw in scan range"
    pos = bf.positions(degenerate)
    assert len(set(pos)) == 14
    assert all(0 <= p < b for p in pos)


def test_position_sets_do_not_collide():
    # double hashing gave two tags one position set with probability
    # 4/b^2, which loses a live tag to one revoked tag; independent
    # draws make it about 1/C(b, h)
    bf = BloomFilter(256, 7, bytes(16))
    rng = random.Random(3000)
    sets = {frozenset(bf.positions(rng.randbytes(16))) for _ in range(3000)}
    assert len(sets) == 3000


def test_positions_fill_a_tiny_domain():
    # h == b: the draw keeps reading until every position has appeared
    bf = BloomFilter(8, 8, SEED)
    assert sorted(bf.positions(b"x")) == list(range(8))


def test_false_positive_rate_at_design_load():
    n, p = 500, 0.01
    bf = BloomFilter(*size_for(n, p), SEED)
    rng = random.Random(1234)
    for i in range(n):
        bf.insert(b"member-%d" % i)
    probes = 100_000
    hits = sum(bf.check(b"probe-%d" % rng.getrandbits(48)) for _ in range(probes))
    assert hits / probes <= 2 * p


def test_copy_is_independent():
    a = BloomFilter(128, 3, SEED)
    a.insert(b"one")
    b = a.copy()
    b.insert(b"two")
    assert a.check(b"one") and not a.check(b"two")
    assert b.check(b"one") and b.check(b"two")
    assert a != b


def test_encode_decode_roundtrip():
    bf = BloomFilter(1000, 5, SEED)
    for i in range(40):
        bf.insert(str(i).encode())
    blob = bf.encode()
    # header, set-bit count, then one clear-bit gap per set bit: every
    # gap here fits one varint byte
    ones = bf.set_bits()
    assert 128 <= len(ones) < 1 << 14  # a two-byte count
    assert max(b - a for a, b in zip([-1] + ones, ones)) <= 128
    assert len(blob) == bf.encoded_size == 8 + 1 + 16 + 2 + len(ones)
    back, back_ones, consumed = decode_filter(blob)
    assert consumed == len(blob)
    assert back == bf
    assert list(back_ones) == ones
    assert back.positions(b"q") == bf.positions(b"q")


@pytest.mark.parametrize("gaps", [
    [], [0], [0, 0, 0], [127], [128], [16383], [0, 127, 128, 16383, 0],
    [1, 2, 3, 300, 4, 5, 6],          # a two-byte gap between runs
    [200, 16384, 128],                # no one-byte gap at all
], ids=["empty", "0", "run-of-0", "127", "128", "16383", "mixed",
        "multi-byte-between-runs", "all-multi-byte"])
def test_encode_decode_roundtrip_at_varint_edges(gaps):
    ones = [pos - 1 for pos in accumulate(gap + 1 for gap in gaps)]
    bf = BloomFilter(1 << 16, 3, SEED)
    for pos in ones:
        bf.bits[pos >> 3] |= 0x80 >> (pos & 7)
    blob = bf.encode()
    # one LEB128 varint per gap, as the format has always been written
    assert blob[8 + 1 + 16:] == encode_varint(len(gaps)) + b"".join(
        map(encode_varint, gaps))
    assert bf.encode(ones) == blob
    back, back_ones, consumed = decode_filter(blob + b"tail")
    assert consumed == len(blob)
    assert back == bf and list(back_ones) == ones
    assert back.encode(back_ones) == blob


def test_decode_rejects_truncation():
    blob = BloomFilter(64, 2, SEED).encode()
    with pytest.raises(ValueError):
        decode_filter(blob[:-1])
    with pytest.raises(ValueError):
        decode_filter(blob[:10])


def test_decode_rejects_bits_outside_the_filter():
    header = BloomFilter(64, 2, SEED).encode()[:-1]
    back, ones, _ = decode_filter(header + b"\x01\x3f")
    assert back.set_bits() == list(ones) == [63]
    for tail in (b"\x01\x40", b"\x02\x3f\x00", b"\x01\xc0\x00",
                 b"\x03\x01\x80\x00\x01",   # overlong varint in a run
                 b"\x03\x01\x01\x80",       # truncated inside a varint
                 b"\x01\x80\x01",            # a two-byte gap past b
                 b"\x01\x80\x80\x80\x80\x80\x01",  # a gap past 2^32
                 b"\x7f\x01\x01"):           # a count beyond the body
        with pytest.raises(ValueError):
            decode_filter(header + tail)
    for b in (MAX_DECODED_BITS + 1, 1 << 29, 1 << 40):
        huge = b.to_bytes(8, "big") + header[8:]
        with pytest.raises(ValueError):
            decode_filter(huge + b"\x00")  # refused before any allocation


def test_constructor_validation():
    with pytest.raises(ValueError):
        BloomFilter(4, 5, SEED)  # b < h
    with pytest.raises(ValueError):
        BloomFilter(8, 0, SEED)
    with pytest.raises(ValueError):
        BloomFilter(8, 2, b"tiny")
