"""Revocable encryption: roundtrip, revocation soundness, greedy reuse,
the hybrid ciphertext layout."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from ddse import bloom, edb, ggm, sre
from ddse import client as cl
from ddse.crypto import stream_xor

RNG = random.Random(99)
TAG = bytes(range(16))


def make_key(b=64, h=3):
    return sre.kgen(b, h)


def coverage_oracle(D: bloom.BloomFilter, tag: bytes) -> bool:
    """True iff at least one hash position of tag survives revocation."""
    bits = D.bits
    return any(not bits[p >> 3] & (0x80 >> (p & 7)) for p in D.positions(tag))


def test_kgen_validation():
    with pytest.raises(ValueError):
        sre.kgen(63, 3)  # not a power of two
    with pytest.raises(ValueError):
        sre.kgen(1, 1)
    with pytest.raises(ValueError):
        sre.kgen(8, 0)
    with pytest.raises(ValueError):
        sre.kgen(8, 9)
    with pytest.raises(ValueError):
        sre.kgen(2 * bloom.MAX_DECODED_BITS, 3)  # its filter could not be decoded
    msk = sre.kgen(1024, 9)
    assert msk.sk.depth == 10
    assert msk.D.b == 1024 and msk.D.h == 9
    assert msk.D.set_bits() == []


@pytest.mark.parametrize("size", [0, 1, 33, 1000])
def test_roundtrip_without_revocation(size):
    msk = make_key()
    payload = bytes(RNG.randrange(256) for _ in range(size))
    tag = RNG.randbytes(16)
    ct = sre.enc(msk, payload, tag)
    assert ct.h == 3
    rk = sre.ck_rev(msk.sk, msk.D)
    assert sre.dec(rk, ct, tag) == payload


def test_revocation_soundness_exhaustive_small_domain():
    # every revoked tag must decrypt to nothing, across the whole b=64 domain
    msk = make_key(64, 3)
    tags = [b"tag-%03d" % i for i in range(40)]
    cts = {t: sre.enc(msk, b"payload:" + t, t) for t in tags}
    D = msk.D
    revoked = []
    for t in tags[:20]:
        D = sre.comp(D, t)
        revoked.append(t)
        rk = sre.ck_rev(msk.sk, D)
        for r in revoked:
            assert sre.dec(rk, cts[r], r) is None
    # unrevoked tags follow the coverage oracle exactly
    rk = sre.ck_rev(msk.sk, D)
    for t in tags[20:]:
        want = b"payload:" + t if coverage_oracle(D, t) else None
        assert sre.dec(rk, cts[t], t) == want


def test_comp_does_not_mutate_input():
    msk = make_key()
    before = bytes(msk.D.bits)
    D2 = sre.comp(msk.D, b"gone")
    assert bytes(msk.D.bits) == before
    assert D2.set_bits()


def test_ck_rev_deterministic():
    msk = make_key(256, 4)
    D = sre.comp(sre.comp(msk.D, b"a"), b"b")
    k1 = sre.ck_rev(msk.sk, D)
    k2 = sre.ck_rev(msk.sk, D)
    assert k1.encode() == k2.encode()


def test_ck_rev_rejects_mismatched_domain():
    msk = make_key(64, 3)
    wrong = bloom.BloomFilter(128, 3, bytes(16))
    with pytest.raises(ValueError):
        sre.ck_rev(msk.sk, wrong)


def test_dec_skips_punctured_component_and_uses_next():
    # puncture exactly the first hash position of the tag: dec must fall
    # through to a later component and still recover the payload
    msk = make_key(256, 4)
    tag = b"surgical"
    positions = msk.D.positions(tag)
    assert len(set(positions)) == 4
    ct = sre.enc(msk, b"still-here", tag)
    D = msk.D.copy()
    D.bits[positions[0] >> 3] |= 0x80 >> (positions[0] & 7)
    rk = sre.ck_rev(msk.sk, D)
    assert rk.key.eval(positions[0]) is None
    assert sre.dec(rk, ct, tag) == b"still-here"


def test_dec_with_foreign_tag_fails_frame_check():
    msk = make_key(4096, 4)
    tag = b"the-real-tag"
    ct = sre.enc(msk, b"secret", tag)
    rk = sre.ck_rev(msk.sk, msk.D)
    taken = set(msk.D.positions(tag))
    other = next(t for t in (b"other-%d" % i for i in range(100))
                 if not taken & set(msk.D.positions(t)))
    assert sre.dec(rk, ct, other) is None


def test_dec_rejects_component_count_mismatch():
    msk = make_key(64, 3)
    ct = sre.enc(msk, b"x", b"t")
    rk = sre.ck_rev(msk.sk, msk.D)
    bad = dataclasses.replace(ct, wraps=ct.wraps[:2])
    with pytest.raises(ValueError):
        sre.dec(rk, bad, b"t")


def test_ciphertext_roundtrip():
    msk = make_key(64, 3)
    ct = sre.enc(msk, b"some payload bytes", b"tag")
    assert len(ct.nonce) == 12
    assert ct.h == 3 and all(len(w) == 16 for w in ct.wraps)
    assert len(ct.body) == len(sre.MAGIC) + len(b"some payload bytes")
    blob = ct.encode()
    assert blob[:2] == bytes([0, 3])
    assert sre.decode_ciphertext(blob) == ct
    with pytest.raises(ValueError):
        sre.decode_ciphertext(b"")


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 16), size=st.integers(0, 200))
def test_entry_size_formula(h, size):
    # [0][h][nonce:12] h x [wrap:16] [magic:8][payload] [tag:16]
    msk = sre.kgen(16, h)
    entry = edb.encode_entry(sre.enc(msk, bytes(size), TAG), TAG)
    assert len(entry) == 2 + 12 + 16 * h + 8 + size + 16


def flip(blob: bytes, ix: int) -> bytes:
    return blob[:ix] + bytes([blob[ix] ^ 1]) + blob[ix + 1:]


def test_flipped_body_or_wrap_byte_fails_dec():
    msk = make_key(256, 4)
    rk = sre.ck_rev(msk.sk, msk.D)
    blob = sre.enc(msk, b"payload", TAG).encode()
    assert sre.dec(rk, sre.decode_ciphertext(blob), TAG) == b"payload"
    # nothing is punctured, so dec unwraps with the first wrap; the
    # body's first 8 bytes are the magic that checks the unwrap
    first_wrap, body = 2 + 12, 2 + 12 + 16 * 4
    for ix in (first_wrap, first_wrap + 15, body, body + 7):
        assert sre.dec(rk, sre.decode_ciphertext(flip(blob, ix)), TAG) is None


def test_truncated_entry_raises():
    msk = make_key(64, 3)
    entry = edb.encode_entry(sre.enc(msk, b"payload", TAG), TAG)
    # header, wraps, magic and tag are fixed-size; any shorter entry
    # cannot hold them
    shortest = 2 + 12 + 16 * 3 + 8 + 16
    for end in range(shortest):
        with pytest.raises(ValueError):
            edb.decode_entry(entry[:end])


def test_revoked_key_roundtrip():
    msk = make_key(128, 4)
    D = sre.comp(msk.D, b"revoked-tag")
    rk = sre.ck_rev(msk.sk, D)
    blob = rk.encode()
    back, consumed = sre.decode_revoked_key(blob)
    assert consumed == len(blob)
    assert back.key == rk.key
    assert back.filter == rk.filter
    ct = sre.enc(msk, b"v", b"other")
    assert sre.dec(back, ct, b"other") == sre.dec(rk, ct, b"other")


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 12), data=st.data())
def test_revoked_key_roundtrip_is_byte_identical(depth, data):
    b = 1 << depth
    holes = data.draw(st.sets(st.integers(0, b - 1), max_size=min(b, 64)))
    D = bloom.BloomFilter(b, 1, bytes(16))
    for ix in holes:
        D.bits[ix >> 3] |= 0x80 >> (ix & 7)
    rk = sre.ck_rev(ggm.GgmRoot(bytes(range(16)), depth), D)
    blob = rk.encode()
    back, consumed = sre.decode_revoked_key(blob)
    assert consumed == len(blob)
    assert back.key == rk.key and back.filter == rk.filter
    assert back.encode() == blob


def test_decode_rejects_filter_of_other_domain():
    # a depth-7 key needs a 128-bit filter
    msk = make_key(128, 4)
    rk = sre.ck_rev(msk.sk, sre.comp(msk.D, b"t"))
    wrong = bloom.BloomFilter(64, 4, bytes(16))
    with pytest.raises(ValueError, match="key domain"):
        sre.decode_revoked_key(rk.key.encode() + wrong.encode())


def test_accidental_revocation_rate_bounded():
    # design load: n tags revoked, fresh tags die only via filter FPs
    n, p = 300, 0.02
    b_raw, h = bloom.size_for(n, p)
    b = 1 << (b_raw - 1).bit_length()
    msk = sre.kgen(b, h)
    D = msk.D
    for i in range(n):
        D = sre.comp(D, b"revoked-%d" % i)
    rk = sre.ck_rev(msk.sk, D)
    trials, dead = 3000, 0
    rng = random.Random(4321)
    for _ in range(trials):
        tag = rng.randbytes(16)
        ct = sre.enc(msk, b"p", tag)
        if sre.dec(rk, ct, tag) is None:
            dead += 1
    assert dead / trials <= 2 * p


def test_greedy_store_matches_plain_dec():
    msk = make_key(1024, 6)
    D = msk.D
    tags = [b"t%04d" % i for i in range(120)]
    for t in tags[:30]:
        D = sre.comp(D, t)
    rk = sre.ck_rev(msk.sk, D)
    store = sre.SubkeyStore(rk.key)
    rng = random.Random(5)
    for _ in range(2000):
        tag = rng.choice(tags) if rng.random() < 0.7 else rng.randbytes(12)
        for pos in D.positions(tag):
            assert store.leaf(pos) == rk.key.eval(pos)


def reference_dec(rk, ct, tag):
    """Reference ``dec``: evaluates the key at every position, revoked
    or not, and decrypts with the first that survives."""
    for i, pos in enumerate(rk.filter.positions(tag)):
        key = rk.key.eval(pos)
        if key is None:
            continue
        dk = stream_xor(key, ct.nonce, ct.wraps[i])
        framed = stream_xor(dk, ct.nonce, ct.body)
        return (framed[len(sre.MAGIC):] if framed[:len(sre.MAGIC)] == sre.MAGIC
                else None)
    return None


def search_counting_evals(monkeypatch, state, db, keyword):
    """Run one search; returns (outcome, the reference's fresh values and
    purges, DelegatedKey.eval calls made by the search)."""
    request = cl.search_client_token(state, keyword)
    fresh, purged = [], []
    for address in request.sigma_token.addresses():
        payload = db.main.get(address)
        if payload is None:
            continue
        value = reference_dec(request.revoked_key, *edb.decode_entry(payload))
        if value is None:
            purged.append(address)
        else:
            fresh.append(value)
    calls = []
    inner = ggm.DelegatedKey.eval

    def counted(self, index):
        calls.append(index)
        return inner(self, index)

    with monkeypatch.context() as patch:
        patch.setattr(ggm.DelegatedKey, "eval", counted)
        outcome = db.execute_search(request)
    assert outcome.results[:outcome.fresh] == fresh
    assert outcome.purged == purged
    return outcome, len(calls)


def test_revoked_entries_cost_no_key_work(monkeypatch):
    # revoke_p small enough that no live tag is revoked by accident
    state, db = cl.setup(cl.ClientConfig(bf_n=200, bf_p=1e-6, d_max=50,
                                         revoke_p=1e-6, sigma_depth=10))
    for value in (b"a", b"b", b"c"):
        cl.update(state, cl.ADD, b"w", value, db)
    outcome, evals = search_counting_evals(monkeypatch, state, db, b"w")
    assert outcome.fresh == 3 and evals == 3

    # an epoch of duplicates and deletes only: every entry is a dummy
    for value in (b"a", b"b", b"a", b"c", b"a"):
        cl.update(state, cl.ADD, b"w", value, db)
    cl.update(state, cl.DELETE, b"w", b"b", db)
    outcome, evals = search_counting_evals(monkeypatch, state, db, b"w")
    assert evals == 0
    assert outcome.fresh == 0 and len(outcome.purged) == 5

    # mixed: fresh adds, duplicates and a delete of a fresh add; a
    # delete uploads nothing, so the epoch holds five entries
    for op, value in ((cl.ADD, b"d"), (cl.ADD, b"e"), (cl.ADD, b"a"),
                      (cl.ADD, b"d"), (cl.ADD, b"f"), (cl.DELETE, b"e")):
        cl.update(state, op, b"w", value, db)
    outcome, evals = search_counting_evals(monkeypatch, state, db, b"w")
    assert outcome.fresh == 2 and len(outcome.purged) == 3
    assert evals == 2
    assert cl.search_finalize(state, outcome.results) == {
        b"a", b"b", b"c", b"d", b"f"}
