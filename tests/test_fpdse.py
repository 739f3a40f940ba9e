"""Placement layer: ordered retrieval, token purity, counter cap."""

import pytest
from hypothesis import given, settings, strategies as st

from ddse import fpdse, ggm
from ddse.crypto import KEY_LEN, fresh_key
from ddse.edb import AddressCollision, EncryptedDatabase
from ddse.fpdse import SigmaState, decode_sigma_token

KEY = bytes(range(32, 48))


def sigma_setup(depth=fpdse.DEFAULT_DEPTH):
    return EncryptedDatabase(), SigmaState(fresh_key(KEY_LEN), depth)


def sigma_search(state, label, edb):
    """Payloads placed under ``label``, in insertion order; entries
    purged from ``edb`` are skipped and an unknown label gives []."""
    token = state.search_token(label)
    payloads = (edb.main.get(address) for address in token.addresses())
    return [p for p in payloads if p is not None]


def test_setup_returns_empty_stores():
    edb, state = sigma_setup()
    assert edb.main == {} and edb.cache == {}
    assert state.depth == fpdse.DEFAULT_DEPTH


def test_update_search_roundtrip_in_insertion_order():
    edb, state = sigma_setup(depth=8)
    payloads = [b"p%d" % i for i in range(10)]
    for p in payloads:
        state.update(b"label-A", p, edb)
    assert sigma_search(state, b"label-A", edb) == payloads
    # repeat: search is not destructive
    assert sigma_search(state, b"label-A", edb) == payloads


def test_unknown_label_searches_empty():
    edb, state = sigma_setup(depth=8)
    state.update(b"known", b"x", edb)
    assert sigma_search(state, b"never-seen", edb) == []
    token = state.search_token(b"never-seen")
    assert token.count == 0
    assert list(token.addresses()) == []


def test_labels_do_not_interfere():
    edb, state = sigma_setup(depth=8)
    for i in range(5):
        state.update(b"A", b"a%d" % i, edb)
        state.update(b"B", b"b%d" % i, edb)
    assert sigma_search(state, b"A", edb) == [b"a%d" % i for i in range(5)]
    assert sigma_search(state, b"B", edb) == [b"b%d" % i for i in range(5)]


def test_addresses_pairwise_distinct():
    edb, state = sigma_setup(depth=10)
    for i in range(200):
        state.update(b"L%d" % (i % 7), b"x", edb)
    assert len(edb.main) == 200


def test_update_token_independent_of_payload():
    e1, s1 = sigma_setup(depth=8)
    s2 = SigmaState(s1.key, 8)
    e2 = EncryptedDatabase()
    t1 = [s1.update(b"L", b"short", e1).address for _ in range(6)]
    t2 = [s2.update(b"L", b"a much longer payload body", e2).address
          for _ in range(6)]
    assert t1 == t2


def test_search_token_covers_exactly_the_chain():
    edb, state = sigma_setup(depth=8)
    for i in range(6):
        state.update(b"L", b"p%d" % i, edb)
    token = state.search_token(b"L")
    assert token.count == 6
    addrs = list(token.addresses())
    assert len(addrs) == 6
    assert [edb.main[a] for a in addrs] == [b"p%d" % i for i in range(6)]


def test_retire_gives_search_token_and_drops_chain():
    edb, state = sigma_setup(depth=8)
    for i in range(3):
        state.update(b"L", b"p%d" % i, edb)
        state.update(b"M", b"m%d" % i, edb)
    want = list(state.search_token(b"L").addresses())
    assert list(state.retire(b"L").addresses()) == want
    assert set(state.chains) == {b"M"}
    assert state.retire(b"L").count == 0


def test_counter_cap_enforced():
    edb, state = sigma_setup(depth=2)
    for i in range(4):
        state.update(b"L", b"x", edb)
    with pytest.raises(fpdse.CounterExhausted):
        state.update(b"L", b"overflow", edb)


def test_address_collision_aborts():
    edb, state = sigma_setup(depth=8)
    token = state.update(b"L", b"x", edb)
    with pytest.raises(AddressCollision):
        edb.apply_update(token.address, b"y")


def test_sigma_token_roundtrip():
    edb, state = sigma_setup(depth=12)
    for i in range(9):
        state.update(b"L", b"p", edb)
    token = state.search_token(b"L")
    back, consumed = decode_sigma_token(token.encode())
    assert consumed == len(token.encode())
    assert back.label_id == token.label_id
    assert back.key == token.key
    assert list(back.addresses()) == list(token.addresses())


def test_empty_token_roundtrip():
    _, state = sigma_setup(depth=12)
    token = state.search_token(b"none")
    back, _ = decode_sigma_token(token.encode())
    assert back.count == 0 and list(back.addresses()) == []


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 12), data=st.data())
def test_sigma_token_roundtrip_is_byte_identical(depth, data):
    count = data.draw(st.integers(0, 1 << depth))
    token = fpdse.SearchTokenSigma(
        bytes(range(32)), ggm.gen_root(KEY[:16], depth).constrain_range(count))
    blob = token.encode()
    back, consumed = decode_sigma_token(blob)
    assert consumed == len(blob) == token.key.encoded_size + 32
    assert back == token and back.count == count
    assert back.encode() == blob


def test_decode_rejects_truncation():
    with pytest.raises(ValueError):
        decode_sigma_token(b"\x00" * 20)


def test_chain_is_deterministic_per_key():
    edb1, s1 = sigma_setup(depth=8)
    edb2 = EncryptedDatabase()
    s2 = SigmaState(s1.key, 8)
    for i in range(5):
        s1.update(b"L", b"p%d" % i, edb1)
        s2.update(b"L", b"p%d" % i, edb2)
    assert list(edb1.main) == list(edb2.main)
    other = SigmaState(bytes(16), 8)
    e3 = EncryptedDatabase()
    other.update(b"L", b"p0", e3)
    assert list(e3.main) != list(edb1.main)[:1]
