"""Placement layer: ordered retrieval, token purity, counter cap."""

import pytest
from hypothesis import given, settings, strategies as st

from ddse import fpdse, ggm
from ddse.client import ClientConfig
from ddse.crypto import KEY_LEN, fresh_key
from ddse.edb import AddressCollision, EncryptedDatabase
from ddse.fpdse import SigmaState, decode_sigma_token

KEY = bytes(range(32, 48))


def sigma_setup(depth=ClientConfig.sigma_depth):
    return EncryptedDatabase(), SigmaState(fresh_key(KEY_LEN), depth)


def put(state, label, counter, payload, edb):
    """Store ``payload`` as entry ``counter`` of ``label``, as
    ``client.update`` does; returns its address."""
    address = state.update(label, counter)
    edb.apply_update(address, payload)
    return address


def place(state, label, payloads, edb):
    """Place ``payloads`` as entries 0, 1, ... of ``label``."""
    return [put(state, label, i, p, edb) for i, p in enumerate(payloads)]


def sigma_search(state, label, count, edb):
    """Payloads of the label's first ``count`` entries, in insertion
    order; entries purged from ``edb`` are skipped."""
    token = state.search_token(label, count)
    payloads = (edb.main.get(address) for address in token.addresses())
    return [p for p in payloads if p is not None]


def test_setup_returns_empty_stores():
    edb, state = sigma_setup()
    assert edb.main == {} and edb.cache == {}
    assert state.depth == ClientConfig.sigma_depth


def test_update_search_roundtrip_in_insertion_order():
    edb, state = sigma_setup(depth=8)
    payloads = [b"p%d" % i for i in range(10)]
    place(state, b"label-A", payloads, edb)
    assert sigma_search(state, b"label-A", 10, edb) == payloads
    # repeat: search is not destructive
    assert sigma_search(state, b"label-A", 10, edb) == payloads


def test_unknown_label_searches_empty():
    edb, state = sigma_setup(depth=8)
    place(state, b"known", [b"x"], edb)
    assert sigma_search(state, b"never-seen", 0, edb) == []
    token = state.search_token(b"never-seen", 0)
    assert token.count == 0
    assert list(token.addresses()) == []


def test_labels_do_not_interfere():
    edb, state = sigma_setup(depth=8)
    for i in range(5):
        put(state, b"A", i, b"a%d" % i, edb)
        put(state, b"B", i, b"b%d" % i, edb)
    assert sigma_search(state, b"A", 5, edb) == [b"a%d" % i for i in range(5)]
    assert sigma_search(state, b"B", 5, edb) == [b"b%d" % i for i in range(5)]


def test_addresses_pairwise_distinct():
    edb, state = sigma_setup(depth=10)
    for i in range(200):
        put(state, b"L%d" % (i % 7), i // 7, b"x", edb)
    assert len(edb.main) == 200


def test_update_token_independent_of_payload():
    e1, s1 = sigma_setup(depth=8)
    s2 = SigmaState(s1.key, 8)
    e2 = EncryptedDatabase()
    t1 = place(s1, b"L", [b"short"] * 6, e1)
    t2 = place(s2, b"L", [b"a much longer payload body"] * 6, e2)
    assert t1 == t2


def test_update_returns_the_address_and_sends_nothing():
    state = SigmaState(KEY, 8)
    address = state.update(b"L", 3)
    assert len(address) == 32 and state.update(b"L", 3) == address
    with pytest.raises(TypeError):  # no payload, no transport
        state.update(b"L", 3, b"payload", EncryptedDatabase())


def test_search_token_covers_exactly_the_chain():
    edb, state = sigma_setup(depth=8)
    place(state, b"L", [b"p%d" % i for i in range(6)], edb)
    token = state.search_token(b"L", 6)
    assert token.count == 6
    addrs = list(token.addresses())
    assert len(addrs) == 6
    assert [edb.main[a] for a in addrs] == [b"p%d" % i for i in range(6)]


def test_search_token_needs_only_the_key_and_the_count():
    edb, state = sigma_setup(depth=8)
    place(state, b"L", [b"p%d" % i for i in range(5)], edb)
    # a placement key holds nothing per label: a copy that placed
    # nothing gives the same token, and any prefix of the chain
    copy = SigmaState(state.key, 8)
    assert copy.search_token(b"L", 5) == state.search_token(b"L", 5)
    assert (sigma_search(copy, b"L", 3, edb)
            == [b"p%d" % i for i in range(3)])
    with pytest.raises(AttributeError):
        state.counter = 1  # frozen


def test_counter_cap_enforced():
    edb, state = sigma_setup(depth=2)
    place(state, b"L", [b"x"] * 4, edb)
    with pytest.raises(fpdse.CounterExhausted):
        state.update(b"L", 4)


def test_address_collision_aborts():
    edb, state = sigma_setup(depth=8)
    address = put(state, b"L", 0, b"x", edb)
    with pytest.raises(AddressCollision):
        edb.apply_update(address, b"y")


def test_sigma_token_roundtrip():
    edb, state = sigma_setup(depth=12)
    place(state, b"L", [b"p"] * 9, edb)
    token = state.search_token(b"L", 9)
    back, consumed = decode_sigma_token(token.encode())
    assert consumed == len(token.encode())
    assert back.label_id == token.label_id
    assert back.key == token.key
    assert list(back.addresses()) == list(token.addresses())


def test_empty_token_roundtrip():
    _, state = sigma_setup(depth=12)
    token = state.search_token(b"none", 0)
    back, _ = decode_sigma_token(token.encode())
    assert back.count == 0 and list(back.addresses()) == []


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 12), data=st.data())
def test_sigma_token_roundtrip_is_byte_identical(depth, data):
    count = data.draw(st.integers(0, 1 << depth))
    token = fpdse.SearchTokenSigma(
        bytes(range(32)), ggm.GgmRoot(KEY[:16], depth).constrain_range(count))
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
        put(s1, b"L", i, b"p%d" % i, edb1)
        put(s2, b"L", i, b"p%d" % i, edb2)
    assert list(edb1.main) == list(edb2.main)
    other = SigmaState(bytes(16), 8)
    e3 = EncryptedDatabase()
    put(other, b"L", 0, b"p0", e3)
    assert list(e3.main) != list(edb1.main)[:1]
