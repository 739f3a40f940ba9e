"""Frame codec: length prefixes, caps, body layouts."""

import io
import tracemalloc

import pytest

from ddse import client as cl
from ddse import wire
from ddse.client import ClientConfig
from ddse.crypto import encode_varint
from ddse.wire import FrameError


def test_pack_read_roundtrip():
    buf = io.BytesIO(wire.pack_frame(wire.UPDATE, b"body-bytes")
                     + wire.pack_frame(wire.BYE))
    assert wire.read_frame(buf) == (wire.UPDATE, b"body-bytes")
    assert wire.read_frame(buf) == (wire.BYE, b"")


def test_frame_length_covers_type_and_body():
    frame = wire.pack_frame(wire.ERROR, b"oops")
    assert frame[:4] == (1 + 4).to_bytes(4, "big")
    assert frame[4] == wire.ERROR


def test_pack_rejects_unknown_type_and_oversize():
    with pytest.raises(ValueError):
        wire.pack_frame(99, b"")
    with pytest.raises(FrameError):
        wire.pack_frame(wire.UPDATE, b"x" * wire.MAX_FRAME)


def test_read_rejects_oversize_claim():
    buf = io.BytesIO((wire.MAX_FRAME + 1).to_bytes(4, "big") + b"\x02")
    with pytest.raises(FrameError) as refused:
        wire.read_frame(buf)
    assert not isinstance(refused.value, wire.ConnectionClosed)


def test_read_rejects_zero_length_and_truncation():
    with pytest.raises(FrameError) as refused:
        wire.read_frame(io.BytesIO((0).to_bytes(4, "big")))
    assert not isinstance(refused.value, wire.ConnectionClosed)
    # the stream ends at a frame boundary, inside the header, inside the body
    for data in (b"", b"\x00\x00", (10).to_bytes(4, "big") + b"\x02abc"):
        with pytest.raises(wire.ConnectionClosed):
            wire.read_frame(io.BytesIO(data))


def test_update_body_roundtrip():
    address, payload = bytes(32), b"entry-payload"
    body = wire.encode_update_body(address, payload)
    assert wire.decode_update_body(body) == (address, payload)
    with pytest.raises(ValueError):
        wire.encode_update_body(b"short", payload)
    with pytest.raises(FrameError):
        wire.decode_update_body(body[:-1])
    with pytest.raises(FrameError):
        wire.decode_update_body(b"")


def test_result_body_roundtrip():
    items = [b"", b"a", b"retrieval-bytes" * 10]
    body = wire.encode_result_body(items)
    assert wire.decode_result_body(body) == items
    assert wire.decode_result_body(wire.encode_result_body([])) == []
    with pytest.raises(FrameError):
        wire.decode_result_body(body + b"junk")
    with pytest.raises(FrameError):
        wire.decode_result_body(body[:-1])


@pytest.mark.parametrize("body, refusal", [
    (b"\x00\x00\x01", "result body too short"),
    (b"\x00\x00\x00\x02" + b"\x00\x00\x00\x01x" + b"\x00\x00",
     "truncated result list"),
    (b"\x00\x00\x00\x01" + b"\x00\x00\x00\x05abcd", "truncated retrieval"),
    (b"\x00\x00\x00\x01" + b"\x00\x00\x00\x01x" + b"y",
     "trailing bytes after result list"),
    (b"\xff\xff\xff\xff", "truncated result list"),
], ids=["too-short", "truncated-list", "truncated-retrieval", "trailing",
        "huge-count"])
def test_result_body_refusals(body, refusal):
    with pytest.raises(FrameError, match=refusal):
        wire.decode_result_body(body)


def test_result_body_retrievals_are_bytes_slices():
    items = [b"x" * 40, b"", b"yz"]
    got = wire.decode_result_body(wire.encode_result_body(items))
    assert got == items and all(type(r) is bytes for r in got)


def test_search_body_roundtrip():
    config = ClientConfig(bf_n=100, bf_p=1e-3, d_max=8, revoke_p=1e-2,
                          sigma_depth=10)
    state, edb = cl.setup(config)
    cl.update(state, cl.ADD, b"kw", b"v1", edb)
    cl.update(state, cl.ADD, b"kw", b"v1", edb)
    cl.update(state, cl.DELETE, b"kw", b"v2", edb)
    request = cl.search_client_token(state, b"kw")
    body = wire.encode_search_body(request)
    back = wire.decode_search_body(body)
    assert back.tkn == request.tkn
    assert back.revoked_key.key == request.revoked_key.key
    assert back.revoked_key.filter == request.revoked_key.filter
    assert (list(back.sigma_token.addresses())
            == list(request.sigma_token.addresses()))
    # decoded request must execute identically
    outcome = edb.execute_search(back)
    assert cl.search_finalize(state, outcome.results) == {b"v1"}
    with pytest.raises(FrameError):
        wire.decode_search_body(body[:-2])
    with pytest.raises(FrameError):
        wire.decode_search_body(body + b"\x00")


def test_search_body_with_key_not_matching_its_filter_rejected():
    # the key's shapes come from the filter's set bits: one more hole in
    # a node of height k splits it into k nodes, so the seed count no
    # longer matches the cover the filter implies
    config = ClientConfig(bf_n=100, bf_p=1e-3, d_max=8, revoke_p=1e-2,
                          sigma_depth=10)
    state, edb = cl.setup(config)
    cl.update(state, cl.ADD, b"kw", b"v1", edb)
    cl.update(state, cl.DELETE, b"kw", b"v1", edb)
    request = cl.search_client_token(state, b"kw")
    key, filt = request.revoked_key.key, request.revoked_key.filter.copy()
    node = min(key.nodes, key=lambda n: n.plen)
    height = key.depth - node.plen
    assert height >= 2
    leaf = node.prefix << height
    filt.bits[leaf >> 3] |= 0x80 >> (leaf & 7)
    body = request.tkn + key.encode() + filt.encode() + request.sigma_token.encode()
    with pytest.raises(FrameError, match="seeds for a cover"):
        wire.decode_search_body(body)


def test_search_body_decode_holds_few_bytes_per_body_byte():
    # a hole at every other leaf: each odd leaf is a cover node of its
    # own, so the body is one seed plus one gap byte per hole.  2^18
    # leaves, not 2^20: tracing every allocation slows the decode ~20x
    depth, holes = 18, 1 << 17
    key = bytes([0, depth]) + holes.to_bytes(4, "big") + bytes(16 * holes)
    filt = ((1 << depth).to_bytes(8, "big") + b"\x05" + bytes(16)
            + encode_varint(holes) + b"\x00" + b"\x01" * (holes - 1))
    body = bytes(32) + key + filt + bytes(32) + bytes([1, depth, 0])
    tracemalloc.start()
    try:
        back = wire.decode_search_body(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    got = back.revoked_key.key
    assert got.covered_count == holes and len(got.seeds) == 16 * holes
    assert got.eval(2) is None and got.eval(3) == bytes(16)
    assert peak <= 4 * len(body)
