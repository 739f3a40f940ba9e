"""Golden byte vectors for every wire, write-ahead-log and state-file layout.

Every vector is built from fixed seeds, tags and nonces and compared
with literal bytes, so a change to a frame header, a body codec, the
entry encoding or a log record fails here.  The scenario: two entries
placed under one label (a live one, "kept", and one whose tag is then
revoked, "gone"), then one search that purges "gone" and caches
"kept", then a compaction that leaves only the live state.  Retired
layouts are kept as vectors that must be refused.
"""

import tracemalloc

import pytest

from ddse import bloom, edb, fpdse, ggm, sre, statefile, wire
from ddse.store import PersistentStore


def h(text: str) -> bytes:
    return bytes.fromhex(text)


TKN = bytes(range(64, 96))
LABEL = b"label"
TAG_KEPT = b"K" * 16
TAG_GONE = b"R" * 16

# entry = [0][h:1][nonce:12] h x [wrap:16] [body][tag:16], where each
# wrap is the data key under one position's leaf key and the body is
# [magic:8][retrieval] under the data key
ENTRY_KEPT = h(
    "00 02 010101010101010101010101"
    "c029e4901b33f06ccd792e735db30a49"
    "b85becc5193f2549ed718ce473647b15"
    "510193766bb00b6b 949586dd"
    "4b4b4b4b4b4b4b4b4b4b4b4b4b4b4b4b")
ENTRY_GONE = h(
    "00 02 020202020202020202020202"
    "dbeedfa9d1325fa1168ea3f0341a96aa"
    "8c0ffc1f04bd151820c5052ef39785d3"
    "e6327f1e011b8737 58d0fb72"
    "52525252525252525252525252525252")
ADDRESS_KEPT = h(
    "8f3f21c2cf7379abb4e58293996d6912f3a0498028482ed972d7bf256b3e0e37")
ADDRESS_GONE = h(
    "a72bfc2adcc6a5ddbc60dcf885b562e3fdfb6631dc1edc949106c9864fd78828")

# UPDATE = [address:32][len:4][payload]
UPDATE_BODY = ADDRESS_KEPT + h("0000004a") + ENTRY_KEPT

# SEARCH = [tkn:32][punctured key][revocation filter][placement token]
# key = [kind:1][depth:1][count:4] count x [seed:16]
# filter = [b:8][h:1][seed:16][n] n x [clear bits before the next set bit]
# token = [label id:32][kind:1][depth:1][c] popcount(c) x [seed:16]
# (n, gaps and c are LEB128 varints).  Holes 9 and 15 of 16 leave the
# runs [0, 9) and [10, 15), whose cover is the nodes 0/1, 8/4, 5/3, 6/3
# and 14/4 (prefix/bit length); the range key covers [0, 2) with the
# node 0/3.
SEARCH_KEY_SEEDS = h(
    "be45cb2605bf36bebde684841a28f0fd"
    "f78c39966dd00f17e36db19c1c8e7dd8"
    "2954a29785ee8ea0d190ad688a33bb76"
    "c430eb30ad23ab736a8ba6b82d14a112"
    "5b9f0090d648c4114ddbe71f305ef41d")
SEARCH_FILTER_HEAD = h("0000000000000010 02 101112131415161718191a1b1c1d1e1f")
SEARCH_HOLES = h("02 09 05")
SEARCH_TOKEN = h(
    "fdcbe265fe24cad2023bff7702a40e164acd5982b1829e7a983eb574d82fc92a"
    "01 04 02"
    "a032b0e007642d9970c008f93412e690")


def search_body(count: int = 5, seeds: bytes = SEARCH_KEY_SEEDS,
                holes: bytes = SEARCH_HOLES) -> bytes:
    return (TKN + h("00 04") + count.to_bytes(4, "big") + seeds
            + SEARCH_FILTER_HEAD + holes + SEARCH_TOKEN)


SEARCH_BODY = search_body()

# protocol version 1 sent a (plen, prefix) shape with every key node, the
# filter as a bitmap and the range key's node count; no decoder remains
SEARCH_BODY_V1 = TKN + h(
    "00 04 00000003"
    "01 00000000 be45cb2605bf36bebde684841a28f0fd"
    "03 00000005 2954a29785ee8ea0d190ad688a33bb76"
    "02 00000003 e3023f6100e16e463e082b17b1ac5a65"
    "0000000000000010 02 101112131415161718191a1b1c1d1e1f 00c0"
    "fdcbe265fe24cad2023bff7702a40e164acd5982b1829e7a983eb574d82fc92a"
    "01 04 00000001"
    "03 00000000 a032b0e007642d9970c008f93412e690")

# RESULT = [count:4] count x {[len:4][retrieval]}
RESULT_KEPT = h("00000001 00000004 6b657074")
RESULT_NEW = h("00000001 00000003 6e6577")

# log record = [len:4][type:1][body][crc32 of type+body:4]
PUT_KEPT = h("0000006f 01") + UPDATE_BODY + h("097f6fd4")
PUT_GONE = (h("0000006f 01") + ADDRESS_GONE + h("0000004a") + ENTRY_GONE
            + h("9cdee0b6"))
DEL_GONE = h("00000021 02") + ADDRESS_GONE + h("37d9c405")
# a search logs only its fresh retrievals (FRESH), folded into the slot
# on replay; compaction writes one FRESH per slot, which folded into an
# absent slot gives exactly that slot
FRESH_KEPT = h("0000002d 04") + TKN + RESULT_KEPT + h("021e40a5")
FRESH_NEW = h("0000002c 04") + TKN + RESULT_NEW + h("79c1b060")

# retired: CACHE (type 3) replaced a whole slot; snapshot files wrote it
# after their header, and so did every search before FRESH existed
CACHE_KEPT = h("0000002d 03") + TKN + RESULT_KEPT + h("de1e95c3")
SNAPSHOT_HEADER = b"DDSESNAP" + h("01")

# protocol version 2 stored the framed retrieval once per position, each
# copy with its own nonce and length: [h:1] h x {[nonce:12][len:4][body]}
# [tag:16].  Its first byte h >= 1 can never start a current entry, so
# such an entry is refused instead of failing decryption and being purged
ENTRY_KEPT_V2 = h(
    "02"
    "010101010101010101010101 00000010 fbf36fc94b112c02f58bcbf67d5b964e"
    "020202020202020202020202 00000010 cf39a27caea608a08a1fb97eb5fb38e8"
    "4b4b4b4b4b4b4b4b4b4b4b4b4b4b4b4b")
ENTRY_GONE_V2 = h(
    "02"
    "030303030303030303030303 00000010 c4279ac5d0124fba90bf59cb44c4f19c"
    "040404040404040404040404 00000010 4252dfd49534806e51b4b49f18cb0a90"
    "52525252525252525252525252525252")
PUT_KEPT_V2 = (h("00000076 01") + ADDRESS_KEPT + h("00000051") + ENTRY_KEPT_V2
               + h("67d1032c"))
PUT_GONE_V2 = (h("00000076 01") + ADDRESS_GONE + h("00000051") + ENTRY_GONE_V2
               + h("b6899fae"))

# state file = [magic "DDSE"][version:1][salt:16][nonce:12][AES-GCM box]
STATE_SALT = bytes(range(16))
STATE_NONCE = bytes(range(16, 28))
STATE_HEADER = b"DDSE" + h("03") + STATE_SALT + STATE_NONCE
STATE_PASSPHRASE = "pass"
STATE_BUNDLE = {"key": bytes(range(4)), "tag": b"ddse"}
# sealed pickle of STATE_BUNDLE; only load is pinned, as pickle bytes may
# differ across Python versions.  The AES-GCM box authenticates only the
# magic, so the older files differ in their version byte alone and must
# be refused: version 1's Bloom filters probed double-hashed positions,
# and version 2 held per-keyword maps and placement chains
STATE_BOX = h(
    "d45b8be1b29dce96ba9e978db4e6b2fe52ab1aa7e18629db61bc8e8d8c8ded2f"
    "f5bcbeef4c7651d80ccd3e847978446b065e035a2b39fd7dfd0f")
STATE_FILE = STATE_HEADER + STATE_BOX
STATE_FILE_V1 = b"DDSE" + h("01") + STATE_SALT + STATE_NONCE + STATE_BOX
STATE_FILE_V2 = b"DDSE" + h("02") + STATE_SALT + STATE_NONCE + STATE_BOX


@pytest.fixture
def scenario(monkeypatch):
    """Fixed master key, filter seed, placement key and nonces."""
    nonces = iter(bytes([i]) * 12 for i in range(1, 256))
    data_keys = iter(bytes([i]) * 16 for i in range(0xd1, 0x100))
    monkeypatch.setattr(sre, "fresh_nonce", lambda: next(nonces))
    monkeypatch.setattr(sre, "fresh_key", lambda n: next(data_keys))
    msk = sre.SreMasterKey(ggm.GgmRoot(bytes(range(16)), 4),
                           bloom.BloomFilter.gen(16, 2, bytes(range(16, 32))))
    sigma = fpdse.SigmaState(bytes(range(32, 48)), 4)
    entries = [edb.encode_entry(sre.enc(msk, b"kept", TAG_KEPT), TAG_KEPT),
               edb.encode_entry(sre.enc(msk, b"gone", TAG_GONE), TAG_GONE)]
    return msk, sigma, entries


def search_request(msk, sigma) -> edb.SearchRequest:
    return edb.SearchRequest(
        TKN, sre.ck_rev(msk.sk, sre.comp(msk.D, TAG_GONE)),
        sigma.search_token(LABEL, 2))  # both golden entries


def test_frame_headers():
    assert wire.PROTOCOL_VERSION == 4
    hello = wire.pack_frame(wire.HELLO, bytes([wire.PROTOCOL_VERSION]))
    assert hello == h("00000002 01 04")
    assert wire.pack_frame(wire.UPDATE, UPDATE_BODY)[:5] == h("0000006f 02")
    assert wire.pack_frame(wire.SEARCH, SEARCH_BODY)[:5] == h("000000c6 03")
    assert wire.pack_frame(wire.RESULT) == h("00000001 04")
    assert wire.pack_frame(wire.ERROR, b"x") == h("00000002 05 78")
    assert wire.pack_frame(wire.BYE) == h("00000001 06")


def test_entry_and_update_body(scenario):
    _, sigma, entries = scenario
    assert entries == [ENTRY_KEPT, ENTRY_GONE]

    class Capture:
        def apply_update(self, address, payload):
            self.body = wire.encode_update_body(address, payload)

    capture = Capture()
    sigma.update(LABEL, 0, ENTRY_KEPT, capture)
    assert capture.body == UPDATE_BODY
    assert wire.decode_update_body(UPDATE_BODY) == (ADDRESS_KEPT, ENTRY_KEPT)


def test_search_body(scenario):
    msk, sigma, _ = scenario
    sigma.update(LABEL, 0, ENTRY_KEPT, edb.EncryptedDatabase())
    sigma.update(LABEL, 1, ENTRY_GONE, edb.EncryptedDatabase())
    assert wire.encode_search_body(search_request(msk, sigma)) == SEARCH_BODY
    back = wire.decode_search_body(SEARCH_BODY)
    assert wire.encode_search_body(back) == SEARCH_BODY
    assert list(back.sigma_token.addresses()) == [ADDRESS_KEPT, ADDRESS_GONE]
    assert back.revoked_key.filter.set_bits() == [9, 15]


def test_token_only_search_body():
    # a keyword whose epoch is empty sends its cache token alone
    request = edb.SearchRequest(TKN)
    assert request.token_only
    assert wire.encode_search_body(request) == TKN
    assert wire.pack_frame(wire.SEARCH, TKN) == h("00000021 03") + TKN
    assert wire.decode_search_body(TKN, token_only=True) == request
    # the full form is told apart by its length alone
    back = wire.decode_search_body(SEARCH_BODY, token_only=True)
    assert not back.token_only
    assert wire.encode_search_body(back) == SEARCH_BODY


@pytest.mark.parametrize("end", [*range(len(TKN)), len(TKN) + 1])
def test_search_body_of_no_form_rejected(end):
    with pytest.raises(wire.FrameError):
        wire.decode_search_body(SEARCH_BODY[:end], token_only=True)


def test_search_body_v1_rejected():
    with pytest.raises(wire.FrameError):
        wire.decode_search_body(SEARCH_BODY_V1)


def test_every_truncated_search_body_rejected():
    for end in range(len(SEARCH_BODY)):
        with pytest.raises(wire.FrameError):
            wire.decode_search_body(SEARCH_BODY[:end])


@pytest.mark.parametrize("body", [
    SEARCH_BODY + b"\x00",                              # one appended byte
    search_body(4, SEARCH_KEY_SEEDS[:64]),              # one seed short
    search_body(6, SEARCH_KEY_SEEDS + bytes(16)),       # one seed extra
    search_body(holes=h("02 09 06")),                   # hole 16 == b
    search_body(holes=h("02 09 07")),                   # hole 17 > b
    search_body(holes=h("01 10")),                      # hole 16 == b
], ids=["appended-byte", "count-minus-one", "count-plus-one",
        "hole-at-b", "hole-beyond-b", "first-hole-at-b"])
def test_malformed_search_body_rejected(body):
    with pytest.raises(wire.FrameError):
        wire.decode_search_body(body)


def search_body_declaring(depth: int, seeds: int = 1,
                          holes: bytes = h("00")) -> bytes:
    """A body over 2^depth leaves with ``seeds`` zero seeds and, by
    default, an empty filter: 95 bytes declare the whole domain."""
    return (TKN + bytes([0, depth]) + seeds.to_bytes(4, "big")
            + bytes(16 * seeds) + (1 << depth).to_bytes(8, "big")
            + SEARCH_FILTER_HEAD[8:] + holes + SEARCH_TOKEN)


def decode_with_peak(body: bytes) -> tuple[edb.SearchRequest, int]:
    tracemalloc.start()
    try:
        return wire.decode_search_body(body), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_small_body_cannot_declare_a_huge_filter():
    for depth in (25, 29, 32):
        with pytest.raises(wire.FrameError):
            wire.decode_search_body(search_body_declaring(depth))
    # the largest filter a body may declare costs its 2 MiB bitmap
    assert bloom.MAX_DECODED_BITS == 1 << 24
    back, peak = decode_with_peak(search_body_declaring(24))
    assert back.revoked_key.filter.b == 1 << 24
    assert peak < (1 << 21) + (1 << 16)


def test_dense_hole_list_costs_a_few_bytes_per_body_byte():
    # every leaf punctured: one gap byte per hole, and no seeds
    body = search_body_declaring(16, 0, h("808004") + bytes(1 << 16))
    back, peak = decode_with_peak(body)
    assert back.revoked_key.key.nodes == ()
    assert peak < 12 * len(body)


def test_result_body():
    assert wire.encode_result_body([b"kept"]) == RESULT_KEPT
    assert wire.encode_result_body([b"kept", b""]) == h(
        "00000002 00000004 6b657074 00000000")
    assert wire.encode_result_body([]) == h("00000000")
    assert wire.decode_result_body(RESULT_KEPT) == [b"kept"]


def test_log_records_and_compaction(scenario, tmp_path):
    msk, sigma, entries = scenario
    log = tmp_path / "log"
    with PersistentStore(tmp_path) as store:
        for counter, entry in enumerate(entries):
            sigma.update(LABEL, counter, entry, store)
        assert log.read_bytes() == PUT_KEPT + PUT_GONE
        outcome = store.execute_search(search_request(msk, sigma))
        assert (outcome.results, outcome.purged) == ([b"kept"], [ADDRESS_GONE])
        assert log.read_bytes() == PUT_KEPT + PUT_GONE + DEL_GONE + FRESH_KEPT
        store.compact()
    assert log.read_bytes() == PUT_KEPT + FRESH_KEPT
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log"]


@pytest.mark.parametrize("content,cached", [
    (PUT_KEPT + PUT_GONE + DEL_GONE + FRESH_KEPT, [b"kept"]),
    (PUT_KEPT + FRESH_KEPT, [b"kept"]),
    (PUT_KEPT + PUT_GONE + DEL_GONE + FRESH_KEPT + FRESH_NEW,
     [b"new", b"kept"]),
], ids=["fresh", "compacted", "fresh-then-fresh"])
def test_golden_files_replay(tmp_path, content, cached):
    (tmp_path / "log").write_bytes(content)
    with PersistentStore(tmp_path) as store:
        assert store.edb.main == {ADDRESS_KEPT: ENTRY_KEPT}
        assert store.edb.cache == {TKN: cached}
    assert (tmp_path / "log").read_bytes() == content


@pytest.mark.parametrize("name,content,match", [
    ("log", PUT_KEPT + PUT_GONE + DEL_GONE + CACHE_KEPT,
     f"byte {len(PUT_KEPT + PUT_GONE + DEL_GONE)} .*record type 3"),
    ("log", PUT_KEPT + PUT_GONE + DEL_GONE + CACHE_KEPT + FRESH_NEW,
     f"byte {len(PUT_KEPT + PUT_GONE + DEL_GONE)} .*record type 3"),
    ("snapshot", SNAPSHOT_HEADER + PUT_KEPT + CACHE_KEPT,
     "snapshot files are no longer read"),
], ids=["cache-log", "cache-then-fresh", "snapshot"])
def test_golden_files_refused(tmp_path, name, content, match):
    # a CACHE record is written whole, so it is refused, not cut off as
    # a torn tail; a snapshot file's log alone holds a partial state
    (tmp_path / name).write_bytes(content)
    with pytest.raises(ValueError, match=match) as refused:
        PersistentStore(tmp_path)
    assert str(tmp_path / name) in str(refused.value)
    assert (tmp_path / name).read_bytes() == content


def test_v2_entries_are_refused_not_purged(scenario, tmp_path):
    msk, sigma, _ = scenario
    for counter, entry in enumerate((ENTRY_KEPT_V2, ENTRY_GONE_V2)):
        with pytest.raises(ValueError):
            edb.decode_entry(entry)
        sigma.update(LABEL, counter, entry, edb.EncryptedDatabase())
    log = PUT_KEPT_V2 + PUT_GONE_V2
    (tmp_path / "log").write_bytes(log)
    with PersistentStore(tmp_path) as store:
        # a PUT record carries its payload opaquely, so replay accepts it
        with pytest.raises(ValueError, match="not a hybrid SRE ciphertext"):
            store.execute_search(search_request(msk, sigma))
        assert store.edb.main == {ADDRESS_KEPT: ENTRY_KEPT_V2,
                                  ADDRESS_GONE: ENTRY_GONE_V2}
        assert store.edb.cache == {}
    assert (tmp_path / "log").read_bytes() == log


def test_state_file_header(monkeypatch, tmp_path):
    chunks = iter([STATE_SALT, STATE_NONCE])
    monkeypatch.setattr(statefile.os, "urandom", lambda n: next(chunks))
    path = str(tmp_path / "state.ddse")
    statefile.save(path, STATE_PASSPHRASE, STATE_BUNDLE)
    with open(path, "rb") as fh:
        assert fh.read(len(STATE_HEADER)) == STATE_HEADER
    assert statefile.load(path, STATE_PASSPHRASE) == STATE_BUNDLE


def test_golden_state_file_loads(tmp_path):
    path = tmp_path / "state.ddse"
    path.write_bytes(STATE_FILE)
    assert statefile.load(str(path), STATE_PASSPHRASE) == STATE_BUNDLE


def test_version_1_state_file_refused(tmp_path):
    path = tmp_path / "state.ddse"
    path.write_bytes(STATE_FILE_V1)
    with pytest.raises(statefile.StateFileError, match="version 1 state file"):
        statefile.load(str(path), STATE_PASSPHRASE)


def test_version_2_state_file_refused(tmp_path):
    path = tmp_path / "state.ddse"
    path.write_bytes(STATE_FILE_V2)
    with pytest.raises(statefile.StateFileError, match="version 2 state file"):
        statefile.load(str(path), STATE_PASSPHRASE)
