"""Golden byte vectors for every wire, write-ahead-log and state-file layout.

Every vector is built from fixed seeds, tags and nonces and compared
with literal bytes, so a change to a frame header, a body codec, the
entry encoding, a log record or the snapshot header fails here.  The
scenario: two entries placed under one label (a live one, "kept", and
one whose tag is then revoked, "gone"), then one search that purges
"gone" and caches "kept".
"""

import pytest

from ddse import bloom, edb, fpdse, ggm, sre, statefile, wire
from ddse.store import PersistentStore


def h(text: str) -> bytes:
    return bytes.fromhex(text)


TKN = bytes(range(64, 96))
LABEL = b"label"
TAG_KEPT = b"K" * 16
TAG_GONE = b"R" * 16

# entry = [h:1] h x {[nonce:12][len:4][body]} [tag:16]
ENTRY_KEPT = h(
    "02"
    "010101010101010101010101 00000010 fbf36fc94b112c02f58bcbf67d5b964e"
    "020202020202020202020202 00000010 cf39a27caea608a08a1fb97eb5fb38e8"
    "4b4b4b4b4b4b4b4b4b4b4b4b4b4b4b4b")
ENTRY_GONE = h(
    "02"
    "030303030303030303030303 00000010 c4279ac5d0124fba90bf59cb44c4f19c"
    "040404040404040404040404 00000010 4252dfd49534806e51b4b49f18cb0a90"
    "52525252525252525252525252525252")
ADDRESS_KEPT = h(
    "8f3f21c2cf7379abb4e58293996d6912f3a0498028482ed972d7bf256b3e0e37")
ADDRESS_GONE = h(
    "a72bfc2adcc6a5ddbc60dcf885b562e3fdfb6631dc1edc949106c9864fd78828")

# UPDATE = [address:32][len:4][payload]
UPDATE_BODY = ADDRESS_KEPT + h("00000051") + ENTRY_KEPT

# SEARCH = [tkn:32][punctured key][revocation filter][placement token]
# key = [kind:1][depth:1][count:4] count x {[plen:1][prefix:4][seed:16]}
# filter = [b:8][h:1][seed:16][bits]; token = [label id:32][range key]
SEARCH_BODY = TKN + h(
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

# log record = [len:4][type:1][body][crc32 of type+body:4]
PUT_KEPT = h("00000076 01") + UPDATE_BODY + h("67d1032c")
PUT_GONE = (h("00000076 01") + ADDRESS_GONE + h("00000051") + ENTRY_GONE
            + h("b6899fae"))
DEL_GONE = h("00000021 02") + ADDRESS_GONE + h("37d9c405")
CACHE_KEPT = h("0000002d 03") + TKN + RESULT_KEPT + h("de1e95c3")

SNAPSHOT_HEADER = b"DDSESNAP" + h("01")

# state file = [magic "DDSE"][version:1][salt:16][nonce:12][AES-GCM box]
STATE_SALT = bytes(range(16))
STATE_NONCE = bytes(range(16, 28))
STATE_HEADER = b"DDSE" + h("01") + STATE_SALT + STATE_NONCE
STATE_PASSPHRASE = "pass"
STATE_BUNDLE = {"key": bytes(range(4)), "tag": b"ddse"}
# sealed pickle of STATE_BUNDLE; only load is pinned, as pickle bytes may
# differ across Python versions
STATE_FILE = STATE_HEADER + h(
    "d45b8be1b29dce96ba9e978db4e6b2fe52ab1aa7e18629db61bc8e8d8c8ded2f"
    "f5bcbeef4c7651d80ccd3e847978446b065e035a2b39fd7dfd0f")


@pytest.fixture
def scenario(monkeypatch):
    """Fixed master key, filter seed, placement key and nonces."""
    nonces = iter(bytes([i]) * 12 for i in range(1, 256))
    monkeypatch.setattr(sre, "fresh_nonce", lambda: next(nonces))
    msk = sre.SreMasterKey(ggm.GgmRoot(bytes(range(16)), 4),
                           bloom.BloomFilter.gen(16, 2, bytes(range(16, 32))))
    sigma = fpdse.SigmaState(bytes(range(32, 48)), 4)
    entries = [edb.encode_entry(sre.enc(msk, b"kept", TAG_KEPT), TAG_KEPT),
               edb.encode_entry(sre.enc(msk, b"gone", TAG_GONE), TAG_GONE)]
    return msk, sigma, entries


def search_request(msk, sigma) -> edb.SearchRequest:
    return edb.SearchRequest(
        TKN, sre.ck_rev(msk.sk, sre.comp(msk.D, TAG_GONE)),
        sigma.search_token(LABEL))


def test_frame_headers():
    assert wire.pack_frame(wire.HELLO, b"\x01") == h("00000002 01 01")
    assert wire.pack_frame(wire.UPDATE, UPDATE_BODY)[:5] == h("00000076 02")
    assert wire.pack_frame(wire.SEARCH, SEARCH_BODY)[:5] == h("000000bc 03")
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
    sigma.update(LABEL, ENTRY_KEPT, capture)
    assert capture.body == UPDATE_BODY
    assert wire.decode_update_body(UPDATE_BODY) == (ADDRESS_KEPT, ENTRY_KEPT)


def test_search_body(scenario):
    msk, sigma, _ = scenario
    sigma.update(LABEL, ENTRY_KEPT, edb.EncryptedDatabase())
    sigma.update(LABEL, ENTRY_GONE, edb.EncryptedDatabase())
    assert wire.encode_search_body(search_request(msk, sigma)) == SEARCH_BODY
    back = wire.decode_search_body(SEARCH_BODY)
    assert wire.encode_search_body(back) == SEARCH_BODY
    assert list(back.sigma_token.addresses()) == [ADDRESS_KEPT, ADDRESS_GONE]


def test_result_body():
    assert wire.encode_result_body([b"kept"]) == RESULT_KEPT
    assert wire.encode_result_body([b"kept", b""]) == h(
        "00000002 00000004 6b657074 00000000")
    assert wire.encode_result_body([]) == h("00000000")
    assert wire.decode_result_body(RESULT_KEPT) == [b"kept"]


def test_log_records_and_snapshot(scenario, tmp_path):
    msk, sigma, entries = scenario
    log, snap = tmp_path / "log", tmp_path / "snapshot"
    with PersistentStore(tmp_path) as store:
        for entry in entries:
            sigma.update(LABEL, entry, store)
        assert log.read_bytes() == PUT_KEPT + PUT_GONE
        outcome = store.execute_search(search_request(msk, sigma))
        assert (outcome.results, outcome.purged) == ([b"kept"], [ADDRESS_GONE])
        assert log.read_bytes() == PUT_KEPT + PUT_GONE + DEL_GONE + CACHE_KEPT
        store.snapshot()
    assert snap.read_bytes() == SNAPSHOT_HEADER + PUT_KEPT + CACHE_KEPT
    assert log.read_bytes() == b""


@pytest.mark.parametrize("name,content", [
    ("log", PUT_KEPT + PUT_GONE + DEL_GONE + CACHE_KEPT),
    ("snapshot", SNAPSHOT_HEADER + PUT_KEPT + CACHE_KEPT),
])
def test_golden_files_replay(tmp_path, name, content):
    (tmp_path / name).write_bytes(content)
    with PersistentStore(tmp_path) as store:
        assert store.edb.main == {ADDRESS_KEPT: ENTRY_KEPT}
        assert store.edb.cache == {TKN: [b"kept"]}
    assert (tmp_path / name).read_bytes() == content


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
