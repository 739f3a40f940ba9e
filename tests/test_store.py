"""Write-ahead log: durability, torn tails, strict replay, compaction,
purge persistence.  The log is the store's only file."""

import logging
import os
import random
import shutil
import stat
import struct
import zlib

import pytest

from ddse import client as cl
from ddse.client import ClientConfig
from ddse.edb import AddressCollision
from ddse.store import PersistentStore, StoreInUse


def small_state():
    return cl.setup(ClientConfig(bf_n=200, bf_p=1e-3, d_max=8,
                                 revoke_p=1e-2, sigma_depth=10))


def test_updates_survive_reopen(tmp_path):
    state, _ = small_state()
    with PersistentStore(tmp_path / "db") as store:
        for i in range(10):
            cl.update(state, cl.ADD, b"w", b"v%d" % i, store)
        expect = dict(store.edb.main)
    with PersistentStore(tmp_path / "db") as back:
        assert back.edb.main == expect
        assert cl.search(state, b"w", back) == {b"v%d" % i for i in range(10)}


class Tee:
    """Sends every request to a persistent and an in-memory database and
    checks that both answer alike."""

    def __init__(self, store, mem):
        self.store, self.mem = store, mem

    def apply_update(self, address, payload):
        self.mem.apply_update(address, payload)
        self.store.apply_update(address, payload)

    def execute_search(self, request):
        expect = self.mem.execute_search(request)
        got = self.store.execute_search(request)
        assert got == expect
        return got


def assert_same_state(edb, mem):
    assert edb.main == mem.main
    assert edb.cache == mem.cache


def test_matches_in_memory_database(tmp_path):
    state, mem = small_state()
    root = tmp_path / "db"
    rng = random.Random(7)
    with PersistentStore(root) as store:
        tee = Tee(store, mem)
        # an epoch whose only entry is revoked: purges, surfaces nothing
        cl.update(state, cl.ADD, b"gone", b"v", tee)
        cl.update(state, cl.DELETE, b"gone", b"v", tee)
        assert cl.search(state, b"gone", tee) == set()
        live = {w: set() for w in (b"a", b"b", b"c")}
        for _ in range(120):
            w = rng.choice(sorted(live))
            roll = rng.random()
            if roll < 0.5:
                v = b"v%d" % rng.randrange(6)   # repeats add duplicates
                cl.update(state, cl.ADD, w, v, tee)
                live[w].add(v)
            elif roll < 0.6 and live[w]:
                v = rng.choice(sorted(live[w]))
                cl.update(state, cl.DELETE, w, v, tee)
                live[w].discard(v)
            elif w in state.keywords:
                cl.search(state, w, tee)
        assert_same_state(store.edb, mem)
        old_log = (root / "log").read_bytes()
        store.compact()
        assert_same_state(store.edb, mem)
    # the purged PUT+DEL pairs and the superseded folds are gone
    assert (root / "log").stat().st_size < len(old_log)
    assert not (root / "log.tmp").exists()
    with PersistentStore(root) as back:
        assert_same_state(back.edb, mem)
    # a crash before the rename leaves the old log, whole
    (root / "log").write_bytes(old_log)
    with PersistentStore(root) as back:
        assert_same_state(back.edb, mem)


def record_ends(raw: bytes, pos: int) -> list[int]:
    ends = []
    while pos < len(raw):
        (blen,) = struct.unpack_from(">I", raw, pos)
        pos += 4 + blen + 4
        ends.append(pos)
    return ends


def record(rectype: int, body: bytes) -> bytes:
    data = bytes([rectype]) + body
    return struct.pack(">I", len(data)) + data + struct.pack(">I", zlib.crc32(data))


def test_every_cut_of_a_search_batch_recovers(tmp_path):
    state, _ = small_state()
    root = tmp_path / "db"
    with PersistentStore(root) as store:
        for v in (b"v0", b"v1", b"v2", b"v0"):       # v0 twice: a dummy
            cl.update(state, cl.ADD, b"w", v, store)
        cl.update(state, cl.DELETE, b"w", b"v1", store)
        before = (root / "log").stat().st_size
        main_before = dict(store.edb.main)
        outcome = store.execute_search(cl.search_client_token(state, b"w"))
        main_after, cache_after = dict(store.edb.main), dict(store.edb.cache)
    raw = (root / "log").read_bytes()
    # the batch: one DEL per purged address, then one FRESH record
    ends = record_ends(raw, before)
    assert len(outcome.purged) == 2 and outcome.fresh == 2
    assert len(ends) == len(outcome.purged) + 1 and ends[-1] == len(raw)
    cut_root = tmp_path / "cut"
    for cut in range(before, len(raw) + 1):
        shutil.rmtree(cut_root, ignore_errors=True)
        cut_root.mkdir()
        (cut_root / "log").write_bytes(raw[:cut])
        dels = sum(end <= cut for end in ends[:-1])
        with PersistentStore(cut_root) as back:
            if cut == len(raw):
                assert back.edb.main == main_after
                assert back.edb.cache == cache_after
            else:
                expect = dict(main_before)
                for address in outcome.purged[:dels]:
                    del expect[address]
                assert back.edb.main == expect
                assert back.edb.cache == {}
        # a torn record is cut back to the last whole one
        assert (cut_root / "log").stat().st_size == max(
            [before] + [end for end in ends if end <= cut])


def test_search_that_changes_nothing_appends_and_syncs_nothing(tmp_path,
                                                               monkeypatch):
    state, _ = small_state()
    log = tmp_path / "db" / "log"
    with PersistentStore(tmp_path / "db") as store:
        for v in (b"v0", b"v1"):
            cl.update(state, cl.ADD, b"w", v, store)
        assert cl.search(state, b"w", store) == {b"v0", b"v1"}
        raw = log.read_bytes()
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: fsyncs.append(fd) or real_fsync(fd))
        # the new epoch is empty: nothing fresh, nothing purged
        assert cl.search(state, b"w", store) == {b"v0", b"v1"}
        assert fsyncs == []
    assert log.read_bytes() == raw


def test_search_effects_are_durable(tmp_path):
    state, _ = small_state()
    with PersistentStore(tmp_path / "db") as store:
        for i in range(5):
            cl.update(state, cl.ADD, b"w", b"v%d" % i, store)
        cl.update(state, cl.DELETE, b"w", b"v1", store)
        got = cl.search(state, b"w", store)
        assert got == {b"v0", b"v2", b"v3", b"v4"}
        main_after, cache_after = dict(store.edb.main), dict(store.edb.cache)
        assert len(main_after) == 4  # revoked entry purged
    with PersistentStore(tmp_path / "db") as back:
        assert back.edb.main == main_after
        assert back.edb.cache == cache_after


def test_torn_tail_is_dropped_and_truncated(tmp_path, caplog):
    state, _ = small_state()
    with PersistentStore(tmp_path / "db") as store:
        cl.update(state, cl.ADD, b"w", b"kept", store)
        expect = dict(store.edb.main)
    log = tmp_path / "db" / "log"
    good_size = log.stat().st_size
    with open(log, "ab") as fh:
        fh.write(struct.pack(">I", 500) + b"half a record")
    with caplog.at_level(logging.WARNING, logger="ddse.store"):
        with PersistentStore(tmp_path / "db") as back:
            assert back.edb.main == expect
    assert log.stat().st_size == good_size
    assert any("torn" in r.message for r in caplog.records)


def test_corrupt_record_stops_replay(tmp_path):
    state, _ = small_state()
    with PersistentStore(tmp_path / "db") as store:
        cl.update(state, cl.ADD, b"w", b"first", store)
        size_after_first = (tmp_path / "db" / "log").stat().st_size
        cl.update(state, cl.ADD, b"w", b"second", store)
    log = tmp_path / "db" / "log"
    raw = bytearray(log.read_bytes())
    raw[size_after_first + 20] ^= 0xFF  # inside the second record's body
    log.write_bytes(raw)
    with PersistentStore(tmp_path / "db") as back:
        assert len(back.edb.main) == 1  # only the first record survives
        assert (tmp_path / "db" / "log").stat().st_size == size_after_first


def test_undecodable_record_refuses_replay(tmp_path):
    # length and CRC hold, so this is no torn tail: replay must not drop
    # it together with the valid record after it
    root = tmp_path / "db"
    with PersistentStore(root) as store:
        store.apply_update(bytes(32), b"first")
        size_after_first = (root / "log").stat().st_size
        store.apply_update(b"\x01" * 32, b"second")
    log = root / "log"
    raw = log.read_bytes()
    unknown = record(9, b"")
    raw = raw[:size_after_first] + unknown + raw[size_after_first:]
    log.write_bytes(raw)
    with pytest.raises(ValueError, match=f"byte {size_after_first}"):
        PersistentStore(root)
    assert log.read_bytes() == raw


def searched_store(root):
    """A store with live entries, a purge and a cache slot, and its log."""
    state, _ = small_state()
    store = PersistentStore(root)
    for v in (b"v0", b"v1", b"v2", b"v0"):
        cl.update(state, cl.ADD, b"w", v, store)
    cl.update(state, cl.DELETE, b"w", b"v1", store)
    assert cl.search(state, b"w", store) == {b"v0", b"v2"}
    cl.update(state, cl.ADD, b"w", b"v3", store)
    return store, (root / "log").read_bytes()


def test_compact_rewrites_the_log_as_the_live_state(tmp_path):
    root = tmp_path / "db"
    store, old_log = searched_store(root)
    with store:
        expect_main, expect_cache = dict(store.edb.main), dict(store.edb.cache)
        store.compact()
        assert store.edb.main == expect_main
    # one PUT per live entry, then one FRESH per cache slot
    raw = (root / "log").read_bytes()
    ends = record_ends(raw, 0)
    assert len(ends) == len(expect_main) + len(expect_cache)
    assert [raw[start + 4] for start in [0] + ends[:-1]] == (
        [1] * len(expect_main) + [4] * len(expect_cache))
    assert len(raw) < len(old_log)
    assert sorted(os.listdir(root)) == ["log"]
    with PersistentStore(root) as back:
        assert back.edb.main == expect_main
        assert back.edb.cache == expect_cache


def test_every_truncation_of_log_tmp_leaves_the_old_state(tmp_path):
    store, old_log = searched_store(tmp_path / "db")
    with store:
        expect_main, expect_cache = dict(store.edb.main), dict(store.edb.cache)
        store.compact()
    new_log = (tmp_path / "db" / "log").read_bytes()
    cut_root = tmp_path / "cut"
    for cut in range(len(new_log) + 1):
        # a crash while writing log.tmp, or before its rename
        shutil.rmtree(cut_root, ignore_errors=True)
        cut_root.mkdir()
        (cut_root / "log").write_bytes(old_log)
        (cut_root / "log.tmp").write_bytes(new_log[:cut])
        with PersistentStore(cut_root) as back:
            assert back.edb.main == expect_main
            assert back.edb.cache == expect_cache
        assert (cut_root / "log").read_bytes() == old_log
    # the next compaction writes over the leftover
    with PersistentStore(cut_root) as back:
        back.compact()
    assert (cut_root / "log").read_bytes() == new_log
    assert not (cut_root / "log.tmp").exists()


def test_compact_syncs_the_tmp_file_then_its_directory(tmp_path, monkeypatch):
    state, _ = small_state()
    tmp = tmp_path / "db" / "log.tmp"
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        st = os.fstat(fd)
        calls.append((stat.S_ISDIR(st.st_mode),
                      tmp.exists() and tmp.stat().st_ino == st.st_ino))
        real_fsync(fd)

    with PersistentStore(tmp_path / "db") as store:
        cl.update(state, cl.ADD, b"w", b"v", store)
        monkeypatch.setattr(os, "fsync", fsync)
        store.compact()
    # log.tmp whole, then the directory entry of its rename
    assert calls == [(False, True), (True, False)]


def test_update_after_compact_survives_reopen(tmp_path):
    # the append handle must move to the new log
    state, _ = small_state()
    with PersistentStore(tmp_path / "db") as store:
        cl.update(state, cl.ADD, b"w", b"old", store)
        store.compact()
        cl.update(state, cl.ADD, b"w", b"new", store)
        expect = dict(store.edb.main)
    assert len(expect) == 2
    with PersistentStore(tmp_path / "db") as back:
        assert back.edb.main == expect
        assert cl.search(state, b"w", back) == {b"old", b"new"}


def test_bad_snapshot_header_is_an_error(tmp_path):
    root = tmp_path / "db"
    with PersistentStore(root):
        pass
    (root / "snapshot").write_bytes(b"NOTASNAP\x01")
    with pytest.raises(ValueError):
        PersistentStore(root)


def test_collision_detected_before_logging(tmp_path):
    with PersistentStore(tmp_path / "db") as store:
        store.apply_update(bytes(32), b"payload")
        size = (tmp_path / "db" / "log").stat().st_size
        with pytest.raises(AddressCollision):
            store.apply_update(bytes(32), b"other")
        assert (tmp_path / "db" / "log").stat().st_size == size


def test_doubled_put_is_refused(tmp_path):
    # replay runs the live update, so an address cannot be put twice
    root = tmp_path / "db"
    with PersistentStore(root) as store:
        store.apply_update(bytes(32), b"payload")
    log = root / "log"
    once = log.read_bytes()
    log.write_bytes(once * 2)
    with pytest.raises(ValueError, match=f"byte {len(once)}.*address reused"):
        PersistentStore(root)
    assert log.read_bytes() == once * 2


def test_del_of_absent_address_is_refused(tmp_path):
    root = tmp_path / "db"
    with PersistentStore(root) as store:
        store.apply_update(bytes(32), b"payload")
    log = root / "log"
    raw = log.read_bytes() + record(2, bytes(32)) + record(2, bytes(32))
    log.write_bytes(raw)
    # the first DEL purges the entry; the second names an absent one
    at = len(raw) - len(record(2, bytes(32)))
    with pytest.raises(ValueError, match=f"byte {at}.*absent address"):
        PersistentStore(root)
    assert log.read_bytes() == raw


def test_an_open_store_refuses_a_second_opener(tmp_path):
    root = tmp_path / "db"
    store = PersistentStore(root)
    store.apply_update(bytes(32), b"payload")
    log = (root / "log").read_bytes()
    with pytest.raises(StoreInUse, match="store in use"):
        PersistentStore(root)
    assert (root / "log").read_bytes() == log
    assert sorted(os.listdir(root)) == ["log"]
    store.close()  # releases the lock
    with PersistentStore(root) as back:
        assert back.edb.main == {bytes(32): b"payload"}


def test_a_dropped_or_refused_store_releases_its_lock(tmp_path):
    root = tmp_path / "db"
    dropped = PersistentStore(root)
    dropped._log.close()  # leave the lock alone to the collector
    del dropped  # as criterion 7 drops its store
    (root / "snapshot").write_bytes(b"")
    with pytest.raises(ValueError) as refused:
        PersistentStore(root)
    # ``refused`` keeps the half-built store alive through its traceback
    (root / "snapshot").unlink()
    PersistentStore(root).close()
    assert "snapshot" in str(refused.value)
