"""Write-ahead log: durability, torn tails, snapshots, purge persistence."""

import logging
import os
import stat
import struct
import zlib

import pytest

from ddse import client as cl
from ddse.client import ClientConfig
from ddse.edb import AddressCollision
from ddse.store import PersistentStore


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


def test_matches_in_memory_database(tmp_path):
    state, mem = small_state()
    store = PersistentStore(tmp_path / "db")

    class Tee:
        def apply_update(self, address, payload):
            mem.apply_update(address, payload)
            store.apply_update(address, payload)

    tee = Tee()
    for i in range(8):
        cl.update(state, cl.ADD, b"w", b"v%d" % i, tee)
    cl.update(state, cl.DELETE, b"w", b"v0", tee)
    assert store.edb.main == mem.main
    request = cl.search_client_token(state, b"w")
    assert (store.execute_search(request).results
            == mem.execute_search(request).results)
    assert store.edb.cache == mem.cache
    store.close()


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
    unknown = struct.pack(">I", 1) + b"\x09" + struct.pack(">I", zlib.crc32(b"\x09"))
    raw = raw[:size_after_first] + unknown + raw[size_after_first:]
    log.write_bytes(raw)
    with pytest.raises(ValueError, match=f"byte {size_after_first}"):
        PersistentStore(root)
    assert log.read_bytes() == raw


def test_snapshot_folds_log(tmp_path):
    state, _ = small_state()
    with PersistentStore(tmp_path / "db") as store:
        for i in range(6):
            cl.update(state, cl.ADD, b"w", b"v%d" % i, store)
        cl.search(state, b"w", store)
        expect_main, expect_cache = dict(store.edb.main), dict(store.edb.cache)
        store.snapshot()
        assert (tmp_path / "db" / "log").stat().st_size == 0
        assert (tmp_path / "db" / "snapshot").stat().st_size > 0
    with PersistentStore(tmp_path / "db") as back:
        assert back.edb.main == expect_main
        assert back.edb.cache == expect_cache


def test_snapshot_syncs_its_rename_before_truncating_the_log(tmp_path,
                                                           monkeypatch):
    state, _ = small_state()
    log = tmp_path / "db" / "log"
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        calls.append((stat.S_ISDIR(os.fstat(fd).st_mode), log.stat().st_size))
        real_fsync(fd)

    with PersistentStore(tmp_path / "db") as store:
        cl.update(state, cl.ADD, b"w", b"v", store)
        monkeypatch.setattr(os, "fsync", fsync)
        store.snapshot()
    # snapshot file, then its directory entry while the log is still
    # whole, then the truncated log
    assert [is_dir for is_dir, _ in calls] == [False, True, False]
    assert calls[1][1] > 0 and calls[2][1] == 0


def test_log_after_snapshot_replays_on_top(tmp_path):
    state, _ = small_state()
    with PersistentStore(tmp_path / "db") as store:
        cl.update(state, cl.ADD, b"w", b"old", store)
        store.snapshot()
        cl.update(state, cl.ADD, b"w", b"new", store)
        expect = dict(store.edb.main)
    with PersistentStore(tmp_path / "db") as back:
        assert back.edb.main == expect


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


def test_replay_is_last_write_wins(tmp_path):
    # simulates a crash between snapshot rename and log reset: the same
    # PUT may be replayed twice without tripping the collision check
    root = tmp_path / "db"
    with PersistentStore(root) as store:
        store.apply_update(bytes(32), b"payload")
    log = root / "log"
    log.write_bytes(log.read_bytes() * 2)
    with PersistentStore(root) as back:
        assert back.edb.main == {bytes(32): b"payload"}
