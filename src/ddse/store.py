"""Crash-safe persistence for the encrypted database.

An append-only log under the store directory records every mutation,
each wrapped as [4-byte length][type byte + body][4-byte CRC-32 of type
byte + body].  The bodies reuse the wire codecs of ``ddse.wire``:

* PUT (on update):   the UPDATE body, [address:32][4-byte len][payload]
* DEL (on purge):    [address:32]
* FRESH (on search): [tkn:32] + the RESULT body of the search's fresh
  retrievals, folded into the slot by ``EncryptedDatabase.fold_fresh``:
  ``fresh + [r for r in old if r not in fresh]``
* CACHE (snapshot):  [tkn:32] + the RESULT body of the whole cache slot;
  it replaces the slot, and logs written before FRESH existed hold one
  per search

A search appends its DEL records and, if it surfaced anything, one
FRESH record, under one fsync; a search that surfaced and purged
nothing appends nothing and does not sync.

Recovery replays the snapshot, then the log.  It stops at the first
record whose length or checksum does not hold -- a torn tail from a
crash -- and truncates the junk so the file appends cleanly again.  A
record whose length and checksum hold but which does not decode was
written whole, so it is not a torn tail: recovery refuses it, naming
its file and byte offset, and leaves the file untouched.
``snapshot()`` rewrites the full state and resets the log.  A crash
between those two steps replays the old log over a snapshot that
already holds it: PUT, DEL and CACHE are last-write-wins, and a FRESH
fold only moves its retrievals to the front of a slot, so replaying
the folds again leaves each slot in the order it already has.
"""

from __future__ import annotations

import logging
import os
import struct
import zlib
from pathlib import Path

from .crypto import TOKEN_LEN
from .edb import (AddressCollision, EncryptedDatabase, SearchOutcome,
                  SearchRequest)
# bound by name: ddsebench counts frame bytes by swapping the ``wire``
# module attributes, and log records must stay out of that count
from .wire import (ADDRESS_LEN, FrameError, decode_result_body,
                   decode_update_body, encode_result_body, encode_update_body)

logger = logging.getLogger(__name__)

REC_PUT = 1
REC_DEL = 2
REC_CACHE = 3
REC_FRESH = 4

_SNAP_HEADER = b"DDSESNAP\x01"  # magic + version 1


def durable_replace(src: str | os.PathLike, dst: str | os.PathLike) -> None:
    """``os.replace``, then fsync the directory: until the directory
    entry is on disk, a power loss can undo the rename."""
    os.replace(src, dst)
    fd = os.open(os.path.dirname(os.path.abspath(dst)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _record(rectype: int, body: bytes) -> bytes:
    data = bytes([rectype]) + body
    return struct.pack(">I", len(data)) + data + struct.pack(">I", zlib.crc32(data))


def _put_record(address: bytes, payload: bytes) -> bytes:
    return _record(REC_PUT, encode_update_body(address, payload))


def _cache_record(rectype: int, tkn: bytes, retrievals: list[bytes]) -> bytes:
    return _record(rectype, tkn + encode_result_body(retrievals))


def _apply_record(edb: EncryptedDatabase, data: bytes) -> None:
    if not data:
        raise ValueError("empty record")
    rectype, body = data[0], data[1:]
    if rectype == REC_PUT:
        edb.put_address(*decode_update_body(body))
    elif rectype == REC_DEL:
        if len(body) != ADDRESS_LEN:
            raise ValueError("DEL record is not one address")
        edb.delete_address(body)
    elif rectype == REC_CACHE:
        edb.cache_put(body[:TOKEN_LEN], decode_result_body(body[TOKEN_LEN:]))
    elif rectype == REC_FRESH:
        edb.fold_fresh(body[:TOKEN_LEN], decode_result_body(body[TOKEN_LEN:]))
    else:
        raise ValueError(f"unknown record type {rectype}")


class PersistentStore:
    """EncryptedDatabase with a write-ahead log and snapshots.

    Exposes the same transport interface (apply_update/execute_search)
    as the in-memory store; every mutation hits disk before returning.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.log_path = self.root / "log"
        self.snapshot_path = self.root / "snapshot"
        self.edb = EncryptedDatabase()
        self._recover()
        self._log = open(self.log_path, "ab")

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        if self.snapshot_path.exists():
            raw = self.snapshot_path.read_bytes()
            if not raw.startswith(_SNAP_HEADER):
                raise ValueError(f"bad snapshot header in {self.snapshot_path}")
            valid = self._replay(raw, len(_SNAP_HEADER), self.snapshot_path)
            if valid != len(raw):
                raise ValueError(
                    f"corrupt {self.snapshot_path}: valid up to byte {valid}")
        if self.log_path.exists():
            raw = self.log_path.read_bytes()
            valid = self._replay(raw, 0, self.log_path)
            if valid < len(raw):
                logger.warning("truncating %d torn bytes from %s",
                               len(raw) - valid, self.log_path)
                with open(self.log_path, "r+b") as fh:
                    fh.truncate(valid)

    def _replay(self, raw: bytes, pos: int, path: Path) -> int:
        """Apply the records from byte ``pos`` on; returns the offset
        where the first torn record starts, or ``len(raw)``."""
        while pos < len(raw):
            if len(raw) - pos < 4:
                break
            (blen,) = struct.unpack_from(">I", raw, pos)
            if len(raw) - pos < 4 + blen + 4:
                break
            body = raw[pos + 4:pos + 4 + blen]
            (crc,) = struct.unpack_from(">I", raw, pos + 4 + blen)
            if zlib.crc32(body) != crc:
                break
            try:
                _apply_record(self.edb, body)
            except (ValueError, FrameError) as exc:
                raise ValueError(
                    f"{path}: record at byte {pos} has a valid checksum "
                    f"but does not decode: {exc}") from exc
            pos += 4 + blen + 4
        return pos

    # -- durability -------------------------------------------------------

    def _append(self, *records: bytes) -> None:
        for record in records:
            self._log.write(record)
        self._log.flush()
        os.fsync(self._log.fileno())

    def snapshot(self) -> None:
        """Fold the log into a fresh snapshot and reset it."""
        tmp = self.snapshot_path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(_SNAP_HEADER)
            for address, payload in self.edb.main.items():
                fh.write(_put_record(address, payload))
            for tkn, retrievals in self.edb.cache.items():
                fh.write(_cache_record(REC_CACHE, tkn, retrievals))
            fh.flush()
            os.fsync(fh.fileno())
        # the new snapshot must be durable before the log it replaces
        # is truncated
        durable_replace(tmp, self.snapshot_path)
        self._log.truncate(0)
        self._log.flush()
        os.fsync(self._log.fileno())

    def close(self) -> None:
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- transport interface ----------------------------------------------

    def apply_update(self, address: bytes, payload: bytes) -> None:
        if address in self.edb.main:
            raise AddressCollision(f"address reused: {address.hex()}")
        self._append(_put_record(address, payload))
        self.edb.apply_update(address, payload)

    def execute_search(self, request: SearchRequest) -> SearchOutcome:
        outcome = self.edb.execute_search(request)
        records = [_record(REC_DEL, a) for a in outcome.purged]
        if outcome.fresh:
            records.append(_cache_record(REC_FRESH, request.tkn,
                                         outcome.results[:outcome.fresh]))
        if records:
            self._append(*records)
        return outcome
