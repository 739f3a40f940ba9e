"""Crash-safe persistence for the encrypted database.

The store directory holds one file, ``log``: an append-only log of
every mutation, each wrapped as [4-byte length][type byte + body][4-byte
CRC-32 of type byte + body].  The bodies reuse the wire codecs of
``ddse.wire``:

* PUT (on update):   the UPDATE body, [address:32][4-byte len][payload]
* DEL (on purge):    [address:32]
* FRESH (on search): [tkn:32] + the RESULT body of the search's fresh
  retrievals, folded into the slot by ``EncryptedDatabase.fold_fresh``:
  ``fresh + [r for r in old if r not in fresh]``

An operation applies in memory, then logs what it changed.  A search
appends its DEL records and, if it surfaced anything, one FRESH
record, under one fsync; a search that surfaced and purged nothing
appends nothing and does not sync.

Recovery replays the log through the live operations: a PUT is an
``apply_update``, so its address must be new; a DEL must name a present
address; a FRESH folds as the search did.  Replay stops at the first
record whose length or checksum does not hold -- a torn tail from a
crash -- and truncates the junk so the file appends cleanly again.  A
record whose length and checksum hold but which does not decode or
apply was written whole, so it is not a torn tail: recovery refuses
it, naming the file and byte offset, and leaves the file untouched.

A log append that fails stops the store: it may have left a torn record
that a later append would land behind, and recovery truncates the log at
the first torn record, acknowledged ones after it included.  So once an
append has raised, every later ``apply_update``, ``execute_search`` and
``compact`` raises ``StoreFailed`` until the store is reopened, and
reopening replays the log up to the torn record, without the change
memory applied first.

``compact()`` rewrites the log as the live state alone: one PUT per
entry, then one FRESH per cache slot, which folded into an absent slot
gives exactly that slot.  It writes ``log.tmp`` and renames it over the
log, so a crash leaves either the whole old log or the whole new one.
"""

from __future__ import annotations

import fcntl
import logging
import os
import struct
import weakref
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
REC_FRESH = 4


class StoreInUse(RuntimeError):
    """Another open ``PersistentStore`` holds the directory's lock."""


class StoreFailed(RuntimeError):
    """A log append failed; nothing is served until the store reopens."""


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


def _fresh_record(tkn: bytes, retrievals: list[bytes]) -> bytes:
    return _record(REC_FRESH, tkn + encode_result_body(retrievals))


def _apply_record(edb: EncryptedDatabase, data: bytes) -> None:
    if not data:
        raise ValueError("empty record")
    rectype, body = data[0], data[1:]
    if rectype == REC_PUT:
        edb.apply_update(*decode_update_body(body))
    elif rectype == REC_DEL:
        if len(body) != ADDRESS_LEN:
            raise ValueError("DEL record is not one address")
        if edb.main.pop(body, None) is None:
            raise ValueError(f"DEL of absent address {body.hex()}")
    elif rectype == REC_FRESH:
        edb.fold_fresh(body[:TOKEN_LEN], decode_result_body(body[TOKEN_LEN:]))
    else:
        raise ValueError(f"unknown record type {rectype}")


class PersistentStore:
    """EncryptedDatabase behind a write-ahead log, its one file.

    Exposes the same transport interface (apply_update/execute_search)
    as the in-memory store; every mutation hits disk before returning.
    An open store holds an exclusive ``flock`` on its directory, so a
    second opener, in this process or another, gets ``StoreInUse``
    instead of writing behind the first one's in-memory state.  The
    lock goes with ``close()`` or with the object itself.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise StoreInUse(f"{self.root}: store in use") from None
        self._unlock = weakref.finalize(self, os.close, fd)
        self.log_path = self.root / "log"
        self.edb = EncryptedDatabase()
        self._failure: OSError | None = None
        try:
            self._recover()
            self._log = open(self.log_path, "ab")
        except BaseException:
            self._unlock()
            raise

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        snapshot = self.root / "snapshot"
        if snapshot.exists():  # its log alone would replay a partial state
            raise ValueError(f"{snapshot}: snapshot files are no longer "
                             f"read; this store cannot be opened")
        raw = self.log_path.read_bytes() if self.log_path.exists() else b""
        pos = 0
        while len(raw) - pos >= 4:
            (blen,) = struct.unpack_from(">I", raw, pos)
            end = pos + 4 + blen
            if end + 4 > len(raw):
                break
            body = raw[pos + 4:end]
            if zlib.crc32(body) != struct.unpack_from(">I", raw, end)[0]:
                break
            try:
                _apply_record(self.edb, body)
            except (ValueError, FrameError, AddressCollision) as exc:
                raise ValueError(
                    f"{self.log_path}: record at byte {pos} has a valid "
                    f"checksum but does not decode: {exc}") from exc
            pos = end + 4
        if pos < len(raw):
            logger.warning("truncating %d torn bytes from %s",
                           len(raw) - pos, self.log_path)
            with open(self.log_path, "r+b") as fh:
                fh.truncate(pos)

    # -- durability -------------------------------------------------------

    def _serving(self) -> None:
        if self._failure is not None:
            raise StoreFailed(f"{self.log_path}: an earlier log append "
                              f"failed ({self._failure}); reopen the store")

    def _append(self, *records: bytes) -> None:
        try:
            for record in records:
                self._log.write(record)
            self._log.flush()
            os.fsync(self._log.fileno())
        except OSError as exc:
            self._failure = exc
            raise StoreFailed(f"{self.log_path}: log append failed ({exc}); "
                              f"reopen the store") from exc

    def compact(self) -> None:
        """Rewrite the log as the live state alone.  Like a mutation, it
        must not overlap another: a server holds its mutation lock."""
        self._serving()
        tmp = self.root / "log.tmp"
        with open(tmp, "wb") as fh:
            for address, payload in self.edb.main.items():
                fh.write(_put_record(address, payload))
            for tkn, retrievals in self.edb.cache.items():
                fh.write(_fresh_record(tkn, retrievals))
            fh.flush()
            os.fsync(fh.fileno())
        self._log.close()
        try:
            durable_replace(tmp, self.log_path)
        finally:
            # the new log if the rename happened, else the old one
            self._log = open(self.log_path, "ab")

    def close(self) -> None:
        try:
            self._log.close()  # after a failed append, its flush may raise
        finally:
            self._unlock()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- transport interface ----------------------------------------------

    def apply_update(self, address: bytes, payload: bytes) -> None:
        self._serving()
        self.edb.apply_update(address, payload)  # refuses a reused address
        self._append(_put_record(address, payload))

    def execute_search(self, request: SearchRequest) -> SearchOutcome:
        self._serving()  # a failed search may have changed memory unlogged
        outcome = self.edb.execute_search(request)
        records = [_record(REC_DEL, a) for a in outcome.purged]
        if outcome.fresh:
            records.append(
                _fresh_record(request.tkn, outcome.results[:outcome.fresh]))
        if records:
            self._append(*records)
        return outcome
