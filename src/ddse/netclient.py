"""Client-side transport speaking the framed protocol.

A RemoteEdb quacks like the in-process store (apply_update /
execute_search), so protocol code works against either without knowing
where the database lives.

Searches are pipelined: ``execute_search`` writes its SEARCH frame and
returns at once, so a caller may send several before reading any.  The
server answers frames in the order they arrive, so the replies are read
in that order: the first read of an outcome's ``results`` flushes the
stream and reads every reply still owed, oldest first, up to its own.
HELLO and UPDATE are plain round trips, which first read every
outstanding reply.  Both ends set TCP_NODELAY, so back-to-back frames
and replies are not held for the peer's delayed ACK.
"""

from __future__ import annotations

import contextlib
import socket
from collections import deque

from . import wire
from .client import ProtocolError
from .edb import SearchRequest

# Request bytes written but not yet answered stay below this, well inside
# the socket buffers of the two ends: a client that writes without
# reading must never wait on a server that is itself waiting to write
# replies the client has not read yet.
_WINDOW = 32 * 1024


class PendingSearch:
    """The reply to a SEARCH frame already written.

    ``results`` reads it when first asked for; an ERROR reply, a
    malformed one or a dropped connection raises there and on every
    later read.
    """

    purged = ()  # a remote reply carries the retrievals alone

    def __init__(self, remote: RemoteEdb, size: int):
        self._remote = remote
        self._size = size  # frame bytes, for the send window
        self._reply: list[bytes] | BaseException | None = None

    @property
    def results(self) -> list[bytes]:
        while self._reply is None:
            self._remote._read_oldest()
        if isinstance(self._reply, BaseException):
            raise self._reply
        return self._reply


class RemoteEdb:
    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._sock.makefile("rwb")
        self._pending: deque[PendingSearch] = deque()
        self._unanswered = 0  # bytes of the pending searches' frames
        hello = bytes([wire.PROTOCOL_VERSION])
        try:
            reply_type, body = self._roundtrip(wire.HELLO, hello)
            if reply_type != wire.HELLO or body != hello:
                raise ProtocolError("server did not echo the protocol version")
        except BaseException:
            self._stream.close()
            self._sock.close()
            raise

    def _receive(self) -> tuple[int, bytes]:
        reply_type, reply = wire.read_frame(self._stream)
        if reply_type == wire.ERROR:
            raise ProtocolError(f"server error: {reply.decode(errors='replace')}")
        return reply_type, reply

    def _read_oldest(self) -> None:
        """Read the reply owed to the oldest pending search into it."""
        self._stream.flush()
        pending = self._pending.popleft()
        self._unanswered -= pending._size
        try:
            reply_type, reply = self._receive()
            if reply_type != wire.RESULT:
                raise ProtocolError(
                    f"expected RESULT, got {wire.type_name(reply_type)}")
            pending._reply = wire.decode_result_body(reply)
        except (ProtocolError, wire.FrameError, OSError) as exc:
            pending._reply = exc
            raise

    def _roundtrip(self, ftype: int, body: bytes) -> tuple[int, bytes]:
        while self._pending:
            self._read_oldest()
        self._stream.write(wire.pack_frame(ftype, body))
        self._stream.flush()
        return self._receive()

    def apply_update(self, address: bytes, payload: bytes) -> None:
        reply_type, reply = self._roundtrip(
            wire.UPDATE, wire.encode_update_body(address, payload))
        if reply_type != wire.RESULT or reply != b"":
            raise ProtocolError(
                f"expected empty RESULT ack, got {wire.type_name(reply_type)}")

    def execute_search(self, request: SearchRequest) -> PendingSearch:
        """Write the SEARCH frame; its reply is read through ``results``."""
        frame = wire.pack_frame(wire.SEARCH, wire.encode_search_body(request))
        while self._pending and self._unanswered + len(frame) > _WINDOW:
            self._read_oldest()
        self._stream.write(frame)
        pending = PendingSearch(self, len(frame))
        self._pending.append(pending)
        self._unanswered += len(frame)
        return pending

    def close(self) -> None:
        """Read the replies still owed (each outcome keeps its own), then
        say BYE; an outcome left unread by a failure raises when read.
        Closing again does nothing."""
        if self._stream.closed:
            return
        try:
            while self._pending:
                self._read_oldest()
            self._stream.write(wire.pack_frame(wire.BYE))
            self._stream.flush()
            wire.read_frame(self._stream)
        except (ProtocolError, OSError, wire.FrameError):
            pass
        finally:
            for pending in self._pending:
                pending._reply = ProtocolError(
                    "connection closed before the reply was read")
            self._pending.clear()
            # closing flushes what a failed write left, and fails again
            with contextlib.suppress(OSError):
                self._stream.close()
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
