"""Client-side transport speaking the framed protocol.

A RemoteEdb quacks like the in-process store (apply_update /
execute_search), so protocol code works against either without knowing
where the database lives.

One reply queue: ``_send`` writes each frame and queues a ``Pending``
for its reply, and ``_read_oldest`` reads the replies in the order the
frames went out, which is the order the server answers them.  A search
returns its ``Pending`` unread, so several may be sent before any reply
is read; HELLO, UPDATE and BYE read theirs at once.  An ERROR reply, a
reply of another type than ``wire.REPLY`` names, a malformed frame or
a failed socket becomes a ``ProtocolError``.  Both ends set
TCP_NODELAY, so back-to-back frames and replies are not held for the
peer's delayed ACK.
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
_TIMEOUT = 30.0  # seconds a connect, a read or a write may take


class Pending:
    """The reply owed to a frame already written: ``results`` reads it
    when first asked for, and a failed read raises there and on every
    later read.  A SEARCH's reply is its retrievals."""

    purged = ()  # a remote reply carries the retrievals alone

    def __init__(self, remote: RemoteEdb, ftype: int, size: int):
        self._remote = remote
        self._ftype = ftype
        self._size = size  # frame bytes, for the send window
        self._reply: list[bytes] | bytes | ProtocolError | None = None

    @property
    def results(self) -> list[bytes] | bytes:
        while self._reply is None:
            self._remote._read_oldest()
        if isinstance(self._reply, ProtocolError):
            raise self._reply
        return self._reply


class RemoteEdb:
    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port), timeout=_TIMEOUT)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._sock.makefile("rwb")
        self._pending: deque[Pending] = deque()
        self._unanswered = 0  # bytes of the frames whose reply is owed
        try:
            hello = self._send(wire.HELLO, wire.HELLO_BODY).results
            if hello != wire.HELLO_BODY:
                raise ProtocolError("server did not echo the protocol version")
        except BaseException:
            self._stream.close()
            self._sock.close()
            raise

    def _send(self, ftype: int, body: bytes = b"") -> Pending:
        """Write a frame inside the window; queue the reply it is owed."""
        frame = wire.pack_frame(ftype, body)
        while self._pending and self._unanswered + len(frame) > _WINDOW:
            self._read_oldest()
        try:
            self._stream.write(frame)
        except OSError as exc:
            raise ProtocolError(f"transport failed: {exc}") from exc
        self._pending.append(Pending(self, ftype, len(frame)))
        self._unanswered += len(frame)
        return self._pending[-1]

    def _read_oldest(self) -> None:
        """Read the reply owed to the oldest frame into its ``Pending``."""
        pending = None
        try:
            self._stream.flush()  # before the pop: if it fails, all stay owed
            pending = self._pending.popleft()
            self._unanswered -= pending._size
            reply_type, body = wire.read_frame(self._stream)
            expected = wire.REPLY[pending._ftype]
            if reply_type != expected:
                pending._reply = ProtocolError(
                    f"server error: {body.decode(errors='replace')}"
                    if reply_type == wire.ERROR else
                    f"expected {wire.type_name(expected)}, "
                    f"got {wire.type_name(reply_type)}")
                raise pending._reply
            pending._reply = (wire.decode_result_body(body)
                              if pending._ftype == wire.SEARCH else body)
        except (wire.FrameError, OSError) as exc:
            failure = ProtocolError(f"transport failed: {exc}")
            if pending is not None:
                pending._reply = failure
            raise failure from exc

    def apply_update(self, address: bytes, payload: bytes) -> None:
        ack = self._send(wire.UPDATE,
                         wire.encode_update_body(address, payload)).results
        if ack:
            raise ProtocolError(f"expected an empty ack, got {len(ack)} bytes")

    def execute_search(self, request: SearchRequest) -> Pending:
        """Write the SEARCH frame; its reply is read through ``results``."""
        return self._send(wire.SEARCH, wire.encode_search_body(request))

    def close(self) -> None:
        """Say BYE after every reply still owed is read; a failure is
        swallowed, and a reply it left unread raises when read."""
        if self._stream.closed:
            return
        try:
            with contextlib.suppress(ProtocolError):
                self._send(wire.BYE).results
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
