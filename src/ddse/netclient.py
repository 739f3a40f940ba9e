"""Client-side transport speaking the framed protocol.

A RemoteEdb quacks like the in-process store (apply_update /
execute_search), so protocol code works against either without knowing
where the database lives.
"""

from __future__ import annotations

import socket

from . import wire
from .client import ProtocolError
from .edb import SearchOutcome, SearchRequest


class RemoteEdb:
    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._stream = self._sock.makefile("rwb")
        hello = bytes([wire.PROTOCOL_VERSION])
        try:
            reply_type, body = self._roundtrip(wire.HELLO, hello)
            if reply_type != wire.HELLO or body != hello:
                raise ProtocolError("server did not echo the protocol version")
        except BaseException:
            self._stream.close()
            self._sock.close()
            raise

    def _roundtrip(self, ftype: int, body: bytes) -> tuple[int, bytes]:
        self._stream.write(wire.pack_frame(ftype, body))
        self._stream.flush()
        reply_type, reply = wire.read_frame(self._stream)
        if reply_type == wire.ERROR:
            raise ProtocolError(f"server error: {reply.decode(errors='replace')}")
        return reply_type, reply

    def apply_update(self, address: bytes, payload: bytes) -> None:
        reply_type, reply = self._roundtrip(
            wire.UPDATE, wire.encode_update_body(address, payload))
        if reply_type != wire.RESULT or reply != b"":
            raise ProtocolError(
                f"expected empty RESULT ack, got {wire.type_name(reply_type)}")

    def execute_search(self, request: SearchRequest) -> SearchOutcome:
        reply_type, reply = self._roundtrip(
            wire.SEARCH, wire.encode_search_body(request))
        if reply_type != wire.RESULT:
            raise ProtocolError(
                f"expected RESULT, got {wire.type_name(reply_type)}")
        return SearchOutcome(wire.decode_result_body(reply))

    def close(self) -> None:
        try:
            self._stream.write(wire.pack_frame(wire.BYE))
            self._stream.flush()
            wire.read_frame(self._stream)
        except (OSError, wire.FrameError):
            pass
        finally:
            self._stream.close()
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
