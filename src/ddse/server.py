"""Socket server hosting a persistent encrypted database.

Connections are served by ``socketserver``, one thread each; a
connection that sends nothing for ``Connection.timeout`` (300 s) is
closed.  Mutations are serialized through a lock and hit the store's
log before the acknowledgement goes out.  ``stop()`` also ends every
established connection, and no store operation runs once it returns.
The server only ever sees delegated key material inside SEARCH bodies
-- this module must not import the client side.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading

from . import wire
from .edb import AddressCollision
from .store import PersistentStore

logger = logging.getLogger(__name__)


class _Stopped(Exception):
    """A frame arrived after ``Server.stop()``; it is not served."""


class Connection(socketserver.StreamRequestHandler):
    """One client connection: frames in, replies out, until BYE."""

    timeout = 300  # idle seconds before the server drops the connection

    def handle(self) -> None:
        while True:
            try:
                ftype, body = wire.read_frame(self.rfile)
            except wire.FrameError as exc:
                if "connection closed" not in str(exc):
                    self.server._send(self.wfile, wire.ERROR,
                                      str(exc).encode())
                return
            except OSError:
                return  # idle timeout or reset: the connection is over
            try:
                if not self.server._dispatch(self.wfile, ftype, body):
                    return
            except _Stopped:
                return
            except (wire.FrameError, AddressCollision, ValueError) as exc:
                self.server._send(self.wfile, wire.ERROR, str(exc).encode())
                return


class Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True  # a restart may bind over TIME_WAIT
    request_queue_size = 128  # socket.create_server's listen backlog

    def __init__(self, store: PersistentStore, host: str = "127.0.0.1",
                 port: int = 0):
        super().__init__((host, port), Connection)
        self.store = store
        self._lock = threading.Lock()
        self._stopped = False
        self._connections: set[socket.socket] = set()  # under _lock
        self.address: tuple[str, int] = self.server_address[:2]
        # shutdown() waits for serve_forever, so it must have been entered
        self._served = False

    def start(self) -> "Server":
        self._served = True
        threading.Thread(target=self.serve_forever, name="ddse-server",
                         daemon=True).start()
        return self

    def serve_forever(self, poll_interval: float = 0.2) -> None:
        self._served = True
        logger.info("listening on %s:%d", *self.address)
        super().serve_forever(poll_interval)

    def stop(self) -> None:
        if self._served:
            self.shutdown()  # no connection is accepted after this
        with self._lock:
            self._stopped = True
            live = list(self._connections)
        for sock in live:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # its reader sees EOF
            except OSError:
                pass
        self.server_close()

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def __exit__(self, *exc):
        self.stop()

    def _dispatch(self, stream, ftype: int, body: bytes) -> bool:
        """Handle one frame; False ends the connection."""
        if ftype == wire.HELLO:
            if body != bytes([wire.PROTOCOL_VERSION]):
                raise wire.FrameError(
                    f"unsupported protocol version {body.hex()}; "
                    f"this server speaks {wire.PROTOCOL_VERSION}")
            self._send(stream, wire.HELLO, body)
        elif ftype == wire.UPDATE:
            address, payload = wire.decode_update_body(body)
            self._locked(self.store.apply_update, address, payload)
            self._send(stream, wire.RESULT, b"")
        elif ftype == wire.SEARCH:
            request = wire.decode_search_body(body, token_only=True)
            outcome = self._locked(self.store.execute_search, request)
            self._send(stream, wire.RESULT,
                       wire.encode_result_body(outcome.results))
        elif ftype == wire.BYE:
            self._send(stream, wire.BYE)
            return False
        else:
            raise wire.FrameError(
                f"unexpected {wire.type_name(ftype)} frame from client")
        return True

    def _locked(self, operation, *args):
        """Run a store operation under the mutation lock, unless stopped."""
        with self._lock:
            if self._stopped:
                raise _Stopped
            return operation(*args)

    @staticmethod
    def _send(stream, ftype: int, body: bytes = b"") -> None:
        try:
            stream.write(wire.pack_frame(ftype, body))
            stream.flush()
        except OSError:
            pass


def serve(store: PersistentStore, host: str = "127.0.0.1",
          port: int = 0) -> Server:
    """Bind and start serving in the background; returns the server."""
    return Server(store, host, port).start()
