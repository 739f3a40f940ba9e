"""Socket server hosting a persistent encrypted database.

One thread per connection; mutations are serialized through a lock and
hit the store's log before the acknowledgement goes out.  The server
only ever sees delegated key material inside SEARCH bodies -- this
module must not import the client side.
"""

from __future__ import annotations

import logging
import socket
import threading

from . import wire
from .edb import AddressCollision
from .store import PersistentStore

logger = logging.getLogger(__name__)


class Server:
    def __init__(self, store: PersistentStore, host: str = "127.0.0.1",
                 port: int = 0):
        self.store = store
        self._lock = threading.Lock()
        self._listener = socket.create_server((host, port))
        # wake periodically so stop() can interrupt a blocked accept()
        self._listener.settimeout(0.2)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()

    def start(self) -> "Server":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ddse-server", daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        self._accept_loop()

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    def _accept_loop(self) -> None:
        logger.info("listening on %s:%d", *self.address)
        while not self._stopping.is_set():
            try:
                conn, peer = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break  # listener closed
            conn.settimeout(None)
            threading.Thread(target=self._serve_connection,
                             args=(conn, peer), daemon=True).start()

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        stream = conn.makefile("rwb")
        try:
            while True:
                try:
                    ftype, body = wire.read_frame(stream)
                except wire.FrameError as exc:
                    if "connection closed" not in str(exc):
                        self._send(stream, wire.ERROR, str(exc).encode())
                    return
                try:
                    if not self._dispatch(stream, ftype, body):
                        return
                except (wire.FrameError, AddressCollision, ValueError) as exc:
                    self._send(stream, wire.ERROR, str(exc).encode())
                    return
        finally:
            try:
                stream.close()
            except OSError:
                pass
            conn.close()

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
            with self._lock:
                self.store.apply_update(address, payload)
            self._send(stream, wire.RESULT, b"")
        elif ftype == wire.SEARCH:
            request = wire.decode_search_body(body)
            with self._lock:
                outcome = self.store.execute_search(request)
            self._send(stream, wire.RESULT,
                       wire.encode_result_body(outcome.results))
        elif ftype == wire.BYE:
            self._send(stream, wire.BYE)
            return False
        else:
            raise wire.FrameError(
                f"unexpected {wire.type_name(ftype)} frame from client")
        return True

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
