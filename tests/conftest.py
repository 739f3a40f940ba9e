"""Fixtures shared by the socket tests."""

import contextlib
import socket
import threading

import pytest

from ddse import wire


@pytest.fixture
def fake_server():
    """``fake_server(*replies)`` listens on a free port and serves one
    connection: each frame it reads gets the next reply, a (type, body)
    pair, and once they run out it hangs up.  Returns the address."""
    threads = []

    def start(*replies):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)

        def answer():
            with listener, contextlib.suppress(OSError, wire.FrameError):
                conn, _ = listener.accept()
                conn.settimeout(10)
                with conn, conn.makefile("rwb") as stream:
                    for reply in replies:
                        wire.read_frame(stream)
                        stream.write(wire.pack_frame(*reply))
                        stream.flush()

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        threads.append(thread)
        return listener.getsockname()[:2]

    yield start
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
