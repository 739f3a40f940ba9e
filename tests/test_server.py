"""Socket server: handshake, remote protocol rounds, fault handling."""

import socket
import struct
import threading

import pytest

from ddse import client as cl
from ddse import wire
from ddse.client import ClientConfig, ProtocolError
from ddse.edb import EncryptedDatabase
from ddse.netclient import RemoteEdb
from ddse.server import serve
from ddse.store import PersistentStore


@pytest.fixture()
def running_server(tmp_path):
    store = PersistentStore(tmp_path / "db")
    server = serve(store)
    yield server
    server.stop()
    store.close()


def small_state():
    return cl.setup(ClientConfig(bf_n=200, bf_p=1e-3, d_max=8,
                                 revoke_p=1e-2, sigma_depth=10))


def test_hello_echoes_version(running_server):
    remote = RemoteEdb(*running_server.address)
    remote.close()


def test_hello_of_another_version_gets_error_and_close(running_server):
    assert wire.PROTOCOL_VERSION == 3
    for version in (1, 2, 4):
        with socket.create_connection(running_server.address) as sock:
            stream = sock.makefile("rwb")
            stream.write(wire.pack_frame(wire.HELLO, bytes([version])))
            stream.flush()
            ftype, body = wire.read_frame(stream)
            assert ftype == wire.ERROR
            assert b"protocol version" in body
            assert stream.read(1) == b""  # server closed the connection


def test_refused_hello_closes_the_client_socket():
    seen = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def refuse():
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                conn.settimeout(3)
                wire.read_frame(stream)
                stream.write(wire.pack_frame(wire.ERROR, b"go away"))
                stream.flush()
                seen.append(stream.read(1))  # EOF once the client closes

        thread = threading.Thread(target=refuse)
        thread.start()
        with pytest.raises(ProtocolError, match="go away") as refused:
            RemoteEdb(*listener.getsockname())
        # ``refused`` keeps the half-built client alive through its
        # traceback, so garbage collection cannot be what closes it
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [b""], refused.value


def test_full_protocol_round_over_socket(running_server):
    state, _ = small_state()
    with RemoteEdb(*running_server.address) as remote:
        for i in range(6):
            cl.update(state, cl.ADD, b"w", b"v%d" % i, remote)
        cl.update(state, cl.DELETE, b"w", b"v0", remote)
        assert cl.search(state, b"w", remote) == {b"v%d" % i for i in range(1, 6)}
        # cache round
        assert cl.search(state, b"w", remote) == {b"v%d" % i for i in range(1, 6)}


def test_result_bodies_identical_in_process_and_remote(running_server):
    state, mem = small_state()

    class Tee:
        def apply_update(self, address, payload):
            mem.apply_update(address, payload)
            remote.apply_update(address, payload)

    with RemoteEdb(*running_server.address) as remote:
        tee = Tee()
        for i in range(5):
            cl.update(state, cl.ADD, b"w", b"val-%d" % i, tee)
        cl.update(state, cl.ADD, b"w", b"val-0", tee)
        request = cl.search_client_token(state, b"w")
        local_body = wire.encode_result_body(mem.execute_search(request).results)
        remote_results = remote.execute_search(request).results
        assert wire.encode_result_body(remote_results) == local_body


def test_malformed_frame_gets_error_and_close(running_server):
    with socket.create_connection(running_server.address) as sock:
        stream = sock.makefile("rwb")
        stream.write(wire.pack_frame(wire.UPDATE, b"way too short"))
        stream.flush()
        ftype, body = wire.read_frame(stream)
        assert ftype == wire.ERROR
        assert b"update body" in body
        assert stream.read(1) == b""  # server closed the connection


def test_oversize_frame_gets_error(running_server):
    with socket.create_connection(running_server.address) as sock:
        stream = sock.makefile("rwb")
        stream.write(struct.pack(">IB", wire.MAX_FRAME + 5, wire.UPDATE))
        stream.flush()
        ftype, body = wire.read_frame(stream)
        assert ftype == wire.ERROR
        assert b"64 MiB" in body


def test_unexpected_frame_type_gets_error(running_server):
    with socket.create_connection(running_server.address) as sock:
        stream = sock.makefile("rwb")
        stream.write(wire.pack_frame(wire.RESULT, b""))
        stream.flush()
        ftype, _ = wire.read_frame(stream)
        assert ftype == wire.ERROR


def test_collision_surfaces_as_protocol_error(running_server):
    with RemoteEdb(*running_server.address) as remote:
        remote.apply_update(bytes(32), b"x")
        with pytest.raises(ProtocolError, match="address reused"):
            remote.apply_update(bytes(32), b"y")


def test_state_survives_server_restart(tmp_path):
    state, _ = small_state()
    store = PersistentStore(tmp_path / "db")
    server = serve(store)
    with RemoteEdb(*server.address) as remote:
        cl.update(state, cl.ADD, b"w", b"persisted", remote)
    server.stop()
    store.close()

    store2 = PersistentStore(tmp_path / "db")
    server2 = serve(store2)
    try:
        with RemoteEdb(*server2.address) as remote:
            assert cl.search(state, b"w", remote) == {b"persisted"}
    finally:
        server2.stop()
        store2.close()
