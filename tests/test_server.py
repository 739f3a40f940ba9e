"""Socket server: handshake, remote protocol rounds, fault handling,
stopping, compaction between requests, and pipelined searches."""

import io
import socket
import struct
import threading
import time

import pytest

from ddse import client as cl
from ddse import netclient, wire
from ddse.client import ClientConfig, ProtocolError
from ddse.edb import EncryptedDatabase
from ddse.netclient import RemoteEdb
from ddse.query import Registry, TableConfig, exec_statement
from ddse import server as server_mod
from ddse.server import Server, serve
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
    assert wire.PROTOCOL_VERSION == 4
    for version in (1, 2, 3, 5):
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


def test_full_protocol_round_over_socket(running_server, tmp_path):
    state, _ = small_state()
    log = tmp_path / "db" / "log"
    with RemoteEdb(*running_server.address) as remote:
        for i in range(6):
            cl.update(state, cl.ADD, b"w", b"v%d" % i, remote)
        cl.update(state, cl.DELETE, b"w", b"v0", remote)
        assert cl.search(state, b"w", remote) == {b"v%d" % i for i in range(1, 6)}
        # cache round: the token alone, answered without a log record
        size = log.stat().st_size
        assert cl.search_client_token(state, b"w").token_only
        assert cl.search(state, b"w", remote) == {b"v%d" % i for i in range(1, 6)}
        assert log.stat().st_size == size


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


@pytest.mark.parametrize("sent", [
    b"", b"\x00\x00", (10).to_bytes(4, "big") + b"\x02abc",
], ids=["boundary", "header", "body"])
def test_a_client_hanging_up_mid_frame_gets_no_error(running_server, sent):
    with socket.create_connection(running_server.address) as sock:
        stream = sock.makefile("rwb")
        stream.write(wire.pack_frame(wire.HELLO, wire.HELLO_BODY) + sent)
        stream.flush()
        sock.shutdown(socket.SHUT_WR)
        assert wire.read_frame(stream)[0] == wire.HELLO
        assert stream.read() == b""  # closed, with no ERROR frame


def test_each_request_gets_the_reply_type_wire_names(running_server):
    state, _ = small_state()
    sent = [(wire.HELLO, wire.HELLO_BODY)]

    class Tap:  # the UPDATE frame the add would send
        def apply_update(self, address, payload):
            sent.append((wire.UPDATE,
                         wire.encode_update_body(address, payload)))

    cl.update(state, cl.ADD, b"w", b"v", Tap())
    request = cl.search_client_token(state, b"w")
    sent += [(wire.SEARCH, wire.encode_search_body(request)), (wire.BYE, b"")]
    assert {ftype for ftype, _ in sent} == set(wire.REPLY)
    with socket.create_connection(running_server.address) as sock, \
            sock.makefile("rwb") as stream:
        stream.write(b"".join(wire.pack_frame(*frame) for frame in sent))
        stream.flush()
        replies = [wire.read_frame(stream)[0] for _ in sent]
        assert stream.read() == b""  # BYE ends the connection
    assert replies == [wire.REPLY[ftype] for ftype, _ in sent]


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


def test_idle_connection_is_closed(running_server, monkeypatch, capsys):
    monkeypatch.setattr(server_mod.Connection, "timeout", 0.3)
    with socket.create_connection(running_server.address) as sock:
        sock.settimeout(10)
        t0 = time.monotonic()
        assert sock.recv(1) == b""  # the server hung up, sending nothing
        assert time.monotonic() - t0 < 5
    assert "Traceback" not in capsys.readouterr().err


def test_stop_without_start_returns(tmp_path):
    store = PersistentStore(tmp_path / "db")
    t0 = time.monotonic()
    Server(store).stop()
    assert time.monotonic() - t0 < 1
    store.close()


def test_stop_returns_with_an_idle_client_connected(tmp_path):
    store = PersistentStore(tmp_path / "db")
    server = serve(store)
    with socket.create_connection(server.address) as sock:
        sock.sendall(wire.pack_frame(wire.HELLO,
                                     wire.HELLO_BODY))
        sock.settimeout(10)
        assert sock.recv(64)  # the connection is being served
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 2
    store.close()


def test_port_rebinds_after_a_closed_connection(tmp_path):
    # the server closes first after BYE, leaving TIME_WAIT on its port
    store = PersistentStore(tmp_path / "db")
    with serve(store) as server:
        RemoteEdb(*server.address).close()
    with Server(store, port=server.address[1]) as again:
        assert again.address == server.address
    store.close()


def test_stop_ends_established_connections(tmp_path):
    late = wire.encode_update_body(bytes(32), b"late")
    store = PersistentStore(tmp_path / "db")
    server = serve(store)
    with socket.create_connection(server.address) as sock:
        sock.sendall(wire.pack_frame(wire.HELLO,
                                     wire.HELLO_BODY))
        sock.settimeout(10)
        assert sock.recv(64)  # the connection is being served
        server.stop()
        sock.settimeout(1)
        assert sock.recv(64) == b""  # the server hung up
        try:
            sock.sendall(wire.pack_frame(wire.UPDATE, late))
            time.sleep(0.2)
        except OSError:
            pass  # reset by the server: also not served
    # a frame read just before stop() is not served either
    with pytest.raises(server_mod._Stopped):
        server._dispatch(io.BytesIO(), wire.UPDATE, late)
    assert store.edb.main == {}
    assert (tmp_path / "db" / "log").stat().st_size == 0
    store.close()


class TwinTee:
    """Sends every request to a remote store and to a local twin that is
    never compacted; every search must answer alike."""

    def __init__(self, remote, twin):
        self.remote, self.twin = remote, twin

    def apply_update(self, address, payload):
        self.twin.apply_update(address, payload)
        self.remote.apply_update(address, payload)

    def execute_search(self, request):
        expect = self.twin.execute_search(request)
        got = self.remote.execute_search(request)
        assert got.results == expect.results
        return got


def test_compaction_behind_a_live_server(tmp_path):
    registry = Registry()
    registry.register(TableConfig("T", "T.x", "T.y", bf_n=2000, bf_p=1e-4,
                                  d_max=16), sigma_depth=10, revoke_p=1e-2)
    store = PersistentStore(tmp_path / "db")
    twin = PersistentStore(tmp_path / "twin")
    server = serve(store)
    remote = RemoteEdb(*server.address)

    def run(statement):
        return exec_statement(registry, statement, TwinTee(remote, twin))

    def insert(x, y):
        run(f"INSERT INTO T (T.x, T.y) VALUE ('{x}', '{y}')")

    def select(x):
        return run(f"SELECT DISTINCT T.y FROM T WHERE T.x = '{x}'")

    def compact():
        with server._lock:  # as between two requests
            store.compact()

    try:
        for y in ("a", "b", "a", "c"):
            insert("w", y)
        insert("z", "q")
        assert select("w") == {b"a", b"b", b"c"}
        compact()
        insert("w", "d")
        assert select("w") == {b"a", b"b", b"c", b"d"}
        assert select("z") == {b"q"}
        compact()
        insert("z", "r")
        remote.close()
        server.stop()
        store.close()
        store = PersistentStore(tmp_path / "db")
        assert store.edb.main == twin.edb.main
        assert store.edb.cache == twin.edb.cache
        server = serve(store)
        remote = RemoteEdb(*server.address)
        insert("w", "e")
        assert select("w") == {b"a", b"b", b"c", b"d", b"e"}
        assert select("z") == {b"q", b"r"}
    finally:
        remote.close()
        server.stop()
        store.close()
        twin.close()


# -- pipelined searches -------------------------------------------------------

def test_updates_and_reads_between_pipelined_searches(running_server):
    state, _ = small_state()
    with RemoteEdb(*running_server.address) as remote:
        cl.update(state, cl.ADD, b"a", b"1", remote)
        cl.update(state, cl.ADD, b"b", b"2", remote)
        first = remote.execute_search(cl.search_client_token(state, b"a"))
        second = remote.execute_search(cl.search_client_token(state, b"b"))
        cl.update(state, cl.ADD, b"a", b"3", remote)  # reads both replies
        assert cl.search_finalize(state, second.results) == {b"2"}
        assert cl.search_finalize(state, first.results) == {b"1"}
        assert cl.search(state, b"a", remote) == {b"1", b"3"}


def test_unanswered_searches_stay_inside_the_window(running_server):
    state, _ = small_state()
    with RemoteEdb(*running_server.address) as remote:
        cl.update(state, cl.ADD, b"w", b"v", remote)
        assert cl.search(state, b"w", remote) == {b"v"}
        request = cl.search_client_token(state, b"w")
        assert request.token_only
        outcomes = []
        for _ in range(3 * netclient._WINDOW // 37):  # 37-byte frames
            outcomes.append(remote.execute_search(request))
            assert remote._unanswered <= netclient._WINDOW
        assert all(cl.search_finalize(state, o.results) == {b"v"}
                   for o in outcomes)


def test_close_with_unread_outcomes_returns(running_server):
    state, _ = small_state()
    remote = RemoteEdb(*running_server.address)
    for w in (b"a", b"b", b"c"):
        cl.update(state, cl.ADD, w, w + b"-v", remote)
    outcomes = [remote.execute_search(cl.search_client_token(state, w))
                for w in (b"a", b"b", b"c", b"a")]
    closer = threading.Thread(target=remote.close)
    closer.start()
    closer.join(timeout=10)
    assert not closer.is_alive()
    # each outcome kept its own reply
    assert [cl.search_finalize(state, o.results) for o in outcomes] == \
        [{b"a-v"}, {b"b-v"}, {b"c-v"}, {b"a-v"}]


def test_close_again_returns_and_unread_outcomes_still_raise(running_server):
    state, _ = small_state()
    dispatch = running_server._dispatch

    def failing(stream, ftype, body):
        if ftype == wire.SEARCH:
            raise wire.FrameError("injected failure")
        return dispatch(stream, ftype, body)

    with RemoteEdb(*running_server.address) as remote:
        cl.update(state, cl.ADD, b"w", b"v", remote)
        running_server._dispatch = failing
        outcomes = [remote.execute_search(cl.search_client_token(state, b"w"))
                    for _ in range(3)]
        remote.close()
        remote.close()
    # __exit__ closed it a third time; the first reply was the ERROR
    with pytest.raises(ProtocolError, match="injected failure"):
        outcomes[0].results
    for outcome in outcomes[1:]:
        with pytest.raises(ProtocolError, match="closed before the reply"):
            outcome.results


def test_close_after_a_failed_write_returns_and_frees_the_socket(
        running_server):
    state, _ = small_state()
    remote = RemoteEdb(*running_server.address)
    cl.update(state, cl.ADD, b"w", b"v", remote)
    remote._sock.shutdown(socket.SHUT_WR)  # every later write fails
    outcome = remote.execute_search(cl.search_client_token(state, b"w"))
    remote.close()  # its flush fails with the SEARCH frame still buffered
    assert remote._sock.fileno() == -1
    with pytest.raises(ProtocolError, match="closed before the reply"):
        outcome.results


def test_both_ends_disable_nagle(running_server):
    with RemoteEdb(*running_server.address) as remote:
        assert remote._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        with running_server._lock:
            accepted = list(running_server._connections)
        assert len(accepted) == 1
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


# -- one reply queue: every failure is a ProtocolError ------------------------

ECHO = (wire.HELLO, wire.HELLO_BODY)


def test_a_stopped_server_fails_the_search_and_the_next_update(tmp_path):
    state, _ = small_state()
    store = PersistentStore(tmp_path / "db")
    server = serve(store)
    remote = RemoteEdb(*server.address)
    try:
        cl.update(state, cl.ADD, b"w", b"v", remote)
        server.stop()
        outcome = remote.execute_search(cl.search_client_token(state, b"w"))
        for _ in range(2):  # stored, and raised again
            with pytest.raises(ProtocolError, match="transport failed"):
                outcome.results
        with pytest.raises(ProtocolError, match="transport failed"):
            remote.apply_update(bytes(32), b"x")
    finally:
        remote.close()
        store.close()
    assert remote._sock.fileno() == -1


def test_hello_answered_by_another_type_names_both(fake_server):
    address = fake_server((wire.RESULT, b""))
    with pytest.raises(ProtocolError, match="expected HELLO, got RESULT"):
        RemoteEdb(*address)


@pytest.mark.parametrize("reply, message", [
    ((wire.RESULT, bytes(4)), "expected an empty ack, got 4 bytes"),
    (ECHO, "expected RESULT, got HELLO"),
], ids=["non-empty-result", "hello"])
def test_update_answered_by_anything_but_an_empty_result(fake_server, reply,
                                                         message):
    with RemoteEdb(*fake_server(ECHO, reply)) as remote:
        with pytest.raises(ProtocolError, match=message):
            remote.apply_update(bytes(32), b"x")
