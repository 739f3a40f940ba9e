"""State-at-rest container and the command-line front end."""

import fcntl
import hashlib
import os
import pickle
import shutil
import socket
import stat
import struct
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import pytest

from ddse import statefile, wire
from ddse.cli import main
from ddse.edb import EncryptedDatabase
from ddse.query import Registry, TableConfig, exec_statement
from ddse.statefile import StateFileError
from ddse.store import PersistentStore


# -- statefile ----------------------------------------------------------------

def test_statefile_round_trip(tmp_path):
    path = str(tmp_path / "state.ddse")
    statefile.save(path, "hunter2", {"x": [1, 2, b"three"]})
    assert statefile.load(path, "hunter2") == {"x": [1, 2, b"three"]}


def test_statefile_save_syncs_the_rename(tmp_path, monkeypatch):
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        calls.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    statefile.save(str(tmp_path / "state.ddse"), "pw", {"k": 1})
    assert calls == [False, True]  # the file, then its directory entry


def count_scrypt(monkeypatch) -> list:
    calls = []
    real_scrypt = hashlib.scrypt

    def scrypt(*args, **kwargs):
        calls.append(1)
        return real_scrypt(*args, **kwargs)

    monkeypatch.setattr(statefile.hashlib, "scrypt", scrypt)
    return calls


def test_statefile_save_after_load_derives_the_key_once(tmp_path, monkeypatch):
    path = str(tmp_path / "state.ddse")
    statefile.save(path, "pw", {"k": 1})
    first = Path(path).read_bytes()
    calls = count_scrypt(monkeypatch)
    bundle, key = statefile.load_with_key(path, "pw")
    statefile.save(path, "pw", {"k": bundle["k"] + 1}, key)
    assert len(calls) == 1
    second = Path(path).read_bytes()
    assert second[5:21] == first[5:21]      # the file's salt is kept
    assert second[21:33] != first[21:33]    # with a fresh nonce
    assert statefile.load(path, "pw") == {"k": 2}
    with pytest.raises(StateFileError, match="wrong passphrase"):
        statefile.load(path, "wrong")


def test_statefile_wrong_passphrase(tmp_path):
    path = str(tmp_path / "state.ddse")
    statefile.save(path, "right", {"k": 1})
    with pytest.raises(StateFileError, match="wrong passphrase"):
        statefile.load(path, "wrong")


def test_statefile_rejects_empty_passphrase(tmp_path):
    with pytest.raises(StateFileError, match="empty passphrase"):
        statefile.save(str(tmp_path / "s"), "", {})


def test_statefile_detects_corruption(tmp_path):
    path = str(tmp_path / "state.ddse")
    statefile.save(path, "pw", {"k": 1})
    blob = bytearray(Path(path).read_bytes())
    blob[-1] ^= 0xFF
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(StateFileError, match="corrupted"):
        statefile.load(path, "pw")


def test_statefile_rejects_foreign_files(tmp_path):
    path = str(tmp_path / "junk")
    Path(path).write_bytes(b"PDF-1.4 definitely not ours" * 4)
    with pytest.raises(StateFileError, match="not a state file"):
        statefile.load(path, "pw")


def test_statefile_keys_not_plaintext_on_disk(tmp_path):
    reg = Registry()
    inst = reg.register(TableConfig("T", "T.x", "T.y", bf_n=2000,
                                    bf_p=1e-4, d_max=16),
                        sigma_depth=12, revoke_p=1e-2)
    path = str(tmp_path / "state.ddse")
    statefile.save(path, "pw", {"registry": reg})
    blob = Path(path).read_bytes()
    for secret in (inst.state.k_search, inst.state.k_tag,
                   inst.state.k_value):
        assert secret not in blob


def test_statefile_preserves_working_client_state(tmp_path):
    reg = Registry()
    reg.register(TableConfig("T", "T.x", "T.y", bf_n=2000, bf_p=1e-4,
                             d_max=16), sigma_depth=12, revoke_p=1e-2)
    edb = EncryptedDatabase()
    exec_statement(reg, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v1')", edb)
    exec_statement(reg, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v2')", edb)
    path = str(tmp_path / "state.ddse")
    statefile.save(path, "pw", {"registry": reg})
    revived = statefile.load(path, "pw")["registry"]
    got = exec_statement(revived,
                         "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'", edb)
    assert got == {b"v1", b"v2"}
    # and the revived client can keep writing
    exec_statement(revived, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v3')",
                   edb)
    got = exec_statement(revived,
                         "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'", edb)
    assert got == {b"v1", b"v2", b"v3"}


# -- cli ------------------------------------------------------------------------

@pytest.fixture
def db(tmp_path, monkeypatch):
    monkeypatch.setenv("DDSE_PASSPHRASE", "test-passphrase")
    monkeypatch.delenv("DDSE_STORE", raising=False)
    path = str(tmp_path / "db")
    assert main(["--db", path, "setup"]) == 0
    return path


def run_cli(db, *argv):
    return main(["--db", db, *argv])


def register(db, table="T", kw="T.x", val="T.y"):
    return run_cli(db, "register-table", table, kw, val, "--d-max", "16")


def files_under(db) -> dict:
    """Every file of a database directory but its lock, with its bytes."""
    return {str(p.relative_to(db)): p.read_bytes()
            for p in Path(db).rglob("*")
            if p.is_file() and p.name != "state.lock"}


def test_setup_refuses_overwrite_without_force(db, capsys):
    assert run_cli(db, "setup") == 1
    assert "already exists" in capsys.readouterr().err
    assert run_cli(db, "setup", "--force") == 0


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
def test_setup_refuses_a_store_that_holds_entries(db, capsys, force):
    assert register(db) == 0
    assert run_cli(db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')") == 0
    before = files_under(db)
    capsys.readouterr()
    assert run_cli(db, "setup", *force) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert files_under(db) == before
    shutil.rmtree(Path(db, "store"))
    assert run_cli(db, "setup", "--force") == 0
    assert run_cli(db, "exec",
                   "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'") == 1
    assert "no index registered" in capsys.readouterr().err


def test_missing_passphrase_fails(db, monkeypatch, capsys):
    monkeypatch.delenv("DDSE_PASSPHRASE")
    assert register(db) == 1
    assert "DDSE_PASSPHRASE" in capsys.readouterr().err


def test_db_dir_falls_back_to_env(db, monkeypatch, capsys):
    monkeypatch.setenv("DDSE_STORE", db)
    assert main(["exec", "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'"]) == 1
    # registry is empty, so the error is about the table, not the env
    assert "no index registered" in capsys.readouterr().err


def test_insert_select_round_trip(db, capsys):
    assert register(db) == 0
    capsys.readouterr()
    for v in ("bob", "amy", "bob"):
        assert run_cli(db, "exec",
                       f"INSERT INTO T (T.x, T.y) VALUE ('w', '{v}')") == 0
    assert run_cli(db, "exec",
                   "SELECT T.y FROM T WHERE T.x = 'w'") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-3:] == ["amy", "bob", "bob"]


def test_exec_derives_the_state_key_once(db, monkeypatch, capsys):
    assert register(db) == 0
    calls = count_scrypt(monkeypatch)
    assert run_cli(db, "exec",
                   "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')") == 0
    assert len(calls) == 1
    assert run_cli(db, "exec",
                   "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "v"


def test_state_persists_across_invocations(db, capsys):
    assert register(db) == 0
    assert run_cli(db, "exec",
                   "INSERT INTO T (T.x, T.y) VALUE ('w', 'kept')") == 0
    # every main() call above reloaded state from disk; one more round
    assert run_cli(db, "exec",
                   "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'") == 0
    assert "kept" in capsys.readouterr().out


def test_duplicate_registration_fails(db, capsys):
    assert register(db) == 0
    assert register(db) == 1
    assert "already registered" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--d-max", "100000000"), ("--d-max", "0")])
def test_register_table_refuses_sizes_it_cannot_use(db, capsys, flag, value):
    state = Path(db, "state.ddse").read_bytes()
    capsys.readouterr()
    assert run_cli(db, "register-table", "T", "T.x", "T.y", flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot use --d-max {value}: "), err
    assert "Traceback" not in err
    assert Path(db, "state.ddse").read_bytes() == state
    assert register(db) == 0  # the table was not registered


def test_statement_syntax_error_is_reported(db, capsys):
    assert register(db) == 0
    before = files_under(db)
    assert run_cli(db, "exec", "DROP TABLE T") == 1
    assert "error: expected SELECT, INSERT or DELETE, got 'DROP' " \
        "(at position 0)" in capsys.readouterr().err
    assert files_under(db) == before  # not even the store was opened


def test_a_literal_that_is_not_utf8_is_reported_and_sends_nothing(db,
                                                                  capsys):
    # Python decodes a non-UTF-8 byte of argv, here 0xff, to "\udcff"
    assert register(db) == 0
    assert run_cli(db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')") \
        == 0
    before = files_under(db)
    capsys.readouterr()
    assert run_cli(db, "exec",
                   "SELECT T.y FROM T WHERE T.x = '\udcff'") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: string literal is not valid UTF-8 (at "
                          "position 30)")
    assert files_under(db) == before


def test_commands_wait_for_the_state_lock(db, capsys):
    assert register(db) == 0
    capsys.readouterr()
    codes = []
    command = threading.Thread(target=lambda: codes.append(run_cli(
        db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'late')")))
    with open(os.path.join(db, "state.lock"), "ab") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        command.start()
        command.join(0.3)
        assert command.is_alive()  # waiting for the lock
    command.join(30)
    assert not command.is_alive() and codes == [0]
    assert run_cli(db, "exec", "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "late"


def test_setup_force_waits_for_the_state_lock(db):
    codes = []
    command = threading.Thread(
        target=lambda: codes.append(run_cli(db, "setup", "--force")))
    with open(os.path.join(db, "state.lock"), "ab") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        command.start()
        command.join(0.5)
        assert command.is_alive()  # waiting for the lock
    command.join(30)
    assert not command.is_alive() and codes == [0]


def unknown_record(store):
    """Append a record whose checksum holds but whose type is unknown."""
    data = bytes([9]) + b"\0" * 8
    with open(store / "log", "ab") as fh:
        fh.write(struct.pack(">I", len(data)) + data
                 + struct.pack(">I", zlib.crc32(data)))


def retired_snapshot(store):
    (store / "snapshot").write_bytes(b"")


def store_is_a_file(store):
    (store / "log").unlink()
    store.rmdir()
    store.write_bytes(b"")


@pytest.mark.parametrize("command", ["exec", "serve"])
@pytest.mark.parametrize("damage", [unknown_record, retired_snapshot,
                                    store_is_a_file])
def test_a_store_that_cannot_be_opened_is_an_error_line(db, capsys, command,
                                                        damage):
    assert register(db) == 0
    assert run_cli(db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')") == 0
    store = Path(db) / "store"
    damage(store)
    before = files_under(db)
    args = {"exec": ["exec", "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'"],
            "serve": ["serve", "--listen", "127.0.0.1:0"]}
    capsys.readouterr()
    assert run_cli(db, *args[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot open store {store}: "), err
    assert "Traceback" not in err
    assert files_under(db) == before


@pytest.mark.parametrize("command", ["exec", "ingest"])
def test_a_missing_store_is_an_error_line_and_is_not_made(
        db, tmp_path, capsys, command):
    assert register(db) == 0
    assert run_cli(db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')") == 0
    store = Path(db) / "store"
    store.rename(tmp_path / "moved")
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("T.x,T.y\nw,u\n")
    args = {"exec": ["exec", "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'"],
            "ingest": ["ingest", str(csv_path), "--table", "T",
                       "--keyword-column", "T.x", "--value-column", "T.y"]}
    before = files_under(db)
    capsys.readouterr()
    assert run_cli(db, *args[command]) == 1
    assert capsys.readouterr().err == f"error: no store at {store}\n"
    assert not store.exists() and files_under(db) == before


@pytest.mark.parametrize("argv", [
    ["exec", "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'"],
    ["register-table", "T", "T.x", "T.y"],
    ["ingest", "--table", "T", "--keyword-column", "T.x",
     "--value-column", "T.y", "rows.csv"],
])
def test_commands_on_a_directory_never_set_up_create_nothing(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("DDSE_PASSPHRASE", "test-passphrase")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rows.csv").write_text("T.x,T.y\nw,v\n")
    empty = tmp_path / "empty"
    empty.mkdir()
    missing = tmp_path / "missing"
    for db in (empty, missing):
        assert main(["--db", str(db), *argv]) == 1
        assert capsys.readouterr().err == \
            f"error: no client state at {db / 'state.ddse'}; run ddse setup\n"
    assert list(empty.iterdir()) == [] and not missing.exists()


def test_ingest_csv_skips_bad_rows(db, tmp_path, capsys, caplog):
    assert register(db, "People", "People.name", "People.mail") == 0
    csv_path = tmp_path / "people.csv"
    csv_path.write_text(
        "People.name,People.mail,junk\n"
        "alice,a@x.org,1\n"
        ",missing@x.org,2\n"
        "bob,b@x.org,3\n"
        "carol,,4\n")
    assert run_cli(db, "ingest", str(csv_path), "--table", "People",
                   "--keyword-column", "People.name",
                   "--value-column", "People.mail") == 0
    assert "ingested 2 rows (2 skipped)" in capsys.readouterr().out
    assert run_cli(db, "exec", "SELECT DISTINCT People.mail FROM People "
                               "WHERE People.name = 'alice'") == 0
    assert "a@x.org" in capsys.readouterr().out


def test_ingest_skips_the_readd_of_a_deleted_pair(db, tmp_path, capsys,
                                                  caplog):
    assert register(db, "People", "People.name", "People.mail") == 0
    csv_path = tmp_path / "people.csv"
    csv_path.write_text("People.name,People.mail\nalice,a@x.org\n")
    ingest = ("ingest", str(csv_path), "--table", "People",
              "--keyword-column", "People.name",
              "--value-column", "People.mail")
    assert run_cli(db, *ingest) == 0
    assert run_cli(db, "exec", "DELETE FROM People WHERE People.name = "
                               "'alice' AND People.mail = 'a@x.org'") == 0
    csv_path.write_text("People.name,People.mail\n"
                        "alice,a@x.org\n"
                        "alice,b@x.org\n")
    capsys.readouterr()
    assert run_cli(db, *ingest) == 0
    assert "ingested 1 rows (1 skipped)" in capsys.readouterr().out
    assert "line 2: cannot re-add deleted pair" in caplog.text
    # the rows after the skip were saved: the keyword is not wedged
    assert run_cli(db, "exec", "INSERT INTO People (People.name, People.mail)"
                               " VALUE ('alice', 'c@x.org')") == 0
    capsys.readouterr()
    assert run_cli(db, "exec", "SELECT People.mail FROM People "
                               "WHERE People.name = 'alice'") == 0
    assert capsys.readouterr().out.split() == ["b@x.org", "c@x.org"]


def test_ingest_skips_a_value_a_numeric_column_cannot_order(db, tmp_path,
                                                            capsys, caplog):
    assert run_cli(db, "register-table", "T", "T.x", "T.y",
                   "--order", "numeric", "--d-max", "16") == 0
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("T.x,T.y\nw,7\nw,seven\nw,3\n")
    capsys.readouterr()
    assert run_cli(db, "ingest", str(csv_path), "--table", "T",
                   "--keyword-column", "T.x", "--value-column", "T.y") == 0
    assert "ingested 2 rows (1 skipped)" in capsys.readouterr().out
    assert "line 3: non-numeric value" in caplog.text
    assert run_cli(db, "exec", "SELECT T.y FROM T WHERE T.x = 'w'") == 0
    assert capsys.readouterr().out.split() == ["3", "7"]


def test_ingest_refuses_a_csv_that_is_not_utf8_before_sending(
        db, tmp_path, capsys):
    assert register(db) == 0
    assert run_cli(db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')") == 0
    csv_path = tmp_path / "rows.csv"
    # the bad byte lies past the first 8 KiB a text-mode reader decodes
    rows = b"".join(b"w,v%05d\n" % i for i in range(1500))
    csv_path.write_bytes(b"T.x,T.y\n" + rows + b"w,\xffx\n")
    assert len(rows) > 8192
    before = files_under(db)
    capsys.readouterr()
    assert run_cli(db, "ingest", str(csv_path), "--table", "T",
                   "--keyword-column", "T.x", "--value-column", "T.y") == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {csv_path} is not UTF-8 (byte "
                            f"{csv_path.read_bytes().index(0xff)}); "
                            f"nothing was sent\n")
    assert captured.out == ""
    assert files_under(db) == before
    # nothing was wedged: the keyword takes its next add
    assert run_cli(db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'u')") == 0
    capsys.readouterr()
    assert run_cli(db, "exec", "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'") == 0
    assert capsys.readouterr().out.split() == ["u", "v"]


def test_ingest_drops_a_leading_byte_order_mark(db, tmp_path, capsys):
    assert register(db) == 0
    csv_path = tmp_path / "rows.csv"
    bom = b"\xef\xbb\xbf"  # as a spreadsheet's export starts
    csv_path.write_bytes(bom + b"T.x,T.y\nw,v\n")
    capsys.readouterr()
    ingest = ("ingest", str(csv_path), "--table", "T",
              "--keyword-column", "T.x", "--value-column", "T.y")
    assert run_cli(db, *ingest) == 0
    assert capsys.readouterr().out == "ingested 1 rows (0 skipped)\n"
    assert run_cli(db, "exec", "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'") == 0
    assert capsys.readouterr().out.split() == ["v"]
    # a byte that is not UTF-8 is still refused at its offset in the file
    data = bom + b"T.x,T.y\nw,u\nw,\xffx\n"
    csv_path.write_bytes(data)
    before = files_under(db)
    assert run_cli(db, *ingest) == 1
    assert f"(byte {data.index(0xff)}); nothing was sent" in \
        capsys.readouterr().err
    assert files_under(db) == before


@pytest.mark.parametrize("command", ["exec", "ingest"])
def test_a_reused_address_is_an_error_line(db, tmp_path, capsys, command):
    """A state file older than the store's last add (ROADMAP item 3(a)'s
    wedge) makes the next add reuse an address: an error line, exit 1."""
    assert register(db) == 0
    state = Path(db) / "state.ddse"
    stale = state.read_bytes()
    assert run_cli(db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')") == 0
    state.write_bytes(stale)
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("T.x,T.y\nw,u\n")
    args = {"exec": ["exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'u')"],
            "ingest": ["ingest", str(csv_path), "--table", "T",
                       "--keyword-column", "T.x", "--value-column", "T.y"]}
    before = files_under(db)
    capsys.readouterr()
    assert run_cli(db, *args[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: address reused"), err
    assert "Traceback" not in err
    assert files_under(db) == before


@pytest.mark.parametrize("header, keyword_column, fragment", [
    ("People.nam,People.mail", "People.name", "has no column People.name"),
    ("People.name,People.mail", "People.nam", "no index registered"),
], ids=["header", "flag"])
def test_ingest_refuses_a_misspelled_column_before_sending(
        db, tmp_path, capsys, header, keyword_column, fragment):
    assert register(db, "People", "People.name", "People.mail") == 0
    assert run_cli(db, "exec", "INSERT INTO People (People.name, People.mail)"
                               " VALUE ('alice', 'a@x.org')") == 0
    csv_path = tmp_path / "people.csv"
    csv_path.write_text(f"{header}\nbob,b@x.org\n")
    before = files_under(db)
    capsys.readouterr()
    assert run_cli(db, "ingest", str(csv_path), "--table", "People",
                   "--keyword-column", keyword_column,
                   "--value-column", "People.mail") == 1
    captured = capsys.readouterr()
    assert fragment in captured.err and captured.out == ""
    assert files_under(db) == before


@pytest.mark.parametrize("body", ["", "People.name,People.mail\n"],
                         ids=["empty", "header-only"])
def test_ingest_refuses_an_unregistered_table(db, tmp_path, capsys, body):
    assert register(db, "People", "People.name", "People.mail") == 0
    csv_path = tmp_path / "people.csv"
    csv_path.write_text(body)
    before = files_under(db)
    assert run_cli(db, "ingest", str(csv_path), "--table", "Peeple",
                   "--keyword-column", "People.name",
                   "--value-column", "People.mail") == 1
    assert "no index registered" in capsys.readouterr().err
    assert files_under(db) == before


def test_exec_reports_an_unreachable_server(db, capsys):
    assert register(db) == 0
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        hostport = "127.0.0.1:%d" % sock.getsockname()[1]
    before = files_under(db)
    assert run_cli(db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')",
                   "--server", hostport) == 1
    assert f"error: cannot reach {hostport}: " in capsys.readouterr().err
    assert files_under(db) == before


@pytest.mark.parametrize("port", ["abc", "", "0", "65536", "-1", "+80"])
def test_exec_refuses_a_bad_server_port(db, capsys, port):
    assert register(db) == 0
    before = files_under(db)
    capsys.readouterr()
    assert run_cli(db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')",
                   "--server", f"127.0.0.1:{port}") == 1
    assert capsys.readouterr().err == "error: --server needs HOST:PORT\n"
    assert files_under(db) == before


@pytest.mark.parametrize("value", ["127.0.0.1:xyz", "127.0.0.1:65536",
                                   "127.0.0.1:", ":7070", "7070"])
def test_serve_refuses_a_bad_listen_address(db, capsys, value):
    assert register(db) == 0
    before = files_under(db)
    capsys.readouterr()
    assert run_cli(db, "serve", "--listen", value) == 1
    assert capsys.readouterr().err == "error: --listen needs HOST:PORT\n"
    assert files_under(db) == before  # no store/log either


@pytest.mark.parametrize("host_port", ["busy", "no-such-host.invalid:0",
                                       "256.0.0.1:0"])
def test_serve_that_cannot_listen_is_an_error_and_frees_the_store(
        db, capsys, host_port):
    with socket.create_server(("127.0.0.1", 0)) as busy:
        if host_port == "busy":
            host_port = "127.0.0.1:%d" % busy.getsockname()[1]
        capsys.readouterr()
        assert run_cli(db, "serve", "--listen", host_port) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot listen on {host_port}: "), err
    PersistentStore(os.path.join(db, "store")).close()  # not left locked


@pytest.mark.parametrize("command", ["exec", "ingest"])
def test_a_server_hanging_up_after_hello_is_an_error(
        db, tmp_path, capsys, fake_server, command):
    assert register(db) == 0
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("T.x,T.y\nw,v\n")
    args = {"exec": ["exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')"],
            "ingest": ["ingest", str(csv_path), "--table", "T",
                       "--keyword-column", "T.x", "--value-column", "T.y"]}
    host, port = fake_server((wire.HELLO, wire.HELLO_BODY))
    before = files_under(db)
    capsys.readouterr()
    assert run_cli(db, *args[command], "--server", f"{host}:{port}") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: "), err
    assert "Traceback" not in err
    assert files_under(db) == before


def keyword_record(db, keyword=b"w"):
    bundle = statefile.load(str(Path(db, "state.ddse")), "test-passphrase")
    instance = bundle["registry"].instance_for("T", "T.x", "T.y")
    return instance.state.keywords[keyword]


def test_an_integrity_error_keeps_the_epochs_its_searches_rotated(
        db, capsys, fake_server):
    assert register(db) == 0
    hello, bye = (wire.HELLO, wire.HELLO_BODY), (wire.BYE, b"")
    host, port = fake_server(hello, (wire.RESULT, b""), bye)
    assert run_cli(db, "exec", "INSERT INTO T (T.x, T.y) VALUE ('w', 'a')",
                   "--server", f"{host}:{port}") == 0
    before = keyword_record(db)
    assert before.epoch == 0
    # a store that drops the retrieval: the search's reply is read, so
    # the server has seen the punctured key of the epoch it rotated
    host, port = fake_server(
        hello, (wire.RESULT, wire.encode_result_body([])), bye)
    capsys.readouterr()
    assert run_cli(db, "exec", "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'",
                   "--server", f"{host}:{port}") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: quantity vector disagrees"), err
    after = keyword_record(db)
    assert after.epoch == 1
    assert pickle.dumps(after.msk) != pickle.dumps(before.msk)


def test_audit_command_passes_on_real_transport(db, capsys):
    assert run_cli(db, "audit", "--keywords", "4", "--updates", "40",
                   "--dump") == 0
    out = capsys.readouterr().out
    assert "forward-privacy: PASS" in out
    assert "distinct-volume-hiding: PASS" in out
    assert "update" in out  # the dump


def test_audit_command_fails_on_mutant(db, capsys):
    assert run_cli(db, "audit", "--keywords", "4", "--updates", "40",
                   "--mutant") == 1
    assert "forward-privacy: FAIL" in capsys.readouterr().out


def test_bench_subcommand_is_gone(db, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(db, "bench")
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def binds_ipv6_loopback() -> bool:
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        return False
    return True


@pytest.mark.parametrize("listen", ["127.0.0.1:0", "[::1]:0"],
                         ids=["ipv4", "ipv6"])
def test_serve_and_remote_exec(db, tmp_path, capsys, listen):
    if listen.startswith("[") and not binds_ipv6_loopback():
        pytest.skip("::1 cannot be bound here")
    server_db = str(tmp_path / "server-db")
    env = dict(os.environ, DDSE_PASSPHRASE="test-passphrase")
    # leaving the block closes the pipe and waits for the server
    with subprocess.Popen(
            [sys.executable, "-m", "ddse.cli", "--db", server_db,
             "serve", "--listen", listen],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True) as proc:
        try:
            line = proc.stdout.readline()
            assert line.startswith("listening on "), line
            hostport = line.split()[-1]
            assert hostport.startswith(listen[:-1]), hostport  # HOST:
            assert register(db) == 0
            assert run_cli(db, "exec",
                           "INSERT INTO T (T.x, T.y) VALUE ('w', 'remote')",
                           "--server", hostport) == 0
            capsys.readouterr()
            assert run_cli(db, "exec",
                           "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'",
                           "--server", hostport) == 0
            assert capsys.readouterr().out.split() == ["remote"]
        finally:
            proc.terminate()


def test_exec_without_server_refuses_a_served_store(db, capsys):
    env = dict(os.environ, DDSE_PASSPHRASE="test-passphrase")
    assert register(db) == 0
    with subprocess.Popen(
            [sys.executable, "-m", "ddse.cli", "--db", db,
             "serve", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True) as proc:
        try:
            line = proc.stdout.readline()
            assert line.startswith("listening on "), line
            hostport = line.split()[-1]
            assert run_cli(db, "exec",
                           "INSERT INTO T (T.x, T.y) VALUE ('w', 'a')",
                           "--server", hostport) == 0
            before = files_under(db)
            capsys.readouterr()
            assert run_cli(db, "exec",
                           "INSERT INTO T (T.x, T.y) VALUE ('w', 'b')") == 1
            assert "store in use; pass --server" in capsys.readouterr().err
            assert files_under(db) == before  # the log and the state
            assert run_cli(db, "exec",
                           "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'",
                           "--server", hostport) == 0
            assert capsys.readouterr().out.split() == ["a"]
        finally:
            proc.terminate()


def test_remote_select_output(db, tmp_path, capsys):
    # same round as above but assert on the printed values
    from ddse.server import Server
    from ddse.store import PersistentStore
    store = PersistentStore(str(tmp_path / "remote-store"))
    with Server(store) as server:
        server.start()
        hostport = f"{server.address[0]}:{server.address[1]}"
        assert register(db) == 0
        assert run_cli(db, "exec",
                       "INSERT INTO T (T.x, T.y) VALUE ('w', 'remote')",
                       "--server", hostport) == 0
        capsys.readouterr()
        assert run_cli(db, "exec",
                       "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'",
                       "--server", hostport) == 0
        assert "remote" in capsys.readouterr().out
    store.close()
