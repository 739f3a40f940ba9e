"""Command-line front end.

A database directory holds ``state.ddse``, the encrypted client bundle
(key material, distinct-state, quantity vectors), and ``store/``, the
server-side encrypted store.  A command that changes the client bundle
runs inside ``_registry``, which holds an exclusive lock on
``state.lock`` from the bundle's load to its save, so two concurrent
commands run one after the other instead of the later save undoing the
earlier one (``setup`` writes under the same lock); a command that
fails saves nothing, unless it failed with an ``IntegrityError``, after
its searches rotated their epochs.  The
passphrase sealing the client bundle comes from DDSE_PASSPHRASE; the
default directory from DDSE_STORE.  With ``--server HOST:PORT`` the
server half is remote and only the client bundle is touched locally;
without it, a ``store/`` that is missing, that ``ddse serve`` has open,
or whose log recovery refuses makes the command exit 1.
An IPv6 host is written in brackets, as in ``--listen [::1]:7070``.

    ddse setup --db ./demo
    ddse register-table People People.name People.mail
    ddse exec "INSERT INTO People (People.name, People.mail) \\
               VALUE ('alice', 'a@x.org')"
    ddse exec "SELECT DISTINCT People.mail FROM People \\
               WHERE People.name = 'alice'"
    ddse serve --listen 127.0.0.1:7070
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fcntl
import io
import logging
import os
import sys
from typing import Iterator

from . import audit as audit_mod
from . import query as q
from . import statefile
from . import workload as wl
from .client import ClientConfig, ProtocolError
from .edb import AddressCollision
from .netclient import RemoteEdb
from .store import PersistentStore, StoreFailed, StoreInUse

log = logging.getLogger("ddse")


class CliError(RuntimeError):
    pass


def _db_dir(args) -> str:
    db = args.db or os.environ.get("DDSE_STORE")
    if not db:
        raise CliError("no database directory: pass --db or set DDSE_STORE")
    return db


def _passphrase() -> str:
    pw = os.environ.get("DDSE_PASSPHRASE")
    if not pw:
        raise CliError("DDSE_PASSPHRASE is not set; client state stays "
                       "encrypted at rest and needs a passphrase")
    return pw


def _state_path(db: str) -> str:
    return os.path.join(db, "state.ddse")


def _store_path(db: str) -> str:
    return os.path.join(db, "store")


@contextlib.contextmanager
def _state_lock(db: str) -> Iterator[None]:
    """Hold the exclusive lock on ``state.lock``, a file of its own
    because ``statefile.save`` replaces ``state.ddse`` by rename."""
    with open(os.path.join(db, "state.lock"), "ab") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


@contextlib.contextmanager
def _registry(args) -> Iterator[q.Registry]:
    """The client registry, loaded under ``_state_lock``.  A directory
    without ``state.ddse`` is refused before the lock is made, so a
    command on one never set up creates nothing.
    The registry is saved under the key it was loaded with when the
    block ends without an error, reads included: a search rotates
    epochs and an update advances counters.  It is saved, too, when the
    block ends in ``IntegrityError``: that is raised only once every
    search's reply was read, so the server has seen the keys of the
    epochs those searches rotated, and a later add under one of them
    would not be forward private."""
    db = _db_dir(args)
    path = _state_path(db)
    if not os.path.exists(path):
        raise CliError(f"no client state at {path}; run ddse setup")
    with _state_lock(db):
        bundle, key = statefile.load_with_key(path, _passphrase())
        try:
            yield bundle["registry"]
        except q.IntegrityError:
            statefile.save(path, _passphrase(), bundle, key)
            raise
        statefile.save(path, _passphrase(), bundle, key)


def _host_port(value: str, flag: str, lowest: int = 1) -> tuple[str, int]:
    """HOST and PORT of ``flag``'s value, the port in lowest..65535; the
    brackets of an IPv6 host (``[::1]:7070``) are dropped."""
    host, _, port = value.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if (not host or not (port.isascii() and port.isdigit())
            or not lowest <= int(port) <= 0xFFFF):
        raise CliError(f"{flag} needs HOST:PORT")
    return host, int(port)


def _local_store(path: str) -> PersistentStore:
    """The store at ``path``, made if it is missing; a log that recovery
    refuses, or a path that is no directory, is a ``CliError``."""
    try:
        return PersistentStore(path)
    except (ValueError, OSError) as exc:
        raise CliError(f"cannot open store {path}: {exc}") from exc


def _open_edb(args) -> RemoteEdb | PersistentStore:
    """The remote store of ``--server``, else the local one, which must
    exist: one made here would hold none of the entries the client
    state counts."""
    if getattr(args, "server", None):
        host, port = _host_port(args.server, "--server")
        try:
            return RemoteEdb(host, port)
        except OSError as exc:
            raise CliError(f"cannot reach {args.server}: {exc}") from exc
    path = _store_path(_db_dir(args))
    if not os.path.exists(path):
        raise CliError(f"no store at {path}")
    try:
        return _local_store(path)
    except StoreInUse as exc:  # e.g. by `ddse serve`
        raise CliError(f"{exc}; pass --server") from exc


def _show(value: bytes) -> str:
    try:
        text = value.decode("utf-8")
        if text.isprintable() and text:
            return text
    except UnicodeDecodeError:
        pass
    return "0x" + value.hex()


def cmd_setup(args) -> int:
    db = _db_dir(args)
    pw = _passphrase()
    os.makedirs(db, exist_ok=True)
    path = _state_path(db)
    with _state_lock(db):  # a running command would save over the new state
        if os.path.exists(path) and not args.force:
            raise CliError(f"{path} already exists (use --force to replace)")
        statefile.save(path, pw, {"registry": q.Registry()})
    os.makedirs(_store_path(db), exist_ok=True)
    print(f"initialized {db}")
    return 0


def cmd_register_table(args) -> int:
    with _registry(args) as registry:
        config = q.TableConfig(args.table, args.keyword_column,
                               args.value_column, args.order, bf_n=args.bf_n,
                               bf_p=args.bf_p, d_max=args.d_max)
        try:
            registry.register(config)
        except ValueError as exc:  # sizes no index of this scheme can use
            raise CliError(f"cannot use --bf-n {args.bf_n} --bf-p "
                           f"{args.bf_p:g} --d-max {args.d_max}: {exc}"
                           ) from None
    print(f"registered {config.manifest_line()}")
    return 0


def cmd_exec(args) -> int:
    with _registry(args) as registry:
        query = q.plan(args.statement)
        with _open_edb(args) as edb:
            result = q.execute(registry, query, edb)
    if result is None:
        print("ok")
    elif isinstance(result, set):
        for v in sorted(result):
            print(_show(v))
    else:
        for v in result:
            print(_show(v))
    return 0


def _csv_text(path: str) -> str:
    """The whole CSV, decoded before any row is sent: a byte that is not
    UTF-8 anywhere in it is refused with nothing sent.  A leading byte
    order mark (a spreadsheet's export) is dropped, so it does not stick
    to the first column's name; a refused byte's offset counts it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 (byte {exc.start}); "
                       f"nothing was sent") from None


def cmd_ingest(args) -> int:
    done = skipped = 0
    with _registry(args) as registry:
        text = _csv_text(args.csv)
        instance = registry.instance_for(args.table, args.keyword_column,
                                         args.value_column)
        reader = csv.DictReader(io.StringIO(text, newline=""))
        missing = [c for c in (args.keyword_column, args.value_column)
                   if c not in (reader.fieldnames or ())]
        if missing:
            raise CliError(f"{args.csv} has no column {', '.join(missing)}")
        with _open_edb(args) as edb:
            for lineno, row in enumerate(reader, start=2):
                w = row.get(args.keyword_column)
                v = row.get(args.value_column)
                if not w or not v:
                    log.warning("line %d: missing %s or %s, skipped", lineno,
                                args.keyword_column, args.value_column)
                    skipped += 1
                    continue
                try:
                    q.insert(instance, w.encode(), v.encode(), edb)
                except q.QueryError as exc:  # a deleted pair, or a bad number
                    log.warning("line %d: %s, skipped", lineno, exc)
                    skipped += 1
                    continue
                done += 1
    print(f"ingested {done} rows ({skipped} skipped)")
    return 0


def cmd_audit(args) -> int:
    spec = wl.WorkloadSpec(keywords=args.keywords, updates=args.updates,
                           seed=args.seed)
    ops = wl.generate(spec)
    searches = [(audit_mod.OP_SEARCH, wl.keyword_name(i))
                for i in range(spec.keywords)]
    transcript = audit_mod.record(ops + searches, mutant=args.mutant)
    if args.dump:
        print(transcript.dump(limit=32))
    paired = audit_mod.record(
        [(kind, b"paired-" + w, v) for kind, w, v in ops],
        mutant=args.mutant)
    fp = audit_mod.fp_check(transcript, paired=paired)
    print(f"forward-privacy: {fp}")
    volumes0 = [(2, 5), (3, 3), (1, 4)]
    volumes1 = [(2, 3), (3, 5), (1, 4)]
    dwvh = audit_mod.dwvh_game(volumes0, volumes1)
    print(f"distinct-volume-hiding: {dwvh}")
    ok = fp.ok and dwvh.ok
    return 0 if ok else 1


def cmd_serve(args) -> int:
    from .server import Server
    db = _db_dir(args)
    # port 0 listens on any free port, which the banner reports
    host, port = _host_port(args.listen, "--listen", lowest=0)
    store = _local_store(_store_path(db))
    try:
        server = Server(store, host, port)
    except OSError as exc:  # a busy port, or a host that does not resolve
        store.close()
        raise CliError(f"cannot listen on {args.listen}: {exc}") from exc
    host, port = server.address
    print(f"listening on {f'[{host}]' if ':' in host else host}:{port}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        store.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddse",
        description="encrypted search over dynamic tables with "
                    "distinct-query support")
    parser.add_argument("--db", help="database directory "
                                     "(default: $DDSE_STORE)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="create a new database directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(run=cmd_setup)

    p = sub.add_parser("register-table", help="register an encrypted index")
    p.add_argument("table")
    p.add_argument("keyword_column")
    p.add_argument("value_column")
    p.add_argument("--order", default=q.ORDER_LEX,
                   choices=[q.ORDER_LEX, q.ORDER_NUMERIC])
    p.add_argument("--bf-n", type=int, default=ClientConfig.bf_n,
                   help="distinct-pair capacity")
    p.add_argument("--bf-p", type=float, default=ClientConfig.bf_p,
                   help="false-positive budget for the distinct state")
    p.add_argument("--d-max", type=int, default=ClientConfig.d_max,
                   help="per-keyword duplicate/delete budget")
    p.set_defaults(run=cmd_register_table)

    p = sub.add_parser("exec", help="run one statement")
    p.add_argument("statement")
    p.add_argument("--server", help="HOST:PORT of a remote store")
    p.set_defaults(run=cmd_exec)

    p = sub.add_parser("ingest", help="bulk-insert rows from a CSV file")
    p.add_argument("csv")
    p.add_argument("--table", required=True)
    p.add_argument("--keyword-column", required=True)
    p.add_argument("--value-column", required=True)
    p.add_argument("--server", help="HOST:PORT of a remote store")
    p.set_defaults(run=cmd_ingest)

    p = sub.add_parser("audit", help="run the leakage audits")
    p.add_argument("--keywords", type=int, default=8)
    p.add_argument("--updates", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mutant", action="store_true",
                   help="audit the deliberately leaky transport instead "
                        "(expected verdict: FAIL)")
    p.add_argument("--dump", action="store_true",
                   help="print a transcript preview first")
    p.set_defaults(run=cmd_audit)

    p = sub.add_parser("serve", help="serve a database directory over TCP")
    p.add_argument("--listen", default="127.0.0.1:7070")
    p.set_defaults(run=cmd_serve)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (CliError, statefile.StateFileError, q.QueryError,
            q.StatementError, ProtocolError, StoreInUse, StoreFailed,
            AddressCollision, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
