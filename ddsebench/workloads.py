"""The three benchmark workloads and their plaintext oracle.

Each workload draws all of its inputs from the seed.  ``inputs()`` makes
the next unit of work (a bulk-load cycle, a round, one SQL statement),
advances the oracle and returns the expected answers; it runs outside
the timed wall clock.  ``run()`` sends the unit through the public
``ddse`` API and checks every answer.  Only the generated ops cross
into the program.

Deletes follow the deletion-visibility rule of ``ddse.client``: a pair
is deleted only while no search of its keyword has surfaced its first
add, and a deleted pair is never added again.  Deleting a pair after a
search has surfaced it is unsupported by design, so that path is not
measured here.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from functools import partial

from ddse import client, query
from ddse import workload as wl
from ddse.client import ClientConfig
from ddse.edb import SearchOutcome


class Oracle:
    """Plaintext model of one encrypted index.

    ``counts[w][v]`` is the live copy count of pair (w, v).  ``fresh[w]``
    holds the values of ``w`` whose first add no search of ``w`` has
    surfaced yet: the only pairs that may be deleted.
    """

    def __init__(self):
        self.counts: dict[bytes, dict[bytes, int]] = {}
        self.fresh: dict[bytes, set[bytes]] = {}
        self.dead: set[tuple[bytes, bytes]] = set()

    def add(self, w: bytes, v: bytes) -> None:
        if (w, v) in self.dead:
            raise ValueError(f"re-add of deleted pair {w!r}/{v!r}")
        per = self.counts.setdefault(w, {})
        if v not in per:
            self.fresh.setdefault(w, set()).add(v)
        per[v] = per.get(v, 0) + 1

    def delete(self, w: bytes, v: bytes) -> None:
        if v not in self.fresh.get(w, ()):
            raise ValueError(f"delete of surfaced or absent pair {w!r}/{v!r}")
        self.fresh[w].discard(v)
        del self.counts[w][v]
        self.dead.add((w, v))

    def surface(self, w: bytes) -> None:
        self.fresh.pop(w, None)

    def distinct(self, w: bytes) -> set[bytes]:
        return set(self.counts.get(w, ()))

    def expanded(self, w: bytes) -> list[bytes]:
        """Values of ``w`` with multiplicity, in lexicographic order."""
        counts = self.counts.get(w, {})
        return [v for v in sorted(counts) for _ in range(counts[v])]

    def keywords(self) -> list[bytes]:
        return sorted(self.counts)


class DropFirstRetrieval:
    """Search transport that loses the first retrieval of every reply:
    a deliberately corrupted result for the negative control."""

    def __init__(self, edb):
        self.edb = edb

    def execute_search(self, request) -> SearchOutcome:
        outcome = self.edb.execute_search(request)
        return SearchOutcome(outcome.results[1:], outcome.purged)


def _op_name(kind: str) -> str:
    return client.ADD if kind == "add" else client.DELETE


class ProtocolWorkload:
    """Shared part of the two workloads that call ``ddse.client`` directly."""

    def __init__(self, seed: int):
        self.seed = seed
        self.oracle = Oracle()
        self.client_config = ClientConfig()
        self.state = None

    def setup(self, edb) -> None:
        self.state, _ = client.setup(self.client_config)

    def config(self) -> dict:
        return {"ClientConfig": asdict(self.client_config)}

    def run(self, unit, edb, rec) -> None:
        ops, searches = unit
        for kind, w, v in ops:
            rec.op("update", partial(client.update, self.state, _op_name(kind),
                                     w, v, edb), check=False)
            if kind == "add":
                rec.user_bytes += len(w) + len(v)
        for w, expected in searches:
            rec.op("search", partial(client.search, self.state, w, edb),
                   expected)

    def checks(self, edb) -> list[tuple]:
        """(op, expected) per keyword the oracle knows."""
        return [(partial(client.search, self.state, w, edb),
                 self.oracle.distinct(w)) for w in self.oracle.keywords()]


class Ingest(ProtocolWorkload):
    """Bulk-load cycles from ``ddse.workload.generate``, each followed by
    one verification search per keyword it touched.  Every cycle uses its
    own keyword names, so each search is a first-epoch search over the
    cycle's whole load."""

    name = "ingest"
    UNITS_PER_SECOND = 0.7
    # short cycles give many searches per run: search latency is steep
    # around its 90th percentile, where a thin sample moves it by ranks
    SPEC = wl.WorkloadSpec(keywords=200, updates=1500, duplicate_ratio=0.3,
                           delete_fraction=0.05, distribution=wl.DIST_ZIPF,
                           zipf_s=1.2)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cycle = 0

    def config(self) -> dict:
        spec = asdict(self.SPEC)
        spec.pop("seed")
        return {**super().config(), "cycle_spec": spec,
                "cycle_seed": "(seed << 20) | cycle"}

    def inputs(self):
        spec = wl.WorkloadSpec(**{**asdict(self.SPEC),
                                  "seed": (self.seed << 20) | self.cycle})
        prefix = b"c%05d/" % self.cycle
        self.cycle += 1
        ops = [(kind, prefix + w, v) for kind, w, v in wl.generate(spec)]
        for kind, w, v in ops:
            if kind == "add":
                self.oracle.add(w, v)
            else:
                self.oracle.delete(w, v)
        searches = []
        for w in sorted({w for _, w, _ in ops}):
            searches.append((w, self.oracle.distinct(w)))
            self.oracle.surface(w)
        return ops, searches


class SearchRevoked(ProtocolWorkload):
    """A few keywords, each searched after every round of updates.

    A round gives each keyword PER_ROUND updates: about 60% duplicates of
    live values, 10% deletes of pairs first added in that round, the rest
    fresh adds.  Every duplicate and delete is a revocation, so each
    search carries a heavily punctured key."""

    name = "search_revoked"
    UNITS_PER_SECOND = 1.8
    KEYWORDS = 6
    PER_ROUND = 100
    DUPLICATE = 0.6
    DELETE = 0.1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rng = random.Random(seed)
        self.words = [b"hot-keyword-%d" % i for i in range(self.KEYWORDS)]
        self.live: list[list[bytes]] = [[] for _ in self.words]
        self.next_value = 0

    def config(self) -> dict:
        return {**super().config(), "keywords": self.KEYWORDS,
                "updates_per_keyword_per_round": self.PER_ROUND,
                "duplicate_share": self.DUPLICATE,
                "delete_share": self.DELETE}

    def inputs(self):
        rng = self.rng
        order = [k for k in range(self.KEYWORDS) for _ in range(self.PER_ROUND)]
        rng.shuffle(order)
        fresh: list[list[bytes]] = [[] for _ in self.words]
        ops = []
        for k in order:
            w, r = self.words[k], rng.random()
            if r < self.DELETE and fresh[k]:
                v = fresh[k].pop(rng.randrange(len(fresh[k])))
                self.live[k].remove(v)
                self.oracle.delete(w, v)
                ops.append(("del", w, v))
                continue
            if r < self.DELETE + self.DUPLICATE and self.live[k]:
                v = rng.choice(self.live[k])
            else:
                v = b"%08d" % self.next_value
                self.next_value += 1
                self.live[k].append(v)
                fresh[k].append(v)
            self.oracle.add(w, v)
            ops.append(("add", w, v))
        searches = []
        for w in self.words:
            searches.append((w, self.oracle.distinct(w)))
            self.oracle.surface(w)
        return ops, searches


class MixedSql:
    """Reads beside writes through ``ddse.query`` over two indexes:
    Orders (customer -> order) and Items (order -> sku).

    A preload, part of set-up, gives every customer three to ten orders of
    one to three skus each.  Then zipf-distributed customers each issue one
    statement: half SELECT DISTINCT / SELECT / JOIN, half INSERT / DELETE.
    """

    name = "mixed_sql"
    UNITS_PER_SECOND = 300
    CUSTOMERS = 50
    # live orders per customer are capped, so JOIN fan-out of the most
    # popular customers does not grow without bound over a run
    MAX_ORDERS = 12
    SKUS = 500
    ZIPF_S = 1.2
    # cumulative shares of the statement kinds; JOINs are most of the
    # reads so that search latency percentiles sit inside one mode
    MIX = (("join", 0.30), ("orders", 0.40), ("items", 0.50),
           ("delete", 0.62), ("new_order", 0.70), ("add_item", 1.0))

    ORDERS = query.TableConfig("Orders", "Orders.customer", "Orders.order")
    ITEMS = query.TableConfig("Items", "Items.order", "Items.sku")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.orders, self.items = Oracle(), Oracle()
        self.customer_orders: dict[bytes, list[bytes]] = {}
        self.weights = [1.0 / (r + 1) ** self.ZIPF_S
                        for r in range(self.CUSTOMERS)]
        self.next_order = 0
        self.registry = None
        self.preload = []
        # the preload's shape is fixed and only sku names come from the
        # seed: how many orders the most popular customers start with
        # sets JOIN fan-out, so it must not vary between seeds
        for i in range(self.CUSTOMERS):
            c = self._customer(i)
            for j in range(3 + (5 * i) % 8):
                o = self._new_order(c)
                self.preload.append(self._insert(self.ORDERS, c, o))
                for sku in self.rng.sample(range(self.SKUS), 1 + (i + j) % 3):
                    self.items.add(o, b"sku-%04d" % sku)
                    self.preload.append(
                        self._insert(self.ITEMS, o, b"sku-%04d" % sku))

    def config(self) -> dict:
        return {"TableConfig": [asdict(self.ORDERS), asdict(self.ITEMS)],
                "register": {"sigma_depth": 20, "revoke_p": 1e-3},
                "customers": self.CUSTOMERS, "skus": self.SKUS,
                "zipf_s": self.ZIPF_S, "statement_mix": dict(self.MIX),
                "preload_statements": len(self.preload)}

    @staticmethod
    def _customer(i: int) -> bytes:
        return b"cust-%04d" % i

    def _new_order(self, c: bytes) -> bytes:
        o = b"o%06d" % self.next_order
        self.next_order += 1
        self.orders.add(c, o)
        self.customer_orders.setdefault(c, []).append(o)
        return o

    @staticmethod
    def _insert(table: query.TableConfig, w: bytes, v: bytes) -> str:
        return (f"INSERT INTO {table.table} ({table.keyword_column}, "
                f"{table.value_column}) VALUE ('{w.decode()}', '{v.decode()}')")

    @staticmethod
    def _select(table: query.TableConfig, w: bytes, distinct: bool) -> str:
        head = "SELECT DISTINCT" if distinct else "SELECT"
        return (f"{head} {table.value_column} FROM {table.table} "
                f"WHERE {table.keyword_column} = '{w.decode()}'")

    def setup(self, edb) -> None:
        self.registry = query.Registry()
        self.registry.register(self.ORDERS)
        self.registry.register(self.ITEMS)
        for statement in self.preload:
            query.exec_statement(self.registry, statement, edb)

    def _items_sku(self, o: bytes) -> bytes:
        while True:
            sku = b"sku-%04d" % self.rng.randrange(self.SKUS)
            if (o, sku) not in self.items.dead:
                return sku

    def inputs(self):
        """(statement, kind, expected, join fanout, user bytes added)."""
        rng = self.rng
        c = self._customer(rng.choices(range(self.CUSTOMERS), self.weights)[0])
        r = rng.random()
        kind = next(k for k, share in self.MIX if r < share)
        live = self.customer_orders.get(c, [])
        if kind == "delete":
            candidates = [(self.ORDERS, self.orders, c, o)
                          for o in sorted(self.orders.fresh.get(c, ()))]
            candidates += [(self.ITEMS, self.items, o, sku) for o in live
                           for sku in sorted(self.items.fresh.get(o, ()))]
            if not candidates:
                kind = "add_item"
            else:
                table, oracle, w, v = rng.choice(candidates)
                oracle.delete(w, v)
                if oracle is self.orders:
                    live.remove(v)
                return (f"DELETE FROM {table.table} WHERE "
                        f"{table.keyword_column} = '{w.decode()}' AND "
                        f"{table.value_column} = '{v.decode()}'",
                        "update", None, 0, 0)
        if kind == "new_order" and len(live) >= self.MAX_ORDERS:
            kind = "add_item"
        if kind in ("items", "add_item") and not live:
            kind = "orders" if kind == "items" else "new_order"
        if kind == "new_order":
            o = self._new_order(c)
            return (self._insert(self.ORDERS, c, o), "update", None, 0,
                    len(c) + len(o))
        if kind == "add_item":
            o = rng.choice(live)
            sku = self._items_sku(o)
            self.items.add(o, sku)
            return (self._insert(self.ITEMS, o, sku), "update", None, 0,
                    len(o) + len(sku))
        if kind == "orders":
            expected = self.orders.distinct(c)
            self.orders.surface(c)
            return self._select(self.ORDERS, c, True), "search", expected, 0, 0
        if kind == "items":
            o = rng.choice(live)
            expected = self.items.expanded(o)
            self.items.surface(o)
            return self._select(self.ITEMS, o, False), "search", expected, 0, 0
        stage1 = self.orders.expanded(c)
        expected = [sku for o in stage1 for sku in self.items.expanded(o)]
        self.orders.surface(c)
        for o in stage1:
            self.items.surface(o)
        return (f"SELECT Items.sku FROM Orders JOIN Items ON Orders.order = "
                f"Items.order WHERE Orders.customer = '{c.decode()}'",
                "join", expected, len(stage1), 0)

    def run(self, unit, edb, rec) -> None:
        statement, kind, expected, fanout, user_bytes = unit
        rec.op(kind, partial(query.exec_statement, self.registry, statement,
                             edb), expected, check=kind != "update")
        if kind == "join":
            rec.join_fanout.append(fanout)
        rec.user_bytes += user_bytes

    def checks(self, edb) -> list[tuple]:
        out = []
        for table, oracle in ((self.ORDERS, self.orders),
                              (self.ITEMS, self.items)):
            for w in oracle.keywords():
                out.append((partial(query.exec_statement, self.registry,
                                    self._select(table, w, True), edb),
                            oracle.distinct(w)))
        return out


WORKLOADS = {w.name: w for w in (Ingest, SearchRevoked, MixedSql)}
