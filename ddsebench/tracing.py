"""In-process span tracer and the wrappers that attach it to ``ddse``.

Spans are recorded from the benchmark's own files: each wrapped public
function (or generator step) of a layer opens a span on entry and closes
it on exit.  A span is ``[name, start, end, parent, request]``; the
request id is the sequence number of the frame on the single, strictly
sequential client connection, so client and server spans of one request
share it without any protocol change.  Spans stay in memory and are
written once, when the run ends.

A layer's self time is its total time minus the time its child spans
cover.  Besides spans, the tracer keeps counters (``count``) for work
that has no duration of its own -- cover nodes, leaves, purged entries,
log bytes -- each tagged with its request id, so a summary can skip the
set-up requests that precede the timed phase.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self, request: int = 0):
        self.spans: list[list] = []
        self.counts: list[tuple] = []       # (name, request, amount)
        self._stack: list[int] = []
        self.request = request

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.request])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts.append((name, self.request, amount))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def summarize(spans, counts, from_request: int = 0) -> dict:
    """Per span name: calls, total seconds and self seconds; per counter:
    its sum.  Only spans and counts of requests >= ``from_request``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, request in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, request) in enumerate(spans):
        if request < from_request:
            continue
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
    totals: dict[str, float] = defaultdict(float)
    for name, request, amount in counts:
        if request >= from_request:
            totals[name] += amount
    return {"spans": out, "counts": dict(totals)}


def write_spans(path: str, sides: dict) -> None:
    """All spans of every side as gzip'd JSON lines, one span per line."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for side, spans in sides.items():
            for name, start, end, parent, request in spans:
                fh.write(json.dumps({"side": side, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent,
                                     "request": request}) + "\n")


class Patches:
    """Attribute replacements that ``undo`` puts back in reverse order."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in a span; ``after(tracer, args, result)``
        records counters from the call's arguments and result."""
        tracer = self.tracer
        inner = owner.__dict__[attr]

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(tracer, args, result)
            return result

        self.set(owner, attr, wrapper)

    def generator(self, owner, attr: str, name: str) -> None:
        """Wrap a generator method: one span per step, so time spent
        inside the generator is separated from its consumer's."""
        tracer = self.tracer
        inner = owner.__dict__[attr]

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            steps = inner(*args, **kwargs)
            while True:
                tracer.begin(name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    tracer.end()
                tracer.count(name + ".items")
                yield item

        self.set(owner, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# -- the layers -------------------------------------------------------------

def _count_puncture(tracer, args, key):
    tracer.count("ggm.puncture.nodes", len(key.nodes))


def _count_finalize(tracer, args, values):
    tracer.count("client.search_finalize.retrievals", len(args[1]))


def _count_dec(tracer, args, value):
    if value is not None:
        tracer.count("sre.dec.useful")


def instrument_common(patches: Patches) -> None:
    """Layers that run on both sides of the wire."""
    from ddse import bloom, ggm, sre, wire
    patches.span(bloom.BloomFilter, "positions", "bloom.positions")
    patches.span(ggm.GgmRoot, "eval", "ggm.eval")
    patches.span(ggm.PathCache, "leaf", "ggm.path_leaf")
    patches.span(ggm.GgmRoot, "puncture", "ggm.puncture",
                 after=_count_puncture)
    patches.span(ggm.DelegatedKey, "eval", "ggm.key_eval")
    patches.generator(ggm.DelegatedKey, "iter_leaves", "ggm.iter_leaves")
    patches.span(sre, "enc", "sre.enc")
    patches.span(sre, "ck_rev", "sre.ck_rev")
    patches.span(sre, "dec", "sre.dec", after=_count_dec)
    patches.span(sre.SubkeyStore, "leaf", "sre.subkey_leaf")
    for name in ("encode_update_body", "decode_update_body",
                 "encode_search_body", "encode_result_body",
                 "decode_result_body"):
        patches.span(wire, name, "wire." + name)


def instrument_client(patches: Patches) -> None:
    """Client process: protocol, placement, transport and query layers.

    ``RemoteEdb`` calls advance the request id: HELLO is request 0 and
    every later call sends exactly one frame, as the server counts them.
    """
    from ddse import client, fpdse, netclient, query
    tracer = patches.tracer
    instrument_common(patches)
    patches.span(client, "update", "client.update")
    patches.span(client, "search_client_token", "client.search_client_token")
    patches.span(client, "search_finalize", "client.search_finalize",
                 after=_count_finalize)
    patches.span(fpdse.SigmaState, "update", "fpdse.update")
    patches.span(query, "plan", "query.plan")
    patches.span(query, "execute", "query.execute")

    for attr, name in (("apply_update", "netclient.update_roundtrip"),
                       ("execute_search", "netclient.search_roundtrip")):
        inner = netclient.RemoteEdb.__dict__[attr]

        def roundtrip(self, *args, _inner=inner, _name=name):
            tracer.request += 1
            tracer.begin(_name)
            try:
                return _inner(self, *args)
            finally:
                tracer.end()

        patches.set(netclient.RemoteEdb, attr, roundtrip)


# a DEL log record: [4-byte length][type byte + 32-byte address][4-byte CRC],
# the layout documented in ddse.store
DEL_RECORD_BYTES = 4 + 1 + 32 + 4


def instrument_server(patches: Patches) -> None:
    """Server process: frame reads, store, database and fsync.

    Every ``read_frame`` call advances the request id, so the tracer must
    start at -1 for HELLO to be request 0.  ``server.idle`` is the time
    spent inside ``read_frame``; ``server.handle.<type>`` runs from its
    return to the next call, so it covers decode, store work and reply.
    One connection is assumed.
    """
    import os

    from ddse import edb, fpdse, store, wire
    tracer = patches.tracer
    instrument_common(patches)
    patches.generator(fpdse.SearchTokenSigma, "addresses", "fpdse.addresses")
    patches.span(os, "fsync", "store.fsync")

    read_frame = wire.read_frame
    handling = []

    def traced_read_frame(stream):
        if handling:
            handling.pop()
            tracer.end()
        tracer.request += 1
        tracer.begin("server.idle")
        try:
            ftype, body = read_frame(stream)
        finally:
            tracer.end()
        tracer.begin("server.handle." + wire.type_name(ftype).lower())
        handling.append(ftype)
        return ftype, body

    patches.set(wire, "read_frame", traced_read_frame)

    inner_execute = edb.EncryptedDatabase.__dict__["execute_search"]

    def traced_execute_search(self, request):
        tracer.count("edb.execute_search.entries", request.sigma_token.count)
        tracer.count("edb.cache_fold.retrievals",
                     len(self.cache.get(request.tkn, ())))
        tracer.begin("edb.execute_search")
        try:
            outcome = inner_execute(self, request)
        finally:
            tracer.end()
        tracer.count("edb.execute_search.purged", len(outcome.purged))
        return outcome

    patches.set(edb.EncryptedDatabase, "execute_search", traced_execute_search)

    def logged(attr, name, account):
        inner = store.PersistentStore.__dict__[attr]

        def wrapper(self, *args):
            before = os.path.getsize(self.log_path)
            tracer.begin(name)
            try:
                result = inner(self, *args)
            finally:
                tracer.end()
            account(os.path.getsize(self.log_path) - before, result)
            return result

        patches.set(store.PersistentStore, attr, wrapper)

    def account_put(grown, _):
        tracer.count("store.log_bytes.put", grown)

    def account_search(grown, outcome):
        dels = DEL_RECORD_BYTES * len(outcome.purged)
        tracer.count("store.log_bytes.del", dels)
        tracer.count("store.log_bytes.cache", grown - dels)

    logged("apply_update", "store.apply_update", account_put)
    logged("execute_search", "store.execute_search", account_search)

    patches.span(wire, "decode_search_body", "wire.decode_search_body",
                 after=_count_search_bytes)


def _count_search_bytes(tracer, args, request):
    """Split of one SEARCH body: cache token, the punctured key's header,
    node shapes (plen + prefix) and seeds, the revocation filter and the
    placement token."""
    key = request.revoked_key.key
    tracer.count("wire.search_frames")
    tracer.count("wire.search_token_bytes", len(request.tkn))
    tracer.count("wire.search_key_header_bytes",
                 key.encoded_size - sum(5 + len(n.seed) for n in key.nodes))
    tracer.count("wire.search_key_shape_bytes", 5 * len(key.nodes))
    tracer.count("wire.search_key_seed_bytes",
                 sum(len(n.seed) for n in key.nodes))
    tracer.count("wire.search_filter_bytes",
                 request.revoked_key.filter.encoded_size)
    tracer.count("wire.search_placement_bytes",
                 len(request.sigma_token.label_id)
                 + request.sigma_token.key.encoded_size)
