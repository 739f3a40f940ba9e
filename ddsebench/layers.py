"""Per-layer metrics of the traced run, and the end-to-end metric each
one should move, on which workload.

Client-side spans come from ``tracing.instrument_client``, server-side
ones from ``tracing.instrument_server`` in ``serve.py``.  Times are
seconds summed over the timed phase of the traced leg; ``self_s`` is a
span's time minus its traced children.  Byte splits are per SEARCH
frame.  Only requests of the timed phase count, not set-up.
"""

from __future__ import annotations

from tracing import summarize

# name, unit, better, the end-to-end metric (and workload) it should move
PER_LAYER = [
    ("client.update.self_s", "s", "lower", "update_p50_ms on ingest"),
    ("bloom.positions.calls", "count", "lower", "update_p50_ms on ingest"),
    ("bloom.positions.s", "s", "lower", "update_p50_ms on ingest"),
    ("bloom.positions.server_calls", "count", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("bloom.positions.server_s", "s", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("ggm.eval.calls", "count", "lower", "update_ops_per_s on ingest"),
    ("ggm.eval.s", "s", "lower", "update_ops_per_s on ingest"),
    ("sre.enc.calls", "count", "lower", "update_ops_per_s on ingest"),
    ("sre.enc.self_s", "s", "lower", "update_ops_per_s on ingest"),
    ("ggm.path_leaf.s", "s", "lower", "update_ops_per_s on ingest"),
    ("fpdse.update.self_s", "s", "lower", "update_ops_per_s on ingest"),
    ("ggm.puncture.s", "s", "lower", "search_p50_ms on search_revoked"),
    ("ggm.puncture.nodes", "count", "lower", "search_p50_ms on search_revoked"),
    ("sre.ck_rev.self_s", "s", "lower", "search_p50_ms on search_revoked"),
    ("client.search_client_token.s", "s", "lower",
     "search_p50_ms on search_revoked"),
    ("wire.search_token_bytes", "B", "lower",
     "search_request_bytes on search_revoked"),
    ("wire.search_key_header_bytes", "B", "lower",
     "search_request_bytes on search_revoked"),
    ("wire.search_key_shape_bytes", "B", "lower",
     "search_request_bytes on search_revoked"),
    ("wire.search_key_seed_bytes", "B", "lower",
     "search_request_bytes on search_revoked"),
    ("wire.search_filter_bytes", "B", "lower",
     "search_request_bytes on search_revoked"),
    ("wire.search_placement_bytes", "B", "lower",
     "search_request_bytes on search_revoked"),
    ("wire.encode_search_body.s", "s", "lower",
     "search_p50_ms on search_revoked"),
    ("wire.decode_search_body.s", "s", "lower",
     "search_p50_ms on search_revoked"),
    ("sre.dec.calls", "count", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("sre.dec.self_s", "s", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("sre.dec.useful_ratio", "ratio", "higher",
     "search_p50_ms on search_revoked and ingest"),
    ("sre.subkey_leaf.calls", "count", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("sre.subkey_leaf.s", "s", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("ggm.key_eval.calls", "count", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("ggm.key_eval.s", "s", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("edb.execute_search.self_s", "s", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("edb.execute_search.entries", "count", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("edb.execute_search.purged", "count", "lower",
     "search_p50_ms on search_revoked and ingest"),
    ("ggm.iter_leaves.s", "s", "lower", "search_p90_ms on ingest"),
    ("ggm.iter_leaves.leaves", "count", "lower", "search_p90_ms on ingest"),
    ("fpdse.addresses.s", "s", "lower", "search_p90_ms on ingest"),
    ("client.search_finalize.s", "s", "lower",
     "search_p50_ms and join_p50_ms on mixed_sql"),
    ("client.search_finalize.retrievals", "count", "lower",
     "search_p50_ms and join_p50_ms on mixed_sql"),
    ("wire.encode_result_body.s", "s", "lower",
     "search_p50_ms and join_p50_ms on mixed_sql"),
    ("wire.decode_result_body.s", "s", "lower",
     "search_p50_ms and join_p50_ms on mixed_sql"),
    ("edb.cache_fold.retrievals", "count", "lower",
     "search_p50_ms and join_p50_ms on mixed_sql"),
    ("store.apply_update.s", "s", "lower", "update_p99_ms on every workload"),
    ("store.apply_update.self_s", "s", "lower",
     "update_p99_ms on every workload"),
    ("store.fsync.calls", "count", "lower", "update_p99_ms on every workload"),
    ("store.fsync.s", "s", "lower", "update_p99_ms on every workload"),
    ("wire.encode_update_body.s", "s", "lower",
     "update_p99_ms on every workload"),
    ("wire.decode_update_body.s", "s", "lower",
     "update_p99_ms on every workload"),
    ("store.execute_search.self_s", "s", "lower", "join_p50_ms on mixed_sql"),
    ("store.log_bytes.put", "B", "lower", "wal_bytes_per_user_byte"),
    ("store.log_bytes.del", "B", "lower", "wal_bytes_per_user_byte"),
    ("store.log_bytes.cache", "B", "lower",
     "wal_bytes_per_user_byte, highest share on mixed_sql"),
    ("store.recover.s", "s", "lower", "recovery_s"),
    ("netclient.update_roundtrip.s", "s", "lower", "update_p50_ms on ingest"),
    ("netclient.search_roundtrip.s", "s", "lower", "join_p50_ms on mixed_sql"),
    ("netclient.transit_s", "s", "lower",
     "update_p50_ms on ingest and join_p50_ms on mixed_sql"),
    ("server.handle.update.s", "s", "lower", "update_p50_ms on ingest"),
    ("server.handle.search.s", "s", "lower", "join_p50_ms on mixed_sql"),
    ("server.idle_s", "s", "lower",
     "update_p50_ms on ingest and join_p50_ms on mixed_sql"),
    ("query.plan.s", "s", "lower", "join_p50_ms and ops_per_s on mixed_sql"),
    ("query.execute.self_s", "s", "lower",
     "join_p50_ms and ops_per_s on mixed_sql"),
    ("query.join_fanout", "count", "lower",
     "join_p50_ms and ops_per_s on mixed_sql"),
    ("trace.joined_requests", "count", "higher", "(span join coverage)"),
    ("trace.unjoined_requests", "count", "lower", "(span join coverage)"),
    ("trace.ops_per_s", "1/s", "higher", "(tracing overhead)"),
    ("trace.untraced_ops_per_s", "1/s", "higher", "(tracing overhead)"),
    ("trace.overhead_ratio", "ratio", "lower", "(tracing overhead)"),
]

def _roundtrips(spans, from_request: int, names) -> dict[int, float]:
    """Request id -> duration of its span named one of ``names``."""
    out = {}
    for name, start, end, parent, request in spans:
        if request >= from_request and name in names:
            out[request] = end - start
    return out


def per_layer(plain: dict, traced: dict) -> dict:
    """Every PER_LAYER metric: name -> (value, unit, samples)."""
    trace = traced["trace"]
    first = trace["from_request"]
    client = summarize(trace["client"]["spans"], trace["client"]["counts"],
                       first)
    server = summarize(trace["server"]["spans"], trace["server"]["counts"],
                       first)

    def span(side, name, field):
        return side["spans"].get(name, {}).get(field, 0)

    def count(side, name):
        return side["counts"].get(name, 0)

    searches = count(server, "wire.search_frames")
    dec_calls = span(server, "sre.dec", "calls")
    values = {
        "bloom.positions.server_calls": span(server, "bloom.positions", "calls"),
        "bloom.positions.server_s": span(server, "bloom.positions", "s"),
        "ggm.puncture.nodes": count(client, "ggm.puncture.nodes"),
        "client.search_finalize.retrievals":
            count(client, "client.search_finalize.retrievals"),
        "sre.dec.useful_ratio":
            count(server, "sre.dec.useful") / dec_calls if dec_calls else 0,
        "ggm.iter_leaves.leaves": count(server, "ggm.iter_leaves.items"),
        "store.recover.s": traced["restart_stats"]["open_s"],
        "server.idle_s": span(server, "server.idle", "s"),
    }
    for name in ("edb.execute_search.entries", "edb.execute_search.purged",
                 "edb.cache_fold.retrievals", "store.log_bytes.put",
                 "store.log_bytes.del", "store.log_bytes.cache"):
        values[name] = count(server, name)
    for name in ("token", "key_header", "key_shape", "key_seed", "filter",
                 "placement"):
        key = f"wire.search_{name}_bytes"
        values[key] = count(server, key) / searches if searches else 0

    # a layer runs on one side only, except bloom.positions (both, above)
    for name, unit, _, _ in PER_LAYER:
        if name in values or name.startswith("trace."):
            continue
        base, _, field = name.rpartition(".")
        side = client if base in client["spans"] else server
        values[name] = span(side, base, field)

    client_rt = _roundtrips(trace["client"]["spans"], first,
                            ("netclient.update_roundtrip",
                             "netclient.search_roundtrip"))
    server_rt = _roundtrips(trace["server"]["spans"], first,
                            ("server.handle.update", "server.handle.search"))
    joined = client_rt.keys() & server_rt.keys()
    values["netclient.transit_s"] = sum(client_rt[r] - server_rt[r]
                                        for r in joined)
    fanout = traced["rec"].join_fanout
    values["query.join_fanout"] = sum(fanout) / len(fanout) if fanout else 0
    values["trace.joined_requests"] = len(joined)
    values["trace.unjoined_requests"] = len(client_rt.keys()
                                            ^ server_rt.keys())
    plain_rate = _ops_per_s(plain)
    traced_rate = _ops_per_s(traced)
    values["trace.ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = plain_rate
    values["trace.overhead_ratio"] = plain_rate / traced_rate

    samples = {
        "query.join_fanout": f"{len(fanout)} joins",
        "netclient.transit_s": f"{len(joined)} joined requests",
        "trace.overhead_ratio": f"{traced['units']} identical units per leg",
    }
    return {name: (values[name], unit,
                   "; ".join(filter(None, (samples.get(name), "moves " + target))))
            for name, unit, _, target in PER_LAYER}


def _ops_per_s(result: dict) -> float:
    rec = result["rec"]
    return (rec.attempted - rec.failed) / result["wall_s"]
