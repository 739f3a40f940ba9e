"""Benchmark server: one ``ddse.server.Server`` over a ``PersistentStore``.

    python3 ddsebench/serve.py --stats FILE [--spans FILE]

Boots, imports the server modules and prints ``ready``.  It then reads
a store directory from its standard input, opens (and so recovers) that
store, binds a loopback port and prints ``port <n>``, so that the
caller can time store recovery without the interpreter's start-up.  It
serves until its standard input closes, then stops the server, closes
the store and writes FILE as JSON: the store open time, its own peak
RSS and a tally of SEARCH request and search RESULT frame bytes.  The
tally only takes ``len`` of frames the server reads and encodes anyway.
With ``--spans`` the store, database, SRE, GGM, wire and fsync layers
are traced and the spans written to that file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

FRAME_HEADER = 5  # 4-byte length + 1-byte type, as ddse.wire lays it out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from ddse import server, store, wire

    tracer = patches = None
    if args.spans:
        from tracing import Patches, Tracer, instrument_server
        tracer = Tracer(request=-1)
        patches = Patches(tracer)
        instrument_server(patches)

    tally = Counter()
    read_frame, encode_result_body = wire.read_frame, wire.encode_result_body

    def tallied_read_frame(stream):
        ftype, body = read_frame(stream)
        if ftype == wire.SEARCH:
            tally["search_frames"] += 1
            tally["search_request_bytes"] += FRAME_HEADER + len(body)
        return ftype, body

    def tallied_encode_result_body(retrievals):
        body = encode_result_body(retrievals)
        tally["result_frames"] += 1
        tally["search_response_bytes"] += FRAME_HEADER + len(body)
        return body

    wire.read_frame = tallied_read_frame
    wire.encode_result_body = tallied_encode_result_body

    print("ready", flush=True)
    store_dir = sys.stdin.readline().strip()
    if not store_dir:
        return 1
    t0 = time.perf_counter()
    db = store.PersistentStore(store_dir)
    open_s = time.perf_counter() - t0
    srv = server.serve(db)
    try:
        print(f"port {srv.address[1]}", flush=True)
        sys.stdin.read()
    finally:
        srv.stop()
        db.close()
    stats = {
        "open_s": open_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tally": dict(tally),
    }
    if tracer is not None:
        patches.undo()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
