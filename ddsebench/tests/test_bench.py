"""Checks of the benchmark itself: byte accounting, oracle and negative
control, span bookkeeping, and the run's output contract.

    python3 -m pytest ddsebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ddse import client, wire
from ddse.client import ClientConfig
from ddse.netclient import RemoteEdb
from harness import Recorder, ServerProcess, tree_bytes
from layers import PER_LAYER
from tracing import Patches, Tracer, summarize
from workloads import DropFirstRetrieval, Oracle

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SMALL = ClientConfig(bf_n=1024, d_max=64, sigma_depth=10)


class Recording:
    """Transport that keeps every search request and reply it relays."""

    def __init__(self, edb):
        self.edb = edb
        self.searches = []

    def apply_update(self, address, payload):
        self.edb.apply_update(address, payload)

    def execute_search(self, request):
        outcome = self.edb.execute_search(request)
        self.searches.append((request, outcome))
        return outcome


def _traffic(edb):
    state, _ = client.setup(SMALL)
    for i in range(40):
        client.update(state, client.ADD, b"w%d" % (i % 3), b"v%d" % (i % 7), edb)
    client.update(state, client.DELETE, b"w0", b"v3", edb)
    for w in (b"w0", b"w1", b"w2", b"w0"):
        client.search(state, w, edb)


@pytest.mark.parametrize("traced", [False, True])
def test_byte_tallies_match_frames_and_log(tmp_path, traced):
    spans = tmp_path / "spans.json" if traced else None
    server = ServerProcess(tmp_path / "stats.json", spans)
    try:
        store = tmp_path / "store"
        edb = Recording(RemoteEdb("127.0.0.1", server.open(store)))
        _traffic(edb)
        edb.edb.close()
        stats = server.stop()
    finally:
        server.kill()
    frames = [len(wire.pack_frame(wire.SEARCH, wire.encode_search_body(r)))
              for r, _ in edb.searches]
    replies = [len(wire.pack_frame(wire.RESULT,
                                   wire.encode_result_body(o.results)))
               for _, o in edb.searches]
    tally = stats["tally"]
    assert tally["search_frames"] == len(frames) == tally["result_frames"]
    assert tally["search_request_bytes"] == sum(frames)
    assert tally["search_response_bytes"] == sum(replies)
    log_size = (store / "log").stat().st_size
    assert tree_bytes(store) == log_size
    if traced:
        counts = summarize(stats["trace"]["spans"],
                           stats["trace"]["counts"])["counts"]
        assert (counts["store.log_bytes.put"] + counts["store.log_bytes.del"]
                + counts["store.log_bytes.cache"]) == log_size
        assert counts["store.log_bytes.del"] > 0
        split = sum(counts[f"wire.search_{part}_bytes"] for part in
                    ("token", "key_header", "key_shape", "key_seed",
                     "filter", "placement"))
        assert split == sum(frames) - 5 * len(frames)
        assert counts["wire.search_key_shape_bytes"] == 5 * sum(
            len(r.revoked_key.key.nodes) for r, _ in edb.searches)


def test_oracle_enforces_the_deletion_visibility_rule():
    oracle = Oracle()
    oracle.add(b"w", b"a")
    oracle.add(b"w", b"b")
    oracle.add(b"w", b"b")
    oracle.delete(b"w", b"b")
    with pytest.raises(ValueError):
        oracle.add(b"w", b"b")        # never re-add a deleted pair
    oracle.surface(b"w")
    with pytest.raises(ValueError):
        oracle.delete(b"w", b"a")     # its first add has been searched
    oracle.add(b"w", b"c")
    assert oracle.distinct(b"w") == {b"a", b"c"}
    oracle.delete(b"w", b"c")
    assert oracle.expanded(b"w") == [b"a"]


def test_recorder_counts_errors_and_wrong_answers():
    rec = Recorder()
    assert rec.op("search", lambda: {b"x"}, {b"x"})
    assert not rec.op("search", lambda: {b"y"}, {b"x"})
    assert not rec.op("update", lambda: 1 / 0, check=False)
    assert (rec.attempted, rec.failed) == (3, 2)
    assert len(rec.latency["search"]) == 2 and not rec.latency["update"]


def test_negative_control_counts_a_corrupted_result():
    from ddse.edb import EncryptedDatabase
    edb = EncryptedDatabase()
    state, _ = client.setup(SMALL)
    for v in (b"a", b"b", b"c"):
        client.update(state, client.ADD, b"w", v, edb)
    rec = Recorder()
    assert rec.op("search", lambda: client.search(state, b"w", edb),
                  {b"a", b"b", b"c"})
    assert not rec.op("search", lambda: client.search(
        state, b"w", DropFirstRetrieval(edb)), {b"a", b"b", b"c"})
    assert rec.failed == 1


def test_self_time_generator_steps_and_request_filter():
    class Layer:
        def outer(self):
            self.inner()
            return list(self.steps())

        def inner(self):
            return 1

        def steps(self):
            yield 1
            yield 2

    tracer = Tracer()
    patches = Patches(tracer)
    patches.span(Layer, "outer", "outer")
    patches.span(Layer, "inner", "inner")
    patches.generator(Layer, "steps", "steps")
    layer = Layer()
    layer.outer()
    tracer.request = 1
    assert layer.outer() == [1, 2]
    patches.undo()
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer,
                                                           "__wrapped__")
    everything = summarize(tracer.spans, tracer.counts)["spans"]
    assert everything["outer"]["calls"] == 2
    assert everything["steps"]["calls"] == 6    # two items + exhaustion, x2
    outer = summarize(tracer.spans, tracer.counts, from_request=1)["spans"]
    assert outer["outer"]["calls"] == 1
    row = outer["outer"]
    children = outer["inner"]["s"] + outer["steps"]["s"]
    assert row["self_s"] == pytest.approx(row["s"] - children)
    assert summarize(tracer.spans, tracer.counts, 1)["counts"] == {
        "steps.items": 2}


def _run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "ddsebench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def _contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_harness_metrics():
    spec = _contract()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == {
        "ingest", "search_revoked", "mixed_sql"}
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", ["ingest", "search_revoked", "mixed_sql"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_and_no_failures(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    group = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in _contract()[group]}
    for metric in _contract()[group]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        if group == "end_to_end":
            assert value["value"] > 0
    if trace == "1":
        metrics = result["metrics"]
        assert metrics["trace.unjoined_requests"]["value"] == 0
        assert metrics["trace.joined_requests"]["value"] > 0
    assert "negative control counted: True" in out.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "ddsebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "ingest", "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
