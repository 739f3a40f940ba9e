"""The names the benchmark's tracer wraps still exist, and its wrappers
run and come off cleanly.

``ddsebench/tracing.py`` patches ``ddse`` attributes by name, so a
rename or deletion here (``ggm.PathCache.leaf``, ``sre.SubkeyStore.leaf``
among them) would crash a traced benchmark run.  The module is loaded
from its file, read-only, and driven through one add, one duplicate, a
full search and a token-only search.
"""

import importlib.util
from pathlib import Path

import pytest

from ddse import client as cl, wire
from ddse.client import ClientConfig

_TRACING = Path(__file__).resolve().parent.parent / "ddsebench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("ddsebench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


class RecordingPatches(tracing.Patches):
    """Patches that also remember each attribute as it was."""

    def __init__(self, tracer):
        super().__init__(tracer)
        self.originals = []

    def set(self, owner, attr, value):
        self.originals.append((owner, attr, owner.__dict__[attr]))
        super().set(owner, attr, value)


def search_through_the_codec(state, keyword, edb, token_only):
    request = cl.search_client_token(state, keyword)
    assert request.token_only == token_only
    body = wire.encode_search_body(request)
    outcome = edb.execute_search(wire.decode_search_body(body))
    return cl.search_finalize(state, outcome.results)


@pytest.mark.parametrize("install", ["instrument_client",
                                     "instrument_server"])
def test_tracer_patches_install_run_and_undo(install):
    tracer = tracing.Tracer()
    patches = RecordingPatches(tracer)
    try:
        getattr(tracing, install)(patches)
        assert patches.originals
        state, edb = cl.setup(ClientConfig(bf_n=1024, d_max=64,
                                           sigma_depth=10))
        for _ in range(2):  # a first add, then a duplicate
            cl.update(state, cl.ADD, b"w", b"v", edb)
        assert search_through_the_codec(state, b"w", edb, False) == {b"v"}
        assert search_through_the_codec(state, b"w", edb, True) == {b"v"}
    finally:
        patches.undo()
    for owner, attr, original in patches.originals:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert {"ggm.puncture", "sre.enc", "sre.dec"} <= {
        span[0] for span in tracer.spans}
    if install == "instrument_server":
        counts = tracing.summarize(tracer.spans, tracer.counts)["counts"]
        assert counts["wire.search_frames"] == 2
