"""Workload generator invariants."""

import pytest

from ddse import client as cl, workload as wl
from ddse.client import ClientConfig
from ddse.workload import WorkloadSpec, distinct_sets, generate


def live_counts(ops):
    """Plaintext reference: live copy count per (keyword, value)."""
    counts = {}
    for kind, w, v in ops:
        per = counts.setdefault(w, {})
        if kind == "add":
            per[v] = per.get(v, 0) + 1
        else:
            per.pop(v, None)
    return counts


def test_generation_is_deterministic():
    spec = WorkloadSpec(keywords=5, updates=300, seed=42)
    assert generate(spec) == generate(spec)
    assert generate(spec) != generate(WorkloadSpec(keywords=5, updates=300,
                                                   seed=43))


@pytest.mark.parametrize("kwargs", [
    dict(keywords=0),
    dict(updates=-1),
    dict(duplicate_ratio=1.5),
    dict(delete_fraction=1.0),
    dict(distribution="pareto"),
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        WorkloadSpec(**kwargs)


def test_never_readds_a_deleted_pair():
    ops = generate(WorkloadSpec(keywords=4, updates=2000, seed=9,
                                delete_fraction=0.3, duplicate_ratio=0.4))
    deleted = set()
    for kind, w, v in ops:
        if kind == "del":
            deleted.add((w, v))
        else:
            assert (w, v) not in deleted
    assert deleted, "workload exercised no deletes"


def test_deletes_only_target_live_pairs():
    ops = generate(WorkloadSpec(keywords=4, updates=1000, seed=3,
                                delete_fraction=0.25))
    live = {}
    for kind, w, v in ops:
        if kind == "add":
            live.setdefault(w, {})[v] = live.get(w, {}).get(v, 0) + 1
        else:
            assert live.get(w, {}).get(v, 0) > 0
            live[w].pop(v)


def test_reference_views_agree():
    ops = generate(WorkloadSpec(keywords=6, updates=800, seed=5,
                                delete_fraction=0.2))
    sets = distinct_sets(ops)
    counts = live_counts(ops)
    for w, values in sets.items():
        assert set(counts.get(w, {})) == values


def test_zipf_skews_toward_low_ranks():
    ops = generate(WorkloadSpec(keywords=10, updates=3000, seed=1,
                                distribution=wl.DIST_ZIPF, zipf_s=1.3,
                                delete_fraction=0.0))
    hits = {}
    for _, w, _v in ops:
        hits[w] = hits.get(w, 0) + 1
    assert hits[wl.keyword_name(0)] > 2 * hits[wl.keyword_name(9)]


def test_replay_through_client_matches_reference():
    spec = WorkloadSpec(keywords=4, updates=120, seed=17,
                        delete_fraction=0.15, duplicate_ratio=0.4)
    ops = generate(spec)
    state, edb = cl.setup(ClientConfig(bf_n=2048, bf_p=1e-4, d_max=64,
                                       revoke_p=1e-2, sigma_depth=12))
    for kind, w, v in ops:
        cl.update(state, cl.ADD if kind == "add" else cl.DELETE, w, v, edb)
    reference = distinct_sets(ops)
    for i in range(spec.keywords):
        w = wl.keyword_name(i)
        want = reference.get(w, set())
        if not want:
            continue
        assert cl.search(state, w, edb) == want

