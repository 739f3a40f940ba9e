"""Transcript recording, leakage patterns, and the privacy audits."""

import pytest

from ddse import audit, wire, workload as wl
from ddse.audit import (compute_patterns, dwvh_game, fp_check, record,
                        transcript_signature)


def adds(w, values):
    return [("add", w, v) for v in values]


# -- recording ----------------------------------------------------------------

def test_record_update_traffic_shape():
    ops = [("add", b"keyword-A", b"value-00"),
           ("add", b"keyword-A", b"value-00"),   # duplicate, still a frame
           ("add", b"keyword-A", b"value-01"),
           ("del", b"keyword-A", b"value-01"),   # deletes stay client-side
           ("search", b"keyword-A")]
    t = record(ops)
    assert len(t.updates()) == 3
    assert len(t.searches()) == 1
    assert len(t.ops) == 5
    assert t.searches()[0].note["results"] == 1


def test_duplicate_and_first_add_frames_are_same_size():
    t = record(adds(b"keyword-A", [b"value-00", b"value-00", b"value-01"]))
    sizes = t.update_frame_sizes()
    assert len(set(sizes)) == 1


def test_search_on_unknown_keyword_emits_no_traffic():
    t = record([("search", b"keyword-X")])
    assert t.events == []
    patterns = compute_patterns(t)
    assert len(patterns) == 1
    assert patterns[0].ulen == 0
    assert patterns[0].time_dts == frozenset()


def test_search_of_an_empty_epoch_sends_its_token_alone():
    ops = adds(b"keyword-A", [b"value-00", b"value-01"]) + [
        ("search", b"keyword-A"), ("search", b"keyword-A"),
        ("add", b"keyword-A", b"value-02"), ("search", b"keyword-A")]
    t = record(ops)
    first, again, after_add = t.searches()
    assert len(again.frame) == 5 + 32
    assert again.frame[5:] == first.frame[5:37]
    assert again.response == first.response
    assert len(after_add.frame) > 5 + 32
    assert after_add.frame[5:37] == first.frame[5:37]
    assert after_add.note["results"] == 3
    assert fp_check(t).ok


def test_response_size_depends_only_on_distinct_volume():
    spec = wl.WorkloadSpec(keywords=6, updates=150, seed=2,
                           delete_fraction=0.1, duplicate_ratio=0.5)
    searches = [("search", wl.keyword_name(i)) for i in range(spec.keywords)]
    sizes: dict[int, set[int]] = {}
    for e in record(wl.generate(spec) + searches).searches():
        sizes.setdefault(e.note["distinct"], set()).add(len(e.response))
    assert len(sizes) > 1, sizes
    assert all(len(group) == 1 for group in sizes.values()), sizes


def test_record_rejects_unknown_op():
    with pytest.raises(ValueError, match="unknown workload op"):
        record([("upsert", b"keyword-A", b"v")])


def test_dump_is_text():
    t = record(adds(b"keyword-A", [b"value-00"]) + [("search", b"keyword-A")])
    text = t.dump()
    assert "update" in text and "search" in text and "reply" in text
    assert "more events" in t.dump(limit=1)


# -- designed leakage -----------------------------------------------------------

def test_pattern_example_values():
    # add(w,a) @1, add(w,b) @2, del(w,b) @3: three updates, one live
    # distinct value first added at time 1
    ops = [("add", b"keyword-A", b"value-aa"),
           ("add", b"keyword-A", b"value-bb"),
           ("del", b"keyword-A", b"value-bb"),
           ("search", b"keyword-A")]
    leak = compute_patterns(record(ops))
    assert len(leak) == 1
    assert leak[0].ulen == 3
    assert leak[0].drlen == 2
    assert leak[0].time_dts == frozenset({(1, b"value-aa")})
    assert leak[0].update_times == (1, 2, 3)


def test_duplicates_do_not_move_first_add_time():
    ops = [("add", b"keyword-A", b"value-aa"),
           ("add", b"keyword-A", b"value-aa"),
           ("search", b"keyword-A")]
    leak = compute_patterns(record(ops))
    assert leak[0].time_dts == frozenset({(1, b"value-aa")})
    assert leak[0].ulen == 2 and leak[0].drlen == 1


def test_query_equality_pattern():
    ops = (adds(b"keyword-A", [b"value-aa"])
           + adds(b"keyword-B", [b"value-bb"])
           + [("search", b"keyword-A"),
              ("search", b"keyword-B"),
              ("search", b"keyword-A")])
    leak = compute_patterns(record(ops))
    assert [p.qeq for p in leak] == [0, 1, 0]


# -- distinct-volume hiding -------------------------------------------------------

def test_dwvh_passes_with_different_duplicate_profiles():
    # same distinct volumes (2, 3), same total updates (9), different split
    res = dwvh_game([(2, 6), (3, 3)], [(2, 3), (3, 6)])
    assert res.ok, res.detail
    assert res.signature0 == res.signature1
    counts = [c for c, _ in res.signature0[1]]
    assert counts == [2, 3]


def test_dwvh_passes_with_extreme_skew():
    res = dwvh_game([(1, 20), (1, 1)], [(1, 1), (1, 20)])
    assert res.ok, res.detail


@pytest.mark.parametrize("v0, v1, fragment", [
    ([(2, 3)], [(2, 3), (2, 2)], "same keywords"),
    ([(2, 3)], [(3, 3)], "distinct volumes must match"),
    ([(2, 3)], [(2, 4)], "total update counts"),
    ([(0, 3)], [(0, 3)], "1 <= distinct <= total"),
    ([(4, 3)], [(4, 3)], "1 <= distinct <= total"),
])
def test_dwvh_rejects_inadmissible_challenges(v0, v1, fragment):
    with pytest.raises(ValueError, match=fragment):
        dwvh_game(v0, v1)


def test_signature_separates_different_distinct_volumes():
    # sanity that the verdict is not vacuous: distinct counts differing
    # between two workloads do produce different signatures
    cfg = audit._dwvh_config([(3, 4)], [(3, 4)])
    t0 = record(audit._dwvh_workload([(2, 4)]), config=cfg)
    t1 = record(audit._dwvh_workload([(3, 4)]), config=cfg)
    assert transcript_signature(t0) != transcript_signature(t1)


# -- forward privacy --------------------------------------------------------------

def fp_workload(keywords):
    ops = []
    for i, w in enumerate(keywords):
        ops.extend(adds(w, [f"value-{i}{j}".encode().ljust(8, b".")
                            for j in range(3)]))
    return ops


def test_fp_check_passes_on_genuine_traffic():
    t = record(fp_workload([b"keyword-A", b"keyword-B", b"keyword-C"]))
    res = fp_check(t)
    assert res.ok, res.problems
    assert "PASS" in str(res)


def test_fp_check_fails_on_keyword_embedding_mutant():
    t = record(fp_workload([b"keyword-A", b"keyword-B"]), mutant=True)
    res = fp_check(t)
    assert not res.ok
    assert any("keyword bytes visible" in p for p in res.problems)
    assert "FAIL" in str(res)


def test_mutant_addresses_really_carry_the_keyword():
    t = record(fp_workload([b"keyword-A"]), mutant=True)
    from ddse import wire
    address, _ = wire.decode_update_body(t.updates()[0].frame[5:])
    assert address.startswith(b"keyword-A")


def test_fp_paired_differential_passes_for_same_shape():
    a = record(fp_workload([b"keyword-A", b"keyword-B"]))
    b = record(fp_workload([b"keyword-Q", b"keyword-Z"]))
    assert fp_check(a, paired=b).ok


def test_fp_paired_differential_fails_for_different_shape():
    a = record(fp_workload([b"keyword-A", b"keyword-B"]))
    b = record(fp_workload([b"keyword-Q"]))
    res = fp_check(a, paired=b)
    assert not res.ok
    assert any("paired transcripts disagree" in p for p in res.problems)


def test_fp_check_fails_on_address_reuse():
    t = record(fp_workload([b"keyword-A"]))
    t.updates()[1].frame = t.updates()[0].frame
    res = fp_check(t)
    assert not res.ok
    assert any("address reused" in p for p in res.problems)


def test_fp_check_names_an_update_that_is_not_an_update_frame():
    t = record(fp_workload([b"keyword-A"]))
    t.updates()[1].frame = wire.pack_frame(wire.SEARCH, bytes(40))
    res = fp_check(t)
    assert not res.ok
    assert "update 1 is a SEARCH frame" in res.problems
