"""End-to-end scheme behavior against a plaintext oracle."""

import contextlib
import logging
import os
import pickle
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ddse import client as cl
from ddse import crypto, fpdse
from ddse import ggm, sre
from ddse.client import (ADD, DELETE, ClientConfig, ProtocolError,
                         UnknownKeywordError)
from ddse.edb import EncryptedDatabase
from ddse.store import PersistentStore


def small_config(**kw) -> ClientConfig:
    base = dict(bf_n=2000, bf_p=1e-4, d_max=16, revoke_p=1e-2, sigma_depth=12)
    base.update(kw)
    return ClientConfig(**base)


def fresh(**kw):
    return cl.setup(small_config(**kw))


def test_setup_sizes_distinct_filter_from_config():
    state, edb = fresh()
    assert state.distinct_filter.b >= 2000
    assert edb.main == {} and edb.cache == {}


def test_add_then_search_returns_value():
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v1", edb)
    assert cl.search(state, b"w", edb) == {b"v1"}
    # cache serves the next epoch
    assert cl.search(state, b"w", edb) == {b"v1"}


def test_duplicates_upload_but_never_return():
    state, edb = fresh()
    for _ in range(3):
        cl.update(state, ADD, b"w", b"v", edb)
    # at rest the store cannot tell duplicates apart: one entry per add
    assert len(edb.main) == 3
    assert cl.search(state, b"w", edb) == {b"v"}
    # the two dummy entries were revoked on arrival and purged by search
    assert len(edb.main) == 1


def test_distinct_set_across_values():
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"a", edb)
    cl.update(state, ADD, b"w", b"a", edb)
    cl.update(state, ADD, b"w", b"b", edb)
    assert cl.search(state, b"w", edb) == {b"a", b"b"}


def test_add_then_delete_searches_empty():
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v", edb)
    cl.update(state, DELETE, b"w", b"v", edb)
    assert cl.search(state, b"w", edb) == set()
    assert len(edb.main) == 0  # the revoked entry was purged


def test_delete_k_of_l_distinct():
    state, edb = fresh()
    values = [b"val-%02d" % i for i in range(8)]
    for v in values:
        cl.update(state, ADD, b"w", v, edb)
    for v in values[:3]:
        cl.update(state, DELETE, b"w", v, edb)
    assert cl.search(state, b"w", edb) == set(values[3:])


def test_results_accumulate_across_epochs():
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v1", edb)
    cl.update(state, ADD, b"w", b"v2", edb)
    assert cl.search(state, b"w", edb) == {b"v1", b"v2"}
    cl.update(state, ADD, b"w", b"v3", edb)
    assert cl.search(state, b"w", edb) == {b"v1", b"v2", b"v3"}
    assert state.keywords[b"w"].epoch == 2


def test_cross_epoch_duplicate_is_suppressed():
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v", edb)
    assert cl.search(state, b"w", edb) == {b"v"}
    cl.update(state, ADD, b"w", b"v", edb)  # duplicate in the next epoch
    assert cl.search(state, b"w", edb) == {b"v"}


def test_search_unknown_keyword_raises():
    state, edb = fresh()
    with pytest.raises(UnknownKeywordError):
        cl.search_client_token(state, b"never")


def test_delete_only_keyword_searches_empty():
    state, edb = fresh()
    cl.update(state, DELETE, b"w", b"v", edb)
    assert cl.search(state, b"w", edb) == set()


def test_delete_of_never_added_pair_logs(caplog):
    state, edb = fresh()
    with caplog.at_level(logging.WARNING, logger="ddse.client"):
        cl.update(state, DELETE, b"w", b"ghost", edb)
    assert any("never-added" in r.message for r in caplog.records)
    assert state.keywords[b"w"].updates == 2


def test_add_after_a_searched_delete_of_a_never_added_pair_surfaces():
    # the search after the delete must not keep the epoch whose filter
    # revokes the pair, or the add below would be revoked on arrival
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"a", edb)
    assert cl.search(state, b"w", edb) == {b"a"}
    cl.update(state, DELETE, b"w", b"ghost", edb)
    assert not cl.search_client_token(state, b"w").token_only
    cl.update(state, ADD, b"w", b"ghost", edb)
    assert cl.search(state, b"w", edb) == {b"a", b"ghost"}
    # a first search of a keyword whose only update is such a delete
    state, edb = fresh()
    cl.update(state, DELETE, b"w", b"ghost", edb)
    assert cl.search(state, b"w", edb) == set()
    cl.update(state, ADD, b"w", b"ghost", edb)
    assert cl.search(state, b"w", edb) == {b"ghost"}


def test_readd_after_delete_is_unrecoverable_by_default():
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v", edb)
    cl.update(state, DELETE, b"w", b"v", edb)
    cl.update(state, ADD, b"w", b"v", edb)  # classified as duplicate, revoked
    assert cl.search(state, b"w", edb) == set()


def test_delete_after_search_cannot_unpublish_cached_value():
    # documented deletion visibility rule: the cache keeps what a search
    # already surfaced, so this delete is a no-op for later results
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v", edb)
    assert cl.search(state, b"w", edb) == {b"v"}
    cl.update(state, DELETE, b"w", b"v", edb)
    assert cl.search(state, b"w", edb) == {b"v"}


def test_update_count_survives_epoch_rotation():
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v", edb)
    record = state.keywords[b"w"]
    before = record.updates
    cl.search(state, b"w", edb)
    assert record.updates == before
    assert record.msk.D.inserted == 0


def test_epoch_rotation_replaces_key_material():
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v", edb)
    cl.update(state, DELETE, b"w", b"v", edb)
    record = state.keywords[b"w"]
    old = record.msk
    assert old.D.set_bits() != []
    cl.search_client_token(state, b"w")
    assert record.msk.sk.seed != old.sk.seed
    assert record.msk.D.set_bits() == []
    assert (record.epoch, record.placed) == (1, 0)


def test_a_rotation_takes_its_sizes_from_the_config():
    # a state whose current key was made under other sizes (say, saved
    # before its config changed) moves to the config's at its rotation
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v", edb)
    assert cl.search(state, b"w", edb) == {b"v"}
    record = state.keywords[b"w"]
    wanted = state.config.sre_params()
    assert wanted != (64, 2)
    record.msk = sre.kgen(64, 2)  # the epoch is empty: nothing uses the old
    cl.update(state, ADD, b"w", b"u", edb)
    assert (record.msk.D.b, record.msk.D.h) == (64, 2)
    assert cl.search(state, b"w", edb) == {b"v", b"u"}
    assert (record.msk.D.b, record.msk.D.h) == wanted
    assert record.msk.sk.leaves == wanted[0]
    cl.update(state, ADD, b"w", b"t", edb)
    assert cl.search(state, b"w", edb) == {b"v", b"u", b"t"}


def test_is_duplicate_is_the_classification_of_the_next_add():
    state, edb = fresh()
    assert not cl.is_duplicate(state, b"w", b"v")
    cl.update(state, ADD, b"w", b"v", edb)
    assert cl.is_duplicate(state, b"w", b"v")
    assert not cl.is_duplicate(state, b"w", b"u")
    assert not cl.is_duplicate(state, b"x", b"v")
    placed = state.keywords[b"w"].placed
    revoked = state.keywords[b"w"].revoked
    cl.update(state, ADD, b"w", b"v", edb)  # sent as a duplicate
    assert state.keywords[b"w"].placed == placed + 1
    assert state.keywords[b"w"].revoked == revoked + 1
    assert cl.search(state, b"w", edb) == {b"v"}


def test_client_state_does_not_grow_with_search_history():
    state, edb = fresh()
    sizes = []
    for i in range(30):
        cl.update(state, ADD, b"w", b"v%02d" % i, edb)
        got = cl.search(state, b"w", edb)
        sizes.append(len(pickle.dumps(state)))
    assert len(state.keywords) == 1
    assert state.keywords[b"w"].placed == 0
    assert max(sizes) - min(sizes) < 16, sizes
    assert got == {b"v%02d" % i for i in range(30)}


def test_pickled_state_resumes_mid_epoch():
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v1", edb)
    assert cl.search(state, b"w", edb) == {b"v1"}
    cl.update(state, ADD, b"w", b"v2", edb)
    cl.update(state, ADD, b"w", b"v3", edb)
    cl.update(state, ADD, b"w", b"v3", edb)  # duplicate, revoked this epoch
    back = pickle.loads(pickle.dumps(state))
    record = back.keywords[b"w"]
    assert (record.epoch, record.placed, record.updates) == (1, 3, 5)
    assert record.msk.D.inserted == 1
    assert cl.search(back, b"w", edb) == {b"v1", b"v2", b"v3"}


def test_budget_warning_fires_once_per_epoch(caplog):
    state, edb = fresh(d_max=2)

    def warnings():
        return [r for r in caplog.records if "revocation budget" in r.message]

    with caplog.at_level(logging.WARNING, logger="ddse.client"):
        for _ in range(4):
            cl.update(state, ADD, b"w", b"v", edb)  # 3 duplicates revoked
        assert len(warnings()) == 1
        # a search starts a new epoch, whose filter counts from zero
        cl.search(state, b"w", edb)
        for _ in range(2):
            cl.update(state, ADD, b"w", b"v", edb)
        assert len(warnings()) == 1
        cl.update(state, ADD, b"w", b"v", edb)
        assert len(warnings()) == 2


def test_a_revocation_counts_even_when_its_bits_are_all_set(caplog):
    state, edb = fresh(d_max=2)
    with caplog.at_level(logging.WARNING, logger="ddse.client"):
        for _ in range(3):  # one tag, revoked three times
            cl.update(state, DELETE, b"w", b"v", edb)
    record = state.keywords[b"w"]
    assert (record.msk.D.inserted, record.revoked) == (1, 3)
    assert len([r for r in caplog.records
                if "revocation budget" in r.message]) == 1
    cl.search(state, b"w", edb)
    assert state.keywords[b"w"].revoked == 0


def test_a_state_saved_without_the_revocation_count_loads():
    state, edb = fresh()
    cl.update(state, DELETE, b"w", b"v", edb)
    del state.keywords[b"w"].__dict__["revoked"]  # as saved before the field
    record = pickle.loads(pickle.dumps(state)).keywords[b"w"]
    assert record.revoked == 0
    assert not record.empty_epoch  # its revocation still forces a full search


def test_each_add_sends_one_update_at_its_placement_address():
    state, edb = fresh()
    sent = []

    class Recording:
        def apply_update(self, address, payload):
            sent.append(address)
            edb.apply_update(address, payload)

    for op, value in [(ADD, b"a"), (ADD, b"a"), (DELETE, b"b"), (ADD, b"c"),
                      (DELETE, b"a")]:
        cl.update(state, op, b"w", value, Recording())
    label = state.label_for(b"w", 0)
    assert sent == [state.sigma.update(label, i) for i in range(3)]
    assert cl.search(state, b"w", edb) == {b"c"}
    cl.update(state, ADD, b"w", b"d", Recording())  # the next epoch's first
    assert sent[3:] == [state.sigma.update(state.label_for(b"w", 1), 0)]


def test_update_validates_op():
    state, edb = fresh()
    with pytest.raises(ValueError):
        cl.update(state, "upsert", b"w", b"v", edb)


def test_finalize_rejects_tampered_retrieval():
    state, edb = fresh()
    cl.update(state, ADD, b"w", b"v", edb)
    request = cl.search_client_token(state, b"w")
    outcome = edb.execute_search(request)
    blob = bytearray(outcome.results[0])
    blob[-1] ^= 1
    with pytest.raises(ProtocolError):
        cl.search_finalize(state, [bytes(blob)])
    with pytest.raises(ProtocolError):
        cl.search_finalize(state, [b"short"])


def test_response_shape_hides_duplicates():
    # same distinct counts, 4x duplicate factor: byte-size of every
    # retrieval and the result count must match exactly
    results = []
    for dup in (1, 4):
        state, edb = fresh()
        for i in range(5):
            for _ in range(dup):
                cl.update(state, ADD, b"w", b"value-%02d" % i, edb)
        request = cl.search_client_token(state, b"w")
        outcome = edb.execute_search(request)
        results.append(sorted(len(r) for r in outcome.results))
    assert results[0] == results[1]
    assert len(results[0]) == 5


class Oracle:
    """Plaintext reference: distinct live values per keyword."""

    def __init__(self):
        self.live: dict[bytes, set[bytes]] = {}
        self.dead: dict[bytes, set[bytes]] = {}

    def apply(self, op, w, v):
        live = self.live.setdefault(w, set())
        if op == ADD:
            live.add(v)
        else:
            live.discard(v)
            self.dead.setdefault(w, set()).add(v)

    def type_db(self, w):
        return self.live.get(w, set())


def random_workload(rng, keywords, ops):
    """add/del mix avoiding re-add-after-delete."""
    oracle = Oracle()
    out = []
    for _ in range(ops):
        w = rng.choice(keywords)
        live = sorted(oracle.live.get(w, ()))
        dead = oracle.dead.get(w, set())
        if live and rng.random() < 0.25:
            if rng.random() < 0.5:
                op, v = ADD, rng.choice(live)          # duplicate
            else:
                op, v = DELETE, rng.choice(live)
        else:
            v = b"v%06d" % rng.randrange(10 ** 6)
            while v in dead:
                v = b"v%06d" % rng.randrange(10 ** 6)
            op = ADD
        oracle.apply(op, w, v)
        out.append((op, w, v))
    return out, oracle


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_type_db_oracle_updates_then_search(seed):
    rng = random.Random(seed)
    keywords = [b"kw-%d" % i for i in range(5)]
    workload, oracle = random_workload(rng, keywords, 120)
    state, edb = fresh()
    for op, w, v in workload:
        cl.update(state, op, w, v, edb)
    for w in keywords:
        if w not in state.keywords:
            assert not oracle.type_db(w)
            continue
        # a live value is lost exactly when every Bloom position of its
        # real tag is set in this epoch's revocation filter
        revocation = state.keywords[w].msk.D
        want = {v for v in oracle.type_db(w)
                if not revocation.check(state.real_tag(w, v))}
        assert cl.search(state, w, edb) == want, f"keyword {w!r}"


def test_matches_oracle_with_interleaved_searches():
    # deletes restricted to pairs not yet surfaced by a search
    rng = random.Random(77)
    keywords = [b"kw-%d" % i for i in range(4)]
    state, edb = fresh()
    oracle = Oracle()
    searched: dict[bytes, set[bytes]] = {}
    lost: dict[bytes, set[bytes]] = {}

    def expected(w):
        # an unsurfaced live value was first added in the current epoch;
        # it is lost for good when every Bloom position of its real tag
        # is set in this epoch's revocation filter (so call this before
        # the search rotates the epoch)
        gone = lost.setdefault(w, set())
        gone |= {v for v in oracle.type_db(w) - searched.get(w, set())
                 if state.keywords[w].msk.D.check(state.real_tag(w, v))}
        return oracle.type_db(w) - gone

    for step in range(300):
        w = rng.choice(keywords)
        if rng.random() < 0.15:
            want = expected(w) if w in state.keywords else oracle.type_db(w)
            got = cl.search(state, w, edb) if w in state.keywords else set()
            assert got == want
            searched.setdefault(w, set()).update(got)
            continue
        live = sorted(oracle.live.get(w, ()))
        deletable = [v for v in live if v not in searched.get(w, set())]
        dead = oracle.dead.get(w, set())
        if deletable and rng.random() < 0.3:
            op, v = DELETE, rng.choice(deletable)
        elif live and rng.random() < 0.3:
            op, v = ADD, rng.choice(live)
        else:
            op = ADD
            v = b"v%06d" % rng.randrange(10 ** 6)
            while v in dead:
                v = b"v%06d" % rng.randrange(10 ** 6)
        oracle.apply(op, w, v)
        cl.update(state, op, w, v, edb)
    for w in keywords:
        if w in state.keywords:
            want = expected(w)
            assert cl.search(state, w, edb) == want
    # a false revocation is rare; more than one lost value in a run
    # means deletes revoke tags they should not
    assert sum(len(gone) for gone in lost.values()) <= 1, lost


@contextlib.contextmanager
def token_only_search():
    """Revealing, puncturing or replacing a key, or an fsync, raises
    inside."""
    def refuse(*args, **kwargs):
        raise AssertionError("key or disk work in a token-only search")
    with mock.patch.object(sre, "ck_rev", refuse), \
            mock.patch.object(sre, "kgen", refuse), \
            mock.patch.object(ggm.GgmRoot, "puncture", refuse), \
            mock.patch.object(os, "fsync", refuse):
        yield


def run_script(script, reopen):
    """Play ``script`` through ``reopen(None)``, and through
    ``reopen(edb)`` at each "reopen", against the oracle; returns the
    last transport."""
    state, _ = fresh()
    edb = reopen(None)
    oracle = Oracle()
    surfaced: dict[bytes, set[bytes]] = {}
    lost: dict[bytes, set[bytes]] = {}
    # per keyword with a non-empty epoch: the never-added values deleted
    # since its last search (an entry placed leaves an empty set)
    pending: dict[bytes, set[bytes]] = {}
    for kind, k, j in script:
        w = b"w%d" % k
        live = sorted(oracle.live.get(w, ()))
        fresh_pairs = [v for v in live if v not in surfaced.get(w, ())]
        if kind == "reopen":
            edb = reopen(edb)
            continue
        if kind == "search":
            if w not in state.keywords:
                continue
            token_only = w not in pending
            record = state.keywords[w]
            kept = (record.msk, record.epoch, record.placed)
            gone = lost.setdefault(w, set())
            if not token_only:  # lost to a false revocation, as above
                gone |= {v for v in fresh_pairs
                         if record.msk.D.check(state.real_tag(w, v))}
            log = getattr(edb, "log_path", None)
            size = log.stat().st_size if log else None
            guard = token_only_search if token_only else contextlib.nullcontext
            with guard():
                request = cl.search_client_token(state, w)
                outcome = edb.execute_search(request)
            assert request.token_only == token_only
            if token_only:
                assert (record.msk, record.epoch, record.placed) == kept
                assert (log.stat().st_size if log else None) == size
            got = cl.search_finalize(state, outcome.results)
            assert got == oracle.type_db(w) - gone
            surfaced.setdefault(w, set()).update(got)
            pending.pop(w, None)
            continue
        ghost = b"g%d" % j
        if kind == "ghost":
            if ghost in live or ghost in oracle.dead.get(w, ()):
                continue  # only a never-added pair is a ghost
            # a delete of a never-added pair changes no answer, but it
            # revokes: the search after it must be a full one
            cl.update(state, DELETE, w, ghost, edb)
            pending.setdefault(w, set()).add(ghost)
            continue
        if kind in ("add", "ghost_add"):
            v = b"v%d" % j if kind == "add" else ghost
            if v in oracle.dead.get(w, ()):
                continue  # a deleted pair is never re-added
            if v in pending.get(w, ()):
                continue  # revoked in this epoch: it would never surface
            op = ADD
        elif kind == "duplicate" and live:
            op, v = ADD, live[j % len(live)]
        elif kind == "delete" and fresh_pairs:
            op, v = DELETE, fresh_pairs[j % len(fresh_pairs)]
        else:
            continue
        oracle.apply(op, w, v)
        cl.update(state, op, w, v, edb)
        pending.setdefault(w, set())
    return edb


SCRIPT = st.lists(st.tuples(
    st.sampled_from(["add", "duplicate", "delete", "ghost", "ghost_add",
                     "search", "reopen"]),
    st.integers(0, 2), st.integers(0, 5)), max_size=40)


@settings(max_examples=200, deadline=None)
@given(SCRIPT)
def test_search_is_token_only_exactly_when_the_epoch_is_empty(script):
    # two rounds of searches of every keyword after a reopen: the second
    # round is token-only throughout
    script = script + [("reopen", 0, 0)] + [
        ("search", k, 0) for k in (0, 1, 2, 0, 1, 2)]
    memory = EncryptedDatabase()
    run_script(script, lambda old: memory)
    with tempfile.TemporaryDirectory() as root:
        def reopen(old):
            if old is not None:
                old.close()
            return PersistentStore(root)
        run_script(script, reopen).close()


def test_a_rotated_record_never_reads_the_old_keys_nodes():
    state, edb = fresh()
    for i in range(20):
        cl.update(state, ADD, b"w", b"v%02d" % i, edb)
    old = state.keywords[b"w"].msk.sk
    old_memo = bytes(old._kept[1]), bytes(old._kept[2])
    assert cl.search(state, b"w", edb) == {b"v%02d" % i for i in range(20)}
    new = state.keywords[b"w"].msk.sk
    assert new is not old and "_kept" not in new.__dict__
    walked = []
    real_eval = ggm.GgmRoot.eval

    def spy(root, index):
        walked.append(root)
        return real_eval(root, index)

    with mock.patch.object(ggm.GgmRoot, "eval", spy):
        for i in range(20, 30):
            cl.update(state, ADD, b"w", b"v%02d" % i, edb)
            cl.update(state, ADD, b"w", b"v%02d" % i, edb)  # a duplicate
    assert walked and all(root is new for root in walked)
    assert (bytes(old._kept[1]), bytes(old._kept[2])) == old_memo
    below, seeds, filled = new._kept
    for slot in range(len(seeds) // 16):
        if filled[slot >> 3] & (0x80 >> (slot & 7)):
            assert seeds[16 * slot:16 * slot + 16] == \
                ggm._walk(new.seed, slot, new.depth - below)
    assert cl.search(state, b"w", edb) == {b"v%02d" % i for i in range(30)}


def seeded_run(ops):
    """Client state bytes, stored entries and answers of ``ops`` with
    every key and nonce drawn from one seeded generator."""
    with mock.patch.object(crypto.secrets, "token_bytes",
                           random.Random(7).randbytes):
        state, edb = fresh()
        answers = [cl.search(state, w, edb) if op == "search"
                   else cl.update(state, op, w, v, edb)
                   for op, w, v in ops]
        return pickle.dumps(state), edb.main, edb.cache, answers


def test_reusing_tree_nodes_changes_no_saved_or_sent_byte():
    ops = ([(ADD, b"w%d" % (i % 3), b"v%d" % (i % 7)) for i in range(40)]
           + [(DELETE, b"w0", b"v0"), ("search", b"w1", None)]
           + [(ADD, b"w1", b"v%d" % i) for i in range(10)]
           + [("search", w, None) for w in (b"w0", b"w1", b"w2")])
    reused = seeded_run(ops)

    def plain_eval(root, index):
        return ggm._walk(root.seed, index, root.depth)

    def plain_update(sigma, label, counter):
        return fpdse._address(plain_eval(sigma._root(label), counter))

    with mock.patch.object(ggm.GgmRoot, "eval", plain_eval), \
            mock.patch.object(fpdse.SigmaState, "update", plain_update):
        plain = seeded_run(ops)
    assert reused == plain
    assert reused[3][-3:] == [{b"v%d" % i for i in range(1, 7)},
                              {b"v%d" % i for i in range(10)},
                              {b"v%d" % i for i in range(7)}]
