"""Statement parsing and encrypted execution against plaintext oracles,
and ``client.search_many``, which sends every statement's searches."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from ddse import client as cl
from ddse import query as q
from ddse import wire
from ddse.client import ClientConfig, ProtocolError
from ddse.edb import EncryptedDatabase, SearchOutcome
from ddse.netclient import RemoteEdb
from ddse.query import (IntegrityError, QueryError, QueryPlan, Registry,
                        StatementError, TableConfig, exec_statement, plan)
from ddse.server import serve
from ddse.store import PersistentStore


# -- parsing ----------------------------------------------------------------

def test_plan_select_distinct():
    p = plan("SELECT DISTINCT T.y FROM T WHERE T.x = 'alice'")
    assert p == QueryPlan("Dsrch", ("T", ("T.x", b"alice", "T.y")))


def test_plan_select():
    p = plan("SELECT T.y FROM T WHERE T.x = 'alice'")
    assert p == QueryPlan("srch", ("T", ("T.x", b"alice", "T.y")))


def test_plan_insert():
    p = plan("INSERT INTO T (T.x, T.y) VALUE ('w', 'v')")
    assert p == QueryPlan("ins", ("T", ("T.x", b"w", "T.y", b"v")))


def test_plan_delete():
    p = plan("DELETE FROM T WHERE T.x = 'w' AND T.y = 'v'")
    assert p == QueryPlan("del", ("T", ("T.x", b"w", "T.y", b"v")))


def test_plan_join():
    p = plan("SELECT T2.y FROM T1 JOIN T2 ON T1.z = T2.z WHERE T1.x = 'w'")
    assert p == QueryPlan("join", ("T1", "T2",
                                   ("T1.x", b"w", "T1.z"),
                                   ("T2.z", b"0", "T2.y")))


def test_integer_literals_become_digit_bytes():
    p = plan("INSERT INTO T (T.x, T.y) VALUE (42, 7)")
    assert p.m == ("T", ("T.x", b"42", "T.y", b"7"))


@pytest.mark.parametrize("text", ["\ud800", "\udcff", "ok\udfffok"],
                         ids=["surrogate", "argv-byte", "inside"])
def test_a_string_literal_that_is_not_utf8_is_a_statement_error(text):
    statement = f"SELECT T.y FROM T WHERE T.x = '{text}'"
    with pytest.raises(StatementError, match="not valid UTF-8") as err:
        plan(statement)
    assert err.value.position == statement.index("'")


@pytest.mark.parametrize("digits", ["\u0663", "4\u0662", "\uff17"],
                         ids=["arabic-indic", "mixed", "fullwidth"])
def test_an_integer_literal_is_ascii_digits(digits):
    statement = f"INSERT INTO T (T.x, T.y) VALUE ('w', {digits})"
    with pytest.raises(StatementError, match="unexpected character") as err:
        plan(statement)
    assert err.value.position == statement.index(digits) + (
        digits[0].isascii())


def test_keywords_are_case_insensitive():
    a = plan("select distinct T.y from T where T.x = 'w'")
    b = plan("SELECT DISTINCT T.y FROM T WHERE T.x = 'w'")
    assert a == b


def test_values_synonym():
    a = plan("INSERT INTO T (T.x, T.y) VALUES ('w', 'v')")
    b = plan("INSERT INTO T (T.x, T.y) VALUE ('w', 'v')")
    assert a == b


@pytest.mark.parametrize("bad, fragment", [
    ("DROP TABLE T", "SELECT, INSERT or DELETE"),
    ("SELECT T.y FROM T", "WHERE"),
    ("SELECT T.y T WHERE T.x = 'w'", "FROM"),
    ("SELECT FROM T WHERE T.x = 'w'", "identifier"),
    ("INSERT INTO T (T.x T.y) VALUE ('w', 'v')", "','"),
    ("DELETE FROM T WHERE T.x = 'w'", "AND"),
    ("SELECT T.y FROM T WHERE T.x = ", "literal"),
    ("SELECT T.y FROM T WHERE T.x = 'w' extra", "end of statement"),
    ("SELECT T.y FROM T WHERE T.x = 'unclosed", "unterminated"),
    ("SELECT T.y FROM T WHERE T.x = !", "unexpected character"),
])
def test_parse_errors(bad, fragment):
    with pytest.raises(StatementError) as err:
        plan(bad)
    assert fragment in str(err.value)
    assert err.value.position >= 0


def test_error_position_points_at_offending_token():
    text = "SELECT T.y FROM T WHERE T.x = 'w' extra"
    with pytest.raises(StatementError) as err:
        plan(text)
    assert text[err.value.position:].startswith("extra")


# -- the grammar, property-tested --------------------------------------------

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,8}", fullmatch=True) \
    .filter(lambda word: word.lower() not in q._KEYWORDS)
literals = st.one_of(
    st.text(st.characters(blacklist_characters="'",
                          blacklist_categories=["Cs"]), max_size=6)
    .map(lambda text: (f"'{text}'", text.encode())),
    st.integers(0, 10 ** 12).map(lambda n: (str(n), str(n).encode())))


@st.composite
def statements(draw):
    """(tokens, plan): one of the five shapes, rendered token by token
    with random identifiers, literals and keyword case."""
    def kw(word):
        upper = draw(st.integers(0, 2 ** len(word) - 1))
        return "".join(ch.upper() if upper >> i & 1 else ch
                       for i, ch in enumerate(word))

    a, b, c, d, e, f = (draw(identifiers) for _ in range(6))
    (w_text, w), (v_text, v) = draw(literals), draw(literals)
    shape = draw(st.sampled_from(["dsrch", "join", "srch", "ins", "del"]))
    if shape == "dsrch":
        tokens = [kw("select"), kw("distinct"), a, kw("from"), b,
                  kw("where"), c, "=", w_text]
        want = QueryPlan(q.SYN_DSRCH, (b, (c, w, a)))
    elif shape == "join":
        tokens = [kw("select"), a, kw("from"), b, kw("join"), c, kw("on"),
                  d, "=", e, kw("where"), f, "=", w_text]
        want = QueryPlan(q.SYN_JOIN, (b, c, (f, w, d), (e, b"0", a)))
    elif shape == "srch":
        tokens = [kw("select"), a, kw("from"), b, kw("where"), c, "=",
                  w_text]
        want = QueryPlan(q.SYN_SRCH, (b, (c, w, a)))
    elif shape == "ins":
        tokens = [kw("insert"), kw("into"), a, "(", b, ",", c, ")",
                  kw(draw(st.sampled_from(["value", "values"]))),
                  "(", w_text, ",", v_text, ")"]
        want = QueryPlan(q.SYN_INS, (a, (b, w, c, v)))
    else:
        tokens = [kw("delete"), kw("from"), a, kw("where"), b, "=", w_text,
                  kw("and"), c, "=", v_text]
        want = QueryPlan(q.SYN_DEL, (a, (b, w, c, v)))
    gaps = draw(st.lists(st.text(" \t\n", min_size=1, max_size=3),
                         min_size=len(tokens), max_size=len(tokens)))
    return [gap + tok for gap, tok in zip(gaps, tokens)], want


@settings(max_examples=300, deadline=None)
@given(statements())
def test_every_shape_plans_and_every_prefix_fails_at_its_end(case):
    tokens, want = case
    assert plan("".join(tokens) + " ") == want
    for cut in range(len(tokens)):
        prefix = "".join(tokens[:cut])
        with pytest.raises(StatementError) as err:
            plan(prefix)
        assert err.value.position == len(prefix)
        assert "got end of statement" in str(err.value)


SYN_OF = {
    "SELECT DISTINCT T.y FROM T WHERE T.x = 'alice'": q.SYN_DSRCH,
    "SELECT T.y FROM T WHERE T.x = 'alice'": q.SYN_SRCH,
    "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')": q.SYN_INS,
    "INSERT INTO T (T.x, T.y) VALUE (42, 7)": q.SYN_INS,
    "DELETE FROM T WHERE T.x = 'w' AND T.y = 'v'": q.SYN_DEL,
    "SELECT T2.y FROM T1 JOIN T2 ON T1.z = T2.z WHERE T1.x = 'w'": q.SYN_JOIN,
}


@pytest.mark.parametrize("statement", SYN_OF)
def test_statement_plans_to_syn(statement):
    assert plan(statement).syn == SYN_OF[statement]


# -- registry ---------------------------------------------------------------

def small_table(table="T", kw="T.x", val="T.y", order=q.ORDER_LEX):
    return TableConfig(table, kw, val, order, bf_n=2000, bf_p=1e-4, d_max=16)


def test_registry_register_and_lookup():
    reg = Registry()
    inst = reg.register(small_table())
    assert reg.instance_for("T", "T.x", "T.y") is inst


def test_registry_rejects_duplicate():
    reg = Registry()
    reg.register(small_table())
    with pytest.raises(QueryError, match="already registered"):
        reg.register(small_table())


def test_registry_unknown_triple():
    reg = Registry()
    reg.register(small_table())
    with pytest.raises(QueryError, match="no index registered"):
        reg.instance_for("T", "T.x", "T.z")


def test_bad_value_order_rejected():
    with pytest.raises(ValueError, match="value_order"):
        TableConfig("T", "T.x", "T.y", "alphabetical")


# -- execution against a plaintext oracle ------------------------------------

def fresh(order=q.ORDER_LEX):
    reg = Registry()
    reg.register(small_table(order=order), sigma_depth=12, revoke_p=1e-2)
    return reg, EncryptedDatabase()


def run(reg, edb, statement):
    return exec_statement(reg, statement, edb)


def test_insert_then_distinct_and_expanded():
    reg, edb = fresh()
    run(reg, edb, "INSERT INTO T (T.x, T.y) VALUE ('w', 'b')")
    run(reg, edb, "INSERT INTO T (T.x, T.y) VALUE ('w', 'a')")
    run(reg, edb, "INSERT INTO T (T.x, T.y) VALUE ('w', 'a')")
    assert run(reg, edb, "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'") \
        == {b"a", b"b"}
    assert run(reg, edb, "SELECT T.y FROM T WHERE T.x = 'w'") \
        == [b"a", b"a", b"b"]


def test_numeric_value_order():
    reg, edb = fresh(order=q.ORDER_NUMERIC)
    for v in ("9", "10", "2", "10"):
        run(reg, edb, f"INSERT INTO T (T.x, T.y) VALUE ('w', '{v}')")
    assert run(reg, edb, "SELECT T.y FROM T WHERE T.x = 'w'") \
        == [b"2", b"9", b"10", b"10"]


def test_numeric_order_rejects_non_numeric_value():
    reg, edb = fresh(order=q.ORDER_NUMERIC)
    with pytest.raises(QueryError, match="non-numeric"):
        run(reg, edb, "INSERT INTO T (T.x, T.y) VALUE ('w', 'abc')")


@pytest.mark.parametrize("bad", ["'abc'", "''", "'\u0663'", "'7.5'"])
def test_a_numeric_column_refuses_a_value_before_sending(tmp_path, bad):
    reg = Registry()
    reg.register(small_table(order=q.ORDER_NUMERIC), sigma_depth=12,
                 revoke_p=1e-2)
    log = tmp_path / "db" / "log"
    with PersistentStore(tmp_path / "db") as edb:
        run(reg, edb, "INSERT INTO T (T.x, T.y) VALUE ('w', 7)")
        size, before = log.stat().st_size, pickle.dumps(reg)
        with pytest.raises(QueryError, match="non-numeric"):
            run(reg, edb, f"INSERT INTO T (T.x, T.y) VALUE ('w', {bad})")
        assert log.stat().st_size == size
        assert pickle.dumps(reg) == before
        assert run(reg, edb, "SELECT T.y FROM T WHERE T.x = 'w'") == [b"7"]
        assert run(reg, edb, "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'") \
            == {b"7"}


def test_delete_removes_every_copy():
    reg, edb = fresh()
    for _ in range(3):
        run(reg, edb, "INSERT INTO T (T.x, T.y) VALUE ('w', 'a')")
    run(reg, edb, "INSERT INTO T (T.x, T.y) VALUE ('w', 'b')")
    run(reg, edb, "DELETE FROM T WHERE T.x = 'w' AND T.y = 'a'")
    assert run(reg, edb, "SELECT T.y FROM T WHERE T.x = 'w'") == [b"b"]


def test_unknown_keyword_is_empty():
    reg, edb = fresh()
    assert run(reg, edb, "SELECT DISTINCT T.y FROM T WHERE T.x = 'no'") \
        == set()
    assert run(reg, edb, "SELECT T.y FROM T WHERE T.x = 'no'") == []


def test_integrity_error_on_tampered_quantity_vector():
    reg, edb = fresh()
    run(reg, edb, "INSERT INTO T (T.x, T.y) VALUE ('w', 'a')")
    inst = reg.instance_for("T", "T.x", "T.y")
    inst.qvec[b"w"][b"phantom"] = 1
    with pytest.raises(IntegrityError, match="disagrees"):
        run(reg, edb, "SELECT T.y FROM T WHERE T.x = 'w'")


def test_randomized_single_table_oracle():
    rng = random.Random(7)
    reg, edb = fresh()
    oracle: dict[bytes, dict[bytes, int]] = {}
    keywords = [f"kw{i}".encode() for i in range(6)]
    values = [f"v{i}".encode() for i in range(8)]
    for _ in range(150):
        w = rng.choice(keywords)
        v = rng.choice(values)
        counts = oracle.setdefault(w, {})
        # deletes of never-inserted pairs are legal no-ops client side, but
        # re-adding a deleted pair is not recoverable, so avoid that path
        if counts.get(v) and rng.random() < 0.25:
            run(reg, edb, f"DELETE FROM T WHERE T.x = '{w.decode()}' "
                          f"AND T.y = '{v.decode()}'")
            counts.pop(v)
            values.remove(v)
            values.append(f"v{rng.randrange(10**6)}".encode())
        else:
            run(reg, edb, f"INSERT INTO T (T.x, T.y) "
                          f"VALUE ('{w.decode()}', '{v.decode()}')")
            counts[v] = counts.get(v, 0) + 1
    for w in keywords:
        counts = oracle.get(w, {})
        want = []
        for v in sorted(counts):
            want.extend([v] * counts[v])
        got = run(reg, edb, f"SELECT T.y FROM T WHERE T.x = '{w.decode()}'")
        assert got == want


# -- joins -------------------------------------------------------------------

def join_tables():
    reg = Registry()
    reg.register(TableConfig("T1", "T1.x", "T1.z", bf_n=2000, bf_p=1e-4,
                             d_max=16), sigma_depth=12, revoke_p=1e-2)
    reg.register(TableConfig("T2", "T2.z", "T2.y", bf_n=2000, bf_p=1e-4,
                             d_max=16), sigma_depth=12, revoke_p=1e-2)
    return reg, EncryptedDatabase()


def nested_loop_join(rows1, rows2, w):
    out = []
    for (x, z) in rows1:
        if x != w:
            continue
        for (z2, y) in rows2:
            if z2 == z:
                out.append(y)
    return out


def test_join_matches_nested_loop_multiset():
    rng = random.Random(11)
    reg, edb = join_tables()
    links = [f"z{i}".encode() for i in range(4)]
    rows1, rows2 = [], []
    for _ in range(40):
        w = rng.choice([b"w0", b"w1"])
        z = rng.choice(links)
        rows1.append((w, z))
        run(reg, edb, f"INSERT INTO T1 (T1.x, T1.z) "
                      f"VALUE ('{w.decode()}', '{z.decode()}')")
    for _ in range(40):
        z = rng.choice(links)
        y = f"y{rng.randrange(6)}".encode()
        rows2.append((z, y))
        run(reg, edb, f"INSERT INTO T2 (T2.z, T2.y) "
                      f"VALUE ('{z.decode()}', '{y.decode()}')")
    for w in (b"w0", b"w1", b"w-missing"):
        got = run(reg, edb, f"SELECT T2.y FROM T1 JOIN T2 ON T1.z = T2.z "
                            f"WHERE T1.x = '{w.decode()}'")
        want = nested_loop_join(rows1, rows2, w)
        assert sorted(got) == sorted(want)


def test_join_handles_dangling_link():
    reg, edb = join_tables()
    run(reg, edb, "INSERT INTO T1 (T1.x, T1.z) VALUE ('w', 'orphan')")
    run(reg, edb, "INSERT INTO T1 (T1.x, T1.z) VALUE ('w', 'z1')")
    run(reg, edb, "INSERT INTO T2 (T2.z, T2.y) VALUE ('z1', 'hit')")
    got = run(reg, edb, "SELECT T2.y FROM T1 JOIN T2 ON T1.z = T2.z "
                        "WHERE T1.x = 'w'")
    assert got == [b"hit"]


def test_join_expansion_is_deterministic_two_stage():
    # stage one yields links in value order with multiplicity; each link
    # expands to that table's ordered values, concatenated in sequence
    reg, edb = join_tables()
    for z in ("za", "za", "zb"):
        run(reg, edb, f"INSERT INTO T1 (T1.x, T1.z) VALUE ('w', '{z}')")
    run(reg, edb, "INSERT INTO T2 (T2.z, T2.y) VALUE ('za', 'p')")
    run(reg, edb, "INSERT INTO T2 (T2.z, T2.y) VALUE ('zb', 'q')")
    run(reg, edb, "INSERT INTO T2 (T2.z, T2.y) VALUE ('zb', 'r')")
    got = run(reg, edb, "SELECT T2.y FROM T1 JOIN T2 ON T1.z = T2.z "
                        "WHERE T1.x = 'w'")
    assert got == [b"p", b"p", b"q", b"r"]


def test_join_searches_each_distinct_link_once():
    # three copies of one link must not reach the server as three
    # searches under the same cache token: that would leak multiplicity
    reg, edb = join_tables()
    for z in ("za", "za", "za", "zb"):
        run(reg, edb, f"INSERT INTO T1 (T1.x, T1.z) VALUE ('w', '{z}')")
    run(reg, edb, "INSERT INTO T2 (T2.z, T2.y) VALUE ('za', 'p')")
    run(reg, edb, "INSERT INTO T2 (T2.z, T2.y) VALUE ('zb', 'q')")

    class Counting:
        def __init__(self):
            self.tokens = []

        def execute_search(self, request):
            self.tokens.append(request.tkn)
            return edb.execute_search(request)

    counting = Counting()
    got = run(reg, counting, "SELECT T2.y FROM T1 JOIN T2 ON T1.z = T2.z "
                             "WHERE T1.x = 'w'")
    assert got == [b"p", b"p", b"p", b"q"]
    assert len(counting.tokens) == 3  # stage one, za, zb
    assert len(set(counting.tokens)) == 3


# -- re-adding a deleted pair -------------------------------------------------

@pytest.fixture()
def served(tmp_path):
    """A socket server over an empty store, and a client connected to it."""
    store = PersistentStore(tmp_path / "db")
    server = serve(store)
    try:
        with RemoteEdb(*server.address) as remote:
            yield server, remote
    finally:
        server.stop()
        store.close()


@pytest.fixture(params=["memory", "tcp"])
def transport(request):
    """An empty database, in process or behind a socket server."""
    if request.param == "memory":
        return EncryptedDatabase()
    return request.getfixturevalue("served")[1]


class CountingUpdates:
    """Forwards to ``edb``, counting the updates that reach it."""

    def __init__(self, edb):
        self.edb = edb
        self.updates = 0

    def apply_update(self, address, payload):
        self.updates += 1
        self.edb.apply_update(address, payload)

    def execute_search(self, request):
        return self.edb.execute_search(request)


def refused_readd(reg, edb, statement):
    counting = CountingUpdates(edb)
    with pytest.raises(QueryError, match="cannot re-add deleted pair"):
        run(reg, counting, statement)
    assert counting.updates == 0


def test_readd_of_a_deleted_pair_is_refused_before_sending(transport):
    reg, _ = fresh()
    run(reg, transport, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v1')")
    run(reg, transport, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v2')")
    run(reg, transport, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v2')")
    run(reg, transport, "DELETE FROM T WHERE T.x = 'w' AND T.y = 'v1'")
    refused_readd(reg, transport, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v1')")
    # the oracle's answers: v1 stays deleted, nothing reports tampering
    assert run(reg, transport, "SELECT DISTINCT T.y FROM T WHERE T.x = 'w'") \
        == {b"v2"}
    assert run(reg, transport, "SELECT T.y FROM T WHERE T.x = 'w'") \
        == [b"v2", b"v2"]
    # a live pair, and a new one, are still accepted after the refusal
    run(reg, transport, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v2')")
    run(reg, transport, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v3')")
    assert run(reg, transport, "SELECT T.y FROM T WHERE T.x = 'w'") \
        == [b"v2", b"v2", b"v2", b"v3"]


class FailingFirstUpdate(CountingUpdates):
    """Forwards to ``edb``, but its first ``apply_update`` raises."""

    def apply_update(self, address, payload):
        self.updates += 1
        if self.updates == 1:
            raise ProtocolError("injected failure")
        self.edb.apply_update(address, payload)


@pytest.mark.parametrize("repeat", [False, True], ids=["first", "duplicate"])
def test_a_failed_add_changes_no_client_state(transport, repeat):
    state, _ = cl.setup(ClientConfig(bf_n=2000, bf_p=1e-4, d_max=16,
                                     revoke_p=1e-2, sigma_depth=12))
    if repeat:
        cl.update(state, cl.ADD, b"w", b"v", transport)
    before = pickle.dumps(state)
    failing = FailingFirstUpdate(transport)
    with pytest.raises(ProtocolError, match="injected failure"):
        cl.update(state, cl.ADD, b"w", b"v", failing)
    assert pickle.dumps(state) == before
    cl.update(state, cl.ADD, b"w", b"v", failing)  # the retry
    assert cl.search(state, b"w", transport) == {b"v"}


def test_a_failed_insert_can_be_retried(transport):
    reg, _ = fresh()
    failing = FailingFirstUpdate(transport)
    with pytest.raises(ProtocolError, match="injected failure"):
        run(reg, failing, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')")
    run(reg, failing, "INSERT INTO T (T.x, T.y) VALUE ('w', 'v')")
    assert run(reg, transport, "SELECT T.y FROM T WHERE T.x = 'w'") == [b"v"]


def test_join_after_a_refused_readd_matches_nested_loop(transport):
    reg, _ = join_tables()
    rows1 = [(b"w", b"za"), (b"w", b"zb"), (b"w", b"zb")]
    rows2 = [(b"za", b"p"), (b"zb", b"q"), (b"zb", b"r")]
    for x, z in rows1:
        run(reg, transport, f"INSERT INTO T1 (T1.x, T1.z) "
                            f"VALUE ('{x.decode()}', '{z.decode()}')")
    for z, y in rows2:
        run(reg, transport, f"INSERT INTO T2 (T2.z, T2.y) "
                            f"VALUE ('{z.decode()}', '{y.decode()}')")
    run(reg, transport, "DELETE FROM T1 WHERE T1.x = 'w' AND T1.z = 'za'")
    run(reg, transport, "DELETE FROM T2 WHERE T2.z = 'zb' AND T2.y = 'q'")
    refused_readd(reg, transport, "INSERT INTO T1 (T1.x, T1.z) VALUE ('w', 'za')")
    refused_readd(reg, transport, "INSERT INTO T2 (T2.z, T2.y) VALUE ('zb', 'q')")
    rows1.remove((b"w", b"za"))
    rows2.remove((b"zb", b"q"))
    got = run(reg, transport, "SELECT T2.y FROM T1 JOIN T2 ON T1.z = T2.z "
                              "WHERE T1.x = 'w'")
    assert sorted(got) == sorted(nested_loop_join(rows1, rows2, b"w")) \
        == [b"r", b"r"]


# -- deleting a pair that is not live -----------------------------------------

def test_delete_of_a_pair_that_is_not_live_is_a_no_op(transport):
    reg, _ = join_tables()
    t2 = reg.instance_for("T2", "T2.z", "T2.y")
    run(reg, transport, "INSERT INTO T1 (T1.x, T1.z) VALUE ('w', 'za')")
    run(reg, transport, "INSERT INTO T1 (T1.x, T1.z) VALUE ('w', 'zb')")
    run(reg, transport, "INSERT INTO T2 (T2.z, T2.y) VALUE ('zb', 'q')")
    run(reg, transport, "INSERT INTO T2 (T2.z, T2.y) VALUE ('zb', 'r')")
    run(reg, transport, "DELETE FROM T2 WHERE T2.z = 'zb' AND T2.y = 'r'")
    zb = t2.state.keywords[b"zb"]
    revoked, updates = zb.msk.D.inserted, zb.updates
    counting = CountingUpdates(transport)
    # never inserted, under a keyword with no history and under one with
    # some, and deleted a second time: nothing is sent or revoked
    for statement in ("DELETE FROM T2 WHERE T2.z = 'za' AND T2.y = 'p'",
                      "DELETE FROM T2 WHERE T2.z = 'zb' AND T2.y = 's'",
                      "DELETE FROM T2 WHERE T2.z = 'zb' AND T2.y = 'r'"):
        run(reg, counting, statement)
    assert counting.updates == 0
    assert b"za" not in t2.state.keywords
    assert (zb.msk.D.inserted, zb.updates) == (revoked, updates)
    # a pair deleted before it was ever inserted is found once inserted
    run(reg, transport, "INSERT INTO T2 (T2.z, T2.y) VALUE ('za', 'p')")
    run(reg, transport, "INSERT INTO T2 (T2.z, T2.y) VALUE ('zb', 's')")
    assert run(reg, transport, "SELECT DISTINCT T2.y FROM T2 WHERE T2.z = 'za'") \
        == {b"p"}
    assert run(reg, transport, "SELECT T2.y FROM T2 WHERE T2.z = 'zb'") \
        == [b"q", b"s"]
    got = run(reg, transport, "SELECT T2.y FROM T1 JOIN T2 ON T1.z = T2.z "
                              "WHERE T1.x = 'w'")
    rows1 = [(b"w", b"za"), (b"w", b"zb")]
    rows2 = [(b"zb", b"q"), (b"za", b"p"), (b"zb", b"s")]
    assert got == nested_loop_join(rows1, rows2, b"w") == [b"p", b"q", b"s"]


# -- pipelined stage two ------------------------------------------------------

JOIN_W = "SELECT T2.y FROM T1 JOIN T2 ON T1.z = T2.z WHERE T1.x = 'w'"


def insert(reg, edb, table, rows):
    kw, val = {"T1": ("T1.x", "T1.z"), "T2": ("T2.z", "T2.y")}[table]
    for k, v in rows:
        run(reg, edb, f"INSERT INTO {table} ({kw}, {val}) "
                      f"VALUE ('{k.decode()}', '{v.decode()}')")


def linked(reg, edb, links):
    """Inserts rows whose stage one under 'w' yields ``links`` distinct
    links z0.., some more than once, plus 'orphan', which has no T2 row."""
    rows1 = [(b"w", b"z%d" % i) for i in range(links) for _ in range(1 + i % 3)]
    rows1 += [(b"w", b"orphan"), (b"other", b"z0")]
    rows2 = [(b"z%d" % i, y) for i in range(links)
             for y in (b"y%d" % i, b"y%d" % (i % 4))]
    insert(reg, edb, "T1", rows1)
    insert(reg, edb, "T2", rows2)
    return rows1, rows2


class SearchBodies:
    """Records the body of every SEARCH frame ``server`` dispatches and,
    if asked, fails the ``fail_at``-th with an ERROR reply."""

    def __init__(self, server, fail_at=None):
        self.bodies = []
        dispatch = server._dispatch

        def recording(stream, ftype, body):
            if ftype == wire.SEARCH:
                self.bodies.append(body)
                if len(self.bodies) == fail_at:
                    raise wire.FrameError("injected failure")
            return dispatch(stream, ftype, body)

        server._dispatch = recording


class RecordingEdb:
    """In-process store that records every SEARCH body it is given."""

    def __init__(self, edb):
        self.edb = edb
        self.bodies = []

    def execute_search(self, request):
        self.bodies.append(wire.encode_search_body(request))
        return self.edb.execute_search(request)


def test_pipelined_join_sends_the_sequential_frames(served):
    server, remote = served
    reg, _ = join_tables()
    rows1, rows2 = linked(reg, remote, 9)
    run(reg, remote, JOIN_W)  # every link searched
    # adds since that search on some links, one of them deleted again
    added = [(b"z1", b"n1"), (b"z4", b"n4"), (b"z7", b"n7"), (b"z5", b"gone")]
    insert(reg, remote, "T2", added)
    run(reg, remote, "DELETE FROM T2 WHERE T2.z = 'z5' AND T2.y = 'gone'")
    rows2 += added[:3]
    with server._lock:  # no request is in flight
        twin = copy.deepcopy(reg)
        local = RecordingEdb(copy.deepcopy(server.store.edb))
    recorded = SearchBodies(server)
    got = run(reg, remote, JOIN_W)
    assert sorted(got) == sorted(nested_loop_join(rows1, rows2, b"w"))
    assert got == run(twin, local, JOIN_W)
    assert recorded.bodies == local.bodies
    # stage one, then z0..z8 in order ('orphan' has no history): full
    # searches where something changed, the token alone elsewhere
    assert [len(b) > 32 for b in recorded.bodies[1:]] == \
        [i in (1, 4, 5, 7) for i in range(9)]


@pytest.mark.parametrize("failing", [2, 4, 6])
def test_failed_stage2_search_leaves_later_epochs_unrotated(served, failing):
    server, remote = served
    reg, _ = join_tables()
    linked(reg, remote, 8)
    run(reg, remote, JOIN_W)
    # z0, z3 and z6 stay empty: their searches are token-only
    insert(reg, remote, "T2", [(b"z%d" % i, b"n%d" % i) for i in (1, 2, 4, 5, 7)])
    keywords = reg.instance_for("T2", "T2.z", "T2.y").state.keywords
    before = {i: (keywords[b"z%d" % i].epoch, keywords[b"z%d" % i].placed)
              for i in range(8)}
    SearchBodies(server, fail_at=1 + failing)  # after stage one's search
    with pytest.raises(ProtocolError, match="injected failure"):
        run(reg, remote, JOIN_W)
    # the failed search was z{failing - 1}'s; no later epoch was rotated
    for i in range(failing, 8):
        record = keywords[b"z%d" % i]
        assert (record.epoch, record.placed) == before[i]


# -- client.search_many -------------------------------------------------------

class FailingEdb:
    """In-process store whose ``fail_at``-th search raises ProtocolError."""

    def __init__(self, edb, fail_at):
        self.edb = edb
        self.fail_at = fail_at
        self.searches = 0

    def execute_search(self, request):
        self.searches += 1
        if self.searches == self.fail_at:
            raise ProtocolError("injected failure")
        return self.edb.execute_search(request)


@pytest.fixture(params=["memory", "tcp"])
def backend(request):
    """A transport, the in-process database behind it, and ``fail``:
    ``fail(j)`` is the transport with its j-th search from now failed."""
    if request.param == "memory":
        edb = EncryptedDatabase()
        return edb, edb, lambda j: FailingEdb(edb, j)
    server, remote = request.getfixturevalue("served")

    def fail(j):
        SearchBodies(server, fail_at=j)  # the server replies ERROR
        return remote

    return remote, server.store.edb, fail


def searched_keywords(edb):
    """A client whose keywords k0..k7 were all searched once; since then
    k1, k4 and k6 had an add, k2 a duplicate add and k5 the delete of
    a pair never added, which changes nothing."""
    state, _ = cl.setup(ClientConfig(bf_n=2000, bf_p=1e-4, d_max=16,
                                     revoke_p=1e-2, sigma_depth=12))
    keywords = [b"k%d" % i for i in range(8)]
    for w in keywords:
        cl.update(state, cl.ADD, w, w + b"-v", edb)
    assert cl.search_many(state, keywords, edb) == \
        [{w + b"-v"} for w in keywords]
    for w in (b"k1", b"k4", b"k6"):
        cl.update(state, cl.ADD, w, w + b"-new", edb)
    cl.update(state, cl.ADD, b"k2", b"k2-v", edb)
    cl.update(state, cl.DELETE, b"k5", b"k5-gone", edb)
    return state, keywords


def test_search_many_sends_nothing_for_a_keyword_without_history(backend):
    transport, _, _ = backend
    state, keywords = searched_keywords(transport)
    recording = RecordingEdb(transport)
    assert cl.search_many(state, [b"never", b"k0", b"never"], recording) \
        == [None, {b"k0-v"}, None]
    assert cl.search_many(state, [b"never"], recording) == [None]
    assert cl.search_many(state, [], recording) == []
    assert len(recording.bodies) == 1  # k0's token
    assert b"never" not in state.keywords


def test_search_many_sends_the_frames_of_one_search_per_keyword(backend):
    transport, edb, _ = backend
    state, keywords = searched_keywords(transport)
    # full and token-only searches, a keyword without history, and k1
    # twice: its second search finds the epoch its first rotated to
    asked = keywords + [b"never", b"k1", b"k3"]
    twin = copy.deepcopy(state)
    local = RecordingEdb(copy.deepcopy(edb))
    recording = RecordingEdb(transport)
    got = cl.search_many(state, asked, recording)
    assert got == [cl.search(twin, w, local) if w in twin.keywords else None
                   for w in asked]
    assert got[1] == {b"k1-v", b"k1-new"} and got[5] == {b"k5-v"}
    assert recording.bodies == local.bodies
    assert [len(b) > 32 for b in recording.bodies] == \
        [i in (1, 2, 4, 6) for i in range(8)] + [False, False]
    assert [(twin.keywords[w].epoch, twin.keywords[w].placed)
            for w in keywords] == \
        [(state.keywords[w].epoch, state.keywords[w].placed)
         for w in keywords]


@pytest.mark.parametrize("failing", [2, 3, 5, 8])
def test_search_many_failure_leaves_later_epochs_unrotated(backend, failing):
    transport, _, fail = backend
    state, keywords = searched_keywords(transport)
    before = [(state.keywords[w].epoch, state.keywords[w].placed)
              for w in keywords]
    with pytest.raises(ProtocolError, match="injected failure"):
        cl.search_many(state, keywords + [b"never"], fail(failing))
    # the failed search was k{failing - 1}'s; no later epoch was rotated
    assert [(state.keywords[w].epoch, state.keywords[w].placed)
            for w in keywords[failing:]] == before[failing:]


# -- an index that answers wrongly ---------------------------------------------

def drop_one(cache, swap, tkn, before, results):
    return results[1:]


def foreign_slot(cache, swap, tkn, before, results):
    return list(cache.get(swap[tkn], []))


def stale_slot(cache, swap, tkn, before, results):
    return before


@pytest.fixture(params=["memory", "tcp"])
def answering(request):
    """A transport, the database that answers its searches, and that
    database's cache slots."""
    if request.param == "memory":
        edb = EncryptedDatabase()
        return edb, edb, edb.cache
    server, remote = request.getfixturevalue("served")
    return remote, server.store, server.store.edb.cache


def misbehave(db, cache, mutant, swap):
    """Makes ``db`` search honestly, so that its slots and log are the
    honest ones, but answer what ``mutant`` makes of the honest reply."""
    honest = db.execute_search

    def execute_search(request):
        before = list(cache.get(request.tkn, []))
        outcome = honest(request)
        return SearchOutcome(
            mutant(cache, swap, request.tkn, before, outcome.results),
            outcome.purged, outcome.fresh)

    db.execute_search = execute_search


WRONG_ANSWER_ROWS = {
    "T1": [(b"w", b"za"), (b"w", b"za"), (b"w", b"zb"), (b"u", b"zc")],
    "T2": [(b"za", b"p"), (b"za", b"q"), (b"zb", b"r"), (b"zc", b"s")]}
# one new pair under every keyword, so that each next search folds
WRONG_ANSWER_ADDED = {
    "T1": [(b"w", b"zd"), (b"u", b"ze")],
    "T2": [(b"za", b"t"), (b"zb", b"t2"), (b"zc", b"t3")]}


@pytest.mark.parametrize("statement, want", [
    ("SELECT T2.y FROM T2 WHERE T2.z = 'za'", [b"p", b"q", b"t"]),
    ("SELECT DISTINCT T2.y FROM T2 WHERE T2.z = 'za'", {b"p", b"q", b"t"}),
    (JOIN_W, [b"p", b"q", b"t"] * 2 + [b"r", b"t2"]),
], ids=["select", "distinct", "join"])
@pytest.mark.parametrize("mutant", [None, drop_one, foreign_slot, stale_slot],
                         ids=["honest", "drop-one", "foreign-slot",
                              "stale-slot"])
def test_a_wrong_answer_from_the_index_raises(answering, mutant, statement,
                                              want):
    transport, db, cache = answering
    reg, _ = join_tables()
    swap = {}  # each keyword's slot -> the next keyword's, in one table
    for table, columns in (("T1", ("T1.x", "T1.z")), ("T2", ("T2.z", "T2.y"))):
        rows = WRONG_ANSWER_ROWS[table]
        insert(reg, transport, table, rows)
        state = reg.instance_for(table, *columns).state
        tokens = [state.cache_token(w) for w in dict.fromkeys(w for w, _ in rows)]
        swap.update(zip(tokens, tokens[1:] + tokens[:1]))
        for w in dict.fromkeys(w for w, _ in rows):  # every slot filled
            assert run(reg, transport, f"SELECT DISTINCT {columns[1]} FROM "
                       f"{table} WHERE {columns[0]} = '{w.decode()}'") \
                == {v for x, v in rows if x == w}
        insert(reg, transport, table, WRONG_ANSWER_ADDED[table])
    if mutant is None:
        assert run(reg, transport, statement) == want
        return
    misbehave(db, cache, mutant, swap)
    with pytest.raises((IntegrityError, ProtocolError)):
        run(reg, transport, statement)
