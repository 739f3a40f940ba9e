"""SQL-ish statement surface over encrypted tables.

Four operations (search, join, insert, delete) in five statement
shapes, one per ``_SHAPES`` entry and in its order; anything else is a
syntax error naming the offending token's position:

    SELECT DISTINCT T.y FROM T WHERE T.x = w            distinct search
    SELECT T2.y FROM T1 JOIN T2 ON T1.z = T2.z
        WHERE T1.x = w                                  two-stage join
    SELECT T.y FROM T WHERE T.x = w                     keyword search
    INSERT INTO T (T.x, T.y) VALUE (w, v)               add
    DELETE FROM T WHERE T.x = w AND T.y = v             delete all copies

A literal is ASCII digits or a quoted string, taken as its UTF-8 bytes;
a string with a lone surrogate (Python's form of a non-UTF-8 byte in
``argv``) is a syntax error at its opening quote.

Each registered (table, keyword column, value column) triple owns one
encrypted index plus a client-side quantity vector: per keyword, the
live copy-count of every value.  Every search goes through
``client.search_many``, and each distinct set it returns must equal the
keys of the keyword's quantity vector, or the statement raises
``IntegrityError``: a short, foreign or stale answer is never returned.
Distinct queries return that set; plain keyword queries expand it
through the quantity vector (order and multiplicity never leave the
client); joins run the keyword query twice, stage two as one
``search_many`` call over the distinct links, so its searches are
pipelined.
Deleting a pair removes every copy, matching the delete protocol;
deleting a pair that is not live is a no-op that sends and revokes
nothing.  A deleted pair cannot be inserted again: the client's
distinct state still holds it, so the add would be revoked on arrival.
Such an INSERT raises ``QueryError`` before anything is sent, as does
one of a value a numeric-ordered column cannot parse (see ``insert``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from . import client as cl
from .client import ClientConfig, ClientState

SYN_INS = "ins"
SYN_DEL = "del"
SYN_DSRCH = "Dsrch"
SYN_SRCH = "srch"
SYN_JOIN = "join"

ORDER_LEX = "lexicographic"
ORDER_NUMERIC = "numeric"


class StatementError(ValueError):
    """Syntax error; carries the byte offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QueryError(RuntimeError):
    """Semantic failure: unknown table/columns, bad value for the order,
    re-add of a deleted pair."""


class IntegrityError(QueryError):
    """Client quantity vector disagrees with the encrypted index."""


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
    | (?P<lit>[0-9]+|'[^']*')
    | (?P<sym>[(),=])
    )""", re.VERBOSE)

_KEYWORDS = {"select", "distinct", "from", "where", "insert", "into",
             "value", "values", "delete", "and", "join", "on"}


@dataclass(frozen=True)
class _Token:
    kind: str       # kw | ident | lit | sym
    text: str
    value: bytes | None
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            if rest.startswith("'"):
                raise StatementError("unterminated string literal", at)
            raise StatementError(f"unexpected character {rest[0]!r}", at)
        kind = m.lastgroup
        word, at, value = m.group(kind), m.start(kind), None
        if kind == "ident" and word.lower() in _KEYWORDS:
            kind = "kw"
        elif kind == "lit":
            try:  # digits as they are, a string without its quotes
                value = word.strip("'").encode()
            except UnicodeEncodeError:  # a lone surrogate
                raise StatementError("string literal is not valid UTF-8",
                                     at) from None
        tokens.append(_Token(kind, word, value, at))
        pos = m.end()
    tokens.append(_Token("end", "", None, len(text)))
    return tokens


@dataclass(frozen=True)
class QueryPlan:
    """(syn, m) pair: operation name plus its argument shape."""

    syn: str
    m: tuple


def _element(word: str) -> tuple[str, frozenset | None, str]:
    """A pattern word as (token kind, accepted texts or None for any
    text, what an error message calls it)."""
    if word == "I":
        return "ident", None, "an identifier"
    if word == "L":
        return "lit", None, "a literal (quoted string or integer)"
    if word.islower():
        return "kw", frozenset(word.split("|")), word.upper().replace("|", "/")
    return "sym", frozenset([word]), repr(word)


_END = ("end", None, "end of statement")

# The grammar: one (syn, pattern, build) entry per statement shape,
# tried in order.  In a pattern a lowercase word is a keyword (``a|b``
# accepts either), ``I`` an identifier, ``L`` a literal and anything
# else that symbol; ``build`` maps the captured identifiers and
# literals, in statement order, to the plan's ``m``.
_SHAPES = tuple(
    (syn, (*map(_element, pattern.split()), _END), build)
    for syn, pattern, build in (
        (SYN_DSRCH, "select distinct I from I where I = L",
         lambda out, t, kw, w: (t, (kw, w, out))),
        (SYN_JOIN, "select I from I join I on I = I where I = L",
         lambda out, t1, t2, left, right, kw, w:
             (t1, t2, (kw, w, left), (right, b"0", out))),
        (SYN_SRCH, "select I from I where I = L",
         lambda out, t, kw, w: (t, (kw, w, out))),
        (SYN_INS, "insert into I ( I , I ) value|values ( L , L )",
         lambda t, kw, val, w, v: (t, (kw, w, val, v))),
        (SYN_DEL, "delete from I where I = L and I = L",
         lambda t, kw, w, val, v: (t, (kw, w, val, v))),
    ))


def plan(statement: str) -> QueryPlan:
    """The plan of the first shape ``statement`` spells to its end.

    Failing all of them, the error points at the token where the
    longest partial matches stopped and names what they expected there.
    """
    tokens = _tokenize(statement)
    stop, expected = 0, []
    for syn, elements, build in _SHAPES:
        captured = []
        for i, (kind, texts, what) in enumerate(elements):
            tok = tokens[i]
            if tok.kind != kind or (texts is not None
                                    and tok.text.lower() not in texts):
                break
            if kind == "ident":
                captured.append(tok.text)
            elif kind == "lit":
                captured.append(tok.value)
        else:
            return QueryPlan(syn, build(*captured))
        if i > stop:
            stop, expected = i, []
        if i == stop and what not in expected:
            expected.append(what)
    want = expected[-1] if len(expected) == 1 else \
        f"{', '.join(expected[:-1])} or {expected[-1]}"
    tok = tokens[stop]
    got = repr(tok.text) if tok.kind != "end" else "end of statement"
    raise StatementError(f"expected {want}, got {got}", tok.position)


# -- registry and execution -------------------------------------------------

@dataclass(frozen=True)
class TableConfig:
    table: str
    keyword_column: str
    value_column: str
    value_order: str = ORDER_LEX
    bf_n: int = ClientConfig.bf_n
    bf_p: float = ClientConfig.bf_p
    d_max: int = ClientConfig.d_max

    def __post_init__(self):
        if self.value_order not in (ORDER_LEX, ORDER_NUMERIC):
            raise ValueError(
                f"value_order must be {ORDER_LEX!r} or {ORDER_NUMERIC!r}")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.table, self.keyword_column, self.value_column)

    def manifest_line(self) -> str:
        return (f"{self.table} {self.keyword_column} {self.value_column} "
                f"{self.value_order} {self.bf_n} {self.bf_p:g} {self.d_max}")


@dataclass
class TableInstance:
    config: TableConfig
    state: ClientState
    # per keyword: value -> live copy count (the quantity vector)
    qvec: dict[bytes, dict[bytes, int]] = field(default_factory=dict)

    def ordered(self, values: Iterable[bytes]) -> list[bytes]:
        if self.config.value_order == ORDER_NUMERIC:
            try:
                return sorted(values, key=lambda v: int(v.decode("ascii")))
            except (UnicodeDecodeError, ValueError) as exc:
                raise QueryError(
                    f"non-numeric value in numeric-ordered column "
                    f"{self.config.value_column}: {exc}") from exc
        return sorted(values)


class Registry:
    """All registered encrypted indexes, addressable by column triple."""

    def __init__(self):
        self.instances: dict[tuple[str, str, str], TableInstance] = {}

    def register(self, config: TableConfig,
                 sigma_depth: int = ClientConfig.sigma_depth,
                 revoke_p: float = ClientConfig.revoke_p) -> TableInstance:
        if config.key in self.instances:
            raise QueryError(f"instance already registered: {config.key}")
        state, _ = cl.setup(ClientConfig(
            bf_n=config.bf_n, bf_p=config.bf_p, d_max=config.d_max,
            revoke_p=revoke_p, sigma_depth=sigma_depth))
        instance = TableInstance(config, state)
        self.instances[config.key] = instance
        return instance

    def instance_for(self, table: str, keyword_column: str,
                     value_column: str) -> TableInstance:
        key = (table, keyword_column, value_column)
        instance = self.instances.get(key)
        if instance is None:
            known = ", ".join("/".join(k) for k in self.instances) or "none"
            raise QueryError(
                f"no index registered for {'/'.join(key)} (registered: {known})")
        return instance


def _checked(instance: TableInstance, keywords: list[bytes],
             edb) -> list[dict[bytes, int]]:
    """Each keyword's live counts, once ``client.search_many`` has found
    the index's distinct set equal to the quantity vector's keys; a
    keyword with no history answers the empty set."""
    out = []
    for keyword, found in zip(
            keywords, cl.search_many(instance.state, keywords, edb)):
        counts = instance.qvec.get(keyword, {})
        found = found or set()
        if set(counts) != found:
            raise IntegrityError(
                f"quantity vector disagrees with index for keyword "
                f"{keyword!r}: {sorted(counts)} vs {sorted(found)}")
        out.append(counts)
    return out


def insert(instance: TableInstance, keyword: bytes, value: bytes, edb) -> None:
    """The INSERT step of ``execute`` and of ``ddse ingest``: add one
    copy of the pair, or raise ``QueryError`` before anything is sent."""
    instance.ordered([value])  # a value the column cannot order raises
    if (value not in instance.qvec.get(keyword, ())
            and cl.is_duplicate(instance.state, keyword, value)):
        raise QueryError(
            f"cannot re-add deleted pair {keyword!r}/{value!r}: the distinct "
            f"state still holds it; nothing was sent")
    cl.update(instance.state, cl.ADD, keyword, value, edb)
    counts = instance.qvec.setdefault(keyword, {})
    counts[value] = counts.get(value, 0) + 1


def _rows(instance: TableInstance, counts: dict[bytes, int]) -> list[bytes]:
    """The values in the column's order, each as often as it is live."""
    return [v for v in instance.ordered(counts) for _ in range(counts[v])]


def execute(registry: Registry, query: QueryPlan, edb):
    """Run one plan; returns set (Dsrch), list (srch/join) or None."""
    if query.syn in (SYN_INS, SYN_DEL):
        table, (kw_col, w, val_col, v) = query.m
        instance = registry.instance_for(table, kw_col, val_col)
        if query.syn == SYN_INS:
            insert(instance, w, v, edb)
        elif v in instance.qvec.get(w, ()):  # not live: nothing to revoke
            cl.update(instance.state, cl.DELETE, w, v, edb)
            del instance.qvec[w][v]
        return None
    if query.syn in (SYN_DSRCH, SYN_SRCH):
        table, (kw_col, w, val_col) = query.m
        instance = registry.instance_for(table, kw_col, val_col)
        (counts,) = _checked(instance, [w], edb)
        return set(counts) if query.syn == SYN_DSRCH else _rows(instance, counts)
    if query.syn == SYN_JOIN:
        t1, t2, (kw_col, w, join_col), (join_col2, _, val_col) = query.m
        first = registry.instance_for(t1, kw_col, join_col)
        stage1 = _rows(first, *_checked(first, [w], edb))
        instance = registry.instance_for(t2, join_col2, val_col)
        # one search per distinct link: searching a link once per copy
        # would show the server its multiplicity through a repeated token
        links = list(dict.fromkeys(stage1))
        rows = {link: _rows(instance, counts)
                for link, counts in zip(links, _checked(instance, links, edb))}
        return [v for link in stage1 for v in rows[link]]
    raise ValueError(f"unknown plan kind {query.syn!r}")


def exec_statement(registry: Registry, statement: str, edb):
    return execute(registry, plan(statement), edb)
