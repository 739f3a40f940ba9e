"""Distinct-search client: update and search protocols.

The client keeps three master keys (cache tokens, tags, value
encryption), a placement key, a large distinct-state Bloom filter, and
one ``KeywordState`` record per keyword: the epoch's revocable master
key, whose filter is the epoch's revocation filter, the epoch number,
the dummy-tag counter and the counts of entries placed and of tags
revoked this epoch.  The moving parts fit together like this:

* Every (keyword, value) pair owns a *real* tag ``F(K_t, w||v||0)``.
  The first add of a pair uploads a ciphertext under the real tag and
  marks the pair in the distinct-state filter.  Any further add of the
  same pair is a *duplicate*: it uploads a same-shaped ciphertext under
  a one-time dummy tag ``F(K_t, w||v||cnt)`` and immediately revokes
  that tag, so the server stores an indistinguishable entry that can
  never decrypt.  Deletes upload nothing and revoke the real tag.
  ``is_duplicate`` is that classification, as ``update`` makes it.
  The server-visible update stream is therefore independent of how
  often a value repeats -- the volume-hiding property.

* Uploads are placed through the forward-private layer under an
  epoch label ``PRF(w || epoch)``: ``SigmaState.update`` derives the
  entry's address, and ``update`` sends it with the entry, the one
  place an UPDATE leaves the client.  A search sends the punctured
  key for the current epoch plus the placement token; the server
  decrypts the epoch's list, throws away (and purges) everything
  revoked, folds in the cached results of earlier epochs, and returns
  one retrieval per distinct live value.  The client then rotates the
  epoch: a fresh key sized by ``ClientConfig``, with an empty filter,
  next label, no entries placed.  The rotation keeps later adds unlinkable
  once a key has been revealed, so an *empty* epoch (nothing placed
  and nothing revoked since the keyword's last search) is not
  rotated: its search sends the cache token alone, the server answers
  from the cache, and the epoch's keys never leave the client.  An
  epoch with a revocation is never kept, even with nothing placed: a
  later add of the revoked pair (say, after a delete of a pair never
  added) would be encrypted under a filter that already revokes it.

* ``search_many`` builds, sends and reads every search, the one place
  a SEARCH leaves the client.  Over a
  pipelining transport its searches go out back to back, but a full
  search rotates its epoch before its reply arrives, so it is built
  only once every earlier reply has been read: a lost reply strands
  no more epochs than searching one keyword at a time.

Deletion visibility rule: a delete takes effect through revocation of
the current epoch's ciphertext.  Once a value's retrieval has entered
the server cache (i.e. the pair was searched after its add), a later
delete cannot claw it back out; deletes are only reliable for pairs
whose first add has not yet been consumed by a search.  Re-adding a
deleted pair is likewise unsupported: the distinct-state filter still
remembers the pair, so the re-add is classified as a duplicate and
revoked on arrival; ``ddse.query`` refuses such an INSERT.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import bloom, sre
from .crypto import (GCM_TAG_LEN, KEY_LEN, NONCE_LEN, TAG_LEN, TOKEN_LEN,
                     encode_parts, fresh_key, fresh_nonce, prf)
from .edb import EncryptedDatabase, SearchRequest, encode_entry
from .fpdse import SigmaState

logger = logging.getLogger(__name__)

ADD = "add"
DELETE = "del"

_COUNTER_LEN = 8


class ProtocolError(RuntimeError):
    """A retrieval failed authentication, or a reply was malformed."""


class UnknownKeywordError(LookupError):
    """Search for a keyword that was never updated."""


class DuplicateRefused(ValueError):
    """An add refused by ``update(refuse_duplicate=True)``: the pair's
    next add would be a duplicate; nothing was sent."""


@dataclass
class ClientConfig:
    bf_n: int = 2 ** 20         # distinct-state capacity (pairs)
    bf_p: float = 1e-5          # distinct-state false-positive budget
    d_max: int = 1000           # per-keyword revocations per epoch
    revoke_p: float = 1e-3      # revocation-filter false-positive budget
    sigma_depth: int = 20

    def sre_params(self) -> tuple[int, int]:
        """Power-of-two revocation domain for ``d_max`` revocations at
        ``revoke_p``; every keyword's tree has this size."""
        b_raw, h = bloom.size_for(self.d_max, self.revoke_p)
        b = 1 << (max(b_raw, 2) - 1).bit_length()
        return b, h


@dataclass
class KeywordState:
    """One keyword's state; ``msk.D`` is the epoch's revocation filter.
    A rotation resets ``placed`` and ``revoked``, and sizes its new key
    from ``ClientConfig``, not from the old one."""

    msk: sre.SreMasterKey
    epoch: int = 0
    updates: int = 1    # dummy-tag counter (0 is the real tag's); never
                        # reset, so no pair's dummy tag repeats across epochs
    placed: int = 0     # entries under this epoch's label
    revoked: int = 0    # revocations this epoch, counted even when all
                        # the tag's bits were set; a state saved without
                        # the field reads this class default

    @property
    def empty_epoch(self) -> bool:
        """Nothing placed or revoked since the keyword's last search: its
        search sends the cache token alone and rotates nothing."""
        return not self.placed and not self.msk.D.inserted


@dataclass
class ClientState:
    k_search: bytes             # cache tokens tkn = F(., w)
    k_tag: bytes                # real/dummy tags
    k_value: bytes              # retrieval value encryption
    distinct_filter: bloom.BloomFilter
    sigma: SigmaState
    config: ClientConfig
    keywords: dict[bytes, KeywordState] = field(default_factory=dict)

    def label_for(self, keyword: bytes, epoch: int) -> bytes:
        key = prf(self.k_search, b"epoch-label-key")
        return prf(key, encode_parts(keyword) + epoch.to_bytes(8, "big"))

    def cache_token(self, keyword: bytes) -> bytes:
        return prf(self.k_search, encode_parts(keyword), TOKEN_LEN)

    def real_tag(self, keyword: bytes, value: bytes) -> bytes:
        return prf(self.k_tag,
                   encode_parts(keyword, value) + bytes(_COUNTER_LEN), TAG_LEN)

    def dummy_tag(self, keyword: bytes, value: bytes, cnt: int) -> bytes:
        if cnt < 1:
            raise ValueError("counter 0 is reserved for the real tag")
        return prf(self.k_tag,
                   encode_parts(keyword, value) + cnt.to_bytes(_COUNTER_LEN, "big"),
                   TAG_LEN)


def setup(config: Optional[ClientConfig] = None
          ) -> tuple[ClientState, EncryptedDatabase]:
    config = config or ClientConfig()
    b, h = bloom.size_for(config.bf_n, config.bf_p)
    state = ClientState(
        k_search=fresh_key(KEY_LEN),
        k_tag=fresh_key(KEY_LEN),
        k_value=fresh_key(KEY_LEN),
        distinct_filter=bloom.BloomFilter(b, h, fresh_key(KEY_LEN)),
        sigma=SigmaState(fresh_key(KEY_LEN), config.sigma_depth),
        config=config,
    )
    return state, EncryptedDatabase()


def _revoke(state: ClientState, keyword: bytes, record: KeywordState,
            positions: list[int]):
    """Revoke the tag whose positions in the epoch's filter these are."""
    record.msk.D.insert_at(positions)
    record.revoked += 1
    if record.revoked == state.config.d_max + 1:  # warn once per epoch
        logger.warning(
            "keyword %r exceeded its revocation budget (%d) this epoch; "
            "false-revocation rate degrades beyond the configured bound",
            keyword, state.config.d_max)


def _epoch_key(config: ClientConfig) -> sre.SreMasterKey:
    """A new epoch's key, a keyword's first or a rotation's alike."""
    return sre.kgen(*config.sre_params())


def _classified(state: ClientState, keyword: bytes, value: bytes
                ) -> tuple[bytes, list[int], bool]:
    """The pair's real tag, its distinct-filter positions, and whether
    an add of it is a duplicate."""
    real = state.real_tag(keyword, value)
    spots = state.distinct_filter.positions(real)
    return real, spots, state.distinct_filter.check_at(spots)


def is_duplicate(state: ClientState, keyword: bytes, value: bytes) -> bool:
    """Whether an add of the pair now is a duplicate, revoked on arrival."""
    return _classified(state, keyword, value)[2]


def encrypt_retrieval(state: ClientState, value: bytes, cnt: int) -> bytes:
    nonce = fresh_nonce()
    body = AESGCM(state.k_value).encrypt(
        nonce, value + cnt.to_bytes(_COUNTER_LEN, "big"), None)
    return nonce + body


def update(state: ClientState, op: str, keyword: bytes, value: bytes,
           edb, *, refuse_duplicate: bool = False) -> None:
    """One add/delete.  ``edb`` needs only ``apply_update``.

    Adds send exactly one fixed-shape entry, through one
    ``edb.apply_update`` call; deletes send nothing.  The state changes
    only once that call has returned: an add whose send raises leaves
    the state as it was, so a retry is classified as the first try was.
    With ``refuse_duplicate`` an add that would be a duplicate raises
    ``DuplicateRefused`` instead, before anything is sent or changed.
    """
    if op not in (ADD, DELETE):
        raise ValueError(f"op must be {ADD!r} or {DELETE!r}, got {op!r}")
    real, spots, held = _classified(state, keyword, value)
    if held and refuse_duplicate and op == ADD:
        raise DuplicateRefused(keyword, value)
    record = state.keywords.get(keyword) or KeywordState(
        _epoch_key(state.config))
    cnt = record.updates

    if op == ADD:
        tag = state.dummy_tag(keyword, value, cnt) if held else real
        positions = record.msk.D.positions(tag)
        retrieval = encrypt_retrieval(state, value, cnt)
        ciphertext = sre.enc(record.msk, retrieval, tag, positions)
        address = state.sigma.update(state.label_for(keyword, record.epoch),
                                     record.placed)
        edb.apply_update(address, encode_entry(ciphertext, tag))
        record.placed += 1
        if held:
            _revoke(state, keyword, record, positions)  # dummy dies on arrival
        else:
            state.distinct_filter.insert_at(spots)
            if state.distinct_filter.inserted == state.config.bf_n + 1:
                logger.warning(
                    "distinct-state filter past design capacity (%d pairs); "
                    "duplicate misclassification rate degrades",
                    state.config.bf_n)
    else:
        if not held:
            logger.warning("delete of never-added pair under keyword %r",
                           keyword)
        _revoke(state, keyword, record, record.msk.D.positions(real))

    record.updates = cnt + 1
    state.keywords[keyword] = record


def search_client_token(state: ClientState, keyword: bytes) -> SearchRequest:
    """Build the search request and, unless the epoch is empty, rotate
    the keyword's epoch.

    Raises UnknownKeywordError for a keyword with no update history.
    """
    record = state.keywords.get(keyword)
    if record is None:
        raise UnknownKeywordError(keyword)
    tkn = state.cache_token(keyword)
    if record.empty_epoch:
        return SearchRequest(tkn)  # the epoch's keys stay unrevealed
    msk = record.msk
    request = SearchRequest(
        tkn=tkn,
        revoked_key=sre.ck_rev(msk.sk, msk.D),
        sigma_token=state.sigma.search_token(
            state.label_for(keyword, record.epoch), record.placed),
    )
    record.msk = _epoch_key(state.config)
    record.epoch += 1
    record.placed = 0
    record.revoked = 0
    return request


def search_finalize(state: ClientState, retrievals: Iterable[bytes]
                    ) -> set[bytes]:
    """Decrypt retrievals to the distinct value set."""
    aead = AESGCM(state.k_value)
    values = set()
    for blob in retrievals:
        if len(blob) < NONCE_LEN + GCM_TAG_LEN + _COUNTER_LEN:
            raise ProtocolError("retrieval too short")
        try:
            plain = aead.decrypt(
                blob[:NONCE_LEN], blob[NONCE_LEN:], None)
        except InvalidTag as exc:
            raise ProtocolError("retrieval failed authentication") from exc
        values.add(plain[:-_COUNTER_LEN])
    return values


def search_many(state: ClientState, keywords: Iterable[bytes], edb
                ) -> list[Optional[set[bytes]]]:
    """Each keyword's distinct values, in order, searched through
    ``edb.execute_search``; None, and nothing sent, for a keyword with
    no update history.  A full search is built only once every earlier
    reply has been read; token-only searches go out without waiting."""
    outcomes = []
    unread = []
    for keyword in keywords:
        record = state.keywords.get(keyword)
        if record is None:
            outcomes.append(None)
            continue
        if not record.empty_epoch:
            for outcome in unread:
                outcome.results  # waits for its reply
            unread.clear()
        outcome = edb.execute_search(search_client_token(state, keyword))
        outcomes.append(outcome)
        unread.append(outcome)
    return [None if outcome is None
            else search_finalize(state, outcome.results)
            for outcome in outcomes]


def search(state: ClientState, keyword: bytes, edb) -> set[bytes]:
    """``search_many`` of one keyword; raises UnknownKeywordError for a
    keyword with no update history."""
    (found,) = search_many(state, [keyword], edb)
    if found is None:
        raise UnknownKeywordError(keyword)
    return found
