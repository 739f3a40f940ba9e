"""Server-held encrypted database: main address map plus result cache.

The main map stores opaque entries (revocable ciphertext + tag) under
pseudorandom addresses; the cache keeps, per search token, the
retrievals already surfaced by earlier searches so re-encrypted history
never has to be replayed.  Search executes entirely on delegated key
material: the request carries a punctured revocable-encryption key, the
filter snapshot defining tag positions, and a range-constrained
placement token -- or, when the keyword's epoch is empty, none of
these (``UNSENT``), so the cache slot is the whole answer.
``ddse.store`` logs each change and replays its log through these same
operations.  Nothing in this module touches client master keys -- it
must stay importable by server code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from . import fpdse, sre
from .crypto import TAG_LEN, TOKEN_LEN


class AddressCollision(RuntimeError):
    """Two updates mapped to one address (a 2^-128 event, or a bug)."""


class Unsent:
    """The key parts a token-only search leaves out.

    It stands in for both the revoked key and the placement token, with
    every attribute the real parts have at its empty value: it encodes
    to no bytes, has no cover nodes and covers no placed entry.  So
    ``execute_search``, the SEARCH encoder and code that measures a
    request's parts take both forms down one path.
    """

    nodes = ()
    encoded_size = count = 0
    label_id = b""

    @property
    def key(self) -> "Unsent":
        return self

    filter = key

    def addresses(self) -> Iterable[bytes]:
        return ()

    def encode(self) -> bytes:
        return b""


UNSENT = Unsent()


@dataclass(frozen=True)
class SearchRequest:
    """What the client hands the server for one keyword search: the
    cache token alone (both parts ``UNSENT``) when the epoch is empty."""

    tkn: bytes                   # cache slot, PRF(K_s, w)
    revoked_key: sre.RevokedKey | Unsent = UNSENT
    sigma_token: fpdse.SearchTokenSigma | Unsent = UNSENT

    def __post_init__(self):
        if len(self.tkn) != TOKEN_LEN:
            raise ValueError(f"tkn must be {TOKEN_LEN} bytes")
        if (self.revoked_key is UNSENT) != (self.sigma_token is UNSENT):
            raise ValueError("a search carries both keys or neither")

    @property
    def token_only(self) -> bool:
        return self.revoked_key is UNSENT


@dataclass
class SearchOutcome:
    results: list[bytes]            # NV + OV, in response order
    purged: list[bytes] = field(default_factory=list)  # addresses dropped
    fresh: int = 0                  # results[:fresh] surfaced by this search


def encode_entry(ct: sre.SreCiphertext, tag: bytes) -> bytes:
    if len(tag) != TAG_LEN:
        raise ValueError(f"tag must be {TAG_LEN} bytes")
    return ct.encode() + tag


def decode_entry(payload: bytes) -> tuple[sre.SreCiphertext, bytes]:
    """[ciphertext][tag:16]; raises ValueError on an entry of an older
    layout rather than letting it fail decryption and be purged."""
    split = len(payload) - TAG_LEN
    return sre.decode_ciphertext(payload[:split]), bytes(payload[split:])


class EncryptedDatabase:
    """In-memory store; ``ddse.store`` wraps this with a log."""

    def __init__(self):
        self.main: dict[bytes, bytes] = {}
        self.cache: dict[bytes, list[bytes]] = {}

    def apply_update(self, address: bytes, payload: bytes) -> None:
        if address in self.main:
            raise AddressCollision(f"address reused: {address.hex()}")
        self.main[address] = payload

    def execute_search(self, request: SearchRequest) -> SearchOutcome:
        """Decrypt the epoch's list, purge revoked entries, fold the cache.

        New valid retrievals come first in placement order, then the
        cached ones (see ``fold_fresh``).  ``sre.dec`` finds a revoked
        entry in the filter alone, so key work is paid only for the
        entries that survive: one leaf evaluation each.  A token-only
        request places no address, so the cache slot is its answer.
        """
        fresh: list[bytes] = []
        purged: list[bytes] = []
        for address in request.sigma_token.addresses():
            payload = self.main.get(address)
            if payload is None:
                continue  # already purged by an earlier search
            ct, tag = decode_entry(payload)
            value = sre.dec(request.revoked_key, ct, tag)
            if value is None:
                purged.append(address)
            else:
                fresh.append(value)
        # purge only after the whole list decoded, so an entry that does
        # not decode raises before the store changes
        for address in purged:
            del self.main[address]
        merged = self.fold_fresh(request.tkn, fresh)
        return SearchOutcome(merged, purged, len(fresh))

    def fold_fresh(self, tkn: bytes, fresh: list[bytes]) -> list[bytes]:
        """The cache merge rule, shared by searches and log replay:
        ``fresh + [r for r in old if r not in fresh]``.  Returns a copy
        of the slot.  With nothing fresh the slot is left as it was, so
        an empty slot is never created: absent and empty are one state.
        """
        old = self.cache.get(tkn, [])
        if not fresh:
            return list(old)
        seen = set(fresh)
        merged = fresh + [r for r in old if r not in seen]
        self.cache[tkn] = merged
        return list(merged)
