"""Forward-private append-only placement layer.

Each label owns a chain of pseudorandom addresses: entry ``c`` lives at
``PRF(leaf_c, "addr")`` where ``leaf_c`` is leaf ``c`` of a
per-label GGM tree, rooted at ``PRF(key, "label-root" || label)``.
The saved state keeps nothing per label: the caller counts a label's
entries, names each new entry by its counter, and searches with the
count.  In memory, ``SigmaState`` keeps each label's path to its last
leaf (16 B per tree level, 336 B at depth 20) from the label's first
update until its search token, so the next counter's walk resumes
where the two paths part; it is never saved.  A
search hands the server a range-constrained key covering exactly
``[0, c)``, from which it re-derives every address of the label -- and
nothing else.  The update token is the entry's address, a PRF output of
(key, label, counter) alone, so the server learns nothing linking it to
previous updates or future searches: that is the forward-privacy
contract the audit harness spot-checks.  This layer only derives
addresses; ``client.update`` sends the entry.

Counters cap at 2^depth entries per label; the client starts a fresh
label at every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from . import ggm
from .crypto import KEY_LEN, TOKEN_LEN, encode_parts, prf

_ROOT_CTX = b"label-root"
_ID_CTX = b"label-id"
_ADDR_CTX = b"addr"


class CounterExhausted(RuntimeError):
    """A label received more than 2^depth updates."""


def _address(leaf: bytes) -> bytes:
    return prf(leaf, _ADDR_CTX)


@dataclass(frozen=True)
class SearchTokenSigma:
    """Range-delegated key plus an opaque label identifier."""

    label_id: bytes
    key: ggm.DelegatedKey

    def __post_init__(self):
        if len(self.label_id) != TOKEN_LEN:
            raise ValueError(f"label_id must be {TOKEN_LEN} bytes")

    def addresses(self) -> Iterator[bytes]:
        for _, leaf in self.key.iter_leaves():
            yield _address(leaf)

    @property
    def count(self) -> int:
        return self.key.covered_count

    def encode(self) -> bytes:
        return self.label_id + self.key.encode()


def decode_sigma_token(data: bytes, offset: int = 0) -> tuple[SearchTokenSigma, int]:
    if len(data) - offset < TOKEN_LEN:
        raise ValueError("truncated placement token")
    label_id = bytes(data[offset:offset + TOKEN_LEN])
    key, pos = ggm.decode_range_key(data, offset + TOKEN_LEN)
    return SearchTokenSigma(label_id, key), pos


@dataclass(frozen=True)
class SigmaState:
    """Placement key.  ``update`` resumes each label's walk from the
    path to that label's previous counter (``ggm.PathCache``, 16 B per
    level), kept in memory from the label's first update until
    ``search_token`` retires it; the paths are never saved."""

    key: bytes
    depth: int

    def __getstate__(self) -> dict:
        return {"key": self.key, "depth": self.depth}

    @cached_property
    def _paths(self) -> dict[bytes, ggm.PathCache]:
        return {}

    def _root(self, label: bytes) -> ggm.GgmRoot:
        seed = prf(self.key, encode_parts(_ROOT_CTX, label), KEY_LEN)
        return ggm.GgmRoot(seed, self.depth)

    def update(self, label: bytes, counter: int) -> bytes:
        """The address of entry ``counter`` of ``label``: the update
        token.  It depends on the key, label and counter alone, so a
        counter must not repeat under one label."""
        if counter >= (1 << self.depth):
            raise CounterExhausted(
                f"label chain full after {counter} updates")
        path = self._paths.get(label)
        if path is None:
            path = self._paths[label] = ggm.PathCache(self._root(label))
        return _address(path.leaf(counter))

    def search_token(self, label: bytes, count: int) -> SearchTokenSigma:
        """Token for the label's first ``count`` entries; it drops the
        label's path."""
        self._paths.pop(label, None)
        label_id = prf(self.key, encode_parts(_ID_CTX, label))
        return SearchTokenSigma(
            label_id, self._root(label).constrain_range(count))
