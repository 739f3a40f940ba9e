"""Forward-private append-only placement layer.

Each label owns a chain of pseudorandom addresses: entry ``c`` lives at
``KeyedHash(leaf_c, "addr")`` where ``leaf_c`` is leaf ``c`` of a
per-label GGM tree.  Updates walk the chain forward; a search hands the
server a range-constrained key covering exactly ``[0, c)``, from which
it re-derives every address of the label -- and nothing else.  Because
an update token is a PRF output of (key, label, counter) alone, the
server learns nothing linking it to previous updates or future searches:
that is the forward-privacy contract the audit harness spot-checks.

Counters cap at 2^depth updates per label (depth 20 by default); the
scheme layer rotates to a fresh label per epoch long before that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from . import ggm
from .crypto import KEY_LEN, TOKEN_LEN, encode_parts, keyed_hash

DEFAULT_DEPTH = 20

_ROOT_CTX = b"label-root"
_ID_CTX = b"label-id"
_ADDR_CTX = b"addr"


class CounterExhausted(RuntimeError):
    """A label received more than 2^depth updates."""


def _address(leaf: bytes) -> bytes:
    return keyed_hash(leaf, _ADDR_CTX)


@dataclass(frozen=True)
class UpdateToken:
    address: bytes
    payload: bytes


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


@dataclass
class _LabelChain:
    root: ggm.GgmRoot
    counter: int = 0
    path: ggm.PathCache | None = None

    def leaf(self, index: int) -> bytes:
        if self.path is None:
            self.path = ggm.PathCache(self.root)
        return self.path.leaf(index)


@dataclass
class SigmaState:
    key: bytes
    depth: int = DEFAULT_DEPTH
    chains: dict[bytes, _LabelChain] = field(default_factory=dict)

    def _chain(self, label: bytes) -> _LabelChain:
        chain = self.chains.get(label)
        if chain is None:
            seed = keyed_hash(self.key, encode_parts(_ROOT_CTX, label))[:KEY_LEN]
            chain = _LabelChain(ggm.gen_root(seed, self.depth))
            self.chains[label] = chain
        return chain

    def update(self, label: bytes, payload: bytes, edb) -> UpdateToken:
        """Place ``payload`` at the label's next address via ``edb``.

        ``edb`` only needs ``apply_update(address, payload)``, so the
        token can be shipped over a wire transport transparently.
        """
        chain = self._chain(label)
        if chain.counter >= (1 << self.depth):
            raise CounterExhausted(
                f"label chain full after {chain.counter} updates")
        token = UpdateToken(_address(chain.leaf(chain.counter)), payload)
        edb.apply_update(token.address, token.payload)
        chain.counter += 1
        return token

    def search_token(self, label: bytes) -> SearchTokenSigma:
        """Token for all current entries; empty coverage if none exist."""
        label_id = keyed_hash(self.key, encode_parts(_ID_CTX, label))
        chain = self.chains.get(label)
        if chain is None or chain.counter == 0:
            return SearchTokenSigma(
                label_id, ggm.DelegatedKey(ggm.RANGE, self.depth, ()))
        return SearchTokenSigma(
            label_id, chain.root.constrain_range(chain.counter))

    def retire(self, label: bytes) -> SearchTokenSigma:
        """Final search token for ``label``; its chain is dropped.

        The label must take no further updates: a new chain would start
        again at the retired addresses.
        """
        token = self.search_token(label)
        self.chains.pop(label, None)
        return token
