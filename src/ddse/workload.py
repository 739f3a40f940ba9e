"""Deterministic synthetic workloads for tests, audits and benchmarks.

A spec fixes keyword count, update count, duplicate and delete rates,
and the keyword popularity distribution; `generate` expands it into an
update-op list that is reproducible from the seed alone.  Generated
workloads never re-add a deleted pair, which the update protocol treats
as unrecoverable, so every generated sequence is exactly replayable
against an encrypted index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .client import ADD, DELETE

DIST_UNIFORM = "uniform"
DIST_ZIPF = "zipf"

VALUE_LEN = 8  # bytes per generated value: keyword index, then counter


@dataclass(frozen=True)
class WorkloadSpec:
    keywords: int = 10
    updates: int = 200
    duplicate_ratio: float = 0.3     # chance an add repeats a live value
    delete_fraction: float = 0.1     # chance an op deletes a live pair
    distribution: str = DIST_UNIFORM
    zipf_s: float = 1.2
    seed: int = 0

    def __post_init__(self):
        if self.keywords < 1 or self.updates < 0:
            raise ValueError("need at least one keyword and updates >= 0")
        if not 0 <= self.duplicate_ratio <= 1:
            raise ValueError("duplicate_ratio out of range")
        if not 0 <= self.delete_fraction < 1:
            raise ValueError("delete_fraction out of range")
        if self.distribution not in (DIST_UNIFORM, DIST_ZIPF):
            raise ValueError(f"unknown distribution {self.distribution!r}")


def keyword_name(i: int) -> bytes:
    return f"keyword-{i:06d}".encode()


def value_bytes(i: int, ctr: int, value_len: int) -> bytes:
    """The ``ctr``-th value of keyword ``i``, padded to ``value_len``."""
    return (i.to_bytes(4, "big") + ctr.to_bytes(4, "big")).ljust(
        value_len, b"\0")


_value = value_bytes  # the name tests/test_acceptance.py uses


def generate(spec: WorkloadSpec) -> list[tuple]:
    """Expand a spec into (ADD, w, v) / (DELETE, w, v) ops."""
    rng = random.Random(spec.seed)
    if spec.distribution == DIST_ZIPF:
        weights = [1.0 / (r + 1) ** spec.zipf_s for r in range(spec.keywords)]
    else:
        weights = None
    live: dict[int, list[bytes]] = {i: [] for i in range(spec.keywords)}
    counters = [0] * spec.keywords
    ops: list[tuple] = []
    for _ in range(spec.updates):
        deletable = [i for i in range(spec.keywords) if live[i]]
        if deletable and rng.random() < spec.delete_fraction:
            i = rng.choice(deletable)
            v = live[i].pop(rng.randrange(len(live[i])))
            ops.append((DELETE, keyword_name(i), v))
            continue
        if weights is None:
            i = rng.randrange(spec.keywords)
        else:
            i = rng.choices(range(spec.keywords), weights)[0]
        if live[i] and rng.random() < spec.duplicate_ratio:
            v = rng.choice(live[i])
        else:
            # monotone counter: fresh values never collide with deleted ones
            v = value_bytes(i, counters[i], VALUE_LEN)
            counters[i] += 1
            live[i].append(v)
        ops.append((ADD, keyword_name(i), v))
    return ops


def distinct_sets(ops) -> dict[bytes, set[bytes]]:
    """Plaintext reference: live distinct values per keyword."""
    live: dict[bytes, set[bytes]] = {}
    for kind, w, v in ops:
        if kind == ADD:
            live.setdefault(w, set()).add(v)
        elif kind == DELETE:
            live.setdefault(w, set()).discard(v)
        else:
            raise ValueError(f"unknown op {kind!r}")
    return live
