"""Leakage audit harness: transcripts, designed-leakage patterns, and
black-box privacy checks run against recorded client traffic.

The recorder taps the client/server boundary: every update and search is
captured as the exact frame bytes it would occupy on the wire, together
with an oracle side channel (the plaintext operation) that the checks may
use to group frames but that an adversary never sees.  Three audits run
over such transcripts:

* ``compute_patterns`` evaluates the scheme's declared leakage per search:
  which earlier search asked the same keyword, the update timestamps for
  the keyword, the first-insertion times of the distinct values still
  live, and the combined duplicate/delete count.  Anything an audit flags
  must exceed this baseline to count as a violation.

* ``dwvh_game`` plays the distinct-volume indistinguishability experiment:
  two challenge workloads that agree on every keyword's distinct value
  count (and on the total number of updates) but disagree on duplicate
  counts must produce identical observable signatures - update frame
  sizes, per-search result counts, response sizes.

* ``fp_check`` audits update traffic for forward privacy: addresses must
  never repeat, frames carrying equal-sized plaintexts must be equal
  sized, and no keyword or value bytes may survive into the frames.

``record(ops, mutant=True)`` swaps in a deliberately broken transport that
stamps the plaintext keyword into every update address.  It exists as a
negative control: an audit that cannot fail is not an audit.  Mutant
transcripts are only meaningful for update traffic; searches will miss
the relocated entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import client as cl
from . import wire
from .client import ClientConfig, UnknownKeywordError
from .edb import EncryptedDatabase

OP_ADD = "add"
OP_DEL = "del"
OP_SEARCH = "search"


@dataclass
class TranscriptEvent:
    kind: str                    # "update" or "search"
    frame: bytes                 # client -> server, full wire frame
    response: Optional[bytes]    # server -> client (searches only)
    note: dict                   # oracle annotations, not adversary-visible


@dataclass
class Transcript:
    events: list[TranscriptEvent] = field(default_factory=list)
    # oracle log of every client operation in order, including the ones
    # that put nothing on the wire (deletes): ("add"|"del", time, w, v)
    # with a 1-based update timestamp, or ("search", None, w).
    ops: list[tuple] = field(default_factory=list)

    def updates(self) -> list[TranscriptEvent]:
        return [e for e in self.events if e.kind == "update"]

    def searches(self) -> list[TranscriptEvent]:
        return [e for e in self.events if e.kind == "search"]

    def update_frame_sizes(self) -> list[int]:
        return [len(e.frame) for e in self.updates()]

    def keywords(self) -> set[bytes]:
        return {entry[2] for entry in self.ops}

    def dump(self, limit: Optional[int] = None) -> str:
        lines = []
        shown = self.events if limit is None else self.events[:limit]
        for i, e in enumerate(shown):
            lines.append(f"{i:4d} {e.kind:6s} {len(e.frame):6d}B "
                         f"{e.frame[:24].hex()}...")
            if e.response is not None:
                lines.append(f"     reply  {len(e.response):6d}B "
                             f"{e.response[:24].hex()}...")
        if limit is not None and len(self.events) > limit:
            lines.append(f"     ... {len(self.events) - limit} more events")
        return "\n".join(lines)


class _CapturingEdb:
    """Transport tap: forwards to an in-memory store while recording the
    frame bytes each call would occupy on the wire."""

    def __init__(self, inner: EncryptedDatabase, transcript: Transcript):
        self.inner = inner
        self.transcript = transcript
        self.context: dict = {}

    def apply_update(self, address: bytes, payload: bytes) -> None:
        frame = wire.pack_frame(wire.UPDATE,
                                wire.encode_update_body(address, payload))
        self.transcript.events.append(
            TranscriptEvent("update", frame, None, dict(self.context)))
        self.inner.apply_update(address, payload)

    def execute_search(self, request):
        frame = wire.pack_frame(wire.SEARCH, wire.encode_search_body(request))
        outcome = self.inner.execute_search(request)
        response = wire.pack_frame(wire.RESULT,
                                   wire.encode_result_body(outcome.results))
        note = dict(self.context, results=len(outcome.results))
        self.transcript.events.append(
            TranscriptEvent("search", frame, response, note))
        return outcome


class _KeywordEmbeddingEdb(_CapturingEdb):
    """Negative control: stamps the plaintext keyword into every update
    address, the kind of transport bug fp_check exists to catch."""

    def __init__(self, inner, transcript):
        super().__init__(inner, transcript)
        self._n = 0

    def apply_update(self, address: bytes, payload: bytes) -> None:
        self._n += 1
        keyword = self.context.get("keyword", b"")
        # counter keeps the addresses distinct; the leak is the prefix
        mangled = (keyword[:24].ljust(24, b"\0")
                   + self._n.to_bytes(8, "big"))
        super().apply_update(mangled, payload)


def record(ops: Iterable[tuple], mutant: bool = False,
           config: Optional[ClientConfig] = None) -> Transcript:
    """Run a workload against a fresh client and capture its traffic.

    ``ops`` is a sequence of ("add", w, v), ("del", w, v) and
    ("search", w) tuples.  Searches for never-updated keywords are
    client-local failures and put nothing on the wire.
    """
    state, _ = cl.setup(config or ClientConfig(
        bf_n=4096, bf_p=1e-4, d_max=64, revoke_p=1e-2, sigma_depth=14))
    transcript = Transcript()
    taps = _KeywordEmbeddingEdb if mutant else _CapturingEdb
    edb = taps(EncryptedDatabase(), transcript)
    time = 0
    for op in ops:
        kind = op[0]
        if kind in (OP_ADD, OP_DEL):
            _, w, v = op
            time += 1
            transcript.ops.append((kind, time, w, v))
            edb.context = {"op": kind, "keyword": w, "value": v,
                           "time": time}
            cl.update(state, cl.ADD if kind == OP_ADD else cl.DELETE,
                      w, v, edb)
        elif kind == OP_SEARCH:
            _, w = op
            transcript.ops.append((OP_SEARCH, None, w))
            edb.context = {"op": OP_SEARCH, "keyword": w}
            try:
                found = cl.search(state, w, edb)
            except UnknownKeywordError:
                pass
            else:
                transcript.events[-1].note["distinct"] = len(found)
        else:
            raise ValueError(f"unknown workload op {kind!r}")
    return transcript


# -- designed leakage ---------------------------------------------------------

@dataclass(frozen=True)
class SearchLeakage:
    """What one search is allowed to reveal, per the leakage functions."""

    qeq: int                        # index of the first search on this keyword
    update_times: tuple[int, ...]   # timestamps of updates on the keyword
    time_dts: frozenset             # {(first_add_time, value)} still live
    ulen: int                       # len(update_times)
    drlen: int                      # updates that were duplicates or deletes


def compute_patterns(transcript: Transcript) -> list[SearchLeakage]:
    """Evaluate the declared per-search leakage over the oracle op log."""
    live: dict[bytes, dict[bytes, int]] = {}
    times: dict[bytes, list[int]] = {}
    searched: list[bytes] = []
    out: list[SearchLeakage] = []
    for entry in transcript.ops:
        kind = entry[0]
        if kind == OP_ADD:
            _, t, w, v = entry
            times.setdefault(w, []).append(t)
            live.setdefault(w, {}).setdefault(v, t)
        elif kind == OP_DEL:
            _, t, w, v = entry
            times.setdefault(w, []).append(t)
            live.setdefault(w, {}).pop(v, None)
        else:
            _, _, w = entry
            idx = len(out)
            qeq = searched.index(w) if w in searched else idx
            ulen = len(times.get(w, ()))
            tdts = frozenset((t0, v) for v, t0 in live.get(w, {}).items())
            out.append(SearchLeakage(qeq=qeq,
                                     update_times=tuple(times.get(w, ())),
                                     time_dts=tdts, ulen=ulen,
                                     drlen=ulen - len(tdts)))
            searched.append(w)
    return out


# -- distinct-volume hiding ----------------------------------------------------

def transcript_signature(transcript: Transcript):
    """The adversary's view reduced to what may legitimately vary between
    runs: update frame sizes in order, then per-search result count and
    response size.  Search request sizes are excluded because the
    revocable-key component legitimately grows with local revocations."""
    updates = tuple(len(e.frame) for e in transcript.updates())
    searches = tuple((e.note["results"], len(e.response))
                     for e in transcript.searches())
    return updates, searches


@dataclass
class DwvhResult:
    ok: bool
    detail: str
    signature0: tuple
    signature1: tuple

    def __str__(self):
        return f"{'PASS' if self.ok else 'FAIL'}: {self.detail}"


def _dwvh_value(i: int, j: int, value_len: int) -> bytes:
    return (i.to_bytes(4, "big") + j.to_bytes(4, "big")).ljust(
        value_len, b"\0")


def _dwvh_workload(volumes: Sequence[tuple[int, int]],
                   value_len: int) -> list[tuple]:
    ops = []
    for i, (distinct, total) in enumerate(volumes):
        w = f"kw-{i:06d}".encode()
        for j in range(distinct):
            ops.append((OP_ADD, w, _dwvh_value(i, j, value_len)))
        for k in range(total - distinct):
            ops.append((OP_ADD, w, _dwvh_value(i, k % distinct, value_len)))
    for i in range(len(volumes)):
        ops.append((OP_SEARCH, f"kw-{i:06d}".encode()))
    return ops


def _dwvh_validate(volumes0, volumes1):
    if len(volumes0) != len(volumes1):
        raise ValueError("challenges must cover the same keywords")
    for i, ((l0, t0), (l1, t1)) in enumerate(zip(volumes0, volumes1)):
        for l, t in ((l0, t0), (l1, t1)):
            if not 1 <= l <= t:
                raise ValueError(
                    f"keyword {i}: need 1 <= distinct <= total, "
                    f"got ({l}, {t})")
        if l0 != l1:
            raise ValueError(
                f"keyword {i}: distinct volumes must match ({l0} != {l1}); "
                f"distinct volume is declared leakage")
    n0 = sum(t for _, t in volumes0)
    n1 = sum(t for _, t in volumes1)
    if n0 != n1:
        raise ValueError(f"total update counts must match ({n0} != {n1}); "
                         f"the number of update messages is public")


def _dwvh_config(volumes0, volumes1) -> ClientConfig:
    total = max(sum(t for _, t in v) for v in (volumes0, volumes1))
    peak = max(t for v in (volumes0, volumes1) for _, t in v)
    depth = max(12, peak.bit_length() + 2)
    # oversized revocation filter: accidentally revoking a real tag drops
    # a result and would read as a spurious FAIL, so push the per-tag loss
    # probability to ~1e-9 at peak load; 8x headroom keeps the filter big
    # while revoke_p=1e-2 keeps the hash count (key wraps per entry) low
    return ClientConfig(bf_n=max(1024, 4 * total), bf_p=1e-4,
                        d_max=max(64, 8 * peak), revoke_p=1e-2,
                        sigma_depth=depth)


def dwvh_game(volumes0: Sequence[tuple[int, int]],
              volumes1: Sequence[tuple[int, int]],
              value_len: int = 16,
              config: Optional[ClientConfig] = None) -> DwvhResult:
    """Play one round of the distinct-volume indistinguishability game.

    Each challenge is a list of per-keyword (distinct, total) volume
    pairs.  Inadmissible challenges (mismatched distinct volumes or
    update totals) raise ValueError; for admissible ones the verdict is
    PASS when both runs are observably identical.
    """
    if value_len < 8:
        raise ValueError("value_len must be at least 8")
    _dwvh_validate(volumes0, volumes1)
    config = config or _dwvh_config(volumes0, volumes1)
    sig0 = transcript_signature(
        record(_dwvh_workload(volumes0, value_len), config=config))
    sig1 = transcript_signature(
        record(_dwvh_workload(volumes1, value_len), config=config))
    if sig0 == sig1:
        detail = (f"signatures identical over {len(volumes0)} keywords, "
                  f"{len(sig0[0])} updates")
    else:
        detail = "observable signatures differ"
    return DwvhResult(sig0 == sig1, detail, sig0, sig1)


# -- forward privacy -----------------------------------------------------------

@dataclass
class FpResult:
    ok: bool
    problems: list[str]

    def __str__(self):
        if self.ok:
            return "PASS: update traffic shows no keyword correlation"
        return "FAIL:\n" + "\n".join(f"  - {p}" for p in self.problems)


def fp_check(transcript: Transcript,
             paired: Optional[Transcript] = None) -> FpResult:
    """Audit update traffic for forward privacy.

    Checks that update addresses never repeat, that frames carrying
    equal-sized plaintexts are equal-sized, and that no keyword or value
    bytes (8 bytes or longer, long enough to make chance hits
    negligible) appear in any frame.  With ``paired``, a second
    transcript recorded from a workload of the same shape but different
    keywords, the two update size sequences must also be identical.
    """
    problems = []
    updates = transcript.updates()
    seen: dict[bytes, int] = {}
    for i, e in enumerate(updates):
        address, _ = wire.decode_update_body(e.frame[5:])
        if address in seen:
            problems.append(
                f"update address reused by updates {seen[address]} and {i}")
        else:
            seen[address] = i
    by_len: dict[int, set[int]] = {}
    for e in updates:
        by_len.setdefault(len(e.note["value"]), set()).add(len(e.frame))
    for vlen, sizes in sorted(by_len.items()):
        if len(sizes) > 1:
            problems.append(
                f"{vlen}-byte values produced multiple frame sizes: "
                f"{sorted(sizes)}")
    for i, e in enumerate(updates):
        w = e.note.get("keyword", b"")
        v = e.note.get("value", b"")
        if len(w) >= 8 and w in e.frame:
            problems.append(f"keyword bytes visible in update {i}")
        if len(v) >= 8 and v in e.frame:
            problems.append(f"value bytes visible in update {i}")
    if paired is not None:
        a = transcript.update_frame_sizes()
        b = paired.update_frame_sizes()
        if a != b:
            problems.append(
                "paired transcripts disagree on update sizes: "
                f"{len(a)} frames vs {len(b)}, "
                f"first divergence at "
                f"{next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))}")
    return FpResult(not problems, problems)
