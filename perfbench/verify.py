"""Offline correctness: replay every served lease from its stream config.

A response carries its lease (``X-Repro-Lease-Offset`` and length); the
stream is a pure function of ``StreamConfig`` and offset, so one fresh
generator walking the leases in offset order re-derives every served
byte.  The client keeps only a digest of each body, so checking costs no
memory per byte.  Leases that overlap an earlier one fail too: the
daemon promises never to hand out the same stream bytes twice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

#: Replay granularity; bounds verifier memory per lease.
_PIECE = 1 << 20


def digest_new():
    """The running digest a client folds each body into."""
    return hashlib.blake2b(digest_size=16)


@dataclass(frozen=True)
class Served:
    """One response as the client received it."""

    lease_id: int
    offset: int
    length: int
    digest: bytes


@dataclass
class Verdict:
    """Lease ids that failed, by reason."""

    mismatched: list[int] = field(default_factory=list)
    overlapping: list[int] = field(default_factory=list)

    @property
    def failed_ids(self) -> set[int]:
        return set(self.mismatched) | set(self.overlapping)


def verify(served: list[Served], stream) -> Verdict:
    """Check that *served* tiles without overlap and replays bit-exactly.

    *stream* is a :class:`repro.serve.engine.StreamConfig`.
    """
    verdict = Verdict()
    rng = stream.make_rng()
    end = 0  # first offset past every lease seen so far
    for item in sorted(served, key=lambda s: (s.offset, s.lease_id)):
        if item.offset < end:
            verdict.overlapping.append(item.lease_id)
        end = max(end, item.offset + item.length)
        if item.offset < rng.tell():
            rng = stream.make_rng()  # only an overlap walks backwards
        rng.skip_bytes(item.offset - rng.tell())
        h = digest_new()
        remaining = item.length
        while remaining:
            take = min(_PIECE, remaining)
            h.update(rng.read(take))
            remaining -= take
        if h.digest() != item.digest:
            verdict.mismatched.append(item.lease_id)
    return verdict
