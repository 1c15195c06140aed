"""The benchmark's workloads and the request schedule each seed draws.

Every run ends after a fixed number of requests, never after a fixed
time.  The screen's false positives and the fleet's evictions happen at
fixed *stream offsets* (see NOTES.md), so only a run of fixed length
crosses the same ones every time.  The stream itself is one fixed
configuration per run (``STREAM_SEED`` unless ``--stream-seed`` names
the held-out one); ``--seed`` draws the order and sizes of the requests,
each within a few percent of the workload's nominal size and always
summing to the same total, so every seed serves the same stream bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Stream served by every workload.
ALGORITHM = "trivium"
LANES = 4096
#: Default stream seed; its stall offsets are listed in NOTES.md.
STREAM_SEED = 7
#: Stream seed kept out of tuning, for confirming a claimed gain.
HELD_OUT_STREAM_SEED = 1009
#: Health-screen false-positive rate: the daemon's default, named so
#: that a later default change cannot silently drop the stalls.
ALPHA = 2.0**-20

KIB, MIB = 1 << 10, 1 << 20
#: Fleet lease granularity of ``fleet_fanout`` (and the ledger's fleet).
FLEET_CHUNK_BYTES = 64 * KIB


@dataclass(frozen=True)
class Workload:
    name: str
    serve_args: tuple[str, ...]
    request_bytes: int
    clients: int
    #: requests per second of ``--seconds``: a round serves this times
    #: ``--seconds`` requests, a count, not a time limit
    requests_per_second: float
    #: size jitter: each request is ``request_bytes ± k * jitter_step``
    #: for ``k <= jitter_steps``, paired so the total stays fixed
    jitter_step: int
    jitter_steps: int
    #: bytes per generation call in the daemon (its ``--chunk-bytes`` or
    #: the request, whichever is smaller): the ledger's call size
    chunk_bytes: int
    #: fresh-daemon rounds per end-to-end run (medians are taken over them)
    rounds: int


WORKLOADS = {
    # per-byte work dominates: kernel, worker CRC, parent CRC recompute,
    # RCT/APT screen, pickle IPC; 100 MiB crosses all five screen stalls.
    # Two rounds: five of every 100 latencies are stalls, so one round's
    # p90 would rest on the five slowest ordinary requests
    "bulk_pool": Workload(
        "bulk_pool", ("--workers", "1"), request_bytes=MIB, clients=1,
        requests_per_second=5, jitter_step=64 * KIB, jitter_steps=2,
        chunk_bytes=64 * KIB, rounds=2,
    ),
    # per-request work dominates: two fsynced journal writes, HTTP
    # parse, executor hop, pool round trip; bypasses per-byte work
    "small_pool": Workload(
        "small_pool", ("--workers", "1"), request_bytes=4 * KIB, clients=2,
        requests_per_second=75, jitter_step=256, jitter_steps=4,
        chunk_bytes=4 * KIB, rounds=4,
    ),
    # the same generation layers through the fleet: 64 KiB chunks fanned
    # over two members that seek by generate-and-discard; ring receipts,
    # eviction and relaunch.  26 MiB per round crosses the eviction storm
    # at ~23 MiB; four rounds pool 104 latencies
    "fleet_fanout": Workload(
        "fleet_fanout",
        ("--fleet", "2", "--chunk-bytes", str(MIB),
         "--fleet-chunk-bytes", str(FLEET_CHUNK_BYTES)),
        request_bytes=MIB, clients=1, requests_per_second=1.3, jitter_step=64 * KIB,
        jitter_steps=2, chunk_bytes=MIB, rounds=4,
    ),
}

#: Smoke mode: this many requests of at most this many bytes.
SMOKE_REQUESTS = 100
SMOKE_MAX_BYTES = 128 * KIB


def request_count(workload: Workload, seconds: int) -> int:
    """Requests per round for a ``--seconds`` budget."""
    return round(workload.requests_per_second * seconds)


def request_sizes(workload: Workload, seed: int, count: int, nominal: int) -> list[int]:
    """*count* request sizes around *nominal*, summing to ``count * nominal``."""
    rnd = random.Random(f"{workload.name}:{seed}")
    step = min(workload.jitter_step, nominal // (2 * workload.jitter_steps + 2))
    sizes = []
    for _ in range(count // 2):
        d = rnd.randint(-workload.jitter_steps, workload.jitter_steps) * step
        sizes += [nominal + d, nominal - d]
    sizes += [nominal] * (count % 2)
    rnd.shuffle(sizes)
    return sizes


def serve_args(workload: Workload, stream_seed: int, journal: str) -> list[str]:
    """The ``repro serve`` arguments of one workload's daemon."""
    return [
        "-a", ALGORITHM, "-s", str(stream_seed), "-l", str(LANES),
        "--alpha", repr(ALPHA), "--journal", journal, *workload.serve_args,
    ]


def stream_config(stream_seed: int):
    """The :class:`StreamConfig` the daemon serves, built independently."""
    from repro.serve.engine import StreamConfig

    return StreamConfig(algorithm=ALGORITHM, seed=stream_seed, lanes=LANES)
