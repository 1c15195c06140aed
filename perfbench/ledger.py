"""The stage ledger: each layer's public entry point timed on its own.

Every stage reads the workload's stream at the workload's call size, so
``retention.<stage> = stage MB/s / generator.read_mbps`` says how much of
the kernel's rate each layer keeps (ROADMAP aim 1).  Calls run a fixed
number of times; rates are total bytes over total time, per-call
latencies are medians.
"""

from __future__ import annotations

import time
from multiprocessing import resource_tracker
from pathlib import Path

from perfbench import stats
from perfbench.client import Connection
from perfbench.daemon import Daemon
from perfbench.workloads import (
    ALGORITHM,
    ALPHA,
    FLEET_CHUNK_BYTES,
    LANES,
    Workload,
    stream_config,
)

#: Bytes each throughput stage moves (at least MIN_CALLS calls).
STAGE_BYTES = 4 << 20
MIN_CALLS = 16
SMOKE_STAGE_BYTES = 256 << 10
#: Call counts for the per-call latency stages.
ROUNDTRIP_CALLS = 64
JOURNAL_PAIRS = 128
OVERHEAD_CALLS = 100
ROUNDTRIP_BYTES = 4096


def _rate(fn, n: int, calls: int) -> tuple[float, float]:
    """``(MB/s, CPU ms per MiB)`` of *calls* calls ``fn(i)`` of *n* bytes each."""
    fn(-1)  # warm: first-call set-up is not the steady rate
    cpu0, t0 = time.process_time(), time.perf_counter()
    for i in range(calls):
        fn(i)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    nbytes = n * calls
    return nbytes / wall / 1e6, cpu * 1e3 / (nbytes / (1 << 20))


def _median_ms(fn, calls: int) -> float:
    fn()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return stats.median(times) * 1e3


def run_ledger(root: Path, workdir: Path, workload: Workload, stream_seed: int,
               smoke: bool = False) -> dict[str, tuple[float, str]]:
    """Time every stage at the workload's call size; ``name -> (value, unit)``."""
    from repro.fleet.controller import FleetController, FleetConfig
    from repro.robust.supervisor import SupervisorConfig, payload_crc
    from repro.serve.engine import HealthState, ServeEngine
    from repro.serve.leases import LeaseManager

    stream = stream_config(stream_seed)
    n = workload.chunk_bytes
    calls = max(MIN_CALLS, (SMOKE_STAGE_BYTES if smoke else STAGE_BYTES) // n)
    out: dict[str, tuple[float, str]] = {}

    rng = stream.make_rng()
    mbps, cpu = _rate(lambda i: rng.read(n), n, calls)
    out["generator.read_mbps"] = (mbps, "MB/s")
    out["generator.cpu_ms_per_mib"] = (cpu, "ms/MiB")

    rng = stream.make_rng()
    out["touch.receipt_mbps"] = (_rate(lambda i: rng.read_with_receipt(n), n, calls)[0], "MB/s")

    rng = stream.make_rng()
    chunks = [rng.read(n) for _ in range(calls)]
    out["supervisor.crc_mbps"] = (_rate(lambda i: payload_crc(chunks[i]), n, calls)[0], "MB/s")

    health = HealthState(ALPHA)
    out["health.screen_mbps"] = (_rate(lambda i: health.screen(chunks[i]), n, calls)[0], "MB/s")

    supervision = SupervisorConfig(timeout=30.0, max_retries=2)
    inline = ServeEngine(stream, workers=0, supervision=supervision, alpha=ALPHA)
    out["engine.inline_mbps"] = (
        _rate(lambda i: inline.generate_range((i + 1) * n, n), n, calls)[0], "MB/s")
    inline.close()

    pool = ServeEngine(stream, workers=1, supervision=supervision, alpha=ALPHA)
    pool.start()
    try:
        out["engine.pool_mbps"] = (
            _rate(lambda i: pool.generate_range((i + 1) * n, n), n, calls)[0], "MB/s")
        base = (calls + 1) * n
        counter = iter(range(1 << 30))
        out["engine.pool_roundtrip_ms"] = (_median_ms(
            lambda: pool.generate_range(base + next(counter) * ROUNDTRIP_BYTES,
                                        ROUNDTRIP_BYTES),
            ROUNDTRIP_CALLS), "ms")
    finally:
        pool.close()

    journal = workdir / "ledger-journal.jsonl"
    journal.unlink(missing_ok=True)
    leases = LeaseManager(journal_path=str(journal))
    try:
        out["leases.journal_pair_us"] = (1e3 * _median_ms(
            lambda: leases.release(leases.acquire(n).lease_id), JOURNAL_PAIRS), "us")
    finally:
        leases.close()

    fleet = FleetController(stream, FleetConfig(
        workers=2, max_workers=4, chunk_bytes=min(n, FLEET_CHUNK_BYTES),
        alpha=ALPHA))
    fleet.start(supervise=True)
    try:
        out["fleet.read_range_mbps"] = (
            _rate(lambda i: fleet.read_range((i + 1) * n, n), n, calls)[0], "MB/s")
    finally:
        fleet.close()
        # the fleet's shared-memory ring started a resource tracker
        # process; end it now so that the run leaves no process behind
        resource_tracker._resource_tracker._stop()

    daemon = Daemon(root, ["-a", ALGORITHM, "-s", str(stream_seed), "-l", str(LANES),
                           "--alpha", repr(ALPHA), "--workers", "0"],
                    workdir / "ledger-daemon.log")
    conn = None
    try:
        conn = Connection(daemon.port)

        def get(size: int) -> None:
            r = conn.fetch(size)
            if not r.ok:
                raise RuntimeError(f"ledger daemon request failed: {r.error}")

        out["daemon.http_mbps"] = (_rate(lambda i: get(n), n, calls)[0], "MB/s")
        out["daemon.request_overhead_ms"] = (_median_ms(lambda: get(1), OVERHEAD_CALLS), "ms")
    finally:
        if conn is not None:
            conn.close()
        daemon.stop()

    kernel = out["generator.read_mbps"][0]
    for stage, metric in (
        ("touch", "touch.receipt_mbps"),
        ("crc", "supervisor.crc_mbps"),
        ("screen", "health.screen_mbps"),
        ("engine_inline", "engine.inline_mbps"),
        ("engine_pool", "engine.pool_mbps"),
        ("fleet", "fleet.read_range_mbps"),
        ("daemon", "daemon.http_mbps"),
    ):
        out[f"retention.{stage}"] = (out[metric][0] / kernel, "ratio")
    return out
