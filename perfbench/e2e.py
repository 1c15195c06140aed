"""End-to-end rounds: spawn the daemon, drive it, account, verify.

A round is one fresh daemon serving the run's whole request schedule
from stream offset 0, so every round crosses the same stalls.  Only the
traced round of ``--trace 1`` runs with tracing on.  CPU and memory are read from the daemon's
process tree around it; the counters are scraped after it; the offline
replay runs after the daemon is gone, off the clock.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import stats
from perfbench.client import Connection, Response, closed_loop
from perfbench.daemon import Daemon
from perfbench.proctree import host_jiffies, steal_share, tree_cpu_seconds, tree_pss_mib
from perfbench.verify import Served, verify
from perfbench.workloads import Workload, serve_args, stream_config


@dataclass
class ServeRun:
    """Everything one round produced.

    ``steal`` is the host's steal share over the timed phase
    (``setup_steal`` over the set-up); times are as measured.
    """

    daemon_pid: int
    setup_s: float
    setup_steal: float
    responses: list[Response]  # timed phase, completion order
    warmup: Served
    wall_s: float
    steal: float
    cpu_s: float
    pss_mib: float
    counters: dict[str, float]
    failures: dict[int, str] = field(default_factory=dict)  # response index -> why

    @property
    def ok_bytes(self) -> int:
        return sum(r.requested for i, r in enumerate(self.responses)
                   if r.ok and i not in self.failures)


def scrape_counters(conn: Connection) -> dict[str, float]:
    """Exact per-layer counters from ``/v1/status`` and ``/healthz``."""
    _, status = conn.get_json("/v1/status")
    _, health = conn.get_json("/healthz")
    chunks = status["engine"]["chunks"]
    fleet = (status["engine"]["fleet"] or {}).get("counters", {})
    attempts = chunks["chunks_ok"] + chunks["retries"] + chunks["degraded"]
    return {
        "engine.retries": chunks["retries"],
        "engine.degraded": chunks["degraded"],
        "engine.screen_rejects": chunks["screen_rejects"],
        "engine.crc_rejects": chunks["crc_rejects"],
        "engine.timeouts": chunks["timeouts"],
        "engine.accepted_ratio": chunks["chunks_ok"] / attempts if attempts else 1.0,
        "fleet.evictions": fleet.get("evictions", 0),
        "fleet.reassignments": fleet.get("reassignments", 0),
        "fleet.degraded_chunks": fleet.get("degraded_chunks", 0),
        "health.latched": 0 if health["healthy"] else 1,
    }


def _spawn(root: Path, workdir: Path, workload: Workload, stream_seed: int,
           trace_out: Path | None) -> Daemon:
    """A fresh daemon; with *trace_out*, the traced one writing spans there."""
    journal = workdir / "journal.jsonl"
    journal.unlink(missing_ok=True)
    args = serve_args(workload, stream_seed, str(journal))
    if trace_out is None:
        return Daemon(root, args, workdir / "daemon.log")
    return Daemon(root, [*args, "--trace-out", str(trace_out)], workdir / "daemon.log",
                  launcher=[str(root / "perfbench" / "traced_daemon.py")])


def _warm_up(conn: Connection, daemon: Daemon, n: int) -> tuple[Served, float]:
    """The first request; returns its lease and the set-up time it ends."""
    warm = conn.fetch(n)
    if not warm.ok:
        raise RuntimeError(f"warm-up request failed: {warm.error}")
    return warm.served, time.perf_counter() - daemon.spawned_at


def measure_setup(root: Path, workdir: Path, workload: Workload, stream_seed: int,
                  warmup_bytes: int) -> tuple[float, float]:
    """``(seconds, steal share)`` from daemon spawn to the end of its first
    response."""
    jiffies = host_jiffies()
    daemon = _spawn(root, workdir, workload, stream_seed, None)
    conn = None
    try:
        conn = Connection(daemon.port)
        setup = _warm_up(conn, daemon, warmup_bytes)[1]
        return setup, steal_share(jiffies, host_jiffies())
    finally:
        if conn is not None:
            conn.close()
        daemon.stop()


def serve_round(root: Path, workdir: Path, workload: Workload, sizes: list[int],
                stream_seed: int, warmup_bytes: int,
                trace_out: Path | None = None) -> ServeRun:
    """One round: a fresh daemon, a warm-up request, then *sizes* timed.

    With *trace_out* the daemon is the traced one and every timed request
    carries its own trace context.
    """
    jiffies = host_jiffies()
    daemon = _spawn(root, workdir, workload, stream_seed, trace_out)
    conns: list[Connection] = []
    try:
        conns = [Connection(daemon.port) for _ in range(workload.clients)]
        warm, setup = _warm_up(conns[0], daemon, warmup_bytes)
        setup_steal = steal_share(jiffies, host_jiffies())
        cpu0, jiffies = tree_cpu_seconds(daemon.pid), host_jiffies()
        responses, wall = closed_loop(conns, sizes, traced=trace_out is not None)
        steal = steal_share(jiffies, host_jiffies())
        pss = tree_pss_mib(daemon.pid)
        cpu1 = tree_cpu_seconds(daemon.pid)
        counters = scrape_counters(conns[0])
    finally:
        for c in conns:
            c.close()
        code = daemon.stop()
    if code != 0:
        raise RuntimeError(f"daemon exited with code {code}")
    run = ServeRun(daemon.pid, setup, setup_steal, responses, warm, wall, steal,
                   cpu1 - cpu0, pss, counters)
    for i, r in enumerate(responses):
        if not r.ok:
            run.failures[i] = r.error
    return run


def check_offline(run: ServeRun, stream_seed: int) -> None:
    """Replay every served byte; mark the responses that fail (-1: warm-up)."""
    served = [run.warmup] + [r.served for r in run.responses if r.ok]
    verdict = verify(served, stream_config(stream_seed))
    bad = verdict.failed_ids
    if run.warmup.lease_id in bad:
        run.failures[-1] = "warm-up bytes failed offline replay"
    for i, r in enumerate(run.responses):
        if r.ok and r.served.lease_id in bad:
            run.failures[i] = "offline replay mismatch or lease overlap"


def throughput_mbps(run: ServeRun) -> float:
    """Payload MB/s over the round's timed phase."""
    return run.ok_bytes / run.wall_s / 1e6


def e2e_metrics(rounds: list[ServeRun],
                setups: list[float]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics over *rounds*, ``name -> (value, unit)``.

    Rates, CPU and memory are medians of the per-round values; latency
    percentiles pool every round's requests; ``setup_s`` is the median of
    *setups* (seconds).  A failed request counts as infinitely slow.
    """
    latencies = [
        r.latency_s * 1e3 if r.ok and i not in run.failures else float("inf")
        for run in rounds for i, r in enumerate(run.responses)
    ]
    failed = sum(len([i for i in run.failures if i >= 0]) for run in rounds)
    return {
        "throughput_mbps": (stats.median([throughput_mbps(r) for r in rounds]), "MB/s"),
        "latency_p50_ms": (stats.median(latencies), "ms"),
        "latency_p90_ms": (stats.percentile(latencies, 90.0), "ms"),
        "cpu_ms_per_mib": (stats.median([
            r.cpu_s * 1e3 / (r.ok_bytes / (1 << 20)) if r.ok_bytes else float("inf")
            for r in rounds]), "ms/MiB"),
        "pss_mib": (stats.median([r.pss_mib for r in rounds]), "MiB"),
        "ok_share": ((len(latencies) - failed) / len(latencies), "ratio"),
        "setup_s": (stats.median(setups), "s"),
    }


def check_counters_repeat(state: Path, key: str, rounds: list[dict[str, float]]) -> list[str]:
    """Compare each round's counters with the first round recorded under *key*.

    Rounds at one stream seed, schedule and length must scrape identical
    counters, within a run and across runs (*state* keeps the first); a
    difference means a round crossed different program behaviour and is
    not comparable.  Returns the counter names that differ.
    """
    book = json.loads(state.read_text()) if state.exists() else {}
    first = book.setdefault(key, rounds[0])
    state.write_text(json.dumps(book, indent=1, sort_keys=True))
    differ = sorted({k for counters in rounds for k in counters
                     if first.get(k) != counters[k]})
    if differ:
        seen = {k: sorted({c[k] for c in rounds}) for k in differ}
        print(f"perfbench: counters differ from the first round of {key}: "
              + ", ".join(f"{k} {first.get(k)} -> {seen[k]}" for k in differ),
              file=sys.stderr)
    return differ
