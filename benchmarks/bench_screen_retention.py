#!/usr/bin/env python
"""Screen retention benchmark: the RCT/APT health screen against the kernel.

Reads one :class:`~repro.serve.engine.StreamConfig` stream through
``BSRNG.read`` and then screens the same bytes through
:meth:`~repro.serve.engine.HealthState.screen`, the inline SP 800-90B
gate every served chunk passes, at the serve path's two call sizes
(64 KiB fleet leases and 1 MiB bulk requests).

The regression-gated ratio is **retention**:
``speedup.screen_<size>`` = screen MB/s over ``BSRNG.read`` MB/s at that
call size.  Both legs run on the same machine over the same bytes, so
the ratio is a property of the code and transfers across runners; the
absolute MB/s do not.  A screen that falls back to a Python loop per
window or per byte drops the ratio several-fold and trips the gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_screen_retention.py
    python tools/check_bench_regression.py \\
        benchmarks/results/BENCH_screen_retention.json \\
        benchmarks/baselines/BENCH_screen_retention.json --tolerance 0.5
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _emit import emit_bench  # noqa: E402

from repro.serve.engine import HealthState, StreamConfig  # noqa: E402

#: Call sizes and their ratio names.
CALL_SIZES = {"64k": 64 << 10, "1m": 1 << 20}


def measure(config: StreamConfig, alpha: float, n: int, calls: int, repeat: int) -> dict:
    """Best-of-*repeat* read and screen MB/s of *calls* calls of *n* bytes.

    The legs alternate, each read followed by the screen of the bytes it
    read, so a burst of host load hits both legs' samples alike.  Both
    legs run on this thread and are timed in process CPU time, which host
    steal and time slicing do not stretch.
    """
    rng = config.make_rng()
    health = HealthState(alpha)
    health.screen(rng.read(n))  # warm: first refill and first screen are set-up
    read_s = screen_s = float("inf")
    for _ in range(repeat):
        t0 = time.process_time()
        chunks = [rng.read(n) for _ in range(calls)]
        t1 = time.process_time()
        for chunk in chunks:
            health.screen(chunk)
        t2 = time.process_time()
        read_s, screen_s = min(read_s, t1 - t0), min(screen_s, t2 - t1)
    nbytes = n * calls
    return {
        "read_mbps": nbytes / read_s / 1e6,
        "screen_mbps": nbytes / screen_s / 1e6,
        "retention": read_s / screen_s,
        "screen_failures": len(health.events),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="trivium")
    parser.add_argument("--lanes", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--alpha", type=float, default=2.0**-20)
    parser.add_argument("--mbytes", type=int, default=2, help="MiB per repeat and call size")
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)

    config = StreamConfig(algorithm=args.algorithm, seed=args.seed, lanes=args.lanes)
    results = {}
    for name, n in CALL_SIZES.items():
        calls = max(1, (args.mbytes << 20) // n)
        results[name] = r = measure(config, args.alpha, n, calls, args.repeat)
        print(
            f"{name:>4} calls x{calls:<4d}: read {r['read_mbps']:8.1f} MB/s  "
            f"screen {r['screen_mbps']:8.1f} MB/s  retention {r['retention']:6.2f}x"
        )

    path = emit_bench(
        "screen_retention",
        params={
            "algorithm": args.algorithm,
            "lanes": args.lanes,
            "seed": args.seed,
            "alpha": args.alpha,
            "mbytes": args.mbytes,
            "repeat": args.repeat,
            "call_bytes": CALL_SIZES,
        },
        metrics={
            **{f"{k}_{name}": v for name, r in results.items() for k, v in r.items()
               if k != "retention"},
            "speedup": {f"screen_{name}": r["retention"] for name, r in results.items()},
        },
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
