"""``repro serve`` with ``repro.obs`` spans wrapped around its layers.

Usage: ``python3 perfbench/traced_daemon.py serve --trace-out PATH [serve
args]`` with the checkout's ``src`` on ``PYTHONPATH``.  The daemon's own
tracer keeps the spans in memory and writes them to ``PATH`` when it
drains.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import install  # noqa: E402


def main() -> int:
    from repro.cli import main as repro_main

    install()
    return repro_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
