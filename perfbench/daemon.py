"""Launch and stop ``repro serve`` as a real subprocess.

The daemon runs from the checkout's ``src`` in its own session, so that
stopping it can find and end every process it left behind.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

from perfbench.proctree import session_pids

_READY_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 30.0


def daemon_env(root: Path) -> dict[str, str]:
    """The environment a daemon runs in: the checkout's ``src``, no
    fault plans, flight dumps or other ``REPRO_*`` settings inherited."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Daemon:
    """One ``repro serve`` process on an ephemeral port.

    *launcher* replaces ``-m repro`` with a script path (the traced run).
    ``spawned_at`` is the ``perf_counter`` time just before the spawn.
    """

    def __init__(self, root: Path, serve_args: list[str], log_path: Path,
                 launcher: list[str] | None = None) -> None:
        entry = launcher if launcher is not None else ["-m", "repro"]
        cmd = [sys.executable, *entry, "serve", "--host", "127.0.0.1", "--port", "0",
               *serve_args]
        self._log = open(log_path, "ab")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=daemon_env(root), stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
        )
        try:
            self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_ready(self) -> int:
        """Port from the readiness line ``repro-serve listening on H:P``."""
        deadline = time.monotonic() + _READY_TIMEOUT_S
        line = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError("daemon did not report readiness in time")
                chunk = os.read(self.proc.stdout.fileno(), 256)
                if not chunk:
                    raise RuntimeError(f"daemon exited early (code {self.proc.poll()})")
                line += chunk
        text = line.decode("ascii", "replace").strip()
        if "listening on" not in text:
            raise RuntimeError(f"unexpected daemon output: {text!r}")
        return int(text.rsplit(":", 1)[1])

    def stop(self) -> int | None:
        """SIGTERM, wait, escalate; then end any straggler in its session.

        Returns the daemon's exit code.
        """
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(_STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(_STOP_TIMEOUT_S)
            deadline = time.monotonic() + _STOP_TIMEOUT_S
            while (left := session_pids(self.proc.pid)) and time.monotonic() < deadline:
                for pid in left:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                time.sleep(0.05)
            if left:
                raise RuntimeError(f"daemon session processes survived: {left}")
            return self.proc.returncode
        finally:
            self.proc.stdout.close()
            self._log.close()
