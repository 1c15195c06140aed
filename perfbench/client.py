"""Closed-loop HTTP client for ``GET /v1/bytes``.

Each client thread holds one keep-alive connection and sends its next
request only after the previous body arrived in full.  Latency runs from
the send to the last body byte.  Bodies are folded into a digest on
arrival and dropped, so a run of any length holds no payload in memory.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

from perfbench.verify import Served, digest_new

HOST = "127.0.0.1"
_TIMEOUT_S = 120.0


@dataclass
class Response:
    """One request's outcome."""

    requested: int
    latency_s: float
    served: Served | None  # None unless a full 200 body with lease headers
    error: str = ""
    trace: object = None  # the request's TraceContext, on a traced round

    @property
    def ok(self) -> bool:
        return self.served is not None


class Connection:
    """One keep-alive connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = http.client.HTTPConnection(HOST, port, timeout=_TIMEOUT_S)

    def close(self) -> None:
        self._conn.close()

    def get_json(self, path: str) -> tuple[int, dict]:
        """``GET path`` and decode its JSON body (any status)."""
        self._conn.request("GET", path)
        resp = self._conn.getresponse()
        return resp.status, json.loads(resp.read())

    def fetch(self, n: int, trace=None) -> Response:
        """``GET /v1/bytes?n=n``; failures come back as a not-ok Response.

        *trace*, a ``repro.obs`` ``TraceContext``, is sent as the
        request's trace id and parent span.
        """
        headers = trace.to_headers() if trace is not None else {}
        t0 = time.perf_counter()
        try:
            self._conn.request("GET", f"/v1/bytes?n={n}", headers=headers)
            resp = self._conn.getresponse()
            h = digest_new()
            received = 0
            while True:
                piece = resp.read(1 << 16)
                if not piece:
                    break
                h.update(piece)
                received += len(piece)
            latency = time.perf_counter() - t0
        except (OSError, http.client.HTTPException) as exc:
            # a broken connection is one failed request; start afresh
            self._conn.close()
            self._conn = http.client.HTTPConnection(HOST, self.port, timeout=_TIMEOUT_S)
            return Response(n, time.perf_counter() - t0, None,
                            f"{type(exc).__name__}: {exc}", trace)
        if resp.status != 200:
            return Response(n, latency, None, f"HTTP {resp.status}", trace)
        try:
            served = Served(
                int(resp.getheader("X-Repro-Lease-Id")),
                int(resp.getheader("X-Repro-Lease-Offset")),
                int(resp.getheader("X-Repro-Lease-Length")),
                h.digest(),
            )
        except (TypeError, ValueError):
            return Response(n, latency, None, "lease headers missing", trace)
        if received != n or served.length != n:
            return Response(n, latency, None, f"short body: {received} of {n} bytes", trace)
        return Response(n, latency, served, trace=trace)


def closed_loop(connections: list[Connection], sizes: list[int],
                traced: bool = False) -> tuple[list[Response], float]:
    """Issue *sizes* in order over *connections*, one request in flight each.

    With *traced*, every request carries a fresh trace context.  Returns
    the responses in completion order and the wall time.
    """
    mint = None
    if traced:
        from repro.obs.context import TraceContext

        mint = TraceContext.mint
    lock = threading.Lock()
    cursor = iter(sizes)
    responses: list[Response] = []

    def drive(conn: Connection) -> None:
        while True:
            with lock:
                n = next(cursor, None)
            if n is None:
                return
            r = conn.fetch(n, mint() if mint else None)
            with lock:
                responses.append(r)

    threads = [threading.Thread(target=drive, args=(c,), daemon=True) for c in connections]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=_TIMEOUT_S * len(sizes))
        if t.is_alive():
            raise RuntimeError("client thread did not finish")
    return responses, time.perf_counter() - t0
