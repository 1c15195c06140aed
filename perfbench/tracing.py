"""Per-layer self time of a traced round, from the program's own tracer.

The traced daemon (``perfbench/traced_daemon.py``) runs ``repro serve
--trace-out`` with a ``repro.obs`` span wrapped, from outside the
program, around ``LeaseManager.acquire``/``release``,
``ServeEngine.generate_range``, ``HealthState.screen`` and
``FleetController.read_range``.  The client sends every request its own
trace id and parent span (``X-Repro-Trace-Id``/``X-Repro-Parent-Span``),
so the daemon's ``serve.request`` span and everything under it belong to
that request.  Span ids, parent links and the per-request trace id are
``repro.obs``'s; its tracer keeps spans in memory and writes them as a
Chrome trace when the daemon drains.
"""

from __future__ import annotations

import functools
import json

#: Layers self time is reported for.  ``client.request`` is timed by the
#: client; ``worker`` is every span recorded in another process than the
#: daemon's (pool workers, fleet members).
LAYERS = (
    "client.request",
    "serve.request",
    "leases.acquire",
    "leases.release",
    "engine.generate_range",
    "health.screen",
    "fleet.read_range",
    "worker",
)


def _wrap(cls, method: str, name: str) -> None:
    from repro import obs

    original = getattr(cls, method)

    @functools.wraps(original)
    def traced(obj, *args, **kwargs):
        with obs.span(name):
            return original(obj, *args, **kwargs)

    setattr(cls, method, traced)


def install() -> None:
    """Wrap the daemon's layers in spans (call before the daemon is built)."""
    from repro import obs
    from repro.fleet.controller import FleetController
    from repro.obs.context import TraceContext, activate
    from repro.serve.engine import HealthState, ServeEngine
    from repro.serve.leases import LeaseManager

    _wrap(LeaseManager, "acquire", "leases.acquire")
    _wrap(LeaseManager, "release", "leases.release")
    _wrap(HealthState, "screen", "health.screen")
    _wrap(FleetController, "read_range", "fleet.read_range")

    generate_range = ServeEngine.generate_range

    # the daemon hands the request's context over as an argument (it runs
    # on an executor thread); open the span under it and hand on our own
    @functools.wraps(generate_range)
    def traced_generate_range(engine, offset, n, chunk_id=0, trace=None):
        with activate(TraceContext.from_wire(trace)), \
                obs.span("engine.generate_range") as span:
            return generate_range(engine, offset, n, chunk_id, span.context.to_wire())

    ServeEngine.generate_range = traced_generate_range


def load_events(path) -> list[dict]:
    """The complete (``ph: "X"``) events of a ``--trace-out`` file."""
    with open(path, encoding="utf-8") as fh:
        return [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]


def _covered_us(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end)`` covered by the union of *intervals*."""
    total, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times_ms(events: list[dict], daemon_pid: int,
                  clients: list[tuple[str, str, float]]) -> dict[str, float]:
    """Per-layer self time in ms, summed over the client's requests.

    *events* are the daemon's trace events, *clients* the
    ``(trace id, span id, seconds)`` of each client request.  A span's
    self time is its duration minus the part its children cover; a span
    that is not itself a layer counts toward its nearest layer ancestor
    (``serve.chunk`` toward ``engine.generate_range``).  A client span's
    self time is its duration minus its ``serve.request`` child's, which
    the daemon timed on its own clock.
    """
    traces = {trace_id for trace_id, _, _ in clients}
    spans = {e["args"]["span_id"]: e for e in events
             if e["args"].get("trace_id") in traces}
    children: dict[str, list[tuple[float, float]]] = {}
    for e in spans.values():
        children.setdefault(e["args"].get("parent_id"), []).append(
            (e["ts"], e["ts"] + e["dur"]))

    def layer(e: dict | None) -> str | None:
        while e is not None:
            if e["pid"] != daemon_pid:
                return "worker"
            if e["name"] in LAYERS:
                return e["name"]
            e = spans.get(e["args"].get("parent_id"))
        return None  # no layer above it in this request's spans

    totals_us = dict.fromkeys(LAYERS, 0.0)
    for span_id, e in spans.items():
        name = layer(e)
        if name is not None:
            start, end = e["ts"], e["ts"] + e["dur"]
            totals_us[name] += e["dur"] - _covered_us(start, end, children.get(span_id, []))
    for _, span_id, seconds in clients:
        served_us = sum(b - a for a, b in children.get(span_id, []))
        totals_us["client.request"] += seconds * 1e6 - served_us
    return {name: us / 1e3 for name, us in totals_us.items()}
