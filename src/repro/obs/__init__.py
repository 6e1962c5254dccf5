"""``repro.obs`` — the unified tracing + metrics layer.

One stdlib-only instrumentation core shared by the service, the shard
pool, the engine and the simulators:

* :mod:`repro.obs.core` — the module-level enable flag, the metric
  :class:`Registry` (counters / gauges / histograms, label-tuple keyed),
  :func:`span` with per-thread nesting, and the explicit cross-process
  propagation pair :func:`export_context` / :class:`collect_remote`
  (span context rides the shard ``Pipe`` protocol and the engine's
  chunk payloads; captured worker events ship back in the replies and
  are :func:`ingest`-ed into the parent buffer, yielding one stitched
  trace per query);
* :mod:`repro.obs.export` — Prometheus text exposition (served by
  content negotiation on ``GET /metrics``) and Chrome trace-event JSON
  (``repro obs export --trace-json``, loadable in Perfetto).

Disabled by default: every helper bails on one module-level flag before
touching any state, so the instrumented hot paths are unmeasurably
slower than un-instrumented ones (pinned by ``tests/test_obs.py`` and
the CI strict-bench gate).  Enable with ``repro profile CMD``, the
``REPRO_OBS=1`` environment variable, or :func:`repro.obs.enable`.
"""

from repro.obs.core import (
    Registry,
    SpanHandle,
    attach,
    collect_remote,
    current_context,
    disable,
    drain_events,
    enable,
    enabled,
    export_context,
    inc,
    ingest,
    observe,
    registry,
    reset,
    set_gauge,
    span,
    take_snapshot,
    trace_events,
)
from repro.obs.export import (
    render_prometheus,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Registry",
    "SpanHandle",
    "attach",
    "collect_remote",
    "current_context",
    "disable",
    "drain_events",
    "enable",
    "enabled",
    "export_context",
    "inc",
    "ingest",
    "observe",
    "registry",
    "render_prometheus",
    "reset",
    "set_gauge",
    "span",
    "take_snapshot",
    "to_chrome_trace",
    "trace_events",
    "write_chrome_trace",
]
