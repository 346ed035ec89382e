"""Observability layer: metrics registry, run artifacts, and profiling.

``repro.obs`` is the measurement substrate the rest of the stack publishes
into:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with named counters,
  gauges, and fixed-bucket histograms; Prometheus-text and JSONL export;
  a swappable *current* registry for per-run scoping.
* :mod:`repro.obs.artifacts` — :class:`RunManifest` (seed, config hash,
  wall time, event count, package version) plus metrics-snapshot and
  trace-JSONL writers, emitted next to every experiment/scenario result.
* :mod:`repro.obs.profiler` — simulator event-loop accounting and Monte
  Carlo throughput publication.
* :mod:`repro.obs.spans` — causal spans over the trace recorder: incident
  roots from the fault injector, failover/discovery/probe children from the
  daemons, Chrome trace-event export for Perfetto.
* :mod:`repro.obs.postmortem` — per-incident detection→repair critical
  paths scored against the TCP-retransmit deadline budget.
* :mod:`repro.obs.progress` — heartbeat reporter for long sweeps
  (trials/sec, ETA, incident counts on stderr + run manifests).
* :mod:`repro.obs.flightrecorder` — the engine flight recorder: a
  multiprocessing-safe structured event channel streaming every job,
  worker, checkpoint, and heartbeat lifecycle event to a crash-tolerant
  JSONL sink.  It is also where the stream is *declared* — the ``KINDS``
  schema table, from which ``EVENT_KINDS``, the documentation tables and
  the Perfetto export's drawing rules are derived — and where every
  ``*.jsonl`` artifact (flight, checkpoint, trace, metrics) is *read*:
  ``read_jsonl`` / ``JsonlReader``, one torn-tail policy.
* :mod:`repro.obs.watch` — live ANSI dashboard (``repro obs watch``)
  folding a flight stream into per-worker run state.
* :mod:`repro.obs.precision` — statistical observability: per-cell Wilson
  CI records and the sweep loop's per-group ``PrecisionGrid`` columns
  (one ``stats.grid`` flight event per grid per round, its cells as
  columns, written by ``PrecisionGrid.publish`` alone and expanded back
  into cells by ``grid_payloads`` alone),
  adaptive-stopping bookkeeping, and the ``repro obs precision``
  sweep-quality report.
* :mod:`repro.obs.cli` — the ``repro obs`` pretty-printer plus the
  ``export-trace``, ``postmortem``, ``watch``, and ``precision`` verbs.

Timings are not measured here: ``benchmarks/e2e`` is the repo's one
benchmark (see its README).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "metrics": [
            "MetricsRegistry",
            "Gauge",
            "Histogram",
            "DEFAULT_LATENCY_BUCKETS",
            "DEFAULT_COUNT_BUCKETS",
            "current_registry",
            "resolve_registry",
            "use_registry",
            "ensure_core_metrics",
        ],
        "artifacts": [
            "RunManifest",
            "load_manifest",
            "spec_hash",
            "write_metrics_files",
            "write_trace_jsonl",
        ],
        "profiler": [
            "install_profiling",
            "uninstall_profiling",
            "publish_profile",
            "publish_mc_throughput",
        ],
        "spans": [
            "SPAN_CATEGORY",
            "Span",
            "SpanLog",
            "span_log",
            "spans_from_entries",
            "to_chrome_trace",
            "write_chrome_trace",
            "validate_chrome_trace",
            "flight_to_chrome_trace",
            "write_flight_chrome_trace",
        ],
        "postmortem": [
            "IncidentReport",
            "build_postmortems",
            "render_postmortems",
            "summarize_postmortems",
        ],
        "progress": ["ProgressReporter", "set_heartbeat", "heartbeat"],
        "flightrecorder": [
            "FlightRecorder",
            "FLIGHT_SUFFIX",
            "KINDS",
            "read_jsonl",
            "flight_recorder",
            "set_flight_recorder",
            "read_flight_events",
            "flight_summary",
        ],
        "watch": ["WatchState", "render_watch", "follow_flight"],
        "precision": [
            "STATS_GRID_KIND",
            "CellPrecision",
            "fold_cells",
            "cells_from_manifest",
            "precision_report",
            "render_precision_report",
        ],
    },
)
