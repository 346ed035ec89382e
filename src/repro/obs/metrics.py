"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

This is the measurement substrate the model components publish into.  A
registry counter is a :class:`~repro.simkit.trace.Counter`; a component that
also keeps its own count of a fact (one hub's bits, one daemon's probes)
builds that counter on the registry's (``Counter(name, total=...)``), so each
fact is counted by one ``add`` and a total is the sum of its components.  A
registry is cheap (plain dicts, no locks — the simulator is single-threaded) and
exportable two ways:

* :meth:`MetricsRegistry.render_prometheus` — Prometheus text exposition,
* :meth:`MetricsRegistry.snapshot` — plain dicts, one per metric: JSONL dumps, the
  ``repro obs`` pretty-printer, a worker's registry on the wire (``from_rows`` inverts).

A process-wide *current* registry lets deep model code publish without
threading a handle through every constructor; experiment drivers swap in a
fresh registry per run with :func:`use_registry` so artifacts never bleed
between experiments.  Components still accept an explicit ``metrics=``
parameter for direct use.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.simkit.trace import Counter

#: default buckets for latency-like histograms (seconds): log-ish spacing
#: from 10 µs (one hub propagation delay) to 10 s (a failed discovery round).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0,
)

#: default buckets for small-count histograms (broadcast fan-out, retries).
DEFAULT_COUNT_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)


class Gauge:
    """A value that can go up and down (queue depth, events/sec)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Shift the current value by ``delta``."""
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max sidecars.

    Buckets are upper bounds (``le`` in Prometheus terms); an implicit
    +inf bucket catches overflow.  Observation is one C-level bisection of
    the bounds — it runs once per frame and once per probe reply.
    """

    def __init__(self, name: str = "", buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be sorted, got {bounds}")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value != value:  # NaN is <= no bound: the +inf bucket, not bisect's slot 0
            self.counts[-1] += 1
        else:
            self.counts[bisect_left(self.bounds, value)] += 1

    def mean(self) -> float:
        """Arithmetic mean of all observations (0 if empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile by linear interpolation within buckets.

        Returns 0 for an empty histogram; observations in the +inf bucket
        report the largest finite bound (the histogram cannot do better).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            in_bucket = self.counts[i]
            if cumulative + in_bucket >= target and in_bucket > 0:
                frac = (target - cumulative) / in_bucket
                return lower + frac * (bound - lower)
            cumulative += in_bucket
            lower = bound
        return self.bounds[-1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean():.6g})"


def _key(name: str, labels: dict[str, str] | None) -> tuple[str, tuple[tuple[str, str], ...]]:
    return name, tuple(sorted((labels or {}).items()))


class MetricsRegistry:
    """Get-or-create home for every metric of one run.

    Metrics are keyed by ``(name, labels)``; asking twice for the same key
    returns the same object, so independent components (every NIC, every
    daemon) share one aggregate by using one name.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, dict[str, Any]] = {}

    # ------------------------------------------------------------- creation
    def counter(self, name: str, labels: dict[str, str] | None = None, help: str = "") -> Counter:
        """Get or create a monotonically accumulating counter."""
        return self._get_or_create(name, labels, help, "counter", lambda: Counter(name))

    def gauge(self, name: str, labels: dict[str, str] | None = None, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(name, labels, help, "gauge", lambda: Gauge(name))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: dict[str, str] | None = None,
        help: str = "",
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._get_or_create(name, labels, help, "histogram", lambda: Histogram(name, buckets))

    def _get_or_create(self, name, labels, help, kind, factory):
        key = _key(name, labels)
        entry = self._metrics.get(key)
        if entry is None:
            entry = {"kind": kind, "help": help, "obj": factory()}
            self._metrics[key] = entry
        elif entry["kind"] != kind:
            raise ValueError(f"metric {name!r} already registered as {entry['kind']}, not {kind}")
        return entry["obj"]

    # -------------------------------------------------------------- queries
    def get(self, name: str, labels: dict[str, str] | None = None) -> Any:
        """The metric object under a key, or ``None``."""
        entry = self._metrics.get(_key(name, labels))
        return entry["obj"] if entry else None

    def names(self) -> list[str]:
        """Distinct metric names, registration order preserved."""
        seen: dict[str, None] = {}
        for name, _labels in self._metrics:
            seen.setdefault(name, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[tuple[str, dict[str, str], str, Any]]:
        for (name, labels), entry in self._metrics.items():
            yield name, dict(labels), entry["kind"], entry["obj"]

    # --------------------------------------------------------------- export
    def snapshot(self) -> list[dict[str, Any]]:
        """Plain-dict state of every metric (JSONL-ready, one dict each)."""
        out: list[dict[str, Any]] = []
        for name, labels, kind, obj in self:
            row: dict[str, Any] = {"name": name, "kind": kind}
            if labels:
                row["labels"] = labels
            if kind == "counter":
                row["value"] = obj.value
                row["events"] = obj.events
            elif kind == "gauge":
                row["value"] = obj.value
            else:  # histogram
                row.update(
                    count=obj.count,
                    sum=obj.sum,
                    mean=obj.mean(),
                    min=obj.min if obj.count else None,
                    max=obj.max if obj.count else None,
                    p50=obj.quantile(0.5),
                    p99=obj.quantile(0.99),
                    buckets=[[b, c] for b, c in zip(obj.bounds, obj.counts)] + [["+inf", obj.counts[-1]]],
                )
            out.append(row)
        return out

    @classmethod
    def from_rows(cls, rows: Sequence[Any]) -> "MetricsRegistry":
        """Inverse of :meth:`snapshot`, for :meth:`merge`.  Rows are how a worker's registry
        crosses a process boundary or a wire, so each is checked: one that is not a snapshot
        row raises ``ValueError`` showing it.  Derived fields (mean, p50, p99) are ignored."""
        registry = cls()
        for row in rows:
            try:
                name, kind, labels = row["name"], row["kind"], row.get("labels")
                if not isinstance(name, str) or kind not in ("counter", "gauge", "histogram"):
                    raise ValueError("name or kind")
                if kind == "counter":
                    counter = registry.counter(name, labels)
                    counter.value, counter.events = float(row["value"]), int(row["events"])
                elif kind == "gauge":
                    registry.gauge(name, labels).set(float(row["value"]))
                else:
                    *finite, (inf, overflow) = row["buckets"]  # [[bound, n], ..., ["+inf", n]]
                    if inf != "+inf":
                        raise ValueError("last bucket")
                    hist = registry.histogram(name, [b for b, _ in finite], labels)
                    hist.counts = [int(n) for _, n in finite] + [int(overflow)]
                    hist.count, hist.sum = int(row["count"]), float(row["sum"])
                    hist.min = float(row["min"] if hist.count else "inf")
                    hist.max = float(row["max"] if hist.count else "-inf")
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"not a registry snapshot row ({exc!r}): {row!r:.80}") from None
        return registry

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (histograms as cumulative _bucket)."""
        lines: list[str] = []
        typed: set[str] = set()
        for name, labels, kind, obj in self:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")
            suffix = _format_labels(labels)
            if kind == "counter":
                lines.append(f"{name}{suffix} {_fmt(obj.value)}")
            elif kind == "gauge":
                lines.append(f"{name}{suffix} {_fmt(obj.value)}")
            else:
                cumulative = 0
                for bound, count in zip(obj.bounds, obj.counts):
                    cumulative += count
                    lines.append(f"{name}_bucket{_format_labels({**labels, 'le': _fmt(bound)})} {cumulative}")
                cumulative += obj.counts[-1]
                lines.append(f"{name}_bucket{_format_labels({**labels, 'le': '+Inf'})} {cumulative}")
                lines.append(f"{name}_sum{suffix} {_fmt(obj.sum)}")
                lines.append(f"{name}_count{suffix} {obj.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ---------------------------------------------------------------- merging
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's state into this one; returns ``self``.

        The parallel experiment executor gives each worker process a private
        registry (the simulator is single-threaded per process and registries
        are lock-free) and merges them back here.  Semantics per kind:

        * counters: values and event counts add,
        * gauges: values add (the throughput gauges are per-worker rates, so
          their sum is the aggregate rate),
        * histograms: bucket counts, count, and sum add; min/max combine
          (bucket bounds must match, else the streams are not comparable).

        ``other`` is left untouched; merging the same registry twice
        double-counts, exactly like Prometheus federation would.  All or nothing:
        every metric is checked before any is changed (``ValueError``).
        """
        for key, entry in other._metrics.items():
            held = self._metrics.get(key, entry)
            if held["kind"] != entry["kind"]:
                raise ValueError(f"cannot merge {entry['kind']} {key[0]!r} into a {held['kind']}")
            if entry["kind"] == "histogram" and held["obj"].bounds != entry["obj"].bounds:
                raise ValueError(
                    f"cannot merge histogram {key[0]!r}: bucket bounds differ "
                    f"({held['obj'].bounds} vs {entry['obj'].bounds})"
                )
        for (name, labels), entry in other._metrics.items():
            kind, obj = entry["kind"], entry["obj"]
            label_dict = dict(labels) or None
            if kind == "counter":
                mine = self.counter(name, label_dict, help=entry["help"])
                mine.value += obj.value
                mine.events += obj.events
            elif kind == "gauge":
                mine = self.gauge(name, label_dict, help=entry["help"])
                mine.value += obj.value
            else:
                mine = self.histogram(name, buckets=obj.bounds, labels=label_dict, help=entry["help"])
                mine.counts = [a + b for a, b in zip(mine.counts, obj.counts)]
                mine.count += obj.count
                mine.sum += obj.sum
                mine.min = min(mine.min, obj.min)
                mine.max = max(mine.max, obj.max)
        return self


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


# --------------------------------------------------------------- current scope
_GLOBAL = MetricsRegistry()
_current: MetricsRegistry = _GLOBAL


def current_registry() -> MetricsRegistry:
    """The registry deep model code publishes into right now."""
    return _current


def resolve_registry(metrics: MetricsRegistry | None) -> MetricsRegistry:
    """An explicit registry if given, else the current one."""
    return metrics if metrics is not None else _current


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Make ``registry`` current within the block (experiment/scenario scope)."""
    global _current
    previous = _current
    _current = registry
    try:
        yield registry
    finally:
        _current = previous


# The histograms and gauges every snapshot must expose even when a run never
# exercises them (a pure Monte Carlo experiment sends no probes): registering
# them up front keeps artifact schemas stable and diffable across runs.
CORE_HISTOGRAMS: tuple[tuple[str, tuple[float, ...], str], ...] = (
    ("drs_probe_rtt_seconds", DEFAULT_LATENCY_BUCKETS, "round-trip time of answered DRS link probes"),
    ("drs_failover_latency_seconds", DEFAULT_LATENCY_BUCKETS, "failure detection to repair-route install"),
    ("drs_broadcast_fanout", DEFAULT_COUNT_BUCKETS, "segments each DRS broadcast actually reached"),
    ("net_queue_depth_seconds", DEFAULT_LATENCY_BUCKETS, "each frame's wait for the hub's medium / switch's port"),
)

CORE_COUNTERS: tuple[tuple[str, str], ...] = (
    ("drs_probes_sent_total", "link probes sent: sum of every LinkMonitor.probes_sent"),
    ("drs_probe_bytes_total", "request-side probe bytes: sum of every LinkMonitor.probe_bytes"),
    ("drs_repairs_total", "repair routes installed: sum of every FailoverEngine.repairs"),
    ("drs_discoveries_total", "two-hop discovery rounds started, by any FailoverEngine"),
    ("drs_failed_repairs_total", "discovery rounds that found no route, on any FailoverEngine"),
    ("drs_control_bytes_total", "DRS control-plane bytes sent by any FailoverEngine"),
    ("net_frames_sent_total", "frames a Nic handed to its segment"),
    ("net_frames_received_total", "frames a Nic passed up to its node"),
    ("net_frames_dropped_total", "sum of every Nic.frames_dropped and every hub's or switch's"),
    ("net_bits_carried_total", "sum of every hub's or switch's bits_carried"),
    ("icmp_timeouts_total", "echo timeouts: sum of every IcmpService.timeouts"),
    ("sim_events_total", "simulator events fired"),
    ("sim_callback_seconds_total", "wall-clock seconds inside event callbacks"),
    ("sim_run_seconds_total", "wall-clock seconds inside Simulator.run"),
    ("mc_iterations_total", "Monte Carlo iterations evaluated"),
    ("mc_wall_seconds_total", "wall-clock seconds in the Monte Carlo hot path"),
    ("engine_job_attempts_total", "job attempts started by the execution engine"),
    ("engine_job_retries_total", "job attempts beyond the first (retries)"),
    ("engine_job_timeouts_total", "job attempts abandoned at the wall-clock timeout"),
    ("engine_jobs_quarantined_total", "jobs that exhausted their retry budget"),
    ("engine_pool_respawns_total", "broken process pools replaced mid-plan"),
)

CORE_GAUGES: tuple[tuple[str, str], ...] = (
    ("sim_events_per_second", "simulator throughput: events fired per wall second"),
    ("mc_iterations_per_second", "Monte Carlo throughput: iterations per wall second"),
)


def ensure_core_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Pre-register the stable core schema on ``registry`` (default: current)."""
    registry = resolve_registry(registry)
    for name, buckets, help in CORE_HISTOGRAMS:
        registry.histogram(name, buckets=buckets, help=help)
    for name, help in CORE_COUNTERS:
        registry.counter(name, help=help)
    for name, help in CORE_GAUGES:
        registry.gauge(name, help=help)
    return registry
