"""A small metrics registry: counters, gauges and histograms.

The registry is the numeric (non-timeline) half of the observability
layer.  It absorbs the per-rank :class:`~repro.simmpi.stats.CommStats`
counters and the :class:`~repro.core.workspace.Workspace` pool counters
of a run, and anything else instrumented code wants to record, and
exports a JSON-friendly dict (:meth:`MetricsRegistry.as_dict`), which the
JSONL event log carries as its metrics record.

Metrics are identified by name plus an optional, frozen label set —
``registry.counter("simmpi_p2p_messages_total", rank="3")`` — and
metric objects are get-or-create, so repeated absorption of chunked
(resilient) runs accumulates rather than overwrites.
"""
from __future__ import annotations

import math
import threading

#: default histogram bucket upper bounds (seconds-oriented)
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (set wins; no monotonicity)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (Prometheus cumulative-``le`` semantics).

    Each bucket (plus the +Inf overflow) keeps the most recent exemplar
    — a ``(value, trace_id)`` pair — so a latency outlier in a scrape
    links straight back to the causal trace that produced it.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "exemplars")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket")
        self.counts = [0] * len(self.buckets)  # per-bucket (non-cumulative)
        self.count = 0
        self.sum = 0.0
        # one slot per bucket + the +Inf overflow; latest observation wins
        self.exemplars: list[tuple[float, str] | None] = (
            [None] * (len(self.buckets) + 1)
        )

    def observe(self, value: float, trace_id: str | None = None) -> None:
        self.count += 1
        self.sum += value
        slot = len(self.buckets)  # +Inf overflow
        for i, ub in enumerate(self.buckets):
            if value <= ub:
                self.counts[i] += 1
                slot = i
                break
        if trace_id:
            self.exemplars[slot] = (value, trace_id)

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf excluded."""
        out, running = [], 0
        for ub, c in zip(self.buckets, self.counts):
            running += c
            out.append((ub, running))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style).

        Linear interpolation inside the bucket that holds the target
        rank; observations past the last finite bucket clamp to its
        upper bound.  ``nan`` when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return math.nan
        target = q * self.count
        lower = 0.0
        for ub, running in self.cumulative():
            if running >= target:
                bucket_n = self.counts[self.buckets.index(ub)]
                prev = running - bucket_n
                frac = (target - prev) / bucket_n if bucket_n else 0.0
                return lower + (ub - lower) * frac
            lower = ub
        return self.buckets[-1]

    def summary(self) -> dict:
        """``{count, sum, mean, p50, p99}`` snapshot of this histogram."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count if self.count else math.nan,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Name- and label-keyed collection of counters/gauges/histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: dict[str, tuple[str, str]] = {}  # name -> (kind, help)
        self._metrics: dict[str, dict[tuple, object]] = {}

    def _get(self, kind: str, name: str, help: str, factory, labels):
        key = _label_key(labels)
        with self._lock:
            seen = self._kinds.get(name)
            if seen is None:
                self._kinds[name] = (kind, help)
            elif seen[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {seen[0]}, "
                    f"requested {kind}"
                )
            family = self._metrics.setdefault(name, {})
            metric = family.get(key)
            if metric is None:
                metric = factory()
                family[key] = metric
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get("counter", name, help, Counter, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get("gauge", name, help, Gauge, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._get(
            "histogram", name, help, lambda: Histogram(buckets), labels
        )

    # ---- export -----------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-friendly snapshot: ``{name: {kind, help, samples: [...]}}``."""
        with self._lock:
            kinds = dict(self._kinds)
            metrics = {n: dict(fam) for n, fam in self._metrics.items()}
        out: dict = {}
        for name in sorted(metrics):
            kind, help = kinds[name]
            samples = []
            for key in sorted(metrics[name]):
                m = metrics[name][key]
                labels = dict(key)
                if isinstance(m, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "count": m.count,
                            "sum": m.sum,
                            "buckets": {
                                str(ub): c for ub, c in m.cumulative()
                            },
                            "summary": m.summary(),
                            "exemplars": {
                                str(ub): {"value": ex[0], "trace_id": ex[1]}
                                for ub, ex in zip(
                                    (*m.buckets, "+Inf"), m.exemplars
                                )
                                if ex is not None
                            },
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": m.value})
            out[name] = {"kind": kind, "help": help, "samples": samples}
        return out


# ---------------------------------------------------------------------------
# absorbers: existing counter sources -> registry
# ---------------------------------------------------------------------------
def absorb_comm_stats(registry: MetricsRegistry, stats, rank: int) -> None:
    """Accumulate one rank's :class:`CommStats` into the registry."""
    r = str(rank)
    for field, name, help in (
        ("p2p_messages_sent", "simmpi_p2p_messages_sent_total",
         "point-to-point messages sent"),
        ("p2p_messages_received", "simmpi_p2p_messages_received_total",
         "point-to-point messages received"),
        ("p2p_bytes_sent", "simmpi_p2p_bytes_sent_total",
         "point-to-point payload bytes sent"),
        ("p2p_bytes_received", "simmpi_p2p_bytes_received_total",
         "point-to-point payload bytes received"),
        ("collective_ops", "simmpi_collective_ops_total",
         "collective operations"),
        ("collective_bytes", "simmpi_collective_bytes_total",
         "modelled bytes moved in collectives"),
        ("synchronizations", "simmpi_synchronizations_total",
         "forced waits on another rank"),
        ("faults_injected", "simmpi_faults_total",
         "injected/detected fault events"),
        ("retransmits", "simmpi_retransmits_total",
         "failed wire attempts re-sent by the reliable transport"),
        ("breaker_trips", "simmpi_breaker_trips_total",
         "per-link circuit breakers tripped open"),
        ("messages_lost", "simmpi_messages_lost_total",
         "permanently lost messages detected as sequence gaps"),
    ):
        registry.counter(name, help, rank=r).inc(getattr(stats, field))
    for field, name, help in (
        ("compute_time", "simmpi_compute_seconds_total",
         "logical compute seconds"),
        ("p2p_time", "simmpi_p2p_seconds_total",
         "logical point-to-point seconds"),
        ("collective_time", "simmpi_collective_seconds_total",
         "logical collective seconds"),
        ("retransmit_time", "simmpi_retransmit_seconds_total",
         "logical seconds lost to retransmit detection and backoff"),
    ):
        registry.counter(name, help, rank=r).inc(getattr(stats, field))
    for tag, seconds in stats.tagged_time.items():
        registry.counter(
            "simmpi_phase_seconds_total", "logical seconds per phase tag",
            rank=r, phase=tag,
        ).inc(seconds)


def absorb_workspace_counters(
    registry: MetricsRegistry, counters: dict, rank: int
) -> None:
    """Accumulate one rank's workspace pool counters into the registry.

    ``counters`` is the ``{"fresh_allocations", "reuses", "pooled_bytes"}``
    dict of :meth:`repro.core.workspace.Workspace.counters` that one call
    of a rank program or of the serial core reports: misses and hits of
    that call only, so a resident core's totals are counted once.
    """
    r = str(rank)
    registry.counter(
        "workspace_fresh_allocations_total",
        "pool misses that allocated a fresh buffer", rank=r,
    ).inc(counters["fresh_allocations"])
    registry.counter(
        "workspace_reuses_total", "pool hits reusing a parked buffer",
        rank=r,
    ).inc(counters["reuses"])
    registry.gauge(
        "workspace_pooled_bytes", "bytes currently parked in the pool",
        rank=r,
    ).set(counters["pooled_bytes"])

