"""Observation configuration and the per-run observation bundle.

``CoreConfig(observe=True)`` (or ``observe=ObsConfig(...)``) turns the
observability layer on for a :class:`~repro.core.driver.DynamicalCore`;
the core then owns an :class:`Observation` — the live tracer, metrics
registry, telemetry series, and captured logical-clock traces — exposed
as ``core.observation`` after (and during) a run.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs.telemetry import TelemetrySeries


@dataclass
class ObsConfig:
    """What to observe, and where (optionally) to write it.

    All collection switches default on — construction of an ``ObsConfig``
    *is* the opt-in; ``observe=None``/``False`` on the core config keeps
    the whole layer disabled at near-zero cost.
    """

    spans: bool = True           # wall-clock span tracing
    logical_trace: bool = True   # capture simmpi TraceRecorder events
    metrics: bool = True         # CommStats / workspace -> registry
    telemetry: bool = True       # per-step physics scalars
    chrome_trace: str | None = None  # auto-write Chrome trace here
    jsonl: str | None = None         # auto-write JSONL event log here

    @classmethod
    def coerce(cls, value) -> "ObsConfig | None":
        """Normalise a ``CoreConfig.observe`` value.

        ``None``/``False`` -> ``None`` (disabled), ``True`` -> defaults,
        an ``ObsConfig`` passes through.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"observe must be None/bool/ObsConfig, got {type(value).__name__}"
        )


@dataclass
class Observation:
    """The live observability state of one core (possibly many runs)."""

    config: ObsConfig
    tracer: SpanTracer | None = None
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    telemetry: TelemetrySeries = field(default_factory=TelemetrySeries)
    logical_traces: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.config.spans and self.tracer is None:
            self.tracer = SpanTracer()

    @property
    def spans(self) -> list:
        return self.tracer.spans if self.tracer is not None else []

    def chrome_trace(self) -> dict:
        """Chrome-trace document of wall-clock + logical-clock lanes."""
        from repro.obs import exporters

        return exporters.chrome_trace(
            spans=self.spans, recorders=self.logical_traces
        )

    def write_chrome_trace(self, path):
        from repro.obs import exporters

        return exporters.write_chrome_trace(path, self.chrome_trace())

    def write_jsonl(self, path):
        from repro.obs import exporters

        return exporters.write_jsonl(
            path,
            exporters.jsonl_records(
                spans=self.spans,
                telemetry=self.telemetry.records,
                metrics=self.registry.as_dict(),
            ),
        )

    def finalize_outputs(self) -> None:
        """Write any outputs the config asked for (idempotent overwrite)."""
        if self.config.chrome_trace:
            self.write_chrome_trace(self.config.chrome_trace)
        if self.config.jsonl:
            self.write_jsonl(self.config.jsonl)

    def summary(self) -> str:
        lines = []
        if self.tracer is not None:
            spans = self.tracer.spans
            lines.append(f"spans: {len(spans)} recorded")
            steps = self.tracer.count("step")
            if steps:
                lines.append(
                    f"  step x{steps}  "
                    f"halo-exchange x{self.tracer.count('halo-exchange')}"
                )
        lines.append(self.telemetry.summary())
        return "\n".join(lines)
