"""Campaign telemetry: structured events, phase timers, metrics, traces.

The observability layer of the fault-injection stack (see the README's
"Observability" section):

* :mod:`repro.telemetry.events` — process-safe structured event emission
  (JSONL sessions, span phase timers, parent/worker plumbing).
* :mod:`repro.telemetry.metrics` — histogram and the per-campaign
  aggregation behind ``repro.cli campaign report``.
* :mod:`repro.telemetry.trace` — Chrome ``trace_event`` export for
  ``chrome://tracing`` / Perfetto.

Enable per campaign with ``CampaignSpec(telemetry=True)``, globally with
``REPRO_TELEMETRY=1``, or from the CLI with ``campaign run --telemetry``
(``--trace out.json`` additionally exports the Chrome trace). Telemetry
never affects results: events stay out of cache keys, journals, and
tallies, and the disabled path is a no-op.
"""

from repro.telemetry.events import (
    NULL,
    Telemetry,
    TelemetrySession,
    current_telemetry,
    read_events,
    set_current_telemetry,
    telemetry_dir,
    telemetry_events_path,
)
from repro.telemetry.metrics import (
    CampaignSummary,
    Histogram,
    render_summary,
    summarize_events,
)
from repro.telemetry.trace import to_chrome_trace, write_trace

__all__ = [
    "NULL",
    "CampaignSummary",
    "Histogram",
    "Telemetry",
    "TelemetrySession",
    "current_telemetry",
    "read_events",
    "render_summary",
    "set_current_telemetry",
    "summarize_events",
    "telemetry_dir",
    "telemetry_events_path",
    "to_chrome_trace",
    "write_trace",
]
