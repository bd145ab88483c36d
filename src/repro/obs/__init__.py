"""Unified observability layer: metrics, tracing, logging, profiling.

* :mod:`repro.obs.metrics` — counters / gauges / histograms plus
  per-kernel, per-hierarchy-level, per-link derivations from a traced
  run, exported as
  JSON or Prometheus text (``repro metrics``);
* :mod:`repro.obs.tracing` — request-scoped span trees with
  trace-context propagation across the serving stack, a bounded
  flight recorder, and trace export/pretty-printing
  (``repro obs trace``); each engine dispatch is one ``simulate`` span
  on the attached trace, and with none attached it records nothing
  (a bitwise-neutral no-op);
* :mod:`repro.obs.logging` — one-line structured JSON logging shared
  by the daemon access log and the native core's ``ccore_load`` line;
* :mod:`repro.obs.profile` — self-profiling of the harness (the
  planning chain's spans folded by name, plus cProfile,
  ``repro profile``);
* :mod:`repro.obs.report` — standalone HTML run summary
  (``repro obs report``);
* :mod:`repro.obs.provenance` — the ``meta`` stamp (commit, dirty
  tree, interpreter, host) carried by every benchmark report.

See ``docs/observability.md`` for the workflow.
"""

from repro.obs.logging import jsonlog
from repro.obs.metrics import (
    MetricsRegistry,
    derive_run_metrics,
    utilization_timeline,
)
from repro.obs.profile import fold_spans, format_profile, profile_run
from repro.obs.provenance import run_metadata
from repro.obs.report import build_html, write_html
from repro.obs.tracing import (
    FlightRecorder,
    RequestTrace,
    Span,
    Tracer,
    attach,
    current_trace,
    span,
)

__all__ = [
    "FlightRecorder",
    "MetricsRegistry",
    "RequestTrace",
    "Span",
    "Tracer",
    "attach",
    "build_html",
    "current_trace",
    "derive_run_metrics",
    "fold_spans",
    "format_profile",
    "jsonlog",
    "profile_run",
    "run_metadata",
    "span",
    "utilization_timeline",
    "write_html",
]
