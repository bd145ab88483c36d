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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.logging": ("jsonlog",),
    "repro.obs.metrics": (
        "MetricsRegistry", "derive_run_metrics",
        "utilization_timeline",
    ),
    "repro.obs.profile": ("fold_spans", "format_profile", "profile_run"),
    "repro.obs.provenance": ("run_metadata",),
    "repro.obs.report": ("build_html", "write_html"),
    "repro.obs.tracing": (
        "FlightRecorder", "RequestTrace", "Span", "Tracer", "attach",
        "current_trace", "span",
    ),
})
