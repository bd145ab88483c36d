"""Cross-engine differential verifier and schedule-legality oracle.

Every front end funnels into the unified event loop of
:mod:`repro.runtime.core`, which still carries two genuinely distinct
implementations — the Python inner loop and the native C inner loop —
plus a fingerprint-keyed graph cache.  The paper's elimination-list
algebra promises that *any* tree combination yields a valid,
bit-reproducible schedule, so silent divergence between implementations
invalidates every benchmark number.  This package is the standing
correctness tool that enforces that promise:

* :mod:`repro.verify.generator` — seeded sampling of HQR configurations
  (trees x domino x ``a`` x grids x machine shapes x priorities), plus
  the single-axis :func:`propose_neighbor` moves the :mod:`repro.tune`
  annealer uses as its proposal distribution;
* :mod:`repro.verify.engines` — runs one case on every engine and
  compares the results bitwise;
* :mod:`repro.verify.oracle` — checks schedule legality independently of
  any engine (core occupancy, channel serialization, data arrivals,
  lower bounds);
* :mod:`repro.verify.shrink` — minimizes a failing case over
  ``(m, n, a, p, q)`` before reporting;
* :mod:`repro.verify.runner` — the ``repro verify`` entry point with
  JSON reports and replay.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.verify.engines": ("available_engines", "result_key", "run_engines"),
    "repro.verify.generator": (
        "NEIGHBOR_AXES", "VerifyCase", "generate_cases",
        "propose_neighbor",
    ),
    "repro.verify.oracle": ("OracleViolation", "check_schedule"),
    "repro.verify.runner": (
        "CaseFailure", "replay_report", "verify", "verify_case",
        "write_report",
    ),
    "repro.verify.shrink": ("shrink_case",),
})
