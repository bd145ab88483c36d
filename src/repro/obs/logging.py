"""Structured JSON logging shared by the serving stack and the native core.

One helper, two sinks:

* ``jsonlog(event, logger=...)`` emits the JSON line through a standard
  :mod:`logging` logger — library code (``repro._ccore``'s one
  ``ccore_load`` line) uses this so the usual level filtering, ``caplog`` capture and handler
  configuration keep working.  The human-readable summary goes into the
  ``msg`` field so log greps (and existing tests) still match.
* ``jsonlog(event)`` with no logger writes the line straight to stderr
  with a wall-clock ``ts`` — the daemon access log uses this so request
  lines appear regardless of the process's logging configuration.

Every line is a single JSON object with at least ``level`` and
``event``; extra keyword arguments become fields verbatim.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time

__all__ = ["jsonlog"]

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

_lock = threading.Lock()


def jsonlog(
    event: str,
    *,
    level: str = "info",
    logger: logging.Logger | None = None,
    **fields,
) -> str | None:
    """Emit one structured JSON log line; returns the line (or ``None``).

    ``level="debug"`` lines on the direct sink are suppressed unless
    ``REPRO_LOG_DEBUG`` is set, so hot paths can leave verbose
    instrumentation in place for free.
    """
    if level not in _LEVELS:
        raise ValueError(f"unknown log level {level!r}")
    payload: dict = {"level": level, "event": event}
    payload.update(fields)
    if logger is not None:
        line = json.dumps(payload, sort_keys=True, default=str)
        logger.log(_LEVELS[level], "%s", line)
        return line
    if level == "debug" and not os.environ.get("REPRO_LOG_DEBUG"):
        return None
    payload["ts"] = round(time.time(), 6)
    line = json.dumps(payload, sort_keys=True, default=str)
    with _lock:
        print(line, file=sys.stderr, flush=True)
    return line
