"""Serialization of elimination lists and their configs.

Elimination lists are *the* portable artifact of a tiled QR (the paper's
§II point); persisting them lets users archive, diff, and replay exact
algorithm instances across machines and versions.  The JSON schema is
versioned and stable.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Sequence

from repro.hqr.config import HQRConfig
from repro.trees.base import Elimination

SCHEMA_VERSION = 1


def eliminations_to_json(
    elims: Sequence[Elimination], m: int, n: int, *, config: HQRConfig | None = None
) -> str:
    """Serialize an elimination list (with its matrix shape) to JSON."""
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "elimination-list",
        "m": m,
        "n": n,
        "config": asdict(config) if config is not None else None,
        "eliminations": [
            [e.panel, e.victim, e.killer, 1 if e.ts else 0] for e in elims
        ],
    }
    return json.dumps(doc, indent=None, separators=(",", ":"))


def eliminations_from_json(text: str) -> tuple[list[Elimination], int, int, HQRConfig | None]:
    """Inverse of :func:`eliminations_to_json`.

    Returns ``(eliminations, m, n, config)``; the config is ``None`` when
    the document did not embed one.
    """
    doc = json.loads(text)
    if doc.get("kind") != "elimination-list":
        raise ValueError(f"not an elimination-list document: {doc.get('kind')!r}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {doc.get('schema')!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    elims = [
        Elimination(panel=p, victim=v, killer=k, ts=bool(ts))
        for p, v, k, ts in doc["eliminations"]
    ]
    cfg = HQRConfig(**doc["config"]) if doc.get("config") else None
    return elims, doc["m"], doc["n"], cfg

