"""Strict parser for Prometheus text exposition format 0.0.4.

The round-trip check for ``MetricsRegistry.to_prometheus`` and for the
daemon's live ``/metrics`` scrape; no program code parses exposition
text, so it lives with the tests.
"""

import re

_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def _unescape_label_value(raw: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            if i + 1 >= len(raw):
                raise ValueError("dangling backslash in label value")
            nxt = raw[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:
                raise ValueError(f"bad escape \\{nxt} in label value")
            i += 2
            continue
        if ch == '"':
            raise ValueError("unescaped double quote in label value")
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_labels(raw: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(raw):
        m = _LABEL_NAME_RE.match(raw, i)
        if m is None:
            raise ValueError(f"bad label name at {raw[i:]!r}")
        name = m.group(0)
        i = m.end()
        if raw[i : i + 2] != '="':
            raise ValueError(f"expected '=\"' after label {name!r}")
        i += 2
        j = i
        while True:
            if j >= len(raw):
                raise ValueError("unterminated label value")
            if raw[j] == "\\":
                j += 2
                continue
            if raw[j] == '"':
                break
            j += 1
        labels[name] = _unescape_label_value(raw[i:j])
        i = j + 1
        if i < len(raw):
            if raw[i] != ",":
                raise ValueError(f"expected ',' between labels at {raw[i:]!r}")
            i += 1
    return labels


def parse_prometheus_text(text: str) -> dict:
    """Strictly parse exposition-format 0.0.4 text (as scraped).

    Returns ``{metric_name: {"type": ..., "help": ..., "samples":
    [(sample_name, labels_dict, value), ...]}}`` keyed by the TYPE'd
    metric name; raises :class:`ValueError` on anything malformed —
    unknown sample names, labels out of any TYPE'd family, bad escapes,
    HELP/TYPE after samples, non-float values.  Deliberately pickier
    than real scrapers: it is the round-trip check for
    :meth:`MetricsRegistry.to_prometheus`.
    """
    families: dict[str, dict] = {}
    current: str | None = None

    def family_of(sample_name: str) -> str:
        if sample_name in families:
            return sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name.removesuffix(suffix)
            if (
                base != sample_name
                and base in families
                and families[base]["type"] == "histogram"
            ):
                return base
        raise ValueError(f"sample {sample_name!r} has no TYPE'd family")

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            kind, rest = line[2:6], line[7:]
            parts = rest.split(" ", 1)
            name = parts[0]
            if _METRIC_NAME_RE.fullmatch(name) is None:
                raise ValueError(f"line {lineno}: bad metric name {name!r}")
            fam = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            if fam["samples"]:
                raise ValueError(
                    f"line {lineno}: {kind} for {name!r} after its samples"
                )
            if kind == "HELP":
                fam["help"] = parts[1] if len(parts) > 1 else ""
            else:
                typ = parts[1] if len(parts) > 1 else ""
                if typ not in ("counter", "gauge", "histogram", "summary",
                               "untyped"):
                    raise ValueError(f"line {lineno}: bad TYPE {typ!r}")
                fam["type"] = typ
            current = name
            continue
        if line.startswith("#"):
            continue  # comment
        m = _METRIC_NAME_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unparsable sample {line!r}")
        sample_name = m.group(0)
        rest = line[m.end() :]
        labels: dict[str, str] = {}
        if rest.startswith("{"):
            end = None
            j = 1
            while j < len(rest):
                if rest[j] == "\\":
                    j += 2
                    continue
                if rest[j] == '"':
                    j += 1
                    while j < len(rest) and rest[j] != '"':
                        j += 2 if rest[j] == "\\" else 1
                    j += 1
                    continue
                if rest[j] == "}":
                    end = j
                    break
                j += 1
            if end is None:
                raise ValueError(f"line {lineno}: unterminated label set")
            labels = _parse_labels(rest[1:end])
            rest = rest[end + 1 :]
        value_str = rest.strip()
        if not value_str or " " in value_str:
            # a timestamp field would show up as a second token; this
            # exporter never emits one, so reject it outright
            raise ValueError(f"line {lineno}: bad value field {value_str!r}")
        value = float(value_str)  # raises on garbage
        base = family_of(sample_name)
        fam = families[base]
        if fam["type"] is None:
            raise ValueError(f"line {lineno}: sample before TYPE for {base!r}")
        if current is not None and base != current and base in families:
            # interleaved families are legal per spec but this exporter
            # groups samples under their TYPE line; flag regressions
            if families[base]["samples"] and current != base:
                raise ValueError(
                    f"line {lineno}: {base!r} samples are interleaved"
                )
        fam["samples"].append((sample_name, labels, value))
        current = base

    # histogram invariants: cumulative buckets ascending in le, +Inf == count
    for name, fam in families.items():
        if fam["type"] != "histogram":
            continue
        buckets = [
            (lab.get("le"), val)
            for sname, lab, val in fam["samples"]
            if sname == name + "_bucket"
        ]
        counts = [
            val for sname, lab, val in fam["samples"] if sname == name + "_count"
        ]
        if not buckets or not counts:
            raise ValueError(f"histogram {name!r} missing buckets or count")
        if buckets[-1][0] != "+Inf":
            raise ValueError(f"histogram {name!r} must end with le=\"+Inf\"")
        ubs = [float(le) for le, _ in buckets[:-1]]
        if ubs != sorted(ubs):
            raise ValueError(f"histogram {name!r} buckets not ascending")
        vals = [v for _, v in buckets]
        if vals != sorted(vals):
            raise ValueError(f"histogram {name!r} buckets not cumulative")
        if vals[-1] != counts[0]:
            raise ValueError(f"histogram {name!r} +Inf bucket != count")
    return families
