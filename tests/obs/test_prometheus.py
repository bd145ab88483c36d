"""Prometheus exposition: label escaping, histogram invariants, strict
round-trip parsing of everything the registry exports."""

import pytest

from _prometheus_text import parse_prometheus_text
from repro.obs.metrics import MetricsRegistry


def roundtrip(reg: MetricsRegistry) -> dict:
    return parse_prometheus_text(reg.to_prometheus())


class TestLabelEscaping:
    @pytest.mark.parametrize(
        "raw",
        [
            'plain',
            'with "quotes"',
            "back\\slash",
            "line\nfeed",
            'all \\ of "them"\ntogether',
        ],
    )
    def test_label_value_round_trips(self, raw):
        reg = MetricsRegistry()
        reg.counter("t_total", "h").inc(2.0, tenant=raw)
        fams = roundtrip(reg)
        ((name, labels, value),) = fams["t_total"]["samples"]
        assert name == "t_total"
        assert labels == {"tenant": raw}
        assert value == 2.0

    def test_escaped_exposition_is_one_line_per_sample(self):
        reg = MetricsRegistry()
        reg.counter("t_total", "h").inc(1.0, tenant="evil\nname")
        text = reg.to_prometheus()
        sample_lines = [
            ln for ln in text.splitlines() if not ln.startswith("#") and ln
        ]
        assert len(sample_lines) == 1
        assert '\\n' in sample_lines[0]

    def test_help_escapes_newline(self):
        reg = MetricsRegistry()
        reg.gauge("g", "two\nlines \\ here").set(1.0)
        text = reg.to_prometheus()
        help_line = next(
            ln for ln in text.splitlines() if ln.startswith("# HELP")
        )
        assert "\n" not in help_line
        assert roundtrip(reg)["g"]["samples"] == [("g", {}, 1.0)]

    def test_multiple_labels_sorted_and_parsed(self):
        reg = MetricsRegistry()
        reg.counter("t_total").inc(3.0, b="2", a="1")
        fams = roundtrip(reg)
        assert fams["t_total"]["samples"] == [
            ("t_total", {"a": "1", "b": "2"}, 3.0)
        ]


class TestHistogramExposition:
    def test_buckets_are_cumulative_and_ordered(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        fams = roundtrip(reg)  # the parser enforces the invariants
        buckets = [
            (labels["le"], value)
            for name, labels, value in fams["lat"]["samples"]
            if name == "lat_bucket"
        ]
        assert buckets == [
            ("0.1", 1.0), ("1", 3.0), ("10", 4.0), ("+Inf", 5.0)
        ]
        counts = {
            name: value
            for name, _, value in fams["lat"]["samples"]
            if name in ("lat_sum", "lat_count")
        }
        assert counts["lat_count"] == 5.0
        assert counts["lat_sum"] == pytest.approx(56.05)

    def test_parser_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 3\n'
            'lat_bucket{le="1"} 2\n'
            'lat_bucket{le="+Inf"} 3\n'
            "lat_sum 1.0\n"
            "lat_count 3\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_prometheus_text(text)

    def test_parser_rejects_unordered_bounds(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="1"} 1\n'
            'lat_bucket{le="0.1"} 2\n'
            'lat_bucket{le="+Inf"} 2\n'
            "lat_sum 1.0\n"
            "lat_count 2\n"
        )
        with pytest.raises(ValueError, match="ascending"):
            parse_prometheus_text(text)

    def test_parser_rejects_inf_count_mismatch(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="+Inf"} 2\n'
            "lat_sum 1.0\n"
            "lat_count 3\n"
        )
        with pytest.raises(ValueError, match="count"):
            parse_prometheus_text(text)


class TestStrictParser:
    def test_rejects_untyped_samples(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse_prometheus_text("loose_metric 1\n")

    def test_rejects_bad_escape(self):
        text = '# TYPE t counter\nt{a="bad\\q"} 1\n'
        with pytest.raises(ValueError, match="escape"):
            parse_prometheus_text(text)

    def test_rejects_garbage_value(self):
        text = "# TYPE t counter\nt over9000\n"
        with pytest.raises(ValueError):
            parse_prometheus_text(text)

    def test_rejects_type_after_samples(self):
        text = "# TYPE t counter\nt 1\n# HELP t too late\n"
        with pytest.raises(ValueError, match="after"):
            parse_prometheus_text(text)
