"""The text pictures of ``examples/viz.py``."""

from _support import example

viz = example("viz")
render_parallelism_profile, sparkline = viz.render_parallelism_profile, viz.sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_ramp(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8])
        assert s[0] == " " and s[-1] == "█"

    def test_all_zero(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_resampling(self):
        s = sparkline(list(range(100)), width=10)
        assert len(s) == 10

    def test_profile_rendering(self):
        from repro.hqr import HQRConfig, hqr_elimination_list
        from repro.runtime.executor import numeric_graph
        g, _ = numeric_graph(hqr_elimination_list(16, 4, HQRConfig(p=2, a=2)), 16, 4)
        text = render_parallelism_profile(viz.parallelism_profile(g), label="hqr")
        assert "peak=" in text and "steps=" in text

    def test_profile_empty(self):
        assert "(empty)" in render_parallelism_profile([], label="x")
