"""The ``meta`` provenance stamp carried by every benchmark report."""

import subprocess

from repro.obs import provenance
from repro.obs.provenance import run_metadata


class TestRunMetadata:
    def test_fields(self):
        meta = run_metadata()
        assert meta["python"].count(".") == 2
        assert meta["cpu_count"] >= 1
        assert meta["platform"]
        assert "T" in meta["timestamp"]  # ISO 8601

    def test_git_sha_present_in_repo(self):
        meta = run_metadata()
        assert meta["git_sha"] is None or len(meta["git_sha"]) == 40

    def test_dirty_names_an_uncommitted_change(self, tmp_path, monkeypatch):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        monkeypatch.setattr(provenance, "_HERE", str(tmp_path))
        # stop git's upward search, in case the temp dir sits in a checkout
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        meta = run_metadata()
        assert meta["git_sha"] is None and meta["dirty"] is None

        git("init", "-q")
        (tmp_path / "kept.txt").write_text("kept\n")
        git("add", "kept.txt")
        git("commit", "-q", "-m", "one file")
        meta = run_metadata()
        assert len(meta["git_sha"]) == 40 and meta["dirty"] is False

        (tmp_path / "uncommitted.txt").write_text("not committed\n")
        after = run_metadata()
        assert after["git_sha"] == meta["git_sha"] and after["dirty"] is True
