"""Tests for the opt-in cProfile stage hook."""

import pstats

import pytest

from repro.errors import ConfigurationError
from repro.exec import timing
from repro.obs import profile


class TestProfileHook:
    def test_off_by_default(self, tmp_path):
        with profile.maybe_profile("stage", directory=tmp_path) as prof:
            assert prof is None
        assert list(tmp_path.iterdir()) == []

    def test_falsy_values(self, monkeypatch):
        for value in ("", "0", "false", "no", "off", "OFF"):
            monkeypatch.setenv(profile.PROFILE_ENV, value)
            assert not profile.profiling_enabled()
        monkeypatch.setenv(profile.PROFILE_ENV, "1")
        assert profile.profiling_enabled()

    @pytest.mark.parametrize("value", ["garbage", "2", "enabled"])
    def test_unknown_word_rejected(self, monkeypatch, tmp_path, value):
        # Only the on/off words are accepted; nothing else means "on".
        monkeypatch.setenv(profile.PROFILE_ENV, value)
        with pytest.raises(ConfigurationError, match=profile.PROFILE_ENV):
            profile.profiling_enabled()
        with pytest.raises(ConfigurationError):
            with profile.maybe_profile("stage", directory=tmp_path):
                pass
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(profile.PROFILE_ENV, value)
        assert profile.profiling_enabled()

    def test_dumps_pstats(self, monkeypatch, tmp_path):
        monkeypatch.setenv(profile.PROFILE_ENV, "1")
        with profile.maybe_profile("my stage/x", directory=tmp_path):
            sum(range(1000))
        out = tmp_path / "PROF_my_stage_x.pstats"
        assert out.exists()
        stats = pstats.Stats(str(out))  # parseable by the pstats module
        assert stats.total_calls >= 1

    def test_no_nesting(self, monkeypatch, tmp_path):
        monkeypatch.setenv(profile.PROFILE_ENV, "1")
        with profile.maybe_profile("outer", directory=tmp_path):
            with profile.maybe_profile("inner", directory=tmp_path) as inner:
                assert inner is None
        assert (tmp_path / "PROF_outer.pstats").exists()
        assert not (tmp_path / "PROF_inner.pstats").exists()

    def test_timing_stage_profiles(self, monkeypatch, tmp_path):
        monkeypatch.setenv(profile.PROFILE_ENV, "1")
        monkeypatch.setenv(timing.BENCH_DIR_ENV, str(tmp_path))
        reg = timing.TimingRegistry()
        with reg.stage("timed"):
            pass
        assert (tmp_path / "PROF_timed.pstats").exists()
