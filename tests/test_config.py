"""Tests for the declared ``REPRO_*`` knob registry (:mod:`repro.config`)."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import config
from repro.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]
NAMES = sorted(config.KNOBS)

#: Words and numbers every knob kind has to cope with, next to free text.
_WORDS = sorted(
    {w for k in config.KNOBS.values() for w in (*k.aliases, *k.choices)}
    | {*config.TRUTHY, *config.FALSY, "auto", "none", "nan", "-inf", "1e999"}
)
_TEXT = st.one_of(
    st.text(),
    st.sampled_from(_WORDS).map(lambda w: f" {w.upper()}\t"),
    st.integers(-(10**30), 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.lists(st.sampled_from(["", " ", "a", "b c", "x.jsonl", "/"])).map(",".join),
)
_BLANK = st.text(st.sampled_from(" \t\n\r\x0b\x0c\u00a0\u2003"))


@pytest.fixture(autouse=True)
def scrub_env(monkeypatch):
    for name in config.KNOBS:
        monkeypatch.delenv(name, raising=False)


def _in_kind(knob: config.Knob, value) -> bool:
    """Whether ``value`` is of the knob's declared kind, inside its bounds."""
    if value == knob.default:
        return True
    if knob.kind in ("int", "float"):
        if knob.kind == "int":
            typed = isinstance(value, int) and not isinstance(value, bool)
        else:
            typed = isinstance(value, float) and math.isfinite(value)
        lo_ok = knob.lo is None or (
            value > knob.lo if knob.lo_open else value >= knob.lo
        )
        return typed and lo_ok and (knob.hi is None or value <= knob.hi)
    if knob.kind == "choice":
        return value in knob.choices
    if knob.kind == "bool":
        return isinstance(value, bool)
    if knob.kind == "path":
        return isinstance(value, Path)
    if knob.kind == "run-target":
        return value is None or isinstance(value, Path)
    assert knob.kind == "comma-list", knob.kind
    return (
        isinstance(value, tuple)
        and len(value) > 0
        and all(n and n == n.strip() and "," not in n for n in value)
    )


class TestEveryKnob:
    @pytest.mark.parametrize("name", NAMES)
    @given(text=_TEXT)
    def test_text_resolves_in_kind_or_raises_configuration_error(self, name, text):
        knob = config.KNOBS[name]
        try:
            value = config.resolve(name, text)
        except ConfigurationError as exc:
            assert name in str(exc)
            return
        assert _in_kind(knob, value), (text, value)
        assert config.resolve(name, config.to_text(value)) == value

    @pytest.mark.parametrize("name", NAMES)
    @given(text=_BLANK)
    def test_blank_is_default(self, name, text):
        assert config.resolve(name, text) == config.KNOBS[name].default

    @pytest.mark.parametrize("name", NAMES)
    def test_default_round_trips(self, name):
        default = config.KNOBS[name].default
        assert config.resolve(name) == default
        assert config.resolve(name, config.to_text(default)) == default

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("text", ["   ", " 7 ", "0.5", "Off", "nope,"])
    def test_environment_matches_override(self, monkeypatch, name, text):
        monkeypatch.setenv(name, text)
        outcomes = []
        for override in (None, text):
            try:
                outcomes.append(config.resolve(name, override))
            except ConfigurationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestResolve:
    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert config.resolve("REPRO_SHARDS") == 3
        assert config.resolve("REPRO_SHARDS", 5) == 5

    def test_words(self):
        assert config.resolve("REPRO_WORKERS", "AUTO") >= 1
        cpus = config.resolve("REPRO_WORKERS", "auto")
        assert config.resolve("REPRO_WORKERS", 0) == cpus
        assert config.resolve("REPRO_PER_CACHE", " None ") == 0
        assert config.resolve("REPRO_ENV_BATCH", "off") == 1
        assert config.resolve("REPRO_CHANNEL", " Hybrid ") == "hybrid"
        assert config.resolve("REPRO_PROFILE", "Off") is False

    @pytest.mark.parametrize(
        ("name", "text", "message"),
        [
            ("REPRO_SERVE_BATCH", "0", "REPRO_SERVE_BATCH must be >= 1, got 0"),
            ("REPRO_TRACE_SAMPLE", "0", "must be in (0, 1]"),
            ("REPRO_SERVE_DEADLINE_MS", "nan", "must be a finite number"),
            ("REPRO_TASK_TIMEOUT", "inf", "must be a finite number"),
            ("REPRO_WORKERS", "many", "must be an integer or 'auto', got 'many'"),
            ("REPRO_CHANNEL", "exact", "must be one of"),
            ("REPRO_PROFILE", "garbage", "must be one of"),
            ("REPRO_ADVERSARIES", " , ", "must be a comma list"),
        ],
    )
    def test_bad_values_name_the_knob(self, name, text, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config.resolve(name, text)

    def test_run_target(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        assert config.resolve("REPRO_TRACE", "smoke") == tmp_path / "RUN_smoke.jsonl"
        assert config.resolve("REPRO_TELEM", "yes") == tmp_path / "TELEM_run.jsonl"
        assert config.resolve("REPRO_TELEM", "t.jsonl") == Path("t.jsonl")
        assert config.resolve("REPRO_TRACE", "no") is None


class TestExportAndSnapshot:
    def test_export_validates_before_writing(self, monkeypatch):
        import os

        with pytest.raises(ConfigurationError, match="REPRO_SHARDS"):
            config.export("REPRO_SHARDS", "foo")
        assert "REPRO_SHARDS" not in os.environ
        config.export("REPRO_SHARDS", 2)
        assert os.environ["REPRO_SHARDS"] == "2"

    def test_snapshot_records_resolved_or_raw(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", " auto ")
        monkeypatch.setenv("REPRO_SHARDS", "many")
        monkeypatch.setenv("REPRO_ADVERSARIES", "reactive, follower")
        snap = config.snapshot()
        assert list(snap) == list(config.KNOBS)
        assert snap["REPRO_WORKERS"] == config.resolve("REPRO_WORKERS", "auto")
        assert snap["REPRO_SHARDS"] == "many"
        assert snap["REPRO_ADVERSARIES"] == ("reactive", "follower")
        assert snap["REPRO_TRACE"] is None
        assert isinstance(snap["REPRO_BENCH_DIR"], str)
        json.dumps(snap)


class TestSourceTree:
    def test_only_the_registry_reads_the_environment(self):
        readers = [
            path.relative_to(ROOT).as_posix()
            for path in (ROOT / "src" / "repro").rglob("*.py")
            if re.search(r"os\.environ|getenv", path.read_text())
        ]
        assert readers == ["src/repro/config.py"]

    def test_every_knob_named_in_src_is_declared(self):
        named = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            named |= set(re.findall(r"\bREPRO_[A-Z]+(?:_[A-Z]+)*\b", path.read_text()))
        assert named == set(config.KNOBS)

    def test_readme_table_covers_the_registry(self):
        readme = (ROOT / "README.md").read_text()
        rows = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, re.MULTILINE))
        assert set(config.KNOBS) <= rows
        benchmarks = "\n".join(
            path.read_text() for path in (ROOT / "benchmarks").rglob("*.py")
        )
        for name in sorted(rows - set(config.KNOBS)):
            assert re.search(rf"\b{name}\b", benchmarks), name
