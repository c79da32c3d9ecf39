"""The one declared registry of every ``REPRO_*`` knob the library reads.

Each knob is declared once in :data:`KNOBS` with its kind, default, word
aliases, bounds and a one-line doc, and :func:`resolve` is the only code
that parses one. The rules are the same for every knob:

* an explicit override (a CLI flag, a constructor argument) beats the
  environment, which is read at call time;
* a blank or whitespace-only value means unset, i.e. the default;
* words compare case-insensitively: ``auto`` means one per CPU where a
  knob allows it, and ``0/false/no/off`` switch a bool or run-target
  knob off (``1/true/yes/on`` switch it on);
* every bad value (unparseable, non-finite, out of bounds, an unknown
  word) raises :class:`~repro.errors.ConfigurationError` naming the knob.

``repro config`` prints every knob as it resolves here, and the RUN,
TELEM and BENCH artifacts record :func:`snapshot` so a run's manifest
holds the values it actually used.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError

#: Words that switch a bool or run-target knob on / off.
TRUTHY = ("1", "true", "yes", "on")
FALSY = ("0", "false", "no", "off")

_PACKAGE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Knob:
    """One declared ``REPRO_*`` knob.

    ``kind`` is one of ``int``, ``float``, ``choice``, ``bool``, ``path``,
    ``run-target`` (a run name, a ``.jsonl`` path, or an on/off word,
    resolving to the artifact path or ``None``) and ``comma-list``.
    """

    name: str
    kind: str
    default: Any
    doc: str
    #: Lower-case words standing for a value, e.g. ``{"off": 0}``.
    aliases: Mapping[str, Any] = field(default_factory=dict)
    #: Numeric bounds; ``lo_open`` makes the lower one exclusive.
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    #: Accepted words of a ``choice`` knob.
    choices: tuple[str, ...] = ()
    #: ``auto`` (and 0, when 0 is in bounds) means one per CPU.
    auto: bool = False
    #: File prefix of a ``run-target`` knob (``RUN`` -> ``RUN_<name>.jsonl``).
    prefix: str = ""


_OFF = {"off": 0, "none": 0}

# fmt: off
KNOBS: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        # exec: process pool and fault policy
        Knob("REPRO_WORKERS", "int", 1, "process-pool size; auto/0 = one per CPU", lo=0, auto=True),
        Knob("REPRO_ON_ERROR", "choice", "raise", "task-failure policy", choices=("raise", "retry", "skip")),
        Knob("REPRO_MAX_RETRIES", "int", 2, "re-dispatches per task under retry/skip", lo=0),
        Knob("REPRO_TASK_TIMEOUT", "float", None, "per-task result budget in seconds (unset waits forever)", lo=0, lo_open=True),
        Knob("REPRO_FAULT_RATE", "float", 0.0, "deterministic fault-injection probability", lo=0, hi=1),
        Knob("REPRO_FAULT_SEED", "int", 0, "seed of the fault injector's stream", lo=0),
        # core / sim: batching and sharding
        Knob("REPRO_ENV_BATCH", "int", 8, "seeds trained lock-step per pool task; off = 1", aliases={"off": 1, "none": 1}, lo=1),
        Knob("REPRO_SHARDS", "int", 1, "spatial shards per field grid; auto = one per CPU", lo=1, auto=True),
        Knob("REPRO_FIELD_BATCH", "int", 64, "slots of uniforms per rng refill in aggregate sampling", lo=1),
        Knob("REPRO_ADVERSARIES", "comma-list", None, "adversaries for `repro figure adv` (unset = all four)"),
        # channel: fidelity tier and its caches
        Knob("REPRO_CHANNEL", "choice", "analytic", "channel-fidelity tier", choices=("analytic", "hybrid", "waveform")),
        Knob("REPRO_CALIBRATION", "path", _PACKAGE / "channel" / "data" / "calibration_default.json", "hybrid-tier calibration artifact"),
        Knob("REPRO_CHANNEL_TRIALS", "int", 32, "waveform-tier Monte-Carlo trials per cached bin", lo=1),
        Knob("REPRO_CHANNEL_BIN", "float", 0.5, "waveform-tier margin-bin width in dB", lo=0, lo_open=True),
        Knob("REPRO_PER_CACHE", "int", 1 << 16, "PER memo-table entries per link table; off = 0", aliases=_OFF, lo=0),
        Knob("REPRO_TRIAL_BATCH", "int", 64, "waveform trials per tensor batch / pool task; off = 1", aliases={"off": 1}, lo=1),
        Knob("REPRO_JAMMER_BANK", "int", 1 << 15, "jammer waveform bank size in samples; off = 0 re-encodes", aliases=_OFF, lo=0),
        # serve: micro-batching and admission
        Knob("REPRO_SERVE_BATCH", "int", 64, "max decisions per stacked forward", lo=1),
        Knob("REPRO_SERVE_DEADLINE_MS", "float", 2.0, "max time a decision request waits for batch peers", lo=0),
        Knob("REPRO_SERVE_QUEUE", "int", 256, "pending-request queue bound", lo=1),
        Knob("REPRO_SERVE_ADMISSION", "choice", "queue", "overflow policy", choices=("queue", "shed", "degrade")),
        # obs: artifacts, tracing, telemetry, profiling
        Knob("REPRO_BENCH_DIR", "path", _PACKAGE.parents[1] / "benchmarks" / "results", "where RUN/TELEM/PROF/BENCH artifacts go"),
        Knob("REPRO_TRACE", "run-target", None, "RUN_*.jsonl trace: run name, .jsonl path, or on/off", prefix="RUN"),
        Knob("REPRO_TRACE_SAMPLE", "float", 1.0, "fraction of trace events kept", lo=0, hi=1, lo_open=True),
        Knob("REPRO_TELEM", "run-target", None, "TELEM_*.jsonl telemetry: run name, .jsonl path, or on/off", prefix="TELEM"),
        Knob("REPRO_TELEM_INTERVAL", "int", 20, "telemetry window length in slots/episodes", lo=1),
        Knob("REPRO_TELEM_WINDOW", "int", 256, "telemetry frames kept in memory per recorder", lo=1),
        Knob("REPRO_PROFILE", "bool", False, "cProfile each timed stage into PROF_<stage>.pstats"),
    )
}
# fmt: on


def _cpus() -> int:
    return os.cpu_count() or 1


def _bad(knob: Knob, expected: str, got: object) -> ConfigurationError:
    return ConfigurationError(f"{knob.name} must be {expected}, got {got!r}")


def _number(knob: Knob, text: str) -> int | float:
    if knob.auto and text.lower() == "auto":
        return _cpus()
    try:
        value = int(text) if knob.kind == "int" else float(text)
    except (ValueError, OverflowError):
        words = [*knob.aliases, "auto"] if knob.auto else list(knob.aliases)
        noun = "an integer" if knob.kind == "int" else "a number"
        raise _bad(knob, noun + "".join(f" or {w!r}" for w in words), text) from None
    if knob.kind == "float" and not math.isfinite(value):
        raise _bad(knob, "a finite number", text)
    lo, hi = knob.lo, knob.hi
    above_lo = lo is None or (value > lo if knob.lo_open else value >= lo)
    if not (above_lo and (hi is None or value <= hi)):
        if hi is None:
            bounds = f"{'>' if knob.lo_open else '>='} {lo}"
        else:
            bounds = f"in {'(' if knob.lo_open else '['}{lo}, {hi}]"
        raise ConfigurationError(f"{knob.name} must be {bounds}, got {value}")
    return _cpus() if knob.auto and value == 0 else value


def _parse(knob: Knob, text: str) -> Any:
    word = text.lower()
    if word in knob.aliases:
        return knob.aliases[word]
    if knob.kind in ("int", "float"):
        return _number(knob, text)
    if knob.kind == "choice":
        if word not in knob.choices:
            raise _bad(knob, f"one of {knob.choices}", text)
        return word
    if knob.kind == "bool":
        if word not in TRUTHY + FALSY:
            raise _bad(knob, f"one of {TRUTHY + FALSY}", text)
        return word in TRUTHY
    if knob.kind == "path":
        return Path(text)
    if knob.kind == "run-target":
        if word in FALSY:
            return None
        if word in TRUTHY:
            text = "run"
        elif os.sep in text or text.endswith(".jsonl"):
            return Path(text)
        return resolve("REPRO_BENCH_DIR") / f"{knob.prefix}_{text}.jsonl"
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise _bad(knob, "a comma list of names", text)
    return names


def to_text(value: Any) -> str:
    """A resolved value as the text that resolves back to it (``None`` -> "")."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, Path) and os.sep not in str(value):
        return os.path.join(".", value)  # keep a bare file name a path
    return str(value)


def resolve(name: str, override: Any = None) -> Any:
    """Knob ``name`` from ``override``, else the environment, else its default."""
    knob = KNOBS[name]
    raw = os.environ.get(name) if override is None else to_text(override)
    if raw is None or not raw.strip():
        return knob.default
    return _parse(knob, raw.strip())


def source(name: str) -> str:
    """``"env"`` when knob ``name`` is set (non-blank) in the environment."""
    return "env" if os.environ.get(name, "").strip() else "default"


def export(name: str, value: Any) -> None:
    """Validate ``value`` for knob ``name`` and publish it to the environment.

    The CLI exports its flags this way so that library entry points and
    forked pool workers resolve the same value.
    """
    resolve(name, value)
    os.environ[name] = to_text(value)


def snapshot() -> dict[str, Any]:
    """Every knob as resolved now, JSON-ready.

    A set-but-invalid knob is recorded by its raw text, so writing a
    manifest never fails a run.
    """
    out: dict[str, Any] = {}
    for name in KNOBS:
        try:
            value = resolve(name)
        except ConfigurationError:
            value = os.environ.get(name)
        out[name] = str(value) if isinstance(value, Path) else value
    return out


__all__ = [
    "FALSY",
    "KNOBS",
    "TRUTHY",
    "Knob",
    "export",
    "resolve",
    "snapshot",
    "source",
    "to_text",
]
