"""Where observability artifacts land on disk.

``RUN_*.jsonl`` traces, ``PROF_*.pstats`` profiles and ``BENCH_*.json``
timing snapshots all share one artifact directory: ``$REPRO_BENCH_DIR``
when set, else ``benchmarks/results/`` at the repo root.
"""

from __future__ import annotations

from functools import partial

from repro import config

#: Environment variable overriding where observability artifacts are written.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

#: Default artifact directory (benchmarks/results at the repo root).
DEFAULT_ARTIFACT_DIR = config.KNOBS[BENCH_DIR_ENV].default

#: Directory RUN/PROF/BENCH artifacts are written to (env-overridable).
artifact_dir = partial(config.resolve, BENCH_DIR_ENV)


__all__ = ["BENCH_DIR_ENV", "DEFAULT_ARTIFACT_DIR", "artifact_dir"]
