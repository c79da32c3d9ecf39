"""Paper-pipeline benchmark: run one workload on one seed.

Usage::

    python3 perfbench/run.py --workload train --seed 1 --seconds 28 --trace 0

Workloads (see ``workloads.py``): ``train``, ``field_adv`` and ``serve``
are the ones ``BENCHMARK.json`` names; ``field_sweep`` runs the same way
when asked for by name, but is left out of the benchmark's runs so that
the other three get longer runs in the same total time. Every worker
process has a scrubbed environment (no ``REPRO_*`` variable, one BLAS
thread) and imports the program once. A ``measure`` process then takes
samples for ``--seconds``: set-up plus one run, every run started from
cleared program caches, as a CLI process starts. Its first sample is a
warm-up and is not timed. Two ``setup`` processes only import and set up
once; ``setup_s`` is the median over the three processes of import plus
first set-up.

Every other metric is the median over the timed samples (over fixed-rate
blocks and blocks of bursts on ``serve``, several to a sample). The shared
host slows a process down by a third or more for seconds to minutes at a
time, so a run of this length mostly sees one state of the host: the
median of many samples, taken after the warm-up, is the steadiest figure
from one run that this host gave (steadier than the fast end of the
samples, which moves with how much of a run happened to be quiet).
Metrics that do not depend on timing (S_T and goodput of the lock-step
workloads) read the same in every sample, which the output checks
enforce; ``train`` computes them in each process's warm-up sample only.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one untraced and one traced process, which share
``--seconds``, and prints the per-layer metrics; ``trace_overhead_ratio``
compares their run CPU time. Output checks run in the same command,
untimed; any mismatch fails the run (non-zero exit) and counts in
``failed``.

The end-to-end metrics are printed on every workload, each measured on
that workload's own unit of work -- one network's hop/power decision for
one slot: a training env step on ``train``, a network-slot on the field
workloads, a served request on ``serve``. Lock-step times are process CPU
seconds, which leave out time the shared host takes the CPU away.

=====================  ======================  ==================  =====================
metric                 train                   field_*             serve
=====================  ======================  ==================  =====================
steps_per_s            training env steps/s    network-slots/s     decisions per CPU-s
                                                                   in bursts that
                                                                   saturate the server
network_slots_per_s    as steps_per_s          network-slots/s     as steps_per_s
success_rate           greedy S_T              S_T                 share answered within
                                                                   9 ms at the fixed rate
goodput_pkts_per_slot  deployed policies'      Fig. 11(a) goodput  packets a 3 s slot
                       field goodput                               keeps after the p99
                                                                   decision latency
latency_p50_ms         ms per lock-step slot   ms per grid slot    median from each
                                                                   request's due time
=====================  ======================  ==================  =====================

Two serving numbers are reported, but not bounded: the
fixed-rate p99 (``serve.latency_p99_ms``) and the ladder's knee -- the
highest rate with p99 <= 9 ms, no failure and no growing backlog
(``serve.max_rate_rps``, traced run only). On the shared two-core host both
swing by more than any allowed bound when the host takes the CPU away for
10-20 ms at a time; the bounded ``success_rate`` carries the 9 ms budget
instead. The serving metrics are taken per fixed-rate block of requests
(latency, success, goodput) or per block of bursts (throughput), so one
sample gives several. Throughput at the fixed rate is not a metric: the
process idles between requests there, and waking up on the shared host
costs more or less from one run to the next. ``failed_ratio`` is
``failed / attempted`` of the result line (seeds, shards, requests and
checks); it is printed but not bounded, because a bounded metric may never
read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("train", "field_sweep", "field_adv", "serve")
#: A whole invocation ends within this many seconds.
BUDGET_S = 170.0
#: The output check each workload's oracle answers.
ORACLE_CHECKS = {
    "train": "batched seed equals solo train_dqn",
    "field_sweep": "shards=2 equals shards=1",
    "field_adv": "shards=2 equals shards=1 from a cold cache",
}
#: Timed samples each worker process takes at least, whatever the budget.
MIN_SAMPLES = 2


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def hermetic_env() -> dict:
    """The parent environment minus every ``REPRO_*`` knob, one BLAS thread."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class RepFailed(Exception):
    pass


def _child(spec: dict, env: dict, timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{spec['mode']} process timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RepFailed(f"{spec['mode']} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _timed(proc: dict) -> list[dict]:
    return [x for x in proc["samples"] if not x["warmup"]]


def end_to_end(procs: list[dict]) -> dict:
    measured = [p for p in procs if p["samples"]]
    samples = [x for p in measured for x in _timed(p)]
    values = {
        "setup_s": _median(p["setup_s"] for p in procs),
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in measured),
    }
    for name in samples[0]["metrics"]:
        # A sample holds one value of a metric, or one per block (serve).
        flat = []
        for x in samples:
            value = x["metrics"][name]
            flat.extend(value if isinstance(value, list) else [value])
        values[name] = _median(flat)
    # Untimed outputs: every sample that computed one agrees (checked).
    for p in measured:
        values.update(p["samples"][0]["outputs"])
    return values


def per_layer(measured: dict, traced: dict) -> dict:
    samples = _timed(traced)
    values = {
        name: _median(x["layers"][name] for x in samples)
        for name in samples[0]["layers"]
    }
    values["trace_overhead_ratio"] = (
        _median(x["run_cpu_s"] for x in samples)
        / _median(x["run_cpu_s"] for x in _timed(measured))
        - 1.0
    )
    return values


def checks(
    workload: str, reps: list[dict], oracle: dict | None
) -> list[tuple[str, bool]]:
    """(name, passed) of every output check over all samples."""
    outputs = [json.dumps(r["outputs"], sort_keys=True) for r in reps if r["outputs"]]
    results = [
        ("samples agree", len({r["digest"] for r in reps}) == 1),
        ("outputs agree", len(set(outputs)) <= 1),
        ("no failed operation", all(r["failed"] == 0 for r in reps)),
    ]
    if workload in ORACLE_CHECKS:
        results.append((
            ORACLE_CHECKS[workload],
            oracle is not None
            and all(r["check_digest"] == oracle["check_digest"] for r in reps),
        ))
    if workload == "field_adv":
        misses = {r["counts"]["trial_cache_misses"] for r in reps}
        results.append(("trial-cache misses repeat", len(misses) == 1))
    if workload == "serve":
        results.append(
            ("actions equal decide_serial", all(r["wrong_actions"] == 0 for r in reps))
        )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs every code path in seconds (smoke test only)",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = _declared()
    env = hermetic_env()
    base = {"workload": args.workload, "seed": args.seed, "size": args.size}

    def remaining() -> float:
        return BUDGET_S - (time.perf_counter() - started)

    modes = ("measure", "trace") if args.trace else ("setup", "setup", "measure")
    sampling = [m for m in modes if m != "setup"]
    procs: list[dict] = []
    failure = None
    try:
        for k, mode in enumerate(modes):
            spec = {
                **base,
                "mode": mode,
                "share_s": args.seconds / len(sampling),
                "min_samples": MIN_SAMPLES,
                # The last process also computes the output check's oracle.
                "check": k == len(modes) - 1,
            }
            procs.append(_child(spec, env, remaining()))
    except RepFailed as exc:
        failure = str(exc)
    oracle = procs[-1].get("oracle") if len(procs) == len(modes) else None

    reps = [x for p in procs for x in p["samples"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if failure is None:
        outcome = checks(args.workload, reps, oracle)
    else:
        outcome = [(failure, False)]
    attempted += len(outcome)
    failed += sum(not ok for _, ok in outcome)
    correct = failure is None and failed == 0

    for name, ok in outcome:
        print(f"# check: {name}: {'ok' if ok else 'FAILED'}")
    if len(procs) < len(modes):
        print(json.dumps(
            {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        ))
        return 1
    if args.trace:
        values = per_layer(procs[0], procs[1])
        units = declared["per_layer"]
    else:
        values = end_to_end(procs)
        units = declared["end_to_end"]
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "knobs": procs[0]["knobs"],
        "fingerprint": procs[0]["fingerprint"],
        "processes": procs,
        "checks": outcome,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    kinds = ", ".join(
        f"{p['mode']} x{len(_timed(p))}+1" if p["samples"] else p["mode"]
        for p in procs
    )
    print(f"# seed {args.seed}; samples: {kinds}; record {path.relative_to(ROOT)}")
    print(f"# knobs {json.dumps(record['knobs'], sort_keys=True)}")
    print(f"# machine {json.dumps(record['fingerprint'], sort_keys=True)}")
    if args.workload == "serve" and not args.trace:
        timed = [x for p in procs for x in _timed(p)]
        blocks = timed[0]["notes"]["latency_samples"]
        p99 = _median(r["counts"]["serve.latency_p99_ms"] for r in timed)
        print(f"# latency: {len(timed) * len(blocks)} blocks of {blocks[0]} "
              f"requests in {len(timed)} timed samples; p99 {p99:.4g} ms")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_ratio {failed / max(attempted, 1):.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
