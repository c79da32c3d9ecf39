"""One repetition of one workload, in a fresh process.

Usage (``run.py`` is the only caller)::

    python3 perfbench/rep.py '{"workload": "train", "seed": 1, "size": "full",
                               "mode": "measure", "share_s": 6,
                               "min_samples": 2}'

``mode`` is ``measure`` (tracing off), ``trace`` (wrappers installed;
the last sample's spans are written to ``perfbench/out/``) or ``setup``
(import and one set-up, no sample: it times set-up alone). The process
imports the program once, then takes samples -- set-up plus one run, each
started from cleared program caches -- until ``share_s`` seconds and
``min_samples`` timed samples have passed. The first sample is a warm-up:
it is checked like every other, but ``run.py`` leaves it out of the
timings. With ``"check": true`` it then
computes the oracle side of the workload's output check, untimed. The
last stdout line is one JSON object.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")


def _resolved_knobs() -> dict:
    """Every environment-driven knob as the program resolves it here."""
    from repro.channel.fidelity import (
        resolve_channel_tier,
        resolve_channel_trials,
        resolve_margin_bin_db,
    )
    from repro.channel.trials import resolve_bank_samples, resolve_trial_batch
    from repro.core.vecenv import resolve_env_batch
    from repro.exec.faults import FaultPolicy
    from repro.exec.runner import resolve_workers
    from repro.obs import telemetry, trace
    from repro.serve import batcher
    from repro.sim.engine import resolve_field_batch
    from repro.sim.shard import resolve_shards

    policy = FaultPolicy.from_env()
    return {
        "workers": resolve_workers(),
        "shards": resolve_shards(),
        "env_batch": resolve_env_batch(),
        "field_batch": resolve_field_batch(),
        "channel": resolve_channel_tier(),
        "channel_trials": resolve_channel_trials(),
        "channel_bin_db": resolve_margin_bin_db(),
        "trial_batch": resolve_trial_batch(),
        "jammer_bank_samples": resolve_bank_samples(),
        "serve_batch": batcher.resolve_serve_batch(),
        "serve_deadline_ms": batcher.resolve_serve_deadline_ms(),
        "serve_queue": batcher.resolve_serve_queue(),
        "serve_admission": batcher.resolve_serve_admission(),
        "on_error": policy.on_error,
        "fault_rate": policy.fault_rate,
        "trace": trace.enabled(),
        "telemetry": telemetry.enabled(),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _counter_snapshot() -> dict:
    from repro.channel.fidelity import trial_cache_stats
    from repro.obs.metrics import METRICS

    counters = {k: c.value for k, c in METRICS.counters.items()}
    stats = trial_cache_stats()
    counters["cache_hits"] = stats["hits"]
    counters["cache_misses"] = stats["misses"]
    return counters


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, before: dict, after: dict, counts: dict) -> dict:
    """Per-layer numbers of one traced repetition."""
    from tracer import BENCH

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    hits, misses = delta("cache_hits"), delta("cache_misses")
    sim_slots = delta("sim.slots")
    own = counts.get("own_network_slots", 0)
    metrics = {
        "jamming.calls": tracer.calls.get("jamming", 0),
        "jamming.busy_s": tracer.busy_s("jamming"),
        "jamming.attempt_ratio": _ratio(delta("sim.jam_attempts"), sim_slots),
        "policy.calls": tracer.calls.get("policy", 0),
        "policy.busy_s": tracer.busy_s("policy"),
        "policy.stack_waste_ratio": _ratio(
            tracer.rows.get("policy", 0), tracer.distinct.get("policy", 0)
        ),
        "nn.self_s": tracer.busy_s("nn"),
        "core.env_busy_s": tracer.busy_s("core.env"),
        "core.replay_busy_s": tracer.busy_s("core.replay"),
        "core.train_steps": counts.get("core.train_steps", 0),
        "channel.busy_s": tracer.busy_s("channel"),
        "channel.cache_hits": hits,
        "channel.cache_misses": misses,
        "channel.cache_hit_ratio": _ratio(hits, hits + misses),
        "phy.trials_calls": tracer.calls.get("phy", 0),
        "phy.trials_busy_s": tracer.busy_s("phy"),
        "net.busy_s": tracer.busy_s("net"),
        "sim.self_s": tracer.busy_s("sim"),
        "sim.useful_ratio": _ratio(own, delta("shard.network_slots")),
        "rng.derive_calls": tracer.calls.get("rng", 0),
        "rng.derive_s": tracer.busy_s("rng"),
        "exec.tasks": delta("exec.tasks"),
        "exec.failures": delta("exec.failures"),
        "exec.retries": delta("exec.retries"),
        "exec.dispatch_s": tracer.busy_s("exec"),
        "serve.latency_p99_ms": counts.get("serve.latency_p99_ms", 0.0),
        "serve.max_rate_rps": counts.get("serve.max_rate_rps", 0.0),
        "serve.batches": tracer.calls.get("serve", 0),
        "serve.batch_size_mean": _ratio(
            tracer.rows.get("serve", 0), tracer.calls.get("serve", 0)
        ),
        "serve.forward_s": tracer.busy_s("serve"),
        "serve.wait_ms_p50": counts.get("serve.wait_ms_p50", 0.0),
        "serve.wait_ms_p99": counts.get("serve.wait_ms_p99", 0.0),
        "serve.shed": counts.get("serve.shed", 0),
        "serve.timeouts": counts.get("serve.timeouts", 0),
        "obs.calls": tracer.calls.get("obs", 0),
        "obs.busy_s": tracer.busy_s("obs"),
        "loadgen.late_ms_p99": counts.get("loadgen.late_ms_p99", 0.0),
        "loadgen.late_ms_max": counts.get("loadgen.late_ms_max", 0.0),
        # Time inside no layer: the benchmark's own root spans and the
        # bodies of exec tasks outside any wrapped call.
        "unattributed_s": tracer.busy_s(BENCH) + tracer.busy_s("exec.task"),
    }
    return {k: float(v) for k, v in metrics.items()}


def _clear_caches() -> None:
    """Start a run cold, as a CLI process starts."""
    from repro.channel.fidelity import clear_trial_cache
    from repro.core.vecenv import clear_policy_stack_cache

    clear_trial_cache()
    clear_policy_stack_cache()


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    name, seed, mode = spec["workload"], int(spec["seed"]), spec["mode"]
    _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    setup, run, check, verify = workloads.WORKLOADS[name]
    knobs = workloads.KNOBS[name][spec["size"]]
    if mode != "trace":
        knobs = {**knobs, **workloads.UNTRACED.get(name, {})}

    # Import everything the workload reaches before set-up, so that the
    # traced run can replace every ``from ... import`` copy.
    import repro.analysis.figures  # noqa: F401
    import repro.core.trainer  # noqa: F401
    import repro.serve.server  # noqa: F401
    import repro.sim.shard  # noqa: F401

    import_s = time.perf_counter() - T0
    tracer = None
    if mode == "trace":
        from tracer import BENCH, Tracer, install

        tracer = Tracer()
        install(tracer)

    samples = []
    setup_times = []
    sampling = time.perf_counter()
    # The first sample warms the process up (first calls into numpy and the
    # program's lazy set-up) and is checked but not timed. A ``setup``
    # process stops after its first set-up.
    while mode != "setup" and (
        len(samples) < spec["min_samples"] + 1
        or time.perf_counter() - sampling < spec["share_s"]
    ):
        _clear_caches()
        if tracer is not None:
            tracer.reset()
            tracer.enter(f"{BENCH}.setup")
        t = time.perf_counter()
        state = setup(seed, knobs)
        setup_times.append(time.perf_counter() - t)
        state["warmup"] = not samples
        if tracer is not None:
            tracer.exit(BENCH)
            if "on_request" in state:
                state["on_request"] = lambda i, due, end: tracer.record(
                    "loadgen.request", due, end, i
                )
        before = _counter_snapshot()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.enter(f"{BENCH}.run")
        out = run(state)
        if tracer is not None:
            tracer.exit(BENCH)
        run_cpu_s = time.process_time() - cpu0
        run_s = time.perf_counter() - wall0
        after = _counter_snapshot()

        wrong = 0
        if verify is not None:
            wrong = verify(state, out)
            out["failed"] += wrong
            out["attempted"] += 1  # the check itself
        sample = {
            "warmup": not samples,
            "run_s": run_s,
            "run_cpu_s": out.get("cost_cpu_s", run_cpu_s),
            "metrics": out["metrics"],
            "outputs": out.get("outputs", {}),
            "attempted": out["attempted"],
            "failed": out["failed"],
            "wrong_actions": wrong,
            "digest": out["digest"],
            "check_digest": out["check_digest"],
            "counts": out["counts"],
            "notes": out.get("notes", {}),
        }
        if tracer is not None:
            sample["layers"] = layer_metrics(tracer, before, after, out["counts"])
        samples.append(sample)
        del state, out
    if mode == "setup":
        _clear_caches()
        t = time.perf_counter()
        setup(seed, knobs)
        setup_times.append(time.perf_counter() - t)

    result = {
        "workload": name,
        "seed": seed,
        "size": spec["size"],
        "mode": mode,
        "import_s": import_s,
        "setup_times": setup_times,
        # What a fresh process pays before its first run: imports plus the
        # first set-up, which also finishes the program's lazy set-up.
        "setup_s": import_s + setup_times[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": samples,
        "knobs": {
            "workload": knobs,
            "pinned": workloads.PINNED,
            "resolved": _resolved_knobs(),
        },
        "fingerprint": fingerprint(),
    }
    if spec.get("check") and check is not None:
        _clear_caches()
        result["oracle"] = check(seed, knobs)
    if tracer is not None:
        path = OUT / f"spans-{name}-{seed}.json"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
