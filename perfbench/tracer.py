"""Span tracer for the traced benchmark run.

The traced run wraps the public entry points the benchmark's workloads
reach, one layer at a time, from outside the program: nothing under
``src/`` knows it is being measured. A wrapper is installed at every
binding a caller actually uses -- the defining module *and* each module
that copied the function with ``from ... import`` -- and methods are
wrapped on their class, so every instance sees them.

Each wrapped call becomes a span (name, start, end, parent, request id)
kept in memory and written out when the run ends. Self time is a span's
duration minus the time its wrapped children cover, so a layer's busy
time never double counts the layers nested inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

#: (layer, module, attribute) of every wrapped entry point. ``attribute``
#: is ``Class.method`` for methods. Layer names follow the repo's modules.
ENTRY_POINTS = (
    ("jamming", "repro.sim.shard", "FieldJammerBank.attack_profiles"),
    ("jamming", "repro.sim.shard", "FieldJammerBank.attacking"),
    ("jamming", "repro.jamming.adversary", "make_field_jammer"),
    ("policy", "repro.sim.field", "StatePolicyAdapter.hop"),
    ("policy", "repro.sim.field", "DQNPolicyAdapter.observation"),
    ("policy", "repro.sim.field", "DQNPolicyAdapter.apply"),
    ("policy", "repro.sim.field", "DQNPolicyAdapter.observe"),
    ("policy", "repro.core.vecenv", "greedy_policy_actions"),
    ("nn", "repro.core.vecenv", "train_dqn_batch"),
    ("core.env", "repro.core.vecenv", "VectorEnv.step"),
    ("core.env", "repro.core.vecenv", "VectorEnv.reset"),
    ("core.replay", "repro.core.replay", "ReplayBuffer.sample"),
    ("core.replay", "repro.core.replay", "ReplayBuffer.push"),
    ("core.replay", "repro.core.replay", "ReplayBuffer.push_many"),
    ("channel", "repro.channel.fidelity", "JamAdjudicator.survival_array"),
    ("channel", "repro.channel.fidelity", "make_channel"),
    ("channel", "repro.channel.link", "LinkTable.packet_error_rate"),
    ("phy", "repro.channel.trials", "run_chip_flip_trials"),
    ("net", "repro.net.timing", "TimingModel.negotiation_time_from_uniforms"),
    ("net", "repro.net.goodput", "GoodputModel.run_slot_aggregate"),
    ("sim", "repro.sim.shard", "FieldGrid.run"),
    ("sim", "repro.sim.shard", "_run_shard_task"),
    ("rng", "repro.rng", "derive"),
    ("exec", "repro.exec.runner", "ParallelRunner.map"),
    ("serve", "repro.serve.store", "PolicyStore.decide_batch"),
    ("obs", "repro.obs.metrics", "MetricsRegistry.inc"),
    ("obs", "repro.obs.metrics", "MetricsRegistry.set"),
    ("obs", "repro.obs.metrics", "MetricsRegistry.observe"),
    ("obs", "repro.obs.metrics", "MetricsRegistry.observe_many"),
)

#: Layer of the benchmark's own root spans (set-up, run); their self time
#: is the run's unattributed time.
BENCH = "bench"


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every span and total (one tracer serves many samples)."""
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: (name id, parent span index or -1, start ns, end ns, request id).
        self.spans: list[tuple[int, int, int, int, int]] = []
        # Open frames: [span index, start ns, child ns].
        self._stack: list[list[int]] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        #: Rows handed to each stacked call, for waste ratios.
        self.rows: dict[str, int] = {}
        self.distinct: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> None:
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((self._name_id(name), parent, 0, 0, -1))
        self._stack.append([index, time.perf_counter_ns(), 0])

    def exit(self, layer: str) -> None:
        end = time.perf_counter_ns()
        index, start, child = self._stack.pop()
        nid, parent, _, _, rid = self.spans[index]
        self.spans[index] = (nid, parent, start, end, rid)
        duration = end - start
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_ns[layer] = self.self_ns.get(layer, 0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def record(self, name: str, start_ns: int, end_ns: int, request_id: int) -> None:
        """A span recorded after the fact (one served request).

        Requests overlap each other on the event loop, so they are kept
        for the span log but stay out of the self-time accounting.
        """
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((self._name_id(name), parent, start_ns, end_ns, request_id))

    def busy_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def write(self, path: Path) -> None:
        """Write every span as one JSON document (written once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "fields": ["name", "parent", "start_ns", "end_ns", "request_id"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(layer)

    return wrapper


def _wrap_stacked(tracer: Tracer, fn, name: str, layer: str, rows_of):
    """Wrapper that also counts the rows and distinct networks per call."""
    inner = _wrap(tracer, fn, name, layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rows, distinct = rows_of(*args, **kwargs)
        tracer.rows[layer] = tracer.rows.get(layer, 0) + rows
        tracer.distinct[layer] = tracer.distinct.get(layer, 0) + distinct
        return inner(*args, **kwargs)

    return wrapper


def _agents_rows(agents, obs):
    return len(agents), len({id(agent.online) for agent in agents})


def _batch_rows(store, policies, observations):
    n = len(policies)
    return n, n


def _wrap_map(tracer: Tracer, fn):
    """``ParallelRunner.map`` whose tasks run inside their own spans.

    Tasks run serially in-process here (``workers=1``), so the time the
    map spends outside its tasks is the exec layer's dispatch time.
    """
    inner = _wrap(tracer, fn, "exec.ParallelRunner.map", "exec")

    @functools.wraps(fn)
    def wrapper(self, task_fn, specs):
        return inner(self, _wrap(tracer, task_fn, "exec.task", "exec.task"), specs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every entry point at each binding callers use.

    Must run after the workload's ``repro`` modules are imported, so that
    the ``from ... import`` copies exist to be replaced.
    """
    import importlib

    for layer, module_name, attribute in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        name = f"{layer}.{attribute.rsplit('.', 1)[-1]}"
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            if attribute == "ParallelRunner.map":
                wrapped = _wrap_map(tracer, original)
            elif attribute == "PolicyStore.decide_batch":
                wrapped = _wrap_stacked(tracer, original, name, layer, _batch_rows)
            else:
                wrapped = _wrap(tracer, original, name, layer)
            setattr(cls, method, wrapped)
            continue
        original = getattr(module, attribute)
        if attribute == "greedy_policy_actions":
            wrapped = _wrap_stacked(tracer, original, name, layer, _agents_rows)
        else:
            wrapped = _wrap(tracer, original, name, layer)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            if getattr(loaded, attribute, None) is original:
                setattr(loaded, attribute, wrapped)


__all__ = ["ENTRY_POINTS", "BENCH", "Tracer", "install"]
