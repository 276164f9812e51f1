"""Per-layer tracing for the benchmark's traced run.

The layers are the package modules: formula, skolem, robustness, worlds (with
env), learner and harness.  Each public function is wrapped where its caller
looks it up (``learner`` imports ``eval_hyper`` by name, so the wrapper goes on
``learner.eval_hyper``; environment methods are wrapped on each instance that
``build_env`` returns).  A wrapper records one span per call: layer name,
start, end and parent span.  A span's self time is its duration minus the
durations of its children, which never overlap on one thread.

Nothing in the package itself is instrumented.
"""

from __future__ import annotations

import contextlib
import inspect
import random
import statistics
import time
from array import array

import numpy as np

ALL = ("fairness-b100", "saferl-b16", "pcp-k3")

# Layer -> workloads on which it must fire at least once.
REQUIRED = {
    "harness.config_load": ALL,
    "harness.write_csv": ALL,
    "harness.write_artifacts": ALL,
    "harness.read_artifacts": ALL,
    "formula.load": ALL,
    "skolem.skolemize": ALL,
    "skolem.check_consistency": ("saferl-b16", "pcp-k3"),   # only formulas with an exists
    "worlds.build_env": ALL,
    "worlds.step": ALL,
    "worlds.label": ("fairness-b100", "saferl-b16"),       # the domino game derives traces
    "worlds.trace_prefix": ALL,
    "learner.train": ALL,
    "learner.reward": ALL,
    "learner.trace_build": ALL,
    "learner.q_update": ALL,
    "learner.extract": ALL,
    "learner.rollout": ALL,
    "robustness.eval": ALL,
    "robustness.zip": ALL,
}

# Metrics that are zero by construction on some workload; they go to the
# report but not to the result line.
REPORT_ONLY = ("worlds.label_calls", "worlds.label_s", "skolem.check_consistency_s")

WINDOWS = (8, 16, 100, 300)


class Tracer:
    """In-memory span recorder; spans are kept as parallel arrays."""

    def __init__(self):
        self.layers = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = {}          # layer -> work units, e.g. evaluated positions
        self.current = -1
        self.unpatched = []      # patch points that no longer exist

    def layer_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    def wrap(self, layer: str, fn, units=None):
        nid = self.layer_id(layer)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(tracer.current)
            ends.append(0.0)
            outer, tracer.current = tracer.current, idx
            if units is not None:
                tracer.units[layer] = tracer.units.get(layer, 0) + units(*args)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = outer

        return traced

    # -- analysis ---------------------------------------------------------

    def _stats(self) -> dict:
        """Per layer: calls, total time, self time, self time under learner.train."""
        n_layers = len(self.layers)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        train = self._ids.get("learner.train", -1)
        names, parents = self.name.tolist(), self.parent.tolist()
        under = [False] * len(names)
        for i, p in enumerate(parents):
            under[i] = names[i] == train or (p >= 0 and under[p])
        under = np.array(under, dtype=bool)
        calls = np.bincount(name, minlength=n_layers)
        total = np.bincount(name, weights=dur, minlength=n_layers)
        self_s = np.bincount(name, weights=own, minlength=n_layers)
        self_train = np.bincount(name[under], weights=own[under], minlength=n_layers)
        return {layer: (int(calls[i]), float(total[i]), float(self_s[i]), float(self_train[i]))
                for i, layer in enumerate(self.layers)}

    def self_time_shares(self) -> dict:
        """Each layer's self time inside learner.train, as a share of train time."""
        stats = self._stats()
        train_total = stats.get("learner.train", (0, 0.0, 0.0, 0.0))[1]
        if not train_total:
            return {}
        shares = {layer: s[3] / train_total for layer, s in stats.items() if s[3] > 0}
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round, as {name: (value, unit)}."""
        stats = self._stats()

        def get(layer):
            return stats.get(layer, (0, 0.0, 0.0, 0.0))

        out = {}

        def count(metric, layer):
            out[metric] = (get(layer)[0] / rounds, "count")

        def total(metric, layer):
            out[metric] = (get(layer)[1] / rounds, "s")

        def self_time(metric, layer):
            out[metric] = (get(layer)[2] / rounds, "s")

        positions = self.units.get("robustness.eval", 0)
        count("robustness.eval_calls", "robustness.eval")
        self_time("robustness.eval_s", "robustness.eval")
        out["robustness.positions"] = (positions / rounds, "count")
        out["robustness.ns_per_position"] = (
            get("robustness.eval")[2] / positions * 1e9 if positions else 0.0, "ns")
        count("robustness.zip_calls", "robustness.zip")
        total("robustness.zip_s", "robustness.zip")
        train_total = get("learner.train")[1]
        inside = get("robustness.zip")[3] + get("robustness.eval")[3]
        out["robustness.share"] = (inside / train_total if train_total else 0.0, "ratio")
        count("worlds.trace_prefix_calls", "worlds.trace_prefix")
        total("worlds.trace_prefix_s", "worlds.trace_prefix")
        count("worlds.step_calls", "worlds.step")
        total("worlds.step_s", "worlds.step")
        count("worlds.label_calls", "worlds.label")
        total("worlds.label_s", "worlds.label")
        count("learner.reward_calls", "learner.reward")
        total("learner.reward_s", "learner.reward")
        self_time("learner.reward_self_s", "learner.reward")
        total("learner.trace_build_s", "learner.trace_build")
        count("learner.q_update_calls", "learner.q_update")
        total("learner.q_update_s", "learner.q_update")
        self_time("learner.train_self_s", "learner.train")
        total("learner.extract_s", "learner.extract")
        total("learner.rollout_s", "learner.rollout")
        total("harness.write_csv_s", "harness.write_csv")
        total("harness.write_artifacts_s", "harness.write_artifacts")
        total("harness.read_artifacts_s", "harness.read_artifacts")
        total("harness.config_load_s", "harness.config_load")
        total("formula.load_s", "formula.load")
        total("skolem.skolemize_s", "skolem.skolemize")
        total("skolem.check_consistency_s", "skolem.check_consistency")
        total("worlds.build_env_s", "worlds.build_env")
        return out

    def coverage_gaps(self, workload: str) -> list:
        """Layers required on this workload that were never patched or never fired."""
        stats = self._stats()
        missing = [f"{name} (not found)" for name in self.unpatched]
        missing += [layer for layer, where in REQUIRED.items()
                    if workload in where and stats.get(layer, (0,))[0] == 0]
        return missing

    def save(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(self.layers),
                            name=np.array(self.name, dtype=np.int32),
                            parent=np.array(self.parent, dtype=np.int32),
                            start=np.array(self.start), end=np.array(self.end))


def _patch_points(mods) -> list:
    """(module, attribute path, layer, units): each name patched where it is looked up."""
    harness, learner, robustness = mods["harness"], mods["learner"], mods["robustness"]

    def window(traces, *rest):
        return len(traces[0])

    return [
        (harness, "ExperimentConfig.load", "harness.config_load", None),
        (learner, "TrainMetrics.write_csv", "harness.write_csv", None),
        (harness, "write_artifacts", "harness.write_artifacts", None),
        (harness, "read_artifacts", "harness.read_artifacts", None),
        (harness, "load_formula", "formula.load", None),
        (harness, "skolemize", "skolem.skolemize", None),
        (learner, "skolemize", "skolem.skolemize", None),
        (harness, "check_consistency", "skolem.check_consistency", None),
        (harness, "train", "learner.train", None),
        (harness, "greedy_rollout", "learner.rollout", None),
        (learner, "immediate_reward", "learner.reward", None),
        (learner, "q_update", "learner.q_update", None),
        (learner, "extract_policies", "learner.extract", None),
        (learner, "_EpisodeTracker.traces", "learner.trace_build", None),
        (learner, "eval_hyper", "robustness.eval", window),
        (robustness, "zip_traces", "robustness.zip", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, mods):
    """Wrap every patch point (and each environment built meanwhile); undo on exit."""
    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    for module, path, layer, units in _patch_points(mods):
        *parents, attr = path.split(".")
        owner = module
        for name in parents:
            owner = getattr(owner, name, None)
        if owner is None or not hasattr(owner, attr):
            tracer.unpatched.append(f"{module.__name__}.{path}")
            continue
        wrapped = tracer.wrap(layer, getattr(owner, attr), units)
        if isinstance(inspect.getattr_static(owner, attr), staticmethod):
            wrapped = staticmethod(wrapped)
        patch(owner, attr, wrapped)

    harness = mods["harness"]
    build = tracer.wrap("worlds.build_env", harness.build_env)

    def build_env(*args, **kwargs):
        env = build(*args, **kwargs)
        env.step = tracer.wrap("worlds.step", env.step)
        env.label_of = tracer.wrap("worlds.label", env.label_of)
        env.trace_prefix = tracer.wrap("worlds.trace_prefix", env.trace_prefix)
        return env

    patch(harness, "build_env", build_env)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def window_probe(mods, config, seed: int) -> dict:
    """eval_hyper latency on windows of 8, 16, 100 and 300 positions.

    The windows are prefixes of one random-action rollout of the workload's
    environment built with beta = 300.  The domino game's terminate action is
    left out so that its words, and so its traces, keep growing.
    """
    harness, worlds, robustness = mods["harness"], mods["worlds"], mods["robustness"]
    exp = harness.ExperimentConfig.load(config)
    env = worlds.build_env(dict(exp.environment, beta=str(max(WINDOWS))), exp.base_dir)
    sk = mods["skolem"].skolemize(exp.load_formula())
    cfg = exp.hyperparams.config()
    rng = random.Random(seed)
    actions = [a for a in env.actions if a != "dom_#"]
    state = env.reset(seed)
    states = [state]
    for _ in range(env.beta):
        joint = tuple(rng.choice(actions) for _ in range(env.arity))
        state = env.step(state, mods["env"].JointAction(joint))
        states.append(state)
    traces = env.trace_prefix(state)
    if traces is None:
        labels = [env.label_of(s) for s in states]
        traces = [robustness.Trace(tuple(lab[i] for lab in labels)) for i in range(env.arity)]
    out = {}
    for w in WINDOWS:
        window = [t.prefix(w) for t in traces]
        if any(len(t) < w for t in window):
            raise RuntimeError(f"rollout gave fewer than {w} positions")
        samples = []
        spent = 0.0
        while len(samples) < 10 or spent < 0.25:
            started = time.perf_counter()
            robustness.eval_hyper(window, sk, cfg)
            samples.append(time.perf_counter() - started)
            spent += samples[-1]
        out[f"robustness.eval_us_w{w}"] = (statistics.median(samples) * 1e6, "us")
    return out
