"""Benchmark of hyperq's train/eval path on three bundled experiments.

Each workload trains one bundled config (its beta, formula, map and epsilon
schedule, with a reduced xi) through the ``hyperq train`` command and replays
every seed's artifacts with ``hyperq eval``.  One process issues the commands
in-process, one after the other (a closed loop with a single client and no
threads); set-up time is measured on fresh interpreters.  A round is one
``train`` over the workload's seed group plus ten ``eval`` runs per seed; rounds
repeat the same group until ``--seconds`` have passed, and the timings are
medians over rounds.  Timings are in host-adjusted seconds: a fixed probe task
runs between the timed pieces, and each piece's wall time is multiplied by
PROBE_REF_S over the duration of the probes around it (see HostClock).

    python3 perfbench/run.py --workload fairness-b100 --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the public
functions of each package module (see layers.py) and reports per-layer
metrics instead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full report,
with run metadata and sample counts, goes to ``perfbench/out/``.

``python3 perfbench/run.py --make-reference`` retrains every seed group of
every workload and rewrites ``reference.json``, the output digests that runs
are checked against.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported; child interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import configparser
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = SRC / "hyperq" / "data" / "configs"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

GROUPS = 16          # seed groups with reference digests; --seed n trains group n % GROUPS
SETUP_PER_ROUND = 2  # fresh interpreters for setup_s before each round ...
SETUP_MIN = 7        # ... and at least this many per run
EVAL_REPEATS = 10    # evals of each seed's artifacts per round
PROBE_REF_S = 0.005  # HostProbe time that defines one host-adjusted second
MARK_EVERY_S = 0.1   # during training, a clock mark at the first episode start after this


@dataclass(frozen=True)
class Workload:
    name: str
    config: str           # bundled config file under src/hyperq/data/configs
    xi: int               # reduced episode count, still past the epsilon decay
    seeds_per_round: int

    def seeds(self, group: int) -> list:
        first = group * self.seeds_per_round + 1
        return list(range(first, first + self.seeds_per_round))


# Why each workload: see README.md.
WORKLOADS = {w.name: w for w in (
    Workload("fairness-b100", "fairness-4x4.ini", xi=210, seeds_per_round=2),
    Workload("saferl-b16", "safe-rl-4x4.ini", xi=1500, seeds_per_round=3),
    Workload("pcp-k3", "pcp-k3.ini", xi=650, seeds_per_round=3),
)}


def load_program():
    """Import the package from the checkout's src/, or exit when it is absent."""
    if not (SRC / "hyperq" / "__init__.py").is_file():
        sys.exit(f"error: package source {SRC / 'hyperq'} not found; "
                 "run from the root of a hyperq checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"hyperq.{name}")
            for name in ("env", "harness", "learner", "robustness", "skolem", "worlds")}


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_config(wl: Workload, path: Path, seeds: list, xi: int, out_dir: Path) -> Path:
    """The bundled config with its own paths made absolute and seeds/xi/output replaced."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read(CONFIGS / wl.config)
    exp, env = parser["experiment"], parser["environment"]
    exp["formula"] = str((CONFIGS / exp["formula"]).resolve())
    for key in ("map", "dominoes"):
        if key in env:
            env[key] = str((CONFIGS / env[key]).resolve())
    exp.pop("base_seed", None)
    exp["repetitions"] = str(len(seeds))
    exp["seeds"] = " ".join(str(s) for s in seeds)
    exp["output_dir"] = str(out_dir)
    parser["hyperparams"]["xi"] = str(xi)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


# ---------------------------------------------------------------------------
# Host-adjusted time

class HostProbe:
    """A fixed task whose duration tracks how fast the host runs the program.

    It mixes the three kinds of work the training loop does: interpreter work
    on tuples, small lists and floats; small numpy calls (a fresh Generator
    per episode, tiny arrays); and lookups scattered over a 50 000-entry dict
    (about 4 MB, so outside the private caches).  Of the single tasks and
    mixes tried, this mix's duration tracked the slowdowns of all three
    workloads best.  It takes about 5 ms on an idle core of a 2-vCPU cloud VM.
    """

    def __init__(self):
        import numpy

        self.np = numpy
        self.table = {i * 7919 % 1000003: i for i in range(50000)}
        self.keys = [i * 7919 % 1000003 for i in range(0, 50000, 5)]

    def __call__(self) -> float:
        np = self.np
        rows = {}
        acc = 0.0
        for i in range(4000):
            key = (i & 127, i % 5)
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0.0, 0.0, 0.0, 0.0]
            row[i & 3] = max(row[i & 3] * 0.9, min(acc, float(i % 97)))
            acc = acc * 0.5 + row[(i + 1) & 3]
        for i in range(100):
            rng = np.random.default_rng((7, i))
            acc += float(rng.random()) + float(np.maximum(np.arange(8.0), 3.0).sum())
        table = self.table
        for key in self.keys:
            acc += table[key]
        return acc


class HostClock:
    """Wall time corrected for how fast the shared host runs at the moment.

    On a shared VM the same code runs up to about twice as slow for seconds
    to minutes at a time, when other tenants load the host.  Each ``mark()``
    runs the HostProbe task and records its start and end.  The wall time
    between two consecutive marks is scaled by PROBE_REF_S over the mean
    duration of those two probes, so a stretch run while the host was twice as
    slow counts half.  Probe time itself is never counted.
    """

    def __init__(self):
        self.probe = HostProbe()
        self.marks = []  # (probe start, probe end)
        self.next_mark = 0.0
        for _ in range(3):  # warm-up
            self.probe()

    def mark(self) -> int:
        started = time.perf_counter()
        self.probe()
        ended = time.perf_counter()
        self.marks.append((started, ended))
        self.next_mark = ended + MARK_EVERY_S
        return len(self.marks) - 1

    def tick(self) -> None:
        """Mark if MARK_EVERY_S has passed since the last mark."""
        if time.perf_counter() >= self.next_mark:
            self.mark()

    def factor(self, first: int, last: int) -> float:
        """Scale for wall time spent between marks ``first`` and ``last``."""
        (a0, a1), (b0, b1) = self.marks[first], self.marks[last]
        return PROBE_REF_S / ((a1 - a0 + b1 - b0) / 2)

    def span(self, first: int, last: int) -> tuple:
        """(wall seconds, host-adjusted seconds) from mark ``first`` to mark
        ``last``, leaving out the probes; every gap between consecutive marks is
        scaled by its own two probes."""
        wall = adjusted = 0.0
        for i in range(first, last):
            gap = self.marks[i + 1][0] - self.marks[i][1]
            wall += gap
            adjusted += gap * self.factor(i, i + 1)
        return wall, adjusted

    def adjust(self, started: float, ended: float, nearest: int = 10) -> float:
        """Host-adjusted seconds for work timed without marks of its own
        (another process): scaled by the median probe of the ``nearest``
        marks to the interval's middle."""
        middle = (started + ended) / 2
        near = sorted(self.marks, key=lambda m: abs(m[0] - middle))[:nearest]
        return (ended - started) * PROBE_REF_S / statistics.median(b - a for a, b in near)


# ---------------------------------------------------------------------------
# One round: `hyperq train` over the seed group, then `hyperq eval` per seed

@dataclass
class TrainCall:
    seed: int
    seconds: float        # host-adjusted
    wall_s: float
    steps: int
    final_record: object
    env: object
    q_rows: int


class TrainProbe:
    """Stands in for `learner.train` where the CLI looks it up.

    Times each call between clock marks, with further marks at episode starts
    (``env.reset``) every MARK_EVERY_S, and keeps what the checks need; the
    Q-table itself is not kept.  With ``clock`` None the call is timed without
    marks, so that no probe runs inside a traced span.
    """

    def __init__(self, train):
        self.train = train
        self.calls = []
        self.clock = None

    def __call__(self, env, f, h, seed):
        clock = self.clock
        if clock is None:
            started = time.perf_counter()
            result = self.train(env, f, h, seed)
            wall = seconds = time.perf_counter() - started
        else:
            reset = env.reset

            def marked_reset(*args, **kwargs):
                clock.tick()
                return reset(*args, **kwargs)

            env.reset = marked_reset
            first = clock.mark()
            try:
                result = self.train(env, f, h, seed)
            finally:
                del env.reset
            wall, seconds = clock.span(first, clock.mark())
        beta = min(h.beta, env.beta) if h.beta else env.beta
        self.calls.append(TrainCall(seed, seconds, wall, h.xi * beta + result.final_record.steps,
                                    result.final_record, env,
                                    len(getattr(result.q, "table", ()))))
        return result


@dataclass
class Round:
    run_s: float          # host-adjusted
    run_wall_s: float
    calls: list
    eval_ms: list = field(default_factory=list)        # host-adjusted
    eval_wall_ms: list = field(default_factory=list)
    eval_sat: dict = field(default_factory=dict)         # seed -> eval verdict satisfied
    eval_consistent: dict = field(default_factory=dict)  # seed -> witness_consistent line
    failed: set = field(default_factory=set)
    traced: bool = False


def _cli(harness, argv) -> tuple:
    """Run one hyperq command in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = harness.main(argv)
    except Exception:  # a raising command is a failed operation, not a crash
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def run_round(harness, probe: TrainProbe, clock: HostClock, seeds: list, config: Path,
              out_dir: Path) -> Round:
    probe.calls = []
    first = clock.mark()
    code, _ = _cli(harness, ["train", "--config", str(config), "--out", str(out_dir)])
    wall, adjusted = clock.span(first, clock.mark())
    rnd = Round(adjusted, wall, probe.calls)
    if code != 0:
        print(f"train exited with {code}", file=sys.stderr)
        rnd.failed.update(seeds)
        return rnd
    for seed in seeds:
        argv = ["eval", "--policy", str(out_dir / f"artifacts_{seed}.txt"), "--config", str(config)]
        before = clock.mark()
        for _ in range(EVAL_REPEATS):
            code, text = _cli(harness, argv)
            after = clock.mark()
            if code not in (0, 1) or rnd.eval_sat.get(seed, code == 0) != (code == 0):
                print(f"eval of seed {seed} exited with {code} or changed its verdict",
                      file=sys.stderr)
                rnd.failed.add(seed)
                break
            wall, adjusted = clock.span(before, after)
            rnd.eval_wall_ms.append(wall * 1e3)
            rnd.eval_ms.append(adjusted * 1e3)
            rnd.eval_sat[seed] = code == 0
            if "witness_consistent:" in text:
                rnd.eval_consistent[seed] = "witness_consistent: true" in text
            before = after
    return rnd


# ---------------------------------------------------------------------------
# Correctness: reference digests and the naive robustness oracle

def output_digests(out_dir: Path, seeds: list) -> dict:
    names = [f"run_{s}.csv" for s in seeds] + [f"artifacts_{s}.txt" for s in seeds]
    names.append("aggregate.csv")
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


def digest_failures(reference: dict, out_dir: Path, seeds: list) -> set:
    """Seeds whose CSV or artifacts differ from the reference; every seed of
    the group when aggregate.csv differs or no reference exists."""
    if not reference:
        print("no reference digests for this workload and xi", file=sys.stderr)
        return set(seeds)
    try:
        got = output_digests(out_dir, seeds)
    except FileNotFoundError as exc:
        print(f"missing output: {exc}", file=sys.stderr)
        return set(seeds)
    bad = {n for n, d in got.items() if reference.get(n) != d}
    for name in sorted(bad):
        print(f"digest mismatch: {name}", file=sys.stderr)
    if "aggregate.csv" in bad:
        return set(seeds)
    return {s for s in seeds if f"run_{s}.csv" in bad or f"artifacts_{s}.txt" in bad}


def reward_mismatches(mods, naive_eval, call: TrainCall, sk, cfg) -> int:
    """Steps of the final episode whose reward differs from the naive oracle
    evaluated on the same zipped prefix (exact float equality)."""
    Trace, zip_traces = mods["robustness"].Trace, mods["robustness"].zip_traces
    env, record = call.env, call.final_record
    hooked = env.trace_prefix(record.states[0]) is not None
    labels = None if hooked else [env.label_of(s) for s in record.states]
    bad = 0
    for t, rho in enumerate(record.rhos, start=1):
        if hooked:
            traces = list(env.trace_prefix(record.states[t]))
        else:
            traces = [Trace(tuple(labels[p][i] for p in range(t + 1))) for i in range(env.arity)]
        if any(len(tr) == 0 for tr in traces):
            expected = cfg.rho_min
        else:
            z = zip_traces(traces)
            expected = naive_eval(z, 0, len(z), sk.body, cfg)
        bad += expected != rho
    return bad


def oracle_failures(mods, config: Path, calls: list) -> set:
    harness = mods["harness"]
    exp = harness.ExperimentConfig.load(config)
    sk = mods["skolem"].skolemize(exp.load_formula())
    cfg = exp.hyperparams.config()
    naive_eval = load_oracles().naive_eval
    failed = set()
    for call in calls:
        bad = reward_mismatches(mods, naive_eval, call, sk, cfg)
        if bad:
            print(f"seed {call.seed}: {bad} rewards differ from the naive oracle", file=sys.stderr)
            failed.add(call.seed)
    return failed


# ---------------------------------------------------------------------------
# Set-up time on fresh interpreters

def measure_setup(config: Path, repeats: int) -> list:
    """(start, end) of `python -m hyperq train` runs on a one-episode config
    (xi = 1), from spawn to exit.

    Covers the interpreter and package imports, config loading, formula
    parsing, validation and skolemization, building the environment, and the
    first episode.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hyperq", "train", "--config", str(config)],
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        samples.append((started, time.perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run exited with {proc.returncode}: {proc.stderr}")
    return samples


# ---------------------------------------------------------------------------
# Run metadata

def run_metadata(wl: Workload, seeds: list, group: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except FileNotFoundError:  # no git binary
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "hyperq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(SRC)).encode())
            source.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": wl.name,
        "config": wl.config,
        "xi": wl.xi,
        "seed_group": group,
        "train_seeds": seeds,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# Workload runs

class Bench:
    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.mods = load_program()
        self.harness = self.mods["harness"]
        self.group = seed % GROUPS
        self.seeds = wl.seeds(self.group)
        self.work = OUT / wl.name
        self.out_dir = self.work / "train"
        self.config = write_config(wl, self.work / "train.ini", self.seeds, wl.xi, self.out_dir)
        self.probe = TrainProbe(self.mods["learner"].train)
        self.harness.train = self.probe
        self.clock = HostClock()
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        entry = reference.get(wl.name, {})
        groups = entry.get("groups", {}) if entry.get("xi") == wl.xi else {}
        self.reference = groups.get(str(self.group), {})
        self.rounds = []

    def round(self, traced=False) -> Round:
        self.probe.clock = None if traced else self.clock
        rnd = run_round(self.harness, self.probe, self.clock, self.seeds, self.config, self.out_dir)
        rnd.traced = traced
        if self.rounds:  # only the first round's episodes are checked; keep memory flat
            for call in rnd.calls:
                call.final_record = call.env = None
        if len(rnd.failed) < len(self.seeds):
            rnd.failed |= digest_failures(self.reference, self.out_dir, self.seeds)
        self.rounds.append(rnd)
        return rnd

    def finish_checks(self) -> None:
        """Naive-oracle check of the first round's final episodes."""
        first = self.rounds[0]
        first.failed |= oracle_failures(self.mods, self.config, first.calls)

    @property
    def attempted(self) -> int:
        return len(self.rounds) * len(self.seeds)

    @property
    def failed(self) -> int:
        return sum(len(r.failed) for r in self.rounds)

    def verdicts(self) -> dict:
        """Train and eval satisfaction over the group's seeds (first round)."""
        first = self.rounds[0]
        cfg = self.harness.ExperimentConfig.load(self.config).hyperparams.config()
        robustness = self.mods["robustness"]
        train_sat = {c.seed: robustness.sat_verdict(c.final_record.terminal_rho, cfg)
                     is robustness.Verdict.SATISFIED for c in first.calls}
        n = len(self.seeds)
        return {
            "sat_rate": sum(train_sat.values()) / n,
            "eval_sat_rate": sum(first.eval_sat.values()) / n,
            "train_eval_verdict_differs": sorted(
                s for s in first.eval_sat if first.eval_sat[s] != train_sat.get(s)),
            "witness_inconsistent": sorted(
                s for s, ok in first.eval_consistent.items() if not ok),
        }


def end_to_end(bench: Bench, seconds: float) -> tuple:
    # Set-up samples are spread over the run so that they see the same
    # machine as the rounds do.
    config = write_config(bench.wl, bench.work / "setup.ini", bench.seeds[:1], 1,
                          bench.work / "setup")
    spans = []
    started = time.perf_counter()
    while not bench.rounds or time.perf_counter() - started < seconds:
        spans += measure_setup(config, SETUP_PER_ROUND)
        bench.round()
    spans += measure_setup(config, SETUP_MIN - len(spans))
    bench.finish_checks()
    # The child runs without marks of its own (and maybe on the other core),
    # so each set-up sample is scaled by the probes nearest to it in time.
    setup = [bench.clock.adjust(a, b) for a, b in spans]
    rounds = bench.rounds
    steps_per_s = [sum(c.steps for c in r.calls) / sum(c.seconds for c in r.calls)
                   for r in rounds if r.calls]
    eval_ms = [ms for r in rounds for ms in r.eval_ms]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median([r.run_s for r in rounds]), "s"),
        "train_steps_per_s": (statistics.median(steps_per_s), "1/s"),
        "eval_ms_p50": (statistics.median(eval_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": len(setup), "run_s": len(rounds),
               "train_steps_per_s": len(steps_per_s), "eval_ms_p50": len(eval_ms)}
    extra = dict(bench.verdicts())
    extra["samples"] = samples
    extra["setup_s_samples"] = setup
    extra["run_s_samples"] = [r.run_s for r in rounds]
    extra["train_call_s_samples"] = [c.seconds for r in rounds for c in r.calls]
    wall_steps = [sum(c.steps for c in r.calls) / sum(c.wall_s for c in r.calls)
                  for r in rounds if r.calls]
    extra["wall_clock"] = {  # the same medians, unadjusted
        "setup_s": statistics.median(b - a for a, b in spans),
        "run_s": statistics.median(r.run_wall_s for r in rounds),
        "train_steps_per_s": statistics.median(wall_steps),
        "eval_ms_p50": statistics.median(ms for r in rounds for ms in r.eval_wall_ms),
    }
    extra["host_slowdown_p50"] = statistics.median(
        (b - a) / PROBE_REF_S for a, b in bench.clock.marks)
    return metrics, extra


def per_layer(bench: Bench, seconds: float, seed: int) -> tuple:
    import layers

    windows = layers.window_probe(bench.mods, bench.config, seed)
    tracer = layers.Tracer()
    started = time.perf_counter()
    plain, traced = [], []
    while not traced or time.perf_counter() - started < seconds:
        plain.append(bench.round().run_s)
        with layers.installed(tracer, bench.mods):
            traced.append(bench.round(traced=True).run_s)
    bench.finish_checks()
    calls = [c for r in bench.rounds if r.traced for c in r.calls]
    metrics = tracer.layer_metrics(rounds=len(traced))
    metrics.update(windows)
    metrics["learner.q_rows"] = (sum(c.q_rows for c in calls) / len(traced), "count")
    sizes = [(bench.out_dir / f"artifacts_{s}.txt").stat().st_size for s in bench.seeds]
    metrics["harness.artifact_bytes"] = (sum(sizes), "bytes")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    missing = tracer.coverage_gaps(bench.wl.name)
    for name in missing:
        print(f"wrapper coverage: {name} never fired on {bench.wl.name}", file=sys.stderr)
    tracer.save(OUT / f"spans_{bench.wl.name}.npz")
    extra = {"samples": {"untraced_rounds": len(plain), "traced_rounds": len(traced)},
             "coverage_missing": missing,
             "self_time_share": tracer.self_time_shares()}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="retrain every seed group and rewrite reference.json")
    args = parser.parse_args(argv)
    if args.make_reference:
        return make_reference()
    if args.workload is None:
        parser.error("--workload is required")

    wl = WORKLOADS[args.workload]
    bench = Bench(wl, args.seed)
    sys.path.insert(0, str(BENCH_DIR))
    report_only = ()
    if args.trace:
        import layers

        report_only = layers.REPORT_ONLY
        metrics, extra = per_layer(bench, args.seconds, args.seed)
        correct = bench.failed == 0 and not extra["coverage_missing"]
    else:
        metrics, extra = end_to_end(bench, args.seconds)
        correct = bench.failed == 0

    report = {"meta": run_metadata(wl, bench.seeds, bench.group), "trace": args.trace,
              "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report.update(extra)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{wl.name}{'_trace' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for key, (value, unit) in metrics.items():
        print(f"{key:34s} {value:14.6g} {unit}")
    for key in ("sat_rate", "eval_sat_rate"):
        if key in extra:
            print(f"{key:34s} {extra[key]:14.6g} share")
    print(f"report: {OUT / name}")
    result = {k: v for k, v in report["metrics"].items() if k not in report_only}
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": result}))
    return 0


def make_reference() -> int:
    """Train every seed group of every workload and record its output digests."""
    reference = {}
    for wl in WORKLOADS.values():
        groups = {}
        for group in range(GROUPS):
            bench = Bench(wl, group)
            rnd = run_round(bench.harness, bench.probe, bench.clock, bench.seeds, bench.config,
                            bench.out_dir)
            bench.rounds.append(rnd)
            bench.finish_checks()
            if rnd.failed:
                print(f"{wl.name} group {group}: seeds {sorted(rnd.failed)} failed", file=sys.stderr)
                return 1
            groups[str(group)] = output_digests(bench.out_dir, bench.seeds)
            print(f"{wl.name} group {group}: {bench.verdicts()}", flush=True)
        reference[wl.name] = {"config": wl.config, "xi": wl.xi, "groups": groups}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
