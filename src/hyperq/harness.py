"""Command-line front-end: formula checking, training runs, policy evaluation,
and the exhaustive oracles.

Experiments are described by INI files with three flat sections::

    [experiment]
    formula = ../formulas/rescue.hltl
    repetitions = 10
    base_seed = 1            ; or  seeds = 3 17 42
    output_dir = results/wildfire

    [environment]
    kind = wildfire          ; grid | wildfire | pcp | resource
    beta = 8

    [hyperparams]
    xi = 3000
    gamma = 0.99

Relative paths resolve against the config file's directory.  Exit codes:
0 success/satisfied, 1 violation, 2 usage or configuration error.

Every file a command takes is read by `formula.read_input`.  A command
prints an `InputError` it meets as one line on stderr and exits with code 2:
``config error: `` leads what `train` and `eval` find in a config and the
files it names (a `ConfigError`), ``error: `` anything else.  A formula file
is read on every call, but each distinct text is parsed and skolemized once
per process (`compile_formula`).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import re
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

from .env import Environment
from .formula import (Formula, FormulaError, InputError, load_formula, parse_formula, read_input,
                      unparse)
from .learner import (
    Hyperparams,
    PolicySet,
    TrainMetrics,
    TrainResult,
    episode_bound,
    greedy_rollout,
    rollout,
    train,
)
from .robustness import (
    Trace,
    UnknownValuationError,
    Verdict,
    boolean_sat,
    sat_verdict,
)
from .skolem import (MissingWitnessError, WitnessTable, check_consistency, format_skolemized,
                     skolemize)
from .worlds import build_env, load_domino_file, pcp_oracle


class ConfigError(InputError):
    """A config that cannot be read, parsed or set up, or a file it names."""


@dataclass
class ExperimentConfig:
    formula_path: Path
    environment: dict
    hyperparams: Hyperparams
    seeds: list
    output_dir: Path
    base_dir: Path

    @staticmethod
    def load(path) -> "ExperimentConfig":
        path = Path(path)
        # without interpolation, a '%' in a value is that character
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
        try:
            parser.read_string(read_input("config", path))
        except InputError as exc:
            raise ConfigError(str(exc)) from exc
        except configparser.Error as exc:
            raise ConfigError(f"config file {path}: {_config_syntax(exc)}") from exc
        for section in ("experiment", "environment"):
            if section not in parser:
                raise ConfigError(f"config is missing the [{section}] section")
        unknown = sorted(set(parser.sections()) - {"experiment", "environment", "hyperparams"})
        if unknown:
            raise ConfigError(f"unknown section(s) {', '.join(f'[{s}]' for s in unknown)}")
        exp = parser["experiment"]
        unknown = sorted(set(exp) - _EXPERIMENT_KEYS)
        if unknown:
            raise ConfigError(f"unknown key(s) {', '.join(unknown)} in [experiment]")
        base = path.parent

        formula_path = base / exp.get("formula", "")
        if not exp.get("formula") or not formula_path.exists():
            raise ConfigError(f"formula file {formula_path} does not exist")

        seeds = exp.get("seeds", "").split()
        # a seed list alone sets the number of repetitions
        reps = _number(int, "repetitions", exp.get("repetitions", str(len(seeds) or 1)))
        if reps < 1:
            raise ConfigError("repetitions must be >= 1")
        if seeds:
            seeds = [_number(int, "seeds", s) for s in seeds]
            if len(seeds) != reps:
                raise ConfigError(f"{len(seeds)} seeds given for {reps} repetitions")
            repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
            if repeated is not None:
                raise ConfigError(f"seed {repeated} given twice")
        else:
            base_seed = _number(int, "base_seed", exp.get("base_seed", "1"))
            seeds = [base_seed + i for i in range(reps)]
        if min(seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(seeds)}")

        hp_section = dict(parser["hyperparams"]) if "hyperparams" in parser else {}
        hyperparams = _parse_hyperparams(hp_section)

        out = Path(exp.get("output_dir", f"results/{path.stem}"))
        if not out.is_absolute():
            out = base / out
        return ExperimentConfig(
            formula_path=formula_path,
            environment=dict(parser["environment"]),
            hyperparams=hyperparams,
            seeds=seeds,
            output_dir=out,
            base_dir=base,
        )

    def make_env(self) -> Environment:
        return build_env(self.environment, self.base_dir)

    def load_formula(self) -> Formula:
        return load_formula(self.formula_path)

    def setup(self) -> tuple:
        """Formula, skolemized formula, environment and episode length.

        Calls on one formula text share its `compile_formula` pair; the
        world is built afresh.  Raises ConfigError when the formula or an
        environment file cannot be read or parsed, or when the pieces do not
        fit together.  One step of joint action 0, every slot's first
        action, is scored, so a formula that reads a valuation the world's
        labels lack is found here, on every call.  The step scores into the
        world's table, which `train` and `eval` reuse.
        """
        try:
            f, sk = load_formula(self.formula_path, compile_formula)
        except InputError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            env = self.make_env()
            beta = episode_bound(env, sk, self.hyperparams)
        except ValueError as exc:   # an InputError among them
            raise ConfigError(str(exc)) from exc
        try:
            rollout(env, sk, self.hyperparams.config(), lambda t, i: 0, self.seeds[0], 1)
        except UnknownValuationError as exc:
            raise ConfigError(f"the formula reads valuation {exc.args[0]!r}, "
                              f"which {env.kind} labels lack") from exc
        return f, sk, env, beta


@functools.lru_cache(maxsize=64)
def compile_formula(text: str) -> tuple:
    """The Formula of a formula file's text and its skolemized form, whose
    plan keeps its programs.  Only a text that parsed is kept, so a
    FormulaError is raised afresh on every call."""
    f = parse_formula(text)
    return f, skolemize(f)


def _config_syntax(exc: configparser.Error) -> str:
    """What configparser found wrong, on one line and without its source name."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno} comes before the first [section] header"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]} is not a key = value line"
    return f"line {exc.lineno}: {str(exc).partition(']: ')[2]}"   # a repeated section or key


def _check_policies(path, policies: PolicySet, env: Environment) -> None:
    """Raise InputError when the artifact at `path` lacks a policy for a slot
    of `env`, has one for a slot `env` lacks, or names an action `env` lacks."""
    for index in range(1, env.arity + 1):
        if index not in policies.policies:
            raise InputError(f"{path}: section policy {index} is missing "
                             f"({env.kind} worlds have {env.arity} slots)")
    for index, table in sorted(policies.policies.items()):
        if not 1 <= index <= env.arity:
            raise InputError(f"{path}: policy {index} is for a slot {env.kind} worlds lack "
                             f"(they have {env.arity})")
        for action in table.values():
            if action not in env.actions:
                raise InputError(f"{path}: policy {index} names action {action!r}, "
                                 f"which {env.kind} worlds lack")


def _number(kind, key: str, raw: str):
    """`raw` as an int or float; ConfigError naming `key` when it is not one."""
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {raw!r}") from None


_EXPERIMENT_KEYS = {"formula", "repetitions", "base_seed", "seeds", "output_dir"}

# each Hyperparams field's type, the int of `int | None` included
_HP_KINDS = {name: (typing.get_args(hint) or (hint,))[0]
             for name, hint in typing.get_type_hints(Hyperparams).items()}


def _parse_hyperparams(section: dict) -> Hyperparams:
    kwargs = {}
    for key, raw in section.items():
        kind = _HP_KINDS.get(key)
        if kind is None:
            raise ConfigError(f"unknown hyperparameter {key!r}")
        kwargs[key] = raw.strip() if kind is str else _number(kind, key, raw)
    try:
        return Hyperparams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Artifact files

def write_artifacts(path: Path, result: TrainResult):
    """Policies and witness tables in one line-oriented text file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for index in sorted(result.policies.policies):
            fh.write(f"policy {index}\n")
            for key, action in sorted(result.policies.policies[index].items()):
                fh.write(f"{key}\t{action}\n")
        for table in result.witnesses:
            deps = ",".join(str(d) for d in table.deps)
            fh.write(f"witness {table.exist_index} deps={deps}\n")
            for key, (text, actions) in sorted(table.entries.items()):
                fh.write(f"{' || '.join(key)}\t{text}\t{' '.join(actions)}\n")


def read_artifacts(path) -> tuple:
    """The policies and witness tables of the artifact file at `path`."""
    text = read_input("artifact", path)
    policies = PolicySet({})
    witnesses = []
    current_policy = None
    current_witness = None
    for number, line in enumerate(text.splitlines(), 1):
        try:
            if line.startswith("policy "):
                _, index = line.split()
                current_policy = int(index)
                current_witness = None
                if current_policy in policies.policies:
                    raise ValueError(f"a second section policy {current_policy}")
                policies.policies[current_policy] = {}
            elif line.startswith("witness "):
                head, deps_part = line.split(" deps=")
                _, index = head.split()
                deps = tuple(int(d) for d in deps_part.split(",") if d)
                if any(w.exist_index == int(index) for w in witnesses):
                    raise ValueError(f"a second section witness {index}")
                current_witness = WitnessTable(int(index), deps)
                witnesses.append(current_witness)
                current_policy = None
            elif current_policy is not None and line:
                key, sep, action = line.rpartition("\t")
                if not sep:
                    raise ValueError("expected state<TAB>action")
                if key in policies.policies[current_policy]:
                    raise ValueError(f"a second line for state {key}")
                policies.policies[current_policy][key] = action
            elif current_witness is not None and line:
                joined_key, text, actions = line.split("\t")
                deps = current_witness.deps
                key = tuple(joined_key.split(" || ")) if deps or joined_key else ()
                if len(key) != len(deps):
                    raise ValueError(f"key has {len(key)} part(s) for {len(deps)} deps")
                if key in current_witness.entries:
                    raise ValueError(f"a second line for key {joined_key}")
                current_witness.entries[key] = (text, tuple(actions.split()))
            elif line:
                raise ValueError("line outside a policy or witness section")
        except ValueError as exc:
            raise InputError(f"{path}:{number}: malformed artifact line ({exc})") from exc
    return policies, witnesses


# ---------------------------------------------------------------------------
# Commands

def _reports_input_errors(command):
    """`command`, printing an InputError it raises as one line and returning 2."""
    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except InputError as exc:
            prefix = "config error" if isinstance(exc, ConfigError) else "error"
            print(f"{prefix}: {exc}", file=sys.stderr)
            return 2
    return run


@_reports_input_errors
def cmd_check(formula_path) -> int:
    try:
        f, sk = load_formula(formula_path, compile_formula)
    except InputError as exc:
        if not isinstance(exc.__cause__, FormulaError):
            raise
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    print(f"formula: {unparse(f)}")
    if sk.decls:
        print(f"skolemized: {format_skolemized(sk, unparse(Formula((), sk.body)))}")
    else:
        print("skolemized: no existential quantifiers; body unchanged")
    return 0


def _aggregate(all_metrics) -> TrainMetrics:
    columns = all_metrics[0].columns
    rows = []
    for i in range(len(all_metrics[0].rows)):
        row = {"episode": all_metrics[0].rows[i]["episode"]}
        for c in columns:
            if c == "episode":
                continue
            row[c] = sum(m.rows[i][c] for m in all_metrics) / len(all_metrics)
        rows.append(row)
    return TrainMetrics(columns, rows)


@_reports_input_errors
def cmd_train(config_path, out=None) -> int:
    cfg = ExperimentConfig.load(config_path)
    f, _, env, _ = cfg.setup()
    out_dir = Path(out or cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"output directory {out_dir} cannot be made: {exc.strerror}") from exc
    rob_cfg = cfg.hyperparams.config()
    verdicts = []   # (seed, Verdict, terminal rho)
    started = time.perf_counter()
    all_metrics = []
    for rep_seed in cfg.seeds:
        result = train(env, f, cfg.hyperparams, rep_seed)
        all_metrics.append(result.metrics)
        with open(out_dir / f"run_{rep_seed}.csv", "w", encoding="utf-8", newline="\n") as fh:
            result.metrics.write_csv(fh)
        write_artifacts(out_dir / f"artifacts_{rep_seed}.txt", result)
        verdict = sat_verdict(result.final_record.terminal_rho, rob_cfg)
        verdicts.append((rep_seed, verdict, result.final_record.terminal_rho))
    env.table = None   # the seeds shared it; the run is over
    wall_clock_seconds = time.perf_counter() - started

    with open(out_dir / "aggregate.csv", "w", encoding="utf-8", newline="\n") as fh:
        _aggregate(all_metrics).write_csv(fh)

    for rep_seed, verdict, rho in verdicts:
        print(f"seed {rep_seed}: {verdict.value} (terminal rho {rho})")
    print(f"repetitions: {len(cfg.seeds)}")
    satisfied = sum(1 for _, v, _ in verdicts if v is Verdict.SATISFIED)
    print(f"satisfaction_rate: {satisfied / len(verdicts)}")
    print(f"mean_terminal_rho: {sum(r for _, _, r in verdicts) / len(verdicts)}")
    print(f"wall_clock_seconds: {wall_clock_seconds:.2f}")
    print(f"outputs: {out_dir}")
    return 0


@_reports_input_errors
def cmd_eval(policy_path, config_path) -> int:
    cfg = ExperimentConfig.load(config_path)
    _, sk, env, beta = cfg.setup()
    policies, witnesses = read_artifacts(policy_path)
    _check_policies(policy_path, policies, env)
    rob_cfg = cfg.hyperparams.config()
    record = greedy_rollout(policies, env, sk, rob_cfg, seed=cfg.seeds[0], beta=beta)
    for t, rho in enumerate(record.rhos):
        print(f"step {t + 1}: rho {rho}")
    verdict = sat_verdict(record.terminal_rho, rob_cfg)
    print(f"verdict: {verdict.value}")
    if witnesses or sk.decls:
        try:
            # one table per Skolem declaration, with its signature
            ok = (sorted((w.exist_index, w.deps) for w in witnesses)
                  == [(d.exist_index, d.deps) for d in sk.decls]
                  and check_consistency(record.traces, witnesses))
        except MissingWitnessError:
            ok = False
        print(f"witness_consistent: {str(ok).lower()}")
    return 0 if verdict is Verdict.SATISFIED else 1


def _traces(text: str) -> list:
    """Traces in `Trace.to_text()` form, separated by blank lines: empty or
    all whitespace, which `to_text` never prints for a position."""
    return [Trace.from_text(chunk) for chunk in re.split(r"\n\s*\n", text) if chunk.strip()]


@_reports_input_errors
def cmd_oracle_pcp(dominoes, max_len: int) -> int:
    solution = pcp_oracle(load_domino_file(dominoes), max_len)
    if solution is None:
        print("none within bound")
    else:
        print("solution: " + " ".join(str(i) for i in solution))
    return 0


@_reports_input_errors
def cmd_oracle_boolean_sat(formula, traces) -> int:
    f, _ = load_formula(formula, compile_formula)
    trace_set = read_input("traces", traces, _traces)
    try:
        result = boolean_sat(trace_set, f)
    except UnknownValuationError as exc:
        raise InputError(f"traces file {traces}: the formula reads valuation {exc}, "
                         "which the traces lack") from exc
    print(str(result).lower())
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

# Each command's help line, options (flag -> `add_argument` keywords) and function,
# which takes the options' values in order, or for `oracle` a table of its subjects
_REQUIRED = {"required": True}
_COMMANDS = {
    "check": ("parse, validate, and print the skolemized form", {"formula": {}}, cmd_check),
    "train": ("run a training experiment from a config file", {
        "--config": _REQUIRED, "--out": {"help": "output directory (overrides the config's)"}},
        cmd_train),
    "eval": ("greedy rollout of trained artifacts", {
        "--policy": {**_REQUIRED, "help": "artifacts file written by train"}, "--config": _REQUIRED},
        cmd_eval),
    "oracle": ("exhaustive reference procedures", {}, {
        "pcp": ("shortest domino match by exhaustive search", {
            "--dominoes": _REQUIRED, "--max-len": {"type": int, "default": 8}}, cmd_oracle_pcp),
        "boolean-sat": ("explicit quantifier enumeration", {
            "--formula": _REQUIRED, "--traces": _REQUIRED}, cmd_oracle_boolean_sat)}),
}


def _define(parser, options: dict, run, dest="subject") -> argparse.ArgumentParser:
    """`parser` given a `_COMMANDS` entry's options and function, or, when
    `run` is a table of commands, a subparser per command under `dest`."""
    if isinstance(run, dict):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (help_text, *entry) in run.items():
            _define(sub.add_parser(name, help=help_text), *entry)
    else:
        dests = [parser.add_argument(flag, **keywords).dest for flag, keywords in options.items()]
        parser.set_defaults(run=lambda args: run(*(getattr(args, d) for d in dests)))
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command`, named `hyperq <command>` as the full parser's
    subparser of it is; without one, the full `hyperq` parser."""
    if command:
        return _define(argparse.ArgumentParser(prog=f"hyperq {command}"), *_COMMANDS[command][1:])
    return _define(argparse.ArgumentParser(
        prog="hyperq",
        description="Check trace-quantified specifications, train policies against "
                    "their robustness, and evaluate the results."), {}, _COMMANDS, "command")


def main(argv=None) -> int:
    """The exit code of the command `argv` (default `sys.argv[1:]`) names, parsed by its own
    parser; help, a missing or unknown command and an option it lacks go to the full one."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args, unknown = build_parser(argv[0]).parse_known_args(argv[1:])
        if not unknown:
            return args.run(args)
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
