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
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .env import Environment, JointAction
from .formula import Formula, FormulaError, load_formula, unparse, validate
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
from .worlds import BoundTooLargeError, build_env, load_domino_file, pcp_oracle


OUTPUT_DIR_ENV = "HYPERQ_OUT"


class ConfigError(ValueError):
    pass


class ArtifactMissingError(FileNotFoundError):
    pass


class ArtifactFormatError(ValueError):
    pass


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
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} cannot be read: {_reason(exc)}") from exc
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from exc
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

        reps = _number(int, "repetitions", exp.get("repetitions", "1"))
        if reps < 1:
            raise ConfigError("repetitions must be >= 1")
        if exp.get("seeds"):
            seeds = [_number(int, "seeds", s) for s in exp["seeds"].split()]
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

        Raises ConfigError when the formula or an environment file cannot be
        read or parsed, or when the pieces do not fit together.  One step of
        the world's first action is scored, so a formula that reads a
        valuation the world's labels lack is found here.
        """
        try:
            f = self.load_formula()
        except (ValueError, OSError) as exc:
            raise ConfigError(f"formula file {self.formula_path}: {exc}") from exc
        diagnostics = validate(f)
        if diagnostics:
            raise ConfigError(f"formula file {self.formula_path}: "
                              + "; ".join(f"{d.code}: {d.message}" for d in diagnostics))
        sk = skolemize(f)
        try:
            env = self.make_env()
            beta = episode_bound(env, sk, self.hyperparams)
        except (ValueError, OSError) as exc:
            raise ConfigError(str(exc)) from exc
        first = JointAction((env.actions[0],) * env.arity)
        try:
            rollout(env, sk, self.hyperparams.config(), lambda t, i: first, self.seeds[0], 1)
        except UnknownValuationError as exc:
            raise ConfigError(f"the formula reads valuation {exc.args[0]!r}, "
                              f"which {env.kind} labels lack") from exc
        return f, sk, env, beta


def _foreign_policy(path, policies: PolicySet, env: Environment) -> str | None:
    """The error line for an artifact with a policy for a slot `env` lacks,
    or one that names an action `env` lacks; None when every policy fits."""
    for index, table in sorted(policies.policies.items()):
        if not 1 <= index <= env.arity:
            return (f"error: {path}: policy {index} is for a slot {env.kind} worlds lack "
                    f"(they have {env.arity})")
        for action in table.values():
            if action not in env.actions:
                return (f"error: {path}: policy {index} names action {action!r}, "
                        f"which {env.kind} worlds lack")


def _reason(exc: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read, without the path an OSError repeats."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8: {exc.reason}"
    return exc.strerror or str(exc)


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


@dataclass
class RunSummary:
    verdicts: list = field(default_factory=list)     # (seed, Verdict, terminal rho)
    wall_clock_seconds: float = 0.0

    @property
    def satisfaction_rate(self) -> float:
        if not self.verdicts:
            return 0.0
        return sum(1 for _, v, _ in self.verdicts if v is Verdict.SATISFIED) / len(self.verdicts)

    @property
    def mean_terminal_rho(self) -> float:
        if not self.verdicts:
            return 0.0
        return sum(r for _, _, r in self.verdicts) / len(self.verdicts)


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
    path = Path(path)
    if not path.exists():
        raise ArtifactMissingError(f"artifact file {path} does not exist")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ArtifactMissingError(f"artifact file {path} cannot be read: {_reason(exc)}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        number = data.count(b"\n", 0, exc.start) + 1
        raise ArtifactFormatError(f"{path}:{number}: malformed artifact line "
                                  f"({_reason(exc)})") from exc
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
                current_witness = WitnessTable(int(index), deps)
                witnesses.append(current_witness)
                current_policy = None
            elif current_policy is not None and line:
                key, sep, action = line.rpartition("\t")
                if not sep:
                    raise ValueError("expected state<TAB>action")
                policies.policies[current_policy][key] = action
            elif current_witness is not None and line:
                joined_key, text, actions = line.split("\t")
                deps = current_witness.deps
                key = tuple(joined_key.split(" || ")) if deps or joined_key else ()
                if len(key) != len(deps):
                    raise ValueError(f"key has {len(key)} part(s) for {len(deps)} deps")
                current_witness.entries[key] = (text, tuple(actions.split()))
            elif line:
                raise ValueError("line outside a policy or witness section")
        except ValueError as exc:
            raise ArtifactFormatError(f"{path}:{number}: malformed artifact line ({exc})") from exc
    return policies, witnesses


# ---------------------------------------------------------------------------
# Commands

def cmd_check(formula_path) -> int:
    try:
        f = load_formula(formula_path)
    except FileNotFoundError:
        print(f"error: formula file {formula_path} does not exist", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: formula file {formula_path} cannot be read: {_reason(exc)}",
              file=sys.stderr)
        return 2
    except FormulaError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    diagnostics = validate(f)
    for d in diagnostics:
        print(f"{d.code}: {d.message}")
    if diagnostics:
        return 1
    sk = skolemize(f)
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


def cmd_train(config_path, out=None) -> int:
    try:
        cfg = ExperimentConfig.load(config_path)
        f, _, env, _ = cfg.setup()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(out or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
    rob_cfg = cfg.hyperparams.config()
    summary = RunSummary()
    started = time.perf_counter()
    all_metrics = []
    for rep_seed in cfg.seeds:
        result = train(env, f, cfg.hyperparams, rep_seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        all_metrics.append(result.metrics)
        with open(out_dir / f"run_{rep_seed}.csv", "w", encoding="utf-8", newline="\n") as fh:
            result.metrics.write_csv(fh)
        write_artifacts(out_dir / f"artifacts_{rep_seed}.txt", result)
        verdict = sat_verdict(result.final_record.terminal_rho, rob_cfg)
        summary.verdicts.append((rep_seed, verdict, result.final_record.terminal_rho))
    summary.wall_clock_seconds = time.perf_counter() - started

    with open(out_dir / "aggregate.csv", "w", encoding="utf-8", newline="\n") as fh:
        _aggregate(all_metrics).write_csv(fh)

    for rep_seed, verdict, rho in summary.verdicts:
        print(f"seed {rep_seed}: {verdict.value} (terminal rho {rho})")
    print(f"repetitions: {len(cfg.seeds)}")
    print(f"satisfaction_rate: {summary.satisfaction_rate}")
    print(f"mean_terminal_rho: {summary.mean_terminal_rho}")
    print(f"wall_clock_seconds: {summary.wall_clock_seconds:.2f}")
    print(f"outputs: {out_dir}")
    return 0


def cmd_eval(policy_path, config_path) -> int:
    try:
        cfg = ExperimentConfig.load(config_path)
        _, sk, env, beta = cfg.setup()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        policies, witnesses = read_artifacts(policy_path)
    except (ArtifactMissingError, ArtifactFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    foreign = _foreign_policy(policy_path, policies, env)
    if foreign:
        print(foreign, file=sys.stderr)
        return 2
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


def cmd_oracle(subject: str, **kwargs) -> int:
    if subject == "pcp":
        try:
            dominoes = load_domino_file(kwargs["dominoes"])
        except (ValueError, OSError) as exc:
            print(f"error: {kwargs['dominoes']}: {exc}", file=sys.stderr)
            return 2
        try:
            solution = pcp_oracle(dominoes, kwargs.get("max_len", 8))
        except BoundTooLargeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if solution is None:
            print("none within bound")
        else:
            print("solution: " + " ".join(str(i) for i in solution))
        return 0
    if subject == "boolean-sat":
        path = kwargs["formula"]
        try:
            f = load_formula(path)
            path = kwargs["traces"]
            text = Path(path).read_text(encoding="utf-8")
            traces = [Trace.from_text(chunk) for chunk in text.split("\n\n") if chunk.strip()]
            result = boolean_sat(traces, f)
        except (ValueError, OSError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        except UnknownValuationError as exc:
            print(f"error: {path}: traces lack valuation {exc}", file=sys.stderr)
            return 2
        print(str(result).lower())
        return 0
    print(f"unknown oracle subject {subject!r}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperq",
        description="Check trace-quantified specifications, train policies against "
                    "their robustness, and evaluate the results.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse, validate, and print the skolemized form")
    p_check.add_argument("formula")

    p_train = sub.add_parser("train", help="run a training experiment from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", help=f"output directory (overrides ${OUTPUT_DIR_ENV} and config)")

    p_eval = sub.add_parser("eval", help="greedy rollout of trained artifacts")
    p_eval.add_argument("--policy", required=True, help="artifacts file written by train")
    p_eval.add_argument("--config", required=True)

    p_oracle = sub.add_parser("oracle", help="exhaustive reference procedures")
    oracle_sub = p_oracle.add_subparsers(dest="subject", required=True)
    p_pcp = oracle_sub.add_parser("pcp", help="shortest domino match by exhaustive search")
    p_pcp.add_argument("--dominoes", required=True)
    p_pcp.add_argument("--max-len", type=int, default=8)
    p_bool = oracle_sub.add_parser("boolean-sat", help="explicit quantifier enumeration")
    p_bool.add_argument("--formula", required=True)
    p_bool.add_argument("--traces", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args.formula)
    if args.command == "train":
        return cmd_train(args.config, out=args.out)
    if args.command == "eval":
        return cmd_eval(args.policy, args.config)
    if args.command == "oracle":
        if args.subject == "pcp":
            return cmd_oracle("pcp", dominoes=args.dominoes, max_len=args.max_len)
        return cmd_oracle("boolean-sat", formula=args.formula, traces=args.traces)
    return 2


if __name__ == "__main__":
    sys.exit(main())
