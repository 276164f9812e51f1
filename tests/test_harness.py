import configparser
import dataclasses
import errno
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hyperq as hq
from hyperq.harness import (
    ConfigError,
    ExperimentConfig,
    cmd_check,
    cmd_eval,
    cmd_oracle_boolean_sat,
    cmd_oracle_pcp,
    cmd_train,
    main,
    read_artifacts,
    write_artifacts,
)
from hyperq.learner import Hyperparams, train
from hyperq.worlds import PcpEnv, WildfireEnv, load_domino_file


def write_micro_config(tmp_path, out_name="out", xi=15, reps=2, formula=None, extra_env="",
                       extra_hp="", env="kind = wildfire\nbeta = 4"):
    cfg = tmp_path / f"{out_name}.ini"
    formula = formula or hq.bundled("formulas") / "rescue.hltl"
    cfg.write_text(
        f"""
[experiment]
formula = {formula}
repetitions = {reps}
base_seed = 3
output_dir = {tmp_path / out_name}

[environment]
{env}
{extra_env}

[hyperparams]
xi = {xi}
learning_rate = 1.0
epsilon_decay_episodes = 10
{extra_hp}
""")
    return cfg


def test_config_load_bundled():
    cfg = ExperimentConfig.load(hq.bundled("configs/wildfire.ini"))
    assert len(cfg.seeds) == 10
    assert cfg.seeds == list(range(1, 11))
    assert cfg.environment["kind"] == "wildfire"
    assert cfg.hyperparams.gamma == 0.99


def test_config_missing_file():
    with pytest.raises(ConfigError):
        ExperimentConfig.load("/nonexistent/experiment.ini")


def test_config_requires_formula(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[experiment]\nformula = missing.hltl\n[environment]\nkind = wildfire\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(p)


def test_config_rejects_unknown_hyperparameter(tmp_path, capsys):
    for line in ("learning_speed = 9", "approximator = mlp", "mlp_width = 64"):
        p = write_micro_config(tmp_path, extra_hp=line)
        with pytest.raises(ConfigError, match="unknown hyperparameter"):
            ExperimentConfig.load(p)
        assert cmd_train(p) == 2
        assert capsys.readouterr().err.startswith("config error: unknown hyperparameter")


def test_cmd_train_rejects_unknown_environment_key(tmp_path, capsys):
    configs = hq.bundled("configs")
    grid = f"kind = grid\nmap = {configs / '../maps/cross4.map'}"
    resource = f"kind = resource\nmap = {configs / '../maps/fair4.map'}"
    pcp = f"kind = pcp\ndominoes = {configs / '../dominoes/k3_solvable.dom'}"
    # a misspelling, then the keys the environments no longer read
    for env, line in (("kind = wildfire\nbeta = 4", "agnets = 7"), (resource, "delta = 10"),
                      (grid, "agents = 2"), (resource, "agents = 2"), (resource, "width = 4"),
                      (pcp, "max_dominoes = 3")):
        key = line.split()[0]
        p = write_micro_config(tmp_path, out_name=key, env=env, extra_env=line)
        assert cmd_train(p) == 2, line
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown key(s) {key} for environment kind"), err
        assert not (tmp_path / key).exists()


@pytest.mark.parametrize("old,new,message", [
    ("repetitions = 1", "repetitions = two", "repetitions must be an integer, got 'two'"),
    ("base_seed = 3", "base_seed = 1.5", "base_seed must be an integer, got '1.5'"),
    ("base_seed = 3", "seeds = x", "seeds must be an integer, got 'x'"),
    ("xi = 15", "xi = many", "xi must be an integer, got 'many'"),
    ("xi = 15", "xi = 15\ngamma = high", "gamma must be a number, got 'high'"),
    ("beta = 4", "beta = 4\nbeta = 5", "option 'beta' in section 'environment' already exists"),
    ("base_seed = 3", "base_seed = -3", "seeds must be non-negative, got -3"),
    ("repetitions = 1", "repetitions = 2\nseeds = 2 -1", "seeds must be non-negative, got -1"),
    ("repetitions = 1", "repetitions = 2\nseeds = 3 3", "seed 3 given twice"),
    ("xi = 15", "xi = 15\nrho_max = -1", "rho_max must be positive and finite, got -1.0"),
    ("xi = 15", "xi = 15\nrho_max = 0", "rho_max must be positive and finite, got 0.0"),
    ("xi = 15", "xi = 15\nrho_max = nan", "rho_max must be positive and finite, got nan"),
    ("xi = 15", "xi = 15\nrho_max = inf", "rho_max must be positive and finite, got inf"),
    ("learning_rate = 1.0", "learning_rate = nan", "learning_rate must lie in (0, 1]"),
    ("learning_rate = 1.0", "learning_rate = -2", "learning_rate must lie in (0, 1]"),
    ("xi = 15", "xi = 15\nepsilon_start = -1\nepsilon_end = -3",
     "need 0 <= epsilon_end <= epsilon_start <= 1"),
    ("xi = 15", "xi = 15\nepsilon_end = -0.5", "need 0 <= epsilon_end <= epsilon_start <= 1"),
    ("base_seed = 3", "seed = 5", "unknown key(s) seed in [experiment]"),
    ("base_seed = 3", "seed = 5\nreps = 2", "unknown key(s) reps, seed in [experiment]"),
    ("[hyperparams]", "[hyperparameters]", "unknown section(s) [hyperparameters]"),
    ("[hyperparams]", "[misc]\nx = 1\n[hyperparams]", "unknown section(s) [misc]"),
    ("xi = 15", "xi = 15\n; caf\xe9", "cannot be read: not UTF-8: invalid continuation byte"),
    # no interpolation: '%' is a character of the value
    ("xi = 15", "xi = 15\ngamma = 5%", "gamma must be a number, got '5%'"),
    ("[experiment]", "garbage\n[experiment]", "line 2 comes before the first [section] header"),
    ("xi = 15", "xi = 15\n= 3", "is not a key = value line"),
], ids=["repetitions", "base_seed", "seeds", "xi", "gamma", "duplicate_key", "negative_base_seed",
        "negative_seed", "duplicate_seed", "rho_max_negative", "rho_max_zero", "rho_max_nan",
        "rho_max_inf", "learning_rate_nan", "learning_rate_negative", "epsilon_negative",
        "epsilon_end_negative", "experiment_key", "experiment_keys", "hyperparameters_section",
        "extra_section", "not_utf8", "percent", "no_section", "no_key"])
def test_config_rejects_malformed_values(tmp_path, capsys, old, new, message):
    p = write_micro_config(tmp_path, reps=1)
    # Latin-1 writes one byte per character: the lone byte 0xe9 is not UTF-8
    p.write_bytes(p.read_text().replace(f"\n{old}\n", f"\n{new}\n").encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.load(p)
    assert cmd_train(p) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "out").exists()
    assert cmd_eval(tmp_path / "nothing.txt", p) == 2


def test_config_accepts_the_benchmark_rewrite(tmp_path):
    # the keys perfbench/run.py's write_config sets on a bundled config
    configs = hq.bundled("configs")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read(configs / "pcp-k3.ini")
    exp = parser["experiment"]
    exp["formula"] = str((configs / exp["formula"]).resolve())
    parser["environment"]["dominoes"] = str((configs / parser["environment"]["dominoes"]).resolve())
    exp.pop("base_seed")
    exp["repetitions"] = "2"
    exp["seeds"] = "5 9"
    exp["output_dir"] = str(tmp_path / "out")
    parser["hyperparams"]["xi"] = "7"
    path = tmp_path / "bench.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    cfg = ExperimentConfig.load(path)
    assert cfg.seeds == [5, 9] and cfg.hyperparams.xi == 7
    assert cfg.output_dir == tmp_path / "out"


def test_config_seed_list_must_match_repetitions(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    formulas = hq.bundled("formulas")
    p.write_text(
        f"[experiment]\nformula = {formulas}/rescue.hltl\nrepetitions = 3\nseeds = 1 2\n"
        "[environment]\nkind = wildfire\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(p)
    assert cmd_train(p) == 2
    assert capsys.readouterr().err == "config error: 2 seeds given for 3 repetitions\n"


def test_config_seed_list_alone_sets_the_repetitions(tmp_path, capsys):
    cfg = write_micro_config(tmp_path, xi=3)
    cfg.write_text(cfg.read_text().replace("repetitions = 2\nbase_seed = 3\n",
                                           "seeds = 3 17 42\n"))
    assert ExperimentConfig.load(cfg).seeds == [3, 17, 42]
    assert cmd_train(cfg) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "aggregate.csv", "artifacts_17.txt", "artifacts_3.txt", "artifacts_42.txt",
        "run_17.csv", "run_3.csv", "run_42.csv"]
    assert "repetitions: 3\n" in capsys.readouterr().out


_PCP_AB_BODY = (
    "(((top_a@{a} -> bot_a@{a}) & (bot_a@{a} -> top_a@{a}) & ((top_b@{a} -> bot_b@{a}) & "
    "(bot_b@{a} -> top_b@{a}))) U ((top_hash@{a} | bot_hash@{a}) & !(top_hash@{a} & bot_hash@{a}))) "
    "U (((top_a@{a} -> top_a@{b}) & (top_a@{b} -> top_a@{a}) & ((top_b@{a} -> top_b@{b}) & "
    "(top_b@{b} -> top_b@{a})) & ((bot_a@{a} -> bot_a@{b}) & (bot_a@{b} -> bot_a@{a})) & "
    "((bot_b@{a} -> bot_b@{b}) & (bot_b@{b} -> bot_b@{a}))) U ((top_hash@{a} | bot_hash@{a}) & "
    "!top_hash@{b} & !bot_hash@{b}) & G ((top_a@{b} -> bot_a@{b}) & (bot_a@{b} -> top_a@{b}) & "
    "((top_b@{b} -> bot_b@{b}) & (bot_b@{b} -> top_b@{b}))))")


# what `hyperq check` prints for each bundled formula
_CHECK_OUT = {
    "fairness.hltl": (
        "formula: forall t1. forall t2. G F resource@t1 & G F resource@t2 & "
        "G [ |energy@t1 - energy@t2| < 10 ]\n"
        "skolemized: no existential quantifiers; body unchanged\n"),
    "pcp_ab.hltl": (
        "formula: forall t1. exists t2. " + _PCP_AB_BODY.format(a="t1", b="t2") + "\n"
        "skolemized: exists f2(t1). forall t1. " + _PCP_AB_BODY.format(a="t1", b="f2") + "\n"),
    "rescue.hltl": (
        "formula: forall t1. exists t2. G [ |loc@t1 - loc@t2| < 3 ] & F i@t1 & F f@t1 & F c@t1 & "
        "F g@t2 & F f@t2 & !f@t2 U f@t1\n"
        "skolemized: exists f2(t1). forall t1. G [ |loc@t1 - loc@f2| < 3 ] & F i@t1 & F f@t1 & "
        "F c@t1 & F g@f2 & F f@f2 & !f@f2 U f@t1\n"),
    "safe_rl.hltl": (
        "formula: forall t1. exists t2. G ![ |cell@t1 - cell@t2| = 0 ] & F goal1@t1 & F goal2@t2\n"
        "skolemized: exists f2(t1). forall t1. G ![ |cell@t1 - cell@f2| = 0 ] & F goal1@t1 & "
        "F goal2@f2\n"),
}


@pytest.mark.parametrize("name", sorted(_CHECK_OUT))
def test_cmd_check_valid_formula(name, capsys):
    assert cmd_check(hq.bundled(f"formulas/{name}")) == 0
    assert capsys.readouterr() == (_CHECK_OUT[name], "")


def test_cmd_check_universal_formula_notes_unchanged_body(capsys):
    assert cmd_check(hq.bundled("formulas/fairness.hltl")) == 0
    assert "body unchanged" in capsys.readouterr().out


def test_cmd_check_reports_unbound_variable(tmp_path, capsys):
    p = tmp_path / "bad.hltl"
    p.write_text("forall t1. F p@t2\n")
    assert cmd_check(p) == 1


def test_cmd_check_missing_file(tmp_path, capsys):
    assert cmd_check("/nonexistent.hltl") == 2
    latin1 = tmp_path / "latin1.hltl"
    latin1.write_bytes("forall t1. F caf\xe9@t1\n".encode("latin-1"))
    for path in (tmp_path, latin1):
        capsys.readouterr()
        assert cmd_check(path) == 2, path
        err = capsys.readouterr().err
        assert err.startswith(f"error: formula file {path} cannot be read: ") \
            and err.count("\n") == 1, err


def test_cmd_train_writes_expected_outputs(tmp_path, capsys):
    cfg = write_micro_config(tmp_path)
    assert cmd_train(cfg) == 0
    out_dir = tmp_path / "out"
    for seed in (3, 4):
        csv = (out_dir / f"run_{seed}.csv").read_text()
        assert csv.splitlines()[0] == "episode,rho"
        assert len(csv.splitlines()) == 16
        assert (out_dir / f"artifacts_{seed}.txt").exists()
    agg = (out_dir / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "episode,rho"
    stdout = capsys.readouterr().out
    assert "satisfaction_rate" in stdout


def test_cmd_train_seeds_share_one_table_and_drop_it(tmp_path, monkeypatch):
    # every seed of a run trains on one world and its one table, which the
    # world no longer holds once the run is over
    calls = []

    def recorded(env, f, h, seed):
        result = train(env, f, h, seed)
        calls.append((env, env.table))
        return result

    monkeypatch.setattr("hyperq.harness.train", recorded)
    assert cmd_train(write_micro_config(tmp_path, reps=3)) == 0
    assert len(calls) == 3 and len(set(calls)) == 1
    env, table = calls[0]
    assert table is not None and env.table is None


def test_cmd_train_aggregate_is_mean_of_runs(tmp_path):
    cfg = write_micro_config(tmp_path, out_name="agg")
    cmd_train(cfg)
    out_dir = tmp_path / "agg"

    def read_rows(name):
        lines = (out_dir / name).read_text().splitlines()
        return [[float(x) for x in line.split(",")] for line in lines[1:]]

    runs = [read_rows("run_3.csv"), read_rows("run_4.csv")]
    agg = read_rows("aggregate.csv")
    for i, row in enumerate(agg):
        for j in range(1, len(row)):
            assert row[j] == pytest.approx((runs[0][i][j] + runs[1][i][j]) / 2)


def test_cmd_train_determinism_byte_identical(tmp_path):
    cfg = write_micro_config(tmp_path, out_name="a")
    cmd_train(cfg)
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "a").iterdir())}
    cfg2 = write_micro_config(tmp_path, out_name="b")
    cmd_train(cfg2)
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "b").iterdir())}
    assert first == second


def test_cmd_train_bad_config_exit_code(tmp_path):
    p = tmp_path / "broken.ini"
    p.write_text("[experiment]\n")
    assert cmd_train(p) == 2


def test_artifacts_round_trip(tmp_path):
    cfg = write_micro_config(tmp_path, out_name="rt", xi=10, reps=1)
    cmd_train(cfg)
    policies, witnesses = read_artifacts(tmp_path / "rt" / "artifacts_3.txt")
    assert set(policies.policies) == {1, 2}
    assert len(witnesses) == 1
    assert witnesses[0].exist_index == 2 and witnesses[0].deps == (1,)
    assert witnesses[0].entries


def test_cmd_eval_runs_policy(tmp_path, capsys):
    cfg = write_micro_config(tmp_path, out_name="ev", xi=10, reps=1)
    cmd_train(cfg)
    capsys.readouterr()
    code = cmd_eval(tmp_path / "ev" / "artifacts_3.txt", cfg)
    out = capsys.readouterr().out
    assert "verdict:" in out
    assert "witness_consistent: true" in out
    assert code in (0, 1)
    assert ("verdict: satisfied" in out) == (code == 0)
    # a witness section without an entry for the replayed dependency prefix
    artifact = tmp_path / "ev" / "artifacts_3.txt"
    policies, header, _ = artifact.read_text().partition("witness 2 deps=1\n")
    artifact.write_text(policies + header)
    assert cmd_eval(artifact, cfg) == code
    assert capsys.readouterr() == (out.replace("witness_consistent: true",
                                               "witness_consistent: false"), "")


def test_cmd_eval_uses_hyperparams_beta(tmp_path, capsys):
    cfg = write_micro_config(tmp_path, out_name="ev", xi=10, reps=1, extra_hp="beta = 2")
    cmd_train(cfg)
    capsys.readouterr()
    cmd_eval(tmp_path / "ev" / "artifacts_3.txt", cfg)
    steps = [line for line in capsys.readouterr().out.splitlines() if line.startswith("step")]
    assert len(steps) == 2


def test_mismatched_setup_exits_2(tmp_path, capsys):
    cfg = write_micro_config(tmp_path, out_name="ok", xi=5, reps=1)
    assert cmd_train(cfg) == 0
    artifact = tmp_path / "ok" / "artifacts_3.txt"
    one_trace = tmp_path / "one.hltl"
    one_trace.write_text("forall t1. F a@t1\n")
    syntax = tmp_path / "syntax.hltl"
    syntax.write_text("forall t1. F (a@t1\n")
    formulas = hq.bundled("formulas")
    for bad in (write_micro_config(tmp_path, "arity", xi=5, reps=1, formula=one_trace),
                write_micro_config(tmp_path, "beta", xi=5, reps=1, extra_hp="beta = 6"),
                write_micro_config(tmp_path, "syntax", xi=5, reps=1, formula=syntax),
                write_micro_config(tmp_path, "map", xi=5, reps=1,
                                   formula=formulas / "safe_rl.hltl",
                                   env="kind = grid\nmap = nowhere.map"),
                write_micro_config(tmp_path, "dominoes", xi=5, reps=1,
                                   formula=formulas / "pcp_ab.hltl",
                                   env="kind = pcp\ndominoes = nowhere.dom")):
        assert cmd_train(bad) == 2
        assert not (tmp_path / bad.stem).exists()
        assert cmd_eval(artifact, bad) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and all(line.startswith("config error: ") for line in lines)
    # reward_mode names no world family: a world offers baseline_reward or not
    for mode, message in (("baseline", "a wildfire environment has no baseline reward"),
                          ("baseline_saferl", "unknown reward mode 'baseline_saferl'")):
        bad = write_micro_config(tmp_path, mode, xi=5, reps=1, extra_hp=f"reward_mode = {mode}")
        assert cmd_train(bad) == 2
        assert not (tmp_path / mode).exists()
        assert cmd_eval(artifact, bad) == 2
        assert capsys.readouterr().err == f"config error: {message}\n" * 2


def test_formula_reading_a_valuation_the_world_lacks_exits_2(tmp_path, capsys):
    cfg = write_micro_config(tmp_path, out_name="ok", xi=5, reps=1)
    assert cmd_train(cfg) == 0
    artifact = tmp_path / "ok" / "artifacts_3.txt"
    formulas = hq.bundled("formulas")
    valued = tmp_path / "valued.hltl"
    valued.write_text("forall t1. exists t2. G [ v@t1 < 3 ]\n")
    # the first episode's first step finds it, before any output directory
    # exists
    grid = write_micro_config(tmp_path, "grid", xi=5, reps=1, formula=formulas / "fairness.hltl",
                              env=f"kind = grid\nmap = {hq.bundled('maps/cross4.map')}")
    pcp = write_micro_config(tmp_path, "pcp", xi=5, reps=1, formula=valued,
                             env=f"kind = pcp\ndominoes = {hq.bundled('dominoes/k3_solvable.dom')}")
    for bad, world, name in ((grid, "grid", "energy"), (pcp, "pcp", "v")):
        assert cmd_train(bad) == 2
        assert cmd_eval(artifact, bad) == 2
        message = f"config error: the formula reads valuation {name!r}, which {world} labels lack\n"
        assert capsys.readouterr().err == message * 2
    assert not (tmp_path / "grid").exists() and not (tmp_path / "pcp").exists()


def test_cmd_train_names_a_map_or_domino_file_that_is_not_utf8(tmp_path, capsys):
    artifact = tmp_path / "artifact.txt"
    artifact.write_text("policy 1\npolicy 2\n")
    formulas = hq.bundled("formulas")
    for kind, key, noun, formula in (("grid", "map", "map", "safe_rl.hltl"),
                                     ("pcp", "dominoes", "domino", "pcp_ab.hltl")):
        path = tmp_path / f"latin1.{key}"
        path.write_bytes(b"\xff\n")
        cfg = write_micro_config(tmp_path, key, xi=5, reps=1, formula=formulas / formula,
                                 env=f"kind = {kind}\n{key} = {path}")
        assert cmd_train(cfg) == 2
        assert cmd_eval(artifact, cfg) == 2
        message = f"config error: {noun} file {path} cannot be read: not UTF-8: "
        assert capsys.readouterr().err == f"{message}invalid start byte (line 1)\n" * 2
        assert not (tmp_path / key).exists()


def test_cmd_train_rejects_an_output_path_that_cannot_be_a_directory(tmp_path, capsys,
                                                                     monkeypatch):
    cfg = write_micro_config(tmp_path, xi=5, reps=1)
    trained = []
    monkeypatch.setattr("hyperq.harness.train", lambda *args: trained.append(args))
    out = cfg / "sub"   # below a file
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert trained == []
    assert capsys.readouterr() == (
        "", f"error: output directory {out} cannot be made: Not a directory\n")


def test_cmd_train_rejects_malformed_map_legend(tmp_path, capsys):
    formula = tmp_path / "f.hltl"
    formula.write_text("forall t1. F goal1@t1\n")
    grid = tmp_path / "legend.map"
    cfg = write_micro_config(tmp_path, "legend", formula=formula, env=f"kind = grid\nmap = {grid}")
    for legend in ("b = goal 5", "b = goal 1"):
        grid.write_text(f"1ab\n...\n\na = goal 1\n{legend}\n")
        assert cmd_train(cfg) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "legend").exists()


def test_artifacts_write_read_round_trip(tmp_path):
    wildfire = train(WildfireEnv(6), hq.load_formula(hq.bundled("formulas/rescue.hltl")),
                     Hyperparams(xi=30, learning_rate=1.0), seed=2)
    pcp = train(PcpEnv(load_domino_file(hq.bundled("dominoes/k3_solvable.dom")), beta=6),
                hq.load_formula(hq.bundled("formulas/pcp_ab.hltl")),
                Hyperparams(xi=30, learning_rate=0.7), seed=2)
    f, _, env, _ = ExperimentConfig.load(hq.bundled("configs/safe-rl-4x4.ini")).setup()
    grid = train(env, f, Hyperparams(xi=30, learning_rate=0.7), seed=2)
    for i, result in enumerate((wildfire, pcp, grid)):
        assert result.witnesses and all(w.entries for w in result.witnesses)
        path = tmp_path / f"artifacts_{i}.txt"
        write_artifacts(path, result)
        policies, witnesses = read_artifacts(path)
        assert policies == result.policies
        assert [(w.exist_index, w.deps, w.entries) for w in witnesses] == \
            [(w.exist_index, w.deps, w.entries) for w in result.witnesses]


def test_cmd_eval_malformed_artifact(tmp_path, capsys):
    cfg = write_micro_config(tmp_path, xi=5, reps=1)
    for text, line in (("witness 2 deps=1\nno tabs here\n", 2), ("policy x\n", 1),
                       ("stray line\n", 1), ("policy \n", 1), ("witness  deps=\n", 1),
                       # a key needs one ` || `-separated part per entry of deps=
                       ("witness 2 deps=1\np | || extra\tq |\t\n", 2),
                       ("witness 2 deps=1\np |\tq |\t\np ||  || \tq |\t\n", 3),
                       ("witness 2 deps=\np |\tq |\t\n", 2),
                       ("witness 3 deps=1,2\np |\tq |\t\n", 2),
                       # a repeated section would drop the first one's entries
                       ("policy 1\n(0, 0)\tstay\npolicy 2\npolicy 1\n", 4)):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert cmd_eval(bad, cfg) == 2, text
        err = capsys.readouterr().err
        assert f"bad.txt:{line}: malformed artifact line" in err and err.count("\n") == 1, text
    assert "(a second section policy 1)" in err
    # a repeated key would let the later line win, and a repeated witness
    # section would read as an inconsistent witness
    for text, line, reason in (
            ("policy 1\n(0, 0)\tstay\n(0, 0)\tup\n", 3, "a second line for state (0, 0)"),
            ("witness 2 deps=1\np |\tq |\t\np |\tr |\t\n", 3, "a second line for key p |"),
            ("witness 2 deps=1\nwitness 2 deps=1\n", 2, "a second section witness 2")):
        bad.write_text(text)
        assert cmd_eval(bad, cfg) == 2, text
        assert capsys.readouterr() == ("", f"error: {bad}:{line}: malformed artifact line "
                                           f"({reason})\n")
    # Latin-1 bytes: 0xe9 is not UTF-8
    bad.write_bytes("policy 1\n('caf\xe9',)\tstay\n".encode("latin-1"))
    assert cmd_eval(bad, cfg) == 2
    assert capsys.readouterr() == ("", f"error: artifact file {bad} cannot be read: not UTF-8: "
                                       "invalid continuation byte (line 2)\n")
    assert cmd_eval(tmp_path, cfg) == 2   # a directory
    err = capsys.readouterr().err
    assert err.startswith(f"error: artifact file {tmp_path} cannot be read: ") \
        and err.count("\n") == 1, err


@pytest.mark.parametrize("header", ["witness 0 deps=", "witness 2 deps=0", "witness 2 deps=3",
                                    "witness 3 deps=1", "witness 2 deps="])
def test_cmd_eval_witness_positions_outside_the_prefix(tmp_path, capsys, header):
    cfg = write_micro_config(tmp_path, xi=5, reps=1)
    assert cmd_train(cfg) == 0
    artifact = tmp_path / "out" / "artifacts_3.txt"
    policies, _, entries = artifact.read_text().partition("witness 2 deps=1\n")
    if header.endswith("="):   # no deps: one line, with an empty key field
        entries = "\t" + entries.splitlines()[-1].split("\t", 1)[1] + "\n"
    artifact.write_text(f"{policies}{header}\n{entries}")
    capsys.readouterr()
    assert cmd_eval(artifact, cfg) in (0, 1)
    out, err = capsys.readouterr()
    assert "witness_consistent: false" in out.splitlines() and err == ""


def test_train_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # wildfire slot states hold frozensets, whose order follows the hash seed
    cfg = write_micro_config(tmp_path, xi=30, env="kind = wildfire")
    src = Path(hq.__file__).resolve().parent.parent
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (str(src),
                                                            os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-m", "hyperq", "train", "--config", str(cfg),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["aggregate.csv", "artifacts_3.txt", "artifacts_4.txt",
                                  "run_3.csv", "run_4.csv"]
    assert outputs[0] == outputs[1]


def test_cmd_eval_rejects_unknown_action(tmp_path, capsys):
    cfg = write_micro_config(tmp_path, out_name="grid", xi=5, reps=1,
                             formula=hq.bundled("formulas/safe_rl.hltl"),
                             env=f"kind = grid\nmap = {hq.bundled('maps/cross4.map')}\nbeta = 4")
    assert cmd_train(cfg) == 0
    artifact = tmp_path / "grid" / "artifacts_3.txt"
    trained = artifact.read_text().splitlines()
    start = "(0, 0, False, False)\t"  # agent 1's start state on cross4
    first = next(i for i, line in enumerate(trained) if line.startswith(start))
    reached = trained[:first] + [start + "jump"] + trained[first + 1:]
    # a state off the map, which no replay reaches
    policy_1 = trained.index("policy 1")
    unreached = trained[:policy_1 + 1] + ["(9, 9, False, False)\tjump"] + trained[policy_1 + 1:]
    for lines in (reached, unreached):
        artifact.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cmd_eval(artifact, cfg) == 2
        assert capsys.readouterr() == \
            ("", f"error: {artifact}: policy 1 names action 'jump', which grid worlds lack\n")


def test_cmd_eval_rejects_a_policy_for_a_slot_the_world_lacks(tmp_path, capsys):
    cfg = write_micro_config(tmp_path, xi=5, reps=1)
    assert cmd_train(cfg) == 0
    artifact = tmp_path / "out" / "artifacts_3.txt"
    trained = artifact.read_text()
    for index in (7, 0):
        artifact.write_text(trained + f"policy {index}\n(0, 0, frozenset())\tstay\n")
        capsys.readouterr()
        assert cmd_eval(artifact, cfg) == 2
        assert capsys.readouterr() == ("", f"error: {artifact}: policy {index} is for a slot "
                                           "wildfire worlds lack (they have 2)\n")


def test_cmd_eval_rejects_an_artifact_without_a_slot_s_policy(tmp_path, capsys):
    cfg = write_micro_config(tmp_path, xi=5, reps=1)
    artifact = tmp_path / "artifact.txt"
    for text, missing in (("", 1), ("policy 1\n(0, 0, frozenset())\tstay\n", 2)):
        artifact.write_text(text)
        assert cmd_eval(artifact, cfg) == 2
        assert capsys.readouterr() == ("", f"error: {artifact}: section policy {missing} is "
                                           "missing (wildfire worlds have 2 slots)\n")
    artifact.write_text("policy 1\npolicy 2\n")   # empty sections replay the first action
    assert cmd_eval(artifact, cfg) in (0, 1)
    assert capsys.readouterr().err == ""


def test_cmd_eval_missing_artifact(tmp_path):
    cfg = write_micro_config(tmp_path, xi=5, reps=1)
    assert cmd_eval(tmp_path / "nothing.txt", cfg) == 2


def test_cmd_oracle_pcp(tmp_path, capsys):
    code = cmd_oracle_pcp(dominoes=hq.bundled("dominoes/k3_solvable.dom"), max_len=6)
    assert code == 0
    assert capsys.readouterr().out.strip() == "solution: 2 1 3"
    code = cmd_oracle_pcp(dominoes=hq.bundled("dominoes/k3_unsolvable.dom"), max_len=6)
    assert code == 0
    assert capsys.readouterr().out.strip() == "none within bound"
    for bound in (50, 0, -3):
        assert cmd_oracle_pcp(dominoes=hq.bundled("dominoes/k3_solvable.dom"),
                          max_len=bound) == 2
        assert capsys.readouterr() == ("", f"error: search bound {bound} outside 1..12\n")
    malformed = tmp_path / "bad.dom"
    malformed.write_text("ab\n")
    missing = tmp_path / "missing.dom"
    for dominoes, message in ((missing, f"domino file {missing} does not exist"),
                              (malformed, f"domino file {malformed}: expected 'top|bottom', "
                                          "found 'ab'")):
        assert cmd_oracle_pcp(dominoes=dominoes, max_len=6) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("formula", ["forall t1. F q@t1", "exists t1. F p@t1 & F r@t1"])
def test_cmd_oracle_boolean_sat_blank_line_holds_spaces(formula, tmp_path, capsys):
    # a line of spaces and tabs separates traces as an empty line does
    f = tmp_path / "f.hltl"
    f.write_text(formula + "\n")
    answers = []
    for separator in ("", " \t"):
        traces = tmp_path / "traces.txt"
        traces.write_text(f"p |\nq |\n{separator}\nr |\n")
        assert cmd_oracle_boolean_sat(formula=f, traces=traces) == 0
        answers.append(capsys.readouterr().out)
    assert answers == ["false\n", "false\n"]


def test_cmd_oracle_boolean_sat(tmp_path, capsys):
    formula = tmp_path / "f.hltl"
    formula.write_text("exists t1. F p@t1\n")
    traces = tmp_path / "traces.txt"
    traces.write_text("p |\n\nq |\n")
    assert cmd_oracle_boolean_sat(formula=formula, traces=traces) == 0
    assert capsys.readouterr().out.strip() == "true"
    # Windows line ends still separate two traces, so not every trace has q
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(b"p |\r\n\r\nq |\r\n")
    formula.write_text("forall t1. F q@t1\n")
    assert cmd_oracle_boolean_sat(formula=formula, traces=crlf) == 0
    assert capsys.readouterr().out.strip() == "false"
    formula.write_text("exists t1. F p@t1\n")
    bad_formula = tmp_path / "bad.hltl"
    bad_formula.write_text("exists t1. F (p@t1\n")
    bad_traces = tmp_path / "bad.txt"
    bad_traces.write_text("p | x=high\n")
    missing = tmp_path / "missing.txt"
    valuation = tmp_path / "valuation.hltl"
    valuation.write_text("exists t1. F [ v@t1 < 3 ]\n")
    for f, t, message in (
            (missing, traces, f"formula file {missing} does not exist"),
            (bad_formula, traces,
             f"formula file {bad_formula}: expected ')', found '' (line 1, column 17)"),
            (formula, missing, f"traces file {missing} does not exist"),
            (formula, bad_traces,
             f"traces file {bad_traces}: could not convert string to float: 'high'"),
            (valuation, traces,
             f"traces file {traces}: the formula reads valuation 'v', which the traces lack")):
        assert cmd_oracle_boolean_sat(formula=f, traces=t) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# text that each input's loader cannot parse
_UNPARSABLE = {"config": "garbage\n", "formula": "forall t1. F (p@t1\n", "map": "1.\n...\n",
               "domino": "ab\n", "traces": "p | x=high\n", "artifact": "stray line\n"}


@pytest.mark.parametrize("failure", ["missing", "directory", "not_utf8", "unparsable"])
@pytest.mark.parametrize("noun,command", [
    ("config", "train"), ("formula", "train"), ("formula", "eval"), ("formula", "check"),
    ("formula", "boolean-sat"), ("map", "train"), ("domino", "train"), ("domino", "pcp"),
    ("traces", "boolean-sat"), ("artifact", "eval")])
def test_each_input_error_is_one_line_naming_the_file(tmp_path, capsys, noun, command, failure):
    bad = tmp_path / f"bad.{noun}"
    if failure == "directory":
        bad.mkdir()
    elif failure == "not_utf8":
        bad.write_bytes(b"\xff\n")
    elif failure == "unparsable":
        bad.write_text(_UNPARSABLE[noun])
    formulas = hq.bundled("formulas")
    env, formula = {"map": (f"kind = grid\nmap = {bad}", formulas / "safe_rl.hltl"),
                    "domino": (f"kind = pcp\ndominoes = {bad}", formulas / "pcp_ab.hltl"),
                    "formula": ("kind = wildfire\nbeta = 4", bad)}.get(
        noun, ("kind = wildfire\nbeta = 4", formulas / "rescue.hltl"))
    config = bad if noun == "config" else write_micro_config(tmp_path, xi=5, reps=1,
                                                             formula=formula, env=env)
    traces = tmp_path / "traces.txt"
    if noun == "traces":
        traces = bad
    else:
        traces.write_text("p |\n\nq |\n")
    artifact = bad if noun == "artifact" else tmp_path / "never-read.txt"
    argv = {"train": ["train", "--config", str(config)],
            "eval": ["eval", "--policy", str(artifact), "--config", str(config)],
            "check": ["check", str(bad)],
            "boolean-sat": ["oracle", "boolean-sat", "--formula", str(formula),
                            "--traces", str(traces)],
            "pcp": ["oracle", "pcp", "--dominoes", str(bad)]}[command]
    code = main(argv)
    out, err = capsys.readouterr()
    prefix = "config error: " if command in ("train", "eval") and noun != "artifact" else "error: "
    if failure == "unparsable":
        head = (f"error: {bad}:1: malformed artifact line (" if noun == "artifact" else
                f"syntax error: {noun} file {bad}: " if command == "check" else
                f"{prefix}{noun} file {bad}: ")
        assert err.startswith(head), err
    else:
        reason = {"missing": "does not exist",
                  "directory": f"cannot be read: {os.strerror(errno.EISDIR)}",
                  "not_utf8": "cannot be read: not UTF-8: invalid start byte (line 1)"}[failure]
        assert err == f"{prefix}{noun} file {bad} {reason}\n"
    assert code == (1 if command == "check" and failure == "unparsable" else 2)
    assert out == "" and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("chain", ["!", "&"])
@pytest.mark.parametrize("command", ["check", "train", "eval", "boolean-sat"])
def test_a_formula_nested_past_the_bound_is_one_line(tmp_path, capsys, chain, command):
    # chains deep enough to exhaust the stack of a recursive walk are
    # rejected by the parser, with the position of the operator past the bound
    body = "!" * 1200 + "i@t1" if chain == "!" else " & ".join(["F i@t1"] * 3000)
    text = f"forall t1. forall t2. {body}\n"
    formula = tmp_path / "deep.hltl"
    formula.write_text(text)
    traces = tmp_path / "traces.txt"
    traces.write_text("i |\n\ni |\n")
    config = write_micro_config(tmp_path, xi=5, reps=1, formula=formula)
    argv = {"check": ["check", str(formula)],
            "train": ["train", "--config", str(config)],
            "eval": ["eval", "--policy", str(tmp_path / "never-read.txt"), "--config", str(config)],
            "boolean-sat": ["oracle", "boolean-sat", "--formula", str(formula),
                            "--traces", str(traces)]}[command]
    code = main(argv)
    out, err = capsys.readouterr()
    column = (text.index("!") + 100 if chain == "!" else
              [m.start() for m in re.finditer("&", text)][98] + 1)
    message = (f"formula file {formula}: formula nested more than 100 levels deep "
               f"(line 1, column {column})\n")
    prefix = {"check": "syntax error", "train": "config error", "eval": "config error",
              "boolean-sat": "error"}[command]
    assert (code, out, err) == (1 if command == "check" else 2, "", f"{prefix}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", sorted(p.name for p in hq.bundled("configs").glob("*.ini")))
def test_bundled_config_trains(config):
    cfg = ExperimentConfig.load(hq.bundled("configs") / config)
    f, _, env, _ = cfg.setup()
    result = train(env, f, dataclasses.replace(cfg.hyperparams, xi=2), cfg.seeds[0])
    assert len(result.metrics.rows) == 2


def test_main_dispatches(capsys, tmp_path):
    assert main(["check", str(hq.bundled("formulas/safe_rl.hltl"))]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["skolemize", str(hq.bundled("formulas/safe_rl.hltl"))])
    capsys.readouterr()
    assert main(["oracle", "pcp", "--dominoes", str(hq.bundled("dominoes/k3_solvable.dom")),
                 "--max-len", "6"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # seeds come from the config only
    cfg = write_micro_config(tmp_path, xi=5, reps=1)
    for flag in ("--reps", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(cfg), flag, "2"])
        assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--config", "--out"}


_TOP_USAGE = "usage: hyperq [-h] {check,train,eval,oracle} ...\n"
_EVAL_USAGE = "usage: hyperq eval [-h] --policy POLICY --config CONFIG\n"

# (argv, exit code, stdout, stderr) of the command line, as the argparse of
# Python 3.10 and 3.11 prints them at 80 columns
_CLI_TEXT = [
    ([], 2, "", _TOP_USAGE + "hyperq: error: the following arguments are required: command\n"),
    (["--help"], 0, _TOP_USAGE + """
Check trace-quantified specifications, train policies against their
robustness, and evaluate the results.

positional arguments:
  {check,train,eval,oracle}
    check               parse, validate, and print the skolemized form
    train               run a training experiment from a config file
    eval                greedy rollout of trained artifacts
    oracle              exhaustive reference procedures

options:
  -h, --help            show this help message and exit
""", ""),
    (["no-such-command"], 2, "", _TOP_USAGE + "hyperq: error: argument command: invalid choice: "
     "'no-such-command' (choose from 'check', 'train', 'eval', 'oracle')\n"),
    (["eval", "--policy", "x"], 2, "",
     _EVAL_USAGE + "hyperq eval: error: the following arguments are required: --config\n"),
    (["eval", "--help"], 0, _EVAL_USAGE + """
options:
  -h, --help       show this help message and exit
  --policy POLICY  artifacts file written by train
  --config CONFIG
""", ""),
    # an argument the command does not take: the full parser's usage
    (["eval", "--policy", "x", "--config", "y", "--bogus"], 2, "",
     _TOP_USAGE + "hyperq: error: unrecognized arguments: --bogus\n"),
    (["oracle"], 2, "", "usage: hyperq oracle [-h] {pcp,boolean-sat} ...\n"
     "hyperq oracle: error: the following arguments are required: subject\n"),
    (["oracle", "pcp", "--help"], 0, """\
usage: hyperq oracle pcp [-h] --dominoes DOMINOES [--max-len MAX_LEN]

options:
  -h, --help           show this help message and exit
  --dominoes DOMINOES
  --max-len MAX_LEN
""", ""),
    (["train", "--help"], 0, """\
usage: hyperq train [-h] --config CONFIG [--out OUT]

options:
  -h, --help       show this help message and exit
  --config CONFIG
  --out OUT        output directory (overrides the config's)
""", ""),
]


@pytest.mark.parametrize("argv, code, out, err", _CLI_TEXT,
                         ids=[" ".join(["hyperq", *argv]) for argv, *_ in _CLI_TEXT])
@pytest.mark.parametrize("via", ["argv", "sys.argv"])
def test_cli_text(capsys, monkeypatch, argv, code, out, err, via):
    # `main(None)` reads sys.argv[1:], as the console script calls it
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["hyperq", *argv] if via == "sys.argv" else ["pytest"])
    with pytest.raises(SystemExit) as exc:
        main(argv if via == "argv" else None)
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


def test_main_reads_sys_argv(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "argv", ["hyperq", "check", str(hq.bundled("formulas/rescue.hltl"))])
    assert main() == 0
    assert capsys.readouterr().out.startswith("formula: forall t1. ")
    missing = tmp_path / "missing.ini"
    monkeypatch.setattr(sys, "argv", ["hyperq", "eval", "--policy", "x", "--config", str(missing)])
    assert main() == 2
    assert capsys.readouterr() == ("", f"config error: config file {missing} does not exist\n")
