import inspect
import itertools
import random
from collections import deque

import pytest

import hyperq as hq
from hyperq.env import (
    ArityMismatchError,
    Environment,
    EpisodeRecord,
    InvalidActionError,
    JointAction,
    StateTable,
)
from hyperq.harness import cmd_train
from hyperq.learner import Hyperparams, episode_bound, rollout
from hyperq.robustness import RobustnessConfig, zip_traces
from hyperq.skolem import skolemize
from hyperq.worlds import (
    ENVIRONMENTS,
    WILDFIRE_FIRES,
    BoundTooLargeError,
    DominoSet,
    GridMap,
    GridWorldEnv,
    InvalidDominoError,
    KindMismatchError,
    MissingStartError,
    NonRectangularError,
    PcpEnv,
    ResourceEnv,
    UnknownGlyphError,
    WildfireEnv,
    _move,
    build_env,
    concat_words,
    load_domino_file,
    load_dominoes,
    load_map,
    load_map_file,
    pcp_oracle,
)

from oracles import naive_eval, reference_labels

CFG = RobustnessConfig()


# ---------------------------------------------------------------------------
# map loading

def test_load_open_map():
    grid = load_map("..2\n...\n1..\n\n1 = goal 2\n2 = goal 1\n")
    assert (grid.width, grid.height) == (3, 3)
    assert grid.walls == frozenset()
    assert grid.starts == ((0, 0), (2, 2))
    assert grid.goals == ((2, 2), (0, 0))


def test_load_map_rejects_ragged_rows():
    with pytest.raises(NonRectangularError):
        load_map("..\n...\n1.\n")


def test_load_map_rejects_unknown_glyph():
    with pytest.raises(UnknownGlyphError):
        load_map("1?\n..\n")


def test_load_map_rejects_a_glyph_drawn_twice():
    # one cell per glyph: a second resource or goal cell would be dropped
    for text, glyph in (("1r.\n.r.\n\nr = resource\n", "r"), ("1a\n2a\n\na = goal 1\n", "a"),
                        ("1.\n.1\n", "1")):
        with pytest.raises(UnknownGlyphError, match=f"map glyph '{glyph}' appears twice"):
            load_map(text)


def test_load_map_rejects_goal_of_unknown_agent_and_second_goal():
    assert load_map("1ab\n...\n\na = goal 1\n").goals == ((1, 1),)
    for legend in ("a = goal 1\nb = goal 5", "a = goal 1\nb = goal 1", "a = goal 0"):
        with pytest.raises(UnknownGlyphError):
            load_map(f"1ab\n...\n\n{legend}\n")


def test_load_map_requires_contiguous_starts():
    with pytest.raises(MissingStartError):
        load_map("2.\n..\n")
    with pytest.raises(MissingStartError):
        load_map("..\n..\n")


def _bfs_reachable(grid, start, goal):
    seen, frontier = {start}, deque([start])
    while frontier:
        x, y = frontier.popleft()
        if (x, y) == goal:
            return True
        for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nxt = (x + dx, y + dy)
            if grid.open_cell(nxt) and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


@pytest.mark.parametrize("name,size", [
    ("isr", (9, 10)), ("mit", (17, 7)), ("pentagon", (11, 9)), ("suny", (23, 10)),
])
def test_bundled_benchmark_maps(name, size):
    grid = load_map_file(hq.bundled(f"maps/{name}.map"))
    assert (grid.width, grid.height) == size
    assert len(grid.starts) == 2
    assert all(g is not None for g in grid.goals)
    for agent in (0, 1):
        assert grid.open_cell(grid.starts[agent])
        assert grid.open_cell(grid.goals[agent])
        assert _bfs_reachable(grid, grid.starts[agent], grid.goals[agent]), (name, agent)
    if name in ("mit", "suny"):
        assert grid.starts[0] == grid.goals[1]
        assert grid.starts[1] == grid.goals[0]


def test_cross4_topology():
    grid = load_map_file(hq.bundled("maps/cross4.map"))
    assert grid.starts == ((0, 0), (3, 3))
    assert grid.goals == ((3, 3), (0, 0))


# ---------------------------------------------------------------------------
# grid world

def walled_env():
    grid = load_map("..2\n.#.\n1..\n\n1 = goal 2\n2 = goal 1\n")
    return GridWorldEnv(grid, beta=10)


def test_grid_motion_and_blocking():
    env = walled_env()
    s = env.reset(0)
    s = env.step(s, JointAction(("right", "stay")))
    assert s[0][:2] == (1, 0)
    s = env.step(s, JointAction(("up", "stay")))  # into the wall: stays
    assert s[0][:2] == (1, 0)
    s = env.step(s, JointAction(("down", "stay")))  # off the edge: stays
    assert s[0][:2] == (1, 0)


def test_grid_motion_stays_legal_under_random_actions():
    env = walled_env()
    rng = random.Random(2)
    s = env.reset(0)
    for _ in range(10):
        s = env.step(s, JointAction((rng.choice(env.actions), rng.choice(env.actions))))
        for x, y, _, _ in s:
            assert env.grid.open_cell((x, y))


def test_grid_goal_and_collision_labels():
    env = walled_env()
    s = env.reset(0)
    labels = env.label_of(s)
    assert "goal2" in labels[0].props  # agent 1 starts on agent 2's goal
    assert labels[0].valuations["dist"] == 4.0
    # drive both agents onto (1, 0)
    s = env.step(s, JointAction(("right", "down")))
    s = env.step(s, JointAction(("stay", "down")))
    s = env.step(s, JointAction(("stay", "left")))
    labels = env.label_of(s)
    cells = [(p[0], p[1]) for p in s]
    assert cells[0] == cells[1] == (1, 0)
    assert "collision" in labels[0].props and "collision" in labels[1].props


def test_grid_done_flag_sticky():
    env = walled_env()
    s = env.reset(0)
    for a in (("right", "stay"), ("right", "stay"), ("up", "stay"), ("up", "stay")):
        s = env.step(s, JointAction(a))
    assert s[0][2] is True
    s = env.step(s, JointAction(("down", "stay")))
    assert s[0][2] is True


def test_grid_collision_bit_starts_set_for_shared_starts_only():
    # agents 1 and 2 share a start, agent 3 starts alone: the sticky bit
    # follows the rule `transition` uses for a shared cell
    grid = GridMap(3, 3, frozenset(), ((0, 0), (0, 0), (2, 2)), ((2, 2), (2, 1), (0, 0)), {})
    env = GridWorldEnv(grid, beta=4)
    assert [col for _, _, _, col in env.reset(0)] == [True, True, False]
    s = env.step(env.reset(0), JointAction(("stay", "up", "stay")))
    assert [col for _, _, _, col in s] == [True, True, False]


def test_step_rejects_bad_action():
    # the episode bound is the episode loop's: see
    # test_learner::test_rollout_checks_the_bound_before_reset
    env = walled_env()
    s = env.reset(0)
    with pytest.raises(InvalidActionError):
        env.step(s, JointAction(("jump", "stay")))


def _world_of_kind(kind):
    return {"grid": walled_env, "resource": make_resource, "wildfire": lambda: WildfireEnv(8),
            "pcp": lambda: PcpEnv(DominoSet((("a", "ab"), ("b", "a"))))}[kind]()


@pytest.mark.parametrize("kind", sorted(ENVIRONMENTS))
def test_step_rejects_bad_actions_after_valid_ones_are_known(kind):
    env = _world_of_kind(kind)
    s = env.reset(0)
    valid = set(itertools.product(env.actions, repeat=env.arity))
    for joint in sorted(valid):
        env.step(s, JointAction(joint))
    assert env.valid_actions == valid
    first = env.actions[0]
    for _ in range(2):   # a rejected tuple is not remembered
        with pytest.raises(InvalidActionError):
            env.step(s, JointAction(("jump",) + (first,) * (env.arity - 1)))
        for arity in (env.arity - 1, env.arity + 1):
            with pytest.raises(ArityMismatchError):
                env.step(s, JointAction((first,) * arity))
    assert env.valid_actions == valid


@pytest.mark.parametrize("kind", sorted(ENVIRONMENTS))
def test_worlds_define_transition_and_inherit_step(kind):
    cls = ENVIRONMENTS[kind]
    assert cls.step is Environment.step
    assert cls.transition is not Environment.transition


class _Counter(Environment):
    """A minimal world: each slot counts the steps its action was 'inc'."""

    kind = "counter"
    actions = ("inc", "hold")
    arity = 2
    beta = 2

    def transition(self, state, joint):
        return tuple(n + (act == "inc") for n, act in zip(state, joint))


def test_base_step_checks_actions_before_transition():
    # step counts no steps: the episode loop keeps the bound (see
    # test_learner::test_rollout_checks_the_bound_before_reset)
    env = _Counter()
    s = env.step((0, 0), JointAction(("inc", "hold")))
    assert s == (1, 0)
    assert env.valid_actions == {("inc", "hold")}
    for _ in range(2):   # a rejected tuple is not remembered
        with pytest.raises(InvalidActionError):
            env.step(s, JointAction(("inc", "jump")))
        with pytest.raises(ArityMismatchError):
            env.step(s, JointAction(("inc",)))
    assert env.valid_actions == {("inc", "hold")}
    s = env.step(s, JointAction(("inc", "inc")))
    assert s == (2, 1)
    assert env.step(s, JointAction(("inc", "inc"))) == (3, 2)   # past beta: no bound here


def test_step_does_not_mutate_input_state():
    env = walled_env()
    s = env.reset(0)
    before = s
    env.step(s, JointAction(("right", "left")))
    assert s == before


def test_reset_deterministic():
    env = walled_env()
    assert env.reset(7) == env.reset(7)


# ---------------------------------------------------------------------------
# wildfire

def test_wildfire_reset_both_at_a():
    env = WildfireEnv()
    s = env.reset(3)
    assert s[0][:2] == (0, 0) and s[1][:2] == (0, 0)
    labs = env.label_of(s)
    assert "a" in labs[0].props and "a" in labs[1].props


def test_wildfire_cell_indexing_column_major():
    env = WildfireEnv()
    expected = {"a": 0, "d": 1, "g": 2, "b": 3, "e": 4, "h": 5, "c": 6, "f": 7, "i": 8}
    for name, idx in expected.items():
        cell = env.cells_by_name[name]
        assert env.grid.cell_index(cell) == idx


def test_wildfire_fire_goes_out_after_first_agent_visit():
    env = WildfireEnv()
    s = env.reset(0)
    assert s[0][2] == frozenset({"c", "f", "i"})
    # agent 1 walks a -> b -> c (a burning cell)
    s = env.step(s, JointAction(("right", "stay")))
    s = env.step(s, JointAction(("right", "stay")))
    assert s[0][2] == frozenset({"f", "i"})
    labs = env.label_of(s)
    assert "c" in labs[0].props and "fire" not in labs[0].props


def test_wildfire_victim_bookkeeping():
    env = WildfireEnv()
    s = env.reset(0)
    # agent 2 reaches g (safe victim) while agent 1 idles
    for a in (("stay", "up"), ("stay", "up")):
        s = env.step(s, JointAction(a))
    assert "g" in s[1][2]
    assert s[1][3] is False


def test_wildfire_early_fire_entry_flagged():
    env = WildfireEnv()
    s = env.reset(0)
    # agent 2 runs straight into burning f: a -> b -> c -> f
    for a in (("stay", "right"), ("stay", "right"), ("stay", "up")):
        s = env.step(s, JointAction(a))
    assert s[1][3] is True


def test_wildfire_optimal_paths_satisfy_objective():
    env = WildfireEnv()
    f = hq.load_formula(hq.bundled("formulas/rescue.hltl"))
    sk = skolemize(f)
    p1 = env.path_trace(list("adefcfi"))
    p2 = env.path_trace(list("adghef") + ["f"])
    assert hq.eval_hyper([p1, p2], sk, CFG) > 0


def test_wildfire_early_entry_violates_objective():
    env = WildfireEnv()
    f = hq.load_formula(hq.bundled("formulas/rescue.hltl"))
    sk = skolemize(f)
    p1 = env.path_trace(list("adefcfi"))
    bad = env.path_trace(list("abcfhef"))  # reaches f before agent 1 does
    assert hq.eval_hyper([p1, bad], sk, CFG) < 0


# ---------------------------------------------------------------------------
# domino game

def test_domino_set_validation(tmp_path, capsys):
    with pytest.raises(InvalidDominoError):
        DominoSet((("", "a"),))
    with pytest.raises(InvalidDominoError):
        DominoSet((("a#", "a"),))
    with pytest.raises(InvalidDominoError):
        load_dominoes("ab\n")
    # each letter is part of a proposition name such as bot_<letter>
    assert load_dominoes("aZ_9|b\n").dominoes == (("aZ_9", "b"),)
    for text in ("a|b|c", "a b|a", "a|b-c", "a|\u00e4", "a|a.b"):
        with pytest.raises(InvalidDominoError, match="domino 2 .* has letter"):
            load_dominoes(f"a|a\n{text}\n")
    dom = tmp_path / "bar.dom"
    dom.write_text("a|aa\na|b|c\n")
    cfg = tmp_path / "bar.ini"
    cfg.write_text(f"[experiment]\nformula = {hq.bundled('formulas/pcp_ab.hltl')}\n"
                   f"output_dir = {tmp_path / 'bar'}\n[hyperparams]\nxi = 2\n"
                   f"[environment]\nkind = pcp\ndominoes = {dom}\n")
    assert cmd_train(cfg) == 2
    assert capsys.readouterr().err == (f"config error: domino file {dom}: domino 2 ('a', 'b|c') "
                                       "has letter '|'; letters are A-Z, a-z, 0-9 and _\n")
    assert not (tmp_path / "bar").exists()


def test_pcp_words_match_independent_concatenation():
    d = load_domino_file(hq.bundled("dominoes/k3_solvable.dom"))
    env = PcpEnv(d)
    rng = random.Random(5)
    s = env.reset(0)
    for _ in range(6):
        s = env.step(s, JointAction(tuple(rng.choice(env.actions) for _ in range(2))))
    for slot in s:
        seq, done = slot
        top = "".join(d.dominoes[i - 1][0] for i in seq)
        bot = "".join(d.dominoes[i - 1][1] for i in seq)
        expect = (top + "#", bot + "#") if done else (top, bot)
        assert env.slot_words(slot) == expect


def test_pcp_single_identity_domino_matches():
    env = PcpEnv(DominoSet((("a", "a"),)))
    s = env.reset(0)
    s = env.step(s, JointAction(("dom_1", "dom_1")))
    s = env.step(s, JointAction(("dom_#", "dom_#")))
    assert env.match_achieved(s[1]) is True


def test_pcp_terminated_slot_ignores_further_actions():
    env = PcpEnv(DominoSet((("a", "a"),)))
    s = env.reset(0)
    s = env.step(s, JointAction(("dom_#", "dom_1")))
    s = env.step(s, JointAction(("dom_1", "dom_1")))
    assert s[0] == ((), True)
    assert s[1][0] == (1, 1)


def test_pcp_unbalanced_set_never_matches():
    env = PcpEnv(DominoSet((("ab", "a"),)))
    rng = random.Random(9)
    for _ in range(50):
        s = env.reset(0)
        for _ in range(8):
            s = env.step(s, JointAction(tuple(rng.choice(env.actions) for _ in range(2))))
        assert not env.match_achieved(s[0])
        assert not env.match_achieved(s[1])


def test_pcp_empty_termination_is_not_a_match():
    env = PcpEnv(DominoSet((("a", "a"),)))
    s = env.reset(0)
    s = env.step(s, JointAction(("dom_#", "dom_#")))
    assert env.match_achieved(s[1]) is False


def _letter_props(env, state):
    """Per slot, the props of each position, unrolled letter by letter."""
    words = [env.slot_words(slot) for slot in state]
    length = max(len(w) for pair in words for w in pair)
    out = []
    for (top, bot), (_, done) in zip(words, state):
        trace = []
        for i in range(length):
            props = set()
            for side, word in (("top", top), ("bot", bot)):
                if i < len(word):
                    props.add(f"{side}_hash" if word[i] == "#" else f"{side}_{word[i]}")
                elif done:
                    props.add(f"{side}_hash")
            trace.append(frozenset(props))
        out.append(trace)
    return out


def test_pcp_shared_letter_labels_unroll_like_letters():
    # every pcp-k3 state reachable in 4 steps: trace_prefix gives the
    # letter-by-letter props through shared labels, one label object per
    # distinct props
    env = PcpEnv(load_domino_file(hq.bundled("dominoes/k3_solvable.dom")))
    joint = [JointAction((a, b)) for a in env.actions for b in env.actions]
    level = {(): env.reset(0)}
    by_props, steps = {}, 0
    for _ in range(4):
        following = {}
        for state in level.values():
            for action in joint:
                nxt = env.step(state, action)
                following.setdefault(nxt, nxt)
                slots = env.trace_prefix(nxt)
                assert [[label.props for label in t] for t in slots] == _letter_props(env, nxt)
                for label in (label for t in slots for label in t):
                    assert by_props.setdefault(label.props, label) is label
                steps += 1
        level = following
    assert len(level) > 1000 and steps > 10000


def test_pcp_labels_stay_shared_over_several_steps():
    # every two-slot k3 action sequence of up to 3 joint steps: a state's
    # trace_prefix holds the very label of each earlier state of the
    # sequence wherever their props agree, so rescoring a state from
    # position 0 meets the labels, and their props, that it met before
    env = PcpEnv(load_domino_file(hq.bundled("dominoes/k3_solvable.dom")))
    joint = [JointAction((a, b)) for a in env.actions for b in env.actions]
    pairs = 0
    stack = [[env.reset(0)]]
    while stack:
        history = stack.pop()
        state = history[-1]
        slots = env.trace_prefix(state)
        assert [[label.props for label in t] for t in slots] == _letter_props(env, state)
        for prev in history[:-1]:
            assert all(a is b for old, new in zip(env.trace_prefix(prev), slots, strict=True)
                       for a, b in zip(old, new) if a.props == b.props), (prev, state)
            pairs += 1
        if len(history) <= 3:
            for action in joint:
                stack.append(history + [env.step(state, action)])
    assert pairs == 16 * 1 + 16 ** 2 * 2 + 16 ** 3 * 3


@pytest.mark.parametrize("name", ["k3_solvable", "k5_solvable"])
def test_pcp_rewards_match_naive_oracle(name):
    # random domino episodes in which each slot terminates at a random step:
    # every per-step reward equals the naive oracle on the world's one-shot
    # prefix of that step (a short beta, since the oracle's time grows with
    # the cube of the prefix length)
    env = PcpEnv(load_domino_file(hq.bundled(f"dominoes/{name}.dom")), beta=6)
    sk = skolemize(hq.load_formula(hq.bundled("formulas/pcp_ab.hltl")))
    rng = random.Random(name)
    dominoes = env.actions[:-1]
    index = StateTable.of(env, sk, CFG).index

    def choose(t, i):
        t += 1
        return index[tuple("dom_#" if t == end else rng.choice(dominoes) for end in ends)]

    for _ in range(16):
        # the step at which each slot plays '#', past the episode for some
        ends = [rng.randint(1, env.beta + 2) for _ in range(env.arity)]
        record = rollout(env, sk, CFG, choose, 0, env.beta)
        for t, (state, rho) in enumerate(zip(record.states[1:], record.rhos), start=1):
            assert [done for _, done in state] == [t >= end for end in ends]
            z = zip_traces(env.trace_prefix(state))
            assert rho == naive_eval(z, 0, len(z), sk.body, CFG), (t, rho)
        assert record.traces == list(env.trace_prefix(record.states[-1]))


def test_pcp_oracle_identity():
    assert pcp_oracle(DominoSet((("a", "a"),)), 4) == [1]


def test_pcp_oracle_unsolvable_returns_none():
    assert pcp_oracle(DominoSet((("ab", "a"),)), 8) is None
    d = load_domino_file(hq.bundled("dominoes/k3_unsolvable.dom"))
    assert pcp_oracle(d, 8) is None


def test_pcp_oracle_bundled_k_sets():
    for name in ("k3_solvable", "k5_solvable", "k6_solvable"):
        d = load_domino_file(hq.bundled(f"dominoes/{name}.dom"))
        sol = pcp_oracle(d, 6)
        assert sol is not None and len(sol) <= 5
        top, bot = concat_words(d, sol)
        assert top == bot


def test_pcp_oracle_returns_shortest():
    # two solutions exist: [1] and [2, 2]; breadth-first finds [1]
    d = DominoSet((("a", "a"), ("ab", "ab")))
    assert pcp_oracle(d, 4) == [1]


def test_pcp_oracle_bound_check():
    for bound in (13, 0, -3):
        with pytest.raises(BoundTooLargeError):
            pcp_oracle(DominoSet((("a", "a"),)), bound)


# ---------------------------------------------------------------------------
# resource grid

def make_resource():
    return ResourceEnv(load_map_file(hq.bundled("maps/fair4.map")), beta=20)


def test_resource_requires_single_resource_cell():
    for special in ({}, {(0, 1): "resource", (1, 1): "resource"}):
        grid = GridMap(3, 3, frozenset(), ((0, 0), (2, 2)), (None, None), special)
        with pytest.raises(ValueError):
            ResourceEnv(grid)


def test_resource_energy_increments_on_arrival_only():
    env = make_resource()
    s = env.reset(0)
    # agent 1: (0,0) -> (1,0) -> (2,0) -> (2,1) = resource
    for a in ("right", "right", "up"):
        s = env.step(s, JointAction((a, "stay")))
    assert s[0][2] == 1
    assert "resource" in env.label_of(s)[0].props
    # parking on the cell earns nothing further
    s = env.step(s, JointAction(("stay", "stay")))
    assert s[0][2] == 1
    assert "resource" not in env.label_of(s)[0].props
    # stepping off and back earns again
    s = env.step(s, JointAction(("down", "stay")))
    s = env.step(s, JointAction(("up", "stay")))
    assert s[0][2] == 2


def test_resource_energy_never_decreases():
    env = make_resource()
    rng = random.Random(4)
    s = env.reset(0)
    prev = [0, 0]
    for _ in range(env.beta):
        s = env.step(s, JointAction(tuple(rng.choice(env.actions) for _ in range(2))))
        energies = [p[2] for p in s]
        assert all(e >= p for e, p in zip(energies, prev))
        prev = energies


def test_resource_labels_expose_energy_valuation():
    env = make_resource()
    labs = env.label_of(env.reset(0))
    assert labs[0].valuations["energy"] == 0.0


# ---------------------------------------------------------------------------
# move and label tables

BUNDLED_MAPS = ("cross4", "fair4", "isr", "mit", "pentagon", "suny")


def bundled_map_env(name, beta=300):
    grid = load_map_file(hq.bundled(f"maps/{name}.map"))
    cls = ResourceEnv if "resource" in grid.special.values() else GridWorldEnv
    return cls(grid, beta=beta)


@pytest.mark.parametrize("name", BUNDLED_MAPS)
def test_step_moves_like_move_on_every_open_cell(name):
    env = bundled_map_env(name)
    grid = env.grid
    start = env.reset(0)
    for x in range(grid.width):
        for y in range(grid.height):
            if not grid.open_cell((x, y)):
                continue
            # every agent on (x, y), whatever other slot fields the world keeps
            state = tuple((x, y) + slot[2:] for slot in start)
            for act in env.actions:
                nxt = env.step(state, JointAction((act,) * env.arity))
                expected = _move(grid, (x, y), act)
                assert all(slot[:2] == expected for slot in nxt), (x, y, act)


def _label_key(env, state, i):
    """The observation that the `worlds` module docstring says keys slot i's
    label in `env`'s label table."""
    slot = state[i]
    cell = (slot[0], slot[1])
    if isinstance(env, GridWorldEnv):
        return (i, cell, [(s[0], s[1]) for s in state].count(cell) > 1)
    if isinstance(env, ResourceEnv):
        return slot
    return (*cell, env.cell_names[cell] in state[0][2])


def _walk_labels(env, seed, episodes=3):
    """Label every state of random episodes; check each joint state's column
    against the field-by-field reference, that one key always yields one
    label object and one joint state one column (the one tuple a
    `StateTable` keeps per id), and that the grid's episode statistics count
    the steps whose reference labels show a collision.  Returns the slot
    labels seen, as (slot, state, label) triples."""
    rng = random.Random(seed)
    shared = {}
    columns = {}
    seen = []
    quantifiers = " ".join(f"forall t{k}." for k in range(1, env.arity + 1))
    sk = skolemize(hq.parse_formula(f"{quantifiers} G a@t1"))
    table = StateTable(env, sk, RobustnessConfig(100.0))
    for _ in range(episodes):
        s = env.reset(0)
        i = table.start(s)
        record = EpisodeRecord(states=[s])
        for t in range(env.beta + 1):
            labels = env.label_of(s)
            assert labels == reference_labels(env, s)
            first = columns.setdefault(s, table.columns[i])
            assert first is table.columns[i] and first == labels
            for k, label in enumerate(labels):
                assert first[k] is label
                assert shared.setdefault(_label_key(env, s, k), label) is label
                seen.append((k, s, label))
            if t == env.beta:
                break
            action = JointAction(tuple(rng.choice(env.actions) for _ in range(env.arity)))
            s = env.step(s, action)
            i = table.intern(s)
            record.states.append(s)
        if isinstance(env, GridWorldEnv):
            collided = [any("collision" in label.props for label in reference_labels(env, s))
                        for s in record.states[1:]]
            assert env.episode_stats(record)["collisions"] == sum(collided)
    return seen


def test_grid_labels_match_reference_and_are_shared():
    seen = []
    for name in ("cross4", "isr", "mit", "pentagon", "suny"):
        seen += _walk_labels(bundled_map_env(name, beta=200), seed=name)
    collided = {"collision" in label.props for _, _, label in seen}
    on_goal = {any(p.startswith("goal") for p in label.props) for _, _, label in seen}
    assert collided == {True, False} and on_goal == {True, False}


def test_resource_labels_match_reference_and_are_shared():
    seen = _walk_labels(bundled_map_env("fair4", beta=200), seed=5)
    assert {"resource" in label.props for _, _, label in seen} == {True, False}
    assert max(label.valuations["energy"] for _, _, label in seen) >= 3


def test_wildfire_labels_match_reference_and_are_shared():
    env = WildfireEnv(beta=60)
    seen = _walk_labels(env, seed=6, episodes=6)
    on_fire_cell = [label for i, s, label in seen
                    if env.cell_names[s[i][:2]] in WILDFIRE_FIRES]
    # standing on a fire cell while it burns, and after it is put out
    assert {"fire" in label.props for label in on_fire_cell} == {True, False}
    medic_on_c = {label.props for i, s, label in seen if i == 1 and s[1][:2] == (2, 0)}
    assert medic_on_c == {frozenset({"c", "fire"}), frozenset({"c"})}


# ---------------------------------------------------------------------------
# baseline rewards

def test_saferl_baseline_cases():
    env = walled_env()
    both = ((2, 2, True, False), (0, 0, True, False))
    one = ((2, 2, True, False), (1, 1, False, False))
    collide = ((1, 1, False, True), (1, 1, False, True))
    nothing = ((0, 1, False, False), (1, 1, False, False))
    assert env.baseline_reward(0, both) == 10.0
    assert env.baseline_reward(0, one) == 5.0
    assert env.baseline_reward(0, collide) == -5.0
    assert env.baseline_reward(0, nothing) == 0.0


def test_pcp_baseline_letter_agreement():
    d = DominoSet((("a", "a"), ("ab", "b")))
    env = PcpEnv(d)
    s0 = env.reset(0)
    s1 = env.step(s0, JointAction(("dom_1", "dom_2")))
    # index 0: slot 1 agrees (a/a): +1; slot 2 disagrees (a/b): -1
    assert env.baseline_reward(0, s1) == 0.0


def test_baseline_kind_mismatch():
    env = walled_env()
    sk = skolemize(hq.load_formula(hq.bundled("formulas/safe_rl.hltl")))
    assert episode_bound(env, sk, Hyperparams(reward_mode="baseline")) == env.beta
    rescue = skolemize(hq.load_formula(hq.bundled("formulas/rescue.hltl")))
    with pytest.raises(KindMismatchError):
        episode_bound(WildfireEnv(), rescue, Hyperparams(reward_mode="baseline"))
    for family in ("baseline_saferl", "baseline_pcp", "baseline_nonsense"):
        with pytest.raises(ValueError):
            Hyperparams(reward_mode=family)


# ---------------------------------------------------------------------------
# construction from config sections

def test_build_env_kinds(tmp_path, capsys):
    base = hq.bundled("configs")
    files = {"grid": "../maps/cross4.map", "resource": "../maps/fair4.map",
             "pcp": "../dominoes/k3_solvable.dom"}
    for kind, cls in ENVIRONMENTS.items():
        section = {"kind": kind}
        if cls.file_key:
            section[cls.file_key] = files[kind]
        default = build_env(section, base)
        assert type(default) is cls and default.kind == kind
        assert default.beta == inspect.signature(cls).parameters["beta"].default
        assert build_env(dict(section, beta="6"), base).beta == 6
    assert set(ENVIRONMENTS) == {"grid", "wildfire", "pcp", "resource"}
    assert build_env({"kind": "grid", "map": "../maps/cross4.map"}, base).arity == 2
    assert build_env({"kind": "pcp", "dominoes": files["pcp"]}, base).actions[-1] == "dom_#"
    with pytest.raises(KindMismatchError):
        build_env({"kind": "venus"}, base)
    for kind, key in (("grid", "map"), ("resource", "map"), ("pcp", "dominoes")):
        with pytest.raises(ValueError, match=f"needs a {key} key"):
            build_env({"kind": kind}, base)
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(f"[experiment]\nformula = {hq.bundled('formulas/pcp_ab.hltl')}\n"
                       f"output_dir = {tmp_path / kind}\n[environment]\nkind = {kind}\n")
        assert cmd_train(cfg) == 2
        assert capsys.readouterr().err == \
            f"config error: environment kind {kind} needs a {key} key\n"
        assert not (tmp_path / kind).exists()
    for raw in ("eight", "0", "-4"):
        with pytest.raises(ValueError, match=r"\[environment\] beta must be a positive integer"):
            build_env({"kind": "wildfire", "beta": raw}, base)
        cfg = tmp_path / "beta.ini"
        cfg.write_text(f"[experiment]\nformula = {hq.bundled('formulas/rescue.hltl')}\n"
                       f"output_dir = {tmp_path / 'beta'}\n[environment]\nkind = wildfire\n"
                       f"beta = {raw}\n")
        assert cmd_train(cfg) == 2
        assert capsys.readouterr().err == \
            f"config error: [environment] beta must be a positive integer, got '{raw}'\n"
        assert not (tmp_path / "beta").exists()
