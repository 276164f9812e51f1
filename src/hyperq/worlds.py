"""Concrete environments: multi-agent grids, a wildfire rescue grid, a domino
matching game with an exhaustive search oracle, and a shared-resource grid.

Grid conventions: coordinates are (x, y) with y growing upward, moves that hit
a wall or the boundary leave the agent in place, and the scalar cell index
exposed to formulas is column-ordered: ``cell = x * height + y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .env import Environment, JointAction, JointState
from .robustness import Label, Trace


class NonRectangularError(ValueError):
    pass


class UnknownGlyphError(ValueError):
    pass


class MissingStartError(ValueError):
    pass


class InvalidDominoError(ValueError):
    pass


class BoundTooLargeError(ValueError):
    pass


class KindMismatchError(ValueError):
    pass


GRID_ACTIONS = ("stay", "up", "down", "left", "right")
_MOVES = {"stay": (0, 0), "up": (0, 1), "down": (0, -1), "left": (-1, 0), "right": (1, 0)}


# ---------------------------------------------------------------------------
# Maps

@dataclass(frozen=True)
class GridMap:
    width: int
    height: int
    walls: frozenset
    starts: tuple   # per-agent (x, y)
    goals: tuple    # per-agent (x, y)
    special: dict   # (x, y) -> tag string ("resource")

    def in_bounds(self, cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def open_cell(self, cell) -> bool:
        return self.in_bounds(cell) and cell not in self.walls

    def cell_index(self, cell) -> int:
        x, y = cell
        return x * self.height + y


def load_map(text: str) -> GridMap:
    """Parse an ASCII map plus legend.

    Grid glyphs: ``#`` wall, ``.`` free, digits 1..9 agent starts, letters
    tagged cells.  Legend lines follow the grid, one per glyph:
    ``a = goal 2`` or ``r = resource``; a digit glyph may also carry a goal
    tag when one agent starts on another's goal.  Lines starting with ``;``
    are comments.
    """
    grid_lines = []
    legend_lines = []
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith(";"):
            continue
        if "=" in line:
            legend_lines.append(line)
        else:
            grid_lines.append(line)
    if not grid_lines:
        raise NonRectangularError("map has no grid rows")
    width = len(grid_lines[0])
    if any(len(l) != width for l in grid_lines):
        raise NonRectangularError("map rows have differing lengths")
    height = len(grid_lines)

    walls = set()
    starts_by_digit = {}
    glyph_cells = {}
    for row, line in enumerate(grid_lines):
        y = height - 1 - row
        for x, ch in enumerate(line):
            cell = (x, y)
            if ch == "#":
                walls.add(cell)
            elif ch == ".":
                continue
            elif ch.isdigit() and ch != "0":
                if ch in starts_by_digit:
                    raise UnknownGlyphError(f"start glyph {ch!r} appears twice")
                starts_by_digit[ch] = cell
                glyph_cells[ch] = cell
            elif ch.isalpha() and ch.islower():
                glyph_cells[ch] = cell
            else:
                raise UnknownGlyphError(f"unknown map glyph {ch!r}")

    goals_by_agent = {}
    special = {}
    for line in legend_lines:
        glyph, _, rest = line.partition("=")
        glyph = glyph.strip()
        parts = rest.split()
        if glyph not in glyph_cells or not parts:
            raise UnknownGlyphError(f"legend entry {line.strip()!r} matches no grid glyph")
        tag = parts[0]
        if tag == "goal":
            if len(parts) != 2 or not parts[1].isdigit():
                raise UnknownGlyphError(f"goal legend needs an agent number: {line.strip()!r}")
            goals_by_agent[int(parts[1])] = glyph_cells[glyph]
        elif tag == "resource":
            special[glyph_cells[glyph]] = tag
        else:
            raise UnknownGlyphError(f"unknown legend tag {tag!r}")

    n = len(starts_by_digit)
    if n == 0:
        raise MissingStartError("map declares no agent starts")
    if sorted(starts_by_digit) != [str(i) for i in range(1, n + 1)]:
        raise MissingStartError(f"agent start glyphs must be 1..{n}")
    starts = tuple(starts_by_digit[str(i)] for i in range(1, n + 1))
    goals = tuple(goals_by_agent.get(i) for i in range(1, n + 1))
    return GridMap(width, height, frozenset(walls), starts, goals, special)


def load_map_file(path) -> GridMap:
    return load_map(Path(path).read_text(encoding="utf-8"))


def _move(grid: GridMap, cell, action):
    dx, dy = _MOVES[action]
    nxt = (cell[0] + dx, cell[1] + dy)
    return nxt if grid.open_cell(nxt) else cell


# ---------------------------------------------------------------------------
# Two-or-more-agent goal-seeking grid

class GridWorldEnv(Environment):
    """Agents navigate to per-agent goals; collisions are observable.

    Labels per slot: propositions ``goalK`` whenever the slot's agent stands
    on agent K's goal and ``collision`` when it shares a cell; valuations
    ``x``, ``y``, ``cell`` and ``dist`` (Manhattan distance to the own goal).
    Slot state carries a sticky done bit once the own goal has been visited.
    There is one agent per start on the map, and each needs a goal.
    """

    kind = "grid"
    file_key = "map"
    actions = GRID_ACTIONS
    metric_columns = ("total_done", "total_col")

    def __init__(self, grid: GridMap, beta: int = 300):
        missing = [i + 1 for i, g in enumerate(grid.goals) if g is None]
        if missing:
            raise ValueError(f"map gives no goal for agent(s) {missing}")
        self.grid = grid
        self.arity = len(grid.starts)
        self.beta = beta

    def reset(self, seed: int) -> JointState:
        starts = self.grid.starts
        shared = len(set(starts)) < len(starts)
        per = tuple((x, y, False, shared) for x, y in starts)
        return JointState(per, 0)

    def step(self, state: JointState, action: JointAction) -> JointState:
        self.check_step(state)
        self.check_action(action)
        moved = []
        for (x, y, done, col), act in zip(state.per_trace, action.per_trace):
            moved.append(_move(self.grid, (x, y), act))
        shared = {c for c in moved if moved.count(c) > 1}
        per = []
        for i, ((x, y, done, col), cell) in enumerate(zip(state.per_trace, moved)):
            per.append((cell[0], cell[1],
                        done or cell == self.grid.goals[i],
                        col or cell in shared))
        return JointState(tuple(per), state.step_count + 1)

    def label_of(self, state: JointState) -> tuple:
        cells = [(x, y) for x, y, _, _ in state.per_trace]
        shared = {c for c in cells if cells.count(c) > 1}
        labels = []
        for i, cell in enumerate(cells):
            props = {f"goal{k + 1}" for k, g in enumerate(self.grid.goals) if g == cell}
            if cell in shared:
                props.add("collision")
            gx, gy = self.grid.goals[i]
            labels.append(Label(frozenset(props), {
                "x": float(cell[0]),
                "y": float(cell[1]),
                "cell": float(self.grid.cell_index(cell)),
                "dist": float(abs(cell[0] - gx) + abs(cell[1] - gy)),
            }))
        return tuple(labels)

    def episode_stats(self, record) -> dict:
        """Whether every agent visited its goal, and the steps with a shared cell."""
        done = all(flag for _, _, flag, _ in record.states[-1].per_trace)
        collisions = 0
        for s in record.states[1:]:
            cells = [(x, y) for x, y, _, _ in s.per_trace]
            if len(set(cells)) < len(cells):
                collisions += 1
        return {"done": int(done), "collisions": collisions}

    def episode_metrics(self, record, previous: dict) -> dict:
        stats = self.episode_stats(record)
        return {"total_done": previous.get("total_done", 0) + stats["done"],
                "total_col": stats["collisions"]}

    def baseline_reward(self, prev_state, action, next_state) -> float:
        """-5 on a collision, 10 with every agent on its goal, 5 with some."""
        cells = [(x, y) for x, y, _, _ in next_state.per_trace]
        if len(set(cells)) < len(cells):
            return -5.0
        on_goal = sum(1 for i, c in enumerate(cells) if c == self.grid.goals[i])
        if on_goal == len(cells):
            return 10.0
        if on_goal >= 1:
            return 5.0
        return 0.0


# ---------------------------------------------------------------------------
# Wildfire rescue grid

WILDFIRE_ROWS = ("abc", "def", "ghi")  # bottom row first
WILDFIRE_FIRES = ("c", "f", "i")
WILDFIRE_VICTIMS = ("g", "f")


class WildfireEnv(Environment):
    """3x3 rescue scenario: slot 1 extinguishes fires, slot 2 reaches victims.

    Both agents start on cell a.  Fire on a cell goes out permanently once the
    first agent visits it.  Labels expose the cell-name proposition, a
    ``fire`` proposition while standing on a burning cell, and ``loc``/``x``/
    ``y`` valuations.
    """

    kind = "wildfire"
    actions = GRID_ACTIONS
    arity = 2

    def __init__(self, beta: int = 8):
        self.beta = beta
        self.grid = GridMap(3, 3, frozenset(), ((0, 0), (0, 0)), (None, None), {})
        self.cell_names = {}
        for y, row in enumerate(WILDFIRE_ROWS):
            for x, name in enumerate(row):
                self.cell_names[(x, y)] = name
        self.cells_by_name = {v: k for k, v in self.cell_names.items()}

    def reset(self, seed: int) -> JointState:
        start = self.cells_by_name["a"]
        fires = frozenset(WILDFIRE_FIRES)
        per = (
            (start[0], start[1], fires),                    # extinguisher: remaining fires
            (start[0], start[1], frozenset(), False),       # medic: saved victims, entered-fire flag
        )
        return JointState(per, 0)

    def step(self, state: JointState, action: JointAction) -> JointState:
        self.check_step(state)
        self.check_action(action)
        (x1, y1, fires), (x2, y2, saved, early) = state.per_trace
        p1 = _move(self.grid, (x1, y1), action.per_trace[0])
        p2 = _move(self.grid, (x2, y2), action.per_trace[1])
        fires = fires - {self.cell_names[p1]}
        name2 = self.cell_names[p2]
        if name2 in WILDFIRE_VICTIMS:
            if name2 in fires:
                early = True
            else:
                saved = saved | {name2}
        per = ((p1[0], p1[1], fires), (p2[0], p2[1], saved, early))
        return JointState(per, state.step_count + 1)

    def label_of(self, state: JointState) -> tuple:
        fires = state.per_trace[0][2]
        labels = []
        for slot in state.per_trace:
            cell = (slot[0], slot[1])
            name = self.cell_names[cell]
            props = {name}
            if name in fires:
                props.add("fire")
            labels.append(Label(frozenset(props), {
                "loc": float(self.grid.cell_index(cell)),
                "x": float(cell[0]),
                "y": float(cell[1]),
            }))
        return tuple(labels)

    def path_trace(self, cell_names: list) -> Trace:
        """Trace a hand-written path of cell names would produce (fires held
        by the first agent's visits are irrelevant to cell propositions)."""
        labels = []
        for name in cell_names:
            cell = self.cells_by_name[name]
            labels.append(Label(frozenset({name}), {
                "loc": float(self.grid.cell_index(cell)),
                "x": float(cell[0]),
                "y": float(cell[1]),
            }))
        return Trace(tuple(labels))


# ---------------------------------------------------------------------------
# Domino matching game

@dataclass(frozen=True)
class DominoSet:
    """Indexed dominoes, each a pair of nonempty words over a finite alphabet."""

    dominoes: tuple  # of (top, bottom) strings, 1-indexed via position

    def __post_init__(self):
        if not self.dominoes:
            raise InvalidDominoError("a domino set needs at least one domino")
        for top, bot in self.dominoes:
            if not top or not bot:
                raise InvalidDominoError(f"domino ({top!r}, {bot!r}) has an empty word")
            if "#" in top or "#" in bot:
                raise InvalidDominoError("'#' is reserved for termination")

    @property
    def k(self) -> int:
        return len(self.dominoes)


def load_dominoes(text: str) -> DominoSet:
    """One `top|bottom` pair per line; `#` starts a comment line."""
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        top, sep, bot = line.partition("|")
        if not sep:
            raise InvalidDominoError(f"expected 'top|bottom', found {line!r}")
        pairs.append((top.strip(), bot.strip()))
    return DominoSet(tuple(pairs))


def load_domino_file(path) -> DominoSet:
    return load_dominoes(Path(path).read_text(encoding="utf-8"))


def concat_words(dominoes: DominoSet, seq) -> tuple:
    """Independent concatenation of a 1-based index sequence."""
    top = "".join(dominoes.dominoes[i - 1][0] for i in seq)
    bot = "".join(dominoes.dominoes[i - 1][1] for i in seq)
    return top, bot


def _letter_prop(side: str, ch: str) -> str:
    return f"{side}_hash" if ch == "#" else f"{side}_{ch}"


def unroll_words(top: str, bot: str, length: int, terminated: bool) -> Trace:
    """Letter-aligned trace: position i carries the i-th top and bottom letters.

    Past a word's end the position carries '#' once the sequence has
    terminated (the words really are over), and nothing before that (the next
    letters are simply not known yet)."""
    labels = []
    for i in range(length):
        props = set()
        if i < len(top):
            props.add(_letter_prop("top", top[i]))
        elif terminated:
            props.add("top_hash")
        if i < len(bot):
            props.add(_letter_prop("bot", bot[i]))
        elif terminated:
            props.add("bot_hash")
        labels.append(Label(frozenset(props), {}))
    return Trace(tuple(labels))


class PcpEnv(Environment):
    """Two slots independently build domino sequences; traces are the
    letter-aligned unrolling of the accumulated top/bottom words.

    Every known letter is emitted.  A terminated sequence ends both its words
    with '#' and pads with '#' indefinitely, so a short terminated sequence
    zips soundly against a longer one; an unterminated word contributes no
    proposition past its known letters.
    """

    kind = "pcp"
    file_key = "dominoes"
    arity = 2
    metric_columns = ("tot_done",)

    def __init__(self, dominoes: DominoSet, beta: int = 10):
        self.dominoes = dominoes
        self.beta = beta
        self.actions = tuple(f"dom_{i}" for i in range(1, dominoes.k + 1)) + ("dom_#",)

    def reset(self, seed: int) -> JointState:
        return JointState(tuple(((), False) for _ in range(self.arity)), 0)

    def step(self, state: JointState, action: JointAction) -> JointState:
        self.check_step(state)
        self.check_action(action)
        per = []
        for (seq, done), act in zip(state.per_trace, action.per_trace):
            if done:
                per.append((seq, done))
            elif act == "dom_#":
                per.append((seq, True))
            else:
                per.append((seq + (int(act.split("_")[1]),), done))
        return JointState(tuple(per), state.step_count + 1)

    def slot_words(self, slot) -> tuple:
        seq, done = slot
        top, bot = concat_words(self.dominoes, seq)
        if done:
            top += "#"
            bot += "#"
        return top, bot

    def trace_prefix(self, state: JointState) -> tuple:
        words = [self.slot_words(slot) for slot in state.per_trace]
        length = max(len(w) for pair in words for w in pair)
        return tuple(unroll_words(top, bot, length, done)
                     for (top, bot), (_, done) in zip(words, state.per_trace))

    def match_achieved(self, slot) -> bool:
        """Terminated with equal nonempty words."""
        seq, done = slot
        if not done or not seq:
            return False
        top, bot = concat_words(self.dominoes, seq)
        return top == bot

    def episode_metrics(self, record, previous: dict) -> dict:
        match = self.match_achieved(record.states[-1].per_trace[-1])
        return {"tot_done": previous.get("tot_done", 0) + int(match)}

    def baseline_reward(self, prev_state, action, next_state) -> float:
        """Mean over slots of +1 if the step's top and bottom letters agree, else -1."""
        idx = prev_state.step_count
        total = 0.0
        for slot in next_state.per_trace:
            top, bot = self.slot_words(slot)
            t = top[idx] if idx < len(top) else "#"
            b = bot[idx] if idx < len(bot) else "#"
            total += 1.0 if t == b else -1.0
        return total / len(next_state.per_trace)


def pcp_oracle(dominoes: DominoSet, max_len: int):
    """Shortest matching index sequence by breadth-first search, or None.

    Explores sequences in length order; partial sequences whose words already
    disagree on a shared position can never extend to a match and are pruned.
    """
    if max_len > 12:
        raise BoundTooLargeError(f"search bound {max_len} exceeds 12")
    frontier = [((), "", "")]
    for _ in range(max_len):
        nxt = []
        for seq, top, bot in frontier:
            for i in range(1, dominoes.k + 1):
                t = top + dominoes.dominoes[i - 1][0]
                b = bot + dominoes.dominoes[i - 1][1]
                m = min(len(t), len(b))
                if t[:m] != b[:m]:
                    continue
                cand = seq + (i,)
                if t == b:
                    return list(cand)
                nxt.append((cand, t, b))
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# Shared-resource grid

class ResourceEnv(Environment):
    """Agents collect energy by arriving at the single resource cell.

    Energy increments on arrival (moving onto the cell), not while parked on
    it, so sustained collection requires stepping off and back.  The
    ``resource`` proposition marks the arrival step; labels also expose the
    ``energy`` valuation.  There is one agent per start on the map.
    """

    kind = "resource"
    file_key = "map"
    actions = GRID_ACTIONS
    metric_columns = ("min", "max", "avg")

    def __init__(self, grid: GridMap, beta: int = 100):
        resources = [c for c, tag in grid.special.items() if tag == "resource"]
        if len(resources) != 1:
            raise ValueError(f"resource grid needs exactly one resource cell, found {len(resources)}")
        self.grid = grid
        self.resource = resources[0]
        self.arity = len(grid.starts)
        self.beta = beta

    def reset(self, seed: int) -> JointState:
        per = tuple((x, y, 0, False) for x, y in self.grid.starts)
        return JointState(per, 0)

    def step(self, state: JointState, action: JointAction) -> JointState:
        self.check_step(state)
        self.check_action(action)
        res = self.resource
        per = []
        for (x, y, energy, _), act in zip(state.per_trace, action.per_trace):
            nxt = _move(self.grid, (x, y), act)
            arrived = nxt == res and (x, y) != res
            per.append((nxt[0], nxt[1], energy + (1 if arrived else 0), arrived))
        return JointState(tuple(per), state.step_count + 1)

    def label_of(self, state: JointState) -> tuple:
        labels = []
        for x, y, energy, arrived in state.per_trace:
            props = frozenset({"resource"}) if arrived else frozenset()
            labels.append(Label(props, {
                "energy": float(energy),
                "x": float(x),
                "y": float(y),
                "cell": float(self.grid.cell_index((x, y))),
            }))
        return tuple(labels)

    # Tabular key: positions plus the clamped energy gap, not raw energies,
    # so the state space stays bounded over long episodes.  A tight clamp is
    # enough: fair policies keep the gap near zero anyway.
    def encode(self, state: JointState) -> tuple:
        positions = tuple((x, y) for x, y, _, _ in state.per_trace)
        e1 = state.per_trace[0][2]
        e2 = state.per_trace[1][2] if self.arity > 1 else 0
        gap = max(-2, min(2, e1 - e2))
        return (positions, gap)

    def episode_metrics(self, record, previous: dict) -> dict:
        energies = [e for _, _, e, _ in record.states[-1].per_trace]
        return {"min": float(min(energies)), "max": float(max(energies)),
                "avg": sum(energies) / len(energies)}


# ---------------------------------------------------------------------------
# Construction from configuration

ENVIRONMENTS = {cls.kind: cls for cls in (GridWorldEnv, WildfireEnv, PcpEnv, ResourceEnv)}
_LOADERS = {"map": load_map_file, "dominoes": load_domino_file}


def build_env(section: dict, base_dir=None) -> Environment:
    """Instantiate an environment from a flat config section: ``kind``, the
    kind's ``file_key`` (a path relative to `base_dir`) and optionally ``beta``."""
    kind = section.get("kind")
    cls = ENVIRONMENTS.get(kind)
    if cls is None:
        raise KindMismatchError(f"unknown environment kind {kind!r}")
    unknown = sorted(set(section) - {"kind", "beta", cls.file_key})
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)} for environment kind {kind}")
    args = []
    if cls.file_key:
        if cls.file_key not in section:
            raise ValueError(f"environment kind {kind} needs a {cls.file_key} key")
        base = Path(base_dir) if base_dir is not None else Path(".")
        args.append(_LOADERS[cls.file_key](base / section[cls.file_key]))
    kwargs = {}
    if "beta" in section:
        raw = section["beta"]
        try:
            kwargs["beta"] = int(raw)
        except ValueError:
            kwargs["beta"] = 0
        if kwargs["beta"] < 1:
            raise ValueError(f"[environment] beta must be a positive integer, got {raw!r}")
    return cls(*args, **kwargs)
