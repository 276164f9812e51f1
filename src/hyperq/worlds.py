"""Concrete environments: multi-agent grids, a wildfire rescue grid, a domino
matching game with an exhaustive search oracle, and a shared-resource grid.

Grid conventions: coordinates are (x, y) with y growing upward, moves that hit
a wall or the boundary leave the agent in place, and the scalar cell index
exposed to formulas is column-ordered: ``cell = x * height + y``.

Each world defines its dynamics as `transition`; `Environment.step` checks
the episode bound and the joint action around it.  A run steps once per
joint state and joint action it meets, and labels or scores each joint state
once: its `StateTable` keeps the successors and the label column (the
robustness, in the domino game) of each joint state, so the worlds keep no
table keyed on joint states.

The grid worlds look moves and labels up rather than rebuild them.  Each
grid world instance keeps two `LazyTable`s (see `_GridWorld`), dicts that
make a missing entry from its key on first use, so they fill only as states
are visited.  The move table maps ``(x, y, action)`` to the cell `_move`
leads to.  The label table maps a slot's observation to one shared `Label`:
``(slot index, cell, collision)`` in the goal-seeking grid, the slot state
``(x, y, energy, arrived)`` in the resource grid and ``(x, y, burning)`` in
the wildfire grid.  The domino game keeps one module-wide table of labels
per letter pair, and per instance the words and labels of the episode's
slots (see `PcpEnv`).  Since labels are shared, nothing may mutate one.
"""

from __future__ import annotations

import string
import sys
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

from .env import Environment, JointState
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
            if int(parts[1]) in goals_by_agent:
                raise UnknownGlyphError(f"agent {parts[1]} has a second goal: {line.strip()!r}")
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
    unknown = sorted(set(goals_by_agent) - set(range(1, n + 1)))
    if unknown:
        raise UnknownGlyphError(f"goal legend names agent {unknown[0]}, but the map has {n}")
    starts = tuple(starts_by_digit[str(i)] for i in range(1, n + 1))
    goals = tuple(goals_by_agent.get(i) for i in range(1, n + 1))
    return GridMap(width, height, frozenset(walls), starts, goals, special)


def load_map_file(path) -> GridMap:
    return load_map(Path(path).read_text(encoding="utf-8"))


def _move(grid: GridMap, cell, action):
    dx, dy = _MOVES[action]
    nxt = (cell[0] + dx, cell[1] + dy)
    return nxt if grid.open_cell(nxt) else cell


class LazyTable(dict):
    """A dict whose missing value `make(key)` makes, stores and returns."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _GridWorld(Environment):
    """What the grid worlds share: one agent per start of `grid`, moving by
    `GRID_ACTIONS`, the move table and the label table of the subclass's
    `_label`."""

    actions = GRID_ACTIONS

    def __init__(self, grid: GridMap, beta: int):
        super().__init__()
        self.grid = grid
        self.beta = beta
        self.arity = len(grid.starts)
        self.moves = LazyTable(lambda key: _move(grid, key[:2], key[2]))
        self.labels = LazyTable(self._label)


# ---------------------------------------------------------------------------
# Two-or-more-agent goal-seeking grid

class GridWorldEnv(_GridWorld):
    """Agents navigate to per-agent goals; collisions are observable.

    Labels per slot: propositions ``goalK`` whenever the slot's agent stands
    on agent K's goal and ``collision`` when it shares a cell; valuations
    ``x``, ``y``, ``cell`` and ``dist`` (Manhattan distance to the own goal).
    Slot state carries a sticky done bit once the own goal has been visited.
    There is one agent per start on the map, and each needs a goal.
    """

    kind = "grid"
    file_key = "map"
    metric_columns = ("total_done", "total_col")

    def __init__(self, grid: GridMap, beta: int = 300):
        missing = [i + 1 for i, g in enumerate(grid.goals) if g is None]
        if missing:
            raise ValueError(f"map gives no goal for agent(s) {missing}")
        super().__init__(grid, beta)

    def reset(self, seed: int) -> JointState:
        starts = self.grid.starts
        shared = len(set(starts)) < len(starts)
        per = tuple((x, y, False, shared) for x, y in starts)
        return JointState(per, 0)

    def transition(self, per_trace: tuple, joint: tuple) -> tuple:
        moves = self.moves
        moved = [moves[x, y, act] for (x, y, _, _), act in zip(per_trace, joint)]
        goals = self.grid.goals
        return tuple([(cell[0], cell[1], done or cell == goals[i], col or moved.count(cell) > 1)
                      for i, ((_, _, done, col), cell) in enumerate(zip(per_trace, moved))])

    def label_of(self, state: JointState) -> tuple:
        cells = [(x, y) for x, y, _, _ in state.per_trace]
        labels = self.labels
        return tuple([labels[i, cell, cells.count(cell) > 1] for i, cell in enumerate(cells)])

    def _label(self, key) -> Label:
        i, cell, collision = key
        props = {f"goal{k + 1}" for k, g in enumerate(self.grid.goals) if g == cell}
        if collision:
            props.add("collision")
        gx, gy = self.grid.goals[i]
        return Label(frozenset(props), {
            "x": float(cell[0]),
            "y": float(cell[1]),
            "cell": float(self.grid.cell_index(cell)),
            "dist": float(abs(cell[0] - gx) + abs(cell[1] - gy)),
        })

    def episode_stats(self, record) -> dict:
        """Whether every agent visited its goal, and the steps with a shared cell."""
        done = all(flag for _, _, flag, _ in record.slot_states[-1])
        collisions = 0
        for per_trace in record.slot_states[1:]:
            collisions += len({(x, y) for x, y, _, _ in per_trace}) < len(per_trace)
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


class WildfireEnv(_GridWorld):
    """3x3 rescue scenario: slot 1 extinguishes fires, slot 2 reaches victims.

    Both agents start on cell a.  Fire on a cell goes out permanently once the
    first agent visits it.  Labels expose the cell-name proposition, a
    ``fire`` proposition while standing on a burning cell, and ``loc``/``x``/
    ``y`` valuations.
    """

    kind = "wildfire"

    def __init__(self, beta: int = 8):
        super().__init__(GridMap(3, 3, frozenset(), ((0, 0), (0, 0)), (None, None), {}), beta)
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

    def transition(self, per_trace: tuple, joint: tuple) -> tuple:
        (x1, y1, fires), (x2, y2, saved, early) = per_trace
        a1, a2 = joint
        p1 = self.moves[x1, y1, a1]
        p2 = self.moves[x2, y2, a2]
        fires = fires - {self.cell_names[p1]}
        name2 = self.cell_names[p2]
        if name2 in WILDFIRE_VICTIMS:
            if name2 in fires:
                early = True
            else:
                saved = saved | {name2}
        return (p1[0], p1[1], fires), (p2[0], p2[1], saved, early)

    def label_of(self, state: JointState) -> tuple:
        fires = state.per_trace[0][2]
        names, labels = self.cell_names, self.labels
        return tuple([labels[slot[0], slot[1], names[slot[0], slot[1]] in fires]
                      for slot in state.per_trace])

    def _label(self, key) -> Label:
        x, y, burning = key
        props = {self.cell_names[x, y]}
        if burning:
            props.add("fire")
        return Label(frozenset(props), {
            "loc": float(self.grid.cell_index((x, y))),
            "x": float(x),
            "y": float(y),
        })

    def path_trace(self, cell_names: list) -> Trace:
        """Trace a hand-written path of cell names would produce, with no cell
        burning (fire is irrelevant to cell propositions)."""
        return Trace(tuple(self.labels[(*self.cells_by_name[name], False)] for name in cell_names))


# ---------------------------------------------------------------------------
# Domino matching game

DOMINO_LETTERS = frozenset(string.ascii_letters + string.digits + "_")


@dataclass(frozen=True)
class DominoSet:
    """Indexed dominoes, each a pair of nonempty words over a finite alphabet."""

    dominoes: tuple  # of (top, bottom) strings, 1-indexed via position

    def __post_init__(self):
        if not self.dominoes:
            raise InvalidDominoError("a domino set needs at least one domino")
        for i, (top, bot) in enumerate(self.dominoes, start=1):
            if not top or not bot:
                raise InvalidDominoError(f"domino {i} ({top!r}, {bot!r}) has an empty word")
            if "#" in top or "#" in bot:
                raise InvalidDominoError(f"domino {i} ({top!r}, {bot!r}): "
                                         "'#' is reserved for termination")
            # each letter becomes part of a proposition name (top_<letter>)
            bad = sorted(set(top + bot) - DOMINO_LETTERS)
            if bad:
                raise InvalidDominoError(f"domino {i} ({top!r}, {bot!r}) has letter {bad[0]!r}; "
                                         "letters are A-Z, a-z, 0-9 and _")

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


def _letter_label(key) -> Label:
    props = frozenset(_letter_prop(side, ch) for side, ch in zip(("top", "bot"), key) if ch)
    return Label(props, {})


# (top letter, bottom letter) -> the shared `Label` of a position that carries
# them, '' standing for no letter and '#' for a terminated word
_LETTER_LABELS = LazyTable(_letter_label)


def _unroll(top: str, bot: str, terminated: bool) -> list:
    """Labels of a slot's positions up to its longer word's end: position i
    carries the i-th top and bottom letters.  Past the shorter word's end the
    position carries '#' once the sequence has terminated (the words really
    are over), and nothing before that (the next letters are simply not known
    yet)."""
    pad = "#" if terminated else ""
    return list(map(_LETTER_LABELS.__getitem__, zip_longest(top, bot, fillvalue=pad)))


# terminated -> the label of a position past both of a slot's words
_PADS = {False: _LETTER_LABELS["", ""], True: _LETTER_LABELS["#", "#"]}


class PcpEnv(Environment):
    """Two slots independently build domino sequences; traces are the
    letter-aligned unrolling (`_unroll`) of the accumulated top/bottom words.

    Every known letter is emitted.  A terminated sequence ends both its words
    with '#' and pads with '#' indefinitely, so a short terminated sequence
    zips soundly against a longer one; an unterminated word contributes no
    proposition past its known letters.  Positions with the same letters
    share one label.

    A step appends one domino or a '#' to a slot's words, so it rewrites the
    zipped prefix from the old end of that slot's shorter word on.  That end
    never moves back along a slot's history, so over several steps the
    rewrite starts at the end in the oldest state; `trace_delta` reports
    that position and the columns from there.  The words of the episode's
    slots are kept, each built from its parent's.
    """

    kind = "pcp"
    file_key = "dominoes"
    arity = 2
    metric_columns = ("tot_done",)

    def __init__(self, dominoes: DominoSet, beta: int = 10):
        super().__init__()
        self.dominoes = dominoes
        self.beta = beta
        self.actions = tuple(f"dom_{i}" for i in range(1, dominoes.k + 1)) + ("dom_#",)
        self.domino_index = {f"dom_{i}": i for i in range(1, dominoes.k + 1)}
        self._start = JointState(tuple(((), False) for _ in range(self.arity)), 0)
        self._clear_words()

    def _clear_words(self):
        # slot -> (top, bottom, labels, parted): the slot's words, the labels
        # of its positions up to the longer word's end, and where its words
        # part (the shorter one's length).  Cleared at each reset, so that it
        # holds one episode's slots.
        self.words = {((), False): ("", "", [], 0)}

    def reset(self, seed: int) -> JointState:
        self._clear_words()
        return self._start

    def transition(self, per_trace: tuple, joint: tuple) -> tuple:
        per = []
        for slot, act in zip(per_trace, joint):
            seq, done = slot
            if done:
                per.append(slot)
            elif act == "dom_#":
                per.append((seq, True))
            else:
                per.append((seq + (self.domino_index[act],), False))
        return tuple(per)

    def _entry(self, slot) -> tuple:
        """The slot's `words` entry, made from its nearest kept ancestor's."""
        entry = self.words.get(slot)
        if entry is None:
            missing = []
            while entry is None:
                missing.append(slot)
                seq, done = slot
                slot = (seq, False) if done else (seq[:-1], False)
                entry = self.words.get(slot)
            for slot in reversed(missing):
                seq, done = slot
                top, bot, labels, parted = entry
                add_top, add_bot = ("#", "#") if done else self.dominoes.dominoes[seq[-1] - 1]
                top, bot = top + add_top, bot + add_bot
                labels = labels[:parted] + _unroll(top[parted:], bot[parted:], done)
                entry = (top, bot, labels, min(len(top), len(bot)))
                self.words[slot] = entry
        return entry

    def slot_words(self, slot) -> tuple:
        """The slot's (top, bottom) words, '#'-ended once it terminated."""
        return self._entry(slot)[:2]

    def trace_delta(self, prev: JointState, state: JointState) -> tuple:
        """(lo, columns[lo:]) for `state`, a later state of `prev`'s episode:
        lo is the lowest position of the zipped prefix that the steps between
        them rewrote, and the columns (one tuple of labels per position) are
        those of `state`'s prefix from lo on."""
        words, entry = self.words, self._entry
        lo, old_n, n = sys.maxsize, 0, 0
        new = []
        for before, slot in zip(prev.per_trace, state.per_trace):
            got = words.get(before) or entry(before)
            if len(got[2]) > old_n:
                old_n = len(got[2])
            if slot != before:
                if got[3] < lo:
                    lo = got[3]
                got = words.get(slot) or entry(slot)
            if len(got[2]) > n:
                n = len(got[2])
            new.append((got[2], _PADS[slot[1]]))
        if old_n < lo:
            lo = old_n
        per_slot = []
        for labels, pad in new:
            tail = labels[lo:]
            tail += [pad] * (n - lo - len(tail))
            per_slot.append(tail)
        return lo, list(zip(*per_slot))

    def trace_prefix(self, state: JointState) -> tuple:
        _, columns = self.trace_delta(self._start, state)
        return tuple(Trace([column[i] for column in columns]) for i in range(self.arity))

    def match_achieved(self, slot) -> bool:
        """Terminated with equal nonempty words."""
        seq, done = slot
        if not done or not seq:
            return False
        top, bot = self.slot_words(slot)
        return top == bot

    def episode_metrics(self, record, previous: dict) -> dict:
        match = self.match_achieved(record.slot_states[-1][-1])
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
    if not 1 <= max_len <= 12:
        raise BoundTooLargeError(f"search bound {max_len} outside 1..12")
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

class ResourceEnv(_GridWorld):
    """Agents collect energy by arriving at the single resource cell.

    Energy increments on arrival (moving onto the cell), not while parked on
    it, so sustained collection requires stepping off and back.  The
    ``resource`` proposition marks the arrival step; labels also expose the
    ``energy`` valuation.  There is one agent per start on the map.
    """

    kind = "resource"
    file_key = "map"
    metric_columns = ("min", "max", "avg")

    def __init__(self, grid: GridMap, beta: int = 100):
        resources = [c for c, tag in grid.special.items() if tag == "resource"]
        if len(resources) != 1:
            raise ValueError(f"resource grid needs exactly one resource cell, found {len(resources)}")
        super().__init__(grid, beta)
        self.resource = resources[0]

    def reset(self, seed: int) -> JointState:
        per = tuple((x, y, 0, False) for x, y in self.grid.starts)
        return JointState(per, 0)

    def transition(self, per_trace: tuple, joint: tuple) -> tuple:
        res, moves = self.resource, self.moves
        per = []
        for (x, y, energy, _), act in zip(per_trace, joint):
            nxt = moves[x, y, act]
            arrived = nxt == res and (x, y) != res
            per.append((nxt[0], nxt[1], energy + (1 if arrived else 0), arrived))
        return tuple(per)

    def label_of(self, state: JointState) -> tuple:
        return tuple(map(self.labels.__getitem__, state.per_trace))

    def _label(self, slot) -> Label:
        x, y, energy, arrived = slot
        props = frozenset({"resource"}) if arrived else frozenset()
        return Label(props, {
            "energy": float(energy),
            "x": float(x),
            "y": float(y),
            "cell": float(self.grid.cell_index((x, y))),
        })

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
        energies = [e for _, _, e, _ in record.slot_states[-1]]
        return {"min": float(min(energies)), "max": float(max(energies)),
                "avg": sum(energies) / len(energies)}


# ---------------------------------------------------------------------------
# Construction from configuration

ENVIRONMENTS = {cls.kind: cls for cls in (GridWorldEnv, WildfireEnv, PcpEnv, ResourceEnv)}
# each file key's noun and loader
_LOADERS = {"map": ("map", load_map_file), "dominoes": ("domino", load_domino_file)}


def _reason(exc: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read, without the path an OSError repeats."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8: {exc.reason}"
    return exc.strerror or str(exc)


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
        path = base / section[cls.file_key]
        noun, load = _LOADERS[cls.file_key]
        try:
            args.append(load(path))
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"{noun} file {path} cannot be read: {_reason(exc)}") from exc
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
