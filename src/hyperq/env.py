"""Black-box multi-trace environment interface.

An environment advances one opaque state per trace slot under a joint action
and exposes only reset/step/label observations; transition dynamics stay
hidden from learners.  All bundled environments are deterministic given the
reset seed, so stochasticity enters only through exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .robustness import Label, Trace


class EpisodeExhaustedError(RuntimeError):
    pass


class InvalidActionError(ValueError):
    pass


class ArityMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class JointState:
    """One opaque per-slot state per trace plus the step counter."""

    per_trace: tuple
    step_count: int = 0


@dataclass(frozen=True)
class JointAction:
    per_trace: tuple


@dataclass
class EpisodeRecord:
    """Everything one episode produced: states, actions, traces, robustness."""

    states: list = field(default_factory=list)      # visited JointStates, length steps+1
    actions: list = field(default_factory=list)     # joint action tuples, length steps
    traces: list = field(default_factory=list)      # one Trace per slot
    rhos: list = field(default_factory=list)        # robustness after each step
    terminal_rho: float = 0.0
    seed: int = 0

    @property
    def steps(self) -> int:
        return len(self.actions)


class Environment:
    """Base class; concrete worlds implement the hidden dynamics.

    `actions` is the per-slot action alphabet (shared by all slots), `arity`
    the number of trace slots, and `beta` the episode length bound.
    `metric_columns` are the training CSV columns between ``episode`` and
    ``rho``.  A world with a hand-crafted comparison reward names it in
    `baseline` and implements `baseline_reward(prev_state, action, next_state)`.
    """

    kind = "abstract"
    actions: tuple = ()
    arity: int = 0
    beta: int = 0
    metric_columns: tuple = ()
    baseline: str | None = None

    def reset(self, seed: int) -> JointState:
        raise NotImplementedError

    def step(self, state: JointState, action: JointAction) -> JointState:
        raise NotImplementedError

    def label_of(self, state: JointState) -> tuple:
        raise NotImplementedError

    # Slot states double as tabular learning keys.
    def encode(self, state: JointState) -> tuple:
        return state.per_trace

    def trace_prefix(self, state: JointState):
        """Per-slot traces for the episode so far, or None when the trace is
        simply the per-step label sequence."""
        return None

    def episode_metrics(self, record: EpisodeRecord, previous: dict) -> dict:
        """Values of `metric_columns` for a finished episode; `previous` is the
        row of the episode before (empty for the first), for running totals."""
        return {}

    def check_action(self, action: JointAction):
        if len(action.per_trace) != self.arity:
            raise ArityMismatchError(
                f"joint action has {len(action.per_trace)} slots, environment has {self.arity}")
        for a in action.per_trace:
            if a not in self.actions:
                raise InvalidActionError(f"unknown action {a!r}")

    def check_step(self, state: JointState):
        if state.step_count >= self.beta:
            raise EpisodeExhaustedError(f"episode length bound {self.beta} reached")
