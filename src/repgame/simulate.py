"""Forward simulation of equilibrium automata and deviation probes.

The automata module certifies subgame perfection through closed-form state
values.  This module provides the complementary view: explicit trajectories.
``run`` rolls an automaton forward period by period (optionally injecting
scripted deviations), ``deviation_gain`` measures the exact discounted
consequence of a single deviation, and ``profitability_scan`` re-derives the
one-shot deviation check from truncated discounted sums only, so the two
certifications share no valuation code.

scipy is imported at its one use site (``lfilter`` in the suffix scan).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .automata import (SPE_GAIN_TOL, Automaton, State, StateValues,
                       _best_deviations, _worst_cell, state_values)
from .games import StageGame

# the suffix scan's truncation error bound, and the periods a deviation
# rollout simulates before closing with the state values
SUFFIX_ERR = 1e-10
ROLLOUT_HORIZON = 128


@dataclass(frozen=True)
class DeviationPlan:
    """A scripted unilateral deviation: ``user`` plays ``action`` at period ``t``."""
    t: int
    user: int
    action: float


@dataclass(frozen=True, eq=False)
class Trace:
    """Realized play: states visited, actions taken and stage payoffs."""
    delta: float
    states: list
    a0: np.ndarray        # (T, a0_dim)
    actions: np.ndarray   # (T, n)
    payoffs: np.ndarray   # (T, n)

    def __len__(self) -> int:
        return self.actions.shape[0]

    def discounted_average(self) -> np.ndarray:
        """(1-delta) sum_t delta^t u_t over the recorded horizon.

        The truncation error relative to infinite play is at most
        delta^T * max|u|, so record long enough for the tolerance at hand.
        """
        T = len(self)
        w = (1.0 - self.delta) * self.delta ** np.arange(T)
        return w @ self.payoffs

    def to_csv(self, path) -> None:
        n = self.actions.shape[1]
        d0 = self.a0.shape[1]
        header = (["t", "state"] + [f"a0_{k}" for k in range(d0)]
                  + [f"a_{i}" for i in range(n)] + [f"u_{i}" for i in range(n)])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t in range(len(self)):
                writer.writerow([t, repr(self.states[t])]
                                + [f"{x:.12g}" for x in self.a0[t]]
                                + [f"{x:.12g}" for x in self.actions[t]]
                                + [f"{x:.12g}" for x in self.payoffs[t]])


def run(game: StageGame, automaton: Automaton, delta: float, T: int,
        deviations: tuple[DeviationPlan, ...] = ()) -> Trace:
    """Roll the automaton forward ``T`` periods.

    Scripted deviations overwrite the prescribed action of one user for one
    period; the automaton reacts through its own transition rule.  The
    intervention device is part of the machine and never deviates.
    """
    overrides: dict[int, list[DeviationPlan]] = {}
    for plan in deviations:
        overrides.setdefault(plan.t, []).append(plan)
    states = []
    a0_rows = np.empty((T, game.a0_dim))
    a_rows = np.empty((T, game.n))
    u_rows = np.empty((T, game.n))
    state: State = automaton.initial_state
    for t in range(T):
        a0, a = automaton.output(state)
        a = np.array(a, dtype=float, copy=True)
        for plan in overrides.get(t, ()):
            a[plan.user] = plan.action
        states.append(state)
        a0_rows[t] = a0
        a_rows[t] = a
        u_rows[t] = game.payoff(a0, a)
        state = automaton.transition(state, a)
    return Trace(delta=delta, states=states, a0=a0_rows, actions=a_rows,
                 payoffs=u_rows)


def _rollout_value(game: StageGame, automaton: Automaton, delta: float,
                   state: State, override: tuple[int, float] | None,
                   tail: StateValues) -> np.ndarray:
    """Discounted value of play from ``state``, exact via a tail closure."""
    total = np.zeros(game.n)
    for t in range(ROLLOUT_HORIZON):
        a0, a = automaton.output(state)
        if t == 0 and override is not None:
            a = np.array(a, dtype=float, copy=True)
            a[override[0]] = override[1]
        total += (1.0 - delta) * delta ** t * game.payoff(a0, a)
        state = automaton.transition(state, a)
    return total + delta ** ROLLOUT_HORIZON * tail[state]


def deviation_gain(game: StageGame, automaton: Automaton, delta: float,
                   state: State, user: int, action: float | None = None) -> float:
    """Exact discounted gain to ``user`` from a one-shot deviation at ``state``.

    Both the compliant and the deviating trajectory are simulated forward
    ``ROLLOUT_HORIZON`` periods and closed with the automaton's state
    values, so the number is exact (up to rounding) rather than truncated.
    ``action`` defaults to the stage best response against the prescribed
    profile.
    """
    a0, a = automaton.output(state)
    if action is None:
        action = game.best_response(user, a0, a)
    sv = state_values(game, automaton, delta)
    v_comply = _rollout_value(game, automaton, delta, state, None, sv)
    v_dev = _rollout_value(game, automaton, delta, state, (user, float(action)), sv)
    return float(v_dev[user] - v_comply[user])


@dataclass(frozen=True, eq=False)
class ScanReport:
    ok: bool
    worst_gain: float
    state: State | None
    user: int | None
    n_states: int
    horizon: int
    gains: np.ndarray     # (n_states, n) one-shot deviation gains in layout order, an (n, S).T

    def __str__(self):
        verdict = "no profitable deviation" if self.ok else "PROFITABLE deviation"
        return (f"{verdict}: worst gain {self.worst_gain:.3g} over "
                f"{self.n_states} states (suffix horizon {self.horizon})")


def _truncated_state_values(automaton: Automaton, delta: float, u: np.ndarray,
                            horizon: int) -> np.ndarray:
    """Per-state discounted values from explicit truncated suffix sums.

    Path states are valued in one backward AR(1) pass over the path extended
    ``horizon`` periods into its cycle; punishment states accumulate their
    finite block explicitly and defer to the exit value; absorbing states use
    the truncated geometric sum of their constant stage payoff.  ``u`` holds
    the stage payoffs of every layout position user-major, ``(n, S)``, and so
    does the result.
    """
    from scipy.signal import lfilter
    W = np.empty_like(u)
    K, cs = automaton.path_len, automaton.cycle_start
    laps = -(-horizon // (K - cs))   # whole cycles covering the horizon
    full = np.concatenate([u[:, :K], np.tile(u[:, cs:K], laps)[:, :horizon]], axis=1)
    W[:, :K] = lfilter([1.0 - delta], [1.0, -delta], full[:, ::-1])[:, ::-1][:, :K]
    W[:, K:] = (1.0 - delta ** horizon) * u[:, K:]   # absorbing; spells are overwritten below
    if automaton.kind != "grim":
        lay = automaton.layout
        value = W[:, lay.nxt[lay.spells[-1]]]   # column i: value after i's last period
        for k in lay.spells[::-1]:
            value = (1.0 - delta) * u[:, k] + delta * value
            W[:, k] = value
    return W


def profitability_scan(game: StageGame, automaton: Automaton, delta: float,
                       grid_points: int = 200) -> ScanReport:
    """One-shot deviation scan valued by truncated suffix sums only.

    Independent counterpart of ``verify_spe``: the deviation search is the
    same (analytic best response plus a dense grid, once per distinct
    profile) but every continuation is valued by explicitly accumulating
    at most ``horizon`` discounted periods, with ``horizon`` chosen from
    the payoffs the states play so the truncation error stays below
    ``SUFFIX_ERR``.  It passes when no deviation gains more than
    ``SPE_GAIN_TOL``; agreement between the two reports certifies the
    closed-form state values.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"discount factor must lie in (0, 1), got {delta}")
    lay = automaton.layout
    U = game.payoff_batch(automaton.table_a0, automaton.table_a)
    scale = max(1.0, float(np.max(np.abs(U[np.bincount(lay.row, minlength=len(U)) > 0]))))
    horizon = int(np.ceil(np.log(SUFFIX_ERR / scale) / np.log(delta))) + 1
    W = _truncated_state_values(automaton, delta, np.take(U.T, lay.row, axis=1), horizon)
    d, _ = _best_deviations(game, automaton.table_a0, automaton.table_a, grid_points)
    users = np.arange(game.n)
    gains = ((1.0 - delta) * np.take((d - U).T, lay.row, axis=1)
             + delta * (W[users, lay.pun][:, None] - np.take(W, lay.nxt, axis=1))).T
    k, i = _worst_cell(gains)
    worst = float(gains[k, i])
    return ScanReport(ok=worst <= SPE_GAIN_TOL, worst_gain=worst, state=automaton.state_at(k),
                      user=i, n_states=automaton.n_states, horizon=horizon, gains=gains)
