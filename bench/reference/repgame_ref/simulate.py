"""Forward simulation of equilibrium automata and deviation probes.

The automata module certifies subgame perfection through closed-form state
values.  This module provides the complementary view: explicit trajectories.
``run`` rolls an automaton forward period by period (optionally injecting
scripted deviations), ``deviation_gain`` measures the exact discounted
consequence of a single deviation, and ``profitability_scan`` re-derives the
one-shot deviation check from truncated discounted sums only, so the two
certifications share no valuation code.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .automata import SPE_GAIN_TOL, Automaton, State, _deviation_payoffs_grid, state_values
from .games import StageGame


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
                   horizon: int, tail: dict) -> np.ndarray:
    """Discounted value of play from ``state``, exact via a tail closure."""
    total = np.zeros(game.n)
    for t in range(horizon):
        a0, a = automaton.output(state)
        if t == 0 and override is not None:
            a = np.array(a, dtype=float, copy=True)
            a[override[0]] = override[1]
        total += (1.0 - delta) * delta ** t * game.payoff(a0, a)
        state = automaton.transition(state, a)
    return total + delta ** horizon * tail[state]


def deviation_gain(game: StageGame, automaton: Automaton, delta: float,
                   state: State, user: int, action: float | None = None,
                   horizon: int = 128) -> float:
    """Exact discounted gain to ``user`` from a one-shot deviation at ``state``.

    Both the compliant and the deviating trajectory are simulated forward and
    closed with the automaton's state values, so the number is exact (up to
    rounding) rather than truncated.  ``action`` defaults to the stage best
    response against the prescribed profile.
    """
    a0, a = automaton.output(state)
    if action is None:
        action = game.best_response(user, a0, a)
    sv = state_values(game, automaton, delta).values
    v_comply = _rollout_value(game, automaton, delta, state, None, horizon, sv)
    v_dev = _rollout_value(game, automaton, delta, state, (user, float(action)),
                           horizon, sv)
    return float(v_dev[user] - v_comply[user])


@dataclass(frozen=True, eq=False)
class ScanReport:
    ok: bool
    worst_gain: float
    state: State | None
    user: int | None
    n_states: int
    horizon: int
    tol: float
    gains: np.ndarray     # (n_states, n) one-shot deviation gains
    states: list

    def __str__(self):
        verdict = "no profitable deviation" if self.ok else "PROFITABLE deviation"
        return (f"{verdict}: worst gain {self.worst_gain:.3g} over "
                f"{self.n_states} states (suffix horizon {self.horizon})")


def _truncated_state_values(game: StageGame, automaton: Automaton, delta: float,
                            states: list, U: np.ndarray, horizon: int) -> np.ndarray:
    """Per-state discounted values from explicit truncated suffix sums.

    Path states are valued in one backward AR(1) pass over the path extended
    ``horizon`` periods into its cycle; punishment states accumulate their
    finite block explicitly and defer to the exit value; absorbing states use
    the truncated geometric sum of their constant stage payoff.
    """
    idx = {s: k for k, s in enumerate(states)}
    W = np.empty((len(states), game.n))
    K, cs = automaton.path_len, automaton.cycle_start
    u_path = U[:K]
    ext = cs + (np.arange(horizon) % (K - cs)) if K > cs else np.zeros(horizon, dtype=int)
    full = np.concatenate([u_path, u_path[ext]], axis=0)
    suffix = lfilter([1.0 - delta], [1.0, -delta], full[::-1], axis=0)[::-1]
    W[:K] = suffix[:K]
    if automaton.kind == "grim":
        k = idx[("punish_abs",)]
        W[k] = (1.0 - delta ** horizon) * U[k]
        return W
    for i in range(game.n):
        if automaton.kind == "player_specific":
            kr = idx[("reward", i)]
            W[kr] = (1.0 - delta ** horizon) * U[kr]
            exit_value = W[kr]
        else:
            exit_value = W[idx[("path", 0)]]
        u_pun = U[idx[("punish", i, 0)]]
        value = exit_value
        for l in range(automaton.L - 1, -1, -1):
            value = (1.0 - delta) * u_pun + delta * value
            W[idx[("punish", i, l)]] = value
    return W


def profitability_scan(game: StageGame, automaton: Automaton, delta: float,
                       grid_points: int = 200, tol: float = SPE_GAIN_TOL,
                       suffix_err: float = 1e-10) -> ScanReport:
    """One-shot deviation scan valued by truncated suffix sums only.

    Independent counterpart of ``verify_spe``: the deviation search is the
    same (analytic best response plus a dense grid) but every continuation is
    valued by explicitly accumulating at most ``horizon`` discounted periods,
    with ``horizon`` chosen so the truncation error stays below
    ``suffix_err``.  Agreement between the two reports certifies the
    closed-form state values.
    """
    states = automaton.reachable_states()
    idx = {s: k for k, s in enumerate(states)}
    a0_arr = np.array([automaton.output(s)[0] for s in states])
    a_arr = np.array([automaton.output(s)[1] for s in states])
    U = game.payoff_batch(a0_arr, a_arr)
    scale = max(1.0, float(np.max(np.abs(U))))
    horizon = int(np.ceil(np.log(suffix_err / scale) / np.log(delta))) + 1
    W = _truncated_state_values(game, automaton, delta, states, U, horizon)
    next_idx = np.array([idx[automaton.next_on_path(s)] for s in states])

    gains = np.empty((len(states), game.n))
    worst = (-np.inf, None, None)
    for i in range(game.n):
        pun = idx[automaton.punish_entry(i)]
        br = game.best_response_batch(i, a0_arr, a_arr)
        a_br = a_arr.copy()
        a_br[:, i] = br
        d_br = game.payoff_batch(a0_arr, a_br)[:, i]
        grid = np.linspace(0.0, game.a_max[i], grid_points)
        d_grid = np.max(_deviation_payoffs_grid(game, i, a0_arr, a_arr, grid), axis=1)
        d = np.maximum(d_br, d_grid)
        gains[:, i] = ((1.0 - delta) * (d - U[:, i])
                       + delta * (W[pun, i] - W[next_idx, i]))
        k = int(np.argmax(gains[:, i]))
        if gains[k, i] > worst[0]:
            worst = (float(gains[k, i]), states[k], i)
    return ScanReport(ok=worst[0] <= tol, worst_gain=worst[0], state=worst[1],
                      user=worst[2], n_states=len(states), horizon=horizon,
                      tol=tol, gains=gains, states=states)
