"""Strategy automata for the repeated game and their equilibrium checks.

Three automaton families are implemented, all built around a target path
(a finite profile sequence entering a cycle) plus punishment machinery:

* ``grim`` -- any observed mismatch sends play to an absorbing mutual
  minmax profile.  Credible exactly when that profile is a stage Nash
  equilibrium, which intervention can arrange.
* ``finite_minmax`` -- a unilateral deviation triggers ``L`` periods of
  mutual minmax (with the deviator held to a best response) after which
  play restarts at the beginning of the path.
* ``player_specific`` -- a unilateral deviation by ``i`` triggers ``L``
  periods of ``i``-targeted minmax followed by an absorbing reward
  profile that treats the punishers better than the punished.

States are plain tuples: ``("path", t)``, ``("punish", i, l)``,
``("punish_abs",)`` and ``("reward", i)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.signal import lfilter

from .games import (ActionProfile, StageGame, max_stage_payoff,
                    minmax, minmax_values, mutual_minmax)

State = tuple

#: an automaton is subgame perfect when no one-shot deviation gains more
SPE_GAIN_TOL = 1e-9


class AutomatonError(ValueError):
    """Raised when an automaton cannot be built from the given pieces."""


def _profiles_to_arrays(game: StageGame, profiles) -> tuple[np.ndarray, np.ndarray]:
    a0s, acts = [], []
    for p in profiles:
        if isinstance(p, ActionProfile):
            a0, a = p.a0, p.a
        else:
            a0, a = p
        a0, a = game.validate_profile(a0, a)
        a0s.append(a0)
        acts.append(a)
    return np.array(a0s), np.array(acts)


@dataclass(frozen=True, eq=False)
class Automaton:
    """Finite-state machine mapping public history to joint actions."""

    kind: str
    n: int
    path_a0: np.ndarray
    path_a: np.ndarray
    cycle_start: int
    L: int | None = None
    punish_a0: np.ndarray | None = None   # (n, a0_dim), row i = device action vs i
    punish_a: np.ndarray | None = None    # (n, n), row i = user profile vs i
    reward_a0: np.ndarray | None = None
    reward_a: np.ndarray | None = None
    abs_a0: np.ndarray | None = None      # grim absorbing profile
    abs_a: np.ndarray | None = None

    @property
    def path_len(self) -> int:
        return self.path_a.shape[0]

    @property
    def initial_state(self) -> State:
        return ("path", 0)

    def output(self, state: State) -> tuple[np.ndarray, np.ndarray]:
        tag = state[0]
        if tag == "path":
            t = state[1]
            return self.path_a0[t], self.path_a[t]
        if tag == "punish":
            i = state[1]
            return self.punish_a0[i], self.punish_a[i]
        if tag == "punish_abs":
            return self.abs_a0, self.abs_a
        if tag == "reward":
            i = state[1]
            return self.reward_a0[i], self.reward_a[i]
        raise KeyError(f"unknown state {state!r}")

    def next_on_path(self, state: State) -> State:
        """Successor state when everyone complies."""
        tag = state[0]
        if tag == "path":
            t = state[1] + 1
            return ("path", t if t < self.path_len else self.cycle_start)
        if tag == "punish":
            i, l = state[1], state[2] + 1
            if l < self.L:
                return ("punish", i, l)
            if self.kind == "player_specific":
                return ("reward", i)
            return ("path", 0)
        # absorbing states
        return state

    def punish_entry(self, deviator: int) -> State:
        if self.kind == "grim":
            return ("punish_abs",)
        return ("punish", deviator, 0)

    def transition(self, state: State, a_realized) -> State:
        """Next state given realized user actions (the device never deviates).

        Deviators are detected by exact comparison against the prescribed
        profile.  The grim machine restarts punishment on any mismatch;
        the other two react to unilateral deviations only and ignore
        simultaneous ones.
        """
        a = np.asarray(a_realized, dtype=float)
        _, prescribed = self.output(state)
        deviators = np.nonzero(a != prescribed)[0]
        if self.kind == "grim":
            if deviators.size > 0:
                return self.punish_entry(int(deviators[0]))
        elif deviators.size == 1:
            return self.punish_entry(int(deviators[0]))
        return self.next_on_path(state)

    def reachable_states(self) -> list[State]:
        states: list[State] = [("path", t) for t in range(self.path_len)]
        if self.kind == "grim":
            states.append(("punish_abs",))
        else:
            for i in range(self.n):
                states.extend(("punish", i, l) for l in range(self.L))
            if self.kind == "player_specific":
                states.extend(("reward", i) for i in range(self.n))
        return states


def _fmt(arr) -> str:
    return "[" + " ".join(format(float(x), ".6g") for x in np.atleast_1d(arr)) + "]"


def describe(automaton: Automaton) -> str:
    """Human-readable rendering of states, outputs and transition rules."""
    a = automaton
    lines = [f"automaton kind={a.kind} users={a.n} path_len={a.path_len} "
             f"cycle_start={a.cycle_start}" + (f" L={a.L}" if a.L is not None else "")]
    for t in range(a.path_len):
        a0, act = a.output(("path", t))
        lines.append(f"  path[{t}]: a0={_fmt(a0)} a={_fmt(act)}")
    if a.kind == "grim":
        lines.append(f"  punish(absorbing): a0={_fmt(a.abs_a0)} a={_fmt(a.abs_a)}")
        lines.append("  rule: any mismatch with the prescribed profile -> punish")
    else:
        for i in range(a.n):
            lines.append(f"  punish[user {i}] x{a.L}: a0={_fmt(a.punish_a0[i])} "
                         f"a={_fmt(a.punish_a[i])}")
        if a.kind == "player_specific":
            for i in range(a.n):
                lines.append(f"  reward[user {i}] (absorbing): a0={_fmt(a.reward_a0[i])} "
                             f"a={_fmt(a.reward_a[i])}")
            lines.append("  rule: unilateral deviation by i -> punish[i] for L periods,"
                         " then reward[i]")
        else:
            lines.append("  rule: unilateral deviation by i -> punish[i] for L periods,"
                         " then restart the path")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_minmax_automaton(game: StageGame, path_profiles: Sequence, L: int | None,
                           cycle_start: int = 0) -> Automaton:
    """Target-path automaton punishing with the mutual minmax profile.

    ``L=None`` builds the grim variant (absorbing punishment), which
    requires the mutual minmax profile to be a stage Nash equilibrium.
    Finite ``L`` holds the deviator to a best response while everyone
    else, device included, plays their maximum for ``L`` periods.
    """
    path_a0, path_a = _profiles_to_arrays(game, path_profiles)
    if not (0 <= cycle_start < path_a.shape[0]):
        raise AutomatonError(f"cycle_start {cycle_start} outside path of length {path_a.shape[0]}")
    mm = mutual_minmax(game)
    if L is None:
        if not mm.is_stage_nash:
            raise AutomatonError(
                "grim punishment needs the mutual minmax profile to be a stage Nash "
                f"equilibrium (worst deviation gain {mm.worst_gain:.3g})")
        return Automaton(kind="grim", n=game.n, path_a0=path_a0, path_a=path_a,
                         cycle_start=cycle_start, abs_a0=mm.profile.a0, abs_a=mm.profile.a)
    if L < 1:
        raise AutomatonError("punishment length L must be at least 1")
    pun_a0 = np.tile(mm.profile.a0, (game.n, 1))
    pun_a = np.tile(mm.profile.a, (game.n, 1))
    for i in range(game.n):
        pun_a[i, i] = game.best_response(i, mm.profile.a0, mm.profile.a)
    return Automaton(kind="finite_minmax", n=game.n, path_a0=path_a0, path_a=path_a,
                     cycle_start=cycle_start, L=int(L), punish_a0=pun_a0, punish_a=pun_a)


def build_player_specific_automaton(game: StageGame, path_profiles: Sequence, L: int,
                                    reward_profiles: Sequence,
                                    cycle_start: int = 0) -> Automaton:
    """Automaton with player-specific punishments and absorbing rewards.

    ``reward_profiles[i]`` is played forever once ``i``'s punishment ends;
    the construction requires the usual ordering: everyone likes the path
    better than their own reward phase, and likes punishing better than
    being punished (``v_j(reward j') > v_j(reward j)`` for ``j' != j``).
    """
    if L is None or L < 1:
        raise AutomatonError("player-specific punishment needs a finite L >= 1")
    path_a0, path_a = _profiles_to_arrays(game, path_profiles)
    if not (0 <= cycle_start < path_a.shape[0]):
        raise AutomatonError(f"cycle_start {cycle_start} outside path of length {path_a.shape[0]}")
    rew_a0, rew_a = _profiles_to_arrays(game, reward_profiles)
    if rew_a.shape[0] != game.n:
        raise AutomatonError("need one reward profile per user")
    pun_a0 = np.empty((game.n, game.a0_dim))
    pun_a = np.empty((game.n, game.n))
    for i in range(game.n):
        mm = minmax(game, i, with_intervention=True)
        pun_a0[i] = mm.profile.a0
        pun_a[i] = mm.profile.a
    # ordering precondition on discounted-average-relevant stage payoffs
    path_u = game.payoff_batch(path_a0, path_a)
    v_path_min = path_u.min(axis=0)
    rew_u = game.payoff_batch(rew_a0, rew_a)  # row i = payoffs in i's reward phase
    own = np.diagonal(rew_u)
    for i in range(game.n):
        if not v_path_min[i] > own[i]:
            raise AutomatonError(
                f"user {i} must strictly prefer the path to their own reward phase")
        for j in range(game.n):
            if j != i and not rew_u[i, j] > own[j]:
                raise AutomatonError(
                    f"user {j} must strictly prefer rewarding (phase {i}) to being "
                    "the rewarded deviator")
    return Automaton(kind="player_specific", n=game.n, path_a0=path_a0, path_a=path_a,
                     cycle_start=cycle_start, L=int(L), punish_a0=pun_a0, punish_a=pun_a,
                     reward_a0=rew_a0, reward_a=rew_a)


# ---------------------------------------------------------------------------
# state values
# ---------------------------------------------------------------------------

@dataclass
class StateValues:
    """Discounted average payoff vector promised at each automaton state."""

    delta: float
    values: dict

    def __getitem__(self, state: State) -> np.ndarray:
        return self.values[state]

    def as_array(self, states: Sequence[State]) -> np.ndarray:
        return np.array([self.values[s] for s in states])


def path_values(u_path: np.ndarray, cs: int, delta: float) -> np.ndarray:
    """Values ``V[t] = (1-delta) u[t] + delta V[t+1]`` of a preamble entering
    the cycle ``cs..K-1``: the cycle-entry value is a finite geometric sum, then
    two backward AR(1) passes seeded with ``delta V[cs]`` fill the cycle tail
    (whose last period wraps to the entry) and the preamble ``0..cs-1``."""
    K = u_path.shape[0]
    disc = delta ** np.arange(K - cs)
    V = np.empty_like(u_path)
    V[cs] = (1.0 - delta) / (1.0 - delta ** (K - cs)) * (disc[:, None] * u_path[cs:]).sum(axis=0)
    zi = delta * V[cs][None, :]
    for lo, hi in ((cs + 1, K), (0, cs)):
        if hi > lo:
            V[lo:hi] = lfilter([1.0 - delta], [1.0, -delta], u_path[lo:hi][::-1],
                               axis=0, zi=zi)[0][::-1]
    return V


def state_values(game: StageGame, automaton: Automaton, delta: float) -> StateValues:
    """Exact state values from the cycle structure (no fixed-point iteration).

    The path is a preamble plus a cycle, so the cycle-entry value is a
    finite geometric sum and everything else follows by one-step backward
    recursion; punishment phases have closed-form values.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"discount factor must lie in (0, 1), got {delta}")
    a = automaton
    V = path_values(game.payoff_batch(a.path_a0, a.path_a), a.cycle_start, delta)
    vals = {("path", t): V[t] for t in range(a.path_len)}
    if a.kind == "grim":
        vals[("punish_abs",)] = game.payoff_batch(a.abs_a0[None, :], a.abs_a[None, :])[0]
    elif a.kind in ("finite_minmax", "player_specific"):
        u_pun = game.payoff_batch(a.punish_a0, a.punish_a)
        if a.kind == "player_specific":
            u_rew = game.payoff_batch(a.reward_a0, a.reward_a)
            for i in range(a.n):
                vals[("reward", i)] = u_rew[i]
        for i in range(a.n):
            v_exit = u_rew[i] if a.kind == "player_specific" else V[0]
            for l in range(a.L):
                w = delta ** (a.L - l)
                vals[("punish", i, l)] = (1.0 - w) * u_pun[i] + w * v_exit
    return StateValues(delta=delta, values=vals)


# ---------------------------------------------------------------------------
# subgame-perfection check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpeReport:
    ok: bool
    worst_gain: float
    state: State | None
    user: int | None
    action: float | None
    n_states: int
    grid_points: int
    tol: float

    def __str__(self):
        verdict = "SPE" if self.ok else "NOT subgame perfect"
        loc = "" if self.ok else f" (user {self.user} at state {self.state}, action {self.action:.6g})"
        return f"{verdict}: worst one-shot deviation gain {self.worst_gain:.3g}{loc}"


def _deviation_payoffs_grid(game: StageGame, i: int, a0_arr: np.ndarray,
                            a_arr: np.ndarray, grid: np.ndarray,
                            chunk: int = 2048) -> np.ndarray:
    """Payoff to ``i`` for each grid action at each state, shape (S, G)."""
    fast = getattr(game, "deviation_payoffs_grid", None)
    if fast is not None:
        return fast(i, a0_arr, a_arr, grid)
    S, G = a_arr.shape[0], grid.shape[0]
    out = np.empty((S, G))
    for lo in range(0, S, chunk):
        hi = min(lo + chunk, S)
        block = np.repeat(a_arr[lo:hi, None, :], G, axis=1)
        block[:, :, i] = grid[None, :]
        a0_block = np.repeat(a0_arr[lo:hi, None, :], G, axis=1)
        out[lo:hi] = game.payoff_batch(a0_block, block)[:, :, i]
    return out


def verify_spe(game: StageGame, automaton: Automaton, delta: float,
               grid_points: int = 200, tol: float = SPE_GAIN_TOL) -> SpeReport:
    """One-shot deviation check at every reachable state.

    For each state and user the most profitable deviation is taken as the
    better of the analytic best response and a dense action grid; the
    deviation gain weighs the stage gain against the switch from the
    compliant continuation to the punishment continuation.
    """
    states = automaton.reachable_states()
    sv = state_values(game, automaton, delta)
    idx = {s: k for k, s in enumerate(states)}
    V = sv.as_array(states)
    a0_arr = np.array([automaton.output(s)[0] for s in states])
    a_arr = np.array([automaton.output(s)[1] for s in states])
    next_idx = np.array([idx[automaton.next_on_path(s)] for s in states])
    U = game.payoff_batch(a0_arr, a_arr)

    worst = (-np.inf, None, None, None)  # gain, state, user, action
    for i in range(game.n):
        pun_idx = np.array([idx[automaton.punish_entry(i)] if automaton.kind != "grim"
                            else idx[("punish_abs",)] for _ in states])
        br = game.best_response_batch(i, a0_arr, a_arr)
        a_br = a_arr.copy()
        a_br[:, i] = br
        d_br = game.payoff_batch(a0_arr, a_br)[:, i]
        grid = np.linspace(0.0, game.a_max[i], grid_points)
        d_grid_all = _deviation_payoffs_grid(game, i, a0_arr, a_arr, grid)
        g_idx = np.argmax(d_grid_all, axis=1)
        d_grid = d_grid_all[np.arange(len(states)), g_idx]
        d = np.maximum(d_br, d_grid)
        gain = (1.0 - delta) * (d - U[:, i]) + delta * (V[pun_idx, i] - V[next_idx, i])
        k = int(np.argmax(gain))
        if gain[k] > worst[0]:
            act = br[k] if d_br[k] >= d_grid[k] else grid[g_idx[k]]
            worst = (float(gain[k]), states[k], i, float(act))
    return SpeReport(ok=worst[0] <= tol, worst_gain=worst[0], state=worst[1],
                     user=worst[2], action=worst[3], n_states=len(states),
                     grid_points=grid_points, tol=tol)


# ---------------------------------------------------------------------------
# incentive bounds: minimum discount factors and punishment lengths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinDeltaResult:
    delta: float | None
    feasible: bool
    L: int | None
    binding: str | None
    margins: dict | None = None


def _bisect_min_delta(constraint: Callable[[float], float], tol: float = 1e-6) -> float | None:
    """Smallest delta in (0,1) with ``constraint(delta) >= 0`` (None if none).

    Assumes the constraint margin is nondecreasing in delta, which holds
    for all the incentive families here whenever the path dominates the
    punishment payoff.
    """
    hi = 1.0 - 1e-12
    if constraint(hi) < 0.0:
        return None
    lo = 0.0
    if constraint(lo) >= 0.0:
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if constraint(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _path_profile(game: StageGame, path_profile):
    """Validated ``(a0, a)`` of a one-profile path plus its stage payoffs."""
    pa0, pa = _profiles_to_arrays(game, [path_profile])
    return pa0[0], pa[0], game.payoff(pa0[0], pa[0], validate=False)


def min_delta_for_L(game: StageGame, path_profile, L: int | None,
                    tol: float = 1e-6) -> MinDeltaResult:
    """Minimum discount factor sustaining a one-profile path with length-L
    mutual-minmax punishment (``L=None`` for the grim/absorbing variant).

    Two constraint families are checked for every user: deviating on the
    path must not pay (the L punishment periods outweigh the one-shot
    gain), and sitting through punishment must beat abandoning the scheme
    for the guaranteed minmax payoff.  The grim variant needs only the
    first family, but in exchange requires the mutual minmax profile to
    be a stage Nash equilibrium.
    """
    pa0, pa, v = _path_profile(game, path_profile)
    mm = mutual_minmax(game)
    p = mm.payoffs
    d = np.empty(game.n)
    for i in range(game.n):
        dev = pa.copy()
        dev[i] = game.best_response(i, pa0, pa)
        d[i] = game.payoff(pa0, dev, validate=False)[i]
    vlw = minmax_values(game, with_intervention=True)

    if L is None:
        if not mm.is_stage_nash:
            raise AutomatonError(
                "absorbing punishment requires the mutual minmax profile to be a "
                "stage Nash equilibrium; use a finite L instead")

        def margin(delta):
            return float(np.min(delta / (1.0 - delta) * (v - p) - (d - v)))

        def margins_at(delta):
            return {"path": (delta / (1.0 - delta) * (v - p) - (d - v)).tolist()}
    else:
        if L < 1:
            raise ValueError("punishment length must be at least 1")

        def fams(delta):
            geo = delta * (1.0 - delta ** L) / (1.0 - delta) if delta < 1.0 else float(L)
            f1 = geo * (v - p) - (d - v)
            f2 = delta ** L * (v - p) - (vlw - p)
            return f1, f2

        def margin(delta):
            f1, f2 = fams(delta)
            return float(min(np.min(f1), np.min(f2)))

        def margins_at(delta):
            f1, f2 = fams(delta)
            return {"path": f1.tolist(), "punishment": f2.tolist()}

    delta = _bisect_min_delta(margin, tol=tol)
    if delta is None:
        return MinDeltaResult(delta=None, feasible=False, L=L, binding=None)
    m = margins_at(delta)
    binding = min(m, key=lambda k: min(m[k]))
    return MinDeltaResult(delta=delta, feasible=True, L=L, binding=binding, margins=m)


def prescribe_punishment_length(game: StageGame, path_profile) -> int:
    """Smallest L making the path constraint satisfiable as delta -> 1.

    At delta -> 1 the path family needs ``L * (v_i - p_i) > M - v_i`` for
    every user, where ``M`` bounds any one-shot payoff at the path's
    device action.
    """
    pa0, _, v = _path_profile(game, path_profile)
    p = mutual_minmax(game).payoffs
    M = max_stage_payoff(game, a0=pa0)
    if np.any(v - p <= 0.0):
        raise AutomatonError("path must strictly dominate the mutual minmax payoff")
    L = int(np.max(np.ceil((M - v) / (v - p)))) + 1
    return max(L, 1)


def minmax_delta_constraints(game: StageGame, path_profile, L: int,
                             delta: float) -> dict:
    """Margins of the conservative (worst-case one-shot gain) constraint
    families for the finite mutual-minmax automaton.

    Uses the blanket deviation bound ``M`` instead of each user's exact
    best-response payoff, matching the bound that motivates the
    punishment-length prescription.  Nonnegative margins certify the pair
    ``(delta, L)``.
    """
    pa0, _, v = _path_profile(game, path_profile)
    p = mutual_minmax(game).payoffs
    vlw = minmax_values(game, with_intervention=True)
    M = max_stage_payoff(game, a0=pa0)
    geo = delta * (1.0 - delta ** L) / (1.0 - delta)
    f1 = geo * (v - p) - (M - v)
    f2 = (1.0 - delta ** L) * p + delta ** L * v - vlw
    return {"path": f1.tolist(), "punishment": f2.tolist()}


def prescribe_reward_delay(game: StageGame, reward_profiles) -> int:
    """Smallest L for the player-specific automaton, from the deviator's
    own in-punishment constraint as delta -> 1: ``L * (r_ii - vlow_i) >= M - r_ii``."""
    rew_a0, rew_a = _profiles_to_arrays(game, reward_profiles)
    rew_u = game.payoff_batch(rew_a0, rew_a)
    own = np.diagonal(rew_u)
    vlw = minmax_values(game, with_intervention=True)
    M = max_stage_payoff(game, a0=None)
    if np.any(own - vlw <= 0.0):
        raise AutomatonError("each reward phase must strictly beat its target's minmax value")
    return max(int(np.max(np.ceil((M - own) / (own - vlw)))), 1)


def player_specific_delta_constraints(game: StageGame, path_profile, L: int,
                                      reward_profiles, delta: float) -> dict:
    """Margins of the four constraint families for the player-specific
    automaton at ``(delta, L)``; all nonnegative certifies the pair.

    Families: (1) no deviation from the path; (2) punishers stick out each
    punishment period; (3) punishers comply in the reward phase; (4) the
    punished user sits through their own punishment and reward phase.
    The punished user's within-punishment constraint is vacuous (they are
    already best-responding), so family (2) ranges over punishers only.
    """
    _, _, v = _path_profile(game, path_profile)
    rew_a0, rew_a = _profiles_to_arrays(game, reward_profiles)
    rew_u = game.payoff_batch(rew_a0, rew_a)  # rew_u[i, j] = user j's payoff in i's reward
    own = np.diagonal(rew_u)
    vlw = minmax_values(game, with_intervention=True)
    M = max_stage_payoff(game, a0=None)
    n = game.n
    q = np.empty((n, n))  # q[i, j] = user j's payoff while i is punished
    for i in range(n):
        mm = minmax(game, i, with_intervention=True)
        q[i] = game.payoff(mm.profile.a0, mm.profile.a, validate=False)
    dl = float(delta)
    out = {"path": [], "punishing": [], "reward_other": [], "reward_own": []}
    for i in range(n):
        out["path"].append(dl * (1 - dl ** L) * (v[i] - vlw[i])
                           + dl ** (L + 1) * (v[i] - own[i]) - (1 - dl) * (M - v[i]))
        out["reward_own"].append(dl * (1 - dl ** L) / (1 - dl) * (own[i] - vlw[i])
                                 - (M - own[i]))
        for j in range(n):
            if j == i:
                continue
            for l in range(L):
                lhs = dl ** (L + 1) * (rew_u[i, j] - own[j])
                rhs = ((1 - dl) * (M - q[i, j])
                       + dl * (1 - dl ** (L - l - 1)) * (vlw[j] - q[i, j])
                       + dl ** (L - l) * (1 - dl ** (l + 1)) * (vlw[j] - rew_u[i, j]))
                out["punishing"].append(lhs - rhs)
            out["reward_other"].append(dl * (1 - dl ** L) * (rew_u[i, j] - vlw[j])
                                       + dl ** (L + 1) * (rew_u[i, j] - own[j])
                                       - (1 - dl) * (M - rew_u[i, j]))
    return {k: np.asarray(vals) for k, vals in out.items()}


def find_min_delta_for_constraints(constraint_fn: Callable[[float], dict],
                                   tol: float = 1e-6) -> float | None:
    """Bisect for the smallest delta with every family margin >= 0."""

    def margin(delta):
        fams = constraint_fn(delta)
        return float(min(np.min(np.asarray(v)) for v in fams.values() if np.size(v)))

    return _bisect_min_delta(margin, tol=tol)
