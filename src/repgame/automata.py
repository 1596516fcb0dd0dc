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

At the API, states are plain tuples: ``("path", t)``, ``("punish", i, l)``,
``("punish_abs",)`` and ``("reward", i)``.  Inside, every automaton keeps one
table of the distinct profiles it plays (path, punishment and reward rows)
and one fixed layout of index arrays into it (:attr:`Automaton.layout`):
path states ``0..K-1``, then the absorbing state ``K`` (grim) or the spells
``K + i*L + l``, then the reward states ``K + n*L + i`` (player-specific).
So every profile is validated, valued and scanned once, however many
states play it.

scipy is imported at its one use site (``lfilter`` in :func:`path_values`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .games import (ActionProfile, MutualMinmaxResult, StageGame, _minmax_table,
                    best_response_payoffs, max_stage_payoff, minmax_values, mutual_minmax)

State = tuple

#: an automaton is subgame perfect when no one-shot deviation gains more
SPE_GAIN_TOL = 1e-9


class AutomatonError(ValueError):
    """Raised when an automaton cannot be built from the given pieces."""


def _not_credible(mm: MutualMinmaxResult) -> str:
    """Why grim punishment at ``mm``, no stage Nash equilibrium, is not credible."""
    return (f"the mutual minmax profile is not a stage Nash equilibrium: user "
            f"{mm.worst_user} gains {mm.worst_gain:.3g} by deviating, so grim "
            "punishment is not credible")


def _check_length(L: int | None) -> None:
    """Reject a finite punishment length below 1, in one wording wherever L is taken."""
    if L is not None and L < 1:
        raise AutomatonError("punishment length L must be at least 1")


def _punishment_profile(mm: MutualMinmaxResult, L: int | None) -> MutualMinmaxResult:
    """The mutual minmax profile ``mm``, checked to punish ``L >= 1`` periods or forever (None)."""
    if L is None and not mm.is_stage_nash:
        raise AutomatonError(_not_credible(mm))
    _check_length(L)
    return mm


def _profiles_to_arrays(game: StageGame, profiles) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(a0, a)`` rows of a sequence of profiles or ``(a0, a)`` pairs."""
    valid = [game.validate_profile(*((p.a0, p.a) if isinstance(p, ActionProfile) else p))
             for p in profiles]
    return np.array([a0 for a0, _ in valid]), np.array([a for _, a in valid])


class Layout(NamedTuple):
    """Index arrays of the state layout, into the automaton's profile table."""

    row: np.ndarray   # (S,) table row each state plays
    nxt: np.ndarray   # (S,) successor of each state when everyone complies
    pun: np.ndarray   # (n,) state a deviation by each user leads to
    spells: np.ndarray   # (L, n) state of phase l of user i's punishment spell (L=0 for grim)


def _is_index(x) -> bool:
    """Whether ``x`` is an integer (Python or numpy) and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True, eq=False)
class Automaton:
    """Finite-state machine mapping public history to joint actions.

    ``table_a0``/``table_a`` hold every profile the machine plays, one row
    each: rows ``0..P-1`` are the path profiles that ``path_index`` indexes;
    then the punishment rows, one absorbing mutual-minmax row (grim) or row
    ``P + i`` against user ``i`` (the other kinds); then, player-specific
    only, user ``i``'s reward row ``P + n + i``.
    """

    kind: str
    n: int
    table_a0: np.ndarray      # (R, a0_dim) every profile played, rows in the order above
    table_a: np.ndarray       # (R, n)
    path_index: np.ndarray    # (K,) int, table row played in each path period
    cycle_start: int
    L: int | None = None

    @property
    def path_len(self) -> int:
        return self.path_index.shape[0]

    @property
    def n_states(self) -> int:
        return self.layout.row.shape[0]

    @property
    def initial_state(self) -> State:
        return ("path", 0)

    def state_index(self, state: State) -> int:
        """Layout position of a named state (integer indices only); KeyError otherwise."""
        K, lay = self.path_len, self.layout
        named = isinstance(state, tuple) and all(map(_is_index, state[1:]))
        match state if named else None:
            case ("path", t) if 0 <= t < K:
                return int(t)
            case ("punish_abs",) if self.kind == "grim":
                return K
            case ("punish", i, l) if self.kind != "grim" and 0 <= i < self.n and 0 <= l < self.L:
                return int(lay.spells[l, i])
            case ("reward", i) if self.kind == "player_specific" and 0 <= i < self.n:
                return int(lay.nxt[lay.spells[-1, i]])   # where i's spell ends
        raise KeyError(f"unknown state {state!r}")

    def state_at(self, k: int) -> State:
        """Named state at layout position ``k``, inverting :attr:`layout`."""
        if not (_is_index(k) and 0 <= k < self.n_states):
            raise IndexError(f"state position {k!r} is not an integer in 0..{self.n_states - 1}")
        k, K = int(k), self.path_len
        if k < K:
            return ("path", k)
        if self.kind == "grim":
            return ("punish_abs",)
        i, l = divmod(k - K, self.L)
        return ("punish", i, l) if i < self.n else ("reward", k - K - self.n * self.L)

    @cached_property
    def layout(self) -> Layout:
        """Per layout position, the table row played and the compliant
        successor; plus each user's punishment entry and spell.  The
        named-state methods below all read it."""
        K, n, R = self.path_len, self.n, self.table_a.shape[0]
        nxt = np.append(np.arange(1, K), self.cycle_start)
        if self.kind == "grim":
            return Layout(row=np.append(self.path_index, R - 1), nxt=np.append(nxt, K),
                          pun=np.full(n, K), spells=np.empty((0, n), dtype=int))
        L, P = self.L, R - (2 * n if self.kind == "player_specific" else n)
        spells = K + np.arange(n * L).reshape(n, L).T
        reward = K + n * L + np.arange(n)
        # a spell's last period exits to the path start or to the punished user's reward
        exits = reward if self.kind == "player_specific" else np.zeros(n, dtype=int)
        nxt = [nxt, np.vstack([spells[1:], exits]).T.ravel()]
        row = [self.path_index, P + np.repeat(np.arange(n), L)]
        if self.kind == "player_specific":
            row.append(P + n + np.arange(n))
            nxt.append(reward)
        return Layout(row=np.concatenate(row), nxt=np.concatenate(nxt), pun=spells[0],
                      spells=spells)

    def output(self, state: State) -> tuple[np.ndarray, np.ndarray]:
        r = self.layout.row[self.state_index(state)]
        return self.table_a0[r], self.table_a[r]

    def next_on_path(self, state: State) -> State:
        """Successor state when everyone complies."""
        return self.state_at(self.layout.nxt[self.state_index(state)])

    def punish_entry(self, deviator: int) -> State:
        return self.state_at(self.layout.pun[deviator])

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
        """Every state, in layout order."""
        return [self.state_at(k) for k in range(self.n_states)]


def _fmt(profile) -> str:
    """``a0=[...] a=[...]`` of an ``(a0, a)`` pair, to 6 significant digits."""
    a0, a = (" ".join(format(float(x), ".6g") for x in np.atleast_1d(v)) for v in profile)
    return f"a0=[{a0}] a=[{a}]"


def describe(automaton: Automaton) -> str:
    """Human-readable rendering of states, outputs and transition rules."""
    a = automaton
    lines = [f"automaton kind={a.kind} users={a.n} path_len={a.path_len} "
             f"cycle_start={a.cycle_start}" + (f" L={a.L}" if a.L is not None else "")]
    lines += [f"  path[{t}]: {_fmt(a.output(('path', t)))}" for t in range(a.path_len)]
    if a.kind == "grim":
        lines.append(f"  punish(absorbing): {_fmt(a.output(('punish_abs',)))}")
        lines.append("  rule: any mismatch with the prescribed profile -> punish")
    else:
        lines += [f"  punish[user {i}] x{a.L}: {_fmt(a.output(('punish', i, 0)))}"
                  for i in range(a.n)]
        if a.kind == "player_specific":
            lines += [f"  reward[user {i}] (absorbing): {_fmt(a.output(('reward', i)))}"
                      for i in range(a.n)]
        then = "reward[i]" if a.kind == "player_specific" else "restart the path"
        lines.append(f"  rule: unilateral deviation by i -> punish[i] for L periods, then {then}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _path_table(game: StageGame, path_profiles: Sequence, path_index, cycle_start: int):
    """Validated path profiles plus the row each period plays (in order when
    ``path_index`` is None)."""
    a0, a = _profiles_to_arrays(game, path_profiles)
    index = np.arange(a.shape[0]) if path_index is None else np.array(path_index)
    in_table = np.all((index >= 0) & (index < a.shape[0]))
    if index.ndim != 1 or index.dtype.kind not in "iu" or not in_table:
        raise AutomatonError(f"path_index must be integers indexing the {a.shape[0]} path profiles")
    if not (0 <= cycle_start < index.shape[0]):
        raise AutomatonError(f"cycle_start {cycle_start} outside path of length {index.shape[0]}")
    return a0, a, index


def build_minmax_automaton(game: StageGame, path_profiles: Sequence, L: int | None,
                           cycle_start: int = 0, path_index=None) -> Automaton:
    """Target-path automaton punishing with the mutual minmax profile.

    ``L=None`` builds the grim variant (absorbing punishment), which
    requires the mutual minmax profile to be a stage Nash equilibrium.
    Finite ``L`` holds the deviator to a best response while everyone
    else, device included, plays their maximum for ``L`` periods.
    ``path_index[t]`` names the profile played in period ``t``; by
    default the profiles are played in order.
    """
    tab_a0, tab_a, index = _path_table(game, path_profiles, path_index, cycle_start)
    mm = _punishment_profile(mutual_minmax(game), L)
    if L is None:
        return Automaton(kind="grim", n=game.n, table_a0=np.vstack([tab_a0, mm.profile.a0]),
                         table_a=np.vstack([tab_a, mm.profile.a]),
                         path_index=index, cycle_start=cycle_start)
    pun_a0 = np.tile(mm.profile.a0, (game.n, 1))
    pun_a = np.tile(mm.profile.a, (game.n, 1))
    np.fill_diagonal(pun_a, game.best_responses(mm.profile.a0, mm.profile.a))
    return Automaton(kind="finite_minmax", n=game.n, table_a0=np.vstack([tab_a0, pun_a0]),
                     table_a=np.vstack([tab_a, pun_a]),
                     path_index=index, cycle_start=cycle_start, L=int(L))


def build_player_specific_automaton(game: StageGame, path_profiles: Sequence, L: int,
                                    reward_profiles: Sequence,
                                    cycle_start: int = 0) -> Automaton:
    """Automaton with player-specific punishments and absorbing rewards.

    ``reward_profiles[i]`` is played forever once ``i``'s punishment ends;
    the construction requires the usual ordering: everyone likes the path
    better than their own reward phase, and likes punishing better than
    being punished (``v_j(reward j') > v_j(reward j)`` for ``j' != j``).
    """
    if L is None:
        raise AutomatonError("player-specific punishment needs a finite punishment length L")
    _check_length(L)
    tab_a0, tab_a, index = _path_table(game, path_profiles, None, cycle_start)
    rew_a0, rew_a = _profiles_to_arrays(game, reward_profiles)
    if rew_a.shape[0] != game.n:
        raise AutomatonError("need one reward profile per user")
    pun_a0, pun_a, _ = _minmax_table(game)
    # ordering precondition on discounted-average-relevant stage payoffs
    v_path_min = game.payoff_batch(tab_a0, tab_a).min(axis=0)
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
    return Automaton(kind="player_specific", n=game.n,
                     table_a0=np.vstack([tab_a0, pun_a0, rew_a0]),
                     table_a=np.vstack([tab_a, pun_a, rew_a]),
                     path_index=index, cycle_start=cycle_start, L=int(L))


# ---------------------------------------------------------------------------
# state values
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StateValues:
    """Discounted average payoff vector promised at each automaton state."""

    delta: float
    automaton: Automaton
    array: np.ndarray    # (S, n), row k = value at layout position k

    def __getitem__(self, state: State) -> np.ndarray:
        return self.array[self.automaton.state_index(state)]


def path_values(u_path: np.ndarray, cs: int, delta: float) -> np.ndarray:
    """Values ``V[t] = (1-delta) u[t] + delta V[t+1]`` of a preamble entering
    the cycle ``cs..K-1``: the cycle-entry value is a finite geometric sum, then
    two backward AR(1) passes seeded with ``delta V[cs]`` fill the cycle tail
    (whose last period wraps to the entry) and the preamble ``0..cs-1``."""
    from scipy.signal import lfilter
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
    lay = a.layout
    u = game.payoff_batch(a.table_a0, a.table_a)[lay.row]   # (S, n) stage payoffs per state
    K = a.path_len
    V = np.empty_like(u)
    V[:K] = path_values(u[:K], a.cycle_start, delta)
    V[K:] = u[K:]   # absorbing states; punishment spells are overwritten below
    if a.kind != "grim":
        v_exit = V[lay.nxt[lay.spells[-1]]]   # row i: value after i's last period
        for l, k in enumerate(lay.spells):
            w = delta ** (a.L - l)
            V[k] = (1.0 - w) * u[k] + w * v_exit
    return StateValues(delta=delta, automaton=a, array=V)


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

    def __str__(self):
        verdict = "SPE" if self.ok else "NOT subgame perfect"
        loc = "" if self.ok else f" (user {self.user} at state {self.state}, action {self.action:.6g})"
        return f"{verdict}: worst one-shot deviation gain {self.worst_gain:.3g}{loc}"


def _best_deviations(game: StageGame, a0_tab: np.ndarray, a_tab: np.ndarray,
                     grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Most profitable one-shot deviation of each user from each profile.

    Returns the stage payoffs ``d`` and the actions reaching them, both
    (R, n): the better of the analytic best response and a dense grid of
    ``grid_points`` actions (the best response wins ties).
    """
    br = game.best_responses(a0_tab, a_tab)
    d_br = game.deviation_payoffs(a0_tab, a_tab, br)
    grid = np.linspace(0.0, game.a_max, grid_points)   # (G, n), column i = user i's grid
    d_grid_all = game.deviation_payoffs(a0_tab[:, None], a_tab[:, None], grid)   # (R, G, n)
    g_idx = np.argmax(d_grid_all, axis=1)
    d_grid = np.take_along_axis(d_grid_all, g_idx[:, None], axis=1)[:, 0]
    act = np.where(d_br >= d_grid, br, np.take_along_axis(grid, g_idx, axis=0))
    return np.maximum(d_br, d_grid), act


def _worst_cell(gains: np.ndarray) -> tuple[int, int]:
    """``(state, user)`` of the largest gain; ties go to the lowest user, then
    the lowest state."""
    k = np.argmax(gains, axis=0)
    i = int(np.argmax(gains[k, np.arange(gains.shape[1])]))
    return int(k[i]), i


def verify_spe(game: StageGame, automaton: Automaton, delta: float,
               grid_points: int = 200) -> SpeReport:
    """One-shot deviation check at every reachable state, passed when no
    deviation gains more than ``SPE_GAIN_TOL``.

    For each state and user the most profitable deviation is taken as the
    better of the analytic best response and a dense action grid; the
    deviation gain weighs the stage gain against the switch from the
    compliant continuation to the punishment continuation.  Stage payoffs
    and deviations are computed once per distinct profile and gathered
    onto the states.
    """
    lay = automaton.layout
    V = state_values(game, automaton, delta).array
    U = game.payoff_batch(automaton.table_a0, automaton.table_a)
    d, act = _best_deviations(game, automaton.table_a0, automaton.table_a, grid_points)
    users = np.arange(game.n)
    gain = (1.0 - delta) * (d - U)[lay.row] + delta * (V[lay.pun, users] - V[lay.nxt])
    k, i = _worst_cell(gain)
    worst = float(gain[k, i])
    return SpeReport(ok=worst <= SPE_GAIN_TOL, worst_gain=worst, state=automaton.state_at(k),
                     user=i, action=float(act[lay.row[k], i]), n_states=automaton.n_states,
                     grid_points=grid_points)


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


def _path_profile(game: StageGame, path_profile):
    """Validated ``(a0, a)`` of a one-profile path plus its stage payoffs."""
    pa0, pa = _profiles_to_arrays(game, [path_profile])
    return pa0[0], pa[0], game.payoff_batch(pa0[0], pa[0])


def _minmax_families(v, p, dev, vlw, L: int | None, delta: float) -> dict:
    """Margins of the mutual-minmax constraint families at ``delta``.

    ``path``: deviating from the path (stage payoff ``dev``: the exact
    best-response payoff, or the blanket bound ``M``) must not pay against
    ``L`` punishment periods at the mutual minmax payoff ``p`` (forever
    when ``L`` is None).  ``punishment`` (finite ``L`` only): sitting
    through the punishment must beat abandoning the scheme for the
    guaranteed minmax payoff ``vlw``.
    """
    if L is None:
        return {"path": delta / (1.0 - delta) * (v - p) - (dev - v)}
    geo = delta * (1.0 - delta ** L) / (1.0 - delta) if delta < 1.0 else float(L)
    return {"path": geo * (v - p) - (dev - v), "punishment": delta ** L * (v - p) - (vlw - p)}


def min_delta_for_L(game: StageGame, path_profile, L: int | None) -> MinDeltaResult:
    """Minimum discount factor sustaining a one-profile path with length-L
    mutual-minmax punishment (``L=None`` for the grim/absorbing variant).

    Two constraint families are checked for every user: deviating on the
    path must not pay (the L punishment periods outweigh the one-shot
    gain), and sitting through punishment must beat abandoning the scheme
    for the guaranteed minmax payoff.  The grim variant needs only the
    first family, but in exchange requires the mutual minmax profile to
    be a stage Nash equilibrium.
    """
    return _min_delta_for_L(game, path_profile, L, mutual_minmax(game))


def _min_delta_for_L(game: StageGame, path_profile, L: int | None,
                     mm: MutualMinmaxResult) -> MinDeltaResult:
    """:func:`min_delta_for_L` given the game's mutual minmax profile ``mm``."""
    pa0, pa, v = _path_profile(game, path_profile)
    mm = _punishment_profile(mm, L)
    d = best_response_payoffs(game, pa0, pa)
    vlw = minmax_values(game, with_intervention=True)

    def fams(delta):
        return _minmax_families(v, mm.payoffs, d, vlw, L, delta)

    delta = find_min_delta_for_constraints(fams)
    if delta is None:
        return MinDeltaResult(delta=None, feasible=False, L=L, binding=None)
    m = {k: f.tolist() for k, f in fams(delta).items()}
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
    fams = _minmax_families(v, mutual_minmax(game).payoffs, max_stage_payoff(game, a0=pa0),
                            minmax_values(game, with_intervention=True), L, delta)
    return {k: f.tolist() for k, f in fams.items()}


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
    # q[i, j] = user j's payoff while i is punished
    q = _minmax_table(game)[2]
    vlw = np.diagonal(q)
    M = max_stage_payoff(game, a0=None)
    n = game.n
    dl = float(delta)
    # [i, j, l]: user j in phase l of i's punishment (reward_other has one
    # phase); the punished user's own entries j == i are dropped, keeping the
    # (i, j, l) order
    r, qq, vj, oj = rew_u[:, :, None], q[:, :, None], vlw[None, :, None], own[None, :, None]
    ll = np.arange(L)
    # powers of delta by Python's pow, as the scalar formulas took them
    # (numpy's vector pow can differ by an ulp)
    pw = np.array([dl ** k for k in range(L + 1)])
    punishing = (dl ** (L + 1) * (r - oj)
                 - ((1 - dl) * (M - qq)
                    + dl * (1 - pw[L - ll - 1]) * (vj - qq)
                    + pw[L - ll] * (1 - pw[ll + 1]) * (vj - r)))
    reward_other = dl * (1 - dl ** L) * (r - vj) + dl ** (L + 1) * (r - oj) - (1 - dl) * (M - r)
    punishers = ~np.eye(n, dtype=bool)
    return {"path": dl * (1 - dl ** L) * (v - vlw) + dl ** (L + 1) * (v - own)
                    - (1 - dl) * (M - v),
            "punishing": punishing[punishers].ravel(),
            "reward_other": reward_other[punishers].ravel(),
            "reward_own": dl * (1 - dl ** L) / (1 - dl) * (own - vlw) - (M - own)}


def find_min_delta_for_constraints(constraint_fn: Callable[[float], dict]) -> float | None:
    """Smallest double delta in (0,1) with every family margin of
    ``constraint_fn(delta)`` >= 0, by :func:`_bisect` (None if none).

    Assumes the margins are nondecreasing in delta, which holds for all
    the incentive families here whenever the path dominates the
    punishment payoff.
    """
    return _bisect(lambda d: min(np.min(v) for v in constraint_fn(d).values() if np.size(v)) >= 0.0,
                   0.0, 1.0 - 1e-12)


def _bisect(holds: Callable[[float], bool], lo: float, hi: float) -> float | None:
    """The point nearest ``lo`` where the monotone test ``holds`` passes,
    between ``lo`` and ``hi`` (either may be the larger): None when ``hi``
    fails, ``lo`` when it passes, else the passing end once the bracket is
    two adjacent doubles."""
    if not holds(hi):
        return None
    if holds(lo):
        return lo
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi
