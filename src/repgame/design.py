"""Protocol design: pick a target payoff, check it is enforceable, and
construct the equilibrium that delivers it.

The designer works on the *guaranteed-payoff region*: payoff vectors on
the simplex ``sum_i v_i / vbar_i = 1`` (``vbar_i`` = best payoff user
``i`` can get alone) that dominate both a per-user guarantee ``gamma``
and the intervention-backed minmax point.  The main entry points are

* :func:`deviation_stats` -- everything the thresholds need: solo optima,
  cross-deviation payoffs, minmax values.
* :func:`optimize_welfare` -- welfare-optimal target on the region.
* :func:`delta_bar` -- discount threshold above which the target is
  enforceable while every continuation payoff respects the guarantees.
* :func:`generate_outcome_path` -- time-sharing sequence of solo profiles
  whose discounted average hits the target exactly.
* :func:`assemble_protocol` -- wraps the path into a grim automaton.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .automata import (Automaton, _is_index, _not_credible, build_minmax_automaton,
                       path_values)
from .games import StageGame, _user_sum, mutual_minmax


class DesignError(ValueError):
    """Raised when a design request is infeasible or malformed."""


class DecompositionError(RuntimeError):
    """Raised when the outcome-path construction fails to close; indicates
    an internal inconsistency rather than a bad request."""


WELFARES = ("sum", "maxmin")

# an outcome path must meet its target to within PATH_VALUE_TOL and may dip
# at most FLOOR_TOL below a floor; the one-shot search allows that same dip
PATH_VALUE_TOL = 1e-6
FLOOR_TOL = 1e-9


def _welfare_value(kind: str, v: np.ndarray) -> float:
    if kind == "sum":
        return float(_user_sum(v))
    if kind == "maxmin":
        return float(np.min(v))
    raise DesignError(f"unknown welfare {kind!r}; expected one of {WELFARES}")


# ---------------------------------------------------------------------------
# assumptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str
    witness: object = None


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def passed(self, name: str) -> bool:
        return {c.name: c.passed for c in self.checks}[name]


def _solo_leak(solo_payoffs: np.ndarray) -> str | None:
    """Why time-sharing solo profiles does not span the payoff simplex: the
    largest payoff a solo profile (row ``i`` of ``solo_payoffs``) leaks to a
    bystander, past ``1e-9 * max(1, max vbar)``; None when none does."""
    vbar = np.diagonal(solo_payoffs)
    leaks = np.abs(solo_payoffs - np.diag(vbar))
    i, j = np.unravel_index(np.argmax(leaks), leaks.shape)
    if leaks[i, j] <= 1e-9 * max(1.0, float(np.max(vbar))):
        return None
    return (f"user {i}'s solo profile leaks {leaks[i, j]:.3g} to user {j}, a bystander, "
            "so time-sharing solo profiles does not span the payoff simplex")


def validate_assumptions(game: StageGame, hull_grid: int = 11) -> AssumptionReport:
    """Report the structural premises the design pipeline leans on.

    1. The mutual minmax profile is a stage Nash equilibrium (so the grim
       protocol's punishment is credible).
    2. No solo optimum leaks payoff to a bystander (so time-sharing solo
       profiles spans the payoff simplex).
    3. The payoff set, sampled with the device at null on a grid of
       ``hull_grid`` actions per user (at least 2), lies inside that simplex
       (so nothing outside the hull is given up).

    A failed premise's detail is the error the pipeline raises.  The third
    check can genuinely fail for congestion games whose efficient profiles
    concentrate capacity on few users; the pipeline only requires the first
    two plus guarantee feasibility, so a failed hull check is a warning.
    """
    if hull_grid < 2:
        raise DesignError(f"hull_grid must be at least 2, got {hull_grid}")
    mm, stats = mutual_minmax(game), deviation_stats(game)
    leak = _solo_leak(stats.solo_payoffs)
    axes = np.linspace(0.0, game.a_max, hull_grid).T
    acts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, game.n)
    ratios = game.payoff_batch(game.null_intervention(), acts) @ (1.0 / stats.vbar)
    k = int(np.argmax(ratios))
    nash = f"the mutual minmax profile is a stage Nash equilibrium (worst gain {mm.worst_gain:.3g})"
    return AssumptionReport(checks=(
        AssumptionCheck("mutual_minmax_is_stage_nash", mm.is_stage_nash,
                        nash if mm.is_stage_nash else _not_credible(mm), mm.worst_gain),
        AssumptionCheck("solo_optimum_leaves_others_at_zero", leak is None,
                        leak or "no solo profile leaks payoff to a bystander"),
        AssumptionCheck("payoff_set_inside_guarantee_simplex", ratios[k] <= 1.0 + 1e-6,
                        f"max normalized payoff sum {ratios[k]:.6g} at a={np.round(acts[k], 4)}",
                        (float(ratios[k]), acts[k]))))


# ---------------------------------------------------------------------------
# deviation statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationStats:
    """Per-user quantities driving every threshold formula.

    ``y[i, j]`` is the best payoff user ``j`` can grab by deviating while
    the solo profile of user ``i`` is being played (device quiet); its
    diagonal is the solo optima ``vbar``.  ``w[j]`` is the worst such
    temptation over foreign solo profiles.  ``solo_payoffs[i]`` is the
    full payoff vector of solo profile ``i`` (zeros off the diagonal when
    the solo-optimum assumption holds).
    """

    vbar: np.ndarray
    solo_actions: np.ndarray     # (n, n), row i = solo profile of user i
    solo_payoffs: np.ndarray     # (n, n), row i = payoff vector at that profile
    y: np.ndarray                # (n, n)
    w: np.ndarray                # (n,)
    minmax_with: np.ndarray
    minmax_without: np.ndarray

    def minmax(self, with_intervention: bool) -> np.ndarray:
        return self.minmax_with if with_intervention else self.minmax_without


def deviation_stats(game: StageGame) -> DeviationStats:
    """The statistics of ``game`` from two best-response calls and one
    deviation block of 4n rows: the solo profiles as they stand (each user
    "deviates" to its own action, so those rows hold their payoff vectors),
    each user's best reply to them (``y``), and the minmax tables of
    :func:`~repgame.games.minmax_values` with and without the device.  Each
    row is scored alone, so stacking them moves no bit."""
    n, null = game.n, game.null_intervention()
    solo_actions = np.diag(game.best_responses(null, np.zeros(n)))
    a0 = np.repeat(null[None, :], 4 * n, axis=0)
    a0[2 * n:3 * n] = [game.minmax_minimizer(i) for i in range(n)]
    a = np.concatenate([solo_actions, solo_actions, np.broadcast_to(game.a_max, (2 * n, n))])
    x = game.best_responses(a0, a)
    x[:n] = solo_actions
    d = game.deviation_payoffs(a0, a, x)
    # user i best-responds to its own solo profile with that profile: diag(y) = vbar
    y = d[n:2 * n]
    vbar = np.diagonal(y).copy()
    w = (y + np.diag(np.full(n, -np.inf))).max(axis=0)
    return DeviationStats(vbar=vbar, solo_actions=solo_actions, solo_payoffs=d[:n], y=y, w=w,
                          minmax_with=np.diagonal(d[2 * n:3 * n]).copy(),
                          minmax_without=np.diagonal(d[3 * n:]).copy())


# ---------------------------------------------------------------------------
# welfare targets on the guarantee region
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetPayoff:
    v: np.ndarray
    welfare: str
    value: float
    gamma: np.ndarray


def _infeasibility(stats: DeviationStats, gamma, with_intervention: bool) -> str | None:
    """Which test of :func:`guarantee_feasible` fails, naming the binding
    user; None when both pass."""
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), stats.vbar.shape)
    over = np.flatnonzero(~(gamma <= stats.vbar + 1e-12))
    if over.size:
        i = int(over[0])
        return (f"user {i}'s floor {gamma[i]:.6g} exceeds their solo optimum "
                f"vbar = {stats.vbar[i]:.6g}")
    shares = np.maximum(gamma, stats.minmax(with_intervention)) / stats.vbar
    total = np.sum(shares)
    if not total < 1.0 - 1e-12:
        i = int(np.argmax(shares))
        return (f"the normalised floors sum(max(gamma, minmax) / vbar) = {total:.6g} "
                f"reach 1; user {i} has the largest share, {shares[i]:.6g}")
    return None


def guarantee_feasible(stats: DeviationStats, gamma, with_intervention: bool = True) -> bool:
    """Is the guarantee region nonempty: floors below the simplex, above minmax."""
    return _infeasibility(stats, gamma, with_intervention) is None


def optimize_welfare(stats: DeviationStats, gamma, welfare: str,
                     with_intervention: bool = True) -> TargetPayoff:
    """Welfare-optimal payoff on the simplex subject to the guarantee floors.

    Floors are ``max(gamma, minmax)``: no equilibrium can promise less
    than the minmax value, so requesting less just slackens the request.
    The sum is maximised at a vertex (everything above the floors goes to
    a user with the largest solo optimum); the maxmin optimum equalises
    everyone who is not pinned at their floor.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != stats.vbar.shape:
        raise DesignError(f"gamma must have shape {stats.vbar.shape}, got {gamma.shape}")
    reason = _infeasibility(stats, gamma, with_intervention)
    if reason is not None:
        raise DesignError(f"guarantee {gamma} is infeasible: {reason}")
    floors = np.maximum(gamma, stats.minmax(with_intervention))
    vbar = stats.vbar
    if welfare == "sum":
        k = int(np.argmax(vbar))  # ties resolve to the smallest index
        v = floors.astype(float).copy()
        v[k] = vbar[k] * (1.0 - sum(floors[j] / vbar[j] for j in range(len(vbar)) if j != k))
    elif welfare == "maxmin":
        binding = np.zeros(len(vbar), dtype=bool)
        while True:
            c = (1.0 - np.sum(floors[binding] / vbar[binding])) / np.sum(1.0 / vbar[~binding])
            newly = (~binding) & (floors > c)
            if not newly.any():
                break
            binding |= newly
        v = np.where(binding, floors, c)
    else:
        raise DesignError(f"unknown welfare {welfare!r}; expected one of {WELFARES}")
    return TargetPayoff(v=v, welfare=welfare, value=_welfare_value(welfare, v), gamma=gamma)


# ---------------------------------------------------------------------------
# discount thresholds
# ---------------------------------------------------------------------------

def _temptation_ratio(y, v, vlow) -> np.ndarray:
    """``(y - v) / (y - vlow)``: the smallest discount factor at which a
    stage temptation ``y``, forgone for the promise ``v`` against the
    fallback ``vlow``, stops paying.  Where ``y - vlow <= 1e-15`` it is 0
    when ``v`` reaches ``y`` (within 1e-12) and 1 otherwise."""
    denom = y - vlow
    return np.where(denom > 1e-15, (y - v) / np.where(denom > 1e-15, denom, 1.0),
                    np.where(v >= y - 1e-12, 0.0, 1.0))


def delta_bar(stats: DeviationStats, v_star, with_intervention: bool = True) -> float:
    """Discount threshold for enforcing ``v_star`` with guaranteed floors.

    The first term makes the single most tempting deviation unprofitable
    at the target itself; the second is the fixed point of the worst-case
    decomposition recursion over the whole region, with
    ``T = sum(w_i/vbar_i)`` and ``S = sum(minmax_i/vbar_i)``.  Values are
    capped at 1, where 1 means "not enforceable for any discount < 1".
    """
    v_star = np.asarray(v_star, dtype=float)
    vlow = stats.minmax(with_intervention)
    n = len(stats.vbar)
    first = _temptation_ratio(stats.w, v_star, vlow)
    t_ratio = float(np.sum(stats.w / stats.vbar))
    s_ratio = float(np.sum(vlow / stats.vbar))
    a = n - t_ratio
    b = t_ratio - s_ratio
    root = a + np.sqrt(a * a + 4.0 * (n - 1) * b)
    second = 1.0 if root <= 1e-15 else 2.0 * (n - 1) / root
    return float(min(max(float(np.max(first)), second, 0.0), 1.0))


def delta_mu(stats: DeviationStats, mu) -> float:
    """Threshold above which *every* payoff with floors ``mu`` is enforceable.

    ``mu`` must dominate the device-backed minmax point and leave the
    region nonempty.
    The first term handles the diagonal temptations (each user deviating
    against their own most generous allocation), the second the cross
    temptations ``y[i, j]``.
    """
    mu = np.asarray(mu, dtype=float)
    vlow = stats.minmax_with
    if np.any(mu < vlow - 1e-12):
        raise DesignError("floors must dominate the minmax point")
    if np.sum(mu / stats.vbar) >= 1.0 - 1e-15:
        raise DesignError("floors leave an empty payoff region")
    n = len(stats.vbar)
    diag = (n - 1) / (n - float(np.sum(mu / stats.vbar)))
    cross = np.max(_temptation_ratio(stats.y, mu, vlow)[~np.eye(n, dtype=bool)], initial=0.0)
    return float(min(max(diag, cross, 0.0), 1.0))


def guarantee_floors(stats: DeviationStats, v_star) -> np.ndarray:
    """Continuation floors ``nu`` enforced along the outcome path.

    At the threshold discount the worst temptation ``w_i`` discounted
    against the minmax fallback pins the floor; a larger ``delta`` keeps
    the same floor (it only makes enforcement easier).
    """
    return _floors_at(stats, delta_bar(stats, v_star))


def _floors_at(stats: DeviationStats, db: float) -> np.ndarray:
    """:func:`guarantee_floors` at the threshold ``db`` already computed."""
    return stats.w - (stats.w - stats.minmax_with) * db


# ---------------------------------------------------------------------------
# outcome paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutcomePath:
    """Time-sharing schedule of solo profiles realising a payoff target.

    ``active[t]`` is the user whose solo profile is played in period ``t``;
    from ``cycle_start`` the schedule repeats forever.  ``values[t]`` is
    the exact continuation payoff vector promised at period ``t``; all of
    them dominate the floor ``nu`` and ``values[0]`` is the target.
    """

    active: np.ndarray           # (K,) int
    cycle_start: int
    values: np.ndarray           # (K, n), the transpose of a user-major (n, K) array
    nu: np.ndarray
    delta: float
    v_star: np.ndarray

    @property
    def period(self) -> int:
        return len(self.active) - self.cycle_start

    def active_at(self, t: int) -> int:
        """User playing in period ``t``, an integer ``>= 0``; past the stored
        schedule the cycle repeats.  IndexError for anything else."""
        if not (_is_index(t) and t >= 0):
            raise IndexError(f"period {t!r} is not an integer >= 0")
        if t < len(self.active):
            return int(self.active[t])
        return int(self.active[self.cycle_start
                               + (t - self.cycle_start) % self.period])


# how far below one the thresholds' sum is kept: above the share-sum drift
# between renormalisations (about 64 periods at most, over which it at most doubles)
SUM_GUARD = 1e-13


def generate_outcome_path(stats: DeviationStats, v_star, delta: float) -> OutcomePath:
    """Greedy decomposition of ``v_star`` into a solo-profile schedule,
    closed into a cycle by one certified cut.

    The greedy runs on shares ``s = v / vbar``, which sum to one.  A period
    of user ``i``'s solo profile maps them to ``(s - (1-delta) e_i) / delta``:
    the sum stays one, bystanders' shares grow, and ``i``'s next share clears
    its floor ``F_i`` iff ``s_i >= theta_i = delta F_i + (1-delta)``.  Each
    period the lowest-indexed user passing that test plays; while
    ``sum(theta) <= 1`` one always does (pigeonhole on ``sum(s) = 1``).  The
    loop records only the active user's new share, and the share history
    ``s_0..s_K`` is rebuilt from those (a bystander's share is its last set
    value times ``delta^-(periods since)``).

    The orbit and the path closed into the cycle ``cs..K-1`` both satisfy
    ``x_t = (1-delta) e_(i_t) + delta x_(t+1)``, so the cut moves every
    promise by exactly ``delta^(K-t) d``, ``d = (s_cs - s_K) / (1 -
    delta^(K-cs))``: its value error is ``delta^K max_j |d_j| vbar_j``, and
    it keeps user ``j`` within ``FLOOR_TOL`` of the floor ``f_j = nu_j /
    vbar_j`` iff ``d_j >= -R_j = -min_(t<K) (s_tj - f_j + FLOOR_TOL / vbar_j)
    delta^-(K-t)``.  Of the cuts that keep every floor, the one with the
    smallest value error is valued by :func:`path_values`, the certificate;
    when none is within ``PATH_VALUE_TOL``, the same orbit runs on to
    ``2K``, then to ``4K``.
    """
    v_star = np.asarray(v_star, dtype=float)
    if not (0.0 < delta < 1.0):
        raise DesignError(f"discount factor must lie in (0, 1), got {delta}")
    n = len(stats.vbar)
    u_solo = stats.solo_payoffs
    scale = float(np.max(stats.vbar))
    leak = _solo_leak(u_solo)
    if leak is not None:
        raise DesignError(leak)

    # a target sitting exactly on a solo payoff vector is a constant path and
    # needs no threshold (the floors degenerate to the minmax point there)
    for k in range(n):
        if np.max(np.abs(v_star - u_solo[k])) <= 1e-9 * max(1.0, scale):
            return OutcomePath(active=np.array([k]), cycle_start=0,
                               values=u_solo[[k]].astype(float),
                               nu=stats.minmax_with, delta=delta,
                               v_star=v_star)

    db = delta_bar(stats, v_star)
    if delta < db - 1e-12:
        raise DesignError(f"delta {delta} below the enforceability threshold {db:.6f}")
    nu = _floors_at(stats, db)

    # The plain greedy hugs the floors f = nu / vbar, so it runs against floors
    # F raised by a share margin that leaves the splice room: half the room f
    # leave under sum(F) <= (1 - n(1-delta))/delta (that is, sum(theta) <= 1),
    # split evenly.  The margin ramps up from f by slack * (delta^-(t+1) - 1) in
    # value units, so a target on its floor stays admissible: the thresholds
    # are one (n, t_ramp) array for the ramp, then one constant column.
    vbar = stats.vbar
    d = float(delta)
    lnd = math.log(d)
    f = nu / vbar
    slack = min(1e-4, 0.1 * (1.0 - d)) * max(1.0, scale / 100.0)
    room = (1.0 - n * (1.0 - d)) / d - float(np.sum(f))
    margin = 0.5 * room / n if room > 0 else 0.0
    # long enough that a splice bounded by the margin (or by the payoff scale
    # when marginless) neither misses the target nor dents a floor at t=0
    k_value = int(np.ceil(np.log(0.2 * PATH_VALUE_TOL / scale) / lnd)) + 1
    k_first = max(k_value, int(np.ceil(np.log(0.5 * FLOOR_TOL / (margin * scale or scale))
                                       / lnd)) + 1)
    t_ramp = min(k_first, int(math.log1p(margin * scale / slack) / -lnd) + 1)
    ramp = np.append(slack * np.expm1(-lnd * np.arange(1, t_ramp + 1)), np.inf)
    users, c = tuple(range(n)), 1.0 - d
    theta = d * (f[:, None] + np.minimum(margin, ramp / vbar[:, None])) + c
    theta -= max(0.0, math.fsum(theta[:, -1]) - (1.0 - SUM_GUARD)) / n
    rows = chain(zip(*map(memoryview, theta[:, :-1])), repeat(theta[:, -1].tolist()))
    p_min = max(0.5, d ** 64)
    s_star = (v_star / vbar).tolist()

    # z[j] / p is user j's share, renormalised once p < p_min (the sum's drift grows as 1/p)
    active, shares, z, p = [], [], list(s_star), 0.0
    act, rec = active.append, shares.append
    for K in (k_first, 2 * k_first, 4 * k_first):
        for th in islice(rows, K - len(active)):
            if p < p_min:
                total = math.fsum(z)
                z, p = [x / total for x in z], 1.0
            for i in users:
                if z[i] >= th[i] * p:
                    break
            else:
                raise DecompositionError(
                    f"the outcome-path greedy locked at period {len(active)}: shares "
                    f"{np.array(z) / p} below thresholds {np.array(th)}, "
                    f"sum(theta) - 1 = {math.fsum(th) - 1:.3g}")
            zi = z[i] - c * p
            z[i] = zi
            p *= d
            act(i)
            rec(zi / p)
        # the (n, K+1) share history times delta^t: user j's values (s_star[j],
        # then its new share after each period it plays), each held until the next
        powers, path = d ** np.arange(K + 1), np.fromiter(active, int, K)
        scaled = np.fromiter(shares, float, K) * powers[1:]
        hist = np.empty((n, K + 1))
        for j in users:
            edges = np.concatenate(([-1], np.flatnonzero(path == j), [K]))   # j's periods
            hist[j] = np.repeat(np.append(s_star[j], np.take(scaled, edges[1:-1])),
                                np.diff(edges))
        # in place: the slack above the floors less FLOOR_TOL, then R, then
        # every cut's splice d (column cs - 1), its value error and floor headroom
        hist /= powers
        hist -= (f - FLOOR_TOL / vbar)[:, None]
        hist[:, :K] /= powers[K:0:-1]
        reach = np.min(hist[:, :K], axis=1) * vbar
        splice = hist[:, 1:K]
        splice *= powers[K - 1:0:-1]
        splice -= hist[:, K:]
        splice /= 1.0 - powers[K - 1:0:-1]
        splice *= vbar[:, None]
        err = np.maximum(np.max(splice, axis=0), -np.min(splice, axis=0)) * powers[K]
        splice += reach[:, None]
        err[np.min(splice, axis=0) < 0.0] = np.inf
        del hist, splice, edges   # free the history before the certificate
        cs = 1 + int(np.argmin(err))
        if err[cs - 1] <= PATH_VALUE_TOL:
            break
    # gathered user-major, so the certificate values each user's periods in
    # contiguous memory; values is the transpose of its (n, K) result
    values = path_values(np.take(u_solo.T, path, axis=1).T, cs, delta)
    err = float(np.max(np.abs(values[0] - v_star)))
    dips = np.min(values.T - nu[:, None], axis=1)
    j = int(np.argmin(dips))
    if err <= PATH_VALUE_TOL and dips[j] >= -FLOOR_TOL:
        return OutcomePath(active=path, cycle_start=cs, values=values, nu=nu, delta=delta,
                           v_star=v_star)
    floor = (f"floor dip {-dips[j]:.3g} below user {j}'s floor" if dips[j] < -FLOOR_TOL
             else "no floor dip")
    raise DecompositionError(
        "could not close the outcome path to the requested accuracy "
        f"(value error {err:.3g}; {floor}; cycle {cs}..{K - 1} of K = {K})")


def assemble_protocol(game: StageGame, stats: DeviationStats,
                      path: OutcomePath) -> Automaton:
    """Grim automaton playing the outcome path with the device quiet: its
    profile table holds the n solo profiles and ``path.active`` indexes it."""
    null = game.null_intervention()
    return build_minmax_automaton(game, [(null, a) for a in stats.solo_actions], L=None,
                                  cycle_start=path.cycle_start, path_index=path.active)


# ---------------------------------------------------------------------------
# convenience pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolDesign:
    game: StageGame
    stats: DeviationStats
    target: TargetPayoff
    threshold: float
    path: OutcomePath | None
    automaton: Automaton | None


def design_protocol(game: StageGame, gamma, welfare: str,
                    delta: float | None = None) -> ProtocolDesign:
    """End-to-end pipeline: stats, target, threshold and (given a discount
    factor) the explicit equilibrium protocol."""
    gamma = np.asarray(gamma, dtype=float)
    mm = mutual_minmax(game)
    if not mm.is_stage_nash:
        raise DesignError(_not_credible(mm))
    stats = deviation_stats(game)
    leak = _solo_leak(stats.solo_payoffs)
    if leak is not None:
        raise DesignError(leak)
    target = optimize_welfare(stats, gamma, welfare)
    threshold = delta_bar(stats, target.v)
    path = automaton = None
    if delta is not None:
        path = generate_outcome_path(stats, target.v, delta)
        automaton = assemble_protocol(game, stats, path)
    return ProtocolDesign(game=game, stats=stats, target=target,
                          threshold=threshold, path=path, automaton=automaton)
