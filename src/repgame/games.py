"""Stage games between N self-interested users and an intervention device.

The device is a non-strategic punisher: its action can only lower user
payoffs, and its null action leaves the game unchanged.  Three concrete
games are provided:

* :class:`FlowControlGame` -- users pick service rates at a shared M/M/1
  queue; payoff is a power of the own rate times the residual capacity.
  The device absorbs capacity.
* :class:`PowerControlGame` -- users pick transmit powers on a shared
  Gaussian interference channel; payoff is the Shannon rate.  The device
  jams.
* :class:`PacketDropGame` -- flow control where the device drops each
  user's packets independently with some probability.

Each game is its payoff function plus one best-response map, both
vectorised over leading batch dimensions; :meth:`StageGame.deviation_payoffs`
derives the one deviation map from the payoff.  The stage Nash point, the
minmax floors, the solo optima and the one-shot deviation checks are all
built from those maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

#: tolerance for box-constraint checks on actions
BOX_TOL = 1e-9

#: default tolerance when certifying a best response / Nash equilibrium
GAIN_TOL = 1e-9


class GameConfigError(ValueError):
    """Raised when game parameters are malformed or inconsistent."""


class NashIterationError(RuntimeError):
    """Raised when a stage Nash point fails its certificate."""


def _finite(x, name) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise GameConfigError(f"{name} must be finite, got {x!r}")
    return arr


def _as_vector(x, n, name) -> np.ndarray:
    arr = _finite(x, name)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise GameConfigError(f"{name} must be a scalar or length-{n} vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ActionProfile:
    """One period's joint action: device action ``a0`` and user actions ``a``."""

    a0: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a0", np.asarray(self.a0, dtype=float).reshape(-1))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float).reshape(-1))


@dataclass(frozen=True)
class MinmaxResult:
    """Minmax value of one user plus a profile attaining it.

    ``profile`` holds the minimising device/opponent actions together with
    the user's own best response against them.
    """

    user: int
    value: float
    profile: ActionProfile
    with_intervention: bool


@dataclass(frozen=True)
class MutualMinmaxResult:
    """The profile that minmaxes every user simultaneously."""

    profile: ActionProfile
    payoffs: np.ndarray
    is_stage_nash: bool
    worst_gain: float


@dataclass(frozen=True)
class HullSample:
    """Grid sample of the pure-action payoff set.

    ``individually_rational`` marks points that strictly dominate the
    intervention-backed minmax point componentwise.  For two-user games
    ``hull_vertices`` holds the convex hull of the sample in
    counterclockwise order, otherwise ``None``.
    """

    points: np.ndarray
    individually_rational: np.ndarray
    minmax_point: np.ndarray
    hull_vertices: np.ndarray | None


class StageGame:
    """Common interface for the concrete games.

    Subclasses set ``n``, ``a_max`` (shape ``(n,)``) and ``a0_max`` (shape
    ``(a0_dim,)``), and implement ``payoff_unchecked``, ``best_responses``
    and ``payoff_jacobian``; everything else is derived from those maps.
    """

    n: int
    a_max: np.ndarray
    a0_max: np.ndarray
    kind: str = "abstract"

    # -- box helpers ---------------------------------------------------

    @property
    def a0_dim(self) -> int:
        return self.a0_max.shape[0]

    def null_intervention(self) -> np.ndarray:
        """The device action that leaves user payoffs untouched."""
        return np.zeros(self.a0_dim)

    def full_intervention(self) -> np.ndarray:
        return self.a0_max.copy()

    def validate_profile(self, a0, a) -> tuple[np.ndarray, np.ndarray]:
        a0 = np.asarray(a0, dtype=float).reshape(-1)
        a = np.asarray(a, dtype=float).reshape(-1)
        if a0.shape != (self.a0_dim,):
            raise GameConfigError(f"device action must have shape ({self.a0_dim},), got {a0.shape}")
        if a.shape != (self.n,):
            raise GameConfigError(f"user actions must have shape ({self.n},), got {a.shape}")
        if np.any(a0 < -BOX_TOL) or np.any(a0 > self.a0_max + BOX_TOL):
            raise GameConfigError(f"device action {a0} outside box [0, {self.a0_max}]")
        if np.any(a < -BOX_TOL) or np.any(a > self.a_max + BOX_TOL):
            raise GameConfigError(f"user actions {a} outside box [0, {self.a_max}]")
        return a0, a

    # -- payoffs -------------------------------------------------------

    def payoff_unchecked(self, a0: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Vectorised payoffs; ``a0``/``a`` broadcast over leading dims."""
        raise NotImplementedError

    def payoff(self, a0, a) -> np.ndarray:
        """Payoff vector for one joint action (with box validation)."""
        return self.payoff_unchecked(*self.validate_profile(a0, a))

    def payoff_batch(self, a0: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Payoffs for a batch: ``a0`` shape ``(..., a0_dim)``, ``a`` shape ``(..., n)``."""
        return self.payoff_unchecked(np.asarray(a0, dtype=float), np.asarray(a, dtype=float))

    def payoff_jacobian(self, a0, a) -> np.ndarray:
        """Closed-form derivatives of the payoffs in the user actions, shape
        ``(..., n, n)``: entry ``[..., i, j]`` is ``d u_i / d a_j`` at
        ``(a0, a)``, which broadcast as in :meth:`payoff_batch`.  Finite
        everywhere on the action box: at a kink the game takes one side's
        derivative, and where a slope is infinite it says which finite value
        stands in."""
        raise NotImplementedError

    def grid_payoffs(self, axes):
        """Payoffs over the product grid of ``axes`` (one 1-D array of
        actions per user) with the device at null: yields, for each value
        of the first axis in order, the user-major ``(n, R)`` block over
        the R profiles of the other axes, in ``np.meshgrid(..., indexing="ij")``
        order.  Each block equals ``payoff_batch`` on that slab, transposed."""
        null = self.null_intervention()
        prof = np.empty((math.prod(len(ax) for ax in axes[1:]), self.n))
        if self.n > 1:
            prof[:, 1:] = np.stack(np.meshgrid(*axes[1:], indexing="ij"),
                                   axis=-1).reshape(-1, self.n - 1)
        for x in axes[0]:
            prof[:, 0] = x
            yield np.ascontiguousarray(self.payoff_batch(null, prof).T)

    # -- best responses ------------------------------------------------

    def best_responses(self, a0: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Every user's best response, shape ``(..., n)``: entry ``i`` is the
        own action maximising ``i``'s payoff against ``a0`` and the other
        entries of ``a`` (``a[..., i]`` is ignored); where that payoff does
        not depend on the own action, the reply is ``a_max[i]``.  Vectorised
        over leading batch dimensions, like ``payoff_unchecked``."""
        raise NotImplementedError

    def best_response(self, i: int, a0, others) -> float:
        """User ``i``'s entry of :meth:`best_responses` at one profile."""
        return float(self.best_responses(np.asarray(a0, dtype=float).reshape(-1),
                                          np.asarray(others, dtype=float))[i])

    def stage_nash(self, a0: np.ndarray) -> np.ndarray:
        """Closed-form stage Nash point at device action ``a0``."""
        raise NotImplementedError

    def minmax_minimizer(self, i: int) -> np.ndarray:
        """Device action holding user ``i`` to their minmax value."""
        return self.full_intervention()

    def deviation_payoffs(self, a0, a, x) -> np.ndarray:
        """Payoff each user earns by switching alone to its entry of ``x``,
        the others held at ``a``: entry ``[..., i]`` is user ``i``'s payoff
        at ``a`` with ``a[..., i]`` replaced by ``x[..., i]``.  ``a0``
        (``(..., a0_dim)``), ``a`` and ``x`` (``(..., n)``) broadcast over
        leading dimensions; the n deviations of a row are scored as an
        ``(n, n)`` block of profiles in one payoff call."""
        a0, a, x = (np.asarray(v, dtype=float) for v in (a0, a, x))
        shape = np.broadcast_shapes(a.shape, x.shape)
        block = np.array(np.broadcast_to(a[..., None, :], shape + (self.n,)))
        users = np.arange(self.n)
        block[..., users, users] = np.broadcast_to(x, shape)
        u = self.payoff_unchecked(a0[..., None, :], block)
        return np.diagonal(u, axis1=-2, axis2=-1).copy()

    # -- config round-trip ----------------------------------------------

    def to_config(self) -> dict:
        raise NotImplementedError

    def with_a0_max(self, a0_max) -> "StageGame":
        """Copy of this game with a different device action box."""
        cfg = self.to_config()
        cfg["a0_max"] = np.asarray(a0_max, dtype=float).reshape(-1).tolist()
        return game_from_config(cfg)


class FlowControlGame(StageGame):
    """Users share an M/M/1 queue of service rate ``mu``.

    User ``i`` sends at rate ``a_i`` and values throughput-weighted delay
    as ``a_i**beta_i * max(0, mu - a0 - sum(a))``; the device takes
    ``a0`` of the capacity for itself.  ``mu >= sum(a_max)`` is required
    so that the queue stays stable at every admissible profile.

    >>> g = FlowControlGame(mu=10, beta=[2, 2, 3, 3], a_max=[2.5] * 4, a0_max=[2.5])
    >>> g.payoff([0.0], [2.5, 2.5, 2.5, 2.5])
    array([0., 0., 0., 0.])
    """

    kind = "flow"

    def __init__(self, mu: float, beta, a_max, a0_max=0.0):
        self.mu = float(_finite(mu, "mu"))
        n = len(np.atleast_1d(np.asarray(beta, dtype=float)))
        self.n = n
        self.beta = _as_vector(beta, n, "beta")
        self.a_max = _as_vector(a_max, n, "a_max")
        a0 = _finite(a0_max, "a0_max").reshape(-1)
        if a0.shape != (1,):
            raise GameConfigError("flow-control device action is a scalar capacity grab")
        self.a0_max = a0
        if self.mu <= 0 or np.any(self.beta <= 0) or np.any(self.a_max <= 0):
            raise GameConfigError("mu, beta and a_max must be strictly positive")
        if self.a0_max[0] < 0:
            raise GameConfigError("a0_max must be nonnegative")
        if self.mu < np.sum(self.a_max) - BOX_TOL:
            raise GameConfigError(
                f"queue underprovisioned: mu={self.mu} < sum(a_max)={np.sum(self.a_max)}")

    def payoff_unchecked(self, a0, a):
        cap = self.mu - a0[..., 0] - np.sum(a, axis=-1)
        cap = np.maximum(cap, 0.0)
        return np.power(a, self.beta) * cap[..., None]

    def payoff_jacobian(self, a0, a):
        a0, a = np.asarray(a0, dtype=float), np.asarray(a, dtype=float)
        cap = self.mu - a0[..., 0] - np.sum(a, axis=-1)
        # a saturated queue pays zero and no rate moves that; at the kink
        # (cap exactly 0) the saturated side's slope is taken
        return _queue_jacobian(self, a, 1.0, np.maximum(cap, 0.0),
                               np.where(cap > 0.0, -1.0, 0.0))

    def grid_payoffs(self, axes):
        # with a0 = 0, mu - a0 - load rounds as mu - load
        return _queue_grid_payoffs(self, axes, lambda load: np.maximum(self.mu - load, 0.0))

    def best_responses(self, a0, a):
        free = self.mu - a0 - (np.sum(a, axis=-1, keepdims=True) - a)
        interior = np.minimum(self.beta / (1.0 + self.beta) * free, self.a_max)
        # a saturated queue pays zero whatever i sends; the full rate keeps
        # the all-max profile a best-response fixed point
        return np.where(free <= 0.0, self.a_max, interior)

    def stage_nash(self, a0):
        return _queue_nash(self, self.mu - a0[0], np.zeros(self.n, dtype=bool))

    def to_config(self):
        return {"kind": self.kind, "mu": self.mu, "beta": self.beta.tolist(),
                "a_max": self.a_max.tolist(), "a0_max": self.a0_max.tolist()}


class PowerControlGame(StageGame):
    """Gaussian interference channel with a jamming device.

    ``gain[i][j]`` is the channel gain from transmitter ``j`` to receiver
    ``i``; ``intervention_gain[i]`` the gain from the jammer to receiver
    ``i``; ``noise[i]`` the receiver noise floor.  Payoffs are Shannon
    rates ``log2(1 + SINR_i)``.
    """

    kind = "power"

    def __init__(self, gain, intervention_gain, noise, a_max, a0_max=0.0):
        g = _finite(gain, "gain")
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise GameConfigError("gain must be a square matrix")
        n = g.shape[0]
        self.n = n
        self.gain = g
        self.intervention_gain = _as_vector(intervention_gain, n, "intervention_gain")
        self.noise = _as_vector(noise, n, "noise")
        self.a_max = _as_vector(a_max, n, "a_max")
        a0 = _finite(a0_max, "a0_max").reshape(-1)
        if a0.shape != (1,):
            raise GameConfigError("power-control device action is a scalar jamming power")
        self.a0_max = a0
        if np.any(g <= 0) or np.any(self.noise <= 0) or np.any(self.intervention_gain < 0):
            raise GameConfigError("gains must be positive and noise strictly positive")
        if np.any(self.a_max <= 0) or self.a0_max[0] < 0:
            raise GameConfigError("power budgets must be positive")

    def payoff_unchecked(self, a0, a):
        own = np.diagonal(self.gain) * a
        cross = a @ self.gain.T - own  # interference received by each user
        denom = self.noise + self.intervention_gain * a0[..., 0:1] + cross
        return np.log2(1.0 + own / denom)

    def payoff_jacobian(self, a0, a):
        a0, a = np.asarray(a0, dtype=float), np.asarray(a, dtype=float)
        own = np.diagonal(self.gain) * a
        denom = self.noise + self.intervention_gain * a0[..., 0:1] + (a @ self.gain.T - own)
        # d u_i / d a_j = (g_ii [i = j] - own_i g_ij / denom_i [i != j]) / ((denom_i + own_i) ln 2)
        jac = -(own / denom)[..., :, None] * self.gain
        users = np.arange(self.n)
        jac[..., users, users] = np.diagonal(self.gain)
        return jac / ((denom + own) * np.log(2.0))[..., :, None]

    def best_responses(self, a0, a):
        # rates increase in own power regardless of what anyone else does
        return np.broadcast_to(self.a_max, np.broadcast(a0, a).shape).copy()

    def stage_nash(self, a0):
        # full power is the best response to anything, so also to itself
        return self.a_max.astype(float)

    def to_config(self):
        return {"kind": self.kind, "gain": self.gain.tolist(),
                "intervention_gain": self.intervention_gain.tolist(),
                "noise": self.noise.tolist(), "a_max": self.a_max.tolist(),
                "a0_max": self.a0_max.tolist()}


class PacketDropGame(StageGame):
    """Flow control where the device drops user ``i``'s packets w.p. ``a0[i]``.

    Payoffs are ``((1 - a0_i) * a_i)**beta_i * (mu - sum(a))``: dropping
    shrinks the effective rate a user is paid for, while the full sent
    rate still congests the queue.
    """

    kind = "packet_drop"

    def __init__(self, mu: float, beta, a_max):
        self.mu = float(_finite(mu, "mu"))
        n = len(np.atleast_1d(np.asarray(beta, dtype=float)))
        self.n = n
        self.beta = _as_vector(beta, n, "beta")
        self.a_max = _as_vector(a_max, n, "a_max")
        self.a0_max = np.ones(n)
        if self.mu <= 0 or np.any(self.beta <= 0) or np.any(self.a_max <= 0):
            raise GameConfigError("mu, beta and a_max must be strictly positive")
        if self.mu < np.sum(self.a_max) - BOX_TOL:
            raise GameConfigError(
                f"queue underprovisioned: mu={self.mu} < sum(a_max)={np.sum(self.a_max)}")

    def payoff_unchecked(self, a0, a):
        cap = self.mu - np.sum(a, axis=-1)
        eff = np.maximum((1.0 - a0) * a, 0.0)
        return np.power(eff, self.beta) * cap[..., None]

    def payoff_jacobian(self, a0, a):
        a0, a = np.asarray(a0, dtype=float), np.asarray(a, dtype=float)
        cap = self.mu - np.sum(a, axis=-1)
        return _queue_jacobian(self, np.maximum((1.0 - a0) * a, 0.0), 1.0 - a0, cap, -1.0)

    def grid_payoffs(self, axes):
        # with a0 = 0 and a >= 0 the paid rate is the sent rate
        return _queue_grid_payoffs(self, axes, lambda load: self.mu - load)

    def best_responses(self, a0, a):
        free = self.mu - (np.sum(a, axis=-1, keepdims=True) - a)
        interior = np.minimum(self.beta / (1.0 + self.beta) * free, self.a_max)
        # a user whose packets are all dropped is paid zero whatever it sends
        return np.where((a0 >= 1.0 - 1e-12) | (free <= 0.0), self.a_max, interior)

    def stage_nash(self, a0):
        return _queue_nash(self, self.mu, a0 >= 1.0 - 1e-12)

    def minmax_minimizer(self, i):
        # dropping user i's packets w.p. 1 already floors them at zero;
        # other users need not be involved beyond playing their maxima
        a0 = np.zeros(self.n)
        a0[i] = 1.0
        return a0

    def to_config(self):
        return {"kind": self.kind, "mu": self.mu, "beta": self.beta.tolist(),
                "a_max": self.a_max.tolist()}


def _queue_nash(game, room, fixed):
    """Stage Nash point of a queue game of capacity ``room`` whose ``fixed``
    users send at their caps: all-max when no other user has capacity left
    there, else ``min(beta_i C, a_max_i)`` at the residual capacity ``C``
    (Bharath-Kumar & Jaffe, 1981), solving ``C + sum(min(beta_i C, a_max_i))
    = room - fixed load`` one segment at a time over the sorted breakpoints
    ``a_max_i / beta_i``."""
    beta, a = game.beta, game.a_max.astype(float).copy()
    if np.all(fixed | (room - (np.sum(a) - a) <= 0.0)):
        return a
    free = np.flatnonzero(~fixed)
    num, den = room - np.sum(a[fixed]), 1.0 + np.sum(beta[free])
    order = free[np.argsort(a[free] / beta[free], kind="stable")]
    for m, i in enumerate(order):
        if beta[i] * num / den < a[i]:
            # C = num / den lies below every breakpoint left
            rest = order[m:]
            a[rest] = np.minimum(beta[rest] * num / den, a[rest])
            break
        num, den = num - a[i], den - beta[i]
    return a


def _queue_jacobian(game, paid, scale, cap, slope):
    """:meth:`StageGame.payoff_jacobian` of a queue game paying
    ``u_i = paid_i**beta_i * cap``, where the paid rate ``paid_i`` moves
    with the own rate at ``scale_i`` and ``cap`` with every rate at
    ``slope``: ``d u_i / d a_j = beta_i paid_i**(beta_i - 1) scale_i cap [i = j]
    + paid_i**beta_i slope``.  At ``paid_i = 0`` with ``beta_i < 1`` the
    own slope is infinite; there it is taken at ``paid_i = 2**-26`` (the
    square root of the float epsilon, the forward step of 2-point
    differencing at zero), a large finite slope pointing into the box."""
    beta = game.beta
    base = np.where((paid == 0.0) & (beta < 1.0), 2.0 ** -26, paid)
    # the capacity term is the same in every column j
    shared = np.power(paid, beta) * np.expand_dims(slope, -1)
    jac = np.repeat(shared[..., :, None], game.n, axis=-1)
    users = np.arange(game.n)
    jac[..., users, users] += beta * np.power(base, beta - 1.0) * scale * cap[..., None]
    return jac


def _queue_grid_payoffs(game, axes, capacity):
    """:meth:`StageGame.grid_payoffs` of a queue game paying
    ``a_i**beta_i * capacity(load)`` at null intervention, from per-axis
    factors: ``a**beta`` is one power table for all axes, a slab's load is
    built by broadcasting one axis at a time, and each user's block is one
    multiply.  The load adds the users in sequence, as ``np.sum`` over the
    user axis does below 8 users; from 8 on numpy adds pairwise, so those
    games take the row-major route."""
    n = game.n
    if n >= 8:
        yield from StageGame.grid_payoffs(game, axes)
        return
    table = np.zeros((max(len(ax) for ax in axes), n))
    for i, ax in enumerate(axes):
        table[:len(ax), i] = ax
    # (m, n) by beta along the last axis: the call shape of payoff_unchecked
    table = np.power(table, game.beta)
    powers = [table[:len(ax), i] for i, ax in enumerate(axes)]
    cols, factors = np.ix_(*axes[1:]), np.ix_(*powers[1:])
    shape = tuple(len(ax) for ax in axes[1:])
    for x, p in zip(axes[0], powers[0]):
        load = x
        for col in cols:
            load = load + col
        cap = capacity(np.broadcast_to(load, shape))
        block = np.empty((n,) + shape)
        for i, f in enumerate((p,) + factors):
            np.multiply(f, cap, out=block[i, ...])
        yield block.reshape(n, -1)


_GAME_KINDS = {
    "flow": FlowControlGame,
    "power": PowerControlGame,
    "packet_drop": PacketDropGame,
}


def game_from_config(cfg: dict) -> StageGame:
    """Build a game from a plain mapping (inverse of ``to_config``)."""
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind not in _GAME_KINDS:
        raise GameConfigError(f"unknown game kind {kind!r}; expected one of {sorted(_GAME_KINDS)}")
    cls = _GAME_KINDS[kind]
    if kind == "packet_drop":
        cfg.pop("a0_max", None)  # fixed at the unit box
    try:
        return cls(**cfg)
    except TypeError as exc:
        raise GameConfigError(f"bad parameters for {kind!r} game: {exc}") from None


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def best_response_payoffs(game: StageGame, a0, a) -> np.ndarray:
    """Payoff each user earns by a one-shot best response, the others held
    fixed: :meth:`StageGame.deviation_payoffs` at :meth:`StageGame.best_responses`."""
    return game.deviation_payoffs(a0, a, game.best_responses(a0, a))


def solve_stage_nash(game: StageGame, a0=None) -> ActionProfile:
    """Pure Nash equilibrium of the stage game at a fixed device action: the
    game's closed form (:meth:`StageGame.stage_nash`), certified by every
    user's best-response improvement; a failed certificate raises
    :class:`NashIterationError`.
    """
    if a0 is None:
        a0 = game.null_intervention()
    a0 = np.asarray(a0, dtype=float).reshape(-1)
    a = game.stage_nash(a0)
    # certify: no user can improve by more than the gain tolerance
    gain = best_response_payoffs(game, a0, a) - game.payoff_batch(a0, a)
    i = int(np.argmax(gain))
    if gain[i] > GAIN_TOL:
        raise NashIterationError(f"stage Nash point fails its certificate: user {i} gains {gain[i]}")
    return ActionProfile(a0=a0, a=a)


def minmax(game: StageGame, i: int, with_intervention: bool = True) -> MinmaxResult:
    """User ``i``'s minmax value, with or without the device's help.

    Payoffs in the games in scope are decreasing in the device action and
    in everyone else's action, so the minimising profile is the all-max
    profile (device at ``minmax_minimizer(i)`` when allowed, at null
    otherwise); ``i`` then plays a best response against it.
    """
    a0 = game.minmax_minimizer(i) if with_intervention else game.null_intervention()
    prof = game.a_max.astype(float).copy()
    prof[i] = game.best_response(i, a0, prof)
    value = float(game.payoff_batch(a0, prof)[i])
    return MinmaxResult(user=i, value=value, profile=ActionProfile(a0=a0, a=prof),
                        with_intervention=with_intervention)


def minmax_values(game: StageGame, with_intervention: bool = True) -> np.ndarray:
    return np.array([minmax(game, i, with_intervention).value for i in range(game.n)])


def mutual_minmax(game: StageGame) -> MutualMinmaxResult:
    """Profile minmaxing all users at once: device and users at their maxima.

    ``is_stage_nash`` reports whether no user can profitably deviate from
    it, which is what makes a single absorbing punishment phase credible.
    """
    a0 = game.full_intervention()
    a = game.a_max.astype(float).copy()
    u = game.payoff_batch(a0, a)
    worst = float(np.max(best_response_payoffs(game, a0, a) - u))
    return MutualMinmaxResult(profile=ActionProfile(a0=a0, a=a), payoffs=u,
                              is_stage_nash=bool(worst <= GAIN_TOL), worst_gain=worst)


def solo_values(game: StageGame) -> np.ndarray:
    return best_response_payoffs(game, game.null_intervention(), np.zeros(game.n))


def payoff_hull_sample(game: StageGame, grid_points: int = 11) -> HullSample:
    """Sample the payoff set on a regular grid of user actions, the device
    at null.  Rejects grids with fewer than two points per axis.
    """
    if grid_points < 2:
        raise GameConfigError("grid_points must be at least 2")
    axes = [np.linspace(0.0, game.a_max[i], grid_points) for i in range(game.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    acts = np.stack([m.ravel() for m in mesh], axis=-1)
    pts = game.payoff_batch(np.zeros((acts.shape[0], game.a0_dim)), acts)
    vlow = minmax_values(game, with_intervention=True)
    ir = np.all(pts > vlow + GAIN_TOL, axis=-1)
    hull = None
    if game.n == 2:
        from scipy.spatial import ConvexHull, QhullError
        try:
            h = ConvexHull(pts)
            hull = pts[h.vertices]
        except QhullError:
            hull = None
    return HullSample(points=pts, individually_rational=ir, minmax_point=vlow,
                      hull_vertices=hull)


def max_stage_payoff(game: StageGame, a0=None) -> float:
    """Upper bound ``max_i max_a u_i(a0, a)`` used by the folk-theorem bounds:
    the best solo payoff at ``a0`` (the null action when ``None``).

    Payoffs decrease in the device action and in everyone else's action
    (the premise :func:`minmax` rests on too), so no profile pays any user
    more than best-responding while the others sit at zero.
    """
    a0 = game.null_intervention() if a0 is None else np.asarray(a0, dtype=float).reshape(-1)
    return float(np.max(best_response_payoffs(game, a0, np.zeros(game.n))))
