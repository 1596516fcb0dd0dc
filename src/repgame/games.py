"""Stage games between N self-interested users and an intervention device.

The device is a non-strategic punisher: its action can only lower user
payoffs, and its null action leaves the game unchanged.  Three concrete
games are provided, two of them one queue model:

* :class:`FlowControlGame` and :class:`PacketDropGame` -- users pick
  service rates at a shared M/M/1 queue; payoff is a power of the paid
  rate times the residual capacity.  Both are :class:`_QueueGame` and
  differ only in the device's lever: in flow control it absorbs capacity,
  in packet dropping it drops each user's packets independently with some
  probability.
* :class:`PowerControlGame` -- users pick transmit powers on a shared
  Gaussian interference channel; payoff is the Shannon rate.  The device
  jams.

Each game is its payoff function plus one best-response map, both
vectorised over leading batch dimensions; :meth:`StageGame.deviation_payoffs`
derives the one deviation map from the payoff.  The stage Nash point, the
minmax floors, the solo optima and the one-shot deviation checks are all
built from those maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: tolerance for box-constraint checks on actions
BOX_TOL = 1e-9

#: default tolerance when certifying a best response / Nash equilibrium
GAIN_TOL = 1e-9

#: relative slack of the one-shot grid's block bounds (see
#: :meth:`StageGame.grid_blocks`), far above the rounding of 23 terms
SCREEN_SLACK = 1e-12


class GameConfigError(ValueError):
    """Raised when game parameters are malformed or inconsistent."""


class NashIterationError(RuntimeError):
    """Raised when a stage Nash point fails its certificate."""


def _finite(x, name) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise GameConfigError(f"{name} must be finite, got {x!r}")
    return arr


def _user_sum(x: np.ndarray):
    """Sum over the last (user) axis in index order from +0.0, user 0 first,
    in any batch shape: the one order of every payoff map (``np.sum`` keeps
    it only below 8 terms).  A user-major ``(R, n)`` view of a C-contiguous
    ``(n, R)`` block, R > 1, is one ``np.add.reduce`` over its rows, which
    numpy adds in row order; a contiguous batch is added as flat columns."""
    if not x.shape[-1]:   # no users: +0.0 per row
        return np.zeros(x.shape[:-1])
    if x.ndim == 2 and x.shape[0] > 1 and x.T.flags.c_contiguous:   # (n, 1) reduces pairwise
        return np.add.reduce(x.T, axis=0, initial=0.0)
    if x.size <= x.shape[-1] ** 2:   # a few rows: one numpy call, not one per user
        return 0.0 + np.cumsum(x, axis=-1)[..., -1]
    rows = x.reshape(-1, x.shape[-1]) if x.flags.c_contiguous else x   # 1-D adds, no copy
    total = 0.0 + rows[..., 0]
    for k in range(1, x.shape[-1]):
        total += rows[..., k]
    return total.reshape(x.shape[:-1])


def _grid_rows(axes):
    """The product grid of ``axes`` as ``(len(axes), size)`` rows, one per
    axis, in ``np.meshgrid(..., indexing="ij")`` order; one column for no axes."""
    grid = np.empty((len(axes),) + tuple(len(ax) for ax in axes))
    for row, ax in zip(grid, np.ix_(*axes)):
        row[...] = ax
    return grid.reshape(len(axes), math.prod(grid.shape[1:]))


def _staircase(load, v):
    """Of points sorted by increasing ``load``, then decreasing ``v``: those
    whose ``v`` beats every point before them, as ``(load, v)``.  Every
    point has one of them at no larger load and no smaller ``v``."""
    beats = v > np.concatenate([[-np.inf], np.maximum.accumulate(v)[:-1]])
    return load[beats], v[beats]


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
    """The profile minmaxing every user at once; ``worst_user`` gains most by leaving it."""

    profile: ActionProfile
    payoffs: np.ndarray
    is_stage_nash: bool
    worst_gain: float
    worst_user: int


class StageGame:
    """Common interface for the concrete games: the queue class
    :class:`_QueueGame`, which the flow-control and packet-drop games share,
    and :class:`PowerControlGame`.

    Subclasses set ``n``, ``a_max`` (shape ``(n,)``) and ``a0_max`` (shape
    ``(a0_dim,)``), and implement ``payoff_unchecked``, ``best_responses``,
    ``payoff_jacobian`` and ``stage_nash``; everything else is derived from
    those maps.  :meth:`grid_blocks` and :meth:`line_payoffs` score whole
    profile blocks here; the queue class builds them from payoff factors.
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

    def grid_blocks(self, axes):
        """The product grid of ``axes`` (one 1-D array of actions per user)
        with the device at null, in ``np.meshgrid(..., indexing="ij")``
        order, cut into blocks: block b holds the T profiles b*T, ...,
        b*T + T - 1, which share their first two actions (T is the size of
        the other axes' grid, 1 below three users).  Returns ``(bounds,
        score)``.  ``score(lo, hi)`` gives the C-contiguous user-major
        payoffs ``(n, hi - lo)`` of profiles lo, ..., hi - 1, bit-equal to
        ``payoff_batch`` on them.  ``bounds(levels)`` gives
        ``(top, sums)`` for all blocks at once: ``top[b]`` is at least every
        row minimum of block b, and ``sums[k, b]`` at least the welfare sum,
        added in index order from +0.0, of each of its profiles whose row
        minimum is at least ``levels[k]`` (-inf where none can be).  Here
        every bound is +inf; the queue games bound them from payoff factors."""
        null, head, tail = self.null_intervention(), _grid_rows(axes[:2]).T, _grid_rows(axes[2:]).T

        def score(lo, hi):
            b, t = np.divmod(np.arange(lo, hi), len(tail))
            return np.ascontiguousarray(self.payoff_batch(null, np.hstack([head[b], tail[t]])).T)
        return lambda levels: (np.full(len(head), np.inf), np.full((len(levels), len(head)), np.inf)), score

    def line_payoffs(self, x, lines):
        """The payoffs along the lines of one coordinate-ascent pass, the
        device at null.  ``x`` (shape ``(S, n)``) holds the pass-start
        profiles and ``lines`` (``(S, P, n)``) the P values each start tries
        for each coordinate, ``lines[s, :, i]`` for coordinate i.  Yields,
        for i = 0, ..., n-1 in order, the C-contiguous user-major block ``(n,
        S, P)`` whose entry ``[j, s, k]`` is user j's payoff at ``x[s]`` with
        coordinate i set to ``lines[s, k, i]``.  ``x`` is read again after
        each block: the caller writes coordinate i's move into ``x[:, i]``
        before it asks for the next one, and a block may be one reused buffer,
        which holds only until then.  Each block equals ``payoff_batch``
        on its ``(S, P, n)`` profiles, moved to user-major, bit for bit."""
        null = self.null_intervention()
        prof = np.repeat(x[:, None, :], lines.shape[1], axis=1)
        for i in range(self.n):
            prof[:, :, i] = lines[:, :, i]
            yield np.ascontiguousarray(np.moveaxis(self.payoff_batch(null, prof), -1, 0))
            prof[:, :, i] = x[:, i, None]

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
        """Copy of this game with a different device action box; raises
        :class:`GameConfigError` for the packet-drop game, whose box is fixed."""
        cfg = self.to_config()
        cfg["a0_max"] = np.asarray(a0_max, dtype=float).reshape(-1).tolist()
        return game_from_config(cfg)


class _QueueGame(StageGame):
    """Users share an M/M/1 queue of service rate ``mu``.

    User ``i`` sends at rate ``a_i`` and values throughput-weighted delay as
    ``paid_i**beta_i * max(0, room - sum(a))``.  ``mu >= sum(a_max)`` is
    required so that the queue stays stable at every admissible profile;
    ``mu`` may sit up to ``BOX_TOL`` below it, where a load that rounds past
    ``mu`` saturates the queue and pays 0.
    The queue games differ only in the device's lever, stated by three
    hooks: the capacity the device leaves (:meth:`_room`, ``mu`` here), the
    paid rates and their slope in the own rates (:meth:`_paid`, ``a`` and
    1 here), and the users whose packets are all dropped (:meth:`_dropped`,
    none here).  The stage Nash point is closed-form (Bharath-Kumar &
    Jaffe, 1981).

    At null intervention the room is ``mu`` and the paid rate the sent
    rate, so :meth:`grid_blocks` and :meth:`line_payoffs` build their
    payoffs ``u_i = f_i * cap`` from factors, ``f_i = a_i**beta_i`` and
    ``cap = max(mu - load, 0)``, and never score a profile block whole.
    Each product is ``payoff_batch``'s bit for bit at every n: the load is
    added in index order from +0.0, as :func:`_user_sum` does, and each
    ``a**beta`` is taken in the call shape of :meth:`payoff_unchecked`, an
    ``(..., n)`` array against the whole ``beta`` vector.  (numpy squares,
    or takes a square root, where it sees an exponent of 2 or 0.5 as one
    value -- a scalar, a stride-0 broadcast or a ``(1,)`` array -- and that
    rounds otherwise than ``pow``.)
    """

    def __init__(self, mu: float, beta, a_max):
        self.mu = float(_finite(mu, "mu"))
        n = len(np.atleast_1d(np.asarray(beta, dtype=float)))
        self.n = n
        self.beta = _as_vector(beta, n, "beta")
        self.a_max = _as_vector(a_max, n, "a_max")
        if self.mu <= 0 or np.any(self.beta <= 0) or np.any(self.a_max <= 0):
            raise GameConfigError("mu, beta and a_max must be strictly positive")
        if self.mu < np.sum(self.a_max) - BOX_TOL:
            raise GameConfigError(
                f"queue underprovisioned: mu={self.mu} < sum(a_max)={np.sum(self.a_max)}")

    # -- the device's lever ----------------------------------------------

    def _room(self, a0):
        """The capacity left at device action ``a0``, before the users' load."""
        return self.mu

    def _paid(self, a0, a):
        """The rates users are paid for at ``(a0, a)``, and their slope in
        the own rates."""
        return a, 1.0

    def _dropped(self, a0):
        """Which users the device pays zero whatever they send."""
        return False

    # -- the queue -------------------------------------------------------

    def payoff_unchecked(self, a0, a):
        cap = np.maximum(self._room(a0) - _user_sum(a), 0.0)
        return np.power(self._paid(a0, a)[0], self.beta) * cap[..., None]

    def payoff_jacobian(self, a0, a):
        a0, a = np.asarray(a0, dtype=float), np.asarray(a, dtype=float)
        cap = self._room(a0) - _user_sum(a)
        paid, scale = self._paid(a0, a)
        # d u_i / d a_j = beta_i paid_i**(beta_i - 1) scale_i cap [i = j]
        # + paid_i**beta_i slope.  A saturated queue pays zero and no rate
        # moves that: at the kink (cap exactly 0) the saturated side's slope
        # is taken.  At paid_i = 0 with beta_i < 1 the own slope is
        # infinite; there it is taken at paid_i = 2**-26 (the square root of
        # the float epsilon, the forward step of 2-point differencing at
        # zero), a large finite slope pointing into the box.
        slope = np.where(cap > 0.0, -1.0, 0.0)
        cap = np.maximum(cap, 0.0)
        base = np.where((paid == 0.0) & (self.beta < 1.0), 2.0 ** -26, paid)
        # the capacity term is the same in every column j
        shared = np.power(paid, self.beta) * np.expand_dims(slope, -1)
        jac = np.repeat(shared[..., :, None], self.n, axis=-1)
        users = np.arange(self.n)
        jac[..., users, users] += self.beta * np.power(base, self.beta - 1.0) * scale * cap[..., None]
        return jac

    def best_responses(self, a0, a):
        free = np.asarray(self._room(a0))[..., None] - (_user_sum(a)[..., None] - a)
        interior = np.minimum(self.beta / (1.0 + self.beta) * free, self.a_max)
        # a saturated queue, or a device dropping all of i's packets, pays i
        # zero whatever it sends; the full rate keeps the all-max profile a
        # best-response fixed point
        return np.where(self._dropped(a0) | (free <= 0.0), self.a_max, interior)

    def stage_nash(self, a0):
        """All-max when no user the device leaves paid has capacity left,
        else the dropped users at their caps and every other user at
        ``min(beta_i C, a_max_i)`` of the residual capacity ``C``, solving
        ``C + sum(min(beta_i C, a_max_i)) = room - dropped load`` one segment
        at a time over the sorted breakpoints ``a_max_i / beta_i``."""
        room, fixed = self._room(a0), self._dropped(a0) | np.zeros(self.n, dtype=bool)
        beta, a = self.beta, self.a_max.astype(float).copy()
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

    def grid_blocks(self, axes):
        # one a**beta table for all axes.  A profile's factors are its block's
        # head factors (the first two users) and its tail point's (the
        # others); its load is added in index order, the head's then each
        # tail user's.  Rounding is monotone and cap >= 0, so the least payoff
        # min_i fl(f_i * cap) is fl(min_i f_i * cap)
        table = np.zeros((max(len(ax) for ax in axes), self.n))
        for i, ax in enumerate(axes):
            table[:len(ax), i] = ax
        table = np.power(table, self.beta)
        h, T = min(self.n, 2), math.prod(len(ax) for ax in axes[2:])
        factors = [table[:len(ax), i] for i, ax in enumerate(axes)]
        head, head_f, tail, tail_f = (_grid_rows(cols) for cols in (axes[:h], factors[:h],
                                                                     axes[h:], factors[h:]))
        hload, hmin = _user_sum(head.T), np.min(head_f, axis=0)
        # the least tail factor, at most the largest head factor: that leaves
        # each min(hmin, low) as it is, and a tail of no users finite
        low, tload = np.min(tail_f, axis=0, initial=np.max(head_f)), _user_sum(tail.T)
        # no load exceeds the in-order sum of the axes' largest values, since
        # rounding is monotone: at most mu, no capacity needs the floor at 0
        peak = 0.0
        for ax in axes:
            peak += np.max(ax)

        def score(lo, hi):
            b, t = np.divmod(np.arange(lo, hi), T)
            load = hload[b]
            for col in tail:
                load += col[t]
            cap = np.subtract(self.mu, load, out=load)
            if peak > self.mu:
                np.maximum(cap, 0.0, out=cap)
            UT = np.empty((self.n, hi - lo))
            np.take(head_f, b, axis=1, out=UT[:h], mode="wrap")
            np.take(tail_f, t, axis=1, out=UT[h:], mode="wrap")
            return np.multiply(UT, cap, out=UT)

        def bounds(levels):
            # a profile's computed capacity, and room[b] - tload[t] less the
            # slack, each lie within 2n roundings of size 2**-53 (mu + peak) of
            # mu less its exact load (Higham, Accuracy and Stability of
            # Numerical Algorithms, 4.2); the slack SCREEN_SLACK (mu + peak)
            # covers both.  The capacity falls as the tail load grows, so over
            # a block a factor times it peaks on a staircase of tail points
            room = (self.mu - hload) + SCREEN_SLACK * (self.mu + peak)
            by = np.lexsort((-low, tload))
            load, v = _staircase(tload[by], low[by])
            # v rises along the staircase, so with s the first point where it
            # reaches hmin, top = max(v * cap before s, hmin * cap at s); both
            # tables are built once per distinct room
            rooms, at = np.unique(room, return_inverse=True)
            cap = np.zeros((len(rooms), len(v) + 1))
            np.maximum(np.subtract.outer(rooms, load), 0.0, out=cap[:, :-1])
            below = np.zeros_like(cap)
            np.maximum.accumulate(v * cap[:, :-1], axis=1, out=below[:, 1:])
            s = np.searchsorted(v, hmin)
            top = np.maximum(below[at, s], hmin * cap[at, s])
            # a profile meets level g only if fl(f * cap) >= g for its least
            # head factor and for its least tail factor, and so at the caps
            # bounding its own: a tail point must clear g at the largest room
            # of the block's group (16 groups of nearby room), and a block on
            # the staircase point it stands on.  The sum in index order is at
            # most cap * sum(f) * (1 + 2**-53)**(n + 1), which the slack (at
            # least SCREEN_SLACK times any capacity) covers too; the least
            # normal float covers a subnormal product's absolute error
            fsum, tsum = _user_sum(head_f.T), _user_sum(tail_f.T)
            by = np.lexsort((-tsum, tload))
            tload_by, tsum_by, low_by = tload[by], tsum[by], low[by]
            sums = np.full((len(levels), len(room)), -np.inf)
            for group in np.array_split(np.argsort(room), min(16, len(room))):
                clear = low_by * np.maximum(room[group].max() - tload_by, 0.0)
                for row, g in zip(sums, levels):
                    # a block whose row minima stay below g has no profile to sum
                    blocks = group[top[group] >= g]
                    kept = clear >= g
                    load, v = _staircase(tload_by[kept], tsum_by[kept])
                    cap = np.maximum(np.subtract.outer(room[blocks], load), 0.0)
                    val = np.add.outer(fsum[blocks], v)
                    val *= cap
                    val[hmin[blocks, None] * cap < g] = -np.inf
                    row[blocks] = np.max(val, axis=1, initial=-np.inf)
            sums += np.finfo(float).tiny
            return top, sums
        return bounds, score

    def line_payoffs(self, x, lines):
        """:meth:`StageGame.line_payoffs` from payoff factors, into one reused
        ``(n, S, P)`` buffer: the lines' ``a**beta`` once per pass, the
        current profiles' at each step.  Step i adds its load from the prefix
        of the coordinates before i (moved this pass), the line's value, then
        the pass-start columns after i, which hold still until their own
        step: the first two go into column i, dead from then on, and one
        ``np.add.reduce`` adds columns i, ..., n-1 in that order."""
        n, (S, P, _) = self.n, lines.shape
        power = lambda a: np.power(np.ascontiguousarray(a), self.beta)
        # user-major (n, S, P) tables: the lines' factors, the pass-start
        # columns, and the factors of the current profiles
        factors = power(lines).transpose(2, 0, 1).copy()
        cols = np.repeat(x.T[:, :, None], P, axis=2)
        held = np.repeat(power(x).T[:, :, None], P, axis=2)
        head, block = np.zeros(S), np.empty((n, S, P))   # the load of no users
        for i in range(n):
            np.add(head[:, None], lines[:, :, i], out=cols[i])
            load = np.add.reduce(cols[i:], axis=0)
            cap = np.maximum(np.subtract(self.mu, load, out=load), 0.0, out=load)
            np.multiply(held, cap, out=block)
            np.multiply(factors[i], cap, out=block[i])
            yield block
            # coordinate i's move, now in x: onto the prefix, and its factors
            head = head + x[:, i]
            held[i] = power(x)[:, i, None]


class FlowControlGame(_QueueGame):
    """The queue game where the device takes ``a0`` of the capacity for
    itself: user ``i`` is paid ``a_i**beta_i * max(0, mu - a0 - sum(a))``.

    >>> g = FlowControlGame(mu=10, beta=[2, 2, 3, 3], a_max=[2.5] * 4, a0_max=[2.5])
    >>> g.payoff([0.0], [2.5, 2.5, 2.5, 2.5])
    array([0., 0., 0., 0.])
    """

    kind = "flow"

    def __init__(self, mu: float, beta, a_max, a0_max=0.0):
        super().__init__(mu, beta, a_max)
        a0 = _finite(a0_max, "a0_max").reshape(-1)
        if a0.shape != (1,):
            raise GameConfigError("flow-control device action is a scalar capacity grab")
        if a0[0] < 0:
            raise GameConfigError("a0_max must be nonnegative")
        self.a0_max = a0

    def _room(self, a0):
        return self.mu - a0[..., 0]

    def to_config(self):
        return {"kind": self.kind, "mu": self.mu, "beta": self.beta.tolist(),
                "a_max": self.a_max.tolist(), "a0_max": self.a0_max.tolist()}


class PacketDropGame(_QueueGame):
    """The queue game where the device drops user ``i``'s packets w.p.
    ``a0[i]``: user ``i`` is paid ``((1 - a0_i) a_i)**beta_i * max(0, mu -
    sum(a))``.  Dropping shrinks the rate a user is paid for, while the
    full sent rate still congests the queue.  The device box is the unit
    box, fixed.

    A user whose packets are all dropped is paid zero, and sends its most:

    >>> g = PacketDropGame(mu=10, beta=[2, 2, 3, 3], a_max=[2.5] * 4)
    >>> g.payoff([1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])
    array([0., 6., 6., 6.])
    >>> g.best_response(0, [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])
    2.5
    """

    kind = "packet_drop"

    def __init__(self, mu: float, beta, a_max):
        super().__init__(mu, beta, a_max)
        self.a0_max = np.ones(self.n)

    def _paid(self, a0, a):
        kept = 1.0 - a0
        return np.maximum(kept * a, 0.0), kept

    def _dropped(self, a0):
        return a0 >= 1.0 - 1e-12

    def minmax_minimizer(self, i):
        # dropping user i's packets w.p. 1 already floors them at zero;
        # other users need not be involved beyond playing their maxima
        a0 = np.zeros(self.n)
        a0[i] = 1.0
        return a0

    def to_config(self):
        return {"kind": self.kind, "mu": self.mu, "beta": self.beta.tolist(),
                "a_max": self.a_max.tolist()}


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

    def _signal(self, a0, a):
        """Own received power and noise plus interference at each receiver, the
        interference added in index order by :func:`_user_sum`, so no batch
        shape moves a bit."""
        own = np.diagonal(self.gain) * a
        cross = _user_sum(a[..., None, :] * self.gain) - own
        return own, self.noise + self.intervention_gain * a0[..., 0:1] + cross

    def payoff_unchecked(self, a0, a):
        own, denom = self._signal(a0, a)
        return np.log2(1.0 + own / denom)

    def payoff_jacobian(self, a0, a):
        own, denom = self._signal(np.asarray(a0, dtype=float), np.asarray(a, dtype=float))
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
    try:
        return _GAME_KINDS[kind](**cfg)
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


def _minmax_table(game: StageGame, with_intervention: bool = True):
    """Every user's minmax profile (see :func:`minmax`) and its payoffs,
    ``(a0, a, u)`` of shapes ``(n, a0_dim)``, ``(n, n)`` and ``(n, n)``:
    row ``i`` holds user ``i`` to ``u[i, i]``.  One
    :meth:`StageGame.best_responses` call and one payoff call fill it."""
    a0 = np.array([game.minmax_minimizer(i) if with_intervention else game.null_intervention()
                   for i in range(game.n)])
    a = np.tile(game.a_max.astype(float), (game.n, 1))
    np.fill_diagonal(a, np.diagonal(game.best_responses(a0, a)))
    return a0, a, game.payoff_batch(a0, a)


def minmax(game: StageGame, i: int, with_intervention: bool = True) -> MinmaxResult:
    """User ``i``'s minmax value, with or without the device's help.

    Payoffs in the games in scope are decreasing in the device action and
    in everyone else's action, so the minimising profile is the all-max
    profile (device at ``minmax_minimizer(i)`` when allowed, at null
    otherwise); ``i`` then plays a best response against it.
    """
    a0, a, u = _minmax_table(game, with_intervention)
    return MinmaxResult(user=i, value=float(u[i, i]), profile=ActionProfile(a0=a0[i], a=a[i]),
                        with_intervention=with_intervention)


def minmax_values(game: StageGame, with_intervention: bool = True) -> np.ndarray:
    """Every user's :func:`minmax` value, the diagonal of one minmax table."""
    return np.diagonal(_minmax_table(game, with_intervention)[2]).copy()


def mutual_minmax(game: StageGame) -> MutualMinmaxResult:
    """Profile minmaxing all users at once: device and users at their maxima.

    ``is_stage_nash`` reports whether no user can profitably deviate from
    it, which is what makes a single absorbing punishment phase credible.
    """
    a0 = game.full_intervention()
    a = game.a_max.astype(float).copy()
    u = game.payoff_batch(a0, a)
    gain = best_response_payoffs(game, a0, a) - u
    i = int(np.argmax(gain))
    return MutualMinmaxResult(profile=ActionProfile(a0=a0, a=a), payoffs=u, worst_user=i,
                              is_stage_nash=bool(gain[i] <= GAIN_TOL), worst_gain=float(gain[i]))


def max_stage_payoff(game: StageGame, a0=None) -> float:
    """Upper bound ``max_i max_a u_i(a0, a)`` used by the folk-theorem bounds:
    the best solo payoff at ``a0`` (the null action when ``None``).

    Payoffs decrease in the device action and in everyone else's action
    (the premise :func:`minmax` rests on too), so no profile pays any user
    more than best-responding while the others sit at zero.
    """
    a0 = game.null_intervention() if a0 is None else np.asarray(a0, dtype=float).reshape(-1)
    return float(np.max(best_response_payoffs(game, a0, np.zeros(game.n))))
