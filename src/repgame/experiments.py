"""Experiment drivers and CSV emission.

:func:`run_experiment` dispatches on the experiment name used by the
command line:

* ``table2``   -- welfare comparison of four enforcement schemes across
  guarantee levels (stage equilibrium, best one-shot profile meeting the
  floors, repeated play without and with the intervention device).
* ``fig3``     -- minimum enforcing discount factor vs punishment length,
  one curve per device cap.
* ``scaling``  -- sum and fairness welfare vs population size under two
  capacity-provisioning rules.
* ``tradeoff`` -- threshold-discount / guarantee-level / device-cap
  trade-off curves.
* ``verify``   -- build the protocol for one target and run both
  deviation scanners against it.

Everything is deterministic: the same config produces the same CSV bytes.
scipy is imported at its one use site (``minimize`` in the one-shot
polish), so ``fig3`` and ``tradeoff`` load none of it.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .automata import _bisect, _min_delta_for_L, verify_spe
from .design import (FLOOR_TOL, WELFARES, DesignError, DeviationStats, assemble_protocol,
                     delta_bar, design_protocol, deviation_stats, generate_outcome_path,
                     guarantee_feasible, optimize_welfare)
from .games import (SCREEN_SLACK, FlowControlGame, GameConfigError, StageGame, _user_sum,
                    game_from_config, minmax_values, mutual_minmax, solve_stage_nash)
from .simulate import profitability_scan

EXPERIMENTS = ("table2", "fig3", "scaling", "tradeoff", "verify")
SCHEMES = ("nash", "one_shot", "repeated_no_intervention", "repeated_with_intervention")
TRADEOFF_AXES = ("delta_vs_gamma", "a0_vs_delta", "a0_vs_gamma")

BASELINE_COLUMNS = ("scheme", "gamma", "welfare_kind", "value", "min_delta")
TRADEOFF_COLUMNS = ("axis", "gamma", "delta", "a0_max", "min_delta", "required_a0")

_CONFIG_KEYS = {"game", "gamma", "L", "a0", "n_range", "delta_grid", "welfare",
                "delta", "target_gamma", "path"}

# the one-shot search: grid step, most grid points swept (past that it starts
# from the box and the stage Nash point), ascent passes, points per ascent line
GRID_STEP = 0.05
GRID_CAP = 8_000_000
PASSES = 50
LINE_POINTS = 33
REFERENCE_MARGIN = 1.1   # the reference path clears this multiple of the no-device minmax
_CHUNK = 1 << 15         # most grid profiles scored at once where every block is scored


class ConfigError(ValueError):
    """A config file that cannot be turned into a runnable experiment."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    experiment: str
    game: dict
    gamma: tuple          # guarantee levels (uniform per user)
    L_values: tuple       # punishment lengths
    a0_values: tuple      # device caps to sweep
    n_range: tuple        # inclusive population range (lo, hi)
    delta_grid: tuple
    welfare: str
    delta: float | None
    target_gamma: float
    path: tuple | None    # explicit stage profile for the length curves
    digest: str


def _canonical(raw: dict) -> str:
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def _real(x) -> float:
    """``x`` as a float; a bool, a string or any other non-number raises TypeError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(x)
    return float(x)


def _floats(raw, key, default) -> tuple:
    """Real entries; a bool or a string is rejected, not coerced."""
    val = raw.get(key, default)
    try:
        out = tuple(_real(x) for x in val)
    except (TypeError, OverflowError):
        raise ConfigError(f"{key!r} must be a list of numbers, got {val!r}") from None
    if not out:
        raise ConfigError(f"{key!r} is empty")
    if not all(np.isfinite(out)):
        raise ConfigError(f"{key!r} contains non-finite entries: {val!r}")
    return out


def _ints(raw, key, default) -> tuple:
    """Integer entries within a float's range (``math.isfinite`` raises past it);
    a bool, a string or a fractional number is rejected, not coerced."""
    val = raw.get(key, default)
    try:
        out = tuple(int(x) for x in val)
        exact = all(not isinstance(x, bool) and x == k and math.isfinite(k) for x, k in zip(val, out))
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ConfigError(f"{key!r} must be a list of integers within a float's range, got {val!r}")
    return out


def _number(raw, key, default) -> float:
    """A real number; a bool or a string is rejected, not coerced."""
    val = raw.get(key, default)
    try:
        out = _real(val)
    except (TypeError, OverflowError):
        raise ConfigError(f"{key!r} must be a number, got {val!r}") from None
    if not np.isfinite(out):
        raise ConfigError(f"{key!r} must be finite, got {val!r}")
    return out


def load_config(path, experiment: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Unknown keys are rejected (they are usually typos), every grid must
    be nonempty, and the game block must build a valid stage game.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except (OSError, ValueError) as exc:   # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"config cannot be read as JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; expected a subset of {sorted(_CONFIG_KEYS)}")
    if "game" not in raw or not isinstance(raw["game"], dict):
        raise ConfigError("config needs a 'game' object")
    try:
        game = game_from_config(raw["game"])
    except GameConfigError as exc:
        raise ConfigError(f"bad game block: {exc}") from None

    gamma = _floats(raw, "gamma", (1.0, 3.0, 7.0, 14.0))
    L_values = _ints(raw, "L", tuple(range(1, 13)))
    if not L_values or min(L_values) < 1:
        raise ConfigError("'L' must be a nonempty list of lengths >= 1")
    a0_values = _floats(raw, "a0", (0.0, 0.5, 1.0, 2.5))
    if min(a0_values) < 0:
        raise ConfigError("'a0' entries must be nonnegative")
    n_range = _ints(raw, "n_range", (2, 12))
    if len(n_range) != 2 or not 2 <= n_range[0] <= n_range[1]:
        raise ConfigError(f"'n_range' must be [lo, hi] with 2 <= lo <= hi, got {list(n_range)}")
    lo, hi = n_range
    delta_grid = _floats(raw, "delta_grid", (0.85, 0.9, 0.95, 0.99))
    if min(delta_grid) <= 0.0 or max(delta_grid) >= 1.0:
        raise ConfigError("'delta_grid' entries must lie strictly inside (0, 1)")
    welfare = raw.get("welfare", "sum")
    if welfare not in WELFARES:
        raise ConfigError(f"unknown welfare {welfare!r}; expected one of {WELFARES}")
    delta = raw.get("delta")
    if delta is not None:
        delta = _number(raw, "delta", None)
        if not 0.0 < delta < 1.0:
            raise ConfigError(f"'delta' must lie in (0, 1), got {delta}")
    if experiment == "verify" and delta is None:
        raise ConfigError("the verify experiment needs a 'delta' to check the protocol at")
    target_gamma = _number(raw, "target_gamma", gamma[0])
    path = raw.get("path")
    if path is not None:
        path = _floats(raw, "path", None)
        arr = np.asarray(path)
        if arr.shape != (game.n,):
            raise ConfigError(f"'path' must list one action per user ({game.n}), got {len(path)}")
        if np.any(arr < 0) or np.any(arr > game.a_max + 1e-9):
            raise ConfigError("'path' actions fall outside the action boxes")

    return ExperimentConfig(experiment=experiment, game=dict(raw["game"]), gamma=gamma,
                            L_values=L_values, a0_values=a0_values, n_range=(lo, hi),
                            delta_grid=delta_grid, welfare=welfare, delta=delta,
                            target_gamma=target_gamma, path=path,
                            digest=hashlib.sha256(_canonical(raw).encode()).hexdigest()[:16])


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

@dataclass
class ResultTable:
    """Rectangular results: named columns, rows of numbers / strings / NA."""

    columns: tuple
    rows: list
    provenance: str = f"tool_version={__version__}"

    def __post_init__(self):
        self.columns = tuple(self.columns)
        width = len(self.columns)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(f"ragged table: row {row!r} vs columns {self.columns}")
            for x in row:
                if x is None or isinstance(x, str):
                    continue
                if not np.isfinite(float(x)):
                    raise ValueError(f"non-finite cell {x!r} in row {row!r}; use None for NA")

    def to_csv_text(self) -> str:
        lines = [f"# {self.provenance}", ",".join(self.columns)]
        lines.extend(",".join(_cell(x) for x in row) for row in self.rows)
        return "\n".join(lines) + "\n"


def _cell(x) -> str:
    if x is None:
        return "NA"
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return str(int(x))
    return f"{float(x):.6g}"


def emit_curves(table: ResultTable, path) -> Path:
    """Write the table as CSV: provenance comment, header, 6 significant
    digits, NA for missing cells.  Idempotent."""
    if not table.rows:
        raise ValueError("refusing to write an empty table")
    dest = Path(path)
    dest.write_text(table.to_csv_text())
    return dest


# ---------------------------------------------------------------------------
# one-shot baseline search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    value: float
    profile: np.ndarray
    payoffs: np.ndarray


def _score(UT: np.ndarray, floors: np.ndarray, maxmin: np.ndarray):
    """Rank the profiles of the user-major payoff block ``UT`` (shape
    ``(n, R)``, one column per profile), each against its own floors
    (``floors``, broadcast to ``(n, R)``) and welfare (``maxmin``, a boolean
    "is maxmin" mask broadcast to length R): feasibility first, then
    welfare (infeasible profiles rank by their worst floor shortfall, so
    ascent can climb into the feasible set).  Returns the length-R ``val``:
    the welfare where the floor margin is at least ``-FLOOR_TOL``, the
    margin elsewhere.  Payoffs are nonnegative, so ``val`` alone ranks, and
    ``val >= 0`` is feasibility.  The welfare sum adds the rows in index
    order by :func:`_user_sum`, as the payoff maps do.  This is the one
    rule that decides a one-shot profile's feasibility, rank and value."""
    val = np.minimum.reduce(UT - floors, axis=0)
    welfare = _user_sum(UT.T)
    np.copyto(welfare, np.minimum.reduce(UT, axis=0), where=maxmin)
    np.copyto(val, welfare, where=np.greater_equal(val, -FLOOR_TOL))
    return val


def _take(best, lo, UT, cells):
    """Score grid profiles ``lo, lo + 1, ...`` (user-major payoffs ``UT``)
    with :func:`_score` for every ``(gamma, kind)`` cell, keeping in ``best``
    each cell's largest ``(ok, val, -index)``: the first index wins ties,
    so any order of calls picks what one call on the whole grid picks."""
    for k, (gamma, kind) in enumerate(cells):
        val = _score(UT, gamma[:, None], kind == "maxmin")
        j = int(np.argmax(val))
        key = bool(val[j] >= 0.0), float(val[j]), -lo - j
        best[k] = max(key, best[k] or key)


def _grid_pass(game: StageGame, cells):
    """One pass over the product action grid of step ``GRID_STEP``, scored
    for every ``(gamma, kind)`` cell at once by :func:`_take`.  Returns one
    seed profile per cell, or None when the grid would exceed ``GRID_CAP``
    points.

    The grid is read through :meth:`StageGame.grid_blocks` in blocks of
    the profiles that share their first two actions.  Rounding is
    monotone, so a profile's margin, at most ``fl(u_k - gamma_k)`` at its
    least payoff ``u_k``, is at most ``fl(u_k - g)`` at the least floor ``g
    = min(gamma)`` and ``fl(top - g)`` at its block's ``top``; one that
    meets ``gamma`` has a row minimum of at least ``g - FLOOR_TOL`` (less
    ``SCREEN_SLACK`` of it), where the sum bounds are asked.  So each block
    gets a key none of its profiles beats: whether the bounds let it meet
    ``g``, then its bound (``top`` for maxmin, the sum's at ``g`` for sum)
    if so, else ``fl(top - g)``.  Each cell visits blocks in descending
    key, the lower index first, scoring each for every cell, until the
    next key can neither beat the cell's best nor tie it at a lower index.
    Grids of at most ``_CHUNK`` profiles and games whose bounds are +inf
    are scored whole, in chunks of ``_CHUNK``.  Either way every cell picks
    what the row-major rule picks."""
    axes = [np.unique(np.concatenate([np.arange(0.0, am, GRID_STEP), [am]]))
            for am in game.a_max]
    shape = tuple(len(ax) for ax in axes)
    # an exact integer: the int64 product wraps past 15 users of 21 points
    size, T = math.prod(shape), math.prod(shape[2:])
    if size > GRID_CAP:
        return None
    levels = sorted({float(np.min(gamma)) for gamma, kind in cells if kind == "sum"})
    bounds, score = game.grid_blocks(axes)
    best = [None] * len(cells)
    whole = size <= _CHUNK
    if not whole:
        top, sums = bounds([g - FLOOR_TOL - SCREEN_SLACK * (abs(g) + FLOOR_TOL) for g in levels])
        whole = np.isinf(top).any()
    if whole:
        for lo in range(0, size, _CHUNK):
            _take(best, lo, score(lo, min(lo + _CHUNK, size)), cells)
    else:
        seen = set()
        for k, (gamma, kind) in enumerate(cells):
            g = float(np.min(gamma))
            bound, margin = sums[levels.index(g)] if kind == "sum" else top, top - g
            ok = (margin >= -FLOOR_TOL) & (bound > -np.inf)
            val = np.where(ok, bound, margin)
            order = np.lexsort((-val, ~ok))
            for b, key in zip(order.tolist(), zip(ok[order].tolist(), val[order].tolist())):
                if best[k] is not None and key + (-b,) <= best[k][:2] + (-(-best[k][2] // T),):
                    break
                if b not in seen:
                    seen.add(b)
                    _take(best, b * T, score(b * T, b * T + T), cells)
    return [np.array([ax[i] for ax, i in zip(axes, np.unravel_index(-j, shape))])
            for _, _, j in best]


def _seeds(game: StageGame, cells, ne=None) -> list:
    """One ascent seed per ``(gamma, kind)`` cell: its pick of the grid pass,
    or past ``GRID_CAP`` the same four starts for every cell -- half, three
    quarters and all of the action box, then the stage Nash point ``ne``
    (solved here when not given)."""
    seeds = _grid_pass(game, cells)
    if seeds is not None:
        return seeds
    ne = solve_stage_nash(game) if ne is None else ne
    starts = np.array([game.a_max * 0.5, game.a_max * 0.75, game.a_max.astype(float), ne.a])
    return [starts] * len(cells)


def constrained_welfare_search(game: StageGame, gamma, kind: str) -> SearchResult | None:
    """Best stage payoff (device quiet) meeting per-user floors.

    Seeded by :func:`_seeds` (the product grid when it fits under
    ``GRID_CAP`` points, otherwise the box and stage Nash starts) and
    finished by :func:`_search`: ``PASSES`` rounds of shrinking-window
    coordinate ascent and an SLSQP polish.  The problem is nonconvex, so
    the result is a certified feasible point, not a certified optimum.
    Returns None when no feasible profile was found, and at once when a
    floor is ``+inf``, which no profile reaches.  Raises ValueError for a
    NaN floor or for a ``gamma`` that is neither one floor nor ``n`` of them.
    """
    if kind not in WELFARES:
        raise ValueError(f"unknown welfare {kind!r}")
    floors = np.asarray(gamma, dtype=float)
    if floors.shape not in ((), (1,), (game.n,)) or np.isnan(floors).any():
        raise ValueError(f"gamma must be one floor or {game.n}, none of them NaN, got {gamma!r}")
    if np.isposinf(floors).any():
        return None
    cells = [(np.broadcast_to(floors, (game.n,)), kind)]
    return _search(game, cells, _seeds(game, cells))[0]


def _search(game: StageGame, cells, seeds) -> list:
    """One-shot search of every ``(gamma, kind)`` cell from its seed (a start
    ``(n,)`` or a stack ``(S, n)``): all starts climb in one lockstep
    :func:`_ascend`, each cell's first best start is polished with SLSQP
    (see :func:`_polish`) and pulled back towards the ascent point while it
    breaks a floor more than that point does.  :func:`_score` scores both
    points at once; the polished one is kept only where its ``val`` is
    larger, and the kept point's ``val`` is the reported value.  One
    :class:`SearchResult` per cell, None where none was feasible."""
    stacks = [np.atleast_2d(np.asarray(seed, dtype=float)) for seed in seeds]
    owner = np.repeat(np.arange(len(cells)), [len(stack) for stack in stacks])
    vals, profiles = _ascend(game, np.concatenate(stacks), np.array([cells[c][0] for c in owner]),
                             [cells[c][1] for c in owner])
    null = game.null_intervention()
    found = []
    for c, (gamma, kind) in enumerate(cells):
        best = max(np.flatnonzero(owner == c), key=vals.__getitem__)
        if vals[best] < 0.0:
            found.append(None)
            continue
        a = profiles[best]
        u = game.payoff_batch(null, a)
        polished = _polish(game, a, gamma, kind)
        u_pol = game.payoff(null, polished)
        # SLSQP may buy welfare inside the FLOOR_TOL allowance: bisect back to
        # the largest step from the ascent point that holds the floors as well
        hold = min(0.0, float(np.min(u - gamma)))
        if np.min(u_pol - gamma) < hold:
            step = polished - a
            t = _bisect(lambda s: np.min(game.payoff_batch(null, a + s * step) - gamma) >= hold, 1.0, 0.0)
            polished = a + t * step
            u_pol = game.payoff(null, polished)
        val = _score(np.column_stack([u, u_pol]), gamma[:, None], kind == "maxmin")
        if val[1] > val[0]:
            a, u = polished, u_pol
        found.append(SearchResult(value=float(val.max()), profile=a, payoffs=u))
    return found


def _polish(game: StageGame, start: np.ndarray, gamma: np.ndarray, kind: str):
    """Smooth constrained refinement of a feasible ascent result.

    Coordinate ascent stalls on the maxmin ridge: once all payoffs are
    equal, raising any one rate lowers everyone else's payoff.  SLSQP
    moves all rates at once.  Maxmin uses the epigraph form (maximize
    ``t`` subject to ``u_i(a) >= t`` and ``u_i(a) >= gamma_i``), sum
    keeps the floors as constraints.  The objective gradient and the
    constraint Jacobians come in closed form from
    :meth:`StageGame.payoff_jacobian`, so SLSQP differences nothing.
    Returns the solver's profile clipped to the action box, unchecked: the
    caller accepts it only after ``game.payoff`` confirms it.
    """
    from scipy.optimize import minimize
    null = game.null_intervention()
    n = game.n
    box = [(0.0, float(m)) for m in game.a_max]
    u = lambda x: game.payoff_batch(null, x[:n])
    jac = lambda x: game.payoff_jacobian(null, x[:n])
    if kind == "sum":
        x0, bounds, floors_jac, cons = start, box, jac, []
        obj, grad = lambda x: -float(np.sum(u(x))), lambda x: -jac(x).sum(axis=0)
    else:
        x0, bounds = np.append(start, np.min(u(start))), box + [(None, None)]
        # the last column is the epigraph variable t: 0 in the floors, -1 in u_i >= t
        floors_jac = lambda x: np.column_stack([jac(x), np.zeros(n)])
        cons = [{"type": "ineq", "fun": lambda x: u(x) - x[n],
                 "jac": lambda x: np.column_stack([jac(x), -np.ones(n)])}]
        obj, grad = lambda x: -float(x[n]), lambda x: -np.eye(n + 1)[n]
    cons = [{"type": "ineq", "fun": lambda x: u(x) - gamma, "jac": floors_jac}] + cons
    res = minimize(obj, x0, jac=grad, method="SLSQP", bounds=bounds, constraints=cons,
                   options={"ftol": 1e-14, "maxiter": 200})
    return np.clip(res.x[:n], 0.0, game.a_max)


def _ascend(game: StageGame, starts: np.ndarray, gamma, kind):
    """Coordinate ascent with a geometrically shrinking search window, for
    an ``(S, n)`` stack of starts climbing in lockstep through all
    ``PASSES`` passes, each against its own floors and welfare (``gamma``
    broadcasts to ``(S, n)``, ``kind`` to ``(S,)``): each step scores the
    lines of all starts at once, and each start moves exactly as it would
    alone.  Returns ``(val, profiles)`` of shapes ``(S,)`` and ``(S, n)``;
    ``val >= 0`` is feasibility.

    Coordinate i changes only at step i of a pass, so every coordinate's
    window and ``LINE_POINTS``-point line is built once at the start of the
    pass, in the arithmetic of ``np.linspace`` per start, as one ``(S,
    LINE_POINTS, n)`` table.  :meth:`StageGame.line_payoffs` turns it into
    one C-contiguous user-major ``(n, S, LINE_POINTS)`` payoff block per
    step, which :func:`_score` reduces against the lines' floors and kinds,
    built once per call: each step makes the same numpy calls, whatever n is.

    :func:`_score`'s ``val`` ranks by feasibility first.  Each line's pick
    is its first largest ``val``, and a start moves where that beats its
    own by more than 1e-13; the move is written into ``profiles``, which
    the next step reads."""
    a = np.clip(starts, 0.0, game.a_max)
    floors = np.broadcast_to(gamma, a.shape).T
    maxmin = np.broadcast_to(np.asarray(kind) == "maxmin", len(a))
    val = _score(game.payoff_batch(game.null_intervention(), a).T, floors, maxmin)
    S, R = len(a), len(a) * LINE_POINTS
    line = np.repeat(floors, LINE_POINTS, axis=1), np.repeat(maxmin, LINE_POINTS)
    at, k = np.arange(S), np.arange(LINE_POINTS, dtype=float)[:, None]
    for p in range(PASSES):
        half = 0.5 * 0.7 ** p * game.a_max
        lo = np.maximum(0.0, a - half)
        hi = np.minimum(game.a_max, a + half)
        # np.linspace(lo, hi, LINE_POINTS) for every start and coordinate, in
        # its arithmetic but without its call overhead
        lines = k * ((hi - lo) / (LINE_POINTS - 1))[:, None, :] + lo[:, None, :]
        lines[:, -1] = hi
        for i, UT in enumerate(game.line_payoffs(a, lines)):
            line_val = _score(UT.reshape(game.n, R), *line).reshape(S, LINE_POINTS)
            best = line_val.max(axis=-1)
            up = best > val + 1e-13
            if up.any():
                np.copyto(a[:, i], lines[at, line_val.argmax(axis=-1), i], where=up)
                np.copyto(val, best, where=up)
    return val, a


# ---------------------------------------------------------------------------
# scheme comparison (the "table2" experiment)
# ---------------------------------------------------------------------------

def _comparison_rows(game: StageGame, stats: DeviationStats, cells) -> list:
    """``[scheme, value, min_delta]`` rows for each of ``SCHEMES``, one block
    per ``(gamma, kind)`` cell of one game, with the game's stage work done
    once: one stage Nash solve, one seeding of every cell's one-shot search
    (:func:`_seeds`, given that Nash point), and one lockstep ascent of all
    cells (:func:`_search`)."""
    ne = solve_stage_nash(game)
    u_ne = game.payoff(ne.a0, ne.a)
    blocks = []
    for (gam, kind), found in zip(cells, _search(game, cells, _seeds(game, cells, ne))):
        val = float(_score(u_ne[:, None], gam[:, None], kind == "maxmin")[0])
        nash = val if val >= 0.0 else None
        rows = [["nash", nash, None], ["one_shot", found.value if found else None, None]]
        for scheme, device in (("repeated_no_intervention", False),
                               ("repeated_with_intervention", True)):
            if guarantee_feasible(stats, gam, device):
                target = optimize_welfare(stats, gam, kind, device)
                rows.append([scheme, target.value, delta_bar(stats, target.v, device)])
            else:
                rows.append([scheme, None, None])
        blocks.append(rows)
    return blocks


def baseline_comparison(game: StageGame, gamma_levels) -> ResultTable:
    """Welfare comparison across enforcement schemes.

    One row per (scheme, guarantee level, welfare kind).  ``min_delta``
    is the enforcement threshold for the repeated schemes and NA for the
    stage/one-shot ones; ``value`` is NA wherever the scheme cannot meet
    the guarantee.  The scheme without intervention replaces each floor
    by the no-device minmax value when the latter is larger -- nobody
    can be held below what they can secure alone, so the printed
    threshold hits 1 exactly when that effective floor binds the target.
    """
    levels = [(kind, float(g)) for kind in WELFARES for g in gamma_levels]
    blocks = _comparison_rows(game, deviation_stats(game),
                              [(np.full(game.n, g), kind) for kind, g in levels])
    rows = [[scheme, g, kind, value, d]
            for (kind, g), block in zip(levels, blocks) for scheme, value, d in block]
    return ResultTable(BASELINE_COLUMNS, rows)


# ---------------------------------------------------------------------------
# punishment-length curves (the "fig3" experiment)
# ---------------------------------------------------------------------------

def reference_path(game: StageGame) -> np.ndarray:
    """A strictly individually rational stage profile for the length curves.

    Users with the highest elasticity transmit at their caps; the rest
    scale back symmetrically until their stage payoff clears
    ``REFERENCE_MARGIN`` times their no-device minmax value.  Closed form
    only for flow control; other games must supply an explicit path in the
    config.
    """
    if not isinstance(game, FlowControlGame):
        raise ConfigError("no built-in reference path for this game kind; set 'path' in the config")
    beta = game.beta
    top = beta >= np.max(beta) - 1e-12
    a = game.a_max.astype(float).copy()
    if not top.all():
        low = ~top
        b = float(beta[low][0])
        cap = float(game.a_max[low][0])
        if not (np.allclose(beta[low], b) and np.allclose(game.a_max[low], cap)):
            raise ConfigError("users below the top elasticity are not symmetric; set 'path' in the config")
        v_solo = minmax_values(game, with_intervention=False)
        want = REFERENCE_MARGIN * float(v_solo[low][0])
        m = int(low.sum())
        free = float(game.mu - np.sum(game.a_max[top]))
        peak = min(b * free / (m * (b + 1.0)), cap)
        clears = lambda x: x ** b * (free - m * x) >= want
        if free <= 0 or not clears(peak):
            raise ConfigError("cannot build an individually rational reference path; set 'path' in the config")
        a[low] = _bisect(clears, 0.0, peak)
    u = game.payoff_batch(game.null_intervention(), a)
    if np.any(u <= minmax_values(game, with_intervention=False)):
        raise ConfigError("reference path is not individually rational; set 'path' in the config")
    return a


def punishment_length_curves(game_cfg: dict, a0_values, L_values, path=None) -> ResultTable:
    """Minimum enforcing discount factor against punishment length.

    One curve per device cap.  When the mutual-minmax profile is a stage
    equilibrium the absorbing punishment applies and the bound does not
    depend on the length, so the curve is flat; otherwise each length
    gets the finite-punishment machine's threshold (NA when no discount
    factor works at that length).
    """
    if game_cfg.get("kind") not in ("flow", "power"):
        raise ConfigError("punishment-length curves sweep a scalar device cap; flow or power game required")
    base = game_from_config(game_cfg)

    def curve(a0):
        g = base.with_a0_max([a0])
        pa = np.asarray(path, dtype=float) if path is not None else reference_path(g)
        profile = (g.null_intervention(), pa)
        mm = mutual_minmax(g)   # depends on the cap alone: one evaluation per curve
        if mm.is_stage_nash:
            d = _min_delta_for_L(g, profile, None, mm).delta
            return [[float(a0), int(L), d] for L in L_values]
        return [[float(a0), int(L), _min_delta_for_L(g, profile, int(L), mm).delta]
                for L in L_values]

    rows = [row for a0 in a0_values for row in curve(a0)]
    return ResultTable(("a0_max", "L", "min_delta"), rows)


# ---------------------------------------------------------------------------
# population scaling (the "scaling" experiment)
# ---------------------------------------------------------------------------

def scaling_sweep(n_range) -> ResultTable:
    """Welfare vs population size under two capacity rules.

    ``linear`` provisions capacity with the population (mu = N),
    ``capped`` saturates at 10.  Games are symmetric: unit action boxes,
    elasticity 3, device cap equal to the headroom mu - (N-1) left by
    the other users.  The per-user guarantee is min(10% of the solo
    optimum, the equal capacity share), raised when needed to sit
    strictly above the device-backed minmax floor.  Rows where capacity
    no longer covers the total box load (capped rule past N=10) are NA:
    the queueing payoff model is only defined when the service rate
    covers the maximum total arrival rate.  For N <= 10 the two rules
    build the same game, which is solved once and printed under both.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    solved = {}

    def cell(rule, n):
        mu = float(n if rule == "linear" else min(n, 10))
        if mu < n - 1e-12:
            return [[rule, n, scheme, kind, None, None]
                    for kind in WELFARES for scheme in SCHEMES]
        if (n, mu) not in solved:
            game = FlowControlGame(mu=mu, beta=[3.0] * n, a_max=[1.0] * n,
                                   a0_max=[max(mu - (n - 1), 0.0)])
            stats = deviation_stats(game)
            gam = np.maximum(np.minimum(0.1 * stats.vbar, mu / n), stats.minmax(True) + 1e-9)
            solved[n, mu] = _comparison_rows(game, stats, [(gam, kind) for kind in WELFARES])
        return [[rule, n, scheme, kind, value, d]
                for kind, block in zip(WELFARES, solved[n, mu]) for scheme, value, d in block]

    rows = [row for rule in ("linear", "capped") for n in range(lo, hi + 1)
            for row in cell(rule, n)]
    return ResultTable(("capacity_rule", "n", "scheme", "welfare_kind", "value", "min_delta"), rows)


# ---------------------------------------------------------------------------
# trade-off curves (the "tradeoff" experiment)
# ---------------------------------------------------------------------------

def tradeoff_sweep(game_cfg: dict, axis: str, gamma_levels, a0_values, delta_grid,
                   welfare: str = "sum") -> ResultTable:
    """One trade-off family for the welfare-optimal target.

    ``delta_vs_gamma``: enforcement threshold vs guarantee level, one
    curve per device cap.  ``a0_vs_delta`` / ``a0_vs_gamma``: smallest
    device cap whose threshold meets the available discount factor, by
    :func:`_bisect` on the cap (monotone: more intervention never raises
    the threshold).  Infeasible grid points are kept as NA rows rather
    than dropped.
    """
    return _tradeoff_table(game_cfg, (axis,), gamma_levels, a0_values, delta_grid, welfare)


def _tradeoff_table(game_cfg: dict, axes, gamma_levels, a0_values, delta_grid, welfare):
    """The :func:`tradeoff_sweep` families ``axes`` in one table; each distinct
    (gamma, delta) pair's cap is bisected once, however many families print it."""
    if game_cfg.get("kind") not in ("flow", "power"):
        raise ConfigError("trade-off sweeps vary a scalar device cap; flow or power game required")
    base = game_from_config(game_cfg)
    cap = float(base.a0_max[0])
    free = deviation_stats(base)   # taken at null intervention but for minmax_with

    @cache
    def stats_at(a0: float) -> DeviationStats:
        return replace(free, minmax_with=minmax_values(base.with_a0_max([a0]), True))

    def threshold(a0: float, g: float) -> float | None:
        stats = stats_at(a0)
        gam = np.full(stats.vbar.size, g)
        if not guarantee_feasible(stats, gam, True):
            return None
        target = optimize_welfare(stats, gam, welfare, True)
        return delta_bar(stats, target.v, True)

    @cache
    def required_cap(g: float, d: float) -> float | None:
        return _bisect(lambda a0: (t := threshold(a0, g)) is not None and t <= d + 1e-12, 0.0, cap)

    rows = []
    for axis in axes:
        if axis == "delta_vs_gamma":
            rows += [[axis, g, None, a0, threshold(a0, g), None]
                     for a0 in a0_values for g in gamma_levels]
        elif axis == "a0_vs_delta":
            rows += [[axis, g, d, None, None, required_cap(g, d)]
                     for g in gamma_levels for d in delta_grid]
        elif axis == "a0_vs_gamma":
            rows += [[axis, g, d, None, None, required_cap(g, d)]
                     for d in delta_grid for g in gamma_levels]
        else:
            raise ConfigError(f"unknown tradeoff axis {axis!r}; expected one of {TRADEOFF_AXES}")
    return ResultTable(TRADEOFF_COLUMNS, rows)


# ---------------------------------------------------------------------------
# protocol verification (the "verify" experiment)
# ---------------------------------------------------------------------------

def verification_report(game: StageGame, welfare: str, gamma: float, delta: float) -> ResultTable:
    """Build the protocol for one welfare target and scan it at ``delta``.

    If the requested discount factor sits below the enforcement
    threshold, the outcome path is still constructed -- at a discount
    just above the threshold, where the decomposition exists -- and both
    scanners run at the requested one; the reported worst gain then
    shows by how much enforcement fails there.  What :func:`design_protocol`
    rejects and a target with ``delta_bar = 1`` raise :class:`ConfigError`.
    """
    try:
        design = design_protocol(game, np.full(game.n, float(gamma)), welfare)
    except DesignError as exc:
        raise ConfigError(str(exc)) from None
    stats, target, db = design.stats, design.target, design.threshold
    if db >= 1.0:
        raise ConfigError(f"guarantee {gamma:g} cannot be enforced at any discount factor "
                          f"below 1: its target has delta_bar = 1")
    build_delta = float(delta) if delta >= db + 1e-9 else min(db + 1e-3, 0.5 * (db + 1.0))
    path = generate_outcome_path(stats, target.v, build_delta)
    automaton = assemble_protocol(game, stats, path)
    report = verify_spe(game, automaton, delta)
    scan = profitability_scan(game, automaton, delta)
    rows = [
        ["welfare_value", target.value],
        ["delta_bar", db],
        ["build_delta", build_delta],
        ["check_delta", float(delta)],
        ["path_states", len(path.active)],
        ["path_value_error", float(np.max(np.abs(path.values[0] - target.v)))],
        ["floor_margin", float(np.min(path.values - path.nu))],
        ["deviation_scan_worst_gain", report.worst_gain],
        ["deviation_scan_ok", int(report.ok)],
        ["suffix_scan_worst_gain", scan.worst_gain],
        ["suffix_scan_ok", int(scan.ok)],
        ["scanner_agreement", abs(report.worst_gain - scan.worst_gain)],
    ]
    return ResultTable(("quantity", "value"), rows)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run one experiment and stamp the result with config hash + version."""
    game = game_from_config(config.game)
    if config.experiment == "table2":
        table = baseline_comparison(game, config.gamma)
    elif config.experiment == "fig3":
        table = punishment_length_curves(config.game, config.a0_values,
                                         config.L_values, config.path)
    elif config.experiment == "scaling":
        table = scaling_sweep(config.n_range)
    elif config.experiment == "tradeoff":
        table = _tradeoff_table(config.game, TRADEOFF_AXES, config.gamma, config.a0_values,
                                config.delta_grid, config.welfare)
    elif config.experiment == "verify":
        table = verification_report(game, config.welfare, config.target_gamma, config.delta)
    else:  # unreachable after load_config validation
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    table.provenance = f"config_sha256={config.digest} tool_version={__version__}"
    return table
