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
scipy is imported at its use sites (``minimize`` in the one-shot polish,
``brentq`` in :func:`reference_path`), so ``tradeoff`` loads none of it.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .automata import min_delta_for_L, verify_spe
from .design import (FLOOR_TOL, WELFARES, DesignError, DeviationStats, _welfare_value,
                     assemble_protocol, delta_bar, deviation_stats, generate_outcome_path,
                     guarantee_feasible, optimize_welfare)
from .games import (FlowControlGame, GameConfigError, StageGame, game_from_config,
                    minmax_values, mutual_minmax, solve_stage_nash)
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
CAP_TOL = 1e-4           # the trade-off sweep's bisection bracket on the device cap


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
    raw: dict = field(repr=False, default_factory=dict)
    digest: str = ""


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
    """Integer entries; a bool, a string or a fractional number is rejected, not coerced."""
    val = raw.get(key, default)
    try:
        out = tuple(int(x) for x in val)
        exact = all(not isinstance(x, bool) and x == k for x, k in zip(val, out))
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ConfigError(f"{key!r} must be a list of integers, got {val!r}")
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
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
                            target_gamma=target_gamma, path=path, raw=raw,
                            digest=hashlib.sha256(_canonical(raw).encode()).hexdigest()[:16])


def dump_config(config: ExperimentConfig) -> str:
    """Re-serialize a parsed config; parsing the result is an identity."""
    return json.dumps(config.raw, sort_keys=True, indent=2) + "\n"


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
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
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


def _score(UT: np.ndarray, cells):
    """Rank the profiles of the user-major payoff block ``UT`` (shape
    ``(n, R)``, one column per profile) for each ``(gamma, kind)`` cell:
    feasibility first, then welfare (infeasible profiles rank by their worst
    floor shortfall, so ascent can climb into the feasible set).  ``gamma``
    is one floor vector ``(n,)`` or one per profile ``(n, R)``, ``kind`` one
    welfare name, an array of one per profile, or a precomputed boolean
    "is maxmin" mask of one per profile.  Yields one ``(ok, welfare,
    margin)`` triple of length-R arrays per cell, in order.

    The block is reduced once for all cells, in length-R passes over the
    rows of a contiguous copy (none is made of a contiguous block): the row
    minimum, the welfare sum, and one margin and feasibility mask per
    distinct floor vector (per-profile floors are matched by identity, not
    by value).  Rounding ``x - g`` is monotone in ``x``, so a
    margin against equal floors ``g`` is ``rowmin - g`` exactly, and one
    against per-profile floors is each profile's margin against its own.
    The sum is bit-equal to ``U.sum(axis=-1)`` of the row-major block
    ``U = UT.T``, and is that very sum when ``U`` is contiguous (the
    ascent's lines) or n >= 8, where numpy adds pairwise; otherwise it adds
    the rows in sequence from +0.0, as numpy does below 8 users.
    """
    n, U = UT.shape[0], UT.T
    UT = np.ascontiguousarray(UT)
    rowmin = UT.min(axis=0)
    if U.flags.c_contiguous or n >= 8:
        total = np.ascontiguousarray(U).sum(axis=-1)
    else:
        total = 0.0 + UT[0]
        for row in UT[1:]:
            total += row
    margins = {}
    for gamma, kind in cells:
        key = gamma.tobytes() if gamma.ndim == 1 else id(gamma)
        if key not in margins:
            equal = gamma.ndim == 1 and gamma.tolist().count(gamma[0]) == n
            margin = rowmin - gamma[0] if equal else (UT - gamma.reshape(n, -1)).min(axis=0)
            margins[key] = margin, margin >= -FLOOR_TOL
        margin, ok = margins[key]
        maxmin = np.asarray(kind)
        if maxmin.dtype != bool:
            maxmin = maxmin == "maxmin"
        welfare = np.where(maxmin, rowmin, total) if maxmin.ndim else rowmin if maxmin else total
        yield ok, welfare, margin


def _pick(block: np.ndarray, cells):
    """``(ok, val, j)`` of the best profile of a user-major grid slab for
    each cell, the first index winning ties: the feasible profile of highest
    welfare, or the largest margin when none is feasible.  The feasible
    profiles are gathered once per distinct floor vector."""
    feasible = {}
    for (gamma, _), (ok, welfare, margin) in zip(cells, _score(block, cells)):
        idx = feasible.get(gamma.tobytes())
        if idx is None:
            idx = feasible[gamma.tobytes()] = np.flatnonzero(ok)
        j = int(idx[np.argmax(welfare[idx])]) if idx.size else int(np.argmax(margin))
        yield bool(idx.size), float((welfare if idx.size else margin)[j]), j


def _grid_pass(game: StageGame, cells):
    """One streamed sweep of the product action grid of step ``GRID_STEP``,
    scored for every ``(gamma, kind)`` cell at once.  Returns one seed
    profile per cell, or None when the grid would exceed ``GRID_CAP`` points.

    The grid is streamed as the user-major payoff blocks of
    :meth:`StageGame.grid_payoffs`, one per value of the first action;
    each block is reduced once for all cells by :func:`_score` and
    :func:`_pick`, and a slab's pick replaces the running best only when
    it is strictly better, so the first profile in grid order wins ties.
    The seed is rebuilt from the winning (slab, row) index."""
    axes = [np.unique(np.concatenate([np.arange(0.0, am, GRID_STEP), [am]]))
            for am in game.a_max]
    # an exact integer: the int64 product wraps past 15 users of 21 points
    if math.prod(len(ax) for ax in axes) > GRID_CAP:
        return None
    best = [None] * len(cells)
    for s, block in enumerate(game.grid_payoffs(axes)):
        for k, cand in enumerate(_pick(block, cells)):
            if best[k] is None or cand[:2] > best[k][:2]:
                best[k] = cand + (s,)
    rest = [len(ax) for ax in axes[1:]]
    return [np.array([axes[0][s]] + [ax[i] for ax, i in zip(axes[1:], np.unravel_index(j, rest))])
            for _, _, j, s in best]


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
    Returns None when no feasible profile was found.
    """
    if kind not in WELFARES:
        raise ValueError(f"unknown welfare {kind!r}")
    cells = [(np.broadcast_to(np.asarray(gamma, dtype=float), (game.n,)), kind)]
    return _search(game, cells, _seeds(game, cells))[0]


def _search(game: StageGame, cells, seeds) -> list:
    """One-shot search of every ``(gamma, kind)`` cell from its seed (a start
    ``(n,)`` or a stack ``(S, n)``): all starts climb in one lockstep
    :func:`_ascend`, each cell's first best start is polished with SLSQP
    (see :func:`_polish`) and pulled back towards the ascent point while it
    breaks a floor more than that point does; it is kept only when
    ``game.payoff`` confirms it meets the floors and strictly improves the
    welfare.  One :class:`SearchResult` per cell, None where none was feasible."""
    stacks = [np.atleast_2d(np.asarray(seed, dtype=float)) for seed in seeds]
    owner = np.repeat(np.arange(len(cells)), [len(stack) for stack in stacks])
    oks, vals, profiles = _ascend(game, np.concatenate(stacks),
                                  np.array([cells[c][0] for c in owner]),
                                  [cells[c][1] for c in owner])
    null = game.null_intervention()
    found = []
    for c, (gamma, kind) in enumerate(cells):
        best = max(np.flatnonzero(owner == c), key=lambda s: (oks[s], vals[s]))
        if not oks[best]:
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
            lo, hi, step = 0.0, 1.0, polished - a
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                holds = np.min(game.payoff_batch(null, a + mid * step) - gamma) >= hold
                lo, hi = (mid, hi) if holds else (lo, mid)
            polished = a + lo * step
            u_pol = game.payoff(null, polished)
        if (np.min(u_pol - gamma) >= -FLOOR_TOL
                and _welfare_value(kind, u_pol) > _welfare_value(kind, u)):
            a, u = polished, u_pol
        found.append(SearchResult(value=_welfare_value(kind, u), profile=a, payoffs=u))
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
    an ``(S, n)`` stack of starts climbing in lockstep, each against its
    own floors and welfare (``gamma`` broadcasts to ``(S, n)``, ``kind`` to
    ``(S,)``): each step scores the lines of all starts still climbing in
    one payoff call, and each start moves and stops exactly as it would
    alone.  Returns ``(ok, val, profiles)`` of shapes ``(S,)``, ``(S,)``
    and ``(S, n)``.

    Coordinate i changes only at step i of a pass, so every coordinate's
    window and ``LINE_POINTS``-point line is built once at the start of the
    pass, in the arithmetic of ``np.linspace`` per start.  One ``(S,
    LINE_POINTS, n)`` profile buffer serves the whole pass: step i writes
    its line into column i and, after the move, the chosen value back.  The
    floors and the maxmin mask of every line point are built once per pass,
    and the steps update copies of the climbing rows, written back after
    the pass."""
    null = game.null_intervention()
    a = np.clip(starts, 0.0, game.a_max)
    floors = np.broadcast_to(gamma, a.shape).T
    maxmin = np.broadcast_to(np.asarray(kind) == "maxmin", len(a))
    U = np.array([game.payoff_batch(null, x) for x in a])
    [(cur_ok, welfare, margin)] = _score(U.T, [(floors, maxmin)])
    cur_val = np.where(cur_ok, welfare, margin)
    climbing = np.ones(len(a), dtype=bool)
    k = np.arange(LINE_POINTS, dtype=float)
    for p in range(PASSES):
        frac = 0.5 * 0.7 ** p
        rows = np.flatnonzero(climbing)
        line = (np.repeat(floors[:, rows], LINE_POINTS, axis=1),
                np.repeat(maxmin[rows], LINE_POINTS))
        x, x_ok, x_val = a[rows], cur_ok[rows], cur_val[rows]
        moved = np.zeros(len(x), dtype=bool)
        at = np.arange(len(x))
        half = frac * game.a_max
        lo = np.maximum(0.0, x - half)
        hi = np.minimum(game.a_max, x + half)
        # np.linspace(lo, hi, LINE_POINTS) for every start and coordinate, in
        # its arithmetic but without its call overhead
        cand = k * ((hi - lo) / (LINE_POINTS - 1))[..., None] + lo[..., None]
        cand[..., -1] = hi
        prof = np.repeat(x[:, None, :], LINE_POINTS, axis=1)
        for i in range(game.n):
            prof[:, :, i] = cand[:, i]
            U = game.payoff_batch(null, prof).reshape(-1, game.n)
            [(ok, welfare, margin)] = _score(U.T, [line])
            val = np.where(ok, welfare, margin).reshape(-1, LINE_POINTS)
            ok = ok.reshape(-1, LINE_POINTS)
            # each line's best feasible point, else its largest margin
            j = np.argmax(np.where(ok.any(axis=-1, keepdims=True), np.where(ok, val, -np.inf), val),
                          axis=-1)
            ok_j, val_j = ok[at, j], val[at, j]
            up = (ok_j > x_ok) | ((ok_j == x_ok) & (val_j > x_val + 1e-13))
            x[:, i] = np.where(up, cand[at, i, j], x[:, i])
            prof[:, :, i] = x[:, i, None]
            x_ok, x_val, moved = np.where(up, ok_j, x_ok), np.where(up, val_j, x_val), moved | up
        a[rows], cur_ok[rows], cur_val[rows] = x, x_ok, x_val
        if frac * float(np.max(game.a_max)) < 1e-10:
            climbing[rows] = moved   # a start stops after a pass without a move
            if not climbing.any():
                break
    return cur_ok, cur_val, a


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
        nash = _welfare_value(kind, u_ne) if np.all(u_ne >= gam - FLOOR_TOL) else None
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
    from scipy.optimize import brentq
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
        f = lambda x: x ** b * (free - m * x) - want
        if free <= 0 or f(peak) < 0:
            raise ConfigError("cannot build an individually rational reference path; set 'path' in the config")
        a[low] = brentq(f, 0.0, peak, xtol=1e-12)
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
        if mutual_minmax(g).is_stage_nash:
            d = min_delta_for_L(g, profile, None).delta
            return [[float(a0), int(L), d] for L in L_values]
        return [[float(a0), int(L), min_delta_for_L(g, profile, int(L)).delta]
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
    bisection on the cap to a bracket of ``CAP_TOL`` (monotone: more
    intervention never raises the threshold).  Infeasible grid points are
    kept as NA rows rather than dropped.
    """
    if axis not in TRADEOFF_AXES:
        raise ConfigError(f"unknown tradeoff axis {axis!r}; expected one of {TRADEOFF_AXES}")
    if game_cfg.get("kind") not in ("flow", "power"):
        raise ConfigError("trade-off sweeps vary a scalar device cap; flow or power game required")
    base = game_from_config(game_cfg)
    cap = float(base.a0_max[0])

    def threshold(a0: float, g: float) -> float | None:
        stats = deviation_stats(base.with_a0_max([a0]))
        gam = np.full(stats.vbar.size, g)
        if not guarantee_feasible(stats, gam, True):
            return None
        target = optimize_welfare(stats, gam, welfare, True)
        return delta_bar(stats, target.v, True)

    def required_cap(g: float, d: float) -> float | None:
        top = threshold(cap, g)
        if top is None or top > d + 1e-12:
            return None
        low = threshold(0.0, g)
        if low is not None and low <= d + 1e-12:
            return 0.0
        lo_a, hi_a = 0.0, cap
        while hi_a - lo_a > CAP_TOL:
            mid = 0.5 * (lo_a + hi_a)
            t = threshold(mid, g)
            if t is not None and t <= d + 1e-12:
                hi_a = mid
            else:
                lo_a = mid
        return hi_a

    if axis == "delta_vs_gamma":
        rows = [[axis, g, None, a0, threshold(a0, g), None]
                for a0 in a0_values for g in gamma_levels]
    elif axis == "a0_vs_delta":
        rows = [[axis, g, d, None, None, required_cap(g, d)]
                for g in gamma_levels for d in delta_grid]
    else:  # a0_vs_gamma
        rows = [[axis, g, d, None, None, required_cap(g, d)]
                for d in delta_grid for g in gamma_levels]
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
    shows by how much enforcement fails there.  A target no discount
    factor below 1 enforces (``delta_bar = 1``) is a :class:`ConfigError`.
    """
    stats = deviation_stats(game)
    gam = np.full(game.n, float(gamma))
    try:
        target = optimize_welfare(stats, gam, welfare, True)
    except DesignError as exc:
        raise ConfigError(str(exc)) from None
    db = delta_bar(stats, target.v, True)
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
        blocks = [tradeoff_sweep(config.game, axis, config.gamma, config.a0_values,
                                 config.delta_grid, config.welfare)
                  for axis in TRADEOFF_AXES]
        table = ResultTable(TRADEOFF_COLUMNS, [row for b in blocks for row in b.rows])
    elif config.experiment == "verify":
        table = verification_report(game, config.welfare, config.target_gamma, config.delta)
    else:  # unreachable after load_config validation
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    table.provenance = f"config_sha256={config.digest} tool_version={__version__}"
    return table
