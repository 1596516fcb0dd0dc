"""Output checks for the benchmark, built without the program's code.

Every reference value here comes from a closed form or a small independent
solver over the game's config mapping (``{"kind": ..., parameters}``); this
module never imports ``repgame``.  A failed check raises :class:`CheckFailed`
with a message naming the cell and both values.

Tolerances are the program's documented contracts: 1e-6 relative for the
one-shot optimum and the welfare cells, the CSV's 6 significant digits for
CLI cells, 1e-9 for the SPE gain, 1e-8 for scanner agreement and for the
share sum, 1e-6 for the path value error and 1e-9 for a floor dip.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

REL_TOL = 1e-6
SPE_GAIN_TOL = 1e-9
SCANNER_AGREEMENT_TOL = 1e-8
PATH_VALUE_TOL = 1e-6
FLOOR_DIP_TOL = 1e-9
SHARE_SUM_TOL = 1e-8
CLOSED_FORM_REL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# closed forms for the three game kinds
# ---------------------------------------------------------------------------

def _vec(cfg, key, n):
    return np.broadcast_to(np.asarray(cfg[key], dtype=float), (n,)).astype(float)


def n_users(cfg) -> int:
    if cfg["kind"] == "power":
        return len(cfg["gain"])
    return len(np.atleast_1d(cfg["beta"]))


def _queue_best(beta, free, cap):
    """Rate maximizing ``a**beta * (free - a)`` on ``[0, cap]``, and its value."""
    free = np.asarray(free, dtype=float)
    a = np.minimum(beta / (1.0 + beta) * np.maximum(free, 0.0), cap)
    return a, np.where(free > 0.0, a ** beta * np.maximum(free - a, 0.0), 0.0)


def solo_values(cfg) -> np.ndarray:
    """Best payoff of each user alone, device quiet (``vbar``)."""
    n = n_users(cfg)
    amax = _vec(cfg, "a_max", n)
    if cfg["kind"] == "power":
        g = np.asarray(cfg["gain"], dtype=float)
        return np.log2(1.0 + np.diagonal(g) * amax / _vec(cfg, "noise", n))
    beta = _vec(cfg, "beta", n)
    return _queue_best(beta, np.full(n, float(cfg["mu"])), amax)[1]


def minmax_values(cfg, with_device: bool = True) -> np.ndarray:
    """Each user's best reply when everyone else, and the device if allowed,
    plays its maximum."""
    n = n_users(cfg)
    amax = _vec(cfg, "a_max", n)
    others = np.sum(amax) - amax
    if cfg["kind"] == "power":
        g = np.asarray(cfg["gain"], dtype=float)
        jam = (float(np.reshape(cfg["a0_max"], -1)[0]) * _vec(cfg, "intervention_gain", n)
               if with_device else 0.0)
        cross = g @ amax - np.diagonal(g) * amax
        return np.log2(1.0 + np.diagonal(g) * amax / (_vec(cfg, "noise", n) + jam + cross))
    beta = _vec(cfg, "beta", n)
    if cfg["kind"] == "packet_drop":
        if with_device:
            return np.zeros(n)  # every packet of the punished user is dropped
        a0 = 0.0
    else:
        a0 = float(np.reshape(cfg["a0_max"], -1)[0]) if with_device else 0.0
    return _queue_best(beta, float(cfg["mu"]) - a0 - others, amax)[1]


def simplex_optimum(vbar, floors, welfare: str) -> float | None:
    """Best welfare on ``sum(v / vbar) = 1`` with ``v >= floors``, by linear
    programming.  None when the floors reach the simplex: what is left is at
    most one point, and no time-sharing path stays above floors that tight."""
    vbar = np.asarray(vbar, dtype=float)
    floors = np.asarray(floors, dtype=float)
    n = vbar.size
    if np.sum(floors / vbar) >= 1.0 - 1e-12:
        return None
    if welfare == "sum":
        res = linprog(-np.ones(n), A_eq=(1.0 / vbar)[None, :], b_eq=[1.0],
                      bounds=[(f, None) for f in floors], method="highs")
        return -float(res.fun) if res.status == 0 else None
    # maximize t subject to t <= v_i
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    a_eq = np.append(1.0 / vbar, 0.0)[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(f, None) for f in floors] + [(None, None)], method="highs")
    return -float(res.fun) if res.status == 0 else None


def flow_nash_payoffs(mu, beta, amax) -> np.ndarray:
    """Stage equilibrium of a flow game, device quiet: ``a_i = min(beta_i F,
    amax_i)`` where the free capacity ``F`` solves ``F + sum(a(F)) = mu``
    (bisection)."""
    beta = np.asarray(beta, dtype=float)
    amax = np.asarray(amax, dtype=float)
    lo, hi = 0.0, mu
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + np.sum(np.minimum(beta * mid, amax)) > mu:
            hi = mid
        else:
            lo = mid
    F = 0.5 * (lo + hi)
    return np.minimum(beta * F, amax) ** beta * F


def _zoom_max(f, lo, hi, points=2001, rounds=4):
    """Maximize a vectorized scalar function by repeated grid zooming."""
    for _ in range(rounds):
        xs = np.linspace(lo, hi, points)
        vals = f(xs)
        j = int(np.argmax(vals))
        lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, points - 1)]
    return float(vals[j])


def one_shot_sum(mu, beta, amax, gamma) -> float | None:
    """Best total payoff of a quiet-device flow game with per-user floors.

    At free capacity F the floors are rates ``(gamma_i / F)**(1/beta_i)`` and
    the rates sum to ``mu - F``; the welfare ``F * sum(a_i**beta_i)`` is
    convex in the rates, so its maximum over that polytope is a vertex: one
    free user, every other user at its floor or its cap.
    """
    beta, amax, gamma = (np.asarray(x, dtype=float) for x in (beta, amax, gamma))
    n = beta.size
    free = np.eye(n, dtype=bool)[np.repeat(np.arange(n), 2 ** (n - 1))]
    at_cap = np.array([np.insert(np.array(top, dtype=bool), k, False)
                       for k in range(n)
                       for top in itertools.product((False, True), repeat=n - 1)])

    def best_vertex(F):
        floor = (gamma / F[:, None]) ** (1.0 / beta)
        a = np.where(free, 0.0, np.where(at_cap, amax, floor[:, None, :]))
        a_k = mu - F[:, None] - np.sum(a, axis=-1)
        floor_k = np.sum(np.where(free, floor[:, None, :], 0.0), axis=-1)
        cap_k = free @ amax
        a = np.where(free, a_k[..., None], a)
        ok = np.all(floor <= amax, axis=1)[:, None] & (a_k >= floor_k) & (a_k <= cap_k)
        val = F[:, None] * np.sum(np.clip(a, 0.0, None) ** beta, axis=-1)
        return np.max(np.where(ok, val, -np.inf), axis=1)

    best = _zoom_max(best_vertex, mu * 1e-6, mu)
    return best if np.isfinite(best) else None


def one_shot_maxmin(mu, beta, amax, gamma) -> float | None:
    """Best minimum payoff of a quiet-device flow game with uniform floors.

    At the optimum every payoff is equal.  For free capacity F a common
    payoff u needs rates ``(u / F)**(1/beta_i)`` inside the box that sum to
    at most ``mu - F``: bisect on u, then maximize over F.  With floors the
    cell is that optimum when it clears them, and infeasible otherwise.
    """
    beta, amax = (np.asarray(x, dtype=float) for x in (beta, amax))

    def common(F):
        lo, hi = np.zeros_like(F), np.min(F[:, None] * amax ** beta, axis=1)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fits = np.sum((mid[:, None] / F[:, None]) ** (1.0 / beta), axis=1) <= mu - F
            lo, hi = np.where(fits, mid, lo), np.where(fits, hi, mid)
        return lo

    best = _zoom_max(common, mu * 1e-6, mu)
    return best if best >= np.max(gamma) - 1e-9 else None


def symmetric_one_shot_sum(mu, beta, cap, n, gamma) -> float | None:
    """:func:`one_shot_sum` for n identical users: a vertex is fixed by how
    many users sit at the cap (k), the rest but one being at the floor."""
    k = np.arange(n)

    def best_vertex(F):
        floor = (gamma / F) ** (1.0 / beta)
        a_free = mu - F[:, None] - k * cap - (n - 1 - k) * floor[:, None]
        ok = (floor <= cap)[:, None] & (a_free >= floor[:, None]) & (a_free <= cap)
        val = F[:, None] * (k * cap ** beta + (n - 1 - k) * floor[:, None] ** beta
                            + np.clip(a_free, 0.0, None) ** beta)
        return np.max(np.where(ok, val, -np.inf), axis=1)

    best = _zoom_max(best_vertex, mu * 1e-6, mu)
    return best if np.isfinite(best) else None


def symmetric_one_shot_maxmin(mu, beta, cap, n, gamma) -> float | None:
    """Equal rates maximize the common payoff: ``a = min(beta mu / ((beta+1) n), cap)``."""
    a = min(beta * mu / ((beta + 1.0) * n), cap)
    u = a ** beta * (mu - n * a)
    return u if u >= gamma - 1e-9 else None


# ---------------------------------------------------------------------------
# expected tables
# ---------------------------------------------------------------------------

SCHEMES = ("nash", "one_shot", "repeated_no_intervention", "repeated_with_intervention")
WELFARES = ("sum", "maxmin")


def _welfare(u, kind):
    return float(np.sum(u)) if kind == "sum" else float(np.min(u))


def _repeated_cells(vbar, mm_with, mm_without, gamma, kind):
    cells = {}
    for scheme, mm in (("repeated_no_intervention", mm_without),
                       ("repeated_with_intervention", mm_with)):
        cells[scheme] = simplex_optimum(vbar, np.maximum(gamma, mm), kind)
    return cells


def table2_expected(game_cfg, gamma_levels) -> dict:
    """Reference value of every ``table2`` cell, keyed by (scheme, gamma, kind);
    None marks an NA cell."""
    require(game_cfg["kind"] == "flow", "table2 references cover flow games only")
    n = n_users(game_cfg)
    mu = float(game_cfg["mu"])
    beta, amax = _vec(game_cfg, "beta", n), _vec(game_cfg, "a_max", n)
    vbar = solo_values(game_cfg)
    mm_with, mm_without = minmax_values(game_cfg, True), minmax_values(game_cfg, False)
    u_ne = flow_nash_payoffs(mu, beta, amax)
    out = {}
    for kind in WELFARES:
        for g in gamma_levels:
            gam = np.full(n, float(g))
            out[("nash", g, kind)] = (_welfare(u_ne, kind)
                                      if np.all(u_ne >= gam - 1e-9) else None)
            out[("one_shot", g, kind)] = (one_shot_sum(mu, beta, amax, gam) if kind == "sum"
                                          else one_shot_maxmin(mu, beta, amax, gam))
            for scheme, v in _repeated_cells(vbar, mm_with, mm_without, gam, kind).items():
                out[(scheme, g, kind)] = v
    return out


def scaling_game(rule: str, n: int) -> dict | None:
    """The symmetric flow game of one ``scaling`` cell, or None where the
    capacity rule leaves fewer than n units of service."""
    mu = float(n if rule == "linear" else min(n, 10))
    if mu < n:
        return None
    return {"kind": "flow", "mu": mu, "beta": [3.0] * n, "a_max": [1.0] * n,
            "a0_max": [max(mu - (n - 1), 0.0)]}


def scaling_expected(n_lo: int, n_hi: int) -> dict:
    """Reference value of every ``scaling`` cell, keyed by (rule, n, scheme, kind)."""
    out = {}
    for rule in ("linear", "capped"):
        for n in range(n_lo, n_hi + 1):
            cfg = scaling_game(rule, n)
            if cfg is None:
                for scheme in SCHEMES:
                    for kind in WELFARES:
                        out[(rule, n, scheme, kind)] = None
                continue
            mu, beta, cap = cfg["mu"], 3.0, 1.0
            vbar = solo_values(cfg)
            mm_with, mm_without = minmax_values(cfg, True), minmax_values(cfg, False)
            gam = np.maximum(np.minimum(0.1 * vbar, mu / n), mm_with + 1e-9)
            # symmetric equilibrium: a = min(beta F, cap) with F = mu - n a
            a_ne = min(beta * mu / (1.0 + beta * n), cap)
            u_ne = np.full(n, a_ne ** beta * (mu - n * a_ne))
            g = float(gam[0])
            for kind in WELFARES:
                out[(rule, n, "nash", kind)] = (_welfare(u_ne, kind)
                                                if np.all(u_ne >= gam - 1e-9) else None)
                out[(rule, n, "one_shot", kind)] = (
                    symmetric_one_shot_sum(mu, beta, cap, n, g) if kind == "sum"
                    else symmetric_one_shot_maxmin(mu, beta, cap, n, g))
                for scheme, v in _repeated_cells(vbar, mm_with, mm_without, gam, kind).items():
                    out[(rule, n, scheme, kind)] = v
    return out


# ---------------------------------------------------------------------------
# CSV cells
# ---------------------------------------------------------------------------

def parse_csv(text: str, columns: tuple) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    require(bool(lines) and tuple(lines[0].split(",")) == columns,
            f"CSV header {lines[0] if lines else None!r} is not {','.join(columns)}")
    rows = [ln.split(",") for ln in lines[1:]]
    require(all(len(r) == len(columns) for r in rows), "ragged CSV row")
    return rows


def csv_matches(cell: str, ref: float | None, rel: float = REL_TOL) -> bool:
    """A CSV cell written with 6 significant digits against its reference:
    half a unit in the sixth digit plus ``rel``."""
    if ref is None:
        return cell == "NA"
    if cell == "NA":
        return False
    x = float(cell)
    quantum = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 5) if ref != 0 else 0.0
    return abs(x - ref) <= quantum + rel * abs(ref) + 1e-12


def _check_threshold_pair(cells: dict, where: str) -> None:
    """Thresholds lie in (0, 1], and the device never raises them."""
    d = {}
    for scheme in ("repeated_no_intervention", "repeated_with_intervention"):
        value, delta = cells[scheme]
        if value == "NA":
            require(delta == "NA", f"{where} {scheme}: threshold {delta} on an NA cell")
            continue
        require(delta != "NA", f"{where} {scheme}: no threshold for a feasible cell")
        d[scheme] = float(delta)
        require(0.0 < d[scheme] <= 1.0, f"{where} {scheme}: threshold {delta} outside (0, 1]")
    if len(d) == 2:
        require(d["repeated_with_intervention"] <= d["repeated_no_intervention"] + 1e-6,
                f"{where}: the device raises the threshold ({d})")


def check_table2_csv(text: str, expected: dict) -> None:
    rows = parse_csv(text, ("scheme", "gamma", "welfare_kind", "value", "min_delta"))
    seen = {}
    for scheme, g, kind, value, delta in rows:
        seen[(scheme, float(g), kind)] = (value, delta)
    require(set(seen) == set(expected),
            f"table2 rows {sorted(set(seen) ^ set(expected))} missing or unexpected")
    for key, ref in expected.items():
        value, delta = seen[key]
        require(csv_matches(value, ref), f"table2 {key}: value {value}, reference {ref}")
        if key[0] in ("nash", "one_shot"):
            require(delta == "NA", f"table2 {key}: stage scheme has threshold {delta}")
    for kind in WELFARES:
        for g in {k[1] for k in expected}:
            _check_threshold_pair({s: seen[(s, g, kind)] for s in SCHEMES},
                                  f"table2 gamma={g} {kind}")


def check_scaling_csv(text: str, expected: dict) -> None:
    rows = parse_csv(text, ("capacity_rule", "n", "scheme", "welfare_kind", "value",
                            "min_delta"))
    seen = {(rule, int(n), scheme, kind): (value, delta)
            for rule, n, scheme, kind, value, delta in rows}
    require(set(seen) == set(expected),
            f"scaling rows {sorted(set(seen) ^ set(expected))} missing or unexpected")
    for key, ref in expected.items():
        value, delta = seen[key]
        require(csv_matches(value, ref), f"scaling {key}: value {value}, reference {ref}")
        if key[2] in ("nash", "one_shot") or ref is None:
            require(delta == "NA", f"scaling {key}: threshold {delta} where NA is due")
    for rule, n in {(k[0], k[1]) for k in expected}:
        for kind in WELFARES:
            _check_threshold_pair({s: seen[(rule, n, s, kind)] for s in SCHEMES},
                                  f"scaling {rule} n={n} {kind}")


# ---------------------------------------------------------------------------
# outcome paths and protocols
# ---------------------------------------------------------------------------

def path_values(active, cycle_start: int, delta: float, vbar) -> np.ndarray:
    """Continuation value at each period of a solo-profile schedule.

    Period t pays ``vbar[active[t]]`` to the active user and nothing to the
    rest; from ``cycle_start`` the schedule repeats.  The cycle-entry value is
    a geometric sum, the rest a backward recursion.
    """
    active = np.asarray(active, dtype=int)
    vbar = np.asarray(vbar, dtype=float)
    K, n = active.size, vbar.size
    P = K - cycle_start
    weights = np.bincount(active[cycle_start:], weights=delta ** np.arange(P), minlength=n)
    entry = (1.0 - delta) * vbar * weights / (1.0 - delta ** P)
    pay = (1.0 - delta) * vbar
    out = np.empty((K, n))
    cur = entry.copy()
    for t in range(K - 1, -1, -1):
        cur *= delta
        cur[active[t]] += pay[active[t]]
        out[t] = cur
    return out


def check_path(active, cycle_start, delta, vbar, target, nu, vlow, where: str,
               values=None) -> np.ndarray:
    """The schedule's own discounted sum hits the target, no continuation dips
    below the floors ``nu``, and the floors sit at or above the device-backed
    minmax point.  With ``values`` (the program's promised continuations), the
    shares of each promise sum to one.  Returns the recomputed values."""
    own = path_values(active, cycle_start, delta, vbar)
    err = float(np.max(np.abs(own[0] - target)))
    require(err <= PATH_VALUE_TOL, f"{where}: discounted sum misses the target by {err:.3g}")
    dip = float(np.max(nu - own))
    require(dip <= FLOOR_DIP_TOL, f"{where}: a continuation dips {dip:.3g} below the floors")
    require(np.all(np.asarray(nu) >= np.asarray(vlow) - FLOOR_DIP_TOL),
            f"{where}: floors {nu} below the minmax point {vlow}")
    if values is not None:
        values = np.asarray(values, dtype=float)
        require(values.shape == own.shape, f"{where}: {values.shape} promises for {own.shape}")
        drift = float(np.max(np.abs(np.sum(values / vbar, axis=1) - 1.0)))
        require(drift <= SHARE_SUM_TOL, f"{where}: promise shares drift {drift:.3g} from 1")
        dip = float(np.max(nu - values))
        require(dip <= FLOOR_DIP_TOL, f"{where}: a promise dips {dip:.3g} below the floors")
    return own


def check_closed_forms(cfg, vbar, vlow, where: str) -> None:
    """The program's solo optima and device-backed minmax match the closed forms."""
    for name, got, ref in (("vbar", vbar, solo_values(cfg)),
                           ("minmax", vlow, minmax_values(cfg, True))):
        gap = np.abs(np.asarray(got) - ref)
        require(np.all(gap <= CLOSED_FORM_REL * np.maximum(1.0, np.abs(ref))),
                f"{where}: {name} {np.asarray(got)} vs closed form {ref}")


def check_scanners(spe_gain: float, scan_gain: float, where: str) -> None:
    require(spe_gain <= SPE_GAIN_TOL, f"{where}: verify_spe worst gain {spe_gain:.3g}")
    require(scan_gain <= SPE_GAIN_TOL, f"{where}: profitability_scan worst gain {scan_gain:.3g}")
    gap = abs(spe_gain - scan_gain)
    require(gap <= SCANNER_AGREEMENT_TOL, f"{where}: scanners disagree by {gap:.3g}")


def check_welfare(value: float, ref: float | None, where: str) -> None:
    require(ref is not None, f"{where}: the reference region is empty")
    require(abs(value - ref) <= REL_TOL * max(1.0, abs(ref)),
            f"{where}: welfare {value} vs simplex optimum {ref}")


def check_threshold(delta_bar: float, delta: float, where: str) -> None:
    require(0.0 < delta_bar <= 1.0, f"{where}: threshold {delta_bar} outside (0, 1]")
    require(delta_bar <= delta, f"{where}: threshold {delta_bar} above delta {delta}")
