"""Outcome paths at the edge of the design's claim: any discount factor at or
above the threshold ``delta_bar`` enforces the target, so
``generate_outcome_path`` must close there on every game kind, including
targets that sit on a user's guarantee floor.

Each path is held to the contract of the acceptance suite: the discounted
average hits the target within 1e-6, no promise dips more than 1e-9 below
its floor, and every promise's shares sum to one within 1e-8.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repgame.automata import path_values
from repgame.design import (DecompositionError, delta_bar, deviation_stats, generate_outcome_path,
                            guarantee_floors, optimize_welfare)
from repgame.games import FlowControlGame, game_from_config

KINDS = ("flow", "packet_drop", "power")


def assert_path_contract(path, stats, v_star):
    assert np.max(np.abs(path.values[0] - v_star)) <= 1e-6
    assert np.max(path.nu - path.values) <= 1e-9
    assert np.max(np.abs(path.values @ (1.0 / stats.vbar) - 1.0)) <= 1e-8


def draw_config(rng, kind, n):
    """A random game of the given kind, drawn like the benchmark's instances."""
    if kind == "power":
        gain = rng.uniform(0.6, 1.4, (n, n))
        np.fill_diagonal(gain, rng.uniform(0.8, 1.2, n))
        return {"kind": "power", "gain": np.round(gain, 3).tolist(),
                "intervention_gain": np.round(rng.uniform(0.5, 1.5, n), 3).tolist(),
                "noise": np.round(rng.uniform(0.005, 0.05, n), 4).tolist(),
                "a_max": np.round(rng.uniform(0.5, 1.5, n), 2).tolist(),
                "a0_max": [round(float(rng.uniform(2.0, 6.0)), 2)]}
    beta = np.round(rng.uniform(1.5, 4.0, n), 2).tolist()
    a_max = np.round(rng.uniform(0.5, 3.0, n), 2)
    mu = float(np.round(np.sum(a_max) * rng.uniform(1.05, 1.6), 3))
    cfg = {"kind": kind, "mu": mu, "beta": beta, "a_max": a_max.tolist()}
    if kind == "flow":
        cfg["a0_max"] = [round(float(rng.uniform(0.0, 3.0)), 2)]
    return cfg


def usable(stats):
    """Diagonal solo payoffs, and minmax shares summing below 0.95."""
    leak = np.max(np.abs(stats.solo_payoffs - np.diag(stats.vbar)))
    return bool(leak <= 1e-9 * max(1.0, float(np.max(stats.vbar)))
                and np.sum(stats.minmax(True) / stats.vbar) < 0.95)


def draw_stats(rng, kind, n):
    """Deviation stats of a random usable game of the given kind and size."""
    for _ in range(1000):
        stats = deviation_stats(game_from_config(draw_config(rng, kind, n)))
        if usable(stats):
            return stats
    raise AssertionError(f"no usable {kind} game with n={n} in 1000 draws")


def dirichlet_target(rng, stats):
    """Shares above the minmax shares, split by a flat Dirichlet draw."""
    base = stats.minmax(True) / stats.vbar
    return (base + (1.0 - np.sum(base)) * rng.dirichlet(np.ones(len(base)))) * stats.vbar


def onto_floor(stats, v, j, steps=50):
    """Move user ``j``'s share onto their guarantee floor ``nu(v)`` (which
    depends on the target through its threshold) by fixed-point steps,
    rescaling the other shares to keep the target on the simplex."""
    vbar = stats.vbar
    rest = np.arange(len(v)) != j
    for _ in range(steps):
        s = v / vbar
        s[j] = guarantee_floors(stats, v)[j] / vbar[j]
        s[rest] *= (1.0 - s[j]) / np.sum(s[rest])
        v = s * vbar
    return v


@pytest.mark.parametrize("delta", [None, 0.9988503291228562, 0.9988503291228562 + 1e-6],
                         ids=["delta_bar", "locked_before", "locked_before+1e-6"])
def test_reproducer_b_closes_at_and_above_the_threshold(delta):
    """A flow game and target whose path locked every plan at the threshold
    and at 0.99885..., and closed only 1e-6 above that."""
    game = FlowControlGame(mu=3.754, beta=[3.74, 2.87], a_max=[0.59, 2.87], a0_max=[0.94])
    stats = deviation_stats(game)
    v_star = np.array([0.3815410744815967, 2.4258757852306463])
    db = delta_bar(stats, v_star)
    assert db == pytest.approx(0.998592, abs=1e-6)
    path = generate_outcome_path(stats, v_star, db if delta is None else delta)
    assert_path_contract(path, stats, v_star)


@pytest.mark.parametrize("kind", KINDS)
def test_splice_moves_every_promise_by_the_closed_form(kind):
    """Cutting an orbit ``x_t = (1-delta) u[i_t] + delta x_(t+1)`` of ``K``
    periods into the cycle ``cs..K-1`` moves every promise, preamble
    included, by ``delta^(K-t) d`` with ``d = (x_cs - x_K) / (1 -
    delta^(K-cs))`` (in shares, ``d / vbar``): ``path_values`` of the closed
    path against the orbit, at several cuts of a seeded path of each kind."""
    rng = np.random.default_rng(7)
    stats = draw_stats(rng, kind, 3)
    v_star = dirichlet_target(rng, stats)
    delta = delta_bar(stats, v_star) + 0.01
    u = stats.solo_payoffs[generate_outcome_path(stats, v_star, delta).active]
    K = len(u)
    # the orbit run backwards from an end point x_K, where it contracts
    x = np.empty((K + 1, len(v_star)))
    x[K] = dirichlet_target(rng, stats)
    for t in range(K - 1, -1, -1):
        x[t] = (1.0 - delta) * u[t] + delta * x[t + 1]
    wrap = delta ** (K - np.arange(K))[:, None]
    for cs in {1, 2, K // 2, K - 2, K - 1} | set(rng.integers(1, K, 4).tolist()):
        d = (x[cs] - x[K]) / (1.0 - delta ** (K - cs))
        moved = path_values(u, cs, delta) - x[:K]
        assert np.max(np.abs(moved - wrap * d)) <= 1e-12, cs


def test_a_path_that_needs_the_2k_extension():
    """A flow game and a target on a floor, from the edge sweep, where no
    cut of the first K = 36 periods passes the splice bound: the same orbit
    runs on to 2K and closes there.  Valuing every cut of the first 36
    periods exactly confirms that none of them keeps the contract."""
    game = FlowControlGame(mu=5.54, beta=[3.4, 1.98], a_max=[2.78, 2.34], a0_max=[0.69])
    stats = deviation_stats(game)
    v_star = np.array([9.930184757478138, 15.310081420048189])
    delta = 0.5655224263598062
    path = generate_outcome_path(stats, v_star, delta)
    assert_path_contract(path, stats, v_star)
    assert len(path.active) == 72
    head = stats.solo_payoffs[path.active[:36]]
    for cs in range(1, 36):
        values = path_values(head, cs, delta)
        assert (np.max(np.abs(values[0] - v_star)) > 1e-6
                or np.max(path.nu - values) > 1e-9), cs


def test_edge_sweep_closes_every_pair():
    """Seeded sweep of random games of all three kinds (n = 2..4) at the
    threshold's edge: Dirichlet targets, half of them moved onto one user's
    floor, each tried at delta_bar, delta_bar + 1e-12, delta_bar + 1e-6 and
    a uniform draw in the lower 30% of (delta_bar, 1); instances with
    delta_bar >= 0.9995 are skipped.  About half the instances leave the
    floors no room at all at delta_bar, where the thresholds sum to one."""
    rng = np.random.default_rng(2)
    failures, pairs = [], 0
    while pairs < 1200:
        kind, n = KINDS[int(rng.integers(3))], int(rng.integers(2, 5))
        stats = deviation_stats(game_from_config(draw_config(rng, kind, n)))
        if not usable(stats):
            continue
        v_star = dirichlet_target(rng, stats)
        if rng.random() < 0.5:
            v_star = onto_floor(stats, v_star, int(rng.integers(n)))
        db = delta_bar(stats, v_star)
        if not db < 0.9995:
            continue
        for delta in (db, db + 1e-12, db + 1e-6, db + (1.0 - db) * rng.uniform(0.0, 0.3)):
            pairs += 1
            try:
                assert_path_contract(generate_outcome_path(stats, v_star, delta), stats, v_star)
            except (AssertionError, DecompositionError) as exc:
                failures.append((kind, stats.vbar.tolist(), v_star.tolist(), delta, repr(exc)))
    assert not failures, f"{len(failures)} of {pairs} pairs failed: {failures}"


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       target=st.sampled_from(["sum", "maxmin", "floor"]),
       gamma_frac=st.floats(0.0, 0.9),
       delta_kind=st.sampled_from(["delta_bar", "tiny", "uniform"]),
       u=st.floats(0.0, 1.0))
def test_outcome_path_contract_property(kind, n, seed, target, gamma_frac, delta_kind, u):
    """Welfare-optimal targets (for a random feasible guarantee) and targets
    on a user's floor, at delta_bar, just above it and uniformly above it."""
    rng = np.random.default_rng(seed)
    stats = draw_stats(rng, kind, n)
    if target == "floor":
        v_star = onto_floor(stats, dirichlet_target(rng, stats), int(rng.integers(n)))
    else:
        base = stats.minmax(True) / stats.vbar
        gamma = (base + gamma_frac * (1.0 - np.sum(base)) * rng.dirichlet(np.ones(n))) * stats.vbar
        v_star = optimize_welfare(stats, gamma, target).v
    db = delta_bar(stats, v_star)
    if not db < 0.9995:
        return
    delta = {"delta_bar": db, "tiny": db + 1e-12 * (1.0 + 1e3 * u),
             "uniform": db + (1.0 - db) * 0.5 * u}[delta_kind]
    assert_path_contract(generate_outcome_path(stats, v_star, delta), stats, v_star)
