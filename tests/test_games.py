"""Stage-game layer: payoffs, best responses, minmax, equilibria.

Expected values here were frozen from independent brute-force scripts
(dense grid searches and closed-form hand calculations) before the
library code was written.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repgame import games
from repgame.design import deviation_stats
from repgame.games import (FlowControlGame, GameConfigError, PacketDropGame,
                           PowerControlGame, game_from_config, minmax,
                           minmax_values, mutual_minmax, solve_stage_nash)


def reference_flow_game(a0_max=2.5):
    """Four users at a rate-10 queue, two delay-tolerant, two not."""
    return FlowControlGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4, a0_max=[a0_max])


def strong_interference_power_game():
    return PowerControlGame(gain=[[100.0, 10000.0], [10000.0, 100.0]],
                            intervention_gain=[1.0, 1.0], noise=[1.0, 1.0],
                            a_max=[1.0, 1.0], a0_max=[1.0])


def damped_nash(game, a0):
    """Oracle for the closed-form stage Nash points: the damped simultaneous
    best-response iteration from the all-max profile, stopped once a step
    falls below 1e-10, and restarted with the damping halved (up to three
    times) when the damped map oscillates among many strongly coupled users."""
    a0 = np.asarray(a0, dtype=float).reshape(-1)
    for attempt in range(4):
        d = 0.5 / 2 ** attempt
        a = game.a_max.astype(float).copy()
        for _ in range(100_000 if attempt == 3 else 2000):
            nxt = (1.0 - d) * a + d * game.best_responses(a0, a)
            step, a = np.max(np.abs(nxt - a)), nxt
            if step <= 1e-10:
                return a
    raise AssertionError(f"the damped iteration found no fixed point (last step {step:.3g})")


def grid_best_payoff(game, i, a0, others, points=4001):
    """Brute-force benchmark for the best-response payoff."""
    grid = np.linspace(0.0, game.a_max[i], points)
    acts = np.tile(np.asarray(others, dtype=float), (points, 1))
    acts[:, i] = grid
    a0s = np.tile(np.asarray(a0, dtype=float), (points, 1))
    vals = game.payoff_batch(a0s, acts)[:, i]
    return float(vals.max())


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

def test_flow_payoff_values():
    g = reference_flow_game()
    u = g.payoff([0.0], [1.0, 1.0, 1.0, 1.0])
    # capacity 10 - 4 = 6; beta powers of 1 are 1
    assert np.allclose(u, [6.0, 6.0, 6.0, 6.0])
    u = g.payoff([2.0], [2.0, 1.0, 1.0, 1.0])
    # capacity 10 - 2 - 5 = 3
    assert np.allclose(u, [12.0, 3.0, 3.0, 3.0])
    # saturated queue floors everyone at zero instead of going negative
    u = g.payoff([2.5], [2.5, 2.5, 2.5, 2.5])
    assert np.all(u == 0.0)


def test_flow_payoff_batch_shapes():
    g = reference_flow_game()
    a0 = np.zeros((5, 7, 1))
    a = np.ones((5, 7, 4))
    assert g.payoff_batch(a0, a).shape == (5, 7, 4)


def test_power_payoff_is_shannon_rate():
    g = PowerControlGame(gain=[[4.0, 1.0], [1.0, 4.0]], intervention_gain=[2.0, 2.0],
                         noise=[1.0, 1.0], a_max=[3.0, 3.0], a0_max=[1.0])
    u = g.payoff([0.5], [1.0, 2.0])
    sinr0 = 4.0 * 1.0 / (1.0 + 2.0 * 0.5 + 1.0 * 2.0)
    sinr1 = 4.0 * 2.0 / (1.0 + 2.0 * 0.5 + 1.0 * 1.0)
    assert np.allclose(u, [np.log2(1 + sinr0), np.log2(1 + sinr1)])


def test_packet_drop_payoff_scales_through_drop_probability():
    g = PacketDropGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4)
    a = [2.0, 1.0, 1.0, 1.0]
    half = g.payoff([0.5, 0.0, 0.0, 0.0], a)
    full = g.payoff([0.0] * 4, a)
    assert np.isclose(half[0], 0.25 * full[0])  # (0.5*2)^2 vs 2^2
    assert np.allclose(half[1:], full[1:])
    dropped = g.payoff([1.0, 0.0, 0.0, 0.0], a)
    assert dropped[0] == 0.0


def test_packet_drop_capacity_is_floored_at_zero():
    """``mu`` may sit up to ``BOX_TOL`` below ``sum(a_max)``; where the load
    rounds past it the queue saturates, as in the flow game: every payoff
    is +0.0 and no rate moves one."""
    g = PacketDropGame(mu=3.02 - 5e-10, beta=[1, 2, 2.5], a_max=[1.02, 1, 1])
    u = g.payoff(np.zeros(3), g.a_max)
    assert np.array_equal(u, np.zeros(3)) and not np.signbit(u).any()
    assert np.array_equal(g.payoff_jacobian(np.zeros(3), g.a_max), np.zeros((3, 3)))


def test_user_sum_of_no_users_is_positive_zero():
    for shape in ((8, 0), (2, 3, 0), (0,)):
        total = games._user_sum(np.empty(shape))
        assert total.shape == shape[:-1] and np.array_equal(total, np.zeros(shape[:-1]))
        assert not np.signbit(total).any()


def test_user_sum_of_user_major_blocks_adds_users_in_index_order():
    """A user-major block, the ``(R, n)`` view of a C-contiguous ``(n, R)``
    array, is summed over its n users in index order from +0.0 bit for bit,
    as the per-user loop adds them, for n = 1..16 and any R: -0.0 entries,
    an all -0.0 profile and magnitudes from 1e-8 to 1e8 make any other
    order show."""
    rng = np.random.default_rng(31)
    for n in range(1, 17):
        for R in (1, 2, 5, 33, 264, 1000):
            U = rng.uniform(-1.0, 1.0, (n, R)) * 10.0 ** rng.integers(-8, 9, (n, R))
            U[rng.random((n, R)) < 0.1] = -0.0
            U[:, 1:2] = -0.0   # one all -0.0 profile where R > 1
            want = 0.0 + U[0]
            for row in U[1:]:
                want = want + row
            total = games._user_sum(U.T)
            assert total.shape == (R,) and total.tobytes() == want.tobytes(), (n, R)


def test_payoff_rejects_out_of_box_actions():
    g = reference_flow_game()
    with pytest.raises(GameConfigError):
        g.payoff([0.0], [3.0, 1.0, 1.0, 1.0])
    with pytest.raises(GameConfigError):
        g.payoff([2.6], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(GameConfigError):
        g.payoff([0.0], [-0.1, 1.0, 1.0, 1.0])


def test_underprovisioned_queue_rejected():
    with pytest.raises(GameConfigError):
        FlowControlGame(mu=5.0, beta=[2, 2], a_max=[3.0, 3.0], a0_max=[1.0])
    with pytest.raises(GameConfigError):
        PacketDropGame(mu=3.0, beta=[1, 1], a_max=[2.0, 2.0])


@pytest.mark.parametrize("build, field", [
    (lambda: FlowControlGame(mu=np.nan, beta=[2, 2], a_max=[1.0, 1.0], a0_max=[1.0]), "mu"),
    (lambda: FlowControlGame(mu=5.0, beta=[2, np.inf], a_max=[1.0, 1.0], a0_max=[1.0]), "beta"),
    (lambda: FlowControlGame(mu=5.0, beta=[2, 2], a_max=[1.0, 1.0], a0_max=[np.nan]), "a0_max"),
    (lambda: PacketDropGame(mu=np.nan, beta=[2, 2], a_max=[1.0, 1.0]), "mu"),
    (lambda: PacketDropGame(mu=5.0, beta=[2, 2], a_max=[1.0, np.nan]), "a_max"),
    (lambda: PowerControlGame(gain=[[1.0, 0.5], [0.5, 1.0]], intervention_gain=[1.0, 1.0],
                              noise=[0.01, np.nan], a_max=[1.0, 1.0], a0_max=[1.0]), "noise"),
    (lambda: PowerControlGame(gain=[[1.0, np.nan], [0.5, 1.0]], intervention_gain=[1.0, 1.0],
                              noise=[0.01, 0.01], a_max=[1.0, 1.0], a0_max=[1.0]), "gain"),
])
def test_non_finite_parameters_rejected(build, field):
    # NaN slips through every `x <= 0` style check, so finiteness is tested first
    with pytest.raises(GameConfigError, match=f"^{field} must be finite"):
        build()


# ---------------------------------------------------------------------------
# best responses
# ---------------------------------------------------------------------------

def test_flow_best_response_closed_form():
    g = reference_flow_game()
    # free capacity 10 - 0.5 - 4.5 = 5; beta=2 user wants 2/3 of it, capped
    br = g.best_response(0, [0.5], [0.0, 1.5, 1.5, 1.5])
    assert br == 2.5
    br = g.best_response(0, [2.5], [0.0, 2.0, 2.0, 2.0])  # free = 1.5
    assert np.isclose(br, 1.0)
    # flat (saturated) case defaults to the maximum rate
    br = g.best_response(0, [2.5], [0.0, 2.5, 2.5, 2.5])
    assert br == 2.5


def test_flow_best_response_matches_grid():
    g = reference_flow_game()
    rng = np.random.default_rng(7)
    for _ in range(25):
        a0 = rng.uniform(0, 2.5, size=1)
        others = rng.uniform(0, 2.5, size=4)
        i = int(rng.integers(0, 4))
        br = g.best_response(i, a0, others)
        acts = others.copy()
        acts[i] = br
        got = g.payoff_batch(a0, acts)[i]
        assert got >= grid_best_payoff(g, i, a0, others) - 1e-9


def test_power_best_response_is_full_power():
    g = strong_interference_power_game()
    assert g.best_response(0, [0.3], [0.5, 0.2]) == 1.0
    assert grid_best_payoff(g, 0, [0.3], [1.0, 0.2]) <= \
        g.payoff_batch([0.3], [1.0, 0.2])[0] + 1e-12


def test_packet_best_response_flat_when_fully_dropped():
    g = PacketDropGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4)
    assert g.best_response(0, [1.0, 0, 0, 0], [0.0, 1.0, 1.0, 1.0]) == 2.5
    # partial dropping scales the payoff but not its argmax
    br = g.best_response(0, [0.4, 0, 0, 0], [0.0, 1.0, 1.0, 1.0])
    assert np.isclose(br, min(2.0 / 3.0 * 7.0, 2.5))
    br = g.best_response(3, [0, 0, 0, 0.4], [1.0, 1.0, 1.0, 0.0])
    assert np.isclose(br, min(0.75 * 7.0, 2.5))


@settings(max_examples=60, deadline=None)
@given(a0=st.floats(0.0, 2.5), others=st.lists(st.floats(0.0, 2.5), min_size=4, max_size=4),
       i=st.integers(0, 3))
def test_flow_best_response_beats_sampled_actions(a0, others, i):
    g = reference_flow_game()
    br = g.best_response(i, [a0], others)
    acts = np.asarray(others, dtype=float)
    acts[i] = br
    best = g.payoff_batch([a0], acts)[i]
    for x in np.linspace(0.0, 2.5, 41):
        acts[i] = x
        assert best >= g.payoff_batch([a0], acts)[i] - 1e-9


@settings(max_examples=60, deadline=None)
@given(a0=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       a=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3))
def test_intervention_only_punishes(a0, a):
    """Raising the device action never raises any user's payoff."""
    flow = FlowControlGame(mu=6.0, beta=[1, 2, 3], a_max=[2.0] * 3, a0_max=[1.0])
    drop = PacketDropGame(mu=6.0, beta=[1, 2, 3], a_max=[2.0] * 3)
    null3 = [0.0, 0.0, 0.0]
    assert np.all(flow.payoff([a0[0]], a) <= flow.payoff([0.0], a) + 1e-12)
    assert np.all(drop.payoff(a0, a) <= drop.payoff(null3, a) + 1e-12)


def _map_rows(g, rng, S=40):
    """Random profiles plus rows where some user's payoff is flat in its own
    action: a saturated queue (flow) or fully dropped packets (packet drop)."""
    a0s = rng.uniform(0, 1, size=(S, g.a0_dim)) * g.a0_max
    acts = rng.uniform(0, 1, size=(S, g.n)) * g.a_max
    if g.kind == "flow":
        a0s[:3] = g.a0_max
        acts[:3] = g.a_max           # free = mu - a0 - (others) <= 0 for every user
        acts[1, 0] = 0.0             # user 0's free capacity is still <= 0
    if g.kind == "packet_drop":
        a0s[:3] = 0.0
        acts[:3] = g.a_max           # the interior reply is below a_max here
        a0s[0] = 1.0                 # everyone dropped
        a0s[1, 2] = 1.0              # one user dropped
        a0s[2, 3] = 1.0
    return a0s, acts


@pytest.mark.parametrize("g", [reference_flow_game(2.5),
                               PacketDropGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4),
                               strong_interference_power_game()],
                         ids=["flow", "packet_drop", "power"])
def test_best_responses_match_per_user_search(g):
    """The ``(S, n)`` map against a dense grid search over each user's own
    action, one user and one profile at a time."""
    a0s, acts = _map_rows(g, np.random.default_rng(11))
    br = g.best_responses(a0s, acts)
    assert br.shape == acts.shape
    assert np.array_equal(g.best_responses(a0s[:, None], acts[:, None]), br[:, None])
    flat_rows = 0
    for k in range(acts.shape[0]):
        for i in range(g.n):
            grid = np.linspace(0.0, g.a_max[i], 4001)
            dev = np.tile(acts[k], (grid.size, 1))
            dev[:, i] = grid
            vals = g.payoff_batch(a0s[k], dev)[:, i]
            at_br = acts[k].copy()
            at_br[i] = br[k, i]
            assert g.best_response(i, a0s[k], acts[k]) == br[k, i]
            assert g.payoff_batch(a0s[k], at_br)[i] >= vals.max() - 1e-9
            if np.all(vals == 0.0):
                flat_rows += 1
                assert br[k, i] == g.a_max[i]   # flat payoff: the full action
            else:
                assert abs(br[k, i] - grid[np.argmax(vals)]) <= grid[1]
    assert flat_rows >= {"flow": 9, "packet_drop": 6, "power": 0}[g.kind]


def _random_game(rng, kind, n):
    """A seeded game of the given kind, parameters as in the bench's draws."""
    if kind == "power":
        return PowerControlGame(gain=rng.uniform(0.6, 1.4, (n, n)),
                                intervention_gain=rng.uniform(0.5, 1.5, n),
                                noise=rng.uniform(0.005, 0.05, n),
                                a_max=rng.uniform(0.5, 1.5, n), a0_max=[rng.uniform(2.0, 6.0)])
    a_max = rng.uniform(0.5, 3.0, n)
    mu, beta = float(np.sum(a_max) * rng.uniform(1.0, 1.6)), rng.uniform(1.5, 4.0, n)
    if kind == "flow":
        return FlowControlGame(mu=mu, beta=beta, a_max=a_max, a0_max=[rng.uniform(0.0, 3.0)])
    return PacketDropGame(mu=mu, beta=beta, a_max=a_max)


@pytest.mark.parametrize("kind", ["flow", "packet_drop", "power"])
def test_deviation_payoffs_match_per_profile_oracle(kind):
    """Every entry of the batched ``(R, G, n)`` map against the payoff of the
    one deviated profile, built and scored alone, bit for bit: every payoff
    map adds the users in index order, whatever the batch shape."""
    rng = np.random.default_rng(29)
    for n in range(2, 13):
        for _ in range(3):
            g = _random_game(rng, kind, n)
            a0 = rng.uniform(0, 1, (3, 4, g.a0_dim)) * g.a0_max
            a = rng.uniform(0, 1, (3, 4, n)) * g.a_max
            x = rng.uniform(0, 1, (3, 4, n)) * g.a_max
            got = g.deviation_payoffs(a0, a, x)
            want = np.empty(got.shape)
            for k in np.ndindex(got.shape):
                dev = a[k[:-1]].copy()
                dev[k[-1]] = x[k]
                want[k] = g.payoff_batch(a0[k[:-1]], dev)[k[-1]]
            assert np.array_equal(got, want)
            # one profile, and the profile broadcast against a stack of deviations
            assert np.array_equal(g.deviation_payoffs(a0[0, 0], a[0, 0], x[0, 0]), got[0, 0])
            assert np.array_equal(g.deviation_payoffs(a0[0, 0], a[0, 0], x[0]),
                                  g.deviation_payoffs(a0[0, :1], a[0, :1], x[0]))


@pytest.mark.parametrize("kind", ["flow", "packet_drop", "power"])
def test_payoff_bits_do_not_depend_on_batch_shape(kind):
    """A profile scored alone, in an ``(R, n)`` stack, nested as ``(R, 1,
    n)`` or inside the ``(..., n, n)`` block of ``deviation_payoffs`` gets
    the same payoff bits: every payoff map adds the users in index order."""
    rng = np.random.default_rng(37)
    for n in range(2, 17):
        for _ in range(10):
            g = _random_game(rng, kind, n)
            a0 = rng.uniform(0, 1, (50, g.a0_dim)) * g.a0_max
            a = rng.uniform(0, 1, (50, n)) * g.a_max
            x = rng.uniform(0, 1, (50, n)) * g.a_max
            alone = np.array([g.payoff_batch(a0[r], a[r]) for r in range(50)])
            assert np.array_equal(g.payoff_batch(a0, a), alone)
            assert np.array_equal(g.payoff_batch(a0[:, None], a[:, None])[:, 0], alone)
            deviated = np.empty((50, n))
            for r, i in np.ndindex(50, n):
                dev = a[r].copy()
                dev[i] = x[r, i]
                deviated[r, i] = g.payoff_batch(a0[r], dev)[i]
            assert np.array_equal(g.deviation_payoffs(a0, a, x), deviated)


@pytest.mark.parametrize("kind", ["flow", "packet_drop", "power"])
def test_max_stage_payoff_is_best_solo_payoff(kind):
    """The bound is the best solo payoff at the given device action (null
    for None), and no sampled profile, device action included, beats it."""
    rng = np.random.default_rng(31)
    for n in (2, 3, 5, 8, 12):
        g = _random_game(rng, kind, n)
        best = float(np.max(deviation_stats(g).vbar))
        assert games.max_stage_payoff(g) == best
        assert games.max_stage_payoff(g, a0=g.null_intervention()) == best
        a0 = g.full_intervention()
        at_full = games.best_response_payoffs(g, a0, np.zeros(n))
        assert games.max_stage_payoff(g, a0=a0) == float(np.max(at_full)) <= best
        a0s = rng.uniform(0, 1, (2000, g.a0_dim)) * g.a0_max
        acts = rng.uniform(0, 1, (2000, n)) * g.a_max
        assert np.max(g.payoff_batch(a0s, acts)) <= best


def _difference_jacobian(g, a0, a, h, cols=None, forward=False):
    """``d u_i / d a_j`` by central differences of step ``h`` in each
    ``a_j`` of ``cols`` (all by default), as an ``(..., n, len(cols))``
    array; by forward differences instead with ``forward``, for a rate on
    the edge of the box."""
    out = []
    for j in range(g.n) if cols is None else cols:
        step = np.zeros(g.n)
        step[j] = h
        back, width = (a, h) if forward else (a - step, 2.0 * h)
        out.append((g.payoff_batch(a0, a + step) - g.payoff_batch(a0, back)) / width)
    return np.stack(out, axis=-1)


@pytest.mark.parametrize("kind", ["flow", "packet_drop", "power"])
def test_payoff_jacobian_matches_central_differences(kind):
    """The closed-form Jacobian against central differences on seeded
    profiles inside the box, the device at null and on (the packet-drop
    device at 0 < a0 < 1, the jammer on), for a batch and row by row."""
    rng = np.random.default_rng(37)
    for n in (1, 2, 3, 5, 8, 12):
        g = _random_game(rng, kind, n)
        a0 = np.concatenate([[g.null_intervention()],
                             rng.uniform(0.05, 0.95, (5, g.a0_dim)) * g.a0_max])
        a = rng.uniform(0.1, 0.9, (6, n)) * g.a_max
        jac = g.payoff_jacobian(a0, a)
        assert jac.shape == (6, n, n) and np.all(np.isfinite(jac))
        want = _difference_jacobian(g, a0, a, 1e-5)
        np.testing.assert_allclose(jac, want, rtol=1e-6, atol=1e-9 * np.max(np.abs(want)))
        for k in range(len(a)):
            np.testing.assert_allclose(g.payoff_jacobian(a0[k], a[k]), jac[k], rtol=1e-12)


def test_payoff_jacobian_at_kinks_and_zero_rates_is_finite():
    """Where a payoff is not differentiable the Jacobian stays finite, so
    SLSQP never sees an inf or a nan: a saturated flow queue and a user
    whose packets are all dropped have zero slopes (as central differences
    give), and a zero rate has the slope of ``a**beta`` for ``beta = 1`` and
    ``beta > 1``, and for ``beta < 1`` the slope at ``2**-26``."""
    sat = FlowControlGame(mu=4.0, beta=[2.0, 3.0], a_max=[1.5, 1.2], a0_max=[3.0])
    a0, a = np.array([3.0]), np.array([0.7, 0.9])   # capacity 4 - 3 - 1.6 < 0
    assert np.array_equal(sat.payoff_jacobian(a0, a), np.zeros((2, 2)))
    assert np.array_equal(_difference_jacobian(sat, a0, a, 1e-5), np.zeros((2, 2)))

    beta = np.array([0.5, 1.0, 2.0, 3.0])
    a = np.array([0.0, 0.0, 0.0, 0.8])
    for g, a0 in ((FlowControlGame(mu=6.0, beta=beta, a_max=[1.5] * 4, a0_max=[1.0]),
                   np.array([0.4])),
                  (PacketDropGame(mu=6.0, beta=beta, a_max=[1.5] * 4),
                   np.array([0.3, 0.6, 0.2, 0.5]))):
        jac = g.payoff_jacobian(a0, a)
        assert np.all(np.isfinite(jac))
        # the zero rates sit on the edge of the box: slopes into it, except
        # for beta < 1, where the slope is infinite
        np.testing.assert_allclose(jac[:, 1:3], _difference_jacobian(g, a0, a, 1e-8, [1, 2], True),
                                   rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(jac[:, 3], _difference_jacobian(g, a0, a, 1e-5, [3])[:, 0],
                                   rtol=1e-6)
        # user 0 (beta = 0.5): its own slope at the paid rate 2**-26, and the
        # others' slopes in its rate, -(paid rate)**beta
        scale = np.ones(4) if g.kind == "flow" else 1.0 - a0
        cap = 6.0 - np.sum(a) - (a0[0] if g.kind == "flow" else 0.0)
        assert jac[0, 0] == pytest.approx(0.5 * (2.0 ** -26) ** -0.5 * scale[0] * cap, rel=1e-12)
        np.testing.assert_allclose(jac[1:, 0], -(scale[1:] * a[1:]) ** beta[1:], rtol=1e-12)

    drop = PacketDropGame(mu=6.0, beta=beta, a_max=[1.5] * 4)
    a0, a = np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.5, 0.5])
    jac = drop.payoff_jacobian(a0, a)
    assert np.all(np.isfinite(jac)) and np.array_equal(jac[0], np.zeros(4))


# ---------------------------------------------------------------------------
# the queue games, pinned to their formulas
# ---------------------------------------------------------------------------

def _queue_game_pair(rng, n):
    """A flow and a packet-drop game of equal ``mu``, ``beta`` and ``a_max``;
    some elasticities are 0.5, 2 or 3 exactly, where numpy would take a
    square root, square or cube of one exponent, and some lie below 1."""
    a_max = rng.uniform(0.5, 3.0, n)
    beta = np.where(rng.uniform(size=n) < 0.4, rng.choice([0.5, 2.0, 3.0], n),
                    rng.uniform(0.3, 4.0, n))
    mu = float(np.sum(a_max) * rng.uniform(1.0, 1.6))
    return (FlowControlGame(mu=mu, beta=beta, a_max=a_max, a0_max=[rng.uniform(0.0, mu)]),
            PacketDropGame(mu=mu, beta=beta, a_max=a_max))


def _written_queue_maps(g, a0, a):
    """The payoffs, their Jacobian and the best responses of a queue game,
    written out: the load added in index order from +0.0, the flow device
    taking capacity (``(mu - a0) - load``), the packet-drop device paying
    ``max((1 - a0) a, 0)`` for the rate ``a``."""
    zero = np.zeros(a.shape[:-1] + (1,))
    load = np.cumsum(np.concatenate([zero, a], axis=-1), axis=-1)[..., -1]
    if g.kind == "flow":
        room, paid, scale, dropped = g.mu - a0[..., 0], a, 1.0, False
    else:
        room, paid, scale, dropped = g.mu, np.maximum((1.0 - a0) * a, 0.0), 1.0 - a0, a0 >= 1.0 - 1e-12
    cap = room - load
    floored = np.maximum(cap, 0.0)[..., None]
    u = np.power(paid, g.beta) * floored
    # d u_i / d a_j = paid_i**beta_i slope + [i = j] beta_i base_i**(beta_i - 1) scale_i cap
    slope = np.where(cap > 0.0, -1.0, 0.0)
    base = np.where((paid == 0.0) & (g.beta < 1.0), 2.0 ** -26, paid)
    jac = np.empty(a.shape + (g.n,))
    jac[...] = (np.power(paid, g.beta) * slope[..., None])[..., None]
    users = np.arange(g.n)
    jac[..., users, users] += g.beta * np.power(base, g.beta - 1.0) * scale * floored
    free = np.expand_dims(room, -1) - (load[..., None] - a)
    br = np.where((free <= 0.0) | dropped, g.a_max,
                  np.minimum(g.beta / (1.0 + g.beta) * free, g.a_max))
    return u, jac, br


def _written_stage_nash(g, a0):
    """The Nash point (Bharath-Kumar & Jaffe, 1981), written out: all-max
    where no paid user has capacity left; else, over the paid users sorted
    by ``a_max_i / beta_i``, the first k capped at ``a_max`` and the rest at
    ``beta_i C`` with ``C = (room - capped load) / (1 + sum(rest's beta))``,
    k the first segment where that stays below the next breakpoint."""
    room = g.mu - a0[0] if g.kind == "flow" else g.mu
    fixed = np.zeros(g.n, dtype=bool) if g.kind == "flow" else a0 >= 1.0 - 1e-12
    a = g.a_max.copy()
    if np.all(fixed | (room - (np.sum(a) - a) <= 0.0)):
        return a, "saturated"
    free = np.flatnonzero(~fixed)
    order = free[np.argsort(a[free] / g.beta[free], kind="stable")]
    num = np.subtract.accumulate(np.concatenate([[room - np.sum(a[fixed])], a[order]]))
    den = np.subtract.accumulate(np.concatenate([[1.0 + np.sum(g.beta[free])], g.beta[order]]))
    below = g.beta[order] * num[:-1] / den[:-1] < a[order]
    if not below.any():
        return a, "all capped"
    m = int(np.argmax(below))
    rest = order[m:]
    a[rest] = np.minimum(g.beta[rest] * num[m] / den[m], a[rest])
    return a, "interior" if m == 0 else "some capped"


def test_queue_maps_match_their_written_formulas():
    """Both queue games' payoffs, Jacobians, best responses and stage Nash
    points against the formulas written out here, bit for bit (signed zeros
    included), for n = 2..12 on seeded profiles: saturated and idle queues,
    device actions on and off, and packets dropped in full."""
    rng = np.random.default_rng(43)
    seen = dict.fromkeys(["saturated", "all capped", "some capped", "interior"], 0)
    for n in range(2, 13):
        for g in _queue_game_pair(rng, n):
            a0 = rng.uniform(0, 1, (40, g.a0_dim)) * g.a0_max
            a = rng.uniform(0, 1, (40, n)) * g.a_max
            a0[:4], a[:8], a[8:12] = 0.0, g.a_max, 0.0
            if g.kind == "flow":
                a0[4:8] = g.a0_max
            else:
                a0[::3] = np.where(rng.uniform(size=(14, n)) < 0.4, 1.0, a0[::3])
                a0[4] = 1.0
            u, jac, br = _written_queue_maps(g, a0, a)
            assert g.payoff_batch(a0, a).tobytes() == u.tobytes(), (g.kind, n)
            assert g.payoff_jacobian(a0, a).tobytes() == jac.tobytes(), (g.kind, n)
            assert g.best_responses(a0, a).tobytes() == br.tobytes(), (g.kind, n)
            for k in range(0, 40, 4):
                want, case = _written_stage_nash(g, a0[k])
                assert g.stage_nash(a0[k]).tobytes() == want.tobytes(), (g.kind, n, k)
                seen[case] += 1
    assert min(seen.values()) >= 5, seen


def test_queue_games_build_equal_grids_and_lines_at_null_intervention():
    """At null intervention the flow and packet-drop games of equal ``mu``,
    ``beta`` and ``a_max`` are one game: their grid blocks (payoffs on any
    run of the grid, and the bounds) and ascent line blocks are equal bit
    for bit, and the payoffs equal the written ones."""
    rng = np.random.default_rng(47)
    for n in range(2, 13):
        flow, drop = _queue_game_pair(rng, n)
        null = np.zeros((1, flow.n))
        pts = 3 if n <= 7 else 2
        axes = [np.unique(np.concatenate([[0.0, am], rng.uniform(0.0, am, pts - 2)]))
                for am in flow.a_max]
        (bounds_f, score_f), (bounds_d, score_d) = flow.grid_blocks(axes), drop.grid_blocks(axes)
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        U = _written_queue_maps(flow, null[:, :1], grid)[0]
        cuts = np.sort(rng.choice(len(grid) + 1, 4, replace=False))
        for lo, hi in ((0, len(grid)), (cuts[0], cuts[1]), (cuts[2], cuts[3])):
            pay_f, pay_d = score_f(lo, hi), score_d(lo, hi)
            assert pay_f.tobytes() == pay_d.tobytes() == U[lo:hi].T.tobytes(), n
        levels = [0.0, float(np.median(U.min(axis=-1)))]
        for got_f, got_d in zip(bounds_f(levels), bounds_d(levels)):
            assert got_f.tobytes() == got_d.tobytes(), n

        x_f = rng.uniform(0.0, 1.0, (5, n)) * flow.a_max
        x_f[-1] = flow.a_max
        x_d = x_f.copy()
        half = 0.3 * flow.a_max
        lines = np.linspace(np.maximum(0.0, x_f - half), np.minimum(flow.a_max, x_f + half), 9, axis=1)
        prof = np.repeat(x_f[:, None, :], 9, axis=1)
        steps = 0
        for i, (block_f, block_d) in enumerate(zip(flow.line_payoffs(x_f, lines),
                                                   drop.line_payoffs(x_d, lines))):
            prof[:, :, i] = lines[:, :, i]
            want = np.moveaxis(_written_queue_maps(flow, null[:, :1], prof)[0], -1, 0)
            assert block_f.tobytes() == block_d.tobytes() == want.tobytes(), (n, i)
            x_f[::2, i] = x_d[::2, i] = lines[::2, rng.integers(0, 9), i]   # a move for every other start
            prof[:, :, i] = x_f[:, i, None]
            steps += 1
        assert steps == n


# ---------------------------------------------------------------------------
# stage equilibrium
# ---------------------------------------------------------------------------

def test_stage_nash_of_reference_game():
    g = reference_flow_game()
    prof = solve_stage_nash(g)
    assert np.allclose(prof.a, [2.0, 2.0, 2.5, 2.5], atol=1e-8)
    u = g.payoff(prof.a0, prof.a)
    assert np.allclose(u, [4.0, 4.0, 15.625, 15.625], atol=1e-7)
    # independent certificate: nobody improves on a dense grid
    for i in range(4):
        assert u[i] >= grid_best_payoff(g, i, prof.a0, prof.a) - 1e-7


def test_stage_nash_matches_per_user_iteration_on_12_user_scaling_game():
    """The oracle iteration, bit for bit against the damped iteration written
    out per user with the flow best-response formula, on the largest
    ``scaling`` game; the closed form lies within 1e-8 of both."""
    n, mu = 12, 12.0
    g = FlowControlGame(mu=mu, beta=[3.0] * n, a_max=[1.0] * n, a0_max=[1.0])

    def reply(i, a):
        free = mu - 0.0 - (sum(a) - a[i])
        return 1.0 if free <= 0.0 else min(3.0 / (1.0 + 3.0) * free, 1.0)

    for attempt in range(4):
        d = 0.5 / 2 ** attempt
        a = np.ones(n)
        for _ in range(100_000 if attempt == 3 else 2000):
            nxt = (1.0 - d) * a + d * np.array([reply(i, a) for i in range(n)])
            step, a = np.max(np.abs(nxt - a)), nxt
            if step <= 1e-10:
                break
        if step <= 1e-10:
            break
    assert np.array_equal(damped_nash(g, g.null_intervention()), a)
    assert np.max(np.abs(solve_stage_nash(g).a - a)) <= 1e-8


def test_stage_nash_failure_reports_the_certificate():
    """Every game supplies its closed form; a point that is no equilibrium
    fails the certificate, which names the user and the gain."""
    g = reference_flow_game()
    with pytest.raises(NotImplementedError):
        games.StageGame.stage_nash(g, g.null_intervention())
    g.stage_nash = lambda a0: np.zeros(g.n)
    with pytest.raises(games.NashIterationError, match=r"fails its certificate: user \d gains ") as err:
        solve_stage_nash(g)
    assert float(str(err.value).split("gains ")[1]) > games.GAIN_TOL


def _queue_nash_games(rng, count):
    """Seeded flow and packet-drop games, each with a device action: spare
    capacity ``a0 > 0``, caps that bind at the equilibrium, users dropped
    with probability 1, and all-max profiles where no user has capacity
    left (every user dropped, or a device grab past the box load)."""
    for k in range(count):
        n = int(rng.integers(1, 9))
        beta = rng.uniform(0.2, 5.0, n)
        a_max = rng.uniform(0.05, 3.0, n) * rng.choice([1.0, 0.1], n, p=[0.8, 0.2])
        mu = float(np.sum(a_max) * rng.uniform(1.0, 1.5))
        if k % 2 == 0:
            # a0 beyond mu - sum(a_max) + max(a_max) saturates the queue
            top = mu - np.sum(a_max) + np.max(a_max)
            a0_max = top * rng.uniform(1.0, 1.5) if k % 10 == 0 else rng.uniform(0.0, mu)
            a0 = a0_max if k % 10 == 0 else rng.uniform(0.0, a0_max)
            yield FlowControlGame(mu=mu, beta=beta, a_max=a_max, a0_max=[a0_max]), np.array([a0])
        else:
            dropped = np.ones(n, dtype=bool) if k % 10 == 1 else rng.uniform(size=n) < 0.3
            a0 = np.where(dropped, 1.0, rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.5))
            yield PacketDropGame(mu=mu, beta=beta, a_max=a_max), a0


def test_closed_form_stage_nash_matches_the_iteration():
    """The closed-form queue Nash point against the damped iteration on
    1,200 seeded games: within 1e-8 (the iteration stops once a step falls
    below 1e-10, which leaves it up to about 1e-9 from the fixed point) and
    certified; every case in the draw occurs at least 100 times."""
    rng = np.random.default_rng(41)
    seen = {"a0 > 0": 0, "cap binds": 0, "dropped": 0, "interior": 0, "saturated": 0}
    for game, a0 in _queue_nash_games(rng, 1200):
        a = solve_stage_nash(game, a0).a
        want = damped_nash(game, a0)
        assert np.max(np.abs(a - want)) <= 1e-8, (game.to_config(), a0)
        gain = games.best_response_payoffs(game, a0, a) - game.payoff_batch(a0, a)
        assert np.max(gain) <= games.GAIN_TOL
        seen["a0 > 0"] += bool(game.kind == "flow" and a0[0] > 0.0)
        free = a0 < 1.0 if game.kind == "packet_drop" else np.ones(game.n, dtype=bool)
        room = game.mu - (a0[0] if game.kind == "flow" else 0.0)
        seen["cap binds"] += bool(np.any(free & (a == game.a_max)) and np.any(a < game.a_max))
        seen["dropped"] += game.kind == "packet_drop" and bool(np.any(~free))
        seen["interior"] += bool(np.any(a < game.a_max))
        seen["saturated"] += bool(np.all(~free | (room - (np.sum(game.a_max) - game.a_max) <= 0)))
    assert min(seen.values()) >= 100, seen


def test_power_stage_nash_is_full_power_as_the_iteration_finds():
    """A user's rate rises with their own power whatever the others send, so
    the power game's stage Nash point is the all-max profile, bit for bit
    the iteration's, with or without the jammer."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        gain = rng.uniform(0.1, 100.0, (n, n))
        g = PowerControlGame(gain=gain, intervention_gain=rng.uniform(0.0, 2.0, n),
                             noise=rng.uniform(0.01, 1.0, n), a_max=rng.uniform(0.1, 3.0, n),
                             a0_max=[2.0])
        for a0 in ([0.0], [2.0]):
            a = solve_stage_nash(g, a0).a
            assert np.array_equal(a, g.a_max) and np.array_equal(a, damped_nash(g, a0))
    g = strong_interference_power_game()
    assert np.array_equal(solve_stage_nash(g).a, damped_nash(g, [0.0]))


def test_closed_form_stage_nash_of_12_user_scaling_game():
    """Twelve users of elasticity 3 at a rate-12 queue: ``C + 36 C = 12``,
    so each sends ``3 C = 36/37``, exactly."""
    g = FlowControlGame(mu=12.0, beta=[3.0] * 12, a_max=[1.0] * 12, a0_max=[1.0])
    assert np.array_equal(solve_stage_nash(g).a, np.full(12, 36.0 / 37.0))


def test_stage_nash_under_full_intervention_is_all_max():
    g = reference_flow_game()
    prof = solve_stage_nash(g, a0=[2.5])
    assert np.allclose(prof.a, [2.5] * 4)
    assert np.allclose(g.payoff(prof.a0, prof.a), 0.0)


# ---------------------------------------------------------------------------
# minmax and solo optima (frozen oracle values)
# ---------------------------------------------------------------------------

def test_solo_values_frozen():
    g = reference_flow_game()
    assert np.allclose(deviation_stats(g).vbar, [46.875, 46.875, 117.1875, 117.1875], atol=1e-10)


def test_minmax_without_intervention_frozen():
    g = reference_flow_game()
    v = minmax_values(g, with_intervention=False)
    assert np.allclose(v, [125.0 / 54.0, 125.0 / 54.0, 4.119873046875, 4.119873046875],
                       atol=1e-12)
    r = minmax(g, 0, with_intervention=False)
    assert np.isclose(r.profile.a[0], 5.0 / 3.0)
    assert np.all(r.profile.a[1:] == 2.5)
    assert np.all(r.profile.a0 == 0.0)


@pytest.mark.parametrize("a0_max,expected", [
    (0.5, [32.0 / 27.0, 32.0 / 27.0, 1.6875, 1.6875]),
    (1.0, [0.5, 0.5, 0.533935546875, 0.533935546875]),
    (2.5, [0.0, 0.0, 0.0, 0.0]),
])
def test_minmax_with_intervention_frozen(a0_max, expected):
    g = reference_flow_game(a0_max)
    assert np.allclose(minmax_values(g, with_intervention=True), expected, atol=1e-12)
    assert np.array_equal(g.minmax_minimizer(1), g.a0_max)   # the base-class minimiser


def test_minmax_matches_enumeration_small_game():
    """Exhaustive 9-point enumeration over (device, opponents) on a 2-user game."""
    g = FlowControlGame(mu=5.0, beta=[1.0, 2.0], a_max=[2.0, 2.0], a0_max=[1.0])
    pts = np.linspace(0.0, 1.0, 9)
    for i in range(2):
        j = 1 - i
        worst = np.inf
        for a0 in pts * g.a0_max[0]:
            for aj in pts * g.a_max[j]:
                others = np.zeros(2)
                others[j] = aj
                bi = g.best_response(i, [a0], others)
                others[i] = bi
                worst = min(worst, g.payoff_batch([a0], others)[i])
        assert np.isclose(worst, minmax(g, i).value, atol=1e-12)


@pytest.mark.parametrize("with_device", [True, False], ids=["device", "no_device"])
@pytest.mark.parametrize("kind", ["flow", "packet_drop", "power"])
def test_minmax_table_matches_per_user_oracle(kind, with_device):
    """Row i of the one-call minmax table against user i's profile built
    alone: the all-max profile, the device at ``minmax_minimizer(i)`` (or
    null), and i's reply from a one-row ``best_responses`` call."""
    rng = np.random.default_rng(43)
    for n in range(2, 13):
        g = _random_game(rng, kind, n)
        a0, a, u = games._minmax_table(g, with_device)
        for i in range(n):
            b0 = g.minmax_minimizer(i) if with_device else g.null_intervention()
            prof = g.a_max.astype(float).copy()
            prof[i] = g.best_responses(b0[None], prof[None])[0, i]
            want = g.payoff_batch(b0, prof)
            assert np.array_equal(a0[i], b0) and np.array_equal(a[i], prof)
            assert np.array_equal(u[i], want)
            r = minmax(g, i, with_device)
            assert r.value == want[i] and r.with_intervention == with_device
            assert np.array_equal(r.profile.a0, b0) and np.array_equal(r.profile.a, prof)
        assert np.array_equal(minmax_values(g, with_device), np.diagonal(u))


def test_mutual_minmax_nash_only_under_enough_intervention():
    weak = reference_flow_game(0.0)
    strong = reference_flow_game(2.5)
    assert not mutual_minmax(weak).is_stage_nash
    assert mutual_minmax(weak).worst_gain > 2.0  # solo deviation nets 125/54
    res = mutual_minmax(strong)
    assert res.is_stage_nash
    assert np.allclose(res.payoffs, 0.0)
    assert np.all(res.profile.a == 2.5)


def test_packet_drop_minmax_targets_one_user():
    g = PacketDropGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4)
    r = minmax(g, 2)
    assert r.value == 0.0
    assert np.allclose(r.profile.a0, [0, 0, 1, 0])
    assert mutual_minmax(g).is_stage_nash  # everyone dropped, all payoffs flat at 0


def test_power_game_minmax_and_nash():
    g = strong_interference_power_game()
    # best response is always full power, so all-max is the unique stage Nash
    prof = solve_stage_nash(g)
    assert np.allclose(prof.a, [1.0, 1.0])
    assert mutual_minmax(g).is_stage_nash
    v_with = minmax_values(g, with_intervention=True)
    v_without = minmax_values(g, with_intervention=False)
    expected_without = np.log2(1.0 + 100.0 / (1.0 + 10000.0))
    assert np.allclose(v_without, expected_without)
    assert np.all(v_with < v_without)


# ---------------------------------------------------------------------------
# config round-trips
# ---------------------------------------------------------------------------

def test_config_round_trip():
    for g in (reference_flow_game(1.0), strong_interference_power_game(),
              PacketDropGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4)):
        cfg = g.to_config()
        g2 = game_from_config(cfg)
        assert g2.to_config() == cfg
        rng = np.random.default_rng(3)
        a0 = rng.uniform(0, 1, g.a0_dim) * g.a0_max
        a = rng.uniform(0, 1, g.n) * g.a_max
        assert np.allclose(g.payoff(a0, a), g2.payoff(a0, a))


def test_game_from_config_rejects_unknown_kind():
    with pytest.raises(GameConfigError):
        game_from_config({"kind": "auction", "mu": 1.0})


def test_with_a0_max_rebuilds_box():
    g = reference_flow_game(0.5)
    g2 = g.with_a0_max([2.5])
    assert g2.a0_max[0] == 2.5
    assert np.allclose(minmax_values(g2, with_intervention=True), 0.0)


def test_packet_drop_device_box_cannot_be_set():
    """The packet-drop device box is the unit box: a config that sets it is
    refused, and so is a copy with another box."""
    g = PacketDropGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4)
    with pytest.raises(GameConfigError, match="a0_max"):
        game_from_config({**g.to_config(), "a0_max": [0.3] * 4})
    with pytest.raises(GameConfigError, match="a0_max"):
        g.with_a0_max([0.3] * 4)


def test_max_stage_payoff_flow():
    g = reference_flow_game()
    # with the device quiet the best anyone can do is the solo optimum
    assert np.isclose(games.max_stage_payoff(g, a0=[0.0]), 117.1875, atol=1e-9)
    assert np.isclose(games.max_stage_payoff(g, a0=None), 117.1875, atol=1e-9)
