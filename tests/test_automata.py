"""Automata layer: transitions, state values, SPE checks, incentive bounds.

Frozen expectations come from two independent oracle scripts: a
value-iteration solver for state values and a bisection over explicit
constraint formulas for the minimum discount factors.
"""
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repgame.automata import (AutomatonError, _best_deviations, _bisect, _minmax_families,
                              build_minmax_automaton,
                              build_player_specific_automaton, describe,
                              find_min_delta_for_constraints, min_delta_for_L,
                              minmax_delta_constraints,
                              player_specific_delta_constraints,
                              path_values, prescribe_punishment_length,
                              prescribe_reward_delay, state_values, verify_spe)
from repgame.design import (assemble_protocol, deviation_stats, generate_outcome_path,
                            optimize_welfare)
from repgame.games import (ActionProfile, FlowControlGame, PacketDropGame, max_stage_payoff,
                           minmax, mutual_minmax)
from repgame.simulate import deviation_gain, profitability_scan

MARGIN_PATH = [0.8889715613961255, 0.8889715613961255, 2.5, 2.5]


def fig_game(a0_max=2.5):
    return FlowControlGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4, a0_max=[a0_max])


def margin_profile():
    """Efficient symmetric profile keeping the impatient users 10% above
    what they could guarantee alone against a hostile crowd."""
    return ActionProfile(a0=[0.0], a=MARGIN_PATH)


def value_iteration_oracle(game, automaton, delta, sweeps=20000, tol=1e-13):
    """Plain fixed-point iteration over all states; slow but independent."""
    states = automaton.reachable_states()
    V = {s: np.zeros(game.n) for s in states}
    u = {s: game.payoff_batch(*automaton.output(s)) for s in states}
    for _ in range(sweeps):
        worst = 0.0
        for s in states:
            nxt = automaton.next_on_path(s)
            new = (1 - delta) * u[s] + delta * V[nxt]
            worst = max(worst, float(np.max(np.abs(new - V[s]))))
            V[s] = new
        if worst < tol:
            break
    return V


# ---------------------------------------------------------------------------
# structure and transitions
# ---------------------------------------------------------------------------

def test_grim_requires_stage_nash_punishment():
    with pytest.raises(AutomatonError):
        build_minmax_automaton(fig_game(0.0), [margin_profile()], L=None)
    aut = build_minmax_automaton(fig_game(2.5), [margin_profile()], L=None)
    assert aut.kind == "grim"
    # one path row, then the absorbing row
    assert aut.table_a.shape == (2, 4)
    assert np.all(aut.table_a0[1] == [2.5]) and np.all(aut.table_a[1] == 2.5)


def test_punishment_length_below_one_is_rejected_with_one_message():
    g, path = fig_game(2.5), margin_profile()
    errors = []
    for call in (lambda: build_minmax_automaton(g, [path], L=0),
                 lambda: min_delta_for_L(g, path, 0),
                 lambda: build_player_specific_automaton(g, [path], L=0, reward_profiles=[]),
                 lambda: build_player_specific_automaton(g, [path], L=-2, reward_profiles=[])):
        with pytest.raises(AutomatonError) as exc:
            call()
        errors.append(str(exc.value))
    assert errors == ["punishment length L must be at least 1"] * 4


def test_player_specific_punishment_rejects_an_unbounded_length():
    g, path = fig_game(2.5), margin_profile()
    with pytest.raises(AutomatonError) as exc:
        build_player_specific_automaton(g, [path], L=None, reward_profiles=[])
    assert str(exc.value) == "player-specific punishment needs a finite punishment length L"


def test_transitions_grim():
    aut = build_minmax_automaton(fig_game(2.5), [margin_profile()], L=None)
    s0 = aut.initial_state
    _, prescribed = aut.output(s0)
    assert aut.transition(s0, prescribed) == ("path", 0)
    dev = prescribed.copy()
    dev[1] = 1.7
    assert aut.transition(s0, dev) == ("punish_abs",)
    # grim restarts punishment even on simultaneous deviations
    dev2 = prescribed.copy()
    dev2[0] = 0.1
    dev2[3] = 0.2
    assert aut.transition(s0, dev2) == ("punish_abs",)
    assert aut.transition(("punish_abs",), prescribed) == ("punish_abs",)


def test_transitions_finite_minmax():
    g = fig_game(1.0)
    aut = build_minmax_automaton(g, [margin_profile()], L=3)
    s0 = aut.initial_state
    _, prescribed = aut.output(s0)
    dev = prescribed.copy()
    dev[2] = 0.4
    assert aut.transition(s0, dev) == ("punish", 2, 0)
    # simultaneous deviations are ignored on purpose
    dev[3] = 0.4
    assert aut.transition(s0, dev) == ("path", 0)
    # punishment phase: compliant play advances, the punished restarting on deviation
    a0p, ap = aut.output(("punish", 2, 0))
    assert np.all(a0p == [1.0])
    assert np.isclose(ap[2], g.best_response(2, [1.0], g.a_max))
    assert aut.transition(("punish", 2, 0), ap) == ("punish", 2, 1)
    pdev = ap.copy()
    pdev[2] = 2.5
    assert aut.transition(("punish", 2, 1), pdev) == ("punish", 2, 0)
    pdev2 = ap.copy()
    pdev2[0] = 0.3
    assert aut.transition(("punish", 2, 1), pdev2) == ("punish", 0, 0)
    assert aut.transition(("punish", 2, 2), ap) == ("path", 0)


def test_cyclic_path_advance():
    g = fig_game(2.5)
    profs = [ActionProfile([0.0], [1.0, 1.0, 2.0, 2.0]),
             ActionProfile([0.0], [2.0, 2.0, 1.0, 1.0]),
             ActionProfile([0.0], [1.5, 1.5, 1.5, 1.5])]
    aut = build_minmax_automaton(g, profs, L=None, cycle_start=1)
    s = aut.initial_state
    seen = []
    for _ in range(6):
        seen.append(s[1])
        s = aut.transition(s, aut.output(s)[1])
    assert seen == [0, 1, 2, 1, 2, 1]


def packet_drop_player_specific(L=2):
    g = PacketDropGame(mu=10.0, beta=[2, 2, 3], a_max=[3.0, 3.0, 4.0])
    path = ActionProfile([0.0] * 3, [2.4, 2.4, 3.2])
    rewards = []
    for i in range(3):
        a = np.array([2.4, 2.4, 3.2])
        a[i] *= 0.3
        rewards.append(ActionProfile([0.0] * 3, a))
    return g, build_player_specific_automaton(g, [path], L=L, reward_profiles=rewards)


LAYOUT_PROFILES = [ActionProfile([0.0], [1.0, 1.0, 2.0, 2.0]),
                   ActionProfile([0.5], [2.0, 2.0, 1.0, 1.0])]


def layout_automaton(kind):
    """``(game, automaton)`` of one small machine of each kind."""
    if kind == "grim":
        g = fig_game(2.5)
        return g, build_minmax_automaton(g, LAYOUT_PROFILES, L=None, cycle_start=2,
                                         path_index=[1, 0, 1, 1, 0])
    if kind == "finite_minmax":
        g = fig_game(1.0)
        return g, build_minmax_automaton(g, LAYOUT_PROFILES, L=3, cycle_start=1,
                                         path_index=[0, 0, 1])
    return packet_drop_player_specific(L=3)


# (row, nxt, pun) of the layout_automaton machines, written out by hand:
# grim plays rows [1 0 1 1 0] with cycle_start 2, then the absorbing row 2;
# finite_minmax plays [0 0 1] with cycle_start 1, then four 3-period spells
# (rows 2..5) that restart the path; player_specific plays its one profile,
# then three 3-period spells (rows 1..3) ending in the reward states (rows 4..6).
EXPECTED_LAYOUT = {
    "grim": ([1, 0, 1, 1, 0, 2], [1, 2, 3, 4, 2, 5], [5, 5, 5, 5]),
    "finite_minmax": ([0, 0, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5],
                      [1, 2, 1, 4, 5, 0, 7, 8, 0, 10, 11, 0, 13, 14, 0], [3, 6, 9, 12]),
    "player_specific": ([0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 5, 6],
                        [0, 2, 3, 10, 5, 6, 11, 8, 9, 12, 10, 11, 12], [1, 4, 7]),
}


@pytest.mark.parametrize("kind", ["grim", "finite_minmax", "player_specific"])
def test_layout_agrees_with_named_states(kind):
    g, aut = layout_automaton(kind)
    assert aut.kind == kind
    lay = aut.layout
    row, nxt, pun = EXPECTED_LAYOUT[kind]
    assert lay.row.tolist() == row and lay.nxt.tolist() == nxt and lay.pun.tolist() == pun
    states = aut.reachable_states()
    assert len(states) == aut.n_states == len(row)
    for k, s in enumerate(states):
        assert aut.state_at(k) == s and aut.state_index(s) == k
        a0, a = aut.output(s)
        assert np.array_equal(aut.table_a0[lay.row[k]], a0)
        assert np.array_equal(aut.table_a[lay.row[k]], a)
        assert aut.state_at(lay.nxt[k]) == aut.next_on_path(s)
    assert [aut.state_at(k) for k in lay.pun] == [aut.punish_entry(i) for i in range(aut.n)]
    assert lay.spells.shape == (aut.L or 0, aut.n)
    for (l, i), k in np.ndenumerate(lay.spells):
        assert aut.state_at(k) == ("punish", i, l)
    assert states[aut.path_len:aut.path_len + 2] == {
        "grim": [("punish_abs",)],
        "finite_minmax": [("punish", 0, 0), ("punish", 0, 1)],
        "player_specific": [("punish", 0, 0), ("punish", 0, 1)]}[kind]
    if kind == "player_specific":
        assert states[-3:] == [("reward", 0), ("reward", 1), ("reward", 2)]
    with pytest.raises(IndexError):
        aut.state_at(aut.n_states)
    with pytest.raises(KeyError):
        aut.state_index(("path", aut.path_len))
    # one profile table: P path rows, then the punishment rows, then the rewards
    n, P = aut.n, {"grim": 2, "finite_minmax": 2, "player_specific": 1}[kind]
    assert aut.table_a0.shape[0] == aut.table_a.shape[0] == P + {
        "grim": 1, "finite_minmax": n, "player_specific": 2 * n}[kind]
    if kind != "player_specific":
        for p, prof in enumerate(LAYOUT_PROFILES):
            assert np.array_equal(aut.table_a0[p], prof.a0) and np.array_equal(aut.table_a[p], prof.a)
    table_row = {"path": lambda t: aut.path_index[t], "punish_abs": lambda: P,
                 "punish": lambda i, l: P + i, "reward": lambda i: P + n + i}
    assert [table_row[s[0]](*s[1:]) for s in states] == row
    mm = mutual_minmax(g).profile
    if kind == "grim":
        assert np.array_equal(aut.table_a0[P], mm.a0) and np.array_equal(aut.table_a[P], mm.a)
    for i in range(n if kind != "grim" else 0):
        if kind == "finite_minmax":   # the mutual minmax, with the deviator best-responding
            a0, a = mm.a0, mm.a.copy()
            a[i] = g.best_response(i, a0, a)
        else:
            a0, a = minmax(g, i).profile.a0, minmax(g, i).profile.a
        assert np.array_equal(aut.table_a0[P + i], a0) and np.array_equal(aut.table_a[P + i], a)
    if kind == "player_specific":   # user i's reward cuts i's path action to 30%
        for i in range(n):
            a = np.array([2.4, 2.4, 3.2])
            a[i] *= 0.3
            assert np.array_equal(aut.table_a[P + n + i], a)
            assert np.array_equal(aut.table_a0[P + n + i], np.zeros(3))


@pytest.mark.parametrize("kind", ["grim", "finite_minmax", "player_specific"])
def test_named_state_lookup_takes_only_integer_indices(kind):
    g, aut = layout_automaton(kind)
    malformed = [("path", 0.0), ("path", False), ("path", np.float64(0.0)), ("path", 1.5),
                 ("path", True), ("path",), ("path", 0, 0), ("punish", 1, 2.0), ("punish", 0),
                 ("punish", True, 0), ("punish", np.bool_(True), 0), ("reward", 0.0),
                 ("reward", False), ("punish_abs", 0), (), "path", ["path", 0]]
    for state in malformed:
        with pytest.raises(KeyError, match="unknown state"):
            aut.state_index(state)
    sv = state_values(g, aut, 0.9)
    _, a = aut.output(("path", 0))
    for call in (lambda: aut.output(("path", 0.0)), lambda: aut.next_on_path(("path", False)),
                 lambda: aut.transition(("path", 0.0), a), lambda: sv[("path", 0.0)],
                 lambda: deviation_gain(g, aut, 0.9, ("path", False), 0)):
        with pytest.raises(KeyError, match="unknown state"):
            call()
    assert aut.state_index(("path", np.int64(0))) == 0
    last = ("punish_abs",) if kind == "grim" else ("punish", np.intp(1), np.uint8(2))
    assert aut.state_index(last) == aut.path_len + (0 if kind == "grim" else aut.L + 2)
    for k in (0.0, 1.5, False, np.float64(0.0), "0", None):
        with pytest.raises(IndexError, match="state position"):
            aut.state_at(k)
    assert aut.state_at(np.int64(0)) == ("path", 0)


def test_path_index_must_index_the_profiles():
    with pytest.raises(AutomatonError, match="path_index"):
        build_minmax_automaton(fig_game(2.5), [margin_profile()], L=None, path_index=[0, 1])
    with pytest.raises(AutomatonError, match="path_index"):
        build_minmax_automaton(fig_game(2.5), [margin_profile()], L=None, path_index=[0.0])


def test_describe_is_stable():
    aut = build_minmax_automaton(fig_game(2.5), [margin_profile()], L=None)
    text = describe(aut)
    assert text == (
        "automaton kind=grim users=4 path_len=1 cycle_start=0\n"
        "  path[0]: a0=[0] a=[0.888972 0.888972 2.5 2.5]\n"
        "  punish(absorbing): a0=[2.5] a=[2.5 2.5 2.5 2.5]\n"
        "  rule: any mismatch with the prescribed profile -> punish")


# ---------------------------------------------------------------------------
# state values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L,delta", [(None, 0.9), (3, 0.85), (7, 0.97)])
def test_state_values_match_value_iteration(L, delta):
    g = fig_game(2.5 if L is None else 1.0)
    profs = [ActionProfile([0.0], [1.0, 1.0, 2.0, 2.0]),
             ActionProfile([0.5], [2.0, 2.0, 1.0, 1.0])]
    aut = build_minmax_automaton(g, profs, L=L, cycle_start=0)
    sv = state_values(g, aut, delta)
    oracle = value_iteration_oracle(g, aut, delta)
    for s in aut.reachable_states():
        assert np.allclose(sv[s], oracle[s], atol=1e-10)


def backward_recursion_oracle(u, cycle_start, delta):
    """Cycle-entry geometric sum, then V[t] = (1-d) u[t] + d V[t+1] period by
    period, the last period wrapping to the cycle entry."""
    K = u.shape[0]
    disc = delta ** np.arange(K - cycle_start)
    V = np.empty_like(u)
    V[cycle_start] = ((1.0 - delta) / (1.0 - delta ** (K - cycle_start))
                      * (disc[:, None] * u[cycle_start:]).sum(axis=0))
    for t in list(range(K - 1, cycle_start, -1)) + list(range(cycle_start - 1, -1, -1)):
        nxt = V[cycle_start] if t == K - 1 else V[t + 1]
        V[t] = (1.0 - delta) * u[t] + delta * nxt
    return V


@pytest.mark.parametrize("K, n, delta", [pytest.param(1, 3, 0.93, id="1"),
                                          pytest.param(2, 3, 0.93, id="2"),
                                          pytest.param(37, 3, 0.93, id="37"),
                                          pytest.param(5000, 4, 0.999, id="5000")])
def test_path_values_kernel_matches_backward_recursion(K, n, delta):
    """Bit for bit, on row-major payoffs and on the user-major ones the package
    passes, also on a long path whose cycle-entry sum has thousands of terms:
    the kernel adds them in period order, as the oracle does, where a pairwise
    sum would round differently."""
    rng = np.random.default_rng(K)
    u = rng.uniform(0.0, 50.0, (K, n))
    for cs in sorted({0, 1, K // 7, K // 3, K // 2, K - 1} & set(range(K))):
        want = backward_recursion_oracle(u, cs, delta)
        for user_major in (False, True):
            layout = np.asfortranarray(u) if user_major else u
            assert np.array_equal(path_values(layout, cs, delta), want), (cs, user_major)


def test_state_values_grim_closed_form():
    g = fig_game(2.5)
    aut = build_minmax_automaton(g, [margin_profile()], L=None)
    v = g.payoff([0.0], MARGIN_PATH)
    sv = state_values(g, aut, 0.9)
    assert np.allclose(sv[("path", 0)], v)
    assert np.allclose(sv[("punish_abs",)], 0.0)


def test_state_values_finite_punishment_formula():
    g = fig_game(1.0)
    L, delta = 4, 0.9
    aut = build_minmax_automaton(g, [margin_profile()], L=L)
    sv = state_values(g, aut, delta)
    u_pun = g.payoff_batch(aut.table_a0[2], aut.table_a[2])   # the path row, then the spells
    v0 = sv[("path", 0)]
    for el in range(L):
        w = delta ** (L - el)
        assert np.allclose(sv[("punish", 1, el)], (1 - w) * u_pun + w * v0, atol=1e-12)


def test_player_specific_values_and_ordering():
    g, aut = packet_drop_player_specific()
    delta = 0.93
    sv = state_values(g, aut, delta)
    oracle = value_iteration_oracle(g, aut, delta)
    for s in aut.reachable_states():
        assert np.allclose(sv[s], oracle[s], atol=1e-10)
    # punished user's value interpolates punishment (0) toward their reward
    own_reward = g.payoff_batch(aut.table_a0[4], aut.table_a[4])[0]   # after 1 path, 3 spell rows
    assert np.isclose(sv[("punish", 0, 0)][0], delta ** 2 * own_reward)


def test_player_specific_ordering_rejected():
    g = PacketDropGame(mu=10.0, beta=[2, 2, 3], a_max=[3.0, 3.0, 4.0])
    path = ActionProfile([0.0] * 3, [2.4, 2.4, 3.2])
    # rewarding the deviator *more* than the path breaks the construction
    rewards = [ActionProfile([0.0] * 3, [2.4, 2.4, 3.2]) for _ in range(3)]
    with pytest.raises(AutomatonError):
        build_player_specific_automaton(g, [path], L=2, reward_profiles=rewards)


# ---------------------------------------------------------------------------
# subgame perfection
# ---------------------------------------------------------------------------

def brute_force_gains(game, automaton, delta, points=300):
    """Independent one-shot deviation gains over named states, (S, n) in
    ``reachable_states`` order: each user tries every grid action and the
    scalar best response."""
    sv = state_values(game, automaton, delta)
    states = automaton.reachable_states()
    gains = np.full((len(states), game.n), -np.inf)
    for k, s in enumerate(states):
        a0, a = automaton.output(s)
        u = game.payoff_batch(a0, a)
        v_next = sv[automaton.next_on_path(s)]
        for i in range(game.n):
            v_pun = sv[automaton.punish_entry(i)]
            for x in [*np.linspace(0.0, game.a_max[i], points),
                      game.best_response(i, a0, a)]:
                dev = a.copy()
                dev[i] = x
                du = game.payoff_batch(a0, dev)[i]
                gain = (1 - delta) * (du - u[i]) + delta * (v_pun[i] - v_next[i])
                gains[k, i] = max(gains[k, i], gain)
    return gains


def brute_force_spe_check(game, automaton, delta, points=300):
    """Worst one-shot deviation gain of the brute-force scan."""
    return float(np.max(brute_force_gains(game, automaton, delta, points)))


def test_verify_spe_grim_threshold():
    """The one-profile grim machine flips from violated to SPE at the
    frozen threshold 0.747113 (geometric-sum bound on the margin path)."""
    g = fig_game(2.5)
    aut = build_minmax_automaton(g, [margin_profile()], L=None)
    good = verify_spe(g, aut, 0.76)
    assert good.ok and good.worst_gain <= 1e-9
    bad = verify_spe(g, aut, 0.73)
    assert not bad.ok
    assert bad.user in (0, 1) and bad.state == ("path", 0)
    # agreement with the brute-force scan
    assert np.isclose(bad.worst_gain, brute_force_spe_check(g, aut, 0.73, points=200),
                      atol=1e-12)


def test_verify_spe_reports_the_interior_best_response():
    """When the analytic best response falls between grid points it beats
    the grid, and the report names it as the deviation action."""
    g = fig_game(2.5)
    prof = ActionProfile([0.0], [2.4, 2.4, 2.4, 2.4])
    rep = verify_spe(g, build_minmax_automaton(g, [prof], L=None), 0.1)
    assert not rep.ok and rep.state == ("path", 0)
    br = g.best_response(rep.user, prof.a0, prof.a)
    assert 0.0 < br < g.a_max[rep.user]
    assert np.min(np.abs(np.linspace(0.0, g.a_max[rep.user], 200) - br)) > 1e-6
    assert rep.action == br


def test_verify_spe_matches_brute_force_on_assembled_protocol():
    """A 176-period protocol that time-shares four solo profiles: gathered
    onto the states, the per-profile scans agree with the brute-force scan
    of every named state -- where the protocol holds, where it fails at an
    interior path state (0.84) and where it fails at the start (0.6)."""
    g = fig_game(2.5)
    stats = deviation_stats(g)
    target = optimize_welfare(stats, np.full(4, 3.0), "maxmin")
    aut = assemble_protocol(g, stats, generate_outcome_path(stats, target.v, 0.88))
    assert 100 <= aut.path_len <= 300 and aut.table_a.shape[0] == 5   # four solo profiles and the absorbing row
    for delta in (0.88, 0.84, 0.6):
        brute = brute_force_gains(g, aut, delta, points=40)
        i = int(np.argmax(brute.max(axis=0)))   # ties go to the lowest user, then state
        k = int(np.argmax(brute[:, i]))
        rep = verify_spe(g, aut, delta, grid_points=40)
        assert rep.ok == (delta == 0.88)
        assert np.isclose(rep.worst_gain, brute[k, i], rtol=0.0, atol=1e-12)
        if not rep.ok:
            assert (rep.state, rep.user) == (aut.state_at(k), i)
            assert deviation_gain(g, aut, delta, rep.state, rep.user, rep.action) \
                == pytest.approx(rep.worst_gain, abs=1e-10)
        scan = profitability_scan(g, aut, delta, grid_points=40)
        assert np.allclose(scan.gains, brute, rtol=0.0, atol=1e-8)


def test_verify_spe_finite_L_bound_is_one_sided():
    """With partial intervention the punished user keeps a positive
    best-response payoff, so the closed-form bound (which assumes they are
    held to the harsher mutual-minmax payoff) is optimistic: below it the
    machine is certainly violated, while certification needs a slightly
    larger delta found against the actual machine."""
    g = fig_game(1.0)
    aut = build_minmax_automaton(g, [margin_profile()], L=4)
    res = min_delta_for_L(g, margin_profile(), L=4)
    assert res.feasible and res.binding == "path"
    assert not verify_spe(g, aut, res.delta - 0.01).ok

    lo, hi = res.delta, 0.999999
    assert verify_spe(g, aut, hi).ok
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if verify_spe(g, aut, mid, grid_points=60).ok:
            hi = mid
        else:
            lo = mid
    assert hi >= res.delta  # never certifiable below the closed-form bound
    assert verify_spe(g, aut, hi + 1e-4).ok


def test_min_delta_exact_at_saturating_intervention():
    """At full intervention the punishment profile saturates the queue, the
    best response during punishment is the maximum rate, and the closed-form
    bound matches the actual machine in both directions."""
    g = fig_game(2.5)
    L = 10
    aut = build_minmax_automaton(g, [margin_profile()], L=L)
    res = min_delta_for_L(g, margin_profile(), L=L)
    assert res.feasible
    assert verify_spe(g, aut, res.delta + 1e-4).ok
    assert not verify_spe(g, aut, res.delta - 1e-4).ok


def test_verify_spe_on_stage_nash_path():
    """Playing the stage equilibrium forever is subgame perfect at any delta."""
    g = fig_game(2.5)
    ne = ActionProfile([0.0], [2.0, 2.0, 2.5, 2.5])
    aut = build_minmax_automaton(g, [ne], L=None)
    for delta in (0.1, 0.5, 0.95):
        assert verify_spe(g, aut, delta).ok


def test_verify_spe_player_specific():
    g = PacketDropGame(mu=10.0, beta=[2, 2, 3], a_max=[3.0, 3.0, 4.0])
    path = ActionProfile([0.0] * 3, [2.4, 2.4, 3.2])
    rewards = []
    for i in range(3):
        a = np.array([2.4, 2.4, 3.2])
        a[i] *= 0.3
        rewards.append(ActionProfile([0.0] * 3, a))
    L = prescribe_reward_delay(g, rewards)
    aut = build_player_specific_automaton(g, [path], L=L, reward_profiles=rewards)
    delta = find_min_delta_for_constraints(
        lambda d: player_specific_delta_constraints(g, path, L, rewards, d))
    assert delta is not None and delta < 1.0
    rep = verify_spe(g, aut, min(delta + 1e-3, 0.999999))
    assert rep.ok
    worst = brute_force_spe_check(g, aut, min(delta + 1e-3, 0.999999), points=150)
    assert worst <= 1e-9


class _ZeroReplyFlowGame(FlowControlGame):
    """A flow game whose best-response map always answers 0, so only the
    deviation grid finds the profitable deviations."""

    def best_responses(self, a0, a):
        return np.zeros(np.broadcast(a0, a).shape)


def test_deviation_grid_catches_a_best_response_that_misses():
    """Both scanners' deviation table against one user, one profile and one
    grid action at a time: the payoff and the action of the best of the
    reply (0 here) and the ``grid_points`` grid, the reply winning ties."""
    g = _ZeroReplyFlowGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5, 2.0, 1.5, 2.5],
                           a0_max=[2.5])
    rng = np.random.default_rng(23)
    a0s = rng.uniform(0, 1, (6, 1)) * g.a0_max
    acts = rng.uniform(0, 1, (6, 4)) * g.a_max
    d, act = _best_deviations(g, a0s, acts, 50)
    for k in range(acts.shape[0]):
        for i in range(g.n):
            vals = []
            for x in [0.0, *np.linspace(0.0, g.a_max[i], 50)]:
                dev = acts[k].copy()
                dev[i] = x
                vals.append(g.payoff_batch(a0s[k], dev)[i])
            j = int(np.argmax(vals))
            assert d[k, i] == vals[j]
            assert act[k, i] == (0.0 if j == 0 else np.linspace(0.0, g.a_max[i], 50)[j - 1])
    assert np.all(act > 0.0)   # the grid beats the zero reply everywhere here
    # a saturated queue pays 0 for every deviation: the reply (a_max) wins the tie
    d, act = _best_deviations(fig_game(2.5), np.array([[2.5]]), np.full((1, 4), 2.5), 50)
    assert np.all(d == 0.0) and np.all(act == 2.5)


def test_player_specific_constraints_match_the_scalar_formulas():
    """The four families, built as arrays over (punished, punisher, phase),
    equal the per-entry formulas bit for bit and in the same entry order."""
    g = PacketDropGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4)
    v = g.payoff(g.null_intervention(), [1.6, 1.8, 2.0, 2.2])
    path = ActionProfile([0.0] * 4, [1.6, 1.8, 2.0, 2.2])
    rewards = []
    for i in range(4):
        a = np.array([1.6, 1.8, 2.0, 2.2])
        a[i] *= 0.5
        rewards.append(ActionProfile([0.0] * 4, a))
    rew_u = np.array([g.payoff(r.a0, r.a) for r in rewards])
    own = np.diagonal(rew_u)
    vlw = np.array([minmax(g, i).value for i in range(4)])
    q = np.array([g.payoff(minmax(g, i).profile.a0, minmax(g, i).profile.a) for i in range(4)])
    M = max_stage_payoff(g)
    for L in (1, 3, 7):
        for dl in (0.3, 0.9, 0.99):
            want = {"path": [], "punishing": [], "reward_other": [], "reward_own": []}
            for i in range(4):
                want["path"].append(dl * (1 - dl ** L) * (v[i] - vlw[i])
                                    + dl ** (L + 1) * (v[i] - own[i]) - (1 - dl) * (M - v[i]))
                want["reward_own"].append(dl * (1 - dl ** L) / (1 - dl) * (own[i] - vlw[i])
                                          - (M - own[i]))
                for j in range(4):
                    if j == i:
                        continue
                    for l in range(L):
                        lhs = dl ** (L + 1) * (rew_u[i, j] - own[j])
                        rhs = ((1 - dl) * (M - q[i, j])
                               + dl * (1 - dl ** (L - l - 1)) * (vlw[j] - q[i, j])
                               + dl ** (L - l) * (1 - dl ** (l + 1)) * (vlw[j] - rew_u[i, j]))
                        want["punishing"].append(lhs - rhs)
                    want["reward_other"].append(dl * (1 - dl ** L) * (rew_u[i, j] - vlw[j])
                                                + dl ** (L + 1) * (rew_u[i, j] - own[j])
                                                - (1 - dl) * (M - rew_u[i, j]))
            got = player_specific_delta_constraints(g, path, L, rewards, dl)
            assert sorted(got) == sorted(want)
            for family, vals in want.items():
                assert np.array_equal(got[family], vals), family


# ---------------------------------------------------------------------------
# minimum discount factors (frozen oracle values)
# ---------------------------------------------------------------------------

@given(x=st.floats(0.0, 1.0))
@example(x=5e-324)
@example(x=1.0)
def test_bisect_returns_the_passing_double_nearest_lo(x):
    """The one bisection runs to adjacent doubles: it returns exactly the
    smallest ``t >= x`` on ``[0, 1]`` and the largest ``t <= x`` on
    ``[1, 0]``, and stops at the smallest subnormal; None when ``hi`` fails."""
    assert _bisect(lambda t: t >= x, 0.0, 1.0) == x
    assert _bisect(lambda t: t <= x, 1.0, 0.0) == x
    assert _bisect(lambda t: t > 1.0, 0.0, 1.0) is None


def test_min_delta_grim_frozen():
    """Unbounded punishment: delta/(1-delta) >= max gain ratio 2.954343,
    to the six digits the ``fig3`` CSV prints."""
    g = fig_game(2.5)
    res = min_delta_for_L(g, margin_profile(), L=None)
    assert res.feasible
    assert f"{res.delta:.6g}" == "0.747113"


@pytest.mark.parametrize("a0_max,L,expected", [
    (0.0, 4, "0.976454"),
    (0.0, 6, "0.98424"),
    (0.5, 4, "0.882398"),
    (0.5, 6, "0.880331"),
    (1.0, 6, "0.800276"),
    (1.0, 10, "0.849779"),
    (2.5, 10, "0.759354"),
])
def test_min_delta_finite_frozen(a0_max, L, expected):
    """To the six digits the ``fig3`` CSV prints."""
    res = min_delta_for_L(fig_game(a0_max), margin_profile(), L=L)
    assert res.feasible
    assert f"{res.delta:.6g}" == expected


def test_min_delta_infeasible_for_short_punishment():
    # the one-shot gain ratio is 2.95, so two punishment periods cannot cover it
    res = min_delta_for_L(fig_game(1.0), margin_profile(), L=2)
    assert not res.feasible and res.delta is None


def test_min_delta_monotone_in_intervention():
    for L in (4, 8):
        prev = None
        for a0 in (0.0, 0.5, 1.0, 2.5):
            res = min_delta_for_L(fig_game(a0), margin_profile(), L=L)
            if prev is not None and res.feasible and prev.feasible:
                assert res.delta <= prev.delta + 1e-9
            prev = res


def test_prescribed_length_makes_constraints_satisfiable():
    g = fig_game(1.0)
    prof = margin_profile()
    L = prescribe_punishment_length(g, prof)
    # conservative bound families become satisfiable for delta close to 1
    delta = find_min_delta_for_constraints(
        lambda d: minmax_delta_constraints(g, prof, L, d))
    assert delta is not None and delta < 1.0
    m = minmax_delta_constraints(g, prof, L, min(delta + 1e-4, 0.999999))
    assert min(np.min(m["path"]), np.min(m["punishment"])) >= 0.0


def test_minmax_families_match_the_two_former_formulas():
    """One builder serves the exact best-response bound of ``min_delta_for_L``
    and the blanket bound ``M`` of ``minmax_delta_constraints``; its
    punishment family agrees with both forms those two used to write out."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        p = rng.uniform(0.0, 5.0, n)
        v = p + rng.uniform(0.1, 50.0, n)
        vlw = rng.uniform(0.0, 1.0, n) * v
        dev = v + rng.uniform(0.0, 50.0, n)
        L, delta = int(rng.integers(1, 30)), float(rng.uniform(0.01, 0.999))
        geo = delta * (1.0 - delta ** L) / (1.0 - delta)
        for d in (dev, float(np.max(dev))):
            fams = _minmax_families(v, p, d, vlw, L, delta)
            assert sorted(fams) == ["path", "punishment"]
            assert np.allclose(fams["path"], geo * (v - p) - (d - v), rtol=0.0, atol=1e-12)
        for old in (delta ** L * (v - p) - (vlw - p),
                    (1.0 - delta ** L) * p + delta ** L * v - vlw):
            assert np.allclose(fams["punishment"], old, rtol=0.0, atol=1e-12)
        grim = _minmax_families(v, p, dev, vlw, None, delta)
        assert list(grim) == ["path"]
        assert np.allclose(grim["path"], delta / (1.0 - delta) * (v - p) - (dev - v),
                           rtol=0.0, atol=1e-12)


def test_prescribe_reward_delay_on_12_user_packet_drop_game_is_quick():
    """The blanket bound ``M`` is the best solo payoff, so 12 users (a
    24-dimensional action box with the device) need no sweep; checked
    against the packet-drop closed forms: solo optimum
    ``min(beta/(1+beta) mu, a_max)``, and minmax 0 under a full drop."""
    n, mu = 12, 13.0
    beta = np.linspace(1.5, 3.5, n)
    a_max = np.full(n, 1.0)
    g = PacketDropGame(mu=mu, beta=beta, a_max=a_max)
    rewards = []
    for i in range(n):
        r = np.full(n, 0.8)
        r[i] = 0.4
        rewards.append(ActionProfile(np.zeros(n), r))
    start = time.perf_counter()
    L = prescribe_reward_delay(g, rewards)
    elapsed = time.perf_counter() - start
    solo = np.minimum(beta / (1.0 + beta) * mu, a_max)
    M = np.max(solo ** beta * (mu - solo))
    own = 0.4 ** beta * (mu - (0.8 * (n - 1) + 0.4))
    assert L == max(int(np.max(np.ceil((M - own) / own))), 1)
    assert elapsed < 1.0
