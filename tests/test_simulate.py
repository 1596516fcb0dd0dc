"""Simulation layer: rollouts, scripted deviations, independent SPE scan."""
import re

import numpy as np
import pytest

from repgame.automata import (build_minmax_automaton,
                              build_player_specific_automaton, state_values,
                              verify_spe)
from repgame.design import (assemble_protocol, delta_bar, deviation_stats,
                            generate_outcome_path, optimize_welfare)
from repgame.games import ActionProfile, FlowControlGame, PacketDropGame
from repgame.simulate import DeviationPlan, Trace, deviation_gain, profitability_scan, run

MARGIN_PATH = [0.8889715613961255, 0.8889715613961255, 2.5, 2.5]


def fig_game(a0_max=2.5):
    return FlowControlGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4, a0_max=[a0_max])


def margin_profile():
    return ActionProfile(a0=[0.0], a=MARGIN_PATH)


def grim_margin_automaton():
    return build_minmax_automaton(fig_game(2.5), [margin_profile()], L=None,
                                  cycle_start=0)


def test_on_path_rollout_constant_profile():
    g = fig_game()
    aut = grim_margin_automaton()
    tr = run(g, aut, 0.9, 25)
    assert len(tr) == 25
    assert all(s == ("path", 0) for s in tr.states)
    assert np.allclose(tr.actions, MARGIN_PATH)
    assert np.allclose(tr.a0, 0.0)
    # every period repeats the same stage payoff
    assert np.allclose(tr.payoffs, tr.payoffs[0])


def test_discounted_average_matches_state_values():
    g = fig_game()
    aut = grim_margin_automaton()
    delta = 0.9
    # horizon long enough that the truncated tail is below 1e-7
    T = int(np.ceil(np.log(1e-7 / 51.0) / np.log(delta))) + 1
    tr = run(g, aut, delta, T)
    v0 = state_values(g, aut, delta)[("path", 0)]
    assert np.allclose(tr.discounted_average(), v0, atol=2e-7)


def test_scripted_deviation_triggers_grim_punishment():
    g = fig_game()
    aut = grim_margin_automaton()
    tr = run(g, aut, 0.9, 12, deviations=(DeviationPlan(t=4, user=2, action=1.0),))
    assert tr.states[4] == ("path", 0)
    assert tr.actions[4, 2] == 1.0
    assert all(s == ("punish_abs",) for s in tr.states[5:])
    # mutual minmax floods the queue: everyone's payoff collapses to zero
    assert np.allclose(tr.payoffs[5:], 0.0)


def test_finite_punishment_runs_its_course_and_restarts():
    g = fig_game(1.0)
    aut = build_minmax_automaton(g, [margin_profile()], L=3)
    tr = run(g, aut, 0.9, 10, deviations=(DeviationPlan(t=2, user=0, action=2.5),))
    expected = [("path", 0), ("path", 0), ("path", 0),
                ("punish", 0, 0), ("punish", 0, 1), ("punish", 0, 2),
                ("path", 0), ("path", 0), ("path", 0), ("path", 0)]
    assert tr.states == expected
    # during punishment the deviator is held to their best response against
    # the flooding crowd (2/3 of the 1.5 residual capacity, payoff 1*0.5),
    # which still beats joining the flood (zero residual, zero payoff)
    pun = tr.payoffs[3]
    assert pun[0] == pytest.approx(0.5, abs=1e-12)


def test_deviation_during_punishment_switches_target():
    g = PacketDropGame(mu=10.0, beta=[2, 2, 3], a_max=[3.0, 3.0, 4.0])
    path = ActionProfile([0.0] * 3, [2.4, 2.4, 3.2])
    rewards = []
    for i in range(3):
        a = np.array([2.4, 2.4, 3.2])
        a[i] *= 0.3
        rewards.append(ActionProfile([0.0] * 3, a))
    aut = build_player_specific_automaton(g, [path], L=2, reward_profiles=rewards)
    tr = run(g, aut, 0.95, 8, deviations=(
        DeviationPlan(t=1, user=0, action=0.5),
        DeviationPlan(t=3, user=1, action=0.5),
    ))
    assert tr.states[2] == ("punish", 0, 0)
    # user 1 deviates while 0 is being punished: the machine retargets
    assert tr.states[4] == ("punish", 1, 0)
    assert tr.states[6] == ("reward", 1)
    assert tr.states[7] == ("reward", 1)  # absorbing


def test_deviation_gain_matches_verify_spe_report():
    g = fig_game()
    aut = grim_margin_automaton()
    for delta in (0.73, 0.76):
        rep = verify_spe(g, aut, delta)
        gain = deviation_gain(g, aut, delta, rep.state, rep.user, rep.action)
        assert gain == pytest.approx(rep.worst_gain, abs=1e-10)
    assert verify_spe(g, aut, 0.76).ok
    assert not verify_spe(g, aut, 0.73).ok


def test_deviation_gain_default_action_is_best_response():
    g = fig_game()
    aut = grim_margin_automaton()
    base = deviation_gain(g, aut, 0.73, ("path", 0), 0)
    for a in np.linspace(0.0, 2.5, 41):
        assert deviation_gain(g, aut, 0.73, ("path", 0), 0, action=float(a)) <= base + 1e-12


def test_profitability_scan_agrees_with_closed_form():
    g = fig_game()
    aut = grim_margin_automaton()
    for delta in (0.73, 0.76, 0.95):
        scan = profitability_scan(g, aut, delta)
        rep = verify_spe(g, aut, delta)
        assert scan.ok == rep.ok
        assert scan.worst_gain == pytest.approx(rep.worst_gain, abs=1e-8)


def test_profitability_scan_full_pipeline():
    g = fig_game()
    stats = deviation_stats(g)
    target = optimize_welfare(stats, np.full(4, 3.0), "maxmin")
    db = delta_bar(stats, target.v)
    delta = db + 1e-3
    path = generate_outcome_path(stats, target.v, delta)
    aut = assemble_protocol(g, stats, path)
    scan = profitability_scan(g, aut, delta)
    rep = verify_spe(g, aut, delta)
    assert scan.ok and rep.ok
    assert scan.worst_gain <= 1e-9
    assert scan.worst_gain == pytest.approx(rep.worst_gain, abs=1e-8)
    assert scan.gains.shape == (len(aut.reachable_states()), 4)


def test_unplayed_table_rows_change_nothing():
    """A path-table row no state plays (here a solo profile paying far more
    than the path) moves neither scanner, nor the scan's horizon."""
    g = fig_game()
    lone = grim_margin_automaton()
    padded = build_minmax_automaton(g, [margin_profile(), ActionProfile([0.0], [0, 0, 0, 2.5])],
                                    L=None, path_index=[0])
    for delta in (0.73, 0.95):
        a, b = profitability_scan(g, lone, delta), profitability_scan(g, padded, delta)
        assert a.horizon == b.horizon and np.array_equal(a.gains, b.gains)
        assert verify_spe(g, lone, delta) == verify_spe(g, padded, delta)


def test_finite_L_scan_agreement():
    g = fig_game(1.0)
    aut = build_minmax_automaton(g, [margin_profile()], L=6)
    for delta in (0.85, 0.9):
        scan = profitability_scan(g, aut, delta)
        rep = verify_spe(g, aut, delta)
        assert scan.ok == rep.ok
        assert scan.worst_gain == pytest.approx(rep.worst_gain, abs=1e-8)


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.5, float("nan")])
def test_both_scanners_reject_discount_factors_outside_the_unit_interval(delta):
    g, aut = fig_game(), grim_margin_automaton()
    for scan in (verify_spe, profitability_scan):
        with pytest.raises(ValueError,
                           match=re.escape(f"discount factor must lie in (0, 1), got {delta}")):
            scan(g, aut, delta)
