"""Design layer: deviation stats, welfare targets, thresholds, outcome paths.

Frozen numbers were computed by independent scripts (closed-form hand
calculations cross-checked against dense grid searches) before this
module existed.  Where practical the tests also carry a live independent
oracle (linear programming for the welfare targets, discounted
accumulation for the paths).
"""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import repgame.design
from repgame.automata import AutomatonError, build_minmax_automaton, min_delta_for_L, verify_spe
from repgame.cli import main
from repgame.design import (DecompositionError, DesignError, OutcomePath, assemble_protocol,
                            delta_bar, delta_mu, design_protocol, deviation_stats,
                            generate_outcome_path, guarantee_feasible,
                            guarantee_floors, optimize_welfare, validate_assumptions)
from repgame.games import FlowControlGame, PowerControlGame, StageGame

VBAR = np.array([46.875, 46.875, 117.1875, 117.1875])
MINMAX_WITHOUT = np.array([125.0 / 54.0, 125.0 / 54.0, 4.119873046875, 4.119873046875])
W = np.array([31.25, 31.25, 78.125, 78.125])
SECOND_TERM_WITH = 0.8397247358851683     # 6 / (4/3 + sqrt(16/9 + 32))
SECOND_TERM_WITHOUT = 0.8610860822863695
MAXMIN_LEVEL = 16.741071428571427         # 1 / sum(1/vbar)


def fig_game(a0_max=2.5):
    return FlowControlGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4, a0_max=[a0_max])


@pytest.fixture(scope="module")
def stats():
    return deviation_stats(fig_game())


def lp_sum_target(vbar, floors):
    res = linprog(c=-np.ones(len(vbar)), A_eq=[1.0 / vbar], b_eq=[1.0],
                  bounds=[(f, None) for f in floors], method="highs")
    assert res.status == 0
    return res.x


def lp_maxmin_target(vbar, floors):
    n = len(vbar)
    # variables (v_1..v_n, t): maximize t s.t. v_i - t >= 0, v_i >= floor_i, simplex
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    a_eq = np.append(1.0 / vbar, 0.0)[None, :]
    res = linprog(c=c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(f, None) for f in floors] + [(None, None)], method="highs")
    assert res.status == 0
    return res.x[:n], res.x[-1]


# ---------------------------------------------------------------------------
# deviation statistics
# ---------------------------------------------------------------------------

def test_deviation_stats_frozen(stats):
    assert np.allclose(stats.vbar, VBAR, atol=1e-10)
    expected_y = np.array([
        [46.875, 31.25, 78.125, 78.125],
        [31.25, 46.875, 78.125, 78.125],
        [31.25, 31.25, 117.1875, 78.125],
        [31.25, 31.25, 78.125, 117.1875],
    ])
    assert np.allclose(stats.y, expected_y, atol=1e-9)
    assert np.allclose(stats.w, W, atol=1e-9)
    assert np.allclose(stats.minmax_with, 0.0)
    assert np.allclose(stats.minmax_without, MINMAX_WITHOUT, atol=1e-12)
    # solo profiles hand the stage to one user and pay everyone else nothing
    assert np.allclose(stats.solo_actions, np.diag([2.5] * 4))
    assert np.allclose(stats.solo_payoffs, np.diag(VBAR), atol=1e-12)


def test_deviation_stats_y_matches_grid(stats):
    g = fig_game()
    pts = np.linspace(0.0, 2.5, 2001)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            acts = np.tile(stats.solo_actions[i], (2001, 1))
            acts[:, j] = pts
            best = g.payoff_batch(np.zeros((2001, 1)), acts)[:, j].max()
            assert stats.y[i, j] >= best - 1e-9


# ---------------------------------------------------------------------------
# welfare targets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma,expected_v,expected_sum", [
    (1.0, [1.0, 1.0, 111.1875, 1.0], 114.1875),
    (3.0, [3.0, 3.0, 99.1875, 3.0], 108.1875),
    (7.0, [7.0, 7.0, 75.1875, 7.0], 96.1875),
    (14.0, [14.0, 14.0, 33.1875, 14.0], 75.1875),
])
def test_sum_target_frozen(stats, gamma, expected_v, expected_sum):
    t = optimize_welfare(stats, np.full(4, gamma), "sum")
    assert np.allclose(t.v, expected_v, atol=1e-9)
    assert np.isclose(t.value, expected_sum, atol=1e-9)
    assert np.isclose(np.sum(t.v / stats.vbar), 1.0, atol=1e-12)
    assert np.allclose(t.v, lp_sum_target(stats.vbar, np.full(4, gamma)), atol=1e-7)


def test_maxmin_target_frozen(stats):
    for gamma in (1.0, 3.0, 7.0, 14.0):
        t = optimize_welfare(stats, np.full(4, gamma), "maxmin")
        assert np.allclose(t.v, MAXMIN_LEVEL, atol=1e-9)
        assert np.isclose(t.value, MAXMIN_LEVEL, atol=1e-9)
        _, lp_val = lp_maxmin_target(stats.vbar, np.full(4, gamma))
        assert np.isclose(t.value, lp_val, atol=1e-7)


def test_maxmin_target_with_binding_floor(stats):
    gamma = np.array([40.0, 1.0, 1.0, 1.0])
    t = optimize_welfare(stats, gamma, "maxmin")
    v_lp, lp_val = lp_maxmin_target(stats.vbar, gamma)
    assert np.isclose(t.value, lp_val, atol=1e-7)
    assert t.v[0] == 40.0
    assert np.isclose(np.sum(t.v / stats.vbar), 1.0, atol=1e-12)
    assert np.isclose(t.value, min(t.v[1:]), atol=1e-12)


def test_infeasible_guarantee_rejected(stats):
    assert not guarantee_feasible(stats, np.full(4, 40.0))
    with pytest.raises(DesignError):
        optimize_welfare(stats, np.full(4, 40.0), "sum")


def test_infeasible_guarantee_names_the_user_above_vbar(stats):
    gamma = np.array([1.0, 1.0, 1.0, 200.0])   # vbar_3 = 117.1875
    assert not guarantee_feasible(stats, gamma)
    with pytest.raises(DesignError, match=r"infeasible: user 3's floor 200 exceeds "
                                          r"their solo optimum vbar = 117\.188"):
        optimize_welfare(stats, gamma, "sum")


def test_infeasible_guarantee_names_the_floor_sum_and_largest_share(stats):
    # each floor is below its vbar, but 2 * 40/46.875 + 2 * 40/117.1875 > 1
    with pytest.raises(DesignError, match=r"infeasible: the normalised floors "
                                          r"sum\(max\(gamma, minmax\) / vbar\) = 2\.38933 "
                                          r"reach 1; user 0 has the largest share, 0\.853333"):
        optimize_welfare(stats, np.full(4, 40.0), "maxmin")


def test_floors_below_minmax_are_slack(stats):
    """Asking for less than the minmax value costs nothing: the effective
    floor is the no-intervention minmax when the device stays out."""
    t = optimize_welfare(stats, np.full(4, 1.0), "sum", with_intervention=False)
    assert np.allclose(t.v[:2], MINMAX_WITHOUT[:2], atol=1e-12)
    assert np.isclose(t.v[3], MINMAX_WITHOUT[3], atol=1e-12)
    assert np.isclose(np.sum(t.v), 110.24305555555556, atol=1e-8)


# ---------------------------------------------------------------------------
# discount thresholds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma,expected", [
    (1.0, 0.98720), (3.0, 0.96160), (7.0, 0.91040),
])
def test_delta_bar_sum_targets_first_term_binds(stats, gamma, expected):
    t = optimize_welfare(stats, np.full(4, gamma), "sum")
    assert np.isclose(delta_bar(stats, t.v), expected, atol=1e-9)


def test_delta_bar_second_term_binds(stats):
    t = optimize_welfare(stats, np.full(4, 14.0), "sum")
    assert np.isclose(delta_bar(stats, t.v), SECOND_TERM_WITH, atol=1e-12)
    for gamma in (1.0, 7.0, 14.0):
        tm = optimize_welfare(stats, np.full(4, gamma), "maxmin")
        assert np.isclose(delta_bar(stats, tm.v), SECOND_TERM_WITH, atol=1e-12)


def test_delta_bar_without_intervention(stats):
    t = optimize_welfare(stats, np.full(4, 1.0), "sum", with_intervention=False)
    # one floor sits exactly at the minmax value, so enforcement degenerates
    assert delta_bar(stats, t.v, with_intervention=False) == 1.0
    tm = optimize_welfare(stats, np.full(4, 1.0), "maxmin", with_intervention=False)
    assert np.isclose(delta_bar(stats, tm.v, with_intervention=False),
                      SECOND_TERM_WITHOUT, atol=1e-12)


def test_delta_mu_degenerate_and_fixed_point(stats):
    # floors at the minmax point make the region too big to enforce below 1
    assert delta_mu(stats, np.zeros(4)) == 1.0
    # the path floors are exactly the fixed point: delta_mu(nu) = delta_bar
    t = optimize_welfare(stats, np.full(4, 7.0), "maxmin")
    db = delta_bar(stats, t.v)
    nu = guarantee_floors(stats, t.v)
    assert np.allclose(nu, W * (1.0 - db), atol=1e-12)
    assert np.isclose(delta_mu(stats, nu), db, atol=1e-9)


def test_delta_mu_rejects_bad_floors(stats):
    with pytest.raises(DesignError):
        delta_mu(stats, np.full(4, 40.0))  # empty region
    g = fig_game(1.0)
    s1 = deviation_stats(g)
    with pytest.raises(DesignError):
        delta_mu(s1, np.zeros(4))  # below the minmax point


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

def test_validate_assumptions_reference_game():
    rep = validate_assumptions(fig_game(2.5))
    assert rep.passed("mutual_minmax_is_stage_nash")
    assert rep.passed("solo_optimum_leaves_others_at_zero")
    # the efficient profiles concentrate capacity on the two patient users,
    # so the sampled payoff set genuinely pokes out of the simplex (ratio 4/3)
    hull = [c for c in rep.checks if c.name == "payoff_set_inside_guarantee_simplex"][0]
    assert not hull.passed
    assert np.isclose(hull.witness[0], 4.0 / 3.0, atol=1e-6)
    assert not rep.all_passed


def test_validate_assumptions_weak_intervention():
    rep = validate_assumptions(fig_game(0.5))
    assert not rep.passed("mutual_minmax_is_stage_nash")


def test_validate_assumptions_power_game_all_pass():
    g = PowerControlGame(gain=[[100.0, 10000.0], [10000.0, 100.0]],
                         intervention_gain=[1.0, 1.0], noise=[1.0, 1.0],
                         a_max=[1.0, 1.0], a0_max=[1.0])
    rep = validate_assumptions(g, hull_grid=41)
    assert rep.passed("mutual_minmax_is_stage_nash")
    assert rep.passed("payoff_set_inside_guarantee_simplex")
    assert not rep.passed("solo_optimum_leaves_others_at_zero") or rep.all_passed


# ---------------------------------------------------------------------------
# outcome paths
# ---------------------------------------------------------------------------

def discounted_average_oracle(path, stats, horizon_tol=1e-8):
    """Accumulate (1-d) sum d^t u(t) directly from the activation sequence."""
    delta = path.delta
    scale = float(np.max(stats.vbar))
    H = int(np.ceil(np.log(horizon_tol / scale) / np.log(delta))) + 1
    acc = np.zeros(len(stats.vbar))
    for t in range(H):
        acc += (1 - delta) * delta ** t * stats.solo_payoffs[path.active_at(t)]
    return acc, delta ** H * scale


def test_outcome_path_maxmin_reference(stats):
    t = optimize_welfare(stats, np.full(4, 1.0), "maxmin")
    path = generate_outcome_path(stats, t.v, 0.9)
    acc, tail = discounted_average_oracle(path, stats)
    assert np.max(np.abs(acc - t.v)) <= 1e-6 + tail
    assert np.max(np.abs(path.values[0] - t.v)) <= 1e-6
    assert np.min(path.values - path.nu) >= -1e-9
    sums = path.values @ (1.0 / stats.vbar)
    assert np.allclose(sums, 1.0, atol=1e-9)


def test_outcome_path_sum_target_high_delta(stats):
    t = optimize_welfare(stats, np.full(4, 7.0), "sum")
    db = delta_bar(stats, t.v)
    path = generate_outcome_path(stats, t.v, db + 1e-3)
    assert np.max(np.abs(path.values[0] - t.v)) <= 1e-6
    assert np.min(path.values - path.nu) >= -1e-9
    # the hard case this exercises: the binding user's floor sits exactly on
    # the target component, so the cycle splice has zero room to dent it
    assert path.nu[3] == pytest.approx(t.v[3], abs=1e-12)
    # the discounted activation frequency of the large claim equals its share
    assert path.values[0][2] / VBAR[2] == pytest.approx(75.1875 / 117.1875, abs=1e-6)


def test_outcome_path_vertex_is_constant(stats):
    v_star = np.array([0.0, 0.0, 117.1875, 0.0])
    path = generate_outcome_path(stats, v_star, 0.95)
    assert list(path.active) == [2]
    assert path.cycle_start == 0
    assert path.active_at(17) == 2


def test_active_at_takes_only_periods_from_zero():
    """A 4-period path entering its cycle at period 1: periods past the stored
    schedule wrap into the cycle; negative, boolean and non-integer periods
    are not periods."""
    path = OutcomePath(active=np.array([0, 1, 0, 2]), cycle_start=1, values=np.zeros((4, 3)),
                       nu=np.zeros(3), delta=0.9, v_star=np.zeros(3))
    assert [path.active_at(t) for t in range(10)] == [0, 1, 0, 2, 1, 0, 2, 1, 0, 2]
    assert path.active_at(np.int64(3)) == 2
    for t in (-1, -4, -5, True, False, 1.0, 2.5, "0", None, np.float64(1.0)):
        with pytest.raises(IndexError, match="is not an integer >= 0"):
            path.active_at(t)


def test_outcome_path_rejects_low_delta(stats):
    t = optimize_welfare(stats, np.full(4, 1.0), "sum")
    with pytest.raises(DesignError):
        generate_outcome_path(stats, t.v, 0.9)  # threshold is 0.9872


def test_outcome_path_rejects_leaking_solo_payoffs(stats):
    t = optimize_welfare(stats, np.full(4, 3.0), "maxmin")
    tol = 1e-9 * float(np.max(stats.vbar))
    for leak, ok in ((0.5 * tol, True), (2.0 * tol, False), (1e-3, False)):
        u = stats.solo_payoffs.copy()
        u[0, 2] = leak
        leaky = dataclasses.replace(stats, solo_payoffs=u)
        if ok:
            generate_outcome_path(leaky, t.v, 0.95)
        else:
            with pytest.raises(DesignError, match="leak"):
                generate_outcome_path(leaky, t.v, 0.95)


def test_decomposition_error_names_the_floor_check(stats, monkeypatch):
    """When the certified cut fails only the floor check, the error names that
    check, the user and the cut valued, not just the (tiny) value error."""
    t = optimize_welfare(stats, np.full(4, 3.0), "maxmin")
    nu = guarantee_floors(stats, t.v)
    exact = repgame.design.path_values

    def dipped(u, cs, delta):
        values = exact(u, cs, delta)
        values[-1, 1] = nu[1] - 1e-8
        return values

    monkeypatch.setattr(repgame.design, "path_values", dipped)
    with pytest.raises(DecompositionError) as err:
        generate_outcome_path(stats, t.v, 0.95)
    msg = str(err.value)
    assert "floor dip 1e-08 below user 1's floor" in msg
    assert "cycle " in msg and " of K = " in msg


def test_decomposition_error_explains_a_lock(stats, monkeypatch):
    """Floors raised onto the target itself, with the thresholds allowed to
    sum past one, leave no user to activate: the error names the period, the
    shares against the thresholds and sum(theta) - 1."""
    t = optimize_welfare(stats, np.full(4, 3.0), "maxmin")
    monkeypatch.setattr(repgame.design, "_floors_at", lambda *args: np.asarray(t.v, dtype=float))
    monkeypatch.setattr(repgame.design, "SUM_GUARD", -1.0)
    with pytest.raises(DecompositionError) as err:
        generate_outcome_path(stats, t.v, 0.95)
    msg = str(err.value)
    assert "greedy locked at period 0: shares [0.35714286 0.35714286" in msg
    assert "below thresholds [0.38928571 0.38928571" in msg
    # sum(theta) = delta sum(F) + n (1 - delta), and the floors' shares F sum to one
    assert "sum(theta) - 1 = 0.15" in msg


def test_assemble_protocol_validates_each_solo_profile_once(stats, monkeypatch):
    g = fig_game()
    t = optimize_welfare(stats, np.full(4, 3.0), "maxmin")
    path = generate_outcome_path(stats, t.v, 0.95)
    assert len(path.active) >= 100
    calls = []
    validate = StageGame.validate_profile

    def counted(self, a0, a):
        calls.append(1)
        return validate(self, a0, a)

    monkeypatch.setattr(StageGame, "validate_profile", counted)
    aut = assemble_protocol(g, stats, path)
    assert len(calls) <= g.n + 2
    assert np.array_equal(aut.path_index, path.active) and aut.cycle_start == path.cycle_start
    assert np.array_equal(aut.table_a[aut.path_index], stats.solo_actions[path.active])


def test_assembled_protocol_is_spe(stats):
    g = fig_game()
    t = optimize_welfare(stats, np.full(4, 3.0), "maxmin")
    db = delta_bar(stats, t.v)
    for delta in (db + 1e-3, 0.95):
        path = generate_outcome_path(stats, t.v, delta)
        aut = assemble_protocol(g, stats, path)
        assert aut.kind == "grim"
        rep = verify_spe(g, aut, delta)
        assert rep.ok, str(rep)


def test_design_protocol_end_to_end():
    d = design_protocol(fig_game(), np.full(4, 7.0), "maxmin", delta=0.9)
    assert np.isclose(d.target.value, MAXMIN_LEVEL, atol=1e-9)
    assert np.isclose(d.threshold, SECOND_TERM_WITH, atol=1e-12)
    assert d.automaton is not None
    assert verify_spe(d.game, d.automaton, 0.9).ok


def test_design_protocol_rejects_weak_intervention():
    with pytest.raises(DesignError):
        design_protocol(fig_game(1.0), np.full(4, 1.0), "sum")


def test_every_premise_raiser_names_the_premise_user_and_amount(stats, monkeypatch, tmp_path,
                                                                capsys):
    """Each premise is decided and worded in one place: every function that
    relies on it raises that one message in its own exception type, naming
    the premise, the user and the amount."""
    # at a cap of 1.0 user 2 gains 0.534 by leaving the mutual minmax profile
    weak, path = fig_game(1.0), (np.zeros(1), np.full(4, 1.0))
    credible = ("the mutual minmax profile is not a stage Nash equilibrium: user 2 gains "
                "0.534 by deviating, so grim punishment is not credible")
    for error, call in ((DesignError, lambda: design_protocol(weak, np.full(4, 1.0), "sum")),
                        (AutomatonError, lambda: build_minmax_automaton(weak, [path], L=None)),
                        (AutomatonError, lambda: min_delta_for_L(weak, path, None))):
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == credible
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "fig_flow.json")
                     .read_text())
    raw["game"]["a0_max"] = [1.0]
    raw.update(target_gamma=1.0, delta=0.99)
    cfg = tmp_path / "weak.json"
    cfg.write_text(json.dumps(raw))
    assert main(["--experiment", "verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {credible}\n"

    # user 0's solo profile pays user 2 a payoff of 1e-3
    u = stats.solo_payoffs.copy()
    u[0, 2] = 1e-3
    leaky = dataclasses.replace(stats, solo_payoffs=u)
    leak = ("user 0's solo profile leaks 0.001 to user 2, a bystander, so time-sharing "
            "solo profiles does not span the payoff simplex")
    target = optimize_welfare(stats, np.full(4, 3.0), "maxmin")
    with pytest.raises(DesignError) as exc:
        generate_outcome_path(leaky, target.v, 0.95)
    assert str(exc.value) == leak
    monkeypatch.setattr(repgame.design, "deviation_stats", lambda game: leaky)
    with pytest.raises(DesignError) as exc:
        design_protocol(fig_game(), np.full(4, 3.0), "maxmin")
    assert str(exc.value) == leak
