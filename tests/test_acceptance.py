"""Acceptance gate: one test per claim the package is shipped against.

Each test here encodes one end-to-end reproduction or contract check at its
stated tolerance, so `pytest -v tests/test_acceptance.py` reads as the
acceptance report.  The scheme-comparison table and the one-shot baseline
are split into separate tests: the one-shot cells are checked against an
independent optimum oracle (see that test's docstring) rather than against
pinned numbers.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from repgame.automata import (ActionProfile, find_min_delta_for_constraints,
                              min_delta_for_L, minmax_delta_constraints,
                              player_specific_delta_constraints,
                              prescribe_punishment_length,
                              prescribe_reward_delay, verify_spe)
from repgame.design import (assemble_protocol, delta_bar, delta_mu,
                            deviation_stats, generate_outcome_path,
                            optimize_welfare)
from repgame.experiments import (load_config, punishment_length_curves,
                                 reference_path, run_experiment, scaling_sweep)
from repgame.games import (FlowControlGame, PacketDropGame, PowerControlGame,
                           minmax, minmax_values)
from repgame.simulate import profitability_scan

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fig_flow.json"

FIG_GAME = dict(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4, a0_max=[2.5])


def fig_game():
    return FlowControlGame(**FIG_GAME)


@pytest.fixture(scope="module")
def table2_run():
    """The scheme-comparison table for the reference game, with wall time."""
    cfg = load_config(CONFIG, "table2")
    start = time.perf_counter()
    table = run_experiment(cfg)
    return table, time.perf_counter() - start


def cell(table, scheme, gamma, kind):
    for row in table.rows:
        if row[0] == scheme and row[1] == gamma and row[2] == kind:
            return row[3], row[4]
    raise AssertionError(f"missing row ({scheme}, {gamma}, {kind})")


# ---------------------------------------------------------------------------
# 1. scheme-comparison table on the reference flow game
# ---------------------------------------------------------------------------

def test_scheme_table_reference_cells(table2_run):
    """Stage-equilibrium and repeated-scheme cells of the comparison table.

    Values are checked to +-0.1 (fairness +-0.05) and discount thresholds
    to +-0.001; the whole table must come out in under ten seconds.
    """
    table, seconds = table2_run

    val, _ = cell(table, "nash", 1.0, "sum")
    assert val == pytest.approx(39.3, abs=0.1)
    val, _ = cell(table, "nash", 1.0, "maxmin")
    assert val == pytest.approx(4.0, abs=0.05)

    expected_sum = {1.0: (114.2, 0.987), 3.0: (108.2, 0.962),
                    7.0: (96.2, 0.910), 14.0: (75.2, 0.840)}
    for gamma, (v_ref, d_ref) in expected_sum.items():
        val, d = cell(table, "repeated_with_intervention", gamma, "sum")
        assert val == pytest.approx(v_ref, abs=0.1), f"sum value at gamma={gamma}"
        assert d == pytest.approx(d_ref, abs=0.001), f"sum delta at gamma={gamma}"

    # the guarantee never binds the egalitarian optimum, so all four rows agree
    for gamma in (1.0, 3.0, 7.0, 14.0):
        val, d = cell(table, "repeated_with_intervention", gamma, "maxmin")
        assert val == pytest.approx(16.7, abs=0.05), f"maxmin value at gamma={gamma}"
        assert d == pytest.approx(0.840, abs=0.001), f"maxmin delta at gamma={gamma}"

    for gamma in (1.0, 3.0, 7.0, 14.0):
        _, d = cell(table, "repeated_no_intervention", gamma, "maxmin")
        assert d == pytest.approx(0.861, abs=0.001), f"no-device maxmin delta at gamma={gamma}"
    val, d = cell(table, "repeated_no_intervention", 1.0, "sum")
    assert val == pytest.approx(110.2, abs=0.1)
    # one floor sits exactly on the no-device minmax value, so enforcement
    # degenerates and the threshold pegs at one
    assert d == pytest.approx(1.000, abs=0.001)

    for kind in ("sum", "maxmin"):
        val, d = cell(table, "one_shot", 14.0, kind)
        assert val is None and d is None, "one-shot must be NA at gamma=14"

    assert seconds < 10.0, f"table took {seconds:.1f}s"


def _zoom_max(f, lo, hi, points=2001, rounds=4):
    """Maximize a vectorized scalar function by repeated grid zooming."""
    for _ in range(rounds):
        F = np.linspace(lo, hi, points)
        v = f(F)
        j = int(np.argmax(v))
        lo, hi = F[max(j - 1, 0)], F[min(j + 1, points - 1)]
    return float(v[j])


def _flow_sum_oracle(mu, beta, h, gamma):
    """Best total payoff of a quiet-device flow game with floors, or None.

    At free capacity F the floors read a_i >= (gamma_i / F)^(1/beta_i), the
    rates satisfy sum(a) = mu - F, and the welfare F * sum(a_i^beta_i) is
    convex (beta >= 1), so the maximum sits at a vertex of box-cut-by-
    hyperplane: one free user k, every other user at its floor or its cap.
    """
    beta, h, gamma = (np.asarray(x, dtype=float) for x in (beta, h, gamma))
    assert np.all(beta >= 1.0), "vertex enumeration needs convex welfare"
    n = beta.size
    free = np.eye(n, dtype=bool)[np.repeat(np.arange(n), 2 ** (n - 1))]
    at_cap = np.array([np.insert(np.array(top, dtype=bool), k, False)
                       for k in range(n)
                       for top in itertools.product((False, True), repeat=n - 1)])

    def best_vertex(F):
        floor = (gamma / F[:, None]) ** (1.0 / beta)
        a = np.where(free, 0.0, np.where(at_cap, h, floor[:, None, :]))
        a_k = mu - F[:, None] - np.sum(a, axis=-1)
        a = np.where(free, a_k[..., None], a)
        floor_k = np.sum(np.where(free, floor[:, None, :], 0.0), axis=-1)
        ok = (np.all(floor <= h, axis=1)[:, None] & (a_k >= floor_k) & (a_k <= free @ h))
        val = F[:, None] * np.sum(np.clip(a, 0.0, None) ** beta, axis=-1)
        return np.max(np.where(ok, val, -np.inf), axis=1)

    best = _zoom_max(best_vertex, mu * 1e-6, mu)
    return best if np.isfinite(best) else None


def _flow_maxmin_oracle(mu, beta, h):
    """Best minimum payoff of a quiet-device flow game (no floors).

    At the optimum all payoffs are equal: a user above the minimum could
    send less and raise everyone else.  At free capacity F a common payoff
    u needs a_i = (u / F)^(1/beta_i) within the box and sum(a) <= mu - F;
    bisect on u, then maximize over F.
    """
    beta, h = (np.asarray(x, dtype=float) for x in (beta, h))

    def common(F):
        lo, hi = np.zeros_like(F), np.min(F[:, None] * h ** beta, axis=1)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fits = np.sum((mid[:, None] / F[:, None]) ** (1.0 / beta), axis=1) <= mu - F
            lo, hi = np.where(fits, mid, lo), np.where(fits, hi, mid)
        return lo

    return _zoom_max(common, mu * 1e-6, mu)


def _scaling_solo(room):
    """max over a in [0, 1] of a^3 (room - a): a = 3 room / 4, capped at 1."""
    a = min(0.75 * room, 1.0)
    return a ** 3 * (room - a) if room > 0 else 0.0


def _scaling_floor(n, mu):
    """The scaling sweep's per-user floor: min(10% of the solo optimum,
    mu / n), raised to 1e-9 above the minmax value, where the device takes
    its cap mu - (n - 1) and the other users send at theirs."""
    device = max(mu - (n - 1), 0.0)
    return max(min(0.1 * _scaling_solo(mu), mu / n), _scaling_solo(mu - device - (n - 1)) + 1e-9)


def _scaling_sum_oracle(n, mu, gamma):
    """Best total payoff of the scaling sweep's symmetric game (beta 3, unit
    boxes, device quiet) with every payoff at least gamma, or None.

    As in :func:`_flow_sum_oracle`, at free capacity F the floor reads
    a_i >= l = (gamma / F)^(1/3), the rates sum to mu - F and the welfare
    F * sum(a_i^3) is convex, so its maximum sits at a vertex: one free
    user, every other at l or at the cap.  The users are alike, so a
    vertex is a count k of users at the cap: O(n) per capacity.
    """
    k = np.arange(n)

    def best_vertex(F):
        floor = (gamma / F[:, None]) ** (1.0 / 3.0)
        free = mu - F[:, None] - k - (n - 1 - k) * floor
        ok = (floor <= 1.0) & (free >= floor) & (free <= 1.0)
        val = F[:, None] * (k + np.clip(free, 0.0, None) ** 3 + (n - 1 - k) * floor ** 3)
        return np.max(np.where(ok, val, -np.inf), axis=1)

    best = _zoom_max(best_vertex, mu * 1e-6, mu)
    return best if np.isfinite(best) else None


def _scaling_maxmin_oracle(n, mu):
    """Best minimum payoff of the same game, no floors: as in
    :func:`_flow_maxmin_oracle` all payoffs are equal at the optimum, so
    every user sends the same a, and a^3 (mu - n a) peaks at a = 3 mu / 4n,
    capped at 1."""
    a = min(0.75 * mu / n, 1.0)
    return a ** 3 * (mu - n * a)


def test_one_shot_scaling_cells():
    """The 22 one-shot cells of ``scaling_sweep((2, 12))`` are the optima
    of their games (1e-6 rel), by an oracle in this file that shares no
    code with the search: :func:`_scaling_sum_oracle` and
    :func:`_scaling_maxmin_oracle` at the floor :func:`_scaling_floor`
    (maxmin is NA below it).  The grid seeds n = 2..5; from n = 6 the grid
    is past its cap and the search starts from the box and the stage Nash
    point.  The capped rule repeats the linear cells up to n = 10 and is NA
    past it."""
    table = scaling_sweep((2, 12))
    cells = {(rule, n, kind): value for rule, n, scheme, kind, value, _ in table.rows
             if scheme == "one_shot"}
    assert len(cells) == 44
    for n in range(2, 13):
        gamma = _scaling_floor(n, float(n))
        maxmin = _scaling_maxmin_oracle(n, float(n))
        want = {"sum": _scaling_sum_oracle(n, float(n), gamma),
                "maxmin": maxmin if maxmin >= gamma else None}
        for kind, ref in want.items():
            assert ref is not None, (n, kind)
            assert cells["linear", n, kind] == pytest.approx(ref, rel=1e-6), (n, kind)
            assert cells["capped", n, kind] == (cells["linear", n, kind] if n <= 10 else None)


def test_one_shot_baseline_reference_cells(table2_run):
    """One-shot cells are the optima of the documented problem (1e-6 rel).

    The one-shot cell is the best stage welfare with the device quiet,
    subject to per-user floors gamma.  The expected values come from an
    oracle in this file that shares no code with the search:

    * sum: fix the free capacity F = mu - sum(a).  The floors become lower
      bounds (gamma_i / F)^(1/beta_i) on the rates, the feasible set is the
      box cut by the hyperplane sum(a) = mu - F, and the welfare
      F * sum(a_i^beta_i) is convex, so its maximum lies at a vertex.
      Enumerate the vertices, then maximize over F in one dimension.
    * maxmin: at the optimum all payoffs are equal.  For each F, bisect on
      the common payoff u subject to sum((u/F)^(1/beta_i)) <= mu - F and
      the box, then maximize over F.  With uniform floors the cell is that
      optimum when it clears gamma and infeasible otherwise.

    The oracle gives 127.0, 99.75 and 72.6442 (sum) and 11.3252 (maxmin)
    for gamma = 1, 3, 7; gamma = 14 is infeasible for both kinds.  Two
    feasible profiles certify the oracle from below: (0.5, 0.5, 2.5, 2.5)
    gives 127.0 at gamma = 1 and (1.9472, 1.9472, 1.5594, 1.5594) gives
    every user about 11.325.  The 1e-6 tolerance rejects the 11.3022 that
    coordinate ascent alone stalls at.
    """
    table, _ = table2_run
    mu = FIG_GAME["mu"]
    beta, h = np.asarray(FIG_GAME["beta"], float), np.asarray(FIG_GAME["a_max"], float)
    maxmin = _flow_maxmin_oracle(mu, beta, h)

    def payoffs(a):
        return np.asarray(a) ** beta * (mu - np.sum(a))

    # feasible profiles bound the oracle from below
    assert _flow_sum_oracle(mu, beta, h, np.ones(4)) >= np.sum(payoffs([0.5, 0.5, 2.5, 2.5])) - 1e-9
    assert maxmin >= np.min(payoffs([1.9472, 1.9472, 1.5594, 1.5594])) - 1e-9

    for gamma in (1.0, 3.0, 7.0, 14.0):
        want = {"sum": _flow_sum_oracle(mu, beta, h, np.full(4, gamma)),
                "maxmin": maxmin if maxmin >= gamma else None}
        for kind, ref in want.items():
            val, d = cell(table, "one_shot", gamma, kind)
            assert d is None
            if ref is None:
                assert val is None, f"one_shot {kind} gamma={gamma}: got {val}, want NA"
            else:
                assert val == pytest.approx(ref, rel=1e-6), f"one_shot {kind} gamma={gamma}"


# ---------------------------------------------------------------------------
# 2. punishment-length curve properties
# ---------------------------------------------------------------------------

def test_punishment_length_curve_properties():
    """Shape of the minimum-discount-vs-length curves across device caps.

    Pointwise the threshold never rises with a stronger device; with a weak
    device the curve eventually turns back up as punishment spells grow; at
    the full cap the absorbing bound applies and the curve is flat at the
    length-independent value.
    """
    a0_values = (0.0, 0.5, 1.0, 2.5)
    L_values = (1, 2, 3, 4, 5, 6, 8, 10, 12)
    game_cfg = dict(FIG_GAME, kind="flow")
    table = punishment_length_curves(game_cfg, a0_values, L_values)
    curve = {a0: {} for a0 in a0_values}
    for a0, L, d in table.rows:
        curve[a0][L] = d

    # harsher available punishment never hurts (NA counts as +inf)
    for L in L_values:
        deltas = [curve[a0][L] if curve[a0][L] is not None else np.inf
                  for a0 in a0_values]
        for weak, strong in zip(deltas, deltas[1:]):
            assert strong <= weak + 1e-9, f"threshold rose with the cap at L={L}"

    # weak device: long punishments eventually cost patience again
    for a0 in (0.0, 0.5, 1.0):
        feas = [(L, curve[a0][L]) for L in L_values if curve[a0][L] is not None]
        assert feas, f"no feasible length at cap {a0}"
        deltas = [d for _, d in feas]
        k = int(np.argmin(deltas))
        assert k < len(deltas) - 1 and deltas[-1] > deltas[k] + 1e-6, \
            f"curve at cap {a0} never turns back up"

    # full cap: flat at the absorbing-punishment bound
    g = fig_game()
    bound = min_delta_for_L(g, (g.null_intervention(), reference_path(g)), None).delta
    for L in L_values:
        assert curve[2.5][L] == pytest.approx(bound, abs=5e-6)


# ---------------------------------------------------------------------------
# 3. SPE verification suite
# ---------------------------------------------------------------------------

def test_spe_verification_suite():
    """Assembled protocols survive both deviation scanners above threshold.

    For the total-throughput and egalitarian targets at three discount
    factors (just above threshold, midway to one, and 0.999), the one-shot
    deviation scan and the independent truncated-suffix scan both report
    worst gain <= 1e-9 and agree within 1e-8.  Runs in under five seconds.
    """
    g = fig_game()
    stats = deviation_stats(g)
    start = time.perf_counter()
    _check_protocols(g, stats, 3.0)
    assert time.perf_counter() - start < 5.0


def _check_protocols(game, stats, level):
    """Both scanners on the sum and maxmin protocols for a uniform guarantee
    ``level`` at delta_bar + 1e-3, midway to one, and 0.999."""
    for welfare in ("sum", "maxmin"):
        target = optimize_welfare(stats, np.full(game.n, level), welfare)
        db = delta_bar(stats, target.v)
        for delta in (db + 1e-3, 0.5 * (db + 1.0), 0.999):
            path = generate_outcome_path(stats, target.v, delta)
            aut = assemble_protocol(game, stats, path)
            rep = verify_spe(game, aut, delta)
            scan = profitability_scan(game, aut, delta)
            tag = f"{welfare} at delta={delta:.6f}"
            assert rep.ok and rep.worst_gain <= 1e-9, tag
            assert scan.ok and scan.worst_gain <= 1e-9, tag
            assert abs(rep.worst_gain - scan.worst_gain) <= 1e-8, tag


OTHER_KINDS = {
    "packet_drop": (lambda: PacketDropGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4), 3.0),
    "power": (lambda: PowerControlGame(gain=[[1.0, 0.9, 1.1], [1.0, 1.0, 0.95], [1.05, 1.0, 1.0]],
                                       intervention_gain=[1.0, 1.0, 1.0],
                                       noise=[0.01, 0.012, 0.008], a_max=[1.0, 1.0, 1.0],
                                       a0_max=[5.0]), 0.5),
}


@pytest.mark.parametrize("kind", sorted(OTHER_KINDS))
def test_spe_verification_other_game_kinds(kind):
    """The suite above on the packet-drop game of the reference config and
    on a 3-user power game (the benchmark's protocol games): both scanners
    report worst gain <= 1e-9 and agree within 1e-8."""
    make, level = OTHER_KINDS[kind]
    game = make()
    _check_protocols(game, deviation_stats(game), level)


# ---------------------------------------------------------------------------
# 4. outcome-path contract on random instances
# ---------------------------------------------------------------------------

def test_outcome_path_contract_random_instances():
    """100 random (game, target, delta) triples keep the path contract.

    The path's discounted average hits the target within 1e-6, every
    promised continuation stays on the weighted simplex (1e-8), and no
    component ever dips more than 1e-9 below its guarantee floor.
    """
    rng = np.random.default_rng(7)
    built = draws = 0
    while built < 100:
        draws += 1
        assert draws < 2000, "instance generation stalled"
        n = int(rng.integers(2, 5))
        beta = np.round(rng.uniform(1.5, 4.0, n), 2)
        amax = np.round(rng.uniform(0.5, 3.0, n), 2)
        mu = float(np.round(np.sum(amax) * rng.uniform(1.05, 1.6), 3))
        a0m = float(np.round(rng.uniform(0.0, 3.0), 2))
        game = FlowControlGame(mu=mu, beta=beta, a_max=amax, a0_max=[a0m])
        stats = deviation_stats(game)
        base = stats.minmax(True) / stats.vbar
        slack = 1.0 - float(np.sum(base))
        if slack < 0.05:
            continue
        shares = base + slack * rng.dirichlet(np.ones(n))
        v_star = shares * stats.vbar
        db = delta_bar(stats, v_star)
        if db > 0.9985:
            continue
        delta = float(rng.uniform(db + 1e-3, 0.9995))
        path = generate_outcome_path(stats, v_star, delta)
        assert np.max(np.abs(path.values[0] - v_star)) <= 1e-6
        assert np.max(path.nu - path.values) <= 1e-9
        share_sums = np.sum(path.values / stats.vbar, axis=1)
        assert np.max(np.abs(share_sums - 1.0)) <= 1e-8
        built += 1


def _draw_packet_drop(rng, n):
    amax = np.round(rng.uniform(0.5, 3.0, n), 2)
    return PacketDropGame(mu=float(np.round(np.sum(amax) * rng.uniform(1.05, 1.6), 3)),
                          beta=np.round(rng.uniform(1.5, 4.0, n), 2), a_max=amax)


def _draw_power(rng, n):
    gain = rng.uniform(0.6, 1.4, (n, n))
    np.fill_diagonal(gain, rng.uniform(0.8, 1.2, n))
    return PowerControlGame(gain=np.round(gain, 3),
                            intervention_gain=np.round(rng.uniform(0.5, 1.5, n), 3),
                            noise=np.round(rng.uniform(0.005, 0.05, n), 4),
                            a_max=np.round(rng.uniform(0.5, 1.5, n), 2),
                            a0_max=[round(float(rng.uniform(2.0, 6.0)), 2)])


@pytest.mark.parametrize("draw", [_draw_packet_drop, _draw_power])
def test_outcome_path_contract_other_game_kinds(draw):
    """The path contract of the flow test above, on 20 random packet-drop
    and 20 random power-control instances: target within 1e-6, shares on
    the weighted simplex within 1e-8, no dip below the floors beyond 1e-9."""
    rng = np.random.default_rng(11)
    built = draws = 0
    while built < 20:
        draws += 1
        assert draws < 400, "instance generation stalled"
        n = int(rng.integers(2, 5))
        stats = deviation_stats(draw(rng, n))
        base = stats.minmax(True) / stats.vbar
        slack = 1.0 - float(np.sum(base))
        if slack < 0.05:
            continue
        v_star = (base + slack * rng.dirichlet(np.ones(n))) * stats.vbar
        db = delta_bar(stats, v_star)
        if db > 0.9985:
            continue
        delta = float(rng.uniform(db + 1e-3, 0.9995))
        path = generate_outcome_path(stats, v_star, delta)
        assert np.max(np.abs(path.values[0] - v_star)) <= 1e-6
        assert np.max(path.nu - path.values) <= 1e-9
        share_sums = np.sum(path.values / stats.vbar, axis=1)
        assert np.max(np.abs(share_sums - 1.0)) <= 1e-8
        built += 1


# ---------------------------------------------------------------------------
# 5. oracle equivalences for the closed forms
# ---------------------------------------------------------------------------

def test_closed_form_oracle_equivalences():
    """Closed forms agree with brute-force enumeration.

    (a) Per-user minmax values on three-user flow games match a five-point
    per-axis grid enumeration within the grid's own sampling error (the
    minimising congestion is a box corner, so only the best-response axis
    contributes error).  (b) The region threshold delta_mu matches a
    0.01-step simplex-grid evaluation of the max-min-max on ten random
    instances, within twice the grid's objective resolution, and the grid
    value never exceeds the closed form.
    """
    rng = np.random.default_rng(11)
    for _ in range(3):
        beta = np.round(rng.uniform(1.5, 3.5, 3), 2)
        amax = np.round(rng.uniform(0.5, 2.0, 3), 2)
        a0m = float(np.round(rng.uniform(0.2, 1.0), 2))
        mu = float(np.round(np.sum(amax) + a0m + rng.uniform(0.5, 2.0), 3))
        g = FlowControlGame(mu=mu, beta=beta, a_max=amax, a0_max=[a0m])
        for i in range(3):
            for with_dev in (True, False):
                analytic = minmax(g, i, with_intervention=with_dev).value
                own = np.linspace(0.0, amax[i], 5)
                a0_grid = np.linspace(0.0, a0m, 5) if with_dev else np.array([0.0])
                others = [np.linspace(0.0, amax[j], 5) for j in range(3) if j != i]
                grid_val, arg = np.inf, None
                for a0v, *oth in itertools.product(a0_grid, *others):
                    prof = np.empty((5, 3))
                    k = 0
                    for j in range(3):
                        if j == i:
                            prof[:, j] = own
                        else:
                            prof[:, j] = oth[k]
                            k += 1
                    u = g.payoff_batch(np.full((5, 1), a0v), prof)[:, i]
                    if float(np.max(u)) < grid_val:
                        grid_val, arg = float(np.max(u)), (a0v, oth)
                # sampling error of the 5-point best-response axis at the
                # congestion the grid settled on
                cong = arg[0] + sum(arg[1])
                xs = np.linspace(0.0, amax[i], 4001)
                f = xs ** beta[i] * np.maximum(mu - cong - xs, 0.0)
                lip = float(np.max(np.abs(np.diff(f)))) / (xs[1] - xs[0])
                assert grid_val <= analytic + 1e-9
                assert abs(analytic - grid_val) <= lip * (amax[i] / 4) / 2 + 1e-9

    rng = np.random.default_rng(23)
    checked = 0
    h = 0.01
    while checked < 10:
        beta = np.round(rng.uniform(1.5, 3.5, 3), 2)
        amax = np.round(rng.uniform(0.5, 2.0, 3), 2)
        mu = float(np.round(np.sum(amax) * rng.uniform(1.1, 1.5), 3))
        a0m = float(np.round(rng.uniform(0.0, 1.5), 2))
        g = FlowControlGame(mu=mu, beta=beta, a_max=amax, a0_max=[a0m])
        stats = deviation_stats(g)
        vlow, vbar, y = stats.minmax(True), stats.vbar, stats.y
        m_low = vlow / vbar
        if np.sum(m_low) > 0.6:
            continue
        floor_shares = m_low + rng.uniform(0.02, 0.10, 3)
        if np.sum(floor_shares) > 0.8:
            continue
        closed = delta_mu(stats, floor_shares * vbar)
        if closed >= 0.999:
            continue
        pts = []
        s1 = floor_shares[0]
        while s1 <= 1.0 - floor_shares[1] - floor_shares[2] + 1e-12:
            s2 = floor_shares[1]
            while s2 <= 1.0 - s1 - floor_shares[2] + 1e-12:
                pts.append((s1, s2, 1.0 - s1 - s2))
                s2 += h
            s1 += h
        S = np.array(pts)
        V = S * vbar
        # smallest discount at which each grid payoff still decomposes:
        # continuation existence for the active user, one-shot temptation
        # ratios for everyone else, best active user, worst payoff
        exist = (1.0 - S) / (1.0 - floor_shares)
        ratio = (y[None, :, :] - V[:, None, :]) / (y - vlow)[None, :, :]
        off = ~np.eye(3, dtype=bool)
        per_active = np.maximum(exist, np.max(np.where(off[None], ratio, -np.inf), axis=2))
        grid_val = float(np.max(np.min(per_active, axis=1)))
        lip = max(float(np.max(1.0 / (1.0 - floor_shares))),
                  float(np.max(vbar[None, :] / (y - vlow))))
        assert grid_val <= closed + 1e-9
        assert closed - grid_val <= 2.0 * h * lip
        checked += 1


# ---------------------------------------------------------------------------
# 6. limiting-patience sanity on the packet-drop game
# ---------------------------------------------------------------------------

def test_prescribed_lengths_make_constraints_satisfiable():
    """Random strictly rational targets become enforceable as delta -> 1.

    On the packet-drop variant of the reference game, for each random
    on-path profile the prescribed punishment length makes the absorbing
    families satisfiable below delta = 1, the prescribed reward delay does
    the same for the player-specific machine, and at the found (delta, L)
    all four player-specific constraint families report nonnegative margins.
    """
    g = PacketDropGame(mu=10.0, beta=[2, 2, 3, 3], a_max=[2.5] * 4)
    vlow = minmax_values(g, with_intervention=True)
    rng = np.random.default_rng(5)
    made = tries = 0
    while made < 5:
        tries += 1
        assert tries < 300, "instance generation stalled"
        a = rng.uniform(0.35, 0.9, 4) * g.a_max
        if np.sum(a) >= g.mu - 1.0:
            continue
        u = g.payoff(g.null_intervention(), a)
        if np.min(u - vlow) < 0.5:
            continue
        prof = ActionProfile([0.0] * 4, a)

        L = prescribe_punishment_length(g, prof)
        d = find_min_delta_for_constraints(
            lambda dd: minmax_delta_constraints(g, prof, L, dd))
        assert d is not None and d < 1.0
        m = minmax_delta_constraints(g, prof, L, min(d + 1e-4, 0.999999))
        assert min(np.min(m["path"]), np.min(m["punishment"])) >= 0.0

        rewards = []
        for i in range(4):
            ra = a.copy()
            ra[i] *= 0.8
            rewards.append(ActionProfile([0.0] * 4, ra))
        own = np.array([g.payoff([0.0] * 4, r.a)[i] for i, r in enumerate(rewards)])
        if np.any(own >= u - 1e-6) or np.any(own - vlow < 0.5):
            continue
        Lr = prescribe_reward_delay(g, rewards)
        dr = find_min_delta_for_constraints(
            lambda dd: player_specific_delta_constraints(g, prof, Lr, rewards, dd))
        assert dr is not None and dr < 1.0
        margins = player_specific_delta_constraints(
            g, prof, Lr, rewards, min(dr + 1e-4, 0.999999))
        assert sorted(margins) == ["path", "punishing", "reward_other", "reward_own"]
        for family, vals in margins.items():
            assert np.min(vals) >= 0.0, f"{family} family violated"
        made += 1
