"""Experiment harness: config round-trip, CSV emission, golden table, CLI."""
import json
from pathlib import Path

import numpy as np
import pytest

import repgame.experiments as xp
from repgame.cli import main
from repgame.design import DecompositionError
from repgame.experiments import (ConfigError, ResultTable, baseline_comparison,
                                 constrained_welfare_search, dump_config,
                                 emit_curves, load_config, punishment_length_curves,
                                 reference_path, run_experiment, scaling_sweep,
                                 tradeoff_sweep, verification_report)
from repgame.games import (FlowControlGame, PacketDropGame, PowerControlGame, game_from_config,
                           solve_stage_nash)

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "fig_flow.json"
GOLDEN = Path(__file__).parent / "data" / "table2_golden.csv"
SCALING_GOLDEN = Path(__file__).parent / "data" / "scaling_2_5_golden.csv"
SCALING_FALLBACK_GOLDEN = Path(__file__).parent / "data" / "scaling_6_12_golden.csv"
ONE_SHOT_VALUES = Path(__file__).parent / "data" / "one_shot_values.json"

GAME_CFG = {"kind": "flow", "mu": 10.0, "beta": [2.0, 2.0, 3.0, 3.0],
            "a_max": [2.5, 2.5, 2.5, 2.5], "a0_max": [2.5]}


def fig_game():
    return game_from_config(dict(GAME_CFG))


@pytest.fixture(scope="module")
def table2():
    cfg = load_config(CONFIG, "table2")
    return run_experiment(cfg)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = load_config(CONFIG, "tradeoff")
    clone_file = tmp_path / "clone.json"
    clone_file.write_text(dump_config(cfg))
    clone = load_config(clone_file, "tradeoff")
    assert clone.raw == cfg.raw
    assert clone.digest == cfg.digest
    assert clone.gamma == cfg.gamma and clone.L_values == cfg.L_values
    assert clone.n_range == cfg.n_range and clone.delta_grid == cfg.delta_grid


def test_config_defaults(tmp_path):
    p = tmp_path / "min.json"
    p.write_text(json.dumps({"game": GAME_CFG}))
    cfg = load_config(p, "table2")
    assert cfg.gamma == (1.0, 3.0, 7.0, 14.0)
    assert cfg.welfare == "sum" and cfg.delta is None
    assert cfg.target_gamma == 1.0


@pytest.mark.parametrize("mangle,msg", [
    (lambda raw: raw.pop("game"), "game"),
    (lambda raw: raw.update(gamma=[]), "empty"),
    (lambda raw: raw.update(gama=[1.0]), "unknown config key"),
    (lambda raw: raw.update(welfare="median"), "welfare"),
    (lambda raw: raw.update(L=[0]), "L"),
    (lambda raw: raw.update(delta=1.5), "delta"),
    (lambda raw: raw.update(n_range=[5, 3]), "n_range"),
    (lambda raw: raw.update(path=[1.0, 1.0]), "path"),
    (lambda raw: raw["game"].update(mu=-1.0), "game"),
])
def test_config_rejects(tmp_path, mangle, msg):
    raw = json.loads(CONFIG.read_text())
    mangle(raw)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=msg):
        load_config(p, "table2")


@pytest.mark.parametrize("key,value,msg", [
    ("a0", [True, False], "'a0' must be a list of numbers"),
    ("gamma", ["7", "14"], "'gamma' must be a list of numbers"),
    ("gamma", "714", "'gamma' must be a list of numbers"),
    ("delta", "0.95", "'delta' must be a number"),
    ("target_gamma", True, "'target_gamma' must be a number"),
    ("gamma", [10 ** 400], "'gamma' must be a list of numbers"),
])
def test_config_rejects_bools_and_strings_as_numbers(tmp_path, capsys, key, value, msg):
    """Bools, numeric strings and integers too large for a float are
    refused, not coerced, by the loader and by the command line (exit 2)."""
    raw = json.loads(CONFIG.read_text())
    raw[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=msg):
        load_config(p, "verify")
    assert main(["--experiment", "verify", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert msg in capsys.readouterr().err


def test_config_rejects_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json", "table2")
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p, "table2")


def test_verify_requires_delta(tmp_path):
    raw = json.loads(CONFIG.read_text())
    del raw["delta"]
    p = tmp_path / "nodelta.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="delta"):
        load_config(p, "verify")
    # ...but the other experiments do not need one
    assert load_config(p, "fig3").delta is None


# ---------------------------------------------------------------------------
# result tables and CSV emission
# ---------------------------------------------------------------------------

def test_result_table_rejects_ragged_and_nonfinite():
    with pytest.raises(ValueError, match="ragged"):
        ResultTable(("a", "b"), [[1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        ResultTable(("a",), [[np.inf]])


def test_csv_format(tmp_path):
    t = ResultTable(("name", "x", "k"), [["row", 0.123456789, 3], ["gap", None, 40]])
    text = t.to_csv_text()
    lines = text.splitlines()
    assert lines[0].startswith("# tool_version=")
    assert lines[1] == "name,x,k"
    assert lines[2] == "row,0.123457,3"   # six significant digits
    assert lines[3] == "gap,NA,40"
    dest = tmp_path / "t.csv"
    emit_curves(t, dest)
    emit_curves(t, dest)
    assert dest.read_text() == text


def test_emit_refuses_empty_table(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        emit_curves(ResultTable(("a",), []), tmp_path / "e.csv")


# ---------------------------------------------------------------------------
# one-shot baseline search
# ---------------------------------------------------------------------------

def test_one_shot_sum_optimum_exact():
    # floors of 1: the capacity term forces the low-elasticity pair down to
    # exactly 0.5 each (0.5^2 * 4 = 1) while the cubic users sit at the box
    game = fig_game()
    found = constrained_welfare_search(game, np.ones(4), "sum")
    assert found.value == pytest.approx(127.0, abs=1e-9)
    assert found.profile == pytest.approx([0.5, 0.5, 2.5, 2.5], abs=1e-9)
    assert np.all(found.payoffs >= 1.0 - 1e-9)

    found3 = constrained_welfare_search(game, np.full(4, 3.0), "sum")
    assert found3.value == pytest.approx(99.75, abs=1e-9)


def test_one_shot_infeasible_floor_returns_none():
    game = fig_game()
    assert constrained_welfare_search(game, np.full(4, 14.0), "sum") is None
    assert constrained_welfare_search(game, np.full(4, 14.0), "maxmin") is None


def test_one_shot_maxmin_equalizes():
    game = fig_game()
    found = constrained_welfare_search(game, np.ones(4), "maxmin")
    # the maxmin optimum balances the two elasticity groups; the feasible
    # profile (1.9472, 1.9472, 1.5594, 1.5594) already gives every user
    # about 11.325, above the 11.302 where coordinate ascent alone stalls
    assert found.value == pytest.approx(11.325182, abs=1e-5)
    assert np.max(found.payoffs) - np.min(found.payoffs) < 0.05


def test_one_shot_seeded_matches_grid_route():
    game = fig_game()
    gam = np.full(4, 3.0)
    grid = constrained_welfare_search(game, gam, "sum")
    seeded = xp._search(game, [(gam, "sum")], [grid.profile])[0]
    assert seeded.value == pytest.approx(grid.value, abs=1e-12)


def test_one_shot_fallback_seed_lets_other_errors_through(monkeypatch):
    """Past the grid cap the search seeds from the stage Nash point too, and
    an error of the Nash solve propagates."""
    def broken(game):
        raise TypeError("broken best-response map")
    monkeypatch.setattr(xp, "solve_stage_nash", broken)
    monkeypatch.setattr(xp, "GRID_CAP", 0)
    with pytest.raises(TypeError, match="broken best-response map"):
        constrained_welfare_search(fig_game(), np.ones(4), "sum")


def test_one_shot_fallback_starts_from_the_box_and_the_stage_nash(monkeypatch):
    starts = []
    ascend = xp._ascend

    def recorded(game, stack, *args):
        starts.extend(stack)
        return ascend(game, stack, *args)
    monkeypatch.setattr(xp, "_ascend", recorded)
    monkeypatch.setattr(xp, "GRID_CAP", 0)
    game = fig_game()
    found = constrained_welfare_search(game, np.ones(4), "sum")
    assert found is not None and np.all(found.payoffs >= 1.0 - 1e-9)
    assert len(starts) == 4
    for got, scale in zip(starts, (0.5, 0.75, 1.0)):
        assert np.array_equal(got, game.a_max * scale)
    assert np.array_equal(starts[3], solve_stage_nash(game).a)


def _row_major_seeds(game, cells, step):
    """The one-shot grid seeds by the row-major rule: payoffs of the whole
    grid at once, each cell reduced over the user axis row by row, and the
    first grid index wins among the best rows."""
    axes = [np.unique(np.concatenate([np.arange(0.0, am, step), [am]])) for am in game.a_max]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, game.n)
    U = game.payoff_batch(game.null_intervention(), grid)
    seeds = []
    for gamma, kind in cells:
        margin = np.min(U - gamma, axis=-1)
        ok = margin >= -1e-9
        val = np.where(ok, U.sum(axis=-1) if kind == "sum" else U.min(axis=-1), margin)
        idx = np.flatnonzero(ok)
        seeds.append(grid[idx[np.argmax(val[idx])] if idx.size else np.argmax(val)])
    return seeds


def _power_game(n):
    gain = np.full((n, n), 0.1) + 0.9 * np.eye(n)
    return PowerControlGame(gain=gain, intervention_gain=np.ones(n), noise=np.full(n, 0.1),
                            a_max=np.linspace(0.6, 1.0, n), a0_max=[1.0])


GRID_GAMES = {
    "flow-2": FlowControlGame(mu=4.0, beta=[2.0, 3.0], a_max=[1.5, 1.2], a0_max=[1.0]),
    "flow-3": FlowControlGame(mu=3.5, beta=[1.5, 2.0, 3.0], a_max=[1.0, 1.0, 0.8], a0_max=[0.5]),
    # beta = 1: every profile with the same total load ties on the sum in
    # exact arithmetic, so the pick turns on how the nine payoffs are added
    "flow-9": FlowControlGame(mu=1.3, beta=[1.0] * 9, a_max=[0.1] * 9, a0_max=[0.2]),
    "power-2": _power_game(2),
    "power-3": _power_game(3),
    "packet-2": PacketDropGame(mu=3.0, beta=[2.0, 1.0], a_max=[1.0, 1.5]),
    "packet-3": PacketDropGame(mu=3.0, beta=[1.0, 2.0, 2.5], a_max=[0.8, 1.0, 1.0]),
    "packet-9": PacketDropGame(mu=1.0, beta=[1.0] * 9, a_max=[0.1] * 9),
}


@pytest.mark.parametrize("name", sorted(GRID_GAMES))
def test_grid_pass_matches_row_major_rule(name):
    """The user-major grid pass picks the very profiles of the row-major
    rule, for uniform and per-user floors, both welfare kinds, and a cell
    that no profile meets (rows then rank by floor margin)."""
    game = GRID_GAMES[name]
    u_mid = game.payoff(game.null_intervention(), game.a_max / 2)
    out_of_reach = np.zeros(game.n)
    out_of_reach[-1] = 1e6
    floors = [np.full(game.n, 0.5 * np.min(u_mid)),
              u_mid * np.linspace(0.2, 1.0, game.n),
              out_of_reach]
    cells = [(gamma, kind) for gamma in floors for kind in ("sum", "maxmin")]
    got = xp._grid_pass(game, cells)
    want = _row_major_seeds(game, cells, 0.05)
    for (gamma, kind), g, w in zip(cells, got, want):
        assert np.array_equal(g, w), (gamma, kind, g, w)


@pytest.mark.parametrize("n", range(13, 41))
def test_grid_pass_past_the_cap_builds_no_grid(n):
    """The grid size is an exact integer: 21**15 and up wrap in int64, and
    a wrapped (negative) size must not slip under the cap."""
    game = FlowControlGame(mu=float(n), beta=[3.0] * n, a_max=[1.0] * n, a0_max=[1.0])
    game.grid_payoffs = lambda axes: pytest.fail("grid built past the cap")
    assert xp._grid_pass(game, [(np.zeros(n), "sum")]) is None


def test_score_of_user_major_blocks_is_the_row_major_rule():
    """Scoring a user-major block gives the row-major rule's ``ok`` and
    ``val`` bit for bit: the sum ``U.sum(axis=-1)`` (in sequence below 8
    users, pairwise from 8), the row minimum and every margin."""
    rng = np.random.default_rng(5)
    for n in range(1, 12):
        U = rng.uniform(0.0, 10.0, (400, n)) * 10.0 ** rng.integers(-6, 7, (400, n))
        floors = [np.full(n, -1.0), np.full(n, 1e3), rng.uniform(0.0, 50.0, n)]
        cells = [(gamma, kind) for gamma in floors for kind in ("sum", "maxmin")]
        for UT in (np.ascontiguousarray(U.T), U.T):
            for (gamma, kind), (ok, welfare, margin) in zip(cells, xp._score(UT, cells)):
                val = np.where(ok, welfare, margin)
                margin = np.min(U - gamma, axis=-1)
                want = np.where(margin >= -1e-9,
                                U.sum(axis=-1) if kind == "sum" else U.min(axis=-1), margin)
                assert np.array_equal(ok, margin >= -1e-9) and np.array_equal(val, want), (n, kind)


def _grid_axes(game, step=0.05):
    return [np.unique(np.concatenate([np.arange(0.0, am, step), [am]])) for am in game.a_max]


def _slab_payoffs(game, axes, x):
    """``payoff_batch`` on the row-major slab of first action ``x``: the
    other actions in ``np.meshgrid(..., indexing="ij")`` order."""
    rest = np.stack(np.meshgrid(*axes[1:], indexing="ij"), axis=-1).reshape(-1, game.n - 1)
    return game.payoff_batch(game.null_intervention(),
                             np.column_stack([np.full(len(rest), x), rest]))


@pytest.mark.parametrize("name", sorted(GRID_GAMES))
def test_grid_payoffs_match_payoff_batch(name):
    """Each user-major grid block, factorised or not, is bit for bit the
    row-major payoff block of its slab, transposed."""
    game = GRID_GAMES[name]
    axes = _grid_axes(game)
    blocks = list(game.grid_payoffs(axes))
    assert len(blocks) == len(axes[0])
    for x, block in zip(axes[0], blocks):
        assert np.array_equal(block, _slab_payoffs(game, axes, x).T), x


def test_grid_payoffs_match_payoff_batch_on_fig_flow():
    game = game_from_config(json.loads(CONFIG.read_text())["game"])
    axes = _grid_axes(game)
    checked = {0: None, len(axes[0]) // 2: None, len(axes[0]) - 1: None}
    for s, block in enumerate(game.grid_payoffs(axes)):
        if s in checked:
            checked[s] = np.array_equal(block, _slab_payoffs(game, axes, axes[0][s]).T)
    assert checked == dict.fromkeys(checked, True)


def _ascend_one(game, start, gamma, kind, passes=50, points=33):
    """Coordinate ascent from one start, written out line by line: each
    coordinate step scores a ``points``-point line by the row-major rule,
    moves on an improvement of more than 1e-13, and the ascent stops after
    a pass without a move once the window is below 1e-10.  Returns
    ``(ok, val, profile, passes run)``."""
    null = game.null_intervention()

    def best(U):
        margin = np.min(U - gamma, axis=-1)
        ok = margin >= -1e-9
        val = np.where(ok, U.sum(axis=-1) if kind == "sum" else U.min(axis=-1), margin)
        idx = np.flatnonzero(ok)
        j = int(idx[np.argmax(val[idx])] if idx.size else np.argmax(val))
        return j, (bool(ok[j]), float(val[j]))

    a = np.clip(np.asarray(start, dtype=float), 0.0, game.a_max)
    _, cur = best(game.payoff_batch(null, a)[None, :])
    for p in range(passes):
        frac = 0.5 * 0.7 ** p
        moved = False
        for i in range(game.n):
            half = frac * float(game.a_max[i])
            cand = np.linspace(max(0.0, a[i] - half), min(float(game.a_max[i]), a[i] + half), points)
            prof = np.repeat(a[None, :], points, axis=0)
            prof[:, i] = cand
            j, key = best(game.payoff_batch(null, prof))
            if key > (cur[0], cur[1] + 1e-13):
                a[i], cur, moved = cand[j], key, True
        if not moved and frac * float(np.max(game.a_max)) < 1e-10:
            return cur[0], cur[1], a, p + 1
    return cur[0], cur[1], a, passes


ASCENT_GAMES = {
    **{name: GRID_GAMES[name] for name in ("flow-2", "flow-3", "power-3", "packet-3")},
    "flow-9": FlowControlGame(mu=9.5, beta=[1.0, 1.5, 2.0] * 3, a_max=[1.0] * 9, a0_max=[0.5]),
    # boxes this small make the window fall below 1e-10 before the last
    # pass, and with so little noise a start that stopped would still move
    "power-tiny": PowerControlGame(gain=np.full((3, 3), 0.25) + 0.75 * np.eye(3),
                                   intervention_gain=np.ones(3), noise=np.full(3, 1e-7),
                                   a_max=[2e-3, 1e-3, 3e-3], a0_max=[1e-3]),
}


@pytest.mark.parametrize("name", sorted(ASCENT_GAMES))
def test_stacked_ascent_matches_single_start_ascents(name):
    """Starts climbing in lockstep end exactly where each would end alone."""
    game = ASCENT_GAMES[name]
    rng = np.random.default_rng(7)
    u_mid = game.payoff(game.null_intervention(), game.a_max / 2)
    out_of_reach = np.zeros(game.n)
    out_of_reach[-1] = 1e6
    starts = rng.uniform(-0.1, 1.1, size=(4, game.n)) * game.a_max
    ran = set()
    for gamma in (u_mid * np.linspace(0.2, 1.0, game.n), out_of_reach):
        for kind in ("sum", "maxmin"):
            ok, val, profiles = xp._ascend(game, starts, gamma, kind)
            for s, start in enumerate(starts):
                want_ok, want_val, want_a, passes = _ascend_one(game, start, gamma, kind)
                assert ok[s] == want_ok and val[s] == want_val, (gamma, kind, s)
                assert np.array_equal(profiles[s], want_a), (gamma, kind, s)
                ran.add(passes)
    # only the tiny boxes stop early, and their starts stop at different passes
    assert ran == {50} if name != "power-tiny" else len(ran) > 1 and min(ran) < 50


def _mixed_cells(game):
    """Sum and maxmin cells against equal, unequal and out-of-reach floors."""
    u_mid = game.payoff(game.null_intervention(), game.a_max / 2)
    out_of_reach = np.zeros(game.n)
    out_of_reach[-1] = 1e6
    floors = (np.full(game.n, 0.5 * np.min(u_mid)), u_mid * np.linspace(0.2, 1.0, game.n),
              out_of_reach)
    return [(gamma, kind) for gamma in floors for kind in ("sum", "maxmin")]


@pytest.mark.parametrize("name", sorted(ASCENT_GAMES))
def test_lockstep_ascent_of_cells_matches_each_cells_own_ascent(name):
    """Starts of several cells climbing in lockstep, each against its own
    floors and welfare kind, end bit for bit where each cell's own ascent
    ends; the one-shot search of all cells at once returns what each cell's
    own search returns."""
    game = ASCENT_GAMES[name]
    rng = np.random.default_rng(11)
    cells = _mixed_cells(game)
    seeds = [rng.uniform(-0.1, 1.1, size=(2, game.n)) * game.a_max for _ in cells]
    ok, val, profiles = xp._ascend(game, np.concatenate(seeds),
                                   np.repeat([gamma for gamma, _ in cells], 2, axis=0),
                                   np.repeat([kind for _, kind in cells], 2))
    for c, (gamma, kind) in enumerate(cells):
        want_ok, want_val, want_a = xp._ascend(game, seeds[c], gamma, kind)
        rows = slice(2 * c, 2 * c + 2)
        assert np.array_equal(ok[rows], want_ok) and np.array_equal(val[rows], want_val), (c, kind)
        assert np.array_equal(profiles[rows], want_a), (c, kind)
    for (gamma, kind), seed, got in zip(cells, seeds, xp._search(game, cells, seeds)):
        want = xp._search(game, [(gamma, kind)], [seed])[0]
        assert (got is None) == (want is None), (gamma, kind)
        if got is not None:
            assert got.value == want.value and np.array_equal(got.profile, want.profile)


def test_score_of_per_profile_floors_is_each_cells_rule():
    """Scoring profiles against per-profile floors and welfare kinds gives,
    profile by profile, the ``(ok, welfare, margin)`` of scoring them
    against their own cell alone."""
    rng = np.random.default_rng(13)
    for n in (1, 3, 7, 8, 11):
        U = rng.uniform(0.0, 10.0, (60, n)) * 10.0 ** rng.integers(-6, 7, (60, n))
        cells = [(gamma, kind) for gamma in (np.full(n, 0.5), np.full(n, 1e3),
                                             rng.uniform(0.0, 5.0, n)) for kind in ("sum", "maxmin")]
        owner = rng.integers(0, len(cells), len(U))
        per_row = (np.array([cells[c][0] for c in owner]).T, np.array([cells[c][1] for c in owner]))
        [got] = xp._score(U.T, [per_row])
        for c, want in enumerate(xp._score(U.T, cells)):
            rows = owner == c
            for g, w in zip(got, want):
                assert np.array_equal(g[rows], w[rows]), (n, c)


def test_polished_one_shot_cells_keep_their_values(monkeypatch):
    """Every one-shot cell of ``table2``, of ``scaling`` n = 2..12 and of a
    packet-drop and a power game polished with closed-form Jacobians keeps
    the value it had when SLSQP differenced the payoffs (recorded in
    ``one_shot_values.json``) within 1e-9 relative, and ``game.payoff``
    confirms its payoffs, its value and its floors."""
    found, search = [], xp._search

    def recorded(game, cells, seeds, *args):
        results = search(game, cells, seeds, *args)
        found.extend((game, gamma, kind, f) for (gamma, kind), f in zip(cells, results))
        return results
    monkeypatch.setattr(xp, "_search", recorded)
    run_experiment(load_config(CONFIG, "table2"))
    keys = [f"table2 {kind} {float(gamma[0])!r}" for _, gamma, kind, _ in found]
    scaling_sweep((2, 12))
    keys += [f"scaling {game.n} {kind}" for game, _, kind, _ in found[len(keys):]]
    monkeypatch.undo()
    for name in ("packet-3", "power-3"):
        game = ASCENT_GAMES[name]
        for c, (gamma, kind) in enumerate(_mixed_cells(game)):
            found.append((game, gamma, kind, constrained_welfare_search(game, gamma, kind)))
            keys.append(f"{name} {c}")
    want = json.loads(ONE_SHOT_VALUES.read_text())
    assert sorted(keys) == sorted(want)
    for key, (game, gamma, kind, f) in zip(keys, found):
        assert (f is None) == (want[key] is None), key
        if f is not None:
            assert f.value == pytest.approx(want[key], rel=1e-9, abs=0.0), key
            u = game.payoff(game.null_intervention(), f.profile)
            assert np.array_equal(u, f.payoffs), key
            assert f.value == (np.sum(u) if kind == "sum" else np.min(u)), key
            assert np.min(u - gamma) >= -1e-9, key


# ---------------------------------------------------------------------------
# scheme comparison table
# ---------------------------------------------------------------------------

def test_table2_matches_golden(table2):
    assert table2.to_csv_text() == GOLDEN.read_text()


def test_table2_repeated_cells(table2):
    cells = {(r[0], r[1], r[2]): (r[3], r[4]) for r in table2.rows}
    val, d = cells[("repeated_with_intervention", 1.0, "sum")]
    assert val == pytest.approx(114.1875, abs=1e-4)
    assert d == pytest.approx(0.9872, abs=1e-4)
    val, d = cells[("repeated_with_intervention", 14.0, "sum")]
    assert val == pytest.approx(75.1875, abs=1e-4)
    assert d == pytest.approx(0.839725, abs=1e-4)
    # without the device the effective floor binds the gamma=1 sum target
    val, d = cells[("repeated_no_intervention", 1.0, "sum")]
    assert val == pytest.approx(110.2430, abs=1e-3)
    assert d == 1.0
    # fairness rows do not move with gamma until it starts binding
    for g in (1.0, 3.0, 7.0, 14.0):
        val, d = cells[("repeated_with_intervention", g, "maxmin")]
        assert val == pytest.approx(16.7411, abs=1e-3)
        assert d == pytest.approx(0.839725, abs=1e-4)
    # infeasibility markers
    assert cells[("nash", 7.0, "sum")] == (None, None)
    assert cells[("one_shot", 14.0, "maxmin")] == (None, None)


# ---------------------------------------------------------------------------
# punishment-length curves
# ---------------------------------------------------------------------------

def test_reference_path_scales_back_low_elasticity_users():
    path = reference_path(fig_game())
    assert path[2:] == pytest.approx([2.5, 2.5])
    assert path[0] == pytest.approx(0.8889715613961255, abs=1e-9)
    assert path[0] == path[1]


def test_length_curves_structure():
    t = punishment_length_curves(GAME_CFG, (0.5, 2.5), (2, 4, 10))
    by_a0 = {}
    for a0, L, d in t.rows:
        by_a0.setdefault(a0, {})[L] = d
    # full-strength device: absorbing punishment, length-independent bound
    assert len(set(by_a0[2.5].values())) == 1
    assert by_a0[2.5][4] == pytest.approx(0.7471126, abs=5e-6)
    # weak device: too-short punishments are infeasible, marked not dropped
    assert by_a0[0.5][2] is None
    assert by_a0[0.5][4] == pytest.approx(0.882399, abs=1e-5)
    # more intervention never hurts
    assert by_a0[2.5][10] <= by_a0[0.5][10]


def test_length_curves_need_scalar_device_box():
    with pytest.raises(ConfigError, match="flow or power"):
        punishment_length_curves({"kind": "packet_drop", "mu": 10.0,
                                  "beta": [2.0, 3.0], "a_max": [3.0, 4.0]},
                                 (0.5,), (2,))


# ---------------------------------------------------------------------------
# scaling sweep
# ---------------------------------------------------------------------------

def test_scaling_small_populations():
    t = scaling_sweep((2, 3))
    cells = {(r[0], r[1], r[2], r[3]): (r[4], r[5]) for r in t.rows}
    val, d = cells[("linear", 2, "repeated_with_intervention", "sum")]
    assert val == pytest.approx(1.0, abs=1e-6)   # vertex target: solo optimum mu - 1
    assert 0 < d < 1
    # capped and linear rules agree below the saturation point
    assert cells[("capped", 3, "nash", "sum")] == cells[("linear", 3, "nash", "sum")]
    # fairness splits the simplex evenly across symmetric users
    val, _ = cells[("linear", 3, "repeated_with_intervention", "maxmin")]
    assert val == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_scaling_matches_golden():
    """Pins the grid-seeded one-shot cells (n <= 5) along with the rest."""
    assert scaling_sweep((2, 5)).to_csv_text() == SCALING_GOLDEN.read_text()


def test_scaling_fallback_cells_match_golden():
    """Pins the one-shot cells past the grid cap (n >= 6), which start the
    ascent from the box diagonal and the stage Nash point."""
    assert scaling_sweep((6, 12)).to_csv_text() == SCALING_FALLBACK_GOLDEN.read_text()


def test_scaling_solves_each_stage_nash_once(monkeypatch):
    calls = []
    solve = xp.solve_stage_nash

    def counted(game, *args, **kwargs):
        calls.append(game.n)
        return solve(game, *args, **kwargs)
    monkeypatch.setattr(xp, "solve_stage_nash", counted)
    scaling_sweep((6, 6))   # both rules build the same 6-user game
    assert calls == [6]


def test_scaling_overload_rows_are_na():
    t = scaling_sweep((11, 11))
    for rule, n, scheme, kind, val, d in t.rows:
        if rule == "capped":
            assert val is None and d is None   # capacity below the box load
        elif scheme.startswith("repeated"):
            assert val is None                 # floors exceed the simplex


# ---------------------------------------------------------------------------
# trade-off sweeps
# ---------------------------------------------------------------------------

def test_tradeoff_threshold_curves_monotone():
    t = tradeoff_sweep(GAME_CFG, "delta_vs_gamma", (3.0, 14.0), (0.5, 1.0, 2.5), ())
    col = {(r[3], r[1]): r[4] for r in t.rows}
    for g in (3.0, 14.0):
        assert col[(0.5, g)] >= col[(1.0, g)] >= col[(2.5, g)]
    assert col[(2.5, 3.0)] == pytest.approx(0.9616, abs=1e-4)


def test_tradeoff_required_cap():
    t = tradeoff_sweep(GAME_CFG, "a0_vs_delta", (14.0,), (), (0.83, 0.85, 0.9))
    req = {r[2]: r[5] for r in t.rows}
    assert req[0.83] is None                   # even the full device cannot get there
    assert 0 < req[0.85] < 2.5
    assert req[0.9] == 0.0                     # no device needed at a patient discount
    # minimality: the found cap works, a slightly smaller one does not
    cfg = dict(GAME_CFG)
    from repgame.design import delta_bar, deviation_stats, optimize_welfare

    def threshold(a0):
        cfg["a0_max"] = [a0]
        stats = deviation_stats(game_from_config(cfg))
        return delta_bar(stats, optimize_welfare(stats, np.full(4, 14.0), "sum").v)

    assert threshold(req[0.85]) <= 0.85 + 1e-9
    assert threshold(max(req[0.85] - 5e-3, 0.0)) > 0.85


def test_tradeoff_without_a0_max_sweeps_the_default_cap():
    """The cap is read off the built game, so a game block without
    ``a0_max`` runs as the default box ``[0]`` does."""
    cfg = {k: v for k, v in GAME_CFG.items() if k != "a0_max"}
    for axis in ("a0_vs_delta", "delta_vs_gamma"):
        got = tradeoff_sweep(cfg, axis, (7.0, 14.0), (0.0,), (0.9, 0.99)).rows
        assert got == tradeoff_sweep(dict(GAME_CFG, a0_max=[0.0]), axis, (7.0, 14.0),
                                     (0.0,), (0.9, 0.99)).rows
    # gamma = 7 needs delta 0.961 without a device, gamma = 14 only 0.866
    assert [r[5] for r in tradeoff_sweep(cfg, "a0_vs_delta", (7.0, 14.0), (), (0.9, 0.99)).rows] \
        == [None, 0.0, 0.0, 0.0]


def test_tradeoff_rejects_unknown_axis():
    with pytest.raises(ConfigError, match="axis"):
        tradeoff_sweep(GAME_CFG, "delta_vs_mu", (1.0,), (2.5,), (0.9,))


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

def test_verification_report_passes_above_threshold():
    t = verification_report(fig_game(), "sum", 7.0, 0.95)
    q = dict(t.rows)
    assert q["deviation_scan_ok"] == 1 and q["suffix_scan_ok"] == 1
    assert q["deviation_scan_worst_gain"] <= 1e-9
    assert q["scanner_agreement"] <= 1e-8
    assert q["path_value_error"] <= 1e-6
    assert q["build_delta"] == 0.95


def test_verification_report_below_threshold_reports_gain():
    t = verification_report(fig_game(), "sum", 3.0, 0.5)
    q = dict(t.rows)
    assert q["build_delta"] > q["delta_bar"] > q["check_delta"]
    assert q["deviation_scan_ok"] == 0
    assert q["deviation_scan_worst_gain"] > 1.0
    assert q["scanner_agreement"] <= 1e-8


def test_verification_rejects_impossible_guarantee():
    with pytest.raises(ConfigError, match="infeasible"):
        verification_report(fig_game(), "sum", 40.0, 0.95)


def test_verification_names_the_binding_floor():
    with pytest.raises(ConfigError, match=r"infeasible: user 0's floor 50 exceeds their "
                                          r"solo optimum vbar = 46\.875"):
        verification_report(fig_game(), "sum", 50.0, 0.95)
    with pytest.raises(ConfigError, match=r"sum\(max\(gamma, minmax\) / vbar\) = 2\.38933 "
                                          r"reach 1; user 0 has the largest share"):
        verification_report(fig_game(), "sum", 40.0, 0.95)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_writes_csv(tmp_path, capsys):
    rc = main(["--experiment", "fig3", "--config", str(CONFIG), "--out", str(tmp_path / "res")])
    assert rc == 0
    out = tmp_path / "res" / "fig3.csv"
    assert out.is_file()
    lines = out.read_text().splitlines()
    assert lines[1] == "a0_max,L,min_delta"
    assert str(out) in capsys.readouterr().out


def test_cli_scaling_past_int64_grid_sizes_takes_the_fallback(tmp_path):
    """At 15 users the 21-point grid has 21**15 points, past int64: the run
    takes the fallback starts instead of trying to allocate the grid."""
    raw = json.loads(CONFIG.read_text())
    raw["n_range"] = [15, 15]
    cfg = tmp_path / "n15.json"
    cfg.write_text(json.dumps(raw))
    assert main(["--experiment", "scaling", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "scaling.csv").read_text().splitlines()
            if line.startswith("linear,15,one_shot,")]
    assert len(rows) == 2 and all(float(row[4]) > 0.0 for row in rows)


def test_cli_repeat_runs_are_byte_identical(tmp_path):
    for k in ("1", "2"):
        rc = main(["--experiment", "fig3", "--config", str(CONFIG), "--out", str(tmp_path / k)])
        assert rc == 0
    assert (tmp_path / "1" / "fig3.csv").read_bytes() == (tmp_path / "2" / "fig3.csv").read_bytes()


@pytest.mark.parametrize("experiment", ["fig3", "tradeoff", "verify"])
def test_cli_csv_matches_golden(tmp_path, experiment):
    rc = main(["--experiment", experiment, "--config", str(CONFIG), "--out", str(tmp_path)])
    assert rc == 0
    golden = Path(__file__).parent / "data" / f"{experiment}_golden.csv"
    assert (tmp_path / f"{experiment}.csv").read_bytes() == golden.read_bytes()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    rc = main(["--experiment", "table2", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err

    raw = json.loads(CONFIG.read_text())
    del raw["delta"]
    p = tmp_path / "nodelta.json"
    p.write_text(json.dumps(raw))
    rc = main(["--experiment", "verify", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("experiment", ["fig3", "tradeoff", "verify"])
def test_cli_non_finite_game_parameter_exits_2(tmp_path, capsys, experiment):
    raw = json.loads(CONFIG.read_text())
    raw["game"]["mu"] = float("nan")
    p = tmp_path / "nan_mu.json"
    p.write_text(json.dumps(raw))   # writes the bare NaN token Python's json reads back
    assert "NaN" in p.read_text()
    rc = main(["--experiment", experiment, "--config", str(p), "--out", str(tmp_path / "res")])
    assert rc == 2
    assert "mu must be finite" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("experiment,key,value", [
    ("verify", "delta", "abc"),
    ("verify", "target_gamma", "abc"),
    ("verify", "target_gamma", float("nan")),
    ("verify", "target_gamma", float("inf")),
    ("fig3", "path", ["a", "a", "a", "a"]),
    ("fig3", "path", [float("nan")] * 4),
    ("fig3", "L", [1.5, 2]),
    ("fig3", "L", [True]),
    ("scaling", "n_range", [2.9, 2.9]),
])
def test_cli_rejects_values_that_would_be_coerced(tmp_path, capsys, experiment, key, value):
    # each used to end in a ValueError traceback or be truncated silently
    raw = json.loads(CONFIG.read_text())
    raw[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    rc = main(["--experiment", experiment, "--config", str(p), "--out", str(tmp_path / "res")])
    assert rc == 2
    assert f"config error: {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_cli_verify_unenforceable_target_exits_2(tmp_path, capsys):
    # the target sits on the minmax point: delta_bar = 1, no protocol to build
    raw = json.loads(CONFIG.read_text())
    raw["target_gamma"] = -5.0
    p = tmp_path / "minmax.json"
    p.write_text(json.dumps(raw))
    rc = main(["--experiment", "verify", "--config", str(p), "--out", str(tmp_path / "res")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "guarantee -5 cannot be enforced" in err and "delta_bar = 1" in err


def test_cli_internal_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(config):
        raise DecompositionError("path closure failed its accuracy contract")

    monkeypatch.setattr("repgame.cli.run_experiment", boom)
    rc = main(["--experiment", "table2", "--config", str(CONFIG), "--out", str(tmp_path)])
    assert rc == 3
    assert "internal consistency failure" in capsys.readouterr().err
