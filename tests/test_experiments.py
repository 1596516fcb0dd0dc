"""Experiment harness: config round-trip, CSV emission, golden table, CLI."""
import hashlib
import json
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import repgame.experiments as xp
from repgame.cli import main
from repgame.design import DecompositionError, deviation_stats
from repgame.experiments import (ConfigError, ResultTable, baseline_comparison,
                                 constrained_welfare_search, emit_curves,
                                 load_config, punishment_length_curves,
                                 reference_path, run_experiment, scaling_sweep,
                                 tradeoff_sweep, verification_report)
from repgame.games import (FlowControlGame, PacketDropGame, PowerControlGame, StageGame,
                           game_from_config, mutual_minmax, solve_stage_nash)

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "fig_flow.json"
GOLDEN = Path(__file__).parent / "data" / "table2_golden.csv"
SCALING_GOLDEN = Path(__file__).parent / "data" / "scaling_2_5_golden.csv"
SCALING_FALLBACK_GOLDEN = Path(__file__).parent / "data" / "scaling_6_12_golden.csv"
ONE_SHOT_VALUES = Path(__file__).parent / "data" / "one_shot_values.json"
ONE_SHOT_DIGESTS = Path(__file__).parent / "data" / "one_shot_digests.json"

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
    """Rewriting a config with its keys reversed and another indent keeps
    its parse and its ``config_sha256`` digest."""
    cfg = load_config(CONFIG, "tradeoff")
    raw = json.loads(CONFIG.read_text())
    flipped = {k: raw[k] for k in reversed(raw)}
    flipped["game"] = {k: raw["game"][k] for k in reversed(raw["game"])}
    clone_file = tmp_path / "clone.json"
    clone_file.write_text(json.dumps(flipped, indent=7))
    assert clone_file.read_text() != CONFIG.read_text()
    clone = load_config(clone_file, "tradeoff")
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
    ("L", [2, 2 ** 1024], "'L' must be a list of integers within a float's range"),
])
def test_config_rejects_bools_and_strings_as_numbers(tmp_path, capsys, key, value, msg):
    """Bools, numeric strings and integers too large for a float are
    refused, not coerced, by the loader and by the command line (exit 2,
    nothing written)."""
    raw = json.loads(CONFIG.read_text())
    raw[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=msg):
        load_config(p, "verify")
    assert main(["--experiment", "verify", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    """Floors out of reach, +inf among them, find no feasible profile."""
    game = fig_game()
    for gamma in (np.full(4, 14.0), np.inf, [3.0, 3.0, 3.0, np.inf]):
        assert constrained_welfare_search(game, gamma, "sum") is None
        assert constrained_welfare_search(game, gamma, "maxmin") is None


def test_one_shot_inf_floor_returns_none_before_seeding(monkeypatch):
    """A +inf floor is out of reach: the search returns None before it seeds,
    so no grid block is scored for it."""
    monkeypatch.setattr(xp, "_seeds", lambda *args: pytest.fail("seeded for a +inf floor"))
    for gamma in ([3.0, 3.0, 3.0, np.inf], np.inf):
        for kind in ("sum", "maxmin"):
            assert constrained_welfare_search(fig_game(), gamma, kind) is None, (gamma, kind)


def test_sum_welfare_is_added_in_index_order():
    """On the ``scaling`` 9-user game at its sum floor, the one-shot value
    and the repeated target's value are their payoffs added in index order,
    as the search ranks them (``np.sum`` adds nine terms pairwise)."""
    from repgame.design import optimize_welfare
    game = FlowControlGame(mu=9.0, beta=[3.0] * 9, a_max=[1.0] * 9, a0_max=[1.0])
    stats = deviation_stats(game)
    gamma = np.maximum(np.minimum(0.1 * stats.vbar, 1.0), stats.minmax(True) + 1e-9)
    found = constrained_welfare_search(game, gamma, "sum")
    assert found.value == np.cumsum(found.payoffs)[-1]
    target = optimize_welfare(stats, gamma, "sum")
    assert target.value == np.cumsum(target.v)[-1]


@pytest.mark.parametrize("gamma", [np.nan, [3.0, np.nan, 3.0, 3.0], np.full(3, 3.0),
                                   np.full(5, 3.0), np.full((1, 4), 3.0)])
def test_one_shot_rejects_nan_or_misshapen_floors(gamma):
    """A NaN floor is not an unreachable one, and a floor vector of the
    wrong length is not broadcast: both raise a ValueError naming gamma."""
    with pytest.raises(ValueError, match="gamma"):
        constrained_welfare_search(fig_game(), gamma, "sum")


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
    grid at once, each cell reduced over the user axis row by row (the sum
    in index order, as ``np.cumsum`` adds), and the first grid index wins
    among the best rows."""
    axes = [np.unique(np.concatenate([np.arange(0.0, am, step), [am]])) for am in game.a_max]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, game.n)
    U = game.payoff_batch(game.null_intervention(), grid)
    seeds = []
    for gamma, kind in cells:
        margin = np.min(U - gamma, axis=-1)
        ok = margin >= -1e-9
        val = np.where(ok, np.cumsum(U, axis=-1)[:, -1] if kind == "sum" else U.min(axis=-1),
                       margin)
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
    # mu inside BOX_TOL below sum(a_max): at the all-max profile the load
    # rounds past mu, and the capacity is floored at 0 there
    "packet-short": PacketDropGame(mu=3.02 - 5e-10, beta=[1.0, 2.0, 2.5], a_max=[1.02, 1.0, 1.0]),
    # numpy takes a square root for an exponent of 0.5 it sees as one value,
    # and squares for 2.0, rounding otherwise than pow
    "flow-root": FlowControlGame(mu=2.9, beta=[0.5, 2.0, 0.5], a_max=[1.0, 0.9, 1.0], a0_max=[0.5]),
}


def _grid_axes(game, step=0.05):
    return [np.unique(np.concatenate([np.arange(0.0, am, step), [am]])) for am in game.a_max]


def _slab_payoffs(game, axes, x):
    """``payoff_batch`` on the row-major slab of first action ``x``: the
    other actions in ``np.meshgrid(..., indexing="ij")`` order."""
    rest = np.stack(np.meshgrid(*axes[1:], indexing="ij"), axis=-1).reshape(-1, game.n - 1)
    return game.payoff_batch(game.null_intervention(),
                             np.column_stack([np.full(len(rest), x), rest]))


@pytest.mark.parametrize("name", sorted(GRID_GAMES))
def test_grid_pass_matches_row_major_rule(name):
    """The grid pass picks the very profiles of the row-major rule, for
    both welfare kinds against per-user floors and against four levels
    shared by all users in one call: the feasible sets of the levels nest,
    the grid's maxmin value is met by no slab before the one holding it,
    and the last level is met by no profile (rows then rank by margin, and
    at 1e15 row minima up to 0.125 apart round to one margin)."""
    game = GRID_GAMES[name]
    axes = _grid_axes(game)
    tops = [np.min(_slab_payoffs(game, axes, x), axis=-1).max() for x in axes[0]]
    late = max(tops)
    assert tops[0] < late - 1e-9 and np.argmax(tops) > 0
    u_mid = game.payoff(game.null_intervention(), game.a_max / 2)
    out_of_reach = np.zeros(game.n)
    out_of_reach[-1] = 1e6
    levels = (0.5 * np.min(u_mid), 0.9 * late, late, 1e15)
    floors = [np.full(game.n, g) for g in levels] + [u_mid * np.linspace(0.2, 1.0, game.n),
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
    game.grid_blocks = lambda axes: pytest.fail("grid built past the cap")
    assert xp._grid_pass(game, [(np.zeros(n), "sum")]) is None


@pytest.mark.parametrize("name", ["flow-9", "packet-9"])
def test_grid_pass_of_9_user_queue_games_takes_the_factorised_route(name, monkeypatch):
    """From 8 users too, the queue games' factorised blocks add the load in
    index order, as their payoffs do: the grid pass never takes the
    ``payoff_batch`` scorer of ``StageGame.grid_blocks``, and it still
    picks the row-major rule's profiles."""
    monkeypatch.setattr(StageGame, "grid_blocks",
                        lambda self, axes: pytest.fail("row-major grid route taken"))
    test_grid_pass_matches_row_major_rule(name)


def _cell_floors(gamma, kind, R):
    """One cell's floors and maxmin mask for each of R profiles."""
    return np.broadcast_to(np.asarray(gamma)[:, None], (len(gamma), R)), np.full(R, kind == "maxmin")


def test_score_of_user_major_blocks_is_the_row_major_rule():
    """Scoring a user-major block gives the row-major rule's ``val`` bit
    for bit: the sum in index order (``np.cumsum``'s, for every n) or the
    row minimum where feasible, the margin elsewhere, and ``val >= 0``
    exactly where the rule is feasible."""
    rng = np.random.default_rng(5)
    for n in range(1, 12):
        U = rng.uniform(0.0, 10.0, (400, n)) * 10.0 ** rng.integers(-6, 7, (400, n))
        for gamma in (np.full(n, -1.0), np.full(n, 1e3), rng.uniform(0.0, 50.0, n)):
            want_margin = np.min(U - gamma, axis=-1)
            for kind in ("sum", "maxmin"):
                want = np.where(want_margin >= -1e-9, np.cumsum(U, axis=-1)[:, -1]
                                if kind == "sum" else U.min(axis=-1), want_margin)
                for UT in (np.ascontiguousarray(U.T), U.T):
                    val = xp._score(UT, *_cell_floors(gamma, kind, len(U)))
                    assert val.tobytes() == want.tobytes(), (n, kind)
                    assert np.array_equal(val >= 0.0, want_margin >= -1e-9), (n, kind)


@pytest.mark.parametrize("name", sorted(GRID_GAMES))
def test_grid_payoffs_match_payoff_batch(name):
    """The grid scorer, factorised or not, gives bit for bit the rows of
    ``payoff_batch`` on any run of the row-major grid, transposed: the
    whole grid, each block, runs across blocks and an empty run; a run
    scored earlier stays valid."""
    game = GRID_GAMES[name]
    axes = _grid_axes(game)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, game.n)
    U = game.payoff_batch(game.null_intervention(), grid)
    T = len(grid) // (len(axes[0]) * len(axes[1]))
    _, score = game.grid_blocks(axes)
    rng = np.random.default_rng(3)
    cuts = np.sort(rng.choice(len(grid), 8, replace=False))
    runs = [(0, len(grid)), (len(grid) - 1, len(grid)), (5, 5)] + list(zip(cuts[::2], cuts[1::2]))
    runs += [(b * T, b * T + T) for b in range(len(grid) // T)]
    scored = [score(lo, hi) for lo, hi in runs]
    for (lo, hi), UT in zip(runs, scored):
        assert UT.shape == (game.n, hi - lo) and UT.tobytes() == U[lo:hi].T.tobytes(), (lo, hi)


def test_grid_payoffs_match_payoff_batch_on_fig_flow():
    """fig_flow's first, middle and last block, and a run across the
    middle two, scored as ``payoff_batch`` scores them."""
    game = fig_game()
    axes, head, tail = _block_grid(game)
    _, score = game.grid_blocks(axes)
    T, mid = len(tail), len(head) // 2
    checked = {}
    for lo, hi in ((0, T), (mid * T, mid * T + T), (len(head) * T - T, len(head) * T),
                   (mid * T - 100, mid * T + 100)):
        first = head[np.arange(lo, hi) // T]
        U = game.payoff_batch(game.null_intervention(), np.column_stack([first, tail[np.arange(lo, hi) % T]]))
        checked[lo] = score(lo, hi).tobytes() == U.T.tobytes()
    assert checked == dict.fromkeys(checked, True)


def _row_major_cells(game):
    """The cells of :func:`test_grid_pass_matches_row_major_rule`: four
    levels shared by all users (the last met by no profile), then two floor
    vectors, each for sum and for maxmin."""
    axes = _grid_axes(game)
    late = max(np.min(_slab_payoffs(game, axes, x), axis=-1).max() for x in axes[0])
    u_mid = game.payoff(game.null_intervention(), game.a_max / 2)
    out_of_reach = np.zeros(game.n)
    out_of_reach[-1] = 1e6
    floors = [np.full(game.n, g) for g in (0.5 * np.min(u_mid), 0.9 * late, late, 1e15)]
    floors += [u_mid * np.linspace(0.2, 1.0, game.n), out_of_reach]
    return [(gamma, kind) for gamma in floors for kind in ("sum", "maxmin")]


def _counted(game, monkeypatch, unbounded=False):
    """Wrap ``game``'s grid blocks to count what the pass asks for: the
    ``bounds`` calls, the profiles scored and the profiles whose payoffs
    it sums in index order; with ``unbounded`` every bound is +inf."""
    blocks, seen = game.grid_blocks, {"bounds": 0, "scored": 0, "summed": 0}

    def grid_blocks(axes):
        bounds, score = blocks(axes)

        def counted_bounds(levels):
            seen["bounds"] += 1
            top, sums = bounds(levels)
            return (np.full_like(top, np.inf), np.full_like(sums, np.inf)) if unbounded else (top, sums)

        def counted_score(lo, hi):
            seen["scored"] += hi - lo
            return score(lo, hi)
        return counted_bounds, counted_score

    def user_sum(x, user_sum=xp._user_sum):
        seen["summed"] += x.shape[0]
        return user_sum(x)
    monkeypatch.setattr(game, "grid_blocks", grid_blocks)
    monkeypatch.setattr(xp, "_user_sum", user_sum)
    return seen


@pytest.mark.parametrize("name", sorted(GRID_GAMES))
def test_grid_pass_in_blocks_matches_row_major_rule(name, monkeypatch):
    """In chunks of 64 profiles, so that no grid is one chunk, the row-major
    rule's picks hold on every route: the shared levels and the floor
    vectors take the queue games' bounded blocks (and the power game's
    +inf bounds every chunk), each pass asking the bounds once; ties and
    unmet levels too."""
    monkeypatch.setattr(xp, "_CHUNK", 64)
    game = GRID_GAMES[name]
    cells = _row_major_cells(game)
    want = _row_major_seeds(game, cells, 0.05)
    seen = _counted(game, monkeypatch)
    for part in (slice(0, 8), slice(8, None)):
        got = xp._grid_pass(game, cells[part])
        for (gamma, kind), g, w in zip(cells[part], got, want[part]):
            assert np.array_equal(g, w), (gamma, kind, g, w)
    assert seen["bounds"] == 2


def _block_grid(game):
    """The grid axes, the blocks' first two actions ``(B, 2)`` and the other
    actions ``(T, n - 2)``, both in ``np.meshgrid(..., indexing="ij")`` order."""
    axes = _grid_axes(game)
    grids = [np.stack(np.meshgrid(*part, indexing="ij"), axis=-1).reshape(-1, len(part))
             if part else np.zeros((1, 0)) for part in (axes[:2], axes[2:])]
    return axes, grids[0], grids[1]


SCALING_GRID_GAMES = {f"scaling-{n}": FlowControlGame(mu=float(n), beta=[3.0] * n, a_max=[1.0] * n,
                                                      a0_max=[1.0]) for n in range(2, 6)}


@pytest.mark.parametrize("name", sorted(GRID_GAMES) + ["fig_flow"] + sorted(SCALING_GRID_GAMES))
def test_grid_ceilings_bound_the_in_order_sums(name):
    """The block bounds hold at every profile of the grid, with
    ``payoff_batch`` as the oracle: its row minimum is at most its block's
    ``top``, and at each level its row minimum reaches, its sum in index
    order is at most the block's bound at that level (so a bound of -inf
    means no profile reaches it).  Levels: -1, 0, the quartiles of the
    blocks' largest row minima, their largest, and twice that.  A queue game's ``top`` and its bound at
    level -1 are within 1e-9 of the block's largest row minimum and sum,
    relative and of the grid's largest; the power game's are +inf."""
    game = GRID_GAMES.get(name) or SCALING_GRID_GAMES.get(name) or fig_game()
    axes, head, tail = _block_grid(game)
    null = game.null_intervention()

    def blocks():
        for first in head:
            prof = np.column_stack([np.broadcast_to(first, (len(tail), len(first))), tail])
            U = game.payoff_batch(null, prof)
            yield U.min(axis=-1), np.cumsum(U, axis=-1)[:, -1]
    rmax = np.array([rowmin.max() for rowmin, _ in blocks()])
    levels = [-1.0, 0.0, *np.quantile(rmax, [0.25, 0.5, 0.75]), rmax.max(), 2 * rmax.max()]
    top, sums = game.grid_blocks(axes)[0](levels)
    assert top.shape == (len(head),) and sums.shape == (len(levels), len(head))
    most = np.array([[total[rowmin >= h].max(initial=-np.inf) for h in levels]
                     for rowmin, total in blocks()]).T
    assert np.all(rmax <= top)
    assert np.all(most <= sums)
    if game.kind == "power":
        assert np.all(top == np.inf) and np.all(sums == np.inf)
    else:
        assert np.all(top <= rmax * (1 + 1e-9) + 1e-9 * rmax.max())
        assert np.all(sums[0] <= most[0] * (1 + 1e-9) + 1e-9 * most[0].max())


def test_grid_pass_with_a_zero_ceiling_misses_a_row_major_pick(monkeypatch):
    """The block bounds are live: with every bound 0 the pass stops after
    the first block a cell visits, and then disagrees with the row-major
    rule on some cell."""
    monkeypatch.setattr(xp, "_CHUNK", 64)
    game = GRID_GAMES["flow-3"]
    blocks = game.grid_blocks

    def zero(axes):
        bounds, score = blocks(axes)
        return lambda levels: tuple(np.zeros_like(a) for a in bounds(levels)), score
    monkeypatch.setattr(game, "grid_blocks", zero)
    cells = [(np.full(game.n, g), "sum") for g in (0.0, 0.01)]
    got = xp._grid_pass(game, cells)
    want = _row_major_seeds(game, cells, 0.05)
    assert any(not np.array_equal(g, w) for g, w in zip(got, want))


def test_grid_pass_on_fig_flow_sums_few_columns_exactly(monkeypatch):
    """On fig_flow's 8 ``table2`` cells the bounded pass scores at most 100
    of the grid's 2,601 blocks and adds the payoffs of at most 200,000 of
    its 6,765,201 profiles, cell by cell, and it picks what a pass whose
    bounds are all +inf picks, which sums every profile once per cell."""
    game = fig_game()
    cells = [(np.full(game.n, g), kind) for kind in ("sum", "maxmin") for g in (1.0, 3.0, 7.0, 14.0)]
    seen = _counted(game, monkeypatch)
    got = xp._grid_pass(game, cells)
    assert seen["scored"] % 2601 == 0 and seen["scored"] // 2601 <= 100, seen
    assert seen["summed"] <= 200_000, seen
    seen = _counted(game, monkeypatch, unbounded=True)
    want = xp._grid_pass(game, cells)
    assert seen["scored"] == 6_765_201 and seen["summed"] == 8 * 6_765_201, seen
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_grid_pass_bounds_floor_vectors_at_their_least_floor(monkeypatch):
    """Floor vectors take the bounded visit, bounded at their least floor:
    on fig_flow the vectors (1, 1, 3, 3) and (0.5, 2, 4, 8) score fewer
    than 100 of the 2,601 blocks for sum and maxmin, and (3, 3, 3, inf),
    which no profile meets, asks the bounds too; each picks what the pass
    whose bounds are all +inf picks."""
    for gamma in ([1.0, 1.0, 3.0, 3.0], [0.5, 2.0, 4.0, 8.0], [3.0, 3.0, 3.0, np.inf]):
        cells = [(np.array(gamma), kind) for kind in ("sum", "maxmin")]
        picks = []
        for unbounded in (False, True):
            game = fig_game()
            seen = _counted(game, monkeypatch, unbounded)
            picks.append(xp._grid_pass(game, cells))
            assert seen["bounds"] == 1, (gamma, seen)
            if not unbounded and np.isfinite(gamma).all():
                assert seen["scored"] // 2601 < 100, (gamma, seen)
        for g, w in zip(*picks):
            assert np.array_equal(g, w), (gamma, g, w)


@pytest.mark.parametrize("name", ["fig_flow", "scaling-4", "scaling-5"])
def test_grid_pass_picks_what_an_unbounded_pass_picks(name, monkeypatch):
    """The bounded pass picks what the pass with every bound +inf picks, on
    grids past one chunk: levels shared by all users (fig_flow's ``table2``
    levels or the scaling floor, a level just past the grid's best row
    minimum and 1e15, which no profile meets) and floor vectors, each for
    sum and for maxmin."""
    game = SCALING_GRID_GAMES.get(name) or fig_game()
    stats = deviation_stats(game)
    floor = float(np.max(np.minimum(0.1 * stats.vbar, game.mu / game.n)))
    levels = (1.0, 3.0, 7.0, 14.0) if name == "fig_flow" else (floor, 2.0 * floor)
    seeds = xp._grid_pass(game, [(np.zeros(game.n), "maxmin")])
    best = float(np.min(game.payoff(game.null_intervention(), seeds[0])))
    floors = [np.full(game.n, g) for g in levels + (best * (1 + 1e-6), 1e15)]
    floors += [np.linspace(0.5, 1.0, game.n) * floor, np.linspace(1.0, 0.0, game.n) * 1e15]
    cells = [(gamma, kind) for gamma in floors for kind in ("sum", "maxmin")]
    seen = _counted(game, monkeypatch)
    got = xp._grid_pass(game, cells[:-4]) + xp._grid_pass(game, cells[-4:])
    assert seen["bounds"] == 2
    _counted(game, monkeypatch, unbounded=True)
    want = xp._grid_pass(game, cells[:-4]) + xp._grid_pass(game, cells[-4:])
    for (gamma, kind), g, w in zip(cells, got, want):
        assert np.array_equal(g, w), (gamma, kind, g, w)


def test_grid_pass_memory_on_a_power_game_is_a_few_chunks():
    """A grid whose bounds are +inf is scored in chunks of ``2**15``
    profiles: on a 4-user power game of 6,765,201 profiles, one warm pass
    of its sum and maxmin cells at level 0.1 peaks under 10 MB in
    ``tracemalloc`` (a pass over first-action slabs took 33.4 MB)."""
    game = PowerControlGame(gain=np.full((4, 4), 0.1) + 0.9 * np.eye(4), intervention_gain=np.ones(4),
                            noise=np.full(4, 0.1), a_max=np.full(4, 2.5), a0_max=[1.0])
    cells = [(np.full(4, 0.1), kind) for kind in ("sum", "maxmin")]
    xp._grid_pass(_power_game(4), cells)   # warm, on a grid of a few chunks
    tracemalloc.start()
    try:
        seeds = xp._grid_pass(game, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak / 2**20
    assert len(seeds) == 2 and all(s.shape == (4,) for s in seeds)


@pytest.mark.parametrize("name", sorted(GRID_GAMES))
def test_line_payoffs_match_payoff_batch(name):
    """Each block of an ascent pass's line payoffs, factorised or not, is
    ``payoff_batch`` on that step's ``(S, 33, n)`` profiles, moved to
    user-major, bit for bit and C-contiguous, at every coordinate: the
    coordinates before it hold the moves written after their blocks, the
    ones after it their pass-start values."""
    game = GRID_GAMES[name]
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 1.0, (6, game.n)) * game.a_max
    x[-2], x[-1] = game.a_max, 0.0   # the saturated corner and the all-zero profile
    half = 0.35 * game.a_max
    lines = np.linspace(np.maximum(0.0, x - half), np.minimum(game.a_max, x + half), 33, axis=1)
    null = game.null_intervention()
    prof = np.repeat(x[:, None, :], 33, axis=1)
    steps = 0
    for i, block in enumerate(game.line_payoffs(x, lines)):
        prof[:, :, i] = lines[:, :, i]
        want = np.moveaxis(game.payoff_batch(null, prof), -1, 0)
        assert block.flags.c_contiguous and block.shape == want.shape, i
        assert block.tobytes() == want.tobytes(), i
        x[::2, i] = lines[::2, rng.integers(0, 33), i]   # a move for every other start
        prof[:, :, i] = x[:, i, None]
        steps += 1
    assert steps == game.n


def _ascend_one(game, start, gamma, kind, passes=50, points=33):
    """Coordinate ascent from one start, written out line by line: each
    coordinate step scores a ``points``-point line by the row-major rule
    and moves on an improvement of more than 1e-13.  Returns ``(ok, val,
    profile, passes run)``."""
    null = game.null_intervention()

    def best(U):
        margin = np.min(U - gamma, axis=-1)
        ok = margin >= -1e-9
        total = np.cumsum(U, axis=-1)[..., -1]   # users added in index order
        val = np.where(ok, total if kind == "sum" else U.min(axis=-1), margin)
        idx = np.flatnonzero(ok)
        j = int(idx[np.argmax(val[idx])] if idx.size else np.argmax(val))
        return j, (bool(ok[j]), float(val[j]))

    a = np.clip(np.asarray(start, dtype=float), 0.0, game.a_max)
    _, cur = best(game.payoff_batch(null, a)[None, :])
    ran = 0
    for p in range(passes):
        frac = 0.5 * 0.7 ** p
        for i in range(game.n):
            half = frac * float(game.a_max[i])
            cand = np.linspace(max(0.0, a[i] - half), min(float(game.a_max[i]), a[i] + half), points)
            prof = np.repeat(a[None, :], points, axis=0)
            prof[:, i] = cand
            j, key = best(game.payoff_batch(null, prof))
            if key > (cur[0], cur[1] + 1e-13):
                a[i], cur = cand[j], key
        ran += 1
    return cur[0], cur[1], a, ran


ASCENT_GAMES = {
    **{name: GRID_GAMES[name] for name in ("flow-2", "flow-3", "power-3", "packet-3")},
    "flow-9": FlowControlGame(mu=9.5, beta=[1.0, 1.5, 2.0] * 3, a_max=[1.0] * 9, a0_max=[0.5]),
    # the scaling sweep's 10- and 12-user games
    **{f"scaling-{n}": FlowControlGame(mu=float(n), beta=[3.0] * n, a_max=[1.0] * n, a0_max=[1.0])
       for n in (10, 12)},
    "packet-short": GRID_GAMES["packet-short"],
    # boxes this small make the window fall below 1e-10 before the last
    # pass, and with so little noise a start still moves there
    "power-tiny": PowerControlGame(gain=np.full((3, 3), 0.25) + 0.75 * np.eye(3),
                                   intervention_gain=np.ones(3), noise=np.full(3, 1e-7),
                                   a_max=[2e-3, 1e-3, 3e-3], a0_max=[1e-3]),
}


@pytest.mark.parametrize("name", sorted(ASCENT_GAMES))
def test_stacked_ascent_matches_single_start_ascents(name):
    """Starts climbing in lockstep end exactly where each would end alone,
    every one after all 50 passes, the tiny boxes too."""
    game = ASCENT_GAMES[name]
    rng = np.random.default_rng(7)
    u_mid = game.payoff(game.null_intervention(), game.a_max / 2)
    out_of_reach = np.zeros(game.n)
    out_of_reach[-1] = 1e6
    starts = rng.uniform(-0.1, 1.1, size=(4, game.n)) * game.a_max
    ran = set()
    for gamma in (np.zeros(game.n), u_mid * np.linspace(0.2, 1.0, game.n), out_of_reach):
        for kind in ("sum", "maxmin"):
            val, profiles = xp._ascend(game, starts, gamma, kind)
            ok = val >= 0.0
            for s, start in enumerate(starts):
                want_ok, want_val, want_a, passes = _ascend_one(game, start, gamma, kind)
                assert ok[s] == want_ok and val[s] == want_val, (gamma, kind, s)
                assert np.array_equal(profiles[s], want_a), (gamma, kind, s)
                ran.add(passes)
    assert ran == {50}


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
    val, profiles = xp._ascend(game, np.concatenate(seeds),
                               np.repeat([gamma for gamma, _ in cells], 2, axis=0),
                               np.repeat([kind for _, kind in cells], 2))
    for c, (gamma, kind) in enumerate(cells):
        want_val, want_a = xp._ascend(game, seeds[c], gamma, kind)
        rows = slice(2 * c, 2 * c + 2)
        assert np.array_equal(val[rows], want_val), (c, kind)
        assert np.array_equal(profiles[rows], want_a), (c, kind)
    for (gamma, kind), seed, got in zip(cells, seeds, xp._search(game, cells, seeds)):
        want = xp._search(game, [(gamma, kind)], [seed])[0]
        assert (got is None) == (want is None), (gamma, kind)
        if got is not None:
            assert got.value == want.value and np.array_equal(got.profile, want.profile)


def test_score_of_per_profile_floors_is_each_cells_rule():
    """Scoring profiles against per-profile floors and welfare kinds gives,
    profile by profile, the ``val`` of scoring them against their own cell
    alone."""
    rng = np.random.default_rng(13)
    for n in (1, 3, 7, 8, 11):
        U = rng.uniform(0.0, 10.0, (60, n)) * 10.0 ** rng.integers(-6, 7, (60, n))
        cells = [(gamma, kind) for gamma in (np.full(n, 0.5), np.full(n, 1e3),
                                             rng.uniform(0.0, 5.0, n)) for kind in ("sum", "maxmin")]
        owner = rng.integers(0, len(cells), len(U))
        got = xp._score(U.T, np.array([cells[c][0] for c in owner]).T,
                        np.array([cells[c][1] == "maxmin" for c in owner]))
        for c, (gamma, kind) in enumerate(cells):
            rows = owner == c
            want = xp._score(U.T, *_cell_floors(gamma, kind, len(U)))
            assert got[rows].tobytes() == want[rows].tobytes(), (n, c)


@pytest.fixture(scope="module")
def one_shot_record():
    """Every pinned one-shot cell as ``(key, game, gamma, kind, result)``:
    ``table2``'s and those of ``scaling`` n = 2..12 as their experiments
    search them, then the mixed cells of a packet-drop and a power game;
    and the raw ``(val, profiles)`` of the 12-user scaling game's lockstep
    ascent."""
    found, ascents, search, ascend = [], [], xp._search, xp._ascend

    def recorded(game, cells, seeds, *args):
        results = search(game, cells, seeds, *args)
        found.extend((game, gamma, kind, f) for (gamma, kind), f in zip(cells, results))
        return results

    def recorded_ascent(game, *args):
        out = ascend(game, *args)
        if game.n == 12:
            ascents.append(out)
        return out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xp, "_search", recorded)
        mp.setattr(xp, "_ascend", recorded_ascent)
        run_experiment(load_config(CONFIG, "table2"))
        keys = [f"table2 {kind} {float(gamma[0])!r}" for _, gamma, kind, _ in found]
        scaling_sweep((2, 12))
        keys += [f"scaling {game.n} {kind}" for game, _, kind, _ in found[len(keys):]]
    for name in ("packet-3", "power-3"):
        game = ASCENT_GAMES[name]
        for c, (gamma, kind) in enumerate(_mixed_cells(game)):
            found.append((game, gamma, kind, constrained_welfare_search(game, gamma, kind)))
            keys.append(f"{name} {c}")
    (ascent,) = ascents
    return [(key,) + cell for key, cell in zip(keys, found)], ascent


def _digest(a):
    """The dtype, shape and sha256 of an array's bytes (C order)."""
    return f"{a.dtype.str}{list(a.shape)}:{hashlib.sha256(a.tobytes()).hexdigest()}"


def test_one_shot_results_are_pinned_bit_for_bit(one_shot_record):
    """Every one-shot result of ``table2``, of ``scaling`` n = 2..12 and of
    the packet-drop and power games' mixed cells, and the raw lockstep
    ascent of the 12-user scaling game, reproduce the recorded value repr
    and profile and payoff bytes (``one_shot_digests.json``): a faster
    search must leave every bit where it was.  SLSQP's last bits differ
    between one OpenBLAS thread and several, so the file holds both sets,
    and the results must equal one of them in full; the raw ascent is the
    same in both."""
    cells, (val, profiles) = one_shot_record
    ok = val >= 0.0
    got = {key: None if f is None else {"value": repr(float(f.value)), "profile": _digest(f.profile),
                                        "payoffs": _digest(f.payoffs)}
           for key, _, _, _, f in cells}
    got["ascent scaling 12"] = {"ok": _digest(ok), "val": _digest(val), "profiles": _digest(profiles)}
    assert got in json.loads(ONE_SHOT_DIGESTS.read_text()).values()


def test_polished_one_shot_cells_keep_their_values(one_shot_record):
    """Every one-shot cell of ``table2``, of ``scaling`` n = 2..12 and of a
    packet-drop and a power game polished with closed-form Jacobians keeps
    the value it had when SLSQP differenced the payoffs (recorded in
    ``one_shot_values.json``) within 1e-9 relative, and ``game.payoff``
    confirms its payoffs, its value (the sum added in index order) and its
    floors."""
    cells, _ = one_shot_record
    want = json.loads(ONE_SHOT_VALUES.read_text())
    assert sorted(key for key, *_ in cells) == sorted(want)
    for key, game, gamma, kind, f in cells:
        assert (f is None) == (want[key] is None), key
        if f is not None:
            assert f.value == pytest.approx(want[key], rel=1e-9, abs=0.0), key
            u = game.payoff(game.null_intervention(), f.profile)
            assert np.array_equal(u, f.payoffs), key
            assert f.value == (np.cumsum(u)[-1] if kind == "sum" else np.min(u)), key
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
    assert f"{by_a0[2.5][4]:.6g}" == "0.747113"
    # weak device: too-short punishments are infeasible, marked not dropped
    assert by_a0[0.5][2] is None
    assert f"{by_a0[0.5][4]:.6g}" == "0.882398"
    # more intervention never hurts
    assert by_a0[2.5][10] <= by_a0[0.5][10]


def test_length_curves_evaluate_the_mutual_minmax_once_per_cap(monkeypatch):
    """The mutual minmax profile depends on the device cap alone: one
    evaluation per curve, not one more per punishment length."""
    import repgame.automata as automata
    calls = []

    def counted(game):
        calls.append(float(game.a0_max[0]))
        return mutual_minmax(game)
    monkeypatch.setattr(xp, "mutual_minmax", counted)
    monkeypatch.setattr(automata, "mutual_minmax", counted)
    cfg = load_config(CONFIG, "fig3")
    punishment_length_curves(cfg.game, cfg.a0_values, cfg.L_values, cfg.path)
    assert calls == [float(a0) for a0 in cfg.a0_values]


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
    # minimality: the found cap works, the double below it does not
    cfg = dict(GAME_CFG)
    from repgame.design import delta_bar, deviation_stats, optimize_welfare

    def threshold(a0):
        cfg["a0_max"] = [a0]
        stats = deviation_stats(game_from_config(cfg))
        return delta_bar(stats, optimize_welfare(stats, np.full(4, 14.0), "sum").v)

    assert threshold(req[0.85]) <= 0.85 + 1e-9
    assert threshold(np.nextafter(req[0.85], 0.0)) > 0.85


def test_tradeoff_bisects_each_pair_once(monkeypatch):
    """``a0_vs_delta`` and ``a0_vs_gamma`` print the same (gamma, delta)
    pairs in two orders; a run bisects each distinct pair's cap once."""
    calls, bisect = [], xp._bisect

    def counted(holds, lo, hi):
        calls.append((lo, hi))
        return bisect(holds, lo, hi)
    monkeypatch.setattr(xp, "_bisect", counted)
    cfg = load_config(CONFIG, "tradeoff")
    run_experiment(cfg)
    assert len(calls) == len(set(cfg.gamma)) * len(set(cfg.delta_grid)) == 16
    calls.clear()
    tradeoff_sweep(GAME_CFG, "a0_vs_gamma", (14.0, 7.0, 14.0), (), (0.85, 0.9))
    assert len(calls) == 4


def test_tradeoff_builds_the_deviation_stats_once(monkeypatch):
    """Only the device-aided minmax moves with the cap, so a run builds the
    deviation statistics once and swaps in that minmax per distinct cap."""
    calls, stats = [], xp.deviation_stats

    def counted(game):
        calls.append(game)
        return stats(game)
    monkeypatch.setattr(xp, "deviation_stats", counted)
    run_experiment(load_config(CONFIG, "tradeoff"))
    assert len(calls) == 1
    base = game_from_config(GAME_CFG)
    free = stats(base)
    for a0 in (0.0, 0.7, 2.5):
        capped = stats(base.with_a0_max([a0]))
        for f in fields(capped):
            if f.name != "minmax_with":
                assert np.array_equal(getattr(capped, f.name), getattr(free, f.name)), f.name


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


@pytest.mark.parametrize("kind,experiment,rc", [
    ("packet_drop", "table2", 0), ("packet_drop", "verify", 0),
    ("packet_drop", "fig3", 2), ("packet_drop", "tradeoff", 2),
    ("power", "table2", 0), ("power", "fig3", 0), ("power", "tradeoff", 0), ("power", "verify", 0),
])
def test_cli_csv_of_other_game_kinds_matches_golden(tmp_path, kind, experiment, rc):
    """The packet-drop and power configs write their golden CSVs byte for
    byte; the packet-drop device box is not a scalar cap, so ``fig3`` and
    ``tradeoff`` reject it as a config error and write nothing."""
    out = tmp_path / "res"
    assert main(["--experiment", experiment, "--config", str(ROOT / "configs" / f"{kind}.json"),
                 "--out", str(out)]) == rc
    if rc:
        assert not out.exists()
    else:
        golden = Path(__file__).parent / "data" / f"{kind}_{experiment}_golden.csv"
        assert (out / f"{experiment}.csv").read_bytes() == golden.read_bytes()


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

    p.write_bytes(b"\xff\xfe{")   # not UTF-8: it used to end in a UnicodeDecodeError traceback
    rc = main(["--experiment", "table2", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error: config cannot be read as JSON" in capsys.readouterr().err


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


def test_cli_verify_device_too_weak_for_grim_exits_2(tmp_path, capsys):
    # at a cap of 1.0 the mutual minmax profile is not a stage Nash
    # equilibrium (it is from a cap of about 2.498): a config error, caught
    # before any outcome path is built
    raw = json.loads(CONFIG.read_text())
    raw["game"]["a0_max"] = [1.0]
    raw.update(target_gamma=1.0, delta=0.99)
    p = tmp_path / "weak.json"
    p.write_text(json.dumps(raw))
    rc = main(["--experiment", "verify", "--config", str(p), "--out", str(tmp_path / "res")])
    assert rc == 2
    assert "config error: the mutual minmax profile is not a stage Nash" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_packet_drop_device_box_is_rejected_not_ignored(tmp_path, capsys):
    """The packet-drop device box is the unit box: a config that sets
    ``a0_max`` is refused by the loader and by the command line (exit 2,
    nothing written), not run with the key dropped."""
    raw = json.loads(CONFIG.read_text())
    raw["game"] = {"kind": "packet_drop", "mu": 10.0, "beta": [2.0, 2.0, 3.0, 3.0],
                   "a_max": [2.5] * 4, "a0_max": [0.3]}
    p = tmp_path / "drop_box.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="bad game block: .*a0_max"):
        load_config(p, "table2")
    rc = main(["--experiment", "table2", "--config", str(p), "--out", str(tmp_path / "res")])
    assert rc == 2
    assert "a0_max" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    del raw["game"]["a0_max"]
    p.write_text(json.dumps(raw))
    assert load_config(p, "table2").game["kind"] == "packet_drop"


def test_cli_unusable_out_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    """An ``--out`` under a regular file is refused before the experiment
    runs (it used to end in a ``NotADirectoryError`` traceback, exit 1,
    after the whole run), and nothing is created."""
    monkeypatch.setattr("repgame.cli.run_experiment", lambda config: pytest.fail("experiment ran"))
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "file" / "x", tmp_path / "file"):
        rc = main(["--experiment", "fig3", "--config", str(CONFIG), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: --out") and str(out) in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == ""


def test_cli_write_failure_exits_2(tmp_path, monkeypatch, capsys):
    """An ``OSError`` from writing the CSV (here a directory in its place)
    is an output error, exit 2, not a traceback."""
    table = ResultTable(columns=("x",), rows=[(1.0,)])
    monkeypatch.setattr("repgame.cli.run_experiment", lambda config: table)
    (tmp_path / "fig3.csv").mkdir()
    rc = main(["--experiment", "fig3", "--config", str(CONFIG), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("output error: --out")


def test_cli_internal_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(config):
        raise DecompositionError("path closure failed its accuracy contract")

    monkeypatch.setattr("repgame.cli.run_experiment", boom)
    rc = main(["--experiment", "table2", "--config", str(CONFIG), "--out", str(tmp_path)])
    assert rc == 3
    assert "internal consistency failure" in capsys.readouterr().err
