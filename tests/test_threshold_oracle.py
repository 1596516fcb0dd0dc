"""Every printed ``fig3`` and ``tradeoff`` threshold against a 50-digit oracle.

The oracle imports nothing from repgame.  It restates the flow-control game
``u_i = a_i**b_i * max(0, mu - c - sum(a))`` of ``configs/fig_flow.json`` in
``decimal`` arithmetic, with the closed forms the two experiments rest on:

* a best reply's payoff, hence the solo optima, the cross-deviation payoffs
  ``y`` and ``w`` and the minmax value as a function of the device cap ``c``;
* the ``fig3`` reference path, the smallest rate ``x`` with
  ``x**b (free - m x) >= 1.1 v_solo``;
* the grim bound ``(dev - v)/(dev - p)``, the punishment family
  ``((vlw - p)/(v - p))**(1/L)`` and the root of the path family
  ``delta + ... + delta**L >= (dev - v)/(v - p)``;
* the sum-welfare target on the guarantee region and its threshold
  ``delta_bar``, and the smallest cap whose threshold meets a discount.

Each monotone condition is bisected to a bracket of 1e-40, far below the six
significant digits the CSVs print, and each printed cell must equal
``format(float(oracle), ".6g")``.
"""
import csv
import io
import json
from decimal import Decimal as D
from decimal import localcontext
from pathlib import Path

from repgame.experiments import load_config, run_experiment

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "fig_flow.json"
RAW = json.loads(CONFIG.read_text())


def dec(x) -> D:
    """A config number as the decimal it is written as."""
    return D(repr(float(x)))


def least(holds, lo: D, hi: D):
    """Smallest point of ``[lo, hi]`` where the monotone ``holds`` passes, to
    within 1e-40: None when ``hi`` fails, ``lo`` when it passes."""
    if not holds(hi):
        return None
    if holds(lo):
        return lo
    while hi - lo > D("1e-40"):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


class Flow:
    """The ``fig_flow`` flow-control game in decimals."""

    def __init__(self, game: dict):
        assert game["kind"] == "flow"
        self.mu = dec(game["mu"])
        self.beta = [dec(b) for b in game["beta"]]
        self.a_max = [dec(a) for a in game["a_max"]]
        self.cap = dec(game["a0_max"][0])
        self.n = len(self.beta)

    def payoffs(self, a, c) -> list:
        room = max(self.mu - c - sum(a), D(0))
        return [x ** b * room for x, b in zip(a, self.beta)]

    def reply(self, i: int, rest, c) -> D:
        """User ``i``'s best payoff against a load ``rest`` of the others and
        a device taking ``c``: the rate ``b/(b+1)`` of the free capacity, capped."""
        free = self.mu - c - rest
        if free <= 0:
            return D(0)
        b = self.beta[i]
        x = min(b / (b + 1) * free, self.a_max[i])
        return x ** b * (free - x)

    def replies(self, a, c) -> list:
        return [self.reply(i, sum(a) - a[i], c) for i in range(self.n)]

    # -- fig3 ------------------------------------------------------------

    def reference_path(self) -> list:
        """The top-elasticity users at their caps; the others at the smallest
        common rate clearing 1.1 times their no-device minmax value."""
        top = max(self.beta)
        low = [i for i in range(self.n) if self.beta[i] < top]
        b, cap = self.beta[low[0]], self.a_max[low[0]]
        assert all(self.beta[i] == b and self.a_max[i] == cap for i in low)
        m = len(low)
        free = self.mu - sum(self.a_max[i] for i in range(self.n) if i not in low)
        want = D("1.1") * self.replies(self.a_max, D(0))[low[0]]
        peak = min(b * free / (m * (b + 1)), cap)
        x = least(lambda x: x ** b * (free - m * x) >= want, D(0), peak)
        return [x if i in low else self.a_max[i] for i in range(self.n)]

    def min_delta(self, c, L: int):
        """The smallest discount enforcing the reference path with the
        device cap ``c``: grim when the all-max profile is a stage Nash
        point (the device leaves no capacity), else ``L`` punishment periods."""
        path = self.reference_path()
        v = self.payoffs(path, D(0))
        dev = self.replies(path, D(0))
        p = self.payoffs(self.a_max, c)
        vlw = self.replies(self.a_max, c)
        if all(q <= pp for q, pp in zip(vlw, p)):
            return max((d - x) / (d - pp) for d, x, pp in zip(dev, v, p))
        bounds = []
        for d, x, pp, q in zip(dev, v, p, vlw):
            ratio = (d - x) / (x - pp)
            root = least(lambda t: sum(t ** k for k in range(1, L + 1)) >= ratio, D(0), D(1))
            bounds.append(None if root is None or root >= 1 else root)
            bounds.append(D(0) if q <= pp else ((q - pp) / (x - pp)) ** (D(1) / L))
        return None if None in bounds or max(bounds) >= 1 else max(bounds)

    # -- tradeoff --------------------------------------------------------

    def threshold(self, c, g):
        """``delta_bar`` of the sum-welfare target with floors ``g`` and the
        device cap ``c``; None when the guarantee region is empty."""
        n, zero = self.n, [D(0)] * self.n
        solo = [min(b / (b + 1) * self.mu, a) for b, a in zip(self.beta, self.a_max)]
        vbar = self.replies(zero, D(0))
        # y[i][j]: user j's best payoff while user i plays its solo rate
        y = [self.replies([solo[i] if k == i else D(0) for k in range(n)], D(0))
             for i in range(n)]
        w = [max(y[i][j] for i in range(n) if i != j) for j in range(n)]
        vlow = self.replies(self.a_max, c)
        floors = [max(g, m) for m in vlow]
        if any(g > vb for vb in vbar) or sum(f / vb for f, vb in zip(floors, vbar)) >= 1:
            return None
        k = vbar.index(max(vbar))
        v = list(floors)
        v[k] = vbar[k] * (1 - sum(floors[j] / vbar[j] for j in range(n) if j != k))
        first = max((wj - vj) / (wj - mj) for wj, vj, mj in zip(w, v, vlow))
        t_ratio = sum(wj / vb for wj, vb in zip(w, vbar))
        s_ratio = sum(m / vb for m, vb in zip(vlow, vbar))
        a = n - t_ratio
        root = a + (a * a + 4 * (n - 1) * (t_ratio - s_ratio)).sqrt()
        return min(max(first, 2 * (n - 1) / root, D(0)), D(1))

    def required_cap(self, g, d):
        """The smallest cap whose threshold is at most ``d``."""
        def meets(c):
            t = self.threshold(c, g)
            return t is not None and t <= d
        return least(meets, D(0), self.cap)


def printed(experiment: str) -> list:
    """The CSV rows the command line writes for ``experiment``, header first."""
    text = run_experiment(load_config(CONFIG, experiment)).to_csv_text()
    return list(csv.reader(io.StringIO(text.split("\n", 1)[1])))


def cell(x) -> str:
    """A value as the CSVs print it: the nearest double to six significant digits."""
    return "NA" if x is None else format(float(x), ".6g")


def test_oracle_reference_path_clears_its_margin():
    """The oracle's own reference path: the impatient users sit just at
    1.1 times their no-device minmax value, the others at their caps."""
    with localcontext() as ctx:
        ctx.prec = 50
        game = Flow(RAW["game"])
        path = game.reference_path()
        u = game.payoffs(path, D(0))
        solo = game.replies(game.a_max, D(0))
        assert path[2:] == game.a_max[2:]
        assert abs(u[0] / solo[0] - D("1.1")) < D("1e-35")
        assert cell(path[0]) == "0.888972"


def test_fig3_matches_the_oracle():
    rows = printed("fig3")
    assert rows[0] == ["a0_max", "L", "min_delta"]
    grid = [(a0, L) for a0 in RAW["a0"] for L in RAW["L"]]
    assert len(rows) == 1 + len(grid) == 37
    with localcontext() as ctx:
        ctx.prec = 50
        base = Flow(RAW["game"])
        for row, (a0, L) in zip(rows[1:], grid):
            assert row[:2] == [format(a0, ".6g"), str(L)], row
            assert row[2] == cell(base.min_delta(dec(a0), L)), row


def test_tradeoff_matches_the_oracle():
    rows = printed("tradeoff")
    assert rows[0] == ["axis", "gamma", "delta", "a0_max", "min_delta", "required_a0"]
    gammas, deltas = RAW["gamma"], RAW["delta_grid"]
    want = ([("delta_vs_gamma", g, None, a0) for a0 in RAW["a0"] for g in gammas]
            + [("a0_vs_delta", g, d, None) for g in gammas for d in deltas]
            + [("a0_vs_gamma", g, d, None) for d in deltas for g in gammas])
    assert len(rows) == 1 + len(want) == 49
    with localcontext() as ctx:
        ctx.prec = 50
        game = Flow(RAW["game"])
        for row, (axis, g, d, a0) in zip(rows[1:], want):
            assert row[:4] == [axis, format(g, ".6g"), cell(d), cell(a0)], row
            if a0 is not None:
                assert row[4:] == [cell(game.threshold(dec(a0), dec(g))), "NA"], row
            else:
                assert row[4:] == ["NA", cell(game.required_cap(dec(g), dec(d)))], row
