"""Tests of the benchmark's output checks (``python3 -m pytest bench``).

Two things are shown: the oracles reproduce hand certificates and the
symmetric closed forms, and each check rejects an output moved just past
its tolerance while accepting the unmoved one.
"""
import numpy as np
import pytest

import checks as c

FLOW = {"kind": "flow", "mu": 10.0, "beta": [2.0, 2.0, 3.0, 3.0], "a_max": [2.5] * 4,
        "a0_max": [2.5]}
MU, BETA, AMAX = 10.0, np.array([2.0, 2.0, 3.0, 3.0]), np.full(4, 2.5)


def flow_payoffs(a):
    a = np.asarray(a, dtype=float)
    return a ** BETA * (MU - np.sum(a))


# ---------------------------------------------------------------------------
# oracles against hand certificates and closed forms
# ---------------------------------------------------------------------------

def test_one_shot_sum_certificate():
    # (0.5, 0.5, 2.5, 2.5) is feasible at gamma = 1 and gives 127.0
    assert np.sum(flow_payoffs([0.5, 0.5, 2.5, 2.5])) == pytest.approx(127.0, abs=1e-9)
    assert c.one_shot_sum(MU, BETA, AMAX, np.ones(4)) == pytest.approx(127.0, rel=1e-9)


def test_one_shot_maxmin_certificate():
    certificate = float(np.min(flow_payoffs([1.9472, 1.9472, 1.5594, 1.5594])))
    best = c.one_shot_maxmin(MU, BETA, AMAX, np.ones(4))
    assert certificate <= best <= certificate + 1e-3
    assert f"{best:.6g}" == "11.3252"
    assert c.one_shot_maxmin(MU, BETA, AMAX, np.full(4, 14.0)) is None


def test_flow_nash_closed_form():
    u = c.flow_nash_payoffs(MU, BETA, AMAX)
    # beta_i F would put users 3 and 4 past their cap, so a = (2F, 2F, 2.5, 2.5)
    # and F + 4F + 5 = 10: F = 1
    assert u == pytest.approx(np.array([2.0, 2.0, 2.5, 2.5]) ** BETA, rel=1e-12)
    assert np.sum(u) == pytest.approx(39.25, rel=1e-12)


@pytest.mark.parametrize("n, mu", [(3, 3.0), (4, 4.0), (3, 2.6)])
def test_symmetric_forms_match_enumeration(n, mu):
    beta, cap = np.full(n, 3.0), np.ones(n)
    for gamma in (0.01, 0.05, 0.2):
        full = c.one_shot_sum(mu, beta, cap, np.full(n, gamma))
        counts = c.symmetric_one_shot_sum(mu, 3.0, 1.0, n, gamma)
        assert (full is None) == (counts is None)
        if full is not None:
            assert counts == pytest.approx(full, rel=1e-9)
        full = c.one_shot_maxmin(mu, beta, cap, np.full(n, gamma))
        closed = c.symmetric_one_shot_maxmin(mu, 3.0, 1.0, n, gamma)
        assert (full is None) == (closed is None)
        if full is not None:
            assert closed == pytest.approx(full, rel=1e-7)
    u = c.flow_nash_payoffs(mu, beta, cap)
    a = min(3.0 * mu / (1.0 + 3.0 * n), 1.0)
    assert u == pytest.approx(np.full(n, a ** 3 * (mu - n * a)), rel=1e-12)


def test_symmetric_simplex_optimum():
    vbar, floors = np.full(5, 9.0), np.full(5, 0.9)
    assert c.simplex_optimum(vbar, floors, "sum") == pytest.approx(9.0, rel=1e-9)
    assert c.simplex_optimum(vbar, floors, "maxmin") == pytest.approx(9.0 / 5, rel=1e-9)
    # floors that fill the simplex leave no room for a path
    assert c.simplex_optimum(np.full(10, 9.0), np.full(10, 0.9), "sum") is None


def test_closed_forms_of_the_reference_game():
    assert c.solo_values(FLOW) == pytest.approx([46.875, 46.875, 117.1875, 117.1875])
    assert c.minmax_values(FLOW, True) == pytest.approx(np.zeros(4))
    # without the device: free capacity 2.5, rates min(beta/(1+beta) 2.5, 2.5)
    a = BETA / (1 + BETA) * 2.5
    assert c.minmax_values(FLOW, False) == pytest.approx(a ** BETA * (2.5 - a))
    packet = {"kind": "packet_drop", "mu": 10.0, "beta": BETA.tolist(), "a_max": AMAX.tolist()}
    assert c.solo_values(packet) == pytest.approx(c.solo_values(FLOW))
    assert c.minmax_values(packet, True) == pytest.approx(np.zeros(4))
    power = {"kind": "power", "gain": [[1.0, 0.5], [0.25, 2.0]], "intervention_gain": [1.0, 2.0],
             "noise": [0.1, 0.2], "a_max": [1.0, 2.0], "a0_max": [3.0]}
    assert c.solo_values(power) == pytest.approx(np.log2([1 + 1 / 0.1, 1 + 4 / 0.2]))
    assert c.minmax_values(power, True) == pytest.approx(
        np.log2([1 + 1 / (0.1 + 3 + 1), 1 + 4 / (0.2 + 6 + 0.25)]))


# ---------------------------------------------------------------------------
# each check rejects a moved output
# ---------------------------------------------------------------------------

def _csv(columns, cells):
    lines = ["# test", ",".join(columns)]
    for key, (value, delta) in cells.items():
        lines.append(",".join([*map(str, key), value, delta]))
    return "\n".join(lines) + "\n"


def _fmt(x):
    return "NA" if x is None else f"{x:.6g}"


@pytest.fixture(scope="module")
def table2():
    expected = c.table2_expected(FLOW, (1.0, 3.0, 7.0, 14.0))
    thresholds = {"repeated_no_intervention": "0.95", "repeated_with_intervention": "0.9"}
    cells = {}
    for (scheme, g, kind), ref in expected.items():
        delta = thresholds.get(scheme, "NA") if ref is not None else "NA"
        cells[(scheme, g, kind)] = (_fmt(ref), delta)
    return expected, cells


COLUMNS = ("scheme", "gamma", "welfare_kind", "value", "min_delta")


def test_table2_check_accepts_and_rejects(table2):
    expected, cells = table2
    c.check_table2_csv(_csv(COLUMNS, cells), expected)

    def rejects(key, value=None, delta=None):
        moved = dict(cells)
        old = moved[key]
        moved[key] = (old[0] if value is None else value, old[1] if delta is None else delta)
        with pytest.raises(c.CheckFailed):
            c.check_table2_csv(_csv(COLUMNS, moved), expected)

    rejects(("one_shot", 1.0, "maxmin"), value="11.3022")      # the stalled ascent
    rejects(("one_shot", 1.0, "sum"), value="127.001")
    rejects(("nash", 1.0, "sum"), value="NA")
    rejects(("nash", 7.0, "sum"), value="39.25")
    rejects(("repeated_with_intervention", 3.0, "sum"), value="108.19")
    rejects(("repeated_with_intervention", 3.0, "sum"), delta="1.2")
    rejects(("repeated_with_intervention", 3.0, "sum"), delta="0.96")  # above no-device
    rejects(("one_shot", 3.0, "sum"), delta="0.5")


def test_csv_precision():
    assert c.csv_matches("72.6442", 72.64424736815992)
    assert not c.csv_matches("72.6452", 72.64424736815992)
    assert c.csv_matches("NA", None) and not c.csv_matches("0", None)


def test_scaling_check_rejects():
    expected = c.scaling_expected(2, 12)
    cells = {key: (_fmt(ref), "0.9" if ref is not None and key[2].startswith("repeated")
                   else "NA") for key, ref in expected.items()}
    cols = ("capacity_rule", "n", "scheme", "welfare_kind", "value", "min_delta")
    c.check_scaling_csv(_csv(cols, cells), expected)
    assert expected[("capped", 11, "nash", "sum")] is None
    assert expected[("linear", 10, "repeated_no_intervention", "sum")] is None
    for key, value in ((("linear", 4, "one_shot", "sum"), "1.85926"),  # the stalled ascent
                       (("capped", 12, "nash", "sum"), "0.5"),
                       (("linear", 10, "repeated_no_intervention", "sum"), "9")):
        moved = dict(cells)
        moved[key] = (value, moved[key][1])
        with pytest.raises(c.CheckFailed):
            c.check_scaling_csv(_csv(cols, moved), expected)


def test_scanner_check():
    c.check_scanners(1e-9, 0.5e-9, "ok")
    for spe, scan in ((1.1e-9, 0.0), (0.0, 1.1e-9), (-1.1e-8, 0.0)):
        with pytest.raises(c.CheckFailed):
            c.check_scanners(spe, scan, "moved")


def _alternating_path():
    """Two users with vbar = (1, 2) taking turns forever from period 0."""
    delta, vbar = 0.9, np.array([1.0, 2.0])
    active = np.array([0, 1])
    v0 = (1 - delta) / (1 - delta ** 2) * np.array([1.0, 2.0 * delta])
    v1 = (1 - delta) / (1 - delta ** 2) * np.array([delta, 2.0])
    return active, delta, vbar, np.array([v0, v1])


def test_path_values_closed_form():
    active, delta, vbar, values = _alternating_path()
    assert c.path_values(active, 0, delta, vbar) == pytest.approx(values, rel=1e-12)
    # a preamble in front of the cycle: one period of user 1, then user 0 forever
    own = c.path_values(np.array([1, 0]), 1, delta, vbar)
    assert np.allclose(own, [[0.9, 0.1 * 2.0], [1.0, 0.0]], rtol=1e-12, atol=1e-15)


def test_path_check_rejects():
    active, delta, vbar, values = _alternating_path()
    nu = values.min(axis=0) - 1e-6
    vlow = np.zeros(2)
    c.check_path(active, 0, delta, vbar, values[0], nu, vlow, "ok", values=values)
    cases = [
        dict(target=values[0] + [2e-6, 0.0]),                 # misses the target
        dict(nu=values.min(axis=0) + [2e-9, 0.0]),            # a continuation dips
        dict(vlow=nu + [2e-9, 0.0]),                           # floors under minmax
        dict(values=values * [1.0 + 2e-8, 1.0]),               # shares drift from 1
    ]
    for moved in cases:
        args = dict(target=values[0], nu=nu, vlow=vlow, values=values) | moved
        with pytest.raises(c.CheckFailed):
            c.check_path(active, 0, delta, vbar, args["target"], args["nu"], args["vlow"],
                         "moved", values=args["values"])


def test_scalar_checks_reject():
    c.check_welfare(100.0, 100.0 + 5e-5, "ok")
    with pytest.raises(c.CheckFailed):
        c.check_welfare(100.0, 100.0 + 2e-4, "moved")
    c.check_threshold(0.9, 0.95, "ok")
    for db, delta in ((0.0, 0.9), (0.96, 0.95), (1.01, 0.999)):
        with pytest.raises(c.CheckFailed):
            c.check_threshold(db, delta, "moved")
    vbar, vlow = c.solo_values(FLOW), c.minmax_values(FLOW)
    c.check_closed_forms(FLOW, vbar, vlow, "ok")
    with pytest.raises(c.CheckFailed):
        c.check_closed_forms(FLOW, vbar * (1 + 1e-8), vlow, "moved")
