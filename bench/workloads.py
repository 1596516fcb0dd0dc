"""The benchmark's four workloads: inputs drawn from a seed, the operations
of one round, and the check each operation's output must pass.

Each workload is a closed loop: one operation runs after another in one
process, and a round is the same list of operations every time.  A
workload is built against a package: ``repgame`` itself, or the frozen
reference copy that serves as the host-speed clock.  Every program call is
looked up on that package at call time, so the tracer's wrappers are used
when they are installed.  Seeded draws that ask the program a question
(is this target enforceable, where is the threshold) ask the reference
copy, so a seed gives the same inputs to both sides and to every later
version of the program.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (check_closed_forms, check_path, check_scaling_csv, check_scanners,
                    check_table2_csv, check_threshold, check_welfare, minmax_values, require,
                    scaling_expected, simplex_optimum, solo_values, table2_expected)

CONFIG = Path("configs") / "fig_flow.json"
DELTA_LOW, DELTA_MAX = 0.9, 0.9995   # discount factor range drawn for ``paths``
PATH_INSTANCES = 27         # instances per ``paths`` round
GAME_KINDS = ("flow", "packet_drop", "power")


def reference_package():
    """The frozen copy of the program in ``reference/``."""
    path = str(Path(__file__).resolve().parent / "reference")
    if path not in sys.path:
        sys.path.insert(0, path)
    import repgame_ref
    import repgame_ref.cli  # noqa: F401  (the CLI workloads call it)
    return repgame_ref


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


class ExitCodeError(RuntimeError):
    """The command line returned a non-zero exit code."""


def _cli(pkg, config: Path, experiment: str, out: Path) -> Path:
    argv = ["--experiment", experiment, "--config", str(config), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = pkg.cli.main(argv)
    if code != 0:
        raise ExitCodeError(f"repgame {experiment} exited with code {code}")
    return out / f"{experiment}.csv"


class Table2:
    """``repgame --experiment table2`` on the reference config."""

    def __init__(self, pkg, root: Path, seed: int, out: Path):
        self.pkg, self.root, self.out = pkg, root, out
        self.config = pkg.load_config(root / CONFIG, "table2")

    def references(self):
        self.expected = table2_expected(self.config.game, self.config.gamma)

    def operations(self):
        return [Operation("table2", lambda: _cli(self.pkg, self.root / CONFIG, "table2", self.out),
                          lambda csv: check_table2_csv(csv.read_text(), self.expected))]


class Scaling:
    """``repgame --experiment scaling`` on the reference config, one call per
    population size n = 2..12 (a copy of the config with ``n_range`` [n, n]),
    in an order drawn from the seed.  The calls together run the same 22
    cells as one call over the whole range; split, each operation can be
    paired with the reference on its own."""

    def __init__(self, pkg, root: Path, seed: int, out: Path):
        self.pkg, self.out = pkg, out
        raw = json.loads((root / CONFIG).read_text())
        lo, hi = raw.get("n_range", (2, 12))
        self.configs = {}
        out.mkdir(parents=True, exist_ok=True)
        for n in np.random.default_rng(seed).permutation(np.arange(lo, hi + 1)).tolist():
            path = out / f"scaling-n{n}.json"
            path.write_text(json.dumps(dict(raw, n_range=[n, n])))
            self.configs[n] = path
            pkg.load_config(path, "scaling")

    def references(self):
        self.expected = {n: scaling_expected(n, n) for n in self.configs}

    def operations(self):
        return [Operation(f"scaling/n={n}", self._runner(n), self._checker(n))
                for n in self.configs]

    def _runner(self, n):
        return lambda: _cli(self.pkg, self.configs[n], "scaling", self.out / f"n{n}")

    def _checker(self, n):
        return lambda csv: check_scaling_csv(csv.read_text(), self.expected[n])


def _protocol_games(root: Path) -> dict:
    """Game config and per-user guarantee of each ``protocols`` game."""
    flow = json.loads((root / CONFIG).read_text())["game"]
    packet = {"kind": "packet_drop", "mu": flow["mu"], "beta": flow["beta"],
              "a_max": flow["a_max"]}
    power = {"kind": "power",
             "gain": [[1.0, 0.9, 1.1], [1.0, 1.0, 0.95], [1.05, 1.0, 1.0]],
             "intervention_gain": [1.0, 1.0, 1.0], "noise": [0.01, 0.012, 0.008],
             "a_max": [1.0, 1.0, 1.0], "a0_max": [5.0]}
    return {"flow": (flow, 3.0), "packet_drop": (packet, 3.0), "power": (power, 0.5)}


class Protocols:
    """``design_protocol`` then both deviation scanners: 3 games x 2 welfare
    targets x 3 discount factors (just above the threshold, midway to one,
    and 0.999).  The seed only orders the 18 operations: near the
    threshold the path length jumps with the discount factor, so moving it
    would change the work of a round from seed to seed."""

    def __init__(self, pkg, root: Path, seed: int, out: Path):
        self.pkg = pkg
        ref = reference_package()
        rng = np.random.default_rng(seed)
        self.cases = []
        for name, (cfg, g) in _protocol_games(root).items():
            game = pkg.game_from_config(cfg)
            gamma = np.full(game.n, g)
            for welfare in ("sum", "maxmin"):
                db = ref.design_protocol(ref.game_from_config(cfg), gamma, welfare).threshold
                for delta in (db + 1e-3, 0.5 * (db + 1.0), 0.999):
                    self.cases.append((f"{name}/{welfare}/{delta:.6f}", cfg, game, gamma,
                                       welfare, delta))
        self.cases = [self.cases[k] for k in rng.permutation(len(self.cases))]

    def references(self):
        self.expected = {}
        for label, cfg, _, gamma, welfare, _ in self.cases:
            floors = np.maximum(gamma, minmax_values(cfg, True))
            self.expected[label] = simplex_optimum(solo_values(cfg), floors, welfare)

    def operations(self):
        return [Operation(label, self._runner(game, gamma, welfare, delta),
                          self._checker(label, cfg, delta))
                for label, cfg, game, gamma, welfare, delta in self.cases]

    def _runner(self, game, gamma, welfare, delta):
        pkg = self.pkg

        def run():
            design = pkg.design_protocol(game, gamma, welfare, delta)
            rep = pkg.verify_spe(game, design.automaton, delta)
            scan = pkg.profitability_scan(game, design.automaton, delta)
            return design, rep, scan
        return run

    def _checker(self, label, cfg, delta):
        def check(result):
            design, rep, scan = result
            stats, path = design.stats, design.path
            check_closed_forms(cfg, stats.vbar, stats.minmax(True), label)
            check_welfare(design.target.value, self.expected[label], label)
            check_threshold(design.threshold, delta, label)
            check_scanners(rep.worst_gain, scan.worst_gain, label)
            require(design.automaton.path_len == len(path.active)
                    and design.automaton.cycle_start == path.cycle_start,
                    f"{label}: automaton does not play the outcome path")
            check_path(path.active, path.cycle_start, delta, solo_values(cfg), design.target.v,
                       path.nu, minmax_values(cfg, True), label)
        return check


def _draw_game(rng, kind: str, n: int) -> dict:
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


class Paths:
    """``deviation_stats``, ``delta_bar`` and ``generate_outcome_path`` on
    seeded random instances.

    Instance k has game kind ``GAME_KINDS[k % 3]`` and ``2 + (k // 3) % 3``
    users, and its discount factor sits at the middle of the k-th of
    ``PATH_INSTANCES`` equal strata of a log-uniform ``1 - delta`` between
    0.1 and 5e-4.  The seed draws a game and a target on the guarantee
    region above the minmax point, again until the game leaves at least 5%
    slack and the target's threshold sits at least 1e-3 below delta.  The
    path length grows like ``1 / (1 - delta)``, so the ladder fixes each
    instance's share of the round's work whatever the seed.
    """

    def __init__(self, pkg, root: Path, seed: int, out: Path):
        self.pkg = pkg
        ref = reference_package()
        rng = np.random.default_rng(seed)
        self.cases = []
        for k in range(PATH_INSTANCES):
            kind, n = GAME_KINDS[k % 3], 2 + (k // 3) % 3
            q = (k + 0.5) / PATH_INSTANCES
            delta = 1.0 - (1.0 - DELTA_LOW) * ((1.0 - DELTA_MAX) / (1.0 - DELTA_LOW)) ** q
            for _ in range(10_000):
                cfg = _draw_game(rng, kind, n)
                stats = ref.deviation_stats(ref.game_from_config(cfg))
                base = stats.minmax(True) / stats.vbar
                slack = 1.0 - float(np.sum(base))
                if slack < 0.05:
                    continue
                v_star = (base + slack * rng.dirichlet(np.ones(n))) * stats.vbar
                if ref.delta_bar(stats, v_star) <= delta - 1e-3:
                    break
            else:
                raise RuntimeError(f"no {kind} instance with n={n} enforceable at {delta}")
            self.cases.append((f"{kind}/n={n}/{k}", cfg, pkg.game_from_config(cfg), v_star,
                               delta))

    def references(self):
        self.expected = {label: (solo_values(cfg), minmax_values(cfg, True))
                         for label, cfg, *_ in self.cases}

    def operations(self):
        return [Operation(label, self._runner(game, v_star, delta),
                          self._checker(label, cfg, v_star, delta))
                for label, cfg, game, v_star, delta in self.cases]

    def _runner(self, game, v_star, delta):
        pkg = self.pkg

        def run():
            stats = pkg.deviation_stats(game)
            db = pkg.delta_bar(stats, v_star)
            return stats, db, pkg.generate_outcome_path(stats, v_star, delta)
        return run

    def _checker(self, label, cfg, v_star, delta):
        def check(result):
            stats, db, path = result
            vbar, vlow = self.expected[label]
            check_closed_forms(cfg, stats.vbar, stats.minmax(True), label)
            check_threshold(db, delta, label)
            check_path(path.active, path.cycle_start, delta, vbar, v_star, path.nu, vlow,
                       label, values=path.values)
        return check


WORKLOADS = {"table2": Table2, "scaling": Scaling, "protocols": Protocols, "paths": Paths}

