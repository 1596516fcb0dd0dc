"""Per-layer tracing by wrapping repgame's public functions from outside.

:class:`Tracer` replaces each traced function with a wrapper in every
repgame module that bound the name (``from .games import minmax`` makes a
second binding), so calls made inside the package are seen as well as the
benchmark's own.  Methods of the stage-game classes are wrapped on each
class that defines them.  ``uninstall`` puts every original back.

Span wrappers record ``(name, start, end, parent)`` in memory; count
wrappers only bump counters, for functions called too often for a span.
Layer metrics are computed from one round's spans and counters by
:func:`layer_metrics`.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

GRID_STEP = 0.05      # the one-shot search's product-grid step
GRID_CAP = 8_000_000  # above this many points the search skips the grid

# (module, function) pairs timed with spans; the metric prefix is
# "<module>.<function>"
SPANNED = (
    ("cli", "main"),
    ("experiments", "run_experiment"),
    ("experiments", "load_config"),
    ("experiments", "baseline_comparison"),
    ("experiments", "scaling_sweep"),
    ("experiments", "constrained_welfare_search"),
    ("experiments", "emit_curves"),
    ("games", "solve_stage_nash"),
    ("design", "design_protocol"),
    ("design", "validate_assumptions"),
    ("design", "deviation_stats"),
    ("design", "generate_outcome_path"),
    ("design", "assemble_protocol"),
    ("automata", "build_minmax_automaton"),
    ("automata", "state_values"),
    ("automata", "verify_spe"),
    ("simulate", "profitability_scan"),
)

SPANNED_NAMES = frozenset(f"{m}.{f}" for m, f in SPANNED)

# module-level functions that are only counted
COUNTED = (("games", "minmax"), ("games", "mutual_minmax"))

# stage-game methods that are only counted
COUNTED_METHODS = ("best_response", "best_response_batch", "payoff", "payoff_unchecked",
                   "validate_profile")

# every per-layer metric: name -> unit
LAYER_METRICS = {
    "cli.main.s": "s",
    "experiments.load_config.s": "s",
    "experiments.baseline_comparison.self_s": "s",
    "experiments.scaling_sweep.self_s": "s",
    "experiments.constrained_welfare_search.s": "s",
    "experiments.constrained_welfare_search.calls": "count",
    "experiments.grid_points": "count",
    "experiments.emit_curves.s": "s",
    "games.solve_stage_nash.s": "s",
    "games.solve_stage_nash.calls": "count",
    "games.best_response.calls": "count",
    "games.best_response_batch.rows": "count",
    "games.payoff.calls": "count",
    "games.payoff_rows": "count",
    "games.validate_profile.calls": "count",
    "games.minmax.calls": "count",
    "games.mutual_minmax.calls": "count",
    "design.validate_assumptions.s": "s",
    "design.deviation_stats.s": "s",
    "design.deviation_stats.calls": "count",
    "design.generate_outcome_path.s": "s",
    "design.generate_outcome_path.calls": "count",
    "design.path_states": "count",
    "design.assemble_protocol.self_s": "s",
    "automata.build_minmax_automaton.s": "s",
    "automata.state_values.s": "s",
    "automata.verify_spe.self_s": "s",
    "automata.states_scanned": "count",
    "automata.deviation_evals": "count",
    "simulate.profitability_scan.s": "s",
    "simulate.scan_horizon_max": "count",
    "process.import_s": "s",
    "process.minor_faults": "count",
    "process.sys_s": "s",
    "trace.overhead_s": "s",
}


def grid_points(a_max, step: float = GRID_STEP, cap: int = GRID_CAP) -> int:
    """Points of the one-shot search's product grid over the action boxes,
    or 0 when the search would skip the grid."""
    total = 1
    for am in a_max:
        total *= len(np.unique(np.concatenate([np.arange(0.0, am, step), [am]])))
    return total if total <= cap else 0


def _rows(a0, a) -> int:
    """Profiles in one ``payoff_unchecked`` call, from the broadcast shapes."""
    shape = np.broadcast_shapes(np.shape(a0)[:-1], np.shape(a)[:-1])
    return int(np.prod(shape)) if shape else 1


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        calls = name + ".calls"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _counter(self, name, fn, amount=None):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if amount is not None:
                key, value = amount(*args, **kwargs)
                counts[key] += value
            return fn(*args, **kwargs)
        return wrapper

    # -- counters taken from arguments and results ------------------------

    def _after(self, name):
        """Hook that reads work counters off a spanned call's arguments or result."""
        c = self.counts

        def baseline_grid(res, game, *args, **kwargs):
            c["experiments.grid_points"] += grid_points(game.a_max)

        def search_grid(res, game, gamma, kind, step=GRID_STEP, passes=50,
                        grid_cap=GRID_CAP, seed=None):
            if seed is None:  # a seeded search skips the grid
                c["experiments.grid_points"] += grid_points(game.a_max, step, grid_cap)

        def path_states(path, *args, **kwargs):
            c["design.path_states"] += len(path.active)

        def spe_work(rep, game, *args, **kwargs):
            c["automata.states_scanned"] += rep.n_states
            c["automata.deviation_evals"] += rep.n_states * rep.grid_points * game.n

        def scan_horizon(rep, *args, **kwargs):
            c["simulate.scan_horizon_max"] = max(c["simulate.scan_horizon_max"], rep.horizon)

        return {"experiments.baseline_comparison": baseline_grid,
                "experiments.constrained_welfare_search": search_grid,
                "design.generate_outcome_path": path_states,
                "automata.verify_spe": spe_work,
                "simulate.profitability_scan": scan_horizon}.get(name)

    # -- install / uninstall ---------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every repgame module's binding of ``original`` at ``wrapper``."""
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        pkg = self.package
        for modname, fname in SPANNED:
            name = f"{modname}.{fname}"
            original = getattr(getattr(pkg, modname), fname)
            self._rebind(original, self._span(name, original, self._after(name)))
        for modname, fname in COUNTED:
            original = getattr(getattr(pkg, modname), fname)
            self._rebind(original, self._counter(f"{modname}.{fname}.calls", original))
        games = pkg.games
        for cls in [v for v in vars(games).values()
                    if isinstance(v, type) and issubclass(v, games.StageGame)]:
            for meth in COUNTED_METHODS:
                if meth not in vars(cls):
                    continue
                original = vars(cls)[meth]
                if meth == "payoff_unchecked":
                    wrapper = self._counter("games.payoff_unchecked.calls", original,
                                            lambda s, a0, a: ("games.payoff_rows", _rows(a0, a)))
                elif meth == "best_response_batch":
                    wrapper = self._counter(
                        "games.best_response_batch.calls", original,
                        lambda s, i, a0, others: ("games.best_response_batch.rows",
                                                  np.atleast_2d(others).shape[0]))
                else:
                    wrapper = self._counter(f"games.{meth}.calls", original)
                setattr(cls, meth, wrapper)
                self._undo.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def span_times(spans) -> tuple[dict, dict]:
    """Total and self time per span name.  A span nested in a span of the
    same name is not added twice to the total."""
    total, own = defaultdict(float), defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for k, (name, start, end, parent) in enumerate(spans):
        own[name] += (end - start) - child[k]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    return total, own


def layer_metrics(spans, counts) -> dict:
    """One round's layer metrics (process and trace metrics excluded)."""
    total, own = span_times(spans)
    out = {}
    for metric in LAYER_METRICS:
        base, _, tail = metric.rpartition(".")
        if tail == "s" and base in SPANNED_NAMES:
            out[metric] = total.get(base, 0.0)
        elif tail == "self_s":
            out[metric] = own.get(base, 0.0)
        elif not metric.startswith(("process.", "trace.")):
            out[metric] = float(counts.get(metric, 0))
    return out
