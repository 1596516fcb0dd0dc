"""Repeated resource-allocation games with a punishment-only intervention device.

The package is organised bottom-up:

* :mod:`repgame.games` -- stage games (flow control, power control,
  packet dropping), best responses, minmax machinery.
* :mod:`repgame.automata` -- equilibrium strategy automata, state values,
  subgame-perfection verification, incentive bounds.
* :mod:`repgame.design` -- the protocol designer: welfare optimisation on
  the guaranteed-payoff region, discount thresholds, outcome paths.
* :mod:`repgame.simulate` -- trajectory simulation and deviation probes.
* :mod:`repgame.experiments` -- reproducible experiment harness and CSV
  emission (also exposed through ``python -m repgame`` / the ``repgame``
  console script).
"""

__version__ = "0.1.0"

from .games import (ActionProfile, FlowControlGame, GameConfigError, HullSample,
                    MinmaxResult, MutualMinmaxResult, NashIterationError,
                    PacketDropGame, PowerControlGame, StageGame,
                    game_from_config, max_stage_payoff, minmax,
                    minmax_values, mutual_minmax, payoff_hull_sample,
                    solo_values, solve_stage_nash)
from .automata import (Automaton, AutomatonError, MinDeltaResult, SpeReport,
                       StateValues, build_minmax_automaton,
                       build_player_specific_automaton, describe,
                       find_min_delta_for_constraints, min_delta_for_L,
                       minmax_delta_constraints, player_specific_delta_constraints,
                       prescribe_punishment_length, prescribe_reward_delay,
                       state_values, verify_spe)
from .design import (AssumptionReport, DecompositionError, DesignError,
                     DeviationStats, OutcomePath, ProtocolDesign, TargetPayoff,
                     assemble_protocol, delta_bar, delta_mu, design_protocol,
                     deviation_stats, generate_outcome_path, guarantee_feasible,
                     guarantee_floors, optimize_welfare, validate_assumptions)
from .simulate import (DeviationPlan, ScanReport, Trace, deviation_gain,
                       profitability_scan, run)
from .experiments import (EXPERIMENTS, ConfigError, ExperimentConfig, ResultTable,
                          baseline_comparison, constrained_welfare_search,
                          dump_config, emit_curves, load_config,
                          punishment_length_curves, reference_path,
                          run_experiment, scaling_sweep, tradeoff_sweep,
                          verification_report)

__all__ = [name for name in dir() if not name.startswith("_")]
