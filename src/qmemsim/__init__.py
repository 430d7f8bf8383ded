"""Lifetime of a quantum memory under depolarizing noise.

Pauli-frame Monte Carlo for concatenated five-qubit-code storage, a
binomial-bridge model of a noise-driven clock that times the decoding
rounds, exact analytic budgets certifying (or refuting) parameter choices,
and a dense Lindblad oracle that cross-checks the sampler on small systems.
"""

from .bounds import (LedgerReport, RecursionTrace, RoundConstants,
                     assess_constants, build_ledger, clock_size_for,
                     decode_budget, entanglement_breaking_time,
                     evolution_budget, feasibility_search,
                     information_decay_time, iterate_round_recursion,
                     quadratic_block_error)
from .clock import (ClockCheckpoints, ClockParams, ClockTrajectory,
                    DegenerateWindowError, GoodProbBound, LevelWindow,
                    OverlappingWindowsError, ScheduleInfeasibleError,
                    checkpoint_times, first_exit, good_prob_bound, is_good,
                    max_time_error, mean_polarization, sample_count_matrix,
                    sample_passages, sample_trajectory,
                    sample_trajectory_checkpointed, time_error_bound,
                    time_estimate, vertical_exit_rate_bound, window_passage,
                    window_schedule)
from .fivequbit import (BLOCK, DecoderTable, b_exact, b_monte_carlo,
                        decode_blocks, default_table, quadratic_bound_range,
                        unpack)
from .oracle import (ghz_state, information_content, information_flow,
                     lindblad_evolve, oracle_equivalence_check, plus_state,
                     trace_distance, von_neumann_entropy)
from .pauli import (CODE_LABELS, anticommutes, frame_from_label,
                    frame_to_label, sample_cumulative_frames)
from .protocols import (ClockRunDiagnostics, LifetimeScan,
                        LogicalChannelEstimate, ProtocolParams,
                        RepetitionEstimate, estimate_logical_channel,
                        exact_majority_failure, lifetime_scan,
                        repetition_lifetime, simulate_circuit_model,
                        simulate_classical_repetition,
                        simulate_clock_controlled, simulate_unprotected,
                        with_sized_clock)
from .stats import affine_fit, wilson_interval

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
