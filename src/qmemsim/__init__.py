"""Lifetime of a quantum memory under depolarizing noise.

Pauli-frame Monte Carlo for concatenated five-qubit-code storage, a
binomial-bridge model of a noise-driven clock that times the decoding
rounds, exact analytic budgets certifying (or refuting) parameter choices,
and a dense Lindblad oracle that cross-checks the sampler on small systems.
"""

from .bounds import (FeasibleConstants, LedgerReport, RecursionTrace,
                     assess_constants, avg_fidelity_depolarizing, build_ledger,
                     clock_size_for, decode_budget, depolarizing_lambda,
                     entanglement_breaking_time, evolution_budget,
                     feasibility_search, information_decay_time,
                     iterate_round_recursion, quadratic_block_error)
from .clock import (ClockCheckpoints, ClockParams, ClockTrajectory,
                    DegenerateWindowError, GoodProbBound, LevelWindow,
                    OverlappingWindowsError, ScheduleInfeasibleError,
                    WindowSchedule, checkpoint_times, deterministic_passage,
                    first_exit, good_prob_bound, is_good, max_time_error,
                    mean_polarization, polarization_variance,
                    sample_count_matrix, sample_passages, sample_trajectory,
                    sample_trajectory_checkpointed, time_error_bound,
                    time_estimate, vertical_exit_rate_bound, window_passage,
                    window_schedule)
from .fivequbit import (BLOCK, CodeSpec, DecoderTable, b_exact, b_monte_carlo,
                        decode_block, decode_blocks, default_code,
                        default_table, pack, quadratic_bound_range,
                        syndrome_of, unpack)
from .oracle import (average_fidelity, average_fidelity_numeric,
                     channel_distance, choi_from_map, depolarizing_choi,
                     ghz_state, information_content, information_flow,
                     is_entanglement_breaking, lindblad_evolve,
                     mc_channel_tomography, oracle_equivalence_check,
                     pauli_mixture_choi, plus_state, trace_distance,
                     von_neumann_entropy)
from .pauli import (CODE_LABELS, anticommutes, depolarize, frame_from_label,
                    frame_to_label, identity_frame, pauli_mul,
                    sample_cumulative_frames, single_qubit_probs,
                    string_anticommutes, weight)
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
