"""Dense density-matrix ground truth for small systems (n <= 3 qubits).

Integrates the master equation

    rho' = -i [H, rho] - r * sum_n ( rho - (rho + X_n rho X_n + Y_n rho Y_n
                                            + Z_n rho Z_n) / 4 )

with a fixed-step classical 4th-order Runge-Kutta scheme.  The dissipator is
written through the single-qubit twirl identity: averaging over {I, X, Y, Z}
conjugations on qubit n equals replacing that qubit by the maximally mixed
state, which is the per-qubit depolarizing generator.  Each call builds the
whole right-hand side once, as a dense matrix on vec(rho) of size 4^n.

Everything here is deliberately small and dense: it is the independent
oracle the stochastic Pauli-frame engine is validated against, so it shares
no sampling code with it.
"""

from __future__ import annotations

import math

import numpy as np

from .pauli import sample_cumulative_frames

PAULI_MATRICES = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),          # X
    np.array([[1, 0], [0, -1]], dtype=complex),         # Z
    np.array([[0, -1j], [1j, 0]], dtype=complex),       # Y
)

MAX_ORACLE_QUBITS = 3

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10


def n_qubits_of(rho: np.ndarray) -> int:
    dim = rho.shape[0]
    n = int(round(math.log2(dim)))
    if rho.shape != (dim, dim) or 2 ** n != dim:
        raise ValueError("density matrix dimension must be a power of 2")
    return n


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity within tolerances."""
    rho = np.asarray(rho, dtype=complex)
    n_qubits_of(rho)
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if np.abs(rho - rho.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ValueError("density matrix trace differs from 1 beyond tolerance")
    if np.linalg.eigvalsh(rho).min() < -POSITIVITY_TOL:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return rho


def pauli_string_matrix(codes) -> np.ndarray:
    """Kronecker product of single-qubit Paulis for a code tuple."""
    out = np.array([[1.0 + 0j]])
    for c in codes:
        out = np.kron(out, PAULI_MATRICES[int(c)])
    return out


def _require_finite(**values):
    """Raise ValueError naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _generator(n: int, h_matrix, rate_r: float) -> np.ndarray:
    """The master equation's right-hand side as a matrix on row-major vec(rho).

    vec(A rho B) = (A (x) B^T) vec(rho), so the generator is
    -i (H (x) 1 - 1 (x) H^T) + r sum_k (sum_P P_k (x) conj(P_k) / 4 - 1),
    with P over {I, X, Z, Y} on site k.
    """
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(f"oracle is capped at {MAX_ORACLE_QUBITS} qubits")
    eye = np.eye(2 ** n, dtype=complex)
    gen = np.zeros((4 ** n, 4 ** n), dtype=complex)
    if h_matrix is not None:
        h = np.asarray(h_matrix, dtype=complex)
        gen -= 1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for k in range(n):
        ops = (pauli_string_matrix([p if q == k else 0 for q in range(n)])
               for p in range(4))
        twirl = sum(np.kron(op, op.conj()) for op in ops)
        gen += rate_r * (twirl / 4.0 - np.eye(4 ** n))
    return gen


def _rk4_step(gen: np.ndarray, vec: np.ndarray, step: float) -> np.ndarray:
    """One classical RK4 step of vec' = gen @ vec."""
    k1 = gen @ vec
    k2 = gen @ (vec + 0.5 * step * k1)
    k3 = gen @ (vec + 0.5 * step * k2)
    k4 = gen @ (vec + step * k3)
    return vec + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lindblad_evolve(rho0: np.ndarray, h_matrix, rate_r: float, t: float,
                    dt: float = 0.005) -> np.ndarray:
    """Evolve rho0 for time t under depolarizing noise plus optional H.

    Fixed-step RK4; the final partial step is shortened to land exactly on t.
    Raises if the result violates the density-matrix invariants, which is
    the signal that dt is too large.
    """
    _require_finite(t=t, dt=dt, rate_r=rate_r)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    rho = np.array(rho0, dtype=complex)
    gen = _generator(n_qubits_of(rho), h_matrix, rate_r)
    vec = rho.ravel()
    remaining = t
    while remaining > 1e-15:
        step = min(dt, remaining)
        vec = _rk4_step(gen, vec, step)
        remaining -= step
    return check_density_matrix(vec.reshape(rho.shape))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits; 0 log 0 := 0."""
    eigs = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    eigs = np.clip(eigs.real, 0.0, 1.0)
    nz = eigs[eigs > 0]
    return float(-(nz * np.log2(nz)).sum())


def information_content(rho: np.ndarray) -> float:
    """I(rho) = n - S(rho) in bits."""
    return n_qubits_of(np.asarray(rho)) - von_neumann_entropy(rho)


def information_flow(rho0: np.ndarray, rate_r: float, t: float,
                     dt: float = 1e-3):
    """(times, I, dI/dt) along the free-decay trajectory from rho0.

    dI/dt uses central differences of the RK4 states, so it carries an
    O(dt^2) discretization error on top of the integrator's O(dt^4).
    """
    _require_finite(t=t, dt=dt, rate_r=rate_r)
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = int(round(t / dt))
    if steps < 1:
        raise ValueError("t must cover at least one step of dt")
    rho = np.asarray(rho0, dtype=complex)
    gen = _generator(n_qubits_of(rho), None, rate_r)
    vec = rho.ravel()
    info = np.empty(steps + 1)
    info[0] = information_content(rho)
    for i in range(1, steps + 1):
        vec = _rk4_step(gen, vec, dt)
        rho = check_density_matrix(vec.reshape(rho.shape))
        info[i] = information_content(rho)
    times = np.arange(steps + 1) * dt
    didt = np.empty_like(info)
    didt[1:-1] = (info[2:] - info[:-2]) / (2.0 * dt)
    didt[0] = (info[1] - info[0]) / dt
    didt[-1] = (info[-1] - info[-2]) / dt
    return times, info, didt


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(np.asarray(rho_a) - np.asarray(rho_b))
    return 0.5 * float(np.abs(eigs).sum())


def ghz_state(n: int) -> np.ndarray:
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())


def plus_state(n: int) -> np.ndarray:
    v = np.full(2 ** n, 1.0 / math.sqrt(2.0 ** n), dtype=complex)
    return np.outer(v, v.conj())


def oracle_equivalence_check(n_qubits: int, rate_r: float, t: float,
                             trials: int, rng, dt: float = 0.005,
                             rho0: np.ndarray | None = None) -> float:
    """Trace distance between the Monte Carlo channel output and the dense
    integration, on a maximally entangled-within-register input.

    The Monte Carlo side averages frame conjugations exactly over the
    empirical frame distribution (there are only 4^n distinct frames), so
    the distance measures sampling error plus any modeling discrepancy.
    """
    if rho0 is None:
        rho0 = ghz_state(n_qubits) if n_qubits > 1 else plus_state(1)
    rho0 = check_density_matrix(rho0)
    if n_qubits_of(rho0) != n_qubits:
        raise ValueError(f"rho0 must hold n_qubits = {n_qubits} qubits")
    dense = lindblad_evolve(rho0, None, rate_r, t, dt)

    frames = sample_cumulative_frames(n_qubits, t, rate_r, trials, rng)
    packed = frames @ (4 ** np.arange(n_qubits))
    counts = np.bincount(packed, minlength=4 ** n_qubits)
    mc = np.zeros_like(rho0)
    for idx in np.flatnonzero(counts):
        codes = [(idx >> (2 * q)) & 3 for q in range(n_qubits)]
        op = pauli_string_matrix(codes)
        mc += (counts[idx] / trials) * (op @ rho0 @ op.conj().T)
    return trace_distance(mc, dense)
