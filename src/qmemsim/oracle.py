"""Dense density-matrix ground truth for small systems (n <= 3 qubits).

Integrates the master equation

    rho' = -i [H, rho] - r * sum_n ( rho - (rho + X_n rho X_n + Y_n rho Y_n
                                            + Z_n rho Z_n) / 4 )

with a fixed-step classical 4th-order Runge-Kutta scheme.  The dissipator is
written through the single-qubit twirl identity: averaging over {I, X, Y, Z}
conjugations on qubit n equals replacing that qubit by the maximally mixed
state, which is the per-qubit depolarizing generator.

Channel-level tools work with Choi matrices of single-qubit channels:
J = (E (x) id)(|Phi><Phi|) for the maximally entangled |Phi>.  Average
fidelity is (2 F_e + 1)/3 with entanglement fidelity F_e = <Phi| J |Phi>,
and entanglement breaking for qubit channels is equivalent to J having a
positive partial transpose.

Everything here is deliberately small and dense: it is the independent
oracle the stochastic Pauli-frame engine is validated against, so it shares
no sampling code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=MAX_ORACLE_QUBITS)
def _site_paulis(n: int):
    """X_k, Z_k, Y_k embedded on each site k of an n-qubit register.

    Built once per qubit count; the matrices are read-only, so no caller
    can write into the cache.
    """
    ops = []
    for k in range(n):
        site = []
        for p in (1, 2, 3):
            codes = [0] * n
            codes[k] = p
            op = pauli_string_matrix(codes)
            op.flags.writeable = False
            site.append(op)
        ops.append(tuple(site))
    return tuple(ops)


def master_rhs(rho: np.ndarray, h_matrix, rate_r: float, site_ops) -> np.ndarray:
    n = len(site_ops)
    out = np.zeros_like(rho)
    if h_matrix is not None:
        out += -1j * (h_matrix @ rho - rho @ h_matrix)
    for site in site_ops:
        twirl = rho.copy()
        for op in site:
            twirl += op @ rho @ op
        out += rate_r * (twirl / 4.0 - rho)
    return out


def lindblad_evolve(rho0: np.ndarray, h_matrix, rate_r: float, t: float,
                    dt: float = 0.005) -> np.ndarray:
    """Evolve rho0 for time t under depolarizing noise plus optional H.

    Fixed-step RK4; the final partial step is shortened to land exactly on t.
    Raises if the result violates the density-matrix invariants, which is
    the signal that dt is too large.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    rho = np.asarray(rho0, dtype=complex).copy()
    if n_qubits_of(rho) > MAX_ORACLE_QUBITS:
        raise ValueError(f"oracle is capped at {MAX_ORACLE_QUBITS} qubits")
    site_ops = _site_paulis(n_qubits_of(rho))
    remaining = t
    while remaining > 1e-15:
        step = min(dt, remaining)
        k1 = master_rhs(rho, h_matrix, rate_r, site_ops)
        k2 = master_rhs(rho + 0.5 * step * k1, h_matrix, rate_r, site_ops)
        k3 = master_rhs(rho + 0.5 * step * k2, h_matrix, rate_r, site_ops)
        k4 = master_rhs(rho + step * k3, h_matrix, rate_r, site_ops)
        rho += (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        remaining -= step
    return check_density_matrix(rho)


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
    steps = int(round(t / dt))
    rho = np.asarray(rho0, dtype=complex)
    info = np.empty(steps + 1)
    info[0] = information_content(rho)
    states = [rho]
    for _ in range(steps):
        rho = lindblad_evolve(rho, None, rate_r, dt, dt)
        states.append(rho)
        info[len(states) - 1] = information_content(rho)
    times = np.arange(steps + 1) * dt
    didt = np.empty_like(info)
    didt[1:-1] = (info[2:] - info[:-2]) / (2.0 * dt)
    didt[0] = (info[1] - info[0]) / dt
    didt[-1] = (info[-1] - info[-2]) / dt
    return times, info, didt


# ---------------------------------------------------------------------------
# single-qubit channels as Choi matrices

_BELL = np.zeros(4, dtype=complex)
_BELL[0] = _BELL[3] = 1.0 / math.sqrt(2.0)
_BELL_PROJ = np.outer(_BELL, _BELL.conj())


def choi_from_map(apply_channel) -> np.ndarray:
    """Choi matrix of a single-qubit map given as rho -> E(rho)."""
    j = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            j += np.kron(apply_channel(unit), unit) / 2.0
    return j


def depolarizing_choi(lam: float) -> np.ndarray:
    """Choi matrix of rho -> lam rho + (1 - lam) I/2."""
    return choi_from_map(lambda rho: lam * rho
                         + (1.0 - lam) * np.trace(rho) * np.eye(2) / 2.0)


def pauli_mixture_choi(probs) -> np.ndarray:
    """Choi matrix of rho -> sum_P probs[P] P rho P over I, X, Z, Y codes."""
    probs = np.asarray(probs, dtype=float)
    return choi_from_map(lambda rho: sum(
        p * (m @ rho @ m.conj().T)
        for p, m in zip(probs, PAULI_MATRICES)))


def apply_choi(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """E(rho) = 2 tr_2 [ J (I (x) rho^T) ]."""
    j = choi.reshape(2, 2, 2, 2)
    # tr_2[J (I (x) rho^T)][a,b] = sum_{ik} J[(a,i),(b,k)] rho[i,k]
    return 2.0 * np.einsum("aibk,ik->ab", j, np.asarray(rho, dtype=complex))


def average_fidelity(choi: np.ndarray) -> float:
    """(2 F_e + 1)/3 from the entanglement fidelity F_e = <Phi|J|Phi>."""
    f_e = float(np.real(np.trace(choi @ _BELL_PROJ)))
    return (2.0 * f_e + 1.0) / 3.0


def average_fidelity_numeric(choi: np.ndarray, n_states: int, rng) -> float:
    """Haar-sampled estimate of the average fidelity; agrees with
    average_fidelity up to Monte Carlo error."""
    if n_states < 1000:
        raise ValueError("n_states must be >= 1000 for a stable estimate")
    gen = np.random.default_rng(rng)
    vecs = gen.normal(size=(n_states, 2)) + 1j * gen.normal(size=(n_states, 2))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    total = 0.0
    for v in vecs:
        rho = np.outer(v, v.conj())
        total += float(np.real(np.vdot(v, apply_choi(choi, rho) @ v)))
    return total / n_states


def is_entanglement_breaking(choi: np.ndarray, tol: float = 1e-10) -> bool:
    """PPT test on the Choi matrix (equivalent to EB for qubit channels)."""
    j = choi.reshape(2, 2, 2, 2)
    pt = j.transpose(0, 3, 2, 1).reshape(4, 4)
    return bool(np.linalg.eigvalsh(pt).min() >= -tol)


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(np.asarray(rho_a) - np.asarray(rho_b))
    return 0.5 * float(np.abs(eigs).sum())


PAULI_EIGENSTATES = (
    np.array([1.0, 0.0], dtype=complex),                       # +Z
    np.array([0.0, 1.0], dtype=complex),                       # -Z
    np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),      # +X
    np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),     # -X
    np.array([1.0, 1j], dtype=complex) / math.sqrt(2.0),       # +Y
    np.array([1.0, -1j], dtype=complex) / math.sqrt(2.0),      # -Y
)


def channel_distance(choi_a: np.ndarray, choi_b: np.ndarray) -> float:
    """Max output trace distance over the six Pauli eigenstate inputs."""
    worst = 0.0
    for v in PAULI_EIGENSTATES:
        rho = np.outer(v, v.conj())
        worst = max(worst, trace_distance(apply_choi(choi_a, rho),
                                          apply_choi(choi_b, rho)))
    return worst


def mc_channel_tomography(rate_r: float, t: float, trials: int, rng) -> np.ndarray:
    """Single-qubit channel reconstructed from Pauli-frame Monte Carlo.

    Samples cumulative frames at time t, converts the empirical I/X/Z/Y
    frequencies into a Pauli-mixture channel, and returns its Choi matrix.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    frames = sample_cumulative_frames(1, t, rate_r, trials, rng)[:, 0]
    counts = np.bincount(frames, minlength=4)
    return pauli_mixture_choi(counts / trials)


@dataclass(frozen=True)
class OracleComparison:
    n_qubits: int
    rate_r: float
    t: float
    trials: int
    distance: float


def ghz_state(n: int) -> np.ndarray:
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())


def plus_state(n: int) -> np.ndarray:
    v = np.full(2 ** n, 1.0 / math.sqrt(2.0 ** n), dtype=complex)
    return np.outer(v, v.conj())


def oracle_equivalence_check(n_qubits: int, rate_r: float, t: float,
                             trials: int, rng, dt: float = 0.005,
                             rho0: np.ndarray | None = None) -> OracleComparison:
    """Trace distance between the Monte Carlo channel output and the dense
    integration, on a maximally entangled-within-register input.

    The Monte Carlo side averages frame conjugations exactly over the
    empirical frame distribution (there are only 4^n distinct frames), so
    the distance measures sampling error plus any modeling discrepancy.
    """
    if n_qubits > MAX_ORACLE_QUBITS:
        raise ValueError(f"oracle is capped at {MAX_ORACLE_QUBITS} qubits")
    if rho0 is None:
        rho0 = ghz_state(n_qubits) if n_qubits > 1 else plus_state(1)
    rho0 = check_density_matrix(rho0)
    dense = lindblad_evolve(rho0, None, rate_r, t, dt)

    frames = sample_cumulative_frames(n_qubits, t, rate_r, trials, rng)
    packed = frames @ (4 ** np.arange(n_qubits))
    counts = np.bincount(packed, minlength=4 ** n_qubits)
    mc = np.zeros_like(rho0)
    for idx in np.flatnonzero(counts):
        codes = [(idx >> (2 * q)) & 3 for q in range(n_qubits)]
        op = pauli_string_matrix(codes)
        mc += (counts[idx] / trials) * (op @ rho0 @ op.conj().T)
    return OracleComparison(n_qubits=n_qubits, rate_r=rate_r, t=t,
                            trials=trials, distance=trace_distance(mc, dense))
