"""Dense-matrix oracle: integrator accuracy, channel tools, MC cross-checks.

The single-qubit depolarizing channel has the closed form
rho(t) = e^{-rt} rho0 + (1 - e^{-rt}) I/2, which serves as the exact
reference for the integrator tests.  The channel references below work with
Choi matrices of single-qubit channels, J = (E (x) id)(|Phi><Phi|) for the
maximally entangled |Phi>; average fidelity is (2 F_e + 1)/3 with
entanglement fidelity F_e = <Phi| J |Phi>.  They (choi_from_map,
pauli_mixture_choi, apply_choi, average_fidelity, depolarizing_choi,
is_entanglement_breaking, channel_distance, average_fidelity_numeric,
mc_channel_tomography) are checks of the frame sampler, and live here with
the tests that use them.
"""

import math

import numpy as np
import pytest

from qmemsim import oracle
from qmemsim.bounds import information_decay_time
from qmemsim.oracle import (MAX_ORACLE_QUBITS, PAULI_MATRICES,
                            check_density_matrix, ghz_state,
                            information_content, information_flow,
                            lindblad_evolve, n_qubits_of,
                            oracle_equivalence_check, pauli_string_matrix,
                            plus_state, trace_distance, von_neumann_entropy)
from qmemsim.pauli import sample_cumulative_frames

I2 = np.eye(2, dtype=complex)
X = PAULI_MATRICES[1]
Z = PAULI_MATRICES[2]
Y = PAULI_MATRICES[3]


PAULI_EIGENSTATES = (
    np.array([1.0, 0.0], dtype=complex),                       # +Z
    np.array([0.0, 1.0], dtype=complex),                       # -Z
    np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),      # +X
    np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),     # -X
    np.array([1.0, 1j], dtype=complex) / math.sqrt(2.0),       # +Y
    np.array([1.0, -1j], dtype=complex) / math.sqrt(2.0),      # -Y
)


BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1.0 / math.sqrt(2.0)
BELL_PROJ = np.outer(BELL, BELL.conj())


def choi_from_map(apply_channel) -> np.ndarray:
    """Choi matrix of a single-qubit map given as rho -> E(rho)."""
    j = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            j += np.kron(apply_channel(unit), unit) / 2.0
    return j


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
    f_e = float(np.real(np.trace(choi @ BELL_PROJ)))
    return (2.0 * f_e + 1.0) / 3.0


def depolarizing_choi(lam: float) -> np.ndarray:
    """Choi matrix of rho -> lam rho + (1 - lam) I/2."""
    return choi_from_map(lambda rho: lam * rho
                         + (1.0 - lam) * np.trace(rho) * np.eye(2) / 2.0)


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


def exact_depolarized(rho0, rate_r, t):
    lam = math.exp(-rate_r * t)
    n = n_qubits_of(rho0)
    if n == 1:
        return lam * rho0 + (1.0 - lam) * I2 / 2.0
    raise NotImplementedError


def bloch_state(ax, ay, az):
    return 0.5 * (I2 + ax * X + ay * Y + az * Z)


def test_check_density_matrix():
    check_density_matrix(plus_state(2))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(3) / 3.0)  # not a qubit register
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.5], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2
    neg = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        check_density_matrix(neg)
    # NaN fails every tolerance comparison, so it is caught up front
    inf = plus_state(1)
    inf[0, 1] = np.inf
    for rho in (np.full((2, 2), np.nan), inf):
        with pytest.raises(ValueError, match="non-finite entries"):
            check_density_matrix(rho)


def test_pauli_string_matrix_order():
    assert np.allclose(pauli_string_matrix((1,)), X)
    assert np.allclose(pauli_string_matrix((3,)), Y)
    # first code is the leftmost Kronecker factor
    assert np.allclose(pauli_string_matrix((1, 2)), np.kron(X, Z))
    assert np.allclose(pauli_string_matrix((0, 0)), np.eye(4))


def test_free_decay_matches_closed_form():
    rho0 = bloch_state(0.3, 0.5, 0.2)
    for t in (0.33, 1.0):
        out = lindblad_evolve(rho0, None, 1.3, t, dt=0.01)
        assert trace_distance(out, exact_depolarized(rho0, 1.3, t)) < 1e-8


def test_product_state_decays_per_qubit():
    a = bloch_state(0.6, 0.0, 0.1)
    b = bloch_state(0.0, -0.4, 0.3)
    rho0 = np.kron(a, b)
    out = lindblad_evolve(rho0, None, 1.0, 0.7, dt=0.01)
    expect = np.kron(exact_depolarized(a, 1.0, 0.7),
                     exact_depolarized(b, 1.0, 0.7))
    assert trace_distance(out, expect) < 1e-8


def test_integrator_validation():
    rho0 = plus_state(1)
    with pytest.raises(ValueError):
        lindblad_evolve(rho0, None, 1.0, 1.0, dt=0.0)
    with pytest.raises(ValueError):
        lindblad_evolve(rho0, None, 1.0, -0.5)
    with pytest.raises(ValueError):
        lindblad_evolve(plus_state(MAX_ORACLE_QUBITS + 1), None, 1.0, 0.1)


NON_FINITE = [
    (dict(t=math.inf), "t must be finite, got inf"),
    (dict(t=math.nan), "t must be finite, got nan"),
    (dict(dt=math.nan), "dt must be finite, got nan"),
    (dict(rate_r=math.nan), "rate_r must be finite, got nan"),
]


@pytest.mark.parametrize("bad, message", NON_FINITE)
def test_integrators_reject_non_finite_inputs(bad, message):
    # checked before the step loop: t = inf would otherwise never return
    args = {"rate_r": 1.0, "t": 0.1, "dt": 0.01, **bad}
    with pytest.raises(ValueError, match=message):
        lindblad_evolve(plus_state(1), None, **args)
    with pytest.raises(ValueError, match=message):
        information_flow(plus_state(1), **args)


def twirl_rhs(rho, h_matrix, rate_r):
    """The master equation in its twirl form, site operators built per call."""
    n = n_qubits_of(rho)
    out = np.zeros_like(rho)
    if h_matrix is not None:
        out += -1j * (h_matrix @ rho - rho @ h_matrix)
    for k in range(n):
        twirl = rho.copy()
        for p in (1, 2, 3):
            op = pauli_string_matrix([p if q == k else 0 for q in range(n)])
            twirl += op @ rho @ op
        out += rate_r * (twirl / 4.0 - rho)
    return out


def twirl_evolve(rho0, h_matrix, rate_r, t, dt):
    """RK4 on twirl_rhs with lindblad_evolve's step schedule."""
    rho = np.array(rho0, dtype=complex)
    remaining = t
    while remaining > 1e-15:
        step = min(dt, remaining)
        k1 = twirl_rhs(rho, h_matrix, rate_r)
        k2 = twirl_rhs(rho + 0.5 * step * k1, h_matrix, rate_r)
        k3 = twirl_rhs(rho + 0.5 * step * k2, h_matrix, rate_r)
        k4 = twirl_rhs(rho + step * k3, h_matrix, rate_r)
        rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        remaining -= step
    return rho


def random_matrix(n, gen):
    dim = 2 ** n
    return gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))


def random_state(n, gen):
    g = random_matrix(n, gen)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("driven", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_matches_twirl_reference(n, driven):
    gen = np.random.default_rng([60, n, driven])
    rho0 = random_state(n, gen)
    h = None
    if driven:
        g = random_matrix(n, gen)
        h = (g + g.conj().T) / 2.0
    # 0.0537 is not a multiple of dt: the last step is shortened
    out = lindblad_evolve(rho0, h, 0.7, 0.0537, dt=0.01)
    assert np.abs(out - twirl_evolve(rho0, h, 0.7, 0.0537, 0.01)).max() < 1e-14


def test_generator_matches_twirl_reference_driven_ghz():
    h = np.kron(np.kron(X, I2), Z)
    for rho0 in (ghz_state(3), plus_state(3)):
        out = lindblad_evolve(rho0, h, 0.7, 0.05, dt=0.01)
        assert np.abs(out - twirl_evolve(rho0, h, 0.7, 0.05, 0.01)).max() < 1e-14


def test_information_flow_steps_like_lindblad_evolve():
    rho = random_state(2, np.random.default_rng(61))
    times, info, _ = information_flow(rho, 1.3, 0.05, dt=1e-3)
    expect = [information_content(rho)]
    for _ in range(50):
        rho = lindblad_evolve(rho, None, 1.3, 1e-3, 1e-3)
        expect.append(information_content(rho))
    assert len(times) == 51
    assert np.abs(info - expect).max() < 1e-14


@pytest.mark.parametrize("t,dt,fragment", [
    (0.0004, 1e-3, "t must cover at least one step of dt"),
    (0.0, 1e-3, "t must cover at least one step of dt"),
    (-0.5, 1e-3, "t must cover at least one step of dt"),
    (0.5, 0.0, "dt must be positive"),
    (0.5, -1e-3, "dt must be positive"),
])
def test_information_flow_rejects_edge_inputs(t, dt, fragment):
    with pytest.raises(ValueError, match=fragment):
        information_flow(plus_state(1), 1.0, t, dt=dt)


def test_information_flow_capped():
    with pytest.raises(ValueError, match="capped"):
        information_flow(plus_state(MAX_ORACLE_QUBITS + 1), 1.0, 0.01)


def exact_driven(rho0_bloch, t, rate_r):
    # H = X rotates (y, z) at angular rate 2 while everything decays e^{-rt}
    ax0, ay0, az0 = rho0_bloch
    decay = math.exp(-rate_r * t)
    c, s = math.cos(2.0 * t), math.sin(2.0 * t)
    return bloch_state(ax0 * decay, decay * (ay0 * c - az0 * s),
                       decay * (az0 * c + ay0 * s))


def test_rk4_fourth_order_convergence():
    bloch0 = (0.3, 0.5, 0.2)
    rho0 = bloch_state(*bloch0)
    exact = exact_driven(bloch0, 0.8, 1.0)
    errs = [trace_distance(lindblad_evolve(rho0, X, 1.0, 0.8, dt=dt), exact)
            for dt in (0.05, 0.025)]
    ratio = errs[0] / errs[1]
    assert 9.0 < ratio < 25.0  # halving dt cuts the error ~16x


def test_entropy_and_information():
    assert von_neumann_entropy(plus_state(2)) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(2.0)
    assert information_content(ghz_state(3)) == pytest.approx(3.0, abs=1e-12)
    assert information_content(np.eye(8) / 8.0) == pytest.approx(0.0, abs=1e-12)


def binary_entropy(p):
    q = 1.0 - p
    terms = [x * math.log2(x) for x in (p, q) if x > 0]
    return -sum(terms)


def test_information_flow_single_qubit():
    times, info, didt = information_flow(plus_state(1), 1.0, 0.5, dt=1e-3)
    assert times[-1] == pytest.approx(0.5)
    # closed form: I(t) = 1 - H((1 + e^{-t})/2)
    for idx in (100, 250, 500):
        lam = math.exp(-times[idx])
        assert info[idx] == pytest.approx(1.0 - binary_entropy((1 + lam) / 2),
                                          abs=1e-6)
    # the decay inequality dI/dt <= -r I away from the endpoints
    interior = slice(1, -1)
    assert np.all(didt[interior] <= -1.0 * info[interior] + 1e-6)


def test_information_decay_time_consistent_with_oracle():
    # after ln(2N)/r the register holds less than half a bit
    for n, rho0 in ((1, plus_state(1)), (2, ghz_state(2))):
        t_dead = information_decay_time(n, 1.0)
        out = lindblad_evolve(rho0, None, 1.0, t_dead, dt=0.01)
        assert information_content(out) < 0.5


def test_choi_basics():
    ident = depolarizing_choi(1.0)
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert np.allclose(ident, bell)
    assert np.allclose(depolarizing_choi(0.0), np.eye(4) / 4.0)
    for lam in (0.0, 0.3, 1.0):
        j = depolarizing_choi(lam)
        assert np.trace(j).real == pytest.approx(1.0)
        assert np.allclose(j, j.conj().T)


def test_apply_choi_reproduces_channel():
    rho = bloch_state(0.2, -0.3, 0.4)
    lam = 0.6
    out = apply_choi(depolarizing_choi(lam), rho)
    assert np.allclose(out, lam * rho + (1 - lam) * I2 / 2.0)
    # identity channel passes states through
    assert np.allclose(apply_choi(depolarizing_choi(1.0), rho), rho)


def test_pauli_mixture_matches_depolarizing():
    lam = 0.4
    w = 3.0 * (1.0 - lam) / 4.0
    probs = (1.0 - w, w / 3.0, w / 3.0, w / 3.0)  # I, X, Z, Y
    assert np.allclose(pauli_mixture_choi(probs), depolarizing_choi(lam))
    assert np.allclose(pauli_mixture_choi((1, 0, 0, 0)), depolarizing_choi(1.0))


def test_average_fidelity_closed_form():
    for lam in (0.0, 1.0 / 3.0, 0.5, 1.0):
        got = average_fidelity(depolarizing_choi(lam))
        assert got == pytest.approx((1.0 + lam) / 2.0, rel=1e-12)
    # asymmetric mixture: F = (2 p_I + 1)/3
    j = pauli_mixture_choi((0.7, 0.2, 0.1, 0.0))
    assert average_fidelity(j) == pytest.approx(0.8, rel=1e-12)


def test_average_fidelity_numeric_agrees():
    j = pauli_mixture_choi((0.7, 0.2, 0.1, 0.0))
    est = average_fidelity_numeric(j, 50_000, np.random.default_rng(31))
    assert est == pytest.approx(average_fidelity(j), abs=3e-3)
    with pytest.raises(ValueError):
        average_fidelity_numeric(j, 100, np.random.default_rng(1))


def test_entanglement_breaking_threshold():
    # depolarizing channels break entanglement exactly when lam <= 1/3
    assert is_entanglement_breaking(depolarizing_choi(0.2))
    assert is_entanglement_breaking(depolarizing_choi(1.0 / 3.0))
    assert not is_entanglement_breaking(depolarizing_choi(0.34))
    assert not is_entanglement_breaking(depolarizing_choi(1.0))


def test_trace_and_channel_distance():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(zero, one) == pytest.approx(1.0)
    assert trace_distance(zero, zero) == 0.0
    j_half = depolarizing_choi(0.5)
    assert channel_distance(j_half, j_half) == 0.0
    # depolarizing vs identity moves every pure Pauli eigenstate by (1-lam)/2
    assert channel_distance(j_half, depolarizing_choi(1.0)) == pytest.approx(
        0.25, rel=1e-12)


def test_mc_tomography_converges():
    exact = depolarizing_choi(math.exp(-0.8))
    coarse = mc_channel_tomography(1.0, 0.8, 2_000, np.random.default_rng(32))
    fine = mc_channel_tomography(1.0, 0.8, 200_000, np.random.default_rng(33))
    assert channel_distance(fine, exact) < 0.01
    assert channel_distance(fine, exact) < channel_distance(coarse, exact)
    with pytest.raises(ValueError):
        mc_channel_tomography(1.0, 0.8, 0, np.random.default_rng(1))


@pytest.mark.parametrize("n", [1, 2])
def test_oracle_equivalence_small(n):
    distance = oracle_equivalence_check(n, 1.0, 0.7, 150_000,
                                        np.random.default_rng([34, n]))
    assert distance < 8e-3
    with pytest.raises(ValueError):
        oracle_equivalence_check(4, 1.0, 0.1, 100, np.random.default_rng(1))


def test_oracle_equivalence_checks_rho0_size(monkeypatch):
    # the mismatch is reported before any integration or sampling
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a mismatched rho0")

    monkeypatch.setattr(oracle, "lindblad_evolve", integrate)
    gen = np.random.default_rng(36)
    state = gen.bit_generator.state
    for n, rho0 in ((1, ghz_state(2)), (3, plus_state(1))):
        with pytest.raises(ValueError, match=f"hold n_qubits = {n} qubits"):
            oracle_equivalence_check(n, 1.0, 0.4, 1_000, gen, rho0=rho0)
    assert gen.bit_generator.state == state


def test_oracle_equivalence_custom_state():
    rho0 = bloch_state(0.0, 0.0, 1.0)
    distance = oracle_equivalence_check(1, 2.0, 0.4, 100_000,
                                        np.random.default_rng(35), rho0=rho0)
    assert distance < 8e-3


def test_reference_states():
    for state in (ghz_state(2), ghz_state(3), plus_state(1), plus_state(3)):
        check_density_matrix(state)
        assert von_neumann_entropy(state) == pytest.approx(0.0, abs=1e-10)
