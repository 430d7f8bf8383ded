"""Dense-matrix oracle: integrator accuracy, channel tools, MC cross-checks.

The single-qubit depolarizing channel has the closed form
rho(t) = e^{-rt} rho0 + (1 - e^{-rt}) I/2, which serves as the exact
reference for the integrator tests.
"""

import math

import numpy as np
import pytest

from qmemsim import oracle
from qmemsim.bounds import avg_fidelity_depolarizing, information_decay_time
from qmemsim.oracle import (MAX_ORACLE_QUBITS, PAULI_MATRICES, apply_choi,
                            average_fidelity, average_fidelity_numeric,
                            channel_distance, check_density_matrix,
                            choi_from_map, depolarizing_choi, ghz_state,
                            information_content, information_flow,
                            is_entanglement_breaking, lindblad_evolve,
                            mc_channel_tomography, n_qubits_of,
                            oracle_equivalence_check, pauli_mixture_choi,
                            pauli_string_matrix, plus_state, trace_distance,
                            von_neumann_entropy)

I2 = np.eye(2, dtype=complex)
X = PAULI_MATRICES[1]
Z = PAULI_MATRICES[2]
Y = PAULI_MATRICES[3]


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


def test_cached_site_operators_change_nothing(monkeypatch):
    ghz = ghz_state(3)
    h = np.kron(np.kron(X, I2), Z)
    cached = [lindblad_evolve(rho, h, 0.7, 0.05, dt=0.01)
              for rho in (ghz, plus_state(3), ghz)]
    ops = oracle._site_paulis(3)
    assert oracle._site_paulis(3) is ops
    with pytest.raises(ValueError):
        ops[0][0][0, 0] = 5.0
    # fresh operators on every call, as built before the cache existed
    monkeypatch.setattr(oracle, "_site_paulis", oracle._site_paulis.__wrapped__)
    fresh = lindblad_evolve(ghz, h, 0.7, 0.05, dt=0.01)
    assert fresh.tobytes() == cached[0].tobytes() == cached[2].tobytes()


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
        assert got == pytest.approx(avg_fidelity_depolarizing(lam), rel=1e-12)
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
    cmp_ = oracle_equivalence_check(n, 1.0, 0.7, 150_000,
                                    np.random.default_rng([34, n]))
    assert cmp_.distance < 8e-3
    with pytest.raises(ValueError):
        oracle_equivalence_check(4, 1.0, 0.1, 100, np.random.default_rng(1))


def test_oracle_equivalence_custom_state():
    rho0 = bloch_state(0.0, 0.0, 1.0)
    cmp_ = oracle_equivalence_check(1, 2.0, 0.4, 100_000,
                                    np.random.default_rng(35),
                                    rho0=rho0)
    assert cmp_.distance < 8e-3


def test_reference_states():
    for state in (ghz_state(2), ghz_state(3), plus_state(1), plus_state(3)):
        check_density_matrix(state)
        assert von_neumann_entropy(state) == pytest.approx(0.0, abs=1e-10)
