"""Pauli algebra, labels, and the depolarizing frame sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmemsim.pauli import (CODE_LABELS, anticommutes, depolarize,
                           frame_from_label, frame_to_label, identity_frame,
                           pauli_mul, sample_cumulative_frames,
                           single_qubit_probs, string_anticommutes, weight)

I, X, Z, Y = 0, 1, 2, 3

pauli = st.integers(min_value=0, max_value=3)


def test_code_labels_order():
    assert CODE_LABELS == "IXZY"


def test_product_table():
    # products modulo phase: XZ = Y, XY = Z, ZY = X, and involutivity
    assert pauli_mul(X, Z) == Y
    assert pauli_mul(X, Y) == Z
    assert pauli_mul(Z, Y) == X
    for a in (I, X, Z, Y):
        assert pauli_mul(a, a) == I
        assert pauli_mul(a, I) == a


@given(pauli, pauli, pauli)
def test_product_group_laws(a, b, c):
    assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))
    assert pauli_mul(a, b) == pauli_mul(b, a)  # true modulo phase


def test_anticommutation_table():
    assert anticommutes(X, Z) == 1
    assert anticommutes(X, Y) == 1
    assert anticommutes(Z, Y) == 1
    for a in (I, X, Z, Y):
        assert anticommutes(a, a) == 0
        assert anticommutes(I, a) == 0


@given(pauli, pauli)
def test_anticommutation_symmetric(a, b):
    assert anticommutes(a, b) == anticommutes(b, a)


@given(pauli, pauli, pauli)
def test_anticommutation_bilinear(a, b, c):
    # symplectic form: <a, bc> = <a, b> xor <a, c>
    assert anticommutes(a, pauli_mul(b, c)) == \
        anticommutes(a, b) ^ anticommutes(a, c)


def test_string_anticommutes():
    g1 = frame_from_label("XZZXI")
    g4 = frame_from_label("ZXIXZ")
    assert string_anticommutes(g1, g4) == 0
    x0 = frame_from_label("XIIII")
    assert string_anticommutes(x0, g4) == 1
    with pytest.raises(ValueError):
        string_anticommutes(g1, frame_from_label("XX"))


def test_labels_round_trip():
    for label in ("IIIII", "XZZXI", "YYYYY", "IZYXI"):
        assert frame_to_label(frame_from_label(label)) == label
    with pytest.raises(ValueError):
        frame_from_label("XQZ")


def test_weight_and_identity():
    assert weight(frame_from_label("IXIYI")) == 2
    assert weight(identity_frame(7)) == 0
    assert identity_frame(3, trials=4).shape == (4, 3)


def test_depolarize_marginals():
    p, trials = 0.3, 100_000
    frames = depolarize(identity_frame(5, trials), p, np.random.default_rng(6))
    rate = np.count_nonzero(frames) / frames.size
    assert abs(rate - p) < 4 * math.sqrt(p * (1 - p) / frames.size)
    nonzero = frames[frames > 0]
    counts = np.bincount(nonzero, minlength=4)[1:]
    assert counts.min() > 0.31 * nonzero.size


def test_depolarize_per_trial_weights():
    # row i is depolarized at weight p[i]; p = 0 rows stay untouched
    weights = np.array([0.0, 0.1, 0.6, 1.0])
    trials = 4 * 20_000
    p = np.tile(weights, trials // 4)
    frames = depolarize(identity_frame(3, trials), p, np.random.default_rng(7))
    for i, w in enumerate(weights):
        rows = frames[i::4]
        rate = np.count_nonzero(rows) / rows.size
        assert abs(rate - w) < 4 * math.sqrt(w * (1 - w) / rows.size) + 1e-12
    assert not frames[0::4].any() and frames[3::4].all()


def test_depolarize_xors_in_place():
    # depolarize composes onto an existing frame: same draws, XORed on
    start = np.tile(frame_from_label("XIZYI"), (50, 1))
    out = depolarize(start.copy(), 0.4, np.random.default_rng(3))
    fresh = depolarize(identity_frame(5, 50), 0.4, np.random.default_rng(3))
    assert np.array_equal(out, start ^ fresh)
    frames = start.copy()
    assert depolarize(frames, 0.4, np.random.default_rng(3)) is frames


def test_single_qubit_probs():
    p0 = single_qubit_probs(0.0, 1.0)
    assert np.allclose(p0, [1, 0, 0, 0])
    p = single_qubit_probs(1.0, 1.0)
    lam = math.exp(-1.0)
    assert p[0] == pytest.approx((1 + 3 * lam) / 4)
    assert p[1] == p[2] == p[3] == pytest.approx((1 - lam) / 4)
    assert p.sum() == pytest.approx(1.0)


def test_cumulative_frames_match_channel_probabilities():
    # the one-shot sampler must reproduce the single-qubit channel
    t, r, trials = 1.0, 1.0, 200_000
    frames = sample_cumulative_frames(1, t, r, trials, np.random.default_rng(5))
    counts = np.bincount(frames[:, 0], minlength=4)
    expected = single_qubit_probs(t, r) * trials
    sigma = np.sqrt(expected * (1 - expected / trials))
    assert np.all(np.abs(counts - expected) < 4 * sigma + 1)


def test_cumulative_frames_compose_in_time():
    # noise(t1) then noise(t2) has the law of noise(t1 + t2)
    r, trials = 1.0, 200_000
    gen = np.random.default_rng(8)
    frames = sample_cumulative_frames(1, 0.3, r, trials, gen)
    frames ^= sample_cumulative_frames(1, 0.9, r, trials, gen)
    counts = np.bincount(frames[:, 0], minlength=4)
    expected = single_qubit_probs(1.2, r) * trials
    sigma = np.sqrt(expected * (1 - expected / trials))
    assert np.all(np.abs(counts - expected) < 4 * sigma + 1)


def test_cumulative_frames_per_trial_durations():
    durations = np.array([0.0, 0.0, 2.0, 0.0])
    frames = sample_cumulative_frames(3, durations, 5.0, 4,
                                      np.random.default_rng(2))
    assert np.all(frames[[0, 1, 3]] == 0)
    with pytest.raises(ValueError):
        sample_cumulative_frames(3, np.array([0.1, -0.1]), 1.0, 2,
                                 np.random.default_rng(2))


def test_cumulative_frames_per_trial_durations_match_channel():
    # each duration group of a per-trial array follows its own channel
    durations = np.array([0.1, 0.5, 2.0])
    r, trials = 1.3, 3 * 60_000
    frames = sample_cumulative_frames(2, np.tile(durations, trials // 3), r,
                                      trials, np.random.default_rng(12))
    for i, t in enumerate(durations):
        group = frames[i::3].ravel()
        counts = np.bincount(group, minlength=4)
        expected = single_qubit_probs(t, r) * group.size
        sigma = np.sqrt(expected * (1 - expected / group.size))
        assert np.all(np.abs(counts - expected) < 4 * sigma + 1)


def test_cumulative_frames_zero_rate():
    frames = sample_cumulative_frames(4, 10.0, 0.0, 50,
                                      np.random.default_rng(1))
    assert not frames.any()
