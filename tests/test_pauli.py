"""Pauli algebra, labels, and the depolarizing frame sampler."""

import itertools
import math

import numpy as np
import pytest

import qmemsim.pauli as pauli_module
from distribution_gate import (BELOW_CUT, GATE_ALPHA, compare_frames,
                               frame_draws)
from qmemsim.pauli import (CODE_LABELS, SPARSE_WEIGHT, _draw_frames,
                           anticommutes, frame_from_label, frame_to_label,
                           sample_cumulative_frames)

I, X, Z, Y = 0, 1, 2, 3
PAULIS = (I, X, Z, Y)


def string_anticommutes(e, f):
    """Symplectic form of two equal-length Pauli strings (0 or 1)."""
    e = np.asarray(e)
    f = np.asarray(f)
    if e.shape[-1] != f.shape[-1]:
        raise ValueError("length mismatch")
    return np.bitwise_xor.reduce(anticommutes(e, f), axis=-1) & 1


def weight(frame):
    """Number of non-identity sites."""
    return int(np.count_nonzero(np.asarray(frame)))


def channel_probs(t, rate_r):
    """Law (I, X, Z, Y) of the cumulative Pauli at time t: (1 + 3 lam)/4 and
    (1 - lam)/4 each, lam = e^{-rt}."""
    lam = math.exp(-rate_r * t)
    return np.array([1 + 3 * lam, 1 - lam, 1 - lam, 1 - lam]) / 4


def test_code_labels_order():
    assert CODE_LABELS == "IXZY"


def test_product_table():
    # products modulo phase are XOR: XZ = Y, XY = Z, ZY = X, and involutivity
    assert X ^ Z == Y
    assert X ^ Y == Z
    assert Z ^ Y == X
    for a in (I, X, Z, Y):
        assert a ^ a == I
        assert a ^ I == a


def test_product_group_laws():
    for a, b, c in itertools.product(PAULIS, repeat=3):
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert a ^ b == b ^ a  # true modulo phase


def test_anticommutation_table():
    assert anticommutes(X, Z) == 1
    assert anticommutes(X, Y) == 1
    assert anticommutes(Z, Y) == 1
    for a in (I, X, Z, Y):
        assert anticommutes(a, a) == 0
        assert anticommutes(I, a) == 0


def test_anticommutation_symmetric():
    for a, b in itertools.product(PAULIS, repeat=2):
        assert anticommutes(a, b) == anticommutes(b, a)


def test_anticommutation_bilinear():
    # symplectic form: <a, bc> = <a, b> xor <a, c>
    for a, b, c in itertools.product(PAULIS, repeat=3):
        assert anticommutes(a, b ^ c) == \
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
    assert weight(np.zeros(7, dtype=np.uint8)) == 0


def test_depolarize_marginals():
    p, trials = 0.3, 100_000
    frames = _draw_frames((trials, 5), p, np.random.default_rng(6))
    rate = np.count_nonzero(frames) / frames.size
    assert abs(rate - p) < 4 * math.sqrt(p * (1 - p) / frames.size)
    nonzero = frames[frames > 0]
    counts = np.bincount(nonzero, minlength=4)[1:]
    assert counts.min() > 0.31 * nonzero.size


@pytest.mark.parametrize("p", [BELOW_CUT, SPARSE_WEIGHT])
def test_depolarize_draw_follows_largest_weight(p, monkeypatch):
    # the weight of the call picks the draw: below the cut the sparse one,
    # from the cut on the dense one
    def draw():
        return _draw_frames((3, 400), p, np.random.default_rng(9))
    default = draw()
    monkeypatch.setattr(pauli_module, "SPARSE_WEIGHT", math.inf)
    sparse = draw()
    monkeypatch.setattr(pauli_module, "SPARSE_WEIGHT", 0.0)
    dense = draw()
    assert not np.array_equal(sparse, dense)
    assert np.array_equal(default, sparse if p < SPARSE_WEIGHT else dense)


@pytest.mark.parametrize("shape, p", [
    *(pytest.param((100_000, 25), p, id=str(p))
      for p in (1e-3, 0.0037, BELOW_CUT, 0.3)),
    pytest.param((10_000, 625), 0.0037, id="10000x625-0.0037"),
    pytest.param((200_000, 5), BELOW_CUT, id="200000x5-below_cut")])
def test_sparse_draw_matches_dense_draw(shape, p):
    # hits per row, column of each hit and Pauli class, sparse against
    # dense; at 0.3 the sparse draw is forced, where most rows collide.
    # 10000 x 625 at 0.0037 is one circuit round: a one-row draw of about
    # 23 000 hits, about 43 of them collisions to redraw.  200000 x 5 below
    # the cut is a one-row draw of about 31 000 hits with about 490
    # collisions, against about 1950 rows of two hits: a collision redrawn
    # within its 5-cell row, not anywhere in the register, adds a quarter
    # to those rows
    sparse, dense = frame_draws(shape, p, 81)
    p_values = compare_frames(sparse, dense)
    assert min(p_values.values()) >= GATE_ALPHA, p_values


def test_sparse_draw_matches_dense_draw_in_small_calls():
    # (4, 25) calls: about a fifth of them draw fewer than two hits and
    # skip the collision sort
    sparse, dense = frame_draws((4, 25), BELOW_CUT, 83, calls=5000)
    p_values = compare_frames(sparse, dense)
    assert min(p_values.values()) >= GATE_ALPHA, p_values


@pytest.mark.parametrize("p", [-1e-3, math.nan, 1.5, math.inf])
def test_depolarize_rejects_weights_outside_unit_interval(p):
    # on the sparse side (below the cut, or NaN) and on the dense side alike
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _draw_frames((2, 5), p, np.random.default_rng(1))


def test_cumulative_frames_match_channel_probabilities():
    # the one-shot sampler must reproduce the single-qubit channel
    t, r, trials = 1.0, 1.0, 200_000
    frames = sample_cumulative_frames(1, t, r, trials, np.random.default_rng(5))
    counts = np.bincount(frames[:, 0], minlength=4)
    expected = channel_probs(t, r) * trials
    sigma = np.sqrt(expected * (1 - expected / trials))
    assert np.all(np.abs(counts - expected) < 4 * sigma + 1)


def test_cumulative_frames_compose_in_time():
    # noise(t1) then noise(t2) has the law of noise(t1 + t2)
    r, trials = 1.0, 200_000
    gen = np.random.default_rng(8)
    frames = sample_cumulative_frames(1, 0.3, r, trials, gen)
    frames ^= sample_cumulative_frames(1, 0.9, r, trials, gen)
    counts = np.bincount(frames[:, 0], minlength=4)
    expected = channel_probs(1.2, r) * trials
    sigma = np.sqrt(expected * (1 - expected / trials))
    assert np.all(np.abs(counts - expected) < 4 * sigma + 1)


def test_cumulative_frames_zero_rate():
    frames = sample_cumulative_frames(4, 10.0, 0.0, 50,
                                      np.random.default_rng(1))
    assert not frames.any()


def test_cumulative_frames_reject_negative_duration():
    with pytest.raises(ValueError, match="duration"):
        sample_cumulative_frames(3, -0.1, 1.0, 2, np.random.default_rng(2))
