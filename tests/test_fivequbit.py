"""Five-qubit code: table construction, decoding, and block error rates.

Frozen expected values (syndromes, failing-weight counts, b_exact spot
values) were computed by independent exhaustive enumeration of all 1024
five-qubit Pauli strings against the generator set and then pinned here.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmemsim.fivequbit import (BLOCK, N_STRINGS, DecoderTable, b_exact,
                               b_monte_carlo, decode_block, decode_blocks,
                               default_code, default_table, pack,
                               quadratic_bound_range, syndrome_bits,
                               syndrome_of, unpack)
from qmemsim.pauli import (frame_from_label, frame_to_label, identity_frame,
                           string_anticommutes, weight)

GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")

# failing-count polynomial coefficients, frozen from exhaustive enumeration
N_W = (0, 0, 90, 210, 270, 198)

frames_strategy = st.lists(st.integers(0, 3), min_size=5, max_size=5).map(
    lambda codes: np.array(codes, dtype=np.uint8))


def stabilizer_elements():
    """All 16 stabilizer group elements as code arrays."""
    gens = [frame_from_label(g) for g in GENERATORS]
    elements = []
    for picks in itertools.product((0, 1), repeat=4):
        el = identity_frame(BLOCK)
        for bit, g in zip(picks, gens):
            if bit:
                el = el ^ g
        elements.append(el)
    return elements


def test_generators_commute_pairwise():
    gens = [frame_from_label(g) for g in GENERATORS]
    for a, b in itertools.combinations(gens, 2):
        assert string_anticommutes(a, b) == 0


def test_logicals_commute_with_generators_and_anticommute():
    x_l = frame_from_label("XXXXX")
    z_l = frame_from_label("ZZZZZ")
    for g in GENERATORS:
        assert string_anticommutes(x_l, frame_from_label(g)) == 0
        assert string_anticommutes(z_l, frame_from_label(g)) == 0
    assert string_anticommutes(x_l, z_l) == 1


def test_stabilizer_nonidentity_elements_have_weight_four():
    # the perfect code's 15 nontrivial stabilizers all have weight 4
    weights = sorted(weight(el) for el in stabilizer_elements())
    assert weights == [0] + [4] * 15


def test_pack_unpack_round_trip():
    idx = np.arange(N_STRINGS)
    assert np.array_equal(pack(unpack(idx)), idx)
    assert unpack(idx).shape == (N_STRINGS, BLOCK)


def test_syndrome_of_identity_and_single_x():
    assert syndrome_of(identity_frame(BLOCK)) == 0
    # X on qubit 0 commutes with the first three generators and
    # anticommutes with ZXIXZ only: bits (0, 0, 0, 1)
    s = syndrome_of(frame_from_label("XIIII"))
    assert syndrome_bits(s) == (0, 0, 0, 1)
    assert s == 8


def test_weight_le_one_errors_have_distinct_syndromes():
    frames = [identity_frame(BLOCK)]
    for q in range(BLOCK):
        for code in (1, 2, 3):
            f = identity_frame(BLOCK)
            f[q] = code
            frames.append(f)
    syndromes = [syndrome_of(f) for f in frames]
    assert sorted(syndromes) == list(range(16))


def test_table_residual_classes():
    table = default_table()
    assert table.syndromes.shape == (N_STRINGS,)
    assert table.residuals.shape == (N_STRINGS,)
    # weight <= 1 errors decode to identity
    for q in range(BLOCK):
        for code in (0, 1, 2, 3):
            f = identity_frame(BLOCK)
            f[q] = code
            assert decode_block(f) == 0
    # counts by weight of failing strings, frozen from enumeration
    assert tuple(int(c) for c in table.failing_weight_counts) == N_W
    assert int(np.count_nonzero(table.residuals == 0)) == 256


def test_residuals_partition_evenly():
    # logical X, Z, Y classes are related by code symmetry: 256 strings each
    table = default_table()
    counts = np.bincount(table.residuals, minlength=4)
    assert counts.tolist() == [256, 256, 256, 256]


@settings(max_examples=60)
@given(frames_strategy, st.integers(0, 15))
def test_decode_invariant_under_stabilizer(frame, pick):
    element = stabilizer_elements()[pick]
    assert decode_block(frame) == decode_block(frame ^ element)


@settings(max_examples=60)
@given(frames_strategy, st.integers(0, 3))
def test_decode_covariant_under_logicals(frame, logical):
    x_l = frame_from_label("XXXXX")
    z_l = frame_from_label("ZZZZZ")
    op = {0: identity_frame(BLOCK), 1: x_l, 2: z_l, 3: x_l ^ z_l}[logical]
    assert decode_block(frame ^ op) == decode_block(frame) ^ logical


def test_decode_blocks_matches_scalar_decode():
    rng = np.random.default_rng(3)
    frames = rng.integers(0, 4, size=(40, 3, BLOCK), dtype=np.uint8)
    out = decode_blocks(frames)
    assert out.shape == (40, 3)
    for i in range(40):
        for j in range(3):
            assert out[i, j] == decode_block(frames[i, j])


def test_b_exact_matches_frozen_polynomial():
    for p in (0.0, 0.001, 0.0137, 0.2, 0.5, 1.0):
        expected = sum(n * (p / 3.0) ** w * (1.0 - p) ** (5 - w)
                       for w, n in enumerate(N_W))
        assert b_exact(p) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_b_exact_frozen_values():
    assert b_exact(0.001) == pytest.approx(9.977795550814813e-06, rel=1e-12)
    assert b_exact(0.01) == pytest.approx(0.0009779550814814817, rel=1e-12)
    assert b_exact(0.025) == pytest.approx(0.005909675925925925, rel=1e-12)
    assert b_exact(0.05) == pytest.approx(0.022331851851851853, rel=1e-12)
    assert b_exact(1.0) == pytest.approx(198.0 / 243.0, rel=1e-12)


def test_b_exact_shape():
    assert b_exact(0.0) == 0.0
    grid = np.linspace(0.0, 0.5, 101)
    vals = [b_exact(float(p)) for p in grid]
    assert all(b2 >= b1 for b1, b2 in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        b_exact(-0.1)
    with pytest.raises(ValueError):
        b_exact(1.1)


def test_quadratic_bound_holds_on_unit_interval():
    assert quadratic_bound_range() == 1.0


def test_b_exact_quadratic_leading_order():
    # small p: b(p) = (N_2/9) p^2 + O(p^3), N_2/9 = 10
    p = 1e-5
    assert b_exact(p) / p ** 2 == pytest.approx(10.0, rel=1e-3)


def test_b_monte_carlo_ci_covers_exact():
    gen = np.random.default_rng(9)
    for p in np.linspace(0.001, 0.5, 20):
        est = b_monte_carlo(float(p), 40_000, gen)
        assert est.ci_low <= b_exact(float(p)) <= est.ci_high


def test_b_monte_carlo_zero_p_short_circuit():
    est = b_monte_carlo(0.0, 1000, np.random.default_rng(1))
    assert est.estimate == est.ci_low == est.ci_high == 0.0


def test_table_build_is_deterministic():
    t1 = DecoderTable.build(default_code())
    t2 = default_table()
    assert np.array_equal(t1.residuals, t2.residuals)
    assert np.array_equal(t1.syndromes, t2.syndromes)


def test_frame_labels_for_corrections():
    # each correction is the unique weight <= 1 error of its syndrome
    table = default_table()
    corrections = unpack(table.corrections)
    for s in range(16):
        frame = corrections[s]
        assert weight(frame) <= 1
        assert syndrome_of(frame) == s
        assert frame_to_label(frame)  # label round-trips without error
