"""Five-qubit code: table construction, decoding, and block error rates.

Frozen expected values (syndromes, failing-weight counts, b_exact spot
values) were computed by independent exhaustive enumeration of all 1024
five-qubit Pauli strings against the generator set and then pinned here.
"""

import itertools

import numpy as np
import pytest

from qmemsim.fivequbit import (BLOCK, N_STRINGS, DecoderTable, b_exact,
                               b_monte_carlo, decode_blocks, default_table,
                               quadratic_bound_range, unpack)
from qmemsim.pauli import frame_from_label, frame_to_label
from test_pauli import string_anticommutes, weight

GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")

# failing-count polynomial coefficients, frozen from exhaustive enumeration
N_W = (0, 0, 90, 210, 270, 198)

POW4 = 4 ** np.arange(BLOCK)


def pack(frames):
    """Pack (..., 5) code arrays into base-4 indices, site s as code * 4**s."""
    return np.asarray(frames, dtype=np.int64) @ POW4


def syndrome_bits(s):
    return tuple((s >> i) & 1 for i in range(4))


def decode_one(frame) -> int:
    """Residual code of one five-qubit frame, read off the table."""
    return int(default_table().residuals[pack(frame)])


def syndrome_one(frame) -> int:
    """4-bit syndrome of one five-qubit frame, read off the table."""
    return int(default_table().syndromes[pack(frame)])


def block_residual_probs(site_probs):
    """Exact residual class distribution of one block of iid sites, by
    brute force: each of the 1024 strings' probability, added up by class."""
    table = default_table()
    codes = unpack(np.arange(4 ** BLOCK))
    string_probs = np.prod(np.asarray(site_probs)[codes], axis=1)
    out = np.zeros(4)
    np.add.at(out, table.residuals, string_probs)
    return out


def stabilizer_elements():
    """All 16 stabilizer group elements as code arrays."""
    gens = [frame_from_label(g) for g in GENERATORS]
    elements = []
    for picks in itertools.product((0, 1), repeat=4):
        el = np.zeros(BLOCK, dtype=np.uint8)
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
    assert syndrome_one(np.zeros(BLOCK, dtype=np.uint8)) == 0
    # X on qubit 0 commutes with the first three generators and
    # anticommutes with ZXIXZ only: bits (0, 0, 0, 1)
    s = syndrome_one(frame_from_label("XIIII"))
    assert syndrome_bits(s) == (0, 0, 0, 1)
    assert s == 8


def test_weight_le_one_errors_have_distinct_syndromes():
    frames = [np.zeros(BLOCK, dtype=np.uint8)]
    for q in range(BLOCK):
        for code in (1, 2, 3):
            f = np.zeros(BLOCK, dtype=np.uint8)
            f[q] = code
            frames.append(f)
    syndromes = [syndrome_one(f) for f in frames]
    assert sorted(syndromes) == list(range(16))


def test_table_residual_classes():
    table = default_table()
    assert table.syndromes.shape == (N_STRINGS,)
    assert table.residuals.shape == (N_STRINGS,)
    # weight <= 1 errors decode to identity
    for q in range(BLOCK):
        for code in (0, 1, 2, 3):
            f = np.zeros(BLOCK, dtype=np.uint8)
            f[q] = code
            assert decode_one(f) == 0
    # counts by weight of failing strings, frozen from enumeration
    assert tuple(int(c) for c in table.failing_weight_counts) == N_W
    assert int(np.count_nonzero(table.residuals == 0)) == 256


def test_residuals_partition_evenly():
    # logical X, Z, Y classes are related by code symmetry: 256 strings each
    table = default_table()
    counts = np.bincount(table.residuals, minlength=4)
    assert counts.tolist() == [256, 256, 256, 256]


def test_decode_invariant_under_stabilizer():
    # every string under each of the 16 stabilizer elements
    codes = unpack(np.arange(N_STRINGS))
    residuals = decode_blocks(codes)
    for element in stabilizer_elements():
        assert np.array_equal(decode_blocks(codes ^ element), residuals)


def test_decode_covariant_under_logicals():
    # every string under each of the 4 logicals I, X, Z, Y (codes 0-3)
    codes = unpack(np.arange(N_STRINGS))
    residuals = decode_blocks(codes)
    x_l = frame_from_label("XXXXX")
    z_l = frame_from_label("ZZZZZ")
    ops = (np.zeros(BLOCK, dtype=np.uint8), x_l, z_l, x_l ^ z_l)
    for logical, op in enumerate(ops):
        assert np.array_equal(decode_blocks(codes ^ op), residuals ^ logical)


def test_decode_blocks_matches_scalar_decode():
    rng = np.random.default_rng(3)
    frames = rng.integers(0, 4, size=(40, 3, BLOCK), dtype=np.uint8)
    out = decode_blocks(frames)
    assert out.shape == (40, 3)
    for i in range(40):
        for j in range(3):
            assert out[i, j] == decode_one(frames[i, j])


def test_decode_blocks_matches_table_on_every_string():
    # the uint8 pack of decode_blocks against pack on all 1024 strings, on a
    # contiguous array and on a non-contiguous view of the same strings
    residuals = default_table().residuals
    strings = unpack(np.arange(N_STRINGS))
    assert np.array_equal(decode_blocks(strings), residuals[pack(strings)])
    wide = np.zeros((N_STRINGS, 2 * BLOCK), dtype=np.uint8)
    wide[:, ::2] = strings
    view = wide[::-1, ::2]
    assert not view.flags.c_contiguous
    assert np.array_equal(decode_blocks(view), residuals[pack(view)])
    assert np.array_equal(decode_blocks(view), decode_blocks(strings)[::-1])


def test_b_exact_matches_frozen_polynomial():
    for p in (0.0, 0.001, 0.0137, 0.2, 0.5, 1.0):
        expected = sum(n * (p / 3.0) ** w * (1.0 - p) ** (5 - w)
                       for w, n in enumerate(N_W))
        assert b_exact(p) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_residual_classes_symmetric_at_every_weight():
    # the failing strings of each error weight split evenly among X, Z and
    # Y, so a decoded depolarized block is depolarized: the exact channel of
    # the protocols carries one fault weight per level on this alone
    table = default_table()
    weights = (unpack(np.arange(N_STRINGS)) != 0).sum(axis=1)
    by_class = [np.bincount(weights[table.residuals == c], minlength=BLOCK + 1)
                for c in (1, 2, 3)]
    assert by_class[0].tolist() == [n // 3 for n in N_W]
    assert by_class[0].tolist() == by_class[1].tolist() == by_class[2].tolist()


def test_depolarized_block_decodes_to_b_exact():
    # brute-force enumeration of a depolarized block: the residual law is
    # (1 - b, b/3, b/3, b/3) at b = b_exact(p), on the whole unit interval
    for p in np.linspace(0.0, 1.0, 101):
        out = block_residual_probs([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
        b = b_exact(float(p))
        assert out[1:] == pytest.approx([b / 3.0] * 3, rel=1e-12, abs=1e-300)
        assert out[0] == pytest.approx(1.0 - b, rel=1e-12)


def test_b_exact_array_matches_scalar_calls():
    # bit for bit, on random weights, small weights and a (2, n) grid, and
    # equal to the closed form in Python floats, whose values the bp-curve
    # CSV digests pin
    rng = np.random.default_rng(15)
    ps = np.concatenate([rng.random(2_000), rng.random(500) * 1e-3,
                         np.linspace(0.0, 1.0, 1001)])
    scalar = [b_exact(float(p)) for p in ps]
    assert np.array_equal(b_exact(ps), scalar)
    assert scalar == [sum(n * (p / 3.0) ** w * (1.0 - p) ** (5 - w)
                          for w, n in enumerate(N_W)) for p in ps.tolist()]
    grid = ps[:2_000].reshape(2, -1)
    assert b_exact(grid).shape == grid.shape
    assert np.array_equal(b_exact(grid).ravel(), b_exact(grid.ravel()))
    for bad in (-1e-300, 1.0 + 1e-15, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            b_exact(np.array([0.1, bad, 0.2]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            b_exact(bad)


def test_b_exact_float_path_matches_array_form():
    # a scalar takes the sum in Python floats; it equals the array form
    # bit for bit on a dense grid with 0, 1, their neighbouring floats and
    # weights from 1e-300 to 1, as a Python float, and on every seventh
    # point of it as a numpy float and as a 0-d array
    grid = np.concatenate([
        [0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0),
         np.nextafter(np.nextafter(0.0, 1.0), 1.0),
         np.nextafter(np.nextafter(1.0, 0.0), 0.0)],
        np.linspace(0.0, 1.0, 20_001), np.logspace(-300, 0, 20_001)])
    want = b_exact(grid)
    floats = [b_exact(p) for p in grid.tolist()]
    assert all(type(b) is float for b in floats)
    assert np.array_equal(floats, want)
    assert np.array_equal([b_exact(p) for p in grid[::7]], want[::7])
    assert np.array_equal([b_exact(np.array(p)) for p in grid[::7]],
                          want[::7])
    for bad in (-1e-300, np.nextafter(1.0, 2.0), np.nan, np.inf):
        for p in (bad, np.float64(bad), np.array(bad)):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                b_exact(p)


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
    t1 = DecoderTable.build()
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
        assert syndrome_one(frame) == s
        assert frame_to_label(frame)  # label round-trips without error
