"""The [[5,1,3]] five-qubit code: syndrome decoding and block error rates.

Conventions, fixed once and tested:

* Stabilizer generators GENERATORS, in order g1..g4: XZZXI, IXZZX, XIXZZ,
  ZXIXZ (cyclic shifts of XZZXI; the fifth shift is the product of the
  others).
* Logical operators: LOGICAL_X = XXXXX, LOGICAL_Z = ZZZZZ.
* The syndrome of an error e is the 4-bit integer whose bit i is 1 iff e
  anticommutes with generator g_{i+1}; displayed as the tuple (s1, s2, s3, s4).
* The 16 syndromes are in bijection with the 16 weight<=1 errors; the decoder
  applies that unique low-weight correction.
* The residual logical class of a corrected error c (which commutes with all
  generators by construction) is the Pauli with x component = 1 iff c
  anticommutes with logical Z and z component = 1 iff c anticommutes with
  logical X; class I means c is a stabilizer, X/Z/Y mean a logical fault.

Five-site Pauli strings pack into indices 0..1023 with site s contributing
code * 4**s.  Because each base-4 digit occupies its own bit pair, bitwise
XOR of packed indices is sitewise Pauli multiplication, and the whole decode
map is a 1024-entry lookup table, built once (default_table) and shared by
every decode and block error rate.

Block error rate convention: ``b_exact(p)`` takes the depolarizing weight p,
meaning each qubit independently suffers X, Y, Z each with probability p/3.
The cumulative channel of the noise model at time t has weight
p(t) = 3(1 - e^{-rt})/4.  The failing strings of each error weight split
evenly among the logical classes X, Z and Y, so a decoded depolarized block
is a depolarized logical qubit, of weight b_exact(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import I, _draw_frames, anticommutes, frame_from_label
from .stats import wilson_interval

GENERATORS = np.array([frame_from_label(s)
                       for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")])
LOGICAL_X = frame_from_label("XXXXX")
LOGICAL_Z = frame_from_label("ZZZZZ")

BLOCK = 5
N_STRINGS = 4 ** BLOCK


def unpack(indices):
    """Packed base-4 indices -> (..., 5) code arrays."""
    idx = np.asarray(indices, dtype=np.int64)
    return ((idx[..., None] >> (2 * np.arange(BLOCK))) & 3).astype(np.uint8)


def _syndromes(codes, checks=GENERATORS):
    """(...) uint8 of (..., 5) code arrays; bit i is 1 iff the string
    anticommutes with checks[i]."""
    bits = np.bitwise_xor.reduce(anticommutes(codes[..., None, :], checks),
                                 axis=-1)
    return np.bitwise_or.reduce(bits << np.arange(len(checks), dtype=np.uint8),
                                axis=-1)


@dataclass(frozen=True)
class DecoderTable:
    """Precomputed decode maps over all 1024 five-site Pauli strings."""

    syndromes: np.ndarray    # (1024,) uint8, syndrome of each packed error
    corrections: np.ndarray  # (16,) int64, packed weight<=1 correction per syndrome
    residuals: np.ndarray    # (1024,) uint8, logical class after correction
    failing_weight_counts: np.ndarray  # (6,) counts of residual != I by error weight

    @classmethod
    def build(cls) -> "DecoderTable":
        idx = np.arange(N_STRINGS, dtype=np.int64)
        codes = unpack(idx)
        syn = _syndromes(codes)
        weights = (codes != I).sum(axis=1)

        # the 16 weight<=1 errors and their syndromes must be a bijection;
        # sorted, not np.unique, whose first call imports numpy.ma (20 ms)
        low = weights <= 1
        if not np.array_equal(np.sort(syn[low]), np.arange(16)):
            raise RuntimeError("syndrome collision among weight<=1 errors")
        corrections = np.empty(16, dtype=np.int64)
        corrections[syn[low]] = idx[low]

        ccodes = unpack(idx ^ corrections[syn])
        if _syndromes(ccodes).any():
            raise RuntimeError("corrected error fails to commute with generators")
        # x component: anticommutes with logical Z; z component: with X
        residuals = _syndromes(ccodes, np.array([LOGICAL_Z, LOGICAL_X]))

        counts = np.bincount(weights[residuals != I], minlength=6)
        return cls(syndromes=syn, corrections=corrections, residuals=residuals,
                   failing_weight_counts=counts)


@lru_cache(maxsize=1)
def default_table() -> DecoderTable:
    return DecoderTable.build()


def decode_blocks(frames):
    """Vectorized decode of (..., 5) frames to residual codes (...).

    Packs in uint8 shifts for sites 0-3 and one uint16 shift for site 4,
    about twice as fast as an int64 product with the powers of 4.
    """
    f = np.asarray(frames, dtype=np.uint8)
    if f.shape[-1] != BLOCK:
        raise ValueError("last axis must have length 5")
    low = f[..., 0] | f[..., 1] << 2 | f[..., 2] << 4 | f[..., 3] << 6
    idx = low.astype(np.uint16)
    idx |= f[..., 4].astype(np.uint16) << 8
    return default_table().residuals[idx]


def b_exact(p):
    """Exact block logical error rate at depolarizing weight p.

    Sums the probability of the 1024 error strings whose decoded residual is
    a logical fault; only the error weight matters, so the sum collapses onto
    the failing-weight counts.  Leading behavior is 10 p^2 (1-p)^3: exactly
    the 90 weight-2 errors fail at second order.

    p may be an array with every entry in [0, 1]; each entry of the result
    equals the scalar call at that entry bit for bit.  A scalar p (a Python
    float, a numpy scalar or a 0-d array) takes the same sum, left to right,
    in Python floats, and gives a float.
    """
    if np.ndim(p) == 0:
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        total = 0.0
        for w, n in enumerate(default_table().failing_weight_counts.tolist()):
            total += n * (p / 3.0) ** w * (1.0 - p) ** (BLOCK - w)
        return total
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p must be in [0, 1]")
    w, q = np.arange(BLOCK + 1), p[..., None]
    # np.float_power takes the C library's pow, as Python's float ** does;
    # the vector loops of np.power round some of these powers differently
    return (default_table().failing_weight_counts * np.float_power(q / 3.0, w)
            * np.float_power(1.0 - q, BLOCK - w)).sum(axis=-1)


@dataclass(frozen=True)
class BlockErrorEstimate:
    estimate: float
    ci_low: float
    ci_high: float


def b_monte_carlo(p, trials, rng) -> BlockErrorEstimate:
    """Monte Carlo estimate of the block error rate with a Wilson CI at
    wilson_interval's default z (two-sided 99.9%).

    p = 0 admits no errors at all, so the estimate is exactly 0 with a
    zero-width interval and no sampling is done.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if p == 0.0:
        return BlockErrorEstimate(estimate=0.0, ci_low=0.0, ci_high=0.0)
    frames = _draw_frames((trials, BLOCK), p, rng)
    failures = int(np.count_nonzero(decode_blocks(frames)))
    lo, hi = wilson_interval(failures, trials)
    return BlockErrorEstimate(estimate=failures / trials, ci_low=lo,
                              ci_high=hi)


def quadratic_bound_range():
    """Largest prefix [0, p_max] of the grid of step 1e-3 on which
    b_exact(p) <= 10 p^2.

    Determined empirically by scanning; with this decoder the bound holds on
    the whole interval, so p_max = 1.
    """
    step = 1e-3
    grid = np.arange(0.0, 1.0 + step / 2, step)
    ok = b_exact(grid) <= 10 * grid * grid + 1e-15
    if not ok[0]:
        return 0.0
    bad = np.flatnonzero(~ok)
    return float(grid[-1]) if bad.size == 0 else float(grid[bad[0] - 1])
