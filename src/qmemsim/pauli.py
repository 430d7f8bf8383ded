"""Pauli algebra modulo global phase, and depolarizing Pauli-frame noise.

Single-qubit Paulis are encoded as two-bit integers packing the symplectic
components, bit 0 = x, bit 1 = z:

    I = 0, X = 1, Z = 2, Y = 3

With this encoding the group product modulo phase is bitwise XOR, two Paulis
anticommute iff the symplectic form x1*z2 + z1*x2 is odd, and an n-qubit
string is a plain uint8 array multiplied elementwise by XOR.  Global phases
are never tracked; they are unobservable for error accounting.

Depolarizing noise at rate r replaces a qubit by the maximally mixed state at
rate r, i.e. applies a Pauli drawn uniformly from {I, X, Y, Z} at the events
of a rate-r Poisson process.  The product of one or more uniform Paulis is
again uniform, so after time t a qubit's cumulative frame is uniform with
probability 1 - e^{-rt} and the identity otherwise: channel probabilities
p_I = (1 + 3 e^{-rt})/4 and p_X = p_Y = p_Z = (1 - e^{-rt})/4, retention
lambda(t) = exp(-r t).  Frames are therefore drawn in one shot per cell by
`depolarize` at weight p = 3(1 - e^{-rt})/4 (X, Y, Z each with probability
p/3); no event times or counts are sampled.

Classical bits under the same noise flip at rate r/2 (the X/Y half of the
events), so a bit's value after time t is flipped with probability
(1 - e^{-rt})/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

I, X, Z, Y = 0, 1, 2, 3

#: labels indexed by code (note the code order I, X, Z, Y)
CODE_LABELS = "IXZY"

_LABEL_TO_CODE = {c: i for i, c in enumerate(CODE_LABELS)}


def pauli_mul(a, b):
    """Product modulo phase; works on scalars or arrays elementwise."""
    return a ^ b


def anticommutes(a, b):
    """1 where the Paulis anticommute, 0 where they commute (elementwise)."""
    return ((a & 1) & ((b >> 1) & 1)) ^ (((a >> 1) & 1) & (b & 1))


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


def identity_frame(n_qubits, trials=None):
    shape = n_qubits if trials is None else (trials, n_qubits)
    return np.zeros(shape, dtype=np.uint8)


def frame_from_label(label):
    """Parse a string like 'XZZXI' into a code array."""
    try:
        return np.array([_LABEL_TO_CODE[c] for c in label], dtype=np.uint8)
    except KeyError as exc:
        raise ValueError(f"bad Pauli letter {exc.args[0]!r}") from exc


def frame_to_label(frame):
    return "".join(CODE_LABELS[c] for c in np.asarray(frame))


@dataclass(frozen=True)
class RngStream:
    """Deterministic, hierarchically addressable random stream.

    Identical (master_seed, key) pairs give identical event sequences
    regardless of how trials are distributed over workers, because each
    stream derives from an independent SeedSequence spawn key rather than
    from the consumption order of a shared generator.  child(i, j, ...)
    extends the key, so per-trial streams are stable under reordering.
    """

    master_seed: int
    key: tuple = (0,)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=tuple(self.key))
        return np.random.default_rng(ss)

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.master_seed, tuple(self.key) + tuple(indices))


def as_generator(rng) -> np.random.Generator:
    """Accept a Generator, an RngStream, or a plain int seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot make a Generator from {type(rng).__name__}")


def depolarize(frames, p, rng):
    """XOR X, Y or Z, each with probability p/3, onto every cell, in place.

    frames is a (trials, n) uint8 array; p is a scalar or a per-trial array
    (trials,).  Draws one uniform per cell, then one Pauli per hit cell in
    row-major order.  Returns frames.
    """
    gen = as_generator(rng)
    p = np.asarray(p, dtype=float)
    hit = gen.random(frames.shape) < (p[:, None] if p.ndim == 1 else p)
    frames[hit] ^= gen.integers(1, 4, np.count_nonzero(hit), dtype=np.uint8)
    return frames


def sample_cumulative_frames(n_qubits, duration, rate_r, trials, rng):
    """Cumulative Pauli frames of `trials` independent registers.

    Each (trial, qubit) cell is depolarized once at weight
    p = 3(1 - e^{-r duration})/4, the exact law of the product of its noise
    events over [0, duration].  duration may be a scalar or a per-trial
    array (trials,).
    """
    duration = np.asarray(duration, dtype=float)
    if np.any(duration < 0):
        raise ValueError("duration must be >= 0")
    frames = np.zeros((trials, n_qubits), dtype=np.uint8)
    return depolarize(frames, -0.75 * np.expm1(-rate_r * duration), rng)


def single_qubit_probs(t, rate_r):
    """Channel probabilities (indexed by code) of the cumulative Pauli at time t."""
    lam = np.exp(-rate_r * t)
    return np.array([(1 + 3 * lam) / 4, (1 - lam) / 4, (1 - lam) / 4, (1 - lam) / 4])
