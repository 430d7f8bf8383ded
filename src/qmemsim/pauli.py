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
`sample_cumulative_frames` at weight p = 3(1 - e^{-rt})/4 (X, Y, Z each
with probability p/3); no event times or counts are sampled.

Every frame draw goes through one cell draw, `_hit_cells`, which returns
the hit cells of a register in ascending flat order, every cell hit at the
call's one weight; `_draw_frames` gives each one X, Y or Z code in new
zero frames, and the circuit rounds of protocols choose with `_hit_cells`
the blocks that take two hits or more.  The cell draw has two exact
orders, chosen by the weight.  Below SPARSE_WEIGHT (the low-noise regime
the protection lives in, where a round's weight is a few 1e-3) it draws
only the hit cells: one Binomial(N, p) hit count for the N cells of the
register, and that many uniform cells with the collisions redrawn until
distinct.  At or above it, it draws one uniform per cell.  Either way
`_draw_frames` then draws one uniform X, Y or Z per hit cell in ascending
order.  The two have the same law but not the same random stream.

Classical bits under the same noise flip at rate r/2 (the X/Y half of the
events), so a bit's value after time t is flipped with probability
(1 - e^{-rt})/2.
"""

from __future__ import annotations

import math

import numpy as np

I, X, Z, Y = 0, 1, 2, 3

#: labels indexed by code (note the code order I, X, Z, Y)
CODE_LABELS = "IXZY"

_LABEL_TO_CODE = {c: i for i, c in enumerate(CODE_LABELS)}

#: _hit_cells draws only the hit cells when the weight of a call is below
#: this.  The sparse draw beats the dense one up to p of about 0.085-0.1 at
#: 1e4 x 625, 1e4 x 125 and 3e4 x 125 cells; 1/32 leaves a margin for
#: hosts where the crossover falls lower.
SPARSE_WEIGHT = 1 / 32


def anticommutes(a, b):
    """1 where the Paulis anticommute, 0 where they commute (elementwise)."""
    return ((a & 1) & ((b >> 1) & 1)) ^ (((a >> 1) & 1) & (b & 1))


def frame_from_label(label):
    """Parse a string like 'XZZXI' into a code array."""
    try:
        return np.array([_LABEL_TO_CODE[c] for c in label], dtype=np.uint8)
    except KeyError as exc:
        raise ValueError(f"bad Pauli letter {exc.args[0]!r}") from exc


def frame_to_label(frame):
    return "".join(CODE_LABELS[c] for c in np.asarray(frame))


def _draw_frames(shape, p, rng):
    """New uint8 frames of that shape with X, Y or Z, each with probability
    p/3, at every cell: the hit cells (`_hit_cells`), then one uniform X, Y
    or Z per hit in ascending order."""
    gen = np.random.default_rng(rng)
    frames = np.zeros(shape, dtype=np.uint8)
    cells = _hit_cells(shape, p, gen)
    frames.flat[cells] = gen.integers(1, 4, cells.size, dtype=np.uint8)
    return frames


def _hit_cells(shape, p, gen):
    """Ascending flat indices of the hit cells of a register of that shape,
    each cell hit independently at weight p in [0, 1].

    Below SPARSE_WEIGHT: a hit count k ~ Binomial(N, p) for its N cells,
    then k uniform cells, those that collide redrawn until distinct (a
    uniform k-subset, since every step treats the cells alike).  Otherwise
    one uniform per cell.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing weight p must lie in [0, 1]")
    if p >= SPARSE_WEIGHT:
        return np.flatnonzero(gen.random(shape) < p)
    n = math.prod(shape)
    cells = gen.integers(0, n, gen.binomial(n, p))
    if cells.size < 2:
        return cells
    cells.sort()
    repeat = cells[1:] == cells[:-1]
    while repeat.any():
        # keep one copy of each cell and redraw the others; the kept cells
        # stay in order, so a stable sort merges in the rest
        redo = gen.integers(0, n, np.count_nonzero(repeat))
        cells = np.concatenate((cells[:1], cells[1:][~repeat], redo))
        cells.sort(kind="stable")
        repeat = cells[1:] == cells[:-1]
    return cells


def sample_cumulative_frames(n_qubits, duration, rate_r, trials, rng):
    """Cumulative Pauli frames of `trials` independent registers.

    Each (trial, qubit) cell is depolarized once at weight
    p = 3(1 - e^{-r duration})/4, the exact law of the product of its noise
    events over [0, duration].
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    return _draw_frames((trials, n_qubits),
                        -0.75 * np.expm1(-rate_r * duration), rng)
