"""Random lattice bases: compact perturbation families and Haar-random
unimodular lattices.

Randomness contract: every draw is a pure function of a Seed, which
names a counter-based stream (Philox keyed by master and stream, both
in [0, 2**64)).  A Monte Carlo experiment gives sample i the stream
``base_stream + i``, so any subset of samples can be regenerated
independently and results never depend on evaluation order.  rng_for
builds a fresh generator per call, keyed without the OS-entropy draw
that numpy's ``key=`` argument makes and then discards.

Haar sampling (n = 3 only) draws Iwasawa coordinates on the classical
Siegel set (eta in [-1/2, 1/2]^3, successive diagonal ratios >=
sqrt(3)/2).  Writing s1, s2 for the log ratios of consecutive diagonal
entries of A, the invariant measure on the determinant-one slice
restricted to that set factors as exp(-2 s1 - 2 s2) ds1 ds2 times
Lebesgue in eta times Haar on the rotation, so s1 and s2 are independent
shifted exponentials and no rejection is needed.  The rotation factor
is not drawn: rotating a lattice changes neither its count in a centred
ball nor |det|, so a draw is the upper triangular representative A N of
its lattice.  The Siegel set covers the space of lattices with
multiplicity >= 1, and no draw is weighted by its multiplicity, so the
sampler does not draw from Haar measure.
Measured against Siegel's mean V + 1 over 2e5 draws, its mean count
falls short by 22.5 % at t = 0.6 and by 1.2 % at t = 2: an undercount
concentrated at small radii.  The mean-count calibration against the
Siegel formula at t = 8 cannot see a bias that small there, and the
variance experiment refuses to report only when that calibration fails.
ROADMAP item 1 describes the exact fix (accept a draw with probability 4
over its multiplicity).

The sampler builds its bases a block of consecutive streams at a time,
in one array pass: per stream a fresh rng_for generator fills one row of
five variates, the bits of exponential(0.5) twice and uniform(-0.5, 0.5,
3), and numpy then forms X = A N for the whole block entry by entry, its
last column over the diagonal product.  Each step is the IEEE operation
a draw built alone would make (math.exp is still called per draw, since
numpy's exp rounds differently), so a draw's bits do not depend on its
block.  The block is checked by LatticeBasis.from_stack and then for
|det - 1| <= 1e-12.

Draw-ahead: a HaarSamplerConfig holds the latest block.  A call whose
seed lies in it is answered from it; a call for the stream just past it
builds the next block, twice as long up to 256 streams (_BLOCK_CAP) and
never reaching stream 2**64; any other call builds a block of its own
stream only.  mc_stats asks for consecutive streams in index order, so
its draws come in blocks that double up to 256, while a draw asked for
alone costs a block of one.  A draw that fails a check raises at the
call for its own stream, not at the call that built its block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import LatticeBasis

_MAX_REJECT = 1_000_000
_KEY_RANGE = 2 ** 64

SIEGEL_RATIO = math.sqrt(3.0) / 2.0


class RejectionBudgetError(RuntimeError):
    """Rejection sampling failed to accept within the attempt budget."""


@dataclass(frozen=True)
class Seed:
    """Master key plus stream index for a counter-based generator, each
    in [0, 2**64)."""

    master: int
    stream: int = 0

    def child(self, offset: int) -> "Seed":
        return Seed(self.master, self.stream + offset)


@functools.cache
def _key_sequence() -> type:
    """The seed-sequence type rng_for hands to Philox, built on first use:
    subclassing numpy.random's interface here at import time would load
    numpy.random with every ``import latticeball``."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        """A fixed Philox key posing as a seed sequence.  Philox asks its
        seed sequence for two 64-bit words and uses them as its key, with
        a zero counter; this one answers with the key itself."""

        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or dtype is not np.uint64:
                raise TypeError("a KeySequence only keys Philox")
            return self.key

    return KeySequence


def rng_for(seed: Seed) -> np.random.Generator:
    """A fresh Philox generator keyed by (master, stream).

    Both must lie in [0, 2**64), the range of a 64-bit key word: reduced
    modulo 2**64, two different seeds (say Seed(m, 2**64 - 1).child(1)
    and Seed(m, 0)) would share one stream.

    The key reaches Philox as a seed sequence, not through ``key=``: with
    ``key=`` Philox first builds a SeedSequence from OS entropy and then
    discards it, which cost more than half of the generator's
    construction.  The stream is the same, Philox keyed by
    [master, stream] from a zero counter, and every call still returns a
    generator of its own.
    """
    if not (0 <= seed.master < _KEY_RANGE and 0 <= seed.stream < _KEY_RANGE):
        raise ValueError(f"seed master and stream must lie in [0, 2**64), "
                         f"got {seed}")
    key = np.array([seed.master, seed.stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


# ---------------------------------------------------------------------------
# Compact perturbation families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactFamilySpec:
    """Entrywise-uniform box around a center basis, determinant floor."""

    center: np.ndarray
    delta: float
    det_floor: float

    def __post_init__(self):
        arr = np.array(self.center, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("center must be a square matrix")
        if not (self.delta > 0):
            raise ValueError("delta must be positive")
        if not (self.det_floor > 0):
            raise ValueError("det_floor must be positive")
        # Hadamard: |det| is at most the product of the column norms, and
        # every entry of a draw lies within delta of the center's; Python
        # floats overflow to inf without a warning
        bound = math.prod(math.hypot(*(abs(x) + self.delta for x in column))
                          for column in arr.T.tolist())
        if not math.isfinite(bound):
            raise ValueError(f"delta {self.delta:g} too large: the Hadamard "
                             f"bound on a draw's |det| overflows")
        if self.det_floor > bound:
            raise ValueError(f"det_floor {self.det_floor} is above "
                             f"{bound:.6g}, the largest |det| a draw can "
                             f"reach")
        arr.setflags(write=False)
        object.__setattr__(self, "center", arr)

    @property
    def n(self) -> int:
        return self.center.shape[0]


def sample_compact(spec: CompactFamilySpec, seed: Seed) -> LatticeBasis:
    """Draw center + uniform entrywise noise, rejecting small determinants."""
    gen = rng_for(seed)
    n = spec.n
    for _ in range(_MAX_REJECT):
        M = spec.center + gen.uniform(-spec.delta, spec.delta, (n, n))
        if abs(np.linalg.det(M)) >= spec.det_floor:
            return LatticeBasis(M)
    raise RejectionBudgetError(
        "no draw above the determinant floor in 1e6 attempts"
    )


# ---------------------------------------------------------------------------
# Haar-random unimodular lattices
# ---------------------------------------------------------------------------


# the longest block of Haar draws (the module docstring's draw-ahead
# rule).  On a 2-vCPU VM a block costs 10-11 us a draw at 64 streams and
# 9-9.5 at 256 and at 1024: longer blocks gain little, and draw streams
# past the end of a run for nothing
_BLOCK_CAP = 256


@dataclass(frozen=True)
class HaarSamplerConfig:
    """Settings of the Siegel-set sampler, whose draws are upper
    triangular (A N, one per lattice); n = 3 is the only dimension.  An
    instance also holds the sampler's latest block of draws (see the
    module docstring): state, not a setting, so it is left out of
    equality, hashing and repr.
    """

    n: int
    _block: tuple | None = field(default=None, init=False, compare=False,
                                 repr=False)

    def __post_init__(self):
        if self.n != 3:
            raise ValueError(f"Haar sampling is implemented for n = 3 "
                             f"only, got n = {self.n}")


def _haar_block(master: int, start: int, size: int) -> list:
    """The draws of streams start, ..., start + size - 1 of master: for
    each, its LatticeBasis or the error one of its checks raised."""
    var = np.empty((size, 5))
    for row, stream in zip(var, range(start, start + size)):
        gen = rng_for(Seed(master, stream))
        gen.standard_exponential(out=row[0:2])
        gen.random(out=row[2:5])
    var[:, 0:2] *= 0.5      # exponential(0.5), twice
    var[:, 2:5] -= 0.5      # uniform(-0.5, 0.5), three times
    var = var.T
    s_min = math.log(SIEGEL_RATIO)
    s1 = s_min + var[0]
    s2 = s_min + var[1]
    e0, e1, e2 = var[2:5]
    v1 = (4.0 * s1 + 2.0 * s2) / 3.0
    v2 = (2.0 * s2 - 2.0 * s1) / 3.0
    logs = np.stack([v1, v2, -v1 - v2]).ravel().tolist()
    a = np.array(list(map(math.exp, logs))).reshape(3, size)
    # A N: row j of N, unit upper triangular with eta = (e0, e1, e2),
    # scaled by A[j, j] = 1 / sqrt(a[j]); the last column over the det
    b0, b1, b2 = 1.0 / np.sqrt(a)
    d = b0 * (b1 * b2)
    zero = np.zeros(size)
    rows = [[b0, b0 * e0, b0 * e1 / d],
            [zero, b1, b1 * e2 / d],
            [zero, zero, b2 / d]]
    draws = LatticeBasis.from_stack(np.array(rows).transpose(2, 0, 1))
    for k, basis in enumerate(draws):
        if isinstance(basis, LatticeBasis) and abs(basis.det - 1.0) > 1e-12:
            draws[k] = ArithmeticError("unit determinant not achieved")
    return draws


def _raise_or_return(draw):
    if isinstance(draw, Exception):
        raise draw
    return draw


def sample_haar_unimodular(config: HaarSamplerConfig,
                           seed: Seed) -> LatticeBasis:
    """A unimodular 3 x 3 basis drawn from the Siegel set under the
    invariant measure, one draw per seed, as the upper triangular
    representative A N of its lattice.  Draws are not weighted by
    their multiplicity, so this is not exactly Haar (ROADMAP item 1).

    Draws are built a block of consecutive streams at a time and held
    by config, by the draw-ahead rule of the module docstring; each is
    still a pure function of its seed, and a check that fails on a
    stream raises at the call for that stream.
    """
    size = 1
    master, start, draws = config._block or (None, 0, [])
    if seed.master == master:
        k = seed.stream - start
        if 0 <= k < len(draws):
            return _raise_or_return(draws[k])
        if k == len(draws):
            size = min(2 * k, _BLOCK_CAP, _KEY_RANGE - seed.stream)
    draws = _haar_block(seed.master, seed.stream, max(size, 1))
    object.__setattr__(config, "_block", (seed.master, seed.stream, draws))
    return _raise_or_return(draws[0])
