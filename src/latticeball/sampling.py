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
shifted exponentials and no rejection is needed.  The Siegel set covers
the space of lattices with multiplicity >= 1, and no draw is weighted by
its multiplicity, so the sampler does not draw from Haar measure.
Measured against Siegel's mean V + 1 over 2e5 draws, its mean count
falls short by 22.5 % at t = 0.6 and by 1.2 % at t = 2: an undercount
concentrated at small radii.  The mean-count calibration against the
Siegel formula at t = 8 cannot see a bias that small there, and the
variance experiment refuses to report only when that calibration fails.
ROADMAP item 1 describes the exact fix (accept a draw with probability 4
over its multiplicity).

The sampler builds its 3 x 3 basis in Python floats rather than through
per-draw LAPACK calls, which cost more than the arithmetic at this size.
The rotation is Gram-Schmidt on the columns of a Gaussian matrix, the
same K as a QR factorisation with positive R diagonal; X = K A N is
formed entry by entry and its determinant by cofactors.  Against the
LAPACK construction on the same draws, entries differ in the last few
bits (at most 4.4e-14 relative on 2e4 draws, from Householder against
Gram-Schmidt rounding), and counts are identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
        # every entry of a draw lies within delta of the center's
        bound = math.prod(np.linalg.norm(np.abs(arr) + self.delta, axis=0))
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


@dataclass(frozen=True)
class HaarSamplerConfig:
    """Settings of the Siegel-set sampler; n = 3 is the only dimension."""

    n: int

    def __post_init__(self):
        if self.n != 3:
            raise ValueError(f"Haar sampling is implemented for n = 3 "
                             f"only, got n = {self.n}")


def _unit(v: tuple) -> tuple:
    r = math.hypot(*v)
    return (v[0] / r, v[1] / r, v[2] / r)


def _reject(v: tuple, q: tuple) -> tuple:
    """v minus its component along the unit vector q."""
    c = v[0] * q[0] + v[1] * q[1] + v[2] * q[2]
    return (v[0] - c * q[0], v[1] - c * q[1], v[2] - c * q[2])


def _so3_columns(z: list) -> tuple:
    """Haar rotation in SO(3) from nine standard Gaussians (a 3 x 3
    matrix, row-major), as its three columns.

    Gram-Schmidt on the Gaussian columns gives the Q of their QR
    factorisation with positive R diagonal, which is Haar on O(3).  Each
    projection is applied twice, so the columns stay orthogonal to
    rounding even when the Gaussian columns are nearly dependent.
    Column 0 is negated when the determinant is -1.
    """
    u = _unit((z[0], z[3], z[6]))
    v = _unit(_reject(_reject((z[1], z[4], z[7]), u), u))
    w = _reject(_reject((z[2], z[5], z[8]), u), v)
    w = _unit(_reject(_reject(w, u), v))
    det = (w[0] * (u[1] * v[2] - u[2] * v[1])
           + w[1] * (u[2] * v[0] - u[0] * v[2])
           + w[2] * (u[0] * v[1] - u[1] * v[0]))
    if det < 0:
        u = (-u[0], -u[1], -u[2])
    return u, v, w


def sample_haar_unimodular(config: HaarSamplerConfig,
                           seed: Seed) -> LatticeBasis:
    """A unimodular 3 x 3 basis drawn from the Siegel set under the
    invariant measure, one draw per seed.  Draws are not weighted by
    their multiplicity, so this is not exactly Haar (ROADMAP item 1)."""
    gen = rng_for(seed)
    s_min = math.log(SIEGEL_RATIO)
    s1 = s_min + gen.exponential(0.5)
    s2 = s_min + gen.exponential(0.5)
    v1 = (4.0 * s1 + 2.0 * s2) / 3.0
    v2 = (2.0 * s2 - 2.0 * s1) / 3.0
    e0, e1, e2 = gen.uniform(-0.5, 0.5, 3).tolist()
    u, v, w = _so3_columns(gen.standard_normal((3, 3)).ravel().tolist())
    # K A: column j of K scaled by A[j, j] = 1 / sqrt(a[j])
    b0 = 1.0 / math.sqrt(math.exp(v1))
    b1 = 1.0 / math.sqrt(math.exp(v2))
    b2 = 1.0 / math.sqrt(math.exp(-v1 - v2))
    # then (K A) N, N unit upper triangular with eta = (e0, e1, e2)
    rows = []
    for ui, vi, wi in zip(u, v, w):
        p, q, r = b0 * ui, b1 * vi, b2 * wi
        rows.append([p, p * e0 + q, p * e1 + q * e2 + r])
    (x00, x01, x02), (x10, x11, x12), (x20, x21, x22) = rows
    d = (x00 * (x11 * x22 - x12 * x21)
         - x01 * (x10 * x22 - x12 * x20)
         + x02 * (x10 * x21 - x11 * x20))
    for row in rows:
        row[-1] /= d
    basis = LatticeBasis(rows)
    if abs(basis.det - 1.0) > 1e-12:
        raise ArithmeticError("unit determinant not achieved")
    return basis
