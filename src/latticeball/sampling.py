"""Random lattice bases: compact perturbation families, Haar-random
unimodular lattices, and determinant bands.

Randomness contract: every draw is a pure function of a Seed, which
names a counter-based stream (Philox keyed by master and stream).  A
Monte Carlo experiment gives sample i the stream ``base_stream + i``,
so any subset of samples can be regenerated independently and results
never depend on evaluation order.

Haar sampling:

* n = 2 is exact.  A unimodular lattice is K * [[1, x], [0, y]] / sqrt(y)
  with (x, y) in the modular fundamental domain |x| <= 1/2, x^2 + y^2 >= 1
  under the hyperbolic density 1/y^2, and K a random rotation.  Proposals
  come from the slab y >= sqrt(3)/2 (y drawn by inverse CDF of 1/y^2)
  and are accepted when |tau| >= 1; about 9% are rejected.

* n = 3 samples Iwasawa coordinates on the classical Siegel set
  (eta in [-1/2, 1/2]^3, successive diagonal ratios >= sqrt(3)/2).
  Writing s1, s2 for the log ratios of consecutive diagonal entries of
  A, the invariant measure on the determinant-one slice restricted to
  that set factors as exp(-2 s1 - 2 s2) ds1 ds2 times Lebesgue in eta
  times Haar on the rotation, so s1 and s2 are independent shifted
  exponentials and no rejection is needed.  The Siegel set covers the
  space of lattices with multiplicity >= 1, and no draw is weighted by
  its multiplicity, so the sampler does not draw from Haar measure.
  Measured against Siegel's mean V + 1 over 2e5 draws, its mean count
  falls short by 22.5 % at t = 0.6 and by 1.2 % at t = 2: an undercount
  concentrated at small radii.  The mean-count calibration against the
  Siegel formula at t = 8 cannot see a bias that small there, and the
  variance experiment refuses to report only when that calibration
  fails.  ROADMAP item 1 describes the exact fix (accept a draw with
  probability 4 over its multiplicity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import LatticeBasis

_MAX_REJECT = 1_000_000

SIEGEL_RATIO = math.sqrt(3.0) / 2.0


class RejectionBudgetError(RuntimeError):
    """Rejection sampling failed to accept within the attempt budget."""


@dataclass(frozen=True)
class Seed:
    """Master key plus stream index for a counter-based generator."""

    master: int
    stream: int = 0

    def child(self, offset: int) -> "Seed":
        return Seed(self.master, self.stream + offset)


def rng_for(seed: Seed) -> np.random.Generator:
    key = np.array([seed.master % 2 ** 64, seed.stream % 2 ** 64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    n: int
    ratio_bound: float = SIEGEL_RATIO

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("Haar sampling is implemented for n in {2, 3}")
        if not (0 < self.ratio_bound <= 1):
            raise ValueError("ratio bound must lie in (0, 1]")


def _haar_rotation(gen: np.random.Generator, n: int) -> np.ndarray:
    """Haar measure on SO(n): QR of a Gaussian matrix, signs fixed."""
    M = gen.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _sample_fundamental_tau(gen: np.random.Generator) -> tuple[float, float]:
    y0 = SIEGEL_RATIO
    for _ in range(_MAX_REJECT):
        x = gen.uniform(-0.5, 0.5)
        y = y0 / (1.0 - gen.uniform())
        if x * x + y * y >= 1.0:
            return x, y
    raise RejectionBudgetError("fundamental-domain rejection stalled")


def sample_haar_unimodular(config: HaarSamplerConfig,
                           seed: Seed) -> LatticeBasis:
    gen = rng_for(seed)
    if config.n == 2:
        x, y = _sample_fundamental_tau(gen)
        shape = np.array([[1.0, x], [0.0, y]]) / math.sqrt(y)
        theta = gen.uniform(0.0, 2.0 * math.pi)
        K = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        X = K @ shape
    else:
        s_min = math.log(config.ratio_bound)
        s1 = s_min + gen.exponential(0.5)
        s2 = s_min + gen.exponential(0.5)
        v1 = (4.0 * s1 + 2.0 * s2) / 3.0
        v2 = (2.0 * s2 - 2.0 * s1) / 3.0
        a = np.array([math.exp(v1), math.exp(v2), math.exp(-v1 - v2)])
        A = np.diag(1.0 / np.sqrt(a))
        eta = gen.uniform(-0.5, 0.5, 3)
        N = np.array([[1.0, eta[0], eta[1]],
                      [0.0, 1.0, eta[2]],
                      [0.0, 0.0, 1.0]])
        K = _haar_rotation(gen, 3)
        X = K @ A @ N
    d = float(np.linalg.det(X))
    X[:, -1] /= d
    basis = LatticeBasis(X)
    if abs(basis.det - 1.0) > 1e-12:
        raise ArithmeticError("unit determinant not achieved")
    return basis


def sample_det_band(a: float, b: float, config: HaarSamplerConfig,
                    seed: Seed) -> LatticeBasis:
    """Haar shape scaled so the determinant is log-uniform in [a, b]."""
    if not (0 < a <= b):
        raise ValueError("need 0 < a <= b")
    unit = sample_haar_unimodular(config, seed)
    gen = rng_for(seed.child(1 << 32))
    u = gen.uniform(math.log(a), math.log(b))
    r = math.exp(u / config.n)
    return unit.scaled(r)
