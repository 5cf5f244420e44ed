"""Mean-value identities over the space of unimodular lattices and the
Monte Carlo statistics that test them.

The mean of the count over Haar measure is vol(tB) + 1; the second
moment for n >= 3 adds c_n * vol(tB) with

    c_n = sum over coprime pairs (q, r) of 4 / ((q r)^n max(q, r)^n),

so the remainder E = N - vol has variance 1 + (c_n - 2) vol(tB).  The
constant is summed here with a proven tail bound instead of a fixed
cutoff.

Known to be wrong: this series is not Rogers' constant.  The Haar
variance for n >= 3 is (4 zeta(n-1)/zeta(n) - 2) vol(tB); the factor
(q r)^(-n) above should not be there.  compute_cn(3) gives 4.1403, where
4 zeta(2)/zeta(3) = 5.4737, so variance_prediction is not exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import LatticeBasis
from .counting import count_many, error_term, unit_ball_volume
from .sampling import Seed


class CalibrationError(RuntimeError):
    """Sampler failed its distributional calibration gate."""


# ---------------------------------------------------------------------------
# The lattice-sum constant c_n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnResult:
    n: int
    value: float
    tail_bound: float
    terms_used: int
    cutoff: int


def _zeta_upper(n: int) -> float:
    """Upper bound on zeta(n) from a partial sum plus integral tail."""
    K = 1000
    s = sum(k ** -float(n) for k in range(1, K + 1))
    return s + K ** (1 - n) / (n - 1)


# the proven tail of compute_cn's sum stays below this
_CN_TOL = 1e-10


def compute_cn(n: int) -> CnResult:
    """Sum the coprime pair series until the tail provably drops below
    _CN_TOL = 1e-10.

    Pairs with max(q, r) > Q contribute at most
    8 zeta(n) Q^(1-2n) / (2n - 1), which fixes the cutoff.
    """
    if n < 3:
        raise ValueError("the pair series is used for n >= 3 only")
    z = _zeta_upper(n)
    Q = math.ceil((8.0 * z / ((2 * n - 1) * _CN_TOL))
                  ** (1.0 / (2 * n - 1))) + 1
    # every power q^n, r^n and max(q, r)^n of the sum is at most Q^n
    if n * math.log2(Q) >= 1024:
        raise OverflowError(f"n = {n} too large: the pair series' powers "
                            f"{Q}**n overflow a float")
    total = 0.0
    terms = 0
    for q in range(1, Q + 1):
        qn = float(q) ** n
        for r in range(1, Q + 1):
            if math.gcd(q, r) == 1:
                total += 4.0 / (qn * float(r) ** n * float(max(q, r)) ** n)
                terms += 1
    tail = 8.0 * z * Q ** (1 - 2 * n) / (2 * n - 1)
    return CnResult(n=n, value=total, tail_bound=tail, terms_used=terms,
                    cutoff=Q)


# ---------------------------------------------------------------------------
# First and second moment predictions
# ---------------------------------------------------------------------------


def siegel_mean(n: int, t: float) -> float:
    """Haar average of the count: volume plus one (the origin's term)."""
    if t < 0:
        raise ValueError("radius must be nonnegative")
    return unit_ball_volume(n) * t ** n + 1.0


def variance_prediction(n: int, t: float, cn: CnResult) -> float:
    """Var[N - vol] = 1 + (c_n - 2) vol(tB) over unimodular lattices.

    Not exact: compute_cn's series is not Rogers' constant (4.1403 for
    n = 3, against 4 zeta(2)/zeta(3) = 5.4737; see the module docstring).
    """
    if n < 3:
        raise ValueError("variance formula requires n >= 3")
    if cn.n != n:
        raise ValueError("cn was computed for a different dimension")
    vol = unit_ball_volume(n) * t ** n
    return 1.0 + (cn.value - 2.0) * vol


# ---------------------------------------------------------------------------
# Monte Carlo statistics of the remainder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentStats:
    t: float
    samples: int
    mean_E: float
    rms_E: float
    var_E: float
    stderr_var: float
    mean_count: float


def thread_count() -> int:
    """Always 1: mc_stats draws its samples on the calling thread.  Kept
    only because perfbench/run.py reads it for its provenance record; it
    goes when that call does."""
    return 1


def mc_stats(sampler, t, samples: int, seed: Seed):
    """Remainder statistics over ``samples`` independent draws, at the
    radius t, or at each radius of a sequence t (then a list, in order).

    sampler is any callable Seed -> LatticeBasis.  Sample i always uses
    seed.child(i).  Every radius is checked finite and nonnegative; then
    the samples are drawn once, in index order on the calling thread, all
    radii are counted on that block by one count_many call, and each is
    reduced in sample order, exactly as a call at that radius alone.
    Index order is what lets a sampler draw ahead: asked for
    seed.child(i) right after seed.child(i - 1), sample_haar_unimodular
    builds the next streams in one array pass (see sampling), and the
    draws stay what each seed alone would give.

    The volumes of the whole block are one numpy expression, the same
    IEEE operations as ball_volume per basis; count_many refuses a block
    that mixes dimensions.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    radii = [t] if np.ndim(t) == 0 else list(t)
    if not radii or not all(0.0 <= r < math.inf for r in radii):
        raise ValueError("radius must be finite and nonnegative")
    bases = [sampler(seed.child(i)) for i in range(samples)]
    n = bases[0].n
    dets = np.array([X.det for X in bases])
    block = count_many(bases, radii)
    out = []
    for j, r in enumerate(radii):
        vol = r ** n * unit_ball_volume(n) / np.abs(dets)
        E = block[:, j] - vol
        mean = float(np.mean(E))
        var = float(np.var(E, ddof=1))
        m4 = float(np.mean((E - mean) ** 4))
        out.append(ExperimentStats(
            t=r, samples=samples, mean_E=mean,
            rms_E=float(np.sqrt(np.mean(E * E))), var_E=var,
            stderr_var=math.sqrt(max(m4 - var * var, 0.0) / samples),
            mean_count=float(np.mean(E + vol))))
    return out[0] if np.ndim(t) == 0 else out


def siegel_calibration(stats: ExperimentStats, n: int) -> tuple[float, float]:
    """Residual of the empirical mean count against vol + 1, and the
    standard error of that mean.  A sampler within its statistical
    rights keeps |residual| below a few stderr."""
    resid = stats.mean_count - siegel_mean(n, stats.t)
    stderr_mean = math.sqrt(stats.var_E / stats.samples)
    return resid, stderr_mean


# ---------------------------------------------------------------------------
# Scaling fits and the exact scaling identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    max_residual: float


def check_fit_grid(t_values) -> None:
    """Refuse radii that fit_scaling_exponent cannot fit, so a caller can
    check its grid before it spends a Monte Carlo run on it."""
    t_values = [float(t) for t in t_values]
    if len(set(t_values)) < 3:
        # fewer distinct t leave the slope undetermined: lstsq would
        # return its minimum-norm solution as if it were a fit
        raise ValueError("need at least three distinct t values")
    if any(t <= 1.0 for t in t_values):
        raise ValueError("t values must exceed 1")


def fit_scaling_exponent(points) -> ScalingFit:
    """Least squares in log-log coordinates for (t, rms) pairs."""
    pts = [(float(a), float(b)) for a, b in points]
    check_fit_grid(t for t, _ in pts)
    if any(r <= 0.0 for _, r in pts):
        raise ValueError("rms values must be positive (degenerate data)")
    x = np.log([t for t, _ in pts])
    y = np.log([r for _, r in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return ScalingFit(slope=float(slope), intercept=float(intercept),
                      max_residual=resid)


def scaling_identity_check(basis: LatticeBasis, r: float, t: float) -> bool:
    """error_term(rX, t) must equal error_term(X, t/r) exactly in exact
    arithmetic; verified here to an absolute tolerance of 1e-9."""
    if r <= 0:
        raise ValueError("scale must be positive")
    left = error_term(basis.scaled(r), t)
    right = error_term(basis, t / r)
    return abs(left - right) <= 1e-9
