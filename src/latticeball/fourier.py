"""Ball Fourier transforms, compactly supported mollifiers, and the
mollified Poisson summation that sandwiches the exact count.

The transform of the unit ball has closed forms in the two dimensions we
need: a trig expression for n = 3 and J1(2 pi s)/s for n = 2, with J1
taken from scipy.special.  Near s = 0 both give way to a short even
Taylor series.

The mollifier is a product B-spline: rho(x) = prod rho0(x_i), where rho0
is the order-8 B-spline on [-1, 1], the 8-fold convolution of the uniform
density on [-1/8, 1/8].  It is nonnegative with unit mass and support
[-1, 1], and its 1-d transform has the closed form
(sin(2 pi y/8) / (2 pi y/8))^8, which lies between 0 and
min(1, (4 / (pi |y|))^8).

The smoothed counts are Poisson sums over sup-norm shells of integer
frequencies.  On shell c every coordinate has |k_j| in 0..c, so the 1-d
transform is evaluated once per integer coordinate, c + 1 values, and
gathered into the product over the shell's points.  Every term is even
in k, so each shell is evaluated on one point of every +-k pair (half its
points) and mirrored into the full shell's order before summing, which
leaves the sums bit-identical to summing over the full shell.  The lower
and upper sums of the sandwich share one pass over the shells: points,
mollifier weights and dual norms are built once per shell and summed at
both radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import LatticeBasis, dual_norm
from .counting import count_points, unit_ball_volume

# ---------------------------------------------------------------------------
# Ball transforms
# ---------------------------------------------------------------------------

# below this the closed forms lose digits to trig cancellation, so an
# even Taylor series takes over
_SMALL_S = 1e-3


def hat_chi_ball(n: int, s):
    """Fourier transform of the unit-ball indicator at radial frequency s.

    n = 3: -cos(2 pi s)/(pi s^2) + sin(2 pi s)/(2 pi^2 s^3)
    n = 2: J1(2 pi s)/s
    with the value at s = 0 equal to the unit-ball volume and a short
    even Taylor series bridging the removable singularity.
    """
    if n not in (2, 3):
        raise ValueError("closed forms are implemented for n in {2, 3}")
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.abs(np.atleast_1d(s))
    out = np.empty_like(s)

    tiny = s < _SMALL_S
    big = ~tiny
    if n == 3:
        if np.any(big):
            sb = s[big]
            u = 2.0 * math.pi * sb
            out[big] = (-np.cos(u) / (math.pi * sb * sb)
                        + np.sin(u) / (2.0 * math.pi ** 2 * sb ** 3))
        if np.any(tiny):
            st = s[tiny]
            u2 = (2.0 * math.pi * st) ** 2
            # (u^2/3 - u^4/30 + u^6/840 - u^8/45360) / (pi s^2)
            poly = (1.0 / 3.0
                    - u2 * (1.0 / 30.0
                            - u2 * (1.0 / 840.0 - u2 / 45360.0)))
            out[tiny] = 4.0 * math.pi * poly
    else:
        if np.any(big):
            # imported here, not at module level: scipy.special costs about
            # 0.2 s and 25 MB on import, which callers that never ask for
            # the n = 2 transform should not pay
            from scipy.special import j1
            sb = s[big]
            out[big] = j1(2.0 * math.pi * sb) / sb
        if np.any(tiny):
            st = s[tiny]
            v = (math.pi * st) ** 2
            out[tiny] = math.pi * (1.0 - v / 2.0 + v * v / 12.0
                                   - v ** 3 / 144.0)
    return float(out[0]) if scalar else out


def hat_chi_lattice(basis: LatticeBasis, k) -> float:
    """Transform of the indicator of X^{-1}(unit ball) at frequency k."""
    s = dual_norm(basis, k)
    return hat_chi_ball(basis.n, s) / abs(basis.det)


# ---------------------------------------------------------------------------
# Mollifier
# ---------------------------------------------------------------------------

# order of the B-spline rho0; an even order keeps its transform
# nonnegative
_ORDER = 8


def _rho0_hat(y):
    """(sin(2 pi y/m) / (2 pi y/m))^m with m = _ORDER, the transform of
    the order-m B-spline on [-1, 1]; np.sinc(x) is sin(pi x) / (pi x)."""
    return np.sinc(2.0 * np.asarray(y, dtype=float) / _ORDER) ** _ORDER


@dataclass(frozen=True)
class MollifierSpec:
    """Product B-spline mollifier at a given smoothing width."""

    n: int
    epsilon: float
    support_radius: float

    @classmethod
    def build(cls, n: int, epsilon: float) -> "MollifierSpec":
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if n < 2:
            raise ValueError("dimension must be at least 2")
        return cls(n=n, epsilon=epsilon, support_radius=math.sqrt(n))

    def rho0_hat(self, y):
        out = _rho0_hat(y)
        return float(out) if out.ndim == 0 else out


def mollifier_hat(spec: MollifierSpec, xi) -> float:
    """Transform of the product mollifier at frequency vector xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (spec.n,):
        raise ValueError(f"expected frequency vector of length {spec.n}")
    return float(np.prod(spec.rho0_hat(xi)))


# ---------------------------------------------------------------------------
# Smoothed counts via Poisson summation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothedCount:
    t: float
    epsilon: float
    cutoff: int
    value: float
    tail_estimate: float
    tail_warning: bool


def _shell_points(n: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Half of the integer vectors with sup norm exactly c, one of every
    +-k pair, and the gather index that rebuilds the full shell.

    Face j of the shell holds the vectors with x_j = +-c whose earlier
    coordinates lie in (-c, c) and whose later ones run over [-c, c], so
    every vector of the shell lies on exactly one face.  K, shape (m, n),
    holds the x_j = +c side of each face in lexicographic order.  The
    x_j = -c side is that block negated and reversed, so in the full shell
    [face_0(+c), face_0(-c), face_1(+c), ...] the i-th point is
    +-K[index[i]]: each block of K followed by its reverse.
    """
    faces, index, start = [], [], 0
    for j in range(n):
        shape = (2 * c - 1,) * j + (1,) + (2 * c + 1,) * (n - 1 - j)
        face = np.indices(shape).reshape(n, -1).T
        face[:, :j] -= c - 1
        face[:, j] = c
        face[:, j + 1:] -= c
        faces.append(face)
        rows = np.arange(start, start + face.shape[0])
        index += [rows, rows[::-1]]
        start += face.shape[0]
    return np.vstack(faces), np.concatenate(index)


def _dual_norms(K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """|W k| at each row k of K."""
    return np.sqrt(np.sum((K.astype(float) @ W.T) ** 2, axis=1))


def _shell_rho(K: np.ndarray, c: int, epsilon: float) -> np.ndarray:
    """Mollifier transform prod_j rho0_hat(epsilon k_j) at each point k of
    shell c, gathered from rho0_hat at the c + 1 values |k_j| = 0..c."""
    r = _rho0_hat(epsilon * np.arange(c + 1))
    A = np.abs(K)
    rho = np.ones(K.shape[0])
    for j in range(K.shape[1]):
        rho *= r[A[:, j]]
    return rho


def _poisson_sums(basis: LatticeBasis, radii, epsilon: float, cutoff: int,
                  tail_target: float | None = None
                  ) -> list[tuple[float, float, int]]:
    """Main term plus shells 1..cutoff, at each radius of ``radii``, for
    the mollifier of width ``epsilon``.

    A shell's points, mollifier weights and dual norms do not depend on
    the radius, so each shell is built once and summed at every radius
    still accumulating.  Every term is even in k, so the weights, dual
    norms and ball transforms are evaluated on one point of each +-k pair
    and gathered into the full shell's order before summing: the sums add
    the same numbers in the same sequence as over the full shell.  With a
    tail target a radius stops once two consecutive shell estimates sit
    below the target.  Returns (value, tail, shells) per radius.
    """
    n = basis.n
    W = np.linalg.inv(basis.entries).T
    values = [t ** n * unit_ball_volume(n) / abs(basis.det) for t in radii]
    tails = [math.inf] * len(radii)
    shells = [0] * len(radii)
    below = [0] * len(radii)
    active = list(range(len(radii)))
    for c in range(1, cutoff + 1):
        K, index = _shell_points(n, c)
        rho = _shell_rho(K, c, epsilon)
        s = _dual_norms(K, W)
        for i in active:
            t = radii[i]
            half = (t ** n / abs(basis.det)) * hat_chi_ball(n, t * s) * rho
            terms = half[index]
            values[i] += float(np.sum(terms))
            tails[i] = 2.0 * float(np.sum(np.abs(terms)))
            shells[i] = c
            if tail_target is not None:
                below[i] = below[i] + 1 if tails[i] < tail_target else 0
        active = [i for i in active if below[i] < 2]
        if not active:
            break
    return list(zip(values, tails, shells))


def smoothed_count(basis: LatticeBasis, t: float, epsilon: float,
                   cutoff: int) -> SmoothedCount:
    """Poisson-summation value of the mollified count at radius t.

    The frequency sum is truncated at sup norm ``cutoff``; the reported
    tail estimate is twice the absolute sum over the outermost shell.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError("radius must be positive and finite")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    if not isinstance(cutoff, (int, np.integer)) or cutoff < 1:
        raise ValueError("cutoff must be an integer of at least 1")
    [(value, tail, _)] = _poisson_sums(basis, (t,), epsilon, cutoff)
    return SmoothedCount(t=t, epsilon=epsilon, cutoff=cutoff, value=value,
                         tail_estimate=tail, tail_warning=tail > 0.5)


@dataclass(frozen=True)
class SandwichResult:
    holds: bool | None
    status: str
    t: float
    epsilon: float
    shift: float
    count: int
    lower: float
    upper: float
    lower_tail: float
    upper_tail: float
    cutoff: int


# outermost shell a sandwich sum may reach before it is reported
# inconclusive
_MAX_CUTOFF = 10_000


def sandwich_check(basis: LatticeBasis, t: float, epsilon: float,
                   tail_target: float = 1e-3) -> SandwichResult:
    """Check N(t - d) <= N(t) <= N(t + d) for the smoothed counts.

    The mollifier lives on the integer side of Poisson summation, so the
    radius shift that makes the sandwich rigorous is the mollifier
    support radius sqrt(n) * epsilon stretched by the largest singular
    value of the basis (for the identity this is just sqrt(n) * epsilon).
    Inconclusive truncation is reported as status "inconclusive" with
    holds = None rather than a verdict.  A non-finite input, or a
    nonpositive epsilon or tail target, is rejected before any shell is
    summed: the early stop would never fire.
    """
    if not all(map(math.isfinite, (t, epsilon, tail_target))):
        raise ValueError("t, epsilon and tail_target must be finite")
    if epsilon <= 0 or tail_target <= 0:
        raise ValueError("epsilon and tail_target must be positive")
    sigma = float(np.linalg.norm(basis.entries, 2))
    shift = epsilon * math.sqrt(basis.n) * sigma
    if t - shift <= 0:
        raise ValueError(
            f"epsilon too large: shifted radius {t - shift:.3g} <= 0"
        )
    exact = count_points(basis, t)
    (lower, lo_tail, c1), (upper, hi_tail, c2) = _poisson_sums(
        basis, (t - shift, t + shift), epsilon, _MAX_CUTOFF, tail_target)
    cutoff = max(c1, c2)
    if lo_tail > tail_target or hi_tail > tail_target:
        return SandwichResult(None, "inconclusive", t, epsilon, shift,
                              exact, lower, upper, lo_tail, hi_tail, cutoff)
    slack_lo = 2.0 * (lo_tail + 1e-6)
    slack_hi = 2.0 * (hi_tail + 1e-6)
    ok = (exact - lower >= -slack_lo) and (upper - exact >= -slack_hi)
    return SandwichResult(ok, "holds" if ok else "violated", t, epsilon,
                          shift, exact, lower, upper, lo_tail, hi_tail,
                          cutoff)
