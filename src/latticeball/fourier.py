"""Ball Fourier transforms, compactly supported mollifiers, and the
mollified Poisson summation that sandwiches the exact count.

The transform of the unit ball has closed forms in the two dimensions we
need: a trig expression for n = 3 and J1(2 pi s)/s for n = 2, with J1
taken from scipy.special.  Near s = 0 both give way to a short even
Taylor series.

The mollifier is a normalized product bump: rho(x) = prod rho0(x_i) with
rho0 proportional to exp(-1/(1-x^2)) on [-1, 1] and unit mass.  Its 1-d
transform is tabulated once on a uniform grid and interpolated cubically;
the table is shared between instances because it does not depend on the
smoothing width.

The smoothed counts are Poisson sums over sup-norm shells of integer
frequencies.  On shell c every coordinate has |k_j| in 0..c, so the 1-d
transform is interpolated once per integer coordinate, c + 1 values, and
gathered into the product over the shell's points.  The lower and upper
sums of the sandwich share one pass over the shells: points, mollifier
weights and dual norms are built once per shell and summed at both radii.
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

_GL_NODES = 1024
# table rows built per matrix product: each cos temporary holds
# _TABLE_CHUNK x _GL_NODES floats (8 MB), and larger chunks raise the
# process's peak memory without building the table any faster
_TABLE_CHUNK = 1000
_table_cache: dict[tuple, tuple[np.ndarray, float]] = {}


def _bump_raw(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


def _rho0_table(y_max: float, step: float) -> tuple[np.ndarray, float]:
    """Values of the 1-d bump transform on 0, step, 2*step, ..., y_max.

    Fixed-order Gauss-Legendre replaces adaptive quadrature so the whole
    table comes out of a handful of matrix products; the rule has several
    nodes per oscillation even at y_max and is checked against adaptive
    integration in the test suite.
    """
    key = (round(y_max, 12), round(step, 15), _GL_NODES)
    if key in _table_cache:
        return _table_cache[key]
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    x = 0.5 * (nodes + 1.0)          # [0, 1]
    w = 0.5 * weights
    f = w * _bump_raw(x)
    mass = 2.0 * float(np.sum(f))    # integral of the unnormalized bump
    ys = np.arange(0.0, y_max + step / 2, step)
    table = np.empty(ys.size)
    chunk = _TABLE_CHUNK
    for lo in range(0, ys.size, chunk):
        yy = ys[lo:lo + chunk]
        table[lo:lo + chunk] = np.cos(
            2.0 * math.pi * np.outer(yy, x)
        ) @ f
    table *= 2.0 / mass
    table.setflags(write=False)
    _table_cache[key] = (table, step)
    return table, step


def _rho0_hat(y: np.ndarray, table: np.ndarray, step: float) -> np.ndarray:
    """Cubic interpolation of the tabulated transform; zero past the end."""
    y = np.abs(y)
    out = np.zeros_like(y)
    inside = y <= (table.size - 1) * step
    if not np.any(inside):
        return out
    u = y[inside] / step
    i = np.clip(np.floor(u).astype(np.int64), 1, table.size - 3)
    f = u - i
    pm1 = table[i - 1]
    p0 = table[i]
    p1 = table[i + 1]
    p2 = table[i + 2]
    out[inside] = (
        pm1 * (-f * (f - 1.0) * (f - 2.0) / 6.0)
        + p0 * ((f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0)
        + p1 * (-(f + 1.0) * f * (f - 2.0) / 2.0)
        + p2 * ((f + 1.0) * f * (f - 1.0) / 6.0)
    )
    return out


@dataclass(frozen=True)
class MollifierSpec:
    """Product bump mollifier at a given smoothing width."""

    n: int
    epsilon: float
    support_radius: float
    y_max: float
    step: float

    @classmethod
    def build(cls, n: int, epsilon: float, y_max: float = 200.0,
              step: float = 1e-3) -> "MollifierSpec":
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if n < 2:
            raise ValueError("dimension must be at least 2")
        _rho0_table(y_max, step)  # warm the shared table
        return cls(n=n, epsilon=epsilon, support_radius=math.sqrt(n),
                   y_max=y_max, step=step)

    def rho0_hat(self, y):
        table, step = _rho0_table(self.y_max, self.step)
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        out = _rho0_hat(np.atleast_1d(y), table, step)
        return float(out[0]) if scalar else out


def mollifier_hat(spec: MollifierSpec, xi) -> float:
    """Transform of the product bump at frequency vector xi."""
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


def _shell_points(n: int, c: int) -> np.ndarray:
    """Integer vectors with sup norm exactly c, shape (m, n).

    Face j holds the vectors with x_j = +-c whose earlier coordinates lie
    in (-c, c) and whose later ones run over [-c, c], so every vector of
    the shell lies on exactly one face.
    """
    faces = []
    for j in range(n):
        shape = (2 * c - 1,) * j + (1,) + (2 * c + 1,) * (n - 1 - j)
        face = np.indices(shape).reshape(n, -1).T
        face[:, :j] -= c - 1
        face[:, j + 1:] -= c
        for side in (c, -c):
            face[:, j] = side
            faces.append(face.copy())
    return np.vstack(faces)


def _shell_rho(K: np.ndarray, c: int, epsilon: float, table: np.ndarray,
               step: float) -> np.ndarray:
    """Mollifier transform prod_j rho0_hat(epsilon k_j) at each point k of
    shell c, gathered from rho0_hat at the c + 1 values |k_j| = 0..c."""
    r = _rho0_hat(epsilon * np.arange(c + 1), table, step)
    A = np.abs(K)
    rho = np.ones(K.shape[0])
    for j in range(K.shape[1]):
        rho *= r[A[:, j]]
    return rho


def _poisson_sums(basis: LatticeBasis, radii, spec: MollifierSpec,
                  cutoff: int, tail_target: float | None = None
                  ) -> list[tuple[float, float, int]]:
    """Main term plus shells 1..cutoff, at each radius of ``radii``.

    A shell's points, mollifier weights and dual norms do not depend on
    the radius, so each shell is built once and summed at every radius
    still accumulating.  With a tail target a radius stops once two
    consecutive shell estimates sit below the target.  Returns
    (value, tail, shells) per radius.
    """
    table, step = _rho0_table(spec.y_max, spec.step)
    n = basis.n
    W = np.linalg.inv(basis.entries).T
    values = [t ** n * unit_ball_volume(n) / abs(basis.det) for t in radii]
    tails = [math.inf] * len(radii)
    shells = [0] * len(radii)
    below = [0] * len(radii)
    active = list(range(len(radii)))
    for c in range(1, cutoff + 1):
        K = _shell_points(n, c)
        rho = _shell_rho(K, c, spec.epsilon, table, step)
        live = np.abs(rho) > 0.0
        any_live = bool(np.any(live))
        if any_live:
            rho = rho[live]
            s = np.sqrt(np.sum((K[live].astype(float) @ W.T) ** 2, axis=1))
        for i in active:
            t = radii[i]
            signed = absolute = 0.0
            if any_live:
                chi = hat_chi_ball(n, t * s)
                terms = (t ** n / abs(basis.det)) * chi * rho
                signed = float(np.sum(terms))
                absolute = float(np.sum(np.abs(terms)))
            values[i] += signed
            tails[i] = 2.0 * absolute
            shells[i] = c
            if tail_target is not None:
                below[i] = below[i] + 1 if tails[i] < tail_target else 0
        active = [i for i in active if below[i] < 2]
        if not active:
            break
    return list(zip(values, tails, shells))


def smoothed_count(basis: LatticeBasis, t: float, epsilon: float,
                   cutoff: int, spec: MollifierSpec | None = None
                   ) -> SmoothedCount:
    """Poisson-summation value of the mollified count at radius t.

    The frequency sum is truncated at sup norm ``cutoff``; the reported
    tail estimate is twice the absolute sum over the outermost shell.
    """
    if t <= 0:
        raise ValueError("radius must be positive")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    if spec is None:
        spec = MollifierSpec.build(basis.n, epsilon)
    elif spec.n != basis.n or spec.epsilon != epsilon:
        raise ValueError("mollifier spec does not match the call")
    [(value, tail, _)] = _poisson_sums(basis, (t,), spec, cutoff)
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


def sandwich_check(basis: LatticeBasis, t: float, epsilon: float,
                   tail_target: float = 1e-3, max_cutoff: int = 10_000
                   ) -> SandwichResult:
    """Check N(t - d) <= N(t) <= N(t + d) for the smoothed counts.

    The mollifier lives on the integer side of Poisson summation, so the
    radius shift that makes the sandwich rigorous is the mollifier
    support radius sqrt(n) * epsilon stretched by the largest singular
    value of the basis (for the identity this is just sqrt(n) * epsilon).
    Inconclusive truncation is reported as status "inconclusive" with
    holds = None rather than a verdict.
    """
    sigma = float(np.linalg.norm(basis.entries, 2))
    shift = epsilon * math.sqrt(basis.n) * sigma
    if t - shift <= 0:
        raise ValueError(
            f"epsilon too large: shifted radius {t - shift:.3g} <= 0"
        )
    spec = MollifierSpec.build(basis.n, epsilon)
    exact = count_points(basis, t)
    (lower, lo_tail, c1), (upper, hi_tail, c2) = _poisson_sums(
        basis, (t - shift, t + shift), spec, max_cutoff, tail_target)
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
