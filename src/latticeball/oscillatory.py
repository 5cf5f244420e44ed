"""Oscillatory integrals over the diagonal Iwasawa coordinates, the
discriminant that controls their phase Hessian, and numerical checks of
the two stationary-phase bounds used in the remainder analysis.

The phase attached to a frequency pair (k, l) and sign choice is

    Phi(a) = s1 sqrt(sum_i a_i ktil_i^2) + s2 sqrt(sum_i a_i ltil_i^2),

with ktil, ltil the unipotent-transformed coordinates.  The integrals
carry the weight (|k| / |k|_AN)^p (|l| / |l|_AN)^p restricted to a box
in a-space, p = (n + 1)/2, and oscillate like exp(2 pi i t Phi).

The integrand depends on a only through qk = a.K and ql = a.L, where K
and L are the entrywise squares of ktil and ltil.  So the box integral
is a 2-D integral over u = a.K and v = a.M against the pushforward of
the box volume, with M = L - rho K the part of L orthogonal to K,
rho = K.L / K.K, and ql = rho u + v.  (When L is a multiple of K, M is
a unit axis vector instead and ql = rho u.)  The orthogonal frame keeps
the density accurate as K and L approach parallel, where a (qk, ql)
frame loses it.  The image of the box is a zonotope with the n scaled
columns of [K; M] as generators, and the pushforward is a piecewise-
linear box spline on it: 1 / |det| for n = 2, and for n = 3 the length
of the fibre along the eliminated axis over |det| of the best-
conditioned 2x2 minor.  Its kinks lie on the projected box edges, so
cutting u at every projected vertex and edge crossing, and pairing
consecutive edges within each slab, leaves trapezoids (about 30 for
n = 3) on which the density is linear.

Each side of a trapezoid is cut into panels by the phase cycles across
it, and each panel carries a product Gauss-Legendre rule of order 8
(coarse) or 12 (fine), so points_per_period is the coarse rule's nodes
per cycle.  Every value is checked against the finer rule on the same
panels before it is returned.

The trapezoids do not depend on t, so I_kl takes a grid of t of any
shape and builds them once for it; only the panels are counted per t.

The sum runs over columns of nodes at fixed u, in blocks of a fixed
number of nodes, so its memory does not grow with the rule.  At each
node the phase, in cycles, is reduced to within an eighth of a cycle of
its nearest quarter turn before the one sine it needs is taken: a small
argument is about twice as cheap as one of hundreds of radians, and the
cosine follows from the sine to rounding.  The quarter turns are folded
into four running sums per component and rotated at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import transformed_coords


class ResolutionError(RuntimeError):
    """Requested accuracy is not reachable within the node budget."""


# nodes of the coarse and the fine rule together
_MAX_TOTAL_POINTS = 3.0e8
# coarse and fine rules must agree to this times the box volume
_TARGET_REL = 1e-6
# default coarse nodes per cycle of the phase across a trapezoid side
_POINTS_PER_PERIOD = 40.0
# nodes per block of the sum: its temporaries, about ten arrays of this
# length, take about 1 MB and stay in cache
_BLOCK = 1 << 14


@dataclass(frozen=True)
class OscillatorySpec:
    """Frequency pair, signs, unipotent coordinates, and the weight box."""

    n: int
    k: np.ndarray
    l: np.ndarray
    signs: tuple[int, int]
    eta: np.ndarray
    psi_intervals: np.ndarray

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("oscillatory phases are defined for n in {2, 3}")
        k = np.asarray(self.k, dtype=float).reshape(-1)
        l = np.asarray(self.l, dtype=float).reshape(-1)
        if k.shape != (self.n,) or l.shape != (self.n,):
            raise ValueError("k and l must be length-n vectors")
        eta = np.asarray(self.eta, dtype=float).reshape(-1)
        if eta.shape != (self.n * (self.n - 1) // 2,):
            raise ValueError("eta has the wrong length for n")
        box = np.asarray(self.psi_intervals, dtype=float)
        if box.shape != (self.n, 2):
            raise ValueError("psi_intervals must have shape (n, 2)")
        arrays = (("k", k), ("l", l), ("eta", eta), ("psi_intervals", box))
        for name, arr in arrays:
            # NaN fails every comparison below, so refuse it here
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if not k.any() or not l.any():
            raise ValueError("k and l must be nonzero")
        if tuple(self.signs) not in {(1, 1), (1, -1), (-1, 1), (-1, -1)}:
            raise ValueError("signs must be +-1 each")
        if np.any(box[:, 0] <= 0) or np.any(box[:, 1] <= box[:, 0]):
            raise ValueError("each interval needs 0 < lower < upper")
        for name, arr in arrays:
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "signs",
                           (int(self.signs[0]), int(self.signs[1])))

    @property
    def weight_exponent(self) -> float:
        return (self.n + 1) / 2.0

    def transformed(self) -> tuple[np.ndarray, np.ndarray]:
        return (transformed_coords(self.eta, self.k),
                transformed_coords(self.eta, self.l))


# Gauss-Legendre orders: I_kl's coarse and fine panels, vdc_check's panels
_COARSE_ORDER = 8
_FINE_ORDER = 12
_VDC_ORDER = 32


@functools.cache
def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared
    between callers.  Only the three orders above are asked for, each
    built once, on first use: built at import, they would add the import
    of numpy.polynomial to every run that never integrates."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


class _Trapezoids(NamedTuple):
    """The image of the weight box under a -> (u, v) = (a.K, a.M), cut
    into trapezoids on each of which the pushforward density is linear.

    qk = u and ql = rho u + sigma v, where sigma is 0 when L is a
    multiple of K and v is then only a second coordinate.  Trapezoid i,
    in local coordinates (xi, eta) in [0, 1]^2, is

        u = ua + xi du,   v = lo + xi dlo + eta h(xi),   h(xi) = h + xi dh,

    with area element du h(xi) dxi deta, and its density is
    f0 + xi fx + eta fv h(xi).
    """

    rho: float
    sigma: float
    ua: np.ndarray
    du: np.ndarray
    lo: np.ndarray
    dlo: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    f0: np.ndarray
    fx: np.ndarray
    fv: np.ndarray


def _density(A: np.ndarray, box: np.ndarray, u, v) -> np.ndarray:
    """Pushforward of the box volume under a -> A a, at points (u, v) off
    the projected box edges: 1 / |det A| inside the image for n = 2; for
    n = 3 the extent in a_j of the fibre over (u, v), for the axis j
    whose complementary 2x2 minor of A is largest, over that minor."""
    if A.shape[1] == 2:
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        return np.full(np.shape(u), 1.0 / abs(det))
    minors = [A[0, p] * A[1, q] - A[0, q] * A[1, p]
              for p, q in ((1, 2), (0, 2), (0, 1))]
    j = int(np.argmax(np.abs(minors)))
    p, q = (i for i in range(3) if i != j)
    det = minors[j]
    # on the fibre, (a_p, a_q) = c - d a_j
    c = ((A[1, q] * u - A[0, q] * v) / det, (A[0, p] * v - A[1, p] * u) / det)
    d = ((A[1, q] * A[0, j] - A[0, q] * A[1, j]) / det,
         (A[0, p] * A[1, j] - A[1, p] * A[0, j]) / det)
    lower = np.full(np.shape(u), box[j, 0])
    upper = np.full(np.shape(u), box[j, 1])
    for ci, di, (lo, hi) in zip(c, d, box[[p, q]]):
        if di > 0:
            lower = np.maximum(lower, (ci - hi) / di)
            upper = np.minimum(upper, (ci - lo) / di)
        elif di < 0:
            lower = np.maximum(lower, (ci - lo) / di)
            upper = np.minimum(upper, (ci - hi) / di)
        else:
            upper = np.where((lo <= ci) & (ci <= hi), upper, lower)
    return np.maximum(upper - lower, 0.0) / abs(det)


def _trapezoids(spec: OscillatorySpec) -> _Trapezoids:
    """Cut the image of the box, a zonotope, at the u of every projected
    box vertex and every crossing of two projected box edges; within each
    slab between cuts no edges cross, and consecutive edges bound the
    trapezoids."""
    n = spec.n
    kt, lt = spec.transformed()
    K, L = kt ** 2, lt ** 2
    rho = float(K @ L) / float(K @ K)
    M = L - rho * K
    sigma = 1.0
    if not M.any():
        # ql = rho qk: v is the coordinate of an axis next to the largest
        # entry of K, so that [K; M] still has rank 2
        M = np.zeros(n)
        M[(int(np.argmax(K)) + 1) % n] = 1.0
        sigma = 0.0
    A = np.stack([K, M])
    box = spec.psi_intervals
    # vertex b has a_i at the top of its interval where bit i of b is set;
    # each edge runs from a vertex with bit i clear along generator i
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    verts = A @ box[:, 0] + bits @ (A * (box[:, 1] - box[:, 0])).T
    start, axis = np.nonzero(bits == 0)
    P, Q = verts[start], verts[start + (1 << axis)]
    d = Q - P
    i, j = np.triu_indices(len(P), 1)
    off = P[j] - P[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        # P_i + s d_i = P_j + r d_j; parallel edges give inf or nan
        cross = d[i, 0] * d[j, 1] - d[i, 1] * d[j, 0]
        s = (off[:, 0] * d[j, 1] - off[:, 1] * d[j, 0]) / cross
        r = (off[:, 0] * d[i, 1] - off[:, 1] * d[i, 0]) / cross
    hit = (0 < s) & (s < 1) & (0 < r) & (r < 1)
    cuts = np.unique(np.concatenate(
        [verts[:, 0], P[i[hit], 0] + s[hit] * d[i[hit], 0]]))
    ua, ub = cuts[:-1], cuts[1:]
    mid = (ua + ub)[:, None] / 2.0
    # no cut lies inside a slab, so an edge spans it if it spans its middle
    spans = ((np.minimum(P[:, 0], Q[:, 0]) < mid)
             & (mid < np.maximum(P[:, 0], Q[:, 0])))
    with np.errstate(divide="ignore", invalid="ignore"):
        va, vb = (P[:, 1] + np.clip((x[:, None] - P[:, 0]) / d[:, 0], 0, 1)
                  * d[:, 1] for x in (ua, ub))
    order = np.argsort(np.where(spans, va + vb, np.inf), axis=1)
    va = np.take_along_axis(va, order, axis=1)
    vb = np.take_along_axis(vb, order, axis=1)
    # the k-th and (k+1)-th spanning edges of a slab bound a trapezoid
    pair = np.arange(len(P) - 1) < spans.sum(axis=1)[:, None] - 1
    slab = np.nonzero(pair)[0]
    lo, lo_b = va[:, :-1][pair], vb[:, :-1][pair]
    h = va[:, 1:][pair] - lo
    dh = vb[:, 1:][pair] - lo_b - h
    keep = h + dh / 2.0 > 0.0
    ua, du = ua[slab][keep], (ub - ua)[slab][keep]
    lo, dlo, h, dh = lo[keep], (lo_b - lo)[keep], h[keep], dh[keep]
    # the density at (xi, eta) = (1/2, 1/4), (1/2, 3/4), (1/4, 1/2),
    # (3/4, 1/2) fixes its three coefficients
    xi = np.array([0.5, 0.5, 0.25, 0.75])[:, None]
    eta = np.array([0.25, 0.75, 0.5, 0.5])[:, None]
    F = _density(A, box, ua + xi * du, lo + xi * dlo + eta * (h + xi * dh))
    h_mid = h + dh / 2.0
    fv = (F[1] - F[0]) / (h_mid / 2.0)
    fx = 2.0 * (F[3] - F[2]) - fv * dh / 2.0
    f0 = (F[0] + F[1]) / 2.0 - (fx + fv * h_mid) / 2.0
    return _Trapezoids(rho=rho, sigma=sigma, ua=ua, du=du, lo=lo, dlo=dlo,
                       h=h, dh=dh, f0=f0, fx=fx, fv=fv)


def _panels(geom: _Trapezoids, t: float,
            points_per_period: float) -> tuple[np.ndarray, np.ndarray]:
    """Panels across each trapezoid along xi and along eta, as floats:
    the phase cycles across it, bounded through the phase gradient at its
    smallest qk and ql, times points_per_period / _COARSE_ORDER, and at
    least one.  An overflowing t gives inf or nan, which the node budget
    refuses."""
    g = geom
    ub = g.ua + g.du
    ql_min = np.minimum(
        g.rho * g.ua + g.sigma * np.minimum(g.lo, g.lo + g.h),
        g.rho * ub + g.sigma * np.minimum(g.lo + g.dlo,
                                          g.lo + g.dlo + g.h + g.dh))
    dql = np.maximum(np.abs(g.rho * g.du + g.sigma * g.dlo),
                     np.abs(g.rho * g.du + g.sigma * (g.dlo + g.dh)))
    along_xi = g.du / (2.0 * np.sqrt(g.ua)) + dql / (2.0 * np.sqrt(ql_min))
    along_eta = g.sigma * np.maximum(g.h, g.h + g.dh) / (2.0 * np.sqrt(ql_min))
    per_cycle = t * points_per_period / _COARSE_ORDER
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.maximum(1.0, np.ceil(per_cycle * along_xi)),
                np.maximum(1.0, np.ceil(per_cycle * along_eta)))


def _pushforward_value(spec: OscillatorySpec, geom: _Trapezoids, t: float,
                       px: np.ndarray, py: np.ndarray, m: int) -> complex:
    """The integral over the trapezoids, each covered by px x py panels
    of the order-m Gauss-Legendre product rule.

    The nodes of one trapezoid lie on columns of fixed xi, px m of them,
    each holding py m nodes; along a column qk, the amplitude's qk factor
    and the area element are constant, and ql and the density are linear
    in eta.  Trapezoids with the same py share their eta nodes, so their
    columns are summed together, in blocks of at most _BLOCK nodes: a
    run of whole columns, or a run of nodes of one column.

    The phase in cycles, w = t (s1 sqrt(qk) + s2 sqrt(ql)), is split
    exactly as w = q/4 + r with q = rint(4w) and |r| <= 1/8.  One sine,
    sin(2 pi r), gives the cosine as sqrt(1 - sin^2) to rounding, since
    cos(2 pi r) >= 0.707.  As e^{2 pi i w} = i^q e^{2 pi i r}, the sums
    of amp cos and amp sin are kept per quarter turn, q mod 4, and
    rotated once at the end.
    """
    g = geom
    x, w = _leggauss(m)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    half_p = spec.weight_exponent / 2.0
    scale = (float(spec.k @ spec.k) * float(spec.l @ spec.l)) ** half_p
    tk, tl = (4.0 * t * s for s in spec.signs)
    cos_q = np.zeros(4)
    sin_q = np.zeros(4)
    for panels in np.unique(py):
        traps = np.flatnonzero(py == panels)
        rows = np.arange(panels * m)
        eta = (rows // m + x[rows % m]) / panels
        w_eta = w[rows % m] / panels
        eta_w = eta * w_eta
        ends = np.cumsum(px[traps] * m)
        col_step = max(1, _BLOCK // rows.size)
        row_step = min(rows.size, _BLOCK)
        for c0 in range(0, ends[-1], col_step):
            col = np.arange(c0, min(c0 + col_step, ends[-1]))
            k = np.searchsorted(ends, col, side="right")
            tr = traps[k]
            # the column's place among its trapezoid's px m columns
            local = col - ends[k] + px[tr] * m
            xi = (local // m + x[local % m]) / px[tr]
            u = g.ua[tr] + xi * g.du[tr]
            h = g.h[tr] + xi * g.dh[tr]
            ql0 = g.rho * u + g.sigma * (g.lo[tr] + xi * g.dlo[tr])
            qlh = g.sigma * h
            cw = scale * w[local % m] / px[tr] * g.du[tr] * h * u ** -half_p
            alpha = (g.f0[tr] + xi * g.fx[tr]) * cw
            beta = g.fv[tr] * h * cw
            pk = tk * np.sqrt(u)
            for r0 in range(0, rows.size, row_step):
                r = slice(r0, r0 + row_step)
                ql = np.multiply.outer(qlh, eta[r])
                ql += ql0[:, None]
                amp = np.multiply.outer(alpha, w_eta[r])
                amp += np.multiply.outer(beta, eta_w[r])
                # v = 4w, and 2 pi r = (pi / 2) (v - rint(v)); the
                # subtraction is exact, as rint(v) is 0 or within a
                # factor 2 of v
                v = np.sqrt(ql)
                if half_p == 1.0:
                    amp /= ql
                else:
                    den = np.sqrt(v, out=ql)
                    den *= v
                    amp /= den
                v *= tl
                v += pk[:, None]
                q = np.rint(v)
                v -= q
                v *= math.pi / 2.0
                sin_r = np.sin(v, out=v)
                cos_r = np.square(sin_r, out=ql)
                np.subtract(1.0, cos_r, out=cos_r)
                np.sqrt(cos_r, out=cos_r)
                cos_r *= amp
                sin_r *= amp
                quarter = q.astype(np.int64).ravel()
                quarter &= 3
                cos_q += np.bincount(quarter, cos_r.ravel(), 4)
                sin_q += np.bincount(quarter, sin_r.ravel(), 4)
    # i^q (cos + i sin) for q = 0, 1, 2, 3
    return complex(cos_q[0] - sin_q[1] - cos_q[2] + sin_q[3],
                   sin_q[0] + cos_q[1] - sin_q[2] - cos_q[3])


def I_kl(spec: OscillatorySpec, t,
         points_per_period: float = _POINTS_PER_PERIOD):
    """The oscillatory integral at each parameter of t, a number or an
    array, as a complex or a complex array of t's shape: the 2-D integral
    over the trapezoids that cut the image of the box (module docstring),
    built once for all t after every t and points_per_period are checked.

    At each t, each side of a trapezoid is cut into panels, enough for
    the coarse order-8 rule to place points_per_period nodes per cycle of
    the phase across it, as the phase gradient bounds the cycles, and at
    least one.  The order-12 rule on the same panels gives the value; the
    two must agree to _TARGET_REL times the box volume, otherwise
    ResolutionError, as also when the two rules together need more than
    _MAX_TOTAL_POINTS nodes.
    """
    grid = np.asarray(t, dtype=float)
    ts = grid.ravel().tolist()
    if not ts:
        raise ValueError("need at least one t")
    if not all(0.0 <= x < math.inf for x in ts):
        raise ValueError("t must be finite and nonnegative")
    if not (math.isfinite(points_per_period) and points_per_period > 0):
        raise ValueError("points_per_period must be finite and positive")
    geom = _trapezoids(spec)
    box = spec.psi_intervals
    box_vol = float(np.prod(box[:, 1] - box[:, 0]))
    values = []
    for x in ts:
        px, py = _panels(geom, x, points_per_period)
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = ((_COARSE_ORDER ** 2 + _FINE_ORDER ** 2)
                     * float(np.sum(px * py)))
        if not nodes <= _MAX_TOTAL_POINTS:
            raise ResolutionError(
                f"panel rules need {nodes:.2e} evaluations, over the budget "
                f"of {_MAX_TOTAL_POINTS:.1e}; t is too large for the budget"
            )
        px, py = px.astype(np.int64), py.astype(np.int64)
        coarse = _pushforward_value(spec, geom, x, px, py, _COARSE_ORDER)
        fine = _pushforward_value(spec, geom, x, px, py, _FINE_ORDER)
        if abs(fine - coarse) > _TARGET_REL * box_vol:
            raise ResolutionError(
                f"quadrature not converged: |delta| = {abs(fine - coarse):.3e} "
                f"exceeds {_TARGET_REL:.1e} * box volume {box_vol:.3e}"
            )
        values.append(fine)
    return values[0] if grid.ndim == 0 else np.reshape(values, grid.shape)


# ---------------------------------------------------------------------------
# Discriminant and the Hessian-decay check
# ---------------------------------------------------------------------------


def discriminant(k, l, eta) -> tuple[float, float]:
    """ktil1^2 ltil2^2 - ktil2^2 ltil1^2, directly and factored.

    The factored form is (k1 l2 - k2 l1)(k1 l2 + k2 l1 + 2 gamma k1 l1)
    with gamma = -eta1; the two agree to rounding and the test suite
    pins that down.
    """
    k = np.asarray(k, dtype=float).reshape(-1)
    l = np.asarray(l, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if k.size < 2 or l.size < 2:
        raise ValueError("need at least two coordinates")
    eta1 = eta[0]
    k1, k2 = k[0], k[1]
    l1, l2 = l[0], l[1]
    kt2 = k2 - eta1 * k1
    lt2 = l2 - eta1 * l1
    direct = k1 * k1 * lt2 * lt2 - kt2 * kt2 * l1 * l1
    gamma = -eta1
    factored = (k1 * l2 - k2 * l1) * (k1 * l2 + k2 * l1
                                      + 2.0 * gamma * k1 * l1)
    return float(direct), float(factored)


@dataclass(frozen=True)
class _GridReport:
    """A measured modulus against its decay bound at each t of a grid."""

    t_grid: tuple
    measured: tuple
    bound: tuple
    ratios: tuple
    max_ratio: float


def _grid_report(cls, ts, measured, bound, **extra):
    """A ``cls`` report whose ratios are measured / bound, or 0 or inf
    where the bound is 0."""
    ratios = tuple(m / b if b > 0.0 else (0.0 if m == 0.0 else math.inf)
                   for m, b in zip(measured, bound))
    return cls(t_grid=tuple(ts), measured=tuple(measured), bound=tuple(bound),
               ratios=ratios, max_ratio=max(ratios), **extra)


@dataclass(frozen=True)
class HessianReport(_GridReport):
    disc: float


def hessian_bound_check(
        spec: OscillatorySpec, t_grid,
        points_per_period: float = _POINTS_PER_PERIOD) -> HessianReport:
    """Measured |I_kl(t)| against the stationary-phase envelope
    |k|^{3/2} |l|^{3/2} / (t |disc|) on a strictly increasing grid of
    positive t: one I_kl call at points_per_period for the whole grid, so
    one set of trapezoids serves every t."""
    ts = [float(t) for t in t_grid]
    if not ts or any(t <= 0 for t in ts):
        raise ValueError("t_grid must contain positive values")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly increasing")
    disc, _ = discriminant(spec.k, spec.l, spec.eta)
    if abs(disc) <= 1e-9:
        raise ValueError("discriminant is too close to zero")
    nk = float(np.linalg.norm(spec.k))
    nl = float(np.linalg.norm(spec.l))
    measured = [abs(v) for v in I_kl(spec, ts, points_per_period).tolist()]
    bound = [nk ** 1.5 * nl ** 1.5 / (t * abs(disc)) for t in ts]
    return _grid_report(HessianReport, ts, measured, bound, disc=disc)


# ---------------------------------------------------------------------------
# First-derivative (van der Corput) check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VdcReport(_GridReport):
    c0: float
    total_variation: float


def _values(f, x: np.ndarray) -> np.ndarray:
    """f on every point of x, in one vectorized call."""
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != x.shape:
        raise ValueError(f"{f!r} returned shape {vals.shape} on points of "
                         f"shape {x.shape}")
    return vals


# points of the sample grid on which vdc_check verifies its phase
_VDC_GRID_POINTS = 4097
# quadrature nodes per t, about a dozen floats each: under about 100 MB
_VDC_MAX_NODES = 1 << 20


def vdc_check(phi, psi0, a: float, b: float, t_grid) -> VdcReport:
    """|int_a^b e^{i t phi} psi0 dx| against (|psi0(b)| + TV(psi0)) / (c0 t).

    phi must have a monotone derivative bounded below by c0 > 0; both
    conditions are verified on _VDC_GRID_POINTS equally spaced points and
    violations raise ValueError.  Note the phase convention: e^{i t phi},
    no 2 pi.  phi and psi0 are called on numpy arrays of points and must
    return one value per point.  A t whose quadrature needs more than
    _VDC_MAX_NODES nodes raises ResolutionError before any t is summed.
    """
    if not (b > a):
        raise ValueError("need b > a")
    if not math.isfinite(b - a):
        raise ValueError(f"interval a = {a:g}, b = {b:g} too wide: b - a "
                         f"overflows")
    ts = [float(t) for t in t_grid]
    if not ts or not all(0 < t < math.inf for t in ts):
        raise ValueError("t_grid must contain positive finite values")
    x = np.linspace(a, b, _VDC_GRID_POINTS)
    with np.errstate(all="ignore"):
        phv = _values(phi, x)
        psv = _values(psi0, x)
    for name, vals in (("phi", phv), ("psi0", psv)):
        if not np.isfinite(vals).all():
            raise ValueError(f"{name} is not finite on the grid of "
                             f"[{a:g}, {b:g}]")
    h = x[1] - x[0]
    dphi = np.diff(phv) / h
    c0 = float(np.min(dphi))
    if c0 <= 0:
        raise ValueError("phase derivative must be positive on [a, b]")
    curv = np.diff(dphi)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(dphi))))
    if np.any(curv > tol) and np.any(curv < -tol):
        raise ValueError("phase derivative is not monotone on the grid")
    tv = float(np.sum(np.abs(np.diff(psv))))
    end = abs(float(psv[-1]))

    # about 3 phase cycles per panel, and at least 4 panels; an
    # overflowing phase gives inf, which the budget refuses
    with np.errstate(over="ignore"):
        cycles = np.abs(np.multiply(ts, phv[-1] - phv[0])) / (2.0 * math.pi)
        panels = np.maximum(4.0, np.ceil(cycles / 3.0))
    for t, count in zip(ts, panels.tolist()):
        if not count * _VDC_ORDER <= _VDC_MAX_NODES:
            raise ResolutionError(
                f"t = {t:g} needs {count * _VDC_ORDER:.2e} quadrature "
                f"nodes, over the budget of {_VDC_MAX_NODES}")
    nodes, wts = _leggauss(_VDC_ORDER)
    measured = []
    for t, count in zip(ts, panels.astype(int).tolist()):
        edges = np.linspace(a, b, count + 1)
        centers = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1] - edges[0]) / 2.0
        xx = (centers[:, None] + half * nodes[None, :]).ravel()
        ww = np.broadcast_to(half * wts, (count, _VDC_ORDER)).ravel()
        pv = _values(phi, xx)
        sv = _values(psi0, xx)
        val = np.sum(ww * sv * (np.cos(t * pv) + 1j * np.sin(t * pv)))
        measured.append(abs(complex(val)))
    bound = [(end + tv) / (c0 * t) for t in ts]
    return _grid_report(VdcReport, ts, measured, bound, c0=c0,
                        total_variation=tv)
