"""Oscillatory integrals over the diagonal Iwasawa coordinates, the
discriminant that controls their phase Hessian, and numerical checks of
the two stationary-phase bounds used in the remainder analysis.

The phase attached to a frequency pair (k, l) and sign choice is

    Phi(a) = s1 sqrt(sum_i a_i ktil_i^2) + s2 sqrt(sum_i a_i ltil_i^2),

with ktil, ltil the unipotent-transformed coordinates.  The integrals
carry the weight (|k| / |k|_AN)^p (|l| / |l|_AN)^p restricted to a box
in a-space, p = 2 for n = 3 and 3/2 for n = 2, and oscillate like
exp(2 pi i t Phi).  Tensor Gauss-Legendre with an oscillation-aware
node count does the integration; every value is validated against a
second, finer resolution before it is returned.

The tensor sum is one pass over the flattened node grid, in blocks of a
fixed number of nodes, so its memory does not grow with the rule.  At
each node the phase, in cycles, is reduced to within an eighth of a
cycle of its nearest quarter turn before the one sine it needs is taken:
a small argument is about twice as cheap as one of hundreds of radians,
and the cosine follows from the sine to rounding.  The quarter turns are
folded into four running sums per component and rotated at the end.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .basis import transformed_coords

logger = logging.getLogger(__name__)


class ResolutionError(RuntimeError):
    """Requested accuracy is not reachable within the node budget."""


_MAX_NODES_PER_AXIS = 2000
_MAX_TOTAL_POINTS = 3.0e8
# coarse and fine tensor rules must agree to this times the box volume
_TARGET_REL = 1e-6
# default nodes per cycle of the phase along an axis
_POINTS_PER_PERIOD = 40.0
# nodes per block of the tensor sum: its temporaries, about ten arrays
# of this length, take about 1 MB and stay in cache
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
        return 2.0 if self.n == 3 else 1.5

    def transformed(self) -> tuple[np.ndarray, np.ndarray]:
        return (transformed_coords(self.eta, self.k),
                transformed_coords(self.eta, self.l))


def phase(spec: OscillatorySpec, a) -> float:
    """Phi(a) for a point of the diagonal coordinate box."""
    a = np.asarray(a, dtype=float)
    if a.shape != (spec.n,):
        raise ValueError(f"expected a point of length {spec.n}")
    if np.any(a <= 0):
        raise ValueError("diagonal coordinates must be positive")
    kt, lt = spec.transformed()
    s1, s2 = spec.signs
    return float(s1 * math.sqrt(float(a @ kt ** 2))
                 + s2 * math.sqrt(float(a @ lt ** 2)))


def weight(spec: OscillatorySpec, a) -> float:
    """Box-supported weight (|k|/|k|_AN)^p (|l|/|l|_AN)^p."""
    a = np.asarray(a, dtype=float)
    if a.shape != (spec.n,):
        raise ValueError(f"expected a point of length {spec.n}")
    box = spec.psi_intervals
    if np.any(a < box[:, 0]) or np.any(a > box[:, 1]):
        return 0.0
    kt, lt = spec.transformed()
    p = spec.weight_exponent
    qk = float(a @ kt ** 2)
    ql = float(a @ lt ** 2)
    nk = float(spec.k @ spec.k)
    nl = float(spec.l @ spec.l)
    return (nk / qk) ** (p / 2.0) * (nl / ql) ** (p / 2.0)


# an entry holds 16 m bytes, so 128 entries of the largest rules
# (m up to 2000 coarse, 2500 fine) stay under 5 MB
@functools.lru_cache(maxsize=128)
def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared
    between callers: the eigenvalue solve behind them costs O(m^2) and
    up, and the same m recurs across axes, rules and calls."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _axis_rule(box_row, m: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = _leggauss(m)
    lo, hi = box_row
    half = (hi - lo) / 2.0
    return lo + half * (nodes + 1.0), half * weights


def _tensor_value(spec: OscillatorySpec, t: float, ms) -> complex:
    """Tensor Gauss-Legendre sum in one pass over the flattened grid.

    The nodes are walked in C order in blocks of at most _BLOCK, so the
    memory used is bounded whatever the node counts.  A block covers
    consecutive rows (lines along the last axis), possibly cut at both
    ends.  At its nodes, qk and ql are a row term, repeated along the
    row, plus a last-axis term, and the weight w is the product of two
    such terms.  The amplitude is w (nk nl / (qk ql))^(p/2): one
    division for n = 3, one power for n = 2.

    The phase in cycles, u = t (s1 sqrt(qk) + s2 sqrt(ql)), is split
    exactly as u = q/4 + r with q = rint(4u) and |r| <= 1/8.  One sine,
    sin(2 pi r), gives the cosine as sqrt(1 - sin^2) to rounding, since
    cos(2 pi r) >= 0.707.  As e^{2 pi i u} = i^q e^{2 pi i r}, the sums
    of amp cos and amp sin are kept per quarter turn, q mod 4, and
    rotated once at the end.
    """
    kt, lt = spec.transformed()
    half_p = spec.weight_exponent / 2.0
    scale = (float(spec.k @ spec.k) * float(spec.l @ spec.l)) ** half_p
    tk, tl = (4.0 * t * s for s in spec.signs)
    rules = [_axis_rule(spec.psi_intervals[i], ms[i]) for i in range(spec.n)]
    ak = [k2 * x for k2, (x, _) in zip(kt ** 2, rules)]
    al = [l2 * x for l2, (x, _) in zip(lt ** 2, rules)]
    ws = [w for _, w in rules]
    cols = ms[-1]
    size = math.prod(ms)
    # the last axis's terms, repeated over as many rows as a block spans
    reps = min(_BLOCK, size) // cols + 2
    ak_cols, al_cols, w_cols = (np.tile(a[-1], reps) for a in (ak, al, ws))
    cos_q = np.zeros(4)
    sin_q = np.zeros(4)
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        # the block is a slice of rows r0 .. r1 - 1 laid end to end
        r0, r1 = start // cols, (stop - 1) // cols + 1
        cut = slice(start - r0 * cols, stop - r0 * cols)
        lead = np.unravel_index(np.arange(r0, r1), ms[:-1])
        qk = np.repeat(sum(a[i] for a, i in zip(ak, lead)), cols)[cut]
        qk += ak_cols[cut]
        ql = np.repeat(sum(a[i] for a, i in zip(al, lead)), cols)[cut]
        ql += al_cols[cut]
        amp = np.repeat(scale * math.prod(w[i] for w, i in zip(ws, lead)),
                        cols)[cut]
        amp *= w_cols[cut]
        den = qk * ql
        if half_p == 1.0:
            amp /= den
        else:
            amp *= den ** -half_p
        # v = 4u, and 2 pi r = (pi / 2) (v - rint(v)); the subtraction
        # is exact, as rint(v) is 0 or within a factor 2 of v
        v = np.sqrt(qk, out=qk)
        v *= tk
        v += tl * np.sqrt(ql, out=ql)
        q = np.rint(v)
        v -= q
        v *= math.pi / 2.0
        sin_r = np.sin(v, out=v)
        cos_r = np.square(sin_r, out=den)
        np.subtract(1.0, cos_r, out=cos_r)
        np.sqrt(cos_r, out=cos_r)
        cos_r *= amp
        sin_r *= amp
        quarter = q.astype(np.int64)
        quarter &= 3
        cos_q += np.bincount(quarter, cos_r, 4)
        sin_q += np.bincount(quarter, sin_r, 4)
    # i^q (cos + i sin) for q = 0, 1, 2, 3
    return complex(cos_q[0] - sin_q[1] - cos_q[2] + sin_q[3],
                   sin_q[0] + cos_q[1] - sin_q[2] - cos_q[3])


def _auto_nodes(spec: OscillatorySpec, t: float,
                points_per_period: float) -> list[int]:
    kt, lt = spec.transformed()
    K2 = kt ** 2
    L2 = lt ** 2
    box = spec.psi_intervals
    min_k = math.sqrt(float(box[:, 0] @ K2))
    min_l = math.sqrt(float(box[:, 0] @ L2))
    ms = []
    for i in range(spec.n):
        grad = K2[i] / (2.0 * min_k) + L2[i] / (2.0 * min_l)
        cycles = t * grad * (box[i, 1] - box[i, 0])
        ms.append(max(16, math.ceil(points_per_period * cycles)))
    return ms


def I_kl(spec: OscillatorySpec, t: float,
         points_per_period: float = _POINTS_PER_PERIOD) -> complex:
    """The oscillatory integral at parameter t.

    Each axis gets points_per_period nodes per cycle of the phase along
    it, as the phase gradient bounds the cycles, and at least 16; the
    value is recomputed on a finer rule and the two must agree to
    _TARGET_REL times the box volume, otherwise ResolutionError.
    """
    if t < 0 or not math.isfinite(t):
        raise ValueError("t must be finite and nonnegative")
    if not (math.isfinite(points_per_period) and points_per_period > 0):
        raise ValueError("points_per_period must be finite and positive")
    ms = _auto_nodes(spec, t, points_per_period)
    if max(ms) > _MAX_NODES_PER_AXIS:
        raise ResolutionError(
            f"requires {max(ms)} nodes on one axis, over the cap of "
            f"{_MAX_NODES_PER_AXIS}; t is too large for the budget"
        )
    fine = [m + max(8, m // 4) for m in ms]
    pts = float(np.prod(ms)) + float(np.prod(fine))
    if pts > _MAX_TOTAL_POINTS:
        raise ResolutionError(
            f"tensor rule needs {pts:.2e} evaluations, over the budget"
        )
    coarse_val = _tensor_value(spec, t, ms)
    fine_val = _tensor_value(spec, t, fine)
    box = spec.psi_intervals
    box_vol = float(np.prod(box[:, 1] - box[:, 0]))
    if abs(fine_val - coarse_val) > _TARGET_REL * box_vol:
        raise ResolutionError(
            f"quadrature not converged: |delta| = {abs(fine_val - coarse_val):.3e} "
            f"exceeds {_TARGET_REL:.1e} * box volume {box_vol:.3e}"
        )
    return fine_val


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
class HessianReport:
    t_grid: tuple
    measured: tuple
    bound: tuple
    ratios: tuple
    max_ratio: float
    disc: float


def hessian_bound_check(
        spec: OscillatorySpec, t_grid,
        points_per_period: float = _POINTS_PER_PERIOD) -> HessianReport:
    """Measured |I_kl(t)| against the stationary-phase envelope
    |k|^{3/2} |l|^{3/2} / (t |disc|), each I_kl at points_per_period."""
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
    measured = []
    bound = []
    ratios = []
    for t in ts:
        val = abs(I_kl(spec, t, points_per_period))
        env = nk ** 1.5 * nl ** 1.5 / (t * abs(disc))
        measured.append(val)
        bound.append(env)
        ratios.append(val / env)
    return HessianReport(t_grid=tuple(ts), measured=tuple(measured),
                         bound=tuple(bound), ratios=tuple(ratios),
                         max_ratio=max(ratios), disc=disc)


# ---------------------------------------------------------------------------
# First-derivative (van der Corput) check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VdcReport:
    t_grid: tuple
    measured: tuple
    bound: tuple
    ratios: tuple
    max_ratio: float
    c0: float
    total_variation: float


def _eval_on(f, x: np.ndarray) -> np.ndarray:
    """f on every point of x: one vectorized call, or point by point when
    that call raises or returns the wrong shape."""
    try:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except Exception as exc:
        logger.warning("vectorized call of %r raised %s; evaluating "
                       "%d points one by one", f, type(exc).__name__, x.size)
    return np.array([float(f(v)) for v in x])


# points of the sample grid on which vdc_check verifies its phase
_VDC_GRID_POINTS = 4097


def vdc_check(phi, psi0, a: float, b: float, t_grid) -> VdcReport:
    """|int_a^b e^{i t phi} psi0 dx| against (|psi0(b)| + TV(psi0)) / (c0 t).

    phi must have a monotone derivative bounded below by c0 > 0; both
    conditions are verified on _VDC_GRID_POINTS equally spaced points and
    violations raise ValueError.  Note the phase convention: e^{i t phi},
    no 2 pi.
    """
    if not (b > a):
        raise ValueError("need b > a")
    ts = [float(t) for t in t_grid]
    if not ts or any(t <= 0 for t in ts):
        raise ValueError("t_grid must contain positive values")
    x = np.linspace(a, b, _VDC_GRID_POINTS)
    phv = _eval_on(phi, x)
    psv = _eval_on(psi0, x)
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

    measured = []
    bound = []
    ratios = []
    for t in ts:
        cycles = abs(t * (phv[-1] - phv[0])) / (2.0 * math.pi)
        panels = max(4, math.ceil(cycles / 3.0))
        nodes, wts = _leggauss(32)
        edges = np.linspace(a, b, panels + 1)
        centers = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1] - edges[0]) / 2.0
        xx = (centers[:, None] + half * nodes[None, :]).ravel()
        ww = np.broadcast_to(half * wts, (panels, 32)).ravel()
        pv = _eval_on(phi, xx)
        sv = _eval_on(psi0, xx)
        val = np.sum(ww * sv * (np.cos(t * pv) + 1j * np.sin(t * pv)))
        m = abs(complex(val))
        env = (end + tv) / (c0 * t)
        measured.append(m)
        bound.append(env)
        if env > 0.0:
            ratios.append(m / env)
        else:
            ratios.append(0.0 if m == 0.0 else math.inf)
    return VdcReport(t_grid=tuple(ts), measured=tuple(measured),
                     bound=tuple(bound), ratios=tuple(ratios),
                     max_ratio=max(ratios), c0=c0, total_variation=tv)
