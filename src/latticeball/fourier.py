"""Ball Fourier transforms, a compactly supported mollifier, and the
mollified Poisson summation that sandwiches the exact count.

The transform of the unit ball has closed forms in the two dimensions we
need: a trig expression for n = 3 and J1(2 pi s)/s for n = 2.  Near
s = 0 both give way to a short even Taylor series.  J1 is computed here
in numpy, so no library path loads scipy.  For x >= 25 it is the Hankel
expansion

    J1(x) = ((sin x - cos x) P(x) + (sin x + cos x) Q(x)) / sqrt(pi x),

with P and Q summed over the same 19 terms at every x: for real x the
first neglected term bounds the remainder (DLMF 10.17(iii)), and it is
below 2^-56 at x = 25 and falls as x grows.  Taking sin and cos of x
itself leaves the phase x - 3 pi/4 unrounded.  Below 25 it is the
64-node periodic trapezoid rule on
J1(x) = (1/pi) int_0^pi cos(tau - x sin tau) d tau, whose error is the
aliased J_63(x) - J_65(x), at most about (x/2)^63 / 63! < 1e-18.  No
value of J1, or of hat_chi_ball, depends on the rest of its call.

The mollifier is a product B-spline: rho(x) = prod rho0(x_i), where rho0
is the order-8 B-spline on [-1, 1], the 8-fold convolution of the uniform
density on [-1/8, 1/8].  It is nonnegative with unit mass and support
[-1, 1], and its 1-d transform has the closed form
(sin(2 pi y/8) / (2 pi y/8))^8, which lies between 0 and
g(y) = min(1, (4 / (pi |y|))^8).

The smoothed counts are Poisson sums over sup-norm shells of integer
frequencies.  On shell c every coordinate has |k_j| in 0..c, so the 1-d
transform is evaluated once per integer coordinate, c + 1 values, and
gathered into the product over the shell's points.  Every term is even
in k, so each shell is evaluated on one point of every +-k pair (half its
points), and a shell's sum is twice its half shell's.  The lower
and upper sums of the sandwich share one pass over the shells, taken a
block of consecutive shells at a time: a block holds about half as many
points as every shell summed before it, at least _BLOCK_MIN = 512 and at
most _BLOCK_MAX = 4096 unless one shell alone holds more.  Each block
builds its mollifier weights and dual norms once and makes one
ball-transform call on every radius still summing times every dual norm;
the shells are then summed one by one, in order, with the stop rules
below checked after each, so the sums do not depend on the block
sizes.  The blocks of the inner shells are built once per process
(_block).

Every sum carries a proven tail.  Every frequency k on shell c has
|X^{-T} k| >= sigma c, where sigma = 1/||X||_2 is the smallest singular
value of X^{-T}.  rho0_hat >= 0, so the mollifier mass of all of shell c
is exactly m_c = G_c^n - G_(c-1)^n with G_c = 1 + 2 sum_{k=1..c}
rho0_hat(epsilon k), and at radius r, with a table length K >= C,

    T = (r^n/|det|) [sum_{c=C+1..K} env(r sigma c) m_c
                     + env(r sigma (K + 1)) ((G_K + 2H)^n - G_K^n)] + R'

bounds everything the sum leaves out after shell C.  env(s) bounds
|hat_chi_ball(n, s')| for all s' >= s: 1/(pi s^2) + 1/(2 pi^2 s^3) for
n = 3 and M(2 pi s)/s for n = 2, with M(x) >= sqrt(J1^2 + Y1^2)(x) >=
|J1(x)| from Nicholson's formula (Watson, Bessel Functions, 13.73),
cosh 2t = 1 + 2 sinh^2 t and the substitution u = sinh t:

    J1^2 + Y1^2 = (8/pi^2) int_0^inf K0(2x u) (1 + 2u^2)/sqrt(1 + u^2) du
                <= (8/pi^2) int_0^inf K0(2x u) (1 + 3u^2/2) du
                 = (2/(pi x)) (1 + 3/(8 x^2)) = M(x)^2,

since (1 + 2u^2)^2 <= (1 + u^2)(1 + 3u^2/2)^2 and
int_0^inf u^j K0(a u) du is pi/(2a) for j = 0 and pi/(2a^3) for j = 2.
M decreases, so each tail stays a proof.  Past the table the shells share
the envelope of shell K + 1, and their mass is at most
(G_K + 2H)^n - G_K^n: H = g(epsilon a) + (4/(pi epsilon))^8 a^-7/7 with
a = K + 1 bounds sum_{k > K} g(epsilon k) >= sum_{k > K}
rho0_hat(epsilon k).  R' allows for the rounding of the float sums and
of the table (_tail_table, _poisson_sums).
The sandwich counts exactly before it sums, so each of its two sums stops
at the first shell whose proven tail is below its margin (count - lower
or upper - count), or, where the margin is too thin for that, at the
first shell whose proven tail is below a fixed tail target of 1e-3.  A
sum is cut, and the check reported inconclusive, at the last shell C
whose shells 1..C hold at most about 4e8 points: the work of a shell
grows like its points, c^(n-1), so the budget is on points, not shells
(C = 10 000 for n = 2, 367 for n = 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import LatticeBasis
from .counting import count_points, unit_ball_volume

# ---------------------------------------------------------------------------
# Ball transforms
# ---------------------------------------------------------------------------

# below this the closed forms lose digits to trig cancellation, so an
# even Taylor series takes over
_SMALL_S = 1e-3

# J1 by the Hankel expansion from this argument on, by the trapezoid rule
# below it
_HANKEL_FROM = 25.0


def _hankel_coefficients(count: int) -> tuple[float, ...]:
    """a_k(1) = prod_{j=1..k} (4 - (2j - 1)^2) / (k! 8^k), k < count, the
    Hankel coefficients of order 1 (DLMF 10.17.1)."""
    a = [1.0]
    for k in range(count - 1):
        a.append(a[-1] * (4 - (2 * k + 1) ** 2) / (8 * (k + 1)))
    return tuple(a)


# P = sum_k (-1)^k a_2k z^2k and Q = sum_k (-1)^k a_(2k+1) z^(2k+1) with
# z = 1/x, over a_0..a_18: the first neglected term a_19 / x^19 is below
# 2^-56 at x = 25 and falls as x grows
_HANKEL_P = _hankel_coefficients(19)[0::2]
_HANKEL_Q = _hankel_coefficients(19)[1::2]

# J1(x) = (1/pi) int_0^pi cos(tau - x sin tau) d tau is the mean of that
# integrand over a whole period, where the trapezoid rule on 64 nodes
# tau_j = 2 pi j/64 is exact up to the aliased J_63(x) - J_65(x).  The
# integrand is 1 at tau = 0 and -1 at pi, and folding tau_j with
# pi - tau_j and 2 pi - tau_j leaves sin(tau_j) sin(x sin tau_j) / 16 for
# j = 1..15 and sin(x) / 32 for j = 16
_TRAPEZOID_SIN = np.sin(math.pi * np.arange(1, 17) / 32.0)
_TRAPEZOID_SIN[-1] = 1.0
_TRAPEZOID_WEIGHTS = np.append(_TRAPEZOID_SIN[:-1] / 16.0, 1.0 / 32.0)
# arguments per block of the trapezoid rule, which holds 16 sines per
# argument
_TRAPEZOID_BLOCK = 4096


def _horner(coefficients, y: np.ndarray) -> np.ndarray:
    """sum_k coefficients[k] y^k at each y."""
    acc = np.full_like(y, coefficients[-1])
    for c in coefficients[-2::-1]:
        acc *= y
        acc += c
    return acc


def _j1_hankel(x: np.ndarray) -> np.ndarray:
    """J1 at each x >= _HANKEL_FROM by the Hankel expansion."""
    z = 1.0 / x
    y = -z * z
    p = _horner(_HANKEL_P, y)
    q = _horner(_HANKEL_Q, y) * z
    sin, cos = np.sin(x), np.cos(x)
    return ((sin - cos) * p + (sin + cos) * q) / np.sqrt(math.pi * x)


def _j1_trapezoid(x: np.ndarray) -> np.ndarray:
    """J1 at each x < _HANKEL_FROM by the trapezoid rule, in blocks.  Each
    row of 16 terms is summed on its own, not by a BLAS product, so its
    bits do not depend on the number of rows."""
    out = np.empty_like(x)
    for lo in range(0, x.size, _TRAPEZOID_BLOCK):
        block = slice(lo, lo + _TRAPEZOID_BLOCK)
        terms = np.sin(np.multiply.outer(x[block], _TRAPEZOID_SIN))
        terms *= _TRAPEZOID_WEIGHTS
        out[block] = np.add.reduce(terms, axis=1)
    return out


def _j1(x: np.ndarray) -> np.ndarray:
    """Bessel J1 at each x > 0 of an array of any shape (module
    docstring), within 32 units of 2^-52 min(0.6, sqrt(2/(pi x))), the
    size of J1 near x."""
    near = x < _HANKEL_FROM
    if not near.any():
        return _j1_hankel(x)
    out = np.empty_like(x)
    out[near] = _j1_trapezoid(x[near])
    out[~near] = _j1_hankel(x[~near])
    return out


def hat_chi_ball(n: int, s):
    """Fourier transform of the unit-ball indicator at radial frequency s.

    n = 3: -cos(2 pi s)/(pi s^2) + sin(2 pi s)/(2 pi^2 s^3)
    n = 2: J1(2 pi s)/s
    with the value at s = 0 equal to the unit-ball volume and a short
    even Taylor series bridging the removable singularity.  Each value
    depends on its own argument alone, whatever else shares the call.

    The domain is |s| with 2 pi |s| finite, up to about 2.86e307.  Past
    that the phase 2 pi s overflows to inf and both n = 2 and n = 3
    return NaN with a RuntimeWarning; nothing here checks for it, and the
    `fourier` command refuses such an s_max (exit 3).
    """
    if n not in (2, 3):
        raise ValueError("closed forms are implemented for n in {2, 3}")
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    # a new array, so the work below may overwrite it
    sb = np.abs(np.atleast_1d(s))
    tiny = np.flatnonzero(sb < _SMALL_S)
    st = sb.flat[tiny]
    # the closed form runs on every argument, the tiny ones lifted to
    # _SMALL_S so that s = 0 divides by nothing; their values are then
    # overwritten by the series.  Past about 5.7e102 (n = 3) s^3
    # overflows to inf and its term to the right 0, so overflow is quiet
    np.maximum(sb, _SMALL_S, out=sb)
    with np.errstate(over="ignore"):
        if n == 3:
            # -cos(u) / (pi sb sb) + sin(u) / (2 pi^2 sb^3) with u =
            # 2 pi sb, each operation as written, in four arrays of the
            # arguments' size: on large shells the temporaries of the
            # plain expression set a sandwich check's peak memory
            u = 2.0 * math.pi * sb
            out = np.cos(u)
            np.negative(out, out=out)
            den = math.pi * sb
            den *= sb
            out /= den
            np.sin(u, out=u)
            np.power(sb, 3, out=den)
            np.multiply(2.0 * math.pi ** 2, den, out=den)
            u /= den
            out += u
        else:
            # J1 in numpy: scipy.special would cost about 0.3 s and 25 MB
            # on first use, inside the first n = 2 call
            out = _j1(2.0 * math.pi * sb) / sb
    if tiny.size:
        if n == 3:
            u2 = (2.0 * math.pi * st) ** 2
            # (u^2/3 - u^4/30 + u^6/840 - u^8/45360) / (pi s^2)
            poly = (1.0 / 3.0
                    - u2 * (1.0 / 30.0
                            - u2 * (1.0 / 840.0 - u2 / 45360.0)))
            out.flat[tiny] = 4.0 * math.pi * poly
        else:
            v = (math.pi * st) ** 2
            out.flat[tiny] = math.pi * (1.0 - v / 2.0 + v * v / 12.0
                                        - v ** 3 / 144.0)
    return float(out[0]) if scalar else out


def _ball_envelope(n: int, s):
    """env(s) >= |hat_chi_ball(n, s')| for every s' >= s > 0, decreasing
    in s, at a float or at each element of an array.

    n = 3: 1/(pi s^2) + 1/(2 pi^2 s^3), the closed form with |cos| and
    |sin| bounded by 1.  n = 2: M(2 pi s)/s with M(x)^2 =
    (2/(pi x))(1 + 3/(8 x^2)) >= J1^2 + Y1^2 >= J1^2, the Nicholson bound
    of the module docstring.  Both are capped at the unit-ball volume,
    hat_chi_ball's value at 0 and the largest it takes.  Only products,
    quotients, sums and a square root, so a float and an array element
    give the same bits.
    """
    s = np.asarray(s, dtype=float)
    if n == 3:
        env = (1.0 / (math.pi * s * s)
               + 1.0 / (2.0 * math.pi ** 2 * (s * s * s)))
    else:
        x = 2.0 * math.pi * s
        env = np.sqrt(2.0 / (math.pi * x) * (1.0 + 3.0 / (8.0 * x * x))) / s
    env = np.minimum(env, unit_ball_volume(n))
    return env if env.ndim else float(env)


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


def _rho0_majorant(y: float) -> float:
    """g(y) = min(1, (m / (2 pi |y|))^m) >= |rho0_hat(y)| with m =
    _ORDER, since |sin| <= 1; (4 / (pi |y|))^8 for m = 8."""
    if y == 0.0:
        return 1.0
    return min(1.0, (_ORDER / (2.0 * math.pi * abs(y))) ** _ORDER)


def _majorant_tail(epsilon: float, a: int) -> float:
    """H >= sum_{k >= a} g(epsilon k): the first term g(epsilon a) plus the
    integral of (m / (2 pi epsilon x))^m from a on, (m/(2 pi epsilon))^m
    a^(1-m)/(m-1)."""
    b = (_ORDER / (2.0 * math.pi * epsilon)) ** _ORDER
    return _rho0_majorant(epsilon * a) + b * a ** (1 - _ORDER) / (_ORDER - 1)


# below this epsilon (m / (2 pi epsilon))^m, with m = _ORDER, passes 2^-8
# times the largest float, and the proven tails may overflow
_MIN_EPSILON = 2.0 * _ORDER / (2.0 * math.pi
                               * np.finfo(float).max ** (1.0 / _ORDER))


def _power_gap(g, d, n: int):
    """(g + d)^n - g^n, summed as d sum_j (g + d)^j g^(n-1-j) so that a
    small d does not cancel away, at floats or elementwise at arrays.  The
    sum is taken in Horner form, by products and sums alone, so a float
    and an array element give the same bits."""
    h = g + d
    acc, power = 1.0, 1.0
    for _ in range(n - 1):
        power = power * g
        acc = acc * h + power
    return d * acc


# ---------------------------------------------------------------------------
# Smoothed counts via Poisson summation
# ---------------------------------------------------------------------------


def _shell_points(n: int, *shells: int) -> np.ndarray:
    """Half of the integer vectors of sup norm c, one of every +-k pair,
    for each c of ``shells`` in turn, as the rows of K, shape (m, n).

    Face j of shell c holds the vectors with x_j = +-c whose earlier
    coordinates lie in (-c, c) and whose later ones run over [-c, c], so
    every vector of the shell lies on exactly one face.  K holds the
    x_j = +c side of each face in lexicographic order; the x_j = -c side
    is that side negated, the other half of the shell.
    """
    faces = []
    for c in shells:
        for j in range(n):
            shape = (2 * c - 1,) * j + (1,) + (2 * c + 1,) * (n - 1 - j)
            face = np.indices(shape).reshape(n, -1).T
            face[:, :j] -= c - 1
            face[:, j] = c
            face[:, j + 1:] -= c
            faces.append(face)
    return np.vstack(faces)


# a block of shells holds about half as many half-shell points as every
# shell summed before it, but at least _BLOCK_MIN and at most _BLOCK_MAX
# unless one shell alone holds more.  Without the floor the first blocks
# are single small shells; without the cap a sum pays for up to as many
# transforms past its stopping shell as before it, and the arrays of the
# last block grow with it
_BLOCK_MIN = 512
_BLOCK_MAX = 4096


def _half_size(n: int, c: int) -> int:
    """Points of shell c in its half shell, one of every +-k pair."""
    return ((2 * c + 1) ** n - (2 * c - 1) ** n) // 2


def _blocks(n: int, cutoff: int):
    """(first, last) of each block of consecutive shells, in order, that
    together cover shells 1..cutoff."""
    first, summed = 1, 0
    while first <= cutoff:
        room = min(max(summed // 2, _BLOCK_MIN), _BLOCK_MAX)
        last, size = first, _half_size(n, first)
        while last < cutoff and size + _half_size(n, last + 1) <= room:
            last += 1
            size += _half_size(n, last)
        yield first, last
        summed += size
        first = last + 1


# a block inside the cube (2 last + 1)^n <= 2^16 is kept for the life of
# the process: shells up to 127 for n = 2 and 19 for n = 3, about 2.5 MB
_MEMO_POINTS = 1 << 16
_block_memo: dict[tuple[int, int, int], tuple] = {}


def _block(n: int, first: int, last: int):
    """Shells first..last as (K, K as floats, starts): K is
    _shell_points(n, first, ..., last), shell first + j in rows starts[j]
    to starts[j + 1]; read-only and built once per process when
    (2 last + 1)^n <= _MEMO_POINTS."""
    block = _block_memo.get((n, first, last))
    if block is None:
        shells = range(first, last + 1)
        K = _shell_points(n, *shells)
        sizes = [_half_size(n, c) for c in shells]
        block = (K, K.astype(float), tuple(np.cumsum([0, *sizes]).tolist()))
        if (2 * last + 1) ** n <= _MEMO_POINTS:
            for a in block[:2]:
                a.setflags(write=False)
            _block_memo[n, first, last] = block
    return block


def _dual_norms(K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """|W k| at each row k of K (integers, or the same as floats).

    The squares are added column by column, left to right, which is the
    order of np.sum over the short axis 1 at a fifth of its cost."""
    Y = np.asarray(K, dtype=float) @ W.T
    Y *= Y
    out = Y[:, 0] + Y[:, 1]
    for j in range(2, Y.shape[1]):
        out += Y[:, j]
    return np.sqrt(out, out=out)


def _shell_rho(K: np.ndarray, c: int, epsilon: float) -> np.ndarray:
    """Mollifier transform prod_j rho0_hat(epsilon k_j) at each row k of
    K, a shell or a block of shells up to c, gathered from rho0_hat at the
    c + 1 values |k_j| = 0..c."""
    r = _rho0_hat(epsilon * np.arange(c + 1))
    # rho0_hat is even: with the values for k_j = 1..c appended in
    # reverse, a negative k_j indexes its own value from the end
    r = np.concatenate((r, r[:0:-1]))
    rho = np.ones(K.shape[0])
    for j in range(K.shape[1]):
        rho *= r[K[:, j]]
    return rho


# a generous multiple of the unit roundoff for the rounding allowances of a
# proven tail (see _poisson_sums)
_ROUNDING = 64.0 * math.ulp(1.0)


def _shell_masses(n: int, epsilon: float, length: int):
    """(G_K, m) for K = ``length``: G_c = 1 + 2 sum_{k=1..c}
    rho0_hat(epsilon k), and m[c - 1] = G_c^n - G_(c-1)^n, c = 1..K, the
    mollifier mass prod_j rho0_hat(epsilon k_j) of all of shell c (rho0_hat
    >= 0, so the shells 0..c together hold G_c^n).  Each m_c is taken as
    _power_gap(G_(c-1), 2 rho0_hat(epsilon c), n), so nothing cancels."""
    rho = _rho0_hat(epsilon * np.arange(length + 1))
    g = np.cumsum(np.concatenate(([1.0], 2.0 * rho[1:])))
    return float(g[-1]), _power_gap(g[:-1], 2.0 * rho[1:], n)


def _tail_table(n: int, epsilon: float, length: int, reach):
    """The shell-mass tail bounds of a table of length K = ``length``,
    before the scale r^n/|det| and the allowance R of the summed terms, as
    (bounds, env): one row per element r sigma of ``reach``, bounds[C] the
    bound on everything past shell C (C = 0..K) and env[c - 1] =
    env(r sigma c) (c = 1..K + 1).

    With G_c = 1 + 2 sum_{k=1..c} rho0_hat(epsilon k) and shell masses
    m_c = G_c^n - G_(c-1)^n (module docstring), bounds[C] is

        A_C = sum_{c=C+1..K} env(r sigma c) m_c
              + env(r sigma (K + 1)) ((G_K + 2H)^n - G_K^n),

    with H = _majorant_tail(epsilon, K + 1), plus an allowance for the
    table's own rounding,

        _ROUNDING ((2 n K + 2) A_C + n G_K^(n-1) K env(r sigma (C + 1))).

    Each float rho0_hat(epsilon k) is within _ROUNDING / 2 of the true
    value: |sinc| <= 1 is within about 6 units of roundoff u = 2^-53
    after the rounded argument, sine and quotient, and the 8th power
    makes that 48 u and adds a few more.  So each G_c is within
    2 c _ROUNDING G_c of its own (G_c >= 1), and the error of at most
    _ROUNDING in 2 rho0_hat(epsilon c) moves m_c by at most
    n G_c^(n-1) _ROUNDING, which summed against env over shells
    C + 1..K is the second term, since env decreases.  The errors of
    G_(c-1) and G_K move m_c and the last term by a relative
    2 (n - 1) K _ROUNDING, and the envelope, the products and the K + 1
    sums taken from the far end by less than a relative (2 K + 2)
    _ROUNDING.
    """
    g_k, masses = _shell_masses(n, epsilon, length)
    rest = _power_gap(g_k, 2.0 * _majorant_tail(epsilon, length + 1), n)
    masses = np.append(masses, rest)
    env = _ball_envelope(n, np.multiply.outer(reach,
                                              np.arange(1, length + 2)))
    # bounds[C] sums the terms of shells C + 1..K + 1, from the far end
    bounds = np.cumsum((env * masses)[:, ::-1], axis=1)[:, ::-1]
    bounds *= 1.0 + _ROUNDING * (2 * n * length + 2)
    bounds += (_ROUNDING * n * g_k ** (n - 1) * length) * env
    return bounds, env


class PoissonSum(NamedTuple):
    """A Poisson sum at one radius: its value through shell ``shells``,
    the proven bound ``tail`` on everything past that shell, and the stop
    rule that fired ("margin", "target", or None if neither did)."""

    value: float
    tail: float
    shells: int
    rule: str | None


def _poisson_sums(basis: LatticeBasis, radii, epsilon: float, cutoff: int,
                  margins=None, tail_target: float = 0.0,
                  singular=None) -> list[PoissonSum]:
    """Main term plus shells 1..cutoff, at each radius of ``radii``, for
    the mollifier of width ``epsilon``, each with its proven tail.

    A shell's points, mollifier weights and dual norms do not depend on
    the radius, so the shells are built a block at a time (_blocks) and
    summed at every radius still accumulating.  A block gathers its
    mollifier weights from rho0_hat at its last shell's coordinates, makes
    one pass over its dual norms and one ball-transform call on the outer
    product of those radii and the dual norms, whose values are those of
    one call per shell.
    Every term is even in k, so all of this runs on one point of each +-k
    pair, and a shell's sum is twice its half shell's: each half shell's
    terms are summed on their own, one radius at a time, and doubled,
    which is exact.  The shells are walked in order, and a radius stops
    at its first shell that meets a stop rule, so transforms computed
    past that shell in its block go unused.

    The tail of radius r after shell C is the shell-mass bound of the
    module docstring with its table allowance (_tail_table), times
    r^n/|det|, plus a rounding allowance R = _ROUNDING (1 + C + 2 pi r
    s_max kappa) M for the terms summed; the two allowances make the R'
    of the module docstring.  The table has a length K of at least twice
    the last shell of the block being summed: it is built at the first
    block, and again at each block whose last shell passes K/2, at twice
    the larger of K and that shell.  M bounds the absolute sum of every
    term added so far (shell c's terms are at most (r^n/|det|)
    env(r sigma c) rho each), s_max is the largest dual norm summed and
    kappa the condition number of the basis.  Each term is exact to a few
    ulps of that bound, except that its phase 2 pi r s carries a relative
    error of a few ulps; the pairwise sum of a half shell adds at most
    log2 of its size ulps of M, doubling it adds none, and adding C shells
    one after another adds C more.

    ``margins``, if given, holds one function per radius that maps the
    radius's value to its margin: a radius stops at the first shell whose
    tail is below its margin (rule "margin").  Any radius stops once its
    tail is below ``tail_target`` (rule "target").  Without either, every
    radius runs to ``cutoff``.

    ``singular``, if given, holds the basis's singular values in
    decreasing order, as np.linalg.svd returns them; a caller that has
    taken them already saves the second decomposition.
    """
    if margins is not None and len(margins) != len(radii):
        raise ValueError("margins needs one function per radius")
    n = basis.n
    W = np.linalg.inv(basis.entries).T
    if singular is None:
        singular = np.linalg.svd(basis.entries, compute_uv=False)
    # smallest singular value of W, so |W k| >= sigma |k|_inf
    sigma = 1.0 / float(singular[0])
    kappa = float(singular[0] / singular[-1])
    det = abs(basis.det)
    values = [t ** n * unit_ball_volume(n) / det for t in radii]
    mass = list(values)
    scales = [t ** n / det for t in radii]
    tails = [math.inf] * len(radii)
    shells = [0] * len(radii)
    rules: list[str | None] = [None] * len(radii)
    s_max = 0.0
    length = 0
    active = list(range(len(radii)))
    for first, last in _blocks(n, cutoff):
        if length < 2 * last:
            length = 2 * max(length, last)
            bounds, env = _tail_table(n, epsilon, length,
                                      [radii[i] * sigma for i in active])
            table = dict(zip(active, zip(bounds.tolist(), env.tolist())))
        K, Kf, starts = _block(n, first, last)
        rho = _shell_rho(K, last, epsilon)
        s = _dual_norms(Kf, W)
        peaks = np.maximum.reduceat(s, starts[:-1]).tolist()
        # the radii still summing when the block starts, one row each
        rows = active
        transform = hat_chi_ball(
            n, np.multiply.outer([radii[i] for i in rows], s))
        transform *= np.array([scales[i] for i in rows])[:, None]
        transform *= rho
        for c, lo, hi, peak in zip(range(first, last + 1), starts,
                                   starts[1:], peaks):
            s_max = max(s_max, peak)
            rho_mass = 2.0 * float(np.add.reduce(rho[lo:hi]))
            for i, terms in zip(rows, transform):
                if rules[i] is not None:
                    continue
                t = radii[i]
                bound, env = table[i]
                values[i] += 2.0 * float(np.add.reduce(terms[lo:hi]))
                mass[i] += scales[i] * env[c - 1] * rho_mass
                rounding = _ROUNDING * (
                    1.0 + c + 2.0 * math.pi * t * s_max * kappa) * mass[i]
                tails[i] = scales[i] * bound[c] + rounding
                shells[i] = c
                if margins is not None and tails[i] < margins[i](values[i]):
                    rules[i] = "margin"
                elif tails[i] < tail_target:
                    rules[i] = "target"
            active = [i for i in active if rules[i] is None]
            if not active:
                break
        if not active:
            break
    return [PoissonSum(*row) for row in zip(values, tails, shells, rules)]


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
    lower_rule: str | None
    upper_rule: str | None


# points of shells 1..C a sandwich sum may reach before it is reported
# inconclusive: (2C + 1)^n - 1, so n = 2 stops at shell 10 000 and
# n = 3 at shell 367
_MAX_POINTS = 40_000 * 10_001
# a sandwich sum whose margin is too thin to prove stops once its proven
# tail is below this
_TAIL_TARGET = 1e-3


def _max_cutoff(n: int) -> int:
    """Outermost shell C whose shells 1..C hold at most _MAX_POINTS
    points, (2C + 1)^n - 1 <= _MAX_POINTS, in integer arithmetic from a
    float first guess."""
    c = int((_MAX_POINTS + 1) ** (1.0 / n)) // 2
    while (2 * c + 3) ** n - 1 <= _MAX_POINTS:
        c += 1
    while (2 * c + 1) ** n - 1 > _MAX_POINTS:
        c -= 1
    return c


def sandwich_check(basis: LatticeBasis, t: float,
                   epsilon: float) -> SandwichResult:
    """Check N(t - d) <= N(t) <= N(t + d) for the smoothed counts.

    The mollifier lives on the integer side of Poisson summation, so the
    radius shift that makes the sandwich rigorous is the mollifier
    support radius sqrt(n) * epsilon stretched by the largest singular
    value of the basis (for the identity this is just sqrt(n) * epsilon).

    The exact count comes first, so each smoothed count stops at the
    first shell where its proven tail T is below its margin (count -
    lower, upper - count), or else once T < _TAIL_TARGET = 1e-3;
    lower_rule and upper_rule say which.  The verdict is "violated" when
    a margin is below -T with T < _TAIL_TARGET, "holds" when both sums
    stopped with their margins at least -T (proven when the rule is
    "margin", to within T when it is "target"), and "inconclusive", with
    holds = None, when a sum reaches _max_cutoff(n) without stopping.  A
    non-finite t or epsilon, a nonpositive epsilon, an epsilon below
    _MIN_EPSILON (about 7.5e-39, where the proven tail overflows), or a
    basis of dimension outside {2, 3} (no closed form for hat_chi_ball) is
    rejected before the exact count.
    """
    if not (math.isfinite(t) and math.isfinite(epsilon)):
        raise ValueError("t and epsilon must be finite")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if epsilon < _MIN_EPSILON:
        raise ValueError(
            f"epsilon {epsilon:.3g} below {_MIN_EPSILON:.3g}: the "
            "mollifier's proven tail overflows"
        )
    if basis.n not in (2, 3):
        raise ValueError("closed forms are implemented for n in {2, 3}")
    # the largest singular value, which np.linalg.norm(entries, 2) is
    singular = np.linalg.svd(basis.entries, compute_uv=False)
    shift = epsilon * math.sqrt(basis.n) * float(singular[0])
    if t - shift <= 0:
        raise ValueError(
            f"epsilon too large: shifted radius {t - shift:.3g} <= 0"
        )
    exact = count_points(basis, t)
    margins = (lambda lower: exact - lower, lambda upper: upper - exact)
    lo, hi = _poisson_sums(basis, (t - shift, t + shift), epsilon,
                           _max_cutoff(basis.n), margins, _TAIL_TARGET,
                           singular)
    sides = [(margin(sm.value), sm.tail)
             for margin, sm in zip(margins, (lo, hi))]
    if any(margin < -tail and tail < _TAIL_TARGET for margin, tail in sides):
        holds, status = False, "violated"
    elif lo.rule and hi.rule:
        holds, status = True, "holds"
    else:
        holds, status = None, "inconclusive"
    return SandwichResult(holds, status, t, epsilon, shift, exact, lo.value,
                          hi.value, lo.tail, hi.tail,
                          max(lo.shells, hi.shells), lo.rule, hi.rule)
