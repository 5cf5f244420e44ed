"""Exact lattice point counts in Euclidean balls.

count_many enumerates {k in Z^n : |X k| <= t} for a whole batch of
bases at once, through the upper Cholesky factor R of each Gram matrix
(Fincke and Pohst).  A row of the enumeration is one basis together with
a choice of the trailing coordinates k_{i+1}, ..., k_{n-1}: it carries
the squared radius still unspent and the shifts sum_{m > i} R[j, m] k_m
of the coordinates j <= i that are still free.  At every level above
the last, each row's admissible k_i form an interval, and all rows are
expanded into their integers in one ragged arange (repeat + cumsum);
rows whose budget goes negative are dropped.  At level 0 the admissible
integers are a contiguous run, so they are counted in closed form and
summed per basis with bincount.  The same code serves every dimension,
and count_points is a batch of one.  A batch has one dimension and a
radius or a grid of radii: the 64-bit volume check runs at the largest
radius and the Gram matrices are factored once, before any enumeration;
each radius is then one enumeration of its own, so a grid counts exactly
as its radii do one by one.  The volume check cannot see a thin lattice,
whose count may pass its volume by far: a count of 2^53 or more, past
what level 0's float sums hold exactly, and a Gram matrix that overflows
are refused with OverflowError.

Each pass expands at most about ROW_CAP rows: the parents of a level are
cut into groups whose children fit under the cap (plus one parent's
children), so memory stays flat however many bases, however many radii
or however large a radius is asked for.  A level whose children all fit
under the cap, as every level of a small count does, is one pass with no
cutting.

Membership uses the closed ball with a hair of slack, |X k|^2 <= t^2 *
(1 + 1e-12), so points sitting exactly on the sphere are kept.  The
bundled configs rely on this: count_identity.json asks for integer radii
on Z^3, whose sphere points lie exactly on the boundary and survive
rounding only through the slack.  Known to be wrong: the slack also
keeps points strictly outside the ball, up to |X k| of about
t (1 + 5e-13).  count_points(Z^3, 1 - 1e-13) returns 7 where the count
is 1, and count_points(Z^3, 3 - 1e-13) returns 123 where it is 93.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .basis import LatticeBasis, gram

MEMBERSHIP_SLACK = 1e-12

# refuse to enumerate if even the ball volume overflows an unsigned word
_COUNT_LIMIT = 2.0 ** 64

# float sums of integers, as level 0 takes its counts, are exact below this
_EXACT_SUM = 2.0 ** 53

# rows one enumeration pass may expand into.  Without a cap criterion 4's
# 200 bases at t = 80 expand to 4M rows at once; at 2^12 a pass's arrays
# take well under 1 MB and stay in cache, which measured fastest on Haar
# batches at t = 8 and on Z^3 at t = 160 among caps from 2^10 to 2^16
ROW_CAP = 1 << 12


# cached: the sandwich's tail bound asks for it once per shell and radius
@functools.cache
def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def ball_volume(n: int, t: float, det: float) -> float:
    """Volume of the radius-t ball divided by the covolume |det|."""
    if t < 0:
        raise ValueError("radius must be nonnegative")
    if det == 0 or not math.isfinite(det):
        raise ValueError("determinant must be finite and nonzero")
    return t ** n * unit_ball_volume(n) / abs(det)


def _enumerate(R: np.ndarray, budget: float) -> np.ndarray:
    """Points k with |R k|^2 <= budget for every factor in the stack R of
    upper triangular matrices, shape (B, n, n); int64 counts, shape (B,)."""
    B, n, _ = R.shape
    diag = [R[:, i, i] for i in range(n)]
    cols = [R[:, :i, i] for i in range(n)]

    def level(i, b, rem, shift):
        # rows: basis b, unspent budget rem >= 0, shift[:, j] for j <= i
        rii = diag[i][b]
        s = np.sqrt(rem)
        centre = -shift[:, i]
        lo = np.ceil((centre - s) / rii)
        hi = np.floor((centre + s) / rii)
        width = np.maximum(hi - lo + 1.0, 0.0)
        if i == 0:
            counts = np.bincount(b, weights=width, minlength=B)
            if counts.max() >= _EXACT_SUM:
                raise OverflowError("count would exceed 2**53, past the "
                                    "exact range of its float sums")
            return counts.astype(np.int64)
        if width.max() >= _EXACT_SUM:
            # nor may one row have as many children as that
            raise OverflowError("enumeration would pass 2**53 rows at "
                                "one level")
        width = width.astype(np.int64)
        end = np.cumsum(width)
        start = end - width
        if end[-1] <= ROW_CAP:
            # every child fits in one pass
            windows = [(0, b.size)]
        else:
            # parents whose children start in the same ROW_CAP window
            # share a pass, so a pass holds at most ROW_CAP plus one
            # parent's children
            cuts = np.flatnonzero(np.diff(start // ROW_CAP, prepend=-1))
            windows = zip(cuts, [*cuts[1:], b.size])
        total = 0
        for a, c in windows:
            w = width[a:c]
            k = np.repeat(lo[a:c] - (start[a:c] - start[a]), w)
            k += np.arange(k.size)
            q = np.repeat(rii[a:c], w) * k + np.repeat(shift[a:c, i], w)
            rem_k = np.repeat(rem[a:c], w) - q * q
            keep = rem_k >= 0.0
            parent = np.repeat(np.arange(a, c), w)[keep]
            k = k[keep]
            b_k = b[parent]
            shift_k = shift[parent, :i] + cols[i][b_k] * k[:, None]
            # every part lies below 2**53, and so does the total before
            # a later pass, so the int64 sum cannot wrap before it is
            # checked
            total = total + level(i - 1, b_k, rem_k[keep], shift_k)
            if a and total.max() >= _EXACT_SUM:
                raise OverflowError("count would exceed 2**53, past the "
                                    "exact range of its float sums")
        return total

    return level(n - 1, np.arange(B), np.full(B, budget), np.zeros((B, n)))


def count_many(bases, t) -> np.ndarray:
    """Number of lattice points X k with |X k| <= t (closed ball) for each
    basis, in the order given, and each radius of t (a number or an array
    of radii in any order), as int64 of shape (len(bases),) + np.shape(t).
    Every basis must have the same dimension."""
    radii = np.asarray(t, dtype=float)
    ts = radii.ravel().tolist()
    if not ts:
        raise ValueError("need at least one radius")
    if not all(0.0 <= r < math.inf for r in ts):
        raise ValueError("radius must be finite and nonnegative")
    bases = list(bases)
    shape = (len(bases),) + radii.shape
    if not bases:
        return np.ones(shape, dtype=np.int64)
    n = bases[0].n
    if any(X.n != n for X in bases):
        raise ValueError("count_many needs bases of one dimension")
    # the volume falls as |det| grows, so the smallest |det| bounds the
    # largest count; compared as a radius, t ** n cannot overflow
    smallest = min(abs(X.det) for X in bases)
    if max(ts) > (_COUNT_LIMIT * smallest / unit_ball_volume(n)) ** (1.0 / n):
        raise OverflowError("count would exceed the 64-bit range")
    with np.errstate(over="ignore"):
        G = gram(np.array([X.entries for X in bases]))
    if not np.isfinite(G).all():
        raise OverflowError("Gram matrix overflows: a basis vector's "
                            "squared length passes the float range")
    R = np.linalg.cholesky(G)
    R = R.transpose(0, 2, 1)
    # one enumeration per radius, each with the scalar budget and the
    # flat memory of a single count
    counts = np.empty((len(bases), len(ts)), dtype=np.int64)
    for j, r in enumerate(ts):
        counts[:, j] = _enumerate(R, r * r * (1.0 + MEMBERSHIP_SLACK))
    return counts.reshape(shape)


def count_points(basis: LatticeBasis, t: float) -> int:
    """Number of lattice points X k with |X k| <= t (closed ball)."""
    return int(count_many([basis], t)[0])


def error_term(basis: LatticeBasis, t: float) -> float:
    """Count minus volume, the remainder under study."""
    return count_points(basis, t) - ball_volume(basis.n, t, basis.det)
