"""Lattice bases and their multiplicative coordinates.

A basis is a real invertible matrix whose columns generate the lattice.
Everything downstream (counting, Fourier sums, oscillatory phases) works
through the objects defined here: Gram matrices, the orthogonal-diagonal-
unipotent factorization X = K A N, integer column reduction into the
half-open unipotent slab, and the dual-norm coordinates that diagonalize
the phase functions.

Conventions, fixed once here so every module agrees:

* columns of ``entries`` are the generators;
* A is positive diagonal with ``A[i, i] = 1 / sqrt(a[i])``;
* N is unit upper triangular, its strict upper entries packed row-major
  into ``eta`` (for n = 3: eta = (N12, N13, N23));
* the slab form keeps every eta entry in [1, 2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

DET_GUARD = 1e-12


class SingularBasisError(ValueError):
    """Matrix is singular or too close to it to trust as a basis."""


class NotUnimodularError(ValueError):
    """Integer matrix whose determinant is not +-1."""


def _as_square_float(mat) -> np.ndarray:
    arr = np.array(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("dimension must be at least 2")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class LatticeBasis:
    """Invertible real matrix, columns generating a full-rank lattice."""

    entries: np.ndarray
    det: float = field(init=False)

    def __post_init__(self):
        arr = _as_square_float(self.entries)
        arr.setflags(write=False)
        d = float(np.linalg.det(arr))
        # Hadamard: |det| <= product of the column norms, with equality
        # for orthogonal columns, so the ratio measures how far the
        # columns are from dependent whatever their scale or shear;
        # math.hypot over the rows as Python floats is cheaper than
        # numpy on a 3 x 3
        volume = math.prod(map(math.hypot, *arr.tolist()))
        if not abs(d) > DET_GUARD * volume:
            raise SingularBasisError(
                f"determinant {d:.3e} below guard for column-norm "
                f"product {volume:.3e}"
            )
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "det", d)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def scaled(self, r: float) -> "LatticeBasis":
        if r == 0.0 or not math.isfinite(r):
            raise ValueError("scale factor must be finite and nonzero")
        return LatticeBasis(r * self.entries)

    def __repr__(self):
        return f"LatticeBasis(n={self.n}, det={self.det:.6g})"


def identity_basis(n: int) -> LatticeBasis:
    return LatticeBasis(np.eye(n))


def gram(basis: LatticeBasis) -> np.ndarray:
    """Gram matrix B^T B, symmetrized so it is exactly symmetric."""
    m = basis.entries.T @ basis.entries
    return (m + m.T) / 2.0


# ---------------------------------------------------------------------------
# Iwasawa factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IwasawaForm:
    """X = K A N with K orthogonal, A = diag(1/sqrt(a)), N unit upper."""

    K: np.ndarray
    a: np.ndarray
    eta: np.ndarray

    @property
    def n(self) -> int:
        return self.K.shape[0]

    def A_matrix(self) -> np.ndarray:
        return np.diag(1.0 / np.sqrt(self.a))

    def N_matrix(self) -> np.ndarray:
        return eta_to_unipotent(self.eta)

    def reconstruct(self) -> np.ndarray:
        return self.K @ self.A_matrix() @ self.N_matrix()


def eta_index(n: int, i: int, j: int) -> int:
    """Position of strict-upper entry (i, j), 0-based, in row-major packing."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j}) for n={n}")
    # rows above i contribute (n-1) + (n-2) + ... + (n-i) entries
    before = i * (n - 1) - i * (i - 1) // 2
    return before + (j - i - 1)


def eta_to_unipotent(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float).ravel()
    L = eta.size
    n = int(round((1 + math.sqrt(1 + 8 * L)) / 2))
    if n * (n - 1) // 2 != L:
        raise ValueError(f"eta length {L} is not n(n-1)/2 for any integer n")
    N = np.eye(n)
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            N[i, j] = eta[pos]
            pos += 1
    return N


def unipotent_to_eta(N: np.ndarray) -> np.ndarray:
    n = N.shape[0]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(N[i, j])
    return np.array(out)


def iwasawa_decompose(basis: LatticeBasis) -> IwasawaForm:
    """Factor the basis by modified Gram-Schmidt on its columns.

    A second orthogonalization sweep keeps K orthogonal to machine
    precision even for moderately ill-conditioned input.
    """
    X = basis.entries
    n = basis.n
    Q = np.zeros((n, n))
    R = np.zeros((n, n))
    for j in range(n):
        v = X[:, j].copy()
        for _ in range(2):
            for i in range(j):
                c = float(Q[:, i] @ v)
                v -= c * Q[:, i]
                R[i, j] += c
        nrm = float(np.linalg.norm(v))
        if nrm <= 0.0:
            raise SingularBasisError("column became zero during factorization")
        R[j, j] = nrm
        Q[:, j] = v / nrm
    a = 1.0 / np.diag(R) ** 2
    N = R / np.diag(R)[:, None]
    return IwasawaForm(K=Q, a=a, eta=unipotent_to_eta(N))


# ---------------------------------------------------------------------------
# Integer matrices and slab reduction
# ---------------------------------------------------------------------------


def _integer_det(mat: np.ndarray) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [[Fraction(int(x)) for x in row] for row in mat]
    n = len(m)
    sign = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    assert out.denominator == 1
    return int(out)


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer matrix with determinant exactly +-1."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr)
            if not np.array_equal(rounded, arr):
                raise NotUnimodularError("entries are not integers")
            arr = rounded.astype(np.int64)
        d = _integer_det(arr)
        if d not in (1, -1):
            raise NotUnimodularError(f"integer determinant is {d}, not +-1")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def det(self) -> int:
        return _integer_det(self.entries)


def reduce_to_nplus(basis: LatticeBasis) -> tuple[UnimodularMatrix, LatticeBasis]:
    """Integer column operations driving every eta entry into [1, 2).

    Adding an integer multiple of column i to column j (i < j) changes
    N[i, j] by that multiple and perturbs only rows above i in column j,
    so working each column bottom-up fixes every entry exactly once.
    For n = 3 the order is eta1, eta3, then eta2.  Ties at the slab edge
    resolve downward: the shift is -floor(value - 1).
    """
    form = iwasawa_decompose(basis)
    N = form.N_matrix()
    n = basis.n
    U = np.eye(n, dtype=np.int64)
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            m = -math.floor(N[i, j] - 1.0)
            if m != 0:
                N[:, j] += m * N[:, i]
                U[:, j] += m * U[:, i]
    reduced = LatticeBasis(basis.entries @ U)
    return UnimodularMatrix(U), reduced


# ---------------------------------------------------------------------------
# Dual norms and transformed coordinates
# ---------------------------------------------------------------------------


def dual_norm(basis: LatticeBasis, k) -> float:
    """Euclidean norm of (X^{-T}) k, the length of k in the dual metric."""
    k = np.asarray(k, dtype=float)
    if k.shape != (basis.n,):
        raise ValueError(f"frequency vector must have shape ({basis.n},)")
    w = np.linalg.solve(basis.entries.T, k)
    return float(np.linalg.norm(w))


def transformed_coords(eta, k) -> np.ndarray:
    """Coordinates (N^{-T}) k by forward substitution.

    For n = 3 this is (k1, k2 - eta1 k1,
    (eta1 eta3 - eta2) k1 - eta3 k2 + k3).
    """
    N = eta_to_unipotent(eta)
    n = N.shape[0]
    k = np.asarray(k, dtype=float)
    if k.shape != (n,):
        raise ValueError(f"expected vector of length {n}, got shape {k.shape}")
    out = np.zeros(n)
    for i in range(n):
        out[i] = k[i] - sum(N[j, i] * out[j] for j in range(i))
    return out


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def basis_to_json(basis: LatticeBasis) -> str:
    cols = [list(map(float, basis.entries[:, j])) for j in range(basis.n)]
    return json.dumps({"n": basis.n, "columns": cols})


def basis_from_json(text: str) -> LatticeBasis:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON for basis: {e}") from e
    if not isinstance(obj, dict) or "n" not in obj or "columns" not in obj:
        raise ValueError('basis JSON must be {"n": int, "columns": [[...], ...]}')
    n = obj["n"]
    cols = obj["columns"]
    if not isinstance(n, int) or len(cols) != n or any(len(c) != n for c in cols):
        raise ValueError("basis JSON has inconsistent dimensions")
    mat = np.array(cols, dtype=float).T
    return LatticeBasis(mat)
