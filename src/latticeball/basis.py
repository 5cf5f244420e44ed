"""Lattice bases and their multiplicative coordinates.

A basis is a real invertible matrix whose columns generate the lattice.
Everything downstream (counting, Fourier sums, oscillatory phases) works
through the objects defined here: Gram matrices, the orthogonal-diagonal-
unipotent factorization X = K A N, and the unipotent-transformed
frequency coordinates that the oscillatory phases are written in.

Conventions, fixed once here so every module agrees:

* columns of ``entries`` are the generators;
* A is positive diagonal with ``A[i, i] = 1 / sqrt(a[i])``;
* N is unit upper triangular, its strict upper entries packed row-major
  into ``eta`` (for n = 3: eta = (N12, N13, N23)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

DET_GUARD = 1e-12


class SingularBasisError(ValueError):
    """Matrix is singular or too close to it to trust as a basis."""


def _as_square_float(mat) -> np.ndarray:
    arr = np.array(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("dimension must be at least 2")
    return arr


@dataclass(frozen=True)
class LatticeBasis:
    """Invertible real matrix, columns generating a full-rank lattice."""

    entries: np.ndarray
    det: float = field(init=False)

    def __post_init__(self):
        arr = _as_square_float(self.entries)
        rows = arr.tolist()
        # Hadamard: |det| <= product of the column norms, with equality
        # for orthogonal columns, so the ratio measures how far the
        # columns are from dependent whatever their scale or shear;
        # math.hypot over the rows as Python floats is cheaper than
        # numpy on a 3 x 3.  A NaN or infinite entry makes its column's
        # norm, and so the product, NaN or infinite: a finite product
        # proves every entry finite, and one that overflowed from finite
        # entries is refused before np.linalg.det overflows with a warning
        volume = math.prod(map(math.hypot, *rows))
        if not math.isfinite(volume):
            entries = itertools.chain.from_iterable(rows)
            if not all(map(math.isfinite, entries)):
                raise ValueError("matrix entries must be finite")
            raise SingularBasisError("determinant not checkable below "
                                     "guard: column-norm product overflows")
        arr.setflags(write=False)
        d = float(np.linalg.det(arr))
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


def gram(basis) -> np.ndarray:
    """Gram matrix B^T B, symmetrized so it is exactly symmetric.

    ``basis`` is a LatticeBasis or an array of basis matrices whose last
    two axes are the matrix, such as a stack of shape (B, n, n); each
    matrix of a stack gets the same Gram matrix, bit for bit, as its
    LatticeBasis alone.
    """
    E = basis.entries if isinstance(basis, LatticeBasis) else basis
    m = np.swapaxes(E, -1, -2) @ E
    return (m + np.swapaxes(m, -1, -2)) / 2.0


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


def eta_to_unipotent(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float).ravel()
    L = eta.size
    n = int(round((1 + math.sqrt(1 + 8 * L)) / 2))
    if n * (n - 1) // 2 != L:
        raise ValueError(f"eta length {L} is not n(n-1)/2 for any integer n")
    N = np.eye(n)
    N[np.triu_indices(n, 1)] = eta
    return N


def unipotent_to_eta(N: np.ndarray) -> np.ndarray:
    return N[np.triu_indices(N.shape[0], 1)]


def iwasawa_decompose(basis: LatticeBasis) -> IwasawaForm:
    """Factor the basis by QR, with the signs of Q's columns and R's rows
    flipped so that R has a positive diagonal."""
    Q, R = np.linalg.qr(basis.entries)
    signs = np.where(np.diag(R) < 0.0, -1.0, 1.0)
    Q = Q * signs
    R = R * signs[:, None]
    d = np.diag(R)
    return IwasawaForm(K=Q, a=1.0 / d ** 2,
                       eta=unipotent_to_eta(R / d[:, None]))


# ---------------------------------------------------------------------------
# Transformed coordinates
# ---------------------------------------------------------------------------


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

