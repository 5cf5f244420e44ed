"""Lattice bases and unipotent-transformed frequency coordinates.

A basis is a real invertible matrix whose columns generate the lattice.
Counting and the Fourier sums work through its Gram matrix, and the
oscillatory phases through the coordinates N^{-T} k of a frequency k,
for a unit upper triangular N.

Conventions, fixed once here so every module agrees:

* columns of ``entries`` are the generators;
* N's strict upper entries are packed row-major into ``eta``
  (for n = 3: eta = (N12, N13, N23)).

Every basis is checked by LatticeBasis.from_stack, a single matrix as a
stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DET_GUARD = 1e-12


class SingularBasisError(ValueError):
    """Matrix is singular or too close to it to trust as a basis."""


@dataclass(frozen=True)
class LatticeBasis:
    """Invertible real matrix, columns generating a full-rank lattice."""

    entries: np.ndarray
    det: float = field(init=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape "
                             f"{arr.shape}")
        [basis] = self.from_stack(arr[None])
        if not isinstance(basis, LatticeBasis):
            raise basis
        object.__setattr__(self, "entries", basis.entries)
        object.__setattr__(self, "det", basis.det)

    @classmethod
    def from_stack(cls, mats) -> list:
        """Check each matrix of a stack of shape (B, n, n): a list, in
        stack order, of its LatticeBasis or the error LatticeBasis(mats[b])
        raises; the bases' entries are read-only views of one copy.

        Hadamard: |det| is at most the product of the column norms, with
        equality for orthogonal columns, so |det| > DET_GUARD times that
        product measures how far the columns are from dependent whatever
        their scale or shear.  A NaN or infinite entry makes the product
        NaN or infinite: a finite product proves every entry finite, so
        entries are tested only where one is not, and one that overflowed
        from finite entries is refused before np.linalg.det overflows
        with a warning.  np.linalg.det factors each matrix of a stack on
        its own, so a det has the same bits in any stack.
        """
        arr = np.array(mats, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected a stack of square matrices, got "
                             f"shape {arr.shape}")
        if arr.shape[1] < 2:
            raise ValueError("dimension must be at least 2")
        arr.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):
            volumes = np.hypot.reduce(arr, axis=1).prod(axis=1)
        checked = np.isfinite(volumes)
        every = bool(checked.all())
        finite = checked if every else np.isfinite(arr).all(axis=(1, 2))
        dets = iter(np.linalg.det(arr if every else arr[checked]).tolist())
        out = []
        for b, (ok, fin, volume) in enumerate(zip(
                checked.tolist(), finite.tolist(), volumes.tolist())):
            if not fin:
                out.append(ValueError("matrix entries must be finite"))
            elif not ok:
                out.append(SingularBasisError(
                    "determinant not checkable below guard: column-norm "
                    "product overflows"))
            elif not abs(d := next(dets)) > DET_GUARD * volume:
                out.append(SingularBasisError(
                    f"determinant {d:.3e} below guard for column-norm "
                    f"product {volume:.3e}"))
            else:
                out.append(basis := object.__new__(cls))
                object.__setattr__(basis, "entries", arr[b])
                object.__setattr__(basis, "det", d)
        return out

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
# Transformed coordinates
# ---------------------------------------------------------------------------


def transformed_coords(eta, k) -> np.ndarray:
    """Coordinates (N^{-T}) k by forward substitution, N the unit upper
    triangular matrix whose strict upper entries ``eta`` packs row-major.

    For n = 3 this is (k1, k2 - eta1 k1,
    (eta1 eta3 - eta2) k1 - eta3 k2 + k3).
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 1:
        raise ValueError(f"expected a vector, got shape {k.shape}")
    n = len(k)
    eta = np.asarray(eta, dtype=float).ravel()
    if eta.size != n * (n - 1) // 2:
        raise ValueError(f"eta length {eta.size} is not n(n-1)/2 "
                         f"for n = {n}")
    out = np.zeros(n)
    for i in range(n):
        # row j of the packing starts at j (2n - j - 1) / 2, so N[j, i]
        # is eta[j (2n - j - 3) / 2 + i - 1]
        out[i] = k[i] - sum(eta[j * (2 * n - j - 3) // 2 + i - 1] * out[j]
                            for j in range(i))
    return out
