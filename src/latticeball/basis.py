"""Lattice bases and unipotent-transformed frequency coordinates.

A basis is a real invertible matrix whose columns generate the lattice.
Counting and the Fourier sums work through its Gram matrix, and the
oscillatory phases through the coordinates N^{-T} k of a frequency k,
for a unit upper triangular N.

Conventions, fixed once here so every module agrees:

* columns of ``entries`` are the generators;
* N's strict upper entries are packed row-major into ``eta``
  (for n = 3: eta = (N12, N13, N23)).
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


def _column_volume(rows: list) -> float:
    """Product of the column norms of a matrix given as lists of rows,
    refusing a non-finite matrix and one whose product overflows.

    Hadamard: |det| <= product of the column norms, with equality for
    orthogonal columns, so the ratio measures how far the columns are
    from dependent whatever their scale or shear; math.hypot over the
    rows as Python floats is cheaper than numpy on a 3 x 3.  A NaN or
    infinite entry makes its column's norm, and so the product, NaN or
    infinite: a finite product proves every entry finite, and one that
    overflowed from finite entries is refused before np.linalg.det
    overflows with a warning.
    """
    volume = math.prod(map(math.hypot, *rows))
    if not math.isfinite(volume):
        entries = itertools.chain.from_iterable(rows)
        if not all(map(math.isfinite, entries)):
            raise ValueError("matrix entries must be finite")
        raise SingularBasisError("determinant not checkable below "
                                 "guard: column-norm product overflows")
    return volume


def _check_guard(d: float, volume: float) -> None:
    if not abs(d) > DET_GUARD * volume:
        raise SingularBasisError(
            f"determinant {d:.3e} below guard for column-norm "
            f"product {volume:.3e}"
        )


@dataclass(frozen=True)
class LatticeBasis:
    """Invertible real matrix, columns generating a full-rank lattice."""

    entries: np.ndarray
    det: float = field(init=False)

    def __post_init__(self):
        arr = _as_square_float(self.entries)
        volume = _column_volume(arr.tolist())
        arr.setflags(write=False)
        d = float(np.linalg.det(arr))
        _check_guard(d, volume)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "det", d)

    @classmethod
    def from_stack(cls, mats) -> list:
        """Check each matrix of a stack of shape (B, n, n) as
        LatticeBasis(mats[b]) does, with one LAPACK call for all the
        determinants: a list, in stack order, holding for each matrix
        its LatticeBasis or the error that LatticeBasis(mats[b]) raises.

        Every check and every bit is the single construction's, entries
        and det alike (np.linalg.det factors each matrix of a stack on
        its own); the bases' entries are read-only views of one copy of
        the stack.
        """
        arr = np.array(mats, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected a stack of square matrices, got "
                             f"shape {arr.shape}")
        if arr.shape[1] < 2:
            raise ValueError("dimension must be at least 2")
        arr.setflags(write=False)
        # out holds each matrix's column-norm product, or its error,
        # until its determinant is checked
        out, checked = [], []
        for b, rows in enumerate(arr.tolist()):
            try:
                out.append(_column_volume(rows))
                checked.append(b)
            except ValueError as err:
                out.append(err)
        dets = np.linalg.det(arr[checked]).tolist()
        for b, d in zip(checked, dets):
            try:
                _check_guard(d, out[b])
            except ValueError as err:
                out[b] = err
                continue
            basis = object.__new__(cls)
            object.__setattr__(basis, "entries", arr[b])
            object.__setattr__(basis, "det", d)
            out[b] = basis
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
