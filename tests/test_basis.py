import math
import warnings

import numpy as np
import pytest

from latticeball.basis import (
    DET_GUARD,
    LatticeBasis,
    SingularBasisError,
    gram,
    identity_basis,
    transformed_coords,
)
from latticeball.counting import count_points

from conftest import random_basis


class TestLatticeBasis:
    def test_identity(self):
        b = identity_basis(3)
        assert b.n == 3
        assert b.det == pytest.approx(1.0)

    def test_singular_rejected(self):
        with pytest.raises(SingularBasisError):
            LatticeBasis(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_unimodular_shear_accepted(self):
        # determinant 1, entries up to 9e4: the guard must not read a
        # large entry as near-singularity
        shear = np.array([[1.0, 300.0, 90000.0], [0.0, 1.0, 300.0],
                          [0.0, 0.0, 1.0]])
        assert LatticeBasis(shear).det == pytest.approx(1.0)

    def test_nearly_dependent_columns_rejected(self):
        # third column = first + second, off the plane by 1e-15
        with pytest.raises(SingularBasisError):
            LatticeBasis(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                                   [0.0, 0.0, 1e-15]]))

    def test_zero_column_rejected(self):
        with pytest.raises(SingularBasisError):
            LatticeBasis(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            LatticeBasis(np.array([[2.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            LatticeBasis(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_three_dimensional_array_rejected(self):
        with pytest.raises(ValueError, match="square"):
            LatticeBasis(np.ones((2, 2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LatticeBasis(np.array([[1.0, 0.0], [0.0, np.inf]]))

    @pytest.mark.parametrize("M", [
        [[1.0, 0.0], [0.0, np.inf]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[-np.inf, 0.0], [np.nan, 1.0]],
        # a zero column beside a non-finite one: inf * 0 and nan * 0
        [[np.inf, 0.0], [0.0, 0.0]],
        [[0.0, np.nan], [0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.nan]],
    ])
    def test_nonfinite_refused_before_singularity(self, M):
        """A NaN or infinite entry is named as such, even where the
        matrix is also singular."""
        with pytest.raises(ValueError, match="must be finite") as info:
            LatticeBasis(np.array(M))
        assert not isinstance(info.value, SingularBasisError)

    def test_overflowing_column_norms_are_finite_entries(self):
        """Finite entries whose column-norm product overflows pass the
        entry check and are refused by the singularity guard, without a
        numpy warning."""
        big = np.array([[1e200, 0.0], [0.0, 1e200]])
        with warnings.catch_warnings():
            # refused before np.linalg.det, which would warn of overflow
            warnings.simplefilter("error")
            with pytest.raises(SingularBasisError, match="below guard"):
                LatticeBasis(big)

    def test_scaled(self):
        b = identity_basis(2).scaled(3.0)
        assert b.det == pytest.approx(9.0)


def _checked_by_hand(M):
    """What LatticeBasis(M) should give, from plain Python beside one 2-D
    np.linalg.det call: the error it raises, or its det."""
    rows = M.tolist()
    volume = math.prod(map(math.hypot, *rows))
    if not math.isfinite(volume):
        if not all(math.isfinite(x) for row in rows for x in row):
            return ValueError("matrix entries must be finite")
        return SingularBasisError("determinant not checkable below guard: "
                                  "column-norm product overflows")
    d = float(np.linalg.det(M))
    if not abs(d) > DET_GUARD * volume:
        return SingularBasisError(f"determinant {d:.3e} below guard for "
                                  f"column-norm product {volume:.3e}")
    return d


class TestFromStack:
    def test_each_matrix_as_alone(self, rng):
        """Bases, determinants and refusals of a stack, and of each
        matrix checked alone, are those of a plain-Python check: the
        entries finite, the column-norm product by math.hypot, and the
        guard on a 2-D determinant."""
        mats = [random_basis(rng, 3).entries for _ in range(50)]
        # third column first + second, off their plane by 1e-11 (kept,
        # at 7 times the guard) and by 1e-15 (refused)
        mats[3] = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                            [0.0, 0.0, 1e-11]])
        mats[7] = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                            [0.0, 0.0, 1e-15]])
        mats[19] = np.array([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0]])
        mats[31] = 1e200 * np.eye(3)
        mats[40] = np.zeros((3, 3))
        mats[45] = np.array([[np.inf, 0.0, 0.0], [0.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = LatticeBasis.from_stack(np.stack(mats))
            alone = []
            for M in mats:
                try:
                    alone.append(LatticeBasis(M))
                except ValueError as err:
                    alone.append(err)
        assert len(got) == len(mats)
        refused = 0
        for M, X, Y in zip(mats, got, alone):
            ref = _checked_by_hand(M)
            for Z in (X, Y):
                if isinstance(ref, float):
                    assert type(Z) is LatticeBasis
                    assert Z.entries.tobytes() == M.tobytes()
                    assert Z.det == ref
                    assert not Z.entries.flags.writeable
                else:
                    assert type(Z) is type(ref)
                    assert str(Z) == str(ref)
            refused += not isinstance(ref, float)
        assert refused == 5

    def test_stack_copied(self):
        mats = np.stack([np.eye(2), 2.0 * np.eye(2)])
        X = LatticeBasis.from_stack(mats)[1]
        mats[1] = 0.0
        assert X.det == 4.0 and np.array_equal(X.entries, 2.0 * np.eye(2))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (4, 1, 1)])
    def test_shape_refused(self, shape):
        with pytest.raises(ValueError):
            LatticeBasis.from_stack(np.ones(shape))

    def test_empty_stack(self):
        assert LatticeBasis.from_stack(np.empty((0, 3, 3))) == []


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(identity_basis(3)), np.eye(3))

    def test_diagonal(self):
        b = LatticeBasis(2.0 * np.eye(3))
        assert np.allclose(gram(b), 4.0 * np.eye(3))

    def test_shear_by_hand(self):
        b = LatticeBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(gram(b), [[1.0, 1.0], [1.0, 2.0]])

    def test_symmetric_positive_definite(self, rng):
        for _ in range(25):
            G = gram(random_basis(rng, 3))
            assert np.array_equal(G, G.T)
            assert np.all(np.linalg.eigvalsh(G) > 0)


class TestTransformedCoords:
    def test_zero_eta(self):
        k = np.array([3, -1, 2])
        assert np.array_equal(transformed_coords(np.zeros(3), k), k)

    def test_hand_value(self):
        out = transformed_coords(np.array([1.0, 1.0, 1.0]), [1, 0, 0])
        assert np.allclose(out, [1.0, -1.0, 0.0])

    def test_last_coordinate_fixed(self, rng):
        for _ in range(20):
            eta = rng.uniform(1.0, 2.0, 3)
            out = transformed_coords(eta, [0, 0, 1])
            assert np.allclose(out, [0.0, 0.0, 1.0])

    def test_explicit_inverse_matrix(self, rng):
        for _ in range(50):
            eta = rng.uniform(-2.0, 2.0, 3)
            k = rng.integers(-6, 7, 3).astype(float)
            e1, e2, e3 = eta
            expected = np.array([
                k[0],
                -e1 * k[0] + k[1],
                (e1 * e3 - e2) * k[0] - e3 * k[1] + k[2],
            ])
            assert np.allclose(transformed_coords(eta, k), expected,
                               atol=1e-12)

    def test_two_by_two_minor_identity(self, rng):
        for _ in range(200):
            eta = rng.uniform(1.0, 2.0, 3)
            k = rng.integers(-9, 10, 3).astype(float)
            l = rng.integers(-9, 10, 3).astype(float)
            kt = transformed_coords(eta, k)
            lt = transformed_coords(eta, l)
            lhs = kt[0] * lt[1] - kt[1] * lt[0]
            rhs = k[0] * l[1] - k[1] * l[0]
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("eta, k", [
    (np.zeros(2), [1.0, 2.0, 3.0]),
    (np.zeros(3), [1.0, 2.0]),
    (np.zeros(3), [[1.0, 2.0, 3.0]]),
    (np.zeros(3), 1.0),
])
def test_transformed_coords_refuses_mismatched_shapes(eta, k):
    """n is the length of k; eta must hold n(n-1)/2 entries."""
    with pytest.raises(ValueError):
        transformed_coords(eta, k)


class TestUnimodularInvariance:
    def test_counts_invariant_under_column_moves(self, rng):
        for _ in range(15):
            X = random_basis(rng, 2)
            while True:
                U = rng.integers(-3, 4, (2, 2))
                if abs(round(np.linalg.det(U))) == 1:
                    break
            Y = LatticeBasis(X.entries @ U)
            for t in (1.0, 2.5, 5.0):
                assert count_points(X, t) == count_points(Y, t)
