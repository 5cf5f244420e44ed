import math

import numpy as np
import pytest

from latticeball import counting
from latticeball.basis import LatticeBasis, gram, identity_basis
from latticeball.cli import _write_csv
from latticeball.counting import (
    CountResult,
    ball_volume,
    count_many,
    count_points,
    count_scan,
    error_term,
    unit_ball_volume,
)
from latticeball.sampling import HaarSamplerConfig, Seed, sample_haar_unimodular

from conftest import brute_count, random_basis


class TestBallVolume:
    def test_unit_ball_values(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_unit_sphere_n3(self):
        assert ball_volume(3, 1.0, 1.0) == pytest.approx(4.18879020478639,
                                                         abs=1e-10)

    def test_radius_scaling_n2(self):
        assert ball_volume(2, 2.0, 1.0) == pytest.approx(4.0 * math.pi)

    def test_determinant_division(self):
        assert ball_volume(3, 1.0, 8.0) == pytest.approx(math.pi / 6.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ball_volume(3, -1.0, 1.0)
        with pytest.raises(ValueError):
            ball_volume(3, 1.0, 0.0)


class TestCountPoints:
    def test_z3_unit_ball(self):
        assert count_points(identity_basis(3), 1.0) == 7

    def test_z2_radius_two(self):
        assert count_points(identity_basis(2), 2.0) == 13

    def test_sparse_lattice_origin_only(self):
        assert count_points(LatticeBasis(2.0 * np.eye(3)), 1.0) == 1

    def test_radius_zero(self, rng):
        assert count_points(random_basis(rng, 3), 0.0) == 1

    def test_boundary_points_counted(self):
        # closed ball: the six unit vectors sit exactly on the sphere
        assert count_points(identity_basis(3), 1.0) == 7
        assert count_points(identity_basis(2), 1.0) == 5

    def test_counts_odd(self, rng):
        for _ in range(10):
            X = random_basis(rng, 2)
            assert count_points(X, 3.0) % 2 == 1

    def test_monotone_in_t(self, rng):
        X = random_basis(rng, 3)
        counts = [count_points(X, t) for t in np.linspace(0.0, 4.0, 9)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_rotation_invariance(self, rng):
        for _ in range(10):
            X = random_basis(rng, 3)
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            Y = LatticeBasis(Q @ X.entries)
            assert count_points(Y, 2.5) == count_points(X, 2.5)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            count_points(identity_basis(2), 1e12)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            count_points(identity_basis(2), -1.0)


class TestErrorTerm:
    def test_z3_unit(self):
        expected = 7 - 4.0 * math.pi / 3.0
        assert error_term(identity_basis(3), 1.0) == pytest.approx(expected)

    def test_radius_zero_is_one(self, rng):
        assert error_term(random_basis(rng, 2), 0.0) == pytest.approx(1.0)

    def test_diagonal_by_hand(self):
        b = LatticeBasis(2.0 * np.eye(3))
        assert error_term(b, 1.0) == pytest.approx(1.0 - math.pi / 6.0)


class TestCountScan:
    def test_z2_small_grid(self):
        results = count_scan(identity_basis(2), [0.0, 1.0, 2.0])
        assert [r.count for r in results] == [1, 5, 13]

    def test_repeated_radius_idempotent(self):
        r1, r2 = count_scan(identity_basis(3), [1.0, 1.0])
        assert r1 == r2

    def test_scaling_pair(self, rng):
        X = random_basis(rng, 2)
        r = 1.7
        scaled = count_scan(X.scaled(r), [3.0])[0]
        plain = count_scan(X, [3.0 / r])[0]
        assert scaled.count == plain.count

    def test_remainder_is_exact_difference(self, rng):
        for res in count_scan(random_basis(rng, 3), [1.0, 2.0, 3.0]):
            assert res.remainder == res.count - res.volume
            assert res.count >= 1

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            count_scan(identity_basis(2), [2.0, 1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            count_scan(identity_basis(2), [])


class TestCsvEmission:
    def test_schema_and_precision(self, tmp_path):
        path = tmp_path / "scan.csv"
        rows = [(r.t, r.count, r.volume, r.remainder)
                for r in count_scan(identity_basis(3), [1.0, 2.0])]
        _write_csv(path, ("t", "count", "volume", "remainder"), rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,count,volume,remainder"
        first = lines[1].split(",")
        assert first[1] == "7"
        assert float(first[2]) == pytest.approx(4.0 * math.pi / 3.0)


class TestOracleEquivalence:
    def test_random_bases_small(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            X = random_basis(rng, n)
            for t in (1.0, 2.0, 3.0):
                try:
                    expected = brute_count(X, t)
                except ValueError:
                    continue
                assert count_points(X, t) == expected


class TestCountMany:
    """The batched enumeration against the batch of one and a box count."""

    @staticmethod
    def _check(bases, t):
        many = count_many(bases, t)
        assert many.dtype == np.int64
        assert list(many) == [count_points(X, t) for X in bases]
        for X, c in zip(bases, many):
            try:
                assert c == brute_count(X, t)
            except ValueError:
                continue

    def test_random_bases(self, rng):
        for n in (2, 3):
            bases = [random_basis(rng, n) for _ in range(25)]
            for t in (0.7, 2.0, 3.5):
                self._check(bases, t)

    def test_haar_bases(self):
        config = HaarSamplerConfig(n=3)
        bases = [sample_haar_unimodular(config, Seed(11, i))
                 for i in range(30)]
        for t in (1.0, 2.5, 4.0):
            self._check(bases, t)
        deep = count_many(bases, 8.0)
        assert list(deep) == [count_points(X, 8.0) for X in bases]

    def test_radius_zero(self, rng):
        bases = [random_basis(rng, 3) for _ in range(5)]
        assert list(count_many(bases, 0.0)) == [1] * 5

    def test_radii_on_lattice_norms(self):
        # integer t on Z^3 puts lattice points exactly on the sphere
        bases = [identity_basis(3), identity_basis(2)]
        for t in range(1, 9):
            self._check(bases, float(t))

    def test_mixed_dimensions(self, rng):
        bases = [random_basis(rng, 2 + (j % 3 == 0)) for j in range(20)]
        self._check(bases, 2.5)

    def test_batch_crossing_row_cap(self, rng, monkeypatch):
        bases = [random_basis(rng, n) for n in (2, 3, 3, 2, 3)]
        bases.append(identity_basis(3))
        expected = [count_points(X, 4.0) for X in bases]
        monkeypatch.setattr(counting, "ROW_CAP", 7)
        assert list(count_many(bases, 4.0)) == expected

    def test_empty_batch(self):
        assert count_many([], 3.0).shape == (0,)

    def test_overflow_guard_inside_batch(self):
        tiny = LatticeBasis(1e-10 * np.eye(3))
        with pytest.raises(OverflowError):
            count_many([identity_basis(3), tiny, identity_basis(2)], 10.0)

    def test_overflow_refused_before_any_enumeration(self, monkeypatch):
        # the hopeless basis is 3-D and the block's first dimension 2, so
        # a check interleaved with the per-dimension passes would count
        # the 2-D bases first
        def enumerate_fails(R, budget):
            raise AssertionError("enumerated before the overflow check")

        monkeypatch.setattr(counting, "_enumerate", enumerate_fails)
        tiny = LatticeBasis(1e-10 * np.eye(3))
        with pytest.raises(OverflowError):
            count_many([identity_basis(2), identity_basis(3), tiny], 10.0)

    def test_stacked_gram_is_per_basis_gram(self, rng):
        blocks = [[sample_haar_unimodular(HaarSamplerConfig(n=n), Seed(8, i))
                   for i in range(size)] for n, size in ((3, 2000), (2, 500))]
        blocks.append([random_basis(rng, 4) for _ in range(50)])
        for bases in blocks:
            stacked = gram(np.stack([X.entries for X in bases]))
            single = np.stack([gram(X) for X in bases])
            assert stacked.tobytes() == single.tobytes()

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            count_many([identity_basis(2)], -1.0)
