import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeball import counting
from latticeball.basis import LatticeBasis, gram, identity_basis
from latticeball.cli import _run_count, _write_csv
from latticeball.counting import (
    ball_volume,
    count_many,
    count_points,
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_rotation_invariance(self, rng, n):
        for _ in range(10):
            X = random_basis(rng, n)
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            Y = LatticeBasis(Q @ X.entries)
            assert count_points(Y, 2.5) == count_points(X, 2.5)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            count_points(identity_basis(2), 1e12)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            count_points(identity_basis(2), -1.0)

    @pytest.mark.parametrize("lengths, message", [
        # 2e20 + 1 points on the short axis: past int64
        ((1e-20, 1e20), "2\\*\\*53"),
        # the same lattice, its short column last
        ((1e20, 1e-20), "2\\*\\*53"),
        # 2000000000000999945 under the slack, which float sums round
        ((1e-18, 1e18), "2\\*\\*53"),
        ((1e-200, 1e200), "Gram matrix overflows"),
    ], ids=["thin", "thin-reversed", "rounded", "gram"])
    def test_counts_past_exact_floats_refused(self, lengths, message):
        """Unimodular but thin: the volume check passes, and the count
        (or the Gram matrix) is past what floats hold exactly."""
        with pytest.raises(OverflowError, match=message):
            count_points(LatticeBasis(np.diag(lengths)), 1.0)

    def test_thin_count_below_2_53_exact(self):
        """2 * 10^10 + 1 points: the closed form at level 0 is exact."""
        X = LatticeBasis(np.diag([1e-10, 1e10]))
        assert count_points(X, 1.0) == 20000000001

    def test_many_pass_count_below_2_53_exact(self):
        """About 1600 enumeration passes, their int64 running total
        checked after each: a count below 2**53 comes through."""
        X = LatticeBasis(np.diag([2.0 ** -25, 2.0 ** -11, 2.0 ** -10]))
        assert count_points(X, 1.0) == 294759818461177

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 26: the Cholesky "
                       "factor of an ill-conditioned Gram matrix rounds "
                       "past the membership slack")
    @pytest.mark.parametrize("columns", [
        [[1000, 1], [1, 0]],
        [[1000, 1], [1001, 1]],
        [[10 ** 4, 1], [1, 0]],
    ], ids=["s=1e3", "near-parallel", "s=1e4"])
    def test_skewed_bases_of_z2_count_as_z2(self, columns):
        """Pins a silent miscount: these are bases of Z^2, yet they lose
        10 to 20 of its sphere points.  Once each basis is reduced
        before it is counted, this passes and strict xfail fails."""
        radii = [10, 100]
        exact = [sum(2 * math.isqrt(t * t - a * a) + 1
                     for a in range(-t, t + 1)) for t in radii]
        assert exact == [317, 31417]
        X = LatticeBasis(np.array(columns, dtype=float).T)
        assert count_many([X], radii).tolist() == [exact]

    @pytest.mark.xfail(strict=True, reason="the 1e-12 membership slack "
                       "keeps points strictly outside the ball")
    @pytest.mark.parametrize("t, expected", [
        (1.0 - 1e-13, 1),  # only the origin: 7 with the slack
        (3.0 - 1e-13, 93),  # |k|^2 <= 8: 123 with the slack
    ])
    def test_points_just_outside_not_counted(self, t, expected):
        """Pins the documented defect: once membership is decided
        exactly, this passes and strict xfail fails, so the counting
        docstring and README must change with it."""
        assert count_points(identity_basis(3), t) == expected


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
    """A radius scan is one count_many call over the grid."""

    def test_z2_small_grid(self):
        assert list(count_many([identity_basis(2)], [0.0, 1.0, 2.0])[0]) \
            == [1, 5, 13]

    def test_repeated_radius_idempotent(self):
        assert list(count_many([identity_basis(3)], [1.0, 1.0])[0]) == [7, 7]

    def test_scaling_pair(self, rng):
        X = random_basis(rng, 2)
        r = 1.7
        assert np.array_equal(count_many([X.scaled(r)], [3.0]),
                              count_many([X], [3.0 / r]))

    def test_remainder_is_exact_difference(self, rng):
        X = random_basis(rng, 3)
        out, _ = _run_count({"basis": {"n": 3,
                                       "columns": X.entries.T.tolist()},
                             "t_grid": [1.0, 2.0, 3.0]})
        for c, v, rem in zip(out["counts"], out["volumes"],
                             out["remainders"]):
            assert rem == c - v
            assert c >= 1

    def test_decreasing_grid_counted_in_order(self):
        grid = [3.0, 2.0, 1.0, 0.0, 2.0]
        assert list(count_many([identity_basis(3)], grid)[0]) == [
            count_points(identity_basis(3), t) for t in grid]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            count_many([identity_basis(2)], [])


class TestCsvEmission:
    def test_schema_and_precision(self, tmp_path):
        path = tmp_path / "scan.csv"
        X = identity_basis(3)
        grid = [1.0, 2.0]
        counts = count_many([X], grid)[0]
        volumes = [ball_volume(3, t, X.det) for t in grid]
        rows = [(t, c, v, c - v) for t, c, v in zip(grid, counts, volumes)]
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
        for n in (3, 2):
            for t in range(1, 9):
                self._check([identity_basis(n)], float(t))

    def test_mixed_dimensions(self, rng):
        bases = [random_basis(rng, 2 + (j % 3 == 0)) for j in range(20)]
        for n in (2, 3):
            self._check([X for X in bases if X.n == n], 2.5)

    def test_mixed_dimensions_refused(self):
        with pytest.raises(ValueError, match="dimension"):
            count_many([identity_basis(2), identity_basis(3)], 1.0)

    def test_batch_crossing_row_cap(self, rng, monkeypatch):
        for n, size in ((2, 4), (3, 5)):
            bases = [random_basis(rng, n) for _ in range(size)]
            bases.append(identity_basis(n))
            grid = [4.0, 1.5, 0.0, 3.0]
            expected = [[count_points(X, t) for t in grid] for X in bases]
            monkeypatch.setattr(counting, "ROW_CAP", 7)
            assert count_many(bases, grid).tolist() == expected
            monkeypatch.undo()

    def test_empty_batch(self):
        assert count_many([], 3.0).shape == (0,)
        assert count_many([], [1.0, 2.0]).shape == (0, 2)

    def test_overflow_guard_inside_batch(self):
        tiny = LatticeBasis(1e-10 * np.eye(3))
        with pytest.raises(OverflowError):
            count_many([identity_basis(3), tiny, identity_basis(3)], 10.0)

    def test_overflow_refused_before_any_enumeration(self, monkeypatch):
        # only the largest radius overflows, and the check on it comes
        # before the Gram matrices and any enumeration
        def fails(*args):
            raise AssertionError("factored before the overflow check")

        monkeypatch.setattr(counting, "gram", fails)
        monkeypatch.setattr(counting, "_enumerate", fails)
        tiny = LatticeBasis(1e-10 * np.eye(3))
        with pytest.raises(OverflowError, match="64-bit"):
            count_many([identity_basis(3), tiny], [1.0, 10.0, 2.0])

    def test_radius_beyond_float_power_refused(self):
        # t ** 3 itself overflows a float here
        with pytest.raises(OverflowError, match="64-bit"):
            count_many([identity_basis(3)], [1.0, 1e200])

    def test_stacked_gram_is_per_basis_gram(self, rng):
        config = HaarSamplerConfig(n=3)
        blocks = [[sample_haar_unimodular(config, Seed(8, i))
                   for i in range(2000)],
                  [random_basis(rng, 2) for _ in range(500)],
                  [random_basis(rng, 4) for _ in range(50)]]
        for bases in blocks:
            stacked = gram(np.stack([X.entries for X in bases]))
            single = np.stack([gram(X) for X in bases])
            assert stacked.tobytes() == single.tobytes()

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            count_many([identity_basis(2)], -1.0)
        with pytest.raises(ValueError):
            count_many([identity_basis(2)], [1.0, -1.0])
        with pytest.raises(ValueError):
            count_many([identity_basis(2)], [1.0, math.nan])


def _ball_count_zn(n, m):
    """#{k in Z^n : |k|^2 <= m} for an integer m, in exact integers."""
    if n == 1:
        return 2 * math.isqrt(m) + 1
    r = math.isqrt(m)
    return sum(_ball_count_zn(n - 1, m - a * a) for a in range(-r, r + 1))


class TestRadiusGrid:
    """A grid of radii in one call against one call per radius."""

    @staticmethod
    def _per_radius(bases, grid):
        grid = np.asarray(grid, dtype=float)
        flat = [count_many(bases, float(t)) for t in grid.ravel()]
        return np.stack(flat, axis=-1).reshape((len(bases),) + grid.shape)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
           scale=st.sampled_from([None, 0.5, 1.0, 3.0]),
           radii=st.lists(st.one_of(
               st.just(0.0),
               st.integers(1, 16).map(math.sqrt),
               st.floats(0.25, 4.0)), min_size=1, max_size=8),
           shape=st.sampled_from(["scalar", "flat", "square"]))
    def test_grid_equals_per_radius(self, seed, n, scale, radii, shape):
        """Unsorted, repeated and zero radii, on random bases and on
        scaled Z^n, whose sphere points sit on exact-norm radii."""
        if scale is None:
            rng = np.random.default_rng(seed)
            bases = [random_basis(rng, n) for _ in range(4)]
        else:
            bases = [LatticeBasis(scale * np.eye(n))]
            radii = [scale * t for t in radii]
        if shape == "scalar":
            grid = radii[0]
        elif shape == "flat":
            grid = radii
        else:
            grid = np.resize(radii, (2, 3))
        counts = count_many(bases, grid)
        assert counts.dtype == np.int64
        assert counts.shape == (len(bases),) + np.shape(grid)
        assert np.array_equal(counts, self._per_radius(bases, grid))

    def test_haar_bases(self):
        config = HaarSamplerConfig(n=3)
        bases = [sample_haar_unimodular(config, Seed(31, i))
                 for i in range(2000)]
        grid = np.random.default_rng(5).permutation(np.linspace(0.5, 8, 16))
        assert np.array_equal(count_many(bases, grid),
                              self._per_radius(bases, grid))

    def test_exact_norm_radii(self):
        radii = np.sqrt(np.arange(65.0))[::-1]
        for scale in (1.0, 0.5, 3.0):
            for n in (2, 3):
                bases = [LatticeBasis(scale * np.eye(n))]
                grid = scale * radii
                assert np.array_equal(count_many(bases, grid),
                                      self._per_radius(bases, grid))

    def test_wide_grid_exact(self):
        """Radii 100 to 1000 times smaller than the largest, each with
        sphere points on it, against exact integer counts."""
        for scale, n, top in ((0.7, 2, 300), (0.1, 2, 1000), (0.7, 3, 100)):
            m = [*range(101), top * top]
            counts = count_many([LatticeBasis(scale * np.eye(n))],
                                scale * np.sqrt(m))
            assert counts[0].tolist() == [_ball_count_zn(n, k) for k in m]

    def test_long_grid_memory_flat(self):
        """A long grid takes about the memory of one radius."""
        grid = np.linspace(0.0, 200.0, 500)
        tracemalloc.start()
        try:
            counts = count_many([identity_basis(2)], grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert counts[0, -1] == _ball_count_zn(2, 200 * 200)
