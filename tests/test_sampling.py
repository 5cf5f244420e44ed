import dataclasses
import json
import math

import numpy as np
import pytest

from latticeball.basis import identity_basis, iwasawa_decompose
from latticeball.counting import count_points
from latticeball.sampling import (
    SIEGEL_RATIO,
    CompactFamilySpec,
    HaarSamplerConfig,
    Seed,
    rng_for,
    sample_compact,
    sample_det_band,
    sample_haar_unimodular,
)
from latticeball.meanvalue import mc_stats, siegel_calibration


class TestSeed:
    def test_determinism(self):
        a = rng_for(Seed(42, 7)).uniform(size=8)
        b = rng_for(Seed(42, 7)).uniform(size=8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = rng_for(Seed(42, 0)).uniform(size=8)
        b = rng_for(Seed(42, 1)).uniform(size=8)
        assert not np.array_equal(a, b)

    def test_child_offsets(self):
        s = Seed(5, 100)
        assert s.child(3) == Seed(5, 103)


class TestSampleCompact:
    def test_degenerate_delta(self):
        spec = CompactFamilySpec(center=np.eye(3), delta=1e-12,
                                 det_floor=0.5)
        X = sample_compact(spec, Seed(1))
        assert np.max(np.abs(X.entries - np.eye(3))) <= 1e-12

    def test_box_and_det_floor(self):
        spec = CompactFamilySpec(center=np.eye(3), delta=0.1, det_floor=0.5)
        for i in range(200):
            X = sample_compact(spec, Seed(9, i))
            assert np.max(np.abs(X.entries - np.eye(3))) <= 0.1
            assert abs(X.det) >= 0.5

    def test_seed_determinism(self):
        spec = CompactFamilySpec(center=np.eye(2), delta=0.2, det_floor=0.3)
        a = sample_compact(spec, Seed(3, 14))
        b = sample_compact(spec, Seed(3, 14))
        assert np.array_equal(a.entries, b.entries)

    def test_json_round_trip(self):
        spec = CompactFamilySpec(center=np.eye(2), delta=0.2, det_floor=0.3)
        fields = dataclasses.asdict(spec)
        fields["center"] = fields["center"].tolist()
        again = CompactFamilySpec(**json.loads(json.dumps(fields)))
        assert np.array_equal(again.center, spec.center)
        assert again.delta == spec.delta


class TestHaar2d:
    config = HaarSamplerConfig(n=2)

    def test_unit_determinant(self):
        for i in range(100):
            X = sample_haar_unimodular(self.config, Seed(2, i))
            assert abs(X.det - 1.0) < 1e-12

    def test_height_distribution_moments(self):
        # the modular height y of tau = x + iy is read off the Iwasawa
        # diagonal as sqrt(a1/a2).  Two closed-form calibrations:
        # E[1/y] = 3 ln 3 / (2 pi), and P(y > c) = 3/(pi c) for c >= 1.
        # The height itself has no finite mean under the hyperbolic
        # measure (harmonic tail), so the reciprocal moment is the
        # honest substitute for a mean-of-y check.
        M = 60_000
        c = 25.0
        total = 0.0
        hits = 0
        for i in range(M):
            X = sample_haar_unimodular(self.config, Seed(4, i))
            form = iwasawa_decompose(X)
            y = math.sqrt(form.a[0] / form.a[1])
            total += 1.0 / y
            hits += y > c
        mean = total / M
        target = 3.0 * math.log(3.0) / (2.0 * math.pi)
        # 1/y is bounded by 2/sqrt(3); 3 sigma at 60k is well under 0.01
        assert mean == pytest.approx(target, abs=0.01)
        p_target = 3.0 / (math.pi * c)
        sigma = math.sqrt(p_target * (1.0 - p_target) / M)
        assert abs(hits / M - p_target) < 4.0 * sigma + 1e-12

    def test_rotation_does_not_change_counts(self):
        for i in range(20):
            X = sample_haar_unimodular(self.config, Seed(6, i))
            theta = 0.7
            K = np.array([[math.cos(theta), -math.sin(theta)],
                          [math.sin(theta), math.cos(theta)]])
            from latticeball.basis import LatticeBasis
            Y = LatticeBasis(K @ X.entries)
            assert count_points(Y, 3.0) == count_points(X, 3.0)


class TestHaar3d:
    config = HaarSamplerConfig(n=3)

    def test_unit_determinant(self):
        for i in range(100):
            X = sample_haar_unimodular(self.config, Seed(8, i))
            assert abs(X.det - 1.0) < 1e-12

    def test_diagonal_ratios_respect_siegel_floor(self):
        for i in range(200):
            X = sample_haar_unimodular(self.config, Seed(8, i))
            form = iwasawa_decompose(X)
            b = 1.0 / np.sqrt(form.a)
            assert b[1] / b[0] >= SIEGEL_RATIO - 1e-9
            assert b[2] / b[1] >= SIEGEL_RATIO - 1e-9

    def test_seed_determinism(self):
        a = sample_haar_unimodular(self.config, Seed(11, 5))
        b = sample_haar_unimodular(self.config, Seed(11, 5))
        assert np.array_equal(a.entries, b.entries)

    def test_siegel_formula_calibration(self):
        # Haar mean of the count is vol(t ball) + 1; the Siegel-set
        # sampler's residual stays within Monte Carlo error
        config = self.config

        def sampler(seed):
            return sample_haar_unimodular(config, seed)

        stats = mc_stats(sampler, 5.0, 10_000, Seed(13, 0))
        resid, stderr = siegel_calibration(stats, 3)
        assert abs(resid) <= 3.0 * stderr


class TestDetBand:
    config = HaarSamplerConfig(n=2)

    def test_band_membership(self):
        for i in range(200):
            X = sample_det_band(0.5, 2.0, self.config, Seed(21, i))
            assert 0.5 - 1e-9 <= abs(X.det) <= 2.0 + 1e-9

    def test_degenerate_band(self):
        X = sample_det_band(1.5, 1.5 * (1.0 + 1e-12), self.config, Seed(22))
        assert abs(X.det) == pytest.approx(1.5, rel=1e-9)

    def test_log_uniform_ks(self):
        M = 100_000
        a, b = 0.5, 2.0
        n = 2
        vals = np.empty(M)
        for i in range(M):
            X = sample_det_band(a, b, self.config, Seed(23, i))
            vals[i] = math.log(abs(X.det) ** (1.0 / n))
        lo, hi = math.log(a ** (1.0 / n)), math.log(b ** (1.0 / n))
        u = np.sort((vals - lo) / (hi - lo))
        grid = (np.arange(1, M + 1)) / M
        ks = float(np.max(np.maximum(np.abs(u - grid),
                                     np.abs(u - (grid - 1.0 / M)))))
        assert ks < 0.02
