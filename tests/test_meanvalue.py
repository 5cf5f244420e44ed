import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from latticeball.basis import identity_basis
from latticeball.counting import (
    ball_volume,
    count_many,
    count_points,
    error_term,
    unit_ball_volume,
)
from latticeball.meanvalue import (
    ExperimentStats,
    compute_cn,
    fit_scaling_exponent,
    mc_stats,
    scaling_identity_check,
    siegel_mean,
    thread_count,
    variance_prediction,
)
from latticeball.sampling import (
    CompactFamilySpec,
    HaarSamplerConfig,
    Seed,
    sample_compact,
    sample_haar_unimodular,
)

from conftest import random_basis


class TestComputeCn:
    def test_leading_term_floor(self):
        res = compute_cn(3)
        assert res.value >= 4.0

    def test_high_dimension_approaches_four(self):
        res = compute_cn(12)
        assert abs(res.value - 4.0) < 1e-3

    def test_c3_frozen_value(self):
        res = compute_cn(3)
        assert res.value == pytest.approx(4.140299545385922, abs=2e-10)
        assert res.tail_bound < 1e-10

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            compute_cn(2)

    def test_overflowing_dimension_refused(self):
        """From n = 647 on, 3**n passes the float range: refused, naming
        n, where float(3) ** n used to raise a bare errno message."""
        compute_cn(646)
        with pytest.raises(OverflowError, match="n = 647"):
            compute_cn(647)

    @pytest.mark.xfail(strict=True, reason="compute_cn's series is not "
                       "Rogers' constant 4 zeta(n-1)/zeta(n)")
    def test_c3_is_rogers_constant(self):
        """Pins the documented defect: once c_n is 4 zeta(n-1)/zeta(n),
        this passes and strict xfail fails, so the meanvalue docstrings
        and README must change with it."""
        rogers = 4.0 * float(special.zeta(2.0)) / float(special.zeta(3.0))
        assert compute_cn(3).value == pytest.approx(rogers, abs=1e-9)


def _mobius(m: int) -> list[int]:
    """mu(d) for d = 0..m (mu(0) unused), by a sieve."""
    mu = [1] * (m + 1)
    prime = [True] * (m + 1)
    for q in range(2, m + 1):
        if prime[q]:
            for k in range(q, m + 1, q):
                prime[k] = k == q
                mu[k] = -mu[k]
            for k in range(q * q, m + 1, q * q):
                mu[k] = 0
    return mu


class TestHeckeMoments:
    def test_rogers_constant_from_one_count_many_call(self):
        """The exact mean and variance of the count over the
        (p^3 - 1)/(p - 1) index-p sublattices of Z^3 scaled to covolume
        1, with no sampler, from the counts N(R/m) of Z^3 alone.

        At R = t p^(1/3) with R^2 < p, two ball points share a line mod p
        only when they are rationally collinear, so the sum D over lines
        of (ball points on the line)^2 is sum over primitive u, up to
        sign, of (2 floor(R/|u|))^2.  The primitive counts are
        P(r) = sum_d mu(d) (N(r/d) - 1), and with q1 = (p^2 - 1)/(p^3 - 1)
        and q2 = (p - 1)/(p^3 - 1) the nonzero count N' has
        E[N'] = q1 N_Z and E[N'^2] = q1 D + q2 (N_Z^2 - D).  Var/V is
        then within 0.2 % of Rogers' 4 zeta(2)/zeta(3) - 2, which
        compute_cn(3) does not give (test_c3_is_rogers_constant)."""
        n, t, p = 3, 8, 10 ** 6 + 3
        R = t * p ** (1.0 / n)
        assert R * R < p
        top = math.floor(R) + 1
        counts = count_many([identity_basis(n)],
                            [R / m for m in range(1, top + 1)])[0].tolist()
        N = dict(zip(range(1, top + 1), counts))
        mu = _mobius(top)

        def primitive(j):
            return sum(mu[d] * (N[j * d] - 1) for d in range(1, top // j + 1))

        P = [0] + [primitive(j) for j in range(1, top + 1)] + [0]
        D = sum((P[j] - P[j + 1]) // 2 * (2 * j) ** 2 for j in range(1, top))
        n_z = N[1] - 1
        q1 = Fraction(p ** (n - 1) - 1, p ** n - 1)
        q2 = Fraction(p ** (n - 2) - 1, p ** n - 1)
        mean = q1 * n_z
        var = q1 * D + q2 * (n_z ** 2 - D) - mean ** 2
        V = unit_ball_volume(n) * t ** n
        rogers = 4.0 * float(special.zeta(2.0)) / float(special.zeta(3.0))
        assert round(float(var) / V, 6) == 3.468282
        assert float(var) / V == pytest.approx(rogers - 2.0, rel=2e-3)
        assert float(mean) / V == pytest.approx(1.0, abs=1e-5)


class TestMomentFormulas:
    def test_siegel_zero_radius(self):
        assert siegel_mean(3, 0.0) == pytest.approx(1.0)

    def test_siegel_unit_radius(self):
        assert siegel_mean(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0 + 1.0)

    def test_variance_zero_radius(self):
        cn = compute_cn(3)
        assert variance_prediction(3, 0.0, cn) == pytest.approx(1.0)

    def test_variance_t8(self):
        cn = compute_cn(3)
        expected = 1.0 + (cn.value - 2.0) * (4.0 * math.pi / 3.0) * 512.0
        assert variance_prediction(3, 8.0, cn) == pytest.approx(expected)

    def test_variance_positive(self):
        cn = compute_cn(3)
        for t in (0.0, 0.5, 3.0, 20.0):
            assert variance_prediction(3, t, cn) > 0.0


class TestMcStats:
    def _compact_sampler(self):
        spec = CompactFamilySpec(center=np.eye(3), delta=0.08, det_floor=0.2)

        def sampler(seed):
            return sample_compact(spec, seed)

        return sampler

    def test_constant_sampler_degenerate(self):
        X0 = identity_basis(3)

        def sampler(seed):
            return X0

        stats = mc_stats(sampler, 2.0, 50, Seed(1, 0))
        assert stats.var_E == pytest.approx(0.0, abs=1e-18)
        assert stats.mean_E == pytest.approx(error_term(X0, 2.0))

    def test_internal_rms_identity(self):
        stats = mc_stats(self._compact_sampler(), 6.0, 100, Seed(2, 0))
        m = stats.samples
        recon = stats.mean_E ** 2 + stats.var_E * (m - 1) / m
        assert stats.rms_E ** 2 == pytest.approx(recon, rel=1e-9)

    def test_recomputation_oracle(self):
        spec = CompactFamilySpec(center=np.eye(3), delta=0.08, det_floor=0.2)

        def sampler(seed):
            return sample_compact(spec, seed)

        seed = Seed(3, 0)
        stats = mc_stats(sampler, 10.0, 200, seed)
        errs = np.array([error_term(sample_compact(spec, seed.child(i)), 10.0)
                         for i in range(200)])
        assert stats.mean_E == pytest.approx(float(np.mean(errs)), rel=1e-12)
        assert stats.var_E == pytest.approx(float(np.var(errs, ddof=1)),
                                            rel=1e-12)

    # t^3 = 512 is a power of two, under which any order of the volume's
    # products rounds alike; 7.3 is not
    @pytest.mark.parametrize("t", [8.0, 7.3])
    def test_haar_block_matches_per_basis_reference(self, t):
        """The block's stacked volumes and batched counts give exactly
        the statistics of per-basis ball_volume and count_points."""
        config = HaarSamplerConfig(n=3)

        def sampler(seed):
            return sample_haar_unimodular(config, seed)

        seed, m = Seed(31, 1), 200
        bases = [sampler(seed.child(i)) for i in range(m)]
        vol = np.array([ball_volume(X.n, t, X.det) for X in bases])
        E = np.array([count_points(X, t) for X in bases]) - vol
        mean = float(np.mean(E))
        var = float(np.var(E, ddof=1))
        m4 = float(np.mean((E - mean) ** 4))
        expected = ExperimentStats(
            t=t, samples=m, mean_E=mean,
            rms_E=float(np.sqrt(np.mean(E * E))), var_E=var,
            stderr_var=math.sqrt(max(m4 - var * var, 0.0) / m),
            mean_count=float(np.mean(E + vol)))
        stats = mc_stats(sampler, t, m, seed)
        for field in dataclasses.fields(ExperimentStats):
            assert (getattr(stats, field.name)
                    == getattr(expected, field.name)), field.name

    def test_grid_entries_match_one_radius_calls(self):
        """Each radius of a grid, in any order, gives bit for bit the
        statistics of a call at that radius alone."""
        config = HaarSamplerConfig(n=3)

        def sampler(seed):
            return sample_haar_unimodular(config, seed)

        grid, m, seed = [7.3, 8.0, 2.0], 60, Seed(17, 1)
        stats = mc_stats(sampler, grid, m, seed)
        assert isinstance(stats, list) and len(stats) == len(grid)
        for t, entry in zip(grid, stats):
            alone = mc_stats(sampler, t, m, seed)
            assert isinstance(alone, ExperimentStats)
            for field in dataclasses.fields(ExperimentStats):
                assert (getattr(entry, field.name)
                        == getattr(alone, field.name)), (t, field.name)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("where", [0, 2])
    def test_bad_radius_refused_before_drawing(self, bad, where):
        def sampler(seed):
            raise AssertionError("sampler called")

        grid = [2.0, 3.0, 4.0]
        grid[where] = bad
        with pytest.raises(ValueError, match="radius"):
            mc_stats(sampler, grid, 10, Seed(1, 0))
        with pytest.raises(ValueError, match="radius"):
            mc_stats(sampler, bad, 10, Seed(1, 0))

    def test_mixed_dimensions_refused(self):
        def sampler(seed):
            return identity_basis(2 + seed.stream % 2)

        with pytest.raises(ValueError, match="dimension"):
            mc_stats(sampler, 2.0, 10, Seed(1, 0))

    def test_stderr_shrinks_with_samples(self):
        s1 = mc_stats(self._compact_sampler(), 6.0, 400, Seed(4, 0))
        s2 = mc_stats(self._compact_sampler(), 6.0, 800, Seed(4, 0))
        ratio = s1.stderr_var / s2.stderr_var
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.30)

    def test_determinism_bitwise(self):
        a = mc_stats(self._compact_sampler(), 5.0, 60, Seed(5, 0))
        b = mc_stats(self._compact_sampler(), 5.0, 60, Seed(5, 0))
        assert a == b

    def test_one_thread_by_default(self, monkeypatch):
        # the variable no longer selects a thread pool
        monkeypatch.setenv("LATTICEBALL_THREADS", "4")
        assert thread_count() == 1

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_stats(self._compact_sampler(), 5.0, 1, Seed(7, 0))


class TestFitScaling:
    def test_exact_linear_power(self):
        ts = [10.0, 20.0, 40.0, 80.0]
        fit = fit_scaling_exponent([(t, t) for t in ts])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.max_residual < 1e-12

    def test_exact_three_halves_power(self):
        ts = [10.0, 20.0, 40.0, 80.0]
        fit = fit_scaling_exponent([(t, 0.3 * t ** 1.5) for t in ts])
        assert fit.slope == pytest.approx(1.5, abs=1e-12)

    def test_polylog_inflates_slope(self):
        # rms = t (log t)^2 fits with slope near 1.62 on this grid; the
        # curvature shows up in the residual, not as a clean exponent
        ts = [10.0, 20.0, 40.0, 80.0]
        fit = fit_scaling_exponent([(t, t * math.log(t) ** 2) for t in ts])
        assert 1.5 < fit.slope < 1.7
        assert fit.max_residual > 1e-3

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent([(10.0, 1.0), (20.0, 2.0)])

    @pytest.mark.parametrize("ts", [[4.0, 4.0, 4.0], [4.0, 6.0, 4.0, 6.0]],
                             ids=["one-t", "two-t"])
    def test_needs_three_distinct_t(self, ts):
        # lstsq would return its minimum-norm "slope" for these
        with pytest.raises(ValueError, match="distinct"):
            fit_scaling_exponent([(t, 1.0 + i) for i, t in enumerate(ts)])

    def test_rejects_degenerate_rms(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent([(10.0, 1.0), (20.0, 0.0), (40.0, 2.0)])

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent([(0.5, 1.0), (20.0, 2.0), (40.0, 3.0)])


class TestScalingIdentity:
    def test_reflexive(self):
        assert scaling_identity_check(identity_basis(3), 1.0, 2.0)

    def test_z3_hand_case(self):
        assert scaling_identity_check(identity_basis(3), 2.0, 2.0)
        lhs = error_term(identity_basis(3).scaled(2.0), 2.0)
        rhs = 7.0 - 4.0 * math.pi / 3.0
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_random_population(self, rng):
        for _ in range(30):
            X = random_basis(rng, int(rng.integers(2, 4)), det_floor=0.3)
            r = float(rng.uniform(0.5, 2.0))
            t = float(rng.uniform(1.0, 6.0))
            assert scaling_identity_check(X, r, t)
