import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import latticeball
from latticeball import fourier
from latticeball.basis import LatticeBasis, identity_basis
from latticeball.counting import count_points
from latticeball.fourier import (
    MollifierSpec,
    SandwichResult,
    SmoothedCount,
    _poisson_sums,
    _rho0_hat,
    _rho0_table,
    _shell_points,
    _shell_rho,
    hat_chi_ball,
    hat_chi_lattice,
    mollifier_hat,
    sandwich_check,
    smoothed_count,
)

from conftest import random_basis


def hat_chi_quadrature(n: int, s: float) -> float:
    """The defining Fourier integral of the unit-ball indicator, reduced
    to one radial dimension and evaluated adaptively."""
    if n == 3:
        if s == 0.0:
            return 4.0 * math.pi / 3.0
        val, _ = integrate.quad(
            lambda r: 2.0 * r * math.sin(2.0 * math.pi * r * s) / s,
            0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        return val
    if s == 0.0:
        return math.pi
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda r: 2.0 * math.pi * r * special.j0(2.0 * math.pi * r * s),
            0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


class TestHatChiBall:
    def test_zero_frequency_is_volume(self):
        assert hat_chi_ball(3, 0.0) == pytest.approx(4.0 * math.pi / 3.0)
        assert hat_chi_ball(2, 0.0) == pytest.approx(math.pi)

    def test_n3_closed_form_points(self):
        assert hat_chi_ball(3, 1.0) == pytest.approx(-1.0 / math.pi,
                                                     abs=1e-12)
        assert hat_chi_ball(3, 0.5) == pytest.approx(4.0 / math.pi,
                                                     abs=1e-12)

    def test_quadrature_cross_check(self):
        for n in (2, 3):
            for s in np.arange(0.1, 5.01, 0.1):
                ref = hat_chi_quadrature(n, float(s))
                assert abs(hat_chi_ball(n, float(s)) - ref) < 1e-9

    def test_small_s_branch_continuity(self):
        # values just below and above the series switch agree through a
        # high-accuracy quadrature reference rather than with each other
        for n in (2, 3):
            for s in (5e-4, 9.9e-4, 1.01e-3, 2e-3):
                ref = hat_chi_quadrature(n, s)
                assert abs(hat_chi_ball(n, s) - ref) < 1e-9

    def test_decay_envelope(self):
        s = np.logspace(0.0, 4.0, 300)
        vals = hat_chi_ball(3, s)
        assert np.max(np.abs(vals) * s ** 2.0) < 1.0
        vals2 = hat_chi_ball(2, s)
        assert np.max(np.abs(vals2) * s ** 1.5) < 1.0

    def test_array_and_scalar_agree(self):
        s = np.array([0.0, 0.3, 1.7])
        arr = hat_chi_ball(3, s)
        for i, v in enumerate(s):
            assert arr[i] == hat_chi_ball(3, float(v))

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            hat_chi_ball(4, 1.0)


class TestHatChiLattice:
    def test_zero_frequency(self):
        assert hat_chi_lattice(identity_basis(3), [0, 0, 0]) == pytest.approx(
            4.0 * math.pi / 3.0)

    def test_determinant_scaling(self):
        b = LatticeBasis(2.0 * np.eye(3))
        assert hat_chi_lattice(b, [0, 0, 0]) == pytest.approx(
            4.0 * math.pi / 3.0 / 8.0)

    def test_unit_frequency(self):
        assert hat_chi_lattice(identity_basis(3), [1, 0, 0]) == pytest.approx(
            -1.0 / math.pi)

    def test_radiality(self, rng):
        b = identity_basis(3)
        a = hat_chi_lattice(b, [2, 1, 0])
        c = hat_chi_lattice(b, [0, 1, 2])
        assert a == pytest.approx(c, rel=1e-14)


class TestMollifier:
    def test_unit_mass(self):
        spec = MollifierSpec.build(3, 0.1)
        assert mollifier_hat(spec, np.zeros(3)) == pytest.approx(1.0,
                                                                 abs=1e-9)

    def test_even(self):
        spec = MollifierSpec.build(3, 0.1)
        xi = np.array([0.7, -1.3, 2.2])
        assert mollifier_hat(spec, xi) == pytest.approx(
            mollifier_hat(spec, -xi), abs=1e-15)

    def test_product_structure(self):
        spec = MollifierSpec.build(3, 0.1)
        y = 1.37
        assert mollifier_hat(spec, np.array([y, 0.0, 0.0])) == pytest.approx(
            spec.rho0_hat(y), rel=1e-12)

    def test_table_against_quadrature(self):
        spec = MollifierSpec.build(2, 0.1)
        norm, _ = integrate.quad(lambda x: math.exp(-1.0 / (1.0 - x * x)),
                                 -1.0, 1.0, epsabs=1e-14)
        for y in (0.3, 1.0, 2.7, 5.5, 13.2, 40.1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                ref, _ = integrate.quad(
                    lambda x: math.exp(-1.0 / (1.0 - x * x))
                    * math.cos(2.0 * math.pi * y * x) / norm,
                    -1.0, 1.0, epsabs=1e-14)
            assert spec.rho0_hat(y) == pytest.approx(ref, abs=1e-10)

    def test_support_radius(self):
        assert MollifierSpec.build(3, 0.05).support_radius == pytest.approx(
            math.sqrt(3.0))

    def test_vanishes_past_table(self):
        spec = MollifierSpec.build(3, 0.1)
        assert spec.rho0_hat(250.0) == 0.0

    def test_table_independent_of_chunk(self, monkeypatch):
        """The build works through the table in row chunks to bound its
        temporaries; its chunks give the bytes of 20000-row chunks."""
        built = []
        for chunk in (20_000, fourier._TABLE_CHUNK):
            monkeypatch.setattr(fourier, "_table_cache", {})
            monkeypatch.setattr(fourier, "_TABLE_CHUNK", chunk)
            built.append(_rho0_table(40.0, 1e-3)[0].tobytes())
        assert built[0] == built[1]


class TestShellPoints:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("c", range(1, 7))
    def test_exact_sup_norm_shell(self, n, c):
        K = _shell_points(n, c)
        assert K.shape == ((2 * c + 1) ** n - (2 * c - 1) ** n, n)
        assert np.all(np.max(np.abs(K), axis=1) == c)
        assert np.unique(K, axis=0).shape[0] == K.shape[0]


class TestShellRho:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("epsilon", [0.02, 0.1, 0.3, 1.7, 30.0])
    def test_gather_equals_per_point_product(self, n, epsilon):
        table, step = _rho0_table(200.0, 1e-3)
        for c in range(1, 9):
            K = _shell_points(n, c)
            expected = np.ones(K.shape[0])
            for j in range(n):
                expected *= _rho0_hat(epsilon * K[:, j].astype(float),
                                      table, step)
            assert np.all(_shell_rho(K, c, epsilon, table, step)
                          == expected)

    def test_shell_past_table_end(self):
        # epsilon * c = 240 lies past the table end (200): no live point
        table, step = _rho0_table(200.0, 1e-3)
        rho = _shell_rho(_shell_points(3, 8), 8, 30.0, table, step)
        assert not np.any(np.abs(rho) > 0.0)


_SHEAR2 = np.array([[0.9, -0.15], [0.2, 1.1]])
_SHEAR3 = np.array([[1.0, 0.1, 0.0], [0.05, 0.95, 0.1], [0.0, -0.1, 1.05]])

# Values from the implementation that summed each radius in its own pass
# and interpolated rho0_hat at every point of a shell, with the shells at
# which the lower and upper sums stopped.  Sharing the pass changes the
# order of no floating-point operation, so they must match to the bit.
_PINNED_SANDWICH = [
    (_SHEAR3, 2.7, 0.2, (20, 22), SandwichResult(
        holds=True, status="holds", t=2.7, epsilon=0.2,
        shift=0.3660395432662094, count=83, lower=55.27470638433732,
        upper=117.34921732512827, lower_tail=0.0009998335494033075,
        upper_tail=0.000570128074996867, cutoff=22)),
    (np.eye(3), 2.5, 0.3, (13, 15), SandwichResult(
        holds=True, status="holds", t=2.5, epsilon=0.3,
        shift=0.5196152422706631, count=81, lower=29.59560776301296,
        upper=111.56030443632052, lower_tail=0.0009546774609830202,
        upper_tail=0.0007725075350542517, cutoff=15)),
    (_SHEAR2, 2.6, 0.25, (14, 16), SandwichResult(
        holds=True, status="holds", t=2.6, epsilon=0.25,
        shift=0.39536979972681396, count=21, lower=14.770942091270456,
        upper=28.127299819279575, lower_tail=0.0008753447438100378,
        upper_tail=0.0005613790654497292, cutoff=16)),
    (np.eye(2), 3.7, 0.05, (52, 51), SandwichResult(
        holds=True, status="holds", t=3.7, epsilon=0.05,
        shift=0.07071067811865477, count=45, lower=43.98744197611615,
        upper=45.000037218600966, lower_tail=0.00021247944140483403,
        upper_tail=0.00033087878199162277, cutoff=52)),
]


class TestPinnedValues:
    @pytest.mark.parametrize("M, t, eps, shells, expected", _PINNED_SANDWICH)
    def test_sandwich_bit_identical(self, M, t, eps, shells, expected):
        basis = LatticeBasis(M)
        assert sandwich_check(basis, t, eps) == expected
        lower, upper = _poisson_sums(
            basis, (t - expected.shift, t + expected.shift),
            MollifierSpec.build(basis.n, eps), 10_000, 1e-3)
        assert (lower[2], upper[2]) == shells
        assert (lower[0], upper[0]) == (expected.lower, expected.upper)

    def test_smoothed_count_bit_identical(self):
        assert smoothed_count(identity_basis(3), 2.5, 0.2, 12) == (
            SmoothedCount(t=2.5, epsilon=0.2, cutoff=12,
                          value=74.0978781822307,
                          tail_estimate=0.013466253457536072,
                          tail_warning=False))
        basis = LatticeBasis(np.array([[1.1, 0.2], [-0.1, 0.9]]))
        assert smoothed_count(basis, 3.0, 0.1, 20) == (
            SmoothedCount(t=3.0, epsilon=0.1, cutoff=20,
                          value=27.241028922062842,
                          tail_estimate=0.00018791566287323897,
                          tail_warning=False))


class TestSmoothedCount:
    def test_tail_covers_cutoff_gap(self):
        b = identity_basis(3)
        c1 = smoothed_count(b, 4.001, 0.05, 40)
        c2 = smoothed_count(b, 4.001, 0.05, 80)
        assert abs(c2.value - c1.value) <= c1.tail_estimate + 1e-9

    def test_bracketed_by_shifted_counts(self):
        b = identity_basis(3)
        eps = 0.05
        shift = math.sqrt(3.0) * eps
        sm = smoothed_count(b, 4.001, eps, 80)
        lo = count_points(b, 4.001 - shift)
        hi = count_points(b, 4.001 + shift)
        assert lo - 2e-3 <= sm.value <= hi + 2e-3

    def test_large_epsilon_kills_remainder(self):
        b = identity_basis(3)
        sm = smoothed_count(b, 4.001, 10.0, 60)
        volume = 4.0 * math.pi / 3.0 * 4.001 ** 3
        assert abs(sm.value - volume) < 1e-3

    def test_epsilon_convergence(self):
        b = identity_basis(2)
        t = 2.503
        exact = count_points(b, t)
        last = None
        for eps in (0.2, 0.1, 0.05):
            sm = smoothed_count(b, t, eps, 400)
            last = abs(sm.value - exact)
        assert last < 0.5

    def test_tail_warning_flag(self):
        b = identity_basis(3)
        sm = smoothed_count(b, 4.001, 0.01, 2)
        assert sm.tail_warning
        assert sm.tail_estimate > 0.5


class TestSandwich:
    def test_z3_case(self):
        res = sandwich_check(identity_basis(3), 3.001, 0.1)
        assert res.status == "holds"
        assert res.holds is True
        assert res.lower <= res.count + 2e-3
        assert res.count <= res.upper + 2e-3

    def test_z2_case(self):
        res = sandwich_check(identity_basis(2), 2.5, 0.2)
        assert res.status == "holds"

    def test_epsilon_too_large(self):
        with pytest.raises(ValueError):
            sandwich_check(identity_basis(3), 1.0, 0.7)

    def test_diagnostics_serialize(self):
        res = sandwich_check(identity_basis(2), 2.5, 0.2)
        d = dataclasses.asdict(res)
        assert d["status"] == "holds"
        assert d["count"] == count_points(identity_basis(2), 2.5)

    def test_random_triples(self, rng):
        held = 0
        for _ in range(6):
            n = int(rng.integers(2, 4))
            X = random_basis(rng, n, det_floor=0.4)
            t = float(rng.uniform(2.0, 4.0))
            eps = float(rng.uniform(0.05, 0.2))
            res = sandwich_check(X, t, eps)
            assert res.status in ("holds", "inconclusive")
            held += res.status == "holds"
        assert held >= 4


def test_import_leaves_scipy_unloaded():
    """hat_chi_ball imports scipy.special only when it needs J1: loading
    scipy costs about 0.2 s and 25 MB, which `import latticeball` should
    not pay."""
    src = str(Path(latticeball.__file__).resolve().parents[1])
    probe = "import sys, latticeball; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "False"
