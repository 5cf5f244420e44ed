import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, interpolate, special

import latticeball
from latticeball import fourier
from latticeball.basis import LatticeBasis, identity_basis
from latticeball.counting import count_points, unit_ball_volume
from latticeball.fourier import (
    MollifierSpec,
    PoissonSum,
    SandwichResult,
    _BLOCK_MAX,
    _BLOCK_MIN,
    _MEMO_POINTS,
    _ROUNDING,
    _SMALL_S,
    _ball_envelope,
    _block,
    _blocks,
    _dual_norms,
    _half_size,
    _j1,
    _majorant_tail,
    _poisson_sums,
    _power_gap,
    _rho0_hat,
    _rho0_majorant,
    _shell_points,
    _shell_masses,
    _shell_rho,
    _tail_table,
    hat_chi_ball,
    sandwich_check,
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_elementwise(self, n):
        """Each value is the one its argument gets alone, or in a chunk of
        37, bit for bit: no value depends on the rest of its call."""
        rng = np.random.default_rng(47)
        s = np.concatenate([rng.uniform(0.0, 300.0, 4000),
                            rng.uniform(0.0, 4.0, 4000)])
        whole = hat_chi_ball(n, s)
        alone = np.array([hat_chi_ball(n, v) for v in s])
        chunks = np.concatenate([hat_chi_ball(n, s[lo:lo + 37])
                                 for lo in range(0, s.size, 37)])
        assert np.array_equal(whole, alone)
        assert np.array_equal(whole, chunks)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            hat_chi_ball(4, 1.0)

    @pytest.mark.parametrize("n, s", [(3, [1.0, 1e103, 1e200]),
                                      (2, [1.0, 1e200]),
                                      (3, [0.0, 5e-4]), (2, [0.0, 5e-4])])
    def test_no_warning_at_extreme_arguments(self, n, s):
        """Past about 5.7e102 s^3 overflows to inf and its n = 3 term to
        the right 0; at s = 0 the closed form is never divided by 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hat_chi_ball(n, s)
        assert np.all(np.isfinite(out))
        assert out[0] == hat_chi_ball(n, s[0])

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_path_equals_split_branches(self, n):
        """Closed form on every argument, then the series on the tiny ones,
        equals the earlier split into the two sets bit for bit."""
        rng = np.random.default_rng(11)
        s = np.concatenate([[0.0, 1e-4, 9.99e-4, 1e-3, 30.0 / math.pi],
                            rng.uniform(0.0, 2e-3, 200),
                            np.exp(rng.uniform(-6.0, 8.0, 1995))])
        rng.shuffle(s)
        s = s.reshape(2, -1)
        tiny = s < _SMALL_S
        expected = np.empty_like(s)
        sb, st = s[~tiny], s[tiny]
        if n == 3:
            u = 2.0 * math.pi * sb
            expected[~tiny] = (-np.cos(u) / (math.pi * sb * sb)
                               + np.sin(u) / (2.0 * math.pi ** 2 * sb ** 3))
            u2 = (2.0 * math.pi * st) ** 2
            expected[tiny] = 4.0 * math.pi * (
                1.0 / 3.0 - u2 * (1.0 / 30.0
                                  - u2 * (1.0 / 840.0 - u2 / 45360.0)))
        else:
            expected[~tiny] = _j1(2.0 * math.pi * sb) / sb
            v = (math.pi * st) ** 2
            expected[tiny] = math.pi * (1.0 - v / 2.0 + v * v / 12.0
                                        - v ** 3 / 144.0)
        assert np.array_equal(hat_chi_ball(n, s), expected)

    def test_n3_in_place_bits_and_memory(self):
        """The in-place n = 3 closed form gives the plain expression's bits
        on a block of two radii times many dual norms, holding at most four
        arrays of the block's size at once."""
        rng = np.random.default_rng(5)
        s = np.multiply.outer([2.9, 3.1], rng.uniform(0.5, 400.0, 100_000))
        u = 2.0 * math.pi * s
        plain = (-np.cos(u) / (math.pi * s * s)
                 + np.sin(u) / (2.0 * math.pi ** 2 * s ** 3))
        del u
        tracemalloc.start()
        try:
            got = hat_chi_ball(3, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, plain)
        assert peak <= 4.2 * s.nbytes


class TestJ1:
    """The numpy J1 behind hat_chi_ball(2, .), over every argument that
    hat_chi_ball passes it (x = 2 pi s with s >= 1e-3) up to 1e6."""

    X = np.logspace(math.log10(2.0 * math.pi * 1e-3), 6.0, 4000)

    def test_against_mpmath(self):
        """Within 32 units of 2^-52 min(0.6, sqrt(2/(pi x))), the size of
        J1 near x and at most 0.6, of a 30-digit reference."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(1, mpmath.mpf(float(x))))
                            for x in self.X])
        scale = 2.0 ** -52 * np.minimum(0.6, np.sqrt(2.0 / (math.pi * self.X)))
        assert np.all(np.abs(_j1(self.X) - ref) <= 32.0 * scale)

    def test_against_scipy(self):
        """Within scipy's own phase error: its j1 rounds x - 3 pi/4."""
        bound = (2.0 ** -52 * (1.0 + self.X)
                 * np.sqrt(2.0 / (math.pi * self.X)))
        assert np.all(np.abs(_j1(self.X) - special.j1(self.X)) <= bound)

    def test_both_branches_in_one_call(self):
        """Arguments on both sides of the switch to the Hankel expansion
        keep their places, and a call's values match calls on each
        branch alone."""
        x = np.array([30.0, 3.0, 24.999, 25.0, 0.01, 1e4])
        near = x < 25.0
        out = _j1(x)
        assert np.array_equal(out[near], _j1(x[near]))
        assert np.array_equal(out[~near], _j1(x[~near]))
        assert np.allclose(out, special.j1(x), rtol=0.0, atol=1e-13)

    def test_nan_leaves_other_arguments_alone(self):
        x = np.array([30.0, np.nan, 3.0, 1e4])
        out = _j1(x)
        assert np.isnan(out[1])
        keep = [0, 2, 3]
        assert np.array_equal(out[keep], _j1(x[keep]))

    def test_huge_argument_needs_one_term(self):
        """Past about 2.7e16 the terms past the first fall below rounding,
        so J1 is the first Hankel term alone."""
        x = np.array([1e17, 1e300])
        with np.errstate(over="raise", invalid="raise"):
            out = _j1(x)
        expected = (np.sin(x) - np.cos(x)) / np.sqrt(math.pi * x)
        assert np.array_equal(out, expected)


class TestMollifier:
    def test_unit_mass(self):
        assert _rho0_hat(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_even(self):
        xi = np.array([0.7, -1.3, 2.2])
        assert np.array_equal(_rho0_hat(xi), _rho0_hat(-xi))

    def test_product_structure(self):
        """A shell point with one nonzero coordinate weighs that
        coordinate's 1-d transform: the others contribute rho0_hat(0) = 1."""
        spec = MollifierSpec.build(3, 0.1)
        K = np.array([[3, 0, 0], [0, -3, 0], [1, 0, 3]])
        rho = _shell_rho(K, 3, spec.epsilon)
        assert rho[0] == pytest.approx(_rho0_hat(0.3), rel=1e-12)
        assert rho[1] == pytest.approx(_rho0_hat(0.3), rel=1e-12)
        assert rho[2] == pytest.approx(
            _rho0_hat(0.1) * _rho0_hat(0.3), rel=1e-12)

    def test_against_bspline_quadrature(self):
        """The closed form against the transform integral of scipy's
        order-8 B-spline on [-1, 1], normalized to unit mass."""
        knots = np.linspace(-1.0, 1.0, 9)
        spline = interpolate.BSpline.basis_element(knots)
        mass = spline.integrate(-1.0, 1.0)
        for y in (0.3, 1.0, 2.7, 5.5, 13.2, 40.1):
            ref, _ = integrate.quad(
                lambda x: float(spline(x)) * math.cos(2.0 * math.pi * y * x),
                -1.0, 1.0, points=knots[1:-1], epsabs=1e-14, limit=400)
            assert _rho0_hat(y) == pytest.approx(ref / mass, abs=1e-12)

    def test_support_radius(self):
        assert MollifierSpec.build(3, 0.05).support_radius == pytest.approx(
            math.sqrt(3.0))


def full_shell(n: int, c: int) -> np.ndarray:
    """Every integer vector with sup norm exactly c, in face order: face j
    (x_j = +c, then x_j = -c, earlier coordinates inside (-c, c)) after
    face j - 1, each face in lexicographic order."""
    box = list(itertools.product(range(-c, c + 1), repeat=n))
    return np.array([v for j in range(n) for side in (c, -c) for v in box
                     if v[j] == side and max(map(abs, v[:j]), default=0) < c])


class TestShellPoints:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("c", range(1, 7))
    def test_exact_sup_norm_shell(self, n, c):
        """One point of every +-k pair of the shell, and nothing else."""
        K = _shell_points(n, c)
        assert K.shape == (((2 * c + 1) ** n - (2 * c - 1) ** n) // 2, n)
        assert np.all(np.max(np.abs(K), axis=1) == c)
        rows = set(map(tuple, K.tolist()))
        negated = set(map(tuple, (-K).tolist()))
        assert len(rows) == K.shape[0]
        assert not rows & negated
        assert rows | negated == {
            v for v in itertools.product(range(-c, c + 1), repeat=n)
            if max(map(abs, v)) == c}

    def test_dual_norms_sum_left_to_right(self):
        """The column-by-column sum of the squares equals np.sum over
        axis 1 bit for bit."""
        rng = np.random.default_rng(5)
        for n in (2, 3):
            W = np.eye(n) + rng.uniform(-0.3, 0.3, (n, n))
            K = rng.integers(-400, 401, (50_000, n))
            Y = K.astype(float) @ W.T
            assert np.array_equal(_dual_norms(K, W),
                                  np.sqrt(np.sum(Y ** 2, axis=1)))

    def test_dual_norms_even_bitwise(self):
        """Doubling the half shell's sum rests on every term being even in
        k: |W k| and rho_hat at k and -k are equal bit for bit, and twice
        the half shell's sum is the full shell's to within 4 ulp of its
        absolute sum."""
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = 2 + trial % 2
            M = np.eye(n) + rng.uniform(-0.2, 0.2, (n, n))
            W = np.linalg.inv(LatticeBasis(M).entries).T
            eps = rng.uniform(0.02, 0.3)
            r = rng.uniform(2.0, 4.5)
            for c in range(1, 31):
                K = _shell_points(n, c)
                assert np.array_equal(_dual_norms(-K, W), _dual_norms(K, W))
                assert np.array_equal(_shell_rho(-K, c, eps),
                                      _shell_rho(K, c, eps))
            for c in range(1, 7):
                K, F = _shell_points(n, c), full_shell(n, c)
                half = (hat_chi_ball(n, r * _dual_norms(K, W))
                        * _shell_rho(K, c, eps))
                full = (hat_chi_ball(n, r * _dual_norms(F, W))
                        * _shell_rho(F, c, eps))
                bound = 4.0 * math.ulp(float(np.sum(np.abs(full))))
                assert abs(2.0 * np.sum(half) - np.sum(full)) <= bound


def memo_last(n: int) -> int:
    """The last shell a block memoised by _block may reach."""
    c = 0
    while (2 * c + 3) ** n <= _MEMO_POINTS:
        c += 1
    return c


class TestShellCache:
    @pytest.mark.parametrize("n", [2, 3])
    def test_cached_shells_are_read_only_shell_points(self, n):
        """Each block within the memo's budget is one read-only object,
        whatever the call, holding its half shells one after another."""
        for first, last in _blocks(n, memo_last(n)):
            block = _block(n, first, last)
            assert _block(n, first, last) is block
            K, Kf, starts = block
            K0 = np.concatenate([_shell_points(n, c)
                                 for c in range(first, last + 1)])
            assert np.array_equal(K, K0)
            assert Kf.dtype == float and np.array_equal(Kf, K0)
            for a in (K, Kf):
                assert not a.flags.writeable

    def test_larger_shells_are_not_kept(self):
        """A block past the budget is rebuilt at each call."""
        for n in (2, 3):
            c = memo_last(n) + 1
            K, Kf, starts = _block(n, c, c)
            assert _block(n, c, c)[0] is not K
            assert K.flags.writeable
            assert np.array_equal(K, _shell_points(n, c))
            assert starts == (0, K.shape[0])


class TestShellRho:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("epsilon", [0.02, 0.1, 0.3, 1.7, 30.0])
    def test_gather_equals_per_point_product(self, n, epsilon):
        for c in range(1, 9):
            K = _shell_points(n, c)
            expected = np.ones(K.shape[0])
            for j in range(n):
                expected *= _rho0_hat(epsilon * K[:, j].astype(float))
            assert np.all(_shell_rho(K, c, epsilon) == expected)


_SHEAR2 = np.array([[0.9, -0.15], [0.2, 1.1]])
_SHEAR3 = np.array([[1.0, 0.1, 0.0], [0.05, 0.95, 0.1], [0.0, -0.1, 1.05]])

# Values of the B-spline mollifier's sums, with the shells at which the
# lower and upper sums stopped under the shell-mass tail.  The last triple
# stops its two radii at different shells and by different rules (its
# upper margin, about 3.5e-5, is too thin for the margin rule), so each
# radius's stop is pinned apart.  The n = 2 values come from the numpy J1
# and the Nicholson envelope of the fourier module.
_PINNED_SANDWICH = [
    (_SHEAR3, 2.7, 0.2, (3, 3), SandwichResult(
        holds=True, status="holds", t=2.7, epsilon=0.2,
        shift=0.3660395432662094, count=83, lower=56.77916843173711,
        upper=116.4410734647781, lower_tail=19.794784765194198,
        upper_tail=25.913102702500066, cutoff=3, lower_rule="margin",
        upper_rule="margin")),
    (np.eye(3), 2.5, 0.3, (1, 1), SandwichResult(
        holds=True, status="holds", t=2.5, epsilon=0.3,
        shift=0.5196152422706631, count=81, lower=29.0616002453661,
        upper=110.67595525405729, lower_tail=18.163791735357997,
        upper_tail=27.397933144570445, cutoff=1, lower_rule="margin",
        upper_rule="margin")),
    (_SHEAR2, 2.6, 0.25, (1, 1), SandwichResult(
        holds=True, status="holds", t=2.6, epsilon=0.25,
        shift=0.39536979972681396, count=21, lower=14.929027491085135,
        upper=28.010401569407797, lower_tail=5.037713697538916,
        upper_tail=5.871540982205394, cutoff=1, lower_rule="margin",
        upper_rule="margin")),
    (np.eye(2), 3.7, 0.05, (37, 52), SandwichResult(
        holds=True, status="holds", t=3.7, epsilon=0.05,
        shift=0.07071067811865477, count=45, lower=44.92348762827568,
        upper=45.000035193558794, lower_tail=0.07068678509195803,
        upper_tail=0.0007351726109917933, cutoff=52, lower_rule="margin",
        upper_rule="target")),
]


# perfbench `sandwich` items (seeds 2, 2, 2, 5, 6, 8, 9) that the earlier
# exp(-1/(1 - x^2)) bump mollifier reported as "violated": the two-shell
# early stop fired while the truncation error was still above the tail
# estimate, by up to 35 times.
_EARLY_STOP_ITEMS = [
    ([[0.9254043754057729, -0.09997222629558929],
      [0.1733167578766095, 1.1527884351973037]],
     2.5069471833150043, 0.02988375720378733),
    ([[1.1530866301749128, -0.1451821943326917],
      [0.15634031217153888, 0.8711508670766199]],
     2.524160585430363, 0.04972713112901741),
    ([[1.055024704331497, -0.03202445730616624],
      [-0.13350253546861096, 1.0965971643753778]],
     2.983540941842537, 0.06971583074703655),
    ([[1.0505364008611568, 0.15157613463861552],
      [-0.019621610716500953, 0.9732902827860739]],
     4.080157166079138, 0.04197591314225695),
    ([[0.8391136066077822, 0.0654389407662418],
      [0.009547263203433964, 0.9936913025006114]],
     2.7818196410617833, 0.03931999103101985),
    ([[0.94593509804832, 0.046089339474132046],
      [0.03229825844034892, 1.091149561328135]],
     4.344432638903319, 0.030333782471203663),
    ([[0.905181021003548, 0.025409592933867936],
      [0.020919202761845723, 1.0498269240982085]],
     3.674502748370788, 0.022402750478082687),
]


# the shell far enough out to stand in for the full sum in tail checks
_FAR = {2: 120, 3: 60}


def far_value(basis: LatticeBasis, radius: float, epsilon: float) -> float:
    [far] = _poisson_sums(basis, (radius,), epsilon, _FAR[basis.n])
    return far.value


def _table_lengths(n: int, cutoff: int) -> dict[int, int]:
    """The mollifier table length K in force at each shell 1..cutoff: at
    least twice the last shell of the shell's block, doubled when it falls
    short."""
    lengths, length = {}, 0
    for first, last in _blocks(n, cutoff):
        if length < 2 * last:
            length = 2 * max(length, last)
        lengths.update(dict.fromkeys(range(first, last + 1), length))
    return lengths


def _shell_mass_tails(n: int, epsilon: float, length: int,
                      reach: float) -> tuple[list[float], list[float]]:
    """The shell-mass tail bound after shells 0..length at r sigma =
    ``reach``, before the scale r^n/|det|, with its table allowance, one
    shell at a time from the far end; and env(reach c), c = 1..length + 1.
    """
    rho = _rho0_hat(epsilon * np.arange(length + 1)).tolist()
    G = [1.0]
    for k in range(1, length + 1):
        G.append(G[-1] + 2.0 * rho[k])
    env = [_ball_envelope(n, reach * c) for c in range(1, length + 2)]
    # the shells past K by the majorant tail, at the envelope of shell K + 1
    body = env[length] * _power_gap(
        G[length], 2.0 * _majorant_tail(epsilon, length + 1), n)
    bodies = [body]
    for c in range(length, 0, -1):
        # shell c's mollifier mass is G_c^n - G_(c-1)^n
        body += env[c - 1] * _power_gap(G[c - 1], 2.0 * rho[c], n)
        bodies.append(body)
    bodies.reverse()
    a = 1.0 + _ROUNDING * (2 * n * length + 2)
    b = _ROUNDING * n * G[length] ** (n - 1) * length
    return [a * x + b * e for x, e in zip(bodies, env)], env


def _poisson_sums_per_shell(basis: LatticeBasis, radii, epsilon: float,
                            cutoff: int, margins=None,
                            tail_target: float = 0.0) -> list[PoissonSum]:
    """The earlier per-shell loop of fourier._poisson_sums, kept as the
    oracle of the block pass: one ball-transform call per shell, and the
    shell-mass tail of each shell summed term by term."""
    if margins is not None and len(margins) != len(radii):
        raise ValueError("margins needs one function per radius")
    n = basis.n
    W = np.linalg.inv(basis.entries).T
    singular = np.linalg.svd(basis.entries, compute_uv=False)
    # smallest singular value of W, so |W k| >= sigma |k|_inf
    sigma = 1.0 / float(singular[0])
    kappa = float(singular[0] / singular[-1])
    det = abs(basis.det)
    values = [t ** n * unit_ball_volume(n) / det for t in radii]
    mass = list(values)
    tails = [math.inf] * len(radii)
    shells = [0] * len(radii)
    rules: list[str | None] = [None] * len(radii)
    lengths = _table_lengths(n, cutoff)
    tables = {}
    s_max = 0.0
    active = list(range(len(radii)))
    for c in range(1, cutoff + 1):
        K = _shell_points(n, c)
        rho = _shell_rho(K, c, epsilon)
        s = _dual_norms(K, W)
        s_max = max(s_max, float(np.max(s)))
        rho_mass = 2.0 * float(np.sum(rho))
        transform = hat_chi_ball(
            n, np.multiply.outer([radii[i] for i in active], s))
        for i, chi in zip(active, transform):
            t = radii[i]
            key = (i, lengths[c])
            if key not in tables:
                tables[key] = _shell_mass_tails(n, epsilon, lengths[c],
                                                t * sigma)
            bound, env = tables[key]
            scale = t ** n / det
            half = scale * chi * rho
            values[i] += 2.0 * float(np.sum(half))
            mass[i] += scale * env[c - 1] * rho_mass
            rounding = _ROUNDING * (
                1.0 + c + 2.0 * math.pi * t * s_max * kappa) * mass[i]
            tails[i] = scale * bound[c] + rounding
            shells[i] = c
            if margins is not None and tails[i] < margins[i](values[i]):
                rules[i] = "margin"
            elif tails[i] < tail_target:
                rules[i] = "target"
        active = [i for i in active if rules[i] is None]
        if not active:
            break
    return [PoissonSum(*row) for row in zip(values, tails, shells, rules)]


class TestBlocks:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cutoff", [1, 3, 10, 15, 16, 70, 400])
    def test_blocks_cover_shells_in_order(self, n, cutoff):
        """Consecutive blocks cover 1..cutoff; each holds at most half of
        the points before it, or _BLOCK_MIN, and at most _BLOCK_MAX
        unless it is one shell."""
        blocks = list(_blocks(n, cutoff))
        assert [c for a, b in blocks for c in range(a, b + 1)] == list(
            range(1, cutoff + 1))
        summed = 0
        for first, last in blocks:
            size = sum(_half_size(n, c) for c in range(first, last + 1))
            if last > first:
                assert size <= min(max(summed // 2, _BLOCK_MIN), _BLOCK_MAX)
            summed += size

    def test_half_size_is_half_shell(self):
        for n in (2, 3):
            for c in range(1, 8):
                assert _half_size(n, c) == _shell_points(n, c).shape[0]

    @pytest.mark.parametrize("n", [2, 3])
    def test_block_is_its_shells_in_order(self, n):
        """A block's rows are its half shells one after another."""
        for first, last in _blocks(n, memo_last(n) + 4):
            K, Kf, starts = _block(n, first, last)
            assert len(starts) == last - first + 2
            for j, c in enumerate(range(first, last + 1)):
                Kc = _shell_points(n, c)
                lo, hi = starts[j], starts[j + 1]
                assert np.array_equal(K[lo:hi], Kc)
                assert np.array_equal(Kf[lo:hi], Kc)


class TestBlockPass:
    """fourier._poisson_sums against the per-shell loop it replaced: value,
    tail, shells and rule equal bit for bit for both n, since the ball
    transform is elementwise."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 3]),
           entries=st.lists(st.floats(-0.2, 0.2), min_size=9, max_size=9),
           t=st.floats(2.0, 4.5), shift=st.floats(0.0, 0.5),
           eps=st.floats(0.02, 0.3), cutoff=st.integers(1, 60),
           offsets=st.one_of(st.none(), st.tuples(st.floats(-2.0, 2.0),
                                                  st.floats(-2.0, 2.0))),
           target=st.sampled_from([0.0, 1e-3, 0.05]))
    def test_matches_per_shell_loop(self, n, entries, t, shift, eps, cutoff,
                                    offsets, target):
        M = np.eye(n) + np.reshape(entries[:n * n], (n, n))
        if abs(np.linalg.det(M)) <= 0.5:
            return
        basis = LatticeBasis(M)
        radii = (t - shift, t + shift)
        if n == 3:
            cutoff = min(cutoff, 30)
        margins = None
        if offsets is not None:
            # a count near each smoothed count, so that the margin rule
            # fires at shells spread over the blocks
            volume = [r ** n * unit_ball_volume(n) / abs(basis.det)
                      for r in radii]
            count = [round(v + o) for v, o in zip(volume, offsets)]
            margins = (lambda v: count[0] - v, lambda v: v - count[1])
        got = _poisson_sums(basis, radii, eps, cutoff, margins, target)
        expected = _poisson_sums_per_shell(basis, radii, eps, cutoff,
                                           margins, target)
        assert got == expected

    def test_cutoff_inside_a_block(self):
        """Shells 1..15 make the first n = 2 block: a cutoff of 10 ends it
        early."""
        assert next(_blocks(2, 10_000)) == (1, 15)
        basis = LatticeBasis(_SHEAR2)
        got = _poisson_sums(basis, (2.6, 2.9), 0.05, 10)
        assert [sm.shells for sm in got] == [10, 10]
        assert got == _poisson_sums_per_shell(basis, (2.6, 2.9), 0.05, 10)

    def test_one_radius_stops_mid_block(self):
        """On Z^2 at t = 3.7, eps = 0.05 the lower sum stops at shell 37,
        inside the block of shells 32..38, and the upper sum runs on to
        shell 52."""
        assert (32, 38) in list(_blocks(2, 52))
        basis = identity_basis(2)
        shift = _PINNED_SANDWICH[3][4].shift
        margins = (lambda v: 45 - v, lambda v: v - 45)
        args = (basis, (3.7 - shift, 3.7 + shift), 0.05, 10_000, margins,
                1e-3)
        got = _poisson_sums(*args)
        assert [sm.shells for sm in got] == [37, 52]
        assert got == _poisson_sums_per_shell(*args)

    def test_one_shell_blocks(self):
        """n = 3 shells 5 to 14 are blocks of their own, below the cap, and
        so is every shell that alone holds more than the cap."""
        blocks = list(_blocks(3, 40))
        assert blocks[:11] == [(1, 4)] + [(c, c) for c in range(5, 15)]
        big = next(c for c in range(1, 41) if _half_size(3, c) > _BLOCK_MAX)
        assert [(a, b) for a, b in blocks if b >= big] == [
            (c, c) for c in range(big, 41)]
        basis = LatticeBasis(_SHEAR3)
        got = _poisson_sums(basis, (2.4, 3.0), 0.2, 8)
        assert got == _poisson_sums_per_shell(basis, (2.4, 3.0), 0.2, 8)

    # the memoised blocks end at shell 127 for n = 2 and 19 for n = 3
    @pytest.mark.parametrize("n, cutoff", [(2, 90), (2, 130), (3, 27)])
    def test_shells_past_the_cache(self, n, cutoff):
        basis = LatticeBasis(_SHEAR2 if n == 2 else _SHEAR3)
        got = _poisson_sums(basis, (2.7,), 0.1, cutoff)
        assert got[0].shells == cutoff
        assert got == _poisson_sums_per_shell(basis, (2.7,), 0.1, cutoff)

    def test_one_transform_call_per_block(self, monkeypatch):
        """The pinned Z^2 check sums 52 shells in 7 blocks, one
        ball-transform call each; no check calls it more often than it
        sums shells."""
        calls = []

        def counted(n, s):
            calls.append(np.shape(s))
            return hat_chi_ball(n, s)

        monkeypatch.setattr(fourier, "hat_chi_ball", counted)
        res = sandwich_check(identity_basis(2), 3.7, 0.05)
        assert res.cutoff == 52
        assert len(calls) <= 10
        for M, t, eps, _, _ in _PINNED_SANDWICH:
            calls.clear()
            res = sandwich_check(LatticeBasis(M), t, eps)
            assert 1 <= len(calls) <= res.cutoff


class TestPinnedValues:
    @pytest.mark.parametrize("M, t, eps, shells, expected", _PINNED_SANDWICH)
    def test_sandwich_bit_identical(self, M, t, eps, shells, expected):
        basis = LatticeBasis(M)
        assert sandwich_check(basis, t, eps) == expected
        count = expected.count
        lower, upper = _poisson_sums(
            basis, (t - expected.shift, t + expected.shift), eps, 10_000,
            (lambda v: count - v, lambda v: v - count), 1e-3)
        assert (lower.shells, upper.shells) == shells
        assert (lower.value, upper.value) == (expected.lower, expected.upper)

    def test_smoothed_count_bit_identical(self):
        """The sums themselves are those of the earlier code, bit for bit;
        without a count or a target they run to the cutoff."""
        [sm] = _poisson_sums(identity_basis(3), (2.5,), 0.2, 12)
        assert (sm.value, sm.shells, sm.rule) == (78.30774113339403, 12, None)
        basis = LatticeBasis(np.array([[1.1, 0.2], [-0.1, 0.9]]))
        [sm] = _poisson_sums(basis, (3.0,), 0.1, 20)
        assert (sm.value, sm.shells, sm.rule) == (27.01662082118946, 20, None)


class TestEarlyStop:
    @pytest.mark.parametrize("M, t, eps", _EARLY_STOP_ITEMS)
    def test_former_false_violations_hold(self, M, t, eps):
        assert sandwich_check(LatticeBasis(np.array(M)), t, eps).status == (
            "holds")

    @pytest.mark.parametrize(
        "M, t, eps", _EARLY_STOP_ITEMS + [p[:3] for p in _PINNED_SANDWICH])
    def test_tail_covers_truncation(self, M, t, eps):
        """Each radius's proven tail bounds the change from summing on to
        shell 60 (n = 3) or 120 (n = 2)."""
        basis = LatticeBasis(np.array(M))
        res = sandwich_check(basis, t, eps)
        sides = ((t - res.shift, res.lower, res.lower_tail),
                 (t + res.shift, res.upper, res.upper_tail))
        for radius, value, tail in sides:
            assert abs(value - far_value(basis, radius, eps)) <= tail


class TestProvenTail:
    def test_n2_envelope_bounds_bessel_modulus(self):
        """env(s) >= sqrt(J1^2 + Y1^2)(2 pi s)/s, both capped at the
        unit-disc area, on a grid 1e-3 apart over [0.05, 200], and within
        1e-3 of it from s = 1 on."""
        s = np.arange(0.05, 200.0, 1e-3)
        x = 2.0 * math.pi * s
        modulus = np.minimum(np.hypot(special.j1(x), special.y1(x)) / s,
                             math.pi)
        env = np.array([_ball_envelope(2, v) for v in s])
        assert np.all(env >= modulus)
        assert np.all(env[s >= 1.0] <= modulus[s >= 1.0] * (1.0 + 1e-3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_envelope_bounds_transform_beyond(self, n):
        """env(s) >= |hat_chi_ball(n, s')| for every s' >= s on a grid 1e-3
        apart over [0.05, 200], and env decreases."""
        s = np.arange(0.05, 200.0, 1e-3)
        env = np.array([_ball_envelope(n, x) for x in s])
        beyond = np.maximum.accumulate(np.abs(hat_chi_ball(n, s))[::-1])[::-1]
        assert np.all(env >= beyond)
        assert np.all(np.diff(env) <= 0.0)

    def test_majorant_bounds_rho0(self):
        y = np.arange(-200.0, 200.0, 1e-3)
        g = np.array([_rho0_majorant(x) for x in y])
        assert np.all(g >= np.abs(_rho0_hat(y)))
        assert _rho0_majorant(0.0) == 1.0

    @pytest.mark.parametrize("epsilon", [0.02, 0.05, 0.3, 2.0])
    @pytest.mark.parametrize("a", [1, 2, 7, 40])
    def test_majorant_tail_bounds_sum(self, epsilon, a):
        k = np.arange(a, a + 200_000)
        total = sum(_rho0_majorant(epsilon * x) for x in k[:2000])
        total += np.sum((4.0 / (math.pi * epsilon * k[2000:])) ** 8)
        assert _majorant_tail(epsilon, a) >= total

    def test_power_gap_expands(self):
        for g, d, n in ((24.0, 0.3, 3), (1.0, 5.0, 2), (7.5, 1e-3, 3)):
            assert _power_gap(g, d, n) == pytest.approx(
                (g + d) ** n - g ** n, rel=1e-12)
        # no cancellation when d is far below g's last bit
        assert _power_gap(24.0, 1e-20, 3) == pytest.approx(3 * 24.0 ** 2
                                                           * 1e-20)

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([2, 3]),
           entries=st.lists(st.floats(-0.2, 0.2), min_size=9, max_size=9),
           t=st.floats(2.5, 4.5), eps_u=st.floats(0.0, 1.0),
           cutoff=st.integers(1, 20))
    def test_tail_covers_truncation_near_identity(self, n, entries, t, eps_u,
                                                  cutoff):
        """The proven tail after any shell bounds the change from summing
        on to the far shell, on the near-identity bases of criterion 3."""
        M = np.eye(n) + np.reshape(entries[:n * n], (n, n))
        if abs(np.linalg.det(M)) <= 0.5:
            return
        basis = LatticeBasis(M)
        eps = (0.02 if n == 2 else 0.05) + 0.28 * eps_u
        [near] = _poisson_sums(basis, (t,), eps, cutoff)
        assert abs(near.value - far_value(basis, t, eps)) <= near.tail


class TestShellMassTail:
    """The tail of the Poisson sums from the mollifier's exact shell
    masses."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.3, 1.7])
    def test_mass_is_the_full_shell_sum(self, n, epsilon):
        """m_c is twice the half shell's sum of the mollifier transform,
        to rounding, on inner shells and outer ones."""
        _, masses = _shell_masses(n, epsilon, 25)
        for c in (1, 7, 24, 25):
            K = _shell_points(n, c)
            full = 2.0 * math.fsum(_shell_rho(K, c, epsilon))
            assert masses[c - 1] == pytest.approx(full, rel=1e-13)

    @pytest.mark.parametrize("n, epsilon, reach", [
        (2, 0.05, 3.6), (2, 0.3, 0.8), (3, 0.02, 4.0), (3, 0.3, 2.1)])
    def test_table_within_its_allowance(self, n, epsilon, reach):
        """Each float bound is at least the exact shell-mass bound,
        recomputed in mpmath at 40 digits, and above it by at most twice
        its rounding allowance."""
        mpmath = pytest.importorskip("mpmath")
        length = 40
        bounds, env = _tail_table(n, epsilon, length, [reach])
        with mpmath.workdps(40):
            mp = mpmath.mpf
            eps = mp(epsilon)
            rho = [mpmath.sincpi(eps * k / 4) ** 8 for k in range(length + 1)]
            G = [mp(1)]
            for k in range(1, length + 1):
                G.append(G[-1] + 2 * rho[k])

            def envelope(c):
                s = mp(reach) * c
                if n == 3:
                    value = (1 / (mpmath.pi * s ** 2)
                             + 1 / (2 * mpmath.pi ** 2 * s ** 3))
                    return min(value, 4 * mpmath.pi / 3)
                x = 2 * mpmath.pi * s
                value = mpmath.sqrt(2 / (mpmath.pi * x)
                                    * (1 + 3 / (8 * x ** 2))) / s
                return min(value, mpmath.pi)

            a = length + 1
            b = (4 / (mpmath.pi * eps)) ** 8
            H = min(1, b / mp(a) ** 8) + b / mp(a) ** 7 / 7
            exact = envelope(a) * ((G[-1] + 2 * H) ** n - G[-1] ** n)
            for C in range(length, -1, -1):
                allowance = _ROUNDING * ((2 * n * length + 2) * exact
                                         + n * G[-1] ** (n - 1) * length
                                         * envelope(C + 1))
                assert exact <= bounds[0][C] <= exact + 2 * allowance
                assert env[0][C] == pytest.approx(float(envelope(C + 1)),
                                                  rel=1e-15)
                if C:
                    exact += envelope(C) * (G[C] ** n - G[C - 1] ** n)

    @pytest.mark.parametrize("M, t, eps, last", [
        p[:3] + (last,) for p, last in zip(_PINNED_SANDWICH, (6, 4, 4, 68))])
    def test_at_most_the_majorant_tail(self, M, t, eps, last):
        """After every shell C that the earlier majorant tail summed on
        the pinned checks (up to its last stop shell), at both radii, the
        tail is at most that bound, (r^n/|det|) env(r sigma (C + 1))
        ((G'_C + 2H')^n - G'_C^n), with G'_C the sum of g(eps k) over
        |k| <= C and H' = (4/(pi eps))^8 (a^-8 + a^-7/7) at a = C + 1."""
        basis = LatticeBasis(np.array(M))
        n = basis.n
        sigma = 1.0 / float(np.linalg.norm(basis.entries, 2))
        shift = sandwich_check(basis, t, eps).shift
        for radius in (t - shift, t + shift):
            scale = radius ** n / abs(basis.det)
            g_sum = 1.0
            for C in range(1, last + 1):
                g_sum += 2.0 * _rho0_majorant(eps * C)
                a = C + 1
                h = (4.0 / (math.pi * eps)) ** 8 * (a ** -8 + a ** -7 / 7)
                majorant = scale * _ball_envelope(n, radius * sigma * a) * (
                    _power_gap(g_sum, 2.0 * h, n))
                [sm] = _poisson_sums(basis, (radius,), eps, C)
                assert sm.tail <= majorant

    def test_thin_z3_check_holds(self, monkeypatch):
        """Z^3 at t = 4.001, eps = 0.02 holds on a budget of 200 shells:
        its upper sum reaches the tail target at shell 151.  The majorant
        tail was still above it at shell 200, and the check inconclusive."""
        monkeypatch.setattr(fourier, "_MAX_POINTS", 401 ** 3 - 1)
        assert fourier._max_cutoff(3) == 200
        res = sandwich_check(identity_basis(3), 4.001, 0.02)
        assert (res.status, res.lower_rule, res.upper_rule) == (
            "holds", "margin", "target")
        assert res.cutoff == 151
        assert res.upper_tail < 1e-3

    @pytest.mark.parametrize("n", [2, 3])
    def test_float_and_array_give_the_same_bits(self, n):
        """The envelope and the power gap agree bit for bit between a
        float and the same value in an array, which the table and its
        per-shell oracle rely on."""
        rng = np.random.default_rng(17)
        s = np.exp(rng.uniform(-3.0, 8.0, 2000))
        assert np.array_equal(_ball_envelope(n, s),
                              [_ball_envelope(n, float(x)) for x in s])
        g, d = 1.0 + s, rng.uniform(0.0, 2.0, s.size)
        assert np.array_equal(_power_gap(g, d, n),
                              [_power_gap(float(x), float(y), n)
                               for x, y in zip(g, d)])


class TestSmoothedCount:
    def test_tail_covers_cutoff_gap(self):
        b = identity_basis(3)
        [c1, c2] = [_poisson_sums(b, (4.001,), 0.05, c)[0] for c in (40, 80)]
        assert abs(c2.value - c1.value) <= c1.tail

    def test_bracketed_by_shifted_counts(self):
        b = identity_basis(3)
        eps = 0.05
        shift = math.sqrt(3.0) * eps
        [sm] = _poisson_sums(b, (4.001,), eps, 80)
        lo = count_points(b, 4.001 - shift)
        hi = count_points(b, 4.001 + shift)
        assert lo - 2e-3 <= sm.value <= hi + 2e-3

    def test_large_epsilon_kills_remainder(self):
        b = identity_basis(3)
        [sm] = _poisson_sums(b, (4.001,), 10.0, 60)
        volume = 4.0 * math.pi / 3.0 * 4.001 ** 3
        assert abs(sm.value - volume) < 1e-3

    def test_epsilon_convergence(self):
        b = identity_basis(2)
        t = 2.503
        exact = count_points(b, t)
        last = None
        for eps in (0.2, 0.1, 0.05):
            [sm] = _poisson_sums(b, (t,), eps, 400)
            last = abs(sm.value - exact)
        assert last < 0.5

    def test_margins_need_one_per_radius(self):
        with pytest.raises(ValueError, match="one function per radius"):
            _poisson_sums(identity_basis(2), (2.5,), 0.1, 3,
                          (lambda v: 1.0, lambda v: 1.0))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, monkeypatch, t):
        """A NaN or infinite radius would sum every shell to the cutoff;
        the sandwich refuses it before any shell."""
        def no_shells(*args):
            raise AssertionError("a Poisson shell was built")

        monkeypatch.setattr(fourier, "_block", no_shells)
        with pytest.raises(ValueError, match="finite"):
            sandwich_check(identity_basis(3), t, 0.1)

    def test_tail_warning_flag(self):
        """Cut off far too early, the proven tail says so."""
        [sm] = _poisson_sums(identity_basis(3), (4.001,), 0.01, 2)
        assert sm.tail > 0.5


class TestSandwich:
    def test_z3_case(self):
        res = sandwich_check(identity_basis(3), 3.001, 0.1)
        assert res.status == "holds"
        assert res.holds is True
        assert res.lower <= res.count + res.lower_tail
        assert res.count <= res.upper + res.upper_tail

    def test_z2_case(self):
        res = sandwich_check(identity_basis(2), 2.5, 0.2)
        assert res.status == "holds"

    def test_margin_rule_proves_the_bracket(self):
        res = sandwich_check(identity_basis(3), 3.001, 0.1)
        assert (res.lower_rule, res.upper_rule) == ("margin", "margin")
        assert res.count - res.lower > res.lower_tail
        assert res.upper - res.count > res.upper_tail

    def test_zero_margins_fall_back_to_target(self):
        """No point of Z^2 has its norm within 2 shifts of t = 2.5 (the
        nearest are sqrt 5 and sqrt 8), so both smoothed counts equal the
        count and only the tail target can stop them."""
        res = sandwich_check(identity_basis(2), 2.5, 0.05)
        assert (res.status, res.lower_rule, res.upper_rule) == (
            "holds", "target", "target")
        assert abs(res.lower - res.count) <= res.lower_tail < 1e-3
        assert abs(res.upper - res.count) <= res.upper_tail < 1e-3

    def test_dimension_without_closed_form_refused_before_counting(
            self, monkeypatch):
        """hat_chi_ball has closed forms for n = 2 and 3 only, so a Z^4
        check is refused before its exact count, whose cost grows like
        t^4."""
        def no_count(*args):
            raise AssertionError("the exact count was made")

        monkeypatch.setattr(fourier, "count_points", no_count)
        with pytest.raises(ValueError, match="n in {2, 3}"):
            sandwich_check(identity_basis(4), 300.0, 0.1)

    def test_wrong_count_is_violated(self, monkeypatch):
        """A count two too low sits two below the lower sum, far beyond a
        tail under the target: a proven violation."""
        monkeypatch.setattr(fourier, "count_points",
                            lambda basis, t: count_points(basis, t) - 2)
        res = sandwich_check(identity_basis(2), 2.5, 0.05)
        assert (res.holds, res.status) == (False, "violated")
        assert res.count - res.lower < -res.lower_tail
        assert res.lower_tail < 1e-3

    def test_cutoff_reached_is_inconclusive(self, monkeypatch):
        # (2 * 3 + 1)^2 - 1 = 48 points: shells 1..3 of n = 2
        monkeypatch.setattr(fourier, "_MAX_POINTS", 48)
        res = sandwich_check(identity_basis(2), 2.5, 0.05)
        assert (res.holds, res.status, res.cutoff) == (None, "inconclusive",
                                                       3)
        assert (res.lower_rule, res.upper_rule) == (None, None)

    def test_cutoff_is_a_point_budget(self):
        """n = 2 reaches shell 10 000; n = 3, whose shells hold about
        24 c^2 points each, stops at shell 367 on the same budget."""
        assert (fourier._max_cutoff(2), fourier._max_cutoff(3)) == (10_000,
                                                                   367)

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
    """Neither `import latticeball` nor an n = 2 sandwich check and
    transform load scipy, whose import costs about 0.3 s and 25 MB."""
    src = str(Path(latticeball.__file__).resolve().parents[1])
    probe = (
        "import sys, latticeball\n"
        "from latticeball import fourier\n"
        "loaded = ['scipy' in sys.modules]\n"
        "b = latticeball.LatticeBasis([[0.9, -0.15], [0.2, 1.1]])\n"
        "assert fourier.sandwich_check(b, 2.6, 0.25).status == 'holds'\n"
        "fourier.hat_chi_ball(2, [0.0, 5e-4, 0.3, 7.0, 4e3])\n"
        "loaded.append('scipy' in sys.modules)\n"
        "print(loaded)\n")
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "[False, False]"
