import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from latticeball import oscillatory
from latticeball.oscillatory import (
    I_kl,
    OscillatorySpec,
    ResolutionError,
    _VDC_GRID_POINTS,
    _leggauss,
    _panels,
    _pushforward_value,
    _trapezoids,
    discriminant,
    hessian_bound_check,
    vdc_check,
)

UNIT_BOX3 = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])


def spec3(k, l, signs=(1, -1), eta=(0.3, -0.2, 0.5), box=UNIT_BOX3):
    return OscillatorySpec(n=3, k=np.asarray(k, float),
                           l=np.asarray(l, float), signs=signs,
                           eta=np.asarray(eta, float),
                           psi_intervals=np.asarray(box, float))


def spec2(k=(1, 1), l=(1, -1), signs=(1, 1), eta=(0.25,)):
    return OscillatorySpec(n=2, k=np.asarray(k, float),
                           l=np.asarray(l, float), signs=signs,
                           eta=np.asarray(eta, float),
                           psi_intervals=np.array([[1.0, 2.0], [1.0, 2.0]]))


# The pointwise phase and weight, written from their definitions: the
# references that the quadrature tests integrate.


def phase(spec: OscillatorySpec, a) -> float:
    """Phi(a) for a point of the diagonal coordinate box."""
    a = np.asarray(a, dtype=float)
    if a.shape != (spec.n,):
        raise ValueError(f"expected a point of length {spec.n}")
    if np.any(a <= 0):
        raise ValueError("diagonal coordinates must be positive")
    kt, lt = spec.transformed()
    s1, s2 = spec.signs
    return float(s1 * math.sqrt(float(a @ kt ** 2))
                 + s2 * math.sqrt(float(a @ lt ** 2)))


def weight(spec: OscillatorySpec, a) -> float:
    """Box-supported weight (|k|/|k|_AN)^p (|l|/|l|_AN)^p."""
    a = np.asarray(a, dtype=float)
    if a.shape != (spec.n,):
        raise ValueError(f"expected a point of length {spec.n}")
    box = spec.psi_intervals
    if np.any(a < box[:, 0]) or np.any(a > box[:, 1]):
        return 0.0
    kt, lt = spec.transformed()
    p = spec.weight_exponent
    qk = float(a @ kt ** 2)
    ql = float(a @ lt ** 2)
    nk = float(spec.k @ spec.k)
    nl = float(spec.l @ spec.l)
    return (nk / qk) ** (p / 2.0) * (nl / ql) ** (p / 2.0)


def dense_value(spec, t, ms):
    """The tensor Gauss-Legendre sum over the box written from the
    definition, with ms[i] nodes on axis i, one slice of the grid across
    the first axis at a time."""
    kt, lt = spec.transformed()
    box = spec.psi_intervals
    p = spec.weight_exponent
    axes, weights = [], []
    for i, m in enumerate(ms):
        x, w = np.polynomial.legendre.leggauss(m)
        half = (box[i, 1] - box[i, 0]) / 2.0
        axes.append(box[i, 0] + half * (x + 1.0))
        weights.append(half * w)
    rest = np.meshgrid(*axes[1:], indexing="ij")
    rest_weight = np.prod(np.meshgrid(*weights[1:], indexing="ij"), axis=0)
    s1, s2 = spec.signs
    total = 0j
    for a0, w0 in zip(axes[0], weights[0]):
        qk = kt[0] ** 2 * a0 + sum(kt[i] ** 2 * rest[i - 1]
                                   for i in range(1, spec.n))
        ql = lt[0] ** 2 * a0 + sum(lt[i] ** 2 * rest[i - 1]
                                   for i in range(1, spec.n))
        amp = ((spec.k @ spec.k) / qk) ** (p / 2) \
            * ((spec.l @ spec.l) / ql) ** (p / 2)
        phase = 2.0 * math.pi * t * (s1 * np.sqrt(qk) + s2 * np.sqrt(ql))
        total += complex(np.sum(w0 * rest_weight * amp * np.exp(1j * phase)))
    return total


def dense_reference(spec, t):
    """dense_value on enough nodes per axis to be exact to rounding: 24
    plus 6 per cycle of the phase along the axis, the cycles bounded
    through the phase gradient at the box's lower corner."""
    kt, lt = spec.transformed()
    box = spec.psi_intervals
    min_k = math.sqrt(float(box[:, 0] @ kt ** 2))
    min_l = math.sqrt(float(box[:, 0] @ lt ** 2))
    grad = kt ** 2 / (2.0 * min_k) + lt ** 2 / (2.0 * min_l)
    cycles = t * grad * (box[:, 1] - box[:, 0])
    return dense_value(spec, t, [24 + math.ceil(6.0 * c) for c in cycles])


def panel_sum(spec, geom, t, px, py, m):
    """The panel rule of _pushforward_value written from the definition:
    for each trapezoid, the product Gauss-Legendre rule on its px x py
    panels in (xi, eta), with every node at once."""
    x, w = np.polynomial.legendre.leggauss(m)
    x, w = (x + 1.0) / 2.0, w / 2.0
    g = geom
    p = spec.weight_exponent
    s1, s2 = spec.signs
    total = 0j
    for i in range(len(g.ua)):
        xi = ((np.arange(px[i])[:, None] + x) / px[i]).ravel()
        eta = ((np.arange(py[i])[:, None] + x) / py[i]).ravel()
        w_xi = np.tile(w / px[i], px[i])
        w_eta = np.tile(w / py[i], py[i])
        xi, eta = np.meshgrid(xi, eta, indexing="ij")
        h = g.h[i] + xi * g.dh[i]
        u = g.ua[i] + xi * g.du[i]
        v = g.lo[i] + xi * g.dlo[i] + eta * h
        qk, ql = u, g.rho * u + g.sigma * v
        density = g.f0[i] + xi * g.fx[i] + eta * g.fv[i] * h
        amp = ((spec.k @ spec.k) / qk) ** (p / 2) \
            * ((spec.l @ spec.l) / ql) ** (p / 2)
        phase = 2.0 * math.pi * t * (s1 * np.sqrt(qk) + s2 * np.sqrt(ql))
        area = np.outer(w_xi, w_eta) * g.du[i] * h
        total += complex(np.sum(area * density * amp * np.exp(1j * phase)))
    return total


class TestSpecValidation:
    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            spec3([0, 0, 0], [1, 0, 0])

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            spec3([1, 0, 0], [0, 1, 0], signs=(2, 1))

    def test_interval_orientation(self):
        with pytest.raises(ValueError):
            spec3([1, 0, 0], [0, 1, 0],
                  box=[[1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["k", "l", "eta", "psi_intervals"])
    def test_non_finite_entries_rejected(self, field, bad):
        fields = dict(n=3, k=[1.0, 2.0, 1.0], l=[2.0, -1.0, 1.0],
                      signs=(1, -1), eta=[0.3, -0.2, 0.5],
                      psi_intervals=UNIT_BOX3.copy())
        fields[field] = np.array(fields[field], dtype=float)
        fields[field].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OscillatorySpec(**fields)

    def test_positive_left_endpoints(self):
        with pytest.raises(ValueError):
            spec3([1, 0, 0], [0, 1, 0],
                  box=[[0.0, 2.0], [1.0, 2.0], [1.0, 2.0]])


class TestPhase:
    def test_equal_frequencies_opposite_signs_cancel(self):
        s = spec3([1, 2, 1], [1, 2, 1], signs=(1, -1))
        for a in ([1.0, 1.0, 1.0], [1.3, 1.9, 1.1]):
            assert phase(s, np.array(a)) == pytest.approx(0.0, abs=1e-15)

    def test_equal_frequencies_same_signs_double(self):
        s = spec3([1, 2, 1], [1, 2, 1], signs=(1, 1))
        a = np.array([1.3, 1.9, 1.1])
        kt = s.transformed()[0]
        expected = 2.0 * math.sqrt(float(a @ kt ** 2))
        assert phase(s, a) == pytest.approx(expected, rel=1e-14)

    def test_hand_value_on_axis_vector(self):
        s = spec3([1, 0, 0], [1, 0, 0], signs=(1, 1),
                  eta=(0.0, 0.0, 0.0), box=[[1, 5], [1, 2], [1, 2]])
        assert phase(s, np.array([4.0, 1.0, 1.0])) == pytest.approx(4.0)

    def test_depends_on_k_only_through_ktilde(self):
        s = spec3([2, 3, -1], [1, 1, 2], eta=(1.1, 1.7, 1.4))
        kt, lt = s.transformed()
        s0 = spec3(kt, lt, eta=(0.0, 0.0, 0.0))
        a = np.array([1.2, 1.8, 1.4])
        assert phase(s, a) == pytest.approx(phase(s0, a), abs=1e-12)


class TestWeight:
    def test_outside_box_is_zero(self):
        s = spec3([1, 2, 1], [2, -1, 1])
        assert weight(s, np.array([0.5, 1.5, 1.5])) == 0.0
        assert weight(s, np.array([1.5, 1.5, 2.5])) == 0.0

    def test_unit_at_unit_scale(self):
        s = spec3([2, 1, 2], [2, 1, 2], eta=(0.0, 0.0, 0.0))
        assert weight(s, np.array([1.0, 1.0, 1.0])) == pytest.approx(1.0)

    def test_bounded_above_and_below_on_box(self, rng):
        for _ in range(30):
            k = rng.integers(-4, 5, 3)
            l = rng.integers(-4, 5, 3)
            if not k.any() or not l.any():
                continue
            s = spec3(k, l, eta=tuple(rng.uniform(1.0, 2.0, 3)))
            grid = np.linspace(1.0, 2.0, 7)
            vals = [weight(s, np.array([x, y, z]))
                    for x in grid for y in grid for z in grid]
            assert min(vals) > 0.0
            assert max(vals) < 1e4


class TestIkl:
    def test_static_integral_is_weight_mass(self):
        s = spec3([1, 2, 1], [2, -1, 1])
        val = I_kl(s, 0.0)
        assert abs(val.imag) < 1e-14
        assert val.real > 0.0
        ref, _ = integrate.tplquad(
            lambda a3, a2, a1: weight(s, np.array([a1, a2, a3])),
            1.0, 2.0, 1.0, 2.0, 1.0, 2.0, epsabs=1e-11, epsrel=1e-11)
        assert val.real == pytest.approx(ref, abs=1e-9)

    def test_zero_phase_constant_in_t(self):
        s = spec3([1, 2, 1], [1, 2, 1], signs=(1, -1))
        base = I_kl(s, 0.0)
        for t in (3.0, 17.0):
            assert I_kl(s, t) == pytest.approx(base, abs=1e-10)

    def test_conjugate_symmetry(self):
        s = spec3([1, 2, 1], [2, -1, 1], signs=(1, -1))
        sc = spec3([1, 2, 1], [2, -1, 1], signs=(-1, 1))
        a = I_kl(s, 7.3, points_per_period=10.0)
        b = I_kl(sc, 7.3, points_per_period=10.0)
        assert a == pytest.approx(np.conj(b), abs=1e-12)

    def test_modulus_bounded_by_mass(self):
        s = spec3([1, 2, 1], [2, -1, 1])
        mass = I_kl(s, 0.0).real
        for t in (2.0, 8.0):
            assert abs(I_kl(s, t, points_per_period=10.0)) <= mass + 1e-9

    def test_two_resolutions_agree(self):
        s = spec3([1, 1, 0], [1, 2, 1], eta=(1.0, 1.0, 1.0))
        a = I_kl(s, 8.0, points_per_period=10.0)
        b = I_kl(s, 8.0, points_per_period=25.0)
        assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("ppp", [0.0, -5.0, math.nan, math.inf])
    def test_bad_points_per_period_rejected(self, monkeypatch, ppp):
        def no_rule(*args):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(oscillatory, "_trapezoids", no_rule)
        s = spec3([1, 2, 1], [2, -1, 1])
        with pytest.raises(ValueError, match="points_per_period"):
            I_kl(s, 8.0, points_per_period=ppp)

    def test_grid_shape(self):
        """A 2-d array of t gives a complex array of its shape, each entry
        the scalar call's bit for bit; an empty grid is refused."""
        s = spec3([1, 2, 1], [2, -1, 1])
        grid = np.array([[0.0, 4.0, 8.0], [2.0, 4.0, 1.5]])
        vals = I_kl(s, grid, points_per_period=10.0)
        assert vals.shape == grid.shape and vals.dtype == complex
        for t, v in zip(grid.ravel(), vals.ravel()):
            assert v == I_kl(s, float(t), points_per_period=10.0)
        assert type(I_kl(s, 4.0, points_per_period=10.0)) is complex
        with pytest.raises(ValueError, match="at least one"):
            I_kl(s, np.zeros((0, 3)))

    def test_resolution_budget_error(self):
        # refused from the panel counts, before any node is allocated, and
        # without overflow where the counts are too large for a float
        s = spec3([1, 2, 1], [2, -1, 1])
        for t in (1e6, 1e300):
            with pytest.raises(ResolutionError):
                I_kl(s, t)

    def test_two_dimensional_case(self):
        s = OscillatorySpec(n=2, k=np.array([1.0, 1.0]),
                            l=np.array([1.0, -1.0]), signs=(1, 1),
                            eta=np.array([0.25]),
                            psi_intervals=np.array([[1.0, 2.0], [1.0, 2.0]]))
        val = I_kl(s, 0.0)
        assert abs(val.imag) < 1e-14

        def w(a1, a2):
            return weight(s, np.array([a1, a2]))

        ref, _ = integrate.dblquad(lambda a2, a1: w(a1, a2),
                                   1.0, 2.0, 1.0, 2.0,
                                   epsabs=1e-11, epsrel=1e-11)
        assert val.real == pytest.approx(ref, abs=1e-9)


class TestTensorKernel:
    """The blocked quarter-turn sum of _pushforward_value against the
    product Gauss-Legendre rule on each trapezoid's panels summed
    directly."""

    @pytest.mark.parametrize("n, block", [
        (3, None),
        (3, 127),
        (2, None),
        (2, 97),
    ], ids=["n3-one-block", "n3-small-odd-blocks", "n2-one-block",
            "n2-small-odd-blocks"])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("t", [1.0, 17.0, 200.0])
    def test_matches_dense_sum(self, monkeypatch, n, block, signs, t):
        if n == 3:
            s = spec3([1, 2, 1], [2, -1, 1], signs=signs)
        else:
            s = spec2(signs=signs)
        geom = _trapezoids(s)
        ppp = 1.0 if n == 3 else 2.0
        px, py = (a.astype(np.int64) for a in _panels(geom, t, ppp))
        for m in (oscillatory._COARSE_ORDER, oscillatory._FINE_ORDER):
            if block is None:
                # each group of trapezoids in a single block
                monkeypatch.setattr(oscillatory, "_BLOCK",
                                    m * m * int(np.sum(px * py)))
            else:
                # blocks end mid-trapezoid, and at t = 200 mid-column
                monkeypatch.setattr(oscillatory, "_BLOCK", block)
                assert any(block % (m * q) for q in py)
                assert t < 200.0 or m * max(py) > block
            box_vol = float(np.prod(np.diff(s.psi_intervals, axis=1)))
            ref = panel_sum(s, geom, t, px, py, m)
            val = _pushforward_value(s, geom, t, px, py, m)
            assert abs(val - ref) <= 1e-12 * box_vol

    def test_bounded_memory(self):
        # 6e6 nodes, 90 MB as one array of doubles
        s = spec2()
        tracemalloc.start()
        try:
            I_kl(s, 200.0, points_per_period=10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestLeggauss:
    @pytest.mark.parametrize("m", [8, 12, 32])
    def test_cached_rule_is_numpys_read_only(self, m):
        assert m in (oscillatory._COARSE_ORDER, oscillatory._FINE_ORDER,
                     oscillatory._VDC_ORDER)
        nodes, weights = _leggauss(m)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(m)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)
        assert not nodes.flags.writeable and not weights.flags.writeable
        again = _leggauss(m)
        assert again[0] is nodes and again[1] is weights


ETA3 = (0.3, -0.2, 0.5)
ETA2 = (0.25,)
# (n, k, l, eta) for each case, keyed by its test id: a generic pair,
# l = +-k, 2k, 3k (l = 2k makes L - rho K exactly 0, l = 3k leaves a
# rounding residue), and axis vectors whose K and L share a zero entry,
# which makes a generator of the image zero
PAIRS = {
    "n3-generic": (3, (1, 2, 1), (2, -1, 1), ETA3),
    "n3-equal": (3, (1, 2, 1), (1, 2, 1), ETA3),
    "n3-opposite": (3, (1, 2, 1), (-1, -2, -1), ETA3),
    "n3-double": (3, (1, 2, 1), (2, 4, 2), ETA3),
    "n3-triple": (3, (1, 2, 1), (3, 6, 3), ETA3),
    "n3-axes": (3, (0, 0, 1), (0, 1, 0), ETA3),
    "n3-axes-flat": (3, (1, 0, 0), (0, 1, 0), (0.0, 0.0, 0.0)),
    "n2-generic": (2, (1, 1), (1, -1), ETA2),
    "n2-equal": (2, (1, 2), (1, 2), ETA2),
    "n2-opposite": (2, (1, 2), (-1, -2), ETA2),
    "n2-double": (2, (1, 2), (2, 4), ETA2),
    "n2-triple": (2, (1, 2), (3, 6), ETA2),
    "n2-axes": (2, (0, 1), (0, 1), ETA2),
}
# l = k + d v for d down to 0, against the dense rule on the box
NEAR_PARALLEL = {
    f"n{n}-d{d:g}": (n, k, tuple(np.add(k, np.multiply(d, v))), eta)
    for n, k, v, eta in ((3, (1, 2, 1), (1, -1, 2), ETA3),
                         (2, (1, 2), (1, -1), ETA2))
    for d in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 0.0)
}


def make_spec(case, signs=(1, -1), width=0.25):
    n, k, l, eta = case
    lo = np.array([1.0, 1.1, 1.05][:n])
    return OscillatorySpec(n=n, k=np.asarray(k, float),
                           l=np.asarray(l, float), signs=signs,
                           eta=np.asarray(eta, float),
                           psi_intervals=np.stack([lo, lo + width], axis=1))


class TestTrapezoids:
    @pytest.mark.parametrize("case", {**PAIRS, **NEAR_PARALLEL}.values(),
                             ids=[*PAIRS, *NEAR_PARALLEL])
    def test_density_integrates_to_box_volume(self, case):
        s = make_spec(case, width=1.0)
        g = _trapezoids(s)
        # area times mean density of each trapezoid: a cubic in xi, which
        # two Gauss-Legendre nodes integrate exactly
        xi = (1.0 + np.array([-1.0, 1.0]) / math.sqrt(3.0))[:, None] / 2.0
        h = g.h + xi * g.dh
        mass = np.sum(g.du * h * (g.f0 + xi * g.fx + g.fv * h / 2.0)) / 2.0
        box_vol = float(np.prod(np.diff(s.psi_intervals, axis=1)))
        assert mass == pytest.approx(box_vol, rel=1e-13)
        assert np.all(g.du > 0.0)


class TestAgainstDense:
    """I_kl against the tensor Gauss-Legendre rule over the box."""

    @pytest.mark.parametrize("case", PAIRS.values(), ids=PAIRS)
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("t", [1.0, 8.0, 32.0])
    def test_population(self, case, signs, t):
        s = make_spec(case, signs)
        box_vol = float(np.prod(np.diff(s.psi_intervals, axis=1)))
        val = I_kl(s, t, points_per_period=10.0)
        assert abs(val - dense_reference(s, t)) <= 1e-9 * box_vol

    @pytest.mark.parametrize("case", NEAR_PARALLEL.values(),
                             ids=NEAR_PARALLEL)
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1)])
    @pytest.mark.parametrize("t", [8.0, 32.0])
    def test_near_parallel(self, case, signs, t):
        s = make_spec(case, signs)
        box_vol = float(np.prod(np.diff(s.psi_intervals, axis=1)))
        val = I_kl(s, t, points_per_period=10.0)
        assert abs(val - dense_reference(s, t)) <= 1e-9 * box_vol


class TestDiscriminant:
    def test_equal_frequencies_vanish(self):
        d, f = discriminant([1, 2, 1], [1, 2, 1], [0.7, 0.0, 0.0])
        assert d == pytest.approx(0.0, abs=1e-15)
        assert f == pytest.approx(0.0, abs=1e-15)

    def test_hand_case(self):
        d, f = discriminant([1, 0, 0], [0, 1, 0], [1.0, 0.0, 0.0])
        assert d == pytest.approx(1.0)
        assert f == pytest.approx(1.0)

    def test_factored_equals_direct_population(self, rng):
        from latticeball.basis import transformed_coords
        for _ in range(10_000):
            k = rng.integers(-9, 10, 3)
            l = rng.integers(-9, 10, 3)
            eta = rng.uniform(1.0, 2.0, 3)
            d, f = discriminant(k, l, eta)
            kt = transformed_coords(eta, k.astype(float))
            lt = transformed_coords(eta, l.astype(float))
            # the identity cancels terms of this size, so agreement is
            # relative to the intermediates rather than the result
            scale = max(1.0, kt[0] ** 2 * lt[1] ** 2,
                        kt[1] ** 2 * lt[0] ** 2)
            assert abs(d - f) <= 1e-12 * scale


# the moduli over a t grid, from the check and from I_kl's grid form
GRID_MODULI = {
    "hessian_bound_check": lambda s, grid, **kw: list(
        hessian_bound_check(s, grid, **kw).measured),
    "I_kl": lambda s, grid, **kw: [
        abs(v) for v in I_kl(s, grid, **kw).tolist()],
}


class TestHessianBound:
    def test_report_shape_and_decay(self):
        s = spec3([1, 2, 1], [2, -1, 1])
        rep = hessian_bound_check(s, [8.0, 32.0], points_per_period=10.0)
        assert rep.t_grid == (8.0, 32.0)
        assert all(m >= 0 for m in rep.measured)
        assert all(b > 0 for b in rep.bound)
        assert rep.max_ratio == max(rep.ratios)

    @pytest.mark.parametrize("moduli", GRID_MODULI.values(), ids=GRID_MODULI)
    def test_geometry_built_once_per_check(self, monkeypatch, moduli):
        """One set of trapezoids serves the whole grid, and each value is
        I_kl's at that t, bit for bit."""
        s = spec3([1, 2, 1], [2, -1, 1])
        grid = [4.0, 8.0, 32.0]
        expected = [abs(I_kl(s, t, points_per_period=10.0)) for t in grid]
        built = []

        def counted(spec):
            built.append(spec)
            return _trapezoids(spec)

        monkeypatch.setattr(oscillatory, "_trapezoids", counted)
        measured = moduli(s, grid, points_per_period=10.0)
        assert built == [s]
        assert measured == expected

    @pytest.mark.parametrize("moduli", GRID_MODULI.values(), ids=GRID_MODULI)
    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_t_refused_before_geometry(self, monkeypatch, t,
                                                  moduli):
        def no_rule(*args):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(oscillatory, "_trapezoids", no_rule)
        s = spec3([1, 2, 1], [2, -1, 1])
        with pytest.raises(ValueError, match="finite"):
            moduli(s, [8.0, t])

    def test_zero_discriminant_guarded(self):
        s = spec3([1, 2, 1], [1, 2, 1], signs=(1, -1))
        with pytest.raises(ValueError):
            hessian_bound_check(s, [8.0, 32.0])

    def test_grid_must_increase(self):
        s = spec3([1, 2, 1], [2, -1, 1])
        with pytest.raises(ValueError):
            hessian_bound_check(s, [32.0, 8.0])

    def test_population_median_decays(self, rng):
        small, large = [], []
        trials = 0
        while len(small) < 25 and trials < 200:
            trials += 1
            k = rng.integers(-2, 3, 3)
            l = rng.integers(-2, 3, 3)
            if not k.any() or not l.any():
                continue
            eta = rng.uniform(1.0, 2.0, 3)
            d, _ = discriminant(k, l, eta)
            if abs(d) < 0.5:
                continue
            signs = (1, -1) if rng.uniform() < 0.5 else (-1, 1)
            box = np.array([[1.0, 1.4], [1.0, 1.4], [1.0, 1.4]])
            s = spec3(k, l, signs=signs, eta=tuple(eta), box=box)
            small.append(abs(I_kl(s, 4.0, points_per_period=10.0)))
            large.append(abs(I_kl(s, 32.0, points_per_period=10.0)))
        assert len(small) == 25
        assert np.median(large) <= np.median(small)


class TestVdc:
    def test_linear_phase_unit_amplitude(self):
        rep = vdc_check(lambda x: x, lambda x: np.ones_like(x),
                        0.0, 1.0, [5.0, 50.0, 500.0])
        for t, m in zip(rep.t_grid, rep.measured):
            exact = abs((np.exp(1j * t) - 1.0) / (1j * t))
            assert m == pytest.approx(exact, abs=1e-12)
        assert rep.max_ratio <= 2.0 + 1e-9
        assert rep.c0 == pytest.approx(1.0)

    def test_zero_amplitude(self):
        rep = vdc_check(lambda x: x, lambda x: np.zeros_like(x),
                        0.0, 1.0, [5.0])
        assert rep.measured[0] == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_phase_bounded_ratio(self):
        rep = vdc_check(lambda x: x * x + 3.0 * x,
                        lambda x: np.ones_like(x), 0.0, 1.0, [10.0, 100.0])
        assert rep.c0 == pytest.approx(3.0, abs=1e-3)
        assert rep.max_ratio < 2.5

    def test_non_monotone_derivative_rejected(self):
        with pytest.raises(ValueError):
            vdc_check(lambda x: np.sin(3.0 * x),
                      lambda x: np.ones_like(x), 0.0, 3.0, [5.0])

    def test_negative_derivative_rejected(self):
        with pytest.raises(ValueError):
            vdc_check(lambda x: -x, lambda x: np.ones_like(x),
                      0.0, 1.0, [5.0])

    def test_raising_callable_propagates(self):
        def scalar_only(x):
            return 2.0 * float(x)  # float() of an array raises TypeError

        with pytest.raises(TypeError):
            vdc_check(scalar_only, lambda x: np.ones_like(x), 0.0, 1.0,
                      [5.0])

    def test_wrong_shape_refused(self):
        with pytest.raises(ValueError, match="shape"):
            vdc_check(lambda x: x, lambda x: 1.0, 0.0, 1.0, [5.0])

    def test_overflowing_interval_refused(self):
        """b - a past the float range is refused before any evaluation."""
        def never(x):
            raise AssertionError("phi was evaluated")

        with pytest.raises(ValueError, match="b - a overflows"):
            vdc_check(never, never, -1e308, 1e308, [5.0])

    def test_over_budget_grid_refused_before_quadrature(self):
        """A t whose quadrature needs more than _VDC_MAX_NODES nodes is
        refused after the grid check alone, before the quadrature of any
        t allocates its nodes; vdc_cubic's largest t needs 1120."""
        shapes = []

        def phi(x):
            shapes.append(x.shape)
            return x

        with pytest.raises(ResolutionError, match="t = 1e.07 needs 1.70e"):
            vdc_check(phi, lambda x: np.ones_like(x), 0.0, 1e3,
                      [5.0, 1e7])
        assert shapes == [(_VDC_GRID_POINTS,)]

    @pytest.mark.parametrize("t", [0.0, math.inf, math.nan])
    def test_t_must_be_positive_and_finite(self, t):
        with pytest.raises(ValueError, match="positive finite"):
            vdc_check(lambda x: x, lambda x: np.ones_like(x), 0.0, 1.0, [t])

    def test_report_serializes(self):
        rep = vdc_check(lambda x: x, lambda x: np.ones_like(x),
                        0.0, 1.0, [5.0])
        d = dataclasses.asdict(rep)
        assert set(d) >= {"t_grid", "measured", "bound", "ratios",
                          "max_ratio", "c0", "total_variation"}
