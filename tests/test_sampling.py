import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latticeball
from latticeball import sampling
from latticeball.basis import LatticeBasis, SingularBasisError
from latticeball.counting import count_many
from latticeball.sampling import (
    SIEGEL_RATIO,
    CompactFamilySpec,
    HaarSamplerConfig,
    Seed,
    rng_for,
    sample_compact,
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

    def test_key_range_ends(self):
        top = 2 ** 64 - 1
        a = rng_for(Seed(top, top)).uniform(size=8)
        b = rng_for(Seed(0, top)).uniform(size=8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [Seed(5, 2 ** 64 - 1).child(1),
                                      Seed(2 ** 64, 0), Seed(-1, 0),
                                      Seed(5, -1)])
    def test_out_of_range_seed_refused(self, seed):
        # reduced modulo 2**64, Seed(5, 2**64 - 1).child(1) would draw
        # exactly what Seed(5, 0) draws
        with pytest.raises(ValueError):
            rng_for(seed)


# keys at both ends of each word's range, as rng_for passes them to Philox
_KEYS = [(0, 0), (12345, 7), (2 ** 64 - 1, 2 ** 63 + 3), (5, 2 ** 64 - 1)]


class TestGenerator:
    @staticmethod
    def _draws(gen):
        return (gen.bit_generator.random_raw(7).tolist(),
                gen.uniform(-0.5, 0.5, 5).tolist(),
                gen.exponential(0.5, 5).tolist(),
                gen.standard_normal(9).tolist())

    @pytest.mark.parametrize("master, stream", _KEYS)
    def test_stream_is_philox_keyed_by_seed(self, master, stream):
        key = np.array([master, stream], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key))
        assert self._draws(rng_for(Seed(master, stream))) == self._draws(ref)

    def test_generators_of_one_seed_share_nothing(self):
        a, b = rng_for(Seed(9, 4)), rng_for(Seed(9, 4))
        assert a.bit_generator is not b.bit_generator
        # drawn interleaved, neither generator advances the other
        xs, ys = [], []
        for _ in range(4):
            xs.append(self._draws(a))
            ys.append(self._draws(b))
        assert xs == ys

    def test_import_leaves_numpy_random_unloaded(self):
        """rng_for builds its seed-sequence type on first use, so
        `import latticeball` does not load numpy.random."""
        src = str(Path(latticeball.__file__).resolve().parents[1])
        probe = ("import sys, latticeball; "
                 "print('numpy.random' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.stdout.strip() == "False"


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

    def test_det_floor_above_hadamard_bound_refused(self):
        # columns (1.1, 0.1) and (-0.1, 1.1) of the box are orthogonal, so
        # the largest |det| is the bound 1.1^2 + 0.1^2 itself
        bound = 1.1 ** 2 + 0.1 ** 2
        with pytest.raises(ValueError, match="det_floor"):
            CompactFamilySpec(center=np.eye(2), delta=0.1,
                              det_floor=bound * (1.0 + 1e-9))
        CompactFamilySpec(center=np.eye(2), delta=0.1,
                          det_floor=bound * (1.0 - 1e-9))
        spec = CompactFamilySpec(center=np.eye(2), delta=0.1,
                                 det_floor=0.99 * bound)
        for i in range(2):
            assert abs(sample_compact(spec, Seed(6, i)).det) >= 0.99 * bound

    def test_overflowing_hadamard_bound_refused(self):
        """A delta whose box's Hadamard bound overflows is refused by
        name, without a numpy warning."""
        with pytest.raises(ValueError, match="delta 1e\\+300 too large"):
            CompactFamilySpec(center=np.eye(2), delta=1e300, det_floor=0.3)
        CompactFamilySpec(center=np.eye(2), delta=1e150, det_floor=0.3)

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


class TestHaar3d:
    config = HaarSamplerConfig(n=3)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_other_dimensions_refused(self, n):
        with pytest.raises(ValueError, match="n = 3"):
            HaarSamplerConfig(n=n)

    def test_unit_determinant(self):
        for i in range(100):
            X = sample_haar_unimodular(self.config, Seed(8, i))
            assert abs(X.det - 1.0) < 1e-12

    def test_diagonal_ratios_respect_siegel_floor(self):
        X = np.stack([sample_haar_unimodular(self.config, Seed(8, i)).entries
                      for i in range(200)])
        R = np.linalg.qr(X, mode="r")
        for b in np.abs(np.diagonal(R, axis1=-2, axis2=-1)):
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


def _lapack_reference(seed):
    """The basis K A N built with numpy's QR and matrix products from the
    same draws, in the same order, as sample_haar_unimodular, then nine
    Gaussians more for a Haar rotation K; returns K and the basis
    entries."""
    gen = rng_for(seed)
    s_min = math.log(SIEGEL_RATIO)
    s1 = s_min + gen.exponential(0.5)
    s2 = s_min + gen.exponential(0.5)
    v1 = (4.0 * s1 + 2.0 * s2) / 3.0
    v2 = (2.0 * s2 - 2.0 * s1) / 3.0
    a = np.array([math.exp(v1), math.exp(v2), math.exp(-v1 - v2)])
    eta = gen.uniform(-0.5, 0.5, 3)
    N = np.array([[1.0, eta[0], eta[1]],
                  [0.0, 1.0, eta[2]],
                  [0.0, 0.0, 1.0]])
    Q, R = np.linalg.qr(gen.standard_normal((3, 3)))
    K = Q * np.sign(np.diag(R))
    if np.linalg.det(K) < 0:
        K[:, 0] = -K[:, 0]
    X = K @ np.diag(1.0 / np.sqrt(a)) @ N
    X[:, -1] /= np.linalg.det(X)
    return K, X


class TestScalarConstruction:
    """The sampler's entry-by-entry construction (A N and its diagonal
    determinant, over a block of draws) against numpy's QR and matrix
    products on the same variates, which also draw the rotation K."""

    def test_upper_triangular_positive_diagonal(self):
        config = HaarSamplerConfig(n=3)
        for i in range(2000):
            X = sample_haar_unimodular(config, Seed(30, i)).entries
            assert np.array_equal(np.tril(X, -1), np.zeros((3, 3))), i
            assert np.all(np.diag(X) > 0.0), i

    @pytest.mark.parametrize("n", [3])
    def test_basis_matches_reference(self, n):
        config = HaarSamplerConfig(n=n)
        for i in range(2000):
            X = sample_haar_unimodular(config, Seed(30, i)).entries
            K, X_ref = _lapack_reference(Seed(30, i))
            G, G_ref = X.T @ X, X_ref.T @ X_ref
            scale = np.max(np.abs(G_ref))
            assert np.max(np.abs(G - G_ref)) <= 1e-12 * scale, i
            # the same lattice, rotated by the K the sampler leaves out
            scale = np.max(np.abs(X_ref))
            assert np.max(np.abs(K @ X - X_ref)) <= 1e-12 * scale, i

    @pytest.mark.parametrize("n", [3])
    def test_counts_match_reference(self, n):
        config = HaarSamplerConfig(n=n)
        seeds = [Seed(31, i) for i in range(20_000)]
        bases = [sample_haar_unimodular(config, s) for s in seeds]
        refs = [LatticeBasis(_lapack_reference(s)[1]) for s in seeds]
        for t in (0.6, 2.0, 8.0):
            assert np.array_equal(count_many(bases, t), count_many(refs, t)), t


# the draws Seed(m, i), m in _MASTERS, i < _STREAMS, master by master
_MASTERS = (1, 7, 134)
_STREAMS = 20_000
# sha256 over their entries' bytes in that order, drawn as A N; they
# count as the K A N draws of the rotating sampler before them did
_DRAWS_SHA256 = ("0f74858cd502f40bb4deb75b95aaecb4"
                 "672d6328a2fa058895d69c4a8481e875")
# streams the other orders ask for: past every block boundary up to the
# cap (blocks start at streams 0, 1, 3, 7, ..., 255 and 511)
_REORDERED = 600


@functools.cache
def _sequential_draws() -> dict:
    """(master, stream) -> entries bytes, drawn in sequential order on
    one config."""
    config = HaarSamplerConfig(n=3)
    return {(m, i): sample_haar_unimodular(config, Seed(m, i)).entries
            .tobytes() for m in _MASTERS for i in range(_STREAMS)}


def _draw_bytes(config, m, i):
    return sample_haar_unimodular(config, Seed(m, i)).entries.tobytes()


class TestDrawAhead:
    """Draws come a block of consecutive streams at a time, and each is
    still a pure function of its seed, whatever the order of calls."""

    def test_sequential_draws_pinned(self):
        h = hashlib.sha256()
        for draw in _sequential_draws().values():
            h.update(draw)
        assert h.hexdigest() == _DRAWS_SHA256

    def test_reversed_order(self):
        config = HaarSamplerConfig(n=3)
        ref = _sequential_draws()
        for m in reversed(_MASTERS):
            for i in reversed(range(_REORDERED)):
                assert _draw_bytes(config, m, i) == ref[m, i], (m, i)

    def test_masters_interleaved(self):
        config = HaarSamplerConfig(n=3)
        ref = _sequential_draws()
        for i in range(_REORDERED):
            for m in _MASTERS:
                assert _draw_bytes(config, m, i) == ref[m, i], (m, i)

    def test_fresh_config_per_call(self):
        ref = _sequential_draws()
        for m in _MASTERS:
            for i in range(_REORDERED):
                draw = _draw_bytes(HaarSamplerConfig(n=3), m, i)
                assert draw == ref[m, i], (m, i)

    def test_block_state_is_not_a_setting(self):
        config = HaarSamplerConfig(n=3)
        for i in range(10):
            sample_haar_unimodular(config, Seed(2, i))
        assert config == HaarSamplerConfig(n=3)
        assert hash(config) == hash(HaarSamplerConfig(n=3))
        assert repr(config) == "HaarSamplerConfig(n=3)"

    def test_failed_check_raises_at_its_own_stream(self, monkeypatch):
        # stream 5 is drawn ahead, in the block of streams 3 to 6 that
        # the call for stream 3 builds
        ref = [_draw_bytes(HaarSamplerConfig(n=3), 4, i) for i in range(7)]
        target = np.frombuffer(ref[5]).reshape(3, 3)
        real_det = np.linalg.det
        stacks = []

        def det(a):
            stacks.append(len(a))
            hit = np.all(a == target, axis=(-2, -1))
            return np.where(hit, 0.0, real_det(a))

        monkeypatch.setattr(np.linalg, "det", det)
        config = HaarSamplerConfig(n=3)
        for i in range(5):
            assert _draw_bytes(config, 4, i) == ref[i], i
        assert stacks == [1, 2, 4]
        with pytest.raises(SingularBasisError, match="below guard"):
            sample_haar_unimodular(config, Seed(4, 5))
        assert _draw_bytes(config, 4, 6) == ref[6]
        assert stacks == [1, 2, 4]

    def test_run_stops_below_key_range(self, monkeypatch):
        real_rng_for = sampling.rng_for
        streams = []

        def rng_for(seed):
            streams.append(seed.stream)
            return real_rng_for(seed)

        monkeypatch.setattr(sampling, "rng_for", rng_for)
        config = HaarSamplerConfig(n=3)
        first = Seed(9, 2 ** 64 - 3)
        draws = [sample_haar_unimodular(config, first.child(i))
                 for i in range(3)]
        assert all(isinstance(X, LatticeBasis) for X in draws)
        assert streams == [2 ** 64 - 3, 2 ** 64 - 2, 2 ** 64 - 1]
        for i, X in enumerate(draws):
            alone = sample_haar_unimodular(HaarSamplerConfig(n=3),
                                           first.child(i))
            assert X.entries.tobytes() == alone.entries.tobytes()
        with pytest.raises(ValueError, match="2\\*\\*64"):
            sample_haar_unimodular(config, first.child(3))
