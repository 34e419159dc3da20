"""Noise tests: the seeded generator against a scalar pure-Python oracle,
statistical behavior of the injected noise, and the robust sigma estimator."""

import math
import re
import threading

import numpy as np
import pytest
from oracles import color_at, same

from cfaisp import _kernel, noise
from cfaisp.cfa import CfaPattern, MosaicImage
from cfaisp.config import CONFIG_FIELDS, SIGMA
from cfaisp.imageio import DimensionError, Plane
from cfaisp.denoise import DenoiserConfig, estimate_sigma
from cfaisp.noise import NoiseSpec, add_awgn, normal_field, standard_normals
from cfaisp.pipeline import ExperimentGrid

_M64 = (1 << 64) - 1


def _splitmix_oracle(seed: int, count: int) -> list[int]:
    """Scalar SplitMix64, written independently of the vectorized version."""
    out = []
    state = seed & _M64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
        z = z ^ (z >> 31)
        out.append(z)
    return out


def _uniform_oracle(seed: int, count: int) -> list[float]:
    return [(z >> 11) * 2.0**-53 for z in _splitmix_oracle(seed, count)]


def _normals_oracle(seed: int, count: int) -> list[float]:
    pairs = (count + 1) // 2
    u = _uniform_oracle(seed, 2 * pairs)
    out = []
    for k in range(pairs):
        radius = math.sqrt(-2.0 * math.log1p(-u[2 * k]))
        theta = 2.0 * math.pi * u[2 * k + 1]
        out.append(radius * math.cos(theta))
        out.append(radius * math.sin(theta))
    return out[:count]


def _whole_array_normals(seed: int, count: int) -> np.ndarray:
    """standard_normals as whole-array expressions: every word, then every pair, at once."""
    pairs = (count + 1) // 2
    index = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
    z = np.uint64(seed) + index * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = (2.0 * np.pi) * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:count]


class TestNormalsThreads:
    """A field draws the same bytes on any number of threads."""

    # (_STRIP, _POOLED_PAIRS, count, blocks): one block, four, four and a
    # remainder of one pair, and at _STRIP = 3 seven blocks, the last of one
    # pair. None keeps the module's value.
    @pytest.mark.parametrize(
        "strip,pooled,count,blocks",
        [(None, 0, 1001, 1), (None, None, 8 * 16384, 4), (None, None, 8 * 16384 + 1, 5), (3, 6, 37, 7)],
        ids=["one-block", "several-blocks", "remainder-block", "strip-3"],
    )
    def test_thread_count_does_not_change_the_bytes(self, monkeypatch, by_cpus, strip, pooled, count, blocks):
        if strip is not None:
            monkeypatch.setattr(_kernel, "_STRIP", strip)
        if pooled is not None:
            monkeypatch.setattr(noise, "_POOLED_PAIRS", pooled)
        threads = threading.active_count()
        got = by_cpus(lambda: (standard_normals(11, count).tobytes(), normal_field(11, 1, count).tobytes(), threading.active_count()), cpus=(1, 2, 3, 4))
        assert all(result == got[1][0] for result, _ in got.values())
        assert got[1][0] == (_whole_array_normals(11, count).tobytes(),) * 2 + (threads,)
        # Each call of the pair opens one pool, of a thread per CPU and per block.
        assert [pools for _, pools in got.values()] == [(min(cpus, blocks),) * 2 if blocks > 1 and cpus > 1 else () for cpus in (1, 2, 3, 4)]

    def test_a_field_of_two_blocks_runs_on_the_calling_thread(self, by_cpus):
        # A 256^2 field is 2 _STRIP pairs, where two threads ran slower than one.
        got = by_cpus(lambda: normal_field(3, 256, 256).tobytes(), cpus=(1, 2, 4))
        assert [pools for _, pools in got.values()] == [(), (), ()]


class TestStandardNormals:
    @pytest.mark.parametrize("seed", [0, 7, _M64])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_blocks_match_the_whole_array_expressions(self, seed, extra):
        for count in (0, 1, 3, 2 * _kernel._STRIP + extra):
            assert same(standard_normals(seed, count), _whole_array_normals(seed, count)), count

    def test_many_small_blocks_match_the_whole_array_expressions(self, monkeypatch):
        monkeypatch.setattr(_kernel, "_STRIP", 3)
        for count in range(20):
            assert same(standard_normals(5, count), _whole_array_normals(5, count)), count

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 1.7, 1.0, True, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\^64\), got "):
            standard_normals(seed, 4)
        with pytest.raises(ValueError, match=r"^seed must be "):
            normal_field(seed, 2, 2)

    @pytest.mark.parametrize("count", [True, 2.5, 4.0, None])
    def test_bad_count_rejected(self, count):
        with pytest.raises(ValueError, match=r"^count must be an integer >= 0, got "):
            standard_normals(0, count)

    def test_field_memory_is_the_output_and_a_block(self, peak_bytes):
        # The whole-array expressions peaked at 3.5 planes.
        plane = 512 * 512 * 8
        assert peak_bytes(lambda: normal_field(1, 512, 512)) < 2 * plane

    def test_field_memory_is_the_output_and_a_block_at_any_thread_count(self, by_cpus, peak_bytes):
        # Each thread adds one buffer of a block's 2 _STRIP samples.
        plane = 512 * 512 * 8
        got = by_cpus(lambda: peak_bytes(lambda: normal_field(1, 512, 512)), cpus=(1, 2, 3, 4))
        assert [pools for _, pools in got.values()] == [(), (2,), (3,), (4,)]
        assert all(peak < 2 * plane for peak, _ in got.values())

    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, _M64, 12345678901234567890])
    def test_matches_scalar_oracle(self, seed):
        got = standard_normals(seed, 64)
        want = _normals_oracle(seed, 64)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_pair_structure(self):
        # Even/odd outputs are the cos/sin branches of one radius draw.
        seed = 99
        z = standard_normals(seed, 32)
        u = _uniform_oracle(seed, 32)
        radii_sq = z[0::2] ** 2 + z[1::2] ** 2
        expected = [-2.0 * math.log1p(-u[2 * k]) for k in range(16)]
        np.testing.assert_allclose(radii_sq, expected, rtol=0, atol=1e-12)

    def test_odd_count(self):
        assert standard_normals(5, 7).shape == (7,)
        np.testing.assert_array_equal(standard_normals(5, 7), standard_normals(5, 8)[:7])

    def test_determinism(self):
        np.testing.assert_array_equal(standard_normals(42, 100), standard_normals(42, 100))

    def test_seeds_differ(self):
        assert not np.array_equal(standard_normals(1, 100), standard_normals(2, 100))

    def test_moments(self):
        z = standard_normals(0, 1_000_000)
        assert abs(z.mean()) < 0.005
        assert abs(z.std() - 1.0) < 0.005
        assert abs(np.mean(np.abs(z) < 1.0) - 0.6827) < 0.005

    def test_all_finite(self):
        assert np.all(np.isfinite(standard_normals(7, 100_000)))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            standard_normals(0, -1)

    def test_field_is_row_major(self):
        field = normal_field(13, 6, 9)
        np.testing.assert_array_equal(field.ravel(), standard_normals(13, 54))


@pytest.fixture
def draws(monkeypatch):
    """The (seed, count) of each standard_normals call, counted through a wrapper."""
    calls = []
    drawn = noise.standard_normals

    def counted(seed, count):
        calls.append((seed, count))
        return drawn(seed, count)

    monkeypatch.setattr(noise, "standard_normals", counted)
    return calls


class TestKeptField:
    """normal_field keeps the last field it drew, read-only, and returns it as is."""

    def test_a_repeated_request_draws_once(self, draws):
        field = normal_field(5, 8, 6)
        assert normal_field(5, 8, 6) is field
        assert normal_field(np.uint64(5), np.int64(8), 6) is field
        assert draws == [(5, 48)]

    def test_the_field_is_read_only_and_add_awgn_leaves_it_unchanged(self, draws):
        field = normal_field(9, 8, 8)
        kept = field.tobytes()
        assert not field.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            field[0, 0] = 1.0
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.full((8, 8), 0.5)))
        for sigma in (0.02, 0.1):
            add_awgn(mosaic, NoiseSpec.uniform(sigma, seed=9))
        assert normal_field(9, 8, 8) is field
        assert field.tobytes() == kept
        assert draws == [(9, 64)]

    @pytest.mark.parametrize("other", [(2, 8, 8), (1, 8, 10)], ids=["other-seed", "other-shape"])
    def test_a_b_a_gives_a_again(self, draws, other):
        first = normal_field(1, 8, 8).tobytes()
        normal_field(*other)
        again = normal_field(1, 8, 8).tobytes()
        assert draws == [(1, 64), (other[0], other[1] * other[2]), (1, 64)]
        assert again == first == standard_normals(1, 64).tobytes()

    # A kept field of seed 1 and shape 2 x 2 must not answer these.
    @pytest.mark.parametrize(
        "args,match",
        [((1.5, 2, 2), "seed"), ((True, 2, 2), "seed"), ((-1, 2, 2), "seed"), ((1, 2.0, 2), "height"), ((1, 2, True), "width")],
        ids=["seed-1.5", "seed-True", "seed--1", "height-2.0", "width-True"],
    )
    def test_bad_arguments_raise_after_a_draw(self, args, match):
        normal_field(1, 2, 2)
        with pytest.raises(ValueError, match=rf"^{match} must be an integer"):
            normal_field(*args)


# The float rules: the noise sigma and every float field of a method config.
_FLOAT_RULES = {"sigma": SIGMA, **{name: CONFIG_FIELDS[name].rule for name in ("sigma_s", "sigma_r", "sigma_n")}}


class TestFloatRules:
    @pytest.mark.parametrize("name", _FLOAT_RULES)
    @pytest.mark.parametrize("value,shown", [(True, "True"), (False, "False"), (np.True_, "True"), ("1", "'1'"), ("0.1", "'0.1'"), (b"1", "b'1'")])
    def test_bools_and_text_are_value_errors(self, name, value, shown):
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {re.escape(shown)}$"):
            _FLOAT_RULES[name].check(name, value)

    @pytest.mark.parametrize("value,shown", [(np.float64(-1.0), "-1.0"), (np.float32(-0.5), "-0.5"), (np.int64(-2), "-2")])
    def test_numpy_scalars_show_as_their_values(self, value, shown):
        with pytest.raises(ValueError, match=rf"^sigma_g must be finite, >= 0 and <= 1000, got {re.escape(shown)}$"):
            NoiseSpec(sigma_r=0.1, sigma_g=value, sigma_b=0.1)

    @pytest.mark.parametrize("name", _FLOAT_RULES)
    @pytest.mark.parametrize("value", [1, np.int64(1), 0.5, np.float64(0.5), np.float32(0.5)])
    def test_real_numbers_pass(self, name, value):
        _FLOAT_RULES[name].check(name, value)

    def test_zero_int_is_a_sigma(self):
        SIGMA.check("sigma", 0)
        assert NoiseSpec.uniform(0).sigma_g == 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: NoiseSpec(sigma_r=True, sigma_g=0.1, sigma_b=0.1),
            lambda: NoiseSpec.uniform("0.1"),
            lambda: ExperimentGrid(sigmas=(True,)),
            lambda: DenoiserConfig(kind="gaussian", sigma_s=True),
            lambda: DenoiserConfig(kind="gaussian", sigma_s="1"),
            lambda: DenoiserConfig(kind="bilateral", sigma_r=False),
            lambda: DenoiserConfig(kind="wavelet", sigma_n="0.1"),
        ],
    )
    def test_configs_reject_bools_and_text(self, make):
        with pytest.raises(ValueError, match=" must be "):
            make()


class TestNoiseSpec:
    def test_uniform_helper(self):
        spec = NoiseSpec.uniform(0.07, seed=9)
        assert (spec.sigma_r, spec.sigma_g, spec.sigma_b, spec.seed) == (0.07, 0.07, 0.07, 9)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_r=sigma, sigma_g=0.1, sigma_b=0.1)

    @pytest.mark.parametrize("sigma", [1000.5, 1e160, 1e308])
    def test_sigma_above_1000_rejected(self, sigma):
        with pytest.raises(ValueError, match=r"^sigma_g must be finite, >= 0 and <= 1000, got "):
            NoiseSpec(sigma_r=0.1, sigma_g=sigma, sigma_b=0.1)

    def test_sigma_of_1000_is_accepted(self):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.zeros((8, 8))))
        noisy = add_awgn(mosaic, NoiseSpec.uniform(1000.0, seed=2))
        assert np.all(np.isfinite(noisy.plane.data))

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, np.float64(3.0), True])
    def test_seed_range(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\^64\), got "):
            NoiseSpec.uniform(0.1, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3), np.int32(3)])
    def test_numpy_integer_seed_is_its_value(self, seed):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.zeros((4, 6))))
        noisy = add_awgn(mosaic, NoiseSpec.uniform(0.1, seed=seed))
        np.testing.assert_array_equal(noisy.plane.data, add_awgn(mosaic, NoiseSpec.uniform(0.1, seed=3)).plane.data)


def _whole_frame_awgn(mosaic: MosaicImage, spec: NoiseSpec) -> np.ndarray:
    """add_awgn as whole-frame expressions: a full scale plane, then data + field * scale."""
    h, w = mosaic.plane.data.shape
    sigma = {"R": spec.sigma_r, "G": spec.sigma_g, "B": spec.sigma_b}
    scale = np.empty((h, w))
    for dy, dx, color in mosaic.pattern.sites:
        scale[dy::2, dx::2] = sigma[color]
    return mosaic.plane.data + normal_field(spec.seed, h, w) * scale


class TestAddAwgn:
    @pytest.mark.parametrize("pattern", list(CfaPattern))
    @pytest.mark.parametrize("sigmas", [(0.01, 0.02, 0.03), (0.0, 0.0, 0.0), (0.0, 0.05, 1000.0)])
    def test_matches_the_whole_frame_expressions(self, pattern, sigmas):
        data = np.random.default_rng(6).random((6, 10))
        data[0::3, 1::2], data[1, :] = -0.0, 0.0
        mosaic = MosaicImage(pattern, Plane(data))
        spec = NoiseSpec(*sigmas, seed=19)
        assert same(add_awgn(mosaic, spec).plane.data, _whole_frame_awgn(mosaic, spec))

    def _mosaic(self, rng, pattern=CfaPattern.GBRG, h=8, w=8):
        return MosaicImage(pattern, Plane(rng.random((h, w))))

    def test_zero_sigma_is_identity(self):
        mosaic = self._mosaic(np.random.default_rng(1))
        noisy = add_awgn(mosaic, NoiseSpec.uniform(0.0, seed=5))
        assert np.array_equal(noisy.plane.data, mosaic.plane.data)

    def test_class_isolation_green(self):
        mosaic = self._mosaic(np.random.default_rng(2))
        noisy = add_awgn(mosaic, NoiseSpec(sigma_r=0.1, sigma_g=0.0, sigma_b=0.1, seed=3))
        changed = noisy.plane.data != mosaic.plane.data
        for row in range(8):
            for col in range(8):
                if color_at(mosaic.pattern, row, col) == "G":
                    assert not changed[row, col]
        assert changed.any()

    def test_determinism(self):
        mosaic = self._mosaic(np.random.default_rng(3))
        spec = NoiseSpec.uniform(0.2, seed=77)
        np.testing.assert_array_equal(add_awgn(mosaic, spec).plane.data, add_awgn(mosaic, spec).plane.data)

    def test_noise_is_scaled_unit_field(self):
        # On a zero mosaic the output IS the scaled field, bit for bit.
        mosaic = MosaicImage(CfaPattern.RGGB, Plane(np.zeros((6, 6))))
        noisy = add_awgn(mosaic, NoiseSpec.uniform(0.07, seed=11))
        np.testing.assert_array_equal(noisy.plane.data, 0.07 * normal_field(11, 6, 6))

    def test_shared_field_across_sigmas(self):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.zeros((6, 6))))
        a = add_awgn(mosaic, NoiseSpec.uniform(0.02, seed=4)).plane.data
        b = add_awgn(mosaic, NoiseSpec.uniform(0.1, seed=4)).plane.data
        np.testing.assert_allclose(a / 0.02, b / 0.1, rtol=0, atol=1e-12)

    def test_not_clipped(self):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.zeros((32, 32))))
        noisy = add_awgn(mosaic, NoiseSpec.uniform(0.5, seed=8))
        assert noisy.plane.data.min() < 0.0

    def test_per_class_sigma_statistics(self):
        pattern = CfaPattern.GBRG
        mosaic = MosaicImage(pattern, Plane(np.full((512, 512), 0.5)))
        noisy = add_awgn(mosaic, NoiseSpec(sigma_r=0.2, sigma_g=0.05, sigma_b=0.0, seed=21))
        delta = noisy.plane.data - 0.5
        r, g1, g2, b = (delta[dy::2, dx::2] for dy, dx, _ in pattern.sites)
        assert abs(np.std(r) - 0.2) < 0.004
        assert np.all(b == 0.0)
        g_sites = np.concatenate([g1.ravel(), g2.ravel()])
        assert abs(np.std(g_sites) - 0.05) < 0.001

    def test_statistical_example_sigma_01(self):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.full((1024, 1024), 0.5)))
        noisy = add_awgn(mosaic, NoiseSpec.uniform(0.1, seed=12345))
        delta = noisy.plane.data - 0.5
        assert abs(delta.mean()) < 0.001
        assert abs(delta.std() - 0.1) < 0.002

    def test_seed_fields_uncorrelated(self):
        a = normal_field(1000, 512, 512).ravel()
        b = normal_field(2000, 512, 512).ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def _estimate_sigma_oracle(plane: Plane) -> float:
    """estimate_sigma as np.median computes it: the reference for its one-partition median."""
    data = plane.data
    h, w = data.shape
    data = data[: h - (h % 2), : w - (w % 2)]
    hh = np.subtract(data[0::2, 0::2], data[0::2, 1::2])
    hh -= data[1::2, 0::2]
    hh += data[1::2, 1::2]
    hh /= 2.0
    return float(np.median(np.abs(hh, out=hh), overwrite_input=True) / 0.6745)


class TestEstimateSigma:
    def test_matches_the_whole_frame_expression(self):
        data = np.random.default_rng(52).normal(0.0, 0.1, (34, 46))
        data[::3, ::2], data[1::4, :] = -0.0, 0.0
        d = data
        hh = (d[0::2, 0::2] - d[0::2, 1::2] - d[1::2, 0::2] + d[1::2, 1::2]) / 2.0
        assert estimate_sigma(Plane(data)) == float(np.median(np.abs(hh)) / 0.6745)

    # HH counts 1 (2x2 and 3x3), 2, 4, 6, 9, 15 and 368. The value sets give
    # ties, signed zeros and subnormals, and samples near +-1e308 whose HH
    # overflows to +-inf before its absolute value is taken.
    @pytest.mark.parametrize(
        "values",
        [(0.0, 0.5, 1.0), (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310), (1e308, -1e308, 1.7e308, -1.7e308, 0.0)],
        ids=["ties", "zeros-and-subnormals", "overflow"],
    )
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 4), (4, 4), (5, 7), (6, 6), (6, 10), (33, 47)])
    def test_matches_the_np_median_oracle(self, values, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        results = set()
        for _ in range(25):
            plane = Plane(rng.choice(values, shape))
            with np.errstate(over="ignore"):
                got, want = estimate_sigma(plane), _estimate_sigma_oracle(plane)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
            results.add(got)
        if values[0] == 1e308:
            assert math.inf in results

    def test_constant_plane_is_zero(self):
        assert estimate_sigma(Plane(np.full((16, 16), 0.3))) == 0.0

    def test_linear_ramp_is_zero(self):
        yy, xx = np.mgrid[0:32, 0:32] / 31.0
        assert estimate_sigma(Plane(0.2 + 0.3 * xx + 0.25 * yy)) == 0.0

    def test_pure_noise_level(self):
        plane = Plane(0.5 + 0.1 * normal_field(314, 512, 512))
        assert 0.09 <= estimate_sigma(plane) <= 0.11

    def test_gradient_plus_noise(self):
        yy, xx = np.mgrid[0:512, 0:512] / 511.0
        clean = 0.2 + 0.3 * xx + 0.3 * yy
        plane = Plane(clean + 0.05 * normal_field(272, 512, 512))
        assert 0.04 <= estimate_sigma(plane) <= 0.06

    def test_odd_dimensions_crop_to_even(self):
        rng = np.random.default_rng(51)
        data = rng.random((33, 47))
        assert estimate_sigma(Plane(data)) == estimate_sigma(Plane(data[:32, :46]))

    def test_too_small_rejected(self):
        with pytest.raises(DimensionError):
            estimate_sigma(Plane(np.zeros((1, 5))))
