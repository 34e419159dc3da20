"""Denoiser tests.

Each filter is checked against a deliberately naive reference written with
explicit loops and reflect indexing, plus the closed-form examples the
filters must satisfy (DC preservation, impulse response, edge behavior).
The wavelet path gets a fully independent block-Haar + threshold oracle.
"""

import math

import numpy as np
import pytest

from cfaisp.cfa import CfaPattern, MosaicImage, decompose
from cfaisp.denoise import (
    DenoiserConfig,
    WaveletPyramid,
    denoise_bilateral,
    denoise_gaussian,
    denoise_median,
    denoise_plane,
    denoise_subimages,
    denoise_wavelet,
    dwt_haar,
    idwt_haar,
)
from cfaisp.demosaic import DemosaickerConfig, demosaic_joint_bilateral
from cfaisp.imageio import DimensionError, Plane
from cfaisp.noise import NoiseSpec, add_awgn, estimate_sigma, normal_field


def _reflect(i: int, n: int) -> int:
    """Mirror index without edge duplication (period 2n-2)."""
    if n == 1:
        return 0
    period = 2 * n - 2
    i %= period
    return i if i < n else period - i


# Block-form one-level Haar: works on 2x2 cells directly, no sqrt(2) stages.
def _haar_forward_oracle(x):
    h, w = x.shape
    ll = np.empty((h // 2, w // 2))
    lh = np.empty_like(ll)
    hl = np.empty_like(ll)
    hh = np.empty_like(ll)
    for i in range(h // 2):
        for j in range(w // 2):
            a, b = x[2 * i, 2 * j], x[2 * i, 2 * j + 1]
            c, d = x[2 * i + 1, 2 * j], x[2 * i + 1, 2 * j + 1]
            ll[i, j] = (a + b + c + d) / 2.0
            hl[i, j] = (a + b - c - d) / 2.0
            lh[i, j] = (a - b + c - d) / 2.0
            hh[i, j] = (a - b - c + d) / 2.0
    return ll, lh, hl, hh


def _haar_inverse_oracle(ll, lh, hl, hh):
    h, w = ll.shape
    out = np.empty((2 * h, 2 * w))
    for i in range(h):
        for j in range(w):
            s, t, u, v = ll[i, j], lh[i, j], hl[i, j], hh[i, j]
            out[2 * i, 2 * j] = (s + t + u + v) / 2.0
            out[2 * i, 2 * j + 1] = (s - t + u - v) / 2.0
            out[2 * i + 1, 2 * j] = (s + t - u - v) / 2.0
            out[2 * i + 1, 2 * j + 1] = (s - t - u + v) / 2.0
    return out


def _wavelet_oracle(data, levels, sigma_n):
    stack = []
    current = data
    for _ in range(levels):
        ll, lh, hl, hh = _haar_forward_oracle(current)
        stack.append((lh, hl, hh))
        current = ll
    noise_var = sigma_n**2

    def shrink(band):
        signal_var = max(band.var() - noise_var, 0.0)
        if signal_var == 0.0:
            return np.zeros_like(band)
        threshold = noise_var / math.sqrt(signal_var)
        return np.sign(band) * np.maximum(np.abs(band) - threshold, 0.0)

    for lh, hl, hh in reversed(stack):
        current = _haar_inverse_oracle(current, shrink(lh), shrink(hl), shrink(hh))
    return current


class TestHaar:
    def test_constant_one_level(self):
        pyramid = dwt_haar(Plane(np.full((4, 4), 0.3)), 1)
        np.testing.assert_allclose(pyramid.ll, 0.6, atol=1e-12)
        for band in pyramid.details[0]:
            np.testing.assert_allclose(band, 0.0, atol=1e-12)

    def test_single_tile_closed_form(self):
        pyramid = dwt_haar(Plane(np.array([[1.0, 2.0], [3.0, 4.0]])), 1)
        lh, hl, hh = pyramid.details[0]
        assert pyramid.ll[0, 0] == pytest.approx((1 + 2 + 3 + 4) / 2, abs=1e-12)
        assert hl[0, 0] == pytest.approx((1 + 2 - 3 - 4) / 2, abs=1e-12)
        assert lh[0, 0] == pytest.approx((1 - 2 + 3 - 4) / 2, abs=1e-12)
        assert hh[0, 0] == pytest.approx((1 - 2 - 3 + 4) / 2, abs=1e-12)

    def test_matches_block_oracle(self):
        rng = np.random.default_rng(61)
        data = rng.random((8, 12))
        pyramid = dwt_haar(Plane(data), 1)
        ll, lh, hl, hh = _haar_forward_oracle(data)
        np.testing.assert_allclose(pyramid.ll, ll, atol=1e-12)
        np.testing.assert_allclose(pyramid.details[0][0], lh, atol=1e-12)
        np.testing.assert_allclose(pyramid.details[0][1], hl, atol=1e-12)
        np.testing.assert_allclose(pyramid.details[0][2], hh, atol=1e-12)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_perfect_reconstruction(self, levels):
        rng = np.random.default_rng(62)
        for _ in range(10):
            data = rng.random((32, 32))
            restored = idwt_haar(dwt_haar(Plane(data), levels))
            assert np.max(np.abs(restored.data - data)) < 1e-9

    def test_rectangular_reconstruction(self):
        rng = np.random.default_rng(63)
        data = rng.random((16, 64))
        np.testing.assert_allclose(idwt_haar(dwt_haar(Plane(data), 3)).data, data, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(64)
        data = rng.random((16, 16))
        pyramid = dwt_haar(Plane(data), 2)
        coeff_energy = float(np.sum(pyramid.ll**2))
        for triple in pyramid.details:
            for band in triple:
                coeff_energy += float(np.sum(band**2))
        sample_energy = float(np.sum(data**2))
        assert abs(coeff_energy - sample_energy) / sample_energy < 1e-9

    def test_subband_shapes_and_count(self):
        pyramid = dwt_haar(Plane(np.zeros((32, 48))), 3)
        assert pyramid.levels == 3
        shapes = [triple[0].shape for triple in pyramid.details]
        assert shapes == [(16, 24), (8, 12), (4, 6)]
        count = pyramid.ll.size + sum(band.size for triple in pyramid.details for band in triple)
        assert count == 32 * 48

    def test_indivisible_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            dwt_haar(Plane(np.zeros((34, 32))), 2)

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            dwt_haar(Plane(np.zeros((8, 8))), 0)

    def test_idwt_zero_pyramid(self):
        pyramid = WaveletPyramid(ll=np.zeros((2, 2)), details=((np.zeros((4, 4)),) * 3, (np.zeros((2, 2)),) * 3))
        assert np.all(idwt_haar(pyramid).data == 0.0)

    def test_idwt_ll_only_constant(self):
        pyramid = dwt_haar(Plane(np.full((8, 8), 0.4)), 2)
        stripped = WaveletPyramid(ll=pyramid.ll, details=tuple(tuple(np.zeros_like(b) for b in t) for t in pyramid.details))
        np.testing.assert_allclose(idwt_haar(stripped).data, 0.4, atol=1e-12)

    def test_dwt_of_idwt_roundtrip(self):
        rng = np.random.default_rng(65)
        pyramid = WaveletPyramid(
            ll=rng.random((4, 4)),
            details=(
                tuple(rng.random((8, 8)) for _ in range(3)),
                tuple(rng.random((4, 4)) for _ in range(3)),
            ),
        )
        back = dwt_haar(idwt_haar(pyramid), 2)
        np.testing.assert_allclose(back.ll, pyramid.ll, atol=1e-9)
        for got, want in zip(back.details, pyramid.details):
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, atol=1e-9)


class TestGaussian:
    def test_constant_preserved(self):
        out = denoise_gaussian(Plane(np.full((9, 9), 0.42)), 1.3)
        np.testing.assert_allclose(out.data, 0.42, atol=1e-9)

    def test_impulse_center_weight(self):
        sigma = 1.2
        radius = math.ceil(3 * sigma)
        offsets = np.arange(-radius, radius + 1, dtype=float)
        kernel = np.exp(-(offsets**2) / (2 * sigma**2))
        kernel /= kernel.sum()
        data = np.zeros((33, 33))
        data[16, 16] = 1.0
        out = denoise_gaussian(Plane(data), sigma)
        assert out.data[16, 16] == pytest.approx(kernel[radius] ** 2, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.6, 1.7])
    def test_matches_direct_oracle(self, sigma):
        rng = np.random.default_rng(71)
        data = rng.random((8, 10))
        h, w = data.shape
        radius = math.ceil(3 * sigma)
        offsets = np.arange(-radius, radius + 1, dtype=float)
        kernel = np.exp(-(offsets**2) / (2 * sigma**2))
        kernel /= kernel.sum()
        expected = np.zeros_like(data)
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for u in range(-radius, radius + 1):
                    for v in range(-radius, radius + 1):
                        acc += kernel[u + radius] * kernel[v + radius] * data[_reflect(i + u, h), _reflect(j + v, w)]
                expected[i, j] = acc
        np.testing.assert_allclose(denoise_gaussian(Plane(data), sigma).data, expected, atol=1e-12)

    def test_mean_conserved_with_constant_margin(self):
        sigma = 1.0
        radius = math.ceil(3 * sigma)
        data = np.full((24, 24), 0.3)
        interior = slice(2 * radius, 24 - 2 * radius)
        data[interior, interior] += np.random.default_rng(72).random((24 - 4 * radius, 24 - 4 * radius)) * 0.4
        out = denoise_gaussian(Plane(data), sigma)
        assert abs(out.data.mean() - data.mean()) < 1e-6

    def test_reduces_noise(self):
        yy, xx = np.mgrid[0:64, 0:64] / 63.0
        clean = 0.3 + 0.4 * xx
        noisy = clean + 0.05 * normal_field(7, 64, 64)
        out = denoise_gaussian(Plane(noisy), 1.0)
        assert np.mean((out.data - clean) ** 2) < np.mean((noisy - clean) ** 2)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            denoise_gaussian(Plane(np.zeros((4, 4))), 0.0)


class TestMedian:
    def test_constant_preserved(self):
        out = denoise_median(Plane(np.full((7, 7), 0.6)), 1)
        assert np.all(out.data == 0.6)

    def test_center_of_nine_distinct(self):
        data = np.arange(1, 10, dtype=float).reshape(3, 3) / 10.0
        assert denoise_median(Plane(data), 1).data[1, 1] == 0.5

    def test_salt_pixel_removed(self):
        data = np.zeros((9, 9))
        data[4, 4] = 1.0
        assert np.all(denoise_median(Plane(data), 1).data == 0.0)

    @pytest.mark.parametrize("radius", [1, 2])
    def test_matches_window_sort_oracle(self, radius):
        rng = np.random.default_rng(73)
        data = rng.random((9, 7))
        h, w = data.shape
        expected = np.zeros_like(data)
        for i in range(h):
            for j in range(w):
                window = [data[_reflect(i + u, h), _reflect(j + v, w)] for u in range(-radius, radius + 1) for v in range(-radius, radius + 1)]
                expected[i, j] = sorted(window)[len(window) // 2]
        np.testing.assert_array_equal(denoise_median(Plane(data), radius).data, expected)

    def test_step_edge_preserved(self):
        data = np.zeros((8, 8))
        data[:, 4:] = 1.0
        assert np.array_equal(denoise_median(Plane(data), 1).data, data)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            denoise_median(Plane(np.zeros((4, 4))), 0)


class TestBilateral:
    def test_constant_preserved(self):
        out = denoise_bilateral(Plane(np.full((8, 8), 0.37)), 1.0, 0.1)
        np.testing.assert_allclose(out.data, 0.37, atol=1e-9)

    def test_matches_direct_oracle(self):
        sigma_s, sigma_r = 0.8, 0.1
        rng = np.random.default_rng(74)
        data = rng.random((8, 9))
        h, w = data.shape
        radius = math.ceil(3 * sigma_s)
        expected = np.zeros_like(data)
        for i in range(h):
            for j in range(w):
                num = den = 0.0
                for u in range(-radius, radius + 1):
                    for v in range(-radius, radius + 1):
                        sample = data[_reflect(i + u, h), _reflect(j + v, w)]
                        weight = math.exp(-(u * u + v * v) / (2 * sigma_s**2)) * math.exp(-((sample - data[i, j]) ** 2) / (2 * sigma_r**2))
                        num += weight * sample
                        den += weight
                expected[i, j] = num / den
        np.testing.assert_allclose(denoise_bilateral(Plane(data), sigma_s, sigma_r).data, expected, atol=1e-12)

    def test_sharp_range_kernel_preserves_step(self):
        data = np.zeros((8, 10))
        data[:, 5:] = 1.0
        out = denoise_bilateral(Plane(data), 1.0, 0.01)
        assert np.max(np.abs(out.data[:, 4] - 0.0)) < 0.05
        assert np.max(np.abs(out.data[:, 5] - 1.0)) < 0.05

    def test_wide_range_kernel_approaches_gaussian(self):
        # The range weights only saturate relative to the intensity spread,
        # so the plane is kept low-contrast.
        rng = np.random.default_rng(75)
        data = 0.5 + 0.02 * rng.standard_normal((12, 12))
        bilateral = denoise_bilateral(Plane(data), 1.1, 10.0)
        gaussian = denoise_gaussian(Plane(data), 1.1)
        assert np.max(np.abs(bilateral.data - gaussian.data)) < 1e-6

    def test_huge_range_kernel_on_full_contrast(self):
        rng = np.random.default_rng(76)
        data = rng.random((10, 10))
        bilateral = denoise_bilateral(Plane(data), 1.0, 1e6)
        gaussian = denoise_gaussian(Plane(data), 1.0)
        assert np.max(np.abs(bilateral.data - gaussian.data)) < 1e-9

    def test_preserves_edges_better_than_gaussian(self):
        clean = np.zeros((16, 16))
        clean[:, 8:] = 0.8
        noisy = clean + 0.05 * normal_field(17, 16, 16)
        bil = denoise_bilateral(Plane(noisy), 1.0, 0.1)
        gau = denoise_gaussian(Plane(noisy), 1.0)
        band = (slice(None), slice(6, 10))
        assert np.mean((bil.data[band] - clean[band]) ** 2) < np.mean((gau.data[band] - clean[band]) ** 2)

    @pytest.mark.parametrize("sigma_s,sigma_r", [(0.0, 0.1), (1.0, 0.0)])
    def test_bad_parameters(self, sigma_s, sigma_r):
        with pytest.raises(ValueError):
            denoise_bilateral(Plane(np.zeros((4, 4))), sigma_s, sigma_r)


class TestWavelet:
    def test_sigma_zero_is_identity(self):
        plane = Plane(np.random.default_rng(81).random((16, 16)))
        out = denoise_wavelet(plane, 3, 0.0)
        assert np.array_equal(out.data, plane.data)

    def test_auto_equals_explicit_estimate(self):
        plane = Plane(0.5 + 0.05 * normal_field(82, 32, 32))
        auto = denoise_wavelet(plane, 2, None)
        explicit = denoise_wavelet(plane, 2, estimate_sigma(plane))
        np.testing.assert_array_equal(auto.data, explicit.data)

    @pytest.mark.parametrize("levels,sigma_n", [(1, 0.02), (2, 0.05), (3, 0.1)])
    def test_matches_independent_oracle(self, levels, sigma_n):
        rng = np.random.default_rng(83)
        data = 0.5 + 0.1 * rng.standard_normal((16, 24))
        got = denoise_wavelet(Plane(data), levels, sigma_n)
        want = _wavelet_oracle(data, levels, sigma_n)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-9)

    def test_zero_signal_subbands_collapse_to_block_means(self):
        # With sigma_n far above the noise, every detail band is zeroed and
        # each 2^levels block reconstructs to its own mean.
        levels = 3
        rng = np.random.default_rng(84)
        data = 0.6 + 0.01 * rng.standard_normal((32, 32))
        out = denoise_wavelet(Plane(data), levels, 0.5)
        block = 2**levels
        means = data.reshape(32 // block, block, 32 // block, block).mean(axis=(1, 3))
        expected = np.repeat(np.repeat(means, block, axis=0), block, axis=1)
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_pure_noise_halved(self):
        noise = 0.1 * normal_field(85, 512, 512)
        out = denoise_wavelet(Plane(noise), 3, 0.1)
        assert np.mean(out.data**2) <= 0.5 * np.mean(noise**2)

    def test_gradient_plus_noise_improves(self):
        yy, xx = np.mgrid[0:64, 0:64] / 63.0
        clean = 0.2 + 0.3 * xx + 0.3 * yy
        noisy = clean + 0.05 * normal_field(86, 64, 64)
        out = denoise_wavelet(Plane(noisy), 3, None)
        assert np.mean((out.data - clean) ** 2) < np.mean((noisy - clean) ** 2)

    def test_ll_band_untouched(self):
        plane = Plane(0.5 + 0.05 * normal_field(87, 32, 32))
        out = denoise_wavelet(plane, 2, 0.05)
        np.testing.assert_allclose(dwt_haar(out, 2).ll, dwt_haar(plane, 2).ll, atol=1e-9)

    def test_bad_sigma_n(self):
        with pytest.raises(ValueError):
            denoise_wavelet(Plane(np.zeros((8, 8))), 1, -0.1)


class TestTranslationEquivariance:
    @pytest.mark.parametrize(
        "config,margin",
        [
            (DenoiserConfig(kind="gaussian", sigma_s=1.0), 3),
            (DenoiserConfig(kind="median", radius=1), 1),
            (DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=0.15), 3),
        ],
    )
    def test_shift_commutes_away_from_borders(self, config, margin):
        rng = np.random.default_rng(91)
        data = rng.random((24, 26))
        shifted = data[1:, 1:]
        full = denoise_plane(Plane(data), config).data
        moved = denoise_plane(Plane(shifted), config).data
        crop = 2 * margin
        a = full[1 + crop : 24 - crop, 1 + crop : 26 - crop]
        b = moved[crop : 23 - crop, crop : 25 - crop]
        assert np.max(np.abs(a - b)) < 1e-9


class TestConfigAndDispatch:
    def test_describe_strings(self):
        assert DenoiserConfig(kind="none").describe() == "none"
        assert DenoiserConfig(kind="gaussian", sigma_s=1.5).describe() == "gaussian(sigma_s=1.5)"
        assert DenoiserConfig(kind="median", radius=2).describe() == "median(radius=2)"
        assert DenoiserConfig(kind="bilateral", sigma_s=1.2, sigma_r=0.08).describe() == "bilateral(sigma_s=1.2 sigma_r=0.08)"
        assert DenoiserConfig(kind="wavelet", levels=3).describe() == "wavelet(levels=3 sigma_n=auto)"
        assert DenoiserConfig(kind="wavelet", levels=2, sigma_n=0.05).describe() == "wavelet(levels=2 sigma_n=0.05)"

    def test_descriptors_are_comma_free(self):
        for config in (
            DenoiserConfig(kind="gaussian", sigma_s=2.5),
            DenoiserConfig(kind="bilateral", sigma_s=1.25, sigma_r=0.125),
            DenoiserConfig(kind="wavelet", levels=4, sigma_n=0.123),
        ):
            assert "," not in config.describe()

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            DenoiserConfig(kind="nlmeans")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="gaussian", sigma_s=0.0),
            dict(kind="bilateral", sigma_s=1.0, sigma_r=0.0),
            dict(kind="median", radius=0),
            dict(kind="wavelet", levels=0),
            dict(kind="wavelet", sigma_n=-1.0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DenoiserConfig(**kwargs)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DenoiserConfig(kind="gaussian", sigma_s=math.inf),
            lambda: DenoiserConfig(kind="bilateral", sigma_s=math.inf),
            lambda: DemosaickerConfig(kind="joint-bilateral", sigma_s=math.inf),
            lambda: denoise_gaussian(Plane(np.zeros((4, 4))), math.inf),
            lambda: denoise_bilateral(Plane(np.zeros((4, 4))), math.inf, 0.1),
            lambda: demosaic_joint_bilateral(MosaicImage(CfaPattern.GBRG, Plane(np.zeros((4, 4)))), math.inf, 0.1),
        ],
        ids=["gaussian-config", "bilateral-config", "joint-config", "gaussian", "bilateral", "joint"],
    )
    def test_infinite_sigma_s_is_rejected(self, build):
        with pytest.raises(ValueError, match="sigma_s must be finite and > 0, got inf"):
            build()

    def test_infinite_sigma_r_means_spatial_weights(self):
        plane = Plane(np.random.default_rng(94).random((10, 12)))
        config = DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=math.inf)
        assert config.describe() == "bilateral(sigma_s=1 sigma_r=inf)"
        np.testing.assert_allclose(denoise_plane(plane, config).data, denoise_gaussian(plane, 1.0).data, rtol=0, atol=1e-12)
        mosaic = MosaicImage(CfaPattern.RGGB, plane)
        spatial = demosaic_joint_bilateral(mosaic, 1.0, math.inf)
        for got, want in zip(spatial.planes, demosaic_joint_bilateral(mosaic, 1.0, 1e6).planes):
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("sigma_r", [1.2e154, 1e160, 1e200])
    @pytest.mark.parametrize(
        "run",
        [
            lambda plane, sigma_r: (denoise_bilateral(plane, 1.0, sigma_r),),
            lambda plane, sigma_r: demosaic_joint_bilateral(MosaicImage(CfaPattern.GBRG, plane), 1.5, sigma_r).planes,
        ],
        ids=["bilateral", "joint"],
    )
    def test_huge_sigma_r_equals_infinite_sigma_r(self, run, sigma_r):
        # sigma_r**2 overflows (or 2 sigma_r**2 does): the weights are the
        # sigma_r = inf ones, bit for bit, instead of an OverflowError.
        plane = Plane(np.random.default_rng(95).random((10, 12)))
        for got, want in zip(run(plane, sigma_r), run(plane, math.inf)):
            np.testing.assert_array_equal(got.data, want.data)

    @pytest.mark.parametrize("sigma_s", [1e-156, 1e-160, 1e-200])
    @pytest.mark.parametrize(
        "run",
        [
            lambda plane, sigma_s: denoise_gaussian(plane, sigma_s),
            lambda plane, sigma_s: denoise_bilateral(plane, sigma_s, 0.1),
            lambda plane, sigma_s: demosaic_joint_bilateral(MosaicImage(CfaPattern.GBRG, plane), sigma_s, 0.1),
        ],
        ids=["gaussian", "bilateral", "joint"],
    )
    def test_tiny_sigma_s_is_rejected(self, run, sigma_s):
        # 1 / (2 sigma_s**2) overflows (or sigma_s**2 underflows to 0): no
        # weight exists, and the error names the parameter.
        with pytest.raises(ValueError, match=r"^sigma_s=\S+ is too small"):
            run(Plane(np.zeros((8, 8))), sigma_s)

    @pytest.mark.parametrize("sigma_r", [1e-156, 1e-200])
    def test_tiny_sigma_r_is_rejected(self, sigma_r):
        with pytest.raises(ValueError, match=r"^sigma_r=\S+ is too small"):
            denoise_bilateral(Plane(np.zeros((8, 8))), 1.0, sigma_r)

    @pytest.mark.parametrize("denoise", [lambda p: denoise_gaussian(p, 1e-154), lambda p: denoise_bilateral(p, 1e-154, 0.1)])
    def test_smallest_accepted_sigma_s_is_identity(self, denoise):
        plane = Plane(np.random.default_rng(96).random((8, 8)))
        np.testing.assert_array_equal(denoise(plane).data, plane.data)

    def test_none_returns_same_plane(self):
        plane = Plane(np.random.default_rng(92).random((4, 4)))
        assert denoise_plane(plane, DenoiserConfig(kind="none")) is plane

    def test_dispatch_matches_direct_calls(self):
        plane = Plane(np.random.default_rng(93).random((16, 16)))
        pairs = [
            (DenoiserConfig(kind="gaussian", sigma_s=0.9), denoise_gaussian(plane, 0.9)),
            (DenoiserConfig(kind="median", radius=2), denoise_median(plane, 2)),
            (DenoiserConfig(kind="bilateral", sigma_s=0.9, sigma_r=0.2), denoise_bilateral(plane, 0.9, 0.2)),
            (DenoiserConfig(kind="wavelet", levels=2, sigma_n=0.05), denoise_wavelet(plane, 2, 0.05)),
        ]
        for config, want in pairs:
            np.testing.assert_array_equal(denoise_plane(plane, config).data, want.data)


class TestDenoiseSubimages:
    def _noisy_subs(self, sigma=0.05, seed=5):
        rng = np.random.default_rng(94)
        yy, xx = np.mgrid[0:32, 0:32] / 31.0
        base = 0.25 + 0.5 * xx * yy
        clean = MosaicImage(CfaPattern.GBRG, Plane(base))
        noisy = add_awgn(clean, NoiseSpec.uniform(sigma, seed))
        return decompose(clean), decompose(noisy)

    def test_matches_per_plane_application(self):
        _, subs = self._noisy_subs()
        config = DenoiserConfig(kind="median", radius=1)
        out = denoise_subimages(subs, config)
        for got, given in zip(out.planes, subs.planes):
            np.testing.assert_array_equal(got.data, denoise_plane(given, config).data)
        assert out.pattern is subs.pattern
        assert (out.full_width, out.full_height) == (subs.full_width, subs.full_height)

    def test_constant_subimages_unchanged(self):
        mosaic = MosaicImage(CfaPattern.RGGB, Plane(np.full((8, 8), 0.5)))
        subs = decompose(mosaic)
        out = denoise_subimages(subs, DenoiserConfig(kind="gaussian", sigma_s=1.0))
        for plane in out.planes:
            np.testing.assert_allclose(plane.data, 0.5, atol=1e-9)

    def test_channel_isolation(self):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.zeros((12, 12))))
        subs = decompose(mosaic)
        salted = type(subs)(
            r=Plane(_salt(subs.r.data)),
            g1=subs.g1,
            g2=subs.g2,
            b=subs.b,
            pattern=subs.pattern,
            full_width=subs.full_width,
            full_height=subs.full_height,
        )
        out = denoise_subimages(salted, DenoiserConfig(kind="median", radius=1))
        assert np.all(out.r.data == 0.0)
        for got, given in ((out.g1, subs.g1), (out.g2, subs.g2), (out.b, subs.b)):
            np.testing.assert_array_equal(got.data, given.data)

    def test_noisy_mosaic_improves_every_plane(self):
        clean_subs, noisy_subs = self._noisy_subs()
        out = denoise_subimages(noisy_subs, DenoiserConfig(kind="wavelet", levels=3))
        for name in ("r", "g1", "g2", "b"):
            clean = getattr(clean_subs, name).data
            before = np.mean((getattr(noisy_subs, name).data - clean) ** 2)
            after = np.mean((getattr(out, name).data - clean) ** 2)
            assert after < before


def _salt(data):
    out = data.copy()
    out[2, 3] = 1.0
    return out
