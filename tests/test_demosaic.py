"""Demosaicker tests.

Bilinear and gradient interpolation are verified pixel-by-pixel against
naive loop implementations (the gradient oracle retypes the 5x5 kernel
tables independently), and the joint bilateral path against a spatial-only
oracle with the range kernel saturated. Quality orderings that motivated
the gradient and joint variants are asserted on the shared corpus.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import color_at, reflect
from scipy.ndimage import convolve

from cfaisp import _kernel
from cfaisp.cfa import CfaPattern, MosaicImage, mosaic_from_rgb
from cfaisp.demosaic import (
    DEMOSAICKER_KINDS,
    JOINT_SIGMA_S,
    DemosaickerConfig,
    demosaic,
    demosaic_bilinear,
    demosaic_gradient,
    demosaic_joint_bilateral,
)
from cfaisp.imageio import Plane, RgbImage
from cfaisp.noise import NoiseSpec, add_awgn
from cfaisp.pipeline import cpsnr, mse

ALL_PATTERNS = list(CfaPattern)


def _bilinear_oracle(mosaic: MosaicImage) -> RgbImage:
    """Mean of same-color samples in the mirrored 3x3 window, pass-through on hits."""
    data = mosaic.plane.data
    h, w = data.shape
    out = {c: np.zeros((h, w)) for c in "RGB"}
    for i in range(h):
        for j in range(w):
            for color in "RGB":
                if color_at(mosaic.pattern, i, j) == color:
                    out[color][i, j] = data[i, j]
                    continue
                num = den = 0.0
                for u in (-1, 0, 1):
                    for v in (-1, 0, 1):
                        si, sj = reflect(i + u, h), reflect(j + v, w)
                        if color_at(mosaic.pattern, si, sj) == color:
                            num += data[si, sj]
                            den += 1.0
                out[color][i, j] = num / den
    return RgbImage(Plane(out["R"]), Plane(out["G"]), Plane(out["B"]))


# Independently retyped gradient-correction kernel tables (eighths).
_ORACLE_K_G = np.array(
    [
        [0, 0, -1, 0, 0],
        [0, 0, 2, 0, 0],
        [-1, 2, 4, 2, -1],
        [0, 0, 2, 0, 0],
        [0, 0, -1, 0, 0],
    ],
    dtype=float,
) / 8.0

_ORACLE_K_HROW = np.array(
    [
        [0, 0, 0.5, 0, 0],
        [0, -1, 0, -1, 0],
        [-1, 4, 5, 4, -1],
        [0, -1, 0, -1, 0],
        [0, 0, 0.5, 0, 0],
    ],
    dtype=float,
) / 8.0

_ORACLE_K_X = np.array(
    [
        [0, 0, -1.5, 0, 0],
        [0, 2, 0, 2, 0],
        [-1.5, 0, 6, 0, -1.5],
        [0, 2, 0, 2, 0],
        [0, 0, -1.5, 0, 0],
    ],
    dtype=float,
) / 8.0


def _apply_kernel_at(data: np.ndarray, kernel: np.ndarray, i: int, j: int) -> float:
    h, w = data.shape
    acc = 0.0
    for u in range(-2, 3):
        for v in range(-2, 3):
            acc += kernel[u + 2, v + 2] * data[reflect(i + u, h), reflect(j + v, w)]
    return acc


def _gradient_oracle(mosaic: MosaicImage) -> RgbImage:
    data = mosaic.plane.data
    h, w = data.shape
    pattern = mosaic.pattern
    r_row = pattern.sites[0][0]
    out = {c: np.zeros((h, w)) for c in "RGB"}
    for i in range(h):
        for j in range(w):
            color = color_at(pattern, i, j)
            if color == "G":
                out["G"][i, j] = data[i, j]
                in_r_row = i % 2 == r_row
                row_kernel = _ORACLE_K_HROW
                col_kernel = _ORACLE_K_HROW.T
                if in_r_row:
                    out["R"][i, j] = _apply_kernel_at(data, row_kernel, i, j)
                    out["B"][i, j] = _apply_kernel_at(data, col_kernel, i, j)
                else:
                    out["B"][i, j] = _apply_kernel_at(data, row_kernel, i, j)
                    out["R"][i, j] = _apply_kernel_at(data, col_kernel, i, j)
            else:
                out[color][i, j] = data[i, j]
                out["G"][i, j] = _apply_kernel_at(data, _ORACLE_K_G, i, j)
                other = "B" if color == "R" else "R"
                out[other][i, j] = _apply_kernel_at(data, _ORACLE_K_X, i, j)
    return RgbImage(Plane(out["R"]), Plane(out["G"]), Plane(out["B"]))


_ORACLE_BILINEAR = (
    np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float),
    np.array([[0, 0, 0], [1, 0, 1], [0, 0, 0]], dtype=float),
    np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]], dtype=float),
)
_ORACLE_GRADIENT = (_ORACLE_K_G, _ORACLE_K_HROW, _ORACLE_K_X)


def _convolve_oracle(mosaic: MosaicImage, kernels) -> tuple:
    """R, G, B arrays from whole-frame scipy convolutions, each divided by its weight sum.

    kernels are (G at R/B, R/B along the row at G, R/B at the opposite chroma
    site); the transposed row kernel gives R/B across the row.
    """
    data = mosaic.plane.data
    h, w = data.shape
    k_g, k_row, k_x = kernels
    est_g, est_row, est_col, est_x = (convolve(data, k, mode="mirror") / k.sum() for k in (k_g, k_row, k_row.T, k_x))
    r_row = mosaic.pattern.sites[0][0]
    out = {c: np.empty((h, w)) for c in "RGB"}
    for i in range(h):
        for j in range(w):
            color = color_at(mosaic.pattern, i, j)
            out[color][i, j] = data[i, j]
            if color == "G":
                along, across = ("R", "B") if i % 2 == r_row else ("B", "R")
                out[along][i, j] = est_row[i, j]
                out[across][i, j] = est_col[i, j]
            else:
                out["G"][i, j] = est_g[i, j]
                out["B" if color == "R" else "R"][i, j] = est_x[i, j]
    return out["R"], out["G"], out["B"]


LINEAR = [(demosaic_bilinear, _ORACLE_BILINEAR), (demosaic_gradient, _ORACLE_GRADIENT)]

# Signed zeros, the smallest subnormals and normals, and huge magnitudes,
# mixed with ordinary samples.
EXTREME_SAMPLES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]) | st.floats(-1.0, 2.0)


def _joint_weight_sums(mosaic: MosaicImage, sigma_s: float, sigma_r: float) -> dict:
    """Per color, the sum of the joint filter's weights at every sample."""
    data = mosaic.plane.data
    guide = demosaic_bilinear(mosaic).g.data
    h, w = data.shape
    radius = math.ceil(3 * sigma_s)
    colors = np.array([[color_at(mosaic.pattern, i, j) for j in range(w)] for i in range(h)])
    sums = {color: np.zeros((h, w)) for color in "RGB"}
    for u in range(-radius, radius + 1):
        for v in range(-radius, radius + 1):
            at = np.ix_([reflect(i + u, h) for i in range(h)], [reflect(j + v, w) for j in range(w)])
            weight = math.exp(-(u * u + v * v) / (2 * sigma_s**2)) * np.exp(-((guide[at] - guide) ** 2) / (2 * sigma_r**2))
            for color, den in sums.items():
                den += np.where(colors[at] == color, weight, 0.0)
    return sums


def _random_mosaic(pattern, shape, seed):
    rng = np.random.default_rng(seed)
    return MosaicImage(pattern, Plane(rng.random(shape)))


class TestBilinear:
    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_matches_loop_oracle(self, pattern):
        for seed in range(20):
            mosaic = _random_mosaic(pattern, (6, 6), 100 + seed)
            got = demosaic_bilinear(mosaic)
            want = _bilinear_oracle(mosaic)
            for g, w in zip(got.planes, want.planes):
                np.testing.assert_allclose(g.data, w.data, atol=1e-12)

    def test_constant_mosaic_constant_output(self):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.full((8, 8), 0.5)))
        out = demosaic_bilinear(mosaic)
        for plane in out.planes:
            np.testing.assert_allclose(plane.data, 0.5, atol=1e-9)

    def test_green_at_red_is_four_neighbor_mean(self):
        pattern = CfaPattern.GBRG
        mosaic = _random_mosaic(pattern, (8, 8), 5)
        data = mosaic.plane.data
        out = demosaic_bilinear(mosaic)
        ri, rj, _ = pattern.sites[0]
        i, j = ri + 2, rj + 2  # interior red site
        mean4 = (data[i - 1, j] + data[i + 1, j] + data[i, j - 1] + data[i, j + 1]) / 4.0
        assert out.g.data[i, j] == pytest.approx(mean4, abs=1e-12)

    def test_measured_sites_pass_through(self):
        pattern = CfaPattern.RGGB
        mosaic = _random_mosaic(pattern, (10, 10), 6)
        out = demosaic_bilinear(mosaic)
        channel = {"R": out.r.data, "G": out.g.data, "B": out.b.data}
        for i in range(10):
            for j in range(10):
                color = color_at(pattern, i, j)
                assert channel[color][i, j] == mosaic.plane.data[i, j]

    def test_output_stays_in_unit_range(self):
        mosaic = _random_mosaic(CfaPattern.BGGR, (16, 16), 7)
        out = demosaic_bilinear(mosaic)
        for plane in out.planes:
            assert plane.data.min() >= 0.0 and plane.data.max() <= 1.0

    def test_green_error_lowest_on_corpus(self, corpus):
        # Half the sites are green, so G interpolates from the densest grid.
        for _, truth in corpus:
            mosaic = mosaic_from_rgb(truth, CfaPattern.GBRG)
            out = demosaic_bilinear(mosaic)
            err = {c: mse(getattr(truth, c), getattr(out, c), crop=4) for c in "rgb"}
            assert err["g"] <= err["r"]
            assert err["g"] <= err["b"]


class TestGradient:
    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_matches_kernel_oracle(self, pattern):
        mosaic = _random_mosaic(pattern, (10, 12), 8)
        got = demosaic_gradient(mosaic)
        want = _gradient_oracle(mosaic)
        for g, w in zip(got.planes, want.planes):
            np.testing.assert_allclose(g.data, w.data, atol=1e-12)

    def test_constant_mosaic_constant_output(self):
        mosaic = MosaicImage(CfaPattern.GRBG, Plane(np.full((8, 8), 0.5)))
        out = demosaic_gradient(mosaic)
        for plane in out.planes:
            np.testing.assert_allclose(plane.data, 0.5, atol=1e-9)

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_linear_ramp_exact_in_interior(self, pattern):
        yy, xx = np.mgrid[0:32, 0:32].astype(float)
        ramp = 0.2 + 0.41 * xx / 31.0 + 0.17 * yy / 31.0
        truth = RgbImage(Plane(ramp), Plane(ramp), Plane(ramp))
        out = demosaic_gradient(mosaic_from_rgb(truth, pattern))
        interior = (slice(2, 30), slice(2, 30))
        for plane in out.planes:
            assert np.max(np.abs(plane.data[interior] - ramp[interior])) < 1e-9

    def test_measured_sites_pass_through(self):
        pattern = CfaPattern.GBRG
        mosaic = _random_mosaic(pattern, (12, 12), 9)
        out = demosaic_gradient(mosaic)
        channel = {"R": out.r.data, "G": out.g.data, "B": out.b.data}
        for i in range(12):
            for j in range(12):
                assert channel[color_at(pattern, i, j)][i, j] == mosaic.plane.data[i, j]

    def test_beats_bilinear_on_corpus(self, corpus):
        for _, truth in corpus:
            mosaic = mosaic_from_rgb(truth, CfaPattern.GBRG)
            score_gradient = cpsnr(truth, demosaic_gradient(mosaic), crop=4)
            score_bilinear = cpsnr(truth, demosaic_bilinear(mosaic), crop=4)
            assert score_gradient > score_bilinear


# Mosaics walked in 7-sample bands, each tile site's lattice a quarter of the
# frame: a 14x4 mosaic walks bands of 3, 3 and 1 lattice rows, a 10x6 one 2,
# 2 and 1, and a 6x16 one has lattice rows wider than a band, one row per
# band. The bottom band's last tap run ends at the end of its phase plane.
BANDED = [(14, 4), (10, 6), (6, 16)]


class TestScipyConvolveOracle:
    """The per-site linear demosaic equals whole-frame scipy convolution, bit for bit."""

    @pytest.mark.parametrize("shape", [(2, 2), (4, 6), (6, 4), (10, 12), (64, 64), (130, 98), *(pytest.param(s, id=f"banded-{s[0]}x{s[1]}") for s in BANDED)])
    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    @pytest.mark.parametrize("demosaicker,kernels", LINEAR, ids=["bilinear", "gradient"])
    def test_equals_whole_frame_convolution(self, monkeypatch, demosaicker, kernels, pattern, shape):
        if shape in BANDED:
            monkeypatch.setattr(_kernel, "_STRIP", 7)
        mosaic = _random_mosaic(pattern, shape, 11)
        for got, want in zip(demosaicker(mosaic).planes, _convolve_oracle(mosaic, kernels)):
            assert np.array_equal(got.data, want)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(LINEAR),
        st.sampled_from(ALL_PATTERNS),
        st.integers(1, 11).map(lambda half: 2 * half),
        st.integers(1, 11).map(lambda half: 2 * half),
        st.data(),
    )
    def test_equals_whole_frame_convolution_on_extreme_samples(self, method, pattern, h, w, data):
        demosaicker, kernels = method
        mosaic = MosaicImage(pattern, Plane(data.draw(arrays(np.float64, (h, w), elements=EXTREME_SAMPLES))))
        for got, want in zip(demosaicker(mosaic).planes, _convolve_oracle(mosaic, kernels)):
            assert np.array_equal(got.data, want)


class TestJointBilateral:
    def test_constant_mosaic_constant_output(self):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.full((10, 10), 0.4)))
        out = demosaic_joint_bilateral(mosaic, 1.5, 0.1)
        for plane in out.planes:
            np.testing.assert_allclose(plane.data, 0.4, atol=1e-9)

    @pytest.mark.parametrize("sigma_r", [1e6, 0.1])
    def test_saturated_range_matches_spatial_oracle(self, sigma_r):
        # A weighted average over same-color sites, range-weighted on the
        # bilinear green estimate. With sigma_r huge the range weights are ~1
        # and the filter reduces to a spatially weighted average.
        sigma_s = 1.0
        radius = math.ceil(3 * sigma_s)
        pattern = CfaPattern.GBRG
        mosaic = _random_mosaic(pattern, (12, 14), 11)
        data = mosaic.plane.data
        guide = demosaic_bilinear(mosaic).g.data
        h, w = data.shape
        expected = {c: np.zeros((h, w)) for c in "RGB"}
        for color in "RGB":
            for i in range(h):
                for j in range(w):
                    num = den = 0.0
                    for u in range(-radius, radius + 1):
                        for v in range(-radius, radius + 1):
                            si, sj = reflect(i + u, h), reflect(j + v, w)
                            if color_at(pattern, si, sj) != color:
                                continue
                            weight = math.exp(-(u * u + v * v) / (2 * sigma_s**2))
                            weight *= math.exp(-((guide[si, sj] - guide[i, j]) ** 2) / (2 * sigma_r**2))
                            num += weight * data[si, sj]
                            den += weight
                    expected[color][i, j] = num / den
        out = demosaic_joint_bilateral(mosaic, sigma_s, sigma_r)
        np.testing.assert_allclose(out.r.data, expected["R"], atol=1e-12)
        np.testing.assert_allclose(out.g.data, expected["G"], atol=1e-12)
        np.testing.assert_allclose(out.b.data, expected["B"], atol=1e-12)

    def test_underflowing_range_weights_fall_back_to_spatial_weights(self):
        # At sigma_r = 1e-3 every same-color range weight of many samples
        # underflows to 0; such a sample takes the sigma_r -> inf limit, the
        # spatially weighted average, instead of coming out as 0.
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.random.default_rng(0).uniform(0.1, 1.0, (32, 32))))
        lo, hi = mosaic.plane.data.min(), mosaic.plane.data.max()
        sharp = demosaic_joint_bilateral(mosaic, 1.5, 1e-3)
        spatial = demosaic_joint_bilateral(mosaic, 1.5, 1e6)
        sums = _joint_weight_sums(mosaic, 1.5, 1e-3)
        for plane, limit, color in zip(sharp.planes, spatial.planes, "RGB"):
            underflow = sums[color] == 0.0
            assert np.any(underflow)
            assert np.all(plane.data != 0.0)
            assert lo - 1e-12 <= plane.data.min() and plane.data.max() <= hi + 1e-12
            np.testing.assert_allclose(plane.data[underflow], limit.data[underflow], rtol=0, atol=1e-9)

    def test_sigma_s_too_small_for_any_spatial_weight_is_rejected(self):
        # At sigma_s = 0.03 the nearest B site of an R site is diagonal, with
        # spatial weight exp(-2 / 0.0018) = 0, so no weight is left to average.
        mosaic = _random_mosaic(CfaPattern.GBRG, (6, 6), 13)
        with pytest.raises(ValueError, match=r"^sigma_s must be about 0\.037535 or more for joint-bilateral, got 0\.03$"):
            demosaic_joint_bilateral(mosaic, 0.03, 0.1)

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_the_sigma_s_floor_is_exact(self, pattern):
        # The smallest sigma_s the rule accepts, found by bisecting its test
        # rather than written down, as libm's exp may differ between hosts.
        low, high = 0.03, 0.04
        assert not JOINT_SIGMA_S.test(low) and JOINT_SIGMA_S.test(high)
        while np.nextafter(low, high) < high:
            middle = (low + high) / 2
            low, high = (low, middle) if JOINT_SIGMA_S.test(middle) else (middle, high)
        for shape in [(2, 2), (4, 6), (6, 4), (10, 12), (32, 32)]:
            mosaic = _random_mosaic(pattern, shape, 14)
            for sigma_r in (1e-3, 0.1, math.inf):
                assert all(np.all(np.isfinite(plane.data)) for plane in demosaic_joint_bilateral(mosaic, high, sigma_r).planes)
        with pytest.raises(ValueError, match=r"^sigma_s must be about 0\.037535 or more for joint-bilateral, got "):
            demosaic_joint_bilateral(mosaic, np.nextafter(high, 0), 0.1)

    # Bands of whole rows of 2 _STRIP samples: with _STRIP = 7, a 2x6 mosaic
    # is one band, an 8x6 one four, a 4x4 one a band of three rows and a
    # remainder from an odd row, and a 6x20 one a row per band; at the real
    # _STRIP a 520x256 mosaic is four bands of 128 rows and one of 8.
    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    @pytest.mark.parametrize(
        "strip,shape,bands",
        [(7, (2, 6), 1), (7, (8, 6), 4), (7, (4, 4), 2), (7, (6, 20), 6), (None, (520, 256), 5)],
        ids=["one-band", "several-bands", "remainder-band", "wide-row", "full-strip"],
    )
    def test_thread_count_does_not_change_the_bits(self, monkeypatch, by_cpus, pattern, strip, shape, bands):
        if strip is not None:
            monkeypatch.setattr(_kernel, "_STRIP", strip)
        mosaic = _random_mosaic(pattern, shape, 83)
        got = by_cpus(lambda: b"".join(plane.data.tobytes() for plane in demosaic_joint_bilateral(mosaic, 0.7, 0.1).planes))
        assert got[1][0] == got[2][0] == got[3][0]
        # One thread, or one band, is the calling thread alone.
        assert [pools for _, pools in got.values()] == [()] + [(min(cpus, bands),) if bands > 1 else () for cpus in (2, 3)]

    def test_underflow_fallback_is_the_same_on_every_thread_count(self, by_cpus):
        # The fallback case of test_underflowing_range_weights_fall_back_to_spatial_weights,
        # at 192^2: two bands, of 170 rows and 22.
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.random.default_rng(0).uniform(0.1, 1.0, (192, 192))))
        got = by_cpus(lambda: b"".join(plane.data.tobytes() for plane in demosaic_joint_bilateral(mosaic, 1.5, 1e-3).planes))
        assert got[1][0] == got[2][0] == got[3][0]
        assert [pools for _, pools in got.values()] == [(), (2,), (2,)]

    def test_calls_bilinear_once_through_the_module_attribute(self, monkeypatch):
        # Tracing replaces cfaisp.demosaic.demosaic_bilinear to attribute the
        # guide's cost to the bilinear span, so the joint filter must look the
        # function up there, once per call.
        calls = []

        def counting(mosaic):
            calls.append(mosaic)
            return demosaic_bilinear(mosaic)

        monkeypatch.setattr("cfaisp.demosaic.demosaic_bilinear", counting)
        mosaic = _random_mosaic(CfaPattern.RGGB, (8, 10), 12)
        demosaic_joint_bilateral(mosaic, 1.0, 0.1)
        demosaic(mosaic, DemosaickerConfig(kind="joint-bilateral"))
        assert calls == [mosaic, mosaic]

    def test_filters_measured_sites(self):
        pattern = CfaPattern.GBRG
        noisy = add_awgn(
            MosaicImage(pattern, Plane(np.full((16, 16), 0.5))),
            NoiseSpec.uniform(0.05, seed=21),
        )
        out = demosaic_joint_bilateral(noisy, 1.5, 0.1)
        site = pattern.sites[0]
        i, j = site[0] + 4, site[1] + 4
        assert out.r.data[i, j] != noisy.plane.data[i, j]

    def test_cleans_noisy_edge_better_than_bilinear(self):
        clean = np.full((32, 32), 0.2)
        clean[:, 16:] = 0.8
        truth = RgbImage(Plane(clean), Plane(clean), Plane(clean))
        noisy = add_awgn(mosaic_from_rgb(truth, CfaPattern.GBRG), NoiseSpec.uniform(0.05, seed=22))
        joint = demosaic_joint_bilateral(noisy, 1.5, 0.1)
        plain = demosaic_bilinear(noisy)
        band = (slice(4, 28), slice(12, 20))

        def band_mse(rgb):
            return sum(np.mean((p.data[band] - clean[band]) ** 2) for p in rgb.planes)

        assert band_mse(joint) < band_mse(plain)

    @pytest.mark.parametrize("sigma_s,sigma_r", [(0.0, 0.1), (1.5, 0.0), (-1.0, 0.1)])
    def test_bad_parameters(self, sigma_s, sigma_r):
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.zeros((4, 4))))
        with pytest.raises(ValueError):
            demosaic_joint_bilateral(mosaic, sigma_s, sigma_r)


class TestOneBlockPerFrame:
    # Separate allocations for a frame's planes cost a sweep thousands of
    # page faults a pass, and no output would show it.
    @pytest.mark.parametrize("kind", DEMOSAICKER_KINDS)
    def test_the_planes_are_views_of_one_block(self, kind):
        rgb = demosaic(_random_mosaic(CfaPattern.GRBG, (10, 8), 31), DemosaickerConfig(kind=kind))
        block = rgb.r.data.base
        assert block.shape == (3, 10, 8)
        assert all(plane.data.base is block and np.array_equal(plane.data, block[i]) for i, plane in enumerate(rgb.planes))


class TestConfigAndDispatch:
    def test_kinds_registry(self):
        assert DEMOSAICKER_KINDS == ("bilinear", "gradient", "joint-bilateral")

    def test_is_joint(self):
        assert DemosaickerConfig(kind="joint-bilateral").is_joint
        assert not DemosaickerConfig(kind="bilinear").is_joint
        assert not DemosaickerConfig(kind="gradient").is_joint

    def test_describe(self):
        assert DemosaickerConfig(kind="bilinear").describe() == "bilinear"
        assert DemosaickerConfig(kind="gradient").describe() == "gradient"
        joint = DemosaickerConfig(kind="joint-bilateral", sigma_s=1.5, sigma_r=0.1)
        assert joint.describe() == "joint-bilateral(sigma_s=1.5 sigma_r=0.1)"
        assert "," not in joint.describe()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DemosaickerConfig(kind="vng")

    def test_joint_parameter_validation(self):
        with pytest.raises(ValueError):
            DemosaickerConfig(kind="joint-bilateral", sigma_s=0.0)
        with pytest.raises(ValueError):
            DemosaickerConfig(kind="joint-bilateral", sigma_r=-0.5)

    def test_joint_sigma_s_floor_is_checked_when_built(self):
        # The public call checks the same floor: below it an R site's four
        # diagonal B weights underflow.
        mosaic = _random_mosaic(CfaPattern.GBRG, (6, 6), 13)
        for build in (lambda: DemosaickerConfig(kind="joint-bilateral", sigma_s=0.03753), lambda: demosaic_joint_bilateral(mosaic, 0.03753, 0.1)):
            with pytest.raises(ValueError, match=r"^sigma_s must be about 0\.037535 or more for joint-bilateral, got 0\.03753$"):
                build()
        config = DemosaickerConfig(kind="joint-bilateral", sigma_s=0.03754)
        assert demosaic(mosaic, config).r.data.shape == (6, 6)
        # Other kinds do not read sigma_s.
        assert DemosaickerConfig(kind="bilinear", sigma_s=0.03).describe() == "bilinear"

    def test_dispatch_matches_direct_calls(self):
        mosaic = _random_mosaic(CfaPattern.RGGB, (12, 12), 30)
        cases = [
            (DemosaickerConfig(kind="bilinear"), demosaic_bilinear(mosaic)),
            (DemosaickerConfig(kind="gradient"), demosaic_gradient(mosaic)),
            (
                DemosaickerConfig(kind="joint-bilateral", sigma_s=1.2, sigma_r=0.2),
                demosaic_joint_bilateral(mosaic, 1.2, 0.2),
            ),
        ]
        for config, want in cases:
            got = demosaic(mosaic, config)
            for g, w in zip(got.planes, want.planes):
                np.testing.assert_array_equal(g.data, w.data)

    def test_import_gives_the_submodule(self):
        # The package does not re-export demosaic(), which would hide the
        # submodule of the same name.
        import cfaisp.demosaic as m

        assert inspect.ismodule(m)
        assert m.demosaic_bilinear is demosaic_bilinear
