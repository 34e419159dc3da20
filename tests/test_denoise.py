"""Denoiser tests.

Each filter is checked against a deliberately naive reference written with
explicit loops and reflect indexing, plus the closed-form examples the
filters must satisfy (DC preservation, impulse response, edge behavior).
The wavelet path gets a fully independent block-Haar + threshold oracle.
"""

import dataclasses
import gc
import math
import threading
import tracemalloc

import haar
import numpy as np
import pytest
from oracles import color_at, reflect, same
from scipy.ndimage import convolve1d, median_filter

from cfaisp import _kernel, denoise
from cfaisp.cfa import CfaPattern, MosaicImage, decompose
from cfaisp.config import CONFIG_FIELDS
from cfaisp.denoise import (
    DENOISER_KINDS,
    DenoiserConfig,
    denoise_plane,
    denoise_planes,
    denoise_subimages,
    estimate_sigma,
)
from cfaisp.demosaic import DemosaickerConfig, demosaic_bilinear, demosaic_joint_bilateral
from cfaisp.imageio import DimensionError, Plane
from cfaisp.noise import NoiseSpec, add_awgn, normal_field


def _whole_frame_bilateral(data, guide, sigma_s, sigma_r, pattern=None):
    """The bilateral kernel as one pass over the whole frame, stacked (buckets, h, w).

    Frame-sized temporaries per window offset, on views of one mirror pad
    per array, summed in the kernel's order: one (num, den) per parity class
    of the offsets (dy mod 2, dx mod 2) with a pattern, one class without;
    the centre first, then d and -d for each offset d of the window's first
    half in row-major order; at each tile site, a color's classes added in
    class order. Each weight comes from its own neighbour q, (g_q - g_p)^2
    for d and -d alike, so the band walk, which computes one weight per
    pair, must give the same means bit for bit.
    """
    inv_2ss, inv_2sr = 1.0 / (2.0 * sigma_s**2), 1.0 / (2.0 * sigma_r**2)
    radius = math.ceil(3.0 * sigma_s)
    pads = np.pad(data, radius, mode="reflect"), np.pad(guide, radius, mode="reflect")
    h, w = data.shape
    step = 1 if pattern is None else 2

    def at(pad, dy, dx):
        return pad[radius + dy : radius + dy + h, radius + dx : radius + dx + w]

    sums = np.zeros((step * step, 2, h, w))
    sums[0, 0] += data
    sums[0, 1] += 1.0
    for dy in range(-radius, 1):
        for dx in range(-radius, radius + 1 if dy < 0 else 0):
            spatial = math.exp(-(dy * dy + dx * dx) * inv_2ss)
            num, den = sums[dy % step * step + dx % step]
            for u, v in ((dy, dx), (-dy, -dx)):
                weight = spatial * np.exp(-((at(pads[1], u, v) - at(pads[1], 0, 0)) ** 2) * inv_2sr)
                den += weight
                num += weight * at(pads[0], u, v)
    if pattern is None:
        groups = [(0, 0, 0, [0])]
    else:
        groups = [(row, col, "RGB".index(color), [c for c in range(4) if color_at(pattern, row + c // 2, col + c % 2) == color]) for row in (0, 1) for col in (0, 1) for color in "RGB"]
    out = np.empty((1 if pattern is None else 3, h, w))
    underflow = np.zeros(out.shape, bool)
    for row, col, k, members in groups:
        num, den = sums[members[0], :, row::step, col::step]
        for c in members[1:]:
            num, den = num + sums[c, 0, row::step, col::step], den + sums[c, 1, row::step, col::step]
        # An underflowing sum's mean is replaced below, 0 / 0 included.
        with np.errstate(divide="ignore", invalid="ignore"):
            out[k, row::step, col::step] = num / den
        underflow[k, row::step, col::step] = den < np.finfo(np.float64).tiny
    if underflow.any():
        out[underflow] = _whole_frame_bilateral(data, guide, sigma_s, math.inf, pattern)[underflow]
    return out


def _fsum_bilateral(data, guide, sigma_s, sigma_r, pattern=None):
    """The bilateral means with each sample's sums taken by math.fsum: a reference free of summation order."""
    h, w = data.shape
    radius = math.ceil(3.0 * sigma_s)
    colors = "." if pattern is None else "RGB"
    out = np.empty((len(colors), h, w))
    for i in range(h):
        for j in range(w):
            terms = {color: ([], []) for color in colors}
            for u in range(-radius, radius + 1):
                for v in range(-radius, radius + 1):
                    y, x = reflect(i + u, h), reflect(j + v, w)
                    weight = math.exp(-(u * u + v * v) / (2.0 * sigma_s**2)) * math.exp(-((guide[y, x] - guide[i, j]) ** 2) / (2.0 * sigma_r**2))
                    num, den = terms["." if pattern is None else color_at(pattern, y, x)]
                    num.append(weight * data[y, x])
                    den.append(weight)
            for k, (num, den) in enumerate(terms.values()):
                out[k, i, j] = math.fsum(num) / math.fsum(den)
    return out


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
    """The transform kernels _dwt and _idwt, through tests/haar.py, and the levels rule."""

    def test_constant_one_level(self):
        ll, details = haar.dwt(np.full((4, 4), 0.3), 1)
        np.testing.assert_allclose(ll, 0.6, atol=1e-12)
        for band in details[0]:
            np.testing.assert_allclose(band, 0.0, atol=1e-12)

    def test_single_tile_closed_form(self):
        ll, details = haar.dwt(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
        lh, hl, hh = details[0]
        assert ll[0, 0] == pytest.approx((1 + 2 + 3 + 4) / 2, abs=1e-12)
        assert hl[0, 0] == pytest.approx((1 + 2 - 3 - 4) / 2, abs=1e-12)
        assert lh[0, 0] == pytest.approx((1 - 2 + 3 - 4) / 2, abs=1e-12)
        assert hh[0, 0] == pytest.approx((1 - 2 - 3 + 4) / 2, abs=1e-12)

    def test_matches_block_oracle(self):
        rng = np.random.default_rng(61)
        data = rng.random((8, 12))
        ll, details = haar.dwt(data, 1)
        want_ll, lh, hl, hh = _haar_forward_oracle(data)
        np.testing.assert_allclose(ll, want_ll, atol=1e-12)
        np.testing.assert_allclose(details[0][0], lh, atol=1e-12)
        np.testing.assert_allclose(details[0][1], hl, atol=1e-12)
        np.testing.assert_allclose(details[0][2], hh, atol=1e-12)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_perfect_reconstruction(self, levels):
        rng = np.random.default_rng(62)
        for _ in range(10):
            data = rng.random((32, 32))
            restored = haar.idwt(*haar.dwt(data, levels))
            assert np.max(np.abs(restored - data)) < 1e-9

    def test_rectangular_reconstruction(self):
        rng = np.random.default_rng(63)
        data = rng.random((16, 64))
        np.testing.assert_allclose(haar.idwt(*haar.dwt(data, 3)), data, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(64)
        data = rng.random((16, 16))
        ll, details = haar.dwt(data, 2)
        coeff_energy = float(np.sum(ll**2))
        for triple in details:
            for band in triple:
                coeff_energy += float(np.sum(band**2))
        sample_energy = float(np.sum(data**2))
        assert abs(coeff_energy - sample_energy) / sample_energy < 1e-9

    def test_subband_shapes_and_count(self):
        ll, details = haar.dwt(np.zeros((32, 48)), 3)
        assert len(details) == 3
        shapes = [triple[0].shape for triple in details]
        assert shapes == [(16, 24), (8, 12), (4, 6)]
        count = ll.size + sum(band.size for triple in details for band in triple)
        assert count == 32 * 48

    @pytest.mark.parametrize("levels", [0, 1.5, 11, True])
    def test_bad_levels(self, levels):
        with pytest.raises(ValueError, match=r"^levels must be an integer in \[1, 10\], got "):
            denoise_plane(Plane(np.zeros((8, 8))), DenoiserConfig(kind="wavelet", levels=levels))

    def test_idwt_zero_pyramid(self):
        assert np.all(haar.idwt(np.zeros((2, 2)), [(np.zeros((4, 4)),) * 3, (np.zeros((2, 2)),) * 3]) == 0.0)

    def test_idwt_ll_only_constant(self):
        ll, details = haar.dwt(np.full((8, 8), 0.4), 2)
        stripped = [tuple(np.zeros_like(b) for b in t) for t in details]
        np.testing.assert_allclose(haar.idwt(ll, stripped), 0.4, atol=1e-12)

    def test_dwt_of_idwt_roundtrip(self):
        rng = np.random.default_rng(65)
        ll = rng.random((4, 4))
        details = [tuple(rng.random((8, 8)) for _ in range(3)), tuple(rng.random((4, 4)) for _ in range(3))]
        back_ll, back_details = haar.dwt(haar.idwt(ll, details), 2)
        np.testing.assert_allclose(back_ll, ll, atol=1e-9)
        for got, want in zip(back_details, details):
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, atol=1e-9)


class TestGaussian:
    def test_constant_preserved(self):
        out = denoise_plane(Plane(np.full((9, 9), 0.42)), DenoiserConfig(kind="gaussian", sigma_s=1.3))
        np.testing.assert_allclose(out.data, 0.42, atol=1e-9)

    def test_impulse_center_weight(self):
        sigma = 1.2
        radius = math.ceil(3 * sigma)
        offsets = np.arange(-radius, radius + 1, dtype=float)
        kernel = np.exp(-(offsets**2) / (2 * sigma**2))
        kernel /= kernel.sum()
        data = np.zeros((33, 33))
        data[16, 16] = 1.0
        out = denoise_plane(Plane(data), DenoiserConfig(kind="gaussian", sigma_s=sigma))
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
                        acc += kernel[u + radius] * kernel[v + radius] * data[reflect(i + u, h), reflect(j + v, w)]
                expected[i, j] = acc
        np.testing.assert_allclose(denoise_plane(Plane(data), DenoiserConfig(kind="gaussian", sigma_s=sigma)).data, expected, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 2.3, 100.0])
    def test_matches_scipy_convolve1d_bit_for_bit(self, monkeypatch, sigma):
        # The sweep CSV's digest depends on exact bits, not on a tolerance.
        radius = math.ceil(3 * sigma)
        offsets = np.arange(-radius, radius + 1, dtype=float)
        kernel = np.exp(-(offsets**2) / (2 * sigma**2))
        kernel /= kernel.sum()
        rng = np.random.default_rng(74)
        draws = {
            "random": lambda shape: rng.random(shape),
            "subnormal": lambda shape: rng.random(shape) * 1e-310,
            "large": lambda shape: rng.uniform(-1e3, 1e3, shape),
        }
        cases = [(shape, _kernel._STRIP) for shape in [(1, 1), (2, 3), (13, 31), (128, 96)]]
        # With 7-sample bands a 5x3 plane walks bands of 2, 2 and 1 rows, and
        # a 5x10 one, whose rows are wider than a band, one row per band. The
        # bottom band's last run ends at the end of the pad.
        cases += [((5, 3), 7), ((5, 10), 7)]
        for shape, strip in cases:
            monkeypatch.setattr(_kernel, "_STRIP", strip)
            for kind, draw in draws.items():
                data = draw(shape)
                want = convolve1d(convolve1d(data, kernel, axis=0, mode="mirror"), kernel, axis=1, mode="mirror")
                assert np.array_equal(denoise_plane(Plane(data), DenoiserConfig(kind="gaussian", sigma_s=sigma)).data, want), (shape, strip, kind)

    def test_mean_conserved_with_constant_margin(self):
        sigma = 1.0
        radius = math.ceil(3 * sigma)
        data = np.full((24, 24), 0.3)
        interior = slice(2 * radius, 24 - 2 * radius)
        data[interior, interior] += np.random.default_rng(72).random((24 - 4 * radius, 24 - 4 * radius)) * 0.4
        out = denoise_plane(Plane(data), DenoiserConfig(kind="gaussian", sigma_s=sigma))
        assert abs(out.data.mean() - data.mean()) < 1e-6

    def test_reduces_noise(self):
        yy, xx = np.mgrid[0:64, 0:64] / 63.0
        clean = 0.3 + 0.4 * xx
        noisy = clean + 0.05 * normal_field(7, 64, 64)
        out = denoise_plane(Plane(noisy), DenoiserConfig(kind="gaussian", sigma_s=1.0))
        assert np.mean((out.data - clean) ** 2) < np.mean((noisy - clean) ** 2)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            denoise_plane(Plane(np.zeros((4, 4))), DenoiserConfig(kind="gaussian", sigma_s=0.0))


def _median3_by_sorted_columns(data):
    """The 3x3 median's selection, computed window by window from explicit mirror windows.

    Each window sorts its three columns (min and max of the top two samples,
    then of that max and the bottom sample, then of the first min and the
    second) and takes med3(max of the lows, med3 of the middles, min of the
    highs), med3(x, y, z) = max(min(x, y), min(max(x, y), z)), every min and
    max with its operands in that order, so the sign of a tied zero follows
    too. The windows are independent: nothing is shared between
    them, so the arrays below only hold every window's samples at once.
    """
    h, w = data.shape
    rows, cols = [reflect(i, h) for i in range(-1, h + 1)], [reflect(j, w) for j in range(-1, w + 1)]
    windows = np.lib.stride_tricks.sliding_window_view(data[np.ix_(rows, cols)], (3, 3))

    def med3(x, y, z):
        return np.maximum(np.minimum(x, y), np.minimum(np.maximum(x, y), z))

    sorted_columns = []
    for col in range(3):
        above, row, below = (windows[..., dy, col] for dy in range(3))
        low, high = np.minimum(above, row), np.maximum(above, row)
        mid, high = np.minimum(high, below), np.maximum(high, below)
        sorted_columns.append((np.minimum(low, mid), np.maximum(low, mid), high))
    (low0, mid0, high0), (low1, mid1, high1), (low2, mid2, high2) = sorted_columns
    lows = np.maximum(np.maximum(low0, low1), low2)
    highs = np.minimum(np.minimum(high0, high1), high2)
    return med3(lows, med3(mid0, mid1, mid2), highs)


class TestMedian:
    def test_constant_preserved(self):
        out = denoise_plane(Plane(np.full((7, 7), 0.6)), DenoiserConfig(kind="median", radius=1))
        assert np.all(out.data == 0.6)

    def test_center_of_nine_distinct(self):
        data = np.arange(1, 10, dtype=float).reshape(3, 3) / 10.0
        assert denoise_plane(Plane(data), DenoiserConfig(kind="median", radius=1)).data[1, 1] == 0.5

    def test_salt_pixel_removed(self):
        data = np.zeros((9, 9))
        data[4, 4] = 1.0
        assert np.all(denoise_plane(Plane(data), DenoiserConfig(kind="median", radius=1)).data == 0.0)

    @pytest.mark.parametrize("radius", [1, 2])
    def test_matches_window_sort_oracle(self, radius):
        rng = np.random.default_rng(73)
        data = rng.random((9, 7))
        h, w = data.shape
        expected = np.zeros_like(data)
        for i in range(h):
            for j in range(w):
                window = [data[reflect(i + u, h), reflect(j + v, w)] for u in range(-radius, radius + 1) for v in range(-radius, radius + 1)]
                expected[i, j] = sorted(window)[len(window) // 2]
        np.testing.assert_array_equal(denoise_plane(Plane(data), DenoiserConfig(kind="median", radius=radius)).data, expected)

    @pytest.mark.parametrize("kind", ["random", "ties", "signed-zeros"])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_matches_scipy_median_filter(self, monkeypatch, radius, kind):
        # Sizes up to 17x9, plus frames cut into several tiles with a short
        # last one.
        rng = np.random.default_rng(["random", "ties", "signed-zeros"].index(kind))
        draw = {
            "random": lambda shape: rng.random(shape),
            "ties": lambda shape: rng.integers(0, 3, shape) / 2.0,
            "signed-zeros": lambda shape: rng.choice([-0.0, 0.0, 0.5], shape),
        }[kind]
        shapes = [(h, w) for h in range(1, 18) for w in range(1, 10)] + [(70, 512), (33, 1000)]
        cases = [(shape, _kernel._STRIP) for shape in shapes]
        # With 7-sample bands the 3x3 median walks remainder bands (5x3: 2, 2
        # and 1 rows) and rows wider than a band (5x10, 3x20: one row each);
        # a wider window's tiles hold 9 x 7 // 25 = 2 or 9 x 7 // 49 = 1
        # samples and split every row.
        cases += [(shape, 7) for shape in [(5, 3), (5, 10), (9, 7), (3, 20), (12, 5)]]
        for shape, strip in cases:
            monkeypatch.setattr(_kernel, "_STRIP", strip)
            data = draw(shape)
            got = denoise_plane(Plane(data), DenoiserConfig(kind="median", radius=radius)).data
            want = median_filter(data, size=2 * radius + 1, mode="mirror")
            assert np.array_equal(got, want), (shape, strip)
            if kind == "signed-zeros":
                # Both pick one of the tied zeros; which one may differ.
                assert np.all((np.signbit(got) == np.signbit(want)) | (got == 0.0)), (shape, strip)
            else:
                assert np.array_equal(np.signbit(got), np.signbit(want)), (shape, strip)

    # The scipy oracle cannot tell which of two tied zeros the sorted columns
    # keep; this pins every min and max's operand order, signs of zero
    # included, in whole-strip bands and in 7-sample ones. Where every sample
    # is a zero, most orders give one sign: zeros among other values tell
    # them apart.
    @pytest.mark.parametrize("strip", [None, 7])
    @pytest.mark.parametrize("kind", ["random", "ties", "signed-zeros", "zeros-among-values"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (128, 128)])
    def test_sorted_columns_match_the_window_by_window_selection(self, monkeypatch, shape, kind, strip):
        if strip is not None:
            monkeypatch.setattr(_kernel, "_STRIP", strip)
        rng = np.random.default_rng(76)
        draw = {
            "random": lambda: rng.random(shape),
            "ties": lambda: rng.choice([0.0, 0.5, 1.0], shape),
            "signed-zeros": lambda: rng.choice([-0.0, 0.0], shape),
            "zeros-among-values": lambda: rng.choice([-0.5, -0.0, 0.0, 0.5], shape),
        }[kind]
        for _ in range(20):
            data = draw()
            assert same(denoise_plane(Plane(data), DenoiserConfig(kind="median", radius=1)).data, _median3_by_sorted_columns(data)), shape

    def test_wide_window_memory_is_bounded_by_the_tile(self):
        # One row of 81x81 windows stacked at once would take 107 MB.
        data = np.random.default_rng(75).random((4, 2048))
        tracemalloc.start()
        try:
            denoise_plane(Plane(data), DenoiserConfig(kind="median", radius=40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_step_edge_preserved(self):
        data = np.zeros((8, 8))
        data[:, 4:] = 1.0
        assert np.array_equal(denoise_plane(Plane(data), DenoiserConfig(kind="median", radius=1)).data, data)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            denoise_plane(Plane(np.zeros((4, 4))), DenoiserConfig(kind="median", radius=0))


class TestBilateral:
    def test_constant_preserved(self):
        out = denoise_plane(Plane(np.full((8, 8), 0.37)), DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=0.1))
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
                        sample = data[reflect(i + u, h), reflect(j + v, w)]
                        weight = math.exp(-(u * u + v * v) / (2 * sigma_s**2)) * math.exp(-((sample - data[i, j]) ** 2) / (2 * sigma_r**2))
                        num += weight * sample
                        den += weight
                expected[i, j] = num / den
        np.testing.assert_allclose(denoise_plane(Plane(data), DenoiserConfig(kind="bilateral", sigma_s=sigma_s, sigma_r=sigma_r)).data, expected, atol=1e-12)

    def test_sharp_range_kernel_preserves_step(self):
        data = np.zeros((8, 10))
        data[:, 5:] = 1.0
        out = denoise_plane(Plane(data), DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=0.01))
        assert np.max(np.abs(out.data[:, 4] - 0.0)) < 0.05
        assert np.max(np.abs(out.data[:, 5] - 1.0)) < 0.05

    def test_wide_range_kernel_approaches_gaussian(self):
        # The range weights only saturate relative to the intensity spread,
        # so the plane is kept low-contrast.
        rng = np.random.default_rng(75)
        data = 0.5 + 0.02 * rng.standard_normal((12, 12))
        bilateral = denoise_plane(Plane(data), DenoiserConfig(kind="bilateral", sigma_s=1.1, sigma_r=10.0))
        gaussian = denoise_plane(Plane(data), DenoiserConfig(kind="gaussian", sigma_s=1.1))
        assert np.max(np.abs(bilateral.data - gaussian.data)) < 1e-6

    def test_huge_range_kernel_on_full_contrast(self):
        rng = np.random.default_rng(76)
        data = rng.random((10, 10))
        bilateral = denoise_plane(Plane(data), DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=1e6))
        gaussian = denoise_plane(Plane(data), DenoiserConfig(kind="gaussian", sigma_s=1.0))
        assert np.max(np.abs(bilateral.data - gaussian.data)) < 1e-9

    def test_preserves_edges_better_than_gaussian(self):
        clean = np.zeros((16, 16))
        clean[:, 8:] = 0.8
        noisy = clean + 0.05 * normal_field(17, 16, 16)
        bil = denoise_plane(Plane(noisy), DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=0.1))
        gau = denoise_plane(Plane(noisy), DenoiserConfig(kind="gaussian", sigma_s=1.0))
        band = (slice(None), slice(6, 10))
        assert np.mean((bil.data[band] - clean[band]) ** 2) < np.mean((gau.data[band] - clean[band]) ** 2)

    @pytest.mark.parametrize("sigma_s,sigma_r", [(0.0, 0.1), (1.0, 0.0)])
    def test_bad_parameters(self, sigma_s, sigma_r):
        with pytest.raises(ValueError):
            denoise_plane(Plane(np.zeros((4, 4))), DenoiserConfig(kind="bilateral", sigma_s=sigma_s, sigma_r=sigma_r))

    # With _STRIP = 7 a band holds 14 samples. Planes: a 1x1 plane is one
    # sample inside a window larger than the frame, a 2x2 one is one band, a
    # 5x3 one a band of four rows and a remainder of one, and a 3x10 one a
    # row per band. Their 2x mosaics: one band of 2x2, a band of three rows
    # and one from an odd row, five bands of two rows, and rows wider than a
    # band.
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (5, 3), (3, 10)], ids=["one-sample", "one-band", "remainder-band", "wide-row"])
    @pytest.mark.parametrize("sigma_s,sigma_r", [(1.0, 0.1), (0.7, 1e-3), (1.5, math.inf)])
    def test_band_walk_matches_the_whole_frame_loop(self, monkeypatch, shape, sigma_s, sigma_r):
        monkeypatch.setattr(_kernel, "_STRIP", 7)
        rng = np.random.default_rng(77)
        data = rng.random(shape)
        want = _whole_frame_bilateral(data, data, sigma_s, sigma_r)
        got = denoise_plane(Plane(data), DenoiserConfig(kind="bilateral", sigma_s=sigma_s, sigma_r=sigma_r)).data[None]
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        mosaic_data = rng.random((2 * shape[0], 2 * shape[1]))
        for pattern in CfaPattern:
            mosaic = MosaicImage(pattern, Plane(mosaic_data))
            want = _whole_frame_bilateral(mosaic_data, demosaic_bilinear(mosaic).g.data, sigma_s, sigma_r, pattern)
            for color, plane, mean in zip("RGB", demosaic_joint_bilateral(mosaic, sigma_s, sigma_r).planes, want):
                assert np.array_equal(plane.data, mean), (pattern, color)
                assert np.array_equal(np.signbit(plane.data), np.signbit(mean)), (pattern, color)

    # Only rounding moved when each pair's weight came to be computed once:
    # both kernels stay within 1e-13 of sums that math.fsum takes exactly.
    @pytest.mark.parametrize("shape", [(6, 8), (10, 6)])
    @pytest.mark.parametrize("sigma_s,sigma_r", [(1.0, 0.1), (1.5, 0.05), (0.7, math.inf)])
    def test_both_kernels_match_order_free_sums(self, shape, sigma_s, sigma_r):
        rng = np.random.default_rng(85)
        data = rng.random(shape)
        got = denoise_plane(Plane(data), DenoiserConfig(kind="bilateral", sigma_s=sigma_s, sigma_r=sigma_r)).data[None]
        np.testing.assert_allclose(got, _fsum_bilateral(data, data, sigma_s, sigma_r), rtol=1e-13, atol=0)
        for pattern in CfaPattern:
            mosaic = MosaicImage(pattern, Plane(data))
            guide = demosaic_bilinear(mosaic).g.data
            got = np.stack([plane.data for plane in demosaic_joint_bilateral(mosaic, sigma_s, sigma_r).planes])
            np.testing.assert_allclose(got, _fsum_bilateral(data, guide, sigma_s, sigma_r, pattern), rtol=1e-13, atol=0)

    def test_tiny_sigma_r_takes_the_spatial_only_fallback_in_strips(self, monkeypatch):
        # At sigma_r = 1e-3 the range weights of most other-color neighbours
        # underflow, so some joint samples are spatial-only means, bit for bit.
        monkeypatch.setattr(_kernel, "_STRIP", 7)
        mosaic = MosaicImage(CfaPattern.GRBG, Plane(np.random.default_rng(78).random((10, 6))))
        sharp = demosaic_joint_bilateral(mosaic, 0.7, 1e-3)
        spatial = demosaic_joint_bilateral(mosaic, 0.7, math.inf)
        assert any(np.any(got.data == want.data) for got, want in zip(sharp.planes, spatial.planes))

    def test_leaves_no_reference_cycles(self):
        # A cycle would keep the kernel's padded planes alive until the next
        # collection: RSS then grows with the number of calls.
        data = np.random.default_rng(80).random((16, 16))
        gc.collect()
        gc.disable()
        try:
            denoise_plane(Plane(data), DenoiserConfig(kind="bilateral", sigma_s=1.5, sigma_r=0.1))
            demosaic_joint_bilateral(MosaicImage(CfaPattern.GBRG, Plane(data)), 0.7, 1e-3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memory_is_bounded_by_the_strip(self):
        # Whole-frame temporaries for each window offset peaked at 14 MiB;
        # the strip walk keeps the pad, the output and strip-sized buffers.
        data = np.random.default_rng(79).random((512, 512))
        tracemalloc.start()
        try:
            denoise_plane(Plane(data), DenoiserConfig(kind="bilateral", sigma_s=1.5, sigma_r=0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20  # five 512 x 512 frames

    def test_joint_memory_is_bounded_by_the_strip(self, by_cpus, peak_bytes):
        # The means, the bilinear guide and the two pads come to about six
        # 512 x 512 frames. Each thread adds one buffer set: the four class
        # sums of a band of 2 _STRIP samples, its weights, a product and a
        # mask, under twelve such bands.
        mosaic = MosaicImage(CfaPattern.GBRG, Plane(np.random.default_rng(86).random((512, 512))))
        got = by_cpus(lambda: peak_bytes(lambda: demosaic_joint_bilateral(mosaic, 1.5, 0.1)), cpus=(1, 2, 4))
        frame, band = 512 * 512 * 8, 2 * _kernel._STRIP * 8
        assert {cpus: pools for cpus, (_, pools) in got.items()} == {1: (), 2: (2,), 4: (4,)}
        for cpus, (peak, _) in got.items():
            assert peak < 6.5 * frame + cpus * 12 * band, cpus


class TestBilateralThreads:
    # Bands of 2 _STRIP samples: with _STRIP = 7, a 2x7 plane is one band, an
    # 8x7 one four bands of two rows, a 5x3 one a band of four rows and a
    # remainder of one, and a 3x20 one has rows wider than a band, one row
    # per band; at the real _STRIP a 300x120 plane is 273 rows and 27.
    @pytest.mark.parametrize(
        "strip,shape,bands",
        [(7, (2, 7), 1), (7, (8, 7), 4), (7, (5, 3), 2), (7, (3, 20), 3), (None, (300, 120), 2)],
        ids=["one-band", "several-bands", "remainder-band", "wide-row", "full-strip"],
    )
    def test_thread_count_does_not_change_the_bits(self, monkeypatch, by_cpus, strip, shape, bands):
        if strip is not None:
            monkeypatch.setattr(_kernel, "_STRIP", strip)
        plane = Plane(np.random.default_rng(81).random(shape))
        got = by_cpus(lambda: denoise_plane(plane, DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=0.1)).data.tobytes())
        assert got[1][0] == got[2][0] == got[3][0]
        # One thread, or one band, is the calling thread alone.
        assert [pools for _, pools in got.values()] == [()] + [(min(cpus, bands),) if bands > 1 else () for cpus in (2, 3)]

    def test_rows_wider_than_a_band_match_the_whole_frame_loop(self, monkeypatch):
        # At _STRIP = 7 a band holds 14 samples, so each 20-sample row is a band.
        monkeypatch.setattr(_kernel, "_STRIP", 7)
        data = np.random.default_rng(84).random((3, 20))
        for sigma_s, sigma_r in [(1.0, 0.1), (1.5, math.inf)]:
            want = _whole_frame_bilateral(data, data, sigma_s, sigma_r)
            assert np.array_equal(denoise_plane(Plane(data), DenoiserConfig(kind="bilateral", sigma_s=sigma_s, sigma_r=sigma_r)).data[None], want)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(_kernel, "_cpus", lambda: 2)
        monkeypatch.setattr(_kernel, "_STRIP", 7)
        data = np.random.default_rng(82).random((8, 8))
        before = threading.active_count()
        denoise_plane(Plane(data), DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=0.1))
        demosaic_joint_bilateral(MosaicImage(CfaPattern.GBRG, Plane(data)), 0.7, 1e-3)
        assert threading.active_count() == before


def _whole_frame_dwt(data, levels):
    """The Haar pyramid as whole-frame expressions: a column pass into lo and hi, then a row pass."""
    current, details = data, []
    for _ in range(levels):
        lo = (current[:, 0::2] + current[:, 1::2]) / math.sqrt(2.0)
        hi = (current[:, 0::2] - current[:, 1::2]) / math.sqrt(2.0)
        ll = (lo[0::2, :] + lo[1::2, :]) / math.sqrt(2.0)
        hl = (lo[0::2, :] - lo[1::2, :]) / math.sqrt(2.0)
        lh = (hi[0::2, :] + hi[1::2, :]) / math.sqrt(2.0)
        hh = (hi[0::2, :] - hi[1::2, :]) / math.sqrt(2.0)
        details.append((lh, hl, hh))
        current = ll
    return current, details


def _whole_frame_idwt(ll, details):
    current = ll
    for lh, hl, hh in reversed(details):
        lo = np.empty((current.shape[0] * 2, current.shape[1]))
        lo[0::2, :] = (current + hl) / math.sqrt(2.0)
        lo[1::2, :] = (current - hl) / math.sqrt(2.0)
        hi = np.empty_like(lo)
        hi[0::2, :] = (lh + hh) / math.sqrt(2.0)
        hi[1::2, :] = (lh - hh) / math.sqrt(2.0)
        current = np.empty((lo.shape[0], lo.shape[1] * 2))
        current[:, 0::2] = (lo + hi) / math.sqrt(2.0)
        current[:, 1::2] = (lo - hi) / math.sqrt(2.0)
    return current


def _whole_frame_soft_threshold(band, threshold):
    return np.sign(band) * np.maximum(np.abs(band) - threshold, 0.0)


def _whole_frame_wavelet(data, levels, sigma_n):
    ll, details = _whole_frame_dwt(data, levels)
    noise_var = sigma_n**2
    shrunk = []
    for triple in details:
        bands = []
        for band in triple:
            signal_var = max(float(band.var()) - noise_var, 0.0)
            bands.append(np.zeros_like(band) if signal_var == 0.0 else _whole_frame_soft_threshold(band, noise_var / math.sqrt(signal_var)))
        shrunk.append(tuple(bands))
    return _whole_frame_idwt(ll, shrunk)


def _signed_zeros(shape, seed):
    """Noisy samples with runs of -0.0 and +0.0, so some Haar bands hold -0.0."""
    data = 0.5 + 0.1 * np.random.default_rng(seed).standard_normal(shape)
    data[: shape[0] // 2, : shape[1] // 2 : 2] = -0.0
    data[: shape[0] // 2, 1 : shape[1] // 2 : 2] = 0.0
    return data


class TestWaveletMatchesTheWholeFrameExpressions:
    @pytest.mark.parametrize("shape,levels", [((2, 2), 1), ((16, 24), 2), ((64, 40), 3)])
    def test_dwt_and_idwt_bit_for_bit(self, shape, levels):
        data = _signed_zeros(shape, 90)
        got_ll, got_details = haar.dwt(data, levels)
        ll, details = _whole_frame_dwt(data, levels)
        assert same(got_ll, ll)
        for got, want in zip(got_details, details):
            assert all(same(g, w) for g, w in zip(got, want))
        assert same(haar.idwt(got_ll, got_details), _whole_frame_idwt(ll, details))

    @pytest.mark.parametrize("threshold", [0.0, 1e-3, 0.1])
    def test_soft_threshold_keeps_the_sign_of_zero(self, threshold):
        # np.copysign alone would give -0.0 where the band is -0.0.
        band = np.array([[-0.0, 0.0, -1e-3, 1e-3, -0.05, 0.05, -0.5, 0.5, -5e-324, 5e-324]])
        want = _whole_frame_soft_threshold(band, threshold)
        denoise._soft_threshold(band, threshold, np.empty_like(band))
        assert same(band, want)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("sigma_n", [1e-200, 0.01, 0.05, 0.5])
    def test_denoise_wavelet_bit_for_bit(self, levels, sigma_n):
        # sigma_n = 1e-200 squares to 0: every threshold is 0.
        data = _signed_zeros((32, 48), 91)
        assert same(denoise_plane(Plane(data), DenoiserConfig(kind="wavelet", levels=levels, sigma_n=sigma_n)).data, _whole_frame_wavelet(data, levels, sigma_n))

    def test_memory_is_the_pyramid_output_and_two_quarters(self, peak_bytes):
        # Whole-frame temporaries peaked at 4.5 planes; now the pyramid (4/3
        # plane), the output and the inverse's two quarter-plane rows.
        plane = Plane(0.5 + 0.05 * np.random.default_rng(92).standard_normal((512, 512)))
        assert peak_bytes(lambda: denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=3))) < 3.25 * plane.data.nbytes


class TestWaveletPlanesThreads:
    """denoise_planes runs a frame's wavelet planes on threads, with the bytes of denoise_plane."""

    # _POOLED_SAMPLES is 8 _STRIP = 131,072 samples: 256^2 planes run one by
    # one on the calling thread, 363 x 365 planes (which take the pad at 3
    # levels) and 512^2 ones on threads.
    @pytest.mark.parametrize("count", [3, 4])
    @pytest.mark.parametrize("shape,pooled", [((256, 256), False), ((363, 365), True), ((512, 512), True)], ids=["256", "363x365", "512"])
    @pytest.mark.parametrize("sigma_n", [None, 0.02, 0.0], ids=["auto", "0.02", "0"])
    def test_thread_count_does_not_change_the_bytes(self, by_cpus, count, shape, pooled, sigma_n):
        rng = np.random.default_rng(93)
        planes = [Plane(0.5 + 0.05 * rng.standard_normal(shape)) for _ in range(count)]
        config = DenoiserConfig(kind="wavelet", sigma_n=sigma_n)
        threads = threading.active_count()
        got = by_cpus(lambda: (b"".join(plane.data.tobytes() for plane in denoise_planes(planes, config)), threading.active_count()), cpus=(1, 2, 3, 4))
        assert all(result == got[1][0] for result, _ in got.values())
        assert got[1][0] == (b"".join(denoise_plane(plane, config).data.tobytes() for plane in planes), threads)
        assert [pools for _, pools in got.values()] == [(min(cpus, count),) if pooled and cpus > 1 else () for cpus in (1, 2, 3, 4)]

    def test_a_small_frame_builds_one_buffer_set(self, monkeypatch, by_cpus):
        # 256^2 planes are below _POOLED_SAMPLES: the calling thread walks all
        # three with one set, at any CPU count.
        builds = []
        build = denoise._wavelet_buffers
        monkeypatch.setattr(denoise, "_wavelet_buffers", lambda *args: builds.append(args) or build(*args))
        planes = [Plane(0.5 + 0.05 * np.random.default_rng(99 + k).standard_normal((256, 256))) for k in range(3)]
        config = DenoiserConfig(kind="wavelet")

        def call():
            builds.clear()
            denoise_planes(planes, config)
            return list(builds)

        assert by_cpus(call, cpus=(1, 2)) == {1: ([((256, 256), 3)], ()), 2: ([((256, 256), 3)], ())}

    @pytest.mark.parametrize("kind", DENOISER_KINDS)
    def test_planes_of_two_shapes_are_rejected(self, kind):
        planes = [Plane(np.zeros((8, 8))), Plane(np.zeros((8, 8))), Plane(np.zeros((6, 10)))]
        with pytest.raises(DimensionError, match=r"^the planes of one frame must share one shape, got 8x8, 10x6$"):
            denoise_planes(planes, DenoiserConfig(kind=kind))

    @pytest.mark.parametrize("kind", DENOISER_KINDS)
    def test_no_planes_give_no_planes(self, kind):
        assert denoise_planes([], DenoiserConfig(kind=kind)) == []

    def test_sigma_zero_hands_back_the_planes(self, monkeypatch):
        monkeypatch.setattr(_kernel, "_cpus", lambda: 2)
        planes = [Plane(np.random.default_rng(94).random((512, 512))) for _ in range(3)]
        assert all(got is plane for got, plane in zip(denoise_planes(planes, DenoiserConfig(kind="wavelet", sigma_n=0.0)), planes))

    def test_band_walked_kinds_run_on_the_calling_thread(self, by_cpus):
        planes = [Plane(np.random.default_rng(95).random((512, 512))) for _ in range(3)]
        for kind in ("none", "gaussian", "median"):
            got = by_cpus(lambda: [plane.data.tobytes() for plane in denoise_planes(planes, DenoiserConfig(kind=kind))], cpus=(1, 2))
            assert got[1] == got[2] == ([denoise_plane(plane, DenoiserConfig(kind=kind)).data.tobytes() for plane in planes], ())

    def test_a_failing_plane_raises_and_leaves_no_thread(self, monkeypatch, by_cpus):
        # A one-row plane has no 2 x 2 block to estimate sigma from; with the
        # size rule at 0, even these planes run on threads.
        monkeypatch.setattr(denoise, "_POOLED_SAMPLES", 0)
        planes = [Plane(np.full((1, 40), 0.5)) for _ in range(3)]
        threads = threading.active_count()

        def call():
            with pytest.raises(DimensionError, match=r"^sigma estimation needs at least 2x2 samples, got 40x1$"):
                denoise_planes(planes, DenoiserConfig(kind="wavelet"))
            return threading.active_count()

        assert by_cpus(call, cpus=(1, 2, 3, 4)) == {1: (threads, ()), 2: (threads, (2,)), 3: (threads, (3,)), 4: (threads, (3,))}

    @pytest.mark.parametrize("sigma_n", [None, 0.02])
    def test_memory_is_the_outputs_and_a_buffer_set_per_thread(self, by_cpus, peak_bytes, sigma_n):
        # A set holds every level's four subbands (4/3 plane) and two spares of
        # a finest subband: 1.83 planes. Three planes read 4.88 planes at one
        # thread and 6.73 at two.
        planes = [Plane(0.5 + 0.05 * np.random.default_rng(96 + k).standard_normal((512, 512))) for k in range(3)]
        plane = planes[0].data.nbytes
        config = DenoiserConfig(kind="wavelet", sigma_n=sigma_n)
        got = by_cpus(lambda: peak_bytes(lambda: denoise_planes(planes, config)), cpus=(1, 2))
        assert [pools for _, pools in got.values()] == [(), (2,)]
        assert got[1][0] < 5 * plane and got[2][0] < 7 * plane

    @pytest.mark.parametrize("sigma_n", [None, 0.02])
    def test_a_padded_frame_takes_at_most_one_pad_per_thread(self, by_cpus, peak_bytes, sigma_n):
        # 363 x 365 planes pad to 368^2 at 3 levels, on the thread that
        # denoises them, and free the pad when done. Temporaries outside the
        # buffer set read about 0.15 MiB per thread.
        shape, levels = (363, 365), 3
        planes = [Plane(0.5 + 0.05 * np.random.default_rng(97 + k).standard_normal(shape)) for k in range(3)]
        subbands, *spares = denoise._wavelet_buffers(shape, levels)
        buffer_set = sum(band.nbytes for level in subbands for band in level) + sum(spare.nbytes for spare in spares)
        pad = 368 * 368 * 8
        config = DenoiserConfig(kind="wavelet", levels=levels, sigma_n=sigma_n)
        got = by_cpus(lambda: peak_bytes(lambda: denoise_planes(planes, config)), cpus=(1, 2))
        assert [pools for _, pools in got.values()] == [(), (2,)]
        for cpus, (peak, _) in got.items():
            assert peak < 3 * planes[0].data.nbytes + cpus * (buffer_set + pad + 2**18), cpus

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 64), (128, 200), (256, 256)])
    def test_variance_is_np_var_bit_for_bit(self, shape):
        band = 0.7 + 1e-3 * np.random.default_rng(98).standard_normal(shape)
        assert denoise._variance(band, np.empty(shape)) == float(band.var())


class TestOneBlockPerFrame:
    """denoise_planes writes a frame's planes into one block, with the bytes of denoise_plane."""

    CONFIGS = [DenoiserConfig(kind=kind) for kind in DENOISER_KINDS] + [DenoiserConfig(kind="median", radius=2)]

    @pytest.mark.parametrize("strip", [None, 7])
    @pytest.mark.parametrize("shape", [(9, 7), (8, 6), (33, 40)])
    @pytest.mark.parametrize("count", [3, 4])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.describe())
    def test_a_frame_matches_its_planes_one_by_one(self, monkeypatch, config, count, shape, strip):
        if strip is not None:
            monkeypatch.setattr(_kernel, "_STRIP", strip)
        rng = np.random.default_rng(101)
        planes = [Plane(0.5 + 0.05 * rng.standard_normal(shape)) for _ in range(count)]
        got = denoise_planes(planes, config)
        assert len(got) == count
        for denoised, plane in zip(got, planes):
            assert same(denoised.data, denoise_plane(plane, config).data)

    # Separate allocations for a frame's planes cost a sweep thousands of
    # page faults a pass, and no output would show it.
    @pytest.mark.parametrize("config", CONFIGS[1:], ids=lambda config: config.describe())
    def test_the_planes_are_views_of_one_block(self, config):
        rng = np.random.default_rng(102)
        got = denoise_planes([Plane(0.5 + 0.05 * rng.standard_normal((9, 8))) for _ in range(3)], config)
        block = got[0].data.base
        assert block.shape == (3, 9, 8)
        assert all(plane.data.base is block and same(plane.data, block[i]) for i, plane in enumerate(got))


class TestWavelet:
    def test_sigma_zero_is_identity(self):
        plane = Plane(np.random.default_rng(81).random((16, 16)))
        out = denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=3, sigma_n=0.0))
        assert np.array_equal(out.data, plane.data)

    def test_auto_equals_explicit_estimate(self):
        plane = Plane(0.5 + 0.05 * normal_field(82, 32, 32))
        auto = denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=2))
        explicit = denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=2, sigma_n=estimate_sigma(plane)))
        np.testing.assert_array_equal(auto.data, explicit.data)

    @pytest.mark.parametrize("levels,sigma_n", [(1, 0.02), (2, 0.05), (3, 0.1)])
    def test_matches_independent_oracle(self, levels, sigma_n):
        rng = np.random.default_rng(83)
        data = 0.5 + 0.1 * rng.standard_normal((16, 24))
        got = denoise_plane(Plane(data), DenoiserConfig(kind="wavelet", levels=levels, sigma_n=sigma_n))
        want = _wavelet_oracle(data, levels, sigma_n)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-9)

    def test_zero_signal_subbands_collapse_to_block_means(self):
        # With sigma_n far above the noise, every detail band is zeroed and
        # each 2^levels block reconstructs to its own mean.
        levels = 3
        rng = np.random.default_rng(84)
        data = 0.6 + 0.01 * rng.standard_normal((32, 32))
        out = denoise_plane(Plane(data), DenoiserConfig(kind="wavelet", levels=levels, sigma_n=0.5))
        block = 2**levels
        means = data.reshape(32 // block, block, 32 // block, block).mean(axis=(1, 3))
        expected = np.repeat(np.repeat(means, block, axis=0), block, axis=1)
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_pure_noise_halved(self):
        noise = 0.1 * normal_field(85, 512, 512)
        out = denoise_plane(Plane(noise), DenoiserConfig(kind="wavelet", levels=3, sigma_n=0.1))
        assert np.mean(out.data**2) <= 0.5 * np.mean(noise**2)

    def test_gradient_plus_noise_improves(self):
        yy, xx = np.mgrid[0:64, 0:64] / 63.0
        clean = 0.2 + 0.3 * xx + 0.3 * yy
        noisy = clean + 0.05 * normal_field(86, 64, 64)
        out = denoise_plane(Plane(noisy), DenoiserConfig(kind="wavelet", levels=3))
        assert np.mean((out.data - clean) ** 2) < np.mean((noisy - clean) ** 2)

    def test_ll_band_untouched(self):
        plane = Plane(0.5 + 0.05 * normal_field(87, 32, 32))
        out = denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=2, sigma_n=0.05))
        np.testing.assert_allclose(haar.dwt(out.data, 2)[0], haar.dwt(plane.data, 2)[0], atol=1e-9)

    def test_bad_sigma_n(self):
        with pytest.raises(ValueError):
            denoise_plane(Plane(np.zeros((8, 8))), DenoiserConfig(kind="wavelet", levels=1, sigma_n=-0.1))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (10, 12), (13, 8), (50, 50), (100, 100)])
    def test_pads_sizes_not_divisible_by_the_block_and_crops_back(self, shape):
        # Mirror-padded at the bottom and right to multiples of 2^levels.
        levels, sigma_n = 3, 0.05
        h, w = shape
        data = 0.5 + 0.1 * np.random.default_rng(88).standard_normal(shape)
        rows = [reflect(i, h) for i in range(h + -h % 8)]
        cols = [reflect(j, w) for j in range(w + -w % 8)]
        want = _wavelet_oracle(data[np.ix_(rows, cols)], levels, sigma_n)[:h, :w]
        np.testing.assert_allclose(denoise_plane(Plane(data), DenoiserConfig(kind="wavelet", levels=levels, sigma_n=sigma_n)).data, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 3), (3, 2), (5, 7), (9, 16), (16, 9), (33, 17)])
    @pytest.mark.parametrize("levels", [1, 3, 6])
    def test_the_pad_is_np_pad_cropped_back(self, shape, levels):
        # Bit for bit: the plane padded by np.pad beforehand, denoised with no
        # pad of its own, and cropped to the plane's sides.
        data = np.random.default_rng(97).random(shape)
        padded = np.pad(data, ((0, -shape[0] % 2**levels), (0, -shape[1] % 2**levels)), mode="reflect")
        want = denoise_plane(Plane(padded), DenoiserConfig(kind="wavelet", levels=levels, sigma_n=0.05)).data[: shape[0], : shape[1]]
        assert same(denoise_plane(Plane(data), DenoiserConfig(kind="wavelet", levels=levels, sigma_n=0.05)).data, want)

    def test_a_sigma_whose_square_overflows_zeroes_every_subband(self):
        # The estimate, about 3e160, squares past a Python float's range.
        board = np.where(np.add.outer(np.arange(16), np.arange(16)) % 2, 1e160, -1e160)
        assert np.array_equal(denoise_plane(Plane(board), DenoiserConfig(kind="wavelet", levels=1)).data, np.zeros((16, 16)))

    def test_coefficients_that_overflow_zero_their_subbands(self):
        # HH of a +-1.5e308 board is -inf: the estimate is inf, with no
        # overflow warning (which tier-1 makes an error), and inf - inf makes
        # NaN variances, which zero their subbands as an infinite sigma does.
        board = np.where(np.add.outer(np.arange(16), np.arange(16)) % 2, 1.5e308, -1.5e308)
        assert estimate_sigma(Plane(board)) == math.inf
        assert np.array_equal(denoise_plane(Plane(board), DenoiserConfig(kind="wavelet", levels=2)).data, np.zeros((16, 16)))

    def test_auto_sigma_is_estimated_before_padding(self):
        plane = Plane(0.5 + 0.05 * normal_field(89, 20, 28))
        explicit = denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=3, sigma_n=estimate_sigma(plane)))
        np.testing.assert_array_equal(denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=3)).data, explicit.data)


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


# One non-default value per config field, which its text form must carry exactly.
_OTHER_VALUES = {"sigma_s": 2.5, "radius": 2, "sigma_r": math.inf, "levels": 4, "sigma_n": 0.05}
# Values that six significant digits do not tell apart or read back.
_LONG_VALUES = {"sigma_s": (1.2345678, 1.2345671), "sigma_r": (1.2345678, 1.2345671), "sigma_n": (0.123456789,)}


class TestConfigFields:
    def test_every_config_field_is_in_the_table(self):
        for config in (DenoiserConfig, DemosaickerConfig):
            names = {field.name for field in dataclasses.fields(config)} - {"kind"}
            assert names <= set(CONFIG_FIELDS) == set(_OTHER_VALUES)

    @pytest.mark.parametrize("name", CONFIG_FIELDS)
    def test_show_reads_back(self, name):
        field = CONFIG_FIELDS[name]
        defaults = [getattr(config(), name) for config in (DenoiserConfig, DemosaickerConfig) if hasattr(config(), name)]
        for value in [*defaults, _OTHER_VALUES[name], *_LONG_VALUES.get(name, ())]:
            field.rule.check(name, value)
            assert field.parse(field.show(value)) == value

    def test_sigma_n_auto_is_none(self):
        field = CONFIG_FIELDS["sigma_n"]
        assert field.show(None) == "auto"
        assert field.parse("auto") is None and field.parse(" AUTO ") is None
        with pytest.raises(ValueError, match=r"^expected a number or 'auto', got 'often'$"):
            field.parse("often")


class TestConfigAndDispatch:
    def test_describe_strings(self):
        assert DenoiserConfig(kind="none").describe() == "none"
        assert DenoiserConfig(kind="gaussian", sigma_s=1.5).describe() == "gaussian(sigma_s=1.5)"
        assert DenoiserConfig(kind="median", radius=2).describe() == "median(radius=2)"
        assert DenoiserConfig(kind="bilateral", sigma_s=1.2, sigma_r=0.08).describe() == "bilateral(sigma_s=1.2 sigma_r=0.08)"
        assert DenoiserConfig(kind="wavelet", levels=3).describe() == "wavelet(levels=3 sigma_n=auto)"
        assert DenoiserConfig(kind="wavelet", levels=2, sigma_n=0.05).describe() == "wavelet(levels=2 sigma_n=0.05)"
        assert DenoiserConfig(kind="gaussian", sigma_s=1.2345678).describe() == "gaussian(sigma_s=1.2345678)"
        assert DenoiserConfig(kind="gaussian", sigma_s=1.2345671).describe() == "gaussian(sigma_s=1.2345671)"
        assert DenoiserConfig(kind="wavelet", levels=2, sigma_n=0.123456789).describe() == "wavelet(levels=2 sigma_n=0.123456789)"

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
            # radius and levels are integers, bounded so that no window or
            # wavelet padding can ask for more memory than a frame's worth.
            dict(kind="median", radius=1.5),
            dict(kind="median", radius=True),
            dict(kind="median", radius=301),
            dict(kind="wavelet", levels=2.0),
            dict(kind="wavelet", levels=True),
            dict(kind="wavelet", levels=11),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DenoiserConfig(**kwargs)

    def test_integer_fields_at_their_bounds_are_accepted(self):
        assert DenoiserConfig(kind="median", radius=300).describe() == "median(radius=300)"
        assert DenoiserConfig(kind="median", radius=np.int64(2)).describe() == "median(radius=2)"
        assert DenoiserConfig(kind="wavelet", levels=10).describe() == "wavelet(levels=10 sigma_n=auto)"
        plane = Plane(np.random.default_rng(79).random((6, 6)))
        assert denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=10)).data.shape == (6, 6)

    @pytest.mark.parametrize("sigma_n", [1000.5, 1e200, math.inf, math.nan])
    @pytest.mark.parametrize(
        "build",
        [
            lambda sigma_n: DenoiserConfig(kind="wavelet", sigma_n=sigma_n),
            lambda sigma_n: denoise_plane(Plane(np.zeros((8, 8))), DenoiserConfig(kind="wavelet", levels=1, sigma_n=sigma_n)),
        ],
        ids=["wavelet-config", "wavelet"],
    )
    def test_sigma_n_above_1000_is_rejected(self, build, sigma_n):
        with pytest.raises(ValueError, match=r"^sigma_n must be finite, >= 0 and <= 1000, got "):
            build(sigma_n)

    def test_sigma_n_of_1000_is_accepted(self):
        assert DenoiserConfig(kind="wavelet", sigma_n=1000.0).describe() == "wavelet(levels=3 sigma_n=1000)"
        plane = Plane(np.random.default_rng(76).random((8, 8)))
        assert np.all(np.isfinite(denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=1, sigma_n=1000.0)).data))

    def test_estimated_sigma_n_may_exceed_the_bound(self):
        plane = Plane(1500.0 * normal_field(77, 16, 16))
        assert estimate_sigma(plane) > 1000.0
        assert np.all(np.isfinite(denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=1)).data))

    def test_estimated_sigma_n_may_exceed_the_bound_on_a_padded_plane(self):
        plane = Plane(1500.0 * normal_field(78, 20, 20))  # 20 is not a multiple of 2^3
        assert estimate_sigma(plane) > 1000.0
        out = denoise_plane(plane, DenoiserConfig(kind="wavelet", levels=3)).data
        assert out.shape == (20, 20) and np.all(np.isfinite(out))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DenoiserConfig(kind="gaussian", sigma_s=math.inf),
            lambda: DenoiserConfig(kind="bilateral", sigma_s=math.inf),
            lambda: DemosaickerConfig(kind="joint-bilateral", sigma_s=math.inf),
            lambda: denoise_plane(Plane(np.zeros((4, 4))), DenoiserConfig(kind="gaussian", sigma_s=math.inf)),
            lambda: denoise_plane(Plane(np.zeros((4, 4))), DenoiserConfig(kind="bilateral", sigma_s=math.inf, sigma_r=0.1)),
            lambda: demosaic_joint_bilateral(MosaicImage(CfaPattern.GBRG, Plane(np.zeros((4, 4)))), math.inf, 0.1),
        ],
        ids=["gaussian-config", "bilateral-config", "joint-config", "gaussian", "bilateral", "joint"],
    )
    def test_infinite_sigma_s_is_rejected(self, build):
        with pytest.raises(ValueError, match="sigma_s must be finite, >= 1e-154 and <= 100, got inf"):
            build()

    @pytest.mark.parametrize("sigma_s", [100.5, 1e200])
    @pytest.mark.parametrize(
        "build",
        [
            lambda sigma_s: DenoiserConfig(kind="gaussian", sigma_s=sigma_s),
            lambda sigma_s: DenoiserConfig(kind="bilateral", sigma_s=sigma_s),
            lambda sigma_s: DemosaickerConfig(kind="joint-bilateral", sigma_s=sigma_s),
            lambda sigma_s: denoise_plane(Plane(np.zeros((8, 8))), DenoiserConfig(kind="gaussian", sigma_s=sigma_s)),
            lambda sigma_s: denoise_plane(Plane(np.zeros((8, 8))), DenoiserConfig(kind="bilateral", sigma_s=sigma_s, sigma_r=0.1)),
            lambda sigma_s: demosaic_joint_bilateral(MosaicImage(CfaPattern.GBRG, Plane(np.zeros((8, 8)))), sigma_s, 0.1),
        ],
        ids=["gaussian-config", "bilateral-config", "joint-config", "gaussian", "bilateral", "joint"],
    )
    def test_sigma_s_above_100_is_rejected(self, build, sigma_s):
        with pytest.raises(ValueError, match=r"^sigma_s must be finite, >= 1e-154 and <= 100, got "):
            build(sigma_s)

    def test_sigma_s_of_100_is_accepted(self):
        assert DenoiserConfig(kind="bilateral", sigma_s=100.0).describe() == "bilateral(sigma_s=100 sigma_r=0.1)"
        assert DemosaickerConfig(kind="joint-bilateral", sigma_s=100.0).describe() == "joint-bilateral(sigma_s=100 sigma_r=0.1)"
        out = denoise_plane(Plane(np.full((4, 4), 0.25)), DenoiserConfig(kind="gaussian", sigma_s=100.0))
        np.testing.assert_allclose(out.data, 0.25, rtol=0, atol=1e-15)

    def test_infinite_sigma_r_means_spatial_weights(self):
        plane = Plane(np.random.default_rng(94).random((10, 12)))
        config = DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=math.inf)
        assert config.describe() == "bilateral(sigma_s=1 sigma_r=inf)"
        np.testing.assert_allclose(denoise_plane(plane, config).data, denoise_plane(plane, DenoiserConfig(kind="gaussian", sigma_s=1.0)).data, rtol=0, atol=1e-12)
        mosaic = MosaicImage(CfaPattern.RGGB, plane)
        spatial = demosaic_joint_bilateral(mosaic, 1.0, math.inf)
        for got, want in zip(spatial.planes, demosaic_joint_bilateral(mosaic, 1.0, 1e6).planes):
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("sigma_r", [1.2e154, 1e160, 1e200])
    @pytest.mark.parametrize(
        "run",
        [
            lambda plane, sigma_r: (denoise_plane(plane, DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=sigma_r)),),
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

    @pytest.mark.parametrize("sigma_s", [6e-155, 1e-156, 1e-160, 1e-200])
    @pytest.mark.parametrize(
        "run",
        [
            lambda plane, sigma_s: DenoiserConfig(kind="gaussian", sigma_s=sigma_s),
            lambda plane, sigma_s: DenoiserConfig(kind="bilateral", sigma_s=sigma_s),
            lambda plane, sigma_s: DemosaickerConfig(kind="joint-bilateral", sigma_s=sigma_s),
            lambda plane, sigma_s: denoise_plane(plane, DenoiserConfig(kind="gaussian", sigma_s=sigma_s)),
            lambda plane, sigma_s: denoise_plane(plane, DenoiserConfig(kind="bilateral", sigma_s=sigma_s, sigma_r=0.1)),
            lambda plane, sigma_s: demosaic_joint_bilateral(MosaicImage(CfaPattern.GBRG, plane), sigma_s, 0.1),
        ],
        ids=["gaussian-config", "bilateral-config", "joint-config", "gaussian", "bilateral", "joint"],
    )
    def test_tiny_sigma_s_is_rejected(self, run, sigma_s):
        # The field's rule rejects any value below the floor of 1e-154,
        # naming it. Below about 5.27e-155, 1 / (2 sigma_s**2) overflows (or
        # sigma_s**2 underflows to 0) and no weight exists.
        with pytest.raises(ValueError, match=r"^sigma_s must be finite, >= 1e-154 and <= 100, got "):
            run(Plane(np.zeros((8, 8))), sigma_s)

    @pytest.mark.parametrize("sigma_r", [6e-155, 1e-156, 1e-200])
    def test_tiny_sigma_r_is_rejected(self, sigma_r):
        with pytest.raises(ValueError, match=r"^sigma_r must be in float range and >= 1e-154, or inf, got "):
            denoise_plane(Plane(np.zeros((8, 8))), DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=sigma_r))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DenoiserConfig(kind="bilateral", sigma_r=10**400).describe(),
            lambda: denoise_plane(Plane(np.zeros((8, 8))), DenoiserConfig(kind="bilateral", sigma_s=1.0, sigma_r=10**400)),
            lambda: DemosaickerConfig(kind="joint-bilateral", sigma_r=10**400),
        ],
        ids=["bilateral-config", "bilateral", "joint-config"],
    )
    def test_sigma_r_beyond_float_range_is_rejected(self, build):
        # An int no float can hold is one ValueError, not an OverflowError
        # from its conversion.
        with pytest.raises(ValueError, match=r"^sigma_r must be in float range and >= 1e-154, or inf, got 10{400}$"):
            build()

    @pytest.mark.parametrize("kind", ["gaussian", "bilateral"])
    def test_smallest_accepted_sigma_s_is_identity(self, kind):
        plane = Plane(np.random.default_rng(96).random((8, 8)))
        np.testing.assert_array_equal(denoise_plane(plane, DenoiserConfig(kind=kind, sigma_s=1e-154)).data, plane.data)

    def test_none_returns_same_plane(self):
        plane = Plane(np.random.default_rng(92).random((4, 4)))
        assert denoise_plane(plane, DenoiserConfig(kind="none")) is plane


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
