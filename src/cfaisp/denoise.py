"""Single-plane denoisers and their application to CFA sub-images.

Four filters with one shared contract (Plane in, same-sized Plane out):

- gaussian: separable blur, truncated at three sigmas per side, as one
  vertical and one horizontal pass over shifted views of the padded plane.
- median: the middle value of each (2 radius + 1)^2 window, walked in tiles.
  Radius 1 runs a pruned 19-exchange sorting network of elementwise min/max
  over the nine shifted views; larger radii partition each tile's windows.
- bilateral: edge-preserving blur weighting neighbors by spatial distance
  and intensity difference.
- wavelet: soft thresholding of orthonormal Haar detail coefficients with a
  per-subband data-driven threshold; the coarse approximation is kept as is.

Borders are handled by mirror reflection without duplicating the edge sample.
_shifted is the one place that pads for it: the gaussian, median and
bilateral filters and the linear and joint demosaickers read every neighbour
through its views. The wavelet pads a plane whose sides are not multiples of
2^levels the same way, at the bottom and right, and crops the result back.

The wavelet threshold for a subband with noise level sigma_n and signal
spread sigma_x = sqrt(max(var - sigma_n^2, 0)) is sigma_n^2 / sigma_x; a
subband with no estimated signal is zeroed outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cfaisp.cfa import SubImages
from cfaisp.imageio import DimensionError, Plane
from cfaisp.noise import SIGMA_RANGE, estimate_sigma, is_int, sigma_in_range

_SQRT2 = math.sqrt(2.0)

# The largest spatial sigma, a 601 x 601 window. A bound tied to the frame
# size would reject the default sigma_s on the 1x1 sub-images of a 2x2 mosaic.
SIGMA_S_MAX = 100.0
# The largest median radius: the same 601 x 601 window.
RADIUS_MAX = math.ceil(3 * SIGMA_S_MAX)
# The most wavelet levels. Padding a side to a multiple of 2^levels then adds
# fewer than 1,024 rows or columns, so a 2 x 2 plane grows to at most 8 MiB.
LEVELS_MAX = 10


# Each config field a method can read: its range test, how error messages
# word that test, and how describe() renders the value. The CLI types its
# parameter flags with the same tests and wording.
CONFIG_FIELDS = {
    "sigma_s": (lambda v: math.isfinite(v) and 0 < v <= SIGMA_S_MAX, f"finite, > 0 and <= {SIGMA_S_MAX:g}", "{:g}".format),
    "sigma_r": (lambda v: v > 0, "> 0", "{:g}".format),
    "radius": (lambda v: is_int(v) and 1 <= v <= RADIUS_MAX, f"an integer in [1, {RADIUS_MAX}]", str),
    "levels": (lambda v: is_int(v) and 1 <= v <= LEVELS_MAX, f"an integer in [1, {LEVELS_MAX}]", str),
    "sigma_n": (lambda v: v is None or sigma_in_range(v), SIGMA_RANGE, lambda v: "auto" if v is None else f"{v:g}"),
}


def _check_field(name: str, value) -> None:
    """Raise ValueError if value is outside the range of the config field name."""
    test, need, _ = CONFIG_FIELDS[name]
    if not test(value):
        raise ValueError(f"{name} must be {need}, got {value}")


def check_method(config, table: dict, family: str) -> None:
    """Reject an unknown config.kind, or an out-of-range field that kind reads.

    table maps each kind to (implementation, the config fields it reads); the
    denoiser and demosaicker configs share this check and describe_method.
    """
    if config.kind not in table:
        raise ValueError(f"unknown {family} kind {config.kind!r}; expected one of {tuple(table)}")
    for name in table[config.kind][1]:
        _check_field(name, getattr(config, name))


def describe_method(config, table: dict) -> str:
    """Comma-free descriptor kind(field=value ...) over the fields the kind reads."""
    params = " ".join(f"{name}={CONFIG_FIELDS[name][2](getattr(config, name))}" for name in table[config.kind][1])
    return f"{config.kind}({params})" if params else config.kind


@dataclass(frozen=True)
class DenoiserConfig:
    """Denoiser selection plus the parameters the chosen kind reads.

    kind "none" is the identity filter, kept so pipelines can be configured
    with denoising disabled without special-casing call sites. sigma_n=None
    asks the wavelet filter to estimate the noise level from each plane it
    processes.
    """

    kind: str = "wavelet"
    sigma_s: float = 1.0
    radius: int = 1
    sigma_r: float = 0.1
    levels: int = 3
    sigma_n: Optional[float] = None

    def __post_init__(self) -> None:
        check_method(self, _DENOISERS, "denoiser")

    def describe(self) -> str:
        """Compact comma-free descriptor used in CSV output."""
        return describe_method(self, _DENOISERS)


@dataclass(frozen=True)
class WaveletPyramid:
    """Orthonormal Haar decomposition: coarse LL plus per-level detail triples.

    details[0] is the finest level; each entry is (LH, HL, HH) where the
    first letter is the vertical filter and the second the horizontal one.
    """

    ll: np.ndarray
    details: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def levels(self) -> int:
        return len(self.details)


def dwt_haar(plane: Plane, levels: int) -> WaveletPyramid:
    """Multi-level orthonormal 2-D Haar transform.

    Both dimensions must be divisible by 2**levels. The (a +/- b) / sqrt(2)
    filter pair preserves energy exactly, so the inverse below reconstructs
    to floating-point roundoff.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    h, w = plane.data.shape
    factor = 2**levels
    if h % factor or w % factor:
        raise DimensionError(f"dimensions {w}x{h} not divisible by 2^{levels}")
    current = plane.data
    details = []
    for _ in range(levels):
        lo = (current[:, 0::2] + current[:, 1::2]) / _SQRT2
        hi = (current[:, 0::2] - current[:, 1::2]) / _SQRT2
        ll = (lo[0::2, :] + lo[1::2, :]) / _SQRT2
        hl = (lo[0::2, :] - lo[1::2, :]) / _SQRT2
        lh = (hi[0::2, :] + hi[1::2, :]) / _SQRT2
        hh = (hi[0::2, :] - hi[1::2, :]) / _SQRT2
        details.append((lh, hl, hh))
        current = ll
    return WaveletPyramid(ll=current, details=tuple(details))


def idwt_haar(pyramid: WaveletPyramid) -> Plane:
    """Invert dwt_haar, coarsest level first."""
    current = pyramid.ll
    for lh, hl, hh in reversed(pyramid.details):
        lo = np.empty((current.shape[0] * 2, current.shape[1]), dtype=np.float64)
        lo[0::2, :] = (current + hl) / _SQRT2
        lo[1::2, :] = (current - hl) / _SQRT2
        hi = np.empty_like(lo)
        hi[0::2, :] = (lh + hh) / _SQRT2
        hi[1::2, :] = (lh - hh) / _SQRT2
        out = np.empty((lo.shape[0], lo.shape[1] * 2), dtype=np.float64)
        out[:, 0::2] = (lo + hi) / _SQRT2
        out[:, 1::2] = (lo - hi) / _SQRT2
        current = out
    # A pyramid with no detail levels hands back the caller's own ll array.
    return Plane(current) if current is pyramid.ll else Plane._adopt(current)


def _two_variance(name: str, sigma: float) -> float:
    """2 sigma^2, the divisor in a Gaussian weight's exponent.

    A square too large for a float gives inf, so the weights take their
    sigma -> inf limit. A sigma so small that 1 / (2 sigma^2) is not a finite
    float gives no weights at all and is rejected.
    """
    try:
        two_var = 2.0 * sigma**2
    except OverflowError:
        return math.inf
    if two_var == 0.0 or math.isinf(1.0 / two_var):
        raise ValueError(f"{name}={sigma:g} is too small: 1 / (2 {name}^2) overflows")
    return two_var


def _gaussian_kernel(sigma_s: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma_s)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / _two_variance("sigma_s", sigma_s))
    return kernel / kernel.sum()


def _shifted(data: np.ndarray, radius: int, step: int = 1, py: int = 0, px: int = 0):
    """Neighbour reads on the lattice data[py::step, px::step], from one mirror pad.

    Pads data by radius on every side once, reflecting without duplicating
    the edge sample, and returns view(dy, dx, rows, cols): the lattice moved
    by (dy, dx) full-frame samples, rows x cols lattice samples from its
    first (the whole lattice by default). Mirror reflection keeps an index's
    parity on an even-size frame, so a step-2 view reads one tile site.
    """
    pad = np.pad(data, radius, mode="reflect")
    h, w = len(range(py, data.shape[0], step)), len(range(px, data.shape[1], step))

    def view(dy: int, dx: int, rows: int = h, cols: int = w) -> np.ndarray:
        y, x = radius + py + dy, radius + px + dx
        return pad[y : y + step * rows : step, x : x + step * cols : step]

    return view


def _blur_line(at, kernel: np.ndarray) -> np.ndarray:
    """Sum of kernel[r + j] * at(j) over |j| <= r, for a symmetric odd-length kernel.

    The center tap comes first, then (at(-j) + at(j)) * kernel[r - j] for j
    from r down to 1, the order scipy.ndimage.convolve1d sums a symmetric
    kernel in, so the values equal convolve1d(mode="mirror") bit for bit.
    """
    r = len(kernel) // 2
    out = np.multiply(at(0), kernel[r])
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(at(-j), at(j), out=pair)
        np.add(out, np.multiply(pair, kernel[r - j], out=pair), out=out)
    return out


def denoise_gaussian(plane: Plane, sigma_s: float) -> Plane:
    """Separable Gaussian blur with a renormalized +/- 3 sigma kernel.

    The vertical pass also blurs the padding columns: each is a copy of the
    column it mirrors, so its blur is that column's blur, and the horizontal
    pass reads a plane already padded. One pad serves both passes.
    """
    _check_field("sigma_s", sigma_s)
    kernel = _gaussian_kernel(sigma_s)
    r = len(kernel) // 2
    h, w = plane.data.shape
    at = _shifted(plane.data, r)
    columns = _blur_line(lambda dy: at(dy, -r, h, w + 2 * r), kernel)
    return Plane._adopt(_blur_line(lambda dx: columns[:, r + dx : r + dx + w], kernel))


# Paeth's 19-exchange network for the median of nine ("Median finding on a
# 3x3 grid", Graphics Gems, 1990). Exchange (i, j) leaves the min in p[i] and
# the max in p[j]; "lo" or "hi" keeps one side only, where the other is never
# read again on the way to the middle value p[4].
_MEDIAN9 = (
    (1, 2, "both"), (4, 5, "both"), (7, 8, "both"),
    (0, 1, "both"), (3, 4, "both"), (6, 7, "both"),
    (1, 2, "both"), (4, 5, "both"), (7, 8, "both"),
    (0, 3, "hi"), (5, 8, "lo"), (4, 7, "both"),
    (3, 6, "hi"), (1, 4, "hi"), (2, 5, "lo"),
    (4, 7, "lo"), (4, 2, "both"), (6, 4, "hi"), (4, 2, "lo"),
)  # fmt: skip

# Output samples per tile of the 3x3 median: the network's ten tile-sized
# buffers then stay in cache (whole 256x256 planes ran 3x slower). A larger
# window's tile holds as many samples, 9 x _MEDIAN_STRIP, or one window.
_MEDIAN_STRIP = 16384


def _median9(p: list) -> np.ndarray:
    """Elementwise median of nine same-shaped arrays; p's entries are replaced."""
    own = [False] * 9  # p[k] is a buffer made here, free to overwrite
    spare = None
    for i, j, keep in _MEDIAN9:
        if keep == "both":
            lo = np.minimum(p[i], p[j], out=spare)
            spare = p[i] if own[i] else None
            p[j] = np.maximum(p[i], p[j], out=p[j] if own[j] else None)
            p[i] = lo
            own[i] = own[j] = True
        elif keep == "lo":
            p[i] = np.minimum(p[i], p[j], out=p[i] if own[i] else None)
            own[i] = True
        else:
            p[j] = np.maximum(p[i], p[j], out=p[j] if own[j] else None)
            own[j] = True
    return p[4]


def denoise_median(plane: Plane, radius: int) -> Plane:
    """Median over a (2 radius + 1) square window, one tile at a time.

    Radius 1 runs a sorting network over the nine shifted views of the
    mirror-padded plane; a larger window takes the middle element of a
    partition over each tile's windows.
    """
    _check_field("radius", radius)
    h, w = plane.data.shape
    at = _shifted(plane.data, radius)
    side = 2 * radius + 1
    size = side * side
    tile = max(1, 9 * _MEDIAN_STRIP // size)  # output samples per tile
    cols = min(w, tile)
    rows = min(h, tile // cols)
    out = np.empty((h, w))
    for top in range(0, h, rows):
        for left in range(0, w, cols):
            n, m = min(rows, h - top), min(cols, w - left)
            if radius == 1:
                middle = _median9([at(top + dy, left + dx, n, m) for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
            else:
                windows = sliding_window_view(at(top - radius, left - radius, n + 2 * radius, m + 2 * radius), (side, side))
                middle = np.partition(windows.reshape(n, m, size), size // 2, axis=-1)[..., size // 2]
            out[top : top + n, left : left + m] = middle
    return Plane._adopt(out)


def _bilateral(data, guide, sigma_s, sigma_r, step=1, py=0, px=0, bucket=lambda row, col: None) -> dict:
    """Bilateral means of data on the lattice guide[py::step, px::step], one per bucket.

    Weights are exp(-d^2 / 2 sigma_s^2) exp(-(g_p - g_q)^2 / 2 sigma_r^2) over
    a +/- ceil(3 sigma_s) window, g read from guide. A sample joins the mean of
    bucket(row, col), its full-frame site; mirror reflection keeps an index's
    parity on an even-size frame, so a bucket keyed by tile site holds one
    color at the borders too. A weight sum below the smallest normal float
    takes the spatial-only mean (the sigma_r -> inf limit).
    """
    _check_field("sigma_s", sigma_s)
    _check_field("sigma_r", sigma_r)
    inv_2ss = 1.0 / _two_variance("sigma_s", sigma_s)
    inv_2sr = 1.0 / _two_variance("sigma_r", sigma_r)
    radius = math.ceil(3.0 * sigma_s)
    data_at = _shifted(data, radius, step, py, px)
    guide_at = data_at if guide is data else _shifted(guide, radius, step, py, px)
    center = guide_at(0, 0)
    h, w = center.shape
    offsets = range(-radius, radius + 1)
    # Accumulators made on first use inside the loop ran 15% slower at 512x512.
    keys = dict.fromkeys(bucket(py + dy, px + dx) for dy in offsets for dx in offsets)
    sums = {key: (np.zeros((h, w)), np.zeros((h, w))) for key in keys}
    for dy in offsets:
        for dx in offsets:
            spatial = math.exp(-(dy * dy + dx * dx) * inv_2ss)
            weight = spatial * np.exp(-((guide_at(dy, dx) - center) ** 2) * inv_2sr)
            num, den = sums[bucket(py + dy, px + dx)]
            num += weight * data_at(dy, dx)
            den += weight
    means, spatial_only = {}, None
    for key, (num, den) in sums.items():
        underflow = den < np.finfo(np.float64).tiny
        if not underflow.any():
            means[key] = num / den
        elif math.isinf(sigma_r):
            raise ValueError(f"sigma_s={sigma_s:g} is too small: the spatial weights of some sample underflow")
        else:
            spatial_only = spatial_only or _bilateral(data, guide, sigma_s, math.inf, step, py, px, bucket)
            means[key] = np.divide(num, den, out=spatial_only[key], where=~underflow)
    return means


def denoise_bilateral(plane: Plane, sigma_s: float, sigma_r: float) -> Plane:
    """Bilateral filter: Gaussian in space, Gaussian in intensity difference.

    Each output sample is the weight-normalized mean of its +/- ceil(3 sigma_s)
    window, range-weighted on the plane itself; the center has weight 1.
    """
    (mean,) = _bilateral(plane.data, plane.data, sigma_s, sigma_r).values()
    return Plane._adopt(mean)


def _soft_threshold(band: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(band) * np.maximum(np.abs(band) - threshold, 0.0)


def denoise_wavelet(plane: Plane, levels: int, sigma_n: Optional[float] = None) -> Plane:
    """Soft-threshold Haar detail coefficients, one threshold per subband.

    sigma_n=None estimates the noise level from the plane itself. sigma_n=0
    returns the input unchanged (every threshold would be zero). A plane whose
    sides are not multiples of 2**levels is mirror-padded at the bottom and
    right up to the next multiples, and the result is cropped back.
    """
    _check_field("levels", levels)
    _check_field("sigma_n", sigma_n)
    if sigma_n is None:
        # The bound is on the caller's sigma_n: under sigma = SIGMA_MAX noise
        # a plane's own estimate can exceed it.
        sigma_n = estimate_sigma(plane)
    if sigma_n == 0.0:
        return plane
    h, w = plane.data.shape
    pad = (0, -h % 2**levels), (0, -w % 2**levels)
    padded = Plane._adopt(np.pad(plane.data, pad, mode="reflect")) if pad[0][1] or pad[1][1] else plane
    pyramid = dwt_haar(padded, levels)
    noise_var = sigma_n**2
    new_details = []
    for triple in pyramid.details:
        new_triple = []
        for band in triple:
            signal_var = max(float(band.var()) - noise_var, 0.0)
            if signal_var == 0.0:
                new_triple.append(np.zeros_like(band))
            else:
                threshold = noise_var / math.sqrt(signal_var)
                new_triple.append(_soft_threshold(band, threshold))
        new_details.append(tuple(new_triple))
    out = idwt_haar(WaveletPyramid(ll=pyramid.ll, details=tuple(new_details)))
    return out if padded is plane else Plane(out.data[:h, :w])


# kind -> (filter, the DenoiserConfig fields it takes after the plane).
_DENOISERS = {
    "none": (lambda plane: plane, ()),
    "gaussian": (denoise_gaussian, ("sigma_s",)),
    "median": (denoise_median, ("radius",)),
    "bilateral": (denoise_bilateral, ("sigma_s", "sigma_r")),
    "wavelet": (denoise_wavelet, ("levels", "sigma_n")),
}
DENOISER_KINDS = tuple(_DENOISERS)


def denoise_plane(plane: Plane, config: DenoiserConfig) -> Plane:
    """Apply the configured denoiser to one plane."""
    denoiser, fields = _DENOISERS[config.kind]
    return denoiser(plane, *(getattr(config, field) for field in fields))


def denoise_subimages(subs: SubImages, config: DenoiserConfig) -> SubImages:
    """Denoise the four CFA sub-images independently with one configuration.

    Each half-resolution plane (R, G1, G2, B) is a uniformly sampled image of
    one color class, so the single-plane filters apply without modification.
    """
    planes = (denoise_plane(plane, config) for plane in subs.planes)
    return SubImages(*planes, pattern=subs.pattern)
