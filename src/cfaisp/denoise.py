"""Single-plane denoisers and their application to CFA sub-images.

Four filters with one shared contract (Plane in, same-sized Plane out):

- gaussian: separable blur, truncated at three sigmas per side.
- median: square-window rank filter.
- bilateral: edge-preserving blur weighting neighbors by spatial distance
  and intensity difference.
- wavelet: soft thresholding of orthonormal Haar detail coefficients with a
  per-subband data-driven threshold; the coarse approximation is kept as is.

Borders are handled by mirror reflection without duplicating the edge sample.
The wavelet threshold for a subband with noise level sigma_n and signal
spread sigma_x = sqrt(max(var - sigma_n^2, 0)) is sigma_n^2 / sigma_x; a
subband with no estimated signal is zeroed outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.ndimage import convolve1d, median_filter

from cfaisp.cfa import SubImages
from cfaisp.imageio import DimensionError, Plane
from cfaisp.noise import estimate_sigma

_SQRT2 = math.sqrt(2.0)

# Each config field a method can read: its range test, how error messages
# word that test, and how describe() renders the value.
_FIELDS = {
    "sigma_s": (lambda v: math.isfinite(v) and v > 0, "finite and > 0", "{:g}".format),
    "sigma_r": (lambda v: v > 0, "> 0", "{:g}".format),
    "radius": (lambda v: v >= 1, ">= 1", str),
    "levels": (lambda v: v >= 1, ">= 1", str),
    "sigma_n": (lambda v: v is None or (math.isfinite(v) and v >= 0), "finite and >= 0", lambda v: "auto" if v is None else f"{v:g}"),
}


def check_method(config, table: dict, family: str) -> None:
    """Reject an unknown config.kind, or an out-of-range field that kind reads.

    table maps each kind to (implementation, the config fields it reads); the
    denoiser and demosaicker configs share this check and describe_method.
    """
    if config.kind not in table:
        raise ValueError(f"unknown {family} kind {config.kind!r}; expected one of {tuple(table)}")
    for name in table[config.kind][1]:
        test, need, _ = _FIELDS[name]
        value = getattr(config, name)
        if not test(value):
            raise ValueError(f"{name} must be {need}, got {value}")


def describe_method(config, table: dict) -> str:
    """Comma-free descriptor kind(field=value ...) over the fields the kind reads."""
    params = " ".join(f"{name}={_FIELDS[name][2](getattr(config, name))}" for name in table[config.kind][1])
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
    return Plane(current)


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


def denoise_gaussian(plane: Plane, sigma_s: float) -> Plane:
    """Separable Gaussian blur with a renormalized +/- 3 sigma kernel."""
    if not (math.isfinite(sigma_s) and sigma_s > 0):
        raise ValueError(f"sigma_s must be finite and > 0, got {sigma_s}")
    kernel = _gaussian_kernel(sigma_s)
    blurred = convolve1d(plane.data, kernel, axis=0, mode="mirror")
    blurred = convolve1d(blurred, kernel, axis=1, mode="mirror")
    return Plane(blurred)


def denoise_median(plane: Plane, radius: int) -> Plane:
    """Median over a (2 radius + 1) square window."""
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    return Plane(median_filter(plane.data, size=2 * radius + 1, mode="mirror"))


def _bilateral(data, guide, sigma_s, sigma_r, step=1, py=0, px=0, bucket=lambda row, col: None) -> dict:
    """Bilateral means of data on the lattice guide[py::step, px::step], one per bucket.

    Weights are exp(-d^2 / 2 sigma_s^2) exp(-(g_p - g_q)^2 / 2 sigma_r^2) over
    a +/- ceil(3 sigma_s) window, g read from guide. A sample joins the mean of
    bucket(row, col), its full-frame site; mirror reflection keeps an index's
    parity on an even-size frame, so a bucket keyed by tile site holds one
    color at the borders too. A weight sum below the smallest normal float
    takes the spatial-only mean (the sigma_r -> inf limit).
    """
    if not (math.isfinite(sigma_s) and sigma_s > 0):
        raise ValueError(f"sigma_s must be finite and > 0, got {sigma_s}")
    if not sigma_r > 0:
        raise ValueError(f"sigma_r must be > 0, got {sigma_r}")
    inv_2ss = 1.0 / _two_variance("sigma_s", sigma_s)
    inv_2sr = 1.0 / _two_variance("sigma_r", sigma_r)
    radius = math.ceil(3.0 * sigma_s)
    center = guide[py::step, px::step]
    h, w = center.shape
    data_pad = np.pad(data, radius, mode="reflect")
    guide_pad = data_pad if guide is data else np.pad(guide, radius, mode="reflect")
    offsets = range(-radius, radius + 1)
    # Accumulators made on first use inside the loop ran 15% slower at 512x512.
    keys = dict.fromkeys(bucket(py + dy, px + dx) for dy in offsets for dx in offsets)
    sums = {key: (np.zeros((h, w)), np.zeros((h, w))) for key in keys}
    for dy in offsets:
        rows = slice(radius + py + dy, radius + py + dy + step * h, step)
        for dx in offsets:
            cols = slice(radius + px + dx, radius + px + dx + step * w, step)
            spatial = math.exp(-(dy * dy + dx * dx) * inv_2ss)
            weight = spatial * np.exp(-((guide_pad[rows, cols] - center) ** 2) * inv_2sr)
            num, den = sums[bucket(py + dy, px + dx)]
            num += weight * data_pad[rows, cols]
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
    return Plane(mean)


def _soft_threshold(band: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(band) * np.maximum(np.abs(band) - threshold, 0.0)


def denoise_wavelet(plane: Plane, levels: int, sigma_n: Optional[float] = None) -> Plane:
    """Soft-threshold Haar detail coefficients, one threshold per subband.

    sigma_n=None estimates the noise level from the plane itself. sigma_n=0
    returns the input unchanged (every threshold would be zero).
    """
    if sigma_n is None:
        sigma_n = estimate_sigma(plane)
    if sigma_n < 0 or not math.isfinite(sigma_n):
        raise ValueError(f"sigma_n must be finite and >= 0, got {sigma_n}")
    if sigma_n == 0.0:
        return plane
    pyramid = dwt_haar(plane, levels)
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
    return idwt_haar(WaveletPyramid(ll=pyramid.ll, details=tuple(new_details)))


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
    return SubImages(*planes, pattern=subs.pattern, full_width=subs.full_width, full_height=subs.full_height)
