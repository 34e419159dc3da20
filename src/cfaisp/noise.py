"""Deterministic sensor noise: seeded Gaussian injection and level estimation.

Randomness comes from a counter-based SplitMix64 generator feeding a
Box-Muller transform, so a (seed, shape) pair always yields the same noise
field on every platform and regardless of call order. Noise is added per
color class with its own sigma and is not clipped: downstream stages see the
same negative and above-range excursions a real sensor pipeline would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfaisp.cfa import MosaicImage
from cfaisp.imageio import DimensionError, Plane

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TO_UNIT = 2.0**-53

# MAD-to-sigma factor for a zero-mean normal: 1 / Phi^-1(3/4).
_MAD_SCALE = 0.6745


@dataclass(frozen=True)
class NoiseSpec:
    """Per-color-class noise levels plus the 64-bit seed that fixes the field."""

    sigma_r: float
    sigma_g: float
    sigma_b: float
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sigma_r", "sigma_g", "sigma_b"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")

    @classmethod
    def uniform(cls, sigma: float, seed: int = 0) -> "NoiseSpec":
        """Same sigma for all three color classes."""
        return cls(sigma_r=sigma, sigma_g=sigma, sigma_b=sigma, seed=seed)


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """Outputs seed+1 .. seed+count of the SplitMix64 stream, as uint64."""
    # All arithmetic stays in uint64 arrays, which wrap mod 2^64 silently.
    index = np.arange(1, count + 1, dtype=np.uint64)
    z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + index * _GOLDEN) & _MASK64
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, count: int) -> np.ndarray:
    """Uniform doubles in [0, 1) built from the top 53 bits of each word."""
    words = _splitmix64(seed, count)
    return (words >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def standard_normals(seed: int, count: int) -> np.ndarray:
    """Deterministic N(0, 1) samples via Box-Muller on SplitMix64 uniforms.

    Consecutive uniform pairs (u1, u2) map to radius sqrt(-2 ln(1 - u1)) and
    angle 2 pi u2; the cosine branch lands at even output indices, the sine
    branch at odd ones. 1 - u1 is never zero, so the log is always finite.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    pairs = (count + 1) // 2
    u = _uniforms(seed, 2 * pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = (2.0 * np.pi) * u[1::2]
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:count]


def normal_field(seed: int, height: int, width: int) -> np.ndarray:
    """Unit-variance noise field of the given shape, filled in row-major order."""
    return standard_normals(seed, height * width).reshape(height, width)


def add_awgn(mosaic: MosaicImage, spec: NoiseSpec) -> MosaicImage:
    """Add white Gaussian noise to a mosaic, sigma chosen per color class.

    A single unit-normal field is drawn from the seed and scaled site-by-site
    by the sigma of the color sampled there, so runs that differ only in
    sigma share the same underlying noise realization.
    """
    h, w = mosaic.plane.data.shape
    field = normal_field(spec.seed, h, w)
    sigma = {"R": spec.sigma_r, "G": spec.sigma_g, "B": spec.sigma_b}
    scale = np.empty((h, w), dtype=np.float64)
    for dy, dx, color in mosaic.pattern.sites:
        scale[dy::2, dx::2] = sigma[color]
    return MosaicImage(mosaic.pattern, Plane(mosaic.plane.data + field * scale))


def estimate_sigma(plane: Plane) -> float:
    """Robust noise-level estimate from the finest diagonal wavelet band.

    Computes the one-level orthonormal Haar HH coefficients (odd trailing
    row/column cropped first) and returns median(|HH|) / 0.6745, the usual
    median-absolute-deviation estimator. Smooth image structure barely
    reaches HH, so the estimate tracks the noise rather than the content.
    """
    data = plane.data
    h, w = data.shape
    if h < 2 or w < 2:
        raise DimensionError(f"sigma estimation needs at least 2x2 samples, got {w}x{h}")
    data = data[: h - (h % 2), : w - (w % 2)]
    hh = (data[0::2, 0::2] - data[0::2, 1::2] - data[1::2, 0::2] + data[1::2, 1::2]) / 2.0
    return float(np.median(np.abs(hh)) / _MAD_SCALE)
