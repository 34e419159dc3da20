"""Deterministic sensor noise: seeded Gaussian injection and level estimation.

Randomness comes from a counter-based SplitMix64 generator feeding a
Box-Muller transform, so on one platform and numpy build a (seed, shape)
pair always yields the same noise field, regardless of call order. The
uniforms are the same bits everywhere; the normals pass through np.log1p,
np.cos and np.sin, whose last bit may differ between platforms, so there a
sample may differ in its last bits. Noise is added per color class with its
own sigma and is not clipped: downstream stages see the same negative and
above-range excursions a real sensor pipeline would.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from cfaisp.cfa import MosaicImage
from cfaisp.imageio import _STRIP, DimensionError, Plane

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TO_UNIT = 2.0**-53

# MAD-to-sigma factor for a zero-mean normal: 1 / Phi^-1(3/4).
_MAD_SCALE = 0.6745


def is_int(value) -> bool:
    """True for Python and numpy integers; False for bools and integral floats."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for Python and numpy real numbers, integers among them; False for bools, text and ints or fractions beyond float range."""
    in_range = not isinstance(value, numbers.Rational) or -sys.float_info.max <= value <= sys.float_info.max
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and in_range


@dataclass(frozen=True)
class Rule:
    """The one rule type of every checked value: test(value) says whether it holds, need words it."""

    test: Callable[[Any], bool]
    need: str

    def complaint(self, shown: str) -> str:
        """What is wrong with a value that breaks the rule, given the value's text."""
        return f"must be {self.need}, got {shown}"

    def check(self, name: str, value) -> None:
        """Raise ValueError naming name if value breaks the rule; a numpy scalar shows as its Python value."""
        if not self.test(value):
            shown = value.item() if isinstance(value, np.generic) else value
            raise ValueError(f"{name} {self.complaint(repr(shown))}")


# The largest noise sigma, a thousand times the [0, 1] sample range: every
# square the pipeline takes of a noisy sample or of sigma stays far inside
# float range, so a huge sigma is one ValueError, not an overflow later.
SIGMA_MAX = 1e3
SIGMA = Rule(lambda v: is_real(v) and 0 <= v <= SIGMA_MAX, f"finite, >= 0 and <= {SIGMA_MAX:g}")
# A noise seed starts a SplitMix64 stream, whose state is 64 unsigned bits.
SEED = Rule(lambda v: is_int(v) and 0 <= v < 2**64, "an integer in [0, 2^64)")
# A number of repeats or of workers.
COUNT = Rule(lambda v: is_int(v) and v >= 1, "an integer >= 1")
# A number of noise samples to draw.
_SAMPLES = Rule(lambda v: is_int(v) and v >= 0, "an integer >= 0")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-color-class noise levels plus the 64-bit seed that fixes the field."""

    sigma_r: float
    sigma_g: float
    sigma_b: float
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sigma_r", "sigma_g", "sigma_b"):
            SIGMA.check(name, getattr(self, name))
        SEED.check("seed", self.seed)

    @classmethod
    def uniform(cls, sigma: float, seed: int = 0) -> "NoiseSpec":
        """Same sigma for all three color classes."""
        return cls(sigma_r=sigma, sigma_g=sigma, sigma_b=sigma, seed=seed)


def _splitmix64(states: np.ndarray, spare: np.ndarray) -> None:
    """Turn SplitMix64 states, seed + k * golden, into the stream's words k, in place.

    spare is a uint64 buffer of the same length, overwritten.
    """
    # All arithmetic stays in uint64 arrays, which wrap mod 2^64 silently.
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.bitwise_xor(states, np.right_shift(states, np.uint64(shift), out=spare), out=states)
        if mix is not None:
            np.multiply(states, mix, out=states)


def standard_normals(seed: int, count: int) -> np.ndarray:
    """Deterministic N(0, 1) samples via Box-Muller on SplitMix64 uniforms.

    Words 1, 2, ... of the stream from seed become the uniform doubles
    (word >> 11) 2^-53 in [0, 1), from their top 53 bits. Consecutive
    uniform pairs (u1, u2) map to radius sqrt(-2 ln(1 - u1)) and angle
    2 pi u2; the cosine branch lands at even output indices, the sine branch
    at odd ones. 1 - u1 is never zero, so the log is always finite. Pairs
    are made _STRIP at a time in reused buffers that stay in cache, and
    written straight into place.
    """
    SEED.check("seed", seed)
    _SAMPLES.check("count", count)
    pairs = (count + 1) // 2
    out = np.empty(2 * pairs, dtype=np.float64)
    block = min(pairs, _STRIP)
    steps = np.multiply(np.arange(1, 2 * block + 1, dtype=np.uint64), _GOLDEN)
    words, spare, u = np.empty_like(steps), np.empty_like(steps), np.empty(2 * block)
    radius, theta = np.empty(block), np.empty(block)
    for first in range(0, pairs, _STRIP):
        n = min(_STRIP, pairs - first)
        w, v, r, t = words[: 2 * n], u[: 2 * n], radius[:n], theta[:n]
        # The block's first state, reduced mod 2^64 in Python ints.
        np.add(steps[: 2 * n], np.uint64((int(seed) + 2 * first * int(_GOLDEN)) % 2**64), out=w)
        _splitmix64(w, spare[: 2 * n])
        np.multiply(np.right_shift(w, np.uint64(11), out=w), _TO_UNIT, out=v, dtype=np.float64)
        # The transcendental ufuncs read and write contiguous buffers only.
        np.sqrt(np.multiply(np.log1p(np.negative(v[0::2], out=r), out=r), -2.0, out=r), out=r)
        np.multiply(v[1::2], 2.0 * np.pi, out=t)
        pair = out[2 * first : 2 * (first + n)]
        np.multiply(r, np.cos(t, out=v[:n]), out=pair[0::2])
        np.multiply(r, np.sin(t, out=t), out=pair[1::2])
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
    data = mosaic.plane.data
    h, w = data.shape
    field = normal_field(spec.seed, h, w)
    sigma = {"R": spec.sigma_r, "G": spec.sigma_g, "B": spec.sigma_b}
    # The per-site scale repeats every two rows, so two rows of it serve the
    # whole field; data + field * scale is then written into the field.
    scale = np.empty((2, w), dtype=np.float64)
    for dy, dx, color in mosaic.pattern.sites:
        scale[dy, dx::2] = sigma[color]
    rows = field.reshape(h // 2, 2, w)
    np.multiply(rows, scale, out=rows)
    return MosaicImage(mosaic.pattern, Plane._adopt(np.add(data, field, out=field)))


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
    hh = np.subtract(data[0::2, 0::2], data[0::2, 1::2])
    hh -= data[1::2, 0::2]
    hh += data[1::2, 1::2]
    hh /= 2.0
    # One partition places the upper middle value; for an even count the
    # lower one is the largest value below it, and (lo + hi) / 2 is the
    # float np.median gives. Finite samples make HH finite or +-inf, never
    # NaN, so np.median's NaN check would find nothing.
    flat = np.abs(hh, out=hh).reshape(-1)
    middle = flat.size // 2
    flat.partition(middle)
    median = flat[middle] if flat.size % 2 else (flat[:middle].max() + flat[middle]) / 2.0
    return float(median / _MAD_SCALE)
