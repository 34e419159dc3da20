"""Deterministic sensor noise: seeded Gaussian injection.

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

from dataclasses import dataclass

import numpy as np

from cfaisp import _kernel
from cfaisp.cfa import MosaicImage
from cfaisp.config import SEED, SIGMA, SIZE
from cfaisp.imageio import Plane

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TO_UNIT = 2.0**-53

# The most pairs a field draws on the calling thread alone. A 256^2 field,
# two blocks, ran slower on two threads than on one: the pool's start and
# the handoffs outweighed the overlap.
_POOLED_PAIRS = 2 * _kernel._STRIP


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
    at odd ones. 1 - u1 is never zero, so the log is always finite.

    Pairs are made in blocks of _STRIP, in place in the block's stretch of
    the output and in a buffer of as many samples. A block's words depend
    only on its index, so the blocks of a field of more than _POOLED_PAIRS
    pairs may run on _walk's threads, with the same bits.
    """
    SEED.check("seed", seed)
    SIZE.check("count", count)
    pairs = (count + 1) // 2
    out = np.empty(2 * pairs, dtype=np.float64)
    strip = _kernel._STRIP
    block = min(pairs, strip)
    steps = np.multiply(np.arange(1, 2 * block + 1, dtype=np.uint64), _GOLDEN)

    def fill(first, buffer):
        """Write the pairs of the block from pair first into out."""
        n = min(strip, pairs - first)
        pair, spare = out[2 * first : 2 * (first + n)], buffer[: 2 * n]
        words = pair.view(np.uint64)
        # The block's first state, reduced mod 2^64 in Python ints.
        np.add(steps[: 2 * n], np.uint64((int(seed) + 2 * first * int(_GOLDEN)) % 2**64), out=words)
        _splitmix64(words, spare.view(np.uint64))
        u = np.multiply(np.right_shift(words, np.uint64(11), out=words), _TO_UNIT, out=spare, dtype=np.float64)
        # The transcendental ufuncs read and write contiguous buffers only:
        # the radii and angles in the block's stretch of out, the cosines and
        # sines in the buffer, whose products then fill out.
        radius, theta = pair[:n], pair[n:]
        np.sqrt(np.multiply(np.log1p(np.negative(u[0::2], out=radius), out=radius), -2.0, out=radius), out=radius)
        np.multiply(u[1::2], 2.0 * np.pi, out=theta)
        cos, sin = np.cos(theta, out=spare[:n]), np.sin(theta, out=spare[n:])
        np.multiply(radius, cos, out=cos)
        np.multiply(radius, sin, out=sin)
        pair[0::2], pair[1::2] = cos, sin

    _kernel._walk(range(0, pairs, strip), fill, lambda: np.empty(2 * block), pairs <= _POOLED_PAIRS)
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
