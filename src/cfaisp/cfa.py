"""Bayer color-filter-array geometry: mosaicking and sub-image decomposition.

A Bayer sensor samples one color per photosite on a 2x2 tile that repeats
across the sensor: two green sites on one diagonal, one red and one blue on
the other. Green therefore covers 50% of the sites and red and blue 25% each.

Splitting the mosaic by tile position yields four half-resolution planes
(R, G1, G2, B), each a uniformly sampled image of a single color class. G1 is
the green site in the top tile row, G2 the one in the bottom tile row. This
decomposition is exactly invertible, which lets single-channel algorithms run
on CFA data before any interpolation happens.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from cfaisp.config import parse_name
from cfaisp.imageio import DimensionError, Plane, RgbImage


class CfaPattern(enum.Enum):
    """The four Bayer phases, named by their 2x2 tile read row-major."""

    RGGB = "rggb"
    GRBG = "grbg"
    GBRG = "gbrg"
    BGGR = "bggr"

    @classmethod
    def parse(cls, name: str) -> "CfaPattern":
        return cls(parse_name("CFA pattern", name, [p.value for p in cls]))

    @property
    def sites(self) -> tuple[tuple[int, int, str], ...]:
        """The (row, col, color) sites of the 2x2 tile in sub-image order R, G1, G2, B.

        G1 is the green site in the top tile row, G2 the one in the bottom row.
        """
        row_major = [(dy, dx, self.name[2 * dy + dx]) for dy in (0, 1) for dx in (0, 1)]
        return tuple(sorted(row_major, key=lambda site: "RGB".index(site[2])))


DEFAULT_PATTERN = CfaPattern.GBRG


@dataclass(frozen=True)
class MosaicImage:
    """Single-plane CFA frame tagged with its Bayer phase.

    Dimensions must be even so the frame holds whole 2x2 tiles.
    """

    pattern: CfaPattern
    plane: Plane

    def __post_init__(self) -> None:
        h, w = self.plane.data.shape
        if h % 2 or w % 2:
            raise DimensionError(f"mosaic requires even dimensions, got {w}x{h}")


@dataclass(frozen=True)
class SubImages:
    """The four same-shape color planes of a mosaic, half its size, plus its pattern."""

    r: Plane
    g1: Plane
    g2: Plane
    b: Plane
    pattern: CfaPattern

    def __post_init__(self) -> None:
        want = self.r.data.shape
        for name in ("g1", "g2", "b"):
            got = getattr(self, name).data.shape
            if got != want:
                raise DimensionError(f"sub-image {name} has shape {got}, expected {want}")

    @property
    def planes(self) -> tuple[Plane, Plane, Plane, Plane]:
        return (self.r, self.g1, self.g2, self.b)


def mosaic_from_rgb(image: RgbImage, pattern: CfaPattern) -> MosaicImage:
    """Sample an RGB image through a Bayer CFA (keep one channel per site)."""
    channel = {"R": image.r.data, "G": image.g.data, "B": image.b.data}
    out = np.empty(image.r.data.shape, dtype=np.float64)
    for dy, dx, color in pattern.sites:
        out[dy::2, dx::2] = channel[color][dy::2, dx::2]
    return MosaicImage(pattern, Plane._adopt(out))


def decompose(mosaic: MosaicImage) -> SubImages:
    """Split a mosaic into its four half-resolution color planes."""
    data = mosaic.plane.data
    planes = (Plane(data[dy::2, dx::2]) for dy, dx, _ in mosaic.pattern.sites)
    return SubImages(*planes, pattern=mosaic.pattern)


def recompose(subs: SubImages) -> MosaicImage:
    """Scatter four sub-images back into a full-resolution mosaic.

    Exact inverse of decompose: every sample lands on its original site
    bit-for-bit.
    """
    h, w = subs.r.data.shape
    out = np.empty((2 * h, 2 * w), dtype=np.float64)
    for plane, (dy, dx, _) in zip(subs.planes, subs.pattern.sites):
        out[dy::2, dx::2] = plane.data
    return MosaicImage(subs.pattern, Plane._adopt(out))
