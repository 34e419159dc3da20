"""Demosaicking: reconstruct full RGB from a single-plane Bayer mosaic.

Three reconstructions with one shared border policy (mirror reflection,
edge sample not duplicated):

- bilinear: each missing sample is the mean of the same-color neighbors in
  its 3x3 window; measured samples pass through.
- gradient: bilinear plus a gain-weighted Laplacian correction taken from
  the channel actually measured at the site, expressed as fixed 5x5 kernels.
  Sharper than bilinear on detailed content; may overshoot [0, 1], which is
  left intact until encode-time clamping.
- joint bilateral: every sample (missing and measured) is a bilateral
  average over the same-color sites in a radius ceil(3 sigma_s) window,
  range-weighted on a bilinear green estimate, so interpolation and light
  denoising happen in one pass, walked in bands of full-resolution rows
  that compute each neighbour pair's weight once.

Bilinear and gradient read their taps through _kernel._shifted's lattice,
joint bilateral runs _kernel._bilateral, and the configs check their fields
with config.check_method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfaisp import _kernel
from cfaisp.cfa import MosaicImage
from cfaisp.config import Rule, check_method, describe_method, parse_method
from cfaisp.imageio import Plane, RgbImage

# kind -> (name of the function in this module, the DemosaickerConfig fields
# it takes after the mosaic). demosaic() looks the name up when it runs, so a
# module attribute replaced at run time is the one that gets called.
_DEMOSAICKERS = {
    "bilinear": ("demosaic_bilinear", ()),
    "gradient": ("demosaic_gradient", ()),
    "joint-bilateral": ("demosaic_joint_bilateral", ("sigma_s", "sigma_r")),
}
DEMOSAICKER_KINDS = tuple(_DEMOSAICKERS)
# joint-bilateral's sigma_s floor: below about 0.037535 the spatial weights of an
# R site's four diagonal B sites, exp(-1 / sigma_s^2) each, sum below the smallest normal float.
JOINT_SIGMA_S = Rule(lambda s: 4.0 * math.exp(-1.0 / (s * s)) >= np.finfo(np.float64).tiny, "about 0.037535 or more for joint-bilateral")


@dataclass(frozen=True)
class DemosaickerConfig:
    """Demosaicker selection; sigma_s/sigma_r apply to joint-bilateral only."""

    kind: str = "bilinear"
    sigma_s: float = 1.5
    sigma_r: float = 0.1

    def __post_init__(self) -> None:
        check_method(self, _DEMOSAICKERS, "demosaicker")
        if self.is_joint:
            JOINT_SIGMA_S.check("sigma_s", self.sigma_s)

    @property
    def is_joint(self) -> bool:
        return self.kind == "joint-bilateral"

    def describe(self) -> str:
        """Compact comma-free descriptor used in CSV output."""
        return describe_method(self, _DEMOSAICKERS)

    @classmethod
    def parse(cls, text: str) -> "DemosaickerConfig":
        """The config that text names, as describe() writes it; a bare kind takes the defaults."""
        return parse_method(cls, text, _DEMOSAICKERS, "demosaicker")


# Bilinear stencils, in the roles of the gradient kernels below: the nearest
# same-color samples, with no Laplacian correction.
_BILINEAR_KERNELS = (
    np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64),
    np.array([[0, 0, 0], [1, 0, 1], [0, 0, 0]], dtype=np.float64),
    np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]], dtype=np.float64),
)

# 5x5 gradient-corrected kernels in eighths. Each is the bilinear stencil for
# the target color plus the gain-weighted Laplacian of the measured channel;
# all are symmetric, so convolution and correlation coincide.
_K_G_AT_RB = (
    np.array(
        [
            [0, 0, -1, 0, 0],
            [0, 0, 2, 0, 0],
            [-1, 2, 4, 2, -1],
            [0, 0, 2, 0, 0],
            [0, 0, -1, 0, 0],
        ],
        dtype=np.float64,
    )
    / 8.0
)

_K_RB_AT_G_HROW = (
    np.array(
        [
            [0, 0, 0.5, 0, 0],
            [0, -1, 0, -1, 0],
            [-1, 4, 5, 4, -1],
            [0, -1, 0, -1, 0],
            [0, 0, 0.5, 0, 0],
        ],
        dtype=np.float64,
    )
    / 8.0
)

_K_RB_AT_OPPOSITE = (
    np.array(
        [
            [0, 0, -1.5, 0, 0],
            [0, 2, 0, 2, 0],
            [-1.5, 0, 6, 0, -1.5],
            [0, 2, 0, 2, 0],
            [0, 0, -1.5, 0, 0],
        ],
        dtype=np.float64,
    )
    / 8.0
)

_GRADIENT_KERNELS = (_K_G_AT_RB, _K_RB_AT_G_HROW, _K_RB_AT_OPPOSITE)


def _stencils(kernels: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple:
    """Each role's nonzero taps as (dy, dx, weight) in row-major order, with the weight sum.

    The roles are those of _demosaic_linear: G at R/B, R/B along the row at
    G, R/B across the row at G (the transposed row kernel), and R/B at the
    opposite chroma site.
    """
    k_g, k_row, k_x = kernels
    stencils = []
    for k in (k_g, k_row, k_row.T, k_x):
        c = k.shape[0] // 2
        taps = tuple((int(y) - c, int(x) - c, float(k[y, x])) for y, x in zip(*np.nonzero(k)))
        stencils.append((taps, float(k.sum())))
    return tuple(stencils)


_BILINEAR_STENCILS = _stencils(_BILINEAR_KERNELS)
_GRADIENT_STENCILS = _stencils(_GRADIENT_KERNELS)


# A sum that overflows is left to Plane's finiteness check to report, as one
# ValueError rather than a warning first; the padding samples a band computes
# and drops may overflow too.
@np.errstate(over="ignore", invalid="ignore")
def _demosaic_linear(mosaic: MosaicImage, stencils: tuple) -> RgbImage:
    """Estimate each missing sample with one fixed kernel chosen by its tile site.

    stencils come from _stencils. Each estimate is computed only at the tile
    sites that use it, from flat runs of the mirror-padded mosaic's phase
    planes, one band of lattice rows at a time, and is divided by its
    kernel's weight sum, so constants are kept. The taps are summed in
    row-major order from the first, as scipy.ndimage.convolve sums them, so
    the values equal convolve(mode="mirror") / k.sum() bit for bit (only a
    zero's sign can differ). Measured samples pass through. Mirror
    reflection maps an index to one of the same parity, so every kernel
    reads only the color it estimates, at the borders too. The R, G and B
    planes are views of one (3, h, w) block.
    """
    data = mosaic.plane.data
    est_g, est_row, est_col, est_x = stencils
    at = _kernel._shifted(data, max(abs(dy) for taps, _ in stencils for dy, _, _ in taps), 2)
    # The R, G and B planes, one block.
    frame = np.empty((3, *data.shape))
    out = dict(zip("RGB", frame))
    # One accumulator and one term for every estimate, sized for the largest band.
    size = at.length(max(n for _, n in at.bands()))
    acc_buffer, term_buffer = np.empty(size), np.empty(size)

    def estimate(stencil, y, x, n, color):
        """stencil's estimate at the n lattice rows from full-frame (y, x), into out[color]."""
        taps, total = stencil
        (u, v, weight), *rest = taps
        acc, term = acc_buffer[: at.length(n)], term_buffer[: at.length(n)]
        np.multiply(at.run(y + u, x + v, n), weight, out=acc)
        for u, v, weight in rest:
            tap = at.run(y + u, x + v, n)
            if weight == 1.0:  # x * 1.0 is x, bit for bit
                np.add(acc, tap, out=acc)
            else:
                np.add(acc, np.multiply(tap, weight, out=term), out=acc)
        np.divide(at.crop(acc, n), total, out=out[color][y : y + 2 * n : 2, x::2])

    r_row = mosaic.pattern.sites[0][0]
    for dy, dx, color in mosaic.pattern.sites:
        out[color][dy::2, dx::2] = data[dy::2, dx::2]
    for top, n in at.bands():
        for dy, dx, color in mosaic.pattern.sites:
            y = dy + 2 * top
            if color == "G":
                along, across = ("R", "B") if dy == r_row else ("B", "R")
                estimate(est_row, y, dx, n, along)
                estimate(est_col, y, dx, n, across)
            else:
                estimate(est_g, y, dx, n, "G")
                estimate(est_x, y, dx, n, "B" if color == "R" else "R")
    return RgbImage(*(Plane._adopt(plane) for plane in frame))


def demosaic_bilinear(mosaic: MosaicImage) -> RgbImage:
    """Mean of the available same-color neighbors in each 3x3 window.

    Measured samples pass through unchanged. For inputs in [0, 1] the output
    stays in [0, 1] because every sample is a convex combination.
    """
    return _demosaic_linear(mosaic, _BILINEAR_STENCILS)


def demosaic_gradient(mosaic: MosaicImage) -> RgbImage:
    """Bilinear plus gain-weighted Laplacian correction, fixed 5x5 kernels.

    The correction at each site comes from the channel measured there, with
    gains 1/2 (G at R/B), 5/8 (R/B at G), and 3/4 (R/B at the opposite
    chroma site). Linear ramps are reproduced exactly in the interior.
    """
    return _demosaic_linear(mosaic, _GRADIENT_STENCILS)


def demosaic_joint_bilateral(mosaic: MosaicImage, sigma_s: float, sigma_r: float) -> RgbImage:
    """Bilateral interpolation over same-color sites, guided by bilinear G.

    One call of the shared bilateral kernel walks the full-resolution
    mosaic once, keeping one sum per parity class of neighbours, and gives
    each tile site's classes their colors from the mosaic's pattern, into
    stacked R, G, B means, so no color masks are needed. Filtering the
    measured sites too makes this a joint demosaick-denoise rather than
    interpolation. sigma_s and sigma_r are checked as DemosaickerConfig's.
    """
    DemosaickerConfig(kind="joint-bilateral", sigma_s=sigma_s, sigma_r=sigma_r)
    # A copy, so that the bilinear frame's R and B go before the kernel runs.
    guide = demosaic_bilinear(mosaic).g.data.copy()
    means = np.empty((3, *guide.shape))
    _kernel._bilateral(mosaic.plane.data, guide, sigma_s, sigma_r, mosaic.pattern, out=means)
    return RgbImage(*(Plane._adopt(mean) for mean in means))


def demosaic(mosaic: MosaicImage, config: DemosaickerConfig) -> RgbImage:
    """Apply the configured demosaicker."""
    name, fields = _DEMOSAICKERS[config.kind]
    return globals()[name](mosaic, *(getattr(config, field) for field in fields))
