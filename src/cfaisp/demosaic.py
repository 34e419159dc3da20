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
  denoising happen in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.ndimage import convolve

from cfaisp.cfa import MosaicImage, color_at
from cfaisp.denoise import _bilateral, check_method, describe_method
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


@dataclass(frozen=True)
class DemosaickerConfig:
    """Demosaicker selection; sigma_s/sigma_r apply to joint-bilateral only."""

    kind: str = "bilinear"
    sigma_s: float = 1.5
    sigma_r: float = 0.1

    def __post_init__(self) -> None:
        check_method(self, _DEMOSAICKERS, "demosaicker")

    @property
    def is_joint(self) -> bool:
        return self.kind == "joint-bilateral"

    def describe(self) -> str:
        """Compact comma-free descriptor used in CSV output."""
        return describe_method(self, _DEMOSAICKERS)


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


def _demosaic_linear(mosaic: MosaicImage, kernels: tuple[np.ndarray, np.ndarray, np.ndarray]) -> RgbImage:
    """Estimate each missing sample with one fixed kernel chosen by its tile site.

    kernels are (G at R/B, R/B along the row at G, R/B at the opposite chroma
    site); the transposed row kernel gives R/B across the row at G. Each
    response is divided by its kernel's weight sum, so constants are kept.
    Measured samples pass through. Mirror reflection maps an index to one of
    the same parity, so every kernel reads only the color it estimates, at
    the borders too.
    """
    data = mosaic.plane.data
    k_g, k_row, k_x = kernels
    est_g, est_row, est_col, est_x = (convolve(data, k, mode="mirror") / k.sum() for k in (k_g, k_row, k_row.T, k_x))
    r_row = mosaic.pattern.r_offset[0]
    out = {color: np.empty_like(data) for color in "RGB"}
    for dy, dx, color in mosaic.pattern.sites:
        site = (slice(dy, None, 2), slice(dx, None, 2))
        out[color][site] = data[site]
        if color == "G":
            along, across = ("R", "B") if dy == r_row else ("B", "R")
            out[along][site] = est_row[site]
            out[across][site] = est_col[site]
        else:
            out["G"][site] = est_g[site]
            out["B" if color == "R" else "R"][site] = est_x[site]
    return RgbImage(Plane(out["R"]), Plane(out["G"]), Plane(out["B"]))


def demosaic_bilinear(mosaic: MosaicImage) -> RgbImage:
    """Mean of the available same-color neighbors in each 3x3 window.

    Measured samples pass through unchanged. For inputs in [0, 1] the output
    stays in [0, 1] because every sample is a convex combination.
    """
    return _demosaic_linear(mosaic, _BILINEAR_KERNELS)


def demosaic_gradient(mosaic: MosaicImage) -> RgbImage:
    """Bilinear plus gain-weighted Laplacian correction, fixed 5x5 kernels.

    The correction at each site comes from the channel measured there, with
    gains 1/2 (G at R/B), 5/8 (R/B at G), and 3/4 (R/B at the opposite
    chroma site). Linear ramps are reproduced exactly in the interior.
    """
    return _demosaic_linear(mosaic, _GRADIENT_KERNELS)


def demosaic_joint_bilateral(mosaic: MosaicImage, sigma_s: float, sigma_r: float) -> RgbImage:
    """Bilateral interpolation over same-color sites, guided by bilinear G.

    Each 2x2 tile site is one pass of the shared bilateral kernel, bucketed by
    color. Filtering the measured sites too is what makes this a joint
    demosaick-denoise rather than interpolation.
    """
    data = mosaic.plane.data
    guide = demosaic_bilinear(mosaic).g.data
    out = {color: np.empty_like(data) for color in "RGB"}
    for dy, dx, _ in mosaic.pattern.sites:
        for color, mean in _bilateral(data, guide, sigma_s, sigma_r, 2, dy, dx, partial(color_at, mosaic.pattern)).items():
            out[color][dy::2, dx::2] = mean
    return RgbImage(Plane(out["R"]), Plane(out["G"]), Plane(out["B"]))


def demosaic(mosaic: MosaicImage, config: DemosaickerConfig) -> RgbImage:
    """Apply the configured demosaicker."""
    name, fields = _DEMOSAICKERS[config.kind]
    return globals()[name](mosaic, *(getattr(config, field) for field in fields))
