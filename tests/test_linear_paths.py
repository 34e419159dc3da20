"""The linear paths checked against linear theory.

With a gaussian denoiser and a linear demosaicker, after (demosaic, then
denoise the RGB planes) and before (denoise the four sub-images, then
demosaic) are linear maps L of the mosaic. White noise of variance sigma^2
then leaves an output mean square of sigma^2 E / 12, where E is the energy
of the path's responses to one unit impulse at each site of the 2x2 tile:
the mean over the tile's four sites and the three output channels. A hidden
clip or a mis-scaled stencil breaks the linearity or moves E.
"""

import numpy as np
import pytest

from cfaisp.cfa import CfaPattern, MosaicImage, decompose, recompose
from cfaisp.demosaic import DemosaickerConfig, demosaic
from cfaisp.denoise import DenoiserConfig, denoise_planes, denoise_subimages
from cfaisp.imageio import Plane
from cfaisp.noise import NoiseSpec, add_awgn

SIDE = 64
GAUSSIAN = DenoiserConfig(kind="gaussian", sigma_s=1.0)
ZERO = MosaicImage(CfaPattern.GBRG, Plane(np.zeros((SIDE, SIDE))))


def _after(mosaic: MosaicImage, dm: DemosaickerConfig) -> np.ndarray:
    return np.stack([plane.data for plane in denoise_planes(demosaic(mosaic, dm).planes, GAUSSIAN)])


def _before(mosaic: MosaicImage, dm: DemosaickerConfig) -> np.ndarray:
    return np.stack([plane.data for plane in demosaic(recompose(denoise_subimages(decompose(mosaic), GAUSSIAN)), dm).planes])


# name -> (path, demosaicker, E / 12 to three significant digits).
PATHS = {
    "after-bilinear": (_after, "bilinear", "0.182"),
    "after-gradient": (_after, "gradient", "0.192"),
    "before-bilinear": (_before, "bilinear", "0.0666"),
    "before-gradient": (_before, "gradient", "0.0803"),
}


def _linear_map(name):
    path, kind, _ = PATHS[name]
    dm = DemosaickerConfig(kind=kind)
    return lambda data: path(MosaicImage(CfaPattern.GBRG, Plane(data)), dm)


def _impulse_energy(linear) -> float:
    """E: the summed squared responses to a unit impulse at each site of the tile at the frame's centre."""
    energy = 0.0
    for dy in (0, 1):
        for dx in (0, 1):
            impulse = np.zeros((SIDE, SIDE))
            impulse[SIDE // 2 + dy, SIDE // 2 + dx] = 1.0
            energy += float(np.sum(linear(impulse) ** 2))
    return energy


@pytest.mark.parametrize("name", PATHS)
def test_the_path_is_linear(name):
    linear = _linear_map(name)
    rng = np.random.default_rng(0)
    x, n = rng.random((SIDE, SIDE)), 0.05 * rng.standard_normal((SIDE, SIDE))
    assert np.max(np.abs(linear(x + n) - linear(x) - linear(n))) <= 1e-12


@pytest.mark.parametrize("name", PATHS)
def test_impulse_energy(name):
    assert f"{_impulse_energy(_linear_map(name)) / 12:.3g}" == PATHS[name][2]


@pytest.mark.parametrize("name", PATHS)
def test_impulses_predict_the_noise_left(name):
    # 16 draws, each cropped by 8 samples per side, away from the mirror pad.
    sigma, crop = 0.05, 8
    linear = _linear_map(name)
    ratios = np.array([np.mean(linear(add_awgn(ZERO, NoiseSpec.uniform(sigma, seed)).plane.data)[:, crop:-crop, crop:-crop] ** 2) / sigma**2 for seed in range(16)])
    predicted = _impulse_energy(linear) / 12
    standard_error = ratios.std(ddof=1) / np.sqrt(ratios.size)
    assert abs(ratios.mean() - predicted) <= 3 * standard_error, (ratios.mean(), standard_error, predicted)
