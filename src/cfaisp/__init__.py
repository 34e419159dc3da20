"""Bayer CFA pipeline simulator.

Simulates a minimal camera processing chain on color-filter-array data:
mosaicking a reference RGB image, injecting deterministic Gaussian sensor
noise, denoising at different points of the chain, demosaicking, and scoring
the result against the reference.
"""

from cfaisp.cfa import CfaPattern, MosaicImage, SubImages, decompose, mosaic_from_rgb, recompose
from cfaisp.demosaic import DemosaickerConfig
from cfaisp.denoise import DenoiserConfig, denoise_plane, denoise_subimages, estimate_sigma
from cfaisp.imageio import DimensionError, ExperimentRecord, Plane, PnmError, RgbImage, decode_pnm, encode_pnm
from cfaisp.noise import NoiseSpec, add_awgn
from cfaisp.pipeline import ExperimentGrid, Strategy, cpsnr, mse, psnr, run_experiment, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "CfaPattern",
    "DemosaickerConfig",
    "DenoiserConfig",
    "DimensionError",
    "ExperimentGrid",
    "ExperimentRecord",
    "MosaicImage",
    "NoiseSpec",
    "Plane",
    "PnmError",
    "RgbImage",
    "Strategy",
    "SubImages",
    "add_awgn",
    "cpsnr",
    "decode_pnm",
    "decompose",
    "denoise_plane",
    "denoise_subimages",
    "encode_pnm",
    "estimate_sigma",
    "mosaic_from_rgb",
    "mse",
    "psnr",
    "recompose",
    "run_experiment",
    "run_pipeline",
]
