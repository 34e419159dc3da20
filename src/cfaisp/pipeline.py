"""Pipeline strategies, objective metrics, and the experiment runner.

The three strategies differ only in where denoising sits relative to
demosaicking:

- After:  mosaic -> noise -> demosaic -> denoise each RGB channel.
- Joint:  mosaic -> noise -> joint bilateral demosaick-denoise (one pass).
- Before: mosaic -> noise -> split into R/G1/G2/B sub-images -> denoise each
  sub-image -> reassemble the mosaic -> demosaic.

Every run is scored against the reference image with per-channel MSE/PSNR
and CPSNR over a 4-pixel interior crop, and carries the exact seed that
produced its noise so it can be reproduced in isolation.
"""

from __future__ import annotations

import concurrent.futures
import enum
import itertools
import math
import os
import time
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from cfaisp.cfa import DEFAULT_PATTERN, CfaPattern, decompose, mosaic_from_rgb, recompose
from cfaisp.demosaic import DemosaickerConfig, demosaic, demosaic_joint_bilateral
from cfaisp.denoise import DenoiserConfig, denoise_plane, denoise_subimages
from cfaisp.imageio import DimensionError, Plane, RgbImage
from cfaisp.noise import NoiseSpec, add_awgn

METRIC_CROP = 4


class Strategy(enum.Enum):
    """Placement of denoising relative to demosaicking."""

    AFTER = "after"
    JOINT = "joint"
    BEFORE = "before"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        try:
            return cls(name.strip().lower())
        except ValueError:
            choices = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown strategy {name!r}; expected one of {choices}") from None


def mse(a: Plane, b: Plane, crop: int = 0) -> float:
    """Mean squared error, optionally over a crop-pixel interior margin."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"shape mismatch: {a.data.shape} vs {b.data.shape}")
    if crop < 0:
        raise ValueError(f"crop must be >= 0, got {crop}")
    h, w = a.data.shape
    if 2 * crop >= h or 2 * crop >= w:
        raise DimensionError(f"crop {crop} leaves no samples in a {w}x{h} plane")
    window = (slice(crop, h - crop), slice(crop, w - crop))
    diff = a.data[window] - b.data[window]
    return float(np.mean(diff * diff))


def psnr(mse_value: float, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the MSE is zero."""
    if mse_value < 0:
        raise ValueError(f"mse must be >= 0, got {mse_value}")
    if not peak > 0:
        raise ValueError(f"peak must be > 0, got {peak}")
    if mse_value == 0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse_value)


def cpsnr(truth: RgbImage, test: RgbImage, crop: int = 0) -> float:
    """PSNR of the mean of the three per-channel MSEs."""
    if truth.r.data.shape != test.r.data.shape:
        raise DimensionError(f"shape mismatch: {truth.r.data.shape} vs {test.r.data.shape}")
    channel_mses = [mse(a, b, crop) for a, b in zip(truth.planes, test.planes)]
    return psnr(sum(channel_mses) / 3.0)


@dataclass(frozen=True)
class ExperimentRecord:
    """One scored pipeline run; field order matches the CSV column order."""

    image: str
    pattern: str
    strategy: str
    denoiser: str
    demosaicker: str
    sigma_r: float
    sigma_g: float
    sigma_b: float
    seed: int
    mse_r: float
    mse_g: float
    mse_b: float
    psnr_r_db: float
    psnr_g_db: float
    psnr_b_db: float
    cpsnr_db: float
    wall_ms: float


def run_pipeline(
    truth: RgbImage,
    pattern: CfaPattern,
    noise: NoiseSpec,
    strategy: Strategy,
    dn: DenoiserConfig,
    dm: DemosaickerConfig,
    image_id: str = "",
) -> tuple[RgbImage, ExperimentRecord]:
    """Run one strategy end to end and score the result against the truth.

    The Joint strategy requires a joint-bilateral demosaicker config and
    ignores dn (no separate denoiser runs; the record says "none"). After and
    Before require a non-joint demosaicker. Metrics use a 4-pixel interior
    crop so border policy does not leak into the comparison.
    """
    if strategy is Strategy.JOINT and not dm.is_joint:
        raise ValueError("strategy joint requires the joint-bilateral demosaicker")
    if strategy is not Strategy.JOINT and dm.is_joint:
        raise ValueError(f"strategy {strategy.value} requires a non-joint demosaicker")

    start = time.perf_counter()
    mosaic = mosaic_from_rgb(truth, pattern)
    noisy = add_awgn(mosaic, noise)

    if strategy is Strategy.AFTER:
        rough = demosaic(noisy, dm)
        result = RgbImage(*(denoise_plane(p, dn) for p in rough.planes))
    elif strategy is Strategy.JOINT:
        result = demosaic_joint_bilateral(noisy, dm.sigma_s, dm.sigma_r)
    else:
        subs = denoise_subimages(decompose(noisy), dn)
        result = demosaic(recompose(subs), dm)
    wall_ms = (time.perf_counter() - start) * 1000.0

    channel_mses = [mse(a, b, METRIC_CROP) for a, b in zip(truth.planes, result.planes)]
    record = ExperimentRecord(
        image=image_id,
        pattern=pattern.value,
        strategy=strategy.value,
        denoiser="none" if strategy is Strategy.JOINT else dn.describe(),
        demosaicker=dm.describe(),
        sigma_r=noise.sigma_r,
        sigma_g=noise.sigma_g,
        sigma_b=noise.sigma_b,
        seed=noise.seed,
        mse_r=channel_mses[0],
        mse_g=channel_mses[1],
        mse_b=channel_mses[2],
        psnr_r_db=psnr(channel_mses[0]),
        psnr_g_db=psnr(channel_mses[1]),
        psnr_b_db=psnr(channel_mses[2]),
        cpsnr_db=psnr(sum(channel_mses) / 3.0),
        wall_ms=wall_ms,
    )
    return result, record


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value


def derive_run_seed(master_seed: int, image_id: str, repeat: int) -> int:
    """Per-run seed: master_seed XOR fnv1a64(b"<image_id>|<repeat>").

    Depending only on the image and the repeat index (not on the grid
    position) means runs that differ in strategy, denoiser, demosaicker, or
    sigma share the same unit noise field, so strategy comparisons and the
    denoiser-free baseline are paired sample by sample.
    """
    return (master_seed ^ fnv1a64(f"{image_id}|{repeat}".encode("utf-8"))) & _MASK64


@dataclass(frozen=True)
class ExperimentGrid:
    """Cartesian sweep: strategies x sigmas x denoisers x demosaickers x repeats.

    Sigmas apply uniformly to all three color classes. The demosaickers axis
    is for the After/Before strategies and must be non-joint; the Joint
    strategy always runs joint_demosaicker exactly once per sigma and repeat,
    regardless of the denoiser and demosaicker axes.
    """

    strategies: tuple[Strategy, ...] = (Strategy.AFTER, Strategy.BEFORE)
    sigmas: tuple[float, ...] = (0.02, 0.05, 0.1)
    denoisers: tuple[DenoiserConfig, ...] = (DenoiserConfig(kind="wavelet"),)
    demosaickers: tuple[DemosaickerConfig, ...] = (DemosaickerConfig(kind="bilinear"),)
    joint_demosaicker: DemosaickerConfig = DemosaickerConfig(kind="joint-bilateral")
    repeats: int = 1
    pattern: CfaPattern = DEFAULT_PATTERN

    def __post_init__(self) -> None:
        if not self.strategies or not self.sigmas or not self.denoisers or not self.demosaickers:
            raise ValueError("grid axes must be non-empty")
        for sigma in self.sigmas:
            if not math.isfinite(sigma) or sigma < 0:
                raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
        if any(dm.is_joint for dm in self.demosaickers):
            raise ValueError("demosaickers axis must be non-joint; Joint runs joint_demosaicker")
        if not self.joint_demosaicker.is_joint:
            raise ValueError("joint_demosaicker must be a joint-bilateral config")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def points(self) -> Iterator[tuple[Strategy, float, DenoiserConfig, DemosaickerConfig, int]]:
        """Grid points in deterministic order; repeats vary fastest."""
        for strategy in self.strategies:
            if strategy is Strategy.JOINT:
                denoisers: Sequence[DenoiserConfig] = (DenoiserConfig(kind="none"),)
                demosaickers: Sequence[DemosaickerConfig] = (self.joint_demosaicker,)
            else:
                denoisers = self.denoisers
                demosaickers = self.demosaickers
            yield from itertools.product((strategy,), self.sigmas, denoisers, demosaickers, range(self.repeats))


def _run_task(task: tuple) -> ExperimentRecord:
    image_id, truth, pattern, sigma, strategy, dn, dm, seed, keep_timing = task
    try:
        _, record = run_pipeline(
            truth,
            pattern,
            NoiseSpec.uniform(sigma, seed),
            strategy,
            dn,
            dm,
            image_id=image_id,
        )
    except Exception as exc:
        point = f"image={image_id} strategy={strategy.value} sigma={sigma:g} denoiser={dn.describe()} demosaicker={dm.describe()} seed={seed}"
        raise RuntimeError(f"experiment run failed at {point}: {exc}") from exc
    if not keep_timing:
        record = replace(record, wall_ms=0.0)
    return record


def run_experiment(
    corpus: Sequence[tuple[str, RgbImage]],
    grid: ExperimentGrid,
    master_seed: int = 0,
    jobs: Optional[int] = None,
    keep_timing: bool = False,
) -> list[ExperimentRecord]:
    """Run the full sweep; image-major order, grid order within each image.

    Per-run seeds come from derive_run_seed(master_seed, image_id, repeat).
    Records are returned in deterministic order regardless of jobs, and with
    keep_timing=False (the default) wall_ms is zeroed so repeated runs
    serialize to byte-identical CSV. Any failing run aborts the sweep with
    the offending grid point named.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus must not be empty")
    tasks = []
    for image_id, truth in corpus:
        for strategy, sigma, dn, dm, repeat in grid.points():
            seed = derive_run_seed(master_seed, image_id, repeat)
            tasks.append((image_id, truth, grid.pattern, sigma, strategy, dn, dm, seed, keep_timing))
    if not tasks:
        raise ValueError("grid produced no runs")

    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(tasks) == 1:
        return [_run_task(task) for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        chunksize = max(1, len(tasks) // (4 * jobs))
        return list(pool.map(_run_task, tasks, chunksize=chunksize))
