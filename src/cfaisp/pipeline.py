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
from typing import Any, Callable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from cfaisp.cfa import DEFAULT_PATTERN, CfaPattern, decompose, mosaic_from_rgb, recompose
from cfaisp.demosaic import DemosaickerConfig, demosaic, demosaic_joint_bilateral
from cfaisp.denoise import DenoiserConfig, denoise_plane, denoise_subimages
from cfaisp.imageio import DimensionError, Plane, RgbImage
from cfaisp.noise import NoiseSpec, add_awgn

METRIC_CROP = 4

T = TypeVar("T")


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


def _timed(make: Callable[[], T]) -> tuple[T, float]:
    """make() and the seconds it took."""
    start = time.perf_counter()
    value = make()
    return value, time.perf_counter() - start


def _run_group(
    truth: RgbImage,
    pattern: CfaPattern,
    noise: NoiseSpec,
    points: Sequence[tuple[Strategy, DenoiserConfig, DemosaickerConfig]],
    image_id: str,
) -> Iterator[tuple[RgbImage, ExperimentRecord]]:
    """Run each (strategy, dn, dm) point on one noisy mosaic, yielding (result, record).

    The stages the points share are computed once: the noisy mosaic, the
    Before strategy's sub-images, the After strategy's demosaic for each dm
    and the Before strategy's denoised sub-images for each dn. Stages never
    write to their inputs (planes are read-only), so reusing them is exact.
    Each shared stage keeps the time it took, and every run that uses it
    counts that time, so wall_ms is the run's full cost, from mosaicking to
    the demosaicked result, as if it had run alone. Results are yielded one
    at a time, so only the shared stages are kept.
    """
    cache: dict[object, tuple[Any, float]] = {}

    def shared(key: object, make: Callable[[], T]) -> tuple[T, float]:
        if key not in cache:
            cache[key] = _timed(make)
        return cache[key]

    for strategy, dn, dm in points:
        if strategy is Strategy.JOINT and not dm.is_joint:
            raise ValueError("strategy joint requires the joint-bilateral demosaicker")
        if strategy is not Strategy.JOINT and dm.is_joint:
            raise ValueError(f"strategy {strategy.value} requires a non-joint demosaicker")

        noisy, elapsed = shared("noisy", lambda: add_awgn(mosaic_from_rgb(truth, pattern), noise))
        if strategy is Strategy.AFTER:
            rough, rough_s = shared(("demosaic", dm), lambda: demosaic(noisy, dm))
            result, own_s = _timed(lambda: RgbImage(*(denoise_plane(p, dn) for p in rough.planes)))
            elapsed += rough_s + own_s
        elif strategy is Strategy.JOINT:
            result, own_s = _timed(lambda: demosaic_joint_bilateral(noisy, dm.sigma_s, dm.sigma_r))
            elapsed += own_s
        else:
            subs, subs_s = shared("decompose", lambda: decompose(noisy))
            denoised, denoised_s = shared(("denoise", dn), lambda: denoise_subimages(subs, dn))
            result, own_s = _timed(lambda: demosaic(recompose(denoised), dm))
            elapsed += subs_s + denoised_s + own_s

        channel_mses = [mse(a, b, METRIC_CROP) for a, b in zip(truth.planes, result.planes)]
        yield result, ExperimentRecord(
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
            wall_ms=elapsed * 1000.0,
        )


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
    (run,) = _run_group(truth, pattern, noise, [(strategy, dn, dm)], image_id)
    return run


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


def _run_sweep_group(corpus: Sequence[tuple[str, RgbImage]], task: tuple) -> list[ExperimentRecord]:
    """Records of one task's runs, all of one (image, repeat, sigma), in the order of its points."""
    image_index, pattern, sigma, seed, points, keep_timing = task
    image_id, truth = corpus[image_index]
    records = []
    try:
        for _, record in _run_group(truth, pattern, NoiseSpec.uniform(sigma, seed), points, image_id):
            records.append(record if keep_timing else replace(record, wall_ms=0.0))
    except Exception as exc:
        strategy, dn, dm = points[len(records)]
        point = f"image={image_id} strategy={strategy.value} sigma={sigma:g} denoiser={dn.describe()} demosaicker={dm.describe()} seed={seed}"
        raise RuntimeError(f"experiment run failed at {point}: {exc}") from exc
    return records


# A pool worker's copy of the corpus, set once by _init_worker as the worker
# starts, so tasks name an image by its index instead of carrying its planes.
_worker_corpus: Sequence[tuple[str, RgbImage]] = ()


def _init_worker(corpus: Sequence[tuple[str, RgbImage]]) -> None:
    global _worker_corpus
    _worker_corpus = corpus


def _run_worker_group(task: tuple) -> list[ExperimentRecord]:
    return _run_sweep_group(_worker_corpus, task)


def _group_splits(points: Sequence[tuple], indices: list[int]) -> tuple[list[list[int]], ...]:
    """Ways to split one group's grid indices into tasks, coarsest first.

    The whole group; one task per stage its runs share beyond the noisy
    mosaic (the After demosaic per dm, the Before denoised sub-images per dn,
    each Joint run alone); one task per run. Each keeps grid order.
    """
    by_stage: dict[tuple, list[int]] = {}
    for index in indices:
        strategy, _, dn, dm, _ = points[index]
        key = dm if strategy is Strategy.AFTER else dn if strategy is Strategy.BEFORE else index
        by_stage.setdefault((strategy, key), []).append(index)
    return [indices], list(by_stage.values()), [[index] for index in indices]


def _plan_tasks(
    corpus: Sequence[tuple[str, RgbImage]],
    grid: ExperimentGrid,
    master_seed: int,
    jobs: int,
    keep_timing: bool,
) -> tuple[list[tuple], list[list[int]]]:
    """Tasks for _run_sweep_group, and the indices of their records in the sweep.

    A task is one (image, repeat, sigma) group, so its runs share their
    stages. With jobs > 1, groups are split while there are fewer than 4
    tasks per worker, first by shared stage and then into single runs: with
    fewer tasks, tasks of unequal size leave workers idle at the end.
    """
    points = list(grid.points())
    # Grid indices of each (sigma, repeat) group. The key holds repr(sigma),
    # so only identical sigmas share a group (0.0 and -0.0 stay apart).
    groups: dict[tuple[str, int], list[int]] = {}
    for index, (_, sigma, _, _, repeat) in enumerate(points):
        groups.setdefault((repr(sigma), repeat), []).append(index)
    splits = [_group_splits(points, indices) for indices in groups.values()]
    for level in range(3):
        chunks = [chunk for split in splits for chunk in split[level]]
        if jobs <= 1 or len(corpus) * len(chunks) >= 4 * jobs:
            break
    tasks, slots = [], []
    for image_index, (image_id, _) in enumerate(corpus):
        for chunk in chunks:
            _, sigma, _, _, repeat = points[chunk[0]]
            seed = derive_run_seed(master_seed, image_id, repeat)
            chunk_points = [(points[i][0], points[i][2], points[i][3]) for i in chunk]
            tasks.append((image_index, grid.pattern, sigma, seed, chunk_points, keep_timing))
            slots.append([image_index * len(points) + i for i in chunk])
    return tasks, slots


def run_experiment(
    corpus: Sequence[tuple[str, RgbImage]],
    grid: ExperimentGrid,
    master_seed: int = 0,
    jobs: Optional[int] = None,
    keep_timing: bool = False,
) -> list[ExperimentRecord]:
    """Run the full sweep; image-major order, grid order within each image.

    Per-run seeds come from derive_run_seed(master_seed, image_id, repeat).
    The runs of one (image, repeat, sigma) share one noisy mosaic and, where
    the pool has enough other work, form one task that computes each shared
    stage once (see _run_group). Records are returned in deterministic order
    regardless of jobs, and with keep_timing=False (the default) wall_ms is
    zeroed so repeated runs serialize to byte-identical CSV. Any failing run
    aborts the sweep with the offending grid point named.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus must not be empty")
    if jobs is None:
        jobs = os.cpu_count() or 1
    tasks, slots = _plan_tasks(corpus, grid, master_seed, jobs, keep_timing)
    if not tasks:
        raise ValueError("grid produced no runs")

    if jobs <= 1 or len(tasks) == 1:
        done = [_run_sweep_group(corpus, task) for task in tasks]
    else:
        workers = min(jobs, len(tasks))
        with concurrent.futures.ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(corpus,)) as pool:
            done = list(pool.map(_run_worker_group, tasks))
    records: list = [None] * sum(map(len, slots))
    for slot, task_records in zip(slots, done):
        for index, record in zip(slot, task_records):
            records[index] = record
    return records
