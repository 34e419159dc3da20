"""Pipeline strategies, objective metrics, and the experiment runner.

The three strategies differ only in where denoising sits relative to
demosaicking:

- After:  mosaic -> noise -> demosaic -> denoise each RGB channel.
- Joint:  mosaic -> noise -> joint bilateral demosaick-denoise (one pass).
- Before: mosaic -> noise -> split into R/G1/G2/B sub-images -> denoise the
  sub-images and reassemble the mosaic -> demosaic.

With the identity denoiser (kind "none") every strategy walks joint's path,
noise then demosaic, so after + none and before + none give one result,
computed and scored once per noisy mosaic.

Every run is scored against the reference image with per-channel MSE/PSNR
and CPSNR over a 4-pixel interior crop, and carries the exact seed that
produced its noise so it can be reproduced in isolation. One predicate
decides which demosaicker a strategy runs, for check_pairing and
ExperimentGrid.demosaickers_for, and check_image_ids checks a run's ids.
"""

from __future__ import annotations

import enum
import itertools
import math
import multiprocessing
import time
from collections import Counter
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from cfaisp import _kernel
from cfaisp.cfa import DEFAULT_PATTERN, CfaPattern, check_even, decompose, mosaic_from_rgb, recompose
from cfaisp.demosaic import DemosaickerConfig, demosaic
from cfaisp.denoise import DenoiserConfig, denoise_planes, denoise_subimages
from cfaisp.config import COUNT, SEED, SIGMA, SIZE, parse_name
from cfaisp.imageio import DimensionError, ExperimentRecord, Plane, RgbImage, check_frame, check_text
from cfaisp.noise import NoiseSpec, add_awgn

METRIC_CROP = 4
# The smallest side a pipeline run takes: the smallest even side that the
# metric crop leaves samples in.
MIN_SIDE = 2 * METRIC_CROP + 2


class Strategy(enum.Enum):
    """Placement of denoising relative to demosaicking."""

    AFTER = "after"
    JOINT = "joint"
    BEFORE = "before"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        return cls(parse_name("strategy", name, [s.value for s in cls]))


def _pairs(strategy: Strategy, dm: DemosaickerConfig) -> bool:
    """Whether strategy runs dm: joint runs the joint-bilateral demosaicker, which denoises as it demosaicks; after and before any other kind."""
    return dm.is_joint == (strategy is Strategy.JOINT)


def _unpaired(strategy: Strategy, tail: str) -> ValueError:
    """The error of strategy without a demosaicker it runs, "strategy <s> runs a joint-bilateral|a non-joint demosaicker", then tail."""
    return ValueError(f"strategy {strategy.value} runs {'a joint-bilateral' if strategy is Strategy.JOINT else 'a non-joint'} demosaicker{tail}")


def check_pairing(strategy: Strategy, dm: DemosaickerConfig) -> None:
    """Raise ValueError unless strategy runs dm (see _pairs), ending ", not <dm's kind>"."""
    if not _pairs(strategy, dm):
        raise _unpaired(strategy, f", not {dm.kind}")


@np.errstate(over="ignore")
def mse(a: Plane, b: Plane, crop: int = 0) -> float:
    """Mean squared error, optionally over a crop-pixel interior margin; inf where it overflows."""
    h, w = check_frame("the planes mse compares", (a, b))
    SIZE.check("crop", crop)
    if 2 * crop >= h or 2 * crop >= w:
        raise DimensionError(f"crop {crop} leaves no samples in a {w}x{h} plane")
    window = (slice(crop, h - crop), slice(crop, w - crop))
    diff = np.subtract(a.data[window], b.data[window])
    return float(np.mean(np.multiply(diff, diff, out=diff)))


def psnr(mse_value: float) -> float:
    """Peak signal-to-noise ratio in dB for samples in [0, 1]; +inf when the MSE is zero, -inf when it is inf."""
    if not mse_value >= 0:
        raise ValueError(f"mse must be >= 0, got {mse_value}")
    if mse_value == 0:
        return math.inf
    if mse_value == math.inf:
        return -math.inf
    inverse = 1.0 / mse_value
    # Below about 5.6e-309 the reciprocal overflows to inf; log10 of the MSE
    # itself is finite there. Elsewhere the reciprocal keeps its last bits.
    return 10.0 * math.log10(inverse) if inverse != math.inf else -10.0 * math.log10(mse_value)


def cpsnr(truth: RgbImage, test: RgbImage, crop: int = 0) -> float:
    """PSNR of the mean of the three per-channel MSEs."""
    channel_mses = [mse(a, b, crop) for a, b in zip(truth.planes, test.planes)]
    return psnr(sum(channel_mses) / 3.0)


def _check_types(owner: str, *kinds: tuple[str, type, Sequence]) -> None:
    """Raise ValueError, naming owner and the argument, at the first value of a (name, kind, values) that is not a kind."""
    for name, kind, values in kinds:
        for value in values:
            if not isinstance(value, kind):
                raise ValueError(f"{owner} {name} takes a {kind.__name__}, not {type(value).__name__}")


def check_image_ids(ids: Sequence[str]) -> None:
    """Raise ValueError unless ids, the run's image ids, are distinct CSV text cells: an id names its rows and seeds its noise."""
    seen: set[str] = set()
    for image_id in ids:
        check_text("image", image_id)
        if image_id in seen:
            raise ValueError(f"image id {image_id!r} is repeated; each image needs its own id, which names its rows and seeds its noise")
        seen.add(image_id)


def _check_sides(truth: RgbImage, where: str = "") -> None:
    """Raise DimensionError, its message led by where, unless truth's sides are even and at least MIN_SIDE."""
    h, w = truth.r.data.shape
    if min(h, w) < MIN_SIDE:
        raise DimensionError(f"{where}a pipeline run needs an image of at least {MIN_SIDE}x{MIN_SIDE}, got {w}x{h}")
    check_even(h, w, where)


# Each strategy's run as a path of (stage, the point's config it takes, if
# any). Without a denoiser all three strategies are joint's path.
_TEMPLATES = {
    Strategy.AFTER: (("noise", "noise"), ("demosaic", "dm"), ("denoise-rgb", "dn")),
    Strategy.JOINT: (("noise", "noise"), ("demosaic", "dm")),
    Strategy.BEFORE: (("noise", "noise"), ("decompose", None), ("denoise-subs", "dn"), ("demosaic", "dm")),
}


def _run_group(
    truth: RgbImage,
    pattern: CfaPattern,
    points: Sequence[tuple[NoiseSpec, Strategy, DenoiserConfig, DemosaickerConfig]],
    image_id: str,
) -> Iterator[tuple[RgbImage, ExperimentRecord]]:
    """Run each (noise, strategy, dn, dm) point on one image, yielding (result, record).

    A point walks its strategy's template filled with its noise spec, dn and
    dm, or joint's template when dn is the identity, so after + none and
    before + none walk one path; points that share a noise spec share the
    noisy mosaic. Every path ends in a score step, which pairs the result with
    its three channel MSEs. Each step's output is cached under its path
    prefix, so a prefix that points share is computed once (before's
    decompose once for all its denoisers); stages never write to their
    inputs, so reuse is exact.
    Before the first stage each prefix counts its readers (the distinct
    steps that extend it and the runs that end at it), and it is dropped as
    its last reader takes it. Each prefix keeps its own step's time, so
    wall_ms, the sum along the path without the score, is the run's cost had
    it run alone, but for a noise step whose field the process already kept
    (see noise.normal_field), which counts at what it cost here. The
    record's denoiser is that of the path's denoise step, "none" when it has
    none, and its sigmas and seed are those of its point's spec.
    It checks nothing: its callers check the image id, the sides and each
    point's pairing before they call it.
    """
    stages: dict[str, Callable[[Any, Any], Any]] = {
        "noise": lambda clean, spec: add_awgn(mosaic_from_rgb(clean, pattern), spec),
        "decompose": lambda mosaic, _: decompose(mosaic),
        "denoise-subs": lambda subs, dn: recompose(denoise_subimages(subs, dn)),
        "demosaic": demosaic,
        "denoise-rgb": lambda rgb, dn: RgbImage(*denoise_planes(rgb.planes, dn)),
        "score": lambda rgb, _: (rgb, [mse(a, b, METRIC_CROP) for a, b in zip(truth.planes, rgb.planes)]),
    }
    paths = [
        tuple((stage, {"noise": noise, "dn": dn, "dm": dm}.get(slot)) for stage, slot in _TEMPLATES[Strategy.JOINT if dn.kind == "none" else strategy]) + (("score", None),)
        for noise, strategy, dn, dm in points
    ]
    readers = Counter(paths)
    readers.update(prefix[:-1] for prefix in {path[:end] for path in paths for end in range(2, len(path) + 1)})
    cache: dict[tuple, Any] = {}
    seconds: dict[tuple, float] = {}

    def read(prefix: tuple) -> Any:
        """prefix's cached value, dropped as its last reader takes it."""
        readers[prefix] -= 1
        return cache[prefix] if readers[prefix] else cache.pop(prefix)

    for (noise, strategy, dn, dm), path in zip(points, paths):
        # Resume at the longest cached prefix: its next step is yet to run.
        start = max((end for end in range(1, len(path) + 1) if path[:end] in cache), default=0)
        value = read(path[:start]) if start else truth
        for end in range(start + 1, len(path) + 1):
            stage, config = path[end - 1]
            began = time.perf_counter()
            cache[path[:end]] = stages[stage](value, config)
            seconds[path[:end]] = time.perf_counter() - began
            value = read(path[:end])
        # The result is not bound to a name of its own, which would hold it
        # through the next run's stages.
        channel_mses = value[1]
        elapsed = sum(seconds[path[:end]] for end in range(1, len(path)))
        yield value[0], ExperimentRecord(
            image=image_id,
            pattern=pattern.value,
            strategy=strategy.value,
            denoiser=next((config.describe() for _, config in path if isinstance(config, DenoiserConfig)), "none"),
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
    crop so border policy does not leak into the comparison. A wrong type,
    image id, side or pairing raises a ValueError before the first stage runs.
    """
    _check_types(
        "run_pipeline",
        ("truth", RgbImage, (truth,)),
        ("pattern", CfaPattern, (pattern,)),
        ("noise", NoiseSpec, (noise,)),
        ("strategy", Strategy, (strategy,)),
        ("dn", DenoiserConfig, (dn,)),
        ("dm", DemosaickerConfig, (dm,)),
        ("image_id", str, (image_id,)),
    )
    check_image_ids([image_id])
    _check_sides(truth)
    check_pairing(strategy, dm)
    (run,) = _run_group(truth, pattern, [(noise, strategy, dn, dm)], image_id)
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

    Sigmas apply uniformly to all three color classes. Every demosaicker is
    on one axis, and each strategy sweeps those it pairs with, in axis order
    (demosaickers_for): joint the joint-bilateral ones, with no denoiser,
    and after and before the others. A strategy that pairs with none is rejected.
    """

    strategies: tuple[Strategy, ...] = (Strategy.AFTER, Strategy.BEFORE)
    sigmas: tuple[float, ...] = (0.02, 0.05, 0.1)
    denoisers: tuple[DenoiserConfig, ...] = (DenoiserConfig(kind="wavelet"),)
    demosaickers: tuple[DemosaickerConfig, ...] = (DemosaickerConfig(kind="bilinear"), DemosaickerConfig(kind="joint-bilateral"))
    repeats: int = 1
    pattern: CfaPattern = DEFAULT_PATTERN

    def __post_init__(self) -> None:
        axes = {"strategies": self.strategies, "sigmas": self.sigmas, "denoisers": self.denoisers, "demosaickers": self.demosaickers}
        _check_types("grid", *((name, tuple, (axis,)) for name, axis in axes.items()))
        if not all(axes.values()):
            raise ValueError("grid axes must be non-empty")
        _check_types(
            "grid",
            ("strategies", Strategy, self.strategies),
            ("denoisers", DenoiserConfig, self.denoisers),
            ("demosaickers", DemosaickerConfig, self.demosaickers),
            ("pattern", CfaPattern, (self.pattern,)),
        )
        for sigma in self.sigmas:
            SIGMA.check("sigma", sigma)
        for strategy in self.strategies:
            if not self.demosaickers_for(strategy):
                raise _unpaired(strategy, ", and the demosaickers axis holds none")
        COUNT.check("repeats", self.repeats)

    def demosaickers_for(self, strategy: Strategy) -> tuple[DemosaickerConfig, ...]:
        """The axis's demosaickers that strategy runs (see _pairs), in axis order."""
        return tuple(dm for dm in self.demosaickers if _pairs(strategy, dm))

    def points(self) -> Iterator[tuple[Strategy, float, DenoiserConfig, DemosaickerConfig, int]]:
        """Grid points in deterministic order; repeats vary fastest."""
        for strategy in self.strategies:
            denoisers = (DenoiserConfig(kind="none"),) if strategy is Strategy.JOINT else self.denoisers
            yield from itertools.product((strategy,), self.sigmas, denoisers, self.demosaickers_for(strategy), range(self.repeats))


def _run_task(sweep: tuple, task: tuple[int, list[int]]) -> list[ExperimentRecord]:
    """Records of one task's runs, all of one (image, repeat), in the order of its grid indices.

    sweep is (corpus, grid points, pattern, master seed, keep_timing). Each
    run's sigma and the task's one seed make the noise step's config, so
    every sigma reads the (image, repeat)'s one unit field.
    """
    corpus, points, pattern, master_seed, keep_timing = sweep
    image_index, indices = task
    image_id, truth = corpus[image_index]
    seed = derive_run_seed(master_seed, image_id, points[indices[0]][4])
    runs = [(NoiseSpec.uniform(sigma, seed), strategy, dn, dm) for strategy, sigma, dn, dm, _ in (points[i] for i in indices)]
    records = []
    try:
        # Take only the records: a result bound here would live through the next run.
        for record in map(itemgetter(1), _run_group(truth, pattern, runs, image_id)):
            records.append(record if keep_timing else replace(record, wall_ms=0.0))
    except Exception as exc:
        strategy, sigma, dn, dm, _ = points[indices[len(records)]]
        point = f"image={image_id} strategy={strategy.value} sigma={sigma:g} denoiser={dn.describe()} demosaicker={dm.describe()} seed={seed}"
        raise RuntimeError(f"experiment run failed at {point}: {exc}") from exc
    return records


# A pool worker's copy of the sweep, set once by _init_worker as the worker
# starts, so tasks name an image by its index instead of carrying its planes.
_worker_sweep: tuple = ()


def _init_worker(sweep: tuple) -> None:
    global _worker_sweep
    _worker_sweep = sweep
    # A worker runs every stage on its own thread (see _kernel._threads_max).
    _kernel._threads_max = 1


def _run_worker_task(task: tuple[int, list[int]]) -> list[ExperimentRecord]:
    return _run_task(_worker_sweep, task)


def run_experiment(
    corpus: Sequence[tuple[str, RgbImage]],
    grid: ExperimentGrid,
    master_seed: int = 0,
    jobs: Optional[int] = None,
    keep_timing: bool = False,
) -> list[ExperimentRecord]:
    """Run the full sweep; image-major order, grid order within each image.

    Per-run seeds come from derive_run_seed(master_seed, image_id, repeat);
    master_seed must be an integer in [0, 2^64). The runs of one (image,
    repeat) form one task, which runs them sigma by sigma, computes each
    shared stage once (see _run_group) and draws their one unit field once
    (see noise.normal_field). jobs, an integer >= 1 (default: the CPUs
    this process may run on), sets only the pool size: at most one
    worker per CPU and one per task, and no pool when that is one worker. A
    pool's workers run every stage on one thread each. Records are returned
    in deterministic order regardless of jobs, and with keep_timing=False
    (the default) wall_ms is zeroed so repeated runs serialize to
    byte-identical CSV. The grid must be an ExperimentGrid, the corpus (image
    id, RgbImage) pairs, the ids distinct CSV text cells and the sides even
    and at least MIN_SIDE; all are checked before the first run.
    Any failing run aborts the sweep and stops the pool's workers, with the
    offending grid point named, the same point whatever jobs is.
    """
    SEED.check("master_seed", master_seed)
    if jobs is not None:
        COUNT.check("jobs", jobs)
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus must not be empty")
    ids, images = zip(*corpus)
    _check_types("run_experiment", ("grid", ExperimentGrid, (grid,)), ("image_id", str, ids), ("image", RgbImage, images))
    check_image_ids(ids)
    for image_id, truth in corpus:
        _check_sides(truth, f"image {image_id!r}: ")
    points = list(grid.points())
    # One task per (image, repeat), its runs in a stable sort by sigma, so
    # one sigma's stages are live at a time.
    by_sigma = sorted(range(len(points)), key=lambda index: points[index][1])
    tasks = [(image_index, [i for i in by_sigma if points[i][4] == repeat]) for image_index in range(len(corpus)) for repeat in range(grid.repeats)]
    sweep = (corpus, points, grid.pattern, master_seed, keep_timing)
    cpus = _kernel._cpus()
    workers = min(cpus if jobs is None else jobs, cpus, len(tasks))
    if workers <= 1:
        done = [_run_task(sweep, task) for task in tasks]
    else:
        # imap raises at the first failing task in task order, and leaving
        # the block terminates the workers, so no queued task delays the error.
        with multiprocessing.Pool(workers, _init_worker, (sweep,)) as pool:
            done = list(pool.imap(_run_worker_task, tasks))
    records: list = [None] * (len(corpus) * len(points))
    for (image_index, indices), task_records in zip(tasks, done):
        for index, record in zip(indices, task_records):
            records[image_index * len(points) + index] = record
    return records
