"""Shared fixtures: a deterministic synthetic image corpus, a stand-in pool,
and an empty noise-field memo at the start of every test.

The suite needs reference RGB images with natural-image traits (smooth
shading, correlated channels, real edges, some texture) but the repository
ships no binary assets, so three 96x96 scenes are synthesized from fixed
seeds. 96 is divisible by 16, which leaves room for 3 wavelet levels on the
48x48 sub-images.
"""

from __future__ import annotations

import multiprocessing
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

import cfaisp.pipeline as pipeline
from cfaisp import _kernel, noise
from cfaisp.imageio import Plane, RgbImage, encode_pnm

SIZE = 96


def _normalize(field: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = field.max() - field.min()
    if span == 0:
        return np.full_like(field, (lo + hi) / 2.0)
    return lo + (hi - lo) * (field - field.min()) / span


def _smooth_noise(rng: np.random.Generator, sigma: float) -> np.ndarray:
    return gaussian_filter(rng.standard_normal((SIZE, SIZE)), sigma, mode="reflect")


def _with_chroma(lum: np.ndarray, rng: np.random.Generator, strength: float = 0.12) -> RgbImage:
    """Derive correlated R/G/B from one luminance field plus smooth chroma."""
    chroma_u = _normalize(_smooth_noise(rng, 10.0), -1.0, 1.0)
    chroma_v = _normalize(_smooth_noise(rng, 10.0), -1.0, 1.0)
    r = np.clip(lum + strength * chroma_u, 0.0, 1.0)
    g = np.clip(lum, 0.0, 1.0)
    b = np.clip(lum - strength * chroma_v, 0.0, 1.0)
    return RgbImage(Plane(r), Plane(g), Plane(b))


def _make_blobs() -> RgbImage:
    """Soft disks of varying brightness over a diagonal shading ramp."""
    rng = np.random.default_rng(2024_01)
    yy, xx = np.mgrid[0:SIZE, 0:SIZE] / (SIZE - 1)
    lum = 0.25 + 0.35 * (0.6 * xx + 0.4 * yy)
    for cy, cx, radius, gain in ((0.3, 0.25, 0.16, 0.35), (0.7, 0.6, 0.22, -0.18), (0.35, 0.75, 0.12, 0.3), (0.75, 0.2, 0.1, 0.25)):
        dist2 = (yy - cy) ** 2 + (xx - cx) ** 2
        lum = lum + gain * np.exp(-dist2 / (2 * radius**2 / 9))
    lum = lum + 0.02 * _smooth_noise(rng, 2.0)
    return _with_chroma(np.clip(lum, 0.05, 0.95), rng)


def _make_boxes() -> RgbImage:
    """Rectangles with hard borders on a shaded background, lightly blurred."""
    rng = np.random.default_rng(2024_02)
    yy, xx = np.mgrid[0:SIZE, 0:SIZE] / (SIZE - 1)
    lum = 0.55 - 0.25 * yy
    for top, left, h, w, value in ((12, 10, 28, 34, 0.85), (50, 22, 30, 22, 0.2), (20, 58, 44, 26, 0.65), (64, 56, 20, 30, 0.4)):
        lum[top : top + h, left : left + w] = value
    lum = gaussian_filter(lum, 0.7, mode="reflect")
    lum = lum + 0.015 * _smooth_noise(rng, 1.5)
    return _with_chroma(np.clip(lum, 0.05, 0.95), rng)


def _make_waves() -> RgbImage:
    """Mid-frequency plaid plus a sharp diagonal edge."""
    rng = np.random.default_rng(2024_03)
    yy, xx = np.mgrid[0:SIZE, 0:SIZE] / (SIZE - 1)
    plaid = 0.5 + 0.18 * np.sin(2 * np.pi * (5.0 * xx + 1.5 * yy)) + 0.12 * np.sin(2 * np.pi * (4.0 * yy - 1.0 * xx))
    edge = np.where(xx + yy > 1.05, 0.2, 0.0)
    lum = gaussian_filter(plaid + edge, 0.6, mode="reflect")
    return _with_chroma(np.clip(lum, 0.05, 0.95), rng)


CORPUS_BUILDERS = (("blobs", _make_blobs), ("boxes", _make_boxes), ("waves", _make_waves))


@pytest.fixture(autouse=True)
def no_kept_field():
    """Start each test with no noise field kept, so its first request draws one."""
    noise._field.cache_clear()


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, RgbImage]]:
    return [(name, build()) for name, build in CORPUS_BUILDERS]


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory, corpus):
    """The corpus written as 16-bit PPM files, for CLI-level tests."""
    root = tmp_path_factory.mktemp("corpus")
    for name, image in corpus:
        (root / f"{name}.ppm").write_bytes(encode_pnm(image, bit_depth=16))
    return root


class InlinePool:
    """A stand-in for multiprocessing.Pool that runs each task in this process.

    It records its processes, the tasks given to imap and whether the with
    block was left by an exception, which is when the real pool's exit
    terminates workers still running tasks. Like the real pool, imap yields
    the results in task order, so the error it raises is that of the first
    failing task.
    """

    def __init__(self, processes, initializer, initargs):
        self.processes = processes
        self.tasks = []
        self.failed = None
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.failed = exc_type is not None
        return False

    def imap(self, fn, tasks):
        self.tasks = list(tasks)
        return map(fn, self.tasks)


@pytest.fixture
def inline_pool(monkeypatch):
    """Run run_experiment's pools inline, so no process starts however large jobs is.

    Returns the list of the pools started, in order.
    """
    pools = []

    def start(*args, **kwargs):
        pools.append(InlinePool(*args, **kwargs))
        return pools[-1]

    # The initializer sets this process's pool-worker state; undo it afterwards.
    monkeypatch.setattr(pipeline, "_worker_sweep", ())
    monkeypatch.setattr(_kernel, "_threads_max", _kernel._threads_max)
    monkeypatch.setattr(multiprocessing, "Pool", start)
    return pools


@pytest.fixture
def peak_bytes():
    """The tracemalloc peak, in bytes, of one call of a no-argument function."""

    def measure(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def by_cpus(monkeypatch):
    """Run a call with _kernel._cpus() giving each of cpus, 1, 2 and 3 by default, each with no noise field kept.

    Returns {cpus: (the call's result, the thread counts of the pools that
    _kernel._walk opened during it)}.
    """
    opened = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(_kernel, "ThreadPoolExecutor", CountedPool)

    def run(call, cpus=(1, 2, 3)) -> dict:
        got = {}
        for count in cpus:
            monkeypatch.setattr(_kernel, "_cpus", lambda: count)
            # A kept field would spare a later count its draw and its pool.
            noise._field.cache_clear()
            opened.clear()
            got[count] = (call(), tuple(opened))
        return got

    return run
