"""The stage machinery: the strip, the one thread pool, the stencil lattice and the bilateral kernel.

Stages read _STRIP from this module when they run, so it has one binding.
_walk is the one thread pool, and _shifted the one mirror pad: every stencil
filter and demosaicker reads its neighbours through it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from cfaisp.config import check_fields

# Samples per block of the stages that walk a frame in pieces: the encoder's
# tiles, the noise generator's pairs, the wide median's tiles and the
# stencil stages' bands. Their block-sized buffers then stay in L2 (whole
# 256x256 planes ran the median 3x slower). The noise generator's blocks and
# the bilateral kernel's bands of 2 _STRIP samples run on _walk's threads:
# a block's cosines and sines, and each of a band's ufunc calls, run long
# enough for another thread to take the interpreter lock meanwhile. At
# _STRIP samples the bilateral's calls were too short, and two threads ran
# no faster than one.
_STRIP = 16384

# The most threads one _walk runs on. Each holds a buffer set of its
# caller's: a 2 _STRIP-sample buffer for the noise generator, about 0.8 MiB
# for a 512^2 bilateral plane, 1.8 planes for a wavelet plane. Whether a 3rd
# or 4th thread runs faster is unmeasured. An experiment's pool workers set
# it to 1: each CPU there runs a worker, and the bilateral kernel's threads
# on top slowed a 2-worker sweep on 2 CPUs.
_threads_max = 4


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads(items: int) -> int:
    """The threads that walk a list of items: one per CPU, at most _threads_max and one per item."""
    return max(1, min(_cpus(), items, _threads_max))


def _walk(work, step, buffers, small: bool = False) -> None:
    """Call step(item, a buffer set) for every item of work, a sized sequence, on _threads(len(work)) threads.

    small, work below its stage's size rule, runs on one thread. The calling
    thread calls buffers() once per thread: buffers that a helper thread
    allocates land in its malloc arena, which keeps its peak. On one thread
    the items run in order and no pool starts; otherwise a pool opened and
    closed within the call runs them, each item on a free set, and the first
    failing item's error in list order is raised once it has closed. step
    must call no public module attribute, which a tracer may replace, and
    must set any numpy float error state it needs, which is per thread.
    """
    free = [buffers() for _ in range(1 if small else _threads(len(work)))]
    if len(free) == 1:
        for item in work:
            step(item, free[0])
        return

    def run(item):
        taken = free.pop()
        try:
            step(item, taken)
        finally:
            free.append(taken)

    # map raises the first failing item's error in list order and cancels
    # the items not yet started; leaving the block waits for the rest.
    with ThreadPoolExecutor(len(free)) as pool:
        for _ in pool.map(run, work):
            pass


def _tiles(h: int, w: int, samples: int):
    """(top, left, rows, cols) of the tiles that cover an h x w grid in row-major order.

    A tile holds at most samples samples: whole rows where a row fits,
    else one piece of a row.
    """
    cols = min(w, samples)
    rows = min(h, samples // cols)
    for top in range(0, h, rows):
        for left in range(0, w, cols):
            yield top, left, min(rows, h - top), min(cols, w - left)


class _Lattice(NamedTuple):
    """The lattice data[::step, ::step], read from one mirror pad; _shifted builds it.

    flat[a][b] is the phase plane pad[a::step, b::step], contiguous and
    flattened. Every phase plane is width samples wide (at step 2 the frame's
    sides are even), and the lattice itself is rows x cols. Full-frame
    coordinates (y, x) may lie in the padding.
    """

    flat: list
    radius: int
    step: int
    rows: int
    cols: int
    width: int

    def length(self, n: int) -> int:
        """The samples in a run of n lattice rows: (n - 1) width + cols."""
        return (n - 1) * self.width + self.cols

    def run(self, y: int, x: int, n: int) -> np.ndarray:
        """n lattice rows from full-frame (y, x), as one contiguous run of length(n) samples."""
        y, x = y + self.radius, x + self.radius
        start = y // self.step * self.width + x // self.step
        return self.flat[y % self.step][x % self.step][start : start + self.length(n)]

    def bands(self, strips: int = 1):
        """(top, n) for each band of n whole lattice rows: n cols <= strips _STRIP samples, or one row.

        A band is sized by its lattice samples, not by its padded rows: a
        remainder band of a few rows costs as many ufunc calls as a full one,
        and padded rows would leave one in every phase of a power-of-two
        frame.
        """
        n = max(1, strips * _STRIP // self.cols)
        for top in range(0, self.rows, n):
            yield top, min(n, self.rows - top)

    def crop(self, run: np.ndarray, n: int) -> np.ndarray:
        """The n x cols lattice samples of a band's result, as a read-only view.

        run is C-contiguous, and its last axis at least as long as run(y, x,
        n); row i of the band is the cols samples from i width. The samples
        between the rows are padding, and the view skips them. A view over
        run's buffer checks its bounds, in a fraction of as_strided's time.
        """
        *outer, item = run.strides
        return np.ndarray((*run.shape[:-1], n, self.cols), run.dtype, memoryview(run).toreadonly(), 0, (*outer, self.width * item, item))


def _shifted(data: np.ndarray, radius: int, step: int = 1) -> _Lattice:
    """Neighbour reads on the lattice data[::step, ::step], from one mirror pad.

    Pads data by radius on every side once, reflecting without duplicating
    the edge sample, and splits the pad into its step^2 phase planes (step 1
    keeps the pad itself). A stencil stage walks the lattice in bands of
    whole rows, reads each neighbour of a band as run(y + dy, x + dx, n), and
    computes its result for the band elementwise as one run of the same
    length, whose kept samples crop(result, n) views. The samples between
    the kept rows are padding: no decision reads them, and a stage whose
    sums can overflow ignores float errors, as they may arise there with no
    fault of the input; one in a kept sample is left to Plane's finiteness
    check, as one ValueError. Mirror reflection keeps an index's parity on
    an even-size frame, so a step-2 run from a tile site reads that site only.
    """
    pad = np.pad(data, radius, mode="reflect")
    flat = [[np.ascontiguousarray(pad[a::step, b::step]).reshape(-1) for b in range(step)] for a in range(step)]
    rows, cols, width = (len(range(0, size, step)) for size in (*data.shape, pad.shape[1]))
    return _Lattice(flat, radius, step, rows, cols, width)


def _bilateral(data, guide, sigma_s, sigma_r, pattern=None) -> np.ndarray:
    """Bilateral means of data, one full frame per bucket, stacked (buckets, h, w).

    Weights are exp(-d^2 / 2 sigma_s^2) exp(-(g_p - g_q)^2 / 2 sigma_r^2) over
    a +/- ceil(3 sigma_s) window, g read from guide. With no pattern, every
    neighbour q joins p's one mean. With a CFA pattern, q joins p's mean in
    bucket R, G or B, the color pattern.sites gives q's tile site; mirror
    reflection keeps an index's parity on an even-size frame, so a bucket
    holds one color at the borders too. A weight sum below the smallest
    normal float takes the spatial-only mean (the sigma_r -> inf limit).

    The work is a list of bands: each phase of the lattice [::step, ::step],
    step 2 with a pattern, in pattern.sites order, in bands of whole rows of
    at most 2 _STRIP lattice samples. A band runs every offset, in row-major
    window order, over flat neighbour runs into buffers written in place, so
    its working set stays in cache. The underflow fallback and its error
    read the cropped band only. _walk runs the list; a band writes only its
    own samples of the result and sums each in a fixed order, so the bits do
    not depend on the thread count or the schedule.
    """
    check_fields(sigma_s=sigma_s, sigma_r=sigma_r)
    # 2 sigma sigma is inf where sigma^2 overflows, which gives the weights'
    # sigma -> inf limit; SIGMA_FLOOR keeps 1 / (2 sigma^2) finite.
    inv_2ss = 1.0 / (2.0 * sigma_s * sigma_s)
    inv_2sr = 1.0 / (2.0 * sigma_r * sigma_r)
    radius = math.ceil(3.0 * sigma_s)
    step, buckets = (1, 1) if pattern is None else (2, 3)
    sites = [(0, 0, 0)] if pattern is None else [(row, col, "RGB".index(color)) for row, col, color in pattern.sites]
    tile = [k for _, _, k in sorted(sites)]  # the tile sites' buckets, row-major
    data_at = _shifted(data, radius, step)
    guide_at = data_at if guide is data else _shifted(guide, radius, step)
    offsets = range(-radius, radius + 1)
    window = [(dy, dx, math.exp(-(dy * dy + dx * dx) * inv_2ss)) for dy in offsets for dx in offsets]
    out = np.empty((buckets, *data.shape))
    bands = list(data_at.bands(2))
    work = [(py + step * top, px, n) for py, px, _ in sites for top, n in bands]
    most = max(n for _, n in bands)
    length = data_at.length(most)

    # A thread's buffer set: the weights, the sums and the underflow mask,
    # sized for the largest band. The sums' rows are a whole number of 64-byte
    # lines apart: a run apart, they ran about 7% slower at 512^2.
    def buffer_set():
        return np.empty(length), np.empty((buckets, 2, -(-length // 8) * 8)), np.empty((buckets, most, data_at.cols), bool)

    def sums_at(buffers, y, x, n, inv_2sr):
        """Weighted sums (buckets, 2, n, cols), each bucket's (num, den), for the n lattice rows from full-frame (y, x)."""
        center = guide_at.run(y, x, n)
        weight, sums, _ = buffers
        weight = weight[: center.size]
        sums.fill(0.0)
        pairs = [tuple(pair[:, : center.size]) for pair in sums]
        for dy, dx, spatial in window:
            # -(d^2) * k and d^2 * -k round alike: negation is exact.
            np.subtract(guide_at.run(y + dy, x + dx, n), center, out=weight)
            np.square(weight, out=weight)
            np.multiply(weight, -inv_2sr, out=weight)
            np.exp(weight, out=weight)
            np.multiply(spatial, weight, out=weight)
            num, den = pairs[tile[(y + dy) % step * step + (x + dx) % step]]
            np.add(den, weight, out=den)
            np.add(num, np.multiply(weight, data_at.run(y + dy, x + dx, n), out=weight), out=num)
        return data_at.crop(sums, n)

    tiny = np.finfo(np.float64).tiny

    def walk(band, buffers):
        """Write the means of one band, (y, x, n) as in sums_at, into out."""
        y, x, n = band
        with np.errstate(over="ignore", invalid="ignore"):
            sums = sums_at(buffers, y, x, n, inv_2sr)
            mean = out[:, y : y + step * n : step, x::step]
            np.divide(sums[:, 0], sums[:, 1], out=mean)
            underflow = np.less(sums[:, 1], tiny, out=buffers[2][:, :n])
            # The fallback is a second sums_at call, into the same buffers:
            # a closure that called itself would be a reference cycle,
            # keeping each call's planes alive until the next collection.
            if underflow.any():
                sums = sums_at(buffers, y, x, n, 0.0)
                if (sums[:, 1] < tiny).any():
                    raise ValueError(f"sigma_s={sigma_s:g} is too small: the spatial weights of some sample underflow")
                np.divide(sums[:, 0], sums[:, 1], out=mean, where=underflow)

    _walk(work, walk, buffer_set)
    return out
