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
# caller's, so the cap bounds their memory: a 2 _STRIP-sample buffer for
# the noise generator, about 1.2 MiB for a 512^2 bilateral plane and 2.7 MiB
# for a 512^2 joint mosaic (four class sums), 1.8 planes for a wavelet
# plane. Whether a 3rd or 4th thread runs faster is unmeasured. An
# experiment's pool workers set it to 1: each CPU there runs a worker, and
# the bilateral kernel's threads on top slowed a 2-worker sweep on 2 CPUs.
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
    closed within the call, so no thread outlives it, runs them, each item
    on a free set, and the first failing item's error in list order is
    raised once it has closed. step must call no public module attribute,
    which a tracer may replace, and must set any numpy float error state it
    needs, which is per thread.
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
    flattened, so a ufunc call over a run of it runs one inner loop. Every
    phase plane is width samples wide (at step 2 the frame's sides are
    even), and the lattice itself is rows x cols. Full-frame coordinates
    (y, x) may lie in the padding.
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

    def run(self, y: int, x: int, n: int, extra: int = 0) -> np.ndarray:
        """n lattice rows from full-frame (y, x), as one contiguous run of length(n) samples and extra more."""
        y, x = y + self.radius, x + self.radius
        start = y // self.step * self.width + x // self.step
        return self.flat[y % self.step][x % self.step][start : start + self.length(n) + extra]

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
        """The n x cols lattice samples of a band's result, as a view.

        run is C-contiguous, and its last axis at least as long as run(y, x,
        n); row i of the band is the cols samples from i width. The samples
        between the rows are padding, and the view skips them. A view over
        run's buffer checks its bounds, in a fraction of as_strided's time.
        """
        *outer, item = run.strides
        return np.ndarray((*run.shape[:-1], n, self.cols), run.dtype, memoryview(run), 0, (*outer, self.width * item, item))


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

    The weight is symmetric, w(p, p + d) = w(p + d, p) bit for bit, so each
    offset pair +/- d is computed once (Condat 2010): the run of weights
    w(q, q + d) over a band and |dy| more rows serves d at q and -d at
    q + d. The work is a list of bands of whole full-resolution rows of at
    most 2 _STRIP samples. A band keeps one (num, den) sum per parity class (dy mod 2, dx
    mod 2) of the offsets, one class with no pattern: all neighbours of one
    class have one color relative to p's tile site. Each sum takes the
    centre first, then d and -d for each offset d of the window's first
    half in row-major order; at each tile site, the classes of one color
    are added in class order before the division. Every run is written in
    place into buffers sized for the largest band, so the working set stays
    in cache. The underflow fallback and its error read the cropped band
    only. _walk runs the list; a band writes only its own rows of the result
    and sums each in a fixed order, so the bits do not depend on the thread
    count or the schedule.
    """
    check_fields(sigma_s=sigma_s, sigma_r=sigma_r)
    # 2 sigma sigma is inf where sigma^2 overflows, which gives the weights'
    # sigma -> inf limit; SIGMA_FLOOR keeps 1 / (2 sigma^2) finite.
    inv_2ss = 1.0 / (2.0 * sigma_s * sigma_s)
    inv_2sr = 1.0 / (2.0 * sigma_r * sigma_r)
    radius = math.ceil(3.0 * sigma_s)
    step, buckets = (1, 1) if pattern is None else (2, 3)
    color = {(0, 0): 0} if pattern is None else {(row, col): "RGB".index(c) for row, col, c in pattern.sites}
    classes = [(cy, cx) for cy in range(step) for cx in range(step)]
    # (tile site row, col, bucket, the classes of the bucket's color there),
    # classes indexed as in classes.
    groups = [
        (row, col, k, [i for i, (cy, cx) in enumerate(classes) if color[(row + cy) % step, (col + cx) % step] == k])
        for row, col in sorted(color)
        for k in range(buckets)
    ]
    # The means come before the pads: allocated after them, in a sequence of
    # joint and bilateral runs at 512^2, they found no free block of the heap
    # often enough to raise the peak resident set by 4 MiB.
    out = np.empty((buckets, *data.shape))
    data_at = _shifted(data, radius)
    guide_at = data_at if guide is data else _shifted(guide, radius)
    half = [
        (dy, dx, math.exp(-(dy * dy + dx * dx) * inv_2ss), dy % step * step + dx % step)
        for dy in range(-radius, 1)
        for dx in range(-radius, radius + 1 if dy < 0 else 0)
    ]
    work = list(data_at.bands(2))
    most = max(n for _, n in work)
    length = data_at.length(most)
    overhang = radius * data_at.width + radius  # the most samples a weight run reaches past its band

    # A thread's buffer set: the weights, a product, each class's sums and
    # the underflow mask, sized for the largest band. A sum's rows are a
    # whole number of 64-byte lines apart: a run apart, they ran about 7%
    # slower at 512^2. One array per class, rather than one for all four,
    # fitted the heap's free blocks better: 2 MiB less peak resident set.
    def buffer_set():
        return np.empty(length + overhang), np.empty(length), [np.empty((2, -(-length // 8) * 8)) for _ in classes], np.empty((buckets, most, data_at.cols), bool)

    def sums_at(buffers, top, n, inv_2sr):
        """Each class's weighted sums, (num, den) as one (2, n, cols) view, for the n rows from top."""
        weights, product, sums, _ = buffers
        size = data_at.length(n)
        product = product[:size]
        pairs = [tuple(pair[:, :size]) for pair in sums]
        # The centre's weight is exp(-0) = 1, and x + 0.0 is x added to a
        # zeroed sum, -0 included.
        np.add(data_at.run(top, 0, n), 0.0, out=pairs[0][0])
        pairs[0][1].fill(1.0)
        for pair in sums[1:]:
            pair.fill(0.0)
        for dy, dx, spatial, kind in half:
            # weight[i] is the weight of the pair (q, q + d), q the i-th
            # sample from the band's first: d's weight at p = q, and -d's at
            # p = q + d, which lies shift samples before q.
            shift = -dy * data_at.width - dx
            weight = weights[: size + shift]
            # -(d^2) * k and d^2 * -k round alike: negation is exact.
            np.subtract(guide_at.run(top + dy, dx, n, shift), guide_at.run(top, 0, n, shift), out=weight)
            np.square(weight, out=weight)
            np.multiply(weight, -inv_2sr, out=weight)
            np.exp(weight, out=weight)
            np.multiply(spatial, weight, out=weight)
            num, den = pairs[kind]
            for start, y, x in ((0, top + dy, dx), (shift, top - dy, -dx)):
                run = weight[start : start + size]
                np.add(den, run, out=den)
                np.add(num, np.multiply(run, data_at.run(y, x, n), out=product), out=num)
        return [data_at.crop(pair, n) for pair in sums]

    def sites(sums, top, n, underflows):
        """(mean, (num, den), underflow) of each group in the n rows from top, as views at its tile site.

        mean views out, underflow a mask of the buffer set, and a group's
        classes are added in class order into its first class's sums.
        """
        for row, col, k, members in groups:
            at = (slice((row - top) % step, None, step), slice(col, None, step))
            first, *rest = (sums[i][:, at[0], at[1]] for i in members)
            for pair in rest:
                np.add(first, pair, out=first)
            yield out[k, top : top + n][at], first, underflows[k][at]

    tiny = np.finfo(np.float64).tiny

    def walk(band, buffers):
        """Write the means of one band, (top, n) rows, into out."""
        top, n = band
        underflows = buffers[3][:, :n]
        with np.errstate(over="ignore", invalid="ignore"):
            fallback = False
            for mean, (num, den), underflow in sites(sums_at(buffers, top, n, inv_2sr), top, n, underflows):
                np.divide(num, den, out=mean)
                fallback |= np.less(den, tiny, out=underflow).any()
            # The fallback is a second sums_at call, into the same buffers:
            # a closure that called itself would be a reference cycle,
            # keeping each call's planes alive until the next collection.
            if fallback:
                for mean, (num, den), underflow in sites(sums_at(buffers, top, n, 0.0), top, n, underflows):
                    # A one-row band holds no row of the other tile row's sites.
                    if den.size and den.min() < tiny:
                        raise ValueError(f"sigma_s={sigma_s:g} is too small: the spatial weights of some sample underflow")
                    np.divide(num, den, out=mean, where=underflow)

    _walk(work, walk, buffer_set)
    return out
