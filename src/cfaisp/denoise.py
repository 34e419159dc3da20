"""Single-plane denoisers and their application to CFA sub-images.

Four filters with one shared contract (Plane in, same-sized Plane out):

- gaussian: separable blur, truncated at three sigmas per side, as one
  vertical and one horizontal pass over each band of the padded plane.
- median: the middle value of each (2 radius + 1)^2 window. Radius 1 runs a
  pruned 19-exchange sorting network of elementwise min/max over the nine
  neighbour runs of each band; larger radii partition the windows of one
  2-D tile at a time.
- bilateral: edge-preserving blur weighting neighbors by spatial distance
  and intensity difference, walked in bands of up to 2 _STRIP samples.
- wavelet: soft thresholding of orthonormal Haar detail coefficients with a
  per-subband data-driven threshold; the coarse approximation is kept as is.

Two stages run on imageio._walk's threads, one per CPU (at most
imageio._threads_max; one in an experiment's pool workers), from a pool
opened and closed within the call: the bilateral kernel's bands, and
denoise_planes's wavelet planes of a frame when each plane is large
enough. Each thread writes in place into one buffer set the calling thread
allocated, so the call's memory stays in that thread's malloc arena, and
the bits do not depend on the thread count. The gaussian and the median
walk their bands on the calling thread.

Borders are handled by mirror reflection without duplicating the edge sample.
_shifted is the one place that pads for it: the gaussian, median and
bilateral filters and the linear and joint demosaickers read every neighbour
through it. It splits the pad once into contiguous phase planes, one per 2x2
tile site at step 2. A stencil stage walks the lattice in bands of whole
rows, at most _STRIP lattice samples each (twice that for the bilateral),
and reads each neighbour of a band as one contiguous run of a flattened
phase plane. The band's result is one run of the same length, and
_Lattice.crop views its kept samples. The wavelet pads a plane whose sides
are not multiples of 2^levels the same way, at the bottom and right
(_mirror, into a buffer of the caller's), and crops the result back.

The wavelet threshold for a subband with noise level sigma_n and signal
spread sigma_x = sqrt(max(var - sigma_n^2, 0)) is sigma_n^2 / sigma_x; a
subband with no estimated signal is zeroed outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cfaisp.cfa import SubImages
from cfaisp.imageio import _STRIP, DimensionError, Plane, _threads, _tiles, _walk
from cfaisp.noise import SIGMA, Rule, _estimate_sigma, is_int, is_real

_SQRT2 = math.sqrt(2.0)

# The largest spatial sigma, a 601 x 601 window. A bound tied to the frame
# size would reject the default sigma_s on the 1x1 sub-images of a 2x2 mosaic.
SIGMA_S_MAX = 100.0
# The smallest spatial or range sigma: below about 5.27e-155 the 1 / (2 sigma^2)
# in a Gaussian weight's exponent overflows, and no weight exists.
SIGMA_FLOOR = 1e-154
# The largest median radius: the same 601 x 601 window.
RADIUS_MAX = math.ceil(3 * SIGMA_S_MAX)
# The most wavelet levels. Padding a side to a multiple of 2^levels then adds
# fewer than 1,024 rows or columns, so a 2 x 2 plane grows to at most 8 MiB.
LEVELS_MAX = 10


def _number_or_auto(text: str) -> Optional[float]:
    """sigma_n's text form: a number, or 'auto' (any case) for None."""
    if text.strip().lower() == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number or 'auto', got {text!r}") from None


def _show_real(v: float) -> str:
    """float(v) in %g form when that reads back to it, else its repr, which always does."""
    v = float(v)
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


class ConfigField(NamedTuple):
    """A method config field: its text parse, its rule, how describe() shows it, and what it means."""

    parse: Callable[[str], Any]
    rule: Rule
    show: Callable[[Any], str]
    meaning: str


# Each config field a method can read. The CLI builds one flag per field of
# DenoiserConfig and DemosaickerConfig from this table, and each show is
# read back by its parse.
CONFIG_FIELDS = {
    "sigma_s": ConfigField(
        float, Rule(lambda v: is_real(v) and SIGMA_FLOOR <= v <= SIGMA_S_MAX, f"finite, >= {SIGMA_FLOOR:g} and <= {SIGMA_S_MAX:g}"), _show_real,
        "spatial sigma in pixels (gaussian, bilateral, joint-bilateral)",
    ),
    "radius": ConfigField(int, Rule(lambda v: is_int(v) and 1 <= v <= RADIUS_MAX, f"an integer in [1, {RADIUS_MAX}]"), str, "median window radius"),
    "sigma_r": ConfigField(
        float, Rule(lambda v: is_real(v) and v >= SIGMA_FLOOR, f"in float range and >= {SIGMA_FLOOR:g}, or inf"), _show_real, "range sigma (bilateral, joint-bilateral), or inf for spatial weights only"
    ),
    "levels": ConfigField(int, Rule(lambda v: is_int(v) and 1 <= v <= LEVELS_MAX, f"an integer in [1, {LEVELS_MAX}]"), str, "wavelet decomposition levels"),
    "sigma_n": ConfigField(
        _number_or_auto, Rule(lambda v: v is None or SIGMA.test(v), SIGMA.need), lambda v: "auto" if v is None else _show_real(v), "wavelet noise level, or 'auto' to estimate it per plane"
    ),
}


def _check_fields(**values) -> None:
    """Raise ValueError for the first value outside the range of its config field."""
    for name, value in values.items():
        CONFIG_FIELDS[name].rule.check(name, value)


def check_method(config, table: dict, family: str) -> None:
    """Reject an unknown config.kind, or an out-of-range field that kind reads.

    table maps each kind to (implementation, the config fields it reads); the
    denoiser and demosaicker configs share this check and describe_method.
    """
    if config.kind not in table:
        raise ValueError(f"unknown {family} kind {config.kind!r}; expected one of {', '.join(table)}")
    _check_fields(**{name: getattr(config, name) for name in table[config.kind][1]})


def describe_method(config, table: dict) -> str:
    """Comma-free descriptor kind(field=value ...) over the fields the kind reads."""
    params = " ".join(f"{name}={CONFIG_FIELDS[name].show(getattr(config, name))}" for name in table[config.kind][1])
    return f"{config.kind}({params})" if params else config.kind


@dataclass(frozen=True)
class DenoiserConfig:
    """Denoiser selection plus the parameters the chosen kind reads.

    kind "none" is the identity filter, kept so pipelines can be configured
    with denoising disabled. In a pipeline run it adds no step: with it
    every strategy walks the joint strategy's path, noise then demosaic, so
    before + none and after + none run the same stages. sigma_n=None asks
    the wavelet filter to estimate the noise level from each plane it
    processes.
    """

    kind: str = "wavelet"
    sigma_s: float = 1.0
    radius: int = 1
    sigma_r: float = 0.1
    levels: int = 3
    sigma_n: Optional[float] = None

    def __post_init__(self) -> None:
        check_method(self, _DENOISERS, "denoiser")

    def describe(self) -> str:
        """Compact comma-free descriptor used in CSV output."""
        return describe_method(self, _DENOISERS)


@dataclass(frozen=True)
class WaveletPyramid:
    """Orthonormal Haar decomposition: coarse LL plus per-level detail triples.

    details[0] is the finest level; each entry is (LH, HL, HH) where the
    first letter is the vertical filter and the second the horizontal one.
    """

    ll: np.ndarray
    details: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def levels(self) -> int:
        return len(self.details)


def _haar(x: np.ndarray, y: np.ndarray, op, out: Optional[np.ndarray] = None) -> np.ndarray:
    """op(x, y) / sqrt(2), one Haar filter tap pair, written into out if given."""
    out = op(x, y, out=out)
    return np.divide(out, _SQRT2, out=out)


def dwt_haar(plane: Plane, levels: int) -> WaveletPyramid:
    """Multi-level orthonormal 2-D Haar transform.

    Both dimensions must be divisible by 2**levels. The (a +/- b) / sqrt(2)
    filter pair preserves energy exactly, so the inverse below reconstructs
    to floating-point roundoff.
    """
    _check_fields(levels=levels)
    h, w = plane.data.shape
    if h % 2**levels or w % 2**levels:
        raise DimensionError(f"dimensions {w}x{h} not divisible by 2^{levels}")
    subbands = _subbands((h, w), levels)
    _dwt(plane.data, subbands, np.empty(h * w // 4))
    return WaveletPyramid(ll=subbands[-1][0], details=tuple((lh, hl, hh) for _, lh, hl, hh in subbands))


def idwt_haar(pyramid: WaveletPyramid) -> Plane:
    """Invert dwt_haar, coarsest level first."""
    h, w = pyramid.ll.shape
    outs = [np.empty((h << k, w << k)) for k in range(pyramid.levels, 0, -1)]
    finest = pyramid.details[0][0].size if pyramid.details else 0
    current = _idwt(pyramid.ll, pyramid.details, outs, np.empty(finest), np.empty(finest))
    # A pyramid with no detail levels hands back the caller's own ll array.
    return Plane(current) if current is pyramid.ll else Plane._adopt(current)


def _wavelet_buffers(shape: tuple, levels: int) -> tuple:
    """The buffers one plane's wavelet denoising writes, for planes of the given shape.

    (the mirror pad, or None where the sides are multiples of 2**levels;
    each level's [ll, lh, hl, hh], finest first; two flat buffers of a
    finest subband's samples, one for the sigma estimate's HH and each
    subband's temporaries, the other for the inverse's hi rows).
    """
    h, w = (-(-side // 2**levels) * 2**levels for side in shape)
    pad = None if (h, w) == tuple(shape) else np.empty((h, w))
    return pad, _subbands((h, w), levels), np.empty(h * w // 4), np.empty(h * w // 4)


def _subbands(shape: tuple, levels: int) -> list:
    """Empty [ll, lh, hl, hh] of each level of a shape's pyramid, finest first."""
    h, w = shape
    return [[np.empty((h >> k, w >> k)) for _ in range(4)] for k in range(1, levels + 1)]


def _prefix(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The first samples of the flat buffer flat, as a C-contiguous array of the given shape."""
    return flat[: shape[0] * shape[1]].reshape(shape)


def _dwt(current: np.ndarray, subbands: list, spare: np.ndarray) -> None:
    """dwt_haar's levels of current, written into subbands as from _wavelet_buffers; spare holds a temporary."""
    for ll, lh, hl, hh in subbands:
        a, b = current[0::2, 0::2], current[0::2, 1::2]
        c, d = current[1::2, 0::2], current[1::2, 1::2]
        # Rows 2i and 2i + 1 of the row pass's lo, then of its hi, each held
        # in a subband whose own value comes once its last reader is done.
        even, odd = _haar(a, b, np.add, out=hl), _haar(c, d, np.add, out=hh)
        _haar(even, odd, np.add, out=ll)
        _haar(even, odd, np.subtract, out=hl)
        even, odd = _haar(a, b, np.subtract, out=hh), _haar(c, d, np.subtract, out=_prefix(spare, ll.shape))
        _haar(even, odd, np.add, out=lh)
        _haar(even, odd, np.subtract, out=hh)
        current = ll


def _idwt(ll: np.ndarray, details, outs: list, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Invert the (lh, hl, hh) levels details, finest first, on coarse approximation ll.

    Level k's result is written into outs[k], twice level k's subbands on
    each side, and the finest one is returned. lo and hi are flat buffers of
    at least a finest subband's samples.
    """
    current = ll
    for (lh, hl, hh), out in zip(reversed(details), reversed(outs)):
        rows, cols = current.shape
        low, high = _prefix(lo, (rows, cols)), _prefix(hi, (rows, cols))
        # Rows 2i, then rows 2i + 1, of the column pass's lo and hi, whose
        # sums and differences fill the output's even and odd columns.
        for row, op in ((0, np.add), (1, np.subtract)):
            _haar(current, hl, op, out=low)
            _haar(lh, hh, op, out=high)
            np.add(low, high, out=out[row::2, 0::2])
            np.subtract(low, high, out=out[row::2, 1::2])
        current = np.divide(out, _SQRT2, out=out)
    return current


def _gaussian_kernel(sigma_s: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma_s)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma_s * sigma_s))
    return kernel / kernel.sum()


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
    the edge sample, and splits the pad into its step^2 phase planes,
    pad[a::step, b::step], each a contiguous copy (step 1 keeps the pad
    itself). A stencil stage walks the lattice in bands of whole rows and
    reads each neighbour of a band as run(y + dy, x + dx, n): one contiguous
    run of a flattened phase plane, the band's rows a padded width apart.
    Its result for the band is one run of the same length, computed
    elementwise, and crop(result, n) views the kept samples. The samples
    between the kept rows are padding: no decision reads them, and a stage
    whose sums can overflow ignores float errors, as they may arise there
    with no fault of the input; one in a kept sample is left to Plane's
    finiteness check, as one ValueError. Mirror reflection keeps an index's
    parity on an even-size frame, so a step-2 run from a tile site reads
    that site only.
    """
    pad = np.pad(data, radius, mode="reflect")
    flat = [[np.ascontiguousarray(pad[a::step, b::step]).reshape(-1) for b in range(step)] for a in range(step)]
    rows, cols, width = (len(range(0, size, step)) for size in (*data.shape, pad.shape[1]))
    return _Lattice(flat, radius, step, rows, cols, width)


def _blur_line(at, kernel: np.ndarray) -> np.ndarray:
    """Sum of kernel[r + j] * at(j) over |j| <= r, for a symmetric odd-length kernel.

    The center tap comes first, then (at(-j) + at(j)) * kernel[r - j] for j
    from r down to 1, the order scipy.ndimage.convolve1d sums a symmetric
    kernel in, so the values equal convolve1d(mode="mirror") bit for bit.
    """
    r = len(kernel) // 2
    out = np.multiply(at(0), kernel[r])
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(at(-j), at(j), out=pair)
        np.add(out, np.multiply(pair, kernel[r - j], out=pair), out=out)
    return out


@np.errstate(over="ignore", invalid="ignore")
def denoise_gaussian(plane: Plane, sigma_s: float) -> Plane:
    """Separable Gaussian blur with a renormalized +/- 3 sigma kernel, one band at a time.

    The vertical pass blurs the band's n whole rows of the pad, padding
    columns included: each is a copy of the column it mirrors, so its blur is
    that column's blur. The horizontal pass then reads those rows as flat
    runs, each 2 r samples shorter. One pad serves both passes.
    """
    _check_fields(sigma_s=sigma_s)
    kernel = _gaussian_kernel(sigma_s)
    r = len(kernel) // 2
    at = _shifted(plane.data, r)
    pad, width = at.flat[0][0], at.width
    out = np.empty(plane.data.shape)
    for top, n in at.bands():
        columns = _blur_line(lambda dy: pad[(top + r + dy) * width : (top + r + dy + n) * width], kernel)
        rows = _blur_line(lambda dx: columns[r + dx : columns.size - r + dx], kernel)
        out[top : top + n] = at.crop(rows, n)
    return Plane._adopt(out)


# Paeth's 19-exchange network for the median of nine ("Median finding on a
# 3x3 grid", Graphics Gems, 1990). Exchange (i, j) leaves the min in p[i] and
# the max in p[j]; "lo" or "hi" keeps one side only, where the other is never
# read again on the way to the middle value p[4].
_MEDIAN9 = (
    (1, 2, "both"), (4, 5, "both"), (7, 8, "both"),
    (0, 1, "both"), (3, 4, "both"), (6, 7, "both"),
    (1, 2, "both"), (4, 5, "both"), (7, 8, "both"),
    (0, 3, "hi"), (5, 8, "lo"), (4, 7, "both"),
    (3, 6, "hi"), (1, 4, "hi"), (2, 5, "lo"),
    (4, 7, "lo"), (4, 2, "both"), (6, 4, "hi"), (4, 2, "lo"),
)  # fmt: skip


def _median9(views: list) -> np.ndarray:
    """Elementwise median of nine same-shaped arrays, run on copies made here."""
    p = [np.array(view) for view in views]
    spare = np.empty_like(p[0])
    for i, j, keep in _MEDIAN9:
        low, high = p[i], p[j]
        if keep != "hi":
            p[i], spare = np.minimum(low, high, out=spare), low
        if keep != "lo":
            np.maximum(low, high, out=high)
    return p[4]


def denoise_median(plane: Plane, radius: int) -> Plane:
    """Median over a (2 radius + 1) square window.

    Radius 1 runs a sorting network over the nine neighbour runs of each
    band of the mirror-padded plane; a larger window takes the middle
    element of a partition over the windows of one 2-D tile at a time.
    """
    _check_fields(radius=radius)
    h, w = plane.data.shape
    at = _shifted(plane.data, radius)
    side = 2 * radius + 1
    size = side * side
    out = np.empty((h, w))
    if radius == 1:
        for top, n in at.bands():
            middle = _median9([at.run(top + dy, dx, n) for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
            out[top : top + n] = at.crop(middle, n)
        return Plane._adopt(out)
    windows = sliding_window_view(at.flat[0][0].reshape(-1, at.width), (side, side))
    # A tile holds as many samples as 9 x _STRIP, or one window.
    for top, left, n, m in _tiles(h, w, max(1, 9 * _STRIP // size)):
        tile = windows[top : top + n, left : left + m].reshape(n, m, size)
        out[top : top + n, left : left + m] = np.partition(tile, size // 2, axis=-1)[..., size // 2]
    return Plane._adopt(out)


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
    read the cropped band only.

    _walk runs the list on one thread per CPU (see _threads), each with a
    buffer set the calling thread allocates. A band writes only its own
    samples of the result and sums each in a fixed order, so the bits do not
    depend on the thread count or the schedule. Bands are 2 _STRIP samples
    so that each ufunc call runs long enough for another thread to take the
    interpreter lock meanwhile: at _STRIP, two threads ran no faster than
    one.
    """
    _check_fields(sigma_s=sigma_s, sigma_r=sigma_r)
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
    # One buffer set per thread: the weights, the sums and the underflow mask,
    # sized for the largest band. The sums' rows are a whole number of 64-byte
    # lines apart: a run apart, they ran about 7% slower at 512^2.
    sets = [(np.empty(length), np.empty((buckets, 2, -(-length // 8) * 8)), np.empty((buckets, most, data_at.cols), bool)) for _ in range(_threads(len(work)))]

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

    _walk(work, walk, sets)
    return out


def denoise_bilateral(plane: Plane, sigma_s: float, sigma_r: float) -> Plane:
    """Bilateral filter: Gaussian in space, Gaussian in intensity difference.

    Each output sample is the weight-normalized mean of its +/- ceil(3 sigma_s)
    window, range-weighted on the plane itself; the center has weight 1.
    """
    return Plane._adopt(_bilateral(plane.data, plane.data, sigma_s, sigma_r)[0])


def _soft_threshold(band: np.ndarray, threshold: float, magnitude: Optional[np.ndarray] = None) -> None:
    """Shrink band toward zero by threshold, in place, with magnitude, band-shaped, as a temporary if given.

    A band sample of -0.0 gives +0.0, as sign(band) * max(|band| - t, 0) does.
    """
    magnitude = np.abs(band, out=magnitude)
    np.maximum(np.subtract(magnitude, threshold, out=magnitude), 0.0, out=magnitude)
    # + 0.0 turns -0.0 into +0.0 and leaves every other sample as it is.
    np.copysign(magnitude, np.add(band, 0.0, out=band), out=band)


def _variance(band: np.ndarray, spare: np.ndarray) -> float:
    """band.var(), with the deviations written into spare, band-shaped: np.var's sums, in its order."""
    mean = np.add.reduce(band, axis=None, keepdims=True) / band.size
    np.square(np.subtract(band, mean, out=spare), out=spare)
    return float(np.add.reduce(spare, axis=None) / band.size)


def _mirror(data: np.ndarray, pad: np.ndarray) -> None:
    """Fill pad with data at its top left and data's mirror reflection below and right of it, as np.pad(mode="reflect") does."""
    h, w = data.shape
    pad[:h, :w] = data
    for lines, n in ((pad[:, :w], h), (pad.T, w)):
        if n == 1:
            # np.pad repeats a lone line.
            lines[1:] = lines[:1]
            continue
        # Each pass reflects up to n - 1 lines about the last one written.
        while n < len(lines):
            k = min(n - 1, len(lines) - n)
            lines[n : n + k] = lines[n - 1 - k : n - 1][::-1]
            n += k


def _wavelet(data: np.ndarray, levels: int, sigma_n: Optional[float], buffers: tuple, out: np.ndarray) -> bool:
    """denoise_wavelet's samples for data, written into out, with buffers from _wavelet_buffers.

    False, with out untouched, where the noise level is 0 and the result is
    data itself.
    """
    pad, subbands, spare, other = buffers
    if sigma_n is None:
        # The bound is on the caller's sigma_n: under sigma = SIGMA_MAX noise
        # a plane's own estimate can exceed it.
        sigma_n = _estimate_sigma(data, spare)
    if sigma_n == 0.0:
        return False
    if pad is not None:
        _mirror(data, pad)
    _dwt(data if pad is None else pad, subbands, spare)
    noise_var = sigma_n**2
    for _, *triple in subbands:
        for band in triple:
            temporary = _prefix(spare, band.shape)
            signal_var = max(_variance(band, temporary) - noise_var, 0.0)
            if signal_var == 0.0:
                band.fill(0.0)
            else:
                _soft_threshold(band, noise_var / math.sqrt(signal_var), temporary)
    # The inverse writes each level into the next finer level's ll, dead since
    # the forward pass, and the finest into out, or into the pad to crop.
    finest = out if pad is None else pad
    _idwt(subbands[-1][0], [triple for _, *triple in subbands], [finest] + [ll for ll, *_ in subbands[:-1]], spare, other)
    if pad is not None:
        h, w = data.shape
        out[...] = pad[:h, :w]
    return True


def denoise_wavelet(plane: Plane, levels: int, sigma_n: Optional[float] = None) -> Plane:
    """Soft-threshold Haar detail coefficients, one threshold per subband.

    sigma_n=None estimates the noise level from the plane itself. sigma_n=0
    returns the input unchanged (every threshold would be zero). A plane whose
    sides are not multiples of 2**levels is mirror-padded at the bottom and
    right up to the next multiples, and the result is cropped back.
    """
    _check_fields(levels=levels, sigma_n=sigma_n)
    out = np.empty(plane.data.shape)
    denoised = _wavelet(plane.data, levels, sigma_n, _wavelet_buffers(plane.data.shape, levels), out)
    return Plane._adopt(out) if denoised else plane


# kind -> (filter, the DenoiserConfig fields it takes after the plane).
_DENOISERS = {
    "none": (lambda plane: plane, ()),
    "gaussian": (denoise_gaussian, ("sigma_s",)),
    "median": (denoise_median, ("radius",)),
    "bilateral": (denoise_bilateral, ("sigma_s", "sigma_r")),
    "wavelet": (denoise_wavelet, ("levels", "sigma_n")),
}
DENOISER_KINDS = tuple(_DENOISERS)


def denoise_plane(plane: Plane, config: DenoiserConfig) -> Plane:
    """Apply the configured denoiser to one plane."""
    denoiser, fields = _DENOISERS[config.kind]
    return denoiser(plane, *(getattr(config, field) for field in fields))


# The fewest samples of each plane that denoise_planes runs on _walk's
# threads. In one process, three 256^2 planes ran slower on two threads
# than on one, and 512^2 planes faster.
_POOLED_SAMPLES = 8 * _STRIP


def denoise_planes(planes: Sequence[Plane], config: DenoiserConfig) -> list[Plane]:
    """Apply the configured denoiser to each of planes, in order.

    Wavelet planes of one shape and at least _POOLED_SAMPLES samples each run
    on _walk's threads, one plane per item; the calling thread allocates
    each plane's output and one set of _wavelet_buffers per thread. The
    planes are computed alike on any thread, so the bits are those of
    denoise_plane. Other planes and kinds, the band-walked ones among them,
    run one by one through denoise_plane on the calling thread.
    """
    if config.kind != "wavelet" or len({plane.data.shape for plane in planes}) != 1 or planes[0].data.size < _POOLED_SAMPLES:
        return [denoise_plane(plane, config) for plane in planes]
    shape = planes[0].data.shape
    outs = [np.empty(shape) for _ in planes]
    denoised = [False] * len(planes)

    def step(i, buffers):
        denoised[i] = _wavelet(planes[i].data, config.levels, config.sigma_n, buffers, outs[i])

    _walk(range(len(planes)), step, [_wavelet_buffers(shape, config.levels) for _ in range(_threads(len(planes)))])
    return [Plane._adopt(out) if done else plane for plane, out, done in zip(planes, outs, denoised)]


def denoise_subimages(subs: SubImages, config: DenoiserConfig) -> SubImages:
    """Denoise the four CFA sub-images independently with one configuration.

    Each half-resolution plane (R, G1, G2, B) is a uniformly sampled image of
    one color class, so the single-plane filters apply without modification;
    denoise_planes runs them.
    """
    return SubImages(*denoise_planes(subs.planes, config), pattern=subs.pattern)
