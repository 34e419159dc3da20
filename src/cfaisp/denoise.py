"""Single-plane denoisers and their application to CFA sub-images.

Four filters with one shared contract (Plane in, same-sized Plane out):

- gaussian: separable blur, truncated at three sigmas per side, as one
  vertical and one horizontal pass over each band of the padded plane.
- median: the middle value of each (2 radius + 1)^2 window. Radius 1 runs a
  pruned 19-exchange sorting network of elementwise min/max over the nine
  neighbour runs of each band; larger radii partition the windows of one
  2-D tile at a time.
- bilateral: edge-preserving blur weighting neighbors by spatial distance
  and intensity difference, walked in bands whose buffers are written in
  place.
- wavelet: soft thresholding of orthonormal Haar detail coefficients with a
  per-subband data-driven threshold; the coarse approximation is kept as is.

Borders are handled by mirror reflection without duplicating the edge sample.
_shifted is the one place that pads for it: the gaussian, median and
bilateral filters and the linear and joint demosaickers read every neighbour
through it. It splits the pad once into contiguous phase planes, one per 2x2
tile site at step 2. A stencil stage walks the lattice in bands of whole
rows, at most _STRIP lattice samples each, and reads each neighbour of a band
as one contiguous run of a flattened phase plane. It computes across the
padded width and crops the padding columns away. The wavelet pads a plane
whose sides are not multiples of 2^levels the same way, at the bottom and
right, and crops the result back.

The wavelet threshold for a subband with noise level sigma_n and signal
spread sigma_x = sqrt(max(var - sigma_n^2, 0)) is sigma_n^2 / sigma_x; a
subband with no estimated signal is zeroed outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cfaisp.cfa import SubImages
from cfaisp.imageio import _STRIP, DimensionError, Plane, _tiles
from cfaisp.noise import SIGMA, Rule, estimate_sigma, is_int, is_real

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
        float, Rule(lambda v: is_real(v) and v >= SIGMA_FLOOR, f">= {SIGMA_FLOOR:g}"), _show_real, "range sigma (bilateral, joint-bilateral), or inf for spatial weights only"
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
    current = plane.data
    details = []
    for _ in range(levels):
        a, b = current[0::2, 0::2], current[0::2, 1::2]
        c, d = current[1::2, 0::2], current[1::2, 1::2]
        # Rows 2i and 2i + 1 of the row pass's lo, then of its hi, each
        # buffer reused once its last reader is done.
        even, odd = _haar(a, b, np.add), _haar(c, d, np.add)
        ll, hl = _haar(even, odd, np.add), _haar(even, odd, np.subtract, out=even)
        even, odd = _haar(a, b, np.subtract, out=odd), _haar(c, d, np.subtract)
        lh, hh = _haar(even, odd, np.add), _haar(even, odd, np.subtract, out=even)
        details.append((lh, hl, hh))
        current = ll
    return WaveletPyramid(ll=current, details=tuple(details))


def idwt_haar(pyramid: WaveletPyramid) -> Plane:
    """Invert dwt_haar, coarsest level first."""
    current = pyramid.ll
    for lh, hl, hh in reversed(pyramid.details):
        h, w = current.shape
        out = np.empty((2 * h, 2 * w), dtype=np.float64)
        lo, hi = np.empty((h, w)), np.empty((h, w))
        # Rows 2i, then rows 2i + 1, of the column pass's lo and hi, whose
        # sums and differences fill the output's even and odd columns.
        for row, op in ((0, np.add), (1, np.subtract)):
            _haar(current, hl, op, out=lo)
            _haar(lh, hh, op, out=hi)
            np.add(lo, hi, out=out[row::2, 0::2])
            np.subtract(lo, hi, out=out[row::2, 1::2])
        current = np.divide(out, _SQRT2, out=out)
    # A pyramid with no detail levels hands back the caller's own ll array.
    return Plane(current) if current is pyramid.ll else Plane._adopt(current)


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

    def _start(self, y: int, x: int):
        """The phase plane of full-frame sample (y, x), and the sample's index in it."""
        y, x = y + self.radius, x + self.radius
        return self.flat[y % self.step][x % self.step], y // self.step * self.width + x // self.step

    def span(self, n: int) -> int:
        """The length of a run of n lattice rows: n - 1 padded rows, then cols samples."""
        return (n - 1) * self.width + self.cols

    def run(self, y: int, x: int, n: int) -> np.ndarray:
        """n lattice rows from (y, x), as one contiguous run of span(n) samples."""
        plane, start = self._start(y, x)
        return plane[start : start + self.span(n)]

    def view(self, y: int, x: int, rows: int, cols: int) -> np.ndarray:
        """rows x cols lattice samples from (y, x), a 2-D slice whose rows are contiguous."""
        plane, start = self._start(y, x)
        top, left = divmod(start, self.width)
        return plane.reshape(-1, self.width)[top : top + rows, left : left + cols]

    def bands(self):
        """(top, n) for each band of n whole lattice rows: n cols <= _STRIP samples, or one row.

        A band is sized by its lattice samples, not by its padded rows: a
        remainder band of a few rows costs as many ufunc calls as a full one,
        and padded rows would leave one in every phase of a power-of-two
        frame.
        """
        n = max(1, _STRIP // self.cols)
        for top in range(0, self.rows, n):
            yield top, min(n, self.rows - top)

    def crop(self, buffer: np.ndarray, n: int) -> np.ndarray:
        """The n x cols lattice samples of a band computed across the padded width.

        buffer's last axis holds at least n width samples, row i of the band
        at i width; the rest of each row is padding, and is dropped.
        """
        return buffer[..., : n * self.width].reshape(*buffer.shape[:-1], n, self.width)[..., : self.cols]


def _shifted(data: np.ndarray, radius: int, step: int = 1) -> _Lattice:
    """Neighbour reads on the lattice data[::step, ::step], from one mirror pad.

    Pads data by radius on every side once, reflecting without duplicating
    the edge sample, and splits the pad into its step^2 phase planes,
    pad[a::step, b::step], each a contiguous copy (step 1 keeps the pad
    itself). A stencil stage walks the lattice in bands of whole rows and
    reads each neighbour of a band as run(y + dy, x + dx, n): one contiguous
    run of a flattened phase plane, the band's rows a padded width apart. It
    computes across the padded width and keeps crop(buffer, n). The samples
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


def _blur_line(at, kernel: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum of kernel[r + j] * at(j) over |j| <= r, for a symmetric odd-length kernel, into out if given.

    The center tap comes first, then (at(-j) + at(j)) * kernel[r - j] for j
    from r down to 1, the order scipy.ndimage.convolve1d sums a symmetric
    kernel in, so the values equal convolve1d(mode="mirror") bit for bit.
    """
    r = len(kernel) // 2
    out = np.multiply(at(0), kernel[r], out=out)
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(at(-j), at(j), out=pair)
        np.add(out, np.multiply(pair, kernel[r - j], out=pair), out=out)
    return out


@np.errstate(over="ignore", invalid="ignore")
def denoise_gaussian(plane: Plane, sigma_s: float) -> Plane:
    """Separable Gaussian blur with a renormalized +/- 3 sigma kernel, one band at a time.

    The vertical pass blurs the band's padded rows whole, padding columns
    included: each is a copy of the column it mirrors, so its blur is that
    column's blur. The horizontal pass then reads those rows as flat runs.
    One pad serves both passes.
    """
    _check_fields(sigma_s=sigma_s)
    kernel = _gaussian_kernel(sigma_s)
    r = len(kernel) // 2
    h, w = plane.data.shape
    at = _shifted(plane.data, r)
    out = np.empty((h, w))
    for top, n in at.bands():
        columns = _blur_line(lambda dy: at.view(top + dy, -r, n, at.width).reshape(-1), kernel)
        rows, size = np.empty_like(columns), at.span(n)
        _blur_line(lambda dx: columns[r + dx : r + dx + size], kernel, rows[:size])
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
            band = np.empty(n * at.width)
            band[: at.span(n)] = middle
            out[top : top + n] = at.crop(band, n)
        return Plane._adopt(out)
    # A tile holds as many samples as 9 x _STRIP, or one window.
    for top, left, n, m in _tiles(h, w, max(1, 9 * _STRIP // size)):
        windows = sliding_window_view(at.view(top - radius, left - radius, n + 2 * radius, m + 2 * radius), (side, side))
        out[top : top + n, left : left + m] = np.partition(windows.reshape(n, m, size), size // 2, axis=-1)[..., size // 2]
    return Plane._adopt(out)


@np.errstate(over="ignore", invalid="ignore")
def _bilateral(data, guide, sigma_s, sigma_r, pattern=None) -> np.ndarray:
    """Bilateral means of data, one full frame per bucket, stacked (buckets, h, w).

    Weights are exp(-d^2 / 2 sigma_s^2) exp(-(g_p - g_q)^2 / 2 sigma_r^2) over
    a +/- ceil(3 sigma_s) window, g read from guide. With no pattern, every
    neighbour q joins p's one mean. With a CFA pattern, q joins p's mean in
    bucket R, G or B, the color pattern.sites gives q's tile site; mirror
    reflection keeps an index's parity on an even-size frame, so a bucket
    holds one color at the borders too. A weight sum below the smallest
    normal float takes the spatial-only mean (the sigma_r -> inf limit).

    The frame is walked one phase of the lattice [::step, ::step] at a time,
    step 2 with a pattern, in pattern.sites order, and in bands of whole
    rows of at most _STRIP lattice samples. A band runs every offset, in
    row-major window order, over flat neighbour runs into band-sized buffers
    written in place, so its working set stays in cache. The underflow
    fallback and its error read the cropped band only.
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

    def sums_at(y, x, n, inv_2sr):
        """Weighted sums (buckets, 2, n, cols), each bucket's (num, den), for the n lattice rows from full-frame (y, x)."""
        center = guide_at.run(y, x, n)
        weight, term = np.empty_like(center), np.empty_like(center)
        sums = np.zeros((buckets, 2, n * data_at.width))
        pairs = [tuple(pair[:, : center.size]) for pair in sums]
        for dy, dx, spatial in window:
            # -(d^2) * k and d^2 * -k round alike: negation is exact.
            np.subtract(guide_at.run(y + dy, x + dx, n), center, out=weight)
            np.square(weight, out=weight)
            np.multiply(weight, -inv_2sr, out=weight)
            np.exp(weight, out=weight)
            np.multiply(spatial, weight, out=weight)
            num, den = pairs[tile[(y + dy) % step * step + (x + dx) % step]]
            np.add(num, np.multiply(weight, data_at.run(y + dy, x + dx, n), out=term), out=num)
            np.add(den, weight, out=den)
        return data_at.crop(sums, n)

    tiny = np.finfo(np.float64).tiny
    for py, px, _ in sites:
        for top, n in data_at.bands():
            y = py + step * top
            sums = sums_at(y, px, n, inv_2sr)
            underflow = sums[:, 1] < tiny
            mean = out[:, y : y + step * n : step, px::step]
            # The fallback is a second sums_at call: a closure that called
            # itself would be a reference cycle, keeping each call's planes
            # alive until the next garbage collection.
            if underflow.any():
                spatial_only = sums_at(y, px, n, 0.0)
                if (spatial_only[:, 1] < tiny).any():
                    raise ValueError(f"sigma_s={sigma_s:g} is too small: the spatial weights of some sample underflow")
                np.divide(spatial_only[:, 0], spatial_only[:, 1], out=mean)
            np.divide(sums[:, 0], sums[:, 1], out=mean, where=~underflow)
    return out


def denoise_bilateral(plane: Plane, sigma_s: float, sigma_r: float) -> Plane:
    """Bilateral filter: Gaussian in space, Gaussian in intensity difference.

    Each output sample is the weight-normalized mean of its +/- ceil(3 sigma_s)
    window, range-weighted on the plane itself; the center has weight 1.
    """
    return Plane._adopt(_bilateral(plane.data, plane.data, sigma_s, sigma_r)[0])


def _soft_threshold(band: np.ndarray, threshold: float) -> None:
    """Shrink band toward zero by threshold, in place.

    A band sample of -0.0 gives +0.0, as sign(band) * max(|band| - t, 0) does.
    """
    magnitude = np.abs(band)
    np.maximum(np.subtract(magnitude, threshold, out=magnitude), 0.0, out=magnitude)
    # + 0.0 turns -0.0 into +0.0 and leaves every other sample as it is.
    np.copysign(magnitude, np.add(band, 0.0, out=band), out=band)


def denoise_wavelet(plane: Plane, levels: int, sigma_n: Optional[float] = None) -> Plane:
    """Soft-threshold Haar detail coefficients, one threshold per subband.

    sigma_n=None estimates the noise level from the plane itself. sigma_n=0
    returns the input unchanged (every threshold would be zero). A plane whose
    sides are not multiples of 2**levels is mirror-padded at the bottom and
    right up to the next multiples, and the result is cropped back.
    """
    _check_fields(levels=levels, sigma_n=sigma_n)
    if sigma_n is None:
        # The bound is on the caller's sigma_n: under sigma = SIGMA_MAX noise
        # a plane's own estimate can exceed it.
        sigma_n = estimate_sigma(plane)
    if sigma_n == 0.0:
        return plane
    h, w = plane.data.shape
    pad = (0, -h % 2**levels), (0, -w % 2**levels)
    padded = Plane._adopt(np.pad(plane.data, pad, mode="reflect")) if pad[0][1] or pad[1][1] else plane
    pyramid = dwt_haar(padded, levels)
    noise_var = sigma_n**2
    for triple in pyramid.details:
        for band in triple:
            signal_var = max(float(band.var()) - noise_var, 0.0)
            if signal_var == 0.0:
                band.fill(0.0)
            else:
                _soft_threshold(band, noise_var / math.sqrt(signal_var))
    out = idwt_haar(pyramid)
    return out if padded is plane else Plane(out.data[:h, :w])


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


def denoise_subimages(subs: SubImages, config: DenoiserConfig) -> SubImages:
    """Denoise the four CFA sub-images independently with one configuration.

    Each half-resolution plane (R, G1, G2, B) is a uniformly sampled image of
    one color class, so the single-plane filters apply without modification.
    """
    planes = (denoise_plane(plane, config) for plane in subs.planes)
    return SubImages(*planes, pattern=subs.pattern)
